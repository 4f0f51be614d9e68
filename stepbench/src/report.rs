//! Collects metrics, correctness checks and provenance, and prints the
//! result lines.

use crate::runner::Step;
use sf_trace::json::Value;
use std::collections::BTreeMap;

/// The result of one benchmark run.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    attempted: u64,
    failures: Vec<String>,
    provenance: BTreeMap<String, Value>,
}

impl Report {
    /// Records metric `name`.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.failures
                .push(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Counts `steps` as attempted and each faulty one as failed.
    pub fn steps(&mut self, what: &str, steps: &[Step]) {
        self.attempted += steps.len() as u64;
        for (i, s) in steps.iter().enumerate() {
            if let Some(fault) = s.fault {
                self.failures.push(format!("{what} step {i}: {fault}"));
            }
        }
    }

    /// Records a correctness check; a failed one counts as a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds a provenance entry (printed on the line before the result).
    pub fn note(&mut self, key: &str, value: Value) {
        self.provenance.insert(key.to_string(), value);
    }

    /// True while no check has failed.
    pub fn healthy(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints failures to stderr, the provenance line, and the result as
    /// the last line of stdout.
    pub fn print(mut self) {
        for f in &self.failures {
            eprintln!("stepbench: FAILED: {f}");
        }
        self.note(
            "failures",
            Value::Arr(
                self.failures
                    .iter()
                    .map(|f| Value::Str(f.clone()))
                    .collect(),
            ),
        );
        println!(
            "{}",
            obj([("provenance", Value::Obj(self.provenance))]).to_json()
        );
        let metrics = self
            .metrics
            .into_iter()
            .map(|(k, (v, unit))| {
                (
                    k,
                    obj([("value", num(v)), ("unit", Value::Str(unit.into()))]),
                )
            })
            .collect();
        let result = obj([
            ("correct", Value::Bool(self.failures.is_empty())),
            ("attempted", num(self.attempted.max(1) as f64)),
            ("failed", num(self.failures.len() as f64)),
            ("metrics", Value::Obj(metrics)),
        ]);
        println!("{}", result.to_json());
    }
}

/// A JSON number.
pub fn num(v: f64) -> Value {
    Value::Num(v)
}

/// A JSON object from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The commit the checkout was made from, read from `.git` when present.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None => head,
    }
}
