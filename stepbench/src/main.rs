//! Training-step benchmark for the real CPU training stack.
//!
//! ```text
//! cargo run --release --manifest-path stepbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` is the separate traced run that
//! gives the per-layer metrics and prints a measured Table 1. Either way
//! the last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it holds the run's
//! provenance. Workloads and metrics are listed in `BENCHMARK.json`.

mod e2e;
mod report;
mod runner;
mod stats;
mod traced;
mod workload;

use report::{num, obj, Report};
use sf_trace::json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Workload, LOADER_WORKERS};

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A per-process directory for checkpoint files under the working
/// directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create() -> std::io::Result<ScratchDir> {
        let dir = Path::new(".stepbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run still uses the parent.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs `f`, returning its result and its wall time in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Peak resident set size of this process in KiB (`VmHWM`).
pub fn peak_rss_kb() -> Option<u64> {
    stats::parse_vmhwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stepbench: {e}");
            eprintln!("usage: stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = match Workload::new(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("stepbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = match ScratchDir::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("stepbench: cannot create the scratch directory: {e}");
            return ExitCode::from(1);
        }
    };

    let mut rep = Report::default();
    let m = &w.cfg.model;
    rep.note("workload", Value::Str(w.name.into()));
    rep.note("seed", num(args.seed as f64));
    rep.note("trace", Value::Bool(args.trace));
    rep.note("seconds", num(args.seconds as f64));
    rep.note("git_commit", Value::Str(report::git_commit()));
    rep.note(
        "host_cores",
        num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
    );
    rep.note("pool_threads", num(w.cfg.num_threads as f64));
    rep.note("loader_workers", num(LOADER_WORKERS as f64));
    rep.note(
        "config",
        obj([
            ("engine", Value::Str(format!("{:?}", w.engine))),
            ("replicas", num(w.replicas() as f64)),
            ("dap", num(w.cfg.dap as f64)),
            ("batch_per_replica", num(1.0)),
            ("fused_kernels", Value::Bool(w.cfg.fused_kernels)),
            ("model", Value::Str(format!("{m:?}"))),
            ("param_count_approx", num(m.approx_param_count() as f64)),
        ]),
    );

    let seconds = args.seconds as f64;
    if args.trace {
        traced::run(&w, args.seed, seconds, &scratch, &mut rep);
    } else {
        e2e::run(&w, args.seed, seconds, &scratch, &mut rep);
    }
    rep.note(
        "pool_threads_observed",
        num(sf_tensor::pool::num_threads() as f64),
    );
    drop(scratch);
    rep.print();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload pair-crop64 --seed 3 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("pair-crop64", 3, 20, true)
        );
    }

    #[test]
    fn rejects_malformed_command_lines() {
        assert!(args("--workload x --seed 1 --seconds 5").is_err());
        assert!(args("--workload x --seed -1 --seconds 5 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 5 --trace 2").is_err());
        assert!(args("--workload x --seed 1 --seconds 5 --trace").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
