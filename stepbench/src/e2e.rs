//! The untraced run: end-to-end metrics a user of the trainer sees.
//!
//! On a shared virtual machine the speed of the same step drifts by up to
//! half for tens of seconds at a time, with other tenants' load; the
//! process's CPU time grows with its wall time, so this is not time taken
//! away from it, and it stays in CPU-time measurements. A run's median step
//! lands on whichever speed held during the run, so the step, throughput
//! and evaluation timings are the run's fastest observation, each from many
//! short samples, which varies far less between runs. Set-up time is the
//! median of several set-ups. Medians, quartiles and sample counts go to
//! the provenance line.

use crate::report::{num, obj, Report};
use crate::runner::Runner;
use crate::stats::{median, minimum, percentile, quartiles, tail_percentile};
use crate::workload::{Inputs, Workload, EVAL_SEED};
use crate::{peak_rss_kb, timed, ScratchDir};
use scalefold::{analytic_comm_volume, Trainer};
use sf_trace::json::Value;

/// Trainer constructions timed for `setup_s` (its median is reported):
/// at least this many, and more while they take under `SETUP_SHARE`.
const SETUP_REPS: usize = 7;
/// Corpus samples per replica: one epoch of the step loop.
pub const INPUT_POOL: usize = 10;
/// Steps of the loss trajectory every run takes, whatever the host speed:
/// two epochs, so every seed averages `train_loss_final` over the same
/// samples, each seen twice.
const TRAJECTORY_STEPS: usize = 2 * INPUT_POOL;
/// Optimizer steps per timed `train(n)` window: short windows give many
/// samples, and the second step's input is prepared during the first.
const WINDOW_STEPS: u64 = 2;

/// Shares of `--seconds` spent in each timed phase.
const SETUP_SHARE: f64 = 0.05;
const STEP_SHARE: f64 = 0.45;
const EVAL_SHARE: f64 = 0.2;
const WINDOW_SHARE: f64 = 0.35;
/// The timed phases take turns this many times, so that each metric
/// samples the whole run rather than one stretch of it.
const ROUNDS: usize = 10;

/// Runs workload `w` untraced for about `seconds` and records every
/// end-to-end metric in `rep`.
pub fn run(w: &Workload, seed: u64, seconds: f64, scratch: &ScratchDir, rep: &mut Report) {
    let replicas = w.replicas();
    let inputs = Inputs::new(w, seed, INPUT_POOL);
    let cache = w.batches(EVAL_SEED, w.eval_samples);

    // Set-up: construction, lazy parameter init, first loader fill and the
    // first optimizer step.
    let mut setup_s = Vec::new();
    let mut runner: Option<Runner> = None;
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < seconds * SETUP_SHARE {
        drop(runner.take());
        let ((r, first), ms) = timed(|| {
            let mut r = Runner::new(w);
            let first = r.train(1);
            (r, first)
        });
        setup_s.push(ms / 1e3);
        rep.steps("setup", &first);
        runner = Some(r);
    }
    let mut runner = runner.expect("at least one set-up");

    let mut step_ms = Vec::new();
    let mut losses = Vec::new();
    let mut all_reduced = Vec::new();
    let mut eval_ms = Vec::new();
    let mut lddt = f64::NAN;
    let mut grid_eval = None;
    let mut window_rates = Vec::new();
    let (mut window_ms, mut window_steps, mut i) = (0.0, 0, 0usize);
    let sum = |xs: &[f64]| xs.iter().sum::<f64>();
    for round in 1..=ROUNDS {
        let budget = |share: f64| round as f64 / ROUNDS as f64 * seconds * share * 1e3;
        // Steps: the first round takes exactly the fixed-length trajectory,
        // so that its evaluation below is deterministic; later rounds catch
        // up with the step budget.
        while (i < TRAJECTORY_STEPS || (round > 1 && sum(&step_ms) < budget(STEP_SHARE)))
            && rep.healthy()
        {
            let batches = inputs.step(i);
            let (s, ms) = timed(|| runner.step(&batches));
            step_ms.push(ms);
            rep.steps("loop", std::slice::from_ref(&s));
            if i < TRAJECTORY_STEPS {
                losses.push(s.loss);
            }
            all_reduced.push(s.all_reduced);
            i += 1;
        }

        // Evaluation of the held-out cache; lDDT-Cα scores the
        // trajectory's weights over the whole cache. A grid's replica-0
        // weights go through a checkpoint into a `Trainer`, the only public
        // evaluation path.
        if round == 1 {
            if let Runner::Grid(_) = runner {
                grid_eval = Some(load_replica0(w, &runner, scratch, rep));
            }
        }
        let evaluator = match (&runner, &grid_eval) {
            (Runner::Single(t), _) => t.as_ref(),
            (Runner::Grid(_), Some(t)) => t,
            (Runner::Grid(_), None) => unreachable!("loaded in the first round"),
        };
        if round == 1 {
            lddt = f64::from(evaluator.evaluate_cached(&cache));
        }
        // Timed one held-out sample per call: many short samples.
        while sum(&eval_ms) < budget(EVAL_SHARE) {
            let sample = std::slice::from_ref(&cache[eval_ms.len() % cache.len()]);
            eval_ms.push(timed(|| evaluator.evaluate_cached(sample)).1);
        }

        // Throughput of the trainer's own loop, input pipeline included,
        // over windows of a fixed number of steps.
        while window_ms < budget(WINDOW_SHARE) && rep.healthy() {
            let n = WINDOW_STEPS;
            let (chunk, ms) = timed(|| runner.train(n));
            rep.steps("train window", &chunk);
            rep.check(chunk.len() as u64 == n, || {
                format!("train({n}) returned {} steps", chunk.len())
            });
            window_rates.push((chunk.len() * replicas) as f64 / (ms / 1e3));
            window_ms += ms;
            window_steps += chunk.len();
            all_reduced.extend(chunk.iter().map(|s| s.all_reduced));
        }
    }
    let steps_taken = 1 + i + window_steps;

    rep.metric("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s");
    rep.metric("step_ms_min", minimum(&step_ms).unwrap_or(f64::NAN), "ms");
    let fastest_window = window_rates.iter().copied().max_by(f64::total_cmp);
    rep.metric(
        "samples_per_s_max",
        fastest_window.unwrap_or(f64::NAN),
        "1/s",
    );
    let loss_final = losses.iter().map(|&l| f64::from(l)).sum::<f64>() / losses.len() as f64;
    rep.metric("train_loss_final", loss_final, "loss");
    rep.check((0.0..=1.0).contains(&lddt), || {
        format!("lDDT-Cα {lddt} outside [0, 1]")
    });
    rep.metric("eval_lddt", lddt, "lddt");
    rep.metric(
        "eval_ms_per_sample_min",
        minimum(&eval_ms).unwrap_or(f64::NAN),
        "ms",
    );
    rep.metric(
        "peak_rss_mb",
        peak_rss_kb().unwrap_or(0) as f64 / 1024.0,
        "MB",
    );

    common_checks(w, &runner, steps_taken, &all_reduced, rep);
    rep.note(
        "loss_trajectory",
        Value::Arr(losses.iter().map(|&l| num(f64::from(l))).collect()),
    );
    rep.note(
        "loss_trajectory_fnv",
        Value::Str(format!("{:016x}", fnv_bits(&losses))),
    );
    let rounded =
        |xs: &[f64]| Value::Arr(xs.iter().map(|&t| num((t * 1e3).round() / 1e3)).collect());
    rep.note("step_ms", rounded(&step_ms));
    // The slowest steps track the host's load more than the program's, so
    // the tail is recorded here rather than gated as a metric.
    if let Some(p) = tail_percentile(step_ms.len(), 10) {
        rep.note(
            "step_ms_tail",
            obj([
                ("percentile", num(p)),
                ("value", num(percentile(&step_ms, p).unwrap_or(f64::NAN))),
            ]),
        );
    }
    rep.note("window_samples_per_s", rounded(&window_rates));
    rep.note("eval_ms_per_sample", rounded(&eval_ms));
    let spread = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
        obj([
            ("samples", num(xs.len() as f64)),
            ("min", num(minimum(xs).unwrap_or(f64::NAN))),
            ("q1", num(q1)),
            ("median", num(median(xs).unwrap_or(f64::NAN))),
            ("q3", num(q3)),
        ])
    };
    rep.note(
        "samples",
        obj([
            ("setup_s", spread(&setup_s)),
            ("step_ms", spread(&step_ms)),
            ("eval_ms_per_sample", spread(&eval_ms)),
            ("window_samples_per_s", spread(&window_rates)),
            ("window_steps", num(WINDOW_STEPS as f64)),
            ("trajectory_steps", num(TRAJECTORY_STEPS as f64)),
            (
                "train_window_samples",
                num((window_steps * replicas) as f64),
            ),
            ("eval_samples", num(w.eval_samples as f64)),
            ("steps_per_run", num(steps_taken as f64)),
        ]),
    );
}

/// A `Trainer` holding the grid's replica-0 weights, passed through a
/// checkpoint file.
pub fn load_replica0(
    w: &Workload,
    runner: &Runner,
    scratch: &ScratchDir,
    rep: &mut Report,
) -> Trainer {
    let path = scratch.path().join("replica0.sfck");
    let mut t = Trainer::new(w.cfg.clone());
    let res = runner
        .params()
        .save_file(&path)
        .and_then(|()| t.load_checkpoint(&path));
    rep.check(res.is_ok(), || {
        format!("replica-0 weights did not round-trip: {res:?}")
    });
    t
}

/// Checks every run applies after training: no recovery events, DAP
/// traffic equal to the analytic volume, and a constant all-reduce volume.
pub fn common_checks(
    w: &Workload,
    runner: &Runner,
    steps: usize,
    all_reduced: &[usize],
    rep: &mut Report,
) {
    let events = runner.recovery_events();
    rep.check(events == 0, || format!("{events} recovery events"));
    let per_step = analytic_comm_volume(&w.cfg.model, w.cfg.dap);
    let k = steps * w.replicas();
    let got = runner.dap_comm();
    let want = scalefold::DapStats {
        all_gather_elements: per_step.all_gather_elements * k,
        all_to_all_elements: per_step.all_to_all_elements * k,
        gathers: per_step.gathers * k,
        switches: per_step.switches * k,
    };
    rep.check(got == want, || {
        format!("DAP traffic {got:?} != analytic {want:?} over {k} sample-steps")
    });
    if w.replicas() > 1 {
        let first = all_reduced.first().copied().unwrap_or(0);
        rep.check(first > 0 && all_reduced.iter().all(|&e| e == first), || {
            format!("all-reduce volume varies across steps: {all_reduced:?}")
        });
    }
}

/// FNV-1a over the loss bit patterns: equal hashes across runs mean
/// bitwise-identical trajectories.
pub fn fnv_bits(losses: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for l in losses {
        for b in l.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}
