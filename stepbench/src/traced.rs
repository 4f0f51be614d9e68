//! The traced run: per-layer metrics and a measured Table 1.
//!
//! Three sources, none of which adds a span inside the program:
//! 1. the program's own `sf-trace` spans (`step`, phases, `kernel`,
//!    `pool`, `collective`, `loader`, `data_wait`), recorded while the
//!    trainers run and drained after every step;
//! 2. the benchmark's own timers around calls into each crate's public
//!    functions (module forwards, `Graph::backward`, clipping, Adam+SWA,
//!    the all-reduce, checkpoints, featurization), and one benchmark span
//!    around the grid's `train(n)`, whose trainer has no step span;
//! 3. counts the program already keeps (`Graph::len`,
//!    `Graph::activation_bytes`, `DapStats`, all-reduce element counts).
//!
//! Figures a workload's step has no work for are structural zeros: the
//! collectives on a single device.

use crate::e2e::{common_checks, load_replica0, INPUT_POOL};
use crate::report::{num, obj, Report};
use crate::runner::Runner;
use crate::stats::{median, self_time};
use crate::workload::{Inputs, Workload};
use crate::{timed, ScratchDir};
use scalefold::{DapGroup, DapStats, Trainer};
use sf_autograd::{Graph, ParamStore, Var};
use sf_cluster::collective::all_reduce_tensors;
use sf_data::featurize::featurize;
use sf_data::SyntheticDataset;
use sf_model::evoformer::{
    msa_column_attention, msa_row_attention_with_pair_bias, outer_product_mean, transition,
    triangle_attention, triangle_multiplication, BlockDims,
};
use sf_model::structure::structure_module;
use sf_model::{AlphaFold, AxialCollectives, FeatureBatch, ModelConfig};
use sf_opgraph::ops::ModuleTag;
use sf_optim::{clip_by_global_norm, FusedAdamSwa, GradBuckets, Grads};
use sf_tensor::bf16::Precision;
use sf_tensor::Tensor;
use sf_trace::json::Value;
use sf_trace::{Event, EventKind, Trace, PHASE_CATS};
use std::time::Instant;

/// Untraced/traced step pairs at least timed.
const MIN_PAIRS: usize = 6;
/// Steps of the traced `train(n)` window: more than an epoch of the
/// trainer's 16-sample dataset, so the window crosses an epoch boundary
/// and its loader start-up wait.
const WINDOW_STEPS: u64 = 18;
/// Repetitions every layer probe at least makes (after one warm-up).
const MIN_REPS: usize = 3;
/// Bucket size `DataParallelTrainer` packs gradients into for clipping.
const CLIP_BUCKET_BYTES: usize = 25 * 1024 * 1024;
/// Synthetic proteins the featurization probe cycles through.
const FEATURIZE_RECORDS: usize = 16;

/// Shares of `--seconds` for the paired steps and each probe.
const PAIR_SHARE: f64 = 0.35;
const SHADOW_SHARE: f64 = 0.1;
const RECYCLE_SHARE: f64 = 0.06;
const MODULE_SHARE: f64 = 0.12;
const MISC_SHARE: f64 = 0.02;

/// The Evoformer modules probed one by one, in block order.
const EVO_MODULES: [&str; 9] = [
    "msa_row",
    "msa_col",
    "msa_trans",
    "opm",
    "tri_mul_out",
    "tri_mul_in",
    "tri_att_start",
    "tri_att_end",
    "pair_trans",
];

/// Runs workload `w` traced and records every per-layer metric in `rep`.
pub fn run(w: &Workload, seed: u64, seconds: f64, scratch: &ScratchDir, rep: &mut Report) {
    let replicas = w.replicas();
    let grid = replicas > 1;
    let inputs = Inputs::new(w, seed, INPUT_POOL);
    let mut dropped = 0u64;

    // 1. Identical trainers step on identical inputs, one untraced and one
    //    traced, alternating which goes first: tracing overhead, the
    //    bitwise-equal trajectory check, and per-step phase, kernel, pool
    //    and collective spans.
    let mut plain = Runner::new(w);
    let mut traced = Runner::new(w);
    let mut ratios = Vec::new();
    let mut plain_ms = Vec::new();
    let mut per_step: Vec<StepSpans> = Vec::new();
    let mut all_reduced = Vec::new();
    let mut skipped = 0;
    let start = Instant::now();
    let mut i = 0;
    while (i <= MIN_PAIRS || start.elapsed().as_secs_f64() < seconds * PAIR_SHARE) && rep.healthy()
    {
        let batches = inputs.step(i);
        let mut run_plain = || timed(|| plain.step(&batches));
        let mut run_traced = || {
            sf_trace::enable();
            let out = timed(|| traced.step(&batches));
            sf_trace::disable();
            out
        };
        let ((sp, dp), (st, dt)) = if i % 2 == 0 {
            let p = run_plain();
            (p, run_traced())
        } else {
            let t = run_traced();
            (run_plain(), t)
        };
        let trace = sf_trace::take();
        dropped += trace.dropped;
        rep.steps("untraced", &[sp]);
        rep.steps("traced", &[st]);
        rep.check(sp.loss.to_bits() == st.loss.to_bits(), || {
            format!(
                "step {i}: traced loss {} != untraced loss {}",
                st.loss, sp.loss
            )
        });
        all_reduced.push(st.all_reduced);
        skipped += [sp, st].iter().filter(|s| s.skipped()).count();
        // Step 0 initializes the parameters lazily: set-up, not a step.
        if i > 0 {
            ratios.push(dt / dp);
            plain_ms.push(dp);
            per_step.push(StepSpans::from_trace(&trace));
        }
        i += 1;
    }
    let mut steps_taken = i;
    let step_p50 = median(&plain_ms).unwrap_or(f64::NAN);
    // Each pair ran back to back, so its ratio is free of slower drift in
    // the host's speed.
    let overhead = 100.0 * (median(&ratios).unwrap_or(f64::NAN) - 1.0);

    // The trainer's own loop: the same seed repeats its losses bit for
    // bit, another seed does not.
    let first_loss = |w: &Workload| Runner::new(w).train(1)[0].loss.to_bits();
    let alt = Workload::new(w.name, seed ^ 0x5EED).expect("validated workload");
    let (a, b, c) = (first_loss(w), first_loss(w), first_loss(&alt));
    rep.check(a == b, || {
        format!("seed {seed} gave different losses in two trainers")
    });
    rep.check(a != c, || {
        format!("seeds {seed} and {} gave the same loss", seed ^ 0x5EED)
    });

    // 2. The trainer's own `train(n)` loop, input path included, traced as
    //    one window: step spans, their self time, loader waits and
    //    preparations. `DataParallelTrainer` emits no step span, so the
    //    benchmark wraps its window in one.
    sf_trace::enable();
    let window = {
        let _window = sf_trace::span("bench", "train_window");
        traced.train(WINDOW_STEPS)
    };
    sf_trace::disable();
    let window_trace = sf_trace::take();
    dropped += window_trace.dropped;
    rep.steps("traced window", &window);
    all_reduced.extend(window.iter().map(|s| s.all_reduced));
    skipped += window.iter().filter(|s| s.skipped()).count();
    steps_taken += window.len();
    let loop_spans = match grid {
        false => LoopSpans::from_trace(&window_trace, "step", 1, window.len()),
        true => LoopSpans::from_trace(&window_trace, "bench", window.len(), window.len()),
    };
    common_checks(w, &traced, steps_taken, &all_reduced, rep);

    // 3. Layer probes on the trained weights, at the workload's shapes.
    let params = traced.params().clone();
    let shadow = shadow_steps(w, &params, &inputs, seconds * SHADOW_SHARE);
    rep.check(shadow.all_reduce_elements == all_reduced[0], || {
        format!(
            "measured all-reduce volume {} != DpStepReport.elements_all_reduced {}",
            shadow.all_reduce_elements, all_reduced[0]
        )
    });
    let warm_recycle_ms = warm_recycle(w, &params, inputs.sample(), seconds * RECYCLE_SHARE);
    let modules = module_probes(w, &params, seed, seconds * MODULE_SHARE);
    let dap = DapTimes::from_steps(&per_step, traced.dap_comm(), steps_taken);
    let ckpt = checkpoint_probe(w, &traced, scratch, seconds * MISC_SHARE, rep);
    let featurize_ms = featurize_probe(w, seed, seconds * MISC_SHARE);

    // The `Trainer` times its own forward and backward (gradient
    // collection included) in phase spans; the grid's come from the
    // replay.
    let med = |f: fn(&StepSpans) -> f64| {
        median(&per_step.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let (forward_ms, backward_ms) = match grid {
        false => (med(|s| s.forward_ms), med(|s| s.backward_ms)),
        true => (shadow.forward_ms, shadow.backward_ms),
    };
    // The grid featurizes inline, with no loader: each step waits for its
    // replicas' samples, and every prepared sample is consumed.
    let (wait_ms, prepare_ms, useful_ratio) = match grid {
        false => (
            loop_spans.wait_ms,
            loop_spans.prepare_ms,
            loop_spans.useful_ratio,
        ),
        true => (replicas as f64 * featurize_ms, featurize_ms, 1.0),
    };

    // Metrics.
    let r = w.cfg.model.recycle_iters.max(1) as f64;
    let blocks = w.cfg.model.evoformer_blocks as f64;
    for (name, fwd, bwd) in &modules {
        rep.metric(&format!("sf-model.{name}.fwd_ms"), *fwd, "ms");
        rep.metric(&format!("sf-model.{name}.bwd_ms"), *bwd, "ms");
    }
    let evo_fwd: f64 = modules
        .iter()
        .filter(|m| m.0 != "structure")
        .map(|m| m.1)
        .sum();
    let structure_fwd = modules
        .iter()
        .find(|m| m.0 == "structure")
        .map_or(0.0, |m| m.1);
    rep.metric("sf-model.forward_ms", forward_ms, "ms");
    rep.metric("sf-model.warm_recycle_ms", warm_recycle_ms, "ms");
    rep.metric(
        "sf-model.fwd_coverage",
        r * (blocks * evo_fwd + structure_fwd) / forward_ms,
        "ratio",
    );
    rep.metric("sf-autograd.backward_ms", backward_ms, "ms");
    rep.metric("sf-autograd.grads_by_name_ms", shadow.grads_ms, "ms");
    rep.metric("sf-autograd.tape_nodes", shadow.tape_nodes as f64, "count");
    rep.metric(
        "sf-autograd.activation_bytes",
        shadow.activation_bytes as f64,
        "bytes",
    );
    rep.metric("sf-autograd.checkpoint_save_ms", ckpt.save_ms, "ms");
    rep.metric("sf-autograd.checkpoint_load_ms", ckpt.load_ms, "ms");
    rep.metric("sf-autograd.checkpoint_bytes", ckpt.bytes as f64, "bytes");
    rep.metric(
        "sf-tensor.attention_fused.fwd_ms",
        med(|s| s.attn_fwd_ms),
        "ms",
    );
    rep.metric(
        "sf-tensor.attention_fused.bwd_ms",
        med(|s| s.attn_bwd_ms),
        "ms",
    );
    rep.metric(
        "sf-tensor.attention_fused.calls",
        med(|s| s.attn_calls),
        "count",
    );
    rep.metric("sf-tensor.parallel_regions", med(|s| s.regions), "count");
    rep.metric("sf-tensor.parallel_ms", med(|s| s.region_ms), "ms");
    rep.metric("sf-optim.clip_ms", shadow.clip_ms, "ms");
    rep.metric("sf-optim.adam_swa_ms", shadow.adam_ms, "ms");
    rep.metric(
        "sf-optim.param_elements",
        params.num_elements() as f64,
        "count",
    );
    rep.metric(
        "sf-optim.skipped_steps",
        (skipped + shadow.skipped) as f64,
        "count",
    );
    rep.metric("sf-cluster.all_reduce_ms", shadow.all_reduce_ms, "ms");
    rep.metric(
        "sf-cluster.all_reduce_elements",
        shadow.all_reduce_elements as f64,
        "count",
    );
    rep.metric(
        "sf-cluster.all_reduce_calls",
        shadow.all_reduce_calls as f64,
        "count",
    );
    rep.metric("sf-cluster.dap_all_gather_ms", dap.gather_ms, "ms");
    rep.metric("sf-cluster.dap_all_to_all_ms", dap.exchange_ms, "ms");
    rep.metric("sf-cluster.dap_elements", dap.elements, "count");
    rep.metric("sf-cluster.dap_calls", dap.calls, "count");
    rep.metric("sf-data.wait_ms", wait_ms, "ms");
    rep.metric("sf-data.prepare_ms", prepare_ms, "ms");
    rep.metric("sf-data.featurize_ms", featurize_ms, "ms");
    rep.metric("sf-data.useful_ratio", useful_ratio, "ratio");
    rep.metric("scalefold.step_ms", loop_spans.step_ms, "ms");
    rep.metric("scalefold.other_ms", loop_spans.other_ms, "ms");
    rep.metric("sf-trace.overhead_pct", overhead, "%");
    rep.metric("sf-trace.dropped_events", dropped as f64, "count");
    rep.metric("sf-trace.coverage", loop_spans.coverage, "ratio");
    rep.check(dropped == 0, || format!("{dropped} trace events dropped"));

    let table = Table1 {
        workload: w.name,
        step_ms: step_p50,
        steps: plain_ms.len(),
        recycle: r,
        blocks,
        replicas: replicas as f64,
        modules: &modules,
        shadow: &shadow,
        dap: &dap,
        warm_recycle_ms,
    };
    table.print();
    rep.note(
        "samples",
        obj([
            ("paired_steps", num(plain_ms.len() as f64)),
            ("window_steps", num(window.len() as f64)),
            ("shadow_steps", num(shadow.reps as f64)),
            ("steps_per_run", num(steps_taken as f64)),
        ]),
    );
    let sources = if grid {
        "DataParallelTrainer emits no step or phase spans: forward and backward come from \
         the replay, the step span is the benchmark's around train(n), and data is inline \
         featurization (replicas x featurize_ms per step, every sample used)"
    } else {
        "Trainer step, phase, loader and data_wait spans; no collectives on one device \
         (structural zeros)"
    };
    rep.note("sources", Value::Str(sources.into()));
    rep.note("table1", table.to_json());
}

fn dur_us(e: &Event) -> u64 {
    match e.kind {
        EventKind::Complete { dur_us } => dur_us,
        _ => 0,
    }
}

/// Phase, kernel, pool and collective time of one traced step.
#[derive(Debug, Default, Clone)]
struct StepSpans {
    forward_ms: f64,
    backward_ms: f64,
    attn_fwd_ms: f64,
    attn_bwd_ms: f64,
    attn_calls: f64,
    regions: f64,
    region_ms: f64,
    gather_ms: f64,
    exchange_ms: f64,
}

impl StepSpans {
    fn from_trace(trace: &Trace) -> StepSpans {
        let mut s = StepSpans::default();
        for e in &trace.events {
            let ms = dur_us(e) as f64 / 1e3;
            match (e.cat.as_ref(), e.name.as_ref()) {
                ("forward", _) => s.forward_ms += ms,
                ("backward", _) => s.backward_ms += ms,
                ("kernel", "attention_fused") => {
                    s.attn_fwd_ms += ms;
                    s.attn_calls += 1.0;
                }
                ("kernel", "attention_fused_bwd") => {
                    s.attn_bwd_ms += ms;
                    s.attn_calls += 1.0;
                }
                ("pool", "parallel_for") => {
                    s.regions += 1.0;
                    s.region_ms += ms;
                }
                ("collective", "dap_all_gather") => s.gather_ms += ms,
                ("collective", "dap_all_to_all") => s.exchange_ms += ms,
                _ => {}
            }
        }
        s
    }
}

/// Step, phase and loader figures of the traced training-loop window.
struct LoopSpans {
    step_ms: f64,
    other_ms: f64,
    coverage: f64,
    wait_ms: f64,
    prepare_ms: f64,
    useful_ratio: f64,
}

impl LoopSpans {
    /// Figures of the `cat` spans in `trace`, each covering `per_span`
    /// optimizer steps, out of `consumed` samples the steps used.
    fn from_trace(trace: &Trace, cat: &str, per_span: usize, consumed: usize) -> LoopSpans {
        let spans: Vec<&Event> = trace.spans(cat).collect();
        let per_span = per_span.max(1) as f64;
        let mut step_ms = Vec::new();
        let mut other_ms = Vec::new();
        let (mut wall, mut covered) = (0u64, 0u64);
        for s in &spans {
            let span = (s.ts_us, s.end_us());
            let children: Vec<(u64, u64)> = trace
                .events
                .iter()
                .filter(|e| e.tid == s.tid && matches!(e.kind, EventKind::Complete { .. }))
                .filter(|e| PHASE_CATS.contains(&e.cat.as_ref()) || e.cat == "collective")
                .map(|e| (e.ts_us, e.end_us()))
                .collect();
            let own = self_time(span, &children);
            step_ms.push(dur_us(s) as f64 / 1e3 / per_span);
            other_ms.push(own as f64 / 1e3 / per_span);
            wall += dur_us(s);
            covered += dur_us(s) - own;
        }
        let steps = spans.len() as f64 * per_span;
        let wait_us: u64 = trace.spans("data_wait").map(dur_us).sum();
        let prepares: Vec<f64> = trace
            .spans("loader")
            .filter(|e| e.name == "prepare")
            .map(|e| dur_us(e) as f64 / 1e3)
            .collect();
        LoopSpans {
            step_ms: median(&step_ms).unwrap_or(f64::NAN),
            other_ms: median(&other_ms).unwrap_or(f64::NAN),
            coverage: covered as f64 / wall.max(1) as f64,
            wait_ms: wait_us as f64 / 1e3 / steps.max(1.0),
            prepare_ms: median(&prepares).unwrap_or(f64::NAN),
            useful_ratio: consumed as f64 / prepares.len().max(1) as f64,
        }
    }
}

/// Medians of the layer calls of a training step replayed through the
/// public API on a copy of the trained weights.
#[derive(Debug, Default)]
struct Shadow {
    reps: usize,
    forward_ms: f64,
    backward_ms: f64,
    grads_ms: f64,
    clip_ms: f64,
    adam_ms: f64,
    all_reduce_ms: f64,
    all_reduce_elements: usize,
    all_reduce_calls: usize,
    tape_nodes: usize,
    activation_bytes: usize,
    skipped: usize,
}

/// Repeats `f(rep)` once to warm up, then at least [`MIN_REPS`] times and
/// until `budget_s` has passed.
fn repeat(budget_s: f64, mut f: impl FnMut(usize)) -> usize {
    f(0);
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_REPS || start.elapsed().as_secs_f64() < budget_s {
        n += 1;
        f(n);
    }
    n
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

/// One step per repetition, replayed through the public API the way the
/// workload's trainer steps: each replica's forward, backward and gradient
/// collection (with the trainer's gradient rounding); on a grid the ring
/// all-reduce of every gradient tensor, written back to each replica, and
/// bucketed clipping of the reduced gradients; on one device global-norm
/// clipping; then every replica's fused Adam+SWA update on its own
/// (identical) gradients. Forward, backward and gradient times are per
/// sample; all-reduce, clip and Adam+SWA per step.
fn shadow_steps(w: &Workload, params: &ParamStore, inputs: &Inputs, budget_s: f64) -> Shadow {
    let replicas = w.replicas();
    let model = AlphaFold::new(w.cfg.model.clone());
    let group = DapGroup::new(w.cfg.dap);
    let dap = (w.cfg.dap > 1).then_some(&group as &dyn AxialCollectives);
    let mut stores = vec![params.clone(); replicas];
    let mut opts: Vec<FusedAdamSwa> = (0..replicas)
        .map(|_| FusedAdamSwa::new(w.cfg.adam, w.cfg.swa_decay))
        .collect();
    let mut t = [(); 6].map(|()| Vec::new());
    let mut out = Shadow::default();
    out.reps = repeat(budget_s, |rep| {
        // Repetition 0 warms up: its times are not kept.
        let mut keep = |i: usize, ms: f64| {
            if rep > 0 {
                t[i].push(ms);
            }
        };
        let mut grads: Vec<Grads> = Vec::with_capacity(replicas);
        for (store, batch) in stores.iter_mut().zip(&inputs.step(rep)) {
            let mut g = Graph::new();
            let (fwd, ms) = timed(|| model.forward_dap(&mut g, store, batch, dap));
            let fwd = fwd.expect("forward on a validated batch");
            keep(0, ms);
            out.tape_nodes = g.len();
            out.activation_bytes = g.activation_bytes();
            let (res, ms) = timed(|| g.backward(fwd.loss));
            res.expect("scalar loss");
            keep(1, ms);
            let (gr, ms) = timed(|| g.grads_by_name());
            keep(2, ms);
            let mut gr = gr.expect("consistent bindings");
            if w.cfg.precision != Precision::F32 {
                for grad in gr.values_mut() {
                    *grad = w.cfg.precision.quantize(grad);
                }
            }
            grads.push(gr);
        }
        let norm = if replicas > 1 {
            let names: Vec<String> = grads[0].keys().cloned().collect();
            let (elements, ms) = timed(|| {
                let mut elements = 0;
                for name in &names {
                    let mut ts: Vec<_> = grads.iter().map(|g| g[name].clone()).collect();
                    elements += all_reduce_tensors(&mut ts).elements_sent;
                    for (g, t) in grads.iter_mut().zip(ts) {
                        g.insert(name.clone(), t);
                    }
                }
                elements
            });
            keep(3, ms);
            out.all_reduce_elements = elements;
            out.all_reduce_calls = names.len();
            let (norm, ms) = timed(|| {
                let mut buckets = GradBuckets::pack(&grads[0], CLIP_BUCKET_BYTES);
                let norm = buckets.clip(w.cfg.clip_norm);
                if norm.is_finite() {
                    let clipped = buckets.unpack();
                    for g in grads.iter_mut() {
                        for (name, t) in &clipped {
                            g.insert(name.clone(), t.clone());
                        }
                    }
                }
                norm
            });
            keep(4, ms);
            norm
        } else {
            let (norm, ms) = timed(|| clip_by_global_norm(&mut grads[0], w.cfg.clip_norm));
            keep(4, ms);
            norm
        };
        if !norm.is_finite() {
            out.skipped += 1;
            return;
        }
        let lr = w.cfg.schedule.lr_at(rep as u64);
        let ((), ms) = timed(|| {
            for ((store, opt), g) in stores.iter_mut().zip(opts.iter_mut()).zip(&grads) {
                opt.step(store, g, lr);
            }
        });
        keep(5, ms);
    });
    let med_or_zero = |xs: &[f64]| if xs.is_empty() { 0.0 } else { med(xs) };
    out.forward_ms = med(&t[0]);
    out.backward_ms = med(&t[1]);
    out.grads_ms = med(&t[2]);
    out.all_reduce_ms = med_or_zero(&t[3]);
    out.clip_ms = med(&t[4]);
    out.adam_ms = med(&t[5]);
    out
}

/// Forward at the workload's recycling depth minus the forward at one
/// iteration: the cost of the warm, tape-discarding recycling passes.
/// Both are timed alternately on the same input.
fn warm_recycle(w: &Workload, params: &ParamStore, batch: &FeatureBatch, budget_s: f64) -> f64 {
    let full = AlphaFold::new(w.cfg.model.clone());
    let one = AlphaFold::new(ModelConfig {
        recycle_iters: 1,
        ..w.cfg.model.clone()
    });
    let group = DapGroup::new(w.cfg.dap);
    let dap = (w.cfg.dap > 1).then_some(&group as &dyn AxialCollectives);
    let mut store = params.clone();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    repeat(budget_s, |rep| {
        for (model, times) in [(&full, &mut a), (&one, &mut b)] {
            let mut g = Graph::new();
            let (out, ms) = timed(|| model.forward_dap(&mut g, &mut store, batch, dap));
            out.expect("forward on a validated batch");
            if rep > 0 {
                times.push(ms);
            }
        }
    });
    med(&a) - med(&b)
}

/// Forward and backward (of the output's sum) of every Evoformer module
/// and the structure module, run alone at the workload's unsharded
/// shapes. Returns `(name, fwd_ms, bwd_ms)` rows.
fn module_probes(
    w: &Workload,
    params: &ParamStore,
    seed: u64,
    budget_s: f64,
) -> Vec<(&'static str, f64, f64)> {
    let cfg = &w.cfg.model;
    let dims = BlockDims::main(cfg);
    let m0 = Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], seed).mul_scalar(0.3);
    let z0 = Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], seed ^ 1).mul_scalar(0.3);
    let mut store = params.clone();
    let per_module = budget_s / (EVO_MODULES.len() + 1) as f64;
    let mut rows = Vec::new();
    for name in EVO_MODULES.iter().copied().chain(["structure"]) {
        let prefix = format!("evoformer.block0.{name}");
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        repeat(per_module, |rep| {
            let mut g = Graph::new();
            let m = g.param(m0.clone());
            let z = g.param(z0.clone());
            let s = &mut store;
            let p = prefix.as_str();
            let (out, f_ms) = timed(|| -> sf_autograd::Result<Var> {
                let g = &mut g;
                match name {
                    "msa_row" => msa_row_attention_with_pair_bias(g, s, &dims, p, m, z),
                    "msa_col" => msa_column_attention(g, s, &dims, p, m),
                    "msa_trans" => transition(g, s, dims.c_m, dims.transition_factor, p, m),
                    "opm" => outer_product_mean(g, s, &dims, p, m, z),
                    "tri_mul_out" => triangle_multiplication(g, s, &dims, p, z, true),
                    "tri_mul_in" => triangle_multiplication(g, s, &dims, p, z, false),
                    "tri_att_start" => triangle_attention(g, s, &dims, p, z, true),
                    "tri_att_end" => triangle_attention(g, s, &dims, p, z, false),
                    "pair_trans" => transition(g, s, dims.c_z, dims.transition_factor, p, z),
                    _ => structure_module(g, s, cfg, m, z).map(|o| o.coords),
                }
            });
            let out = out.expect("module on consistent shapes");
            let sum = g.sum_all(out).expect("valid var");
            let (res, b_ms) = timed(|| g.backward(sum));
            res.expect("scalar output");
            if rep > 0 {
                fwd.push(f_ms);
                bwd.push(b_ms);
            }
        });
        rows.push((name, med(&fwd), med(&bwd)));
    }
    rows
}

/// DAP collective time and traffic per step.
#[derive(Debug, Default)]
struct DapTimes {
    gather_ms: f64,
    exchange_ms: f64,
    elements: f64,
    calls: f64,
}

impl DapTimes {
    /// Per step, from the traced steps and the cumulative `DapStats` of
    /// `steps_taken` optimizer steps; zeros on one device.
    fn from_steps(steps: &[StepSpans], comm: DapStats, steps_taken: usize) -> DapTimes {
        let n = steps_taken.max(1) as f64;
        DapTimes {
            gather_ms: med(&steps.iter().map(|s| s.gather_ms).collect::<Vec<_>>()),
            exchange_ms: med(&steps.iter().map(|s| s.exchange_ms).collect::<Vec<_>>()),
            elements: comm.total_elements() as f64 / n,
            calls: (comm.gathers + comm.switches) as f64 / n,
        }
    }
}

struct Checkpoint {
    save_ms: f64,
    load_ms: f64,
    bytes: u64,
}

/// `save_checkpoint_step` and `resume_latest` on the trained weights. A
/// grid's replica-0 weights are first loaded into a `Trainer`, which owns
/// the checkpoint API.
fn checkpoint_probe(
    w: &Workload,
    runner: &Runner,
    scratch: &ScratchDir,
    budget_s: f64,
    rep: &mut Report,
) -> Checkpoint {
    let dir = scratch.path().join("ckpt");
    let loaded;
    let trainer: &Trainer = match runner {
        Runner::Single(t) => t.as_ref(),
        Runner::Grid(_) => {
            loaded = load_replica0(w, runner, scratch, rep);
            &loaded
        }
    };
    let mut reader = Trainer::new(w.cfg.clone());
    let (mut save, mut load) = (Vec::new(), Vec::new());
    let mut bytes = 0;
    let mut ok = true;
    repeat(budget_s, |k| {
        let (saved, s_ms) = timed(|| trainer.save_checkpoint_step(&dir));
        let (resumed, l_ms) = timed(|| reader.resume_latest(&dir));
        ok &= matches!(resumed, Ok(Some(_)));
        if let Ok(path) = saved {
            bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        } else {
            ok = false;
        }
        if k > 0 {
            save.push(s_ms);
            load.push(l_ms);
        }
    });
    rep.check(
        ok && reader.store().num_elements() == runner.params().num_elements(),
        || "checkpoint save/resume failed".to_string(),
    );
    Checkpoint {
        save_ms: med(&save),
        load_ms: med(&load),
        bytes,
    }
}

/// Median time to featurize one synthetic protein at the workload's shapes.
fn featurize_probe(w: &Workload, seed: u64, budget_s: f64) -> f64 {
    let ds = SyntheticDataset::new(seed ^ 0xFEA7, FEATURIZE_RECORDS);
    let mut times = Vec::new();
    repeat(budget_s, |k| {
        let record = ds.record(k % ds.len());
        let (batch, ms) = timed(|| featurize(&record, &w.cfg.model, seed ^ k as u64));
        std::hint::black_box(batch);
        if k > 0 {
            times.push(ms);
        }
    });
    med(&times)
}

/// The measured Table 1: per-module time and share of the untraced step,
/// under `sf-opgraph`'s module tags.
struct Table1<'a> {
    workload: &'static str,
    step_ms: f64,
    steps: usize,
    recycle: f64,
    blocks: f64,
    replicas: f64,
    modules: &'a [(&'static str, f64, f64)],
    shadow: &'a Shadow,
    dap: &'a DapTimes,
    warm_recycle_ms: f64,
}

impl Table1<'_> {
    /// `(tag, name, fwd_ms, bwd_ms, ms per step)` rows. A module's forward
    /// runs once per recycling iteration and its backward once, in every
    /// block and replica.
    fn rows(&self) -> Vec<(ModuleTag, &'static str, f64, f64, f64)> {
        let mut rows: Vec<_> = self
            .modules
            .iter()
            .map(|&(name, fwd, bwd)| {
                let (tag, count) = match name {
                    "structure" => (ModuleTag::Structure, self.replicas),
                    _ => (ModuleTag::Evoformer, self.blocks * self.replicas),
                };
                (tag, name, fwd, bwd, count * (self.recycle * fwd + bwd))
            })
            .collect();
        let s = self.shadow;
        rows.push((ModuleTag::Optimizer, "clip", s.clip_ms, 0.0, s.clip_ms));
        rows.push((ModuleTag::Optimizer, "adam_swa", s.adam_ms, 0.0, s.adam_ms));
        rows
    }

    fn triangle_share(&self) -> f64 {
        let evo: Vec<_> = self
            .rows()
            .into_iter()
            .filter(|r| r.0 == ModuleTag::Evoformer)
            .collect();
        let tri: f64 = evo
            .iter()
            .filter(|r| r.1.starts_with("tri_"))
            .map(|r| r.4)
            .sum();
        tri / evo.iter().map(|r| r.4).sum::<f64>()
    }

    /// All-reduce (none on one device), clip and Adam+SWA as a share of
    /// the step.
    fn gradient_path_share(&self) -> f64 {
        let s = self.shadow;
        (s.all_reduce_ms + s.clip_ms + s.adam_ms) / self.step_ms
    }

    fn print(&self) {
        println!(
            "measured Table 1 — {} (untraced step p50 {:.3} ms over {} steps; forward ×{} recycling, ×{} blocks, ×{} replicas)",
            self.workload, self.step_ms, self.steps, self.recycle, self.blocks, self.replicas
        );
        println!(
            "{:<10} {:<14} {:>10} {:>10} {:>12} {:>8}",
            "module", "layer", "fwd_ms", "bwd_ms", "ms/step", "share"
        );
        for (tag, name, fwd, bwd, per_step) in self.rows() {
            println!(
                "{:<10} {:<14} {:>10.3} {:>10.3} {:>12.3} {:>7.1}%",
                format!("{tag:?}"),
                name,
                fwd,
                bwd,
                per_step,
                100.0 * per_step / self.step_ms
            );
        }
        for (name, ms) in [
            ("all_reduce", self.shadow.all_reduce_ms),
            ("dap", self.dap.gather_ms + self.dap.exchange_ms),
        ] {
            println!(
                "{:<10} {:<14} {:>10.3} {:>10} {:>12.3} {:>7.1}%",
                "comm",
                name,
                ms,
                "",
                ms,
                100.0 * ms / self.step_ms
            );
        }
        println!(
            "contrasts: triangle share of Evoformer module time {:.1}%; warm_recycle_ms {:.3}; gradient path {:.2}% of step",
            100.0 * self.triangle_share(),
            self.warm_recycle_ms,
            100.0 * self.gradient_path_share()
        );
    }

    fn to_json(&self) -> Value {
        let rows = self
            .rows()
            .into_iter()
            .map(|(tag, name, fwd, bwd, per_step)| {
                obj([
                    ("module", Value::Str(format!("{tag:?}"))),
                    ("layer", Value::Str(name.into())),
                    ("fwd_ms", num(fwd)),
                    ("bwd_ms", num(bwd)),
                    ("share", num(per_step / self.step_ms)),
                ])
            })
            .collect();
        obj([
            ("rows", Value::Arr(rows)),
            ("triangle_share_of_evoformer", num(self.triangle_share())),
            ("gradient_path_share", num(self.gradient_path_share())),
            ("warm_recycle_ms", num(self.warm_recycle_ms)),
        ])
    }
}
