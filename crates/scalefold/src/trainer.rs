//! The single-device trainer, the one-replica case of the
//! [`DataParallelTrainer`] engine: actual gradient descent on the actual
//! AlphaFold model (tiny scale), fed by the non-blocking data pipeline and
//! the fused Adam+SWA optimizer — every algorithm from the paper.
//!
//! The loop is fault-tolerant: data-worker failures surface as
//! [`RecoveryEvent`]s instead of crashes, non-finite gradients skip the
//! optimizer update (the large-scale fp16 failure mode of §3.4), and
//! `resume_latest` restarts from the newest checkpoint that passes CRC
//! verification. Faults can be injected deterministically with an
//! `sf_faults::FaultPlan` to drill all of this end to end.

use crate::distributed::DataParallelTrainer;
use serde::{Deserialize, Serialize};
use sf_autograd::{Graph, ParamStore};
use sf_data::featurize::featurize;
use sf_data::loader::LoaderError;
use sf_data::SyntheticDataset;
use sf_faults::FaultPlan;
use sf_model::metrics::lddt_ca;
use sf_model::{AlphaFold, FeatureBatch, ModelConfig};
use sf_optim::{AdamConfig, LrSchedule};
use sf_tensor::bf16::Precision;
use std::path::PathBuf;

/// Which data pipeline feeds [`Trainer::train`].
///
/// [`LoaderKind::NonBlocking`] is the paper's pipeline (and the default);
/// [`LoaderKind::Blocking`] reproduces PyTorch `DataLoader` semantics and
/// exists so the data-wait claim is measurable as an A/B: under a straggler
/// sample, the blocking loader's trace shows a large `data_wait` share
/// while the non-blocking trace stays near zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoaderKind {
    /// ScaleFold §3.2: deliver the lowest-index *ready* batch immediately.
    #[default]
    NonBlocking,
    /// Strict sampler order: a slow batch stalls the consumer.
    Blocking,
}

/// Trainer configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Model dimensions (use [`ModelConfig::tiny`]-scale on a CPU).
    pub model: ModelConfig,
    /// Adam hyper-parameters.
    pub adam: AdamConfig,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// SWA decay.
    pub swa_decay: f32,
    /// Global-norm gradient clip threshold.
    pub clip_norm: f32,
    /// Numeric precision for gradients/activations rounding.
    pub precision: Precision,
    /// Synthetic dataset size.
    pub dataset_len: usize,
    /// Data-loader worker threads.
    pub loader_workers: usize,
    /// Which pipeline delivers batches (non-blocking unless A/B-testing
    /// the loaders).
    pub loader: LoaderKind,
    /// Compute threads for the `sf-tensor` parallel CPU backend
    /// (0 = auto: honor `SF_THREADS`, else the machine's core count).
    pub num_threads: usize,
    /// Use the fused attention-softmax-gate kernel in the Evoformer
    /// (`false` = `--no-fused`: the composed op chain, for A/B and
    /// debugging). Overrides `model.fused_kernels` when disabled.
    pub fused_kernels: bool,
    /// Dynamic Axial Parallelism degree (ScaleFold §3.3): shard the
    /// Evoformer's axial activations across this many simulated ranks,
    /// moving them with the real ring collectives. `0` or `1` disables
    /// DAP; the model's `n_seq` and `n_res` must divide evenly.
    pub dap: usize,
    /// RNG seed.
    pub seed: u64,
}

impl TrainerConfig {
    /// A CPU-friendly configuration for tests and examples.
    pub fn tiny() -> Self {
        TrainerConfig {
            model: ModelConfig::tiny(),
            adam: AdamConfig {
                lr: 1e-3,
                ..AdamConfig::default()
            },
            schedule: LrSchedule {
                peak_lr: 1e-3,
                warmup_steps: 10,
                decay_after: 10_000,
                decay_factor: 0.95,
                decay_every: 10_000,
            },
            swa_decay: 0.99,
            clip_norm: 1.0,
            precision: Precision::F32,
            dataset_len: 16,
            loader_workers: 2,
            loader: LoaderKind::NonBlocking,
            num_threads: 0,
            fused_kernels: true,
            dap: 1,
            seed: 7,
        }
    }
}

/// Per-step training report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepReport {
    /// Optimizer step index.
    pub step: u64,
    /// Loss terms.
    pub loss: f32,
    /// Structural (distance-map) loss term.
    pub distance_loss: f32,
    /// Pre-clip global gradient norm.
    pub grad_norm: f32,
    /// lDDT-Cα of this step's prediction against the ground truth.
    pub lddt: f32,
    /// Learning rate used.
    pub lr: f32,
    /// True if the optimizer update was skipped because the loss or a
    /// gradient was non-finite (the step still counts; weights are
    /// untouched).
    pub skipped: bool,
}

/// One entry of the trainer's recovery log: a fault survived instead of a
/// crash.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryEvent {
    /// The data pipeline reported a sample that could not be prepared;
    /// training continued on the remaining samples.
    DataFault {
        /// The loader's typed error.
        error: LoaderError,
    },
    /// A non-finite loss or gradient was detected; the optimizer update
    /// was skipped.
    NonFiniteSkipped {
        /// The step (1-based, as in [`StepReport::step`]) that skipped.
        step: u64,
    },
    /// Weights were restored from a checkpoint directory, possibly
    /// falling back past corrupt files.
    Resumed {
        /// File the weights came from.
        path: PathBuf,
        /// Step number parsed from the file name, if present.
        step: Option<u64>,
        /// Newer files skipped as corrupt/unreadable.
        skipped_files: usize,
    },
}

impl std::fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryEvent::DataFault { error } => write!(f, "data fault survived: {error}"),
            RecoveryEvent::NonFiniteSkipped { step } => {
                write!(f, "non-finite gradients at step {step}: optimizer update skipped")
            }
            RecoveryEvent::Resumed {
                path,
                step,
                skipped_files,
            } => write!(
                f,
                "resumed from {} (step {:?}, {} corrupt file(s) skipped)",
                path.display(),
                step,
                skipped_files
            ),
        }
    }
}

/// Outcome of [`DataParallelTrainer::resume_latest`].
#[derive(Debug)]
pub struct ResumeSummary {
    /// File the weights were restored from.
    pub path: PathBuf,
    /// Step number parsed from the file name, if present.
    pub step: Option<u64>,
    /// Newer files skipped as corrupt/unreadable (path, reason).
    pub skipped: Vec<(PathBuf, String)>,
}

/// The real trainer: the one-replica case of [`DataParallelTrainer`].
/// Its steps report what a single device sees ([`StepReport`]: loss terms
/// and lDDT-Cα), and it evaluates the SWA weights. Everything else — the
/// recovery log, checkpoints, the fault injector, DAP traffic — is the
/// engine's, reached through `Deref`.
///
/// # Example
///
/// ```
/// use scalefold::{Trainer, TrainerConfig};
///
/// let mut cfg = TrainerConfig::tiny();
/// cfg.model.evoformer_blocks = 1;
/// cfg.model.extra_msa_blocks = 0;
/// let mut trainer = Trainer::new(cfg);
/// let reports = trainer.train(2);
/// assert_eq!(reports.len(), 2);
/// assert!(reports.iter().all(|r| r.loss.is_finite()));
/// assert_eq!(trainer.step_count(), 2);
/// ```
pub struct Trainer {
    engine: DataParallelTrainer,
}

impl std::ops::Deref for Trainer {
    type Target = DataParallelTrainer;

    fn deref(&self) -> &DataParallelTrainer {
        &self.engine
    }
}

impl std::ops::DerefMut for Trainer {
    fn deref_mut(&mut self) -> &mut DataParallelTrainer {
        &mut self.engine
    }
}

impl Trainer {
    /// Creates a trainer (parameters initialize lazily on the first step).
    pub fn new(cfg: TrainerConfig) -> Self {
        Trainer::with_faults(cfg, FaultPlan::none())
    }

    /// Creates a trainer that injects the faults of `plan` while training —
    /// worker panics and stragglers fire inside the data pipeline,
    /// NaN-gradient steps fire in [`Trainer::train_step`]. The run must
    /// survive all of them; inspect
    /// [`DataParallelTrainer::recovery_log`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.dap > 1` and the model's axial dimensions do not
    /// divide evenly across the DAP ranks (see
    /// [`crate::DapGroup::validate_config`]).
    pub fn with_faults(cfg: TrainerConfig, plan: FaultPlan) -> Self {
        Trainer {
            engine: DataParallelTrainer::with_faults(cfg, 1, plan),
        }
    }

    /// The parameter store (inspect or checkpoint weights).
    pub fn store(&self) -> &ParamStore {
        self.engine.store(0)
    }

    /// Runs one optimization step on `batch`.
    ///
    /// # Panics
    ///
    /// Panics if the batch shapes mismatch the model configuration (call
    /// [`FeatureBatch::validate`] upstream) or an internal op fails — both
    /// indicate programming errors rather than recoverable conditions.
    pub fn train_step(&mut self, batch: &FeatureBatch) -> StepReport {
        self.engine.train_step(std::slice::from_ref(batch)).replica0
    }

    /// Trains for `steps` steps through the engine's loop
    /// ([`DataParallelTrainer::train`]): the real non-blocking pipeline,
    /// threads and all, surviving data faults.
    pub fn train(&mut self, steps: u64) -> Vec<StepReport> {
        let reports = self.engine.train(steps);
        reports.into_iter().map(|r| r.replica0).collect()
    }

    /// Builds the in-memory evaluation cache (§3.4's "cached all evaluation
    /// data into the CPU DRAM instead of disk"): featurizes the held-out
    /// samples once, so every evaluation pass skips data preparation.
    pub fn build_eval_cache(&self, n: usize) -> Vec<FeatureBatch> {
        eval_batches(&self.cfg().model, self.cfg().seed, n)
    }

    /// Evaluates against a pre-built cache ([`Trainer::build_eval_cache`]).
    /// Identical scores to [`Trainer::evaluate`] on the same sample count —
    /// only the per-pass featurization cost disappears.
    pub fn evaluate_cached(&self, cache: &[FeatureBatch]) -> f32 {
        let _eval = sf_trace::span("eval", "evaluate_cached").arg("samples", cache.len() as f64);
        mean_lddt(self.model(), self.eval_store(), cache)
    }

    /// Asynchronous evaluation (§3.4): snapshots the SWA weights and runs
    /// the evaluation pass — featurization included — on a **separate
    /// thread**, so training can continue immediately — the functional
    /// analogue of offloading evaluation to dedicated nodes. Join the
    /// handle for the score.
    pub fn evaluate_async(&self, n: usize) -> std::thread::JoinHandle<f32> {
        let store = self.eval_store();
        let model = self.model().clone();
        let seed = self.cfg().seed;
        std::thread::spawn(move || {
            let _eval = sf_trace::span("eval", "evaluate_async").arg("samples", n as f64);
            mean_lddt(&model, store, &eval_batches(model.config(), seed, n))
        })
    }

    /// Evaluates mean lDDT-Cα over `n` held-out samples using the
    /// SWA-averaged weights (as the MLPerf recipe evaluates).
    pub fn evaluate(&self, n: usize) -> f32 {
        self.evaluate_cached(&self.build_eval_cache(n))
    }
}

/// The held-out evaluation samples: `n` (at least one) featurized records.
fn eval_batches(model: &ModelConfig, seed: u64, n: usize) -> Vec<FeatureBatch> {
    let eval_set = SyntheticDataset::new(seed ^ 0xE7A1, n.max(1));
    (0..n.max(1))
        .map(|i| featurize(&eval_set.record(i), model, 0xE7A1 ^ i as u64))
        .collect()
}

/// Mean lDDT-Cα of `model` with weights `store` over `batches`.
fn mean_lddt(model: &AlphaFold, mut store: ParamStore, batches: &[FeatureBatch]) -> f32 {
    let mut total = 0.0f32;
    for batch in batches {
        let mut g = Graph::new();
        let out = model
            .forward(&mut g, &mut store, batch)
            .expect("forward pass on eval batch");
        total += lddt_ca(g.value(out.coords), &batch.true_coords, &batch.residue_mask);
    }
    total / batches.len().max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DapStats;

    fn fast_cfg() -> TrainerConfig {
        let mut cfg = TrainerConfig::tiny();
        cfg.model.evoformer_blocks = 1;
        cfg.model.extra_msa_blocks = 0;
        cfg.model.template_blocks = 0;
        cfg.model.n_templates = 1;
        cfg.model.structure_layers = 1;
        cfg.dataset_len = 4;
        cfg
    }

    #[test]
    fn single_step_produces_finite_report() {
        let mut t = Trainer::new(fast_cfg());
        let ds = SyntheticDataset::new(1, 4);
        let batch = featurize(&ds.record(0), &t.cfg().model.clone(), 1);
        let r = t.train_step(&batch);
        assert!(r.loss.is_finite());
        assert!(r.grad_norm > 0.0);
        assert!((0.0..=1.0).contains(&r.lddt));
        assert_eq!(r.step, 1);
    }

    #[test]
    fn loss_decreases_on_repeated_batch() {
        let mut t = Trainer::new(fast_cfg());
        let ds = SyntheticDataset::new(2, 4);
        let cfg = t.cfg().model.clone();
        let batch = featurize(&ds.record(0), &cfg, 2);
        let first = t.train_step(&batch).loss;
        let mut last = first;
        for _ in 0..14 {
            last = t.train_step(&batch).loss;
        }
        assert!(
            last < first,
            "loss should fall on a fixed batch: {first} -> {last}"
        );
    }

    #[test]
    fn train_uses_pipeline_and_counts_steps() {
        let mut t = Trainer::new(fast_cfg());
        let reports = t.train(3);
        assert_eq!(reports.len(), 3);
        assert_eq!(t.step_count(), 3);
        assert!(reports.iter().all(|r| r.loss.is_finite()));
        assert!(t.train(0).is_empty());
        assert_eq!(t.step_count(), 3);
    }

    #[test]
    fn dap_training_matches_unsharded() {
        // DAP-k training follows the unsharded trajectory for k ∈ {1,2,4},
        // fused kernels on and off: the forward is bitwise-identical data
        // movement, so only gradient-accumulation order can drift, and the
        // per-step losses must agree tightly over several updates.
        for fused in [true, false] {
            let mut ref_cfg = fast_cfg();
            ref_cfg.fused_kernels = fused;
            let mut reference = Trainer::new(ref_cfg.clone());
            let ds = SyntheticDataset::new(5, 4);
            let batch = featurize(&ds.record(0), &ref_cfg.model, 5);
            let ref_losses: Vec<f32> =
                (0..3).map(|_| reference.train_step(&batch).loss).collect();

            for k in [2usize, 4] {
                let mut cfg = ref_cfg.clone();
                cfg.dap = k;
                let mut t = Trainer::new(cfg);
                for (i, want) in ref_losses.iter().enumerate() {
                    let got = t.train_step(&batch).loss;
                    assert!(
                        (got - want).abs() <= 1e-4,
                        "fused={fused} k={k} step {i}: loss {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn dap_comm_accumulates_analytic_volume() {
        let mut cfg = fast_cfg();
        cfg.dap = 2;
        let mut t = Trainer::new(cfg.clone());
        let ds = SyntheticDataset::new(6, 4);
        let batch = featurize(&ds.record(0), &cfg.model, 6);
        let steps = 2;
        for _ in 0..steps {
            t.train_step(&batch);
        }
        let per_step = crate::dap::analytic_comm_volume(&cfg.model, 2);
        let total = t.dap_comm();
        assert_eq!(total.all_gather_elements, steps * per_step.all_gather_elements);
        assert_eq!(total.all_to_all_elements, steps * per_step.all_to_all_elements);
        assert_eq!(total.gathers, steps * per_step.gathers);
        assert_eq!(total.switches, steps * per_step.switches);

        // Without DAP nothing is communicated.
        let mut plain = Trainer::new(fast_cfg());
        plain.train_step(&batch);
        assert_eq!(plain.dap_comm(), DapStats::default());
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn dap_rejects_uneven_crop() {
        let mut cfg = fast_cfg();
        cfg.model.n_res = 13;
        cfg.dap = 2;
        let _ = Trainer::new(cfg);
    }

    #[test]
    fn warmup_schedule_applies() {
        let mut t = Trainer::new(fast_cfg());
        let reports = t.train(2);
        assert!(reports[0].lr < reports[1].lr);
    }

    #[test]
    fn bf16_training_stays_finite() {
        let mut cfg = fast_cfg();
        cfg.precision = Precision::Bf16;
        let mut t = Trainer::new(cfg);
        let reports = t.train(3);
        assert!(reports.iter().all(|r| r.loss.is_finite() && r.grad_norm.is_finite()));
    }

    #[test]
    fn checkpoint_restores_weights_exactly() {
        let mut t = Trainer::new(fast_cfg());
        let _ = t.train(2);
        let path = std::env::temp_dir().join("sf_trainer_ckpt.bin");
        t.save_checkpoint(&path).expect("save");

        // A fresh trainer restored from the checkpoint produces the same
        // forward outputs as the original.
        let mut fresh = Trainer::new(fast_cfg());
        fresh.load_checkpoint(&path).expect("load");
        let ds = SyntheticDataset::new(99, 2);
        let batch = featurize(&ds.record(0), &fresh.cfg().model.clone(), 99);
        let mut g1 = sf_autograd::Graph::new();
        let model = sf_model::AlphaFold::new(t.cfg().model.clone());
        let o1 = model.forward(&mut g1, &mut t.store().clone(), &batch).expect("fwd");
        let mut g2 = sf_autograd::Graph::new();
        let o2 = model
            .forward(&mut g2, &mut fresh.store().clone(), &batch)
            .expect("fwd");
        assert_eq!(o1.loss_breakdown.total, o2.loss_breakdown.total);
        let _ = std::fs::remove_file(&path);
    }

    /// A load restarts training from the file: the step counter and the
    /// optimizer (moments and SWA average) reset, so evaluation scores the
    /// loaded weights exactly as a fresh trainer loaded from that file.
    #[test]
    fn load_checkpoint_resets_step_and_optimizer() {
        let path = std::env::temp_dir().join(format!("sf_load_reset_{}.sfck", std::process::id()));
        let mut source = Trainer::new(fast_cfg());
        let _ = source.train(2);
        source.save_checkpoint(&path).expect("save");

        let mut t = Trainer::new(fast_cfg());
        let _ = t.train(3);
        t.load_checkpoint(&path).expect("load");
        let mut fresh = Trainer::new(fast_cfg());
        fresh.load_checkpoint(&path).expect("load");
        assert_eq!(t.step_count(), 0);
        assert_eq!(t.evaluate(2), fresh.evaluate(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn nan_grad_step_is_skipped_and_only_that_step() {
        // Poison optimizer step 1 (0-based): report 2 must be skipped.
        let mut t = Trainer::with_faults(fast_cfg(), FaultPlan::none().with_nan_grad(1));
        let reports = t.train(3);
        assert_eq!(reports.len(), 3);
        assert_eq!(
            reports.iter().map(|r| r.skipped).collect::<Vec<_>>(),
            vec![false, true, false]
        );
        assert!(reports[1].grad_norm.is_nan());
        assert!(t
            .recovery_log()
            .iter()
            .any(|e| matches!(e, RecoveryEvent::NonFiniteSkipped { step: 2 })));
    }

    #[test]
    fn skipped_step_leaves_weights_untouched() {
        let mut t = Trainer::with_faults(fast_cfg(), FaultPlan::none().with_nan_grad(1));
        let _ = t.train(1);
        let before = t.store().clone();
        let reports = t.train(1); // this is the poisoned step
        assert!(reports[0].skipped);
        for name in before.names() {
            assert_eq!(
                before.get(&name).expect("param").data(),
                t.store().get(&name).expect("param").data(),
                "weights changed across a skipped step: {name}"
            );
        }
    }

    #[test]
    fn training_survives_poisoned_sample() {
        let mut cfg = fast_cfg();
        cfg.loader_workers = 2;
        let mut t = Trainer::with_faults(cfg, FaultPlan::none().with_worker_panic(1));
        // More steps than the epoch has healthy samples (3 of 4), so the
        // run must consume the failed slot before finishing.
        let reports = t.train(5);
        assert_eq!(reports.len(), 5);
        assert!(t
            .recovery_log()
            .iter()
            .any(|e| matches!(e, RecoveryEvent::DataFault { .. })));
    }

    #[test]
    fn resume_latest_on_empty_dir_is_none() {
        let dir = std::env::temp_dir().join(format!("sf_resume_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut t = Trainer::new(fast_cfg());
        assert!(t.resume_latest(&dir).expect("scan").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_latest_restores_step_and_weights() {
        let dir = std::env::temp_dir().join(format!("sf_resume_ok_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = Trainer::new(fast_cfg());
        let _ = t.train(2);
        let path = t.save_checkpoint_step(&dir).expect("save");
        assert!(path.file_name().is_some());

        let mut fresh = Trainer::new(fast_cfg());
        let summary = fresh.resume_latest(&dir).expect("resume").expect("found");
        assert_eq!(summary.step, Some(2));
        assert_eq!(fresh.step_count(), 2);
        for name in t.store().names() {
            assert_eq!(
                t.store().get(&name).expect("param").data(),
                fresh.store().get(&name).expect("param").data(),
                "restored weights differ: {name}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evaluate_returns_sane_score() {
        let mut t = Trainer::new(fast_cfg());
        let _ = t.train(1);
        let score = t.evaluate(2);
        assert!((0.0..=1.0).contains(&score));
    }

    #[test]
    fn cached_eval_matches_uncached() {
        let mut t = Trainer::new(fast_cfg());
        let _ = t.train(2);
        let cache = t.build_eval_cache(2);
        assert_eq!(t.evaluate_cached(&cache), t.evaluate(2));
        // The cache is reusable across further training.
        let _ = t.train(1);
        let s = t.evaluate_cached(&cache);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn async_eval_overlaps_training_and_matches_sync() {
        let mut t = Trainer::new(fast_cfg());
        let _ = t.train(2);
        // Launch evaluation, keep training while it runs, then join.
        let handle = t.evaluate_async(2);
        let sync_before = t.evaluate(2);
        let more = t.train(2); // training proceeds while eval runs
        let async_score = handle.join().expect("eval thread");
        assert_eq!(async_score, sync_before, "same snapshot, same score");
        assert_eq!(more.len(), 2);
        // Training moved on: a fresh evaluation now differs in general.
        assert!((0.0..=1.0).contains(&t.evaluate(2)));
    }
}
