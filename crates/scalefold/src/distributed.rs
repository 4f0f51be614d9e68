//! The training engine: a *functional* data-parallel trainer with real
//! replicas, real gradient all-reduce (the ring algorithm from
//! `sf_cluster::collective`) and global-norm clipping — the algorithms the
//! cluster simulator prices, run for correctness at CPU scale. It owns the
//! only training step ([`DataParallelTrainer::train_step`]), the only
//! training loop ([`DataParallelTrainer::train`]: the data pipeline, the
//! recovery log) and checkpointing; [`crate::Trainer`] is the one-replica
//! case of this engine.
//!
//! The key invariants this module demonstrates (and tests):
//!
//! - replicas that start identical and all-reduce their gradients stay
//!   **bit-comparable** forever (the fundamental DP contract);
//! - DP-k training on k batches takes the same parameter step as a single
//!   trainer fed the averaged gradient of those k batches;
//! - the gradient traffic all-reduced per step is exactly what
//!   `ClusterSim` prices (`param_elements × bytes`);
//! - DP composes with Dynamic Axial Parallelism into a DP×DAP grid
//!   (ScaleFold §3.3): each replica shards its own sample's activations
//!   across `cfg.dap` axial ranks, while gradients synchronize across the
//!   data-parallel axis exactly as before.

use crate::dap::{DapGroup, DapStats};
use crate::trainer::{LoaderKind, RecoveryEvent, ResumeSummary, StepReport, TrainerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sf_autograd::{CheckpointError, Graph, ParamStore};
use sf_cluster::collective::all_reduce_tensors;
use sf_data::featurize::featurize;
use sf_data::loader::{BlockingLoader, Dataset, LoaderConfig, LoaderError, NonBlockingPipeline};
use sf_data::SyntheticDataset;
use sf_faults::{FaultInjector, FaultPlan, FaultyDataset};
use sf_model::metrics::lddt_ca;
use sf_model::{AlphaFold, AxialCollectives, FeatureBatch, ModelConfig};
use sf_optim::{clip_by_global_norm, FusedAdamSwa, Grads};
use sf_tensor::bf16::Precision;
use sf_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Per-step report of a data-parallel training step.
#[derive(Debug, Clone, PartialEq)]
pub struct DpStepReport {
    /// Step index.
    pub step: u64,
    /// Mean loss across replicas.
    pub mean_loss: f32,
    /// Global gradient norm after averaging (pre-clip; NaN when the step
    /// was skipped).
    pub grad_norm: f32,
    /// Elements communicated by the ring all-reduce this step.
    pub elements_all_reduced: usize,
    /// Elements moved by DAP collectives this step, summed over replicas
    /// (0 when `cfg.dap <= 1`).
    pub elements_dap: usize,
    /// Maximum parameter divergence across replicas after the step
    /// (should be ~0: the DP contract).
    pub max_replica_divergence: f32,
    /// True if the optimizer update was skipped because the averaged
    /// gradients' global norm (or the loss) was non-finite. All replicas
    /// skip together — the decision is made on the identical averaged
    /// gradients — so synchrony is preserved.
    pub skipped: bool,
    /// Replica 0's view of the step, as a single device reports it: its
    /// own loss terms and lDDT-Cα, and the learning rate.
    pub replica0: StepReport,
}

/// The training corpus: synthetic records, featurized by the loader's
/// workers.
struct FeaturizingDataset {
    records: SyntheticDataset,
    cfg: ModelConfig,
    seed: u64,
}

impl Dataset for FeaturizingDataset {
    type Item = FeatureBatch;

    fn len(&self) -> usize {
        self.records.len()
    }

    fn prepare(&self, index: usize) -> FeatureBatch {
        featurize(&self.records.record(index), &self.cfg, self.seed ^ index as u64)
    }
}

/// A `k`-replica data-parallel trainer with its own data loader and checkpoints.
pub struct DataParallelTrainer {
    cfg: TrainerConfig,
    model: AlphaFold,
    /// One parameter store per replica (kept deliberately separate so the
    /// divergence invariant is *measured*, not assumed).
    stores: Vec<ParamStore>,
    optimizers: Vec<FusedAdamSwa>,
    step: u64,
    /// Shared DAP executor: replicas run sequentially on a CPU, so one
    /// group serves the whole grid and accumulates total traffic. At
    /// `cfg.dap <= 1` it is the 1-rank group, which never communicates.
    dap_group: DapGroup,
    dap_comm: DapStats,
    injector: FaultInjector,
    /// Draws each epoch's shuffle.
    rng: StdRng,
    recovery: Vec<RecoveryEvent>,
}

impl DataParallelTrainer {
    /// Creates `ranks` replicas. Parameters initialize lazily on the first
    /// step (deterministically by name, so all replicas start identical).
    /// With `cfg.dap > 1` this is a DP×DAP grid of `ranks × cfg.dap`
    /// simulated devices.
    ///
    /// # Panics
    ///
    /// Panics if `ranks == 0`, or if `cfg.dap > 1` and the model's axial
    /// dimensions do not divide evenly across the DAP ranks.
    pub fn new(cfg: TrainerConfig, ranks: usize) -> Self {
        DataParallelTrainer::with_faults(cfg, ranks, FaultPlan::none())
    }

    /// Like [`DataParallelTrainer::new`], with a fault schedule: worker
    /// panics and stragglers fire inside the data pipeline of
    /// [`DataParallelTrainer::train`], and NaN-gradient faults fire on
    /// replica 0 before the all-reduce, so the poison propagates to every
    /// replica's averaged gradients — the worst-case large-scale failure
    /// the skip guard must absorb. Inspect
    /// [`DataParallelTrainer::recovery_log`] afterwards.
    ///
    /// The configuration is normalized here: `cfg.num_threads > 0` pins
    /// the `sf-tensor` compute pool, and `cfg.fused_kernels = false`
    /// switches the model to the composed attention chain.
    pub fn with_faults(mut cfg: TrainerConfig, ranks: usize, plan: FaultPlan) -> Self {
        assert!(ranks > 0, "need at least one replica");
        if cfg.num_threads > 0 {
            sf_tensor::pool::set_num_threads(cfg.num_threads);
        }
        if !cfg.fused_kernels {
            cfg.model.fused_kernels = false;
        }
        if let Err(msg) = DapGroup::validate_config(&cfg.model, cfg.dap) {
            panic!("{msg}");
        }
        DataParallelTrainer {
            model: AlphaFold::new(cfg.model.clone()),
            stores: vec![ParamStore::new(); ranks],
            optimizers: vec![FusedAdamSwa::new(cfg.adam, cfg.swa_decay); ranks],
            step: 0,
            dap_group: DapGroup::new(cfg.dap),
            dap_comm: DapStats::default(),
            injector: FaultInjector::new(plan),
            rng: StdRng::seed_from_u64(cfg.seed),
            recovery: Vec::new(),
            cfg,
        }
    }

    /// Number of replicas.
    pub fn ranks(&self) -> usize {
        self.stores.len()
    }

    /// The normalized configuration.
    pub(crate) fn cfg(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// The model architecture every replica runs.
    pub(crate) fn model(&self) -> &AlphaFold {
        &self.model
    }

    /// Cumulative DAP communication over all steps and replicas (zero when
    /// `cfg.dap <= 1`).
    pub fn dap_comm(&self) -> DapStats {
        self.dap_comm
    }

    /// A replica's parameter store.
    pub fn store(&self, rank: usize) -> &ParamStore {
        &self.stores[rank]
    }

    /// Optimizer steps taken.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The fault injector driving this trainer (no-op for
    /// [`DataParallelTrainer::new`]).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Every fault survived so far, in order.
    pub fn recovery_log(&self) -> &[RecoveryEvent] {
        &self.recovery
    }

    /// One synchronous data-parallel step: each replica computes gradients
    /// on its own batch, gradients are ring-all-reduced (mean), global-norm
    /// clipping applies to the averaged gradients, and every replica takes
    /// the same optimizer step.
    ///
    /// # Panics
    ///
    /// Panics if `batches.len() != ranks` or a batch mismatches the model
    /// configuration (call [`FeatureBatch::validate`] upstream) — both
    /// programming errors rather than recoverable conditions.
    pub fn train_step(&mut self, batches: &[FeatureBatch]) -> DpStepReport {
        assert_eq!(batches.len(), self.ranks(), "one batch per replica");
        // Per-replica forward/backward; each replica shards its own sample
        // across the DAP axis (the replicas form the DP axis of the grid).
        let ranks = self.ranks();
        let mut per_rank_grads: Vec<Grads> = Vec::with_capacity(ranks);
        let mut mean_loss = 0.0f32;
        let mut replica_zero = None;
        let dap: &dyn AxialCollectives = &self.dap_group;
        for (store, batch) in self.stores.iter_mut().zip(batches.iter()) {
            let mut g = Graph::new();
            let out = {
                let _fwd = sf_trace::span("forward", "forward");
                self.model
                    .forward_dap(&mut g, store, batch, Some(dap))
                    .expect("forward pass on validated batch")
            };
            let grads = {
                let _bwd = sf_trace::span("backward", "backward");
                g.backward(out.loss).expect("scalar loss");
                let mut grads = g.grads_by_name().expect("consistent bindings");
                // Precision rounding of gradients (bf16 path of §3.4; fp16
                // shows the NaN failure mode at larger scales).
                if self.cfg.precision != Precision::F32 {
                    for grad in grads.values_mut() {
                        *grad = self.cfg.precision.quantize(grad);
                    }
                }
                grads
            };
            mean_loss += out.loss_breakdown.total / ranks as f32;
            per_rank_grads.push(grads);
            replica_zero.get_or_insert_with(|| (out.loss_breakdown, g.value(out.coords).clone()));
        }
        let step_comm = self.dap_group.take_stats();
        self.dap_comm += step_comm;
        if self.injector.poison_grads_at(self.step) {
            if let Some(grad) = per_rank_grads[0].values_mut().next() {
                let mut data = grad.data().to_vec();
                if let Some(first) = data.first_mut() {
                    *first = f32::NAN;
                }
                *grad = Tensor::from_vec(data, grad.dims()).expect("same shape");
            }
        }

        let opt_span = sf_trace::span("optimizer", "optimizer");
        let (mut grads, elements_all_reduced) = all_reduce_mean(per_rank_grads);
        // Non-finite guard: a NaN/Inf loss or gradient (the fp16 blow-up
        // mode at scale; one replica's poison spreads to every replica
        // through the all-reduce) skips the optimizer update on every
        // replica instead of destroying the weights. The step still counts
        // so schedules stay aligned. `clip_by_global_norm` surfaces a
        // non-finite norm with the gradients untouched — no elementwise
        // pre-scan needed.
        let lr = self.cfg.schedule.lr_at(self.step);
        let norm = clip_by_global_norm(&mut grads, self.cfg.clip_norm);
        let finite = mean_loss.is_finite() && norm.is_finite();
        if finite {
            for (store, opt) in self.stores.iter_mut().zip(self.optimizers.iter_mut()) {
                opt.step(store, &grads, lr);
            }
        }
        drop(opt_span);
        self.step += 1;
        if !finite {
            self.recovery.push(RecoveryEvent::NonFiniteSkipped { step: self.step });
        }

        let (loss, coords) = replica_zero.expect("at least one replica");
        let lddt = {
            let _metric = sf_trace::span("eval", "lddt");
            lddt_ca(&coords, &batches[0].true_coords, &batches[0].residue_mask)
        };
        let grad_norm = if finite { norm } else { f32::NAN };
        DpStepReport {
            step: self.step,
            mean_loss,
            grad_norm,
            elements_all_reduced,
            elements_dap: step_comm.total_elements(),
            max_replica_divergence: self.max_divergence(),
            skipped: !finite,
            replica0: StepReport {
                step: self.step,
                loss: loss.total,
                distance_loss: loss.distance,
                grad_norm,
                lddt,
                lr,
                skipped: !finite,
            },
        }
    }

    /// Trains for `steps` steps, streaming `cfg.dataset_len` synthetic
    /// samples through the `cfg.loader` pipeline's `cfg.loader_workers`
    /// threads, shuffled anew each epoch. Every step takes the next
    /// `ranks` samples, one per replica; an epoch's remainder is dropped.
    ///
    /// Data faults do not abort the run: a sample whose preparation keeps
    /// panicking is recorded in [`DataParallelTrainer::recovery_log`] and
    /// skipped, and training continues on the remaining samples. An epoch
    /// that completes no step ends the run early.
    pub fn train(&mut self, steps: u64) -> Vec<DpStepReport> {
        let records = SyntheticDataset::new(self.cfg.seed ^ 0xDA7A, self.cfg.dataset_len);
        let dataset = Arc::new(FaultyDataset::new(
            FeaturizingDataset {
                records: records.clone(),
                cfg: self.cfg.model.clone(),
                seed: self.cfg.seed,
            },
            self.injector.clone(),
        ));
        let mut reports = Vec::with_capacity(steps as usize);
        while (reports.len() as u64) < steps {
            let order = records.epoch_order(self.rng.gen::<u64>());
            let loader_cfg = LoaderConfig::with_workers(self.cfg.loader_workers);
            type BatchItem = Result<(usize, FeatureBatch), LoaderError>;
            let mut loader: Box<dyn Iterator<Item = BatchItem>> = match self.cfg.loader {
                LoaderKind::NonBlocking => Box::new(NonBlockingPipeline::new(
                    Arc::clone(&dataset),
                    order,
                    loader_cfg,
                )),
                LoaderKind::Blocking => {
                    Box::new(BlockingLoader::new(Arc::clone(&dataset), order, loader_cfg))
                }
            };
            let epoch_start = reports.len();
            let mut batches = Vec::with_capacity(self.ranks());
            let mut step_span = None;
            while (reports.len() as u64) < steps {
                // One umbrella span per optimizer step, covering the data
                // waits (recorded by the loader inside `next()`) and the
                // train phases — the unit the phase report attributes.
                let next = self.step + 1;
                step_span.get_or_insert_with(|| sf_trace::span("step", "step").arg("step", next as f64));
                match loader.next() {
                    None => break,
                    Some(Ok((_, batch))) => {
                        batches.push(batch);
                        if batches.len() == self.ranks() {
                            reports.push(self.train_step(&batches));
                            batches.clear();
                            step_span = None;
                        }
                    }
                    Some(Err(error)) => {
                        if batches.is_empty() {
                            if let Some(span) = step_span.take() {
                                span.cancel(); // no optimizer step under way
                            }
                        }
                        self.recovery.push(RecoveryEvent::DataFault { error });
                    }
                }
            }
            if let Some(span) = step_span {
                span.cancel(); // end-of-epoch probe, not a step
            }
            if reports.len() == epoch_start {
                // No step completed this epoch: no progress is possible, so
                // stop instead of spinning on a fully poisoned dataset.
                break;
            }
        }
        reports
    }

    /// Maximum absolute parameter difference between replica 0 and the
    /// others (the DP-synchrony invariant; ~0 up to f32 rounding).
    pub fn max_divergence(&self) -> f32 {
        let mut max = 0.0f32;
        let base = &self.stores[0];
        for other in &self.stores[1..] {
            for (name, t) in base.iter() {
                if let Some(o) = other.get(name) {
                    for (a, b) in t.data().iter().zip(o.data().iter()) {
                        max = max.max((a - b).abs());
                    }
                }
            }
        }
        max
    }

    /// Saves the current weights to `path` (see
    /// `sf_autograd::checkpoint_io` for the format). Used for the MLPerf
    /// "initialized from predefined checkpoint" setting. Replicas hold the
    /// same weights, so replica 0's are saved.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on I/O failure.
    pub fn save_checkpoint(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let _ckpt = sf_trace::span("checkpoint", "save");
        self.stores[0].save_file(path)
    }

    /// Restores every replica's weights from a checkpoint produced by
    /// [`DataParallelTrainer::save_checkpoint`]. Optimizer moments, the
    /// SWA average and the step counter reset (matching the MLPerf
    /// benchmark, which restarts the optimizer from the published
    /// weights).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the file is missing or malformed.
    pub fn load_checkpoint(&mut self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        self.restore(ParamStore::load_file(path)?, 0);
        Ok(())
    }

    /// Saves the current weights into `dir` as `ckpt-<step>.sfck`, the
    /// layout [`DataParallelTrainer::resume_latest`] scans. The write is
    /// atomic (temp file + rename), so a crash mid-save never leaves a
    /// torn checkpoint under the final name.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on I/O failure.
    pub fn save_checkpoint_step(&self, dir: impl AsRef<Path>) -> Result<PathBuf, CheckpointError> {
        let _ckpt = sf_trace::span("checkpoint", "save_step").arg("step", self.step as f64);
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(CheckpointError::Io)?;
        let path = dir.join(format!("ckpt-{:08}.sfck", self.step));
        self.stores[0].save_file(&path)?;
        Ok(path)
    }

    /// Restores every replica's weights from the newest *valid* checkpoint
    /// in `dir`, falling back past files that fail CRC verification or
    /// cannot be parsed (bit rot, torn writes). Returns `Ok(None)` when the
    /// directory holds no checkpoints at all.
    ///
    /// On success the step counter is restored from the file name, so
    /// training resumes with the schedule where the checkpoint left off.
    /// A checkpoint holds weights only, so optimizer moments and the SWA
    /// average restart.
    ///
    /// # Errors
    ///
    /// Returns the last [`CheckpointError`] when checkpoints exist but
    /// every one of them is corrupt.
    pub fn resume_latest(
        &mut self,
        dir: impl AsRef<Path>,
    ) -> Result<Option<ResumeSummary>, CheckpointError> {
        let _ckpt = sf_trace::span("checkpoint", "resume");
        let Some(latest) = ParamStore::load_latest_valid(dir)? else {
            return Ok(None);
        };
        self.restore(latest.store, latest.step.unwrap_or(self.step));
        self.recovery.push(RecoveryEvent::Resumed {
            path: latest.path.clone(),
            step: latest.step,
            skipped_files: latest.skipped.len(),
        });
        Ok(Some(ResumeSummary {
            path: latest.path,
            step: latest.step,
            skipped: latest.skipped,
        }))
    }

    /// Writes `store` into every replica with fresh optimizers at `step`.
    fn restore(&mut self, store: ParamStore, step: u64) {
        self.stores.fill(store);
        self.optimizers.fill(FusedAdamSwa::new(self.cfg.adam, self.cfg.swa_decay));
        self.step = step;
    }

    /// The weights evaluation runs on: the SWA average, or the live
    /// weights before the first optimizer step.
    pub fn eval_store(&self) -> ParamStore {
        let store = self.optimizers[0].swa_store();
        if store.is_empty() {
            self.stores[0].clone()
        } else {
            store
        }
    }
}

/// Ring-all-reduces (mean) every gradient tensor across the replicas'
/// maps and returns the reduced map once, with the elements sent. One
/// replica has nothing to reduce: its map passes through untouched.
fn all_reduce_mean(mut per_rank: Vec<Grads>) -> (Grads, usize) {
    if per_rank.len() == 1 {
        return (per_rank.pop().expect("one replica"), 0);
    }
    let names: Vec<String> = per_rank[0].keys().cloned().collect();
    let mut reduced = Grads::new();
    let mut elements = 0;
    for name in names {
        let mut tensors: Vec<Tensor> = per_rank
            .iter_mut()
            .map(|grads| {
                grads
                    .remove(&name)
                    .expect("every replica binds the same parameters")
            })
            .collect();
        elements += all_reduce_tensors(&mut tensors).elements_sent;
        reduced.insert(name, tensors.swap_remove(0));
    }
    (reduced, elements)
}

/// A ModelConfig small enough for multi-replica CPU tests.
pub fn dp_test_model() -> ModelConfig {
    let mut cfg = ModelConfig::tiny();
    cfg.evoformer_blocks = 1;
    cfg.extra_msa_blocks = 0;
    cfg.template_blocks = 0;
    cfg.structure_layers = 1;
    cfg.n_res = 8;
    cfg.n_seq = 3;
    cfg.n_extra_seq = 4;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_optim::GradBuckets;

    fn dp_cfg() -> TrainerConfig {
        let mut cfg = TrainerConfig::tiny();
        cfg.model = dp_test_model();
        cfg.schedule.warmup_steps = 2;
        // One worker delivers in sampler order, so two runs see the same
        // batches (several workers deliver whichever is ready first).
        cfg.loader_workers = 1;
        cfg
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn replicas_stay_synchronized() {
        let mut dp = DataParallelTrainer::new(dp_cfg(), 3);
        let reports = dp.train(4);
        for r in &reports {
            assert!(
                r.max_replica_divergence < 1e-5,
                "step {}: divergence {}",
                r.step,
                r.max_replica_divergence
            );
            assert!(r.mean_loss.is_finite());
        }
    }

    #[test]
    fn all_reduce_traffic_matches_parameter_count() {
        let mut dp = DataParallelTrainer::new(dp_cfg(), 2);
        let reports = dp.train(1);
        let params: usize = dp.store(0).num_elements();
        // Ring with n=2 sends 2*(n-1)/n = 1x the elements per rank; summed
        // over ranks = params * 2 * (n-1) = params * 2.
        let expect = params * 2;
        let got = reports[0].elements_all_reduced;
        assert!(
            got.abs_diff(expect) <= 2 * dp.store(0).len(),
            "traffic {got} vs expected ~{expect}"
        );
    }

    #[test]
    fn dp2_matches_single_trainer_on_averaged_gradient() {
        // A DP-2 step equals a single-replica step taken on the mean of the
        // two batches' gradients — verified by comparing parameters after
        // one step against a manual average.
        let cfg = dp_cfg();
        let ds = SyntheticDataset::new(cfg.seed ^ 0xD0, 64);
        let b0 = featurize(&ds.record(0), &cfg.model, cfg.seed);
        let b1 = featurize(&ds.record(1), &cfg.model, cfg.seed ^ 1);

        let mut dp = DataParallelTrainer::new(cfg.clone(), 2);
        dp.train_step(&[b0.clone(), b1.clone()]);

        // Manual: one store, average the two gradient maps, same optimizer.
        let model = AlphaFold::new(cfg.model.clone());
        let mut store = ParamStore::new();
        let mut grads_sum: Option<Grads> = None;
        for batch in [&b0, &b1] {
            let mut g = Graph::new();
            let out = model.forward(&mut g, &mut store, batch).expect("fwd");
            g.backward(out.loss).expect("bwd");
            let grads = g.grads_by_name().expect("grads");
            grads_sum = Some(match grads_sum {
                None => grads,
                Some(mut acc) => {
                    for (name, t) in grads {
                        let merged = acc[&name].add(&t).expect("same shapes");
                        acc.insert(name, merged);
                    }
                    acc
                }
            });
        }
        let mut grads = grads_sum.expect("two batches");
        for t in grads.values_mut() {
            *t = t.mul_scalar(0.5);
        }
        let mut buckets = GradBuckets::pack(&grads, 25 * 1024 * 1024);
        buckets.clip(cfg.clip_norm);
        for (name, t) in buckets.unpack() {
            grads.insert(name, t);
        }
        let mut opt = FusedAdamSwa::new(cfg.adam, cfg.swa_decay);
        opt.step(&mut store, &grads, cfg.schedule.lr_at(0));

        for (name, manual) in store.iter() {
            let dp_param = dp.store(0).get(name).expect("same params");
            assert!(
                manual.allclose(dp_param, 1e-4),
                "parameter {name} differs between DP-2 and manual averaging"
            );
        }
    }

    #[test]
    fn single_rank_dp_equals_plain_trainer_shape() {
        let mut dp = DataParallelTrainer::new(dp_cfg(), 1);
        let reports = dp.train(2);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].elements_all_reduced, 0); // no comm at DP-1
        assert_eq!(reports[1].max_replica_divergence, 0.0);
        assert_eq!(reports[0].elements_dap, 0);
    }

    /// A one-replica grid is the single-device `Trainer`: the same loss,
    /// grad norm and final weights, bit for bit, with fused kernels on and
    /// off and at f32 and bf16 gradient precision.
    #[test]
    fn single_replica_dp_equals_trainer_bitwise() {
        for fused in [true, false] {
            for precision in [Precision::F32, Precision::Bf16] {
                let mut cfg = dp_cfg();
                cfg.fused_kernels = fused;
                cfg.precision = precision;
                let ds = SyntheticDataset::new(cfg.seed ^ 0xD0, 64);
                let batches: Vec<FeatureBatch> = (0..4)
                    .map(|i| featurize(&ds.record(i), &cfg.model, cfg.seed ^ i as u64))
                    .collect();
                let mut trainer = crate::Trainer::new(cfg.clone());
                let mut dp = DataParallelTrainer::new(cfg, 1);
                for (i, batch) in batches.iter().enumerate() {
                    let t = trainer.train_step(batch);
                    let d = dp.train_step(std::slice::from_ref(batch));
                    let case = format!("fused={fused} {precision:?} step {i}");
                    assert_eq!(t.loss.to_bits(), d.mean_loss.to_bits(), "{case}: loss");
                    assert_eq!(
                        t.grad_norm.to_bits(),
                        d.grad_norm.to_bits(),
                        "{case}: grad norm"
                    );
                }
                assert_eq!(trainer.store().len(), dp.store(0).len());
                for (name, p) in trainer.store().iter() {
                    let q = dp.store(0).get(name).expect("same parameters");
                    assert_eq!(bits(p), bits(q), "fused={fused} {precision:?}: {name}");
                }
            }
        }
    }

    /// A DP-2 × DAP-2 grid trains like plain DP-2: the activation sharding
    /// is numerically transparent, replicas stay synchronized, and the DAP
    /// traffic is exactly `replicas × analytic volume` per step.
    #[test]
    fn dp_dap_grid_matches_plain_dp() {
        let mut cfg = dp_cfg();
        cfg.model.n_seq = 4; // divisible by the DAP ranks (dp_test_model uses 3)
        let mut plain = DataParallelTrainer::new(cfg.clone(), 2);
        let plain_reports = plain.train(2);

        cfg.dap = 2;
        let mut grid = DataParallelTrainer::new(cfg.clone(), 2);
        let grid_reports = grid.train(2);

        let per_step = crate::dap::analytic_comm_volume(&cfg.model, 2);
        for (p, g) in plain_reports.iter().zip(grid_reports.iter()) {
            assert!(
                (p.mean_loss - g.mean_loss).abs() <= 1e-4,
                "step {}: loss {} vs {}",
                p.step,
                p.mean_loss,
                g.mean_loss
            );
            assert!(g.max_replica_divergence < 1e-5);
            assert_eq!(g.elements_dap, 2 * per_step.total_elements());
            assert_eq!(p.elements_dap, 0);
        }
        let total = grid.dap_comm();
        assert_eq!(total.gathers, 2 * 2 * per_step.gathers);
        assert_eq!(total.switches, 2 * 2 * per_step.switches);
    }

    /// One replica's NaN gradient spreads to every replica through the
    /// all-reduce; the global-norm clip surfaces the non-finite norm and the
    /// whole grid skips the update together, leaving weights and synchrony
    /// intact.
    #[test]
    fn poisoned_gradient_skips_update_on_all_replicas() {
        let cfg = dp_cfg();
        let plan = FaultPlan::none().with_nan_grad(1);
        let mut dp = DataParallelTrainer::with_faults(cfg, 2, plan);
        let r0 = dp.train(1).pop().expect("one report");
        assert!(!r0.skipped);
        let before: Vec<(String, Tensor)> = dp
            .store(0)
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect();

        let r1 = dp.train(1).pop().expect("one report");
        assert!(r1.skipped, "poisoned step must skip");
        assert!(r1.grad_norm.is_nan());
        assert!(r1.max_replica_divergence < 1e-6);
        for (name, t) in &before {
            let after = dp.store(0).get(name).expect("param persists");
            assert_eq!(t.data(), after.data(), "{name} changed on a skipped step");
        }

        let r2 = dp.train(1).pop().expect("one report");
        assert!(!r2.skipped, "training resumes after the skip");
    }

    /// The grid's loop survives a sample whose preparation always panics:
    /// the fault is logged and training continues on the other samples.
    #[test]
    fn grid_train_survives_worker_panic() {
        let mut cfg = dp_cfg();
        cfg.dataset_len = 5;
        let plan = FaultPlan::none().with_worker_panic(1);
        let mut dp = DataParallelTrainer::with_faults(cfg, 2, plan);
        // Four healthy samples make two steps an epoch, so three steps
        // consume the failed slot of the first epoch.
        let reports = dp.train(3);
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| r.mean_loss.is_finite() && !r.skipped));
        assert!(dp
            .recovery_log()
            .iter()
            .any(|e| matches!(e, RecoveryEvent::DataFault { .. })));
    }

    /// The grid's loop draws its samples from the `cfg.dataset_len`-sample
    /// corpus, `ranks` per step: a two-sample corpus makes one two-replica
    /// step per epoch, on exactly those samples, and a one-sample corpus
    /// makes none.
    #[test]
    fn grid_train_draws_from_the_dataset_len_corpus() {
        let mut cfg = dp_cfg();
        cfg.dataset_len = 2;
        let ds = SyntheticDataset::new(cfg.seed ^ 0xDA7A, 2);
        let corpus: Vec<FeatureBatch> = (0..2)
            .map(|i| featurize(&ds.record(i), &cfg.model, cfg.seed ^ i as u64))
            .collect();
        // The mean of two losses does not depend on the replica order.
        let want = DataParallelTrainer::new(cfg.clone(), 2).train_step(&corpus);
        let mut dp = DataParallelTrainer::new(cfg.clone(), 2);
        let reports = dp.train(3);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].mean_loss.to_bits(), want.mean_loss.to_bits());

        cfg.dataset_len = 1;
        let mut starved = DataParallelTrainer::new(cfg, 2);
        assert!(starved.train(2).is_empty());
        assert_eq!(starved.step_count(), 0);
    }

    /// `resume_latest` writes the checkpoint into every replica: the step
    /// and all weights come back bit for bit, and the replicas agree.
    #[test]
    fn grid_resume_latest_restores_every_replica() {
        let dir = std::env::temp_dir().join(format!("sf_grid_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut dp = DataParallelTrainer::new(dp_cfg(), 2);
        let _ = dp.train(2);
        dp.save_checkpoint_step(&dir).expect("save");

        let mut fresh = DataParallelTrainer::new(dp_cfg(), 2);
        let summary = fresh.resume_latest(&dir).expect("resume").expect("found");
        assert_eq!(summary.step, Some(2));
        assert_eq!(fresh.step_count(), 2);
        assert_eq!(fresh.max_divergence(), 0.0);
        for rank in 0..2 {
            assert_eq!(fresh.store(rank).len(), dp.store(0).len());
            for (name, p) in dp.store(0).iter() {
                let q = fresh.store(rank).get(name).expect("restored parameter");
                assert_eq!(bits(p), bits(q), "replica {rank}: {name}");
            }
        }
        assert!(matches!(fresh.recovery_log(), [RecoveryEvent::Resumed { .. }]));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
