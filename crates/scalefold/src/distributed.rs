//! The training engine: a *functional* data-parallel trainer with real
//! replicas, real gradient all-reduce (the ring algorithm from
//! `sf_cluster::collective`) and global-norm clipping — the algorithms the
//! cluster simulator prices, run for correctness at CPU scale. Its
//! [`DataParallelTrainer::train_step`] is the only training step in the
//! crate: [`crate::Trainer`] is the one-replica case of this engine.
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
use crate::trainer::TrainerConfig;
use sf_autograd::{Graph, ParamStore};
use sf_cluster::collective::all_reduce_tensors;
use sf_data::featurize::featurize;
use sf_data::SyntheticDataset;
use sf_faults::{FaultInjector, FaultPlan};
use sf_model::loss::LossBreakdown;
use sf_model::{AlphaFold, AxialCollectives, FeatureBatch, ModelConfig};
use sf_optim::{clip_by_global_norm, FusedAdamSwa, Grads};
use sf_tensor::bf16::Precision;
use sf_tensor::Tensor;

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
}

/// What a step leaves beyond its [`DpStepReport`]: replica 0's loss terms
/// and predicted coordinates, and the learning rate the step used — the
/// extra fields of a single-device [`crate::StepReport`].
pub(crate) struct ReplicaZero {
    pub(crate) loss: LossBreakdown,
    pub(crate) coords: Tensor,
    pub(crate) lr: f32,
}

/// A `k`-replica data-parallel trainer sharing one model architecture.
pub struct DataParallelTrainer {
    pub(crate) cfg: TrainerConfig,
    pub(crate) model: AlphaFold,
    /// One parameter store per replica (kept deliberately separate so the
    /// divergence invariant is *measured*, not assumed).
    pub(crate) stores: Vec<ParamStore>,
    pub(crate) optimizers: Vec<FusedAdamSwa>,
    pub(crate) step: u64,
    /// Shared DAP executor: replicas run sequentially on a CPU, so one
    /// group serves the whole grid and accumulates total traffic.
    dap_group: Option<DapGroup>,
    dap_comm: DapStats,
    pub(crate) injector: FaultInjector,
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

    /// Like [`DataParallelTrainer::new`], with a fault schedule:
    /// NaN-gradient faults fire on replica 0 before the all-reduce, so the
    /// poison propagates to every replica's averaged gradients — the
    /// worst-case large-scale failure the skip guard must absorb.
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
        let dap_group = if cfg.dap > 1 {
            if let Err(msg) = DapGroup::validate_config(&cfg.model, cfg.dap) {
                panic!("{msg}");
            }
            Some(DapGroup::new(cfg.dap))
        } else {
            None
        };
        let model = AlphaFold::new(cfg.model.clone());
        let optimizers = (0..ranks)
            .map(|_| FusedAdamSwa::new(cfg.adam, cfg.swa_decay))
            .collect();
        DataParallelTrainer {
            model,
            stores: vec![ParamStore::new(); ranks],
            optimizers,
            step: 0,
            dap_group,
            dap_comm: DapStats::default(),
            injector: FaultInjector::new(plan),
            cfg,
        }
    }

    /// Number of replicas.
    pub fn ranks(&self) -> usize {
        self.stores.len()
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
        self.step_with_outputs(batches).0
    }

    /// [`DataParallelTrainer::train_step`], also returning replica 0's
    /// outputs.
    pub(crate) fn step_with_outputs(
        &mut self,
        batches: &[FeatureBatch],
    ) -> (DpStepReport, ReplicaZero) {
        assert_eq!(batches.len(), self.ranks(), "one batch per replica");
        // Per-replica forward/backward; each replica shards its own sample
        // across the DAP axis (the replicas form the DP axis of the grid).
        let ranks = self.ranks();
        let mut per_rank_grads: Vec<Grads> = Vec::with_capacity(ranks);
        let mut mean_loss = 0.0f32;
        let mut replica_zero = None;
        let dap = self
            .dap_group
            .as_ref()
            .map(|group| group as &dyn AxialCollectives);
        for (store, batch) in self.stores.iter_mut().zip(batches.iter()) {
            let mut g = Graph::new();
            let out = {
                let _fwd = sf_trace::span("forward", "forward");
                self.model
                    .forward_dap(&mut g, store, batch, dap)
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
        let elements_dap = match &self.dap_group {
            Some(group) => {
                let step_comm = group.take_stats();
                self.dap_comm += step_comm;
                step_comm.total_elements()
            }
            None => 0,
        };
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

        let (loss, coords) = replica_zero.expect("at least one replica");
        let report = DpStepReport {
            step: self.step,
            mean_loss,
            grad_norm: if finite { norm } else { f32::NAN },
            elements_all_reduced,
            elements_dap,
            max_replica_divergence: self.max_divergence(),
            skipped: !finite,
        };
        (report, ReplicaZero { loss, coords, lr })
    }

    /// Trains `steps` steps on deterministic synthetic batches (replica `r`
    /// sees sample `step * ranks + r`).
    pub fn train(&mut self, steps: u64) -> Vec<DpStepReport> {
        let ds = SyntheticDataset::new(self.cfg.seed ^ 0xD0, 64);
        let mut out = Vec::with_capacity(steps as usize);
        for s in 0..steps {
            let batches: Vec<FeatureBatch> = (0..self.ranks())
                .map(|r| {
                    let idx = (s as usize * self.ranks() + r) % ds.len();
                    featurize(&ds.record(idx), &self.cfg.model, self.cfg.seed ^ idx as u64)
                })
                .collect();
            out.push(self.train_step(&batches));
        }
        out
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
        cfg
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
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
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
}
