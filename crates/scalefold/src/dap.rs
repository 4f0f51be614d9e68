//! **Real Dynamic Axial Parallelism** for the CPU training stack
//! (ScaleFold §3.3, after FastFold).
//!
//! [`DapGroup`] is the concrete executor behind
//! [`sf_model::AxialCollectives`]: it runs the Evoformer's axis switches
//! and re-gathers through the *functional* ring collectives in
//! [`sf_cluster::collective`] — the same algorithms the cluster simulator
//! prices analytically — and records per-collective
//! [`CollectiveStats`] so a training step's measured communication volume
//! can be checked against the analytic model ([`analytic_comm_volume`]).
//! Each collective also emits an `sf_trace` span (category `"collective"`)
//! so traced runs show the communication timeline.
//!
//! The split of labour with `sf-model`: the model crate owns the *tape*
//! expression of DAP (shard slices, verified external concats, the
//! transpose algebra of the axis switch), while this module owns the
//! *transport* (who actually produces the exchanged buffers) — mirroring
//! how a GPU implementation would swap NCCL in under the same graph.

use sf_cluster::collective::{all_gather, all_to_all, CollectiveStats};
use sf_model::{AxialCollectives, ModelConfig};
use std::cell::RefCell;

/// Accumulated communication of a DAP group, split by collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DapStats {
    /// Total elements sent across all ranks by all-gathers.
    pub all_gather_elements: usize,
    /// Total elements sent across all ranks by all-to-alls.
    pub all_to_all_elements: usize,
    /// Number of all-gather events.
    pub gathers: usize,
    /// Number of all-to-all (axis switch) events.
    pub switches: usize,
}

impl std::ops::AddAssign for DapStats {
    fn add_assign(&mut self, other: DapStats) {
        self.all_gather_elements += other.all_gather_elements;
        self.all_to_all_elements += other.all_to_all_elements;
        self.gathers += other.gathers;
        self.switches += other.switches;
    }
}

impl DapStats {
    /// Total elements sent across both collectives.
    pub fn total_elements(&self) -> usize {
        self.all_gather_elements + self.all_to_all_elements
    }

    /// Prices this volume on a fabric the way `ClusterSim` prices DAP
    /// communication: each event's per-rank bytes through the analytic
    /// collective formulas of [`sf_cluster::FabricSpec`]. `elem_bytes` is
    /// the activation element size (4 for f32).
    pub fn price_s(&self, fabric: &sf_cluster::FabricSpec, ranks: usize, elem_bytes: usize) -> f64 {
        if ranks <= 1 || (self.gathers == 0 && self.switches == 0) {
            return 0.0;
        }
        let n = ranks as f64;
        // Invert the measured totals back to the per-event buffer sizes
        // the analytic formulas take: a gather of shard size s sends
        // n(n-1)s in total; an all-to-all of per-rank buffers of b sends
        // (n-1)b in total (summed over the n ranks).
        let mut s = 0.0;
        if self.gathers > 0 {
            let shard_elems =
                self.all_gather_elements as f64 / (n * (n - 1.0) * self.gathers as f64);
            s += self.gathers as f64 * fabric.all_gather_s(shard_elems * elem_bytes as f64, ranks);
        }
        if self.switches > 0 {
            let buf_elems = self.all_to_all_elements as f64 / ((n - 1.0) * self.switches as f64);
            s += self.switches as f64
                * fabric.all_to_all_s(buf_elems * n * elem_bytes as f64, ranks);
        }
        s
    }
}

/// A DAP process group: `ranks` simulated devices sharding one sample's
/// Evoformer activations. Implements [`AxialCollectives`] with the real
/// functional collectives and accumulates [`DapStats`].
#[derive(Debug)]
pub struct DapGroup {
    ranks: usize,
    stats: RefCell<DapStats>,
}

impl DapGroup {
    /// Creates a group of `ranks` devices (0 is normalized to 1 = off).
    pub fn new(ranks: usize) -> Self {
        DapGroup {
            ranks: ranks.max(1),
            stats: RefCell::new(DapStats::default()),
        }
    }

    /// Checks that `cfg`'s axial dimensions divide evenly across `ranks`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the offending dimension.
    pub fn validate_config(cfg: &ModelConfig, ranks: usize) -> Result<(), String> {
        if ranks <= 1 {
            return Ok(());
        }
        if !cfg.n_seq.is_multiple_of(ranks) {
            return Err(format!(
                "DAP-{ranks} requires the MSA depth (n_seq = {}) to be divisible by the rank count",
                cfg.n_seq
            ));
        }
        if !cfg.n_res.is_multiple_of(ranks) {
            return Err(format!(
                "DAP-{ranks} requires the crop size (n_res = {}) to be divisible by the rank count",
                cfg.n_res
            ));
        }
        Ok(())
    }

    /// The accumulated communication stats since construction or the last
    /// [`DapGroup::take_stats`].
    pub fn stats(&self) -> DapStats {
        *self.stats.borrow()
    }

    /// Returns and resets the accumulated stats (call once per step).
    pub fn take_stats(&self) -> DapStats {
        std::mem::take(&mut self.stats.borrow_mut())
    }

    fn record_gather(&self, c: CollectiveStats) {
        let mut s = self.stats.borrow_mut();
        s.all_gather_elements += c.elements_sent;
        s.gathers += 1;
    }

    fn record_switch(&self, c: CollectiveStats) {
        let mut s = self.stats.borrow_mut();
        s.all_to_all_elements += c.elements_sent;
        s.switches += 1;
    }
}

impl AxialCollectives for DapGroup {
    fn ranks(&self) -> usize {
        self.ranks
    }

    fn gather_buffers(&self, shards: &[Vec<f32>]) -> Vec<f32> {
        let _span = sf_trace::span("collective", "dap_all_gather")
            .arg("ranks", self.ranks as f64)
            .arg("shard_elements", shards.first().map_or(0, Vec::len) as f64);
        let (mut outs, stats) = all_gather(shards);
        self.record_gather(stats);
        // Every rank's output is identical; hand back rank 0's.
        outs.swap_remove(0)
    }

    fn exchange_buffers(&self, inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let _span = sf_trace::span("collective", "dap_all_to_all")
            .arg("ranks", self.ranks as f64)
            .arg("buffer_elements", inputs.first().map_or(0, Vec::len) as f64);
        let (outs, stats) = all_to_all(inputs);
        self.record_switch(stats);
        outs
    }
}

/// The communication volume one DAP-`ranks` training step *should* incur,
/// derived from the model dimensions — the same counting `ClusterSim`'s
/// analytic model prices (per-collective ring traffic factors:
/// `n(n-1)·shard` per all-gather, `(n-1)·buffer` per all-to-all).
///
/// Per main-stack block and recycling iteration the DAP Evoformer performs
/// 2 axis switches (MSA row→column on `[S,R,c_m]`, triangle start→end on
/// `[R,R,c_z]`) and 3 all-gathers (MSA after column attention, the full
/// transposed pair tensor for the ending-node bias, and the pair output).
/// Warm recycling iterations communicate exactly like the final one.
pub fn analytic_comm_volume(cfg: &ModelConfig, ranks: usize) -> DapStats {
    if ranks <= 1 {
        return DapStats::default();
    }
    let k = ranks;
    let msa = cfg.n_seq * cfg.n_res * cfg.c_m;
    let pair = cfg.n_res * cfg.n_res * cfg.c_z;
    // Per block: all-to-all moves everything but each rank's own chunk.
    let switch_elems = (msa / k) * (k - 1) + (pair / k) * (k - 1);
    // Per block: ring all-gathers move each shard n-1 times on each rank.
    let gather_elems = (k - 1) * msa + 2 * (k - 1) * pair;
    let events = cfg.evoformer_blocks * cfg.recycle_iters.max(1);
    DapStats {
        all_gather_elements: events * gather_elems,
        all_to_all_elements: events * switch_elems,
        gathers: 3 * events,
        switches: 2 * events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_autograd::{Graph, ParamStore};
    use sf_model::{AlphaFold, FeatureBatch};

    fn tiny() -> ModelConfig {
        // n_seq = 4, n_res = 12: both divisible by 2 and 4.
        ModelConfig::tiny()
    }

    #[test]
    fn config_validation_catches_uneven_axes() {
        let mut cfg = tiny();
        assert!(DapGroup::validate_config(&cfg, 2).is_ok());
        assert!(DapGroup::validate_config(&cfg, 4).is_ok());
        cfg.n_res = 13;
        assert!(DapGroup::validate_config(&cfg, 2).is_err());
        assert!(DapGroup::validate_config(&cfg, 1).is_ok());
    }

    #[test]
    fn dap_forward_matches_unsharded_through_real_collectives() {
        // The tentpole contract: DAP-k forward/backward equals the
        // unsharded path within 1e-5, k ∈ {1, 2, 4}, fused kernels on and
        // off — with the data moved by the *real* ring collectives.
        for fused in [true, false] {
            let mut cfg = tiny();
            cfg.fused_kernels = fused;
            let model = AlphaFold::new(cfg.clone());
            let batch = FeatureBatch::synthetic(&cfg, 11);

            let mut store = ParamStore::new();
            let mut g_ref = Graph::new();
            let out_ref = model.forward(&mut g_ref, &mut store, &batch).unwrap();
            g_ref.backward(out_ref.loss).unwrap();
            let grads_ref = g_ref.grads_by_name().unwrap();

            for k in [1usize, 2, 4] {
                let dap = DapGroup::new(k);
                let mut store_k = ParamStore::new();
                let mut g = Graph::new();
                let out = model
                    .forward_dap(&mut g, &mut store_k, &batch, Some(&dap))
                    .unwrap();
                let d_loss =
                    (out.loss_breakdown.total - out_ref.loss_breakdown.total).abs();
                assert!(
                    d_loss <= 1e-5,
                    "fused={fused} k={k}: loss diverged by {d_loss}"
                );
                g.backward(out.loss).unwrap();
                let grads = g.grads_by_name().unwrap();
                assert_eq!(grads.len(), grads_ref.len(), "k={k}: param set differs");
                for (name, gr) in &grads_ref {
                    assert!(
                        gr.allclose(&grads[name], 1e-5),
                        "fused={fused} k={k}: gradient mismatch at {name}"
                    );
                }
            }
        }
    }

    #[test]
    fn measured_comm_volume_matches_analytic_exactly() {
        // Element-exact agreement between the collectives' measured
        // traffic and the closed-form volume ClusterSim prices.
        for k in [2usize, 4] {
            let cfg = tiny();
            let model = AlphaFold::new(cfg.clone());
            let batch = FeatureBatch::synthetic(&cfg, 21);
            let dap = DapGroup::new(k);
            let mut store = ParamStore::new();
            let mut g = Graph::new();
            model
                .forward_dap(&mut g, &mut store, &batch, Some(&dap))
                .unwrap();
            let measured = dap.take_stats();
            let analytic = analytic_comm_volume(&cfg, k);
            assert_eq!(measured, analytic, "k={k}");
            // And the stats reset on take.
            assert_eq!(dap.stats(), DapStats::default());
        }
    }

    #[test]
    fn dap1_communicates_nothing() {
        let cfg = tiny();
        let model = AlphaFold::new(cfg.clone());
        let batch = FeatureBatch::synthetic(&cfg, 22);
        let dap = DapGroup::new(1);
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        model
            .forward_dap(&mut g, &mut store, &batch, Some(&dap))
            .unwrap();
        assert_eq!(dap.stats(), DapStats::default());
        assert_eq!(analytic_comm_volume(&cfg, 1), DapStats::default());
    }

    #[test]
    fn measured_volume_prices_on_the_fabric() {
        // The measured stats, pushed through FabricSpec's collective
        // formulas, give a positive communication time that grows with
        // the model and matches pricing the analytic volume (they are
        // element-identical).
        let cfg = tiny();
        let fabric = sf_cluster::FabricSpec::eos();
        let measured = {
            let model = AlphaFold::new(cfg.clone());
            let batch = FeatureBatch::synthetic(&cfg, 23);
            let dap = DapGroup::new(2);
            let mut store = ParamStore::new();
            let mut g = Graph::new();
            model
                .forward_dap(&mut g, &mut store, &batch, Some(&dap))
                .unwrap();
            dap.take_stats()
        };
        let analytic = analytic_comm_volume(&cfg, 2);
        let t_measured = measured.price_s(&fabric, 2, 4);
        let t_analytic = analytic.price_s(&fabric, 2, 4);
        assert!(t_measured > 0.0);
        assert!((t_measured - t_analytic).abs() < 1e-12 * t_analytic.max(1.0));
    }
}
