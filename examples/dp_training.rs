//! Functional data-parallel training: three model replicas, per-replica
//! batches, a real ring all-reduce over the gradients, global-norm
//! clipping, and identical optimizer steps — the algorithms the cluster
//! simulator prices, executed for real.
//!
//! Run with: `cargo run --release --example dp_training`

use scalefold::distributed::{dp_test_model, DataParallelTrainer};
use scalefold::TrainerConfig;

fn main() {
    let mut cfg = TrainerConfig::tiny();
    cfg.model = dp_test_model();
    cfg.schedule.warmup_steps = 3;
    let ranks = 3;

    println!("data-parallel training: {ranks} replicas, ring all-reduce per step");
    let mut dp = DataParallelTrainer::new(cfg, ranks);
    let reports = dp.train(8);
    println!(
        "{:>4} {:>10} {:>10} {:>14} {:>12}",
        "step", "mean loss", "grad norm", "elems reduced", "divergence"
    );
    for r in &reports {
        println!(
            "{:>4} {:>10.4} {:>10.3} {:>14} {:>12.2e}",
            r.step, r.mean_loss, r.grad_norm, r.elements_all_reduced, r.max_replica_divergence
        );
    }
    let first = reports.first().expect("steps").mean_loss;
    let last = reports.last().expect("steps").mean_loss;
    println!();
    println!("mean loss {first:.4} -> {last:.4} over {} DP steps", reports.len());
    println!(
        "replica divergence stayed at {:.2e} — the DP contract holds",
        reports.iter().map(|r| r.max_replica_divergence).fold(0.0f32, f32::max)
    );
    println!(
        "per-step ring traffic: {} elements across {} params",
        reports[0].elements_all_reduced,
        dp.store(0).num_elements()
    );
}
