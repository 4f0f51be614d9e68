//! Functional data-parallel training: three model replicas fed by the
//! threaded non-blocking loader (one sample per replica per step), a real
//! ring all-reduce over the gradients, global-norm clipping, and identical
//! optimizer steps — the algorithms the cluster simulator prices, executed
//! for real. The run ends with a checkpoint resumed into a fresh grid.
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
    let mut dp = DataParallelTrainer::new(cfg.clone(), ranks);
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

    // Checkpoint the grid and resume it into a fresh one: every replica
    // gets the saved weights and the step counter comes back.
    let dir = std::env::temp_dir().join(format!("scalefold_dp_example_{}", std::process::id()));
    let path = dp.save_checkpoint_step(&dir).expect("save checkpoint");
    let mut resumed = DataParallelTrainer::new(cfg, ranks);
    let summary = resumed.resume_latest(&dir).expect("resume").expect("checkpoint found");
    println!(
        "resumed {} at step {:?}: {} replicas, divergence {:.1e}",
        path.display(),
        summary.step,
        resumed.ranks(),
        resumed.max_divergence()
    );
    assert_eq!(resumed.step_count(), dp.step_count());
    std::fs::remove_dir_all(&dir).expect("remove checkpoint directory");
}
