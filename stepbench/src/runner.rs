//! One interface over the two trainers, with the per-step correctness
//! checks every workload applies.

use crate::workload::{Engine, Workload};
use scalefold::{DataParallelTrainer, Trainer};
use sf_autograd::ParamStore;
use sf_model::FeatureBatch;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Largest parameter difference between grid replicas a step may leave.
pub const MAX_REPLICA_DIVERGENCE: f32 = 1e-5;

const SKIPPED: &str = "optimizer update skipped";

/// What one optimizer step reported.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Loss (mean over replicas on a grid).
    pub loss: f32,
    /// Elements the gradient all-reduce sent (0 on one replica).
    pub all_reduced: usize,
    /// `None` when the step passed every check, else why it failed.
    pub fault: Option<&'static str>,
}

impl Step {
    /// True if the trainer skipped this step's optimizer update.
    pub fn skipped(&self) -> bool {
        self.fault == Some(SKIPPED)
    }

    fn single(r: &scalefold::StepReport) -> Step {
        let fault = if r.skipped {
            Some(SKIPPED)
        } else if !r.loss.is_finite() || !r.grad_norm.is_finite() {
            Some("non-finite loss or gradient norm")
        } else {
            None
        };
        Step {
            loss: r.loss,
            all_reduced: 0,
            fault,
        }
    }

    fn grid(r: &scalefold::distributed::DpStepReport) -> Step {
        let fault = if r.skipped {
            Some(SKIPPED)
        } else if !r.mean_loss.is_finite() || !r.grad_norm.is_finite() {
            Some("non-finite loss or gradient norm")
        } else if r.max_replica_divergence.is_nan()
            || r.max_replica_divergence >= MAX_REPLICA_DIVERGENCE
        {
            Some("replicas diverged")
        } else {
            None
        };
        Step {
            loss: r.mean_loss,
            all_reduced: r.elements_all_reduced,
            fault,
        }
    }

    /// A step that did not complete, for reason `why`.
    pub fn failed(why: &'static str) -> Step {
        Step {
            loss: f32::NAN,
            all_reduced: 0,
            fault: Some(why),
        }
    }
}

/// A workload's trainer.
pub enum Runner {
    /// `scalefold::Trainer`.
    Single(Box<Trainer>),
    /// `scalefold::DataParallelTrainer`.
    Grid(Box<DataParallelTrainer>),
}

impl Runner {
    /// Constructs the workload's trainer (parameters initialize lazily on
    /// the first step).
    pub fn new(w: &Workload) -> Runner {
        match w.engine {
            Engine::Single => Runner::Single(Box::new(Trainer::new(w.cfg.clone()))),
            Engine::Grid { replicas } => {
                // The grid trainer does not read `cfg.num_threads`.
                sf_tensor::pool::set_num_threads(w.cfg.num_threads);
                Runner::Grid(Box::new(DataParallelTrainer::new(w.cfg.clone(), replicas)))
            }
        }
    }

    /// One optimizer step on `batches` (one per replica). A panic is
    /// caught and reported as a failed step.
    pub fn step(&mut self, batches: &[FeatureBatch]) -> Step {
        catch_unwind(AssertUnwindSafe(|| match self {
            Runner::Single(t) => Step::single(&t.train_step(&batches[0])),
            Runner::Grid(t) => Step::grid(&t.train_step(batches)),
        }))
        .unwrap_or_else(|_| Step::failed("panic"))
    }

    /// `train(n)`: the trainer's own loop, inputs prepared by the program
    /// (loader pipeline for `Trainer`, inline featurization for the grid).
    pub fn train(&mut self, n: u64) -> Vec<Step> {
        catch_unwind(AssertUnwindSafe(|| match self {
            Runner::Single(t) => t.train(n).iter().map(Step::single).collect(),
            Runner::Grid(t) => t.train(n).iter().map(Step::grid).collect(),
        }))
        .unwrap_or_else(|_| vec![Step::failed("panic")])
    }

    /// Replica 0's parameters.
    pub fn params(&self) -> &ParamStore {
        match self {
            Runner::Single(t) => t.store(),
            Runner::Grid(t) => t.store(0),
        }
    }

    /// Recovery events the trainer logged (data faults, skips); a healthy
    /// run has none.
    pub fn recovery_events(&self) -> usize {
        match self {
            Runner::Single(t) => t.recovery_log().len(),
            Runner::Grid(_) => 0,
        }
    }

    /// Cumulative DAP traffic.
    pub fn dap_comm(&self) -> scalefold::DapStats {
        match self {
            Runner::Single(t) => t.dap_comm(),
            Runner::Grid(t) => t.dap_comm(),
        }
    }
}
