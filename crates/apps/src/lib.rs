//! Real-world application workloads (paper §V-A/§V-D2): N-body and
//! conjugate gradient.
//!
//! Both applications run their numerics for real (rayon-parallel O(n²)
//! gravity, CSR sparse CG with the paper's `‖r‖ ≤ 1e-5·g₀` stopping rule)
//! while their *distributed execution* is modeled: `P` processes own data
//! partitions, and every step/iteration performs the paper's all-to-all —
//! implemented, as in the paper and MPICH2, as a gather followed by a
//! broadcast — whose cost comes from the same α-β machinery used
//! everywhere else. Computation time is modeled deterministically from the
//! operation count (`flops / flops_per_sec / processes`), so experiment
//! output is reproducible across machines.
//!
//! The communication trees are chosen by a [`CommEnv`]: Baseline (binomial)
//! or guided (FNF over a performance estimate), evaluated against the
//! *actual* network — the gap between guide and actual is exactly what
//! distinguishes RPCA from Heuristics from Baseline.

pub mod cg;
pub mod comm;
pub mod nbody;
pub mod workflow;

pub use cg::{CgConfig, CgReport};
pub use comm::CommEnv;
pub use nbody::{NBodyConfig, NBodyReport};
pub use workflow::{
    balanced_eft_schedule, eft_schedule, execute as execute_workflow, round_robin_schedule,
    Workflow, WorkflowReport, WorkflowTask,
};

/// Time breakdown of one application run (the bars of Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// Modeled computation time (seconds).
    pub compute: f64,
    /// Modeled communication time (seconds).
    pub comm: f64,
    /// Initialization overheads charged to the guided approaches:
    /// calibration + RPCA runtime ("Other Overheads" in Fig. 9).
    pub other: f64,
}

impl Breakdown {
    /// Total elapsed time.
    pub fn total(&self) -> f64 {
        self.compute + self.comm + self.other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total() {
        let b = Breakdown {
            compute: 1.0,
            comm: 2.0,
            other: 0.5,
        };
        assert_eq!(b.total(), 3.5);
    }
}
