//! The paper's contribution: RPCA-guided network performance awareness.
//!
//! This crate wires the pieces together into the system of paper §IV:
//!
//! * [`estimator`] — turn a temporal performance matrix into a single
//!   constant [`cloudconst_netmodel::PerfMatrix`] estimate, by RPCA (the
//!   proposal) or by the Heuristics family (column mean / min / EWMA — the
//!   comparison approaches of §V-A) or by direct use of the last
//!   measurement (the ad-hoc practice the paper criticizes).
//! * [`advisor`] — **Algorithm 1**: calibrate a TP-matrix on the cloud, run
//!   the estimator, guide optimizations with the constant component, watch
//!   the real performance of the guided operation, and re-calibrate when
//!   the observed/expected mismatch crosses the maintenance threshold. A
//!   re-calibration whose solve fails is a typed error that leaves the
//!   previous model, and the health report of the campaign that built it,
//!   in force; [`DegradedPolicy::AcceptNearTolerance`] is the one way to
//!   install a non-converged solve, and it flags the model degraded.
//! * [`noise`] — the §V-D3 noise-injection protocol used to sweep
//!   `Norm(N_E)` in Figures 10 and 11.
//! * [`effectiveness`] — the paper's read of `Norm(N_E)`: when network
//!   performance aware optimization is worth it at all.

pub mod advisor;
pub mod effectiveness;
pub mod estimator;
pub mod noise;

pub use advisor::{
    Advisor, AdvisorConfig, CampaignHistory, HealthReport, MaintenanceDecision, ModelState,
};
pub use effectiveness::{classify, EffectivenessBand};
pub use estimator::{
    estimate, estimate_with_opts, ConstantEstimate, DegradedPolicy, EstimatorKind,
};
pub use noise::{inject_noise, inject_noise_until};

/// Errors surfaced by the advisor pipeline.
#[derive(Debug)]
pub enum CoreError {
    /// The RPCA solver failed.
    Rpca(cloudconst_rpca::RpcaError),
    /// The TP-matrix has no snapshots.
    EmptyTpMatrix,
    /// The advisor was asked for guidance before any calibration.
    NotCalibrated,
}

impl From<cloudconst_rpca::RpcaError> for CoreError {
    fn from(e: cloudconst_rpca::RpcaError) -> Self {
        CoreError::Rpca(e)
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Rpca(e) => write!(f, "RPCA failure: {e}"),
            CoreError::EmptyTpMatrix => write!(f, "temporal performance matrix is empty"),
            CoreError::NotCalibrated => write!(f, "advisor has not calibrated yet"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Crate result alias.
pub type Result<T, E = CoreError> = std::result::Result<T, E>;
