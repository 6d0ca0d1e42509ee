//! Synthetic IaaS cloud — the workspace's Amazon EC2 substitute.
//!
//! The paper measures virtual clusters on EC2, where the decisive facts are:
//!
//! 1. **Hidden placement.** VMs land on hosts in a multi-rack datacenter
//!    the tenant cannot see; pair-wise performance is determined mostly by
//!    whether two VMs share a host, a rack, or nothing.
//! 2. **Constant + volatile band.** Each link's performance has a
//!    long-lived constant component plus a noisy band around it
//!    (paper §III, Appendix A of the tech report).
//! 3. **Sparse congestion.** Occasional per-link congestion episodes
//!    (the sparse error RPCA isolates).
//! 4. **Rare regime shifts.** Events like VM migration re-draw the
//!    constants (the paper saw ~3 re-calibrations in a week).
//!
//! [`SyntheticCloud`] reproduces exactly these four phenomena with a
//! deterministic, seedable generator, and — unlike EC2 — exposes the ground
//! truth ([`SyntheticCloud::ground_truth`]) so tests can check that the
//! RPCA pipeline recovers what is actually there.
//!
//! All randomness is hash-derived from `(seed, link, time)` rather than
//! drawn from a stateful RNG, so probing is reproducible and
//! order-independent: two probes of the same link at the same instant see
//! the same network, exactly like two tenants measuring the same wire.

pub mod config;
pub mod faults;
pub mod hash;
pub mod placement;
mod synthetic;

pub use config::CloudConfig;
pub use faults::{FaultDomain, FaultPlan, FaultyCloud, FlakyLink};
pub use placement::{Placement, PlacementDistance};
pub use synthetic::SyntheticCloud;
