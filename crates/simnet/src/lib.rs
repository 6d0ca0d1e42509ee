//! Flow-level discrete-event datacenter network simulator.
//!
//! The workspace's ns-2 substitute (paper §V-A *Simulations*): a
//! tree-structured datacenter — hosts under top-of-rack switches under one
//! core switch — carrying *flows* whose instantaneous rates follow max-min
//! fair sharing of link capacity, re-solved at every flow arrival and
//! departure (the fluid approximation of TCP sharing that flow-level
//! datacenter studies standardly use; packet-level detail is irrelevant at
//! the multi-megabyte transfer sizes the paper evaluates).
//!
//! Pieces:
//!
//! * [`topology`] — the 2-level tree of the paper's Fig. 3 (32 racks × 32
//!   servers, 1 Gb/s host links, 10 Gb/s core links) and routing.
//! * [`fairshare`] — progressive-filling max-min rate allocation, kept
//!   up to date across flow arrivals and departures.
//! * [`engine`] — the event loop: submit flows, advance fluid state, wake
//!   on arrivals/completions.
//! * [`background`] — per-link Poisson background traffic ("message size"
//!   and "expected waiting time λ", the two knobs of Fig. 12).
//! * [`cluster`] — a virtual-cluster view of a host subset implementing
//!   [`cloudconst_netmodel::NetworkProbe`], so the calibration protocol
//!   and the advisor run unchanged on the simulator.
//! * [`dag`] — execute a [`cloudconst_collectives::TransferDag`] on the
//!   simulator, respecting dependencies, under whatever congestion the
//!   background generates.

pub mod background;
pub mod cluster;
pub mod dag;
pub mod engine;
pub mod fairshare;
pub mod topology;

pub use background::BackgroundSpec;
pub use cluster::ClusterView;
pub use dag::run_dag;
pub use engine::{FlowId, Simulator};
pub use topology::{LinkId, LinkSpec, Topology};
