//! Topology mapping (paper §II-C, second application).
//!
//! Assign a set of communicating tasks to machines so the traffic pattern
//! exploits the fast links. Inputs are two weighted graphs:
//!
//! * a **task graph** `G` — vertices are tasks, edge weights are data
//!   volumes to transfer;
//! * a **machine graph** `H` — vertices are machines, edge weights are
//!   pair-wise bandwidth (from a [`cloudconst_netmodel::PerfMatrix`], i.e.
//!   from whatever estimate — Baseline, Heuristics, or the RPCA constant —
//!   is guiding the optimizer).
//!
//! [`greedy_mapping`] is the paper's Greedy Heuristic Algorithm (Hoefler &
//! Snir): heaviest task onto best-connected machine, then grow the mapped
//! region along the heaviest connections. [`ring_mapping`] is the paper's
//! Baseline (vertex `k` onto machine `k`). [`evaluate_mapping`] times a
//! mapping under the single-port α-β model.

pub mod anneal;
pub mod cost;
pub mod generate;
pub mod graph;
pub mod greedy;

pub use anneal::anneal_mapping;
pub use cost::evaluate_mapping;
pub use generate::{random_task_graph, ring_task_graph};
pub use graph::{machine_graph_from_perf, TaskGraph};
pub use greedy::{greedy_mapping, ring_mapping, Mapping};
