//! MPI-style collective communication over modeled networks.
//!
//! The paper's first application family (§II-C): broadcast, scatter, reduce
//! and gather over an `N`-instance virtual cluster, where the communication
//! tree is chosen by one of:
//!
//! * [`binomial`] — the rank-ordered binomial tree MPICH uses; the paper's
//!   **Baseline** (network-oblivious).
//! * [`fnf`] — Banikazemi et al.'s Fastest-Node-First greedy construction
//!   from an all-link weight matrix; the network-performance-aware
//!   optimizer that RPCA/Heuristics feed.
//! * [`topoaware`] — a hierarchical (rack-aware) tree built from *topology*
//!   knowledge; the comparison algorithm of the ns-2 simulations (Fig. 13).
//!
//! Execution is split from tree construction: [`schedule`] lowers a tree +
//! operation to a [`TransferDag`] of dependent point-to-point transfers,
//! which the α-β evaluator in [`exec`] (or the discrete-event simulator in
//! `cloudconst-simnet`) then times.
//!
//! Only the four primitives the paper evaluates live here; a composite such
//! as the paper's all-to-all (gather then broadcast) is timed by its caller
//! from two [`evaluate_tree`] calls (see `cloudconst-apps`).

pub mod binomial;
pub mod exec;
pub mod fnf;
pub mod topoaware;
pub mod tree;

pub use binomial::binomial_tree;
pub use exec::{evaluate_dag, evaluate_tree, schedule, Transfer, TransferDag};
pub use fnf::fnf_tree;
pub use topoaware::topo_aware_tree;
pub use tree::CommTree;

/// The four basic collective operations the paper studies. Reduce and
/// gather are the duals of broadcast and scatter (paper §V-A observes they
/// behave identically); they are executed leaf-to-root over the same trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// Root sends the full message to every rank (tree, full size per hop).
    Broadcast,
    /// Root distributes distinct per-rank chunks (tree, subtree-sized hops).
    Scatter,
    /// Dual of broadcast: combine values up the tree.
    Reduce,
    /// Dual of scatter: collect per-rank chunks up the tree.
    Gather,
}

impl Collective {
    /// Does data flow from the root toward the leaves?
    pub fn is_root_down(self) -> bool {
        matches!(self, Collective::Broadcast | Collective::Scatter)
    }

    /// Does each hop carry the full message (`true`) or only the chunks of
    /// the subtree behind the hop (`false`)?
    pub fn full_message_per_hop(self) -> bool {
        matches!(self, Collective::Broadcast | Collective::Reduce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_classification() {
        assert!(Collective::Broadcast.is_root_down());
        assert!(Collective::Scatter.is_root_down());
        assert!(!Collective::Reduce.is_root_down());
        assert!(!Collective::Gather.is_root_down());
        assert!(Collective::Broadcast.full_message_per_hop());
        assert!(Collective::Reduce.full_message_per_hop());
        assert!(!Collective::Scatter.full_message_per_hop());
        assert!(!Collective::Gather.full_message_per_hop());
    }
}
