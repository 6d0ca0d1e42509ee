//! Lowering collectives to transfer DAGs, and α-β timing.
//!
//! A collective on a tree is a set of point-to-point transfers with
//! dependencies:
//!
//! * **data dependencies** — a machine forwards only after it holds the
//!   data (root-down ops) or after its subtree is assembled (leaf-up ops);
//! * **port serialization** — a machine sends (receives) one message at a
//!   time, in child-list order.
//!
//! The DAG form is backend-neutral: [`evaluate_dag`] times it under the
//! contention-free α-β model (the paper's §V-A estimation method), while
//! `cloudconst-simnet` executes the same DAG as flows on a congested
//! network.

use crate::tree::CommTree;
use crate::Collective;
use cloudconst_netmodel::PerfMatrix;

/// One point-to-point transfer inside a collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Sending machine.
    pub src: usize,
    /// Receiving machine.
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Indices (into the DAG's transfer list) that must finish before this
    /// transfer can start.
    pub deps: Vec<usize>,
}

/// A dependency DAG of transfers implementing one collective operation.
///
/// Transfers are stored in a valid topological order (every dependency
/// index is smaller than the dependent's index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferDag {
    /// Cluster size the DAG refers to.
    pub n: usize,
    /// Topologically ordered transfers.
    pub transfers: Vec<Transfer>,
}

impl TransferDag {
    /// Total bytes moved by the whole operation.
    pub fn total_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }
}

/// Lower `op` over `tree` into a [`TransferDag`].
///
/// `msg_bytes` is the collective's size parameter: the full payload for
/// [`Collective::Broadcast`]/[`Collective::Reduce`], the per-rank chunk for
/// [`Collective::Scatter`]/[`Collective::Gather`] (a hop then carries
/// `msg_bytes × subtree_size` bytes, as in MPICH's binomial scatter).
pub fn schedule(tree: &CommTree, op: Collective, msg_bytes: u64) -> TransferDag {
    assert!(tree.is_spanning(), "collective requires a spanning tree");
    let n = tree.n();
    let sizes = tree.subtree_sizes();
    let hop_bytes = |child: usize| -> u64 {
        if op.full_message_per_hop() {
            msg_bytes
        } else {
            msg_bytes * sizes[child] as u64
        }
    };

    let mut transfers: Vec<Transfer> = Vec::with_capacity(n.saturating_sub(1));

    if op.is_root_down() {
        // Walk BFS; remember the transfer that delivered data to each node.
        let mut delivered: Vec<Option<usize>> = vec![None; n];
        for u in tree.bfs_order() {
            let mut prev_send: Option<usize> = None;
            for &c in tree.children(u) {
                let mut deps = Vec::new();
                if let Some(d) = delivered[u] {
                    deps.push(d); // data must have arrived at u
                }
                if let Some(p) = prev_send {
                    deps.push(p); // u's send port is busy until then
                }
                let idx = transfers.len();
                transfers.push(Transfer {
                    src: u,
                    dst: c,
                    bytes: hop_bytes(c),
                    deps,
                });
                delivered[c] = Some(idx);
                prev_send = Some(idx);
            }
        }
    } else {
        // Leaf-up: process nodes in reverse BFS order so each child's
        // upward transfer exists before its parent's.
        let order = tree.bfs_order();
        // For each node, the transfers that assembled its subtree (the
        // uploads from its own children).
        let mut gathered: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &u in order.iter().rev() {
            let mut prev_recv: Option<usize> = None;
            // Receive in *reverse* child order: the time-mirror of the
            // root-down send schedule, which restores exact duality with
            // broadcast/scatter on symmetric links (MPICH gathers in
            // reverse order of the scatter sends for the same reason).
            for &c in tree.children(u).iter().rev() {
                let mut deps = gathered[c].clone(); // c's subtree complete
                if let Some(p) = prev_recv {
                    deps.push(p); // u's receive port serialized
                }
                let idx = transfers.len();
                transfers.push(Transfer {
                    src: c,
                    dst: u,
                    bytes: hop_bytes(c),
                    deps,
                });
                gathered[u].push(idx);
                prev_recv = Some(idx);
            }
        }
        // Re-topologicalize: children were emitted before parents, but dep
        // indices may point forward within `transfers`? No — gathered[c]
        // was filled while processing c (later in reverse order = earlier
        // in `transfers`), so indices are already topological.
    }

    TransferDag { n, transfers }
}

/// Time a DAG under the contention-free α-β model.
///
/// Each transfer starts when all dependencies finish and lasts
/// `α + bytes/β` for its link; the operation completes when the last
/// transfer does. This mirrors the paper's use of the α-β model to estimate
/// collective performance from a performance matrix.
pub fn evaluate_dag(dag: &TransferDag, perf: &PerfMatrix) -> f64 {
    assert_eq!(dag.n, perf.n(), "cluster size mismatch");
    let mut finish = vec![0.0f64; dag.transfers.len()];
    let mut completion = 0.0f64;
    for (i, t) in dag.transfers.iter().enumerate() {
        let start = t
            .deps
            .iter()
            .map(|&d| {
                debug_assert!(d < i, "DAG not topologically ordered");
                finish[d]
            })
            .fold(0.0f64, f64::max);
        finish[i] = start + perf.transfer_time(t.src, t.dst, t.bytes);
        completion = completion.max(finish[i]);
    }
    completion
}

/// Convenience: schedule + evaluate in one call.
pub fn evaluate_tree(tree: &CommTree, perf: &PerfMatrix, op: Collective, msg_bytes: u64) -> f64 {
    evaluate_dag(&schedule(tree, op, msg_bytes), perf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::binomial_tree;
    use cloudconst_netmodel::LinkPerf;

    fn uniform_perf(n: usize, alpha: f64, beta: f64) -> PerfMatrix {
        PerfMatrix::uniform(n, LinkPerf::new(alpha, beta))
    }

    #[test]
    fn broadcast_two_nodes() {
        let t = binomial_tree(0, 2);
        let perf = uniform_perf(2, 0.5, 100.0);
        let time = evaluate_tree(&t, &perf, Collective::Broadcast, 50);
        assert!((time - 1.0).abs() < 1e-12); // 0.5 + 50/100
    }

    #[test]
    fn broadcast_binomial_uniform_matches_rounds() {
        // n=4 binomial, uniform links, pure-latency message: completion is
        // determined by the serialized sends: root sends to 1 (t=a), then
        // to 2 (t=2a); 1 forwards to 3 (starts at a, done 2a). Total 2a.
        let t = binomial_tree(0, 4);
        let perf = uniform_perf(4, 1.0, 1e30);
        let time = evaluate_tree(&t, &perf, Collective::Broadcast, 1);
        assert!((time - 2.0).abs() < 1e-9, "time {time}");
    }

    #[test]
    fn broadcast_depth_and_serialization() {
        // n=8 binomial: root sends 3 messages serially; last leaf (7) is at
        // depth 3 via 0→1→3→7 where 1 waits for its arrival at t=a, etc.
        // Known result for latency-only binomial bcast: ceil(log2 n) rounds
        // with per-round cost a: total 3a.
        let t = binomial_tree(0, 8);
        let perf = uniform_perf(8, 1.0, 1e30);
        let time = evaluate_tree(&t, &perf, Collective::Broadcast, 1);
        assert!((time - 3.0).abs() < 1e-9, "time {time}");
    }

    #[test]
    fn scatter_carries_subtree_bytes() {
        // Chain 0→1→2: scatter chunk c. Edge (0,1) carries 2c (for nodes
        // 1 and 2); edge (1,2) carries c.
        let mut tree = CommTree::singleton(0, 3);
        tree.attach(0, 1);
        tree.attach(1, 2);
        let dag = schedule(&tree, Collective::Scatter, 10);
        assert_eq!(dag.transfers.len(), 2);
        let e01 = dag.transfers.iter().find(|t| t.dst == 1).unwrap();
        let e12 = dag.transfers.iter().find(|t| t.dst == 2).unwrap();
        assert_eq!(e01.bytes, 20);
        assert_eq!(e12.bytes, 10);
    }

    #[test]
    fn gather_is_time_symmetric_to_scatter_on_symmetric_links() {
        let t = binomial_tree(0, 8);
        let perf = uniform_perf(8, 0.01, 1e8);
        let s = evaluate_tree(&t, &perf, Collective::Scatter, 1 << 20);
        let g = evaluate_tree(&t, &perf, Collective::Gather, 1 << 20);
        assert!((s - g).abs() / s < 1e-9, "scatter {s} vs gather {g}");
    }

    #[test]
    fn reduce_matches_broadcast_on_symmetric_links() {
        let t = binomial_tree(2, 16);
        let perf = uniform_perf(16, 0.002, 5e7);
        let b = evaluate_tree(&t, &perf, Collective::Broadcast, 8 << 20);
        let r = evaluate_tree(&t, &perf, Collective::Reduce, 8 << 20);
        assert!((b - r).abs() / b < 1e-9);
    }

    #[test]
    fn asymmetric_links_break_duality() {
        // Make 1→0 much slower than 0→1: reduce (upward) suffers.
        let mut perf = uniform_perf(2, 0.001, 1e9);
        perf.set(1, 0, LinkPerf::new(0.5, 1e6));
        let t = binomial_tree(0, 2);
        let b = evaluate_tree(&t, &perf, Collective::Broadcast, 1 << 20);
        let r = evaluate_tree(&t, &perf, Collective::Reduce, 1 << 20);
        assert!(r > 10.0 * b, "bcast {b} reduce {r}");
    }

    #[test]
    fn dag_is_topological() {
        for op in [
            Collective::Broadcast,
            Collective::Scatter,
            Collective::Reduce,
            Collective::Gather,
        ] {
            let t = binomial_tree(3, 13);
            let dag = schedule(&t, op, 1000);
            assert_eq!(dag.transfers.len(), 12);
            for (i, tr) in dag.transfers.iter().enumerate() {
                for &d in &tr.deps {
                    assert!(d < i, "{op:?}: dep {d} not before {i}");
                }
            }
        }
    }

    #[test]
    fn total_bytes_accounting() {
        let t = binomial_tree(0, 4);
        // Broadcast: 3 edges × full message.
        assert_eq!(schedule(&t, Collective::Broadcast, 100).total_bytes(), 300);
        // Scatter: edges carry subtree sizes — total = sum over non-root
        // nodes of chunk × (depth-weighted)… for binomial n=4 root=0:
        // subtrees: node1 has {1,3} → 200, node2 → 100, node3 → 100.
        assert_eq!(schedule(&t, Collective::Scatter, 100).total_bytes(), 400);
    }

    #[test]
    fn better_tree_wins_under_model() {
        use crate::fnf::fnf_tree;
        // Heterogeneous cluster: the binomial tree is forced onto the
        // terrible 0→2 link, while FNF can reach 2 through 1 and take the
        // merely mediocre 0→3 link from the root.
        let mut perf = uniform_perf(4, 0.001, 1e6);
        perf.set(0, 1, LinkPerf::new(0.001, 1e9));
        perf.set(0, 3, LinkPerf::new(0.001, 1e7));
        perf.set(1, 2, LinkPerf::new(0.001, 1e9));
        perf.set(1, 3, LinkPerf::new(0.001, 1e9));
        let w = perf.weights(1 << 20);
        let fnf = fnf_tree(0, &w);
        let bin = binomial_tree(0, 4);
        let t_fnf = evaluate_tree(&fnf, &perf, Collective::Broadcast, 1 << 20);
        let t_bin = evaluate_tree(&bin, &perf, Collective::Broadcast, 1 << 20);
        assert!(t_fnf < t_bin, "FNF {t_fnf} should beat binomial {t_bin}");
    }

    #[test]
    #[should_panic(expected = "spanning")]
    fn non_spanning_tree_rejected() {
        let t = CommTree::singleton(0, 3);
        schedule(&t, Collective::Broadcast, 10);
    }
}
