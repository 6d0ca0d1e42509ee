//! Communication environment: how an application's collectives are timed.

use cloudconst_collectives::{binomial_tree, evaluate_tree, fnf_tree, Collective};
use cloudconst_netmodel::PerfMatrix;

/// Everything an application needs to time its communication.
///
/// * `actual` — the network as it really is (ground truth / trace sample):
///   all evaluation happens against it.
/// * `guide` — the estimate driving tree construction (the RPCA constant,
///   a heuristic average, a single measurement…). `None` means the
///   Baseline: network-oblivious binomial trees; `Some` builds FNF trees
///   over the guide's weight matrix.
pub struct CommEnv<'a> {
    /// The network performance collectives actually experience.
    pub actual: &'a PerfMatrix,
    /// The estimate guiding tree construction (`None` = Baseline).
    pub guide: Option<&'a PerfMatrix>,
}

impl<'a> CommEnv<'a> {
    /// Baseline environment: binomial trees, no network awareness.
    pub fn baseline(actual: &'a PerfMatrix) -> Self {
        CommEnv {
            actual,
            guide: None,
        }
    }

    /// Guided environment: FNF trees over `guide`'s weight matrix.
    pub fn guided(actual: &'a PerfMatrix, guide: &'a PerfMatrix) -> Self {
        CommEnv {
            actual,
            guide: Some(guide),
        }
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.actual.n()
    }

    /// Build the tree this environment would use for a collective of the
    /// given message size.
    pub fn tree(&self, root: usize, msg_bytes: u64) -> cloudconst_collectives::CommTree {
        match self.guide {
            Some(g) => fnf_tree(root, &g.weights(msg_bytes)),
            None => binomial_tree(root, self.n()),
        }
    }

    /// Time one collective against the actual network.
    pub fn collective_time(&self, op: Collective, root: usize, msg_bytes: u64) -> f64 {
        let tree = self.tree(root, msg_bytes);
        evaluate_tree(&tree, self.actual, op, msg_bytes)
    }

    /// The paper's all-to-all: a gather of `per_rank_bytes` to the root
    /// followed by a broadcast of the assembled `n × per_rank_bytes`
    /// buffer (paper §V-A, "also used in MPICH2").
    pub fn all_to_all_time(&self, root: usize, per_rank_bytes: u64) -> f64 {
        let gather = self.collective_time(Collective::Gather, root, per_rank_bytes);
        let total = per_rank_bytes * self.n() as u64;
        let bcast = self.collective_time(Collective::Broadcast, root, total);
        gather + bcast
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudconst_netmodel::LinkPerf;

    fn heterogeneous(n: usize) -> PerfMatrix {
        PerfMatrix::from_fn(n, |i, j| {
            let fast = (i + j) % 3 == 0;
            LinkPerf::new(if fast { 1e-4 } else { 8e-4 }, if fast { 2e8 } else { 2e7 })
        })
    }

    #[test]
    fn baseline_uses_binomial() {
        let perf = heterogeneous(8);
        let env = CommEnv::baseline(&perf);
        let t = env.tree(0, 1 << 20);
        let b = binomial_tree(0, 8);
        for v in 0..8 {
            assert_eq!(t.parent(v), b.parent(v));
        }
    }

    #[test]
    fn perfect_guide_beats_baseline() {
        let perf = heterogeneous(12);
        let base = CommEnv::baseline(&perf);
        let oracle = CommEnv::guided(&perf, &perf);
        let tb = base.collective_time(Collective::Broadcast, 0, 8 << 20);
        let to = oracle.collective_time(Collective::Broadcast, 0, 8 << 20);
        assert!(to <= tb, "oracle {to} worse than baseline {tb}");
    }

    #[test]
    fn all_to_all_is_gather_plus_broadcast() {
        let perf = heterogeneous(6);
        let env = CommEnv::baseline(&perf);
        let g = env.collective_time(Collective::Gather, 0, 1000);
        let b = env.collective_time(Collective::Broadcast, 0, 6000);
        let a2a = env.all_to_all_time(0, 1000);
        assert!((a2a - (g + b)).abs() < 1e-12);
    }

    #[test]
    fn misleading_guide_can_hurt() {
        // A guide that inverts fast and slow links should do no better
        // than baseline on average — sanity check that the guide actually
        // steers the tree.
        let perf = heterogeneous(10);
        let inverted = PerfMatrix::from_fn(10, |i, j| {
            let l = perf.link(i, j);
            LinkPerf::new(1e-3 - l.alpha, 2.2e8 - l.beta)
        });
        let good = CommEnv::guided(&perf, &perf);
        let bad = CommEnv::guided(&perf, &inverted);
        let tg = good.collective_time(Collective::Broadcast, 0, 8 << 20);
        let tbad = bad.collective_time(Collective::Broadcast, 0, 8 << 20);
        assert!(tg <= tbad);
    }
}
