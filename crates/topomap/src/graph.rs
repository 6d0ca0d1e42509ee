//! Weighted graphs for topology mapping.

use cloudconst_linalg::Mat;
use cloudconst_netmodel::PerfMatrix;

/// A weighted directed graph over `n` vertices, stored densely.
///
/// Used both as the task graph (weights = bytes to transfer) and the
/// machine graph (weights = bandwidth in bytes/second). A zero weight means
/// "no edge".
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    w: Mat,
}

impl TaskGraph {
    /// Graph with no edges.
    pub fn empty(n: usize) -> Self {
        TaskGraph {
            w: Mat::zeros(n, n),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.w.rows()
    }

    /// Edge weight `u → v` (0 when absent).
    pub fn weight(&self, u: usize, v: usize) -> f64 {
        self.w[(u, v)]
    }

    /// Set edge weight in both directions (the paper's graphs are
    /// communication volumes / bandwidths, used symmetrically).
    pub fn set_sym(&mut self, u: usize, v: usize, w: f64) {
        assert_ne!(u, v, "no self edges");
        assert!(w >= 0.0);
        self.w[(u, v)] = w;
        self.w[(v, u)] = w;
    }

    /// Set a directed edge weight.
    pub fn set(&mut self, u: usize, v: usize, w: f64) {
        assert_ne!(u, v, "no self edges");
        assert!(w >= 0.0);
        self.w[(u, v)] = w;
    }

    /// Vertex weight: sum of all (out- and in-) edge weights touching `v`
    /// (the paper's "weight of a vertex").
    pub fn vertex_weight(&self, v: usize) -> f64 {
        let mut s = 0.0;
        for u in 0..self.n() {
            s += self.w[(v, u)] + self.w[(u, v)];
        }
        s
    }

    /// All directed edges with positive weight.
    pub fn edges(&self) -> Vec<(usize, usize, f64)> {
        let n = self.n();
        let mut out = Vec::new();
        for u in 0..n {
            for v in 0..n {
                let w = self.w[(u, v)];
                if w > 0.0 {
                    out.push((u, v, w));
                }
            }
        }
        out
    }

    /// Neighbors of `v` (positive weight in either direction).
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        (0..self.n())
            .filter(|&u| u != v && (self.w[(v, u)] > 0.0 || self.w[(u, v)] > 0.0))
            .collect()
    }
}

/// Build the machine graph from a performance estimate: edge weight is the
/// pair-wise bandwidth (bytes/second), larger = better. Infinite entries
/// (self-links) are excluded by construction.
pub fn machine_graph_from_perf(perf: &PerfMatrix) -> TaskGraph {
    let n = perf.n();
    let mut g = TaskGraph::empty(n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                g.set(i, j, perf.link(i, j).beta);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudconst_netmodel::LinkPerf;

    #[test]
    fn vertex_weight_sums_both_directions() {
        let mut g = TaskGraph::empty(3);
        g.set(0, 1, 5.0);
        g.set(2, 0, 3.0);
        assert_eq!(g.vertex_weight(0), 8.0);
        assert_eq!(g.vertex_weight(1), 5.0);
        assert_eq!(g.vertex_weight(2), 3.0);
    }

    #[test]
    fn sym_edge_roundtrip() {
        let mut g = TaskGraph::empty(4);
        g.set_sym(1, 2, 7.0);
        assert_eq!(g.weight(1, 2), 7.0);
        assert_eq!(g.weight(2, 1), 7.0);
        assert_eq!(g.neighbors(1), vec![2]);
    }

    #[test]
    fn edges_enumeration() {
        let mut g = TaskGraph::empty(3);
        g.set(0, 1, 1.0);
        g.set_sym(1, 2, 2.0);
        let e = g.edges();
        assert_eq!(e.len(), 3);
        assert!(e.contains(&(0, 1, 1.0)));
        assert!(e.contains(&(1, 2, 2.0)));
        assert!(e.contains(&(2, 1, 2.0)));
    }

    #[test]
    fn machine_graph_uses_bandwidth() {
        let mut perf = PerfMatrix::ideal(2);
        perf.set(0, 1, LinkPerf::new(0.001, 2e8));
        perf.set(1, 0, LinkPerf::new(0.001, 1e8));
        let g = machine_graph_from_perf(&perf);
        assert!((g.weight(0, 1) - 2e8).abs() < 1.0);
        assert!((g.weight(1, 0) - 1e8).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "no self edges")]
    fn self_edge_panics() {
        TaskGraph::empty(2).set(1, 1, 1.0);
    }
}
