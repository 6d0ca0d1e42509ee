//! Task-graph generators.

use crate::graph::TaskGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's workload: a random task graph with symmetric edge weights
/// drawn uniformly from `[min_bytes, max_bytes]` (paper §V-A uses
/// 5 MB–10 MB). Each vertex receives `degree` random distinct partners (the
/// union of proposals, so actual degree may exceed `degree`); the graph is
/// forced connected by a ring backbone.
pub fn random_task_graph(
    n: usize,
    degree: usize,
    min_bytes: f64,
    max_bytes: f64,
    seed: u64,
) -> TaskGraph {
    assert!(n >= 2 && min_bytes <= max_bytes && min_bytes >= 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = TaskGraph::empty(n);
    let weight = |rng: &mut StdRng| rng.random_range(min_bytes..=max_bytes);
    // Connected backbone.
    for v in 0..n {
        let w = weight(&mut rng);
        g.set_sym(v, (v + 1) % n, w);
    }
    // Random chords.
    for v in 0..n {
        for _ in 0..degree {
            let u = rng.random_range(0..n);
            if u != v && g.weight(v, u) == 0.0 {
                let w = weight(&mut rng);
                g.set_sym(v, u, w);
            }
        }
    }
    g
}

/// Ring task graph: each task talks to its two neighbors with a fixed
/// volume — the pattern a ring mapping is optimal for.
pub fn ring_task_graph(n: usize, bytes: f64) -> TaskGraph {
    assert!(n >= 2);
    let mut g = TaskGraph::empty(n);
    for v in 0..n {
        g.set_sym(v, (v + 1) % n, bytes);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_graph_is_deterministic_and_in_range() {
        let a = random_task_graph(16, 2, 5e6, 10e6, 7);
        let b = random_task_graph(16, 2, 5e6, 10e6, 7);
        assert_eq!(a, b);
        for (_, _, w) in a.edges() {
            assert!((5e6..=10e6).contains(&w), "weight {w}");
        }
    }

    #[test]
    fn random_graph_connected_via_ring() {
        let g = random_task_graph(10, 0, 1.0, 1.0, 3);
        for v in 0..10 {
            assert!(g.weight(v, (v + 1) % 10) > 0.0);
        }
    }

    #[test]
    fn ring_graph_degree_two() {
        let g = ring_task_graph(6, 100.0);
        for v in 0..6 {
            assert_eq!(g.neighbors(v).len(), 2);
        }
    }
}
