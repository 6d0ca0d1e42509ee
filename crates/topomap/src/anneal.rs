//! Simulated-annealing refinement of a topology mapping.
//!
//! The greedy heuristic (paper §II-C) is fast but myopic; a short
//! annealing pass over pairwise swaps recovers most of the gap to optimal
//! on heterogeneous networks. Used as an ablation point: how much of the
//! paper's improvement comes from *having* link estimates versus how
//! cleverly they are exploited.

use crate::cost::evaluate_mapping;
use crate::graph::TaskGraph;
use crate::greedy::Mapping;
use cloudconst_netmodel::PerfMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Swap proposals evaluated per run.
const ITERATIONS: usize = 2000;

/// Initial temperature as a fraction of the starting cost.
const INITIAL_TEMP_FRAC: f64 = 0.2;

/// Geometric cooling factor per proposal.
const COOLING: f64 = 0.998;

/// Seed of the proposal and acceptance draws.
const SEED: u64 = 0xA11EA1;

/// Refine `start` by annealed pairwise swaps, scoring candidate mappings
/// on `guide` (the believed network — e.g. the RPCA constant). Returns the
/// best mapping found; never worse than `start` under `guide`.
pub fn anneal_mapping(tasks: &TaskGraph, start: &Mapping, guide: &PerfMatrix) -> Mapping {
    let n = tasks.n();
    assert_eq!(n, start.n());
    if n < 2 {
        return start.clone();
    }
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut current: Vec<usize> = start.as_slice().to_vec();
    let mut current_cost = evaluate_mapping(tasks, start, guide);
    let mut best = current.clone();
    let mut best_cost = current_cost;
    let mut temp = (current_cost * INITIAL_TEMP_FRAC).max(f64::MIN_POSITIVE);

    for _ in 0..ITERATIONS {
        // Propose swapping the machines of two tasks.
        let a = rng.random_range(0..n);
        let mut b = rng.random_range(0..n);
        while b == a {
            b = rng.random_range(0..n);
        }
        current.swap(a, b);
        let cand = Mapping::new(current.clone());
        let cand_cost = evaluate_mapping(tasks, &cand, guide);
        let accept = cand_cost <= current_cost
            || rng.random::<f64>() < ((current_cost - cand_cost) / temp).exp();
        if accept {
            current_cost = cand_cost;
            if cand_cost < best_cost {
                best_cost = cand_cost;
                best = current.clone();
            }
        } else {
            current.swap(a, b); // revert
        }
        temp = (temp * COOLING).max(f64::MIN_POSITIVE);
    }
    Mapping::new(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_task_graph;
    use crate::graph::machine_graph_from_perf;
    use crate::greedy::{greedy_mapping, ring_mapping};
    use cloudconst_netmodel::LinkPerf;

    fn heterogeneous(n: usize) -> PerfMatrix {
        PerfMatrix::from_fn(n, |i, j| {
            let fast = (i / 2) == (j / 2);
            LinkPerf::new(if fast { 1e-4 } else { 5e-4 }, if fast { 2e8 } else { 2e7 })
        })
    }

    #[test]
    fn never_worse_than_start_under_guide() {
        let n = 10;
        let tasks = random_task_graph(n, 2, 1e6, 8e6, 5);
        let perf = heterogeneous(n);
        let start = ring_mapping(n);
        let refined = anneal_mapping(&tasks, &start, &perf);
        let c0 = evaluate_mapping(&tasks, &start, &perf);
        let c1 = evaluate_mapping(&tasks, &refined, &perf);
        assert!(c1 <= c0 + 1e-12, "annealing made it worse: {c1} > {c0}");
    }

    #[test]
    fn improves_on_greedy_for_heterogeneous_network() {
        let n = 12;
        let tasks = random_task_graph(n, 2, 1e6, 8e6, 9);
        let perf = heterogeneous(n);
        let greedy = greedy_mapping(&tasks, &machine_graph_from_perf(&perf));
        let refined = anneal_mapping(&tasks, &greedy, &perf);
        let cg = evaluate_mapping(&tasks, &greedy, &perf);
        let cr = evaluate_mapping(&tasks, &refined, &perf);
        assert!(cr <= cg + 1e-12, "refined {cr} vs greedy {cg}");
    }

    #[test]
    fn result_is_a_valid_bijection() {
        let n = 8;
        let tasks = random_task_graph(n, 1, 1e5, 1e6, 2);
        let perf = heterogeneous(n);
        let refined = anneal_mapping(&tasks, &ring_mapping(n), &perf);
        let mut seen = vec![false; n];
        for t in 0..n {
            assert!(!seen[refined.machine_of(t)]);
            seen[refined.machine_of(t)] = true;
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let n = 9;
        let tasks = random_task_graph(n, 2, 1e5, 1e6, 4);
        let perf = heterogeneous(n);
        let a = anneal_mapping(&tasks, &ring_mapping(n), &perf);
        let b = anneal_mapping(&tasks, &ring_mapping(n), &perf);
        assert_eq!(a, b);
    }

    #[test]
    fn single_task_noop() {
        let tasks = TaskGraph::empty(1);
        let perf = PerfMatrix::uniform(1, LinkPerf::new(1e-4, 1e8));
        let m = anneal_mapping(&tasks, &ring_mapping(1), &perf);
        assert_eq!(m.machine_of(0), 0);
    }

    use crate::graph::TaskGraph;
}
