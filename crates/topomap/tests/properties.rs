//! Property-based tests of topology mapping invariants.

use cloudconst_netmodel::{LinkPerf, PerfMatrix};
use cloudconst_topomap::{
    evaluate_mapping, greedy_mapping, machine_graph_from_perf, random_task_graph, ring_mapping,
    Mapping, TaskGraph,
};
use proptest::prelude::*;

fn task_graph_strategy(max_n: usize) -> impl Strategy<Value = TaskGraph> {
    (2..=max_n, 0usize..3, 1u64..1000)
        .prop_map(|(n, degree, seed)| random_task_graph(n, degree, 1e5, 1e7, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn greedy_mapping_is_a_bijection(tasks in task_graph_strategy(14)) {
        let n = tasks.n();
        let machines = random_task_graph(n, 2, 1e6, 1e9, 99);
        let m = greedy_mapping(&tasks, &machines);
        let mut seen = vec![false; n];
        for t in 0..n {
            let h = m.machine_of(t);
            prop_assert!(h < n);
            prop_assert!(!seen[h], "machine {h} double-assigned");
            seen[h] = true;
        }
    }

    #[test]
    fn greedy_deterministic(tasks in task_graph_strategy(12)) {
        let machines = random_task_graph(tasks.n(), 1, 1e6, 1e9, 5);
        prop_assert_eq!(greedy_mapping(&tasks, &machines), greedy_mapping(&tasks, &machines));
    }

    #[test]
    fn mapping_cost_nonnegative_and_zero_for_empty(tasks in task_graph_strategy(10)) {
        let n = tasks.n();
        let perf = PerfMatrix::uniform(n, LinkPerf::new(1e-4, 1e8));
        let cost = evaluate_mapping(&tasks, &ring_mapping(n), &perf);
        prop_assert!(cost >= 0.0);
        let empty = TaskGraph::empty(n);
        prop_assert_eq!(evaluate_mapping(&empty, &ring_mapping(n), &perf), 0.0);
    }

    #[test]
    fn uniform_network_makes_all_bijections_equal(tasks in task_graph_strategy(8)) {
        let n = tasks.n();
        let perf = PerfMatrix::uniform(n, LinkPerf::new(2e-4, 5e7));
        let a = evaluate_mapping(&tasks, &ring_mapping(n), &perf);
        // An arbitrary rotation permutation.
        let rot = Mapping::new((0..n).map(|k| (k + 1) % n).collect());
        let b = evaluate_mapping(&tasks, &rot, &perf);
        prop_assert!((a - b).abs() <= 1e-9 * a.max(1e-12));
    }

    #[test]
    fn greedy_no_worse_than_ring_with_perfect_knowledge(n in 3usize..10, seed in 0u64..50) {
        // With the machine graph built from the true network, greedy should
        // not lose badly to the ring baseline (it may tie on easy cases).
        let tasks = random_task_graph(n, 2, 1e6, 1e7, seed);
        let perf_vec: Vec<(f64, f64)> = (0..n * n)
            .map(|k| (1e-4, if k % 3 == 0 { 1e9 } else { 2e7 }))
            .collect();
        let perf = PerfMatrix::from_fn(n, |i, j| {
            let (a, b) = perf_vec[i * n + j];
            LinkPerf::new(a, b)
        });
        let machines = machine_graph_from_perf(&perf);
        let g = evaluate_mapping(&tasks, &greedy_mapping(&tasks, &machines), &perf);
        let r = evaluate_mapping(&tasks, &ring_mapping(n), &perf);
        prop_assert!(g <= r * 1.5 + 1e-12, "greedy {g} far worse than ring {r}");
    }
}
