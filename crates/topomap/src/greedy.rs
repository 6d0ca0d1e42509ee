//! Mapping algorithms: the greedy heuristic and the ring baseline.

use crate::graph::TaskGraph;

/// A task → machine assignment (`machine_of[task]`), bijective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    machine_of: Vec<usize>,
}

impl Mapping {
    /// Build from a permutation vector; panics unless bijective.
    pub fn new(machine_of: Vec<usize>) -> Self {
        let n = machine_of.len();
        let mut seen = vec![false; n];
        for &m in &machine_of {
            assert!(m < n, "machine index {m} out of range");
            assert!(!seen[m], "machine {m} assigned twice");
            seen[m] = true;
        }
        Mapping { machine_of }
    }

    /// Number of tasks/machines.
    pub fn n(&self) -> usize {
        self.machine_of.len()
    }

    /// Machine hosting `task`.
    pub fn machine_of(&self, task: usize) -> usize {
        self.machine_of[task]
    }

    /// The underlying permutation.
    pub fn as_slice(&self) -> &[usize] {
        &self.machine_of
    }
}

/// The paper's Baseline: map task `k` to machine `k` ("one by one like a
/// ring").
pub fn ring_mapping(n: usize) -> Mapping {
    Mapping::new((0..n).collect())
}

/// The Greedy Heuristic Algorithm (Hoefler & Snir, paper §II-C).
///
/// `tasks` is the task graph `G` (weights = data volume, larger = more
/// communication); `machines` is the machine graph `H` (weights =
/// bandwidth, larger = better). Start by mapping the heaviest task onto the
/// best-connected machine, then repeatedly take the unmapped task with the
/// heaviest connection into the mapped region and place it on the unmapped
/// machine with the best connectivity to the machines already in use.
/// Disconnected components restart from the globally heaviest remainder.
pub fn greedy_mapping(tasks: &TaskGraph, machines: &TaskGraph) -> Mapping {
    let n = tasks.n();
    assert_eq!(
        n,
        machines.n(),
        "task and machine graphs must match in size"
    );
    assert!(n > 0);

    let mut machine_of = vec![usize::MAX; n];
    let mut task_mapped = vec![false; n];
    let mut machine_used = vec![false; n];

    // Connection strength of an unmapped vertex into the mapped region;
    // falls back to total vertex weight when nothing is mapped yet or the
    // vertex has no mapped neighbor.
    let frontier_score = |g: &TaskGraph, v: usize, mapped: &[bool]| -> (f64, f64) {
        let mut into_region = 0.0;
        for (u, &is_mapped) in mapped.iter().enumerate() {
            if is_mapped {
                into_region += g.weight(v, u) + g.weight(u, v);
            }
        }
        (into_region, g.vertex_weight(v))
    };

    for _ in 0..n {
        // Pick the next task: heaviest connection into the mapped region,
        // breaking ties (and the disconnected case) by total weight, then
        // by index for determinism.
        let task = (0..n)
            .filter(|&t| !task_mapped[t])
            .max_by(|&a, &b| {
                let sa = frontier_score(tasks, a, &task_mapped);
                let sb = frontier_score(tasks, b, &task_mapped);
                sa.partial_cmp(&sb).unwrap().then(b.cmp(&a))
            })
            .expect("an unmapped task remains");
        // Pick the machine the same way on the machine graph.
        let machine = (0..n)
            .filter(|&m| !machine_used[m])
            .max_by(|&a, &b| {
                let sa = frontier_score(machines, a, &machine_used);
                let sb = frontier_score(machines, b, &machine_used);
                sa.partial_cmp(&sb).unwrap().then(b.cmp(&a))
            })
            .expect("an unused machine remains");

        machine_of[task] = machine;
        task_mapped[task] = true;
        machine_used[machine] = true;
    }

    Mapping::new(machine_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::ring_task_graph;

    #[test]
    fn ring_mapping_is_identity() {
        let m = ring_mapping(5);
        for t in 0..5 {
            assert_eq!(m.machine_of(t), t);
        }
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn non_bijective_rejected() {
        Mapping::new(vec![0, 0, 1]);
    }

    #[test]
    fn greedy_is_bijective() {
        let tasks = ring_task_graph(8, 100.0);
        let machines = ring_task_graph(8, 1e9);
        let m = greedy_mapping(&tasks, &machines);
        let mut seen = [false; 8];
        for t in 0..8 {
            assert!(!seen[m.machine_of(t)]);
            seen[m.machine_of(t)] = true;
        }
    }

    #[test]
    fn heaviest_task_gets_best_machine() {
        // Task 2 dominates communication; machine 3 dominates bandwidth.
        let mut tasks = TaskGraph::empty(4);
        tasks.set_sym(2, 0, 100.0);
        tasks.set_sym(2, 1, 100.0);
        tasks.set_sym(0, 1, 1.0);
        tasks.set_sym(1, 3, 1.0);
        let mut machines = TaskGraph::empty(4);
        for m in 0..4 {
            for k in 0..4 {
                if m != k {
                    machines.set(m, k, 10.0);
                }
            }
        }
        machines.set_sym(3, 0, 1000.0);
        machines.set_sym(3, 1, 1000.0);
        let m = greedy_mapping(&tasks, &machines);
        assert_eq!(m.machine_of(2), 3);
    }

    #[test]
    fn communicating_pair_lands_on_fast_link() {
        // Only tasks 0 and 1 communicate; only machines 2 and 3 share a
        // fast link (others much slower).
        let mut tasks = TaskGraph::empty(4);
        tasks.set_sym(0, 1, 50.0);
        let mut machines = TaskGraph::empty(4);
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    machines.set(a, b, 1.0);
                }
            }
        }
        machines.set_sym(2, 3, 500.0);
        let m = greedy_mapping(&tasks, &machines);
        let pair = [m.machine_of(0), m.machine_of(1)];
        assert!(pair.contains(&2) && pair.contains(&3), "pair {pair:?}");
    }

    #[test]
    fn deterministic() {
        let tasks = ring_task_graph(12, 7.0);
        let machines = ring_task_graph(12, 3.0);
        assert_eq!(
            greedy_mapping(&tasks, &machines),
            greedy_mapping(&tasks, &machines)
        );
    }

    #[test]
    fn single_task() {
        let tasks = TaskGraph::empty(1);
        let machines = TaskGraph::empty(1);
        let m = greedy_mapping(&tasks, &machines);
        assert_eq!(m.machine_of(0), 0);
    }
}
