//! Scientific workflows — the paper's future work, implemented.
//!
//! The conclusion of the paper names "more complicated workloads such as
//! scientific workflows" as future work. This module provides it: layered
//! task DAGs in the shape of Montage/LIGO-style pipelines (fan-out,
//! shuffle, fan-in), a network-aware list scheduler in the HEFT family
//! whose communication estimates come from whatever guide the advisor
//! supplies (the RPCA constant, a heuristic mean, or nothing), and a
//! deterministic makespan evaluator against the *actual* network.

use cloudconst_netmodel::PerfMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One task of a workflow.
#[derive(Debug, Clone)]
pub struct WorkflowTask {
    /// Computational work in FLOPs.
    pub flops: f64,
    /// Data dependencies: (producer task id, bytes transferred).
    pub inputs: Vec<(usize, u64)>,
}

/// A workflow DAG; tasks are stored in a valid topological order (every
/// input id is smaller than the consumer's id).
#[derive(Debug, Clone)]
pub struct Workflow {
    tasks: Vec<WorkflowTask>,
}

impl Workflow {
    /// Build from topologically ordered tasks. Panics if an input refers
    /// forward.
    pub fn new(tasks: Vec<WorkflowTask>) -> Self {
        for (id, t) in tasks.iter().enumerate() {
            for &(p, _) in &t.inputs {
                assert!(p < id, "task {id} depends on later task {p}");
            }
        }
        Workflow { tasks }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the workflow has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Task accessor.
    pub fn task(&self, id: usize) -> &WorkflowTask {
        &self.tasks[id]
    }

    /// A layered Montage-like pipeline: `width` parallel ingest tasks, a
    /// middle shuffle layer where each task reads from `fan_in` tasks of
    /// the previous layer, repeated for `depth` layers, then a single
    /// final reduction task. Edge sizes are uniform in
    /// `[min_bytes, max_bytes]`; flops per task in `[1e8, 1e9] × scale`.
    pub fn layered(
        width: usize,
        depth: usize,
        fan_in: usize,
        min_bytes: u64,
        max_bytes: u64,
        flops_scale: f64,
        seed: u64,
    ) -> Self {
        assert!(width >= 1 && depth >= 1 && fan_in >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tasks: Vec<WorkflowTask> = Vec::new();
        let bytes = |rng: &mut StdRng| rng.random_range(min_bytes..=max_bytes);
        let flops = |rng: &mut StdRng| rng.random_range(1e8..1e9) * flops_scale;

        // Layer 0: sources.
        for _ in 0..width {
            tasks.push(WorkflowTask {
                flops: flops(&mut rng),
                inputs: Vec::new(),
            });
        }
        let mut prev_layer: Vec<usize> = (0..width).collect();
        for _ in 1..depth {
            let mut layer = Vec::with_capacity(width);
            for _w in 0..width {
                let mut inputs = Vec::new();
                // Random distinct producers from the previous layer — a
                // shuffle stage. (Deterministic neighbor patterns would
                // accidentally align with round-robin placement and make
                // the oblivious baseline structurally optimal.)
                let mut picked = std::collections::HashSet::new();
                while picked.len() < fan_in.min(width) {
                    let p = prev_layer[rng.random_range(0..width)];
                    if picked.insert(p) {
                        inputs.push((p, bytes(&mut rng)));
                    }
                }
                let id = tasks.len();
                tasks.push(WorkflowTask {
                    flops: flops(&mut rng),
                    inputs,
                });
                layer.push(id);
            }
            prev_layer = layer;
        }
        // Final reduction.
        let inputs = prev_layer.iter().map(|&p| (p, bytes(&mut rng))).collect();
        tasks.push(WorkflowTask {
            flops: flops(&mut rng),
            inputs,
        });
        Workflow::new(tasks)
    }
}

/// A task → machine assignment for a workflow (not necessarily a
/// bijection: machines host many tasks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    machine_of: Vec<usize>,
}

impl Schedule {
    /// Machine executing `task`.
    pub fn machine_of(&self, task: usize) -> usize {
        self.machine_of[task]
    }
}

/// Round-robin placement — the network-oblivious baseline.
pub fn round_robin_schedule(wf: &Workflow, machines: usize) -> Schedule {
    assert!(machines >= 1);
    Schedule {
        machine_of: (0..wf.len()).map(|t| t % machines).collect(),
    }
}

/// Network-aware list scheduling (HEFT-style earliest-finish-time).
///
/// Walks tasks in topological order and places each on the machine with
/// the earliest estimated finish, where estimated input-transfer times
/// come from `guide` — the constant component when RPCA drives it. With a
/// good guide, chatty task pairs land on fast links or the same machine.
pub fn eft_schedule(wf: &Workflow, guide: &PerfMatrix, flops_per_sec: f64) -> Schedule {
    let m = guide.n();
    assert!(m >= 1);
    let mut machine_of = vec![0usize; wf.len()];
    let mut machine_free = vec![0.0f64; m];
    let mut task_finish = vec![0.0f64; wf.len()];

    for id in 0..wf.len() {
        let task = wf.task(id);
        let compute = task.flops / flops_per_sec;
        let (mut best_mach, mut best_finish) = (0usize, f64::INFINITY);
        for (cand, &free) in machine_free.iter().enumerate() {
            // Data-ready time on this candidate machine.
            let mut ready: f64 = 0.0;
            for &(p, bytes) in &task.inputs {
                let from = machine_of[p];
                let arrive = task_finish[p] + guide.transfer_time(from, cand, bytes);
                ready = ready.max(arrive);
            }
            let start = ready.max(free);
            let finish = start + compute;
            if finish < best_finish {
                best_finish = finish;
                best_mach = cand;
            }
        }
        machine_of[id] = best_mach;
        machine_free[best_mach] = best_finish;
        task_finish[id] = best_finish;
    }
    Schedule { machine_of }
}

impl Workflow {
    /// Layer index of every task: `1 + max(layer of inputs)`, sources = 0.
    pub fn layers(&self) -> Vec<usize> {
        let mut layer = vec![0usize; self.len()];
        for id in 0..self.len() {
            for &(p, _) in &self.tasks[id].inputs {
                layer[id] = layer[id].max(layer[p] + 1);
            }
        }
        layer
    }
}

/// Balanced network-aware scheduling for layered workflows.
///
/// Plain EFT ([`eft_schedule`]) is myopic: with communication-dominated
/// DAGs it happily serializes whole chains onto one machine. This variant
/// preserves bulk-synchronous parallelism — within each layer every
/// machine takes at most `⌈layer size / machines⌉` tasks — and spends the
/// guide's information on *which* machine gets *which* task: tasks are
/// placed in descending input-volume order on the machine with the
/// earliest estimated finish among those still under the layer cap.
pub fn balanced_eft_schedule(wf: &Workflow, guide: &PerfMatrix, flops_per_sec: f64) -> Schedule {
    let m = guide.n();
    assert!(m >= 1);
    let layers = wf.layers();
    let n_layers = layers.iter().copied().max().map_or(0, |l| l + 1);
    let mut machine_of = vec![0usize; wf.len()];
    let mut machine_free = vec![0.0f64; m];
    let mut task_finish = vec![0.0f64; wf.len()];

    for layer in 0..n_layers {
        let mut ids: Vec<usize> = (0..wf.len()).filter(|&t| layers[t] == layer).collect();
        // Heaviest communicators first: they get first pick of machines.
        ids.sort_by(|&a, &b| {
            let va: u64 = wf.task(a).inputs.iter().map(|&(_, by)| by).sum();
            let vb: u64 = wf.task(b).inputs.iter().map(|&(_, by)| by).sum();
            vb.cmp(&va).then(a.cmp(&b))
        });
        let cap = ids.len().div_ceil(m);
        let mut used = vec![0usize; m];
        for id in ids {
            let task = wf.task(id);
            let compute = task.flops / flops_per_sec;
            let (mut best_mach, mut best_finish) = (usize::MAX, f64::INFINITY);
            for cand in 0..m {
                if used[cand] >= cap {
                    continue;
                }
                let mut ready: f64 = 0.0;
                for &(p, bytes) in &task.inputs {
                    let arrive = task_finish[p] + guide.transfer_time(machine_of[p], cand, bytes);
                    ready = ready.max(arrive);
                }
                let finish = ready.max(machine_free[cand]) + compute;
                if finish < best_finish {
                    best_finish = finish;
                    best_mach = cand;
                }
            }
            debug_assert!(best_mach != usize::MAX);
            machine_of[id] = best_mach;
            used[best_mach] += 1;
            machine_free[best_mach] = best_finish;
            task_finish[id] = best_finish;
        }
    }
    Schedule { machine_of }
}

/// Outcome of executing a workflow schedule against the actual network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkflowReport {
    /// End-to-end makespan (seconds).
    pub makespan: f64,
    /// Total bytes moved across the network (same-machine edges are free).
    pub network_bytes: u64,
    /// Sum of all cross-machine transfer times (overlap not deducted).
    pub comm_time_total: f64,
}

/// Execute `schedule` on the `actual` network under the α-β model.
///
/// Work-conserving semantics: a task becomes *data-ready* when all its
/// inputs have arrived (producer finish + transfer time; same-machine
/// transfers are free); each machine runs its data-ready tasks in
/// ready-time order (FIFO), never idling while one of its tasks has data.
/// Transfers themselves do not contend (the guide's α-β view) — run the
/// edges on `cloudconst-simnet` for a contended execution.
pub fn execute(
    wf: &Workflow,
    schedule: &Schedule,
    actual: &PerfMatrix,
    flops_per_sec: f64,
) -> WorkflowReport {
    let m = actual.n();
    let n = wf.len();
    let mut machine_free = vec![0.0f64; m];
    let mut task_finish = vec![0.0f64; n];
    let mut makespan = 0.0f64;
    let mut network_bytes = 0u64;
    let mut comm_time_total = 0.0f64;

    // Dependency counts and reverse edges.
    let mut pending_inputs: Vec<usize> = (0..n).map(|id| wf.task(id).inputs.len()).collect();
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for id in 0..n {
        for &(p, _) in &wf.task(id).inputs {
            consumers[p].push(id);
        }
    }

    // Min-heap of (ready_time, id) for data-ready tasks.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    #[derive(PartialEq)]
    struct Ready(f64, usize);
    impl Eq for Ready {}
    impl PartialOrd for Ready {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Ready {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }
    let mut heap: BinaryHeap<Reverse<Ready>> = BinaryHeap::new();

    let ready_time = |id: usize,
                      task_finish: &[f64],
                      network_bytes: &mut u64,
                      comm_time_total: &mut f64|
     -> f64 {
        let mach = schedule.machine_of(id);
        let mut ready: f64 = 0.0;
        for &(p, bytes) in &wf.task(id).inputs {
            let from = schedule.machine_of(p);
            let tt = actual.transfer_time(from, mach, bytes);
            if from != mach {
                *network_bytes += bytes;
                *comm_time_total += tt;
            }
            ready = ready.max(task_finish[p] + tt);
        }
        ready
    };

    for (id, &pending) in pending_inputs.iter().enumerate() {
        if pending == 0 {
            heap.push(Reverse(Ready(0.0, id)));
        }
    }
    while let Some(Reverse(Ready(ready, id))) = heap.pop() {
        let mach = schedule.machine_of(id);
        let start = ready.max(machine_free[mach]);
        let finish = start + wf.task(id).flops / flops_per_sec;
        machine_free[mach] = finish;
        task_finish[id] = finish;
        makespan = makespan.max(finish);
        for &c in &consumers[id] {
            pending_inputs[c] -= 1;
            if pending_inputs[c] == 0 {
                let r = ready_time(c, &task_finish, &mut network_bytes, &mut comm_time_total);
                heap.push(Reverse(Ready(r, c)));
            }
        }
    }
    WorkflowReport {
        makespan,
        network_bytes,
        comm_time_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudconst_netmodel::LinkPerf;

    fn perf(n: usize) -> PerfMatrix {
        PerfMatrix::from_fn(n, |i, j| {
            let fast = (i / 2) == (j / 2); // pairs of machines are "same rack"
            LinkPerf::new(if fast { 1e-4 } else { 6e-4 }, if fast { 2e8 } else { 3e7 })
        })
    }

    #[test]
    fn layered_workflow_shape() {
        let wf = Workflow::layered(4, 3, 2, 1000, 2000, 1.0, 7);
        assert_eq!(wf.len(), 4 * 3 + 1);
        // Sources have no inputs; the sink reads from the whole last layer.
        for t in 0..4 {
            assert!(wf.task(t).inputs.is_empty());
        }
        assert_eq!(wf.task(wf.len() - 1).inputs.len(), 4);
    }

    #[test]
    #[should_panic(expected = "depends on later task")]
    fn forward_dependency_rejected() {
        Workflow::new(vec![WorkflowTask {
            flops: 1.0,
            inputs: vec![(0, 10)],
        }]);
    }

    #[test]
    fn round_robin_covers_machines() {
        let wf = Workflow::layered(3, 2, 1, 10, 10, 1.0, 1);
        let s = round_robin_schedule(&wf, 4);
        for t in 0..wf.len() {
            assert!(s.machine_of(t) < 4);
        }
    }

    #[test]
    fn execute_respects_dependencies() {
        // Two tasks in sequence on different machines: makespan covers
        // both computes plus the transfer.
        let wf = Workflow::new(vec![
            WorkflowTask {
                flops: 1e9,
                inputs: vec![],
            },
            WorkflowTask {
                flops: 1e9,
                inputs: vec![(0, 1_000_000)],
            },
        ]);
        let p = perf(4);
        let s = Schedule {
            machine_of: vec![0, 2], // cross-"rack"
        };
        let r = execute(&wf, &s, &p, 1e9);
        let transfer = p.transfer_time(0, 2, 1_000_000);
        assert!((r.makespan - (1.0 + transfer + 1.0)).abs() < 1e-9);
        assert_eq!(r.network_bytes, 1_000_000);
    }

    #[test]
    fn same_machine_transfers_are_free() {
        let wf = Workflow::new(vec![
            WorkflowTask {
                flops: 1e8,
                inputs: vec![],
            },
            WorkflowTask {
                flops: 1e8,
                inputs: vec![(0, 1 << 20)],
            },
        ]);
        let p = perf(2);
        let s = Schedule {
            machine_of: vec![1, 1],
        };
        let r = execute(&wf, &s, &p, 1e9);
        assert_eq!(r.network_bytes, 0);
        assert!((r.makespan - 0.2).abs() < 1e-9);
    }

    #[test]
    fn eft_beats_round_robin_with_perfect_guide() {
        let wf = Workflow::layered(6, 4, 2, 4 << 20, 8 << 20, 0.2, 11);
        let p = perf(6);
        let eft = eft_schedule(&wf, &p, 1e9);
        let rr = round_robin_schedule(&wf, 6);
        let t_eft = execute(&wf, &eft, &p, 1e9).makespan;
        let t_rr = execute(&wf, &rr, &p, 1e9).makespan;
        assert!(t_eft < t_rr, "EFT {t_eft} should beat round-robin {t_rr}");
    }

    #[test]
    fn eft_serializes_machine_usage() {
        // One machine only: makespan = Σ computes regardless of edges.
        let wf = Workflow::layered(3, 2, 1, 10, 10, 1.0, 3);
        let p = PerfMatrix::uniform(1, LinkPerf::new(1e-4, 1e8));
        let s = eft_schedule(&wf, &p, 1e9);
        let r = execute(&wf, &s, &p, 1e9);
        let total: f64 = (0..wf.len()).map(|t| wf.task(t).flops).sum::<f64>() / 1e9;
        assert!((r.makespan - total).abs() < 1e-9);
    }

    #[test]
    fn deterministic_generation() {
        let a = Workflow::layered(4, 3, 2, 100, 200, 1.0, 9);
        let b = Workflow::layered(4, 3, 2, 100, 200, 1.0, 9);
        for t in 0..a.len() {
            assert_eq!(a.task(t).flops, b.task(t).flops);
            assert_eq!(a.task(t).inputs, b.task(t).inputs);
        }
    }
}
