//! Executing transfer DAGs on the simulator.

use crate::cluster::ClusterView;
use crate::engine::FlowId;
use cloudconst_collectives::TransferDag;

/// Execute a collective's [`TransferDag`] on the simulator, starting at
/// `start` (clamped to the current simulated time). Each transfer becomes
/// a flow that launches the moment all its dependencies' flows have
/// *arrived*; the returned value is the elapsed time from `start` to the
/// last arrival.
///
/// Unlike the α-β evaluation in `cloudconst-collectives`, flows here share
/// links with each other and with background traffic under max-min
/// fairness, so the same tree can take very different times depending on
/// congestion — which is exactly what the ns-2 experiments measure.
pub fn run_dag(view: &mut ClusterView<'_>, dag: &TransferDag, start: f64) -> f64 {
    assert_eq!(dag.n, cloudconst_netmodel::NetworkProbe::n(view));
    let start = start.max(view.simulator().time());
    view.simulator_mut().run_until(start);

    let m = dag.transfers.len();
    let mut flow_of: Vec<Option<FlowId>> = vec![None; m];
    let mut finish: Vec<Option<f64>> = vec![None; m];
    let mut launched = 0usize;
    let mut last_arrival = start;

    while launched < m {
        // Launch every transfer whose dependencies have all arrived.
        let mut progress = false;
        for (i, t) in dag.transfers.iter().enumerate() {
            if flow_of[i].is_some() {
                continue;
            }
            let ready = t.deps.iter().all(|&d| finish[d].is_some());
            if !ready {
                continue;
            }
            let at = t
                .deps
                .iter()
                .map(|&d| finish[d].unwrap())
                .fold(start, f64::max)
                .max(view.simulator().time());
            let src = view.host_of(t.src);
            let dst = view.host_of(t.dst);
            let id = view.simulator_mut().submit(src, dst, t.bytes, at);
            flow_of[i] = Some(id);
            launched += 1;
            progress = true;
        }
        debug_assert!(progress, "DAG contains an unlaunchable transfer");

        // Wait for the earliest outstanding flow to finish, then record
        // all arrivals we now know.
        let outstanding: Vec<(usize, FlowId)> = (0..m)
            .filter_map(|i| {
                flow_of[i].and_then(|id| {
                    if finish[i].is_none() {
                        Some((i, id))
                    } else {
                        None
                    }
                })
            })
            .collect();
        if outstanding.is_empty() {
            break;
        }
        // Waiting for all currently launched flows is fine: a flow's
        // completion cannot depend on an unlaunched one.
        let ids: Vec<FlowId> = outstanding.iter().map(|&(_, id)| id).collect();
        let times = view.simulator_mut().wait_for(&ids);
        for ((i, _), t) in outstanding.into_iter().zip(times) {
            finish[i] = Some(t);
            last_arrival = last_arrival.max(t);
        }
    }

    // Drain any stragglers (all launched by now).
    let ids: Vec<FlowId> = (0..m)
        .filter(|&i| finish[i].is_none())
        .map(|i| flow_of[i].unwrap())
        .collect();
    if !ids.is_empty() {
        for t in view.simulator_mut().wait_for(&ids) {
            last_arrival = last_arrival.max(t);
        }
    }
    last_arrival - start
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::topology::{LinkSpec, Topology};
    use cloudconst_collectives::{binomial_tree, schedule, Collective};

    fn topo() -> Topology {
        Topology::tree(
            2,
            4,
            LinkSpec {
                capacity: 1e6,
                latency: 1e-4,
            },
            LinkSpec {
                capacity: 4e6,
                latency: 2e-4,
            },
        )
    }

    #[test]
    fn broadcast_runs_and_is_positive() {
        let mut sim = Simulator::new(topo(), 1);
        let mut view = ClusterView::new(&mut sim, vec![0, 1, 4, 5]);
        let tree = binomial_tree(0, 4);
        let dag = schedule(&tree, Collective::Broadcast, 100_000);
        let t = run_dag(&mut view, &dag, 0.0);
        assert!(t > 0.0);
        // Lower bound: root pushes 2 × 100 kB through its 1 MB/s uplink.
        assert!(t >= 0.2, "t = {t}");
    }

    #[test]
    fn background_slows_collective() {
        let tree = binomial_tree(0, 4);
        let dag = schedule(&tree, Collective::Broadcast, 200_000);

        let mut quiet = Simulator::new(topo(), 5);
        let mut qv = ClusterView::new(&mut quiet, vec![0, 1, 4, 5]);
        let t_quiet = run_dag(&mut qv, &dag, 0.0);

        let mut busy = Simulator::new(topo(), 5);
        busy.add_background(0, 2, 1_000_000, 0.2, 0.0);
        busy.add_background(4, 6, 1_000_000, 0.2, 0.0);
        let mut bv = ClusterView::new(&mut busy, vec![0, 1, 4, 5]);
        let t_busy = run_dag(&mut bv, &dag, 0.5);
        assert!(t_busy > t_quiet, "busy {t_busy} <= quiet {t_quiet}");
    }

    #[test]
    fn scatter_cheaper_than_broadcast_same_tree() {
        let mut sim = Simulator::new(topo(), 2);
        let mut view = ClusterView::new(&mut sim, vec![0, 1, 2, 3]);
        let tree = binomial_tree(0, 4);
        let b = run_dag(
            &mut view,
            &schedule(&tree, Collective::Broadcast, 400_000),
            0.0,
        );
        let now = view.simulator().time();
        let s = run_dag(
            &mut view,
            &schedule(&tree, Collective::Scatter, 100_000),
            now,
        );
        // Scatter moves less total data on the root's deepest edges.
        assert!(s < b, "scatter {s} >= broadcast {b}");
    }

    #[test]
    fn gather_completes() {
        let mut sim = Simulator::new(topo(), 3);
        let mut view = ClusterView::new(&mut sim, vec![0, 2, 5, 7]);
        let tree = binomial_tree(1, 4);
        let dag = schedule(&tree, Collective::Gather, 50_000);
        let t = run_dag(&mut view, &dag, 0.0);
        assert!(t > 0.0 && t.is_finite());
    }
}
