//! A virtual-cluster view of the simulator.

use crate::engine::{FlowId, Simulator};
use cloudconst_netmodel::NetworkProbe;

/// A subset of simulator hosts treated as an `N`-instance virtual cluster.
///
/// Implements [`NetworkProbe`], so the calibration protocol, the advisor
/// and every guided optimization run on the simulator exactly as they do
/// on the synthetic cloud — but now measurements really contend with
/// background traffic on shared links.
#[derive(Debug)]
pub struct ClusterView<'a> {
    sim: &'a mut Simulator,
    hosts: Vec<usize>,
}

impl<'a> ClusterView<'a> {
    /// View `hosts` (simulator host ids, distinct) as cluster machines
    /// `0..hosts.len()`.
    pub fn new(sim: &'a mut Simulator, hosts: Vec<usize>) -> Self {
        let n_hosts = sim.topology().hosts();
        let mut seen = std::collections::HashSet::new();
        for &h in &hosts {
            assert!(h < n_hosts, "host {h} out of range");
            assert!(seen.insert(h), "host {h} listed twice");
        }
        ClusterView { sim, hosts }
    }

    /// The simulator host backing cluster machine `i`.
    pub fn host_of(&self, i: usize) -> usize {
        self.hosts[i]
    }

    /// Rack ids per cluster machine (topology knowledge, granted to the
    /// topology-aware comparison algorithm in simulations).
    pub fn rack_ids(&self) -> Vec<usize> {
        self.hosts
            .iter()
            .map(|&h| self.sim.topology().rack_of(h))
            .collect()
    }

    /// Immutable access to the underlying simulator.
    pub fn simulator(&self) -> &Simulator {
        self.sim
    }

    /// Mutable access to the underlying simulator (e.g. to run a DAG).
    pub fn simulator_mut(&mut self) -> &mut Simulator {
        self.sim
    }
}

impl NetworkProbe for ClusterView<'_> {
    fn n(&self) -> usize {
        self.hosts.len()
    }

    fn probe(&mut self, i: usize, j: usize, bytes: u64, now: f64) -> f64 {
        if i == j {
            return 0.0;
        }
        let at = now.max(self.sim.time());
        self.sim.run_until(at);
        let f = self.sim.submit(self.hosts[i], self.hosts[j], bytes, at);
        self.sim.wait_for(&[f])[0] - at
    }

    fn probe_concurrent(&mut self, pairs: &[(usize, usize)], bytes: u64, now: f64) -> Vec<f64> {
        let at = now.max(self.sim.time());
        self.sim.run_until(at);
        let ids: Vec<FlowId> = pairs
            .iter()
            .map(|&(i, j)| {
                assert_ne!(i, j, "probe pairs need distinct machines");
                self.sim.submit(self.hosts[i], self.hosts[j], bytes, at)
            })
            .collect();
        self.sim
            .wait_for(&ids)
            .into_iter()
            .map(|t| t - at)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkSpec, Topology};
    use cloudconst_netmodel::Calibrator;

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
    fn probe_reflects_topology_classes() {
        let mut sim = Simulator::new(topo(), 1);
        let mut view = ClusterView::new(&mut sim, vec![0, 1, 4, 5]);
        // machines 0,1 on rack 0; machines 2,3 on rack 1.
        let intra = view.probe(0, 1, 100_000, 0.0);
        let cross = view.probe(0, 2, 100_000, view.simulator().time());
        // Same bottleneck capacity, but cross-rack has extra latency.
        assert!(cross > intra, "cross {cross} <= intra {intra}");
    }

    #[test]
    fn concurrent_probes_contend() {
        let mut sim = Simulator::new(topo(), 1);
        let mut view = ClusterView::new(&mut sim, vec![0, 1, 2, 3]);
        // Two probes from the same source host contend on its uplink…
        let seq = view.probe(0, 1, 1_000_000, 0.0);
        let now = view.simulator().time();
        let both = view.probe_concurrent(&[(0, 1), (0, 2)], 1_000_000, now);
        assert!(
            both[0] > 1.5 * seq,
            "no contention visible: {both:?} vs {seq}"
        );
    }

    #[test]
    fn disjoint_concurrent_probes_do_not_contend() {
        let mut sim = Simulator::new(topo(), 1);
        let mut view = ClusterView::new(&mut sim, vec![0, 1, 2, 3]);
        let seq = view.probe(0, 1, 1_000_000, 0.0);
        let now = view.simulator().time();
        let both = view.probe_concurrent(&[(0, 1), (2, 3)], 1_000_000, now);
        assert!((both[0] - seq).abs() / seq < 0.01);
        assert!((both[1] - seq).abs() / seq < 0.01);
    }

    #[test]
    fn calibration_runs_on_simulator() {
        let mut sim = Simulator::new(topo(), 2);
        let mut view = ClusterView::new(&mut sim, vec![0, 2, 4, 6]);
        let run = Calibrator::new().calibrate(&mut view, 0.0);
        assert_eq!(run.perf.n(), 4);
        // Every off-diagonal link measured positive bandwidth.
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    let l = run.perf.link(i, j);
                    assert!(l.beta > 0.0 && l.beta.is_finite());
                    assert!(l.alpha > 0.0);
                }
            }
        }
    }

    #[test]
    fn self_probe_is_free() {
        let mut sim = Simulator::new(topo(), 1);
        let mut view = ClusterView::new(&mut sim, vec![0, 1]);
        assert_eq!(view.probe(1, 1, 1 << 20, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_hosts_rejected() {
        let mut sim = Simulator::new(topo(), 1);
        ClusterView::new(&mut sim, vec![0, 0]);
    }
}
