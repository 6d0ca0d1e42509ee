//! Background-traffic configuration (the Fig. 12 knobs).

use crate::engine::Simulator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Specification of the paper's background traffic: a set of host pairs
/// that "keep on sending messages", each an independent Poisson process
/// parameterized by message size and expected waiting time λ between
/// sends (paper §V-A).
#[derive(Debug, Clone)]
pub struct BackgroundSpec {
    /// Number of sender→receiver pairs to draw.
    pub pairs: usize,
    /// Message size in bytes (Fig. 12(b) sweeps 10 MB–500 MB).
    pub message_bytes: u64,
    /// Expected waiting time between sends in seconds (Fig. 12(a) sweeps
    /// 1–30 s).
    pub lambda: f64,
    /// Per-message probability that a pair re-draws its endpoints
    /// (traffic churn; 0.0 = chronic fixed pairs).
    pub churn: f64,
    /// Seed for pair selection.
    pub seed: u64,
}

impl BackgroundSpec {
    /// Install this background on a simulator: draw `pairs` random
    /// distinct (src, dst) host pairs and attach a generator to each.
    pub fn install(&self, sim: &mut Simulator, from: f64) {
        let hosts = sim.topology().hosts();
        assert!(hosts >= 2, "need at least two hosts");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut chosen = std::collections::HashSet::new();
        let mut placed = 0;
        let mut guard = 0;
        while placed < self.pairs {
            guard += 1;
            assert!(
                guard < 100 * self.pairs.max(10),
                "cannot draw {} distinct pairs from {hosts} hosts",
                self.pairs
            );
            let src = rng.random_range(0..hosts);
            let dst = rng.random_range(0..hosts);
            if src == dst || !chosen.insert((src, dst)) {
                continue;
            }
            sim.add_background_with_churn(
                src,
                dst,
                self.message_bytes,
                self.lambda,
                from,
                self.churn,
            );
            placed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkSpec, Topology};

    fn topo() -> Topology {
        Topology::tree(
            2,
            8,
            LinkSpec {
                capacity: 1e6,
                latency: 1e-4,
            },
            LinkSpec {
                capacity: 1e7,
                latency: 2e-4,
            },
        )
    }

    #[test]
    fn install_generates_traffic() {
        let mut sim = Simulator::new(topo(), 9);
        BackgroundSpec {
            pairs: 8,
            message_bytes: 10_000,
            lambda: 0.5,
            churn: 0.0,
            seed: 3,
        }
        .install(&mut sim, 0.0);
        sim.run_until(30.0);
        assert!(
            sim.flows_completed() > 20,
            "only {} background flows completed",
            sim.flows_completed()
        );
    }

    #[test]
    fn smaller_lambda_means_more_traffic() {
        let count = |lambda: f64| {
            let mut sim = Simulator::new(topo(), 9);
            BackgroundSpec {
                pairs: 4,
                message_bytes: 1_000,
                lambda,
                churn: 0.0,
                seed: 3,
            }
            .install(&mut sim, 0.0);
            sim.run_until(60.0);
            sim.flows_completed()
        };
        assert!(count(0.5) > 2 * count(5.0));
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn too_many_pairs_panics() {
        let t = Topology::tree(
            1,
            2,
            LinkSpec {
                capacity: 1.0,
                latency: 0.0,
            },
            LinkSpec {
                capacity: 1.0,
                latency: 0.0,
            },
        );
        let mut sim = Simulator::new(t, 1);
        BackgroundSpec {
            pairs: 10,
            message_bytes: 1,
            lambda: 1.0,
            churn: 0.0,
            seed: 1,
        }
        .install(&mut sim, 0.0);
    }
}
