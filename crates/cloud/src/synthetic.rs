//! The synthetic cloud itself.

use crate::config::CloudConfig;
use crate::hash;
use crate::placement::{Placement, PlacementDistance};
use cloudconst_netmodel::{LinkPerf, NetworkProbe, PerfMatrix, PureNetworkProbe};

/// Hash stream tags, so the independent noise sources never collide.
const STREAM_ALPHA_HET: u64 = 0xA1;
const STREAM_BETA_HET: u64 = 0xB2;
const STREAM_SPIKE_ON: u64 = 0xC3;
const STREAM_SPIKE_SEV: u64 = 0xC4;
const STREAM_VOL_ALPHA: u64 = 0xD5;
const STREAM_VOL_BETA: u64 = 0xD6;
const STREAM_LULL_ON: u64 = 0xE7;
const STREAM_LULL_GAIN: u64 = 0xE8;

/// A deterministic, seedable IaaS cloud for an `N`-VM virtual cluster.
///
/// Implements [`NetworkProbe`]: probing a link at time `t` returns the α-β
/// transfer time under the hidden ground truth — constant component (from
/// placement + per-link heterogeneity), possibly a congestion spike, and a
/// per-measurement volatility factor. See the crate docs for the model.
#[derive(Debug, Clone)]
pub struct SyntheticCloud {
    cfg: CloudConfig,
    /// Placement per regime epoch.
    placements: Vec<Placement>,
    /// Ground-truth constant component per epoch.
    constants: Vec<PerfMatrix>,
}

impl SyntheticCloud {
    /// Build the cloud: place VMs, derive per-epoch ground truth.
    pub fn new(cfg: CloudConfig) -> Self {
        assert!(
            cfg.shift_times.windows(2).all(|w| w[0] <= w[1]),
            "shift_times must be sorted"
        );
        let mut placements = Vec::with_capacity(cfg.epochs());
        placements.push(Placement::random(
            cfg.n_vms,
            cfg.racks,
            cfg.hosts_per_rack,
            cfg.slots_per_host,
            cfg.seed,
        ));
        for e in 1..cfg.epochs() {
            let prev = placements.last().unwrap();
            placements.push(prev.migrate(
                cfg.migrate_frac,
                cfg.slots_per_host,
                cfg.seed ^ hash::mix(e as u64),
            ));
        }
        let constants = placements
            .iter()
            .map(|p| Self::derive_constants(&cfg, p))
            .collect();
        SyntheticCloud {
            cfg,
            placements,
            constants,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &CloudConfig {
        &self.cfg
    }

    /// Regime epoch index at time `t`.
    pub fn epoch_of(&self, t: f64) -> usize {
        self.cfg.shift_times.iter().filter(|&&s| s <= t).count()
    }

    /// Ground-truth constant component during epoch `e` — the oracle the
    /// RPCA pipeline is trying to recover. Unavailable on a real cloud;
    /// exposed here for tests and experiment scoring.
    pub fn ground_truth(&self, epoch: usize) -> &PerfMatrix {
        &self.constants[epoch]
    }

    /// VM placement during epoch `e` (hidden on a real cloud).
    pub fn placement(&self, epoch: usize) -> &Placement {
        &self.placements[epoch]
    }

    fn derive_constants(cfg: &CloudConfig, placement: &Placement) -> PerfMatrix {
        PerfMatrix::from_fn(cfg.n_vms, |i, j| {
            let class = match placement.distance(i, j) {
                PlacementDistance::SameHost => 0,
                PlacementDistance::SameRack => 1,
                PlacementDistance::CrossRack => 2,
            };
            // Heterogeneity is keyed by the *host pair*, so a link's
            // constant survives across epochs unless one endpoint migrated.
            let ha = placement.host_of(i) as u64;
            let hb = placement.host_of(j) as u64;
            let alpha = cfg.base_alpha[class]
                * hash::lognormal_factor(&[cfg.seed, STREAM_ALPHA_HET, ha, hb], cfg.hetero_sigma);
            let beta = cfg.base_beta[class]
                * hash::lognormal_factor(&[cfg.seed, STREAM_BETA_HET, ha, hb], cfg.hetero_sigma);
            LinkPerf::new(alpha, beta)
        })
    }

    /// Is link `(i, j)` inside a congestion spike at time `t`, and if so by
    /// what bandwidth-division factor?
    fn spike_factor(&self, i: usize, j: usize, t: f64) -> Option<f64> {
        if self.cfg.spike_prob <= 0.0 {
            return None;
        }
        let slot = (t / self.cfg.spike_duration).floor() as i64 as u64;
        let on = hash::uniform(
            &[self.cfg.seed, STREAM_SPIKE_ON, i as u64, j as u64, slot],
            0.0,
            1.0,
        ) < self.cfg.spike_prob;
        if !on {
            return None;
        }
        let (lo, hi) = self.cfg.spike_slowdown;
        Some(hash::uniform(
            &[self.cfg.seed, STREAM_SPIKE_SEV, i as u64, j as u64, slot],
            lo,
            hi,
        ))
    }

    /// Is link `(i, j)` inside a lull (transiently unloaded) at time `t`,
    /// and if so by what bandwidth-multiplication factor? Spikes take
    /// priority: a slot cannot be both congested and quiet.
    fn lull_factor(&self, i: usize, j: usize, t: f64) -> Option<f64> {
        if self.cfg.lull_prob <= 0.0 {
            return None;
        }
        let slot = (t / self.cfg.spike_duration).floor() as i64 as u64;
        let on = hash::uniform(
            &[self.cfg.seed, STREAM_LULL_ON, i as u64, j as u64, slot],
            0.0,
            1.0,
        ) < self.cfg.lull_prob;
        if !on {
            return None;
        }
        let (lo, hi) = self.cfg.lull_speedup;
        Some(hash::uniform(
            &[self.cfg.seed, STREAM_LULL_GAIN, i as u64, j as u64, slot],
            lo,
            hi,
        ))
    }

    /// The instantaneous (measurable) link performance at time `t`:
    /// constant × (spike | lull) × volatility.
    pub fn instantaneous(&self, i: usize, j: usize, t: f64) -> LinkPerf {
        if i == j {
            return LinkPerf::SELF;
        }
        let epoch = self.epoch_of(t);
        let base = self.constants[epoch].link(i, j);
        let (mut alpha, mut beta) = (base.alpha, base.beta);
        if let Some(f) = self.spike_factor(i, j, t) {
            beta /= f;
            alpha *= 1.0 + 0.25 * (f - 1.0); // congestion also queues small packets
        } else if let Some(g) = self.lull_factor(i, j, t) {
            beta *= g;
            alpha /= 1.0 + 0.25 * (g - 1.0);
        }
        if self.cfg.volatility_sigma > 0.0 {
            let tb = t.to_bits();
            alpha *= hash::lognormal_factor(
                &[self.cfg.seed, STREAM_VOL_ALPHA, i as u64, j as u64, tb],
                self.cfg.volatility_sigma,
            );
            beta /= hash::lognormal_factor(
                &[self.cfg.seed, STREAM_VOL_BETA, i as u64, j as u64, tb],
                self.cfg.volatility_sigma,
            );
        }
        LinkPerf::new(alpha, beta)
    }
}

impl NetworkProbe for SyntheticCloud {
    fn n(&self) -> usize {
        self.cfg.n_vms
    }

    fn probe(&mut self, i: usize, j: usize, bytes: u64, now: f64) -> f64 {
        self.instantaneous(i, j, now).transfer_time(bytes)
    }
}

impl PureNetworkProbe for SyntheticCloud {
    // Probing never mutates the cloud: every noise source is a hash stream
    // over `(seed, stream_tag, i, j, t)`, so the pure path is exactly the
    // `&mut` path.
    fn probe_pure(&self, i: usize, j: usize, bytes: u64, now: f64) -> f64 {
        self.instantaneous(i, j, now).transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudconst_netmodel::{Calibrator, RetryPolicy, BETA_PROBE_BYTES};

    fn calm(n: usize) -> SyntheticCloud {
        SyntheticCloud::new(CloudConfig::calm(n, 17))
    }

    #[test]
    fn probe_is_deterministic() {
        let mut c1 = SyntheticCloud::new(CloudConfig::small_test(8, 5));
        let mut c2 = SyntheticCloud::new(CloudConfig::small_test(8, 5));
        for t in [0.0, 100.0, 5000.0] {
            assert_eq!(c1.probe(0, 3, 1 << 20, t), c2.probe(0, 3, 1 << 20, t));
        }
    }

    #[test]
    fn self_link_free() {
        let mut c = calm(4);
        assert_eq!(c.probe(2, 2, 1 << 30, 0.0), 0.0);
    }

    #[test]
    fn calm_cloud_probe_equals_ground_truth() {
        let mut c = calm(6);
        let gt = c.ground_truth(0).clone();
        for i in 0..6 {
            for j in 0..6 {
                let t = c.probe(i, j, BETA_PROBE_BYTES, 1234.5);
                let expect = gt.transfer_time(i, j, BETA_PROBE_BYTES);
                assert!((t - expect).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn volatility_produces_a_band_not_a_point() {
        let mut c = SyntheticCloud::new(CloudConfig::small_test(6, 9));
        let samples: Vec<f64> = (0..50)
            .map(|k| c.probe(0, 1, BETA_PROBE_BYTES, k as f64 * 10.0))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let spread = samples
            .iter()
            .map(|s| (s - mean).abs())
            .fold(0.0f64, f64::max);
        assert!(spread > 0.0, "no volatility at all");
        // Band, not chaos: spread bounded relative to the mean (spikes
        // allowed to push individual samples a few x).
        assert!(spread < 10.0 * mean, "spread {spread} vs mean {mean}");
    }

    #[test]
    fn regime_shift_changes_constants_for_migrated_links() {
        let mut cfg = CloudConfig::small_test(24, 21);
        cfg.shift_times = vec![1000.0];
        cfg.migrate_frac = 0.5;
        let cloud = SyntheticCloud::new(cfg);
        let before = cloud.ground_truth(0);
        let after = cloud.ground_truth(1);
        let mut changed = 0;
        let mut total = 0;
        for i in 0..24 {
            for j in 0..24 {
                if i == j {
                    continue;
                }
                total += 1;
                if (before.link(i, j).beta - after.link(i, j).beta).abs()
                    > 1e-6 * before.link(i, j).beta
                {
                    changed += 1;
                }
            }
        }
        assert!(changed > 0, "no link changed across the shift");
        assert!(
            changed < total,
            "every link changed — constants not keyed by host"
        );
    }

    #[test]
    fn unmigrated_links_keep_their_constant() {
        let mut cfg = CloudConfig::small_test(16, 31);
        cfg.shift_times = vec![500.0];
        let cloud = SyntheticCloud::new(cfg);
        let p0 = cloud.placement(0);
        let p1 = cloud.placement(1);
        let stay: Vec<usize> = (0..16)
            .filter(|&v| p0.host_of(v) == p1.host_of(v))
            .collect();
        assert!(stay.len() >= 2, "test needs at least two unmigrated VMs");
        let (a, b) = (stay[0], stay[1]);
        let before = cloud.ground_truth(0).link(a, b);
        let after = cloud.ground_truth(1).link(a, b);
        assert!((before.alpha - after.alpha).abs() < 1e-15);
        assert!((before.beta - after.beta).abs() < 1e-6);
    }

    #[test]
    fn epoch_of_boundaries() {
        let mut cfg = CloudConfig::calm(4, 2);
        cfg.shift_times = vec![100.0, 200.0];
        let cloud = SyntheticCloud::new(cfg);
        assert_eq!(cloud.epoch_of(0.0), 0);
        assert_eq!(cloud.epoch_of(99.9), 0);
        assert_eq!(cloud.epoch_of(100.0), 1);
        assert_eq!(cloud.epoch_of(150.0), 1);
        assert_eq!(cloud.epoch_of(200.0), 2);
        assert_eq!(cloud.epoch_of(1e9), 2);
    }

    #[test]
    fn placement_determines_performance_classes() {
        let cloud = calm(16);
        let p = cloud.placement(0);
        let gt = cloud.ground_truth(0);
        // Find a same-rack and a cross-rack pair and compare bandwidths on
        // average terms: cross-rack base is much lower, heterogeneity is
        // ±25%, so any same-rack link should beat any cross-rack link.
        let mut same_rack = Vec::new();
        let mut cross_rack = Vec::new();
        for i in 0..16 {
            for j in 0..16 {
                if i == j {
                    continue;
                }
                match p.distance(i, j) {
                    PlacementDistance::SameRack => same_rack.push(gt.link(i, j).beta),
                    PlacementDistance::CrossRack => cross_rack.push(gt.link(i, j).beta),
                    PlacementDistance::SameHost => {}
                }
            }
        }
        if !same_rack.is_empty() && !cross_rack.is_empty() {
            let sr_mean: f64 = same_rack.iter().sum::<f64>() / same_rack.len() as f64;
            let cr_mean: f64 = cross_rack.iter().sum::<f64>() / cross_rack.len() as f64;
            assert!(
                sr_mean > cr_mean,
                "same-rack {sr_mean} <= cross-rack {cr_mean}"
            );
        }
    }

    #[test]
    fn parallel_calibration_matches_serial_on_volatile_cloud() {
        // Full noise model (spikes, lulls, volatility) at N = 16 so every
        // hash stream is exercised; the parallel rounds must reproduce the
        // serial measurement matrix bit for bit.
        let cloud = SyntheticCloud::new(CloudConfig::ec2_like(16, 77));
        let serial = Calibrator::new().calibrate(&mut cloud.clone(), 450.0);
        let par = Calibrator::new().calibrate_par(&cloud, 450.0, &RetryPolicy::default());
        assert_eq!(par.rounds, serial.rounds);
        assert_eq!(par.overhead.to_bits(), serial.overhead.to_bits());
        for i in 0..16 {
            for j in 0..16 {
                let a = serial.perf.link(i, j);
                let b = par.perf.link(i, j);
                assert_eq!(a.alpha.to_bits(), b.alpha.to_bits(), "alpha ({i},{j})");
                assert_eq!(a.beta.to_bits(), b.beta.to_bits(), "beta ({i},{j})");
            }
        }
    }

    #[test]
    fn calibration_on_calm_cloud_recovers_ground_truth() {
        let mut cloud = calm(8);
        let gt = cloud.ground_truth(0).clone();
        let run = Calibrator::new().calibrate(&mut cloud, 0.0);
        for i in 0..8 {
            for j in 0..8 {
                if i == j {
                    continue;
                }
                let t = gt.link(i, j);
                let m = run.perf.link(i, j);
                assert!(
                    (t.alpha - m.alpha).abs() / t.alpha < 1e-3,
                    "alpha ({i},{j})"
                );
                assert!((t.beta - m.beta).abs() / t.beta < 1e-2, "beta ({i},{j})");
            }
        }
    }
}
