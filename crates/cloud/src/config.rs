//! Synthetic cloud configuration.

/// One day in seconds.
pub const DAY: f64 = 86_400.0;

/// Parameters of the synthetic IaaS cloud.
///
/// Defaults are tuned so a week-long trace of a medium-instance virtual
/// cluster reproduces the paper's headline observation: a clear per-link
/// constant band with `Norm(N_E) ≈ 0.1` and ~2 regime shifts per week
/// (the paper re-calibrated on day 0, day 2 and day 5).
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// Virtual cluster size (number of VMs).
    pub n_vms: usize,
    /// Racks in the hidden datacenter.
    pub racks: usize,
    /// Hosts per rack.
    pub hosts_per_rack: usize,
    /// VM slots per host.
    pub slots_per_host: usize,
    /// Master seed; everything is a pure function of it.
    pub seed: u64,

    /// Base latency per distance class `[same-host, same-rack, cross-rack]`
    /// in seconds.
    pub base_alpha: [f64; 3],
    /// Base bandwidth per distance class in bytes/second.
    pub base_beta: [f64; 3],
    /// Per-link constant heterogeneity: lognormal σ applied once per
    /// (host-pair) link to α and β.
    pub hetero_sigma: f64,

    /// Volatility band: lognormal σ applied per measurement.
    pub volatility_sigma: f64,

    /// Probability that a link is congested in any given spike slot.
    pub spike_prob: f64,
    /// Spike slot duration in seconds.
    pub spike_duration: f64,
    /// Bandwidth-reduction factor range during a spike (divides β).
    pub spike_slowdown: (f64, f64),

    /// Probability that a link is in a *lull* in any given slot: a
    /// transient quiet period on a chronically shared path, during which
    /// a measurement sees far more bandwidth than the long-term constant.
    /// Lulls are what poison direct-measurement averages — a bad link
    /// measured during a lull looks great — while RPCA discards them as
    /// sparse errors. Mutually exclusive with a spike in the same slot.
    pub lull_prob: f64,
    /// Bandwidth-increase factor range during a lull (multiplies β).
    pub lull_speedup: (f64, f64),

    /// Times (seconds since epoch 0) at which a regime shift occurs.
    pub shift_times: Vec<f64>,
    /// Fraction of VMs migrated at each regime shift.
    pub migrate_frac: f64,
}

impl CloudConfig {
    /// EC2-like defaults for a virtual cluster of `n_vms` medium instances
    /// over a one-week horizon.
    pub fn ec2_like(n_vms: usize, seed: u64) -> Self {
        // Size the datacenter so the cluster spans many racks but racks
        // are shared — bigger clusters touch more racks (paper Fig. 8's
        // explanation of why 196 instances benefit more than 64).
        let hosts_per_rack = 16;
        let slots_per_host = 2;
        let racks = ((n_vms as f64 / (hosts_per_rack * slots_per_host) as f64 * 4.0).ceil()
            as usize)
            .max(2);
        CloudConfig {
            n_vms,
            racks,
            hosts_per_rack,
            slots_per_host,
            seed,
            // Medium-instance era EC2: sub-millisecond latency, bandwidth
            // strongly placement-dependent.
            base_alpha: [1e-4, 3e-4, 6e-4],
            base_beta: [400e6, 120e6, 55e6],
            hetero_sigma: 0.25,
            volatility_sigma: 0.04,
            // Congestion: rare but *bursty* episodes — a congested link
            // stays congested for ~10 minutes (VM-level contention), so a
            // hit link has several consecutive calibration snapshots
            // corrupted 3–10×. That biases a column mean heavily on the
            // few affected links (the paper's RPCA-vs-Heuristics gap: RPCA
            // shunts the burst into N_E) while keeping the *instantaneous*
            // congestion probability low, so calibration rounds are not
            // perpetually dominated by stragglers (EC2 calibrated 196
            // instances in ~10 minutes).
            spike_prob: 0.05,
            spike_duration: 300.0,
            spike_slowdown: (3.0, 10.0),
            lull_prob: 0.08,
            lull_speedup: (2.0, 5.0),
            shift_times: vec![2.0 * DAY, 5.0 * DAY],
            migrate_frac: 0.3,
        }
    }

    /// Small deterministic configuration for fast unit tests.
    pub fn small_test(n_vms: usize, seed: u64) -> Self {
        let mut c = Self::ec2_like(n_vms, seed);
        c.racks = c.racks.max(3);
        c
    }

    /// A perfectly calm cloud: no volatility, no spikes or lulls, no
    /// shifts. The measured matrix *is* the constant component — useful
    /// for testing that the pipeline is exact in the noise-free limit.
    pub fn calm(n_vms: usize, seed: u64) -> Self {
        let mut c = Self::ec2_like(n_vms, seed);
        c.volatility_sigma = 0.0;
        c.spike_prob = 0.0;
        c.lull_prob = 0.0;
        c.shift_times.clear();
        c
    }

    /// Number of epochs (regime periods) this configuration defines.
    pub fn epochs(&self) -> usize {
        self.shift_times.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ec2_like_has_week_shifts() {
        let c = CloudConfig::ec2_like(196, 1);
        assert_eq!(c.epochs(), 3);
        assert!(c.racks * c.hosts_per_rack * c.slots_per_host >= 196);
    }

    #[test]
    fn calm_is_noise_free() {
        let c = CloudConfig::calm(16, 2);
        assert_eq!(c.volatility_sigma, 0.0);
        assert_eq!(c.spike_prob, 0.0);
        assert_eq!(c.epochs(), 1);
    }

    #[test]
    fn distance_classes_ordered() {
        let c = CloudConfig::ec2_like(64, 3);
        assert!(c.base_alpha[0] < c.base_alpha[1]);
        assert!(c.base_alpha[1] < c.base_alpha[2]);
        assert!(c.base_beta[0] > c.base_beta[1]);
        assert!(c.base_beta[1] > c.base_beta[2]);
    }
}
