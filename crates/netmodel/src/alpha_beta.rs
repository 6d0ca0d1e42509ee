//! The α-β point-to-point performance model (paper §III, citing Thakur &
//! Rabenseifner).

/// Performance of a single directed link under the α-β model.
///
/// `alpha` is the fixed per-message latency in seconds; `beta` is the
/// sustained bandwidth in bytes/second. The modeled transfer time of an
/// `n`-byte message is `α + n/β`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPerf {
    /// Latency (seconds per message).
    pub alpha: f64,
    /// Bandwidth (bytes per second).
    pub beta: f64,
}

impl LinkPerf {
    /// The zero-cost self-link.
    pub const SELF: LinkPerf = LinkPerf {
        alpha: 0.0,
        beta: f64::INFINITY,
    };

    /// Construct a link from latency and bandwidth. Panics on negative
    /// latency or non-positive bandwidth.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha >= 0.0, "alpha must be non-negative, got {alpha}");
        assert!(beta > 0.0, "beta must be positive, got {beta}");
        LinkPerf { alpha, beta }
    }

    /// Construct from latency and *inverse* bandwidth (seconds/byte).
    pub fn from_inv_beta(alpha: f64, inv_beta: f64) -> Self {
        assert!(alpha >= 0.0 && inv_beta >= 0.0);
        LinkPerf {
            alpha,
            beta: if inv_beta == 0.0 {
                f64::INFINITY
            } else {
                1.0 / inv_beta
            },
        }
    }

    /// Inverse bandwidth in seconds/byte (0 for infinite bandwidth).
    #[inline]
    pub fn inv_beta(&self) -> f64 {
        if self.beta.is_infinite() {
            0.0
        } else {
            1.0 / self.beta
        }
    }

    /// Modeled transfer time of `bytes` over this link: `α + bytes/β`.
    #[inline]
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.alpha + bytes as f64 * self.inv_beta()
    }

    /// Fit (α, β) from two probe measurements: the elapsed time of a small
    /// message (`t_small` at `small_bytes`) and of a large one. This is the
    /// paper's calibration rule: α is the small-message time, β comes from
    /// the large transfer after subtracting α.
    pub fn fit(small_bytes: u64, t_small: f64, large_bytes: u64, t_large: f64) -> Self {
        // Floor the payload time: a congested small-message probe can
        // outlast the large transfer (t_large < α), which naively implies
        // near-infinite bandwidth — a phantom link any optimizer would
        // then chase. Cap the implied bandwidth at 20× the naive
        // large-transfer rate instead.
        let alpha = t_small.max(0.0);
        let payload_time = (t_large - alpha).max(0.05 * t_large).max(1e-12);
        let extra = large_bytes.saturating_sub(small_bytes).max(1);
        LinkPerf {
            alpha,
            beta: extra as f64 / payload_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_linear_in_size() {
        let l = LinkPerf::new(0.001, 1e6);
        assert!((l.transfer_time(0) - 0.001).abs() < 1e-15);
        assert!((l.transfer_time(1_000_000) - 1.001).abs() < 1e-12);
        assert!((l.transfer_time(2_000_000) - 2.001).abs() < 1e-12);
    }

    #[test]
    fn self_link_free() {
        assert_eq!(LinkPerf::SELF.transfer_time(1 << 30), 0.0);
        assert_eq!(LinkPerf::SELF.inv_beta(), 0.0);
    }

    #[test]
    fn fit_recovers_parameters() {
        let truth = LinkPerf::new(0.0005, 125e6); // 1 Gb/s
        let t1 = truth.transfer_time(1);
        let t2 = truth.transfer_time(8 << 20);
        let fitted = LinkPerf::fit(1, t1, 8 << 20, t2);
        // The α estimate absorbs the 1-byte payload time (~8 ns here), so
        // the recovery is near-exact but not to machine precision.
        assert!((fitted.alpha - truth.alpha).abs() / truth.alpha < 1e-4);
        assert!((fitted.beta - truth.beta).abs() / truth.beta < 1e-3);
    }

    #[test]
    fn fit_degenerate_large_not_slower() {
        // If t_large <= alpha the payload time clamps instead of going
        // negative; bandwidth becomes very large but finite.
        let fitted = LinkPerf::fit(1, 0.01, 1000, 0.005);
        assert!(fitted.beta.is_finite());
        assert!(fitted.beta > 0.0);
    }

    #[test]
    fn inv_beta_roundtrip() {
        let l = LinkPerf::new(0.002, 4e8);
        let l2 = LinkPerf::from_inv_beta(l.alpha, l.inv_beta());
        assert!((l2.beta - l.beta).abs() / l.beta < 1e-12);
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn zero_bandwidth_panics() {
        LinkPerf::new(0.0, 0.0);
    }
}
