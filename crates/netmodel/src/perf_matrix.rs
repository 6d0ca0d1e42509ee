//! All-link performance snapshots.

use crate::alpha_beta::LinkPerf;
use cloudconst_linalg::Mat;

/// A snapshot of pair-wise network performance for an `N`-instance virtual
/// cluster: the paper's performance matrices `L(t) = (α_ij)` and
/// `B(t) = (β_ij)`, stored as latency plus *inverse* bandwidth so both
/// matrices live in the "seconds" domain that RPCA and averaging operate in.
///
/// Self-links `(i, i)` are fixed at zero cost.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfMatrix {
    n: usize,
    /// `N × N` latencies in seconds; diagonal is 0.
    alpha: Mat,
    /// `N × N` inverse bandwidths in seconds/byte; diagonal is 0.
    inv_beta: Mat,
}

impl PerfMatrix {
    /// All-zero (ideal) performance matrix for `n` instances.
    pub fn ideal(n: usize) -> Self {
        PerfMatrix {
            n,
            alpha: Mat::zeros(n, n),
            inv_beta: Mat::zeros(n, n),
        }
    }

    /// Uniform off-diagonal performance.
    pub fn uniform(n: usize, link: LinkPerf) -> Self {
        let mut pm = PerfMatrix::ideal(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    pm.set(i, j, link);
                }
            }
        }
        pm
    }

    /// Build from a per-link closure (`f(i, j)` for `i ≠ j`).
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> LinkPerf) -> Self {
        let mut pm = PerfMatrix::ideal(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    pm.set(i, j, f(i, j));
                }
            }
        }
        pm
    }

    /// Number of instances.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Link performance from `i` to `j` ([`LinkPerf::SELF`] when `i == j`).
    pub fn link(&self, i: usize, j: usize) -> LinkPerf {
        if i == j {
            LinkPerf::SELF
        } else {
            LinkPerf::from_inv_beta(self.alpha[(i, j)], self.inv_beta[(i, j)])
        }
    }

    /// Set link performance (ignored for self-links).
    pub fn set(&mut self, i: usize, j: usize, link: LinkPerf) {
        if i == j {
            return;
        }
        self.alpha[(i, j)] = link.alpha;
        self.inv_beta[(i, j)] = link.inv_beta();
    }

    /// Modeled transfer time of `bytes` from `i` to `j`.
    #[inline]
    pub fn transfer_time(&self, i: usize, j: usize, bytes: u64) -> f64 {
        if i == j {
            0.0
        } else {
            self.alpha[(i, j)] + bytes as f64 * self.inv_beta[(i, j)]
        }
    }

    /// Weight matrix for optimizers at a given message size: entry `(i, j)`
    /// is the modeled transfer time, so *smaller is better* (paper Fig. 1).
    pub fn weights(&self, bytes: u64) -> Mat {
        let mut w = Mat::zeros(self.n, self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                w[(i, j)] = self.transfer_time(i, j, bytes);
            }
        }
        w
    }

    /// Bandwidth matrix in bytes/second (∞ on the diagonal) — the "machine
    /// graph" weights for topology mapping, where *larger is better*.
    pub fn bandwidths(&self) -> Mat {
        let mut b = Mat::zeros(self.n, self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                b[(i, j)] = self.link(i, j).beta;
            }
        }
        b
    }

    /// Flatten to the paper's row layout: `N²` values in row order.
    /// Returns `(alpha_flat, inv_beta_flat)`.
    pub fn flatten(&self) -> (Vec<f64>, Vec<f64>) {
        (
            self.alpha.as_slice().to_vec(),
            self.inv_beta.as_slice().to_vec(),
        )
    }

    /// Rebuild from flattened rows (inverse of [`PerfMatrix::flatten`]).
    /// Negative entries — which RPCA output can contain transiently — are
    /// clamped to zero; the diagonal is forced back to zero.
    pub fn from_flat(n: usize, alpha_flat: &[f64], inv_beta_flat: &[f64]) -> Self {
        assert_eq!(alpha_flat.len(), n * n, "alpha length");
        assert_eq!(inv_beta_flat.len(), n * n, "inv_beta length");
        let mut pm = PerfMatrix::ideal(n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                pm.alpha[(i, j)] = alpha_flat[i * n + j].max(0.0);
                pm.inv_beta[(i, j)] = inv_beta_flat[i * n + j].max(0.0);
            }
        }
        pm
    }

    /// Restrict to a sub-cluster: keep only the instances listed in `idx`
    /// (paper §IV-A: the operation may run on `C' ⊆ C`).
    pub fn restrict(&self, idx: &[usize]) -> PerfMatrix {
        let m = idx.len();
        let mut pm = PerfMatrix::ideal(m);
        for (a, &i) in idx.iter().enumerate() {
            for (b, &j) in idx.iter().enumerate() {
                if a != b {
                    pm.alpha[(a, b)] = self.alpha[(i, j)];
                    pm.inv_beta[(a, b)] = self.inv_beta[(i, j)];
                }
            }
        }
        pm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_free() {
        let pm = PerfMatrix::ideal(3);
        assert_eq!(pm.transfer_time(0, 1, 1 << 20), 0.0);
        assert_eq!(pm.transfer_time(1, 1, 1 << 20), 0.0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut pm = PerfMatrix::ideal(4);
        let l = LinkPerf::new(0.003, 2e8);
        pm.set(1, 2, l);
        let got = pm.link(1, 2);
        assert!((got.alpha - l.alpha).abs() < 1e-15);
        assert!((got.beta - l.beta).abs() / l.beta < 1e-12);
        // Reverse direction untouched.
        assert_eq!(pm.link(2, 1).alpha, 0.0);
    }

    #[test]
    fn self_link_set_ignored() {
        let mut pm = PerfMatrix::ideal(2);
        pm.set(0, 0, LinkPerf::new(1.0, 1.0));
        assert_eq!(pm.transfer_time(0, 0, 100), 0.0);
    }

    #[test]
    fn weights_are_transfer_times() {
        let mut pm = PerfMatrix::ideal(2);
        pm.set(0, 1, LinkPerf::new(0.5, 100.0));
        let w = pm.weights(50);
        assert!((w[(0, 1)] - 1.0).abs() < 1e-12); // 0.5 + 50/100
        assert_eq!(w[(0, 0)], 0.0);
    }

    #[test]
    fn flatten_roundtrip() {
        let pm = PerfMatrix::from_fn(3, |i, j| {
            LinkPerf::new(0.001 * (i + 1) as f64, 1e6 * (j + 1) as f64)
        });
        let (af, bf) = pm.flatten();
        assert_eq!(af.len(), 9);
        let pm2 = PerfMatrix::from_flat(3, &af, &bf);
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (pm.transfer_time(i, j, 1000) - pm2.transfer_time(i, j, 1000)).abs() < 1e-12
                );
            }
        }
    }

    #[test]
    fn from_flat_clamps_negative() {
        let af = vec![0.0, -0.5, 0.1, 0.0];
        let bf = vec![0.0, -1.0, 0.0, 0.0];
        let pm = PerfMatrix::from_flat(2, &af, &bf);
        assert_eq!(pm.link(0, 1).alpha, 0.0);
        assert_eq!(pm.transfer_time(0, 1, 1000), 0.0);
        assert!((pm.link(1, 0).alpha - 0.1).abs() < 1e-15);
    }

    #[test]
    fn restrict_subcluster() {
        let pm = PerfMatrix::from_fn(4, |i, j| LinkPerf::new((10 * i + j) as f64 * 1e-3, 1e9));
        let sub = pm.restrict(&[1, 3]);
        assert_eq!(sub.n(), 2);
        assert!((sub.link(0, 1).alpha - pm.link(1, 3).alpha).abs() < 1e-15);
        assert!((sub.link(1, 0).alpha - pm.link(3, 1).alpha).abs() < 1e-15);
    }

    #[test]
    fn bandwidth_matrix() {
        let mut pm = PerfMatrix::ideal(2);
        pm.set(0, 1, LinkPerf::new(0.0, 5e8));
        let b = pm.bandwidths();
        assert!((b[(0, 1)] - 5e8).abs() < 1.0);
        assert!(b[(0, 0)].is_infinite());
    }
}
