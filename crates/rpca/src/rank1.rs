//! Direct rank-one RPCA — the paper's exact constraint.
//!
//! The paper's problem (§III) is stricter than generic RPCA: `N_D` must
//! have rank one *with all rows identical* (one constant row repeated per
//! snapshot). Relaxing to the nuclear norm (as [`crate::apg`](mod@crate::apg)
//! and [`crate::ialm`](mod@crate::ialm) do) and collapsing afterwards works
//! well, but the constraint can also be enforced directly:
//!
//! ```text
//! minimize ‖E‖₀  subject to  A = 1·cᵀ + E
//! ```
//!
//! solved by alternating robust estimation: hold an outlier mask, fit the
//! constant row `c` from the unmasked entries of each column; hold `c`,
//! re-detect outliers as entries whose residual exceeds a robust (MAD)
//! threshold. Converges in a handful of sweeps and is `O(iters·m·n)` with
//! no SVDs at all — used as an ablation point against the convex solvers.

use cloudconst_linalg::{select_stable, Mat};

/// Residuals beyond `MAD_FACTOR × MAD` (scaled to σ) count as outliers:
/// the classic robust-statistics choice.
const MAD_FACTOR: f64 = 3.0;

/// Maximum alternating sweeps.
const MAX_SWEEPS: usize = 50;

/// Cap on the outlier fraction; protects against degenerate masks when the
/// data is nearly constant (MAD ≈ 0).
const MAX_OUTLIER_FRAC: f64 = 0.5;

/// Result of [`rank1_rpca`].
#[derive(Debug, Clone)]
pub struct Rank1Result {
    /// The constant row `c` (length `a.cols()`).
    pub constant: Vec<f64>,
    /// Sparse error `E = A − 1·cᵀ` (exact by construction).
    pub e: Mat,
    /// Entries classified as outliers in the final sweep.
    pub outliers: usize,
    /// Alternating sweeps performed.
    pub iters: usize,
}

/// The lower median: what a stable sort puts at `(len − 1) / 2`. Reorders
/// `values`.
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let k = (values.len() - 1) / 2;
    select_stable(values, k)
}

/// Decompose `a` into an identical-rows rank-one part plus sparse error.
pub fn rank1_rpca(a: &Mat) -> Rank1Result {
    let (m, n) = a.shape();
    assert!(m > 0 && n > 0, "matrix must be non-empty");

    // Initial constant: column medians (robust to a minority of outliers).
    let mut c = a.col_medians();
    let mut mask: Vec<bool> = vec![false; m * n]; // true = outlier
    let mut iters = 0;

    // Sweep buffers, allocated once per solve.
    let mut abs_res = vec![0.0f64; m * n];
    let mut scratch = vec![0.0f64; m * n];
    let mut new_mask = vec![false; m * n];
    let mut flagged: Vec<(f64, usize)> = Vec::new();
    let mut sums = vec![0.0f64; n];
    let mut counts = vec![0usize; n];

    for sweep in 0..MAX_SWEEPS {
        iters = sweep + 1;

        // Residuals and a robust scale estimate (MAD over all entries).
        for (res, row) in abs_res.chunks_exact_mut(n).zip((0..m).map(|i| a.row(i))) {
            for ((r, &v), &cj) in res.iter_mut().zip(row).zip(&c) {
                *r = (v - cj).abs();
            }
        }
        scratch.copy_from_slice(&abs_res);
        let mad = median(&mut scratch).max(f64::MIN_POSITIVE);
        let threshold = MAD_FACTOR * 1.4826 * mad; // MAD → σ scaling

        // New mask, capped in size.
        new_mask.fill(false);
        flagged.clear();
        flagged.extend(
            abs_res
                .iter()
                .enumerate()
                .filter(|(_, &r)| r > threshold)
                .map(|(k, &r)| (r, k)),
        );
        let cap = ((m * n) as f64 * MAX_OUTLIER_FRAC) as usize;
        if flagged.len() > cap {
            flagged.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            flagged.truncate(cap);
        }
        for &(_, k) in &flagged {
            new_mask[k] = true;
        }

        // Refit c from unmasked entries per column (mean of the clean
        // entries; median init already removed leverage).
        sums.fill(0.0);
        counts.fill(0);
        for i in 0..m {
            let row = a.row(i);
            for (j, &v) in row.iter().enumerate() {
                if !new_mask[i * n + j] {
                    sums[j] += v;
                    counts[j] += 1;
                }
            }
        }
        for j in 0..n {
            if counts[j] > 0 {
                c[j] = sums[j] / counts[j] as f64;
            }
            // A fully-masked column keeps its previous (median) estimate.
        }

        let settled = new_mask == mask;
        std::mem::swap(&mut mask, &mut new_mask);
        if settled {
            break;
        }
    }

    let mut e = Mat::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            e[(i, j)] = a[(i, j)] - c[j];
        }
    }
    Rank1Result {
        constant: c,
        e,
        outliers: mask.iter().filter(|&&b| b).count(),
        iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constant_matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fixture(m: usize, n: usize, spikes: &[(usize, usize, f64)]) -> (Mat, Vec<f64>) {
        let row: Vec<f64> = (0..n).map(|j| 5.0 + (j % 4) as f64).collect();
        let mut a = constant_matrix(&row, m);
        for &(i, j, v) in spikes {
            a[(i, j)] += v;
        }
        (a, row)
    }

    #[test]
    fn clean_matrix_recovered_exactly() {
        let (a, row) = fixture(6, 12, &[]);
        let r = rank1_rpca(&a);
        for (x, y) in r.constant.iter().zip(row.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
        assert_eq!(r.outliers, 0);
    }

    #[test]
    fn spikes_identified_and_rejected() {
        let spikes = [(1usize, 3usize, 40.0), (4, 7, -35.0), (2, 0, 25.0)];
        let (a, row) = fixture(8, 10, &spikes);
        let r = rank1_rpca(&a);
        for (j, (x, y)) in r.constant.iter().zip(row.iter()).enumerate() {
            assert!((x - y).abs() < 1e-9, "col {j}: {x} vs {y}");
        }
        assert_eq!(r.outliers, 3);
        // The error matrix carries exactly the spikes.
        for &(i, j, v) in &spikes {
            assert!((r.e[(i, j)] - v).abs() < 1e-9);
        }
    }

    #[test]
    fn decomposition_is_exact() {
        let (a, _) = fixture(5, 8, &[(0, 0, 10.0)]);
        let r = rank1_rpca(&a);
        for i in 0..5 {
            for j in 0..8 {
                assert!((r.constant[j] + r.e[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn tolerates_moderate_gaussian_noise() {
        let (mut a, row) = fixture(10, 15, &[(3, 3, 30.0)]);
        // Deterministic pseudo-noise ±0.05.
        for i in 0..10 {
            for j in 0..15 {
                let s = if (i * 31 + j * 17) % 2 == 0 {
                    1.0
                } else {
                    -1.0
                };
                a[(i, j)] += s * 0.05 * ((i + j) % 3) as f64 / 3.0;
            }
        }
        let r = rank1_rpca(&a);
        for (x, y) in r.constant.iter().zip(row.iter()) {
            assert!((x - y).abs() < 0.1, "{x} vs {y}");
        }
    }

    #[test]
    fn single_row_matrix() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0]]);
        let r = rank1_rpca(&a);
        assert_eq!(r.constant, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn mask_cap_prevents_degenerate_all_outliers() {
        // Nearly constant matrix: MAD ~ 0 would flag everything without
        // the cap.
        let mut a = constant_matrix(&[1.0; 6], 5);
        a[(0, 0)] += 1e-9;
        let r = rank1_rpca(&a);
        assert!(r.outliers <= 15); // ≤ 50% of 30
        assert!((r.constant[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn median_is_the_stable_sorts_lower_median_bit_for_bit() {
        // Odd and even lengths over values with duplicates and ±0.0 ties:
        // which zero a stable sort leaves in the middle depends on input
        // order, and the selection must pick the same one.
        let palette = [-2.5, -1.0, -0.0, 0.0, 0.0, 1.0, 1.0, 3.0];
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..2000 {
            let len = rng.random_range(1..41usize);
            let values: Vec<f64> = (0..len)
                .map(|_| palette[rng.random_range(0..palette.len())])
                .collect();
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let want = sorted[(len - 1) / 2];
            let got = median(&mut values.clone());
            assert_eq!(got.to_bits(), want.to_bits(), "{values:?}");
        }
    }
}
