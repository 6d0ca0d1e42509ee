//! The paper's effectiveness metrics.
//!
//! * `Norm(N_E) = ‖N_E‖₀ / ‖N_A‖₀` (paper §IV-A) — how much of the observed
//!   performance is *not* explained by the constant component; predicts
//!   whether network-performance-aware optimization is worth doing
//!   (≲0.1 ⇒ very effective, ≳0.5 ⇒ marginal).
//! * `Norm(P_D) = ‖P_D − P'_D‖₀ / ‖P'_D‖₀` (paper §V-C) — relative
//!   difference between a constant row estimated from a truncated
//!   calibration window and the oracle constant row from the full window;
//!   used to pick the time step.

use cloudconst_linalg::{blocked_sums, Mat};

/// Relative threshold that separates "numerically zero" from "error" when
/// counting `‖·‖₀`. Chosen as 1% of the largest entry of the reference
/// matrix: network performance errors below 1% of scale are irrelevant to
/// link selection.
pub const ZERO_NORM_REL_TOL: f64 = 0.01;

/// The paper's `Norm(N_E)`: fraction of entries of the error matrix that
/// are significant relative to the data matrix (thresholded ‖·‖₀), over
/// the entries `mask` marks observed (`≥ 0.5`). Imputed cells — never
/// actually measured — leave *both* counts and the threshold scale, so
/// fabricated fill values can neither inflate nor launder the statistic.
/// A fully observed matrix passes an all-ones mask. Result lies in
/// `[0, +)`, practically `[0, 1]`.
pub fn norm_ne(n_e: &Mat, n_a: &Mat, mask: &Mat) -> f64 {
    check_shapes(n_e, n_a, mask);
    let (e, a, m) = (n_e.as_slice(), n_a.as_slice(), mask.as_slice());
    let observed = || (0..a.len()).filter(|&i| m[i] >= 0.5);
    let scale = observed().map(|i| a[i].abs()).fold(0.0f64, f64::max);
    if scale == 0.0 {
        return 0.0;
    }
    let thresh = ZERO_NORM_REL_TOL * scale;
    let denom = observed().filter(|&i| a[i].abs() > thresh).count();
    if denom == 0 {
        return 0.0;
    }
    let num = observed().filter(|&i| e[i].abs() > thresh).count();
    num as f64 / denom as f64
}

/// ℓ₁ variant of [`norm_ne`], over the same observed entries: continuous,
/// better suited for trend plots (Figures 10 and 12 in the paper sweep it
/// smoothly). Both sums run in the fixed block order of
/// [`cloudconst_linalg::l1_norm`], so an all-ones mask gives the bits of
/// `l1_norm(n_e) / l1_norm(n_a)`.
pub fn norm_ne_l1(n_e: &Mat, n_a: &Mat, mask: &Mat) -> f64 {
    check_shapes(n_e, n_a, mask);
    let (e, a, m) = (n_e.as_slice(), n_a.as_slice(), mask.as_slice());
    // A masked entry adds -0.0, the exact identity of the sum.
    let [num, denom] = blocked_sums(a.len(), |i| {
        if m[i] >= 0.5 {
            [e[i].abs(), a[i].abs()]
        } else {
            [-0.0, -0.0]
        }
    });
    if denom == 0.0 {
        0.0
    } else {
        num / denom
    }
}

fn check_shapes(n_e: &Mat, n_a: &Mat, mask: &Mat) {
    assert_eq!(n_e.shape(), n_a.shape(), "error/data shape mismatch");
    assert_eq!(mask.shape(), n_a.shape(), "mask shape mismatch");
}

/// The paper's `Norm(P_D)`: relative difference between an estimated
/// constant row `p_d` and the oracle `p_d_oracle`, measured in ℓ₁ (the
/// thresholded-count form degenerates for vectors, and the paper's usage —
/// "difference within 10%" — is a relative-magnitude statement).
pub fn relative_difference(p_d: &[f64], p_d_oracle: &[f64]) -> f64 {
    assert_eq!(p_d.len(), p_d_oracle.len(), "length mismatch");
    let denom: f64 = p_d_oracle.iter().map(|v| v.abs()).sum();
    if denom == 0.0 {
        return 0.0;
    }
    let num: f64 = p_d
        .iter()
        .zip(p_d_oracle.iter())
        .map(|(a, b)| (a - b).abs())
        .sum();
    num / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones(r: usize, c: usize) -> Mat {
        Mat::full(r, c, 1.0)
    }

    #[test]
    fn norm_ne_zero_for_clean() {
        let a = Mat::full(3, 3, 10.0);
        let e = Mat::zeros(3, 3);
        assert_eq!(norm_ne(&e, &a, &ones(3, 3)), 0.0);
    }

    #[test]
    fn norm_ne_counts_significant_entries() {
        let a = Mat::full(2, 2, 100.0);
        let mut e = Mat::zeros(2, 2);
        e[(0, 0)] = 50.0; // 50% of scale: counts
        e[(1, 1)] = 0.5; // 0.5% of scale: below 1% threshold, ignored
        assert!((norm_ne(&e, &a, &ones(2, 2)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn norm_ne_l1_ratio() {
        let a = Mat::full(2, 2, 10.0);
        let e = Mat::full(2, 2, 1.0);
        assert!((norm_ne_l1(&e, &a, &ones(2, 2)) - 0.1).abs() < 1e-12);
    }

    /// A deterministic `rows × cols` plane with a spread of magnitudes.
    fn plane(rows: usize, cols: usize, salt: u64) -> Mat {
        let data = (0..rows * cols)
            .map(|k| {
                let h = (k as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
                (h as f64 / (1u64 << 53) as f64 - 0.3) * 1e-3
            })
            .collect();
        Mat::from_vec(rows, cols, data)
    }

    #[test]
    fn full_mask_reproduces_the_unmasked_norms_bit_for_bit() {
        // 10 × 4096 crosses the blocked sums' parallel threshold.
        for (rows, cols) in [(2, 2), (7, 33), (10, 4096)] {
            let (a, e) = (plane(rows, cols, 1), plane(rows, cols, 2).scale(0.1));
            let mask = ones(rows, cols);
            let count = cloudconst_linalg::zero_norm_frac(&e, &a, ZERO_NORM_REL_TOL);
            assert_eq!(norm_ne(&e, &a, &mask).to_bits(), count.to_bits());
            let l1 = cloudconst_linalg::l1_norm(&e) / cloudconst_linalg::l1_norm(&a);
            assert_eq!(norm_ne_l1(&e, &a, &mask).to_bits(), l1.to_bits());
        }
    }

    #[test]
    fn masked_l1_matches_the_filtered_sequential_sum() {
        for (rows, cols) in [(7, 33), (10, 4096)] {
            let (a, e) = (plane(rows, cols, 3), plane(rows, cols, 4).scale(0.2));
            let mask = (0..rows * cols)
                .map(|k| f64::from(u8::from(k % 5 != 0)))
                .collect();
            let mask = Mat::from_vec(rows, cols, mask);
            let filtered = |x: &Mat| -> f64 {
                x.as_slice()
                    .iter()
                    .zip(mask.as_slice())
                    .filter(|&(_, &mk)| mk >= 0.5)
                    .map(|(&v, _)| v.abs())
                    .sum()
            };
            let want = filtered(&e) / filtered(&a);
            let got = norm_ne_l1(&e, &a, &mask);
            assert!((got - want).abs() <= 1e-12 * want, "{got} vs {want}");
        }
    }

    #[test]
    fn masked_norm_excludes_imputed_cells() {
        let a = Mat::full(2, 2, 100.0);
        let mut e = Mat::zeros(2, 2);
        // A huge "error" in an imputed cell must not pollute the statistic.
        e[(0, 0)] = 90.0;
        e[(1, 1)] = 50.0;
        let mut mask = Mat::full(2, 2, 1.0);
        mask[(0, 0)] = 0.0;
        // Fully observed: 2 of 4 significant. Masked: cell (0,0) leaves
        // both counts → 1 of 3.
        assert!((norm_ne(&e, &a, &ones(2, 2)) - 0.5).abs() < 1e-12);
        assert!((norm_ne(&e, &a, &mask) - 1.0 / 3.0).abs() < 1e-12);
        let l1 = norm_ne_l1(&e, &a, &mask);
        assert!((l1 - 50.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn masked_norm_empty_mask_is_zero() {
        let a = Mat::full(2, 2, 1.0);
        let e = Mat::full(2, 2, 1.0);
        let mask = Mat::zeros(2, 2);
        assert_eq!(norm_ne(&e, &a, &mask), 0.0);
        assert_eq!(norm_ne_l1(&e, &a, &mask), 0.0);
    }

    #[test]
    fn relative_difference_basics() {
        assert_eq!(relative_difference(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let d = relative_difference(&[1.1, 2.2], &[1.0, 2.0]);
        assert!((d - 0.1).abs() < 1e-12);
    }

    #[test]
    fn relative_difference_zero_oracle() {
        assert_eq!(relative_difference(&[1.0], &[0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn relative_difference_length_mismatch_panics() {
        relative_difference(&[1.0], &[1.0, 2.0]);
    }
}
