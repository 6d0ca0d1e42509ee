//! Property-based tests of the linear-algebra kernels.

use cloudconst_linalg::{
    eigh, fro_norm, soft_threshold, svd_jacobi, svd_thin, svt, Mat,
};
use proptest::prelude::*;

/// Strategy: a matrix with entries in [-10, 10] and modest dimensions.
fn mat_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Mat> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| Mat::from_vec(r, c, data))
    })
}

/// Strategy: a symmetric matrix.
fn sym_strategy(max_n: usize) -> impl Strategy<Value = Mat> {
    mat_strategy(max_n, max_n).prop_map(|m| {
        let n = m.rows().min(m.cols());
        let mut s = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                s[(i, j)] = 0.5 * (m[(i, j.min(m.cols() - 1))] + m[(j, i.min(m.cols() - 1))]);
            }
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_associates_with_identity(m in mat_strategy(6, 6)) {
        let i = Mat::eye(m.cols());
        let prod = m.matmul(&i).unwrap();
        prop_assert_eq!(prod, m);
    }

    #[test]
    fn transpose_is_involution(m in mat_strategy(7, 7)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn gram_rows_matches_explicit_product(m in mat_strategy(5, 8)) {
        let g = m.gram_rows();
        let explicit = m.matmul(&m.transpose()).unwrap();
        let diff = g.sub(&explicit).unwrap();
        prop_assert!(fro_norm(&diff) <= 1e-9 * (1.0 + fro_norm(&explicit)));
    }

    #[test]
    fn svd_reconstructs(m in mat_strategy(6, 10)) {
        let svd = svd_thin(&m).unwrap();
        let back = svd.reconstruct().unwrap();
        let err = fro_norm(&back.sub(&m).unwrap());
        prop_assert!(err <= 1e-7 * (1.0 + fro_norm(&m)), "err {err}");
    }

    #[test]
    fn svd_values_sorted_and_nonnegative(m in mat_strategy(6, 10)) {
        let svd = svd_thin(&m).unwrap();
        for w in svd.s.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        for &s in &svd.s {
            prop_assert!(s >= 0.0);
        }
    }

    #[test]
    fn jacobi_svd_agrees_with_gram_svd(m in mat_strategy(5, 7)) {
        let a = svd_thin(&m).unwrap();
        let b = svd_jacobi(&m).unwrap();
        let scale = 1.0 + a.s.first().copied().unwrap_or(0.0);
        for (x, y) in a.s.iter().zip(b.s.iter()) {
            prop_assert!((x - y).abs() <= 1e-7 * scale, "{x} vs {y}");
        }
    }

    #[test]
    fn spectral_norm_bounds_frobenius(m in mat_strategy(6, 6)) {
        // σ₁ ≤ ‖A‖_F ≤ √rank · σ₁
        let svd = svd_thin(&m).unwrap();
        let s1 = svd.s.first().copied().unwrap_or(0.0);
        let f = fro_norm(&m);
        prop_assert!(s1 <= f + 1e-9);
        let k = svd.s.len() as f64;
        prop_assert!(f <= s1 * k.sqrt() + 1e-9);
    }

    #[test]
    fn eigh_reconstructs_symmetric(s in sym_strategy(6)) {
        let e = eigh(&s).unwrap();
        let lam = Mat::diag(&e.values);
        let back = e
            .vectors
            .matmul(&lam)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap();
        let err = fro_norm(&back.sub(&s).unwrap());
        prop_assert!(err <= 1e-7 * (1.0 + fro_norm(&s)), "err {err}");
    }

    #[test]
    fn eigh_trace_preserved(s in sym_strategy(6)) {
        let trace: f64 = (0..s.rows()).map(|i| s[(i, i)]).sum();
        let e = eigh(&s).unwrap();
        let lam_sum: f64 = e.values.iter().sum();
        prop_assert!((trace - lam_sum).abs() <= 1e-8 * (1.0 + trace.abs()));
    }

    #[test]
    fn soft_threshold_shrinks_l1(m in mat_strategy(6, 6), tau in 0.0f64..5.0) {
        let s = soft_threshold(&m, tau);
        let l1_before: f64 = m.as_slice().iter().map(|v| v.abs()).sum();
        let l1_after: f64 = s.as_slice().iter().map(|v| v.abs()).sum();
        prop_assert!(l1_after <= l1_before + 1e-12);
        // Every entry moves toward zero by at most tau.
        for (a, b) in m.as_slice().iter().zip(s.as_slice()) {
            prop_assert!(b.abs() <= a.abs() + 1e-12);
            prop_assert!((a - b).abs() <= tau + 1e-12);
        }
    }

    #[test]
    fn svt_never_raises_singular_values(m in mat_strategy(5, 6), tau in 0.01f64..3.0) {
        let before = svd_thin(&m).unwrap().s;
        let r = svt(&m, tau).unwrap();
        let after = svd_thin(&r.mat).unwrap().s;
        for (k, &s_after) in after.iter().enumerate() {
            let s_before = before.get(k).copied().unwrap_or(0.0);
            prop_assert!(s_after <= s_before + 1e-7, "σ{k}: {s_after} > {s_before}");
        }
        prop_assert_eq!(r.rank, before.iter().filter(|&&s| s > tau).count());
    }

    #[test]
    fn col_stats_bounded_by_extremes(m in mat_strategy(6, 4)) {
        let means = m.col_means();
        let mins = m.col_mins();
        let medians = m.col_medians();
        for j in 0..m.cols() {
            let col = m.col(j);
            let max = col.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(mins[j] <= means[j] + 1e-12 && means[j] <= max + 1e-12);
            prop_assert!(mins[j] <= medians[j] && medians[j] <= max);
        }
    }
}
