//! Property-based tests of RPCA recovery and metric invariants.

use cloudconst_linalg::{fro_norm, svd_thin, Mat};
use cloudconst_rpca::{
    apg, constant_matrix, extract_constant, ialm, norm_ne, norm_ne_l1, ApgOptions, ConstantMethod,
    IalmOptions,
};
use proptest::prelude::*;

/// Strategy: a rank-1 (identical rows) matrix plus a few sparse spikes.
///
/// Rows start at 5: with fewer snapshots a single spike makes up a third
/// of its column and rank-one recovery legitimately degrades — the same
/// reason the paper's Fig. 5 rejects time steps below ~5.
fn low_rank_plus_sparse() -> impl Strategy<Value = (Mat, Mat, Mat)> {
    (
        5usize..9,
        10usize..40,
        proptest::collection::vec(1.0f64..20.0, 40),
        proptest::collection::vec((0usize..9, 0usize..40, 20.0f64..60.0), 0..5),
    )
        .prop_map(|(m, n, base, spikes)| {
            let row: Vec<f64> = base[..n].to_vec();
            let low = constant_matrix(&row, m);
            let mut sparse = Mat::zeros(m, n);
            for (i, j, v) in spikes {
                sparse[(i % m, j % n)] = v;
            }
            let a = low.add(&sparse).unwrap();
            (a, low, sparse)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn apg_decomposition_sums_to_input((a, _low, _sp) in low_rank_plus_sparse()) {
        let r = apg(&a, &ApgOptions::default()).unwrap();
        // Exact error closes the decomposition by construction.
        let e = r.exact_error(&a).unwrap();
        let back = r.d.add(&e).unwrap();
        prop_assert!(fro_norm(&back.sub(&a).unwrap()) <= 1e-9 * (1.0 + fro_norm(&a)));
        // Solver residual itself is small.
        prop_assert!(r.residual < 1e-2, "residual {}", r.residual);
    }

    #[test]
    fn apg_recovers_low_rank_part((a, low, _sp) in low_rank_plus_sparse()) {
        let r = apg(&a, &ApgOptions::default()).unwrap();
        let err = fro_norm(&r.d.sub(&low).unwrap()) / fro_norm(&low).max(1e-12);
        prop_assert!(err < 0.05, "low-rank recovery error {err}");
    }

    #[test]
    fn ialm_agrees_with_apg((a, _low, _sp) in low_rank_plus_sparse()) {
        let r1 = apg(&a, &ApgOptions::default()).unwrap();
        let r2 = ialm(&a, &IalmOptions::default()).unwrap();
        let diff = fro_norm(&r1.d.sub(&r2.d).unwrap()) / fro_norm(&r1.d).max(1e-12);
        prop_assert!(diff < 0.1, "solver disagreement {diff}");
    }

    #[test]
    fn extraction_methods_agree_on_identical_rows(
        row in proptest::collection::vec(0.5f64..50.0, 3..20),
        m in 2usize..8,
    ) {
        let d = constant_matrix(&row, m);
        let ts = extract_constant(&d, ConstantMethod::TopSingular).unwrap();
        let mr = extract_constant(&d, ConstantMethod::MeanRow).unwrap();
        let md = extract_constant(&d, ConstantMethod::MedianRow).unwrap();
        for k in 0..row.len() {
            prop_assert!((ts[k] - row[k]).abs() <= 1e-8 * (1.0 + row[k]));
            prop_assert!((mr[k] - row[k]).abs() <= 1e-12 * (1.0 + row[k]));
            prop_assert!((md[k] - row[k]).abs() <= 1e-12 * (1.0 + row[k]));
        }
    }

    #[test]
    fn constant_matrix_is_rank_one(
        row in proptest::collection::vec(0.1f64..10.0, 2..16),
        m in 2usize..6,
    ) {
        let d = constant_matrix(&row, m);
        // The Gram-trick SVD squares the condition number: eigenvalue
        // noise of ~1e-16 relative becomes singular-value noise of ~1e-8
        // relative, so the rank tolerance must sit above that.
        prop_assert_eq!(svd_thin(&d).unwrap().rank(1e-6), 1);
    }

    #[test]
    fn norm_metrics_scale_invariant((a, _low, _sp) in low_rank_plus_sparse(), s in 0.5f64..20.0) {
        let r = apg(&a, &ApgOptions::default()).unwrap();
        let e = r.exact_error(&a).unwrap();
        let ones = Mat::full(a.rows(), a.cols(), 1.0);
        let n1 = norm_ne(&e, &a, &ones);
        let n2 = norm_ne(&e.scale(s), &a.scale(s), &ones);
        prop_assert!((n1 - n2).abs() <= 1e-12, "count norm not scale invariant");
        let l1 = norm_ne_l1(&e, &a, &ones);
        let l2 = norm_ne_l1(&e.scale(s), &a.scale(s), &ones);
        prop_assert!((l1 - l2).abs() <= 1e-12, "l1 norm not scale invariant");
    }

    #[test]
    fn norm_ne_zero_iff_error_below_threshold((a, _low, _sp) in low_rank_plus_sparse()) {
        let zero = Mat::zeros(a.rows(), a.cols());
        let ones = Mat::full(a.rows(), a.cols(), 1.0);
        prop_assert_eq!(norm_ne(&zero, &a, &ones), 0.0);
        prop_assert_eq!(norm_ne_l1(&zero, &a, &ones), 0.0);
    }

    #[test]
    fn masked_rpca_recovers_constant_despite_imputed_cells(
        (a, low, _sp) in low_rank_plus_sparse(),
        holes in proptest::collection::vec((0usize..9, 0usize..40), 0..8),
    ) {
        // Knock out up to ~10% of the cells the way the fault-aware
        // calibrator would: replace the true value with a last-good /
        // column-median imputation and mark the cell in the mask. RPCA on
        // the imputed matrix must still recover the rank-one constant, and
        // the masked Norm(N_E) must ignore whatever residual lands on the
        // imputed cells.
        let (m, n) = a.shape();
        let budget = (m * n) / 10; // ≤ 10% masked
        let mut masked = a.clone();
        let mut mask = Mat::full(m, n, 1.0);
        let mut knocked = 0usize;
        for (i, j) in holes {
            let (i, j) = (i % m, j % n);
            if knocked >= budget || mask[(i, j)] < 0.5 {
                continue;
            }
            // Column-median imputation from the *other* rows — what
            // LastGood does when history exists (rows of `low` are
            // identical, so any other row's value is the plausible fill).
            let mut col: Vec<f64> = (0..m).filter(|&r| r != i).map(|r| a[(r, j)]).collect();
            col.sort_by(|x, y| x.partial_cmp(y).unwrap());
            masked[(i, j)] = col[col.len() / 2];
            mask[(i, j)] = 0.0;
            knocked += 1;
        }

        let r = apg(&masked, &ApgOptions::default()).unwrap();
        let err = fro_norm(&r.d.sub(&low).unwrap()) / fro_norm(&low).max(1e-12);
        prop_assert!(err < 0.10, "constant recovery error {err} with {knocked} imputed cells");

        // Masked sparsity accounting stays within the unmasked bound it
        // refines: excluding imputed cells cannot *invent* significant
        // errors on observed cells.
        let e = r.exact_error(&masked).unwrap();
        let frac = norm_ne(&e, &masked, &mask);
        prop_assert!((0.0..=1.0).contains(&frac), "masked Norm(N_E) {frac}");
        // The imputed matrix is still low-rank + sparse, so the observed
        // error fraction stays small.
        prop_assert!(frac <= 0.35, "masked Norm(N_E) too large: {frac}");
    }
}
