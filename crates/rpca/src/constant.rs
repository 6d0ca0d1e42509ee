//! Extraction of the paper's rank-one constant component.
//!
//! The paper's problem (§III) constrains the temporal constant matrix `N_D`
//! to rank one *with all rows identical*: one estimated pair-wise
//! performance vector repeated per snapshot. A generic RPCA solver returns a
//! low-rank `D` whose numerical rank can be slightly above one and whose
//! rows differ a little; this module collapses `D` to the paper's canonical
//! form and returns the single constant row.

use crate::Result;
use cloudconst_linalg::{svd_trunc, Mat};

/// How to collapse the low-rank RPCA component to one constant row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstantMethod {
    /// Rank-1 truncation: keep the top singular triplet `σ₁u₁v₁ᵀ` and
    /// average its rows (`σ₁·mean(u₁)·v₁ᵀ`). This is the closest rank-one,
    /// identical-row matrix in the Frobenius sense and the default.
    TopSingular,
    /// Column means of `D` — robust when `D` has small rank-2 leakage.
    MeanRow,
    /// Column medians of `D` — robust to a snapshot the solver failed to
    /// fully clean.
    MedianRow,
}

/// Collapse a low-rank matrix `d` to the constant (per-link long-term)
/// performance row, length `d.cols()`.
///
/// # Errors
/// Propagates SVD failures for [`ConstantMethod::TopSingular`].
pub fn extract_constant(d: &Mat, method: ConstantMethod) -> Result<Vec<f64>> {
    match method {
        ConstantMethod::MeanRow => Ok(d.col_means()),
        ConstantMethod::MedianRow => Ok(d.col_medians()),
        ConstantMethod::TopSingular => {
            let svd = svd_trunc(d, 0.0)?;
            if svd.s.is_empty() || svd.s[0] == 0.0 {
                return Ok(vec![0.0; d.cols()]);
            }
            let sigma = svd.s[0];
            let u1 = svd.u.col(0);
            let mean_u: f64 = u1.iter().sum::<f64>() / u1.len() as f64;
            let scale = sigma * mean_u;
            Ok(svd.v.col(0).iter().map(|&v| v * scale).collect())
        }
    }
}

/// Expand a constant row back into the paper's `N_D` matrix form: `rows`
/// identical copies of `constant`.
pub fn constant_matrix(constant: &[f64], rows: usize) -> Mat {
    let mut m = Mat::zeros(rows, constant.len());
    for i in 0..rows {
        m.row_mut(i).copy_from_slice(constant);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identical_rows(row: &[f64], n: usize) -> Mat {
        constant_matrix(row, n)
    }

    #[test]
    fn identical_rows_recovered_exactly_all_methods() {
        let row = [3.0, 1.0, 4.0, 1.5];
        let d = identical_rows(&row, 6);
        for m in [
            ConstantMethod::TopSingular,
            ConstantMethod::MeanRow,
            ConstantMethod::MedianRow,
        ] {
            let c = extract_constant(&d, m).unwrap();
            for (a, b) in c.iter().zip(row.iter()) {
                assert!((a - b).abs() < 1e-9, "{m:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn top_singular_handles_scaled_rows() {
        // Rank-1 but rows scaled differently: constant = average row.
        let base = [2.0, 4.0, 6.0];
        let d = Mat::from_rows(&[&[2.0, 4.0, 6.0], &[2.2, 4.4, 6.6], &[1.8, 3.6, 5.4]]);
        let c = extract_constant(&d, ConstantMethod::TopSingular).unwrap();
        for (a, b) in c.iter().zip(base.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn median_row_ignores_outlier_row() {
        let mut d = identical_rows(&[5.0, 5.0, 5.0], 5);
        d.row_mut(2).copy_from_slice(&[500.0, 500.0, 500.0]);
        let c = extract_constant(&d, ConstantMethod::MedianRow).unwrap();
        assert_eq!(c, vec![5.0, 5.0, 5.0]);
    }

    #[test]
    fn zero_matrix_gives_zero_constant() {
        let d = Mat::zeros(4, 3);
        let c = extract_constant(&d, ConstantMethod::TopSingular).unwrap();
        assert_eq!(c, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn constant_matrix_rank_one_identical_rows() {
        let c = [1.0, 2.0, 3.0];
        let m = constant_matrix(&c, 4);
        assert_eq!(m.shape(), (4, 3));
        for i in 0..4 {
            assert_eq!(m.row(i), &c);
        }
        let svd = svd_trunc(&m, 0.0).unwrap();
        assert_eq!(svd.rank(1e-10), 1);
    }
}
