//! Singular value decompositions tuned for RPCA workloads.
//!
//! Temporal performance matrices are extremely lopsided — a handful of
//! calibration rows against `N²` link columns (e.g. `10 × 38416` for 196
//! instances). [`svd_thin`] therefore works through the Gram matrix of the
//! *small* dimension: an `m × m` symmetric eigenproblem plus one
//! matrix-vector pass recovers the full thin SVD at `O(m²n)` cost instead of
//! an `O(mn²)` bidiagonalization. [`svd_jacobi`] is a one-sided Jacobi SVD —
//! slower but independently derived — used as a cross-check and for small
//! dense problems.
//!
//! The Gram matrix fixes the bits of everything downstream of it, so its
//! contract is exact: entry `(i, j)` of [`Mat::gram_rows`] (and of
//! [`Mat::gram_cols`] for a tall input) sums its products one by one, from
//! `-0.0`, in ascending order along the long dimension. How the kernel
//! tiles the entries to run several sums at once is free; the order within
//! each entry is not.

use crate::eigen::eigh;
use crate::{LinalgError, Mat, Result};
use rayon::prelude::*;

/// Maximum sweeps for the one-sided Jacobi SVD.
const MAX_JACOBI_SWEEPS: usize = 60;

/// Minimum output-column count before the V-accumulation in
/// [`svd_via_row_gram`] fans out across threads.
const PAR_V_COLS: usize = 4096;

/// A (thin or truncated) singular value decomposition `A ≈ U Σ Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors as columns, `m × k`.
    pub u: Mat,
    /// Singular values, descending, length `k`.
    pub s: Vec<f64>,
    /// Right singular vectors as columns, `n × k`.
    pub v: Mat,
}

impl Svd {
    /// Number of retained singular triplets.
    pub fn k(&self) -> usize {
        self.s.len()
    }

    /// Reconstruct `U Σ Vᵀ`.
    pub fn reconstruct(&self) -> Result<Mat> {
        if self.s.is_empty() {
            return Ok(Mat::zeros(self.u.rows(), self.v.rows()));
        }
        let us = scale_cols(&self.u, &self.s);
        us.matmul(&self.v.transpose())
    }

    /// Numerical rank: number of singular values above `rel_tol * s[0]`.
    pub fn rank(&self, rel_tol: f64) -> usize {
        match self.s.first() {
            None => 0,
            Some(&s0) => {
                if s0 == 0.0 {
                    0
                } else {
                    self.s.iter().filter(|&&x| x > rel_tol * s0).count()
                }
            }
        }
    }

    /// Nuclear norm of the retained part: `Σ σᵢ`.
    pub fn nuclear_norm(&self) -> f64 {
        self.s.iter().sum()
    }
}

/// Multiply column `j` of `m` by `s[j]`.
fn scale_cols(m: &Mat, s: &[f64]) -> Mat {
    let mut out = m.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        for (v, &sc) in row.iter_mut().zip(s.iter()) {
            *v *= sc;
        }
    }
    out
}

/// Thin SVD via the Gram matrix of the smaller dimension.
///
/// Returns `k = min(m, n)` triplets. Columns of `U`/`V` associated with
/// singular values at or below `rel_zero_tol * σ_max` are zeroed rather than
/// fabricated (the Gram trick cannot recover them); reconstruction is
/// unaffected because the matching `σ` is (numerically) zero.
pub fn svd_thin(a: &Mat) -> Result<Svd> {
    svd_trunc(a, 0.0)
}

/// SVD truncated to singular values strictly greater than `min_sv`.
///
/// `min_sv = 0.0` keeps all `min(m, n)` triplets (zero-σ columns zeroed, see
/// [`svd_thin`]). This is the workhorse for singular-value thresholding:
/// pass the threshold `τ` and only the triplets that survive shrinkage come
/// back.
pub fn svd_trunc(a: &Mat, min_sv: f64) -> Result<Svd> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::Empty);
    }
    if m <= n {
        svd_via_row_gram(a, min_sv)
    } else {
        // Compute on the transpose and swap factors.
        let t = a.transpose();
        let svd = svd_via_row_gram(&t, min_sv)?;
        Ok(Svd {
            u: svd.v,
            s: svd.s,
            v: svd.u,
        })
    }
}

/// Core Gram-trick SVD for `m ≤ n`: eigendecompose `A Aᵀ`.
fn svd_via_row_gram(a: &Mat, min_sv: f64) -> Result<Svd> {
    let n = a.cols();
    let f = GramFactors::new(&a.gram_rows(), min_sv)?;
    let k = f.s.len();
    // Vᵀ row-major: row `col` is `Aᵀ u_col / σ`, zero for σ ≈ 0.
    let mut vt = vec![0.0; k * n];
    for (col, v_row) in vt.chunks_exact_mut(n).enumerate() {
        let Some(coeffs) = f.coeffs(col) else {
            continue;
        };
        let accumulate = |(chunk_idx, chunk): (usize, &mut [f64])| {
            let base = chunk_idx * PAR_V_COLS;
            accumulate_rows(chunk, &coeffs, |row| &a.row(row)[base..]);
        };
        if n >= 2 * PAR_V_COLS {
            v_row
                .par_chunks_mut(PAR_V_COLS)
                .enumerate()
                .for_each(accumulate);
        } else {
            v_row
                .chunks_mut(PAR_V_COLS)
                .enumerate()
                .for_each(accumulate);
        }
    }
    let mut v = Mat::zeros(n, k);
    for (col, v_row) in vt.chunks_exact(n).enumerate() {
        for (c, &val) in v_row.iter().enumerate() {
            v[(c, col)] = val;
        }
    }
    Ok(Svd { u: f.u, s: f.s, v })
}

/// The Gram-trick factors of a matrix `A` (`m ≤ n`) read off the
/// eigendecomposition of its `m × m` row Gram matrix `A Aᵀ`, for the
/// singular values strictly greater than a threshold.
pub(crate) struct GramFactors {
    /// Singular values, descending.
    pub s: Vec<f64>,
    /// Left singular vectors as columns, `m × k`.
    pub u: Mat,
    /// Singular values at or below this are numerically zero: their right
    /// singular vectors cannot be recovered and are left at zero.
    zero_tol: f64,
}

impl GramFactors {
    /// Factor the Gram matrix `g`, keeping singular values `> min_sv`.
    pub fn new(g: &Mat, min_sv: f64) -> Result<Self> {
        let m = g.rows();
        let eig = eigh(g)?;
        let smax = eig.values.first().copied().unwrap_or(0.0).max(0.0).sqrt();
        let keep: Vec<(f64, usize)> = eig
            .values
            .iter()
            .enumerate()
            .map(|(idx, &lam)| (lam.max(0.0).sqrt(), idx))
            .filter(|&(sigma, _)| sigma > min_sv)
            .collect();
        // When min_sv == 0.0 this keeps exactly min(m,n) = m triplets.
        let mut u = Mat::zeros(m, keep.len());
        for (col, &(_, idx)) in keep.iter().enumerate() {
            for r in 0..m {
                u[(r, col)] = eig.vectors[(r, idx)];
            }
        }
        Ok(GramFactors {
            s: keep.iter().map(|&(sigma, _)| sigma).collect(),
            u,
            zero_tol: crate::DEFAULT_RELATIVE_TOL * smax,
        })
    }

    /// The row weights `u_col / σ` that turn `A`'s rows into the right
    /// singular vector `v_col = Aᵀ u_col / σ` (see [`accumulate_rows`]),
    /// or `None` when `σ` is numerically zero.
    pub fn coeffs(&self, col: usize) -> Option<Vec<f64>> {
        let sigma = self.s[col];
        (sigma > self.zero_tol && sigma > 0.0).then(|| {
            (0..self.u.rows())
                .map(|r| self.u[(r, col)] / sigma)
                .collect()
        })
    }
}

/// `out[c] += Σ_row coeffs[row] · rows(row)[c]`, over the rows in
/// ascending order and skipping zero coefficients — the one accumulation
/// order of every Gram-trick singular vector. Element `c` depends on
/// column `c` of the rows alone, so any split of `out` into column ranges
/// (`rows(row)` starting at the range's first column) gives the same bits.
pub(crate) fn accumulate_rows<'a>(
    out: &mut [f64],
    coeffs: &[f64],
    rows: impl Fn(usize) -> &'a [f64],
) {
    for (row, &coeff) in coeffs.iter().enumerate() {
        if coeff == 0.0 {
            continue;
        }
        for (o, &av) in out.iter_mut().zip(rows(row)) {
            *o += coeff * av;
        }
    }
}

/// One-sided Jacobi SVD.
///
/// Orthogonalizes the columns of a working copy with plane rotations until
/// all column pairs are numerically orthogonal; column norms become the
/// singular values. Quadratically convergent and very accurate, but `O(mn²)`
/// per sweep — use for small matrices and validation. Returns all
/// `min(m, n)` triplets in descending order.
pub fn svd_jacobi(a: &Mat) -> Result<Svd> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::Empty);
    }
    if m < n {
        let svd = svd_jacobi(&a.transpose())?;
        return Ok(Svd {
            u: svd.v,
            s: svd.s,
            v: svd.u,
        });
    }

    let mut w = a.clone(); // m × n, m ≥ n
    let mut v = Mat::eye(n);
    let eps = 1e-15;

    for sweep in 0..=MAX_JACOBI_SWEEPS {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                if apq.abs() <= eps * (app * aqq).sqrt() {
                    continue;
                }
                rotated = true;
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    w[(i, p)] = c * wp - s * wq;
                    w[(i, q)] = s * wp + c * wq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if !rotated {
            break;
        }
        if sweep == MAX_JACOBI_SWEEPS {
            return Err(LinalgError::NoConvergence {
                routine: "svd_jacobi",
                iters: MAX_JACOBI_SWEEPS,
            });
        }
    }

    // Extract singular values (column norms) and normalize U.
    let mut trips: Vec<(f64, usize)> = (0..n)
        .map(|j| {
            let norm: f64 = (0..m).map(|i| w[(i, j)] * w[(i, j)]).sum::<f64>().sqrt();
            (norm, j)
        })
        .collect();
    trips.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

    let mut u = Mat::zeros(m, n);
    let mut vout = Mat::zeros(n, n);
    let mut s = Vec::with_capacity(n);
    for (col, &(sigma, j)) in trips.iter().enumerate() {
        s.push(sigma);
        if sigma > 0.0 {
            for i in 0..m {
                u[(i, col)] = w[(i, j)] / sigma;
            }
        }
        for i in 0..n {
            vout[(i, col)] = v[(i, j)];
        }
    }
    Ok(Svd { u, s, v: vout })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::fro_norm;

    fn assert_close(a: &Mat, b: &Mat, tol: f64) {
        let d = a.sub(b).unwrap();
        let err = fro_norm(&d);
        assert!(err < tol, "reconstruction error {err}");
    }

    #[test]
    fn diagonal_known() {
        let a = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        let svd = svd_thin(&a).unwrap();
        assert!((svd.s[0] - 4.0).abs() < 1e-10);
        assert!((svd.s[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn reconstruct_wide() {
        let a = Mat::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0, 5.0],
            &[2.0, 3.0, 5.0, 7.0, 11.0],
            &[0.5, -1.0, 4.0, 2.0, -3.0],
        ]);
        let svd = svd_thin(&a).unwrap();
        assert_eq!(svd.k(), 3);
        assert_close(&svd.reconstruct().unwrap(), &a, 1e-9);
    }

    #[test]
    fn reconstruct_tall() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[-1.0, 0.5]]);
        let svd = svd_thin(&a).unwrap();
        assert_eq!(svd.k(), 2);
        assert_close(&svd.reconstruct().unwrap(), &a, 1e-10);
    }

    #[test]
    fn rank_one_detected() {
        let a = Mat::outer(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0, 7.0]);
        let svd = svd_thin(&a).unwrap();
        assert_eq!(svd.rank(1e-8), 1);
        assert_close(&svd.reconstruct().unwrap(), &a, 1e-9);
    }

    #[test]
    fn truncation_drops_small() {
        let a = Mat::from_rows(&[&[10.0, 0.0], &[0.0, 0.001]]);
        let svd = svd_trunc(&a, 0.5).unwrap();
        assert_eq!(svd.k(), 1);
        assert!((svd.s[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn gram_matches_jacobi() {
        let a = Mat::from_rows(&[
            &[1.0, 2.0, 0.5, -1.0],
            &[0.0, 1.0, 3.0, 2.0],
            &[4.0, -2.0, 1.0, 0.0],
        ]);
        let s1 = svd_thin(&a).unwrap();
        let s2 = svd_jacobi(&a).unwrap();
        for (a_, b_) in s1.s.iter().zip(s2.s.iter()) {
            assert!((a_ - b_).abs() < 1e-8, "{a_} vs {b_}");
        }
    }

    #[test]
    fn jacobi_reconstruct() {
        let a = Mat::from_rows(&[
            &[2.0, 0.0, 1.0],
            &[-1.0, 1.0, 0.0],
            &[0.0, 3.0, 1.0],
            &[1.0, 1.0, 1.0],
        ]);
        let svd = svd_jacobi(&a).unwrap();
        assert_close(&svd.reconstruct().unwrap(), &a, 1e-10);
    }

    #[test]
    fn singular_values_descending() {
        let a = Mat::from_rows(&[&[0.3, 1.7, -2.0, 0.0, 5.0], &[1.0, 1.0, 1.0, 1.0, 1.0]]);
        let svd = svd_thin(&a).unwrap();
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn u_orthonormal_on_rank() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let svd = svd_thin(&a).unwrap();
        let utu = svd.u.transpose().matmul(&svd.u).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((utu[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn empty_errors() {
        assert!(matches!(
            svd_thin(&Mat::zeros(0, 5)),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn nuclear_norm_of_diag() {
        let a = Mat::diag(&[2.0, 3.0, 5.0]);
        let svd = svd_thin(&a).unwrap();
        assert!((svd.nuclear_norm() - 10.0).abs() < 1e-9);
    }
}
