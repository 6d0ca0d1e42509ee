//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! The Jacobi method applies plane rotations to annihilate off-diagonal
//! entries until the matrix is numerically diagonal. It is unconditionally
//! stable, simple, and — for the small symmetric Gram matrices this
//! workspace produces (typically ≤ a few hundred rows) — fast enough that a
//! more elaborate tridiagonalization + QL pipeline would be wasted
//! complexity.

use crate::{LinalgError, Mat, Result};

/// Maximum number of full sweeps before giving up.
const MAX_SWEEPS: usize = 100;

/// Result of [`eigh`]: eigenvalues sorted descending with matching
/// eigenvectors.
#[derive(Debug, Clone)]
pub struct EighResult {
    /// Eigenvalues, sorted in descending order.
    pub values: Vec<f64>,
    /// Eigenvectors as *columns*; column `k` pairs with `values[k]`.
    pub vectors: Mat,
}

/// Eigendecomposition of a symmetric matrix.
///
/// Only the symmetric part is used: the routine reads `(a + aᵀ)/2`
/// implicitly by averaging mirrored entries into its working copy, so small
/// asymmetries from accumulated rounding are harmless. Returns eigenvalues
/// in descending order.
///
/// The rotations run on flat row-major buffers. Each one updates columns
/// `p` and `q` of the working copy, then its rows `p` and `q`: after a
/// rotation the `(p, q)` and `(q, p)` entries need not hold the same bits,
/// so neither triangle is mirrored from the other. The eigenvectors are
/// kept as rows (`Vᵀ`), so their update also touches two contiguous rows.
///
/// # Errors
/// [`LinalgError::NotSquare`] for non-square input;
/// [`LinalgError::NonFinite`] when the symmetrized input holds a NaN or
/// an infinity, or when an eigenvalue exceeds `f64::MAX`;
/// [`LinalgError::NoConvergence`] if the off-diagonal mass fails to vanish
/// in 100 sweeps (practically unreachable for symmetric input).
pub fn eigh(a: &Mat) -> Result<EighResult> {
    let n = a.rows();
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    if n == 0 {
        return Ok(EighResult {
            values: vec![],
            vectors: Mat::zeros(0, 0),
        });
    }

    // Symmetrized working copy. Two finite entries above f64::MAX / 2
    // overflow their sum, and only then are they halved before adding: a
    // finite sum keeps `0.5 * (x + y)`, so halving a subnormal first
    // cannot move a bit.
    let mut sym = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let (x, y) = (a[(i, j)], a[(j, i)]);
            let sum = x + y;
            sym[(i, j)] = if sum.is_finite() {
                0.5 * sum
            } else {
                0.5 * x + 0.5 * y
            };
        }
    }
    // A NaN off the diagonal would fail every `off > tol` test and skip
    // the sweeps; one on it would break the sort.
    if !sym.as_slice().iter().all(|x| x.is_finite()) {
        return Err(LinalgError::NonFinite);
    }
    let scale = crate::norms::fro_norm(&sym);
    if scale.is_infinite() {
        // Finite entries whose squares overflow would make `tol` infinite
        // and skip every sweep. Solve a copy scaled by 2⁻⁶⁰⁰ (exact but
        // for entries that turn subnormal, far below the tolerance) and
        // scale its eigenvalues back; the eigenvectors do not change.
        let mut r = eigh(&sym.scale(2f64.powi(-600)))?;
        for v in &mut r.values {
            *v *= 2f64.powi(600);
        }
        if r.values.iter().any(|v| v.is_infinite()) {
            return Err(LinalgError::NonFinite);
        }
        return Ok(r);
    }
    let scale = scale.max(f64::MIN_POSITIVE);
    let tol = (1e-15 * scale) * (1e-15 * scale) * (n * n) as f64;
    let mut w = sym.into_vec();
    // Eigenvectors as rows: row `k` of `vt` is column `k` of V.
    let mut vt = Mat::eye(n).into_vec();

    let off = |w: &[f64]| -> f64 {
        let mut s = 0.0;
        for (i, row) in w.chunks_exact(n).enumerate() {
            for &x in &row[i + 1..] {
                s += x * x;
            }
        }
        s
    };

    let mut sweeps = 0;
    while off(&w) > tol {
        sweeps += 1;
        if sweeps > MAX_SWEEPS {
            return Err(LinalgError::NoConvergence {
                routine: "eigh",
                iters: MAX_SWEEPS,
            });
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = w[p * n + q];
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = w[p * n + p];
                let aqq = w[q * n + q];
                // Standard Jacobi rotation choosing the smaller angle.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Columns p and q of the working matrix, then its rows p
                // and q (which read the updated (p,q) block), then the
                // eigenvector rows.
                for row in w.chunks_exact_mut(n) {
                    let (wkp, wkq) = (row[p], row[q]);
                    row[p] = c * wkp - s * wkq;
                    row[q] = s * wkp + c * wkq;
                }
                rotate_rows(&mut w, n, p, q, c, s);
                rotate_rows(&mut vt, n, p, q, c, s);
            }
        }
    }

    // Sort descending by eigenvalue, permuting eigenvectors to match.
    let diag: Vec<f64> = (0..n).map(|i| w[i * n + i]).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        diag[j]
            .partial_cmp(&diag[i])
            .expect("rotations of a finite matrix keep its diagonal free of NaN")
    });
    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = Mat::zeros(n, n);
    for (newc, &oldc) in order.iter().enumerate() {
        for (r, &x) in vt[oldc * n..(oldc + 1) * n].iter().enumerate() {
            vectors[(r, newc)] = x;
        }
    }
    Ok(EighResult { values, vectors })
}

/// Rotate rows `p < q` of the row-major `n`-column buffer `m` in their
/// plane: `(x_p, x_q) ← (c·x_p − s·x_q, s·x_p + c·x_q)`, elementwise.
fn rotate_rows(m: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = m.split_at_mut(q * n);
    let (rp, rq) = (&mut head[p * n..(p + 1) * n], &mut tail[..n]);
    for (x, y) in rp.iter_mut().zip(rq) {
        let (xp, xq) = (*x, *y);
        *x = c * xp - s * xq;
        *y = s * xp + c * xq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(r: &EighResult) -> Mat {
        let lam = Mat::diag(&r.values);
        r.vectors
            .matmul(&lam)
            .unwrap()
            .matmul(&r.vectors.transpose())
            .unwrap()
    }

    #[test]
    fn diagonal_matrix() {
        let a = Mat::diag(&[3.0, 1.0, 2.0]);
        let r = eigh(&a).unwrap();
        assert_eq!(r.values, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let r = eigh(&a).unwrap();
        assert!((r.values[0] - 3.0).abs() < 1e-12);
        assert!((r.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_identity() {
        let a = Mat::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]);
        let r = eigh(&a).unwrap();
        let b = reconstruct(&r);
        for i in 0..3 {
            for j in 0..3 {
                assert!((a[(i, j)] - b[(i, j)]).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = Mat::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]);
        let r = eigh(&a).unwrap();
        let vtv = r.vectors.transpose().matmul(&r.vectors).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn not_square_errors() {
        assert!(matches!(
            eigh(&Mat::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn empty_input() {
        let r = eigh(&Mat::zeros(0, 0)).unwrap();
        assert!(r.values.is_empty());
    }

    #[test]
    fn non_finite_input_errors() {
        // A NaN off the diagonal used to skip every sweep and return
        // [1, 0, 0]; one on the diagonal used to panic in the sort.
        let mut off = Mat::eye(3);
        off[(0, 1)] = f64::NAN;
        let mut diag = Mat::eye(3);
        diag[(2, 2)] = f64::NAN;
        let mut inf = Mat::eye(3);
        inf[(1, 2)] = f64::INFINITY;
        for a in [off, diag, inf] {
            assert!(matches!(eigh(&a), Err(LinalgError::NonFinite)), "{a:?}");
        }
    }

    #[test]
    fn overflowing_norm_still_sweeps() {
        // The Frobenius norm overflows; this used to return the untouched
        // diagonal [1e200, 1e200].
        let a = Mat::from_rows(&[&[1e200, 1e200], &[1e200, 1e200]]);
        let r = eigh(&a).unwrap();
        assert!((r.values[0] / 2e200 - 1.0).abs() < 1e-15, "{:?}", r.values);
        assert!(r.values[1].abs() < 1e-15 * 2e200, "{:?}", r.values);
        for &x in reconstruct(&r).as_slice() {
            assert!((x / 1e200 - 1.0).abs() < 1e-12, "{x}");
        }
        // An eigenvalue past f64::MAX (here 2.4e308) is an error, not an
        // infinity.
        let big = Mat::full(3, 3, 8e307);
        assert!(matches!(eigh(&big), Err(LinalgError::NonFinite)));
        // Entries above f64::MAX / 2 overflow a plain `a + aᵀ`; the
        // eigenvalues ±1e308 are finite.
        let wide = Mat::from_rows(&[&[0.0, 1e308], &[1e308, 0.0]]);
        let r = eigh(&wide).unwrap();
        assert!((r.values[0] / 1e308 - 1.0).abs() < 1e-15, "{:?}", r.values);
        assert!((r.values[1] / -1e308 - 1.0).abs() < 1e-15, "{:?}", r.values);
    }

    #[test]
    fn zero_matrix() {
        let r = eigh(&Mat::zeros(4, 4)).unwrap();
        assert!(r.values.iter().all(|&v| v == 0.0));
    }
}
