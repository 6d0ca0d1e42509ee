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
/// # Errors
/// [`LinalgError::NotSquare`] for non-square input;
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

    // Symmetrized working copy.
    let mut w = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            w[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
        }
    }
    let mut v = Mat::eye(n);

    let off = |w: &Mat| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                s += w[(i, j)] * w[(i, j)];
            }
        }
        s
    };
    let scale = crate::norms::fro_norm(&w).max(f64::MIN_POSITIVE);
    let tol = (1e-15 * scale) * (1e-15 * scale) * (n * n) as f64;

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
                let apq = w[(p, q)];
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = w[(p, p)];
                let aqq = w[(q, q)];
                // Standard Jacobi rotation choosing the smaller angle.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Update rows/cols p and q of the symmetric working matrix.
                for k in 0..n {
                    let wkp = w[(k, p)];
                    let wkq = w[(k, q)];
                    w[(k, p)] = c * wkp - s * wkq;
                    w[(k, q)] = s * wkp + c * wkq;
                }
                for k in 0..n {
                    let wpk = w[(p, k)];
                    let wqk = w[(q, k)];
                    w[(p, k)] = c * wpk - s * wqk;
                    w[(q, k)] = s * wpk + c * wqk;
                }
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Sort descending by eigenvalue, permuting eigenvector columns to match.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| w[(i, i)]).collect();
    order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).unwrap());
    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = Mat::zeros(n, n);
    for (newc, &oldc) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(r, newc)] = v[(r, oldc)];
        }
    }
    Ok(EighResult { values, vectors })
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
    fn zero_matrix() {
        let r = eigh(&Mat::zeros(4, 4)).unwrap();
        assert!(r.values.iter().all(|&v| v == 0.0));
    }
}
