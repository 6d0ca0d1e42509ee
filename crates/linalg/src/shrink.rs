//! Proximal (shrinkage) operators used by RPCA.
//!
//! * [`soft_threshold`] — the proximal operator of `τ‖·‖₁`: shrink every
//!   entry toward zero by `τ`, clamping at zero.
//! * [`svt`] — singular-value thresholding, the proximal operator of
//!   `τ‖·‖*` (nuclear norm): soft-threshold the singular values.
//!   [`svt_in_place`] is the same operator overwriting its input.

use crate::svd::{accumulate_rows, GramFactors};
use crate::{LinalgError, Mat, Result};
use rayon::prelude::*;

/// Element count above which shrinkage fans out across threads. The
/// operation is pure per-element, so the parallel path is bit-identical to
/// the serial one.
const PAR_SHRINK_ELEMS: usize = 1 << 15;

/// Chunk length for parallel shrinkage.
const SHRINK_CHUNK: usize = 4096;

/// Elementwise soft-thresholding: `sign(x) · max(|x| − tau, 0)`.
pub fn soft_threshold(m: &Mat, tau: f64) -> Mat {
    let mut out = m.clone();
    soft_threshold_into(&mut out, tau);
    out
}

/// In-place variant of [`soft_threshold`].
pub fn soft_threshold_into(m: &mut Mat, tau: f64) {
    let data = m.as_mut_slice();
    if data.len() >= PAR_SHRINK_ELEMS {
        data.par_chunks_mut(SHRINK_CHUNK).for_each(|chunk| {
            for x in chunk {
                *x = shrink_scalar(*x, tau);
            }
        });
    } else {
        for x in data {
            *x = shrink_scalar(*x, tau);
        }
    }
}

/// One elementwise pass with two outputs, such as a proximal step that
/// splits one gradient into two blocks: calls `f(offset, x_chunk,
/// y_chunk)` on aligned, equally long chunks covering `x` and `y`, where
/// `offset` is the chunk's first index. Chunks fan out across threads
/// above the shrinkage threshold; `f` must compute each element from its
/// index alone, which makes the result independent of the thread count.
pub fn for_each_chunk_pair(
    x: &mut [f64],
    y: &mut [f64],
    f: impl Fn(usize, &mut [f64], &mut [f64]) + Sync,
) {
    assert_eq!(
        x.len(),
        y.len(),
        "for_each_chunk_pair: outputs differ in length"
    );
    if x.len() >= PAR_SHRINK_ELEMS {
        let mut pairs: Vec<(&mut [f64], &mut [f64])> = x
            .chunks_mut(SHRINK_CHUNK)
            .zip(y.chunks_mut(SHRINK_CHUNK))
            .collect();
        pairs
            .par_chunks_mut(1)
            .enumerate()
            .for_each(|(c, pair)| f(c * SHRINK_CHUNK, pair[0].0, pair[0].1));
    } else {
        f(0, x, y);
    }
}

/// Scalar soft-thresholding: `sign(x) · max(|x| − tau, 0)`.
#[inline]
pub fn shrink_scalar(x: f64, tau: f64) -> f64 {
    if x > tau {
        x - tau
    } else if x < -tau {
        x + tau
    } else {
        0.0
    }
}

/// Result of a singular-value thresholding step.
#[derive(Debug, Clone)]
pub struct SvtResult {
    /// The thresholded matrix `U (Σ − τ)₊ Vᵀ`.
    pub mat: Mat,
    /// Rank after thresholding (number of surviving singular values).
    pub rank: usize,
    /// Nuclear norm of the result.
    pub nuclear: f64,
}

/// Singular-value thresholding: `D_τ(A) = U (Σ − τI)₊ Vᵀ`.
///
/// Only singular triplets with `σ > τ` are computed (the truncated SVD never
/// materializes the rest), which is what keeps RPCA iterations cheap on wide
/// matrices whose low-rank part has tiny rank. Allocates its result; see
/// [`svt_in_place`] for the kernel.
pub fn svt(a: &Mat, tau: f64) -> Result<SvtResult> {
    let mut mat = a.clone();
    let (rank, nuclear) = svt_in_place(&mut mat, tau)?;
    Ok(SvtResult { mat, rank, nuclear })
}

/// [`svt`] in place: overwrites `a` with `U (Σ − τI)₊ Vᵀ` of itself and
/// returns `(rank, nuclear norm)` of the result.
///
/// The factors come from the Gram matrix of the small dimension. The
/// surviving singular vectors of the large dimension are then formed and
/// consumed one block at a time — a block of columns of a wide `a`, a
/// block of rows of a tall one — so besides the `k` factors the scratch
/// is `k` values per column of a block (`k` in all for a tall `a`), and
/// nothing proportional to `a` is allocated.
///
/// Bit-identical to the thresholded `svd_trunc(a, τ)` reconstruction
/// `(U·diag(σ − τ))·Vᵀ` through [`Mat::matmul`], for any thread count:
/// each singular-vector element accumulates in the order of
/// [`svd_trunc`](crate::svd_trunc), and each output element sums its `k`
/// terms in ascending order, skipping zero `U·diag(σ − τ)` entries, as
/// `matmul` does.
///
/// # Errors
/// [`LinalgError::Empty`] for an empty `a`.
pub fn svt_in_place(a: &mut Mat, tau: f64) -> Result<(usize, f64)> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::Empty);
    }
    let par = m * n >= PAR_SVT_ELEMS;
    // Wide: the Gram eigenvectors are U and Vᵀ is accumulated from A's
    // rows. Tall: the roles swap — the eigenvectors of AᵀA are V and each
    // row of U is accumulated from the matching row of A.
    let f = GramFactors::new(&if m <= n { a.gram_rows() } else { a.gram_cols() }, tau)?;
    let shrunk: Vec<f64> = f.s.iter().map(|&s| s - tau).collect();
    let k = shrunk.len();
    let coeffs: Vec<Option<Vec<f64>>> = (0..k).map(|col| f.coeffs(col)).collect();
    if m <= n {
        // One block of columns: its rows of A, one slice per row.
        let block = |rows: &mut [&mut [f64]]| {
            let w = rows[0].len();
            let mut vt = vec![0.0; k * w];
            for (v_row, c) in vt.chunks_exact_mut(w).zip(&coeffs) {
                if let Some(c) = c {
                    accumulate_rows(v_row, c, |r| &*rows[r]);
                }
            }
            for (i, out) in rows.iter_mut().enumerate() {
                write_row(out, |kk| f.u[(i, kk)] * shrunk[kk], &vt);
            }
        };
        let mut blocks: Vec<Vec<&mut [f64]>> = (0..n.div_ceil(SVT_BLOCK))
            .map(|_| Vec::with_capacity(m))
            .collect();
        for row in a.as_mut_slice().chunks_exact_mut(n) {
            for (b, part) in blocks.iter_mut().zip(row.chunks_mut(SVT_BLOCK)) {
                b.push(part);
            }
        }
        if par {
            blocks.par_chunks_mut(1).for_each(|b| block(&mut b[0]));
        } else {
            blocks.iter_mut().for_each(|b| block(b));
        }
    } else {
        // Vᵀ row-major, the layout each output row streams.
        let vt = f.u.transpose().into_vec();
        // One block of rows: each row's U entries, then the row itself.
        let block = |rows: &mut [f64]| {
            let mut u_row = vec![0.0; k];
            for out in rows.chunks_exact_mut(n) {
                for (u, c) in u_row.iter_mut().zip(&coeffs) {
                    *u = 0.0;
                    if let Some(c) = c {
                        accumulate_rows(std::slice::from_mut(u), c, |j| &out[j..]);
                    }
                }
                write_row(out, |kk| u_row[kk] * shrunk[kk], &vt);
            }
        };
        let chunk = n * SVT_BLOCK.div_ceil(n);
        if par {
            a.as_mut_slice().par_chunks_mut(chunk).for_each(block);
        } else {
            a.as_mut_slice().chunks_mut(chunk).for_each(block);
        }
    }
    let nuclear = if k == 0 { 0.0 } else { shrunk.iter().sum() };
    Ok((k, nuclear))
}

/// Element count from which [`svt_in_place`] fans its blocks out across
/// threads.
const PAR_SVT_ELEMS: usize = 1 << 16;

/// Columns (of a wide input) or elements (of a tall one) per block of
/// [`svt_in_place`].
const SVT_BLOCK: usize = 1024;

/// `out = Σ_k us(k) · vt[k]` for `vt` holding `out.len()`-long rows: each
/// element sums over `k` in ascending order and skips zero `us(k)` — the
/// order and skip of [`Mat::matmul`].
fn write_row(out: &mut [f64], us: impl Fn(usize) -> f64, vt: &[f64]) {
    out.fill(0.0);
    for (kk, v_row) in vt.chunks_exact(out.len()).enumerate() {
        let a = us(kk);
        if a == 0.0 {
            continue;
        }
        for (o, &b) in out.iter_mut().zip(v_row) {
            *o += a * b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::fro_norm;

    #[test]
    fn soft_threshold_scalar_cases() {
        let m = Mat::from_rows(&[&[3.0, -3.0, 0.5, -0.5, 0.0]]);
        let s = soft_threshold(&m, 1.0);
        assert_eq!(s.as_slice(), &[2.0, -2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn soft_threshold_zero_tau_is_identity() {
        let m = Mat::from_rows(&[&[1.0, -2.0], &[0.0, 4.0]]);
        assert_eq!(soft_threshold(&m, 0.0), m);
    }

    #[test]
    fn soft_threshold_into_matches() {
        let m = Mat::from_rows(&[&[3.0, -0.2], &[1.5, -9.0]]);
        let mut m2 = m.clone();
        soft_threshold_into(&mut m2, 1.0);
        assert_eq!(m2, soft_threshold(&m, 1.0));
    }

    #[test]
    fn svt_diagonal() {
        let a = Mat::diag(&[5.0, 2.0, 0.5]);
        let r = svt(&a, 1.0).unwrap();
        assert_eq!(r.rank, 2);
        assert!((r.mat[(0, 0)] - 4.0).abs() < 1e-9);
        assert!((r.mat[(1, 1)] - 1.0).abs() < 1e-9);
        assert!(r.mat[(2, 2)].abs() < 1e-9);
        assert!((r.nuclear - 5.0).abs() < 1e-9);
    }

    #[test]
    fn svt_kills_everything_with_huge_tau() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let r = svt(&a, 1e6).unwrap();
        assert_eq!(r.rank, 0);
        assert_eq!(fro_norm(&r.mat), 0.0);
    }

    #[test]
    fn svt_shrinks_nuclear_norm() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
        let before = crate::svd::svd_thin(&a).unwrap().nuclear_norm();
        let r = svt(&a, 0.5).unwrap();
        assert!(r.nuclear < before);
    }

    #[test]
    fn svt_preserves_rank_one_direction() {
        let a = Mat::outer(&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]);
        let r = svt(&a, 0.1).unwrap();
        assert_eq!(r.rank, 1);
        // Result is still (approximately) constant.
        let vals = r.mat.as_slice();
        for v in vals {
            assert!((v - vals[0]).abs() < 1e-9);
        }
    }
}
