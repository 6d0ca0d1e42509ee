//! Proximal (shrinkage) operators used by RPCA.
//!
//! * [`soft_threshold`] — the proximal operator of `τ‖·‖₁`: shrink every
//!   entry toward zero by `τ`, clamping at zero.
//! * [`svt`] — singular-value thresholding, the proximal operator of
//!   `τ‖·‖*` (nuclear norm): soft-threshold the singular values.
//!   [`svt_into`] is the same operator over caller buffers.

use crate::mat::PAR_MATMUL_FLOPS;
use crate::svd::row_gram_factors;
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
/// [`svt_into`] for the caller-buffer form.
pub fn svt(a: &Mat, tau: f64) -> Result<SvtResult> {
    let mut mat = Mat::zeros(a.rows(), a.cols());
    let (rank, nuclear) = svt_into(a, tau, &mut mat, &mut Vec::new())?;
    Ok(SvtResult { mat, rank, nuclear })
}

/// [`svt`] into caller buffers: overwrites `out` (the shape of `a`) with
/// `U (Σ − τI)₊ Vᵀ` and returns `(rank, nuclear norm)` of the result.
///
/// `vt` is scratch for `Vᵀ`: it is kept row-major (`rank` rows of length
/// `max(m, n)`), which is the order the reconstruction reads, so `V` is
/// never transposed. Give it capacity `m·n` and reuse it, and repeated
/// calls allocate nothing proportional to `a`. A tall `a` (`m > n`) is
/// decomposed through its transpose, one `m × n` copy per call.
///
/// Bit-identical to the thresholded `svd_trunc(a, τ)` reconstruction
/// `(U·diag(σ − τ))·Vᵀ` through [`Mat::matmul`], for any thread count.
///
/// # Errors
/// [`LinalgError::ShapeMismatch`] when `out` differs from `a` in shape;
/// [`LinalgError::Empty`] for an empty `a`.
pub fn svt_into(a: &Mat, tau: f64, out: &mut Mat, vt: &mut Vec<f64>) -> Result<(usize, f64)> {
    let (m, n) = a.shape();
    if out.shape() != a.shape() {
        return Err(LinalgError::ShapeMismatch {
            op: "svt_into",
            lhs: a.shape(),
            rhs: out.shape(),
        });
    }
    if m == 0 || n == 0 {
        return Err(LinalgError::Empty);
    }
    let shrink = |s: &[f64]| -> Vec<f64> { s.iter().map(|&s| s - tau).collect() };
    let shrunk = if m <= n {
        let (s, u) = row_gram_factors(a, tau, vt)?;
        let shrunk = shrink(&s);
        write_product(out, |i, k| u[(i, k)] * shrunk[k], vt);
        shrunk
    } else {
        // The roles swap: the accumulated rows in `vt` are the columns of
        // U, and the Gram eigenvectors are V.
        let (s, v) = row_gram_factors(&a.transpose(), tau, vt)?;
        let shrunk = shrink(&s);
        write_product(
            out,
            |i, k| vt[k * m + i] * shrunk[k],
            v.transpose().as_slice(),
        );
        shrunk
    };
    let rank = shrunk.len();
    let nuclear = if rank == 0 { 0.0 } else { shrunk.iter().sum() };
    Ok((rank, nuclear))
}

/// `out = US · Vᵀ` for `US[i][k] = us(i, k)` and `Vᵀ` given row-major as
/// `vt` (`vt.len() / out.cols()` rows). Each element accumulates its terms
/// in ascending `k`, skipping zero `US` entries — the order and skip of
/// [`Mat::matmul`] — and rows fan out above the same flop threshold.
fn write_product(out: &mut Mat, us: impl Fn(usize, usize) -> f64 + Sync, vt: &[f64]) {
    let (m, n) = out.shape();
    let k = vt.len() / n;
    let row = |(i, o): (usize, &mut [f64])| {
        o.fill(0.0);
        for (kk, v_row) in vt.chunks_exact(n).enumerate() {
            let a = us(i, kk);
            if a == 0.0 {
                continue;
            }
            for (o, &b) in o.iter_mut().zip(v_row) {
                *o += a * b;
            }
        }
    };
    if m * k * n >= PAR_MATMUL_FLOPS {
        out.as_mut_slice()
            .par_chunks_mut(n)
            .enumerate()
            .for_each(row);
    } else {
        out.as_mut_slice().chunks_mut(n).enumerate().for_each(row);
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
