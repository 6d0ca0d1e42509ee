//! Matrix norms and sparsity measures.
//!
//! RPCA's objective mixes the nuclear norm (handled in [`crate::svd`]), the
//! ℓ₁ norm, and — in the paper's effectiveness metric — a "zero norm"
//! `‖E‖₀`. Floating-point RPCA output is never exactly zero, so the zero
//! norm here is a *thresholded count*: an entry counts as non-zero when its
//! magnitude exceeds `tol · max_abs(reference)`.

use crate::Mat;
use rayon::prelude::*;

/// Fixed reduction block: partial sums are taken over `SUM_BLOCK`-element
/// blocks and combined in block order on BOTH the serial and parallel
/// paths, so the two produce bit-identical results for any thread count.
const SUM_BLOCK: usize = 1024;

/// Element count above which norm reductions fan out across threads.
const PAR_NORM_ELEMS: usize = 1 << 15;

/// Blocked sum of `f(x)` over `data`: deterministic regardless of
/// parallelism (see `SUM_BLOCK`).
fn blocked_sum(data: &[f64], f: impl Fn(f64) -> f64 + Sync) -> f64 {
    let [total] = blocked_sums(data.len(), |i| [f(data[i])]);
    total
}

/// `K` sums over the index range `0..len` in one pass: `sums[k]` is the sum
/// of `term(i)[k]` over every `i`.
///
/// Each sum is taken in the crate's fixed reduction order — sequential
/// within each `SUM_BLOCK`-element block, then block partials in block
/// order — so `sums[k]` is bit-identical to [`fro_norm`]'s inner sum over
/// the same terms, for any thread count. Fans out over blocks from
/// `PAR_NORM_ELEMS` elements on, like the norms here.
pub fn blocked_sums<const K: usize>(
    len: usize,
    term: impl Fn(usize) -> [f64; K] + Sync,
) -> [f64; K] {
    // Accumulators start at -0.0, the identity `Iterator::sum` folds from.
    let block_total = |b: usize| {
        let mut acc = [-0.0; K];
        for i in b * SUM_BLOCK..((b + 1) * SUM_BLOCK).min(len) {
            for (a, t) in acc.iter_mut().zip(term(i)) {
                *a += t;
            }
        }
        acc
    };
    let add = |mut total: [f64; K], part: [f64; K]| {
        for (t, p) in total.iter_mut().zip(part) {
            *t += p;
        }
        total
    };
    let blocks = len.div_ceil(SUM_BLOCK);
    if len >= PAR_NORM_ELEMS {
        let partials: Vec<[f64; K]> = (0..blocks).into_par_iter().map(block_total).collect();
        partials.into_iter().fold([-0.0; K], add)
    } else {
        (0..blocks).map(block_total).fold([-0.0; K], add)
    }
}

/// Frobenius norm: `sqrt(Σ aᵢⱼ²)`.
pub fn fro_norm(m: &Mat) -> f64 {
    blocked_sum(m.as_slice(), |v| v * v).sqrt()
}

/// Entrywise ℓ₁ norm: `Σ |aᵢⱼ|`.
pub fn l1_norm(m: &Mat) -> f64 {
    blocked_sum(m.as_slice(), |v| v.abs())
}

/// Entrywise infinity norm: `max |aᵢⱼ|`.
pub fn inf_norm(m: &Mat) -> f64 {
    m.max_abs()
}

/// Number of entries with `|aᵢⱼ| > threshold`.
pub fn count_above(m: &Mat, threshold: f64) -> usize {
    let data = m.as_slice();
    let block_count =
        |block: &[f64]| block.iter().filter(|v| v.abs() > threshold).count();
    if data.len() >= PAR_NORM_ELEMS {
        let partials: Vec<usize> = data.par_chunks(SUM_BLOCK).map(block_count).collect();
        partials.into_iter().sum()
    } else {
        data.iter().filter(|v| v.abs() > threshold).count()
    }
}

/// The paper's relative zero-norm `‖E‖₀ / ‖A‖₀` implemented with a
/// threshold relative to the scale of `reference`.
///
/// `‖E‖₀` counts entries of `e` whose magnitude exceeds
/// `rel_tol · max_abs(reference)`; `‖A‖₀` counts entries of `reference`
/// exceeding the same threshold. Returns 0.0 when `reference` is all
/// (numerically) zero.
pub fn zero_norm_frac(e: &Mat, reference: &Mat, rel_tol: f64) -> f64 {
    let scale = reference.max_abs();
    if scale == 0.0 {
        return 0.0;
    }
    let thresh = rel_tol * scale;
    let denom = count_above(reference, thresh);
    if denom == 0 {
        return 0.0;
    }
    count_above(e, thresh) as f64 / denom as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_sums_match_the_norms_bit_for_bit() {
        // Both sides of the parallel threshold and a ragged last block.
        for len in [1, 1000, 1025, PAR_NORM_ELEMS - 1, PAR_NORM_ELEMS + 517] {
            let m = Mat::from_vec(
                1,
                len,
                (0..len)
                    .map(|i| ((i * 7919) % 1013) as f64 * 0.37 - 150.0)
                    .collect(),
            );
            let x = m.as_slice();
            let [sq, abs] = blocked_sums(len, |i| [x[i] * x[i], x[i].abs()]);
            assert_eq!(sq.sqrt().to_bits(), fro_norm(&m).to_bits(), "len {len}");
            assert_eq!(abs.to_bits(), l1_norm(&m).to_bits(), "len {len}");
            let serial: f64 = x
                .chunks(SUM_BLOCK)
                .map(|b| b.iter().map(|v| v * v).sum::<f64>())
                .sum();
            assert_eq!(sq.to_bits(), serial.to_bits(), "len {len}");
        }
    }

    #[test]
    fn fro_of_345() {
        let m = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((fro_norm(&m) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn l1_and_inf() {
        let m = Mat::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]);
        assert_eq!(l1_norm(&m), 10.0);
        assert_eq!(inf_norm(&m), 4.0);
    }

    #[test]
    fn count_above_threshold() {
        let m = Mat::from_rows(&[&[0.1, -2.0], &[3.0, 0.0]]);
        assert_eq!(count_above(&m, 0.5), 2);
        assert_eq!(count_above(&m, 0.0), 3);
    }

    #[test]
    fn zero_norm_frac_basic() {
        let a = Mat::full(2, 2, 10.0);
        let mut e = Mat::zeros(2, 2);
        e[(0, 0)] = 5.0;
        // threshold = 1e-6 * 10; one of four entries of e above it, all of a.
        assert!((zero_norm_frac(&e, &a, 1e-6) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_norm_frac_zero_reference() {
        let a = Mat::zeros(3, 3);
        let e = Mat::full(3, 3, 1.0);
        assert_eq!(zero_norm_frac(&e, &a, 1e-6), 0.0);
    }
}
