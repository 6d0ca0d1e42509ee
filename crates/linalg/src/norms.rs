//! Matrix norms and sparsity measures.
//!
//! RPCA's objective mixes the nuclear norm (handled in [`crate::svd`]), the
//! ℓ₁ norm, and — in the paper's effectiveness metric — a "zero norm"
//! `‖E‖₀`. Floating-point RPCA output is never exactly zero, so the zero
//! norm here is a *thresholded count*: an entry counts as non-zero when its
//! magnitude exceeds `tol · max_abs(reference)`.

use crate::Mat;
use rayon::prelude::*;
use std::sync::Mutex;

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
/// `PAR_NORM_ELEMS` elements on, like the norms here. The case of
/// [`blocked_sums_until`] that never stops.
pub fn blocked_sums<const K: usize>(
    len: usize,
    term: impl Fn(usize) -> [f64; K] + Sync,
) -> [f64; K] {
    blocked_sums_until(len, term, |_| false).expect("a reduction that never stops runs to the end")
}

/// [`blocked_sums`] that may stop early. After each block, in block order,
/// `stop` sees the running totals of the blocks folded so far: the prefixes
/// of the very fold that makes the full sums. Returns `None` as soon as
/// `stop` holds for a prefix (the full sums included), and otherwise the
/// full sums, bit-identical to [`blocked_sums`].
///
/// `stop` sees the same prefixes, in the same order, for any thread count,
/// so the result does not depend on it. When every term is non-negative,
/// each prefix is at most the full sum: the fold only ever adds a
/// non-negative partial, and rounding is monotone. So a `stop` that holds
/// for a prefix and is monotone in the totals would hold for the full sums
/// too, and the remaining blocks need not be read.
///
/// On the parallel path (from `PAR_NORM_ELEMS` elements on), the first
/// block still runs on the caller; the others fan out and finish out of
/// order across threads. A finished partial waits until every earlier one
/// is folded, and once `stop` holds no new block is started.
pub fn blocked_sums_until<const K: usize>(
    len: usize,
    term: impl Fn(usize) -> [f64; K] + Sync,
    stop: impl Fn(&[f64; K]) -> bool + Sync,
) -> Option<[f64; K]> {
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
    let add = |total: &mut [f64; K], part: [f64; K]| {
        for (t, p) in total.iter_mut().zip(part) {
            *t += p;
        }
    };
    // Serially, every block runs on the caller. In parallel, the first
    // one still does — it settles most early stops, with no threads woken
    // — and the rest fan out.
    let blocks = len.div_ceil(SUM_BLOCK);
    let serial = if len < PAR_NORM_ELEMS { blocks } else { 1 };
    let mut total = [-0.0; K];
    for b in 0..serial {
        add(&mut total, block_total(b));
        if stop(&total) {
            return None;
        }
    }
    if serial == blocks {
        return Some(total);
    }
    // The fold's state: the next block to fold, the running totals, the
    // finished partials not yet folded, and whether `stop` has held.
    struct Fold<const K: usize> {
        next: usize,
        total: [f64; K],
        done: Vec<Option<[f64; K]>>,
        stopped: bool,
    }
    let fold = Mutex::new(Fold {
        next: serial,
        total,
        done: vec![None; blocks],
        stopped: false,
    });
    let lock = || fold.lock().expect("`stop` panicked on another thread");
    (serial..blocks).into_par_iter().for_each(|b| {
        if lock().stopped {
            return;
        }
        let part = block_total(b);
        let mut f = lock();
        let f = &mut *f;
        f.done[b] = Some(part);
        while !f.stopped && f.next < blocks {
            let Some(part) = f.done[f.next].take() else {
                break;
            };
            add(&mut f.total, part);
            f.next += 1;
            f.stopped = stop(&f.total);
        }
    });
    let f = fold
        .into_inner()
        .expect("`stop` panicked on another thread");
    (!f.stopped).then_some(f.total)
}

/// `Σ x[i]² + y[i]²` in no fixed order: eight interleaved lanes per
/// `SUM_BLOCK`-element block, blocks fanned out from `PAR_NORM_ELEMS`
/// elements on. The grouping is fixed, so the bits do not depend on the
/// thread count, but they differ from [`blocked_sums`] over the same
/// squares by rounding; the gain is speed, several times that of the
/// blocked fold's one chain of dependent adds per block. Any summation
/// order of `n` non-negative terms lands within a relative `n·ε/2` (to
/// first order) of the exact sum, so scaling this sum by a margin makes it
/// an upper bound on the blocked one.
///
/// # Panics
/// When `x` and `y` differ in length.
pub fn sum_squares(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "sum_squares: slices differ in length");
    const LANES: usize = 8;
    let block_total = |b: usize| {
        let r = b * SUM_BLOCK..((b + 1) * SUM_BLOCK).min(x.len());
        let (x, y) = (&x[r.clone()], &y[r]);
        let (mut xs, mut ys) = (x.chunks_exact(LANES), y.chunks_exact(LANES));
        let mut acc = [0.0; LANES];
        for (u, v) in (&mut xs).zip(&mut ys) {
            for l in 0..LANES {
                acc[l] += u[l] * u[l] + v[l] * v[l];
            }
        }
        for (a, (u, v)) in acc
            .iter_mut()
            .zip(xs.remainder().iter().zip(ys.remainder()))
        {
            *a += u * u + v * v;
        }
        acc.iter().sum::<f64>()
    };
    let blocks = x.len().div_ceil(SUM_BLOCK);
    if x.len() >= PAR_NORM_ELEMS {
        let partials: Vec<f64> = (0..blocks).into_par_iter().map(block_total).collect();
        partials.into_iter().sum()
    } else {
        (0..blocks).map(block_total).sum()
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
    let block_count = |block: &[f64]| block.iter().filter(|v| v.abs() > threshold).count();
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn blocked_sums_until_stops_at_the_first_settling_prefix() {
        // Both sides of the parallel threshold, ragged last blocks included.
        for len in [1, 1000, 1025, 5 * SUM_BLOCK, PAR_NORM_ELEMS + 517] {
            let x: Vec<f64> = (0..len)
                .map(|i| ((i * 7919) % 1013) as f64 * 0.37)
                .collect();
            let term = |i: usize| [x[i] * x[i], x[i]];
            // The running totals the serial fold passes through.
            let prefixes: Vec<[f64; 2]> = x
                .chunks(SUM_BLOCK)
                .scan([-0.0, -0.0], |acc, b| {
                    let sq: f64 = b.iter().map(|v| v * v).sum();
                    let abs: f64 = b.iter().sum();
                    *acc = [acc[0] + sq, acc[1] + abs];
                    Some(*acc)
                })
                .collect();
            let full = *prefixes.last().unwrap();
            let never = blocked_sums_until(len, term, |_| false).expect("never stops");
            assert_eq!(never.map(f64::to_bits), full.map(f64::to_bits), "len {len}");
            // Stop at each prefix in turn: exactly that many blocks fold.
            for (b, p) in prefixes.iter().enumerate() {
                let seen = AtomicUsize::new(0);
                let out = blocked_sums_until(len, term, |t| {
                    seen.fetch_add(1, Ordering::SeqCst);
                    t[1] >= p[1]
                });
                assert!(out.is_none(), "len {len}: prefix {b} must stop");
                assert_eq!(seen.load(Ordering::SeqCst), b + 1, "len {len}: prefix {b}");
            }
            // A stop no prefix meets runs to the same full sums.
            let out = blocked_sums_until(len, term, |t| t[0] > full[0]);
            assert_eq!(
                out.map(|s| s.map(f64::to_bits)),
                Some(full.map(f64::to_bits))
            );
        }
    }

    #[test]
    fn sum_squares_is_within_rounding_of_the_blocked_sum() {
        for len in [0, 7, 1000, 1025, PAR_NORM_ELEMS + 517] {
            let x: Vec<f64> = (0..len)
                .map(|i| ((i * 7919) % 1013) as f64 * 0.37 - 150.0)
                .collect();
            let y: Vec<f64> = x.iter().rev().map(|v| v * 1e-3).collect();
            let [sx, sy] = blocked_sums(len, |i| [x[i] * x[i], y[i] * y[i]]);
            let fast = sum_squares(&x, &y);
            let tol = 4.0 * (len as f64 + 2.0) * f64::EPSILON * (sx + sy);
            assert!(
                (fast - (sx + sy)).abs() <= tol,
                "len {len}: {fast} vs {}",
                sx + sy
            );
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
