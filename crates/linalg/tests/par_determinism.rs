//! Bit-identity of parallel kernels.
//!
//! Every parallelized path in this crate claims to produce *bit-identical*
//! results to its serial predecessor: parallelism only splits independent
//! output elements (matmul/QR columns, shrinkage chunks) or uses the
//! same fixed-block reduction order on both paths (norms). These tests pin
//! that contract by re-implementing each serial predecessor naively and
//! comparing with exact equality on inputs large enough to take the
//! parallel path.

use cloudconst_linalg::{
    fro_norm, l1_norm, soft_threshold, svd_thin, svd_trunc, svt, svt_in_place, Mat,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| rng.random_range(-5.0..5.0))
        .collect();
    Mat::from_vec(rows, cols, data)
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} differs ({g} vs {w})"
        );
    }
}

#[test]
fn matmul_parallel_is_bit_identical_to_serial() {
    // 160×140 · 140×150 = 3.36M flops, above the 1M parallel threshold.
    let a = random_mat(160, 140, 1);
    let b = random_mat(140, 150, 2);
    let got = a.matmul(&b).unwrap();

    // Serial predecessor: i-k-j loop order with the zero-skip.
    let (m, k, n) = (160, 140, 150);
    let mut want = vec![0.0f64; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a[(i, kk)];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                want[i * n + j] += av * b[(kk, j)];
            }
        }
    }
    assert_bits_eq(got.as_slice(), &want, "matmul");
}

/// The row Gram by its definition: each entry a dot product summed from
/// `-0.0` in ascending column order.
fn naive_gram(a: &Mat) -> Mat {
    let (m, n) = a.shape();
    let mut g = Mat::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            let mut s = -0.0;
            for c in 0..n {
                s += a[(i, c)] * a[(j, c)];
            }
            g[(i, j)] = s;
        }
    }
    g
}

#[test]
fn gram_rows_matches_the_naive_sum_at_every_tile_remainder() {
    // Every row count up to 13 leaves each remainder of the two-row and
    // the up-to-eight-row tiling; the column counts straddle the loop's
    // unrolling and the 10 × 4032 shape of a 64-VM TP-matrix.
    for m in 1..=13 {
        for n in [0, 1, 2, 3, 5, 127, 128, 129, 4032] {
            let a = random_mat(m, n, (m * 10_000 + n) as u64);
            let what = format!("gram_rows {m}x{n}");
            assert_bits_eq(a.gram_rows().as_slice(), naive_gram(&a).as_slice(), &what);
        }
    }
}

#[test]
fn gram_rows_parallel_is_bit_identical_to_serial() {
    // 48 × 48 × 3000 / 2 flops: above the parallel threshold.
    let a = random_mat(48, 3000, 5);
    assert_bits_eq(
        a.gram_rows().as_slice(),
        naive_gram(&a).as_slice(),
        "gram_rows",
    );
}

#[test]
fn norms_match_serial_blocked_reference() {
    // 10×38416 mirrors the paper-scale TP-matrix at N = 196; comfortably
    // above the parallel threshold.
    let a = random_mat(10, 38416, 6);
    // Reference: the same fixed 1024-element block order, serially.
    let fro_want = a
        .as_slice()
        .chunks(1024)
        .map(|b| b.iter().map(|&x| x * x).sum::<f64>())
        .sum::<f64>()
        .sqrt();
    let l1_want: f64 = a
        .as_slice()
        .chunks(1024)
        .map(|b| b.iter().map(|&x| x.abs()).sum::<f64>())
        .sum();
    assert_eq!(fro_norm(&a).to_bits(), fro_want.to_bits(), "fro_norm");
    assert_eq!(l1_norm(&a).to_bits(), l1_want.to_bits(), "l1_norm");
}

#[test]
fn soft_threshold_parallel_is_bit_identical_to_serial() {
    let a = random_mat(64, 1024, 7); // 65536 ≥ the 32768 threshold
    let got = soft_threshold(&a, 0.75);
    let want: Vec<f64> = a
        .as_slice()
        .iter()
        .map(|&x| {
            if x > 0.75 {
                x - 0.75
            } else if x < -0.75 {
                x + 0.75
            } else {
                0.0
            }
        })
        .collect();
    assert_bits_eq(got.as_slice(), &want, "soft_threshold");
}

#[test]
fn svd_v_accumulation_parallel_is_bit_identical_to_serial() {
    // Wide enough (n ≥ 8192) to take the parallel V-accumulation path.
    let a = random_mat(8, 9000, 8);
    let svd = svd_thin(&a).unwrap();
    // Serial predecessor: v[c][col] accumulates row contributions in
    // ascending row order with the zero-coefficient skip. U and σ are
    // computed before the parallel section, so reusing them isolates
    // exactly the parallelized accumulation.
    for (col, &sigma) in svd.s.iter().enumerate() {
        if sigma == 0.0 {
            continue;
        }
        let mut want = vec![0.0f64; 9000];
        for row in 0..8 {
            let coeff = svd.u[(row, col)] / sigma;
            if coeff == 0.0 {
                continue;
            }
            for (c, &av) in a.row(row).iter().enumerate() {
                want[c] += coeff * av;
            }
        }
        for (c, w) in want.iter().enumerate() {
            assert_eq!(
                svd.v[(c, col)].to_bits(),
                w.to_bits(),
                "svd V column {col}, element {c}"
            );
        }
    }
}

#[test]
fn svt_in_place_is_bit_identical_to_the_svd_reconstruction() {
    // Reference: truncated SVD, U scaled by σ − τ, times the transposed V
    // through matmul. Wide 40×9000 and tall 9000×12 fan their blocks out;
    // the small wide 7×30 and tall 30×7 shapes run serially.
    for (rows, cols, seed) in [(40, 9000, 9), (9000, 12, 10), (7, 30, 11), (30, 7, 12)] {
        let a = random_mat(rows, cols, seed);
        let s0 = svd_thin(&a).unwrap().s;
        for tau in [s0[0] * 0.5, s0[s0.len() / 2], 0.0, s0[0] * 2.0] {
            let svd = svd_trunc(&a, tau).unwrap();
            let mut us = svd.u.clone();
            for i in 0..us.rows() {
                for (v, &s) in us.row_mut(i).iter_mut().zip(&svd.s) {
                    *v *= s - tau;
                }
            }
            let want = if svd.s.is_empty() {
                Mat::zeros(rows, cols)
            } else {
                us.matmul(&svd.v.transpose()).unwrap()
            };
            let mut got = a.clone();
            let (rank, nuclear) = svt_in_place(&mut got, tau).unwrap();
            assert_eq!(rank, svd.s.len(), "{rows}x{cols} τ={tau}");
            assert_bits_eq(got.as_slice(), want.as_slice(), "svt_in_place");
            // `svt` is the allocating wrapper over the same kernel.
            let wrapped = svt(&a, tau).unwrap();
            assert_bits_eq(wrapped.mat.as_slice(), want.as_slice(), "svt");
            assert_eq!(
                (wrapped.rank, wrapped.nuclear.to_bits()),
                (rank, nuclear.to_bits())
            );
        }
    }
    assert!(svt_in_place(&mut Mat::zeros(0, 4), 0.1).is_err());
}
