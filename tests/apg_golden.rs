//! Golden bit-identity digests for the APG RPCA solver.
//!
//! Each case pins FNV-1a digests of the `to_bits` of `D` and `E`, plus
//! `iters`, the `to_bits` of `residual` and `rank`. The digests were
//! recorded from the matrix-at-a-time formulation of the solver (one
//! temporary per matrix operation); the buffer-reusing solver, and any
//! later rewrite, must reproduce them exactly under every thread count:
//!
//! ```sh
//! RAYON_NUM_THREADS=1 cargo test --release --test apg_golden
//! RAYON_NUM_THREADS=2 cargo test --release --test apg_golden
//! ```
//!
//! The inputs straddle the linalg crate's parallel thresholds (32768
//! elements for norms and shrinkage, 8192 columns for the `V`
//! accumulation), so both the serial and the fanned-out paths are pinned.

use cloudconst::cloud::{CloudConfig, SyntheticCloud};
use cloudconst::linalg::Mat;
use cloudconst::netmodel::Calibrator;
use cloudconst::rpca::{apg, ApgOptions, RpcaError, RpcaResult};

/// `(d digest, e digest, iters, residual bits, rank)`.
type Golden = (u64, u64, usize, u64, usize);

fn fnv1a(m: &Mat) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in m.as_slice() {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest(r: &RpcaResult) -> Golden {
    (
        fnv1a(&r.d),
        fnv1a(&r.e),
        r.iters,
        r.residual.to_bits(),
        r.rank,
    )
}

fn check(name: &str, got: Golden, want: Golden) {
    let (d, e, iters, residual, rank) = got;
    assert_eq!(
        got, want,
        "{name}: APG output drifted from the golden digest \
         (got ({d:#018x}, {e:#018x}, {iters}, {residual:#018x}, {rank}))"
    );
}

/// Rank-one `u vᵀ` plus deterministic spikes of alternating sign.
fn rank_one_plus_spikes(m: usize, n: usize, spikes: usize) -> Mat {
    let u: Vec<f64> = (0..m).map(|i| 1.0 + 0.05 * i as f64).collect();
    let v: Vec<f64> = (0..n)
        .map(|j| 10.0 + (j % 7) as f64 + 0.1 * (j % 13) as f64)
        .collect();
    let mut a = Mat::outer(&u, &v);
    for k in 0..spikes {
        let i = k % m;
        let j = (k * 613 + 17) % n;
        let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
        a[(i, j)] += sign * (20.0 + (k % 5) as f64 * 7.0);
    }
    a
}

fn solve(a: &Mat) -> Golden {
    digest(&apg(a, &ApgOptions::default()).expect("apg converges"))
}

#[test]
fn wide_rank_one_plus_spikes() {
    let a = rank_one_plus_spikes(10, 4096, 64);
    check(
        "wide 10x4096",
        solve(&a),
        (
            0xf28cf339a7100d10,
            0x082ccf9ed031ca0c,
            74,
            0x3f3d9a1c5be17f64,
            1,
        ),
    );
}

/// The `regress` binary's `rpca_apg_10xN2` input at N = 64.
#[test]
fn regress_input() {
    let a = cloudconst_bench::regress::tp_like(10, 64);
    check(
        "regress tp_like(10, 64)",
        solve(&a),
        (
            0xfd27f5bf7cd8b4ca,
            0x09bf4f462affcd69,
            74,
            0x3f3d6565c18043cf,
            1,
        ),
    );
}

#[test]
fn very_wide_parallel_v_accumulation() {
    let a = rank_one_plus_spikes(4, 10_000, 24);
    check(
        "very wide 4x10000",
        solve(&a),
        (
            0xaf9f32a1c45e17bf,
            0x417030682c4b95aa,
            74,
            0x3f3d6f716ee9512c,
            1,
        ),
    );
}

#[test]
fn tall_input() {
    let a = rank_one_plus_spikes(40, 6, 5);
    check(
        "tall 40x6",
        solve(&a),
        (
            0xae53bb4ac63f07a9,
            0x7f769412aab4b394,
            75,
            0x3f3bca78a59ccee8,
            1,
        ),
    );
}

#[test]
fn zero_matrix() {
    check(
        "zero 4x9",
        solve(&Mat::zeros(4, 9)),
        (0x66e368127e9e89a5, 0x66e368127e9e89a5, 0, 0, 0),
    );
}

#[test]
fn no_convergence_partial() {
    let a = rank_one_plus_spikes(10, 4096, 64);
    let opts = ApgOptions {
        max_iters: 2,
        ..Default::default()
    };
    match apg(&a, &opts) {
        Err(RpcaError::NoConvergence {
            iters,
            residual,
            partial,
        }) => {
            assert_eq!(iters, 2);
            assert_eq!(residual.to_bits(), partial.residual.to_bits());
            check(
                "max_iters=2 partial",
                digest(&partial),
                (
                    0xc7e1ae10882176c7,
                    0x6524e9cf90a1ca9d,
                    2,
                    0x3fee2b1d12b32568,
                    5,
                ),
            );
        }
        other => panic!("expected NoConvergence, got {other:?}"),
    }
}

/// The α and 1/β TP-matrices Algorithm 1 decomposes: ten calibration
/// snapshots of a 64-VM EC2-like cloud, starting at t = 450 s and spaced
/// by the default 1800 s snapshot interval.
#[test]
fn calibrated_ec2_like_64() {
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(64, 1));
    let (tp, _) = Calibrator::new().calibrate_tp_par(&cloud, 450.0, 1800.0, 10);
    check(
        "ec2_like(64) alpha",
        solve(tp.alpha_matrix()),
        (
            0x71978a99fe6ff035,
            0xc2d3dd26e6a29c66,
            105,
            0x3f0ab4e52f12f85c,
            2,
        ),
    );
    check(
        "ec2_like(64) inv_beta",
        solve(tp.inv_beta_matrix()),
        (
            0xd6c4d753478178a2,
            0x4a67b57937e63a4d,
            102,
            0x3f0ba6a048d4fd2d,
            2,
        ),
    );
}
