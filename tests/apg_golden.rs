//! Golden bit-identity digests for the RPCA solvers: APG, IALM and the
//! direct rank-one solver.
//!
//! Each APG and IALM case pins FNV-1a digests of the `to_bits` of `D` and
//! `E`, plus `iters`, the `to_bits` of `residual` and `rank`; a rank-one
//! case pins its constant row, outlier count and sweeps. The APG digests were
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
//! The symmetric eigensolver behind every APG iteration is pinned on its
//! own too, on the 10 × 10 row Grams of the 10-row fixtures.

use cloudconst::cloud::{CloudConfig, SyntheticCloud};
use cloudconst::linalg::{eigh, fro_norm, Mat};
use cloudconst::netmodel::{Calibrator, TpMatrix};
use cloudconst::rpca::{apg, ialm, rank1_rpca, ApgOptions, IalmOptions, RpcaError, RpcaResult};

/// `(d digest, e digest, iters, residual bits, rank)`.
type Golden = (u64, u64, usize, u64, usize);

fn fnv1a(m: &Mat) -> u64 {
    fnv1a_slice(m.as_slice())
}

fn fnv1a_slice(xs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in xs {
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
        "{name}: solver output drifted from the golden digest \
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
    let opts = ApgOptions { max_iters: 2 };
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
fn calibrated_ec2_like_64_tp() -> TpMatrix {
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(64, 1));
    Calibrator::new()
        .calibrate_tp_par(&cloud, 450.0, 1800.0, 10)
        .0
}

#[test]
fn calibrated_ec2_like_64() {
    let tp = calibrated_ec2_like_64_tp();
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

/// IALM on both planes of the calibrated fixture above: no other test pins
/// its bits (the solver ablation's CSV carries a wall-clock column).
#[test]
fn ialm_calibrated_ec2_like_64() {
    let tp = calibrated_ec2_like_64_tp();
    let solve = |a: &Mat| digest(&ialm(a, &IalmOptions::default()).expect("ialm converges"));
    check(
        "ialm ec2_like(64) alpha",
        solve(tp.alpha_matrix()),
        (
            0xdfaeba5d0645ac85,
            0x84fb597f7db9f222,
            32,
            0x3e79141d013ab467,
            5,
        ),
    );
    check(
        "ialm ec2_like(64) inv_beta",
        solve(tp.inv_beta_matrix()),
        (
            0x02a92d231f5b43f7,
            0x761f6be2e022ab5b,
            32,
            0x3e7799d052f5f293,
            5,
        ),
    );
}

/// The direct rank-one solver on both planes of the calibrated fixture:
/// `(constant digest, outliers, sweeps)`.
#[test]
fn rank1_calibrated_ec2_like_64() {
    let tp = calibrated_ec2_like_64_tp();
    let solve = |a: &Mat| {
        let r = rank1_rpca(a);
        (fnv1a_slice(&r.constant), r.outliers, r.iters)
    };
    assert_eq!(
        solve(tp.alpha_matrix()),
        (0xa2692c3b956a8c6e, 5543, 5),
        "rank1 alpha"
    );
    assert_eq!(
        solve(tp.inv_beta_matrix()),
        (0x6a8faec417ebb758, 5560, 5),
        "rank1 inv_beta"
    );
}

/// `(values digest, vectors digest)` of `eigh` on the row Gram of `a` and
/// on that of `a / ‖a‖_F`, the copy whose Gram gives APG its spectral norm.
fn eigh_digests(a: &Mat) -> [(u64, u64); 2] {
    let digest = |a: &Mat| {
        let r = eigh(&a.gram_rows()).expect("eigh converges");
        (fnv1a_slice(&r.values), fnv1a(&r.vectors))
    };
    [digest(a), digest(&a.scale(1.0 / fro_norm(a)))]
}

/// The Jacobi eigensolver on the 10 × 10 Grams APG factors: the two
/// synthetic 10-row fixtures and both calibrated planes.
#[test]
fn eigh_on_fixture_grams() {
    let tp = calibrated_ec2_like_64_tp();
    let cases = [
        (
            "wide 10x4096",
            rank_one_plus_spikes(10, 4096, 64),
            [
                (0x92a9639d4b11cb3f, 0x259017b09e33956f),
                (0xf1b33566ff8e2cef, 0xaca1b667b7869ecb),
            ],
        ),
        (
            "regress tp_like(10, 64)",
            cloudconst_bench::regress::tp_like(10, 64),
            [
                (0xe22b3f2621fb7426, 0x0604fd8a35c324cc),
                (0xecdab08fe02fe0fc, 0xa18f00824eab9460),
            ],
        ),
        (
            "ec2_like(64) alpha",
            tp.alpha_matrix().clone(),
            [
                (0xd87dfa85b47438c4, 0x73121200560250ac),
                (0x24aff34b232deb80, 0xfe0739b81e80f840),
            ],
        ),
        (
            "ec2_like(64) inv_beta",
            tp.inv_beta_matrix().clone(),
            [
                (0x2026eb0a4a2671ea, 0x3a8bc38a38233c5a),
                (0x2f221f0179ba0608, 0x32a790c653b54616),
            ],
        ),
    ];
    for (name, a, want) in cases {
        let got = eigh_digests(&a);
        assert_eq!(
            got, want,
            "{name}: eigh drifted from the golden digest (got {got:#018x?})"
        );
    }
}
