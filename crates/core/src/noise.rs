//! Noise injection on TP-matrices (paper §V-D3).
//!
//! To sweep the error regime, the paper replays an EC2 trace and "randomly
//! assign[s] noises to the trace so that N_E is generated… each time…
//! change the network performance by 1%… repeat until the updated N_E
//! reaches the predefined value". [`inject_noise_until`] implements that
//! loop: rounds of small random multiplicative perturbations are applied to
//! the TP-matrix until the RPCA-measured `Norm(N_E)` reaches the target.

use crate::estimator::{estimate, EstimatorKind};
use crate::Result;
use cloudconst_netmodel::{LinkPerf, PerfMatrix, TpMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of one perturbation round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// Relative size of a single perturbation (paper: 1%).
    pub step: f64,
    /// Fraction of links perturbed per round.
    pub cell_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            step: 0.1,
            cell_fraction: 0.1,
            seed: 0xC10D,
        }
    }
}

/// Apply `rounds` rounds of ±`step` multiplicative noise to a copy of
/// `tp`.
///
/// Each round visits every off-diagonal `(link, snapshot)` cell and, with
/// probability `cell_fraction`, scales its α and β by independent
/// `(1 ± step)` factors — sparse corruption of single measurements.
/// Repeated rounds compound into heavier-tailed measurement noise, the
/// paper's "change the network performance by 1%… repeat" loop.
pub fn inject_noise(tp: &TpMatrix, cfg: &NoiseConfig, rounds: usize) -> TpMatrix {
    let n = tp.n();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut snaps: Vec<(f64, PerfMatrix)> = (0..tp.steps())
        .map(|k| (tp.times()[k], tp.snapshot(k)))
        .collect();
    for _ in 0..rounds {
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                for (_, snap) in snaps.iter_mut() {
                    if rng.random::<f64>() >= cfg.cell_fraction {
                        continue;
                    }
                    let ea = if rng.random::<bool>() { 1 } else { -1 };
                    let eb = if rng.random::<bool>() { 1 } else { -1 };
                    scale_cell(snap, i, j, cfg.step, ea, eb);
                }
            }
        }
    }
    TpMatrix::from_snapshots(n, &snaps)
}

#[inline]
fn scale_cell(snap: &mut PerfMatrix, i: usize, j: usize, step: f64, ea: i32, eb: i32) {
    let link = snap.link(i, j);
    let fa = (1.0 + step).powi(ea);
    let fb = (1.0 + step).powi(eb);
    snap.set(
        i,
        j,
        LinkPerf::new((link.alpha * fa).max(1e-9), (link.beta * fb).max(1.0)),
    );
}

/// Keep injecting noise rounds until the estimator-measured `Norm(N_E)`
/// (ℓ₁ form, which responds smoothly) reaches `target`, or `max_rounds`
/// rounds have been applied. Returns the noised matrix and the achieved
/// value.
///
/// The ±1% random-walk perturbations compound into a lognormal-like spread
/// across snapshots, which is exactly the "more dynamic network" the
/// paper simulates; RPCA sees it as error because it is inconsistent
/// across rows.
pub fn inject_noise_until(
    tp: &TpMatrix,
    target: f64,
    cfg: &NoiseConfig,
    max_rounds: usize,
) -> Result<(TpMatrix, f64)> {
    assert!(target >= 0.0);
    let mut current = tp.clone();
    let mut achieved = estimate(&current, EstimatorKind::Rpca)?.norm_ne_l1;
    let mut rounds_done = 0usize;
    let mut batch = 8usize;
    let mut round_seed = cfg.seed;
    while achieved < target && rounds_done < max_rounds {
        let round_cfg = NoiseConfig {
            seed: round_seed,
            ..cfg.clone()
        };
        current = inject_noise(&current, &round_cfg, batch.min(max_rounds - rounds_done));
        rounds_done += batch.min(max_rounds - rounds_done);
        round_seed = round_seed.wrapping_add(1);
        achieved = estimate(&current, EstimatorKind::Rpca)?.norm_ne_l1;
        // The ±step random walk compounds so the achieved error grows like
        // √rounds; jump straight toward the target instead of crawling,
        // leaving slack so the last approach is gradual.
        if achieved > 0.0 {
            let needed = (target / achieved).powi(2) * rounds_done as f64;
            let jump = (0.8 * (needed - rounds_done as f64)).ceil();
            batch = (jump.max(1.0) as usize).min(4096);
        } else {
            batch = (batch * 2).min(4096);
        }
    }
    Ok((current, achieved))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_tp(n: usize, steps: usize) -> TpMatrix {
        let truth = PerfMatrix::from_fn(n, |i, j| {
            LinkPerf::new(1e-4 * (1 + i + j) as f64, 1e8 / (1.0 + 0.2 * i as f64))
        });
        let mut tp = TpMatrix::new(n);
        for k in 0..steps {
            tp.push(k as f64, &truth);
        }
        tp
    }

    #[test]
    fn zero_rounds_is_identity() {
        let tp = clean_tp(4, 5);
        let noised = inject_noise(&tp, &NoiseConfig::default(), 0);
        assert_eq!(noised, tp);
    }

    #[test]
    fn noise_increases_norm_ne() {
        let tp = clean_tp(5, 8);
        let before = estimate(&tp, EstimatorKind::Rpca).unwrap().norm_ne_l1;
        let noised = inject_noise(&tp, &NoiseConfig::default(), 30);
        let after = estimate(&noised, EstimatorKind::Rpca).unwrap().norm_ne_l1;
        assert!(after > before, "after {after} <= before {before}");
    }

    #[test]
    fn noise_is_deterministic_in_seed() {
        let tp = clean_tp(4, 4);
        let a = inject_noise(&tp, &NoiseConfig::default(), 5);
        let b = inject_noise(&tp, &NoiseConfig::default(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn inject_until_reaches_target() {
        let tp = clean_tp(5, 8);
        let (noised, achieved) =
            inject_noise_until(&tp, 0.05, &NoiseConfig::default(), 2000).unwrap();
        assert!(achieved >= 0.05, "achieved only {achieved}");
        assert_ne!(noised, tp);
    }

    #[test]
    fn inject_until_zero_target_is_noop() {
        let tp = clean_tp(3, 4);
        let (noised, achieved) =
            inject_noise_until(&tp, 0.0, &NoiseConfig::default(), 100).unwrap();
        assert_eq!(noised, tp);
        assert!(achieved >= 0.0);
    }

    #[test]
    fn structure_preserved_under_noise() {
        // Noise must not create self-link costs or negative values.
        let tp = clean_tp(4, 4);
        let noised = inject_noise(&tp, &NoiseConfig::default(), 10);
        for k in 0..noised.steps() {
            let snap = noised.snapshot(k);
            for i in 0..4 {
                assert_eq!(snap.transfer_time(i, i, 1000), 0.0);
                for j in 0..4 {
                    if i != j {
                        assert!(snap.link(i, j).alpha > 0.0);
                        assert!(snap.link(i, j).beta > 0.0);
                    }
                }
            }
        }
    }
}
