//! N-body gravitational simulation (paper §V-A).
//!
//! Real physics: direct-sum O(n²) gravity with softening, leapfrog (KDK)
//! integration, rayon-parallel over bodies. The distributed model follows
//! the paper: `P` processes own `n/P` bodies each; every step ends with an
//! all-to-all of positions (gather + broadcast). The paper's two knobs are
//! the step count (`#Step`, Fig. 9(b)) and the per-step message size
//! (Fig. 9(c)); the message size can be set explicitly to reproduce the
//! 1 KB–1 MB sweep.

use crate::comm::CommEnv;
use crate::Breakdown;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Gravitational constant (natural units: the dynamics, not the constants,
/// are what the workload exercises).
const G: f64 = 1.0;
/// Softening length to avoid force singularities.
const SOFTENING: f64 = 1e-3;
/// Modeled FLOPs per pairwise interaction (distance, inverse sqrt, MACs).
const FLOPS_PER_PAIR: f64 = 20.0;

/// Configuration of an N-body run.
#[derive(Debug, Clone)]
pub struct NBodyConfig {
    /// Number of bodies.
    pub bodies: usize,
    /// Simulation steps (`#Step` in the paper, 10–2560).
    pub steps: usize,
    /// Integration timestep.
    pub dt: f64,
    /// Processes in the virtual cluster (each on one instance).
    pub processes: usize,
    /// Per-step, per-rank message size in bytes. `None` derives it from
    /// the owned bodies (24 bytes of position per body).
    pub message_bytes: Option<u64>,
    /// Modeled per-process compute speed in FLOP/s.
    pub flops_per_sec: f64,
    /// Seed for initial conditions.
    pub seed: u64,
}

impl NBodyConfig {
    /// A small, fast default suitable for tests.
    pub fn small(processes: usize) -> Self {
        NBodyConfig {
            bodies: 64,
            steps: 4,
            dt: 1e-3,
            processes,
            message_bytes: None,
            flops_per_sec: 1e9,
            seed: 42,
        }
    }
}

/// Result of an N-body run.
#[derive(Debug, Clone)]
pub struct NBodyReport {
    /// Time breakdown (compute/comm/other; `other` filled by the caller).
    pub breakdown: Breakdown,
    /// Relative energy drift |E_end − E_0| / |E_0| — correctness signal of
    /// the real numerics.
    pub energy_drift: f64,
    /// Total kinetic energy at the end (regression anchor).
    pub final_kinetic: f64,
}

#[derive(Debug, Clone)]
struct Bodies {
    pos: Vec<[f64; 3]>,
    vel: Vec<[f64; 3]>,
    mass: Vec<f64>,
}

impl Bodies {
    fn random(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pos = Vec::with_capacity(n);
        let mut vel = Vec::with_capacity(n);
        let mut mass = Vec::with_capacity(n);
        for _ in 0..n {
            pos.push([
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
            ]);
            vel.push([
                rng.random_range(-0.1..0.1),
                rng.random_range(-0.1..0.1),
                rng.random_range(-0.1..0.1),
            ]);
            mass.push(rng.random_range(0.5..1.5));
        }
        Bodies { pos, vel, mass }
    }

    fn accelerations(&self) -> Vec<[f64; 3]> {
        let n = self.pos.len();
        (0..n)
            .into_par_iter()
            .map(|i| {
                let pi = self.pos[i];
                let mut acc = [0.0f64; 3];
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let pj = self.pos[j];
                    let dx = pj[0] - pi[0];
                    let dy = pj[1] - pi[1];
                    let dz = pj[2] - pi[2];
                    let r2 = dx * dx + dy * dy + dz * dz + SOFTENING * SOFTENING;
                    let inv_r3 = 1.0 / (r2 * r2.sqrt());
                    let s = G * self.mass[j] * inv_r3;
                    acc[0] += s * dx;
                    acc[1] += s * dy;
                    acc[2] += s * dz;
                }
                acc
            })
            .collect()
    }

    fn kinetic(&self) -> f64 {
        self.vel
            .iter()
            .zip(&self.mass)
            .map(|(v, m)| 0.5 * m * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))
            .sum()
    }

    fn potential(&self) -> f64 {
        let n = self.pos.len();
        let mut e = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let (pi, pj) = (self.pos[i], self.pos[j]);
                let dx = pj[0] - pi[0];
                let dy = pj[1] - pi[1];
                let dz = pj[2] - pi[2];
                let r = (dx * dx + dy * dy + dz * dz + SOFTENING * SOFTENING).sqrt();
                e -= G * self.mass[i] * self.mass[j] / r;
            }
        }
        e
    }
}

/// Run the N-body workload in `env`. The numerics are computed for real;
/// compute and communication *times* are modeled (see crate docs).
pub fn run(cfg: &NBodyConfig, env: &CommEnv<'_>) -> NBodyReport {
    assert!(cfg.processes >= 1 && cfg.processes <= env.n());
    assert!(cfg.bodies >= 2);
    let mut bodies = Bodies::random(cfg.bodies, cfg.seed);
    let e0 = bodies.kinetic() + bodies.potential();

    // Leapfrog KDK with a fresh force evaluation per step.
    let mut acc = bodies.accelerations();
    let mut compute_time = 0.0;
    let mut comm_time = 0.0;
    let per_rank_bytes = cfg
        .message_bytes
        .unwrap_or(((cfg.bodies / cfg.processes).max(1) as u64) * 24);

    let flops_per_step = FLOPS_PER_PAIR * (cfg.bodies as f64) * (cfg.bodies as f64);
    let modeled_step_compute = flops_per_step / cfg.flops_per_sec / cfg.processes as f64;

    for step in 0..cfg.steps {
        // Kick-drift.
        for ((vel, pos), a) in bodies.vel.iter_mut().zip(bodies.pos.iter_mut()).zip(&acc) {
            for (k, ak) in a.iter().enumerate() {
                vel[k] += 0.5 * cfg.dt * ak;
                pos[k] += cfg.dt * vel[k];
            }
        }
        // New forces (the O(n²) phase the processes share).
        acc = bodies.accelerations();
        for (vel, a) in bodies.vel.iter_mut().zip(&acc) {
            for (vk, ak) in vel.iter_mut().zip(a) {
                *vk += 0.5 * cfg.dt * ak;
            }
        }
        compute_time += modeled_step_compute;
        // All-to-all of positions: root rotates per step (the paper picks
        // roots randomly; rotation is the deterministic analogue).
        let root = step % cfg.processes;
        comm_time += env.all_to_all_time(root, per_rank_bytes);
    }

    let e1 = bodies.kinetic() + bodies.potential();
    NBodyReport {
        breakdown: Breakdown {
            compute: compute_time,
            comm: comm_time,
            other: 0.0,
        },
        energy_drift: ((e1 - e0) / e0).abs(),
        final_kinetic: bodies.kinetic(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudconst_netmodel::{LinkPerf, PerfMatrix};

    fn perf(n: usize) -> PerfMatrix {
        PerfMatrix::uniform(n, LinkPerf::new(2e-4, 1e8))
    }

    #[test]
    fn energy_approximately_conserved() {
        let p = perf(4);
        let env = CommEnv::baseline(&p);
        let r = run(&NBodyConfig::small(4), &env);
        assert!(
            r.energy_drift < 1e-2,
            "energy drift {} too large",
            r.energy_drift
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let p = perf(4);
        let env = CommEnv::baseline(&p);
        let a = run(&NBodyConfig::small(4), &env);
        let b = run(&NBodyConfig::small(4), &env);
        assert_eq!(a.final_kinetic, b.final_kinetic);
        assert_eq!(a.breakdown.comm, b.breakdown.comm);
    }

    #[test]
    fn comm_time_scales_with_steps() {
        let p = perf(4);
        let env = CommEnv::baseline(&p);
        let mut cfg = NBodyConfig::small(4);
        cfg.steps = 2;
        let short = run(&cfg, &env);
        cfg.steps = 8;
        let long = run(&cfg, &env);
        let ratio = long.breakdown.comm / short.breakdown.comm;
        assert!((ratio - 4.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn message_size_override_increases_comm() {
        let p = perf(4);
        let env = CommEnv::baseline(&p);
        let mut cfg = NBodyConfig::small(4);
        cfg.message_bytes = Some(1 << 10);
        let small = run(&cfg, &env);
        cfg.message_bytes = Some(1 << 20);
        let big = run(&cfg, &env);
        assert!(big.breakdown.comm > 10.0 * small.breakdown.comm);
    }

    #[test]
    fn compute_time_quadratic_in_bodies() {
        let p = perf(2);
        let env = CommEnv::baseline(&p);
        let mut cfg = NBodyConfig::small(2);
        cfg.bodies = 32;
        let a = run(&cfg, &env);
        cfg.bodies = 64;
        let b = run(&cfg, &env);
        let ratio = b.breakdown.compute / a.breakdown.compute;
        assert!((ratio - 4.0).abs() < 0.01, "ratio {ratio}");
    }
}
