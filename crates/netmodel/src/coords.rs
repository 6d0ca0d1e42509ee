//! Vivaldi network coordinates — and why the paper rejects them.
//!
//! Network coordinate systems (Vivaldi, GNP) estimate all-pair latency
//! from `O(N)` measurements by embedding hosts in a metric space. The
//! paper (§IV-B) dismisses them for datacenter calibration: "Those
//! approaches are not applicable to data center networks, because the
//! triangle condition is not satisfied." This module implements Vivaldi
//! faithfully so that claim can be *measured* rather than asserted — see
//! [`triangle_violation_rate`] and the `ablation-coords` experiment,
//! which shows the embedding error dwarfing direct calibration.

use crate::NetworkProbe;

/// Embedding dimensionality (Vivaldi's classic choice, 2-3 + height).
const DIMS: usize = 3;

/// Adaptation gain `cc`: the fraction of the error corrected per sample.
const GAIN: f64 = 0.25;

/// Seed of the neighbor selection and the initialization.
const SEED: u64 = 0x717A;

/// A learned coordinate embedding predicting pair-wise latency.
#[derive(Debug, Clone)]
pub struct VivaldiModel {
    coords: Vec<[f64; DIMS]>,
    height: Vec<f64>,
}

impl VivaldiModel {
    /// Predicted one-way latency between two nodes (seconds).
    pub fn predict(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let (a, b) = (&self.coords[i], &self.coords[j]);
        let mut d2 = 0.0;
        for k in 0..DIMS {
            let d = a[k] - b[k];
            d2 += d * d;
        }
        d2.sqrt() + self.height[i] + self.height[j]
    }

    /// Number of embedded nodes.
    pub fn n(&self) -> usize {
        self.coords.len()
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Train Vivaldi coordinates against a probe, using 1-byte ping latencies.
/// Each of the `rounds` probe rounds samples every node against one random
/// neighbor: `rounds × N` probes — the linear measurement budget that makes
/// coordinates attractive versus `O(N²)` calibration.
pub fn vivaldi<P: NetworkProbe>(probe: &mut P, rounds: usize, now: f64) -> VivaldiModel {
    let n = probe.n();
    assert!(n >= 2);
    let mut coords = vec![[0.0f64; DIMS]; n];
    let mut height = vec![1e-5f64; n];
    // Small random initialization to break symmetry.
    for (i, c) in coords.iter_mut().enumerate() {
        for (k, x) in c.iter_mut().enumerate() {
            *x = 1e-4 * (unit_f64(splitmix(SEED ^ (i * DIMS + k) as u64)) - 0.5);
        }
    }

    let mut ctr = SEED;
    for round in 0..rounds {
        for i in 0..n {
            ctr = ctr.wrapping_add(1);
            let j = (splitmix(ctr) as usize) % n;
            if j == i {
                continue;
            }
            let rtt = probe.probe(i, j, 1, now + round as f64);
            // Current prediction and error.
            let mut dir = [0.0f64; DIMS];
            let mut d2 = 0.0;
            for k in 0..DIMS {
                dir[k] = coords[i][k] - coords[j][k];
                d2 += dir[k] * dir[k];
            }
            let dist = d2.sqrt();
            let pred = dist + height[i] + height[j];
            let err = rtt - pred;
            // Unit vector (random direction when colocated).
            let norm = dist.max(1e-12);
            for d in &mut dir {
                *d /= norm;
            }
            // Move i along the error.
            for k in 0..DIMS {
                coords[i][k] += GAIN * err * dir[k];
            }
            height[i] = (height[i] + GAIN * err * 0.5).max(0.0);
        }
    }
    VivaldiModel { coords, height }
}

/// Fraction of ordered triangles `(i, j, k)` whose direct latency exceeds
/// the two-hop path: `α_ij > α_ik + α_kj`. A metric space has rate 0;
/// datacenter latencies do not (the paper's §IV-B argument).
pub fn triangle_violation_rate<P: NetworkProbe>(probe: &mut P, now: f64) -> f64 {
    let n = probe.n();
    let mut lat = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                lat[i * n + j] = probe.probe(i, j, 1, now);
            }
        }
    }
    let mut violated = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            for k in 0..n {
                if k == i || k == j {
                    continue;
                }
                total += 1;
                if lat[i * n + j] > lat[i * n + k] + lat[k * n + j] + 1e-15 {
                    violated += 1;
                }
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        violated as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkPerf, PerfMatrix};

    struct ModelProbe(PerfMatrix);
    impl NetworkProbe for ModelProbe {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn probe(&mut self, i: usize, j: usize, bytes: u64, _now: f64) -> f64 {
            self.0.transfer_time(i, j, bytes)
        }
    }

    /// A perfectly embeddable latency space: points on a line.
    fn euclidean_perf(n: usize) -> PerfMatrix {
        PerfMatrix::from_fn(n, |i, j| {
            let d = (i as f64 - j as f64).abs();
            LinkPerf::new(1e-4 * d.max(0.5), 1e9)
        })
    }

    #[test]
    fn vivaldi_learns_euclidean_latencies() {
        let mut probe = ModelProbe(euclidean_perf(8));
        let model = vivaldi(&mut probe, 400, 0.0);
        // Average relative prediction error should be modest on a truly
        // embeddable space.
        let mut err = 0.0;
        let mut cnt = 0;
        for i in 0..8 {
            for j in 0..8 {
                if i == j {
                    continue;
                }
                let truth = probe.0.transfer_time(i, j, 1);
                err += (model.predict(i, j) - truth).abs() / truth;
                cnt += 1;
            }
        }
        let avg = err / cnt as f64;
        assert!(avg < 0.35, "embedding error {avg} on a metric space");
    }

    #[test]
    fn triangle_rate_zero_on_metric_space() {
        let mut probe = ModelProbe(euclidean_perf(6));
        assert_eq!(triangle_violation_rate(&mut probe, 0.0), 0.0);
    }

    #[test]
    fn triangle_rate_positive_on_violating_matrix() {
        // i→j direct is slow; the detour via k is fast.
        let mut pm = PerfMatrix::uniform(3, LinkPerf::new(1e-4, 1e9));
        pm.set(0, 1, LinkPerf::new(1e-2, 1e9));
        let mut probe = ModelProbe(pm);
        let rate = triangle_violation_rate(&mut probe, 0.0);
        assert!(rate > 0.0);
    }

    #[test]
    fn predict_self_is_zero() {
        let mut probe = ModelProbe(euclidean_perf(4));
        let model = vivaldi(&mut probe, 64, 0.0);
        assert_eq!(model.predict(2, 2), 0.0);
        assert_eq!(model.n(), 4);
    }
}
