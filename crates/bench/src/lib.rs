//! Experiment machinery behind the `experiments` binary, and the
//! `regress` timing harness.
//!
//! The EC2-style experiments (Figures 4–11) run on the synthetic cloud;
//! the large-scale simulations (Figures 12–13) run on the flow-level
//! simulator. Both follow the paper's protocol: calibrate a TP-matrix,
//! derive guides (RPCA / Heuristics), then execute the applications
//! repeatedly against the *actual* (instantaneous) network and compare.

pub mod campaign;
pub mod regress;
pub mod replay;
pub mod sim_experiments;
pub mod table;

pub use campaign::{Campaign, CampaignResult, OpSeries};
pub use replay::{replay_campaign, ReplayResult};
pub use table::Table;

/// The four comparison approaches of paper §V-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// Network-oblivious: binomial trees / ring mapping (MPICH2 defaults).
    Baseline,
    /// Direct use of measurements: column-mean of the TP-matrix.
    Heuristics,
    /// The paper's proposal: RPCA constant component.
    Rpca,
    /// Static-topology-guided trees (simulations only).
    TopoAware,
}

impl Approach {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Approach::Baseline => "Baseline",
            Approach::Heuristics => "Heuristics",
            Approach::Rpca => "RPCA",
            Approach::TopoAware => "Topology-aware",
        }
    }
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Empirical quantile (nearest-rank) of unsorted data.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q));
    assert!(!xs.is_empty());
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let idx = ((q * (v.len() - 1) as f64).round() as usize).min(v.len() - 1);
    v[idx]
}

/// CDF sample points for plotting: (value, cumulative probability).
pub fn cdf_points(xs: &[f64], points: usize) -> Vec<(f64, f64)> {
    assert!(points >= 2 && !xs.is_empty());
    (0..points)
        .map(|k| {
            let q = k as f64 / (points - 1) as f64;
            (quantile(xs, q), q)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_quantiles() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 3.0); // nearest rank
    }

    #[test]
    fn cdf_monotone() {
        let xs = [5.0, 1.0, 2.0, 8.0, 3.0];
        let pts = cdf_points(&xs, 5);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Approach::Rpca.label(), "RPCA");
        assert_eq!(Approach::TopoAware.label(), "Topology-aware");
    }
}
