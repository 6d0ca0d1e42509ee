//! Temporal performance matrices (paper §III).

use crate::perf_matrix::PerfMatrix;
use cloudconst_linalg::Mat;
use serde::{Deserialize, Serialize};

/// How to fill a TP-matrix cell that calibration failed to observe.
///
/// Imputed cells are *marked* in the observation mask so downstream error
/// accounting (`Norm(N_E)`) can exclude them; the fill value only has to be
/// plausible enough that RPCA treats any residual as a sparse error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ImputePolicy {
    /// The most recent *observed* value of the same cell from an earlier
    /// snapshot; falls back to the snapshot median when the cell has never
    /// been observed. The right default: link constants are exactly the
    /// thing that persists between snapshots.
    LastGood,
    /// The median of the observed off-diagonal cells of this snapshot —
    /// crude (it mixes distance classes) but usable for a first snapshot
    /// with no history.
    SnapshotMedian,
    /// The current rank-one constant prediction: a rank-1 RPCA
    /// (`cloudconst_rpca::rank1_rpca`) over the history rows of the same
    /// plane yields `N_D`, and the masked cell is filled with its predicted
    /// constant — the paper's own model, pointed back at its input. Falls
    /// back to the snapshot median when there is no history yet. Imputed
    /// cells stay masked, so `Norm(N_E)` accounting still excludes them.
    ModelPrediction,
}

/// The temporal performance matrix `N_A[T₀, T₁]`.
///
/// Each calibration produces one [`PerfMatrix`]; its `N × N` latency and
/// inverse-bandwidth matrices are flattened row-wise into `N²`-dimensional
/// vectors and stacked by measurement time, yielding two `steps × N²`
/// matrices. RPCA is run on each independently; the paper's figures use the
/// combined transfer-time view, which is a linear combination of the two.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TpMatrix {
    n: usize,
    times: Vec<f64>,
    alpha: Mat,
    inv_beta: Mat,
    /// `steps × N²` observation mask: 1.0 where the cell was measured,
    /// 0.0 where it was imputed (diagonal cells are always 1.0 — their
    /// cost is structurally zero, not a measurement).
    mask: Mat,
}

impl TpMatrix {
    /// Empty TP-matrix for a cluster of `n` instances.
    pub fn new(n: usize) -> Self {
        TpMatrix {
            n,
            times: Vec::new(),
            alpha: Mat::zeros(0, n * n),
            inv_beta: Mat::zeros(0, n * n),
            mask: Mat::zeros(0, n * n),
        }
    }

    /// Build from timestamped snapshots. Panics if any snapshot's size
    /// disagrees or timestamps decrease.
    pub fn from_snapshots(n: usize, snaps: &[(f64, PerfMatrix)]) -> Self {
        let mut tp = TpMatrix::new(n);
        for (t, pm) in snaps {
            tp.push(*t, pm);
        }
        tp
    }

    /// Append one fully-observed calibration snapshot.
    pub fn push(&mut self, time: f64, pm: &PerfMatrix) {
        let observed = vec![true; self.n * self.n];
        self.push_masked(time, pm, &observed, ImputePolicy::LastGood);
    }

    /// Append a partially-observed snapshot: `observed` is the row-major
    /// `N²` mask from the calibration's probe log; unobserved cells of `pm`
    /// are replaced according to `impute` and recorded as masked.
    pub fn push_masked(&mut self, time: f64, pm: &PerfMatrix, observed: &[bool], impute: ImputePolicy) {
        assert_eq!(pm.n(), self.n, "snapshot size mismatch");
        assert_eq!(observed.len(), self.n * self.n, "mask size mismatch");
        let n = self.n;
        // Diagonal cells are structurally zero, never imputed.
        let observed_cell = |k: usize| observed[k] || k / n == k % n;
        let (mut af, mut bf) = pm.flatten();
        // A fully observed snapshot has nothing to fill: skip the per-plane
        // median sorts.
        if !(0..n * n).all(observed_cell) {
            self.impute_row(&mut af, observed, impute, Which::Alpha);
            self.impute_row(&mut bf, observed, impute, Which::InvBeta);
        }
        let mask: Vec<f64> = (0..n * n)
            .map(|k| if observed_cell(k) { 1.0 } else { 0.0 })
            .collect();
        self.push_rows(time, &af, &bf, &mask);
    }

    /// Append one snapshot's flattened planes in place.
    fn push_rows(&mut self, time: f64, af: &[f64], bf: &[f64], mask: &[f64]) {
        if let Some(&last) = self.times.last() {
            assert!(time >= last, "snapshots must be time-ordered");
        }
        self.alpha.push_row(af);
        self.inv_beta.push_row(bf);
        self.mask.push_row(mask);
        self.times.push(time);
    }

    /// Fill the unobserved cells of one flattened snapshot row in place.
    /// Called only when at least one off-diagonal cell is unobserved.
    fn impute_row(&self, row: &mut [f64], observed: &[bool], impute: ImputePolicy, which: Which) {
        let n = self.n;
        // Median of the observed off-diagonal cells of this snapshot — the
        // fallback for cells with no usable history.
        let mut seen: Vec<f64> = (0..n * n)
            .filter(|&k| observed[k] && k / n != k % n)
            .map(|k| row[k])
            .collect();
        seen.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
        let median = if seen.is_empty() {
            0.0
        } else {
            seen[seen.len() / 2]
        };

        let hist = match which {
            Which::Alpha => &self.alpha,
            Which::InvBeta => &self.inv_beta,
        };
        // The rank-one constant of the history plane, solved once per push;
        // the caller only imputes when some cell is unobserved.
        let model: Option<Vec<f64>> = match impute {
            ImputePolicy::ModelPrediction if self.steps() > 0 => {
                let opts = cloudconst_rpca::Rank1Options::default();
                Some(cloudconst_rpca::rank1_rpca(hist, &opts).constant)
            }
            _ => None,
        };
        for k in 0..n * n {
            if observed[k] || k / n == k % n {
                continue;
            }
            row[k] = match impute {
                ImputePolicy::SnapshotMedian => median,
                ImputePolicy::LastGood => {
                    // Walk history backwards for the last observed value of
                    // this cell.
                    (0..self.steps())
                        .rev()
                        .find(|&s| self.mask[(s, k)] > 0.5)
                        .map(|s| hist[(s, k)])
                        .unwrap_or(median)
                }
                ImputePolicy::ModelPrediction => model
                    .as_ref()
                    .map(|c| c[k])
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .unwrap_or(median),
            };
        }
    }

    /// Number of instances `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of snapshots (the paper's *time step* parameter).
    #[inline]
    pub fn steps(&self) -> usize {
        self.times.len()
    }

    /// Measurement times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The `steps × N²` latency matrix (RPCA input).
    pub fn alpha_matrix(&self) -> &Mat {
        &self.alpha
    }

    /// The `steps × N²` inverse-bandwidth matrix (RPCA input).
    pub fn inv_beta_matrix(&self) -> &Mat {
        &self.inv_beta
    }

    /// The `steps × N²` observation mask (1.0 measured, 0.0 imputed).
    pub fn mask_matrix(&self) -> &Mat {
        &self.mask
    }

    /// Was cell `(i, j)` of snapshot `k` actually measured?
    pub fn observed(&self, k: usize, i: usize, j: usize) -> bool {
        self.mask[(k, i * self.n + j)] > 0.5
    }

    /// Fraction of off-diagonal cells (over all snapshots) that were
    /// imputed rather than measured. Zero for a fully-observed matrix.
    pub fn masked_fraction(&self) -> f64 {
        let links = self.steps() * self.n * self.n.saturating_sub(1);
        if links == 0 {
            return 0.0;
        }
        let masked = self
            .mask
            .as_slice()
            .iter()
            .filter(|&&v| v < 0.5)
            .count();
        masked as f64 / links as f64
    }

    /// Combined transfer-time matrix at a message size: `α + bytes · β⁻¹`
    /// per entry. This is the single-number-per-link view of Fig. 2.
    pub fn weight_matrix(&self, bytes: u64) -> Mat {
        self.alpha
            .zip_with(&self.inv_beta, "tp-weights", |a, ib| a + bytes as f64 * ib)
            .expect("shapes equal by construction")
    }

    /// Reconstruct snapshot `k` as a [`PerfMatrix`].
    pub fn snapshot(&self, k: usize) -> PerfMatrix {
        PerfMatrix::from_flat(self.n, self.alpha.row(k), self.inv_beta.row(k))
    }

    /// The first `k` snapshots as a new TP-matrix (used in the time-step
    /// accuracy study, Fig. 5). The observation mask is carried over.
    pub fn prefix(&self, k: usize) -> TpMatrix {
        let k = k.min(self.steps());
        let mut tp = TpMatrix::new(self.n);
        for i in 0..k {
            let (a, b, m) = (self.alpha.row(i), self.inv_beta.row(i), self.mask.row(i));
            tp.push_rows(self.times[i], a, b, m);
        }
        tp
    }
}

/// Which flattened plane an imputation pass is filling.
#[derive(Clone, Copy)]
enum Which {
    Alpha,
    InvBeta,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha_beta::LinkPerf;

    fn pm(n: usize, scale: f64) -> PerfMatrix {
        PerfMatrix::from_fn(n, |i, j| {
            LinkPerf::new(scale * (1 + i + j) as f64 * 1e-4, 1e8 / scale)
        })
    }

    #[test]
    fn shape_matches_paper_layout() {
        let mut tp = TpMatrix::new(3);
        tp.push(0.0, &pm(3, 1.0));
        tp.push(1.0, &pm(3, 2.0));
        assert_eq!(tp.steps(), 2);
        assert_eq!(tp.alpha_matrix().shape(), (2, 9));
        assert_eq!(tp.inv_beta_matrix().shape(), (2, 9));
    }

    #[test]
    fn snapshot_roundtrip() {
        let original = pm(4, 1.5);
        let mut tp = TpMatrix::new(4);
        tp.push(0.0, &original);
        let back = tp.snapshot(0);
        for i in 0..4 {
            for j in 0..4 {
                let a = original.transfer_time(i, j, 12345);
                let b = back.transfer_time(i, j, 12345);
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_times_panic() {
        let mut tp = TpMatrix::new(2);
        tp.push(5.0, &pm(2, 1.0));
        tp.push(1.0, &pm(2, 1.0));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_size_panics() {
        let mut tp = TpMatrix::new(2);
        tp.push(0.0, &pm(3, 1.0));
    }

    #[test]
    fn weight_matrix_combines_alpha_beta() {
        let mut p = PerfMatrix::ideal(2);
        p.set(0, 1, LinkPerf::new(0.25, 1000.0));
        let mut tp = TpMatrix::new(2);
        tp.push(0.0, &p);
        let w = tp.weight_matrix(500);
        // Column layout: (0,0) (0,1) (1,0) (1,1).
        assert!((w[(0, 1)] - 0.75).abs() < 1e-12);
        assert_eq!(w[(0, 0)], 0.0);
    }

    #[test]
    fn prefix_truncates() {
        let mut tp = TpMatrix::new(2);
        for k in 0..5 {
            tp.push(k as f64, &pm(2, (k + 1) as f64));
        }
        let pre = tp.prefix(3);
        assert_eq!(pre.steps(), 3);
        assert_eq!(pre.times(), &[0.0, 1.0, 2.0]);
        // Oversized prefix is the whole matrix.
        assert_eq!(tp.prefix(99).steps(), 5);
    }

    #[test]
    fn model_prediction_fills_from_rank_one_constant() {
        // Three identical clean snapshots: the rank-one constant of each
        // column is exactly the historical cell value.
        let truth = pm(3, 1.0);
        let mut tp = TpMatrix::new(3);
        for k in 0..3 {
            tp.push(k as f64 * 10.0, &truth);
        }
        // Mask link (0, 2) — row-major cell 2 — in the fourth snapshot.
        let masked = 2;
        let mut observed = vec![true; 9];
        observed[masked] = false;
        tp.push_masked(30.0, &truth, &observed, ImputePolicy::ModelPrediction);

        let want_alpha = tp.alpha_matrix()[(0, masked)];
        let got_alpha = tp.alpha_matrix()[(3, masked)];
        assert!(
            (got_alpha - want_alpha).abs() / want_alpha < 1e-6,
            "model fill {got_alpha} should match the constant {want_alpha}"
        );
        let want_ib = tp.inv_beta_matrix()[(0, masked)];
        let got_ib = tp.inv_beta_matrix()[(3, masked)];
        assert!((got_ib - want_ib).abs() / want_ib < 1e-6);
        // Imputed cell stays masked for Norm(N_E) accounting.
        assert_eq!(tp.mask[(3, masked)], 0.0);
    }

    #[test]
    fn model_prediction_falls_back_to_median_without_history() {
        let truth = pm(3, 1.0);
        // Link (1, 0) — row-major cell 3.
        let masked = 3;
        let mut observed = vec![true; 9];
        observed[masked] = false;

        let mut with_model = TpMatrix::new(3);
        with_model.push_masked(0.0, &truth, &observed, ImputePolicy::ModelPrediction);
        let mut with_median = TpMatrix::new(3);
        with_median.push_masked(0.0, &truth, &observed, ImputePolicy::SnapshotMedian);
        assert_eq!(
            with_model.alpha_matrix()[(0, masked)],
            with_median.alpha_matrix()[(0, masked)],
            "no history: ModelPrediction must degrade to the snapshot median"
        );
    }

    #[test]
    fn from_snapshots_builder() {
        let snaps = vec![(0.0, pm(2, 1.0)), (10.0, pm(2, 2.0))];
        let tp = TpMatrix::from_snapshots(2, &snaps);
        assert_eq!(tp.steps(), 2);
    }
}
