//! Partitioning of the calibration schedule across shards.
//!
//! Rounds cannot be sharded *across* each other: every probe's absolute
//! start time depends on the measured maxima of all earlier rounds, so the
//! schedule's round order is a global data dependency. What *is*
//! embarrassingly parallel is the inside of a round — its `⌊N/2⌋` disjoint
//! pairs touch disjoint cells and share one start time. [`ShardPlan`]
//! therefore keeps the round sequence intact and splits each round's pair
//! list into up to `K` contiguous chunks, one per shard.
//!
//! Bit-identity with the unsharded calibrator holds for *any* chunking:
//! each pair's [`AttemptSeries`](cloudconst_netmodel::AttemptSeries) is a
//! pure function of `(pair, bytes, at, retry)`, per-cell writes are
//! disjoint, counter merges are integer sums, and the clock advance is an
//! `f64` `max` — exact, associative and commutative — so `max` over shard
//! maxima equals the unsharded fold.

use crate::transport::ShardId;
use cloudconst_netmodel::CalibrationConfig;

/// The per-round shard assignments of one calibration.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    n: usize,
    shards: usize,
    rounds: Vec<Vec<(usize, usize)>>,
}

impl ShardPlan {
    /// Plan an `n`-instance calibration across `shards` workers under the
    /// given protocol config. Panics on `shards == 0`.
    pub fn new(n: usize, shards: usize, config: &CalibrationConfig) -> Self {
        assert!(shards >= 1, "at least one shard required");
        ShardPlan {
            n,
            shards,
            rounds: config.schedule(n),
        }
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Shard count `K`.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of rounds in the schedule.
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// All pairs of round `r`, in schedule order.
    pub fn round_pairs(&self, r: usize) -> &[(usize, usize)] {
        &self.rounds[r]
    }

    /// Round `r` split into at most `K` contiguous chunks; shards with no
    /// pairs this round are omitted (no empty tasks on the wire).
    pub fn chunks(&self, r: usize) -> Vec<(ShardId, &[(usize, usize)])> {
        let pairs = &self.rounds[r];
        if pairs.is_empty() {
            return Vec::new();
        }
        let size = pairs.len().div_ceil(self.shards);
        (0..self.shards)
            .filter_map(|s| {
                let lo = s * size;
                if lo >= pairs.len() {
                    None
                } else {
                    Some((s, &pairs[lo..(lo + size).min(pairs.len())]))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_each_round_in_order() {
        for (n, k) in [(8usize, 1usize), (8, 3), (16, 4), (9, 8), (16, 32)] {
            let plan = ShardPlan::new(n, k, &CalibrationConfig::default());
            for r in 0..plan.rounds() {
                let joined: Vec<(usize, usize)> = plan
                    .chunks(r)
                    .into_iter()
                    .flat_map(|(_, c)| c.iter().copied())
                    .collect();
                assert_eq!(joined, plan.round_pairs(r), "n={n} k={k} round {r}");
            }
        }
    }

    #[test]
    fn chunks_respect_shard_bound() {
        let plan = ShardPlan::new(16, 4, &CalibrationConfig::default());
        for r in 0..plan.rounds() {
            let chunks = plan.chunks(r);
            assert!(chunks.len() <= 4);
            for (s, c) in &chunks {
                assert!(*s < 4);
                assert!(!c.is_empty());
            }
        }
    }

    #[test]
    fn serial_schedule_plan_has_single_pair_rounds() {
        let cfg = CalibrationConfig { concurrent: false };
        let plan = ShardPlan::new(4, 2, &cfg);
        assert_eq!(plan.rounds(), 12); // 4·3 ordered pairs
        for r in 0..plan.rounds() {
            assert_eq!(plan.round_pairs(r).len(), 1);
        }
    }
}
