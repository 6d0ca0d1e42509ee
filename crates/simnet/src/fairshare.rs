//! Max-min fair rate allocation (progressive filling).
//!
//! The solve is indexed. A per-solve CSR incidence lists, for each used
//! link, the flows crossing it in ascending flow order, so a bottleneck
//! round visits only the flows it freezes and the links they cross.
//! Bottlenecks come from a queue of link fair shares keyed by
//! `(share, first-seen rank)`: the initial shares sorted once, plus a lazy
//! min-heap for shares that changed. A link's share never grows smaller
//! in exact arithmetic, so a changed share is queued only when rounding
//! made it smaller, or when its stale entry reaches the front. A solve
//! runs in `O(I + L log L)` for `I` flow-link incidences over `L` used
//! links, plus `O(log L)` per re-queued share. The bottleneck order, its
//! tie-breaking (the first-seen link wins among equal shares) and the
//! order of every per-link subtraction are those of the plain linear-scan
//! progressive filling, so the rates are bit-identical to it.

use crate::topology::{LinkId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `rank_of` entry of a link no flow of the current solve crosses.
const UNSEEN: u32 = u32::MAX;

/// A queued link: `(share key, rank)`, ordered as the bottleneck choice is.
type Entry = (u64, u32);

/// Reusable scratch for max-min solves: after the first few solves of a
/// similar size, [`FairShare::rates`] allocates nothing.
///
/// Links are renumbered by *rank*, the order in which the solve first meets
/// them walking the paths in flow order; every per-link array below is
/// indexed by rank.
#[derive(Debug, Default)]
pub struct FairShare {
    /// Rank of each topology link in the current solve, or `UNSEEN`.
    rank_of: Vec<u32>,
    /// Topology link of each rank.
    used: Vec<LinkId>,
    /// Remaining capacity per rank.
    cap: Vec<f64>,
    /// Unfrozen flows crossing each rank.
    cnt: Vec<u32>,
    /// Fair share `cap / cnt` per rank, as of the last round that touched it.
    share: Vec<f64>,
    /// The last round that touched each rank.
    touched_in: Vec<u32>,
    /// Flow `f`'s path as ranks: `path_ranks[path_end[f - 1]..path_end[f]]`.
    path_ranks: Vec<u32>,
    path_end: Vec<u32>,
    /// The flows crossing rank `r`, ascending:
    /// `link_flows[link_end[r - 1]..link_end[r]]`.
    link_flows: Vec<u32>,
    link_end: Vec<u32>,
    frozen: Vec<bool>,
    touched: Vec<u32>,
    /// Every rank's initial share, sorted; consumed from the front.
    sorted: Vec<Entry>,
    /// Shares queued after the start.
    heap: BinaryHeap<Reverse<Entry>>,
    rates: Vec<f64>,
}

/// Queue key of a fair share. Shares are non-negative, where the bit
/// pattern orders like the value; adding `0.0` maps `-0.0` to `+0.0`.
fn share_key(share: f64) -> u64 {
    debug_assert!(share >= 0.0, "negative fair share {share}");
    (share + 0.0).to_bits()
}

/// `[end[i - 1], end[i])` with `end[-1] = 0`.
fn span(end: &[u32], i: usize) -> std::ops::Range<usize> {
    let lo = if i == 0 { 0 } else { end[i - 1] as usize };
    lo..end[i] as usize
}

impl FairShare {
    /// Max-min fair rates of `paths` on `topo`, one per flow.
    ///
    /// `paths[f]` is flow `f`'s directed link path (non-empty). Progressive
    /// filling: repeatedly take the most contended link (smallest remaining
    /// capacity per unfrozen flow; the first-seen link on ties), freeze its
    /// unfrozen flows at that share in ascending flow order, subtract each
    /// from every link on its path, and continue until every flow is frozen.
    pub fn rates<P: AsRef<[LinkId]>>(&mut self, topo: &Topology, paths: &[P]) -> &[f64] {
        let nf = paths.len();
        self.rates.clear();
        self.rates.resize(nf, 0.0);
        if nf == 0 {
            return &self.rates;
        }
        if self.rank_of.len() < topo.link_count() {
            self.rank_of.resize(topo.link_count(), UNSEEN);
        }

        // Rank the used links and write each path as ranks.
        self.used.clear();
        self.cap.clear();
        self.cnt.clear();
        self.path_ranks.clear();
        self.path_end.clear();
        for path in paths {
            let path = path.as_ref();
            debug_assert!(!path.is_empty(), "flows must traverse at least one link");
            for &l in path {
                let mut r = self.rank_of[l];
                if r == UNSEEN {
                    r = self.used.len() as u32;
                    self.rank_of[l] = r;
                    self.used.push(l);
                    self.cap.push(topo.link(l).capacity);
                    self.cnt.push(0);
                }
                self.cnt[r as usize] += 1;
                self.path_ranks.push(r);
            }
            self.path_end.push(self.path_ranks.len() as u32);
        }
        let nl = self.used.len();

        // Link → flows incidence: `link_end` starts as each rank's start
        // offset and is advanced to its end by the fill.
        self.link_end.clear();
        let mut offset = 0;
        for &c in &self.cnt {
            self.link_end.push(offset);
            offset += c;
        }
        self.link_flows.clear();
        self.link_flows.resize(offset as usize, 0);
        for f in 0..nf {
            for &r in &self.path_ranks[span(&self.path_end, f)] {
                let end = &mut self.link_end[r as usize];
                self.link_flows[*end as usize] = f as u32;
                *end += 1;
            }
        }

        self.share.clear();
        self.share.extend(
            self.cap
                .iter()
                .zip(&self.cnt)
                .map(|(&c, &n)| c / f64::from(n)),
        );
        self.sorted.clear();
        self.sorted.extend(
            self.share
                .iter()
                .enumerate()
                .map(|(r, &s)| (share_key(s), r as u32)),
        );
        self.sorted.sort_unstable();
        self.heap.clear();
        self.touched_in.clear();
        self.touched_in.resize(nl, 0);
        self.frozen.clear();
        self.frozen.resize(nf, false);

        // Every live rank has a queued entry no larger than its current
        // key, so a popped entry equal to its rank's current key is the
        // smallest live key: the bottleneck.
        let mut next_sorted = 0;
        let mut remaining = nf;
        let mut round = 0;
        while remaining > 0 {
            let (key, b) = match (self.sorted.get(next_sorted), self.heap.peek()) {
                (Some(&s), Some(&Reverse(h))) if h < s => {
                    self.heap.pop();
                    h
                }
                (Some(&s), _) => {
                    next_sorted += 1;
                    s
                }
                (None, Some(&Reverse(h))) => {
                    self.heap.pop();
                    h
                }
                (None, None) => unreachable!("live link must exist while flows remain"),
            };
            let b = b as usize;
            if self.cnt[b] == 0 {
                continue; // drained
            }
            let share = self.share[b];
            if share_key(share) != key {
                // Stale: its share has grown since the entry was queued.
                self.heap.push(Reverse((share_key(share), b as u32)));
                continue;
            }
            round += 1;

            // Freeze every unfrozen flow crossing the bottleneck.
            for &f in &self.link_flows[span(&self.link_end, b)] {
                let f = f as usize;
                if self.frozen[f] {
                    continue;
                }
                self.frozen[f] = true;
                remaining -= 1;
                self.rates[f] = share;
                for &r in &self.path_ranks[span(&self.path_end, f)] {
                    let r = r as usize;
                    self.cap[r] -= share;
                    self.cnt[r] -= 1;
                    if self.cap[r] < 0.0 {
                        self.cap[r] = 0.0; // numerical guard
                    }
                    if self.touched_in[r] != round {
                        self.touched_in[r] = round;
                        self.touched.push(r as u32);
                    }
                }
            }
            for &r in &self.touched {
                let r = r as usize;
                if self.cnt[r] > 0 {
                    let share = self.cap[r] / f64::from(self.cnt[r]);
                    if share < self.share[r] {
                        // Rounding shrank it below its queued entries.
                        self.heap.push(Reverse((share_key(share), r as u32)));
                    }
                    self.share[r] = share;
                }
            }
            self.touched.clear();
        }

        for &l in &self.used {
            self.rank_of[l] = UNSEEN;
        }
        &self.rates
    }
}

/// Max-min fair rates of `paths` on `topo`, with a one-off scratch (see
/// [`FairShare::rates`]; a caller that solves repeatedly keeps a
/// [`FairShare`]).
pub fn max_min_rates<P: AsRef<[LinkId]>>(topo: &Topology, paths: &[P]) -> Vec<f64> {
    FairShare::default().rates(topo, paths).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    fn topo() -> Topology {
        Topology::tree(
            2,
            4,
            LinkSpec {
                capacity: 100.0,
                latency: 0.0,
            },
            LinkSpec {
                capacity: 250.0,
                latency: 0.0,
            },
        )
    }

    #[test]
    fn single_flow_gets_bottleneck() {
        let t = topo();
        let rates = max_min_rates(&t, &[t.path(0, 1)]);
        assert_eq!(rates, vec![100.0]);
    }

    #[test]
    fn two_flows_share_a_link() {
        let t = topo();
        // Both flows leave host 0: share its 100-capacity up link.
        let rates = max_min_rates(&t, &[t.path(0, 1), t.path(0, 2)]);
        assert_eq!(rates, vec![50.0, 50.0]);
    }

    #[test]
    fn disjoint_flows_independent() {
        let t = topo();
        let rates = max_min_rates(&t, &[t.path(0, 1), t.path(2, 3)]);
        assert_eq!(rates, vec![100.0, 100.0]);
    }

    #[test]
    fn core_link_oversubscription() {
        let t = topo();
        // Four cross-rack flows from distinct hosts all cross rack 0's up
        // link (capacity 250): fair share 62.5 each, below the 100 host
        // limit.
        let paths: Vec<_> = (0..4).map(|h| t.path(h, 4 + h)).collect();
        let rates = max_min_rates(&t, &paths);
        for r in rates {
            assert!((r - 62.5).abs() < 1e-9, "rate {r}");
        }
    }

    #[test]
    fn max_min_not_just_equal_split() {
        let t = topo();
        // Flow A: 0→1 (intra, host links only). Flows B, C: 0→4 and 2→4
        // both end at host 4's down link (100).
        // Host 0 up carries A and B → A and B get ≤ 50. C shares 4-down
        // with B: B frozen at 50 leaves C 50? Let's check max-min:
        // bottleneck search: host0-up: 100/2 = 50; host4-down: 100/2 = 50;
        // first freeze at 50 — all flows end up at 50 except… A also
        // crosses host1-down alone. A=50, B=50, C=50.
        let paths = vec![t.path(0, 1), t.path(0, 4), t.path(2, 4)];
        let rates = max_min_rates(&t, &paths);
        assert_eq!(rates, vec![50.0, 50.0, 50.0]);
    }

    #[test]
    fn unequal_shares_when_bottlenecks_differ() {
        let t = topo();
        // B and C share host 4 down; A shares host-0-up with B only.
        // Freeze order: host0-up (A,B) at 50 each; then host4-down has C
        // unfrozen with 100 − 50 = 50 left → C = 50.
        // Now instead: three flows into host 4: fair share 33.3; a fourth
        // flow 1→2 rides free at 100.
        let paths = vec![t.path(0, 4), t.path(1, 4), t.path(2, 4), t.path(5, 6)];
        let rates = max_min_rates(&t, &paths);
        for r in &rates[..3] {
            assert!((r - 100.0 / 3.0).abs() < 1e-9);
        }
        assert!((rates[3] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        let t = topo();
        assert!(max_min_rates::<Vec<LinkId>>(&t, &[]).is_empty());
    }

    #[test]
    fn rates_saturate_some_link() {
        // Property: in a max-min allocation every flow crosses at least one
        // saturated link.
        let t = topo();
        let paths = vec![t.path(0, 5), t.path(1, 5), t.path(0, 2), t.path(3, 7)];
        let rates = max_min_rates(&t, &paths);
        let mut load = vec![0.0; t.link_count()];
        for (f, p) in paths.iter().enumerate() {
            for &l in p {
                load[l] += rates[f];
            }
        }
        for (f, p) in paths.iter().enumerate() {
            let saturated = p
                .iter()
                .any(|&l| (load[l] - t.link(l).capacity).abs() < 1e-6);
            assert!(saturated, "flow {f} crosses no saturated link");
        }
    }
}
