//! Max-min fair rate allocation (progressive filling), kept up to date
//! across flow arrivals and departures.
//!
//! A [`FairShare`] holds the live flows and, between events, everything a
//! solve needs that does not change within it:
//!
//! * each used link's *tie key* `(arrival number of its first flow,
//!   position in that flow's path)`, which orders links exactly as the
//!   order in which a walk of the paths in arrival order first meets them;
//! * each link's flows in ascending arrival order (the link → flow
//!   incidence), with its capacity and flow count;
//! * every used link's initial fair share `capacity / count`, sorted by
//!   `(share, tie key)`.
//!
//! An arrival or departure of a flow crossing `p` links touches only
//! those links: it removes and re-inserts their sorted entries (`O(p log
//! L)` comparisons and `O(p L)` entry moves over `L` used links), edits
//! their flow lists, and recomputes their tie keys. A solve then resets
//! its `O(L + F)` working arrays for `F` flows and runs the progressive
//! filling: bottlenecks come from the sorted initial shares consumed from
//! the front, plus a lazy min-heap for shares that changed. A link's share
//! never grows smaller in exact arithmetic, so a changed share is queued
//! only when rounding made it smaller, or when its stale entry reaches the
//! front. A bottleneck round visits only the flows it freezes and the
//! links they cross, so the filling runs in `O(I + L)` for `I` flow-link
//! incidences, plus `O(log L)` per re-queued share.
//!
//! The bottleneck order, its tie-breaking (the first-seen link wins among
//! equal shares) and the order of every per-link subtraction are those of
//! the plain linear-scan progressive filling over the flows in arrival
//! order, so the rates are bit-identical to it. Debug builds rebuild the
//! tie keys, the incidence and the sorted shares from scratch at every
//! solve and assert that they equal the kept state.

use crate::topology::{LinkId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A queued link: `(share key, tie key, link)`, ordered as the bottleneck
/// choice is.
type Entry = (u64, u64, u32);

/// Handle of a flow added to a [`FairShare`]: the index of its rate in
/// [`FairShare::solve`]'s output. A removed flow's slot is reused.
pub type FlowSlot = usize;

/// Bits of a tie key below the arrival number: a link's position in its
/// first flow's path.
const POS_BITS: u32 = 16;

/// A live flow, or a free slot (empty path).
#[derive(Debug, Clone, Default)]
struct Flow {
    /// Arrival number: flows are ordered by it.
    seq: u64,
    path: Vec<LinkId>,
}

/// A link's state between events.
#[derive(Debug, Clone, Default)]
struct Link {
    capacity: f64,
    /// The live flows crossing the link, one entry per crossing, in
    /// ascending arrival order.
    flows: Vec<u32>,
    /// `(arrival number of flows[0], position of the link in its path)`,
    /// packed; meaningful while `flows` is non-empty.
    tie: u64,
}

impl Link {
    fn entry(&self, l: LinkId) -> Entry {
        let share = self.capacity / self.flows.len() as f64;
        (share_key(share), self.tie, l as u32)
    }
}

/// Stateful max-min solver: add and remove flows as they arrive and
/// depart, and [`solve`](FairShare::solve) after each batch of events.
/// After the first few events of a similar size it allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct FairShare {
    /// Flows by slot.
    flows: Vec<Flow>,
    /// Free slots.
    free: Vec<u32>,
    /// Arrival number of the next flow.
    next_seq: u64,
    /// Links by topology id.
    links: Vec<Link>,
    /// Every used link's initial entry, ascending.
    sorted: Vec<Entry>,
    // Working arrays of a solve: per link, except `frozen` and `rates`
    // (per slot).
    /// Remaining capacity.
    cap: Vec<f64>,
    /// Unfrozen flows crossing the link.
    cnt: Vec<u32>,
    /// Fair share `cap / cnt`, as of the last round that touched the link.
    share: Vec<f64>,
    /// The last round that touched each link.
    touched_in: Vec<u32>,
    touched: Vec<u32>,
    frozen: Vec<bool>,
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

/// Tie key of the link at `pos` in the path of the flow that arrived
/// `seq`-th.
fn tie_key(seq: u64, pos: usize) -> u64 {
    debug_assert!(seq < 1 << (64 - POS_BITS), "arrival number overflow");
    seq << POS_BITS | pos as u64
}

impl FairShare {
    /// Add a flow along `path` (directed links of `topo`, non-empty). It
    /// arrives after every flow added before it.
    pub fn add(&mut self, topo: &Topology, path: &[LinkId]) -> FlowSlot {
        assert!(!path.is_empty(), "flows must traverse at least one link");
        assert!(path.len() < 1 << POS_BITS, "path too long");
        if self.links.len() < topo.link_count() {
            self.links.resize_with(topo.link_count(), Link::default);
        }
        let slot = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                self.flows.push(Flow::default());
                self.flows.len() - 1
            }
        };
        self.flows[slot].seq = self.next_seq;
        self.next_seq += 1;
        self.flows[slot].path.extend_from_slice(path);
        self.unqueue(slot);
        for &l in path {
            let link = &mut self.links[l];
            link.capacity = topo.link(l).capacity;
            link.flows.push(slot as u32);
        }
        self.requeue(slot);
        slot
    }

    /// Remove the live flow in `slot`.
    pub fn remove(&mut self, slot: FlowSlot) {
        assert!(
            !self.flows[slot].path.is_empty(),
            "slot {slot} holds no live flow"
        );
        self.unqueue(slot);
        for &l in &self.flows[slot].path {
            let flows = &mut self.links[l].flows;
            let i = flows
                .iter()
                .position(|&f| f as usize == slot)
                .expect("a live flow is listed on its links");
            flows.remove(i);
        }
        self.requeue(slot);
        self.flows[slot].path.clear();
        self.free.push(slot as u32);
    }

    /// Drop the sorted entries of `slot`'s links.
    fn unqueue(&mut self, slot: usize) {
        for &l in &self.flows[slot].path {
            let link = &self.links[l];
            if link.flows.is_empty() {
                continue;
            }
            // A link crossed twice is found once.
            if let Ok(i) = self.sorted.binary_search(&link.entry(l)) {
                self.sorted.remove(i);
            }
        }
    }

    /// Recompute the tie keys of `slot`'s links and insert their entries.
    fn requeue(&mut self, slot: usize) {
        for &l in &self.flows[slot].path {
            let link = &mut self.links[l];
            let Some(&first) = link.flows.first() else {
                continue;
            };
            let first = &self.flows[first as usize];
            let pos = first
                .path
                .iter()
                .position(|&x| x == l)
                .expect("a listed flow crosses the link");
            link.tie = tie_key(first.seq, pos);
            let entry = link.entry(l);
            if let Err(i) = self.sorted.binary_search(&entry) {
                self.sorted.insert(i, entry);
            }
        }
    }

    /// Max-min fair rates of the live flows, indexed by [`FlowSlot`] (a
    /// free slot reads 0).
    ///
    /// Progressive filling: repeatedly take the most contended link
    /// (smallest remaining capacity per unfrozen flow; the first-seen link
    /// in arrival order on ties), freeze its unfrozen flows at that share
    /// in arrival order, subtract each from every link on its path, and
    /// continue until every flow is frozen.
    pub fn solve(&mut self) -> &[f64] {
        #[cfg(debug_assertions)]
        self.check_kept_state();
        let nf = self.flows.len();
        self.rates.clear();
        self.rates.resize(nf, 0.0);
        let mut remaining = nf - self.free.len();
        if remaining == 0 {
            return &self.rates;
        }
        let nl = self.links.len();
        self.cap.resize(nl, 0.0);
        self.cnt.resize(nl, 0);
        self.share.resize(nl, 0.0);
        self.touched_in.resize(nl, 0);
        for &(_, _, l) in &self.sorted {
            let l = l as usize;
            let link = &self.links[l];
            let n = link.flows.len() as u32;
            self.cap[l] = link.capacity;
            self.cnt[l] = n;
            self.share[l] = link.capacity / f64::from(n);
            self.touched_in[l] = 0;
        }
        self.frozen.clear();
        self.frozen.resize(nf, false);
        self.heap.clear();

        // Every live link has a queued entry no larger than its current
        // key, so a popped entry equal to its link's current key is the
        // smallest live key: the bottleneck.
        let mut next_sorted = 0;
        let mut round = 0;
        while remaining > 0 {
            let (key, _, b) = match (self.sorted.get(next_sorted), self.heap.peek()) {
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
                self.heap
                    .push(Reverse((share_key(share), self.links[b].tie, b as u32)));
                continue;
            }
            round += 1;

            // Freeze every unfrozen flow crossing the bottleneck.
            for &f in &self.links[b].flows {
                let f = f as usize;
                if self.frozen[f] {
                    continue;
                }
                self.frozen[f] = true;
                remaining -= 1;
                self.rates[f] = share;
                for &r in &self.flows[f].path {
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
                        self.heap
                            .push(Reverse((share_key(share), self.links[r].tie, r as u32)));
                    }
                    self.share[r] = share;
                }
            }
            self.touched.clear();
        }
        &self.rates
    }

    /// Max-min fair rates of `paths` on `topo`, one per flow: drop every
    /// flow, add `paths[f]` as the `f`-th arrival, and [`solve`].
    ///
    /// [`solve`]: FairShare::solve
    pub fn rates<P: AsRef<[LinkId]>>(&mut self, topo: &Topology, paths: &[P]) -> &[f64] {
        for link in &mut self.links {
            link.flows.clear();
        }
        self.flows.clear();
        self.free.clear();
        self.sorted.clear();
        self.next_seq = 0;
        for path in paths {
            self.add(topo, path.as_ref());
        }
        self.solve()
    }

    /// Rebuild the first-seen ranking, the incidence and the sorted initial
    /// shares from the live flows alone, as a solve without kept state
    /// would, and assert that the kept state equals them.
    #[cfg(debug_assertions)]
    fn check_kept_state(&self) {
        let mut order: Vec<usize> = (0..self.flows.len())
            .filter(|&s| !self.flows[s].path.is_empty())
            .collect();
        debug_assert_eq!(order.len(), self.flows.len() - self.free.len());
        order.sort_by_key(|&s| self.flows[s].seq);
        let mut tie = vec![None; self.links.len()];
        let mut used = Vec::new();
        let mut incidence = vec![Vec::new(); self.links.len()];
        for &s in &order {
            for (pos, &l) in self.flows[s].path.iter().enumerate() {
                if tie[l].is_none() {
                    tie[l] = Some(tie_key(self.flows[s].seq, pos));
                    used.push(l);
                }
                incidence[l].push(s as u32);
            }
        }
        // Ranks are positions in `used`: tie keys must ascend along it.
        debug_assert!(
            used.windows(2).all(|w| tie[w[0]] < tie[w[1]]),
            "tie keys disagree with the first-seen ranking"
        );
        for (l, link) in self.links.iter().enumerate() {
            debug_assert_eq!(link.flows, incidence[l], "link {l}'s flows");
            if let Some(t) = tie[l] {
                debug_assert_eq!(link.tie, t, "link {l}'s tie key");
            }
        }
        let mut sorted: Vec<Entry> = used.iter().map(|&l| self.links[l].entry(l)).collect();
        sorted.sort_unstable();
        debug_assert_eq!(sorted, self.sorted, "sorted initial shares");
    }
}

/// Max-min fair rates of `paths` on `topo`, with a one-off solver (see
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
