//! The fluid discrete-event engine.

use crate::fairshare::{FairShare, FlowSlot};
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Identifier of a submitted flow.
pub type FlowId = u64;

/// Remaining-bytes threshold below which a flow counts as finished.
const DONE_EPS: f64 = 1e-6;

/// Remainders that would drain in under this many seconds count as
/// finished. Without this, a residue of a few microbytes at a high rate
/// yields a completion time below the floating-point resolution of the
/// clock (`time + dt == time`) and the event loop livelocks.
const TIME_EPS: f64 = 1e-9;

impl ActiveFlow {
    /// Has this flow effectively drained?
    fn is_done(&self) -> bool {
        self.remaining <= DONE_EPS || (self.rate > 0.0 && self.remaining <= self.rate * TIME_EPS)
    }
}

#[derive(Debug, Clone)]
struct ActiveFlow {
    id: FlowId,
    /// The flow's slot in the max-min solver, which holds its path.
    slot: FlowSlot,
    remaining: f64,
    rate: f64,
    latency: f64,
    tracked: bool,
}

#[derive(Debug, Clone)]
enum EventKind {
    FlowStart {
        id: FlowId,
        src: usize,
        dst: usize,
        bytes: f64,
        tracked: bool,
    },
    GenFire {
        gen: usize,
    },
}

#[derive(Debug, Clone)]
struct TimedEvent {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for TimedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for TimedEvent {}
impl PartialOrd for TimedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

#[derive(Debug, Clone)]
struct BackgroundGen {
    src: usize,
    dst: usize,
    bytes: f64,
    mean_wait: f64,
    /// Probability, per message, that this generator re-draws both
    /// endpoints — traffic churn. 0.0 = a fixed chronic flow.
    churn: f64,
}

/// The flow-level simulator.
///
/// Time is `f64` seconds and only moves forward. Flows are fluid: each
/// holds a max-min fair share of its path, re-solved whenever the active
/// set changes. A flow "finishes" when its bytes drain; its *arrival*
/// (what a measurement observes) adds the fixed path latency.
///
/// A clone continues exactly as the original would: given the same
/// submissions, both produce the same arrivals bit for bit.
#[derive(Debug, Clone)]
pub struct Simulator {
    topo: Topology,
    time: f64,
    active: Vec<ActiveFlow>,
    events: BinaryHeap<TimedEvent>,
    /// Tracked flows not yet collected by [`Simulator::wait_for`]: `None`
    /// while in flight, then their arrival time.
    tracked: HashMap<FlowId, Option<f64>>,
    gens: Vec<BackgroundGen>,
    rng: StdRng,
    next_id: FlowId,
    next_seq: u64,
    rates_dirty: bool,
    flows_completed: u64,
    fair: FairShare,
}

impl Simulator {
    /// Fresh simulator at time 0.
    pub fn new(topo: Topology, seed: u64) -> Self {
        Simulator {
            topo,
            time: 0.0,
            active: Vec::new(),
            events: BinaryHeap::new(),
            tracked: HashMap::new(),
            gens: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            next_seq: 0,
            rates_dirty: false,
            flows_completed: 0,
            fair: FairShare::default(),
        }
    }

    /// Current simulated time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of flows that have completed so far (including background).
    pub fn flows_completed(&self) -> u64 {
        self.flows_completed
    }

    fn push_event(&mut self, time: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(TimedEvent { time, seq, kind });
    }

    /// Submit a tracked flow of `bytes` from `src` to `dst` starting at
    /// `at` (≥ current time). Collect its arrival time, once, with
    /// [`Simulator::wait_for`].
    pub fn submit(&mut self, src: usize, dst: usize, bytes: u64, at: f64) -> FlowId {
        assert_ne!(src, dst, "flows need distinct endpoints");
        assert!(
            at >= self.time - 1e-9,
            "cannot submit in the past: at={at}, now={}",
            self.time
        );
        let id = self.next_id;
        self.next_id += 1;
        self.tracked.insert(id, None);
        self.push_event(
            at.max(self.time),
            EventKind::FlowStart {
                id,
                src,
                dst,
                bytes: bytes.max(1) as f64,
                tracked: true,
            },
        );
        id
    }

    /// Install a Poisson background-traffic source: `bytes`-sized messages
    /// from `src` to `dst` with exponential waiting times of mean
    /// `mean_wait` seconds between *send starts* (the paper's λ), starting
    /// at `from`.
    pub fn add_background(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        mean_wait: f64,
        from: f64,
    ) {
        self.add_background_with_churn(src, dst, bytes, mean_wait, from, 0.0);
    }

    /// Like [`Simulator::add_background`], but with per-message *churn*:
    /// with probability `churn` each sent message re-draws both endpoints
    /// uniformly at random — modelling tenant traffic that moves around
    /// the datacenter instead of hammering one fixed pair forever. Churn
    /// keeps the *load level* stationary while making which-link-is-busy
    /// unpredictable, which is the regime the paper argues direct
    /// measurement averages cannot handle.
    pub fn add_background_with_churn(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        mean_wait: f64,
        from: f64,
        churn: f64,
    ) {
        assert_ne!(src, dst);
        assert!(mean_wait > 0.0 && bytes > 0);
        assert!((0.0..=1.0).contains(&churn));
        let gen = self.gens.len();
        self.gens.push(BackgroundGen {
            src,
            dst,
            bytes: bytes as f64,
            mean_wait,
            churn,
        });
        let first = from.max(self.time) + self.sample_wait(mean_wait);
        self.push_event(first, EventKind::GenFire { gen });
    }

    fn sample_wait(&mut self, mean: f64) -> f64 {
        Exp::new(1.0 / mean)
            .expect("positive rate")
            .sample(&mut self.rng)
    }

    fn start_flow(&mut self, id: FlowId, src: usize, dst: usize, bytes: f64, tracked: bool) {
        // A fluid simulation of a stable system keeps a bounded flow
        // population; unbounded growth means the offered background load
        // exceeds capacity and the experiment would never drain. Fail
        // loudly instead of degrading into a quadratic crawl.
        assert!(
            self.active.len() < 50_000,
            "active flow population exploded (offered load exceeds capacity?)"
        );
        let path = self.topo.path(src, dst);
        assert!(!path.is_empty());
        let latency = self.topo.path_latency(&path);
        let slot = self.fair.add(&self.topo, &path);
        self.active.push(ActiveFlow {
            id,
            slot,
            remaining: bytes,
            rate: 0.0,
            latency,
            tracked,
        });
        self.rates_dirty = true;
    }

    fn recompute_rates(&mut self) {
        let rates = self.fair.solve();
        for f in &mut self.active {
            f.rate = rates[f.slot];
        }
        self.rates_dirty = false;
    }

    /// The next instant anything happens: the earliest pending event or
    /// completion under freshly solved rates (`INFINITY` if none).
    fn next_instant(&mut self) -> f64 {
        if self.rates_dirty {
            self.recompute_rates();
        }
        let next_event = self.events.peek().map_or(f64::INFINITY, |e| e.time);
        let next_done = self
            .active
            .iter()
            .filter(|f| f.rate > 0.0)
            .map(|f| self.time + f.remaining / f.rate)
            .min_by(|a, b| a.total_cmp(b))
            .unwrap_or(f64::INFINITY);
        next_event.min(next_done)
    }

    /// Drain fluid state and events up to (and including) `t_end`.
    pub fn run_until(&mut self, t_end: f64) {
        let t_next = self.next_instant();
        self.drain(t_next, t_end);
    }

    /// Process every instant from `t_next` (the current `next_instant`)
    /// through `t_end`, then advance the fluid
    /// to `t_end`. Returns the first instant after `t_end`.
    fn drain(&mut self, mut t_next: f64, t_end: f64) -> f64 {
        loop {
            if t_next > t_end {
                // Nothing more happens before t_end: just advance fluid.
                let dt = t_end - self.time;
                if dt > 0.0 {
                    for f in &mut self.active {
                        f.remaining -= f.rate * dt;
                    }
                    self.time = t_end;
                }
                return t_next;
            }

            // Advance to the event instant.
            let dt = t_next - self.time;
            if dt > 0.0 {
                for f in &mut self.active {
                    f.remaining -= f.rate * dt;
                }
                self.time = t_next;
            } else {
                self.time = self.time.max(t_next);
            }

            // Completions first (they free capacity for arrivals at the
            // same instant).
            let now = self.time;
            let before = self.active.len();
            let tracked = &mut self.tracked;
            let fair = &mut self.fair;
            self.active.retain(|f| {
                if !f.is_done() {
                    return true;
                }
                fair.remove(f.slot);
                if f.tracked {
                    // Arrival = transmission end + path latency.
                    tracked.insert(f.id, Some(now + f.latency));
                }
                false
            });
            let done_count = (before - self.active.len()) as u64;
            if done_count > 0 {
                self.flows_completed += done_count;
                self.rates_dirty = true;
            }

            // Due events.
            while let Some(e) = self.events.peek() {
                if e.time > self.time {
                    break;
                }
                let e = self.events.pop().unwrap();
                match e.kind {
                    EventKind::FlowStart {
                        id,
                        src,
                        dst,
                        bytes,
                        tracked,
                    } => self.start_flow(id, src, dst, bytes, tracked),
                    EventKind::GenFire { gen } => {
                        // Churn first, then send from the (possibly new)
                        // endpoints.
                        let churn = self.gens[gen].churn;
                        if churn > 0.0 && self.rng.random::<f64>() < churn {
                            let hosts = self.topo.hosts();
                            let src = self.rng.random_range(0..hosts);
                            let mut dst = self.rng.random_range(0..hosts);
                            while dst == src {
                                dst = self.rng.random_range(0..hosts);
                            }
                            self.gens[gen].src = src;
                            self.gens[gen].dst = dst;
                        }
                        let g = self.gens[gen].clone();
                        let id = self.next_id;
                        self.next_id += 1;
                        self.start_flow(id, g.src, g.dst, g.bytes, false);
                        let wait = self.sample_wait(g.mean_wait);
                        self.push_event(self.time + wait, EventKind::GenFire { gen });
                    }
                }
            }
            t_next = self.next_instant();
        }
    }

    /// Run until every listed flow has arrived; returns their arrival
    /// times in the same order and forgets them. Panics on an id that is
    /// not a tracked flow in flight or arrived but uncollected: one that
    /// was never submitted, belongs to background traffic, or was already
    /// returned by an earlier call.
    pub fn wait_for(&mut self, ids: &[FlowId]) -> Vec<f64> {
        for id in ids {
            assert!(
                self.tracked.contains_key(id),
                "flow {id} is not a pending tracked flow (never submitted, \
                 background, or already collected)"
            );
        }
        let mut t_next = None;
        loop {
            if ids.iter().all(|id| self.tracked[id].is_some()) {
                let arrivals = ids.iter().map(|id| self.tracked[id].unwrap()).collect();
                for id in ids {
                    self.tracked.remove(id);
                }
                return arrivals;
            }
            let t = t_next.unwrap_or_else(|| self.next_instant());
            assert!(
                t.is_finite(),
                "waiting for flows that can never finish (ids {ids:?})"
            );
            t_next = Some(self.drain(t, t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    fn topo() -> Topology {
        Topology::tree(
            2,
            2,
            LinkSpec {
                capacity: 100.0,
                latency: 0.01,
            },
            LinkSpec {
                capacity: 1000.0,
                latency: 0.02,
            },
        )
    }

    #[test]
    fn single_flow_timing() {
        let mut sim = Simulator::new(topo(), 1);
        let f = sim.submit(0, 1, 1000, 0.0);
        let t = sim.wait_for(&[f])[0];
        // 1000 bytes at 100 B/s + 2 hops × 10 ms latency.
        assert!((t - 10.02).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let mut sim = Simulator::new(topo(), 1);
        // Both from host 0: share the up link (50 each); when the short
        // one finishes, the long one speeds to 100.
        let short = sim.submit(0, 1, 500, 0.0);
        let long = sim.submit(0, 2, 1500, 0.0);
        let ts = sim.wait_for(&[short, long]);
        // Short: 500 at 50 B/s = 10 s (+0.02 latency: cross-rack? 0→1 same
        // rack = 2 hops × 0.01).
        assert!((ts[0] - 10.02).abs() < 1e-6, "short {}", ts[0]);
        // Long: 10 s at 50 = 500 done, 1000 left at 100 = 10 s more; path
        // 0→2 is cross-rack: latency 0.01 + 0.02 + 0.02 + 0.01 = 0.06.
        assert!((ts[1] - 20.06).abs() < 1e-6, "long {}", ts[1]);
    }

    #[test]
    fn staggered_arrival_shares_midway() {
        let mut sim = Simulator::new(topo(), 1);
        let a = sim.submit(0, 1, 1000, 0.0); // alone until t=5
        let b = sim.submit(0, 2, 500, 5.0);
        let ts = sim.wait_for(&[a, b]);
        // a: 500 by t=5 (rate 100), then 50 B/s. It needs 500 more → would
        // finish at t=15, but b (500 at 50) finishes at t=15 too… freeze:
        // both finish at 15: a = 15 + 0.02, b = 15 + 0.06.
        assert!((ts[0] - 15.02).abs() < 1e-6, "a {}", ts[0]);
        assert!((ts[1] - 15.06).abs() < 1e-6, "b {}", ts[1]);
    }

    #[test]
    fn run_until_advances_time_without_events() {
        let mut sim = Simulator::new(topo(), 1);
        sim.run_until(42.0);
        assert_eq!(sim.time(), 42.0);
    }

    #[test]
    fn background_traffic_slows_probe() {
        let mut clean = Simulator::new(topo(), 7);
        let f = clean.submit(0, 1, 10_000, 100.0);
        clean.run_until(100.0);
        let t_clean = clean.wait_for(&[f])[0] - 100.0;

        let mut busy = Simulator::new(topo(), 7);
        // Background on the same source host at ~60% of link capacity
        // (30-byte messages every 0.5 s on a 100 B/s link) — the system
        // stays stable but the probe contends.
        busy.add_background(0, 2, 30, 0.5, 0.0);
        let f = busy.submit(0, 1, 10_000, 100.0);
        busy.run_until(100.0);
        let t_busy = busy.wait_for(&[f])[0] - 100.0;
        assert!(t_busy > 1.2 * t_clean, "busy {t_busy} vs clean {t_clean}");
    }

    #[test]
    fn background_is_seed_deterministic() {
        // The background generator must share the probe's host uplink
        // (both leave host 1) at stable load: with disjoint bottlenecks the
        // probe runs at full rate for every seed and the "different seeds
        // differ" half of this test would hinge on float-rounding noise.
        let run = |seed| {
            let mut sim = Simulator::new(topo(), seed);
            sim.add_background(1, 3, 30, 0.5, 0.0);
            let f = sim.submit(1, 2, 5000, 10.0);
            sim.wait_for(&[f])[0]
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn clone_mid_run_replays_bit_identically() {
        let mut sim = Simulator::new(topo(), 11);
        sim.add_background_with_churn(1, 3, 30, 0.5, 0.0, 0.3);
        sim.add_background(2, 0, 20, 0.7, 0.0);
        // In flight when the copy is made.
        let early = sim.submit(0, 3, 400, 1.0);
        sim.run_until(5.0);
        let mut copy = sim.clone();
        let probe = |s: &mut Simulator| {
            let ids = [s.submit(0, 1, 500, 6.0), s.submit(3, 1, 800, 6.5), early];
            let arrivals: Vec<u64> = s.wait_for(&ids).iter().map(|t| t.to_bits()).collect();
            s.run_until(40.0);
            (arrivals, s.flows_completed())
        };
        let (arrivals, flows) = probe(&mut sim);
        assert_eq!(probe(&mut copy), (arrivals, flows));
        assert!(flows > 20, "the background kept running: {flows} flows");
    }

    #[test]
    #[should_panic(expected = "distinct endpoints")]
    fn self_flow_rejected() {
        let mut sim = Simulator::new(topo(), 1);
        sim.submit(1, 1, 100, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot submit in the past")]
    fn past_submission_rejected() {
        let mut sim = Simulator::new(topo(), 1);
        sim.run_until(10.0);
        sim.submit(0, 1, 100, 5.0);
    }

    #[test]
    fn many_concurrent_flows_conserve_capacity() {
        let mut sim = Simulator::new(topo(), 3);
        let ids: Vec<FlowId> = (0..3)
            .map(|k| sim.submit(0, 1 + k % 3, 1000, 0.0))
            .collect();
        // All three leave host 0 (capacity 100): total throughput ≤ 100 ⇒
        // 3000 bytes take ≥ 30 s.
        let ts = sim.wait_for(&ids);
        let last = ts.iter().cloned().fold(0.0f64, f64::max);
        assert!(last >= 30.0 - 1e-6, "finished too fast: {last}");
        assert!(last <= 31.0, "finished too slow: {last}");
    }

    #[test]
    fn wait_for_collects_each_arrival_once() {
        let mut sim = Simulator::new(topo(), 1);
        sim.add_background(1, 3, 30, 0.5, 0.0);
        let a = sim.submit(0, 1, 100, 0.0);
        let b = sim.submit(0, 2, 100, 0.0);
        sim.wait_for(&[b]);
        // `a` arrived while waiting for `b`: it is kept until collected.
        assert_eq!(sim.tracked.len(), 1);
        sim.wait_for(&[a]);
        assert!(sim.tracked.is_empty(), "collected arrivals are forgotten");
    }

    #[test]
    #[should_panic(expected = "not a pending tracked flow")]
    fn wait_for_collected_flow_panics() {
        let mut sim = Simulator::new(topo(), 1);
        let f = sim.submit(0, 1, 100, 0.0);
        sim.wait_for(&[f]);
        sim.wait_for(&[f]);
    }

    #[test]
    #[should_panic(expected = "not a pending tracked flow")]
    fn wait_for_unsubmitted_flow_panics_under_background() {
        // Background generators re-queue themselves forever, so waiting on
        // an id that will never arrive must fail up front, not spin.
        let mut sim = Simulator::new(topo(), 1);
        sim.add_background(1, 3, 30, 0.5, 0.0);
        sim.run_until(5.0);
        let f = sim.submit(0, 1, 100, sim.time());
        sim.wait_for(&[f + 1]);
    }

    #[test]
    #[should_panic(expected = "not a pending tracked flow")]
    fn wait_for_background_flow_panics() {
        let mut sim = Simulator::new(topo(), 1);
        sim.add_background(1, 3, 30, 0.5, 0.0);
        sim.run_until(5.0);
        assert!(sim.flows_completed() > 0);
        sim.wait_for(&[0]);
    }
}
