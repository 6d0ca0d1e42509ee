//! Seeded, replayable fault injection over the synthetic cloud.
//!
//! A real calibration campaign loses probes: packets vanish, stragglers
//! outlive their deadline, a rack goes dark for a window, one link is
//! persistently flaky. [`FaultPlan`] describes such an environment
//! as plain data, and [`FaultyCloud`] applies it on top of
//! [`SyntheticCloud`]'s ground-truth link model, exposing the
//! [`FallibleNetworkProbe`] interface the fault-aware calibrator consumes.
//!
//! Every fault decision is hash-derived from
//! `(plan.seed, stream, i, j, now, bytes)` — like the cloud's own noise
//! sources, faults are a pure function of *when and where* a probe lands,
//! not of call order. Two consequences worth stating:
//!
//! * **Replayable**: rerunning a calibration with the same plan reproduces
//!   every loss and straggler bit for bit, on every calibration path.
//! * **Transient by default**: a retry happens at a *later* simulated time
//!   (after backoff), so it draws a fresh fault decision — transient loss
//!   clears, exactly like the real thing. Persistent failures are modelled
//!   explicitly (rack blackout windows, flaky links), not by accident of
//!   RNG.

use crate::hash;
use crate::placement::Placement;
use crate::synthetic::SyntheticCloud;
use cloudconst_netmodel::{FallibleNetworkProbe, ProbeAttempt, PureNetworkProbe};

/// Fault-stream tags (disjoint from the cloud's 0xA1–0xE8 noise streams).
const STREAM_LOSS: u64 = 0xF1;
const STREAM_TIMEOUT: u64 = 0xF2;
const STREAM_STRAGGLE_ON: u64 = 0xF3;
const STREAM_STRAGGLE_FAC: u64 = 0xF4;
const STREAM_FLAKY: u64 = 0xF5;
const STREAM_DOMAIN_BLACKOUT: u64 = 0xF6;

/// A correlated fault domain: a set of VMs that fail *together* because
/// they share hidden infrastructure (a rack's ToR switch, a PDU). Derived
/// from the cloud's placement via [`FaultPlan::with_rack_domains`], but any
/// grouping works — the plan only sees the membership list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultDomain {
    /// Stable identifier, used in the event hash streams (rack index when
    /// derived from a placement).
    pub id: u64,
    /// Member VM indices.
    pub vms: Vec<usize>,
}

impl FaultDomain {
    /// Is VM `v` a member of this domain?
    pub fn contains(&self, v: usize) -> bool {
        self.vms.contains(&v)
    }
}

/// A directed link with extra, persistent probe loss on top of the global
/// rate — the "that one link is cursed" phenomenon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlakyLink {
    /// Source VM.
    pub i: usize,
    /// Destination VM.
    pub j: usize,
    /// Per-attempt loss probability on this link (in addition to the
    /// plan-wide `loss_prob`).
    pub loss_prob: f64,
}

/// A complete, seeded description of the faults injected into a run.
///
/// The same plan over the same cloud replays the same faults.
/// Probabilities are per *attempt*, so retries re-roll — which is what
/// makes bounded retry worth its overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault hash streams (independent of the cloud seed).
    pub seed: u64,
    /// Probability an attempt is lost in flight.
    pub loss_prob: f64,
    /// Probability an attempt hangs past any deadline (hard timeout).
    pub timeout_prob: f64,
    /// Probability an attempt straggles: its true transfer time is
    /// multiplied by a factor drawn from `straggler_factor`. A straggler
    /// still completes if the inflated time fits the deadline.
    pub straggler_prob: f64,
    /// `(lo, hi)` range of the straggler multiplier (≥ 1).
    pub straggler_factor: (f64, f64),
    /// Links with extra persistent loss.
    pub flaky_links: Vec<FlakyLink>,
    /// Correlated fault domains (typically one per rack, via
    /// [`FaultPlan::with_rack_domains`]). Empty ⇒ no correlated events.
    pub domains: Vec<FaultDomain>,
    /// Per-window probability that a whole domain blacks out: every probe
    /// touching any member VM during the window is lost.
    pub domain_blackout_prob: f64,
    /// Length of the domain-event decision window, simulated seconds.
    /// Events are pure hashes of `(seed, stream, domain id, window)`, so
    /// replay stays bit-exact. Must be > 0 when `domain_blackout_prob` is.
    pub domain_window: f64,
    /// Cap on simultaneously dark domains per window (0 = unlimited).
    /// When capped, lower-indexed domains win: the set of dark domains is
    /// the first `cap` whose blackout roll passed, still a pure function
    /// of `(seed, window)`.
    pub max_concurrent_domain_events: usize,
}

impl FaultPlan {
    /// A plan that injects nothing — the identity wrapper. A
    /// [`FaultyCloud`] under this plan is bit-identical to the bare cloud.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            loss_prob: 0.0,
            timeout_prob: 0.0,
            straggler_prob: 0.0,
            straggler_factor: (1.0, 1.0),
            flaky_links: Vec::new(),
            domains: Vec::new(),
            domain_blackout_prob: 0.0,
            domain_window: 0.0,
            max_concurrent_domain_events: 0,
        }
    }

    /// A plan with total per-attempt fault probability ≈ `rate`, split
    /// evenly between loss and hard timeout, plus the same rate of
    /// (usually recoverable) 2–6× stragglers. `rate` is clamped to
    /// `[0, 1]`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        FaultPlan {
            seed,
            loss_prob: rate * 0.5,
            timeout_prob: rate * 0.5,
            straggler_prob: rate,
            straggler_factor: (2.0, 6.0),
            ..FaultPlan::none(seed)
        }
    }

    /// Attach one correlated fault domain per (non-empty) rack of
    /// `placement`, keeping every other knob of the plan.
    pub fn with_rack_domains(mut self, placement: &Placement) -> Self {
        self.domains = placement
            .rack_groups()
            .into_iter()
            .enumerate()
            .filter(|(_, vms)| !vms.is_empty())
            .map(|(r, vms)| FaultDomain { id: r as u64, vms })
            .collect();
        self
    }

    /// A plan whose only faults are correlated rack-wide blackouts: per
    /// `window` seconds, each rack of `placement` goes dark with
    /// probability `prob`, at most one rack at a time.
    pub fn rack_blackouts(seed: u64, placement: &Placement, prob: f64, window: f64) -> Self {
        assert!(window > 0.0, "domain window must be positive");
        FaultPlan {
            domain_blackout_prob: prob.clamp(0.0, 1.0),
            domain_window: window,
            max_concurrent_domain_events: 1,
            ..FaultPlan::none(seed)
        }
        .with_rack_domains(placement)
    }

    /// Does this plan inject anything at all?
    pub fn is_fault_free(&self) -> bool {
        self.loss_prob <= 0.0
            && self.timeout_prob <= 0.0
            && self.straggler_prob <= 0.0
            && self.flaky_links.is_empty()
            && !self.has_domain_events()
    }

    /// Can a domain blackout fire at all?
    fn has_domain_events(&self) -> bool {
        !self.domains.is_empty() && self.domain_blackout_prob > 0.0
    }

    /// Index (into `domains`) of the domain VM `v` belongs to, if any.
    fn domain_of(&self, v: usize) -> Option<usize> {
        self.domains.iter().position(|d| d.contains(v))
    }

    /// The domain-event window `now` falls in.
    fn window_index(&self, now: f64) -> u64 {
        (now / self.domain_window).floor().max(0.0) as u64
    }

    /// Raw blackout roll for a domain id in window `w`.
    fn blackout_roll(&self, id: u64, w: u64) -> bool {
        hash::uniform(&[self.seed, STREAM_DOMAIN_BLACKOUT, id, w], 0.0, 1.0)
            < self.domain_blackout_prob
    }

    /// Is the domain at index `idx` dark during window `w`? Applies the
    /// concurrency cap: only the first `cap` domains (by index) whose roll
    /// passed are actually dark.
    fn domain_dark(&self, idx: usize, w: u64) -> bool {
        if self.domain_blackout_prob <= 0.0 || !self.blackout_roll(self.domains[idx].id, w) {
            return false;
        }
        let cap = self.max_concurrent_domain_events;
        if cap == 0 {
            return true;
        }
        let rank = self.domains[..idx]
            .iter()
            .filter(|d| self.blackout_roll(d.id, w))
            .count();
        rank < cap
    }

    /// Extra loss probability from a flaky-link entry for `(i, j)`, if any.
    fn flaky_loss(&self, i: usize, j: usize) -> f64 {
        self.flaky_links
            .iter()
            .filter(|l| l.i == i && l.j == j)
            .map(|l| l.loss_prob)
            .fold(0.0, f64::max)
    }

    /// Apply the plan to one probe attempt whose honest duration would be
    /// `true_secs`. Pure in `(i, j, bytes, now, deadline)` for a fixed
    /// plan, so the parallel calibration path may call it from workers.
    ///
    /// Precedence: domain blackout → loss (flaky then global) → hard
    /// timeout → straggler inflation → the honest deadline check every
    /// attempt gets.
    pub fn apply(
        &self,
        i: usize,
        j: usize,
        bytes: u64,
        now: f64,
        deadline: f64,
        true_secs: f64,
    ) -> ProbeAttempt {
        if i == j {
            return ProbeAttempt::Ok(0.0);
        }
        if self.has_domain_events() && self.domain_window > 0.0 {
            let w = self.window_index(now);
            let (di, dj) = (self.domain_of(i), self.domain_of(j));
            if di.into_iter().chain(dj).any(|d| self.domain_dark(d, w)) {
                return ProbeAttempt::Lost;
            }
        }
        let tb = now.to_bits();
        let (iu, ju) = (i as u64, j as u64);
        let flaky = self.flaky_loss(i, j);
        if flaky > 0.0
            && hash::uniform(&[self.seed, STREAM_FLAKY, iu, ju, tb, bytes], 0.0, 1.0) < flaky
        {
            return ProbeAttempt::Lost;
        }
        if self.loss_prob > 0.0
            && hash::uniform(&[self.seed, STREAM_LOSS, iu, ju, tb, bytes], 0.0, 1.0)
                < self.loss_prob
        {
            return ProbeAttempt::Lost;
        }
        if self.timeout_prob > 0.0
            && hash::uniform(&[self.seed, STREAM_TIMEOUT, iu, ju, tb, bytes], 0.0, 1.0)
                < self.timeout_prob
        {
            return ProbeAttempt::TimedOut;
        }
        let mut secs = true_secs;
        if self.straggler_prob > 0.0
            && hash::uniform(
                &[self.seed, STREAM_STRAGGLE_ON, iu, ju, tb, bytes],
                0.0,
                1.0,
            ) < self.straggler_prob
        {
            let (lo, hi) = self.straggler_factor;
            secs *= hash::uniform(&[self.seed, STREAM_STRAGGLE_FAC, iu, ju, tb, bytes], lo, hi);
        }
        if secs > deadline {
            ProbeAttempt::TimedOut
        } else {
            ProbeAttempt::Ok(secs)
        }
    }
}

/// [`SyntheticCloud`] plus a [`FaultPlan`]: the fault-injected view of the
/// same ground truth.
///
/// It is a [`FallibleNetworkProbe`] only: every attempt is filtered through
/// the plan. The fault-free view of the same cloud is [`FaultyCloud::inner`],
/// itself a fallible probe whose attempts never fail.
#[derive(Debug, Clone)]
pub struct FaultyCloud {
    inner: SyntheticCloud,
    plan: FaultPlan,
}

impl FaultyCloud {
    /// Wrap a cloud with a fault plan.
    ///
    /// Panics if the plan has domain events but no positive, finite
    /// `domain_window` to roll them in: they would never fire.
    pub fn new(inner: SyntheticCloud, plan: FaultPlan) -> Self {
        assert!(
            !plan.has_domain_events()
                || (plan.domain_window > 0.0 && plan.domain_window.is_finite()),
            "domain window must be positive and finite when domain events can fire"
        );
        FaultyCloud { inner, plan }
    }

    /// The wrapped cloud (ground truth, placements, …).
    pub fn inner(&self) -> &SyntheticCloud {
        &self.inner
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl FallibleNetworkProbe for FaultyCloud {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn try_probe(&self, i: usize, j: usize, bytes: u64, now: f64, deadline: f64) -> ProbeAttempt {
        let true_secs = self.inner.probe_pure(i, j, bytes, now);
        self.plan.apply(i, j, bytes, now, deadline, true_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CloudConfig;
    use cloudconst_netmodel::{Calibrator, RetryPolicy, BETA_PROBE_BYTES};

    fn cloud(n: usize) -> SyntheticCloud {
        SyntheticCloud::new(CloudConfig::small_test(n, 11))
    }

    #[test]
    fn fault_free_plan_is_transparent() {
        let c = cloud(8);
        let faulty = FaultyCloud::new(c.clone(), FaultPlan::none(3));
        assert!(faulty.plan().is_fault_free());
        for t in [0.0, 123.0, 9999.5] {
            for (i, j) in [(0, 1), (3, 7), (5, 5)] {
                let truth = c.probe_pure(i, j, BETA_PROBE_BYTES, t);
                match faulty.try_probe(i, j, BETA_PROBE_BYTES, t, 1e9) {
                    ProbeAttempt::Ok(s) => assert_eq!(s.to_bits(), truth.to_bits()),
                    other => panic!("fault-free attempt failed: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn fault_free_faulty_cloud_calibrates_bit_identically() {
        // The determinism contract: a fault-free FaultyCloud must
        // round-trip bit-identically to the bare SyntheticCloud on every
        // calibration path, including run metadata.
        let c = SyntheticCloud::new(CloudConfig::ec2_like(16, 77));
        let faulty = FaultyCloud::new(c.clone(), FaultPlan::none(1));
        let cal = Calibrator::new();
        let retry = RetryPolicy {
            deadline: 1e9, // never clip an honest probe
            ..RetryPolicy::default()
        };

        let plain = cal.calibrate(&mut c.clone(), 450.0);
        let plain_par = cal.calibrate_par(&c, 450.0, &retry);
        let ft = cal.calibrate_par(&faulty, 450.0, &retry);

        for (label, run) in [("fallible", &ft), ("shared-reference", &plain_par)] {
            assert_eq!(run.rounds, plain.rounds, "{label} rounds");
            assert_eq!(
                run.overhead.to_bits(),
                plain.overhead.to_bits(),
                "{label} overhead"
            );
            assert_eq!(run.outcomes, plain.outcomes, "{label} outcomes");
            for i in 0..16 {
                for j in 0..16 {
                    let a = plain.perf.link(i, j);
                    let b = run.perf.link(i, j);
                    assert_eq!(a.alpha.to_bits(), b.alpha.to_bits(), "{label} α ({i},{j})");
                    assert_eq!(a.beta.to_bits(), b.beta.to_bits(), "{label} β ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn loss_rate_roughly_matches_plan() {
        let plan = FaultPlan {
            loss_prob: 0.3,
            ..FaultPlan::none(42)
        };
        let faulty = FaultyCloud::new(cloud(8), plan);
        let mut lost = 0;
        let mut total = 0;
        for k in 0..2000 {
            let t = k as f64 * 0.37;
            let (i, j) = (k % 8, (k * 3 + 1) % 8);
            if i == j {
                continue;
            }
            total += 1;
            if faulty.try_probe(i, j, 1, t, 1e9) == ProbeAttempt::Lost {
                lost += 1;
            }
        }
        let rate = lost as f64 / total as f64;
        assert!((rate - 0.3).abs() < 0.05, "observed loss rate {rate}");
    }

    #[test]
    fn flaky_link_is_directional_and_local() {
        let plan = FaultPlan {
            flaky_links: vec![FlakyLink {
                i: 1,
                j: 3,
                loss_prob: 1.0,
            }],
            ..FaultPlan::none(9)
        };
        let faulty = FaultyCloud::new(cloud(6), plan);
        for k in 0..20 {
            let t = k as f64;
            assert_eq!(faulty.try_probe(1, 3, 1, t, 1e9), ProbeAttempt::Lost);
            assert!(matches!(
                faulty.try_probe(3, 1, 1, t, 1e9),
                ProbeAttempt::Ok(_)
            ));
        }
    }

    #[test]
    fn straggler_inflates_or_times_out() {
        let plan = FaultPlan {
            straggler_prob: 1.0,
            straggler_factor: (3.0, 3.0),
            ..FaultPlan::none(5)
        };
        let c = cloud(6);
        let faulty = FaultyCloud::new(c.clone(), plan);
        let truth = c.probe_pure(0, 1, BETA_PROBE_BYTES, 10.0);
        match faulty.try_probe(0, 1, BETA_PROBE_BYTES, 10.0, 1e9) {
            ProbeAttempt::Ok(s) => assert!((s - 3.0 * truth).abs() < 1e-12 * truth.max(1.0)),
            other => panic!("straggler under huge deadline: {other:?}"),
        }
        // A deadline under the inflated time turns the straggler into a
        // timeout.
        assert_eq!(
            faulty.try_probe(0, 1, BETA_PROBE_BYTES, 10.0, 2.0 * truth),
            ProbeAttempt::TimedOut
        );
    }

    #[test]
    fn timeout_stream_independent_of_loss_stream() {
        let plan = FaultPlan {
            timeout_prob: 0.5,
            ..FaultPlan::none(6)
        };
        let faulty = FaultyCloud::new(cloud(6), plan);
        let mut timed_out = 0;
        for k in 0..400 {
            if faulty.try_probe(0, 1, 1, k as f64, 1e9) == ProbeAttempt::TimedOut {
                timed_out += 1;
            }
        }
        assert!((100..300).contains(&timed_out), "timeouts {timed_out}/400");
    }

    #[test]
    fn replay_is_deterministic() {
        let plan = FaultPlan::uniform(13, 0.2);
        let a = FaultyCloud::new(cloud(8), plan.clone());
        let b = FaultyCloud::new(cloud(8), plan);
        for k in 0..500 {
            let t = k as f64 * 1.7;
            let (i, j) = (k % 8, (k * 5 + 2) % 8);
            assert_eq!(
                a.try_probe(i, j, BETA_PROBE_BYTES, t, 2.0),
                b.try_probe(i, j, BETA_PROBE_BYTES, t, 2.0)
            );
        }
    }

    #[test]
    #[should_panic(expected = "domain window must be positive")]
    fn domain_events_without_a_window_are_rejected() {
        let plan = FaultPlan {
            domains: (0..3)
                .map(|r| FaultDomain {
                    id: r,
                    vms: (0..16).filter(|v| v % 3 == r as usize).collect(),
                })
                .collect(),
            domain_blackout_prob: 1.0,
            domain_window: 0.0,
            ..FaultPlan::none(5)
        };
        assert!(!plan.is_fault_free());
        FaultyCloud::new(cloud(16), plan);
    }

    #[test]
    fn rack_blackout_kills_every_link_touching_the_rack() {
        let c = cloud(12);
        let placement = c.placement(0).clone();
        // prob = 1 with a cap of 1: exactly the first domain is dark, in
        // every window.
        let plan = FaultPlan::rack_blackouts(4, &placement, 1.0, 600.0);
        assert!(!plan.is_fault_free());
        let dark: Vec<usize> = plan.domains[0].vms.clone();
        let faulty = FaultyCloud::new(c, plan);
        for t in [0.0, 50.0, 1234.5] {
            for i in 0..12 {
                for j in 0..12 {
                    if i == j {
                        continue;
                    }
                    let touches = dark.contains(&i) || dark.contains(&j);
                    let got = faulty.try_probe(i, j, 1, t, 1e9);
                    if touches {
                        assert_eq!(got, ProbeAttempt::Lost, "({i},{j}) at {t}");
                    } else {
                        assert!(
                            matches!(got, ProbeAttempt::Ok(_)),
                            "({i},{j}) at {t}: {got:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn at_most_one_domain_dark_when_capped() {
        let c = cloud(12);
        let placement = c.placement(0).clone();
        let mut plan = FaultPlan::rack_blackouts(21, &placement, 0.6, 100.0);
        plan.max_concurrent_domain_events = 1;
        let mut any_dark_window = false;
        for w in 0..200u64 {
            let dark = (0..plan.domains.len())
                .filter(|&d| plan.domain_dark(d, w))
                .count();
            assert!(dark <= 1, "window {w} has {dark} dark domains");
            any_dark_window |= dark == 1;
        }
        assert!(any_dark_window, "0.6/window over 200 windows never fired");
    }

    #[test]
    fn domain_events_are_transient_across_windows() {
        let c = cloud(12);
        let placement = c.placement(0).clone();
        let plan = FaultPlan::rack_blackouts(77, &placement, 0.1, 50.0);
        let faulty = FaultyCloud::new(c, plan.clone());
        // Pick a cross-domain link and scan windows: it must be lost in
        // some and alive in others — blackouts clear when the window rolls.
        let (i, j) = (plan.domains[0].vms[0], plan.domains[1].vms[0]);
        let mut lost = 0;
        let mut ok = 0;
        for w in 0..100 {
            match faulty.try_probe(i, j, 1, w as f64 * 50.0 + 1.0, 1e9) {
                ProbeAttempt::Lost => lost += 1,
                ProbeAttempt::Ok(_) => ok += 1,
                other => panic!("{other:?}"),
            }
        }
        assert!(lost > 0, "blackouts never fired in 100 windows");
        assert!(ok > lost, "blackouts should be the minority at 0.1/window");
    }
}
