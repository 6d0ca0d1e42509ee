//! Property-based tests of the flow simulator's physical invariants.

use cloudconst_simnet::fairshare::{max_min_rates, FairShare};
use cloudconst_simnet::{LinkId, LinkSpec, Simulator, Topology};
use proptest::prelude::*;

/// The plain progressive filling the indexed solver must reproduce bit for
/// bit: rescan every used link for the smallest `cap / cnt` (first-seen
/// link on ties), then walk every flow for the ones crossing it.
fn reference_rates(topo: &Topology, paths: &[Vec<LinkId>]) -> Vec<f64> {
    let nf = paths.len();
    let mut rates = vec![0.0f64; nf];
    let mut cap = vec![0.0f64; topo.link_count()];
    let mut cnt = vec![0usize; topo.link_count()];
    let mut used: Vec<LinkId> = Vec::new();
    for path in paths {
        for &l in path {
            if cnt[l] == 0 {
                cap[l] = topo.link(l).capacity;
                used.push(l);
            }
            cnt[l] += 1;
        }
    }
    let mut frozen = vec![false; nf];
    let mut remaining = nf;
    while remaining > 0 {
        let mut best: Option<(f64, LinkId)> = None;
        for &l in &used {
            if cnt[l] == 0 {
                continue;
            }
            let share = cap[l] / cnt[l] as f64;
            match best {
                None => best = Some((share, l)),
                Some((bs, _)) if share < bs => best = Some((share, l)),
                _ => {}
            }
        }
        let (share, bottleneck) = best.expect("live link must exist while flows remain");
        for f in 0..nf {
            if frozen[f] || !paths[f].contains(&bottleneck) {
                continue;
            }
            frozen[f] = true;
            remaining -= 1;
            rates[f] = share;
            for &l in &paths[f] {
                cap[l] -= share;
                cnt[l] -= 1;
                if cap[l] < 0.0 {
                    cap[l] = 0.0;
                }
            }
        }
    }
    rates
}

/// Link capacities drawn from this palette make equal fair shares, and so
/// bottleneck ties, common.
const CAPACITIES: [f64; 4] = [100.0, 250.0, 1000.0, 1e9 / 8.0];

/// Two-level trees, three-level trees with palette capacities, and
/// three-level trees with arbitrary capacities.
fn tree_strategy() -> impl Strategy<Value = Topology> {
    (
        (0usize..3, 1usize..6, 1usize..4, 2usize..8),
        (0usize..4, 0usize..4, 0usize..4),
        (10.0f64..1000.0, 10.0f64..5000.0, 10.0f64..5000.0),
    )
        .prop_map(
            |((kind, racks, racks_per_pod, hosts), palette, arbitrary)| {
                let spec = |capacity| LinkSpec {
                    capacity,
                    latency: 1e-4,
                };
                let (h, r, p) = palette;
                let (host, rack, pod) = if kind == 2 {
                    arbitrary
                } else {
                    (CAPACITIES[h], CAPACITIES[r], CAPACITIES[p])
                };
                if kind == 0 {
                    Topology::tree(racks, hosts, spec(host), spec(rack))
                } else {
                    Topology::three_level(
                        racks.max(2),
                        racks_per_pod,
                        hosts,
                        spec(host),
                        spec(rack),
                        spec(pod),
                    )
                }
            },
        )
}

/// Up to ~300 flows drawn from a palette of at most 24 host pairs, so many
/// flows share a path.
fn crowded_strategy() -> impl Strategy<Value = (Topology, Vec<Vec<LinkId>>)> {
    tree_strategy().prop_flat_map(|t| {
        let hosts = t.hosts();
        (
            proptest::collection::vec((0..hosts, 0..hosts), 1..24),
            proptest::collection::vec(0usize..1000, 1..300),
        )
            .prop_map(move |(palette, picks)| {
                let paths = picks
                    .iter()
                    .map(|&k| {
                        let (a, b) = palette[k % palette.len()];
                        t.path(a, if a == b { (b + 1) % hosts } else { b })
                    })
                    .collect();
                (t.clone(), paths)
            })
    })
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn topo_strategy() -> impl Strategy<Value = Topology> {
    (1usize..5, 2usize..6, 10.0f64..1000.0, 50.0f64..5000.0).prop_map(
        |(racks, hosts, host_cap, core_cap)| {
            Topology::tree(
                racks,
                hosts,
                LinkSpec {
                    capacity: host_cap,
                    latency: 1e-4,
                },
                LinkSpec {
                    capacity: core_cap,
                    latency: 2e-4,
                },
            )
        },
    )
}

fn flows_strategy() -> impl Strategy<Value = (Topology, Vec<(usize, usize)>)> {
    topo_strategy().prop_flat_map(|t| {
        let hosts = t.hosts();
        proptest::collection::vec((0..hosts, 0..hosts), 1..12).prop_map(move |pairs| {
            let pairs: Vec<(usize, usize)> = pairs
                .into_iter()
                .map(|(a, b)| if a == b { (a, (b + 1) % hosts) } else { (a, b) })
                .collect();
            (t.clone(), pairs)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_solver_matches_reference_bit_for_bit((topo, paths) in crowded_strategy()) {
        let want = reference_rates(&topo, &paths);
        prop_assert!(same_bits(&max_min_rates(&topo, &paths), &want), "fresh scratch");
        // A reused scratch must not remember the previous solve: solve a
        // prefix, a reversal and the full set again with one scratch.
        let mut fair = FairShare::default();
        let half = &paths[..paths.len().div_ceil(2)];
        prop_assert!(same_bits(fair.rates(&topo, half), &reference_rates(&topo, half)), "prefix");
        let reversed: Vec<_> = paths.iter().rev().cloned().collect();
        prop_assert!(
            same_bits(fair.rates(&topo, &reversed), &reference_rates(&topo, &reversed)),
            "reversed"
        );
        prop_assert!(same_bits(fair.rates(&topo, &paths), &want), "reused scratch");
    }
}

/// One step of an event sequence: `(departures, arrivals, pick)`.
type Step = (usize, usize, usize);

/// A tree, a palette of at most 12 host pairs (so flows repeat pairs),
/// and up to 150 steps: each removes up to 3 flows from anywhere in the
/// arrival order and adds up to 4 at once before the next solve.
fn events_strategy() -> impl Strategy<Value = (Topology, Vec<(usize, usize)>, Vec<Step>)> {
    tree_strategy().prop_flat_map(|t| {
        let hosts = t.hosts();
        (
            proptest::collection::vec((0..hosts, 0..hosts), 1..12),
            proptest::collection::vec((0usize..4, 0usize..5, 0usize..1000), 1..150),
        )
            .prop_map(move |(palette, steps)| {
                let pairs = palette
                    .into_iter()
                    .map(|(a, b)| if a == b { (a, (b + 1) % hosts) } else { (a, b) })
                    .collect();
                (t.clone(), pairs, steps)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stateful_solver_matches_reference_after_every_event(
        (topo, pairs, steps) in events_strategy()
    ) {
        let mut fair = FairShare::default();
        // Live flows in arrival order: `(slot, path)`.
        let mut live: Vec<(usize, Vec<LinkId>)> = Vec::new();
        for (step, &(departures, arrivals, pick)) in steps.iter().enumerate() {
            for d in 0..departures.min(live.len()) {
                let (slot, _) = live.remove((pick + 7 * d) % live.len());
                fair.remove(slot);
            }
            for a in 0..arrivals {
                let (src, dst) = pairs[(pick + a) % pairs.len()];
                let path = topo.path(src, dst);
                live.push((fair.add(&topo, &path), path));
            }
            let rates = fair.solve();
            let got: Vec<f64> = live.iter().map(|&(slot, _)| rates[slot]).collect();
            let paths: Vec<Vec<LinkId>> = live.iter().map(|(_, p)| p.clone()).collect();
            prop_assert!(
                same_bits(&got, &reference_rates(&topo, &paths)),
                "step {step}: {} live flows",
                live.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn max_min_never_oversubscribes((topo, pairs) in flows_strategy()) {
        let paths: Vec<_> = pairs.iter().map(|&(a, b)| topo.path(a, b)).collect();
        let rates = max_min_rates(&topo, &paths);
        let mut load = vec![0.0f64; topo.link_count()];
        for (f, p) in paths.iter().enumerate() {
            prop_assert!(rates[f] > 0.0, "flow {f} starved");
            for &l in p {
                load[l] += rates[f];
            }
        }
        for (l, &used) in load.iter().enumerate() {
            prop_assert!(used <= topo.link(l).capacity * (1.0 + 1e-9), "link {l} overloaded");
        }
    }

    #[test]
    fn max_min_every_flow_sees_a_saturated_link((topo, pairs) in flows_strategy()) {
        let paths: Vec<_> = pairs.iter().map(|&(a, b)| topo.path(a, b)).collect();
        let rates = max_min_rates(&topo, &paths);
        let mut load = vec![0.0f64; topo.link_count()];
        for (f, p) in paths.iter().enumerate() {
            for &l in p {
                load[l] += rates[f];
            }
        }
        for (f, p) in paths.iter().enumerate() {
            let saturated = p.iter().any(|&l| load[l] >= topo.link(l).capacity * (1.0 - 1e-6));
            prop_assert!(saturated, "flow {f} crosses no saturated link (not max-min)");
        }
    }

    #[test]
    fn single_flow_gets_bottleneck_throughput((topo, pairs) in flows_strategy()) {
        let (src, dst) = pairs[0];
        let mut sim = Simulator::new(topo.clone(), 7);
        let bytes = 10_000u64;
        let f = sim.submit(src, dst, bytes, 0.0);
        let finish = sim.wait_for(&[f])[0];
        let path = topo.path(src, dst);
        let expect = bytes as f64 / topo.path_capacity(&path) + topo.path_latency(&path);
        prop_assert!((finish - expect).abs() <= 1e-6 * expect + 1e-9, "{finish} vs {expect}");
    }

    #[test]
    fn flow_conservation_under_concurrency((topo, pairs) in flows_strategy()) {
        // All flows carry the same bytes; total completion cannot beat the
        // per-flow physical lower bound.
        let mut sim = Simulator::new(topo.clone(), 3);
        let bytes = 5_000u64;
        let ids: Vec<_> = pairs.iter().map(|&(a, b)| sim.submit(a, b, bytes, 0.0)).collect();
        let finishes = sim.wait_for(&ids);
        for (k, &(a, b)) in pairs.iter().enumerate() {
            let path = topo.path(a, b);
            let lower = bytes as f64 / topo.path_capacity(&path) + topo.path_latency(&path);
            prop_assert!(finishes[k] >= lower - 1e-9, "flow {k} finished faster than physics");
        }
    }

    #[test]
    fn time_never_goes_backwards((topo, pairs) in flows_strategy()) {
        let mut sim = Simulator::new(topo, 9);
        let mut last = sim.time();
        for (k, &(a, b)) in pairs.iter().enumerate() {
            let at = k as f64 * 0.5;
            sim.run_until(at);
            prop_assert!(sim.time() >= last);
            last = sim.time();
            let f = sim.submit(a, b, 1000, at.max(sim.time()));
            sim.wait_for(&[f]);
            prop_assert!(sim.time() >= last);
            last = sim.time();
        }
    }
}
