//! Property-based tests of the network model and calibration protocol.

use cloudconst_netmodel::{pairing_rounds, LinkPerf, PerfMatrix, TpMatrix};
use proptest::prelude::*;
use std::collections::HashSet;

fn link_strategy() -> impl Strategy<Value = LinkPerf> {
    (1e-6f64..1e-2, 1e5f64..1e10).prop_map(|(a, b)| LinkPerf::new(a, b))
}

fn perf_strategy(max_n: usize) -> impl Strategy<Value = PerfMatrix> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(link_strategy(), n * n)
            .prop_map(move |links| PerfMatrix::from_fn(n, |i, j| links[i * n + j]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pairing_rounds_cover_exactly_once(n in 2usize..40) {
        let rounds = pairing_rounds(n);
        let mut seen = HashSet::new();
        for round in &rounds {
            let mut busy = HashSet::new();
            for &(a, b) in round {
                prop_assert!(a != b && a < n && b < n);
                prop_assert!(busy.insert(a), "{a} busy twice in one round");
                prop_assert!(busy.insert(b), "{b} busy twice in one round");
                prop_assert!(seen.insert((a, b)), "({a},{b}) probed twice");
            }
        }
        prop_assert_eq!(seen.len(), n * (n - 1));
        // Round count is 2(N−1) for even N, 2N for odd N.
        let expect = if n % 2 == 0 { 2 * (n - 1) } else { 2 * n };
        prop_assert_eq!(rounds.len(), expect);
    }

    #[test]
    fn transfer_time_monotone_in_size(l in link_strategy(), a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(l.transfer_time(lo) <= l.transfer_time(hi) + 1e-15);
    }

    #[test]
    fn fit_roundtrips_alpha_beta(l in link_strategy()) {
        let t1 = l.transfer_time(1);
        let t2 = l.transfer_time(8 << 20);
        let fitted = LinkPerf::fit(1, t1, 8 << 20, t2);
        // α estimate absorbs the one-byte payload; tolerate that bias.
        prop_assert!((fitted.alpha - l.alpha).abs() / l.alpha < 0.2, "alpha {} vs {}", fitted.alpha, l.alpha);
        prop_assert!((fitted.beta - l.beta).abs() / l.beta < 0.01, "beta {} vs {}", fitted.beta, l.beta);
    }

    #[test]
    fn perf_matrix_flatten_roundtrip(pm in perf_strategy(6)) {
        let (a, b) = pm.flatten();
        let back = PerfMatrix::from_flat(pm.n(), &a, &b);
        for i in 0..pm.n() {
            for j in 0..pm.n() {
                let x = pm.transfer_time(i, j, 12345);
                let y = back.transfer_time(i, j, 12345);
                prop_assert!((x - y).abs() <= 1e-12 * (1.0 + x));
            }
        }
    }

    #[test]
    fn weights_diagonal_zero_and_positive(pm in perf_strategy(6), bytes in 1u64..(64 << 20)) {
        let w = pm.weights(bytes);
        for i in 0..pm.n() {
            prop_assert_eq!(w[(i, i)], 0.0);
            for j in 0..pm.n() {
                if i != j {
                    prop_assert!(w[(i, j)] > 0.0);
                }
            }
        }
    }

    #[test]
    fn restrict_preserves_links(pm in perf_strategy(6)) {
        let n = pm.n();
        let idx: Vec<usize> = (0..n).step_by(2).collect();
        let sub = pm.restrict(&idx);
        for (a, &i) in idx.iter().enumerate() {
            for (b, &j) in idx.iter().enumerate() {
                let x = pm.transfer_time(i, j, 999);
                let y = sub.transfer_time(a, b, 999);
                prop_assert!((x - y).abs() <= 1e-12 * (1.0 + x));
            }
        }
    }

    #[test]
    fn tp_matrix_snapshot_roundtrip(pm in perf_strategy(5), steps in 1usize..6) {
        let mut tp = TpMatrix::new(pm.n());
        for k in 0..steps {
            tp.push(k as f64, &pm);
        }
        prop_assert_eq!(tp.steps(), steps);
        for k in 0..steps {
            let snap = tp.snapshot(k);
            for i in 0..pm.n() {
                for j in 0..pm.n() {
                    let x = pm.transfer_time(i, j, 4096);
                    let y = snap.transfer_time(i, j, 4096);
                    prop_assert!((x - y).abs() <= 1e-12 * (1.0 + x));
                }
            }
        }
    }
}
