//! The benchmark's drivers must stay the experiments they measure: on a
//! small seed, the instrumented loops reproduce `run_campaign` and
//! `sim_comparison` op series bit-for-bit, with tracing off and on.

use cloudconst_bench::campaign::{run_campaign, Campaign};
use cloudconst_bench::sim_experiments::{sim_comparison, SimSetup};
use cloudconst_bench::{Approach, OpSeries};
use perfbench::layers::Layers;
use perfbench::online_advisor::CampaignLoop;
use perfbench::same_bits;
use perfbench::sim_datacenter::{Datacenter, MSG_BYTES};

fn assert_same_series(what: &str, got: &OpSeries, want: &OpSeries, approaches: &[Approach]) {
    for &a in approaches {
        assert!(
            !want.get(a).is_empty(),
            "{what} {a:?}: reference series is empty"
        );
        assert!(
            same_bits(got.get(a), want.get(a)),
            "{what} {a:?}: {:?} != {:?}",
            got.get(a),
            want.get(a)
        );
    }
}

#[test]
fn online_advisor_reproduces_run_campaign() {
    let c = Campaign {
        runs: 6,
        ..Campaign::paper_like(16, 5)
    };
    let want = run_campaign(&c);
    assert!(
        want.calibrations > 1,
        "the fixture must exercise recalibration"
    );
    let approaches = [Approach::Baseline, Approach::Heuristics, Approach::Rpca];
    for trace in [false, true] {
        let mut layers = Layers::new(trace);
        let mut lp = CampaignLoop::new(&c);
        lp.start(&mut layers).expect("initial calibration");
        while !lp.finished() {
            lp.step(&mut layers).expect("run passes its checks");
        }
        assert_eq!(lp.runs_done(), c.runs);
        assert_same_series("bcast", &lp.bcast, &want.bcast, &approaches);
        assert_same_series("scatter", &lp.scatter, &want.scatter, &approaches);
        assert_same_series("topomap", &lp.topomap, &want.topomap, &approaches);
        assert_eq!(lp.calibrations, want.calibrations);
        assert_eq!(
            lp.calibration_overhead.to_bits(),
            want.calibration_overhead.to_bits()
        );
        assert_eq!(lp.norm_ne.to_bits(), want.norm_ne.to_bits());
        if trace {
            // The replays ran and agreed with every installed model.
            assert_eq!(layers.get("rpca.solves"), 2.0 * want.calibrations as f64);
            assert!(layers.get("netmodel.probes") > 0.0);
            assert_eq!(layers.get("core.checks"), c.runs as f64);
        }
    }
}

#[test]
fn sim_datacenter_reproduces_sim_comparison() {
    let setup = SimSetup::quick(5);
    let runs = 2;
    let want = sim_comparison(&setup, runs, MSG_BYTES);
    let approaches = [
        Approach::Baseline,
        Approach::TopoAware,
        Approach::Heuristics,
        Approach::Rpca,
    ];
    for trace in [false, true] {
        let mut layers = Layers::new(trace);
        let mut dc = Datacenter::new(&setup, &mut layers).expect("calibration");
        for _ in 0..runs {
            dc.step(&mut layers).expect("run passes its checks");
        }
        assert_eq!(
            dc.calibration.norm_ne.to_bits(),
            want.calibration.norm_ne.to_bits()
        );
        assert_eq!(dc.calibration.racks, want.calibration.racks);
        let (a, b) = (
            dc.calibration.rpca_guide.flatten(),
            want.calibration.rpca_guide.flatten(),
        );
        assert!(
            same_bits(&a.0, &b.0) && same_bits(&a.1, &b.1),
            "RPCA guide differs"
        );
        assert_same_series("bcast", &dc.bcast, &want.bcast, &approaches);
        assert_same_series("scatter", &dc.scatter, &want.scatter, &approaches);
        assert_same_series("topomap", &dc.topomap, &want.topomap, &approaches);
        if trace {
            assert!(layers.get("simnet.run_dag_s") > 0.0);
            assert!(layers.get("netmodel.probes") > 0.0);
        }
    }
}
