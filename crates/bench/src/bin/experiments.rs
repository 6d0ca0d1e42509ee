//! Regenerate every table and figure of the paper's evaluation (§V).
//!
//! ```text
//! experiments <id> [--full]
//!     id ∈ { fig1 fig2 fig4 fig5 fig6 fig7 fig8 fig9a fig9b fig9c
//!            fig10 fig11 fig12 fig13 headline (alias of fig7)
//!            ablation-rank1 ablation-heuristics ablation-pairing
//!            ablation-coords ablation-solvers ext-workflow ablation-anneal
//!            all }
//! ```
//!
//! Default sizes are scaled for minutes-not-hours runtime (`--full`
//! restores the paper's 196-instance / 1024-host scale). Every experiment
//! prints an aligned table and writes a CSV under `results/`.

use cloudconst_apps::{
    balanced_eft_schedule, cg, execute_workflow, nbody, round_robin_schedule, CgConfig, CommEnv,
    NBodyConfig, Workflow,
};
use cloudconst_bench::campaign::{
    instantaneous_perf, run_campaign, run_pooled, Campaign, CampaignResult,
};
use cloudconst_bench::replay::{replay_campaign, ReplaySetup};
use cloudconst_bench::sim_experiments::{sim_calibrate, sim_comparison, SimSetup};
use cloudconst_bench::table::fmt;
use cloudconst_bench::{cdf_points, mean, Approach, Table};
use cloudconst_cloud::{CloudConfig, SyntheticCloud};
use cloudconst_collectives::{fnf_tree, Collective};
use cloudconst_core::{estimate, EstimatorKind};
use cloudconst_linalg::Mat;
use cloudconst_netmodel::{
    pairing_rounds, triangle_violation_rate, vivaldi, Calibrator, LinkPerf, PerfMatrix, TpMatrix,
    MB,
};
use cloudconst_rpca::{
    apg, extract_constant, ialm, rank1_rpca, relative_difference, ApgOptions, ConstantMethod,
    IalmOptions,
};
use cloudconst_topomap::{
    anneal_mapping, evaluate_mapping, greedy_mapping, machine_graph_from_perf, random_task_graph,
    ring_mapping,
};
use rayon::prelude::*;
use std::path::PathBuf;

struct Ctx {
    full: bool,
    results: PathBuf,
}

impl Ctx {
    fn n_default(&self) -> usize {
        if self.full {
            196
        } else {
            64
        }
    }
    fn runs_default(&self) -> usize {
        if self.full {
            100
        } else {
            40
        }
    }
    fn save(&self, t: &Table, name: &str) {
        t.print();
        let path = self.results.join(format!("{name}.csv"));
        t.save_csv(&path).expect("write csv");
        println!("  -> saved {}\n", path.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let id = ids.first().copied().unwrap_or("all");
    let ctx = Ctx {
        full,
        results: PathBuf::from("results"),
    };

    let all = [
        "fig1",
        "fig2",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9a",
        "fig9b",
        "fig9c",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "ablation-rank1",
        "ablation-heuristics",
        "ablation-pairing",
        "ablation-coords",
        "ablation-solvers",
        "ext-workflow",
        "ablation-anneal",
    ];
    let to_run: Vec<&str> = if id == "all" { all.to_vec() } else { vec![id] };
    for id in to_run {
        println!(
            "=== {id} ({}) ===\n",
            if ctx.full { "full" } else { "quick" }
        );
        match id {
            "fig1" => fig1(&ctx),
            "fig2" => fig2(&ctx),
            "fig4" => fig4(&ctx),
            "fig5" => fig5(&ctx),
            "fig6" => fig6(&ctx),
            // `headline` is the Fig. 7 campaign's summary: one run writes both.
            "fig7" | "headline" => fig7(&ctx),
            "fig8" => fig8(&ctx),
            "fig9a" => fig9a(&ctx),
            "fig9b" => fig9b(&ctx),
            "fig9c" => fig9c(&ctx),
            "fig10" => fig10(&ctx),
            "fig11" => fig11(&ctx),
            "fig12" => fig12(&ctx),
            "fig13" => fig13(&ctx),
            "ablation-rank1" => ablation_rank1(&ctx),
            "ablation-heuristics" => ablation_heuristics(&ctx),
            "ablation-pairing" => ablation_pairing(&ctx),
            "ablation-coords" => ablation_coords(&ctx),
            "ablation-solvers" => ablation_solvers(&ctx),
            "ext-workflow" => ext_workflow(&ctx),
            "ablation-anneal" => ablation_anneal(&ctx),
            other => {
                eprintln!("unknown experiment id: {other}");
                std::process::exit(2);
            }
        }
    }
}

/// Fig. 1 — the FNF running example and its weight-matrix sensitivity.
fn fig1(ctx: &Ctx) {
    let w = Mat::from_rows(&[
        &[0.0, 3.0, 2.0, 4.0, 6.0, 7.0],
        &[3.0, 0.0, 5.0, 2.0, 6.0, 4.0],
        &[2.0, 5.0, 0.0, 5.0, 3.0, 1.0],
        &[4.0, 2.0, 5.0, 0.0, 8.0, 9.0],
        &[6.0, 6.0, 3.0, 8.0, 0.0, 5.0],
        &[7.0, 4.0, 1.0, 9.0, 5.0, 0.0],
    ]);
    let mut revised = w.clone();
    revised[(0, 2)] = 4.0;
    revised[(2, 0)] = 4.0;

    let mut t = Table::new(
        "Fig 1: FNF tree structure vs weight of link (machine1, machine3)",
        &[
            "variant",
            "edges (parent->child, 1-indexed)",
            "longest path weight",
        ],
    );
    for (label, wm) in [("original (w13=2)", &w), ("revised (w13=4)", &revised)] {
        let tree = fnf_tree(0, wm);
        let edges: Vec<String> = tree
            .edges()
            .into_iter()
            .map(|(p, c)| format!("{}->{}", p + 1, c + 1))
            .collect();
        t.row(vec![
            label.to_string(),
            edges.join(" "),
            fmt(tree.longest_path_weight(wm)),
        ]);
    }
    ctx.save(&t, "fig1");
}

/// Fig. 2 — RPCA decomposition example on a 4-machine cluster.
fn fig2(ctx: &Ctx) {
    // A 4-machine cluster with stable weights plus one congested sample.
    let base = PerfMatrix::from_fn(4, |i, j| {
        LinkPerf::new(
            1e-4 * (1 + i + j) as f64,
            1e8 / (1.0 + 0.3 * ((i * 4 + j) % 5) as f64),
        )
    });
    let mut tp = TpMatrix::new(4);
    for k in 0..5 {
        let mut snap = base.clone();
        if k == 2 {
            let l = base.link(1, 3);
            snap.set(1, 3, LinkPerf::new(l.alpha * 4.0, l.beta / 6.0));
        }
        tp.push(k as f64 * 60.0, &snap);
    }
    let n_a = tp.weight_matrix(8 * MB);
    let r = apg(&n_a, &ApgOptions::default()).expect("rpca");
    let n_e = r.exact_error(&n_a).expect("shapes");

    let mut t = Table::new(
        "Fig 2: RPCA on a 5-calibration TP-matrix (transfer-time domain, seconds)",
        &[
            "row",
            "max |N_A|",
            "max |N_D|",
            "max |N_E|",
            "N_E entries > 1% scale",
        ],
    );
    let scale = n_a.max_abs();
    for k in 0..5 {
        let row_max = |m: &Mat| m.row(k).iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        let big = n_e.row(k).iter().filter(|v| v.abs() > 0.01 * scale).count();
        t.row(vec![
            format!("calibration {k}"),
            fmt(row_max(&n_a)),
            fmt(row_max(&r.d)),
            fmt(row_max(&n_e)),
            big.to_string(),
        ]);
    }
    ctx.save(&t, "fig2");
}

/// Fig. 4 — calibration overhead vs cluster size, plus RPCA runtime.
fn fig4(ctx: &Ctx) {
    let sizes: &[usize] = if ctx.full {
        &[16, 32, 64, 128, 196, 256]
    } else {
        &[16, 32, 64, 96, 128]
    };
    let mut t = Table::new(
        "Fig 4: overhead of calibrating one TP-matrix (time step = 10)",
        &[
            "instances",
            "probe rounds",
            "calibration overhead (min)",
            "RPCA wall (s)",
        ],
    );
    // Cluster sizes are independent sweep points: each builds its own
    // cloud, so they run concurrently and rows land in sweep order.
    let rows: Vec<Vec<String>> = (0..sizes.len())
        .into_par_iter()
        .map(|idx| {
            let n = sizes[idx];
            let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 77));
            let cal = Calibrator::new();
            let (tp, overhead) = cal.calibrate_tp_par(&cloud, 0.0, 60.0, 10);
            let t0 = std::time::Instant::now();
            let _ = estimate(&tp, EstimatorKind::Rpca).expect("rpca");
            let rpca_wall = t0.elapsed().as_secs_f64();
            vec![
                n.to_string(),
                (pairing_rounds(n).len() * 10).to_string(),
                fmt(overhead / 60.0),
                fmt(rpca_wall),
            ]
        })
        .collect();
    for row in rows {
        t.row(row);
    }
    ctx.save(&t, "fig4");
}

/// Fig. 5 — relative difference of long-term performance vs time step.
fn fig5(ctx: &Ctx) {
    let n = if ctx.full { 64 } else { 24 };
    let mut cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 5));
    let (tp, _) = Calibrator::new().calibrate_tp(&mut cloud, 0.0, 1800.0, 30);

    // Oracle: constant from the full window.
    let oracle = estimate(&tp, EstimatorKind::Rpca).expect("oracle").perf;
    let oracle_row: Vec<f64> = flat_weights(&oracle, 8 * MB);

    let mut t = Table::new(
        "Fig 5: relative difference of long-term performance vs time step",
        &["time step", "Norm(P_D) vs oracle"],
    );
    for ts in [2usize, 4, 6, 8, 10, 14, 20, 30] {
        let est = estimate(&tp.prefix(ts), EstimatorKind::Rpca)
            .expect("estimate")
            .perf;
        let row = flat_weights(&est, 8 * MB);
        t.row(vec![
            ts.to_string(),
            fmt(relative_difference(&row, &oracle_row)),
        ]);
    }
    ctx.save(&t, "fig5");
}

fn flat_weights(p: &PerfMatrix, bytes: u64) -> Vec<f64> {
    let w = p.weights(bytes);
    w.as_slice().to_vec()
}

/// Fig. 6 — broadcast performance and breakdown vs maintenance threshold.
fn fig6(ctx: &Ctx) {
    let n = if ctx.full { 96 } else { 32 };
    let runs = if ctx.full { 100 } else { 40 };
    let mut t = Table::new(
        "Fig 6: impact of the update-maintenance threshold (broadcast)",
        &[
            "threshold",
            "avg bcast (s)",
            "avg maintenance overhead (s/run)",
            "avg total (s)",
            "recalibrations",
        ],
    );
    for thr in [0.1, 0.2, 0.5, 1.0, 1.5, 2.0] {
        let mut c = Campaign::paper_like(n, 21);
        c.runs = runs;
        c.threshold = thr;
        // A livelier cloud so maintenance actually matters.
        let mut cc = CloudConfig::ec2_like(n, 21);
        cc.shift_times = vec![6.0 * 3600.0, 16.0 * 3600.0];
        cc.migrate_frac = 0.5;
        c.cloud = Some(cc);
        let r = run_campaign(&c);
        let bcast = r.bcast.mean_of(Approach::Rpca);
        let maint = r.calibration_overhead / runs as f64;
        t.row(vec![
            format!("{:.0}%", thr * 100.0),
            fmt(bcast),
            fmt(maint),
            fmt(bcast + maint),
            r.calibrations.to_string(),
        ]);
    }
    ctx.save(&t, "fig6");
}

fn overall_table(
    title: &str,
    bcast: &cloudconst_bench::OpSeries,
    scatter: &cloudconst_bench::OpSeries,
    topomap: &cloudconst_bench::OpSeries,
    approaches: &[Approach],
) -> Table {
    let mut t = Table::new(
        title,
        &[
            "approach",
            "bcast (norm.)",
            "scatter (norm.)",
            "topomap (norm.)",
        ],
    );
    let base_b = bcast.mean_of(Approach::Baseline);
    let base_s = scatter.mean_of(Approach::Baseline);
    let base_m = topomap.mean_of(Approach::Baseline);
    for &a in approaches {
        t.row(vec![
            a.label().to_string(),
            fmt(bcast.mean_of(a) / base_b),
            fmt(scatter.mean_of(a) / base_s),
            fmt(topomap.mean_of(a) / base_m),
        ]);
    }
    t
}

fn cdf_table(title: &str, series: &cloudconst_bench::OpSeries, approaches: &[Approach]) -> Table {
    let mut headers = vec!["quantile".to_string()];
    headers.extend(approaches.iter().map(|a| format!("{} (s)", a.label())));
    let mut t = Table {
        title: title.to_string(),
        headers,
        rows: Vec::new(),
    };
    let points = 11;
    let per: Vec<Vec<(f64, f64)>> = approaches
        .iter()
        .map(|&a| cdf_points(series.get(a), points))
        .collect();
    for k in 0..points {
        let mut row = vec![format!("{:.1}", k as f64 / (points - 1) as f64)];
        for p in &per {
            row.push(fmt(p[k].0));
        }
        t.rows.push(row);
    }
    t
}

/// Fig. 7 — overall comparison on the synthetic EC2.
fn fig7(ctx: &Ctx) {
    let mut c = Campaign::paper_like(ctx.n_default(), 13);
    c.runs = ctx.runs_default();
    let r = run_pooled(&c, 4);
    let approaches = [Approach::Baseline, Approach::Heuristics, Approach::Rpca];
    let t = overall_table(
        &format!(
            "Fig 7(a): average performance on {} instances, normalized to Baseline (Norm(N_E) = {})",
            c.n,
            fmt(r.norm_ne)
        ),
        &r.bcast,
        &r.scatter,
        &r.topomap,
        &approaches,
    );
    ctx.save(&t, "fig7a");
    let t = cdf_table(
        "Fig 7(b): CDF of broadcast elapsed time",
        &r.bcast,
        &approaches,
    );
    ctx.save(&t, "fig7b");
    ctx.save(&headline_table(&r), "headline");
}

/// Fig. 8 — improvement vs cluster size (and message size).
fn fig8(ctx: &Ctx) {
    let sizes: &[usize] = if ctx.full { &[64, 196] } else { &[24, 64] };
    let mut t = Table::new(
        "Fig 8: RPCA improvement over Baseline vs cluster and message size",
        &[
            "instances",
            "msg",
            "bcast improvement",
            "scatter improvement",
        ],
    );
    for &n in sizes {
        for msg_mb in [1u64, 8] {
            let mut c = Campaign::paper_like(n, 29);
            c.runs = ctx.runs_default() / 2;
            c.msg_bytes = msg_mb * MB;
            let r = run_pooled(&c, 3);
            let imp = |s: &cloudconst_bench::OpSeries| {
                1.0 - s.mean_of(Approach::Rpca) / s.mean_of(Approach::Baseline)
            };
            t.row(vec![
                n.to_string(),
                format!("{msg_mb}MB"),
                format!("{:.1}%", imp(&r.bcast) * 100.0),
                format!("{:.1}%", imp(&r.scatter) * 100.0),
            ]);
        }
    }
    ctx.save(&t, "fig8");
}

/// Shared driver for the real-application figures.
fn app_rows(
    ctx: &Ctx,
    mut runner: impl FnMut(&CommEnv<'_>) -> cloudconst_apps::Breakdown,
    label: String,
    table: &mut Table,
) {
    let n = if ctx.full { 96 } else { 32 };
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 31));
    let t_run = 7200.0;
    let actual = instantaneous_perf(&cloud, t_run);

    // Calibration data for the guided approaches.
    let mut probe_cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 31));
    let cal = Calibrator::new();
    let (tp, cal_overhead) = cal.calibrate_tp(&mut probe_cloud, 0.0, 60.0, 10);
    let t0 = std::time::Instant::now();
    let rpca_guide = estimate(&tp, EstimatorKind::Rpca).expect("rpca").perf;
    let rpca_wall = t0.elapsed().as_secs_f64();
    let heur_guide = estimate(&tp, EstimatorKind::HeuristicMean)
        .expect("heur")
        .perf;

    for (a, guide) in [
        (Approach::Baseline, None),
        (Approach::Heuristics, Some(&heur_guide)),
        (Approach::Rpca, Some(&rpca_guide)),
    ] {
        let env = CommEnv {
            actual: &actual,
            guide,
        };
        let mut b = runner(&env);
        if a != Approach::Baseline {
            // "Other Overheads": calibration + RPCA calculation, charged to
            // the guided approaches (paper Fig. 9).
            b.other = cal_overhead + if a == Approach::Rpca { rpca_wall } else { 0.0 };
        }
        table.row(vec![
            label.clone(),
            a.label().to_string(),
            fmt(b.compute),
            fmt(b.comm),
            fmt(b.other),
            fmt(b.total()),
        ]);
    }
}

/// Fig. 9(a) — CG vs vector size.
fn fig9a(ctx: &Ctx) {
    let mut t = Table::new(
        "Fig 9(a): CG execution time breakdown vs vector size",
        &[
            "vector",
            "approach",
            "compute (s)",
            "comm (s)",
            "other (s)",
            "total (s)",
        ],
    );
    let sizes: &[usize] = if ctx.full {
        &[1000, 4000, 16000, 64000, 256000, 1024000]
    } else {
        &[1000, 8000, 64000, 256000]
    };
    for &size in sizes {
        app_rows(
            ctx,
            |env| {
                let cfg = CgConfig::paper_like(size, env.n());
                cg::run(&cfg, env).breakdown
            },
            size.to_string(),
            &mut t,
        );
    }
    ctx.save(&t, "fig9a");
}

/// Fig. 9(b) — N-body vs #Step (message size fixed at 1 MB).
fn fig9b(ctx: &Ctx) {
    let mut t = Table::new(
        "Fig 9(b): N-body breakdown vs #Step (message 1MB)",
        &[
            "#Step",
            "approach",
            "compute (s)",
            "comm (s)",
            "other (s)",
            "total (s)",
        ],
    );
    let steps: &[usize] = if ctx.full {
        &[10, 40, 160, 640, 2560]
    } else {
        &[10, 40, 160, 640]
    };
    for &s in steps {
        app_rows(
            ctx,
            |env| {
                let mut cfg = NBodyConfig::small(env.n());
                cfg.bodies = 256;
                cfg.steps = s;
                cfg.message_bytes = Some(MB);
                nbody::run(&cfg, env).breakdown
            },
            s.to_string(),
            &mut t,
        );
    }
    ctx.save(&t, "fig9b");
}

/// Fig. 9(c) — N-body vs message size (#Step fixed).
fn fig9c(ctx: &Ctx) {
    let steps = if ctx.full { 2560 } else { 320 };
    let mut t = Table::new(
        format!("Fig 9(c): N-body breakdown vs message size (#Step {steps})"),
        &[
            "msg",
            "approach",
            "compute (s)",
            "comm (s)",
            "other (s)",
            "total (s)",
        ],
    );
    for msg in [1u64 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20] {
        app_rows(
            ctx,
            |env| {
                let mut cfg = NBodyConfig::small(env.n());
                cfg.bodies = 256;
                cfg.steps = steps;
                cfg.message_bytes = Some(msg);
                nbody::run(&cfg, env).breakdown
            },
            human_bytes(msg),
            &mut t,
        );
    }
    ctx.save(&t, "fig9c");
}

fn human_bytes(b: u64) -> String {
    if b >= MB {
        format!("{}MB", b / MB)
    } else if b >= 1024 {
        format!("{}KB", b / 1024)
    } else {
        format!("{b}B")
    }
}

/// Fig. 10 — expected improvement vs Norm(N_E), by noise injection.
fn fig10(ctx: &Ctx) {
    let n = if ctx.full { 32 } else { 16 };
    let mut setup = ReplaySetup::quick(n, 41);
    setup.runs = if ctx.full { 40 } else { 20 };

    let mut ta = Table::new(
        "Fig 10(a): RPCA improvement over Baseline vs Norm(N_E)",
        &[
            "target",
            "achieved Norm(N_E)",
            "bcast",
            "scatter",
            "topomap",
        ],
    );
    let mut tb = Table::new(
        "Fig 10(b): broadcast improvement over Baseline vs Norm(N_E)",
        &["target", "achieved", "RPCA", "Heuristics"],
    );
    let targets: &[f64] = if ctx.full {
        &[0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5]
    } else {
        &[0.0, 0.1, 0.2, 0.4]
    };
    for &target in targets {
        let r = replay_campaign(&setup, target);
        let imp = |s: &cloudconst_bench::OpSeries, a: Approach| {
            1.0 - mean(s.get(a)) / mean(s.get(Approach::Baseline))
        };
        ta.row(vec![
            fmt(target),
            fmt(r.achieved_norm),
            format!("{:.1}%", imp(&r.bcast, Approach::Rpca) * 100.0),
            format!("{:.1}%", imp(&r.scatter, Approach::Rpca) * 100.0),
            format!("{:.1}%", imp(&r.topomap, Approach::Rpca) * 100.0),
        ]);
        tb.row(vec![
            fmt(target),
            fmt(r.achieved_norm),
            format!("{:.1}%", imp(&r.bcast, Approach::Rpca) * 100.0),
            format!("{:.1}%", imp(&r.bcast, Approach::Heuristics) * 100.0),
        ]);
    }
    ctx.save(&ta, "fig10a");
    ctx.save(&tb, "fig10b");
}

/// Fig. 11 — detailed study at Norm(N_E) = 0.2.
fn fig11(ctx: &Ctx) {
    let n = if ctx.full { 32 } else { 16 };
    let mut setup = ReplaySetup::quick(n, 47);
    setup.runs = if ctx.full { 60 } else { 30 };
    let r = replay_campaign(&setup, 0.2);
    let approaches = [Approach::Baseline, Approach::Heuristics, Approach::Rpca];
    let t = overall_table(
        &format!(
            "Fig 11(a): comparison at Norm(N_E) = {} (noise-injected replay)",
            fmt(r.achieved_norm)
        ),
        &r.bcast,
        &r.scatter,
        &r.topomap,
        &approaches,
    );
    ctx.save(&t, "fig11a");
    let t = cdf_table(
        "Fig 11(b): CDF of broadcast elapsed time at Norm(N_E) = 0.2",
        &r.bcast,
        &approaches,
    );
    ctx.save(&t, "fig11b");
}

/// Fig. 12 — Norm(N_E) vs background λ and message size.
fn fig12(ctx: &Ctx) {
    let base = if ctx.full {
        SimSetup::paper(53)
    } else {
        let mut s = SimSetup::quick(53);
        s.racks = 16;
        s.hosts_per_rack = 16;
        s.cluster_size = 32;
        s.bg_pairs = 48;
        s
    };

    let mut ta = Table::new(
        "Fig 12(a): Norm(N_E) vs background waiting time lambda (message 100MB)",
        &["lambda (s)", "Norm(N_E)", "Norm_l1(N_E)"],
    );
    let lambdas: &[f64] = if ctx.full {
        &[1.0, 2.0, 5.0, 10.0, 20.0, 30.0]
    } else {
        &[2.0, 5.0, 10.0, 30.0]
    };
    // Every λ builds its own simulator — sweep points run concurrently.
    let rows: Vec<Vec<String>> = (0..lambdas.len())
        .into_par_iter()
        .map(|idx| {
            let l = lambdas[idx];
            let mut s = base.clone();
            s.bg_bytes = 100 * MB;
            s.bg_lambda = l;
            let (_, _, cal) = sim_calibrate(&s);
            vec![fmt(l), fmt(cal.norm_ne), fmt(cal.norm_ne_l1)]
        })
        .collect();
    for row in rows {
        ta.row(row);
    }
    ctx.save(&ta, "fig12a");

    let mut tb = Table::new(
        "Fig 12(b): Norm(N_E) vs background message size (lambda 5s)",
        &["msg (MB)", "Norm(N_E)", "Norm_l1(N_E)"],
    );
    let sizes: &[u64] = if ctx.full {
        &[10, 50, 100, 200, 500]
    } else {
        &[10, 50, 100, 200]
    };
    let rows: Vec<Vec<String>> = (0..sizes.len())
        .into_par_iter()
        .map(|idx| {
            let mb = sizes[idx];
            let mut s = base.clone();
            s.bg_bytes = mb * MB;
            s.bg_lambda = 5.0;
            let (_, _, cal) = sim_calibrate(&s);
            vec![mb.to_string(), fmt(cal.norm_ne), fmt(cal.norm_ne_l1)]
        })
        .collect();
    for row in rows {
        tb.row(row);
    }
    ctx.save(&tb, "fig12b");
}

/// Fig. 13 — comparison incl. Topology-aware on the simulated cluster.
fn fig13(ctx: &Ctx) {
    let setup = if ctx.full {
        SimSetup::paper(59)
    } else {
        // Dense enough that the cluster has intra-rack structure to
        // exploit (the paper's 196-of-1024 gives ~6 VMs per rack).
        let mut s = SimSetup::quick(59);
        s.racks = 8;
        s.hosts_per_rack = 32;
        s.cluster_size = 48;
        // Load the oversubscribed core to ~60%: cross-rack links become
        // measurably worse than intra-rack ones — the differentiation the
        // paper's network-aware algorithms exploit.
        s.bg_pairs = 120;
        s.bg_bytes = 100 * MB;
        s.bg_lambda = 2.0;
        s.bg_churn = 0.15;
        s
    };
    let runs = if ctx.full { 40 } else { 20 };
    // Pool two independent datacenters/calibrations: a single seed's
    // comparison is dominated by which links its one calibration window
    // happened to catch congested. The two simulations are independent,
    // so they run concurrently.
    let mut setup2 = setup.clone();
    setup2.seed = setup.seed + 1000;
    let setups = [&setup, &setup2];
    let mut both: Vec<_> = (0..setups.len())
        .into_par_iter()
        .map(|i| sim_comparison(setups[i], runs, 8 * MB))
        .collect();
    let r2 = both.pop().expect("two comparisons");
    let mut r = both.pop().expect("two comparisons");
    r.bcast.merge(&r2.bcast);
    r.scatter.merge(&r2.scatter);
    r.topomap.merge(&r2.topomap);
    r.calibration.norm_ne = 0.5 * (r.calibration.norm_ne + r2.calibration.norm_ne);
    let approaches = [
        Approach::Baseline,
        Approach::TopoAware,
        Approach::Heuristics,
        Approach::Rpca,
    ];
    let t = overall_table(
        &format!(
            "Fig 13(a): ns-2-style simulation, Norm(N_E) = {} (background {} pairs, {}MB, lambda {}s)",
            fmt(r.calibration.norm_ne),
            setup.bg_pairs,
            setup.bg_bytes / MB,
            setup.bg_lambda
        ),
        &r.bcast,
        &r.scatter,
        &r.topomap,
        &approaches,
    );
    ctx.save(&t, "fig13a");
    let t = cdf_table(
        "Fig 13(b): CDF of broadcast elapsed time (simulation)",
        &r.bcast,
        &approaches,
    );
    ctx.save(&t, "fig13b");
}

/// The headline numbers of the abstract (§I): improvement percentages of
/// the Fig. 7 campaign, so `fig7` writes `headline.csv` from its own run.
fn headline_table(r: &CampaignResult) -> Table {
    let imp = |s: &cloudconst_bench::OpSeries, a: Approach, over: Approach| {
        1.0 - s.mean_of(a) / s.mean_of(over)
    };
    let mut t = Table::new(
        "Headline: improvements (paper: bcast/scatter/topomap 20-40% over Baseline, 8-20% over Heuristics)",
        &["metric", "RPCA vs Baseline", "RPCA vs Heuristics"],
    );
    for (name, s) in [
        ("bcast", &r.bcast),
        ("scatter", &r.scatter),
        ("topomap", &r.topomap),
    ] {
        t.row(vec![
            name.to_string(),
            format!("{:.1}%", imp(s, Approach::Rpca, Approach::Baseline) * 100.0),
            format!(
                "{:.1}%",
                imp(s, Approach::Rpca, Approach::Heuristics) * 100.0
            ),
        ]);
    }
    t
}

/// Ablation: rank-1 extraction method.
fn ablation_rank1(ctx: &Ctx) {
    let n = 24;
    let mut cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 61));
    let (tp, _) = Calibrator::new().calibrate_tp(&mut cloud, 0.0, 60.0, 10);
    let truth = cloud.ground_truth(0).clone();
    let truth_row = flat_weights(&truth, 8 * MB);

    let mut t = Table::new(
        "Ablation: rank-1 constant extraction method (error vs ground truth)",
        &["method", "relative difference"],
    );
    let d_alpha = apg(tp.alpha_matrix(), &ApgOptions::default())
        .expect("rpca")
        .d;
    let d_beta = apg(tp.inv_beta_matrix(), &ApgOptions::default())
        .expect("rpca")
        .d;
    for (name, method) in [
        ("top-singular (paper)", ConstantMethod::TopSingular),
        ("mean row", ConstantMethod::MeanRow),
        ("median row", ConstantMethod::MedianRow),
    ] {
        let a = extract_constant(&d_alpha, method).expect("extract");
        let b = extract_constant(&d_beta, method).expect("extract");
        let est = PerfMatrix::from_flat(n, &a, &b);
        let row = flat_weights(&est, 8 * MB);
        t.row(vec![
            name.to_string(),
            fmt(relative_difference(&row, &truth_row)),
        ]);
    }
    ctx.save(&t, "ablation_rank1");
}

/// Ablation: the Heuristics family (paper §V-A claims they tie).
fn ablation_heuristics(ctx: &Ctx) {
    let n = 32;
    let runs = if ctx.full { 48 } else { 24 };
    let mut cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 67));
    let (tp, _) = Calibrator::new().calibrate_tp(&mut cloud, 0.0, 60.0, 10);

    let mut t = Table::new(
        "Ablation: heuristic estimator family (avg broadcast, s)",
        &["estimator", "avg bcast (s)", "Norm(N_E)"],
    );
    for (name, kind) in [
        ("mean", EstimatorKind::HeuristicMean),
        ("min", EstimatorKind::HeuristicMin),
        ("ewma(0.5)", EstimatorKind::HeuristicEwma(0.5)),
        ("last", EstimatorKind::LastMeasurement),
        ("rpca", EstimatorKind::Rpca),
    ] {
        let est = estimate(&tp, kind).expect("estimate");
        let mut times = Vec::new();
        for k in 0..runs {
            let at = 4000.0 + k as f64 * 1800.0;
            let actual = instantaneous_perf(&cloud, at);
            let env = CommEnv::guided(&actual, &est.perf);
            times.push(env.collective_time(Collective::Broadcast, k % n, 8 * MB));
        }
        t.row(vec![name.to_string(), fmt(mean(&times)), fmt(est.norm_ne)]);
    }
    ctx.save(&t, "ablation_heuristics");
}

/// Ablation: concurrent N/2-pair calibration vs sequential link-by-link.
fn ablation_pairing(ctx: &Ctx) {
    let mut t = Table::new(
        "Ablation: calibration pairing schedule (overhead)",
        &[
            "instances",
            "concurrent rounds (s)",
            "sequential (s)",
            "speedup",
        ],
    );
    for n in [16usize, 32, 64] {
        let mut cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 71));
        let conc = Calibrator::new().calibrate(&mut cloud, 0.0).overhead;
        let seq = Calibrator {
            config: cloudconst_netmodel::CalibrationConfig { concurrent: false },
        }
        .calibrate(&mut cloud, 0.0)
        .overhead;
        t.row(vec![
            n.to_string(),
            fmt(conc),
            fmt(seq),
            format!("{:.1}x", seq / conc),
        ]);
    }
    ctx.save(&t, "ablation_pairing");
}

/// Ablation: network coordinates (Vivaldi) vs direct calibration — the
/// paper's §IV-B argument that coordinate systems don't fit datacenters.
fn ablation_coords(ctx: &Ctx) {
    let n = if ctx.full { 48 } else { 24 };
    let mut t = Table::new(
        "Ablation: Vivaldi coordinates vs calibration (latency estimation)",
        &[
            "seed",
            "triangle violations",
            "Vivaldi mean rel err",
            "calibration mean rel err",
        ],
    );
    for seed in [5u64, 6, 7] {
        let mut cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, seed));
        let tv = triangle_violation_rate(&mut cloud, 0.0);
        // 64 rounds: 64·N probes, against calibration's N(N−1) pairs.
        let model = vivaldi(&mut cloud, 64, 10.0);
        let run = Calibrator::new().calibrate(&mut cloud, 2000.0);
        let truth = cloud.ground_truth(0).clone();
        let (mut viv_err, mut cal_err, mut cnt) = (0.0, 0.0, 0usize);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let alpha_true = truth.link(i, j).alpha;
                viv_err += (model.predict(i, j) - alpha_true).abs() / alpha_true;
                cal_err += (run.perf.link(i, j).alpha - alpha_true).abs() / alpha_true;
                cnt += 1;
            }
        }
        t.row(vec![
            seed.to_string(),
            format!("{:.1}%", tv * 100.0),
            format!("{:.1}%", viv_err / cnt as f64 * 100.0),
            format!("{:.1}%", cal_err / cnt as f64 * 100.0),
        ]);
    }
    ctx.save(&t, "ablation_coords");
}

/// Ablation: the three RPCA solver families on the same TP-matrix.
fn ablation_solvers(ctx: &Ctx) {
    let n = if ctx.full { 64 } else { 32 };
    let mut cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 91));
    let (tp, _) = Calibrator::new().calibrate_tp(&mut cloud, 0.0, 1800.0, 10);
    let truth = cloud.ground_truth(0).clone();
    let truth_row = flat_weights(&truth, 8 * MB);

    let mut t = Table::new(
        "Ablation: RPCA solver family (accuracy and runtime on one TP-matrix)",
        &["solver", "relative difference vs truth", "wall (ms)"],
    );
    // APG (paper's choice).
    let t0 = std::time::Instant::now();
    let da = apg(tp.alpha_matrix(), &ApgOptions::default())
        .expect("apg")
        .d;
    let db = apg(tp.inv_beta_matrix(), &ApgOptions::default())
        .expect("apg")
        .d;
    let apg_wall = t0.elapsed().as_secs_f64() * 1e3;
    let a = extract_constant(&da, ConstantMethod::TopSingular).unwrap();
    let b = extract_constant(&db, ConstantMethod::TopSingular).unwrap();
    let est = PerfMatrix::from_flat(n, &a, &b);
    t.row(vec![
        "APG (paper)".into(),
        fmt(relative_difference(&flat_weights(&est, 8 * MB), &truth_row)),
        fmt(apg_wall),
    ]);
    // IALM.
    let t0 = std::time::Instant::now();
    let da = ialm(tp.alpha_matrix(), &IalmOptions::default())
        .expect("ialm")
        .d;
    let db = ialm(tp.inv_beta_matrix(), &IalmOptions::default())
        .expect("ialm")
        .d;
    let ialm_wall = t0.elapsed().as_secs_f64() * 1e3;
    let a = extract_constant(&da, ConstantMethod::TopSingular).unwrap();
    let b = extract_constant(&db, ConstantMethod::TopSingular).unwrap();
    let est = PerfMatrix::from_flat(n, &a, &b);
    t.row(vec![
        "IALM".into(),
        fmt(relative_difference(&flat_weights(&est, 8 * MB), &truth_row)),
        fmt(ialm_wall),
    ]);
    // Direct rank-1.
    let t0 = std::time::Instant::now();
    let ra = rank1_rpca(tp.alpha_matrix());
    let rb = rank1_rpca(tp.inv_beta_matrix());
    let r1_wall = t0.elapsed().as_secs_f64() * 1e3;
    let est = PerfMatrix::from_flat(n, &ra.constant, &rb.constant);
    t.row(vec![
        "rank-1 direct".into(),
        fmt(relative_difference(&flat_weights(&est, 8 * MB), &truth_row)),
        fmt(r1_wall),
    ]);
    ctx.save(&t, "ablation_solvers");
}

/// Extension (the paper's stated future work): scientific workflows
/// scheduled with network-aware EFT, guided by RPCA vs Heuristics vs a
/// network-oblivious round-robin.
fn ext_workflow(ctx: &Ctx) {
    let n = if ctx.full { 48 } else { 24 };
    let mut t = Table::new(
        "Extension: workflow scheduling (layered DAG makespan, seconds)",
        &[
            "seed",
            "round-robin",
            "EFT+Heuristics",
            "EFT+RPCA",
            "EFT+oracle",
        ],
    );
    let seeds: &[u64] = if ctx.full {
        &[101, 102, 103, 104, 105, 106, 107, 108]
    } else {
        &[101, 102, 103, 104, 105, 106]
    };
    let mut sums = [0.0f64; 4];
    // Seeds are independent clouds/workflows — run them concurrently and
    // fold results in seed order.
    let per_seed: Vec<[f64; 4]> = (0..seeds.len())
        .into_par_iter()
        .map(|idx| {
            let seed = seeds[idx];
            let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, seed));
            let (tp, _) = Calibrator::new().calibrate_tp_par(&cloud, 0.0, 1800.0, 10);
            let rpca_guide = estimate(&tp, EstimatorKind::Rpca).expect("rpca").perf;
            let heur_guide = estimate(&tp, EstimatorKind::HeuristicMean)
                .expect("heur")
                .perf;
            let truth = cloud.ground_truth(0).clone();
            // Execute against the instantaneous network some hours later.
            let actual = instantaneous_perf(&cloud, 30_000.0);

            // Data-heavy DAG: edges of 16-64 MB dwarf the ~0.01-0.1 s
            // per-task compute, so placement quality drives the makespan.
            let wf = Workflow::layered(n, 4, 3, 16 * MB, 64 * MB, 0.1, seed ^ 0xF10);
            let flops = 1e9;
            let rr = execute_workflow(&wf, &round_robin_schedule(&wf, n), &actual, flops);
            let heft_h = execute_workflow(
                &wf,
                &balanced_eft_schedule(&wf, &heur_guide, flops),
                &actual,
                flops,
            );
            let heft_r = execute_workflow(
                &wf,
                &balanced_eft_schedule(&wf, &rpca_guide, flops),
                &actual,
                flops,
            );
            let heft_o = execute_workflow(
                &wf,
                &balanced_eft_schedule(&wf, &truth, flops),
                &actual,
                flops,
            );
            [
                rr.makespan,
                heft_h.makespan,
                heft_r.makespan,
                heft_o.makespan,
            ]
        })
        .collect();
    for (idx, m) in per_seed.iter().enumerate() {
        for (s, v) in sums.iter_mut().zip(m.iter()) {
            *s += v;
        }
        t.row(vec![
            seeds[idx].to_string(),
            fmt(m[0]),
            fmt(m[1]),
            fmt(m[2]),
            fmt(m[3]),
        ]);
    }
    let k = seeds.len() as f64;
    t.row(vec![
        "mean".into(),
        fmt(sums[0] / k),
        fmt(sums[1] / k),
        fmt(sums[2] / k),
        fmt(sums[3] / k),
    ]);
    ctx.save(&t, "ext_workflow");
}

/// Ablation: annealing refinement on top of the paper's greedy mapping —
/// how much headroom the greedy heuristic leaves on the table.
fn ablation_anneal(ctx: &Ctx) {
    let n = if ctx.full { 48 } else { 24 };
    let mut t = Table::new(
        "Ablation: topology-mapping algorithms (elapsed on actual network, s)",
        &["seed", "ring", "greedy (paper)", "greedy + annealing"],
    );
    for seed in [201u64, 202, 203] {
        let mut cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, seed));
        let (tp, _) = Calibrator::new().calibrate_tp(&mut cloud, 0.0, 1800.0, 10);
        let guide = estimate(&tp, EstimatorKind::Rpca).expect("rpca").perf;
        let machines = machine_graph_from_perf(&guide);
        let actual = instantaneous_perf(&cloud, 30_000.0);
        let tasks = random_task_graph(n, 2, 5.0 * MB as f64, 10.0 * MB as f64, seed ^ 0xAA);

        let ring = ring_mapping(n);
        let greedy = greedy_mapping(&tasks, &machines);
        let annealed = anneal_mapping(&tasks, &greedy, &guide);
        t.row(vec![
            seed.to_string(),
            fmt(evaluate_mapping(&tasks, &ring, &actual)),
            fmt(evaluate_mapping(&tasks, &greedy, &actual)),
            fmt(evaluate_mapping(&tasks, &annealed, &actual)),
        ]);
    }
    ctx.save(&t, "ablation_anneal");
}
