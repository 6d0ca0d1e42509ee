//! Ablation: APG (the paper's solver) vs IALM on the same RPCA instances
//! (DESIGN.md §5 item 1).

use cloudconst_linalg::Mat;
use cloudconst_rpca::{apg, ialm, ApgOptions, IalmOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn instance(steps: usize, cols: usize) -> Mat {
    let base: Vec<f64> = (0..cols)
        .map(|j| 2.0 + ((j * 13) % 23) as f64 * 0.05)
        .collect();
    let mut data = Vec::with_capacity(steps * cols);
    for r in 0..steps {
        for (j, b) in base.iter().enumerate() {
            let spike = if (r * 31 + j * 7) % 311 == 0 {
                8.0
            } else {
                0.0
            };
            data.push(b + spike);
        }
    }
    Mat::from_vec(steps, cols, data)
}

fn bench_solvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver_ablation");
    g.sample_size(10);
    for &cols in &[1024usize, 4096] {
        let a = instance(10, cols);
        g.bench_with_input(BenchmarkId::new("apg", cols), &a, |b, a| {
            b.iter(|| apg(a, &ApgOptions::default()).expect("apg"))
        });
        g.bench_with_input(BenchmarkId::new("ialm", cols), &a, |b, a| {
            b.iter(|| ialm(a, &IalmOptions::default()).expect("ialm"))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
