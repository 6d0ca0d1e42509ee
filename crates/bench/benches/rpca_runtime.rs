//! RPCA runtime at paper scale (§V-B: "The execution time for running
//! RPCA once is less than 1 minute in the experiments with 196 instances"
//! — a `10 × 38416` TP-matrix).

use cloudconst_linalg::Mat;
use cloudconst_rpca::{apg, ApgOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn tp_like(steps: usize, n_instances: usize) -> Mat {
    let cols = n_instances * n_instances;
    let base: Vec<f64> = (0..cols)
        .map(|j| 1.0 + ((j * 31) % 17) as f64 * 0.1)
        .collect();
    let mut data = Vec::with_capacity(steps * cols);
    for r in 0..steps {
        for (j, b) in base.iter().enumerate() {
            // Constant plus an occasional spike.
            let spike = if (r * 7919 + j) % 997 == 0 { 5.0 } else { 0.0 };
            data.push(b + spike);
        }
    }
    Mat::from_vec(steps, cols, data)
}

fn bench_rpca(c: &mut Criterion) {
    let mut g = c.benchmark_group("rpca_runtime");
    g.sample_size(10);
    for &n in &[32usize, 64, 196] {
        let a = tp_like(10, n);
        g.bench_with_input(BenchmarkId::new("apg_10xN2", n), &a, |b, a| {
            b.iter(|| apg(a, &ApgOptions::default()).expect("converges"))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_rpca);
criterion_main!(benches);
