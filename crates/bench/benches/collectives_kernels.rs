//! Tree construction and evaluation kernels (the per-run cost every
//! campaign figure pays).

use cloudconst_collectives::{binomial_tree, evaluate_tree, fnf_tree, Collective};
use cloudconst_netmodel::{LinkPerf, PerfMatrix, MB};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn perf(n: usize) -> PerfMatrix {
    PerfMatrix::from_fn(n, |i, j| {
        LinkPerf::new(
            1e-4 * (1 + (i + j) % 5) as f64,
            1e8 / (1.0 + ((i * 31 + j) % 7) as f64),
        )
    })
}

fn bench_trees(c: &mut Criterion) {
    let mut g = c.benchmark_group("collectives");
    for &n in &[64usize, 196] {
        let p = perf(n);
        let w = p.weights(8 * MB);
        g.bench_with_input(BenchmarkId::new("fnf_build", n), &w, |b, w| {
            b.iter(|| fnf_tree(0, w))
        });
        let tree = fnf_tree(0, &w);
        g.bench_with_input(BenchmarkId::new("evaluate_bcast", n), &tree, |b, tree| {
            b.iter(|| evaluate_tree(tree, &p, Collective::Broadcast, 8 * MB))
        });
        g.bench_with_input(BenchmarkId::new("binomial_build", n), &n, |b, &n| {
            b.iter(|| binomial_tree(0, n))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_trees);
criterion_main!(benches);
