//! Offline shim for `criterion`.
//!
//! Runs each benchmark as a simple timed loop (one warm-up iteration, then
//! `sample_size` measured iterations) and prints the mean wall-clock time
//! per iteration. No statistical analysis, HTML reports or comparison
//! against saved baselines — just enough to keep `cargo bench` working and
//! give order-of-magnitude timings offline.

pub use std::hint::black_box;
use std::time::Instant;

/// Benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Run a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_one("", id, 10, f);
        self
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Number of measured iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benchmark a closure.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl IdLabel, f: F) -> &mut Self {
        run_one(&self.name, &id.label(), self.sample_size, f);
        self
    }

    /// Benchmark a closure against a borrowed input.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl IdLabel,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(&self.name, &id.label(), self.sample_size, |b| f(b, input));
        self
    }

    /// End the group (no-op in the shim; kept for API compatibility).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(group: &str, id: &str, samples: usize, mut f: F) {
    let mut b = Bencher {
        total: std::time::Duration::ZERO,
        iters: 0,
    };
    // Warm-up: one un-measured pass.
    f(&mut b);
    b.total = std::time::Duration::ZERO;
    b.iters = 0;
    for _ in 0..samples {
        f(&mut b);
    }
    let label = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    if b.iters > 0 {
        let per_iter = b.total / b.iters as u32;
        println!(
            "bench {label:<40} {per_iter:>12.2?}/iter ({} iters)",
            b.iters
        );
    } else {
        println!("bench {label:<40} (no iterations recorded)");
    }
}

/// Passed to benchmark closures; accumulates timed iterations.
pub struct Bencher {
    total: std::time::Duration,
    iters: u64,
}

impl Bencher {
    /// Time one call of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        black_box(routine());
        self.total += start.elapsed();
        self.iters += 1;
    }
}

/// Benchmark identifier with a parameter, e.g. `BenchmarkId::new("apg", 64)`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(name: impl std::fmt::Display, param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{name}/{param}"),
        }
    }
}

/// Anything usable as a benchmark name.
pub trait IdLabel {
    fn label(&self) -> String;
}

impl IdLabel for BenchmarkId {
    fn label(&self) -> String {
        self.label.clone()
    }
}

impl IdLabel for &str {
    fn label(&self) -> String {
        (*self).to_string()
    }
}

impl IdLabel for String {
    fn label(&self) -> String {
        self.clone()
    }
}

/// Collect benchmark functions into a runner, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Emit `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test` runs bench targets with --test; skip measuring.
            if std::env::args().any(|a| a == "--test") {
                return;
            }
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        g.bench_function("sum", |b| b.iter(|| (0..1000u64).sum::<u64>()));
        g.bench_with_input(BenchmarkId::new("sum_n", 500), &500u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();
    }

    #[test]
    fn harness_runs() {
        let mut c = Criterion::default();
        sample_bench(&mut c);
    }
}
