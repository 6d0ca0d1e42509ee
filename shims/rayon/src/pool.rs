//! A small global thread pool.
//!
//! A "parallel region" enqueues `helpers` copies of one shared closure; the
//! closure internally pulls chunk indices from an atomic counter, so every
//! participant (the caller plus any worker that picks a copy up) drains the
//! same work queue. [`join`] is a region of two different bodies: the
//! caller runs the first while a worker may take the second.
//!
//! Regions and joins started inside a region body — every job a worker
//! runs, and the caller's own share of a region or join — run inline on
//! that thread. So a worker never enqueues work or waits for any, and a
//! caller never waits on more than the jobs workers have already taken:
//! once its own share is done it runs its unclaimed jobs itself, then
//! blocks on the region's latch. Nothing can deadlock, even with one
//! worker.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Every pool lock guards a few field updates that cannot panic; job
/// bodies run with no lock held.
const UNPOISONED: &str = "no pool lock is held across a panic";

/// One unit of queued work: a shared region body plus its completion latch.
struct Job {
    body: &'static (dyn Fn() + Sync),
    latch: Arc<Latch>,
}

/// Counts outstanding executions of a region's queued jobs.
struct Latch {
    remaining: Mutex<usize>,
    cv: Condvar,
    /// The first panic payload a queued job raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn count_down(&self) {
        let mut g = self.remaining.lock().expect(UNPOISONED);
        *g -= 1;
        if *g == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut g = self.remaining.lock().expect(UNPOISONED);
        while *g > 0 {
            g = self.cv.wait(g).expect(UNPOISONED);
        }
    }

    /// Re-raise the first panic a queued job captured, if any.
    fn resume_panic(&self) {
        let payload = self
            .panic
            .lock()
            .expect("nothing panics while holding the panic slot")
            .take();
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }
}

thread_local! {
    /// True while this thread runs a region body (always, on a worker).
    static IN_BODY: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` as a region body: regions it starts run inline. Panics are
/// caught so the caller can wait for its helpers before unwinding.
fn run_as_body<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    let outer = IN_BODY.with(|b| b.replace(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    IN_BODY.with(|b| b.set(outer));
    result
}

struct PoolInner {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    /// Number of spawned worker threads (not counting callers).
    workers: usize,
}

impl PoolInner {
    fn run_job(&self, job: Job) {
        if let Err(p) = run_as_body(job.body) {
            job.latch
                .panic
                .lock()
                .expect("nothing panics while holding the panic slot")
                .get_or_insert(p);
        }
        job.latch.count_down();
    }

    /// Queue `copies` jobs of `body` under a fresh latch.
    ///
    /// # Safety
    /// The caller must not return (or unwind) before [`PoolInner::finish`]
    /// has returned for the latch: the jobs borrow `body` as `'static`.
    unsafe fn submit(&self, body: &(dyn Fn() + Sync), copies: usize) -> Arc<Latch> {
        let latch = Arc::new(Latch::new(copies));
        // SAFETY: per this function's contract, every queued Job holds the
        // borrow only until its latch counts down, and the caller outlives
        // `finish`, which returns only after every count-down.
        let body: &'static (dyn Fn() + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(body) };
        {
            let mut q = self.queue.lock().expect(UNPOISONED);
            for _ in 0..copies {
                q.push_back(Job {
                    body,
                    latch: Arc::clone(&latch),
                });
            }
        }
        self.cv.notify_all();
        latch
    }

    /// Run the jobs of `latch` that no worker has taken, then block until
    /// the taken ones finish. Workers never wait on anything, so the taken
    /// jobs always complete.
    fn finish(&self, latch: &Arc<Latch>) {
        let mine: VecDeque<Job> = {
            let mut q = self.queue.lock().expect(UNPOISONED);
            let (mine, rest) = q.drain(..).partition(|j| Arc::ptr_eq(&j.latch, latch));
            *q = rest;
            mine
        };
        for job in mine {
            self.run_job(job);
        }
        latch.wait();
    }
}

static POOL: OnceLock<Arc<PoolInner>> = OnceLock::new();

fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn pool() -> &'static Arc<PoolInner> {
    POOL.get_or_init(|| {
        let threads = configured_threads();
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            workers: threads.saturating_sub(1),
        });
        for idx in 0..inner.workers {
            let pool = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("rayon-shim-{idx}"))
                .spawn(move || worker_loop(&pool))
                .expect("spawn rayon-shim worker");
        }
        inner
    })
}

fn worker_loop(pool: &PoolInner) {
    IN_BODY.with(|b| b.set(true));
    loop {
        let job = {
            let mut q = pool.queue.lock().expect(UNPOISONED);
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                q = pool.cv.wait(q).expect(UNPOISONED);
            }
        };
        pool.run_job(job);
    }
}

/// Total participant count a region can use (callers + workers).
pub fn current_num_threads() -> usize {
    pool().workers + 1
}

/// Execute `body` on the caller plus up to `parallelism - 1` pool workers.
/// `body` must be safe under concurrent invocation and return only once
/// the shared work is drained: every copy pulls work from a shared atomic
/// cursor, so a copy no worker has taken by then finds nothing to do.
/// Returns after all copies finish; a panic in any copy propagates to the
/// caller with its own payload (the caller's first, else the first
/// helper's). Inside a region body, runs `body` once, inline.
pub(crate) fn run_region(parallelism: usize, body: &(dyn Fn() + Sync)) {
    let inner = pool();
    let helpers = inner.workers.min(parallelism.saturating_sub(1));
    if helpers == 0 || IN_BODY.with(Cell::get) {
        body();
        return;
    }
    // SAFETY: `finish` runs below before this frame returns or unwinds.
    let latch = unsafe { inner.submit(body, helpers) };
    let caller_result = run_as_body(body);
    inner.finish(&latch);
    if let Err(p) = caller_result {
        resume_unwind(p);
    }
    latch.resume_panic();
}

/// Run two closures, returning both results in order. The caller runs
/// `oper_a` while an idle pool worker may take `oper_b`; if none has taken
/// it by the time `oper_a` returns, the caller runs it too. Inside a
/// region body (or on a one-thread pool) both run inline, `oper_a` first.
/// A panic in either propagates after both have finished, `oper_a`'s
/// first.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let inner = pool();
    if inner.workers == 0 || IN_BODY.with(Cell::get) {
        return (oper_a(), oper_b());
    }
    let oper_b = Mutex::new(Some(oper_b));
    let result_b = Mutex::new(None);
    let body_b = || {
        let f = oper_b
            .lock()
            .expect(UNPOISONED)
            .take()
            .expect("oper_b runs once");
        let rb = f();
        *result_b.lock().expect(UNPOISONED) = Some(rb);
    };
    // SAFETY: `finish` runs below before this frame returns or unwinds.
    let latch = unsafe { inner.submit(&body_b, 1) };
    let result_a = run_as_body(oper_a);
    inner.finish(&latch);
    let ra = result_a.unwrap_or_else(|p| resume_unwind(p));
    latch.resume_panic();
    let rb = result_b
        .into_inner()
        .expect(UNPOISONED)
        .expect("oper_b finished without panicking");
    (ra, rb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn boom() {
        panic!("boom");
    }

    fn bang() {
        panic!("bang");
    }

    #[test]
    fn helper_keeps_first_panic_payload() {
        let latch = Arc::new(Latch::new(2));
        for body in [&boom as &'static (dyn Fn() + Sync), &bang] {
            pool().run_job(Job {
                body,
                latch: Arc::clone(&latch),
            });
        }
        assert_eq!(*latch.remaining.lock().unwrap(), 0);
        let payload = latch.panic.lock().unwrap().take().expect("payload kept");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn join_runs_both_and_returns_in_order() {
        for k in 0..64u64 {
            let (a, b) = join(|| k * 3, || format!("b{k}"));
            assert_eq!(a, k * 3);
            assert_eq!(b, format!("b{k}"));
        }
        // Borrowed, mutably captured state on both sides.
        let (mut left, mut right) = (vec![0u64; 1000], vec![0u64; 1000]);
        let (sa, sb) = join(
            || {
                left.iter_mut().enumerate().for_each(|(i, x)| *x = i as u64);
                left.iter().sum::<u64>()
            },
            || {
                right
                    .iter_mut()
                    .enumerate()
                    .for_each(|(i, x)| *x = 2 * i as u64);
                right.iter().sum::<u64>()
            },
        );
        assert_eq!((sa, sb), (499_500, 999_000));
        assert_eq!(right[7], 14);
    }

    #[test]
    fn join_propagates_panic_of_b() {
        let ran_a = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            join(
                || ran_a.fetch_add(1, Ordering::SeqCst),
                || -> usize { panic!("b failed") },
            )
        }));
        let payload = caught.expect_err("b's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"b failed"));
        assert_eq!(ran_a.load(Ordering::SeqCst), 1, "a still ran to completion");
    }

    #[test]
    fn join_prefers_panic_of_a() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            join(
                || -> u8 { panic!("a failed") },
                || -> u8 { panic!("b failed") },
            )
        }));
        let payload = caught.expect_err("a panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"a failed"));
    }

    #[test]
    fn nested_join_and_region_run_inline_without_deadlock() {
        let calls = AtomicUsize::new(0);
        let body = || {
            let me = std::thread::current().id();
            // A nested join runs both halves on this very thread ...
            let (a, b) = join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            );
            assert_eq!((a, b), (me, me));
            // ... and so does a nested region.
            let inner = AtomicUsize::new(0);
            run_region(8, &|| {
                assert_eq!(std::thread::current().id(), me);
                inner.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(inner.load(Ordering::SeqCst), 1, "one inline copy");
            calls.fetch_add(1, Ordering::SeqCst);
        };
        for _ in 0..32 {
            let ((), ()) = join(body, body);
            run_region(current_num_threads(), &body);
        }
        assert!(calls.load(Ordering::SeqCst) >= 32 * 3);
        assert!(!IN_BODY.with(Cell::get), "the caller's mark is restored");
    }
}
