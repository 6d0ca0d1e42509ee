//! A small global thread pool with work-helping waits.
//!
//! A "parallel region" enqueues `helpers` copies of one shared closure; the
//! closure internally pulls chunk indices from an atomic counter, so every
//! participant (the caller plus any helper that picks the job up) drains the
//! same work queue. The caller *helps* while waiting — it keeps executing
//! queued jobs instead of blocking — which makes nested parallel regions
//! deadlock-free even on a single-worker pool.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// One unit of queued work: a shared region body plus its completion latch.
struct Job {
    body: &'static (dyn Fn() + Sync),
    latch: Arc<Latch>,
}

/// Counts outstanding helper executions of a region body.
struct Latch {
    remaining: Mutex<usize>,
    cv: Condvar,
    /// The first panic payload a helper execution raised.
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
        let mut g = self.remaining.lock().unwrap();
        *g -= 1;
        if *g == 0 {
            self.cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().unwrap() == 0
    }
}

struct PoolInner {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    /// Number of spawned worker threads (not counting callers).
    workers: usize,
}

impl PoolInner {
    fn run_job(&self, job: Job) {
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| (job.body)())) {
            job.latch
                .panic
                .lock()
                .expect("nothing panics while holding the panic slot")
                .get_or_insert(p);
        }
        job.latch.count_down();
    }

    /// Wait for `latch`, executing queued jobs instead of sleeping whenever
    /// work is available.
    fn wait_helping(&self, latch: &Latch) {
        loop {
            if latch.is_done() {
                return;
            }
            let job = self.queue.lock().unwrap().pop_front();
            match job {
                Some(j) => self.run_job(j),
                None => {
                    let g = latch.remaining.lock().unwrap();
                    if *g == 0 {
                        return;
                    }
                    // Short timed wait: a helper may enqueue nested jobs we
                    // should pick up rather than sleep through.
                    let _ = latch.cv.wait_timeout(g, Duration::from_micros(200)).unwrap();
                }
            }
        }
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
    loop {
        let job = {
            let mut q = pool.queue.lock().unwrap();
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                q = pool.cv.wait(q).unwrap();
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
/// `body` must be idempotent-safe under concurrent invocation: every copy
/// pulls work from a shared atomic cursor. Returns after all copies finish;
/// a panic in any copy propagates to the caller with its own payload (the
/// caller's first, else the first helper's).
pub(crate) fn run_region(parallelism: usize, body: &(dyn Fn() + Sync)) {
    let inner = pool();
    let helpers = inner.workers.min(parallelism.saturating_sub(1));
    if helpers == 0 {
        body();
        return;
    }
    let latch = Arc::new(Latch::new(helpers));
    // SAFETY: every queued Job holds this borrow only until its latch counts
    // down, and we do not return before `wait_helping` has observed all
    // count-downs — so the 'static lifetime never outlives the real borrow.
    let body_static: &'static (dyn Fn() + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(body) };
    {
        let mut q = inner.queue.lock().unwrap();
        for _ in 0..helpers {
            q.push_back(Job {
                body: body_static,
                latch: Arc::clone(&latch),
            });
        }
    }
    inner.cv.notify_all();
    let caller_result = catch_unwind(AssertUnwindSafe(body));
    inner.wait_helping(&latch);
    if let Err(p) = caller_result {
        resume_unwind(p);
    }
    let helper_panic = latch
        .panic
        .lock()
        .expect("nothing panics while holding the panic slot")
        .take();
    if let Some(p) = helper_panic {
        resume_unwind(p);
    }
}

/// Run two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    // Sequential execution is a correct implementation of join's contract.
    (oper_a(), oper_b())
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(latch.is_done());
        let payload = latch.panic.lock().unwrap().take().expect("payload kept");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }
}
