//! A probe wrapper that counts the measurements a calibration makes and,
//! when asked, the wall time spent inside the wrapped probe.

use cloudconst_netmodel::{NetworkProbe, PureNetworkProbe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Forwards every call to `inner` unchanged, so results are bit-identical
/// to probing `inner` directly.
pub struct Counted<P> {
    inner: P,
    timed: bool,
    // Statistics only: nothing is published through these, so `Relaxed`.
    probes: AtomicU64,
    nanos: AtomicU64,
}

impl<P> Counted<P> {
    /// Count probes; time the inner probe only when `timed`.
    pub fn new(inner: P, timed: bool) -> Self {
        Counted {
            inner,
            timed,
            probes: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Point-to-point measurements made so far.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Seconds spent inside the wrapped probe (0 unless timed). On a pure
    /// probe fanned out over threads this sums the threads' time.
    pub fn inner_seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl<P: NetworkProbe> NetworkProbe for Counted<P> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn probe(&mut self, i: usize, j: usize, bytes: u64, now: f64) -> f64 {
        let inner = &mut self.inner;
        let (probes, nanos, timed) = (&self.probes, &self.nanos, self.timed);
        measure_with(probes, nanos, timed, 1, || inner.probe(i, j, bytes, now))
    }

    fn probe_concurrent(&mut self, pairs: &[(usize, usize)], bytes: u64, now: f64) -> Vec<f64> {
        let inner = &mut self.inner;
        let (probes, nanos, timed) = (&self.probes, &self.nanos, self.timed);
        measure_with(probes, nanos, timed, pairs.len(), || {
            inner.probe_concurrent(pairs, bytes, now)
        })
    }
}

impl<P: PureNetworkProbe> PureNetworkProbe for Counted<P> {
    fn probe_pure(&self, i: usize, j: usize, bytes: u64, now: f64) -> f64 {
        measure_with(&self.probes, &self.nanos, self.timed, 1, || {
            self.inner.probe_pure(i, j, bytes, now)
        })
    }
}

fn measure_with<T>(
    probes: &AtomicU64,
    nanos: &AtomicU64,
    timed: bool,
    count: usize,
    f: impl FnOnce() -> T,
) -> T {
    probes.fetch_add(count as u64, Ordering::Relaxed);
    if !timed {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}
