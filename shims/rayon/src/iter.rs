//! Parallel-iterator façade over the crate's private thread pool.
//!
//! Only the combinators cloudconst actually uses are provided: ranges and
//! slices with `map`/`for_each`/ordered `collect`, plus `par_chunks_mut`.
//! Every combinator is *order-deterministic*: element `i` of the output is
//! produced by the same expression as in the serial equivalent, so parallel
//! and serial execution yield bit-identical results.

use crate::pool::run_region;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Raw pointer wrapper so disjoint-index writes can cross the `Sync` bound.
struct SyncPtr<T>(*mut T);
unsafe impl<T> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper instead of the bare `*mut T` field.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Dynamic-chunked parallel loop over `0..len`. `f(start, end)` is invoked
/// on disjoint, in-order-numbered subranges from multiple threads.
pub(crate) fn parallel_for_range(len: usize, f: &(dyn Fn(usize, usize) + Sync)) {
    if len == 0 {
        return;
    }
    let threads = crate::pool::current_num_threads();
    if threads <= 1 || len == 1 {
        f(0, len);
        return;
    }
    let chunk = (len / (threads * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let body = move || loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= len {
            break;
        }
        f(start, (start + chunk).min(len));
    };
    run_region(len.div_ceil(chunk), &body);
}

/// Parallel ordered map of `0..len` into a fresh `Vec`.
pub(crate) fn parallel_collect<T: Send>(len: usize, f: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
    let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(len);
    // SAFETY: every index in 0..len is written exactly once below before use.
    unsafe { out.set_len(len) };
    let ptr = SyncPtr(out.as_mut_ptr());
    parallel_for_range(len, &|s, e| {
        for i in s..e {
            // SAFETY: disjoint subranges — no two threads write index i.
            unsafe { (*ptr.get().add(i)).write(f(i)) };
        }
    });
    let mut out = std::mem::ManuallyDrop::new(out);
    let (p, l, c) = (out.as_mut_ptr(), out.len(), out.capacity());
    // SAFETY: all elements initialized; MaybeUninit<T> has T's layout.
    unsafe { Vec::from_raw_parts(p as *mut T, l, c) }
}

// ---------------------------------------------------------------------------
// Ranges
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator (ranges, vectors).
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange {
            start: self.start,
            end: self.end.max(self.start),
        }
    }
}

/// Parallel iterator over a `usize` range.
pub struct ParRange {
    start: usize,
    end: usize,
}

impl ParRange {
    /// Ordered parallel map.
    pub fn map<T, F>(self, f: F) -> ParRangeMap<F>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        ParRangeMap {
            start: self.start,
            end: self.end,
            f,
        }
    }

    /// Parallel side-effecting loop.
    pub fn for_each<F: Fn(usize) + Sync>(self, f: F) {
        let base = self.start;
        parallel_for_range(self.end - self.start, &|s, e| {
            for i in s..e {
                f(base + i);
            }
        });
    }
}

/// Mapped parallel range (see [`ParRange::map`]).
pub struct ParRangeMap<F> {
    start: usize,
    end: usize,
    f: F,
}

impl<F> ParRangeMap<F> {
    /// Collect in index order. Deterministic: identical to the serial map.
    pub fn collect<C, T>(self) -> C
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: From<Vec<T>>,
    {
        let base = self.start;
        let f = &self.f;
        C::from(parallel_collect(self.end - self.start, &|i| f(base + i)))
    }

    /// Deterministic blocked sum: partial sums are taken over fixed 1024
    /// element blocks and combined in block order, independent of thread
    /// count and scheduling.
    pub fn sum(self) -> f64
    where
        F: Fn(usize) -> f64 + Sync,
    {
        const BLOCK: usize = 1024;
        let len = self.end - self.start;
        let base = self.start;
        let f = &self.f;
        let blocks = len.div_ceil(BLOCK);
        let partials = parallel_collect(blocks, &|b| {
            let lo = base + b * BLOCK;
            let hi = (lo + BLOCK).min(base + len);
            let mut s = 0.0;
            for i in lo..hi {
                s += f(i);
            }
            s
        });
        partials.into_iter().sum()
    }
}

// ---------------------------------------------------------------------------
// Slices
// ---------------------------------------------------------------------------

/// `par_chunks_mut` over mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Split into `chunk`-sized mutable chunks processed in parallel.
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
        assert!(chunk > 0, "chunk size must be positive");
        ParChunksMut { data: self, chunk }
    }
}

/// Parallel mutable chunk iterator.
pub struct ParChunksMut<'a, T> {
    data: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair each chunk with its index.
    pub fn enumerate(self) -> EnumeratedParChunksMut<'a, T> {
        EnumeratedParChunksMut {
            data: self.data,
            chunk: self.chunk,
        }
    }

    /// Apply `f` to every chunk in parallel.
    pub fn for_each<F: Fn(&mut [T]) + Sync>(self, f: F) {
        self.enumerate().for_each(|(_, c)| f(c));
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct EnumeratedParChunksMut<'a, T> {
    data: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> EnumeratedParChunksMut<'a, T> {
    /// Apply `f` to every `(index, chunk)` in parallel.
    pub fn for_each<F: Fn((usize, &mut [T])) + Sync>(self, f: F) {
        let len = self.data.len();
        let chunk = self.chunk;
        let n_chunks = len.div_ceil(chunk);
        let ptr = SyncPtr(self.data.as_mut_ptr());
        parallel_for_range(n_chunks, &|s, e| {
            for ci in s..e {
                let lo = ci * chunk;
                let hi = (lo + chunk).min(len);
                // SAFETY: chunks are disjoint; each ci visited exactly once.
                let slice =
                    unsafe { std::slice::from_raw_parts_mut(ptr.get().add(lo), hi - lo) };
                f((ci, slice));
            }
        });
    }
}

/// `par_chunks` over shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Split into `chunk`-sized shared chunks processed in parallel.
    fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T> {
        assert!(chunk > 0, "chunk size must be positive");
        ParChunks { data: self, chunk }
    }
}

/// Parallel shared chunk iterator.
pub struct ParChunks<'a, T> {
    data: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync> ParChunks<'a, T> {
    /// Ordered parallel map over chunks.
    pub fn map<U, F>(self, f: F) -> ParChunksMap<'a, T, F>
    where
        U: Send,
        F: Fn(&[T]) -> U + Sync,
    {
        ParChunksMap {
            data: self.data,
            chunk: self.chunk,
            f,
        }
    }
}

/// Mapped parallel chunk iterator (see [`ParChunks::map`]).
pub struct ParChunksMap<'a, T, F> {
    data: &'a [T],
    chunk: usize,
    f: F,
}

impl<'a, T: Sync, F> ParChunksMap<'a, T, F> {
    /// Collect chunk results in chunk order.
    pub fn collect<C, U>(self) -> C
    where
        U: Send,
        F: Fn(&[T]) -> U + Sync,
        C: From<Vec<U>>,
    {
        let len = self.data.len();
        let chunk = self.chunk;
        let data = self.data;
        let f = &self.f;
        let n_chunks = len.div_ceil(chunk);
        C::from(parallel_collect(n_chunks, &|ci| {
            let lo = ci * chunk;
            let hi = (lo + chunk).min(len);
            f(&data[lo..hi])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_map_collect_matches_serial() {
        let par: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect();
        let ser: Vec<usize> = (0..1000).map(|i| i * i).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn chunks_mut_disjoint_writes() {
        let mut v = vec![0u64; 10_000];
        v.par_chunks_mut(13).enumerate().for_each(|(ci, c)| {
            for x in c.iter_mut() {
                *x = ci as u64;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i / 13) as u64);
        }
    }

    #[test]
    fn nested_regions_do_not_deadlock() {
        let out: Vec<Vec<usize>> = (0..16)
            .into_par_iter()
            .map(|i| (0..64).into_par_iter().map(move |j| i + j).collect())
            .collect();
        assert_eq!(out.len(), 16);
        assert_eq!(out[3][5], 8);
    }

    #[test]
    fn par_chunks_shared_map() {
        let data: Vec<f64> = (0..513).map(|i| i as f64).collect();
        let sums: Vec<f64> = data.par_chunks(64).map(|c| c.iter().sum()).collect();
        let expect: Vec<f64> = data.chunks(64).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, expect);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate() {
        (0..100).into_par_iter().for_each(|i| {
            if i == 57 {
                panic!("boom");
            }
        });
    }
}
