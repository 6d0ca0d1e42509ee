//! Offline shim for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so this workspace-local
//! crate provides the subset of rayon's API that cloudconst uses, backed by
//! a real global thread pool (`std::thread` workers; a parallel region or
//! `join` nested in another region's body runs inline, so nothing can
//! deadlock). See [`iter`] for the
//! determinism contract: parallel combinators produce bit-identical results
//! to their serial equivalents.

pub mod iter;
mod pool;

pub use pool::{current_num_threads, join};

/// The traits users import to get `into_par_iter` / `par_chunks_mut` etc.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}
