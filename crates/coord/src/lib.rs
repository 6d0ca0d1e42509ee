//! Sharded calibration coordinator (`cloudconst-coord`).
//!
//! Fans the pairing rounds of an N-VM calibration out across `K` worker
//! shards and merges their partial TP-matrices back into one — bit-identical
//! to the unsharded calibrator for any `K` and any frame delivery order.
//! The subsystem is the repo's answer to the roadmap item "shard the
//! pairing rounds of very large clusters and merge TP-matrices, so a
//! calibration service could fan out across hosts".
//!
//! ```text
//!                    ┌────────────┐   Task / Flush / Reset
//!                    │ Coordinator│ ──────────────────────────────┐
//!                    │  (clock,   │                               ▼
//!                    │  schedule, │   Transport (frames)   ┌────────────┐
//!                    │  merge)    │ ◄───────────────────── │ ShardWorker│ × K
//!                    └────────────┘   Ack / Partial        │  (probe,   │
//!                          │                               │  fragment) │
//!                          ▼                               └────────────┘
//!                     TpMatrix + CampaignReport
//! ```
//!
//! Modules: [`codec`] (checksummed binary framing), [`wire`]
//! (the frame header and typed bodies), [`shard`] (round partitioning),
//! [`transport`] (loopback + deterministic lossy sim), [`worker`],
//! [`coordinator`].

pub mod auth;
pub mod codec;
pub mod coordinator;
pub mod shard;
pub mod tcp;
pub mod transport;
pub mod wire;
pub mod worker;

pub use auth::AuthKey;
pub use codec::CodecError;
pub use coordinator::{CampaignReport, Coordinator, CoordinatorConfig, ShardedRun};
pub use shard::ShardPlan;
pub use tcp::{TcpConfig, TcpTransport, TcpWorkerServer};
pub use transport::{LoopbackTransport, ShardId, SimConfig, SimTransport, Transport, WireStats};
pub use wire::{Body, CellResult, Message, PartialTpMatrix, Phase, ShardTask};
pub use worker::ShardWorker;

use std::fmt;

/// Any failure of the sharded-calibration subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordError {
    /// A frame failed to decode.
    Codec(CodecError),
    /// A shard stayed unreachable through the whole dispatch budget.
    ShardLost {
        /// Frames still unanswered when the budget ran out.
        missing: usize,
    },
    /// A peer violated the protocol (wrong message, wrong state).
    Protocol(&'static str),
    /// The coordinator/transport configuration is inconsistent.
    Config(&'static str),
    /// A frame's keyed authentication tag did not verify — wrong campaign
    /// key, tampering, or a truncated seal (see [`auth`]).
    AuthFailure(&'static str),
    /// A socket-level transport failure (connect, handshake I/O).
    Transport(String),
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::Codec(e) => write!(f, "codec: {e}"),
            CoordError::ShardLost { missing } => {
                write!(
                    f,
                    "{missing} shard frame(s) lost beyond the dispatch budget"
                )
            }
            CoordError::Protocol(why) => write!(f, "protocol violation: {why}"),
            CoordError::Config(why) => write!(f, "bad configuration: {why}"),
            CoordError::AuthFailure(why) => write!(f, "authentication failure: {why}"),
            CoordError::Transport(why) => write!(f, "transport failure: {why}"),
        }
    }
}

impl std::error::Error for CoordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoordError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for CoordError {
    fn from(e: CodecError) -> Self {
        CoordError::Codec(e)
    }
}
