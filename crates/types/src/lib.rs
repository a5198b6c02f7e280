//! Protocol data model for the Banyan BFT reproduction.
//!
//! Everything the engines, simulator, transport and benches share:
//!
//! * [`ids`] — replica / round / rank / block-hash newtypes;
//! * [`time`] — nanosecond instants and durations (virtual or wall);
//! * [`config`] — `(n, f, p)` validation and the paper's quorum arithmetic;
//! * [`payload`] — inline and synthetic (size-only) block payloads;
//! * [`block`] — block headers and identity hashing;
//! * [`vote`] — notarization / finalization / fast votes;
//! * [`certs`] — notarizations, finalizations, unlock proofs, QCs;
//! * [`message`] — the unified wire message enum;
//! * [`codec`] — the hand-rolled binary wire format;
//! * [`engine`] — the [`engine::Engine`] state-machine abstraction;
//! * [`app`] — the service interface: [`app::ProposalSource`] feeds block
//!   payloads to proposers, [`app::App`] receives finalized blocks.
//!
//! # Examples
//!
//! ```
//! use banyan_types::config::ProtocolConfig;
//!
//! // The paper's n = 19 scenario with f = 6, p = 1 (§9.2).
//! let cfg = ProtocolConfig::new(19, 6, 1)?;
//! assert_eq!(cfg.notarization_quorum(), 13);
//! assert_eq!(cfg.fast_quorum(), 18);
//! # Ok::<(), banyan_types::config::ConfigError>(())
//! ```

#![warn(missing_docs)]

pub mod app;
pub mod block;
pub mod certs;
pub mod codec;
pub mod config;
pub mod engine;
pub mod ids;
pub mod message;
pub mod payload;
pub mod snapshot;
pub mod time;
pub mod vote;

pub use app::{App, FixedSizeSource, NullApp, ProposalContext, ProposalSource, SharedApp};
pub use block::Block;
pub use certs::{FinalKind, Finalization, Notarization, QuorumCert, UnlockEntry, UnlockProof};
pub use codec::{CodecError, Wire};
pub use config::{ConfigError, ProtocolConfig};
pub use engine::{Actions, CommitEntry, Engine, Outbound, TimerKind, TimerRequest};
pub use ids::{BlockHash, Rank, ReplicaId, Round};
pub use message::{
    ChainedMsg, DisseminationMsg, HotStuffMsg, Message, PendingRequest, StreamletMsg, SyncMsg,
};
pub use payload::{Payload, PAYLOAD_CHUNK};
pub use snapshot::ChainSnapshot;
pub use time::{Duration, Time};
pub use vote::{Vote, VoteKind};
