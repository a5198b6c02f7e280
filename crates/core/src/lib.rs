//! Consensus engines for the Banyan BFT reproduction.
//!
//! The paper's contribution — **Banyan**, the first rotating-leader SMR
//! protocol finalizing in a single round trip — plus every protocol its
//! evaluation compares against:
//!
//! * [`chained`] — the ICC / Banyan family (one engine, two
//!   [`chained::PathMode`]s), including the Definition 7.6 unlock
//!   machinery and Byzantine behavior knobs;
//! * [`hotstuff`] — chained 3-phase HotStuff with a rotating leader;
//! * [`streamlet`] — Streamlet with fixed 2Δ epochs;
//! * [`model`] — the analytic latency/requirement model behind the
//!   paper's Table 1;
//! * [`builder`] — convenience constructors wiring engines, PKI, beacon
//!   and per-replica [`banyan_types::app::ProposalSource`]s together for
//!   clusters.
//!
//! Every engine keeps its blocks, certificates and finalized chain in a
//! `banyan_storage::ChainStore` (the in-memory `BlockStore` unless
//! [`builder::ClusterBuilder::chain_stores`] installs another), so every
//! engine's snapshot has one shape and a `WalStore` makes any of them
//! durable.
//!
//! Engines never mint payloads themselves: each one pulls the next block
//! payload from its `ProposalSource` (a mempool, a client queue, or the
//! paper's size-only synthetic workload installed by
//! [`builder::ClusterBuilder::payload_size`]).
//!
//! # Examples
//!
//! Build a 4-replica Banyan cluster and drive it in-process:
//!
//! ```
//! use banyan_core::builder::ClusterBuilder;
//!
//! let engines = ClusterBuilder::new(4, 1, 1)   // n, f, p
//!     .expect("valid parameters")
//!     .payload_size(1024)  // shim: installs a FixedSizeSource per replica
//!     .build_banyan();
//! assert_eq!(engines.len(), 4);
//! ```

mod baseline;
pub mod builder;
pub mod chained;
pub mod hotstuff;
pub mod model;
pub mod streamlet;

pub use builder::{ClusterBuilder, VerifyPlaneConfig};
pub use chained::{ByzantineMode, ChainedEngine, PathMode};
pub use hotstuff::HotStuffEngine;
pub use streamlet::StreamletEngine;
