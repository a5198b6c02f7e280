//! Persistent chain storage for the Banyan reproduction.
//!
//! Three pieces, layered:
//!
//! * [`ChainStore`] — the storage abstraction engines program against: the
//!   block tree plus notarization/finalization bookkeeping, a snapshot of
//!   the durable state, and (for persistent backends) WAL accounting.
//! * [`BlockStore`] — the in-memory backend. Bit-for-bit the store the
//!   engines have always used, now with an optional retention knob that
//!   prunes state below the finalized frontier so long runs plateau
//!   instead of growing without bound.
//! * [`WalStore`] — the write-ahead-logged backend: every mutation is
//!   appended to a segmented log of length-prefixed, CRC-checksummed
//!   records before touching the in-memory cache. [`WalStore::open`]
//!   replays the log (tolerating torn tails), so a crashed replica
//!   recovers exactly the prefix of mutations that reached disk.
//!
//! [`CatchUpState`] is the driver-level state machine that brings a
//! recovered (or lagging) replica from its restored frontier to the live
//! commit frontier via the `SyncMsg` ranged-fetch protocol. It lives here
//! — not in the engines — because catch-up is I/O scheduling, and engines
//! are pure state machines.

#![warn(missing_docs)]

pub mod catchup;
pub mod memory;
pub mod wal;

use banyan_types::certs::Notarization;
use banyan_types::ids::{BlockHash, Round};
use banyan_types::{Block, ChainSnapshot};

pub use catchup::CatchUpState;
pub use memory::BlockStore;
pub use wal::{WalStore, DEFAULT_SEGMENT_LIMIT};

/// True if `hash` identifies the virtual genesis block (round 0, notarized
/// and finalized by definition).
pub fn is_genesis(hash: &BlockHash) -> bool {
    *hash == BlockHash::ZERO
}

/// The block tree plus notarization/finalization bookkeeping, as a trait
/// so engines can run on the in-memory [`BlockStore`] or the persistent
/// [`WalStore`] without knowing which.
///
/// Implementations must agree with [`BlockStore`]'s semantics exactly —
/// the in-memory backend is the executable specification, and the WAL
/// determinism tests assert a replayed [`WalStore`] reaches a
/// bit-identical [`ChainStore::snapshot`].
pub trait ChainStore: Send {
    /// Inserts a block, returning `false` if it was already present.
    fn insert(&mut self, hash: BlockHash, block: Block) -> bool;

    /// Fetches a block by hash.
    fn get(&self, hash: &BlockHash) -> Option<&Block>;

    /// True if we hold the block (or it is genesis).
    fn contains(&self, hash: &BlockHash) -> bool;

    /// Hashes of blocks received for `round`, in arrival order.
    fn round_blocks(&self, round: Round) -> &[BlockHash];

    /// Marks a block notarized, keeping the certificate if given.
    fn mark_notarized(&mut self, hash: BlockHash, cert: Option<Notarization>);

    /// True if the block is notarized (genesis always is).
    fn is_notarized(&self, hash: &BlockHash) -> bool;

    /// The retained notarization certificate for a block, if any.
    fn notarization(&self, hash: &BlockHash) -> Option<&Notarization>;

    /// Records the finalized block of a round.
    fn mark_finalized(&mut self, round: Round, hash: BlockHash);

    /// The finalized block of `round`, if decided (genesis for round 0).
    fn finalized(&self, round: Round) -> Option<BlockHash>;

    /// True if this specific block is final.
    fn is_finalized(&self, round: Round, hash: &BlockHash) -> bool;

    /// Highest finalized round ever recorded (0 if only genesis). Stable
    /// under pruning: retention may drop old `finalized` entries but never
    /// lowers this value.
    fn max_finalized_round(&self) -> Round;

    /// Walks the parent chain from `tip` (exclusive of genesis) down to —
    /// but not including — round `stop_after`. Returns blocks in
    /// **ascending round order**, or `None` if an ancestor is missing.
    fn chain_to(&self, tip: &BlockHash, stop_after: Round) -> Option<Vec<(BlockHash, &Block)>>;

    /// Number of blocks held.
    fn len(&self) -> usize;

    /// True if no blocks are held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops per-round indexes and blocks strictly below `round` that are
    /// not on the finalized chain (bounded memory for long runs).
    fn prune_below(&mut self, round: Round);

    /// The durable state as a normalized [`ChainSnapshot`]: what a restart
    /// recovers, and what the WAL checkpoints.
    fn snapshot(&self) -> ChainSnapshot;

    /// Rebuilds the store from a snapshot, discarding current contents.
    fn restore(&mut self, snapshot: &ChainSnapshot);

    /// Bytes currently held in the write-ahead log (0 for in-memory
    /// backends). A gauge for the metrics pipeline.
    fn wal_bytes(&self) -> u64 {
        0
    }

    /// Flushes buffered writes to durable media (no-op for in-memory
    /// backends).
    fn sync(&mut self) {}
}
