//! The in-memory block tree (§4: "as the protocol advances, a tree of
//! blocks is constructed, starting from a genesis block that is at the
//! root").
//!
//! The store tracks every received block, which are notarized, and the
//! finalized chain. The genesis block is virtual: hash
//! [`BlockHash::ZERO`] at round 0, notarized and finalized by definition.
//!
//! With the default `retention = None` this reproduces the historical
//! behaviour bit-for-bit: nothing is dropped unless the engine explicitly
//! calls [`BlockStore::prune_below`]. With `retention = Some(k)` the store
//! additionally drops *everything* — finalized chain included — more than
//! `k` rounds below the finalized frontier after each finalization, so the
//! resident set plateaus on long runs.

use std::collections::{BTreeMap, HashMap};

use banyan_types::certs::Notarization;
use banyan_types::ids::{BlockHash, Round};
use banyan_types::{Block, ChainSnapshot};

use crate::ChainStore;

/// What the store knows of one block hash. A notarization (and its
/// certificate) can arrive before the block, so each part is optional.
/// The block and the certificate are boxed: a table slot is then a key
/// and three words, so the one table stays small and cheap to double as
/// the chain grows.
#[derive(Clone, Debug, Default)]
struct Entry {
    block: Option<Box<Block>>,
    /// Notarized (own quorum or received certificate).
    notarized: bool,
    /// The retained notarization certificate (needed for proposals and
    /// round-advance broadcasts).
    cert: Option<Box<Notarization>>,
}

/// The block tree plus notarization/finalization bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct BlockStore {
    /// Every block, notarization and certificate we hold, by hash.
    entries: HashMap<BlockHash, Entry>,
    /// Entries holding a block.
    blocks: usize,
    /// Hashes per round, in arrival order.
    by_round: BTreeMap<Round, Vec<BlockHash>>,
    /// The finalized block of each round (the canonical chain).
    finalized: BTreeMap<Round, BlockHash>,
    /// Highest finalized round ever seen. Cached so the value survives
    /// retention pruning of the `finalized` map.
    max_finalized: Round,
    /// If set, rounds more than this far below the finalized frontier are
    /// dropped entirely after each finalization.
    retention: Option<u64>,
}

impl BlockStore {
    /// An empty tree (genesis only).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty tree that keeps at most `keep_rounds` rounds of history
    /// below the finalized frontier.
    pub fn with_retention(keep_rounds: u64) -> Self {
        Self {
            retention: Some(keep_rounds),
            ..Self::default()
        }
    }

    /// Sets (or clears) the retention window. `None` — the default —
    /// never drops finalized history.
    pub fn set_retention(&mut self, keep_rounds: Option<u64>) {
        self.retention = keep_rounds;
        self.enforce_retention();
    }

    /// True if `hash` identifies the virtual genesis block.
    pub fn is_genesis(hash: &BlockHash) -> bool {
        crate::is_genesis(hash)
    }

    /// Inserts a block, returning `false` if it was already present.
    pub fn insert(&mut self, hash: BlockHash, block: Block) -> bool {
        let entry = self.entries.entry(hash).or_default();
        if entry.block.is_some() {
            return false;
        }
        // Most rounds hold one block.
        self.by_round
            .entry(block.round)
            .or_insert_with(|| Vec::with_capacity(1))
            .push(hash);
        entry.block = Some(Box::new(block));
        self.blocks += 1;
        true
    }

    /// Fetches a block by hash.
    pub fn get(&self, hash: &BlockHash) -> Option<&Block> {
        self.entries.get(hash)?.block.as_deref()
    }

    /// True if we hold the block (or it is genesis).
    pub fn contains(&self, hash: &BlockHash) -> bool {
        Self::is_genesis(hash) || self.get(hash).is_some()
    }

    /// Hashes of blocks received for `round`.
    pub fn round_blocks(&self, round: Round) -> &[BlockHash] {
        self.by_round.get(&round).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Marks a block notarized, keeping the certificate if given.
    pub fn mark_notarized(&mut self, hash: BlockHash, cert: Option<Notarization>) {
        let entry = self.entries.entry(hash).or_default();
        entry.notarized = true;
        if entry.cert.is_none() {
            entry.cert = cert.map(Box::new);
        }
    }

    /// True if the block is notarized (genesis always is).
    pub fn is_notarized(&self, hash: &BlockHash) -> bool {
        Self::is_genesis(hash) || self.entries.get(hash).is_some_and(|e| e.notarized)
    }

    /// The retained notarization certificate for a block, if any.
    pub fn notarization(&self, hash: &BlockHash) -> Option<&Notarization> {
        self.entries.get(hash)?.cert.as_deref()
    }

    /// Records the finalized block of a round.
    pub fn mark_finalized(&mut self, round: Round, hash: BlockHash) {
        self.finalized.insert(round, hash);
        // A finalized block is necessarily notarized.
        if !Self::is_genesis(&hash) {
            self.entries.entry(hash).or_default().notarized = true;
        }
        if round > self.max_finalized {
            self.max_finalized = round;
        }
        self.enforce_retention();
    }

    /// The finalized block of `round`, if decided (genesis for round 0).
    pub fn finalized(&self, round: Round) -> Option<BlockHash> {
        if round == Round::GENESIS {
            return Some(BlockHash::ZERO);
        }
        self.finalized.get(&round).copied()
    }

    /// True if this specific block is final.
    pub fn is_finalized(&self, round: Round, hash: &BlockHash) -> bool {
        self.finalized(round) == Some(*hash)
    }

    /// Highest finalized round (0 if only genesis). Stable under
    /// retention pruning.
    pub fn max_finalized_round(&self) -> Round {
        self.max_finalized
    }

    /// Walks the parent chain from `tip` (exclusive of genesis) down to —
    /// but not including — round `stop_after`. Returns blocks in
    /// **ascending round order**, or `None` if an ancestor is missing from
    /// the store.
    ///
    /// This is the §4 implicit-finalization walk: explicitly finalizing a
    /// round-`k` block finalizes all its ancestors back to the previous
    /// finalized round.
    pub fn chain_to(&self, tip: &BlockHash, stop_after: Round) -> Option<Vec<(BlockHash, &Block)>> {
        let mut out = Vec::new();
        let mut cursor = *tip;
        loop {
            if Self::is_genesis(&cursor) {
                break;
            }
            let block = self.get(&cursor)?;
            if block.round <= stop_after {
                break;
            }
            out.push((cursor, block));
            cursor = block.parent;
        }
        out.reverse();
        Some(out)
    }

    /// Number of blocks held.
    pub fn len(&self) -> usize {
        self.blocks
    }

    /// True if no blocks are held.
    pub fn is_empty(&self) -> bool {
        self.blocks == 0
    }

    /// Forgets `hash`: its block, notarization and certificate.
    fn forget(&mut self, hash: &BlockHash) {
        if self.entries.remove(hash).is_some_and(|e| e.block.is_some()) {
            self.blocks -= 1;
        }
    }

    /// Drops per-round indexes and blocks strictly below `round` that are
    /// not on the finalized chain (bounded memory for long runs).
    pub fn prune_below(&mut self, round: Round) {
        let doomed_rounds: Vec<Round> = self.by_round.range(..round).map(|(r, _)| *r).collect();
        for r in doomed_rounds {
            if let Some(hashes) = self.by_round.remove(&r) {
                for h in hashes {
                    if self.finalized.get(&r) != Some(&h) {
                        self.forget(&h);
                    }
                }
            }
        }
    }

    /// Applies the retention window: drops rounds — finalized chain
    /// included — more than `retention` below the finalized frontier.
    fn enforce_retention(&mut self) {
        let Some(keep) = self.retention else {
            return;
        };
        let cutoff = Round(self.max_finalized.0.saturating_sub(keep));
        if cutoff == Round::GENESIS {
            return;
        }
        let doomed: Vec<Round> = self.by_round.range(..cutoff).map(|(r, _)| *r).collect();
        for r in doomed {
            if let Some(hashes) = self.by_round.remove(&r) {
                for h in hashes {
                    self.forget(&h);
                }
            }
        }
        let doomed_fin: Vec<Round> = self.finalized.range(..cutoff).map(|(r, _)| *r).collect();
        for r in doomed_fin {
            self.finalized.remove(&r);
        }
    }

    /// The durable state as a normalized snapshot.
    pub fn snapshot(&self) -> ChainSnapshot {
        let entries = || self.entries.iter();
        let mut snap = ChainSnapshot {
            blocks: entries()
                .filter_map(|(h, e)| Some((*h, e.block.as_deref()?.clone())))
                .collect(),
            notarized: entries()
                .filter(|(_, e)| e.notarized)
                .map(|(h, _)| *h)
                .collect(),
            notarizations: entries()
                .filter_map(|(_, e)| e.cert.as_deref().cloned())
                .collect(),
            finalized: self.finalized.iter().map(|(r, h)| (*r, *h)).collect(),
            committed_round: self.max_finalized,
        };
        snap.normalize();
        snap
    }

    /// Rebuilds the store from a snapshot, discarding current contents
    /// but keeping the retention setting.
    pub fn restore(&mut self, snapshot: &ChainSnapshot) {
        let retention = self.retention;
        *self = Self::default();
        self.retention = retention;
        for (h, b) in &snapshot.blocks {
            self.insert(*h, b.clone());
        }
        for h in &snapshot.notarized {
            self.entries.entry(*h).or_default().notarized = true;
        }
        for cert in &snapshot.notarizations {
            let entry = self.entries.entry(cert.block).or_default();
            if entry.cert.is_none() {
                entry.cert = Some(Box::new(cert.clone()));
            }
        }
        for (r, h) in &snapshot.finalized {
            self.finalized.insert(*r, *h);
            if !Self::is_genesis(h) {
                self.entries.entry(*h).or_default().notarized = true;
            }
        }
        self.max_finalized = snapshot.max_finalized_round();
        self.enforce_retention();
    }
}

impl ChainStore for BlockStore {
    fn insert(&mut self, hash: BlockHash, block: Block) -> bool {
        BlockStore::insert(self, hash, block)
    }
    fn get(&self, hash: &BlockHash) -> Option<&Block> {
        BlockStore::get(self, hash)
    }
    fn contains(&self, hash: &BlockHash) -> bool {
        BlockStore::contains(self, hash)
    }
    fn round_blocks(&self, round: Round) -> &[BlockHash] {
        BlockStore::round_blocks(self, round)
    }
    fn mark_notarized(&mut self, hash: BlockHash, cert: Option<Notarization>) {
        BlockStore::mark_notarized(self, hash, cert)
    }
    fn is_notarized(&self, hash: &BlockHash) -> bool {
        BlockStore::is_notarized(self, hash)
    }
    fn notarization(&self, hash: &BlockHash) -> Option<&Notarization> {
        BlockStore::notarization(self, hash)
    }
    fn mark_finalized(&mut self, round: Round, hash: BlockHash) {
        BlockStore::mark_finalized(self, round, hash)
    }
    fn finalized(&self, round: Round) -> Option<BlockHash> {
        BlockStore::finalized(self, round)
    }
    fn is_finalized(&self, round: Round, hash: &BlockHash) -> bool {
        BlockStore::is_finalized(self, round, hash)
    }
    fn max_finalized_round(&self) -> Round {
        BlockStore::max_finalized_round(self)
    }
    fn chain_to(&self, tip: &BlockHash, stop_after: Round) -> Option<Vec<(BlockHash, &Block)>> {
        BlockStore::chain_to(self, tip, stop_after)
    }
    fn len(&self) -> usize {
        BlockStore::len(self)
    }
    fn is_empty(&self) -> bool {
        BlockStore::is_empty(self)
    }
    fn prune_below(&mut self, round: Round) {
        BlockStore::prune_below(self, round)
    }
    fn snapshot(&self) -> ChainSnapshot {
        BlockStore::snapshot(self)
    }
    fn restore(&mut self, snapshot: &ChainSnapshot) {
        BlockStore::restore(self, snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banyan_crypto::Signature;
    use banyan_types::ids::{Rank, ReplicaId};
    use banyan_types::payload::Payload;
    use banyan_types::time::Time;
    use banyan_types::Wire;

    fn block(round: u64, parent: BlockHash, tag: u8) -> (BlockHash, Block) {
        let b = Block {
            round: Round(round),
            proposer: ReplicaId(tag as u16),
            rank: Rank(0),
            parent,
            proposed_at: Time(round),
            payload: Payload::synthetic(100, tag as u64),
            signature: Signature::zero(),
        };
        (b.hash(1024), b)
    }

    #[test]
    fn genesis_is_always_notarized_and_finalized() {
        let store = BlockStore::new();
        assert!(store.is_notarized(&BlockHash::ZERO));
        assert_eq!(store.finalized(Round::GENESIS), Some(BlockHash::ZERO));
        assert!(store.is_finalized(Round::GENESIS, &BlockHash::ZERO));
        assert_eq!(store.max_finalized_round(), Round::GENESIS);
    }

    #[test]
    fn insert_and_lookup() {
        let mut store = BlockStore::new();
        let (h, b) = block(1, BlockHash::ZERO, 1);
        assert!(store.insert(h, b.clone()));
        assert!(!store.insert(h, b), "duplicate insert returns false");
        assert!(store.contains(&h));
        assert_eq!(store.get(&h).unwrap().round, Round(1));
        assert_eq!(store.round_blocks(Round(1)), &[h]);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn notarization_tracking() {
        let mut store = BlockStore::new();
        let (h, b) = block(1, BlockHash::ZERO, 1);
        store.insert(h, b);
        assert!(!store.is_notarized(&h));
        store.mark_notarized(h, None);
        assert!(store.is_notarized(&h));
        assert!(store.notarization(&h).is_none(), "no cert retained");
    }

    #[test]
    fn chain_walk_ascending() {
        let mut store = BlockStore::new();
        let (h1, b1) = block(1, BlockHash::ZERO, 1);
        let (h2, b2) = block(2, h1, 2);
        let (h3, b3) = block(3, h2, 3);
        store.insert(h1, b1);
        store.insert(h2, b2);
        store.insert(h3, b3);

        let chain = store.chain_to(&h3, Round::GENESIS).unwrap();
        assert_eq!(
            chain.iter().map(|(h, _)| *h).collect::<Vec<_>>(),
            vec![h1, h2, h3]
        );

        // Stop after round 1: only rounds 2..=3.
        let chain = store.chain_to(&h3, Round(1)).unwrap();
        assert_eq!(
            chain.iter().map(|(h, _)| *h).collect::<Vec<_>>(),
            vec![h2, h3]
        );
    }

    #[test]
    fn chain_walk_detects_missing_ancestor() {
        let mut store = BlockStore::new();
        let (h1, b1) = block(1, BlockHash::ZERO, 1);
        let (h2, b2) = block(2, h1, 2);
        // h1 never inserted.
        store.insert(h2, b2.clone());
        assert!(store.chain_to(&h2, Round::GENESIS).is_none());
        store.insert(h1, b1);
        assert!(store.chain_to(&h2, Round::GENESIS).is_some());
    }

    #[test]
    fn finalization_chain() {
        let mut store = BlockStore::new();
        let (h1, b1) = block(1, BlockHash::ZERO, 1);
        store.insert(h1, b1);
        store.mark_finalized(Round(1), h1);
        assert!(store.is_finalized(Round(1), &h1));
        assert!(store.is_notarized(&h1), "finalized implies notarized");
        assert_eq!(store.max_finalized_round(), Round(1));
    }

    #[test]
    fn prune_keeps_finalized_chain() {
        let mut store = BlockStore::new();
        let (h1, b1) = block(1, BlockHash::ZERO, 1);
        let (h1b, b1b) = block(1, BlockHash::ZERO, 9); // fork at round 1
        let (h2, b2) = block(2, h1, 2);
        store.insert(h1, b1);
        store.insert(h1b, b1b);
        store.insert(h2, b2);
        store.mark_finalized(Round(1), h1);

        store.prune_below(Round(2));
        assert!(store.contains(&h1), "finalized block survives pruning");
        assert!(!store.contains(&h1b), "losing fork pruned");
        assert!(store.contains(&h2), "rounds at/after cutoff survive");
        assert!(
            store.round_blocks(Round(1)).is_empty(),
            "round index pruned"
        );
    }

    #[test]
    fn retention_plateaus_store_size_on_long_runs() {
        // A "long run": 10_000 rounds, one block finalized per round, with a
        // losing fork every 4th round. Without retention the maps grow
        // without bound; with a 64-round window the resident set plateaus.
        let mut store = BlockStore::with_retention(64);
        let mut unbounded = BlockStore::new();
        let mut parent = BlockHash::ZERO;
        let mut peak = 0usize;
        for round in 1..=10_000u64 {
            let (h, b) = block(round, parent, 1);
            store.insert(h, b.clone());
            unbounded.insert(h, b);
            if round % 4 == 0 {
                let (hf, bf) = block(round, parent, 7);
                store.insert(hf, bf.clone());
                unbounded.insert(hf, bf);
            }
            store.mark_finalized(Round(round), h);
            unbounded.mark_finalized(Round(round), h);
            parent = h;
            peak = peak.max(store.len());
        }
        assert!(unbounded.len() >= 10_000, "control store grows unboundedly");
        // The window spans 65 live rounds at ≤ 2 blocks each.
        assert!(peak <= 130, "retained store plateaus (peak {peak} blocks)");
        assert_eq!(
            store.max_finalized_round(),
            Round(10_000),
            "frontier survives pruning"
        );
        assert!(
            store.finalized(Round(1)).is_none(),
            "ancient finalized entries dropped under retention"
        );
    }

    #[test]
    fn snapshot_restore_round_trips_bit_identically() {
        let mut store = BlockStore::new();
        let (h1, b1) = block(1, BlockHash::ZERO, 1);
        let (h2, b2) = block(2, h1, 2);
        let (h2b, b2b) = block(2, h1, 9);
        store.insert(h1, b1);
        store.insert(h2, b2);
        store.insert(h2b, b2b);
        store.mark_notarized(h1, None);
        store.mark_notarized(h2, None);
        store.mark_finalized(Round(1), h1);

        let snap = store.snapshot();
        let mut recovered = BlockStore::new();
        recovered.restore(&snap);
        assert_eq!(recovered.snapshot().to_bytes(), snap.to_bytes());
        assert_eq!(recovered.len(), store.len());
        assert_eq!(recovered.max_finalized_round(), Round(1));
        assert!(recovered.is_notarized(&h2));
        assert!(recovered.is_finalized(Round(1), &h1));

        // Restore over a dirty store discards the old contents.
        let mut dirty = BlockStore::new();
        let (hx, bx) = block(5, BlockHash::ZERO, 42);
        dirty.insert(hx, bx);
        dirty.restore(&snap);
        assert!(!dirty.contains(&hx));
        assert_eq!(dirty.snapshot().to_bytes(), snap.to_bytes());
    }

    #[test]
    fn works_through_the_chain_store_trait_object() {
        let mut boxed: Box<dyn ChainStore> = Box::new(BlockStore::new());
        let (h1, b1) = block(1, BlockHash::ZERO, 1);
        assert!(boxed.insert(h1, b1));
        boxed.mark_finalized(Round(1), h1);
        assert_eq!(boxed.max_finalized_round(), Round(1));
        assert_eq!(boxed.wal_bytes(), 0);
        boxed.sync();
        let snap = boxed.snapshot();
        assert_eq!(snap.blocks.len(), 1);
    }
}
