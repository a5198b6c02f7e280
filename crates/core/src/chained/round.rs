//! Per-round bookkeeping for the ICC/Banyan engine.
//!
//! One [`RoundState`] exists per round a replica has heard anything about.
//! It owns the round's vote tables (notarization / finalization) and the
//! fast-vote [`UnlockState`], plus the flags the pseudocode keeps per
//! round: `proposed`, `fastVoteSent`, the `N` set of blocks we
//! notarization-voted for, and whether we already advanced out of the
//! round. The [`VoteTable`] is also the tally HotStuff keeps per view
//! and Streamlet per epoch.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use banyan_crypto::Signature;
use banyan_types::ids::{BlockHash, ReplicaId, Round};
use banyan_types::time::Time;

use super::unlock::UnlockState;

/// Vote accumulator: per block, the individual signatures by voter.
#[derive(Clone, Debug, Default)]
pub struct VoteTable {
    votes: HashMap<BlockHash, BTreeMap<u16, Signature>>,
}

impl VoteTable {
    /// Records a vote; returns `true` if it was new.
    pub fn add(&mut self, block: BlockHash, voter: ReplicaId, sig: Signature) -> bool {
        self.votes
            .entry(block)
            .or_default()
            .insert(voter.0, sig)
            .is_none()
    }

    /// Number of distinct voters for `block`.
    pub fn count(&self, block: &BlockHash) -> usize {
        self.votes.get(block).map_or(0, BTreeMap::len)
    }

    /// The votes for `block` as `(voter, signature)` pairs.
    pub fn votes_for(&self, block: &BlockHash) -> Vec<(u16, Signature)> {
        self.votes
            .get(block)
            .map(|m| m.iter().map(|(v, s)| (*v, *s)).collect())
            .unwrap_or_default()
    }

    /// Blocks with at least `quorum` votes, in no particular order.
    pub fn blocks_with(&self, quorum: usize) -> impl Iterator<Item = &BlockHash> {
        self.votes
            .iter()
            .filter(move |(_, m)| m.len() >= quorum)
            .map(|(h, _)| h)
    }
}

/// Everything a replica tracks about one round.
#[derive(Clone, Debug)]
pub struct RoundState {
    /// Fast-vote support and unlock status (Banyan).
    pub unlock: UnlockState,
    /// Notarization votes received.
    pub notarize_votes: VoteTable,
    /// Finalization votes received.
    pub finalize_votes: VoteTable,
    /// `N`: blocks this replica notarization-voted for (Algorithm 1
    /// line 21).
    pub notarize_voted: BTreeSet<BlockHash>,
    /// `fastVoteSent` (Algorithm 1 line 18).
    pub fast_vote_sent: bool,
    /// `proposed` (Algorithm 1 line 19).
    pub proposed: bool,
    /// Round start time `t0` at this replica; `None` until the round is
    /// entered (messages for future rounds buffer in a stateless way).
    pub t0: Option<Time>,
    /// Ranks for which a `NotarizeRank` timer is already armed.
    pub notarize_timers: HashSet<u16>,
    /// Whether we already sent our finalization vote this round.
    pub finalize_vote_sent: bool,
    /// The proposer's own fast vote attached to each rank-0 block —
    /// required for rank-0 validity in Banyan (Algorithm 2 line 63) and
    /// preserved when relaying the proposal.
    pub leader_fast_votes: HashMap<BlockHash, banyan_types::vote::Vote>,
    /// Blocks this replica has already relayed (tip forwarding dedup).
    pub relayed: HashSet<BlockHash>,
    /// Round has been advanced out of (we moved to round + 1).
    pub advanced: bool,
    /// Every vote this replica broadcast in this round, for heartbeat
    /// retransmission (the engines' recovery path from message loss).
    pub our_votes: Vec<banyan_types::vote::Vote>,
}

impl RoundState {
    /// Fresh state for `round` with unlock threshold `f + p` over `n`
    /// replicas.
    pub fn new(round: Round, n: usize, unlock_threshold: usize) -> Self {
        RoundState {
            unlock: UnlockState::new(round, n, unlock_threshold),
            notarize_votes: VoteTable::default(),
            finalize_votes: VoteTable::default(),
            notarize_voted: BTreeSet::new(),
            fast_vote_sent: false,
            proposed: false,
            t0: None,
            notarize_timers: HashSet::new(),
            finalize_vote_sent: false,
            leader_fast_votes: HashMap::new(),
            relayed: HashSet::new(),
            advanced: false,
            our_votes: Vec::new(),
        }
    }

    /// `N ⊆ {b}` — the finalization-vote condition (Algorithm 2 line 51):
    /// we voted for no block other than `b`.
    pub fn voted_only_for(&self, block: &BlockHash) -> bool {
        self.notarize_voted.iter().all(|h| h == block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(tag: u8) -> BlockHash {
        BlockHash([tag; 32])
    }

    #[test]
    fn vote_table_counts_distinct_voters() {
        let mut t = VoteTable::default();
        assert!(t.add(hash(1), ReplicaId(0), Signature::zero()));
        assert!(!t.add(hash(1), ReplicaId(0), Signature::zero()));
        assert!(t.add(hash(1), ReplicaId(1), Signature::zero()));
        assert_eq!(t.count(&hash(1)), 2);
        assert_eq!(t.count(&hash(2)), 0);
        assert_eq!(t.votes_for(&hash(1)).len(), 2);
    }

    #[test]
    fn blocks_with_filters_by_quorum() {
        let mut t = VoteTable::default();
        for i in 0..3 {
            t.add(hash(2), ReplicaId(i), Signature::zero());
        }
        t.add(hash(1), ReplicaId(0), Signature::zero());
        let with = |quorum| {
            let mut blocks: Vec<BlockHash> = t.blocks_with(quorum).copied().collect();
            blocks.sort();
            blocks
        };
        assert_eq!(with(3), vec![hash(2)]);
        assert_eq!(with(1), vec![hash(1), hash(2)]);
        assert!(with(4).is_empty());
    }

    #[test]
    fn voted_only_for_is_subset_check() {
        let mut rs = RoundState::new(Round(1), 4, 2);
        // Empty N: vacuously true for any block.
        assert!(rs.voted_only_for(&hash(1)));
        rs.notarize_voted.insert(hash(1));
        assert!(rs.voted_only_for(&hash(1)));
        rs.notarize_voted.insert(hash(2));
        assert!(!rs.voted_only_for(&hash(1)));
    }
}
