//! The lease table: `block → the requests it carries`.
//!
//! A **lease** records that an observed (not yet committed) block carries
//! a set of requests. The table answers the two questions the
//! ancestor-aware drain asks:
//!
//! * *exclusion* — which request ids are leased to a live ancestor of the
//!   block being proposed (those must not be re-batched);
//! * *release* — which leases died when a round-`r` block committed
//!   (every lease at or below `r` belongs to a losing fork or a skipped
//!   round; its requests go back to the pending queue).
//!
//! [`Mempool`](crate::Mempool) embeds the one table there is, so the
//! deterministic (round, block-id) retirement order is stated once.

use std::collections::{BTreeMap, HashMap, HashSet};

use banyan_types::ids::{BlockHash, Round};

use crate::Request;

/// What one observed block holds: its requests, and the parent it
/// extends. Every proposal observed off the wire is uncertified at
/// observe time; the parent is what lets the table tell — the moment a
/// *conflicting* block commits at the parent's round — that the leased
/// block extends a dead fork, and release its requests eagerly instead of
/// stranding them until the next commit sweeps their round.
#[derive(Debug)]
struct Lease {
    parent: BlockHash,
    requests: Vec<Request>,
}

/// Live leases, ordered by `(round, block id)` so retirement sweeps are
/// deterministic.
#[derive(Debug, Default)]
pub(crate) struct LeaseTable {
    /// `(round, block) → the lease the block holds`.
    leases: BTreeMap<(u64, BlockHash), Lease>,
    /// Block → round index into `leases`.
    rounds: HashMap<BlockHash, u64>,
}

impl LeaseTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        LeaseTable::default()
    }

    /// Records that `block` (of `round`, extending `parent`) carries
    /// `requests`. Idempotent per block id; returns `true` when newly
    /// recorded. Empty request lists are not recorded (nothing to exclude
    /// or release).
    pub(crate) fn observe(
        &mut self,
        block: BlockHash,
        round: Round,
        parent: BlockHash,
        requests: Vec<Request>,
    ) -> bool {
        if requests.is_empty() || self.rounds.contains_key(&block) {
            return false;
        }
        self.rounds.insert(block, round.0);
        self.leases
            .insert((round.0, block), Lease { parent, requests });
        true
    }

    /// Drops `block`'s lease and returns its requests, if one is live.
    pub(crate) fn remove(&mut self, block: &BlockHash) -> Option<Vec<Request>> {
        let round = self.rounds.remove(block)?;
        let lease = self
            .leases
            .remove(&(round, *block))
            .expect("lease index and table agree");
        Some(lease.requests)
    }

    /// The requests of the only live lease, if exactly one is live.
    pub(crate) fn sole(&self) -> Option<&[Request]> {
        match self.leases.values().next() {
            Some(lease) if self.leases.len() == 1 => Some(&lease.requests),
            _ => None,
        }
    }

    /// Certificate-conflict sweep: a round-`round` block `committed`
    /// just won its round, so every round-`round + 1` lease whose parent
    /// is a *known round-≤-`round` block other than `committed`* extends a
    /// dead fork and can never commit. Removes those leases and returns
    /// their request lists in block-id order.
    ///
    /// Must run **before** the round-sweep release for `round`: the
    /// losing parent's own live lease is what pins its round here. A
    /// parent whose round is unknown (no live lease — genesis, an empty
    /// block, or a block that already committed at a skipped-past round)
    /// is left alone; the next commit's round sweep still covers it, so
    /// this is strictly an eagerness improvement, never a new loss.
    pub(crate) fn take_conflicting(
        &mut self,
        round: Round,
        committed: &BlockHash,
    ) -> Vec<Vec<Request>> {
        let next = round.0.saturating_add(1);
        let doomed: Vec<BlockHash> = self
            .leases
            .range((next, BlockHash([0x00; 32]))..=(next, BlockHash([0xFF; 32])))
            .filter(|(_, lease)| {
                lease.parent != *committed
                    && self
                        .rounds
                        .get(&lease.parent)
                        .is_some_and(|r| *r <= round.0)
            })
            .map(|((_, block), _)| *block)
            .collect();
        doomed
            .into_iter()
            .map(|block| self.remove(&block).expect("collected above"))
            .collect()
    }

    /// Removes every lease whose round is ≤ `round` — those blocks lost
    /// the fork (or their round was skipped past) once a round-`round`
    /// block committed — returning their request lists in deterministic
    /// (round, block-id) order.
    pub(crate) fn take_at_or_below(&mut self, round: Round) -> Vec<Vec<Request>> {
        let doomed: Vec<(u64, BlockHash)> = self
            .leases
            .range(..=(round.0, BlockHash([0xFF; 32])))
            .map(|(k, _)| *k)
            .collect();
        doomed
            .into_iter()
            .map(|(_, block)| self.remove(&block).expect("collected above"))
            .collect()
    }

    /// The drain-exclusion set of an ancestor chain: every id leased to
    /// one of `ancestors`. A lease on a *competing* fork is deliberately
    /// not excluded — only one fork commits, so batching its requests on
    /// this fork is no duplicate.
    pub(crate) fn exclusions(&self, ancestors: &[BlockHash]) -> HashSet<u64> {
        let mut excluded = HashSet::new();
        if self.leases.is_empty() {
            return excluded;
        }
        for block in ancestors {
            if let Some(requests) = self.get(block) {
                excluded.extend(requests.iter().map(|r| r.id));
            }
        }
        excluded
    }

    /// The leased requests of `block`, if a live lease exists.
    pub(crate) fn get(&self, block: &BlockHash) -> Option<&[Request]> {
        let round = self.rounds.get(block)?;
        self.leases
            .get(&(*round, *block))
            .map(|lease| lease.requests.as_slice())
    }

    /// Number of live leases.
    pub(crate) fn len(&self) -> usize {
        self.leases.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banyan_types::time::Time;

    fn req(id: u64) -> Request {
        Request {
            id,
            client: 0,
            size: 100,
            submitted_at: Time(id),
        }
    }

    fn hash(tag: u8) -> BlockHash {
        BlockHash([tag; 32])
    }

    /// Genesis: a parent nobody leases.
    const ROOT: BlockHash = BlockHash::ZERO;

    #[test]
    fn observe_is_idempotent_and_skips_empty() {
        let mut t = LeaseTable::new();
        assert!(!t.observe(hash(1), Round(1), ROOT, vec![]));
        assert!(t.observe(hash(1), Round(1), ROOT, vec![req(1)]));
        assert!(!t.observe(hash(1), Round(2), ROOT, vec![req(2)]));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&hash(1)).unwrap()[0].id, 1);
    }

    #[test]
    fn take_at_or_below_sweeps_in_round_then_block_order() {
        let mut t = LeaseTable::new();
        t.observe(hash(3), Round(2), ROOT, vec![req(3)]);
        t.observe(hash(1), Round(1), ROOT, vec![req(1)]);
        t.observe(hash(2), Round(2), ROOT, vec![req(2)]);
        t.observe(hash(9), Round(9), ROOT, vec![req(9)]);
        let swept: Vec<u64> = t
            .take_at_or_below(Round(2))
            .into_iter()
            .flatten()
            .map(|r| r.id)
            .collect();
        assert_eq!(swept, [1, 2, 3], "round-major, block-id-minor order");
        assert_eq!(t.len(), 1, "the round-9 lease survives");
        assert!(t.get(&hash(9)).is_some());
    }

    #[test]
    fn exclusions_cover_ancestors_only() {
        let mut t = LeaseTable::new();
        t.observe(hash(1), Round(1), ROOT, vec![req(1), req(2)]);
        t.observe(hash(2), Round(1), ROOT, vec![req(3)]);
        let ex = t.exclusions(&[hash(1)]);
        assert!(ex.contains(&1) && ex.contains(&2));
        assert!(!ex.contains(&3), "competing fork is not excluded");
        assert!(t.exclusions(&[]).is_empty());
    }

    #[test]
    fn provenance_is_recorded_and_cleared_with_the_lease() {
        let mut t = LeaseTable::new();
        t.observe(hash(1), Round(1), ROOT, vec![req(1)]);
        t.observe(hash(2), Round(2), hash(1), vec![req(2)]);
        // Recorded: `hash(7)` winning round 1 dooms the loser's child.
        let mut doomed = t.take_conflicting(Round(1), &hash(7));
        assert_eq!(doomed.len(), 1);
        assert!(t.get(&hash(2)).is_none());
        // Cleared: the same block id, observed again, is judged by the
        // parent it is given now.
        t.observe(hash(2), Round(2), hash(7), doomed.pop().unwrap());
        assert!(t.take_conflicting(Round(1), &hash(7)).is_empty());
        assert!(t.get(&hash(2)).is_some());
    }

    /// Regression: the round sweep used to leave one side-map entry
    /// behind per retired lease, for the life of the replica.
    #[test]
    fn a_retired_lease_leaves_no_per_block_state() {
        let mut t = LeaseTable::new();
        for round in 1..=30u64 {
            let tag = round as u8;
            let (loser, winner, child) = (hash(tag), hash(tag + 50), hash(tag + 100));
            t.observe(loser, Round(round), ROOT, vec![req(round)]);
            t.observe(winner, Round(round), ROOT, vec![req(100 + round)]);
            t.observe(child, Round(round + 1), loser, vec![req(200 + round)]);
            assert!(t.remove(&winner).is_some());
            assert_eq!(t.take_conflicting(Round(round), &winner).len(), 1);
            assert_eq!(t.take_at_or_below(Round(round)).len(), 1);
        }
        assert_eq!(format!("{t:?}"), format!("{:?}", LeaseTable::new()));
    }

    #[test]
    fn take_conflicting_releases_only_dead_fork_children() {
        let mut t = LeaseTable::new();
        // Round 1: winner `hash(1)` (committed, so no live lease) and
        // loser `hash(2)` (live lease pins its round).
        t.observe(hash(2), Round(1), ROOT, vec![req(2)]);
        // Round 2: a child of each, plus a child of genesis.
        t.observe(hash(3), Round(2), hash(1), vec![req(3)]);
        t.observe(hash(4), Round(2), hash(2), vec![req(4)]);
        t.observe(hash(5), Round(2), ROOT, vec![req(5)]);
        let released: Vec<u64> = t
            .take_conflicting(Round(1), &hash(1))
            .into_iter()
            .flatten()
            .map(|r| r.id)
            .collect();
        assert_eq!(released, [4], "only the dead-fork child is released");
        assert!(t.get(&hash(3)).is_some(), "winner's child survives");
        assert!(t.get(&hash(5)).is_some(), "genesis's child survives");
        assert!(
            t.get(&hash(2)).is_some(),
            "the loser itself awaits the round sweep"
        );
    }

    #[test]
    fn take_conflicting_leaves_unknown_round_parents_alone() {
        let mut t = LeaseTable::new();
        // Parent has no live lease, so its round can't be established:
        // it might be a committed skipped-round ancestor. Keep the lease.
        t.observe(hash(4), Round(2), hash(7), vec![req(4)]);
        assert!(t.take_conflicting(Round(1), &hash(1)).is_empty());
        assert!(t.get(&hash(4)).is_some());
    }

    #[test]
    fn remove_is_idempotent() {
        let mut t = LeaseTable::new();
        t.observe(hash(1), Round(1), ROOT, vec![req(1)]);
        assert_eq!(t.remove(&hash(1)).unwrap().len(), 1);
        assert!(t.remove(&hash(1)).is_none());
        assert_eq!(t.len(), 0);
    }
}
