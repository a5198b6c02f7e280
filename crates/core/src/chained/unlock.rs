//! Fast votes and the *unlock* machinery — the heart of Banyan
//! (Definitions 6.2, 7.1–7.7 of the paper).
//!
//! Per round, a replica tracks the **support** `supp(b)` of every block:
//! the set of replicas it received a fast vote from, either individually
//! (broadcast `Votes` messages) or certified inside an [`UnlockProof`].
//! From the support table it evaluates Definition 7.6:
//!
//! 1. a block `b` is **unlocked** when
//!    `|supp(b) ∪ supp(nonLeaderBlocks)| > f + p`;
//! 2. when `|supp(nonMaxBlocks)| > f + p`, **all** current and future
//!    blocks of the round are unlocked (`max` being the best-supported
//!    rank-0 block).
//!
//! The same table yields FP-finalization (`n − p` fast votes for a rank-0
//! block, Addition 4) and unlock-proof construction (Definition 7.7).
//!
//! Unlock proofs arrive many times over (every `Advance`, every relayed
//! proposal), almost always restating support the table already holds.
//! [`UnlockState::merge_proof_with`] therefore asks *novelty before
//! signature*: only an aggregate naming a voter not yet in `supp(b)` can
//! change the table, so only those are verified — and only verified
//! aggregates are ever stored.

use std::collections::{BTreeMap, HashMap};

use banyan_crypto::registry::PublicKeyTable;
use banyan_crypto::{AggregateSignature, Signature, SignerBitmap};
use banyan_types::certs::{UnlockEntry, UnlockProof};
use banyan_types::ids::{BlockHash, Rank, ReplicaId, Round};
use banyan_types::vote::{Vote, VoteKind};

/// Per-block support record.
#[derive(Clone, Debug)]
struct Support {
    /// Individually received fast-vote signatures, by voter.
    indiv: BTreeMap<u16, Signature>,
    /// Certified support adopted from unlock proofs / certificates. Only
    /// an aggregate that named a voter not yet in `voters` is kept.
    certified: Vec<AggregateSignature>,
    /// `supp(b)`: the union of `indiv`'s voters and every certified
    /// bitmap, restricted to replicas below `n`.
    voters: SignerBitmap,
}

impl Support {
    fn new(n: usize) -> Self {
        Support {
            indiv: BTreeMap::new(),
            certified: Vec::new(),
            voters: SignerBitmap::new(n),
        }
    }
}

/// One round's fast-vote table and unlock status.
#[derive(Clone, Debug)]
pub struct UnlockState {
    round: Round,
    n: usize,
    /// `> threshold` support unlocks (threshold = f + p).
    threshold: usize,
    support: HashMap<BlockHash, Support>,
    /// Rank of each block support refers to (from the block itself or from
    /// proof entries). Blocks with unknown rank are not counted by the
    /// unlock conditions — Definition 7.1 only ranges over received
    /// blocks.
    ranks: HashMap<BlockHash, Rank>,
    /// Sticky flag for condition 2 ("all current and future blocks ...
    /// are unlocked").
    all_unlocked: bool,
}

impl UnlockState {
    /// Fresh table for one round.
    pub fn new(round: Round, n: usize, threshold: usize) -> Self {
        UnlockState {
            round,
            n,
            threshold,
            support: HashMap::new(),
            ranks: HashMap::new(),
            all_unlocked: false,
        }
    }

    /// Records the rank of a block (when the block itself arrives, or when
    /// an unlock-proof entry declares it).
    pub fn observe_block(&mut self, hash: BlockHash, rank: Rank) {
        self.ranks.entry(hash).or_insert(rank);
    }

    /// Adds an individually received fast vote. Returns `true` if new.
    pub fn add_fast_vote(&mut self, block: BlockHash, voter: ReplicaId, sig: Signature) -> bool {
        let in_range = (voter.0 as usize) < self.n;
        let entry = self.support_mut(block);
        if in_range {
            entry.voters.set(voter.0);
        }
        entry.indiv.insert(voter.0, sig).is_none()
    }

    fn support_mut(&mut self, block: BlockHash) -> &mut Support {
        let n = self.n;
        self.support.entry(block).or_insert_with(|| Support::new(n))
    }

    /// True if `agg` names a replica not yet in `supp(block)` — the only
    /// way certified support can change this table.
    fn adds_voter(&self, block: &BlockHash, agg: &AggregateSignature) -> bool {
        match self.support.get(block) {
            Some(s) => s.voters.lacks_any_of(&agg.signers),
            None => SignerBitmap::new(self.n).lacks_any_of(&agg.signers),
        }
    }

    /// Adopts certified support (an unlock-proof entry or fast cert): the
    /// block's rank if it was unknown, and the aggregate if it adds a
    /// voter (one that adds none is dropped). Returns `true` if either
    /// was new. The caller vouches for `agg`'s signature.
    pub fn add_certified(
        &mut self,
        block: BlockHash,
        rank: Rank,
        agg: &AggregateSignature,
    ) -> bool {
        let new_rank = !self.ranks.contains_key(&block);
        self.observe_block(block, rank);
        let adds_voter = self.adds_voter(&block, agg);
        if adds_voter {
            let entry = self.support_mut(block);
            entry.voters.union_with(&agg.signers);
            entry.certified.push(agg.clone());
        }
        new_rank || adds_voter
    }

    /// `|supp(b)|` — distinct replicas supporting `b`.
    pub fn supp(&self, block: &BlockHash) -> usize {
        self.support.get(block).map_or(0, |s| s.voters.count())
    }

    /// Distinct replicas supporting any block in `blocks`.
    fn supp_union<'a>(&self, blocks: impl Iterator<Item = &'a BlockHash>) -> usize {
        let mut bm = SignerBitmap::new(self.n);
        for b in blocks {
            if let Some(s) = self.support.get(b) {
                bm.union_with(&s.voters);
            }
        }
        bm.count()
    }

    /// `max(k)`: among known rank-0 blocks, the one with the largest
    /// support (Definition 7.2). Ties break on the smaller hash so every
    /// replica picks deterministically.
    pub fn max_block(&self) -> Option<BlockHash> {
        self.ranks
            .iter()
            .filter(|(_, r)| r.is_leader())
            .map(|(h, _)| (*h, self.supp(h)))
            .max_by(|(ha, sa), (hb, sb)| sa.cmp(sb).then_with(|| hb.cmp(ha)))
            .map(|(h, _)| h)
    }

    /// Evaluates Definition 7.6 for `block`. `true` if unlocked.
    ///
    /// Condition 2, once satisfied, covers all current **and future**
    /// blocks of the round (the flag is sticky).
    pub fn is_unlocked(&mut self, block: &BlockHash) -> bool {
        if self.all_unlocked {
            return true;
        }
        // Condition 2 first (it may be newly satisfied).
        let max = self.max_block();
        let non_max: Vec<&BlockHash> = self.ranks.keys().filter(|h| Some(**h) != max).collect();
        if self.supp_union(non_max.into_iter()) > self.threshold {
            self.all_unlocked = true;
            return true;
        }
        // Condition 1: supp(b) ∪ supp(nonLeaderBlocks).
        let mut set: Vec<&BlockHash> = self
            .ranks
            .iter()
            .filter(|(_, r)| !r.is_leader())
            .map(|(h, _)| h)
            .collect();
        if self.ranks.contains_key(block) || self.support.contains_key(block) {
            set.push(block);
        }
        self.supp_union(set.into_iter()) > self.threshold
    }

    /// True once condition 2 fired for this round.
    pub fn round_fully_unlocked(&self) -> bool {
        self.all_unlocked
    }

    /// A rank-0 block with at least `quorum` fast votes, if any
    /// (Addition 4: FP-finalization).
    pub fn fast_finalizable(&self, quorum: usize) -> Option<BlockHash> {
        self.ranks
            .iter()
            .filter(|(_, r)| r.is_leader())
            .map(|(h, _)| *h)
            .find(|h| self.supp(h) >= quorum)
    }

    /// Builds an aggregate over the individually held fast votes for
    /// `block` (for FP-finalization certificates).
    pub fn aggregate_indiv(&self, table: &PublicKeyTable, block: &BlockHash) -> AggregateSignature {
        let votes: Vec<(u16, Signature)> = self
            .support
            .get(block)
            .map(|s| s.indiv.iter().map(|(v, sig)| (*v, *sig)).collect())
            .unwrap_or_default();
        table.aggregate(&votes)
    }

    /// Number of individually held fast votes for `block`.
    pub fn indiv_count(&self, block: &BlockHash) -> usize {
        self.support.get(block).map_or(0, |s| s.indiv.len())
    }

    /// Builds an unlock proof covering the whole round's support
    /// (Definition 7.7, naive variant): one entry per (block, source),
    /// individual votes aggregated plus certified aggregates passed
    /// through.
    pub fn build_proof(&self, table: &PublicKeyTable) -> UnlockProof {
        let mut entries = Vec::new();
        // Deterministic order: sort blocks by hash.
        let mut blocks: Vec<&BlockHash> = self.support.keys().collect();
        blocks.sort();
        for hash in blocks {
            let Some(rank) = self.ranks.get(hash) else {
                continue; // support for a block we can't rank is unusable
            };
            let s = &self.support[hash];
            if !s.indiv.is_empty() {
                let votes: Vec<(u16, Signature)> =
                    s.indiv.iter().map(|(v, sig)| (*v, *sig)).collect();
                entries.push(UnlockEntry {
                    block: *hash,
                    rank: *rank,
                    agg: table.aggregate(&votes),
                });
            }
            for agg in &s.certified {
                entries.push(UnlockEntry {
                    block: *hash,
                    rank: *rank,
                    agg: agg.clone(),
                });
            }
        }
        UnlockProof {
            round: self.round,
            entries,
        }
    }

    /// Merges an unlock proof's support into this table, verifying the
    /// aggregates that can change it. Returns `true` iff support or a
    /// rank was added. `false` therefore does *not* mean "rejected": a
    /// rejected proof (which merges nothing) and an accepted proof that
    /// restates what the table already holds both return it — callers
    /// need to know whether to re-evaluate their rules, not why not.
    ///
    /// Rank claims for blocks we have received are cross-checked; claims
    /// for unknown blocks are accepted as-is (the paper defers compact
    /// worst-case proofs to future work; a lying rank claim can only
    /// *delay* unlocking, never violate safety, because unlocking gates
    /// extension, not finalization).
    pub fn merge_proof(&mut self, proof: &UnlockProof, table: &PublicKeyTable) -> bool {
        self.merge_proof_with(proof, |msg, agg| table.verify_aggregate(msg, agg))
    }

    /// [`UnlockState::merge_proof`] with a caller-supplied aggregate
    /// verifier, so engines can route the check through an instrumented
    /// [`banyan_crypto::VerifyBackend`] (batched, cached, counted) instead
    /// of the raw key table.
    ///
    /// Novelty before signature: every entry's rank is cross-checked, but
    /// only an entry naming a voter not already in `supp(block)` is
    /// verified — any other is dropped by [`UnlockState::add_certified`]
    /// whatever its signature says, so checking it buys nothing. The
    /// proof is rejected whole (nothing merged) if the round is wrong, a
    /// rank claim contradicts a known block, or any entry it needed fails
    /// verification; a forged entry that adds no voter is simply ignored.
    /// Ranks are still learned from every entry of an accepted proof —
    /// the signed message never covered them.
    pub fn merge_proof_with(
        &mut self,
        proof: &UnlockProof,
        verify_aggregate: impl Fn(&[u8], &AggregateSignature) -> bool,
    ) -> bool {
        if proof.round != self.round {
            return false;
        }
        for entry in &proof.entries {
            let known = self.ranks.get(&entry.block);
            if known.is_some_and(|known| *known != entry.rank) {
                return false;
            }
            if self.adds_voter(&entry.block, &entry.agg) {
                let msg = Vote::signing_message(VoteKind::Fast, proof.round, &entry.block);
                if !verify_aggregate(&msg, &entry.agg) {
                    return false;
                }
            }
        }
        let mut changed = false;
        for entry in &proof.entries {
            changed |= self.add_certified(entry.block, entry.rank, &entry.agg);
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banyan_crypto::hashsig::HashSig;
    use banyan_crypto::registry::KeyRegistry;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::sync::Arc;

    /// n = 4, f = 1, p = 1 ⇒ threshold f + p = 2, fast quorum n − p = 3.
    fn state() -> UnlockState {
        UnlockState::new(Round(1), 4, 2)
    }

    fn hash(tag: u8) -> BlockHash {
        BlockHash([tag; 32])
    }

    fn registries(n: usize) -> Vec<KeyRegistry> {
        (0..n)
            .map(|i| KeyRegistry::generate(Arc::new(HashSig), 5, n, i as u16))
            .collect()
    }

    fn fast_vote(reg: &KeyRegistry, round: Round, block: BlockHash) -> Vote {
        let msg = Vote::signing_message(VoteKind::Fast, round, &block);
        Vote {
            kind: VoteKind::Fast,
            round,
            block,
            voter: ReplicaId(reg.my_index()),
            signature: reg.sign(&msg),
        }
    }

    /// A proof entry carrying real fast votes from `voters` for `block`.
    fn entry(regs: &[KeyRegistry], block: BlockHash, rank: Rank, voters: &[usize]) -> UnlockEntry {
        let votes: Vec<(u16, Signature)> = voters
            .iter()
            .map(|&i| {
                let v = fast_vote(&regs[i], Round(1), block);
                (v.voter.0, v.signature)
            })
            .collect();
        UnlockEntry {
            block,
            rank,
            agg: regs[0].table().aggregate(&votes),
        }
    }

    fn proof(entries: Vec<UnlockEntry>) -> UnlockProof {
        UnlockProof {
            round: Round(1),
            entries,
        }
    }

    /// A receiver that observed `b0` at rank 0 and individually holds real
    /// fast votes for it from replicas 0, 1 and 2.
    fn receiver_holding_b0(regs: &[KeyRegistry], b0: BlockHash) -> UnlockState {
        let mut s = state();
        s.observe_block(b0, Rank(0));
        for reg in regs.iter().take(3) {
            let v = fast_vote(reg, Round(1), b0);
            s.add_fast_vote(v.block, v.voter, v.signature);
        }
        s
    }

    /// Merges through the real key table, counting verifier calls.
    fn merge_counting(s: &mut UnlockState, proof: &UnlockProof, calls: &Cell<usize>) -> bool {
        let table = registries(4)[0].table().clone();
        s.merge_proof_with(proof, |msg, agg| {
            calls.set(calls.get() + 1);
            table.verify_aggregate(msg, agg)
        })
    }

    #[test]
    fn condition1_unlocks_well_supported_leader_block() {
        let mut s = state();
        let b0 = hash(1);
        s.observe_block(b0, Rank(0));
        // 2 votes: not > 2 yet.
        s.add_fast_vote(b0, ReplicaId(0), Signature::zero());
        s.add_fast_vote(b0, ReplicaId(1), Signature::zero());
        assert!(!s.is_unlocked(&b0));
        // 3rd vote: supp = 3 > 2 → unlocked.
        s.add_fast_vote(b0, ReplicaId(2), Signature::zero());
        assert!(s.is_unlocked(&b0));
        assert!(!s.round_fully_unlocked(), "condition 2 not triggered");
    }

    #[test]
    fn condition1_counts_nonleader_support_for_any_block() {
        // Figure 4, round k: r-0 block with 2 FaV, r-1 block with 1 FaV:
        // supp(b0) ∪ supp(nonLeader) = 3 > 2 → r-0 block unlocked.
        let mut s = state();
        let b0 = hash(1);
        let b1 = hash(2);
        s.observe_block(b0, Rank(0));
        s.observe_block(b1, Rank(1));
        s.add_fast_vote(b0, ReplicaId(0), Signature::zero());
        s.add_fast_vote(b0, ReplicaId(1), Signature::zero());
        s.add_fast_vote(b1, ReplicaId(2), Signature::zero());
        assert!(s.is_unlocked(&b0));
        // The non-leader block only has supp ∪ nonLeader = {2} ∪ {2} = 1.
        // But wait: supp(nonLeaderBlocks) = {2}; supp(b1) ∪ that = {2}.
        assert!(!s.is_unlocked(&b1));
    }

    #[test]
    fn condition2_unlocks_everything_including_future_blocks() {
        // Figure 4, round k+1: two rank-0 blocks (equivocating leader),
        // 2 FaV each. max = one of them; nonMax support = 2... need > 2.
        // Add a third vote on the non-max one.
        let mut s = state();
        let a = hash(1);
        let b = hash(2);
        s.observe_block(a, Rank(0));
        s.observe_block(b, Rank(0));
        s.add_fast_vote(a, ReplicaId(0), Signature::zero());
        s.add_fast_vote(a, ReplicaId(1), Signature::zero());
        s.add_fast_vote(b, ReplicaId(2), Signature::zero());
        s.add_fast_vote(b, ReplicaId(3), Signature::zero());
        // supports equal (2/2): max breaks tie deterministically; nonMax
        // has supp 2, not > 2.
        assert!(!s.is_unlocked(&a) || s.max_block() == Some(a));
        assert!(!s.round_fully_unlocked());
        // Double-voters push BOTH blocks to support 3. Whichever block is
        // `max`, the other (non-max) now has supp 3 > 2 → condition 2.
        s.add_fast_vote(a, ReplicaId(2), Signature::zero());
        s.add_fast_vote(b, ReplicaId(1), Signature::zero());
        assert!(s.is_unlocked(&a));
        assert!(s.is_unlocked(&b));
        assert!(s.round_fully_unlocked());
        // A block that appears later is unlocked immediately.
        let c = hash(9);
        s.observe_block(c, Rank(3));
        assert!(s.is_unlocked(&c));
    }

    #[test]
    fn max_block_prefers_higher_support() {
        let mut s = state();
        let a = hash(1);
        let b = hash(2);
        s.observe_block(a, Rank(0));
        s.observe_block(b, Rank(0));
        s.add_fast_vote(b, ReplicaId(0), Signature::zero());
        assert_eq!(s.max_block(), Some(b));
        s.add_fast_vote(a, ReplicaId(1), Signature::zero());
        s.add_fast_vote(a, ReplicaId(2), Signature::zero());
        assert_eq!(s.max_block(), Some(a));
    }

    #[test]
    fn fast_finalizable_needs_rank0_and_quorum() {
        let mut s = state();
        let b0 = hash(1);
        let b1 = hash(2);
        s.observe_block(b0, Rank(0));
        s.observe_block(b1, Rank(1));
        for i in 0..3 {
            s.add_fast_vote(b1, ReplicaId(i), Signature::zero());
        }
        // b1 has 3 votes but is not rank 0.
        assert_eq!(s.fast_finalizable(3), None);
        for i in 0..2 {
            s.add_fast_vote(b0, ReplicaId(i), Signature::zero());
        }
        assert_eq!(s.fast_finalizable(3), None, "2 < quorum 3");
        s.add_fast_vote(b0, ReplicaId(3), Signature::zero());
        assert_eq!(s.fast_finalizable(3), Some(b0));
    }

    #[test]
    fn duplicate_votes_counted_once() {
        let mut s = state();
        let b = hash(1);
        s.observe_block(b, Rank(0));
        assert!(s.add_fast_vote(b, ReplicaId(0), Signature::zero()));
        assert!(!s.add_fast_vote(b, ReplicaId(0), Signature::zero()));
        assert_eq!(s.supp(&b), 1);
    }

    #[test]
    fn byzantine_double_votes_count_per_block() {
        // A Byzantine replica fast-voting two blocks appears in both
        // supports (Definition 7.1 allows this; Lemma 8.1 relies on it).
        let mut s = state();
        let a = hash(1);
        let b = hash(2);
        s.observe_block(a, Rank(0));
        s.observe_block(b, Rank(0));
        s.add_fast_vote(a, ReplicaId(0), Signature::zero());
        s.add_fast_vote(b, ReplicaId(0), Signature::zero());
        assert_eq!(s.supp(&a), 1);
        assert_eq!(s.supp(&b), 1);
    }

    #[test]
    fn proof_roundtrip_with_real_signatures() {
        let regs = registries(4);
        let table = regs[0].table().clone();
        let round = Round(1);
        let b0 = hash(1);

        // Replica 3 collects 3 real fast votes for the leader block.
        let mut s = state();
        s.observe_block(b0, Rank(0));
        for reg in regs.iter().take(3) {
            let v = fast_vote(reg, round, b0);
            assert!(s.add_fast_vote(v.block, v.voter, v.signature));
        }
        assert!(s.is_unlocked(&b0));
        let proof = s.build_proof(&table);
        assert_eq!(proof.round, round);
        assert_eq!(proof.total_votes(), 3);

        // A fresh replica verifies and merges the proof; the block
        // unlocks for it too.
        let mut fresh = state();
        assert!(fresh.merge_proof(&proof, &table));
        assert_eq!(fresh.supp(&b0), 3);
        assert!(fresh.is_unlocked(&b0));
    }

    #[test]
    fn tampered_proof_rejected() {
        let regs = registries(4);
        let table = regs[0].table().clone();
        let round = Round(1);
        let b0 = hash(1);
        let mut s = state();
        s.observe_block(b0, Rank(0));
        for reg in regs.iter().take(3) {
            let v = fast_vote(reg, round, b0);
            s.add_fast_vote(v.block, v.voter, v.signature);
        }
        let mut proof = s.build_proof(&table);
        // Claim an extra signer that never voted.
        proof.entries[0].agg.signers.set(3);
        let mut fresh = state();
        assert!(!fresh.merge_proof(&proof, &table));
        assert_eq!(fresh.supp(&b0), 0, "nothing merged from a bad proof");
        assert!(!fresh.ranks.contains_key(&b0), "nor its rank learned");
    }

    #[test]
    fn proof_for_wrong_round_rejected() {
        let regs = registries(4);
        let table = regs[0].table().clone();
        let b0 = hash(1);
        let mut s = UnlockState::new(Round(2), 4, 2);
        s.observe_block(b0, Rank(0));
        let v = fast_vote(&regs[0], Round(2), b0);
        s.add_fast_vote(v.block, v.voter, v.signature);
        let proof = s.build_proof(&table);
        assert_eq!(proof.total_votes(), 1);
        let mut other = state(); // round 1
        assert!(!other.merge_proof(&proof, &table));
        // `false` alone could be a redundant proof; rejection is that
        // nothing of it was merged.
        assert_eq!(other.supp(&b0), 0);
        assert!(!other.ranks.contains_key(&b0));
    }

    #[test]
    fn rank_mismatch_rejected_when_block_known() {
        let regs = registries(4);
        let table = regs[0].table().clone();
        let round = Round(1);
        let b0 = hash(1);
        let mut s = state();
        s.observe_block(b0, Rank(0));
        let v = fast_vote(&regs[0], round, b0);
        s.add_fast_vote(v.block, v.voter, v.signature);
        let mut proof = s.build_proof(&table);
        proof.entries[0].rank = Rank(2); // lie about the rank

        let mut fresh = state();
        fresh.observe_block(b0, Rank(0)); // fresh replica has the block
        assert!(!fresh.merge_proof(&proof, &table));
        assert_eq!(fresh.supp(&b0), 0, "the honest signature was not merged");
    }

    #[test]
    fn certified_support_counts_toward_unlock() {
        let regs = registries(4);
        let table = regs[0].table().clone();
        let round = Round(1);
        let b0 = hash(1);
        let votes: Vec<(u16, Signature)> = regs
            .iter()
            .take(3)
            .map(|r| {
                let v = fast_vote(r, round, b0);
                (v.voter.0, v.signature)
            })
            .collect();
        let agg = table.aggregate(&votes);

        let mut s = state();
        s.add_certified(b0, Rank(0), &agg);
        assert_eq!(s.supp(&b0), 3);
        assert!(s.is_unlocked(&b0));
        // Redundant aggregate adding no voters is dropped.
        let small = table.aggregate(&votes[..1]);
        s.add_certified(b0, Rank(0), &small);
        assert_eq!(s.supp(&b0), 3);
    }

    #[test]
    fn entry_already_counted_is_not_verified_and_the_proof_still_merges() {
        let regs = registries(4);
        let (b0, b1) = (hash(1), hash(2));
        let mut s = receiver_holding_b0(&regs, b0);
        let relayed = proof(vec![
            entry(&regs, b0, Rank(0), &[0, 1, 2]), // all three already counted
            entry(&regs, b1, Rank(1), &[3]),       // new block, new voter
        ]);
        let calls = Cell::new(0);
        assert!(merge_counting(&mut s, &relayed, &calls));
        assert_eq!(
            calls.get(),
            1,
            "only the entry that adds a voter is verified"
        );
        assert_eq!((s.supp(&b0), s.supp(&b1)), (3, 1));
        // The same proof relayed again costs no verification at all.
        assert!(!merge_counting(&mut s, &relayed, &calls));
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn forged_entry_that_adds_a_voter_rejects_the_whole_proof() {
        let regs = registries(4);
        let (b0, b1) = (hash(1), hash(2));
        let mut s = receiver_holding_b0(&regs, b0);
        let mut forged = entry(&regs, b0, Rank(0), &[0, 1]);
        forged.agg.signers.set(3); // claims a voter we do not count yet
        let relayed = proof(vec![entry(&regs, b1, Rank(1), &[3]), forged]);
        let calls = Cell::new(0);
        assert!(!merge_counting(&mut s, &relayed, &calls));
        assert_eq!(calls.get(), 2, "both entries could add a voter");
        assert_eq!((s.supp(&b0), s.supp(&b1)), (3, 0), "nothing merged");
        assert!(
            !s.ranks.contains_key(&b1),
            "the honest entry's rank was not learned either"
        );
    }

    #[test]
    fn forged_entry_that_adds_no_voter_is_ignored() {
        let regs = registries(4);
        let (b0, b1) = (hash(1), hash(2));
        let table = regs[0].table().clone();
        let mut s = receiver_holding_b0(&regs, b0);
        let mut forged = entry(&regs, b0, Rank(0), &[0]);
        forged.agg.signers.set(1); // invalid, but names only counted voters
        let msg = Vote::signing_message(VoteKind::Fast, Round(1), &b0);
        assert!(!table.verify_aggregate(&msg, &forged.agg));
        let relayed = proof(vec![forged, entry(&regs, b1, Rank(1), &[3])]);
        let calls = Cell::new(0);
        assert!(merge_counting(&mut s, &relayed, &calls));
        assert_eq!(calls.get(), 1, "the forged entry was never looked at");
        assert_eq!((s.supp(&b0), s.supp(&b1)), (3, 1));
        // It was not stored: everything we would relay verifies.
        for e in &s.build_proof(&table).entries {
            let msg = Vote::signing_message(VoteKind::Fast, Round(1), &e.block);
            assert!(table.verify_aggregate(&msg, &e.agg));
        }
    }

    #[test]
    fn rank_mismatch_rejects_even_a_redundant_entry() {
        let regs = registries(4);
        let (b0, b1) = (hash(1), hash(2));
        let mut s = receiver_holding_b0(&regs, b0);
        let relayed = proof(vec![
            entry(&regs, b1, Rank(1), &[3]),
            entry(&regs, b0, Rank(2), &[0]), // redundant support, wrong rank
        ]);
        let calls = Cell::new(0);
        assert!(!merge_counting(&mut s, &relayed, &calls));
        assert_eq!(
            s.supp(&b1),
            0,
            "nothing merged from a proof with a lying rank"
        );
    }

    #[test]
    fn redundant_entry_for_an_unranked_block_still_teaches_the_rank() {
        let regs = registries(4);
        let b0 = hash(1);
        // Votes arrived before the block: support without a rank.
        let mut s = state();
        for reg in regs.iter().take(3) {
            let v = fast_vote(reg, Round(1), b0);
            s.add_fast_vote(v.block, v.voter, v.signature);
        }
        assert_eq!(
            s.fast_finalizable(3),
            None,
            "unranked blocks are not counted"
        );
        let calls = Cell::new(0);
        let relayed = proof(vec![entry(&regs, b0, Rank(0), &[0, 1])]);
        assert!(
            merge_counting(&mut s, &relayed, &calls),
            "a learned rank is a change"
        );
        assert_eq!(calls.get(), 0);
        assert_eq!(s.fast_finalizable(3), Some(b0));
    }

    #[test]
    fn changed_is_true_exactly_when_support_or_a_rank_was_added() {
        let regs = registries(4);
        let (b0, b1) = (hash(1), hash(2));
        let mut s = receiver_holding_b0(&regs, b0);
        let calls = Cell::new(0);
        let merge = |s: &mut UnlockState, entries| merge_counting(s, &proof(entries), &calls);
        // Nothing new: counted voters, known rank; or no entries at all.
        assert!(!merge(&mut s, vec![entry(&regs, b0, Rank(0), &[1, 2])]));
        assert!(!merge(&mut s, vec![]));
        // A new voter for a known block.
        assert!(merge(&mut s, vec![entry(&regs, b0, Rank(0), &[2, 3])]));
        assert_eq!(s.supp(&b0), 4);
        assert!(!merge(&mut s, vec![entry(&regs, b0, Rank(0), &[2, 3])]));
        // A new block: rank and support at once, then nothing.
        assert!(merge(&mut s, vec![entry(&regs, b1, Rank(1), &[0])]));
        assert!(!merge(&mut s, vec![entry(&regs, b1, Rank(1), &[0])]));
        // Rejected proofs change nothing, whatever else they carry.
        let mut forged = entry(&regs, b1, Rank(1), &[0]);
        forged.agg.signers.set(2);
        assert!(!merge(&mut s, vec![forged]));
        assert_eq!(s.supp(&b1), 1);
        let mut wrong_round = proof(vec![entry(&regs, b1, Rank(1), &[1])]);
        wrong_round.round = Round(2);
        assert!(!merge_counting(&mut s, &wrong_round, &calls));
        assert_eq!(s.supp(&b1), 1);
    }

    /// The per-index definition the voter unions replace: a block's
    /// support is recomputed from every individual vote and every kept
    /// aggregate, one replica index at a time.
    struct Model {
        n: usize,
        threshold: usize,
        indiv: HashMap<BlockHash, Vec<u16>>,
        certified: HashMap<BlockHash, Vec<SignerBitmap>>,
        ranks: HashMap<BlockHash, Rank>,
        all_unlocked: bool,
    }

    impl Model {
        fn has_voter(&self, b: &BlockHash, v: u16) -> bool {
            self.indiv.get(b).is_some_and(|vs| vs.contains(&v))
                || self
                    .certified
                    .get(b)
                    .is_some_and(|aggs| aggs.iter().any(|bm| bm.contains(v)))
        }

        fn supp_union(&self, blocks: &[BlockHash]) -> usize {
            (0..self.n as u16)
                .filter(|&v| blocks.iter().any(|b| self.has_voter(b, v)))
                .count()
        }

        fn adds_voter(&self, b: &BlockHash, signers: &SignerBitmap) -> bool {
            signers
                .iter()
                .any(|v| (v as usize) < self.n && !self.has_voter(b, v))
        }

        /// Definition 7.6, evaluated with per-index support.
        fn is_unlocked(&mut self, b: &BlockHash) -> bool {
            if self.all_unlocked {
                return true;
            }
            let max = self
                .ranks
                .iter()
                .filter(|(_, r)| r.is_leader())
                .map(|(h, _)| (*h, self.supp_union(&[*h])))
                .max_by(|(ha, sa), (hb, sb)| sa.cmp(sb).then_with(|| hb.cmp(ha)))
                .map(|(h, _)| h);
            let non_max: Vec<BlockHash> = self
                .ranks
                .keys()
                .filter(|h| Some(**h) != max)
                .copied()
                .collect();
            if self.supp_union(&non_max) > self.threshold {
                self.all_unlocked = true;
                return true;
            }
            let mut set: Vec<BlockHash> = self
                .ranks
                .iter()
                .filter(|(_, r)| !r.is_leader())
                .map(|(h, _)| *h)
                .collect();
            if self.ranks.contains_key(b)
                || self.indiv.contains_key(b)
                || self.certified.contains_key(b)
            {
                set.push(*b);
            }
            self.supp_union(&set) > self.threshold
        }
    }

    /// A bitmap of `width` signers (below, at or beyond `n`) from two
    /// random words, thinned by `sparse` so that aggregates add a voter
    /// or two rather than everyone at once.
    fn bitmap(n: usize, width_sel: u8, w0: u64, w1: u64, sparse: u64) -> SignerBitmap {
        let width = match width_sel % 4 {
            0 | 1 => n,
            2 => n + 3,
            _ => 70,
        };
        SignerBitmap::from_words(vec![w0 & sparse, w1 & sparse], width)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random votes (from voters inside and beyond `n`), rank
        /// sightings and certified aggregates (as wide as `n`, wider, and
        /// wider than one word), the unions answer `supp`, `adds_voter`
        /// and `is_unlocked` exactly as the per-index definition does.
        #[test]
        fn voter_unions_match_the_per_index_definition(
            n in 4usize..10,
            threshold_sel in any::<u8>(),
            ops in proptest::collection::vec(
                (0u8..3, 0u8..4, any::<u8>(), (any::<u64>(), any::<u64>(), any::<u64>())),
                1..40,
            ),
        ) {
            let threshold = 1 + threshold_sel as usize % (n / 2);
            let mut s = UnlockState::new(Round(1), n, threshold);
            let mut m = Model {
                n,
                threshold,
                indiv: HashMap::new(),
                certified: HashMap::new(),
                ranks: HashMap::new(),
                all_unlocked: false,
            };
            let blocks: Vec<BlockHash> = (1..=4).map(hash).collect();
            for (kind, block, a, (w0, w1, sparse)) in ops {
                let b = blocks[block as usize];
                let rank = Rank(u16::from(a % 3));
                match kind {
                    0 => {
                        s.observe_block(b, rank);
                        m.ranks.entry(b).or_insert(rank);
                    }
                    1 => {
                        // Voters up to n + 2: out-of-range ones count nowhere.
                        let voter = u16::from(a) % (n as u16 + 3);
                        s.add_fast_vote(b, ReplicaId(voter), Signature::zero());
                        let vs = m.indiv.entry(b).or_default();
                        if !vs.contains(&voter) {
                            vs.push(voter);
                        }
                    }
                    _ => {
                        let signers = bitmap(n, a, w0, w1, sparse & w0.rotate_left(7));
                        let agg = AggregateSignature { signers: signers.clone(), data: vec![] };
                        let adds = m.adds_voter(&b, &signers);
                        prop_assert_eq!(s.adds_voter(&b, &agg), adds);
                        s.add_certified(b, rank, &agg);
                        m.ranks.entry(b).or_insert(rank);
                        if adds {
                            m.certified.entry(b).or_default().push(signers);
                        }
                    }
                }
                for b in &blocks {
                    prop_assert_eq!(s.supp(b), m.supp_union(&[*b]));
                    let probe = bitmap(n, a.wrapping_add(1), w1, w0, sparse);
                    let agg = AggregateSignature { signers: probe.clone(), data: vec![] };
                    prop_assert_eq!(s.adds_voter(b, &agg), m.adds_voter(b, &probe));
                    prop_assert_eq!(s.is_unlocked(b), m.is_unlocked(b));
                }
            }
        }
    }
}
