//! Every piece of relayed evidence is checked once: relays and
//! re-broadcasts of a proposal or an `Advance` the engine has already
//! taken in cost no signature check, and no replay — a `Votes` frame's
//! included — emits anything, while evidence that *is* new is still
//! verified, whichever channel happens to carry it first. Counted
//! through `Engine::verify_stats()`.
//!
//! Blocks are hashed once too: a copy of a held block is recognised by
//! equality, which the payload's commitment memo shows — a copy that was
//! never hashed has none — while a tampered relay and an equivocating
//! leader's second block are hashed and checked.

use std::collections::BTreeSet;
use std::sync::Arc;

use banyan_core::builder::ClusterBuilder;
use banyan_core::chained::{ChainedEngine, PathMode};
use banyan_crypto::beacon::{Beacon, BeaconMode};
use banyan_crypto::hashsig::HashSig;
use banyan_crypto::registry::KeyRegistry;
use banyan_crypto::{AggregateSignature, Signature};
use banyan_simnet::faults::FaultPlan;
use banyan_simnet::sim::{SimConfig, Simulation};
use banyan_simnet::topology::Topology;
use banyan_types::app::FixedSizeSource;
use banyan_types::block::Block;
use banyan_types::certs::{Notarization, UnlockEntry, UnlockProof};
use banyan_types::config::ProtocolConfig;
use banyan_types::engine::{Actions, Engine, Outbound};
use banyan_types::ids::{BlockHash, Rank, ReplicaId, Round};
use banyan_types::message::{ChainedMsg, Message, SyncMsg};
use banyan_types::payload::Payload;
use banyan_types::time::{Duration, Time};
use banyan_types::vote::{Vote, VoteKind};

const CLUSTER_SEED: u64 = 77;

/// A hand-driven cluster of `n` key holders around one real engine.
/// Round-robin beacon: the leader of round `k` is replica `k mod n`.
struct Cluster {
    cfg: ProtocolConfig,
}

impl Cluster {
    fn new(n: usize, f: usize, p: usize) -> Self {
        let cfg = ProtocolConfig::new(n, f, p)
            .unwrap()
            .with_delta(Duration::from_millis(100));
        Cluster { cfg }
    }

    fn n(&self) -> usize {
        self.cfg.n()
    }

    fn registry(&self, i: u16) -> KeyRegistry {
        KeyRegistry::generate(Arc::new(HashSig), CLUSTER_SEED, self.n(), i)
    }

    fn engine(&self, i: u16) -> ChainedEngine {
        ChainedEngine::new(
            self.cfg.clone(),
            PathMode::Banyan,
            self.registry(i),
            Beacon::new(BeaconMode::RoundRobin, self.n()),
            Box::new(FixedSizeSource::new(1_000, i)),
        )
    }

    /// The round leader's signed block on `parent`.
    fn leader_block(&self, round: u64, parent: BlockHash) -> (BlockHash, Block) {
        self.leader_block_with(round, parent, Payload::synthetic(1_000, round))
    }

    /// The round leader's signed block on `parent`, carrying `payload`.
    fn leader_block_with(
        &self,
        round: u64,
        parent: BlockHash,
        payload: Payload,
    ) -> (BlockHash, Block) {
        let proposer = (round % self.n() as u64) as u16;
        let mut block = Block {
            round: Round(round),
            proposer: ReplicaId(proposer),
            rank: Rank(0),
            parent,
            proposed_at: Time(0),
            payload,
            signature: Signature::zero(),
        };
        let hash = block.hash(self.cfg.payload_chunk);
        block.signature = self.registry(proposer).sign(&Block::signing_message(&hash));
        (hash, block)
    }

    fn vote(&self, voter: u16, kind: VoteKind, round: u64, block: BlockHash) -> Vote {
        let msg = Vote::signing_message(kind, Round(round), &block);
        Vote {
            kind,
            round: Round(round),
            block,
            voter: ReplicaId(voter),
            signature: self.registry(voter).sign(&msg),
        }
    }

    fn aggregate(
        &self,
        voters: std::ops::RangeInclusive<u16>,
        kind: VoteKind,
        round: u64,
        block: BlockHash,
    ) -> AggregateSignature {
        let votes: Vec<(u16, Signature)> = voters
            .map(|v| (v, self.vote(v, kind, round, block).signature))
            .collect();
        self.registry(0).table().aggregate(&votes)
    }

    fn notarization(
        &self,
        voters: std::ops::RangeInclusive<u16>,
        round: u64,
        block: BlockHash,
    ) -> Notarization {
        Notarization {
            round: Round(round),
            block,
            agg: self.aggregate(voters, VoteKind::Notarize, round, block),
            fast_agg: None,
        }
    }

    /// An unlock proof with one entry: `voters`' fast votes for the
    /// round's rank-0 `block`.
    fn unlock_proof(
        &self,
        voters: std::ops::RangeInclusive<u16>,
        round: u64,
        block: BlockHash,
    ) -> UnlockProof {
        UnlockProof {
            round: Round(round),
            entries: vec![UnlockEntry {
                block,
                rank: Rank(0),
                agg: self.aggregate(voters, VoteKind::Fast, round, block),
            }],
        }
    }
}

fn sigs(e: &ChainedEngine) -> u64 {
    e.verify_stats().sigs_verified
}

fn votes_frame(votes: Vec<Vote>) -> Message {
    Message::Chained(ChainedMsg::Votes(votes))
}

fn broadcast_votes(actions: &Actions) -> Vec<Vote> {
    actions
        .outbound
        .iter()
        .filter_map(|o| match o {
            Outbound::Broadcast(Message::Chained(ChainedMsg::Votes(v))) => Some(v.clone()),
            _ => None,
        })
        .flatten()
        .collect()
}

/// Delivers `msg` `times` more times, from rotating senders, and asserts
/// that none of the deliveries emits an action. Returns the number of
/// signatures the replays verified.
fn replay_quietly(e: &mut ChainedEngine, n: usize, msg: &Message, times: usize) -> u64 {
    let before = sigs(e);
    for i in 0..times {
        let from = ReplicaId(1 + (i % (n - 1)) as u16);
        let actions = e.on_message(from, msg.clone(), Time(9_000 + i as u64));
        assert!(actions.is_empty(), "replay {i} emitted {actions:?}");
    }
    sigs(e) - before
}

/// [`replay_quietly`], and none of the deliveries verifies a signature.
fn assert_replays_are_free(e: &mut ChainedEngine, n: usize, msg: &Message, times: usize) {
    assert_eq!(
        replay_quietly(e, n, msg, times),
        0,
        "replays of known evidence verified signatures"
    );
}

/// n = 7 (f = 2, p = 1): notarization quorum 5, unlock threshold > 3,
/// fast quorum 6 — five voters notarize and unlock a block without
/// FP-finalizing it, so rounds advance through `Advance`-shaped evidence.
#[test]
fn relayed_proposals_and_advances_are_checked_once_and_replays_emit_nothing() {
    let c = Cluster::new(7, 2, 1);
    let mut e = c.engine(0);
    e.on_init(Time(0));

    // Round 1: the leader's block, then votes from replicas 1..=4.
    let (b1, block1) = c.leader_block(1, BlockHash::ZERO);
    e.on_message(
        ReplicaId(1),
        Message::Chained(ChainedMsg::Proposal {
            block: block1,
            parent_notarization: None,
            parent_unlock: None,
            fast_vote: Some(c.vote(1, VoteKind::Fast, 1, b1)),
        }),
        Time(1_000),
    );
    for v in 1..=4 {
        e.on_message(
            ReplicaId(v),
            votes_frame(vec![
                c.vote(v, VoteKind::Notarize, 1, b1),
                c.vote(v, VoteKind::Fast, 1, b1),
            ]),
            Time(2_000),
        );
    }
    assert_eq!(e.current_round(), Round(2));

    // Round 2: the leader's block as every peer relays it (Algorithm 1
    // line 35) — with the parent's notarization and unlock proof. The
    // proof names replica 5, whose fast vote we have not seen.
    let (b2, block2) = c.leader_block(2, b1);
    let proposal = Message::Chained(ChainedMsg::Proposal {
        block: block2,
        parent_notarization: Some(c.notarization(1..=5, 1, b1)),
        parent_unlock: Some(c.unlock_proof(1..=5, 1, b1)),
        fast_vote: Some(c.vote(2, VoteKind::Fast, 2, b2)),
    });
    let before = sigs(&e);
    let first = e.on_message(ReplicaId(2), proposal.clone(), Time(3_000));
    assert!(
        broadcast_votes(&first).iter().any(|v| v.block == b2),
        "first delivery is voted on"
    );
    // Proposer signature + leader fast vote + the one proof entry that
    // adds a voter (5 signers); the known notarization is not re-checked.
    assert_eq!(sigs(&e) - before, 1 + 1 + 5);
    assert_replays_are_free(&mut e, c.n(), &proposal, 17);

    // The round-2 `Advance` every peer broadcasts on leaving the round.
    let advance = Message::Chained(ChainedMsg::Advance {
        notarization: c.notarization(1..=5, 2, b2),
        unlock: Some(c.unlock_proof(1..=4, 2, b2)),
    });
    let before = sigs(&e);
    e.on_message(ReplicaId(1), advance.clone(), Time(4_000));
    assert_eq!(e.current_round(), Round(3), "first delivery advances us");
    assert_eq!(sigs(&e) - before, 5 + 4);
    assert_replays_are_free(&mut e, c.n(), &advance, 17);

    // A `Votes` frame (a heartbeat re-sends exactly this) replayed 100×
    // changes nothing and emits nothing. Votes are not relayed, so —
    // unlike the two above — duplicates are not filtered ahead of the
    // check: each replay costs the frame's two verifications, no more.
    let frame = votes_frame(vec![
        c.vote(3, VoteKind::Notarize, 2, b2),
        c.vote(3, VoteKind::Fast, 2, b2),
    ]);
    let before = sigs(&e);
    e.on_message(ReplicaId(3), frame.clone(), Time(5_000));
    assert_eq!(sigs(&e) - before, 2);
    assert!(replay_quietly(&mut e, c.n(), &frame, 100) <= 200);
}

/// The novelty test is per piece of evidence, not per message: a relay of
/// an already-stored block can still be the first to carry the leader's
/// fast vote (the block itself came through a sync reply), and that vote
/// must be verified and must make the block valid.
#[test]
fn first_leader_fast_vote_for_a_stored_block_is_still_verified() {
    let c = Cluster::new(4, 1, 1);
    let mut e = c.engine(0);
    e.on_init(Time(0));
    let (b1, block1) = c.leader_block(1, BlockHash::ZERO);

    let actions = e.on_message(
        ReplicaId(2),
        Message::Sync(SyncMsg::Response {
            block: block1.clone(),
        }),
        Time(1_000),
    );
    assert!(e.store().contains(&b1));
    assert!(
        broadcast_votes(&actions).is_empty(),
        "rank-0 block without its proposer's fast vote is not valid"
    );
    assert_eq!(sigs(&e), 1, "proposer signature");

    let relay = |fast_vote| {
        Message::Chained(ChainedMsg::Proposal {
            block: block1.clone(),
            parent_notarization: None,
            parent_unlock: None,
            fast_vote: Some(fast_vote),
        })
    };
    // A forged fast vote on the relay is checked — and rejected.
    let mut forged = c.vote(1, VoteKind::Fast, 1, b1);
    forged.signature.0[0] ^= 0xFF;
    let actions = e.on_message(ReplicaId(3), relay(forged), Time(2_000));
    assert!(broadcast_votes(&actions).is_empty());
    assert_eq!(sigs(&e), 2);

    // The genuine one is checked (the stored block is not) and accepted.
    let genuine = c.vote(1, VoteKind::Fast, 1, b1);
    let actions = e.on_message(ReplicaId(3), relay(genuine), Time(3_000));
    assert_eq!(sigs(&e), 3);
    let cast = broadcast_votes(&actions);
    assert!(
        cast.iter()
            .any(|v| v.kind == VoteKind::Notarize && v.block == b1),
        "the block became valid and was voted on: {cast:?}"
    );
    assert_replays_are_free(&mut e, c.n(), &relay(genuine), 3);
}

/// `block` with its payload bytes copied into a buffer of their own, as a
/// frame decoder hands over every copy it reads: equal bytes, no shared
/// commitment memo.
fn fresh_copy(block: &Block) -> Block {
    let bytes = block.payload.as_inline().expect("an inline payload");
    Block {
        payload: Payload::inline(bytes.to_vec()),
        ..block.clone()
    }
}

fn proposal(block: Block, fast_vote: Option<Vote>) -> Message {
    Message::Chained(ChainedMsg::Proposal {
        block,
        parent_notarization: None,
        parent_unlock: None,
        fast_vote,
    })
}

/// Replica 0 of n = 4 holding round 1's leader block with an inline
/// payload, taken in from its proposer with the leader's fast vote.
fn holding_an_inline_block(c: &Cluster) -> (ChainedEngine, BlockHash, Block) {
    let mut e = c.engine(0);
    e.on_init(Time(0));
    let (b1, block1) = c.leader_block_with(1, BlockHash::ZERO, Payload::inline(vec![0x5A; 4_096]));
    let fast = c.vote(1, VoteKind::Fast, 1, b1);
    e.on_message(
        ReplicaId(1),
        proposal(block1.clone(), Some(fast)),
        Time(1_000),
    );
    assert!(e.store().contains(&b1));
    assert_eq!(sigs(&e), 2, "proposer signature and fast vote");
    (e, b1, block1)
}

/// A relay of a held block, or a sync reply carrying it, arrives in a
/// buffer of its own with equal bytes: the engine recognises it by
/// equality with the stored block and never walks its payload — the
/// payload's commitment memo, seen through a clone kept here, stays
/// empty — nor checks its signature.
#[test]
fn a_relayed_copy_of_a_held_block_is_not_hashed() {
    let c = Cluster::new(4, 1, 1);
    let chunk = c.cfg.payload_chunk;
    let (mut e, b1, block1) = holding_an_inline_block(&c);
    let fast = c.vote(1, VoteKind::Fast, 1, b1);
    let relay = fresh_copy(&block1);
    let reply = fresh_copy(&block1);
    let kept = [relay.payload.clone(), reply.payload.clone()];
    assert!(!kept[0].ptr_eq(&block1.payload));

    let actions = e.on_message(ReplicaId(2), proposal(relay, Some(fast)), Time(2_000));
    assert!(
        actions.is_empty(),
        "a relay of a held block emitted {actions:?}"
    );
    let response = Message::Sync(SyncMsg::Response { block: reply });
    let actions = e.on_message(ReplicaId(3), response, Time(3_000));
    assert!(
        actions.is_empty(),
        "a repeated sync reply emitted {actions:?}"
    );

    for (which, payload) in ["relay", "sync reply"].into_iter().zip(&kept) {
        assert_eq!(
            payload.memoized_commitment(chunk),
            None,
            "the {which} was hashed"
        );
    }
    assert_eq!(sigs(&e), 2, "a copy of a held block verified a signature");
    assert_eq!(e.store().round_blocks(Round(1)), &[b1]);
}

/// A relay can overtake its original: replica 0 gets round 1's block
/// from a relaying peer before the proposer's own copy. The relay, with
/// nothing of its round held, is hashed and its signature checked; the
/// proposer's copy, arriving next in a buffer of its own, is recognised
/// by equality and not hashed — only its fast vote, which is new, is
/// checked.
#[test]
fn a_proposers_copy_that_arrives_after_a_relay_of_it_is_not_hashed() {
    let c = Cluster::new(4, 1, 1);
    let chunk = c.cfg.payload_chunk;
    let mut e = c.engine(0);
    e.on_init(Time(0));
    let (b1, block1) = c.leader_block_with(1, BlockHash::ZERO, Payload::inline(vec![0x5A; 4_096]));
    let (relay, original) = (fresh_copy(&block1), fresh_copy(&block1));
    let kept = [relay.payload.clone(), original.payload.clone()];

    e.on_message(ReplicaId(2), proposal(relay, None), Time(1_000));
    assert!(e.store().contains(&b1), "the relay was not stored");
    assert_eq!(
        kept[0].memoized_commitment(chunk),
        Some(block1.payload.commitment(chunk)),
        "the relay was not hashed"
    );
    assert_eq!(sigs(&e), 1, "the relay's proposer signature");

    let fast = c.vote(1, VoteKind::Fast, 1, b1);
    e.on_message(ReplicaId(1), proposal(original, Some(fast)), Time(2_000));
    assert_eq!(
        kept[1].memoized_commitment(chunk),
        None,
        "the proposer's copy was hashed"
    );
    assert_eq!(sigs(&e), 2, "only the fast vote is new");
    assert_eq!(e.store().round_blocks(Round(1)), &[b1]);
}

/// A relay that keeps the proposer's header and signature but flips one
/// payload byte is not the held block: it is hashed, its signature fails
/// against that hash, and nothing is stored.
#[test]
fn a_relay_with_a_flipped_payload_byte_is_hashed_and_refused() {
    let c = Cluster::new(4, 1, 1);
    let chunk = c.cfg.payload_chunk;
    let (mut e, b1, block1) = holding_an_inline_block(&c);
    let mut bytes = block1.payload.as_inline().expect("inline").to_vec();
    bytes[1_000] ^= 0x01;
    let tampered = Block {
        payload: Payload::inline(bytes),
        ..block1.clone()
    };
    let kept = tampered.payload.clone();

    let actions = e.on_message(ReplicaId(2), proposal(tampered.clone(), None), Time(2_000));
    assert!(actions.is_empty(), "a tampered relay emitted {actions:?}");
    assert!(
        kept.memoized_commitment(chunk).is_some(),
        "the tampered relay was not hashed"
    );
    assert_eq!(sigs(&e), 3, "its signature is checked against its own hash");
    assert!(!e.store().contains(&tampered.hash(chunk)));
    assert_eq!(e.store().round_blocks(Round(1)), &[b1]);
}

/// An equivocating leader's second round-1 block shares the round, the
/// proposer and the rank with the held one but not its payload: it is
/// hashed, verified and stored beside the first, as before.
#[test]
fn an_equivocating_leaders_second_block_is_hashed_and_stored() {
    let c = Cluster::new(4, 1, 1);
    let chunk = c.cfg.payload_chunk;
    let (mut e, b1, _) = holding_an_inline_block(&c);
    let (b1x, signed) = c.leader_block_with(1, BlockHash::ZERO, Payload::inline(vec![0xA5; 4_096]));
    assert_ne!(b1x, b1);
    let second = fresh_copy(&signed);
    let kept = second.payload.clone();

    e.on_message(ReplicaId(1), proposal(second, None), Time(2_000));
    assert_eq!(
        kept.memoized_commitment(chunk),
        Some(signed.payload.commitment(chunk))
    );
    assert_eq!(sigs(&e), 3, "the second block's signature is checked");
    assert_eq!(e.store().round_blocks(Round(1)), &[b1, b1x]);
}

/// The budget: on a seeded n = 4 happy path the whole cluster verifies
/// at most 31 signatures per explicitly committed round, whichever
/// protocol runs (when pinned: banyan 27.04 — 6 570 over 243 rounds; the
/// engine before novelty-first intake read 89.89 — icc 27.02, hotstuff
/// 19.12 — 4 647 over 243 rounds; 20.13 while it checked the signature of
/// a vote it was about to drop — streamlet 20.19). A regression in
/// redundant checking fails here, not in a benchmark.
#[test]
fn happy_path_signature_budget_per_committed_round() {
    const N: usize = 4;
    for protocol in ["banyan", "icc", "hotstuff", "streamlet"] {
        let topo = Topology::uniform(N, Duration::from_millis(10));
        let engines = ClusterBuilder::new(N, 1, 1)
            .unwrap()
            .delta(Duration::from_millis(15))
            .payload_size(1_000)
            .build(protocol);
        let mut sim = Simulation::new(topo, engines, FaultPlan::none(), SimConfig::with_seed(18));
        sim.run_until(Time(Duration::from_secs(5).as_nanos()));
        assert!(sim.auditor().is_safe(), "{protocol}");

        let rounds: BTreeSet<Round> = sim
            .metrics()
            .commits
            .iter()
            .filter(|c| c.entry.explicit)
            .map(|c| c.entry.round)
            .collect();
        assert!(
            rounds.len() > 100,
            "{protocol}: only {} rounds committed",
            rounds.len()
        );
        let sigs: u64 = (0..N as u16)
            .map(|i| sim.engine(ReplicaId(i)).verify_stats().sigs_verified)
            .sum();
        let per_round = sigs as f64 / rounds.len() as f64;
        assert!(
            per_round <= 31.0,
            "{protocol}: {per_round:.2} signature checks per committed round ({sigs} / {})",
            rounds.len()
        );
    }
}

/// Store reads, counted. Optimized builds only: a debug build's
/// `progress` ends with an oracle that re-runs every retained round's
/// scan, which is the very cost counted here. Run with
/// `cargo test --release -p banyan-core --test evidence_once`.
#[cfg(not(debug_assertions))]
mod store_reads {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use banyan_storage::{BlockStore, ChainStore};
    use banyan_types::engine::TimerKind;
    use banyan_types::ChainSnapshot;

    use super::*;

    /// A [`BlockStore`] that counts every read an engine makes of it.
    struct CountingStore {
        inner: BlockStore,
        reads: Arc<AtomicUsize>,
    }

    impl CountingStore {
        fn read(&self) -> &BlockStore {
            self.reads.fetch_add(1, Ordering::Relaxed);
            &self.inner
        }
    }

    impl ChainStore for CountingStore {
        fn insert(&mut self, hash: BlockHash, block: Block) -> bool {
            self.inner.insert(hash, block)
        }
        fn get(&self, hash: &BlockHash) -> Option<&Block> {
            self.read().get(hash)
        }
        fn contains(&self, hash: &BlockHash) -> bool {
            self.read().contains(hash)
        }
        fn round_blocks(&self, round: Round) -> &[BlockHash] {
            self.read().round_blocks(round)
        }
        fn mark_notarized(&mut self, hash: BlockHash, cert: Option<Notarization>) {
            self.inner.mark_notarized(hash, cert)
        }
        fn is_notarized(&self, hash: &BlockHash) -> bool {
            self.read().is_notarized(hash)
        }
        fn notarization(&self, hash: &BlockHash) -> Option<&Notarization> {
            self.read().notarization(hash)
        }
        fn mark_finalized(&mut self, round: Round, hash: BlockHash) {
            self.inner.mark_finalized(round, hash)
        }
        fn finalized(&self, round: Round) -> Option<BlockHash> {
            self.read().finalized(round)
        }
        fn is_finalized(&self, round: Round, hash: &BlockHash) -> bool {
            self.read().is_finalized(round, hash)
        }
        fn max_finalized_round(&self) -> Round {
            self.read().max_finalized_round()
        }
        fn chain_to(&self, tip: &BlockHash, stop_after: Round) -> Option<Vec<(BlockHash, &Block)>> {
            self.read().chain_to(tip, stop_after)
        }
        fn len(&self) -> usize {
            self.read().len()
        }
        fn prune_below(&mut self, round: Round) {
            self.inner.prune_below(round)
        }
        fn snapshot(&self) -> ChainSnapshot {
            self.read().snapshot()
        }
        fn restore(&mut self, snapshot: &ChainSnapshot) {
            self.inner.restore(snapshot)
        }
    }

    /// A `Votes` event costs what it changes, not what the engine retains:
    /// the store reads it makes are the same one round after a prune (11
    /// retained rounds) as one round before the next (23), where a scan of
    /// every retained round reads one `is_notarized` more per round.
    #[test]
    fn store_reads_per_votes_event_do_not_grow_with_the_retained_rounds() {
        let c = Cluster::new(4, 1, 1);
        let reads = Arc::new(AtomicUsize::new(0));
        let store = CountingStore {
            inner: BlockStore::new(),
            reads: reads.clone(),
        };
        let mut e = c.engine(0).with_store(Box::new(store));
        e.on_init(Time(0));

        // Every round: the leader's block (our own every fourth round), then
        // one `Votes` frame from each peer. With our own votes, the second
        // frame notarizes and FP-finalizes; the third arrives after.
        // Entering round 32 prunes every round below 23, entering 48 every
        // round below 39.
        let mut reads_per_frame = Vec::new();
        let mut parent = BlockHash::ZERO;
        for r in 1..=45u64 {
            let t = Time(r * 1_000_000);
            let hash = if r % 4 == 0 {
                e.on_timer(
                    TimerKind::Propose {
                        round: r,
                        hold_until: None,
                    },
                    t,
                );
                e.store().round_blocks(Round(r))[0]
            } else {
                let (hash, block) = c.leader_block(r, parent);
                let leader = (r % 4) as u16;
                e.on_message(
                    ReplicaId(leader),
                    Message::Chained(ChainedMsg::Proposal {
                        block,
                        parent_notarization: None,
                        parent_unlock: None,
                        fast_vote: Some(c.vote(leader, VoteKind::Fast, r, hash)),
                    }),
                    t,
                );
                hash
            };
            let mut frames = Vec::new();
            for v in 1..=3 {
                let frame = votes_frame(vec![
                    c.vote(v, VoteKind::Notarize, r, hash),
                    c.vote(v, VoteKind::Fast, r, hash),
                ]);
                let before = reads.load(Ordering::Relaxed);
                e.on_message(ReplicaId(v), frame, t);
                frames.push(reads.load(Ordering::Relaxed) - before);
            }
            assert_eq!(e.finalized_round(), Round(r));
            reads_per_frame.push(frames);
            parent = hash;
        }
        // Rounds 33 and 45 have the same leader and the same traffic.
        assert_eq!(
            reads_per_frame[33 - 1],
            reads_per_frame[45 - 1],
            "store reads per Votes frame, one round after a prune and one before"
        );
    }
}
