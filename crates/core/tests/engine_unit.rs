//! Direct-drive unit tests of the ICC/Banyan engine: feed hand-crafted
//! events, assert the exact actions the pseudocode (Algorithms 1–2)
//! prescribes. No simulator involved.

use std::sync::Arc;

use banyan_core::chained::{ChainedEngine, PathMode};
use banyan_crypto::beacon::{Beacon, BeaconMode};
use banyan_crypto::hashsig::HashSig;
use banyan_crypto::registry::KeyRegistry;
use banyan_crypto::Signature;
use banyan_types::app::FixedSizeSource;
use banyan_types::block::Block;
use banyan_types::certs::{FinalKind, Finalization, Notarization};
use banyan_types::config::ProtocolConfig;
use banyan_types::engine::{Actions, Engine, Outbound, TimerKind};
use banyan_types::ids::{BlockHash, Rank, ReplicaId, Round};
use banyan_types::message::{ChainedMsg, Message};
use banyan_types::payload::Payload;
use banyan_types::time::{Duration, Time};
use banyan_types::vote::{Vote, VoteKind};

const N: usize = 4;
const CLUSTER_SEED: u64 = 77;

fn cfg() -> ProtocolConfig {
    ProtocolConfig::new(N, 1, 1)
        .unwrap()
        .with_delta(Duration::from_millis(100))
}

fn registry(i: u16) -> KeyRegistry {
    KeyRegistry::generate(Arc::new(HashSig), CLUSTER_SEED, N, i)
}

fn engine(i: u16, mode: PathMode) -> ChainedEngine {
    ChainedEngine::new(
        cfg(),
        mode,
        registry(i),
        Beacon::new(BeaconMode::RoundRobin, N),
        Box::new(FixedSizeSource::new(1_000, i)),
    )
}

/// Builds a signed block from replica `proposer` for `round`.
fn make_block(proposer: u16, round: u64, parent: BlockHash, seed: u64) -> (BlockHash, Block) {
    let beacon = Beacon::new(BeaconMode::RoundRobin, N);
    let reg = registry(proposer);
    let mut block = Block {
        round: Round(round),
        proposer: ReplicaId(proposer),
        rank: Rank(beacon.rank(round, proposer)),
        parent,
        proposed_at: Time(0),
        payload: Payload::synthetic(1_000, seed),
        signature: Signature::zero(),
    };
    let hash = block.hash(cfg().payload_chunk);
    block.signature = reg.sign(&Block::signing_message(&hash));
    (hash, block)
}

fn make_vote(voter: u16, kind: VoteKind, round: u64, block: BlockHash) -> Vote {
    let reg = registry(voter);
    let msg = Vote::signing_message(kind, Round(round), &block);
    Vote {
        kind,
        round: Round(round),
        block,
        voter: ReplicaId(voter),
        signature: reg.sign(&msg),
    }
}

fn proposal_msg(block: Block, fast_vote: Option<Vote>) -> Message {
    Message::Chained(ChainedMsg::Proposal {
        block,
        parent_notarization: None,
        parent_unlock: None,
        fast_vote,
    })
}

/// All broadcast messages in the actions.
fn broadcasts(actions: &Actions) -> Vec<&Message> {
    actions
        .outbound
        .iter()
        .filter_map(|o| match o {
            Outbound::Broadcast(m) => Some(m),
            Outbound::Send(..) => None,
        })
        .collect()
}

/// All votes of `kind` broadcast in the actions.
fn broadcast_votes(actions: &Actions, kind: VoteKind) -> Vec<Vote> {
    broadcasts(actions)
        .into_iter()
        .filter_map(|m| match m {
            Message::Chained(ChainedMsg::Votes(v)) => Some(v.clone()),
            _ => None,
        })
        .flatten()
        .filter(|v| v.kind == kind)
        .collect()
}

// ---------------------------------------------------------------------
// Proposal behavior
// ---------------------------------------------------------------------

#[test]
fn round1_leader_proposes_immediately_with_fast_vote() {
    // Replica 1 is the leader of round 1 (round-robin: leader(k) = k mod n).
    let mut e = engine(1, PathMode::Banyan);
    let actions = e.on_init(Time(0));
    // Propose timer at t0 + Δ_prop(0) = 0 — delivered as a timer request.
    let propose_timer = actions
        .timers
        .iter()
        .find(|t| matches!(t.kind, TimerKind::Propose { round: 1, .. }))
        .expect("propose timer armed");
    assert_eq!(propose_timer.at, Time(0), "leader proposes with zero delay");
    // An idle pool may hold it for Δ (100 ms), half a backup's 2Δ.
    let hold_until = Some(Time(Duration::from_millis(100).as_nanos()));
    assert_eq!(
        propose_timer.kind,
        TimerKind::Propose {
            round: 1,
            hold_until
        }
    );

    let actions = e.on_timer(
        TimerKind::Propose {
            round: 1,
            hold_until: None,
        },
        Time(0),
    );
    let proposals: Vec<_> = broadcasts(&actions)
        .into_iter()
        .filter(|m| matches!(m, Message::Chained(ChainedMsg::Proposal { .. })))
        .collect();
    assert_eq!(proposals.len(), 1, "exactly one proposal broadcast");
    match proposals[0] {
        Message::Chained(ChainedMsg::Proposal {
            block,
            fast_vote,
            parent_notarization,
            ..
        }) => {
            assert_eq!(block.round, Round(1));
            assert_eq!(block.rank, Rank(0));
            assert_eq!(block.parent, BlockHash::ZERO, "round 1 extends genesis");
            assert!(
                parent_notarization.is_none(),
                "genesis parent has no certificate"
            );
            let fv = fast_vote
                .as_ref()
                .expect("Addition 2: rank-0 proposal carries fast vote");
            assert_eq!(fv.kind, VoteKind::Fast);
            assert_eq!(fv.voter, ReplicaId(1));
        }
        _ => unreachable!(),
    }
}

#[test]
fn icc_leader_proposal_has_no_fast_vote() {
    let mut e = engine(1, PathMode::IccOnly);
    e.on_init(Time(0));
    let actions = e.on_timer(
        TimerKind::Propose {
            round: 1,
            hold_until: None,
        },
        Time(0),
    );
    for m in broadcasts(&actions) {
        if let Message::Chained(ChainedMsg::Proposal {
            fast_vote,
            parent_unlock,
            ..
        }) = m
        {
            assert!(fast_vote.is_none(), "ICC never sends fast votes");
            assert!(parent_unlock.is_none(), "ICC has no unlock proofs");
        }
    }
}

#[test]
fn non_leader_waits_proposal_delay() {
    // Replica 3 has rank 2 in round 1 (round-robin): Δ_prop = 2Δ·2 = 400 ms.
    let mut e = engine(3, PathMode::Banyan);
    let actions = e.on_init(Time(0));
    let t = actions
        .timers
        .iter()
        .find(|t| matches!(t.kind, TimerKind::Propose { round: 1, .. }))
        .expect("propose timer");
    assert_eq!(t.at, Time(Duration::from_millis(400).as_nanos()));
    assert_eq!(
        t.kind,
        TimerKind::Propose {
            round: 1,
            hold_until: None
        },
        "a backup's proposal is never held"
    );
}

// ---------------------------------------------------------------------
// Voting behavior (Algorithm 1 lines 33–43)
// ---------------------------------------------------------------------

#[test]
fn first_notarization_vote_carries_fast_vote() {
    let mut e = engine(0, PathMode::Banyan);
    e.on_init(Time(0));
    let (hash, block) = make_block(1, 1, BlockHash::ZERO, 1);
    let leader_fv = make_vote(1, VoteKind::Fast, 1, hash);
    let actions = e.on_message(
        ReplicaId(1),
        proposal_msg(block, Some(leader_fv)),
        Time(1000),
    );

    let notarize = broadcast_votes(&actions, VoteKind::Notarize);
    let fast = broadcast_votes(&actions, VoteKind::Fast);
    assert_eq!(
        notarize.len(),
        1,
        "one notarization vote for the leader block"
    );
    assert_eq!(notarize[0].block, hash);
    assert_eq!(
        fast.len(),
        1,
        "Addition 3: fast vote alongside the first notarization vote"
    );
    assert_eq!(fast[0].block, hash);
}

#[test]
fn icc_votes_without_fast_vote() {
    let mut e = engine(0, PathMode::IccOnly);
    e.on_init(Time(0));
    let (hash, block) = make_block(1, 1, BlockHash::ZERO, 1);
    let actions = e.on_message(ReplicaId(1), proposal_msg(block, None), Time(1000));
    assert_eq!(broadcast_votes(&actions, VoteKind::Notarize).len(), 1);
    assert!(broadcast_votes(&actions, VoteKind::Fast).is_empty());
    let _ = hash;
}

#[test]
fn rank0_block_without_leader_fast_vote_is_invalid_in_banyan() {
    // Algorithm 2 line 63: rank-0 validity requires the proposer's fast
    // vote. Without it, no notarization vote is cast.
    let mut e = engine(0, PathMode::Banyan);
    e.on_init(Time(0));
    let (_hash, block) = make_block(1, 1, BlockHash::ZERO, 1);
    let actions = e.on_message(ReplicaId(1), proposal_msg(block, None), Time(1000));
    assert!(broadcast_votes(&actions, VoteKind::Notarize).is_empty());
}

/// Addition 2 gives a Banyan rank-0 block its proposer's fast vote, so
/// there is no fast-vote-free block to pipeline on an uncertified parent:
/// optimistic pipelining is ICC's alone.
#[test]
#[should_panic(expected = "not supported for banyan")]
fn optimistic_banyan_engine_is_rejected() {
    let _ = engine(0, PathMode::Banyan).with_optimistic();
}

#[test]
fn wrong_rank_proposal_rejected() {
    let mut e = engine(0, PathMode::Banyan);
    e.on_init(Time(0));
    // Replica 2 claims rank 0 in round 1, but its true rank is 1.
    let (hash, mut block) = make_block(2, 1, BlockHash::ZERO, 1);
    block.rank = Rank(0);
    let fv = make_vote(2, VoteKind::Fast, 1, hash);
    let actions = e.on_message(ReplicaId(2), proposal_msg(block, Some(fv)), Time(1000));
    assert!(broadcast_votes(&actions, VoteKind::Notarize).is_empty());
}

#[test]
fn tampered_block_signature_rejected() {
    let mut e = engine(0, PathMode::Banyan);
    e.on_init(Time(0));
    let (hash, mut block) = make_block(1, 1, BlockHash::ZERO, 1);
    block.signature.0[0] ^= 0xFF;
    let fv = make_vote(1, VoteKind::Fast, 1, hash);
    let actions = e.on_message(ReplicaId(1), proposal_msg(block, Some(fv)), Time(1000));
    assert!(broadcast_votes(&actions, VoteKind::Notarize).is_empty());
}

#[test]
fn higher_rank_block_voted_only_after_notarization_delay() {
    let mut e = engine(0, PathMode::Banyan);
    e.on_init(Time(0));
    // Rank-1 proposal (from replica 2) arrives immediately; Δ_notary(1) =
    // 200 ms, so no vote yet — a timer is armed instead.
    let (hash, block) = make_block(2, 1, BlockHash::ZERO, 1);
    let actions = e.on_message(ReplicaId(2), proposal_msg(block, None), Time(1000));
    assert!(broadcast_votes(&actions, VoteKind::Notarize).is_empty());
    let timer = actions
        .timers
        .iter()
        .find(|t| matches!(t.kind, TimerKind::NotarizeRank { round: 1, rank: 1 }))
        .expect("notarize-delay timer armed");
    assert_eq!(timer.at, Time(Duration::from_millis(200).as_nanos()));

    // When the timer fires, the vote goes out.
    let actions = e.on_timer(TimerKind::NotarizeRank { round: 1, rank: 1 }, timer.at);
    let votes = broadcast_votes(&actions, VoteKind::Notarize);
    assert_eq!(votes.len(), 1);
    assert_eq!(votes[0].block, hash);
}

// ---------------------------------------------------------------------
// Notarization, advancement, finalization votes (Algorithm 2)
// ---------------------------------------------------------------------

/// Drives replica 0 through: leader proposal + remote votes → notarized →
/// advance. Returns the actions of the final step.
fn drive_to_advance(e: &mut ChainedEngine, fast_votes_from: &[u16]) -> (BlockHash, Actions) {
    e.on_init(Time(0));
    let (hash, block) = make_block(1, 1, BlockHash::ZERO, 1);
    let leader_fv = make_vote(1, VoteKind::Fast, 1, hash);
    e.on_message(
        ReplicaId(1),
        proposal_msg(block, Some(leader_fv)),
        Time(1000),
    );
    // Remote notarization votes (quorum is 3 incl. our own).
    let mut last = Actions::none();
    for &v in fast_votes_from {
        let mut bundle = vec![make_vote(v, VoteKind::Notarize, 1, hash)];
        if e.mode() == PathMode::Banyan {
            bundle.push(make_vote(v, VoteKind::Fast, 1, hash));
        }
        last = e.on_message(
            ReplicaId(v),
            Message::Chained(ChainedMsg::Votes(bundle)),
            Time(2000),
        );
    }
    (hash, last)
}

#[test]
fn quorum_notarizes_advances_and_sends_finalization_vote() {
    // Use n = 7 (f = 2, p = 1): notarization quorum 5, unlock threshold
    // > 3, fast quorum 6. Five votes notarize + unlock the block without
    // FP-finalizing it, so the Advance broadcast (Addition 1) is
    // observable. (At n = 4 the fast quorum coincides with the unlock
    // threshold, so FP-finalization always preempts the Advance message —
    // the paper's §9.3 "fast path fires with the same conditions as
    // regular notarization" observation.)
    const N7: usize = 7;
    let cfg7 = ProtocolConfig::new(N7, 2, 1)
        .unwrap()
        .with_delta(Duration::from_millis(100));
    let reg7 = |i: u16| KeyRegistry::generate(Arc::new(HashSig), CLUSTER_SEED, N7, i);
    let beacon7 = Beacon::new(BeaconMode::RoundRobin, N7);
    let mut e = ChainedEngine::new(
        cfg7.clone(),
        PathMode::Banyan,
        reg7(0),
        beacon7.clone(),
        Box::new(FixedSizeSource::new(1_000, 0)),
    );
    e.on_init(Time(0));

    // Leader (replica 1) proposal with its fast vote.
    let mut block = Block {
        round: Round(1),
        proposer: ReplicaId(1),
        rank: Rank(0),
        parent: BlockHash::ZERO,
        proposed_at: Time(0),
        payload: Payload::synthetic(1_000, 1),
        signature: Signature::zero(),
    };
    let hash = block.hash(cfg7.payload_chunk);
    block.signature = reg7(1).sign(&Block::signing_message(&hash));
    let mk_vote = |voter: u16, kind: VoteKind| -> Vote {
        let msg = Vote::signing_message(kind, Round(1), &hash);
        Vote {
            kind,
            round: Round(1),
            block: hash,
            voter: ReplicaId(voter),
            signature: reg7(voter).sign(&msg),
        }
    };
    e.on_message(
        ReplicaId(1),
        proposal_msg(block, Some(mk_vote(1, VoteKind::Fast))),
        Time(1000),
    );

    // Votes from replicas 1..=4: with our own that is 5 notarize votes
    // (= quorum) and 5 fast votes (> threshold 3, < fast quorum 6).
    let mut last = Actions::none();
    for v in 1u16..=4 {
        last = e.on_message(
            ReplicaId(v),
            Message::Chained(ChainedMsg::Votes(vec![
                mk_vote(v, VoteKind::Notarize),
                mk_vote(v, VoteKind::Fast),
            ])),
            Time(2000),
        );
    }
    let advance = broadcasts(&last)
        .into_iter()
        .find_map(|m| match m {
            Message::Chained(ChainedMsg::Advance {
                notarization,
                unlock,
            }) => Some((notarization.clone(), unlock.clone())),
            _ => None,
        })
        .expect("Advance broadcast on round change");
    assert_eq!(advance.0.block, hash);
    assert!(advance.0.vote_count() >= 5);
    let unlock = advance.1.expect("Banyan advance carries an unlock proof");
    assert_eq!(unlock.round, Round(1));
    assert!(
        unlock.total_votes() >= 4,
        "unlock proof attests > f + p = 3 votes"
    );
    // Finalization vote sent (N ⊆ {b}).
    let fin = broadcast_votes(&last, VoteKind::Finalize);
    assert_eq!(fin.len(), 1);
    assert_eq!(fin[0].block, hash);
    // Round advanced but nothing finalized yet (no FP, no slow quorum).
    assert_eq!(e.current_round(), Round(2));
    assert_eq!(e.finalized_round(), Round::GENESIS);
}

#[test]
fn fast_quorum_fp_finalizes_rank0_block() {
    let mut e = engine(0, PathMode::Banyan);
    // Fast votes from leader(1), 2: with our own that is 3 = n − p.
    let (hash, actions) = drive_to_advance(&mut e, &[1, 2]);
    // A fast finalization must have been broadcast and committed.
    let fast_final = broadcasts(&actions)
        .into_iter()
        .find_map(|m| match m {
            Message::Chained(ChainedMsg::Final(f)) if f.kind == FinalKind::Fast => Some(f.clone()),
            _ => None,
        })
        .expect("fast finalization broadcast");
    assert_eq!(fast_final.block, hash);
    assert!(fast_final.vote_count() >= 3);
    let commits = &actions.commits;
    assert_eq!(commits.len(), 1);
    assert_eq!(commits[0].block, hash);
    assert!(commits[0].fast);
    assert!(commits[0].explicit);
    assert_eq!(e.finalized_round(), Round(1));
}

#[test]
fn icc_advances_but_does_not_fast_finalize() {
    let mut e = engine(0, PathMode::IccOnly);
    let (_hash, actions) = drive_to_advance(&mut e, &[1, 2]);
    assert_eq!(e.current_round(), Round(2));
    // No commit yet: ICC needs finalization votes (3δ path).
    assert!(actions.commits.is_empty());
    // Now deliver two finalization votes (ours was broadcast at advance).
    let (hash, _) = make_block(1, 1, BlockHash::ZERO, 1);
    let mut commits = Vec::new();
    for v in [1u16, 2] {
        let a = e.on_message(
            ReplicaId(v),
            Message::Chained(ChainedMsg::Votes(vec![make_vote(
                v,
                VoteKind::Finalize,
                1,
                hash,
            )])),
            Time(3000),
        );
        commits.extend(a.commits);
    }
    assert_eq!(commits.len(), 1);
    assert!(!commits[0].fast);
    assert_eq!(commits[0].block, hash);
}

#[test]
fn finalization_vote_withheld_after_voting_two_blocks() {
    // Feed two equivocating rank-0 proposals; the replica votes for both
    // (line 33 allows it) and must then withhold its finalization vote
    // (N ⊄ {b}).
    let mut e = engine(0, PathMode::Banyan);
    e.on_init(Time(0));
    let (h_a, block_a) = make_block(1, 1, BlockHash::ZERO, 1);
    let (h_b, block_b) = make_block(1, 1, BlockHash::ZERO, 2);
    assert_ne!(h_a, h_b);
    let fv_a = make_vote(1, VoteKind::Fast, 1, h_a);
    let fv_b = make_vote(1, VoteKind::Fast, 1, h_b);
    e.on_message(ReplicaId(1), proposal_msg(block_a, Some(fv_a)), Time(1000));
    e.on_message(ReplicaId(1), proposal_msg(block_b, Some(fv_b)), Time(1100));

    // Quorum for block A from replicas 2 and 3.
    let mut all_fin_votes = Vec::new();
    for v in [2u16, 3] {
        let a = e.on_message(
            ReplicaId(v),
            Message::Chained(ChainedMsg::Votes(vec![
                make_vote(v, VoteKind::Notarize, 1, h_a),
                make_vote(v, VoteKind::Fast, 1, h_a),
            ])),
            Time(2000),
        );
        all_fin_votes.extend(broadcast_votes(&a, VoteKind::Finalize));
    }
    assert_eq!(
        e.current_round(),
        Round(2),
        "round advanced on notarized+unlocked A"
    );
    assert!(
        all_fin_votes.is_empty(),
        "finalization vote must be withheld after voting two blocks (line 51)"
    );
}

#[test]
fn invalid_fast_finalization_certificates_rejected() {
    let mut e = engine(0, PathMode::Banyan);
    e.on_init(Time(0));
    let (hash, block) = make_block(1, 1, BlockHash::ZERO, 1);
    let fv = make_vote(1, VoteKind::Fast, 1, hash);
    e.on_message(ReplicaId(1), proposal_msg(block, Some(fv)), Time(1000));

    // Build a fast cert with only 2 < n − p = 3 votes.
    let table = registry(0).table().clone();
    let votes: Vec<(u16, Signature)> = [1u16, 2]
        .iter()
        .map(|&v| (v, make_vote(v, VoteKind::Fast, 1, hash).signature))
        .collect();
    let weak = Finalization {
        round: Round(1),
        block: hash,
        kind: FinalKind::Fast,
        agg: table.aggregate(&votes),
    };
    let actions = e.on_message(
        ReplicaId(2),
        Message::Chained(ChainedMsg::Final(weak)),
        Time(2000),
    );
    assert!(
        actions.commits.is_empty(),
        "under-quorum certificate must be ignored"
    );
    assert_eq!(e.finalized_round(), Round::GENESIS);

    // A forged full-size cert (bad signatures) is also rejected.
    let forged_votes: Vec<(u16, Signature)> =
        (1u16..4).map(|v| (v, Signature([v as u8; 64]))).collect();
    let forged = Finalization {
        round: Round(1),
        block: hash,
        kind: FinalKind::Fast,
        agg: table.aggregate(&forged_votes),
    };
    let actions = e.on_message(
        ReplicaId(2),
        Message::Chained(ChainedMsg::Final(forged)),
        Time(2000),
    );
    assert!(actions.commits.is_empty());
}

#[test]
fn below_quorum_notarization_certificates_rejected() {
    // An aggregate over zero signers verifies trivially under every
    // scheme (the combined proof of nothing is vacuously consistent), so
    // the popcount gate must fire *before* `verify_aggregate` ever runs.
    let mut e = engine(0, PathMode::Banyan);
    e.on_init(Time(0));
    let (hash, block) = make_block(1, 1, BlockHash::ZERO, 1);
    e.on_message(ReplicaId(1), proposal_msg(block, None), Time(1000));

    let table = registry(0).table().clone();
    let empty = table.aggregate(&[]);
    let msg = Vote::signing_message(VoteKind::Notarize, Round(1), &hash);
    assert!(
        table.verify_aggregate(&msg, &empty),
        "footgun precondition: an empty aggregate verifies trivially"
    );
    e.on_message(
        ReplicaId(2),
        Message::Chained(ChainedMsg::Advance {
            notarization: Notarization {
                round: Round(1),
                block: hash,
                agg: empty,
                fast_agg: None,
            },
            unlock: None,
        }),
        Time(2000),
    );
    assert!(
        !e.store().is_notarized(&hash),
        "empty-aggregate notarization must be ignored"
    );

    // Below quorum (2 < n − f = 3) with genuine signatures: still rejected.
    let votes: Vec<(u16, Signature)> = [1u16, 2]
        .iter()
        .map(|&v| (v, make_vote(v, VoteKind::Notarize, 1, hash).signature))
        .collect();
    e.on_message(
        ReplicaId(2),
        Message::Chained(ChainedMsg::Advance {
            notarization: Notarization {
                round: Round(1),
                block: hash,
                agg: table.aggregate(&votes),
                fast_agg: None,
            },
            unlock: None,
        }),
        Time(2000),
    );
    assert!(
        !e.store().is_notarized(&hash),
        "below-quorum notarization must be ignored"
    );
}

#[test]
fn empty_aggregate_finalization_rejected() {
    // Same footgun at the finalization boundary: an empty certificate
    // must never commit a block, on either the slow or the fast path.
    let mut e = engine(0, PathMode::Banyan);
    e.on_init(Time(0));
    let (hash, block) = make_block(1, 1, BlockHash::ZERO, 1);
    let fv = make_vote(1, VoteKind::Fast, 1, hash);
    e.on_message(ReplicaId(1), proposal_msg(block, Some(fv)), Time(1000));

    let table = registry(0).table().clone();
    for kind in [FinalKind::Slow, FinalKind::Fast] {
        let hollow = Finalization {
            round: Round(1),
            block: hash,
            kind,
            agg: table.aggregate(&[]),
        };
        let actions = e.on_message(
            ReplicaId(2),
            Message::Chained(ChainedMsg::Final(hollow)),
            Time(2000),
        );
        assert!(
            actions.commits.is_empty(),
            "empty-aggregate {kind:?} finalization must be ignored"
        );
    }
    assert_eq!(e.finalized_round(), Round::GENESIS);
}

#[test]
fn valid_fast_certificate_finalizes_block_and_ancestors() {
    let mut e = engine(3, PathMode::Banyan);
    e.on_init(Time(0));
    // Round 1 block, never voted on by us (simulates being behind).
    let (h1, b1) = make_block(1, 1, BlockHash::ZERO, 1);
    let fv1 = make_vote(1, VoteKind::Fast, 1, h1);
    e.on_message(
        ReplicaId(1),
        proposal_msg(b1.clone(), Some(fv1)),
        Time(1000),
    );
    let table = registry(0).table().clone();
    let votes: Vec<(u16, Signature)> = [0u16, 1, 2]
        .iter()
        .map(|&v| (v, make_vote(v, VoteKind::Fast, 1, h1).signature))
        .collect();
    let cert = Finalization {
        round: Round(1),
        block: h1,
        kind: FinalKind::Fast,
        agg: table.aggregate(&votes),
    };
    let actions = e.on_message(
        ReplicaId(0),
        Message::Chained(ChainedMsg::Final(cert)),
        Time(2000),
    );
    assert_eq!(actions.commits.len(), 1);
    assert_eq!(actions.commits[0].block, h1);
    assert_eq!(e.finalized_round(), Round(1));
    // And the engine has moved past round 1.
    assert!(e.current_round() >= Round(2));
}

#[test]
fn stale_timers_are_ignored() {
    let mut e = engine(0, PathMode::Banyan);
    let (_, _) = drive_to_advance(&mut e, &[1, 2]);
    assert_eq!(e.current_round(), Round(2));
    // A stale round-1 propose timer must not produce a proposal.
    let actions = e.on_timer(
        TimerKind::Propose {
            round: 1,
            hold_until: None,
        },
        Time(5000),
    );
    let proposals = broadcasts(&actions)
        .into_iter()
        .filter(|m| matches!(m, Message::Chained(ChainedMsg::Proposal { .. })))
        .count();
    assert_eq!(proposals, 0);
}

#[test]
fn foreign_protocol_messages_are_ignored() {
    let mut e = engine(0, PathMode::Banyan);
    e.on_init(Time(0));
    let actions = e.on_message(
        ReplicaId(1),
        Message::HotStuff(banyan_types::message::HotStuffMsg::NewView {
            view: 3,
            justify: banyan_types::certs::QuorumCert::genesis(),
        }),
        Time(1000),
    );
    assert!(actions.is_empty());
}

#[test]
fn sync_request_served_with_block() {
    let mut e = engine(1, PathMode::Banyan);
    e.on_init(Time(0));
    e.on_timer(
        TimerKind::Propose {
            round: 1,
            hold_until: None,
        },
        Time(0),
    ); // own proposal stored
       // Find our own block hash via a second engine processing the proposal.
    let (hash, _) = {
        let mut probe = engine(0, PathMode::Banyan);
        probe.on_init(Time(0));
        // Rebuild the proposal deterministically: ask the leader to serve
        // any block of round 1 — easier: request with the real hash by
        // recomputing it is awkward here, so drive the sync path directly
        // on a hash we know the engine has. Use its store.
        let h = *e
            .store()
            .round_blocks(Round(1))
            .first()
            .expect("own block stored");
        (h, probe)
    };
    let actions = e.on_message(
        ReplicaId(0),
        Message::Sync(banyan_types::message::SyncMsg::Request { hash }),
        Time(1000),
    );
    let served = actions.outbound.iter().any(|o| {
        matches!(o, Outbound::Send(ReplicaId(0), Message::Chained(ChainedMsg::Proposal { block, .. }))
            if block.round == Round(1))
    });
    assert!(served, "sync request must be answered with the block");
}

// ---------------------------------------------------------------------
// Which rounds `progress` looks at: a certificate becomes assemblable only
// in a round whose state just changed, and every such change marks it.
// Run under Remark 7.8 (piggyback), where a stored block is a candidate
// on fast votes alone.
// ---------------------------------------------------------------------

fn piggyback_engine(i: u16) -> ChainedEngine {
    ChainedEngine::new(
        cfg().with_piggyback(true),
        PathMode::Banyan,
        registry(i),
        Beacon::new(BeaconMode::RoundRobin, N),
        Box::new(FixedSizeSource::new(1_000, i)),
    )
}

/// Replica 2's rank-0 block of round 2, which an engine still in round 1
/// has not entered, on a round-1 parent it never saw.
fn round2_block() -> (BlockHash, Block) {
    make_block(2, 2, BlockHash([7; 32]), 2)
}

fn fast_votes(voters: &[u16], round: u64, block: BlockHash) -> Message {
    let votes = voters
        .iter()
        .map(|&v| make_vote(v, VoteKind::Fast, round, block))
        .collect();
    Message::Chained(ChainedMsg::Votes(votes))
}

#[test]
fn block_arriving_after_its_fast_vote_quorum_is_notarized_on_arrival() {
    let mut e = piggyback_engine(0);
    e.on_init(Time(0));
    let (hash, block) = round2_block();
    // 3 = ⌈(n + f + 1)/2⌉ fast votes, but no block to count them for.
    e.on_message(ReplicaId(1), fast_votes(&[1, 2, 3], 2, hash), Time(1_000));
    assert!(!e.store().is_notarized(&hash));

    let fv = make_vote(2, VoteKind::Fast, 2, hash);
    e.on_message(ReplicaId(2), proposal_msg(block, Some(fv)), Time(2_000));
    assert_eq!(e.current_round(), Round(1), "round 2 is not entered");
    assert!(
        e.store().is_notarized(&hash),
        "storing the block touches its round"
    );
}

#[test]
fn quorum_completed_for_a_round_not_yet_entered_is_notarized() {
    let mut e = piggyback_engine(0);
    e.on_init(Time(0));
    let (hash, block) = round2_block();
    e.on_message(ReplicaId(2), proposal_msg(block, None), Time(1_000));
    e.on_message(ReplicaId(1), fast_votes(&[1, 2], 2, hash), Time(2_000));
    assert!(!e.store().is_notarized(&hash), "2 of 3 votes");

    e.on_message(ReplicaId(3), fast_votes(&[3], 2, hash), Time(3_000));
    assert_eq!(e.current_round(), Round(1), "round 2 is not entered");
    assert!(e.store().is_notarized(&hash));
}

#[test]
fn restore_that_brings_a_block_with_a_held_quorum_notarizes_it_next_progress() {
    let mut e = piggyback_engine(0);
    e.on_init(Time(0));
    let (hash, block) = round2_block();
    e.on_message(ReplicaId(1), fast_votes(&[1, 2, 3], 2, hash), Time(1_000));
    assert!(!e.store().is_notarized(&hash));

    // A snapshot holding the block, not notarized.
    let mut peer = piggyback_engine(3);
    peer.on_init(Time(0));
    peer.on_message(ReplicaId(2), proposal_msg(block, None), Time(1_000));
    let snapshot = peer.snapshot();
    assert!(snapshot.blocks.iter().any(|(h, _)| *h == hash));
    assert!(!snapshot.notarized.contains(&hash));

    e.restore(&snapshot);
    // The next `progress` comes from an event about round 1 only.
    e.on_timer(TimerKind::NotarizeRank { round: 1, rank: 0 }, Time(2_000));
    assert!(
        e.store().is_notarized(&hash),
        "restore must mark the rounds whose blocks it may have brought"
    );
}
