//! Direct-drive unit tests for the HotStuff and Streamlet baseline
//! engines: commit rules, vote routing, pacemaker/epoch behavior.

use std::sync::Arc;

use banyan_core::hotstuff::HotStuffEngine;
use banyan_core::streamlet::StreamletEngine;
use banyan_crypto::beacon::{Beacon, BeaconMode};
use banyan_crypto::hashsig::HashSig;
use banyan_crypto::registry::KeyRegistry;
use banyan_types::app::FixedSizeSource;
use banyan_types::config::ProtocolConfig;
use banyan_types::engine::{Actions, Engine, Outbound, TimerKind};
use banyan_types::ids::{BlockHash, ReplicaId, Round};
use banyan_types::message::{HotStuffMsg, Message, StreamletMsg};
use banyan_types::time::{Duration, Time};

const N: usize = 4;
const SEED: u64 = 55;

fn registry(i: u16) -> KeyRegistry {
    KeyRegistry::generate(Arc::new(HashSig), SEED, N, i)
}

fn hotstuff(i: u16) -> HotStuffEngine {
    HotStuffEngine::new(
        ProtocolConfig::new(N, 1, 1).unwrap(),
        registry(i),
        Beacon::new(BeaconMode::RoundRobin, N),
        Box::new(FixedSizeSource::new(100, i)),
        Duration::from_secs(1),
    )
}

fn streamlet(i: u16) -> StreamletEngine {
    StreamletEngine::new(
        ProtocolConfig::new(N, 1, 1).unwrap(),
        registry(i),
        Beacon::new(BeaconMode::RoundRobin, N),
        Box::new(FixedSizeSource::new(100, i)),
        Duration::from_millis(200),
    )
}

/// Routes every outbound action of `from` into the other engines,
/// breadth-first, until quiescent or until any engine passes
/// `stop_round` (instant delivery lets pipelined protocols run forever).
/// Returns all commits produced.
fn settle(
    engines: &mut [Box<dyn Engine>],
    initial: Vec<(usize, Actions)>,
    now: Time,
    stop_round: u64,
) -> Vec<(usize, banyan_types::engine::CommitEntry)> {
    let mut commits = Vec::new();
    // FIFO so delivery (and therefore commit collection) stays in
    // generation order.
    let mut queue: std::collections::VecDeque<(usize, Actions)> = initial.into();
    while let Some((from, actions)) = queue.pop_front() {
        for c in actions.commits {
            commits.push((from, c));
        }
        if engines.iter().any(|e| e.current_round().0 > stop_round) {
            continue; // drain remaining actions without routing further
        }
        for out in actions.outbound {
            match out {
                Outbound::Broadcast(msg) => {
                    for (i, e) in engines.iter_mut().enumerate() {
                        if i != from {
                            let a = e.on_message(ReplicaId(from as u16), msg.clone(), now);
                            queue.push_back((i, a));
                        }
                    }
                }
                Outbound::Send(to, msg) => {
                    let a = engines[to.as_usize()].on_message(ReplicaId(from as u16), msg, now);
                    queue.push_back((to.as_usize(), a));
                }
            }
        }
    }
    commits
}

// ---------------------------------------------------------------------
// HotStuff
// ---------------------------------------------------------------------

#[test]
fn hotstuff_three_chain_commits_first_block() {
    let mut engines: Vec<Box<dyn Engine>> = (0..N as u16)
        .map(|i| Box::new(hotstuff(i)) as Box<dyn Engine>)
        .collect();
    let mut initial = Vec::new();
    for (i, e) in engines.iter_mut().enumerate() {
        initial.push((i, e.on_init(Time(0))));
    }
    let commits = settle(&mut engines, initial, Time(0), 12);
    // With instant delivery the pipeline commits several views: block of
    // view v commits once views v+1, v+2 certify on top (3-chain).
    assert!(!commits.is_empty(), "3-chain never committed");
    // Every replica commits view 1 first.
    let mut per_replica: std::collections::HashMap<usize, Vec<u64>> = Default::default();
    for (replica, c) in &commits {
        per_replica.entry(*replica).or_default().push(c.round.0);
    }
    for (replica, rounds) in per_replica {
        assert_eq!(rounds[0], 1, "replica {replica} must commit view 1 first");
        // Commit order is monotone.
        let mut sorted = rounds.clone();
        sorted.sort_unstable();
        assert_eq!(rounds, sorted, "replica {replica} committed out of order");
    }
}

#[test]
fn hotstuff_view_timeout_advances_pacemaker() {
    let mut e = hotstuff(0);
    e.on_init(Time(0));
    assert_eq!(e.current_round(), Round(1));
    // Nothing happens; the view-1 timeout fires.
    let actions = e.on_timer(TimerKind::ViewTimeout { view: 1 }, Time(1_000_000_000));
    // We are not the leader of view 2 (leader(2) = replica 1): a NewView
    // must be sent to it.
    let new_view_sent = actions.outbound.iter().any(|o| {
        matches!(
            o,
            Outbound::Send(
                ReplicaId(1),
                Message::HotStuff(HotStuffMsg::NewView { view: 1, .. })
            )
        )
    });
    assert!(new_view_sent, "pacemaker must inform the next leader");
    assert_eq!(e.current_round(), Round(2), "view advanced on timeout");
    // Stale timeout for view 1 is ignored now.
    let actions = e.on_timer(TimerKind::ViewTimeout { view: 1 }, Time(2_000_000_000));
    assert!(actions.outbound.is_empty());
}

#[test]
fn hotstuff_rejects_hollow_and_below_quorum_qcs() {
    // A QC whose aggregate is empty verifies trivially under every
    // signature scheme, so `verify_qc` must gate on popcount before the
    // cryptographic check. Genesis is the only legitimate hollow QC.
    let mut e = hotstuff(3);
    e.on_init(Time(0));
    let table = registry(0).table().clone();

    // A view-1 block we never received; its hash anchors the forged QCs.
    let reg0 = registry(0);
    let mut parent = banyan_types::Block {
        round: Round(1),
        proposer: ReplicaId(0),
        rank: banyan_types::Rank(0),
        parent: banyan_types::ids::BlockHash::ZERO,
        proposed_at: Time(0),
        payload: banyan_types::Payload::synthetic(100, 1),
        signature: banyan_crypto::Signature::zero(),
    };
    let parent_hash = parent.hash(64 * 1024);
    parent.signature = reg0.sign(&banyan_types::Block::signing_message(&parent_hash));

    // View-2 proposal from the legitimate leader (leader(2) = replica 1),
    // justified by a QC over the parent.
    let reg1 = registry(1);
    let proposal = |justify: banyan_types::certs::QuorumCert| {
        let mut block = banyan_types::Block {
            round: Round(2),
            proposer: ReplicaId(1),
            rank: banyan_types::Rank(0),
            parent: parent_hash,
            proposed_at: Time(0),
            payload: banyan_types::Payload::synthetic(100, 2),
            signature: banyan_crypto::Signature::zero(),
        };
        let hash = block.hash(64 * 1024);
        block.signature = reg1.sign(&banyan_types::Block::signing_message(&hash));
        Message::HotStuff(HotStuffMsg::Proposal { block, justify })
    };

    // Hollow QC: non-genesis, zero signers.
    let hollow = banyan_types::certs::QuorumCert {
        view: 1,
        block: parent_hash,
        agg: table.aggregate(&[]),
    };
    let vote_msg = banyan_types::certs::QuorumCert::signing_message(1, &parent_hash);
    assert!(
        table.verify_aggregate(&vote_msg, &hollow.agg),
        "footgun precondition: the empty aggregate verifies trivially"
    );
    let actions = e.on_message(ReplicaId(1), proposal(hollow), Time(1000));
    assert!(
        actions.outbound.is_empty(),
        "hollow QC must not attract a vote"
    );
    assert_eq!(
        e.current_round(),
        Round(1),
        "hollow QC must not advance the view"
    );

    // Below quorum (2 < n − f = 3) with genuine vote signatures.
    let votes: Vec<(u16, banyan_crypto::Signature)> = [0u16, 1]
        .iter()
        .map(|&v| (v, registry(v).sign(&vote_msg)))
        .collect();
    let weak = banyan_types::certs::QuorumCert {
        view: 1,
        block: parent_hash,
        agg: table.aggregate(&votes),
    };
    let actions = e.on_message(ReplicaId(1), proposal(weak), Time(1000));
    assert!(actions.outbound.is_empty());
    assert_eq!(e.current_round(), Round(1));

    // Positive control: a full 3-vote QC is accepted and draws our vote.
    let votes: Vec<(u16, banyan_crypto::Signature)> = [0u16, 1, 2]
        .iter()
        .map(|&v| (v, registry(v).sign(&vote_msg)))
        .collect();
    let full = banyan_types::certs::QuorumCert {
        view: 1,
        block: parent_hash,
        agg: table.aggregate(&votes),
    };
    let actions = e.on_message(ReplicaId(1), proposal(full), Time(1000));
    let voted = actions.outbound.iter().any(|o| {
        matches!(
            o,
            Outbound::Send(
                ReplicaId(2),
                Message::HotStuff(HotStuffMsg::Vote { view: 2, .. })
            )
        )
    });
    assert!(voted, "quorum QC must be accepted (control)");
    assert_eq!(e.current_round(), Round(2));
}

/// The view-1 blocks `actions` proposes and votes for, as two lists of
/// hashes.
fn view1_traffic(actions: &Actions) -> (Vec<BlockHash>, Vec<BlockHash>) {
    let (mut proposed, mut voted) = (Vec::new(), Vec::new());
    for out in &actions.outbound {
        let (Outbound::Broadcast(msg) | Outbound::Send(_, msg)) = out;
        match msg {
            Message::HotStuff(HotStuffMsg::Proposal { block, .. }) if block.round == Round(1) => {
                proposed.push(block.hash(64 * 1024));
            }
            Message::HotStuff(HotStuffMsg::Vote { view: 1, block, .. }) => voted.push(*block),
            _ => {}
        }
    }
    (proposed, voted)
}

/// Restarts `e` the way both drivers do: `snapshot()`, a fresh engine,
/// `restore()`, `on_init`.
fn restart_hotstuff(e: &HotStuffEngine, i: u16, now: Time) -> (HotStuffEngine, Actions) {
    let snapshot = e.snapshot();
    let mut fresh = hotstuff(i);
    fresh.restore(&snapshot);
    let actions = fresh.on_init(now);
    (fresh, actions)
}

/// A leader that restarts inside its own view proposes and votes in it
/// once: after the restart it neither broadcasts a second view-1 block
/// nor votes for one.
#[test]
fn hotstuff_restarted_leader_does_not_propose_twice_in_a_view() {
    let mut e = hotstuff(0);
    let (proposed, voted) = view1_traffic(&e.on_init(Time(0)));
    assert_eq!(proposed.len(), 1, "the view-1 leader proposes");
    assert_eq!(voted, proposed, "and votes for its own block");

    let (_, actions) = restart_hotstuff(&e, 0, Time(1_000_000));
    assert_eq!(
        view1_traffic(&actions),
        (Vec::new(), Vec::new()),
        "a restarted leader proposed or voted in view 1 again"
    );
}

/// A follower that voted in a view before a restart does not vote for a
/// conflicting proposal of that view after it.
#[test]
fn hotstuff_restarted_follower_does_not_vote_twice_in_a_view() {
    let reg0 = registry(0);
    let proposal = |seed: u64| {
        let mut block = banyan_types::Block {
            round: Round(1),
            proposer: ReplicaId(0),
            rank: banyan_types::Rank(0),
            parent: BlockHash::ZERO,
            proposed_at: Time(0),
            payload: banyan_types::Payload::synthetic(100, seed),
            signature: banyan_crypto::Signature::zero(),
        };
        let hash = block.hash(64 * 1024);
        block.signature = reg0.sign(&banyan_types::Block::signing_message(&hash));
        Message::HotStuff(HotStuffMsg::Proposal {
            block,
            justify: banyan_types::certs::QuorumCert::genesis(),
        })
    };
    let mut e = hotstuff(2);
    e.on_init(Time(0));
    let (_, voted) = view1_traffic(&e.on_message(ReplicaId(0), proposal(1), Time(1_000)));
    assert_eq!(voted.len(), 1, "the follower votes for the first proposal");

    let (mut e, _) = restart_hotstuff(&e, 2, Time(1_000_000));
    let (_, voted) = view1_traffic(&e.on_message(ReplicaId(0), proposal(2), Time(2_000_000)));
    assert!(
        voted.is_empty(),
        "a restarted follower voted for a second view-1 block"
    );
}

#[test]
fn hotstuff_ignores_foreign_messages() {
    let mut e = hotstuff(0);
    e.on_init(Time(0));
    let actions = e.on_message(
        ReplicaId(1),
        Message::Streamlet(StreamletMsg::Vote(banyan_types::vote::Vote {
            kind: banyan_types::vote::VoteKind::Notarize,
            round: Round(1),
            block: banyan_types::ids::BlockHash::ZERO,
            voter: ReplicaId(1),
            signature: banyan_crypto::Signature::zero(),
        })),
        Time(0),
    );
    assert!(actions.is_empty());
}

// ---------------------------------------------------------------------
// Streamlet
// ---------------------------------------------------------------------

#[test]
fn streamlet_commits_middle_of_three_consecutive_epochs() {
    let mut engines: Vec<Box<dyn Engine>> = (0..N as u16)
        .map(|i| Box::new(streamlet(i)) as Box<dyn Engine>)
        .collect();
    // Run epochs 1..=4 by firing the epoch timers manually with instant
    // message settlement inside each epoch.
    let mut all_commits = Vec::new();
    let epoch_len = 200u64; // ms
    for epoch in 1u64..=4 {
        let now = Time(Duration::from_millis(epoch_len * (epoch - 1)).as_nanos());
        let mut initial = Vec::new();
        for (i, e) in engines.iter_mut().enumerate() {
            let a = if epoch == 1 {
                e.on_init(now)
            } else {
                e.on_timer(TimerKind::EpochTick { epoch }, now)
            };
            initial.push((i, a));
        }
        all_commits.extend(settle(&mut engines, initial, now, u64::MAX));
    }
    // Epochs 1,2,3 notarized consecutively → epoch 2's block commits (and
    // epoch 1's as its ancestor); epoch 4 extends → epoch 3 commits.
    assert!(!all_commits.is_empty(), "no commits after 4 epochs");
    let rounds: std::collections::BTreeSet<u64> =
        all_commits.iter().map(|(_, c)| c.round.0).collect();
    assert!(rounds.contains(&1), "epoch-1 block committed (ancestor)");
    assert!(
        rounds.contains(&2),
        "epoch-2 block committed (middle of 1,2,3)"
    );
    assert!(!rounds.contains(&4), "epoch 4 cannot be final yet");
}

#[test]
fn streamlet_rejects_below_quorum_notarizations() {
    // Served certificates feed `adopt_notarization`, which must gate on
    // popcount before verifying: an empty aggregate passes verification
    // under every scheme.
    let mut e = streamlet(3);
    e.on_init(Time(0));
    // Deliver the epoch-1 leader proposal so the replica holds the block.
    let reg0 = registry(0);
    let mut block = banyan_types::Block {
        round: Round(1),
        proposer: ReplicaId(0),
        rank: banyan_types::Rank(0),
        parent: banyan_types::ids::BlockHash::ZERO,
        proposed_at: Time(0),
        payload: banyan_types::Payload::synthetic(100, 1),
        signature: banyan_crypto::Signature::zero(),
    };
    let hash = block.hash(64 * 1024);
    block.signature = reg0.sign(&banyan_types::Block::signing_message(&hash));
    e.on_message(
        ReplicaId(0),
        Message::Streamlet(StreamletMsg::Proposal { block }),
        Time(0),
    );

    let table = registry(0).table().clone();
    let serve = |e: &mut StreamletEngine| {
        let a = e.on_message(
            ReplicaId(1),
            Message::Sync(banyan_types::message::SyncMsg::RequestRange {
                from_round: Round(1),
                to_round: Round(1),
            }),
            Time(2000),
        );
        a.outbound.iter().any(|o| {
            matches!(
                o,
                Outbound::Send(
                    _,
                    Message::Sync(banyan_types::message::SyncMsg::ResponseBatch { .. })
                )
            )
        })
    };

    // Hollow certificate: zero signers, trivially verifying aggregate.
    let hollow = banyan_types::certs::Notarization {
        round: Round(1),
        block: hash,
        agg: table.aggregate(&[]),
        fast_agg: None,
    };
    e.on_message(
        ReplicaId(1),
        Message::Sync(banyan_types::message::SyncMsg::ResponseBatch {
            blocks: Vec::new(),
            notarizations: vec![hollow],
        }),
        Time(1000),
    );
    assert!(
        !serve(&mut e),
        "hollow notarization must not be adopted or re-served"
    );

    // Positive control: a genuine 3-vote certificate is adopted.
    let vote_msg = banyan_types::vote::Vote::signing_message(
        banyan_types::vote::VoteKind::Notarize,
        Round(1),
        &hash,
    );
    let votes: Vec<(u16, banyan_crypto::Signature)> = [0u16, 1, 2]
        .iter()
        .map(|&v| (v, registry(v).sign(&vote_msg)))
        .collect();
    let full = banyan_types::certs::Notarization {
        round: Round(1),
        block: hash,
        agg: table.aggregate(&votes),
        fast_agg: None,
    };
    e.on_message(
        ReplicaId(1),
        Message::Sync(banyan_types::message::SyncMsg::ResponseBatch {
            blocks: Vec::new(),
            notarizations: vec![full],
        }),
        Time(1000),
    );
    assert!(
        serve(&mut e),
        "quorum notarization must be adopted (control)"
    );
}

#[test]
fn streamlet_only_epoch_leader_proposals_accepted() {
    // Observe from replica 3; the leader of epoch 1 is replica 0
    // (round-robin over epoch − 1).
    let mut e = streamlet(3);
    e.on_init(Time(0));
    // A proposal for epoch 1 signed by replica 2 (leader is replica 0).
    let reg = registry(2);
    let mut block = banyan_types::Block {
        round: Round(1),
        proposer: ReplicaId(2),
        rank: banyan_types::Rank(0),
        parent: banyan_types::ids::BlockHash::ZERO,
        proposed_at: Time(0),
        payload: banyan_types::Payload::synthetic(100, 1),
        signature: banyan_crypto::Signature::zero(),
    };
    let hash = block.hash(64 * 1024);
    block.signature = reg.sign(&banyan_types::Block::signing_message(&hash));
    let actions = e.on_message(
        ReplicaId(2),
        Message::Streamlet(StreamletMsg::Proposal { block }),
        Time(0),
    );
    assert!(
        actions.outbound.is_empty(),
        "non-leader proposal must not attract a vote"
    );
}

#[test]
fn streamlet_votes_once_per_epoch() {
    // Replica 3 observes; epoch-1 leader is replica 0.
    let mut e = streamlet(3);
    e.on_init(Time(0));
    let reg = registry(0);
    let mk = |seed: u64| {
        let mut block = banyan_types::Block {
            round: Round(1),
            proposer: ReplicaId(0),
            rank: banyan_types::Rank(0),
            parent: banyan_types::ids::BlockHash::ZERO,
            proposed_at: Time(0),
            payload: banyan_types::Payload::synthetic(100, seed),
            signature: banyan_crypto::Signature::zero(),
        };
        let hash = block.hash(64 * 1024);
        block.signature = reg.sign(&banyan_types::Block::signing_message(&hash));
        block
    };
    let a1 = e.on_message(
        ReplicaId(0),
        Message::Streamlet(StreamletMsg::Proposal { block: mk(1) }),
        Time(0),
    );
    let voted1 = a1.outbound.iter().any(|o| {
        matches!(
            o,
            Outbound::Broadcast(Message::Streamlet(StreamletMsg::Vote(_)))
        )
    });
    assert!(voted1, "first leader proposal gets a vote");
    // An equivocating second proposal in the same epoch gets no vote.
    let a2 = e.on_message(
        ReplicaId(0),
        Message::Streamlet(StreamletMsg::Proposal { block: mk(2) }),
        Time(1),
    );
    let voted2 = a2.outbound.iter().any(|o| {
        matches!(
            o,
            Outbound::Broadcast(Message::Streamlet(StreamletMsg::Vote(_)))
        )
    });
    assert!(!voted2, "one vote per epoch");
}

/// A block of epoch `epoch` by `proposer` on genesis, signed by `signer`
/// (`None`: the zero signature).
fn streamlet_block(epoch: u64, proposer: u16, signer: Option<u16>) -> banyan_types::Block {
    let mut block = banyan_types::Block {
        round: Round(epoch),
        proposer: ReplicaId(proposer),
        rank: banyan_types::Rank(0),
        parent: BlockHash::ZERO,
        proposed_at: Time(0),
        payload: banyan_types::Payload::synthetic(100, 9),
        signature: banyan_crypto::Signature::zero(),
    };
    if let Some(signer) = signer {
        let hash = block.hash(ProtocolConfig::new(N, 1, 1).unwrap().payload_chunk);
        block.signature = registry(signer).sign(&banyan_types::Block::signing_message(&hash));
    }
    block
}

/// True if `e`'s store holds `block`.
fn streamlet_holds(e: &StreamletEngine, block: &banyan_types::Block) -> bool {
    e.snapshot().blocks.iter().any(|(_, b)| b == block)
}

/// A stored block far in the future — its epoch leader's, signed, as a
/// sync response is stored only then — does not stall the longest-chain
/// search the next proposal runs.
#[test]
fn streamlet_a_far_future_block_does_not_stall_the_next_proposal() {
    // Replica 1 leads epoch 2; replica 2 leads epoch u64::MAX.
    let mut e = streamlet(1);
    e.on_init(Time(0));
    let leader = Beacon::new(BeaconMode::RoundRobin, N).leader(u64::MAX - 1);
    let block = streamlet_block(u64::MAX, leader, Some(leader));
    e.on_message(
        ReplicaId(3),
        Message::Sync(banyan_types::message::SyncMsg::Response {
            block: block.clone(),
        }),
        Time(1_000),
    );
    assert!(streamlet_holds(&e, &block), "the signed block is stored");
    let now = Time(Duration::from_millis(200).as_nanos());
    let actions = e.on_timer(TimerKind::EpochTick { epoch: 2 }, now);
    let proposed = actions.outbound.iter().any(|o| {
        matches!(
            o,
            Outbound::Broadcast(Message::Streamlet(StreamletMsg::Proposal { .. }))
        )
    });
    assert!(proposed, "the epoch-2 leader proposes");
}

/// A sync reply's block passes the checks a proposal does: an unsigned
/// block, a block signed by someone other than its proposer and a block
/// whose proposer does not lead its epoch are not stored, in a single
/// `Response` or in a `ResponseBatch`; the epoch leader's signed block is.
#[test]
fn streamlet_stores_a_synced_block_only_after_a_proposals_checks() {
    use banyan_types::message::SyncMsg;
    // Replica 0 leads epoch 1 and proposes at init; replica 2 leads
    // epoch 3.
    let refused = [
        streamlet_block(3, 2, None),
        streamlet_block(3, 2, Some(1)),
        streamlet_block(3, 1, Some(1)),
    ];
    let signed = streamlet_block(3, 2, Some(2));
    for batched in [false, true] {
        let mut e = streamlet(1);
        e.on_init(Time(0));
        for block in refused.iter().chain([&signed]) {
            let block = block.clone();
            let msg = if batched {
                SyncMsg::ResponseBatch {
                    blocks: vec![block],
                    notarizations: vec![],
                }
            } else {
                SyncMsg::Response { block }
            };
            e.on_message(ReplicaId(3), Message::Sync(msg), Time(1_000));
        }
        for (k, block) in refused.iter().enumerate() {
            assert!(
                !streamlet_holds(&e, block),
                "batched {batched}: block {k} stored"
            );
        }
        assert!(
            streamlet_holds(&e, &signed),
            "batched {batched}: the leader's block"
        );
        assert_eq!(e.snapshot().blocks.len(), 1);
    }
}

// ---------------------------------------------------------------------
// Rounds from the wire
// ---------------------------------------------------------------------

/// A round or view number is a `u64` off the wire, and `u64::MAX` has no
/// successor: an engine handed one stays where it is rather than
/// overflow. HotStuff gets a `NewView` carrying the genesis QC and a
/// proposal signed by that view's leader, Streamlet restarts from a
/// stored block of that epoch, and the chained engine gets a proposal
/// and a vote of that round.
#[test]
fn u64_max_rounds_from_the_wire_never_panic_an_engine() {
    use banyan_core::chained::{ChainedEngine, PathMode};
    use banyan_types::certs::QuorumCert;
    use banyan_types::message::ChainedMsg;
    use banyan_types::vote::{Vote, VoteKind};
    const MAX: u64 = u64::MAX;
    let beacon = Beacon::new(BeaconMode::RoundRobin, N);

    // HotStuff: a NewView from any peer, at every replica.
    for i in 0..N as u16 {
        let mut e = hotstuff(i);
        e.on_init(Time(0));
        let new_view = HotStuffMsg::NewView {
            view: MAX,
            justify: QuorumCert::genesis(),
        };
        e.on_message(ReplicaId(3), Message::HotStuff(new_view), Time(1));
        assert_eq!(e.current_round(), Round(1), "replica {i} moved");
    }
    // HotStuff: the view's leader proposes in it, on the genesis QC. The
    // replica enters the view (how far one message may move it is not
    // bounded yet), casts no vote, and its timeout leaves it there.
    let leader = beacon.leader(MAX - 1);
    let mut block = streamlet_block(MAX, leader, None);
    let hash = block.hash(ProtocolConfig::new(N, 1, 1).unwrap().payload_chunk);
    block.signature = registry(leader).sign(&banyan_types::Block::signing_message(&hash));
    let mut e = hotstuff((leader + 1) % N as u16);
    e.on_init(Time(0));
    let proposal = HotStuffMsg::Proposal {
        block,
        justify: QuorumCert::genesis(),
    };
    let actions = e.on_message(ReplicaId(leader), Message::HotStuff(proposal), Time(1));
    assert!(actions.outbound.is_empty(), "a vote for view u64::MAX left");
    assert_eq!(e.current_round(), Round(MAX));
    let actions = e.on_timer(TimerKind::ViewTimeout { view: MAX }, Time(2));
    assert!(actions.outbound.is_empty() && actions.timers.is_empty());
    assert_eq!(e.current_round(), Round(MAX));

    // Streamlet: a replica that stored the epoch leader's block restarts
    // into that epoch and arms no tick past it.
    let leader = beacon.leader(MAX - 1);
    let mut e = streamlet((leader + 1) % N as u16);
    e.on_init(Time(0));
    let block = streamlet_block(MAX, leader, Some(leader));
    let response = banyan_types::message::SyncMsg::Response { block };
    e.on_message(ReplicaId(3), Message::Sync(response), Time(1));
    let mut restarted = streamlet((leader + 1) % N as u16);
    restarted.restore(&e.snapshot());
    let actions = restarted.on_init(Time(2));
    assert!(actions.timers.is_empty(), "a tick past epoch u64::MAX");
    assert_eq!(restarted.current_round(), Round(MAX));
    restarted.on_timer(TimerKind::EpochTick { epoch: MAX }, Time(3));
    assert_eq!(restarted.current_round(), Round(MAX));

    // The chained engine: the round's leader proposes on genesis, and a
    // peer votes in that round.
    let leader = beacon.leader(MAX);
    let mut block = streamlet_block(MAX, leader, None);
    let hash = block.hash(ProtocolConfig::new(N, 1, 1).unwrap().payload_chunk);
    block.signature = registry(leader).sign(&banyan_types::Block::signing_message(&hash));
    let replica = (leader + 1) % N as u16;
    let mut e = ChainedEngine::new(
        ProtocolConfig::new(N, 1, 1).unwrap(),
        PathMode::Banyan,
        registry(replica),
        beacon.clone(),
        Box::new(FixedSizeSource::new(100, replica)),
    );
    e.on_init(Time(0));
    let proposal = ChainedMsg::Proposal {
        block,
        parent_notarization: None,
        parent_unlock: None,
        fast_vote: None,
    };
    e.on_message(ReplicaId(leader), Message::Chained(proposal), Time(1));
    let voter = (leader + 2) % N as u16;
    let vote = Vote {
        kind: VoteKind::Notarize,
        round: Round(MAX),
        block: hash,
        voter: ReplicaId(voter),
        signature: registry(voter).sign(&Vote::signing_message(
            VoteKind::Notarize,
            Round(MAX),
            &hash,
        )),
    };
    e.on_message(
        ReplicaId(voter),
        Message::Chained(ChainedMsg::Votes(vec![vote])),
        Time(2),
    );
    assert!(
        e.current_round() < Round(MAX),
        "one proposal moved the replica"
    );
}
