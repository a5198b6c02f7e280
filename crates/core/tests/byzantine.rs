//! Safety and liveness under Byzantine behavior.
//!
//! The paper's safety argument (§8.2) must hold against the adversaries it
//! reasons about: equivocating leaders (Lemma 8.1's two-rank-0-blocks
//! scenario, Remark 7.3) and double fast-voters (Lemma 8.5's counting
//! argument). Every test runs the full protocol through the simulator
//! with the global safety auditor attached.

use std::sync::Arc;

use banyan_core::builder::ClusterBuilder;
use banyan_core::chained::{ByzantineMode, ChainedEngine, PathMode};
use banyan_crypto::beacon::{Beacon, BeaconMode};
use banyan_crypto::hashsig::HashSig;
use banyan_crypto::registry::KeyRegistry;
use banyan_crypto::Signature;
use banyan_simnet::faults::FaultPlan;
use banyan_simnet::sim::{SimConfig, Simulation};
use banyan_simnet::topology::Topology;
use banyan_types::app::FixedSizeSource;
use banyan_types::block::Block;
use banyan_types::certs::{FinalKind, Finalization};
use banyan_types::config::ProtocolConfig;
use banyan_types::engine::Engine;
use banyan_types::ids::{BlockHash, Rank, ReplicaId, Round};
use banyan_types::message::{ChainedMsg, Message, SyncMsg};
use banyan_types::payload::Payload;
use banyan_types::time::{Duration, Time};
use banyan_types::vote::{Vote, VoteKind};

fn secs(s: u64) -> Time {
    Time(Duration::from_secs(s).as_nanos())
}

fn run_with_byz(
    protocol: &str,
    n: usize,
    f: usize,
    p: usize,
    byz: &[(u16, ByzantineMode)],
    run_secs: u64,
    seed: u64,
) -> Simulation {
    let topo = Topology::uniform(n, Duration::from_millis(10));
    let mut builder = ClusterBuilder::new(n, f, p)
        .unwrap()
        .delta(Duration::from_millis(20))
        .payload_size(500);
    for (replica, mode) in byz {
        builder = builder.byzantine(*replica, mode.clone());
    }
    let engines: Vec<Box<dyn Engine>> = builder.build(protocol);
    let mut sim = Simulation::new(topo, engines, FaultPlan::none(), SimConfig::with_seed(seed));
    sim.run_until(secs(run_secs));
    sim
}

#[test]
fn equivocating_leader_cannot_break_banyan_safety() {
    for seed in [1u64, 2, 3] {
        let sim = run_with_byz(
            "banyan",
            4,
            1,
            1,
            &[(0, ByzantineMode::EquivocateLeader)],
            10,
            seed,
        );
        assert!(
            sim.auditor().is_safe(),
            "seed {seed}: {:?}",
            sim.auditor().violations()
        );
        // Liveness: the protocol keeps finalizing despite the equivocator
        // leading every 4th round.
        assert!(
            sim.auditor().committed_rounds() > 30,
            "seed {seed}: only {} rounds",
            sim.auditor().committed_rounds()
        );
    }
}

#[test]
fn equivocating_leader_cannot_break_icc_safety() {
    let sim = run_with_byz(
        "icc",
        4,
        1,
        1,
        &[(0, ByzantineMode::EquivocateLeader)],
        10,
        1,
    );
    assert!(sim.auditor().is_safe(), "{:?}", sim.auditor().violations());
    assert!(sim.auditor().committed_rounds() > 30);
}

#[test]
fn equivocating_leader_with_larger_cluster() {
    // n = 7, f = 2, p = 1: two equivocators.
    let sim = run_with_byz(
        "banyan",
        7,
        2,
        1,
        &[
            (0, ByzantineMode::EquivocateLeader),
            (1, ByzantineMode::EquivocateLeader),
        ],
        10,
        5,
    );
    assert!(sim.auditor().is_safe(), "{:?}", sim.auditor().violations());
    assert!(sim.auditor().committed_rounds() > 20);
}

#[test]
fn double_fast_voter_cannot_break_safety() {
    let sim = run_with_byz(
        "banyan",
        4,
        1,
        1,
        &[(2, ByzantineMode::DoubleFastVote)],
        10,
        7,
    );
    assert!(sim.auditor().is_safe(), "{:?}", sim.auditor().violations());
    assert!(sim.auditor().committed_rounds() > 30);
}

#[test]
fn equivocator_plus_double_voter_mixed() {
    // n = 7, f = 2: one equivocating leader AND one double fast-voter.
    let sim = run_with_byz(
        "banyan",
        7,
        2,
        1,
        &[
            (0, ByzantineMode::EquivocateLeader),
            (3, ByzantineMode::DoubleFastVote),
        ],
        10,
        11,
    );
    assert!(sim.auditor().is_safe(), "{:?}", sim.auditor().violations());
    assert!(sim.auditor().committed_rounds() > 20);
}

#[test]
fn silent_leader_does_not_stall_progress() {
    // A silent leader forces the rank-1 proposer path (Δ_prop(1) = 2Δ)
    // every time its turn comes; chain growth must continue (deadlock
    // freeness, Theorem 8.2).
    for protocol in ["banyan", "icc"] {
        let sim = run_with_byz(
            protocol,
            4,
            1,
            1,
            &[(1, ByzantineMode::SilentLeader)],
            10,
            3,
        );
        assert!(sim.auditor().is_safe());
        assert!(
            sim.auditor().committed_rounds() > 30,
            "{protocol}: {} rounds",
            sim.auditor().committed_rounds()
        );
    }
}

#[test]
fn fast_path_survives_byzantine_minority_with_p_equals_f() {
    // With p = f = 1 and n = 4, the fast path tolerates one unresponsive
    // replica given an honest leader (Theorem 8.8). A silent (non-leader)
    // replica must not prevent FP-finalization in other leaders' rounds.
    let sim = run_with_byz(
        "banyan",
        4,
        1,
        1,
        &[(3, ByzantineMode::SilentLeader)],
        10,
        9,
    );
    assert!(sim.auditor().is_safe());
    let metrics = sim.metrics();
    let fast = metrics.fast_path_share(banyan_types::ids::ReplicaId(0));
    assert!(
        fast > 0.5,
        "fast path should fire in most rounds despite one silent leader; got {fast}"
    );
}

#[test]
fn equivocation_under_wan_topology() {
    // Same adversary on the realistic 4-datacenter topology.
    let topo = Topology::four_global_4();
    let engines = ClusterBuilder::new(4, 1, 1)
        .unwrap()
        .delta(topo.max_one_way() + Duration::from_millis(10))
        .payload_size(10_000)
        .byzantine(0, ByzantineMode::EquivocateLeader)
        .build_banyan();
    let mut sim = Simulation::new(topo, engines, FaultPlan::none(), SimConfig::with_seed(13));
    sim.run_until(secs(15));
    assert!(sim.auditor().is_safe(), "{:?}", sim.auditor().violations());
    assert!(sim.auditor().committed_rounds() > 10);
}

#[test]
fn partition_heals_and_progress_resumes() {
    // Asynchrony period: a 2/2 partition for 3 s (no quorum on either
    // side), then healing. Safety throughout; progress after healing.
    let topo = Topology::uniform(4, Duration::from_millis(10));
    let engines = ClusterBuilder::new(4, 1, 1)
        .unwrap()
        .delta(Duration::from_millis(20))
        .payload_size(500)
        .build_banyan();
    use banyan_types::ids::ReplicaId;
    let faults = FaultPlan::none().partition(
        vec![ReplicaId(0), ReplicaId(1)],
        vec![ReplicaId(2), ReplicaId(3)],
        secs(2),
        secs(5),
    );
    let mut sim = Simulation::new(topo, engines, faults, SimConfig::with_seed(21));
    sim.run_until(secs(2));
    let before = sim.auditor().committed_rounds();
    sim.run_until(secs(5));
    let during = sim.auditor().committed_rounds();
    // No quorum during the partition ⇒ no *new* explicit finalizations
    // (a few in-flight ones may land).
    assert!(
        during <= before + 3,
        "before {before}, during partition {during}"
    );
    sim.run_until(secs(12));
    let after = sim.auditor().committed_rounds();
    assert!(sim.auditor().is_safe(), "{:?}", sim.auditor().violations());
    assert!(after > during + 30, "progress resumed: {during} -> {after}");
}

/// Addition 4 admits only rank-0 blocks to FP-finalization. When the
/// leader is silent, honest replicas fast-vote the rank-1 block, so one
/// Byzantine aggregator can build an `n − p` fast certificate for it. If
/// that certificate arrives before the block, it is parked; the rank
/// check must still apply when the block arrives and the parked
/// certificate is retried.
#[test]
fn parked_fast_certificate_for_a_higher_rank_block_never_commits() {
    const N: usize = 4;
    let cfg = ProtocolConfig::new(N, 1, 1)
        .unwrap()
        .with_delta(Duration::from_millis(100));
    let registry = |i: u16| KeyRegistry::generate(Arc::new(HashSig), 77, N, i);
    let beacon = Beacon::new(BeaconMode::RoundRobin, N);
    let mut e = ChainedEngine::new(
        cfg.clone(),
        PathMode::Banyan,
        registry(0),
        beacon.clone(),
        Box::new(FixedSizeSource::new(1_000, 0)),
    );
    e.on_init(Time(0));

    // Round 1: replica 1 leads (and stays silent); replica 2 has rank 1.
    assert_eq!(beacon.rank(1, 2), 1);
    let mut block = Block {
        round: Round(1),
        proposer: ReplicaId(2),
        rank: Rank(1),
        parent: BlockHash::ZERO,
        proposed_at: Time(0),
        payload: Payload::synthetic(1_000, 1),
        signature: Signature::zero(),
    };
    let hash = block.hash(cfg.payload_chunk);
    block.signature = registry(2).sign(&Block::signing_message(&hash));
    let votes: Vec<(u16, Signature)> = [1u16, 2, 3]
        .iter()
        .map(|&v| {
            let msg = Vote::signing_message(VoteKind::Fast, Round(1), &hash);
            (v, registry(v).sign(&msg))
        })
        .collect();
    let cert = Finalization {
        round: Round(1),
        block: hash,
        kind: FinalKind::Fast,
        agg: registry(0).table().aggregate(&votes),
    };

    let early = e.on_message(
        ReplicaId(3),
        Message::Chained(ChainedMsg::Final(cert)),
        Time(1_000),
    );
    assert!(early.commits.is_empty(), "no block yet: the cert is parked");

    let late = e.on_message(
        ReplicaId(2),
        Message::Sync(SyncMsg::Response { block }),
        Time(2_000),
    );
    assert!(e.store().contains(&hash));
    assert!(
        !late.commits.iter().any(|c| c.fast),
        "a rank-1 block was fast-committed: {:?}",
        late.commits
    );
    assert_eq!(e.finalized_round(), Round::GENESIS);
}
