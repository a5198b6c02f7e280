//! Integration tests of the simulator's network model: the quantitative
//! behaviors the experiment harnesses rely on.

use banyan_core::builder::ClusterBuilder;
use banyan_simnet::faults::FaultPlan;
use banyan_simnet::sim::{SimConfig, Simulation};
use banyan_simnet::topology::Topology;
use banyan_types::engine::Engine;
use banyan_types::ids::ReplicaId;
use banyan_types::time::{Duration, Time};

fn secs(s: u64) -> Time {
    Time(Duration::from_secs(s).as_nanos())
}

fn banyan(n: usize, payload: u64, topo: Topology, seed: u64) -> Simulation {
    let delta = topo.max_one_way() + Duration::from_millis(5);
    let engines: Vec<Box<dyn Engine>> = ClusterBuilder::new(n, 1, 1)
        .unwrap()
        .delta(delta)
        .payload_size(payload)
        .build_banyan();
    Simulation::new(topo, engines, FaultPlan::none(), SimConfig::with_seed(seed))
}

/// Latency must scale with payload size once serialization dominates:
/// broadcasting a B-byte block to n−1 peers costs (n−1)·8B/bandwidth on
/// the proposer's uplink before propagation even starts.
#[test]
fn latency_grows_with_payload_via_egress_serialization() {
    let topo = Topology::uniform(4, Duration::from_millis(10));
    let mut small = banyan(4, 10_000, topo.clone(), 1);
    small.run_until(secs(10));
    let mut big = banyan(4, 2_000_000, topo, 1);
    big.run_until(secs(10));
    let small_ms = small.metrics().proposer_latency_stats().mean_ms;
    let big_ms = big.metrics().proposer_latency_stats().mean_ms;
    // 2 MB × 3 peers at 1 Gbit/s = 48 ms of serialization alone.
    assert!(
        big_ms > small_ms + 30.0,
        "2MB blocks ({big_ms:.1} ms) should cost ≫ 10KB blocks ({small_ms:.1} ms)"
    );
}

/// Throughput in committed bytes scales with block size (until
/// saturation), at roughly constant round rate.
#[test]
fn throughput_scales_with_block_size() {
    let topo = Topology::uniform(4, Duration::from_millis(10));
    let tp = |payload: u64| {
        let mut sim = banyan(
            4,
            payload,
            Topology::uniform(4, Duration::from_millis(10)),
            2,
        );
        sim.run_until(secs(10));
        sim.metrics().throughput_bps(ReplicaId(0))
    };
    let t1 = tp(50_000);
    let t2 = tp(500_000);
    assert!(
        t2 > 5.0 * t1,
        "10x block size should give ≫5x throughput: {t1:.0} vs {t2:.0}"
    );
    let _ = topo;
}

/// A straggler link slows the fast path (which needs n − p = all-but-one
/// replicas) more than it slows the ICC slow path (which can use the
/// closest quorum) — the paper's core topology-sensitivity observation.
#[test]
fn straggler_hurts_fast_path_more_than_slow_path() {
    let run = |protocol: &str| {
        let topo = Topology::uniform(4, Duration::from_millis(10));
        let engines: Vec<Box<dyn Engine>> = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .delta(Duration::from_millis(120))
            .payload_size(1_000)
            .build(protocol);
        // Replica 3 is 80 ms away from everyone (both directions).
        let mut faults = FaultPlan::none();
        for other in 0..3u16 {
            faults = faults
                .link_delay(
                    ReplicaId(3),
                    ReplicaId(other),
                    Duration::from_millis(70),
                    Time::ZERO,
                    secs(100),
                )
                .link_delay(
                    ReplicaId(other),
                    ReplicaId(3),
                    Duration::from_millis(70),
                    Time::ZERO,
                    secs(100),
                );
        }
        let mut sim = Simulation::new(topo, engines, faults, SimConfig::with_seed(3));
        sim.run_until(secs(15));
        assert!(sim.auditor().is_safe());
        sim.metrics().proposer_latency_stats().mean_ms
    };
    let banyan_ms = run("banyan");
    let icc_ms = run("icc");
    // With the straggler, Banyan's FP quorum includes replica 3, so its
    // advantage shrinks or inverts; it must at least lose its usual 33%
    // lead. (Banyan never does *worse* than its own slow path, which is
    // ICC — allow measurement noise.)
    assert!(
        banyan_ms > icc_ms * 0.66,
        "straggler should erode the fast-path advantage: banyan {banyan_ms:.1} vs icc {icc_ms:.1}"
    );
}

/// Zero-jitter runs are exactly reproducible and vary under different
/// jitter seeds.
#[test]
fn jitter_seeds_shift_latencies() {
    let run = |seed: u64| {
        let mut sim = banyan(4, 10_000, Topology::four_global_4(), seed);
        sim.run_until(secs(5));
        sim.metrics().proposer_latency_stats().mean_ms
    };
    let a = run(1);
    let b = run(1);
    let c = run(99);
    assert_eq!(a, b, "same seed, same mean");
    assert_ne!(a, c, "different seed should shift jitter");
}

/// The paper's three testbeds produce ordered latencies: US < 4-global
/// clustered < 19-datacenter global (for the same protocol and payload).
#[test]
fn testbed_ordering_matches_geography() {
    let run = |topo: Topology| {
        let n = topo.n();
        let delta = topo.max_one_way() + Duration::from_millis(5);
        let engines: Vec<Box<dyn Engine>> = ClusterBuilder::new(n, 6, 1)
            .unwrap()
            .delta(delta)
            .payload_size(10_000)
            .build_banyan();
        let mut sim = Simulation::new(topo, engines, FaultPlan::none(), SimConfig::with_seed(4));
        sim.run_until(secs(10));
        assert!(sim.auditor().is_safe());
        sim.metrics().proposer_latency_stats().mean_ms
    };
    let us = run(Topology::four_us_19());
    let global4 = run(Topology::four_global_19());
    let global19 = run(Topology::nineteen_global());
    assert!(
        us < global4,
        "US testbed ({us:.1}) should beat 4-global ({global4:.1})"
    );
    assert!(
        global4 < global19 * 1.2,
        "4-global ({global4:.1}) ≲ 19-global ({global19:.1})"
    );
}

/// A broadcast block with an inline payload is one buffer for the whole
/// simulation: the copies `transmit_broadcast` hands the receivers, the
/// blocks in their stores and the payloads in their `CommitEntry`s all
/// share the proposer's allocation (and with it the commitment memo, so
/// the Merkle walk runs once per block, not once per receipt).
#[test]
fn broadcast_inline_payload_is_one_allocation_everywhere() {
    use banyan_types::app::{ProposalContext, ProposalSource};
    use banyan_types::payload::Payload;
    use std::collections::HashMap;

    struct InlineSource(u16);
    impl ProposalSource for InlineSource {
        fn next_payload(&mut self, ctx: &ProposalContext) -> Payload {
            let mut bytes = vec![self.0 as u8; 4096];
            bytes[..8].copy_from_slice(&ctx.round.0.to_le_bytes());
            Payload::inline(bytes)
        }
    }

    let n = 4;
    let topo = Topology::uniform(n, Duration::from_millis(10));
    let engines: Vec<Box<dyn Engine>> = ClusterBuilder::new(n, 1, 1)
        .unwrap()
        .delta(Duration::from_millis(15))
        .proposal_sources(|i| Box::new(InlineSource(i)))
        .build_banyan();
    let mut sim = Simulation::new(topo, engines, FaultPlan::none(), SimConfig::with_seed(5));
    sim.run_until(secs(2));
    assert!(sim.auditor().is_safe());

    // Commit entries: every replica's entry for a block shares one buffer.
    let mut by_block: HashMap<_, Vec<&Payload>> = HashMap::new();
    for c in &sim.metrics().commits {
        by_block
            .entry(c.entry.block)
            .or_default()
            .push(&c.entry.payload);
    }
    let everywhere: Vec<_> = by_block.iter().filter(|(_, ps)| ps.len() == n).collect();
    assert!(
        everywhere.len() > 5,
        "too few rounds committed at all replicas"
    );
    for (hash, payloads) in &everywhere {
        assert_eq!(payloads[0].len(), 4096);
        for p in &payloads[1..] {
            assert!(p.ptr_eq(payloads[0]), "commit of {hash:?} holds a copy");
        }
    }
    // Stores: what each replica adopted off the wire (or minted) is that
    // same buffer too.
    for r in 0..n as u16 {
        let snap = sim.engine(ReplicaId(r)).snapshot();
        for (hash, payloads) in &everywhere {
            let (_, block) = snap
                .blocks
                .iter()
                .find(|(h, _)| h == *hash)
                .expect("committed block is stored");
            assert!(
                block.payload.ptr_eq(payloads[0]),
                "replica {r} stores a copy of {hash:?}"
            );
        }
    }
}
