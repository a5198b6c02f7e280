//! End-to-end simulation tests: every engine, driven by `banyan-simnet`,
//! must finalize blocks, agree across replicas, and exhibit the paper's
//! headline property — Banyan finalizing in ~2δ vs ICC's ~3δ.

use std::cell::Cell;
use std::rc::Rc;

use banyan_core::builder::ClusterBuilder;
use banyan_simnet::faults::FaultPlan;
use banyan_simnet::sim::{SimConfig, Simulation};
use banyan_simnet::topology::Topology;
use banyan_storage::WalStore;
use banyan_types::ids::ReplicaId;
use banyan_types::time::{Duration, Time};

fn secs(s: u64) -> Time {
    Time(Duration::from_secs(s).as_nanos())
}

/// Runs `protocol` on a uniform-δ topology and returns the mean proposer
/// latency in ms plus the simulation for further checks.
fn run_uniform(
    protocol: &str,
    n: usize,
    f: usize,
    p: usize,
    one_way_ms: u64,
    run_secs: u64,
    seed: u64,
) -> Simulation {
    let topo = Topology::uniform(n, Duration::from_millis(one_way_ms));
    let delta = Duration::from_millis(one_way_ms * 3 / 2); // Δ > δ (§9.2)
    let engines = ClusterBuilder::new(n, f, p)
        .unwrap()
        .delta(delta)
        .payload_size(1_000) // small payloads: isolate propagation delay
        .build(protocol);
    let mut sim = Simulation::new(topo, engines, FaultPlan::none(), SimConfig::with_seed(seed));
    sim.run_until(secs(run_secs));
    sim
}

#[test]
fn banyan_finalizes_and_agrees() {
    let sim = run_uniform("banyan", 4, 1, 1, 10, 5, 1);
    let m = sim.metrics();
    assert!(
        sim.auditor().is_safe(),
        "violations: {:?}",
        sim.auditor().violations()
    );
    let stats = m.proposer_latency_stats();
    assert!(
        stats.count > 20,
        "expected steady commits, got {}",
        stats.count
    );
    assert!(sim.auditor().committed_rounds() > 20);
}

#[test]
fn icc_finalizes_and_agrees() {
    let sim = run_uniform("icc", 4, 1, 1, 10, 5, 1);
    assert!(sim.auditor().is_safe());
    let stats = sim.metrics().proposer_latency_stats();
    assert!(
        stats.count > 20,
        "expected steady commits, got {}",
        stats.count
    );
}

#[test]
fn hotstuff_finalizes_and_agrees() {
    let sim = run_uniform("hotstuff", 4, 1, 1, 10, 5, 1);
    assert!(sim.auditor().is_safe());
    let stats = sim.metrics().proposer_latency_stats();
    assert!(
        stats.count > 10,
        "expected steady commits, got {}",
        stats.count
    );
}

#[test]
fn streamlet_finalizes_and_agrees() {
    let sim = run_uniform("streamlet", 4, 1, 1, 10, 5, 1);
    assert!(sim.auditor().is_safe());
    let stats = sim.metrics().proposer_latency_stats();
    assert!(
        stats.count > 5,
        "expected steady commits, got {}",
        stats.count
    );
}

/// The headline result (Fig. 1): with a uniform one-way delay δ and
/// negligible payload, Banyan FP-finalizes in ≈ 2δ while ICC needs ≈ 3δ.
#[test]
fn banyan_two_steps_icc_three_steps() {
    let one_way = 50u64; // ms
    let banyan = run_uniform("banyan", 4, 1, 1, one_way, 20, 7);
    let icc = run_uniform("icc", 4, 1, 1, one_way, 20, 7);

    let b = banyan.metrics().proposer_latency_stats();
    let i = icc.metrics().proposer_latency_stats();
    assert!(
        b.count > 30 && i.count > 30,
        "banyan {} icc {}",
        b.count,
        i.count
    );

    // Banyan ≈ 2δ = 100 ms (allow jitter + tx time).
    assert!(
        (95.0..130.0).contains(&b.mean_ms),
        "banyan mean {:.1} ms, expected ≈ 2δ = 100 ms",
        b.mean_ms
    );
    // ICC ≈ 3δ = 150 ms.
    assert!(
        (145.0..185.0).contains(&i.mean_ms),
        "icc mean {:.1} ms, expected ≈ 3δ = 150 ms",
        i.mean_ms
    );
    // All Banyan explicit commits should be fast-path here.
    let share = banyan.metrics().fast_path_share(ReplicaId(0));
    assert!(share > 0.9, "fast-path share {share}");
}

/// With every replica honest and synchronous, the fast path fires every
/// round at every replica; ICC never uses it.
#[test]
fn fast_path_share_is_zero_for_icc() {
    let icc = run_uniform("icc", 4, 1, 1, 10, 5, 3);
    assert_eq!(icc.metrics().fast_path_share(ReplicaId(2)), 0.0);
}

/// Determinism: identical seeds ⇒ identical commit streams.
#[test]
fn same_seed_reproduces_run_exactly() {
    let a = run_uniform("banyan", 4, 1, 1, 10, 3, 99);
    let b = run_uniform("banyan", 4, 1, 1, 10, 3, 99);
    let key = |sim: &Simulation| {
        sim.metrics()
            .commits
            .iter()
            .map(|c| {
                (
                    c.replica.0,
                    c.entry.round.0,
                    c.entry.block,
                    c.entry.committed_at.0,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&a), key(&b));
}

/// Larger cluster: the paper's n = 19, f = 6, p = 1 scenario on the
/// 4-datacenter WAN topology.
#[test]
fn nineteen_replicas_four_datacenters() {
    let topo = Topology::four_global_19();
    let delta = topo.max_one_way() + Duration::from_millis(10);
    let engines = ClusterBuilder::new(19, 6, 1)
        .unwrap()
        .delta(delta)
        .payload_size(10_000)
        .build_banyan();
    let mut sim = Simulation::new(topo, engines, FaultPlan::none(), SimConfig::with_seed(5));
    sim.run_until(secs(20));
    assert!(
        sim.auditor().is_safe(),
        "violations: {:?}",
        sim.auditor().violations()
    );
    let stats = sim.metrics().proposer_latency_stats();
    assert!(stats.count > 20, "commits: {}", stats.count);
    assert!(stats.mean_ms > 0.0);
}

/// Crash faults (§9.4): with up to f crashed replicas, both ICC and Banyan
/// stay live (chain keeps growing) and safe.
#[test]
fn liveness_under_crashes() {
    for protocol in ["banyan", "icc"] {
        let topo = Topology::uniform(4, Duration::from_millis(10));
        let engines = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .delta(Duration::from_millis(20))
            .payload_size(100)
            .build(protocol);
        // Crash replica 3 at t = 1 s (it will be leader periodically).
        let faults = FaultPlan::none().crash(ReplicaId(3), secs(1));
        let mut sim = Simulation::new(topo, engines, faults, SimConfig::with_seed(11));
        sim.run_until(secs(10));
        assert!(sim.auditor().is_safe(), "{protocol}: unsafe");
        // Progress continued well past the crash.
        let max_round = sim.metrics().max_committed_round().unwrap();
        assert!(
            max_round.0 > 50,
            "{protocol}: expected continued progress, max round {max_round}"
        );
    }
}

/// Crash-and-rejoin (`Fault::Restart`): a replica torn down mid-run is
/// rebuilt from its durable snapshot, catches up over driver-driven
/// ranged sync, and commits new blocks — for every engine. The crash
/// drops the engine to a tombstone (volatile state gone), so the
/// snapshot-restore path is the only way back.
#[test]
fn restart_recovers_and_commits_for_every_engine() {
    for protocol in ["banyan", "icc", "hotstuff", "streamlet"] {
        let topo = Topology::uniform(4, Duration::from_millis(10));
        let builder = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .delta(Duration::from_millis(20))
            .payload_size(100);
        let engines = builder.build(protocol);
        let faults = FaultPlan::none().restart(ReplicaId(2), secs(2), secs(4));
        let mut sim = Simulation::new(topo, engines, faults, SimConfig::with_seed(13));
        let rebuild = builder.clone();
        let proto = protocol.to_string();
        sim.set_restart_builder(Box::new(move |replica, snapshot| {
            let mut engine = rebuild.build_replica(&proto, replica.0);
            engine.restore(snapshot);
            engine
        }));
        sim.run_until(secs(10));
        assert!(sim.auditor().is_safe(), "{protocol}: unsafe across restart");
        let m = sim.metrics();
        assert!(m.sync_requests > 0, "{protocol}: catch-up never probed");
        assert!(
            m.restart_recovery_ms > 0,
            "{protocol}: recovery never completed"
        );
        // The replica was genuinely down …
        assert!(
            !m.commits.iter().any(|c| {
                c.replica == ReplicaId(2)
                    && c.entry.committed_at > secs(2)
                    && c.entry.committed_at < secs(4)
            }),
            "{protocol}: tombstone replica committed while crashed"
        );
        // … and commits again after rejoining.
        assert!(
            m.commits
                .iter()
                .any(|c| c.replica == ReplicaId(2) && c.entry.committed_at > secs(4)),
            "{protocol}: replica 2 never committed after rejoining"
        );
    }
}

/// Restart runs replay bit-for-bit from the same seed — the event
/// pipeline (crash, snapshot, rebuild, catch-up) is fully deterministic.
#[test]
fn restart_run_is_deterministic() {
    let run = || {
        let topo = Topology::uniform(4, Duration::from_millis(10));
        let builder = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .delta(Duration::from_millis(20))
            .payload_size(100);
        let engines = builder.build("banyan");
        let faults = FaultPlan::none().restart(ReplicaId(1), secs(1), secs(3));
        let mut sim = Simulation::new(topo, engines, faults, SimConfig::with_seed(23));
        let rebuild = builder.clone();
        sim.set_restart_builder(Box::new(move |replica, snapshot| {
            let mut engine = rebuild.build_replica("banyan", replica.0);
            engine.restore(snapshot);
            engine
        }));
        sim.run_until(secs(6));
        sim.metrics()
            .commits
            .iter()
            .map(|c| {
                (
                    c.replica.0,
                    c.entry.round.0,
                    c.entry.block,
                    c.entry.committed_at.0,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// The baselines recover from their own write-ahead log: every replica's
/// chain store is a `WalStore`, and the restart builder ignores the crash
/// snapshot and reopens the log. The reopened engine holds exactly what
/// the crashed one did, and the run stays safe and finishes its recovery.
#[test]
fn wal_backed_restart_reopens_the_log_for_the_baselines() {
    for protocol in ["hotstuff", "streamlet"] {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("wal-restart")
            .join(protocol);
        let _ = std::fs::remove_dir_all(&dir);
        let builder = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .delta(Duration::from_millis(20))
            .payload_size(100)
            .chain_stores(move |i| {
                Box::new(WalStore::open(dir.join(i.to_string())).expect("open the replica's log"))
            });
        let engines = builder.build(protocol);
        let faults = FaultPlan::none().restart(ReplicaId(2), secs(2), secs(4));
        let topo = Topology::uniform(4, Duration::from_millis(10));
        let mut sim = Simulation::new(topo, engines, faults, SimConfig::with_seed(13));
        let rebuilds = Rc::new(Cell::new(0));
        let seen = Rc::clone(&rebuilds);
        let proto = protocol.to_string();
        sim.set_restart_builder(Box::new(move |replica, crashed| {
            let engine = builder.build_replica(&proto, replica.0);
            assert!(
                !crashed.blocks.is_empty(),
                "{proto}: nothing stored by the crash"
            );
            assert!(
                engine.snapshot() == *crashed,
                "{proto}: the reopened log differs from the crashed engine's state"
            );
            seen.set(seen.get() + 1);
            engine
        }));
        sim.run_until(secs(10));
        assert_eq!(rebuilds.get(), 1, "{protocol}: replica 2 was never rebuilt");
        assert!(sim.auditor().is_safe(), "{protocol}: unsafe across restart");
        assert!(
            sim.metrics().restart_recovery_ms > 0,
            "{protocol}: recovery never completed"
        );
    }
}

/// Without a restart builder a `Fault::Restart` replica stays down after
/// `rejoin_at` — restart-from-durable-state is the only recovery path.
#[test]
fn restart_without_builder_stays_down() {
    let topo = Topology::uniform(4, Duration::from_millis(10));
    let engines = ClusterBuilder::new(4, 1, 1)
        .unwrap()
        .delta(Duration::from_millis(20))
        .payload_size(100)
        .build("banyan");
    let faults = FaultPlan::none().restart(ReplicaId(2), secs(2), secs(3));
    let mut sim = Simulation::new(topo, engines, faults, SimConfig::with_seed(17));
    sim.run_until(secs(8));
    assert!(sim.auditor().is_safe());
    assert!(
        !sim.metrics()
            .commits
            .iter()
            .any(|c| c.replica == ReplicaId(2) && c.entry.committed_at > secs(2)),
        "replica committed after crash despite having no rebuild path"
    );
}

/// Under a crashed replica, Banyan's performance degrades to exactly ICC's
/// behavior (Fig. 6d: "when there are failures, the performance of Banyan
/// is exactly the one of ICC") — here we check the weaker, robust claim
/// that committed-round counts are close.
#[test]
fn banyan_degrades_to_icc_under_crash() {
    let run = |protocol: &str| -> usize {
        let topo = Topology::uniform(4, Duration::from_millis(10));
        let engines = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .delta(Duration::from_millis(20))
            .payload_size(100)
            .build(protocol);
        let faults = FaultPlan::none().crash(ReplicaId(0), Time::ZERO);
        let mut sim = Simulation::new(topo, engines, faults, SimConfig::with_seed(2));
        sim.run_until(secs(10));
        assert!(sim.auditor().is_safe());
        sim.auditor().committed_rounds()
    };
    let banyan = run("banyan");
    let icc = run("icc");
    let ratio = banyan as f64 / icc as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "banyan {banyan} rounds vs icc {icc} rounds"
    );
}
