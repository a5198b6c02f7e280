//! End-to-end tests of the request-dissemination layer: with gossip,
//! client retry and submit fan-out, or with none of them, a drained run
//! commits every request exactly once, and it stays bit-deterministic per
//! seed.

use banyan_bench::runner::{run_metrics, Scenario};
use banyan_simnet::topology::Topology;
use banyan_types::time::Duration;

/// A closed-loop population big enough to push all three engines past
/// their saturation knee on this topology (see the `saturation_sweep`
/// harness).
fn saturated(protocol: &str) -> Scenario {
    Scenario::new(
        protocol,
        Topology::uniform(4, Duration::from_millis(5)).with_egress_bps(100_000_000),
        1,
        1,
    )
    .closed_loop(128, 4, Duration::ZERO)
    .request_size(512)
    .secs(2)
    .seed(42)
}

/// The acceptance bar: with gossip + retry enabled, a drained
/// closed-loop run loses nothing — every submitted request is observed
/// committed, for all three engines.
#[test]
fn gossip_and_retry_drain_to_zero_loss() {
    for protocol in ["banyan", "hotstuff", "streamlet"] {
        let scenario = saturated(protocol)
            .gossip()
            .retry_timeout(Duration::from_millis(200))
            .drain(3);
        let (m, auditor) = run_metrics(&scenario);
        assert!(auditor.is_safe(), "{protocol}: unsafe run");
        assert!(m.requests_submitted > 0, "{protocol}: nothing submitted");
        assert_eq!(
            m.requests_lost(),
            0,
            "{protocol}: lost {} of {} requests despite gossip+retry \
             (completed {}, pending {})",
            m.requests_lost(),
            m.requests_submitted,
            m.requests_completed,
            m.requests_pending
        );
        assert_eq!(
            m.requests_completed, m.requests_submitted,
            "{protocol}: after the drain every submitted request must have committed"
        );
        assert_eq!(m.requests_pending, 0, "{protocol}: pools must drain");
    }
}

/// The same saturated scenario with no gossip and no retry loses nothing
/// after the drain either: each request sits in one pool, and a block
/// that never finalizes hands what it drained back to that pool once a
/// commit passes its round (the lease release), so a later leader
/// proposes it.
#[test]
fn a_closed_loop_without_gossip_or_retry_loses_nothing() {
    for protocol in ["banyan", "hotstuff", "streamlet"] {
        let (m, auditor) = run_metrics(&saturated(protocol).drain(3));
        assert!(auditor.is_safe(), "{protocol}: unsafe run");
        assert_eq!(m.requests_retried, 0, "{protocol}: nothing may retry");
        assert!(m.requests_submitted > 1_000, "{protocol}: too few requests");
        assert_eq!(
            (m.requests_lost(), m.requests_completed),
            (0, m.requests_submitted),
            "{protocol}: lost requests without gossip or retry (pending {})",
            m.requests_pending
        );
    }
}

/// Exactly-once: a request fanned out to every pool, gossiped, and
/// aggressively retried still commits (and is measured) exactly once.
#[test]
fn fanned_out_gossiped_and_retried_requests_commit_exactly_once() {
    let scenario = Scenario::new(
        "banyan",
        Topology::uniform(4, Duration::from_millis(5)),
        1,
        1,
    )
    .closed_loop(8, 2, Duration::ZERO)
    .request_size(256)
    .secs(2)
    .seed(7)
    .gossip()
    .fanout(4)
    .retry_timeout(Duration::from_millis(30))
    .drain(1);
    let (m, auditor) = run_metrics(&scenario);
    assert!(auditor.is_safe());
    // Every request committed, none lost, none double-counted: the
    // deduped committed count equals the workload's first-delivery count
    // equals the number of distinct submitted ids.
    assert_eq!(m.requests_lost(), 0);
    assert_eq!(m.requests_completed, m.requests_submitted);
    assert_eq!(
        m.requests_committed(),
        m.requests_submitted,
        "deduped commit count must equal distinct submitted requests"
    );
    assert_eq!(
        m.client_latencies().len() as u64,
        m.requests_submitted,
        "one latency sample per request, never two"
    );
}

/// Dissemination traffic rides the same deterministic event loop as
/// consensus: same seed ⇒ bit-identical run, different seed ⇒ divergence.
#[test]
fn dissemination_runs_are_deterministic() {
    let scenario = |seed: u64| {
        saturated("banyan")
            .seed(seed)
            .gossip()
            .fanout(2)
            .retry_timeout(Duration::from_millis(100))
            .drain(2)
    };
    let (a, auditor_a) = run_metrics(&scenario(42));
    let (b, _) = run_metrics(&scenario(42));
    assert!(auditor_a.is_safe());
    assert_eq!(a, b, "same seed must reproduce the run exactly");
    let (c, _) = run_metrics(&scenario(43));
    assert_ne!(a, c, "different seeds must diverge");
}

/// Gossip's latency claim (ROADMAP "Request dissemination"): at low
/// rates, a request no longer waits in one replica's pool until that
/// replica happens to lead — it reaches every potential leader within
/// one gossip round, cutting the end-to-end tail for every engine.
#[test]
fn gossip_cuts_tail_latency_at_low_rates() {
    let low = |protocol: &str| {
        Scenario::new(
            protocol,
            Topology::uniform(4, Duration::from_millis(5)).with_egress_bps(100_000_000),
            1,
            1,
        )
        .closed_loop(2, 1, Duration::from_millis(20))
        .request_size(512)
        .secs(3)
        .seed(42)
    };
    for protocol in ["banyan", "hotstuff", "streamlet"] {
        let baseline = banyan_bench::runner::run(&low(protocol));
        let gossiped = banyan_bench::runner::run(&low(protocol).gossip());
        let (b, g) = (
            baseline.client_latency.expect("client-driven"),
            gossiped.client_latency.expect("client-driven"),
        );
        assert!(
            g.p99_ms < b.p99_ms,
            "{protocol}: gossip must cut the e2e tail, got p99 {:.2} -> {:.2} ms",
            b.p99_ms,
            g.p99_ms
        );
    }
}

/// The propagation-limited tree (ISSUE 10): pushing through a bounded
/// degree-2 fanout tree with compact announce relays must still reach
/// every potential leader — zero loss with *no* client retry to mask a
/// hole in the tree — while spending at most half of broadcast gossip's
/// bytes per request on an n=8 cluster.
#[test]
fn fanout_tree_reaches_every_replica_at_half_the_gossip_bytes() {
    let n8 = |tree: bool| {
        let mut s = Scenario::new(
            "banyan",
            Topology::uniform(8, Duration::from_millis(5)).with_egress_bps(100_000_000),
            2,
            1,
        )
        .closed_loop(16, 2, Duration::ZERO)
        .request_size(512)
        .secs(2)
        .seed(42)
        .gossip()
        .drain(3);
        if tree {
            s = s.fanout_tree(2);
        }
        s
    };
    let (broadcast, _) = run_metrics(&n8(false));
    let (tree, auditor) = run_metrics(&n8(true));
    assert!(auditor.is_safe());
    assert!(tree.requests_submitted > 0);
    assert_eq!(
        tree.requests_lost(),
        0,
        "a request pushed down the tree must reach a leader without retry \
         (completed {} of {})",
        tree.requests_completed,
        tree.requests_submitted
    );
    assert_eq!(tree.requests_completed, tree.requests_submitted);
    assert!(tree.gossip_bytes > 0, "tree gossip must be metered");
    let tree_per_req = tree.gossip_bytes as f64 / tree.requests_submitted as f64;
    let bcast_per_req = broadcast.gossip_bytes as f64 / broadcast.requests_submitted as f64;
    assert!(
        tree_per_req <= 0.5 * bcast_per_req,
        "tree must spend at most half of broadcast's gossip bytes per \
         request, got {tree_per_req:.1} vs {bcast_per_req:.1}"
    );
}

/// A pool has its tree from the moment it is built, so the window a
/// closed-loop population primes at time zero rides it like every later
/// submission. (Pools handed their per-peer queues after priming kept
/// those first requests in the shared outbox, which a tree-mode flush
/// never reads: they were not gossiped at all.)
#[test]
fn primed_requests_ride_the_fanout_tree() {
    // Think time past the end of the run: the primed window is all the
    // load there is.
    let scenario = Scenario::new(
        "banyan",
        Topology::uniform(8, Duration::from_millis(5)).with_egress_bps(100_000_000),
        2,
        1,
    )
    .closed_loop(16, 2, Duration::from_secs(60))
    .request_size(512)
    .secs(1)
    .seed(42)
    .fanout_tree(2);
    let (m, auditor) = run_metrics(&scenario);
    assert!(auditor.is_safe());
    assert_eq!(m.requests_submitted, 32, "16 clients x window 2, primed");
    assert!(m.gossip_bytes > 0, "the primed window must be gossiped");
    assert_eq!(m.requests_completed, m.requests_submitted);
}

/// A cohort-aggregated population riding the fanout tree is still
/// bit-deterministic per seed — the tentpole pair composes without
/// breaking the simulator's reproducibility contract.
#[test]
fn cohort_tree_runs_are_deterministic() {
    let scenario = |seed: u64| {
        Scenario::new(
            "banyan",
            Topology::uniform(4, Duration::from_millis(5)).with_egress_bps(100_000_000),
            1,
            1,
        )
        .cohort_load(100_000, 32, 4, Duration::ZERO)
        .member_interval(Duration::from_secs(25))
        .max_outstanding(256)
        .fanout_tree(2)
        .request_size(512)
        .secs(2)
        .seed(seed)
        .drain(2)
    };
    let (a, auditor_a) = run_metrics(&scenario(42));
    let (b, _) = run_metrics(&scenario(42));
    assert!(auditor_a.is_safe());
    assert!(a.requests_submitted > 1_000, "the modeled load must flow");
    assert_eq!(a, b, "same seed must reproduce the run exactly");
    let (c, _) = run_metrics(&scenario(43));
    assert_ne!(a, c, "different seeds must diverge");
}

/// A primed window larger than one flush's per-peer take leaves every
/// tree-mode pool a backlog after the first flush. The simulator flushes
/// only the pool of the replica an event ran on — plus every pool with a
/// backlog, so the backlog drains one take per event exactly as when
/// every pool was flushed after every event. The pinned counts are those
/// of a simulator that flushed every pool, and released every idle
/// leader's held proposal, after every event (re-derived once, when every
/// pool began to lease); skipping the backlogged pools sends 1 406 frames
/// instead.
#[test]
fn a_gossip_backlog_drains_as_if_every_pool_were_flushed() {
    let scenario = Scenario::new(
        "banyan",
        Topology::uniform(4, Duration::from_millis(5)).with_egress_bps(100_000_000),
        1,
        1,
    )
    .closed_loop(4096, 1, Duration::from_secs(60))
    .request_size(64)
    .secs(1)
    .seed(42)
    .fanout_tree(2);
    let (m, auditor) = run_metrics(&scenario);
    assert!(auditor.is_safe());
    assert_eq!(m.requests_completed, 4096);
    assert_eq!(
        (m.messages_sent, m.bytes_sent, m.gossip_bytes),
        (1400, 6_050_842, 1_403_482)
    );
}
