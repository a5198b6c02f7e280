//! End-to-end tests of the ancestor-aware drain and the latency-targeted
//! batch policy. Under gossip every pool holds a copy of what the
//! proposal's uncommitted ancestors carry; the drain skips those, so a
//! request commits once, and a block that never finalizes releases its
//! requests, so none is lost.

use banyan_bench::runner::{run_metrics, Scenario};
use banyan_mempool::WorkloadBatch;
use banyan_simnet::topology::Topology;
use banyan_types::time::Duration;

/// The setting where a drain blind to the chain duplicates most:
/// saturated closed loop, gossip + retry, drained so loss accounting
/// settles.
fn gossiped(protocol: &str) -> Scenario {
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
    .gossip()
    .retry_timeout(Duration::from_millis(200))
    .drain(3)
}

/// The bar CI's `--assert-max-dups` gate holds every sweep to: duplicate
/// inclusions at most 1% of committed requests, no request lost, and
/// every submitted request committed after the drain — for all three
/// engines, HotStuff's and Streamlet's multi-block commit lag included.
#[test]
fn gossip_commits_each_request_once_and_loses_none() {
    for protocol in ["banyan", "hotstuff", "streamlet"] {
        let (m, auditor) = run_metrics(&gossiped(protocol));
        assert!(auditor.is_safe(), "{protocol}: unsafe run");
        let (committed, dups) = (m.requests_committed(), m.duplicate_requests_suppressed());
        assert!(committed > 1_000, "{protocol}: {committed} committed");
        assert!(
            dups as f64 <= 0.01 * committed as f64,
            "{protocol}: {dups} duplicate inclusions exceed 1% of {committed} committed"
        );
        assert_eq!(m.requests_lost(), 0, "{protocol}: lost requests");
        assert_eq!(
            m.requests_completed, m.requests_submitted,
            "{protocol}: every submitted request must commit after the drain"
        );
    }
}

/// With gossip and retry off, each request sits in one pool, so only the
/// lease release brings back what a never-finalized block drained: the
/// released requests commit, and each commits once — a release never
/// re-proposes a request whose block still finalizes.
#[test]
fn abandoned_blocks_release_requests_that_commit_once() {
    let scenario = Scenario::new(
        "banyan",
        Topology::uniform(4, Duration::from_millis(5)).with_egress_bps(100_000_000),
        1,
        1,
    )
    .closed_loop(128, 4, Duration::ZERO)
    .request_size(512)
    .secs(2)
    .seed(42)
    .drain(3);
    let (m, auditor) = run_metrics(&scenario);
    assert!(auditor.is_safe());
    assert_eq!(m.requests_retried, 0, "nothing may retry");
    let committed = m.requests_committed();
    assert!(committed > 1_000, "{committed} committed");
    assert_eq!(
        m.duplicate_requests_suppressed(),
        0,
        "a released request was committed twice"
    );
    assert_eq!(m.requests_lost(), 0, "an abandoned block kept its requests");
    assert_eq!(m.requests_completed, m.requests_submitted);
}

/// The latency-targeted batch policy holds blocks until a size or age
/// target: at a trickle load, eager draining ships many near-empty
/// batches, while the policy ships fewer, fuller ones — without losing a
/// request and with the added latency bounded by `max_age`.
#[test]
fn batch_policy_trades_bounded_latency_for_fuller_blocks() {
    let low = |policy: bool| {
        let mut s = Scenario::new(
            "banyan",
            Topology::uniform(4, Duration::from_millis(5)),
            1,
            1,
        )
        .closed_loop(4, 2, Duration::from_millis(5))
        .request_size(256)
        .secs(3)
        .seed(42)
        .gossip()
        .retry_timeout(Duration::from_millis(400))
        .drain(2);
        if policy {
            // ~8 requests per block, or a 60 ms old request.
            s = s.batch_policy(2_048, Duration::from_millis(60));
        }
        s
    };
    let batches_of = |m: &banyan_simnet::metrics::RunMetrics| {
        let mut batches = 0u64;
        let mut records = 0u64;
        for c in m.commits.iter().filter(|c| c.replica == c.entry.proposer) {
            if let Some(b) = WorkloadBatch::decode(&c.entry.payload) {
                batches += 1;
                records += b.requests.len() as u64;
            }
        }
        (batches, records as f64 / batches.max(1) as f64)
    };

    let (eager, _) = run_metrics(&low(false));
    let (held, auditor) = run_metrics(&low(true));
    assert!(auditor.is_safe());
    let (eager_batches, eager_fill) = batches_of(&eager);
    let (held_batches, held_fill) = batches_of(&held);
    assert!(eager_batches > 0 && held_batches > 0);
    assert!(
        held_fill > eager_fill,
        "policy must produce fuller batches: {eager_fill:.2} -> {held_fill:.2} records/batch"
    );
    assert_eq!(held.requests_lost(), 0, "deferral must never lose work");
    assert_eq!(
        held.requests_completed, held.requests_submitted,
        "every request still commits under the policy"
    );
    // The age escape bounds the latency cost: p99 grows by at most the
    // 60 ms target plus scheduling slack, never unboundedly.
    let (eager_p99, held_p99) = (
        eager.client_latency_stats().p99_ms,
        held.client_latency_stats().p99_ms,
    );
    assert!(
        held_p99 <= eager_p99 + 120.0,
        "deferral latency must stay bounded by max_age: p99 {eager_p99:.1} -> {held_p99:.1} ms"
    );
}

/// The speculative drain (`Mempool::drain_speculative`, the one drain
/// every pool runs) and the batch policy ride the same deterministic
/// event loop:
/// same seed ⇒ bit-identical runs, different seed ⇒ divergence.
#[test]
fn speculative_runs_are_deterministic() {
    let scenario = |seed: u64| {
        gossiped("hotstuff")
            .seed(seed)
            .batch_policy(1_024, Duration::from_millis(40))
    };
    let (a, auditor) = run_metrics(&scenario(42));
    let (b, _) = run_metrics(&scenario(42));
    assert!(auditor.is_safe());
    assert_eq!(a, b, "same seed must reproduce the run exactly");
    let (c, _) = run_metrics(&scenario(43));
    assert_ne!(a, c, "different seeds must diverge");
}
