//! End-to-end tests of the ancestor-aware speculative drain and the
//! latency-targeted batch policy (ISSUE 5 acceptance criteria): under
//! gossip, blind FIFO drains re-batch whatever uncommitted ancestors
//! already carry — the speculative drain must collapse those duplicate
//! inclusions by ≥90% for the commit-lagged baselines while losing
//! nothing and keeping goodput, and every knob must default off.

use banyan_bench::runner::{run_metrics, Scenario};
use banyan_mempool::WorkloadBatch;
use banyan_simnet::topology::Topology;
use banyan_types::time::Duration;

/// The PR 4 dissemination setting where duplicate inclusions are worst:
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

/// The acceptance bar: the speculative drain cuts the `dups`
/// column by ≥90% for HotStuff and Streamlet (whose commit lag made
/// blind drains re-batch multiple ancestor blocks), keeps it no worse
/// for Banyan, loses zero requests, and does not cost goodput.
#[test]
fn speculative_drain_collapses_duplicates_under_gossip() {
    for protocol in ["banyan", "hotstuff", "streamlet"] {
        let (blind, _) = run_metrics(&gossiped(protocol));
        let (spec, auditor) = run_metrics(&gossiped(protocol).speculative_drain());
        assert!(auditor.is_safe(), "{protocol}: unsafe speculative run");

        let blind_dups = blind.duplicate_requests_suppressed();
        let spec_dups = spec.duplicate_requests_suppressed();
        if matches!(protocol, "hotstuff" | "streamlet") {
            assert!(
                blind_dups >= 10,
                "{protocol}: control lost its duplication pathology \
                 ({blind_dups} dups) — the regression meter is gone"
            );
            assert!(
                (spec_dups as f64) <= 0.1 * blind_dups as f64,
                "{protocol}: speculative drain must cut dups >=90%: \
                 {blind_dups} -> {spec_dups}"
            );
        } else {
            assert!(
                spec_dups <= blind_dups,
                "{protocol}: speculation must never add dups: \
                 {blind_dups} -> {spec_dups}"
            );
        }

        // Zero loss: released leases put abandoned blocks' requests back.
        assert_eq!(
            spec.requests_lost(),
            0,
            "{protocol}: lost requests despite gossip+retry+speculation"
        );
        assert_eq!(
            spec.requests_completed, spec.requests_submitted,
            "{protocol}: every submitted request must commit after the drain"
        );
        // No goodput loss: the work the blind drain wasted on duplicates
        // is reclaimed, so useful commits must hold (tolerance for the
        // schedule shifting under different batch compositions).
        assert!(
            spec.requests_committed() as f64 >= 0.9 * blind.requests_committed() as f64,
            "{protocol}: goodput regressed: {} -> {} committed",
            blind.requests_committed(),
            spec.requests_committed()
        );
    }
}

/// With the dissemination layer fully off, speculation alone already
/// repairs the baseline's loss pathology: requests drained into
/// never-finalized proposals are released back into the pool instead of
/// being stranded (`banyan` loses plenty in this regime without it — see
/// `dissemination.rs::baseline_without_dissemination_strands_requests`).
#[test]
fn speculation_releases_what_the_baseline_loses() {
    let base = Scenario::new(
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
    let (blind, _) = run_metrics(&base);
    let (spec, auditor) = run_metrics(&base.speculative_drain());
    assert!(auditor.is_safe());
    assert!(
        blind.requests_lost() > 0,
        "the no-dissemination control must strand requests past the knee"
    );
    assert!(
        spec.requests_lost() < blind.requests_lost(),
        "release-on-abandon must recover stranded requests: {} -> {}",
        blind.requests_lost(),
        spec.requests_lost()
    );
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

/// Speculation and batch policy ride the same deterministic event loop:
/// same seed ⇒ bit-identical runs, different seed ⇒ divergence.
#[test]
fn speculative_runs_are_deterministic() {
    let scenario = |seed: u64| {
        gossiped("hotstuff")
            .seed(seed)
            .speculative_drain()
            .batch_policy(1_024, Duration::from_millis(40))
    };
    let (a, auditor) = run_metrics(&scenario(42));
    let (b, _) = run_metrics(&scenario(42));
    assert!(auditor.is_safe());
    assert_eq!(a, b, "same seed must reproduce the speculative run exactly");
    let (c, _) = run_metrics(&scenario(43));
    assert_ne!(a, c, "different seeds must diverge");
}
