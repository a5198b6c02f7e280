//! End-to-end tests of optimistic proposal pipelining, which only ICC
//! runs: the Moonshot-style overlap must shorten its commit cadence, survive a leader that *equivocates on its optimistic slot*
//! (different optimistic proposals to different peers), and lose nothing
//! under gossip + retry.

use banyan_bench::runner::{run_metrics, Scenario};
use banyan_core::chained::ByzantineMode;
use banyan_simnet::topology::Topology;
use banyan_types::time::Duration;

/// A gossiping, retrying ICC closed loop with optimism on — the setting
/// where an abandoned optimistic proposal would surface as lost or
/// duplicated requests if the fallback/release machinery were wrong.
fn optimistic_loop() -> Scenario {
    Scenario::new(
        "icc",
        Topology::uniform(4, Duration::from_millis(5)).with_egress_bps(100_000_000),
        1,
        1,
    )
    .closed_loop(32, 4, Duration::ZERO)
    .request_size(512)
    .secs(3)
    .seed(42)
    .gossip()
    .retry_timeout(Duration::from_millis(200))
    .drain(3)
    .optimistic()
}

/// The pipelining headline, end to end: with optimism on, the icc
/// engine's explicit-commit cadence (rounds per commit) must be strictly
/// shorter than the flag-off baseline on the same workload.
#[test]
fn optimistic_pipelining_shortens_the_commit_cadence() {
    let on = optimistic_loop();
    let mut off = optimistic_loop();
    off.optimistic = false;
    let (m_on, a_on) = run_metrics(&on);
    let (m_off, a_off) = run_metrics(&off);
    assert!(a_on.is_safe() && a_off.is_safe());
    let observer = banyan_types::ids::ReplicaId(0);
    let (cadence_on, cadence_off) = (
        m_on.mean_commit_interval_ms(observer),
        m_off.mean_commit_interval_ms(observer),
    );
    assert!(
        cadence_on > 0.0 && cadence_off > 0.0,
        "both runs must commit"
    );
    assert!(
        cadence_on < cadence_off,
        "optimism must shorten the commit cadence: {cadence_on:.3} ms !< {cadence_off:.3} ms"
    );
}

/// The equivocation regression: replica 1 sends *different* optimistic
/// proposals to different halves of the cluster whenever it holds the
/// next round's leader slot. The honest majority must refuse to certify
/// the split proposal, fall back to the certified parent, and keep
/// committing — with zero requests lost and agreement intact.
#[test]
fn optimistic_equivocation_falls_back_and_loses_nothing() {
    let honest = optimistic_loop();
    let attacked = optimistic_loop().byzantine(1, ByzantineMode::EquivocateOptimistic);
    let (h, _) = run_metrics(&honest);
    let (m, auditor) = run_metrics(&attacked);
    assert!(
        auditor.is_safe(),
        "equivocating optimistic leader broke agreement: {:?}",
        auditor.violations()
    );
    assert_eq!(
        m.requests_lost(),
        0,
        "requests lost under optimistic equivocation"
    );
    assert!(
        auditor.committed_rounds() > 50,
        "commit progress did not resume past the equivocator ({} rounds)",
        auditor.committed_rounds()
    );
    // One equivocator out of four leader slots costs its own rounds at
    // worst — the honest majority's cadence must survive.
    assert!(
        m.commits.len() * 2 > h.commits.len(),
        "equivocation collapsed throughput ({} vs honest {})",
        m.commits.len(),
        h.commits.len()
    );
}

/// Abandoned optimistic inclusions must not double-commit: the lease
/// release returns requests with their original identity and the
/// exactly-once dedup keeps duplicate inclusions within the 1% gate even
/// while an equivocator forces abandonment every fourth round.
#[test]
fn optimistic_equivocation_stays_within_the_duplicate_budget() {
    let attacked = optimistic_loop().byzantine(1, ByzantineMode::EquivocateOptimistic);
    let (m, auditor) = run_metrics(&attacked);
    assert!(auditor.is_safe());
    let committed = m.requests_committed();
    let dups = m.duplicate_requests_suppressed();
    assert!(committed > 500, "attack run barely committed ({committed})");
    assert!(
        (dups as f64) <= 0.01 * committed as f64,
        "duplicate inclusions blew the 1% budget: {dups} of {committed}"
    );
}
