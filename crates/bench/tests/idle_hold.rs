//! The idle hold end to end in the simulator: a rank-0 leader whose pool
//! holds no request holds its proposal until one arrives, or at most Δ
//! after its round started. On a uniform-δ n = 4 cluster fed one request
//! per second, submitted to every pool at once (so a request reaches the
//! leader's pool at its submit instant), an idle cluster runs one round
//! per Δ, a request is proposed the instant it arrives, and a crashed
//! leader's rounds still advance at the backup's 2Δ.

use banyan_bench::runner::{run_metrics, Scenario};
use banyan_mempool::WorkloadBatch;
use banyan_simnet::metrics::RunMetrics;
use banyan_simnet::topology::Topology;
use banyan_simnet::FaultPlan;
use banyan_types::engine::CommitEntry;
use banyan_types::ids::ReplicaId;
use banyan_types::time::{Duration, Time};

const DELTA_LINK: Duration = Duration::from_millis(5);

/// One request per second, into every pool, on a uniform-δ cluster
/// whose protocol Δ is `delta`.
fn idle(protocol: &str, delta: Duration) -> Scenario {
    Scenario::new(protocol, Topology::uniform(4, DELTA_LINK), 1, 1)
        .rate(1)
        .fanout(4)
        .gossip()
        .delta(delta)
        .seed(7)
}

/// The blocks replica 1 finalized, in round order.
fn chain(m: &RunMetrics) -> Vec<&CommitEntry> {
    let at_1 = m.commits.iter().filter(|c| c.replica == ReplicaId(1));
    at_1.map(|c| &c.entry).collect()
}

/// The instants the requests a block carries were submitted.
fn submitted(block: &CommitEntry) -> Vec<Time> {
    let batch = WorkloadBatch::decode(&block.payload);
    let requests = batch.map(|b| b.requests).unwrap_or_default();
    requests.iter().map(|r| r.submitted_at).collect()
}

/// Between requests, a round lasts Δ plus the round trip that certifies
/// its block: an empty block is never proposed sooner than Δ after the
/// one before it, and the cluster runs ~9 rounds a second, where a leader
/// that proposes at once runs one per ~2δ.
#[test]
fn an_idle_cluster_runs_at_most_one_round_per_delta() {
    let delta = Duration::from_millis(100);
    for protocol in ["banyan", "icc"] {
        let (m, auditor) = run_metrics(&idle(protocol, delta).secs(1).drain(2));
        assert!(auditor.is_safe());
        assert_eq!(m.requests_completed, m.requests_submitted);
        let chain = chain(&m);
        for pair in chain.windows(2) {
            let gap = pair[1].proposed_at.since(pair[0].proposed_at);
            if submitted(pair[1]).is_empty() {
                assert!(
                    gap >= delta,
                    "{protocol}: empty round {} proposed {gap:?} after the one before",
                    pair[1].round.0
                );
            }
        }
        // Three seconds, at most one round per Δ, plus the rounds of the
        // two requests.
        assert!(
            chain.len() <= 30 + 2 * 2,
            "{protocol}: {} rounds",
            chain.len()
        );
    }
}

/// A request that reaches a held leader is proposed at its submit
/// instant, and no empty round runs between two requests: at Δ = 1 s the
/// cluster sits in a held round for all but one round trip of each second.
#[test]
fn a_request_reaching_an_idle_cluster_is_proposed_on_arrival() {
    for protocol in ["banyan", "icc"] {
        let (m, auditor) = run_metrics(&idle(protocol, Duration::from_secs(1)).secs(4));
        assert!(auditor.is_safe());
        let chain = chain(&m);
        assert!(chain.iter().all(|block| !submitted(block).is_empty()));
        for s in 0..4 {
            let at = Time(Duration::from_secs(s).as_nanos());
            let first = chain.iter().find(|block| submitted(block).contains(&at));
            let first = first.expect("a request never proposed");
            assert_eq!(first.proposed_at, at, "{protocol}: proposed late");
        }
    }
}

/// With the rank-0 leader of every fourth round crashed and every pool
/// idle, the rounds it leads still finalize a backup's block 2Δ after
/// they start: backup timers are never held.
#[test]
fn a_crashed_leader_is_replaced_at_two_delta_on_an_idle_cluster() {
    let delta = Duration::from_millis(100);
    // Δ-scale slack for the round trips that certify a block.
    let slack = Duration(4 * DELTA_LINK.as_nanos());
    for protocol in ["banyan", "icc"] {
        let crashed = FaultPlan::none().crash(ReplicaId(0), Time::ZERO);
        let (m, auditor) = run_metrics(&idle(protocol, delta).secs(1).drain(2).faults(crashed));
        assert!(auditor.is_safe());
        let chain = chain(&m);
        let mut replaced = 0;
        for pair in chain.windows(2) {
            let gap = pair[1].proposed_at.since(pair[0].proposed_at);
            if pair[1].round.0 % 4 == 0 {
                replaced += 1;
                assert_eq!(pair[1].proposer, ReplicaId(1), "{protocol}: not the backup");
                assert!(
                    gap >= Duration(2 * delta.as_nanos()),
                    "{protocol}: backup early"
                );
            }
            assert!(
                gap <= Duration(2 * delta.as_nanos()) + slack,
                "{protocol}: round {} stalled {gap:?}",
                pair[1].round.0
            );
        }
        assert!(replaced >= 5, "{protocol}: {replaced} rounds replaced");
        let end = Time(Duration::from_secs(3).as_nanos());
        let last = chain.last().expect("finalized nothing").proposed_at;
        assert!(end.since(last) <= Duration(2 * delta.as_nanos()) + slack);
    }
}
