//! Measurement pipeline: the paper's two metrics plus diagnostics.
//!
//! §9.2 defines the metrics this module computes:
//!
//! * **latency** — "average proposal finalization time, measured at the
//!   respective proposer using their system clocks": for every block a
//!   replica itself proposed, the time from proposing to that same replica
//!   finalizing it.
//! * **throughput** — "average number of committed bytes per second at any
//!   (non-faulty) replica".
//!
//! Plus: block intervals (Fig. 6d's second panel), latency percentiles
//! (Fig. 6c), fast-path share, and message/byte counters.
//!
//! Runs driven by a client workload (see [`crate::workload`]) additionally
//! get **end-to-end client latency** — submit→commit, measured at the
//! proposer that batched the request — which is what FnF-BFT/Moonshot-style
//! evaluations report and is always ≥ the paper's proposer latency (the
//! request waits in a mempool before it is even proposed).

use std::collections::{BTreeMap, HashSet};

use banyan_types::engine::CommitEntry;
use banyan_types::ids::{BlockHash, ReplicaId, Round};
use banyan_types::time::{Duration, Time};

use crate::workload::WorkloadBatch;

/// `count` events over `secs` seconds as a rate, 0 for an empty window.
/// The one rate formula every goodput/throughput report shares.
pub fn per_second(count: u64, secs: f64) -> f64 {
    if secs == 0.0 {
        0.0
    } else {
        count as f64 / secs
    }
}

/// An order-statistics summary over a set of duration samples.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Mean, in milliseconds.
    pub mean_ms: f64,
    /// Standard deviation, in milliseconds.
    pub std_ms: f64,
    /// Minimum, in milliseconds.
    pub min_ms: f64,
    /// Median (p50), in milliseconds.
    pub p50_ms: f64,
    /// 90th percentile, in milliseconds.
    pub p90_ms: f64,
    /// 99th percentile, in milliseconds.
    pub p99_ms: f64,
    /// Maximum, in milliseconds.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Computes the summary from raw samples. Returns the default (all
    /// zeros) for an empty set.
    pub fn from_samples(samples: &[Duration]) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut ms: Vec<f64> = samples.iter().map(|d| d.as_millis_f64()).collect();
        ms.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let count = ms.len();
        let mean = ms.iter().sum::<f64>() / count as f64;
        let var = ms.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
        let pct = |q: f64| -> f64 {
            let idx = ((count as f64 - 1.0) * q).round() as usize;
            ms[idx.min(count - 1)]
        };
        LatencyStats {
            count,
            mean_ms: mean,
            std_ms: var.sqrt(),
            min_ms: ms[0],
            p50_ms: pct(0.50),
            p90_ms: pct(0.90),
            p99_ms: pct(0.99),
            max_ms: ms[count - 1],
        }
    }
}

/// One replica's commit, as observed by the harness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObservedCommit {
    /// The replica that committed.
    pub replica: ReplicaId,
    /// The commit itself.
    pub entry: CommitEntry,
}

/// Global safety observer: ingests every commit from every replica and
/// detects disagreement — two replicas finalizing different blocks for the
/// same round. Every simulation run doubles as a safety test through this.
#[derive(Clone, Debug, Default)]
pub struct SafetyAuditor {
    /// Canonical block per round (first commit wins; all later commits for
    /// the round must match).
    canonical: BTreeMap<Round, BlockHash>,
    /// Human-readable descriptions of violations found.
    violations: Vec<String>,
}

impl SafetyAuditor {
    /// Fresh auditor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one commit.
    pub fn observe(&mut self, replica: ReplicaId, entry: &CommitEntry) {
        match self.canonical.get(&entry.round) {
            None => {
                self.canonical.insert(entry.round, entry.block);
            }
            Some(expected) if *expected != entry.block => {
                self.violations.push(format!(
                    "SAFETY VIOLATION: round {} committed as {} by earlier replica but {} by {}",
                    entry.round, expected, entry.block, replica
                ));
            }
            Some(_) => {}
        }
    }

    /// All violations found so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// True if no disagreement was observed.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of rounds with at least one commit.
    pub fn committed_rounds(&self) -> usize {
        self.canonical.len()
    }
}

/// One run's client-workload numbers, reduced to what a saturation sweep
/// plots: goodput (committed requests/sec), the end-to-end latency
/// distribution, and the per-client fairness spread.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClientLoadSummary {
    /// End-to-end (submit→commit) latency over all clients.
    pub latency: LatencyStats,
    /// Committed client requests per second over the run.
    pub goodput_rps: f64,
    /// Requests submitted by the workload.
    pub requests_submitted: u64,
    /// Requests that reached a committed block (counted at the proposer).
    pub requests_committed: u64,
    /// Distinct clients with at least one committed request.
    pub clients_observed: usize,
    /// Smallest per-client mean latency, ms (0 when no samples).
    pub min_client_mean_ms: f64,
    /// Largest per-client mean latency, ms (0 when no samples) — the gap
    /// to `min_client_mean_ms` is the fairness spread.
    pub max_client_mean_ms: f64,
}

/// Everything measured over one simulation run.
///
/// `PartialEq` is derived so determinism tests can assert bit-identical
/// reruns (every field, including the full commit log, must match).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Every commit at every replica, in commit order.
    pub commits: Vec<ObservedCommit>,
    /// Messages enqueued on the network.
    pub messages_sent: u64,
    /// Total bytes enqueued on the network (wire size incl. payload).
    pub bytes_sent: u64,
    /// Messages dropped because the receiver had crashed.
    pub messages_dropped: u64,
    /// Client requests submitted by the attached workload (0 when none).
    /// Retransmissions of an already-submitted id are counted in
    /// [`requests_retried`](Self::requests_retried), not here.
    pub requests_submitted: u64,
    /// Requests the workload observed committed (first delivery per id,
    /// from any replica). 0 for runs without a client workload.
    pub requests_completed: u64,
    /// Requests still pending (live) in the per-replica mempools at the
    /// end of the run.
    pub requests_pending: u64,
    /// Client retransmissions performed by the workload.
    pub requests_retried: u64,
    /// Catch-up requests issued by recovering replicas (frontier probes
    /// plus ranged fetches, counted at the requester).
    pub sync_requests: u64,
    /// Blocks served in catch-up `ResponseBatch` replies (counted at the
    /// serving replica).
    pub sync_blocks_served: u64,
    /// Total crash-recovery latency, ms: for every restarted replica, the
    /// span from its rejoin instant to its catch-up state machine
    /// finishing, summed (integer ms so determinism stays `Eq`-checkable).
    pub restart_recovery_ms: u64,
    /// Gauge: bytes held in the replicas' write-ahead logs at run end
    /// (0 for purely in-memory stores).
    pub wal_bytes: u64,
    /// Individual signature verifications performed by the replicas'
    /// verify planes over the run.
    pub sigs_verified: u64,
    /// Batched verification calls issued (each covering ≥ 2 signatures).
    pub verify_batches: u64,
    /// Certificate verifications answered from the bounded LRU cache.
    pub cert_cache_hits: u64,
    /// Virtual CPU milliseconds charged for signature verification by the
    /// simulator's crypto cost model (integer ms so determinism stays
    /// `Eq`-checkable). On the TCP path this is measured wall CPU instead.
    pub verify_cpu_ms: u64,
    /// Bytes of request-dissemination traffic (gossip `Forward` bodies
    /// and fanout-tree `Announce` records) put on the wire, a subset of
    /// `bytes_sent`. Propagation-limited gossip exists to shrink this.
    pub gossip_bytes: u64,
    /// Forward-path losses: shared-outbox overflow drops plus per-peer
    /// backpressure sheds, summed over every pool at run end. Retry and
    /// re-gossip recover the requests; the counter sizes the pressure.
    pub forwards_dropped: u64,
    /// Virtual time at the end of the run.
    pub end_time: Time,
}

impl RunMetrics {
    /// Proposal-finalization latencies measured at proposers (the paper's
    /// latency metric): for every commit where the committing replica is
    /// the proposer, `committed_at − proposed_at`.
    pub fn proposer_latencies(&self) -> Vec<Duration> {
        self.commits
            .iter()
            .filter(|c| c.replica == c.entry.proposer)
            .map(|c| c.entry.committed_at.since(c.entry.proposed_at))
            .collect()
    }

    /// Latency summary over [`Self::proposer_latencies`].
    pub fn proposer_latency_stats(&self) -> LatencyStats {
        LatencyStats::from_samples(&self.proposer_latencies())
    }

    /// End-to-end client latencies: for every request batched into a
    /// committed block, `committed_at − submitted_at`, measured at the
    /// replica that proposed the block (mirroring the paper's
    /// proposer-side methodology — and, like it, yielding no sample for a
    /// block whose proposer crashed before observing its own commit).
    /// Empty for runs without a client workload — batches are recovered
    /// from the committed payloads via [`WorkloadBatch::decode`].
    pub fn client_latencies(&self) -> Vec<Duration> {
        self.client_samples().into_iter().map(|(_, d)| d).collect()
    }

    /// The one decode pass every client metric is built on: walks the
    /// commit log in order, keeps proposer-side commits only, dedups by
    /// request id — the first committed occurrence wins, which is the
    /// metrics half of the dissemination layer's exactly-once rule (a
    /// re-gossiped, retried or fanned-out request can land in more than
    /// one committed block) — and yields `(client, submit→commit)` per
    /// batched request.
    fn client_samples(&self) -> Vec<(u16, Duration)> {
        self.client_samples_with_duplicates().0
    }

    /// The deduped `(client, submit→commit)` samples plus the number of
    /// suppressed duplicate occurrences, in one decode pass over the
    /// commit log. Harnesses that need both (latency stats *and* the
    /// duplicate counter) should call this once instead of
    /// [`client_latencies`](Self::client_latencies) +
    /// [`duplicate_requests_suppressed`](Self::duplicate_requests_suppressed),
    /// which each repeat the pass.
    pub fn client_samples_with_duplicates(&self) -> (Vec<(u16, Duration)>, u64) {
        let mut seen = HashSet::new();
        let mut samples = Vec::new();
        let mut duplicates = 0;
        for c in self
            .commits
            .iter()
            .filter(|c| c.replica == c.entry.proposer)
        {
            let Some(batch) = WorkloadBatch::decode(&c.entry.payload) else {
                continue;
            };
            for req in &batch.requests {
                if seen.insert(req.id) {
                    samples.push((req.client, c.entry.committed_at.since(req.submitted_at)));
                } else {
                    duplicates += 1;
                }
            }
        }
        (samples, duplicates)
    }

    /// Batched request occurrences suppressed by the exactly-once dedup:
    /// copies of an already-counted id found in a later committed block
    /// (possible only with gossip, fan-out or retry enabled — a plain
    /// single-pool run never double-commits). Duplicate *bandwidth* is
    /// still charged; duplicate goodput never is.
    pub fn duplicate_requests_suppressed(&self) -> u64 {
        self.client_samples_with_duplicates().1
    }

    /// Requests lost to the request path: submitted but neither observed
    /// committed nor still pending in any pool — i.e. drained into a
    /// proposal that never finalized, with no surviving copy.
    /// `submitted − completed − pending`, saturating at zero.
    ///
    /// Mid-run this includes requests still in flight between a pool and
    /// a commit; after a drain phase (see `Simulation::freeze_workload`)
    /// it counts only genuinely stranded work, and with retry and/or
    /// gossip on it must end at zero.
    pub fn requests_lost(&self) -> u64 {
        self.requests_submitted
            .saturating_sub(self.requests_completed + self.requests_pending)
    }

    /// Latency summary over [`Self::client_latencies`].
    pub fn client_latency_stats(&self) -> LatencyStats {
        LatencyStats::from_samples(&self.client_latencies())
    }

    /// Per-client submit→commit series: the end-to-end samples of
    /// [`Self::client_latencies`], keyed by the submitting client (in
    /// commit order per client). The basis for fairness reporting —
    /// a starved or censored client shows up as a short, slow series.
    pub fn per_client_latencies(&self) -> BTreeMap<u16, Vec<Duration>> {
        let mut series: BTreeMap<u16, Vec<Duration>> = BTreeMap::new();
        for (client, latency) in self.client_samples() {
            series.entry(client).or_default().push(latency);
        }
        series
    }

    /// Longest per-client mean end-to-end latency among `targets`, ms
    /// (0 when none of them committed anything). The fairness probe for
    /// censorship experiments: a censored client's surviving commits go
    /// through retries and honest leaders, inflating exactly this number.
    pub fn max_client_mean_ms(&self, targets: &[u16]) -> f64 {
        self.per_client_latencies()
            .iter()
            .filter(|(client, _)| targets.contains(client))
            .map(|(_, s)| LatencyStats::from_samples(s).mean_ms)
            .fold(0.0, f64::max)
    }

    /// Goodput: committed client requests per second over the whole run
    /// (0 for runs without a client workload). This is the y-axis of a
    /// saturation sweep; under overload it plateaus while latency grows.
    pub fn goodput_rps(&self) -> f64 {
        per_second(self.requests_committed(), self.end_time.as_secs_f64())
    }

    /// One decode pass over the commit log reduced to the numbers a
    /// saturation sweep plots; see [`ClientLoadSummary`].
    pub fn client_load_summary(&self) -> ClientLoadSummary {
        let per_client = self.per_client_latencies();
        let all: Vec<Duration> = per_client.values().flatten().copied().collect();
        let requests_committed = all.len() as u64;
        let client_means: Vec<f64> = per_client
            .values()
            .map(|s| LatencyStats::from_samples(s).mean_ms)
            .collect();
        let min_mean = client_means.iter().copied().reduce(f64::min).unwrap_or(0.0);
        let max_mean = client_means.iter().copied().reduce(f64::max).unwrap_or(0.0);
        ClientLoadSummary {
            latency: LatencyStats::from_samples(&all),
            goodput_rps: per_second(requests_committed, self.end_time.as_secs_f64()),
            requests_submitted: self.requests_submitted,
            requests_committed,
            clients_observed: per_client.len(),
            min_client_mean_ms: min_mean,
            max_client_mean_ms: max_mean,
        }
    }

    /// Requests committed (counted once, at the proposer of the block that
    /// carried them — see [`Self::client_latencies`] for the crash caveat).
    pub fn requests_committed(&self) -> u64 {
        self.client_latencies().len() as u64
    }

    /// Throughput in committed payload bytes per second at `replica`
    /// (the paper's throughput metric).
    pub fn throughput_bps(&self, replica: ReplicaId) -> f64 {
        let bytes: u64 = self
            .commits
            .iter()
            .filter(|c| c.replica == replica)
            .map(|c| c.entry.payload_len())
            .sum();
        per_second(bytes, self.end_time.as_secs_f64())
    }

    /// Intervals between consecutive commits at `replica` (block interval,
    /// Fig. 6d).
    pub fn block_intervals(&self, replica: ReplicaId) -> Vec<Duration> {
        let mut times: Vec<Time> = self
            .commits
            .iter()
            .filter(|c| c.replica == replica)
            .map(|c| c.entry.committed_at)
            .collect();
        times.sort_unstable();
        times.windows(2).map(|w| w[1].since(w[0])).collect()
    }

    /// Intervals between consecutive **explicit** commits at `replica`.
    /// Implicit (ancestor-flush) commits land at the same instant as the
    /// explicit commit that finalized them and would zero the gaps, so
    /// they are excluded — what remains is the cadence at which the chain
    /// actually certifies-and-finalizes, the meter optimistic pipelining
    /// is supposed to move.
    pub fn explicit_commit_intervals(&self, replica: ReplicaId) -> Vec<Duration> {
        let mut times: Vec<Time> = self
            .commits
            .iter()
            .filter(|c| c.replica == replica && c.entry.explicit)
            .map(|c| c.entry.committed_at)
            .collect();
        times.sort_unstable();
        times.windows(2).map(|w| w[1].since(w[0])).collect()
    }

    /// Mean of [`Self::explicit_commit_intervals`] in milliseconds
    /// (0 with fewer than two explicit commits). Divided by the network
    /// delay bound Δ this is the sweep's *rounds-per-commit* meter: how
    /// many Δ-spans pass between consecutive finalizations.
    pub fn mean_commit_interval_ms(&self, replica: ReplicaId) -> f64 {
        let intervals = self.explicit_commit_intervals(replica);
        if intervals.is_empty() {
            return 0.0;
        }
        intervals.iter().map(|d| d.as_millis_f64()).sum::<f64>() / intervals.len() as f64
    }

    /// Fraction of explicit commits that used the fast path, at `replica`.
    pub fn fast_path_share(&self, replica: ReplicaId) -> f64 {
        let explicit: Vec<_> = self
            .commits
            .iter()
            .filter(|c| c.replica == replica && c.entry.explicit)
            .collect();
        if explicit.is_empty() {
            return 0.0;
        }
        explicit.iter().filter(|c| c.entry.fast).count() as f64 / explicit.len() as f64
    }

    /// Highest round committed anywhere.
    pub fn max_committed_round(&self) -> Option<Round> {
        self.commits.iter().map(|c| c.entry.round).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(round: u64, block: u8, proposer: u16, proposed: u64, committed: u64) -> CommitEntry {
        CommitEntry {
            round: Round(round),
            block: BlockHash([block; 32]),
            proposer: ReplicaId(proposer),
            payload: banyan_types::Payload::synthetic(1000, u64::from(block)),
            proposed_at: Time(proposed),
            committed_at: Time(committed),
            fast: false,
            explicit: true,
        }
    }

    #[test]
    fn latency_stats_basic() {
        let samples = vec![
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(30),
            Duration::from_millis(40),
        ];
        let s = LatencyStats::from_samples(&samples);
        assert_eq!(s.count, 4);
        assert!((s.mean_ms - 25.0).abs() < 1e-9);
        assert_eq!(s.min_ms, 10.0);
        assert_eq!(s.max_ms, 40.0);
        assert!(s.p50_ms >= 20.0 && s.p50_ms <= 30.0);
        assert!(s.std_ms > 0.0);
    }

    #[test]
    fn latency_stats_empty_is_zero() {
        assert_eq!(LatencyStats::from_samples(&[]), LatencyStats::default());
    }

    #[test]
    fn auditor_accepts_agreement() {
        let mut a = SafetyAuditor::new();
        a.observe(ReplicaId(0), &entry(1, 7, 0, 0, 10));
        a.observe(ReplicaId(1), &entry(1, 7, 0, 0, 12));
        a.observe(ReplicaId(0), &entry(2, 8, 1, 5, 20));
        assert!(a.is_safe());
        assert_eq!(a.committed_rounds(), 2);
    }

    #[test]
    fn auditor_flags_conflicting_round() {
        let mut a = SafetyAuditor::new();
        a.observe(ReplicaId(0), &entry(1, 7, 0, 0, 10));
        a.observe(ReplicaId(1), &entry(1, 9, 0, 0, 12));
        assert!(!a.is_safe());
        assert!(a.violations()[0].contains("round k1"));
    }

    #[test]
    fn proposer_latency_only_counts_own_blocks() {
        let metrics = RunMetrics {
            commits: vec![
                // replica 0 commits its own block: counted (15ns).
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: entry(1, 1, 0, 5, 20),
                },
                // replica 1 commits replica 0's block: not counted.
                ObservedCommit {
                    replica: ReplicaId(1),
                    entry: entry(1, 1, 0, 5, 40),
                },
            ],
            end_time: Time(1_000_000_000),
            ..Default::default()
        };
        let lats = metrics.proposer_latencies();
        assert_eq!(lats.len(), 1);
        assert_eq!(lats[0], Duration(15));
    }

    #[test]
    fn throughput_counts_bytes_per_second() {
        let metrics = RunMetrics {
            commits: vec![
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: entry(1, 1, 0, 0, 10),
                },
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: entry(2, 2, 1, 0, 20),
                },
            ],
            end_time: Time(2_000_000_000), // 2 s
            ..Default::default()
        };
        // 2000 bytes over 2 s = 1000 B/s.
        assert!((metrics.throughput_bps(ReplicaId(0)) - 1000.0).abs() < 1e-9);
        assert_eq!(metrics.throughput_bps(ReplicaId(1)), 0.0);
    }

    #[test]
    fn block_intervals_are_ordered_gaps() {
        let metrics = RunMetrics {
            commits: vec![
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: entry(2, 2, 0, 0, 300),
                },
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: entry(1, 1, 0, 0, 100),
                },
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: entry(3, 3, 0, 0, 600),
                },
            ],
            end_time: Time(1_000),
            ..Default::default()
        };
        assert_eq!(
            metrics.block_intervals(ReplicaId(0)),
            vec![Duration(200), Duration(300)]
        );
    }

    #[test]
    fn client_latency_recovered_from_committed_batches() {
        use crate::workload::{Request, WorkloadBatch};
        let batch = WorkloadBatch {
            requests: vec![Request {
                id: 1,
                client: 0,
                size: 100,
                submitted_at: Time(10),
            }],
        };
        let mut e = entry(1, 1, 0, 100, 300);
        e.payload = batch.into_payload();
        let metrics = RunMetrics {
            commits: vec![
                // Proposer-side commit: one sample of 300 − 10 ns.
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: e.clone(),
                },
                // The same block at another replica: not double-counted.
                ObservedCommit {
                    replica: ReplicaId(1),
                    entry: e,
                },
                // A synthetic-payload commit contributes no client sample.
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: entry(2, 2, 0, 0, 400),
                },
            ],
            end_time: Time(1_000),
            ..Default::default()
        };
        assert_eq!(metrics.client_latencies(), vec![Duration(290)]);
        assert_eq!(metrics.requests_committed(), 1);
        assert_eq!(metrics.client_latency_stats().count, 1);
    }

    #[test]
    fn duplicate_committed_requests_count_once() {
        use crate::workload::{Request, WorkloadBatch};
        // The same request (gossiped to every pool, then also retried)
        // lands in two different committed blocks at two proposers. The
        // metrics layer must count it exactly once — first commit wins —
        // and report the later copy as a suppressed duplicate.
        let request = Request {
            id: 9,
            client: 1,
            size: 100,
            submitted_at: Time(50),
        };
        let mut first = entry(1, 1, 0, 60, 100);
        first.payload = WorkloadBatch {
            requests: vec![request],
        }
        .into_payload();
        let mut second = entry(2, 2, 1, 150, 300);
        second.payload = WorkloadBatch {
            requests: vec![request],
        }
        .into_payload();
        let metrics = RunMetrics {
            commits: vec![
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: first,
                },
                ObservedCommit {
                    replica: ReplicaId(1),
                    entry: second,
                },
            ],
            end_time: Time(1_000),
            ..Default::default()
        };
        assert_eq!(metrics.requests_committed(), 1, "exactly once");
        assert_eq!(
            metrics.client_latencies(),
            vec![Duration(50)],
            "the first commit's latency is the request's latency"
        );
        assert_eq!(metrics.duplicate_requests_suppressed(), 1);
    }

    #[test]
    fn requests_lost_balances_submitted_completed_and_pending() {
        let metrics = RunMetrics {
            requests_submitted: 100,
            requests_completed: 90,
            requests_pending: 4,
            ..Default::default()
        };
        assert_eq!(metrics.requests_lost(), 6);
        // Saturates rather than underflowing when bookkeeping is partial.
        let odd = RunMetrics {
            requests_submitted: 10,
            requests_completed: 8,
            requests_pending: 5,
            ..Default::default()
        };
        assert_eq!(odd.requests_lost(), 0);
    }

    #[test]
    fn per_client_series_and_load_summary() {
        use crate::workload::{Request, WorkloadBatch};
        let mk = |client: u16, id: u64, submitted: u64| Request {
            id,
            client,
            size: 100,
            submitted_at: Time(submitted),
        };
        // Client 0: two requests (latencies 100 and 200 ns); client 3: one
        // request (latency 400 ns).
        let mut e1 = entry(1, 1, 0, 0, 200);
        e1.payload = WorkloadBatch {
            requests: vec![mk(0, 1, 100), mk(0, 2, 0)],
        }
        .into_payload();
        let mut e2 = entry(2, 2, 1, 0, 500);
        e2.payload = WorkloadBatch {
            requests: vec![mk(3, 3, 100)],
        }
        .into_payload();
        let metrics = RunMetrics {
            commits: vec![
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: e1,
                },
                ObservedCommit {
                    replica: ReplicaId(1),
                    entry: e2,
                },
            ],
            requests_submitted: 5,
            end_time: Time(1_000_000_000), // 1 s
            ..Default::default()
        };
        let series = metrics.per_client_latencies();
        assert_eq!(series.len(), 2);
        assert_eq!(series[&0], vec![Duration(100), Duration(200)]);
        assert_eq!(series[&3], vec![Duration(400)]);
        assert!((metrics.goodput_rps() - 3.0).abs() < 1e-9);
        let summary = metrics.client_load_summary();
        assert_eq!(summary.requests_committed, 3);
        assert_eq!(summary.requests_submitted, 5);
        assert_eq!(summary.clients_observed, 2);
        assert!((summary.goodput_rps - 3.0).abs() < 1e-9);
        // Fairness spread: client 0 mean 150 ns, client 3 mean 400 ns.
        assert!((summary.min_client_mean_ms - 150e-6).abs() < 1e-12);
        assert!((summary.max_client_mean_ms - 400e-6).abs() < 1e-12);
    }

    #[test]
    fn empty_load_summary_is_zeroed() {
        let summary = RunMetrics::default().client_load_summary();
        assert_eq!(summary.requests_committed, 0);
        assert_eq!(summary.clients_observed, 0);
        assert_eq!(summary.min_client_mean_ms, 0.0);
        assert_eq!(summary.max_client_mean_ms, 0.0);
        assert_eq!(summary.goodput_rps, 0.0);
    }

    #[test]
    fn explicit_commit_intervals_skip_implicit_flushes() {
        let mut implicit = entry(2, 2, 0, 0, 300);
        implicit.explicit = false;
        let metrics = RunMetrics {
            commits: vec![
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: entry(1, 1, 0, 0, 100),
                },
                // Ancestor flush at the same instant as the next explicit
                // commit: must not contribute a zero-width interval.
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: implicit,
                },
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: entry(3, 3, 0, 0, 300),
                },
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: entry(4, 4, 0, 0, 700),
                },
            ],
            end_time: Time(1_000),
            ..Default::default()
        };
        assert_eq!(
            metrics.explicit_commit_intervals(ReplicaId(0)),
            vec![Duration(200), Duration(400)]
        );
        let mean = metrics.mean_commit_interval_ms(ReplicaId(0));
        assert!((mean - 300.0e-6).abs() < 1e-12, "mean of 200 ns and 400 ns");
        assert_eq!(
            RunMetrics::default().mean_commit_interval_ms(ReplicaId(0)),
            0.0
        );
    }

    #[test]
    fn fast_path_share_counts_explicit_only() {
        let mut fast = entry(1, 1, 0, 0, 10);
        fast.fast = true;
        let mut implicit = entry(2, 2, 0, 0, 10);
        implicit.explicit = false;
        let slow = entry(3, 3, 0, 0, 10);
        let metrics = RunMetrics {
            commits: vec![
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: fast,
                },
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: implicit,
                },
                ObservedCommit {
                    replica: ReplicaId(0),
                    entry: slow,
                },
            ],
            end_time: Time(1_000),
            ..Default::default()
        };
        assert!((metrics.fast_path_share(ReplicaId(0)) - 0.5).abs() < 1e-9);
    }
}
