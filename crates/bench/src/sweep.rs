//! Saturation sweeps: drive a protocol with a growing closed-loop client
//! population and find the knee of its throughput/latency curve.
//!
//! A closed-loop population of `clients × window` outstanding requests
//! offers load that self-regulates to what the cluster commits: at small
//! populations goodput grows roughly linearly with clients (latency is
//! flat at the consensus floor), and past the cluster's capacity goodput
//! plateaus while latency grows with the queue. The **knee** is the
//! smallest population that already achieves (nearly all of) the plateau
//! goodput — the operating point every BFT evaluation wants to report.

use banyan_types::time::Duration;

use crate::runner::{run, Scenario};

/// One measured point of a saturation sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Closed-loop population size: the (modeled) clients, wide enough
    /// for [`measure_cohorts`]'s 10⁶.
    pub clients: u64,
    /// Outstanding-request window per client.
    pub window: u32,
    /// Committed requests per second.
    pub goodput_rps: f64,
    /// End-to-end (submit→commit) median latency, ms.
    pub p50_ms: f64,
    /// End-to-end (submit→commit) 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Committed payload bytes per second, MB/s.
    pub throughput_mbps: f64,
    /// Rounds per commit: mean explicit-commit interval at the observer
    /// normalized by the protocol Δ (see `Outcome::rounds_per_commit`).
    /// The meter optimistic pipelining moves — proposal/certification
    /// overlap shortens the span between finalizations.
    pub rounds_per_commit: f64,
    /// Requests submitted over the run.
    pub submitted: u64,
    /// Requests committed over the run (deduped by id).
    pub committed: u64,
    /// Requests lost: `submitted − completed − pending` at the end of
    /// the run (after the drain phase, when one is configured). Nonzero
    /// means work vanished into never-finalized proposals.
    pub lost: u64,
    /// Client retransmissions performed.
    pub retried: u64,
    /// Duplicate committed occurrences suppressed by exactly-once dedup.
    pub duplicates: u64,
    /// Duplicate inclusions as a share of committed requests
    /// (`duplicates / committed`, 0 when nothing committed) — the
    /// regression meter for the speculative drain: blind drains under
    /// gossip push this far up for commit-lagged protocols; ancestor-aware
    /// drains hold it near zero.
    pub dup_share: f64,
    /// Batch efficiency: the fraction of batched-and-committed request
    /// occurrences that were useful, `committed / (committed +
    /// duplicates)` (1.0 when nothing committed — an empty run wastes no
    /// block space).
    pub batch_efficiency: f64,
    /// Catch-up fetches issued by rejoining replicas (0 without restarts).
    pub sync_requests: u64,
    /// Blocks served in ranged-sync response batches.
    pub sync_blocks: u64,
    /// Total milliseconds rejoining replicas spent catching up.
    pub recovery_ms: u64,
    /// Write-ahead-log bytes held across replicas at the end of the run.
    pub wal_bytes: u64,
    /// Signatures verified across all replicas (0 with crypto off).
    pub sigs: u64,
    /// Combined (batched) verification checks performed.
    pub batches: u64,
    /// Certificate verifications answered from the verdict cache.
    pub cache_hits: u64,
    /// Virtual CPU milliseconds charged for verification.
    pub verify_cpu_ms: u64,
    /// Dissemination bytes on the wire per submitted request (0 without
    /// gossip) — the meter propagation-limited gossip exists to shrink:
    /// broadcast pays ~`(n−1) × size` per request, the fanout tree pays
    /// `fanout` full copies plus compact announce records.
    pub gossip_bytes_per_req: f64,
    /// Forward-path losses: shared-outbox drops plus per-peer
    /// backpressure sheds across every pool.
    pub forwards_dropped: u64,
}

impl SweepPoint {
    /// Derives the duplicate-share and batch-efficiency columns from raw
    /// committed/duplicate counts.
    pub fn efficiency(committed: u64, duplicates: u64) -> (f64, f64) {
        if committed == 0 {
            return (0.0, 1.0);
        }
        let dup_share = duplicates as f64 / committed as f64;
        let batch_efficiency = committed as f64 / (committed + duplicates) as f64;
        (dup_share, batch_efficiency)
    }
}

/// The fraction of the plateau goodput a point must reach to qualify as
/// the knee (90% — past it, added clients buy latency, not goodput).
pub const KNEE_FRACTION: f64 = 0.9;

/// Index of the saturation knee: the first point whose goodput reaches
/// [`KNEE_FRACTION`] of the sweep's maximum goodput. `None` for an empty
/// sweep or one that never commits anything.
pub fn knee_index(points: &[SweepPoint]) -> Option<usize> {
    let max = points.iter().map(|p| p.goodput_rps).fold(0.0, f64::max);
    if max <= 0.0 {
        return None;
    }
    points
        .iter()
        .position(|p| p.goodput_rps >= KNEE_FRACTION * max)
}

/// The end-to-end median latency at the sweep's knee, ms — the headline
/// "commit latency at the operating point" number. `None` when the sweep
/// has no knee (nothing committed).
pub fn knee_p50_ms(points: &[SweepPoint]) -> Option<f64> {
    knee_index(points).map(|i| points[i].p50_ms)
}

/// Mean rounds-per-commit across a sweep's points (0-valued points —
/// runs with fewer than two explicit commits — are excluded). `None`
/// when no point produced the meter.
pub fn mean_rounds_per_commit(points: &[SweepPoint]) -> Option<f64> {
    let live: Vec<f64> = points
        .iter()
        .map(|p| p.rounds_per_commit)
        .filter(|&r| r > 0.0)
        .collect();
    if live.is_empty() {
        return None;
    }
    Some(live.iter().sum::<f64>() / live.len() as f64)
}

/// Runs one point of a sweep: `base` (protocol, topology, request size,
/// duration, seed, …) switched to a closed loop of `clients × window`
/// outstanding requests with `think_time` pauses, one cohort per client,
/// reduced to a [`SweepPoint`].
///
/// # Panics
///
/// Panics if the run observes a safety violation.
pub fn measure(base: &Scenario, clients: u16, window: u32, think_time: Duration) -> SweepPoint {
    measure_cohorts(base, clients as u64, clients, window, think_time)
}

/// [`measure`] with the population aggregated: `modeled` clients (up to
/// millions) folded into `cohorts` cohorts.
///
/// # Panics
///
/// Panics if the run observes a safety violation.
pub fn measure_cohorts(
    base: &Scenario,
    modeled: u64,
    cohorts: u16,
    window: u32,
    think_time: Duration,
) -> SweepPoint {
    let scenario = base
        .clone()
        .cohort_load(modeled, cohorts, window, think_time);
    reduce(&scenario, modeled, window)
}

fn reduce(scenario: &Scenario, clients: u64, window: u32) -> SweepPoint {
    let out = run(scenario);
    assert!(out.safe, "safety violation in {} sweep", scenario.protocol);
    let e2e = out.client_latency.unwrap_or_default();
    let (dup_share, batch_efficiency) =
        SweepPoint::efficiency(out.requests_committed, out.duplicates_suppressed);
    let gossip_bytes_per_req = if out.requests_submitted > 0 {
        out.gossip_bytes as f64 / out.requests_submitted as f64
    } else {
        0.0
    };
    SweepPoint {
        clients,
        window,
        goodput_rps: out.goodput_rps,
        p50_ms: e2e.p50_ms,
        p99_ms: e2e.p99_ms,
        throughput_mbps: out.throughput_mbps,
        rounds_per_commit: out.rounds_per_commit,
        submitted: out.requests_submitted,
        committed: out.requests_committed,
        lost: out.requests_lost,
        retried: out.requests_retried,
        duplicates: out.duplicates_suppressed,
        dup_share,
        batch_efficiency,
        sync_requests: out.sync_requests,
        sync_blocks: out.sync_blocks_served,
        recovery_ms: out.restart_recovery_ms,
        wal_bytes: out.wal_bytes,
        sigs: out.sigs_verified,
        batches: out.verify_batches,
        cache_hits: out.cert_cache_hits,
        verify_cpu_ms: out.verify_cpu_ms,
        gossip_bytes_per_req,
        forwards_dropped: out.forwards_dropped,
    }
}

/// Header matching [`point_row`].
pub fn sweep_header() -> String {
    format!(
        "{:>8} {:>7} {:>12} {:>10} {:>10} {:>9} {:>6} {:>10} {:>10} {:>6} {:>8} {:>6} {:>6} {:>6} {:>5} {:>7} {:>7} {:>9} {:>9} {:>8} {:>7} {:>8} {:>10} {:>8}  {}",
        "clients",
        "window",
        "goodput/s",
        "p50 ms",
        "p99 ms",
        "MB/s",
        "rpc",
        "submitted",
        "committed",
        "lost",
        "retried",
        "dups",
        "dup%",
        "eff%",
        "sync",
        "served",
        "rec.ms",
        "wal.B",
        "sigs",
        "batches",
        "cacheh",
        "vcpu.ms",
        "gsp.B/req",
        "fwd.drop",
        ""
    )
}

/// Formats one sweep point; `knee` appends the saturation marker.
pub fn point_row(p: &SweepPoint, knee: bool) -> String {
    format!(
        "{:>8} {:>7} {:>12.1} {:>10.2} {:>10.2} {:>9.3} {:>6.2} {:>10} {:>10} {:>6} {:>8} {:>6} {:>6.2} {:>6.1} {:>5} {:>7} {:>7} {:>9} {:>9} {:>8} {:>7} {:>8} {:>10.1} {:>8}  {}",
        p.clients,
        p.window,
        p.goodput_rps,
        p.p50_ms,
        p.p99_ms,
        p.throughput_mbps,
        p.rounds_per_commit,
        p.submitted,
        p.committed,
        p.lost,
        p.retried,
        p.duplicates,
        p.dup_share * 100.0,
        p.batch_efficiency * 100.0,
        p.sync_requests,
        p.sync_blocks,
        p.recovery_ms,
        p.wal_bytes,
        p.sigs,
        p.batches,
        p.cache_hits,
        p.verify_cpu_ms,
        p.gossip_bytes_per_req,
        p.forwards_dropped,
        if knee { "<- knee" } else { "" }
    )
}

/// One sweep point as a JSON object (hand-rolled — every field is a
/// number, so no escaping is needed).
pub fn point_json(p: &SweepPoint) -> String {
    format!(
        "{{\"clients\":{},\"window\":{},\"goodput_rps\":{:.3},\"p50_ms\":{:.4},\
         \"p99_ms\":{:.4},\"throughput_mbps\":{:.5},\"rounds_per_commit\":{:.4},\
         \"submitted\":{},\"committed\":{},\
         \"lost\":{},\"retried\":{},\"duplicates\":{},\"dup_share\":{:.5},\
         \"batch_efficiency\":{:.5},\"sync_requests\":{},\"sync_blocks\":{},\
         \"recovery_ms\":{},\"wal_bytes\":{},\"sigs\":{},\"batches\":{},\
         \"cache_hits\":{},\"verify_cpu_ms\":{},\
         \"gossip_bytes_per_req\":{:.3},\"forwards_dropped\":{}}}",
        p.clients,
        p.window,
        p.goodput_rps,
        p.p50_ms,
        p.p99_ms,
        p.throughput_mbps,
        p.rounds_per_commit,
        p.submitted,
        p.committed,
        p.lost,
        p.retried,
        p.duplicates,
        p.dup_share,
        p.batch_efficiency,
        p.sync_requests,
        p.sync_blocks,
        p.recovery_ms,
        p.wal_bytes,
        p.sigs,
        p.batches,
        p.cache_hits,
        p.verify_cpu_ms,
        p.gossip_bytes_per_req,
        p.forwards_dropped
    )
}

/// One protocol's whole sweep as a JSON object:
/// `{"protocol":…,"knee":…,"points":[…]}` with `knee` the knee *index*
/// (or `null`). Machine-readable output for trajectory tracking
/// (`BENCH_*.json`) and CI assertions.
pub fn sweep_json(protocol: &str, points: &[SweepPoint]) -> String {
    let knee = match knee_index(points) {
        Some(i) => i.to_string(),
        None => "null".to_string(),
    };
    let body: Vec<String> = points.iter().map(point_json).collect();
    format!(
        "{{\"protocol\":\"{}\",\"knee\":{},\"points\":[{}]}}",
        protocol,
        knee,
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(clients: u64, goodput: f64) -> SweepPoint {
        let (dup_share, batch_efficiency) = SweepPoint::efficiency(90, 1);
        SweepPoint {
            clients,
            window: 1,
            goodput_rps: goodput,
            p50_ms: 10.0,
            p99_ms: 20.0,
            throughput_mbps: 1.0,
            rounds_per_commit: 3.5,
            submitted: 100,
            committed: 90,
            lost: 3,
            retried: 7,
            duplicates: 1,
            dup_share,
            batch_efficiency,
            sync_requests: 2,
            sync_blocks: 12,
            recovery_ms: 45,
            wal_bytes: 2048,
            sigs: 640,
            batches: 32,
            cache_hits: 16,
            verify_cpu_ms: 25,
            gossip_bytes_per_req: 1536.5,
            forwards_dropped: 4,
        }
    }

    #[test]
    fn efficiency_columns_derive_from_counts() {
        assert_eq!(SweepPoint::efficiency(0, 0), (0.0, 1.0));
        let (dup, eff) = SweepPoint::efficiency(90, 10);
        assert!((dup - 10.0 / 90.0).abs() < 1e-12);
        assert!((eff - 0.9).abs() < 1e-12);
        let (dup, eff) = SweepPoint::efficiency(100, 0);
        assert_eq!((dup, eff), (0.0, 1.0));
    }

    #[test]
    fn knee_is_first_point_near_plateau() {
        // Linear ramp then plateau at 100: 90% of 100 is first reached at
        // the 95-goodput point.
        let sweep = vec![
            pt(1, 25.0),
            pt(2, 50.0),
            pt(4, 95.0),
            pt(8, 100.0),
            pt(16, 99.0),
        ];
        assert_eq!(knee_index(&sweep), Some(2));
    }

    #[test]
    fn knee_of_flat_sweep_is_first_point() {
        let sweep = vec![pt(1, 50.0), pt(2, 50.0), pt(4, 50.0)];
        assert_eq!(knee_index(&sweep), Some(0));
    }

    #[test]
    fn knee_absent_without_goodput() {
        assert_eq!(knee_index(&[]), None);
        assert_eq!(knee_index(&[pt(1, 0.0), pt(2, 0.0)]), None);
        assert_eq!(knee_p50_ms(&[]), None);
    }

    #[test]
    fn knee_latency_and_mean_rpc_reduce_the_sweep() {
        let sweep = vec![pt(1, 25.0), pt(2, 95.0), pt(4, 100.0)];
        assert_eq!(knee_p50_ms(&sweep), Some(10.0));
        let mean = mean_rounds_per_commit(&sweep).expect("live points");
        assert!((mean - 3.5).abs() < 1e-12);
        // Zero-valued (too-few-commits) points are excluded, and an
        // all-zero sweep yields no meter at all.
        let mut short = pt(1, 25.0);
        short.rounds_per_commit = 0.0;
        assert_eq!(mean_rounds_per_commit(&[short.clone()]), None);
        let mixed = vec![short, pt(2, 95.0)];
        assert_eq!(mean_rounds_per_commit(&mixed), Some(3.5));
    }

    #[test]
    fn rows_align_with_header() {
        let header = sweep_header();
        let row = point_row(&pt(4, 123.4), true);
        assert!(row.contains("<- knee"));
        assert!(header.contains("goodput/s"));
        assert!(header.contains("lost"));
        assert!(header.contains("dup%") && header.contains("eff%"));
        assert!(header.contains("sync") && header.contains("rec.ms"));
        assert!(header.contains("rpc"), "rounds-per-commit column: {header}");
        assert!(row.contains("3.50"), "rpc column present: {row}");
        assert!(row.contains(" 3 "), "lost column present: {row}");
        assert!(row.contains("98.9"), "efficiency column present: {row}");
        assert!(row.contains("2048"), "wal column present: {row}");
        assert!(
            header.contains("sigs") && header.contains("cacheh") && header.contains("vcpu.ms"),
            "crypto columns in header: {header}"
        );
        assert!(row.contains("640"), "sigs column present: {row}");
        assert!(row.contains("25"), "vcpu column present: {row}");
        assert!(
            header.contains("gsp.B/req") && header.contains("fwd.drop"),
            "gossip columns in header: {header}"
        );
        assert!(row.contains("1536.5"), "gossip-bytes column present: {row}");
    }

    #[test]
    fn json_output_is_well_formed() {
        let points = vec![pt(1, 50.0), pt(2, 100.0)];
        let json = sweep_json("banyan", &points);
        assert!(json.starts_with("{\"protocol\":\"banyan\",\"knee\":1,"));
        assert_eq!(json.matches("\"clients\":").count(), 2);
        assert!(json.contains("\"rounds_per_commit\":3.5000"));
        assert!(json.contains("\"lost\":3"));
        assert!(json.contains("\"retried\":7"));
        assert!(json.contains("\"duplicates\":1"));
        assert!(json.contains("\"dup_share\":0.01111"));
        assert!(json.contains("\"batch_efficiency\":0.98901"));
        assert!(json.contains("\"sync_requests\":2"));
        assert!(json.contains("\"sync_blocks\":12"));
        assert!(json.contains("\"recovery_ms\":45"));
        assert!(json.contains("\"wal_bytes\":2048"));
        assert!(json.contains("\"sigs\":640"));
        assert!(json.contains("\"batches\":32"));
        assert!(json.contains("\"cache_hits\":16"));
        assert!(json.contains("\"verify_cpu_ms\":25"));
        assert!(json.contains("\"gossip_bytes_per_req\":1536.500"));
        assert!(json.contains("\"forwards_dropped\":4"));
        assert!(json.ends_with("]}"));
        // An empty sweep has a null knee and an empty points array.
        assert_eq!(
            sweep_json("x", &[]),
            "{\"protocol\":\"x\",\"knee\":null,\"points\":[]}"
        );
    }
}
