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

use crate::runner::{run, Outcome, Scenario};

/// One measured point of a saturation sweep: the population it offered
/// and the run's [`Outcome`]. What a sweep reports about a point is the
/// [`COLUMNS`] list.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Closed-loop population size: the (modeled) clients, wide enough
    /// for [`measure_cohorts`]'s 10⁶.
    pub clients: u64,
    /// Outstanding-request window per client.
    pub window: u32,
    /// The run, reduced.
    pub out: Outcome,
}

impl SweepPoint {
    /// End-to-end (submit→commit) median latency, ms (0 when nothing
    /// committed).
    pub fn p50_ms(&self) -> f64 {
        self.out.client_latency.as_ref().map_or(0.0, |l| l.p50_ms)
    }

    /// End-to-end (submit→commit) 99th-percentile latency, ms.
    pub fn p99_ms(&self) -> f64 {
        self.out.client_latency.as_ref().map_or(0.0, |l| l.p99_ms)
    }

    /// Requests lost: `submitted − completed − pending` at the end of
    /// the run (after the drain phase, when one is configured). Nonzero
    /// means work vanished into never-finalized proposals.
    pub fn lost(&self) -> u64 {
        self.out.counters.requests_lost()
    }

    /// Duplicate inclusions as a share of committed requests
    /// (`duplicates / committed`, 0 when nothing committed) — the
    /// regression meter for the ancestor-aware drain: a drain blind to the
    /// chain pushes this far up under gossip for commit-lagged protocols;
    /// leases hold it near zero.
    pub fn dup_share(&self) -> f64 {
        Self::efficiency(self.out.requests_committed, self.out.duplicates_suppressed).0
    }

    /// Batch efficiency: the fraction of batched-and-committed request
    /// occurrences that were useful, `committed / (committed +
    /// duplicates)` (1.0 when nothing committed — an empty run wastes no
    /// block space).
    pub fn batch_efficiency(&self) -> f64 {
        Self::efficiency(self.out.requests_committed, self.out.duplicates_suppressed).1
    }

    /// Dissemination bytes on the wire per submitted request (0 without
    /// gossip) — the meter propagation-limited gossip exists to shrink:
    /// broadcast pays ~`(n−1) × size` per request, the fanout tree pays
    /// `fanout` full copies plus compact announce records.
    pub fn gossip_bytes_per_req(&self) -> f64 {
        match self.out.counters.requests_submitted {
            0 => 0.0,
            submitted => self.out.counters.gossip_bytes as f64 / submitted as f64,
        }
    }

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

/// How a column of [`COLUMNS`] reads and prints its value.
pub enum Cell {
    /// A counter, printed as is in the table and in JSON.
    Count(fn(&SweepPoint) -> u64),
    /// A measurement: accessor, table decimals, JSON decimals.
    Real(fn(&SweepPoint) -> f64, usize, usize),
    /// A `[0, 1]` share: JSON carries the fraction, the table shows it
    /// × 100.
    Share(fn(&SweepPoint) -> f64, usize, usize),
}
use Cell::{Count, Real, Share};

/// Everything a sweep reports about a point, in print order: `(JSON key,
/// table header, table width, accessor and precision)`. [`sweep_header`],
/// [`point_row`] and [`point_json`] are all rendered from this list, so
/// adding a column is one entry here.
#[rustfmt::skip]
pub const COLUMNS: &[(&str, &str, usize, Cell)] = &[
    ("clients", "clients", 8, Count(|p| p.clients)),
    ("window", "window", 7, Count(|p| p.window as u64)),
    ("goodput_rps", "goodput/s", 12, Real(|p| p.out.goodput_rps, 1, 3)),
    ("p50_ms", "p50 ms", 10, Real(SweepPoint::p50_ms, 2, 4)),
    ("p99_ms", "p99 ms", 10, Real(SweepPoint::p99_ms, 2, 4)),
    ("throughput_mbps", "MB/s", 9, Real(|p| p.out.throughput_mbps, 3, 5)),
    ("rounds_per_commit", "rpc", 6, Real(|p| p.out.rounds_per_commit, 2, 4)),
    ("submitted", "submitted", 10, Count(|p| p.out.counters.requests_submitted)),
    ("committed", "committed", 10, Count(|p| p.out.requests_committed)),
    ("lost", "lost", 6, Count(SweepPoint::lost)),
    ("retried", "retried", 8, Count(|p| p.out.counters.requests_retried)),
    ("duplicates", "dups", 6, Count(|p| p.out.duplicates_suppressed)),
    ("dup_share", "dup%", 6, Share(SweepPoint::dup_share, 2, 5)),
    ("batch_efficiency", "eff%", 6, Share(SweepPoint::batch_efficiency, 1, 5)),
    ("sync_requests", "sync", 5, Count(|p| p.out.counters.sync_requests)),
    ("sync_blocks", "served", 7, Count(|p| p.out.counters.sync_blocks_served)),
    ("recovery_ms", "rec.ms", 7, Count(|p| p.out.counters.restart_recovery_ms)),
    ("wal_bytes", "wal.B", 9, Count(|p| p.out.counters.wal_bytes)),
    ("sigs", "sigs", 9, Count(|p| p.out.counters.sigs_verified)),
    ("batches", "batches", 8, Count(|p| p.out.counters.verify_batches)),
    ("cache_hits", "cacheh", 7, Count(|p| p.out.counters.cert_cache_hits)),
    ("verify_cpu_ms", "vcpu.ms", 8, Count(|p| p.out.counters.verify_cpu_ms)),
    ("gossip_bytes_per_req", "gsp.B/req", 10, Real(SweepPoint::gossip_bytes_per_req, 1, 3)),
    ("forwards_dropped", "fwd.drop", 8, Count(|p| p.out.counters.forwards_dropped)),
];

/// The fraction of the plateau goodput a point must reach to qualify as
/// the knee (90% — past it, added clients buy latency, not goodput).
pub const KNEE_FRACTION: f64 = 0.9;

/// Index of the saturation knee: the first point whose goodput reaches
/// [`KNEE_FRACTION`] of the sweep's maximum goodput. `None` for an empty
/// sweep or one that never commits anything.
pub fn knee_index(points: &[SweepPoint]) -> Option<usize> {
    let max = points.iter().map(|p| p.out.goodput_rps).fold(0.0, f64::max);
    if max <= 0.0 {
        return None;
    }
    points
        .iter()
        .position(|p| p.out.goodput_rps >= KNEE_FRACTION * max)
}

/// The end-to-end median latency at the sweep's knee, ms — the headline
/// "commit latency at the operating point" number. `None` when the sweep
/// has no knee (nothing committed).
pub fn knee_p50_ms(points: &[SweepPoint]) -> Option<f64> {
    knee_index(points).map(|i| points[i].p50_ms())
}

/// Mean rounds-per-commit across a sweep's points (0-valued points —
/// runs with fewer than two explicit commits — are excluded). `None`
/// when no point produced the meter.
pub fn mean_rounds_per_commit(points: &[SweepPoint]) -> Option<f64> {
    let live: Vec<f64> = points
        .iter()
        .map(|p| p.out.rounds_per_commit)
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
    let out = run(&scenario);
    assert!(out.safe, "safety violation in {} sweep", scenario.protocol);
    SweepPoint {
        clients: modeled,
        window,
        out,
    }
}

/// Header matching [`point_row`].
pub fn sweep_header() -> String {
    let cell = |&(_, head, width, _): &(_, &str, usize, _)| format!("{head:>width$}");
    let cells: Vec<String> = COLUMNS.iter().map(cell).collect();
    format!("{}  ", cells.join(" "))
}

/// Formats one sweep point; `knee` appends the saturation marker.
pub fn point_row(p: &SweepPoint, knee: bool) -> String {
    let cell = |(_, _, width, cell): &(_, _, usize, Cell)| match *cell {
        Count(get) => format!("{:>width$}", get(p)),
        Real(get, decimals, _) => format!("{:>width$.decimals$}", get(p)),
        Share(get, decimals, _) => format!("{:>width$.decimals$}", get(p) * 100.0),
    };
    let cells: Vec<String> = COLUMNS.iter().map(cell).collect();
    format!("{}  {}", cells.join(" "), if knee { "<- knee" } else { "" })
}

/// One sweep point as a JSON object (hand-rolled — every field is a
/// number, so no escaping is needed).
pub fn point_json(p: &SweepPoint) -> String {
    let cell = |(key, _, _, cell): &(&str, _, _, Cell)| match *cell {
        Count(get) => format!("\"{key}\":{}", get(p)),
        Real(get, _, decimals) | Share(get, _, decimals) => {
            format!("\"{key}\":{:.decimals$}", get(p))
        }
    };
    let cells: Vec<String> = COLUMNS.iter().map(cell).collect();
    format!("{{{}}}", cells.join(","))
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
    use banyan_simnet::metrics::{LatencyStats, RunMetrics};

    fn pt(clients: u64, goodput: f64) -> SweepPoint {
        let mut p = SweepPoint {
            clients,
            window: 1,
            out: Outcome::default(),
        };
        p.out.goodput_rps = goodput;
        p.out.client_latency = Some(LatencyStats {
            p50_ms: 10.0,
            p99_ms: 20.0,
            ..LatencyStats::default()
        });
        p.out.throughput_mbps = 1.0;
        p.out.rounds_per_commit = 3.5;
        p.out.requests_committed = 90;
        p.out.duplicates_suppressed = 1;
        p.out.counters = RunMetrics {
            requests_submitted: 100,
            // lost = submitted − completed − pending = 3.
            requests_completed: 90,
            requests_pending: 7,
            requests_retried: 7,
            sync_requests: 2,
            sync_blocks_served: 12,
            restart_recovery_ms: 45,
            wal_bytes: 2048,
            sigs_verified: 640,
            verify_batches: 32,
            cert_cache_hits: 16,
            verify_cpu_ms: 25,
            // 1536.5 B per submitted request.
            gossip_bytes: 153_650,
            forwards_dropped: 4,
            ..RunMetrics::default()
        };
        p
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
        short.out.rounds_per_commit = 0.0;
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
    fn header_row_and_json_each_have_one_cell_per_column() {
        let p = pt(4, 123.4);
        // Cells are right-aligned to their width and joined by one space,
        // then two spaces and the (possibly empty) knee marker.
        let width: usize = COLUMNS.iter().map(|(_, _, w, _)| w + 1).sum::<usize>() + 1;
        assert_eq!(sweep_header().chars().count(), width);
        let row = point_row(&p, false);
        assert_eq!(row.chars().count(), width);
        assert_eq!(row.split_whitespace().count(), COLUMNS.len());
        let json = point_json(&p);
        assert_eq!(json.matches("\":").count(), COLUMNS.len());
        for (i, (key, head, ..)) in COLUMNS.iter().enumerate() {
            assert!(json.contains(&format!("\"{key}\":")), "{key}");
            assert!(sweep_header().contains(head), "{head}");
            let earlier = &COLUMNS[..i];
            assert!(earlier.iter().all(|(k, h, ..)| k != key && h != head));
        }
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
