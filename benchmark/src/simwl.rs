//! `sim_wan19`: the paper's own yardstick under real WAN delays, in exact
//! virtual time, plus the simulator's wall-clock speed.
//!
//! One *unit* of work is three single-threaded simulations on the paper's
//! §9.3 testbed (19 replicas, 4 global datacenters, f=6, p=1):
//! (a) Banyan and (b) ICC with 400 KB leader-minted payloads — the Fig. 6a
//! point — and (c) Banyan under a closed loop of 128 clients × window 4
//! with 512 B requests, gossip and a 500 ms client retry, followed by a
//! drain. The unit repeats on the same seed until the measured seconds are
//! used up: every repetition is the same deterministic work (checked — the
//! virtual-time results must be identical), so the wall-clock metrics are
//! those of the least disturbed repetitions ([`best_quarter`]), and the
//! virtual-time metrics are exact per seed.

use std::path::Path;
use std::time::Instant;

use banyan_simnet::metrics::{LatencyStats, RunMetrics};
use banyan_simnet::sim::Simulation;
use banyan_types::ids::ReplicaId;
use banyan_types::time::{Duration as VDuration, Time};

use crate::proc::{peak_rss_mb, process_cpu_ms};
use crate::report::{Outcome, Values};
use crate::stats::{best_quarter, median};
use crate::sut::{build_sim, SimLoad, SimSpec};
use crate::trace::{self, now_ns, TraceSummary};

/// Virtual seconds of (a) and (b) per unit.
const FIN_VSECS: u64 = 5;
/// Virtual seconds of (c) per unit, and of the drain that follows it.
const LOOP_VSECS: u64 = 2;
const DRAIN_VSECS: u64 = 1;
/// Virtual seconds one unit simulates.
const UNIT_VSECS: u64 = 2 * FIN_VSECS + LOOP_VSECS + DRAIN_VSECS;
const PAYLOAD: u64 = 400_000;
/// Builds of a unit's simulations beyond those that run; `setup_s` is the
/// median of all of them.
const EXTRA_SETUPS: usize = 8;
const REPLICAS: usize = 19;

fn specs(seed: u64) -> [SimSpec; 3] {
    [
        SimSpec {
            protocol: "banyan",
            load: SimLoad::LeaderMinted(PAYLOAD),
            seed,
        },
        SimSpec {
            protocol: "icc",
            load: SimLoad::LeaderMinted(PAYLOAD),
            seed,
        },
        SimSpec {
            protocol: "banyan",
            load: SimLoad::ClosedLoop {
                clients: 64,
                window: 4,
                request_size: 512,
                retry: VDuration::from_millis(500),
            },
            seed,
        },
    ]
}

fn secs(v: u64) -> Time {
    Time(VDuration::from_secs(v).as_nanos())
}

#[derive(Default)]
struct Unit {
    setup_s: f64,
    /// `run_until` + `into_results` + the summaries, all three parts.
    wall_s: f64,
    run_until_s: f64,
    results_s: f64,
    cpu_ms: f64,
    /// Epoch ns around the three `run_until` calls (span window).
    from: u64,
    to: u64,
    committed: u64,
    submitted: u64,
    lost: u64,
    safe: bool,
    messages: u64,
    bytes: u64,
    commits_logged: u64,
    /// Rounds committed anywhere, all three parts; (a)'s alone, and (a)'s
    /// fast-path share at replica 0.
    rounds: u64,
    rounds_banyan: u64,
    fast_share: f64,
    fin_banyan: LatencyStats,
    fin_icc: LatencyStats,
    client: LatencyStats,
}

fn finish(sim: Simulation, unit: &mut Unit) -> RunMetrics {
    let t = Instant::now();
    let (metrics, auditor) = sim.into_results();
    unit.safe &= auditor.is_safe();
    unit.messages += metrics.messages_sent;
    unit.bytes += metrics.bytes_sent;
    unit.rounds += auditor.committed_rounds() as u64;
    unit.commits_logged += metrics.commits.len() as u64;
    unit.results_s += t.elapsed().as_secs_f64();
    metrics
}

fn run_unit(seed: u64, traced: bool) -> Unit {
    let mut unit = Unit {
        safe: true,
        ..Unit::default()
    };
    let build = Instant::now();
    let [a, b, c] = specs(seed).map(|s| build_sim(&s, traced));
    unit.setup_s = build.elapsed().as_secs_f64();

    let cpu0 = process_cpu_ms();
    let wall = Instant::now();
    unit.from = now_ns();
    let (mut a, mut b, mut c) = (a, b, c);
    let t = Instant::now();
    a.run_until(secs(FIN_VSECS));
    b.run_until(secs(FIN_VSECS));
    c.run_until(secs(LOOP_VSECS));
    // Drain: no new submissions (retries keep firing), so whatever is
    // still uncommitted afterwards is lost, not in flight.
    c.freeze_workload();
    c.run_until(secs(LOOP_VSECS + DRAIN_VSECS));
    unit.run_until_s = t.elapsed().as_secs_f64();
    unit.to = now_ns();

    let ma = finish(a, &mut unit);
    unit.rounds_banyan = unit.rounds;
    unit.fast_share = ma.fast_path_share(ReplicaId(0));
    let mb = finish(b, &mut unit);
    let mc = finish(c, &mut unit);
    let t = Instant::now();
    unit.fin_banyan = ma.proposer_latency_stats();
    unit.fin_icc = mb.proposer_latency_stats();
    let (samples, _dups) = mc.client_samples_with_duplicates();
    let latencies: Vec<VDuration> = samples.iter().map(|&(_, d)| d).collect();
    unit.client = LatencyStats::from_samples(&latencies);
    unit.committed = samples.len() as u64;
    unit.submitted = mc.requests_submitted;
    unit.lost = mc.requests_lost();
    unit.results_s += t.elapsed().as_secs_f64();
    unit.wall_s = wall.elapsed().as_secs_f64();
    unit.cpu_ms = process_cpu_ms() - cpu0;
    unit
}

fn med(units: &[Unit], f: impl Fn(&Unit) -> f64) -> f64 {
    median(&units.iter().map(f).collect::<Vec<_>>())
}

fn best(units: &[Unit], higher_is_better: bool, f: impl Fn(&Unit) -> f64) -> f64 {
    best_quarter(&units.iter().map(f).collect::<Vec<_>>(), higher_is_better)
}

pub fn run(seed: u64, seconds: u64, traced: bool, out_dir: &Path) -> Outcome {
    let mut plain: Vec<Unit> = Vec::new();
    let mut with_trace: Vec<(Unit, TraceSummary)> = Vec::new();
    let mut first_threads = None;
    let started = Instant::now();
    let mut index = 0u64;
    while plain.is_empty() || started.elapsed().as_secs() < seconds {
        // With tracing, every unit has a twin with all seams wrapped; which
        // of the two runs first alternates, so neither always gets the
        // colder caches.
        let traced_first = traced && index % 2 == 1;
        if !traced_first {
            plain.push(run_unit(seed, false));
        }
        if traced {
            let unit = run_unit(seed, true);
            let threads = trace::take_all();
            let summary = trace::summarize(&threads, unit.from, unit.to, REPLICAS, true);
            if first_threads.is_none() {
                first_threads = Some(threads);
            }
            with_trace.push((unit, summary));
        }
        if traced_first {
            plain.push(run_unit(seed, false));
        }
        index += 1;
    }
    let peak = peak_rss_mb();

    let mut out = Outcome {
        correct: true,
        attempted: plain.iter().map(|u| u.submitted).sum(),
        failed: plain.iter().map(|u| u.lost).sum(),
        ..Outcome::default()
    };
    let all = || plain.iter().chain(with_trace.iter().map(|(u, _)| u));
    if all().any(|u| !u.safe) {
        out.correct = false;
        out.notes
            .push("FAILED: SafetyAuditor reports a violation".into());
    }
    if all().any(|u| u.lost > 0) {
        out.correct = false;
        out.notes
            .push("FAILED: requests_lost > 0 after the drain".into());
    }
    if all().any(|u| u.committed + u.lost < u.submitted) {
        out.correct = false;
        out.notes
            .push("FAILED: submitted requests still pending after the drain".into());
    }
    let virtual_results = |u: &Unit| {
        (
            u.fin_banyan.mean_ms,
            u.fin_icc.mean_ms,
            u.client.p50_ms,
            u.committed,
        )
    };
    if all().any(|u| virtual_results(u) != virtual_results(&plain[0])) {
        out.correct = false;
        out.notes
            .push("FAILED: repetitions on one seed differ in virtual time".into());
    }

    let first = &plain[0];
    let mut v = Values::default();
    if !traced {
        v.set(
            "goodput_rps",
            best(&plain, true, |u| u.committed as f64 / u.wall_s),
        );
        v.set("commit_p50_ms", first.client.p50_ms);
        v.set(
            "cpu_ms_per_kreq",
            best(&plain, false, |u| u.cpu_ms / (u.committed as f64 / 1000.0)),
        );
        v.set("peak_rss_mb", peak);
        let mut setups: Vec<f64> = plain.iter().map(|u| u.setup_s).collect();
        for _ in 0..EXTRA_SETUPS {
            let build = Instant::now();
            drop(specs(seed).map(|s| build_sim(&s, false)));
            setups.push(build.elapsed().as_secs_f64());
        }
        v.set("setup_s", median(&setups));
        out.notes.push(format!(
            "{} repetitions of {UNIT_VSECS} virtual s; goodput is (c)'s committed requests per wall second of the whole unit; commit_p50 is (c)'s virtual-time client latency ({} samples)",
            plain.len(),
            first.client.count
        ));
        out.notes.push(format!(
            "virtual time: Banyan finalization {:.3} ms, ICC {:.3} ms",
            first.fin_banyan.mean_ms, first.fin_icc.mean_ms
        ));
        out.values = v;
        return out;
    }

    let t = |f: fn(&TraceSummary) -> f64| {
        median(&with_trace.iter().map(|(_, s)| f(s)).collect::<Vec<_>>())
    };
    v.set(
        "simnet.vsec_per_s",
        best(&plain, true, |u| UNIT_VSECS as f64 / u.wall_s),
    );
    v.set(
        "simnet.run_until_share",
        med(&plain, |u| u.run_until_s / u.wall_s),
    );
    v.set(
        "simnet.results_share",
        med(&plain, |u| u.results_s / u.wall_s),
    );
    v.set(
        "simnet.msgs_per_vsec",
        first.messages as f64 / UNIT_VSECS as f64,
    );
    v.set("simnet.commits_logged", first.commits_logged as f64);
    let rounds = first.rounds.max(1) as f64;
    v.set(
        "core.rounds_per_s",
        first.rounds_banyan as f64 / FIN_VSECS as f64,
    );
    v.set("core.fast_path_share", first.fast_share);
    v.set("core.msgs_per_commit", first.messages as f64 / rounds);
    v.set("core.bytes_per_commit", first.bytes as f64 / rounds);
    v.set(
        "core.handler_calls_per_commit",
        t(|s| s.engine_calls as f64) / rounds,
    );
    v.set("simnet.vt_fin_banyan_ms", first.fin_banyan.mean_ms);
    v.set("simnet.vt_fin_icc_ms", first.fin_icc.mean_ms);
    v.set("simnet.vt_commit_p50_ms", first.client.p50_ms);
    v.set(
        "loadgen.fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    v.set("loadgen.commit_p99_ms", first.client.p99_ms);
    v.set("loadgen.latency_samples", first.client.count as f64);

    v.set("crypto.busy_ms_per_s", t(|s| s.crypto_busy_ms_per_s));
    v.set(
        "mempool.next_payload_busy_ms_per_s",
        t(|s| s.next_payload_busy_ms_per_s),
    );
    v.set("mempool.queue_wait_p50_ms", t(|s| s.queue_wait_p50_ms));
    v.set("mempool.reqs_per_batch", t(|s| s.reqs_per_batch));
    v.set("storage.busy_ms_per_s", t(|s| s.storage_busy_ms_per_s));
    v.set("core.self_busy_ms_per_s", t(|s| s.core_self_busy_ms_per_s));
    v.set("core.on_proposal_p50_us", t(|s| s.on_proposal_p50_us));
    v.set("core.on_vote_p50_us", t(|s| s.on_vote_p50_us));
    v.set("core.on_timer_p50_us", t(|s| s.on_timer_p50_us));
    v.set("trace.spans", t(|s| s.spans as f64));
    // Simulator self time: `run_until` minus everything inside a span.
    v.set(
        "simnet.self_share",
        median(
            &with_trace
                .iter()
                .map(|(u, s)| (u.run_until_s - s.all_traced_ms / 1e3) / u.wall_s)
                .collect::<Vec<_>>(),
        ),
    );
    v.set(
        "trace.overhead_pct",
        median(
            &plain
                .iter()
                .zip(&with_trace)
                .map(|(p, (t, _))| (t.wall_s / p.wall_s - 1.0) * 100.0)
                .collect::<Vec<_>>(),
        ),
    );
    out.notes.push(format!(
        "unit wall s, untraced {:?} / traced {:?}",
        plain
            .iter()
            .map(|u| (u.wall_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        with_trace
            .iter()
            .map(|(u, _)| (u.wall_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    let path = out_dir.join("trace-sim_wan19.json");
    if let Some(threads) = first_threads {
        if let Err(e) = trace::write_file(&path, "sim_wan19", seed, &threads) {
            out.correct = false;
            out.notes
                .push(format!("FAILED: cannot write {}: {e}", path.display()));
        }
    }
    out.values = v;
    out
}
