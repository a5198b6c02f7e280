//! The four loopback-TCP workloads: set-up trials, the measured run, the
//! output checks and the reduction to metrics.
//!
//! Delivery on loopback is instant, so every latency here is processor and
//! scheduler time only — no network delay is injected anywhere in this
//! file. WAN delay exists only in `sim_wan19`, in virtual time.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver};
use std::time::Duration;

use banyan_mempool::WorkloadBatch;
use banyan_types::ids::BlockHash;
use banyan_types::time::{Duration as VDuration, Time};

use crate::loadgen::{drive, ClientTap, Delivery, LoadReport, LoadSpec, Loop};
use crate::proc::peak_rss_mb;
use crate::report::{Outcome, Values};
use crate::shapes::{request, Shape, LARGE, N, SMALL, WAL};
use crate::stats::{median, summarize_windows, WindowSummary};
use crate::sut::{ClusterOutcome, Runner, Submitter, TcpCluster, TcpSpec, RESTARTED};
use crate::trace::{self, now_ns};

/// From cluster start to the first measured instant: connect, first
/// commit, then warm-up (discarded) for the rest of it.
const LEAD: Duration = Duration::from_millis(1000);
/// After the measured interval: outstanding requests may still commit.
const DRAIN: Duration = Duration::from_millis(1000);
/// The replicas stop on their own clock; the client stops a little
/// earlier so a late commit is never mistaken for a lost one.
const DRAIN_MARGIN: Duration = Duration::from_millis(200);
/// Length of the windows the measured interval is cut into.
const WINDOW: Duration = Duration::from_millis(500);
/// Clusters an untraced run measures one after another.
const INSTANCES: usize = 3;
/// Set-ups beyond those of the measured clusters; `setup_s` is the median
/// of all of them.
const EXTRA_SETUPS: usize = 8;
/// How long the replicas of such an extra set-up live.
const TRIAL_RUN: Duration = Duration::from_millis(150);
/// The run is invalid when the generator thread used more than this share
/// of a core: it would be part of what it measures.
const GENERATOR_CPU_LIMIT: f64 = 0.25;
/// The run is invalid when the open-loop generator sent later than this
/// (p99 of a window, median over the run's windows): latency runs from the
/// due time, so the lag is in every number. The measured value plus a
/// margin: 0.2–0.9 ms on a quiet box (the generator naps 0.25 ms at a time
/// and shares two cores with the replicas), 3–8 ms while the host is busy.
const LATE_LIMIT_MS: f64 = 10.0;
/// A crash offset no cluster lives to see.
const NEVER: Duration = Duration::from_secs(3600);
/// Measured interval of the traced run's cluster on default WAL stores.
const DEFAULT_WAL_FOR: Duration = Duration::from_secs(3);
/// Id stream of the readiness probes, disjoint from every workload seed's
/// stream only by `mix`, which is enough for ids never to collide in one
/// run (the probe is one id).
const PROBE_KEY: u64 = 0x5EED_0FB0;

#[derive(Clone, Copy)]
struct TcpWorkload {
    shape: Shape,
    looping: Loop,
    /// Every client retries: a request not committed this long after its
    /// last submission goes to the ring successor. Without it a request
    /// drained into a block that loses its round is gone for good, which
    /// leaks a slot of a closed loop and fails the "everything commits"
    /// check. `loadgen.retries` says how often it fired (0 when no timer
    /// fires and nothing crashes).
    retry: Duration,
    /// Δ in ms: 50 where blocks are a few KiB and commit in a few ms. A
    /// saturated 1 MiB block takes ~80 ms to commit on this box, right at
    /// the 2Δ = 100 ms at which backup leaders start proposing their own
    /// blocks — a feedback that makes throughput collapse at a random point
    /// of the run — so the large workload runs at Δ = 250 ms.
    delta_ms: u64,
    /// Committed requests (from cluster start) at which `peak_rss_mb` is
    /// read: less than half of what the first cluster commits in all, so
    /// that a box half as fast still gets there.
    rss_at: u64,
    runner: fn(Duration) -> Runner,
}

impl TcpWorkload {
    fn spec(&self, measure_for: Duration) -> TcpSpec {
        TcpSpec {
            shape: self.shape,
            runner: (self.runner)(measure_for),
            delta: VDuration::from_millis(self.delta_ms),
        }
    }
}

fn workload(name: &str) -> TcpWorkload {
    match name {
        "tcp_small_open" => TcpWorkload {
            shape: SMALL,
            looping: Loop::Open { rate: 8_000 },
            retry: Duration::from_secs(1),
            delta_ms: 50,
            rss_at: 24_000,
            runner: |_| Runner::Unstaged,
        },
        "tcp_small_sat" => TcpWorkload {
            shape: SMALL,
            looping: Loop::Closed { outstanding: 256 },
            retry: Duration::from_secs(1),
            delta_ms: 50,
            rss_at: 100_000,
            runner: |_| Runner::Unstaged,
        },
        "tcp_large_open" => TcpWorkload {
            shape: LARGE,
            looping: Loop::Open { rate: 20 },
            retry: Duration::from_secs(1),
            delta_ms: 250,
            rss_at: 60,
            runner: |_| Runner::Pipelined,
        },
        "tcp_wal_restart" => TcpWorkload {
            shape: WAL,
            looping: Loop::Closed { outstanding: 64 },
            retry: Duration::from_millis(250),
            delta_ms: 50,
            rss_at: 40_000,
            // Down from 60 % to 80 % of the measured interval. The best
            // windows, which set the end-to-end metrics, are the steady
            // state of the signed, durable cluster; the fault shows in
            // `loadgen.down_goodput_rps`, `loadgen.stall_ms`,
            // `loadgen.recovery_ms` and `failed`.
            runner: |measure| Runner::Restarting {
                crash_after: LEAD + measure.mul_f64(0.6),
                rejoin_after: LEAD + measure.mul_f64(0.8),
                default_wal: false,
            },
        },
        other => panic!("not a tcp workload: {other}"),
    }
}

struct Started {
    cluster: TcpCluster,
    submit: Submitter,
    rx: Receiver<Delivery>,
    /// Epoch ns just before the replica threads were spawned.
    epoch: u64,
    /// Build start → first commit seen by the client, seconds.
    setup_s: f64,
}

/// Builds and starts a cluster, pushes one probe request and waits for
/// its commit: the cluster is then connected and serving.
fn start(
    spec: &TcpSpec,
    run_for: Duration,
    traced: bool,
    out_dir: &Path,
    trial: u64,
) -> Result<Started, String> {
    let begin = now_ns();
    let (tx, rx) = mpsc::channel();
    let taps: Vec<ClientTap> = (0..N as u16)
        .map(|replica| ClientTap {
            replica,
            tx: tx.clone(),
            traced,
        })
        .collect();
    let cluster = TcpCluster::start(spec, run_for, taps, traced, out_dir);
    let epoch = now_ns();
    let submit = cluster.submitter();
    let probe = request(PROBE_KEY, trial, spec.shape.request_size, Time::ZERO);
    submit.submit(0, probe);
    let deadline = run_for.min(Duration::from_secs(5));
    loop {
        match rx.recv_timeout(deadline) {
            Ok(d) if d.ids.contains(&probe.id) => {
                let setup_s = (d.at - begin) as f64 / 1e9;
                return Ok(Started {
                    cluster,
                    submit,
                    rx,
                    epoch,
                    setup_s,
                });
            }
            Ok(_) => {}
            Err(_) => {
                cluster.join();
                return Err(format!(
                    "cluster did not commit its first request within {deadline:?}"
                ));
            }
        }
    }
}

struct Measured {
    load: LoadReport,
    summary: WindowSummary,
    cluster: ClusterOutcome,
    spec: LoadSpec,
    setup_s: f64,
}

fn measure(
    w: &TcpWorkload,
    seed: u64,
    measure_for: Duration,
    traced: bool,
    out_dir: &Path,
    trial: u64,
) -> Result<Measured, String> {
    let spec = w.spec(measure_for);
    let started = start(&spec, LEAD + measure_for + DRAIN, traced, out_dir, trial)?;
    let measure_from = started.epoch + LEAD.as_nanos() as u64;
    let measure_to = measure_from + measure_for.as_nanos() as u64;
    let down = match spec.runner {
        Runner::Restarting {
            crash_after,
            rejoin_after,
            ..
        } => Some((
            started.epoch + crash_after.as_nanos() as u64,
            started.epoch + rejoin_after.as_nanos() as u64,
        )),
        _ => None,
    };
    let load_spec = LoadSpec {
        shape: w.shape,
        looping: w.looping,
        retry: w.retry,
        seed,
        measure_from,
        measure_to,
        drain_until: measure_to + (DRAIN - DRAIN_MARGIN).as_nanos() as u64,
        windows: (measure_for.as_nanos() / WINDOW.as_nanos()).max(1) as usize,
        down,
        rss_at: w.rss_at,
        cluster_epoch: started.epoch,
        traced,
    };
    let mut load = drive(&load_spec, &started.submit, &started.rx);
    let cluster = started.cluster.join();
    let summary = summarize_windows(&mut load.windows);
    Ok(Measured {
        load,
        summary,
        cluster,
        spec: load_spec,
        setup_s: started.setup_s,
    })
}

/// What the four commit logs say, beyond what the client saw.
struct LogFacts {
    agreement: bool,
    /// Request occurrences a replica delivered more than once, and all
    /// request occurrences, summed over replicas.
    dup_occurrences: u64,
    occurrences: u64,
    /// Distinct rounds committed anywhere (the "per commit" base).
    rounds: u64,
    rounds_in_window: u64,
    fast: u64,
    explicit: u64,
    shape_ok: bool,
}

fn inspect(m: &Measured, shape: Shape) -> LogFacts {
    let mut canonical: HashMap<u64, BlockHash> = HashMap::new();
    let mut facts = LogFacts {
        agreement: true,
        dup_occurrences: 0,
        occurrences: 0,
        rounds: 0,
        rounds_in_window: 0,
        fast: 0,
        explicit: 0,
        shape_ok: true,
    };
    // Replica clocks start within a thread spawn of the cluster epoch.
    let from = m.spec.measure_from - m.spec.cluster_epoch;
    let to = m.spec.measure_to - m.spec.cluster_epoch;
    for (i, r) in m.cluster.replicas.iter().enumerate() {
        let mut seen: HashSet<u64> = HashSet::new();
        for c in &r.report.commits {
            if *canonical.entry(c.round.0).or_insert(c.block) != c.block {
                facts.agreement = false;
            }
            if i == 0 {
                if c.committed_at.0 >= from && c.committed_at.0 < to {
                    facts.rounds_in_window += 1;
                }
                if c.explicit {
                    facts.explicit += 1;
                    facts.fast += u64::from(c.fast);
                }
            }
            if let Some(batch) = WorkloadBatch::decode(&c.payload) {
                if batch.requests.len() > shape.batch
                    || batch.requests.iter().any(|q| q.size != shape.request_size)
                {
                    facts.shape_ok = false;
                }
                for q in &batch.requests {
                    facts.occurrences += 1;
                    if !seen.insert(q.id) {
                        facts.dup_occurrences += 1;
                    }
                }
            }
        }
    }
    facts.rounds = canonical.len() as u64;
    facts
}

fn fail(out: &mut Outcome, why: String) {
    out.correct = false;
    out.notes.push(format!("FAILED: {why}"));
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the output checks on one measured cluster and books its
/// requests into `out`.
fn check(m: &Measured, shape: Shape, out: &mut Outcome) -> LogFacts {
    let facts = inspect(m, shape);
    let lost = m.load.submitted - m.load.committed;
    out.attempted += m.load.submitted;
    out.failed += lost;
    if !facts.agreement {
        fail(out, "replicas disagree on a finalized round".into());
    }
    if !facts.shape_ok {
        fail(
            out,
            "a committed batch is not of the workload's shape".into(),
        );
    }
    if lost > 0 {
        fail(
            out,
            format!(
                "{lost} of {} submitted requests never committed",
                m.load.submitted
            ),
        );
    }
    for (i, r) in m.cluster.replicas.iter().enumerate() {
        if let Some(s) = r.pipeline {
            if s.decoded != s.ingested + s.verified + s.rejected {
                fail(out, format!("replica {i} lost frames: {s:?}"));
            }
        }
    }
    if m.load.cpu_share > GENERATOR_CPU_LIMIT {
        fail(
            out,
            format!(
                "generator used {:.0}% of a core (limit {:.0}%)",
                m.load.cpu_share * 100.0,
                GENERATOR_CPU_LIMIT * 100.0
            ),
        );
    }
    facts
}

fn check_schedule(summary: &WindowSummary, out: &mut Outcome) {
    if summary.late_p99_ms > LATE_LIMIT_MS {
        fail(
            out,
            format!(
                "generator sent {:.3} ms late (p99 of the median window; limit {LATE_LIMIT_MS} ms)",
                summary.late_p99_ms
            ),
        );
    }
}

/// Runs one TCP workload: the end-to-end metrics untraced, or the
/// per-layer metrics from a traced run.
pub fn run(name: &str, seed: u64, seconds: u64, traced: bool, out_dir: &Path) -> Outcome {
    let w = workload(name);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    if traced {
        run_traced(name, &w, seed, seconds, out_dir, &mut out);
    } else {
        run_untraced(&w, seed, seconds, out_dir, &mut out);
    }
    out
}

/// The end-to-end measurement: [`INSTANCES`] clusters one after another,
/// each measured for its share of `seconds`, their windows pooled. Which
/// threads share a core, and how the sockets fell, differs from cluster to
/// cluster and stays for its lifetime; pooling over clusters lets the
/// run see more than one such draw.
fn run_untraced(w: &TcpWorkload, seed: u64, seconds: u64, out_dir: &Path, out: &mut Outcome) {
    let per_instance = Duration::from_secs(seconds).div_f64(INSTANCES as f64);
    let mut setups = Vec::new();
    let mut windows = Vec::new();
    let mut spans = Vec::new();
    // Peak memory is read in the first cluster only: later clusters start
    // on a heap the earlier ones fragmented (measured: 78–87 MB after the
    // first, 108–135 MB after the third on `tcp_small_open`), which says
    // more about the allocator than about what one cluster holds.
    let mut peak = None;
    for k in 0..INSTANCES as u64 {
        let m = match measure(w, seed.wrapping_add(k), per_instance, false, out_dir, k) {
            Ok(m) => m,
            Err(e) => return fail(out, e),
        };
        check(&m, w.shape, out);
        setups.push(m.setup_s);
        if peak.is_none() {
            peak = m.load.rss_at_mb.or_else(|| {
                out.notes.push(format!(
                    "WARNING: fewer than {} requests committed; peak_rss_mb is VmHWM at the end of the first cluster",
                    w.rss_at
                ));
                Some(peak_rss_mb())
            });
        }
        out.notes.push(format!(
            "cluster {k}: {:.0} req/s, p50 {:.3} ms, p99 {:.3} ms; generator {:.1}% of a core, {:.3} ms late (p99, median window); commits per window {:?}",
            m.summary.goodput_rps,
            m.summary.p50_ms,
            m.summary.p99_ms,
            m.load.cpu_share * 100.0,
            m.summary.late_p99_ms,
            m.load.windows.iter().map(|w| w.commits).collect::<Vec<_>>()
        ));
        spans.extend(m.load.measured_span);
        windows.extend(m.load.windows);
    }
    // More set-ups on clusters that live just long enough for one: same
    // build, bind, connect and first commit as the measured ones.
    // (The crash offsets lie far beyond a trial's lifetime.)
    let trial_spec = w.spec(NEVER);
    for trial in 0..EXTRA_SETUPS as u64 {
        match start(
            &trial_spec,
            TRIAL_RUN,
            false,
            out_dir,
            INSTANCES as u64 + trial,
        ) {
            Ok(s) => {
                setups.push(s.setup_s);
                s.cluster.join();
            }
            Err(e) => out.notes.push(format!("extra set-up {trial}: {e}")),
        }
    }
    // An open loop commits what the schedule offers, so per-window counts
    // are the same integers in every run and would round a small deficit
    // away. Its goodput is taken from the commit stream instead: commits
    // per second between the first and the last commit of each cluster's
    // measured interval. A closed loop's goodput is what the cluster
    // sustains, so there the best windows keep disturbed ones out.
    let offered = matches!(w.looping, Loop::Open { .. }).then(|| {
        let commits: u64 = windows.iter().map(|w| w.commits).sum();
        let span_ns: u64 = spans.iter().map(|(first, last)| last - first).sum();
        (commits - spans.len() as u64) as f64 / (span_ns as f64 / 1e9)
    });
    let summary = summarize_windows(&mut windows);
    check_schedule(&summary, out);
    let mut v = Values::default();
    v.set("goodput_rps", offered.unwrap_or(summary.goodput_rps));
    v.set("commit_p50_ms", summary.p50_ms);
    v.set("cpu_ms_per_kreq", summary.cpu_ms_per_kreq);
    v.set("peak_rss_mb", peak.unwrap_or(0.0));
    v.set("setup_s", median(&setups));
    out.notes.push(format!(
        "latency samples: {}; set-ups (s): {:?}",
        summary.samples,
        setups
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
    out.values = v;
}

/// The traced measurement: one cluster with every seam wrapped, measured
/// for all of `seconds`, then a short untraced reference for
/// `trace.overhead_pct`.
fn run_traced(
    name: &str,
    w: &TcpWorkload,
    seed: u64,
    seconds: u64,
    out_dir: &Path,
    out: &mut Outcome,
) {
    let measure_for = Duration::from_secs(seconds);
    let m = match measure(w, seed, measure_for, true, out_dir, 0) {
        Ok(m) => m,
        Err(e) => return fail(out, e),
    };
    let facts = check(&m, w.shape, out);
    check_schedule(&m.summary, out);
    let mut v = Values::default();

    // --- per-layer: counts ----------------------------------------------------
    let reports = || m.cluster.replicas.iter().map(|r| &r.report);
    let commits = facts.rounds as f64;
    let committed_reqs = m.load.committed as f64;
    let sum = |f: fn(&banyan_transport::TcpRunReport) -> u64| reports().map(f).sum::<u64>() as f64;
    let sigs = sum(|r| r.sigs_verified);
    v.set("crypto.sigs_per_commit", ratio(sigs, commits));
    v.set(
        "crypto.batches_per_commit",
        ratio(sum(|r| r.verify_batches), commits),
    );
    v.set(
        "runtime.stale_timers_per_commit",
        ratio(sum(|r| r.stale_timers_dropped), commits),
    );
    v.set(
        "mempool.dup_ratio",
        ratio(facts.dup_occurrences as f64, facts.occurrences as f64),
    );
    v.set(
        "mempool.forwarded_in_per_req",
        ratio(m.cluster.pools.forwarded_in as f64, committed_reqs),
    );
    v.set(
        "mempool.shed_total",
        (m.cluster.pools.evicted + m.cluster.pools.ingest_dropped + m.cluster.pools.forward_dropped)
            as f64,
    );
    v.set(
        "storage.wal_bytes_per_commit",
        ratio(sum(|r| r.wal_bytes), commits * N as f64),
    );
    v.set("storage.rotations", m.cluster.wal_rotations as f64);
    v.set("storage.sync_requests", sum(|r| r.sync_requests));
    v.set("storage.blocks_served", sum(|r| r.sync_blocks_served));
    v.set(
        "core.rounds_per_s",
        facts.rounds_in_window as f64 / measure_for.as_secs_f64(),
    );
    v.set(
        "core.fast_path_share",
        ratio(facts.fast as f64, facts.explicit as f64),
    );
    v.set(
        "core.msgs_per_commit",
        ratio(sum(|r| r.messages_sent), commits),
    );
    v.set(
        "core.bytes_per_commit",
        ratio(
            trace::OUTBOUND_BYTES.load(Ordering::Relaxed) as f64,
            commits,
        ),
    );
    v.set(
        "transport.frames_per_commit",
        ratio(sum(|r| r.messages_received), commits),
    );
    let pipeline = |f: fn(&banyan_transport::PipelineStatsSnapshot) -> u64| {
        m.cluster
            .replicas
            .iter()
            .filter_map(|r| r.pipeline.as_ref().map(f))
            .sum::<u64>() as f64
    };
    v.set("transport.pipeline_rejected", pipeline(|s| s.rejected));
    v.set(
        "transport.pipeline_ingested_share",
        ratio(pipeline(|s| s.ingested), pipeline(|s| s.decoded)),
    );
    v.set("loadgen.late_p99_ms", m.summary.late_p99_ms);
    v.set("loadgen.cpu_share", m.load.cpu_share);
    v.set(
        "loadgen.fail_ratio",
        ratio(out.failed as f64, out.attempted as f64),
    );
    v.set("loadgen.commit_p99_ms", m.summary.p99_ms);
    if let Runner::Restarting { rejoin_after, .. } = w.spec(measure_for).runner {
        // 0 from the report means catch-up never finished: charge the
        // rest of the run.
        let reported = m.cluster.replicas[RESTARTED].report.restart_recovery_ms;
        let rest = LEAD + measure_for + DRAIN - rejoin_after;
        v.set(
            "loadgen.recovery_ms",
            if reported > 0 {
                reported as f64
            } else {
                rest.as_millis() as f64
            },
        );
    }
    v.set("loadgen.stall_ms", m.load.stall_ms);
    if let Some((crash, rejoin)) = m.spec.down {
        v.set(
            "loadgen.down_goodput_rps",
            m.load.down_commits as f64 / ((rejoin - crash) as f64 / 1e9),
        );
    }
    v.set("loadgen.max_commit_gap_ms", m.load.max_gap_ms);
    v.set("loadgen.retries", m.load.retries as f64);
    v.set("loadgen.latency_samples", m.summary.samples as f64);

    // --- per-layer: trace -----------------------------------------------------
    let threads = trace::take_all();
    let t = trace::summarize(&threads, m.spec.measure_from, m.spec.measure_to, N, false);
    let path = out_dir.join(format!("trace-{name}.json"));
    if let Err(e) = trace::write_file(&path, name, seed, &threads) {
        fail(out, format!("cannot write {}: {e}", path.display()));
    }
    drop(threads);
    let wall_ms = measure_for.as_secs_f64() * 1e3;
    v.set("crypto.busy_ms_per_s", t.crypto_busy_ms_per_s);
    v.set(
        "crypto.cache_hit_ratio",
        ratio(sum(|r| r.cert_cache_hits), t.aggregate_calls_total as f64),
    );
    v.set(
        "crypto.calls_per_commit",
        ratio(t.crypto_calls as f64, facts.rounds_in_window as f64),
    );
    v.set(
        "mempool.next_payload_busy_ms_per_s",
        t.next_payload_busy_ms_per_s,
    );
    v.set("mempool.queue_wait_p50_ms", t.queue_wait_p50_ms);
    v.set("mempool.reqs_per_batch", t.reqs_per_batch);
    v.set("storage.busy_ms_per_s", t.storage_busy_ms_per_s);
    v.set("core.self_busy_ms_per_s", t.core_self_busy_ms_per_s);
    v.set("core.on_proposal_p50_us", t.on_proposal_p50_us);
    v.set("core.on_vote_p50_us", t.on_vote_p50_us);
    v.set("core.on_timer_p50_us", t.on_timer_p50_us);
    v.set(
        "core.handler_calls_per_commit",
        ratio(t.engine_calls as f64, facts.rounds_in_window as f64),
    );
    v.set(
        "transport.engine_idle_ratio",
        1.0 - t.replica0_traced_ms / wall_ms,
    );
    v.set(
        "transport.residual_ms",
        m.summary.p50_ms - t.queue_wait_p50_ms - t.critical_path_handlers_ms,
    );
    v.set("trace.spans", t.spans as f64);

    // --- tracing overhead: a short untraced reference -------------------------
    let reference_for = Duration::from_secs((seconds / 3).max(2));
    match measure(w, seed, reference_for, false, out_dir, 1) {
        Ok(r) => {
            // A closed loop shows overhead as lost goodput; the open loop's
            // rate is fixed, so there it shows as CPU per request.
            let overhead = match w.looping {
                Loop::Closed { .. } => ratio(
                    r.summary.goodput_rps - m.summary.goodput_rps,
                    r.summary.goodput_rps,
                ),
                Loop::Open { .. } => ratio(
                    m.summary.cpu_ms_per_kreq - r.summary.cpu_ms_per_kreq,
                    r.summary.cpu_ms_per_kreq,
                ),
            };
            v.set("trace.overhead_pct", overhead * 100.0);
        }
        Err(e) => fail(out, format!("untraced reference run: {e}")),
    }

    // --- the store as `WalStore::open` gives it ---------------------------------
    // The measured clusters run on stores that never rotate (see
    // `sut::WAL_SEGMENT_LIMIT`). This short cluster, without a crash, runs
    // on the default ones and records what they do as the baseline: its
    // requests are not booked as attempted or failed, because losing some
    // is the finding, not an error of this run.
    if let Runner::Restarting { .. } = w.spec(measure_for).runner {
        let defaults = TcpWorkload {
            runner: |_| Runner::Restarting {
                crash_after: NEVER,
                rejoin_after: NEVER,
                default_wal: true,
            },
            ..*w
        };
        match measure(&defaults, seed, DEFAULT_WAL_FOR, false, out_dir, 2) {
            Ok(d) => {
                let commits: u64 = d.load.windows.iter().map(|w| w.commits).sum();
                v.set("storage.rotations", d.cluster.wal_rotations as f64);
                v.set(
                    "storage.default_wal_goodput_rps",
                    commits as f64 / DEFAULT_WAL_FOR.as_secs_f64(),
                );
                out.notes.push(format!(
                    "default WalStore::open stores: {} rotations, {commits} commits in {DEFAULT_WAL_FOR:?}, {} of {} requests uncommitted after the drain",
                    d.cluster.wal_rotations,
                    d.load.submitted - d.load.committed,
                    d.load.submitted
                ));
            }
            Err(e) => fail(out, format!("default-store run: {e}")),
        }
    }
    out.values = v;
}
