//! The load generator: one thread that pushes requests into the replicas'
//! pools and learns of commits from an `App` it hands to each replica.
//!
//! It is deliberately a single thread (the box has two cores and the
//! replicas need them); `loadgen.cpu_share` and `loadgen.late_p99_ms`
//! guard against it becoming the bottleneck it is supposed to measure.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use banyan_mempool::WorkloadBatch;
use banyan_types::app::App;
use banyan_types::engine::CommitEntry;
use banyan_types::time::Time;

use crate::proc::{peak_rss_mb, process_cpu_ms, thread_cpu_ns};
use crate::shapes::{mix, request_with_id, Shape, N};
use crate::stats::{percentile, Window};
use crate::sut::Submitter;
use crate::trace::{self, now_ns, MarkKind};

/// Longest sleep of the generator between looks at its schedule.
const MAX_NAP_NS: u64 = 250_000;

/// What a replica's `App` tells the client about one finalized block.
pub struct Delivery {
    /// Epoch ns at `App::deliver`, taken on the replica's thread so the
    /// generator's own scheduling never inflates a latency.
    pub at: u64,
    pub ids: Vec<u64>,
}

/// The `App` handed to each replica.
pub struct ClientTap {
    pub replica: u16,
    pub tx: Sender<Delivery>,
    pub traced: bool,
}

impl App for ClientTap {
    fn deliver(&mut self, entry: &CommitEntry) {
        {
            let _g = self
                .traced
                .then(|| trace::span("app.deliver", self.replica));
            let at = now_ns();
            // An empty block carries nothing the client waits for.
            if let Some(batch) = WorkloadBatch::decode(&entry.payload) {
                // The receiver outlives the replicas; a send can only fail
                // while the process is already tearing down.
                let _ = self.tx.send(Delivery {
                    at,
                    ids: batch.requests.iter().map(|r| r.id).collect(),
                });
            }
        }
        // Outside the span: following requests is the tracer's own cost.
        if self.traced {
            trace::mark_delivered(self.replica, entry);
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Loop {
    /// Independent clients: one request every `1/rate` s on a fixed
    /// schedule, timed from the instant each was *due*.
    Open { rate: u64 },
    /// Callers that wait for their reply: this many requests outstanding,
    /// each commit releasing the next submission.
    Closed { outstanding: usize },
}

#[derive(Clone, Debug)]
pub struct LoadSpec {
    pub shape: Shape,
    pub looping: Loop,
    /// Resubmit to the ring successor when a request has not committed
    /// this long after its last submission.
    pub retry: Duration,
    pub seed: u64,
    /// Epoch ns: measured interval and the end of the drain that follows.
    pub measure_from: u64,
    pub measure_to: u64,
    pub drain_until: u64,
    pub windows: usize,
    /// Epoch-ns interval in which a replica is down (`tcp_wal_restart`).
    pub down: Option<(u64, u64)>,
    /// `VmHWM` is read when this many requests have committed since the
    /// cluster started: memory at a fixed amount of work, so it does not
    /// vary with how much the box let the cluster commit in the run.
    pub rss_at: u64,
    /// The replicas' clock origin (epoch ns), for `Request::submitted_at`.
    pub cluster_epoch: u64,
    pub traced: bool,
}

#[derive(Debug, Default)]
pub struct LoadReport {
    pub windows: Vec<Window>,
    /// Distinct requests submitted / first-committed by the end of drain.
    pub submitted: u64,
    pub committed: u64,
    pub retries: u64,
    /// Share of one core the generator thread used while measuring.
    pub cpu_share: f64,
    /// First and last first-commit instants inside the measured interval
    /// (epoch ns), for a rate taken from the commit stream itself.
    pub measured_span: Option<(u64, u64)>,
    /// Longest gap between consecutive first-commits, measured interval.
    pub max_gap_ms: f64,
    /// The same from the crash to the end of the measured interval.
    pub stall_ms: f64,
    /// Requests first committed while the replica was down.
    pub down_commits: u64,
    /// `VmHWM` (MB) when `rss_at` requests had committed, if they did.
    pub rss_at_mb: Option<f64>,
}

struct Flight {
    /// Submit instant latency is measured from (open loop: due time).
    due: u64,
    last_send: u64,
    target: u8,
}

struct Generator<'a> {
    spec: &'a LoadSpec,
    submit: &'a Submitter,
    key: u64,
    next_k: u64,
    in_flight: HashMap<u64, Flight>,
    report: LoadReport,
    last_commit: Option<u64>,
}

impl Generator<'_> {
    fn push(&mut self, id: u64, flight: &Flight) {
        let req = request_with_id(
            id,
            self.spec.shape.request_size,
            Time(flight.due.saturating_sub(self.spec.cluster_epoch)),
        );
        self.submit.submit(flight.target as usize, req);
    }

    fn submit_new(&mut self, due: u64, now: u64) {
        let k = self.next_k;
        self.next_k += 1;
        let id = mix(self.key ^ k);
        let flight = Flight {
            due,
            last_send: now,
            // Round-robin from a seeded offset.
            target: ((self.key.wrapping_add(k)) % N as u64) as u8,
        };
        if self.spec.traced {
            trace::mark(MarkKind::Submitted, u16::from(flight.target), id, due, due);
        }
        self.push(id, &flight);
        self.in_flight.insert(id, flight);
        self.report.submitted += 1;
    }

    /// Accounts one delivery; returns how many requests it completed.
    fn on_delivery(&mut self, d: &Delivery) -> usize {
        let spec = self.spec;
        let mut completed = 0;
        for id in &d.ids {
            // Only the first delivery of an id completes it; the other
            // replicas' deliveries of the same block find nothing.
            let Some(flight) = self.in_flight.remove(id) else {
                continue;
            };
            completed += 1;
            self.report.committed += 1;
            if let Some(prev) = self.last_commit {
                let gap = d.at.saturating_sub(prev) as f64 / 1e6;
                if d.at >= spec.measure_from && prev < spec.measure_to {
                    self.report.max_gap_ms = self.report.max_gap_ms.max(gap);
                }
                if let Some((crash, _)) = spec.down {
                    if d.at >= crash && prev < spec.measure_to {
                        self.report.stall_ms = self.report.stall_ms.max(gap);
                    }
                }
            }
            if let Some((crash, rejoin)) = spec.down {
                self.report.down_commits += u64::from(d.at >= crash && d.at < rejoin);
            }
            if self.report.committed == spec.rss_at {
                self.report.rss_at_mb = Some(peak_rss_mb());
            }
            self.last_commit = Some(self.last_commit.map_or(d.at, |p| p.max(d.at)));
            if d.at >= spec.measure_from && d.at < spec.measure_to {
                let span = self.report.measured_span.get_or_insert((d.at, d.at));
                *span = (span.0.min(d.at), span.1.max(d.at));
                let wlen = (spec.measure_to - spec.measure_from) / spec.windows as u64;
                let w = (((d.at - spec.measure_from) / wlen) as usize).min(spec.windows - 1);
                let win = &mut self.report.windows[w];
                win.commits += 1;
                win.latencies_ms
                    .push(d.at.saturating_sub(flight.due) as f64 / 1e6);
            }
        }
        completed
    }

    fn retry_scan(&mut self, now: u64) {
        let after = self.spec.retry.as_nanos() as u64;
        let stale: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, f)| now.saturating_sub(f.last_send) >= after)
            .map(|(id, _)| *id)
            .collect();
        for id in stale {
            let mut flight = self.in_flight.remove(&id).expect("listed above");
            flight.target = (flight.target + 1) % N as u8;
            flight.last_send = now;
            self.push(id, &flight);
            self.in_flight.insert(id, flight);
            self.report.retries += 1;
        }
    }
}

/// Drives the workload from now until `spec.drain_until` (or until every
/// submitted request committed, once the measured interval is over).
/// Everything before `spec.measure_from` is warm-up: submitted and
/// committed, but in no window.
pub fn drive(spec: &LoadSpec, submit: &Submitter, rx: &Receiver<Delivery>) -> LoadReport {
    let wlen = (spec.measure_to - spec.measure_from) / spec.windows as u64;
    let mut g = Generator {
        spec,
        submit,
        key: mix(spec.seed),
        next_k: 0,
        in_flight: HashMap::new(),
        report: LoadReport {
            windows: (0..spec.windows)
                .map(|_| Window {
                    secs: wlen as f64 / 1e9,
                    ..Window::default()
                })
                .collect(),
            ..LoadReport::default()
        },
        last_commit: None,
    };

    // Open loop: how late each request was sent, by the window it was due in.
    let mut late_ms: Vec<Vec<f64>> = vec![Vec::new(); spec.windows];
    // CPU readings at the window boundaries (windows + 1 of them).
    let mut boundary_cpu: Vec<f64> = Vec::new();
    let mut thread_cpu_from = None;
    let mut thread_cpu_to = None;
    let mut last_retry_scan = now_ns();

    let interval = match spec.looping {
        Loop::Open { rate } => 1_000_000_000 / rate.max(1),
        Loop::Closed { .. } => 0,
    };
    let mut next_due = now_ns();
    if let Loop::Closed { outstanding } = spec.looping {
        let now = now_ns();
        for _ in 0..outstanding {
            g.submit_new(now, now);
        }
    }

    loop {
        let now = now_ns();
        // Window boundaries passed since the last pass.
        while boundary_cpu.len() <= spec.windows
            && now >= spec.measure_from + boundary_cpu.len() as u64 * wlen
        {
            if boundary_cpu.is_empty() {
                thread_cpu_from = Some(thread_cpu_ns());
            }
            boundary_cpu.push(process_cpu_ms());
            if boundary_cpu.len() == spec.windows + 1 {
                thread_cpu_to = Some(thread_cpu_ns());
            }
        }
        let submitting = now < spec.measure_to;
        if !submitting && (g.in_flight.is_empty() || now >= spec.drain_until) {
            break;
        }
        if submitting {
            if let Loop::Open { .. } = spec.looping {
                while next_due <= now {
                    if next_due >= spec.measure_from {
                        let w = ((next_due - spec.measure_from) / wlen) as usize;
                        late_ms[w.min(spec.windows - 1)].push((now - next_due) as f64 / 1e6);
                    }
                    g.submit_new(next_due, now);
                    next_due += interval;
                }
            }
        }
        if now.saturating_sub(last_retry_scan) >= 10_000_000 {
            last_retry_scan = now;
            g.retry_scan(now);
        }
        // Sleep on the delivery channel until the next thing to do, in
        // short naps: a thread that sleeps for milliseconds wakes late on a
        // box whose cores are busy (send lateness p99 1.6–2 ms with 1 ms
        // naps, ~1 ms with these).
        let nap_ns = match spec.looping {
            Loop::Open { .. } if submitting => next_due.saturating_sub(now_ns()).min(MAX_NAP_NS),
            _ => MAX_NAP_NS,
        };
        match rx.recv_timeout(Duration::from_nanos(nap_ns)) {
            Ok(first) => {
                let mut completed = g.on_delivery(&first);
                for d in rx.try_iter() {
                    completed += g.on_delivery(&d);
                }
                if let (Loop::Closed { .. }, true) = (spec.looping, now_ns() < spec.measure_to) {
                    let now = now_ns();
                    for _ in 0..completed {
                        g.submit_new(now, now);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    for (i, w) in g.report.windows.iter_mut().enumerate() {
        if let (Some(a), Some(b)) = (boundary_cpu.get(i), boundary_cpu.get(i + 1)) {
            w.cpu_ms = b - a;
        }
        w.late_p99_ms = percentile(&mut late_ms[i], 0.99);
    }
    if let (Some(a), Some(b)) = (thread_cpu_from, thread_cpu_to) {
        g.report.cpu_share = (b - a) as f64 / (spec.measure_to - spec.measure_from) as f64;
    }
    g.report
}
