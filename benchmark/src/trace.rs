//! The traced run: span recording at the five public trait seams and the
//! per-layer numbers derived from the spans.
//!
//! Wrappers exist for `Box<dyn Engine>`, `ProposalSource`, `ChainStore`
//! mutators, `VerifyBackend` and (in `loadgen::ClientTap`) `App::deliver`.
//! Each records `{name, replica, start, end, parent}` into a per-thread
//! in-memory buffer; nothing is written until the run is over. Spans
//! inside the crates are a later issue — everything here sits in the
//! benchmark's own files, around the calls into each layer.
//!
//! A request is followed by id through three marks — submitted by the load
//! generator, first batched by a `next_payload` (the wrapper decodes the
//! batch it returns), delivered by an `App` — kept as compact records
//! instead of one span per request per stage.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use banyan_crypto::{
    AggregateSignature, PublicKeyTable, Signature, SignerIndex, VerifyBackend, VerifyStats,
};
use banyan_mempool::WorkloadBatch;
use banyan_storage::ChainStore;
use banyan_types::app::{App, ProposalContext, ProposalSource};
use banyan_types::certs::Notarization;
use banyan_types::codec::Wire;
use banyan_types::engine::{Actions, CommitEntry, Engine, Outbound, TimerKind};
use banyan_types::ids::{BlockHash, ReplicaId, Round};
use banyan_types::message::Message;
use banyan_types::payload::Payload;
use banyan_types::time::Time;
use banyan_types::{Block, ChainSnapshot};

use crate::json::{obj, Json};
use crate::stats::percentile;

/// Nanoseconds since the process-wide epoch (first use). Every span,
/// mark and load-generator timestamp shares this clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub replica: u16,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MarkKind {
    Submitted,
    Batched,
    Delivered,
}

#[derive(Clone, Copy, Debug)]
pub struct Mark {
    pub kind: MarkKind,
    pub replica: u16,
    pub id: u64,
    pub at: u64,
    /// The driver's clock at a `Batched` mark and the request's own submit
    /// stamp, so the simulator's queue wait is in virtual time.
    pub ctx_now: u64,
    pub submitted_at: u64,
}

#[derive(Default)]
pub struct ThreadTrace {
    pub spans: Vec<Span>,
    pub marks: Vec<Mark>,
    open: Vec<u32>,
}

static COLLECTED: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());

/// Flushes into the collector when the thread ends, so threads the
/// transport spawns (verify workers) are covered without cooperation.
struct Local(RefCell<ThreadTrace>);

impl Drop for Local {
    fn drop(&mut self) {
        flush(&mut self.0.borrow_mut());
    }
}

thread_local! {
    static LOCAL: Local = Local(RefCell::new(ThreadTrace::default()));
}

fn flush(t: &mut ThreadTrace) {
    if t.spans.is_empty() && t.marks.is_empty() {
        return;
    }
    let done = std::mem::take(t);
    if let Ok(mut all) = COLLECTED.lock() {
        all.push(done);
    }
}

/// Moves the calling thread's buffer into the collector. Threads the
/// benchmark spawns call this before they end; the thread-local
/// destructor is the fallback for threads it does not own.
pub fn flush_thread() {
    let _ = LOCAL.try_with(|l| flush(&mut l.0.borrow_mut()));
}

/// Takes everything collected so far.
pub fn take_all() -> Vec<ThreadTrace> {
    flush_thread();
    std::mem::take(&mut *COLLECTED.lock().expect("trace collector lock"))
}

/// An open span; closes when dropped.
pub struct Guard {
    index: u32,
}

pub fn span(name: &'static str, replica: u16) -> Guard {
    let start = now_ns();
    LOCAL.with(|l| {
        let mut t = l.0.borrow_mut();
        let index = t.spans.len() as u32;
        let parent = t.open.last().copied().unwrap_or(NO_PARENT);
        t.spans.push(Span {
            name,
            replica,
            parent,
            start,
            end: start,
        });
        t.open.push(index);
        Guard { index }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        let _ = LOCAL.try_with(|l| {
            let mut t = l.0.borrow_mut();
            // The buffer may have been flushed mid-span at thread end;
            // a missing slot then just drops the span.
            if let Some(s) = t.spans.get_mut(self.index as usize) {
                s.end = end;
            }
            if t.open.last() == Some(&self.index) {
                t.open.pop();
            }
        });
    }
}

pub fn mark(kind: MarkKind, replica: u16, id: u64, ctx_now: u64, submitted_at: u64) {
    let at = now_ns();
    LOCAL.with(|l| {
        l.0.borrow_mut().marks.push(Mark {
            kind,
            replica,
            id,
            at,
            ctx_now,
            submitted_at,
        });
    });
}

// --- wrappers ---------------------------------------------------------------

fn message_span(msg: &Message) -> &'static str {
    match msg.label() {
        "proposal" => "engine.on_message.proposal",
        "votes" => "engine.on_message.votes",
        "advance" => "engine.on_message.advance",
        "final" => "engine.on_message.final",
        "sync-req" | "sync-resp" | "sync-range" | "sync-batch" | "sync-probe" | "sync-frontier" => {
            "engine.on_message.sync"
        }
        _ => "engine.on_message.other",
    }
}

fn timer_span(kind: &TimerKind) -> &'static str {
    match kind {
        TimerKind::Propose { .. } => "engine.on_timer.propose",
        TimerKind::NotarizeRank { .. } => "engine.on_timer.notarize_rank",
        TimerKind::RoundTimeout { .. } => "engine.on_timer.round_timeout",
        TimerKind::EpochTick { .. } | TimerKind::ViewTimeout { .. } => "engine.on_timer.other",
    }
}

/// Bytes the traced engines put on the wire (encoded length, one copy
/// per receiving peer) — the TCP run reports count messages only.
pub static OUTBOUND_BYTES: AtomicU64 = AtomicU64::new(0);

pub struct TracedEngine {
    pub inner: Box<dyn Engine>,
    /// Receivers of a broadcast (n − 1).
    pub peers: u64,
}

impl TracedEngine {
    fn count_outbound(&self, actions: &Actions) {
        let bytes: u64 = actions
            .outbound
            .iter()
            .map(|out| match out {
                Outbound::Broadcast(msg) => msg.encoded_len() as u64 * self.peers,
                Outbound::Send(_, msg) => msg.encoded_len() as u64,
            })
            .sum();
        OUTBOUND_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

impl Engine for TracedEngine {
    fn id(&self) -> ReplicaId {
        self.inner.id()
    }
    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }
    fn on_init(&mut self, now: Time) -> Actions {
        let actions = {
            let _g = span("engine.on_init", self.inner.id().0);
            self.inner.on_init(now)
        };
        self.count_outbound(&actions);
        actions
    }
    fn on_message(&mut self, from: ReplicaId, msg: Message, now: Time) -> Actions {
        let actions = {
            let _g = span(message_span(&msg), self.inner.id().0);
            self.inner.on_message(from, msg, now)
        };
        self.count_outbound(&actions);
        actions
    }
    fn on_timer(&mut self, kind: TimerKind, now: Time) -> Actions {
        let actions = {
            let _g = span(timer_span(&kind), self.inner.id().0);
            self.inner.on_timer(kind, now)
        };
        self.count_outbound(&actions);
        actions
    }
    fn current_round(&self) -> Round {
        self.inner.current_round()
    }
    fn finalized_round(&self) -> Round {
        self.inner.finalized_round()
    }
    fn snapshot(&self) -> ChainSnapshot {
        self.inner.snapshot()
    }
    fn restore(&mut self, snapshot: &ChainSnapshot) {
        self.inner.restore(snapshot);
    }
    fn wal_bytes(&self) -> u64 {
        self.inner.wal_bytes()
    }
    fn verify_stats(&self) -> VerifyStats {
        self.inner.verify_stats()
    }
    fn set_verify_backend(&mut self, backend: Arc<dyn VerifyBackend>) {
        self.inner.set_verify_backend(backend);
    }
}

pub struct TracedSource {
    pub inner: Box<dyn ProposalSource>,
    pub replica: u16,
}

impl ProposalSource for TracedSource {
    fn next_payload(&mut self, ctx: &ProposalContext) -> Payload {
        let payload = {
            let _g = span("source.next_payload", self.replica);
            self.inner.next_payload(ctx)
        };
        // Decoded outside the span: following requests is the tracer's
        // cost, not the mempool's.
        if let Some(batch) = WorkloadBatch::decode(&payload) {
            for r in &batch.requests {
                mark(
                    MarkKind::Batched,
                    self.replica,
                    r.id,
                    ctx.now.0,
                    r.submitted_at.0,
                );
            }
        }
        payload
    }
}

/// Spans around the `ChainStore` mutators; reads pass straight through.
pub struct TracedStore {
    pub inner: Box<dyn ChainStore>,
    pub replica: u16,
}

impl ChainStore for TracedStore {
    fn insert(&mut self, hash: BlockHash, block: Block) -> bool {
        let _g = span("store.insert", self.replica);
        self.inner.insert(hash, block)
    }
    fn get(&self, hash: &BlockHash) -> Option<&Block> {
        self.inner.get(hash)
    }
    fn contains(&self, hash: &BlockHash) -> bool {
        self.inner.contains(hash)
    }
    fn round_blocks(&self, round: Round) -> &[BlockHash] {
        self.inner.round_blocks(round)
    }
    fn mark_notarized(&mut self, hash: BlockHash, cert: Option<Notarization>) {
        let _g = span("store.mark_notarized", self.replica);
        self.inner.mark_notarized(hash, cert);
    }
    fn is_notarized(&self, hash: &BlockHash) -> bool {
        self.inner.is_notarized(hash)
    }
    fn notarization(&self, hash: &BlockHash) -> Option<&Notarization> {
        self.inner.notarization(hash)
    }
    fn mark_finalized(&mut self, round: Round, hash: BlockHash) {
        let _g = span("store.mark_finalized", self.replica);
        self.inner.mark_finalized(round, hash);
    }
    fn finalized(&self, round: Round) -> Option<BlockHash> {
        self.inner.finalized(round)
    }
    fn is_finalized(&self, round: Round, hash: &BlockHash) -> bool {
        self.inner.is_finalized(round, hash)
    }
    fn max_finalized_round(&self) -> Round {
        self.inner.max_finalized_round()
    }
    fn chain_to(&self, tip: &BlockHash, stop_after: Round) -> Option<Vec<(BlockHash, &Block)>> {
        self.inner.chain_to(tip, stop_after)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn prune_below(&mut self, round: Round) {
        let _g = span("store.prune_below", self.replica);
        self.inner.prune_below(round);
    }
    fn snapshot(&self) -> ChainSnapshot {
        self.inner.snapshot()
    }
    fn restore(&mut self, snapshot: &ChainSnapshot) {
        let _g = span("store.restore", self.replica);
        self.inner.restore(snapshot);
    }
    fn wal_bytes(&self) -> u64 {
        self.inner.wal_bytes()
    }
    fn sync(&mut self) {
        let _g = span("store.sync", self.replica);
        self.inner.sync();
    }
}

#[derive(Debug)]
pub struct TracedVerify {
    pub inner: Arc<dyn VerifyBackend>,
    pub replica: u16,
}

impl VerifyBackend for TracedVerify {
    fn verify(&self, index: SignerIndex, msg: &[u8], sig: &Signature) -> bool {
        let _g = span("verify.verify", self.replica);
        self.inner.verify(index, msg, sig)
    }
    fn verify_votes(&self, votes: &[(SignerIndex, &[u8], &Signature)]) -> Vec<bool> {
        let _g = span("verify.verify_votes", self.replica);
        self.inner.verify_votes(votes)
    }
    fn verify_aggregate(&self, msg: &[u8], agg: &AggregateSignature) -> bool {
        let _g = span("verify.verify_aggregate", self.replica);
        self.inner.verify_aggregate(msg, agg)
    }
    fn stats(&self) -> VerifyStats {
        self.inner.stats()
    }
    fn table(&self) -> &PublicKeyTable {
        self.inner.table()
    }
}

/// Records a `Delivered` mark for every request `entry` carries.
pub fn mark_delivered(replica: u16, entry: &CommitEntry) {
    if let Some(batch) = WorkloadBatch::decode(&entry.payload) {
        for r in &batch.requests {
            mark(
                MarkKind::Delivered,
                replica,
                r.id,
                entry.committed_at.0,
                r.submitted_at.0,
            );
        }
    }
}

/// The `App` seam where the driver has no client of its own to tap (the
/// simulator): the requests' `Delivered` marks. There is no application
/// work to put a span around, and the marks are the tracer's own cost.
pub struct MarkingApp {
    pub replica: u16,
}

impl App for MarkingApp {
    fn deliver(&mut self, entry: &CommitEntry) {
        mark_delivered(self.replica, entry);
    }
}

// --- analysis ---------------------------------------------------------------

/// What the traced run contributes to the per-layer metrics.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    pub spans: u64,
    /// Engine self time (span minus source/store/verify children), ms per
    /// second of measured wall time, averaged over replicas.
    pub core_self_busy_ms_per_s: f64,
    pub on_proposal_p50_us: f64,
    pub on_vote_p50_us: f64,
    pub on_timer_p50_us: f64,
    pub engine_calls: u64,
    pub next_payload_busy_ms_per_s: f64,
    pub reqs_per_batch: f64,
    pub queue_wait_p50_ms: f64,
    pub storage_busy_ms_per_s: f64,
    pub crypto_busy_ms_per_s: f64,
    pub crypto_calls: u64,
    /// `verify_aggregate` calls over the whole run (not only the measured
    /// interval): the base of the run report's cache-hit count.
    pub aggregate_calls_total: u64,
    /// Total time inside top-level spans on replica 0, ms.
    pub replica0_traced_ms: f64,
    /// Total time inside top-level spans on all replicas, ms.
    pub all_traced_ms: f64,
    /// One handler of each kind on the fast path plus delivery, ms.
    pub critical_path_handlers_ms: f64,
}

fn p50_us(durations: &mut [f64]) -> f64 {
    percentile(durations, 0.5) / 1e3
}

/// Reduces spans whose start lies in `[from, to)` (epoch ns) to the
/// per-layer numbers. `replicas` scales the busy figures to one replica.
/// `virtual_queue_wait` takes queue wait from the marks' own clocks (the
/// simulator's virtual time) instead of wall time.
pub fn summarize(
    threads: &[ThreadTrace],
    from: u64,
    to: u64,
    replicas: usize,
    virtual_queue_wait: bool,
) -> TraceSummary {
    let mut s = TraceSummary::default();
    let wall_s = (to.saturating_sub(from)) as f64 / 1e9;
    let per_replica_second = |ns: f64| ns / 1e6 / wall_s.max(1e-9) / replicas.max(1) as f64;

    let mut engine_self_ns = 0.0;
    let mut source_ns = 0.0;
    let mut store_ns = 0.0;
    let mut verify_ns = 0.0;
    let mut proposal = Vec::new();
    let mut votes = Vec::new();
    let mut timers = Vec::new();
    let mut proposing = Vec::new();
    let mut deliver = Vec::new();

    for t in threads {
        // Child time per parent, so self time = duration − children.
        let mut child_ns = vec![0u64; t.spans.len()];
        let mut has_source_child = vec![false; t.spans.len()];
        for sp in &t.spans {
            if sp.parent != NO_PARENT {
                if let Some(c) = child_ns.get_mut(sp.parent as usize) {
                    *c += sp.end - sp.start;
                }
                if sp.name == "source.next_payload" {
                    has_source_child[sp.parent as usize] = true;
                }
            }
        }
        for (i, sp) in t.spans.iter().enumerate() {
            if sp.name == "verify.verify_aggregate" {
                s.aggregate_calls_total += 1;
            }
            if sp.start < from || sp.start >= to {
                continue;
            }
            s.spans += 1;
            let dur = (sp.end - sp.start) as f64;
            let own = dur - child_ns[i] as f64;
            if sp.parent == NO_PARENT {
                s.all_traced_ms += dur / 1e6;
                if sp.replica == 0 {
                    s.replica0_traced_ms += dur / 1e6;
                }
            }
            match sp.name {
                n if n.starts_with("engine.") => {
                    s.engine_calls += 1;
                    engine_self_ns += own;
                    match n {
                        "engine.on_message.proposal" => proposal.push(own),
                        "engine.on_message.votes" => votes.push(own),
                        n if n.starts_with("engine.on_timer.") => timers.push(own),
                        _ => {}
                    }
                    if has_source_child[i] {
                        proposing.push(dur);
                    }
                }
                "source.next_payload" => source_ns += dur,
                n if n.starts_with("store.") => store_ns += dur,
                n if n.starts_with("verify.") => {
                    verify_ns += dur;
                    s.crypto_calls += 1;
                }
                "app.deliver" => deliver.push(dur),
                _ => {}
            }
        }
    }

    // Request marks: submit → first batch carrying the id.
    let mut submitted: HashMap<u64, u64> = HashMap::new();
    let mut first_batched: HashMap<u64, (u64, u64, u64)> = HashMap::new();
    let mut batched_marks = 0u64;
    // One `next_payload` call stamps all its marks with the same driver
    // clock, so distinct (replica, clock) pairs count the batches.
    let mut batch_keys: HashSet<(u16, u64)> = HashSet::new();
    for t in threads {
        for m in &t.marks {
            match m.kind {
                MarkKind::Submitted => {
                    submitted.entry(m.id).or_insert(m.at);
                }
                MarkKind::Batched => {
                    if m.at >= from && m.at < to {
                        batched_marks += 1;
                        batch_keys.insert((m.replica, m.ctx_now));
                    }
                    let e = first_batched
                        .entry(m.id)
                        .or_insert((m.at, m.ctx_now, m.submitted_at));
                    if m.at < e.0 {
                        *e = (m.at, m.ctx_now, m.submitted_at);
                    }
                }
                MarkKind::Delivered => {}
            }
        }
    }
    let mut waits: Vec<f64> = first_batched
        .iter()
        .filter(|(_, &(at, _, _))| at >= from && at < to)
        .filter_map(|(id, &(at, ctx_now, stamped))| {
            if virtual_queue_wait {
                Some(ctx_now.saturating_sub(stamped) as f64 / 1e6)
            } else {
                submitted
                    .get(id)
                    .map(|&sub| at.saturating_sub(sub) as f64 / 1e6)
            }
        })
        .collect();

    s.core_self_busy_ms_per_s = per_replica_second(engine_self_ns);
    s.next_payload_busy_ms_per_s = per_replica_second(source_ns);
    s.storage_busy_ms_per_s = per_replica_second(store_ns);
    s.crypto_busy_ms_per_s = per_replica_second(verify_ns);
    s.on_proposal_p50_us = p50_us(&mut proposal);
    s.on_vote_p50_us = p50_us(&mut votes);
    s.on_timer_p50_us = p50_us(&mut timers);
    s.reqs_per_batch = if batch_keys.is_empty() {
        0.0
    } else {
        batched_marks as f64 / batch_keys.len() as f64
    };
    s.queue_wait_p50_ms = percentile(&mut waits, 0.5);
    s.critical_path_handlers_ms = (percentile(&mut proposing, 0.5)
        + percentile(&mut proposal, 0.5)
        + percentile(&mut votes, 0.5)
        + percentile(&mut deliver, 0.5))
        / 1e6;
    s
}

/// Spans and request timelines kept per thread in the trace file; the
/// rest is counted, not written (a saturated run records millions).
const FILE_SPANS_PER_THREAD: usize = 20_000;
const FILE_REQUESTS: usize = 5_000;

/// Writes `out/trace-<workload>.json`: the head of every thread's span
/// buffer and the first request timelines.
pub fn write_file(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    threads: &[ThreadTrace],
) -> std::io::Result<()> {
    let total: usize = threads.iter().map(|t| t.spans.len()).sum();
    let mut spans = Vec::new();
    for (ti, t) in threads.iter().enumerate() {
        for (i, sp) in t.spans.iter().take(FILE_SPANS_PER_THREAD).enumerate() {
            spans.push(obj([
                ("thread", Json::Num(ti as f64)),
                ("index", Json::Num(i as f64)),
                ("name", Json::Str(sp.name.into())),
                ("replica", Json::Num(f64::from(sp.replica))),
                ("start_ns", Json::Num(sp.start as f64)),
                ("end_ns", Json::Num(sp.end as f64)),
                (
                    "parent",
                    if sp.parent == NO_PARENT {
                        Json::Null
                    } else {
                        Json::Num(f64::from(sp.parent))
                    },
                ),
            ]));
        }
    }
    let mut timelines: HashMap<u64, [Option<u64>; 3]> = HashMap::new();
    let mut order = Vec::new();
    for m in threads.iter().flat_map(|t| &t.marks) {
        let slot = match m.kind {
            MarkKind::Submitted => 0,
            MarkKind::Batched => 1,
            MarkKind::Delivered => 2,
        };
        let e = timelines.entry(m.id).or_insert_with(|| {
            order.push(m.id);
            [None; 3]
        });
        e[slot] = Some(e[slot].map_or(m.at, |prev| prev.min(m.at)));
    }
    let stamp = |v: Option<u64>| v.map_or(Json::Null, |ns| Json::Num(ns as f64));
    let requests: Vec<Json> = order
        .iter()
        .take(FILE_REQUESTS)
        .map(|id| {
            let [sub, bat, del] = timelines[id];
            obj([
                ("id", Json::Str(format!("{id:016x}"))),
                ("submitted_ns", stamp(sub)),
                ("first_batched_ns", stamp(bat)),
                ("first_delivered_ns", stamp(del)),
            ])
        })
        .collect();
    let doc = obj([
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        ("clock", Json::Str("ns since process epoch".into())),
        ("spans_recorded", Json::Num(total as f64)),
        ("spans_written", Json::Num(spans.len() as f64)),
        ("requests_followed", Json::Num(order.len() as f64)),
        ("spans", Json::Arr(spans)),
        ("requests", Json::Arr(requests)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, replica: u16, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            replica,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = ThreadTrace {
            spans: vec![
                sp("engine.on_message.proposal", 0, NO_PARENT, 0, 1_000_000),
                sp("store.insert", 0, 0, 100_000, 300_000),
                sp("verify.verify", 0, 0, 400_000, 500_000),
                sp(
                    "engine.on_timer.propose",
                    0,
                    NO_PARENT,
                    2_000_000,
                    2_500_000,
                ),
                sp("source.next_payload", 0, 3, 2_100_000, 2_300_000),
            ],
            marks: Vec::new(),
            open: Vec::new(),
        };
        let s = summarize(&[t], 0, 1_000_000_000, 1, false);
        // 1.0 − 0.2 − 0.1 = 0.7 ms and 0.5 − 0.2 = 0.3 ms of self time
        // over one second of wall time on one replica.
        assert!((s.core_self_busy_ms_per_s - 1.0).abs() < 1e-9, "{s:?}");
        assert!((s.storage_busy_ms_per_s - 0.2).abs() < 1e-9);
        assert!((s.crypto_busy_ms_per_s - 0.1).abs() < 1e-9);
        assert!((s.next_payload_busy_ms_per_s - 0.2).abs() < 1e-9);
        assert!((s.on_proposal_p50_us - 700.0).abs() < 1e-9);
        assert!((s.replica0_traced_ms - 1.5).abs() < 1e-9);
        assert_eq!((s.engine_calls, s.crypto_calls, s.spans), (2, 1, 5));
    }

    #[test]
    fn queue_wait_pairs_submit_with_first_batch() {
        let m = |kind, id, at| Mark {
            kind,
            replica: 0,
            id,
            at,
            ctx_now: at,
            submitted_at: 0,
        };
        let t = ThreadTrace {
            spans: Vec::new(),
            marks: vec![
                m(MarkKind::Submitted, 7, 1_000_000),
                m(MarkKind::Batched, 7, 3_000_000),
                m(MarkKind::Batched, 7, 9_000_000),
            ],
            open: Vec::new(),
        };
        let s = summarize(&[t], 0, 1_000_000_000, 1, false);
        assert!((s.queue_wait_p50_ms - 2.0).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn guards_nest_and_record_parents() {
        {
            let _outer = span("engine.on_init", 3);
            let _inner = span("store.insert", 3);
        }
        let mine = take_all();
        let t = mine
            .iter()
            .find(|t| t.spans.iter().any(|s| s.replica == 3))
            .expect("this thread's buffer");
        assert_eq!(t.spans[0].parent, NO_PARENT);
        assert_eq!(t.spans[1].parent, 0);
        assert!(t.spans[0].end >= t.spans[1].end);
    }
}
