//! The optional verify stage of the replica event loop: decode → **verify**
//! → engine → dispatch.
//!
//! The one TCP replica loop (`crate::replica`) decodes, verifies and
//! executes every frame on the consensus thread unless it is handed a
//! [`PipelineConfig`]. With one, a pool of verify workers sits between the
//! loop's socket reads and its engine, connected by bounded MPMC channels
//! (`crossbeam::channel`), so a replica scales across cores:
//!
//! ```text
//!  sockets ──► replica loop (one ppoll; reads and splits frames)
//!                 │  route by sender id: worker = from % W, try_send
//!                 │  (a full queue holds the frame and pauses that
//!                 │   connection's reads; the loop never blocks on it)
//!                 ▼
//!          verify workers (× W, PipelineConfig::verify_workers)
//!            · Forward frames → pool ingest (send-only, lock-free path;
//!              they NEVER reach the consensus thread)
//!            · proposal blocks → recompute block hash, WorkloadBatch
//!              sanity, lease observation
//!                 │  ordered engine events, then a wake-up if the
//!                 ▼  loop is parked in ppoll
//!          consensus thread (EngineDriver: timers, votes, commits)
//!                 │  outbound actions, written by this same thread
//!                 ▼
//!          one non-blocking socket per peer (dispatch)
//! ```
//!
//! Signatures are not checked here: the engine checks every vote and
//! certificate that can change its state, and only those, so a worker
//! check would be a second look at evidence the engine either needs (and
//! checks itself) or skips.
//!
//! Routing a peer's frames to the worker `from % verify_workers` keeps
//! per-peer FIFO order (a peer's proposal is never overtaken by its own
//! later vote) while different peers verify in parallel. The pool side
//! uses [`ConcurrentPool`]: workers feed ingest through a bounded channel,
//! never the pool's lock, and take that lock only to record a lease they
//! have already decoded and hashed for.
//!
//! Everything else — accepting and reading connections, per-peer backlogs
//! and redial, timers, gossip, probe answering, catch-up, crash/rejoin —
//! is the shared loop's, so a staged replica restarts and catches up
//! exactly like an inline one.
//!
//! Shutdown is staged and loss-free: the loop stops reading and drops its
//! senders, the verify channels disconnect, workers drain what was queued
//! and exit, and the consensus thread absorbs the tail — [`PipelineStats`]
//! counts every frame handed to the stage into exactly one of `ingested` /
//! `verified` / `rejected`, so a test can assert nothing fell on the floor
//! at close.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use crossbeam::channel::{bounded, Sender};

use banyan_mempool::{ConcurrentPool, SharedConcurrentPool, WorkloadBatch};
use banyan_types::app::App;
use banyan_types::block::Block;
use banyan_types::engine::Engine;
use banyan_types::ids::ReplicaId;
use banyan_types::message::{DisseminationMsg, Message};

use crate::runner::TcpRunReport;

/// Frame-channel capacity into each verify worker.
const VERIFY_QUEUE: usize = 2048;

/// Sizing of the staged pipeline.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Verify workers between the loop's socket reads and its engine.
    /// 0 behaves like 1 (a configured stage always exists; the *inline*
    /// replica is [`run_replica_full`](crate::runner::run_replica_full)).
    pub verify_workers: usize,
    /// Payload-chunk size for block-hash recomputation; must match the
    /// cluster's `ProtocolConfig::payload_chunk`.
    pub payload_chunk: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            verify_workers: 2,
            payload_chunk: 64 << 10,
        }
    }
}

impl PipelineConfig {
    /// Builder-style: sets the verify-worker count.
    #[must_use]
    pub fn with_verify_workers(mut self, workers: usize) -> Self {
        self.verify_workers = workers;
        self
    }

    /// Builder-style: sets the payload-chunk size for hash recomputation.
    #[must_use]
    pub fn with_payload_chunk(mut self, chunk: usize) -> Self {
        self.payload_chunk = chunk;
        self
    }
}

/// Frame accounting across the pipeline stages. Every frame handed to the
/// verify stage lands in exactly one of `ingested`, `verified` or
/// `rejected` — the conservation law the shutdown test asserts.
#[derive(Debug, Default)]
pub struct PipelineStats {
    /// Frames decoded off the sockets and handed to the verify stage.
    pub decoded: AtomicU64,
    /// Dissemination frames absorbed into pool ingest (never reach the
    /// consensus thread).
    pub ingested: AtomicU64,
    /// Frames verified and forwarded to the consensus thread.
    pub verified: AtomicU64,
    /// Frames rejected by verification (a corrupt workload batch).
    pub rejected: AtomicU64,
    /// Individual requests the pool's ingest channel accepted (diagnostic;
    /// the ones it shed are the pool's `ingest_dropped`).
    pub requests_ingested: AtomicU64,
}

/// A plain-value copy of [`PipelineStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStatsSnapshot {
    /// Frames decoded off the sockets and handed to the verify stage.
    pub decoded: u64,
    /// Frames absorbed into pool ingest.
    pub ingested: u64,
    /// Frames forwarded to the consensus thread.
    pub verified: u64,
    /// Frames rejected by verification.
    pub rejected: u64,
    /// Individual requests the pool's ingest channel accepted.
    pub requests_ingested: u64,
}

impl PipelineStats {
    /// Snapshots the counters.
    pub fn snapshot(&self) -> PipelineStatsSnapshot {
        PipelineStatsSnapshot {
            decoded: self.decoded.load(Ordering::Relaxed),
            ingested: self.ingested.load(Ordering::Relaxed),
            verified: self.verified.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            requests_ingested: self.requests_ingested.load(Ordering::Relaxed),
        }
    }
}

/// What the verify stage decided about one frame.
// `Engine` carries the whole message inline: outcomes are consumed
// immediately, never stored, so the size skew costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Forward to the consensus thread.
    Engine(ReplicaId, Message),
    /// Absorbed into pool ingest (dissemination traffic).
    Ingested,
    /// Dropped: failed a structural check.
    Rejected,
}

/// The verify-stage work for one decoded frame — shared by the worker
/// threads and by single-thread baselines (the throughput bench runs it
/// inline to measure the unstaged path).
///
/// * `Forward`/`Announce` frames feed `pool` ingest under their sender's
///   name — the hand-off into the same accept-and-relay rule the inline
///   loop's `ReplicaPool::intake` applies — and stop here.
/// * Block-carrying messages (proposals, sync responses and catch-up
///   batches — [`Message::carried_blocks`]) pay the real CPU cost per
///   block: the block hash is
///   recomputed over the payload (the commitment walk), a
///   [`WorkloadBatch`]-magic payload must decode cleanly, and the lease is
///   recorded (when `pool` speculates) under the hash just computed. The
///   walk memoizes the commitment on the payload's shared buffer, and the
///   returned message carries that same buffer, so the consensus thread
///   never re-hashes the payload — its `Block::hash` is one header SHA.
/// * Everything else (votes, certificates, timeouts, sync requests)
///   passes through: signatures are the engine's to check.
pub fn verify_frame(
    from: ReplicaId,
    msg: Message,
    pool: Option<&ConcurrentPool>,
    config: &PipelineConfig,
    stats: &PipelineStats,
) -> VerifyOutcome {
    match msg {
        Message::Dissemination(
            DisseminationMsg::Forward { requests } | DisseminationMsg::Announce { requests },
        ) => {
            if let Some(pool) = pool {
                let ingest = pool.ingest();
                for req in requests {
                    if ingest.forward(from, req) {
                        stats.requests_ingested.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            stats.ingested.fetch_add(1, Ordering::Relaxed);
            VerifyOutcome::Ingested
        }
        msg => {
            for block in msg.carried_blocks() {
                // Structural sanity: a payload that claims to be a
                // workload batch must decode as one.
                let batch = WorkloadBatch::decode(&block.payload);
                if batch.is_none() && payload_claims_batch(block) {
                    stats.rejected.fetch_add(1, Ordering::Relaxed);
                    return VerifyOutcome::Rejected;
                }
                // The CPU stage: recompute the block id over the payload
                // commitment (SHA-256 over every chunk).
                let hash = block.hash(config.payload_chunk);
                if let (Some(pool), Some(batch)) = (pool, batch) {
                    // Record the lease under the hash just computed; the
                    // consensus thread skips its own observation pass.
                    pool.observe_decoded(hash, block.round, block.parent, batch.requests);
                }
            }
            stats.verified.fetch_add(1, Ordering::Relaxed);
            VerifyOutcome::Engine(from, msg)
        }
    }
}

/// True when the block's payload starts with the workload-batch magic
/// (used to distinguish "corrupt batch" from "foreign payload").
fn payload_claims_batch(block: &Block) -> bool {
    block
        .payload
        .as_inline()
        .is_some_and(|bytes| bytes.starts_with(b"BanyanWB"))
}

/// The spawned verify stage: per-worker input channels (route with
/// [`VerifyStage::sender_for`]) and the worker join handles.
pub struct VerifyStage {
    txs: Vec<Sender<(ReplicaId, Message)>>,
    handles: Vec<JoinHandle<()>>,
    /// Shared frame accounting.
    pub stats: Arc<PipelineStats>,
    /// Workers still running (0 once every worker drained and exited).
    pub alive: Arc<AtomicUsize>,
}

impl VerifyStage {
    /// Spawns `config.verify_workers.max(1)` workers feeding `event_tx`.
    pub fn spawn(
        config: &PipelineConfig,
        pool: Option<SharedConcurrentPool>,
        event_tx: Sender<(ReplicaId, Message)>,
    ) -> VerifyStage {
        Self::spawn_waking(config, pool, event_tx, || {})
    }

    /// Like [`spawn`](Self::spawn), with each worker calling `wake` after
    /// every frame it finishes: the replica loop, which waits on its
    /// sockets rather than on `event_tx`, learns both that an event is
    /// queued and that a worker's queue has room again.
    pub(crate) fn spawn_waking(
        config: &PipelineConfig,
        pool: Option<SharedConcurrentPool>,
        event_tx: Sender<(ReplicaId, Message)>,
        wake: impl Fn() + Clone + Send + 'static,
    ) -> VerifyStage {
        let workers = config.verify_workers.max(1);
        let stats = Arc::new(PipelineStats::default());
        let alive = Arc::new(AtomicUsize::new(workers));
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for k in 0..workers {
            let (tx, rx) = bounded::<(ReplicaId, Message)>(VERIFY_QUEUE);
            txs.push(tx);
            let pool = pool.clone();
            let config = config.clone();
            let stats = stats.clone();
            let alive = alive.clone();
            let event_tx = event_tx.clone();
            let wake = wake.clone();
            let worker = thread::Builder::new().name(format!("verify-{k}"));
            handles.push(
                worker
                    .spawn(move || {
                        // Drain until every producer hangs up, so no
                        // queued frame is lost at shutdown.
                        while let Ok((from, msg)) = rx.recv() {
                            match verify_frame(from, msg, pool.as_deref(), &config, &stats) {
                                VerifyOutcome::Engine(from, msg) => {
                                    if event_tx.send((from, msg)).is_err() {
                                        break; // consensus thread gone: stop cleanly
                                    }
                                }
                                VerifyOutcome::Ingested | VerifyOutcome::Rejected => {}
                            }
                            wake();
                        }
                        alive.fetch_sub(1, Ordering::AcqRel);
                    })
                    .expect("spawn verify worker"),
            );
        }
        VerifyStage {
            txs,
            handles,
            stats,
            alive,
        }
    }

    /// The input channel for frames from `from` — `from mod workers`, so
    /// one peer's frames stay FIFO while different peers verify in
    /// parallel.
    pub fn sender_for(&self, from: ReplicaId) -> &Sender<(ReplicaId, Message)> {
        &self.txs[from.as_usize() % self.txs.len()]
    }

    /// Clones of all worker input channels, for a caller that reads its
    /// own sockets on threads of its own (the throughput bench).
    pub fn senders(&self) -> Vec<Sender<(ReplicaId, Message)>> {
        self.txs.clone()
    }

    /// Drops the stage's own input senders: workers drain what is queued
    /// and exit once every clone is gone too. The replica loop, which
    /// holds no clone, calls this first and keeps absorbing the event
    /// channel while the workers wind down, so none blocks on a full
    /// channel.
    pub(crate) fn close(&mut self) {
        self.txs.clear();
    }

    /// Drops the stage's own input senders and joins the workers, which
    /// exit once every clone is gone too. Workers block while the event
    /// channel is full, so the thread that drains it must absorb the tail
    /// before calling this.
    pub fn shutdown(mut self) {
        self.close();
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// A [`TcpRunReport`] plus the pipeline's frame accounting.
#[derive(Debug, Default)]
pub struct PipelineRunReport {
    /// The usual run report (commits, message counts).
    pub report: TcpRunReport,
    /// Frame accounting across the stages.
    pub stats: PipelineStatsSnapshot,
    /// Ingest operations shed by the pool channel (0 in healthy runs).
    pub ingest_dropped: u64,
}

/// The staged counterpart of
/// [`run_replica_full`](crate::runner::run_replica_full): the same event
/// loop with a verify worker pool between its socket reads and its engine,
/// so only ordered engine events cross back into this (the consensus)
/// thread.
/// Workers are joined before returning; the returned stats satisfy
/// `decoded == ingested + verified + rejected`.
///
/// # Errors
///
/// Returns an I/O error if binding fails.
pub fn run_replica_pipelined(
    engine: Box<dyn Engine>,
    app: impl App + 'static,
    pool: Option<SharedConcurrentPool>,
    config: PipelineConfig,
    listen: SocketAddr,
    peers: Vec<SocketAddr>,
    run_for: std::time::Duration,
) -> std::io::Result<PipelineRunReport> {
    let stage = Some((config, pool.clone()));
    let (report, stats) = crate::replica::run(
        engine,
        app,
        pool.clone(),
        stage,
        listen,
        peers,
        run_for,
        None,
    )?;
    Ok(PipelineRunReport {
        report,
        stats,
        ingest_dropped: pool.map_or(0, |p| p.ingest_dropped()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use banyan_core::builder::ClusterBuilder;
    use banyan_mempool::{ConcurrentMempoolSource, Mempool, Request};
    use banyan_types::app::NullApp;
    use banyan_types::time::Duration as BDuration;
    use banyan_types::time::Time as BTime;

    fn req(id: u64) -> Request {
        Request {
            id,
            client: (id % 4) as u16,
            size: 64,
            submitted_at: BTime::ZERO,
        }
    }

    /// A round-1 block whose payload is a one-request workload batch.
    fn block_batching(request: Request) -> Block {
        use banyan_types::ids::{BlockHash, Rank, Round};
        Block {
            round: Round(1),
            proposer: ReplicaId(0),
            rank: Rank(0),
            parent: BlockHash::ZERO,
            proposed_at: BTime::ZERO,
            payload: WorkloadBatch {
                requests: vec![request],
            }
            .into_payload(),
            signature: banyan_crypto::Signature::zero(),
        }
    }

    #[test]
    fn pipelined_cluster_commits_agrees_and_drops_no_frame() {
        let _serial = crate::loopback_serial_lock();
        let n = 4;
        let pools: Vec<SharedConcurrentPool> = (0..n)
            .map(|_| ConcurrentPool::new(Mempool::new(4_096).with_gossip(true), 4_096))
            .collect();
        let sources = pools.clone();
        let engines = ClusterBuilder::new(n, 1, 1)
            .unwrap()
            .delta(BDuration::from_millis(50))
            .proposal_sources(move |i| {
                Box::new(ConcurrentMempoolSource::new(
                    sources[i as usize].clone(),
                    64,
                ))
            })
            .build_banyan();

        // Requests enter at replica 0 through the send-only ingest path.
        let ingest = pools[0].ingest();
        for id in 1..=32u64 {
            assert!(ingest.push(req(id)));
        }

        let config = PipelineConfig::default().with_verify_workers(2);
        let run_for = std::time::Duration::from_secs(3);
        let reports = crate::runner::run_local(engines, |i, engine, listen, peers| {
            let (pool, config) = (Some(pools[i].clone()), config.clone());
            run_replica_pipelined(engine, NullApp, pool, config, listen, peers, run_for)
                .expect("replica run")
        });

        // Liveness + agreement, as in the unstaged runner.
        let mut canonical = std::collections::HashMap::new();
        for (i, r) in reports.iter().enumerate() {
            assert!(
                r.report.commits.len() > 3,
                "replica {i} committed only {} blocks",
                r.report.commits.len()
            );
            for c in &r.report.commits {
                if let Some(prev) = canonical.insert(c.round, c.block) {
                    assert_eq!(prev, c.block, "disagreement at round {}", c.round);
                }
            }
        }
        // Workers joined cleanly and no decoded frame fell on the floor:
        // every frame is accounted ingested, verified or rejected.
        for (i, r) in reports.iter().enumerate() {
            let s = &r.stats;
            assert_eq!(
                s.decoded,
                s.ingested + s.verified + s.rejected,
                "replica {i} lost frames at close: {s:?}"
            );
            assert_eq!(s.rejected, 0, "replica {i} rejected honest frames");
            // Only replica 0 pushes, and forwarded requests are never
            // re-forwarded, so the *other* replicas must see gossip.
            if i != 0 {
                assert!(s.ingested > 0, "replica {i} saw no gossip");
            }
            assert_eq!(r.ingest_dropped, 0, "replica {i} shed ingest");
        }
        // The workload committed through the pipeline.
        let committed: std::collections::HashSet<u64> = reports[0]
            .report
            .commits
            .iter()
            .filter_map(|c| WorkloadBatch::decode(&c.payload))
            .flat_map(|b| b.requests.into_iter().map(|r| r.id))
            .collect();
        for id in 1..=32u64 {
            assert!(committed.contains(&id), "request {id} never committed");
        }
    }

    #[test]
    fn verify_frame_accounts_every_frame_once() {
        use banyan_types::message::StreamletMsg;
        use banyan_types::payload::Payload;
        let config = PipelineConfig::default();
        let stats = PipelineStats::default();
        let pool = ConcurrentPool::new(Mempool::new(64).with_speculation(config.payload_chunk), 64);

        // A forward frame is ingested, never forwarded to the engine.
        let fwd = Message::Dissemination(DisseminationMsg::Forward {
            requests: vec![req(1), req(2)],
        });
        assert_eq!(
            verify_frame(ReplicaId(1), fwd, Some(&*pool), &config, &stats),
            VerifyOutcome::Ingested
        );
        assert_eq!(pool.len(), 2, "both requests reached the pool");

        // A staged `Announce` lands in the same accept-and-relay rule as
        // an inline one: with per-peer queues, a first-time accept is
        // relayed to every queue but its sender's.
        let tree = ConcurrentPool::new(Mempool::new(64).with_peer_queues(&[1, 2, 3]), 64);
        let announce = Message::Dissemination(DisseminationMsg::Announce {
            requests: vec![req(3)],
        });
        assert_eq!(
            verify_frame(ReplicaId(2), announce, Some(&*tree), &config, &stats),
            VerifyOutcome::Ingested
        );
        tree.sync_ingest();
        let queued = [1, 2, 3].map(|peer| tree.pool().peer_queue_len(peer));
        assert_eq!(queued, [1, 0, 1], "relayed to all but the sender");

        // A proposal with a valid batch passes and records its lease.
        let block = block_batching(req(7));
        let msg = Message::Streamlet(StreamletMsg::Proposal {
            block: block.clone(),
        });
        match verify_frame(ReplicaId(0), msg, Some(&*pool), &config, &stats) {
            VerifyOutcome::Engine(from, _) => assert_eq!(from, ReplicaId(0)),
            other => panic!("expected Engine, got {other:?}"),
        }
        assert_eq!(
            pool.pool().live_leases(),
            1,
            "lease recorded by the verify stage"
        );

        // A corrupt batch (magic, garbage body) is rejected.
        let mut corrupt = block.clone();
        corrupt.payload = Payload::inline(b"BanyanWB\xFF\xFF\xFF\xFF".to_vec());
        let msg = Message::Streamlet(StreamletMsg::Proposal { block: corrupt });
        assert_eq!(
            verify_frame(ReplicaId(0), msg, Some(&*pool), &config, &stats),
            VerifyOutcome::Rejected
        );

        let s = stats.snapshot();
        assert_eq!(s.ingested, 2);
        assert_eq!(s.verified, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.requests_ingested, 3);

        // Only what the ingest channel accepted counts as ingested: a
        // cap-1 channel takes the first of three requests and sheds two.
        let stats = PipelineStats::default();
        let tiny = ConcurrentPool::new(Mempool::new(64), 1);
        let burst = Message::Dissemination(DisseminationMsg::Forward {
            requests: vec![req(4), req(5), req(6)],
        });
        assert_eq!(
            verify_frame(ReplicaId(1), burst, Some(&*tiny), &config, &stats),
            VerifyOutcome::Ingested
        );
        assert_eq!(stats.snapshot().requests_ingested, 1);
        assert_eq!(tiny.ingest_dropped(), 2);
        assert_eq!(tiny.len(), 1);
    }

    /// A proposal keeps one payload buffer from the frame decoder through
    /// the verify stage into the engine's store: the allocation
    /// `verify_frame` hashed (and memoized the commitment on) is the one
    /// the consensus thread adopts, so it never walks the payload again.
    /// A catch-up batch of one block carrying one request, and the two
    /// pools it may meet with the live leases it must leave on each: a
    /// speculating pool leases the fetched block like a proposal, a
    /// non-speculating one records nothing.
    fn catch_up_batch_and_pools() -> (Message, [(SharedConcurrentPool, usize); 2]) {
        let batch = Message::Sync(banyan_types::message::SyncMsg::ResponseBatch {
            blocks: vec![block_batching(req(7))],
            notarizations: vec![],
        });
        let chunk = PipelineConfig::default().payload_chunk;
        let speculating = ConcurrentPool::new(Mempool::new(64).with_speculation(chunk), 64);
        let plain = ConcurrentPool::new(Mempool::new(64), 64);
        (batch, [(speculating, 1), (plain, 0)])
    }

    #[test]
    fn verify_frame_leases_the_blocks_of_a_catch_up_batch() {
        let (batch, pools) = catch_up_batch_and_pools();
        let (config, stats) = (PipelineConfig::default(), PipelineStats::default());
        for (pool, leases) in pools {
            let out = verify_frame(ReplicaId(2), batch.clone(), Some(&*pool), &config, &stats);
            assert!(matches!(out, VerifyOutcome::Engine(ReplicaId(2), _)));
            assert_eq!(pool.pool().live_leases(), leases);
        }
    }

    #[test]
    fn inline_path_leases_the_blocks_of_a_catch_up_batch() {
        let (batch, pools) = catch_up_batch_and_pools();
        for (pool, leases) in pools {
            banyan_mempool::ReplicaPool::observe_inbound(&pool, &batch);
            assert_eq!(pool.pool().live_leases(), leases);
        }
    }

    #[test]
    fn verified_proposal_reaches_the_engine_as_the_buffer_that_was_hashed() {
        use banyan_types::app::{ProposalContext, ProposalSource};
        use banyan_types::codec::Wire;
        use banyan_types::engine::Outbound;
        use banyan_types::payload::Payload;

        struct InlineSource;
        impl ProposalSource for InlineSource {
            fn next_payload(&mut self, _ctx: &ProposalContext) -> Payload {
                Payload::inline(vec![0xAB; 200_000])
            }
        }
        let mut engines = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .delta(BDuration::from_millis(50))
            .proposal_sources(|_| Box::new(InlineSource))
            .build_banyan();
        // Whoever leads round 1 proposes at init or on its first timer.
        let mut proposal = None;
        for (i, engine) in engines.iter_mut().enumerate() {
            let init = engine.on_init(BTime::ZERO);
            let mut outbound = init.outbound;
            for timer in init.timers {
                outbound.extend(engine.on_timer(timer.kind, timer.at).outbound);
            }
            let sent = outbound.into_iter().find_map(|out| match out {
                Outbound::Broadcast(msg) if msg.proposal_block().is_some() => Some(msg),
                _ => None,
            });
            if let Some(msg) = sent {
                proposal = Some((i, msg));
                break;
            }
        }
        let (leader, sent) = proposal.expect("a round-1 leader proposes");
        let receiver = (leader + 1) % 4;

        // Off the socket: a fresh buffer, nothing memoized.
        let decoded = Message::from_bytes(&sent.to_bytes()).expect("decode");
        let arrived = decoded.proposal_block().expect("proposal").payload.clone();
        assert!(!arrived.ptr_eq(&sent.proposal_block().expect("proposal").payload));

        let config = PipelineConfig::default();
        let stats = PipelineStats::default();
        let from = ReplicaId(leader as u16);
        let VerifyOutcome::Engine(_, verified) = verify_frame(from, decoded, None, &config, &stats)
        else {
            panic!("an honest proposal must pass the verify stage");
        };
        assert!(verified
            .proposal_block()
            .expect("proposal")
            .payload
            .ptr_eq(&arrived));

        let engine = &mut engines[receiver];
        engine.on_message(from, verified, BTime(1));
        let stored = engine.snapshot();
        assert!(
            stored
                .blocks
                .iter()
                .any(|(_, b)| b.payload.ptr_eq(&arrived)),
            "the engine must store the verified buffer, not a copy"
        );
    }

    /// An *optimistic* chained proposal — uncertified parent, so
    /// `parent_notarization: None` and a withheld `fast_vote: None` — must
    /// flow through the verify stage exactly like a certified one: hash
    /// recomputed, lease recorded under the parent link, and the message
    /// forwarded to the engine with every field untouched. The verify
    /// pool is deliberately certification-blind; optimism needs no new
    /// wire handling.
    #[test]
    fn optimistic_proposal_passes_the_verify_pool_unchanged() {
        use banyan_crypto::Signature;
        use banyan_types::ids::{BlockHash, Rank, Round};
        use banyan_types::message::ChainedMsg;
        let config = PipelineConfig::default();
        let stats = PipelineStats::default();
        let pool = ConcurrentPool::new(Mempool::new(64).with_speculation(config.payload_chunk), 64);

        // The parent is a round-1 block the pool knows only as a lease —
        // received, never certified. Its child is the optimistic proposal.
        let parent = Block {
            round: Round(1),
            proposer: ReplicaId(0),
            rank: Rank(0),
            parent: BlockHash::ZERO,
            proposed_at: BTime::ZERO,
            payload: WorkloadBatch {
                requests: vec![req(1)],
            }
            .into_payload(),
            signature: Signature::zero(),
        };
        let parent_hash = parent.hash(config.payload_chunk);
        let parent_msg = Message::Chained(ChainedMsg::Proposal {
            block: parent,
            parent_notarization: None,
            parent_unlock: None,
            fast_vote: None,
        });
        assert!(matches!(
            verify_frame(ReplicaId(1), parent_msg, Some(&*pool), &config, &stats),
            VerifyOutcome::Engine(..)
        ));

        let child = Block {
            round: Round(2),
            proposer: ReplicaId(2),
            rank: Rank(0),
            parent: parent_hash,
            proposed_at: BTime::ZERO,
            payload: WorkloadBatch {
                requests: vec![req(2)],
            }
            .into_payload(),
            signature: Signature::zero(),
        };
        let msg = Message::Chained(ChainedMsg::Proposal {
            block: child.clone(),
            parent_notarization: None,
            parent_unlock: None,
            fast_vote: None,
        });
        match verify_frame(ReplicaId(2), msg.clone(), Some(&*pool), &config, &stats) {
            VerifyOutcome::Engine(from, forwarded) => {
                assert_eq!(from, ReplicaId(2));
                assert_eq!(
                    forwarded, msg,
                    "the verify stage must not rewrite an optimistic proposal"
                );
            }
            other => panic!("expected Engine, got {other:?}"),
        }
        // Both proposals' leases live — parent first, then its optimistic
        // child linked to the still-uncertified parent hash.
        assert_eq!(pool.pool().live_leases(), 2, "both leases recorded");
        let s = stats.snapshot();
        assert_eq!(s.verified, 2);
        assert_eq!(s.rejected, 0, "optimistic shape must not be rejected");
    }
}
