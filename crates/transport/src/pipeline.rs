//! The optional verify stage of the replica event loop: decode → **hash**
//! → engine → dispatch.
//!
//! The one TCP replica loop (`crate::replica`) decodes and executes every
//! frame on the consensus thread unless it is handed a [`PipelineConfig`].
//! With one, a pool of verify workers sits between the loop's socket reads
//! and its engine, connected by bounded MPMC channels
//! (`crossbeam::channel`), so the payload hashing of a replica scales
//! across cores:
//!
//! ```text
//!  sockets ──► replica loop (one ppoll; reads and splits frames)
//!                 │  route by sender id: worker = from % W, try_send
//!                 │  (a full queue holds the frame and pauses that
//!                 │   connection's reads; the loop never blocks on it)
//!                 ▼
//!          verify workers (× W, PipelineConfig::verify_workers)
//!            · every block a frame carries → its payload commitment
//!              (the SHA-256 walk), memoized on the payload buffer
//!                 │  every frame back, in order, then a wake-up if
//!                 ▼  the loop is parked in ppoll
//!          consensus thread: what an inline replica does with a frame
//!          (pool intake, lease observation, probes, catch-up, engine)
//!                 │  outbound actions, written by this same thread
//!                 ▼
//!          one non-blocking socket per peer (dispatch)
//! ```
//!
//! A worker decides nothing about a frame. It hands every frame back
//! unchanged, and the loop treats it exactly as an inline replica treats
//! the frame it decoded: the same `Inbound::classify`, the same pool intake
//! and lease observation, the same engine call. What the stage buys is the
//! commitment walk off the consensus thread: the frame comes back holding
//! the payload buffer whose root the worker memoized, so every later
//! `Block::hash` of it — the lease observation's, the engine's — is one
//! header SHA. Signatures are the engine's to check: it checks every vote
//! and certificate that can change its state, and only those.
//!
//! Routing a peer's frames to the worker `from % verify_workers` keeps
//! per-peer FIFO order (a peer's proposal is never overtaken by its own
//! later vote) while different peers hash in parallel.
//!
//! Shutdown is staged and loss-free: the loop stops reading and drops its
//! senders, the verify channels disconnect, workers drain what was queued
//! and exit, and the consensus thread absorbs the tail — every frame a
//! worker's queue took (`decoded`) comes back to the loop (`verified`), so
//! a test can assert nothing fell on the floor at close.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use crossbeam::channel::{bounded, Sender};

use banyan_mempool::{ConcurrentPool, SharedConcurrentPool};
use banyan_types::app::App;
use banyan_types::engine::Engine;
use banyan_types::ids::ReplicaId;
use banyan_types::message::Message;

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
    /// Payload-chunk size for the commitment walk; must match the
    /// cluster's `ProtocolConfig::payload_chunk`, or the memoized root is
    /// one the engine never asks for.
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

    /// Builder-style: sets the payload-chunk size of the commitment walk.
    #[must_use]
    pub fn with_payload_chunk(mut self, chunk: usize) -> Self {
        self.payload_chunk = chunk;
        self
    }
}

/// Frame accounting across the stage: every frame a worker's queue took
/// is handed back to the loop — the conservation law the shutdown tests
/// assert.
#[derive(Debug, Default)]
pub struct PipelineStats {
    /// Frames a verify worker's queue took.
    pub(crate) decoded: AtomicU64,
    /// Frames [`verify_frame`] handed back.
    verified: AtomicU64,
}

/// A plain-value copy of [`PipelineStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStatsSnapshot {
    /// Frames a verify worker's queue took.
    pub decoded: u64,
    /// Always 0: the stage absorbs no frame (dissemination frames reach
    /// the pool from the loop, as inline). Kept because the benchmark's
    /// conservation check `decoded == ingested + verified + rejected`
    /// names it.
    pub ingested: u64,
    /// Frames the workers handed back to the loop.
    pub verified: u64,
    /// Always 0: the stage drops no frame. Kept for the same check.
    pub rejected: u64,
}

impl PipelineStats {
    /// Snapshots the counters.
    pub fn snapshot(&self) -> PipelineStatsSnapshot {
        PipelineStatsSnapshot {
            decoded: self.decoded.load(Ordering::Relaxed),
            verified: self.verified.load(Ordering::Relaxed),
            ..PipelineStatsSnapshot::default()
        }
    }
}

/// The verify-stage work for one decoded frame: walks the payload
/// commitment of every block the frame carries
/// ([`Message::carried_blocks`]: proposals, sync responses, catch-up
/// batches) at `config.payload_chunk`, which memoizes the root on the
/// payload's shared buffer, counts the frame `verified`, and hands it back
/// unchanged. Every frame goes on to the loop, which does with it what an
/// inline replica does.
///
/// `_pool` is not used: the pool work (intake, lease observation) is the
/// loop's, on both paths. The parameter stays while the repository
/// benchmark's `transport.verify_frame_us` calls this function with it.
pub fn verify_frame(
    from: ReplicaId,
    msg: Message,
    _pool: Option<&ConcurrentPool>,
    config: &PipelineConfig,
    stats: &PipelineStats,
) -> (ReplicaId, Message) {
    for block in msg.carried_blocks() {
        block.payload.commitment(config.payload_chunk);
    }
    stats.verified.fetch_add(1, Ordering::Relaxed);
    (from, msg)
}

/// The spawned verify stage: per-worker input channels (route with
/// [`VerifyStage::sender_for`]) and the worker join handles.
pub(crate) struct VerifyStage {
    txs: Vec<Sender<(ReplicaId, Message)>>,
    handles: Vec<JoinHandle<()>>,
    /// Shared frame accounting.
    pub(crate) stats: Arc<PipelineStats>,
}

impl VerifyStage {
    /// Spawns `config.verify_workers.max(1)` workers feeding `event_tx`,
    /// each calling `wake` after every frame it hands back: the replica
    /// loop, which waits on its sockets rather than on `event_tx`, learns
    /// both that an event is queued and that a worker's queue has room
    /// again.
    pub(crate) fn spawn(
        config: &PipelineConfig,
        event_tx: Sender<(ReplicaId, Message)>,
        wake: impl Fn() + Clone + Send + 'static,
    ) -> VerifyStage {
        let workers = config.verify_workers.max(1);
        let stats = Arc::new(PipelineStats::default());
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for k in 0..workers {
            let (tx, rx) = bounded::<(ReplicaId, Message)>(VERIFY_QUEUE);
            txs.push(tx);
            let config = config.clone();
            let stats = stats.clone();
            let event_tx = event_tx.clone();
            let wake = wake.clone();
            let worker = thread::Builder::new().name(format!("verify-{k}"));
            handles.push(
                worker
                    .spawn(move || {
                        // Drain until every producer hangs up, so no
                        // queued frame is lost at shutdown.
                        while let Ok((from, msg)) = rx.recv() {
                            let event = verify_frame(from, msg, None, &config, &stats);
                            if event_tx.send(event).is_err() {
                                break; // consensus thread gone: stop cleanly
                            }
                            wake();
                        }
                    })
                    .expect("spawn verify worker"),
            );
        }
        VerifyStage {
            txs,
            handles,
            stats,
        }
    }

    /// The input channel for frames from `from` — `from mod workers`, so
    /// one peer's frames stay FIFO while different peers hash in
    /// parallel.
    pub(crate) fn sender_for(&self, from: ReplicaId) -> &Sender<(ReplicaId, Message)> {
        &self.txs[from.as_usize() % self.txs.len()]
    }

    /// Drops the stage's input senders: workers drain what is queued and
    /// exit. The replica loop calls this first and keeps absorbing the
    /// event channel while the workers wind down, so none blocks on a full
    /// channel.
    pub(crate) fn close(&mut self) {
        self.txs.clear();
    }

    /// Drops the stage's input senders and joins the workers. Workers
    /// block while the event channel is full, so the thread that drains it
    /// must absorb the tail before calling this.
    pub(crate) fn shutdown(mut self) {
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
    /// Frame accounting across the stage.
    pub stats: PipelineStatsSnapshot,
}

/// The staged counterpart of
/// [`run_replica_full`](crate::runner::run_replica_full): the same event
/// loop, doing the same with every frame, with verify workers walking the
/// payload commitments between its socket reads and its engine. `pool` is
/// the replica's pool, fed and drained by the loop as inline; a
/// [`ConcurrentPool`] so that client threads can push into it without its
/// lock. Workers are joined before returning; the returned stats satisfy
/// `decoded == verified`.
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
    let (report, stats) = crate::replica::run(
        engine,
        app,
        pool,
        Some(config),
        listen,
        peers,
        run_for,
        None,
    )?;
    Ok(PipelineRunReport { report, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use banyan_core::builder::ClusterBuilder;
    use banyan_mempool::{ConcurrentMempoolSource, Mempool, Request, WorkloadBatch};
    use banyan_types::app::NullApp;
    use banyan_types::block::Block;
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
        // every frame a worker took came back to the loop.
        for (i, r) in reports.iter().enumerate() {
            let s = &r.stats;
            assert!(s.decoded > 0, "replica {i} ran without its verify stage");
            assert_eq!(
                s.decoded, s.verified,
                "replica {i} lost frames at close: {s:?}"
            );
            assert_eq!(pools[i].ingest_dropped(), 0, "replica {i} shed ingest");
        }
        // Only replica 0 pushes, so the other pools hear of the requests
        // only through gossip, which the loop hands to the pool as inline.
        // A quorum can commit a batch before a peer's copy lands; the pool
        // then refuses it as already committed — still a delivery.
        for (i, pool) in pools.iter().enumerate().skip(1) {
            let p = pool.pool();
            assert!(
                p.forwarded_in() + p.rejected_committed() + p.duplicates() > 0,
                "replica {i} saw no gossip"
            );
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

    /// Every frame comes back from the stage unchanged and is counted
    /// once: gossip, a proposal, a catch-up batch and a proposal whose
    /// payload claims to be a workload batch but does not decode as one —
    /// an inline replica hands that one to its engine too. The stage
    /// touches no pool: no request ingested, no lease recorded.
    #[test]
    fn verify_frame_accounts_every_frame_once() {
        use banyan_types::message::{DisseminationMsg, StreamletMsg, SyncMsg};
        use banyan_types::payload::Payload;
        let config = PipelineConfig::default();
        let stats = PipelineStats::default();
        let pool = ConcurrentPool::new(Mempool::new(64).with_speculation(config.payload_chunk), 64);

        let block = block_batching(req(7));
        let mut corrupt = block.clone();
        corrupt.payload = Payload::inline(b"BanyanWB\xFF\xFF\xFF\xFF".to_vec());
        let frames = [
            Message::Dissemination(DisseminationMsg::Forward {
                requests: vec![req(1), req(2)],
            }),
            Message::Dissemination(DisseminationMsg::Announce {
                requests: vec![req(3)],
            }),
            Message::Streamlet(StreamletMsg::Proposal {
                block: block.clone(),
            }),
            Message::Sync(SyncMsg::ResponseBatch {
                blocks: vec![block],
                notarizations: vec![],
            }),
            Message::Streamlet(StreamletMsg::Proposal { block: corrupt }),
        ];
        for (k, msg) in frames.iter().enumerate() {
            let from = ReplicaId(k as u16);
            let out = verify_frame(from, msg.clone(), Some(&*pool), &config, &stats);
            assert_eq!(out, (from, msg.clone()), "frame {k} came back changed");
        }

        let s = stats.snapshot();
        assert_eq!((s.verified, s.ingested, s.rejected), (5, 0, 0));
        pool.sync_ingest();
        assert_eq!(pool.len(), 0, "the stage fed the pool");
        assert_eq!(pool.pool().live_leases(), 0, "the stage leased a block");
    }

    /// The blocks of a catch-up batch are leased by the loop's
    /// `observe_inbound`, on both paths: a speculating pool leases the
    /// fetched block like a proposal, a non-speculating one records
    /// nothing.
    #[test]
    fn inline_path_leases_the_blocks_of_a_catch_up_batch() {
        let batch = Message::Sync(banyan_types::message::SyncMsg::ResponseBatch {
            blocks: vec![block_batching(req(7))],
            notarizations: vec![],
        });
        let chunk = PipelineConfig::default().payload_chunk;
        let speculating = ConcurrentPool::new(Mempool::new(64).with_speculation(chunk), 64);
        let plain = ConcurrentPool::new(Mempool::new(64), 64);
        for (pool, leases) in [(speculating, 1), (plain, 0)] {
            banyan_mempool::ReplicaPool::observe_inbound(&pool, &batch);
            assert_eq!(pool.pool().live_leases(), leases);
        }
    }

    /// A proposal keeps one payload buffer from the frame decoder through
    /// the verify stage into the engine's store: the allocation
    /// `verify_frame` hashed (and memoized the commitment on) is the one
    /// the consensus thread adopts, so it never walks the payload again.
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
        let (_, verified) = verify_frame(from, decoded, None, &config, &stats);
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
    /// flow through the verify stage exactly like a certified one: the
    /// message handed back with every field untouched. The verify pool is
    /// deliberately certification-blind; optimism needs no new wire
    /// handling.
    #[test]
    fn optimistic_proposal_passes_the_verify_pool_unchanged() {
        use banyan_crypto::Signature;
        use banyan_types::ids::{Rank, Round};
        use banyan_types::message::ChainedMsg;
        let config = PipelineConfig::default();
        let stats = PipelineStats::default();

        // The parent is a round-1 block nobody certified yet; its child is
        // the optimistic proposal.
        let parent = block_batching(req(1));
        let child = Block {
            round: Round(2),
            proposer: ReplicaId(2),
            rank: Rank(0),
            parent: parent.hash(config.payload_chunk),
            proposed_at: BTime::ZERO,
            payload: WorkloadBatch {
                requests: vec![req(2)],
            }
            .into_payload(),
            signature: Signature::zero(),
        };
        for (from, block) in [(ReplicaId(1), parent), (ReplicaId(2), child)] {
            let msg = Message::Chained(ChainedMsg::Proposal {
                block,
                parent_notarization: None,
                parent_unlock: None,
                fast_vote: None,
            });
            let (by, forwarded) = verify_frame(from, msg.clone(), None, &config, &stats);
            assert_eq!(by, from);
            assert_eq!(
                forwarded, msg,
                "the verify stage must not rewrite an optimistic proposal"
            );
        }
        let s = stats.snapshot();
        assert_eq!(s.verified, 2);
        assert_eq!(s.rejected, 0, "optimistic shape must not be rejected");
    }
}
