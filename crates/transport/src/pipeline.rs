//! What is left of the staged replica: names the repository benchmark's
//! adapter still calls, and nothing else.
//!
//! A TCP replica decodes and executes every frame on its one loop thread
//! (`crate::replica`). The engine recognises a relayed copy of a block it
//! holds by equality, so each replica walks each block's payload once,
//! and a verify stage would move only that one walk off a thread that is
//! otherwise idle. [`run_replica_pipelined`] is therefore the same
//! loop over a [`ConcurrentPool`], the pool client threads push into
//! without taking its lock. [`PipelineConfig`], [`PipelineStats`],
//! [`PipelineStatsSnapshot`], [`PipelineRunReport`] and [`verify_frame`]
//! stay only while the benchmark's `Runner::Pipelined` and its
//! `transport.verify_frame_us` row name them.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};

use banyan_mempool::{ConcurrentPool, SharedConcurrentPool};
use banyan_types::app::App;
use banyan_types::engine::Engine;
use banyan_types::ids::ReplicaId;
use banyan_types::message::Message;

use crate::runner::TcpRunReport;

/// The arguments of [`verify_frame`] and [`run_replica_pipelined`]. Kept
/// only because the benchmark's adapter builds one.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Ignored: no replica runs verify workers.
    pub verify_workers: usize,
    /// Payload-chunk size of [`verify_frame`]'s commitment walk.
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
    /// Builder-style: sets the (ignored) verify-worker count.
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

/// Counts the frames [`verify_frame`] handed back. Kept only because the
/// benchmark's `transport.verify_frame_us` row passes one.
#[derive(Debug, Default)]
pub struct PipelineStats {
    verified: AtomicU64,
}

/// The frame accounting a [`PipelineRunReport`] carries: all zero, since
/// no replica has a stage to account for. Kept only because the
/// benchmark's conservation check `decoded == ingested + verified +
/// rejected` names it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStatsSnapshot {
    /// Frames handed to a stage.
    pub decoded: u64,
    /// Frames a stage absorbed.
    pub ingested: u64,
    /// Frames a stage handed back.
    pub verified: u64,
    /// Frames a stage dropped.
    pub rejected: u64,
}

impl PipelineStats {
    /// Snapshots the counter.
    pub fn snapshot(&self) -> PipelineStatsSnapshot {
        PipelineStatsSnapshot {
            verified: self.verified.load(Ordering::Relaxed),
            ..PipelineStatsSnapshot::default()
        }
    }
}

/// Walks the payload commitment of each block `msg` carries
/// ([`Message::carried_blocks`]) that `from` proposed, or that came in a
/// sync reply (`Response`, `ResponseBatch`), at `config.payload_chunk`,
/// which memoizes the root on the payload's shared buffer; counts the
/// frame `verified`, and hands it back unchanged. A relay is left
/// unhashed: the engine recognises a copy of a block it holds by
/// equality.
///
/// No replica calls this: it is the walk a verify worker did, kept only
/// because the benchmark's `transport.verify_frame_us` row times it.
/// `_pool` is not used.
pub fn verify_frame(
    from: ReplicaId,
    msg: Message,
    _pool: Option<&ConcurrentPool>,
    config: &PipelineConfig,
    stats: &PipelineStats,
) -> (ReplicaId, Message) {
    let sync_reply = matches!(msg, Message::Sync(_));
    for block in msg.carried_blocks() {
        if sync_reply || block.proposer == from {
            block.payload.commitment(config.payload_chunk);
        }
    }
    stats.verified.fetch_add(1, Ordering::Relaxed);
    (from, msg)
}

/// A [`TcpRunReport`] plus an all-zero [`PipelineStatsSnapshot`].
#[derive(Debug, Default)]
pub struct PipelineRunReport {
    /// The usual run report (commits, message counts).
    pub report: TcpRunReport,
    /// All zero: there is no stage.
    pub stats: PipelineStatsSnapshot,
}

/// [`run_replica_full`](crate::runner::run_replica_full) over a
/// [`ConcurrentPool`], so that client threads can push into the pool
/// without its lock: the same loop, which the pool's pushes wake when it
/// is parked. `_config` is not used.
///
/// # Errors
///
/// Returns an I/O error if binding fails.
pub fn run_replica_pipelined(
    engine: Box<dyn Engine>,
    app: impl App + 'static,
    pool: Option<SharedConcurrentPool>,
    _config: PipelineConfig,
    listen: SocketAddr,
    peers: Vec<SocketAddr>,
    run_for: std::time::Duration,
) -> std::io::Result<PipelineRunReport> {
    let listener = std::net::TcpListener::bind(listen)?;
    let report = crate::replica::run(engine, app, pool, listener, peers, run_for, None)?;
    let stats = PipelineStatsSnapshot::default();
    Ok(PipelineRunReport { report, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use banyan_core::builder::ClusterBuilder;
    use banyan_mempool::{ConcurrentMempoolSource, Mempool, Request, WorkloadBatch};
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

    /// A cluster over `ConcurrentPool` handles on a `LocalNet`, requests
    /// pushed at replica 0 through the send-only ingest path: the
    /// replicas agree, every request commits, and no frame or request
    /// is dropped on the way.
    #[test]
    fn pipelined_cluster_commits_agrees_and_drops_no_frame() {
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

        let ingest = pools[0].ingest();
        for id in 1..=32u64 {
            assert!(ingest.push(req(id)));
        }

        let net = crate::replica::tests::LocalNet {
            seed: 0x9E1,
            delay: BDuration::from_millis(5),
        };
        let pool = |i: usize| Some(pools[i].clone());
        let reports = net.run(engines, BDuration::from_secs(3), pool, |_| None);

        let mut canonical = std::collections::HashMap::new();
        for (i, r) in reports.iter().enumerate() {
            assert!(
                r.commits.len() > 3,
                "replica {i} committed only {} blocks",
                r.commits.len()
            );
            for c in &r.commits {
                if let Some(prev) = canonical.insert(c.round, c.block) {
                    assert_eq!(prev, c.block, "disagreement at round {}", c.round);
                }
            }
            assert_eq!(r.frames_refused, 0, "replica {i} refused frames");
            assert_eq!(pools[i].ingest_dropped(), 0, "replica {i} shed ingest");
        }
        // Only replica 0 pushes, so the other pools hear of the requests
        // only through gossip. A quorum can commit a batch before a peer's
        // copy lands; the pool then refuses it as already committed —
        // still a delivery.
        for (i, pool) in pools.iter().enumerate().skip(1) {
            let p = pool.pool();
            assert!(
                p.forwarded_in() + p.rejected_committed() + p.duplicates() > 0,
                "replica {i} saw no gossip"
            );
        }
        let committed: std::collections::HashSet<u64> = reports[0]
            .commits
            .iter()
            .filter_map(|c| WorkloadBatch::decode(&c.payload))
            .flat_map(|b| b.requests.into_iter().map(|r| r.id))
            .collect();
        for id in 1..=32u64 {
            assert!(committed.contains(&id), "request {id} never committed");
        }
    }

    /// Every frame comes back from `verify_frame` unchanged and is
    /// counted once: gossip, a proposal, a catch-up batch and a proposal
    /// whose payload claims to be a workload batch but does not decode as
    /// one. It touches no pool: no request ingested, no lease recorded.
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
        assert_eq!(pool.len(), 0, "verify_frame fed the pool");
        assert_eq!(pool.pool().live_leases(), 0, "verify_frame leased a block");
    }

    /// `verify_frame` walks the payload of what a block's proposer sent
    /// and of every sync reply, and leaves a relay's to the engine, which
    /// recognises a held block by equality: a relay's buffer comes back
    /// with no commitment memoized.
    #[test]
    fn verify_frame_hashes_originals_and_sync_replies_but_not_relays() {
        use banyan_types::message::{ChainedMsg, SyncMsg};
        use banyan_types::payload::Payload;
        let config = PipelineConfig::default();
        let chunk = config.payload_chunk;
        let stats = PipelineStats::default();
        let block = block_batching(req(7));
        assert_eq!(block.proposer, ReplicaId(0));
        // A decoder's copy: equal bytes in a buffer of its own.
        let copy = || Block {
            payload: Payload::inline(block.payload.as_inline().expect("inline").to_vec()),
            ..block.clone()
        };
        let proposal = |block| {
            Message::Chained(ChainedMsg::Proposal {
                block,
                parent_notarization: None,
                parent_unlock: None,
                fast_vote: None,
            })
        };
        let memoized = |msg: &Message| {
            msg.carried_blocks()
                .map(|b| b.payload.memoized_commitment(chunk).is_some())
                .collect::<Vec<_>>()
        };
        let frames = [
            (ReplicaId(0), proposal(copy()), vec![true]),
            (ReplicaId(2), proposal(copy()), vec![false]),
            (
                ReplicaId(3),
                Message::Sync(SyncMsg::Response { block: copy() }),
                vec![true],
            ),
            (
                ReplicaId(3),
                Message::Sync(SyncMsg::ResponseBatch {
                    blocks: vec![copy(), copy()],
                    notarizations: vec![],
                }),
                vec![true, true],
            ),
        ];
        for (k, (from, msg, hashed)) in frames.into_iter().enumerate() {
            assert!(
                memoized(&msg).iter().all(|m| !m),
                "frame {k} arrived hashed"
            );
            let (_, out) = verify_frame(from, msg, None, &config, &stats);
            assert_eq!(memoized(&out), hashed, "frame {k} from {from:?}");
        }
        assert_eq!(stats.snapshot().verified, 4);
    }

    /// The blocks of a catch-up batch are leased by the loop's
    /// `observe_inbound` on a `ConcurrentPool`: a speculating pool leases
    /// the fetched block like a proposal, a non-speculating one records
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
    /// `verify_frame` into the engine's store: the allocation it hashed
    /// (and memoized the commitment on) is the one the engine adopts, so
    /// it never walks the payload again.
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

    /// An *optimistic* ICC proposal — uncertified parent, so
    /// `parent_notarization: None`, and no `fast_vote` — must pass
    /// `verify_frame` exactly like a certified one: the message handed
    /// back with every field untouched. The walk is certification-blind;
    /// optimism needs no new wire handling.
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
                "verify_frame must not rewrite an optimistic proposal"
            );
        }
        let s = stats.snapshot();
        assert_eq!(s.verified, 2);
        assert_eq!(s.rejected, 0, "optimistic shape must not be rejected");
    }
}
