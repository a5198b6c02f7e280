//! The lock-split concurrent pool: send-only channel ingest and a
//! separately-locked lease coordinator over one pending FIFO.
//!
//! [`SharedMempool`](crate::SharedMempool) serializes *every* operation —
//! client push, gossip accept, lease bookkeeping, speculative drain — on
//! one mutex. [`ConcurrentPool`] keeps the same single [`Mempool`] behind
//! one lock and takes two kinds of work off it, which is all the
//! parallelism there is:
//!
//! * **Ingest** — pushes and gossip accepts go through a bounded MPMC
//!   channel (`crossbeam::channel`). The hot path is a single `try_send`
//!   by a cloneable [`PoolIngest`] handle: no lock, no waiting, from any
//!   number of reader/verify threads at once. Queued operations are
//!   applied to the pending queue by whichever thread next reaches a
//!   drain or observation point ([`ConcurrentPool::sync_ingest`], called
//!   internally by every consumer-side entry point), under the pending
//!   lock. A full channel sheds the request (counted in
//!   [`ingest_dropped`](ConcurrentPool::ingest_dropped)) — clients
//!   retry, so a shed ingest is a delayed request, never a lost one,
//!   exactly like a gossip-outbox drop.
//! * **Lease coordination** — `observe_proposal` / `mark_committed_block`
//!   / `release` operate on a [`LeaseTable`](crate::LeaseTable) behind its
//!   own small mutex, and block decoding and hashing happen outside any
//!   lock, so the verify workers' lease observations never wait on a
//!   drain (or on each other's decode).
//!
//! The **pending queue** itself — the [`Mempool`]'s one FIFO — is touched
//! only under the pending lock, by drains, ingest application and commit
//! tombstoning: one thread at a time, so its order is a single FIFO's.
//!
//! Lock order is always **coordinator → pending** (never both the other
//! way), so the two can't deadlock. Determinism note: the simulator keeps
//! using the plain [`SharedMempool`](crate::SharedMempool) — its whole
//! point is a single deterministic event order. `ConcurrentPool` is for
//! the real-threads TCP pipeline, where the channel hand-off trades a
//! bounded reordering window (ingest lands at the next sync point) for
//! lock-free submission.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use banyan_types::app::ProposalContext;
use banyan_types::block::Block;
use banyan_types::engine::Outbound;
use banyan_types::ids::{BlockHash, ReplicaId, Round};
use banyan_types::message::DisseminationMsg;

use crossbeam::channel;

use crate::{BatchPolicy, Mempool, PoolSource, ReplicaPool, Request, WorkloadBatch};

/// Default bound on the ingest channel (queued pushes + gossip accepts).
pub const DEFAULT_INGEST_CAP: usize = 65_536;

/// One queued ingest operation.
enum IngestOp {
    /// A locally submitted request ([`Mempool::push`] semantics: gossips
    /// if the pool gossips).
    Push(Request),
    /// A request gossiped by the named peer ([`Mempool::accept_from`]
    /// semantics: relayed onward only down per-peer queues).
    Forward(ReplicaId, Request),
}

/// The cloneable, send-only ingest handle: what reader/verify threads
/// hold. A send is one `try_send` on the bounded MPMC channel — the
/// caller never touches the pending lock.
#[derive(Clone)]
pub struct PoolIngest {
    tx: channel::Sender<IngestOp>,
    dropped: Arc<AtomicU64>,
}

impl PoolIngest {
    /// Queues a locally submitted request. Returns `false` (and counts a
    /// drop) when the ingest channel is full or closed.
    pub fn push(&self, req: Request) -> bool {
        self.send(IngestOp::Push(req))
    }

    /// Queues a request gossiped by `from`. Returns `false` (and counts a
    /// drop) when the ingest channel is full or closed.
    pub fn forward(&self, from: ReplicaId, req: Request) -> bool {
        self.send(IngestOp::Forward(from, req))
    }

    fn send(&self, op: IngestOp) -> bool {
        match self.tx.try_send(op) {
            Ok(()) => true,
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }
}

/// Lease state guarded separately from the pending queue, so lease
/// observation never waits on a drain.
#[derive(Debug, Default)]
struct LeaseCoordinator {
    /// `Some(payload_chunk)` when speculation is on (parameterizes block
    /// hashing in observation).
    speculation: Option<usize>,
    leases: crate::LeaseTable,
}

/// A [`Mempool`] behind its pending lock, fed by a bounded MPMC ingest
/// channel and steered by a separately-locked lease coordinator. See the
/// module docs for the locking story.
pub struct ConcurrentPool {
    pending: Mutex<Mempool>,
    coordinator: Mutex<LeaseCoordinator>,
    ingest_tx: channel::Sender<IngestOp>,
    ingest_rx: channel::Receiver<IngestOp>,
    ingest_dropped: Arc<AtomicU64>,
}

/// The `Arc` handle drivers, pipeline stages and sources share.
pub type SharedConcurrentPool = Arc<ConcurrentPool>;

impl ConcurrentPool {
    /// Wraps `pool` with an ingest channel of capacity `ingest_cap`.
    /// Speculation configured on `pool` migrates to the coordinator: the
    /// lease table lives there, not behind the pending lock.
    pub fn new(pool: Mempool, ingest_cap: usize) -> SharedConcurrentPool {
        let mut pool = pool;
        let speculation = pool.speculation_chunk();
        // The inner pool's own lease machinery stays off — exclusions
        // are computed by the coordinator and passed into the drain core.
        pool.set_speculation(None);
        let (ingest_tx, ingest_rx) = channel::bounded(ingest_cap.max(1));
        Arc::new(ConcurrentPool {
            pending: Mutex::new(pool),
            coordinator: Mutex::new(LeaseCoordinator {
                speculation,
                leases: crate::LeaseTable::new(),
            }),
            ingest_tx,
            ingest_rx,
            ingest_dropped: Arc::new(AtomicU64::new(0)),
        })
    }

    /// A new send-only ingest handle (cloneable; hand one to every
    /// producer thread).
    pub fn ingest(&self) -> PoolIngest {
        PoolIngest {
            tx: self.ingest_tx.clone(),
            dropped: self.ingest_dropped.clone(),
        }
    }

    /// Ingest operations shed because the channel was full.
    pub fn ingest_dropped(&self) -> u64 {
        self.ingest_dropped.load(Ordering::Relaxed)
    }

    /// Applies every queued ingest operation to the pending queue and
    /// returns how many were applied. Called internally at each drain /
    /// observation point; exposed for drivers that want an explicit sync
    /// (e.g. before reading [`len`](Self::len) in a test).
    pub fn sync_ingest(&self) -> usize {
        let mut pool = self.pending.lock().expect("pending lock");
        Self::apply_ingest(&self.ingest_rx, &mut pool)
    }

    fn apply_ingest(rx: &channel::Receiver<IngestOp>, pool: &mut Mempool) -> usize {
        let mut applied = 0;
        for op in rx.try_iter() {
            match op {
                IngestOp::Push(req) => {
                    pool.push(req);
                }
                IngestOp::Forward(from, req) => pool.accept_from(from, req),
            }
            applied += 1;
        }
        applied
    }

    /// Records a lease for a block whose batch was already decoded and
    /// whose hash was already computed — the staged pipeline's verify
    /// workers do both outside any lock and call this, so the decode and
    /// the commitment walk are never repeated under the coordinator.
    /// No-op (returns `false`) when speculation is off or the batch is
    /// empty; idempotent per block like
    /// [`observe_proposal`](ReplicaPool::observe_proposal). `parent` links the
    /// lease for the eager certificate-conflict release.
    pub fn observe_decoded(
        &self,
        block: BlockHash,
        round: Round,
        parent: BlockHash,
        requests: Vec<Request>,
    ) -> bool {
        if requests.is_empty() {
            return false;
        }
        let mut coordinator = self.coordinator.lock().expect("coordinator lock");
        if coordinator.speculation.is_none() {
            return false;
        }
        coordinator.leases.observe_with_provenance(
            block,
            round,
            requests,
            crate::LeaseProvenance::Optimistic { parent },
        )
    }

    /// Fork abandonment (see [`Mempool::release`]): returns how many
    /// requests re-entered the pending queue.
    pub fn release(&self, block: BlockHash) -> usize {
        let Some(requests) = self
            .coordinator
            .lock()
            .expect("coordinator lock")
            .leases
            .remove(&block)
        else {
            return 0;
        };
        let mut pool = self.pending.lock().expect("pending lock");
        pool.reinsert_all(requests)
    }

    /// Number of live leases in the coordinator.
    pub fn live_leases(&self) -> usize {
        self.coordinator
            .lock()
            .expect("coordinator lock")
            .leases
            .len()
    }

    /// Live pending requests (after applying queued ingest).
    pub fn len(&self) -> usize {
        let mut pool = self.pending.lock().expect("pending lock");
        Self::apply_ingest(&self.ingest_rx, &mut pool);
        pool.len()
    }

    /// True when nothing is pending and nothing is queued for ingest.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Direct access to the pending pool (metrics, post-run inspection).
    /// Queued ingest is *not* applied; call
    /// [`sync_ingest`](Self::sync_ingest) first when it matters.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the lock panicked.
    pub fn pool(&self) -> MutexGuard<'_, Mempool> {
        self.pending.lock().expect("pending lock")
    }
}

/// The replica seam over the lock-split pool: each method takes only the
/// lock(s) it needs, in **coordinator → pending** order.
impl ReplicaPool for SharedConcurrentPool {
    /// Flushes queued gossip (applies queued ingest first, so freshly
    /// pushed requests go out without waiting for a drain point).
    fn flush(&self, emit: &mut impl FnMut(Outbound)) {
        let mut pool = self.pending.lock().expect("pending lock");
        ConcurrentPool::apply_ingest(&self.ingest_rx, &mut pool);
        pool.flush(emit);
    }

    /// Applies one inbound dissemination frame straight to the pending
    /// queue. Only the inline event loop gets here; the staged replica's
    /// verify workers feed [`PoolIngest::forward`], which lands in the
    /// same accept-and-relay rule.
    fn intake(&self, from: ReplicaId, msg: DisseminationMsg) {
        self.pending.lock().expect("pending lock").intake(from, msg);
    }

    /// Observes one block crossing the wire (see
    /// [`Mempool::observe_proposal`]): decodes and hashes outside any
    /// lock, then records the lease through
    /// [`observe_decoded`](ConcurrentPool::observe_decoded).
    fn observe_proposal(&self, block: &Block) -> bool {
        let chunk = {
            let coordinator = self.coordinator.lock().expect("coordinator lock");
            match coordinator.speculation {
                Some(chunk) => chunk,
                None => return false,
            }
        };
        let Some(batch) = WorkloadBatch::decode(&block.payload) else {
            return false;
        };
        self.observe_decoded(block.hash(chunk), block.round, block.parent, batch.requests)
    }

    /// Commit-side retirement (see [`Mempool::mark_committed_block`]):
    /// lease removal and release collection happen under the coordinator
    /// lock; tombstoning and re-pending under the pending lock — in that
    /// order, never interleaved the other way.
    fn mark_committed_block(&self, block: BlockHash, round: Round, requests: &[Request]) {
        let released = {
            let mut coordinator = self.coordinator.lock().expect("coordinator lock");
            // The committed block's own lease is fulfilled, not released.
            coordinator.leases.remove(&block);
            // Dead-fork children first (their losing parents' live leases
            // pin the parent rounds), then the round sweep; re-pend in
            // ascending round order to match `Mempool`.
            let conflicting = coordinator.leases.take_conflicting(round, &block);
            let mut released = coordinator.leases.take_at_or_below(round);
            released.extend(conflicting);
            released
        };
        let mut pool = self.pending.lock().expect("pending lock");
        ConcurrentPool::apply_ingest(&self.ingest_rx, &mut pool);
        for req in requests {
            pool.mark_committed(req.id);
        }
        for requests in released {
            pool.reinsert_all(requests);
        }
    }

    /// Drains the next batch: applies queued ingest, computes the
    /// ancestor-exclusion set under the coordinator lock, then runs the
    /// shared bounded-drain core under the pending lock.
    fn next_batch(
        &self,
        max_records: usize,
        max_bytes: u64,
        ctx: &ProposalContext,
        policy: &BatchPolicy,
    ) -> Vec<Request> {
        let excluded = {
            let coordinator = self.coordinator.lock().expect("coordinator lock");
            coordinator.leases.exclusions(&ctx.ancestors)
        };
        let mut pool = self.pending.lock().expect("pending lock");
        ConcurrentPool::apply_ingest(&self.ingest_rx, &mut pool);
        pool.drain_core(max_records, max_bytes, &excluded, policy, ctx.now)
    }
}

impl std::fmt::Debug for ConcurrentPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentPool")
            .field("ingest_queued", &self.ingest_rx.len())
            .field("ingest_dropped", &self.ingest_dropped())
            .finish_non_exhaustive()
    }
}

/// The [`PoolSource`] over a [`SharedConcurrentPool`] — the lock-split
/// counterpart of [`MempoolSource`](crate::MempoolSource), same bounds and
/// batch policy.
pub type ConcurrentMempoolSource = PoolSource<SharedConcurrentPool>;

#[cfg(test)]
mod tests {
    use super::*;
    use banyan_types::app::ProposalSource;
    use banyan_types::block::Block;
    use banyan_types::time::Time;

    fn req(id: u64, at: u64) -> Request {
        Request {
            id,
            client: (id % 7) as u16,
            size: 100,
            submitted_at: Time(at),
        }
    }

    fn hash(tag: u8) -> BlockHash {
        BlockHash([tag; 32])
    }

    #[test]
    fn ingest_is_applied_at_drain_points() {
        let pool = ConcurrentPool::new(Mempool::new(100), 64);
        let ingest = pool.ingest();
        assert!(ingest.push(req(1, 1)));
        assert!(ingest.forward(ReplicaId(1), req(2, 2)));
        // Nothing is in the pending queue until a sync point.
        assert_eq!(pool.pool().len(), 0);
        let out = pool.next_batch(
            10,
            u64::MAX,
            &ProposalContext::root(Round(1), Time(3)),
            &BatchPolicy::EAGER,
        );
        assert_eq!(out.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn full_ingest_channel_sheds_and_counts() {
        let pool = ConcurrentPool::new(Mempool::new(100), 2);
        let ingest = pool.ingest();
        assert!(ingest.push(req(1, 1)));
        assert!(ingest.push(req(2, 2)));
        assert!(!ingest.push(req(3, 3)), "third push exceeds cap 2");
        assert_eq!(pool.ingest_dropped(), 1);
        assert_eq!(pool.sync_ingest(), 2);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn coordinator_leases_steer_the_drain() {
        let pool = ConcurrentPool::new(Mempool::new(100).with_speculation(1024), 64);
        let ingest = pool.ingest();
        for id in 1..=4 {
            ingest.push(req(id, id));
        }
        pool.sync_ingest();
        // Lease {1,2} to an ancestor block via the coordinator.
        let batch = WorkloadBatch {
            requests: vec![req(1, 1), req(2, 2)],
        };
        use banyan_crypto::Signature;
        use banyan_types::ids::{Rank, ReplicaId};
        let block = Block {
            round: Round(3),
            proposer: ReplicaId(0),
            rank: Rank(0),
            parent: BlockHash::ZERO,
            proposed_at: Time(1),
            payload: batch.into_payload(),
            signature: Signature::zero(),
        };
        assert!(pool.observe_proposal(&block));
        assert_eq!(pool.live_leases(), 1);
        let ctx = ProposalContext {
            round: Round(4),
            now: Time(5),
            parent: block.hash(1024),
            ancestors: vec![block.hash(1024)],
        };
        let out = pool.next_batch(10, u64::MAX, &ctx, &BatchPolicy::EAGER);
        assert_eq!(
            out.iter().map(|r| r.id).collect::<Vec<_>>(),
            [3, 4],
            "ancestor-leased requests are skipped"
        );
        // Commit a competing block at the same round: the lease releases
        // {1,2} back into the pending queue.
        pool.mark_committed_block(hash(0xB), Round(3), &[req(9, 9)]);
        assert_eq!(pool.live_leases(), 0);
        let back = pool.next_batch(
            10,
            u64::MAX,
            &ProposalContext::root(Round(5), Time(6)),
            &BatchPolicy::EAGER,
        );
        assert_eq!(back.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn concurrent_source_drains_batches() {
        let pool = ConcurrentPool::new(Mempool::new(100), 64);
        let ingest = pool.ingest();
        for id in 1..=5 {
            ingest.push(req(id, id));
        }
        let mut src = ConcurrentMempoolSource::new(pool, 3);
        let payload = src.next_payload(&ProposalContext::root(Round(1), Time(9)));
        let batch = WorkloadBatch::decode(&payload).expect("batch payload");
        assert_eq!(
            batch.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            [1, 2, 3]
        );
    }

    #[test]
    fn release_reinserts_through_the_pending_lock() {
        let pool = ConcurrentPool::new(Mempool::new(100).with_speculation(1024), 64);
        let mut coordinator = pool.coordinator.lock().unwrap();
        coordinator
            .leases
            .observe(hash(0xA), Round(2), vec![req(7, 7), req(8, 8)]);
        drop(coordinator);
        assert_eq!(pool.release(hash(0xA)), 2);
        assert_eq!(pool.release(hash(0xA)), 0, "idempotent");
        assert_eq!(pool.len(), 2);
    }
}
