//! The concurrent pool: a bounded, send-only ingest channel in front of
//! the one [`Mempool`] mutex.
//!
//! [`SharedMempool`](crate::SharedMempool) serializes *every* operation —
//! client push, gossip accept, lease bookkeeping, drain — on one mutex.
//! [`ConcurrentPool`] is the same [`Mempool`] behind the same kind of
//! mutex and takes exactly one kind of work off it: **client ingest**.
//! Pushes go through a bounded MPMC channel (`crossbeam::channel`); the
//! hot path is a single `try_send` by a cloneable [`PoolIngest`] handle —
//! no lock, no waiting, from any number of client threads at once.
//! Whichever thread next takes the pool lock, for any operation, first
//! applies everything queued, in channel order — so an operation never
//! overtakes ingest queued before it. A full channel sheds the request
//! (counted in [`ingest_dropped`](ConcurrentPool::ingest_dropped)) —
//! clients retry, so a shed ingest is a delayed request, never a lost
//! one, exactly like a gossip-outbox drop.
//!
//! Everything else — gossip intake, leases, retirement, drains, flush — is
//! [`Mempool`]'s, reached through [`ReplicaPool`] by the replica loop
//! exactly as on a [`SharedMempool`](crate::SharedMempool).
//!
//! Determinism note: the simulator keeps using the plain
//! [`SharedMempool`](crate::SharedMempool) — its whole point is a single
//! deterministic event order. `ConcurrentPool` is for a TCP replica whose
//! clients push from threads of their own, where the channel hand-off
//! trades a bounded reordering window (ingest lands at the next lock) for
//! lock-free submission.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crossbeam::channel;

use crate::{ArrivalHook, Mempool, PoolSource, ReplicaPool, Request};

/// Default bound on the ingest channel (queued pushes).
pub const DEFAULT_INGEST_CAP: usize = 65_536;

/// The cloneable, send-only ingest handle: what client threads hold. A
/// send is one `try_send` on the bounded MPMC channel — the caller never
/// touches the pool lock.
#[derive(Clone)]
pub struct PoolIngest {
    tx: channel::Sender<Request>,
    dropped: Arc<AtomicU64>,
    arrival: Arc<Mutex<Option<ArrivalHook>>>,
}

impl PoolIngest {
    /// Queues a locally submitted request ([`Mempool::push`] semantics:
    /// gossips if the pool gossips) and calls the pool's
    /// [arrival hook](ReplicaPool::set_arrival_hook), if one is installed.
    /// Returns `false` (and counts a drop) when the ingest channel is full
    /// or closed.
    pub fn push(&self, req: Request) -> bool {
        match self.tx.try_send(req) {
            Ok(()) => {
                if let Some(hook) = &*self.arrival.lock().expect("arrival hook lock") {
                    hook.call();
                }
                true
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }
}

/// A [`Mempool`] behind its lock, fed by a bounded MPMC ingest channel.
/// See the module docs.
pub struct ConcurrentPool {
    pending: Mutex<Mempool>,
    ingest_tx: channel::Sender<Request>,
    ingest_rx: channel::Receiver<Request>,
    ingest_dropped: Arc<AtomicU64>,
    /// The hook every [`PoolIngest`] calls, shared with all of them, so
    /// one installed after they were handed out still reaches them.
    arrival: Arc<Mutex<Option<ArrivalHook>>>,
}

/// The `Arc` handle drivers, sources and client threads share.
pub type SharedConcurrentPool = Arc<ConcurrentPool>;

impl ConcurrentPool {
    /// Wraps `pool`, as built, with an ingest channel of capacity
    /// `ingest_cap`.
    pub fn new(pool: Mempool, ingest_cap: usize) -> SharedConcurrentPool {
        let (ingest_tx, ingest_rx) = channel::bounded(ingest_cap.max(1));
        Arc::new(ConcurrentPool {
            pending: Mutex::new(pool),
            ingest_tx,
            ingest_rx,
            ingest_dropped: Arc::new(AtomicU64::new(0)),
            arrival: Arc::default(),
        })
    }

    /// A new send-only ingest handle (cloneable; hand one to every
    /// producer thread).
    pub fn ingest(&self) -> PoolIngest {
        PoolIngest {
            tx: self.ingest_tx.clone(),
            dropped: self.ingest_dropped.clone(),
            arrival: self.arrival.clone(),
        }
    }

    /// Ingest operations shed because the channel was full.
    pub fn ingest_dropped(&self) -> u64 {
        self.ingest_dropped.load(Ordering::Relaxed)
    }

    /// Applies every queued ingest operation to the pool and returns how
    /// many were applied. Every [`ReplicaPool`] operation does this
    /// first; exposed for callers that read the pool through
    /// [`pool`](Self::pool) (metrics, tests).
    pub fn sync_ingest(&self) -> usize {
        self.apply_ingest(&mut self.pool())
    }

    fn apply_ingest(&self, pool: &mut Mempool) -> usize {
        let mut applied = 0;
        for req in self.ingest_rx.try_iter() {
            pool.push(req);
            applied += 1;
        }
        applied
    }

    /// The pool lock, taken with every queued ingest operation applied.
    fn synced(&self) -> MutexGuard<'_, Mempool> {
        let mut pool = self.pool();
        self.apply_ingest(&mut pool);
        pool
    }

    /// Live pending requests (after applying queued ingest).
    pub fn len(&self) -> usize {
        self.synced().len()
    }

    /// True when nothing is pending and nothing is queued for ingest.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Direct access to the pool (metrics, post-run inspection).
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

impl ReplicaPool for SharedConcurrentPool {
    fn with_pool<R>(&self, f: impl FnOnce(&mut Mempool) -> R) -> R {
        f(&mut self.synced())
    }

    /// Installs the hook on the ingest handles, where clients push: the
    /// pool's own [`Mempool::push`] then only applies what they queued.
    fn set_arrival_hook(&self, hook: ArrivalHook) {
        *self.arrival.lock().expect("arrival hook lock") = Some(hook);
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

/// The [`PoolSource`] over a [`SharedConcurrentPool`] — the
/// channel-fronted counterpart of [`MempoolSource`](crate::MempoolSource),
/// same bounds and batch policy.
pub type ConcurrentMempoolSource = PoolSource<SharedConcurrentPool>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchPolicy, WorkloadBatch};
    use banyan_types::app::{ProposalContext, ProposalSource};
    use banyan_types::block::Block;
    use banyan_types::ids::{BlockHash, Round};
    use banyan_types::payload::PAYLOAD_CHUNK;
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

    /// The hook installed on the pool reaches ingest handles handed out
    /// before it, and is called once per queued push; applying the ingest
    /// calls nothing more.
    #[test]
    fn ingest_pushes_call_a_hook_installed_later() {
        let pool = ConcurrentPool::new(Mempool::new(100), 64);
        let ingest = pool.ingest();
        assert!(ingest.push(req(1, 1)));
        let (hook, calls) = crate::tests::counting_hook();
        pool.set_arrival_hook(hook);
        assert!(ingest.push(req(2, 2)));
        assert_eq!(pool.len(), 2);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn ingest_is_applied_at_drain_points() {
        let pool = ConcurrentPool::new(Mempool::new(100), 64);
        let ingest = pool.ingest();
        assert!(ingest.push(req(1, 1)));
        assert!(ingest.push(req(2, 2)));
        // Nothing is in the pending queue until a sync point.
        assert_eq!(pool.pool().len(), 0);
        let ctx = ProposalContext::root(Round(1), Time(3));
        let out = pool.with_pool(|p| p.drain_speculative(10, u64::MAX, &ctx, &BatchPolicy::EAGER));
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
        let pool = ConcurrentPool::new(Mempool::new(100), 64);
        let ingest = pool.ingest();
        for id in 1..=4 {
            ingest.push(req(id, id));
        }
        pool.sync_ingest();
        // Lease {1,2} to an ancestor block.
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
        assert!(pool.with_pool(|pool| pool.observe_proposal(&block)));
        assert_eq!(pool.pool().live_leases(), 1);
        let ctx = ProposalContext {
            round: Round(4),
            now: Time(5),
            parent: block.hash(PAYLOAD_CHUNK),
            ancestors: vec![block.hash(PAYLOAD_CHUNK)],
        };
        let out = pool.with_pool(|p| p.drain_speculative(10, u64::MAX, &ctx, &BatchPolicy::EAGER));
        assert_eq!(
            out.iter().map(|r| r.id).collect::<Vec<_>>(),
            [3, 4],
            "ancestor-leased requests are skipped"
        );
        // Commit a competing block at the same round: the lease releases
        // {1,2} back into the pending queue.
        pool.with_pool(|pool| pool.mark_committed_block(hash(0xB), Round(3), &[req(9, 9)]));
        assert_eq!(pool.pool().live_leases(), 0);
        let ctx = ProposalContext::root(Round(5), Time(6));
        let back = pool.with_pool(|p| p.drain_speculative(10, u64::MAX, &ctx, &BatchPolicy::EAGER));
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
}
