//! The request-dissemination layer: shared mempools, batch encoding,
//! pending-request gossip, exactly-once commit dedup and the
//! **ancestor-aware drain** (leases + latency-targeted batching).
//!
//! Banyan's latency claims assume client requests reach the *current*
//! leader promptly, but a request submitted to one replica's FIFO would
//! otherwise sit there until that replica happens to lead — and a request
//! batched into a proposal that never finalizes would be silently lost.
//! This crate owns everything between a client submission and an engine's
//! `next_payload` pull:
//!
//! * [`Mempool`] — a deterministic FIFO of pending [`Request`]s with
//!   capacity eviction, duplicate-id rejection, an optional bounded
//!   **gossip outbox** and **committed-id tracking** (the exactly-once
//!   dedup rule below);
//! * [`SharedMempool`] — the `Arc<Mutex<_>>` handle the driver and the
//!   engine's [`MempoolSource`] share;
//! * [`MempoolSource`] — a [`ProposalSource`] that drains the pool into
//!   one [`WorkloadBatch`] payload per proposal, bounded by a record cap
//!   and a nominal-byte cap, steered by a [`ProposalContext`] and an
//!   optional [`BatchPolicy`] (defer until a byte or age target);
//! * [`WorkloadBatch`] — the self-identifying wire encoding of a batch.
//!
//! # Leases and the ancestor-aware drain
//!
//! A leader proposes on a parent that is not yet finalized, and with
//! gossip every pool holds a copy of (nearly) every pending request, so a
//! drain blind to the chain would re-batch everything the proposal's
//! *uncommitted ancestors* already carry. Every pool therefore leases:
//!
//! * [`Mempool::observe_proposal`] decodes the [`WorkloadBatch`] of every
//!   block the replica sends or receives first-hand (from its proposer,
//!   or in a sync reply: `Message::first_hand_blocks`) into a **lease**,
//!   `block id → the requests it carries`. A relayed copy is neither
//!   decoded nor hashed; the proposer's copy leases the block, and so
//!   does this replica relaying it on;
//! * [`Mempool::drain_speculative`] skips every request leased to a
//!   **live ancestor** of the block being proposed
//!   (`ProposalContext::ancestors`), leaving the pending copy in place
//!   for a fork that might still need it;
//! * [`Mempool::mark_committed_block`] retires the committed block's
//!   lease and **releases** every lease at or below its round: those
//!   blocks lost, and their requests re-pend with their original id and
//!   submit timestamp.
//!
//! A pool's shape is stated once, where it is built: `Mempool::new(cap)`
//! then [`with_gossip`](Mempool::with_gossip) or
//! [`with_peer_queues`](Mempool::with_peer_queues).
//!
//! The gossip traffic travels as
//! [`banyan_types::message::DisseminationMsg`] frames that the pool
//! writes and reads itself; engines never see it (they just pull
//! `next_payload`).
//!
//! # What a driver does with a pool
//!
//! Four operations, written once over [`Mempool`] and reached through
//! [`ReplicaPool`] by both pool handles and both drivers: **flush**
//! ([`Mempool::flush`]: the frames the pool's shape sends), **intake**
//! ([`Mempool::intake`]), **lease observation**
//! ([`ReplicaPool::observe_outbound`] / [`ReplicaPool::observe_inbound`])
//! and **commit retirement** ([`ReplicaPool::retire`]). A handle is a lock
//! around the one [`Mempool`]: [`SharedMempool`] is the bare mutex,
//! [`SharedConcurrentPool`] the same mutex behind a bounded ingest
//! channel that is emptied into the pool before every operation.
//!
//! # The exactly-once dedup rule
//!
//! A request id commits **exactly once** at the delivery layer even when
//! gossip, submit fan-out or client retries put copies of it in several
//! pools:
//!
//! 1. every driver, on observing a commit, calls
//!    [`ReplicaPool::retire`] on *its own* replica's pool, which decodes
//!    the committed batch once and runs
//!    [`Mempool::mark_committed_block`] over it — purging still-pending
//!    copies cluster-wide within one commit round, rejecting any later
//!    push/forward/retry of the ids, and retiring or releasing leases;
//! 2. copies already drained into in-flight proposals can still land in a
//!    second committed block (the pool cannot recall them); the metrics
//!    and `App`-delivery layers therefore dedup by id — the first
//!    committed occurrence wins, later ones are counted as *suppressed
//!    duplicates*, never delivered or measured twice.
//!
//! Everything is a deterministic function of inputs: replays of a seeded
//! run reproduce the same pools, batches and forwards bit-for-bit.

#![warn(missing_docs)]

mod concurrent;
mod lease;

pub use concurrent::{
    ConcurrentMempoolSource, ConcurrentPool, PoolIngest, SharedConcurrentPool, DEFAULT_INGEST_CAP,
};

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};

use banyan_types::app::{ProposalContext, ProposalSource};
use banyan_types::block::Block;
use banyan_types::codec::{Reader, Wire, Writer, MAX_LEN};
use banyan_types::engine::{CommitEntry, Outbound};
use banyan_types::ids::{BlockHash, ReplicaId, Round};
use banyan_types::message::{DisseminationMsg, Message};
use banyan_types::payload::{Payload, PAYLOAD_CHUNK};
use banyan_types::time::{Duration, Time};

pub use banyan_types::message::PendingRequest as Request;

use lease::LeaseTable;

/// Magic prefix identifying a [`WorkloadBatch`] payload.
const BATCH_MAGIC: &[u8; 8] = b"BanyanWB";

/// The largest request a pool takes in: a one-record [`WorkloadBatch`]
/// of it still fits the length prefix a peer's decoder accepts. A bigger
/// `size` can only be forged, and batching it would size a buffer from
/// that hostile field.
const MAX_REQUEST_SIZE: u64 = (MAX_LEN - (BATCH_MAGIC.len() + 4 + WorkloadBatch::RECORD)) as u64;

/// Default mempool capacity (pending requests per replica).
pub const DEFAULT_MEMPOOL_CAPACITY: usize = 65_536;

/// Default maximum requests drained into one block.
pub const DEFAULT_MAX_BATCH: usize = 4_096;

/// Default maximum *nominal bytes* drained into one block (2 MB — twice
/// the largest block size the paper evaluates), so large requests cannot
/// inflate a single batch to gigabytes regardless of the record cap.
pub const DEFAULT_MAX_BATCH_BYTES: u64 = 2_000_000;

/// Default bound on the gossip outbox (requests queued for forwarding).
/// A replica whose driver cannot flush (e.g. one side of a long
/// partition) drops the *oldest* queued forwards past this cap instead of
/// growing without limit; drops are counted in
/// [`Mempool::forward_dropped`]. Clients retry, so a dropped forward is a
/// delayed request, never a lost one.
pub const DEFAULT_OUTBOX_CAP: usize = 16_384;

/// Default bound on each **per-peer** relay queue (propagation-limited
/// gossip). Past it the oldest queued entry for that peer is shed and
/// counted in [`Mempool::peer_sheds`] — a slow or partitioned peer sheds
/// its own queue, never the pool's other queues.
pub const DEFAULT_PEER_QUEUE_CAP: usize = 4_096;

/// Most entries one [`flush`](Mempool::flush) takes from one peer queue;
/// the rest wait for the next flush.
const DEFAULT_PEER_TAKE: usize = 512;

/// What a pool calls when a request arrives from a client: the wake-up of
/// a driver that parks while its pool is idle. A rank-0 leader whose
/// gossiping pool is empty holds its proposal (`banyan_runtime::driver`'s
/// idle hold), so a parked TCP loop must learn of the first request at
/// once. Installed
/// with [`ReplicaPool::set_arrival_hook`]; [`Mempool::push`] calls it when
/// it takes a request into an empty pool, [`PoolIngest::push`] (which
/// cannot see the pool) on every request it queues. A busy pool's
/// driver is not parked for long, and a hook call per push would cost a
/// saturated one a wake-up per request. It runs on the client's thread —
/// under the pool's lock for `Mempool::push` — so it must be cheap and
/// must not touch the pool.
#[derive(Clone)]
pub struct ArrivalHook(Arc<dyn Fn() + Send + Sync>);

impl ArrivalHook {
    /// A hook calling `wake`.
    pub fn new(wake: impl Fn() + Send + Sync + 'static) -> Self {
        ArrivalHook(Arc::new(wake))
    }

    /// Calls the hook.
    pub fn call(&self) {
        (self.0)()
    }
}

impl std::fmt::Debug for ArrivalHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ArrivalHook")
    }
}

/// Latency-targeted batching policy: when may a leader return an *empty*
/// payload instead of draining the pool?
///
/// A leader holding only a trickle of requests wastes a block (and its
/// fixed consensus cost) on a near-empty batch. Under this policy the
/// [`MempoolSource`] defers — proposes an empty payload, leaving the
/// requests pending for a later leader — until the **eligible** backlog
/// (pending requests not leased to a live ancestor) reaches `min_bytes`
/// of nominal size, *or* its oldest eligible request has waited
/// `max_age` since first submission. The age escape hatch bounds the
/// extra latency a deferral can ever add.
///
/// [`BatchPolicy::EAGER`] (the default, `min_bytes = 0`) never defers and
/// reproduces the historical drain-every-proposal behavior bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Build a batch once the eligible backlog reaches this many nominal
    /// bytes (0 = always build).
    pub min_bytes: u64,
    /// …or once the oldest eligible request has waited this long since
    /// its first submission, whichever comes first.
    pub max_age: Duration,
}

impl BatchPolicy {
    /// Drain on every proposal (the historical behavior).
    pub const EAGER: BatchPolicy = BatchPolicy {
        min_bytes: 0,
        max_age: Duration::ZERO,
    };

    /// A policy targeting `min_bytes` per batch, deferring at most
    /// `max_age` past a request's first submission.
    pub fn target(min_bytes: u64, max_age: Duration) -> Self {
        BatchPolicy { min_bytes, max_age }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::EAGER
    }
}

/// Outcome of a [`Mempool::push`] (or [`Mempool::accept_forwarded`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// Accepted; nothing evicted.
    Accepted,
    /// Accepted, and the oldest pending request was evicted to make room.
    AcceptedEvicting(u64),
    /// Rejected: a request with the same id is already pending.
    Duplicate,
    /// Rejected: a request with this id was already observed committed
    /// (the exactly-once dedup rule; see the crate docs).
    Committed,
    /// Rejected: the request is too large for any batch a peer could
    /// decode.
    Oversized,
}

/// A deterministic FIFO mempool with bounded capacity, an optional gossip
/// outbox and committed-id tracking.
///
/// Requests are served strictly in submission order. A request whose id is
/// already pending is rejected ([`PushOutcome::Duplicate`]); one whose id
/// was already [marked committed](Self::mark_committed) is rejected
/// forever ([`PushOutcome::Committed`]). When the pool is full, pushing a
/// new request evicts the *oldest* pending one (clients keep the freshest
/// work).
///
/// Committed-id purging is lazy: [`mark_committed`](Self::mark_committed)
/// removes the id from the pending set in O(1) and leaves a tombstone in
/// the FIFO, which drains skip — so commit-time dedup stays cheap even
/// for large pools. [`len`](Self::len) counts live (non-tombstone)
/// requests only.
#[derive(Debug)]
pub struct Mempool {
    capacity: usize,
    /// The pending FIFO, in acceptance order. An entry is live while its
    /// id is in `pending`; the rest are tombstones drains discard.
    queue: VecDeque<Request>,
    /// Live id → nominal size, so tombstoning
    /// ([`mark_committed`](Self::mark_committed), which only knows the
    /// id) keeps `pending_bytes` exact in O(1).
    pending: HashMap<u64, u64>,
    /// Nominal bytes of the live requests.
    pending_bytes: u64,
    /// Ids observed committed; never accepted again.
    committed_ids: HashSet<u64>,
    /// When true, locally pushed requests are queued for gossip.
    gossip: bool,
    /// Locally submitted requests awaiting a driver's forward broadcast.
    outbox: VecDeque<Request>,
    /// Outbox bound: past it the oldest queued forward is dropped.
    outbox_cap: usize,
    /// Per-peer relay queues (propagation-limited gossip). Empty =
    /// broadcast mode (the shared outbox above). Non-empty diverts every
    /// gossiped request into one bounded queue per fanout peer.
    peer_queues: Vec<PeerQueue>,
    /// Bound on each per-peer queue (drop-oldest past it).
    peer_queue_cap: usize,
    /// Most entries one flush takes from one peer queue.
    peer_take: usize,
    /// Entries shed by per-peer queue bounds so far (all peers).
    peer_sheds: u64,
    /// Live leases: `block → the requests it carries`.
    leases: LeaseTable,
    /// Called when a [`push`](Self::push) makes an empty pool busy.
    arrival: Option<ArrivalHook>,
    accepted: u64,
    evicted: u64,
    duplicates: u64,
    forwarded_in: u64,
    rejected_committed: u64,
    forward_dropped: u64,
    released: u64,
    deferred: u64,
}

/// One peer's bounded outbound relay queue (propagation-limited gossip).
/// Entries are `(request, relay)`: `relay = false` for locally pushed
/// requests (first hop, shipped as `Forward` with bodies), `true` for
/// requests accepted from a peer and relayed onward (shipped as the
/// compact `Announce`).
#[derive(Debug)]
struct PeerQueue {
    /// The peer's replica index.
    peer: usize,
    queue: VecDeque<(Request, bool)>,
}

impl PeerQueue {
    /// Appends an entry, shedding the oldest past `cap`. Returns `true`
    /// when an entry was shed.
    fn enqueue(&mut self, entry: (Request, bool), cap: usize) -> bool {
        self.queue.push_back(entry);
        if self.queue.len() > cap {
            self.queue.pop_front();
            return true;
        }
        false
    }
}

impl Mempool {
    /// An empty mempool holding at most `capacity` pending requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "mempool capacity must be positive");
        Mempool {
            capacity,
            queue: VecDeque::new(),
            pending: HashMap::new(),
            pending_bytes: 0,
            committed_ids: HashSet::new(),
            gossip: false,
            outbox: VecDeque::new(),
            outbox_cap: DEFAULT_OUTBOX_CAP,
            peer_queues: Vec::new(),
            peer_queue_cap: DEFAULT_PEER_QUEUE_CAP,
            peer_take: DEFAULT_PEER_TAKE,
            peer_sheds: 0,
            leases: LeaseTable::new(),
            arrival: None,
            accepted: 0,
            evicted: 0,
            duplicates: 0,
            forwarded_in: 0,
            rejected_committed: 0,
            forward_dropped: 0,
            released: 0,
            deferred: 0,
        }
    }

    /// Builder-style: enables (or disables) the gossip outbox. When
    /// enabled, every locally [`push`](Self::push)ed request is also
    /// queued for the next [`flush`](Self::flush) to forward to peers.
    pub fn with_gossip(mut self, on: bool) -> Self {
        self.set_gossip(on);
        self
    }

    /// Enables (or disables) the gossip outbox in place — the
    /// shared-handle counterpart of [`with_gossip`](Self::with_gossip).
    pub fn set_gossip(&mut self, on: bool) {
        self.gossip = on;
    }

    /// Builder-style: switches gossip into **propagation-limited** mode:
    /// one bounded ([`DEFAULT_PEER_QUEUE_CAP`]) relay queue per fanout
    /// peer (`peers` are replica indices — typically
    /// `Topology::fanout_peers`), of which one [`flush`](Self::flush)
    /// takes at most 512 entries. Locally
    /// pushed requests go to every peer queue instead of the shared
    /// outbox, and [`intake`](Self::intake) relays first-time peer
    /// acceptances onward. Implies gossip.
    ///
    /// # Panics
    ///
    /// Panics if `peers` is empty.
    pub fn with_peer_queues(mut self, peers: &[usize]) -> Self {
        assert!(!peers.is_empty(), "at least one fanout peer");
        self.gossip = true;
        self.peer_queues = peers
            .iter()
            .map(|&peer| PeerQueue {
                peer,
                queue: VecDeque::new(),
            })
            .collect();
        self
    }

    /// A new mempool behind the `Arc<Mutex<_>>` the driver and the
    /// engine's [`MempoolSource`] share.
    pub fn shared(capacity: usize) -> SharedMempool {
        Arc::new(Mutex::new(Mempool::new(capacity)))
    }

    /// Like [`shared`](Self::shared), with the gossip outbox enabled.
    pub fn shared_gossiping(capacity: usize) -> SharedMempool {
        Arc::new(Mutex::new(Mempool::new(capacity).with_gossip(true)))
    }

    /// True when the gossip outbox is enabled.
    pub fn gossip_enabled(&self) -> bool {
        self.gossip
    }

    /// Installs the hook a [`push`](Self::push) into an empty pool calls,
    /// replacing any earlier one.
    pub fn set_arrival_hook(&mut self, hook: ArrivalHook) {
        self.arrival = Some(hook);
    }

    /// Submits one locally received request. FIFO position is acquisition
    /// order; with gossip enabled, an accepted request is also queued for
    /// forwarding. A request accepted into an empty pool calls the
    /// [arrival hook](Self::set_arrival_hook), if one is installed.
    pub fn push(&mut self, req: Request) -> PushOutcome {
        let was_idle = self.is_empty();
        let outcome = self.insert(req);
        let accepted = matches!(
            outcome,
            PushOutcome::Accepted | PushOutcome::AcceptedEvicting(_)
        );
        if accepted && was_idle {
            if let Some(hook) = &self.arrival {
                hook.call();
            }
        }
        if self.gossip && accepted {
            if !self.peer_queues.is_empty() {
                // Propagation-limited mode: first hop goes to each fanout
                // peer's own queue (bodies, shipped as `Forward`). A full
                // queue sheds only itself.
                let cap = self.peer_queue_cap;
                for pq in &mut self.peer_queues {
                    if pq.enqueue((req, false), cap) {
                        self.peer_sheds += 1;
                    }
                }
            } else {
                self.outbox.push_back(req);
                // Bounded outbox: a replica whose driver cannot flush
                // (e.g. one side of a partition) sheds the oldest queued
                // forwards rather than growing without limit.
                if self.outbox.len() > self.outbox_cap {
                    self.outbox.pop_front();
                    self.forward_dropped += 1;
                }
            }
        }
        outcome
    }

    /// Accepts a request forwarded by a peer's gossip. Identical to
    /// [`push`](Self::push) except the request is **not** re-queued for
    /// gossip (dissemination is one round — forwards never cascade).
    pub fn accept_forwarded(&mut self, req: Request) -> PushOutcome {
        let outcome = self.insert(req);
        if matches!(
            outcome,
            PushOutcome::Accepted | PushOutcome::AcceptedEvicting(_)
        ) {
            self.forwarded_in += 1;
        }
        outcome
    }

    fn insert(&mut self, req: Request) -> PushOutcome {
        if req.size > MAX_REQUEST_SIZE {
            return PushOutcome::Oversized;
        }
        if self.committed_ids.contains(&req.id) {
            self.rejected_committed += 1;
            return PushOutcome::Committed;
        }
        if self.pending.contains_key(&req.id) {
            self.duplicates += 1;
            return PushOutcome::Duplicate;
        }
        self.pending.insert(req.id, req.size);
        self.pending_bytes = self.pending_bytes.saturating_add(req.size);
        self.queue.push_back(req);
        self.accepted += 1;
        if self.len() > self.capacity {
            let oldest = self.pop_live().expect("over capacity implies a live entry");
            self.evicted += 1;
            return PushOutcome::AcceptedEvicting(oldest.id);
        }
        PushOutcome::Accepted
    }

    /// Pops the oldest *live* (non-tombstone) request, discarding any
    /// leading tombstones left by [`mark_committed`](Self::mark_committed).
    fn pop_live(&mut self) -> Option<Request> {
        while let Some(req) = self.queue.pop_front() {
            if let Some(size) = self.pending.remove(&req.id) {
                self.pending_bytes = self.pending_bytes.saturating_sub(size);
                return Some(req);
            }
        }
        None
    }

    /// Records that `id` was observed committed: any pending copy becomes
    /// a tombstone (skipped by future drains) and every later push,
    /// forward or retry of the id is rejected with
    /// [`PushOutcome::Committed`]. Returns `true` the first time the id is
    /// marked.
    pub fn mark_committed(&mut self, id: u64) -> bool {
        if !self.committed_ids.insert(id) {
            return false;
        }
        if let Some(size) = self.pending.remove(&id) {
            self.pending_bytes = self.pending_bytes.saturating_sub(size);
        }
        true
    }

    /// True if `id` was ever [marked committed](Self::mark_committed).
    pub fn is_committed(&self, id: u64) -> bool {
        self.committed_ids.contains(&id)
    }

    // ------------------------------------------------------------------
    // Leases
    // ------------------------------------------------------------------

    /// Driver hook: observes one block crossing the wire (one this
    /// replica sends, or one that arrived first-hand). If the block
    /// carries a [`WorkloadBatch`], its requests are recorded as a
    /// **lease** keyed by the block's id (hashed at [`PAYLOAD_CHUNK`]),
    /// feeding the exclusion set of
    /// [`drain_speculative`](Self::drain_speculative) and the release
    /// machinery of [`mark_committed_block`](Self::mark_committed_block).
    /// Idempotent per block; returns `true` when a new lease was recorded.
    ///
    /// This is the layer that decodes ancestor payloads — engines only
    /// ever hand block *ids* to the pool (via `ProposalContext`), so they
    /// stay pure.
    pub fn observe_proposal(&mut self, block: &Block) -> bool {
        let Some(batch) = WorkloadBatch::decode(&block.payload) else {
            return false;
        };
        let hash = block.hash(PAYLOAD_CHUNK);
        self.observe_block(hash, block.round, block.parent, batch.requests)
    }

    /// The one lease-observe entry: `block` (of `round`, extending
    /// `parent`) carries `requests`. The decoded form of
    /// [`observe_proposal`](Self::observe_proposal), for callers that
    /// already hold the batch and the block id (tests, lease models). The
    /// parent is what enables the eager
    /// certificate-conflict release of
    /// [`mark_committed_block`](Self::mark_committed_block); a parent
    /// nobody leased (genesis included) never triggers it. Idempotent per
    /// block id; returns `true` when newly recorded.
    pub fn observe_block(
        &mut self,
        block: BlockHash,
        round: Round,
        parent: BlockHash,
        requests: Vec<Request>,
    ) -> bool {
        self.leases.observe(block, round, parent, requests)
    }

    /// Commit-side lease retirement: marks every request of the committed
    /// `block` [committed](Self::mark_committed), drops its lease, and
    /// **releases** every remaining lease at or below `round` — those
    /// blocks lost the fork (or their round was skipped past), so their
    /// requests can never commit through them and re-enter the pending
    /// queue with their original id and submit timestamp.
    ///
    /// It also releases **eagerly on certificate-conflict**: a round-
    /// `round + 1` lease whose parent is a leased round-≤-`round` block
    /// other than `block` extends a fork this commit just killed, yet
    /// sits *above* the release horizon — without the eager sweep its
    /// requests would strand until the next commit (the fork-abandonment
    /// blind spot).
    pub fn mark_committed_block(&mut self, block: BlockHash, round: Round, requests: &[Request]) {
        for req in requests {
            self.mark_committed(req.id);
        }
        // The committed block's own lease is fulfilled, not released.
        self.leases.remove(&block);
        // Collect dead-fork children *before* the round sweep releases
        // the losing parents whose live leases pin their rounds, but
        // reinsert after it so requests re-pend in ascending round order.
        let conflicting = self.leases.take_conflicting(round, &block);
        self.release_below(round);
        for requests in conflicting {
            self.reinsert_all(requests);
        }
    }

    /// Fork abandonment / round skip: drops `block`'s lease and returns
    /// its not-yet-committed requests to the pending queue (original id
    /// and timestamp; duplicates of still-pending copies are skipped, and
    /// released requests are **not** re-gossiped — every peer that needed
    /// a copy got one when the request first entered). Returns how many
    /// requests re-entered the queue.
    pub fn release(&mut self, block: BlockHash) -> usize {
        match self.leases.remove(&block) {
            Some(requests) => self.reinsert_all(requests),
            None => 0,
        }
    }

    /// Releases every lease whose round is ≤ `round` (they can no longer
    /// commit once a round-`round` block has), in deterministic
    /// (round, block-id) order.
    fn release_below(&mut self, round: Round) {
        for requests in self.leases.take_at_or_below(round) {
            self.reinsert_all(requests);
        }
    }

    /// Re-pends released requests: committed ids and ids already pending
    /// are skipped; the rest append in their original batch order.
    fn reinsert_all(&mut self, requests: Vec<Request>) -> usize {
        let mut reinserted = 0;
        for req in requests {
            if matches!(
                self.insert(req),
                PushOutcome::Accepted | PushOutcome::AcceptedEvicting(_)
            ) {
                reinserted += 1;
                self.released += 1;
            }
        }
        reinserted
    }

    /// Number of live (unretired) leases.
    pub fn live_leases(&self) -> usize {
        self.leases.len()
    }

    /// The leased requests of `block`, if a live lease exists (tests,
    /// diagnostics).
    pub fn lease(&self, block: &BlockHash) -> Option<&[Request]> {
        self.leases.get(block)
    }

    /// Drains the gossip outbox: the locally pushed requests
    /// [`flush`](Self::flush) forwards to peers, oldest first. Requests
    /// already observed committed in the meantime are dropped rather than
    /// forwarded.
    fn take_outbox(&mut self) -> Vec<Request> {
        self.outbox
            .drain(..)
            .filter(|r| !self.committed_ids.contains(&r.id))
            .collect()
    }

    /// Queues `req` for relay to every configured fanout peer except
    /// `exclude` (the peer it arrived from — relaying a forward straight
    /// back wastes an edge). [`intake`](Self::intake) calls this
    /// when [`accept_forwarded`](Self::accept_forwarded) reports a *first*
    /// acceptance; duplicate arrivals are never relayed, which is what
    /// terminates the cascade. Entries ship as the compact `Announce`.
    /// No-op in broadcast mode.
    fn queue_relay(&mut self, req: Request, exclude: usize) {
        let cap = self.peer_queue_cap;
        let mut sheds = 0;
        for pq in &mut self.peer_queues {
            if pq.peer == exclude {
                continue;
            }
            if pq.enqueue((req, true), cap) {
                sheds += 1;
            }
        }
        self.peer_sheds += sheds;
    }

    /// Drains up to `peer_take` entries of `peer`'s relay queue, oldest
    /// first. Each entry is `(request, relay)` — `relay = false` first-hop
    /// bodies (`Forward`), `true` onward relays (`Announce`). Requests
    /// observed committed in the meantime are discarded and do not count
    /// against the bound. Returns empty for unknown peers or an empty
    /// queue; what the bound leaves waits for the next take, and the queue
    /// keeps filling until it sheds its own oldest entries.
    fn take_peer_outbox(&mut self, peer: usize) -> Vec<(Request, bool)> {
        let Some(pq) = self.peer_queues.iter_mut().find(|q| q.peer == peer) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while out.len() < self.peer_take {
            let Some((req, relay)) = pq.queue.pop_front() else {
                break;
            };
            if !self.committed_ids.contains(&req.id) {
                out.push((req, relay));
            }
        }
        out
    }

    /// Queued entries currently waiting for `peer` (tests, diagnostics).
    pub fn peer_queue_len(&self, peer: usize) -> usize {
        self.peer_queues
            .iter()
            .find(|q| q.peer == peer)
            .map_or(0, |q| q.queue.len())
    }

    /// True while gossip waits in the shared outbox or in a peer queue —
    /// what the next [`flush`](Self::flush) takes from. A flush empties
    /// them, except a peer queue holding more than one flush takes,
    /// which keeps the rest for the next.
    pub fn has_queued_gossip(&self) -> bool {
        !self.outbox.is_empty() || self.peer_queues.iter().any(|q| !q.queue.is_empty())
    }

    /// **Flush**: turns whatever gossip the pool holds into frames, one
    /// `emit` per frame. The pool knows its own shape — in broadcast mode
    /// the shared outbox becomes one `Forward` broadcast; with per-peer
    /// queues each peer, in configuration order, gets up to 512 entries
    /// of its queue as a `Forward` (first-hop bodies) and then an
    /// `Announce` (relayed records): the bound on what one flush puts in
    /// flight behind a shed-prone queue. Emits nothing when nothing is
    /// queued (gossip off included).
    pub fn flush(&mut self, emit: &mut impl FnMut(Outbound)) {
        if self.peer_queues.is_empty() {
            let requests = self.take_outbox();
            if !requests.is_empty() {
                emit(Outbound::Broadcast(Message::Dissemination(
                    DisseminationMsg::Forward { requests },
                )));
            }
            return;
        }
        for i in 0..self.peer_queues.len() {
            let peer = self.peer_queues[i].peer;
            let entries = self.take_peer_outbox(peer);
            if entries.is_empty() {
                continue;
            }
            let (mut forwards, mut announces) = (Vec::new(), Vec::new());
            for (req, relay) in entries {
                if relay { &mut announces } else { &mut forwards }.push(req);
            }
            let mut send = |frame| {
                let to = ReplicaId(peer as u16);
                emit(Outbound::Send(to, Message::Dissemination(frame)));
            };
            if !forwards.is_empty() {
                send(DisseminationMsg::Forward { requests: forwards });
            }
            if !announces.is_empty() {
                send(DisseminationMsg::Announce {
                    requests: announces,
                });
            }
        }
    }

    /// **Intake**: applies one inbound dissemination frame from `from`.
    /// Every request is [accepted](Self::accept_forwarded) under the
    /// duplicate and committed-id rules. In broadcast mode that is all —
    /// gossip is one round. With per-peer queues each *first-time* accept
    /// is relayed down this pool's own queues, minus the sender;
    /// duplicates are never relayed, so the cascade ends once every
    /// replica has seen the request.
    pub fn intake(&mut self, from: ReplicaId, msg: DisseminationMsg) {
        for &req in msg.requests() {
            if matches!(
                self.accept_forwarded(req),
                PushOutcome::Accepted | PushOutcome::AcceptedEvicting(_)
            ) {
                self.queue_relay(req, from.as_usize());
            }
        }
    }

    /// Removes and returns up to `max` requests, oldest first:
    /// [`drain_speculative`](Self::drain_speculative) with no byte cap, no
    /// ancestors and the [`BatchPolicy::EAGER`] policy.
    pub fn drain(&mut self, max: usize) -> Vec<Request> {
        self.drain_speculative(
            max,
            u64::MAX,
            &ProposalContext::root(Round(0), Time::ZERO),
            &BatchPolicy::EAGER,
        )
    }

    /// The drain: removes and returns requests, oldest first, stopping
    /// before `max_records` is exceeded and before the *nominal* byte
    /// total (the sum of [`Request::size`]) would exceed `max_bytes`.
    /// When `max_records > 0`, at least one request is taken when any is
    /// eligible — a single oversized request still ships rather than
    /// wedging the pool ([`MempoolSource`] rejects a zero record cap at
    /// construction for the same reason). Tombstones of committed ids are
    /// discarded along the way, never returned.
    ///
    /// It is ancestor-aware: every pending request whose id is
    /// leased to a block of `ctx.ancestors` — the uncommitted chain the
    /// proposal extends, per [`observe_proposal`](Self::observe_proposal)
    /// — is *skipped, not consumed*: it is set aside and restored to the
    /// queue front in original order, so its pending copy keeps its FIFO
    /// position, available to a competing fork's leader and recoverable
    /// if the ancestor is abandoned. (Engines must report the ancestor
    /// chain down to the newest commit the *driver has routed*, i.e. as
    /// of the start of the current engine event — a block committed
    /// mid-event still holds a live lease here, and dropping it from the
    /// context would re-batch its requests.)
    ///
    /// `policy` may defer the whole batch: if the eligible backlog is
    /// below `policy.min_bytes` and its oldest request is younger than
    /// `policy.max_age` at `ctx.now`, nothing is drained and an empty vec
    /// is returned (counted in [`deferred`](Self::deferred)).
    pub fn drain_speculative(
        &mut self,
        max_records: usize,
        max_bytes: u64,
        ctx: &ProposalContext,
        policy: &BatchPolicy,
    ) -> Vec<Request> {
        let excluded = self.leases.exclusions(&ctx.ancestors);
        match self.batch_ready(&excluded, policy, ctx.now) {
            BatchReady::Build => {}
            BatchReady::Idle => return Vec::new(),
            BatchReady::Defer => {
                self.deferred += 1;
                return Vec::new();
            }
        }
        let mut out = Vec::new();
        let mut skipped = Vec::new();
        let mut bytes = 0u64;
        while out.len() < max_records {
            let Some(req) = self.queue.pop_front() else {
                break;
            };
            if !self.pending.contains_key(&req.id) {
                continue; // tombstone of a committed id
            }
            if excluded.contains(&req.id) {
                skipped.push(req);
                continue;
            }
            let next = bytes.saturating_add(req.size);
            if !out.is_empty() && next > max_bytes {
                self.queue.push_front(req);
                break;
            }
            bytes = next;
            self.pending.remove(&req.id);
            self.pending_bytes = self.pending_bytes.saturating_sub(req.size);
            out.push(req);
        }
        for req in skipped.into_iter().rev() {
            self.queue.push_front(req);
        }
        out
    }

    /// The [`BatchPolicy`] gate: is the eligible backlog (live, not
    /// ancestor-leased) big or old enough to build a batch? The checks
    /// Build iff any eligible request hit the age escape or the eligible
    /// bytes reach the target.
    fn batch_ready(&self, excluded: &HashSet<u64>, policy: &BatchPolicy, now: Time) -> BatchReady {
        if policy.min_bytes == 0 {
            return BatchReady::Build; // EAGER: never defer (the historical behavior)
        }
        let mut bytes = 0u64;
        let mut eligible = false;
        for req in &self.queue {
            if !self.pending.contains_key(&req.id) || excluded.contains(&req.id) {
                continue;
            }
            eligible = true;
            if now.since(req.submitted_at) >= policy.max_age {
                return BatchReady::Build; // an eligible request hit the age escape
            }
            bytes = bytes.saturating_add(req.size);
            if bytes >= policy.min_bytes {
                return BatchReady::Build;
            }
        }
        if eligible {
            BatchReady::Defer
        } else {
            // An empty (or fully ancestor-leased) backlog is *idle*, not
            // deferred: an eager drain would also ship nothing, so the
            // deferral diagnostic must not count it.
            BatchReady::Idle
        }
    }

    /// Pending (live) requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Nominal bytes (sum of [`Request::size`]) pending.
    pub fn pending_bytes(&self) -> u64 {
        self.pending_bytes
    }

    /// Ids of the pending (live) requests, in no particular order. Used
    /// by loss accounting to count *unique* uncommitted requests across
    /// pools — with gossip or fan-out, one request can have live copies
    /// in several pools, and summing [`len`](Self::len)s would hide real
    /// losses behind surviving copies of other requests.
    pub fn pending_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.pending.keys().copied()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The driver's idle-hold test: the pool gossips, and nothing is
    /// pending or the only live lease (the one block in flight, which
    /// finalizes in its own round on the happy path) carries every pending
    /// request. With two blocks in flight, a block on top is what
    /// finalizes one whose round did not. A pool that does not gossip is
    /// never idle: it sees only its own clients' requests, so an empty one
    /// says nothing of the requests waiting in other replicas' pools.
    pub fn is_idle(&self) -> bool {
        self.gossip
            && (self.pending.is_empty()
                || self.leases.sole().is_some_and(|carried| {
                    let pending = carried.iter().filter(|r| self.pending.contains_key(&r.id));
                    pending.count() >= self.pending.len()
                }))
    }

    /// Requests accepted so far (including later-evicted ones; local
    /// pushes and peer forwards alike).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Requests evicted by capacity pressure so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Requests rejected as pending duplicates so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Peer-forwarded requests accepted so far.
    pub fn forwarded_in(&self) -> u64 {
        self.forwarded_in
    }

    /// Pushes/forwards rejected because the id had already committed.
    pub fn rejected_committed(&self) -> u64 {
        self.rejected_committed
    }

    /// Queued forwards dropped by the outbox bound so far.
    pub fn forward_dropped(&self) -> u64 {
        self.forward_dropped
    }

    /// Entries shed by per-peer relay-queue bounds so far (all peers).
    pub fn peer_sheds(&self) -> u64 {
        self.peer_sheds
    }

    /// Requests returned to the pending queue by lease releases so far.
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Drains deferred by the [`BatchPolicy`] so far.
    pub fn deferred(&self) -> u64 {
        self.deferred
    }
}

/// Verdict of the [`BatchPolicy`] gate for one drain attempt.
enum BatchReady {
    /// Build the batch now (target reached, or the EAGER policy).
    Build,
    /// Eligible work exists but neither target is reached yet: hold the
    /// block (counted in [`Mempool::deferred`]).
    Defer,
    /// Nothing eligible at all — an eager drain would also be empty.
    Idle,
}

/// A mempool shared between a driver (producer side) and an engine's
/// [`MempoolSource`] (consumer side).
pub type SharedMempool = Arc<Mutex<Mempool>>;

/// The requests carried by one block payload, recoverable from the
/// committed payload bytes.
///
/// # Wire encoding
///
/// ```text
/// "BanyanWB"             8-byte magic prefix (self-identification)
/// count: u32 LE          number of request records
/// count × 26-byte record, each little-endian:
///   id: u64  client: u16  size: u64  submitted_at: u64 (ns)
/// zero padding           up to the batch's nominal size
/// ```
///
/// The record layout is [`banyan_types::message::PendingRequest`]'s —
/// the same 26 bytes a `DisseminationMsg::Forward` ships per request.
/// The nominal size is the sum of request sizes, so the simulator's
/// bandwidth model charges what shipping the real request bytes would
/// cost. Payloads without the magic prefix (synthetic payloads, empty
/// blocks, foreign inline content) [`decode`](Self::decode) to `None`;
/// a truncated or corrupt batch is rejected, never a panic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkloadBatch {
    /// The batched requests, in mempool (FIFO) order.
    pub requests: Vec<Request>,
}

impl WorkloadBatch {
    /// Bytes of one encoded request record (the [`Request`] `Wire`
    /// encoding — the same 26 bytes a `DisseminationMsg::Forward`
    /// ships).
    const RECORD: usize = 8 + 2 + 8 + 8;

    /// Nominal batch size: the sum of request sizes.
    pub fn nominal_size(&self) -> u64 {
        self.requests.iter().map(|r| r.size).sum()
    }

    /// Encodes the batch as an inline payload (see the type docs).
    /// Records are written through [`Request`]'s `Wire` impl, so the
    /// batch layout can never drift from the dissemination layer's.
    pub fn into_payload(self) -> Payload {
        let header = BATCH_MAGIC.len() + 4 + self.requests.len() * Self::RECORD;
        let total = (self.nominal_size() as usize).max(header);
        let mut w = Writer::with_capacity(total);
        w.raw(BATCH_MAGIC);
        w.u32(self.requests.len() as u32);
        for req in &self.requests {
            req.encode(&mut w);
        }
        let mut bytes = w.into_bytes();
        bytes.resize(total, 0);
        Payload::inline(bytes)
    }

    /// Decodes a batch from a committed payload. Returns `None` for
    /// payloads that are not workload batches (synthetic payloads, empty
    /// blocks, foreign inline content); a truncated or corrupt batch is
    /// rejected, never a panic.
    pub fn decode(payload: &Payload) -> Option<WorkloadBatch> {
        let rest = payload.as_inline()?.strip_prefix(BATCH_MAGIC.as_slice())?;
        let mut reader = Reader::new(rest);
        let count = reader.u32().ok()? as usize;
        // A corrupt count must fail the length check here, not reserve
        // gigabytes below: never trust it beyond what the bytes can hold.
        if count > reader.remaining() / Self::RECORD {
            return None;
        }
        let mut requests = Vec::with_capacity(count);
        for _ in 0..count {
            requests.push(Request::decode(&mut reader).ok()?);
        }
        Some(WorkloadBatch { requests })
    }
}

/// A [`ProposalSource`] that drains a pool handle (any [`ReplicaPool`]) into one
/// [`WorkloadBatch`] payload per proposal. An empty mempool yields an
/// empty payload (the chain keeps moving; blocks just carry no work).
///
/// Each batch is bounded two ways: at most `max_batch` request records
/// *and* at most [`DEFAULT_MAX_BATCH_BYTES`] nominal bytes (the
/// sum of request sizes — what the bandwidth model will charge for the
/// block). Without the byte bound, large requests would let the record
/// cap admit multi-gigabyte blocks.
///
/// Draining is ancestor-aware: the driver-fed lease table excludes
/// requests a live ancestor of the proposal carries, and a block that
/// never finalizes hands its requests back once a commit passes its
/// round (see the crate docs).
#[derive(Debug)]
pub struct PoolSource<P> {
    pool: P,
    max_batch: usize,
    max_bytes: u64,
    policy: BatchPolicy,
}

/// The [`PoolSource`] over a [`SharedMempool`] (what the simulator and
/// the inline TCP replica use).
pub type MempoolSource = PoolSource<SharedMempool>;

impl<P: ReplicaPool> PoolSource<P> {
    /// A source draining `pool`, at most `max_batch` requests and
    /// [`DEFAULT_MAX_BATCH_BYTES`] nominal bytes per block.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero (every block would be empty forever
    /// while requests pile up in the pool).
    pub fn new(pool: P, max_batch: usize) -> Self {
        assert!(max_batch > 0, "batch record cap must be positive");
        PoolSource {
            pool,
            max_batch,
            max_bytes: DEFAULT_MAX_BATCH_BYTES,
            policy: BatchPolicy::EAGER,
        }
    }

    /// Installs a latency-targeted [`BatchPolicy`] (default
    /// [`BatchPolicy::EAGER`], which never defers).
    pub fn with_batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }
}

impl<P: ReplicaPool> ProposalSource for PoolSource<P> {
    fn next_payload(&mut self, ctx: &ProposalContext) -> Payload {
        let (max, bytes, policy) = (self.max_batch, self.max_bytes, &self.policy);
        let requests = self
            .pool
            .with_pool(|p| p.drain_speculative(max, bytes, ctx, policy));
        if requests.is_empty() {
            Payload::empty()
        } else {
            WorkloadBatch { requests }.into_payload()
        }
    }
}

/// The one seam between a pool handle and its replica: what every driver
/// (the simulator's event loop, the TCP replica loop) does with a pool
/// besides letting the engine's [`PoolSource`] drain it — **flush**,
/// **intake**, **lease observation** and **commit retirement** — so
/// neither cares whether the pool is a [`SharedMempool`] (the bare mutex,
/// deterministic — the simulator's and most TCP replicas') or a
/// [`SharedConcurrentPool`] (the same mutex behind an ingest channel, for
/// a TCP replica whose clients push from threads of their own). A handle supplies [`with_pool`](Self::with_pool)
/// — its lock — and every operation is that lock around the one
/// [`Mempool`] method. Handles are cheap `Arc` clones.
pub trait ReplicaPool: Clone + Send + 'static {
    /// Runs `f` on the handle's [`Mempool`] under its lock, with whatever
    /// the handle had queued for the pool applied first. `f` must not call
    /// back into the handle.
    fn with_pool<R>(&self, f: impl FnOnce(&mut Mempool) -> R) -> R;

    /// Turns the pool's queued gossip into frames (see [`Mempool::flush`])
    /// and reports whether some is still queued
    /// ([`Mempool::has_queued_gossip`]: a peer queue held more than one
    /// flush takes). `emit` runs under the pool's lock and must not call back
    /// into the pool: collect the frames, send them afterwards. (A driver
    /// flushes after every event, almost always finding nothing;
    /// collecting on the handle's side of the lock instead cost the
    /// 19-replica simulation 2–3 % of its CPU.)
    fn flush(&self, emit: &mut impl FnMut(Outbound)) -> bool {
        self.with_pool(|pool| {
            pool.flush(emit);
            pool.has_queued_gossip()
        })
    }

    /// Installs the hook a client's push calls (see [`ArrivalHook`]):
    /// here, on the pool's [`Mempool::push`].
    fn set_arrival_hook(&self, hook: ArrivalHook) {
        self.with_pool(|pool| pool.set_arrival_hook(hook));
    }

    /// Applies one inbound dissemination frame (see [`Mempool::intake`]).
    fn intake(&self, from: ReplicaId, msg: DisseminationMsg) {
        self.with_pool(|pool| pool.intake(from, msg));
    }

    /// Leases the block an outbound frame proposes (own proposals,
    /// relays, single sync responses) — what lets an abandoned own
    /// proposal release its drained requests back into the pool.
    fn observe_outbound(&self, out: &Outbound) {
        let (Outbound::Broadcast(msg) | Outbound::Send(_, msg)) = out;
        if let Some(block) = msg.proposal_block() {
            self.with_pool(|pool| pool.observe_proposal(block));
        }
    }

    /// Leases every block a frame from `from` carries first-hand
    /// ([`Message::first_hand_blocks`]: proposals from their proposer and
    /// fetched catch-up batches, so a rejoined replica never re-batches
    /// requests its freshly fetched ancestors already hold). A relay is
    /// neither decoded nor hashed.
    fn observe_inbound(&self, from: ReplicaId, msg: &Message) {
        for block in msg.first_hand_blocks(from) {
            self.with_pool(|pool| pool.observe_proposal(block));
        }
    }

    /// Retires one commit in the pool — this replica's half of the
    /// exactly-once dedup rule: decodes the committed batch once, marks
    /// its ids committed and retires/releases leases
    /// ([`Mempool::mark_committed_block`]), and hands the batch back for
    /// whoever else needs it. `None` (and nothing done) for a payload that
    /// is not a [`WorkloadBatch`].
    fn retire(&self, entry: &CommitEntry) -> Option<WorkloadBatch> {
        let batch = WorkloadBatch::decode(&entry.payload)?;
        self.with_pool(|pool| pool.mark_committed_block(entry.block, entry.round, &batch.requests));
        Some(batch)
    }
}

impl ReplicaPool for SharedMempool {
    fn with_pool<R>(&self, f: impl FnOnce(&mut Mempool) -> R) -> R {
        f(&mut self.lock().expect("mempool lock"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, at: u64) -> Request {
        Request {
            id,
            client: (id % 7) as u16,
            size: 100,
            submitted_at: Time(at),
        }
    }

    /// A counting [`ArrivalHook`] and its count.
    pub(crate) fn counting_hook() -> (ArrivalHook, Arc<std::sync::atomic::AtomicU64>) {
        let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let counter = calls.clone();
        let hook = ArrivalHook::new(move || {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        (hook, calls)
    }

    /// A push that makes an empty pool busy calls the hook once; a push
    /// into a busy pool, a rejected one, a peer's forward and a pool
    /// without a hook call nothing.
    #[test]
    fn a_push_into_an_empty_pool_calls_the_arrival_hook() {
        let (hook, calls) = counting_hook();
        let calls = move || calls.load(std::sync::atomic::Ordering::Relaxed);
        let mut mp = Mempool::new(10);
        mp.push(req(1, 1));
        mp.set_arrival_hook(hook);
        mp.push(req(2, 2));
        assert_eq!(calls(), 0, "a busy pool's push called the hook");
        mp.drain(10);
        mp.accept_forwarded(req(3, 3));
        mp.drain(10);
        mp.mark_committed(4);
        mp.push(req(4, 4));
        assert_eq!(calls(), 0);
        mp.push(req(5, 5));
        mp.push(req(5, 6));
        mp.push(req(6, 7));
        assert_eq!(calls(), 1);
    }

    #[test]
    fn mempool_serves_fifo_order() {
        let mut mp = Mempool::new(10);
        for id in 1..=5 {
            assert_eq!(mp.push(req(id, id)), PushOutcome::Accepted);
        }
        let drained = mp.drain(3);
        assert_eq!(drained.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 2, 3]);
        let rest = mp.drain(usize::MAX);
        assert_eq!(rest.iter().map(|r| r.id).collect::<Vec<_>>(), [4, 5]);
        assert!(mp.is_empty());
    }

    #[test]
    fn mempool_rejects_pending_duplicates_only() {
        let mut mp = Mempool::new(10);
        assert_eq!(mp.push(req(1, 0)), PushOutcome::Accepted);
        assert_eq!(mp.push(req(1, 1)), PushOutcome::Duplicate);
        assert_eq!(mp.len(), 1);
        assert_eq!(mp.duplicates(), 1);
        // Once drained, the id may be resubmitted (e.g. a client retry).
        mp.drain(1);
        assert_eq!(mp.push(req(1, 2)), PushOutcome::Accepted);
    }

    #[test]
    fn mempool_capacity_evicts_oldest() {
        let mut mp = Mempool::new(3);
        for id in 1..=3 {
            mp.push(req(id, id));
        }
        assert_eq!(mp.push(req(4, 4)), PushOutcome::AcceptedEvicting(1));
        assert_eq!(mp.len(), 3);
        assert_eq!(mp.evicted(), 1);
        let ids: Vec<u64> = mp.drain(usize::MAX).iter().map(|r| r.id).collect();
        assert_eq!(ids, [2, 3, 4]);
        // The evicted id is free again.
        assert_eq!(mp.push(req(1, 9)), PushOutcome::Accepted);
    }

    #[test]
    fn committed_ids_are_rejected_forever() {
        let mut mp = Mempool::new(10);
        mp.push(req(1, 0));
        mp.drain(1);
        assert!(mp.mark_committed(1), "first mark reports newly committed");
        assert!(!mp.mark_committed(1), "second mark is a no-op");
        assert!(mp.is_committed(1));
        // A retry (or re-gossip) of the committed id is rejected.
        assert_eq!(mp.push(req(1, 5)), PushOutcome::Committed);
        assert_eq!(mp.accept_forwarded(req(1, 6)), PushOutcome::Committed);
        assert_eq!(mp.rejected_committed(), 2);
    }

    #[test]
    fn mark_committed_tombstones_pending_copies() {
        let mut mp = Mempool::new(10);
        for id in 1..=4 {
            mp.push(req(id, id));
        }
        // Another replica's block carrying 2 commits before we drain.
        mp.mark_committed(2);
        assert_eq!(mp.len(), 3, "tombstones do not count as pending");
        let ids: Vec<u64> = mp.drain(usize::MAX).iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 3, 4], "the committed copy is never drained");
    }

    #[test]
    fn eviction_skips_tombstones() {
        let mut mp = Mempool::new(2);
        mp.push(req(1, 1));
        mp.push(req(2, 2));
        mp.mark_committed(1); // tombstone at the queue front
        mp.push(req(3, 3));
        // Live set {2, 3} is within capacity: nothing to evict.
        assert_eq!(mp.len(), 2);
        assert_eq!(mp.push(req(4, 4)), PushOutcome::AcceptedEvicting(2));
        let ids: Vec<u64> = mp.drain(usize::MAX).iter().map(|r| r.id).collect();
        assert_eq!(ids, [3, 4]);
    }

    #[test]
    fn gossip_outbox_tracks_local_pushes_only() {
        let mut mp = Mempool::new(10).with_gossip(true);
        mp.push(req(1, 1));
        mp.push(req(2, 2));
        // A forwarded request never re-enters the outbox (one round).
        assert_eq!(mp.accept_forwarded(req(3, 3)), PushOutcome::Accepted);
        // A rejected push is not queued for forwarding either.
        assert_eq!(mp.push(req(1, 4)), PushOutcome::Duplicate);
        let out: Vec<u64> = mp.take_outbox().iter().map(|r| r.id).collect();
        assert_eq!(out, [1, 2]);
        assert!(mp.take_outbox().is_empty(), "outbox drains");
        assert_eq!(mp.forwarded_in(), 1);
        assert_eq!(mp.len(), 3, "all three requests are pending");
    }

    #[test]
    fn outbox_drops_requests_committed_before_the_flush() {
        let mut mp = Mempool::new(10).with_gossip(true);
        mp.push(req(1, 1));
        mp.push(req(2, 2));
        mp.mark_committed(1);
        let out: Vec<u64> = mp.take_outbox().iter().map(|r| r.id).collect();
        assert_eq!(out, [2], "no bandwidth spent forwarding committed work");
    }

    #[test]
    fn outbox_disabled_by_default() {
        let mut mp = Mempool::new(10);
        assert!(!mp.gossip_enabled());
        mp.push(req(1, 1));
        assert!(mp.take_outbox().is_empty());
    }

    #[test]
    fn batch_roundtrips_and_pads_to_nominal_size() {
        let batch = WorkloadBatch {
            requests: vec![req(7, 100), req(8, 250)],
        };
        assert_eq!(batch.nominal_size(), 200);
        let payload = batch.clone().into_payload();
        // Padded to the nominal byte size: bandwidth is charged as if the
        // real request bytes were on the wire.
        assert_eq!(payload.len(), 200);
        assert_eq!(WorkloadBatch::decode(&payload), Some(batch));
    }

    #[test]
    fn tiny_batches_keep_their_header() {
        // 2 one-byte requests: the header exceeds the nominal size, so the
        // payload grows to fit the records.
        let batch = WorkloadBatch {
            requests: vec![
                Request {
                    id: 1,
                    client: 0,
                    size: 1,
                    submitted_at: Time(5),
                },
                Request {
                    id: 2,
                    client: 1,
                    size: 1,
                    submitted_at: Time(6),
                },
            ],
        };
        let payload = batch.clone().into_payload();
        assert!(payload.len() > 2);
        assert_eq!(WorkloadBatch::decode(&payload), Some(batch));
    }

    #[test]
    fn non_batch_payloads_decode_to_none() {
        assert_eq!(WorkloadBatch::decode(&Payload::empty()), None);
        assert_eq!(WorkloadBatch::decode(&Payload::synthetic(1_000, 3)), None);
        assert_eq!(
            WorkloadBatch::decode(&Payload::inline(b"not a batch".to_vec())),
            None
        );
        // Truncated batch (magic but no count) is rejected, not a panic.
        assert_eq!(
            WorkloadBatch::decode(&Payload::inline(BATCH_MAGIC.to_vec())),
            None
        );
    }

    #[test]
    fn mempool_source_drains_in_batches() {
        let shared = Mempool::shared(100);
        {
            let mut mp = shared.lock().unwrap();
            for id in 1..=5 {
                mp.push(req(id, id));
            }
        }
        let mut src = MempoolSource::new(shared.clone(), 3);
        let first = src.next_payload(&ProposalContext::root(Round(1), Time(10)));
        let batch = WorkloadBatch::decode(&first).expect("batch payload");
        assert_eq!(
            batch.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        let second = src.next_payload(&ProposalContext::root(Round(2), Time(20)));
        let batch = WorkloadBatch::decode(&second).expect("batch payload");
        assert_eq!(
            batch.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            [4, 5]
        );
        // Empty mempool → empty payload, not a stall.
        assert!(src
            .next_payload(&ProposalContext::root(Round(3), Time(30)))
            .is_empty());
    }

    #[test]
    fn drain_enforces_nominal_byte_cap() {
        // Regression: with large requests, the record cap alone admitted
        // arbitrarily many bytes per batch.
        let mut mp = Mempool::new(100);
        for id in 1..=10 {
            mp.push(Request {
                id,
                client: 0,
                size: 1_000_000,
                submitted_at: Time(id),
            });
        }
        let capped = |mp: &mut Mempool, max_records| {
            mp.drain_speculative(
                max_records,
                DEFAULT_MAX_BATCH_BYTES,
                &ctx_at(0),
                &BatchPolicy::EAGER,
            )
        };
        let batch = capped(&mut mp, 4_096);
        assert_eq!(
            batch.len(),
            2,
            "2 MB cap must stop a 1 MB-request drain at two records"
        );
        // An oversized single request still ships (no wedge).
        let mut mp = Mempool::new(10);
        mp.push(Request {
            id: 1,
            client: 0,
            size: 10_000_000,
            submitted_at: Time(1),
        });
        assert_eq!(capped(&mut mp, 4_096).len(), 1);
        // The record cap still applies to small requests.
        let mut mp = Mempool::new(10);
        for id in 1..=5 {
            mp.push(req(id, id));
        }
        assert_eq!(mp.drain(3).len(), 3);
    }

    /// A peer's forged record claiming an impossible size must not reach
    /// a batch: the next leader would size its payload buffer from it.
    #[test]
    fn forged_oversized_forward_never_reaches_a_batch() {
        let shared = Mempool::shared(100);
        let forged = Request {
            size: u64::MAX,
            ..req(1, 1)
        };
        shared.lock().unwrap().intake(
            ReplicaId(1),
            DisseminationMsg::Forward {
                requests: vec![forged],
            },
        );
        assert!(shared.lock().unwrap().is_empty());
        let mut src = MempoolSource::new(shared, 3);
        assert!(src
            .next_payload(&ProposalContext::root(Round(1), Time(1)))
            .is_empty());
    }

    fn hash(tag: u8) -> BlockHash {
        BlockHash([tag; 32])
    }

    /// A proposal context for round `round` extending `ancestors` (newest
    /// first; parent = first entry or genesis).
    fn ctx(round: u64, ancestors: &[BlockHash]) -> ProposalContext {
        ProposalContext {
            round: Round(round),
            now: Time(round),
            parent: ancestors.first().copied().unwrap_or(BlockHash::ZERO),
            ancestors: ancestors.to_vec(),
        }
    }

    /// A genesis-rooted context at virtual time `now` (policy tests).
    fn ctx_at(now: u64) -> ProposalContext {
        ProposalContext::root(Round(0), Time(now))
    }

    #[test]
    fn speculative_drain_skips_ancestor_leases_without_consuming_them() {
        let mut mp = Mempool::new(100);
        for id in 1..=6 {
            mp.push(req(id, id));
        }
        // Two competing round-5 blocks: ancestor A carries 1..=3, fork
        // parent B carries 6.
        mp.observe_block(
            hash(0xA),
            Round(5),
            BlockHash::ZERO,
            vec![req(1, 1), req(2, 2), req(3, 3)],
        );
        mp.observe_block(hash(0xB), Round(5), BlockHash::ZERO, vec![req(6, 6)]);
        assert_eq!(mp.live_leases(), 2);

        // Proposing on top of A: A's requests are skipped, B's are fair
        // game (only one fork commits, so that is no duplicate).
        let out = mp.drain_speculative(10, u64::MAX, &ctx(6, &[hash(0xA)]), &BatchPolicy::EAGER);
        assert_eq!(out.iter().map(|r| r.id).collect::<Vec<_>>(), [4, 5, 6]);
        // The leased copies kept their FIFO slots: a leader extending the
        // B fork instead can still drain them, oldest first.
        let fork = mp.drain_speculative(10, u64::MAX, &ctx(6, &[hash(0xB)]), &BatchPolicy::EAGER);
        assert_eq!(fork.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn speculative_drain_excludes_mid_event_committed_ancestors() {
        // The commit-lag race: an engine can commit block E and propose
        // in the SAME event — the drain runs before the commit is routed
        // to the pool. The engine contract therefore keeps E in the
        // context's ancestor chain (ancestors reach down to the newest
        // *routed* commit), and E's still-live lease must exclude its
        // requests from the drain.
        let mut mp = Mempool::new(100);
        for id in 1..=3 {
            mp.push(req(id, id));
        }
        mp.observe_block(
            hash(0xE),
            Round(2),
            BlockHash::ZERO,
            vec![req(1, 1), req(2, 2)],
        );
        mp.observe_block(hash(0xC), Round(4), BlockHash::ZERO, vec![req(3, 3)]);
        let chain = [hash(0xC), hash(0xE)];
        let out = mp.drain_speculative(10, u64::MAX, &ctx(5, &chain), &BatchPolicy::EAGER);
        assert!(
            out.is_empty(),
            "every pending copy is ancestor-leased: {out:?}"
        );
        // Once E's commit routes, its ids tombstone and its lease
        // retires; request 3 stays excluded through C's live lease.
        mp.mark_committed_block(hash(0xE), Round(2), &[req(1, 1), req(2, 2)]);
        let out = mp.drain_speculative(10, u64::MAX, &ctx(5, &[hash(0xC)]), &BatchPolicy::EAGER);
        assert!(out.is_empty(), "1,2 committed; 3 still leased to C");
        mp.mark_committed_block(hash(0xC), Round(4), &[req(3, 3)]);
        assert!(mp.is_empty());
    }

    /// Idle: nothing pending, or one block in flight carrying every
    /// pending request. A free request, or a second block in flight, makes
    /// the pool busy.
    #[test]
    fn a_pool_is_idle_while_one_block_in_flight_carries_every_request() {
        let mut mp = Mempool::new(100).with_gossip(true);
        assert!(mp.is_idle());
        mp.push(req(1, 1));
        assert!(!mp.is_idle(), "a free request");
        mp.observe_block(hash(0xA), Round(1), BlockHash::ZERO, vec![req(1, 1)]);
        assert!(mp.is_idle(), "the one block in flight carries it");
        mp.push(req(2, 2));
        assert!(!mp.is_idle(), "request 2 is free");
        mp.observe_block(hash(0xB), Round(2), hash(0xA), vec![req(2, 2)]);
        assert!(!mp.is_idle(), "two blocks in flight");
        mp.mark_committed_block(hash(0xA), Round(1), &[req(1, 1)]);
        assert!(mp.is_idle(), "one block in flight again");
    }

    /// A pool that does not gossip sees only its own clients' requests,
    /// so it is never idle, empty or not.
    #[test]
    fn a_pool_that_does_not_gossip_is_never_idle() {
        let mut mp = Mempool::new(100);
        assert!(!mp.is_idle(), "empty");
        mp.push(req(1, 1));
        mp.observe_block(hash(0xA), Round(1), BlockHash::ZERO, vec![req(1, 1)]);
        assert!(
            !mp.is_idle(),
            "the one block in flight carries every request"
        );
    }

    #[test]
    fn mark_committed_block_retires_the_winner_and_releases_the_losers() {
        let mut mp = Mempool::new(100);
        for id in 1..=4 {
            mp.push(req(id, id));
        }
        // Two competing round-7 forks: A carries {1,2} (drained locally),
        // B carries {3} (observed from a peer; its copy 3 stays pending).
        let drained = mp.drain_speculative(2, u64::MAX, &ctx(7, &[]), &BatchPolicy::EAGER);
        assert_eq!(drained.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 2]);
        mp.observe_block(hash(0xA), Round(7), BlockHash::ZERO, drained.clone());
        mp.observe_block(hash(0xB), Round(7), BlockHash::ZERO, vec![req(3, 3)]);

        // B commits: its ids are retired, and A's lease — same round,
        // losing fork — releases {1,2} back into the queue with their
        // original identity.
        mp.mark_committed_block(hash(0xB), Round(7), &[req(3, 3)]);
        assert!(mp.is_committed(3));
        assert_eq!(mp.live_leases(), 0);
        assert_eq!(mp.released(), 2);
        let back = mp.drain_speculative(10, u64::MAX, &ctx(8, &[]), &BatchPolicy::EAGER);
        assert_eq!(
            back.iter()
                .map(|r| (r.id, r.submitted_at))
                .collect::<Vec<_>>(),
            [(4, Time(4)), (1, Time(1)), (2, Time(2))],
            "released requests re-enter with original id+timestamp"
        );
    }

    #[test]
    fn certificate_conflict_releases_the_stranded_optimistic_lease() {
        // The fork-abandonment blind spot: an optimistic round-8 block D
        // extends the round-7 loser A. When B commits at round 7, the
        // round sweep only reaches ≤ 7, so D's lease used to strand until
        // the *next* commit — its requests invisible to both forks.
        let mut mp = Mempool::new(100);
        // All four blocks were observed from peers; none of their
        // requests is pending locally, so a release visibly re-enters.
        mp.observe_block(hash(0xA), Round(7), BlockHash::ZERO, vec![req(11, 11)]);
        mp.observe_block(hash(0xB), Round(7), BlockHash::ZERO, vec![req(12, 12)]);
        mp.observe_block(hash(0xD), Round(8), hash(0xA), vec![req(13, 13)]);
        // A round-8 child of the *winner* must survive the sweep.
        mp.observe_block(hash(0xE), Round(8), hash(0xB), vec![req(14, 14)]);
        assert_eq!(mp.live_leases(), 4);

        mp.mark_committed_block(hash(0xB), Round(7), &[req(12, 12)]);
        assert_eq!(mp.live_leases(), 1, "only E (winner's child) survives");
        assert!(mp.lease(&hash(0xE)).is_some());
        assert_eq!(mp.released(), 2, "A's {{11}} and D's {{13}} re-enter now");
        let back = mp.drain_speculative(10, u64::MAX, &ctx(9, &[]), &BatchPolicy::EAGER);
        assert_eq!(
            back.iter()
                .map(|r| (r.id, r.submitted_at))
                .collect::<Vec<_>>(),
            [(11, Time(11)), (13, Time(13))],
            "eagerly released with original id+timestamp, round-major order"
        );
    }

    #[test]
    fn release_skips_committed_and_still_pending_copies() {
        let mut mp = Mempool::new(100);
        mp.push(req(1, 1));
        mp.push(req(2, 2));
        // Lease carries 1 (still pending here), 2 (pending) and 9 (never
        // seen locally). 2 commits through another block first.
        mp.observe_block(
            hash(0xC),
            Round(3),
            BlockHash::ZERO,
            vec![req(1, 1), req(2, 2), req(9, 9)],
        );
        mp.mark_committed(2);
        assert_eq!(mp.release(hash(0xC)), 1, "only 9 actually re-enters");
        assert_eq!(mp.len(), 2, "pending 1 + released 9");
        assert_eq!(mp.release(hash(0xC)), 0, "release is idempotent");
    }

    #[test]
    fn observe_proposal_decodes_batches_and_respects_the_gate() {
        use banyan_crypto::Signature;
        use banyan_types::ids::{Rank, ReplicaId};
        let block = Block {
            round: Round(2),
            proposer: ReplicaId(0),
            rank: Rank(0),
            parent: BlockHash::ZERO,
            proposed_at: Time(1),
            payload: WorkloadBatch {
                requests: vec![req(7, 7)],
            }
            .into_payload(),
            signature: Signature::zero(),
        };
        // The batch is decoded and leased under the block's real hash;
        // re-observation is idempotent.
        let mut mp = Mempool::new(10);
        assert!(mp.observe_proposal(&block));
        assert!(!mp.observe_proposal(&block));
        let leased = mp
            .lease(&block.hash(PAYLOAD_CHUNK))
            .expect("lease recorded");
        assert_eq!(leased.iter().map(|r| r.id).collect::<Vec<_>>(), [7]);
        // Non-batch payloads never lease.
        let mut synth = block.clone();
        synth.payload = Payload::synthetic(100, 1);
        assert!(!mp.observe_proposal(&synth));
        assert_eq!(mp.live_leases(), 1);
    }

    #[test]
    fn batch_policy_defers_until_size_or_age() {
        let policy = BatchPolicy::target(1_000, Duration::from_millis(5));
        let mut mp = Mempool::new(100);
        // 300 nominal bytes pending, all younger than 5 ms: defer.
        for id in 1..=3 {
            mp.push(req(id, 1_000_000 * id)); // 100 B each, submitted ~id ms
        }
        assert!(mp
            .drain_speculative(10, u64::MAX, &ctx_at(4_000_000), &policy)
            .is_empty());
        assert_eq!(mp.deferred(), 1);
        assert_eq!(mp.len(), 3, "a deferral consumes nothing");
        // Size trigger: backlog reaches the byte target.
        for id in 4..=10 {
            mp.push(req(id, 4_000_000));
        }
        let out = mp.drain_speculative(100, u64::MAX, &ctx_at(4_100_000), &policy);
        assert_eq!(out.len(), 10, "size target reached: drain everything");
        // Age trigger: a lone old request ships despite the byte target.
        mp.push(req(50, 1_000_000));
        assert!(mp
            .drain_speculative(10, u64::MAX, &ctx_at(2_000_000), &policy)
            .is_empty());
        let out = mp.drain_speculative(10, u64::MAX, &ctx_at(7_000_000), &policy);
        assert_eq!(out.len(), 1, "oldest eligible request hit max_age");
        // Leased (excluded) requests count toward neither trigger.
        let mut mp = Mempool::new(100);
        for id in 1..=20 {
            mp.push(req(id, 1));
        }
        mp.observe_block(
            hash(0xD),
            Round(1),
            BlockHash::ZERO,
            (1..=20).map(|id| req(id, 1)).collect(),
        );
        assert!(
            mp.drain_speculative(
                100,
                u64::MAX,
                &ProposalContext {
                    round: Round(2),
                    now: Time(2),
                    parent: hash(0xD),
                    ancestors: vec![hash(0xD)],
                },
                &policy
            )
            .is_empty(),
            "everything is leased to the ancestor: nothing eligible"
        );
    }

    #[test]
    fn outbox_cap_drops_oldest_forwards() {
        let mut mp = Mempool::new(100).with_gossip(true);
        mp.outbox_cap = 3;
        for id in 1..=5 {
            mp.push(req(id, id));
        }
        assert_eq!(mp.forward_dropped(), 2);
        let out: Vec<u64> = mp.take_outbox().iter().map(|r| r.id).collect();
        assert_eq!(out, [3, 4, 5], "oldest queued forwards were shed");
        assert_eq!(mp.len(), 5, "dropping a forward never drops the request");
    }

    /// A tree-mode pool whose per-peer bounds are `cap` and `take`
    /// instead of the defaults.
    fn tree_pool(peers: &[usize], cap: usize, take: usize) -> Mempool {
        let mut mp = Mempool::new(100).with_peer_queues(peers);
        mp.peer_queue_cap = cap;
        mp.peer_take = take;
        mp
    }

    /// The ids of the requests one flush sends each peer, in order.
    fn flushed(mp: &mut Mempool) -> Vec<(u16, Vec<u64>)> {
        let mut sent = Vec::new();
        mp.flush(&mut |out| {
            let Outbound::Send(to, Message::Dissemination(frame)) = out else {
                panic!("tree mode sends per peer")
            };
            sent.push((to.0, frame.requests().iter().map(|r| r.id).collect()));
        });
        sent
    }

    #[test]
    fn peer_queues_divert_pushes_from_shared_outbox() {
        let mut mp = Mempool::new(100).with_peer_queues(&[1, 2]);
        assert!(mp.gossip_enabled(), "peer queues imply gossip");
        mp.push(req(1, 1));
        mp.push(req(2, 2));
        assert!(mp.take_outbox().is_empty(), "shared outbox is bypassed");
        assert_eq!(mp.peer_queue_len(1), 2);
        assert_eq!(mp.peer_queue_len(2), 2);
        let took: Vec<(u64, bool)> = mp
            .take_peer_outbox(1)
            .into_iter()
            .map(|(r, relay)| (r.id, relay))
            .collect();
        assert_eq!(took, [(1, false), (2, false)], "first hop ships bodies");
        assert_eq!(mp.peer_queue_len(1), 0);
        assert_eq!(mp.peer_queue_len(2), 2, "peer 2's queue is untouched");
    }

    #[test]
    fn queue_relay_skips_the_sender_and_marks_announce() {
        let mut mp = Mempool::new(100).with_peer_queues(&[1, 2]);
        assert_eq!(mp.accept_forwarded(req(9, 1)), PushOutcome::Accepted);
        mp.queue_relay(req(9, 1), 1);
        assert_eq!(mp.peer_queue_len(1), 0, "never relayed back to sender");
        let took = mp.take_peer_outbox(2);
        assert_eq!(took.len(), 1);
        assert!(took[0].1, "relays ship as Announce");
    }

    #[test]
    fn a_flush_takes_at_most_the_bound_per_peer() {
        let mut mp = tree_pool(&[7, 8], 100, 2);
        for id in 1..=5 {
            mp.push(req(id, id));
        }
        let bounded = [(7, vec![1, 2]), (8, vec![1, 2])];
        assert_eq!(
            flushed(&mut mp),
            bounded,
            "each peer gets at most the bound"
        );
        assert!(mp.has_queued_gossip());
        assert_eq!(mp.peer_queue_len(7), 3);
        assert_eq!(flushed(&mut mp), [(7, vec![3, 4]), (8, vec![3, 4])]);
        assert_eq!(flushed(&mut mp), [(7, vec![5]), (8, vec![5])], "the rest");
        assert!(!mp.has_queued_gossip());
        assert_eq!(flushed(&mut mp), [], "nothing queued, nothing sent");
    }

    #[test]
    fn slow_peer_sheds_its_own_queue_only() {
        let mut mp = tree_pool(&[1, 2], 3, 64);
        for id in 1..=5 {
            mp.push(req(id, id));
        }
        // Both queues got 5 entries against a cap of 3: each shed 2.
        assert_eq!(mp.peer_sheds(), 4);
        // Peer 1 drains; peer 2 stays wedged at its cap.
        let ids: Vec<u64> = mp
            .take_peer_outbox(1)
            .into_iter()
            .map(|(r, _)| r.id)
            .collect();
        assert_eq!(ids, [3, 4, 5], "oldest entries were shed first");
        mp.push(req(6, 6));
        assert_eq!(mp.peer_queue_len(1), 1, "drained queue accepts freely");
        assert_eq!(mp.peer_queue_len(2), 3, "wedged queue sheds alone");
        assert_eq!(mp.peer_sheds(), 5);
        assert_eq!(mp.forward_dropped(), 0, "shared-outbox counter untouched");
    }

    #[test]
    fn committed_requests_are_not_taken_and_do_not_count_against_the_bound() {
        let mut mp = tree_pool(&[1], 100, 2);
        for id in 1..=4 {
            mp.push(req(id, id));
        }
        mp.mark_committed(1);
        mp.mark_committed(2);
        let sent = flushed(&mut mp);
        assert_eq!(
            sent,
            [(1, vec![3, 4])],
            "committed entries are discarded, not shipped"
        );
        assert!(!mp.has_queued_gossip(), "queue is empty");
    }

    #[test]
    fn mempool_source_honors_byte_cap() {
        let shared = Mempool::shared(100);
        {
            let mut mp = shared.lock().unwrap();
            for id in 1..=6 {
                mp.push(Request {
                    id,
                    client: 0,
                    size: 400,
                    submitted_at: Time(id),
                });
            }
        }
        let mut src = MempoolSource::new(shared, 4_096);
        src.max_bytes = 1_000;
        let batch =
            WorkloadBatch::decode(&src.next_payload(&ProposalContext::root(Round(1), Time(1))))
                .unwrap();
        assert_eq!(batch.requests.len(), 2, "400+400 fits, +400 would not");
        assert!(batch.nominal_size() <= 1_000);
    }
}
