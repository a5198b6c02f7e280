//! Client workloads: the seeded open- and closed-loop populations that
//! feed the request-dissemination layer.
//!
//! The mempool itself — FIFO pools, batch encoding, gossip outboxes and
//! the exactly-once dedup rule — lives in [`banyan_mempool`] (re-exported
//! here for convenience); this module owns the *clients*:
//!
//! * [`ClientWorkload`] — a seeded open-loop generator (fixed
//!   requests/sec, fixed request size, seeded replica targeting) the
//!   simulator drives via its own event queue;
//! * [`ClosedLoopWorkload`] — a seeded closed-loop client population
//!   (`clients × window` outstanding requests) that observes completions
//!   through the commit path and resubmits after an optional think time;
//!   implemented in [`crate::cohort`], re-exported here. Open loop fixes
//!   the *offered rate* and lets latency blow up under overload; closed
//!   loop fixes the *population* and lets the rate self-regulate, which
//!   is what saturation (throughput-vs-latency) sweeps need.
//!
//! Both populations own one private client core — pools, targeting RNG,
//! id counter, in-flight map, retry deadlines — so they speak the
//! dissemination layer's client side identically:
//!
//! * **submit fan-out** ([`ClientWorkload::with_fanout`],
//!   [`ClosedLoopWorkload::with_fanout`]) — each request is submitted to
//!   `k` replicas' pools (the sampled primary plus its successors), the
//!   classic submit-to-`f+1` defense against an unresponsive or censoring
//!   replica;
//! * **retry** ([`ClientWorkload::with_retry`],
//!   [`ClosedLoopWorkload::with_retry`]) — every submission arms a
//!   per-request retransmission deadline; if the request has not been
//!   observed committed by then, the client resubmits it — with its
//!   *original* submit timestamp, so end-to-end latency is measured from
//!   first submission — and re-arms. Requests drained into
//!   never-finalized proposals thus re-enter the system instead of being
//!   lost (or, in a closed loop, leaking window slots forever).
//!
//! Everything is a deterministic function of seeds and virtual time:
//! replays of a seeded run reproduce the same requests, batches, retries
//! and latencies bit-for-bit (asserted in
//! `crates/bench/tests/determinism.rs`). With retry and fan-out disabled
//! (the default), the submission stream — including every RNG draw — is
//! bit-identical to the historical single-replica, no-retry behavior.

use std::collections::{HashMap, HashSet, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use banyan_types::app::App;
use banyan_types::engine::CommitEntry;
use banyan_types::ids::ReplicaId;
use banyan_types::time::{Duration, Time};

pub use banyan_mempool::{
    Mempool, MempoolSource, PushOutcome, Request, SharedMempool, WorkloadBatch, DEFAULT_MAX_BATCH,
    DEFAULT_MAX_BATCH_BYTES, DEFAULT_MEMPOOL_CAPACITY,
};

pub use crate::cohort::ClosedLoopWorkload;

/// Per-request retransmission bookkeeping.
///
/// Deadlines are kept in a FIFO: with a constant timeout, re-armed
/// deadlines are always ≥ every queued one, so the queue stays sorted
/// without a heap and retry processing is deterministic.
#[derive(Debug, Default)]
struct RetryState {
    timeout: Option<Duration>,
    /// `(deadline, id)` in nondecreasing deadline order.
    deadlines: VecDeque<(Time, u64)>,
    /// Deadlines armed since the simulator last collected retry ticks.
    pending_ticks: Vec<Time>,
    retries: u64,
}

impl RetryState {
    fn arm(&mut self, id: u64, now: Time) {
        if let Some(timeout) = self.timeout {
            let at = now + timeout;
            self.deadlines.push_back((at, id));
            self.pending_ticks.push(at);
        }
    }
}

/// Pushes `req` into `fanout` pools: the sampled `primary` plus its
/// successors in replica order (deterministic — no extra RNG draws, and
/// with `fanout == 1` exactly the historical single-target behavior).
fn push_fanout(mempools: &[SharedMempool], fanout: usize, primary: usize, req: Request) {
    let n = mempools.len();
    for k in 0..fanout.clamp(1, n) {
        mempools[(primary + k) % n]
            .lock()
            .expect("mempool lock")
            .push(req);
    }
}

/// Swap-buffer drain: clears `out` and swaps it with `pending`, so the
/// two vectors recycle their capacity between calls instead of allocating
/// a fresh `Vec` per event — hot at 10⁵+ modeled clients.
pub(crate) fn swap_ticks(pending: &mut Vec<Time>, out: &mut Vec<Time>) {
    out.clear();
    std::mem::swap(pending, out);
}

/// The half of a client population both workloads share: where requests
/// go (pools, targeting RNG, submit fan-out), what is outstanding (id
/// counter, in-flight map, completion count), retransmission, and the
/// end-of-run freeze. The simulator reaches all of it through
/// `Workload::core`, whichever population is attached.
pub(crate) struct ClientCore {
    mempools: Vec<SharedMempool>,
    /// Replica-targeting RNG: exactly one draw per submission or retry.
    rng: SmallRng,
    next_id: u64,
    fanout: usize,
    retry: RetryState,
    /// Requests submitted and not yet observed committed, by id (retries
    /// consult this map so a committed request is never retransmitted).
    in_flight: HashMap<u64, Request>,
    completed: u64,
    frozen: bool,
}

impl ClientCore {
    pub(crate) fn new(seed: u64, mempools: Vec<SharedMempool>) -> Self {
        assert!(!mempools.is_empty(), "need at least one replica mempool");
        ClientCore {
            mempools,
            rng: SmallRng::seed_from_u64(seed),
            next_id: 0,
            fanout: 1,
            retry: RetryState::default(),
            in_flight: HashMap::new(),
            completed: 0,
            frozen: false,
        }
    }

    pub(crate) fn set_retry(&mut self, timeout: Duration) {
        self.retry.timeout = Some(timeout);
    }

    pub(crate) fn set_fanout(&mut self, fanout: usize) {
        assert!(fanout > 0, "fanout must be positive");
        self.fanout = fanout;
    }

    /// Draws the primary target for one submission or retry.
    fn target(&mut self) -> usize {
        self.rng.gen_range(0..self.mempools.len())
    }

    /// The id the next [`submit`](Self::submit) will assign.
    fn peek_id(&self) -> u64 {
        self.next_id + 1
    }

    /// Submits one fresh `size`-byte request on behalf of `client` at
    /// `now`: one target draw, the next id, fan-out push, retry armed.
    /// Returns the primary target replica.
    pub(crate) fn submit(&mut self, client: u16, size: u64, now: Time) -> ReplicaId {
        let target = self.target();
        self.next_id += 1;
        let req = Request {
            id: self.next_id,
            client,
            size,
            submitted_at: now,
        };
        self.in_flight.insert(req.id, req);
        push_fanout(&self.mempools, self.fanout, target, req);
        self.retry.arm(req.id, now);
        ReplicaId(target as u16)
    }

    /// Settles one committed record: the first delivery of an in-flight
    /// id completes it (returns `true`); later deliveries of the same id
    /// (other replicas committing the block, or a re-gossiped, retried or
    /// fanned-out copy landing in a second block) complete nothing twice
    /// — the client half of the exactly-once dedup rule.
    pub(crate) fn complete(&mut self, id: u64) -> bool {
        let first = self.in_flight.remove(&id).is_some();
        self.completed += u64::from(first);
        first
    }

    /// Handles one retry tick at `now`: every due, still-in-flight
    /// request is resubmitted (original id and submit timestamp, fresh
    /// seeded target) and re-armed. Returns how many were retried.
    pub(crate) fn handle_retry_tick(&mut self, now: Time) -> u64 {
        let mut retried = 0;
        while let Some(&(at, id)) = self.retry.deadlines.front() {
            if at > now {
                break;
            }
            self.retry.deadlines.pop_front();
            if let Some(req) = self.in_flight.get(&id).copied() {
                let target = self.target();
                push_fanout(&self.mempools, self.fanout, target, req);
                self.retry.retries += 1;
                self.retry.arm(id, now);
                retried += 1;
            }
        }
        retried
    }

    /// Drains the retry deadlines armed since the last call into `out`
    /// (see [`swap_ticks`]).
    pub(crate) fn take_pending_retry_ticks_into(&mut self, out: &mut Vec<Time>) {
        swap_ticks(&mut self.retry.pending_ticks, out);
    }

    pub(crate) fn mempools(&self) -> &[SharedMempool] {
        &self.mempools
    }

    /// *Unique* requests currently pending in at least one pool (with
    /// gossip or fan-out a request can have live copies in several).
    pub(crate) fn pending_in_pools(&self) -> u64 {
        let mut ids = HashSet::new();
        for pool in &self.mempools {
            ids.extend(pool.lock().expect("mempool lock").pending_ids());
        }
        ids.len() as u64
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    pub(crate) fn completed(&self) -> u64 {
        self.completed
    }

    pub(crate) fn retries(&self) -> u64 {
        self.retry.retries
    }

    pub(crate) fn frozen(&self) -> bool {
        self.frozen
    }

    pub(crate) fn freeze(&mut self) {
        self.frozen = true;
    }
}

impl std::fmt::Debug for ClientCore {
    /// A summary, not the pools' contents.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientCore")
            .field("replicas", &self.mempools.len())
            .field("fanout", &self.fanout)
            .field("retry", &self.retry.timeout)
            .field("in_flight", &self.in_flight.len())
            .finish_non_exhaustive()
    }
}

/// The public surface both populations share, each method a one-line
/// call into the type's `core` field — defined once so the open and the
/// closed loop cannot drift apart.
macro_rules! shared_client_api {
    () => {
        /// Builder-style: enables per-request retransmission with the
        /// given timeout (see the [`crate::workload`] docs). Without it,
        /// a request lost to a never-finalized proposal stays lost — in
        /// a closed loop, permanently occupying its window slot.
        pub fn with_retry(mut self, timeout: Duration) -> Self {
            self.core.set_retry(timeout);
            self
        }

        /// Builder-style: submits every request to `fanout` replicas
        /// (clamped to the cluster size) instead of one.
        ///
        /// # Panics
        ///
        /// Panics if `fanout` is zero.
        pub fn with_fanout(mut self, fanout: usize) -> Self {
            self.core.set_fanout(fanout);
            self
        }

        /// The per-replica pools this population feeds.
        pub fn mempools(&self) -> &[SharedMempool] {
            self.core.mempools()
        }

        /// *Unique* requests currently pending in at least one pool (with
        /// gossip or fan-out a request can have live copies in several).
        pub fn pending_in_pools(&self) -> u64 {
            self.core.pending_in_pools()
        }

        /// Requests observed committed so far (first delivery per id,
        /// from any replica).
        pub fn completed(&self) -> u64 {
            self.core.completed()
        }

        /// Retransmissions performed so far.
        pub fn retries(&self) -> u64 {
            self.core.retries()
        }

        /// True once [`freeze`](Self::freeze) was called.
        pub fn frozen(&self) -> bool {
            self.core.frozen()
        }

        /// Stops new submissions (retries of already-submitted requests
        /// keep firing). Drivers call this to drain the system at the
        /// end of a measured run.
        pub fn freeze(&mut self) {
            self.core.freeze();
        }

        /// Drains the retry deadlines armed since the last call into
        /// `out` (cleared first; the two buffers swap, so capacity
        /// recycles between calls). The simulator schedules one retry
        /// tick per entry.
        pub fn take_pending_retry_ticks_into(&mut self, out: &mut Vec<Time>) {
            self.core.take_pending_retry_ticks_into(out);
        }

        /// Handles one retry tick at `now`: every due, still-uncommitted
        /// request is resubmitted (original id and submit timestamp,
        /// fresh seeded target) and re-armed. Returns how many were
        /// retried.
        pub fn handle_retry_tick(&mut self, now: Time) -> u64 {
            self.core.handle_retry_tick(now)
        }

        pub(crate) fn core(&self) -> &ClientCore {
            &self.core
        }

        pub(crate) fn core_mut(&mut self) -> &mut ClientCore {
            &mut self.core
        }
    };
}
pub(crate) use shared_client_api;

/// A seeded open-loop client population: `rate` requests per second of
/// `request_size` bytes each, submitted to a seeded-random replica's
/// mempool regardless of how fast the cluster commits (open loop — the
/// defining contrast to a closed loop that waits for completions).
#[derive(Debug)]
pub struct ClientWorkload {
    core: ClientCore,
    interval: Duration,
    request_size: u64,
}

impl ClientWorkload {
    /// An open-loop workload: `rate` requests/sec of `request_size` bytes,
    /// target replica drawn per request from an RNG seeded with `seed`,
    /// feeding `mempools[i]` for replica `i`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero, exceeds 10⁹/s (the inter-arrival interval
    /// would truncate to zero virtual nanoseconds and the tick loop would
    /// never advance time), or `mempools` is empty.
    pub fn open_loop(
        rate: u64,
        request_size: u64,
        seed: u64,
        mempools: Vec<SharedMempool>,
    ) -> Self {
        assert!(rate > 0, "open-loop rate must be positive");
        assert!(
            rate <= 1_000_000_000,
            "open-loop rate above 1e9/s truncates the tick interval to zero"
        );
        ClientWorkload {
            core: ClientCore::new(seed, mempools),
            interval: Duration(1_000_000_000 / rate),
            request_size,
        }
    }

    shared_client_api!();

    /// Time between consecutive submissions.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Submits the next request at `now`, returning the primary target
    /// replica. Called by the simulator on each client tick.
    pub fn submit_next(&mut self, now: Time) -> ReplicaId {
        let client = (self.core.peek_id() % u16::MAX as u64) as u16;
        self.core.submit(client, self.request_size, now)
    }

    /// The completion hook: settles the records of one committed batch
    /// (first delivery per id wins), so loss accounting balances and
    /// settled requests are never retried.
    pub fn settle(&mut self, requests: &[Request]) {
        for req in requests {
            self.core.complete(req.id);
        }
    }
}

impl App for ClientWorkload {
    /// Decodes the delivered block's batch (if any) and
    /// [`settle`](ClientWorkload::settle)s it.
    fn deliver(&mut self, entry: &CommitEntry) {
        if let Some(batch) = WorkloadBatch::decode(&entry.payload) {
            self.settle(&batch.requests);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use banyan_types::ids::{BlockHash, Round};

    /// A commit of `requests` observed at virtual time `at` (ns).
    pub(crate) fn commit_of(requests: Vec<Request>, at: u64) -> CommitEntry {
        CommitEntry {
            round: Round(1),
            block: BlockHash::ZERO,
            proposer: ReplicaId(0),
            payload: WorkloadBatch { requests }.into_payload(),
            proposed_at: Time::ZERO,
            committed_at: Time(at),
            fast: false,
            explicit: true,
        }
    }

    pub(crate) fn think_ticks(w: &mut ClosedLoopWorkload) -> Vec<Time> {
        let mut out = Vec::new();
        w.take_pending_ticks_into(&mut out);
        out
    }

    fn retry_ticks(w: &mut ClosedLoopWorkload) -> Vec<Time> {
        let mut out = Vec::new();
        w.take_pending_retry_ticks_into(&mut out);
        out
    }

    #[test]
    fn closed_loop_primes_full_windows_and_caps_in_flight() {
        let mempools: Vec<SharedMempool> = (0..3).map(|_| Mempool::shared(1_000)).collect();
        let mut w = ClosedLoopWorkload::new(5, 4, Duration::ZERO, 100, 1, mempools.clone());
        assert_eq!(w.prime(Time::ZERO), 20);
        assert_eq!(w.in_flight(), 20);
        assert_eq!(w.max_in_flight(), 20);
        let pending: usize = mempools.iter().map(|m| m.lock().unwrap().len()).sum();
        assert_eq!(pending, 20, "every primed request lands in a mempool");
        assert_eq!(w.pending_in_pools(), 20);
        // No completions yet, so no ticks and nothing to resubmit.
        assert!(think_ticks(&mut w).is_empty());
        assert_eq!(w.handle_tick(Time(1)), 0);
        // Retry is off by default: no deadlines armed.
        assert!(retry_ticks(&mut w).is_empty());
    }

    #[test]
    fn closed_loop_completion_drives_resubmission() {
        let mempools: Vec<SharedMempool> = vec![Mempool::shared(1_000)];
        let think = Duration::from_millis(5);
        let mut w = ClosedLoopWorkload::new(2, 1, think, 100, 1, mempools.clone());
        w.prime(Time::ZERO);
        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(drained.len(), 2);

        // Deliver a batch committing the first request only.
        let batch = vec![drained[0]];
        w.deliver(&commit_of(batch.clone(), 1_000));
        assert_eq!(w.completed(), 1);
        assert_eq!(w.in_flight(), 1);
        let ticks = think_ticks(&mut w);
        assert_eq!(ticks, vec![Time(1_000) + think], "one tick, think later");

        // Re-delivery of the same batch (another replica committing the
        // same block) completes nothing twice.
        w.deliver(&commit_of(batch, 2_000));
        assert_eq!(w.completed(), 1);
        assert!(think_ticks(&mut w).is_empty());

        // The tick resubmits for the completed request's client; the
        // window cap is never exceeded.
        let at = ticks[0];
        assert_eq!(w.handle_tick(at), 1);
        assert_eq!(w.in_flight(), 2);
        assert_eq!(w.submitted(), 3);
        assert!(w.in_flight() as u64 <= w.max_in_flight());
        assert_eq!(w.handle_tick(at), 0, "one tick, one resubmit");
    }

    #[test]
    fn think_multipliers_pair_each_tick_with_the_right_client() {
        let mempools: Vec<SharedMempool> = vec![Mempool::shared(1_000)];
        let think = Duration::from_millis(2);
        let mut w = ClosedLoopWorkload::new(2, 1, think, 100, 1, mempools.clone())
            .with_think_multipliers(vec![1, 10]);
        assert_eq!(w.think_time_for(0), Duration::from_millis(2));
        assert_eq!(w.think_time_for(1), Duration::from_millis(20));
        w.prime(Time::ZERO);
        let mut drained = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(drained.len(), 2);
        // Deliver the SLOW client's completion first: its deadline
        // (commit + 20 ms) must not hijack the fast client's earlier tick.
        drained.sort_by_key(|r| std::cmp::Reverse(r.client));
        w.deliver(&commit_of(drained, 1_000_000));
        let mut ticks = think_ticks(&mut w);
        ticks.sort();
        assert_eq!(ticks, vec![Time(3_000_000), Time(21_000_000)]);
        // The early tick resubmits the ×1 client, the late one the ×10.
        w.handle_tick(ticks[0]);
        let fast = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(fast.iter().map(|r| r.client).collect::<Vec<_>>(), [0]);
        w.handle_tick(ticks[1]);
        let slow = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(slow.iter().map(|r| r.client).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn closed_loop_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<usize> {
            let mempools: Vec<SharedMempool> = (0..4).map(|_| Mempool::shared(1_000)).collect();
            let mut w = ClosedLoopWorkload::new(8, 2, Duration::ZERO, 64, seed, mempools.clone());
            w.prime(Time::ZERO);
            mempools.iter().map(|m| m.lock().unwrap().len()).collect()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds should retarget");
    }

    #[test]
    fn open_loop_generator_is_seed_deterministic() {
        let run = |seed: u64| -> (Vec<u16>, Vec<usize>) {
            let mempools: Vec<SharedMempool> = (0..4).map(|_| Mempool::shared(100)).collect();
            let mut w = ClientWorkload::open_loop(1_000, 64, seed, mempools.clone());
            let targets: Vec<u16> = (0..20)
                .map(|k| w.submit_next(Time(k * w.interval().as_nanos())).0)
                .collect();
            let lens = mempools.iter().map(|m| m.lock().unwrap().len()).collect();
            (targets, lens)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should retarget");
    }

    #[test]
    fn fanout_submits_to_consecutive_replicas() {
        let mempools: Vec<SharedMempool> = (0..4).map(|_| Mempool::shared(100)).collect();
        let mut w =
            ClosedLoopWorkload::new(1, 1, Duration::ZERO, 64, 1, mempools.clone()).with_fanout(3);
        w.prime(Time::ZERO);
        let with_copy = mempools
            .iter()
            .filter(|m| !m.lock().unwrap().is_empty())
            .count();
        assert_eq!(with_copy, 3, "one request, three pools hold a copy");
        assert_eq!(w.submitted(), 1, "fan-out copies are one submission");
        assert_eq!(
            w.pending_in_pools(),
            1,
            "loss accounting counts unique requests, not fan-out copies"
        );
    }

    #[test]
    fn fanout_is_clamped_to_cluster_size() {
        let mempools: Vec<SharedMempool> = (0..2).map(|_| Mempool::shared(100)).collect();
        let mut w = ClientWorkload::open_loop(100, 64, 1, mempools.clone()).with_fanout(10);
        w.submit_next(Time(1));
        let copies: usize = w.mempools().iter().map(|m| m.lock().unwrap().len()).sum();
        assert_eq!(copies, 2, "clamped to one copy per pool");
        assert_eq!(w.pending_in_pools(), 1, "still one unique request");
    }

    #[test]
    fn retry_resubmits_uncommitted_requests_with_original_timestamp() {
        let mempools: Vec<SharedMempool> = vec![Mempool::shared(100)];
        let timeout = Duration::from_millis(10);
        let mut w = ClosedLoopWorkload::new(1, 1, Duration::ZERO, 64, 1, mempools.clone())
            .with_retry(timeout);
        w.prime(Time::ZERO);
        let ticks = retry_ticks(&mut w);
        assert_eq!(ticks, vec![Time::ZERO + timeout], "submission arms retry");

        // The request is drained into a proposal that never finalizes.
        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(drained.len(), 1);

        // The retry tick resubmits it — same id, original timestamp.
        assert_eq!(w.handle_retry_tick(ticks[0]), 1);
        assert_eq!(w.retries(), 1);
        let back = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(back, drained, "identical request re-enters the pool");
        // And the retry re-arms for another period.
        assert_eq!(retry_ticks(&mut w), vec![ticks[0] + timeout]);
    }

    #[test]
    fn retry_skips_completed_requests() {
        let mempools: Vec<SharedMempool> = vec![Mempool::shared(100)];
        let timeout = Duration::from_millis(10);
        let mut w = ClosedLoopWorkload::new(1, 1, Duration::ZERO, 64, 1, mempools.clone())
            .with_retry(timeout);
        w.prime(Time::ZERO);
        let ticks = retry_ticks(&mut w);
        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        // The request commits before its deadline fires.
        w.deliver(&commit_of(drained, 5_000_000));
        assert_eq!(w.handle_retry_tick(ticks[0]), 0, "nothing left to retry");
        assert!(mempools[0].lock().unwrap().is_empty());
        assert!(retry_ticks(&mut w).is_empty(), "no re-arm");
    }

    #[test]
    fn open_loop_retry_tracks_completions() {
        let mempools: Vec<SharedMempool> = vec![Mempool::shared(100)];
        let timeout = Duration::from_millis(10);
        let mut w = ClientWorkload::open_loop(1_000, 64, 1, mempools.clone()).with_retry(timeout);
        w.submit_next(Time(0));
        w.submit_next(Time(1_000_000));
        let mut ticks = Vec::new();
        w.take_pending_retry_ticks_into(&mut ticks);
        assert_eq!(ticks.len(), 2);
        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        // First request commits; the second is lost with its proposal.
        w.deliver(&commit_of(vec![drained[0]], 2_000_000));
        assert_eq!(w.completed(), 1);
        assert_eq!(
            w.handle_retry_tick(ticks[1]),
            1,
            "only the lost one retries"
        );
        let back = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(back, vec![drained[1]]);
    }

    #[test]
    fn pending_ticks_drain_into_a_cleared_buffer() {
        let mempools: Vec<SharedMempool> = vec![Mempool::shared(1_000)];
        let timeout = Duration::from_millis(10);
        let mut w =
            ClosedLoopWorkload::new(2, 1, Duration::from_millis(1), 64, 1, mempools.clone())
                .with_retry(timeout);
        w.prime(Time::ZERO);
        let mut buf = vec![Time(999)]; // stale content must be cleared
        w.take_pending_retry_ticks_into(&mut buf);
        assert_eq!(buf, vec![Time::ZERO + timeout, Time::ZERO + timeout]);
        w.take_pending_retry_ticks_into(&mut buf);
        assert!(buf.is_empty(), "second drain is empty, stale ticks cleared");

        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        w.deliver(&commit_of(drained, 1_000_000));
        w.take_pending_ticks_into(&mut buf);
        let due = Time(1_000_000) + Duration::from_millis(1);
        assert_eq!(buf, vec![due, due], "one think tick per completion");
        w.take_pending_ticks_into(&mut buf);
        assert!(buf.is_empty(), "drained by the swap");
    }

    #[test]
    fn frozen_populations_stop_submitting_but_keep_retrying() {
        let mempools: Vec<SharedMempool> = vec![Mempool::shared(100)];
        let timeout = Duration::from_millis(10);
        let mut w = ClosedLoopWorkload::new(1, 1, Duration::ZERO, 64, 1, mempools.clone())
            .with_retry(timeout);
        w.prime(Time::ZERO);
        let ticks = retry_ticks(&mut w);
        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        w.deliver(&commit_of(drained, 1_000));
        w.freeze();
        // The freed slot does not resubmit while frozen…
        assert_eq!(w.handle_tick(Time(2_000)), 0);
        assert_eq!(w.submitted(), 1);
        // …but a still-in-flight request would keep retrying (here the
        // only request completed, so the tick is a no-op).
        assert_eq!(w.handle_retry_tick(ticks[0]), 0);
    }
}
