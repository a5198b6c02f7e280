//! The client population: one cohort-aggregated model, from one paced
//! open-loop member to 10⁶ modeled clients in O(K) memory.
//!
//! [`ClosedLoopWorkload`] models `modeled_clients` clients as `K`
//! **cohorts** — each cohort aggregates `members` statistically identical
//! clients into four numbers (members, outstanding, deferred demand,
//! token clock). It has two constructors over the same state machine:
//!
//! * [`ClosedLoopWorkload::new`] — one member per cohort: every client is
//!   its own cohort, so per-client windows, think times and latency
//!   series (`RunMetrics::per_client_latencies` keys by the request's
//!   `client` field, which *is* the cohort id) are exact;
//! * [`ClosedLoopWorkload::aggregated`] — `modeled_clients` folded into
//!   `K ≤ 65 535` cohorts, so sweeps reach populations no per-client
//!   bookkeeping could hold.
//!
//! Aggregate submit statistics are *exact* either way:
//!
//! * **window accounting** — a cohort of `m` members with window `w`
//!   never holds more than `m × w` outstanding requests, and the whole
//!   population never exceeds `min(modeled × window, max_outstanding)`
//!   in flight (the *admission cap* bounds driver memory independently
//!   of the modeled population);
//! * **token-bucket pacing** — an optional per-cohort submit interval
//!   (derived from a per-client rate × members) spaces submissions out
//!   instead of flooding the pools at t = 0; deferred slots are counted
//!   as *demand* and pumped as tokens ripen. One paced member whose
//!   window the run cannot fill is the open loop: it submits once per
//!   interval whatever commits.
//!
//! Committed work is observed through the commit path: the simulator
//! decodes each delivered [`WorkloadBatch`] once and hands the records to
//! [`ClosedLoopWorkload::settle`] (the [`App`] impl is the
//! decode-then-settle wrapper for hand-driven use). The first delivery of
//! an in-flight id completes it — later replicas' deliveries of the same
//! block are ignored — and schedules one resubmission a think time
//! later, which the simulator turns into a `ClientTick`.
//!
//! Determinism: replica targeting comes from an RNG seeded with `seed`
//! (exactly one draw per submission or retry), completions arrive in the
//! simulator's deterministic commit order, and resubmissions fire at
//! exact virtual times, so a seeded run reproduces bit-for-bit.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use banyan_types::app::App;
use banyan_types::engine::CommitEntry;
use banyan_types::time::{Duration, Time};

use crate::workload::{Request, SharedMempool, WorkloadBatch};

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
fn swap_ticks(pending: &mut Vec<Time>, out: &mut Vec<Time>) {
    out.clear();
    std::mem::swap(pending, out);
}

/// One cohort's aggregate state: O(1) per cohort regardless of how many
/// clients it models.
#[derive(Debug)]
struct Cohort {
    /// Modeled clients aggregated into this cohort.
    members: u64,
    /// Outstanding-window cap: `members × window`.
    cap: u64,
    /// Requests submitted and not yet observed committed.
    outstanding: u64,
    /// Freed slots that want to submit but were deferred by the token
    /// bucket or the global admission cap.
    demand: u64,
    /// Earliest time the next token is available (`None` interval =
    /// unlimited; the field is then unused).
    next_token_at: Time,
    /// The token tick currently scheduled for this cohort, if any —
    /// dedups pending ticks so a backlogged cohort arms one timer, not
    /// one per deferred slot.
    armed_token_tick: Option<Time>,
    submitted: u64,
    completed: u64,
}

/// Aggregate statistics for one cohort (reporting; see
/// [`ClosedLoopWorkload::cohort_stats`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CohortStats {
    /// Modeled clients in the cohort.
    pub members: u64,
    /// Requests submitted by the cohort so far.
    pub submitted: u64,
    /// Requests observed committed so far.
    pub completed: u64,
    /// Requests currently outstanding.
    pub outstanding: u64,
    /// Freed slots currently deferred by pacing or admission.
    pub demand: u64,
}

/// A seeded closed-loop client population (see the module docs).
///
/// Each modeled client keeps a *window* of `window` outstanding requests:
/// the population is primed with its initial windows, and a slot only
/// submits a replacement once one of its cohort's requests is observed
/// committed — so the offered rate self-regulates to what the cluster can
/// absorb. (Paced with a window the run cannot fill, it is the open loop
/// instead; see the module docs.)
///
/// Invariant: at most [`max_in_flight`](Self::max_in_flight) requests are
/// ever uncommitted. Without [`retry`](Self::with_retry), a request lost
/// to a never-finalized proposal permanently occupies its window slot
/// (mirroring a real closed-loop client that never gets its response and
/// visible as `requests_lost` in the metrics); with retry armed, the
/// request is resubmitted and the slot eventually turns over.
pub struct ClosedLoopWorkload {
    mempools: Vec<SharedMempool>,
    /// Replica-targeting RNG: exactly one draw per submission or retry.
    rng: SmallRng,
    fanout: usize,
    retry: RetryState,
    /// Requests submitted and not yet observed committed, by id (retries
    /// consult this map so a committed request is never retransmitted).
    in_flight: HashMap<u64, Request>,
    completed: u64,
    frozen: bool,
    window: u32,
    think_time: Duration,
    /// Per-cohort think-time multipliers (empty = uniform ×1). Cohort `c`
    /// pauses `think_time × multipliers[c % len]` between a completion
    /// and its replacement submission, skewing per-cohort submit rates.
    think_multipliers: Vec<u32>,
    request_size: u64,
    modeled_clients: u64,
    cohorts: Vec<Cohort>,
    /// Per-submission token interval per *member* (None = unlimited). A
    /// cohort of `m` members paces at `interval / m`.
    interval: Option<Duration>,
    /// Global admission cap: in-flight requests never exceed it, so
    /// driver memory is O(cap), not O(modeled clients × window).
    max_outstanding: u64,
    /// Cohorts whose freed slot is waiting for its think-time tick, keyed
    /// by `(due time, completion seq)` so resubmissions pair with their
    /// own tick even when skewed think times reorder deadlines across
    /// cohorts (with uniform think times this degenerates to completion
    /// order).
    resume_queue: BTreeMap<(Time, u64), u16>,
    /// Completion counter: the deterministic tie-break for equal-time
    /// resubmission deadlines.
    resume_seq: u64,
    /// Tick times produced by completions and token misses and not yet
    /// scheduled.
    pending_ticks: Vec<Time>,
    submitted: u64,
}

impl std::fmt::Debug for ClosedLoopWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosedLoopWorkload")
            .field("clients", &self.modeled_clients)
            .field("cohorts", &self.cohorts.len())
            .field("window", &self.window)
            .field("think_time", &self.think_time)
            .field("max_outstanding", &self.max_outstanding)
            .field("interval", &self.interval)
            .field("replicas", &self.mempools.len())
            .field("fanout", &self.fanout)
            .field("retry", &self.retry.timeout)
            .finish_non_exhaustive()
    }
}

impl ClosedLoopWorkload {
    /// A population of `clients` clients, one cohort each, every client
    /// keeping `window` outstanding `request_size`-byte requests and
    /// pausing `think_time` between a completion and the replacement
    /// submission. Targets are drawn per request from an RNG seeded with
    /// `seed`; `mempools[i]` feeds replica `i`.
    ///
    /// # Panics
    ///
    /// Panics if `clients` or `window` is zero or `mempools` is empty.
    pub fn new(
        clients: u16,
        window: u32,
        think_time: Duration,
        request_size: u64,
        seed: u64,
        mempools: Vec<SharedMempool>,
    ) -> Self {
        Self::aggregated(
            clients as u64,
            clients,
            window,
            think_time,
            request_size,
            seed,
            mempools,
        )
    }

    /// A population of `modeled_clients` clients aggregated into
    /// `cohorts` cohorts (members split as evenly as possible; the first
    /// `modeled_clients % cohorts` cohorts hold one extra). Memory and
    /// per-event work are `O(cohorts)`, so millions of modeled clients
    /// cost the same as dozens.
    ///
    /// # Panics
    ///
    /// Panics if `modeled_clients` or `window` is zero, `cohorts` is
    /// zero or exceeds `modeled_clients` (cohort ids travel in the
    /// request's 16-bit `client` field), or `mempools` is empty.
    pub fn aggregated(
        modeled_clients: u64,
        cohorts: u16,
        window: u32,
        think_time: Duration,
        request_size: u64,
        seed: u64,
        mempools: Vec<SharedMempool>,
    ) -> Self {
        assert!(!mempools.is_empty(), "need at least one replica mempool");
        assert!(modeled_clients > 0, "need at least one client");
        assert!(window > 0, "window must be positive");
        assert!(cohorts > 0, "need at least one cohort");
        assert!(
            cohorts as u64 <= modeled_clients,
            "more cohorts than modeled clients"
        );
        let k = cohorts as u64;
        let base = modeled_clients / k;
        let extra = modeled_clients % k;
        let cohorts: Vec<Cohort> = (0..k)
            .map(|i| {
                let members = base + u64::from(i < extra);
                Cohort {
                    members,
                    cap: members * window as u64,
                    outstanding: 0,
                    demand: 0,
                    next_token_at: Time::ZERO,
                    armed_token_tick: None,
                    submitted: 0,
                    completed: 0,
                }
            })
            .collect();
        ClosedLoopWorkload {
            mempools,
            rng: SmallRng::seed_from_u64(seed),
            fanout: 1,
            retry: RetryState::default(),
            in_flight: HashMap::new(),
            completed: 0,
            frozen: false,
            window,
            think_time,
            think_multipliers: Vec::new(),
            request_size,
            modeled_clients,
            cohorts,
            interval: None,
            max_outstanding: modeled_clients.saturating_mul(window as u64),
            resume_queue: BTreeMap::new(),
            resume_seq: 0,
            pending_ticks: Vec::new(),
            submitted: 0,
        }
    }

    /// Builder-style: enables per-request retransmission with the given
    /// timeout (see the [`crate::workload`] docs). Without it, a request
    /// lost to a never-finalized proposal stays lost, permanently
    /// occupying its window slot.
    pub fn with_retry(mut self, timeout: Duration) -> Self {
        self.retry.timeout = Some(timeout);
        self
    }

    /// Builder-style: submits every request to `fanout` replicas (clamped
    /// to the cluster size) instead of one.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero.
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        assert!(fanout > 0, "fanout must be positive");
        self.fanout = fanout;
        self
    }

    /// Builder-style: paces each *modeled client* at one submission per
    /// `interval` (a cohort of `m` members gets an aggregate interval of
    /// `interval / m`). Without it, freed slots resubmit immediately —
    /// the pure closed loop.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_member_interval(mut self, interval: Duration) -> Self {
        assert!(interval > Duration::ZERO, "token interval must be positive");
        self.interval = Some(interval);
        self
    }

    /// Builder-style: caps the population's total in-flight requests
    /// below `modeled × window`, bounding driver memory for huge modeled
    /// populations. Deferred slots are counted as demand and admitted as
    /// completions free capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_max_outstanding(mut self, cap: u64) -> Self {
        assert!(cap > 0, "admission cap must be positive");
        self.max_outstanding = cap.min(self.modeled_clients.saturating_mul(self.window as u64));
        self
    }

    /// Builder-style: skews per-cohort submit rates. Cohort `c` pauses
    /// `think_time × multipliers[c % multipliers.len()]` between a
    /// completion and its replacement submission, so a ×50 cohort offers
    /// 50× less load than a ×1 cohort. An empty vec (the default) keeps
    /// the uniform rate bit-for-bit; multipliers of zero are allowed
    /// (think-free resubmission for that cohort).
    pub fn with_think_multipliers(mut self, multipliers: Vec<u32>) -> Self {
        self.think_multipliers = multipliers;
        self
    }

    /// The think time cohort `c` pauses before a replacement submission.
    pub fn think_time_for(&self, cohort: u16) -> Duration {
        if self.think_multipliers.is_empty() {
            return self.think_time;
        }
        let k = self.think_multipliers[cohort as usize % self.think_multipliers.len()];
        self.think_time.saturating_mul(k as u64)
    }

    /// Total modeled clients.
    pub fn clients(&self) -> u64 {
        self.modeled_clients
    }

    /// Number of cohorts (equal to [`clients`](Self::clients) for a
    /// population built with [`new`](Self::new)).
    pub fn cohorts(&self) -> u16 {
        self.cohorts.len() as u16
    }

    /// Outstanding-request window per modeled client.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The population's in-flight cap:
    /// `min(clients × window, admission cap)`.
    pub fn max_in_flight(&self) -> u64 {
        self.max_outstanding
    }

    /// Requests currently uncommitted (≤
    /// [`max_in_flight`](Self::max_in_flight); includes any lost to
    /// never-finalized proposals when retry is off).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The per-replica pools this population feeds.
    pub fn mempools(&self) -> &[SharedMempool] {
        &self.mempools
    }

    /// *Unique* requests currently pending in at least one pool (with
    /// gossip or fan-out a request can have live copies in several).
    pub fn pending_in_pools(&self) -> u64 {
        let mut ids = HashSet::new();
        for pool in &self.mempools {
            ids.extend(pool.lock().expect("mempool lock").pending_ids());
        }
        ids.len() as u64
    }

    /// Requests observed committed so far (first delivery per id, from
    /// any replica).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Retransmissions performed so far.
    pub fn retries(&self) -> u64 {
        self.retry.retries
    }

    /// Stops new submissions (retries of already-submitted requests keep
    /// firing). Drivers call this to drain the system at the end of a
    /// measured run.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Requests submitted so far (initial windows + resubmissions;
    /// retransmissions of an already-submitted id are *not* counted — see
    /// [`retries`](Self::retries)).
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Freed slots currently deferred by pacing or admission, across all
    /// cohorts.
    pub fn deferred_demand(&self) -> u64 {
        self.cohorts.iter().map(|c| c.demand).sum()
    }

    /// Aggregate statistics for cohort `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn cohort_stats(&self, c: u16) -> CohortStats {
        let cohort = &self.cohorts[c as usize];
        CohortStats {
            members: cohort.members,
            submitted: cohort.submitted,
            completed: cohort.completed,
            outstanding: cohort.outstanding,
            demand: cohort.demand,
        }
    }

    /// The token interval cohort `c` paces at. `None` = unlimited.
    fn effective_interval(&self, c: usize) -> Option<Duration> {
        let member = self.interval?;
        // Aggregate pacing: m members at one per `member` each.
        Some(Duration((member.0 / self.cohorts[c].members).max(1)))
    }

    /// Draws the primary target for one submission or retry.
    fn target(&mut self) -> usize {
        self.rng.gen_range(0..self.mempools.len())
    }

    /// Submits one request for cohort `c` at `now`: one target draw, the
    /// next id, fan-out push, retry armed. Caller has already checked
    /// window, admission and token constraints.
    fn submit_for(&mut self, c: usize, now: Time) {
        let target = self.target();
        self.submitted += 1;
        let cohort = &mut self.cohorts[c];
        cohort.submitted += 1;
        cohort.outstanding += 1;
        let req = Request {
            id: self.submitted,
            client: c as u16,
            size: self.request_size,
            submitted_at: now,
        };
        self.in_flight.insert(req.id, req);
        push_fanout(&self.mempools, self.fanout, target, req);
        self.retry.arm(req.id, now);
    }

    /// Tries to submit one request for cohort `c` at `now`: consumes a
    /// token when pacing is on, defers to demand when the window, the
    /// admission cap or the token bucket refuses. Returns `true` on
    /// submission.
    fn try_submit(&mut self, c: usize, now: Time) -> bool {
        if self.cohorts[c].outstanding >= self.cohorts[c].cap
            || self.in_flight.len() as u64 >= self.max_outstanding
        {
            // Capacity misses defer *unarmed*: capacity frees on a
            // completion, whose resume tick pumps the demand — arming a
            // timer here would busy-spin the event queue.
            self.cohorts[c].demand += 1;
            return false;
        }
        match self.effective_interval(c) {
            None => {
                self.submit_for(c, now);
                true
            }
            Some(interval) => {
                if now >= self.cohorts[c].next_token_at {
                    self.cohorts[c].next_token_at = now + interval;
                    self.submit_for(c, now);
                    true
                } else {
                    // Token miss: defer and arm (at most) one tick at
                    // the token's ripe time, which is strictly ahead of
                    // `now`.
                    let cohort = &mut self.cohorts[c];
                    cohort.demand += 1;
                    let at = cohort.next_token_at;
                    if cohort.armed_token_tick != Some(at) {
                        cohort.armed_token_tick = Some(at);
                        self.pending_ticks.push(at);
                    }
                    false
                }
            }
        }
    }

    /// Pumps deferred demand at `now`: every cohort with demand submits
    /// while its window, the admission cap and its token clock allow.
    /// Returns how many requests were submitted. With no pacing
    /// configured, demand only accrues at the admission cap, so the pump
    /// makes no RNG draws for a population built with
    /// [`new`](Self::new).
    fn pump(&mut self, now: Time) -> u64 {
        let mut submitted = 0;
        for c in 0..self.cohorts.len() {
            if self.cohorts[c].demand == 0 {
                continue;
            }
            // Disarm only a timer that has fired: clearing a still-future
            // arm would let every unrelated tick re-push the same token
            // tick, multiplying ClientTick events into a storm.
            if self.cohorts[c].armed_token_tick.is_some_and(|at| at <= now) {
                self.cohorts[c].armed_token_tick = None;
            }
            while self.cohorts[c].demand > 0 {
                // `try_submit` re-defers on a miss; balance the counter
                // before the attempt so a deferral is not double-counted.
                self.cohorts[c].demand -= 1;
                if self.try_submit(c, now) {
                    submitted += 1;
                } else {
                    break;
                }
            }
        }
        submitted
    }

    /// Handles one client tick at `now`: the earliest freed slot (if
    /// any) submits its replacement, then deferred demand is pumped.
    /// Returns how many requests were submitted (always 0 once the
    /// population is frozen for draining).
    pub fn handle_tick(&mut self, now: Time) -> u64 {
        if self.frozen {
            return 0;
        }
        let mut submitted = 0;
        // Pop the earliest freed slot only once its think time is due —
        // a token tick must not steal a future resume slot. (Resume
        // ticks are scheduled at exactly the due time, so the slot's own
        // tick always finds it due.)
        if let Some(&key) = self.resume_queue.keys().next() {
            if key.0 <= now {
                let c = self.resume_queue.remove(&key).expect("key just read");
                if self.try_submit(c as usize, now) {
                    submitted += 1;
                }
            }
        }
        submitted + self.pump(now)
    }

    /// Submits the initial windows at `now`, pacing-aware: each cohort
    /// primes `cap` slots, deferring what the token bucket or admission
    /// cap rejects (so a paced million-client population ramps up instead
    /// of flooding the pools at t = 0). Returns how many requests were
    /// submitted. The simulator calls this once at attach.
    pub fn prime(&mut self, now: Time) -> u64 {
        let before = self.submitted;
        for c in 0..self.cohorts.len() {
            for _ in 0..self.cohorts[c].cap {
                self.try_submit(c, now);
            }
        }
        self.submitted - before
    }

    /// Drains the tick times produced since the last call into `out`
    /// (cleared first; the two buffers swap, so capacity recycles
    /// between calls). The simulator schedules one `ClientTick` per
    /// entry.
    pub fn take_pending_ticks_into(&mut self, out: &mut Vec<Time>) {
        swap_ticks(&mut self.pending_ticks, out);
    }

    /// Drains the retry deadlines armed since the last call into `out`
    /// (cleared first, buffers swapped as for
    /// [`take_pending_ticks_into`](Self::take_pending_ticks_into)). The
    /// simulator schedules one retry tick per entry.
    pub fn take_pending_retry_ticks_into(&mut self, out: &mut Vec<Time>) {
        swap_ticks(&mut self.retry.pending_ticks, out);
    }

    /// Handles one retry tick at `now`: every due, still-uncommitted
    /// request is resubmitted (original id and submit timestamp, fresh
    /// seeded target) and re-armed. Returns how many were retried.
    pub fn handle_retry_tick(&mut self, now: Time) -> u64 {
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

    /// The completion hook: settles the records of one committed batch.
    /// Every record still in flight completes, frees its cohort's slot
    /// and schedules a replacement one think time after `committed_at`.
    /// Later deliveries of the same id (other replicas committing the
    /// block, or a re-gossiped, retried or fanned-out copy landing in a
    /// second block) complete nothing twice — the client half of the
    /// exactly-once dedup rule.
    pub fn settle(&mut self, requests: &[Request], committed_at: Time) {
        for req in requests {
            if self.in_flight.remove(&req.id).is_none() {
                continue;
            }
            self.completed += 1;
            let c = req.client as usize % self.cohorts.len();
            let cohort = &mut self.cohorts[c];
            cohort.completed += 1;
            cohort.outstanding = cohort.outstanding.saturating_sub(1);
            let due = committed_at + self.think_time_for(c as u16);
            self.resume_queue.insert((due, self.resume_seq), c as u16);
            self.resume_seq += 1;
            self.pending_ticks.push(due);
        }
    }
}

impl App for ClosedLoopWorkload {
    /// Decodes the delivered block's batch (if any) and
    /// [`settle`](ClosedLoopWorkload::settle)s it.
    fn deliver(&mut self, entry: &CommitEntry) {
        if let Some(batch) = WorkloadBatch::decode(&entry.payload) {
            self.settle(&batch.requests, entry.committed_at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::{commit_of, think_ticks};
    use crate::workload::Mempool;

    fn pools(n: usize) -> Vec<SharedMempool> {
        (0..n).map(|_| Mempool::shared(1 << 20)).collect()
    }

    fn drain_all(mempools: &[SharedMempool]) -> Vec<Vec<Request>> {
        mempools
            .iter()
            .map(|m| m.lock().unwrap().drain(usize::MAX))
            .collect()
    }

    #[test]
    fn one_member_per_cohort_primes_the_same_pools_as_new() {
        for (clients, window, seed) in [(1u16, 1u32, 0u64), (7, 3, 42), (64, 4, 9)] {
            let per_client = pools(4);
            let folded = pools(4);
            let mut a = ClosedLoopWorkload::new(
                clients,
                window,
                Duration::ZERO,
                200,
                seed,
                per_client.clone(),
            );
            let mut b = ClosedLoopWorkload::aggregated(
                clients as u64,
                clients,
                window,
                Duration::ZERO,
                200,
                seed,
                folded.clone(),
            );
            assert_eq!(a.prime(Time::ZERO), b.prime(Time::ZERO));
            assert_eq!(a.max_in_flight(), b.max_in_flight());
            assert_eq!(drain_all(&per_client), drain_all(&folded));
        }
    }

    #[test]
    fn million_clients_prime_in_cohort_memory() {
        let mempools = pools(4);
        let mut w = ClosedLoopWorkload::aggregated(
            1_000_000,
            64,
            4,
            Duration::ZERO,
            64,
            42,
            mempools.clone(),
        )
        .with_max_outstanding(10_000);
        assert_eq!(w.prime(Time::ZERO), 10_000, "admission cap bounds prime");
        assert_eq!(w.in_flight(), 10_000);
        assert_eq!(w.max_in_flight(), 10_000);
        assert_eq!(
            w.deferred_demand(),
            4_000_000 - 10_000,
            "the rest is aggregate demand, not per-request state"
        );
        assert_eq!(w.pending_in_pools(), 10_000);
    }

    #[test]
    fn members_split_evenly_with_remainder_up_front() {
        let w = ClosedLoopWorkload::aggregated(10, 3, 1, Duration::ZERO, 64, 1, pools(1));
        let members: Vec<u64> = (0..3).map(|c| w.cohort_stats(c).members).collect();
        assert_eq!(members, [4, 3, 3]);
        assert_eq!(members.iter().sum::<u64>(), 10);
        assert_eq!((w.clients(), w.cohorts(), w.window()), (10, 3, 1));
    }

    #[test]
    fn completion_frees_slot_and_resubmits_on_tick() {
        let mempools = pools(1);
        let mut w = ClosedLoopWorkload::aggregated(
            4,
            2,
            1,
            Duration::from_millis(5),
            64,
            1,
            mempools.clone(),
        );
        assert_eq!(w.prime(Time::ZERO), 4);
        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        w.deliver(&commit_of(vec![drained[0]], 1_000_000));
        assert_eq!(w.completed(), 1);
        assert_eq!(w.in_flight(), 3);
        let stats = w.cohort_stats(drained[0].client);
        assert_eq!((stats.completed, stats.outstanding), (1, 1));
        let ticks = think_ticks(&mut w);
        assert_eq!(ticks, vec![Time(1_000_000) + Duration::from_millis(5)]);
        assert_eq!(w.handle_tick(ticks[0]), 1, "the freed slot resubmits");
        assert_eq!(w.in_flight(), 4);
        assert!(w.in_flight() as u64 <= w.max_in_flight());
    }

    #[test]
    fn token_bucket_paces_submissions() {
        let mempools = pools(1);
        // 2 modeled clients in one cohort, window 2, one submission per
        // client per 10 ms → cohort interval 5 ms.
        let mut w =
            ClosedLoopWorkload::aggregated(2, 1, 2, Duration::ZERO, 64, 1, mempools.clone())
                .with_member_interval(Duration::from_millis(10));
        assert_eq!(w.prime(Time::ZERO), 1, "one token at t=0");
        assert_eq!(w.deferred_demand(), 3);
        let ticks = think_ticks(&mut w);
        assert_eq!(ticks, vec![Time(5_000_000)], "one armed token tick");
        assert_eq!(w.handle_tick(Time(5_000_000)), 1, "next token admits one");
        assert_eq!(w.deferred_demand(), 2);
        // The pump re-arms itself at the next token's ripe time.
        assert_eq!(think_ticks(&mut w), vec![Time(10_000_000)]);
    }

    #[test]
    fn admission_cap_admits_as_completions_free_capacity() {
        let mempools = pools(1);
        let mut w =
            ClosedLoopWorkload::aggregated(8, 2, 1, Duration::ZERO, 64, 1, mempools.clone())
                .with_max_outstanding(2);
        assert_eq!(w.prime(Time::ZERO), 2);
        assert_eq!(w.deferred_demand(), 6);
        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        w.deliver(&commit_of(drained, 1_000));
        assert_eq!(w.in_flight(), 0);
        let ticks = think_ticks(&mut w);
        assert!(!ticks.is_empty());
        w.handle_tick(ticks[0]);
        assert_eq!(w.in_flight(), 2, "freed capacity re-admits deferred demand");
        assert!(w.in_flight() as u64 <= w.max_in_flight());
    }

    #[test]
    fn retry_resubmits_with_original_timestamp() {
        let mempools = pools(1);
        let timeout = Duration::from_millis(10);
        // Three members folded into one cohort: retry is per request,
        // whatever the aggregation.
        let mut w =
            ClosedLoopWorkload::aggregated(3, 1, 1, Duration::ZERO, 64, 1, mempools.clone())
                .with_retry(timeout);
        w.prime(Time::ZERO);
        let mut ticks = Vec::new();
        w.take_pending_retry_ticks_into(&mut ticks);
        assert_eq!(ticks, vec![Time::ZERO + timeout; 3]);
        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(w.handle_retry_tick(ticks[0]), 3);
        let back = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(back, drained, "identical requests re-enter the pool");
    }

    #[test]
    fn frozen_population_stops_submitting() {
        let mempools = pools(1);
        let mut w =
            ClosedLoopWorkload::aggregated(2, 1, 1, Duration::ZERO, 64, 1, mempools.clone());
        w.prime(Time::ZERO);
        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        w.deliver(&commit_of(drained, 1_000));
        w.freeze();
        let ticks = think_ticks(&mut w);
        assert_eq!(w.handle_tick(ticks[0]), 0, "frozen: no resubmission");
        assert_eq!(w.submitted(), 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| -> (u64, Vec<usize>) {
            let mempools = pools(4);
            let mut w = ClosedLoopWorkload::aggregated(
                100_000,
                32,
                2,
                Duration::ZERO,
                64,
                seed,
                mempools.clone(),
            )
            .with_max_outstanding(1_000);
            w.prime(Time::ZERO);
            let lens = mempools.iter().map(|m| m.lock().unwrap().len()).collect();
            (w.submitted(), lens)
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).1, run(4).1, "different seeds retarget");
    }
}
