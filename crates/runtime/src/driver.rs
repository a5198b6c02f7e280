//! The one replica step: everything a replica does around its [`Engine`],
//! with time and the network supplied by whoever drives it.
//!
//! A [`Replica`] owns its engine, its timer heap, its optional request
//! pool and its catch-up machine, and knows whether it is up. Its inputs
//! are the three things that can happen to a replica — a frame arrives
//! ([`Replica::on_frame`]), a deadline passes ([`Replica::on_timer`]), the
//! process dies or comes back ([`Replica::crash`], [`Replica::rejoin`]) —
//! and everything it does in answer goes to one [`ReplicaIo`]: frames to
//! put on the wire, finalized blocks, and the wake-ups it armed. Nothing
//! here performs I/O or reads a clock, so the simulator and the TCP loop
//! run this same code and differ only in their `ReplicaIo`:
//!
//! * the simulator's charges links and jitter, schedules one wake-up event
//!   per [`ReplicaIo::armed`] in its global queue, meters crypto work as
//!   [`ReplicaIo::busy`] time and fetches from the nearest live peer;
//! * the TCP loop's encodes frames into per-peer backlogs, waits on
//!   [`Replica::next_deadline`] and fetches round-robin, blind to who is up.
//!
//! # Idle hold
//!
//! A rank-0 leader that proposes whenever it enters a round keeps an idle
//! cluster finalizing empty blocks back to back. So a rank-0 `Propose`
//! timer (the engine marks it with
//! [`hold_until`](TimerKind::Propose::hold_until)) that fires while the
//! replica's pool is idle (nothing a leader could propose, and the pool
//! gossips, so it would see requests that reach other pools:
//! [`Mempool::is_idle`](banyan_mempool::Mempool::is_idle)) is **held**:
//! the first [`Replica::flush`] that finds the pool busy fires it, and so
//! does its bound, Δ after the round started, if no request came. Backup
//! timers, replicas without a pool and engines that never set the bound
//! are never held. A held proposal whose round was left is dropped, and
//! a crash or rejoin clears it. A driver must therefore flush a pool a
//! request reached: the simulator flushes the pools an event can fill,
//! and the TCP loop, which flushes once per step, is woken by the pool's
//! [`ArrivalHook`](banyan_mempool::ArrivalHook).

use banyan_mempool::{ReplicaPool, WorkloadBatch};
use banyan_storage::catchup::{frontier_info, CatchUpState, Inbound};
use banyan_types::engine::{Actions, CommitEntry, Engine, Outbound, TimerKind, TimerRequest};
use banyan_types::ids::{ReplicaId, Round};
use banyan_types::message::{Message, SyncMsg};
use banyan_types::time::{Duration, Time};

use crate::queue::EventQueue;

/// True if `kind` belongs to a round the engine has already left.
///
/// Every engine in the workspace treats such timers as no-ops (`propose`
/// and `heartbeat` bail when `round != current`, HotStuff ignores old
/// views, Streamlet old epochs), so a replica drops them without delivery.
/// Timers for the current or a future round are always delivered.
fn is_stale(kind: &TimerKind, current_round: Round) -> bool {
    kind.scope_round() < current_round.0
}

/// One entry of a replica's timer heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wake {
    /// An engine timer.
    Timer(TimerKind),
    /// The deadline of an in-flight catch-up probe or fetch.
    CatchUp,
    /// The bound of the proposal held for this round: it fires then if
    /// no request released it first.
    HoldBound(u64),
}

/// One replica's pending wake-ups: an [`EventQueue`] of [`Wake`]s, the
/// engine's timers and the catch-up deadlines in one heap, so that equal
/// deadlines pop in arming order whatever their kind.
#[derive(Default)]
struct TimerSet {
    queue: EventQueue<Wake>,
}

impl TimerSet {
    /// Arms an engine timer, clamping its deadline to `now` so timers
    /// always fire at or after the moment they were requested. Returns the
    /// clamped deadline.
    fn arm(&mut self, request: TimerRequest, now: Time) -> Time {
        let at = request.at.max(now);
        self.queue.push(at, Wake::Timer(request.kind));
        at
    }

    /// Arms a catch-up deadline, or a held proposal's bound.
    fn arm_wake(&mut self, at: Time, wake: Wake) {
        self.queue.push(at, wake);
    }

    /// Earliest pending deadline, if any. (May belong to a stale timer;
    /// use only as a wake-up bound, never as a liveness signal.)
    fn next_deadline(&self) -> Option<Time> {
        self.queue.next_at()
    }

    /// Pops the engine timers of rounds before `current_round` from the
    /// head of the heap, up to the first wake-up that is not one. Returns
    /// how many it dropped.
    fn drop_stale_heads(&mut self, current_round: Round) -> u64 {
        let mut dropped = 0;
        while let Some((_, Wake::Timer(kind))) = self.queue.peek() {
            if !is_stale(kind, current_round) {
                break;
            }
            self.queue.pop();
            dropped += 1;
        }
        dropped
    }

    /// Pops the earliest wake-up if it is due at `now`. Equal deadlines pop
    /// in arming order.
    fn pop_due(&mut self, now: Time) -> Option<(Time, Wake)> {
        self.queue.pop_due(now)
    }
}

/// What [`Replica::on_timer`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Due {
    /// No wake-up was due.
    Nothing,
    /// An engine timer of a round the engine has left, or the bound of
    /// a hold that was already released: dropped, and nothing else
    /// happened.
    Stale,
    /// A rank-0 proposal found the pool idle and is held (see the module
    /// docs); its bound was armed.
    Held,
    /// A timer fired, or catch-up was re-driven.
    Fired,
}

/// The driver's side of a replica step: where its effects go.
pub trait ReplicaIo {
    /// Puts one frame on the wire.
    fn transmit(&mut self, out: Outbound);

    /// Takes one finalized block, in the order the engine emitted them,
    /// after the replica's pool retired it. `batch` is the workload batch
    /// the pool decoded from its payload: `None` without a pool, or for a
    /// payload that is no batch.
    fn commit(&mut self, entry: CommitEntry, batch: Option<WorkloadBatch>);

    /// The peer a catching-up replica asks for its next range; `None`
    /// when nobody can be asked (the window then lapses).
    fn fetch_peer(&mut self) -> Option<ReplicaId>;

    /// A wake-up was armed for `at`. A driver with an event queue of its
    /// own schedules one [`Replica::on_timer`] call there per call here,
    /// which then fires exactly this wake-up; one that polls
    /// [`Replica::next_deadline`] ignores it (the default).
    fn armed(&mut self, _at: Time) {}

    /// CPU time the engine's handling of one frame took: the frames and
    /// timers it produced leave that much later. The default, zero, is a
    /// wall-clock driver's, whose clock already moved.
    fn busy(&mut self, _engine: &dyn Engine) -> Duration {
        Duration::ZERO
    }
}

/// One replica: engine, timer heap, optional pool, catch-up, up or down.
/// See the module docs.
pub struct Replica<P> {
    me: ReplicaId,
    /// `None` while down: a crashed replica holds no volatile state.
    engine: Option<Box<dyn Engine>>,
    timers: TimerSet,
    /// The rank-0 `Propose` timer held while the pool is idle.
    held: Option<TimerKind>,
    /// Request dissemination: takes in gossip, supplies it, leases the
    /// blocks crossing the wire and retires commits. Survives a crash
    /// (clients keep it, as they keep the durable store).
    pool: Option<P>,
    /// The machine of the latest rejoin; kept once done.
    catchup: Option<CatchUpState>,
    catchup_timeout: Duration,
    stale_timers: u64,
    sync_requests: u64,
    sync_blocks_served: u64,
    recovery_ms: u64,
}

impl<P: ReplicaPool> Replica<P> {
    /// A replica around `engine`, up but not yet initialized
    /// ([`init`](Self::init)); a probe or fetch of its catch-up lapses
    /// after `catchup_timeout`.
    pub fn new(engine: Box<dyn Engine>, pool: Option<P>, catchup_timeout: Duration) -> Self {
        Replica {
            me: engine.id(),
            engine: Some(engine),
            timers: TimerSet::default(),
            held: None,
            pool,
            catchup: None,
            catchup_timeout,
            stale_timers: 0,
            sync_requests: 0,
            sync_blocks_served: 0,
            recovery_ms: 0,
        }
    }

    /// Wires in a request pool after construction.
    pub fn attach_pool(&mut self, pool: P) {
        self.pool = Some(pool);
    }

    /// The engine, unless the replica is down.
    pub fn engine(&self) -> Option<&dyn Engine> {
        self.engine.as_deref()
    }

    /// The request pool, if one is wired in.
    pub fn pool(&self) -> Option<&P> {
        self.pool.as_ref()
    }

    /// False between [`crash`](Self::crash) and [`rejoin`](Self::rejoin).
    pub fn is_up(&self) -> bool {
        self.engine.is_some()
    }

    /// Deadline of the earliest pending wake-up that can still do
    /// something: engine timers of rounds the engine has left are first
    /// dropped from the head of the heap (and counted, once, in
    /// [`stale_timers_dropped`](Self::stale_timers_dropped)), so a driver
    /// that waits on this deadline does not wake for them. Such a timer
    /// behind a live one is dropped when it reaches the head, or when it
    /// pops. A driver that schedules one [`on_timer`](Self::on_timer) per
    /// [`ReplicaIo::armed`] — the simulator — never asks.
    pub fn next_deadline(&mut self) -> Option<Time> {
        if let Some(engine) = &self.engine {
            self.stale_timers += self.timers.drop_stale_heads(engine.current_round());
        }
        self.timers.next_deadline()
    }

    /// Timers dropped as stale, over every life.
    pub fn stale_timers_dropped(&self) -> u64 {
        self.stale_timers
    }

    /// Catch-up probes and fetches issued, over every rejoin.
    pub fn sync_requests(&self) -> u64 {
        self.sync_requests
    }

    /// Blocks served to others in catch-up batches.
    pub fn sync_blocks_served(&self) -> u64 {
        self.sync_blocks_served
    }

    /// Milliseconds from each rejoin until its catch-up finished, summed.
    pub fn recovery_ms(&self) -> u64 {
        self.recovery_ms
    }

    /// Delivers the engine's one-time init event.
    pub fn init(&mut self, now: Time, io: &mut impl ReplicaIo) {
        if let Some(engine) = &mut self.engine {
            let actions = engine.on_init(now);
            self.route(actions, now, io);
        }
    }

    /// Sends whatever gossip the pool has queued, then releases a held
    /// proposal if the pool now holds a request. A down replica's gossip
    /// is drained and dropped: a dead process sends nothing. Returns true
    /// if gossip is still queued (a peer queue held more than one flush
    /// takes): the next flush sends more even if nothing is added.
    pub fn flush(&mut self, now: Time, io: &mut impl ReplicaIo) -> bool {
        let Some(pool) = &self.pool else { return false };
        // Collected first: the frames are encoded outside the pool's lock,
        // which clients pushing into the pool wait on.
        let mut frames = Vec::new();
        let backlog = pool.flush(&mut |out| frames.push(out));
        if self.engine.is_some() {
            frames.into_iter().for_each(|out| io.transmit(out));
        }
        if self.holds_releasable() {
            let kind = self.held.take().expect("a held proposal");
            self.fire(kind, now, io);
        }
        backlog
    }

    /// True if a proposal is held while the pool holds a request: what
    /// the next [`flush`](Self::flush) releases.
    pub fn holds_releasable(&self) -> bool {
        let busy = |pool: &P| pool.with_pool(|pool| !pool.is_idle());
        self.held.is_some() && self.pool.as_ref().is_some_and(busy)
    }

    /// Handles one frame from `from`. Request gossip feeds the pool, a
    /// frontier probe is answered from the engine's commit frontier, a
    /// frontier report feeds catch-up: engines never see these. Every
    /// other frame is the engine's, and the blocks it carries first-hand
    /// are leased in the pool first (`Message::first_hand_blocks`: a relay
    /// is left to the engine). A down replica drops every frame.
    pub fn on_frame(&mut self, from: ReplicaId, msg: Message, now: Time, io: &mut impl ReplicaIo) {
        let Some(engine) = &mut self.engine else {
            return;
        };
        match Inbound::classify(msg) {
            Inbound::Dissemination(frame) => {
                if let Some(pool) = &self.pool {
                    pool.intake(from, frame);
                }
            }
            Inbound::FrontierProbe => io.transmit(frontier_info(from, engine.finalized_round())),
            Inbound::FrontierInfo(finalized) => {
                if let Some(machine) = &mut self.catchup {
                    machine.on_frontier(finalized);
                }
                self.drive_catchup(now, io);
            }
            Inbound::Engine(msg) => {
                if let Some(pool) = &self.pool {
                    pool.observe_inbound(from, &msg);
                }
                let batch = matches!(msg, Message::Sync(SyncMsg::ResponseBatch { .. }));
                let actions = engine.on_message(from, msg, now);
                // The engine saw the arrival instant; what it produced
                // leaves once its CPU time is spent.
                let now = now + io.busy(engine.as_ref());
                self.route(actions, now, io);
                // Only an adopted batch reports local progress.
                if batch {
                    let frontier = self.frontier();
                    if let Some(machine) = &mut self.catchup {
                        machine.on_progress(frontier);
                    }
                    self.drive_catchup(now, io);
                }
            }
        }
    }

    /// Fires the earliest wake-up if it is due at `now`: an engine timer
    /// (dropped if its round was left), or a catch-up deadline that
    /// re-drives the machine. A driver that polls calls this until
    /// nothing is due.
    pub fn on_timer(&mut self, now: Time, io: &mut impl ReplicaIo) -> Due {
        let Some((_, wake)) = self.timers.pop_due(now) else {
            return Due::Nothing;
        };
        match wake {
            Wake::Timer(kind) => match self.hold_bound(&kind, now) {
                Some(until) => {
                    // A held proposal still here was left with its round.
                    if self.held.replace(kind).is_some() {
                        self.stale_timers += 1;
                    }
                    self.timers
                        .arm_wake(until, Wake::HoldBound(kind.scope_round()));
                    io.armed(until);
                    Due::Held
                }
                None => self.fire(kind, now, io),
            },
            Wake::HoldBound(round) => match self.held.take_if(|k| k.scope_round() == round) {
                Some(kind) => self.fire(kind, now, io),
                None => Due::Stale,
            },
            Wake::CatchUp => {
                self.drive_catchup(now, io);
                Due::Fired
            }
        }
    }

    /// The instant a timer due now may be held until: `Some` for a
    /// rank-0 proposal of the current round, within its bound, on a
    /// replica whose pool is idle.
    fn hold_bound(&self, kind: &TimerKind, now: Time) -> Option<Time> {
        let TimerKind::Propose {
            hold_until: Some(until),
            ..
        } = *kind
        else {
            return None;
        };
        if is_stale(kind, self.engine.as_ref()?.current_round()) {
            return None;
        }
        let idle = self.pool.as_ref()?.with_pool(|pool| pool.is_idle());
        (idle && now < until).then_some(until)
    }

    /// Hands one engine timer to the engine, unless its round was left
    /// (or the replica is down): then it is dropped.
    fn fire(&mut self, kind: TimerKind, now: Time, io: &mut impl ReplicaIo) -> Due {
        match &mut self.engine {
            Some(engine) if !is_stale(&kind, engine.current_round()) => {
                let actions = engine.on_timer(kind, now);
                self.route(actions, now, io);
                Due::Fired
            }
            _ => {
                self.stale_timers += 1;
                Due::Stale
            }
        }
    }

    /// The process dies: engine, timers, a held proposal and catch-up
    /// are dropped. Only the durable store (the engine's WAL) and the pool
    /// survive. Read what you need off [`engine`](Self::engine) first.
    pub fn crash(&mut self) {
        self.engine = None;
        self.timers = TimerSet::default();
        self.held = None;
        self.catchup = None;
    }

    /// The process comes back as `engine`, rebuilt from durable state: it
    /// is initialized, then catches up to the live commit frontier —
    /// probing peers for it, fetching the missing rounds in windows, and
    /// re-driving on each answer, each adopted batch and each lapsed
    /// deadline.
    ///
    /// # Panics
    ///
    /// Panics if `engine` is another replica's.
    pub fn rejoin(&mut self, engine: Box<dyn Engine>, now: Time, io: &mut impl ReplicaIo) {
        assert_eq!(engine.id(), self.me, "rejoin rebuilt the wrong replica");
        self.engine = Some(engine);
        self.held = None;
        self.init(now, io);
        let frontier = self.frontier();
        self.catchup = Some(CatchUpState::new(frontier, now, self.catchup_timeout));
        self.drive_catchup(now, io);
    }

    /// The engine's finalized frontier (genesis while down).
    fn frontier(&self) -> Round {
        self.engine()
            .map_or(Round::GENESIS, |e| e.finalized_round())
    }

    /// Runs the catch-up machine, if one is still catching up: its traffic
    /// goes out, and while it waits a wake-up is armed one timeout out.
    fn drive_catchup(&mut self, now: Time, io: &mut impl ReplicaIo) {
        let Some(machine) = self.catchup.as_mut().filter(|m| !m.is_done()) else {
            return;
        };
        let asked = machine.requests_issued();
        let mut frames = Vec::new();
        let waiting = machine.drive(now, || io.fetch_peer(), &mut |out| frames.push(out));
        self.sync_requests += machine.requests_issued() - asked;
        frames.into_iter().for_each(|out| io.transmit(out));
        if waiting {
            let at = now + self.catchup_timeout;
            self.timers.arm_wake(at, Wake::CatchUp);
            io.armed(at);
        } else {
            self.recovery_ms += now.since(machine.started_at()).as_nanos() / 1_000_000;
        }
    }

    /// Routes one [`Actions`] bundle. Every outbound block is leased in the
    /// pool first; then commits, timers and transmissions, each in the
    /// engine's emission order.
    fn route(&mut self, actions: Actions, now: Time, io: &mut impl ReplicaIo) {
        for out in &actions.outbound {
            if let Some(pool) = &self.pool {
                pool.observe_outbound(out);
            }
            let (Outbound::Broadcast(msg) | Outbound::Send(_, msg)) = out;
            self.sync_blocks_served += msg.sync_batch_blocks().len() as u64;
        }
        for entry in actions.commits {
            let batch = self.pool.as_ref().and_then(|pool| pool.retire(&entry));
            io.commit(entry, batch);
        }
        for timer in actions.timers {
            let at = self.timers.arm(timer, now);
            io.armed(at);
        }
        for out in actions.outbound {
            io.transmit(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banyan_mempool::SharedMempool;
    use banyan_types::ids::BlockHash;

    /// An engine in `round` that arms `timers` and commits `commits` at
    /// init, answers every timer with a `FrontierInfo` naming the timer's
    /// round, and echoes every frame it is handed back to its sender (so
    /// what fired, and what reached it, shows up as traffic). Every frame
    /// it is handed moves it one round on.
    struct Scripted {
        round: Round,
        init: Vec<TimerRequest>,
        commits: u64,
    }

    impl Engine for Scripted {
        fn id(&self) -> ReplicaId {
            ReplicaId(0)
        }
        fn protocol_name(&self) -> &'static str {
            "scripted"
        }
        fn on_init(&mut self, _now: Time) -> Actions {
            let mut a = Actions::none();
            for round in 1..=self.commits {
                a.commit(CommitEntry {
                    round: Round(round),
                    block: BlockHash([round as u8; 32]),
                    proposer: ReplicaId(0),
                    payload: banyan_types::Payload::empty(),
                    proposed_at: Time::ZERO,
                    committed_at: Time(round),
                    fast: false,
                    explicit: true,
                });
            }
            for t in &self.init {
                a.arm(t.at, t.kind);
            }
            a.send(
                ReplicaId(1),
                Message::Sync(SyncMsg::Request {
                    hash: BlockHash::ZERO,
                }),
            );
            a
        }
        fn on_message(&mut self, from: ReplicaId, msg: Message, _now: Time) -> Actions {
            self.round = self.round.next();
            let mut a = Actions::none();
            a.send(from, msg);
            a
        }
        fn on_timer(&mut self, kind: TimerKind, _now: Time) -> Actions {
            let mut a = Actions::none();
            let finalized = Round(kind.scope_round());
            a.send(
                ReplicaId(1),
                Message::Sync(SyncMsg::FrontierInfo { finalized }),
            );
            a
        }
        fn current_round(&self) -> Round {
            self.round
        }
    }

    /// What a step did, in order.
    // A handful per test: the frame's size costs nothing.
    #[allow(clippy::large_enum_variant)]
    #[derive(Debug, PartialEq)]
    enum Effect {
        Sent(Outbound),
        Committed(Round),
        Armed(Time),
    }

    #[derive(Default)]
    struct Log(Vec<Effect>);

    impl ReplicaIo for Log {
        fn transmit(&mut self, out: Outbound) {
            self.0.push(Effect::Sent(out));
        }
        fn commit(&mut self, entry: CommitEntry, _batch: Option<WorkloadBatch>) {
            self.0.push(Effect::Committed(entry.round));
        }
        fn fetch_peer(&mut self) -> Option<ReplicaId> {
            Some(ReplicaId(2))
        }
        fn armed(&mut self, at: Time) {
            self.0.push(Effect::Armed(at));
        }
    }

    impl Log {
        /// The rounds of the `FrontierInfo`s sent: the timers that fired.
        fn fired(&self) -> Vec<u64> {
            let info = |e: &Effect| match e {
                Effect::Sent(Outbound::Send(
                    _,
                    Message::Sync(SyncMsg::FrontierInfo { finalized }),
                )) => Some(finalized.0),
                _ => None,
            };
            self.0.iter().filter_map(info).collect()
        }
    }

    fn timer(at: u64, kind: TimerKind) -> TimerRequest {
        TimerRequest { at: Time(at), kind }
    }

    /// A backup's `Propose` timer: never held.
    fn propose(round: u64) -> TimerKind {
        TimerKind::Propose {
            round,
            hold_until: None,
        }
    }

    /// A replica in `round` whose engine arms `timers` at init (at time 0).
    fn scripted(round: u64, timers: Vec<TimerRequest>) -> (Replica<SharedMempool>, Log) {
        let engine = Scripted {
            round: Round(round),
            init: timers,
            commits: 0,
        };
        let mut replica = Replica::new(Box::new(engine), None, Duration(10));
        let mut log = Log::default();
        replica.init(Time::ZERO, &mut log);
        (replica, log)
    }

    #[test]
    fn timer_set_clamps_past_deadlines_to_now() {
        let mut t = TimerSet::default();
        let at = t.arm(timer(5, propose(1)), Time(100));
        assert_eq!(at, Time(100));
        assert_eq!(t.next_deadline(), Some(Time(100)));
    }

    #[test]
    fn equal_deadline_timers_pop_in_arming_order() {
        let mut t = TimerSet::default();
        let kinds = [
            propose(3),
            TimerKind::NotarizeRank { round: 3, rank: 0 },
            TimerKind::RoundTimeout { round: 3 },
        ];
        t.arm_wake(Time(50), Wake::CatchUp);
        for kind in kinds {
            t.arm(timer(50, kind), Time(0));
        }
        assert_eq!(t.pop_due(Time(50)), Some((Time(50), Wake::CatchUp)));
        for expected in kinds {
            assert_eq!(t.pop_due(Time(50)), Some((Time(50), Wake::Timer(expected))));
        }
        assert!(t.pop_due(Time(50)).is_none());
    }

    #[test]
    fn stale_timers_for_abandoned_rounds_are_dropped() {
        // The engine is in round 5: rounds 1 and 2 are abandoned.
        let (mut replica, mut log) = scripted(
            5,
            vec![
                timer(10, propose(1)),
                timer(11, TimerKind::RoundTimeout { round: 2 }),
                timer(12, propose(5)),
            ],
        );
        let mut pops = 0;
        while replica.on_timer(Time(20), &mut log) != Due::Nothing {
            pops += 1;
        }
        assert_eq!(pops, 3, "one wake-up per armed timer, stale or not");
        assert_eq!(log.fired(), [5]);
        assert_eq!(replica.stale_timers_dropped(), 2);
        assert_eq!(replica.next_deadline(), None);
    }

    /// A replica several rounds past the timers it armed reports the
    /// earliest live deadline, not a dead timer's; each stale timer is
    /// counted once, whether `next_deadline` or `on_timer` drops it.
    #[test]
    fn next_deadline_skips_the_timers_of_rounds_left() {
        let (mut replica, mut log) = scripted(
            1,
            vec![
                timer(10, propose(1)),
                timer(20, TimerKind::RoundTimeout { round: 2 }),
                timer(30, propose(3)),
                timer(40, propose(4)),
                timer(50, TimerKind::RoundTimeout { round: 2 }),
            ],
        );
        assert_eq!(replica.next_deadline(), Some(Time(10)), "round 1 is live");
        // Every frame moves the scripted engine one round on: to round 4.
        let request = Message::Sync(SyncMsg::Request {
            hash: BlockHash::ZERO,
        });
        for _ in 0..3 {
            replica.on_frame(ReplicaId(1), request.clone(), Time(5), &mut log);
        }
        assert_eq!(replica.next_deadline(), Some(Time(40)));
        assert_eq!(replica.stale_timers_dropped(), 3);
        assert_eq!(
            replica.next_deadline(),
            Some(Time(40)),
            "asking drops nothing more"
        );
        assert_eq!(replica.stale_timers_dropped(), 3);
        while replica.on_timer(Time(60), &mut log) != Due::Nothing {}
        assert_eq!(log.fired(), [4]);
        assert_eq!(
            replica.stale_timers_dropped(),
            4,
            "the one behind the live timer"
        );
        assert_eq!(replica.next_deadline(), None);
    }

    #[test]
    fn current_and_future_round_timers_are_delivered() {
        // Streamlet arms the tick for epoch current+1; it must survive.
        let (mut replica, mut log) = scripted(3, vec![timer(1, TimerKind::EpochTick { epoch: 4 })]);
        assert_eq!(replica.on_timer(Time(2), &mut log), Due::Fired);
        assert_eq!(log.fired(), [4]);
        assert_eq!(replica.stale_timers_dropped(), 0);
    }

    /// The optimistic-pipelining fallback contract: the round-r+1 leader
    /// arms its fallback `Propose` timer while the engine is still in
    /// round r. A replica must hold that future-round timer (never drop it
    /// as stale) and deliver it — if it swallowed it, an uncertified
    /// optimistic parent would leave the round leaderless instead of
    /// falling back.
    #[test]
    fn future_round_propose_timer_survives_until_its_round() {
        let fallback = propose(8);
        // Still in round 7 when armed: not stale.
        assert!(!is_stale(&fallback, Round(7)));
        // Still in its own round when due: not stale.
        assert!(!is_stale(&fallback, Round(8)));
        // Only once the engine moves past round 8 is it abandoned.
        assert!(is_stale(&fallback, Round(9)));

        // Due while the engine is still in round 7 (the optimistic parent
        // has not certified yet): the fallback must fire, not vanish.
        let (mut replica, mut log) = scripted(7, vec![timer(30, fallback)]);
        assert_eq!(
            replica.on_timer(Time(29), &mut log),
            Due::Nothing,
            "fired early"
        );
        assert_eq!(replica.on_timer(Time(30), &mut log), Due::Fired);
        assert_eq!(log.fired(), [8], "fallback not delivered");
        assert_eq!(replica.stale_timers_dropped(), 0);
    }

    #[test]
    fn routing_preserves_category_order() {
        let engine = Scripted {
            round: Round(1),
            init: vec![timer(2, propose(2)), timer(1, propose(1))],
            commits: 2,
        };
        let mut replica: Replica<SharedMempool> =
            Replica::new(Box::new(engine), None, Duration(10));
        let mut log = Log::default();
        replica.init(Time::ZERO, &mut log);
        // Commits, then timers in emission order (not deadline order),
        // then transmissions.
        let request = Message::Sync(SyncMsg::Request {
            hash: BlockHash::ZERO,
        });
        assert_eq!(
            log.0,
            [
                Effect::Committed(Round(1)),
                Effect::Committed(Round(2)),
                Effect::Armed(Time(2)),
                Effect::Armed(Time(1)),
                Effect::Sent(Outbound::Send(ReplicaId(1), request)),
            ]
        );
    }

    /// Frontier frames are the replica's own: a probe is answered from the
    /// engine's commit frontier and a report goes to catch-up, so the
    /// engine is handed neither — while any other frame reaches it.
    #[test]
    fn frontier_frames_never_reach_the_engine() {
        let (mut replica, mut log) = scripted(1, vec![]);
        log.0.clear();
        let probe = Message::Sync(SyncMsg::FrontierProbe);
        replica.on_frame(ReplicaId(3), probe, Time(1), &mut log);
        let info = |finalized| Message::Sync(SyncMsg::FrontierInfo { finalized });
        replica.on_frame(ReplicaId(3), info(Round(40)), Time(2), &mut log);
        let answer = Outbound::Send(ReplicaId(3), info(Round::GENESIS));
        assert_eq!(log.0, [Effect::Sent(answer)], "the engine echoed a frame");

        log.0.clear();
        let request = Message::Sync(SyncMsg::Request {
            hash: BlockHash::ZERO,
        });
        replica.on_frame(ReplicaId(3), request.clone(), Time(3), &mut log);
        let echo = Outbound::Send(ReplicaId(3), request);
        assert_eq!(log.0, [Effect::Sent(echo)], "the engine is deaf");
    }

    /// An engine that takes every frame in silence.
    struct Deaf;

    impl Engine for Deaf {
        fn id(&self) -> ReplicaId {
            ReplicaId(0)
        }
        fn protocol_name(&self) -> &'static str {
            "deaf"
        }
        fn on_init(&mut self, _now: Time) -> Actions {
            Actions::none()
        }
        fn on_message(&mut self, _from: ReplicaId, _msg: Message, _now: Time) -> Actions {
            Actions::none()
        }
        fn on_timer(&mut self, _kind: TimerKind, _now: Time) -> Actions {
            Actions::none()
        }
        fn current_round(&self) -> Round {
            Round(1)
        }
    }

    /// A relayed copy of a block (sent by a replica other than its
    /// proposer, in a buffer of its own, as a TCP decoder hands it over)
    /// is neither leased nor hashed: the engine recognises a held block by
    /// equality. The proposer's own copy is leased.
    #[test]
    fn only_the_proposers_copy_of_a_block_is_leased() {
        use banyan_crypto::Signature;
        use banyan_mempool::{Mempool, Request};
        use banyan_types::block::Block;
        use banyan_types::ids::Rank;
        use banyan_types::message::StreamletMsg;
        use banyan_types::payload::{Payload, PAYLOAD_CHUNK};
        let pool = Mempool::shared(16);
        let mut replica = Replica::new(Box::new(Deaf), Some(pool.clone()), Duration(10));
        let mut log = Log::default();
        replica.init(Time::ZERO, &mut log);
        let request = Request {
            id: 7,
            client: 0,
            size: 64,
            submitted_at: Time::ZERO,
        };
        let block = Block {
            round: Round(1),
            proposer: ReplicaId(2),
            rank: Rank(0),
            parent: BlockHash::ZERO,
            proposed_at: Time::ZERO,
            payload: WorkloadBatch {
                requests: vec![request],
            }
            .into_payload(),
            signature: Signature::zero(),
        };
        let copy = || Block {
            payload: Payload::inline(block.payload.as_inline().expect("inline").to_vec()),
            ..block.clone()
        };
        let proposal = |block| Message::Streamlet(StreamletMsg::Proposal { block });
        let relayed = copy();
        let payload = relayed.payload.clone();
        replica.on_frame(ReplicaId(3), proposal(relayed), Time(1), &mut log);
        assert_eq!(pool.lock().unwrap().live_leases(), 0, "a relay was leased");
        assert!(
            payload.memoized_commitment(PAYLOAD_CHUNK).is_none(),
            "a relay was hashed"
        );
        replica.on_frame(ReplicaId(2), proposal(copy()), Time(2), &mut log);
        let pool = pool.lock().unwrap();
        assert_eq!(pool.lease(&block.hash(PAYLOAD_CHUNK)), Some(&[request][..]));
    }

    /// Gossip feeds the pool and the pool's gossip goes out while the
    /// replica is up; a down one takes in nothing, and the gossip queued
    /// meanwhile is drained without a frame leaving.
    #[test]
    fn a_down_replica_takes_in_and_sends_no_gossip() {
        use banyan_mempool::{Mempool, Request};
        use banyan_types::message::DisseminationMsg;
        let pool = Mempool::shared_gossiping(16);
        let engine = Scripted {
            round: Round(1),
            init: vec![],
            commits: 0,
        };
        let mut replica = Replica::new(Box::new(engine), Some(pool.clone()), Duration(10));
        let mut log = Log::default();
        let request = |id| Request {
            id,
            client: 0,
            size: 64,
            submitted_at: Time::ZERO,
        };
        let forward = |id| {
            let requests = vec![request(id)];
            Message::Dissemination(DisseminationMsg::Forward { requests })
        };

        replica.on_frame(ReplicaId(1), forward(1), Time(1), &mut log);
        assert_eq!(pool.lock().unwrap().len(), 1, "gossip missed the pool");
        pool.lock().unwrap().push(request(2));
        replica.flush(Time::ZERO, &mut log);
        assert!(
            matches!(&log.0[..], [Effect::Sent(Outbound::Broadcast(_))]),
            "{:?}",
            log.0
        );

        replica.crash();
        log.0.clear();
        replica.on_frame(ReplicaId(1), forward(3), Time(2), &mut log);
        pool.lock().unwrap().push(request(4));
        replica.flush(Time::ZERO, &mut log);
        assert!(log.0.is_empty(), "a down replica sent {:?}", log.0);
        assert_eq!(
            pool.lock().unwrap().len(),
            3,
            "a down replica took in gossip"
        );
        replica.rejoin(
            Box::new(Scripted {
                round: Round(1),
                init: vec![],
                commits: 0,
            }),
            Time(3),
            &mut log,
        );
        log.0.clear();
        replica.flush(Time::ZERO, &mut log);
        assert!(log.0.is_empty(), "the gossip queued while down left later");
    }

    /// A crashed replica handles nothing, fires nothing and sends nothing;
    /// after a rejoin it probes the frontier, fetches from the peer its
    /// driver names once a peer reports one, and re-fetches when the
    /// window lapses.
    #[test]
    fn a_rejoined_replica_catches_up_through_its_own_wake_ups() {
        let (mut replica, mut log) = scripted(1, vec![timer(5, propose(1))]);
        replica.crash();
        assert!(!replica.is_up());
        assert_eq!(replica.next_deadline(), None, "timers outlived the crash");
        let probe = Message::Sync(SyncMsg::FrontierProbe);
        log.0.clear();
        replica.on_frame(ReplicaId(1), probe.clone(), Time(6), &mut log);
        assert_eq!(replica.on_timer(Time(6), &mut log), Due::Nothing);
        assert!(log.0.is_empty(), "a down replica acted: {:?}", log.0);

        let engine = Scripted {
            round: Round(1),
            init: vec![],
            commits: 0,
        };
        replica.rejoin(Box::new(engine), Time(100), &mut log);
        // Init's own frame, then the probe and its deadline.
        assert_eq!(
            log.0[1..],
            [
                Effect::Sent(Outbound::Broadcast(probe)),
                Effect::Armed(Time(110))
            ]
        );
        log.0.clear();
        let info = Message::Sync(SyncMsg::FrontierInfo {
            finalized: Round(40),
        });
        replica.on_frame(ReplicaId(3), info, Time(104), &mut log);
        let fetch = |from, to| {
            let range = SyncMsg::RequestRange {
                from_round: Round(from),
                to_round: Round(to),
            };
            Effect::Sent(Outbound::Send(ReplicaId(2), Message::Sync(range)))
        };
        assert_eq!(log.0, [fetch(1, 32), Effect::Armed(Time(114))]);
        log.0.clear();
        // The probe's deadline finds the fetch in flight; the fetch's own
        // deadline lapses it and asks again.
        assert_eq!(replica.on_timer(Time(110), &mut log), Due::Fired);
        assert_eq!(log.0, [Effect::Armed(Time(120))]);
        assert_eq!(replica.on_timer(Time(114), &mut log), Due::Fired);
        assert_eq!(log.0[1..], [fetch(1, 32), Effect::Armed(Time(124))]);
        assert_eq!(replica.sync_requests(), 3);
    }

    /// A replica in round 1 with an idle (gossiping) pool whose engine
    /// arms, at init, a rank-0 `Propose` for round 1 due at 0 and held
    /// until 100.
    fn idle_leader() -> (Replica<SharedMempool>, SharedMempool, Log) {
        let pool = banyan_mempool::Mempool::shared_gossiping(16);
        let leader = TimerKind::Propose {
            round: 1,
            hold_until: Some(Time(100)),
        };
        let engine = Scripted {
            round: Round(1),
            init: vec![timer(0, leader)],
            commits: 0,
        };
        let mut replica = Replica::new(Box::new(engine), Some(pool.clone()), Duration(10));
        let mut log = Log::default();
        replica.init(Time::ZERO, &mut log);
        assert_eq!(replica.on_timer(Time::ZERO, &mut log), Due::Held);
        assert_eq!(replica.next_deadline(), Some(Time(100)), "no bound armed");
        assert!(log.fired().is_empty(), "an idle leader proposed");
        (replica, pool, log)
    }

    fn arrive(pool: &SharedMempool, id: u64) {
        pool.lock().unwrap().push(banyan_mempool::Request {
            id,
            client: 0,
            size: 64,
            submitted_at: Time::ZERO,
        });
    }

    /// The first flush that finds a request fires the held proposal at
    /// the flush's instant; its bound then finds nothing to fire.
    #[test]
    fn a_held_proposal_is_released_by_a_pool_arrival() {
        let (mut replica, pool, mut log) = idle_leader();
        replica.flush(Time(5), &mut log);
        assert!(log.fired().is_empty(), "released with an empty pool");
        assert!(!replica.holds_releasable());
        arrive(&pool, 1);
        assert!(
            replica.holds_releasable(),
            "a parked driver would miss the arrival"
        );
        replica.flush(Time(7), &mut log);
        assert_eq!(log.fired(), [1]);
        assert!(!replica.holds_releasable());
        assert_eq!(replica.on_timer(Time(100), &mut log), Due::Stale);
        assert_eq!(log.fired(), [1], "fired twice");
        assert_eq!(replica.stale_timers_dropped(), 0);
    }

    /// With no request, the bound fires the held proposal, and not before.
    #[test]
    fn a_held_proposal_fires_at_its_bound() {
        let (mut replica, _pool, mut log) = idle_leader();
        assert_eq!(replica.on_timer(Time(99), &mut log), Due::Nothing);
        assert_eq!(replica.on_timer(Time(100), &mut log), Due::Fired);
        assert_eq!(log.fired(), [1]);
        assert_eq!(replica.next_deadline(), None);
    }

    /// A held proposal whose round the engine left is dropped, whether a
    /// request or the bound comes for it first.
    #[test]
    fn a_held_proposal_is_dropped_when_its_round_moves() {
        let frame = || {
            Message::Sync(SyncMsg::Request {
                hash: BlockHash::ZERO,
            })
        };
        for by_arrival in [true, false] {
            let (mut replica, pool, mut log) = idle_leader();
            replica.on_frame(ReplicaId(2), frame(), Time(3), &mut log);
            assert_eq!(replica.engine().unwrap().current_round(), Round(2));
            if by_arrival {
                arrive(&pool, 1);
                replica.flush(Time(4), &mut log);
            }
            assert_eq!(replica.on_timer(Time(100), &mut log), Due::Stale);
            assert!(log.fired().is_empty(), "a left round proposed");
            assert_eq!(replica.stale_timers_dropped(), 1);
        }
    }

    /// A crash clears a held proposal: the rejoined replica's first flush
    /// with a request fires nothing, and no bound outlives the crash.
    #[test]
    fn a_crash_clears_a_held_proposal() {
        let (mut replica, pool, mut log) = idle_leader();
        replica.crash();
        assert_eq!(
            replica.next_deadline(),
            None,
            "the bound outlived the crash"
        );
        arrive(&pool, 1);
        let engine = Scripted {
            round: Round(1),
            init: vec![],
            commits: 0,
        };
        replica.rejoin(Box::new(engine), Time(50), &mut log);
        assert!(!replica.holds_releasable());
        replica.flush(Time(51), &mut log);
        assert!(
            log.fired().is_empty(),
            "the held proposal survived the crash"
        );
    }

    /// Only a rank-0 proposal on an idle pool is held: a backup's timer,
    /// a leader whose pool holds a request, a leader without a pool and a
    /// leader whose empty pool does not gossip (so cannot see the
    /// requests waiting in other pools) all fire at once.
    #[test]
    fn only_an_idle_pool_holds_a_leader() {
        let leader = TimerKind::Propose {
            round: 1,
            hold_until: Some(Time(100)),
        };
        let cases = [
            (propose(1), true, false, true),
            (leader, true, true, true),
            (leader, false, false, true),
            (leader, true, false, false),
        ];
        for (kind, with_pool, busy, gossip) in cases {
            let pool = match gossip {
                true => banyan_mempool::Mempool::shared_gossiping(16),
                false => banyan_mempool::Mempool::shared(16),
            };
            if busy {
                arrive(&pool, 1);
            }
            let engine = Scripted {
                round: Round(1),
                init: vec![timer(0, kind)],
                commits: 0,
            };
            let pool = with_pool.then_some(pool);
            let mut replica = Replica::new(Box::new(engine), pool, Duration(10));
            let mut log = Log::default();
            replica.init(Time::ZERO, &mut log);
            assert_eq!(
                replica.on_timer(Time::ZERO, &mut log),
                Due::Fired,
                "{kind:?}"
            );
            assert_eq!(log.fired(), [1]);
        }
    }
}
