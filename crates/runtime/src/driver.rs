//! Action routing, timer management and the single-engine driver core.
//!
//! The contract between an [`Engine`] and any deployment is narrow: feed
//! it events, and route the [`Actions`] it returns — commits to a
//! [`CommitSink`], timers to [`ActionDispatch::arm`], transmissions to
//! [`ActionDispatch::transmit`]. Before this crate existed, the simulator,
//! the TCP runner and the bench harness each re-implemented that routing
//! (and its subtle ordering rules) independently; this module is now the
//! only copy.

use banyan_types::app::App;
use banyan_types::engine::{Actions, CommitEntry, Engine, Outbound, TimerKind, TimerRequest};
use banyan_types::ids::{ReplicaId, Round};
use banyan_types::message::Message;
use banyan_types::time::Time;

use crate::queue::EventQueue;

/// Where finalized blocks land. Implemented by the simulator's metrics
/// pipeline, the TCP run report, and plain vectors for tests.
pub trait CommitSink {
    /// Called once per commit, in the order the engine emitted them.
    fn on_commit(&mut self, replica: ReplicaId, entry: CommitEntry);
}

impl CommitSink for Vec<CommitEntry> {
    fn on_commit(&mut self, _replica: ReplicaId, entry: CommitEntry) {
        self.push(entry);
    }
}

impl<S: CommitSink + ?Sized> CommitSink for &mut S {
    fn on_commit(&mut self, replica: ReplicaId, entry: CommitEntry) {
        (**self).on_commit(replica, entry);
    }
}

/// [`CommitSink`] combinator that delivers every commit to an [`App`]
/// before forwarding it to the inner sink — how a deployment (TCP runner,
/// tests) bolts application delivery onto an existing metrics sink.
pub struct AppSink<S: CommitSink, A: App> {
    /// The sink commits are forwarded to after delivery.
    pub inner: S,
    /// The application receiving each finalized block.
    pub app: A,
}

impl<S: CommitSink, A: App> CommitSink for AppSink<S, A> {
    fn on_commit(&mut self, replica: ReplicaId, entry: CommitEntry) {
        self.app.deliver(&entry);
        self.inner.on_commit(replica, entry);
    }
}

/// The driver side of action routing: where armed timers and outbound
/// messages go. One implementor per deployment (the simulator's network
/// model, the TCP runner's channels), so both consequences of an engine
/// event can share mutable scheduling state (e.g. one global event queue).
pub trait ActionDispatch {
    /// Schedules a timer for `replica`.
    fn arm(&mut self, replica: ReplicaId, request: TimerRequest);

    /// Hands an outbound transmission from `from` to the network.
    fn transmit(&mut self, from: ReplicaId, out: Outbound);
}

/// Closure-based [`ActionDispatch`] for tests and simple drivers.
pub struct FnDispatch<A, T>
where
    A: FnMut(ReplicaId, TimerRequest),
    T: FnMut(ReplicaId, Outbound),
{
    /// Receives armed timers.
    pub arm: A,
    /// Receives outbound transmissions.
    pub transmit: T,
}

impl<A, T> ActionDispatch for FnDispatch<A, T>
where
    A: FnMut(ReplicaId, TimerRequest),
    T: FnMut(ReplicaId, Outbound),
{
    fn arm(&mut self, replica: ReplicaId, request: TimerRequest) {
        (self.arm)(replica, request)
    }
    fn transmit(&mut self, from: ReplicaId, out: Outbound) {
        (self.transmit)(from, out)
    }
}

/// True if `kind` belongs to a round the engine has already left.
///
/// Every engine in the workspace treats such timers as no-ops (`propose`
/// and `heartbeat` bail when `round != current`, HotStuff ignores old
/// views, Streamlet old epochs), so drivers drop them without delivery.
/// Timers for the current or a future round are always delivered.
pub fn is_stale(kind: &TimerKind, current_round: Round) -> bool {
    kind.scope_round() < current_round.0
}

/// Routes one [`Actions`] bundle: commits → `sink`, then timers →
/// `dispatch.arm`, then transmissions → `dispatch.transmit`, preserving
/// the engine's emission order within each category. Every driver routes
/// through here, so traces line up across deployments.
pub fn route_actions<S: CommitSink + ?Sized, D: ActionDispatch + ?Sized>(
    replica: ReplicaId,
    actions: Actions,
    sink: &mut S,
    dispatch: &mut D,
) {
    for entry in actions.commits {
        sink.on_commit(replica, entry);
    }
    for timer in actions.timers {
        dispatch.arm(replica, timer);
    }
    for out in actions.outbound {
        dispatch.transmit(replica, out);
    }
}

/// One replica's pending timers: an [`EventQueue`] of [`TimerKind`]s with
/// arm-time clamping and stale-timer filtering on pop.
#[derive(Default)]
pub struct TimerSet {
    queue: EventQueue<TimerKind>,
    stale_dropped: u64,
}

impl TimerSet {
    /// An empty timer set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `request`, clamping its deadline to `now` so timers always
    /// fire at or after the moment they were requested.
    pub fn arm(&mut self, request: TimerRequest, now: Time) {
        self.queue.push(request.at.max(now), request.kind);
    }

    /// Earliest pending deadline, if any. (May belong to a stale timer;
    /// use only as a wake-up bound, never as a liveness signal.)
    pub fn next_deadline(&self) -> Option<Time> {
        self.queue.next_at()
    }

    /// Pops the next timer due at `now`, silently discarding timers whose
    /// round the engine (at `current_round`) has already abandoned. Equal
    /// deadlines pop in arming order.
    pub fn pop_due(&mut self, now: Time, current_round: Round) -> Option<(Time, TimerKind)> {
        while let Some((at, kind)) = self.queue.pop_due(now) {
            if is_stale(&kind, current_round) {
                self.stale_dropped += 1;
                continue;
            }
            return Some((at, kind));
        }
        None
    }

    /// Number of pending (possibly stale) timers.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Timers dropped as stale so far (diagnostic).
    pub fn stale_dropped(&self) -> u64 {
        self.stale_dropped
    }
}

/// Adapts a [`TimerSet`] plus a transmit callback into [`ActionDispatch`]
/// for single-engine drivers (the timer heap and the network never share
/// state there, unlike in the simulator).
struct TimerSetDispatch<'a, F: FnMut(Outbound)> {
    timers: &'a mut TimerSet,
    now: Time,
    transmit: F,
}

impl<F: FnMut(Outbound)> ActionDispatch for TimerSetDispatch<'_, F> {
    fn arm(&mut self, _replica: ReplicaId, request: TimerRequest) {
        self.timers.arm(request, self.now);
    }
    fn transmit(&mut self, _from: ReplicaId, out: Outbound) {
        (self.transmit)(out)
    }
}

/// The single-engine event-loop core: an [`Engine`], its [`TimerSet`] and
/// a [`CommitSink`], with the three dispatch paths every deployment needs.
/// The caller supplies time (virtual or wall-clock) and a `transmit`
/// callback; this type owns everything else, so deployments cannot drift
/// apart in how they feed an engine.
pub struct EngineDriver<S: CommitSink> {
    engine: Box<dyn Engine>,
    timers: TimerSet,
    sink: S,
}

impl<S: CommitSink> EngineDriver<S> {
    /// Wraps `engine`, committing into `sink`.
    pub fn new(engine: Box<dyn Engine>, sink: S) -> Self {
        EngineDriver {
            engine,
            timers: TimerSet::new(),
            sink,
        }
    }

    /// The wrapped engine's replica id.
    pub fn id(&self) -> ReplicaId {
        self.engine.id()
    }

    /// Read access to the engine (for assertions and probes).
    pub fn engine(&self) -> &dyn Engine {
        self.engine.as_ref()
    }

    /// Read access to the commit sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the driver, returning the sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Timers dropped as stale so far (diagnostic).
    pub fn stale_timers_dropped(&self) -> u64 {
        self.timers.stale_dropped()
    }

    /// Deadline of the earliest pending timer.
    pub fn next_deadline(&self) -> Option<Time> {
        self.timers.next_deadline()
    }

    /// Delivers the one-time init event.
    pub fn init(&mut self, now: Time, transmit: impl FnMut(Outbound)) {
        let EngineDriver {
            engine,
            timers,
            sink,
        } = self;
        let actions = engine.on_init(now);
        let mut dispatch = TimerSetDispatch {
            timers,
            now,
            transmit,
        };
        route_actions(engine.id(), actions, sink, &mut dispatch);
    }

    /// Delivers one network message.
    pub fn handle_message(
        &mut self,
        from: ReplicaId,
        msg: Message,
        now: Time,
        transmit: impl FnMut(Outbound),
    ) {
        let EngineDriver {
            engine,
            timers,
            sink,
        } = self;
        let actions = engine.on_message(from, msg, now);
        let mut dispatch = TimerSetDispatch {
            timers,
            now,
            transmit,
        };
        route_actions(engine.id(), actions, sink, &mut dispatch);
    }

    /// Fires every timer due at `now`, including timers armed by earlier
    /// firings in the same call. Stale timers are dropped, not delivered.
    pub fn fire_due(&mut self, now: Time, mut transmit: impl FnMut(Outbound)) {
        let EngineDriver {
            engine,
            timers,
            sink,
        } = self;
        while let Some((_, kind)) = timers.pop_due(now, engine.current_round()) {
            let actions = engine.on_timer(kind, now);
            let mut dispatch = TimerSetDispatch {
                timers: &mut *timers,
                now,
                transmit: &mut transmit,
            };
            route_actions(engine.id(), actions, sink, &mut dispatch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banyan_types::engine::TimerKind;
    use banyan_types::ids::Round;

    fn sink_only_dispatch(
    ) -> FnDispatch<impl FnMut(ReplicaId, TimerRequest), impl FnMut(ReplicaId, Outbound)> {
        FnDispatch {
            arm: |_, _| {},
            transmit: |_, _| {},
        }
    }

    #[test]
    fn timer_set_clamps_past_deadlines_to_now() {
        let mut t = TimerSet::new();
        t.arm(
            TimerRequest {
                at: Time(5),
                kind: TimerKind::Propose { round: 1 },
            },
            Time(100),
        );
        assert_eq!(t.next_deadline(), Some(Time(100)));
    }

    #[test]
    fn equal_deadline_timers_pop_in_arming_order() {
        let mut t = TimerSet::new();
        let kinds = [
            TimerKind::Propose { round: 3 },
            TimerKind::NotarizeRank { round: 3, rank: 0 },
            TimerKind::RoundTimeout { round: 3 },
        ];
        for kind in kinds {
            t.arm(TimerRequest { at: Time(50), kind }, Time(0));
        }
        for expected in kinds {
            let (at, kind) = t.pop_due(Time(50), Round(3)).expect("due");
            assert_eq!((at, kind), (Time(50), expected));
        }
        assert!(t.pop_due(Time(50), Round(3)).is_none());
    }

    #[test]
    fn stale_timers_for_abandoned_rounds_are_dropped() {
        let mut t = TimerSet::new();
        t.arm(
            TimerRequest {
                at: Time(10),
                kind: TimerKind::Propose { round: 1 },
            },
            Time(0),
        );
        t.arm(
            TimerRequest {
                at: Time(11),
                kind: TimerKind::RoundTimeout { round: 2 },
            },
            Time(0),
        );
        t.arm(
            TimerRequest {
                at: Time(12),
                kind: TimerKind::Propose { round: 5 },
            },
            Time(0),
        );
        // The engine has advanced to round 5: rounds 1 and 2 are abandoned.
        let (_, kind) = t.pop_due(Time(20), Round(5)).expect("live timer");
        assert_eq!(kind, TimerKind::Propose { round: 5 });
        assert_eq!(t.stale_dropped(), 2);
        assert!(t.pop_due(Time(20), Round(5)).is_none());
    }

    #[test]
    fn current_and_future_round_timers_are_delivered() {
        let mut t = TimerSet::new();
        t.arm(
            TimerRequest {
                at: Time(1),
                kind: TimerKind::EpochTick { epoch: 4 },
            },
            Time(0),
        );
        // Streamlet arms the tick for epoch current+1; it must survive.
        let popped = t.pop_due(Time(2), Round(3));
        assert_eq!(
            popped.map(|(_, k)| k),
            Some(TimerKind::EpochTick { epoch: 4 })
        );
        assert_eq!(t.stale_dropped(), 0);
    }

    /// The optimistic-pipelining fallback contract: the round-r+1 leader
    /// arms its fallback `Propose` timer while the engine is still in
    /// round r. Drivers must hold that future-round timer (never drop it
    /// as stale) and deliver it once the engine reaches round r+1 — if
    /// the driver swallowed it, an uncertified optimistic parent would
    /// leave the round leaderless instead of falling back.
    #[test]
    fn future_round_propose_timer_survives_until_its_round() {
        let fallback = TimerKind::Propose { round: 8 };
        // Still in round 7 when armed: not stale.
        assert!(!is_stale(&fallback, Round(7)));
        // Still in its own round when due: not stale.
        assert!(!is_stale(&fallback, Round(8)));
        // Only once the engine moves past round 8 is it abandoned.
        assert!(is_stale(&fallback, Round(9)));

        let mut t = TimerSet::new();
        t.arm(
            TimerRequest {
                at: Time(30),
                kind: fallback,
            },
            Time(0),
        );
        // Due while the engine is still in round 7 (the optimistic parent
        // has not certified yet): the fallback must fire, not vanish.
        let popped = t.pop_due(Time(30), Round(7)).expect("fallback delivered");
        assert_eq!(popped, (Time(30), fallback));
        assert_eq!(t.stale_dropped(), 0, "future-round timer counted stale");
    }

    #[test]
    fn vec_commit_sink_collects_in_order() {
        use banyan_types::ids::BlockHash;
        let mut sink: Vec<CommitEntry> = Vec::new();
        let mut actions = Actions::none();
        for round in 1..=3u64 {
            actions.commit(CommitEntry {
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
        route_actions(ReplicaId(0), actions, &mut sink, &mut sink_only_dispatch());
        let rounds: Vec<u64> = sink.iter().map(|c| c.round.0).collect();
        assert_eq!(rounds, vec![1, 2, 3]);
    }

    #[test]
    fn app_sink_delivers_then_forwards() {
        use banyan_types::ids::BlockHash;

        #[derive(Default)]
        struct Tally(u64);
        impl App for Tally {
            fn deliver(&mut self, entry: &CommitEntry) {
                self.0 += entry.payload_len();
            }
        }

        let mut sink = AppSink {
            inner: Vec::<CommitEntry>::new(),
            app: Tally::default(),
        };
        let mut actions = Actions::none();
        actions.commit(CommitEntry {
            round: Round(1),
            block: BlockHash([1; 32]),
            proposer: ReplicaId(0),
            payload: banyan_types::Payload::inline(vec![7; 42]),
            proposed_at: Time::ZERO,
            committed_at: Time(9),
            fast: false,
            explicit: true,
        });
        route_actions(ReplicaId(0), actions, &mut sink, &mut sink_only_dispatch());
        assert_eq!(sink.app.0, 42, "app saw the payload bytes");
        assert_eq!(sink.inner.len(), 1, "inner sink still gets the commit");
    }

    #[test]
    fn routing_preserves_category_order() {
        let mut actions = Actions::none();
        use banyan_types::message::{Message, SyncMsg};
        actions.arm(Time(2), TimerKind::Propose { round: 2 });
        actions.arm(Time(1), TimerKind::Propose { round: 1 });
        actions.send(
            ReplicaId(1),
            Message::Sync(SyncMsg::Request {
                hash: banyan_types::ids::BlockHash::ZERO,
            }),
        );
        let mut armed = Vec::new();
        let mut sent = 0u32;
        let mut sink: Vec<CommitEntry> = Vec::new();
        let mut dispatch = FnDispatch {
            arm: |_, t: TimerRequest| armed.push(t.at),
            transmit: |_, _| sent += 1,
        };
        route_actions(ReplicaId(0), actions, &mut sink, &mut dispatch);
        // Timers arrive in emission order, not deadline order.
        assert_eq!(armed, vec![Time(2), Time(1)]);
        assert_eq!(sent, 1);
    }
}
