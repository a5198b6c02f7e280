//! [`CatchUpState`]: the driver-level state machine that brings a
//! recovered or lagging replica to the live commit frontier.
//!
//! Engines are pure state machines and never see catch-up traffic; the
//! replica around the engine (`banyan_runtime::Replica`, under the
//! simulator and the TCP loop alike) owns one `CatchUpState` per rejoin
//! and calls [`drive`](CatchUpState::drive), which turns the machine's
//! steps into `SyncMsg` traffic:
//!
//! ```text
//!           ┌────────┐  FrontierProbe (broadcast)
//!   start ─▶│ Probe  │──────────────────────────────┐
//!           └────────┘                              ▼
//!           ┌────────┐  on_frontier(peer) sets target
//!           │ Fetch  │◀─────────────────────────────┘
//!           └────────┘  RequestRange { from, to } to one peer
//!               │  ▲
//!    ResponseBatch │ on_progress(local) advances the window
//!               ▼  │
//!           ┌────────┐  local ≥ target, or the probe/fetch deadline
//!           │  Done  │  lapses too many times (peers that never serve
//!           └────────┘  ranges — engines with native view sync)
//! ```
//!
//! Every transition is driven by explicit `(event, now)` calls, so the
//! machine is deterministic and simulation-friendly: no clocks, no I/O.
//! What stays with the driver is what only it can know: the time, which
//! peer to fetch from, and how it gets woken when a deadline lapses.
//!
//! [`Inbound`] is the other half of the driver contract: which arriving
//! frames are the driver's to handle and which are the engine's.

use banyan_types::engine::Outbound;
use banyan_types::ids::{ReplicaId, Round};
use banyan_types::message::{DisseminationMsg, Message, SyncMsg};
use banyan_types::time::{Duration, Time};

/// One arriving frame, sorted by who handles it. Engines are pure: only
/// [`Inbound::Engine`] frames ever reach `Engine::on_message`.
// `Engine` carries the whole message inline: a classification is consumed
// immediately, never stored, so the size skew costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inbound {
    /// Request gossip: feeds the replica's pool.
    Dissemination(DisseminationMsg),
    /// A recovering peer asks for the commit frontier: the driver answers
    /// with [`frontier_info`] (the chained engine's own answer path would
    /// double-reply).
    FrontierProbe,
    /// A peer's answer to our probe: feeds
    /// [`CatchUpState::on_frontier`].
    FrontierInfo(Round),
    /// Everything else is the engine's.
    Engine(Message),
}

impl Inbound {
    /// Sorts one arriving frame.
    #[inline]
    pub fn classify(msg: Message) -> Inbound {
        match msg {
            Message::Dissemination(d) => Inbound::Dissemination(d),
            Message::Sync(SyncMsg::FrontierProbe) => Inbound::FrontierProbe,
            Message::Sync(SyncMsg::FrontierInfo { finalized }) => Inbound::FrontierInfo(finalized),
            msg => Inbound::Engine(msg),
        }
    }
}

/// The driver's answer to a [`Inbound::FrontierProbe`] from `to`, given
/// its engine's finalized frontier.
pub fn frontier_info(to: ReplicaId, finalized: Round) -> Outbound {
    Outbound::Send(to, Message::Sync(SyncMsg::FrontierInfo { finalized }))
}

/// How many rounds one `RequestRange` asks for.
pub const DEFAULT_BATCH_ROUNDS: u64 = 32;

/// Consecutive expired fetch windows before giving up (the peer set does
/// not serve ranged fetches — rely on the engine's native sync).
pub const MAX_STALLED_FETCHES: u32 = 3;

/// What [`CatchUpState::drive`] does next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CatchUpStep {
    /// Broadcast a `SyncMsg::FrontierProbe` to learn the commit frontier.
    Probe,
    /// Send `SyncMsg::RequestRange { from_round, to_round }` to a peer.
    Fetch {
        /// First round wanted (inclusive).
        from_round: Round,
        /// Last round wanted (inclusive).
        to_round: Round,
    },
    /// A probe or fetch is in flight and its deadline has not lapsed.
    Wait,
    /// Caught up (or gave up): stop driving sync traffic.
    Done,
}

/// Catch-up progress for one recovering replica.
#[derive(Clone, Debug)]
pub struct CatchUpState {
    /// Our finalized frontier (advances via [`CatchUpState::on_progress`]).
    local: Round,
    /// Highest peer frontier reported so far.
    target: Option<Round>,
    /// Whether the initial probe was issued.
    probed: bool,
    /// The in-flight fetch window, if any.
    in_flight: Option<(Round, Round)>,
    /// Deadline for the in-flight probe/fetch.
    deadline: Time,
    /// Per-step timeout.
    timeout: Duration,
    /// Consecutive deadline expiries without progress.
    stalled: u32,
    /// Terminal flag.
    done: bool,
    /// Number of Probe/Fetch steps issued (metrics: `sync_requests`).
    requests_issued: u64,
    /// When catch-up started (metrics: recovery latency).
    started_at: Time,
}

impl CatchUpState {
    /// Starts catch-up for a replica whose finalized frontier is `local`.
    pub fn new(local: Round, now: Time, timeout: Duration) -> Self {
        CatchUpState {
            local,
            target: None,
            probed: false,
            in_flight: None,
            deadline: now,
            timeout,
            stalled: 0,
            done: false,
            requests_issued: 0,
            started_at: now,
        }
    }

    /// A peer reported its finalized frontier.
    pub fn on_frontier(&mut self, peer_frontier: Round) {
        if self.done {
            return;
        }
        if self.target.is_none_or(|t| peer_frontier > t) {
            self.target = Some(peer_frontier);
        }
    }

    /// Our own finalized frontier advanced (batch adopted, or live
    /// protocol progress).
    pub fn on_progress(&mut self, local_frontier: Round) {
        if local_frontier > self.local {
            self.local = local_frontier;
            self.stalled = 0;
            if let Some((_, to)) = self.in_flight {
                if self.local >= to {
                    self.in_flight = None;
                }
            }
        }
    }

    /// Runs the machine until it waits or finishes, turning its steps
    /// into driver-level sync traffic: a probe is a `FrontierProbe`
    /// broadcast, a fetch a `RequestRange` to whichever peer `pick_peer`
    /// names. Call after any event that may have changed the picture — a
    /// frontier report, an adopted batch, a lapsed deadline.
    ///
    /// `pick_peer` is asked once per fetch; when it has nobody to offer
    /// the window simply lapses and the next one asks again, up to
    /// [`MAX_STALLED_FETCHES`].
    ///
    /// Local progress is the caller's to report, through
    /// [`on_progress`](Self::on_progress), and deliberately not a
    /// parameter here: the replica reports it only after an adopted
    /// `ResponseBatch`, and reporting before every drive instead moves the
    /// simulator's `--restart` sweep output (fewer fetches, earlier
    /// `Done`).
    ///
    /// Returns `true` while a probe or fetch is in flight — the caller
    /// must drive again once its deadline (one `timeout` from `now`) may
    /// have lapsed — and `false` once the machine is done.
    pub fn drive(
        &mut self,
        now: Time,
        mut pick_peer: impl FnMut() -> Option<ReplicaId>,
        emit: &mut impl FnMut(Outbound),
    ) -> bool {
        loop {
            match self.step(now) {
                CatchUpStep::Probe => {
                    emit(Outbound::Broadcast(Message::Sync(SyncMsg::FrontierProbe)));
                }
                CatchUpStep::Fetch {
                    from_round,
                    to_round,
                } => {
                    if let Some(peer) = pick_peer() {
                        let range = SyncMsg::RequestRange {
                            from_round,
                            to_round,
                        };
                        emit(Outbound::Send(peer, Message::Sync(range)));
                    }
                }
                CatchUpStep::Wait => return true,
                CatchUpStep::Done => return false,
            }
        }
    }

    /// Decides the next action.
    fn step(&mut self, now: Time) -> CatchUpStep {
        if self.done {
            return CatchUpStep::Done;
        }
        if let Some(target) = self.target {
            if self.local >= target {
                self.done = true;
                return CatchUpStep::Done;
            }
        }
        if self.in_flight.is_some() || (self.probed && self.target.is_none()) {
            if now < self.deadline {
                return CatchUpStep::Wait;
            }
            // Deadline lapsed without the response we needed.
            self.in_flight = None;
            self.stalled += 1;
            if self.stalled >= MAX_STALLED_FETCHES {
                self.done = true;
                return CatchUpStep::Done;
            }
        }
        match self.target {
            None => {
                self.probed = true;
                self.deadline = now + self.timeout;
                self.requests_issued += 1;
                CatchUpStep::Probe
            }
            Some(target) => {
                let from = self.local.next();
                let to = Round(target.0.min(self.local.0 + DEFAULT_BATCH_ROUNDS));
                self.in_flight = Some((from, to));
                self.deadline = now + self.timeout;
                self.requests_issued += 1;
                CatchUpStep::Fetch {
                    from_round: from,
                    to_round: to,
                }
            }
        }
    }

    /// True once the machine reached its terminal state.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Our current view of the local frontier.
    pub fn local(&self) -> Round {
        self.local
    }

    /// The highest peer frontier learned, if any.
    pub fn target(&self) -> Option<Round> {
        self.target
    }

    /// Probe/fetch requests issued so far (metrics: `sync_requests`).
    pub fn requests_issued(&self) -> u64 {
        self.requests_issued
    }

    /// When this catch-up began (metrics: recovery latency).
    pub fn started_at(&self) -> Time {
        self.started_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Duration = Duration(10);

    #[test]
    fn probes_then_fetches_then_finishes() {
        let mut cu = CatchUpState::new(Round(5), Time(0), TICK);
        assert_eq!(cu.step(Time(0)), CatchUpStep::Probe);
        assert_eq!(cu.step(Time(1)), CatchUpStep::Wait, "probe in flight");

        cu.on_frontier(Round(40));
        cu.on_frontier(Round(60));
        assert_eq!(
            cu.step(Time(2)),
            CatchUpStep::Fetch {
                from_round: Round(6),
                to_round: Round(37)
            },
            "window capped at batch size, target keeps the max report"
        );
        assert_eq!(cu.step(Time(3)), CatchUpStep::Wait);

        cu.on_progress(Round(37));
        assert_eq!(
            cu.step(Time(4)),
            CatchUpStep::Fetch {
                from_round: Round(38),
                to_round: Round(60)
            }
        );
        cu.on_progress(Round(60));
        assert_eq!(cu.step(Time(5)), CatchUpStep::Done);
        assert!(cu.is_done());
        assert_eq!(cu.requests_issued(), 3);
    }

    fn range(to: u16, from_round: u64, to_round: u64) -> Outbound {
        let range = SyncMsg::RequestRange {
            from_round: Round(from_round),
            to_round: Round(to_round),
        };
        Outbound::Send(ReplicaId(to), Message::Sync(range))
    }

    #[test]
    fn drive_turns_probe_info_fetch_progress_done_into_exactly_that_traffic() {
        let mut cu = CatchUpState::new(Round(5), Time(0), TICK);
        let mut frames = Vec::new();
        let mut next_peer = 0;
        let mut pick = || {
            next_peer += 1;
            Some(ReplicaId(next_peer))
        };
        assert!(cu.drive(Time(0), &mut pick, &mut |out| frames.push(out)));
        assert!(cu.drive(Time(1), &mut pick, &mut |out| frames.push(out)));
        cu.on_frontier(Round(40));
        assert!(cu.drive(Time(2), &mut pick, &mut |out| frames.push(out)));
        assert!(cu.drive(Time(3), &mut pick, &mut |out| frames.push(out)));
        cu.on_progress(Round(37));
        assert!(cu.drive(Time(4), &mut pick, &mut |out| frames.push(out)));
        cu.on_progress(Round(40));
        assert!(!cu.drive(Time(5), &mut pick, &mut |out| frames.push(out)));
        assert!(!cu.drive(Time(6), &mut pick, &mut |out| frames.push(out)));
        let probe = Outbound::Broadcast(Message::Sync(SyncMsg::FrontierProbe));
        assert_eq!(frames, [probe, range(1, 6, 37), range(2, 38, 40)]);
        assert_eq!(cu.requests_issued(), frames.len() as u64);
    }

    #[test]
    fn a_lapsed_window_asks_the_picker_again() {
        let mut cu = CatchUpState::new(Round(0), Time(0), TICK);
        cu.on_frontier(Round(8));
        let mut frames = Vec::new();
        let mut peers = [ReplicaId(3), ReplicaId(1)].into_iter();
        assert!(cu.drive(Time(0), || peers.next(), &mut |out| frames.push(out)));
        assert!(cu.drive(Time(9), || peers.next(), &mut |out| frames.push(out)));
        assert!(cu.drive(Time(10), || peers.next(), &mut |out| frames.push(out)));
        assert_eq!(frames, [range(3, 1, 8), range(1, 1, 8)]);
    }

    #[test]
    fn a_picker_with_nobody_to_offer_lapses_to_done() {
        let mut cu = CatchUpState::new(Round(0), Time(0), TICK);
        cu.on_frontier(Round(100));
        let mut now = Time(0);
        let mut drives = 0;
        while cu.drive(now, || None, &mut |out| panic!("emitted {out:?}")) {
            now += TICK;
            drives += 1;
        }
        assert_eq!(drives, MAX_STALLED_FETCHES);
        assert!(cu.is_done());
        // Every window was asked for, though nobody could be asked.
        assert_eq!(cu.requests_issued(), u64::from(MAX_STALLED_FETCHES));
    }

    #[test]
    fn inbound_frames_are_sorted_by_who_handles_them() {
        let probe = Message::Sync(SyncMsg::FrontierProbe);
        assert_eq!(Inbound::classify(probe), Inbound::FrontierProbe);
        let Outbound::Send(to, info) = frontier_info(ReplicaId(2), Round(9)) else {
            panic!("a frontier answer goes to the prober alone");
        };
        assert_eq!(to, ReplicaId(2));
        assert_eq!(Inbound::classify(info), Inbound::FrontierInfo(Round(9)));
        let gossip = DisseminationMsg::Announce { requests: vec![] };
        assert_eq!(
            Inbound::classify(Message::Dissemination(gossip.clone())),
            Inbound::Dissemination(gossip)
        );
        let Outbound::Send(_, fetch) = range(1, 2, 3) else {
            unreachable!()
        };
        assert_eq!(Inbound::classify(fetch.clone()), Inbound::Engine(fetch));
    }

    #[test]
    fn already_caught_up_finishes_immediately() {
        let mut cu = CatchUpState::new(Round(10), Time(0), TICK);
        cu.on_frontier(Round(8));
        assert_eq!(cu.step(Time(0)), CatchUpStep::Done);
    }

    #[test]
    fn gives_up_after_repeated_silent_windows() {
        let mut cu = CatchUpState::new(Round(0), Time(0), TICK);
        assert_eq!(cu.step(Time(0)), CatchUpStep::Probe);
        cu.on_frontier(Round(100));
        let mut now = Time(0);
        let mut fetches = 0;
        loop {
            now += TICK; // lapse every deadline, never deliver
            match cu.step(now) {
                CatchUpStep::Fetch { .. } => fetches += 1,
                CatchUpStep::Done => break,
                step => panic!("unexpected step {step:?}"),
            }
        }
        assert_eq!(
            fetches, MAX_STALLED_FETCHES as usize,
            "stalled fetch windows bounded before giving up"
        );
        assert!(cu.is_done());
    }

    #[test]
    fn probe_deadline_without_any_frontier_gives_up() {
        let mut cu = CatchUpState::new(Round(0), Time(0), TICK);
        assert_eq!(cu.step(Time(0)), CatchUpStep::Probe);
        assert_eq!(cu.step(Time(5)), CatchUpStep::Wait);
        // Silence: each lapsed window re-probes until the stall cap hits.
        let mut now = Time(0);
        let mut probes = 0;
        loop {
            now += TICK;
            match cu.step(now) {
                CatchUpStep::Probe => probes += 1,
                CatchUpStep::Done => break,
                step => panic!("unexpected step {step:?}"),
            }
        }
        assert!(probes <= MAX_STALLED_FETCHES as usize);
        assert!(cu.is_done());
    }

    #[test]
    fn progress_resets_the_stall_counter() {
        let mut cu = CatchUpState::new(Round(0), Time(0), TICK);
        cu.on_frontier(Round(100));
        assert!(matches!(cu.step(Time(0)), CatchUpStep::Fetch { .. }));
        // One silent window...
        assert!(matches!(cu.step(Time(10)), CatchUpStep::Fetch { .. }));
        // ...then progress: the budget refills.
        cu.on_progress(Round(32));
        assert!(matches!(cu.step(Time(20)), CatchUpStep::Fetch { .. }));
        assert!(matches!(cu.step(Time(30)), CatchUpStep::Fetch { .. }));
        assert!(!cu.is_done());
    }
}
