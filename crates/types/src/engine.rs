//! The engine abstraction: consensus protocols as pure state machines.
//!
//! An [`Engine`] never performs I/O and never reads a clock. It is driven by
//! three entry points — `on_init`, `on_message`, `on_timer` — each taking
//! the current time and returning [`Actions`]: messages to transmit, timers
//! to arm, and blocks that became final. The discrete-event simulator
//! (`banyan-simnet`) and the TCP runner (`banyan-transport`) both drive the
//! same engines, which is what makes simulation results transferable and
//! every run reproducible from a seed.

use std::sync::Arc;

use banyan_crypto::{VerifyBackend, VerifyStats};

use crate::ids::{BlockHash, ReplicaId, Round};
use crate::message::Message;
use crate::payload::Payload;
use crate::snapshot::ChainSnapshot;
use crate::time::Time;

/// Why a timer was armed. Engines receive the same value back when the
/// timer fires; stale timers (for rounds already left) are ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Time to propose our own block for `round` (after `Δ_prop(rank)`).
    Propose {
        /// The round to propose in.
        round: u64,
        /// Set by a rank-0 proposer only: while the replica's request
        /// pool is idle, its driver may hold the proposal until a request
        /// arrives, but never past this instant.
        hold_until: Option<Time>,
    },
    /// Time to consider notarization votes for blocks of `rank` in `round`
    /// (after `Δ_notary(rank)`).
    NotarizeRank {
        /// The round in question.
        round: u64,
        /// The rank whose notarization delay expired.
        rank: u16,
    },
    /// Generic per-round progress timeout (crash recovery).
    RoundTimeout {
        /// The round that may be stuck.
        round: u64,
    },
    /// Streamlet's fixed-length epoch boundary.
    EpochTick {
        /// The epoch that begins at this tick.
        epoch: u64,
    },
    /// HotStuff pacemaker view timeout.
    ViewTimeout {
        /// The view that timed out.
        view: u64,
    },
}

impl TimerKind {
    /// The round (view, epoch) this timer belongs to. Drivers use this for
    /// stale-timer filtering: every engine treats a timer whose scope round
    /// is below its [`Engine::current_round`] as a no-op (the round was
    /// abandoned), so such timers can be dropped without delivery.
    pub fn scope_round(&self) -> u64 {
        match *self {
            TimerKind::Propose { round, .. } => round,
            TimerKind::NotarizeRank { round, .. } => round,
            TimerKind::RoundTimeout { round } => round,
            TimerKind::EpochTick { epoch } => epoch,
            TimerKind::ViewTimeout { view } => view,
        }
    }
}

/// A request to be woken at `at` with `kind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerRequest {
    /// Absolute wake-up time.
    pub at: Time,
    /// Payload returned to the engine on firing.
    pub kind: TimerKind,
}

/// An outbound transmission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outbound {
    /// Send to every other replica (not to self).
    Broadcast(Message),
    /// Send to one peer.
    Send(ReplicaId, Message),
}

/// A block that became final at this replica, with everything the metrics
/// pipeline needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitEntry {
    /// Round (= height) of the committed block.
    pub round: Round,
    /// The committed block.
    pub block: BlockHash,
    /// Who proposed it.
    pub proposer: ReplicaId,
    /// The committed payload: content for [`App`](crate::app::App)
    /// delivery, logical length for throughput metrics. Synthetic payloads
    /// keep this a 16-byte descriptor.
    pub payload: Payload,
    /// When the proposer stamped the block (latency baseline; meaningful
    /// at the proposer itself, which is how the paper measures latency).
    pub proposed_at: Time,
    /// When this replica finalized the block.
    pub committed_at: Time,
    /// True if the block was finalized via the fast path (directly or as
    /// the explicit tip whose certificate was fast).
    pub fast: bool,
    /// True if this replica itself assembled/received an explicit
    /// finalization for the block; false for ancestors finalized
    /// implicitly (§4 "Finalization").
    pub explicit: bool,
}

impl CommitEntry {
    /// Logical payload size in bytes (what throughput counts).
    pub fn payload_len(&self) -> u64 {
        self.payload.len()
    }
}

/// Everything an engine wants done after handling one event.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Actions {
    /// Messages to transmit.
    pub outbound: Vec<Outbound>,
    /// Timers to arm.
    pub timers: Vec<TimerRequest>,
    /// Blocks that became final, in chain order.
    pub commits: Vec<CommitEntry>,
}

impl Actions {
    /// No-op actions.
    pub fn none() -> Self {
        Actions::default()
    }

    /// True if nothing is requested.
    pub fn is_empty(&self) -> bool {
        self.outbound.is_empty() && self.timers.is_empty() && self.commits.is_empty()
    }

    /// Queues a broadcast.
    pub fn broadcast(&mut self, msg: Message) {
        self.outbound.push(Outbound::Broadcast(msg));
    }

    /// Queues a unicast.
    pub fn send(&mut self, to: ReplicaId, msg: Message) {
        self.outbound.push(Outbound::Send(to, msg));
    }

    /// Arms a timer.
    pub fn arm(&mut self, at: Time, kind: TimerKind) {
        self.timers.push(TimerRequest { at, kind });
    }

    /// Records a commit.
    pub fn commit(&mut self, entry: CommitEntry) {
        self.commits.push(entry);
    }

    /// Merges another action set into this one, preserving order.
    pub fn extend(&mut self, other: Actions) {
        self.outbound.extend(other.outbound);
        self.timers.extend(other.timers);
        self.commits.extend(other.commits);
    }
}

/// A consensus protocol instance at one replica.
///
/// Implementations must be deterministic functions of their inputs: the
/// whole test strategy (seeded reproducibility, simulation/TCP agreement)
/// rests on it.
pub trait Engine: Send {
    /// This replica's identity.
    fn id(&self) -> ReplicaId;

    /// Protocol name for reports ("banyan", "icc", "hotstuff", "streamlet").
    fn protocol_name(&self) -> &'static str;

    /// Called once before any other event, at time `now`.
    fn on_init(&mut self, now: Time) -> Actions;

    /// Called for every delivered message.
    fn on_message(&mut self, from: ReplicaId, msg: Message, now: Time) -> Actions;

    /// Called when an armed timer fires.
    fn on_timer(&mut self, kind: TimerKind, now: Time) -> Actions;

    /// The highest round this engine has entered (for progress probes).
    fn current_round(&self) -> Round;

    /// The highest round this engine has committed — the frontier a
    /// rejoining peer must catch up to. Drivers answer
    /// [`crate::message::SyncMsg::FrontierProbe`]s from this, so engines
    /// never see catch-up traffic.
    fn finalized_round(&self) -> Round {
        Round::GENESIS
    }

    /// The engine's durable chain state (blocks, certificates, finalized
    /// frontier) as a normalized [`ChainSnapshot`]. The default — an empty
    /// snapshot — means the engine persists nothing and a restart loses
    /// its state.
    fn snapshot(&self) -> ChainSnapshot {
        ChainSnapshot::default()
    }

    /// Rebuilds durable state from a snapshot. Must be called **before**
    /// [`Engine::on_init`]: recovery constructs the engine, restores, and
    /// only then starts the event clock, so a restarted replica re-enters
    /// at its recovered frontier. The default ignores the snapshot.
    fn restore(&mut self, snapshot: &ChainSnapshot) {
        let _ = snapshot;
    }

    /// Bytes the engine's backing store currently holds in its write-ahead
    /// log (0 when the store is purely in-memory). A gauge for harness
    /// metrics, not a protocol input.
    fn wal_bytes(&self) -> u64 {
        0
    }

    /// Cumulative signature-verification counters for this engine's verify
    /// plane (signatures checked, batches formed, certificate-cache hits).
    /// Like [`Engine::wal_bytes`] this is a gauge for harness metrics, not
    /// a protocol input. The default — all zeros — means the engine does
    /// not route verification through an instrumented backend.
    fn verify_stats(&self) -> VerifyStats {
        VerifyStats::default()
    }

    /// Installs a verify backend for this engine's signature checks
    /// (a batched/cached plane, or a wrapper that traces one). Engines that do not route verification through a backend ignore it
    /// (the default).
    fn set_verify_backend(&mut self, backend: Arc<dyn VerifyBackend>) {
        let _ = backend;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, SyncMsg};

    #[test]
    fn actions_builders() {
        let mut a = Actions::none();
        assert!(a.is_empty());
        a.broadcast(Message::Sync(SyncMsg::Request {
            hash: BlockHash::ZERO,
        }));
        a.send(
            ReplicaId(2),
            Message::Sync(SyncMsg::Request {
                hash: BlockHash::ZERO,
            }),
        );
        a.arm(
            Time(5),
            TimerKind::Propose {
                round: 1,
                hold_until: None,
            },
        );
        assert!(!a.is_empty());
        assert_eq!(a.outbound.len(), 2);
        assert_eq!(a.timers.len(), 1);
    }

    #[test]
    fn actions_extend_preserves_order() {
        let mut a = Actions::none();
        a.arm(
            Time(1),
            TimerKind::Propose {
                round: 1,
                hold_until: None,
            },
        );
        let mut b = Actions::none();
        b.arm(
            Time(2),
            TimerKind::Propose {
                round: 2,
                hold_until: None,
            },
        );
        a.extend(b);
        assert_eq!(a.timers[0].at, Time(1));
        assert_eq!(a.timers[1].at, Time(2));
    }

    #[test]
    fn timer_kinds_are_comparable() {
        assert_eq!(
            TimerKind::Propose {
                round: 1,
                hold_until: None,
            },
            TimerKind::Propose {
                round: 1,
                hold_until: None,
            }
        );
        assert_ne!(
            TimerKind::NotarizeRank { round: 1, rank: 0 },
            TimerKind::NotarizeRank { round: 1, rank: 1 }
        );
    }
}
