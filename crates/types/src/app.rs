//! The service interface: where payloads come from and where commits go.
//!
//! The paper's workload is "a bit vector randomly generated by the leader"
//! (§9.2) — historically that assumption was baked into every engine as a
//! `payload_size` field. This module replaces it with two small traits so
//! the same engines can serve a real request stream:
//!
//! * [`ProposalSource`] — the engine *pulls* the next block payload when it
//!   proposes (a mempool, a client queue, or the paper's size-only
//!   [`FixedSizeSource`]);
//! * [`App`] — the deployment *pushes* every finalized block (with its
//!   payload) to the application for delivery.
//!
//! Both sides inherit the engine purity contract: a source must be a
//! deterministic function of its own state, its seed and the `(round,
//! now)` arguments — never of wall clocks or ambient randomness — so
//! seeded runs stay bit-reproducible.

use crate::engine::CommitEntry;
use crate::ids::{BlockHash, Round};
use crate::payload::Payload;
use crate::time::Time;

/// Everything an engine knows about the proposal it is building when it
/// pulls a payload from its [`ProposalSource`].
///
/// Historically the pull was `next_payload(round, now)`: the source was
/// blind to *where* in the block tree the proposal would sit, so every
/// leader drained the same pending FIFO and uncommitted ancestor blocks
/// were re-batched wholesale (the sweep's `dups` column). The context adds
/// the chain position — the parent block and the uncommitted ancestor
/// chain — which is what lets a mempool skip requests already leased to
/// a live ancestor (see `banyan_mempool`).
///
/// The engine only reports block *identities*; it never decodes payloads
/// or learns what a request is. Whoever needs the ancestors' contents (a
/// pool's lease table) is fed by the driver layer decoding
/// committed/observed payloads, so the engine purity contract is intact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProposalContext {
    /// The round (view, epoch) the block is proposed for.
    pub round: Round,
    /// The engine-supplied current time.
    pub now: Time,
    /// Hash of the block the proposal extends ([`BlockHash::ZERO`] when it
    /// extends genesis).
    pub parent: BlockHash,
    /// The **uncommitted ancestor chain** the proposal extends: `parent`
    /// first (newest), following parent links down to — but not including
    /// — the newest committed block. Empty when the parent is genesis or
    /// already committed. Requests carried by these blocks may still
    /// commit, so an inclusion-aware source must not re-batch them.
    pub ancestors: Vec<BlockHash>,
}

impl ProposalContext {
    /// A context for a proposal extending genesis (no live ancestors) —
    /// the shape of every round-1 proposal, and a convenient stand-in in
    /// tests for sources that ignore chain position.
    pub fn root(round: Round, now: Time) -> Self {
        ProposalContext {
            round,
            now,
            parent: BlockHash::ZERO,
            ancestors: Vec::new(),
        }
    }
}

/// Supplies the payload for each block a replica proposes.
///
/// The engine calls [`next_payload`](Self::next_payload) exactly once per
/// block it builds (Byzantine equivocators call it once per conflicting
/// block), passing a [`ProposalContext`] describing where in the block
/// tree the proposal will sit. Implementations must be deterministic
/// functions of their inputs and internal state: the whole test strategy
/// (seeded reproducibility, simulation/TCP agreement) rests on it, exactly
/// as for [`Engine`](crate::engine::Engine) itself.
///
/// # Examples
///
/// A source that alternates between an empty and a one-byte payload:
///
/// ```
/// use banyan_types::app::{ProposalContext, ProposalSource};
/// use banyan_types::ids::Round;
/// use banyan_types::payload::Payload;
/// use banyan_types::time::Time;
///
/// struct Alternating(bool);
/// impl ProposalSource for Alternating {
///     fn next_payload(&mut self, _ctx: &ProposalContext) -> Payload {
///         self.0 = !self.0;
///         if self.0 { Payload::inline(vec![1]) } else { Payload::empty() }
///     }
/// }
///
/// let mut src = Alternating(false);
/// assert_eq!(src.next_payload(&ProposalContext::root(Round(1), Time::ZERO)).len(), 1);
/// assert_eq!(src.next_payload(&ProposalContext::root(Round(2), Time::ZERO)).len(), 0);
/// ```
pub trait ProposalSource: Send {
    /// Returns the payload for the block described by `ctx`.
    fn next_payload(&mut self, ctx: &ProposalContext) -> Payload;
}

/// Receives every block a replica finalizes, in chain order.
///
/// Drivers (the simulator, the TCP runner) invoke
/// [`deliver`](Self::deliver) once per commit; `entry.payload` carries the
/// committed content, so a real application can execute the requests a
/// block contains.
///
/// # Examples
///
/// An app that tallies delivered bytes:
///
/// ```
/// use banyan_types::app::App;
/// use banyan_types::engine::CommitEntry;
///
/// #[derive(Default)]
/// struct ByteCounter(u64);
/// impl App for ByteCounter {
///     fn deliver(&mut self, entry: &CommitEntry) {
///         self.0 += entry.payload_len();
///     }
/// }
///
/// let mut app = ByteCounter::default();
/// // (drivers call app.deliver(&entry) for every finalized block)
/// assert_eq!(app.0, 0);
/// ```
pub trait App: Send {
    /// Called once per finalized block at this replica, in chain order.
    fn deliver(&mut self, entry: &CommitEntry);
}

/// An [`App`] that discards every delivery (the default when a deployment
/// only cares about metrics).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullApp;

impl App for NullApp {
    fn deliver(&mut self, _entry: &CommitEntry) {}
}

/// One [`App`] observed from every replica: a clonable handle whose clones
/// all deliver into the same shared inner app.
///
/// Drivers attach one `App` per replica, but some consumers — a closed-loop
/// client population tracking completions, a cluster-wide byte tally —
/// need to observe the commits of *all* replicas through one piece of
/// state. `SharedApp` is that completion hook: clone one handle per
/// replica, attach the clones, and every delivery (from any replica, in
/// that driver's deterministic commit order) reaches the single inner app.
///
/// # Examples
///
/// ```
/// use banyan_types::app::{App, SharedApp};
/// use banyan_types::engine::CommitEntry;
///
/// #[derive(Default)]
/// struct ByteCounter(u64);
/// impl App for ByteCounter {
///     fn deliver(&mut self, entry: &CommitEntry) {
///         self.0 += entry.payload_len();
///     }
/// }
///
/// let shared = SharedApp::new(ByteCounter::default());
/// let mut per_replica = shared.clone(); // attach one clone per replica
/// # let _ = &mut per_replica;
/// assert_eq!(shared.inner().0, 0);
/// ```
#[derive(Debug, Default)]
pub struct SharedApp<A: App>(std::sync::Arc<std::sync::Mutex<A>>);

impl<A: App> SharedApp<A> {
    /// Wraps `inner` so clones of the returned handle share it.
    pub fn new(inner: A) -> Self {
        SharedApp(std::sync::Arc::new(std::sync::Mutex::new(inner)))
    }

    /// Locks and returns the shared inner app (for post-run inspection).
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the lock panicked.
    pub fn inner(&self) -> std::sync::MutexGuard<'_, A> {
        self.0.lock().expect("shared app lock")
    }
}

impl<A: App> Clone for SharedApp<A> {
    fn clone(&self) -> Self {
        SharedApp(self.0.clone())
    }
}

impl<A: App> App for SharedApp<A> {
    fn deliver(&mut self, entry: &CommitEntry) {
        self.inner().deliver(entry);
    }
}

/// The paper's workload as a [`ProposalSource`]: every proposal carries a
/// synthetic (size-only) payload of a fixed number of bytes, with a seed
/// unique per `(replica, proposal)` so equivocating blocks stay distinct.
///
/// This reproduces the historical leader-minted behavior bit-for-bit: the
/// `k`-th payload of replica `i` is `Payload::synthetic(size, i << 48 | k)`
/// with `k` starting at 1.
///
/// # Examples
///
/// ```
/// use banyan_types::app::{FixedSizeSource, ProposalContext, ProposalSource};
/// use banyan_types::ids::Round;
/// use banyan_types::payload::Payload;
/// use banyan_types::time::Time;
///
/// let mut src = FixedSizeSource::new(400_000, 3);
/// let first = src.next_payload(&ProposalContext::root(Round(1), Time::ZERO));
/// assert_eq!(first.len(), 400_000);
/// assert_eq!(first, Payload::synthetic(400_000, (3u64 << 48) | 1));
/// ```
#[derive(Clone, Debug)]
pub struct FixedSizeSource {
    size: u64,
    tag: u64,
    counter: u64,
}

impl FixedSizeSource {
    /// A source minting `size`-byte synthetic payloads for replica `id`.
    pub fn new(size: u64, id: u16) -> Self {
        FixedSizeSource {
            size,
            tag: (id as u64) << 48,
            counter: 0,
        }
    }

    /// The fixed payload size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }
}

impl ProposalSource for FixedSizeSource {
    fn next_payload(&mut self, _ctx: &ProposalContext) -> Payload {
        self.counter += 1;
        Payload::synthetic(self.size, self.tag | self.counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{BlockHash, ReplicaId};

    #[test]
    fn fixed_size_source_reproduces_leader_minted_seeds() {
        let mut src = FixedSizeSource::new(1_000, 5);
        for k in 1..=3u64 {
            let p = src.next_payload(&ProposalContext::root(Round(k), Time(k)));
            assert_eq!(p, Payload::synthetic(1_000, (5u64 << 48) | k));
        }
        assert_eq!(src.size(), 1_000);
    }

    #[test]
    fn fixed_size_sources_of_distinct_replicas_never_collide() {
        let mut a = FixedSizeSource::new(64, 0);
        let mut b = FixedSizeSource::new(64, 1);
        assert_ne!(
            a.next_payload(&ProposalContext::root(Round(1), Time::ZERO)),
            b.next_payload(&ProposalContext::root(Round(1), Time::ZERO))
        );
    }

    #[test]
    fn root_context_extends_genesis() {
        let ctx = ProposalContext::root(Round(1), Time(9));
        assert_eq!(ctx.parent, BlockHash::ZERO);
        assert!(ctx.ancestors.is_empty());
        assert_eq!((ctx.round, ctx.now), (Round(1), Time(9)));
    }

    #[test]
    fn shared_app_clones_feed_one_inner() {
        struct Count(u64);
        impl App for Count {
            fn deliver(&mut self, _entry: &CommitEntry) {
                self.0 += 1;
            }
        }
        let entry = CommitEntry {
            round: Round(1),
            block: BlockHash::ZERO,
            proposer: ReplicaId(0),
            payload: Payload::empty(),
            proposed_at: Time::ZERO,
            committed_at: Time(1),
            fast: false,
            explicit: true,
        };
        let shared = SharedApp::new(Count(0));
        let mut a = shared.clone();
        let mut b = shared.clone();
        a.deliver(&entry);
        b.deliver(&entry);
        assert_eq!(shared.inner().0, 2, "both clones reach the same inner");
    }

    #[test]
    fn null_app_accepts_deliveries() {
        let entry = CommitEntry {
            round: Round(1),
            block: BlockHash::ZERO,
            proposer: ReplicaId(0),
            payload: Payload::inline(vec![1, 2, 3]),
            proposed_at: Time::ZERO,
            committed_at: Time(10),
            fast: false,
            explicit: true,
        };
        NullApp.deliver(&entry);
        assert_eq!(entry.payload_len(), 3);
    }
}
