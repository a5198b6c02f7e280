//! Chained HotStuff baseline (Yin et al., PODC'19), as used by the paper's
//! evaluation through the Bamboo framework (§9.1).
//!
//! This is the pipelined, rotating-leader variant with the classic 3-chain
//! commit rule:
//!
//! * the leader of view `v` proposes a block justified by its highest QC;
//! * replicas vote to the **next** leader if the proposal extends the
//!   justify block and the liveness rule (`justify.view ≥ locked.view`)
//!   holds;
//! * `⌈(n+f+1)/2⌉` votes form a QC; three QCs over consecutive views
//!   commit the head of the chain (and its ancestors);
//! * a pacemaker advances views on timeout, broadcasting `NewView` with
//!   the highest known QC.
//!
//! Proposer latency on the happy path is the paper's Table 1 figure for
//! HotStuff-family protocols: several round trips, which is exactly what
//! Fig. 6a/6e show it losing to ICC/Banyan by.
//!
//! Blocks live in the engine's [`ChainStore`], like every engine's. A QC
//! is kept as the notarization record of the block it certifies (its view
//! as the round), stored when a block carrying it is: a block's justify
//! is its parent's record. A commit marks each block finalized.
//!
//! Evidence comes in as in every engine (`crate::evidence`): a proposal
//! from the view's leader, extending its justify block, is admitted there
//! (a repeated one is neither hashed nor checked again), a QC passes the
//! shared certificate gate, and votes are tallied in one
//! [`VoteTable`] per view. Per-view state is dropped once the rules can
//! no longer read it: votes at or below `high_qc.view`, NewViews below
//! the view before the current one.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use banyan_crypto::beacon::Beacon;
use banyan_crypto::registry::KeyRegistry;
use banyan_crypto::{DirectVerify, Signature, VerifyBackend, VerifyStats};
use banyan_storage::{BlockStore, ChainStore};
use banyan_types::app::ProposalSource;
use banyan_types::block::Block;
use banyan_types::certs::{Notarization, QuorumCert};
use banyan_types::config::ProtocolConfig;
use banyan_types::engine::{Actions, Engine, TimerKind};
use banyan_types::ids::{BlockHash, Rank, ReplicaId, Round};
use banyan_types::message::{HotStuffMsg, Message};
use banyan_types::time::{Duration, Time};
use banyan_types::ChainSnapshot;

use crate::chained::round::VoteTable;
use crate::{baseline, evidence};

/// Domain for HotStuff vote signatures. Delegates to the shared
/// [`QuorumCert::signing_message`] so the transport verify plane (which
/// pre-checks certificates by recomputing this string) can never drift
/// from what the engine signs.
fn vote_message(view: u64, block: &BlockHash) -> Vec<u8> {
    QuorumCert::signing_message(view, block)
}

/// The QC a stored notarization record stands for.
fn qc_of(record: &Notarization) -> QuorumCert {
    QuorumCert {
        view: record.round.0,
        block: record.block,
        agg: record.agg.clone(),
    }
}

/// The chained-HotStuff replica engine.
pub struct HotStuffEngine {
    cfg: ProtocolConfig,
    id: ReplicaId,
    beacon: Beacon,
    registry: KeyRegistry,
    /// The verify plane (see `ChainedEngine::set_verify_backend`).
    verify: Arc<dyn VerifyBackend>,
    /// Blocks, the QCs they carry, and the finalized chain.
    store: Box<dyn ChainStore>,
    /// Current view.
    view: u64,
    /// Highest QC known.
    high_qc: QuorumCert,
    /// Locked QC (2-chain lock for safety).
    locked_qc: QuorumCert,
    /// Last view we voted in.
    last_vote_view: u64,
    /// Last view we proposed in: proposals happen only in the current
    /// view, and only the current view's is ever looked up.
    last_proposal_view: u64,
    /// Votes collected by this replica as (next-view) leader, per view.
    /// A QC forms only above `high_qc.view`, so the views at or below it
    /// are dropped whenever it rises, and votes for them are not kept.
    votes: BTreeMap<u64, VoteTable>,
    /// NewView senders per view (pacemaker quorum). `try_propose` reads
    /// only the view before the current one, so views below that are
    /// dropped on entering a view, and NewViews for them are not kept.
    new_views: BTreeMap<u64, BTreeSet<u16>>,
    /// The store's finalized frontier as of the start of the current
    /// engine event — i.e. the newest commit whose `CommitEntry` the
    /// driver has already routed. The `ProposalContext` ancestor walk
    /// stops here, NOT at the live frontier: a QC arrival can commit a
    /// block and trigger the next proposal in one event, and the mempool's lease for that block
    /// is still live until the commit is routed after the event — so the
    /// block must still count as a live ancestor or its requests would be
    /// re-batched (the commit-lag duplication race).
    routed_committed_round: Round,
    /// View timeout (pacemaker).
    view_timeout: Duration,
    /// Where block payloads come from.
    source: Box<dyn ProposalSource>,
}

impl std::fmt::Debug for HotStuffEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotStuffEngine")
            .field("id", &self.id)
            .field("view", &self.view)
            .field("committed_round", &self.finalized_round())
            .finish_non_exhaustive()
    }
}

impl HotStuffEngine {
    /// Creates a replica engine.
    pub fn new(
        cfg: ProtocolConfig,
        registry: KeyRegistry,
        beacon: Beacon,
        source: Box<dyn ProposalSource>,
        view_timeout: Duration,
    ) -> Self {
        assert_eq!(beacon.n(), cfg.n(), "beacon sized for the cluster");
        let id = ReplicaId(registry.my_index());
        let verify: Arc<dyn VerifyBackend> = Arc::new(DirectVerify::new(registry.table().clone()));
        HotStuffEngine {
            cfg,
            id,
            beacon,
            registry,
            verify,
            store: Box::new(BlockStore::new()),
            view: 0,
            high_qc: QuorumCert::genesis(),
            locked_qc: QuorumCert::genesis(),
            last_vote_view: 0,
            last_proposal_view: 0,
            votes: BTreeMap::new(),
            new_views: BTreeMap::new(),
            routed_committed_round: Round::GENESIS,
            view_timeout,
            source,
        }
    }

    /// Builder-style: replaces the chain store (e.g. a reopened
    /// `banyan_storage::WalStore`) and resumes from what it holds, as
    /// [`Engine::restore`] does from a snapshot.
    pub fn with_store(mut self, store: Box<dyn ChainStore>) -> Self {
        let snapshot = store.snapshot();
        self.store = store;
        self.resume(&snapshot);
        self
    }

    /// Re-derives the volatile state from the durable `snapshot` the
    /// store now holds. Locking at the highest recorded QC is
    /// conservative (it only refuses votes the pre-crash lock might have
    /// allowed), so a restarted replica can never vote for a conflicting
    /// branch.
    fn resume(&mut self, snapshot: &ChainSnapshot) {
        self.high_qc = snapshot
            .notarizations
            .iter()
            .max_by_key(|record| record.round)
            .map_or_else(QuorumCert::genesis, qc_of);
        self.locked_qc = self.high_qc.clone();
        // Past votes and proposals are gone with the crash. A replica
        // stores a block before it proposes or votes for it, so it did
        // neither in any view above the highest stored round: refusing
        // to vote up to that round, and parking one view short so
        // `on_init` re-enters just past it, prevents equivocation in
        // replayed views.
        let top = snapshot
            .blocks
            .iter()
            .map(|(_, b)| b.round.0)
            .max()
            .unwrap_or(0);
        self.last_vote_view = top;
        self.view = top;
        self.routed_committed_round = self.finalized_round();
        self.last_proposal_view = 0;
        self.votes.clear();
        self.new_views.clear();
    }

    /// Stores `block` and, unless it is genesis, the QC it carries as the
    /// record of the block that QC certifies.
    fn store_block(&mut self, hash: BlockHash, block: Block, justify: &QuorumCert) {
        self.store.insert(hash, block);
        if !justify.is_genesis() {
            let record =
                Notarization::from_votes(Round(justify.view), justify.block, justify.agg.clone());
            self.store.mark_notarized(justify.block, Some(record));
        }
    }

    fn leader(&self, view: u64) -> ReplicaId {
        ReplicaId(self.beacon.leader(view.saturating_sub(1)))
    }

    fn quorum(&self) -> usize {
        self.cfg.notarization_quorum()
    }

    fn enter_view(&mut self, view: u64, now: Time, actions: &mut Actions) {
        if view <= self.view {
            return;
        }
        self.view = view;
        self.new_views.retain(|&v, _| v.saturating_add(1) >= view);
        actions.arm(now + self.view_timeout, TimerKind::ViewTimeout { view });
        if self.leader(view) == self.id {
            self.try_propose(now, actions);
        }
    }

    fn try_propose(&mut self, now: Time, actions: &mut Actions) {
        let view = self.view;
        if self.leader(view) != self.id || self.last_proposal_view == view {
            return;
        }
        // Propose only when justified: either the QC of view − 1 is known
        // or a pacemaker quorum of NewViews arrived (after a timeout).
        let justified = self.high_qc.view.checked_add(1) == Some(view)
            || self
                .new_views
                .get(&(view - 1))
                .map(|senders| senders.len() >= self.quorum())
                .unwrap_or(false)
            || view == 1;
        if !justified {
            return;
        }
        self.last_proposal_view = view;
        let justify = self.high_qc.clone();
        let ctx = baseline::proposal_context(
            self.store.as_ref(),
            Round(view),
            justify.block,
            self.routed_committed_round,
            now,
        );
        let block = Block {
            round: Round(view),
            proposer: self.id,
            rank: Rank(0),
            parent: justify.block,
            proposed_at: now,
            payload: self.source.next_payload(&ctx),
            signature: Signature::zero(),
        };
        let (_, block) = evidence::mint(&self.registry, self.cfg.payload_chunk, block);
        actions.broadcast(Message::HotStuff(HotStuffMsg::Proposal {
            block: block.clone(),
            justify: justify.clone(),
        }));
        // Take in our own proposal as a peer does: store it, vote for it.
        self.handle_proposal(block, justify, now, actions);
    }

    fn update_high_qc(&mut self, qc: &QuorumCert) {
        if qc.view > self.high_qc.view {
            self.high_qc = qc.clone();
            self.votes.retain(|&view, _| view > qc.view);
        }
    }

    fn verify_qc(&self, qc: &QuorumCert) -> bool {
        let (verify, quorum) = (self.verify.as_ref(), self.quorum());
        qc.is_genesis()
            || evidence::certified(verify, quorum, &vote_message(qc.view, &qc.block), &qc.agg)
    }

    fn handle_proposal(
        &mut self,
        block: Block,
        justify: QuorumCert,
        now: Time,
        actions: &mut Actions,
    ) {
        let view = block.round.0;
        if view == 0 || !self.verify_qc(&justify) {
            return;
        }
        // Header checks before the hash, the only O(payload) step.
        if block.proposer != self.leader(view) || block.parent != justify.block {
            return;
        }
        let chunk = self.cfg.payload_chunk;
        let admitted = evidence::admit(self.store.as_ref(), self.verify.as_ref(), &block, chunk);
        let Some((hash, _)) = admitted else {
            return;
        };
        self.store_block(hash, block, &justify);
        self.update_high_qc(&justify);
        self.try_commit(&justify, now, actions);

        // View synchronization: a valid proposal for a higher view pulls
        // us forward.
        if view > self.view {
            self.enter_view(view, now, actions);
        }
        if view < self.view {
            return; // stale proposal
        }

        // SafeNode: vote once per view, for proposals whose justify is at
        // least our lock. No view follows `u64::MAX`, so nobody leads the
        // view a vote there would go to.
        let Some(next_view) = view.checked_add(1) else {
            return;
        };
        if view > self.last_vote_view && justify.view >= self.locked_qc.view {
            self.last_vote_view = view;
            // 2-chain lock update: lock the justify's justify, the record
            // of the justify block's parent.
            let grandparent = self.store.get(&justify.block).map(|b| b.parent);
            if let Some(record) = grandparent.and_then(|h| self.store.notarization(&h)) {
                if record.round.0 > self.locked_qc.view {
                    self.locked_qc = qc_of(record);
                }
            }
            let sig = self.registry.sign(&vote_message(view, &hash));
            let vote = HotStuffMsg::Vote {
                view,
                block: hash,
                voter: self.id,
                signature: sig,
            };
            let next_leader = self.leader(next_view);
            if next_leader == self.id {
                self.handle_vote(view, hash, self.id, sig, now, actions);
            } else {
                actions.send(next_leader, Message::HotStuff(vote));
            }
        }
    }

    fn handle_vote(
        &mut self,
        view: u64,
        block: BlockHash,
        voter: ReplicaId,
        signature: Signature,
        now: Time,
        actions: &mut Actions,
    ) {
        if !self
            .verify
            .verify(voter.0, &vote_message(view, &block), &signature)
            || view <= self.high_qc.view
        {
            return;
        }
        let quorum = self.quorum();
        let table = self.votes.entry(view).or_default();
        table.add(block, voter, signature);
        if table.count(&block) >= quorum {
            let agg = self.registry.table().aggregate(&table.votes_for(&block));
            let qc = QuorumCert { view, block, agg };
            self.update_high_qc(&qc);
            self.try_commit(&qc, now, actions);
            // As leader of view + 1, propose immediately (optimistic
            // responsiveness).
            if let Some(next) = view.checked_add(1) {
                self.enter_view(next, now, actions);
                self.try_propose(now, actions);
            }
        }
    }

    /// The 3-chain commit rule: a QC for `b2` where `b2 → b1 → b0` with
    /// consecutive views commits `b0` and its uncommitted ancestors.
    fn try_commit(&mut self, qc: &QuorumCert, now: Time, actions: &mut Actions) {
        let Some(b2) = self.store.get(&qc.block) else {
            return;
        };
        let Some(b1) = self.store.get(&b2.parent) else {
            return;
        };
        let b0_hash = b1.parent;
        let Some(b0) = self.store.get(&b0_hash) else {
            return;
        };
        if b1.round.0.checked_add(1) != Some(b2.round.0)
            || b0.round.0.checked_add(1) != Some(b1.round.0)
            || b0.round <= self.finalized_round()
        {
            return;
        }
        baseline::commit_chain(self.store.as_mut(), b0_hash, now, actions);
    }

    fn handle_new_view(
        &mut self,
        view: u64,
        justify: QuorumCert,
        from: ReplicaId,
        now: Time,
        actions: &mut Actions,
    ) {
        if !self.verify_qc(&justify) {
            return;
        }
        self.update_high_qc(&justify);
        if view.saturating_add(1) >= self.view {
            self.new_views.entry(view).or_default().insert(from.0);
        }
        let next = view
            .checked_add(1)
            .filter(|&next| self.leader(next) == self.id);
        if let Some(next) = next {
            self.enter_view(next, now, actions);
            self.try_propose(now, actions);
        }
    }
}

impl Engine for HotStuffEngine {
    fn id(&self) -> ReplicaId {
        self.id
    }

    fn protocol_name(&self) -> &'static str {
        "hotstuff"
    }

    fn on_init(&mut self, now: Time) -> Actions {
        self.routed_committed_round = self.finalized_round();
        let mut actions = Actions::none();
        // Fresh engines start at view 1; restored ones re-enter one view
        // past their highest stored block (`resume` parks `view` there).
        let next = self.view.saturating_add(1).max(1);
        self.enter_view(next, now, &mut actions);
        actions
    }

    fn on_message(&mut self, from: ReplicaId, msg: Message, now: Time) -> Actions {
        // Everything committed before this event has been routed by now.
        self.routed_committed_round = self.finalized_round();
        let mut actions = Actions::none();
        match msg {
            Message::HotStuff(HotStuffMsg::Proposal { block, justify }) => {
                self.handle_proposal(block, justify, now, &mut actions);
            }
            Message::HotStuff(HotStuffMsg::Vote {
                view,
                block,
                voter,
                signature,
            }) => {
                self.handle_vote(view, block, voter, signature, now, &mut actions);
            }
            Message::HotStuff(HotStuffMsg::NewView { view, justify }) => {
                self.handle_new_view(view, justify, from, now, &mut actions);
            }
            _ => {}
        }
        actions
    }

    fn on_timer(&mut self, kind: TimerKind, now: Time) -> Actions {
        self.routed_committed_round = self.finalized_round();
        let mut actions = Actions::none();
        if let TimerKind::ViewTimeout { view } = kind {
            // A replica in view `u64::MAX` has no view to move on to.
            let next = view.checked_add(1).filter(|_| view == self.view);
            if let Some(next) = next {
                // Pacemaker: give up on the view, tell the next leader.
                let msg = HotStuffMsg::NewView {
                    view,
                    justify: self.high_qc.clone(),
                };
                let next_leader = self.leader(next);
                if next_leader == self.id {
                    let high = self.high_qc.clone();
                    self.handle_new_view(view, high, self.id, now, &mut actions);
                } else {
                    actions.send(next_leader, Message::HotStuff(msg));
                }
                self.enter_view(next, now, &mut actions);
            }
        }
        actions
    }

    fn current_round(&self) -> Round {
        Round(self.view)
    }

    fn finalized_round(&self) -> Round {
        self.store.max_finalized_round()
    }

    fn verify_stats(&self) -> VerifyStats {
        self.verify.stats()
    }

    fn set_verify_backend(&mut self, backend: Arc<dyn VerifyBackend>) {
        self.verify = backend;
    }

    fn snapshot(&self) -> ChainSnapshot {
        self.store.snapshot()
    }

    fn restore(&mut self, snapshot: &ChainSnapshot) {
        self.store.restore(snapshot);
        self.resume(snapshot);
    }

    fn wal_bytes(&self) -> u64 {
        self.store.wal_bytes()
    }
}

#[cfg(test)]
mod tests {
    use banyan_crypto::beacon::BeaconMode;
    use banyan_crypto::hashsig::HashSig;
    use banyan_types::app::FixedSizeSource;

    use super::*;
    use crate::baseline::tests::deliver;

    /// A fault-free n = 4 cluster run for 600 views holds as few per-view
    /// entries as after a handful: votes only above `high_qc.view`,
    /// NewViews only from the view before the current one on.
    #[test]
    fn per_view_state_stays_bounded_over_600_views() {
        const N: usize = 4;
        let mut engines: Vec<HotStuffEngine> = (0..N as u16)
            .map(|i| {
                HotStuffEngine::new(
                    ProtocolConfig::new(N, 1, 1).unwrap(),
                    KeyRegistry::generate(Arc::new(HashSig), 5, N, i),
                    Beacon::new(BeaconMode::RoundRobin, N),
                    Box::new(FixedSizeSource::new(100, i)),
                    Duration::from_secs(1),
                )
            })
            .collect();
        let initial = (0..N).map(|i| (i, engines[i].on_init(Time(0)))).collect();
        deliver(&mut engines, initial, Time(0), 600);
        for e in &engines {
            assert!(e.view >= 600 && e.finalized_round().0 >= 590, "{e:?}");
            assert!(
                e.votes.len() <= 1,
                "{e:?}: votes of {} views",
                e.votes.len()
            );
            assert!(
                e.new_views.len() <= 2,
                "{e:?}: NewViews of {} views",
                e.new_views.len()
            );
        }
    }
}
