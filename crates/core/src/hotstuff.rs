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

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use banyan_crypto::beacon::Beacon;
use banyan_crypto::registry::KeyRegistry;
use banyan_crypto::{DirectVerify, Signature, VerifyBackend, VerifyStats};
use banyan_types::app::{ProposalContext, ProposalSource};
use banyan_types::block::Block;
use banyan_types::certs::QuorumCert;
use banyan_types::config::ProtocolConfig;
use banyan_types::engine::{Actions, CommitEntry, Engine, TimerKind};
use banyan_types::ids::{BlockHash, Rank, ReplicaId, Round};
use banyan_types::message::{HotStuffMsg, Message};
use banyan_types::time::{Duration, Time};
use banyan_types::ChainSnapshot;

/// Domain for HotStuff vote signatures. Delegates to the shared
/// [`QuorumCert::signing_message`] so the transport verify plane (which
/// pre-checks certificates by recomputing this string) can never drift
/// from what the engine signs.
fn vote_message(view: u64, block: &BlockHash) -> Vec<u8> {
    QuorumCert::signing_message(view, block)
}

/// The chained-HotStuff replica engine.
pub struct HotStuffEngine {
    cfg: ProtocolConfig,
    id: ReplicaId,
    beacon: Beacon,
    registry: KeyRegistry,
    /// The verify plane (see `ChainedEngine::set_verify_backend`).
    verify: Arc<dyn VerifyBackend>,
    /// Blocks plus the QC each one carries for its parent.
    blocks: HashMap<BlockHash, (Block, QuorumCert)>,
    /// Current view.
    view: u64,
    /// Highest QC known.
    high_qc: QuorumCert,
    /// Locked QC (2-chain lock for safety).
    locked_qc: QuorumCert,
    /// Last view we voted in.
    last_vote_view: u64,
    /// Votes collected by this replica as (next-view) leader: per
    /// (view, block) → voter → signature.
    votes: BTreeMap<(u64, BlockHash), HashMap<u16, Signature>>,
    /// NewView senders per view (pacemaker quorum).
    new_views: BTreeMap<u64, HashMap<u16, QuorumCert>>,
    /// Highest committed view.
    committed_view: u64,
    /// Round of the last committed block (for the commit walk).
    committed_round: Round,
    /// `committed_round` as of the start of the current engine event —
    /// i.e. the newest commit whose `CommitEntry` the driver has already
    /// routed. The `ProposalContext` ancestor walk stops here, NOT at
    /// `committed_round`: a QC arrival can commit a block and trigger the
    /// next proposal in one event, and the mempool's lease for that block
    /// is still live until the commit is routed after the event — so the
    /// block must still count as a live ancestor or its requests would be
    /// re-batched (the commit-lag duplication race).
    routed_committed_round: Round,
    /// Views in which we already proposed.
    proposed: std::collections::HashSet<u64>,
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
            .field("committed_view", &self.committed_view)
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
            blocks: HashMap::new(),
            view: 0,
            high_qc: QuorumCert::genesis(),
            locked_qc: QuorumCert::genesis(),
            last_vote_view: 0,
            votes: BTreeMap::new(),
            new_views: BTreeMap::new(),
            committed_view: 0,
            committed_round: Round::GENESIS,
            routed_committed_round: Round::GENESIS,
            proposed: std::collections::HashSet::new(),
            view_timeout,
            source,
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
        actions.arm(now + self.view_timeout, TimerKind::ViewTimeout { view });
        if self.leader(view) == self.id {
            self.try_propose(now, actions);
        }
    }

    fn try_propose(&mut self, now: Time, actions: &mut Actions) {
        let view = self.view;
        if self.leader(view) != self.id || self.proposed.contains(&view) {
            return;
        }
        // Propose only when justified: either the QC of view − 1 is known
        // or a pacemaker quorum of NewViews arrived (after a timeout).
        let justified = self.high_qc.view + 1 == view
            || self
                .new_views
                .get(&(view - 1))
                .map(|m| m.len() >= self.quorum())
                .unwrap_or(false)
            || view == 1;
        if !justified {
            return;
        }
        self.proposed.insert(view);
        let justify = self.high_qc.clone();
        let ctx = self.proposal_context(Round(view), justify.block, now);
        let mut block = Block {
            round: Round(view),
            proposer: self.id,
            rank: Rank(0),
            parent: justify.block,
            proposed_at: now,
            payload: self.source.next_payload(&ctx),
            signature: Signature::zero(),
        };
        let hash = block.hash(self.cfg.payload_chunk);
        block.signature = self.registry.sign(&Block::signing_message(&hash));
        self.blocks.insert(hash, (block.clone(), justify.clone()));
        actions.broadcast(Message::HotStuff(HotStuffMsg::Proposal {
            block: block.clone(),
            justify: justify.clone(),
        }));
        // Process our own proposal (vote for it).
        self.handle_proposal(block, justify, now, actions);
    }

    /// The chain position for the `ProposalSource`: the justify block plus
    /// every ancestor down to — excluding — the last commit the *driver
    /// has routed* (`routed_committed_round`, snapshotted at event entry;
    /// see its field docs for why `committed_round` would race). The
    /// 3-chain rule keeps 2+ blocks in this window even on the happy
    /// path, which is exactly the commit lag that made blind drains
    /// re-batch ancestors' requests (the sweep's `dups` column).
    fn proposal_context(&self, round: Round, parent: BlockHash, now: Time) -> ProposalContext {
        let mut ancestors = Vec::new();
        let mut cursor = parent;
        while cursor != BlockHash::ZERO {
            let Some((block, justify)) = self.blocks.get(&cursor) else {
                break;
            };
            if block.round <= self.routed_committed_round {
                break;
            }
            ancestors.push(cursor);
            cursor = justify.block;
        }
        ProposalContext {
            round,
            now,
            parent,
            ancestors,
        }
    }

    fn update_high_qc(&mut self, qc: &QuorumCert) {
        if qc.view > self.high_qc.view {
            self.high_qc = qc.clone();
        }
    }

    fn verify_qc(&self, qc: &QuorumCert) -> bool {
        if qc.is_genesis() {
            return true;
        }
        // Popcount gate first: an empty or below-quorum aggregate verifies
        // trivially under every scheme, so the cryptographic check alone
        // proves nothing about quorum.
        if !qc.meets_quorum(self.quorum()) {
            return false;
        }
        self.verify
            .verify_aggregate(&vote_message(qc.view, &qc.block), &qc.agg)
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
        let hash = block.hash(self.cfg.payload_chunk);
        if !self.verify.verify(
            block.proposer.0,
            &Block::signing_message(&hash),
            &block.signature,
        ) {
            return;
        }
        self.blocks.entry(hash).or_insert((block, justify.clone()));
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
        // least our lock.
        if view > self.last_vote_view && justify.view >= self.locked_qc.view {
            self.last_vote_view = view;
            // 2-chain lock update: lock the justify's justify.
            if let Some((_, parent_justify)) = self.blocks.get(&justify.block) {
                if parent_justify.view > self.locked_qc.view {
                    self.locked_qc = parent_justify.clone();
                }
            }
            let sig = self.registry.sign(&vote_message(view, &hash));
            let vote = HotStuffMsg::Vote {
                view,
                block: hash,
                voter: self.id,
                signature: sig,
            };
            let next_leader = self.leader(view + 1);
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
        {
            return;
        }
        let quorum = self.quorum();
        let entry = self.votes.entry((view, block)).or_default();
        entry.insert(voter.0, signature);
        if entry.len() >= quorum && self.high_qc.view < view {
            let votes: Vec<(u16, Signature)> = self.votes[&(view, block)]
                .iter()
                .map(|(v, s)| (*v, *s))
                .collect();
            let agg = self.registry.table().aggregate(&votes);
            let qc = QuorumCert { view, block, agg };
            self.update_high_qc(&qc);
            self.try_commit(&qc, now, actions);
            // As leader of view + 1, propose immediately (optimistic
            // responsiveness).
            self.enter_view(view + 1, now, actions);
            self.try_propose(now, actions);
        }
    }

    /// The 3-chain commit rule: a QC for `b2` where `b2 → b1 → b0` with
    /// consecutive views commits `b0` and its uncommitted ancestors.
    fn try_commit(&mut self, qc: &QuorumCert, now: Time, actions: &mut Actions) {
        if qc.is_genesis() {
            return;
        }
        let Some((b2, j2)) = self.blocks.get(&qc.block) else {
            return;
        };
        let (v2, j2) = (b2.round.0, j2.clone());
        let Some((b1, j1)) = self.blocks.get(&j2.block) else {
            return;
        };
        let (v1, j1) = (b1.round.0, j1.clone());
        let Some((b0, _)) = self.blocks.get(&j1.block) else {
            return;
        };
        let v0 = b0.round.0;
        if v2 != v1 + 1 || v1 != v0 + 1 {
            return;
        }
        if v0 <= self.committed_view {
            return;
        }
        // Commit b0 and all uncommitted ancestors, oldest first.
        let mut chain = Vec::new();
        let mut cursor = j1.block; // hash of b0
        while cursor != BlockHash::ZERO {
            let Some((blk, justify)) = self.blocks.get(&cursor) else {
                break;
            };
            if blk.round <= self.committed_round {
                break;
            }
            chain.push((
                cursor,
                blk.round,
                blk.proposer,
                blk.payload.clone(),
                blk.proposed_at,
            ));
            cursor = justify.block;
        }
        chain.reverse();
        let chain_len = chain.len();
        for (i, (hash, round, proposer, payload, proposed_at)) in chain.iter().enumerate() {
            actions.commit(CommitEntry {
                round: *round,
                block: *hash,
                proposer: *proposer,
                payload: payload.clone(),
                proposed_at: *proposed_at,
                committed_at: now,
                fast: false,
                explicit: i == chain_len - 1,
            });
        }
        self.committed_view = v0;
        if let Some((_, round, ..)) = chain.last() {
            self.committed_round = *round;
        }
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
        self.new_views
            .entry(view)
            .or_default()
            .insert(from.0, justify);
        if self.leader(view + 1) == self.id {
            self.enter_view(view + 1, now, actions);
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
        self.routed_committed_round = self.committed_round;
        let mut actions = Actions::none();
        // Fresh engines start at view 1; restored ones re-enter one view
        // past their recovered `high_qc` (`restore` parks `view` there).
        let next = (self.view + 1).max(1);
        self.enter_view(next, now, &mut actions);
        actions
    }

    fn on_message(&mut self, from: ReplicaId, msg: Message, now: Time) -> Actions {
        // Everything committed before this event has been routed by now.
        self.routed_committed_round = self.committed_round;
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
        self.routed_committed_round = self.committed_round;
        let mut actions = Actions::none();
        if let TimerKind::ViewTimeout { view } = kind {
            if view == self.view {
                // Pacemaker: give up on the view, tell the next leader.
                let msg = HotStuffMsg::NewView {
                    view,
                    justify: self.high_qc.clone(),
                };
                let next_leader = self.leader(view + 1);
                if next_leader == self.id {
                    let high = self.high_qc.clone();
                    self.handle_new_view(view, high, self.id, now, &mut actions);
                } else {
                    actions.send(next_leader, Message::HotStuff(msg));
                }
                self.enter_view(view + 1, now, &mut actions);
            }
        }
        actions
    }

    fn current_round(&self) -> Round {
        Round(self.view)
    }

    fn finalized_round(&self) -> Round {
        self.committed_round
    }

    fn verify_stats(&self) -> VerifyStats {
        self.verify.stats()
    }

    fn set_verify_backend(&mut self, backend: Arc<dyn VerifyBackend>) {
        self.verify = backend;
    }

    fn snapshot(&self) -> ChainSnapshot {
        let mut snap = ChainSnapshot::default();
        for (hash, (block, justify)) in &self.blocks {
            snap.blocks.push((*hash, block.clone()));
            snap.justifies.push((*hash, justify.clone()));
        }
        snap.committed_round = self.committed_round;
        snap.committed_view = self.committed_view;
        snap.normalize();
        snap
    }

    fn restore(&mut self, snapshot: &ChainSnapshot) {
        let justify_of: HashMap<BlockHash, QuorumCert> =
            snapshot.justifies.iter().cloned().collect();
        self.blocks.clear();
        for (hash, block) in &snapshot.blocks {
            let justify = justify_of
                .get(hash)
                .cloned()
                .unwrap_or_else(QuorumCert::genesis);
            self.blocks.insert(*hash, (block.clone(), justify));
        }
        self.high_qc = justify_of
            .values()
            .max_by_key(|qc| qc.view)
            .cloned()
            .unwrap_or_else(QuorumCert::genesis);
        // 2-chain lock: locking at the high QC is conservative (it only
        // refuses votes the pre-crash lock might have allowed), so a
        // restarted replica can never vote for a conflicting branch.
        self.locked_qc = self.high_qc.clone();
        // Past votes are gone with the crash; refusing to vote below the
        // recovered high QC prevents equivocation in replayed views.
        self.last_vote_view = self.high_qc.view;
        self.committed_round = snapshot.committed_round;
        self.committed_view = snapshot.committed_view;
        self.routed_committed_round = self.committed_round;
        // Park one view short so `on_init` re-enters at `high_qc.view+1`.
        self.view = self.high_qc.view;
        self.votes.clear();
        self.new_views.clear();
        self.proposed.clear();
    }
}
