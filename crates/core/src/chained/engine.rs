//! The ICC / Banyan engine — Algorithms 1 and 2 of the paper.
//!
//! Banyan "is defined by changes to the slow path algorithm (ICC)" (§7):
//! Restrictions 1–2 and Additions 1–4. Both protocols therefore share one
//! engine, parameterized by [`PathMode`]:
//!
//! * [`PathMode::IccOnly`] — pure slow path: no fast votes, no unlock
//!   tracking (every block is trivially unlocked), finalization only via
//!   `⌈(n+f+1)/2⌉` finalization votes.
//! * [`PathMode::Banyan`] — the full protocol: fast votes piggyback on the
//!   first notarization vote (Addition 3), rank-0 proposals carry the
//!   proposer's fast vote (Addition 2), round advancement broadcasts an
//!   unlock proof (Addition 1), and `n − p` fast votes FP-finalize a
//!   rank-0 block (Addition 4). Validity and round advancement respect the
//!   unlock conditions (Restrictions 1–2).
//!
//! The paper's claim that "even if the fast path is not effective, no
//! penalties are incurred" (and Fig. 6d's "when there are failures, the
//! performance of Banyan is exactly the one of ICC") is directly testable
//! here: the two modes differ only in the fast-path hooks.
//!
//! **Evidence is checked once.** Relays (Algorithm 1 line 35), `Advance`
//! broadcasts (Addition 1) and heartbeats hand a replica the same blocks,
//! fast-vote support and certificates many times over. The handlers that
//! take those in (`handle_proposal`, `handle_notarization`,
//! `merge_unlock_proof`) therefore ask *novelty before signature* — can
//! this change my state? — and verify only what can. Every intake
//! handler, `handle_votes` included, returns whether state changed, and
//! `on_message` re-runs the `progress` fixpoint only if it did. Nothing
//! unverified is ever merged, and what is skipped could not have been
//! merged (see `docs/ARCHITECTURE.md`, "What the engine verifies, and
//! when"). Nor is a block hashed twice: a copy of a block the store
//! holds is recognised by equality with it and takes its hash.
//!
//! **Rules look at what changed.** Every change to a round's state marks
//! the round touched (`round_entry`; `restore` marks them all), and
//! `progress` runs the certificate rules — notarization assembly, fast
//! and slow finalization — over the touched rounds only. An untouched
//! round cannot yield a new certificate, so this is exact; in debug
//! builds an oracle re-runs the rules over every retained round after
//! each `progress` and asserts they find nothing (see
//! `docs/ARCHITECTURE.md`, "Which rounds `progress` looks at").
//!
//! A [`ByzantineMode`] knob turns a replica into one of the adversaries
//! used by the safety test-suite (equivocating leader, silent leader,
//! double fast-voter).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use banyan_crypto::beacon::Beacon;
use banyan_crypto::registry::KeyRegistry;
use banyan_crypto::{DirectVerify, Signature, VerifyBackend, VerifyStats};
use banyan_types::app::{ProposalContext, ProposalSource};
use banyan_types::block::Block;
use banyan_types::certs::{FinalKind, Finalization, Notarization, UnlockProof};
use banyan_types::config::ProtocolConfig;
use banyan_types::engine::{Actions, CommitEntry, Engine, TimerKind};
use banyan_types::ids::{BlockHash, Rank, ReplicaId, Round};
use banyan_types::message::{ChainedMsg, Message, SyncMsg};
use banyan_types::time::Time;
use banyan_types::vote::{Vote, VoteKind};

use banyan_types::ChainSnapshot;

use banyan_storage::{BlockStore, ChainStore};

use super::round::RoundState;

/// Which protocol of the family to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathMode {
    /// Internet Computer Consensus: slow path only.
    IccOnly,
    /// Banyan: integrated fast + slow path.
    Banyan,
}

/// Adversarial behaviors for safety/liveness/fairness testing. Honest
/// replicas use [`ByzantineMode::Honest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ByzantineMode {
    /// Follow the protocol.
    Honest,
    /// When leader (rank 0), propose two conflicting blocks, sending each
    /// to half of the peers (with a fast vote on each — the Lemma 8.1
    /// scenario). Otherwise behave honestly.
    EquivocateLeader,
    /// When leader, propose nothing (forces higher ranks to fill the
    /// round). Otherwise behave honestly.
    SilentLeader,
    /// Send fast votes for two different blocks when possible (violates
    /// the one-fast-vote-per-round rule honest replicas follow).
    DoubleFastVote,
    /// Censorship: whenever this replica proposes, it silently drops the
    /// targeted clients' requests from the batch it pulled from its
    /// `ProposalSource` (the block ships without them — protocol-valid,
    /// so no safety machinery triggers; only per-client fairness
    /// degrades). Requests censored this way were already drained from
    /// the local pool, so without client retry or gossip they are lost
    /// outright.
    CensorClients {
        /// The client ids whose requests are dropped.
        clients: Vec<u16>,
    },
    /// When optimistic pipelining is enabled and this replica leads the
    /// next round, it pipelines *two* conflicting optimistic proposals on
    /// the same uncertified parent, sending each to half of the peers.
    /// Otherwise behave honestly.
    EquivocateOptimistic,
}

/// The engine's one in-flight optimistic proposal: a round-`r + 1` block
/// proposed on a received-but-uncertified round-`r` parent. Resolved on
/// round entry by `reconcile_optimistic`.
#[derive(Clone, Copy, Debug)]
struct PendingOptimistic {
    /// The optimistic block's round (`r + 1`).
    round: Round,
    /// The uncertified parent it extends.
    parent: BlockHash,
    /// The optimistic block itself.
    block: BlockHash,
}

/// How many rounds of state to keep behind the finalized tip.
const PRUNE_WINDOW: u64 = 8;

/// The ICC / Banyan replica engine. See the module docs.
pub struct ChainedEngine {
    cfg: ProtocolConfig,
    mode: PathMode,
    byz: ByzantineMode,
    id: ReplicaId,
    beacon: Beacon,
    registry: KeyRegistry,
    /// The verify plane: every signature and certificate check goes
    /// through this backend, so drivers can swap in a batched/cached
    /// (and shared, pre-warmed by transport workers) implementation.
    verify: Arc<dyn VerifyBackend>,
    store: Box<dyn ChainStore>,
    rounds: BTreeMap<Round, RoundState>,
    /// Rounds whose state may have changed since `progress` last looked
    /// at them: every access through `round_entry` marks its round, and
    /// `restore` marks them all. The certificate rules scan only these.
    touched: BTreeSet<Round>,
    /// Current round `k`.
    round: Round,
    /// Highest explicitly finalized round (`kMax`).
    k_max: Round,
    /// Retained finalization certificates per round (also a broadcast
    /// dedup: present ⇒ already broadcast).
    finalizations: HashMap<Round, Finalization>,
    /// Finalizations waiting for their block (or ancestors) to arrive.
    pending_finalizations: Vec<Finalization>,
    /// `store.len()` at the last pending-finalization retry: a retry can
    /// only succeed after a missing ancestor arrived, so we skip the walk
    /// until the store grew (keeps the progress fixpoint loop from
    /// re-walking unreachable chains every event during catch-up).
    retry_store_len: usize,
    /// Hashes we already requested via sync (dedup).
    sync_requested: std::collections::HashSet<BlockHash>,
    /// Where block payloads come from (mempool, client queue, or the
    /// paper's size-only synthetic workload).
    source: Box<dyn ProposalSource>,
    /// Moonshot-style optimistic pipelining (ICC only); off by default.
    optimistic: bool,
    /// The in-flight optimistic proposal, if any.
    pending_optimistic: Option<PendingOptimistic>,
    /// `k_max` as of the entry into the current engine event. The
    /// optimistic path proposes from `on_message`, where `progress` may
    /// advance `k_max` *within* the event after commits were routed; the
    /// proposal-context ancestor walk must stop at the frontier the
    /// driver has actually routed (see HotStuff's
    /// `routed_committed_round` for the same idiom).
    routed_k_max: Round,
}

impl std::fmt::Debug for ChainedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainedEngine")
            .field("id", &self.id)
            .field("mode", &self.mode)
            .field("round", &self.round)
            .field("k_max", &self.k_max)
            .finish_non_exhaustive()
    }
}

impl ChainedEngine {
    /// Creates a replica engine.
    ///
    /// # Panics
    ///
    /// Panics if the registry's replica index disagrees with `beacon`'s
    /// cluster size or the configuration's `n`.
    pub fn new(
        cfg: ProtocolConfig,
        mode: PathMode,
        registry: KeyRegistry,
        beacon: Beacon,
        source: Box<dyn ProposalSource>,
    ) -> Self {
        assert_eq!(beacon.n(), cfg.n(), "beacon sized for the cluster");
        assert_eq!(
            registry.table().len(),
            cfg.n(),
            "registry sized for the cluster"
        );
        let id = ReplicaId(registry.my_index());
        let verify: Arc<dyn VerifyBackend> = Arc::new(DirectVerify::new(registry.table().clone()));
        ChainedEngine {
            cfg,
            mode,
            byz: ByzantineMode::Honest,
            id,
            beacon,
            registry,
            verify,
            store: Box::new(BlockStore::new()),
            rounds: BTreeMap::new(),
            touched: BTreeSet::new(),
            round: Round(0),
            k_max: Round::GENESIS,
            finalizations: HashMap::new(),
            pending_finalizations: Vec::new(),
            retry_store_len: 0,
            sync_requested: std::collections::HashSet::new(),
            source,
            optimistic: false,
            pending_optimistic: None,
            routed_k_max: Round::GENESIS,
        }
    }

    /// Builder-style: sets an adversarial behavior.
    pub fn with_byzantine(mut self, byz: ByzantineMode) -> Self {
        self.byz = byz;
        self
    }

    /// Builder-style: enables Moonshot-style optimistic proposal
    /// pipelining — when this replica leads round `r + 1` and receives
    /// the round-`r` block before its certificate, it proposes on top of
    /// it immediately instead of waiting for the notarization.
    ///
    /// # Panics
    ///
    /// Panics unless the engine runs [`PathMode::IccOnly`]. A Banyan
    /// rank-0 block carries its proposer's fast vote (Addition 2), which
    /// an uncertified parent gives no safe moment to cast; holding it
    /// back measured slower than not pipelining at all.
    pub fn with_optimistic(mut self) -> Self {
        assert_eq!(
            self.mode,
            PathMode::IccOnly,
            "optimistic pipelining is not supported for banyan"
        );
        self.optimistic = true;
        self
    }

    /// Builder-style: replaces the chain store (e.g. a recovered
    /// `banyan_storage::WalStore`). The finalized frontier is taken from
    /// the store, so a pre-loaded store makes this the crash-recovery
    /// constructor: build, `with_store(recovered)`, then `on_init`
    /// re-enters at the frontier.
    pub fn with_store(mut self, store: Box<dyn ChainStore>) -> Self {
        self.k_max = store.max_finalized_round();
        self.routed_k_max = self.k_max;
        self.store = store;
        self
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The path mode (ICC or Banyan).
    pub fn mode(&self) -> PathMode {
        self.mode
    }

    /// Highest explicitly finalized round.
    pub fn finalized_round(&self) -> Round {
        self.k_max
    }

    /// Read access to the block store (tests, tools).
    pub fn store(&self) -> &dyn ChainStore {
        self.store.as_ref()
    }

    // ------------------------------------------------------------------
    // Small helpers
    // ------------------------------------------------------------------

    fn fast_path(&self) -> bool {
        self.mode == PathMode::Banyan
    }

    fn round_state(&mut self, round: Round) -> &mut RoundState {
        Self::round_entry(&mut self.rounds, &mut self.touched, &self.cfg, round)
    }

    /// [`round_state`](Self::round_state) over split borrows, for callers
    /// that read another field of `self` while holding the round. Marks
    /// the round touched.
    fn round_entry<'a>(
        rounds: &'a mut BTreeMap<Round, RoundState>,
        touched: &mut BTreeSet<Round>,
        cfg: &ProtocolConfig,
        round: Round,
    ) -> &'a mut RoundState {
        touched.insert(round);
        rounds
            .entry(round)
            .or_insert_with(|| RoundState::new(round, cfg.n(), cfg.unlock_threshold()))
    }

    /// Whether the proposer's own fast vote for `hash` (Addition 2) is held.
    fn holds_leader_fast_vote(&self, round: Round, hash: &BlockHash) -> bool {
        self.rounds
            .get(&round)
            .is_some_and(|rs| rs.leader_fast_votes.contains_key(hash))
    }

    fn my_rank(&self, round: Round) -> Rank {
        Rank(self.beacon.rank(round.0, self.id.0))
    }

    fn make_vote(&self, kind: VoteKind, round: Round, block: BlockHash) -> Vote {
        let msg = Vote::signing_message(kind, round, &block);
        Vote {
            kind,
            round,
            block,
            voter: self.id,
            signature: self.registry.sign(&msg),
        }
    }

    fn verify_vote(&self, vote: &Vote) -> bool {
        self.verify
            .verify(vote.voter.0, &vote.message(), &vote.signature)
    }

    /// Per-vote verdicts for a burst of votes, batched through the verify
    /// backend (one combined exponentiation check for the whole burst
    /// under a batching scheme, with per-item fallback on failure).
    fn verify_votes(&self, votes: &[Vote]) -> Vec<bool> {
        let msgs: Vec<Vec<u8>> = votes.iter().map(Vote::message).collect();
        let items: Vec<_> = votes
            .iter()
            .zip(&msgs)
            .map(|(v, m)| (v.voter.0, m.as_slice(), &v.signature))
            .collect();
        self.verify.verify_votes(&items)
    }

    /// Is `hash` (a round-`round` block) unlocked for this replica?
    /// In ICC mode every block is; genesis and finalized blocks always are
    /// (Definition 7.6).
    fn is_unlocked(&mut self, round: Round, hash: &BlockHash) -> bool {
        if !self.fast_path() || BlockStore::is_genesis(hash) {
            return true;
        }
        if self.store.is_finalized(round, hash) {
            return true;
        }
        self.round_state(round).unlock.is_unlocked(hash)
    }

    /// Algorithm 2 line 62: `valid(b)` — extends a notarized and unlocked
    /// round `k−1` block, is signed correctly (checked at receipt), and
    /// carries the proposer's fast vote if rank 0 (Banyan).
    fn is_valid(&mut self, hash: &BlockHash) -> bool {
        let Some(block) = self.store.get(hash) else {
            return false;
        };
        let (round, rank, parent) = (block.round, block.rank, block.parent);
        if round == Round::GENESIS {
            return false;
        }
        if round == Round(1) {
            if !BlockStore::is_genesis(&parent) {
                return false;
            }
        } else {
            let Some(parent_block) = self.store.get(&parent) else {
                return false;
            };
            if parent_block.round != round.prev() {
                return false;
            }
        }
        if !self.store.is_notarized(&parent) {
            return false;
        }
        if !self.is_unlocked(round.prev(), &parent) {
            return false;
        }
        if self.fast_path() && rank.is_leader() {
            // Rank-0 blocks must carry the proposer's fast vote.
            if !self.holds_leader_fast_vote(round, hash) {
                return false;
            }
        }
        true
    }

    /// Asks peers for a block we hold certificates for but never received.
    fn request_sync(&mut self, hash: BlockHash, actions: &mut Actions) {
        if self.sync_requested.insert(hash) {
            actions.broadcast(Message::Sync(SyncMsg::Request { hash }));
        }
    }

    // ------------------------------------------------------------------
    // Round lifecycle
    // ------------------------------------------------------------------

    fn enter_round(&mut self, round: Round, now: Time, actions: &mut Actions) {
        self.round = round;
        let rank = self.my_rank(round);
        let prop_delay = self.cfg.proposal_delay(rank.0);
        let rs = self.round_state(round);
        if rs.t0.is_none() {
            rs.t0 = Some(now);
        }
        let skip_proposal =
            rs.proposed || (self.byz == ByzantineMode::SilentLeader && rank.is_leader());
        if !skip_proposal {
            // An idle rank-0 leader may be held for Δ, half the rank-1
            // backup's `proposal_delay(1)`, so no backup ever proposes
            // over a held leader. The optimistic path proposes on its own
            // schedule: never held.
            let hold_until = (rank.is_leader() && !self.optimistic).then(|| now + self.cfg.delta);
            let round = round.0;
            actions.arm(now + prop_delay, TimerKind::Propose { round, hold_until });
        }
        // Retransmission heartbeat: fires only if we are still stuck in
        // this round by then (recovery from message loss).
        actions.arm(
            now + ProtocolConfig::HEARTBEAT,
            TimerKind::RoundTimeout { round: round.0 },
        );
        // Bounded memory: drop state far behind the finalized tip.
        if round.0.is_multiple_of(16) && self.k_max.0 > PRUNE_WINDOW {
            let cutoff = Round(self.k_max.0 - PRUNE_WINDOW);
            self.store.prune_below(cutoff);
            self.rounds.retain(|r, _| *r >= cutoff);
            self.finalizations.retain(|r, _| *r >= cutoff);
        }
    }

    /// Algorithm 1 lines 23–31: propose a block for `round`.
    fn propose(&mut self, round: Round, now: Time, actions: &mut Actions) {
        if round != self.round {
            return; // stale timer
        }
        if self.round_state(round).proposed {
            return;
        }
        // Parent: a notarized (and unlocked) block of round − 1; prefer the
        // finalized one, then lowest rank, then smallest hash.
        let parent = self.pick_parent(round);
        let Some(parent) = parent else {
            return; // nothing extendable yet; a later event will retry via timers
        };
        self.round_state(round).proposed = true;

        let rank = self.my_rank(round);
        match self.byz {
            ByzantineMode::EquivocateLeader if rank.is_leader() => {
                self.propose_equivocating(round, parent, now, actions);
            }
            _ => {
                let built = self.build_block(round, rank, parent, now);
                self.broadcast_block(built, actions);
            }
        }
    }

    fn pick_parent(&mut self, round: Round) -> Option<BlockHash> {
        let prev = round.prev();
        if prev == Round::GENESIS {
            return Some(BlockHash::ZERO);
        }
        if let Some(finalized) = self.store.finalized(prev) {
            return Some(finalized);
        }
        let mut best: Option<(Rank, BlockHash)> = None;
        for hash in self.store.round_blocks(prev).to_vec() {
            if !self.store.is_notarized(&hash) || !self.is_unlocked(prev, &hash) {
                continue;
            }
            let rank = self
                .store
                .get(&hash)
                .map(|b| b.rank)
                .unwrap_or(Rank(u16::MAX));
            let candidate = (rank, hash);
            best = Some(match best {
                None => candidate,
                Some(cur) if candidate < cur => candidate,
                Some(cur) => cur,
            });
        }
        best.map(|(_, h)| h)
    }

    /// The censoring adversary's hook: drops targeted clients' requests
    /// from a freshly pulled batch, re-encoding the remainder. Non-batch
    /// payloads (synthetic, empty) and honest modes pass through
    /// untouched.
    fn censor(&self, payload: banyan_types::Payload) -> banyan_types::Payload {
        let ByzantineMode::CensorClients { clients } = &self.byz else {
            return payload;
        };
        let Some(mut batch) = banyan_mempool::WorkloadBatch::decode(&payload) else {
            return payload;
        };
        batch.requests.retain(|r| !clients.contains(&r.client));
        if batch.requests.is_empty() {
            banyan_types::Payload::empty()
        } else {
            batch.into_payload()
        }
    }

    /// The chain position handed to the `ProposalSource`: the parent plus
    /// the uncommitted ancestor chain (parent first, down to — excluding —
    /// the newest finalized block). An inclusion-aware source uses it to
    /// skip requests a live ancestor already carries; the engine itself
    /// never decodes a payload.
    ///
    /// Invariant: the walk stops at `routed_k_max` — the finalized
    /// frontier as of event entry — not the live `k_max`, because the
    /// mempool's contract is "ancestors reach the newest *routed*
    /// commit". The timer-driven `propose` runs before `progress`, so
    /// there the two are equal; the optimistic path proposes from
    /// `on_message` after `handle_proposal` may have finalized, and only
    /// the snapshot is safe (see HotStuff's `routed_committed_round`).
    fn proposal_context(&self, round: Round, parent: BlockHash, now: Time) -> ProposalContext {
        let mut ancestors = Vec::new();
        let mut cursor = parent;
        while !BlockStore::is_genesis(&cursor) {
            let Some(block) = self.store.get(&cursor) else {
                break; // missing ancestor (sync in flight): report what we hold
            };
            if block.round <= self.routed_k_max {
                break; // the finalized chain starts here
            }
            ancestors.push(cursor);
            cursor = block.parent;
        }
        ProposalContext {
            round,
            now,
            parent,
            ancestors,
        }
    }

    /// Mints and signs our block for `round` on `parent`; a rank-0 block
    /// in Banyan mode comes with the proposer's fast vote.
    fn build_block(
        &mut self,
        round: Round,
        rank: Rank,
        parent: BlockHash,
        now: Time,
    ) -> (BlockHash, Block, Option<Vote>) {
        let ctx = self.proposal_context(round, parent, now);
        let payload = self.source.next_payload(&ctx);
        let mut block = Block {
            round,
            proposer: self.id,
            rank,
            parent,
            proposed_at: now,
            payload: self.censor(payload),
            signature: Signature::zero(),
        };
        let hash = block.hash(self.cfg.payload_chunk);
        block.signature = self.registry.sign(&Block::signing_message(&hash));
        // Addition 2 / Algorithm 1 line 28: rank-0 proposals carry the
        // proposer's fast vote.
        let fast_vote = (self.fast_path() && rank.is_leader())
            .then(|| self.make_vote(VoteKind::Fast, round, hash));
        (hash, block, fast_vote)
    }

    fn proposal_message(&mut self, block: &Block, fast_vote: Option<&Vote>) -> Message {
        let parent_notarization = self.store.notarization(&block.parent).cloned();
        let parent_unlock = (self.fast_path() && block.round > Round(1)).then(|| {
            Self::round_entry(
                &mut self.rounds,
                &mut self.touched,
                &self.cfg,
                block.round.prev(),
            )
            .unlock
            .build_proof(self.registry.table())
        });
        Message::Chained(ChainedMsg::Proposal {
            block: block.clone(),
            parent_notarization,
            parent_unlock,
            fast_vote: fast_vote.cloned(),
        })
    }

    /// Applies our own (or a received) block to local state.
    fn adopt_block(&mut self, hash: BlockHash, block: Block, fast_vote: Option<Vote>) {
        let round = block.round;
        let rank = block.rank;
        let me = self.id;
        self.store.insert(hash, block);
        let rs = self.round_state(round);
        rs.unlock.observe_block(hash, rank);
        if let Some(v) = fast_vote {
            rs.leader_fast_votes.insert(hash, v);
            rs.unlock.add_fast_vote(hash, v.voter, v.signature);
            if v.voter == me {
                rs.fast_vote_sent = true;
                rs.our_votes.push(v);
            }
        }
    }

    /// Adopts a block from [`build_block`](Self::build_block) and
    /// broadcasts its proposal.
    fn broadcast_block(&mut self, built: (BlockHash, Block, Option<Vote>), actions: &mut Actions) {
        let (hash, block, fast_vote) = built;
        let msg = self.proposal_message(&block, fast_vote.as_ref());
        self.adopt_block(hash, block, fast_vote);
        actions.broadcast(msg);
    }

    /// Byzantine: adopts two conflicting blocks from
    /// [`build_block`](Self::build_block) and sends `a` to the even
    /// peers, `b` to the odd ones.
    fn send_conflicting(
        &mut self,
        a: (BlockHash, Block, Option<Vote>),
        b: (BlockHash, Block, Option<Vote>),
        actions: &mut Actions,
    ) {
        let msg_a = self.proposal_message(&a.1, a.2.as_ref());
        let msg_b = self.proposal_message(&b.1, b.2.as_ref());
        // Keep both locally so we can serve sync requests for either.
        self.adopt_block(a.0, a.1, a.2);
        self.adopt_block(b.0, b.1, b.2);
        for peer in (0..self.cfg.n() as u16).filter(|&p| p != self.id.0) {
            let msg = if peer % 2 == 0 { &msg_a } else { &msg_b };
            actions.send(ReplicaId(peer), msg.clone());
        }
    }

    /// Byzantine: two conflicting rank-0 proposals, one per half of the
    /// cluster.
    fn propose_equivocating(
        &mut self,
        round: Round,
        parent: BlockHash,
        now: Time,
        actions: &mut Actions,
    ) {
        let rank = self.my_rank(round);
        let a = self.build_block(round, rank, parent, now);
        let b = self.build_block(round, rank, parent, now);
        if a.0 == b.0 {
            // The source minted identical payloads (e.g. an empty mempool
            // twice): no equivocation is possible, so propose honestly.
            self.broadcast_block(a, actions);
        } else {
            self.send_conflicting(a, b, actions);
        }
    }

    // ------------------------------------------------------------------
    // Optimistic pipelining (Moonshot-style, ICC only)
    // ------------------------------------------------------------------

    /// If we lead round `r + 1` and just received this round's (rank-0)
    /// block, propose on top of it immediately instead of waiting for
    /// its certificate — the block payload's broadcast then overlaps
    /// with the parent's certification. The proposal ships without a
    /// parent notarization (none exists yet); if the parent never
    /// certifies, `reconcile_optimistic` abandons it.
    ///
    /// Returns `true` iff it proposed.
    fn maybe_propose_optimistic(
        &mut self,
        received: BlockHash,
        now: Time,
        actions: &mut Actions,
    ) -> bool {
        if !self.optimistic || self.pending_optimistic.is_some() {
            return false;
        }
        let Some(block) = self.store.get(&received) else {
            return false;
        };
        let (b_round, b_rank) = (block.round, block.rank);
        // Only rank-0 (presumptive-winner) parents: higher-rank blocks
        // rarely win their round, so extending them mostly mints
        // abandoned blocks.
        if b_round != self.round || !b_rank.is_leader() {
            return false;
        }
        let next = b_round.next();
        if !self.my_rank(next).is_leader() {
            return false;
        }
        if self.round_state(next).proposed {
            return false;
        }
        if self.store.is_notarized(&received) {
            return false; // already certified: the normal propose path handles it
        }
        if !self.is_valid(&received) {
            return false; // only extend a block we could ourselves vote for
        }
        self.round_state(next).proposed = true;
        let rank = self.my_rank(next);
        let mut block = None;
        if self.byz == ByzantineMode::EquivocateOptimistic {
            let a = self.build_block(next, rank, received, now);
            let b = self.build_block(next, rank, received, now);
            if a.0 != b.0 {
                block = Some(a.0);
                self.send_conflicting(a, b, actions);
            }
            // Identical payloads: no equivocation possible, pipeline
            // honestly below.
        }
        let block = block.unwrap_or_else(|| {
            let built = self.build_block(next, rank, received, now);
            let hash = built.0;
            self.broadcast_block(built, actions);
            hash
        });
        self.pending_optimistic = Some(PendingOptimistic {
            round: next,
            parent: received,
            block,
        });
        true
    }

    /// Resolves the pending optimistic proposal when we are about to
    /// enter round `next`. If its parent certified (notarized +
    /// unlocked), the pipeline won and there is nothing left to do.
    /// Otherwise it is abandoned: clearing the round's `proposed` flag
    /// re-arms the `Propose` timer on round entry, so the normal path
    /// re-proposes on the certified parent (the fallback). The abandoned
    /// block's drained requests come back via the mempool's
    /// certificate-conflict lease release.
    fn reconcile_optimistic(&mut self, next: Round) {
        let Some(po) = self.pending_optimistic else {
            return;
        };
        if po.round > next {
            return; // not due yet
        }
        self.pending_optimistic = None;
        let parent_certified =
            self.store.is_notarized(&po.parent) && self.is_unlocked(po.round.prev(), &po.parent);
        if !parent_certified {
            self.round_state(po.round).proposed = false;
        }
    }

    // ------------------------------------------------------------------
    // Message intake
    // ------------------------------------------------------------------

    /// Takes in a proposal (first receipt, relay or sync reply) and its
    /// attached evidence. Returns `true` iff any of it changed state.
    fn handle_proposal(
        &mut self,
        block: Block,
        parent_notarization: Option<Notarization>,
        parent_unlock: Option<UnlockProof>,
        fast_vote: Option<Vote>,
        now: Time,
        actions: &mut Actions,
    ) -> bool {
        // Attached evidence helps regardless of block validity.
        let mut changed = false;
        if let Some(cert) = parent_notarization {
            changed |= self.handle_notarization(cert, actions);
        }
        if let Some(proof) = parent_unlock {
            changed |= self.merge_unlock_proof(proof);
        }

        if block.round == Round::GENESIS {
            return changed;
        }
        // Rank must match the beacon's permutation for the round. Checked
        // before the hash, which is the only O(payload) step: a proposal
        // from the wrong proposer is dropped without touching its bytes.
        let expected = Rank(self.beacon.rank(block.round.0, block.proposer.0));
        if block.rank != expected {
            return changed;
        }
        // A copy of a block we hold (a peer's relay, a repeated sync reply)
        // is recognised by equality and takes the stored block's hash:
        // equal blocks hash alike, and comparing costs at most a memcmp
        // where hashing walks the payload. Anything else — a relay with a
        // flipped byte, an equivocating leader's second block — is hashed.
        let held = self
            .store
            .round_blocks(block.round)
            .iter()
            .find(|h| self.store.get(h) == Some(&block))
            .copied();
        let hash = held.unwrap_or_else(|| block.hash(self.cfg.payload_chunk));
        // A hash already in the store is that exact block, authenticated
        // when it was adopted: a relay of it needs no second check.
        let stored = held.is_some() || self.store.contains(&hash);
        if !stored
            && !self.verify.verify(
                block.proposer.0,
                &Block::signing_message(&hash),
                &block.signature,
            )
        {
            return changed;
        }
        // The attached fast vote must be the proposer's, for this block —
        // and is only looked at until one is held.
        let fast_vote = fast_vote.filter(|v| {
            v.kind == VoteKind::Fast
                && v.round == block.round
                && v.block == hash
                && v.voter == block.proposer
                && !self.holds_leader_fast_vote(block.round, &hash)
                && self.verify_vote(v)
        });
        if !stored || fast_vote.is_some() {
            changed = true;
            self.adopt_block(hash, block, fast_vote);
        }
        self.sync_requested.remove(&hash);
        changed | self.maybe_propose_optimistic(hash, now, actions)
    }

    /// Records a burst of votes. Returns `true` iff any was new. Votes
    /// are verified before the tables are consulted: a voter sends each
    /// vote once and only a stalled round's heartbeat repeats it, so a
    /// duplicate filter would have nothing to drop (it dropped none of
    /// the votes of any benchmark workload).
    fn handle_votes(&mut self, votes: Vec<Vote>) -> bool {
        // One batched check for the whole burst instead of a verification
        // per vote; verdicts come back per-item either way.
        let verdicts = self.verify_votes(&votes);
        let mut changed = false;
        for (vote, ok) in votes.into_iter().zip(verdicts) {
            if !ok {
                continue;
            }
            let rs = self.round_state(vote.round);
            changed |= match vote.kind {
                VoteKind::Notarize => rs
                    .notarize_votes
                    .add(vote.block, vote.voter, vote.signature),
                VoteKind::Finalize => rs
                    .finalize_votes
                    .add(vote.block, vote.voter, vote.signature),
                VoteKind::Fast => rs
                    .unlock
                    .add_fast_vote(vote.block, vote.voter, vote.signature),
            };
        }
        changed
    }

    /// Adopts a notarization certificate. Returns `true` iff the block
    /// was not notarized before and now is.
    fn handle_notarization(&mut self, cert: Notarization, actions: &mut Actions) -> bool {
        if self.store.is_notarized(&cert.block) {
            return false;
        }
        // Gate on popcount before touching signatures: an empty or
        // below-quorum aggregate verifies trivially under every scheme.
        if !cert.meets_quorum(self.cfg.notarization_quorum()) {
            return false;
        }
        let msg = Vote::signing_message(VoteKind::Notarize, cert.round, &cert.block);
        if !self.verify.verify_aggregate(&msg, &cert.agg) {
            return false;
        }
        if let Some(fast_agg) = &cert.fast_agg {
            // Remark 7.8: the second multi-signature covers fast votes.
            let msg = Vote::signing_message(VoteKind::Fast, cert.round, &cert.block);
            if !self.verify.verify_aggregate(&msg, fast_agg) {
                return false;
            }
        }
        // The fast votes inside a two-signature notarization are genuine
        // fast votes: feed them to the unlock machinery too.
        if let Some(fast_agg) = &cert.fast_agg {
            if self.fast_path() {
                if let Some(rank) = self.store.get(&cert.block).map(|b| b.rank) {
                    self.round_state(cert.round)
                        .unlock
                        .add_certified(cert.block, rank, fast_agg);
                }
            }
        }
        let block = cert.block;
        self.store.mark_notarized(block, Some(cert));
        if !self.store.contains(&block) {
            self.request_sync(block, actions);
        }
        true
    }

    /// Merges a relayed unlock proof (see `UnlockState::merge_proof_with`
    /// for what is verified). Returns `true` iff support or a rank was
    /// added.
    fn merge_unlock_proof(&mut self, proof: UnlockProof) -> bool {
        if !self.fast_path() {
            return false;
        }
        let verify = &self.verify;
        Self::round_entry(&mut self.rounds, &mut self.touched, &self.cfg, proof.round)
            .unlock
            .merge_proof_with(&proof, |msg, agg| verify.verify_aggregate(msg, agg))
    }

    fn handle_finalization(&mut self, cert: Finalization, now: Time, actions: &mut Actions) {
        if self.store.finalized(cert.round).is_some() {
            return;
        }
        let quorum = match cert.kind {
            FinalKind::Slow => self.cfg.finalization_quorum(),
            FinalKind::Fast => self.cfg.fast_quorum(),
        };
        // Popcount gate first — see `handle_notarization`.
        if !cert.meets_quorum(quorum) {
            return;
        }
        if cert.kind == FinalKind::Fast && !self.fast_path() {
            return;
        }
        let kind = match cert.kind {
            FinalKind::Slow => VoteKind::Finalize,
            FinalKind::Fast => VoteKind::Fast,
        };
        let msg = Vote::signing_message(kind, cert.round, &cert.block);
        if !self.verify.verify_aggregate(&msg, &cert.agg) {
            return;
        }
        self.apply_finalization(cert, now, actions);
        self.progress(now, actions);
    }

    /// Finalizes `cert.block` and its ancestors; or defers if blocks are
    /// missing.
    /// Returns `true` iff the chain below `cert` was actually committed.
    /// A deferred cert (missing ancestors, parked in
    /// `pending_finalizations`) is *not* progress: reporting it as such
    /// would let the finalize rules re-find the same quorum candidate and
    /// spin the progress fixpoint loop forever during catch-up.
    fn apply_finalization(&mut self, cert: Finalization, now: Time, actions: &mut Actions) -> bool {
        if cert.round <= self.k_max {
            return false;
        }
        let chain = match self.store.chain_to(&cert.block, self.k_max) {
            Some(chain) => chain
                .into_iter()
                .map(|(h, b)| {
                    (
                        h,
                        b.round,
                        b.proposer,
                        b.payload.clone(),
                        b.proposed_at,
                        b.rank,
                    )
                })
                .collect::<Vec<_>>(),
            None => {
                // Missing ancestor(s): fetch and retry when they arrive
                // (at most one parked cert per certified block).
                self.request_sync(cert.block, actions);
                if !self
                    .pending_finalizations
                    .iter()
                    .any(|c| c.round == cert.round && c.block == cert.block)
                {
                    self.pending_finalizations.push(cert);
                }
                return false;
            }
        };
        if chain.is_empty() {
            return false;
        }
        // Sanity: the chain must end at the certified block and start just
        // above kMax.
        let tip = chain.last().expect("non-empty");
        debug_assert_eq!(tip.0, cert.block);
        // Addition 4: only a rank-0 block can be FP-finalized. Checked
        // here, where the block is stored, so a fast certificate that was
        // parked before its block arrived is checked when the retry
        // applies it (and dropped).
        if cert.kind == FinalKind::Fast && !tip.5.is_leader() {
            return false;
        }

        for (hash, round, proposer, payload, proposed_at, _rank) in chain {
            let explicit = hash == cert.block;
            self.store.mark_finalized(round, hash);
            actions.commit(CommitEntry {
                round,
                block: hash,
                proposer,
                payload,
                proposed_at,
                committed_at: now,
                fast: explicit && cert.kind == FinalKind::Fast,
                explicit,
            });
        }
        self.k_max = cert.round;
        // Broadcast the certificate once (Algorithm 2 line 58).
        if let std::collections::hash_map::Entry::Vacant(slot) =
            self.finalizations.entry(cert.round)
        {
            actions.broadcast(Message::Chained(ChainedMsg::Final(cert.clone())));
            slot.insert(cert);
        }
        true
    }

    fn handle_sync(&mut self, from: ReplicaId, msg: SyncMsg, now: Time, actions: &mut Actions) {
        match msg {
            SyncMsg::Request { hash } => {
                if let Some(block) = self.store.get(&hash).cloned() {
                    let fast_vote = self
                        .rounds
                        .get(&block.round)
                        .and_then(|rs| rs.leader_fast_votes.get(&hash))
                        .copied();
                    let msg = self.proposal_message(&block, fast_vote.as_ref());
                    actions.send(from, msg);
                }
            }
            SyncMsg::Response { block } => {
                self.handle_proposal(block, None, None, None, now, actions);
                self.progress(now, actions);
            }
            SyncMsg::RequestRange {
                from_round,
                to_round,
            } => {
                self.serve_range(from, from_round, to_round, actions);
            }
            SyncMsg::ResponseBatch {
                blocks,
                notarizations,
            } => {
                for block in blocks {
                    self.handle_proposal(block, None, None, None, now, actions);
                    self.progress(now, actions);
                }
                for cert in notarizations {
                    self.handle_notarization(cert, actions);
                }
                self.progress(now, actions);
            }
            // The replica answers probes and feeds reports to catch-up:
            // neither reaches an engine.
            SyncMsg::FrontierProbe | SyncMsg::FrontierInfo { .. } => {}
        }
    }

    /// Serves a ranged catch-up fetch: the finalized chain (blocks +
    /// retained notarizations) for `from..=to`, capped, plus our newest
    /// finalization certificate so the requester can actually finalize
    /// what it fetched.
    fn serve_range(
        &mut self,
        from: ReplicaId,
        from_round: Round,
        to_round: Round,
        actions: &mut Actions,
    ) {
        /// Rounds served per request (bounds response size).
        const MAX_RANGE: u64 = 64;
        let lo = from_round.0.max(1);
        let hi = to_round
            .0
            .min(self.k_max.0)
            .min(lo.saturating_add(MAX_RANGE - 1));
        let mut blocks = Vec::new();
        let mut notarizations = Vec::new();
        for r in lo..=hi {
            let Some(h) = self.store.finalized(Round(r)) else {
                continue;
            };
            if let Some(b) = self.store.get(&h) {
                blocks.push(b.clone());
            }
            if let Some(cert) = self.store.notarization(&h) {
                notarizations.push(cert.clone());
            }
        }
        if !blocks.is_empty() || !notarizations.is_empty() {
            actions.send(
                from,
                Message::Sync(SyncMsg::ResponseBatch {
                    blocks,
                    notarizations,
                }),
            );
        }
        if let Some(cert) = self.finalizations.get(&self.k_max) {
            actions.send(from, Message::Chained(ChainedMsg::Final(cert.clone())));
        }
    }

    // ------------------------------------------------------------------
    // Progress: the `upon` rules, run to fixpoint
    // ------------------------------------------------------------------

    fn progress(&mut self, now: Time, actions: &mut Actions) {
        // Bounded fixpoint loop: every iteration that reports `changed`
        // strictly advances a monotone quantity (votes cast, notarizations
        // assembled, kMax, the current round), so the loop terminates once
        // buffered state is exhausted. A handful of iterations suffice in
        // steady state, but a recovering replica draining a ranged-sync
        // batch (or the buffered live traffic arriving right after it)
        // legitimately chains one enabling per recovered round; the cap
        // only guards against a genuine oscillation bug.
        //
        // The three certificate rules look only at the rounds touched
        // since the previous pass: an untouched round already sat at their
        // fixpoint, and nothing outside its round state (the store only
        // notarizes, finalizes and prunes; `k_max` only grows) can give it
        // a new certificate. `restore` marks every round.
        const PROGRESS_CAP: usize = 100_000;
        for _ in 0..PROGRESS_CAP {
            let touched = std::mem::take(&mut self.touched);
            let mut changed = false;
            changed |= self.try_assemble_notarizations(&touched, actions);
            changed |= self.try_fast_finalize(&touched, now, actions);
            changed |= self.try_slow_finalize(&touched, now, actions);
            changed |= self.retry_pending_finalizations(now, actions);
            changed |= self.try_vote(now, actions);
            changed |= self.try_advance(now, actions);
            if !changed {
                #[cfg(debug_assertions)]
                self.assert_full_scans_find_nothing(now);
                return;
            }
        }
        debug_assert!(false, "progress loop did not converge");
    }

    /// The oracle for the touched-round worklist: at `progress`'s
    /// fixpoint, the three certificate rules run over *every* retained
    /// round must find nothing to do.
    #[cfg(debug_assertions)]
    fn assert_full_scans_find_nothing(&mut self, now: Time) {
        let all: BTreeSet<Round> = self.rounds.keys().copied().collect();
        let parked = self.pending_finalizations.len();
        let mut scratch = Actions::none();
        let found = self.try_assemble_notarizations(&all, &mut scratch)
            | self.try_fast_finalize(&all, now, &mut scratch)
            | self.try_slow_finalize(&all, now, &mut scratch);
        assert!(
            !found && scratch.is_empty() && self.pending_finalizations.len() == parked,
            "a round outside the touched set held a certificate: {scratch:?}"
        );
    }

    /// The retained states of the `rounds` at or above `from`, ascending.
    fn states_from<'a>(
        &'a self,
        rounds: &'a BTreeSet<Round>,
        from: Round,
    ) -> impl Iterator<Item = (Round, &'a RoundState)> + 'a {
        rounds
            .range(from..)
            .filter_map(|r| self.rounds.get(r).map(|rs| (*r, rs)))
    }

    /// True when Remark 7.8 piggyback counting is active.
    fn piggyback(&self) -> bool {
        self.fast_path() && self.cfg.piggyback_fast_votes
    }

    /// Distinct replicas backing `hash`'s notarization: notarization votes
    /// alone, or — under Remark 7.8 — their union with fast votes.
    fn notarize_support(&self, round: Round, hash: &BlockHash) -> usize {
        let Some(rs) = self.rounds.get(&round) else {
            return 0;
        };
        if !self.piggyback() {
            return rs.notarize_votes.count(hash);
        }
        let n = self.cfg.n();
        let mut bm = banyan_crypto::SignerBitmap::new(n);
        for (voter, _) in rs.notarize_votes.votes_for(hash) {
            bm.set(voter);
        }
        let table = self.registry.table();
        for idx in rs.unlock.aggregate_indiv(table, hash).signers.iter() {
            bm.set(idx);
        }
        bm.count()
    }

    /// Assembles a notarization certificate from locally held votes.
    /// Under Remark 7.8 the certificate carries both multi-signatures.
    fn build_notarization(&self, round: Round, hash: BlockHash) -> Notarization {
        let votes = self.rounds[&round].notarize_votes.votes_for(&hash);
        let agg = self.registry.table().aggregate(&votes);
        let fast_agg = self.piggyback().then(|| {
            self.rounds[&round]
                .unlock
                .aggregate_indiv(self.registry.table(), &hash)
        });
        Notarization {
            round,
            block: hash,
            agg,
            fast_agg,
        }
    }

    /// Algorithm 2 line 45: combine `⌈(n+f+1)/2⌉` notarization votes
    /// (distinct union with fast votes under Remark 7.8), in `rounds`.
    fn try_assemble_notarizations(
        &mut self,
        rounds: &BTreeSet<Round>,
        actions: &mut Actions,
    ) -> bool {
        let quorum = self.cfg.notarization_quorum();
        let piggyback = self.piggyback();
        let mut newly: Vec<(Round, BlockHash)> = Vec::new();
        for (round, rs) in self.states_from(rounds, Round::GENESIS) {
            // Candidates: anything with at least one notarization vote,
            // plus (piggyback mode) every received block of the round.
            let stored = self
                .store
                .round_blocks(round)
                .iter()
                .filter(|h| piggyback && rs.notarize_votes.count(h) == 0);
            for hash in rs.notarize_votes.blocks_with(1).chain(stored) {
                if !self.store.is_notarized(hash) && self.notarize_support(round, hash) >= quorum {
                    newly.push((round, *hash));
                }
            }
        }
        // Ascending (round, hash): the order certificates are recorded in.
        newly.sort_unstable();
        let changed = !newly.is_empty();
        for (round, hash) in newly {
            let cert = self.build_notarization(round, hash);
            self.store.mark_notarized(hash, Some(cert));
            if !self.store.contains(&hash) {
                self.request_sync(hash, actions);
            }
        }
        changed
    }

    /// Addition 4 / Algorithm 2 line 56 (fast case): `n − p` fast votes
    /// for a rank-0 block FP-finalize it, in `rounds` above `k_max`.
    fn try_fast_finalize(
        &mut self,
        rounds: &BTreeSet<Round>,
        now: Time,
        actions: &mut Actions,
    ) -> bool {
        if !self.fast_path() {
            return false;
        }
        let quorum = self.cfg.fast_quorum();
        let candidates: Vec<(Round, BlockHash)> = self
            .states_from(rounds, self.k_max.next())
            .filter_map(|(round, rs)| rs.unlock.fast_finalizable(quorum).map(|h| (round, h)))
            .collect();
        let mut changed = false;
        for (round, hash) in candidates {
            if self.store.finalized(round).is_some() {
                continue;
            }
            // Already certified but waiting on missing ancestors: the
            // retry path owns it from here.
            if self
                .pending_finalizations
                .iter()
                .any(|c| c.round == round && c.block == hash)
            {
                continue;
            }
            // Build the certificate from individually held votes; if we
            // only know the support through certified aggregates we wait
            // for the explicit certificate instead.
            let rs = &self.rounds[&round];
            if rs.unlock.indiv_count(&hash) < quorum {
                continue;
            }
            let agg = rs.unlock.aggregate_indiv(self.registry.table(), &hash);
            let cert = Finalization {
                round,
                block: hash,
                kind: FinalKind::Fast,
                agg,
            };
            changed |= self.apply_finalization(cert, now, actions);
        }
        changed
    }

    /// Algorithm 2 line 56 (slow case): `⌈(n+f+1)/2⌉` finalization votes,
    /// in `rounds` above `k_max`.
    fn try_slow_finalize(
        &mut self,
        rounds: &BTreeSet<Round>,
        now: Time,
        actions: &mut Actions,
    ) -> bool {
        let quorum = self.cfg.finalization_quorum();
        let mut candidates: Vec<(Round, BlockHash)> = self
            .states_from(rounds, self.k_max.next())
            .flat_map(|(round, rs)| {
                rs.finalize_votes
                    .blocks_with(quorum)
                    .map(move |h| (round, *h))
            })
            .collect();
        candidates.sort_unstable();
        let mut changed = false;
        for (round, hash) in candidates {
            if self.store.finalized(round).is_some() {
                continue;
            }
            // Already certified but waiting on missing ancestors: the
            // retry path owns it from here.
            if self
                .pending_finalizations
                .iter()
                .any(|c| c.round == round && c.block == hash)
            {
                continue;
            }
            let votes = self.rounds[&round].finalize_votes.votes_for(&hash);
            let agg = self.registry.table().aggregate(&votes);
            let cert = Finalization {
                round,
                block: hash,
                kind: FinalKind::Slow,
                agg,
            };
            changed |= self.apply_finalization(cert, now, actions);
        }
        changed
    }

    fn retry_pending_finalizations(&mut self, now: Time, actions: &mut Actions) -> bool {
        if self.pending_finalizations.is_empty() {
            return false;
        }
        // A parked cert can only become applicable after a missing
        // ancestor arrived in the store, so skip the chain walk entirely
        // until the store has grown since the last retry.
        let store_len = self.store.len();
        if store_len == self.retry_store_len {
            return false;
        }
        self.retry_store_len = store_len;
        let pending = std::mem::take(&mut self.pending_finalizations);
        let mut changed = false;
        for cert in pending {
            if cert.round > self.k_max {
                changed |= self.apply_finalization(cert, now, actions);
            }
        }
        changed
    }

    /// Algorithm 1 lines 33–43: notarization-vote for the lowest-ranked
    /// valid block whose notarization delay has expired; piggyback the
    /// round's fast vote on the first one (Addition 3).
    fn try_vote(&mut self, now: Time, actions: &mut Actions) -> bool {
        let round = self.round;
        let Some(t0) = self.round_state(round).t0 else {
            return false;
        };
        // Nothing is left to do once every stored block of the round has
        // our notarization vote: each got it at or after its rank's
        // deadline, so there is no timer left to arm either.
        let voted = &self.rounds[&round].notarize_voted;
        if self
            .store
            .round_blocks(round)
            .iter()
            .all(|h| voted.contains(h))
        {
            return false;
        }
        // All valid blocks of the round, with ranks.
        let hashes = self.store.round_blocks(round).to_vec();
        let mut valid: Vec<(Rank, BlockHash)> = Vec::new();
        for hash in hashes {
            if self.is_valid(&hash) {
                let rank = self.store.get(&hash).expect("valid implies stored").rank;
                valid.push((rank, hash));
            }
        }
        if valid.is_empty() {
            return false;
        }
        valid.sort();
        let min_rank = valid[0].0;
        let deadline = t0 + self.cfg.notarization_delay(min_rank.0);
        if now < deadline {
            // Arm (once) the timer for this rank's delay.
            let rs = self.round_state(round);
            if rs.notarize_timers.insert(min_rank.0) {
                actions.arm(
                    deadline,
                    TimerKind::NotarizeRank {
                        round: round.0,
                        rank: min_rank.0,
                    },
                );
            }
            return false;
        }
        // Vote for every not-yet-voted valid block of minimal rank (there
        // can be several under leader equivocation).
        let candidates: Vec<BlockHash> = valid
            .iter()
            .filter(|(r, h)| *r == min_rank && !self.rounds[&round].notarize_voted.contains(h))
            .map(|(_, h)| *h)
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let mut changed = false;
        for hash in candidates {
            changed = true;
            let fast_needed = self.fast_path() && !self.round_state(round).fast_vote_sent;
            // Remark 7.8: a fast vote for this block makes the notarization
            // vote redundant (it counts toward the quorum itself) — whether
            // that fast vote goes out now or already went out (the leader's
            // own proposal carries one).
            let my_fast_target = self
                .round_state(round)
                .our_votes
                .iter()
                .find(|v| v.kind == VoteKind::Fast)
                .map(|v| v.block);
            let omit_notarize = self.piggyback() && (fast_needed || my_fast_target == Some(hash));
            let mut bundle = if omit_notarize {
                Vec::new()
            } else {
                vec![self.make_vote(VoteKind::Notarize, round, hash)]
            };
            if fast_needed {
                bundle.push(self.make_vote(VoteKind::Fast, round, hash));
                if self.byz == ByzantineMode::DoubleFastVote {
                    // Also fast-vote some other block of the round, if any.
                    if let Some(other) = self
                        .store
                        .round_blocks(round)
                        .iter()
                        .find(|h| **h != hash)
                        .copied()
                    {
                        bundle.push(self.make_vote(VoteKind::Fast, round, other));
                    }
                }
            }
            // Apply our own votes locally (no self-delivery on the wire).
            {
                let me = self.id;
                let rs = self.round_state(round);
                rs.notarize_voted.insert(hash);
                for v in &bundle {
                    match v.kind {
                        VoteKind::Notarize => {
                            rs.notarize_votes.add(v.block, me, v.signature);
                        }
                        VoteKind::Fast => {
                            rs.unlock.add_fast_vote(v.block, me, v.signature);
                            rs.fast_vote_sent = true;
                        }
                        VoteKind::Finalize => unreachable!("not built here"),
                    }
                }
                rs.our_votes.extend(bundle.iter().copied());
            }
            if !bundle.is_empty() {
                actions.broadcast(Message::Chained(ChainedMsg::Votes(bundle)));
            }

            // Algorithm 1 lines 34–36: relay the block (with its parent's
            // certificates) when it is not our own proposal.
            let proposer = self.store.get(&hash).expect("stored").proposer;
            if self.cfg.forward_blocks
                && proposer != self.id
                && self.round_state(round).relayed.insert(hash)
            {
                let block = self.store.get(&hash).expect("stored").clone();
                let fast_vote = self
                    .round_state(round)
                    .leader_fast_votes
                    .get(&hash)
                    .copied();
                let msg = self.proposal_message(&block, fast_vote.as_ref());
                actions.broadcast(msg);
            }
        }
        changed
    }

    /// Algorithm 2 lines 48–54 (Restriction 2 + Addition 1): advance to
    /// round `k + 1` once a notarized **and unlocked** block exists and our
    /// fast vote is out; broadcast the notarization + unlock proof; send
    /// the finalization vote if we voted for nothing else.
    fn try_advance(&mut self, now: Time, actions: &mut Actions) -> bool {
        // Finalization-driven catch-up: never linger at or below kMax.
        if self.round <= self.k_max {
            let next = self.k_max.next();
            self.reconcile_optimistic(next);
            self.enter_round(next, now, actions);
            return true;
        }
        let round = self.round;
        if self.round_state(round).t0.is_none() {
            return false;
        }
        // Find a notarized + unlocked block of the current round.
        let mut candidates: Vec<(Rank, BlockHash)> = Vec::new();
        for hash in self.store.round_blocks(round).to_vec() {
            if self.store.is_notarized(&hash) && self.is_unlocked(round, &hash) {
                let rank = self.store.get(&hash).expect("stored").rank;
                candidates.push((rank, hash));
            }
        }
        candidates.sort();
        let Some((_, chosen)) = candidates.first().copied() else {
            return false;
        };

        // Restriction 2 requires our fast vote to be out. If the block is
        // valid and we simply have not voted yet (catch-up), vote now —
        // the network has already converged on it, so the notarization
        // delay serves no purpose.
        if self.fast_path() && !self.round_state(round).fast_vote_sent {
            if self.is_valid(&chosen) && !self.rounds[&round].notarize_voted.contains(&chosen) {
                let notarize = self.make_vote(VoteKind::Notarize, round, chosen);
                let fast = self.make_vote(VoteKind::Fast, round, chosen);
                let me = self.id;
                let rs = self.round_state(round);
                rs.notarize_voted.insert(chosen);
                rs.notarize_votes.add(chosen, me, notarize.signature);
                rs.unlock.add_fast_vote(chosen, me, fast.signature);
                rs.fast_vote_sent = true;
                rs.our_votes.push(notarize);
                rs.our_votes.push(fast);
                actions.broadcast(Message::Chained(ChainedMsg::Votes(vec![notarize, fast])));
            } else if self.is_valid(&chosen) {
                // We notarize-voted it earlier without a fast vote: just
                // emit the fast vote.
                let fast = self.make_vote(VoteKind::Fast, round, chosen);
                let me = self.id;
                let rs = self.round_state(round);
                rs.unlock.add_fast_vote(chosen, me, fast.signature);
                rs.fast_vote_sent = true;
                rs.our_votes.push(fast);
                actions.broadcast(Message::Chained(ChainedMsg::Votes(vec![fast])));
            }
            // If the block is not even valid for us (missing ancestry), we
            // advance without a fast vote: a notarization quorum proves the
            // network moved on (documented deviation for catch-up).
        }

        // Addition 1 / line 50: broadcast notarization + unlock proof.
        if let Some(cert) = self.store.notarization(&chosen).cloned() {
            let unlock = self.fast_path().then(|| {
                Self::round_entry(&mut self.rounds, &mut self.touched, &self.cfg, round)
                    .unlock
                    .build_proof(self.registry.table())
            });
            actions.broadcast(Message::Chained(ChainedMsg::Advance {
                notarization: cert,
                unlock,
            }));
        }

        // Lines 51–53: finalization vote if we voted for nothing else.
        let send_final = {
            let rs = self.round_state(round);
            rs.voted_only_for(&chosen) && !rs.finalize_vote_sent && !rs.notarize_voted.is_empty()
        };
        if send_final {
            let vote = self.make_vote(VoteKind::Finalize, round, chosen);
            let me = self.id;
            let rs = self.round_state(round);
            rs.finalize_vote_sent = true;
            rs.finalize_votes.add(chosen, me, vote.signature);
            rs.our_votes.push(vote);
            actions.broadcast(Message::Chained(ChainedMsg::Votes(vec![vote])));
        }

        self.round_state(round).advanced = true;
        self.reconcile_optimistic(round.next());
        self.enter_round(round.next(), now, actions);
        true
    }

    /// Stuck-round retransmission: links in the model are reliable, but a
    /// real network (or a healed hard partition) loses messages.
    /// Production ICC continuously re-gossips its artifact pool; we
    /// re-broadcast our proposal, our votes and the previous round's
    /// certificates, then re-arm the heartbeat.
    fn heartbeat(&mut self, round: Round, now: Time, actions: &mut Actions) {
        if round != self.round || self.round_state(round).advanced {
            return; // we moved on; nothing is stuck
        }
        // Our votes for this round.
        let votes = self.round_state(round).our_votes.clone();
        if !votes.is_empty() {
            actions.broadcast(Message::Chained(ChainedMsg::Votes(votes)));
        }
        // Our own proposal, if any.
        let own_proposal = self
            .store
            .round_blocks(round)
            .iter()
            .find(|h| self.store.get(h).is_some_and(|b| b.proposer == self.id))
            .copied();
        if let Some(hash) = own_proposal {
            let block = self.store.get(&hash).expect("stored").clone();
            let fast_vote = self
                .round_state(round)
                .leader_fast_votes
                .get(&hash)
                .copied();
            let msg = self.proposal_message(&block, fast_vote.as_ref());
            actions.broadcast(msg);
        }
        // A pending optimistic proposal for the next round (its parent's
        // certificate is what we are stuck waiting for): re-offer it.
        if let Some(po) = self.pending_optimistic {
            if po.round == round.next() {
                if let Some(block) = self.store.get(&po.block).cloned() {
                    let msg = self.proposal_message(&block, None);
                    actions.broadcast(msg);
                }
            }
        }
        // Previous round's certificate (catch-up aid for peers behind us).
        let prev = round.prev();
        if prev > Round::GENESIS {
            let cert = self
                .store
                .round_blocks(prev)
                .iter()
                .find_map(|h| self.store.notarization(h).cloned());
            if let Some(cert) = cert {
                let unlock = self.fast_path().then(|| {
                    Self::round_entry(&mut self.rounds, &mut self.touched, &self.cfg, prev)
                        .unlock
                        .build_proof(self.registry.table())
                });
                actions.broadcast(Message::Chained(ChainedMsg::Advance {
                    notarization: cert,
                    unlock,
                }));
            }
        }
        // Latest finalization certificate (lets peers jump to kMax).
        if let Some(cert) = self.finalizations.get(&self.k_max).cloned() {
            actions.broadcast(Message::Chained(ChainedMsg::Final(cert)));
        }
        actions.arm(
            now + ProtocolConfig::HEARTBEAT,
            TimerKind::RoundTimeout { round: round.0 },
        );
    }
}

impl Engine for ChainedEngine {
    fn id(&self) -> ReplicaId {
        self.id
    }

    fn protocol_name(&self) -> &'static str {
        match self.mode {
            PathMode::IccOnly => "icc",
            PathMode::Banyan => "banyan",
        }
    }

    fn on_init(&mut self, now: Time) -> Actions {
        self.routed_k_max = self.k_max;
        let mut actions = Actions::none();
        // Fresh replicas have `k_max = GENESIS`, so this is round 1; a
        // recovered replica re-enters just above its restored frontier.
        self.enter_round(self.k_max.next(), now, &mut actions);
        self.progress(now, &mut actions);
        actions
    }

    fn on_message(&mut self, from: ReplicaId, msg: Message, now: Time) -> Actions {
        self.routed_k_max = self.k_max;
        let mut actions = Actions::none();
        // Evidence intake reports whether it changed state, and the `upon`
        // rules are re-evaluated only if it did: between events the state
        // sits at `progress`'s fixpoint, and the one guard that time alone
        // can open (`try_vote`'s notarization delay) arms a timer for
        // exactly its deadline.
        let changed = match msg {
            Message::Chained(ChainedMsg::Proposal {
                block,
                parent_notarization,
                parent_unlock,
                fast_vote,
            }) => self.handle_proposal(
                block,
                parent_notarization,
                parent_unlock,
                fast_vote,
                now,
                &mut actions,
            ),
            Message::Chained(ChainedMsg::Votes(votes)) => self.handle_votes(votes),
            Message::Chained(ChainedMsg::Advance {
                notarization,
                unlock,
            }) => {
                let notarized = self.handle_notarization(notarization, &mut actions);
                let merged = unlock.is_some_and(|proof| self.merge_unlock_proof(proof));
                notarized || merged
            }
            // Finalizations and sync replies run `progress` themselves.
            Message::Chained(ChainedMsg::Final(cert)) => {
                self.handle_finalization(cert, now, &mut actions);
                false
            }
            Message::Sync(sync) => {
                self.handle_sync(from, sync, now, &mut actions);
                false
            }
            // Foreign protocol families — and dissemination traffic,
            // which belongs to the driver layer, not an engine — are
            // ignored.
            Message::HotStuff(_) | Message::Streamlet(_) | Message::Dissemination(_) => false,
        };
        if changed {
            self.progress(now, &mut actions);
        }
        actions
    }

    fn on_timer(&mut self, kind: TimerKind, now: Time) -> Actions {
        self.routed_k_max = self.k_max;
        let mut actions = Actions::none();
        match kind {
            TimerKind::Propose { round, .. } => {
                self.propose(Round(round), now, &mut actions);
                self.progress(now, &mut actions);
            }
            TimerKind::NotarizeRank { round, .. } if Round(round) == self.round => {
                self.progress(now, &mut actions);
            }
            TimerKind::RoundTimeout { round } => {
                self.heartbeat(Round(round), now, &mut actions);
            }
            _ => {}
        }
        actions
    }

    fn current_round(&self) -> Round {
        self.round
    }

    fn finalized_round(&self) -> Round {
        self.k_max
    }

    fn snapshot(&self) -> ChainSnapshot {
        let mut snap = self.store.snapshot();
        snap.committed_round = self.k_max;
        snap.normalize();
        snap
    }

    fn restore(&mut self, snapshot: &ChainSnapshot) {
        self.store.restore(snapshot);
        self.k_max = snapshot.max_finalized_round();
        self.routed_k_max = self.k_max;
        // Optimistic state is volatile: a recovered replica starts from
        // the certified frontier.
        self.pending_optimistic = None;
        // Force the next pending-finalization retry to walk, and the next
        // `progress` to look at every round: the store contents just
        // changed wholesale.
        self.retry_store_len = usize::MAX;
        self.touched.extend(self.rounds.keys().copied());
    }

    fn wal_bytes(&self) -> u64 {
        self.store.wal_bytes()
    }

    fn verify_stats(&self) -> VerifyStats {
        self.verify.stats()
    }

    fn set_verify_backend(&mut self, backend: Arc<dyn VerifyBackend>) {
        self.verify = backend;
    }
}
