//! Streamlet baseline (Chan & Shi, AFT'20), as used by the paper's
//! evaluation through the Bamboo framework (§9.1).
//!
//! Streamlet advances in fixed-length epochs of `2Δ`:
//!
//! * the epoch's (round-robin) leader proposes a block extending the tip
//!   of a longest notarized chain;
//! * every replica votes (all-to-all) for the epoch's first valid leader
//!   proposal that extends a longest notarized chain;
//! * `⌈(n+f+1)/2⌉` votes notarize a block;
//! * three notarized blocks in **consecutive** epochs commit the middle
//!   one and its ancestors.
//!
//! Being a synchronous-epoch protocol, its latency is `O(Δ)` rather than
//! `O(δ)` — the paper's Table 1 lists `6Δ` finalization — which is why it
//! trails ICC/Banyan in every figure.
//!
//! Blocks, notarizations and the finalized chain live in the engine's
//! [`ChainStore`], like every engine's; a commit marks each block
//! finalized.
//!
//! Evidence comes in as in every engine (`crate::evidence`): the epoch
//! leader's block is admitted there, whether it came as a proposal or in
//! a sync reply (a copy of a stored block is neither hashed nor checked
//! again), a served notarization passes the shared certificate gate,
//! votes are tallied in one [`VoteTable`] per epoch, and ranged catch-up
//! is served by the shared range server. Per-epoch state is dropped once
//! the rules can no longer read it: votes and stored rounds below the
//! finalized epoch, voted epochs below the current one.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use banyan_crypto::beacon::Beacon;
use banyan_crypto::registry::KeyRegistry;
use banyan_crypto::{DirectVerify, Signature, VerifyBackend, VerifyStats};
use banyan_storage::{BlockStore, ChainStore};
use banyan_types::app::ProposalSource;
use banyan_types::block::Block;
use banyan_types::certs::Notarization;
use banyan_types::config::ProtocolConfig;
use banyan_types::engine::{Actions, Engine, TimerKind};
use banyan_types::ids::{BlockHash, Rank, ReplicaId, Round};
use banyan_types::message::{Message, StreamletMsg, SyncMsg};
use banyan_types::time::{Duration, Time};
use banyan_types::vote::{Vote, VoteKind};
use banyan_types::ChainSnapshot;

use crate::chained::round::VoteTable;
use crate::{baseline, evidence};

/// The Streamlet replica engine.
pub struct StreamletEngine {
    cfg: ProtocolConfig,
    id: ReplicaId,
    beacon: Beacon,
    registry: KeyRegistry,
    /// The verify plane (see `ChainedEngine::set_verify_backend`).
    verify: Arc<dyn VerifyBackend>,
    /// Received blocks, their notarization certificates (quorums we
    /// observed, plus certificates adopted from catch-up batches — the
    /// proofs served to rejoining replicas over ranged sync), and the
    /// finalized chain.
    store: Box<dyn ChainStore>,
    /// The rounds from the finalized round up that hold a stored block:
    /// where `longest_notarized_tip` looks. The store indexes blocks by
    /// round but cannot list its rounds, and a scan up to the highest
    /// round would let one block with a huge round stall the engine.
    /// Rounds below the finalized one are dropped at each commit, so the
    /// set stays as small as the unfinalized suffix however the store is
    /// pruned. With at most `f` faults no notarized chain ending there is
    /// as long as the one through the finalized block and its notarized
    /// child; a replica still missing blocks below its finalized one may
    /// then propose on genesis instead of on a stale fork, and no honest
    /// replica votes for either.
    rounds: BTreeSet<u64>,
    /// Votes per epoch. Only a vote can notarize a block from them, and
    /// below the finalized epoch a block is finalized (so notarized) or
    /// off the finalized chain, where neither the vote nor the commit
    /// rule looks: epochs below it are dropped at each commit, and votes
    /// for them are not kept.
    votes: BTreeMap<u64, VoteTable>,
    /// Epoch we are in.
    epoch: u64,
    /// Epochs we have voted in. The vote rule looks only at the current
    /// epoch and later ones, so earlier ones are dropped on entering an
    /// epoch.
    voted_epochs: BTreeSet<u64>,
    /// Epoch length (the paper's `2Δ`).
    epoch_len: Duration,
    /// Where block payloads come from.
    source: Box<dyn ProposalSource>,
}

impl std::fmt::Debug for StreamletEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamletEngine")
            .field("id", &self.id)
            .field("epoch", &self.epoch)
            .field("committed_round", &self.finalized_round())
            .finish_non_exhaustive()
    }
}

impl StreamletEngine {
    /// Creates a replica engine. `epoch_len` should be `2Δ`.
    pub fn new(
        cfg: ProtocolConfig,
        registry: KeyRegistry,
        beacon: Beacon,
        source: Box<dyn ProposalSource>,
        epoch_len: Duration,
    ) -> Self {
        assert_eq!(beacon.n(), cfg.n(), "beacon sized for the cluster");
        let id = ReplicaId(registry.my_index());
        let verify: Arc<dyn VerifyBackend> = Arc::new(DirectVerify::new(registry.table().clone()));
        StreamletEngine {
            cfg,
            id,
            beacon,
            registry,
            verify,
            store: Box::new(BlockStore::new()),
            rounds: BTreeSet::new(),
            votes: BTreeMap::new(),
            epoch: 0,
            voted_epochs: BTreeSet::new(),
            epoch_len,
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
    /// store now holds. It parks one epoch short of the highest stored
    /// round so `on_init` resumes past it: pre-crash votes can only exist
    /// in epochs up to it (voting requires the block to be stored
    /// first), so resuming beyond it cannot equivocate.
    fn resume(&mut self, snapshot: &ChainSnapshot) {
        self.votes.clear();
        self.voted_epochs.clear();
        let finalized = snapshot.max_finalized_round().0;
        self.rounds = snapshot
            .blocks
            .iter()
            .map(|(_, b)| b.round.0)
            .filter(|&round| round >= finalized)
            .collect();
        let top = self.rounds.last().copied().unwrap_or(0);
        self.epoch = top.max(finalized);
    }

    /// Stores a block (a duplicate is ignored).
    fn store_block(&mut self, hash: BlockHash, block: Block) {
        self.rounds.insert(block.round.0);
        self.store.insert(hash, block);
    }

    fn quorum(&self) -> usize {
        self.cfg.notarization_quorum()
    }

    fn leader(&self, epoch: u64) -> ReplicaId {
        ReplicaId(self.beacon.leader(epoch.saturating_sub(1)))
    }

    /// Length of the notarized chain ending at `hash` (genesis = 0), or
    /// `None` if the chain is broken or not fully notarized.
    fn notarized_chain_len(&self, hash: &BlockHash) -> Option<u64> {
        if *hash == BlockHash::ZERO {
            return Some(0);
        }
        if !self.store.is_notarized(hash) {
            return None;
        }
        let block = self.store.get(hash)?;
        self.notarized_chain_len(&block.parent).map(|l| l + 1)
    }

    /// Tip of a longest notarized chain (genesis if none). Deterministic
    /// tie-break on the hash.
    fn longest_notarized_tip(&self) -> (BlockHash, u64) {
        let mut best = (BlockHash::ZERO, 0u64);
        for &round in &self.rounds {
            for hash in self.store.round_blocks(Round(round)) {
                if let Some(len) = self.notarized_chain_len(hash) {
                    if len > best.1 || (len == best.1 && *hash < best.0) {
                        best = (*hash, len);
                    }
                }
            }
        }
        best
    }

    fn start_epoch(&mut self, epoch: u64, now: Time, actions: &mut Actions) {
        self.epoch = epoch;
        self.voted_epochs = self.voted_epochs.split_off(&epoch);
        // Arm the next epoch boundary. Epoch `e + 1` begins at `e·len` on
        // the shared epoch clock; for an aligned replica this equals
        // `now + epoch_len` exactly, while a replica re-initialized
        // mid-epoch (restart) re-synchronizes its tick to the boundary.
        // No epoch follows `u64::MAX`: a replica there stays in it.
        if let Some(next) = epoch.checked_add(1) {
            actions.arm(
                Time(epoch.saturating_mul(self.epoch_len.0)),
                TimerKind::EpochTick { epoch: next },
            );
        }
        if self.leader(epoch) == self.id {
            let (parent, _) = self.longest_notarized_tip();
            // Stopping the ancestor walk at the store's live frontier
            // satisfies the mempool's "ancestors reach the newest *routed*
            // commit" contract only because Streamlet proposes
            // exclusively as the first action of an epoch tick — no commit
            // can precede the drain within one event. A future
            // propose-from-`on_message` path must snapshot the committed
            // round at event entry instead (see HotStuff's
            // `routed_committed_round`).
            let ctx = baseline::proposal_context(
                self.store.as_ref(),
                Round(epoch),
                parent,
                self.finalized_round(),
                now,
            );
            let block = Block {
                round: Round(epoch),
                proposer: self.id,
                rank: Rank(0),
                parent,
                proposed_at: now,
                payload: self.source.next_payload(&ctx),
                signature: Signature::zero(),
            };
            let (_, block) = evidence::mint(&self.registry, self.cfg.payload_chunk, block);
            actions.broadcast(Message::Streamlet(StreamletMsg::Proposal {
                block: block.clone(),
            }));
            self.handle_proposal(block, now, actions);
        }
    }

    /// Stores `block` if it is new and its epoch leader's, signed by it
    /// (`evidence::admit`): the checks every block passes before the store
    /// takes it, whether it came as a proposal or in a sync reply. Returns
    /// its hash if it was stored.
    fn admit(&mut self, block: Block) -> Option<BlockHash> {
        let epoch = block.round.0;
        if epoch == 0 || block.proposer != self.leader(epoch) {
            return None;
        }
        let chunk = self.cfg.payload_chunk;
        let admitted = evidence::admit(self.store.as_ref(), self.verify.as_ref(), &block, chunk);
        let Some((hash, false)) = admitted else {
            return None;
        };
        self.store_block(hash, block);
        Some(hash)
    }

    fn handle_proposal(&mut self, block: Block, now: Time, actions: &mut Actions) {
        let (round, parent) = (block.round, block.parent);
        let Some(hash) = self.admit(block) else {
            return;
        };

        // Vote if we haven't voted this epoch and the proposal extends a
        // longest notarized chain.
        let epoch = round.0;
        let (_, longest) = self.longest_notarized_tip();
        let parent_len = self.notarized_chain_len(&parent);
        if !self.voted_epochs.contains(&epoch) && epoch >= self.epoch && parent_len == Some(longest)
        {
            self.voted_epochs.insert(epoch);
            let msg = Vote::signing_message(VoteKind::Notarize, round, &hash);
            let vote = Vote {
                kind: VoteKind::Notarize,
                round,
                block: hash,
                voter: self.id,
                signature: self.registry.sign(&msg),
            };
            actions.broadcast(Message::Streamlet(StreamletMsg::Vote(vote)));
            self.handle_vote(vote, now, actions);
        }
    }

    fn handle_vote(&mut self, vote: Vote, now: Time, actions: &mut Actions) {
        if vote.kind != VoteKind::Notarize {
            return;
        }
        if !self
            .verify
            .verify(vote.voter.0, &vote.message(), &vote.signature)
            || vote.round < self.finalized_round()
        {
            return;
        }
        let quorum = self.quorum();
        let table = self.votes.entry(vote.round.0).or_default();
        table.add(vote.block, vote.voter, vote.signature);
        if table.count(&vote.block) < quorum || self.store.is_notarized(&vote.block) {
            return;
        }
        // Assemble the certificate while the votes are at hand, so a
        // ranged-sync serve later can prove the notarization.
        let agg = self
            .registry
            .table()
            .aggregate(&table.votes_for(&vote.block));
        self.store.mark_notarized(
            vote.block,
            Some(Notarization::from_votes(vote.round, vote.block, agg)),
        );
        self.try_commit(&vote.block, now, actions);
    }

    /// Block-sync handling: serve single blocks, serve certified round
    /// ranges to rejoining replicas, and adopt served blocks, each only
    /// after the checks a proposal passes (`admit`). Adoption is
    /// what reconnects a restarted replica's chain: its vote rule needs an
    /// unbroken notarized path to the longest tip, so without the
    /// downtime-gap blocks it could notarize and commit but never vote
    /// again.
    fn handle_sync(&mut self, from: ReplicaId, msg: SyncMsg, now: Time, actions: &mut Actions) {
        match msg {
            SyncMsg::Request { hash } => {
                if let Some(block) = self.store.get(&hash) {
                    let block = block.clone();
                    actions.send(from, Message::Sync(SyncMsg::Response { block }));
                }
            }
            SyncMsg::Response { block } => {
                self.admit(block);
            }
            SyncMsg::RequestRange {
                from_round,
                to_round,
            } => self.serve_range(from, (from_round, to_round), actions),
            SyncMsg::ResponseBatch {
                blocks,
                notarizations,
            } => {
                for block in blocks {
                    self.admit(block);
                }
                for cert in notarizations {
                    self.adopt_notarization(cert, now, actions);
                }
            }
            // The replica answers probes and feeds reports to catch-up:
            // neither reaches an engine.
            SyncMsg::FrontierProbe | SyncMsg::FrontierInfo { .. } => {}
        }
    }

    /// Serves a ranged catch-up fetch: every stored block we hold a
    /// certificate for in `from..=to` (capped), ascending by epoch, then
    /// hash. A certificate whose block we lack is not served: the
    /// requester's chain, vote and commit rules all walk stored blocks, so
    /// it could only mark the hash notarized, and Streamlet never fetches
    /// a single block by hash — the block reaches a rejoining replica in
    /// a batch, beside its certificate, from a peer that holds both.
    fn serve_range(&self, from: ReplicaId, range: (Round, Round), actions: &mut Actions) {
        let store = self.store.as_ref();
        let certified = |round| {
            let mut hashes = store.round_blocks(round).to_vec();
            hashes.retain(|hash| store.notarization(hash).is_some());
            hashes.sort_unstable();
            hashes
        };
        evidence::serve_range(store, range, certified, from, actions);
    }

    /// Adopts a served notarization certificate: verify, mark the block
    /// notarized, and run the commit rule (a reconnected chain can commit
    /// the whole downtime gap at once).
    fn adopt_notarization(&mut self, cert: Notarization, now: Time, actions: &mut Actions) {
        if self.store.is_notarized(&cert.block) {
            self.store.mark_notarized(cert.block, Some(cert));
            return;
        }
        if !evidence::notarized(self.verify.as_ref(), self.quorum(), &cert) {
            return;
        }
        let block = cert.block;
        self.store.mark_notarized(block, Some(cert));
        self.try_commit(&block, now, actions);
    }

    /// Commit rule: notarized blocks in three consecutive epochs on one
    /// chain finalize the middle one (and its ancestors).
    fn try_commit(&mut self, tip: &BlockHash, now: Time, actions: &mut Actions) {
        // tip = e3; parent = e2; grandparent = e1. Epochs must be
        // consecutive; then e2 and ancestors commit.
        let Some(b3) = self.store.get(tip) else {
            return;
        };
        let e3 = b3.round.0;
        let p2 = b3.parent;
        if p2 == BlockHash::ZERO || !self.store.is_notarized(&p2) {
            return;
        }
        let Some(b2) = self.store.get(&p2) else {
            return;
        };
        let e2 = b2.round.0;
        let p1 = b2.parent;
        let e1 = if p1 == BlockHash::ZERO {
            // Genesis counts as epoch 0; the rule needs three *blocks*,
            // but Streamlet's standard statement allows committing the
            // second block when the first two epochs are 1,2 on genesis.
            if e2 >= 2 {
                return;
            }
            0
        } else {
            if !self.store.is_notarized(&p1) {
                return;
            }
            let Some(b1) = self.store.get(&p1) else {
                return;
            };
            b1.round.0
        };
        if e2.checked_add(1) != Some(e3) || (p1 != BlockHash::ZERO && e1.checked_add(1) != Some(e2))
        {
            return;
        }
        if Round(e2) <= self.finalized_round() {
            return;
        }
        baseline::commit_chain(self.store.as_mut(), p2, now, actions);
        let finalized = self.finalized_round().0;
        self.rounds = self.rounds.split_off(&finalized);
        self.votes = self.votes.split_off(&finalized);
    }
}

impl Engine for StreamletEngine {
    fn id(&self) -> ReplicaId {
        self.id
    }

    fn protocol_name(&self) -> &'static str {
        "streamlet"
    }

    fn on_init(&mut self, now: Time) -> Actions {
        let mut actions = Actions::none();
        // Epochs are lock-step wall-clock intervals (the paper's `2Δ`):
        // epoch `e` spans `[(e-1)·len, e·len)`, so a fresh engine at t=0
        // starts at epoch 1 and a restored one jumps straight to the
        // *current* epoch. Resuming the pre-crash counter instead would
        // leave the replica a full downtime's worth of epochs behind —
        // proposing into long-dead epochs nobody votes for, which starves
        // the three-consecutive-epochs commit rule cluster-wide. The
        // `self.epoch + 1` floor keeps any pre-crash vote unrepeatable
        // (`restore` parks `epoch` at the highest round it had stored).
        let wall = now.0 / self.epoch_len.0 + 1;
        // A replica restored in epoch `u64::MAX` has none left to start.
        if let Some(floor) = self.epoch.checked_add(1) {
            self.start_epoch(wall.max(floor), now, &mut actions);
        }
        actions
    }

    fn on_message(&mut self, from: ReplicaId, msg: Message, now: Time) -> Actions {
        let mut actions = Actions::none();
        match msg {
            Message::Streamlet(StreamletMsg::Proposal { block }) => {
                self.handle_proposal(block, now, &mut actions);
            }
            Message::Streamlet(StreamletMsg::Vote(vote)) => {
                self.handle_vote(vote, now, &mut actions);
            }
            Message::Sync(sync) => {
                self.handle_sync(from, sync, now, &mut actions);
            }
            _ => {}
        }
        actions
    }

    fn on_timer(&mut self, kind: TimerKind, now: Time) -> Actions {
        let mut actions = Actions::none();
        if let TimerKind::EpochTick { epoch } = kind {
            if self.epoch.checked_add(1) == Some(epoch) {
                self.start_epoch(epoch, now, &mut actions);
            }
        }
        actions
    }

    fn current_round(&self) -> Round {
        Round(self.epoch)
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

    /// A fault-free n = 4 cluster run for 600 epochs holds as few
    /// per-epoch entries as after a handful: votes and stored rounds only
    /// from the finalized epoch on, voted epochs only from the current one.
    #[test]
    fn per_epoch_state_stays_bounded_over_600_epochs() {
        const N: usize = 4;
        let epoch_len = Duration::from_millis(200);
        let mut engines: Vec<StreamletEngine> = (0..N as u16)
            .map(|i| {
                StreamletEngine::new(
                    ProtocolConfig::new(N, 1, 1).unwrap(),
                    KeyRegistry::generate(Arc::new(HashSig), 5, N, i),
                    Beacon::new(BeaconMode::RoundRobin, N),
                    Box::new(FixedSizeSource::new(100, i)),
                    epoch_len,
                )
            })
            .collect();
        for epoch in 1..=600u64 {
            let now = Time((epoch - 1) * epoch_len.0);
            let start = |e: &mut StreamletEngine| match epoch {
                1 => e.on_init(now),
                _ => e.on_timer(TimerKind::EpochTick { epoch }, now),
            };
            let initial = engines.iter_mut().map(start).enumerate().collect();
            deliver(&mut engines, initial, now, u64::MAX);
        }
        for e in &engines {
            assert!(e.epoch == 600 && e.finalized_round().0 >= 598, "{e:?}");
            assert!(
                e.votes.len() <= 2,
                "{e:?}: votes of {} epochs",
                e.votes.len()
            );
            assert!(e.voted_epochs.len() <= 1, "{e:?}: {:?}", e.voted_epochs);
            assert!(e.rounds.len() <= 2, "{e:?}: rounds {:?}", e.rounds);
        }
    }
}
