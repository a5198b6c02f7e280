//! Property tests of the lease lifecycle: under any
//! interleaving of pushes, ancestor-aware drains, peer-block observations,
//! commits and releases, the pool neither loses a request nor lets one
//! commit twice — and one script of driver-level operations leaves both
//! pool handles in the same state.
//!
//! The model mirrors the pool's contract: every pushed id is always in
//! exactly one reachable state — *pending* in the queue, *leased* to at
//! least one live block, or *committed* — and transitions only along
//! pending → leased (drain / peer inclusion) → committed (its block wins)
//! or → pending again (its block is abandoned).

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use banyan_mempool::{
    BatchPolicy, ConcurrentPool, Mempool, ReplicaPool, Request, SharedConcurrentPool,
    SharedMempool, WorkloadBatch,
};
use banyan_types::app::ProposalContext;
use banyan_types::block::Block;
use banyan_types::engine::{CommitEntry, Outbound};
use banyan_types::ids::{BlockHash, Rank, ReplicaId, Round};
use banyan_types::message::{DisseminationMsg, Message, StreamletMsg, SyncMsg};
use banyan_types::payload::PAYLOAD_CHUNK;
use banyan_types::time::Time;

/// One live lease in the model: a block (own proposal drained out of the
/// queue, or a peer's block observed alongside its pending copies) and
/// the request ids it carries.
struct ModelLease {
    round: u64,
    block: BlockHash,
    ids: Vec<u64>,
}

struct Model {
    pending: HashSet<u64>,
    committed: HashSet<u64>,
    leases: Vec<ModelLease>,
    pushed: u64,
}

impl Model {
    /// The model's half of `mark_committed_block`: the winner's ids
    /// commit, and every lease at or below its round releases.
    fn commit(&mut self, idx: usize) {
        let winner = self.leases.remove(idx);
        for id in &winner.ids {
            self.committed.insert(*id);
            self.pending.remove(id);
        }
        let round = winner.round;
        let (doomed, alive): (Vec<ModelLease>, Vec<ModelLease>) = std::mem::take(&mut self.leases)
            .into_iter()
            .partition(|l| l.round <= round);
        self.leases = alive;
        for lease in doomed {
            self.release_ids(lease);
        }
    }

    fn release_ids(&mut self, lease: ModelLease) {
        for id in lease.ids {
            if !self.committed.contains(&id) {
                self.pending.insert(id);
            }
        }
    }
}

fn req(id: u64) -> Request {
    Request {
        id,
        client: (id % 5) as u16,
        size: 100,
        submitted_at: Time(id),
    }
}

fn block_hash(counter: u64) -> BlockHash {
    let mut h = [0u8; 32];
    h[..8].copy_from_slice(&counter.to_le_bytes());
    h[31] = 0xB1;
    BlockHash(h)
}

fn check_invariants(pool: &Mempool, model: &Model) {
    assert_eq!(pool.len(), model.pending.len(), "pending sets agree");
    assert_eq!(pool.live_leases(), model.leases.len(), "lease counts agree");
    for id in 1..=model.pushed {
        assert_eq!(
            pool.is_committed(id),
            model.committed.contains(&id),
            "committed state of {id} agrees"
        );
        let leased = model.leases.iter().any(|l| l.ids.contains(&id));
        assert!(
            model.pending.contains(&id) || leased || model.committed.contains(&id),
            "request {id} was lost: neither pending, leased nor committed"
        );
    }
}

/// What the script observes of a pool afterwards: pending ids (sorted),
/// live leases, and every counter.
type PoolState = (Vec<u64>, usize, [u64; 9]);

fn pool_state(pool: &Mempool, live_leases: usize) -> PoolState {
    let mut pending: Vec<u64> = pool.pending_ids().collect();
    pending.sort_unstable();
    let counters = [
        pool.accepted(),
        pool.evicted(),
        pool.duplicates(),
        pool.forwarded_in(),
        pool.rejected_committed(),
        pool.forward_dropped(),
        pool.peer_sheds(),
        pool.released(),
        pool.deferred(),
    ];
    (pending, live_leases, counters)
}

/// A pool handle under the script. Everything a driver does goes through
/// [`ReplicaPool`]; only a client's local push is the handle's own.
trait Handle: ReplicaPool {
    fn push(&self, req: Request);
    fn state(&self) -> PoolState;
}

impl Handle for SharedMempool {
    fn push(&self, req: Request) {
        self.lock().unwrap().push(req);
    }
    fn state(&self) -> PoolState {
        let pool = self.lock().unwrap();
        pool_state(&pool, pool.live_leases())
    }
}

impl Handle for SharedConcurrentPool {
    fn push(&self, req: Request) {
        assert!(self.ingest().push(req));
        self.sync_ingest();
    }
    fn state(&self) -> PoolState {
        let pool = self.pool();
        pool_state(&pool, pool.live_leases())
    }
}

fn block(round: u64, requests: Vec<Request>) -> Block {
    Block {
        round: Round(round),
        proposer: ReplicaId(0),
        rank: Rank(0),
        parent: BlockHash::ZERO,
        proposed_at: Time(round),
        payload: WorkloadBatch { requests }.into_payload(),
        signature: banyan_crypto::Signature::zero(),
    }
}

/// Applies `ops` to replica 0's `pool` — local pushes, `Forward`s and
/// `Announce`s from peers 1..=3, own proposals going out, catch-up
/// batches coming in, commits, flushes — and returns every frame the
/// flushes emitted plus the pool's final state.
fn run_script<H: Handle>(pool: &H, ops: &[(u8, u8)]) -> (Vec<Outbound>, PoolState) {
    let mut emitted = Vec::new();
    let mut minted = 0u64;
    let mut blocks: Vec<Block> = Vec::new();
    let mut round = 0u64;
    for &(op, arg) in ops {
        let from = ReplicaId(1 + u16::from(arg % 3));
        let arg = u64::from(arg);
        match op {
            0 => {
                minted += 1;
                pool.push(req(minted));
            }
            // Gossip carries one fresh id and one that may already be
            // pending, leased or committed here.
            1 | 2 => {
                minted += 1;
                let requests = vec![req(minted), req(1 + arg % minted)];
                let frame = if op == 1 {
                    DisseminationMsg::Forward { requests }
                } else {
                    DisseminationMsg::Announce { requests }
                };
                pool.intake(from, frame);
            }
            // A block batching up to three minted ids: proposed by this
            // replica, or fetched in a catch-up batch behind the block
            // before it.
            3 | 4 if minted > 0 => {
                round += 1;
                let batched = (0..=arg % 3).map(|k| req(1 + (arg + k) % minted));
                let new = block(round, batched.collect());
                if op == 3 {
                    let proposal = StreamletMsg::Proposal { block: new.clone() };
                    pool.observe_outbound(&Outbound::Broadcast(Message::Streamlet(proposal)));
                } else {
                    let fetched = blocks.last().cloned().into_iter().chain([new.clone()]);
                    let sync = ReplicaId(1);
                    pool.observe_inbound(
                        sync,
                        &Message::Sync(SyncMsg::ResponseBatch {
                            blocks: fetched.collect(),
                            notarizations: vec![],
                        }),
                    );
                }
                blocks.push(new);
            }
            5 if !blocks.is_empty() => {
                let won = blocks.remove(arg as usize % blocks.len());
                let retired = pool.retire(&CommitEntry {
                    round: won.round,
                    block: won.hash(PAYLOAD_CHUNK),
                    proposer: won.proposer,
                    payload: won.payload.clone(),
                    proposed_at: won.proposed_at,
                    committed_at: Time(round),
                    fast: true,
                    explicit: true,
                });
                assert_eq!(retired, WorkloadBatch::decode(&won.payload));
            }
            _ => {
                pool.flush(&mut |out| emitted.push(out));
            }
        }
    }
    pool.flush(&mut |out| emitted.push(out));
    (emitted, pool.state())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One script, both handles: whatever a driver does to a
    /// `SharedMempool` and to a `SharedConcurrentPool` — broadcasting or
    /// with per-peer queues — both emit the same frames and end with the
    /// same pending ids, live leases and counters.
    #[test]
    fn one_script_leaves_both_handles_in_the_same_state(
        ops in proptest::collection::vec((0u8..7, 0u8..8), 1..80)
    ) {
        for peer_queues in [false, true] {
            let build = || {
                let pool = Mempool::new(100_000).with_gossip(true);
                if peer_queues {
                    return pool.with_peer_queues(&[1, 2, 3]);
                }
                pool
            };
            let shared: SharedMempool = Arc::new(Mutex::new(build()));
            let concurrent = ConcurrentPool::new(build(), 1_024);
            let (shared_out, shared_state) = run_script(&shared, &ops);
            let (concurrent_out, concurrent_state) = run_script(&concurrent, &ops);
            prop_assert_eq!(&shared_out, &concurrent_out);
            prop_assert_eq!(&shared_state, &concurrent_state);
            // The script really gossips in both shapes.
            let broadcast = shared_out.iter().any(|out| matches!(out, Outbound::Broadcast(_)));
            prop_assert!(shared_out.is_empty() || broadcast != peer_queues);
        }
    }

    /// Interleaved push / drain / observe / commit / release
    /// never loses a request and never commits one twice.
    #[test]
    fn lease_lifecycle_never_loses_or_double_commits(
        ops in proptest::collection::vec((0u8..5, 0u8..8), 1..100)
    ) {
        let mut pool = Mempool::new(100_000);
        let mut model = Model {
            pending: HashSet::new(),
            committed: HashSet::new(),
            leases: Vec::new(),
            pushed: 0,
        };
        let mut round = 0u64;
        let mut blocks = 0u64;

        for (op, arg) in ops {
            match op {
                // Push a burst of fresh requests.
                0 => {
                    for _ in 0..=arg {
                        model.pushed += 1;
                        pool.push(req(model.pushed));
                        model.pending.insert(model.pushed);
                    }
                }
                // Speculative drain into a new own block, excluding every
                // live lease (they are all "ancestors" of our proposal).
                1 => {
                    let ancestors: Vec<BlockHash> =
                        model.leases.iter().map(|l| l.block).collect();
                    let ctx = ProposalContext {
                        round: Round(round + 1),
                        now: Time(round),
                        parent: ancestors.first().copied().unwrap_or(BlockHash::ZERO),
                        ancestors,
                    };
                    let out = pool.drain_speculative(
                        usize::from(arg) + 1,
                        u64::MAX,
                        &ctx,
                        &BatchPolicy::EAGER,
                    );
                    for r in &out {
                        prop_assert!(!model.committed.contains(&r.id),
                            "drained a committed id");
                        prop_assert!(
                            !model.leases.iter().any(|l| l.ids.contains(&r.id)),
                            "drained an ancestor-leased id"
                        );
                    }
                    if !out.is_empty() {
                        round += 1;
                        blocks += 1;
                        let hash = block_hash(blocks);
                        let ids: Vec<u64> = out.iter().map(|r| r.id).collect();
                        pool.observe_block(hash, Round(round), BlockHash::ZERO, out);
                        for id in &ids {
                            model.pending.remove(id);
                        }
                        model.leases.push(ModelLease { round, block: hash, ids });
                    }
                }
                // Observe a peer's block carrying some currently pending
                // requests (their pending copies stay in the queue).
                2 => {
                    let mut ids: Vec<u64> = model.pending.iter().copied().collect();
                    ids.sort_unstable();
                    ids.truncate(usize::from(arg));
                    if !ids.is_empty() {
                        round += 1;
                        blocks += 1;
                        let hash = block_hash(blocks);
                        pool.observe_block(
                            hash,
                            Round(round),
                            BlockHash::ZERO,
                            ids.iter().map(|&id| req(id)).collect(),
                        );
                        model.leases.push(ModelLease { round, block: hash, ids });
                    }
                }
                // Commit a live lease's block.
                3 => {
                    if !model.leases.is_empty() {
                        let idx = usize::from(arg) % model.leases.len();
                        let (block, r, ids) = {
                            let l = &model.leases[idx];
                            (l.block, l.round, l.ids.clone())
                        };
                        let requests: Vec<Request> =
                            ids.iter().map(|&id| req(id)).collect();
                        pool.mark_committed_block(block, Round(r), &requests);
                        model.commit(idx);
                    }
                }
                // Explicitly release (abandon) a live lease's block.
                _ => {
                    if !model.leases.is_empty() {
                        let idx = usize::from(arg) % model.leases.len();
                        let lease = model.leases.remove(idx);
                        pool.release(lease.block);
                        model.release_ids(lease);
                    }
                }
            }
            check_invariants(&pool, &model);
        }

        // Terminal drain: committing every remaining lease then draining
        // the queue accounts for every id ever pushed, exactly once.
        while !model.leases.is_empty() {
            let (block, r, ids) = {
                let l = &model.leases[0];
                (l.block, l.round, l.ids.clone())
            };
            let requests: Vec<Request> = ids.iter().map(|&id| req(id)).collect();
            pool.mark_committed_block(block, Round(r), &requests);
            model.commit(0);
            check_invariants(&pool, &model);
        }
        let rest = pool.drain_speculative(
            usize::MAX,
            u64::MAX,
            &ProposalContext::root(Round(0), Time(round)),
            &BatchPolicy::EAGER,
        );
        let drained: HashSet<u64> = rest.iter().map(|r| r.id).collect();
        prop_assert_eq!(drained.len(), rest.len(), "no id drains twice");
        for id in 1..=model.pushed {
            let committed = model.committed.contains(&id);
            prop_assert!(
                committed ^ drained.contains(&id),
                "id {} must end exactly once: committed {} drained {}",
                id, committed, drained.contains(&id)
            );
        }
    }
}
