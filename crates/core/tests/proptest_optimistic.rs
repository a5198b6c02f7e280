//! Property tests of optimistic proposal pipelining (Moonshot-style):
//! under randomized crash schedules, partition windows and delivery
//! seeds with optimism ON, no two honest replicas finalize conflicting
//! blocks, no request ever appears twice in a replica's committed chain,
//! and — model-checked against the PR 5 lease lifecycle model — the
//! requests of an *abandoned optimistic block* re-enter the pending
//! queue exactly once, whether the eager certificate-conflict sweep or
//! the round-horizon release returns them.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use banyan_core::builder::ClusterBuilder;
use banyan_mempool::{
    BatchPolicy, Mempool, MempoolSource, Request, SharedMempool, WorkloadBatch, DEFAULT_MAX_BATCH,
};
use banyan_simnet::faults::FaultPlan;
use banyan_simnet::sim::{SimConfig, Simulation};
use banyan_simnet::topology::Topology;
use banyan_types::app::ProposalContext;
use banyan_types::ids::{BlockHash, ReplicaId, Round};
use banyan_types::time::{Duration, Time};

// ---------------------------------------------------------------------
// Part 1 — whole-cluster safety under randomized faults with optimism on.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct OptimisticPlan {
    /// (replica, crash time ms) pairs, deduped per replica.
    crashes: Vec<(u16, u64)>,
    /// Optional partition: (split point, start ms, duration ms). The
    /// cluster splits `[0, split)` vs `[split, n)` and always heals.
    partition: Option<(u16, u64, u64)>,
    seed: u64,
}

fn arb_plan(n: u16, max_crashes: usize) -> impl Strategy<Value = OptimisticPlan> {
    (
        proptest::collection::vec((0..n, 0u64..4_000), 0..=max_crashes),
        proptest::option::of((1..n, 0u64..3_000, 100u64..1_500)),
        any::<u64>(),
    )
        .prop_map(|(mut crashes, partition, seed)| {
            crashes.sort();
            crashes.dedup_by_key(|(r, _)| *r);
            OptimisticPlan {
                crashes,
                partition,
                seed,
            }
        })
}

fn req(id: u64) -> Request {
    Request {
        id,
        client: (id % 5) as u16,
        size: 100,
        submitted_at: Time(id),
    }
}

/// Runs an n-replica optimistic ICC cluster (the only protocol that
/// pipelines) where every replica carries its own disjoint batch of
/// requests (gossip off — each id has exactly one possible proposer),
/// under the plan's crashes and partition window.
fn run_optimistic(n: usize, f: usize, plan: &OptimisticPlan) -> Simulation {
    let pools: Vec<SharedMempool> = (0..n)
        .map(|i| {
            let mut pool = Mempool::new(100_000);
            for id in 1..=40u64 {
                pool.push(req(i as u64 * 1_000 + id));
            }
            Arc::new(Mutex::new(pool))
        })
        .collect();
    let sources = pools;
    let engines = ClusterBuilder::new(n, f, 1)
        .unwrap()
        .delta(Duration::from_millis(10))
        .proposal_sources(move |i| {
            Box::new(MempoolSource::new(
                sources[i as usize].clone(),
                DEFAULT_MAX_BATCH,
            ))
        })
        .optimistic()
        .build("icc");
    let mut faults = FaultPlan::none();
    for (replica, ms) in &plan.crashes {
        faults = faults.crash(
            ReplicaId(*replica),
            Time(Duration::from_millis(*ms).as_nanos()),
        );
    }
    if let Some((split, start, len)) = plan.partition {
        faults = faults.partition(
            (0..split).map(ReplicaId).collect(),
            (split..n as u16).map(ReplicaId).collect(),
            Time(Duration::from_millis(start).as_nanos()),
            Time(Duration::from_millis(start + len).as_nanos()),
        );
    }
    let topo = Topology::uniform(n, Duration::from_millis(5));
    let mut sim = Simulation::new(topo, engines, faults, SimConfig::with_seed(plan.seed));
    sim.run_until(Time(Duration::from_secs(8).as_nanos()));
    sim
}

/// Every request id in every replica's committed chain, with the claim
/// that none repeats: an abandoned optimistic block's requests must
/// re-enter pending and commit through exactly one later block.
fn assert_no_chain_duplicates(sim: &Simulation) {
    let mut per_replica: HashMap<ReplicaId, HashSet<u64>> = HashMap::new();
    for c in &sim.metrics().commits {
        let seen = per_replica.entry(c.replica).or_default();
        if let Some(batch) = WorkloadBatch::decode(&c.entry.payload) {
            for r in batch.requests {
                assert!(
                    seen.insert(r.id),
                    "request {} committed twice in replica {}'s chain",
                    r.id,
                    c.replica.0
                );
            }
        }
    }
}

proptest! {
    // Each case simulates 8 s of protocol time.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// n = 4, f = 1 with optimism on: any single crash, any partition
    /// window, any seed — agreement holds, the chain carries each
    /// request at most once, and (the partition having healed) the
    /// cluster keeps committing despite abandoned optimistic parents.
    #[test]
    fn optimistic_pipelining_is_safe_under_random_faults(plan in arb_plan(4, 1)) {
        let sim = run_optimistic(4, 1, &plan);
        prop_assert!(
            sim.auditor().is_safe(),
            "{:?} under {plan:?}",
            sim.auditor().violations()
        );
        assert_no_chain_duplicates(&sim);
        prop_assert!(
            sim.auditor().committed_rounds() > 20,
            "only {} rounds under {plan:?}",
            sim.auditor().committed_rounds()
        );
    }

    /// Safety must hold even past the fault bound (liveness may not).
    #[test]
    fn optimistic_safety_beyond_the_fault_bound(plan in arb_plan(4, 3)) {
        let sim = run_optimistic(4, 1, &plan);
        prop_assert!(sim.auditor().is_safe(), "{:?}", sim.auditor().violations());
        assert_no_chain_duplicates(&sim);
    }
}

// ---------------------------------------------------------------------
// Part 2 — the abandoned-block release, model-checked against the PR 5
// lease lifecycle model extended with optimistic parent provenance.
// ---------------------------------------------------------------------

/// One live lease in the model: its round, block, carried ids, and — for
/// optimistic blocks — the parent link that makes it eligible for the
/// eager certificate-conflict release.
struct ModelLease {
    round: u64,
    block: BlockHash,
    ids: Vec<u64>,
    parent: Option<BlockHash>,
}

struct Model {
    pending: HashSet<u64>,
    committed: HashSet<u64>,
    leases: Vec<ModelLease>,
    pushed: u64,
    /// Requests actually re-pended by releases — must equal the pool's
    /// `released()` counter, which is how "exactly once" is pinned: a
    /// second re-entry of the same id would bump the pool counter past
    /// the model's.
    released: u64,
}

impl Model {
    /// The model's half of `mark_committed_block`: the winner's ids
    /// commit; round-`r+1` leases whose optimistic parent is a live
    /// round-≤-`r` block other than the winner release eagerly (the
    /// fork they extend just died); then every lease at or below `r`
    /// releases.
    fn commit(&mut self, idx: usize) {
        let winner = self.leases.remove(idx);
        for id in &winner.ids {
            self.committed.insert(*id);
            self.pending.remove(id);
        }
        let r = winner.round;
        let known: HashMap<BlockHash, u64> =
            self.leases.iter().map(|l| (l.block, l.round)).collect();
        let (conflicting, rest): (Vec<ModelLease>, Vec<ModelLease>) =
            std::mem::take(&mut self.leases).into_iter().partition(|l| {
                l.round == r + 1
                    && l.parent.is_some_and(|p| {
                        p != winner.block && known.get(&p).is_some_and(|pr| *pr <= r)
                    })
            });
        let (doomed, alive): (Vec<ModelLease>, Vec<ModelLease>) =
            rest.into_iter().partition(|l| l.round <= r);
        self.leases = alive;
        // Mirror the pool: the round-horizon sweep re-pends first, the
        // eagerly released conflict children after.
        for lease in doomed {
            self.release_ids(lease);
        }
        for lease in conflicting {
            self.release_ids(lease);
        }
    }

    fn release_ids(&mut self, lease: ModelLease) {
        for id in lease.ids {
            if !self.committed.contains(&id) && self.pending.insert(id) {
                self.released += 1;
            }
        }
    }
}

fn block_hash(counter: u64) -> BlockHash {
    let mut h = [0u8; 32];
    h[..8].copy_from_slice(&counter.to_le_bytes());
    h[31] = 0xB2;
    BlockHash(h)
}

fn check_invariants(pool: &Mempool, model: &Model) {
    assert_eq!(pool.len(), model.pending.len(), "pending sets agree");
    assert_eq!(pool.live_leases(), model.leases.len(), "lease counts agree");
    assert_eq!(
        pool.released(),
        model.released,
        "a released request re-entered pending other than exactly once"
    );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interleaved push / drain / observe / *optimistic-child drain* /
    /// commit / release: the pool and the provenance-extended model
    /// agree at every step, so an abandoned optimistic block's requests
    /// re-enter pending exactly once — through the eager conflict sweep
    /// when the parent fork dies, or the round horizon otherwise —
    /// and nothing is lost or doubly committed.
    #[test]
    fn optimistic_release_matches_the_lease_model(
        ops in proptest::collection::vec((0u8..6, 0u8..8), 1..100)
    ) {
        let mut pool = Mempool::new(100_000);
        let mut model = Model {
            pending: HashSet::new(),
            committed: HashSet::new(),
            leases: Vec::new(),
            pushed: 0,
            released: 0,
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
                // Speculative drain into a new own block on a *certified*
                // parent (recorded as genesis: nobody leases it, so the
                // conflict release never fires), excluding live leases.
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
                    if !out.is_empty() {
                        round += 1;
                        blocks += 1;
                        let hash = block_hash(blocks);
                        let ids: Vec<u64> = out.iter().map(|r| r.id).collect();
                        pool.observe_block(hash, Round(round), BlockHash::ZERO, out);
                        for id in &ids {
                            model.pending.remove(id);
                        }
                        model.leases.push(ModelLease {
                            round,
                            block: hash,
                            ids,
                            parent: None,
                        });
                    }
                }
                // Observe a peer's block (genesis parent) carrying pending ids;
                // the pending copies stay in the queue.
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
                        model.leases.push(ModelLease {
                            round,
                            block: hash,
                            ids,
                            parent: None,
                        });
                    }
                }
                // Drain an *optimistic* own block extending a live lease's
                // still-uncertified block: the lease names that parent,
                // one round above it.
                3 => {
                    if !model.leases.is_empty() {
                        let (parent_block, parent_round) = {
                            let p = &model.leases[usize::from(arg) % model.leases.len()];
                            (p.block, p.round)
                        };
                        let ancestors: Vec<BlockHash> =
                            model.leases.iter().map(|l| l.block).collect();
                        let ctx = ProposalContext {
                            round: Round(parent_round + 1),
                            now: Time(round),
                            parent: parent_block,
                            ancestors,
                        };
                        let out = pool.drain_speculative(
                            usize::from(arg) + 1,
                            u64::MAX,
                            &ctx,
                            &BatchPolicy::EAGER,
                        );
                        if !out.is_empty() {
                            blocks += 1;
                            let hash = block_hash(blocks);
                            let ids: Vec<u64> = out.iter().map(|r| r.id).collect();
                            pool.observe_block(
                                hash,
                                Round(parent_round + 1),
                                parent_block,
                                out,
                            );
                            for id in &ids {
                                model.pending.remove(id);
                            }
                            model.leases.push(ModelLease {
                                round: parent_round + 1,
                                block: hash,
                                ids,
                                parent: Some(parent_block),
                            });
                        }
                    }
                }
                // Commit a live lease's block: winner's ids commit, the
                // eager conflict sweep and the round horizon release the
                // losers.
                4 => {
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

        // Terminal sweep: committing every remaining lease accounts for
        // every id ever pushed exactly once.
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
        for id in 1..=model.pushed {
            prop_assert!(
                model.committed.contains(&id) || model.pending.contains(&id),
                "request {id} vanished by the end of the run"
            );
        }
    }
}
