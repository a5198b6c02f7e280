//! The concurrent pool under real threads.
//!
//! Contended ingest: N producer threads blast pushes through cloned
//! [`PoolIngest`] handles while a drainer thread concurrently drains
//! batches. Every request that was accepted into the channel must come
//! out of a drain exactly once — no loss, no duplication — regardless of
//! thread interleaving.
//!
//! The whole lease lifecycle: producers, two observers
//! leasing blocks, a proposer draining on top of them and a committer
//! retiring them all share the one lock, and every request stays
//! accounted for.

use std::collections::HashSet;
use std::sync::{mpsc, Arc, Barrier};
use std::thread;

use banyan_mempool::{
    BatchPolicy, ConcurrentPool, Mempool, ReplicaPool, Request, SharedConcurrentPool, WorkloadBatch,
};
use banyan_types::app::ProposalContext;
use banyan_types::engine::CommitEntry;
use banyan_types::ids::{BlockHash, ReplicaId, Round};
use banyan_types::time::Time;

fn req(id: u64) -> Request {
    Request {
        id,
        client: (id % 13) as u16,
        size: 64,
        submitted_at: Time(id),
    }
}

#[test]
fn contended_ingest_loses_and_duplicates_nothing() {
    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 5_000;
    let total = PRODUCERS * PER_PRODUCER;

    // Capacity and ingest cap comfortably above the workload: every send
    // that the channel accepts must surface in a drain.
    let pool = ConcurrentPool::new(Mempool::new(2 * total as usize), 2 * total as usize);

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let ingest = pool.ingest();
            thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let id = p * PER_PRODUCER + i + 1;
                    assert!(
                        ingest.push(req(id)),
                        "ingest channel sized for the whole workload"
                    );
                }
            })
        })
        .collect();

    // The drainer races the producers: drain mid-stream, then join and
    // drain the remainder.
    let drainer = {
        let pool = Arc::clone(&pool);
        thread::spawn(move || {
            let mut got: Vec<Request> = Vec::new();
            let mut spins = 0u32;
            while got.len() < total as usize && spins < 1_000_000 {
                let ctx = ProposalContext::root(Round(1), Time(1));
                let eager = &BatchPolicy::EAGER;
                let out = pool.with_pool(|p| p.drain_speculative(512, u64::MAX, &ctx, eager));
                if out.is_empty() {
                    spins += 1;
                    thread::yield_now();
                } else {
                    got.extend(out);
                }
            }
            got
        })
    };

    for p in producers {
        p.join().unwrap();
    }
    let got = drainer.join().unwrap();

    assert_eq!(pool.ingest_dropped(), 0, "channel never overflowed");
    assert_eq!(got.len(), total as usize, "no request lost");
    let unique: HashSet<u64> = got.iter().map(|r| r.id).collect();
    assert_eq!(unique.len(), got.len(), "no request drained twice");
    assert!(pool.is_empty(), "everything drained");
    // Requests come out with their original identity intact.
    for r in &got {
        assert_eq!(r.submitted_at, Time(r.id));
        assert_eq!(r.size, 64);
    }
}

/// The id of block `n` of `kind` (1 = a round's winner, 2 = its loser,
/// 3 = one of the proposer's own).
fn block_id(kind: u8, n: u64) -> BlockHash {
    let mut h = [0u8; 32];
    h[0] = kind;
    h[8..16].copy_from_slice(&n.to_le_bytes());
    BlockHash(h)
}

/// Leases `block` (of `round`, extending `parent`) to `requests` under the
/// pool's lock: lease observation once the batch is decoded and the block
/// id known.
fn lease(
    pool: &SharedConcurrentPool,
    block: BlockHash,
    round: Round,
    parent: BlockHash,
    requests: Vec<Request>,
) -> bool {
    pool.with_pool(|p| p.observe_block(block, round, parent, requests))
}

/// Producers push through [`PoolIngest`](banyan_mempool::PoolIngest); two
/// observer threads lease blocks batching those ids (one the winner of
/// each round, one its loser); a proposer drains on top of the winners it
/// has been shown and leases what it drained as its own block; a
/// committer retires the winners.
/// The hand-offs force the order a replica sees — a block is observed
/// before it is built on, and built on before it commits — and leave
/// everything else to the scheduler.
#[test]
fn lease_lifecycle_under_threads_accounts_for_every_request() {
    const IDS: u64 = 4_000;
    const ROUNDS: u64 = 40;
    const PER_BLOCK: u64 = 25;
    const COMMIT_LAG: usize = 3;

    // A lease observed through the handle lands in the table `pool()`
    // shows.
    let probe = ConcurrentPool::new(Mempool::new(8), 8);
    assert!(lease(
        &probe,
        block_id(1, 0),
        Round(1),
        BlockHash::ZERO,
        vec![req(1)]
    ));
    assert_eq!(probe.pool().live_leases(), 1);

    // Winner `j` batches ids `j*25+1 ..= (j+1)*25`, loser `j` the same
    // slice of the next thousand; ids above 2 000 are in no peer block.
    let batched = |kind: u64, j: u64| -> Vec<Request> {
        let base = (kind - 1) * ROUNDS * PER_BLOCK + j * PER_BLOCK;
        (base + 1..=base + PER_BLOCK).map(req).collect()
    };
    let pool = ConcurrentPool::new(Mempool::new(2 * IDS as usize), 2 * IDS as usize);
    let start = Barrier::new(6);
    let (observed_tx, observed_rx) = mpsc::channel::<u64>();
    let (built_on_tx, built_on_rx) = mpsc::channel::<u64>();

    let (own_blocks, committed) = thread::scope(|s| {
        for p in 0..2 {
            let (ingest, start) = (pool.ingest(), &start);
            s.spawn(move || {
                start.wait();
                for id in (1..=IDS).filter(|id| id % 2 == p) {
                    assert!(ingest.push(req(id)), "channel sized for every id");
                }
            });
        }
        // Observer: each round's winner, announced once leased.
        s.spawn(|| {
            start.wait();
            for j in 0..ROUNDS {
                let requests = batched(1, j);
                assert!(lease(
                    &pool,
                    block_id(1, j),
                    Round(j + 1),
                    BlockHash::ZERO,
                    requests
                ));
                observed_tx.send(j).unwrap();
            }
            drop(observed_tx);
        });
        // Observer: each round's loser, racing the commits that release
        // it.
        s.spawn(|| {
            start.wait();
            for j in 0..ROUNDS {
                lease(
                    &pool,
                    block_id(2, j),
                    Round(j + 1),
                    BlockHash::ZERO,
                    batched(2, j),
                );
            }
        });
        // Proposer: one drain per winner shown to it, on top of every
        // winner not yet passed on to commit.
        let proposer = s.spawn(|| {
            start.wait();
            let mut ancestors: Vec<u64> = Vec::new();
            let mut own = 0u64;
            for j in observed_rx {
                ancestors.push(j);
                let ctx = ProposalContext {
                    round: Round(j + 2),
                    now: Time(j),
                    parent: block_id(1, j),
                    ancestors: ancestors.iter().rev().map(|&a| block_id(1, a)).collect(),
                };
                let eager = &BatchPolicy::EAGER;
                let drained = pool.with_pool(|p| p.drain_speculative(64, u64::MAX, &ctx, eager));
                for r in &drained {
                    let leased_to = (r.id - 1) / PER_BLOCK;
                    assert!(
                        r.id > ROUNDS * PER_BLOCK || !ancestors.contains(&leased_to),
                        "drained {} while leased to ancestor {leased_to}",
                        r.id
                    );
                }
                // Own proposals sit above every round that commits here,
                // so their leases outlive the run.
                if lease(
                    &pool,
                    block_id(3, own),
                    Round(1_000_000 + own),
                    ctx.parent,
                    drained,
                ) {
                    own += 1;
                }
                if ancestors.len() > COMMIT_LAG {
                    built_on_tx.send(ancestors.remove(0)).unwrap();
                }
            }
            for j in ancestors {
                built_on_tx.send(j).unwrap();
            }
            drop(built_on_tx);
            own
        });
        let committer = s.spawn(|| {
            start.wait();
            let mut committed = HashSet::new();
            for j in built_on_rx {
                let requests = batched(1, j);
                let retired = pool.retire(&CommitEntry {
                    round: Round(j + 1),
                    block: block_id(1, j),
                    proposer: ReplicaId(0),
                    payload: WorkloadBatch { requests }.into_payload(),
                    proposed_at: Time(j),
                    committed_at: Time(j),
                    fast: true,
                    explicit: true,
                });
                committed.extend(retired.expect("a batch").requests.iter().map(|r| r.id));
            }
            committed
        });
        (proposer.join().unwrap(), committer.join().unwrap())
    });

    assert_eq!(pool.ingest_dropped(), 0);
    pool.sync_ingest();
    let pool = pool.pool();
    let winners: HashSet<u64> = (1..=ROUNDS * PER_BLOCK).collect();
    assert_eq!(committed, winners, "every winner committed, nothing else");
    let pending: HashSet<u64> = pool.pending_ids().collect();
    let blocks = (0..ROUNDS)
        .flat_map(|j| [block_id(1, j), block_id(2, j)])
        .chain((0..own_blocks).map(|k| block_id(3, k)));
    let leases: Vec<&[Request]> = blocks.filter_map(|b| pool.lease(&b)).collect();
    assert_eq!(
        leases.len(),
        pool.live_leases(),
        "every live lease is a known block's"
    );
    assert!(pool.live_leases() >= own_blocks as usize);
    let leased: HashSet<u64> = leases.iter().flat_map(|l| l.iter().map(|r| r.id)).collect();
    for id in 1..=IDS {
        let is_committed = pool.is_committed(id);
        assert_eq!(
            is_committed,
            committed.contains(&id),
            "commit state of {id}"
        );
        assert!(
            !(is_committed && pending.contains(&id)),
            "{id} is committed and still pending"
        );
        assert!(
            is_committed || pending.contains(&id) || leased.contains(&id),
            "{id} was lost: neither committed, pending nor leased"
        );
    }
}
