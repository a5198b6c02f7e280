//! Contended-ingest loopback test: N producer threads blast pushes and
//! forwards through cloned [`PoolIngest`] handles while a drainer thread
//! concurrently drains batches. Every request that was accepted into the
//! channel must come out of a drain exactly once — no loss, no
//! duplication — regardless of thread interleaving.

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;

use banyan_mempool::{BatchPolicy, ConcurrentPool, Mempool, ReplicaPool, Request};
use banyan_types::app::ProposalContext;
use banyan_types::ids::{ReplicaId, Round};
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
                    // Alternate local pushes and gossip-style forwards.
                    let ok = if id.is_multiple_of(2) {
                        ingest.push(req(id))
                    } else {
                        ingest.forward(ReplicaId(p as u16), req(id))
                    };
                    assert!(ok, "ingest channel sized for the whole workload");
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
                let out = pool.next_batch(
                    512,
                    u64::MAX,
                    &ProposalContext::root(Round(1), Time(1)),
                    &BatchPolicy::EAGER,
                );
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
