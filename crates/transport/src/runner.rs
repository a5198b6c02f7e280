//! The public entry points of the TCP runner: drive one [`Engine`] over
//! real sockets.
//!
//! All of them are thin calls into the one event loop in `crate::replica`
//! (see its docs for the thread layout). Time is wall-clock nanoseconds
//! since the run started, so the engine sees the same `Time` type as under
//! simulation. The engines themselves are identical — that is the point:
//! `banyan-simnet` results transfer to real sockets.
//!
//! # Request dissemination
//!
//! [`run_replica_full`] attaches a [`SharedMempool`] through the
//! `banyan_mempool::ReplicaPool` operations the simulator uses: inbound
//! `Forward`/`Announce` frames feed the pool (never the engine), its
//! queued gossip goes out on every step, and each finalized block is
//! retired in the pool before it reaches the [`App`] (the exactly-once
//! dedup rule; see `banyan_mempool`).
//!
//! # Crash recovery
//!
//! [`run_replica_restarting`] runs the same loop through the crash and
//! rejoin of a [`TcpRestart`] plan, both `banyan_runtime::Replica`'s, as
//! in the simulator: down, the engine and its timers are gone and
//! inbound frames are read and dropped; at rejoin the plan's `rebuild`
//! (for the chained engines, over the reopened `WalStore`) restores the
//! durable frontier, and catch-up probes peers and pulls the missing
//! certified chain over `SyncMsg::RequestRange`.

use std::net::{SocketAddr, TcpListener};
use std::thread;

use banyan_mempool::SharedMempool;
use banyan_types::app::{App, NullApp};
use banyan_types::engine::{CommitEntry, Engine};

use crate::replica;

/// Everything a finished run reports.
#[derive(Debug, Default)]
pub struct TcpRunReport {
    /// Commits in order, as emitted by the engine.
    pub commits: Vec<CommitEntry>,
    /// Messages received off the wire.
    pub messages_received: u64,
    /// Messages sent (per-peer copies counted individually): frames a
    /// peer's outbound backlog accepted. One a full backlog refused is
    /// counted in `frames_refused` instead.
    pub messages_sent: u64,
    /// Frames a full outbound backlog refused (per-peer copies counted
    /// individually): dropped, as on any wire, and not sent.
    pub frames_refused: u64,
    /// Timers dropped by the shared driver as stale (diagnostic).
    pub stale_timers_dropped: u64,
    /// Catch-up probes/fetches this replica issued after rejoining.
    pub sync_requests: u64,
    /// Blocks this replica served to others over `ResponseBatch`.
    pub sync_blocks_served: u64,
    /// Wall-clock milliseconds from rejoin until catch-up finished.
    pub restart_recovery_ms: u64,
    /// Bytes in the engine's write-ahead log at shutdown (0 for
    /// in-memory stores and non-chained engines).
    pub wal_bytes: u64,
    /// Individual signatures the replica's engine checked.
    pub sigs_verified: u64,
    /// Batched verification calls issued (each covering ≥ 2 signatures).
    pub verify_batches: u64,
    /// Certificate verifications answered from the bounded LRU cache.
    pub cert_cache_hits: u64,
    /// Wall-clock CPU milliseconds spent inside verification calls.
    pub verify_cpu_ms: u64,
}

/// A mid-run crash/rejoin cycle for [`run_replica_restarting`].
pub struct TcpRestart {
    /// Wall-clock offset from start at which the replica crashes.
    pub crash_after: std::time::Duration,
    /// Wall-clock offset at which it rejoins (must exceed `crash_after`).
    pub rejoin_after: std::time::Duration,
    /// Rebuilds the engine from durable state only — for the chained
    /// engines, by reopening the same `WalStore` directory so replay
    /// recovers the persisted frontier. Called exactly once, at rejoin.
    pub rebuild: Box<dyn FnOnce() -> Box<dyn Engine> + Send>,
}

/// Runs `engine` over TCP for `run_for` (wall time from start),
/// delivering every finalized block to `app` as it commits.
///
/// `listen` is this replica's bind address; `peers[i]` the address of
/// replica `i` (our own slot is ignored). All replicas must use the same
/// ordering. Connections are one-directional: we dial every peer for
/// sending and accept every peer for receiving.
///
/// With `pool` provided the request-dissemination layer is wired in:
/// inbound `Forward`/`Announce` frames feed the pool, the pool's queued
/// gossip (requests pushed locally, e.g. by a client front-end thread,
/// and relays if it has per-peer queues) goes out to its peers, and
/// commits mark their batched ids committed for exactly-once dedup. The
/// engine's `MempoolSource` should share the same pool handle.
///
/// # Errors
///
/// Returns an I/O error if binding fails.
pub fn run_replica_full(
    engine: Box<dyn Engine>,
    app: impl App + 'static,
    pool: Option<SharedMempool>,
    listen: SocketAddr,
    peers: Vec<SocketAddr>,
    run_for: std::time::Duration,
) -> std::io::Result<TcpRunReport> {
    run_replica_restarting(engine, app, pool, listen, peers, run_for, None)
}

/// Like [`run_replica_full`], optionally crashing and rejoining mid-run
/// (see [`TcpRestart`] and the module docs' *Crash recovery* section).
/// With `restart: None` the behavior is identical to `run_replica_full`.
///
/// # Errors
///
/// Returns an I/O error if binding fails.
pub fn run_replica_restarting(
    engine: Box<dyn Engine>,
    app: impl App + 'static,
    pool: Option<SharedMempool>,
    listen: SocketAddr,
    peers: Vec<SocketAddr>,
    run_for: std::time::Duration,
    restart: Option<TcpRestart>,
) -> std::io::Result<TcpRunReport> {
    let listener = TcpListener::bind(listen)?;
    replica::run(engine, app, pool, listener, peers, run_for, restart)
}

/// Runs one replica thread per engine on localhost and returns what each
/// `run(i, engine, listener, peers)` returned, in replica order. Ports
/// are allocated by the OS, and each replica is handed the listener
/// bound to its own, so no other process can take it first.
///
/// # Panics
///
/// Panics if a replica thread panics or a socket operation fails.
pub(crate) fn run_local<R: Send>(
    engines: Vec<Box<dyn Engine>>,
    run: impl Fn(usize, Box<dyn Engine>, TcpListener, Vec<SocketAddr>) -> R + Sync,
) -> Vec<R> {
    let listeners: Vec<TcpListener> = (0..engines.len())
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect();

    thread::scope(|s| {
        let handles: Vec<_> = engines
            .into_iter()
            .zip(listeners)
            .enumerate()
            .map(|(i, (engine, listener))| {
                let (run, addrs) = (&run, addrs.clone());
                s.spawn(move || run(i, engine, listener, addrs))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replica thread"))
            .collect()
    })
}

/// Runs a whole cluster on localhost, one thread per replica, and returns
/// each replica's report. Ports are allocated by the OS.
///
/// # Panics
///
/// Panics if any replica thread panics or a socket operation fails.
pub fn run_local_cluster(
    engines: Vec<Box<dyn Engine>>,
    run_for: std::time::Duration,
) -> Vec<TcpRunReport> {
    run_local(engines, |_, engine, listener, peers| {
        let pool = None::<SharedMempool>;
        replica::run(engine, NullApp, pool, listener, peers, run_for, None).expect("replica run")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::tests::LocalNet;
    use banyan_core::builder::ClusterBuilder;
    use banyan_types::time::Duration as BDuration;

    /// The cluster tests' network: 5 ms links, a tenth of their Δ.
    const NET: LocalNet = LocalNet {
        seed: 0xC1A5,
        delay: BDuration::from_millis(5),
    };

    /// A cluster without pools or restarts on [`NET`] for `secs` seconds.
    fn run_net(engines: Vec<Box<dyn Engine>>, secs: u64) -> Vec<TcpRunReport> {
        let no_pool = |_| None::<SharedMempool>;
        NET.run(engines, BDuration::from_secs(secs), no_pool, |_| None)
    }

    #[test]
    fn banyan_cluster_over_loopback_commits_and_agrees() {
        let engines = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .delta(BDuration::from_millis(50))
            .payload_size(512)
            .build_banyan();
        let reports = run_net(engines, 3);
        // Every replica commits something.
        for (i, r) in reports.iter().enumerate() {
            assert!(
                r.commits.len() > 3,
                "replica {i} committed only {} blocks",
                r.commits.len()
            );
        }
        // Cross-replica agreement per round.
        let mut canonical = std::collections::HashMap::new();
        for r in &reports {
            for c in &r.commits {
                let prev = canonical.insert(c.round, c.block);
                if let Some(prev) = prev {
                    assert_eq!(prev, c.block, "disagreement at round {}", c.round);
                }
            }
        }
    }

    /// Broadcast gossip, then per-peer queues with each replica fanning
    /// out to its two ring successors — where replica 3 hears of a
    /// request pushed at replica 0 only if replica 1 or 2 relays it.
    #[test]
    fn gossiped_requests_reach_every_pool_and_commit() {
        for peer_queues in [false, true] {
            gossiped_requests_reach_every_pool(peer_queues);
        }
    }

    fn gossiped_requests_reach_every_pool(peer_queues: bool) {
        use banyan_mempool::{Mempool, MempoolSource, Request, WorkloadBatch};
        use banyan_types::time::Time as BTime;
        use std::sync::{Arc, Mutex};

        let n = 4;
        let pools: Vec<SharedMempool> = (0..n)
            .map(|i| {
                let pool = Mempool::new(1_024).with_gossip(true);
                Arc::new(Mutex::new(if peer_queues {
                    pool.with_peer_queues(&[(i + 1) % n, (i + 2) % n])
                } else {
                    pool
                }))
            })
            .collect();
        let sources = pools.clone();
        let engines = ClusterBuilder::new(n, 1, 1)
            .unwrap()
            .delta(BDuration::from_millis(50))
            .proposal_sources(move |i| {
                Box::new(MempoolSource::new(sources[i as usize].clone(), 64))
            })
            .build_banyan();

        // All requests enter at replica 0 only; gossip must carry them to
        // every other pool so any leader can batch them.
        let ids: Vec<u64> = (1..=24).collect();
        {
            let mut pool = pools[0].lock().unwrap();
            for &id in &ids {
                pool.push(Request {
                    id,
                    client: (id % 4) as u16,
                    size: 64,
                    submitted_at: BTime::ZERO,
                });
            }
        }

        let run_for = BDuration::from_secs(3);
        let reports = NET.run(engines, run_for, |i| Some(pools[i].clone()), |_| None);

        // Every peer pool saw the forwarded copies arrive. On a real wire
        // a quorum that excludes a slow-to-connect peer can commit the
        // batch before the Forward frame lands there; the pool then
        // refuses the copies as already-committed (`rejected_committed`)
        // — still proof the gossip path delivered. Only dissemination
        // intake touches these counters (a lease release re-pends without
        // counting).
        for (i, pool) in pools.iter().enumerate().skip(1) {
            let p = pool.lock().unwrap();
            assert!(
                p.forwarded_in() + p.rejected_committed() + p.duplicates() > 0,
                "peer_queues={peer_queues}: replica {i} never received a forwarded request"
            );
        }
        // Every request commits, and the dedup layer marked it committed
        // in (at least) replica 0's pool.
        let committed: std::collections::HashSet<u64> = reports[0]
            .commits
            .iter()
            .filter_map(|c| WorkloadBatch::decode(&c.payload))
            .flat_map(|b| b.requests.into_iter().map(|r| r.id))
            .collect();
        for &id in &ids {
            assert!(committed.contains(&id), "request {id} never committed");
            assert!(
                pools[0].lock().unwrap().is_committed(id),
                "request {id} not marked committed in the pool"
            );
        }
    }

    /// An idle cluster parks: every pool is empty, so the round's leader
    /// holds its proposal, here for Δ = 2 s. A request pushed into a
    /// non-leader's pool must wake that replica's parked loop, which
    /// gossips it to the leader, whose arrival releases the proposal: each
    /// request commits well inside Δ. Over `SharedMempool`s
    /// (`Mempool::push` wakes) and over `ConcurrentPool`s
    /// (`PoolIngest::push` wakes).
    ///
    /// A parked loop also looks around every 10 ms, so a missed wake costs
    /// up to 10 ms, not Δ. Pushed at arbitrary phases of that period, the
    /// requests' median latency tells the two apart: about a millisecond
    /// with the wake, about half the period without it.
    #[test]
    fn a_request_pushed_into_a_parked_cluster_commits_well_inside_delta() {
        for ingest in [false, true] {
            a_request_pushed_into_a_parked_cluster_commits(ingest);
        }
    }

    fn a_request_pushed_into_a_parked_cluster_commits(ingest: bool) {
        let _serial = crate::loopback_serial_lock();
        use banyan_mempool::{
            ConcurrentMempoolSource, ConcurrentPool, Mempool, MempoolSource, Request,
            SharedConcurrentPool, WorkloadBatch,
        };
        use banyan_types::time::Time as BTime;
        use std::sync::mpsc;
        use std::time::{Duration, Instant};

        /// Reports when each committed request was first seen.
        struct Tap(mpsc::Sender<(u64, Instant)>);
        impl App for Tap {
            fn deliver(&mut self, entry: &CommitEntry) {
                for r in WorkloadBatch::decode(&entry.payload).map_or(vec![], |b| b.requests) {
                    let _ = self.0.send((r.id, Instant::now()));
                }
            }
        }

        let n = 4;
        let builder = ClusterBuilder::new(n, 1, 1)
            .unwrap()
            .delta(BDuration::from_secs(2));
        let shared: Vec<SharedMempool> = (0..n).map(|_| Mempool::shared_gossiping(1_024)).collect();
        let concurrent: Vec<SharedConcurrentPool> = (0..n)
            .map(|_| ConcurrentPool::new(Mempool::new(1_024).with_gossip(true), 1_024))
            .collect();
        let engines = if ingest {
            let sources = concurrent.clone();
            builder
                .proposal_sources(move |i| {
                    Box::new(ConcurrentMempoolSource::new(
                        sources[i as usize].clone(),
                        64,
                    ))
                })
                .build_banyan()
        } else {
            let sources = shared.clone();
            builder
                .proposal_sources(move |i| {
                    Box::new(MempoolSource::new(sources[i as usize].clone(), 64))
                })
                .build_banyan()
        };

        // Round-robin leaders: round k is led by replica k mod 4, and each
        // request below is finalized in a round of its own, so request k
        // lands in round k + 1. Replica k + 3 never leads it.
        let requests = 8u64;
        let pushes = {
            let (shared, concurrent) = (shared.clone(), concurrent.clone());
            let ingests: Vec<_> = concurrent.iter().map(|pool| pool.ingest()).collect();
            thread::spawn(move || {
                let mut pushed = Vec::new();
                for id in 0..requests {
                    // Long enough for every loop to park.
                    thread::sleep(Duration::from_millis(if id == 0 { 400 } else { 120 }));
                    let request = Request {
                        id,
                        client: 0,
                        size: 64,
                        submitted_at: BTime::ZERO,
                    };
                    let to = (id as usize + 3) % n;
                    pushed.push(Instant::now());
                    if ingest {
                        assert!(ingests[to].push(request));
                    } else {
                        shared[to].lock().unwrap().push(request);
                    }
                }
                drop(concurrent);
                pushed
            })
        };
        let (tx, commits) = mpsc::channel();
        let run_for = Duration::from_millis(1_800);
        run_local(engines, |i, engine, listen, peers| {
            let app = Tap(tx.clone());
            if ingest {
                let pool = Some(concurrent[i].clone());
                replica::run(engine, app, pool, listen, peers, run_for, None)
            } else {
                let pool = Some(shared[i].clone());
                replica::run(engine, app, pool, listen, peers, run_for, None)
            }
            .expect("replica run")
        });
        drop(tx);
        let pushed = pushes.join().expect("pusher");
        let mut first = vec![None; requests as usize];
        for (id, at) in commits.iter() {
            let seen = &mut first[id as usize];
            *seen = Some(seen.map_or(at, |t: Instant| t.min(at)));
        }
        let mut latencies = Vec::new();
        for (id, (pushed, committed)) in pushed.iter().zip(first).enumerate() {
            let committed = committed.unwrap_or_else(|| panic!("request {id} never committed"));
            let latency = committed.duration_since(*pushed);
            assert!(
                latency < Duration::from_millis(100),
                "ingest={ingest}: request {id} took {latency:?} under a 2 s hold"
            );
            latencies.push(latency);
        }
        latencies.sort();
        let median = latencies[latencies.len() / 2];
        assert!(
            median < Duration::from_millis(3),
            "ingest={ingest}: median {median:?}: a push did not wake the parked loop"
        );
    }

    /// One replica with a `WalStore` crashes, rejoins through
    /// [`TcpRestart`] and catches up, on a [`LocalNet`].
    #[test]
    fn wal_restart_catches_up_over_loopback() {
        use banyan_storage::{BlockStore, WalStore};

        let name = format!("banyan-tcp-restart-{}", std::process::id());
        let wal_dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&wal_dir);

        // One builder recipe used for both lives of replica 2: replica 2
        // persists its chain in a WAL, everyone else stays in memory.
        let make_builder = {
            let wal_dir = wal_dir.clone();
            move || {
                let wal_dir = wal_dir.clone();
                ClusterBuilder::new(4, 1, 1)
                    .unwrap()
                    .delta(BDuration::from_millis(50))
                    .payload_size(512)
                    .chain_stores(move |i| {
                        if i == 2 {
                            Box::new(WalStore::open(&wal_dir).expect("open wal"))
                        } else {
                            Box::new(BlockStore::new())
                        }
                    })
            }
        };

        // Crash at 2 s, rejoin at 3 s by reopening the WAL: the rebuild
        // closure recovers the durable frontier via replay, then the
        // driver's catch-up machine refills the downtime gap over ranged
        // sync.
        let restart = |i| {
            (i == 2).then(|| {
                let rebuild_builder = make_builder();
                TcpRestart {
                    crash_after: std::time::Duration::from_secs(2),
                    rejoin_after: std::time::Duration::from_millis(3000),
                    rebuild: Box::new(move || rebuild_builder.build_replica("banyan", 2)),
                }
            })
        };
        let reports = NET.run(
            make_builder().build_banyan(),
            BDuration::from_secs(4),
            |_| None::<SharedMempool>,
            restart,
        );

        // The rejoined replica probed the frontier and persisted a WAL.
        assert!(reports[2].sync_requests > 0, "no catch-up traffic issued");
        assert!(reports[2].wal_bytes > 0, "WAL empty at shutdown");
        // Someone served it certified blocks over ranged sync.
        let served: u64 = reports.iter().map(|r| r.sync_blocks_served).sum();
        assert!(served > 0, "no blocks served over ranged sync");
        // It committed new blocks after rejoining.
        let rejoin = banyan_types::time::Time(3_000_000_000);
        assert!(
            reports[2].commits.iter().any(|c| c.committed_at > rejoin),
            "replica 2 never committed after rejoining"
        );
        // Cross-replica agreement per round, spanning both lives.
        let mut canonical = std::collections::HashMap::new();
        for r in &reports {
            for c in &r.commits {
                let prev = canonical.insert(c.round, c.block);
                if let Some(prev) = prev {
                    assert_eq!(prev, c.block, "disagreement at round {}", c.round);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&wal_dir);
    }

    #[test]
    fn icc_cluster_over_loopback_commits() {
        let engines = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .delta(BDuration::from_millis(50))
            .payload_size(512)
            .build_icc();
        let reports = run_net(engines, 3);
        assert!(reports.iter().all(|r| !r.commits.is_empty()));
    }
}
