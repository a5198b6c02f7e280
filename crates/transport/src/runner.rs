//! The public entry points of the threaded TCP runner: drive one
//! [`Engine`] over real sockets.
//!
//! All of them are thin calls into the one event loop in `crate::replica`
//! (see its docs for the thread layout). Time is wall-clock nanoseconds
//! since the run started, so the engine sees the same `Time` type as under
//! simulation. The engines themselves are identical — that is the point:
//! `banyan-simnet` results transfer to real sockets.
//!
//! # Request dissemination
//!
//! [`run_replica_full`] attaches a [`SharedMempool`] to the wire path
//! through the same `banyan_mempool::ReplicaPool` operations the
//! simulator uses: inbound `DisseminationMsg::Forward`/`Announce` frames
//! feed the pool (they never reach the engine), the pool's queued gossip
//! goes out on every pass — one `Forward` broadcast, or per-peer
//! `Forward`/`Announce` sends with relaying when the pool has per-peer
//! queues — and each finalized block is retired in the pool before it
//! reaches the [`App`] (the exactly-once dedup rule; see
//! `banyan_mempool`).
//!
//! # Crash recovery
//!
//! [`run_replica_restarting`] runs the same event loop through a
//! mid-run crash/rejoin cycle described by a [`TcpRestart`] plan. At the
//! crash point the engine and its timer heap are dropped — every byte of
//! volatile state is gone, and inbound frames are read and discarded:
//! none reaches a handler, as with a dead process, and no peer's
//! connection backs up. At the rejoin point the plan's `rebuild` closure
//! constructs a fresh engine (for the chained engines: over a reopened
//! `banyan_storage::WalStore`, whose replay restores the durable
//! frontier), and the loop starts a driver-level
//! [`CatchUpState`](banyan_storage::CatchUpState) that probes peers for
//! the commit frontier and pulls the missing certified chain over
//! `SyncMsg::RequestRange`. The same purity contract as the simulator
//! holds: `FrontierProbe` is answered by the loop, from
//! [`Engine::finalized_round`], and `FrontierInfo` feeds the catch-up
//! machine — neither ever reaches an engine.

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
    /// not counted.
    pub messages_sent: u64,
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
    replica::run(engine, app, pool, None, listen, peers, run_for, restart).map(|(report, _)| report)
}

/// Runs one replica thread per engine on localhost and returns what each
/// `run(i, engine, listen, peers)` returned, in replica order. Ports are
/// allocated by the OS.
///
/// # Panics
///
/// Panics if a replica thread panics or a socket operation fails.
pub(crate) fn run_local<R: Send>(
    engines: Vec<Box<dyn Engine>>,
    run: impl Fn(usize, Box<dyn Engine>, SocketAddr, Vec<SocketAddr>) -> R + Sync,
) -> Vec<R> {
    // Bind listeners first so every address is known before any dial.
    let listeners: Vec<TcpListener> = (0..engines.len())
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect();
    drop(listeners); // ports linger in TIME_WAIT-free state long enough on loopback

    thread::scope(|s| {
        let handles: Vec<_> = engines
            .into_iter()
            .enumerate()
            .map(|(i, engine)| {
                let (run, addrs) = (&run, addrs.clone());
                s.spawn(move || run(i, engine, addrs[i], addrs))
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
    run_local(engines, |_, engine, listen, peers| {
        run_replica_full(engine, NullApp, None, listen, peers, run_for).expect("replica run")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use banyan_core::builder::ClusterBuilder;
    use banyan_types::time::Duration as BDuration;

    #[test]
    fn banyan_cluster_over_loopback_commits_and_agrees() {
        let _serial = crate::loopback_serial_lock();
        let engines = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .delta(BDuration::from_millis(50))
            .payload_size(512)
            .build_banyan();
        let reports = run_local_cluster(engines, std::time::Duration::from_secs(3));
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
        let _serial = crate::loopback_serial_lock();
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

        let run_for = std::time::Duration::from_secs(3);
        let reports = run_local(engines, |i, engine, listen, peers| {
            run_replica_full(
                engine,
                NullApp,
                Some(pools[i].clone()),
                listen,
                peers,
                run_for,
            )
            .expect("replica run")
        });

        // Every peer pool saw the forwarded copies arrive. On a real wire
        // a quorum that excludes a slow-to-connect peer can commit the
        // batch before the Forward frame lands there; the pool then
        // refuses the copies as already-committed (`rejected_committed`)
        // — still proof the gossip path delivered. With speculation off,
        // nothing but dissemination intake touches these counters on a
        // peer pool.
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

    /// One replica with a `WalStore` crashes, rejoins through
    /// [`TcpRestart`] and catches up — inline, and with the verify stage
    /// (which inherits restart and catch-up by sharing the loop).
    #[test]
    fn wal_restart_catches_up_over_loopback() {
        for staged in [false, true] {
            wal_restart_catches_up(staged);
        }
    }

    fn wal_restart_catches_up(staged: bool) {
        let _serial = crate::loopback_serial_lock();
        use crate::pipeline::PipelineConfig;
        use banyan_storage::{BlockStore, WalStore};
        use std::path::PathBuf;

        let wal_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/wal-tests")
            .join(if staged {
                "tcp-restart-staged"
            } else {
                "tcp-restart"
            });
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

        // Generous post-rejoin window: catch-up plus fresh commits must
        // fit even on a single-core debug build.
        let run_for = std::time::Duration::from_secs(8);
        let reports = run_local(make_builder().build_banyan(), |i, engine, listen, peers| {
            // Crash at 2 s, rejoin at 3 s by reopening the WAL: the
            // rebuild closure recovers the durable frontier via replay,
            // then the driver's catch-up machine refills the downtime gap
            // over ranged sync.
            let restart = (i == 2).then(|| {
                let rebuild_builder = make_builder();
                TcpRestart {
                    crash_after: std::time::Duration::from_secs(2),
                    rejoin_after: std::time::Duration::from_millis(3000),
                    rebuild: Box::new(move || rebuild_builder.build_replica("banyan", 2)),
                }
            });
            let stage = staged.then(PipelineConfig::default);
            let pool = None::<SharedMempool>;
            replica::run(
                engine, NullApp, pool, stage, listen, peers, run_for, restart,
            )
            .expect("replica run")
        });
        if staged {
            for (i, (_, s)) in reports.iter().enumerate() {
                assert!(s.decoded > 0, "replica {i} ran without its verify stage");
                assert_eq!(
                    s.decoded, s.verified,
                    "replica {i} lost frames at close: {s:?}"
                );
            }
        }
        let reports: Vec<TcpRunReport> = reports.into_iter().map(|(report, _)| report).collect();

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
    }

    #[test]
    fn icc_cluster_over_loopback_commits() {
        let _serial = crate::loopback_serial_lock();
        let engines = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .delta(BDuration::from_millis(50))
            .payload_size(512)
            .build_icc();
        let reports = run_local_cluster(engines, std::time::Duration::from_secs(3));
        assert!(reports.iter().all(|r| !r.commits.is_empty()));
    }
}
