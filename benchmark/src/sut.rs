//! The one adapter between the benchmark and the system under test.
//!
//! Every call that builds or runs a cluster goes through this file: it is
//! the only place that names `run_replica_full`, `run_replica_pipelined`,
//! `run_replica_restarting`, `ClusterBuilder` or `Simulation::new`, so a
//! rename in a later PR needs a one-file follow-up here. The micro layer
//! (`micro.rs`) calls the crates' leaf functions directly; the traced
//! wrappers it installs live in `trace.rs`.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use banyan_core::builder::{ClusterBuilder, VerifyPlaneConfig};
use banyan_crypto::ToySchnorr;
use banyan_mempool::{
    ConcurrentMempoolSource, ConcurrentPool, Mempool, MempoolSource, PoolIngest, Request,
    SharedConcurrentPool, SharedMempool, DEFAULT_INGEST_CAP, DEFAULT_MEMPOOL_CAPACITY,
};
use banyan_simnet::sim::{SimConfig, Simulation};
use banyan_simnet::topology::Topology;
use banyan_simnet::workload::ClosedLoopWorkload;
use banyan_simnet::FaultPlan;
use banyan_storage::{BlockStore, ChainStore, WalStore};
use banyan_transport::pipeline::{run_replica_pipelined, PipelineConfig, PipelineStatsSnapshot};
use banyan_transport::runner::{
    run_replica_full, run_replica_restarting, TcpRestart, TcpRunReport,
};
use banyan_types::app::{App, FixedSizeSource, ProposalSource};
use banyan_types::engine::Engine;
use banyan_types::ids::ReplicaId;
use banyan_types::time::Duration as VDuration;

use crate::shapes::{Shape, CLUSTER_SEED, F, N, P, PAYLOAD_CHUNK};
use crate::trace::{self, TracedEngine, TracedSource, TracedStore, TracedVerify};

/// The replica that crashes and rejoins in `tcp_wal_restart`.
pub const RESTARTED: usize = 2;

/// Which transport entry point drives the replicas.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Runner {
    /// `run_replica_full`: decode, verify and execute on one thread.
    /// `SharedMempool` + gossip, placeholder signatures.
    Unstaged,
    /// `run_replica_pipelined` with one verify worker and
    /// `ConcurrentPool` ingest, placeholder signatures.
    Pipelined,
    /// `run_replica_restarting` in the production shape: compact Schnorr
    /// signatures through the default verify plane, a `WalStore` on every
    /// replica, and replica [`RESTARTED`] crashing and rejoining at the
    /// given offsets from its start. The stores never rotate within a run
    /// (see [`WAL_SEGMENT_LIMIT`]) unless `default_wal` asks for
    /// `WalStore::open` as it is.
    Restarting {
        crash_after: std::time::Duration,
        rejoin_after: std::time::Duration,
        default_wal: bool,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct TcpSpec {
    pub shape: Shape,
    pub runner: Runner,
    /// The protocol's Δ. As the paper requires, it is set above the
    /// undisrupted delivery time of the workload's blocks, so no timer
    /// fires on the happy path and latency is processor + scheduler time.
    pub delta: VDuration,
}

/// The client side of the replicas' pools: where the load generator
/// pushes requests.
#[derive(Clone)]
pub enum Submitter {
    Shared(Vec<SharedMempool>),
    Ingest(Vec<PoolIngest>),
}

impl Submitter {
    /// Hands `req` to replica `replica`'s pool. A full ingest channel
    /// sheds it; the pool counts that (`PoolCounters::ingest_dropped`) and
    /// the client's retry recovers it.
    pub fn submit(&self, replica: usize, req: Request) {
        match self {
            Submitter::Shared(pools) => {
                pools[replica].lock().expect("mempool lock").push(req);
            }
            Submitter::Ingest(ingests) => {
                ingests[replica].push(req);
            }
        }
    }
}

enum Pools {
    Shared(Vec<SharedMempool>),
    Concurrent(Vec<SharedConcurrentPool>),
}

/// Pool counters summed over the replicas after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolCounters {
    pub evicted: u64,
    pub forwarded_in: u64,
    pub forward_dropped: u64,
    pub ingest_dropped: u64,
}

impl PoolCounters {
    fn add(&mut self, pool: &Mempool) {
        self.evicted += pool.evicted();
        self.forwarded_in += pool.forwarded_in();
        self.forward_dropped += pool.forward_dropped();
    }
}

pub struct ReplicaOutcome {
    pub report: TcpRunReport,
    /// Frame accounting of the staged pipeline (`Runner::Pipelined` only).
    pub pipeline: Option<PipelineStatsSnapshot>,
}

pub struct ClusterOutcome {
    pub replicas: Vec<ReplicaOutcome>,
    pub pools: PoolCounters,
    /// Highest WAL segment index per replica — each rotation opens the
    /// next one — summed; 0 for in-memory stores.
    pub wal_rotations: u64,
}

pub struct TcpCluster {
    handles: Vec<JoinHandle<ReplicaOutcome>>,
    pools: Pools,
    wal_dir: Option<PathBuf>,
}

/// Segment limit of the measured workload's WAL stores: high enough that
/// the log never rotates within a run. A rotation opens the new segment
/// with a checkpoint of the whole chain, which is as large as the log it
/// replaces, so whatever the limit, the segment is born over it and every
/// later append rotates again and rewrites the chain: commits stop for
/// seconds at a time, requests outlive the drain, and no steady state
/// exists to measure. With the default 4 MiB limit that starts within the
/// first second of a run. The regime is reported by the traced run's
/// default-store probe (`storage.rotations`,
/// `storage.default_wal_goodput_rps`) and by `storage.append_past_limit_us`
/// (micro) instead; see README.md.
const WAL_SEGMENT_LIMIT: u64 = 1 << 40;

fn wal_store(dir: &Path, replica: u16, default_wal: bool) -> Box<dyn ChainStore> {
    let dir = dir.join(format!("r{replica}"));
    let store = if default_wal {
        WalStore::open(dir)
    } else {
        WalStore::open_with(dir, WAL_SEGMENT_LIMIT, false)
    };
    Box::new(store.expect("open wal"))
}

fn local_addrs(n: usize) -> Vec<SocketAddr> {
    // Bind first so every address is known before any dial; the ports
    // stay free long enough on loopback for the replicas to rebind.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

fn wrap_source(
    traced: bool,
    replica: u16,
    inner: Box<dyn ProposalSource>,
) -> Box<dyn ProposalSource> {
    if traced {
        Box::new(TracedSource { inner, replica })
    } else {
        inner
    }
}

fn wrap_store(traced: bool, replica: u16, inner: Box<dyn ChainStore>) -> Box<dyn ChainStore> {
    if traced {
        Box::new(TracedStore { inner, replica })
    } else {
        inner
    }
}

fn wrap_engine(traced: bool, builder: &ClusterBuilder, engine: Box<dyn Engine>) -> Box<dyn Engine> {
    if !traced {
        return engine;
    }
    let replica = engine.id().0;
    let mut engine = TracedEngine {
        inner: engine,
        peers: builder.protocol_config().n() as u64 - 1,
    };
    // The same backend the builder would install (direct when no verify
    // plane is configured), behind the span-recording wrapper.
    engine.set_verify_backend(Arc::new(TracedVerify {
        inner: builder.make_verify_backend(),
        replica,
    }));
    Box::new(engine)
}

impl TcpCluster {
    /// Builds the cluster and starts one thread per replica, each running
    /// for `run_for`. `taps[i]` receives replica `i`'s deliveries. With
    /// `traced`, every trait seam is wrapped (see `trace.rs`). WAL
    /// directories are created under `out_dir`.
    pub fn start<A: App + 'static>(
        spec: &TcpSpec,
        run_for: std::time::Duration,
        taps: Vec<A>,
        traced: bool,
        out_dir: &Path,
    ) -> TcpCluster {
        assert_eq!(taps.len(), N, "one tap per replica");
        let mut builder = ClusterBuilder::new(N, F, P)
            .expect("valid (n, f, p)")
            .cluster_seed(CLUSTER_SEED)
            .delta(spec.delta);
        assert_eq!(builder.protocol_config().payload_chunk, PAYLOAD_CHUNK);

        let batch = spec.shape.batch;
        let pools = if spec.runner == Runner::Pipelined {
            let pools: Vec<SharedConcurrentPool> = (0..N)
                .map(|_| {
                    ConcurrentPool::new(
                        Mempool::new(DEFAULT_MEMPOOL_CAPACITY).with_gossip(true),
                        DEFAULT_INGEST_CAP,
                    )
                })
                .collect();
            let sources = pools.clone();
            builder = builder.proposal_sources(move |i| {
                wrap_source(
                    traced,
                    i,
                    Box::new(ConcurrentMempoolSource::new(
                        sources[i as usize].clone(),
                        batch,
                    )),
                )
            });
            Pools::Concurrent(pools)
        } else {
            let pools: Vec<SharedMempool> = (0..N)
                .map(|_| Mempool::shared_gossiping(DEFAULT_MEMPOOL_CAPACITY))
                .collect();
            let sources = pools.clone();
            builder = builder.proposal_sources(move |i| {
                wrap_source(
                    traced,
                    i,
                    Box::new(MempoolSource::new(sources[i as usize].clone(), batch)),
                )
            });
            Pools::Shared(pools)
        };

        let mut wal_dir = None;
        if let Runner::Restarting { default_wal, .. } = spec.runner {
            let dir = out_dir.join(format!("wal-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            builder = builder
                .scheme(Arc::new(ToySchnorr::compact()))
                .verify_plane(VerifyPlaneConfig::default());
            let store_dir = dir.clone();
            builder = builder.chain_stores(move |i| {
                wrap_store(traced, i, wal_store(&store_dir, i, default_wal))
            });
            wal_dir = Some(dir);
        } else if traced {
            builder = builder.chain_stores(|i| wrap_store(true, i, Box::new(BlockStore::new())));
        }

        let engines: Vec<Box<dyn Engine>> = builder
            .build_banyan()
            .into_iter()
            .map(|e| wrap_engine(traced, &builder, e))
            .collect();

        let addrs = local_addrs(N);
        let mut handles = Vec::new();
        for (i, (engine, tap)) in engines.into_iter().zip(taps).enumerate() {
            let peers = addrs.clone();
            let listen = addrs[i];
            let runner = spec.runner;
            let shared = match &pools {
                Pools::Shared(p) => Some(p[i].clone()),
                Pools::Concurrent(_) => None,
            };
            let concurrent = match &pools {
                Pools::Concurrent(p) => Some(p[i].clone()),
                Pools::Shared(_) => None,
            };
            let rebuild = builder.clone();
            handles.push(thread::spawn(move || {
                let outcome = match runner {
                    Runner::Unstaged => ReplicaOutcome {
                        report: run_replica_full(engine, tap, shared, listen, peers, run_for)
                            .expect("replica run"),
                        pipeline: None,
                    },
                    Runner::Pipelined => {
                        let config = PipelineConfig::default()
                            .with_verify_workers(1)
                            .with_payload_chunk(PAYLOAD_CHUNK);
                        let r = run_replica_pipelined(
                            engine, tap, concurrent, config, listen, peers, run_for,
                        )
                        .expect("replica run");
                        ReplicaOutcome {
                            report: r.report,
                            pipeline: Some(r.stats),
                        }
                    }
                    Runner::Restarting {
                        crash_after,
                        rejoin_after,
                        ..
                    } => {
                        let restart = (i == RESTARTED).then(|| TcpRestart {
                            crash_after,
                            rejoin_after,
                            // Rebuilds from durable state only: the store
                            // factory reopens this replica's WAL directory.
                            rebuild: Box::new(move || {
                                let e = rebuild.build_replica("banyan", i as u16);
                                wrap_engine(traced, &rebuild, e)
                            }),
                        });
                        ReplicaOutcome {
                            report: run_replica_restarting(
                                engine, tap, shared, listen, peers, run_for, restart,
                            )
                            .expect("replica run"),
                            pipeline: None,
                        }
                    }
                };
                trace::flush_thread();
                outcome
            }));
        }
        TcpCluster {
            handles,
            pools,
            wal_dir,
        }
    }

    pub fn submitter(&self) -> Submitter {
        match &self.pools {
            Pools::Shared(p) => Submitter::Shared(p.clone()),
            Pools::Concurrent(p) => Submitter::Ingest(p.iter().map(|p| p.ingest()).collect()),
        }
    }

    /// Waits for every replica to finish its `run_for`, then reads the
    /// pool counters and the WAL directory and removes the latter.
    pub fn join(self) -> ClusterOutcome {
        let replicas: Vec<ReplicaOutcome> = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("replica thread"))
            .collect();
        let mut pools = PoolCounters::default();
        match &self.pools {
            Pools::Shared(p) => {
                for pool in p {
                    pools.add(&pool.lock().expect("mempool lock"));
                }
            }
            Pools::Concurrent(p) => {
                for pool in p {
                    pools.add(&pool.pool());
                    pools.ingest_dropped += pool.ingest_dropped();
                }
            }
        }
        let mut wal_rotations = 0;
        if let Some(dir) = &self.wal_dir {
            for i in 0..N {
                wal_rotations += highest_segment(&dir.join(format!("r{i}")));
            }
            let _ = std::fs::remove_dir_all(dir);
        }
        ClusterOutcome {
            replicas,
            pools,
            wal_rotations,
        }
    }
}

fn highest_segment(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            e.file_name()
                .to_string_lossy()
                .strip_prefix("wal-")?
                .strip_suffix(".log")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .unwrap_or(0)
}

// --- simulator ----------------------------------------------------------------

/// What drives block content in a simulated run.
#[derive(Clone, Copy, Debug)]
pub enum SimLoad {
    /// The paper's leader-minted synthetic payloads of this many bytes.
    LeaderMinted(u64),
    /// A closed-loop client population over gossiping pools with client
    /// retry: `clients` × `window` outstanding requests of `request_size`.
    ClosedLoop {
        clients: u16,
        window: u32,
        request_size: u64,
        retry: VDuration,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    /// "banyan" or "icc".
    pub protocol: &'static str,
    pub load: SimLoad,
    pub seed: u64,
}

/// Builds (without running) a simulation on the paper's §9.3 testbed:
/// 19 replicas in 4 global datacenters, f=6, p=1, Δ = max one-way + 10 ms.
pub fn build_sim(spec: &SimSpec, traced: bool) -> Simulation {
    let topology = Topology::four_global_19();
    let n = topology.n();
    let delta = topology.max_one_way() + VDuration::from_millis(10);
    let mut builder = ClusterBuilder::new(n, 6, 1)
        .expect("valid (n, f, p)")
        .cluster_seed(CLUSTER_SEED)
        .delta(delta);
    let mut pools = None;
    match spec.load {
        SimLoad::LeaderMinted(bytes) => {
            builder = builder.proposal_sources(move |i| {
                wrap_source(traced, i, Box::new(FixedSizeSource::new(bytes, i)))
            });
        }
        SimLoad::ClosedLoop { .. } => {
            let shared: Vec<SharedMempool> = (0..n)
                .map(|_| Mempool::shared_gossiping(DEFAULT_MEMPOOL_CAPACITY))
                .collect();
            let sources = shared.clone();
            builder = builder.proposal_sources(move |i| {
                wrap_source(
                    traced,
                    i,
                    Box::new(MempoolSource::new(
                        sources[i as usize].clone(),
                        banyan_mempool::DEFAULT_MAX_BATCH,
                    )),
                )
            });
            pools = Some(shared);
        }
    }
    if traced {
        builder = builder.chain_stores(|i| wrap_store(true, i, Box::new(BlockStore::new())));
    }
    let engines: Vec<Box<dyn Engine>> = builder
        .build(spec.protocol)
        .into_iter()
        .map(|e| wrap_engine(traced, &builder, e))
        .collect();
    let mut sim = Simulation::new(
        topology,
        engines,
        FaultPlan::none(),
        SimConfig::with_seed(spec.seed),
    );
    if let (
        Some(pools),
        SimLoad::ClosedLoop {
            clients,
            window,
            request_size,
            retry,
        },
    ) = (pools, spec.load)
    {
        // Decorrelate the client stream from network jitter while keeping
        // everything a function of the one seed.
        let client_seed = crate::shapes::mix(spec.seed);
        sim.attach_closed_loop(
            ClosedLoopWorkload::new(
                clients,
                window,
                VDuration::ZERO,
                request_size,
                client_seed,
                pools,
            )
            .with_retry(retry),
        );
        sim.enable_dissemination(true);
    }
    if traced {
        for i in 0..n as u16 {
            sim.attach_app(ReplicaId(i), Box::new(trace::MarkingApp { replica: i }));
        }
    }
    sim
}
