//! Shared experiment runner: one [`Scenario`] in, one [`Outcome`] out.
//!
//! Every figure/table experiment and every sweep goes through this module,
//! so all of them share the same measurement methodology (§9.2 of the
//! paper): proposer-measured finalization latency, committed bytes per
//! second at a non-faulty replica, per-replica block intervals.

use std::sync::Arc;

use banyan_core::builder::{ClusterBuilder, VerifyPlaneConfig};
use banyan_core::chained::ByzantineMode;
use banyan_crypto::ToySchnorr;
use banyan_mempool::BatchPolicy;
use banyan_simnet::faults::FaultPlan;
use banyan_simnet::metrics::{LatencyStats, RunMetrics, SafetyAuditor};
use banyan_simnet::sim::{CryptoCost, SimConfig, Simulation};
use banyan_simnet::topology::Topology;
use banyan_simnet::workload::{
    ClosedLoopWorkload, Mempool, MempoolSource, SharedMempool, DEFAULT_MAX_BATCH,
    DEFAULT_MEMPOOL_CAPACITY,
};
use banyan_types::ids::ReplicaId;
use banyan_types::time::{Duration, Time};

/// Which cryptographic configuration a scenario measures.
///
/// The paper's evaluation runs with signatures on; this knob makes that
/// cost — and the two optimizations that pay for it (RLC vote batching
/// and compact certificates with a verdict cache) — a first-class sweep
/// axis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CryptoMode {
    /// The historical configuration: the `HashSig` placeholder scheme,
    /// no verify plane and no modeled CPU cost. Bit-identical to runs
    /// built before the crypto plane existed.
    #[default]
    Off,
    /// `ToySchnorr` with naive per-member aggregates, every signature
    /// checked by its own equation (no batching, no cert cache), and the
    /// simulator charging the full per-signature CPU cost.
    Unbatched,
    /// The measured configuration: `ToySchnorr` with compact
    /// certificates, RLC-batched vote checks and a certificate-verdict
    /// LRU cache; the simulator charges the batched CPU discount.
    Batched,
}

impl CryptoMode {
    /// The mode's sweep label.
    pub fn label(self) -> &'static str {
        match self {
            CryptoMode::Off => "off",
            CryptoMode::Unbatched => "unbatched",
            CryptoMode::Batched => "batched",
        }
    }
}

/// A fully specified experiment.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// "banyan", "icc", "hotstuff" or "streamlet".
    pub protocol: String,
    /// Where the replicas sit.
    pub topology: Topology,
    /// Fault bound `f`.
    pub f: usize,
    /// Fast-path parameter `p`.
    pub p: usize,
    /// Payload bytes per block (the paper's block size knob). Ignored
    /// for client-driven scenarios: block content then comes from the
    /// mempools.
    pub payload: u64,
    /// Open-loop client requests per second across the cluster; 0 (the
    /// default) keeps the paper's leader-minted synthetic workload.
    pub rate: u64,
    /// Closed-loop client population size (see `banyan_simnet::cohort`);
    /// 0 (the default) means no closed loop. Takes precedence over
    /// `rate`.
    pub modeled_clients: u64,
    /// Cohorts the closed-loop clients are folded into:
    /// [`closed_loop`](Self::closed_loop) sets one per client,
    /// [`cohort_load`](Self::cohort_load) fewer — which is how sweeps
    /// model 10⁵–10⁶ clients in `O(cohorts)` memory.
    pub cohorts: u16,
    /// Global in-flight admission cap for the closed loop; 0 (the
    /// default) means the full `modeled_clients × window`.
    pub max_outstanding: u64,
    /// Token-bucket pacing per *modeled* client (closed loop only);
    /// `None` resubmits freed slots immediately, the pure closed loop.
    pub member_interval: Option<Duration>,
    /// Propagation-limited gossip: forward pushes down a bounded-fanout
    /// tree of this degree with per-peer backpressure instead of
    /// broadcasting to every peer. 0 (the default) keeps broadcast
    /// gossip. Implies `gossip`.
    pub fanout_tree: usize,
    /// Outstanding-request window per closed-loop client.
    pub window: u32,
    /// Pause between a closed-loop completion and the resubmission.
    pub think_time: Duration,
    /// Bytes per client request (only meaningful with a client workload).
    pub request_size: u64,
    /// Gossip pending requests to every replica (dissemination layer).
    /// Off by default — the historical single-pool behavior.
    pub gossip: bool,
    /// Per-request client retransmission timeout; `None` (the default)
    /// means requests lost to never-finalized proposals stay lost.
    pub retry: Option<Duration>,
    /// Replicas each request is submitted to (1 = the historical single
    /// target; `f + 1` is the classic censorship-resistant setting).
    pub fanout: usize,
    /// Latency-targeted batching policy for the mempool sources; `None`
    /// (the default) drains eagerly on every proposal.
    pub batch_policy: Option<BatchPolicy>,
    /// Optimistic proposal pipelining (Moonshot-style): the next leader
    /// proposes on a received-but-uncertified parent instead of waiting
    /// for its certificate, falling back to the certified tip if the
    /// optimistic parent never certifies. ICC only — building any other
    /// protocol's scenario with this on panics (a Banyan rank-0 block
    /// carries its proposer's fast vote, and holding that vote back to
    /// pipeline measured slower than not pipelining). Off by default —
    /// the historical certify-then-propose behavior.
    pub optimistic: bool,
    /// Per-cohort think-time multipliers for the closed loop (cohort `c`
    /// pauses `think_time × multipliers[c % len]`); empty = uniform.
    pub think_multipliers: Vec<u32>,
    /// Extra seconds to run after freezing the workload, letting
    /// in-flight requests drain to a commit. 0 (the default) skips the
    /// drain phase entirely, preserving historical figures bit-for-bit.
    pub drain_secs: u64,
    /// Per-replica Byzantine behaviors (chained engines only).
    pub byzantine: Vec<(u16, ByzantineMode)>,
    /// Protocol `Δ`; `None` picks `max one-way delay + 10 ms` per §9.2
    /// ("larger than the message delay experienced without network
    /// disruptions").
    pub delta: Option<Duration>,
    /// Simulated duration (the paper runs 120 s; scaled-down runs are fine
    /// for CI).
    pub secs: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Fault schedule.
    pub faults: FaultPlan,
    /// Tip forwarding on/off (§9.1 optimization; on by default).
    pub forwarding: bool,
    /// Remark 7.8 fast-vote piggyback (off by default, matching the
    /// paper's evaluated variant).
    pub piggyback: bool,
    /// Cryptographic configuration (see [`CryptoMode`]). `Off` by
    /// default — the historical, cost-free placeholder scheme.
    pub crypto: CryptoMode,
}

impl Scenario {
    /// A scenario with the defaults the paper's §9.3 experiments use.
    pub fn new(protocol: &str, topology: Topology, f: usize, p: usize) -> Self {
        Scenario {
            protocol: protocol.to_string(),
            topology,
            f,
            p,
            payload: 0,
            rate: 0,
            modeled_clients: 0,
            cohorts: 0,
            max_outstanding: 0,
            member_interval: None,
            fanout_tree: 0,
            window: 0,
            think_time: Duration::ZERO,
            request_size: 0,
            gossip: false,
            retry: None,
            fanout: 1,
            batch_policy: None,
            optimistic: false,
            think_multipliers: Vec::new(),
            drain_secs: 0,
            byzantine: Vec::new(),
            delta: None,
            secs: 30,
            seed: 42,
            faults: FaultPlan::none(),
            forwarding: true,
            piggyback: false,
            crypto: CryptoMode::Off,
        }
    }

    /// Sets the payload size.
    pub fn payload(mut self, bytes: u64) -> Self {
        self.payload = bytes;
        self
    }

    /// Switches the scenario to an open-loop client workload of
    /// `req_per_sec` requests per second (fed into per-replica mempools;
    /// end-to-end submit→commit latency is then reported): one client
    /// paced at `1 s / req_per_sec`, submitting from t = 0 whatever
    /// commits. Building the simulation panics above 10⁹/s, or when
    /// `req_per_sec × (secs + drain_secs)` overflows a `u32` window.
    pub fn rate(mut self, req_per_sec: u64) -> Self {
        self.rate = req_per_sec;
        self
    }

    /// Switches the scenario to a **closed-loop** client population:
    /// `clients` clients × `window` outstanding requests each, pausing
    /// `think_time` between a completion and the replacement submission.
    /// The offered load self-regulates to what the cluster commits, so
    /// sweeping `clients` traces a saturation (throughput-vs-latency)
    /// curve. Takes precedence over [`rate`](Self::rate).
    pub fn closed_loop(self, clients: u16, window: u32, think_time: Duration) -> Self {
        self.cohort_load(clients as u64, clients, window, think_time)
    }

    /// [`closed_loop`](Self::closed_loop) with the population
    /// **aggregated**: `modeled_clients` modeled clients folded into
    /// `cohorts` cohorts, each client keeping `window` outstanding
    /// requests with `think_time` between completion and resubmission.
    /// Memory and per-event work are `O(cohorts)`, so sweeping to 10⁶
    /// modeled clients costs the same as 64.
    pub fn cohort_load(
        mut self,
        modeled_clients: u64,
        cohorts: u16,
        window: u32,
        think_time: Duration,
    ) -> Self {
        self.modeled_clients = modeled_clients;
        self.cohorts = cohorts;
        self.window = window;
        self.think_time = think_time;
        self
    }

    /// Paces each modeled client at one submission per `interval`
    /// (closed loop only).
    pub fn member_interval(mut self, interval: Duration) -> Self {
        self.member_interval = Some(interval);
        self
    }

    /// Caps the closed loop's total in-flight requests (admission
    /// control; deferred demand is admitted as completions free slots).
    pub fn max_outstanding(mut self, cap: u64) -> Self {
        self.max_outstanding = cap;
        self
    }

    /// Switches gossip to **propagation-limited** mode: each replica
    /// forwards pushes only to `fanout` tree peers (ring successor +
    /// lowest-delay picks) through bounded per-peer queues, of which one
    /// flush takes a bounded share; first-time acceptors relay compact
    /// announcements down their own edges. Implies [`gossip`](Self::gossip).
    pub fn fanout_tree(mut self, fanout: usize) -> Self {
        assert!(fanout > 0, "fanout-tree degree must be positive");
        self.fanout_tree = fanout;
        self.gossip = true;
        self
    }

    /// Sets the per-request size for the client workload.
    pub fn request_size(mut self, bytes: u64) -> Self {
        self.request_size = bytes;
        self
    }

    /// Enables pending-request gossip: a request submitted to any replica
    /// is forwarded to every peer (through the modeled network) within
    /// one gossip round, so every potential leader can batch it.
    pub fn gossip(mut self) -> Self {
        self.gossip = true;
        self
    }

    /// Enables client-side retransmission: a request not observed
    /// committed within `timeout` is resubmitted (same id, original
    /// submit timestamp) and re-armed until it commits.
    pub fn retry_timeout(mut self, timeout: Duration) -> Self {
        self.retry = Some(timeout);
        self
    }

    /// Submits every request to `fanout` replicas instead of one
    /// (clamped to the cluster size; `f + 1` tolerates any `f` censoring
    /// or crashed replicas).
    pub fn fanout(mut self, fanout: usize) -> Self {
        assert!(fanout > 0, "fanout must be positive");
        self.fanout = fanout;
        self
    }

    /// Installs a latency-targeted batching policy: leaders defer (empty
    /// payload) until the eligible backlog reaches `min_bytes` or its
    /// oldest request has waited `max_age`.
    pub fn batch_policy(mut self, min_bytes: u64, max_age: Duration) -> Self {
        self.batch_policy = Some(BatchPolicy::target(min_bytes, max_age));
        self
    }

    /// Enables optimistic proposal pipelining (see
    /// [`Scenario::optimistic`]).
    pub fn optimistic(mut self) -> Self {
        self.optimistic = true;
        self
    }

    /// Skews per-cohort submit rates in the closed loop: cohort `c`
    /// (client `c` under [`closed_loop`](Self::closed_loop)) pauses
    /// `think_time × multipliers[c % len]` before resubmitting.
    pub fn think_multipliers(mut self, multipliers: Vec<u32>) -> Self {
        self.think_multipliers = multipliers;
        self
    }

    /// Adds a drain phase: after the measured `secs`, the workload is
    /// frozen (no new submissions) and the run continues `secs_extra`
    /// more seconds so in-flight requests finish. With retry and/or
    /// gossip on, `RunMetrics::requests_lost` must end at zero.
    pub fn drain(mut self, secs_extra: u64) -> Self {
        self.drain_secs = secs_extra;
        self
    }

    /// Marks `replica` as Byzantine with the given behavior (chained
    /// engines only; baselines ignore it).
    pub fn byzantine(mut self, replica: u16, mode: ByzantineMode) -> Self {
        self.byzantine.push((replica, mode));
        self
    }

    /// True when the scenario runs a client workload (open or closed
    /// loop) instead of leader-minted synthetic payloads.
    pub fn client_driven(&self) -> bool {
        self.modeled_clients > 0 || self.rate > 0
    }

    /// Sets the simulated duration in seconds.
    pub fn secs(mut self, secs: u64) -> Self {
        self.secs = secs;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Schedules a crash-and-rejoin for `replica`: it drops all volatile
    /// state at `at`, rebuilds from its durable snapshot at `rejoin_at`,
    /// and catches up over ranged sync. Composable — call once per
    /// restart to stagger several.
    pub fn restart(mut self, replica: u16, at: Duration, rejoin_at: Duration) -> Self {
        self.faults = self.faults.restart(
            ReplicaId(replica),
            Time(at.as_nanos()),
            Time(rejoin_at.as_nanos()),
        );
        self
    }

    /// Overrides `Δ`.
    pub fn delta(mut self, delta: Duration) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Toggles tip forwarding.
    pub fn forwarding(mut self, on: bool) -> Self {
        self.forwarding = on;
        self
    }

    /// Toggles the Remark 7.8 fast-vote piggyback.
    pub fn piggyback(mut self, on: bool) -> Self {
        self.piggyback = on;
        self
    }

    /// Sets the cryptographic configuration (see [`CryptoMode`]).
    pub fn crypto(mut self, mode: CryptoMode) -> Self {
        self.crypto = mode;
        self
    }
}

/// Aggregated results of one scenario run: the numbers derived from the
/// commit log, plus the run's counters as the simulator reported them.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Proposer-measured finalization latency (the paper's latency metric).
    pub latency: LatencyStats,
    /// Committed payload bytes per second at the best non-faulty replica,
    /// in MB/s.
    pub throughput_mbps: f64,
    /// Mean interval between commits at a non-faulty replica, ms.
    pub block_interval_ms: f64,
    /// Rounds per commit: the mean interval between **explicit** commits
    /// at the observer, normalized by the protocol `Δ` — i.e. how many
    /// Δ-spans pass between consecutive finalizations. The chained
    /// engine's certify-then-propose baseline needs several Δ per commit;
    /// optimistic pipelining overlaps the proposal with the parent's
    /// certification and pushes this down. 0 when fewer than two explicit
    /// commits were observed.
    pub rounds_per_commit: f64,
    /// End-to-end client latency (submit→commit), present only when the
    /// scenario ran a client workload (open or closed loop).
    pub client_latency: Option<LatencyStats>,
    /// Client requests that reached a committed block (deduped by id —
    /// a re-gossiped or retried request counts once).
    pub requests_committed: u64,
    /// Batched request occurrences suppressed by exactly-once dedup
    /// (copies of an already-committed id in a later block).
    pub duplicates_suppressed: u64,
    /// Goodput: committed client requests per second of *measured* time
    /// (0 without a workload) — the saturation sweep's y-axis. Commits
    /// landing in a drain phase still count (they were submitted during
    /// the measured window; draining just flushes the pipeline), but the
    /// drain seconds do not: identical to committed/end-time for runs
    /// without a drain phase.
    pub goodput_rps: f64,
    /// Share of explicit commits taken via the fast path at a non-faulty
    /// replica (0 for non-Banyan protocols).
    pub fast_share: f64,
    /// Rounds with at least one committed block.
    pub committed_rounds: usize,
    /// No safety violation observed (must always be true).
    pub safe: bool,
    /// Every counter the run reported (requests submitted / pending /
    /// retried and [`RunMetrics::requests_lost`], messages and bytes
    /// sent, gossip, sync, WAL and verify-plane totals), under the names
    /// [`RunMetrics`] gives them. The commit log itself is consumed by
    /// the fields above and left empty here, so an `Outcome` stays small
    /// enough to keep one per sweep point.
    pub counters: RunMetrics,
}

/// Builds the simulation a scenario describes, without running it. All
/// harnesses construct runs through here so protocol wiring and topology
/// handling cannot drift between figures.
///
/// # Panics
///
/// Panics if the scenario's `(n, f, p)` triple is invalid.
pub fn build_simulation(scenario: &Scenario) -> Simulation {
    build_simulation_with(scenario, |cluster| cluster)
}

/// [`build_simulation`] with a last word on the cluster (see
/// [`run_with`]).
fn build_simulation_with(
    scenario: &Scenario,
    cluster: impl FnOnce(ClusterBuilder) -> ClusterBuilder,
) -> Simulation {
    let n = scenario.topology.n();
    let delta = effective_delta(scenario);
    let mut builder = ClusterBuilder::new(n, scenario.f, scenario.p)
        .expect("valid (n, f, p)")
        .delta(delta)
        .forwarding(scenario.forwarding)
        .piggyback(scenario.piggyback);
    if scenario.optimistic {
        builder = builder.optimistic();
    }
    // Crypto plane: `Off` must not touch the builder at all, so the
    // historical configuration stays bit-identical to pre-crypto runs.
    builder = match scenario.crypto {
        CryptoMode::Off => builder,
        CryptoMode::Unbatched => {
            builder
                .scheme(Arc::new(ToySchnorr::new()))
                .verify_plane(VerifyPlaneConfig {
                    batch_votes: false,
                    cert_cache: 0,
                })
        }
        CryptoMode::Batched => builder
            .scheme(Arc::new(ToySchnorr::compact()))
            .verify_plane(VerifyPlaneConfig::default()),
    };
    for (replica, mode) in &scenario.byzantine {
        builder = builder.byzantine(*replica, mode.clone());
    }
    // Workload: either the paper's leader-minted synthetic payloads, or
    // per-replica mempools fed by a client population (closed loop takes
    // precedence over open loop). Each pool is built in its final shape,
    // so it gossips — down its fanout tree, if it has one — from the first
    // (priming) submission on.
    let mempools: Option<Vec<SharedMempool>> = scenario.client_driven().then(|| {
        (0..n)
            .map(|i| {
                let mut pool = Mempool::new(DEFAULT_MEMPOOL_CAPACITY).with_gossip(scenario.gossip);
                if scenario.fanout_tree > 0 {
                    let peers =
                        scenario
                            .topology
                            .fanout_peers(i, scenario.fanout_tree, scenario.seed);
                    if !peers.is_empty() {
                        pool = pool.with_peer_queues(&peers);
                    }
                }
                std::sync::Arc::new(std::sync::Mutex::new(pool))
            })
            .collect()
    });
    builder = match &mempools {
        Some(pools) => {
            let pools = pools.clone();
            let policy = scenario.batch_policy.unwrap_or(BatchPolicy::EAGER);
            builder.proposal_sources(move |i| {
                Box::new(
                    MempoolSource::new(pools[i as usize].clone(), DEFAULT_MAX_BATCH)
                        .with_batch_policy(policy),
                )
            })
        }
        None => builder.payload_size(scenario.payload),
    };
    let builder = cluster(builder);
    let engines = builder.build(&scenario.protocol);
    let mut sim_config = SimConfig::with_seed(scenario.seed);
    if scenario.crypto != CryptoMode::Off {
        // Charge the calibrated per-verify cost so the sweep measures
        // crypto as CPU time, not just counters. Both crypto modes pay
        // the same constants; batching earns its discount through the
        // `sigs_batched` counter, not a different price list.
        sim_config = sim_config.with_crypto_cost(CryptoCost::default());
    }
    let mut sim = Simulation::new(
        scenario.topology.clone(),
        engines,
        scenario.faults.clone(),
        sim_config,
    );
    if let Some(pools) = mempools {
        // Decorrelate the client stream from network jitter while keeping
        // everything a function of the one scenario seed.
        let client_seed = scenario
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1);
        let mut workload = if scenario.modeled_clients > 0 {
            let mut workload = ClosedLoopWorkload::aggregated(
                scenario.modeled_clients,
                scenario.cohorts.max(1),
                scenario.window,
                scenario.think_time,
                scenario.request_size,
                client_seed,
                pools,
            )
            .with_think_multipliers(scenario.think_multipliers.clone());
            if scenario.max_outstanding > 0 {
                workload = workload.with_max_outstanding(scenario.max_outstanding);
            }
            if let Some(interval) = scenario.member_interval {
                workload = workload.with_member_interval(interval);
            }
            workload
        } else {
            open_loop(scenario, client_seed, pools)
        };
        if let Some(timeout) = scenario.retry {
            workload = workload.with_retry(timeout);
        }
        if scenario.fanout > 1 {
            workload = workload.with_fanout(scenario.fanout);
        }
        sim.attach_closed_loop(workload);
        // Every pool is wired into its replica, so commits retire leases
        // and release abandoned blocks' requests even without gossip.
        sim.enable_dissemination(scenario.gossip);
    }
    if !scenario.faults.restarts().is_empty() {
        // Rejoining replicas are rebuilt from the same cluster wiring
        // (registry, beacon, proposal sources — mempools are shared by
        // Arc, so the rebuilt engine drains the surviving pool) and then
        // restored from the snapshot captured at the crash, which stands
        // in for the durable state a WAL-backed deployment reopens.
        let rebuild = builder.clone();
        let protocol = scenario.protocol.clone();
        sim.set_restart_builder(Box::new(move |replica, snapshot| {
            let mut engine = rebuild.build_replica(&protocol, replica.0);
            engine.restore(snapshot);
            engine
        }));
    }
    sim
}

/// The open loop of [`Scenario::rate`]: one member paced at `1 s / rate`,
/// with a window of the most requests the run can submit, so the window
/// never binds and the member submits at `0, i, 2i, …` whatever commits.
///
/// # Panics
///
/// Panics if the rate exceeds 10⁹/s (the interval would truncate to zero
/// virtual nanoseconds) or the window overflows `u32`.
fn open_loop(scenario: &Scenario, seed: u64, pools: Vec<SharedMempool>) -> ClosedLoopWorkload {
    assert!(
        scenario.rate <= 1_000_000_000,
        "open-loop rate above 1e9/s truncates the submit interval to zero"
    );
    let most = scenario
        .rate
        .saturating_mul(scenario.secs + scenario.drain_secs)
        .saturating_add(1);
    let window = u32::try_from(most).expect("open-loop window (rate × run seconds) overflows u32");
    ClosedLoopWorkload::aggregated(
        1,
        1,
        window,
        Duration::ZERO,
        scenario.request_size,
        seed,
        pools,
    )
    .with_member_interval(Duration(1_000_000_000 / scenario.rate))
}

/// The protocol `Δ` a scenario resolves to: the explicit override, or
/// `max one-way delay + 10 ms` per §9.2. The same value
/// [`build_simulation`] configures the cluster with, exposed so reports
/// can normalize time by it.
pub fn effective_delta(scenario: &Scenario) -> Duration {
    scenario
        .delta
        .unwrap_or_else(|| scenario.topology.max_one_way() + Duration::from_millis(10))
}

/// Runs a scenario to completion, returning the raw measurement state:
/// the full [`RunMetrics`] commit log and the safety auditor. Same seed ⇒
/// bit-identical result (the determinism tests assert exactly this).
///
/// # Panics
///
/// Panics if the scenario's `(n, f, p)` triple is invalid.
pub fn run_metrics(scenario: &Scenario) -> (RunMetrics, SafetyAuditor) {
    finish(scenario, build_simulation(scenario))
}

/// Drives a built simulation through the scenario's measured window and
/// drain phase.
fn finish(scenario: &Scenario, mut sim: Simulation) -> (RunMetrics, SafetyAuditor) {
    sim.run_until(Time(Duration::from_secs(scenario.secs).as_nanos()));
    if scenario.drain_secs > 0 {
        // Drain phase: freeze the client population (retries of
        // already-submitted requests keep firing) and let in-flight work
        // finish, so loss accounting reflects requests that can *never*
        // commit rather than ones still in the pipe.
        sim.freeze_workload();
        sim.run_until(Time(
            Duration::from_secs(scenario.secs + scenario.drain_secs).as_nanos(),
        ));
    }
    sim.into_results()
}

/// Runs a scenario to completion.
///
/// # Panics
///
/// Panics if the scenario's `(n, f, p)` triple is invalid.
pub fn run(scenario: &Scenario) -> Outcome {
    run_with(scenario, |cluster| cluster)
}

/// [`run`] with a last word on the cluster: `cluster` sees the fully
/// configured [`ClusterBuilder`] just before the engines are built. This
/// is how an experiment varies something that is not a [`Scenario`] knob
/// (the beacon ablation's leader schedule) and still gets the shared
/// wiring, run loop and [`Outcome`].
pub fn run_with(
    scenario: &Scenario,
    cluster: impl FnOnce(ClusterBuilder) -> ClusterBuilder,
) -> Outcome {
    let (metrics, auditor) = finish(scenario, build_simulation_with(scenario, cluster));
    summarize(scenario, metrics, &auditor)
}

/// Reduces a finished run to the paper's headline numbers.
fn summarize(scenario: &Scenario, m: RunMetrics, auditor: &SafetyAuditor) -> Outcome {
    // Report at the first replica that never crashes.
    let crashed = scenario.faults.crashed_replicas();
    let observer = (0..scenario.topology.n() as u16)
        .map(ReplicaId)
        .find(|r| !crashed.contains(r))
        .expect("at least one live replica");

    let intervals = m.block_intervals(observer);
    let interval_stats = LatencyStats::from_samples(&intervals);
    // One decode pass over the commit log serves the latency stats, the
    // committed-request count and the duplicate counter.
    let client_report = scenario
        .client_driven()
        .then(|| m.client_samples_with_duplicates());
    let client_samples: Option<Vec<Duration>> = client_report
        .as_ref()
        .map(|(samples, _)| samples.iter().map(|&(_, d)| d).collect());
    let requests_committed = client_samples.as_ref().map_or(0, |s| s.len() as u64);
    Outcome {
        latency: m.proposer_latency_stats(),
        throughput_mbps: m.throughput_bps(observer) / 1e6,
        block_interval_ms: interval_stats.mean_ms,
        rounds_per_commit: m.mean_commit_interval_ms(observer)
            / effective_delta(scenario).as_millis_f64(),
        client_latency: client_samples.as_deref().map(LatencyStats::from_samples),
        requests_committed,
        duplicates_suppressed: client_report.as_ref().map_or(0, |&(_, dups)| dups),
        goodput_rps: banyan_simnet::metrics::per_second(requests_committed, scenario.secs as f64),
        fast_share: m.fast_path_share(observer),
        committed_rounds: auditor.committed_rounds(),
        safe: auditor.is_safe(),
        counters: RunMetrics {
            commits: Vec::new(),
            ..m
        },
    }
}

/// Formats a standard result row (used by all harnesses for consistency).
/// The end-to-end columns show dashes for leader-minted (non-client) runs.
pub fn row(label: &str, payload: u64, out: &Outcome) -> String {
    let (e2e_p50, e2e_p99) = match &out.client_latency {
        Some(stats) => (
            format!("{:.1}", stats.p50_ms),
            format!("{:.1}", stats.p99_ms),
        ),
        None => ("-".to_string(), "-".to_string()),
    };
    format!(
        "{:<22} {:>9} {:>10.1} {:>9.1} {:>9.1} {:>9} {:>9} {:>10.2} {:>7.0}% {:>8} {:>6}",
        label,
        human_bytes(payload),
        out.latency.mean_ms,
        out.latency.p50_ms,
        out.latency.p90_ms,
        e2e_p50,
        e2e_p99,
        out.throughput_mbps,
        out.fast_share * 100.0,
        out.committed_rounds,
        if out.safe { "ok" } else { "UNSAFE" },
    )
}

/// Header matching [`row`].
pub fn header() -> String {
    format!(
        "{:<22} {:>9} {:>10} {:>9} {:>9} {:>9} {:>9} {:>10} {:>8} {:>8} {:>6}",
        "protocol",
        "payload",
        "lat.mean",
        "lat.p50",
        "lat.p90",
        "e2e.p50",
        "e2e.p99",
        "MB/s",
        "fast",
        "rounds",
        "safe"
    )
}

/// Human-readable byte count (e.g. "400KB").
pub fn human_bytes(bytes: u64) -> String {
    if bytes >= 1_000_000 {
        format!("{:.1}MB", bytes as f64 / 1e6)
    } else if bytes >= 1_000 {
        format!("{}KB", bytes / 1_000)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builder_chains() {
        let s = Scenario::new(
            "banyan",
            Topology::uniform(4, Duration::from_millis(10)),
            1,
            1,
        )
        .payload(1000)
        .secs(5)
        .seed(7)
        .forwarding(false);
        assert_eq!(s.payload, 1000);
        assert_eq!(s.secs, 5);
        assert!(!s.forwarding);
    }

    #[test]
    fn quick_run_produces_commits() {
        let s = Scenario::new(
            "banyan",
            Topology::uniform(4, Duration::from_millis(5)),
            1,
            1,
        )
        .payload(100)
        .secs(3);
        let out = run(&s);
        assert!(out.safe);
        assert!(out.committed_rounds > 10);
        assert!(out.latency.count > 5);
        assert!(out.throughput_mbps > 0.0);
    }

    #[test]
    fn open_loop_scenario_reports_end_to_end_latency() {
        let s = Scenario::new(
            "banyan",
            Topology::uniform(4, Duration::from_millis(5)),
            1,
            1,
        )
        .rate(200)
        .request_size(128)
        .secs(3);
        let out = run(&s);
        assert!(out.safe);
        assert!(out.counters.requests_submitted > 300);
        assert!(out.requests_committed > 0);
        let e2e = out.client_latency.as_ref().expect("workload configured");
        assert!(e2e.count > 0);
        assert!(
            e2e.p50_ms >= out.latency.p50_ms,
            "e2e must dominate proposer latency"
        );
    }

    /// An open loop whose interval would truncate to zero, or whose window
    /// (the most requests the run can submit) overflows `u32`, is refused
    /// when the simulation is built.
    #[test]
    fn open_loop_rejects_zero_intervals_and_overflowing_windows() {
        let open = |rate, secs| {
            let topology = Topology::uniform(4, Duration::from_millis(5));
            let s = Scenario::new("banyan", topology, 1, 1)
                .rate(rate)
                .secs(secs);
            let panic = std::panic::catch_unwind(|| build_simulation(&s)).err()?;
            panic.downcast_ref::<String>().cloned().or_else(|| {
                let message = panic.downcast_ref::<&str>()?;
                Some(message.to_string())
            })
        };
        let too_fast = open(1_000_000_001, 1).expect("a rate above 1e9/s builds");
        assert!(too_fast.contains("above 1e9/s"), "{too_fast}");
        let too_long = open(1_000_000_000, 5).expect("a 5e9-request window builds");
        assert!(too_long.contains("overflows u32"), "{too_long}");
        assert_eq!(open(1_000, 5), None, "an ordinary open loop builds");
    }

    #[test]
    fn optimistic_scenario_commits_and_reports_rounds_per_commit() {
        // Pipelining is ICC's alone: the proposal / certification
        // overlap must shorten its commit cadence.
        let base = Scenario::new("icc", Topology::uniform(4, Duration::from_millis(5)), 1, 1)
            .payload(100)
            .secs(3);
        let off = run(&base);
        let on = run(&base.clone().optimistic());
        assert!(off.safe && on.safe);
        assert!(on.committed_rounds > 10, "pipelined chain makes progress");
        assert!(off.rounds_per_commit > 0.0 && on.rounds_per_commit > 0.0);
        assert!(
            on.rounds_per_commit < off.rounds_per_commit,
            "pipelining must shorten the commit cadence: on={} off={}",
            on.rounds_per_commit,
            off.rounds_per_commit
        );
    }

    #[test]
    fn row_dashes_e2e_without_workload() {
        let s = Scenario::new(
            "banyan",
            Topology::uniform(4, Duration::from_millis(5)),
            1,
            1,
        )
        .payload(100)
        .secs(2);
        let out = run(&s);
        assert!(out.client_latency.is_none());
        let line = row("banyan", 100, &out);
        assert_eq!(line.matches(" -").count(), 2, "two dashed e2e columns");
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(500), "500B");
        assert_eq!(human_bytes(400_000), "400KB");
        assert_eq!(human_bytes(1_500_000), "1.5MB");
    }
}
