//! Cluster construction: wire engines, PKI and beacon together.
//!
//! Everything the harnesses and tests need to stand up an `n`-replica
//! cluster of any of the four protocols with one call chain.

use std::sync::{Arc, OnceLock};

use banyan_crypto::beacon::{Beacon, BeaconMode};
use banyan_crypto::hashsig::HashSig;
use banyan_crypto::registry::{KeyRegistry, PublicKeyTable};
use banyan_crypto::sig::SignatureScheme;
use banyan_crypto::{CachedVerify, DirectVerify, VerifyBackend};
use banyan_storage::{BlockStore, ChainStore};
use banyan_types::app::{FixedSizeSource, ProposalSource};
use banyan_types::config::{ConfigError, ProtocolConfig};
use banyan_types::engine::Engine;
use banyan_types::time::Duration;

/// Per-replica [`ProposalSource`] factory: called once per replica index
/// when a cluster is built, so each engine gets its own boxed source.
pub type SourceFactory = Arc<dyn Fn(u16) -> Box<dyn ProposalSource> + Send + Sync>;

use crate::chained::{ByzantineMode, ChainedEngine, PathMode};
use crate::hotstuff::HotStuffEngine;
use crate::streamlet::StreamletEngine;

/// Per-replica [`ChainStore`] factory: called once per replica index when
/// a cluster is built, so each engine gets its own backing store — e.g. a
/// `WalStore` opened on that replica's directory.
pub type StoreFactory = Arc<dyn Fn(u16) -> Box<dyn ChainStore> + Send + Sync>;

/// View/epoch timeout of the HotStuff and Streamlet baselines: the paper's
/// §9.4 setting.
const BASELINE_TIMEOUT: Duration = Duration::from_secs(3);

/// Configuration of the engines' verify plane (the measured-crypto setup):
/// how vote bursts and certificates are cryptographically checked.
///
/// Installed with [`ClusterBuilder::verify_plane`]; when absent, engines
/// keep their built-in un-batched, un-cached backend — byte-identical
/// behavior and counters to clusters built before the verify plane
/// existed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyPlaneConfig {
    /// Batch vote bursts through the scheme's combined check (one
    /// random-linear-combination equation per burst instead of one
    /// exponentiation pair per vote, for schemes that support it).
    pub batch_votes: bool,
    /// Capacity of the certificate-verdict LRU cache; `0` disables
    /// caching. A nonzero capacity implies batching (the cached backend
    /// always batches).
    pub cert_cache: usize,
}

impl Default for VerifyPlaneConfig {
    fn default() -> Self {
        VerifyPlaneConfig {
            batch_votes: true,
            cert_cache: 1024,
        }
    }
}

/// Fluent builder for homogeneous clusters.
///
/// # Examples
///
/// ```
/// use banyan_core::builder::ClusterBuilder;
/// use banyan_types::time::Duration;
///
/// let engines = ClusterBuilder::new(19, 6, 1)?
///     .delta(Duration::from_millis(120))
///     .payload_size(400_000)
///     .build_banyan();
/// assert_eq!(engines.len(), 19);
/// # Ok::<(), banyan_types::config::ConfigError>(())
/// ```
#[derive(Clone)]
pub struct ClusterBuilder {
    cfg: ProtocolConfig,
    scheme: Arc<dyn SignatureScheme>,
    cluster_seed: u64,
    beacon_mode: BeaconMode,
    sources: SourceFactory,
    /// Per-replica Byzantine behaviors (chained engines only).
    byzantine: Vec<(u16, ByzantineMode)>,
    /// Per-replica chain-store factory; `None` keeps the default
    /// in-memory `BlockStore`.
    stores: Option<StoreFactory>,
    /// Optimistic proposal pipelining (chained engines only); off by
    /// default.
    optimistic: bool,
    /// Verify plane (batched/cached verification); `None` keeps each
    /// engine's built-in direct backend.
    verify_plane: Option<VerifyPlaneConfig>,
    /// The cluster's public-key table, generated on first use for the
    /// current scheme, cluster seed and `n`. Every registry and verify
    /// backend built from this builder (or from a clone taken after first
    /// use) shares its one allocation.
    table: OnceLock<PublicKeyTable>,
}

impl std::fmt::Debug for ClusterBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("n", &self.cfg.n())
            .field("f", &self.cfg.f())
            .field("p", &self.cfg.p())
            .finish_non_exhaustive()
    }
}

impl ClusterBuilder {
    /// Starts a builder for an `(n, f, p)` cluster.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the parameters violate
    /// `n ≥ max(3f + 2p − 1, 3f + 1)` or `p > f`.
    pub fn new(n: usize, f: usize, p: usize) -> Result<Self, ConfigError> {
        Ok(ClusterBuilder {
            cfg: ProtocolConfig::new(n, f, p)?,
            scheme: Arc::new(HashSig),
            cluster_seed: 42,
            beacon_mode: BeaconMode::RoundRobin,
            sources: Arc::new(|i| Box::new(FixedSizeSource::new(0, i))),
            byzantine: Vec::new(),
            stores: None,
            optimistic: false,
            verify_plane: None,
            table: OnceLock::new(),
        })
    }

    /// Sets the `Δ` bound used in proposal/notarization delays.
    pub fn delta(mut self, delta: Duration) -> Self {
        self.cfg = self.cfg.clone().with_delta(delta);
        self
    }

    /// **Migration shim** — equivalent to
    /// [`proposal_sources`](Self::proposal_sources) with a per-replica
    /// [`FixedSizeSource`] of `bytes`. Engines do not attach payloads
    /// themselves; they pull every payload from their `ProposalSource`.
    /// This shim reproduces the historical leader-minted synthetic
    /// workload (the paper's §9.2 setup) bit-for-bit so old call sites
    /// keep working; anything workload-driven — mempools, open- or
    /// closed-loop clients — goes through `proposal_sources` instead.
    pub fn payload_size(self, bytes: u64) -> Self {
        self.proposal_sources(move |i| Box::new(FixedSizeSource::new(bytes, i)))
    }

    /// Installs a per-replica [`ProposalSource`] factory: `factory(i)` is
    /// called once for replica `i` whenever a cluster is built. This is
    /// how a mempool or client queue is threaded into the engines; the
    /// default is `FixedSizeSource::new(0, i)` (empty synthetic payloads).
    pub fn proposal_sources(
        mut self,
        factory: impl Fn(u16) -> Box<dyn ProposalSource> + Send + Sync + 'static,
    ) -> Self {
        self.sources = Arc::new(factory);
        self
    }

    /// Toggles tip forwarding (paper §9.1).
    pub fn forwarding(mut self, on: bool) -> Self {
        self.cfg = self.cfg.clone().with_forwarding(on);
        self
    }

    /// Enables the Remark 7.8 fast-vote piggyback (Banyan only): omit the
    /// notarization vote when a fast vote is sent; notarizations carry two
    /// multi-signatures.
    pub fn piggyback(mut self, on: bool) -> Self {
        self.cfg = self.cfg.clone().with_piggyback(on);
        self
    }

    /// Uses the seeded random-beacon permutation instead of round-robin.
    pub fn seeded_beacon(mut self, seed: u64) -> Self {
        self.beacon_mode = BeaconMode::Seeded { seed };
        self
    }

    /// Sets the PKI cluster seed.
    pub fn cluster_seed(mut self, seed: u64) -> Self {
        self.cluster_seed = seed;
        self.table = OnceLock::new();
        self
    }

    /// Uses a different signature scheme (default: `HashSig`).
    pub fn scheme(mut self, scheme: Arc<dyn SignatureScheme>) -> Self {
        self.scheme = scheme;
        self.table = OnceLock::new();
        self
    }

    /// Marks `replica` as Byzantine with the given behavior (chained
    /// engines only).
    pub fn byzantine(mut self, replica: u16, mode: ByzantineMode) -> Self {
        self.byzantine.push((replica, mode));
        self
    }

    /// Installs a per-replica [`ChainStore`] factory: `factory(i)` is
    /// called once for replica `i` whenever its engine is built, replacing
    /// the default in-memory `BlockStore`, for every protocol. This is how
    /// a `WalStore` (crash recovery) is threaded in; the engine resumes
    /// from whatever the store recovered.
    pub fn chain_stores(
        mut self,
        factory: impl Fn(u16) -> Box<dyn ChainStore> + Send + Sync + 'static,
    ) -> Self {
        self.stores = Some(Arc::new(factory));
        self
    }

    /// Enables Moonshot-style optimistic proposal pipelining for ICC:
    /// the leader of round `r + 1` proposes on a received-but-uncertified
    /// round-`r` block instead of waiting for its certificate. Building
    /// any other protocol with this set panics — a Banyan rank-0 block
    /// carries its proposer's fast vote, which it cannot cast before the
    /// parent certifies (holding it back measured slower than not
    /// pipelining), HotStuff is already optimistically responsive (a
    /// formed QC triggers the next proposal), and Streamlet's
    /// epoch-clocked proposals leave nothing to overlap.
    pub fn optimistic(mut self) -> Self {
        self.optimistic = true;
        self
    }

    /// Installs a verify plane: every engine built afterwards gets a
    /// per-replica batched (and, with a nonzero `cert_cache`, cached)
    /// verify backend instead of its built-in direct one.
    pub fn verify_plane(mut self, cfg: VerifyPlaneConfig) -> Self {
        self.verify_plane = Some(cfg);
        self
    }

    /// Builds one verify backend matching the configured plane (direct
    /// when no plane is installed). Drivers that wrap the backend (to
    /// trace or count it) construct it with this and install the wrapper
    /// via `Engine::set_verify_backend`.
    pub fn make_verify_backend(&self) -> Arc<dyn VerifyBackend> {
        let table = self.table().clone();
        match self.verify_plane {
            Some(vp) if vp.cert_cache > 0 => Arc::new(CachedVerify::new(table, vp.cert_cache)),
            Some(vp) => Arc::new(DirectVerify::new(table).with_batching(vp.batch_votes)),
            None => Arc::new(DirectVerify::new(table)),
        }
    }

    /// The validated configuration.
    pub fn protocol_config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    fn beacon(&self) -> Beacon {
        Beacon::new(self.beacon_mode, self.cfg.n())
    }

    /// The cluster's one public-key table (see the `table` field).
    fn table(&self) -> &PublicKeyTable {
        self.table.get_or_init(|| {
            PublicKeyTable::generate(self.scheme.clone(), self.cluster_seed, self.cfg.n())
        })
    }

    fn registry(&self, i: u16) -> KeyRegistry {
        KeyRegistry::with_table(self.table().clone(), self.cluster_seed, i)
    }

    fn byz_mode(&self, i: u16) -> ByzantineMode {
        self.byzantine
            .iter()
            .find(|(r, _)| *r == i)
            .map(|(_, m)| m.clone())
            .unwrap_or(ByzantineMode::Honest)
    }

    fn build_chained_replica(
        &self,
        mode: PathMode,
        i: u16,
        store: Box<dyn ChainStore>,
    ) -> Box<dyn Engine> {
        let mut engine = ChainedEngine::new(
            self.cfg.clone(),
            mode,
            self.registry(i),
            self.beacon(),
            (self.sources)(i),
        )
        .with_byzantine(self.byz_mode(i))
        .with_store(store);
        if self.optimistic {
            engine = engine.with_optimistic();
        }
        Box::new(engine)
    }

    /// Builds an `n`-replica Banyan cluster.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::optimistic`] was set: a Banyan rank-0 block
    /// carries its proposer's fast vote, so there is no vote-free block
    /// to pipeline on an uncertified parent.
    pub fn build_banyan(&self) -> Vec<Box<dyn Engine>> {
        self.build("banyan")
    }

    /// Builds an `n`-replica ICC (slow-path-only) cluster.
    pub fn build_icc(&self) -> Vec<Box<dyn Engine>> {
        self.build("icc")
    }

    /// Builds an `n`-replica chained-HotStuff cluster.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::optimistic`] was set: HotStuff is already
    /// optimistically responsive (a formed QC immediately triggers the
    /// next leader's proposal), so the chained engines' pipelining knob
    /// does not apply.
    pub fn build_hotstuff(&self) -> Vec<Box<dyn Engine>> {
        self.build("hotstuff")
    }

    /// Builds an `n`-replica Streamlet cluster. The epoch length is `2Δ`.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::optimistic`] was set: Streamlet proposals are
    /// clocked by the epoch timer, not by certificate arrival, so there
    /// is no certification wait to overlap.
    pub fn build_streamlet(&self) -> Vec<Box<dyn Engine>> {
        self.build("streamlet")
    }

    /// Builds a cluster by protocol name ("banyan", "icc", "hotstuff",
    /// "streamlet"): [`Self::build_replica`] for every index in order.
    ///
    /// # Panics
    ///
    /// Panics on an unknown protocol name.
    pub fn build(&self, protocol: &str) -> Vec<Box<dyn Engine>> {
        (0..self.cfg.n() as u16)
            .map(|i| self.build_replica(protocol, i))
            .collect()
    }

    /// Builds a single replica's engine — every cluster is built from
    /// these, and it is the crash-recovery path: a restarting replica
    /// rebuilds exactly its own engine (same PKI, beacon, sources, and —
    /// via [`Self::chain_stores`] — its reopened store), then
    /// `Engine::restore`s a snapshot before `on_init`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown protocol name or out-of-range index, and if
    /// [`Self::optimistic`] was set for any protocol but `"icc"`.
    pub fn build_replica(&self, protocol: &str, i: u16) -> Box<dyn Engine> {
        assert!(
            (i as usize) < self.cfg.n(),
            "replica index {i} out of range"
        );
        assert!(
            !self.optimistic || protocol == "icc",
            "optimistic pipelining is not supported for {protocol}"
        );
        let store = match &self.stores {
            Some(stores) => stores(i),
            None => Box::new(BlockStore::new()),
        };
        let mut engine: Box<dyn Engine> = match protocol {
            "banyan" => self.build_chained_replica(PathMode::Banyan, i, store),
            "icc" => self.build_chained_replica(PathMode::IccOnly, i, store),
            "hotstuff" => Box::new(
                HotStuffEngine::new(
                    self.cfg.clone(),
                    self.registry(i),
                    self.beacon(),
                    (self.sources)(i),
                    BASELINE_TIMEOUT,
                )
                .with_store(store),
            ),
            "streamlet" => Box::new(
                StreamletEngine::new(
                    self.cfg.clone(),
                    self.registry(i),
                    self.beacon(),
                    (self.sources)(i),
                    self.cfg.delta.saturating_mul(2),
                )
                .with_store(store),
            ),
            other => panic!("unknown protocol {other:?}"),
        };
        if self.verify_plane.is_some() {
            engine.set_verify_backend(self.make_verify_backend());
        }
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_all_protocols() {
        let b = ClusterBuilder::new(4, 1, 1).unwrap().payload_size(100);
        for proto in ["banyan", "icc", "hotstuff", "streamlet"] {
            let engines = b.build(proto);
            assert_eq!(engines.len(), 4, "{proto}");
            assert_eq!(engines[2].id().0, 2);
            assert_eq!(engines[0].protocol_name(), proto);
        }
    }

    #[test]
    fn every_replica_shares_one_key_table() {
        let b = ClusterBuilder::new(4, 1, 1).unwrap();
        let first = |t: &PublicKeyTable| t.public_key(0).unwrap() as *const _;
        let shared = first(b.registry(0).table());
        for i in 0..4 {
            assert_eq!(first(b.registry(i).table()), shared, "replica {i}");
        }
        assert_eq!(first(b.make_verify_backend().table()), shared);
        // A clone (the restart-rebuild path) keeps the table; a new seed
        // or scheme gets a fresh one.
        assert_eq!(first(b.clone().registry(2).table()), shared);
        let reseeded = b.clone().cluster_seed(7);
        assert_ne!(first(reseeded.registry(0).table()), shared);
        assert_ne!(
            reseeded.registry(0).table().public_key(0),
            b.registry(0).table().public_key(0)
        );
        let rescheme = b.clone().scheme(Arc::new(banyan_crypto::ToySchnorr::new()));
        assert_eq!(rescheme.registry(1).table().scheme().name(), "toy-schnorr");
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(ClusterBuilder::new(3, 1, 1).is_err());
        assert!(ClusterBuilder::new(4, 1, 2).is_err());
    }

    #[test]
    #[should_panic(expected = "unknown protocol")]
    fn unknown_protocol_panics() {
        let _ = ClusterBuilder::new(4, 1, 1).unwrap().build("pbft");
    }

    #[test]
    fn optimistic_builds_chained_engines() {
        let b = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .payload_size(100)
            .optimistic();
        assert_eq!(b.build("icc").len(), 4);
    }

    #[test]
    #[should_panic(expected = "not supported for banyan")]
    fn optimistic_banyan_is_rejected() {
        let _ = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .optimistic()
            .build("banyan");
    }

    #[test]
    #[should_panic(expected = "not supported for hotstuff")]
    fn optimistic_hotstuff_is_rejected() {
        let _ = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .optimistic()
            .build("hotstuff");
    }

    #[test]
    #[should_panic(expected = "not supported for streamlet")]
    fn optimistic_streamlet_is_rejected() {
        let _ = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .optimistic()
            .build_streamlet();
    }
}
