//! Deterministic discrete-event WAN simulator for the Banyan reproduction.
//!
//! The paper evaluates on AWS `t3.large` instances spread over up to 19
//! datacenters (Fig. 5). This crate substitutes that testbed (**R1** in
//! `docs/ARCHITECTURE.md`) with a simulator whose network model captures
//! what the paper measures: propagation delay between datacenters,
//! egress-bandwidth serialization for large blocks, jitter, FIFO links, and
//! fail-stop crashes.
//!
//! * [`topology`] — the three paper testbeds plus synthetic layouts;
//! * [`sim`] — the event loop driving [`banyan_types::engine::Engine`]s;
//! * [`faults`] — crash / partition / link-delay schedules;
//! * [`metrics`] — the paper's latency & throughput metrics, end-to-end
//!   client latency, goodput, request-loss accounting, and the global
//!   safety auditor;
//! * [`workload`] — the seeded client population feeding the
//!   per-replica mempools (`banyan_mempool`, re-exported): closed loop
//!   (fixed windows, resubmit-on-commit) or open loop (one paced member,
//!   fixed rate), with optional submit fan-out and per-request retry.
//!   [`sim::Simulation::enable_dissemination`] adds pending-request
//!   gossip and exactly-once commit dedup on top; a pool built
//!   `with_peer_queues(&`[`Topology::fanout_peers`]`)` bounds that gossip
//!   to a seeded degree-`F` propagation tree with per-peer backpressure;
//! * [`cohort`] — the population itself, one cohort-aggregated model
//!   with two constructors: one member per cohort (exact per-client
//!   windows), or up to 10⁶ modeled clients in `O(cohorts)` memory, with
//!   token-bucket pacing and a global admission cap.
//!
//! # Examples
//!
//! Running engines (here: none) over the §9.3 topology:
//!
//! ```
//! use banyan_simnet::topology::Topology;
//!
//! let topo = Topology::four_global_19();
//! assert_eq!(topo.n(), 19);
//! // Δ is chosen from the worst modeled one-way delay.
//! let delta = topo.max_one_way();
//! assert!(delta.as_millis_f64() > 10.0);
//! ```

#![warn(missing_docs)]

pub mod cohort;
pub mod faults;
pub mod metrics;
pub mod sim;
pub mod topology;
pub mod workload;

pub use cohort::{ClosedLoopWorkload, CohortStats};
pub use faults::{Fault, FaultPlan};
pub use metrics::{ClientLoadSummary, LatencyStats, ObservedCommit, RunMetrics, SafetyAuditor};
pub use sim::{CryptoCost, SimConfig, Simulation};
pub use topology::{Region, Topology, AWS_REGIONS};
pub use workload::{Mempool, MempoolSource, PushOutcome, Request, SharedMempool, WorkloadBatch};
