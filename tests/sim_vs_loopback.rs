//! The simulator and the TCP runner drive the same replica step
//! (`banyan_runtime::Replica`), so a fault-free cluster built from one
//! seed must finalize the same chain in both: the same proposer and the
//! same payload in every round, whatever the clock or the wire. Block
//! hashes differ (they cover wall-clock versus virtual proposal times),
//! so the chain is compared as `(round, proposer, payload)` per commit.
//! The third leg, the TCP shell's step on in-memory pipes in virtual
//! time, is `banyan-transport`'s own test
//! `a_localnet_finalizes_the_simulators_chain_and_replays_bit_identically`.

use banyan::core::builder::ClusterBuilder;
use banyan::simnet::faults::FaultPlan;
use banyan::simnet::sim::{SimConfig, Simulation};
use banyan::simnet::topology::Topology;
use banyan::transport::run_local_cluster;
use banyan::types::engine::CommitEntry;
use banyan::types::ids::{ReplicaId, Round};
use banyan::types::time::{Duration, Time};
use banyan::types::Payload;

/// Commits compared per protocol, at least.
const PREFIX: usize = 20;

fn chain<'a>(commits: impl Iterator<Item = &'a CommitEntry>) -> Vec<(Round, ReplicaId, Payload)> {
    commits
        .map(|c| (c.round, c.proposer, c.payload.clone()))
        .collect()
}

#[test]
fn simulator_and_loopback_finalize_the_same_chain_prefix() {
    for protocol in ["banyan", "icc"] {
        // Δ far above both the simulated 1 ms links and loopback (and a
        // slow replica start), so the rank-0 leader's block is the one
        // finalized in every round.
        let builder = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .cluster_seed(11)
            .delta(Duration::from_secs(1))
            .payload_size(256);

        let topology = Topology::uniform(4, Duration::from_millis(1));
        let engines = builder.build(protocol);
        let mut sim = Simulation::new(
            topology,
            engines,
            FaultPlan::none(),
            SimConfig::with_seed(11),
        );
        sim.run_until(Time(Duration::from_secs(1).as_nanos()));
        let first = ReplicaId(0);
        let simulated = chain(
            sim.metrics()
                .commits
                .iter()
                .filter(|c| c.replica == first)
                .map(|c| &c.entry),
        );

        let reports = run_local_cluster(builder.build(protocol), std::time::Duration::from_secs(2));
        let socketed = chain(reports[0].commits.iter());

        let k = simulated.len().min(socketed.len());
        assert!(
            k >= PREFIX,
            "{protocol}: {} simulated and {} socketed commits, fewer than {PREFIX}",
            simulated.len(),
            socketed.len()
        );
        assert_eq!(
            simulated[..k],
            socketed[..k],
            "{protocol}: the simulated and socketed chains diverge"
        );
    }
}
