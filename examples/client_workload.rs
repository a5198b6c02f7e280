//! Drive a Banyan cluster from an **open-loop client workload** instead of
//! the paper's leader-minted payloads: one seeded client, paced at a fixed
//! rate whatever commits (the simulator's one client population, as a
//! single token-paced cohort), submits requests into per-replica mempools,
//! proposers drain them into blocks,
//! and the run reports end-to-end (submit→commit) latency alongside the
//! paper's proposer-measured latency.
//!
//! ```sh
//! cargo run --release --example client_workload
//! ```

use banyan::simnet::topology::Topology;
use banyan::types::time::Duration;
use banyan_bench::runner::{header, row, run, Scenario};

fn main() {
    let topology = Topology::uniform(4, Duration::from_millis(20));
    println!("open-loop clients vs leader-minted payloads, 4 replicas, 10 s\n");
    println!("{}", header());

    // Closed (paper) baseline: every block carries 100 KB of synthetic
    // bytes minted by the proposer; the e2e columns stay dashed.
    let closed = run(&Scenario::new("banyan", topology.clone(), 1, 1)
        .payload(100_000)
        .secs(10)
        .seed(7));
    assert!(closed.safe);
    println!("{}", row("banyan (leader-mint)", 100_000, &closed));

    // Open loop: 1000 requests/sec of 1 KB each, submitted to a seeded
    // random replica's mempool; blocks carry whatever is pending.
    let open = run(&Scenario::new("banyan", topology, 1, 1)
        .rate(1_000)
        .request_size(1_000)
        .secs(10)
        .seed(7));
    assert!(open.safe);
    println!("{}", row("banyan (open-loop)", 0, &open));

    let e2e = open.client_latency.as_ref().expect("open-loop run");
    println!(
        "\n{} of {} requests committed",
        open.requests_committed, open.counters.requests_submitted
    );
    println!(
        "proposer latency p50 {:.1} ms  |  client e2e p50 {:.1} ms / p99 {:.1} ms",
        open.latency.p50_ms, e2e.p50_ms, e2e.p99_ms
    );
    assert!(
        e2e.p50_ms >= open.latency.p50_ms,
        "submit→commit must dominate propose→commit"
    );
    println!("sanity holds: e2e latency ≥ proposer latency (mempool wait + consensus)");
}
