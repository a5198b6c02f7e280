//! `paper`: every table, figure and ablation of the paper's §9 behind one
//! binary.
//!
//! ```sh
//! cargo run --release -p banyan-bench --bin paper -- list
//! cargo run --release -p banyan-bench --bin paper -- fig6a 60
//! cargo run --release -p banyan-bench --bin paper -- explore --protocol icc --crashes 1
//! ```
//!
//! An experiment is a function in [`EXPERIMENTS`]. Eight of them only
//! build the list of [`Case`]s that [`table`] runs and prints in the
//! shared [`header`]/[`row`] layout; the rest print their own columns.
//! All of them get their outcomes from the [`Run`] they are handed:
//! [`Simulate`] from `main`, a checker that simulates nothing from the
//! tests.

use banyan_bench::runner::{header, human_bytes, row, run_with, Outcome, Scenario};
use banyan_core::model::render_table1;
use banyan_simnet::faults::FaultPlan;
use banyan_simnet::topology::Topology;
use banyan_types::config::ProtocolConfig;
use banyan_types::ids::ReplicaId;
use banyan_types::time::{Duration, Time};

/// One run of an experiment: its row label and what to simulate.
struct Case {
    label: String,
    scenario: Scenario,
    /// Rotate leaders by the seeded random beacon instead of round-robin
    /// (`ablation_beacon` only — the paper's evaluation has no such knob,
    /// so neither has [`Scenario`]).
    beacon: Option<u64>,
}

fn case(label: impl Into<String>, scenario: Scenario) -> Case {
    Case {
        label: label.into(),
        scenario,
        beacon: None,
    }
}

/// The paper's synthetic workload: `payload`-byte leader-minted blocks,
/// seed 42.
fn synthetic(
    protocol: &str,
    topology: &Topology,
    (f, p): (usize, usize),
    payload: u64,
    secs: u64,
) -> Scenario {
    Scenario::new(protocol, topology.clone(), f, p)
        .payload(payload)
        .secs(secs)
        .seed(42)
}

/// How an experiment turns a case into its outcome.
trait Run {
    fn run(&self, case: &Case) -> Outcome;
}

/// Runs the case through the shared runner and insists on safety.
struct Simulate;

impl Run for Simulate {
    fn run(&self, case: &Case) -> Outcome {
        let out = run_with(&case.scenario, |cluster| match case.beacon {
            Some(seed) => cluster.seeded_beacon(seed),
            None => cluster,
        });
        assert!(out.safe, "safety violation in {}", case.label);
        out
    }
}

/// Runs a block of cases, printing each in the shared [`row`] layout.
fn rows(run: &dyn Run, block: &[Case]) -> Vec<Outcome> {
    let run_and_print = |case: &Case| {
        let out = run.run(case);
        println!("{}", row(&case.label, case.scenario.payload, &out));
        out
    };
    block.iter().map(run_and_print).collect()
}

/// The shared layout: `title`, [`header`], then every block's [`rows`],
/// each followed by a blank line when `gap` is set.
fn table(run: &dyn Run, title: String, blocks: Vec<Vec<Case>>, gap: bool) {
    println!("{title}\n{}", header());
    for block in blocks {
        rows(run, &block);
        if gap {
            println!();
        }
    }
}

const PROTOCOLS: [&str; 4] = ["banyan", "icc", "hotstuff", "streamlet"];

/// `(label, protocol, (f, p))`: the five-way comparison of the n = 19
/// figures.
const N19_VARIANTS: [(&str, &str, (usize, usize)); 5] = [
    ("banyan f=6 p=1", "banyan", (6, 1)),
    ("banyan f=4 p=4", "banyan", (4, 4)),
    ("icc f=6", "icc", (6, 1)),
    ("hotstuff f=6", "hotstuff", (6, 1)),
    ("streamlet f=6", "streamlet", (6, 1)),
];

/// One block per payload size, one case per protocol variant — the shape
/// of Figures 6a, 6b and 6e.
fn payload_sweep(
    topology: &Topology,
    variants: &[(&str, &str, (usize, usize))],
    payloads: &[u64],
    secs: u64,
) -> Vec<Vec<Case>> {
    let block = |&payload: &u64| {
        let variant =
            |&(label, protocol, fp)| case(label, synthetic(protocol, topology, fp, payload, secs));
        variants.iter().map(variant).collect()
    };
    payloads.iter().map(block).collect()
}

/// n = 4, f = p = 1 on a uniform-δ topology with a tiny payload and
/// Δ = 1.5 δ for 30 s: latency / δ is the step count (Figure 1, Table 1).
fn uniform_delta(protocol: &str, one_way_ms: u64) -> Case {
    let topology = Topology::uniform(4, Duration::from_millis(one_way_ms));
    let delta = Duration::from_millis(one_way_ms * 3 / 2);
    let scenario = synthetic(protocol, &topology, (1, 1), 1_000, 30).delta(delta);
    case(protocol, scenario)
}

/// **Figure 1**: Banyan terminates after two communication steps; existing
/// rotating-leader BFT protocols need at least three.
///
/// On a uniform topology where every one-way delay is exactly δ and
/// payloads are negligible, the proposer-measured finalization latency
/// divided by δ *is* the protocol's communication-step count. We sweep δ
/// and report latency/δ for each protocol.
///
/// Expected: Banyan ≈ 2.0, ICC ≈ 3.0, HotStuff ≳ 6, Streamlet `O(Δ)` ≫ 3.
fn fig1_steps(run: &dyn Run) {
    println!("# Figure 1 — communication steps to finalization (latency / δ, uniform topology)");
    println!(
        "{:<12} {:>8} {:>12} {:>10} {:>8}",
        "protocol", "δ (ms)", "lat.mean", "steps", "fast%"
    );
    for one_way_ms in [20u64, 50, 100] {
        for protocol in PROTOCOLS {
            let out = run.run(&uniform_delta(protocol, one_way_ms));
            let steps = out.latency.mean_ms / one_way_ms as f64;
            println!(
                "{:<12} {:>8} {:>10.1}ms {:>10.2} {:>7.0}%",
                protocol,
                one_way_ms,
                out.latency.mean_ms,
                steps,
                out.fast_share * 100.0
            );
        }
        println!();
    }
    println!("(paper: Banyan = 2 steps, ICC/Simplex/Mysticeti/BBCA ≥ 3 steps — Table 1)");
}

/// **Figure 2**: integrated vs. sequential fast paths.
///
/// Bosco/Zelma/CoD-style designs run the fast path *first* and fall back
/// to the slow path only after it fails (a timeout or an explicit abort),
/// paying a switching cost. SBFT runs both but its fast path has an extra
/// step. Banyan integrates the two: when the fast path cannot fire, the
/// slow path has **already** been running — zero switching cost.
///
/// We emulate the comparison by making the fast path ineffective and
/// measuring Banyan's finalization latency against (a) ICC (the pure slow
/// path — Banyan should match it exactly) and (b) a hypothetical
/// sequential-fallback design whose latency is `fast-path timeout + slow
/// path` (computed analytically, as the paper's Fig. 2 does graphically).
///
/// The construction: n = 7, f = 2, p = 1 (the minimum n). The fast quorum
/// is n − p = 6, the slow quorum ⌈(7+2+1)/2⌉ = 5. Crash 2 → 5 live: the
/// slow path works, the fast path (needs 6) never fires.
fn fig2_switching(run: &dyn Run) {
    let one_way = 50u64;
    let delta_ms = one_way * 3 / 2;
    let topology = Topology::uniform(7, Duration::from_millis(one_way));
    println!("# Figure 2 — switching cost when the fast path is ineffective");
    println!("# n=7, f=2, p=1; 2 replicas crashed ⇒ fast path can never fire\n");
    let mut means = Vec::new();
    for (label, protocol) in [
        ("banyan (integrated)", "banyan"),
        ("icc (pure slow path)", "icc"),
    ] {
        let crashes = FaultPlan::none()
            .crash(ReplicaId(5), Time::ZERO)
            .crash(ReplicaId(6), Time::ZERO);
        let scenario = synthetic(protocol, &topology, (2, 1), 1_000, 30)
            .delta(Duration::from_millis(delta_ms))
            .faults(crashes);
        let out = run.run(&case(label, scenario));
        assert!(out.fast_share < 1e-9, "{label}: fast path must never fire");
        println!(
            "{:<22} lat.mean {:>7.1}ms  lat.p50 {:>7.1}ms  rounds {:>4}",
            label, out.latency.mean_ms, out.latency.p50_ms, out.committed_rounds
        );
        means.push(out.latency.mean_ms);
    }
    // The sequential-fallback strawman: wait a fast-path timeout (the
    // conservative 2Δ a deployment must allow for the fast round), then
    // run the slow path.
    let (banyan, slow) = (means[0], means[1]);
    let strawman = 2.0 * delta_ms as f64 + slow;
    println!(
        "{:<22} lat.mean {strawman:>7.1}ms  (analytic: 2Δ timeout + slow path)\n",
        "sequential fallback"
    );
    let overhead = (banyan - slow) / slow * 100.0;
    println!(
        "banyan overhead over pure slow path when fast path is dead: {overhead:+.1}% (paper: none)"
    );
    let penalty = (strawman - slow) / slow * 100.0;
    println!("sequential-fallback penalty: {penalty:+.1}%");
}

/// **Figure 6a**: throughput vs. proposal latency for n = 19 replicas
/// spread across 4 global datacenters (5 + 5 + 5 + 4), varying block size.
///
/// Paper reference points (§9.3): at 400 KB blocks, ICC averages 239 ms,
/// Banyan (f=6, p=1) 216 ms (≈10% better), Banyan (f=4, p=4) 179 ms
/// (25.1% better — closer to the theoretical 33% because the fast path can
/// exclude the furthest co-located stragglers).
fn fig6a(secs: u64, run: &dyn Run) {
    let title =
        format!("# Figure 6a — n=19 across 4 global datacenters (5/5/5/4), {secs}s per point");
    let payloads = [100_000, 200_000, 400_000, 800_000, 1_600_000];
    let testbed = Topology::four_global_19();
    let blocks = payload_sweep(&testbed, &N19_VARIANTS, &payloads, secs);
    table(run, title, blocks, true);
}

/// **Figure 6b**: throughput vs. proposal latency for n = 4 replicas
/// spread across 4 global datacenters, block sizes in 500 KB increments.
///
/// Paper reference points (§9.3): at 1 MB blocks, ICC averages 224 ms
/// proposal finalization; Banyan improves 29.9% to 157 ms. With n = 4 and
/// p = 1 the fast path fires after 3 = n − p replies, "the same conditions
/// as regular notarization".
fn fig6b(secs: u64, run: &dyn Run) {
    let title =
        format!("# Figure 6b — n=4, one replica per global datacenter (f=1), {secs}s per point");
    let variants = [
        ("banyan p=1", "banyan", (1, 1)),
        ("icc", "icc", (1, 1)),
        ("hotstuff", "hotstuff", (1, 1)),
        ("streamlet", "streamlet", (1, 1)),
    ];
    let payloads = [
        500_000, 1_000_000, 1_500_000, 2_000_000, 2_500_000, 3_000_000,
    ];
    let testbed = Topology::four_global_4();
    let blocks = payload_sweep(&testbed, &variants, &payloads, secs);
    table(run, title, blocks, true);
}

/// **Figure 6c**: variance of Banyan and ICC proposal latencies with 1 MB
/// payload and n = 4 (one replica per global datacenter).
///
/// The paper's claim: Banyan's ~30% latency win does **not** come at the
/// cost of higher variance. We print the full percentile ladder plus the
/// standard deviation for both protocols.
fn fig6c(secs: u64, run: &dyn Run) {
    println!("# Figure 6c — latency distribution, n=4 global, 1MB payload, {secs}s");
    println!(
        "{:<12} {:>7} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "protocol", "count", "mean", "std", "min", "p50", "p90", "p99", "max"
    );
    let testbed = Topology::four_global_4();
    for (label, protocol) in [("banyan p=1", "banyan"), ("icc", "icc")] {
        let scenario = synthetic(protocol, &testbed, (1, 1), 1_000_000, secs);
        let out = run.run(&case(label, scenario));
        let s = &out.latency;
        println!(
            "{:<12} {:>7} {:>8.1}m {:>7.1}m {:>7.1}m {:>7.1}m {:>7.1}m {:>7.1}m {:>7.1}m",
            label, s.count, s.mean_ms, s.std_ms, s.min_ms, s.p50_ms, s.p90_ms, s.p99_ms, s.max_ms
        );
    }
    println!("\n(paper: Banyan improves the mean ~29.9% at identical spread — std and the");
    println!(" p50→p99 ladder should shrink proportionally with the mean, not widen)");
}

/// **Figure 6d**: effect of crash-faults on throughput and block intervals
/// for n = 19 replicas spread across 4 US datacenters.
///
/// The paper's setup (§9.4): timeout 3 s; rotating-leader protocols lose a
/// full timeout whenever a crashed replica's turn comes. Claim: "there are
/// no penalties in trying to take the fast path — when there are failures,
/// the performance of Banyan is exactly the one of ICC."
///
/// We crash 0, 2, 4, 6 replicas at t = 0 and report throughput and mean
/// block interval for Banyan vs ICC.
fn fig6d(secs: u64, run: &dyn Run) {
    let payload = 400_000u64;
    println!(
        "# Figure 6d — crash faults, n=19 across 4 US datacenters, {} blocks, {secs}s, timeout 3s",
        human_bytes(payload)
    );
    println!(
        "{:<14} {:>8} {:>10} {:>12} {:>12} {:>8} {:>6}",
        "protocol", "crashed", "MB/s", "interval", "lat.mean", "rounds", "safe"
    );
    let testbed = Topology::four_us_19();
    for crashed in [0usize, 2, 4, 6] {
        for (label, protocol) in [("banyan f=6 p=1", "banyan"), ("icc f=6", "icc")] {
            // The paper sets the timeout to 3 s: the notarization delay for
            // rank-1 blocks (2Δ) is what gates recovery from a crashed
            // leader, so Δ = 1.5 s.
            let scenario = synthetic(protocol, &testbed, (6, 1), payload, secs)
                .delta(Duration::from_millis(1_500))
                .faults(FaultPlan::none().crash_spread(crashed, 19, Time::ZERO));
            let out = run.run(&case(label, scenario));
            println!(
                "{:<14} {:>8} {:>10.2} {:>10.0}ms {:>10.1}ms {:>8} {:>6}",
                label,
                crashed,
                out.throughput_mbps,
                out.block_interval_ms,
                out.latency.mean_ms,
                out.committed_rounds,
                if out.safe { "ok" } else { "UNSAFE" },
            );
        }
        println!();
    }
}

/// **Figure 6e**: throughput vs. proposal latency for n = 19 replicas
/// spread across a global network of 19 datacenters (one each).
///
/// Paper reference points (§9.5), 1 MB payloads: ICC 384 ms; Banyan
/// (f=6, p=1) 362 ms (−5.8%, "for free"); Banyan (f=4, p=4) 324 ms (−16%).
fn fig6e(secs: u64, run: &dyn Run) {
    let title = format!(
        "# Figure 6e — n=19, one replica in each of 19 global datacenters, {secs}s per point"
    );
    let payloads = [250_000, 500_000, 1_000_000, 2_000_000];
    let testbed = Topology::nineteen_global();
    let blocks = payload_sweep(&testbed, &N19_VARIANTS, &payloads, secs);
    table(run, title, blocks, true);
}

/// **Table 1**: analytic comparison of SMR protocols, plus measured
/// validation of the four implemented ones.
///
/// The analytic half reproduces the paper's table from closed-form
/// latencies and requirements (see `banyan_core::model`). The measured
/// half runs each implemented protocol on a uniform-δ topology and
/// reports latency/δ — which should land on the analytic step count.
fn table1(run: &dyn Run) {
    println!("# Table 1 (analytic) — instantiated at f=6, p*=1 (the paper's n=19 scenario)\n");
    println!("{}", render_table1(6, 1));
    println!("# Table 1 (analytic) — instantiated at f=4, p*=4\n");
    println!("{}", render_table1(4, 4));

    println!("# Measured step counts (uniform δ = 50 ms, n = 4, f = p = 1, tiny payload)\n");
    let one_way = 50u64;
    println!(
        "{:<12} {:>12} {:>10} {:>10}",
        "protocol", "lat.mean", "steps", "analytic"
    );
    for (protocol, analytic) in PROTOCOLS.iter().zip(["2δ", "3δ", "≥6δ", "6Δ"]) {
        let out = run.run(&uniform_delta(protocol, one_way));
        println!(
            "{:<12} {:>10.1}ms {:>10.2} {:>10}",
            protocol,
            out.latency.mean_ms,
            out.latency.mean_ms / one_way as f64,
            analytic
        );
    }
}

/// **Ablation**: round-robin rotation vs. a seeded random beacon.
///
/// The protocol specifies a random-beacon permutation per round (§3/§4);
/// the paper's evaluation swaps in round-robin "to increase predictability
/// and transparency" (§9.1, substitution R3 in `docs/ARCHITECTURE.md`). On
/// a symmetric topology the choice should not matter; on the heterogeneous
/// 19-DC global network it shifts which replicas lead how often within a
/// finite run, moving the mean a little. Either way: same safety, same
/// fast-path share.
fn ablation_beacon(secs: u64, run: &dyn Run) {
    let payload = 400_000u64;
    let title = format!(
        "# Ablation — leader schedule, banyan f=6 p=1, 19 global DCs, {} blocks, {secs}s",
        human_bytes(payload)
    );
    let testbed = Topology::nineteen_global();
    let scenario = synthetic("banyan", &testbed, (6, 1), payload, secs);
    let mut cases = vec![case("round-robin", scenario.clone())];
    for seed in [1u64, 2, 3] {
        cases.push(Case {
            beacon: Some(seed),
            ..case(format!("beacon seed={seed}"), scenario.clone())
        });
    }
    table(run, title, vec![cases], false);
}

/// **Ablation**: sensitivity to the `Δ` bound.
///
/// §9.2: the paper sets Δ_prop/Δ_notary "larger than the message delay
/// experienced without network disruptions". This experiment shows what
/// happens when Δ is set too small (higher-rank blocks start competing
/// with the leader's) or generously large (no cost in the fault-free
/// case, because delays only gate *non-leader* proposals — optimistic
/// responsiveness).
fn ablation_delta(secs: u64, run: &dyn Run) {
    let testbed = Topology::four_global_4();
    let base = testbed.max_one_way();
    let title = format!(
        "# Ablation — Δ sensitivity, n=4 global, 400KB, {secs}s (max one-way = {:.1} ms)",
        base.as_millis_f64()
    );
    let mut blocks = Vec::new();
    for (factor, num, den) in [
        ("0.25x", 1u64, 4u64),
        ("0.5x", 1, 2),
        ("1x", 1, 1),
        ("2x", 2, 1),
        ("4x", 4, 1),
    ] {
        let with_delta = |protocol| {
            let delta = Duration(base.as_nanos() * num / den);
            let scenario = synthetic(protocol, &testbed, (1, 1), 400_000, secs).delta(delta);
            case(format!("{protocol} Δ={factor}"), scenario)
        };
        blocks.push(["banyan", "icc"].map(with_delta).into());
    }
    table(run, title, blocks, true);
    println!("(too-small Δ lets higher ranks propose before the leader's block lands:");
    println!(" extra blocks, extra traffic, possible slow-path rounds — but never unsafety)");
}

/// **Ablation**: tip forwarding on/off.
///
/// §9.1 of the paper: "by forwarding blocks that extend the tip of the
/// chain, we drastically improve the performance of all algorithms
/// implemented with Bamboo". This experiment quantifies that choice for
/// Banyan and ICC on the n = 19 global testbed.
fn ablation_forwarding(secs: u64, run: &dyn Run) {
    let title =
        format!("# Ablation — tip forwarding, n=19 across 4 global datacenters, 400KB, {secs}s");
    let testbed = Topology::four_global_19();
    let block = |protocol| {
        let forwarding = |(label, on)| {
            let scenario = synthetic(protocol, &testbed, (6, 1), 400_000, secs).forwarding(on);
            case(format!("{protocol} fwd={label}"), scenario)
        };
        [("on", true), ("off", false)].map(forwarding).into()
    };
    table(run, title, ["banyan", "icc"].map(block).into(), true);
}

/// **Ablation**: the fast-path parameter `p`.
///
/// With n = 19 fixed, several `(f, p)` trade-offs are legal
/// (`n ≥ max(3f + 2p − 1, 3f + 1)`). Larger `p` means the fast path
/// tolerates more stragglers (fires with `n − p` votes) at the cost of
/// lower Byzantine resilience `f`. §9.3 argues p = f = 4 gets within 25%
/// of the theoretical maximum because co-located stragglers drop out of
/// the fast quorum.
fn ablation_p_sweep(secs: u64, run: &dyn Run) {
    let title = format!("# Ablation — p sweep at n=19, 4 global datacenters, 400KB, {secs}s");
    let testbed = Topology::four_global_19();
    // All (f, p) with p ∈ [1, f] that fit n = 19, preferring max f per p.
    let mut combos: Vec<(usize, usize)> = Vec::new();
    for p in 1..=6usize {
        let f = ProtocolConfig::max_faults(19, p);
        if f >= p && !combos.contains(&(f, p)) {
            combos.push((f, p));
        }
    }
    let mut cases = Vec::new();
    for (f, p) in combos {
        let scenario = synthetic("banyan", &testbed, (f, p), 400_000, secs);
        cases.push(case(format!("banyan f={f} p={p}"), scenario));
    }
    let reference = synthetic("icc", &testbed, (6, 1), 400_000, secs);
    cases.push(case("icc f=6 (reference)", reference));
    table(run, title, vec![cases], false);
}

/// **Ablation**: the Remark 7.8 fast-vote piggyback.
///
/// "It is possible to omit sending a corresponding notarization vote when
/// a fast vote is sent. A notarization then consists of two
/// multi-signatures." This saves one 64-byte signature per replica per
/// round in the happy path; this experiment quantifies the byte savings
/// and confirms latency is untouched.
fn ablation_piggyback(secs: u64, run: &dyn Run) {
    println!("# Ablation — Remark 7.8 fast-vote piggyback, banyan f=6 p=1, {secs}s");
    println!("{}", header());
    for (testbed, topology) in [
        ("4 global DCs n=19", Topology::four_global_19()),
        ("19 global DCs", Topology::nineteen_global()),
    ] {
        let piggyback = |(label, on)| {
            let scenario = synthetic("banyan", &topology, (6, 1), 400_000, secs).piggyback(on);
            case(format!("{testbed} piggyback={label}"), scenario)
        };
        let outs = rows(run, &[("off", false), ("on", true)].map(piggyback));
        let (off, on) = (&outs[0].counters, &outs[1].counters);
        let saved = off.bytes_sent as f64 - on.bytes_sent as f64;
        println!(
            "  -> bytes saved: {:.2} MB ({:.2}%), messages: {} -> {}\n",
            saved / 1e6,
            saved / off.bytes_sent as f64 * 100.0,
            off.messages_sent,
            on.messages_sent
        );
    }
}

const EXPLORE_FLAGS: &str = "    --protocol  banyan | icc | hotstuff | streamlet   (default banyan)
    --topology  four_global_19 | four_global_4 | four_us_19 |
                nineteen_global | uniform:<n>:<one-way-ms>        (default four_global_4)
    --f, --p    fault bound and fast-path parameter   (default 1, 1)
    --payload   block size in bytes                   (default 100000)
    --secs      simulated seconds                     (default 30)
    --seed      simulation seed                       (default 42)
    --crashes   crash this many replicas (spread) at t=0
    --delta-ms  override Δ in milliseconds
    --no-forwarding, --piggyback                      feature toggles";

fn parse_topology(spec: &str) -> Topology {
    match spec {
        "four_global_19" => Topology::four_global_19(),
        "four_global_4" => Topology::four_global_4(),
        "four_us_19" => Topology::four_us_19(),
        "nineteen_global" => Topology::nineteen_global(),
        other => {
            let rest = other.strip_prefix("uniform:");
            let mut it = rest
                .unwrap_or_else(|| panic!("unknown topology {other:?}"))
                .split(':')
                .map(|s| s.parse::<u64>().expect("uniform:<n>:<ms>"));
            let (n, ms) = (it.next(), it.next());
            let one_way = Duration::from_millis(ms.expect("uniform:<n>:<ms>"));
            Topology::uniform(n.expect("uniform:<n>:<ms>") as usize, one_way)
        }
    }
}

/// `explore`: any protocol on any testbed with custom parameters (all
/// flags optional; see [`EXPLORE_FLAGS`]).
fn explore(args: &[String], run: &dyn Run) {
    let value = |name: &str| {
        let at = args.iter().position(|a| a == name)?;
        args.get(at + 1).map(String::as_str)
    };
    let number =
        |name: &str, default: u64| value(name).and_then(|s| s.parse().ok()).unwrap_or(default);
    let has = |name: &str| args.iter().any(|a| a == name);
    let protocol = value("--protocol").unwrap_or("banyan");
    let topology = parse_topology(value("--topology").unwrap_or("four_global_4"));
    let (f, p) = (number("--f", 1) as usize, number("--p", 1) as usize);
    let (payload, secs) = (number("--payload", 100_000), number("--secs", 30));
    let crashes = number("--crashes", 0) as usize;
    let seed = number("--seed", 42);

    let n = topology.n();
    let mut scenario = synthetic(protocol, &topology, (f, p), payload, secs)
        .seed(seed)
        .forwarding(!has("--no-forwarding"))
        .piggyback(has("--piggyback"));
    if let Some(ms) = value("--delta-ms").and_then(|s| s.parse().ok()) {
        scenario = scenario.delta(Duration::from_millis(ms));
    }
    if crashes > 0 {
        scenario = scenario.faults(FaultPlan::none().crash_spread(crashes, n, Time::ZERO));
    }

    println!(
        "# explore — {protocol} on n={n} (f={f}, p={p}), {payload}B blocks, {secs}s, seed {seed}, {crashes} crashed"
    );
    println!("{}", header());
    let out = &rows(run, &[case(protocol, scenario)])[0];
    println!(
        "\nblock interval {:.0} ms · {} msgs · {:.1} MB on the wire · latency p99 {:.1} ms",
        out.block_interval_ms,
        out.counters.messages_sent,
        out.counters.bytes_sent as f64 / 1e6,
        out.latency.p99_ms,
    );
}

/// What an experiment takes on the command line.
enum Takes {
    /// Nothing: the duration is part of the experiment.
    Nothing(fn(&dyn Run)),
    /// `[secs]`, with this default.
    Secs(u64, fn(u64, &dyn Run)),
    /// Its own flags.
    Flags(fn(&[String], &dyn Run)),
}

/// The experiment index, in the paper's order.
const EXPERIMENTS: &[(&str, Takes)] = &[
    ("table1", Takes::Nothing(table1)),
    ("fig1_steps", Takes::Nothing(fig1_steps)),
    ("fig2_switching", Takes::Nothing(fig2_switching)),
    ("fig6a", Takes::Secs(60, fig6a)),
    ("fig6b", Takes::Secs(60, fig6b)),
    ("fig6c", Takes::Secs(120, fig6c)),
    ("fig6d", Takes::Secs(60, fig6d)),
    ("fig6e", Takes::Secs(60, fig6e)),
    ("ablation_beacon", Takes::Secs(30, ablation_beacon)),
    ("ablation_delta", Takes::Secs(30, ablation_delta)),
    ("ablation_forwarding", Takes::Secs(30, ablation_forwarding)),
    ("ablation_p_sweep", Takes::Secs(30, ablation_p_sweep)),
    ("ablation_piggyback", Takes::Secs(30, ablation_piggyback)),
    ("explore", Takes::Flags(explore)),
];

/// What `paper list` prints: every experiment and what it takes.
fn index() -> String {
    let mut out = String::new();
    for (name, takes) in EXPERIMENTS {
        out += &match takes {
            Takes::Nothing(_) => format!("{name}\n"),
            Takes::Secs(default, _) => format!("{name} [secs={default}]\n"),
            Takes::Flags(_) => format!("{name} [flags]\n{EXPLORE_FLAGS}\n"),
        };
    }
    out
}

/// Runs the experiment `args` names, with the arguments it takes.
fn dispatch(args: &[String], run: &dyn Run) -> Result<(), String> {
    let (name, rest) = args
        .split_first()
        .ok_or("usage: paper <experiment> [secs] | paper list")?;
    if name == "list" {
        print!("{}", index());
        return Ok(());
    }
    let (_, takes) = EXPERIMENTS
        .iter()
        .find(|(known, ..)| known == name)
        .ok_or(format!("unknown experiment {name:?}"))?;
    match (takes, rest) {
        (Takes::Nothing(experiment), []) => experiment(run),
        (Takes::Secs(default, experiment), []) => experiment(*default, run),
        (Takes::Secs(_, experiment), [secs]) => match secs.parse() {
            Ok(secs) => experiment(secs, run),
            Err(_) => return Err(format!("{name}: secs must be a number, got {secs:?}")),
        },
        (Takes::Flags(experiment), _) => experiment(rest, run),
        _ => return Err(format!("{name}: unexpected arguments {rest:?}")),
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(msg) = dispatch(&args, &Simulate) {
        eprint!("{msg}\n\n{}", index());
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Checks a case instead of running it: a known protocol and a valid
    /// `(n, f, p)` for its topology.
    struct Check(Cell<usize>);

    impl Run for Check {
        fn run(&self, case: &Case) -> Outcome {
            let s = &case.scenario;
            assert!(PROTOCOLS.contains(&s.protocol.as_str()), "{}", case.label);
            if let Err(e) = ProtocolConfig::new(s.topology.n(), s.f, s.p) {
                panic!("{}: {e:?}", case.label);
            }
            self.0.set(self.0.get() + 1);
            Outcome::default()
        }
    }

    /// Every name `paper list` prints resolves, exactly once, to an
    /// experiment whose every scenario is well-formed. Scenarios are
    /// built and checked, never simulated.
    #[test]
    fn every_listed_experiment_resolves_to_valid_scenarios() {
        let index = index();
        let listed: Vec<&str> = index
            .lines()
            .filter(|line| !line.starts_with(' '))
            .map(|line| line.split_whitespace().next().expect("a name"))
            .collect();
        assert_eq!(listed.len(), 14);
        for (i, name) in listed.iter().enumerate() {
            assert!(!listed[..i].contains(name), "{name} listed twice");
            let check = Check(Cell::new(0));
            dispatch(&[name.to_string()], &check).expect(name);
            assert!(check.0.get() > 0, "{name} runs nothing");
        }
    }

    #[test]
    fn secs_must_be_numeric_and_fixed_experiments_take_nothing() {
        let try_args = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            dispatch(&args, &Check(Cell::new(0)))
        };
        assert!(try_args(&["fig6c", "2"]).is_ok());
        assert!(try_args(&["fig6c", "two"]).is_err());
        assert!(try_args(&["fig6c", "2", "3"]).is_err());
        assert!(try_args(&["fig1_steps", "2"]).is_err());
        assert!(try_args(&["fig7"]).is_err());
        assert!(try_args(&[]).is_err());
    }
}
