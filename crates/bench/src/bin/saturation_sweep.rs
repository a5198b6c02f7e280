//! **Saturation sweep**: closed-loop clients vs goodput and end-to-end
//! latency, for the chained (Banyan), HotStuff and Streamlet engines.
//!
//! FnF-BFT and Moonshot evaluate with a closed-loop client population —
//! N clients, each keeping a bounded window of outstanding requests and
//! resubmitting on commit — and sweep N to find the saturation knee: the
//! point past which added clients buy queueing latency, not goodput.
//! This harness reproduces that methodology on the simulated WAN. Every
//! run is a deterministic function of the seed, so the whole table
//! reproduces bit-for-bit.
//!
//! Run: `cargo run --release -p banyan-bench --bin saturation_sweep -- \
//!       [--quick] [--json] [--gossip] [--retry-ms N] [--fanout-tree F] \
//!       [--restart] [--optimistic] [--crypto] [--cohorts] \
//!       [--assert-no-drop] [--assert-max-dups] [--assert-rpc] [--assert-crypto] \
//!       [--assert-gossip-bytes] [secs]`
//!  or `… --bin saturation_sweep -- --write-goldens`
//!
//! * `--quick` shrinks the sweep to a CI-sized smoke test;
//! * `--json` emits one machine-readable JSON object per protocol
//!   (`banyan_bench::sweep::sweep_json`) instead of the table, for the
//!   bench trajectory (`BENCH_*.json`) and CI;
//! * `--gossip` and `--retry-ms N` enable the request-dissemination layer
//!   (plus a drain phase sized to the retry period, so loss accounting
//!   settles);
//! * `--fanout-tree F` switches gossip to **propagation-limited** mode:
//!   pushes travel a degree-`F` tree (ring successor + lowest-delay
//!   peers) through bounded per-peer queues, each flush taking a bounded
//!   share, relays going out as compact announce records (with or
//!   without `--gossip`);
//! * `--restart` schedules two staggered crash-and-rejoin restarts
//!   (replicas 1 then 2) per point: each drops all volatile state,
//!   rebuilds from its durable snapshot, and catches up over ranged
//!   sync — the sync/served/rec.ms columns then go nonzero. Combine
//!   with `--gossip --retry-ms N --assert-no-drop` for the rolling-
//!   restart zero-loss gate;
//! * `--optimistic` sweeps Moonshot-style optimistic proposal
//!   pipelining (the round-`r + 1` leader proposes on the
//!   received-but-uncertified round-`r` block), which only ICC runs: the
//!   banyan row gives way to a `chained (icc)` row swept with and
//!   without the flag, so the two columns sit side by side;
//! * `--crypto` switches the harness to the **measured-crypto sweep**:
//!   the banyan engine is swept at n=4 in all three [`CryptoMode`]s
//!   (off / unbatched / batched — the sigs/batches/cacheh/vcpu.ms
//!   columns go live), then the batched configuration is scaled over a
//!   geo-distributed cluster of n ∈ {4, 8, 16, 32, 64} replicas cycled
//!   through the real AWS region catalog;
//! * `--cohorts` sweeps **cohort-aggregated modeled populations** (10³ up
//!   to 10⁶ modeled clients folded into 64 cohorts, token-paced, with a
//!   global admission cap) instead of one cohort per client — memory
//!   stays `O(cohorts)` regardless of the modeled population;
//! * `--assert-no-drop` exits nonzero if any past-knee point falls below
//!   90% of the plateau goodput or, with retry/gossip on, loses requests
//!   — the regression gate for the dissemination layer;
//! * `--assert-max-dups` exits nonzero if a protocol's duplicate
//!   inclusions exceed 1% of its committed requests — the regression
//!   gate for the ancestor-aware drain (run it with `--gossip`, where
//!   every pool holds a copy of what the uncommitted ancestors carry);
//! * `--assert-rpc` (requires `--optimistic`) exits nonzero unless the
//!   icc row's rounds-per-commit with optimism on is strictly below its
//!   flag-off baseline *and* its knee p50 latency does not regress — the
//!   gate for the pipelining win itself;
//! * `--assert-crypto` (requires `--crypto`) exits nonzero unless both
//!   crypto-on knees stay within 1.5× of crypto-off goodput, the batched
//!   run actually batched and was charged strictly less verify CPU than
//!   unbatched at no less goodput, and (with retry/gossip on) no point
//!   lost a request — the gate that keeps crypto-on the viable measured
//!   configuration;
//! * `--assert-gossip-bytes` (requires `--fanout-tree`) exits nonzero
//!   unless an n=8 comparison shows tree gossip bytes/request at most
//!   50% of broadcast gossip with zero request loss, and — with
//!   `--cohorts` — every protocol's saturation knee sits at ≥ 10⁵
//!   modeled clients;
//! * `secs` overrides the per-point measured duration;
//! * `--write-goldens`, alone, rewrites the report of every CI flag set
//!   ([`GOLDENS`]) in `crates/bench/tests/goldens/`, which this binary's
//!   test regenerates and compares line by line; a report with a failed
//!   gate is never written, and fails that test.
//!
//! An unknown argument or a value that does not parse is an error naming
//! it. Without dissemination flags each request sits in one pool and
//! there is no drain phase: a block that never finalizes hands its
//! requests back to its pool, and the lost column counts the requests
//! still in a block when the run stops. With `--gossip` and `--retry-ms`,
//! a drain phase lets those commit too, and lost must read 0.

use banyan_bench::flags::{unknown, Flags};
use banyan_bench::goldens;
use banyan_bench::runner::{CryptoMode, Gossip, Scenario, Workload};
use banyan_bench::sweep::{
    knee_index, knee_p50_ms, mean_rounds_per_commit, measure, measure_cohorts, point_row,
    sweep_header, sweep_json, SweepPoint,
};
use banyan_simnet::topology::Topology;
use banyan_simnet::AWS_REGIONS;
use banyan_types::time::Duration;

/// What shapes the sweep, and the scenario every point starts from.
struct Args {
    quick: bool,
    json: bool,
    restart: bool,
    optimistic: bool,
    crypto: bool,
    cohorts: bool,
    assert_no_drop: bool,
    assert_max_dups: bool,
    assert_rpc: bool,
    assert_crypto: bool,
    assert_gossip_bytes: bool,
    secs: Option<u64>,
    write_goldens: bool,
    /// Every point's scenario before its protocol and population are set:
    /// the main sweep's cluster, `REQUEST_SIZE`-byte requests, seed
    /// `SEED`, the run length, and the gossip shape, retry and drain phase
    /// the flags ask for.
    base: Scenario,
}

/// Requests are 512 B and every run is seeded with 42, in every sweep.
const REQUEST_SIZE: u64 = 512;
const SEED: u64 = 42;

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        json: false,
        restart: false,
        optimistic: false,
        crypto: false,
        cohorts: false,
        assert_no_drop: false,
        assert_max_dups: false,
        assert_rpc: false,
        assert_crypto: false,
        assert_gossip_bytes: false,
        secs: None,
        write_goldens: false,
        // 100 Mbit/s egress: tight enough that block serialization — not
        // the sweep's upper population bound — caps goodput, so the knee
        // falls inside the swept range.
        base: Scenario::new(
            "banyan",
            Topology::uniform(4, Duration::from_millis(5)).with_egress_bps(100_000_000),
            1,
            1,
        )
        .request_size(REQUEST_SIZE)
        .seed(SEED),
    };
    let mut flags = Flags::new(raw);
    while let Some(flag) = flags.next() {
        match flag {
            "--quick" => args.quick = true,
            "--json" => args.json = true,
            "--restart" => args.restart = true,
            "--optimistic" => args.optimistic = true,
            "--crypto" => args.crypto = true,
            "--cohorts" => args.cohorts = true,
            "--assert-no-drop" => args.assert_no_drop = true,
            "--assert-max-dups" => args.assert_max_dups = true,
            "--assert-rpc" => args.assert_rpc = true,
            "--assert-crypto" => args.assert_crypto = true,
            "--assert-gossip-bytes" => args.assert_gossip_bytes = true,
            "--write-goldens" => args.write_goldens = true,
            // A tree is gossip too: `--gossip` leaves one in place.
            "--gossip" if args.base.gossip == Gossip::Off => args.base.gossip = Gossip::Broadcast,
            "--gossip" => {}
            "--fanout-tree" => match flags.value(flag)? {
                0 => return Err("--fanout-tree takes a positive tree degree".to_string()),
                degree => args.base.gossip = Gossip::Tree(degree),
            },
            "--retry-ms" => {
                let ms = flags.value(flag)?;
                args.base = args.base.retry_timeout(Duration::from_millis(ms));
            }
            bare => args.secs = Some(bare.parse().map_err(|_| unknown(bare))?),
        }
    }
    if args.assert_rpc && !args.optimistic {
        return Err("--assert-rpc compares the optimistic rows; pass --optimistic".into());
    }
    if args.assert_crypto && !args.crypto {
        return Err("--assert-crypto gates the crypto sweep; pass --crypto".into());
    }
    if args.assert_gossip_bytes && !matches!(args.base.gossip, Gossip::Tree(_)) {
        return Err("--assert-gossip-bytes compares a fanout tree; pass --fanout-tree".into());
    }
    let default_secs = if args.quick {
        2
    } else if args.crypto {
        8
    } else {
        10
    };
    args.base.secs = args.secs.unwrap_or(default_secs);
    args.base.drain_secs = drain_secs(&args.base);
    Ok(args)
}

/// The drain phase a scenario's request path needs: three retry periods
/// (500 ms periods without retry), at least 2 s, so loss accounting
/// settles; none when requests are neither gossiped nor retried.
fn drain_secs(scenario: &Scenario) -> u64 {
    match &scenario.workload {
        Workload::Clients(load) if scenario.gossip != Gossip::Off || load.retry.is_some() => {
            let period = load.retry.unwrap_or(Duration::from_millis(500));
            (3 * period.as_nanos()).div_ceil(1_000_000_000).max(2)
        }
        _ => 0,
    }
}

/// The CI flag sets whose reports `crates/bench/tests/goldens/` pins, as
/// `(file stem, flags)`, plus the restart set: the one that drives
/// Streamlet's ranged sync and both baselines' restarts.
#[rustfmt::skip]
const GOLDENS: &[(&str, &str)] = &[
    ("quick", "--quick 1"),
    ("gossip", "--quick 1 --json --gossip --retry-ms 200 --assert-no-drop --assert-max-dups"),
    ("optimistic", "--quick 1 --json --gossip --retry-ms 200 --optimistic --assert-max-dups --assert-rpc"),
    ("cohorts", "--quick 1 --json --cohorts --fanout-tree 2 --assert-gossip-bytes"),
    ("crypto", "--crypto --quick --json --gossip --retry-ms 250 --assert-crypto"),
    ("restart", "--quick 1 --json --gossip --retry-ms 200 --restart"),
];

/// The report of one flag set as its golden holds it: a line naming the
/// flags, what the sweep printed, then one line per failed gate.
fn golden_report(flags: &str) -> String {
    let raw: Vec<String> = flags.split_whitespace().map(String::from).collect();
    let mut text = format!("# saturation_sweep {}\n", raw.join(" "));
    let failures = match parse_args(&raw) {
        Ok(args) => sweep(&args, &mut |line| text.push_str(line)),
        Err(message) => vec![message],
    };
    for failure in failures {
        text.push_str(&format!("FAIL: {failure}\n"));
    }
    text
}

/// A report's failed gates, its `FAIL:` lines, as an error: a golden pins
/// a passing sweep, never a failing one.
fn passed(report: &str) -> Result<(), String> {
    let failed: Vec<&str> = report.lines().filter(|l| l.starts_with("FAIL:")).collect();
    match failed.as_slice() {
        [] => Ok(()),
        lines => Err(lines.join("\n")),
    }
}

/// `--write-goldens`: regenerates every golden in place, refusing one
/// whose report fails a gate.
fn write_goldens() -> Result<(), String> {
    for (stem, flags) in GOLDENS {
        let report = golden_report(flags);
        passed(&report).map_err(|failed| format!("saturation_sweep {flags}:\n{failed}"))?;
        goldens::write(stem, &report).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Writes one line of a sweep's report to `out`.
macro_rules! say {
    ($out:expr, $($fmt:tt)*) => {
        $out(&format!("{}\n", format_args!($($fmt)*)))
    };
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    });
    let failures = match (args.write_goldens, raw.len()) {
        (false, _) => sweep(&args, &mut |text| print!("{text}")),
        (true, 1) => write_goldens().err().into_iter().collect(),
        (true, _) => vec!["--write-goldens takes no other argument".to_string()],
    };
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// Runs the sweep `args` select, writing its report to `out`, and returns
/// the gates it failed.
fn sweep(args: &Args, out: &mut dyn FnMut(&str)) -> Vec<String> {
    if args.crypto {
        return crypto_sweep(args, out);
    }
    let secs = args.base.secs;
    let populations: &[u16] = if args.quick {
        &[1, 4, 16, 64]
    } else {
        &[1, 2, 4, 8, 16, 32, 64, 128, 256]
    };
    // Modeled populations for `--cohorts`: each point folds the whole
    // population into COHORT_COUNT token-paced cohorts, so sweeping to a
    // million clients costs the same workload memory as sweeping to one.
    let cohort_populations: &[u64] = if args.quick {
        &[1_000, 10_000, 100_000, 1_000_000]
    } else {
        &[1_000, 10_000, 100_000, 300_000, 1_000_000]
    };
    const COHORT_COUNT: u16 = 64;
    // Well above the sweep's bandwidth-delay product (~130 requests at
    // the plateau) but small enough that an overloaded point cannot
    // drain huge batches into every proposal until serialization blows
    // the protocol timeout. 256 = the closed-loop quick sweep's top
    // point (64 clients × window 4), a known-sustainable pool depth.
    const MAX_OUTSTANDING: u64 = 256;
    // One request per modeled member per 25 s: 10⁵ clients offer ~4k req/s
    // (around the n=4 plateau) and 10⁶ offer ~40k (far past it), so the
    // knee lands inside the modeled range instead of at the first point.
    const MEMBER_INTERVAL_SECS: u64 = 25;
    let window = 4;
    let think = Duration::ZERO;
    let drain_secs = args.base.drain_secs;

    if !args.json {
        say!(
            out,
            "# Saturation sweep — n=4 uniform 5 ms WAN at 100 Mbit/s egress, window={window}, \
             {REQUEST_SIZE} B requests, think=0, {secs}s per point, seed={SEED}"
        );
        out("# goodput = committed requests/s; knee = first point at 90% of plateau goodput\n");
        match &args.base.workload {
            Workload::Clients(load) if drain_secs > 0 => say!(
                out,
                "# dissemination on (gossip={:?}, retry_ms={:?}), drain={drain_secs}s: lost must be 0\n",
                args.base.gossip,
                load.retry.map(Duration::as_millis_f64),
            ),
            _ => say!(
                out,
                "# dissemination off: one pool per request and no drain phase, so the lost\n\
                 # column counts requests still in a block when the run stops\n"
            ),
        }
        if args.cohorts {
            say!(
                out,
                "# cohort workload: modeled clients folded into {COHORT_COUNT} cohorts, one \
                 request per member per {MEMBER_INTERVAL_SECS}s, admission cap {MAX_OUTSTANDING}\n"
            );
        }
    }

    // (label, protocol, optimistic). With --optimistic the icc engine —
    // the only one that pipelines — is swept both ways so the comparison
    // (and the --assert-rpc gate) reads straight off the table.
    let rows: Vec<(&str, &str, bool)> = if args.optimistic {
        vec![
            ("chained (icc)", "icc", false),
            ("chained (icc, optimistic)", "icc", true),
            ("hotstuff", "hotstuff", false),
            ("streamlet", "streamlet", false),
        ]
    } else {
        vec![
            ("chained (banyan)", "banyan", false),
            ("hotstuff", "hotstuff", false),
            ("streamlet", "streamlet", false),
        ]
    };
    let mut failures: Vec<String> = Vec::new();
    let mut icc_pair: [Option<Vec<SweepPoint>>; 2] = [None, None];
    for (label, protocol, optimistic) in rows {
        let mut base = Scenario {
            protocol: protocol.to_string(),
            optimistic,
            ..args.base.clone()
        };
        if args.restart {
            // Two staggered rolling restarts inside the measured window:
            // replica 1 is down for the second quarter, replica 2 for the
            // third, so the cluster always keeps n − f live replicas.
            let q = Duration::from_millis(secs * 250);
            base = base.restart(1, q, q.saturating_mul(2)).restart(
                2,
                q.saturating_mul(2),
                q.saturating_mul(3),
            );
        }
        let points: Vec<SweepPoint> = if args.cohorts {
            let cohort_base = base
                .clone()
                .member_interval(Duration::from_secs(MEMBER_INTERVAL_SECS))
                .max_outstanding(MAX_OUTSTANDING);
            cohort_populations
                .iter()
                .map(|&modeled| measure_cohorts(&cohort_base, modeled, COHORT_COUNT, window, think))
                .collect()
        } else {
            populations
                .iter()
                .map(|&clients| measure(&base, clients, window, think))
                .collect()
        };
        let knee = knee_index(&points);
        if protocol == "icc" {
            icc_pair[usize::from(optimistic)] = Some(points.clone());
        }

        if args.json {
            let tag = if optimistic {
                format!("{protocol}+optimistic")
            } else {
                protocol.to_string()
            };
            say!(out, "{}", sweep_json(&tag, &points));
        } else {
            print_table(out, &format!("## {label}"), &points);
            match knee {
                Some(i) => say!(
                    out,
                    "saturates at ~{} clients: {:.0} req/s goodput, p50 {:.1} ms / p99 {:.1} ms\n",
                    points[i].clients,
                    points[i].out.goodput_rps,
                    points[i].p50_ms(),
                    points[i].p99_ms()
                ),
                None => say!(out, "no goodput observed — sweep too short?\n"),
            }
        }

        if args.assert_no_drop {
            check_no_drop(label, &points, knee, drain_secs > 0, &mut failures);
        }
        if args.assert_max_dups {
            check_max_dups(label, &points, &mut failures);
        }
        if args.assert_gossip_bytes && args.cohorts {
            match knee {
                Some(i) if points[i].clients >= 100_000 => {}
                Some(i) => failures.push(format!(
                    "{label}: saturation knee at {} modeled clients — below the 1e5 floor",
                    points[i].clients
                )),
                None => failures.push(format!("{label}: sweep committed nothing")),
            }
        }
    }

    if args.assert_rpc {
        check_rpc(&icc_pair, &mut failures);
    }
    if args.assert_gossip_bytes {
        check_gossip_bytes(args, out, &mut failures);
    }

    failures
}

/// One sweep as a titled table, the knee marked.
fn print_table(out: &mut dyn FnMut(&str), title: &str, points: &[SweepPoint]) {
    let knee = knee_index(points);
    say!(out, "{title}\n{}", sweep_header());
    for (i, p) in points.iter().enumerate() {
        say!(out, "{}", point_row(p, knee == Some(i)));
    }
}

/// The measured-crypto sweep (`--crypto`): banyan at n=4 in all three
/// crypto modes, then the batched configuration scaled over
/// geo-distributed clusters of 4…64 replicas cycled through the AWS
/// region catalog. Every run charges the calibrated per-verify CPU cost
/// in virtual time, so the goodput deltas between the modes *are* the
/// crypto bill.
fn crypto_sweep(args: &Args, out: &mut dyn FnMut(&str)) -> Vec<String> {
    let secs = args.base.secs;
    let populations: &[u16] = if args.quick {
        &[4, 16, 64]
    } else {
        &[4, 8, 16, 32, 64, 128]
    };
    let window = 4;
    let think = Duration::ZERO;
    let disseminating = args.base.drain_secs > 0;

    if !args.json {
        say!(
            out,
            "# Measured-crypto sweep — banyan, window={window}, {REQUEST_SIZE} B requests, \
             think=0, {secs}s per point, seed={SEED}"
        );
        say!(
                out,
            "# modes: off = placeholder hashes, free; unbatched = toy Schnorr, one equation per \
             signature; batched = RLC vote batching + compact certs + verdict cache\n\
             # vcpu.ms charges an Ed25519-class cost model (40 µs/sig, 15 µs + 20 µs/sig batched)\n"
        );
    }

    let mut failures: Vec<String> = Vec::new();
    let mut knees: [Option<SweepPoint>; 3] = [None, None, None];
    let mut all_points: Vec<Vec<SweepPoint>> = Vec::new();
    let modes = [CryptoMode::Off, CryptoMode::Unbatched, CryptoMode::Batched];
    for (i, &mode) in modes.iter().enumerate() {
        // The default 1 Gbit/s egress: crypto CPU, not serialization,
        // should be the contended resource this sweep measures.
        let base = Scenario {
            topology: Topology::uniform(4, Duration::from_millis(5)),
            crypto: mode,
            ..args.base.clone()
        };
        let points: Vec<SweepPoint> = populations
            .iter()
            .map(|&clients| measure(&base, clients, window, think))
            .collect();
        let knee = knee_index(&points);
        knees[i] = knee.map(|k| points[k].clone());
        let mode = mode.label();
        if args.json {
            say!(
                out,
                "{}",
                sweep_json(&format!("banyan+crypto-{mode}"), &points)
            );
        } else {
            print_table(out, &format!("## banyan, crypto {mode} (n=4)"), &points);
            out("\n");
        }
        all_points.push(points);
    }

    // Geo scale: the batched (measured) configuration over clusters spread
    // across the real AWS regions, one saturating population per size.
    let sizes: &[usize] = if args.quick {
        &[4, 8, 16]
    } else {
        &[4, 8, 16, 32, 64]
    };
    if !args.json {
        out("## banyan, crypto batched — geo scale (AWS regions, f = ⌊(n−1)/3⌋)\n");
        say!(out, "{:>4} {}", "n", sweep_header());
    }
    for &n in sizes {
        let sites: Vec<_> = (0..n).map(|i| AWS_REGIONS[i % AWS_REGIONS.len()]).collect();
        let base = Scenario {
            topology: Topology::from_sites(&sites),
            f: (n - 1) / 3,
            crypto: CryptoMode::Batched,
            ..args.base.clone()
        };
        let p = measure(&base, 32, window, think);
        if args.json {
            let json = sweep_json(
                &format!("banyan+crypto-batched-n{n}"),
                std::slice::from_ref(&p),
            );
            say!(out, "{json}");
        } else {
            say!(out, "{:>4} {}", n, point_row(&p, false));
        }
        if p.out.requests_committed == 0 {
            failures.push(format!("geo n={n}: nothing committed"));
        }
        if disseminating {
            check_no_loss(
                &format!("geo n={n}"),
                std::slice::from_ref(&p),
                &mut failures,
            );
        }
        if p.out.counters.sigs_verified == 0 || p.out.counters.verify_batches == 0 {
            failures.push(format!(
                "geo n={n}: crypto plane idle (sigs={} batches={})",
                p.out.counters.sigs_verified, p.out.counters.verify_batches
            ));
        }
    }
    if !args.json {
        out("\n");
    }

    if args.assert_crypto {
        check_crypto(&knees, &all_points, disseminating, &mut failures);
    }
    failures
}

/// The crypto-viability gate (`--assert-crypto`): at the n=4 knee,
/// turning full crypto on — batched or not — may cost at most 1.5× in
/// goodput against the free placeholder scheme; batching must show real
/// batches (otherwise the mode silently degraded to per-signature
/// checking and the comparison is vacuous) and be charged strictly less
/// verify CPU than the unbatched configuration it optimizes, at no less
/// goodput. Goodput alone cannot tell the two apart: the engine checks
/// each piece of evidence once, and what remains no longer binds the
/// n=4 knee. Cert-cache hits are not required here — every simulated
/// replica owns its backend and its engine seldom offers it one
/// certificate twice (see `transport::pipeline` for hits across verifiers
/// that share a backend). With retry/gossip on, no point may lose a
/// request.
fn check_crypto(
    knees: &[Option<SweepPoint>; 3],
    all_points: &[Vec<SweepPoint>],
    disseminating: bool,
    failures: &mut Vec<String>,
) {
    let [off, unbatched, batched] = knees;
    for (mode, on) in [("unbatched", unbatched), ("batched", batched)] {
        match (off, on) {
            (Some(o), Some(c)) if c.out.goodput_rps * 1.5 >= o.out.goodput_rps => {}
            (o, c) => failures.push(format!(
                "crypto {mode} knee goodput worse than 1.5x off ({mode}={:?} off={:?} req/s)",
                c.as_ref().map(|p| p.out.goodput_rps),
                o.as_ref().map(|p| p.out.goodput_rps),
            )),
        }
    }
    // (vcpu ms, req/s) at a knee.
    let bill = |p: &SweepPoint| (p.out.counters.verify_cpu_ms, p.out.goodput_rps);
    match (unbatched.as_ref().map(bill), batched.as_ref().map(bill)) {
        (Some(u), Some(b)) if b.0 < u.0 && b.1 >= u.1 => {}
        (u, b) => failures.push(format!(
            "batched knee not charged strictly less verify CPU than unbatched at no less \
             goodput (batched={b:?} unbatched={u:?} as (vcpu ms, req/s))"
        )),
    }
    if let Some(b) = batched {
        if b.out.counters.sigs_verified == 0 || b.out.counters.verify_batches == 0 {
            failures.push(format!(
                "batched knee shows an idle crypto plane (sigs={} batches={})",
                b.out.counters.sigs_verified, b.out.counters.verify_batches
            ));
        }
    }
    if let Some(u) = unbatched {
        if u.out.counters.verify_batches != 0 || u.out.counters.cert_cache_hits != 0 {
            failures.push(format!(
                "unbatched mode batched or cached anyway (batches={} cache_hits={})",
                u.out.counters.verify_batches, u.out.counters.cert_cache_hits
            ));
        }
    }
    if disseminating {
        for (mode, points) in ["off", "unbatched", "batched"].iter().zip(all_points) {
            check_no_loss(&format!("crypto {mode}"), points, failures);
        }
    }
}

/// The optimistic-pipelining gate: comparing the icc sweeps with and
/// without the flag, pipelining must strictly shorten the mean
/// rounds-per-commit and must not regress commit latency at the knee.
fn check_rpc(icc_pair: &[Option<Vec<SweepPoint>>; 2], failures: &mut Vec<String>) {
    let (Some(off), Some(on)) = (&icc_pair[0], &icc_pair[1]) else {
        failures.push("--assert-rpc: missing an icc sweep to compare".to_string());
        return;
    };
    match (mean_rounds_per_commit(off), mean_rounds_per_commit(on)) {
        (Some(base), Some(opt)) if opt < base => {}
        (base, opt) => failures.push(format!(
            "icc: optimistic rounds-per-commit not strictly below baseline (on={opt:?} off={base:?})"
        )),
    }
    match (knee_p50_ms(off), knee_p50_ms(on)) {
        (Some(base), Some(opt)) if opt <= base => {}
        (base, opt) => failures.push(format!(
            "icc: optimistic knee p50 regressed (on={opt:?} off={base:?} ms)"
        )),
    }
}

/// The ancestor-aware drain's regression gate: across the whole sweep, a
/// protocol's duplicate inclusions must stay within 1% of its committed
/// requests. A drain blind to the chain blows far past this under gossip
/// for protocols with commit lag (HotStuff/Streamlet).
fn check_max_dups(protocol: &str, points: &[SweepPoint], failures: &mut Vec<String>) {
    let committed: u64 = points.iter().map(|p| p.out.requests_committed).sum();
    let duplicates: u64 = points.iter().map(|p| p.out.duplicates_suppressed).sum();
    if committed == 0 {
        failures.push(format!("{protocol}: sweep committed nothing"));
        return;
    }
    if duplicates as f64 > 0.01 * committed as f64 {
        failures.push(format!(
            "{protocol}: {duplicates} duplicate inclusions exceed 1% of {committed} committed"
        ));
    }
}

/// The propagation-limited gossip gate (`--assert-gossip-bytes`): on an
/// n=8 cluster, routing pushes down a degree-F fanout tree (relays as
/// compact announce records) must cost at most half the gossip bytes per
/// request of full broadcast, and neither configuration may lose a
/// request — bounded fanout trades bytes for hops, not for durability.
fn check_gossip_bytes(args: &Args, out: &mut dyn FnMut(&str), failures: &mut Vec<String>) {
    let Gossip::Tree(degree) = args.base.gossip else {
        return;
    };
    // The gate's own fixed request path — gossip with a 250 ms retry — on
    // its own cluster, whatever the sweep above ran with.
    let mk = |gossip| {
        let mut scenario = Scenario {
            topology: Topology::uniform(8, Duration::from_millis(5)).with_egress_bps(100_000_000),
            f: 2,
            gossip,
            ..args.base.clone()
        }
        .retry_timeout(Duration::from_millis(250));
        scenario.drain_secs = drain_secs(&scenario);
        scenario
    };
    let broadcast = measure(&mk(Gossip::Broadcast), 32, 4, Duration::ZERO);
    let tree = measure(&mk(Gossip::Tree(degree)), 32, 4, Duration::ZERO);
    if !args.json {
        say!(
            out,
            "## gossip bytes gate — banyan n=8, 32 clients: broadcast {:.1} B/req vs \
             fanout-tree({}) {:.1} B/req\n",
            broadcast.gossip_bytes_per_req(),
            degree,
            tree.gossip_bytes_per_req()
        );
    }
    if broadcast.gossip_bytes_per_req() <= 0.0
        || broadcast.out.requests_committed == 0
        || tree.out.requests_committed == 0
    {
        failures.push(format!(
            "gossip-bytes gate vacuous (broadcast {:.1} B/req, {} committed; tree {} committed)",
            broadcast.gossip_bytes_per_req(),
            broadcast.out.requests_committed,
            tree.out.requests_committed
        ));
        return;
    }
    if tree.gossip_bytes_per_req() > 0.5 * broadcast.gossip_bytes_per_req() {
        failures.push(format!(
            "fanout tree spends {:.1} gossip B/req — more than 50% of broadcast's {:.1}",
            tree.gossip_bytes_per_req(),
            broadcast.gossip_bytes_per_req()
        ));
    }
    check_no_loss("gossip-bytes gate, broadcast", &[broadcast], failures);
    check_no_loss("gossip-bytes gate, fanout-tree", &[tree], failures);
}

/// With retry/gossip on, no point may lose a request after its drain.
fn check_no_loss(label: &str, points: &[SweepPoint], failures: &mut Vec<String>) {
    for p in points.iter().filter(|p| p.lost() > 0) {
        failures.push(format!(
            "{label}: {} request(s) lost at {} clients despite retry/gossip",
            p.lost(),
            p.clients
        ));
    }
}

/// The dissemination regression gate: past the knee, goodput must hold
/// (≥ 90% of the plateau — the same fraction that defines the knee), and
/// with retry/gossip enabled no request may be lost after the drain.
fn check_no_drop(
    protocol: &str,
    points: &[SweepPoint],
    knee: Option<usize>,
    disseminating: bool,
    failures: &mut Vec<String>,
) {
    let Some(knee) = knee else {
        failures.push(format!("{protocol}: sweep committed nothing"));
        return;
    };
    let plateau = points.iter().map(|p| p.out.goodput_rps).fold(0.0, f64::max);
    for p in &points[knee..] {
        if p.out.goodput_rps < 0.9 * plateau {
            failures.push(format!(
                "{protocol}: goodput drops past the knee ({:.1} < 90% of {:.1} req/s at {} clients)",
                p.out.goodput_rps, plateau, p.clients
            ));
        }
    }
    if disseminating {
        check_no_loss(protocol, &points[knee..], failures);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every CI flag set passes its gates and prints exactly its
    /// committed golden: virtual time moves only with a commit that
    /// rewrites them (`--write-goldens`), and a golden that records a
    /// failed gate fails here too.
    #[test]
    fn every_ci_flag_set_reproduces_its_golden() {
        for (stem, flags) in GOLDENS {
            let command = format!("saturation_sweep {flags}");
            let report = golden_report(flags);
            if let Err(failed) = passed(&report) {
                panic!("`{command}` fails a gate:\n{failed}");
            }
            goldens::assert_matches(stem, &command, &report);
        }
    }

    #[test]
    fn a_report_with_a_failed_gate_does_not_pass() {
        let report = "# saturation_sweep --quick 1\n{\"protocol\":\"banyan\"}\n\
                      FAIL: banyan: sweep committed nothing\n";
        assert_eq!(
            passed(report),
            Err("FAIL: banyan: sweep committed nothing".to_string())
        );
        assert_eq!(
            passed("# saturation_sweep --quick 1\nno FAIL: here\n"),
            Ok(())
        );
    }

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    /// An unknown flag, a malformed number and a gate without the sweep it
    /// gates are errors naming the flag; the scenario flags set the base.
    #[test]
    fn flags_read_into_the_base_scenario_or_fail_naming_the_flag() {
        let err = |line: &str| parse(line).err().unwrap_or_default();
        assert_eq!(err("--quick --gosip"), "unknown argument \"--gosip\"");
        assert_eq!(err("--retry-ms 2s"), "--retry-ms takes a u64, not \"2s\"");
        assert_eq!(err("--fanout-tree"), "--fanout-tree takes a value");
        assert!(err("--fanout-tree 0").contains("positive"));
        assert!(err("--assert-rpc").contains("--optimistic"));
        assert!(err("--assert-gossip-bytes --gossip").contains("--fanout-tree"));
        for gone in ["--fanout", "--batch-min-bytes", "--batch-age-ms"] {
            assert_eq!(
                err(&format!("{gone} 2")),
                format!("unknown argument \"{gone}\"")
            );
        }

        let args = parse("--quick --fanout-tree 2 --gossip --retry-ms 250 3").expect("valid flags");
        let base = &args.base;
        assert_eq!(
            (base.gossip, base.secs, base.drain_secs),
            (Gossip::Tree(2), 3, 2)
        );
        let Workload::Clients(load) = &base.workload else {
            panic!("the sweep's base is a client load");
        };
        assert_eq!(load.retry, Some(Duration::from_millis(250)));
        let plain = parse("--quick").expect("valid flags").base;
        assert_eq!(
            (plain.gossip, plain.secs, plain.drain_secs),
            (Gossip::Off, 2, 0)
        );
    }
}
