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
//!       [--quick] [--json] [--gossip] [--retry-ms N] [--fanout K] \
//!       [--batch-min-bytes N] [--batch-age-ms N] \
//!       [--restart] [--optimistic] [--crypto] [--cohorts] [--fanout-tree F] \
//!       [--assert-no-drop] [--assert-max-dups] [--assert-rpc] [--assert-crypto] \
//!       [--assert-gossip-bytes] [secs]`
//!  or `… --bin saturation_sweep -- --write-goldens`
//!
//! * `--quick` shrinks the sweep to a CI-sized smoke test;
//! * `--json` emits one machine-readable JSON object per protocol
//!   (`banyan_bench::sweep::sweep_json`) instead of the table, for the
//!   bench trajectory (`BENCH_*.json`) and CI;
//! * `--gossip`, `--retry-ms N`, `--fanout K` enable the
//!   request-dissemination layer (plus a drain phase sized to the retry
//!   period, so loss accounting settles);
//! * `--batch-min-bytes N` / `--batch-age-ms N` install a
//!   latency-targeted batch policy (defer until N eligible bytes or an
//!   N ms old request);
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
//! * `--assert-no-drop` exits nonzero if any past-knee point falls below
//!   90% of the plateau goodput or, with retry/gossip on, loses requests
//!   — the CI regression gate for the dissemination layer;
//! * `--assert-max-dups` exits nonzero if a protocol's duplicate
//!   inclusions exceed 1% of its committed requests — the CI regression
//!   gate for the ancestor-aware drain (run it with `--gossip`, where
//!   every pool holds a copy of what the uncommitted ancestors carry);
//! * `--assert-rpc` (requires `--optimistic`) exits nonzero unless the
//!   icc row's rounds-per-commit with optimism on is strictly below its
//!   flag-off baseline *and* its knee p50 latency does not regress — the
//!   CI gate for the pipelining win itself;
//! * `--crypto` switches the harness to the **measured-crypto sweep**:
//!   the banyan engine is swept at n=4 in all three [`CryptoMode`]s
//!   (off / unbatched / batched — the sigs/batches/cacheh/vcpu.ms
//!   columns go live), then the batched configuration is scaled over a
//!   geo-distributed cluster of n ∈ {4, 8, 16, 32, 64} replicas cycled
//!   through the real AWS region catalog;
//! * `--assert-crypto` (requires `--crypto`) exits nonzero unless both
//!   crypto-on knees stay within 1.5× of crypto-off goodput, the batched
//!   run actually batched and was charged strictly less verify CPU than
//!   unbatched at no less goodput, and (with retry/gossip on) no point
//!   lost a request — the CI gate that keeps crypto-on the viable
//!   measured configuration;
//! * `--cohorts` sweeps **cohort-aggregated modeled populations** (10³ up
//!   to 10⁶ modeled clients folded into 64 cohorts, token-paced, with a
//!   global admission cap) instead of one cohort per client — memory
//!   stays `O(cohorts)` regardless of the modeled population;
//! * `--fanout-tree F` switches gossip to **propagation-limited** mode:
//!   pushes travel a degree-`F` tree (ring successor + lowest-delay
//!   peers) through bounded per-peer queues, each flush taking a bounded share,
//!   relays going out as compact announce records (implies `--gossip`);
//! * `--assert-gossip-bytes` (requires `--fanout-tree`) exits nonzero
//!   unless an n=8 comparison shows tree gossip bytes/request at most
//!   50% of broadcast gossip with zero request loss, and — with
//!   `--cohorts` — every protocol's saturation knee sits at ≥ 10⁵
//!   modeled clients;
//! * `secs` overrides the per-point measured duration;
//! * `--write-goldens`, alone, rewrites the report of every CI flag set
//!   ([`GOLDENS`]) in `crates/bench/tests/goldens/`, which this binary's
//!   test regenerates and compares line by line.
//!
//! Without dissemination flags each request sits in one pool and there is
//! no drain phase: a block that never finalizes hands its requests back
//! to its pool, and the lost column counts the requests still in a block
//! when the run stops. With `--gossip` and `--retry-ms`, a drain phase
//! lets those commit too, and lost must read 0.

use banyan_bench::runner::{CryptoMode, Scenario};
use banyan_bench::sweep::{
    knee_index, knee_p50_ms, mean_rounds_per_commit, measure, measure_cohorts, point_row,
    sweep_header, sweep_json, SweepPoint,
};
use banyan_simnet::topology::Topology;
use banyan_simnet::AWS_REGIONS;
use banyan_types::time::Duration;

#[derive(Default)]
struct Args {
    quick: bool,
    json: bool,
    gossip: bool,
    retry_ms: Option<u64>,
    fanout: usize,
    batch_min_bytes: Option<u64>,
    batch_age_ms: Option<u64>,
    restart: bool,
    optimistic: bool,
    crypto: bool,
    cohorts: bool,
    fanout_tree: usize,
    assert_no_drop: bool,
    assert_max_dups: bool,
    assert_rpc: bool,
    assert_crypto: bool,
    assert_gossip_bytes: bool,
    secs: Option<u64>,
    write_goldens: bool,
}

fn parse_args(raw: &[String]) -> Args {
    let mut args = Args {
        fanout: 1,
        ..Args::default()
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        // The numeric value a flag takes.
        let mut number = |what: &str| -> u64 {
            let value = it.next().and_then(|v| v.parse().ok());
            value.unwrap_or_else(|| panic!("{what}"))
        };
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--json" => args.json = true,
            "--gossip" => args.gossip = true,
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
            "--fanout-tree" => {
                let what = "--fanout-tree takes a positive tree degree";
                args.fanout_tree = number(what) as usize;
                assert!(args.fanout_tree > 0, "{what}");
            }
            "--retry-ms" => args.retry_ms = Some(number("--retry-ms takes a millisecond count")),
            "--fanout" => args.fanout = number("--fanout takes a replica count") as usize,
            "--batch-min-bytes" => {
                args.batch_min_bytes = Some(number("--batch-min-bytes takes a byte count"))
            }
            "--batch-age-ms" => {
                args.batch_age_ms = Some(number("--batch-age-ms takes a millisecond count"))
            }
            other => match other.parse() {
                Ok(v) => args.secs = Some(v),
                Err(_) => panic!("unknown argument {other:?}"),
            },
        }
    }
    args
}

/// The CI flag sets whose reports `crates/bench/tests/goldens/` pins, as
/// `(file stem, flags)`.
#[rustfmt::skip]
const GOLDENS: &[(&str, &str)] = &[
    ("quick", "--quick 1"),
    ("gossip", "--quick 1 --json --gossip --retry-ms 200 --assert-no-drop --assert-max-dups"),
    ("optimistic", "--quick 1 --json --gossip --retry-ms 200 --optimistic --assert-max-dups --assert-rpc"),
    ("cohorts", "--quick 1 --json --cohorts --fanout-tree 2 --assert-gossip-bytes"),
    ("crypto", "--crypto --quick --json --gossip --retry-ms 250 --assert-crypto"),
];

/// Where the golden of `stem` lives.
fn golden_path(stem: &str) -> String {
    format!("{}/tests/goldens/{stem}.golden", env!("CARGO_MANIFEST_DIR"))
}

/// The report of one flag set as its golden holds it: a line naming the
/// flags, what the sweep printed, then one line per failed gate.
fn golden_report(flags: &str) -> String {
    let raw: Vec<String> = flags.split_whitespace().map(String::from).collect();
    let mut text = format!("# saturation_sweep {}\n", raw.join(" "));
    let failures = sweep(&parse_args(&raw), &mut |line| text.push_str(line));
    for failure in failures {
        text.push_str(&format!("FAIL: {failure}\n"));
    }
    text
}

/// `--write-goldens`: regenerates every golden in place.
fn write_goldens() -> std::io::Result<()> {
    for (stem, flags) in GOLDENS {
        let path = golden_path(stem);
        std::fs::write(&path, golden_report(flags))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Requests are 512 B and every run is seeded with 42, in every sweep.
const REQUEST_SIZE: u64 = 512;
const SEED: u64 = 42;

impl Args {
    /// True when any dissemination-layer feature is on.
    fn disseminating(&self) -> bool {
        self.gossip || self.retry_ms.is_some() || self.fanout > 1 || self.fanout_tree > 0
    }

    /// Drain long enough for a few retry rounds (or a few consensus
    /// rounds, when only gossip/fanout is on) to settle loss accounting;
    /// no drain phase without dissemination.
    fn drain_secs(&self) -> u64 {
        if self.disseminating() {
            (3 * self.retry_ms.unwrap_or(500)).div_ceil(1_000).max(2)
        } else {
            0
        }
    }

    fn batch_policy(&self) -> Option<(u64, Duration)> {
        self.batch_min_bytes
            .map(|min| (min, Duration::from_millis(self.batch_age_ms.unwrap_or(50))))
    }

    /// The one place the request-path flags (`--gossip`, `--retry-ms`,
    /// `--fanout`, `--fanout-tree`, the batch policy and
    /// the drain phase they imply) are applied to a sweep's base scenario.
    fn apply(&self, base: Scenario, secs: u64) -> Scenario {
        let mut base = base
            .request_size(REQUEST_SIZE)
            .secs(secs)
            .seed(SEED)
            .drain(self.drain_secs())
            .fanout(self.fanout);
        if self.gossip {
            base = base.gossip();
        }
        if self.fanout_tree > 0 {
            base = base.fanout_tree(self.fanout_tree);
        }
        if let Some(ms) = self.retry_ms {
            base = base.retry_timeout(Duration::from_millis(ms));
        }
        if let Some((min_bytes, max_age)) = self.batch_policy() {
            base = base.batch_policy(min_bytes, max_age);
        }
        base
    }
}

/// Writes one line of a sweep's report to `out`.
macro_rules! say {
    ($out:expr, $($fmt:tt)*) => {
        $out(&format!("{}\n", format_args!($($fmt)*)))
    };
}

fn main() -> std::io::Result<()> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw);
    if args.write_goldens {
        assert_eq!(raw.len(), 1, "--write-goldens takes no other argument");
        return write_goldens();
    }
    exit_on(&sweep(&args, &mut |text| print!("{text}")));
    Ok(())
}

/// Runs the sweep `args` select, writing its report to `out`, and returns
/// the gates it failed.
fn sweep(args: &Args, out: &mut dyn FnMut(&str)) -> Vec<String> {
    // An age target without a byte target would be a silent no-op
    // (min_bytes = 0 never defers): surface the mistake instead.
    assert!(
        args.batch_age_ms.is_none() || args.batch_min_bytes.is_some(),
        "--batch-age-ms requires --batch-min-bytes (a zero byte target never defers)"
    );
    assert!(
        !args.assert_rpc || args.optimistic,
        "--assert-rpc compares against the optimistic rows; pass --optimistic too"
    );
    assert!(
        !args.assert_crypto || args.crypto,
        "--assert-crypto gates the crypto sweep; pass --crypto too"
    );
    assert!(
        !args.assert_gossip_bytes || args.fanout_tree > 0,
        "--assert-gossip-bytes compares the fanout tree against broadcast; pass --fanout-tree too"
    );
    if args.crypto {
        return crypto_sweep(args, out);
    }
    let secs: u64 = args.secs.unwrap_or(if args.quick { 2 } else { 10 });
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
    let disseminating = args.disseminating();
    let drain_secs = args.drain_secs();
    // 100 Mbit/s egress: tight enough that block serialization — not the
    // sweep's upper population bound — caps goodput, so the knee falls
    // inside the swept range.
    let topology = || Topology::uniform(4, Duration::from_millis(5)).with_egress_bps(100_000_000);

    if !args.json {
        say!(
            out,
            "# Saturation sweep — n=4 uniform 5 ms WAN at 100 Mbit/s egress, window={window}, \
             {REQUEST_SIZE} B requests, think=0, {secs}s per point, seed={SEED}"
        );
        out("# goodput = committed requests/s; knee = first point at 90% of plateau goodput\n");
        match (args.gossip, args.retry_ms) {
            (false, None) if args.fanout == 1 && args.fanout_tree == 0 => say!(
                out,
                "# dissemination off: one pool per request and no drain phase, so the lost\n\
                 # column counts requests still in a block when the run stops\n"
            ),
            _ => say!(
                out,
                "# dissemination on (gossip={}, retry={:?} ms, fanout={}, fanout_tree={}, \
                 batch_policy={}), drain={drain_secs}s: lost must be 0\n",
                args.gossip,
                args.retry_ms,
                args.fanout,
                args.fanout_tree,
                match args.batch_policy() {
                    Some((min, age)) => format!("{min}B/{}ms", age.as_millis_f64()),
                    None => "eager".to_string(),
                }
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
        let mut base = args.apply(Scenario::new(protocol, topology(), 1, 1), secs);
        if optimistic {
            base = base.optimistic();
        }
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
            check_no_drop(label, &points, knee, disseminating, &mut failures);
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
        check_gossip_bytes(args, secs, out, &mut failures);
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

/// Reports every failed gate; exits nonzero if there is one.
fn exit_on(failures: &[String]) {
    for f in failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// The measured-crypto sweep (`--crypto`): banyan at n=4 in all three
/// crypto modes, then the batched configuration scaled over
/// geo-distributed clusters of 4…64 replicas cycled through the AWS
/// region catalog. Every run charges the calibrated per-verify CPU cost
/// in virtual time, so the goodput deltas between the modes *are* the
/// crypto bill.
fn crypto_sweep(args: &Args, out: &mut dyn FnMut(&str)) -> Vec<String> {
    let secs: u64 = args.secs.unwrap_or(if args.quick { 2 } else { 8 });
    let populations: &[u16] = if args.quick {
        &[4, 16, 64]
    } else {
        &[4, 8, 16, 32, 64, 128]
    };
    let window = 4;
    let think = Duration::ZERO;
    let disseminating = args.disseminating();
    // The default 1 Gbit/s egress: crypto CPU, not serialization, should
    // be the contended resource this sweep measures.
    let apply = |base: Scenario| args.apply(base, secs);

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
        let base = apply(
            Scenario::new(
                "banyan",
                Topology::uniform(4, Duration::from_millis(5)),
                1,
                1,
            )
            .crypto(mode),
        );
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
        let f = (n - 1) / 3;
        let base = apply(
            Scenario::new("banyan", Topology::from_sites(&sites), f, 1).crypto(CryptoMode::Batched),
        );
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
fn check_gossip_bytes(
    args: &Args,
    secs: u64,
    out: &mut dyn FnMut(&str),
    failures: &mut Vec<String>,
) {
    // The gate's own fixed flag set — gossip with a 250 ms retry (hence a
    // 2 s drain) — whatever the sweep above ran with.
    let mk = |fanout_tree: usize| {
        let flags = Args {
            gossip: true,
            retry_ms: Some(250),
            fanout: 1,
            fanout_tree,
            ..Args::default()
        };
        flags.apply(
            Scenario::new(
                "banyan",
                Topology::uniform(8, Duration::from_millis(5)).with_egress_bps(100_000_000),
                2,
                1,
            ),
            secs,
        )
    };
    let broadcast = measure(&mk(0), 32, 4, Duration::ZERO);
    let tree = measure(&mk(args.fanout_tree), 32, 4, Duration::ZERO);
    if !args.json {
        say!(
            out,
            "## gossip bytes gate — banyan n=8, 32 clients: broadcast {:.1} B/req vs \
             fanout-tree({}) {:.1} B/req\n",
            broadcast.gossip_bytes_per_req(),
            args.fanout_tree,
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

    /// Every CI flag set prints exactly its committed golden: virtual
    /// time moves only with a commit that rewrites them
    /// (`--write-goldens`).
    #[test]
    fn every_ci_flag_set_reproduces_its_golden() {
        for (stem, flags) in GOLDENS {
            let path = golden_path(stem);
            let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let now = golden_report(flags);
            let (mut golden_lines, mut now_lines) = (golden.lines(), now.lines());
            for line in 1.. {
                let (want, got) = (golden_lines.next(), now_lines.next());
                if want.is_none() && got.is_none() {
                    break;
                }
                assert_eq!(
                    want, got,
                    "`saturation_sweep {flags}` differs from tests/goldens/{stem}.golden \
                     first at line {line}; if the move is meant, rerun with --write-goldens"
                );
            }
        }
    }
}
