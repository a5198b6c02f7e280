//! **Crypto microbenchmark**: individual vs RLC-batched Schnorr
//! verification, naive vs compact aggregate-certificate checking, and the
//! hash kernels under both (SHA-256 dispatched vs portable, WAL CRC-32).
//!
//! The verify plane's whole premise is that one random-linear-combination
//! equation over k signatures beats k independent equations, and that a
//! compact certificate (shared `s̃`, per-member `Rᵢ`) verifies in one
//! combined check instead of one equation per member. This harness
//! measures both claims directly on the toy scheme, wall-clock, outside
//! any simulator — the number the CI gate pins.
//!
//! Run: `cargo run --release -p banyan-bench --bin crypto_microbench -- \
//!       [--assert-speedup X] [--assert-sha-speedup X] [--k K] [rounds]`
//!
//! * `--assert-speedup X` exits nonzero unless batched verification at
//!   the configured batch size is at least `X`× faster than individual
//!   verification (the CI regression gate; the PR that introduced the
//!   batcher measured ≥ 1.5× at k=32);
//! * `--assert-sha-speedup X` exits nonzero unless the SHA-256 kernel the
//!   process selected hashes 1 MiB at least `X`× faster than the portable
//!   kernel — checked only when a hardware kernel was selected, and
//!   reported as skipped otherwise (a ratio on one machine, so it means
//!   the same on any runner);
//! * `--k K` sets the batch/certificate size (default 32 — a quorum-ish
//!   burst);
//! * `rounds` sets how many timed repetitions to run (default 200; the
//!   fastest round is reported, which is the standard way to strip
//!   scheduler noise from a CPU-bound microbench).

use std::hint::black_box;
use std::time::{Duration, Instant};

use banyan_crypto::sha256::{kernel_name, sha256, Sha256};
use banyan_crypto::sig::{BatchItem, SignatureScheme};
use banyan_crypto::ToySchnorr;
use banyan_storage::wal::crc32;

struct Args {
    assert_speedup: Option<f64>,
    assert_sha_speedup: Option<f64>,
    k: usize,
    rounds: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        assert_speedup: None,
        assert_sha_speedup: None,
        k: 32,
        rounds: 200,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--assert-speedup" => {
                args.assert_speedup = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-speedup takes a ratio"),
                )
            }
            "--assert-sha-speedup" => {
                args.assert_sha_speedup = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-sha-speedup takes a ratio"),
                )
            }
            "--k" => {
                args.k = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&k: &usize| k >= 2)
                    .expect("--k takes a batch size of at least 2")
            }
            other => match other.parse() {
                Ok(v) => args.rounds = v,
                Err(_) => panic!("unknown argument {other:?}"),
            },
        }
    }
    args
}

/// The fastest of `rounds` timed repetitions of `work` — the standard
/// noise-stripping reduction for a CPU-bound microbench.
fn best_of(rounds: usize, mut work: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..rounds {
        let start = Instant::now();
        work();
        best = best.min(start.elapsed());
    }
    best
}

fn main() {
    let args = parse_args();
    let k = args.k;
    let scheme = ToySchnorr::new();
    let compact = ToySchnorr::compact();

    // k distinct signers, each signing its own distinct message — the
    // shape of a vote burst arriving at a replica.
    let keys: Vec<_> = (0..k)
        .map(|i| {
            let mut seed = [0u8; 32];
            seed[..8].copy_from_slice(&(i as u64).to_le_bytes());
            scheme.keygen(&seed)
        })
        .collect();
    let msgs: Vec<Vec<u8>> = (0..k).map(|i| format!("vote:{i}").into_bytes()).collect();
    let sigs: Vec<_> = keys
        .iter()
        .zip(&msgs)
        .map(|((sk, _), m)| scheme.sign(sk, m))
        .collect();
    let pks: Vec<_> = keys
        .iter()
        .map(|(_, pk)| scheme.expand_public(*pk))
        .collect();
    let items: Vec<BatchItem<'_>> = pks
        .iter()
        .zip(&msgs)
        .zip(&sigs)
        .map(|((pk, msg), sig)| BatchItem { pk, msg, sig })
        .collect();

    // --- individual vs batched verification --------------------------
    let individual = best_of(args.rounds, || {
        for it in &items {
            assert!(scheme.verify_expanded(it.pk, it.msg, it.sig));
        }
    });
    let batched = best_of(args.rounds, || {
        assert!(scheme.batch_verify(&items).iter().all(|&ok| ok));
    });
    let speedup = individual.as_secs_f64() / batched.as_secs_f64();
    let per_sig = |d: Duration| d.as_secs_f64() / k as f64;
    println!(
        "# ToySchnorr verification, k={k}, best of {} rounds",
        args.rounds
    );
    println!(
        "individual: {:>10.1} sigs/s  ({:.2} µs/sig)",
        1.0 / per_sig(individual),
        per_sig(individual) * 1e6
    );
    println!(
        "batched:    {:>10.1} sigs/s  ({:.2} µs/sig)   speedup {speedup:.2}x",
        1.0 / per_sig(batched),
        per_sig(batched) * 1e6
    );

    // --- naive vs compact aggregate certificates ----------------------
    // One quorum certificate: k signers over the *same* message.
    let cert_msg = b"certify:round-7".to_vec();
    let cert_sigs: Vec<_> = keys
        .iter()
        .enumerate()
        .map(|(i, (sk, _))| (i as u16, scheme.sign(sk, &cert_msg)))
        .collect();
    let naive_agg = scheme.aggregate(k, &cert_sigs);
    let compact_agg = compact.aggregate(k, &cert_sigs);
    let naive = best_of(args.rounds, || {
        assert!(scheme.verify_aggregate(&pks, &cert_msg, &naive_agg));
    });
    let compact_t = best_of(args.rounds, || {
        assert!(compact.verify_aggregate(&pks, &cert_msg, &compact_agg));
    });
    let agg_speedup = naive.as_secs_f64() / compact_t.as_secs_f64();
    println!("# aggregate certificate over {k} signers");
    println!(
        "naive:      {:>10.2} µs/cert  ({} bytes)",
        naive.as_secs_f64() * 1e6,
        naive_agg.data.len()
    );
    println!(
        "compact:    {:>10.2} µs/cert  ({} bytes)   speedup {agg_speedup:.2}x",
        compact_t.as_secs_f64() * 1e6,
        compact_agg.data.len()
    );

    // --- hash kernels --------------------------------------------------
    let buf: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
        .collect();
    let mbps = |d: Duration| buf.len() as f64 / d.as_secs_f64() / 1e6;
    let dispatched = mbps(best_of(args.rounds, || {
        black_box(sha256(black_box(&buf)));
    }));
    let portable = mbps(best_of(args.rounds, || {
        let mut h = Sha256::portable();
        h.update(black_box(&buf));
        black_box(h.finalize());
    }));
    let crc = mbps(best_of(args.rounds, || {
        black_box(crc32(black_box(&buf)));
    }));
    let kernel = kernel_name();
    let sha_speedup = dispatched / portable;
    println!("# hash kernels over 1 MiB — SHA-256 kernel selected: {kernel}");
    println!("sha256:     {dispatched:>10.1} MB/s  ({kernel})   speedup {sha_speedup:.2}x");
    println!("sha256:     {portable:>10.1} MB/s  (portable)");
    println!("crc32:      {crc:>10.1} MB/s");

    let mut failed = false;
    if let Some(min) = args.assert_speedup {
        if speedup < min {
            eprintln!("FAIL: batched speedup {speedup:.2}x below the {min:.2}x gate at k={k}");
            failed = true;
        }
    }
    if let Some(min) = args.assert_sha_speedup {
        if kernel == "portable" {
            println!("--assert-sha-speedup skipped: no hardware SHA-256 kernel on this CPU");
        } else if sha_speedup < min {
            eprintln!("FAIL: {kernel} SHA-256 only {sha_speedup:.2}x the portable kernel (gate {min:.2}x)");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
