//! **Pipeline verify-stage throughput**: real bytes over TCP loopback,
//! through the staged decode → verify pipeline, at 1/2/4 verify workers.
//!
//! Four sender threads each dial the receiver and stream pre-serialized
//! proposal frames whose payloads are genuine [`WorkloadBatch`]
//! encodings. The receiver runs the [`VerifyStage`] worker pool that
//! `run_replica_pipelined` deploys, fed by one blocking reader thread per
//! connection (the replica's own loop reads its sockets itself; threads
//! keep this bench free of an engine) — every frame pays the real verify
//! cost (batch decode plus the SHA-256 payload-commitment walk in
//! `Block::hash`) before a consumer thread counts it off the ordered event
//! channel. What the table reports is the decode + verify stage in
//! isolation: no consensus engine behind it.
//!
//! Run: `cargo run --release -p banyan-bench --bin pipeline_throughput -- \
//!       [--quick] [--frames N] [--batch N] \
//!       [--assert-min-mbps X] [--assert-speedup X]`
//!
//! * `--quick` shrinks the run to a CI-sized smoke test;
//! * `--frames N` sends N frames per sender (default 128; 32 quick);
//! * `--batch N` packs N requests into each frame's batch (default 512,
//!   at 256 B nominal each → 128 KiB of real payload per frame);
//! * `--assert-min-mbps X` exits nonzero unless the best worker count
//!   sustains X MB/s of frame bytes — the absolute CI floor, meaningful
//!   on any core count;
//! * `--assert-speedup X` exits nonzero unless 4 workers beat 1 worker by
//!   X× in req/s. **Opt-in**: scaling needs real cores, so this gate is
//!   for multi-core hosts, not the default CI runner.
//!
//! Speedup comes from parallel `Block::hash` recomputation across
//! workers; frames are routed `sender mod workers`, so 4 senders spread
//! evenly. On a single-core host the speedup column hovers at ~1× — the
//! staged pipeline then still buys the replica decode/verify *overlap*
//! with consensus, just not verify parallelism.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use banyan_crypto::Signature;
use banyan_mempool::{Request, WorkloadBatch};
use banyan_transport::{read_frame, Frame, PipelineConfig, VerifyStage};
use banyan_types::block::Block;
use banyan_types::ids::{BlockHash, Rank, ReplicaId, Round};
use banyan_types::message::{Message, StreamletMsg};
use banyan_types::time::Time;
use crossbeam::channel::bounded;

/// Senders (and proposer ids): mirrors the n=4 cluster the TCP tests run.
const SENDERS: usize = 4;
/// Nominal request size: pads each frame's payload to `batch × 256` B of
/// real inline bytes for the commitment walk to chew through.
const REQUEST_SIZE: u64 = 256;

struct Args {
    frames: usize,
    batch: usize,
    assert_min_mbps: Option<f64>,
    assert_speedup: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        frames: 128,
        batch: 512,
        assert_min_mbps: None,
        assert_speedup: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    let mut frames_set = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {
                if !frames_set {
                    args.frames = 32;
                }
            }
            "--frames" => {
                args.frames = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&f: &usize| f > 0)
                    .expect("--frames takes a positive frame count");
                frames_set = true;
            }
            "--batch" => {
                args.batch = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&b: &usize| b > 0)
                    .expect("--batch takes a positive request count")
            }
            "--assert-min-mbps" => {
                args.assert_min_mbps = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-min-mbps takes a number"),
                )
            }
            "--assert-speedup" => {
                args.assert_speedup = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-speedup takes a number"),
                )
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

/// One sender's wire bytes: a hello followed by a proposal frame carrying
/// a `batch`-request workload, serialized once and streamed repeatedly.
fn frame_bytes(sender: ReplicaId, batch: usize) -> (Vec<u8>, Vec<u8>) {
    let requests: Vec<Request> = (0..batch as u64)
        .map(|i| Request {
            id: (sender.0 as u64) << 32 | i,
            client: sender.0,
            size: REQUEST_SIZE,
            submitted_at: Time::ZERO,
        })
        .collect();
    let block = Block {
        round: Round(1),
        proposer: sender,
        rank: Rank(0),
        parent: BlockHash::ZERO,
        proposed_at: Time::ZERO,
        payload: WorkloadBatch { requests }.into_payload(),
        signature: Signature::zero(),
    };
    let msg = Message::Streamlet(StreamletMsg::Proposal { block });
    let mut hello = Vec::new();
    banyan_transport::write_hello(&mut hello, sender).expect("serialize hello");
    let mut frame = Vec::new();
    banyan_transport::write_msg(&mut frame, sender, &msg).expect("serialize frame");
    (hello, frame)
}

struct RunResult {
    workers: usize,
    secs: f64,
    req_s: f64,
    mb_s: f64,
}

/// Streams `SENDERS × frames` frames through the verify stage at the
/// given worker count and measures wall time from the senders' start
/// barrier to the last verified frame off the event channel.
fn run_once(workers: usize, frames: usize, batch: usize) -> RunResult {
    let expected = (SENDERS * frames) as u64;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let (event_tx, event_rx) = bounded::<(ReplicaId, Message)>(4_096);
    let config = PipelineConfig::default().with_verify_workers(workers);
    let verify = VerifyStage::spawn(&config, None, event_tx);
    let stats = verify.stats.clone();

    // Readers: the decode stage, one thread per inbound connection,
    // routing by sender id as `run_replica_pipelined` does. Their send
    // may block: the consumer below waits on nothing they hold.
    let acceptor = {
        let verify_txs = verify.senders();
        let stats = stats.clone();
        thread::spawn(move || {
            let mut readers = Vec::with_capacity(SENDERS);
            for _ in 0..SENDERS {
                let (stream, _) = listener.accept().expect("accept");
                stream.set_nodelay(true).ok();
                let verify_txs = verify_txs.clone();
                let stats = stats.clone();
                readers.push(thread::spawn(move || {
                    let mut reader = BufReader::new(stream);
                    assert!(
                        matches!(read_frame(&mut reader), Ok(Frame::Hello { .. })),
                        "hello first"
                    );
                    // Until EOF: the sender closes when done.
                    while let Ok(frame) = read_frame(&mut reader) {
                        if let Frame::Msg { from, msg } = frame {
                            stats
                                .decoded
                                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let tx = &verify_txs[from.as_usize() % verify_txs.len()];
                            if tx.send((from, msg)).is_err() {
                                return;
                            }
                        }
                    }
                }));
            }
            readers
        })
    };

    // Senders: connect + hello, then wait on the barrier so the clock
    // starts once every connection is up.
    let barrier = Arc::new(Barrier::new(SENDERS + 1));
    let mut senders = Vec::with_capacity(SENDERS);
    let mut total_bytes = 0u64;
    for s in 0..SENDERS {
        let (hello, frame) = frame_bytes(ReplicaId(s as u16), batch);
        total_bytes += frames as u64 * frame.len() as u64;
        let barrier = barrier.clone();
        senders.push(thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            stream.write_all(&hello).expect("hello");
            barrier.wait();
            for _ in 0..frames {
                stream.write_all(&frame).expect("frame");
            }
            stream.flush().expect("flush");
            // Dropping the stream closes it: the reader sees EOF.
        }));
    }

    barrier.wait();
    let start = Instant::now();
    // The consumer: count verified frames off the ordered event channel.
    for i in 0..expected {
        event_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("frame {i}/{expected} never arrived"));
    }
    let secs = start.elapsed().as_secs_f64();

    for s in senders {
        s.join().expect("sender");
    }
    for r in acceptor.join().expect("acceptor") {
        r.join().expect("reader");
    }
    verify.shutdown();

    // Conservation: every decoded frame verified, nothing rejected.
    let s = stats.snapshot();
    assert_eq!(s.decoded, expected, "decode undercount: {s:?}");
    assert_eq!(s.verified, expected, "verify undercount: {s:?}");
    assert_eq!(s.rejected, 0, "honest frames rejected: {s:?}");

    RunResult {
        workers,
        secs,
        req_s: (expected * batch as u64) as f64 / secs,
        mb_s: total_bytes as f64 / secs / 1e6,
    }
}

fn main() {
    let args = parse_args();
    let payload_kib = (args.batch as u64 * REQUEST_SIZE) >> 10;
    println!(
        "# Pipeline verify throughput — {SENDERS} senders × {} frames over TCP loopback, \
         {} requests/frame (~{payload_kib} KiB payload each)",
        args.frames, args.batch
    );
    println!(
        "# frame cost = batch decode + SHA-256 commitment walk (Block::hash), {} kernel",
        banyan_crypto::sha256::kernel_name()
    );
    println!(
        "{:>8} {:>10} {:>12} {:>10} {:>9}",
        "workers", "secs", "req/s", "MB/s", "speedup"
    );

    let mut results: Vec<RunResult> = Vec::new();
    for workers in [1usize, 2, 4] {
        let r = run_once(workers, args.frames, args.batch);
        let speedup = r.req_s / results.first().map_or(r.req_s, |b| b.req_s);
        println!(
            "{:>8} {:>10.3} {:>12.0} {:>10.1} {:>8.2}x",
            r.workers, r.secs, r.req_s, r.mb_s, speedup
        );
        results.push(r);
    }

    let mut failed = false;
    if let Some(floor) = args.assert_min_mbps {
        let best = results.iter().map(|r| r.mb_s).fold(0.0, f64::max);
        if best < floor {
            eprintln!("FAIL: best throughput {best:.1} MB/s below the {floor:.1} MB/s floor");
            failed = true;
        }
    }
    if let Some(target) = args.assert_speedup {
        let speedup = results.last().map_or(0.0, |r| r.req_s) / results[0].req_s;
        if speedup < target {
            eprintln!(
                "FAIL: {} workers gained only {speedup:.2}x over 1 (target {target:.2}x)",
                results.last().map_or(0, |r| r.workers)
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
