//! The micro layer: timed calls into each crate's public functions, on
//! inputs shaped like the workloads (`shapes.rs` builds them once).
//!
//! Every timing is the median of [`BATCHES`] batches after one discarded
//! batch; inputs derive from `--seed`. These numbers say what one call
//! costs in isolation — they omit waiting, so they explain an end-to-end
//! change but never replace it.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use banyan_crypto::merkle::payload_root;
use banyan_crypto::sha256::sha256;
use banyan_crypto::Signature;
use banyan_mempool::{BatchPolicy, ConcurrentPool, Mempool, Request, WorkloadBatch};
use banyan_runtime::queue::EventQueue;
use banyan_storage::{ChainStore, WalStore};
use banyan_transport::pipeline::{verify_frame, PipelineConfig, PipelineStats};
use banyan_transport::{read_frame, write_msg};
use banyan_types::app::ProposalContext;
use banyan_types::codec::Wire;
use banyan_types::ids::{BlockHash, ReplicaId, Round};
use banyan_types::message::Message;
use banyan_types::time::Time;
use banyan_types::Block;

use crate::report::Values;
use crate::shapes::{self, mix, request, Shape, LARGE, PAYLOAD_CHUNK, SMALL, WAL};
use crate::stats::median;

/// Timed batches per metric (one more runs first and is discarded).
const BATCHES: usize = 9;

/// Median seconds per call of `f` over the batches. `setup` builds each
/// batch's input outside the timed region.
fn time_with<I>(
    iters: usize,
    mut setup: impl FnMut() -> I,
    mut f: impl FnMut(&mut I, usize),
) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    for batch in 0..=BATCHES {
        let mut input = setup();
        let t = Instant::now();
        for i in 0..iters {
            f(&mut input, i);
        }
        let elapsed = t.elapsed().as_secs_f64();
        if batch > 0 {
            per_call.push(elapsed / iters as f64);
        }
    }
    median(&per_call)
}

fn time(iters: usize, mut f: impl FnMut()) -> f64 {
    time_with(iters, || (), |(), _| f())
}

fn mbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

fn requests(seed: u64, n: usize, shape: Shape) -> Vec<Request> {
    let key = mix(seed);
    (0..n as u64)
        .map(|k| request(key, k, shape.request_size, Time(k)))
        .collect()
}

/// Distinct blocks of one shape, with their hashes, for WAL appends.
fn blocks(template: &Block, n: usize, first_round: u64) -> Vec<(BlockHash, Block)> {
    (0..n as u64)
        .map(|i| {
            let mut b = template.clone();
            b.round = Round(first_round + i);
            // The store keys by the hash it is given; a cheap distinct key
            // keeps hashing out of the append timing.
            let mut h = [0u8; 32];
            h[..8].copy_from_slice(&mix(first_round + i).to_le_bytes());
            (BlockHash(h), b)
        })
        .collect()
}

fn fresh_dir(out_dir: &Path, name: &str) -> std::path::PathBuf {
    let dir = out_dir.join(format!("micro-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub fn run(seed: u64, out_dir: &Path) -> Values {
    let mut v = Values::default();
    let s = shapes::build(seed);

    // --- types ------------------------------------------------------------
    let vote_bytes = s.vote.to_bytes();
    let small_bytes = s.proposal_small.to_bytes();
    let large_bytes = s.proposal_large.to_bytes();
    v.set(
        "types.encode_vote_ns",
        time(20_000, || {
            black_box(black_box(&s.vote).to_bytes());
        }) * 1e9,
    );
    v.set(
        "types.decode_vote_ns",
        time(20_000, || {
            black_box(Message::from_bytes(black_box(&vote_bytes)).expect("decodes"));
        }) * 1e9,
    );
    v.set(
        "types.encode_proposal_ns",
        time(5_000, || {
            black_box(black_box(&s.proposal_small).to_bytes());
        }) * 1e9,
    );
    v.set(
        "types.decode_proposal_ns",
        time(5_000, || {
            black_box(Message::from_bytes(black_box(&small_bytes)).expect("decodes"));
        }) * 1e9,
    );
    v.set(
        "types.proposal_codec_mbps",
        mbps(
            large_bytes.len(),
            time(8, || {
                let bytes = black_box(&s.proposal_large).to_bytes();
                black_box(Message::from_bytes(&bytes).expect("decodes"));
            }),
        ),
    );
    v.set(
        "types.block_hash_mbps",
        mbps(
            s.block_large.payload.len() as usize,
            time(4, || {
                black_box(black_box(&s.block_large).hash(PAYLOAD_CHUNK));
            }),
        ),
    );

    // --- crypto -----------------------------------------------------------
    let buf: Vec<u8> = (0..1usize << 20)
        .map(|i| mix(seed ^ (i as u64 >> 3)) as u8)
        .collect();
    v.set(
        "crypto.sha256_mbps",
        mbps(
            buf.len(),
            time(4, || {
                black_box(sha256(black_box(&buf)));
            }),
        ),
    );
    v.set(
        "crypto.merkle_root_mbps",
        mbps(
            buf.len(),
            time(4, || {
                black_box(payload_root(black_box(&buf), PAYLOAD_CHUNK));
            }),
        ),
    );
    let msg = &s.cert_msg;
    let sig = s.keys[0].sign(msg);
    v.set(
        "crypto.sign_ns",
        time(2_000, || {
            black_box(s.keys[0].sign(black_box(msg)));
        }) * 1e9,
    );
    v.set(
        "crypto.verify_ns",
        time(2_000, || {
            assert!(s.keys[1].table().verify(0, black_box(msg), &sig));
        }) * 1e9,
    );
    let k32 = shapes::compact_keys(32);
    let sigs32: Vec<Signature> = k32.iter().map(|k| k.sign(msg)).collect();
    let burst: Vec<(u16, &[u8], &Signature)> = sigs32
        .iter()
        .enumerate()
        .map(|(i, sig)| (i as u16, msg.as_slice(), sig))
        .collect();
    v.set(
        "crypto.batch_verify_ns_per_sig",
        time(100, || {
            black_box(k32[0].table().verify_batch(black_box(&burst)));
        }) * 1e9
            / burst.len() as f64,
    );
    v.set(
        "crypto.compact_agg_verify_k3_ns",
        time(1_000, || {
            assert!(s.keys[1]
                .table()
                .verify_aggregate(black_box(msg), &s.cert_3of4));
        }) * 1e9,
    );
    let k19 = shapes::compact_keys(19);
    let cert13 = shapes::certificate(&k19, 13, msg);
    v.set(
        "crypto.compact_agg_verify_k13_ns",
        time(500, || {
            assert!(k19[1].table().verify_aggregate(black_box(msg), &cert13));
        }) * 1e9,
    );

    // --- runtime ----------------------------------------------------------
    for (name, depth) in [
        ("runtime.queue_push_pop_1k_ns", 1_000u64),
        ("runtime.queue_push_pop_100k_ns", 100_000),
    ] {
        let secs = time_with(
            20_000,
            || {
                let mut q = EventQueue::new();
                for i in 0..depth {
                    q.push(Time(mix(seed ^ i) % 1_000_000), i);
                }
                q
            },
            |q, i| {
                // Steady depth: every push lands somewhere ahead of the
                // head, every pop takes the head.
                let at = q.next_at().map_or(0, |t| t.0) + mix(seed ^ i as u64) % 1_000_000;
                q.push(Time(at), i as u64);
                black_box(q.pop());
            },
        );
        v.set(name, secs * 1e9);
    }

    // --- mempool ----------------------------------------------------------
    let reqs = requests(seed, 4_096, SMALL);
    v.set(
        "mempool.push_ns",
        time_with(
            reqs.len(),
            || Mempool::new(8_192).with_gossip(true),
            |pool, i| {
                black_box(pool.push(reqs[i]));
            },
        ) * 1e9,
    );
    v.set(
        "mempool.ingest_push_ns",
        time_with(
            reqs.len(),
            || ConcurrentPool::new(Mempool::new(8_192).with_gossip(true), 8_192),
            |pool, i| {
                pool.ingest().push(reqs[i]);
                // Apply in the batches a drain point would.
                if i % 64 == 63 {
                    black_box(pool.sync_ingest());
                }
            },
        ) * 1e9,
    );
    let full_pool = || {
        let mut pool = Mempool::new(8_192);
        for r in &reqs {
            pool.push(*r);
        }
        pool
    };
    let ctx = ProposalContext::root(Round(1), Time(1));
    v.set(
        "mempool.drain_ns_per_req",
        time_with(reqs.len() / SMALL.batch, full_pool, |pool, _| {
            let batch = pool.drain_speculative(SMALL.batch, u64::MAX, &ctx, &BatchPolicy::EAGER);
            assert_eq!(black_box(batch).len(), SMALL.batch);
        }) * 1e9
            / SMALL.batch as f64,
    );
    v.set(
        "mempool.mark_committed_ns_per_req",
        time_with(reqs.len() / SMALL.batch, full_pool, |pool, i| {
            let chunk = &reqs[i * SMALL.batch..(i + 1) * SMALL.batch];
            pool.mark_committed_block(BlockHash([i as u8; 32]), Round(i as u64 + 1), chunk);
        }) * 1e9
            / SMALL.batch as f64,
    );
    v.set(
        "mempool.batch_encode_ns_per_req",
        time_with(
            500,
            || vec![SMALL.batch_of(seed); 500],
            |batches, _| {
                black_box(batches.pop().expect("one per call").into_payload());
            },
        ) * 1e9
            / SMALL.batch as f64,
    );
    let payload = SMALL.batch_of(seed).into_payload();
    v.set(
        "mempool.batch_decode_ns_per_req",
        time(2_000, || {
            black_box(WorkloadBatch::decode(black_box(&payload)).expect("decodes"));
        }) * 1e9
            / SMALL.batch as f64,
    );

    // --- storage ----------------------------------------------------------
    let mut wal_block = s.block_large.clone();
    wal_block.payload = WAL.batch_of(seed).into_payload();
    for (name, template, iters) in [
        ("storage.append_block_small_us", &wal_block, 64usize),
        ("storage.append_block_large_us", &s.block_large, 8),
    ] {
        let dir = fresh_dir(out_dir, "append");
        let mut store = WalStore::open_with(&dir, u64::MAX, false).expect("open wal");
        let mut round = 1;
        let secs = time_with(
            iters,
            || {
                round += iters as u64;
                blocks(template, iters, round)
            },
            |batch, _| {
                let (hash, block) = batch.pop().expect("one per call");
                assert!(store.insert(hash, block));
            },
        );
        v.set(name, secs * 1e6);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    {
        // The default store once its state exceeds the 4 MiB segment limit:
        // each append rotates, and each rotation rewrites the whole chain
        // as a checkpoint. Preloaded with 5 MiB, then timed per append.
        let dir = fresh_dir(out_dir, "past-limit");
        let mut store = WalStore::open(&dir).expect("open wal");
        for (hash, block) in blocks(&s.block_large, 5, 1) {
            store.insert(hash, block);
        }
        let mut round = 1_000;
        let secs = time_with(
            4,
            || {
                round += 4;
                blocks(&wal_block, 4, round)
            },
            |batch, _| {
                let (hash, block) = batch.pop().expect("one per call");
                assert!(store.insert(hash, block));
            },
        );
        v.set("storage.append_past_limit_us", secs * 1e6);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    {
        let dir = fresh_dir(out_dir, "replay");
        let mut store = WalStore::open_with(&dir, u64::MAX, false).expect("open wal");
        for (hash, block) in blocks(&s.block_large, 8, 1) {
            store.insert(hash, block);
        }
        let bytes = store.wal_bytes() as usize;
        drop(store);
        let secs = time(1, || {
            let reopened = WalStore::open_with(&dir, u64::MAX, false).expect("replay");
            assert_eq!(black_box(reopened).len(), 8);
        });
        v.set("storage.replay_mbps", mbps(bytes, secs));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- transport --------------------------------------------------------
    let from = ReplicaId(0);
    let mut wire = Vec::with_capacity(2 << 20);
    v.set(
        "transport.write_vote_ns",
        time(20_000, || {
            wire.clear();
            write_msg(&mut wire, from, black_box(&s.vote)).expect("in-memory write");
        }) * 1e9,
    );
    v.set(
        "transport.read_vote_ns",
        time(20_000, || {
            black_box(read_frame(&mut black_box(wire.as_slice())).expect("frame"));
        }) * 1e9,
    );
    let secs = time(8, || {
        wire.clear();
        write_msg(&mut wire, from, black_box(&s.proposal_large)).expect("in-memory write");
    });
    v.set("transport.write_proposal_mbps", mbps(wire.len(), secs));
    let secs = time(8, || {
        black_box(read_frame(&mut black_box(wire.as_slice())).expect("frame"));
    });
    v.set("transport.read_proposal_mbps", mbps(wire.len(), secs));
    let config = PipelineConfig::default()
        .with_verify_workers(1)
        .with_payload_chunk(PAYLOAD_CHUNK);
    let stats = PipelineStats::default();
    v.set(
        "transport.verify_frame_us",
        time_with(
            4,
            || vec![s.proposal_large.clone(); 4],
            |frames, _| {
                let frame = frames.pop().expect("one per call");
                black_box(verify_frame(from, frame, None, &config, &stats));
            },
        ) * 1e6,
    );
    debug_assert_eq!(LARGE.full_payload_len(), s.block_large.payload.len());
    v
}
