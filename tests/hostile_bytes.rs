//! Bytes from the disk or the network never panic a decoder, and never
//! make it allocate from a length field it has not checked against the
//! bytes that are there (ROADMAP aim 3).
//!
//! Three decoders the codec's own arbitrary-bytes proptest does not
//! reach: a write-ahead-log record, decoded when `WalStore::open` replays
//! a segment, a `WorkloadBatch` inside a committed payload, and a
//! certificate carrying a compact (half-aggregated) Schnorr aggregate,
//! decoded and then put through the quorum gate and the key table's
//! aggregate check as an engine puts it. Each is fed
//! raw noise and real encodings with a few bytes overwritten, so decoding
//! gets deep before it fails. A segment's records are framed with a valid
//! checksum, so the record decoder — not the CRC check — meets the noise.
//!
//! This test binary's allocator records the largest single allocation its
//! thread makes, and every decode must stay under a bound linear in its
//! input. A list's up-front reserve is also capped at a fixed element
//! count, whatever the input's size: a megabyte frame whose count claims
//! a million blocks is checked for that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use std::sync::Arc;

use banyan::crypto::{AggregateSignature, KeyRegistry, Signature, SignerBitmap, ToySchnorr};
use banyan::mempool::{Request, WorkloadBatch};
use banyan::storage::wal::{crc32, WalError};
use banyan::storage::{ChainStore, WalStore};
use banyan::types::certs::{FinalKind, Finalization, Notarization};
use banyan::types::codec::{Wire, MAX_LIST_RESERVE};
use banyan::types::ids::{BlockHash, Rank, ReplicaId, Round};
use banyan::types::message::{Message, SyncMsg};
use banyan::types::payload::Payload;
use banyan::types::time::Time;
use banyan::types::vote::{Vote, VoteKind};
use banyan::types::Block;
use proptest::prelude::*;

thread_local! {
    /// The largest single allocation this thread made since the last
    /// [`peak_allocation`] began.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each thread's largest allocation.
struct PeakTracking;

fn record(size: usize) {
    // `try_with`: the slot is gone while the thread shuts down.
    let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the bookkeeping touches only a `const`-initialized thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for PeakTracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakTracking = PeakTracking;

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread.
fn peak_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|peak| peak.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// The most a decode of `input_len` bytes may allocate at once: a fixed
/// allowance for buffers that do not depend on the input, plus a linear
/// share per input byte (a decoded element is at most this much larger in
/// memory than the bytes it was read from).
fn allocation_bound(input_len: usize) -> usize {
    (64 << 10) + 256 * input_len
}

/// Overwrites `edits` bytes of `bytes`, each at an index taken modulo its
/// length.
fn overwrite(mut bytes: Vec<u8>, edits: Vec<(usize, u8)>) -> Vec<u8> {
    for (at, byte) in edits {
        let at = at % bytes.len();
        bytes[at] = byte;
    }
    bytes
}

/// Raw noise, or one of `corpus`'s encodings with a few bytes overwritten.
fn hostile(corpus: fn() -> &'static [Vec<u8>]) -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..4096),
        (
            any::<usize>(),
            proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8)
        )
            .prop_map(move |(pick, edits)| {
                let items = corpus();
                overwrite(items[pick % items.len()].clone(), edits)
            }),
    ]
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("hostile-bytes")
        .join(name)
}

/// Splits a segment into its record payloads (each behind an 8-byte
/// `len | crc` header).
fn record_payloads(segment: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut rest = segment;
    while rest.len() >= 8 {
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        out.push(rest[8..8 + len].to_vec());
        rest = &rest[8 + len..];
    }
    out
}

/// The payload of every kind of WAL record, as a `WalStore` writes them:
/// blocks (synthetic and inline payloads), notarizations with and
/// without a certificate, finalizations, and a checkpoint.
fn wal_records() -> &'static [Vec<u8>] {
    static RECORDS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let dir = scratch("corpus");
        let _ = fs::remove_dir_all(&dir);
        let mut wal = WalStore::open(&dir).expect("open a fresh log");
        let mut parent = BlockHash::ZERO;
        for round in 1..=3u64 {
            let payload = if round == 2 {
                Payload::inline(vec![7; 40])
            } else {
                Payload::synthetic(100, round)
            };
            let block = Block {
                round: Round(round),
                proposer: ReplicaId(round as u16),
                rank: Rank(0),
                parent,
                proposed_at: Time(round),
                payload,
                signature: Signature::zero(),
            };
            let hash = block.hash(1024);
            wal.insert(hash, block);
            let mut signers = SignerBitmap::new(4);
            signers.set(1);
            let agg = AggregateSignature {
                signers,
                data: vec![3; 32],
            };
            let cert = (round != 3).then(|| Notarization::from_votes(Round(round), hash, agg));
            wal.mark_notarized(hash, cert);
            wal.mark_finalized(Round(round), hash);
            parent = hash;
        }
        // Restoring a store logs its whole state as a checkpoint record.
        wal.restore(&wal.snapshot());
        drop(wal);
        let segment = fs::read(dir.join("wal-000000.log")).expect("read the segment");
        record_payloads(&segment)
    })
}

/// Real workload-batch payloads: empty, one request and several.
fn batches() -> &'static [Vec<u8>] {
    static BATCHES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    BATCHES.get_or_init(|| {
        [0u64, 1, 5]
            .into_iter()
            .map(|count| {
                let requests = (0..count)
                    .map(|id| Request {
                        id,
                        client: id as u16,
                        size: 26,
                        submitted_at: Time(id * 1_000),
                    })
                    .collect();
                let payload = WorkloadBatch { requests }.into_payload();
                payload.as_inline().expect("batches are inline").to_vec()
            })
            .collect()
    })
}

/// Replica 0's view of an n = 4 cluster signing with compact Schnorr
/// aggregates.
fn compact_registry() -> &'static KeyRegistry {
    static REGISTRY: OnceLock<KeyRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| KeyRegistry::generate(Arc::new(ToySchnorr::compact()), 11, 4, 0))
}

/// The notarization quorum of that cluster (n = 4, f = 1).
const QUORUM: usize = 3;

/// Replicas `voters`' votes of `kind` on `block` in `round`, aggregated
/// compactly.
fn compact_aggregate(
    voters: &[u16],
    kind: VoteKind,
    round: Round,
    block: BlockHash,
) -> AggregateSignature {
    let msg = Vote::signing_message(kind, round, &block);
    let sigs: Vec<(u16, Signature)> = voters
        .iter()
        .map(|&v| {
            let key = KeyRegistry::generate(Arc::new(ToySchnorr::compact()), 11, 4, v);
            (v, key.sign(&msg))
        })
        .collect();
    compact_registry().table().aggregate(&sigs)
}

/// Real compact certificates: notarizations with and without a fast-vote
/// aggregate, and slow and fast finalizations.
fn compact_certificates() -> &'static [Vec<u8>] {
    static CERTS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CERTS.get_or_init(|| {
        let (round, block) = (Round(9), BlockHash([4; 32]));
        let notarize = compact_aggregate(&[0, 1, 2], VoteKind::Notarize, round, block);
        let fast = compact_aggregate(&[1, 2, 3], VoteKind::Fast, round, block);
        let finalize = compact_aggregate(&[0, 2, 3], VoteKind::Finalize, round, block);
        let notarization = Notarization::from_votes(round, block, notarize.clone());
        let with_fast = Notarization {
            fast_agg: Some(fast.clone()),
            ..notarization.clone()
        };
        let finalization = |kind, agg| Finalization {
            round,
            block,
            kind,
            agg,
        };
        vec![
            notarization.to_bytes(),
            with_fast.to_bytes(),
            finalization(FinalKind::Slow, finalize).to_bytes(),
            finalization(FinalKind::Fast, fast).to_bytes(),
        ]
    })
}

/// What an engine does with a certificate off the wire: decode it, gate
/// it on the quorum, then check its aggregate(s) against the key table.
/// Returns whether it would be accepted.
fn check_certificate(bytes: &[u8]) -> bool {
    let table = compact_registry().table();
    let verified = |kind, round, block: &BlockHash, agg: &AggregateSignature| {
        table.verify_aggregate(&Vote::signing_message(kind, round, block), agg)
    };
    let notarization = Notarization::from_bytes(bytes).is_ok_and(|n| {
        n.meets_quorum(QUORUM)
            && verified(VoteKind::Notarize, n.round, &n.block, &n.agg)
            && n.fast_agg
                .as_ref()
                .is_none_or(|fast| verified(VoteKind::Fast, n.round, &n.block, fast))
    });
    let finalization = Finalization::from_bytes(bytes).is_ok_and(|f| {
        let kind = match f.kind {
            FinalKind::Slow => VoteKind::Finalize,
            FinalKind::Fast => VoteKind::Fast,
        };
        f.meets_quorum(QUORUM) && verified(kind, f.round, &f.block, &f.agg)
    });
    notarization || finalization
}

#[test]
fn real_compact_certificates_pass_the_checks() {
    for (k, bytes) in compact_certificates().iter().enumerate() {
        assert!(check_certificate(bytes), "certificate {k} refused");
    }
}

proptest! {
    /// Arbitrary bytes, or a real compact certificate with a few bytes
    /// overwritten, decode as a notarization or finalization or fail to,
    /// and a decoded one goes through the quorum gate and the compact
    /// aggregate check, without a panic and without an allocation beyond
    /// the bound.
    #[test]
    fn arbitrary_bytes_never_panic_a_compact_certificate_check(
        bytes in hostile(compact_certificates)
    ) {
        let len = bytes.len();
        let (_, peak) = peak_allocation(|| check_certificate(&bytes));
        prop_assert!(
            peak <= allocation_bound(len),
            "a {len}-byte certificate allocated {peak} bytes at once"
        );
    }

    /// A segment holding one record of arbitrary bytes, framed with a
    /// valid checksum, replays without a panic: the record is applied, cut
    /// off as a torn tail or, carrying the older checkpoint layout's tag,
    /// refused.
    #[test]
    fn arbitrary_wal_records_never_panic_replay(record in hostile(wal_records)) {
        prop_assume!(!record.is_empty());
        let (len, peak) = replay("noise", &record);
        prop_assert!(
            peak <= allocation_bound(len),
            "a {len}-byte segment allocated {peak} bytes at once"
        );
    }

    /// A committed payload of arbitrary bytes decodes to a batch or to
    /// `None`, and a decoded batch holds no more records than its bytes.
    #[test]
    fn arbitrary_payloads_never_panic_the_batch_decoder(bytes in hostile(batches)) {
        let len = bytes.len();
        let payload = Payload::inline(bytes);
        let (batch, peak) = peak_allocation(|| WorkloadBatch::decode(&payload));
        if let Some(batch) = batch {
            prop_assert!(batch.requests.len() * 26 <= len);
        }
        prop_assert!(
            peak <= allocation_bound(len),
            "a {len}-byte payload allocated {peak} bytes at once"
        );
    }
}

/// Writes `record` as a one-record segment in directory `name`, framed
/// with a valid checksum, and replays it; returns the segment's length
/// and the largest single allocation of the replay.
fn replay(name: &str, record: &[u8]) -> (usize, usize) {
    let dir = scratch(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the log directory");
    let mut segment = Vec::with_capacity(8 + record.len());
    segment.extend_from_slice(&(record.len() as u32).to_le_bytes());
    segment.extend_from_slice(&crc32(record).to_le_bytes());
    segment.extend_from_slice(record);
    fs::write(dir.join("wal-000000.log"), &segment).expect("write the segment");
    let (opened, peak) = peak_allocation(|| WalStore::open(&dir));
    match opened {
        Err(WalError::OldCheckpoint { .. }) => {
            assert_eq!(record[0], 3, "only tag 3 is the older checkpoint layout");
        }
        other => {
            other.expect("replay reports damage as a torn tail, not an error");
        }
    }
    (segment.len(), peak)
}

/// A checkpoint whose block, notarized, certificate or finalized list
/// claims 16 M elements in a few bytes reserves no room for them.
#[test]
fn a_checkpoint_claiming_millions_of_entries_allocates_only_what_arrives() {
    for list in 0..4 {
        // Tag 4 (checkpoint), `list` empty lists, then the bogus count.
        let mut record = vec![4u8];
        record.extend(std::iter::repeat_n(0u8, 4 * list));
        record.extend_from_slice(&0x00FF_FFFFu32.to_le_bytes());
        let (len, peak) = replay("claims", &record);
        assert!(
            peak <= allocation_bound(len),
            "list {list}: a {len}-byte segment allocated {peak} bytes at once"
        );
    }
}

/// A 1 MiB `ResponseBatch` whose count claims a million blocks reserves
/// room for at most `MAX_LIST_RESERVE` of them: bounding the reserve by
/// the bytes left alone would let a large frame reserve a block's size
/// per byte it carries (about 150 MB here, gigabytes at `MAX_FRAME`).
#[test]
fn a_large_frame_claiming_a_million_blocks_reserves_a_bounded_list() {
    let empty = Message::Sync(SyncMsg::ResponseBatch {
        blocks: Vec::new(),
        notarizations: Vec::new(),
    });
    let mut frame = empty.to_bytes();
    // The two empty lists' counts end the encoding: claim 1 M blocks,
    // then fill the megabyte with bytes that fail the first block's
    // payload discriminant, so nothing but the reserve is allocated.
    let blocks_count = frame.len() - 8;
    frame[blocks_count..blocks_count + 4].copy_from_slice(&(1u32 << 20).to_le_bytes());
    frame.resize(1 << 20, 0xFF);
    let (decoded, peak) = peak_allocation(|| Message::from_bytes(&frame));
    assert!(decoded.is_err(), "0xFF is no payload discriminant");
    let bound = MAX_LIST_RESERVE * std::mem::size_of::<Block>();
    assert!(
        peak <= bound,
        "a 1 MiB frame allocated {peak} bytes at once (bound {bound})"
    );
}
