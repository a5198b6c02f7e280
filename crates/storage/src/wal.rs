//! [`WalStore`]: the write-ahead-logged chain store.
//!
//! Every mutation (block insert, notarization, finalization) is appended
//! to a segmented log **before** it touches the in-memory cache, so the
//! cache is always a pure function of the bytes on disk. Records are
//! length-prefixed and CRC-checksummed:
//!
//! ```text
//! ┌──────────┬──────────┬────────────────────────────┐
//! │ len: u32 │ crc: u32 │ payload: tag u8 + body     │  (little-endian)
//! └──────────┴──────────┴────────────────────────────┘
//! tag 0 = Block { hash, block }         tag 2 = Finalize { round, hash }
//! tag 1 = Notarize { hash, cert? }      tag 4 = Checkpoint(ChainSnapshot)
//! ```
//!
//! Tag 3 was the checkpoint of an older snapshot layout, one that still
//! carried HotStuff's `justifies` and `committed_view`. Such a record
//! cannot be read, and cutting it off as a torn tail would erase the rest
//! of the log, so [`WalStore::open`] refuses the directory with
//! [`WalError::OldCheckpoint`] instead.
//!
//! [`WalStore::open`] replays every segment in ascending order and stops at
//! the **first** record whose length, checksum, or decode fails — a torn
//! tail from a crash mid-write. The torn tail is truncated and any later
//! segments are deleted, so recovery always yields a consistent *prefix*
//! of the mutation history (never a gap).
//!
//! When the records appended to the live segment since its leading
//! checkpoint exceed the rotation threshold (see
//! [`WalStore::open_with`]), the store
//! rotates: it opens a fresh segment whose first record is a
//! `Checkpoint` of the current state and deletes all older segments —
//! this is how log bytes "wholly below the commit frontier" are pruned
//! while keeping recovery single-pass.

use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use banyan_types::certs::Notarization;
use banyan_types::codec::{CodecError, Reader, Wire, Writer, MAX_LEN};
use banyan_types::ids::{BlockHash, Round};
use banyan_types::{Block, ChainSnapshot};

use crate::memory::BlockStore;
use crate::ChainStore;

/// Default segment rotation threshold: 4 MiB of log per segment.
pub const DEFAULT_SEGMENT_LIMIT: u64 = 4 << 20;

/// The IEEE 802.3 CRC-32 polynomial, bit-reflected.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables for [`crc32`], evaluated at compile time.
/// `CRC32_TABLES[0][b]` is the CRC register after shifting byte `b`
/// through eight zero bits (the classic one-byte table); `[k][b]` is the
/// same byte followed by `k` further zero bytes, which is what lets eight
/// input bytes be folded with eight independent lookups.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut byte = 0;
    while byte < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        byte += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, reflected; check value `0xCBF43926`) —
/// the checksum of every WAL frame. A table-driven slice-by-8 walk: eight
/// input bytes per step over `const`-evaluated tables. Deliberately not the
/// SSE4.2 `crc32` instruction, which computes CRC-32C — a different
/// polynomial, and so a different on-disk format.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let (chunks, tail) = data.as_chunks::<8>();
    for c in chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// The tag of a [`WalRecord::Checkpoint`].
const CHECKPOINT_TAG: u8 = 4;

/// The tag of a checkpoint in the older snapshot layout (see the module
/// docs): a checksummed record with it is an old log, not a torn tail.
const OLD_CHECKPOINT_TAG: u8 = 3;

/// One durable mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
enum WalRecord {
    /// A block entered the store.
    Block { hash: BlockHash, block: Block },
    /// A block was marked notarized (certificate retained if present).
    Notarize {
        hash: BlockHash,
        cert: Option<Notarization>,
    },
    /// A round's block was finalized.
    Finalize { round: Round, hash: BlockHash },
    /// Full-state checkpoint: replay restarts from here. Written as the
    /// first record of each rotated segment.
    Checkpoint(ChainSnapshot),
}

impl Wire for WalRecord {
    fn encode(&self, out: &mut Writer) {
        match self {
            WalRecord::Block { hash, block } => {
                out.u8(0);
                out.raw(&hash.0);
                block.encode(out);
            }
            WalRecord::Notarize { hash, cert } => {
                out.u8(1);
                out.raw(&hash.0);
                out.option(cert);
            }
            WalRecord::Finalize { round, hash } => {
                out.u8(2);
                out.u64(round.0);
                out.raw(&hash.0);
            }
            WalRecord::Checkpoint(snap) => {
                out.u8(CHECKPOINT_TAG);
                snap.encode(out);
            }
        }
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        match input.u8()? {
            0 => Ok(WalRecord::Block {
                hash: BlockHash(input.bytes32()?),
                block: Block::decode(input)?,
            }),
            1 => Ok(WalRecord::Notarize {
                hash: BlockHash(input.bytes32()?),
                cert: input.option()?,
            }),
            2 => Ok(WalRecord::Finalize {
                round: Round(input.u64()?),
                hash: BlockHash(input.bytes32()?),
            }),
            CHECKPOINT_TAG => Ok(WalRecord::Checkpoint(ChainSnapshot::decode(input)?)),
            _ => Err(CodecError::Invalid("wal record tag")),
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            WalRecord::Block { block, .. } => 1 + 32 + block.encoded_len(),
            WalRecord::Notarize { cert, .. } => {
                1 + 32 + 1 + cert.as_ref().map_or(0, Wire::encoded_len)
            }
            WalRecord::Finalize { .. } => 1 + 8 + 32,
            WalRecord::Checkpoint(snap) => 1 + snap.encoded_len(),
        }
    }
}

/// Errors from opening or appending to the log.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A segment holds a checkpoint in the older snapshot layout; the
    /// directory is left untouched. Delete it to start the replica over.
    OldCheckpoint {
        /// Index of the segment that holds it.
        segment: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::OldCheckpoint { segment } => write!(
                f,
                "wal segment {segment} holds a checkpoint in an older layout"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.log"))
}

/// Frames `record` as `len | crc | payload` in one buffer: the 8 header
/// bytes are reserved, the record is encoded behind them, and length and
/// checksum are patched in place.
fn encode_frame(record: &WalRecord) -> Vec<u8> {
    let mut out = Writer::with_capacity(8 + record.encoded_len());
    out.raw(&[0u8; 8]);
    record.encode(&mut out);
    let mut frame = out.into_bytes();
    let (header, payload) = frame.split_at_mut(8);
    let len = u32::try_from(payload.len()).expect("wal record length fits u32");
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    frame
}

/// Splits a raw segment buffer into records, returning the decoded
/// records and the byte offset of the first torn/corrupt record (equal to
/// `buf.len()` when the whole segment is clean), or `None` at a
/// checksummed checkpoint in the older layout.
fn scan_segment(buf: &[u8]) -> Option<(Vec<WalRecord>, usize)> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(&[l0, l1, l2, l3, c0, c1, c2, c3]) = buf[pos..].first_chunk::<8>() {
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let crc = u32::from_le_bytes([c0, c1, c2, c3]);
        if len == 0 || len > MAX_LEN || buf.len() - pos - 8 < len {
            break;
        }
        let payload = &buf[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break;
        }
        if payload[0] == OLD_CHECKPOINT_TAG {
            return None;
        }
        let Ok(record) = WalRecord::from_bytes(payload) else {
            break;
        };
        records.push(record);
        pos += 8 + len;
    }
    Some((records, pos))
}

/// The write-ahead-logged chain store: a [`BlockStore`] cache kept as a
/// pure function of an on-disk segmented log.
#[derive(Debug)]
pub struct WalStore {
    mem: BlockStore,
    dir: PathBuf,
    file: File,
    /// Index of the live (highest-numbered) segment.
    segment: u64,
    /// Index of the oldest live segment (older ones were pruned).
    oldest_segment: u64,
    /// Bytes appended to the live segment *after* its leading checkpoint —
    /// what rotation weighs against the limit. Counting the checkpoint
    /// itself would make a store whose whole-chain checkpoint outgrew the
    /// limit rotate (and rewrite the chain) on every append.
    segment_bytes: u64,
    /// Bytes across all live segments.
    total_bytes: u64,
    /// Rotation threshold for the live segment.
    segment_limit: u64,
    /// When true, fsync after every append (durability over throughput).
    sync_on_append: bool,
}

impl WalStore {
    /// Opens (or creates) the log directory and replays it into memory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, WalError> {
        Self::open_with(dir, DEFAULT_SEGMENT_LIMIT, false)
    }

    /// [`WalStore::open`] with explicit rotation threshold and fsync
    /// policy.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        segment_limit: u64,
        sync_on_append: bool,
    ) -> Result<Self, WalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;

        let mut segments: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(idx) = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                segments.push(idx);
            }
        }
        segments.sort_unstable();

        let mut mem = BlockStore::new();
        let mut total_bytes = 0u64;
        let mut live: Option<(u64, u64)> = None; // (segment, bytes)
        let mut torn_at: Option<(usize, usize)> = None; // (position in `segments`, clean offset)
        for (i, &idx) in segments.iter().enumerate() {
            let path = segment_path(&dir, idx);
            let mut buf = Vec::new();
            File::open(&path)?.read_to_end(&mut buf)?;
            let (records, clean) =
                scan_segment(&buf).ok_or(WalError::OldCheckpoint { segment: idx })?;
            total_bytes += clean as u64;
            // A rotated segment opens with its checkpoint, which does not
            // count against the rotation limit (see `segment_bytes`).
            let lead = match records.first() {
                Some(WalRecord::Checkpoint(_)) => buf
                    .first_chunk::<4>()
                    .map_or(0, |len| 8 + u64::from(u32::from_le_bytes(*len))),
                _ => 0,
            };
            live = Some((idx, clean as u64 - lead));
            for record in records {
                apply(&mut mem, record);
            }
            if clean < buf.len() {
                torn_at = Some((i, clean));
                break;
            }
        }

        // Torn tail: truncate the damaged segment at its last clean record
        // and delete every later segment — recovery is a consistent prefix.
        if let Some((i, clean)) = torn_at {
            let path = segment_path(&dir, segments[i]);
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(clean as u64)?;
            f.sync_all()?;
            for &idx in &segments[i + 1..] {
                fs::remove_file(segment_path(&dir, idx))?;
            }
        }

        let (segment, segment_bytes) = live.unwrap_or((0, 0));
        let oldest_segment = segments.first().copied().unwrap_or(segment);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&dir, segment))?;
        Ok(WalStore {
            mem,
            dir,
            file,
            segment,
            oldest_segment,
            segment_bytes,
            total_bytes,
            segment_limit,
            sync_on_append,
        })
    }

    /// Sets (or clears) the in-memory retention window (see
    /// [`BlockStore::set_retention`]). The log itself is pruned by
    /// segment rotation, not by this knob.
    pub fn set_retention(&mut self, keep_rounds: Option<u64>) {
        self.mem.set_retention(keep_rounds);
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Read access to the in-memory cache.
    pub fn cache(&self) -> &BlockStore {
        &self.mem
    }

    fn append(&mut self, record: &WalRecord) {
        let frame = encode_frame(record);
        self.file.write_all(&frame).expect("wal append");
        if self.sync_on_append {
            self.file.sync_data().expect("wal fsync");
        }
        self.segment_bytes += frame.len() as u64;
        self.total_bytes += frame.len() as u64;
        self.maybe_rotate();
    }

    /// Rotates to a fresh segment once the live one has taken `segment_limit`
    /// bytes of appends:
    /// the new segment opens with a checkpoint of current state and all
    /// older segments — wholly below that checkpoint — are deleted.
    fn maybe_rotate(&mut self) {
        if self.segment_bytes < self.segment_limit {
            return;
        }
        let next = self.segment + 1;
        let frame = encode_frame(&WalRecord::Checkpoint(self.mem.snapshot()));

        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.dir, next))
            .expect("wal rotate");
        file.write_all(&frame).expect("wal checkpoint");
        file.sync_data().expect("wal checkpoint fsync");

        for idx in self.oldest_segment..=self.segment {
            let _ = fs::remove_file(segment_path(&self.dir, idx));
        }
        self.file = file;
        self.oldest_segment = next;
        self.segment = next;
        self.segment_bytes = 0;
        self.total_bytes = frame.len() as u64;
    }
}

fn apply(mem: &mut BlockStore, record: WalRecord) {
    match record {
        WalRecord::Block { hash, block } => {
            mem.insert(hash, block);
        }
        WalRecord::Notarize { hash, cert } => mem.mark_notarized(hash, cert),
        WalRecord::Finalize { round, hash } => mem.mark_finalized(round, hash),
        WalRecord::Checkpoint(snap) => mem.restore(&snap),
    }
}

impl ChainStore for WalStore {
    fn insert(&mut self, hash: BlockHash, block: Block) -> bool {
        // Duplicate check before the clone: relays re-offer stored blocks.
        if self.mem.get(&hash).is_some() {
            return false;
        }
        // Cache first, then log: `append` may rotate, and the rotation
        // checkpoint must include this mutation (the old segment holding
        // its record is deleted).
        self.mem.insert(hash, block.clone());
        self.append(&WalRecord::Block { hash, block });
        true
    }

    fn get(&self, hash: &BlockHash) -> Option<&Block> {
        self.mem.get(hash)
    }

    fn contains(&self, hash: &BlockHash) -> bool {
        self.mem.contains(hash)
    }

    fn round_blocks(&self, round: Round) -> &[BlockHash] {
        self.mem.round_blocks(round)
    }

    fn mark_notarized(&mut self, hash: BlockHash, cert: Option<Notarization>) {
        // Skip the append when it would change nothing durable: already
        // notarized and either no new certificate or one already retained.
        let news = !self.mem.is_notarized(&hash)
            || (cert.is_some() && self.mem.notarization(&hash).is_none());
        self.mem.mark_notarized(hash, cert.clone());
        if news {
            self.append(&WalRecord::Notarize { hash, cert });
        }
    }

    fn is_notarized(&self, hash: &BlockHash) -> bool {
        self.mem.is_notarized(hash)
    }

    fn notarization(&self, hash: &BlockHash) -> Option<&Notarization> {
        self.mem.notarization(hash)
    }

    fn mark_finalized(&mut self, round: Round, hash: BlockHash) {
        let news = self.mem.finalized(round) != Some(hash);
        self.mem.mark_finalized(round, hash);
        if news {
            self.append(&WalRecord::Finalize { round, hash });
        }
    }

    fn finalized(&self, round: Round) -> Option<BlockHash> {
        self.mem.finalized(round)
    }

    fn is_finalized(&self, round: Round, hash: &BlockHash) -> bool {
        self.mem.is_finalized(round, hash)
    }

    fn max_finalized_round(&self) -> Round {
        self.mem.max_finalized_round()
    }

    fn chain_to(&self, tip: &BlockHash, stop_after: Round) -> Option<Vec<(BlockHash, &Block)>> {
        self.mem.chain_to(tip, stop_after)
    }

    fn len(&self) -> usize {
        self.mem.len()
    }

    fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    fn prune_below(&mut self, round: Round) {
        // In-memory prune only; log bytes are reclaimed at segment
        // rotation, which re-checkpoints the pruned state.
        self.mem.prune_below(round);
    }

    fn snapshot(&self) -> ChainSnapshot {
        self.mem.snapshot()
    }

    fn restore(&mut self, snapshot: &ChainSnapshot) {
        self.mem.restore(snapshot);
        self.append(&WalRecord::Checkpoint(snapshot.clone()));
    }

    fn wal_bytes(&self) -> u64 {
        self.total_bytes
    }

    fn sync(&mut self) {
        self.file.sync_data().expect("wal sync");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banyan_crypto::Signature;
    use banyan_types::ids::{Rank, ReplicaId};
    use banyan_types::payload::Payload;
    use banyan_types::time::Time;

    fn block(round: u64, parent: BlockHash, tag: u8) -> (BlockHash, Block) {
        let b = Block {
            round: Round(round),
            proposer: ReplicaId(tag as u16),
            rank: Rank(0),
            parent,
            proposed_at: Time(round),
            payload: Payload::synthetic(100, tag as u64),
            signature: Signature::zero(),
        };
        (b.hash(1024), b)
    }

    fn scratch_dir(name: &str) -> PathBuf {
        // Keep test artifacts inside the repo's target directory.
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/wal-tests")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The bit-at-a-time CRC-32 the log was first written with: the
    /// reference the table-driven [`crc32`] must reproduce bit for bit.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every length 0..=200 walks every tail length 0..8 after 0..=25
    /// eight-byte steps.
    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_length() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 167 + 13) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "length {len}"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_matches_the_bitwise_reference_on_arbitrary_bytes(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
        ) {
            proptest::prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }
    }

    /// The format did not fork: a segment framed by hand with the bitwise
    /// reference checksum is byte-identical to what the store writes, and
    /// replays record for record.
    #[test]
    fn segment_checksummed_by_the_reference_replays_record_for_record() {
        let dir = scratch_dir("reference-crc");
        let (h1, b1) = block(1, BlockHash::ZERO, 1);
        let (h2, mut b2) = block(2, h1, 2);
        b2.payload = Payload::inline((0..3000u32).map(|i| i as u8).collect::<Vec<u8>>());
        let mut mem = BlockStore::new();
        mem.insert(h1, b1.clone());
        mem.mark_finalized(Round(1), h1);
        let records = vec![
            WalRecord::Checkpoint(mem.snapshot()),
            WalRecord::Block {
                hash: h2,
                block: b2,
            },
            WalRecord::Notarize {
                hash: h2,
                cert: None,
            },
            WalRecord::Finalize {
                round: Round(2),
                hash: h2,
            },
        ];
        let mut segment = Vec::new();
        for record in &records {
            let payload = record.to_bytes();
            let start = segment.len();
            segment.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            segment.extend_from_slice(&crc32_bitwise(&payload).to_le_bytes());
            segment.extend_from_slice(&payload);
            assert_eq!(segment[start..], encode_frame(record)[..]);
        }
        fs::create_dir_all(&dir).unwrap();
        fs::write(segment_path(&dir, 0), &segment).unwrap();

        let (scanned, clean) = scan_segment(&segment).unwrap();
        assert_eq!(clean, segment.len(), "no record rejected");
        assert_eq!(scanned, records);

        for record in records {
            apply(&mut mem, record);
        }
        let wal = WalStore::open(&dir).unwrap();
        assert_eq!(wal.snapshot().to_bytes(), mem.snapshot().to_bytes());
        assert_eq!(wal.wal_bytes(), segment.len() as u64, "nothing truncated");
        assert!(wal.is_finalized(Round(2), &h2));
    }

    #[test]
    fn reopen_recovers_all_mutations() {
        let dir = scratch_dir("reopen");
        let (h1, b1) = block(1, BlockHash::ZERO, 1);
        let (h2, b2) = block(2, h1, 2);
        let expected;
        {
            let mut wal = WalStore::open(&dir).unwrap();
            assert!(wal.insert(h1, b1));
            assert!(wal.insert(h2, b2));
            wal.mark_notarized(h1, None);
            wal.mark_finalized(Round(1), h1);
            assert!(wal.wal_bytes() > 0);
            expected = wal.snapshot();
        }
        let wal = WalStore::open(&dir).unwrap();
        assert_eq!(wal.len(), 2);
        assert!(wal.is_notarized(&h1));
        assert!(wal.is_finalized(Round(1), &h1));
        assert_eq!(wal.max_finalized_round(), Round(1));
        assert_eq!(
            wal.snapshot().to_bytes(),
            expected.to_bytes(),
            "replayed state is bit-identical"
        );
    }

    #[test]
    fn duplicate_marks_do_not_grow_the_log() {
        let dir = scratch_dir("dedup");
        let mut wal = WalStore::open(&dir).unwrap();
        let (h1, b1) = block(1, BlockHash::ZERO, 1);
        wal.insert(h1, b1.clone());
        wal.mark_notarized(h1, None);
        wal.mark_finalized(Round(1), h1);
        let bytes = wal.wal_bytes();
        assert!(!wal.insert(h1, b1), "duplicate insert rejected");
        wal.mark_notarized(h1, None);
        wal.mark_finalized(Round(1), h1);
        assert_eq!(
            wal.wal_bytes(),
            bytes,
            "idempotent mutations append nothing"
        );
    }

    #[test]
    fn an_old_layout_checkpoint_is_refused_not_cut_off() {
        let dir = scratch_dir("old-checkpoint");
        let (h1, b1) = block(1, BlockHash::ZERO, 1);
        {
            let mut wal = WalStore::open(&dir).unwrap();
            wal.insert(h1, b1);
        }
        // A checksummed tag-3 record between two good ones: the old
        // checkpoint layout, whatever its body.
        let path = segment_path(&dir, 0);
        let mut segment = fs::read(&path).unwrap();
        let good = segment.clone();
        let old = [OLD_CHECKPOINT_TAG, 0, 0, 0, 0];
        segment.extend_from_slice(&(old.len() as u32).to_le_bytes());
        segment.extend_from_slice(&crc32(&old).to_le_bytes());
        segment.extend_from_slice(&old);
        segment.extend_from_slice(&good);
        fs::write(&path, &segment).unwrap();
        fs::write(segment_path(&dir, 1), &good).unwrap();

        let err = WalStore::open(&dir).unwrap_err();
        assert!(
            matches!(err, WalError::OldCheckpoint { segment: 0 }),
            "{err}"
        );
        assert_eq!(fs::read(&path).unwrap(), segment, "segment left whole");
        assert!(segment_path(&dir, 1).exists(), "later segment kept");
    }

    #[test]
    fn torn_tail_is_truncated_to_a_consistent_prefix() {
        let dir = scratch_dir("torn");
        let (h1, b1) = block(1, BlockHash::ZERO, 1);
        let (h2, b2) = block(2, h1, 2);
        {
            let mut wal = WalStore::open(&dir).unwrap();
            wal.insert(h1, b1);
            wal.insert(h2, b2);
        }
        // Simulate a crash mid-append: chop bytes off the live segment.
        let path = segment_path(&dir, 0);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 7]).unwrap();

        let wal = WalStore::open(&dir).unwrap();
        assert!(wal.contains(&h1), "clean prefix survives");
        assert!(!wal.contains(&h2), "torn record dropped");
        let truncated = fs::metadata(&path).unwrap().len();
        assert!(
            truncated < full.len() as u64 - 7,
            "torn tail physically truncated"
        );
        // A second reopen is stable: same prefix, no further truncation.
        drop(wal);
        let wal = WalStore::open(&dir).unwrap();
        assert!(wal.contains(&h1));
        assert_eq!(fs::metadata(&path).unwrap().len(), truncated);
    }

    #[test]
    fn corrupt_middle_record_drops_the_suffix() {
        let dir = scratch_dir("corrupt");
        let (h1, b1) = block(1, BlockHash::ZERO, 1);
        let (h2, b2) = block(2, h1, 2);
        let first_len;
        {
            let mut wal = WalStore::open(&dir).unwrap();
            wal.insert(h1, b1);
            first_len = wal.wal_bytes();
            wal.insert(h2, b2);
        }
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of the second record.
        let idx = first_len as usize + 12;
        bytes[idx] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let wal = WalStore::open(&dir).unwrap();
        assert!(wal.contains(&h1));
        assert!(!wal.contains(&h2), "suffix after corruption dropped");
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            first_len,
            "segment truncated at last clean record"
        );
        // Appends continue cleanly after recovery.
        drop(wal);
        let mut wal = WalStore::open(&dir).unwrap();
        let (h3, b3) = block(3, h1, 3);
        wal.insert(h3, b3);
        drop(wal);
        let wal = WalStore::open(&dir).unwrap();
        assert!(wal.contains(&h3));
    }

    #[test]
    fn rotation_checkpoints_and_prunes_old_segments() {
        let dir = scratch_dir("rotate");
        // Tiny limit: rotate roughly every record.
        let mut wal = WalStore::open_with(&dir, 256, false).unwrap();
        let mut parent = BlockHash::ZERO;
        for round in 1..=20u64 {
            let (h, b) = block(round, parent, 1);
            wal.insert(h, b);
            wal.mark_finalized(Round(round), h);
            parent = h;
        }
        let expected = wal.snapshot();
        let live_segments = fs::read_dir(&dir).unwrap().count();
        assert!(
            live_segments <= 2,
            "old segments pruned (found {live_segments})"
        );
        assert!(wal.wal_bytes() > 0);
        drop(wal);
        let wal = WalStore::open(&dir).unwrap();
        assert_eq!(
            wal.snapshot().to_bytes(),
            expected.to_bytes(),
            "checkpointed state replays bit-identically"
        );
        assert_eq!(wal.max_finalized_round(), Round(20));
    }

    /// Once the whole-chain checkpoint outgrows the segment limit, the
    /// checkpoint a rotation writes must not itself trigger the next
    /// rotation — live, or after a reopen re-derives the segment fill.
    #[test]
    fn oversized_checkpoint_does_not_rotate_on_every_append() {
        let dir = scratch_dir("rerotate");
        let mut wal = WalStore::open(&dir).unwrap();
        let mut parent = BlockHash::ZERO;
        let mut extend = |wal: &mut WalStore, round: u64, bytes: usize| {
            let mut b = block(round, parent, 1).1;
            b.payload = Payload::inline(vec![round as u8; bytes]);
            let h = b.hash(1024);
            wal.insert(h, b);
            wal.mark_finalized(Round(round), h);
            parent = h;
        };
        // 80 × 64 KiB: the chain (and so every checkpoint of it) passes
        // the default 4 MiB limit.
        for round in 1..=80 {
            extend(&mut wal, round, 64 << 10);
        }
        assert!(wal.segment >= 1, "the fill rotated at least once");
        assert!(wal.snapshot().to_bytes().len() as u64 > DEFAULT_SEGMENT_LIMIT);
        let before = wal.segment;
        for round in 81..=180 {
            extend(&mut wal, round, 256);
        }
        // Reopen mid-way: the re-derived fill must not count the
        // checkpoint either.
        let expected = wal.snapshot();
        drop(wal);
        let mut wal = WalStore::open(&dir).unwrap();
        assert_eq!(wal.snapshot().to_bytes(), expected.to_bytes());
        for round in 181..=280 {
            extend(&mut wal, round, 256);
        }
        assert!(
            wal.segment - before <= 2,
            "200 small appends rotated {} times",
            wal.segment - before
        );
        let expected = wal.snapshot();
        drop(wal);
        let wal = WalStore::open(&dir).unwrap();
        assert_eq!(
            wal.snapshot().to_bytes(),
            expected.to_bytes(),
            "replayed state is bit-identical"
        );
        assert_eq!(wal.max_finalized_round(), Round(280));
    }

    #[test]
    fn empty_directory_opens_as_fresh_store() {
        let dir = scratch_dir("fresh");
        let wal = WalStore::open(&dir).unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.max_finalized_round(), Round::GENESIS);
        assert_eq!(wal.wal_bytes(), 0);
    }
}
