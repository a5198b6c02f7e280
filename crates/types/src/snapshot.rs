//! [`ChainSnapshot`]: the portable, wire-encodable image of a replica's
//! durable chain state.
//!
//! A snapshot is what survives a crash: the block tree, the notarized set
//! and its certificates, and the finalized frontier. Every engine keeps
//! that state in one `banyan-storage` chain store, so a snapshot has one
//! shape: the store produces it (`Engine::snapshot` returns it),
//! `Engine::restore` consumes it, and it doubles as the WAL's checkpoint
//! record — one encoding for all three uses.
//!
//! Snapshots are **normalized**: every vector is sorted by a total,
//! content-derived key, so two replicas holding the same logical state
//! produce bit-identical snapshot bytes regardless of the insertion order
//! of their internal hash maps. That is what makes "restart-and-replay
//! reaches bit-identical state" a testable property.

use crate::block::Block;
use crate::certs::Notarization;
use crate::codec::{CodecError, Reader, Wire, Writer};
use crate::ids::{BlockHash, Round};

/// A replica's durable chain state at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChainSnapshot {
    /// Every stored block, keyed by its identity hash. The hash is
    /// carried explicitly so stores can restore without knowing the
    /// engine's payload-chunk hashing parameter; restoring engines may
    /// recompute and cross-check.
    pub blocks: Vec<(BlockHash, Block)>,
    /// Hashes of the notarized blocks (certificate may be absent when a
    /// quorum was only learned indirectly).
    pub notarized: Vec<BlockHash>,
    /// The notarization certificates held (a HotStuff QC is the record
    /// of the block it certifies, its view as the round).
    pub notarizations: Vec<Notarization>,
    /// The finalized frontier: `round → finalized block hash`.
    pub finalized: Vec<(Round, BlockHash)>,
    /// Highest committed round (the chained engine's `k_max`; the store's
    /// highest finalized round for HotStuff and Streamlet).
    pub committed_round: Round,
}

impl ChainSnapshot {
    /// True if the snapshot holds no state at all (a fresh replica).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
            && self.notarized.is_empty()
            && self.notarizations.is_empty()
            && self.finalized.is_empty()
            && self.committed_round == Round::GENESIS
    }

    /// Sorts every vector by a total, content-derived key so logically
    /// equal snapshots encode bit-identically. Engines call this before
    /// returning a snapshot assembled from hash-map iteration.
    pub fn normalize(&mut self) {
        self.blocks.sort_by_key(|(h, _)| *h);
        self.notarized.sort();
        self.notarizations
            .sort_by_key(|n| (n.round, n.block, n.fast_agg.is_some()));
        self.finalized.sort();
    }

    /// The highest finalized round recorded, genesis if none.
    pub fn max_finalized_round(&self) -> Round {
        self.finalized
            .iter()
            .map(|&(r, _)| r)
            .max()
            .unwrap_or(Round::GENESIS)
            .max(self.committed_round)
    }
}

impl Wire for ChainSnapshot {
    fn encode(&self, out: &mut Writer) {
        out.u32(u32::try_from(self.blocks.len()).expect("block count fits u32"));
        for (h, b) in &self.blocks {
            out.raw(&h.0);
            b.encode(out);
        }
        out.u32(u32::try_from(self.notarized.len()).expect("notarized count fits u32"));
        for h in &self.notarized {
            out.raw(&h.0);
        }
        out.var_list(&self.notarizations);
        out.u32(u32::try_from(self.finalized.len()).expect("finalized count fits u32"));
        for (round, h) in &self.finalized {
            out.u64(round.0);
            out.raw(&h.0);
        }
        out.u64(self.committed_round.0);
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ChainSnapshot {
            blocks: input.list(|r| Ok((BlockHash(r.array()?), Block::decode(r)?)))?,
            notarized: input.list(|r| Ok(BlockHash(r.array()?)))?,
            notarizations: input.var_list()?,
            finalized: input.list(|r| Ok((Round(r.u64()?), BlockHash(r.array()?))))?,
            committed_round: Round(input.u64()?),
        })
    }

    fn encoded_len(&self) -> usize {
        4 + self
            .blocks
            .iter()
            .map(|(_, b)| 32 + b.encoded_len())
            .sum::<usize>()
            + 4
            + 32 * self.notarized.len()
            + 4
            + self
                .notarizations
                .iter()
                .map(Wire::encoded_len)
                .sum::<usize>()
            + 4
            + 40 * self.finalized.len()
            + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Rank, ReplicaId};
    use crate::payload::Payload;
    use crate::time::Time;
    use banyan_crypto::{AggregateSignature, Signature, SignerBitmap};

    fn block(round: u64, proposer: u16) -> (BlockHash, Block) {
        let b = raw_block(round, proposer);
        (b.hash(1024), b)
    }

    fn raw_block(round: u64, proposer: u16) -> Block {
        Block {
            round: Round(round),
            proposer: ReplicaId(proposer),
            rank: Rank(0),
            parent: BlockHash([round as u8; 32]),
            proposed_at: Time(round * 7),
            payload: Payload::synthetic(100, round),
            signature: Signature::zero(),
        }
    }

    fn agg() -> AggregateSignature {
        let mut bm = SignerBitmap::new(4);
        bm.set(1);
        AggregateSignature {
            signers: bm,
            data: vec![3; 32],
        }
    }

    fn sample() -> ChainSnapshot {
        let mut snap = ChainSnapshot {
            blocks: vec![block(2, 1), block(1, 0)],
            notarized: vec![BlockHash([2; 32]), BlockHash([1; 32])],
            notarizations: vec![Notarization::from_votes(
                Round(1),
                BlockHash([1; 32]),
                agg(),
            )],
            finalized: vec![(Round(1), BlockHash([1; 32]))],
            committed_round: Round(1),
        };
        snap.normalize();
        snap
    }

    #[test]
    fn roundtrips() {
        let snap = sample();
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), snap.encoded_len());
        assert_eq!(ChainSnapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn empty_snapshot_roundtrips_and_reports_empty() {
        let snap = ChainSnapshot::default();
        assert!(snap.is_empty());
        assert_eq!(snap.max_finalized_round(), Round::GENESIS);
        assert_eq!(ChainSnapshot::from_bytes(&snap.to_bytes()).unwrap(), snap);
        assert!(!sample().is_empty());
    }

    #[test]
    fn normalization_makes_insertion_order_irrelevant() {
        let mut a = ChainSnapshot {
            blocks: vec![block(1, 0), block(2, 1), block(2, 3)],
            notarized: vec![BlockHash([9; 32]), BlockHash([1; 32])],
            ..ChainSnapshot::default()
        };
        let mut b = ChainSnapshot {
            blocks: vec![block(2, 3), block(1, 0), block(2, 1)],
            notarized: vec![BlockHash([1; 32]), BlockHash([9; 32])],
            ..ChainSnapshot::default()
        };
        a.normalize();
        b.normalize();
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn max_finalized_round_covers_both_sources() {
        let mut snap = ChainSnapshot::default();
        snap.finalized.push((Round(5), BlockHash([5; 32])));
        assert_eq!(snap.max_finalized_round(), Round(5));
        snap.committed_round = Round(9);
        assert_eq!(snap.max_finalized_round(), Round(9));
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let snap = sample();
        let bytes = snap.to_bytes();
        assert!(ChainSnapshot::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }
}
