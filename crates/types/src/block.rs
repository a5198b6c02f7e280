//! Blocks and the block header hash.
//!
//! A round-`k` block is `(k, proposer, hash(parent), payload, signature)`
//! (Algorithm 1, line 25). We additionally record the proposer's `rank`
//! (derivable from the beacon, carried for convenience and cross-checked on
//! validation) and the proposer-local `proposed_at` timestamp used for the
//! paper's latency metric ("proposal finalization time, measured at the
//! respective proposer", §9.2).

use banyan_crypto::sha256::sha256_concat;
use banyan_crypto::Signature;

use crate::codec::{CodecError, Reader, Wire, Writer};
use crate::ids::{BlockHash, Rank, ReplicaId, Round};
use crate::payload::Payload;
use crate::time::Time;

/// A proposed block.
///
/// Equality compares every field, the payload last: two blocks that
/// differ in a header field or the signature are told apart without
/// reading their payloads, and equal inline payloads compare by pointer
/// when they share a buffer, by `memcmp` otherwise. Equal blocks have
/// equal [`hash`](Block::hash)es, so a replica holding a block can
/// recognise a copy of it without hashing the copy.
#[derive(Clone, Debug, Eq)]
pub struct Block {
    /// Round (= block-tree height) this block belongs to.
    pub round: Round,
    /// Proposing replica.
    pub proposer: ReplicaId,
    /// The proposer's rank in `round` (0 = leader). Receivers re-derive
    /// this from the beacon and reject mismatches.
    pub rank: Rank,
    /// Hash of the parent block (a notarized — and, in Banyan, unlocked —
    /// block of round − 1).
    pub parent: BlockHash,
    /// Proposer-local creation time; the proposer's latency metric
    /// baseline. Not trusted by other replicas for anything.
    pub proposed_at: Time,
    /// Transaction payload.
    pub payload: Payload,
    /// Proposer's signature over [`Block::hash`].
    pub signature: Signature,
}

impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        self.round == other.round
            && self.proposer == other.proposer
            && self.rank == other.rank
            && self.parent == other.parent
            && self.proposed_at == other.proposed_at
            && self.signature == other.signature
            && self.payload == other.payload
    }
}

impl Block {
    /// Computes the block's identity hash.
    ///
    /// Covers every header field and the payload commitment; excludes the
    /// signature (which signs this hash).
    pub fn hash(&self, payload_chunk: usize) -> BlockHash {
        let digest = sha256_concat(&[
            b"banyan/block/v1",
            &self.round.0.to_le_bytes(),
            &self.proposer.0.to_le_bytes(),
            &self.rank.0.to_le_bytes(),
            &self.parent.0,
            &self.proposed_at.0.to_le_bytes(),
            &self.payload.len().to_le_bytes(),
            &self.payload.commitment(payload_chunk),
        ]);
        BlockHash(digest)
    }

    /// The message a proposer signs: the block hash in the block domain.
    pub fn signing_message(hash: &BlockHash) -> Vec<u8> {
        let mut m = Vec::with_capacity(16 + 32);
        m.extend_from_slice(b"banyan/sign/block");
        m.extend_from_slice(&hash.0);
        m
    }

    /// Logical payload size in bytes.
    pub fn payload_len(&self) -> u64 {
        self.payload.len()
    }
}

impl Wire for Block {
    fn encode(&self, out: &mut Writer) {
        out.u64(self.round.0);
        out.u16(self.proposer.0);
        out.u16(self.rank.0);
        out.raw(&self.parent.0);
        out.u64(self.proposed_at.0);
        self.payload.encode(out);
        out.raw(&self.signature.0);
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Block {
            round: Round(input.u64()?),
            proposer: ReplicaId(input.u16()?),
            rank: Rank(input.u16()?),
            parent: BlockHash(input.array()?),
            proposed_at: Time(input.u64()?),
            payload: Payload::decode(input)?,
            signature: Signature(input.array()?),
        })
    }

    fn encoded_len(&self) -> usize {
        8 + 2 + 2 + 32 + 8 + self.payload.encoded_len() + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Block {
        Block {
            round: Round(3),
            proposer: ReplicaId(2),
            rank: Rank(0),
            parent: BlockHash([7u8; 32]),
            proposed_at: Time(123_456_789),
            payload: Payload::synthetic(400_000, 9),
            signature: Signature::zero(),
        }
    }

    #[test]
    fn hash_covers_header_fields() {
        let chunk = 64 * 1024;
        let base = sample();
        let h = base.hash(chunk);
        // Mutating any header field must change the hash.
        let mut b = base.clone();
        b.round = Round(4);
        assert_ne!(b.hash(chunk), h);
        let mut b = base.clone();
        b.proposer = ReplicaId(3);
        assert_ne!(b.hash(chunk), h);
        let mut b = base.clone();
        b.rank = Rank(1);
        assert_ne!(b.hash(chunk), h);
        let mut b = base.clone();
        b.parent = BlockHash([8u8; 32]);
        assert_ne!(b.hash(chunk), h);
        let mut b = base.clone();
        b.proposed_at = Time(1);
        assert_ne!(b.hash(chunk), h);
        let mut b = base.clone();
        b.payload = Payload::synthetic(400_000, 10);
        assert_ne!(b.hash(chunk), h);
    }

    #[test]
    fn hash_excludes_signature() {
        let chunk = 64 * 1024;
        let base = sample();
        let mut signed = base.clone();
        signed.signature = Signature([5u8; 64]);
        assert_eq!(signed.hash(chunk), base.hash(chunk));
    }

    #[test]
    fn hash_follows_payload_replacement_after_memoizing() {
        // The commitment memo lives on the payload buffer, not the block:
        // assigning a new payload can never leave a stale hash behind.
        let chunk = 16;
        let mut b = sample();
        b.payload = Payload::inline(vec![1; 64]);
        let h = b.hash(chunk);
        let holder = b.clone();
        assert!(holder.payload.ptr_eq(&b.payload));
        b.payload = Payload::inline(vec![2; 64]);
        assert_ne!(b.hash(chunk), h);
        assert_eq!(holder.hash(chunk), h);
    }

    #[test]
    fn equality_covers_every_field() {
        let mut base = sample();
        base.payload = Payload::inline(vec![3; 64]);
        // A distinct buffer with equal bytes is an equal block.
        let mut copy = base.clone();
        copy.payload = Payload::inline(vec![3; 64]);
        assert_eq!(copy, base);
        let mut b = base.clone();
        b.signature = Signature([5u8; 64]);
        assert_ne!(b, base);
        let mut b = base.clone();
        b.proposed_at = Time(1);
        assert_ne!(b, base);
        let mut b = base.clone();
        b.payload = Payload::inline(vec![4; 64]);
        assert_ne!(b, base);
    }

    #[test]
    fn wire_roundtrip() {
        let b = sample();
        let bytes = b.to_bytes();
        assert_eq!(bytes.len(), b.encoded_len());
        assert_eq!(Block::from_bytes(&bytes).unwrap(), b);
    }

    #[test]
    fn inline_payload_roundtrip() {
        let mut b = sample();
        b.payload = Payload::inline(vec![1, 2, 3, 4, 5]);
        assert_eq!(Block::from_bytes(&b.to_bytes()).unwrap(), b);
        assert_eq!(b.payload_len(), 5);
    }

    #[test]
    fn signing_message_binds_hash() {
        let h1 = BlockHash([1u8; 32]);
        let h2 = BlockHash([2u8; 32]);
        assert_ne!(Block::signing_message(&h1), Block::signing_message(&h2));
    }
}
