//! Votes: the three signature flavors replicas broadcast.
//!
//! * **Notarization vote** — "I validated block `b` in round `k`" (§4).
//! * **Finalization vote** — "I sent notarization votes for no round-`k`
//!   block other than `b`" (§4, Algorithm 2 line 52).
//! * **Fast vote** — "the first round-`k` block I notarization-voted for is
//!   `b`" (Definition 6.2, Addition 3).
//!
//! Each flavor signs a distinct domain so a vote can never be replayed as a
//! different kind.

use banyan_crypto::Signature;

use crate::codec::{CodecError, Reader, Wire, Writer};
use crate::ids::{BlockHash, ReplicaId, Round};

/// Which of the three vote flavors this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VoteKind {
    /// Notarization vote (slow path, both ICC and Banyan).
    Notarize,
    /// Finalization vote (slow path, both ICC and Banyan).
    Finalize,
    /// Fast vote (Banyan fast path only).
    Fast,
}

impl VoteKind {
    fn discriminant(self) -> u8 {
        match self {
            VoteKind::Notarize => 0,
            VoteKind::Finalize => 1,
            VoteKind::Fast => 2,
        }
    }

    fn from_discriminant(d: u8) -> Result<Self, CodecError> {
        match d {
            0 => Ok(VoteKind::Notarize),
            1 => Ok(VoteKind::Finalize),
            2 => Ok(VoteKind::Fast),
            _ => Err(CodecError::Invalid("vote kind")),
        }
    }

    /// Domain-separation tag mixed into the signed message.
    pub fn domain(self) -> &'static [u8] {
        match self {
            VoteKind::Notarize => b"banyan/vote/notarize",
            VoteKind::Finalize => b"banyan/vote/finalize",
            VoteKind::Fast => b"banyan/vote/fast",
        }
    }
}

/// A single replica's vote for a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Vote {
    /// Vote flavor.
    pub kind: VoteKind,
    /// Round the vote refers to.
    pub round: Round,
    /// Voted block.
    pub block: BlockHash,
    /// Voting replica.
    pub voter: ReplicaId,
    /// Signature over [`Vote::signing_message`].
    pub signature: Signature,
}

impl Vote {
    /// The byte string a vote of this `(kind, round, block)` signs.
    ///
    /// Identical for every voter, which is what makes votes aggregatable
    /// into a multi-signature over a common message.
    pub fn signing_message(kind: VoteKind, round: Round, block: &BlockHash) -> Vec<u8> {
        let mut m = Vec::with_capacity(32 + 8 + 32);
        m.extend_from_slice(kind.domain());
        m.extend_from_slice(&round.0.to_le_bytes());
        m.extend_from_slice(&block.0);
        m
    }

    /// The message this specific vote signs.
    pub fn message(&self) -> Vec<u8> {
        Self::signing_message(self.kind, self.round, &self.block)
    }
}

impl Wire for Vote {
    fn encode(&self, out: &mut Writer) {
        out.u8(self.kind.discriminant());
        out.u64(self.round.0);
        out.raw(&self.block.0);
        out.u16(self.voter.0);
        out.raw(&self.signature.0);
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Vote {
            kind: VoteKind::from_discriminant(input.u8()?)?,
            round: Round(input.u64()?),
            block: BlockHash(input.array()?),
            voter: ReplicaId(input.u16()?),
            signature: Signature(input.array()?),
        })
    }

    fn encoded_len(&self) -> usize {
        1 + 8 + 32 + 2 + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: VoteKind) -> Vote {
        Vote {
            kind,
            round: Round(5),
            block: BlockHash([3u8; 32]),
            voter: ReplicaId(7),
            signature: Signature([9u8; 64]),
        }
    }

    #[test]
    fn wire_roundtrip_all_kinds() {
        for kind in [VoteKind::Notarize, VoteKind::Finalize, VoteKind::Fast] {
            let v = sample(kind);
            let bytes = v.to_bytes();
            assert_eq!(bytes.len(), v.encoded_len());
            assert_eq!(Vote::from_bytes(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn signing_domains_are_disjoint() {
        let r = Round(1);
        let b = BlockHash([1u8; 32]);
        let m1 = Vote::signing_message(VoteKind::Notarize, r, &b);
        let m2 = Vote::signing_message(VoteKind::Finalize, r, &b);
        let m3 = Vote::signing_message(VoteKind::Fast, r, &b);
        assert_ne!(m1, m2);
        assert_ne!(m1, m3);
        assert_ne!(m2, m3);
    }

    #[test]
    fn signing_message_binds_round_and_block() {
        let b = BlockHash([1u8; 32]);
        assert_ne!(
            Vote::signing_message(VoteKind::Fast, Round(1), &b),
            Vote::signing_message(VoteKind::Fast, Round(2), &b)
        );
        assert_ne!(
            Vote::signing_message(VoteKind::Fast, Round(1), &b),
            Vote::signing_message(VoteKind::Fast, Round(1), &BlockHash([2u8; 32]))
        );
    }

    #[test]
    fn bad_kind_discriminant_rejected() {
        let mut bytes = sample(VoteKind::Fast).to_bytes();
        bytes[0] = 9;
        assert_eq!(
            Vote::from_bytes(&bytes).unwrap_err(),
            CodecError::Invalid("vote kind")
        );
    }
}
