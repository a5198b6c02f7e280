//! Certificates: aggregated quorums of votes.
//!
//! * [`Notarization`] — `⌈(n+f+1)/2⌉` notarization votes for one block
//!   (Algorithm 2, line 45).
//! * [`Finalization`] — either `⌈(n+f+1)/2⌉` finalization votes
//!   (SP-finalization) or `n − p` fast votes for a rank-0 block
//!   (FP-finalization); the `kind` field records which (Definition 6.1).
//! * [`UnlockProof`] — the collection of fast votes proving a block is
//!   *unlocked* per Definition 7.6/7.7. Because condition 2 can involve fast
//!   votes for several distinct blocks, the proof groups votes per block.
//! * [`QuorumCert`] — HotStuff-style QC, used by the baseline engines.
//!
//! Certificates carry [`AggregateSignature`]s; semantic validation (does
//! this quorum actually satisfy Definition 7.6?) lives with the engines in
//! `banyan-core`, which know the beacon and configuration.
//!
//! # Aggregate payload format and scheme negotiation
//!
//! The wire codec treats an aggregate's `data` as an opaque byte string:
//! its internal format is determined by the signature scheme the cluster's
//! key registry was built with (`PublicKeyTable::scheme().scheme_id()`),
//! not by anything on the wire. A cluster running the compact Schnorr codec
//! (`SCHEME_ID_SCHNORR_COMPACT`) ships `9 + 8k`-byte certificates where the
//! naive encoding would ship `16k`; both round-trip through the same
//! [`Wire`] impl unchanged. Mixing scheme ids across a cluster is a
//! configuration error and surfaces as verification failure, never as a
//! codec error.
//!
//! # Quorum gating
//!
//! `verify_aggregate` on every scheme deliberately accepts an *empty*
//! aggregate — it attests nothing and vacuously verifies. Engines must
//! therefore check the bitmap popcount against the quorum threshold
//! **before** paying for (or trusting) cryptographic verification; the
//! `meets_quorum` helpers on each certificate type exist so that check is
//! one obvious call rather than re-derived arithmetic at every call site.

use banyan_crypto::{AggregateSignature, SignerBitmap};

use crate::codec::{CodecError, Reader, Wire, Writer};
use crate::ids::{BlockHash, Rank, Round};

impl Wire for AggregateSignature {
    fn encode(&self, out: &mut Writer) {
        out.u32(u32::try_from(self.signers.len()).expect("bitmap width fits u32"));
        let words = self.signers.words();
        out.u32(u32::try_from(words.len()).expect("word count fits u32"));
        for w in words {
            out.u64(*w);
        }
        out.var_bytes(&self.data);
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        // Signer indices are `u16`: a wider bitmap counts bits its own
        // iterator cannot reach, and would size the word vector below
        // from an unchecked prefix.
        let width = input.u32()? as usize;
        if width > usize::from(u16::MAX) {
            return Err(CodecError::LengthOverflow);
        }
        let word_count = input.u32()? as usize;
        if word_count != width.div_ceil(64) {
            return Err(CodecError::Invalid("bitmap word count"));
        }
        let mut words = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            words.push(input.u64()?);
        }
        Ok(AggregateSignature {
            signers: SignerBitmap::from_words(words, width),
            data: input.var_bytes()?,
        })
    }

    fn encoded_len(&self) -> usize {
        4 + 4 + 8 * self.signers.words().len() + 4 + self.data.len()
    }
}

/// Proof that a block gathered a notarization quorum.
///
/// Normally a single aggregate of notarization votes. Under the Remark 7.8
/// optimization ("it is possible to omit sending a corresponding
/// notarization vote when a fast vote is sent"), a notarization consists of
/// **two** multi-signatures — one over notarization votes, one over fast
/// votes — and the quorum counts their distinct union.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Notarization {
    /// Round of the notarized block.
    pub round: Round,
    /// The notarized block.
    pub block: BlockHash,
    /// Aggregated notarization votes.
    pub agg: AggregateSignature,
    /// Aggregated fast votes counted toward the quorum (Remark 7.8 mode
    /// only; `None` in the standard protocol).
    pub fast_agg: Option<AggregateSignature>,
}

impl Notarization {
    /// A certificate from notarization votes only (the standard protocol).
    pub fn from_votes(round: Round, block: BlockHash, agg: AggregateSignature) -> Self {
        Notarization {
            round,
            block,
            agg,
            fast_agg: None,
        }
    }

    /// True iff the certificate's distinct-voter count reaches `quorum`.
    ///
    /// Must be checked *before* `verify_aggregate`: an empty (or
    /// below-quorum) aggregate verifies trivially under every scheme.
    pub fn meets_quorum(&self, quorum: usize) -> bool {
        self.vote_count() >= quorum
    }

    /// Number of distinct voters across both aggregates.
    pub fn vote_count(&self) -> usize {
        match &self.fast_agg {
            None => self.agg.count(),
            Some(fast) => {
                let mut bm = SignerBitmap::new(self.agg.signers.len().max(fast.signers.len()));
                for i in self.agg.signers.iter() {
                    bm.set(i);
                }
                for i in fast.signers.iter() {
                    if (i as usize) < bm.len() {
                        bm.set(i);
                    }
                }
                bm.count()
            }
        }
    }
}

impl Wire for Notarization {
    fn encode(&self, out: &mut Writer) {
        out.u64(self.round.0);
        out.raw(&self.block.0);
        self.agg.encode(out);
        out.option(&self.fast_agg);
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Notarization {
            round: Round(input.u64()?),
            block: BlockHash(input.array()?),
            agg: AggregateSignature::decode(input)?,
            fast_agg: input.option()?,
        })
    }

    fn encoded_len(&self) -> usize {
        8 + 32 + self.agg.encoded_len() + 1 + self.fast_agg.as_ref().map_or(0, Wire::encoded_len)
    }
}

/// How a block was explicitly finalized (Definition 6.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FinalKind {
    /// Slow path: `⌈(n+f+1)/2⌉` finalization votes (as in ICC).
    Slow,
    /// Fast path: `n − p` fast votes for a rank-0 block (Banyan).
    Fast,
}

/// Proof that a block is explicitly finalized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finalization {
    /// Round of the finalized block.
    pub round: Round,
    /// The finalized block.
    pub block: BlockHash,
    /// Which path produced the certificate.
    pub kind: FinalKind,
    /// Aggregated finalization votes (slow) or fast votes (fast).
    pub agg: AggregateSignature,
}

impl Finalization {
    /// Number of distinct voters in the certificate.
    pub fn vote_count(&self) -> usize {
        self.agg.count()
    }

    /// True iff the certificate's voter count reaches `quorum` (the slow
    /// and fast paths have different thresholds; the caller passes the one
    /// matching [`Finalization::kind`]). Must be checked *before*
    /// `verify_aggregate` — see the module docs on quorum gating.
    pub fn meets_quorum(&self, quorum: usize) -> bool {
        self.vote_count() >= quorum
    }
}

impl Wire for Finalization {
    fn encode(&self, out: &mut Writer) {
        out.u64(self.round.0);
        out.raw(&self.block.0);
        out.u8(match self.kind {
            FinalKind::Slow => 0,
            FinalKind::Fast => 1,
        });
        self.agg.encode(out);
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Finalization {
            round: Round(input.u64()?),
            block: BlockHash(input.array()?),
            kind: match input.u8()? {
                0 => FinalKind::Slow,
                1 => FinalKind::Fast,
                _ => return Err(CodecError::Invalid("finalization kind")),
            },
            agg: AggregateSignature::decode(input)?,
        })
    }

    fn encoded_len(&self) -> usize {
        8 + 32 + 1 + self.agg.encoded_len()
    }
}

/// Fast votes for one block inside an [`UnlockProof`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnlockEntry {
    /// The block the fast votes endorse.
    pub block: BlockHash,
    /// Rank of the block's proposer in the proof's round (needed to
    /// evaluate Definition 7.6's leader/non-leader distinction; receivers
    /// cross-check against the beacon).
    pub rank: Rank,
    /// Aggregated fast votes for `block`.
    pub agg: AggregateSignature,
}

impl Wire for UnlockEntry {
    fn encode(&self, out: &mut Writer) {
        out.raw(&self.block.0);
        out.u16(self.rank.0);
        self.agg.encode(out);
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(UnlockEntry {
            block: BlockHash(input.array()?),
            rank: Rank(input.u16()?),
            agg: AggregateSignature::decode(input)?,
        })
    }

    fn encoded_len(&self) -> usize {
        32 + 2 + self.agg.encoded_len()
    }
}

/// The collection of fast votes that proves a block of `round` is unlocked
/// (Definition 7.7).
///
/// The proof may cover several blocks: condition 1 counts support for the
/// target block plus all non-leader blocks; condition 2 counts support for
/// everything except the best-supported rank-0 block. Engines evaluate the
/// conditions; this type is pure data.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct UnlockProof {
    /// Round this proof refers to.
    pub round: Round,
    /// Fast votes grouped per block.
    pub entries: Vec<UnlockEntry>,
}

impl UnlockProof {
    /// Total number of fast votes across all entries (voters may appear in
    /// at most one entry for an honest proof; Byzantine double-votes are
    /// handled during semantic validation).
    pub fn total_votes(&self) -> usize {
        self.entries.iter().map(|e| e.agg.count()).sum()
    }
}

impl Wire for UnlockProof {
    fn encode(&self, out: &mut Writer) {
        out.u64(self.round.0);
        out.var_list(&self.entries);
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(UnlockProof {
            round: Round(input.u64()?),
            entries: input.var_list()?,
        })
    }

    fn encoded_len(&self) -> usize {
        8 + 4 + self.entries.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

/// A HotStuff-style quorum certificate (used by the baseline engines).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuorumCert {
    /// View the votes were cast in.
    pub view: u64,
    /// The certified block.
    pub block: BlockHash,
    /// Aggregated votes.
    pub agg: AggregateSignature,
}

impl QuorumCert {
    /// The genesis QC: view 0, zero hash, empty aggregate.
    pub fn genesis() -> Self {
        QuorumCert {
            view: 0,
            block: BlockHash::ZERO,
            agg: AggregateSignature {
                signers: SignerBitmap::new(0),
                data: Vec::new(),
            },
        }
    }

    /// True for the conventional genesis certificate.
    pub fn is_genesis(&self) -> bool {
        self.view == 0 && self.block == BlockHash::ZERO
    }

    /// The byte string every vote aggregated into a QC for
    /// `(view, block)` signs. Identical for all voters, which is what
    /// makes HotStuff votes aggregatable.
    pub fn signing_message(view: u64, block: &BlockHash) -> Vec<u8> {
        let mut m = Vec::with_capacity(20 + 8 + 32);
        m.extend_from_slice(b"banyan/hotstuff/vote");
        m.extend_from_slice(&view.to_le_bytes());
        m.extend_from_slice(&block.0);
        m
    }

    /// True iff this QC carries at least `quorum` votes. The genesis
    /// certificate is exempt by convention (it carries none). Must be
    /// checked *before* `verify_aggregate` — see the module docs on
    /// quorum gating.
    pub fn meets_quorum(&self, quorum: usize) -> bool {
        self.is_genesis() || self.agg.count() >= quorum
    }
}

impl Wire for QuorumCert {
    fn encode(&self, out: &mut Writer) {
        out.u64(self.view);
        out.raw(&self.block.0);
        self.agg.encode(out);
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(QuorumCert {
            view: input.u64()?,
            block: BlockHash(input.array()?),
            agg: AggregateSignature::decode(input)?,
        })
    }

    fn encoded_len(&self) -> usize {
        8 + 32 + self.agg.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(n: usize, signers: &[u16]) -> AggregateSignature {
        let mut bm = SignerBitmap::new(n);
        for &s in signers {
            bm.set(s);
        }
        AggregateSignature {
            signers: bm,
            data: vec![0xAB; 32],
        }
    }

    #[test]
    fn aggregate_signature_roundtrip() {
        let a = agg(19, &[0, 5, 13, 18]);
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), a.encoded_len());
        assert_eq!(AggregateSignature::from_bytes(&bytes).unwrap(), a);
    }

    #[test]
    fn aggregate_signature_word_count_validated() {
        let a = agg(19, &[1]);
        let mut bytes = a.to_bytes();
        bytes[4] = 9; // corrupt word count
        assert!(AggregateSignature::from_bytes(&bytes).is_err());
    }

    #[test]
    fn notarization_roundtrip() {
        let n = Notarization::from_votes(Round(7), BlockHash([1; 32]), agg(4, &[0, 1, 2]));
        assert_eq!(n.vote_count(), 3);
        assert_eq!(Notarization::from_bytes(&n.to_bytes()).unwrap(), n);
        assert_eq!(n.to_bytes().len(), n.encoded_len());
    }

    #[test]
    fn two_signature_notarization_counts_distinct_union() {
        // Remark 7.8: 2 notarization votes + 2 fast votes, one voter in
        // both → 3 distinct supporters.
        let n = Notarization {
            round: Round(7),
            block: BlockHash([1; 32]),
            agg: agg(4, &[0, 1]),
            fast_agg: Some(agg(4, &[1, 2])),
        };
        assert_eq!(n.vote_count(), 3);
        assert_eq!(Notarization::from_bytes(&n.to_bytes()).unwrap(), n);
        assert_eq!(n.to_bytes().len(), n.encoded_len());
    }

    #[test]
    fn finalization_roundtrip_both_kinds() {
        for kind in [FinalKind::Slow, FinalKind::Fast] {
            let f = Finalization {
                round: Round(2),
                block: BlockHash([2; 32]),
                kind,
                agg: agg(4, &[0, 1, 3]),
            };
            assert_eq!(Finalization::from_bytes(&f.to_bytes()).unwrap(), f);
        }
    }

    #[test]
    fn unlock_proof_roundtrip_multi_entry() {
        let proof = UnlockProof {
            round: Round(9),
            entries: vec![
                UnlockEntry {
                    block: BlockHash([1; 32]),
                    rank: Rank(0),
                    agg: agg(4, &[0, 1]),
                },
                UnlockEntry {
                    block: BlockHash([2; 32]),
                    rank: Rank(2),
                    agg: agg(4, &[2, 3]),
                },
            ],
        };
        assert_eq!(proof.total_votes(), 4);
        assert_eq!(UnlockProof::from_bytes(&proof.to_bytes()).unwrap(), proof);
        assert_eq!(proof.to_bytes().len(), proof.encoded_len());
    }

    #[test]
    fn empty_unlock_proof_roundtrip() {
        let proof = UnlockProof {
            round: Round(0),
            entries: vec![],
        };
        assert_eq!(proof.total_votes(), 0);
        assert_eq!(UnlockProof::from_bytes(&proof.to_bytes()).unwrap(), proof);
    }

    #[test]
    fn quorum_cert_genesis() {
        let qc = QuorumCert::genesis();
        assert!(qc.is_genesis());
        assert_eq!(QuorumCert::from_bytes(&qc.to_bytes()).unwrap(), qc);
        let real = QuorumCert {
            view: 3,
            block: BlockHash([1; 32]),
            agg: agg(4, &[0, 1, 2]),
        };
        assert!(!real.is_genesis());
    }

    #[test]
    fn quorum_gates_reject_below_threshold_certificates() {
        let n = Notarization::from_votes(Round(7), BlockHash([1; 32]), agg(4, &[0, 1]));
        assert!(n.meets_quorum(2));
        assert!(!n.meets_quorum(3));
        // Remark 7.8 mode counts the distinct union across both aggregates.
        let two_sig = Notarization {
            fast_agg: Some(agg(4, &[1, 2])),
            ..n.clone()
        };
        assert!(two_sig.meets_quorum(3));
        assert!(!two_sig.meets_quorum(4));

        let f = Finalization {
            round: Round(2),
            block: BlockHash([2; 32]),
            kind: FinalKind::Slow,
            agg: agg(4, &[0]),
        };
        assert!(f.meets_quorum(1));
        assert!(!f.meets_quorum(2));

        // The empty aggregate is the footgun: it verifies trivially under
        // every scheme, so the gate is the only thing standing between a
        // forged zero-vote certificate and acceptance.
        let empty = Finalization {
            agg: agg(4, &[]),
            ..f
        };
        assert!(!empty.meets_quorum(1));
    }

    #[test]
    fn quorum_cert_gate_exempts_genesis_only() {
        assert!(QuorumCert::genesis().meets_quorum(3));
        let real = QuorumCert {
            view: 3,
            block: BlockHash([1; 32]),
            agg: agg(4, &[0, 1]),
        };
        assert!(real.meets_quorum(2));
        assert!(!real.meets_quorum(3));
        // A non-genesis QC with an empty aggregate gets no exemption.
        let hollow = QuorumCert {
            view: 3,
            block: BlockHash([1; 32]),
            agg: agg(4, &[]),
        };
        assert!(!hollow.meets_quorum(1));
    }

    #[test]
    fn qc_signing_message_binds_view_and_block() {
        let b = BlockHash([1; 32]);
        assert_ne!(
            QuorumCert::signing_message(1, &b),
            QuorumCert::signing_message(2, &b)
        );
        assert_ne!(
            QuorumCert::signing_message(1, &b),
            QuorumCert::signing_message(1, &BlockHash([2; 32]))
        );
    }

    #[test]
    fn bad_finalization_kind_rejected() {
        let f = Finalization {
            round: Round(2),
            block: BlockHash([2; 32]),
            kind: FinalKind::Slow,
            agg: agg(4, &[0]),
        };
        let mut bytes = f.to_bytes();
        bytes[8 + 32] = 7; // kind byte
        assert_eq!(
            Finalization::from_bytes(&bytes).unwrap_err(),
            CodecError::Invalid("finalization kind")
        );
    }
}
