//! Property tests: the wire codec must roundtrip every representable
//! message, and `encoded_len` must always equal the actual encoding size
//! (the simulator's bandwidth accounting depends on it).

use proptest::prelude::*;

use banyan_crypto::{AggregateSignature, Signature, SignerBitmap};
use banyan_types::block::Block;
use banyan_types::certs::{
    FinalKind, Finalization, Notarization, QuorumCert, UnlockEntry, UnlockProof,
};
use banyan_types::codec::Wire;
use banyan_types::ids::{BlockHash, Rank, ReplicaId, Round};
use banyan_types::message::{
    ChainedMsg, DisseminationMsg, HotStuffMsg, Message, PendingRequest, StreamletMsg, SyncMsg,
};
use banyan_types::payload::Payload;
use banyan_types::time::Time;
use banyan_types::vote::{Vote, VoteKind};

fn arb_hash() -> impl Strategy<Value = BlockHash> {
    any::<[u8; 32]>().prop_map(BlockHash)
}

fn arb_sig() -> impl Strategy<Value = Signature> {
    any::<[u8; 32]>().prop_map(|half| {
        let mut s = [0u8; 64];
        s[..32].copy_from_slice(&half);
        s[32..].copy_from_slice(&half);
        Signature(s)
    })
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..256).prop_map(Payload::inline),
        (any::<u64>(), any::<u64>()).prop_map(|(len, seed)| Payload::Synthetic {
            len: len % (1 << 24),
            seed
        }),
    ]
}

fn arb_block() -> impl Strategy<Value = Block> {
    (
        any::<u64>(),
        any::<u16>(),
        any::<u16>(),
        arb_hash(),
        any::<u64>(),
        arb_payload(),
        arb_sig(),
    )
        .prop_map(
            |(round, proposer, rank, parent, at, payload, signature)| Block {
                round: Round(round),
                proposer: ReplicaId(proposer),
                rank: Rank(rank),
                parent,
                proposed_at: Time(at),
                payload,
                signature,
            },
        )
}

fn arb_agg() -> impl Strategy<Value = AggregateSignature> {
    (
        1usize..64,
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::collection::vec(any::<u16>(), 0..8),
    )
        .prop_map(|(width, data, setters)| {
            let mut bm = SignerBitmap::new(width);
            for s in setters {
                bm.set(s % width as u16);
            }
            AggregateSignature { signers: bm, data }
        })
}

fn arb_vote() -> impl Strategy<Value = Vote> {
    (
        prop_oneof![
            Just(VoteKind::Notarize),
            Just(VoteKind::Finalize),
            Just(VoteKind::Fast)
        ],
        any::<u64>(),
        arb_hash(),
        any::<u16>(),
        arb_sig(),
    )
        .prop_map(|(kind, round, block, voter, signature)| Vote {
            kind,
            round: Round(round),
            block,
            voter: ReplicaId(voter),
            signature,
        })
}

fn arb_notarization() -> impl Strategy<Value = Notarization> {
    (
        any::<u64>(),
        arb_hash(),
        arb_agg(),
        proptest::option::of(arb_agg()),
    )
        .prop_map(|(round, block, agg, fast_agg)| Notarization {
            round: Round(round),
            block,
            agg,
            fast_agg,
        })
}

fn arb_unlock_proof() -> impl Strategy<Value = UnlockProof> {
    (
        any::<u64>(),
        proptest::collection::vec((arb_hash(), any::<u16>(), arb_agg()), 0..4),
    )
        .prop_map(|(round, entries)| UnlockProof {
            round: Round(round),
            entries: entries
                .into_iter()
                .map(|(block, rank, agg)| UnlockEntry {
                    block,
                    rank: Rank(rank),
                    agg,
                })
                .collect(),
        })
}

fn arb_pending_request() -> impl Strategy<Value = PendingRequest> {
    (any::<u64>(), any::<u16>(), any::<u64>(), any::<u64>()).prop_map(|(id, client, size, at)| {
        PendingRequest {
            id,
            client,
            // Bounded so wire_len sums cannot overflow in the property
            // below (the simulator never ships > MAX_LEN-sized requests).
            size: size % (1 << 32),
            submitted_at: Time(at),
        }
    })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            arb_block(),
            proptest::option::of(arb_notarization()),
            proptest::option::of(arb_unlock_proof()),
            proptest::option::of(arb_vote())
        )
            .prop_map(|(block, parent_notarization, parent_unlock, fast_vote)| {
                Message::Chained(ChainedMsg::Proposal {
                    block,
                    parent_notarization,
                    parent_unlock,
                    fast_vote,
                })
            }),
        proptest::collection::vec(arb_vote(), 0..5)
            .prop_map(|v| Message::Chained(ChainedMsg::Votes(v))),
        (arb_notarization(), proptest::option::of(arb_unlock_proof())).prop_map(
            |(notarization, unlock)| Message::Chained(ChainedMsg::Advance {
                notarization,
                unlock
            })
        ),
        (
            any::<u64>(),
            arb_hash(),
            prop_oneof![Just(FinalKind::Slow), Just(FinalKind::Fast)],
            arb_agg()
        )
            .prop_map(
                |(round, block, kind, agg)| Message::Chained(ChainedMsg::Final(Finalization {
                    round: Round(round),
                    block,
                    kind,
                    agg,
                }))
            ),
        (arb_block(), any::<u64>(), arb_hash(), arb_agg()).prop_map(
            |(block, view, qblock, agg)| {
                Message::HotStuff(HotStuffMsg::Proposal {
                    block,
                    justify: QuorumCert {
                        view,
                        block: qblock,
                        agg,
                    },
                })
            }
        ),
        (any::<u64>(), arb_hash(), any::<u16>(), arb_sig()).prop_map(
            |(view, block, voter, signature)| {
                Message::HotStuff(HotStuffMsg::Vote {
                    view,
                    block,
                    voter: ReplicaId(voter),
                    signature,
                })
            }
        ),
        arb_block().prop_map(|block| Message::Streamlet(StreamletMsg::Proposal { block })),
        arb_vote().prop_map(|v| Message::Streamlet(StreamletMsg::Vote(v))),
        arb_hash().prop_map(|hash| Message::Sync(SyncMsg::Request { hash })),
        arb_block().prop_map(|block| Message::Sync(SyncMsg::Response { block })),
        proptest::collection::vec(arb_pending_request(), 0..8)
            .prop_map(|requests| Message::Dissemination(DisseminationMsg::Forward { requests })),
        proptest::collection::vec(arb_pending_request(), 0..8)
            .prop_map(|requests| Message::Dissemination(DisseminationMsg::Announce { requests })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn message_roundtrip(msg in arb_message()) {
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), msg.encoded_len(), "encoded_len mismatch");
        let back = Message::from_bytes(&bytes).expect("decode");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn wire_len_at_least_encoded_len(msg in arb_message()) {
        prop_assert!(msg.wire_len() >= msg.encoded_len() as u64);
    }

    #[test]
    fn truncated_messages_never_panic(msg in arb_message(), cut in 0usize..64) {
        let mut bytes = msg.to_bytes();
        let keep = bytes.len().saturating_sub(cut + 1);
        bytes.truncate(keep);
        // Must error (or decode a prefix value then fail the exhaustion
        // check) — never panic.
        let _ = Message::from_bytes(&bytes);
    }

    #[test]
    fn vote_roundtrip(v in arb_vote()) {
        prop_assert_eq!(Vote::from_bytes(&v.to_bytes()).expect("decode"), v);
    }

    #[test]
    fn dissemination_forward_roundtrip(
        requests in proptest::collection::vec(arb_pending_request(), 0..32)
    ) {
        let msg = Message::Dissemination(DisseminationMsg::Forward { requests: requests.clone() });
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), msg.encoded_len(), "encoded_len mismatch");
        let back = Message::from_bytes(&bytes).expect("decode");
        prop_assert_eq!(&back, &msg);
        // The bandwidth model charges record bytes plus the nominal
        // content size of every forwarded request.
        let content: u64 = requests.iter().map(|r| r.size).sum();
        prop_assert_eq!(msg.wire_len(), msg.encoded_len() as u64 + content);
    }

    #[test]
    fn dissemination_announce_roundtrip(
        requests in proptest::collection::vec(arb_pending_request(), 0..32)
    ) {
        let msg = Message::Dissemination(DisseminationMsg::Announce { requests: requests.clone() });
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), msg.encoded_len(), "encoded_len mismatch");
        let back = Message::from_bytes(&bytes).expect("decode");
        prop_assert_eq!(&back, &msg);
        // Announcements ship only the 26-byte records: no virtual body
        // bytes — this asymmetry against `Forward` is the entire point
        // of the propagation tree.
        prop_assert_eq!(msg.wire_len(), msg.encoded_len() as u64);
    }

    #[test]
    fn unlock_proof_roundtrip(p in arb_unlock_proof()) {
        prop_assert_eq!(UnlockProof::from_bytes(&p.to_bytes()).expect("decode"), p);
    }

    #[test]
    fn block_hash_is_stable_under_reencode(b in arb_block()) {
        let chunk = 16 * 1024;
        let h1 = b.hash(chunk);
        let b2 = Block::from_bytes(&b.to_bytes()).expect("decode");
        prop_assert_eq!(b2.hash(chunk), h1);
    }

    /// The commitment memo is invisible: whichever handle answers — the
    /// first call, a repeat, a clone sharing the buffer, a decoded copy
    /// on a fresh one — the root is `payload_root` of the bytes, and a
    /// second chunk size on the same buffer never gets the first's root.
    #[test]
    fn commitment_memo_is_transparent(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        small in 1usize..64,
        extra in 1usize..64,
        large_first in any::<bool>(),
    ) {
        let large = small + extra;
        let root = |chunk| banyan_crypto::merkle::payload_root(&bytes, chunk);
        let p = Payload::inline(bytes.clone());
        let copy = p.clone();
        prop_assert!(copy.ptr_eq(&p));
        let (first, second) = if large_first { (large, small) } else { (small, large) };
        // Interleave the two sizes across both handles of one buffer.
        for chunk in [first, second, first, second] {
            prop_assert_eq!(p.commitment(chunk), root(chunk));
            prop_assert_eq!(copy.commitment(chunk), root(chunk));
        }
        let encoded = p.to_bytes();
        let decoded = Payload::from_bytes(&encoded).expect("decode");
        prop_assert!(!decoded.ptr_eq(&p), "decode must build a fresh buffer");
        prop_assert_eq!(&decoded, &p);
        prop_assert_eq!(decoded.commitment(second), root(second));
        prop_assert_eq!(decoded.commitment(first), root(first));
        // The memo never reaches the wire.
        prop_assert_eq!(decoded.to_bytes(), encoded);
    }

    /// Bytes off a socket never panic the decoder (ROADMAP aim 3): any
    /// string up to 4 KiB — raw noise, or a real encoding with a few
    /// bytes overwritten so decoding gets deep before it fails — decodes
    /// to a value or an error, and no decoded certificate is wider than a
    /// `u16` signer index can address.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..4096),
        (arb_message(), proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8))
            .prop_map(|(msg, edits)| {
                let mut bytes = msg.to_bytes();
                for (at, byte) in edits {
                    let at = at % bytes.len();
                    bytes[at] = byte;
                }
                bytes
            }),
    ]) {
        if let Ok(msg) = Message::from_bytes(&bytes) {
            for agg in aggregates(&msg) {
                prop_assert!(agg.signers.len() <= usize::from(u16::MAX));
            }
        }
    }
}

/// Every aggregate signature a message carries.
fn aggregates(msg: &Message) -> Vec<&AggregateSignature> {
    fn notarization(n: &Notarization) -> impl Iterator<Item = &AggregateSignature> {
        std::iter::once(&n.agg).chain(&n.fast_agg)
    }
    fn unlock(p: &Option<UnlockProof>) -> impl Iterator<Item = &AggregateSignature> {
        p.iter().flat_map(|p| p.entries.iter().map(|e| &e.agg))
    }
    match msg {
        Message::Chained(ChainedMsg::Proposal {
            parent_notarization,
            parent_unlock,
            ..
        }) => parent_notarization
            .iter()
            .flat_map(notarization)
            .chain(unlock(parent_unlock))
            .collect(),
        Message::Chained(ChainedMsg::Advance {
            notarization: n,
            unlock: u,
        }) => notarization(n).chain(unlock(u)).collect(),
        Message::Chained(ChainedMsg::Final(f)) => vec![&f.agg],
        Message::HotStuff(
            HotStuffMsg::Proposal { justify, .. } | HotStuffMsg::NewView { justify, .. },
        ) => vec![&justify.agg],
        Message::Sync(SyncMsg::ResponseBatch { notarizations, .. }) => {
            notarizations.iter().flat_map(notarization).collect()
        }
        _ => Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Compact-certificate codec: aggregates produced by the compact Schnorr
// scheme (`9 + 8k` bytes instead of the naive `16k`) must survive the wire
// byte-for-byte and still verify afterwards — the codec must never need to
// know which scheme id the cluster negotiated.

mod compact_certs {
    use std::sync::Arc;

    use proptest::prelude::*;

    use banyan_crypto::registry::{derive_seed, PublicKeyTable};
    use banyan_crypto::schnorr::ToySchnorr;
    use banyan_crypto::sig::{SignatureScheme, SignerIndex};
    use banyan_crypto::SecretKey;
    use banyan_types::certs::Notarization;
    use banyan_types::codec::Wire;
    use banyan_types::ids::{BlockHash, Round};

    fn cluster(seed: u64, n: usize) -> (PublicKeyTable, Vec<SecretKey>) {
        let scheme: Arc<dyn SignatureScheme> = Arc::new(ToySchnorr::compact());
        let table = PublicKeyTable::generate(scheme.clone(), seed, n);
        let sks = (0..n)
            .map(|i| scheme.keygen(&derive_seed(seed, i as SignerIndex)).0)
            .collect();
        (table, sks)
    }

    proptest! {
        // Real signing keeps the case count modest: each case signs and
        // verifies up to 10 toy-group signatures.
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn compact_aggregates_roundtrip_and_still_verify(
            seed in any::<u64>(),
            n in 2usize..10,
            signer_mask in any::<u16>(),
            msg in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let (table, sks) = cluster(seed, n);
            let scheme = table.scheme().clone();
            let sigs: Vec<_> = (0..n)
                .filter(|i| signer_mask & (1 << i) != 0)
                .map(|i| (i as SignerIndex, scheme.sign(&sks[i], &msg)))
                .collect();
            let agg = table.aggregate(&sigs);
            prop_assert_eq!(
                agg.data.len(),
                9 + 8 * agg.count(),
                "compact codec size"
            );

            // Ship it inside a certificate and pull it back out.
            let cert = Notarization::from_votes(
                Round(7),
                BlockHash([9; 32]),
                agg,
            );
            let bytes = cert.to_bytes();
            prop_assert_eq!(bytes.len(), cert.encoded_len());
            let back = Notarization::from_bytes(&bytes).expect("decode");
            prop_assert_eq!(&back, &cert);

            // The decoded aggregate verifies iff anyone actually signed
            // (an empty aggregate verifies trivially — that is exactly why
            // engines gate on `meets_quorum` first).
            prop_assert!(table.verify_aggregate(&msg, &back.agg));
            if !sigs.is_empty() {
                let mut other = msg.clone();
                other[0] ^= 1;
                prop_assert!(!table.verify_aggregate(&other, &back.agg));
            }
        }

        #[test]
        fn truncated_compact_aggregates_fail_cleanly(
            seed in any::<u64>(),
            cut in 1usize..16,
        ) {
            let (table, sks) = cluster(seed, 4);
            let scheme = table.scheme().clone();
            let msg = b"compact cert";
            let sigs: Vec<_> = (0..4)
                .map(|i| (i as SignerIndex, scheme.sign(&sks[i], msg)))
                .collect();
            let mut agg = table.aggregate(&sigs);
            // Corrupting the length must yield `false`, never a panic: the
            // verifier cannot trust the wire to deliver well-formed data.
            let keep = agg.data.len().saturating_sub(cut);
            agg.data.truncate(keep);
            prop_assert!(!table.verify_aggregate(msg, &agg));
        }
    }
}
