//! Regression: one Byzantine replica must not forge a quorum certificate
//! by widening the signer bitmap.
//!
//! `SignerBitmap::count` counts every word, but signer indices are `u16`,
//! so a bitmap wider than `u16::MAX` is walked only up to `width as u16`:
//! at width 65 537 the verifier looks at signer 0 alone while the quorum
//! gate counts three. Replica 0 of an n = 4, quorum-3 cluster signs
//! alone, pads its bitmap with bits 64 and 65 and ships the result in an
//! `Advance` frame; neither aggregate format may let it through.

use std::sync::Arc;

use banyan_crypto::{KeyRegistry, SignatureScheme, ToySchnorr};
use banyan_types::certs::Notarization;
use banyan_types::codec::Wire;
use banyan_types::ids::{BlockHash, Round};
use banyan_types::message::{ChainedMsg, Message};
use banyan_types::vote::{Vote, VoteKind};

const N: usize = 4;
const QUORUM: usize = 3;
const WIDTH: usize = 65_537;

/// Replica 0's one real notarization vote, padded to a three-signer
/// aggregate at width 65 537 by `scheme`'s own aggregator. The two
/// fillers keep the nonce commitment `R` of the real signature (so a
/// compact aggregate holds three in-range `R`s) and zero the response, so
/// the compact `s̃` is exactly `z₀·s₀` and the naive filler slots are
/// never looked at.
fn forged_advance(scheme: ToySchnorr) -> (KeyRegistry, Vec<u8>, Message) {
    let scheme: Arc<dyn SignatureScheme> = Arc::new(scheme);
    let me = KeyRegistry::generate(scheme.clone(), 7, N, 0);
    let (round, block) = (Round(5), BlockHash([3; 32]));
    let msg = Vote::signing_message(VoteKind::Notarize, round, &block);
    let real = me.sign(&msg);
    let mut filler = real;
    filler.0[8..].fill(0);
    let agg = scheme.aggregate(WIDTH, &[(0, real), (64, filler), (65, filler)]);
    assert_eq!(agg.count(), QUORUM, "the gate counts three signers");
    let frame = Message::Chained(ChainedMsg::Advance {
        notarization: Notarization::from_votes(round, block, agg),
        unlock: None,
    });
    (me, msg, frame)
}

/// Off the wire, the forged certificate must fail one of the three doors
/// an engine puts it through: the decoder, the quorum gate, the table.
fn assert_rejected(scheme: ToySchnorr) {
    let (me, msg, frame) = forged_advance(scheme);
    let table = me.table();
    if let Ok(Message::Chained(ChainedMsg::Advance { notarization, .. })) =
        Message::from_bytes(&frame.to_bytes())
    {
        assert!(
            !(notarization.meets_quorum(QUORUM) && table.verify_aggregate(&msg, &notarization.agg)),
            "a one-signer certificate passed as a quorum of {QUORUM}"
        );
    }
    // The table's own width check, independent of the decoder.
    let Message::Chained(ChainedMsg::Advance { notarization, .. }) = frame else {
        unreachable!("built as an Advance");
    };
    assert!(!table.verify_aggregate(&msg, &notarization.agg));
}

#[test]
fn naive_aggregate_with_a_widened_bitmap_is_rejected() {
    assert_rejected(ToySchnorr::new());
}

#[test]
fn compact_aggregate_with_a_widened_bitmap_is_rejected() {
    assert_rejected(ToySchnorr::compact());
}
