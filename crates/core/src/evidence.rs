//! The evidence intake every engine shares: how a block is minted and
//! admitted, how a certificate is gated, and how a ranged catch-up fetch
//! is served. Votes are tallied in [`VoteTable`](crate::chained::round::VoteTable)s,
//! one per round, view or epoch. Each engine keeps only its protocol
//! rules: who may propose, when to vote, and what commits.

use banyan_crypto::registry::KeyRegistry;
use banyan_crypto::{AggregateSignature, VerifyBackend};
use banyan_storage::ChainStore;
use banyan_types::block::Block;
use banyan_types::certs::Notarization;
use banyan_types::engine::Actions;
use banyan_types::ids::{BlockHash, ReplicaId, Round};
use banyan_types::message::{Message, SyncMsg};
use banyan_types::vote::{Vote, VoteKind};

/// Hashes `block` and signs that hash with `registry`'s key: the
/// proposer's block and its hash.
pub(crate) fn mint(registry: &KeyRegistry, chunk: usize, mut block: Block) -> (BlockHash, Block) {
    let hash = block.hash(chunk);
    block.signature = registry.sign(&Block::signing_message(&hash));
    (hash, block)
}

/// Takes in a received `block` whose proposer the caller has already
/// checked (beacon rank, view leader, epoch leader): its hash and whether
/// the store already holds it, or `None` if it is new and its signature
/// fails.
///
/// A block is hashed once. A copy of a block the store holds (a relay, a
/// repeated proposal or sync reply) is recognised by equality and takes
/// the stored block's hash: equal blocks hash alike, and comparing costs
/// at most a memcmp where hashing walks the payload. Anything else — a
/// relay with a flipped byte, an equivocating leader's second block — is
/// hashed. A hash already in the store is that exact block, authenticated
/// when it was stored, so only a block not yet stored has its signature
/// checked.
pub(crate) fn admit(
    store: &dyn ChainStore,
    verify: &dyn VerifyBackend,
    block: &Block,
    chunk: usize,
) -> Option<(BlockHash, bool)> {
    let held = store
        .round_blocks(block.round)
        .iter()
        .find(|h| store.get(h) == Some(block))
        .copied();
    let hash = held.unwrap_or_else(|| block.hash(chunk));
    let stored = held.is_some() || store.contains(&hash);
    let signed = || {
        verify.verify(
            block.proposer.0,
            &Block::signing_message(&hash),
            &block.signature,
        )
    };
    (stored || signed()).then_some((hash, stored))
}

/// The certificate gate: `agg` has at least `quorum` signers and
/// certifies `msg`. The popcount comes first: an empty or below-quorum
/// aggregate verifies trivially under every scheme, so the cryptographic
/// check alone proves nothing about quorum.
pub(crate) fn certified(
    verify: &dyn VerifyBackend,
    quorum: usize,
    msg: &[u8],
    agg: &AggregateSignature,
) -> bool {
    agg.count() >= quorum && verify.verify_aggregate(msg, agg)
}

/// [`certified`] for a notarization, which under Remark 7.8 carries a
/// second aggregate of fast votes: the quorum counts the distinct signers
/// of both, and each must certify its own message.
pub(crate) fn notarized(verify: &dyn VerifyBackend, quorum: usize, cert: &Notarization) -> bool {
    let msg = |kind| Vote::signing_message(kind, cert.round, &cert.block);
    cert.meets_quorum(quorum)
        && verify.verify_aggregate(&msg(VoteKind::Notarize), &cert.agg)
        && (cert.fast_agg.as_ref())
            .is_none_or(|fast| verify.verify_aggregate(&msg(VoteKind::Fast), fast))
}

/// Serves a ranged catch-up fetch to `to`: for every round of
/// `from_round..=to_round`, at most 64 rounds (bounding the reply's size),
/// the stored block and the retained certificate of each hash `serves`
/// names for it, in one `ResponseBatch`. Nothing is sent if nothing was
/// found.
pub(crate) fn serve_range<I: IntoIterator<Item = BlockHash>>(
    store: &dyn ChainStore,
    (from_round, to_round): (Round, Round),
    serves: impl Fn(Round) -> I,
    to: ReplicaId,
    actions: &mut Actions,
) {
    const MAX_RANGE: u64 = 64;
    let lo = from_round.0.max(1);
    let hi = to_round.0.min(lo.saturating_add(MAX_RANGE - 1));
    let mut blocks = Vec::new();
    let mut notarizations = Vec::new();
    for hash in (lo..=hi).flat_map(|round| serves(Round(round))) {
        blocks.extend(store.get(&hash).cloned());
        notarizations.extend(store.notarization(&hash).cloned());
    }
    if !blocks.is_empty() || !notarizations.is_empty() {
        let batch = SyncMsg::ResponseBatch {
            blocks,
            notarizations,
        };
        actions.send(to, Message::Sync(batch));
    }
}
