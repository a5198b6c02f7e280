//! Chain walks shared by the HotStuff and Streamlet baselines, over the
//! [`ChainStore`] every engine keeps its blocks in.

use banyan_storage::ChainStore;
use banyan_types::app::ProposalContext;
use banyan_types::engine::{Actions, CommitEntry};
use banyan_types::ids::{BlockHash, Round};
use banyan_types::time::Time;
use banyan_types::Block;

/// `tip` and its stored ancestors above round `stop_after`, newest first.
/// The walk ends at genesis, at round `stop_after`, or at the first
/// ancestor the store lacks (unlike [`ChainStore::chain_to`], which then
/// returns nothing).
fn ancestry(store: &dyn ChainStore, tip: BlockHash, stop_after: Round) -> Vec<(BlockHash, &Block)> {
    let mut out = Vec::new();
    let mut cursor = tip;
    while let Some(block) = store.get(&cursor) {
        if block.round <= stop_after {
            break;
        }
        out.push((cursor, block));
        cursor = block.parent;
    }
    out
}

/// The chain position for a `ProposalSource`: `parent` plus every stored
/// ancestor above round `stop_after`, the newest commit the driver has
/// already routed.
pub(crate) fn proposal_context(
    store: &dyn ChainStore,
    round: Round,
    parent: BlockHash,
    stop_after: Round,
    now: Time,
) -> ProposalContext {
    ProposalContext {
        round,
        now,
        parent,
        ancestors: ancestry(store, parent, stop_after)
            .into_iter()
            .map(|(hash, _)| hash)
            .collect(),
    }
}

/// Commits `tip` and its uncommitted stored ancestors, oldest first, and
/// records each as finalized; only `tip`'s entry is explicit.
pub(crate) fn commit_chain(
    store: &mut dyn ChainStore,
    tip: BlockHash,
    now: Time,
    actions: &mut Actions,
) {
    let mut chain: Vec<CommitEntry> = ancestry(store, tip, store.max_finalized_round())
        .into_iter()
        .rev()
        .map(|(hash, block)| CommitEntry {
            round: block.round,
            block: hash,
            proposer: block.proposer,
            payload: block.payload.clone(),
            proposed_at: block.proposed_at,
            committed_at: now,
            fast: false,
            explicit: false,
        })
        .collect();
    if let Some(last) = chain.last_mut() {
        last.explicit = true;
    }
    for entry in chain {
        store.mark_finalized(entry.round, entry.block);
        actions.commit(entry);
    }
}
