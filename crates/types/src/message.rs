//! The unified network message enum.
//!
//! All four engines speak through one [`Message`] type so the simulator and
//! the TCP transport are protocol-agnostic. Each engine only produces and
//! consumes its own sub-enum; a message of the wrong family is ignored
//! (and counted) rather than an error, mirroring how a real deployment
//! drops foreign traffic.
//!
//! The [`DisseminationMsg`] family is not consensus traffic at all: it is
//! the request-dissemination layer (pending-request gossip between
//! replicas' mempools) sharing the consensus wire so the network model
//! charges it against the same links. Engines never see it — the
//! simulator and the TCP runner route it to the replica's mempool.

use crate::block::Block;
use crate::certs::{Finalization, Notarization, QuorumCert, UnlockProof};
use crate::codec::{CodecError, Reader, Wire, Writer};
use crate::ids::{BlockHash, ReplicaId, Round};
use crate::time::Time;
use crate::vote::Vote;
use banyan_crypto::Signature;

/// Any message any engine can send.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// ICC / Banyan family (they share a message set; ICC simply never
    /// populates the fast-path fields).
    Chained(ChainedMsg),
    /// Chained HotStuff baseline.
    HotStuff(HotStuffMsg),
    /// Streamlet baseline.
    Streamlet(StreamletMsg),
    /// Block synchronization, shared by all protocols.
    Sync(SyncMsg),
    /// Request dissemination (mempool gossip), shared by all protocols and
    /// handled by the driver layer, never by an engine.
    Dissemination(DisseminationMsg),
}

impl Message {
    /// Bytes this message occupies on the wire, including the virtual size
    /// of synthetic payloads. This is the number the simulator charges
    /// against link bandwidth.
    pub fn wire_len(&self) -> u64 {
        let extra = match self {
            Message::Chained(ChainedMsg::Proposal { block, .. }) => {
                block.payload.virtual_wire_extra()
            }
            Message::HotStuff(HotStuffMsg::Proposal { block, .. }) => {
                block.payload.virtual_wire_extra()
            }
            Message::Streamlet(StreamletMsg::Proposal { block }) => {
                block.payload.virtual_wire_extra()
            }
            Message::Sync(SyncMsg::Response { block }) => block.payload.virtual_wire_extra(),
            // A catch-up batch ships every block's payload: charge each
            // one's virtual size exactly as single responses are charged.
            Message::Sync(SyncMsg::ResponseBatch { blocks, .. }) => {
                blocks.iter().map(|b| b.payload.virtual_wire_extra()).sum()
            }
            // Forwarding a pending request ships the request *content*,
            // not just the 26-byte record: charge the nominal size the
            // same way synthetic payloads are charged.
            Message::Dissemination(DisseminationMsg::Forward { requests }) => {
                requests.iter().map(|r| r.size).sum()
            }
            // A propagation-tree relay ships only the 26-byte records
            // (already covered by `encoded_len`): no virtual body bytes.
            Message::Dissemination(DisseminationMsg::Announce { .. }) => 0,
            _ => 0,
        };
        self.encoded_len() as u64 + extra
    }

    /// The block this message carries, if it is a block-bearing frame
    /// (a proposal of any protocol family, or a sync response). Drivers
    /// running a speculative mempool use this to observe every block that
    /// crosses the wire and feed the pool's inclusion/lease tracking —
    /// engines themselves never decode payloads.
    pub fn proposal_block(&self) -> Option<&crate::block::Block> {
        match self {
            Message::Chained(ChainedMsg::Proposal { block, .. }) => Some(block),
            Message::HotStuff(HotStuffMsg::Proposal { block, .. }) => Some(block),
            Message::Streamlet(StreamletMsg::Proposal { block }) => Some(block),
            Message::Sync(SyncMsg::Response { block }) => Some(block),
            _ => None,
        }
    }

    /// The blocks a catch-up batch carries (empty for every other
    /// message). Drivers feed each one to speculative lease tracking, the
    /// same way [`Message::proposal_block`] feeds single-block frames.
    pub fn sync_batch_blocks(&self) -> &[Block] {
        match self {
            Message::Sync(SyncMsg::ResponseBatch { blocks, .. }) => blocks,
            _ => &[],
        }
    }

    /// Every block this message carries: the proposal or single sync
    /// response of [`Message::proposal_block`], then the batch of
    /// [`Message::sync_batch_blocks`]. The one walk every driver's
    /// inbound lease observation goes through.
    pub fn carried_blocks(&self) -> impl Iterator<Item = &Block> {
        self.proposal_block()
            .into_iter()
            .chain(self.sync_batch_blocks())
    }

    /// Short label for traces and drop counters.
    pub fn label(&self) -> &'static str {
        match self {
            Message::Chained(m) => m.label(),
            Message::HotStuff(m) => m.label(),
            Message::Streamlet(m) => m.label(),
            Message::Sync(SyncMsg::Request { .. }) => "sync-req",
            Message::Sync(SyncMsg::Response { .. }) => "sync-resp",
            Message::Sync(SyncMsg::RequestRange { .. }) => "sync-range",
            Message::Sync(SyncMsg::ResponseBatch { .. }) => "sync-batch",
            Message::Sync(SyncMsg::FrontierProbe) => "sync-probe",
            Message::Sync(SyncMsg::FrontierInfo { .. }) => "sync-frontier",
            Message::Dissemination(DisseminationMsg::Forward { .. }) => "req-forward",
            Message::Dissemination(DisseminationMsg::Announce { .. }) => "req-announce",
        }
    }
}

/// One client request as it travels between mempools: the wire record of
/// the dissemination layer (and of `WorkloadBatch` payload encodings in
/// `banyan-mempool`, which reuse the same 26-byte layout).
///
/// The encoding is signing-agnostic: a record carries no signature of its
/// own, so any [`banyan_crypto::sig::SignatureScheme`] (or none) can wrap
/// the enclosing message without the record layout changing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingRequest {
    /// Globally unique request id (the exactly-once dedup key).
    pub id: u64,
    /// Submitting client (for per-client fairness metrics and censorship
    /// experiments).
    pub client: u16,
    /// Nominal request size in bytes (what the client would ship; the
    /// bandwidth model charges this for every forward and every batch).
    pub size: u64,
    /// When the client first submitted the request (virtual time).
    /// Retransmissions keep the original timestamp so end-to-end latency
    /// is measured from the first submission.
    pub submitted_at: Time,
}

impl Wire for PendingRequest {
    fn encode(&self, out: &mut Writer) {
        out.u64(self.id);
        out.u16(self.client);
        out.u64(self.size);
        out.u64(self.submitted_at.as_nanos());
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PendingRequest {
            id: input.u64()?,
            client: input.u16()?,
            size: input.u64()?,
            submitted_at: Time(input.u64()?),
        })
    }

    fn encoded_len(&self) -> usize {
        8 + 2 + 8 + 8
    }
}

/// Messages of the request-dissemination layer.
///
/// Dissemination is driver-level traffic: the simulator and the TCP
/// runner apply it to the replica's mempool and never hand it to an
/// engine, preserving the engine purity contract (engines only pull
/// `next_payload`).
///
/// Two frames, two propagation disciplines. Under **broadcast gossip**
/// every locally submitted request is [`Forward`](Self::Forward)ed to all
/// peers in one round and never re-forwarded. Under the **bounded-fanout
/// propagation tree** the origin [`Forward`](Self::Forward)s the request
/// body to its few fanout peers, and first-time acceptors relay the
/// compact [`Announce`](Self::Announce) record down their own fanout
/// edges — duplicate arrivals are suppressed by the pool and never
/// re-announced, so the cascade terminates once every replica holds the
/// request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DisseminationMsg {
    /// One gossip round's worth of pending requests pushed at the sender
    /// since its last flush, forwarded so every potential leader can batch
    /// them. Charged at the requests' *nominal* size — this frame models
    /// shipping the request bodies.
    Forward {
        /// The forwarded requests, in the sender's FIFO (submission) order.
        requests: Vec<PendingRequest>,
    },
    /// A relay hop of the bounded-fanout propagation tree: the 26-byte
    /// request records, re-forwarded by a replica that just accepted them.
    /// Charged at the *record* size only — the body already shipped on the
    /// tree's first hop, and a record fully identifies the request (pull
    /// systems would fetch the body on demand; the synthetic workload's
    /// record is self-contained).
    Announce {
        /// The relayed request records, in acceptance order.
        requests: Vec<PendingRequest>,
    },
}

impl DisseminationMsg {
    /// The requests this dissemination frame carries, whichever discipline
    /// produced it. Drivers hand the whole frame to the receiving
    /// replica's pool (`ReplicaPool::intake`).
    pub fn requests(&self) -> &[PendingRequest] {
        match self {
            DisseminationMsg::Forward { requests } => requests,
            DisseminationMsg::Announce { requests } => requests,
        }
    }
}

/// Messages of the ICC / Banyan family.
// Proposals dwarf votes by size, but they are also by far the most common
// heap-free message, so boxing the block would cost more than the enum's
// slack: the variants stay unboxed deliberately.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainedMsg {
    /// A block proposal or relay.
    ///
    /// Per Addition 2, a proposal carries the parent's notarization and
    /// unlock proof, and — for rank-0 proposals in Banyan — the proposer's
    /// own fast vote. ICC leaves `parent_unlock` and `fast_vote` empty.
    /// `parent_notarization` is `None` only when the parent is genesis.
    Proposal {
        /// The proposed block.
        block: Block,
        /// Notarization of the parent block (None iff parent is genesis).
        parent_notarization: Option<Notarization>,
        /// Unlock proof of the parent block (Banyan only).
        parent_unlock: Option<UnlockProof>,
        /// The proposer's fast vote for this block (Banyan rank-0 only,
        /// Algorithm 1 line 28).
        fast_vote: Option<Vote>,
    },
    /// One or more votes bundled into a single network message.
    ///
    /// Addition 3 broadcasts the fast vote *alongside* the notarization
    /// vote — one message, two signatures — which is why this is a vector.
    Votes(Vec<Vote>),
    /// Round-advancement broadcast (Addition 1 / Algorithm 2 line 50):
    /// the notarization and unlock proof of the block that closed a round.
    Advance {
        /// Notarization of the round's notarized-and-unlocked block.
        notarization: Notarization,
        /// Unlock proof for the same block (Banyan only).
        unlock: Option<UnlockProof>,
    },
    /// Explicit finalization broadcast (fast or slow).
    Final(Finalization),
}

impl ChainedMsg {
    fn label(&self) -> &'static str {
        match self {
            ChainedMsg::Proposal { .. } => "proposal",
            ChainedMsg::Votes(_) => "votes",
            ChainedMsg::Advance { .. } => "advance",
            ChainedMsg::Final(_) => "final",
        }
    }
}

/// Messages of the chained-HotStuff baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HotStuffMsg {
    /// Leader's proposal for a view, justified by the highest known QC.
    Proposal {
        /// Proposed block (its `round` field carries the view).
        block: Block,
        /// QC for the parent chain.
        justify: QuorumCert,
    },
    /// A replica's vote, sent to the next leader.
    Vote {
        /// View the vote is cast in.
        view: u64,
        /// Voted block.
        block: BlockHash,
        /// Voting replica.
        voter: ReplicaId,
        /// Signature over the HotStuff vote message.
        signature: Signature,
    },
    /// Pacemaker message on view timeout, carrying the sender's highest QC.
    NewView {
        /// The view being abandoned.
        view: u64,
        /// Sender's highest QC.
        justify: QuorumCert,
    },
}

impl HotStuffMsg {
    fn label(&self) -> &'static str {
        match self {
            HotStuffMsg::Proposal { .. } => "hs-proposal",
            HotStuffMsg::Vote { .. } => "hs-vote",
            HotStuffMsg::NewView { .. } => "hs-newview",
        }
    }
}

/// Messages of the Streamlet baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamletMsg {
    /// Epoch leader's proposal.
    Proposal {
        /// Proposed block (its `round` field carries the epoch).
        block: Block,
    },
    /// A replica's (notarization) vote for an epoch's proposal.
    Vote(Vote),
}

impl StreamletMsg {
    fn label(&self) -> &'static str {
        match self {
            StreamletMsg::Proposal { .. } => "sl-proposal",
            StreamletMsg::Vote(_) => "sl-vote",
        }
    }
}

/// Block-fetch protocol shared by all engines: ask a peer for a block you
/// hold a certificate for but never received, probe a peer's commit
/// frontier, or fetch a whole certified round range (catch-up sync for
/// rejoining/lagging replicas).
///
/// `Request`/`Response` and `RequestRange`/`ResponseBatch` are engine
/// traffic: the chained and Streamlet engines serve and adopt them
/// (Streamlet's vote rule needs an unbroken notarized chain, so a
/// rejoining replica must refill its downtime gap); HotStuff ignores
/// them — its SafeNode rule votes without the parent chain, so it
/// re-converges natively. `FrontierProbe`/`FrontierInfo` are **driver** traffic: the
/// driver layer answers probes from [`crate::engine::Engine::finalized_round`]
/// and feeds replies to its catch-up state machine, so engines stay pure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncMsg {
    /// Request a block by hash.
    Request {
        /// Hash of the wanted block.
        hash: BlockHash,
    },
    /// Serve a previously requested block.
    Response {
        /// The requested block.
        block: Block,
    },
    /// Request every certified block in `[from_round, to_round]`
    /// (inclusive). Servers may answer with a shorter prefix; the
    /// requester's catch-up state machine re-issues from its new frontier.
    RequestRange {
        /// First wanted round.
        from_round: Round,
        /// Last wanted round (inclusive).
        to_round: Round,
    },
    /// A batch of certified blocks answering a [`SyncMsg::RequestRange`],
    /// with the notarizations proving them.
    ResponseBatch {
        /// The served blocks, ascending by round.
        blocks: Vec<Block>,
        /// Notarization certificates for the served chain.
        notarizations: Vec<Notarization>,
    },
    /// Ask a peer how far it has committed (driver-answered).
    FrontierProbe,
    /// The answer to a probe: the sender's highest committed round.
    FrontierInfo {
        /// The sender's finalized frontier.
        finalized: Round,
    },
}

impl Wire for Message {
    fn encode(&self, out: &mut Writer) {
        match self {
            Message::Chained(m) => {
                out.u8(0);
                m.encode(out);
            }
            Message::HotStuff(m) => {
                out.u8(1);
                m.encode(out);
            }
            Message::Streamlet(m) => {
                out.u8(2);
                m.encode(out);
            }
            Message::Sync(m) => {
                out.u8(3);
                m.encode(out);
            }
            Message::Dissemination(m) => {
                out.u8(4);
                m.encode(out);
            }
        }
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        match input.u8()? {
            0 => Ok(Message::Chained(ChainedMsg::decode(input)?)),
            1 => Ok(Message::HotStuff(HotStuffMsg::decode(input)?)),
            2 => Ok(Message::Streamlet(StreamletMsg::decode(input)?)),
            3 => Ok(Message::Sync(SyncMsg::decode(input)?)),
            4 => Ok(Message::Dissemination(DisseminationMsg::decode(input)?)),
            _ => Err(CodecError::Invalid("message family")),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Message::Chained(m) => m.encoded_len(),
            Message::HotStuff(m) => m.encoded_len(),
            Message::Streamlet(m) => m.encoded_len(),
            Message::Sync(m) => m.encoded_len(),
            Message::Dissemination(m) => m.encoded_len(),
        }
    }
}

impl Wire for DisseminationMsg {
    fn encode(&self, out: &mut Writer) {
        match self {
            DisseminationMsg::Forward { requests } => {
                out.u8(0);
                out.var_list(requests);
            }
            DisseminationMsg::Announce { requests } => {
                out.u8(1);
                out.var_list(requests);
            }
        }
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        match input.u8()? {
            0 => Ok(DisseminationMsg::Forward {
                requests: input.var_list()?,
            }),
            1 => Ok(DisseminationMsg::Announce {
                requests: input.var_list()?,
            }),
            _ => Err(CodecError::Invalid("dissemination message")),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            DisseminationMsg::Forward { requests } | DisseminationMsg::Announce { requests } => {
                4 + requests.iter().map(Wire::encoded_len).sum::<usize>()
            }
        }
    }
}

impl Wire for ChainedMsg {
    fn encode(&self, out: &mut Writer) {
        match self {
            ChainedMsg::Proposal {
                block,
                parent_notarization,
                parent_unlock,
                fast_vote,
            } => {
                out.u8(0);
                block.encode(out);
                out.option(parent_notarization);
                out.option(parent_unlock);
                out.option(fast_vote);
            }
            ChainedMsg::Votes(votes) => {
                out.u8(1);
                out.var_list(votes);
            }
            ChainedMsg::Advance {
                notarization,
                unlock,
            } => {
                out.u8(2);
                notarization.encode(out);
                out.option(unlock);
            }
            ChainedMsg::Final(f) => {
                out.u8(3);
                f.encode(out);
            }
        }
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        match input.u8()? {
            0 => Ok(ChainedMsg::Proposal {
                block: Block::decode(input)?,
                parent_notarization: input.option()?,
                parent_unlock: input.option()?,
                fast_vote: input.option()?,
            }),
            1 => Ok(ChainedMsg::Votes(input.var_list()?)),
            2 => Ok(ChainedMsg::Advance {
                notarization: Notarization::decode(input)?,
                unlock: input.option()?,
            }),
            3 => Ok(ChainedMsg::Final(Finalization::decode(input)?)),
            _ => Err(CodecError::Invalid("chained message")),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            ChainedMsg::Proposal {
                block,
                parent_notarization,
                parent_unlock,
                fast_vote,
            } => {
                block.encoded_len()
                    + 1
                    + parent_notarization.as_ref().map_or(0, Wire::encoded_len)
                    + 1
                    + parent_unlock.as_ref().map_or(0, Wire::encoded_len)
                    + 1
                    + fast_vote.as_ref().map_or(0, Wire::encoded_len)
            }
            ChainedMsg::Votes(votes) => 4 + votes.iter().map(Wire::encoded_len).sum::<usize>(),
            ChainedMsg::Advance {
                notarization,
                unlock,
            } => notarization.encoded_len() + 1 + unlock.as_ref().map_or(0, Wire::encoded_len),
            ChainedMsg::Final(f) => f.encoded_len(),
        }
    }
}

impl Wire for HotStuffMsg {
    fn encode(&self, out: &mut Writer) {
        match self {
            HotStuffMsg::Proposal { block, justify } => {
                out.u8(0);
                block.encode(out);
                justify.encode(out);
            }
            HotStuffMsg::Vote {
                view,
                block,
                voter,
                signature,
            } => {
                out.u8(1);
                out.u64(*view);
                out.raw(&block.0);
                out.u16(voter.0);
                out.raw(&signature.0);
            }
            HotStuffMsg::NewView { view, justify } => {
                out.u8(2);
                out.u64(*view);
                justify.encode(out);
            }
        }
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        match input.u8()? {
            0 => Ok(HotStuffMsg::Proposal {
                block: Block::decode(input)?,
                justify: QuorumCert::decode(input)?,
            }),
            1 => Ok(HotStuffMsg::Vote {
                view: input.u64()?,
                block: BlockHash(input.array()?),
                voter: ReplicaId(input.u16()?),
                signature: Signature(input.array()?),
            }),
            2 => Ok(HotStuffMsg::NewView {
                view: input.u64()?,
                justify: QuorumCert::decode(input)?,
            }),
            _ => Err(CodecError::Invalid("hotstuff message")),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            HotStuffMsg::Proposal { block, justify } => block.encoded_len() + justify.encoded_len(),
            HotStuffMsg::Vote { .. } => 8 + 32 + 2 + 64,
            HotStuffMsg::NewView { justify, .. } => 8 + justify.encoded_len(),
        }
    }
}

impl Wire for StreamletMsg {
    fn encode(&self, out: &mut Writer) {
        match self {
            StreamletMsg::Proposal { block } => {
                out.u8(0);
                block.encode(out);
            }
            StreamletMsg::Vote(vote) => {
                out.u8(1);
                vote.encode(out);
            }
        }
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        match input.u8()? {
            0 => Ok(StreamletMsg::Proposal {
                block: Block::decode(input)?,
            }),
            1 => Ok(StreamletMsg::Vote(Vote::decode(input)?)),
            _ => Err(CodecError::Invalid("streamlet message")),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            StreamletMsg::Proposal { block } => block.encoded_len(),
            StreamletMsg::Vote(vote) => vote.encoded_len(),
        }
    }
}

impl Wire for SyncMsg {
    fn encode(&self, out: &mut Writer) {
        match self {
            SyncMsg::Request { hash } => {
                out.u8(0);
                out.raw(&hash.0);
            }
            SyncMsg::Response { block } => {
                out.u8(1);
                block.encode(out);
            }
            SyncMsg::RequestRange {
                from_round,
                to_round,
            } => {
                out.u8(2);
                out.u64(from_round.0);
                out.u64(to_round.0);
            }
            SyncMsg::ResponseBatch {
                blocks,
                notarizations,
            } => {
                out.u8(3);
                out.var_list(blocks);
                out.var_list(notarizations);
            }
            SyncMsg::FrontierProbe => {
                out.u8(4);
            }
            SyncMsg::FrontierInfo { finalized } => {
                out.u8(5);
                out.u64(finalized.0);
            }
        }
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        match input.u8()? {
            0 => Ok(SyncMsg::Request {
                hash: BlockHash(input.array()?),
            }),
            1 => Ok(SyncMsg::Response {
                block: Block::decode(input)?,
            }),
            2 => Ok(SyncMsg::RequestRange {
                from_round: Round(input.u64()?),
                to_round: Round(input.u64()?),
            }),
            3 => Ok(SyncMsg::ResponseBatch {
                blocks: input.var_list()?,
                notarizations: input.var_list()?,
            }),
            4 => Ok(SyncMsg::FrontierProbe),
            5 => Ok(SyncMsg::FrontierInfo {
                finalized: Round(input.u64()?),
            }),
            _ => Err(CodecError::Invalid("sync message")),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            SyncMsg::Request { .. } => 32,
            SyncMsg::Response { block } => block.encoded_len(),
            SyncMsg::RequestRange { .. } => 8 + 8,
            SyncMsg::ResponseBatch {
                blocks,
                notarizations,
            } => {
                4 + blocks.iter().map(Wire::encoded_len).sum::<usize>()
                    + 4
                    + notarizations.iter().map(Wire::encoded_len).sum::<usize>()
            }
            SyncMsg::FrontierProbe => 0,
            SyncMsg::FrontierInfo { .. } => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Rank, Round};
    use crate::payload::Payload;
    use crate::time::Time;
    use banyan_crypto::{AggregateSignature, SignerBitmap};

    fn block(payload: Payload) -> Block {
        Block {
            round: Round(4),
            proposer: ReplicaId(1),
            rank: Rank(0),
            parent: BlockHash([6; 32]),
            proposed_at: Time(99),
            payload,
            signature: Signature([1; 64]),
        }
    }

    fn agg() -> AggregateSignature {
        let mut bm = SignerBitmap::new(4);
        bm.set(0);
        bm.set(2);
        AggregateSignature {
            signers: bm,
            data: vec![7; 32],
        }
    }

    fn vote() -> Vote {
        Vote {
            kind: crate::vote::VoteKind::Fast,
            round: Round(4),
            block: BlockHash([6; 32]),
            voter: ReplicaId(3),
            signature: Signature([2; 64]),
        }
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Chained(ChainedMsg::Proposal {
                block: block(Payload::synthetic(1 << 20, 1)),
                parent_notarization: Some(Notarization {
                    round: Round(3),
                    block: BlockHash([6; 32]),
                    agg: agg(),
                    fast_agg: Some(agg()),
                }),
                parent_unlock: Some(UnlockProof {
                    round: Round(3),
                    entries: vec![crate::certs::UnlockEntry {
                        block: BlockHash([6; 32]),
                        rank: Rank(0),
                        agg: agg(),
                    }],
                }),
                fast_vote: Some(vote()),
            }),
            Message::Chained(ChainedMsg::Proposal {
                block: block(Payload::empty()),
                parent_notarization: None,
                parent_unlock: None,
                fast_vote: None,
            }),
            Message::Chained(ChainedMsg::Votes(vec![vote(), vote()])),
            Message::Chained(ChainedMsg::Advance {
                notarization: Notarization::from_votes(Round(4), BlockHash([6; 32]), agg()),
                unlock: None,
            }),
            Message::Chained(ChainedMsg::Final(Finalization {
                round: Round(4),
                block: BlockHash([6; 32]),
                kind: crate::certs::FinalKind::Fast,
                agg: agg(),
            })),
            Message::HotStuff(HotStuffMsg::Proposal {
                block: block(Payload::inline(vec![1, 2, 3])),
                justify: QuorumCert::genesis(),
            }),
            Message::HotStuff(HotStuffMsg::Vote {
                view: 9,
                block: BlockHash([6; 32]),
                voter: ReplicaId(2),
                signature: Signature([3; 64]),
            }),
            Message::HotStuff(HotStuffMsg::NewView {
                view: 10,
                justify: QuorumCert {
                    view: 9,
                    block: BlockHash([6; 32]),
                    agg: agg(),
                },
            }),
            Message::Streamlet(StreamletMsg::Proposal {
                block: block(Payload::empty()),
            }),
            Message::Streamlet(StreamletMsg::Vote(vote())),
            Message::Sync(SyncMsg::Request {
                hash: BlockHash([6; 32]),
            }),
            Message::Sync(SyncMsg::Response {
                block: block(Payload::synthetic(100, 2)),
            }),
            Message::Sync(SyncMsg::RequestRange {
                from_round: Round(3),
                to_round: Round(12),
            }),
            Message::Sync(SyncMsg::ResponseBatch {
                blocks: vec![block(Payload::synthetic(100, 2)), block(Payload::empty())],
                notarizations: vec![Notarization::from_votes(
                    Round(4),
                    BlockHash([6; 32]),
                    agg(),
                )],
            }),
            Message::Sync(SyncMsg::ResponseBatch {
                blocks: vec![],
                notarizations: vec![],
            }),
            Message::Sync(SyncMsg::FrontierProbe),
            Message::Sync(SyncMsg::FrontierInfo {
                finalized: Round(41),
            }),
            Message::Dissemination(DisseminationMsg::Forward {
                requests: vec![
                    PendingRequest {
                        id: 11,
                        client: 2,
                        size: 512,
                        submitted_at: Time(77),
                    },
                    PendingRequest {
                        id: 12,
                        client: 3,
                        size: 100,
                        submitted_at: Time(78),
                    },
                ],
            }),
            Message::Dissemination(DisseminationMsg::Forward { requests: vec![] }),
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for msg in all_messages() {
            let bytes = msg.to_bytes();
            assert_eq!(
                bytes.len(),
                msg.encoded_len(),
                "encoded_len mismatch for {}",
                msg.label()
            );
            assert_eq!(
                Message::from_bytes(&bytes).unwrap(),
                msg,
                "roundtrip for {}",
                msg.label()
            );
        }
    }

    #[test]
    fn wire_len_charges_synthetic_payload() {
        let msg = Message::Chained(ChainedMsg::Proposal {
            block: block(Payload::synthetic(1 << 20, 1)),
            parent_notarization: None,
            parent_unlock: None,
            fast_vote: None,
        });
        assert!(
            msg.wire_len() > 1 << 20,
            "1 MiB payload must dominate wire size"
        );
        assert_eq!(msg.wire_len(), msg.encoded_len() as u64 + (1 << 20));

        let small = Message::Sync(SyncMsg::Request {
            hash: BlockHash([0; 32]),
        });
        assert_eq!(small.wire_len(), small.encoded_len() as u64);
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<_> = all_messages().iter().map(Message::label).collect();
        assert!(labels.contains(&"proposal"));
        assert!(labels.contains(&"votes"));
        assert!(labels.contains(&"hs-vote"));
        assert!(labels.contains(&"sl-proposal"));
        assert!(labels.contains(&"sync-req"));
        assert!(labels.contains(&"sync-range"));
        assert!(labels.contains(&"sync-batch"));
        assert!(labels.contains(&"sync-probe"));
        assert!(labels.contains(&"sync-frontier"));
    }

    #[test]
    fn batch_wire_len_charges_every_block_payload() {
        let msg = Message::Sync(SyncMsg::ResponseBatch {
            blocks: vec![
                block(Payload::synthetic(10_000, 1)),
                block(Payload::synthetic(20_000, 2)),
            ],
            notarizations: vec![],
        });
        assert_eq!(msg.wire_len(), msg.encoded_len() as u64 + 30_000);
        assert_eq!(msg.sync_batch_blocks().len(), 2);
        assert_eq!(msg.carried_blocks().count(), 2);
        let probe = Message::Sync(SyncMsg::FrontierProbe);
        assert!(probe.sync_batch_blocks().is_empty());
        assert_eq!(probe.carried_blocks().count(), 0);
        assert_eq!(probe.wire_len(), probe.encoded_len() as u64);
    }

    #[test]
    fn unknown_family_rejected() {
        assert_eq!(
            Message::from_bytes(&[9]).unwrap_err(),
            CodecError::Invalid("message family")
        );
    }

    #[test]
    fn forward_wire_len_charges_request_content() {
        // The record is 26 bytes, but the wire must be charged for the
        // nominal request bytes a real deployment would ship.
        let msg = Message::Dissemination(DisseminationMsg::Forward {
            requests: vec![PendingRequest {
                id: 1,
                client: 0,
                size: 10_000,
                submitted_at: Time(5),
            }],
        });
        assert_eq!(msg.wire_len(), msg.encoded_len() as u64 + 10_000);
        assert_eq!(msg.label(), "req-forward");
    }

    #[test]
    fn vote_message_is_small() {
        // Votes must stay small so quorum traffic never bottlenecks on
        // bandwidth the way proposals do.
        let msg = Message::Chained(ChainedMsg::Votes(vec![vote(), vote()]));
        assert!(
            msg.wire_len() < 300,
            "two bundled votes should be < 300B, got {}",
            msg.wire_len()
        );
    }
}
