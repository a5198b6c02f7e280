//! The message shapes the benchmark is built around, constructed once and
//! used twice: the micro layer times the crates' functions on them, and
//! the TCP workloads are configured from the same [`Shape`] constants and
//! check after the run that what committed had that shape — so the two
//! cannot drift apart.

use std::sync::Arc;

use banyan_crypto::{AggregateSignature, KeyRegistry, Signature, SignatureScheme, ToySchnorr};
use banyan_mempool::{Request, WorkloadBatch};
use banyan_types::certs::Notarization;
use banyan_types::ids::{BlockHash, Rank, ReplicaId, Round};
use banyan_types::message::{ChainedMsg, Message};
use banyan_types::payload::Payload;
use banyan_types::time::Time;
use banyan_types::vote::{Vote, VoteKind};
use banyan_types::Block;

/// Replicas in every TCP workload: n=4, f=1, p=1 — the smallest
/// `n ≥ max(3f+2p−1, 3f+1)`.
pub const N: usize = 4;
pub const F: usize = 1;
pub const P: usize = 1;
/// Cluster PKI seed: fixed, because keys are part of the system's
/// configuration, not of the generated inputs.
pub const CLUSTER_SEED: u64 = 42;

/// One request/batch geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Nominal bytes per client request.
    pub request_size: u64,
    /// Requests a leader puts in one block at most.
    pub batch: usize,
}

/// 64 × 64 B: per-message cost dominates (`tcp_small_*`).
pub const SMALL: Shape = Shape {
    request_size: 64,
    batch: 64,
};
/// 4 × 256 KiB = 1 MiB blocks at most: the byte path dominates
/// (`tcp_large_open`).
pub const LARGE: Shape = Shape {
    request_size: 256 << 10,
    batch: 4,
};
/// 64 × 256 B: the signed, durable production shape (`tcp_wal_restart`).
pub const WAL: Shape = Shape {
    request_size: 256,
    batch: 64,
};

/// splitmix64: a bijection on `u64`, so distinct counters give distinct
/// request ids for any seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `k`-th request of a seeded stream. `key` is `mix(seed)`; xor keeps
/// the map from `k` to id a bijection.
pub fn request(key: u64, k: u64, size: u64, submitted_at: Time) -> Request {
    request_with_id(mix(key ^ k), size, submitted_at)
}

/// The request a given id stands for (a retry rebuilds it from the id).
pub fn request_with_id(id: u64, size: u64, submitted_at: Time) -> Request {
    Request {
        id,
        client: (id >> 48) as u16 % 1024,
        size,
        submitted_at,
    }
}

impl Shape {
    /// A full batch of this shape.
    pub fn batch_of(&self, seed: u64) -> WorkloadBatch {
        let key = mix(seed);
        WorkloadBatch {
            requests: (0..self.batch as u64)
                .map(|k| request(key, k, self.request_size, Time(k)))
                .collect(),
        }
    }

    /// Payload bytes of a full batch (what one committed block carries).
    pub fn full_payload_len(&self) -> u64 {
        self.batch_of(0).into_payload().len()
    }
}

/// The cluster keys under the compact Schnorr scheme, as
/// `tcp_wal_restart` deploys them.
pub fn compact_keys(n: usize) -> Vec<KeyRegistry> {
    let scheme: Arc<dyn SignatureScheme> = Arc::new(ToySchnorr::compact());
    (0..n as u16)
        .map(|i| KeyRegistry::generate(scheme.clone(), CLUSTER_SEED, n, i))
        .collect()
}

/// A compact `k`-of-`n` certificate over `msg`.
pub fn certificate(keys: &[KeyRegistry], k: usize, msg: &[u8]) -> AggregateSignature {
    let sigs: Vec<(u16, Signature)> = keys
        .iter()
        .take(k)
        .map(|key| (key.my_index(), key.sign(msg)))
        .collect();
    keys[0].table().aggregate(&sigs)
}

pub struct Shapes {
    pub keys: Vec<KeyRegistry>,
    /// The Banyan vote frame: notarization and fast vote in one message.
    pub vote: Message,
    /// A rank-0 proposal carrying a full [`SMALL`] batch, its parent's
    /// 3-of-4 notarization and the proposer's fast vote.
    pub proposal_small: Message,
    /// The same with a full [`LARGE`] batch (1 MiB payload).
    pub proposal_large: Message,
    pub block_large: Block,
    /// The signed message and compact 3-of-4 certificate over it.
    pub cert_msg: Vec<u8>,
    pub cert_3of4: AggregateSignature,
}

fn block(shape: Shape, seed: u64, payload: Payload) -> Block {
    Block {
        round: Round(2 + seed % 1000),
        proposer: ReplicaId(0),
        rank: Rank(0),
        parent: BlockHash([mix(seed) as u8; 32]),
        proposed_at: Time(1_000_000 + shape.request_size),
        payload,
        signature: Signature::zero(),
    }
}

pub fn build(seed: u64) -> Shapes {
    let keys = compact_keys(N);
    let parent = BlockHash([mix(seed) as u8; 32]);
    let parent_round = Round(1 + seed % 1000);
    let cert_msg = Vote::signing_message(VoteKind::Notarize, parent_round, &parent);
    let cert_3of4 = certificate(&keys, N - F, &cert_msg);
    let vote_of = |kind: VoteKind, round: Round, hash: BlockHash| Vote {
        kind,
        round,
        block: hash,
        voter: ReplicaId(0),
        signature: keys[0].sign(&Vote::signing_message(kind, round, &hash)),
    };
    let proposal = |shape: Shape| {
        let mut b = block(shape, seed, shape.batch_of(seed).into_payload());
        let hash = b.hash(PAYLOAD_CHUNK);
        b.signature = keys[0].sign(&Block::signing_message(&hash));
        let msg = Message::Chained(ChainedMsg::Proposal {
            parent_notarization: Some(Notarization::from_votes(
                parent_round,
                parent,
                cert_3of4.clone(),
            )),
            parent_unlock: None,
            fast_vote: Some(vote_of(VoteKind::Fast, b.round, hash)),
            block: b.clone(),
        });
        (msg, b)
    };
    let (proposal_small, small_block) = proposal(SMALL);
    let (proposal_large, block_large) = proposal(LARGE);
    let voted = small_block.hash(PAYLOAD_CHUNK);
    let vote = Message::Chained(ChainedMsg::Votes(vec![
        vote_of(VoteKind::Notarize, small_block.round, voted),
        vote_of(VoteKind::Fast, small_block.round, voted),
    ]));
    Shapes {
        keys,
        vote,
        proposal_small,
        proposal_large,
        block_large,
        cert_msg,
        cert_3of4,
    }
}

/// `ProtocolConfig::payload_chunk`'s default, which every cluster here
/// keeps; `sut::payload_chunk` asserts the two agree.
pub const PAYLOAD_CHUNK: usize = 64 << 10;

#[cfg(test)]
mod tests {
    use super::*;
    use banyan_types::codec::Wire;

    #[test]
    fn request_ids_are_distinct_and_seeded() {
        let key = mix(7);
        let mut ids: Vec<u64> = (0..10_000)
            .map(|k| request(key, k, 64, Time::ZERO).id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10_000);
        assert_eq!(
            request(key, 5, 64, Time::ZERO),
            request(key, 5, 64, Time::ZERO)
        );
        assert_ne!(
            request(mix(8), 5, 64, Time::ZERO).id,
            request(key, 5, 64, Time::ZERO).id
        );
    }

    #[test]
    fn shapes_roundtrip_and_verify() {
        let s = build(3);
        for msg in [&s.vote, &s.proposal_small, &s.proposal_large] {
            assert_eq!(&Message::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
        assert!(s.keys[1]
            .table()
            .verify_aggregate(&s.cert_msg, &s.cert_3of4));
        assert_eq!(s.cert_3of4.count(), 3);
        assert_eq!(LARGE.full_payload_len(), 1 << 20);
        let batch = WorkloadBatch::decode(&s.block_large.payload).unwrap();
        assert_eq!(batch.requests.len(), LARGE.batch);
    }
}
