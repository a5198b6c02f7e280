//! Key registry: the PKI assumed by the paper (§3).
//!
//! A [`KeyRegistry`] holds the public keys of all `n` replicas plus this
//! replica's own secret key, and offers the vote-level operations the
//! engines use: sign a digest, verify a peer's vote, aggregate a quorum,
//! verify a certificate. Engines never touch raw keys.

use std::sync::Arc;

use crate::sig::{
    AggregateSignature, BatchItem, PublicKey, SecretKey, Signature, SignatureScheme, SignerIndex,
};

/// Deterministically derives the key seed for replica `index` from a cluster
/// seed. All replicas of a test cluster derive the same PKI this way.
pub fn derive_seed(cluster_seed: u64, index: SignerIndex) -> [u8; 32] {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&cluster_seed.to_le_bytes());
    seed[8..10].copy_from_slice(&index.to_le_bytes());
    crate::sha256::sha256(&seed)
}

/// The shared, immutable part of a cluster PKI: every replica's public key.
#[derive(Clone, Debug)]
pub struct PublicKeyTable {
    scheme: Arc<dyn SignatureScheme>,
    pks: Vec<PublicKey>,
}

impl PublicKeyTable {
    /// Builds the table for an `n`-replica cluster from a cluster seed.
    pub fn generate(scheme: Arc<dyn SignatureScheme>, cluster_seed: u64, n: usize) -> Self {
        let pks = (0..n)
            .map(|i| {
                scheme
                    .keygen(&derive_seed(cluster_seed, i as SignerIndex))
                    .1
            })
            .collect();
        PublicKeyTable { scheme, pks }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.pks.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.pks.is_empty()
    }

    /// Public key of replica `index`, if in range.
    pub fn public_key(&self, index: SignerIndex) -> Option<&PublicKey> {
        self.pks.get(index as usize)
    }

    /// Verifies a single replica's signature over `msg`.
    pub fn verify(&self, index: SignerIndex, msg: &[u8], sig: &Signature) -> bool {
        match self.public_key(index) {
            Some(pk) => self.scheme.verify(pk, msg, sig),
            None => false,
        }
    }

    /// Verifies an aggregate certificate over `msg`. The signer bitmap
    /// must be exactly as wide as the cluster: the quorum gates count every
    /// bit, so a bit the scheme never checks would be a forged vote.
    pub fn verify_aggregate(&self, msg: &[u8], agg: &AggregateSignature) -> bool {
        agg.signers.len() == self.len() && self.scheme.verify_aggregate(&self.pks, msg, agg)
    }

    /// Verifies a batch of `(signer, message, signature)` triples in one
    /// combined check when the scheme supports it, returning per-item
    /// verdicts. An out-of-range signer index yields `false` for that item
    /// without poisoning the rest of the batch.
    pub fn verify_batch(&self, items: &[(SignerIndex, &[u8], &Signature)]) -> Vec<bool> {
        let mut batch = Vec::with_capacity(items.len());
        let mut in_range = Vec::with_capacity(items.len());
        for &(idx, msg, sig) in items {
            if let Some(pk) = self.public_key(idx) {
                in_range.push(batch.len());
                batch.push(BatchItem { pk, msg, sig });
            } else {
                in_range.push(usize::MAX);
            }
        }
        let verdicts = self.scheme.verify_batch(&batch);
        in_range
            .into_iter()
            .map(|slot| slot != usize::MAX && verdicts[slot])
            .collect()
    }

    /// Aggregates individual votes into a certificate.
    pub fn aggregate(&self, sigs: &[(SignerIndex, Signature)]) -> AggregateSignature {
        self.scheme.aggregate(self.pks.len(), sigs)
    }

    /// The scheme in use.
    pub fn scheme(&self) -> &Arc<dyn SignatureScheme> {
        &self.scheme
    }
}

/// One replica's view of the PKI: the shared table plus its own secret key.
#[derive(Clone, Debug)]
pub struct KeyRegistry {
    table: PublicKeyTable,
    my_index: SignerIndex,
    my_sk: SecretKey,
}

impl KeyRegistry {
    /// Creates the registry for replica `my_index` of an `n`-replica cluster.
    ///
    /// # Panics
    ///
    /// Panics if `my_index` is out of range for the table.
    pub fn generate(
        scheme: Arc<dyn SignatureScheme>,
        cluster_seed: u64,
        n: usize,
        my_index: SignerIndex,
    ) -> Self {
        assert!(
            (my_index as usize) < n,
            "replica index {my_index} out of range (n = {n})"
        );
        let table = PublicKeyTable::generate(scheme.clone(), cluster_seed, n);
        let (my_sk, _) = scheme.keygen(&derive_seed(cluster_seed, my_index));
        KeyRegistry {
            table,
            my_index,
            my_sk,
        }
    }

    /// This replica's index.
    pub fn my_index(&self) -> SignerIndex {
        self.my_index
    }

    /// Signs `msg` with this replica's secret key.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.table.scheme.sign(&self.my_sk, msg)
    }

    /// The shared public-key table.
    pub fn table(&self) -> &PublicKeyTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashsig::HashSig;
    use crate::schnorr::ToySchnorr;

    fn schemes() -> Vec<Arc<dyn SignatureScheme>> {
        vec![Arc::new(HashSig), Arc::new(ToySchnorr::new())]
    }

    #[test]
    fn cluster_members_can_verify_each_other() {
        for scheme in schemes() {
            let n = 7;
            let regs: Vec<_> = (0..n)
                .map(|i| KeyRegistry::generate(scheme.clone(), 42, n, i as SignerIndex))
                .collect();
            let msg = b"notarization vote / round 3 / block abc";
            for (i, reg) in regs.iter().enumerate() {
                let sig = reg.sign(msg);
                for other in &regs {
                    assert!(
                        other.table().verify(i as SignerIndex, msg, &sig),
                        "scheme {} replica {i}",
                        scheme.name()
                    );
                }
                assert!(!regs[0]
                    .table()
                    .verify(((i + 1) % n) as SignerIndex, msg, &sig));
            }
        }
    }

    #[test]
    fn quorum_aggregation_roundtrip() {
        for scheme in schemes() {
            let n = 19;
            let regs: Vec<_> = (0..n)
                .map(|i| KeyRegistry::generate(scheme.clone(), 7, n, i as SignerIndex))
                .collect();
            let msg = b"fast vote";
            let votes: Vec<_> = regs
                .iter()
                .take(13)
                .enumerate()
                .map(|(i, r)| (i as SignerIndex, r.sign(msg)))
                .collect();
            let cert = regs[0].table().aggregate(&votes);
            assert_eq!(cert.count(), 13);
            assert!(regs[18].table().verify_aggregate(msg, &cert));
            assert!(!regs[18].table().verify_aggregate(b"other", &cert));
        }
    }

    #[test]
    fn different_cluster_seeds_give_disjoint_pki() {
        let scheme: Arc<dyn SignatureScheme> = Arc::new(HashSig);
        let a = KeyRegistry::generate(scheme.clone(), 1, 4, 0);
        let b = KeyRegistry::generate(scheme.clone(), 2, 4, 0);
        let sig = a.sign(b"m");
        assert!(!b.table().verify(0, b"m", &sig));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let scheme: Arc<dyn SignatureScheme> = Arc::new(HashSig);
        let _ = KeyRegistry::generate(scheme, 1, 4, 4);
    }

    #[test]
    fn derive_seed_is_injective_over_small_domain() {
        let mut seen = std::collections::HashSet::new();
        for cluster in 0..4u64 {
            for idx in 0..32u16 {
                assert!(seen.insert(derive_seed(cluster, idx)));
            }
        }
    }
}
