//! Key registry: the PKI assumed by the paper (§3).
//!
//! A [`KeyRegistry`] holds the public keys of all `n` replicas plus this
//! replica's own secret key, and offers the vote-level operations the
//! engines use: sign a digest, verify a peer's vote, aggregate a quorum,
//! verify a certificate. Engines never touch raw keys.

use std::sync::Arc;

use crate::sig::{
    AggregateSignature, BatchItem, Expanded, PublicKey, SecretKey, Signature, SignatureScheme,
    SignerIndex,
};

/// Deterministically derives the key seed for replica `index` from a cluster
/// seed. All replicas of a test cluster derive the same PKI this way.
pub fn derive_seed(cluster_seed: u64, index: SignerIndex) -> [u8; 32] {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&cluster_seed.to_le_bytes());
    seed[8..10].copy_from_slice(&index.to_le_bytes());
    crate::sha256::sha256(&seed)
}

/// The shared, immutable part of a cluster PKI: every replica's public key,
/// expanded once by the scheme (see [`SignatureScheme::expand_public`]).
///
/// Clones share one key allocation, so a cluster needs one table: every
/// replica's [`KeyRegistry`] and every verify backend can hold a clone
/// ([`KeyRegistry::with_table`]).
#[derive(Clone, Debug)]
pub struct PublicKeyTable {
    scheme: Arc<dyn SignatureScheme>,
    keys: Arc<[Expanded<PublicKey>]>,
}

impl PublicKeyTable {
    /// Builds the table for an `n`-replica cluster from a cluster seed.
    pub fn generate(scheme: Arc<dyn SignatureScheme>, cluster_seed: u64, n: usize) -> Self {
        let keys = (0..n)
            .map(|i| {
                let (_, pk) = scheme.keygen(&derive_seed(cluster_seed, i as SignerIndex));
                scheme.expand_public(pk)
            })
            .collect();
        PublicKeyTable { scheme, keys }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Public key of replica `index`, if in range.
    pub fn public_key(&self, index: SignerIndex) -> Option<&PublicKey> {
        self.keys.get(index as usize).map(Expanded::key)
    }

    /// Verifies a single replica's signature over `msg`.
    pub fn verify(&self, index: SignerIndex, msg: &[u8], sig: &Signature) -> bool {
        match self.keys.get(index as usize) {
            Some(pk) => self.scheme.verify_expanded(pk, msg, sig),
            None => false,
        }
    }

    /// Verifies an aggregate certificate over `msg`. The signer bitmap
    /// must be exactly as wide as the cluster: the quorum gates count every
    /// bit, so a bit the scheme never checks would be a forged vote.
    pub fn verify_aggregate(&self, msg: &[u8], agg: &AggregateSignature) -> bool {
        agg.signers.len() == self.len() && self.scheme.verify_aggregate(&self.keys, msg, agg)
    }

    /// Verifies a batch of `(signer, message, signature)` triples in one
    /// combined check when the scheme supports it, returning per-item
    /// verdicts. An out-of-range signer index yields `false` for that item
    /// without poisoning the rest of the batch.
    pub fn verify_batch(&self, items: &[(SignerIndex, &[u8], &Signature)]) -> Vec<bool> {
        let mut batch = Vec::with_capacity(items.len());
        let mut in_range = Vec::with_capacity(items.len());
        for &(idx, msg, sig) in items {
            if let Some(pk) = self.keys.get(idx as usize) {
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
        self.scheme.aggregate(self.keys.len(), sigs)
    }

    /// The scheme in use.
    pub fn scheme(&self) -> &Arc<dyn SignatureScheme> {
        &self.scheme
    }
}

/// One replica's view of the PKI: the shared table plus its own secret key,
/// expanded once like the table's public keys.
#[derive(Clone, Debug)]
pub struct KeyRegistry {
    table: PublicKeyTable,
    my_index: SignerIndex,
    my_sk: Expanded<SecretKey>,
}

impl KeyRegistry {
    /// Creates the registry for replica `my_index` of an `n`-replica
    /// cluster, generating a table of its own. A cluster's replicas should
    /// share one table instead: see [`Self::with_table`].
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
        Self::with_table(
            PublicKeyTable::generate(scheme, cluster_seed, n),
            cluster_seed,
            my_index,
        )
    }

    /// The registry for replica `my_index` over `table`, which must have
    /// been generated from the same `cluster_seed`. Only this replica's
    /// secret key is derived; the table is shared, not copied.
    ///
    /// # Panics
    ///
    /// Panics if `my_index` is out of range for the table.
    pub fn with_table(table: PublicKeyTable, cluster_seed: u64, my_index: SignerIndex) -> Self {
        assert!(
            (my_index as usize) < table.len(),
            "replica index {my_index} out of range (n = {})",
            table.len()
        );
        let scheme = table.scheme();
        let (sk, _) = scheme.keygen(&derive_seed(cluster_seed, my_index));
        let my_sk = scheme.expand_secret(sk);
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
        self.table.scheme.sign_expanded(&self.my_sk, msg)
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
        vec![
            Arc::new(HashSig),
            Arc::new(ToySchnorr::new()),
            Arc::new(ToySchnorr::compact()),
        ]
    }

    /// One shared table and a registry per replica over it.
    fn cluster(scheme: &Arc<dyn SignatureScheme>, seed: u64, n: usize) -> Vec<KeyRegistry> {
        let table = PublicKeyTable::generate(scheme.clone(), seed, n);
        (0..n)
            .map(|i| KeyRegistry::with_table(table.clone(), seed, i as SignerIndex))
            .collect()
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
    fn a_shared_table_signs_and_verifies_like_generated_ones() {
        for scheme in schemes() {
            let n = 7;
            let shared = cluster(&scheme, 11, n);
            let msg = b"vote";
            for (i, reg) in shared.iter().enumerate() {
                let own = KeyRegistry::generate(scheme.clone(), 11, n, i as SignerIndex);
                let sig = reg.sign(msg);
                assert_eq!(sig, own.sign(msg), "scheme {}", scheme.name());
                assert_eq!(reg.table().public_key(0), own.table().public_key(0));
                assert!(own.table().verify(i as SignerIndex, msg, &sig));
                assert!(scheme.verify(reg.table().public_key(i as u16).unwrap(), msg, &sig));
            }
            let items: Vec<_> = shared.iter().map(|r| (r.my_index(), r.sign(msg))).collect();
            let borrowed: Vec<_> = items.iter().map(|(i, sig)| (*i, &msg[..], sig)).collect();
            assert_eq!(shared[0].table().verify_batch(&borrowed), vec![true; n]);
            // Every registry holds the one allocation.
            let first = shared[0].table().public_key(0).unwrap();
            assert!(shared
                .iter()
                .all(|r| std::ptr::eq(r.table().public_key(0).unwrap(), first)));
        }
    }

    #[test]
    fn forgeries_are_rejected_through_the_table() {
        for scheme in schemes() {
            let n = 4;
            let regs = cluster(&scheme, 3, n);
            let table = regs[0].table();
            let msg = b"notarize";
            let sig = regs[1].sign(msg);
            // Out-of-range signer indices.
            assert!(!table.verify(n as SignerIndex, msg, &sig));
            assert!(!table.verify(SignerIndex::MAX, msg, &sig));
            assert_eq!(
                table.verify_batch(&[(1, msg, &sig), (9, msg, &sig)]),
                vec![true, false]
            );
            // A flipped tag byte.
            let mut flipped = sig;
            flipped.0[3] ^= 0x01;
            assert!(!table.verify(1, msg, &flipped), "scheme {}", scheme.name());
            assert_eq!(table.verify_batch(&[(1, msg, &flipped)]), vec![false]);
            // Aggregates: good, wrong width either way, flipped payload.
            let votes: Vec<_> = regs.iter().map(|r| (r.my_index(), r.sign(msg))).collect();
            let agg = table.aggregate(&votes[..3]);
            assert!(table.verify_aggregate(msg, &agg));
            for width in [n - 1, n + 1, 64] {
                let mut wrong = agg.clone();
                wrong.signers =
                    crate::sig::SignerBitmap::from_words(agg.signers.words().to_vec(), width);
                assert!(!table.verify_aggregate(msg, &wrong), "width {width}");
            }
            let mut bad = agg.clone();
            let last = bad.data.len() - 1;
            bad.data[last] ^= 0x01;
            assert!(
                !table.verify_aggregate(msg, &bad),
                "scheme {}",
                scheme.name()
            );
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
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_over_a_shared_table_panics() {
        let table = PublicKeyTable::generate(Arc::new(HashSig), 1, 4);
        let _ = KeyRegistry::with_table(table, 1, 4);
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
