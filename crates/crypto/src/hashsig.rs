//! `HashSig`: an HMAC-based stand-in for BLS multi-signatures.
//!
//! # Threat model — read this
//!
//! The Banyan paper uses BLS multi-signatures [Boneh–Drijvers–Neven 2018] so
//! votes aggregate into one compact, publicly verifiable certificate. BLS
//! needs pairing curves, which we deliberately do not hand-roll (substitution
//! **R2** in `docs/ARCHITECTURE.md`). `HashSig` reproduces the *API and
//! message flow* of BLS exactly — fixed-size signatures, constant-size
//! aggregates carrying a signer bitmap, aggregate verification against the
//! public-key table — but it is **not secure against an adversary outside
//! the process**: the
//! "public key" doubles as the MAC key, so anyone holding the key table can
//! forge. That is acceptable in a single-process simulation or a trusted
//! benchmark cluster, which is where the paper's latency measurements live;
//! use [`crate::schnorr::ToySchnorr`] when public verifiability matters
//! structurally.
//!
//! Aggregation XORs the 32-byte member tags together, so the aggregate is
//! constant-size no matter how many replicas signed — the same asymptotics
//! as a BLS multi-signature.
//!
//! # Expanded keys
//!
//! A tag is `HMAC-SHA256(pk ‖ sha256(SIGN_DOMAIN ‖ pk), msg)`. Everything
//! before `msg` depends on the key alone: the domain hash and the HMAC's
//! inner and outer pad blocks are 3 SHA-256 compressions. So each key is
//! expanded once ([`SignatureScheme::expand_public`],
//! [`SignatureScheme::expand_secret`]) into an HMAC state with both pads
//! absorbed, and a sign or verify clones that state and hashes only the
//! message: 3 compressions for a 56-byte vote message instead of 6, with the
//! same tags. [`SignatureScheme::verify`] on a raw key is that expansion
//! followed by the same keyed check.
//!
//! A [`crate::registry::PublicKeyTable`] holds every replica's expanded
//! key, and its clones share one allocation. The rule is one table per
//! cluster: `banyan_core`'s `ClusterBuilder` generates it once per
//! (scheme, cluster seed, n) and hands it to every replica's registry,
//! every restart rebuild and every verify backend, so a cluster expands
//! `n` keys, not one table's worth per replica.

use crate::hmac::{ct_eq, HmacSha256};
use crate::sha256::sha256_concat;
use crate::sig::{
    AggregateSignature, Expanded, PublicKey, SecretKey, Signature, SignatureScheme, SignerBitmap,
    SignerIndex, SCHEME_ID_HASHSIG,
};

/// Domain-separation prefix for key derivation.
const KEYGEN_DOMAIN: &[u8] = b"banyan/hashsig/v1/keygen";
/// Domain-separation prefix for signing: it enters only key expansion.
const SIGN_DOMAIN: &[u8] = b"banyan/hashsig/v1/sign";

/// The HMAC-based multi-signature scheme. Stateless; construct freely.
///
/// # Examples
///
/// ```
/// use banyan_crypto::hashsig::HashSig;
/// use banyan_crypto::sig::SignatureScheme;
///
/// let scheme = HashSig;
/// let (sk, pk) = scheme.keygen(&[7u8; 32]);
/// let sig = scheme.sign(&sk, b"block");
/// assert!(scheme.verify(&pk, b"block", &sig));
/// assert!(!scheme.verify(&pk, b"other", &sig));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct HashSig;

impl HashSig {
    /// The HMAC keyed with `material ‖ sha256(SIGN_DOMAIN ‖ material)`,
    /// both pads already absorbed: 3 SHA-256 compressions, paid once per
    /// key.
    fn expand(material: &[u8; 32]) -> HmacSha256 {
        let mut keyed = [0u8; 64];
        keyed[..32].copy_from_slice(material);
        keyed[32..].copy_from_slice(&sha256_concat(&[SIGN_DOMAIN, material]));
        HmacSha256::new(&keyed)
    }

    /// The tag of `msg` under key `material`, hashing only `msg` when the
    /// key arrives expanded (it always does from this scheme).
    fn tag<K>(key: &Expanded<K>, material: &[u8; 32], msg: &[u8]) -> [u8; 32] {
        let mut mac = key.mac().cloned().unwrap_or_else(|| Self::expand(material));
        mac.update(msg);
        mac.finalize()
    }
}

impl SignatureScheme for HashSig {
    fn name(&self) -> &'static str {
        "hashsig"
    }

    fn scheme_id(&self) -> u8 {
        SCHEME_ID_HASHSIG
    }

    fn keygen(&self, seed: &[u8; 32]) -> (SecretKey, PublicKey) {
        // sk and pk share the derived material: symmetric by design (see
        // module docs). Deriving from the seed (rather than using it raw)
        // keeps distinct domains for distinct schemes sharing one seed.
        let material = sha256_concat(&[KEYGEN_DOMAIN, seed]);
        (SecretKey::from_bytes(material), PublicKey(material))
    }

    fn expand_public(&self, pk: PublicKey) -> Expanded<PublicKey> {
        let mac = Self::expand(&pk.0);
        Expanded::new(pk, Some(mac))
    }

    fn expand_secret(&self, sk: SecretKey) -> Expanded<SecretKey> {
        let mac = Self::expand(sk.as_bytes());
        Expanded::new(sk, Some(mac))
    }

    fn sign_expanded(&self, sk: &Expanded<SecretKey>, msg: &[u8]) -> Signature {
        let material = sk.key().as_bytes();
        let tag = Self::tag(sk, material, msg);
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&tag);
        // Upper half binds the signer key so two replicas' signatures over
        // the same message differ visibly even in traces.
        out[32..].copy_from_slice(&sha256_concat(&[&tag, material]));
        Signature(out)
    }

    fn verify_expanded(&self, pk: &Expanded<PublicKey>, msg: &[u8], sig: &Signature) -> bool {
        let expect = Self::tag(pk, &pk.key().0, msg);
        ct_eq(&sig.0[..32], &expect)
    }

    fn aggregate(&self, n: usize, sigs: &[(SignerIndex, Signature)]) -> AggregateSignature {
        let mut signers = SignerBitmap::new(n);
        let mut acc = [0u8; 32];
        for (idx, sig) in sigs {
            if signers.contains(*idx) {
                continue; // duplicates contribute once, like BLS de-dup
            }
            signers.set(*idx);
            for (a, b) in acc.iter_mut().zip(sig.0[..32].iter()) {
                *a ^= b;
            }
        }
        AggregateSignature {
            signers,
            data: acc.to_vec(),
        }
    }

    fn verify_aggregate(
        &self,
        pks: &[Expanded<PublicKey>],
        msg: &[u8],
        agg: &AggregateSignature,
    ) -> bool {
        if agg.data.len() != 32 {
            return false;
        }
        let mut acc = [0u8; 32];
        for idx in agg.signers.iter() {
            let Some(pk) = pks.get(idx as usize) else {
                return false;
            };
            let tag = Self::tag(pk, &pk.key().0, msg);
            for (a, b) in acc.iter_mut().zip(tag.iter()) {
                *a ^= b;
            }
        }
        ct_eq(&acc, &agg.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` secret keys and their expanded public keys.
    fn keys(n: usize) -> (Vec<SecretKey>, Vec<Expanded<PublicKey>>) {
        let scheme = HashSig;
        (0..n)
            .map(|i| {
                let mut seed = [0u8; 32];
                seed[0] = i as u8;
                let (sk, pk) = scheme.keygen(&seed);
                (sk, scheme.expand_public(pk))
            })
            .unzip()
    }

    #[test]
    fn sign_verify_roundtrip() {
        let scheme = HashSig;
        let (sks, pks) = keys(4);
        for (i, sk) in sks.iter().enumerate() {
            let sig = scheme.sign(sk, b"round-7-block");
            assert!(scheme.verify_expanded(&pks[i], b"round-7-block", &sig));
            assert!(!scheme.verify_expanded(&pks[i], b"round-7-block!", &sig));
            // Wrong key fails.
            assert!(!scheme.verify_expanded(&pks[(i + 1) % 4], b"round-7-block", &sig));
            // The raw-key path is the same expansion and check.
            assert!(scheme.verify(pks[i].key(), b"round-7-block", &sig));
        }
    }

    #[test]
    fn signing_is_deterministic() {
        let scheme = HashSig;
        let (sk, _) = scheme.keygen(&[9u8; 32]);
        assert_eq!(scheme.sign(&sk, b"m").0, scheme.sign(&sk, b"m").0);
    }

    #[test]
    fn aggregate_verifies_and_is_constant_size() {
        let scheme = HashSig;
        let (sks, pks) = keys(19);
        let msg = b"notarize block 42";
        let sigs: Vec<_> = sks
            .iter()
            .enumerate()
            .take(13)
            .map(|(i, sk)| (i as SignerIndex, scheme.sign(sk, msg)))
            .collect();
        let agg = scheme.aggregate(19, &sigs);
        assert_eq!(agg.count(), 13);
        assert_eq!(
            agg.data.len(),
            32,
            "aggregate must be constant-size like BLS"
        );
        assert!(scheme.verify_aggregate(&pks, msg, &agg));
    }

    #[test]
    fn aggregate_rejects_wrong_message() {
        let scheme = HashSig;
        let (sks, pks) = keys(4);
        let sigs: Vec<_> = sks
            .iter()
            .enumerate()
            .map(|(i, sk)| (i as SignerIndex, scheme.sign(sk, b"a")))
            .collect();
        let agg = scheme.aggregate(4, &sigs);
        assert!(!scheme.verify_aggregate(&pks, b"b", &agg));
    }

    #[test]
    fn aggregate_rejects_tampered_bitmap() {
        let scheme = HashSig;
        let (sks, pks) = keys(4);
        let msg = b"m";
        let sigs: Vec<_> = (0..3)
            .map(|i| (i as SignerIndex, scheme.sign(&sks[i], msg)))
            .collect();
        let mut agg = scheme.aggregate(4, &sigs);
        // Claim a fourth signer that never signed.
        agg.signers.set(3);
        assert!(!scheme.verify_aggregate(&pks, msg, &agg));
    }

    #[test]
    fn aggregate_deduplicates_signers() {
        let scheme = HashSig;
        let (sks, pks) = keys(4);
        let msg = b"m";
        let s0 = scheme.sign(&sks[0], msg);
        let agg = scheme.aggregate(4, &[(0, s0), (0, s0), (0, s0)]);
        assert_eq!(agg.count(), 1);
        assert!(scheme.verify_aggregate(&pks, msg, &agg));
    }

    #[test]
    fn aggregate_with_unknown_signer_index_fails_verification() {
        let scheme = HashSig;
        let (sks, pks) = keys(2);
        let msg = b"m";
        let sigs = vec![(5 as SignerIndex, scheme.sign(&sks[0], msg))];
        let agg = scheme.aggregate(8, &sigs);
        // pks table only has 2 entries; index 5 is unknown.
        assert!(!scheme.verify_aggregate(&pks, msg, &agg));
    }

    #[test]
    fn empty_aggregate_verifies_trivially() {
        // An empty aggregate attests nothing and XORs to zero. This is a
        // footgun if callers treat `verify_aggregate` as a quorum check:
        // every engine must gate on bitmap popcount ≥ quorum *before*
        // verifying (the engine-boundary regression tests in banyan-core
        // pin that).
        let scheme = HashSig;
        let (_, pks) = keys(4);
        let agg = scheme.aggregate(4, &[]);
        assert_eq!(agg.count(), 0);
        assert!(scheme.verify_aggregate(&pks, b"m", &agg));
    }
}
