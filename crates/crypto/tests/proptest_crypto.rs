//! Property tests for the cryptographic substrate.

use std::sync::Arc;

use proptest::prelude::*;

use banyan_crypto::hashsig::HashSig;
use banyan_crypto::hmac::hmac_sha256;
use banyan_crypto::merkle::MerkleTree;
use banyan_crypto::schnorr::{is_prime_u64, mulmod, powmod, ToySchnorr};
use banyan_crypto::sha256::{sha256, sha256_concat, Sha256};
use banyan_crypto::sig::{SignatureScheme, SignerIndex};

/// `HashSig`'s signing domain, restated so the tag format is pinned
/// independently of the code under test.
const HASHSIG_SIGN_DOMAIN: &[u8] = b"banyan/hashsig/v1/sign";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Incremental hashing over arbitrary partitions equals one-shot, on the
    /// dispatched kernel and the portable one. Each piece's length comes
    /// from one `u16`: its low two bits pick a shape (short of a block, a
    /// run of whole blocks, exactly up to the next block boundary, or
    /// anything), so cuts land inside, on and across 64-byte boundaries.
    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        splits in proptest::collection::vec(any::<u16>(), 0..12),
    ) {
        let oneshot = sha256(&data);
        for fresh in [Sha256::new, Sha256::portable] {
            let mut h = fresh();
            let mut rest: &[u8] = &data;
            for &s in &splits {
                let (shape, size) = (s % 4, (s / 4) as usize);
                let absorbed = data.len() - rest.len();
                let cut = match shape {
                    0 => size % 64,
                    1 => 64 * (size % 8),
                    2 => 64 - absorbed % 64,
                    _ => size,
                };
                let (a, b) = rest.split_at(cut.min(rest.len()));
                h.update(a);
                rest = b;
            }
            h.update(rest);
            prop_assert_eq!(h.finalize(), oneshot);
        }
    }

    /// Distinct inputs hash distinctly (collision sanity, not a proof).
    #[test]
    fn sha256_injective_on_small_domain(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        prop_assert_ne!(sha256(&a.to_le_bytes()), sha256(&b.to_le_bytes()));
    }

    /// Every leaf of every random tree proves against the root and no
    /// other content.
    #[test]
    fn merkle_proofs_verify(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..20),
        probe in any::<u8>(),
    ) {
        let tree = MerkleTree::from_chunks(&chunks);
        let idx = (probe as usize) % chunks.len();
        let proof = tree.prove(idx).expect("in range");
        prop_assert!(proof.verify(&tree.root(), &chunks[idx]));
        let mut forged = chunks[idx].clone();
        forged.push(0xFF);
        prop_assert!(!proof.verify(&tree.root(), &forged));
    }

    /// Schnorr sign/verify over arbitrary seeds and messages; wrong
    /// message always rejected.
    #[test]
    fn schnorr_roundtrip(seed in any::<[u8; 32]>(), msg in proptest::collection::vec(any::<u8>(), 0..128)) {
        let scheme = ToySchnorr::new();
        let (sk, pk) = scheme.keygen(&seed);
        let sig = scheme.sign(&sk, &msg);
        prop_assert!(scheme.verify(&pk, &msg, &sig));
        let mut other = msg.clone();
        other.push(1);
        prop_assert!(!scheme.verify(&pk, &other, &sig));
    }

    /// A tag made from an expanded key is exactly the HMAC keyed with
    /// `pk ‖ sha256(SIGN_DOMAIN ‖ pk)`: expansion moves work, never bits.
    #[test]
    fn hashsig_expanded_tag_is_the_hmac_of_the_raw_key(
        seed in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let scheme = HashSig;
        let (sk, pk) = scheme.keygen(&seed);
        let mut key = pk.0.to_vec();
        key.extend_from_slice(&sha256_concat(&[HASHSIG_SIGN_DOMAIN, &pk.0]));
        let expect = hmac_sha256(&key, &msg);
        let expanded_sk = scheme.expand_secret(sk.clone());
        let sig = scheme.sign_expanded(&expanded_sk, &msg);
        prop_assert_eq!(&sig.0[..32], &expect[..]);
        prop_assert_eq!(sig, scheme.sign(&sk, &msg));
        prop_assert!(scheme.verify_expanded(&scheme.expand_public(pk), &msg, &sig));
        prop_assert!(scheme.verify(&pk, &msg, &sig));
    }

    /// HashSig aggregates over arbitrary signer subsets verify; adding a
    /// non-signer to the bitmap breaks them.
    #[test]
    fn hashsig_aggregate_subsets(
        subset in proptest::collection::btree_set(0u16..12, 1..12),
        msg in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let scheme = HashSig;
        let scheme_arc: Arc<dyn SignatureScheme> = Arc::new(HashSig);
        let keys: Vec<_> = (0..12u8).map(|i| scheme_arc.keygen(&[i; 32])).collect();
        let pks: Vec<_> = keys.iter().map(|(_, pk)| scheme.expand_public(*pk)).collect();
        let votes: Vec<(SignerIndex, _)> = subset
            .iter()
            .map(|&i| (i, scheme.sign(&keys[i as usize].0, &msg)))
            .collect();
        let agg = scheme.aggregate(12, &votes);
        prop_assert_eq!(agg.count(), subset.len());
        prop_assert!(scheme.verify_aggregate(&pks, &msg, &agg));

        if let Some(outsider) = (0..12u16).find(|i| !subset.contains(i)) {
            let mut tampered = agg.clone();
            tampered.signers.set(outsider);
            prop_assert!(!scheme.verify_aggregate(&pks, &msg, &tampered));
        }
    }

    /// RLC batch verification returns exactly the verdicts individual
    /// verification would, under arbitrary tampering: signers swapped to
    /// the wrong key, messages substituted, signatures bit-flipped. The
    /// combined equation may only be an *optimization* — never a change
    /// in what is accepted.
    #[test]
    fn schnorr_batch_matches_individual_under_tampering(
        k in 2usize..24,
        tampers in proptest::collection::vec((any::<u8>(), 0u8..3, any::<u8>()), 0..6),
    ) {
        use banyan_crypto::sig::BatchItem;
        let scheme = ToySchnorr::new();
        let keys: Vec<_> = (0..k)
            .map(|i| {
                let mut seed = [0u8; 32];
                seed[0] = i as u8;
                scheme.keygen(&seed)
            })
            .collect();
        let mut pks: Vec<_> = keys.iter().map(|(_, pk)| scheme.expand_public(*pk)).collect();
        let mut msgs: Vec<Vec<u8>> = (0..k).map(|i| vec![b'm', i as u8]).collect();
        let mut sigs: Vec<_> = keys
            .iter()
            .zip(&msgs)
            .map(|((sk, _), m)| scheme.sign(sk, m))
            .collect();
        for &(pos, kind, byte) in &tampers {
            let i = pos as usize % k;
            match kind {
                // Wrong key: attribute the signature to another signer.
                0 => pks[i] = scheme.expand_public(keys[(i + 1) % k].1),
                // Wrong message: first byte differs from every honest one.
                1 => msgs[i] = vec![b'x', byte],
                // Bit-flip somewhere in the signature bytes.
                _ => {
                    let len = sigs[i].0.len();
                    sigs[i].0[byte as usize % len] ^= 0x20;
                }
            }
        }
        let items: Vec<BatchItem<'_>> = (0..k)
            .map(|i| BatchItem { pk: &pks[i], msg: &msgs[i], sig: &sigs[i] })
            .collect();
        let individual: Vec<bool> = (0..k)
            .map(|i| scheme.verify_expanded(&pks[i], &msgs[i], &sigs[i]))
            .collect();
        prop_assert_eq!(scheme.batch_verify(&items), individual.clone());
        if tampers.is_empty() {
            prop_assert!(individual.into_iter().all(|ok| ok));
        }
    }

    /// Modular arithmetic identities used by the Schnorr scheme.
    #[test]
    fn powmod_laws(base in 1u64..1_000_000, e1 in 0u64..64, e2 in 0u64..64) {
        let p = 4_611_686_018_427_386_309u64; // the toy group modulus
        // g^(a+b) = g^a · g^b mod p
        let lhs = powmod(base, e1 + e2, p);
        let rhs = mulmod(powmod(base, e1, p), powmod(base, e2, p), p);
        prop_assert_eq!(lhs, rhs);
    }

    /// Miller–Rabin agrees with trial division on random small inputs.
    #[test]
    fn primality_matches_trial_division(n in 2u64..100_000) {
        let trial = (2..).take_while(|d| d * d <= n).all(|d| n % d != 0);
        prop_assert_eq!(is_prime_u64(n), trial);
    }
}
