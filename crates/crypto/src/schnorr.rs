//! `ToySchnorr`: a structurally real, publicly verifiable Schnorr signature
//! scheme over a small Schnorr group, with batch verification and compact
//! (half-aggregated) certificates.
//!
//! Where [`crate::hashsig::HashSig`] trades public verifiability for speed,
//! this scheme keeps the real algebra: keys are discrete logs, signatures
//! are `(R, s)` pairs verified with only the public key. The group is
//! deliberately tiny (62-bit modulus) so that a pure-Rust implementation
//! with `u128` arithmetic is fast enough for benchmarks.
//!
//! **Security**: none against a real attacker — a 62-bit discrete log is
//! trivially computable. The parameters are clearly toy; swapping in a
//! production group (e.g. ristretto255) changes only the constants in
//! [`Group`]. This is substitution **R2** in `docs/ARCHITECTURE.md`.
//!
//! # Batch verification
//!
//! [`ToySchnorr::batch_verify`] checks k `(pk, msg, sig)` triples with one
//! random-linear-combination equation instead of 2k full exponentiations:
//!
//! ```text
//!   g^{4·Σᵢ zᵢ·sᵢ}  ==  ( Πᵢ Rᵢ^{zᵢ} · Xᵢ^{eᵢ·zᵢ} )⁴   (mod p)
//! ```
//!
//! with nonzero 32-bit combiner scalars `zᵢ` derived deterministically from
//! a seed folded over every `(Rᵢ, sᵢ)` in the batch (a splitmix64 mixing
//! chain — non-cryptographic, which is proportionate for a toy group; see
//! `combiner_seed`'s comment). The product side is one
//! shared-squaring multi-exponentiation over 2k bases (64 squarings total
//! instead of 64 per base), which is where the speedup comes from. The
//! common factor 4 (the group cofactor: `p = 4q + 1`) annihilates any
//! small-order component an adversarial `Rᵢ` could smuggle outside the
//! order-`q` subgroup — the same reason production Ed25519 batch verifiers
//! use the cofactored equation. If the combined equation fails, we fall
//! back to individual verification to identify culprits, so the per-item
//! verdict always matches [`SignatureScheme::verify_expanded`].
//!
//! # Aggregation formats
//!
//! * [`ToySchnorr::new`] — *naive* aggregation: the aggregate carries each
//!   member signature (16 meaningful bytes per signer). The paper's
//!   Def. 7.7 notes unlock proofs "can be implemented naively by
//!   aggregating the fast votes".
//! * [`ToySchnorr::compact`] — *half-aggregation* (Chalkias et al. style):
//!   the aggregate carries each member's nonce commitment `Rᵢ` plus a
//!   single combined response `s̃ = Σᵢ zᵢ·sᵢ mod q` — 8 bytes per signer
//!   plus 9 fixed bytes, and verification is one multi-exponentiation.
//!   True O(1) aggregation is impossible for non-interactive Schnorr (the
//!   verifier needs every `Rᵢ` to recompute the challenges); O(1) is what
//!   BLS or an interactive MuSig2 ceremony would buy.
//!
//! [`SignatureScheme::verify_aggregate`] accepts both formats (they are
//! self-describing on the wire: a tag byte plus incompatible lengths), so
//! mixed-version clusters interoperate.

use crate::hmac::hmac_sha256;
use crate::sha256::sha256_concat;
use crate::sig::{
    AggregateSignature, BatchItem, Expanded, PublicKey, SecretKey, Signature, SignatureScheme,
    SignerBitmap, SignerIndex, SCHEME_ID_SCHNORR_COMPACT, SCHEME_ID_SCHNORR_NAIVE,
};

/// Domain-separation prefix for key derivation.
const KEYGEN_DOMAIN: &[u8] = b"banyan/schnorr/v1/keygen";
/// Domain-separation prefix for nonce derivation (deterministic, RFC-6979
/// style).
const NONCE_DOMAIN: &[u8] = b"banyan/schnorr/v1/nonce";
/// Domain-separation prefix for the challenge hash.
const CHALLENGE_DOMAIN: &[u8] = b"banyan/schnorr/v1/challenge";
/// Domain constant seeding the batch-verification combiner chain.
const BATCH_DOMAIN: u64 = 0xB417_C0DE_BA7C_4001;
/// Domain constant seeding the compact-aggregate combiner chain.
const AGG_DOMAIN: u64 = 0xB417_C0DE_A660_4002;

/// First byte of a compact (half-aggregated) certificate payload. Naive
/// payloads are `16·k` bytes and compact ones `9 + 8·k`, so the lengths
/// alone are unambiguous (`0 ≡ 16k mod 8` vs `1 ≡ 9+8k mod 8`); the tag is
/// belt and braces.
pub const COMPACT_AGG_TAG: u8 = 0xC5;

/// A Schnorr group: prime modulus `p`, prime subgroup order `q`, generator
/// `g` of order `q`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Group {
    /// Prime modulus.
    pub p: u64,
    /// Prime order of the subgroup generated by `g` (divides `p − 1`).
    pub q: u64,
    /// Generator of the order-`q` subgroup.
    pub g: u64,
}

/// Default toy parameters: `q = prevprime(2^60)`, `p = 4q + 1` (prime),
/// `g = 2^4 mod p` which has order exactly `q`. The cofactor is 4.
///
/// Verified prime by [`is_prime_u64`] in the tests below.
pub const TOY_GROUP: Group = Group {
    p: 4_611_686_018_427_386_309,
    q: 1_152_921_504_606_846_577,
    g: 16,
};

/// Modular multiplication for operands `< 2^63` (products fit in `u128`).
#[inline]
pub fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Modular exponentiation by square-and-multiply.
#[inline]
pub fn powmod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc: u64 = 1 % m;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base, m);
        }
        base = mulmod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Deterministic Miller–Rabin primality test, exact for all `u64` inputs
/// (uses the first 12 primes as witnesses, which is a proven-complete set).
pub fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for small in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == small {
            return true;
        }
        if n.is_multiple_of(small) {
            return false;
        }
    }
    // n − 1 = d · 2^r with d odd.
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = powmod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mulmod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// One-shot splitmix64 finalizer: cheap, well-distributed 64-bit mixing for
/// deriving per-item combiner scalars from a hash seed without paying a
/// hash per item.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Folds a word stream into a 64-bit combiner seed by a splitmix64 mixing
/// chain. Non-cryptographic by design: the combiner only needs to be
/// unpredictable-enough that an accidental defect can't cancel, which is
/// proportionate for a group whose discrete log is itself toy-sized. A
/// production scheme would derive the seed from a hash/XOF; this chain
/// costs ~1 ns per word instead of ~20.
fn combiner_seed(domain: u64, words: impl Iterator<Item = u64>) -> u64 {
    let mut acc = domain;
    for w in words {
        acc = splitmix64(acc ^ w);
    }
    acc
}

/// Expands a combiner seed into `k` nonzero 32-bit scalars.
///
/// 32-bit scalars give the random-linear-combination check soundness
/// 2⁻³² — far beyond the toy group's own strength — while halving the
/// multiplication count of the shared-squaring multi-exponentiation
/// relative to full-width scalars.
fn combiner_scalars(seed: u64, k: usize) -> Vec<u64> {
    (0..k as u64)
        .map(|i| {
            let z = splitmix64(seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F)) >> 32;
            if z == 0 {
                1
            } else {
                z
            }
        })
        .collect()
}

/// The Schnorr signature scheme instance.
///
/// # Examples
///
/// ```
/// use banyan_crypto::schnorr::ToySchnorr;
/// use banyan_crypto::sig::SignatureScheme;
///
/// let scheme = ToySchnorr::new();
/// let (sk, pk) = scheme.keygen(&[1u8; 32]);
/// let sig = scheme.sign(&sk, b"vote");
/// assert!(scheme.verify(&pk, b"vote", &sig));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ToySchnorr {
    group: Group,
    compact: bool,
}

impl Default for ToySchnorr {
    fn default() -> Self {
        Self::new()
    }
}

impl ToySchnorr {
    /// Scheme over the default [`TOY_GROUP`] with naive aggregation.
    pub fn new() -> Self {
        ToySchnorr {
            group: TOY_GROUP,
            compact: false,
        }
    }

    /// Scheme over the default [`TOY_GROUP`] emitting compact
    /// (half-aggregated) certificates: 8 bytes per signer plus a combined
    /// response, verified with one multi-exponentiation.
    pub fn compact() -> Self {
        ToySchnorr {
            group: TOY_GROUP,
            compact: true,
        }
    }

    /// Scheme over custom parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent: `p`/`q` not prime,
    /// `q ∤ p − 1`, or `g` not of order `q`. Keys and signatures from
    /// different groups are incompatible.
    pub fn with_group(group: Group) -> Self {
        assert!(is_prime_u64(group.p), "p must be prime");
        assert!(is_prime_u64(group.q), "q must be prime");
        assert!(group.p < 1 << 63, "p must fit in 63 bits for u128 products");
        assert_eq!((group.p - 1) % group.q, 0, "q must divide p-1");
        assert_ne!(group.g % group.p, 1, "g must not be the identity");
        assert_eq!(powmod(group.g, group.q, group.p), 1, "g must have order q");
        ToySchnorr {
            group,
            compact: false,
        }
    }

    /// The group parameters in use.
    pub fn group(&self) -> Group {
        self.group
    }

    /// Reduces 32 hash bytes to a nonzero scalar modulo `q`.
    fn scalar_from_hash(&self, h: &[u8; 32]) -> u64 {
        let mut x = u64::from_le_bytes(h[..8].try_into().expect("8 bytes")) % self.group.q;
        if x == 0 {
            // Degenerate with negligible probability; nudge deterministically.
            x = 1;
        }
        x
    }

    fn secret_scalar(&self, sk: &SecretKey) -> u64 {
        self.scalar_from_hash(sk.as_bytes())
    }

    fn challenge(&self, r_point: u64, pk: &PublicKey, msg: &[u8]) -> u64 {
        let h = sha256_concat(&[CHALLENGE_DOMAIN, &r_point.to_le_bytes(), &pk.0, msg]);
        self.scalar_from_hash(&h)
    }

    fn encode_pk(x_point: u64) -> PublicKey {
        let mut out = [0u8; 32];
        out[..8].copy_from_slice(&x_point.to_le_bytes());
        PublicKey(out)
    }

    fn decode_pk(pk: &PublicKey) -> u64 {
        u64::from_le_bytes(pk.0[..8].try_into().expect("8 bytes"))
    }

    fn decode_sig(sig: &Signature) -> (u64, u64) {
        let r = u64::from_le_bytes(sig.0[..8].try_into().expect("8 bytes"));
        let s = u64::from_le_bytes(sig.0[8..16].try_into().expect("8 bytes"));
        (r, s)
    }

    /// Structural range checks shared by the individual and batch paths.
    fn decode_checked(&self, pk: &PublicKey, sig: &Signature) -> Option<(u64, u64, u64)> {
        let g = self.group;
        let (r, s) = Self::decode_sig(sig);
        if s >= g.q || r == 0 || r >= g.p {
            return None;
        }
        let x = Self::decode_pk(pk);
        if x == 0 || x >= g.p {
            return None;
        }
        Some((r, s, x))
    }

    /// Shared-squaring multi-exponentiation (binary Straus): computes
    /// `Π baseᵢ^{expᵢ} mod p` with one squaring chain for all bases. This
    /// is the workhorse of both batch verification and compact-certificate
    /// verification: 64 squarings total instead of ~64 per base.
    fn multi_exp(&self, pairs: &[(u64, u64)]) -> u64 {
        let p = self.group.p;
        let max_bits = 64
            - pairs
                .iter()
                .map(|&(_, e)| e.leading_zeros())
                .min()
                .unwrap_or(64);
        let mut acc: u64 = 1;
        for bit in (0..max_bits).rev() {
            acc = mulmod(acc, acc, p);
            for &(base, exp) in pairs {
                if (exp >> bit) & 1 == 1 {
                    acc = mulmod(acc, base, p);
                }
            }
        }
        acc
    }

    /// The cofactored combined check shared by [`Self::batch_verify`] and
    /// compact-certificate verification.
    ///
    /// `items` are `(Rᵢ, Xᵢ, eᵢ, zᵢ)`; `s_combined` must be
    /// `Σᵢ zᵢ·sᵢ mod q`. Returns whether
    /// `g^{4·s_combined} == (Π Rᵢ^{zᵢ}·Xᵢ^{eᵢ·zᵢ})⁴ mod p`.
    fn combined_check(&self, items: &[(u64, u64, u64, u64)], s_combined: u64) -> bool {
        let g = self.group;
        let mut pairs = Vec::with_capacity(items.len() * 2);
        for &(r, x, e, z) in items {
            // R may lie outside the order-q subgroup: its exponent must be
            // the full 64-bit integer z. X comes from keygen and has order
            // q, so its exponent reduces mod q.
            pairs.push((r, z));
            pairs.push((x, mulmod(e, z % g.q, g.q)));
        }
        let rhs_base = self.multi_exp(&pairs);
        // Raise both sides to the cofactor 4: two squarings on the product
        // side, a factor folded into the exponent on the generator side
        // (g has order q, so the exponent reduces mod q).
        let rhs = mulmod(
            mulmod(rhs_base, rhs_base, g.p),
            mulmod(rhs_base, rhs_base, g.p),
            g.p,
        );
        let lhs = powmod(g.g, mulmod(4, s_combined, g.q), g.p);
        lhs == rhs
    }

    /// Batch verification: checks every `(pk, msg, sig)` triple with one
    /// random-linear-combination equation (see the module docs for the
    /// math), falling back to individual verification when the combined
    /// equation fails, to identify culprits. The returned vector matches
    /// what [`SignatureScheme::verify_expanded`] would say for each item.
    pub fn batch_verify(&self, items: &[BatchItem<'_>]) -> Vec<bool> {
        if items.len() < 2 {
            return self.verify_each(items);
        }
        // Structural pre-checks; a malformed item can't poison the batch,
        // so fall out to the per-item path if any fails.
        let mut decoded = Vec::with_capacity(items.len());
        for it in items {
            match self.decode_checked(it.pk.key(), it.sig) {
                Some(d) => decoded.push(d),
                None => return self.verify_each(items),
            }
        }
        // Deterministic per-batch combiner seed over every (R, s) pair.
        let seed = combiner_seed(
            BATCH_DOMAIN ^ items.len() as u64,
            decoded.iter().flat_map(|&(r, s, _)| [r, s]),
        );
        let zs = combiner_scalars(seed, items.len());

        let g = self.group;
        let mut s_combined: u64 = 0;
        let mut combined = Vec::with_capacity(items.len());
        for ((&(r, s, x), it), &z) in decoded.iter().zip(items).zip(&zs) {
            let e = self.challenge(r, it.pk.key(), it.msg);
            s_combined = (s_combined as u128 + mulmod(z % g.q, s, g.q) as u128) as u64 % g.q;
            combined.push((r, x, e, z));
        }
        if self.combined_check(&combined, s_combined) {
            return vec![true; items.len()];
        }
        // Culprit identification: the combined equation failed, so at
        // least one member is bad; report each item's individual verdict.
        self.verify_each(items)
    }

    fn verify_each(&self, items: &[BatchItem<'_>]) -> Vec<bool> {
        items
            .iter()
            .map(|it| self.verify_expanded(it.pk, it.msg, it.sig))
            .collect()
    }

    /// Combiner seed for a compact aggregate: binds the signer bitmap and
    /// every nonce commitment, so the scalars are recomputable by any
    /// verifier from the aggregate alone (no per-member `sᵢ` needed).
    fn agg_seed(signers: &SignerBitmap, rs: &[u64]) -> u64 {
        combiner_seed(
            AGG_DOMAIN ^ signers.len() as u64,
            signers.words().iter().copied().chain(rs.iter().copied()),
        )
    }

    fn verify_aggregate_naive(
        &self,
        pks: &[Expanded<PublicKey>],
        msg: &[u8],
        agg: &AggregateSignature,
    ) -> bool {
        for (slot, idx) in agg.signers.iter().enumerate() {
            let Some(pk) = pks.get(idx as usize) else {
                return false;
            };
            let mut sig = [0u8; 64];
            sig[..16].copy_from_slice(&agg.data[slot * 16..slot * 16 + 16]);
            if !self.verify_expanded(pk, msg, &Signature(sig)) {
                return false;
            }
        }
        true
    }

    fn verify_aggregate_compact(
        &self,
        pks: &[Expanded<PublicKey>],
        msg: &[u8],
        agg: &AggregateSignature,
    ) -> bool {
        let g = self.group;
        let count = agg.signers.count();
        let body = &agg.data[1..];
        let mut rs = Vec::with_capacity(count);
        for slot in 0..count {
            let r = u64::from_le_bytes(body[slot * 8..slot * 8 + 8].try_into().expect("8 bytes"));
            if r == 0 || r >= g.p {
                return false;
            }
            rs.push(r);
        }
        let s_tilde = u64::from_le_bytes(body[count * 8..].try_into().expect("8 bytes"));
        if s_tilde >= g.q {
            return false;
        }
        let zs = combiner_scalars(Self::agg_seed(&agg.signers, &rs), count);
        let mut combined = Vec::with_capacity(count);
        for ((slot, idx), &z) in agg.signers.iter().enumerate().zip(&zs) {
            let Some(pk) = pks.get(idx as usize).map(Expanded::key) else {
                return false;
            };
            let x = Self::decode_pk(pk);
            if x == 0 || x >= g.p {
                return false;
            }
            let e = self.challenge(rs[slot], pk, msg);
            combined.push((rs[slot], x, e, z));
        }
        self.combined_check(&combined, s_tilde)
    }
}

impl SignatureScheme for ToySchnorr {
    fn name(&self) -> &'static str {
        if self.compact {
            "toy-schnorr-compact"
        } else {
            "toy-schnorr"
        }
    }

    fn scheme_id(&self) -> u8 {
        if self.compact {
            SCHEME_ID_SCHNORR_COMPACT
        } else {
            SCHEME_ID_SCHNORR_NAIVE
        }
    }

    fn keygen(&self, seed: &[u8; 32]) -> (SecretKey, PublicKey) {
        let material = sha256_concat(&[KEYGEN_DOMAIN, seed]);
        let sk = SecretKey::from_bytes(material);
        let x = self.secret_scalar(&sk);
        let pk_point = powmod(self.group.g, x, self.group.p);
        (sk, Self::encode_pk(pk_point))
    }

    fn sign_expanded(&self, sk: &Expanded<SecretKey>, msg: &[u8]) -> Signature {
        let sk = sk.key();
        let g = self.group;
        let x = self.secret_scalar(sk);
        let pk = Self::encode_pk(powmod(g.g, x, g.p));

        // Deterministic nonce: k = H(sk, msg) mod q (RFC-6979 flavor).
        let nonce_bytes = hmac_sha256(sk.as_bytes(), &sha256_concat(&[NONCE_DOMAIN, msg]));
        let k = self.scalar_from_hash(&nonce_bytes);

        let r_point = powmod(g.g, k, g.p);
        let e = self.challenge(r_point, &pk, msg);
        // s = k + e·x mod q
        let s = (k as u128 + mulmod(e, x, g.q) as u128) % g.q as u128;

        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&r_point.to_le_bytes());
        out[8..16].copy_from_slice(&(s as u64).to_le_bytes());
        Signature(out)
    }

    fn verify_expanded(&self, pk: &Expanded<PublicKey>, msg: &[u8], sig: &Signature) -> bool {
        let pk = pk.key();
        let g = self.group;
        let Some((r, s, x)) = self.decode_checked(pk, sig) else {
            return false;
        };
        // g^s == R · X^e  (mod p)
        let e = self.challenge(r, pk, msg);
        powmod(g.g, s, g.p) == mulmod(r, powmod(x, e, g.p), g.p)
    }

    fn verify_batch(&self, items: &[BatchItem<'_>]) -> Vec<bool> {
        self.batch_verify(items)
    }

    fn aggregate(&self, n: usize, sigs: &[(SignerIndex, Signature)]) -> AggregateSignature {
        let mut signers = SignerBitmap::new(n);
        let mut members: Vec<(SignerIndex, Signature)> = Vec::new();
        for (idx, sig) in sigs {
            if signers.contains(*idx) {
                continue;
            }
            signers.set(*idx);
            members.push((*idx, *sig));
        }
        members.sort_by_key(|(idx, _)| *idx);
        if !self.compact {
            // Naive aggregation: 16 meaningful bytes per signer, ordered
            // by ascending signer index.
            let mut data = Vec::with_capacity(members.len() * 16);
            for (_, sig) in &members {
                data.extend_from_slice(&sig.0[..16]);
            }
            return AggregateSignature { signers, data };
        }
        // Half-aggregation: every member's R, one combined response
        // s̃ = Σᵢ zᵢ·sᵢ mod q with z derived from (bitmap, all R).
        let g = self.group;
        let decoded: Vec<(u64, u64)> = members.iter().map(|(_, s)| Self::decode_sig(s)).collect();
        let rs: Vec<u64> = decoded.iter().map(|&(r, _)| r).collect();
        let zs = combiner_scalars(Self::agg_seed(&signers, &rs), members.len());
        let mut s_tilde: u64 = 0;
        for (&(_, s), &z) in decoded.iter().zip(&zs) {
            s_tilde = (s_tilde as u128 + mulmod(z % g.q, s % g.q, g.q) as u128) as u64 % g.q;
        }
        let mut data = Vec::with_capacity(9 + members.len() * 8);
        data.push(COMPACT_AGG_TAG);
        for r in &rs {
            data.extend_from_slice(&r.to_le_bytes());
        }
        data.extend_from_slice(&s_tilde.to_le_bytes());
        AggregateSignature { signers, data }
    }

    fn verify_aggregate(
        &self,
        pks: &[Expanded<PublicKey>],
        msg: &[u8],
        agg: &AggregateSignature,
    ) -> bool {
        // Both formats are accepted regardless of which one this instance
        // emits: the payload is self-describing (tag byte + length).
        let count = agg.signers.count();
        if agg.data.len() == 9 + count * 8 && agg.data.first() == Some(&COMPACT_AGG_TAG) {
            self.verify_aggregate_compact(pks, msg, agg)
        } else if agg.data.len() == count * 16 {
            self.verify_aggregate_naive(pks, msg, agg)
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_group_parameters_are_valid() {
        // `with_group` asserts primality of p and q, q | p−1, and ord(g) = q.
        let _ = ToySchnorr::with_group(TOY_GROUP);
    }

    #[test]
    fn miller_rabin_agrees_with_small_sieve() {
        let mut sieve = vec![true; 10_000];
        sieve[0] = false;
        sieve[1] = false;
        for i in 2..100 {
            if sieve[i] {
                let mut j = i * i;
                while j < 10_000 {
                    sieve[j] = false;
                    j += i;
                }
            }
        }
        for (n, &expect) in sieve.iter().enumerate() {
            assert_eq!(is_prime_u64(n as u64), expect, "n = {n}");
        }
    }

    #[test]
    fn miller_rabin_known_large_values() {
        assert!(is_prime_u64(2_305_843_009_213_693_951)); // 2^61 − 1, Mersenne
        assert!(!is_prime_u64(4_611_686_018_427_387_903)); // 2^62 − 1, composite
        assert!(is_prime_u64(18_446_744_073_709_551_557)); // largest u64 prime
        assert!(!is_prime_u64(18_446_744_073_709_551_615)); // u64::MAX
    }

    #[test]
    fn sign_verify_roundtrip() {
        let scheme = ToySchnorr::new();
        for i in 0..8u8 {
            let (sk, pk) = scheme.keygen(&[i; 32]);
            let msg = format!("block at height {i}");
            let sig = scheme.sign(&sk, msg.as_bytes());
            assert!(scheme.verify(&pk, msg.as_bytes(), &sig));
            assert!(!scheme.verify(&pk, b"tampered", &sig));
        }
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let scheme = ToySchnorr::new();
        let (sk, _) = scheme.keygen(&[1u8; 32]);
        let (_, pk2) = scheme.keygen(&[2u8; 32]);
        let sig = scheme.sign(&sk, b"m");
        assert!(!scheme.verify(&pk2, b"m", &sig));
    }

    #[test]
    fn verify_rejects_out_of_range_scalars() {
        let scheme = ToySchnorr::new();
        let (_, pk) = scheme.keygen(&[1u8; 32]);
        // All-zero signature: R = 0 is not a group element.
        assert!(!scheme.verify(&pk, b"m", &Signature::zero()));
        let mut sig = Signature::zero();
        sig.0[..8].copy_from_slice(&u64::MAX.to_le_bytes()); // R >= p
        assert!(!scheme.verify(&pk, b"m", &sig));
        let (sk, pk) = scheme.keygen(&[1u8; 32]);
        let mut sig = scheme.sign(&sk, b"m");
        sig.0[8..16].copy_from_slice(&u64::MAX.to_le_bytes()); // s >= q
        assert!(!scheme.verify(&pk, b"m", &sig));
    }

    #[test]
    fn signatures_are_deterministic_and_key_bound() {
        let scheme = ToySchnorr::new();
        let (sk1, _) = scheme.keygen(&[1u8; 32]);
        let (sk2, _) = scheme.keygen(&[2u8; 32]);
        assert_eq!(scheme.sign(&sk1, b"m").0, scheme.sign(&sk1, b"m").0);
        assert_ne!(scheme.sign(&sk1, b"m").0, scheme.sign(&sk2, b"m").0);
    }

    fn batch_items(
        keys: &[(SecretKey, PublicKey)],
        msgs: &[Vec<u8>],
        scheme: &ToySchnorr,
    ) -> Vec<(Expanded<PublicKey>, Vec<u8>, Signature)> {
        keys.iter()
            .zip(msgs)
            .map(|((sk, pk), m)| (scheme.expand_public(*pk), m.clone(), scheme.sign(sk, m)))
            .collect()
    }

    #[test]
    fn batch_verify_accepts_honest_batch() {
        let scheme = ToySchnorr::new();
        let keys: Vec<_> = (0..32u8).map(|i| scheme.keygen(&[i; 32])).collect();
        let msgs: Vec<_> = (0..32u8).map(|i| vec![b'v', i]).collect();
        let owned = batch_items(&keys, &msgs, &scheme);
        let items: Vec<BatchItem<'_>> = owned
            .iter()
            .map(|(pk, m, s)| BatchItem { pk, msg: m, sig: s })
            .collect();
        assert_eq!(scheme.batch_verify(&items), vec![true; 32]);
    }

    #[test]
    fn batch_verify_identifies_culprits() {
        let scheme = ToySchnorr::new();
        let keys: Vec<_> = (0..8u8).map(|i| scheme.keygen(&[i; 32])).collect();
        let msgs: Vec<_> = (0..8u8).map(|i| vec![b'v', i]).collect();
        let mut owned = batch_items(&keys, &msgs, &scheme);
        owned[3].2 .0[5] ^= 0x40; // bit-flip one signature
        owned[6].1 = b"substituted".to_vec(); // wrong message
        let items: Vec<BatchItem<'_>> = owned
            .iter()
            .map(|(pk, m, s)| BatchItem { pk, msg: m, sig: s })
            .collect();
        let verdicts = scheme.batch_verify(&items);
        let individual: Vec<bool> = owned
            .iter()
            .map(|(pk, m, s)| scheme.verify_expanded(pk, m, s))
            .collect();
        assert_eq!(verdicts, individual);
        assert!(!verdicts[3] && !verdicts[6]);
        assert_eq!(verdicts.iter().filter(|v| **v).count(), 6);
    }

    #[test]
    fn aggregate_roundtrip_and_size() {
        let scheme = ToySchnorr::new();
        let keys: Vec<_> = (0..19u8).map(|i| scheme.keygen(&[i; 32])).collect();
        let pks: Vec<_> = keys
            .iter()
            .map(|(_, pk)| scheme.expand_public(*pk))
            .collect();
        let msg = b"fast vote round 3";
        let sigs: Vec<_> = keys
            .iter()
            .enumerate()
            .take(18)
            .map(|(i, (sk, _))| (i as SignerIndex, scheme.sign(sk, msg)))
            .collect();
        let agg = scheme.aggregate(19, &sigs);
        assert_eq!(agg.count(), 18);
        assert_eq!(agg.data.len(), 18 * 16, "naive aggregation: 16B per member");
        assert!(scheme.verify_aggregate(&pks, msg, &agg));
    }

    #[test]
    fn compact_aggregate_roundtrip_and_size() {
        let scheme = ToySchnorr::compact();
        let keys: Vec<_> = (0..19u8).map(|i| scheme.keygen(&[i; 32])).collect();
        let pks: Vec<_> = keys
            .iter()
            .map(|(_, pk)| scheme.expand_public(*pk))
            .collect();
        let msg = b"fast vote round 3";
        let sigs: Vec<_> = keys
            .iter()
            .enumerate()
            .take(18)
            .map(|(i, (sk, _))| (i as SignerIndex, scheme.sign(sk, msg)))
            .collect();
        let agg = scheme.aggregate(19, &sigs);
        assert_eq!(agg.count(), 18);
        assert_eq!(
            agg.data.len(),
            9 + 18 * 8,
            "half-aggregation: 8B per member + tag + combined response"
        );
        assert!(scheme.verify_aggregate(&pks, msg, &agg));
        // The naive-mode instance accepts the compact format too (the
        // payload is self-describing).
        assert!(ToySchnorr::new().verify_aggregate(&pks, msg, &agg));
    }

    #[test]
    fn compact_aggregate_rejects_tampering() {
        let scheme = ToySchnorr::compact();
        let keys: Vec<_> = (0..7u8).map(|i| scheme.keygen(&[i; 32])).collect();
        let pks: Vec<_> = keys
            .iter()
            .map(|(_, pk)| scheme.expand_public(*pk))
            .collect();
        let msg = b"m";
        let sigs: Vec<_> = keys
            .iter()
            .enumerate()
            .map(|(i, (sk, _))| (i as SignerIndex, scheme.sign(sk, msg)))
            .collect();
        let good = scheme.aggregate(7, &sigs);
        assert!(scheme.verify_aggregate(&pks, msg, &good));
        // Wrong message.
        assert!(!scheme.verify_aggregate(&pks, b"other", &good));
        // Flip a bit in one R.
        let mut bad = good.clone();
        bad.data[5] ^= 1;
        assert!(!scheme.verify_aggregate(&pks, msg, &bad));
        // Flip a bit in the combined response.
        let mut bad = good.clone();
        let last = bad.data.len() - 1;
        bad.data[last] ^= 1;
        assert!(!scheme.verify_aggregate(&pks, msg, &bad));
        // Claim an extra signer without its contribution.
        let mut bad = good.clone();
        let sub: Vec<_> = sigs[..6].to_vec();
        bad.data = scheme.aggregate(7, &sub).data;
        assert!(!scheme.verify_aggregate(&pks, msg, &bad));
    }

    #[test]
    fn aggregate_detects_single_bad_member() {
        for scheme in [ToySchnorr::new(), ToySchnorr::compact()] {
            let keys: Vec<_> = (0..4u8).map(|i| scheme.keygen(&[i; 32])).collect();
            let pks: Vec<_> = keys
                .iter()
                .map(|(_, pk)| scheme.expand_public(*pk))
                .collect();
            let msg = b"m";
            let mut sigs: Vec<_> = keys
                .iter()
                .enumerate()
                .map(|(i, (sk, _))| (i as SignerIndex, scheme.sign(sk, msg)))
                .collect();
            // Corrupt member 2's signature.
            sigs[2].1 .0[3] ^= 1;
            let agg = scheme.aggregate(4, &sigs);
            assert!(!scheme.verify_aggregate(&pks, msg, &agg));
        }
    }

    #[test]
    fn aggregate_data_length_must_match_bitmap() {
        for scheme in [ToySchnorr::new(), ToySchnorr::compact()] {
            let (sk, pk) = scheme.keygen(&[1u8; 32]);
            let sig = scheme.sign(&sk, b"m");
            let mut agg = scheme.aggregate(4, &[(0, sig)]);
            agg.data.push(0);
            assert!(!scheme.verify_aggregate(&[scheme.expand_public(pk)], b"m", &agg));
        }
    }

    #[test]
    fn powmod_edge_cases() {
        assert_eq!(powmod(0, 0, 7), 1);
        assert_eq!(powmod(5, 0, 7), 1);
        assert_eq!(powmod(5, 1, 7), 5);
        assert_eq!(powmod(2, 10, 1), 0); // mod 1 → everything is 0
        assert_eq!(powmod(7, 2, 5), 4);
    }

    #[test]
    fn multi_exp_matches_powmod_product() {
        let scheme = ToySchnorr::new();
        let g = scheme.group();
        let pairs = [
            (g.g, 123_456_789u64),
            (powmod(g.g, 7, g.p), u64::MAX),
            (powmod(g.g, 99, g.p), 1u64),
            (powmod(g.g, 3, g.p), 0u64),
        ];
        let expect = pairs.iter().fold(1u64, |acc, &(b, e)| {
            mulmod(acc, powmod(b, e % g.q, g.p), g.p)
        });
        // All bases here are in the order-q subgroup, so reducing the
        // exponents mod q is legal for the reference product; multi_exp
        // uses the full integers and must agree.
        assert_eq!(scheme.multi_exp(&pairs), expect);
    }
}
