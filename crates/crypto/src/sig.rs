//! Signature-scheme abstraction used by every consensus engine.
//!
//! The Banyan paper assumes a PKI with digital signatures and uses **BLS
//! multi-signatures** so that `n − f` notarization votes (or `n − p` fast
//! votes) can be aggregated into one compact certificate (§4, Def. 7.7).
//!
//! BLS needs pairing-friendly curves, which are out of scope for a
//! from-scratch reproduction limited to the approved dependency set. Instead
//! this module defines the exact API surface the protocol needs — sign,
//! verify, aggregate-k-votes, verify-aggregate-against-signer-set — and two
//! interchangeable implementations:
//!
//! * [`crate::hashsig::HashSig`]: an HMAC-based scheme whose aggregate is a
//!   constant-size XOR tag plus a signer bitmap, mirroring the shape and
//!   message flow of BLS aggregates. Zero cryptographic security against an
//!   adversary who can read process memory (fine inside a simulation; see
//!   the module docs for the threat-model discussion).
//! * [`crate::schnorr::ToySchnorr`]: a structurally real, publicly
//!   verifiable Schnorr scheme over a 62-bit Schnorr group. Toy parameters —
//!   honest-majority experiments only, not secure against real attackers.
//!
//! The substitution is recorded as **R2** in `docs/ARCHITECTURE.md`.

use std::fmt;

use crate::hmac::HmacSha256;

/// Index of a signer within the fixed replica set (the paper's replica id).
pub type SignerIndex = u16;

/// Registry-negotiated scheme id for [`crate::hashsig::HashSig`] aggregates.
pub const SCHEME_ID_HASHSIG: u8 = 1;
/// Registry-negotiated scheme id for naive (per-member) Schnorr aggregates.
pub const SCHEME_ID_SCHNORR_NAIVE: u8 = 2;
/// Registry-negotiated scheme id for compact (half-aggregated) Schnorr
/// certificates.
pub const SCHEME_ID_SCHNORR_COMPACT: u8 = 3;

/// One `(public key, message, signature)` triple submitted to batch
/// verification.
#[derive(Clone, Copy, Debug)]
pub struct BatchItem<'a> {
    /// The claimed signer's public key, expanded by the verifying scheme.
    pub pk: &'a Expanded<PublicKey>,
    /// The signed message.
    pub msg: &'a [u8],
    /// The signature to check.
    pub sig: &'a Signature,
}

/// A secret signing key. Opaque 32 bytes; semantics are scheme-specific.
#[derive(Clone)]
pub struct SecretKey(pub(crate) [u8; 32]);

impl SecretKey {
    /// Constructs a secret key from raw bytes (e.g. loaded from a keystore).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        SecretKey(bytes)
    }

    /// Raw byte view, for serialization into keystores.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(..)")
    }
}

/// A public verification key. Opaque 32 bytes; semantics are scheme-specific.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(pub [u8; 32]);

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PublicKey({:02x}{:02x}{:02x}{:02x}..)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// A key together with what its scheme precomputes from it, so that each
/// sign or verify hashes only its message.
///
/// Only a scheme builds one ([`SignatureScheme::expand_public`],
/// [`SignatureScheme::expand_secret`]); a
/// [`crate::registry::PublicKeyTable`] expands each replica's key once.
#[derive(Clone)]
pub struct Expanded<K> {
    key: K,
    /// [`crate::hashsig::HashSig`]'s keyed MAC, both pads absorbed; `None`
    /// for a scheme that precomputes nothing.
    mac: Option<HmacSha256>,
}

impl<K> Expanded<K> {
    pub(crate) fn new(key: K, mac: Option<HmacSha256>) -> Self {
        Expanded { key, mac }
    }

    /// The key itself.
    pub fn key(&self) -> &K {
        &self.key
    }

    pub(crate) fn mac(&self) -> Option<&HmacSha256> {
        self.mac.as_ref()
    }
}

impl<K: fmt::Debug> fmt::Debug for Expanded<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The MAC state is key material: print only the key's own form.
        f.debug_tuple("Expanded").field(&self.key).finish()
    }
}

/// A single signature. Fixed 64-byte encoding across schemes so that wire
/// message sizes are scheme-independent (BLS signatures are 48–96 bytes;
/// 64 is a faithful middle ground).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; 64]);

impl Signature {
    /// The all-zero signature, useful as a placeholder in tests.
    pub fn zero() -> Self {
        Signature([0u8; 64])
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature({:02x}{:02x}{:02x}{:02x}..)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl Default for Signature {
    fn default() -> Self {
        Self::zero()
    }
}

/// Compact bitmap recording which replicas contributed to an aggregate.
///
/// Real BLS certificates carry exactly this (the multi-signature plus the
/// signer set); quorum checks count bits here.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct SignerBitmap {
    words: Vec<u64>,
    len: usize,
}

impl SignerBitmap {
    /// An empty bitmap sized for `n` potential signers.
    pub fn new(n: usize) -> Self {
        SignerBitmap {
            words: vec![0u64; n.div_ceil(64)],
            len: n,
        }
    }

    /// Number of potential signers this bitmap covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers zero signers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks signer `i` as present.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: SignerIndex) {
        let i = i as usize;
        assert!(
            i < self.len,
            "signer index {i} out of range (n = {})",
            self.len
        );
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// True if signer `i` is present.
    pub fn contains(&self, i: SignerIndex) -> bool {
        let i = i as usize;
        i < self.len && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of signers present.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over present signer indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = SignerIndex> + '_ {
        (0..self.len as u16).filter(move |&i| self.contains(i))
    }

    /// Raw words, for serialization.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reconstructs a bitmap from serialized words.
    ///
    /// Bits beyond `len` are cleared so that equality and counting stay
    /// well-defined regardless of wire padding.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        let mut bm = SignerBitmap { words, len };
        bm.words.resize(len.div_ceil(64), 0);
        bm.clear_padding();
        bm
    }

    /// Adds every signer of `other` that is in range for this bitmap.
    pub fn union_with(&mut self, other: &SignerBitmap) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        self.clear_padding();
    }

    /// True if `other` names a signer that is in range for this bitmap
    /// but absent from it.
    pub fn lacks_any_of(&self, other: &SignerBitmap) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .any(|(i, (w, o))| o & !w & self.in_range(i) != 0)
    }

    /// The bits of word `i` that stand for signers below `len`.
    fn in_range(&self, i: usize) -> u64 {
        let tail_bits = self.len % 64;
        if i + 1 == self.words.len() && tail_bits != 0 {
            (1u64 << tail_bits) - 1
        } else {
            u64::MAX
        }
    }

    /// Clears the bits of the last word that lie at or beyond `len`.
    fn clear_padding(&mut self) {
        if let Some(i) = self.words.len().checked_sub(1) {
            self.words[i] &= self.in_range(i);
        }
    }
}

impl fmt::Debug for SignerBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SignerBitmap[")?;
        let mut first = true;
        for i in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "]")
    }
}

/// An aggregated multi-signature: the signer set plus scheme-specific data.
///
/// For [`crate::hashsig::HashSig`] the data is a constant 32 bytes (the XOR
/// of the member tags) like a BLS aggregate; for
/// [`crate::schnorr::ToySchnorr`] it is the concatenation of member
/// signatures (naive aggregation — the paper's Def. 7.7 explicitly allows
/// this for unlock proofs).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AggregateSignature {
    /// Which replicas signed.
    pub signers: SignerBitmap,
    /// Scheme-specific aggregate payload.
    pub data: Vec<u8>,
}

impl AggregateSignature {
    /// Number of contributing signers.
    pub fn count(&self) -> usize {
        self.signers.count()
    }
}

/// A multi-signature scheme: everything the consensus engines need from
/// cryptography.
///
/// Implementations must be deterministic: signing the same message with the
/// same key yields the same signature (both provided schemes derive nonces
/// deterministically), so simulation runs are bit-reproducible.
pub trait SignatureScheme: fmt::Debug + Send + Sync {
    /// Human-readable scheme name (appears in bench output).
    fn name(&self) -> &'static str;

    /// Stable id of the aggregate format this scheme emits (see the
    /// `SCHEME_ID_*` constants). All replicas of a cluster derive the same
    /// scheme from the registry, so this is the negotiated certificate
    /// format for the cluster. `0` means unspecified.
    fn scheme_id(&self) -> u8 {
        0
    }

    /// Derives a keypair from a 32-byte seed.
    fn keygen(&self, seed: &[u8; 32]) -> (SecretKey, PublicKey);

    /// Precomputes what checking `pk`'s signatures needs from `pk` alone.
    /// The default precomputes nothing.
    fn expand_public(&self, pk: PublicKey) -> Expanded<PublicKey> {
        Expanded::new(pk, None)
    }

    /// Precomputes what signing with `sk` needs from `sk` alone. The
    /// default precomputes nothing.
    fn expand_secret(&self, sk: SecretKey) -> Expanded<SecretKey> {
        Expanded::new(sk, None)
    }

    /// Signs `msg` with an expanded secret key.
    fn sign_expanded(&self, sk: &Expanded<SecretKey>, msg: &[u8]) -> Signature;

    /// Verifies a single signature against an expanded public key.
    fn verify_expanded(&self, pk: &Expanded<PublicKey>, msg: &[u8], sig: &Signature) -> bool;

    /// Signs `msg` with `sk`: the expansion, then [`Self::sign_expanded`].
    fn sign(&self, sk: &SecretKey, msg: &[u8]) -> Signature {
        self.sign_expanded(&self.expand_secret(sk.clone()), msg)
    }

    /// Verifies a single signature: the expansion, then
    /// [`Self::verify_expanded`].
    fn verify(&self, pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        self.verify_expanded(&self.expand_public(*pk), msg, sig)
    }

    /// Verifies a batch of triples, returning each item's verdict — the
    /// result must match calling [`Self::verify_expanded`] per item.
    ///
    /// The default is the individual loop; schemes with a cheaper combined
    /// check (e.g. [`crate::schnorr::ToySchnorr`]'s random-linear-combination
    /// equation) override this.
    fn verify_batch(&self, items: &[BatchItem<'_>]) -> Vec<bool> {
        items
            .iter()
            .map(|it| self.verify_expanded(it.pk, it.msg, it.sig))
            .collect()
    }

    /// Aggregates signatures from distinct signers over the **same** message.
    ///
    /// `n` is the total replica count (bitmap width). Duplicate signer
    /// indices are ignored (first occurrence wins).
    fn aggregate(&self, n: usize, sigs: &[(SignerIndex, Signature)]) -> AggregateSignature;

    /// Verifies an aggregate against the full expanded public-key table
    /// (indexed by signer index) and the common message.
    fn verify_aggregate(
        &self,
        pks: &[Expanded<PublicKey>],
        msg: &[u8],
        agg: &AggregateSignature,
    ) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_and_count() {
        let mut bm = SignerBitmap::new(19);
        assert_eq!(bm.count(), 0);
        bm.set(0);
        bm.set(7);
        bm.set(18);
        assert_eq!(bm.count(), 3);
        assert!(bm.contains(0));
        assert!(bm.contains(7));
        assert!(bm.contains(18));
        assert!(!bm.contains(1));
        assert_eq!(bm.iter().collect::<Vec<_>>(), vec![0, 7, 18]);
    }

    #[test]
    fn bitmap_out_of_range_contains_is_false() {
        let bm = SignerBitmap::new(4);
        assert!(!bm.contains(4));
        assert!(!bm.contains(100));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitmap_set_out_of_range_panics() {
        let mut bm = SignerBitmap::new(4);
        bm.set(4);
    }

    #[test]
    fn bitmap_roundtrip_through_words() {
        let mut bm = SignerBitmap::new(130);
        for i in [0u16, 63, 64, 65, 128, 129] {
            bm.set(i);
        }
        let back = SignerBitmap::from_words(bm.words().to_vec(), 130);
        assert_eq!(back, bm);
        assert_eq!(back.count(), 6);
    }

    #[test]
    fn bitmap_from_words_clears_padding_bits() {
        // Stray bits above `len` must not affect equality or counting.
        let dirty = vec![u64::MAX];
        let bm = SignerBitmap::from_words(dirty, 5);
        assert_eq!(bm.count(), 5);
        let mut clean = SignerBitmap::new(5);
        for i in 0..5 {
            clean.set(i);
        }
        assert_eq!(bm, clean);
    }

    #[test]
    fn union_and_lacks_ignore_signers_out_of_range() {
        let mut wide = SignerBitmap::new(130);
        for i in [2u16, 5, 64, 129] {
            wide.set(i);
        }
        let mut held = SignerBitmap::new(6);
        assert!(held.lacks_any_of(&wide));
        held.union_with(&wide);
        assert_eq!(held.iter().collect::<Vec<_>>(), vec![2, 5]);
        assert!(!held.lacks_any_of(&wide));
        held.set(0);
        let mut narrow = SignerBitmap::new(3);
        narrow.set(1);
        assert!(held.lacks_any_of(&narrow));
    }

    #[test]
    fn expanded_debug_hides_mac_state() {
        let scheme = crate::hashsig::HashSig;
        let sk = scheme.expand_secret(SecretKey::from_bytes([42u8; 32]));
        assert_eq!(format!("{sk:?}"), "Expanded(SecretKey(..))");
    }

    #[test]
    fn secret_key_debug_hides_material() {
        let sk = SecretKey::from_bytes([42u8; 32]);
        assert_eq!(format!("{sk:?}"), "SecretKey(..)");
    }
}
