//! Block payloads.
//!
//! The paper's workload is "a bit vector randomly generated by the leader"
//! whose size is the experiment's control variable (§9.2) — content never
//! matters, size always does. Payloads therefore come in two flavors:
//!
//! * [`Payload::Inline`] — real bytes, shipped verbatim (used by the TCP
//!   transport and anywhere content matters);
//! * [`Payload::Synthetic`] — a `(len, seed)` descriptor. The simulator
//!   charges the full `len` against link bandwidth while the in-memory
//!   representation stays 16 bytes, which is what makes multi-megabyte
//!   sweeps over hundreds of simulated seconds cheap. `materialize` expands
//!   it to deterministic pseudo-random bytes when real content is needed.
//!
//! Both flavors commit to their content with a 32-byte digest included in
//! the block hash, so switching flavors never changes protocol behavior.
//!
//! Inline bytes live in one immutable, reference-counted [`InlineBytes`]
//! buffer that remembers its own commitment: cloning a payload (per
//! receiver, per relay, into the store, into a `CommitEntry`) bumps a
//! refcount, and the Merkle walk over the bytes runs once per allocation
//! rather than once per holder. See `docs/ARCHITECTURE.md`, "Payload
//! ownership and the hash memo".

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use banyan_crypto::merkle::payload_root;
use banyan_crypto::sha256::sha256_concat;

use crate::codec::{CodecError, Reader, Wire, Writer};

/// The chunk size of every payload commitment: what
/// [`ProtocolConfig::new`](crate::config::ProtocolConfig::new) sets and
/// what a mempool hashes the blocks it leases with.
pub const PAYLOAD_CHUNK: usize = 64 * 1024;

/// The bytes of an inline payload: immutable, shared by every clone, and
/// carrying a write-once memo of their own Merkle commitment.
///
/// Equality and `Debug` are by content — two buffers with the same bytes
/// are equal whether or not they share an allocation or a memo.
#[derive(Clone)]
pub struct InlineBytes(Arc<Shared>);

struct Shared {
    bytes: Vec<u8>,
    /// `(chunk_size, payload_root(bytes, chunk_size))` of the first
    /// commitment computed on this allocation. A cluster uses one chunk
    /// size ([`PAYLOAD_CHUNK`]), so one slot is enough; a
    /// call with another size recomputes and leaves the slot alone.
    root: OnceLock<(usize, [u8; 32])>,
}

impl InlineBytes {
    /// Merkle root over `chunk_size` pieces, computed at most once per
    /// allocation for the first chunk size asked for.
    fn root(&self, chunk_size: usize) -> [u8; 32] {
        if let Some(root) = self.memoized_root(chunk_size) {
            return root;
        }
        let root = payload_root(&self.0.bytes, chunk_size);
        // First writer wins: a slot already taken (another chunk size, or
        // a concurrent first call with this one) is left as it is.
        let _ = self.0.root.set((chunk_size, root));
        root
    }

    /// The memoized root if one was computed at `chunk_size`.
    fn memoized_root(&self, chunk_size: usize) -> Option<[u8; 32]> {
        let &(chunk, root) = self.0.root.get()?;
        (chunk == chunk_size).then_some(root)
    }

    /// True if both handles point at the same allocation (and therefore
    /// share one commitment memo).
    pub fn ptr_eq(&self, other: &InlineBytes) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl From<Vec<u8>> for InlineBytes {
    /// Takes ownership of `bytes` as a fresh buffer with an empty memo.
    fn from(bytes: Vec<u8>) -> Self {
        InlineBytes(Arc::new(Shared {
            bytes,
            root: OnceLock::new(),
        }))
    }
}

impl Deref for InlineBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0.bytes
    }
}

impl PartialEq for InlineBytes {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.0.bytes == other.0.bytes
    }
}

impl Eq for InlineBytes {}

impl fmt::Debug for InlineBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.bytes.fmt(f)
    }
}

/// A block payload. See the module docs for the two flavors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Real bytes carried on the wire. Build with [`Payload::inline`],
    /// read with [`Payload::as_inline`].
    Inline(InlineBytes),
    /// A size-only stand-in: `len` bytes derived from `seed`.
    Synthetic {
        /// Logical payload size in bytes (charged against bandwidth).
        len: u64,
        /// Seed from which `materialize` derives the content.
        seed: u64,
    },
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl Payload {
    /// An empty inline payload.
    pub fn empty() -> Self {
        Payload::inline(Vec::new())
    }

    /// An inline payload owning `bytes`: a fresh shared buffer whose
    /// commitment has not been computed yet.
    pub fn inline(bytes: Vec<u8>) -> Self {
        Payload::Inline(bytes.into())
    }

    /// A synthetic payload of `len` bytes.
    pub fn synthetic(len: u64, seed: u64) -> Self {
        Payload::Synthetic { len, seed }
    }

    /// The bytes of an inline payload; `None` for a synthetic one.
    pub fn as_inline(&self) -> Option<&[u8]> {
        match self {
            Payload::Inline(bytes) => Some(bytes),
            Payload::Synthetic { .. } => None,
        }
    }

    /// True if both are inline payloads backed by the same allocation —
    /// clones of one another, sharing bytes and commitment memo. Content
    /// equality is `==`.
    pub fn ptr_eq(&self, other: &Payload) -> bool {
        match (self, other) {
            (Payload::Inline(a), Payload::Inline(b)) => a.ptr_eq(b),
            _ => false,
        }
    }

    /// The logical size in bytes (what the experiment's "block size" means).
    pub fn len(&self) -> u64 {
        match self {
            Payload::Inline(bytes) => bytes.len() as u64,
            Payload::Synthetic { len, .. } => *len,
        }
    }

    /// True if the logical size is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Commitment digest included in the block hash.
    ///
    /// Inline payloads commit with a Merkle root over `chunk_size` pieces;
    /// synthetic payloads commit to their `(len, seed)` descriptor. The two
    /// flavors are deliberately in disjoint domains.
    ///
    /// The inline root is memoized on the shared buffer, so after the
    /// first call every clone answers without touching the bytes.
    pub fn commitment(&self, chunk_size: usize) -> [u8; 32] {
        match self {
            Payload::Inline(bytes) => bytes.root(chunk_size),
            Payload::Synthetic { len, seed } => sha256_concat(&[
                b"banyan/payload/synthetic",
                &len.to_le_bytes(),
                &seed.to_le_bytes(),
            ]),
        }
    }

    /// The commitment an earlier [`commitment`](Self::commitment) call
    /// memoized on this inline payload's buffer at `chunk_size`, computing
    /// nothing: `None` if no clone of the buffer was hashed at that chunk
    /// size yet, and always for a synthetic payload, which memoizes
    /// nothing. Tells whether a copy of a payload was ever hashed.
    pub fn memoized_commitment(&self, chunk_size: usize) -> Option<[u8; 32]> {
        match self {
            Payload::Inline(bytes) => bytes.memoized_root(chunk_size),
            Payload::Synthetic { .. } => None,
        }
    }

    /// Bytes that travel on the wire beyond the encoded struct itself.
    ///
    /// For synthetic payloads this is the full logical length; the
    /// simulator adds it to the encoded message size so bandwidth costs
    /// match a real deployment shipping `len` bytes.
    pub fn virtual_wire_extra(&self) -> u64 {
        match self {
            Payload::Inline(_) => 0,
            Payload::Synthetic { len, .. } => *len,
        }
    }

    /// Expands the payload to owned bytes (deterministic for synthetic).
    pub fn materialize(&self) -> Vec<u8> {
        match self {
            Payload::Inline(bytes) => bytes.to_vec(),
            Payload::Synthetic { len, seed } => {
                let mut out = Vec::with_capacity(*len as usize);
                let mut counter = 0u64;
                while (out.len() as u64) < *len {
                    let block = sha256_concat(&[
                        b"banyan/payload/stream",
                        &seed.to_le_bytes(),
                        &counter.to_le_bytes(),
                    ]);
                    counter += 1;
                    let take = ((*len - out.len() as u64) as usize).min(32);
                    out.extend_from_slice(&block[..take]);
                }
                out
            }
        }
    }
}

impl Wire for Payload {
    fn encode(&self, out: &mut Writer) {
        match self {
            Payload::Inline(bytes) => {
                out.u8(0);
                out.var_bytes(bytes);
            }
            Payload::Synthetic { len, seed } => {
                out.u8(1);
                out.u64(*len);
                out.u64(*seed);
            }
        }
    }

    fn decode(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        match input.u8()? {
            // Always a fresh buffer: bytes from a socket or the WAL never
            // arrive with a commitment someone else computed.
            0 => Ok(Payload::inline(input.var_bytes()?)),
            1 => Ok(Payload::Synthetic {
                len: input.u64()?,
                seed: input.u64()?,
            }),
            _ => Err(CodecError::Invalid("payload discriminant")),
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            Payload::Inline(bytes) => 1 + 4 + bytes.len(),
            Payload::Synthetic { .. } => 1 + 8 + 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths() {
        assert_eq!(Payload::empty().len(), 0);
        assert!(Payload::empty().is_empty());
        assert_eq!(Payload::inline(vec![0; 10]).len(), 10);
        assert_eq!(Payload::synthetic(1_000_000, 1).len(), 1_000_000);
    }

    #[test]
    fn synthetic_materializes_deterministically() {
        let p = Payload::synthetic(100, 7);
        let a = p.materialize();
        let b = p.materialize();
        assert_eq!(a.len(), 100);
        assert_eq!(a, b);
        assert_ne!(a, Payload::synthetic(100, 8).materialize());
    }

    #[test]
    fn materialized_inline_commits_like_original() {
        // Materializing a synthetic payload and re-wrapping as inline gives
        // a *different* commitment domain — the flavors must not collide.
        let syn = Payload::synthetic(64, 3);
        let inline = Payload::inline(syn.materialize());
        assert_ne!(syn.commitment(32), inline.commitment(32));
    }

    #[test]
    fn commitment_depends_on_content() {
        let a = Payload::inline(b"aaaa".to_vec());
        let b = Payload::inline(b"aaab".to_vec());
        assert_ne!(a.commitment(2), b.commitment(2));
        assert_eq!(a.commitment(2), a.commitment(2));
    }

    #[test]
    fn memoized_commitment_reports_only_what_a_clone_computed() {
        let p = Payload::inline(vec![5; 100]);
        let holder = p.clone();
        let copy = Payload::inline(vec![5; 100]);
        assert_eq!(holder.memoized_commitment(16), None);
        let root = p.commitment(16);
        assert_eq!(holder.memoized_commitment(16), Some(root));
        assert_eq!(holder.memoized_commitment(32), None, "another chunk size");
        assert_eq!(copy.memoized_commitment(16), None, "equal bytes, own memo");
        assert_eq!(Payload::synthetic(100, 1).memoized_commitment(16), None);
    }

    #[test]
    fn wire_roundtrip() {
        for p in [
            Payload::empty(),
            Payload::inline(vec![9u8; 33]),
            Payload::synthetic(1 << 20, 42),
        ] {
            let bytes = p.to_bytes();
            assert_eq!(bytes.len(), p.encoded_len());
            assert_eq!(Payload::from_bytes(&bytes).unwrap(), p);
        }
    }

    #[test]
    fn virtual_wire_extra_only_for_synthetic() {
        assert_eq!(Payload::inline(vec![0; 100]).virtual_wire_extra(), 0);
        assert_eq!(Payload::synthetic(12345, 0).virtual_wire_extra(), 12345);
    }

    #[test]
    fn bad_discriminant_rejected() {
        assert_eq!(
            Payload::from_bytes(&[9]).unwrap_err(),
            CodecError::Invalid("payload discriminant")
        );
    }
}
