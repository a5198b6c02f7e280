//! Cryptographic substrate for the Banyan BFT reproduction.
//!
//! The Banyan paper (MIDDLEWARE 2024) assumes a PKI, secure digital
//! signatures, collision-resistant hash functions and a shared-randomness
//! beacon (§3), and uses BLS multi-signatures to aggregate votes (§4,
//! Def. 7.7). This crate provides all of that from scratch, using only the
//! approved offline dependency set:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256, validated against NIST vectors; runs
//!   on the x86-64 SHA extensions where the CPU has them.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104/4231).
//! * [`merkle`] — RFC-6962-style Merkle trees for payload commitments.
//! * [`sig`] — the [`sig::SignatureScheme`] trait: sign / verify /
//!   aggregate / verify-aggregate, exactly the surface BLS provides.
//! * [`hashsig`] — HMAC-based scheme with constant-size aggregates
//!   (BLS stand-in for simulation; see module docs for the threat model).
//! * [`schnorr`] — publicly verifiable Schnorr over a toy 62-bit group.
//! * [`registry`] — per-replica key registry (the PKI).
//! * [`verify`] — the verify plane: [`verify::VerifyBackend`] with batched
//!   vote verification and an LRU certificate-verdict cache.
//! * [`beacon`] — round-robin and seeded-permutation leader beacons.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use banyan_crypto::registry::KeyRegistry;
//! use banyan_crypto::hashsig::HashSig;
//!
//! // A 4-replica cluster PKI; this process is replica 2.
//! let reg = KeyRegistry::generate(Arc::new(HashSig), /*cluster_seed*/ 1, 4, 2);
//! let sig = reg.sign(b"notarization vote");
//! assert!(reg.table().verify(2, b"notarization vote", &sig));
//! ```

pub mod beacon;
pub mod hashsig;
pub mod hmac;
pub mod merkle;
pub mod registry;
pub mod schnorr;
pub mod sha256;
pub mod sig;
pub mod verify;

pub use beacon::{Beacon, BeaconMode};
pub use hashsig::HashSig;
pub use merkle::{MerkleProof, MerkleTree};
pub use registry::{KeyRegistry, PublicKeyTable};
pub use schnorr::ToySchnorr;
pub use sig::{
    AggregateSignature, BatchItem, Expanded, PublicKey, SecretKey, Signature, SignatureScheme,
    SignerBitmap, SignerIndex,
};
pub use verify::{CachedVerify, DirectVerify, VerifyBackend, VerifyStats};
