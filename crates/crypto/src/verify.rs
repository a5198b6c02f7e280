//! The verify plane: every signature check a consensus engine performs is
//! routed through a [`VerifyBackend`], so the *policy* (batch vote bursts?
//! cache certificate verdicts?) is decided once, outside the protocol
//! logic.
//!
//! Two implementations:
//!
//! * [`DirectVerify`] — verifies against the [`PublicKeyTable`] inline,
//!   optionally batching vote bursts through the scheme's combined check
//!   ([`crate::sig::SignatureScheme::verify_batch`]).
//! * [`CachedVerify`] — [`DirectVerify`] plus a bounded LRU cache of
//!   certificate verdicts keyed by cert hash: a quorum certificate
//!   rebroadcast by `f + 1` peers (heartbeats, piggybacked parents,
//!   catch-up replies) is verified cryptographically once.
//!
//! All counters are atomics, so a backend is `Send + Sync` behind an `Arc`;
//! the counts themselves depend only on the call sequence, which keeps
//! simulation runs bit-reproducible.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::registry::PublicKeyTable;
use crate::sha256::Sha256;
use crate::sig::{AggregateSignature, Signature, SignerIndex};

/// Snapshot of a backend's verification counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Individual signatures cryptographically checked (batched or not).
    pub sigs_verified: u64,
    /// The subset of [`sigs_verified`](Self::sigs_verified) checked through
    /// a combined (batched) equation rather than one at a time. Cost models
    /// discount these: a batched signature costs a fraction of an
    /// individual one.
    pub sigs_batched: u64,
    /// Vote bursts checked with one combined (batched) equation.
    pub verify_batches: u64,
    /// Certificate verifications answered from the LRU cache.
    pub cert_cache_hits: u64,
    /// Wall-clock nanoseconds spent inside verification calls. Meaningful
    /// for real (TCP) runs; the simulator ignores it and charges calibrated
    /// virtual costs instead, so sim metrics stay bit-reproducible.
    pub verify_cpu_ns: u64,
}

impl VerifyStats {
    /// Wall-clock milliseconds spent verifying.
    pub fn verify_cpu_ms(&self) -> u64 {
        self.verify_cpu_ns / 1_000_000
    }

    /// Counter increments since an earlier snapshot.
    pub fn delta_since(&self, earlier: &VerifyStats) -> VerifyStats {
        VerifyStats {
            sigs_verified: self.sigs_verified - earlier.sigs_verified,
            sigs_batched: self.sigs_batched - earlier.sigs_batched,
            verify_batches: self.verify_batches - earlier.verify_batches,
            cert_cache_hits: self.cert_cache_hits - earlier.cert_cache_hits,
            verify_cpu_ns: self.verify_cpu_ns - earlier.verify_cpu_ns,
        }
    }

    /// Accumulates another snapshot into this one.
    pub fn merge(&mut self, other: &VerifyStats) {
        self.sigs_verified += other.sigs_verified;
        self.sigs_batched += other.sigs_batched;
        self.verify_batches += other.verify_batches;
        self.cert_cache_hits += other.cert_cache_hits;
        self.verify_cpu_ns += other.verify_cpu_ns;
    }
}

/// Where the engines send every signature check.
///
/// Implementations must be deterministic in their *verdicts and counters*
/// for a given call sequence (wall-clock `verify_cpu_ns` excepted).
pub trait VerifyBackend: Send + Sync + std::fmt::Debug {
    /// Verifies one replica's signature over `msg`.
    fn verify(&self, index: SignerIndex, msg: &[u8], sig: &Signature) -> bool;

    /// Verifies a burst of votes, batched through the scheme's combined
    /// check when enabled; returns per-item verdicts matching what
    /// [`Self::verify`] would say.
    fn verify_votes(&self, votes: &[(SignerIndex, &[u8], &Signature)]) -> Vec<bool>;

    /// Verifies an aggregate certificate over `msg`.
    fn verify_aggregate(&self, msg: &[u8], agg: &AggregateSignature) -> bool;

    /// Current counter snapshot.
    fn stats(&self) -> VerifyStats;

    /// The public-key table this backend verifies against.
    fn table(&self) -> &PublicKeyTable;
}

#[derive(Debug, Default)]
struct Counters {
    sigs: AtomicU64,
    batched_sigs: AtomicU64,
    batches: AtomicU64,
    cache_hits: AtomicU64,
    cpu_ns: AtomicU64,
}

impl Counters {
    fn snapshot(&self, extra_hits: u64) -> VerifyStats {
        VerifyStats {
            sigs_verified: self.sigs.load(Ordering::Relaxed),
            sigs_batched: self.batched_sigs.load(Ordering::Relaxed),
            verify_batches: self.batches.load(Ordering::Relaxed),
            cert_cache_hits: self.cache_hits.load(Ordering::Relaxed) + extra_hits,
            verify_cpu_ns: self.cpu_ns.load(Ordering::Relaxed),
        }
    }
}

/// Inline verification against the key table, with optional vote batching.
#[derive(Debug)]
pub struct DirectVerify {
    table: PublicKeyTable,
    batching: bool,
    counters: Counters,
}

impl DirectVerify {
    /// Backend over `table` with batching disabled (each vote verified
    /// individually) — the behavior engines had before the verify plane.
    pub fn new(table: PublicKeyTable) -> Self {
        DirectVerify {
            table,
            batching: false,
            counters: Counters::default(),
        }
    }

    /// Enables or disables batched vote verification.
    pub fn with_batching(mut self, batching: bool) -> Self {
        self.batching = batching;
        self
    }
}

impl VerifyBackend for DirectVerify {
    fn verify(&self, index: SignerIndex, msg: &[u8], sig: &Signature) -> bool {
        let start = Instant::now();
        let ok = self.table.verify(index, msg, sig);
        self.counters.sigs.fetch_add(1, Ordering::Relaxed);
        self.counters
            .cpu_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        ok
    }

    fn verify_votes(&self, votes: &[(SignerIndex, &[u8], &Signature)]) -> Vec<bool> {
        let batched = self.batching && votes.len() >= 2;
        // One clock pair for the whole burst: a pair per vote would cost
        // about a third of a keyed vote check.
        let start = Instant::now();
        let verdicts = if batched {
            self.table.verify_batch(votes)
        } else {
            votes
                .iter()
                .map(|&(idx, msg, sig)| self.table.verify(idx, msg, sig))
                .collect()
        };
        self.counters
            .sigs
            .fetch_add(votes.len() as u64, Ordering::Relaxed);
        if batched {
            self.counters
                .batched_sigs
                .fetch_add(votes.len() as u64, Ordering::Relaxed);
            self.counters.batches.fetch_add(1, Ordering::Relaxed);
        }
        self.counters
            .cpu_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        verdicts
    }

    fn verify_aggregate(&self, msg: &[u8], agg: &AggregateSignature) -> bool {
        let start = Instant::now();
        let ok = self.table.verify_aggregate(msg, agg);
        // Count the members actually checked: an aggregate is a
        // multi-signature over `count` signers.
        self.counters
            .sigs
            .fetch_add(agg.count() as u64, Ordering::Relaxed);
        if self.batching && agg.count() >= 2 {
            // A multi-signature check is one combined equation over its
            // members, so the members count as batched work.
            self.counters
                .batched_sigs
                .fetch_add(agg.count() as u64, Ordering::Relaxed);
            self.counters.batches.fetch_add(1, Ordering::Relaxed);
        }
        self.counters
            .cpu_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        ok
    }

    fn stats(&self) -> VerifyStats {
        self.counters.snapshot(0)
    }

    fn table(&self) -> &PublicKeyTable {
        &self.table
    }
}

/// Bounded LRU set of certificate-hash keys, with lazy deletion.
#[derive(Debug)]
struct CertCache {
    cap: usize,
    tick: u64,
    live: HashMap<[u8; 32], u64>,
    queue: VecDeque<([u8; 32], u64)>,
}

impl CertCache {
    fn new(cap: usize) -> Self {
        CertCache {
            cap: cap.max(1),
            tick: 0,
            live: HashMap::new(),
            queue: VecDeque::new(),
        }
    }

    /// True (and recency refreshed) if `key` is cached.
    fn hit(&mut self, key: &[u8; 32]) -> bool {
        if let Some(t) = self.live.get_mut(key) {
            self.tick += 1;
            *t = self.tick;
            self.queue.push_back((*key, self.tick));
            true
        } else {
            false
        }
    }

    fn insert(&mut self, key: [u8; 32]) {
        self.tick += 1;
        self.live.insert(key, self.tick);
        self.queue.push_back((key, self.tick));
        // Evict least-recently-used entries past capacity; queue entries
        // whose tick is stale are leftovers from refreshes, not live.
        while self.live.len() > self.cap {
            match self.queue.pop_front() {
                Some((k, t)) => {
                    if self.live.get(&k) == Some(&t) {
                        self.live.remove(&k);
                    }
                }
                None => break,
            }
        }
        // Keep the lazy-deletion queue proportional to the live set.
        while self.queue.len() > self.live.len() * 2 + 8 {
            match self.queue.front() {
                Some(&(k, t)) if self.live.get(&k) != Some(&t) => {
                    self.queue.pop_front();
                }
                _ => break,
            }
        }
    }
}

/// [`DirectVerify`] plus a bounded LRU certificate-verdict cache.
///
/// Only *successful* verifications are cached — a forged certificate is
/// re-checked (and re-rejected) every time, so the cache can never launder
/// a bad cert into a good one.
#[derive(Debug)]
pub struct CachedVerify {
    inner: DirectVerify,
    cache: Mutex<CertCache>,
}

impl CachedVerify {
    /// Caching backend over `table` holding up to `cap` cert verdicts.
    pub fn new(table: PublicKeyTable, cap: usize) -> Self {
        CachedVerify {
            inner: DirectVerify::new(table).with_batching(true),
            cache: Mutex::new(CertCache::new(cap)),
        }
    }

    /// Cache key: hash of everything that defines the verification —
    /// message, signer bitmap, and aggregate payload (length-prefixed).
    fn cert_key(msg: &[u8], agg: &AggregateSignature) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&(msg.len() as u64).to_le_bytes());
        h.update(msg);
        h.update(&(agg.signers.len() as u64).to_le_bytes());
        for w in agg.signers.words() {
            h.update(&w.to_le_bytes());
        }
        h.update(&agg.data);
        h.finalize()
    }
}

impl VerifyBackend for CachedVerify {
    fn verify(&self, index: SignerIndex, msg: &[u8], sig: &Signature) -> bool {
        self.inner.verify(index, msg, sig)
    }

    fn verify_votes(&self, votes: &[(SignerIndex, &[u8], &Signature)]) -> Vec<bool> {
        self.inner.verify_votes(votes)
    }

    fn verify_aggregate(&self, msg: &[u8], agg: &AggregateSignature) -> bool {
        let key = Self::cert_key(msg, agg);
        if self.cache.lock().expect("cert cache poisoned").hit(&key) {
            self.inner
                .counters
                .cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let ok = self.inner.verify_aggregate(msg, agg);
        if ok {
            self.cache.lock().expect("cert cache poisoned").insert(key);
        }
        ok
    }

    fn stats(&self) -> VerifyStats {
        self.inner.stats()
    }

    fn table(&self) -> &PublicKeyTable {
        self.inner.table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::KeyRegistry;
    use crate::schnorr::ToySchnorr;
    use crate::sig::SignatureScheme;
    use std::sync::Arc;

    fn regs(n: usize) -> Vec<KeyRegistry> {
        let scheme: Arc<dyn SignatureScheme> = Arc::new(ToySchnorr::compact());
        (0..n)
            .map(|i| KeyRegistry::generate(scheme.clone(), 5, n, i as SignerIndex))
            .collect()
    }

    #[test]
    fn direct_counts_singles_and_batches() {
        let regs = regs(4);
        let backend = DirectVerify::new(regs[0].table().clone()).with_batching(true);
        let sig = regs[1].sign(b"v");
        assert!(backend.verify(1, b"v", &sig));
        let sigs: Vec<_> = regs.iter().map(|r| r.sign(b"v")).collect();
        let votes: Vec<(SignerIndex, &[u8], &Signature)> = sigs
            .iter()
            .enumerate()
            .map(|(i, s)| (i as SignerIndex, b"v".as_slice(), s))
            .collect();
        assert_eq!(backend.verify_votes(&votes), vec![true; 4]);
        let st = backend.stats();
        assert_eq!(st.sigs_verified, 5);
        assert_eq!(st.verify_batches, 1);
        assert_eq!(st.cert_cache_hits, 0);
    }

    #[test]
    fn unbatched_burst_counts_every_vote_and_no_batch() {
        let regs = regs(4);
        let backend = DirectVerify::new(regs[0].table().clone());
        let mut sigs: Vec<_> = regs.iter().map(|r| r.sign(b"v")).collect();
        sigs[1].0[4] ^= 1;
        let mut votes: Vec<(SignerIndex, &[u8], &Signature)> = sigs
            .iter()
            .enumerate()
            .map(|(i, s)| (i as SignerIndex, b"v".as_slice(), s))
            .collect();
        votes.push((9, b"v".as_slice(), &sigs[0]));
        assert_eq!(
            backend.verify_votes(&votes),
            vec![true, false, true, true, false]
        );
        let st = backend.stats();
        assert_eq!(st.sigs_verified, 5);
        assert_eq!((st.sigs_batched, st.verify_batches), (0, 0));
    }

    #[test]
    fn batched_votes_match_individual_verdicts() {
        let regs = regs(5);
        let backend = DirectVerify::new(regs[0].table().clone()).with_batching(true);
        let mut sigs: Vec<_> = regs.iter().map(|r| r.sign(b"v")).collect();
        sigs[2].0[4] ^= 1; // corrupt one vote
        let votes: Vec<(SignerIndex, &[u8], &Signature)> = sigs
            .iter()
            .enumerate()
            .map(|(i, s)| (i as SignerIndex, b"v".as_slice(), s))
            .collect();
        assert_eq!(
            backend.verify_votes(&votes),
            vec![true, true, false, true, true]
        );
    }

    #[test]
    fn cert_cache_hits_after_first_verification() {
        let regs = regs(4);
        let backend = CachedVerify::new(regs[0].table().clone(), 16);
        let votes: Vec<_> = regs
            .iter()
            .enumerate()
            .map(|(i, r)| (i as SignerIndex, r.sign(b"cert")))
            .collect();
        let agg = regs[0].table().aggregate(&votes);
        assert!(backend.verify_aggregate(b"cert", &agg));
        assert!(backend.verify_aggregate(b"cert", &agg));
        assert!(backend.verify_aggregate(b"cert", &agg));
        let st = backend.stats();
        assert_eq!(st.cert_cache_hits, 2);
        assert_eq!(st.sigs_verified, agg.count() as u64);
    }

    #[test]
    fn failed_certs_are_never_cached() {
        let regs = regs(4);
        let backend = CachedVerify::new(regs[0].table().clone(), 16);
        let votes: Vec<_> = regs
            .iter()
            .enumerate()
            .map(|(i, r)| (i as SignerIndex, r.sign(b"cert")))
            .collect();
        let agg = regs[0].table().aggregate(&votes);
        assert!(!backend.verify_aggregate(b"other", &agg));
        assert!(!backend.verify_aggregate(b"other", &agg));
        assert_eq!(backend.stats().cert_cache_hits, 0);
    }

    #[test]
    fn lru_evicts_oldest_certificate() {
        let regs = regs(4);
        let backend = CachedVerify::new(regs[0].table().clone(), 2);
        let agg_for = |msg: &[u8]| {
            let votes: Vec<_> = regs
                .iter()
                .enumerate()
                .map(|(i, r)| (i as SignerIndex, r.sign(msg)))
                .collect();
            regs[0].table().aggregate(&votes)
        };
        let (a, b, c) = (agg_for(b"a"), agg_for(b"b"), agg_for(b"c"));
        assert!(backend.verify_aggregate(b"a", &a));
        assert!(backend.verify_aggregate(b"b", &b));
        assert!(backend.verify_aggregate(b"a", &a)); // refresh a
        assert!(backend.verify_aggregate(b"c", &c)); // evicts b (LRU)
        assert!(backend.verify_aggregate(b"a", &a)); // still cached
        assert!(backend.verify_aggregate(b"b", &b)); // re-verified
        let st = backend.stats();
        assert_eq!(st.cert_cache_hits, 2);
    }
}
