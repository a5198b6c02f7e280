//! Protocol configuration and quorum arithmetic.
//!
//! This module encodes the paper's resilience bounds and vote thresholds:
//!
//! * replica count: `n ≥ max(3f + 2p − 1, 3f + 1)` (§3);
//! * notarization / SP-finalization quorum: `⌈(n + f + 1) / 2⌉` votes
//!   (Algorithm 2, lines 45 and 56);
//! * FP-finalization quorum: `n − p` **fast votes** for a rank-0 block
//!   (Algorithm 2, line 56 / Addition 4);
//! * unlock threshold: support strictly greater than `f + p`
//!   (Definition 7.6).
//!
//! All quorum logic in every engine goes through [`ProtocolConfig`], so the
//! bounds are tested once, here, against the paper's own examples
//! (`n = 19` with `f = 6, p = 1` and with `f = 4, p = 4`; `n = 4` with
//! `f = 1, p = 1`).

use crate::payload::PAYLOAD_CHUNK;
use crate::time::Duration;

/// Errors from [`ProtocolConfig::new`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `n` violates `n ≥ max(3f + 2p − 1, 3f + 1)`.
    InsufficientReplicas {
        /// Configured replica count.
        n: usize,
        /// Minimum replica count for the requested `f` and `p`.
        required: usize,
    },
    /// `p` violates `p ≤ f`.
    FastParamTooLarge {
        /// Configured fast-path parameter.
        p: usize,
        /// Configured fault tolerance.
        f: usize,
    },
    /// `n` must be at least 1.
    EmptyCluster,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InsufficientReplicas { n, required } => {
                write!(
                    f,
                    "n = {n} replicas, but max(3f+2p-1, 3f+1) = {required} required"
                )
            }
            ConfigError::FastParamTooLarge { p, f: ff } => {
                write!(f, "fast-path parameter p = {p} exceeds f = {ff}")
            }
            ConfigError::EmptyCluster => write!(f, "cluster must have at least one replica"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Static protocol parameters shared by all replicas of a deployment.
///
/// What is *not* a parameter: every received signature is verified; the
/// rank-`r` proposal and notarization delays are `2Δ·r`; a replica stuck
/// in a round retransmits every [`ProtocolConfig::HEARTBEAT`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Total number of replicas.
    n: usize,
    /// Maximum number of Byzantine replicas tolerated.
    f: usize,
    /// Fast-path parameter: the number of replicas *not* needed for the
    /// fast path (`p ∈ [0, f]`; the paper argues `p ≥ 1` is always
    /// preferable, §3). `p = 0` is accepted for ICC-only runs where the
    /// fast path is unused.
    p: usize,
    /// The `Δ` bound used in the proposal/notarization delay schedule,
    /// fixed at the paper's `Δ_prop(r) = Δ_notary(r) = 2Δ·r` (§4). The
    /// paper sets this larger than the undisrupted message delay (§9.2).
    pub delta: Duration,
    /// Relay blocks that extend the chain tip on first receipt (§9.1: "by
    /// forwarding blocks that extend the tip of the chain, we drastically
    /// improve the performance of all algorithms").
    pub forward_blocks: bool,
    /// Remark 7.8 optimization: omit the notarization vote when a fast
    /// vote is sent; notarizations then carry two multi-signatures and
    /// count the distinct union. Saves one signature per replica per
    /// round on the happy path. Banyan mode only.
    pub piggyback_fast_votes: bool,
    /// Chunk size for payload Merkle commitments: [`PAYLOAD_CHUNK`], the
    /// size every mempool hashes the blocks it leases with.
    pub payload_chunk: usize,
}

impl ProtocolConfig {
    /// Retransmission interval: while stuck in a round, a replica
    /// re-broadcasts its proposal, votes and the previous round's
    /// certificates every `HEARTBEAT`. The paper's model assumes reliable
    /// links; production ICC keeps re-gossiping its artifact pool — this
    /// is the equivalent, and it is what lets the protocol recover from
    /// actual message loss (hard partitions).
    pub const HEARTBEAT: Duration = Duration::from_millis(500);

    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `p > f` or `n < max(3f + 2p − 1, 3f + 1)`.
    pub fn new(n: usize, f: usize, p: usize) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::EmptyCluster);
        }
        if p > f {
            return Err(ConfigError::FastParamTooLarge { p, f });
        }
        let required = Self::min_replicas(f, p);
        if n < required {
            return Err(ConfigError::InsufficientReplicas { n, required });
        }
        Ok(ProtocolConfig {
            n,
            f,
            p,
            delta: Duration::from_millis(100),
            forward_blocks: true,
            piggyback_fast_votes: false,
            payload_chunk: PAYLOAD_CHUNK,
        })
    }

    /// The smallest legal cluster for given `f` and `p`:
    /// `max(3f + 2p − 1, 3f + 1)` (§3, matching the Kuznetsov/Abraham
    /// lower bound the paper cites).
    pub fn min_replicas(f: usize, p: usize) -> usize {
        (3 * f + 2 * p).saturating_sub(1).max(3 * f + 1)
    }

    /// The largest `f` tolerable for a given `n` and `p` (useful when
    /// sizing experiments like the paper's `n = 19` scenarios).
    pub fn max_faults(n: usize, p: usize) -> usize {
        (0..=n)
            .rev()
            .find(|&f| p <= f && Self::min_replicas(f, p) <= n)
            .unwrap_or(0)
    }

    /// Builder-style: sets `Δ`.
    pub fn with_delta(mut self, delta: Duration) -> Self {
        self.delta = delta;
        self
    }

    /// Builder-style: enables/disables tip forwarding.
    pub fn with_forwarding(mut self, on: bool) -> Self {
        self.forward_blocks = on;
        self
    }

    /// Builder-style: enables the Remark 7.8 fast-vote piggyback.
    pub fn with_piggyback(mut self, on: bool) -> Self {
        self.piggyback_fast_votes = on;
        self
    }

    /// Total replica count `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Byzantine fault bound `f`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Fast-path parameter `p`.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Votes needed to notarize a block: `⌈(n + f + 1) / 2⌉`
    /// (Algorithm 2, line 45).
    pub fn notarization_quorum(&self) -> usize {
        (self.n + self.f + 1).div_ceil(2)
    }

    /// Finalization votes needed to SP-finalize: `⌈(n + f + 1) / 2⌉`
    /// (Algorithm 2, line 56).
    pub fn finalization_quorum(&self) -> usize {
        self.notarization_quorum()
    }

    /// Fast votes needed to FP-finalize a rank-0 block: `n − p`
    /// (Definition 6.2 / Addition 4).
    pub fn fast_quorum(&self) -> usize {
        self.n - self.p
    }

    /// Support threshold in the unlock conditions: a block (or block set)
    /// unlocks when its support is **strictly greater** than `f + p`
    /// (Definition 7.6).
    pub fn unlock_threshold(&self) -> usize {
        self.f + self.p
    }

    /// Proposal delay for a replica of `rank` in the current round:
    /// `Δ_prop(r) = 2Δ·r` (§4).
    pub fn proposal_delay(&self, rank: u16) -> Duration {
        self.delta.saturating_mul(2 * rank as u64)
    }

    /// Notarization delay before voting for a block of `rank`:
    /// `Δ_notary(r) = 2Δ·r` (§4).
    pub fn notarization_delay(&self, rank: u16) -> Duration {
        self.proposal_delay(rank)
    }

    /// Number of honest replicas assuming exactly `f` Byzantine ones.
    pub fn honest(&self) -> usize {
        self.n - self.f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenarios_validate() {
        // §9.2: n = 19 is optimal for both (f = 6, p = 1) and (f = 4, p = 4).
        assert_eq!(ProtocolConfig::min_replicas(6, 1), 19);
        assert_eq!(ProtocolConfig::min_replicas(4, 4), 19);
        assert!(ProtocolConfig::new(19, 6, 1).is_ok());
        assert!(ProtocolConfig::new(19, 4, 4).is_ok());
        // §9.3 small cluster: n = 4, f = 1, p = 1 → min = max(4, 4) = 4.
        assert_eq!(ProtocolConfig::min_replicas(1, 1), 4);
        assert!(ProtocolConfig::new(4, 1, 1).is_ok());
    }

    #[test]
    fn quorums_match_paper_examples() {
        // n = 19, f = 6: notarization quorum ⌈26/2⌉ = 13 = n − f.
        let c = ProtocolConfig::new(19, 6, 1).unwrap();
        assert_eq!(c.notarization_quorum(), 13);
        assert_eq!(c.finalization_quorum(), 13);
        assert_eq!(c.fast_quorum(), 18); // n − p = 18
        assert_eq!(c.unlock_threshold(), 7); // f + p = 7

        // n = 19, f = 4, p = 4: notarization ⌈24/2⌉ = 12 < n − f = 15.
        let c = ProtocolConfig::new(19, 4, 4).unwrap();
        assert_eq!(c.notarization_quorum(), 12);
        assert_eq!(c.fast_quorum(), 15);
        assert_eq!(c.unlock_threshold(), 8);

        // n = 4, f = 1, p = 1: fast path fires with 3 = n − p replies,
        // "the same conditions as regular notarization" (§9.3).
        let c = ProtocolConfig::new(4, 1, 1).unwrap();
        assert_eq!(c.notarization_quorum(), 3);
        assert_eq!(c.fast_quorum(), 3);
    }

    #[test]
    fn p_zero_reduces_to_classic_bound() {
        // With p = 0 the bound is the classic 3f + 1.
        assert_eq!(ProtocolConfig::min_replicas(1, 0), 4);
        assert_eq!(ProtocolConfig::min_replicas(6, 0), 19);
        assert!(ProtocolConfig::new(4, 1, 0).is_ok());
    }

    #[test]
    fn p_greater_than_f_rejected() {
        assert_eq!(
            ProtocolConfig::new(19, 1, 2).unwrap_err(),
            ConfigError::FastParamTooLarge { p: 2, f: 1 }
        );
    }

    #[test]
    fn insufficient_replicas_rejected() {
        assert_eq!(
            ProtocolConfig::new(18, 6, 1).unwrap_err(),
            ConfigError::InsufficientReplicas {
                n: 18,
                required: 19
            }
        );
        assert_eq!(
            ProtocolConfig::new(0, 0, 0).unwrap_err(),
            ConfigError::EmptyCluster
        );
    }

    #[test]
    fn max_faults_inverts_min_replicas() {
        assert_eq!(ProtocolConfig::max_faults(19, 1), 6);
        assert_eq!(ProtocolConfig::max_faults(19, 4), 4);
        assert_eq!(ProtocolConfig::max_faults(4, 1), 1);
        for n in 4..64 {
            for p in 0..4 {
                let f = ProtocolConfig::max_faults(n, p);
                if f >= p.max(1) {
                    assert!(ProtocolConfig::min_replicas(f, p) <= n);
                    assert!(ProtocolConfig::min_replicas(f + 1, p) > n);
                }
            }
        }
    }

    #[test]
    fn quorum_intersection_argument_holds() {
        // Lemma 8.4's counting argument: two quorums of ⌈(n+f+1)/2⌉ votes
        // must share an honest replica — i.e. 2·⌈(n−f+1)/2⌉ > n − f.
        for f in 1..8 {
            for p in 0..=f {
                let n = ProtocolConfig::min_replicas(f, p);
                let c = ProtocolConfig::new(n, f, p).unwrap();
                let honest_in_quorum = c.notarization_quorum() - f;
                assert!(
                    2 * honest_in_quorum > n - f,
                    "quorum intersection fails for n={n}, f={f}, p={p}"
                );
            }
        }
    }

    #[test]
    fn fast_quorum_intersects_unlock_threshold() {
        // Lemma 8.5: a block with n − p fast votes leaves at most
        // f + p fast votes (≤ threshold) for all other blocks combined,
        // given ≤ f Byzantine double-voters.
        for f in 1..8 {
            for p in 1..=f {
                let n = ProtocolConfig::min_replicas(f, p);
                let c = ProtocolConfig::new(n, f, p).unwrap();
                // Honest fast votes outside an FP-finalized block's support:
                // at most n − (n − p) = p; plus f Byzantine duplicates.
                assert!(
                    p + f <= c.unlock_threshold(),
                    "unlock threshold too low for n={n}, f={f}, p={p}"
                );
            }
        }
    }

    #[test]
    fn delay_schedule_matches_paper() {
        let c = ProtocolConfig::new(4, 1, 1)
            .unwrap()
            .with_delta(Duration::from_millis(100));
        assert_eq!(c.proposal_delay(0), Duration::ZERO);
        assert_eq!(c.proposal_delay(1), Duration::from_millis(200)); // 2Δ·1
        assert_eq!(c.notarization_delay(3), Duration::from_millis(600)); // 2Δ·3
    }

    #[test]
    fn display_of_errors() {
        let e = ProtocolConfig::new(18, 6, 1).unwrap_err();
        assert!(e.to_string().contains("19 required"));
    }
}
