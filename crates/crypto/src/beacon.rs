//! Random beacon: the shared-randomness source assumed by the paper (§3).
//!
//! ICC/Banyan use a random beacon to derive, for every round, a permutation
//! of the replicas that fixes each replica's *rank* (rank 0 = leader, §4).
//! A production deployment would run a threshold-BLS beacon; the paper's own
//! evaluation replaces it with round-robin rotation "to increase
//! predictability and transparency" (§9.1). We provide both behind one type:
//!
//! * [`BeaconMode::RoundRobin`] — rank of replica `u` in round `k` is
//!   `(u − k) mod n`; the leader of round `k` is `k mod n`. This is what the
//!   paper benchmarks, and what our figure harnesses use.
//! * [`BeaconMode::Seeded`] — a deterministic hash-chain beacon: round `k`'s
//!   output is `SHA-256(seed ‖ k)`, expanded into a Fisher–Yates permutation.
//!   Deterministic, unpredictable-looking, and identical at every replica —
//!   exactly the interface a real beacon provides (substitution **R3** in
//!   `docs/ARCHITECTURE.md`).

use crate::sha256::sha256_concat;

/// Which beacon flavor to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BeaconMode {
    /// Deterministic rotation (used in the paper's evaluation).
    RoundRobin,
    /// Seeded hash-chain permutation (models a real random beacon).
    Seeded {
        /// Shared beacon seed; all replicas must agree on it.
        seed: u64,
    },
}

/// Per-round rank oracle shared by all replicas.
///
/// # Examples
///
/// ```
/// use banyan_crypto::beacon::{Beacon, BeaconMode};
///
/// let b = Beacon::new(BeaconMode::RoundRobin, 4);
/// assert_eq!(b.leader(0), 0);
/// assert_eq!(b.leader(5), 1);
/// assert_eq!(b.rank(5, 1), 0); // replica 1 leads round 5
/// ```
#[derive(Clone, Debug)]
pub struct Beacon {
    mode: BeaconMode,
    n: usize,
}

impl Beacon {
    /// Creates a beacon for an `n`-replica cluster.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(mode: BeaconMode, n: usize) -> Self {
        assert!(n > 0, "beacon requires at least one replica");
        Beacon { mode, n }
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The full rank permutation for `round`: `perm[rank] = replica`.
    pub fn permutation(&self, round: u64) -> Vec<u16> {
        match self.mode {
            BeaconMode::RoundRobin => {
                let n = self.n as u64;
                (0..n).map(|r| ((round + r) % n) as u16).collect()
            }
            BeaconMode::Seeded { seed } => {
                let mut perm: Vec<u16> = (0..self.n as u16).collect();
                // Fisher–Yates driven by a per-round hash-chain PRG.
                let mut counter = 0u64;
                let mut pool: Vec<u8> = Vec::new();
                let draw_u64 = |pool: &mut Vec<u8>, counter: &mut u64| -> u64 {
                    if pool.len() < 8 {
                        let block = sha256_concat(&[
                            b"banyan/beacon/v1",
                            &seed.to_le_bytes(),
                            &round.to_le_bytes(),
                            &counter.to_le_bytes(),
                        ]);
                        *counter += 1;
                        pool.extend_from_slice(&block);
                    }
                    let bytes: [u8; 8] = pool[..8].try_into().expect("8 bytes");
                    pool.drain(..8);
                    u64::from_le_bytes(bytes)
                };
                for i in (1..perm.len()).rev() {
                    // Rejection-free modulo bias is negligible for n ≤ 2^16.
                    let j = (draw_u64(&mut pool, &mut counter) % (i as u64 + 1)) as usize;
                    perm.swap(i, j);
                }
                perm
            }
        }
    }

    /// The leader (rank-0 replica) of `round`.
    pub fn leader(&self, round: u64) -> u16 {
        match self.mode {
            BeaconMode::RoundRobin => (round % self.n as u64) as u16,
            BeaconMode::Seeded { .. } => self.permutation(round)[0],
        }
    }

    /// The rank of `replica` in `round` (0 = leader).
    pub fn rank(&self, round: u64, replica: u16) -> u16 {
        match self.mode {
            BeaconMode::RoundRobin => {
                let n = self.n as u64;
                (((replica as u64 + n) - (round % n)) % n) as u16
            }
            BeaconMode::Seeded { .. } => {
                let perm = self.permutation(round);
                perm.iter()
                    .position(|&r| r == replica)
                    .expect("replica in permutation") as u16
            }
        }
    }

    /// The replica holding `rank` in `round`.
    pub fn replica_at_rank(&self, round: u64, rank: u16) -> u16 {
        match self.mode {
            BeaconMode::RoundRobin => ((round + rank as u64) % self.n as u64) as u16,
            BeaconMode::Seeded { .. } => self.permutation(round)[rank as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates() {
        let b = Beacon::new(BeaconMode::RoundRobin, 4);
        assert_eq!(b.leader(0), 0);
        assert_eq!(b.leader(1), 1);
        assert_eq!(b.leader(4), 0);
        // In round 1 replica 1 has rank 0, replica 0 has rank 3.
        assert_eq!(b.rank(1, 1), 0);
        assert_eq!(b.rank(1, 0), 3);
        assert_eq!(b.replica_at_rank(1, 3), 0);
    }

    #[test]
    fn rank_and_replica_at_rank_are_inverse() {
        for mode in [BeaconMode::RoundRobin, BeaconMode::Seeded { seed: 99 }] {
            let b = Beacon::new(mode, 19);
            for round in 0..50u64 {
                for replica in 0..19u16 {
                    let rank = b.rank(round, replica);
                    assert_eq!(b.replica_at_rank(round, rank), replica);
                }
            }
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        for mode in [BeaconMode::RoundRobin, BeaconMode::Seeded { seed: 1 }] {
            let b = Beacon::new(mode, 13);
            for round in 0..20u64 {
                let mut perm = b.permutation(round);
                perm.sort_unstable();
                assert_eq!(perm, (0..13u16).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn seeded_beacon_is_deterministic_and_seed_sensitive() {
        let a = Beacon::new(BeaconMode::Seeded { seed: 7 }, 19);
        let b = Beacon::new(BeaconMode::Seeded { seed: 7 }, 19);
        let c = Beacon::new(BeaconMode::Seeded { seed: 8 }, 19);
        assert_eq!(a.permutation(12), b.permutation(12));
        let diff = (0..40u64).any(|k| a.permutation(k) != c.permutation(k));
        assert!(diff, "different seeds should produce different schedules");
    }

    #[test]
    fn seeded_leaders_are_spread() {
        // Over many rounds every replica leads at least once (sanity, not a
        // statistical test).
        let b = Beacon::new(BeaconMode::Seeded { seed: 3 }, 8);
        let mut led = [false; 8];
        for k in 0..200u64 {
            led[b.leader(k) as usize] = true;
        }
        assert!(led.iter().all(|&x| x));
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_panics() {
        let _ = Beacon::new(BeaconMode::RoundRobin, 0);
    }
}
