//! WAN topologies: where replicas sit and what the links between them cost.
//!
//! The paper's testbeds (Fig. 5) are AWS `t3.large` instances in
//! 4 global datacenters (§9.3), 4 US datacenters (§9.4) and 19 worldwide
//! datacenters (§9.5). We reproduce them with a geodesic latency model
//! (substitution **R1** in `docs/ARCHITECTURE.md`):
//!
//! > one-way delay = great-circle distance / fiber speed × routing
//! > inflation + per-hop overhead
//!
//! with inflation 1.4 and 2 ms overhead, which lands within ~40% of public
//! AWS inter-region RTT measurements for the pairs we cross-check in tests.
//! Replicas in the same datacenter see a symmetric 0.25 ms one-way delay.
//!
//! Bandwidth: each replica has a finite **egress** rate (default 1 Gbit/s,
//! matching `t3.large`'s sustained class). Broadcasting a 1 MB block to 18
//! peers therefore serializes ~144 ms of transmission on the sender's
//! uplink — exactly the effect that makes the paper's throughput/latency
//! curves bend at large block sizes.

use banyan_types::time::Duration;

/// A named datacenter location (AWS region).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Region {
    /// AWS-style region code.
    pub name: &'static str,
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

/// The 19 AWS regions used for the global testbed (§9.5), roughly the set
/// available to the authors in 2024.
pub const AWS_REGIONS: [Region; 19] = [
    Region {
        name: "us-east-1",
        lat: 38.9,
        lon: -77.4,
    }, // N. Virginia
    Region {
        name: "us-east-2",
        lat: 40.0,
        lon: -83.0,
    }, // Ohio
    Region {
        name: "us-west-1",
        lat: 37.4,
        lon: -121.9,
    }, // N. California
    Region {
        name: "us-west-2",
        lat: 45.8,
        lon: -119.7,
    }, // Oregon
    Region {
        name: "ca-central-1",
        lat: 45.5,
        lon: -73.6,
    }, // Montreal
    Region {
        name: "sa-east-1",
        lat: -23.5,
        lon: -46.6,
    }, // São Paulo
    Region {
        name: "eu-west-1",
        lat: 53.3,
        lon: -6.3,
    }, // Ireland
    Region {
        name: "eu-west-2",
        lat: 51.5,
        lon: -0.1,
    }, // London
    Region {
        name: "eu-west-3",
        lat: 48.9,
        lon: 2.4,
    }, // Paris
    Region {
        name: "eu-central-1",
        lat: 50.1,
        lon: 8.7,
    }, // Frankfurt
    Region {
        name: "eu-north-1",
        lat: 59.3,
        lon: 18.1,
    }, // Stockholm
    Region {
        name: "eu-south-1",
        lat: 45.5,
        lon: 9.2,
    }, // Milan
    Region {
        name: "me-south-1",
        lat: 26.2,
        lon: 50.6,
    }, // Bahrain
    Region {
        name: "ap-south-1",
        lat: 19.1,
        lon: 72.9,
    }, // Mumbai
    Region {
        name: "ap-southeast-1",
        lat: 1.3,
        lon: 103.8,
    }, // Singapore
    Region {
        name: "ap-southeast-2",
        lat: -33.9,
        lon: 151.2,
    }, // Sydney
    Region {
        name: "ap-northeast-1",
        lat: 35.7,
        lon: 139.7,
    }, // Tokyo
    Region {
        name: "ap-northeast-2",
        lat: 37.6,
        lon: 126.9,
    }, // Seoul
    Region {
        name: "af-south-1",
        lat: -33.9,
        lon: 18.4,
    }, // Cape Town
];

/// Looks up a region by name.
pub fn region(name: &str) -> Option<Region> {
    AWS_REGIONS.iter().copied().find(|r| r.name == name)
}

/// Great-circle distance between two regions in kilometers (haversine).
pub fn distance_km(a: Region, b: Region) -> f64 {
    let (lat1, lon1) = (a.lat.to_radians(), a.lon.to_radians());
    let (lat2, lon2) = (b.lat.to_radians(), b.lon.to_radians());
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * 6371.0 * h.sqrt().asin()
}

/// Speed of light in fiber, km per millisecond.
const FIBER_KM_PER_MS: f64 = 204.0;
/// Path inflation: real routes are not great circles.
const ROUTE_INFLATION: f64 = 1.4;
/// Fixed per-path overhead (switching, last-mile), one-way, in ms.
const PATH_OVERHEAD_MS: f64 = 2.0;
/// One-way delay between two replicas in the same datacenter, in ms.
const INTRA_DC_MS: f64 = 0.25;

/// Modeled one-way delay between two regions.
pub fn one_way_delay(a: Region, b: Region) -> Duration {
    if a.name == b.name {
        return Duration::from_secs_f64(INTRA_DC_MS / 1e3);
    }
    let ms = distance_km(a, b) / FIBER_KM_PER_MS * ROUTE_INFLATION + PATH_OVERHEAD_MS;
    Duration::from_secs_f64(ms / 1e3)
}

/// A concrete deployment: every replica pinned to a site, with a full
/// one-way delay matrix and per-replica egress bandwidth.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Human-readable site label per replica.
    site_labels: Vec<&'static str>,
    /// `one_way[a][b]`: modeled one-way delay from replica `a` to `b`.
    one_way: Vec<Vec<Duration>>,
    /// Egress bandwidth per replica, bits per second.
    egress_bps: u64,
}

impl Topology {
    /// Builds a topology by assigning each replica to a region.
    pub fn from_sites(sites: &[Region]) -> Self {
        let n = sites.len();
        let mut one_way = vec![vec![Duration::ZERO; n]; n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    one_way[a][b] = one_way_delay(sites[a], sites[b]);
                }
            }
        }
        Topology {
            site_labels: sites.iter().map(|r| r.name).collect(),
            one_way,
            egress_bps: 1_000_000_000,
        }
    }

    /// Uniform synthetic topology: every pair `one_way` apart. Used for
    /// step-count experiments (Fig. 1) where δ must be a single constant.
    pub fn uniform(n: usize, one_way: Duration) -> Self {
        let mut m = vec![vec![one_way; n]; n];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = Duration::ZERO;
        }
        Topology {
            site_labels: vec!["uniform"; n],
            one_way: m,
            egress_bps: 1_000_000_000,
        }
    }

    /// `counts[i]` replicas in `regions[i]`, concatenated in order.
    ///
    /// # Panics
    ///
    /// Panics if `regions` and `counts` lengths differ.
    pub fn clustered(regions: &[Region], counts: &[usize]) -> Self {
        assert_eq!(regions.len(), counts.len(), "one count per region");
        let mut sites = Vec::new();
        for (region, &count) in regions.iter().zip(counts) {
            sites.extend(std::iter::repeat_n(*region, count));
        }
        Self::from_sites(&sites)
    }

    /// The paper's §9.3 testbed: 19 replicas in 4 global datacenters,
    /// 5 + 5 + 5 + 4.
    pub fn four_global_19() -> Self {
        let regions = [
            region("us-east-1").expect("region exists"),
            region("eu-central-1").expect("region exists"),
            region("ap-northeast-1").expect("region exists"),
            region("us-west-2").expect("region exists"),
        ];
        Self::clustered(&regions, &[5, 5, 5, 4])
    }

    /// The paper's §9.3 small-cluster testbed: 4 replicas, one per global
    /// datacenter.
    pub fn four_global_4() -> Self {
        let regions = [
            region("us-east-1").expect("region exists"),
            region("eu-central-1").expect("region exists"),
            region("ap-northeast-1").expect("region exists"),
            region("us-west-2").expect("region exists"),
        ];
        Self::clustered(&regions, &[1, 1, 1, 1])
    }

    /// The paper's §9.4 testbed: 19 replicas in 4 US datacenters.
    pub fn four_us_19() -> Self {
        let regions = [
            region("us-east-1").expect("region exists"),
            region("us-east-2").expect("region exists"),
            region("us-west-1").expect("region exists"),
            region("us-west-2").expect("region exists"),
        ];
        Self::clustered(&regions, &[5, 5, 5, 4])
    }

    /// The paper's §9.5 testbed: 19 replicas, one per worldwide datacenter.
    pub fn nineteen_global() -> Self {
        Self::from_sites(&AWS_REGIONS)
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.site_labels.len()
    }

    /// Site label of a replica.
    pub fn site(&self, replica: usize) -> &'static str {
        self.site_labels[replica]
    }

    /// One-way propagation delay from `a` to `b`.
    pub fn delay(&self, a: usize, b: usize) -> Duration {
        self.one_way[a][b]
    }

    /// Per-replica egress bandwidth in bits per second.
    pub fn egress_bps(&self) -> u64 {
        self.egress_bps
    }

    /// Builder-style: overrides the egress bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero.
    pub fn with_egress_bps(mut self, bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be positive");
        self.egress_bps = bps;
        self
    }

    /// Transmission (serialization) time for `bytes` on one replica's
    /// uplink.
    pub fn transmit_time(&self, bytes: u64) -> Duration {
        Duration((bytes.saturating_mul(8).saturating_mul(1_000_000_000)) / self.egress_bps)
    }

    /// The largest one-way delay in the deployment — the natural choice
    /// for the protocol's `Δ` bound ("larger than the message delay
    /// experienced without network disruptions", §9.2).
    pub fn max_one_way(&self) -> Duration {
        self.one_way
            .iter()
            .flat_map(|row| row.iter().copied())
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Gossip fanout set for `from`: the peers it relays pending requests
    /// to when propagation-limited gossip is on.
    ///
    /// The ring successor `(from + 1) % n` is always included, so the
    /// union of all fanout edges contains a Hamiltonian cycle and every
    /// relay cascade reaches every replica regardless of fanout. The
    /// remaining `fanout - 1` slots go to the lowest-delay peers, with a
    /// seeded hash breaking delay ties (common in uniform and clustered
    /// topologies) so different seeds explore different trees while a
    /// fixed seed stays bit-stable.
    pub fn fanout_peers(&self, from: usize, fanout: usize, seed: u64) -> Vec<usize> {
        let n = self.n();
        if n <= 1 {
            return Vec::new();
        }
        let fanout = fanout.clamp(1, n - 1);
        let successor = (from + 1) % n;
        let mut peers = vec![successor];
        if fanout == 1 {
            return peers;
        }
        let mut rest: Vec<usize> = (0..n).filter(|&p| p != from && p != successor).collect();
        rest.sort_by_key(|&p| (self.one_way[from][p], tie_break(seed, from, p)));
        peers.extend(rest.into_iter().take(fanout - 1));
        peers
    }

    /// Median one-way delay across distinct pairs (reporting aid).
    pub fn median_one_way(&self) -> Duration {
        let mut delays: Vec<Duration> = Vec::new();
        for a in 0..self.n() {
            for b in 0..self.n() {
                if a != b {
                    delays.push(self.one_way[a][b]);
                }
            }
        }
        if delays.is_empty() {
            return Duration::ZERO;
        }
        delays.sort_unstable();
        delays[delays.len() / 2]
    }
}

/// Deterministic tie-break hash for fanout peer selection (splitmix64 over
/// the seed and the edge endpoints).
fn tie_break(seed: u64, from: usize, peer: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((from as u64) << 32 | peer as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_are_sane() {
        let va = region("us-east-1").unwrap();
        let fra = region("eu-central-1").unwrap();
        let tokyo = region("ap-northeast-1").unwrap();
        // Virginia–Frankfurt ≈ 6,500 km; Virginia–Tokyo ≈ 10,900 km.
        let d1 = distance_km(va, fra);
        assert!((6000.0..7200.0).contains(&d1), "VA-FRA {d1} km");
        let d2 = distance_km(va, tokyo);
        assert!((10000.0..11800.0).contains(&d2), "VA-TYO {d2} km");
    }

    #[test]
    fn modeled_rtts_land_near_public_measurements() {
        // Public AWS inter-region RTT ballparks (ms): us-east-1 ↔
        // eu-central-1 ≈ 90, us-east-1 ↔ ap-northeast-1 ≈ 160,
        // us-west-2 ↔ ap-northeast-1 ≈ 100. Allow a generous ±40% band —
        // we need shape, not precision.
        let cases = [
            ("us-east-1", "eu-central-1", 90.0),
            ("us-east-1", "ap-northeast-1", 160.0),
            ("us-west-2", "ap-northeast-1", 100.0),
            ("us-east-1", "us-west-2", 70.0),
        ];
        for (a, b, expect_rtt_ms) in cases {
            let d = one_way_delay(region(a).unwrap(), region(b).unwrap());
            let rtt_ms = d.as_millis_f64() * 2.0;
            assert!(
                (expect_rtt_ms * 0.6..=expect_rtt_ms * 1.4).contains(&rtt_ms),
                "{a}->{b}: modeled {rtt_ms:.1} ms vs public {expect_rtt_ms} ms"
            );
        }
    }

    #[test]
    fn delay_matrix_is_symmetric_with_zero_diagonal() {
        let t = Topology::four_global_19();
        assert_eq!(t.n(), 19);
        for a in 0..19 {
            assert_eq!(t.delay(a, a), Duration::ZERO);
            for b in 0..19 {
                assert_eq!(t.delay(a, b), t.delay(b, a));
            }
        }
    }

    #[test]
    fn intra_dc_is_fast() {
        let t = Topology::four_global_19();
        // Replicas 0..5 share us-east-1.
        assert!(t.delay(0, 1).as_millis_f64() < 1.0);
        // Cross-continent pairs are slow.
        assert!(t.delay(0, 10).as_millis_f64() > 30.0);
    }

    #[test]
    fn paper_testbeds_have_expected_sizes() {
        assert_eq!(Topology::four_global_19().n(), 19);
        assert_eq!(Topology::four_global_4().n(), 4);
        assert_eq!(Topology::four_us_19().n(), 19);
        assert_eq!(Topology::nineteen_global().n(), 19);
    }

    #[test]
    fn us_testbed_is_faster_than_global() {
        let us = Topology::four_us_19();
        let global = Topology::four_global_19();
        assert!(us.max_one_way() < global.max_one_way());
    }

    #[test]
    fn transmit_time_matches_bandwidth() {
        let t = Topology::uniform(2, Duration::from_millis(10));
        // 1 MB at 1 Gbit/s = 8 ms.
        let tx = t.transmit_time(1_000_000);
        assert_eq!(tx, Duration::from_millis(8));
        // Override to 100 Mbit/s → 80 ms.
        let t = t.with_egress_bps(100_000_000);
        assert_eq!(t.transmit_time(1_000_000), Duration::from_millis(80));
    }

    #[test]
    fn uniform_topology_is_uniform() {
        let t = Topology::uniform(5, Duration::from_millis(25));
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    assert_eq!(t.delay(a, b), Duration::from_millis(25));
                }
            }
        }
        assert_eq!(t.max_one_way(), Duration::from_millis(25));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = Topology::uniform(2, Duration::ZERO).with_egress_bps(0);
    }

    #[test]
    fn fanout_peers_include_ring_successor_and_prefer_low_delay() {
        let t = Topology::four_global_19();
        for from in 0..t.n() {
            for fanout in 1..=4 {
                let peers = t.fanout_peers(from, fanout, 42);
                assert_eq!(peers.len(), fanout);
                assert!(peers.contains(&((from + 1) % t.n())));
                assert!(!peers.contains(&from), "never self");
                let mut sorted = peers.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), fanout, "no duplicate peers");
            }
        }
        // Replica 0 sits in us-east-1 with replicas 1..5; its non-ring
        // picks must be intra-DC peers, not cross-continent ones.
        let peers = t.fanout_peers(0, 3, 42);
        for &p in &peers[1..] {
            assert!(p < 5, "low-delay pick {p} should be intra-DC");
        }
    }

    #[test]
    fn fanout_tree_reaches_all_replicas_from_any_origin() {
        for topo in [
            Topology::uniform(8, Duration::from_millis(5)),
            Topology::four_global_19(),
            Topology::nineteen_global(),
        ] {
            let n = topo.n();
            for fanout in 1..=3 {
                for seed in [1u64, 42, 7777] {
                    for origin in 0..n {
                        // BFS over fanout edges: origin forwards to its
                        // fanout set, each first-time receiver relays to
                        // its own fanout set (minus already-seen nodes,
                        // mirroring dedup-based cascade termination).
                        let mut seen = vec![false; n];
                        seen[origin] = true;
                        let mut frontier = vec![origin];
                        while let Some(at) = frontier.pop() {
                            for p in topo.fanout_peers(at, fanout, seed) {
                                if !seen[p] {
                                    seen[p] = true;
                                    frontier.push(p);
                                }
                            }
                        }
                        assert!(
                            seen.iter().all(|&s| s),
                            "n={n} fanout={fanout} seed={seed} origin={origin}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fanout_peers_are_deterministic_per_seed() {
        let t = Topology::uniform(16, Duration::from_millis(5));
        for from in 0..16 {
            let a = t.fanout_peers(from, 3, 99);
            let b = t.fanout_peers(from, 3, 99);
            assert_eq!(a, b);
        }
        // On a uniform topology every non-successor delay ties, so the
        // seeded tie-break decides the set; distinct seeds should differ
        // for at least one origin.
        let differs = (0..16).any(|from| t.fanout_peers(from, 3, 1) != t.fanout_peers(from, 3, 2));
        assert!(differs, "seeds should explore different trees");
    }

    #[test]
    fn fanout_clamps_to_cluster_size() {
        let t = Topology::uniform(4, Duration::from_millis(5));
        assert_eq!(t.fanout_peers(0, 100, 42).len(), 3);
        assert_eq!(t.fanout_peers(0, 0, 42).len(), 1, "at least the ring");
        let t1 = Topology::uniform(1, Duration::from_millis(5));
        assert!(t1.fanout_peers(0, 2, 42).is_empty());
    }

    #[test]
    fn median_one_way_is_reasonable() {
        let t = Topology::nineteen_global();
        let med = t.median_one_way();
        assert!(med > Duration::from_millis(10));
        assert!(med < t.max_one_way());
    }
}
