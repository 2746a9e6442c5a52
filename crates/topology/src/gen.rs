//! The topology generator.
//!
//! Produces a hierarchical AS graph with a Tier-1 clique, a transit layer
//! grown by preferential attachment (heavy-tailed provider degrees →
//! realistic customer-cone skew), lateral transit peering, a stub fringe,
//! beacon sites near the top (≤ 2 hops from a Tier-1, as in the paper's
//! §4.3) and vantage points sampled across tiers.

use bgpsim::{AsId, Relationship};
use netsim::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

use crate::graph::{AsInfo, LinkSpec, Tier, Topology};

/// Generator parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Size of the Tier-1 clique.
    pub n_tier1: usize,
    /// Number of transit ASs.
    pub n_transit: usize,
    /// Number of stub ASs.
    pub n_stub: usize,
    /// Number of beacon-site ASs to inject (the paper deploys 7).
    pub n_beacon_sites: usize,
    /// Number of vantage points to sample.
    pub n_vantage_points: usize,
    /// Seed (derive from the experiment seed).
    pub seed: u64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            n_tier1: 6,
            n_transit: 80,
            n_stub: 200,
            n_beacon_sites: 7,
            n_vantage_points: 40,
            seed: 0,
        }
    }
}

impl TopologyConfig {
    /// The default configuration with a specific seed.
    pub fn default_with_seed(seed: u64) -> Self {
        TopologyConfig {
            seed,
            ..Default::default()
        }
    }

    /// A deliberately small configuration for fast unit tests.
    pub fn tiny(seed: u64) -> Self {
        TopologyConfig {
            n_tier1: 3,
            n_transit: 10,
            n_stub: 20,
            n_beacon_sites: 2,
            n_vantage_points: 5,
            seed,
        }
    }
}

/// AS-number blocks per tier (readability of reports and logs).
const TIER1_BASE: u32 = 1;
const TRANSIT_BASE: u32 = 100;
const STUB_BASE: u32 = 10_000;
const BEACON_BASE: u32 = 65_000;

/// Probability a stub is dual-homed (two providers).
const STUB_MULTIHOMING: f64 = 0.35;
/// Expected number of lateral peer links per transit AS.
const TRANSIT_PEERING: f64 = 1.0;
/// Link delays are uniform over `[MIN_DELAY_MS, MAX_DELAY_MS)` milliseconds.
const MIN_DELAY_MS: u64 = 5;
const MAX_DELAY_MS: u64 = 60;

/// Generate a topology from the configuration.
pub fn generate(config: &TopologyConfig) -> Topology {
    assert!(config.n_tier1 >= 1, "need at least one Tier-1");
    assert!(
        config.n_vantage_points <= config.n_tier1 + config.n_transit + config.n_stub,
        "more vantage points than ASs"
    );
    let mut rng = SimRng::new(config.seed).split("topology");
    let mut topo = Topology::default();

    let delay = |rng: &mut SimRng| {
        SimDuration::from_millis(MIN_DELAY_MS + rng.below(MAX_DELAY_MS - MIN_DELAY_MS))
    };

    // --- Tier-1 clique -------------------------------------------------
    let tier1: Vec<AsId> = (0..config.n_tier1)
        .map(|i| AsId(TIER1_BASE + i as u32))
        .collect();
    for &id in &tier1 {
        topo.ases.push(AsInfo {
            id,
            tier: Tier::Tier1,
        });
    }
    for i in 0..tier1.len() {
        for j in (i + 1)..tier1.len() {
            topo.links.push(LinkSpec {
                a: tier1[i],
                b: tier1[j],
                rel_at_a: Relationship::Peer,
                delay: delay(&mut rng),
            });
        }
    }

    // --- Transit layer (preferential attachment on provider degree) ----
    // `attractiveness` counts how many customers each potential provider
    // already has, plus one (so new providers can be chosen at all).
    let mut transit: Vec<AsId> = Vec::with_capacity(config.n_transit);
    let mut providers_pool: Vec<AsId> = tier1.clone();
    let mut weight: Vec<u64> = vec![1; providers_pool.len()];
    for i in 0..config.n_transit {
        let id = AsId(TRANSIT_BASE + i as u32);
        topo.ases.push(AsInfo {
            id,
            tier: Tier::Transit,
        });
        let n_providers = 1 + rng.index(2); // 1 or 2 providers
        let chosen = weighted_distinct(&mut rng, &providers_pool, &weight, n_providers);
        for provider in chosen {
            let idx = providers_pool
                .iter()
                .position(|&p| p == provider)
                .expect("chosen from pool");
            weight[idx] += 1;
            topo.links.push(LinkSpec {
                a: provider,
                b: id,
                rel_at_a: Relationship::Customer,
                delay: delay(&mut rng),
            });
        }
        transit.push(id);
        providers_pool.push(id);
        weight.push(1);
    }

    // Lateral peering between transit ASs. Skip pairs that already have a
    // customer–provider link — one relationship per AS pair.
    let n_peer_links = (TRANSIT_PEERING * config.n_transit as f64 / 2.0).round() as usize;
    let mut peered: std::collections::BTreeSet<(AsId, AsId)> = topo
        .links
        .iter()
        .map(|l| (l.a.min(l.b), l.a.max(l.b)))
        .collect();
    if transit.len() >= 2 {
        for _ in 0..n_peer_links {
            let a = transit[rng.index(transit.len())];
            let b = transit[rng.index(transit.len())];
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            if !peered.insert(key) {
                continue;
            }
            topo.links.push(LinkSpec {
                a: key.0,
                b: key.1,
                rel_at_a: Relationship::Peer,
                delay: delay(&mut rng),
            });
        }
    }

    // --- Stub fringe ----------------------------------------------------
    let stub_provider_pool: Vec<AsId> = transit.clone();
    let stub_weight: Vec<u64> = stub_provider_pool
        .iter()
        .map(|p| {
            1 + topo
                .links
                .iter()
                .filter(|l| l.a == *p && l.rel_at_a == Relationship::Customer)
                .count() as u64
        })
        .collect();
    for i in 0..config.n_stub {
        let id = AsId(STUB_BASE + i as u32);
        topo.ases.push(AsInfo {
            id,
            tier: Tier::Stub,
        });
        let n_providers = if rng.chance(STUB_MULTIHOMING) { 2 } else { 1 };
        let pool = if stub_provider_pool.is_empty() {
            &tier1
        } else {
            &stub_provider_pool
        };
        let w = if stub_provider_pool.is_empty() {
            vec![1; tier1.len()]
        } else {
            stub_weight.clone()
        };
        for provider in weighted_distinct(&mut rng, pool, &w, n_providers.min(pool.len())) {
            topo.links.push(LinkSpec {
                a: provider,
                b: id,
                rel_at_a: Relationship::Customer,
                delay: delay(&mut rng),
            });
        }
    }

    // --- Beacon sites (≤ 2 hops from a Tier-1) --------------------------
    // Each site connects to one Tier-1 directly or to a transit AS that
    // has a Tier-1 provider; mirroring the paper, upstreams of beacons
    // never damp (the experiment hooks guarantee that separately).
    let transit_under_tier1: Vec<AsId> = transit
        .iter()
        .copied()
        .filter(|&t| {
            topo.links
                .iter()
                .any(|l| l.b == t && l.rel_at_a == Relationship::Customer && tier1.contains(&l.a))
        })
        .collect();
    for i in 0..config.n_beacon_sites {
        let id = AsId(BEACON_BASE + i as u32);
        topo.ases.push(AsInfo {
            id,
            tier: Tier::BeaconSite,
        });
        // Sites are multihomed (like the PEERING testbed the paper's
        // beacons announce through): one Tier-1 provider plus, where
        // available, one transit directly under a Tier-1 — so no single
        // upstream transits *all* of a site's paths, and every site stays
        // ≤ 2 hops from the clique.
        let mut providers = vec![tier1[rng.index(tier1.len())]];
        if !transit_under_tier1.is_empty() {
            providers.push(transit_under_tier1[rng.index(transit_under_tier1.len())]);
        } else if tier1.len() > 1 {
            let second = tier1[rng.index(tier1.len())];
            if second != providers[0] {
                providers.push(second);
            }
        }
        for provider in providers {
            topo.links.push(LinkSpec {
                a: provider,
                b: id,
                rel_at_a: Relationship::Customer,
                delay: delay(&mut rng),
            });
        }
        topo.beacon_sites.push(id);
    }

    // --- Vantage points --------------------------------------------------
    // Sample without replacement across all non-beacon ASs, weighting the
    // mix towards transit (full-feed peers are mostly well-connected
    // networks): ~20 % Tier-1, ~50 % transit, ~30 % stubs, degrading
    // gracefully for small configs.
    let mut vp_candidates: Vec<AsId> = Vec::new();
    vp_candidates.extend(tier1.iter().copied());
    vp_candidates.extend(transit.iter().copied());
    vp_candidates.extend((0..config.n_stub).map(|i| AsId(STUB_BASE + i as u32)));
    let mut chosen = Vec::new();
    let pick = |pool: &[AsId], k: usize, rng: &mut SimRng, out: &mut Vec<AsId>| {
        let avail: Vec<AsId> = pool.iter().copied().filter(|p| !out.contains(p)).collect();
        let k = k.min(avail.len());
        for idx in rng.sample_indices(avail.len(), k) {
            out.push(avail[idx]);
        }
    };
    let n_vp = config.n_vantage_points;
    pick(&tier1, (n_vp / 5).max(1).min(n_vp), &mut rng, &mut chosen);
    pick(
        &transit,
        (n_vp / 2).min(n_vp.saturating_sub(chosen.len())),
        &mut rng,
        &mut chosen,
    );
    let stubs: Vec<AsId> = (0..config.n_stub)
        .map(|i| AsId(STUB_BASE + i as u32))
        .collect();
    pick(
        &stubs,
        n_vp.saturating_sub(chosen.len()),
        &mut rng,
        &mut chosen,
    );
    // Top up from anywhere if tiers were too small.
    pick(
        &vp_candidates,
        n_vp.saturating_sub(chosen.len()),
        &mut rng,
        &mut chosen,
    );
    chosen.sort();
    chosen.truncate(n_vp);
    topo.vantage_points = chosen;

    topo
}

/// Choose up to `k` distinct items, probability proportional to `weight`.
fn weighted_distinct(rng: &mut SimRng, pool: &[AsId], weight: &[u64], k: usize) -> Vec<AsId> {
    debug_assert_eq!(pool.len(), weight.len());
    let mut chosen: Vec<AsId> = Vec::with_capacity(k);
    let mut total: u64 = weight.iter().sum();
    let mut remaining: Vec<(AsId, u64)> =
        pool.iter().copied().zip(weight.iter().copied()).collect();
    for _ in 0..k.min(pool.len()) {
        if total == 0 {
            break;
        }
        let mut target = rng.below(total);
        let mut idx = 0;
        for (i, &(_, w)) in remaining.iter().enumerate() {
            if target < w {
                idx = i;
                break;
            }
            target -= w;
        }
        let (id, w) = remaining.remove(idx);
        total -= w;
        chosen.push(id);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim::Relationship;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&TopologyConfig::tiny(5));
        let b = generate(&TopologyConfig::tiny(5));
        assert_eq!(a.ases, b.ases);
        assert_eq!(a.links, b.links);
        assert_eq!(a.vantage_points, b.vantage_points);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TopologyConfig::tiny(1));
        let b = generate(&TopologyConfig::tiny(2));
        assert_ne!(a.links, b.links);
    }

    #[test]
    fn counts_match_config() {
        let cfg = TopologyConfig::default();
        let t = generate(&cfg);
        assert_eq!(
            t.len(),
            cfg.n_tier1 + cfg.n_transit + cfg.n_stub + cfg.n_beacon_sites
        );
        assert_eq!(t.beacon_sites.len(), cfg.n_beacon_sites);
        assert_eq!(t.vantage_points.len(), cfg.n_vantage_points);
    }

    #[test]
    fn graph_is_connected() {
        for seed in 0..5 {
            let t = generate(&TopologyConfig::tiny(seed));
            assert!(t.is_connected(), "seed {seed} disconnected");
        }
    }

    #[test]
    fn tier1_forms_full_peer_mesh() {
        let cfg = TopologyConfig::default();
        let t = generate(&cfg);
        let n = cfg.n_tier1;
        let tier1_peerings = t
            .links
            .iter()
            .filter(|l| {
                l.rel_at_a == Relationship::Peer && l.a.0 < TRANSIT_BASE && l.b.0 < TRANSIT_BASE
            })
            .count();
        assert_eq!(tier1_peerings, n * (n - 1) / 2);
    }

    #[test]
    fn every_non_tier1_has_a_provider() {
        let t = generate(&TopologyConfig::default());
        let adj = t.adjacency();
        for a in &t.ases {
            if a.tier == Tier::Tier1 {
                continue;
            }
            let has_provider = adj[&a.id]
                .iter()
                .any(|&(_, rel)| rel == Relationship::Provider);
            assert!(has_provider, "{} has no provider", a.id);
        }
    }

    #[test]
    fn tier1_has_no_providers() {
        let t = generate(&TopologyConfig::default());
        let adj = t.adjacency();
        for a in t.ases.iter().filter(|a| a.tier == Tier::Tier1) {
            assert!(
                adj[&a.id]
                    .iter()
                    .all(|&(_, rel)| rel != Relationship::Provider),
                "Tier-1 {} has a provider",
                a.id
            );
        }
    }

    #[test]
    fn beacon_sites_within_two_hops_of_tier1() {
        let t = generate(&TopologyConfig::default());
        for &site in &t.beacon_sites {
            let hops = t.hops_to_tier1(site).expect("connected");
            assert!(hops <= 2, "site {site} is {hops} hops from Tier-1");
        }
    }

    #[test]
    fn vantage_points_are_distinct_and_not_beacons() {
        let t = generate(&TopologyConfig::default());
        let mut vp = t.vantage_points.clone();
        vp.sort();
        vp.dedup();
        assert_eq!(vp.len(), t.vantage_points.len());
        for v in &vp {
            assert!(!t.beacon_sites.contains(v));
        }
    }

    #[test]
    fn customer_cones_are_heavy_tailed() {
        // Preferential attachment should give at least one transit AS a
        // cone several times larger than the median.
        let t = generate(&TopologyConfig::default());
        let mut cones: Vec<usize> = t
            .ases
            .iter()
            .filter(|a| a.tier == Tier::Transit)
            .map(|a| t.customer_cone(a.id).len())
            .collect();
        cones.sort_unstable();
        let median = cones[cones.len() / 2];
        let max = *cones.last().unwrap();
        assert!(max >= median.max(1) * 3, "max={max} median={median}");
    }

    #[test]
    fn no_duplicate_as_pairs() {
        // Each AS pair must carry at most one link, otherwise the second
        // session definition would silently overwrite the first.
        for seed in 0..5 {
            let t = generate(&TopologyConfig::tiny(seed));
            let mut pairs: Vec<(AsId, AsId)> = t
                .links
                .iter()
                .map(|l| (l.a.min(l.b), l.a.max(l.b)))
                .collect();
            let n = pairs.len();
            pairs.sort();
            pairs.dedup();
            assert_eq!(pairs.len(), n, "duplicate link in seed {seed}");
        }
    }

    #[test]
    fn delays_within_bounds() {
        let cfg = TopologyConfig::default();
        let t = generate(&cfg);
        for l in &t.links {
            let ms = l.delay.as_millis();
            assert!((MIN_DELAY_MS..MAX_DELAY_MS).contains(&ms), "{ms} ms");
        }
    }

    #[test]
    fn full_network_converges_from_beacon() {
        let cfg = TopologyConfig::tiny(11);
        let t = generate(&cfg);
        let netcfg = bgpsim::NetworkConfig {
            jitter: 0.3,
            seed: 11,
            ..Default::default()
        };
        let mut net = t.instantiate(netcfg, |_, _, pol| pol);
        let pfx: bgpsim::Prefix = "10.0.0.0/24".parse().unwrap();
        let site = t.beacon_sites[0];
        net.schedule_announce(netsim::SimTime::ZERO, site, pfx, true);
        net.run_to_quiescence();
        let reachable = net
            .as_ids()
            .iter()
            .filter(|&&a| a != site && net.best(a, pfx).is_some())
            .count();
        assert_eq!(
            reachable,
            t.len() - 1,
            "all ASs must learn the beacon prefix"
        );
    }
}
