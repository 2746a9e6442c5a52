//! The topology data model and structural queries.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::{Deserialize, Serialize};

use bgpsim::{AsId, Network, NetworkConfig, Relationship, SessionPolicy};
use netsim::SimDuration;

/// Role of an AS in the hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// Member of the top clique (full-mesh peering, no providers).
    Tier1,
    /// Transit provider below the clique.
    Transit,
    /// Edge network with providers only.
    Stub,
    /// A measurement beacon site (stub-like, placed near the top).
    BeaconSite,
}

/// Static description of one AS.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsInfo {
    /// The AS number.
    pub id: AsId,
    /// Hierarchy role.
    pub tier: Tier,
}

/// One undirected AS-level link with its business relationship and delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: AsId,
    /// The other endpoint.
    pub b: AsId,
    /// Relationship *from `a`'s perspective* (`Customer` means `b` is
    /// `a`'s customer).
    pub rel_at_a: Relationship,
    /// Propagation delay of the link.
    pub delay: SimDuration,
}

/// A generated AS-level topology.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Topology {
    /// All ASs, in id order.
    pub ases: Vec<AsInfo>,
    /// All links.
    pub links: Vec<LinkSpec>,
    /// ASs acting as beacon sites.
    pub beacon_sites: Vec<AsId>,
    /// ASs acting as route-collector vantage points.
    pub vantage_points: Vec<AsId>,
}

impl Topology {
    /// Number of ASs.
    pub fn len(&self) -> usize {
        self.ases.len()
    }

    /// True when the topology is empty.
    pub fn is_empty(&self) -> bool {
        self.ases.is_empty()
    }

    /// Directed adjacency: for each AS, its neighbors with the
    /// relationship from the AS's own perspective.
    pub fn adjacency(&self) -> BTreeMap<AsId, Vec<(AsId, Relationship)>> {
        let mut adj: BTreeMap<AsId, Vec<(AsId, Relationship)>> = BTreeMap::new();
        for a in &self.ases {
            adj.entry(a.id).or_default();
        }
        for l in &self.links {
            adj.entry(l.a).or_default().push((l.b, l.rel_at_a));
            adj.entry(l.b)
                .or_default()
                .push((l.a, l.rel_at_a.reversed()));
        }
        adj
    }

    /// The customer cone of `asn`: every AS reachable by repeatedly
    /// following provider→customer edges (excluding `asn` itself). The
    /// paper's Fig. 12 narrative hinges on one inconsistently-damping AS
    /// with a *large customer cone*.
    pub fn customer_cone(&self, asn: AsId) -> BTreeSet<AsId> {
        let adj = self.adjacency();
        let mut cone = BTreeSet::new();
        let mut queue = VecDeque::from([asn]);
        while let Some(current) = queue.pop_front() {
            if let Some(neighbors) = adj.get(&current) {
                for &(n, rel) in neighbors {
                    if rel == Relationship::Customer && cone.insert(n) {
                        queue.push_back(n);
                    }
                }
            }
        }
        cone.remove(&asn);
        cone
    }

    /// Minimum hop distance from `asn` to any Tier-1 AS (0 for a Tier-1).
    pub fn hops_to_tier1(&self, asn: AsId) -> Option<usize> {
        let tier1: BTreeSet<AsId> = self
            .ases
            .iter()
            .filter(|a| a.tier == Tier::Tier1)
            .map(|a| a.id)
            .collect();
        if tier1.contains(&asn) {
            return Some(0);
        }
        let adj = self.adjacency();
        let mut dist: BTreeMap<AsId, usize> = BTreeMap::new();
        dist.insert(asn, 0);
        let mut queue = VecDeque::from([asn]);
        while let Some(current) = queue.pop_front() {
            let d = dist[&current];
            for &(n, _) in adj.get(&current).into_iter().flatten() {
                if tier1.contains(&n) {
                    return Some(d + 1);
                }
                if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(n) {
                    e.insert(d + 1);
                    queue.push_back(n);
                }
            }
        }
        None
    }

    /// Is the undirected graph connected?
    pub fn is_connected(&self) -> bool {
        if self.ases.is_empty() {
            return true;
        }
        let adj = self.adjacency();
        let start = self.ases[0].id;
        let mut seen = BTreeSet::from([start]);
        let mut queue = VecDeque::from([start]);
        while let Some(current) = queue.pop_front() {
            for &(n, _) in adj.get(&current).into_iter().flatten() {
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        seen.len() == self.ases.len()
    }

    /// Instantiate a running [`Network`] from this topology.
    ///
    /// `policy_hook` decides the session policy each AS applies towards
    /// each neighbor; it receives `(local, neighbor, relationship-at-local)`
    /// and may add RFD parameters, MRAI, or prepending to the plain
    /// relationship policy it is given. Vantage points are attached as
    /// taps automatically.
    pub fn instantiate(
        &self,
        config: NetworkConfig,
        mut policy_hook: impl FnMut(AsId, AsId, SessionPolicy) -> SessionPolicy,
    ) -> Network {
        let mut net = Network::new(config);
        for a in &self.ases {
            net.add_router(a.id);
        }
        for l in &self.links {
            let base_a = SessionPolicy::plain(l.rel_at_a);
            let base_b = SessionPolicy::plain(l.rel_at_a.reversed());
            let pol_a = policy_hook(l.a, l.b, base_a);
            let pol_b = policy_hook(l.b, l.a, base_b);
            net.connect(l.a, l.b, pol_a, pol_b, Some(l.delay));
        }
        for &vp in &self.vantage_points {
            net.attach_tap(vp);
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small hand-built topology:
    ///
    /// ```text
    ///    1 ===== 2        (Tier-1 peering)
    ///    |       |
    ///   10      20        (transit, customers of 1 / 2)
    ///    |  \    |
    ///  100  101 102       (stubs; 101 multihomed to 10 and 20? no: 10 only)
    /// ```
    fn sample() -> Topology {
        use Relationship::*;
        let ms = SimDuration::from_millis(10);
        Topology {
            ases: vec![
                AsInfo {
                    id: AsId(1),
                    tier: Tier::Tier1,
                },
                AsInfo {
                    id: AsId(2),
                    tier: Tier::Tier1,
                },
                AsInfo {
                    id: AsId(10),
                    tier: Tier::Transit,
                },
                AsInfo {
                    id: AsId(20),
                    tier: Tier::Transit,
                },
                AsInfo {
                    id: AsId(100),
                    tier: Tier::Stub,
                },
                AsInfo {
                    id: AsId(101),
                    tier: Tier::Stub,
                },
                AsInfo {
                    id: AsId(102),
                    tier: Tier::Stub,
                },
            ],
            links: vec![
                LinkSpec {
                    a: AsId(1),
                    b: AsId(2),
                    rel_at_a: Peer,
                    delay: ms,
                },
                LinkSpec {
                    a: AsId(1),
                    b: AsId(10),
                    rel_at_a: Customer,
                    delay: ms,
                },
                LinkSpec {
                    a: AsId(2),
                    b: AsId(20),
                    rel_at_a: Customer,
                    delay: ms,
                },
                LinkSpec {
                    a: AsId(10),
                    b: AsId(100),
                    rel_at_a: Customer,
                    delay: ms,
                },
                LinkSpec {
                    a: AsId(10),
                    b: AsId(101),
                    rel_at_a: Customer,
                    delay: ms,
                },
                LinkSpec {
                    a: AsId(20),
                    b: AsId(102),
                    rel_at_a: Customer,
                    delay: ms,
                },
            ],
            beacon_sites: vec![AsId(100)],
            vantage_points: vec![AsId(102)],
        }
    }

    #[test]
    fn adjacency_reverses_relationships() {
        let t = sample();
        let adj = t.adjacency();
        assert!(adj[&AsId(10)].contains(&(AsId(1), Relationship::Provider)));
        assert!(adj[&AsId(1)].contains(&(AsId(10), Relationship::Customer)));
        assert!(adj[&AsId(1)].contains(&(AsId(2), Relationship::Peer)));
    }

    #[test]
    fn customer_cone_is_transitive() {
        let t = sample();
        let cone1 = t.customer_cone(AsId(1));
        assert_eq!(cone1, BTreeSet::from([AsId(10), AsId(100), AsId(101)]));
        let cone10 = t.customer_cone(AsId(10));
        assert_eq!(cone10, BTreeSet::from([AsId(100), AsId(101)]));
        assert!(t.customer_cone(AsId(100)).is_empty());
    }

    #[test]
    fn hops_to_tier1() {
        let t = sample();
        assert_eq!(t.hops_to_tier1(AsId(1)), Some(0));
        assert_eq!(t.hops_to_tier1(AsId(10)), Some(1));
        assert_eq!(t.hops_to_tier1(AsId(100)), Some(2));
    }

    #[test]
    fn connectivity() {
        let mut t = sample();
        assert!(t.is_connected());
        // Orphan an AS.
        t.ases.push(AsInfo {
            id: AsId(999),
            tier: Tier::Stub,
        });
        assert!(!t.is_connected());
    }

    #[test]
    fn instantiate_builds_working_network() {
        let t = sample();
        let cfg = NetworkConfig {
            jitter: 0.0,
            seed: 7,
            ..Default::default()
        };
        let mut net = t.instantiate(cfg, |_, _, pol| pol);
        for asn in net.as_ids() {
            net.observe(asn);
        }
        let pfx: bgpsim::Prefix = "10.9.9.0/24".parse().unwrap();
        net.schedule_announce(netsim::SimTime::ZERO, AsId(100), pfx, true);
        net.run_to_quiescence();
        // Valley-free reachability: every AS, including the VP behind the
        // other Tier-1, selects a route.
        for asn in net.as_ids() {
            if asn == AsId(100) {
                continue;
            }
            assert!(net.best(asn, pfx).is_some(), "{asn} unreachable");
        }
        // The VP tap recorded the announcement.
        assert_eq!(net.tap_log().len(), 1);
        assert_eq!(net.tap_log()[0].vantage, AsId(102));
    }

    #[test]
    fn policy_hook_is_consulted_per_session() {
        let t = sample();
        let cfg = NetworkConfig {
            jitter: 0.0,
            seed: 7,
            ..Default::default()
        };
        use bgpsim::VendorProfile;
        // AS20 damps everything it hears from AS2.
        let net = t.instantiate(cfg, |local, peer, pol| {
            if local == AsId(20) && peer == AsId(2) {
                pol.with_rfd(VendorProfile::Cisco.params())
            } else {
                pol
            }
        });
        let r20 = net.router(AsId(20)).unwrap();
        assert!(r20.session_policy(AsId(2)).unwrap().rfd.is_some());
        assert!(r20.session_policy(AsId(102)).unwrap().rfd.is_none());
        let r2 = net.router(AsId(2)).unwrap();
        assert!(r2.session_policy(AsId(20)).unwrap().rfd.is_none());
    }
}
