//! The RFD deployment oracle: which ASs damp, how, and where.
//!
//! The assignment mirrors everything §6 of the paper reports about
//! real-world deployment:
//!
//! * a configurable share of eligible ASs enables RFD (the paper's
//!   headline: ≥ 9 % of measured ASs);
//! * ~60 % of dampers run **deprecated vendor defaults** (Cisco or
//!   Juniper, suppress thresholds 2000/3000), the rest follow the
//!   RFC 7454/RIPE-580 recommendation (6000) or stricter custom
//!   thresholds — this mix is what produces Fig. 12's monotone decline
//!   with a cliff after the 5-minute interval;
//! * max-suppress-time is drawn from {10, 30, 60} minutes — the plateaus
//!   of Fig. 13;
//! * a share of dampers apply RFD **inconsistently**, damping every
//!   neighbor except one (the AS-701 pattern from §5.1);
//! * beacon-site ASs and their direct upstreams never damp (§4.3:
//!   "we verified that our upstream networks do not use RFD");
//! * an independent share of sessions run MRAI (30 s), which the
//!   signature detection must not confuse with RFD.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use bgpsim::{AsId, RfdParams, SessionPolicy, VendorProfile};
use netsim::{SimDuration, SimRng};
use topology::{Tier, Topology};

/// Which sessions of a damping AS apply RFD.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DampMode {
    /// Every neighbor (consistent deployment).
    AllNeighbors,
    /// Every neighbor except one (inconsistent, AS-701 style).
    ExceptNeighbor(AsId),
}

/// One damping AS's configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AsDeployment {
    /// The RFD parameter set in force.
    pub params: RfdParams,
    /// Where it is applied.
    pub mode: DampMode,
}

/// Deployment-model parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeploymentConfig {
    /// Share of eligible ASs that enable RFD.
    pub rfd_share: f64,
    /// Among dampers: share running deprecated vendor defaults
    /// (split evenly Cisco/Juniper). The rest follow recommendations
    /// (RFC 7454 threshold 6000) or stricter custom thresholds.
    pub vendor_default_share: f64,
    /// Among dampers: share damping inconsistently (one neighbor spared).
    pub inconsistent_share: f64,
    /// Mix of max-suppress-time values (minutes → probability weight).
    pub max_suppress_mix: Vec<(u64, f64)>,
    /// Share of *sessions* applying MRAI (30 s).
    pub mrai_share: f64,
    /// Seed for the assignment.
    pub seed: u64,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            rfd_share: 0.12,
            vendor_default_share: 0.6,
            inconsistent_share: 0.1,
            max_suppress_mix: vec![(10, 0.2), (30, 0.2), (60, 0.6)],
            mrai_share: 0.3,
            seed: 0,
        }
    }
}

/// The planted ground truth.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Deployment {
    /// Damping ASs and their configurations.
    pub damping: BTreeMap<AsId, AsDeployment>,
    /// Sessions (directed: local AS receiving from peer) running MRAI.
    pub mrai_sessions: BTreeSet<(AsId, AsId)>,
}

impl Deployment {
    /// Plant a deployment into `topology`.
    pub fn assign(topology: &Topology, config: &DeploymentConfig) -> Deployment {
        let mut rng = SimRng::new(config.seed).split("deployment");
        let adjacency = topology.adjacency();

        // Never-damping set: beacon sites and their direct upstreams.
        let mut protected: BTreeSet<AsId> = topology.beacon_sites.iter().copied().collect();
        for &site in &topology.beacon_sites {
            for &(n, _) in adjacency.get(&site).into_iter().flatten() {
                protected.insert(n);
            }
        }

        let mut damping = BTreeMap::new();
        for info in &topology.ases {
            if protected.contains(&info.id) || info.tier == Tier::BeaconSite {
                continue;
            }
            if !rng.chance(config.rfd_share) {
                continue;
            }
            // Parameter set.
            let mut params = if rng.chance(config.vendor_default_share) {
                if rng.chance(0.5) {
                    VendorProfile::Cisco.params()
                } else {
                    VendorProfile::Juniper.params()
                }
            } else {
                // Recommendation followers: 6000, or stricter custom.
                let thresholds = [6000.0, 8000.0, 10000.0];
                let thr = thresholds[rng.index(thresholds.len())];
                VendorProfile::Rfc7454.params().with_suppress_threshold(thr)
            };
            // Max-suppress-time from the mix.
            let total_w: f64 = config.max_suppress_mix.iter().map(|&(_, w)| w).sum();
            if total_w > 0.0 {
                let mut target = rng.uniform() * total_w;
                for &(mins, w) in &config.max_suppress_mix {
                    if target < w {
                        params = params.with_max_suppress(SimDuration::from_mins(mins));
                        break;
                    }
                    target -= w;
                }
            }
            // A short max-suppress-time with default half-life caps the
            // penalty *below* the suppress threshold (RFC 2439 §4.2's
            // ceiling), i.e. damping would never engage. Operators who
            // configure aggressive max-suppress values tune the half-life
            // down as well; reproduce that so the Fig. 13 plateau at
            // 10 min exists at all.
            if params.penalty_ceiling() <= params.suppress_threshold * 1.2 {
                let target_log = (2.4 * params.suppress_threshold / params.reuse_threshold).log2();
                let hl_ms = params.max_suppress_time.as_millis() as f64 / target_log;
                params.half_life = SimDuration::from_millis(hl_ms.max(60_000.0) as u64);
                debug_assert!(params.penalty_ceiling() > params.suppress_threshold);
            }
            // Mode.
            let neighbors = &adjacency[&info.id];
            let mode = if neighbors.len() >= 2 && rng.chance(config.inconsistent_share) {
                let spared = neighbors[rng.index(neighbors.len())].0;
                DampMode::ExceptNeighbor(spared)
            } else {
                DampMode::AllNeighbors
            };
            damping.insert(info.id, AsDeployment { params, mode });
        }

        // MRAI per directed session.
        let mut mrai_sessions = BTreeSet::new();
        for link in &topology.links {
            for &(a, b) in &[(link.a, link.b), (link.b, link.a)] {
                if rng.chance(config.mrai_share) {
                    mrai_sessions.insert((a, b));
                }
            }
        }

        Deployment {
            damping,
            mrai_sessions,
        }
    }

    /// Does `local` damp routes received from `peer`?
    pub fn damps_session(&self, local: AsId, peer: AsId) -> Option<&RfdParams> {
        let dep = self.damping.get(&local)?;
        match &dep.mode {
            DampMode::AllNeighbors => Some(&dep.params),
            DampMode::ExceptNeighbor(spared) if *spared != peer => Some(&dep.params),
            _ => None,
        }
    }

    /// The session-policy hook to pass to [`Topology::instantiate`].
    pub fn policy_hook(&self) -> impl FnMut(AsId, AsId, SessionPolicy) -> SessionPolicy + '_ {
        move |local, peer, mut policy| {
            if let Some(params) = self.damps_session(local, peer) {
                policy = policy.with_rfd(*params);
            }
            if self.mrai_sessions.contains(&(local, peer)) {
                policy = policy.with_mrai(SimDuration::from_secs(30));
            }
            policy
        }
    }

    /// All damping ASs (the oracle ground truth).
    pub fn ground_truth(&self) -> BTreeSet<AsId> {
        self.damping.keys().copied().collect()
    }

    /// Damping ASs whose configuration triggers at the given flap
    /// interval (sustained flapping) — the oracle for per-interval
    /// experiments (Fig. 12).
    pub fn triggered_at(&self, interval: SimDuration) -> BTreeSet<AsId> {
        self.damping
            .iter()
            .filter(|(_, d)| d.params.triggers_at(interval))
            .map(|(&a, _)| a)
            .collect()
    }

    /// The inconsistently-damping ASs.
    pub fn inconsistent(&self) -> BTreeSet<AsId> {
        self.damping
            .iter()
            .filter(|(_, d)| matches!(d.mode, DampMode::ExceptNeighbor(_)))
            .map(|(&a, _)| a)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::TopologyConfig;

    fn topo(seed: u64) -> Topology {
        topology::generate(&TopologyConfig::default_with_seed(seed))
    }

    #[test]
    fn share_is_respected_roughly() {
        let t = topo(1);
        let d = Deployment::assign(
            &t,
            &DeploymentConfig {
                rfd_share: 0.2,
                ..Default::default()
            },
        );
        let eligible = t.len() - t.beacon_sites.len();
        let share = d.damping.len() as f64 / eligible as f64;
        assert!((share - 0.2).abs() < 0.08, "share={share}");
    }

    #[test]
    fn beacon_sites_and_upstreams_never_damp() {
        let t = topo(2);
        let d = Deployment::assign(
            &t,
            &DeploymentConfig {
                rfd_share: 1.0,
                ..Default::default()
            },
        );
        let adj = t.adjacency();
        for &site in &t.beacon_sites {
            assert!(!d.damping.contains_key(&site));
            for &(up, _) in &adj[&site] {
                assert!(!d.damping.contains_key(&up), "upstream {up} damps");
            }
        }
    }

    #[test]
    fn vendor_mix_close_to_config() {
        let t = topo(3);
        let cfg = DeploymentConfig {
            rfd_share: 1.0,
            vendor_default_share: 0.6,
            ..Default::default()
        };
        let d = Deployment::assign(&t, &cfg);
        // Vendor defaults suppress at 2000 (Cisco) or 3000 (Juniper);
        // followers of the recommendations at 6000 or more.
        let thresholds = d.damping.values().map(|d| d.params.suppress_threshold);
        assert!(thresholds.clone().all(|t| t <= 3000.0 || t >= 6000.0));
        let vendor_dampers = thresholds.filter(|&t| t <= 3000.0).count();
        let vendor = vendor_dampers as f64 / d.damping.len() as f64;
        assert!((vendor - 0.6).abs() < 0.1, "vendor share {vendor}");
    }

    #[test]
    fn inconsistent_mode_spares_one_neighbor() {
        let t = topo(4);
        let cfg = DeploymentConfig {
            rfd_share: 1.0,
            inconsistent_share: 1.0,
            ..Default::default()
        };
        let d = Deployment::assign(&t, &cfg);
        assert!(!d.inconsistent().is_empty());
        let adj = t.adjacency();
        for (&asn, dep) in &d.damping {
            if let DampMode::ExceptNeighbor(spared) = dep.mode {
                assert!(
                    adj[&asn].iter().any(|&(n, _)| n == spared),
                    "spared {spared} not a neighbor"
                );
                assert!(d.damps_session(asn, spared).is_none());
                // Some other neighbor is damped.
                let other = adj[&asn].iter().find(|&&(n, _)| n != spared);
                if let Some(&(other, _)) = other {
                    assert!(d.damps_session(asn, other).is_some());
                }
            }
        }
    }

    #[test]
    fn triggered_at_separates_profiles() {
        let t = topo(5);
        let cfg = DeploymentConfig {
            rfd_share: 0.5,
            ..Default::default()
        };
        let d = Deployment::assign(&t, &cfg);
        let at_1 = d.triggered_at(SimDuration::from_mins(1));
        let at_5 = d.triggered_at(SimDuration::from_mins(5));
        let at_15 = d.triggered_at(SimDuration::from_mins(15));
        assert!(at_5.len() <= at_1.len());
        assert!(at_15.is_empty(), "nothing triggers at 15 min");
        // Everything triggered at 5 min also triggers at 1 min.
        assert!(at_5.is_subset(&at_1));
    }

    #[test]
    fn policy_hook_installs_rfd_and_mrai() {
        let t = topo(6);
        let cfg = DeploymentConfig {
            rfd_share: 0.5,
            mrai_share: 0.5,
            ..Default::default()
        };
        let d = Deployment::assign(&t, &cfg);
        let net = t.instantiate(bgpsim::NetworkConfig::default(), d.policy_hook());
        let mut rfd_sessions = 0;
        let mut mrai_sessions = 0;
        for asn in net.as_ids() {
            let r = net.router(asn).unwrap();
            for peer in r.neighbor_ids() {
                let pol = r.session_policy(peer).unwrap();
                if pol.rfd.is_some() {
                    rfd_sessions += 1;
                    assert!(d.damps_session(asn, peer).is_some());
                }
                if pol.mrai.is_some() {
                    mrai_sessions += 1;
                }
            }
        }
        assert!(rfd_sessions > 0);
        assert!(mrai_sessions > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let t = topo(7);
        let cfg = DeploymentConfig::default();
        let a = Deployment::assign(&t, &cfg);
        let b = Deployment::assign(&t, &cfg);
        assert_eq!(a.damping, b.damping);
        assert_eq!(a.mrai_sessions, b.mrai_sessions);
    }
}
