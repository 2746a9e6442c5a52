//! Routing Information Bases.
//!
//! Each router keeps one [`AdjRibIn`] per neighbor — the last route that
//! neighbor advertised per prefix, together with its [`RfdState`] — and a
//! Loc-RIB of selected best routes (owned by [`crate::router::Router`]).
//! Crucially for RFD semantics, the Adj-RIB-In keeps tracking updates for
//! a *suppressed* route: the penalty keeps growing with continued flaps
//! and the stored route is re-evaluated (not re-requested) on release.

use serde::{Deserialize, Serialize};

use netsim::SimTime;

use crate::message::{AggregatorStamp, AsPath};
use crate::rfd::{FlapKind, RfdState};

/// A route as stored in a RIB: path plus the transitive beacon stamp.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Route {
    /// AS path as received (neighbor first, origin last).
    pub path: AsPath,
    /// Transitive aggregator timestamp, if the originator set one.
    pub aggregator: Option<AggregatorStamp>,
}

/// Per-prefix state within one neighbor's Adj-RIB-In.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AdjEntry {
    /// The neighbor's current route; `None` after a withdrawal.
    pub route: Option<Route>,
    /// Damping state for this (prefix, session).
    pub rfd: RfdState,
    /// Whether this prefix was ever announced on the session (so a new
    /// announcement can be classified initial vs. re-advertisement).
    pub ever_announced: bool,
    /// When the current route was learned (diagnostics only).
    pub learned_at: SimTime,
}

impl AdjEntry {
    /// The route, but only if it is currently usable (present and not
    /// suppressed by RFD).
    pub fn usable(&self) -> Option<&Route> {
        if self.rfd.is_suppressed() {
            None
        } else {
            self.route.as_ref()
        }
    }
}

/// One neighbor's Adj-RIB-In: one [`AdjEntry`] slot per prefix, indexed
/// by the network's dense prefix id. A prefix never heard on the session
/// holds the default (empty, unpenalised) entry.
#[derive(Clone, Debug, Default)]
pub struct AdjRibIn {
    entries: Vec<AdjEntry>,
}

impl AdjRibIn {
    /// A RIB with `prefixes` empty slots.
    pub fn new(prefixes: usize) -> Self {
        AdjRibIn {
            entries: vec![AdjEntry::default(); prefixes],
        }
    }

    /// Add an empty slot for a newly interned prefix.
    pub fn push_slot(&mut self) {
        self.entries.push(AdjEntry::default());
    }

    /// The entry for prefix id `pid`.
    pub fn get(&self, pid: usize) -> &AdjEntry {
        &self.entries[pid]
    }

    /// Mutable entry access.
    pub fn get_mut(&mut self, pid: usize) -> &mut AdjEntry {
        &mut self.entries[pid]
    }

    /// Apply an announcement, classifying the flap it represents.
    /// Returns the classification and whether the stored route changed.
    pub fn apply_announce(&mut self, pid: usize, route: Route, now: SimTime) -> (FlapKind, bool) {
        let entry = &mut self.entries[pid];
        let kind = match (&entry.route, entry.ever_announced) {
            (Some(old), _) if *old == route => FlapKind::Duplicate,
            (Some(_), _) => FlapKind::AttributeChange,
            (None, true) => FlapKind::Readvertisement,
            (None, false) => FlapKind::InitialAdvertisement,
        };
        let changed = kind != FlapKind::Duplicate;
        entry.route = Some(route);
        entry.ever_announced = true;
        entry.learned_at = now;
        (kind, changed)
    }

    /// Apply a withdrawal. Returns the flap classification ([`FlapKind::Withdrawal`]
    /// when a route was actually removed, [`FlapKind::Duplicate`] otherwise)
    /// and whether anything changed.
    pub fn apply_withdraw(&mut self, pid: usize, now: SimTime) -> (FlapKind, bool) {
        let entry = &mut self.entries[pid];
        if entry.route.is_some() {
            entry.route = None;
            entry.learned_at = now;
            (FlapKind::Withdrawal, true)
        } else {
            (FlapKind::Duplicate, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::AsId;

    /// The prefix id the tests use.
    const PID: usize = 0;

    fn route(tag: u32) -> Route {
        Route {
            path: AsPath::from_slice(&[AsId(tag)]),
            aggregator: None,
        }
    }

    #[test]
    fn first_announcement_is_initial() {
        let mut rib = AdjRibIn::new(1);
        let (kind, changed) = rib.apply_announce(PID, route(1), SimTime::ZERO);
        assert_eq!(kind, FlapKind::InitialAdvertisement);
        assert!(changed);
    }

    #[test]
    fn same_route_again_is_duplicate() {
        let mut rib = AdjRibIn::new(1);
        rib.apply_announce(PID, route(1), SimTime::ZERO);
        let (kind, changed) = rib.apply_announce(PID, route(1), SimTime::from_secs(1));
        assert_eq!(kind, FlapKind::Duplicate);
        assert!(!changed);
    }

    #[test]
    fn different_route_is_attribute_change() {
        let mut rib = AdjRibIn::new(1);
        rib.apply_announce(PID, route(1), SimTime::ZERO);
        let (kind, changed) = rib.apply_announce(PID, route(2), SimTime::from_secs(1));
        assert_eq!(kind, FlapKind::AttributeChange);
        assert!(changed);
    }

    #[test]
    fn withdraw_then_announce_is_readvertisement() {
        let mut rib = AdjRibIn::new(1);
        rib.apply_announce(PID, route(1), SimTime::ZERO);
        let (kind, changed) = rib.apply_withdraw(PID, SimTime::from_secs(1));
        assert_eq!(kind, FlapKind::Withdrawal);
        assert!(changed);
        let (kind, _) = rib.apply_announce(PID, route(1), SimTime::from_secs(2));
        assert_eq!(kind, FlapKind::Readvertisement);
    }

    #[test]
    fn withdraw_of_unknown_prefix_is_duplicate() {
        let mut rib = AdjRibIn::new(1);
        let (kind, changed) = rib.apply_withdraw(PID, SimTime::ZERO);
        assert_eq!(kind, FlapKind::Duplicate);
        assert!(!changed);
    }

    #[test]
    fn suppressed_route_is_unusable_but_kept() {
        use crate::rfd::{FlapKind as FK, VendorProfile};
        let params = VendorProfile::Cisco.params();
        let mut rib = AdjRibIn::new(1);
        rib.apply_announce(PID, route(1), SimTime::ZERO);
        let entry = rib.get_mut(PID);
        // Hammer the penalty until suppression.
        let mut t = SimTime::ZERO;
        while !entry.rfd.is_suppressed() {
            entry.rfd.record(FK::Withdrawal, t, &params);
            t += netsim::SimDuration::from_secs(10);
        }
        assert!(rib.get(PID).usable().is_none());
        assert!(rib.get(PID).route.is_some(), "route kept while suppressed");
    }
}
