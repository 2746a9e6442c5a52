//! Routing Information Bases.
//!
//! For every (session, prefix) a router keeps one [`AdjEntry`] — the last
//! route the neighbor advertised, together with its [`RfdState`] — and per
//! prefix a Loc-RIB selection. A simulation lane owns these entries for
//! its one prefix (see [`crate::network`]). Crucially for RFD semantics,
//! the Adj-RIB-In entry keeps tracking updates for a *suppressed* route:
//! the penalty keeps growing with continued flaps and the stored route is
//! re-evaluated (not re-requested) on release.

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

/// One (session, prefix) entry of a neighbor's Adj-RIB-In.
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

    /// Apply an announcement, classifying the flap it represents.
    /// Returns the classification and whether the stored route changed.
    pub fn apply_announce(&mut self, route: Route, now: SimTime) -> (FlapKind, bool) {
        let kind = match (&self.route, self.ever_announced) {
            (Some(old), _) if *old == route => FlapKind::Duplicate,
            (Some(_), _) => FlapKind::AttributeChange,
            (None, true) => FlapKind::Readvertisement,
            (None, false) => FlapKind::InitialAdvertisement,
        };
        let changed = kind != FlapKind::Duplicate;
        self.route = Some(route);
        self.ever_announced = true;
        self.learned_at = now;
        (kind, changed)
    }

    /// Apply a withdrawal. Returns the flap classification ([`FlapKind::Withdrawal`]
    /// when a route was actually removed, [`FlapKind::Duplicate`] otherwise)
    /// and whether anything changed.
    pub fn apply_withdraw(&mut self, now: SimTime) -> (FlapKind, bool) {
        if self.route.is_some() {
            self.route = None;
            self.learned_at = now;
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

    fn route(tag: u32) -> Route {
        Route {
            path: AsPath::from_slice(&[AsId(tag)]),
            aggregator: None,
        }
    }

    #[test]
    fn first_announcement_is_initial() {
        let mut entry = AdjEntry::default();
        let (kind, changed) = entry.apply_announce(route(1), SimTime::ZERO);
        assert_eq!(kind, FlapKind::InitialAdvertisement);
        assert!(changed);
    }

    #[test]
    fn same_route_again_is_duplicate() {
        let mut entry = AdjEntry::default();
        entry.apply_announce(route(1), SimTime::ZERO);
        let (kind, changed) = entry.apply_announce(route(1), SimTime::from_secs(1));
        assert_eq!(kind, FlapKind::Duplicate);
        assert!(!changed);
    }

    #[test]
    fn different_route_is_attribute_change() {
        let mut entry = AdjEntry::default();
        entry.apply_announce(route(1), SimTime::ZERO);
        let (kind, changed) = entry.apply_announce(route(2), SimTime::from_secs(1));
        assert_eq!(kind, FlapKind::AttributeChange);
        assert!(changed);
    }

    #[test]
    fn withdraw_then_announce_is_readvertisement() {
        let mut entry = AdjEntry::default();
        entry.apply_announce(route(1), SimTime::ZERO);
        let (kind, changed) = entry.apply_withdraw(SimTime::from_secs(1));
        assert_eq!(kind, FlapKind::Withdrawal);
        assert!(changed);
        let (kind, _) = entry.apply_announce(route(1), SimTime::from_secs(2));
        assert_eq!(kind, FlapKind::Readvertisement);
    }

    #[test]
    fn withdraw_of_unknown_prefix_is_duplicate() {
        let mut entry = AdjEntry::default();
        let (kind, changed) = entry.apply_withdraw(SimTime::ZERO);
        assert_eq!(kind, FlapKind::Duplicate);
        assert!(!changed);
    }

    #[test]
    fn suppressed_route_is_unusable_but_kept() {
        use crate::rfd::{FlapKind as FK, VendorProfile};
        let params = VendorProfile::Cisco.params();
        let mut entry = AdjEntry::default();
        entry.apply_announce(route(1), SimTime::ZERO);
        // Hammer the penalty until suppression.
        let mut t = SimTime::ZERO;
        while !entry.rfd.is_suppressed() {
            entry.rfd.record(FK::Withdrawal, t, &params);
            t += netsim::SimDuration::from_secs(10);
        }
        assert!(entry.usable().is_none());
        assert!(entry.route.is_some(), "route kept while suppressed");
    }
}
