//! Routing Information Bases.
//!
//! For every (session, prefix) a router keeps one `AdjEntry` — the last
//! route the neighbor advertised, together with its [`RfdState`] — and per
//! prefix a Loc-RIB selection. A simulation lane owns these entries for
//! its one prefix (see [`crate::network`]) and stores each route as a
//! `LaneRoute`, whose path is an id into the lane's path arena. Crucially
//! for RFD semantics, the Adj-RIB-In entry keeps tracking updates for a
//! *suppressed* route: the penalty keeps growing with continued flaps and
//! the stored route is re-evaluated (not re-requested) on release.
//!
//! [`Route`] is a route outside the simulator (a tap record, a collector
//! dump), with its path as an [`AsPath`].

use serde::{Deserialize, Serialize};

use crate::message::{AggregatorStamp, AsPath};
use crate::paths::{PathArena, PathId};
use crate::rfd::{FlapKind, RfdState};

/// A route as stored in a RIB: path plus the transitive beacon stamp.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Route {
    /// AS path as received (neighbor first, origin last).
    pub path: AsPath,
    /// Transitive aggregator timestamp, if the originator set one.
    pub aggregator: Option<AggregatorStamp>,
}

/// A route as a simulation lane stores it: the path as an id into the
/// lane's path arena, plus the stamp. Equal ids are equal paths, so two
/// of these are equal exactly when their [`Route`]s are.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct LaneRoute {
    /// AS path in the lane's arena (neighbor first, origin last).
    pub path: PathId,
    /// Transitive aggregator timestamp, if the originator set one.
    pub aggregator: Option<AggregatorStamp>,
}

impl LaneRoute {
    /// The route with its path built from `paths`.
    pub(crate) fn materialize(self, paths: &PathArena) -> Route {
        Route {
            path: paths.path(self.path),
            aggregator: self.aggregator,
        }
    }
}

/// One (session, prefix) entry of a neighbor's Adj-RIB-In.
#[derive(Clone, Debug, Default)]
pub(crate) struct AdjEntry {
    /// The neighbor's current route; `None` after a withdrawal.
    pub route: Option<LaneRoute>,
    /// Damping state for this (prefix, session).
    pub rfd: RfdState,
    /// Whether this prefix was ever announced on the session (so a new
    /// announcement can be classified initial vs. re-advertisement).
    pub ever_announced: bool,
}

impl AdjEntry {
    /// The route, but only if it is currently usable (present and not
    /// suppressed by RFD).
    pub(crate) fn usable(&self) -> Option<LaneRoute> {
        if self.rfd.is_suppressed() {
            None
        } else {
            self.route
        }
    }

    /// Apply an announcement, classifying the flap it represents.
    /// Returns the classification and whether the stored route changed.
    pub(crate) fn apply_announce(&mut self, route: LaneRoute) -> (FlapKind, bool) {
        let kind = match (self.route, self.ever_announced) {
            (Some(old), _) if old == route => FlapKind::Duplicate,
            (Some(_), _) => FlapKind::AttributeChange,
            (None, true) => FlapKind::Readvertisement,
            (None, false) => FlapKind::InitialAdvertisement,
        };
        let changed = kind != FlapKind::Duplicate;
        self.route = Some(route);
        self.ever_announced = true;
        (kind, changed)
    }

    /// Apply a withdrawal. Returns the flap classification ([`FlapKind::Withdrawal`]
    /// when a route was actually removed, [`FlapKind::Duplicate`] otherwise)
    /// and whether anything changed.
    pub(crate) fn apply_withdraw(&mut self) -> (FlapKind, bool) {
        if self.route.take().is_some() {
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
    use netsim::SimTime;

    /// A route over the one-AS path `[tag]`, interned in `paths`.
    fn route(paths: &mut PathArena, tag: u32) -> LaneRoute {
        LaneRoute {
            path: paths.intern(&[AsId(tag)]),
            aggregator: None,
        }
    }

    #[test]
    fn first_announcement_is_initial() {
        let mut paths = PathArena::default();
        let mut entry = AdjEntry::default();
        let (kind, changed) = entry.apply_announce(route(&mut paths, 1));
        assert_eq!(kind, FlapKind::InitialAdvertisement);
        assert!(changed);
    }

    #[test]
    fn same_route_again_is_duplicate() {
        let mut paths = PathArena::default();
        let mut entry = AdjEntry::default();
        entry.apply_announce(route(&mut paths, 1));
        let (kind, changed) = entry.apply_announce(route(&mut paths, 1));
        assert_eq!(kind, FlapKind::Duplicate);
        assert!(!changed);
    }

    #[test]
    fn different_route_is_attribute_change() {
        let mut paths = PathArena::default();
        let mut entry = AdjEntry::default();
        entry.apply_announce(route(&mut paths, 1));
        let (kind, changed) = entry.apply_announce(route(&mut paths, 2));
        assert_eq!(kind, FlapKind::AttributeChange);
        assert!(changed);
    }

    #[test]
    fn withdraw_then_announce_is_readvertisement() {
        let mut paths = PathArena::default();
        let mut entry = AdjEntry::default();
        entry.apply_announce(route(&mut paths, 1));
        let (kind, changed) = entry.apply_withdraw();
        assert_eq!(kind, FlapKind::Withdrawal);
        assert!(changed);
        let (kind, _) = entry.apply_announce(route(&mut paths, 1));
        assert_eq!(kind, FlapKind::Readvertisement);
    }

    #[test]
    fn withdraw_of_unknown_prefix_is_duplicate() {
        let mut entry = AdjEntry::default();
        let (kind, changed) = entry.apply_withdraw();
        assert_eq!(kind, FlapKind::Duplicate);
        assert!(!changed);
    }

    #[test]
    fn suppressed_route_is_unusable_but_kept() {
        use crate::rfd::{FlapKind as FK, VendorProfile};
        let params = VendorProfile::Cisco.params();
        let mut paths = PathArena::default();
        let mut entry = AdjEntry::default();
        entry.apply_announce(route(&mut paths, 1));
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
