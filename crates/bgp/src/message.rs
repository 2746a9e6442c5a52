//! BGP message and attribute types.
//!
//! The simulator exchanges single-prefix updates: a `BgpAction` — an
//! announcement (carrying an AS path, interned in the lane's path arena,
//! and an optional transitive [`AggregatorStamp`]) or a withdrawal — for
//! one prefix. Real UPDATE messages can pack several NLRI; one prefix per
//! message is equivalent at the routing level and keeps the event queue
//! simple. [`AsPath`] is the path's form outside the simulator.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use netsim::SimTime;

use crate::paths::PathId;

/// An Autonomous System number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AsId(pub u32);

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// An AS path: the sequence of ASs a route has traversed, most recent
/// (neighbor of the receiver) first, origin last. Prepending is represented
/// naturally by repeated entries.
///
/// This is the form a path takes outside the simulator: in tap records,
/// collector dumps and labels. Inside a simulation lane a route carries a
/// copyable id into the lane's hash-consed path arena instead, and the
/// lane builds each distinct tapped path as an `AsPath` once, so tap
/// records that share a path share one allocation. `Arc` rather than
/// `Rc` keeps tap records `Send`.
#[derive(Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct AsPath(Arc<[AsId]>);

impl AsPath {
    /// The empty path (a route originated locally).
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// Build from an ordered list (first hop → origin).
    pub fn from_slice(asns: &[AsId]) -> Self {
        AsPath(asns.into())
    }

    /// The ASs on the path, first hop first.
    pub fn asns(&self) -> &[AsId] {
        &self.0
    }

    /// Path length *including* prepending (what the decision process uses).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for a locally-originated route.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The originating AS (last element), if any.
    pub fn origin(&self) -> Option<AsId> {
        self.0.last().copied()
    }

    /// True if `asn` appears anywhere on the path (receiver-side loop check).
    pub fn contains(&self, asn: AsId) -> bool {
        self.0.contains(&asn)
    }

    /// A new path with `asn` prepended `count` times (sender-side export).
    pub fn prepend(&self, asn: AsId, count: usize) -> AsPath {
        std::iter::repeat_n(asn, count)
            .chain(self.0.iter().copied())
            .collect()
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|a| a.0.to_string()).collect();
        write!(f, "[{}]", parts.join(" "))
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromIterator<AsId> for AsPath {
    fn from_iter<T: IntoIterator<Item = AsId>>(iter: T) -> Self {
        AsPath(iter.into_iter().collect())
    }
}

/// The transitive aggregator attribute, repurposed (as by the RIPE beacons
/// and the paper's RFD beacons) to carry the beacon's send timestamp so
/// vantage points can attribute an update to the beacon event that caused
/// it. `valid` models the 1 % of real announcements the paper observed with
/// an empty/invalid aggregator IP, which their pipeline discards.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct AggregatorStamp {
    /// Beacon send time encoded by the originator.
    pub sent_at: SimTime,
    /// False when the aggregator IP field was mangled en route.
    pub valid: bool,
}

impl AggregatorStamp {
    /// A well-formed stamp for a beacon event at `sent_at`.
    pub fn new(sent_at: SimTime) -> Self {
        AggregatorStamp {
            sent_at,
            valid: true,
        }
    }

    /// The stamp with its aggregator IP corrupted (timestamp unusable).
    pub fn corrupted(self) -> Self {
        AggregatorStamp {
            valid: false,
            ..self
        }
    }
}

/// What an update does to a prefix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BgpAction {
    /// Advertise a route with the given path and optional aggregator stamp.
    Announce {
        /// AS path in the lane's arena, first hop first (the receiver's
        /// neighbor is its head).
        path: PathId,
        /// Transitive beacon timestamp, forwarded verbatim.
        aggregator: Option<AggregatorStamp>,
    },
    /// Withdraw any previously advertised route for the prefix.
    Withdraw,
}

impl BgpAction {
    /// True for an announcement.
    pub(crate) fn is_announce(&self) -> bool {
        matches!(self, BgpAction::Announce { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(ids: &[u32]) -> AsPath {
        ids.iter().map(|&i| AsId(i)).collect()
    }

    #[test]
    fn prepend_builds_path_towards_receiver() {
        let path = p(&[2, 3]);
        let out = path.prepend(AsId(1), 1);
        assert_eq!(out.asns(), &[AsId(1), AsId(2), AsId(3)]);
        assert_eq!(out.origin(), Some(AsId(3)));
    }

    #[test]
    fn prepending_increases_length_only() {
        let path = p(&[2, 3]);
        let padded = path.prepend(AsId(2), 3);
        assert_eq!(padded.len(), 5);
        assert_eq!(
            padded.asns(),
            &[AsId(2), AsId(2), AsId(2), AsId(2), AsId(3)]
        );
    }

    #[test]
    fn contains_checks_membership() {
        let path = p(&[7, 8, 9]);
        assert!(path.contains(AsId(8)));
        assert!(!path.contains(AsId(10)));
    }

    #[test]
    fn empty_path_is_local_origin() {
        let e = AsPath::empty();
        assert!(e.is_empty());
        assert_eq!(e.origin(), None);
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(p(&[1, 2]).to_string(), "[1 2]");
        assert_eq!(AsId(65000).to_string(), "AS65000");
    }

    #[test]
    fn aggregator_corruption_clears_validity() {
        let s = AggregatorStamp::new(SimTime::from_secs(5));
        assert!(s.valid);
        let c = s.corrupted();
        assert!(!c.valid);
        assert_eq!(c.sent_at, s.sent_at);
    }

    #[test]
    fn action_kind() {
        let mut paths = crate::paths::PathArena::default();
        let a = BgpAction::Announce {
            path: paths.intern(&[AsId(1)]),
            aggregator: None,
        };
        assert!(a.is_announce());
        assert!(!BgpAction::Withdraw.is_announce());
    }
}
