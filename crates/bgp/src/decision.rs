//! The BGP decision process.
//!
//! Given every *usable* candidate route for a prefix (one per neighbor,
//! with suppressed and looped routes already excluded), pick the best by
//! the standard ladder:
//!
//! 1. highest local preference (from the business relationship:
//!    customer > peer > provider);
//! 2. shortest AS path (prepending counts);
//! 3. lowest neighbor AS number (deterministic tie-break, standing in for
//!    the IGP/router-id steps of real implementations).
//!
//! A locally-originated route always wins — the simulator handles that in
//! the router before consulting this module.

use crate::message::AsId;
use crate::policy::Relationship;
use crate::rib::LaneRoute;

/// One candidate in the decision process.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Candidate {
    /// The neighbor the route was learned from.
    pub neighbor: AsId,
    /// Relationship of that neighbor (determines local preference).
    pub relationship: Relationship,
    /// Length of the route's AS path, prepending included.
    pub path_len: usize,
    /// The route itself.
    pub route: LaneRoute,
}

impl Candidate {
    /// Lexicographic preference key: *larger is better*.
    /// (local_pref ↑, path length ↓, neighbor ASN ↓)
    fn key(&self) -> (u32, isize, i64) {
        (
            self.relationship.local_pref(),
            -(self.path_len as isize),
            -i64::from(self.neighbor.0),
        )
    }
}

/// Select the best route among candidates; `None` when empty.
pub(crate) fn select_best(candidates: impl IntoIterator<Item = Candidate>) -> Option<Candidate> {
    candidates.into_iter().max_by(|a, b| a.key().cmp(&b.key()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::PathArena;

    /// A route over a path of `len` distinct ASs, interned in `paths`.
    fn route_with_len(paths: &mut PathArena, len: usize) -> LaneRoute {
        let asns: Vec<AsId> = (0..len as u32).map(|i| AsId(1000 + i)).collect();
        LaneRoute {
            path: paths.intern(&asns),
            aggregator: None,
        }
    }

    fn cand(paths: &PathArena, neighbor: u32, rel: Relationship, route: LaneRoute) -> Candidate {
        Candidate {
            neighbor: AsId(neighbor),
            relationship: rel,
            path_len: paths.len(route.path),
            route,
        }
    }

    #[test]
    fn empty_input_selects_nothing() {
        assert!(select_best(std::iter::empty()).is_none());
    }

    #[test]
    fn customer_beats_shorter_provider_path() {
        let mut paths = PathArena::default();
        let long = route_with_len(&mut paths, 5);
        let short = route_with_len(&mut paths, 1);
        let best = select_best(vec![
            cand(&paths, 1, Relationship::Customer, long),
            cand(&paths, 2, Relationship::Provider, short),
        ])
        .unwrap();
        assert_eq!(best.neighbor, AsId(1), "local-pref dominates path length");
    }

    #[test]
    fn shorter_path_wins_within_same_pref() {
        let mut paths = PathArena::default();
        let long = route_with_len(&mut paths, 4);
        let short = route_with_len(&mut paths, 2);
        let best = select_best(vec![
            cand(&paths, 9, Relationship::Peer, long),
            cand(&paths, 1, Relationship::Peer, short),
        ])
        .unwrap();
        assert_eq!(best.neighbor, AsId(1));
    }

    #[test]
    fn lowest_neighbor_id_breaks_full_ties() {
        let mut paths = PathArena::default();
        let a = route_with_len(&mut paths, 3);
        let b = route_with_len(&mut paths, 3);
        let best = select_best(vec![
            cand(&paths, 700, Relationship::Peer, a),
            cand(&paths, 30, Relationship::Peer, b),
        ])
        .unwrap();
        assert_eq!(best.neighbor, AsId(30));
    }

    #[test]
    fn prepending_counts_against_path() {
        let mut paths = PathArena::default();
        let plain = route_with_len(&mut paths, 3);
        // AS 77 prepended three times onto a two-hop path: length 5.
        let prepended = LaneRoute {
            path: paths.intern(&[AsId(77), AsId(77), AsId(77), AsId(1000), AsId(1001)]),
            aggregator: None,
        };
        let best = select_best(vec![
            cand(&paths, 1, Relationship::Peer, prepended),
            cand(&paths, 2, Relationship::Peer, plain),
        ])
        .unwrap();
        assert_eq!(best.neighbor, AsId(2));
    }

    #[test]
    fn peer_beats_provider() {
        let mut paths = PathArena::default();
        let a = route_with_len(&mut paths, 3);
        let b = route_with_len(&mut paths, 3);
        let best = select_best(vec![
            cand(&paths, 1, Relationship::Provider, a),
            cand(&paths, 2, Relationship::Peer, b),
        ])
        .unwrap();
        assert_eq!(best.neighbor, AsId(2));
    }
}
