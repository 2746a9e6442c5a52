//! Path cleaning: prepending removal and loop filtering (§4.2).
//!
//! The collector cleans each distinct tap path once, as it first
//! records it ([`crate::CollectorSet::collection`]), so the dump's path
//! table holds only clean paths and no consumer cleans again.

use std::cmp::Ordering;
use std::fmt;

use bgpsim::{AsId, AsPath};
use serde::{Deserialize, Serialize};

/// A cleaned AS path: no prepending, verified loop-free.
///
/// Order is as observed at the collector: the vantage point's AS first,
/// the beacon (origin) AS last. A path that needed no cleaning shares
/// its [`AsPath`]'s allocation.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CleanPath(AsPath);

impl CleanPath {
    /// The ASs on the path, vantage first.
    pub fn asns(&self) -> &[AsId] {
        self.0.asns()
    }

    /// Number of distinct hops.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty (never produced by [`clean_path`]).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The origin (beacon) AS.
    pub fn origin(&self) -> Option<AsId> {
        self.0.origin()
    }

    /// The vantage-point AS.
    pub fn vantage(&self) -> Option<AsId> {
        self.asns().first().copied()
    }

    /// True if `asn` is on the path.
    pub fn contains(&self, asn: AsId) -> bool {
        self.0.contains(asn)
    }

    /// Adjacent AS pairs (links) along the path.
    pub fn links(&self) -> impl Iterator<Item = (AsId, AsId)> + '_ {
        self.asns().windows(2).map(|w| (w[0], w[1]))
    }

    /// Construct from raw ASNs — intended for tests and synthetic
    /// scenarios; production code should use [`clean_path`].
    pub fn from_asns(asns: &[AsId]) -> Self {
        CleanPath(AsPath::from_slice(asns))
    }
}

impl PartialOrd for CleanPath {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CleanPath {
    fn cmp(&self, other: &Self) -> Ordering {
        self.asns().cmp(other.asns())
    }
}

impl fmt::Debug for CleanPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CleanPath").field(&self.asns()).finish()
    }
}

impl fmt::Display for CleanPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.asns().iter().map(|a| a.0.to_string()).collect();
        write!(f, "{}", parts.join("-"))
    }
}

/// Clean a raw AS path: collapse prepending, reject loops and empties.
///
/// Returns `None` for paths the analysis must discard (the paper saw no
/// loops in its dataset but the pipeline still guards against them). A
/// path with no prepending is shared, not copied; only collapsing
/// prepending allocates.
pub fn clean_path(path: &AsPath) -> Option<CleanPath> {
    let asns = path.asns();
    if asns.is_empty() {
        return None;
    }
    let mut prepended = false;
    for i in 1..asns.len() {
        if asns[i] == asns[i - 1] {
            prepended = true;
        } else if asns[..i - 1].contains(&asns[i]) {
            return None; // the AS reappears after another one: a loop
        }
    }
    if !prepended {
        return Some(CleanPath(path.clone()));
    }
    let mut collapsed = asns.to_vec();
    collapsed.dedup();
    Some(CleanPath(AsPath::from_slice(&collapsed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(ids: &[u32]) -> AsPath {
        ids.iter().map(|&i| AsId(i)).collect()
    }

    #[test]
    fn collapses_prepending() {
        let p = clean_path(&raw(&[30, 20, 20, 20, 10])).unwrap();
        assert_eq!(p.asns(), &[AsId(30), AsId(20), AsId(10)]);
        assert_eq!(p.len(), 3);
        // Prepending anywhere collapses, but only consecutive repeats.
        let p = clean_path(&raw(&[1, 1, 2, 2, 2, 3])).unwrap();
        assert_eq!(p.asns(), &[AsId(1), AsId(2), AsId(3)]);
    }

    #[test]
    fn rejects_loops_and_empty() {
        assert!(clean_path(&raw(&[1, 2, 1])).is_none());
        assert!(clean_path(&raw(&[1, 1, 2, 2, 2, 3, 1])).is_none());
        assert!(clean_path(&AsPath::empty()).is_none());
    }

    #[test]
    fn loop_detection_ignores_prepending() {
        assert!(clean_path(&raw(&[1, 1, 1, 2])).is_some());
        let path = raw(&[2, 3]);
        let padded = path.prepend(AsId(2), 3);
        assert_eq!(padded.len(), 5);
        assert_eq!(clean_path(&padded), clean_path(&path));
    }

    #[test]
    fn an_unchanged_path_shares_its_allocation() {
        let path = raw(&[30, 20, 10]);
        let p = clean_path(&path).unwrap();
        assert!(std::ptr::eq(p.asns(), path.asns()));
    }

    #[test]
    fn debug_lists_the_asns() {
        let p = clean_path(&raw(&[1, 2])).unwrap();
        assert_eq!(format!("{p:?}"), "CleanPath([AS1, AS2])");
    }

    #[test]
    fn endpoints() {
        let p = clean_path(&raw(&[30, 20, 10])).unwrap();
        assert_eq!(p.vantage(), Some(AsId(30)));
        assert_eq!(p.origin(), Some(AsId(10)));
        assert!(p.contains(AsId(20)));
        assert!(!p.contains(AsId(99)));
    }

    #[test]
    fn links_are_adjacent_pairs() {
        let p = clean_path(&raw(&[30, 20, 10])).unwrap();
        let links: Vec<_> = p.links().collect();
        assert_eq!(links, vec![(AsId(30), AsId(20)), (AsId(20), AsId(10))]);
    }

    #[test]
    fn display_joins_with_dashes() {
        let p = clean_path(&raw(&[3, 2, 1])).unwrap();
        assert_eq!(p.to_string(), "3-2-1");
    }

    #[test]
    fn single_as_path_is_valid() {
        let p = clean_path(&raw(&[7])).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.vantage(), p.origin());
        assert_eq!(p.links().count(), 0);
    }
}
