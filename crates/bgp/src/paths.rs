//! The path arena of one simulation lane.
//!
//! Every AS path a lane carries — in an Adj-RIB-In or Adj-RIB-Out, an
//! MRAI gate, an update on the wire, a Loc-RIB selection — is a
//! [`PathId`] into the lane's [`PathArena`]: a hash-consed trie whose
//! node `(head, parent, length)` is the path `head` followed by the path
//! `parent`. Id 0 is the empty path. Prepending is one hash lookup keyed
//! on `(parent, head)`, so a path built twice gets the same id, and path
//! equality is id equality. The decision process reads the stored
//! length, and receiver-side loop detection walks the parent chain.
//!
//! An [`AsPath`] is built only where a route leaves the lane (a tap
//! record, [`Network::best`](crate::Network::best)); the tap side builds
//! each distinct id once and shares it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::message::{AsId, AsPath};

/// An AS path interned in one lane's [`PathArena`]. Ids of different
/// lanes are unrelated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct PathId(u32);

impl PathId {
    /// The empty path (a locally originated route).
    pub(crate) const EMPTY: PathId = PathId(0);
}

/// One trie node: the path `head` followed by the path `parent`.
#[derive(Clone, Copy, Debug)]
struct Node {
    head: AsId,
    parent: PathId,
    len: u32,
}

/// The rustc "Fx" hash with a final rotation: one multiply per word.
/// The arena's keys are its own integers, so no DoS resistance is
/// needed, and the rotation moves the well-mixed high product bits to
/// where the hash table takes its bucket index from.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Every AS path one lane has built, hash-consed.
#[derive(Debug)]
pub(crate) struct PathArena {
    /// Node `i` is path id `i`; node 0 is the empty path.
    nodes: Vec<Node>,
    /// `(parent << 32) | head` → the id of that node.
    index: HashMap<u64, PathId, BuildHasherDefault<FxHasher>>,
    /// Built paths by id, so routes that share an id share one `AsPath`.
    shared: Vec<Option<AsPath>>,
    /// The ASNs of the path being built, so building allocates only the
    /// `AsPath` itself.
    scratch: Vec<AsId>,
}

impl Default for PathArena {
    fn default() -> Self {
        let empty = Node {
            head: AsId(0),
            parent: PathId::EMPTY,
            len: 0,
        };
        PathArena {
            nodes: vec![empty],
            index: HashMap::default(),
            shared: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

impl PathArena {
    /// The path `asn` followed by `path`.
    pub(crate) fn prepend(&mut self, path: PathId, asn: AsId) -> PathId {
        let key = (u64::from(path.0) << 32) | u64::from(asn.0);
        let nodes = &mut self.nodes;
        *self.index.entry(key).or_insert_with(|| {
            let id = u32::try_from(nodes.len()).expect("fewer than 2^32 paths in a lane");
            let len = nodes[path.0 as usize].len + 1;
            nodes.push(Node {
                head: asn,
                parent: path,
                len,
            });
            PathId(id)
        })
    }

    /// Path length, prepending included (what the decision process uses).
    pub(crate) fn len(&self, path: PathId) -> usize {
        self.nodes[path.0 as usize].len as usize
    }

    /// The ASs on the path, first hop first.
    pub(crate) fn asns(&self, path: PathId) -> impl Iterator<Item = AsId> + '_ {
        let mut at = path;
        std::iter::from_fn(move || {
            (at != PathId::EMPTY).then(|| {
                let node = self.nodes[at.0 as usize];
                at = node.parent;
                node.head
            })
        })
    }

    /// True if `asn` appears anywhere on the path (receiver-side loop
    /// check).
    pub(crate) fn contains(&self, path: PathId, asn: AsId) -> bool {
        self.asns(path).any(|a| a == asn)
    }

    /// The path as a freshly built [`AsPath`].
    pub(crate) fn path(&self, path: PathId) -> AsPath {
        self.asns(path).collect()
    }

    /// The path as an [`AsPath`] built once per id: every call with the
    /// same id returns the same shared allocation.
    pub(crate) fn shared(&mut self, path: PathId) -> AsPath {
        let i = path.0 as usize;
        if self.shared.len() <= i {
            self.shared.resize(i + 1, None);
        }
        if let Some(built) = &self.shared[i] {
            return built.clone();
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(self.asns(path));
        let built = AsPath::from_slice(&scratch);
        self.scratch = scratch;
        self.shared[i] = Some(built.clone());
        built
    }

    /// Intern a whole path, given first hop first.
    #[cfg(test)]
    pub(crate) fn intern(&mut self, asns: &[AsId]) -> PathId {
        asns.iter()
            .rev()
            .fold(PathId::EMPTY, |p, &asn| self.prepend(p, asn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(v: &[u32]) -> Vec<AsId> {
        v.iter().map(|&a| AsId(a)).collect()
    }

    #[test]
    fn empty_path_is_id_zero() {
        let mut arena = PathArena::default();
        assert_eq!(arena.intern(&[]), PathId::EMPTY);
        assert_eq!(arena.len(PathId::EMPTY), 0);
        assert!(arena.path(PathId::EMPTY).is_empty());
        assert!(!arena.contains(PathId::EMPTY, AsId(0)));
    }

    #[test]
    fn same_path_built_twice_gets_the_same_id() {
        let mut arena = PathArena::default();
        let a = arena.intern(&ids(&[1, 2, 3]));
        let tail = arena.intern(&ids(&[3]));
        let mid = arena.prepend(tail, AsId(2));
        let b = arena.prepend(mid, AsId(1));
        assert_eq!(a, b, "hash-consing: equal paths, equal ids");
        assert_eq!(arena.intern(&ids(&[2, 3])), mid);
        // Four distinct paths so far: [], [3], [2 3], [1 2 3].
        assert_eq!(arena.nodes.len(), 4);
    }

    #[test]
    fn different_paths_get_different_ids() {
        let mut arena = PathArena::default();
        let paths = [
            &[1, 2, 3][..],
            &[1, 3, 2],
            &[2, 1, 3],
            &[1, 2],
            &[2, 3],
            &[1, 1, 2, 3],
            &[3],
        ];
        let interned: Vec<PathId> = paths.iter().map(|p| arena.intern(&ids(p))).collect();
        for (i, a) in interned.iter().enumerate() {
            for (j, b) in interned.iter().enumerate() {
                assert_eq!(i == j, a == b, "{:?} vs {:?}", paths[i], paths[j]);
            }
        }
    }

    #[test]
    fn len_counts_prepending_and_contains_walks_the_chain() {
        let mut arena = PathArena::default();
        let base = arena.intern(&ids(&[7, 8, 9]));
        assert_eq!(arena.len(base), 3);
        let padded = arena.intern(&ids(&[6, 6, 6, 7, 8, 9]));
        assert_eq!(arena.len(padded), 6);
        assert_eq!(arena.path(padded).asns(), &ids(&[6, 6, 6, 7, 8, 9])[..]);
        for asn in [6, 7, 8, 9] {
            assert!(arena.contains(padded, AsId(asn)), "AS{asn}");
        }
        assert!(!arena.contains(padded, AsId(10)));
        assert!(!arena.contains(base, AsId(6)));
    }

    #[test]
    fn shared_paths_share_one_allocation() {
        let mut arena = PathArena::default();
        let id = arena.intern(&ids(&[4, 5]));
        let a = arena.shared(id);
        let b = arena.shared(id);
        assert_eq!(a, arena.path(id));
        assert!(std::ptr::eq(a.asns().as_ptr(), b.asns().as_ptr()));
        let other = arena.intern(&ids(&[5]));
        assert_eq!(arena.shared(other).asns(), &ids(&[5])[..]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random prepend sequences over a small AS alphabet (so paths
        /// collide and repeat ASs): the arena's path equals the chain of
        /// `AsPath::prepend` calls, and ids are equal exactly when the
        /// paths are.
        #[test]
        fn arena_matches_as_path_prepend(
            steps in proptest::collection::vec((0u32..4, 0usize..8), 1..40),
        ) {
            let mut arena = PathArena::default();
            let mut built: Vec<(PathId, AsPath)> = vec![(PathId::EMPTY, AsPath::empty())];
            for (asn, from) in steps {
                let (id, path) = built[from % built.len()].clone();
                let next = arena.prepend(id, AsId(asn));
                let expected = path.prepend(AsId(asn), 1);
                prop_assert_eq!(arena.path(next), expected.clone());
                prop_assert_eq!(arena.shared(next), expected.clone());
                prop_assert_eq!(arena.len(next), expected.len());
                for a in 0..5 {
                    prop_assert_eq!(arena.contains(next, AsId(a)), expected.contains(AsId(a)));
                }
                built.push((next, expected));
            }
            for (a, pa) in &built {
                for (b, pb) in &built {
                    prop_assert_eq!(a == b, pa == pb);
                }
            }
        }
    }
}
