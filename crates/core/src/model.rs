//! The tomography data model: nodes, observed paths, and the index
//! structures the samplers need.
//!
//! BeCAUSe is deliberately agnostic to what a "node" is — the paper uses
//! AS numbers, the tests use small integers — so the model maps arbitrary
//! `u32` node identifiers to dense indices. Duplicate observations
//! (identical path with identical label) are collapsed into a weight,
//! which leaves the likelihood unchanged while shrinking the working set;
//! the paper's dataset has exactly this redundancy (the same path measured
//! over many Burst–Break pairs).
//!
//! ## Storage layout
//!
//! Both directions of the path↔node relation are stored as CSR
//! (compressed-sparse-row) arenas rather than nested `Vec`s:
//!
//! * the **path arena**: one flat `Vec<u32>` of dense node indices plus a
//!   packed per-path metadata stream (`PathMeta`: arena offset and
//!   `weight << 1 | shows` in one 8-byte record, so the hot loop loads one
//!   record per path instead of three separate columns);
//! * the **incidence arena**: the inverse map behind [`PathData::paths_of`],
//!   laid out the same way.
//!
//! The likelihood layer streams these arenas front to back millions of
//! times per MCMC run; one contiguous allocation per arena keeps that loop
//! prefetcher-friendly and free of per-path pointer chasing.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// An opaque node identifier (an AS number in the BGP application).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One observed path with its binary label.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathObservation {
    /// Nodes on the path (order irrelevant to the likelihood).
    pub nodes: Vec<NodeId>,
    /// True when the path *showed* property A (e.g. the RFD signature).
    pub shows_property: bool,
}

impl PathObservation {
    /// Convenience constructor.
    pub fn new(nodes: Vec<NodeId>, shows_property: bool) -> Self {
        PathObservation {
            nodes,
            shows_property,
        }
    }
}

/// A borrowed view of one deduplicated path in dense-index space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathRef<'a> {
    /// Dense node indices, sorted, unique.
    pub nodes: &'a [u32],
    /// Label.
    pub shows_property: bool,
    /// How many identical observations this path stands for.
    pub weight: u32,
}

/// Packed per-path metadata: arena offset plus weight and label in one
/// 8-byte record, so the likelihood hot loop touches a single sequential
/// stream per path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct PathMeta {
    /// Start of this path's node indices in the path arena. The sentinel
    /// record at index `num_paths` holds the arena length.
    pub offset: u32,
    /// `weight << 1 | shows_property` (the sentinel stores `0`).
    pub wshow: u32,
}

/// The complete dataset in sampler-ready form (CSR arenas, see the module
/// docs for the layout).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PathData {
    ids: Vec<NodeId>,
    index_of: BTreeMap<NodeId, usize>,
    /// Flat node-index arena of all paths, path-major.
    path_nodes: Vec<u32>,
    /// Per-path packed metadata, length `num_paths + 1` (sentinel last).
    path_meta: Vec<PathMeta>,
    /// Flat path-index arena of the node→path incidence, node-major.
    incidence: Vec<u32>,
    /// `incidence_offsets[i]..incidence_offsets[i+1]` bounds node `i` in
    /// `incidence` (length `num_nodes + 1`).
    incidence_offsets: Vec<u32>,
}

impl PathData {
    /// Build from observations, excluding the given nodes entirely
    /// (the paper's beacons are known not to damp — §3.2 "we know that our
    /// Beacons do not dampen routes" — so beacon-site ASs are removed from
    /// the inference rather than burdening it).
    pub fn from_observations(observations: &[PathObservation], exclude: &[NodeId]) -> Self {
        let excluded: std::collections::BTreeSet<NodeId> = exclude.iter().copied().collect();

        // Assign dense indices in first-appearance order of sorted ids for
        // determinism.
        let mut all_ids: Vec<NodeId> = observations
            .iter()
            .flat_map(|o| o.nodes.iter().copied())
            .filter(|n| !excluded.contains(n))
            .collect();
        all_ids.sort();
        all_ids.dedup();
        let index_of: BTreeMap<NodeId, usize> =
            all_ids.iter().enumerate().map(|(i, &n)| (n, i)).collect();

        // Deduplicate (nodes, label) → weight.
        let mut dedup: BTreeMap<(Vec<u32>, bool), u32> = BTreeMap::new();
        for o in observations {
            let mut nodes: Vec<u32> = o
                .nodes
                .iter()
                .filter(|n| !excluded.contains(n))
                .map(|n| index_of[n] as u32)
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            if nodes.is_empty() {
                continue;
            }
            *dedup.entry((nodes, o.shows_property)).or_insert(0) += 1;
        }

        // Pack the path arena.
        let total_entries: usize = dedup.keys().map(|(nodes, _)| nodes.len()).sum();
        assert!(
            total_entries < u32::MAX as usize,
            "path arena exceeds u32 offsets"
        );
        let num_paths = dedup.len();
        let mut path_nodes = Vec::with_capacity(total_entries);
        let mut path_meta = Vec::with_capacity(num_paths + 1);
        for ((nodes, label), weight) in dedup {
            assert!(
                weight < u32::MAX / 2,
                "observation weight overflows packed meta"
            );
            path_meta.push(PathMeta {
                offset: path_nodes.len() as u32,
                wshow: (weight << 1) | u32::from(label),
            });
            path_nodes.extend_from_slice(&nodes);
        }
        path_meta.push(PathMeta {
            offset: path_nodes.len() as u32,
            wshow: 0,
        });

        // Pack the incidence arena with a counting pass (no per-node Vecs).
        let n = all_ids.len();
        let mut counts = vec![0u32; n];
        for &i in &path_nodes {
            counts[i as usize] += 1;
        }
        let mut incidence_offsets = Vec::with_capacity(n + 1);
        incidence_offsets.push(0u32);
        let mut acc = 0u32;
        for &c in &counts {
            acc += c;
            incidence_offsets.push(acc);
        }
        let mut incidence = vec![0u32; path_nodes.len()];
        let mut cursor: Vec<u32> = incidence_offsets[..n].to_vec();
        for j in 0..num_paths {
            let (lo, hi) = (
                path_meta[j].offset as usize,
                path_meta[j + 1].offset as usize,
            );
            for &i in &path_nodes[lo..hi] {
                let slot = cursor[i as usize];
                incidence[slot as usize] = j as u32;
                cursor[i as usize] += 1;
            }
        }

        PathData {
            ids: all_ids,
            index_of,
            path_nodes,
            path_meta,
            incidence,
            incidence_offsets,
        }
    }

    /// Number of distinct nodes.
    pub fn num_nodes(&self) -> usize {
        self.ids.len()
    }

    /// Number of deduplicated paths.
    pub fn num_paths(&self) -> usize {
        // `saturating_sub` covers the field-default empty state, which has
        // no sentinel record.
        self.path_meta.len().saturating_sub(1)
    }

    /// Total observation count (sum of weights).
    pub fn num_observations(&self) -> u64 {
        self.path_meta.iter().map(|m| u64::from(m.wshow >> 1)).sum()
    }

    /// The node id at dense index `i`.
    pub fn id(&self, i: usize) -> NodeId {
        self.ids[i]
    }

    /// All node ids in index order.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Dense index of a node id.
    pub fn index(&self, id: NodeId) -> Option<usize> {
        self.index_of.get(&id).copied()
    }

    /// The dense node indices of path `j` (sorted, unique).
    #[inline]
    pub fn path_nodes(&self, j: usize) -> &[u32] {
        let lo = self.path_meta[j].offset as usize;
        let hi = self.path_meta[j + 1].offset as usize;
        &self.path_nodes[lo..hi]
    }

    /// Label of path `j`.
    #[inline]
    pub fn shows_property(&self, j: usize) -> bool {
        self.path_meta[j].wshow & 1 == 1
    }

    /// Observation weight of path `j`.
    #[inline]
    pub fn weight(&self, j: usize) -> u32 {
        self.path_meta[j].wshow >> 1
    }

    /// A borrowed view of path `j`.
    #[inline]
    pub fn path(&self, j: usize) -> PathRef<'_> {
        PathRef {
            nodes: self.path_nodes(j),
            shows_property: self.shows_property(j),
            weight: self.weight(j),
        }
    }

    /// Iterate over all deduplicated paths.
    pub fn paths(&self) -> impl ExactSizeIterator<Item = PathRef<'_>> + '_ {
        (0..self.num_paths()).map(|j| self.path(j))
    }

    /// Indices of the paths containing node `i`.
    #[inline]
    pub fn paths_of(&self, i: usize) -> &[u32] {
        let lo = self.incidence_offsets[i] as usize;
        let hi = self.incidence_offsets[i + 1] as usize;
        &self.incidence[lo..hi]
    }

    /// Raw CSR views for the likelihood hot loops: `(path_nodes,
    /// path_meta)`. `path_meta` has `num_paths + 1` records (sentinel
    /// last), so `meta[j].offset..meta[j + 1].offset` bounds path `j`.
    pub(crate) fn path_csr(&self) -> (&[u32], &[PathMeta]) {
        (&self.path_nodes, &self.path_meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn indexing_is_dense_and_sorted() {
        let obs = vec![
            PathObservation::new(n(&[30, 10]), false),
            PathObservation::new(n(&[20, 10]), true),
        ];
        let d = PathData::from_observations(&obs, &[]);
        assert_eq!(d.num_nodes(), 3);
        assert_eq!(d.id(0), NodeId(10));
        assert_eq!(d.id(2), NodeId(30));
        assert_eq!(d.index(NodeId(20)), Some(1));
        assert_eq!(d.index(NodeId(99)), None);
    }

    #[test]
    fn duplicates_collapse_into_weight() {
        let obs = vec![
            PathObservation::new(n(&[1, 2]), true),
            PathObservation::new(n(&[2, 1]), true), // same set, same label
            PathObservation::new(n(&[1, 2]), false), // same set, other label
        ];
        let d = PathData::from_observations(&obs, &[]);
        assert_eq!(d.num_paths(), 2);
        assert_eq!(d.num_observations(), 3);
        let weights: Vec<u32> = d.paths().map(|p| p.weight).collect();
        assert!(weights.contains(&2) && weights.contains(&1));
    }

    #[test]
    fn excluded_nodes_vanish() {
        let obs = vec![PathObservation::new(n(&[1, 2, 65000]), true)];
        let d = PathData::from_observations(&obs, &n(&[65000]));
        assert_eq!(d.num_nodes(), 2);
        assert_eq!(d.path_nodes(0).len(), 2);
        assert_eq!(d.index(NodeId(65000)), None);
    }

    #[test]
    fn paths_reduced_to_nothing_are_dropped() {
        let obs = vec![PathObservation::new(n(&[65000]), true)];
        let d = PathData::from_observations(&obs, &n(&[65000]));
        assert_eq!(d.num_paths(), 0);
        assert_eq!(d.num_nodes(), 0);
    }

    #[test]
    fn node_paths_inverted_index() {
        let obs = vec![
            PathObservation::new(n(&[1, 2]), true),
            PathObservation::new(n(&[2, 3]), false),
            PathObservation::new(n(&[1, 3]), false),
        ];
        let d = PathData::from_observations(&obs, &[]);
        let i2 = d.index(NodeId(2)).unwrap();
        let through_2: Vec<u32> = d.paths_of(i2).to_vec();
        assert_eq!(through_2.len(), 2);
        for &j in &through_2 {
            assert!(d.path_nodes(j as usize).contains(&(i2 as u32)));
        }
    }

    #[test]
    fn csr_arenas_are_consistent() {
        let obs = vec![
            PathObservation::new(n(&[1, 2, 5]), true),
            PathObservation::new(n(&[2, 3]), false),
            PathObservation::new(n(&[1, 3, 4]), false),
            PathObservation::new(n(&[4]), true),
        ];
        let d = PathData::from_observations(&obs, &[]);
        // Every (node, path) pair in the path arena appears in the
        // incidence arena and vice versa.
        let mut from_paths: Vec<(usize, u32)> = Vec::new();
        for (j, p) in d.paths().enumerate() {
            for &i in p.nodes {
                from_paths.push((i as usize, j as u32));
            }
        }
        let mut from_incidence: Vec<(usize, u32)> = Vec::new();
        for i in 0..d.num_nodes() {
            for &j in d.paths_of(i) {
                from_incidence.push((i, j));
            }
        }
        from_paths.sort_unstable();
        from_incidence.sort_unstable();
        assert_eq!(from_paths, from_incidence);
        // Offsets cover the arena exactly.
        let total: usize = d.paths().map(|p| p.nodes.len()).sum();
        assert_eq!(total, from_incidence.len());
    }

    #[test]
    fn repeated_nodes_in_one_path_dedup() {
        // Prepending artifacts must not double-count a node.
        let obs = vec![PathObservation::new(n(&[5, 5, 6]), true)];
        let d = PathData::from_observations(&obs, &[]);
        assert_eq!(d.path_nodes(0).len(), 2);
    }
}
