//! The dump's path table: every recorded clean path once, named by
//! [`PathId`].
//!
//! Collection looks each tap path up as it takes the tap
//! ([`PathTable::clean_tap`]) and names it by id only once a record of
//! it is kept ([`PathTable::record`]), so the table holds exactly the
//! paths records name: a path whose every record a fault drops takes
//! no id. A simulation lane builds one `AsPath` allocation per distinct
//! path for the whole run, so the table first looks a tap path up by
//! its allocation's address and cleans it only on a miss. The address
//! map keeps a clone of every path it is keyed on: the allocation stays
//! alive while the table does, so its address cannot be reused by a
//! later slice's path. Recording falls back to a map keyed by the clean
//! path's content, so equal ids ⇔ equal clean paths whatever
//! allocations the paths came in.

use bgpsim::AsPath;
use netsim::hash::FxBuildHasher;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::clean::{clean_path, CleanPath};
use crate::dump::PathId;

/// What the table knows of one tap path allocation.
#[derive(Debug)]
enum Slot {
    /// Cleaning rejects it (looped or empty).
    Rejected,
    /// Its clean path, which no kept record names yet.
    Unrecorded(CleanPath),
    /// The id of its clean path.
    Recorded(PathId),
}

/// A tap path cleaning accepts, as [`PathTable::clean_tap`] found it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TapPath {
    /// Its clean path's id.
    Recorded(PathId),
    /// Cleaned, but not yet recorded: the allocation's address.
    Unrecorded(usize),
}

/// Every distinct clean path of a dump under construction.
#[derive(Debug, Default)]
pub(crate) struct PathTable {
    /// A tap path's allocation address → the path (kept alive) and what
    /// the table knows of it.
    by_address: HashMap<usize, (AsPath, Slot), FxBuildHasher>,
    /// A clean path → its id.
    by_content: HashMap<CleanPath, PathId>,
    /// Id `i` names `paths[i - 1]`.
    paths: Vec<CleanPath>,
}

impl PathTable {
    /// `raw` cleaned, `None` when cleaning rejects it (looped or empty).
    /// Each distinct allocation is cleaned once; no id is taken until
    /// [`PathTable::record`].
    pub(crate) fn clean_tap(&mut self, raw: &AsPath) -> Option<TapPath> {
        let address = raw.asns().as_ptr() as usize;
        let slot = match self.by_address.entry(address) {
            Entry::Occupied(entry) => &entry.into_mut().1,
            Entry::Vacant(entry) => {
                let slot = clean_path(raw).map_or(Slot::Rejected, Slot::Unrecorded);
                &entry.insert((raw.clone(), slot)).1
            }
        };
        match slot {
            Slot::Rejected => None,
            Slot::Unrecorded(_) => Some(TapPath::Unrecorded(address)),
            Slot::Recorded(id) => Some(TapPath::Recorded(*id)),
        }
    }

    /// The id of `path`, a tap path a kept record names.
    pub(crate) fn record(&mut self, path: TapPath) -> PathId {
        let address = match path {
            TapPath::Recorded(id) => return id,
            TapPath::Unrecorded(address) => address,
        };
        let (_, slot) = self
            .by_address
            .get_mut(&address)
            .expect("an unrecorded tap path was looked up by its address");
        let Slot::Unrecorded(clean) = std::mem::replace(slot, Slot::Rejected) else {
            unreachable!("a tap path is recorded once")
        };
        let id = Self::intern_in(&mut self.by_content, &mut self.paths, clean);
        *slot = Slot::Recorded(id);
        id
    }

    /// The id of `path`, new if no equal path is in the table.
    pub(crate) fn intern(&mut self, path: CleanPath) -> PathId {
        Self::intern_in(&mut self.by_content, &mut self.paths, path)
    }

    fn intern_in(
        by_content: &mut HashMap<CleanPath, PathId>,
        paths: &mut Vec<CleanPath>,
        path: CleanPath,
    ) -> PathId {
        *by_content.entry(path).or_insert_with_key(|path| {
            paths.push(path.clone());
            PathId::from_index(paths.len() - 1)
        })
    }

    /// The paths by id, ending the interning.
    pub(crate) fn into_paths(self) -> Vec<CleanPath> {
        self.paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim::AsId;

    fn raw(ids: &[u32]) -> AsPath {
        ids.iter().map(|&i| AsId(i)).collect()
    }

    /// `raw`'s id as a kept record of it takes it.
    fn intern_tap(table: &mut PathTable, raw: &AsPath) -> Option<PathId> {
        table.clean_tap(raw).map(|path| table.record(path))
    }

    #[test]
    fn equal_clean_paths_share_one_id_whatever_their_allocation() {
        let mut table = PathTable::default();
        let a = intern_tap(&mut table, &raw(&[3, 2, 1])).unwrap();
        // Another allocation of the same path, and a prepended one that
        // cleans to it.
        assert_eq!(intern_tap(&mut table, &raw(&[3, 2, 1])), Some(a));
        assert_eq!(intern_tap(&mut table, &raw(&[3, 3, 2, 1])), Some(a));
        let b = intern_tap(&mut table, &raw(&[4, 1])).unwrap();
        assert_ne!(a, b);
        assert_eq!(intern_tap(&mut table, &raw(&[1, 2, 1])), None, "a loop");
        let paths = table.into_paths();
        assert_eq!(paths[a.index()].asns(), &[AsId(3), AsId(2), AsId(1)]);
        assert_eq!(paths[b.index()].asns(), &[AsId(4), AsId(1)]);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn a_repeated_allocation_is_looked_up_not_cleaned() {
        let mut table = PathTable::default();
        let path = raw(&[5, 5, 4]);
        let id = intern_tap(&mut table, &path);
        assert_eq!(intern_tap(&mut table, &path), id);
        assert_eq!(table.by_address.len(), 1);
        assert_eq!(table.by_content.len(), 1);
    }

    #[test]
    fn the_table_keeps_every_keyed_allocation_alive() {
        let mut table = PathTable::default();
        // Dropped right after interning, and its clean path is a copy:
        // were its allocation freed, the next path of its size would
        // likely land at its address and be given its id.
        let first = intern_tap(
            &mut table,
            &AsPath::from_slice(&[AsId(1), AsId(1), AsId(9)]),
        );
        let later: Vec<AsPath> = (2..100)
            .map(|i| AsPath::from_slice(&[AsId(i), AsId(i), AsId(9)]))
            .collect();
        let mut ids: Vec<PathId> = later
            .iter()
            .filter_map(|p| intern_tap(&mut table, p))
            .collect();
        ids.extend(first);
        let distinct: std::collections::BTreeSet<PathId> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), 99);
        let paths = table.into_paths();
        assert_eq!(paths[first.unwrap().index()].asns(), &[AsId(1), AsId(9)]);
    }

    #[test]
    fn a_path_takes_an_id_only_when_a_record_of_it_is_kept() {
        let mut table = PathTable::default();
        // Cleaned, then every record of it dropped: no id, and the next
        // recorded path is the first.
        let dropped = raw(&[6, 6, 1]);
        assert!(matches!(
            table.clean_tap(&dropped),
            Some(TapPath::Unrecorded(_))
        ));
        let kept = intern_tap(&mut table, &raw(&[7, 1])).unwrap();
        assert_eq!(kept.index(), 0);
        // A later kept record of the dropped allocation takes the next id,
        // cleaning it no second time.
        assert_eq!(intern_tap(&mut table, &dropped).map(PathId::index), Some(1));
        assert!(matches!(
            table.clean_tap(&dropped),
            Some(TapPath::Recorded(_))
        ));
        assert_eq!(table.by_address.len(), 2);
        assert_eq!(table.into_paths().len(), 2);
    }
}
