//! Flat, offset-addressed storage slabs.
//!
//! The mutable [`crate::Hexastore`] holds its terminal lists as
//! `Vec<Vec<Id>>` and its index levels as nested [`crate::VecMap`]s —
//! one heap allocation per list and per vector. A *read-only* store does
//! not need any of that pointer chasing: every level can live in one
//! contiguous column, windowed by a cumulative offsets column whose entry
//! `i` is where window `i` starts and whose entry `i + 1` is where it
//! ends. Windows tile their column, so a length is never stored: it is
//! the next offset minus this one. That layout
//!
//! - is what the [`crate::FrozenHexastore`] queries directly (zero
//!   per-list allocations, cache-linear scans),
//! - is exactly what the `hexsnap` on-disk format stores, so a snapshot
//!   section can be read straight into a query-ready slab.
//!
//! The building block here is [`FlatArena`], the frozen counterpart of
//! [`crate::ListArena`]: one item column plus its offsets column. The
//! frozen index levels (`frozen.rs`) use the same offsets form over their
//! vector-key columns.
//!
//! Offsets are `u32` deliberately, mirroring [`hex_dict::Id`]: the
//! paper's largest experiment is 61M triples, far below the 2^32 entries
//! an offset can address.

use crate::sorted;
use hex_dict::Id;

/// True when `offs` is a cumulative offsets column that tiles a column
/// of `n` elements into non-empty windows: it starts at 0, rises
/// strictly, and ends at `n` — the structural invariant of every offsets
/// column in a slab, checked whenever one is adopted from outside.
pub(crate) fn offsets_tile(offs: &[u32], n: usize) -> bool {
    offs.first() == Some(&0)
        && offs.last().map(|&end| end as usize) == Some(n)
        && offs.windows(2).all(|w| w[0] < w[1])
}

/// An arena of sorted id lists stored as one contiguous item column plus
/// a cumulative offsets column — the flat, append-only counterpart of
/// [`crate::ListArena`].
///
/// List `i` is `items[offs[i]..offs[i + 1]]`, so the offsets column has
/// one entry more than there are lists. Lists are addressed by their
/// `u32` position (the frozen analogue of [`crate::ListId`]). There is
/// no removal and no free list: a `FlatArena` is built once, in final
/// order, and then only read.
#[derive(Clone, PartialEq, Eq)]
pub struct FlatArena {
    items: Vec<Id>,
    offs: Vec<u32>,
}

impl Default for FlatArena {
    fn default() -> Self {
        FlatArena::with_capacity(0, 0)
    }
}

impl FlatArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        FlatArena::default()
    }

    /// Creates an empty arena with exact room for `lists` lists holding
    /// `items` entries in total. Frozen builders count first, so appends
    /// never reallocate.
    pub fn with_capacity(lists: usize, items: usize) -> Self {
        let mut offs = Vec::with_capacity(lists + 1);
        offs.push(0);
        FlatArena { items: Vec::with_capacity(items), offs }
    }

    /// Appends one list, returning its index. The items must form a
    /// non-empty, strictly sorted run (checked in debug builds).
    pub fn push_list(&mut self, items: impl IntoIterator<Item = Id>) -> u32 {
        let start = self.items.len();
        self.items.extend(items);
        debug_assert!(self.items.len() > start, "terminal lists are never empty");
        debug_assert!(sorted::is_sorted_set(&self.items[start..]));
        let idx = u32::try_from(self.list_count()).expect("flat arena overflow: 2^32 lists");
        self.offs.push(u32::try_from(self.items.len()).expect("flat arena overflow: 2^32 items"));
        idx
    }

    /// The sorted items of list `idx`.
    #[inline]
    pub fn get(&self, idx: u32) -> &[Id] {
        let i = idx as usize;
        &self.items[self.offs[i] as usize..self.offs[i + 1] as usize]
    }

    /// Number of lists.
    pub fn list_count(&self) -> usize {
        self.offs.len() - 1
    }

    /// Total entries across all lists (the whole item column).
    pub fn total_items(&self) -> usize {
        self.items.len()
    }

    /// Heap bytes of the item column.
    pub(crate) fn item_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<Id>()
    }

    /// Heap bytes of the offsets column.
    pub(crate) fn offset_bytes(&self) -> usize {
        self.offs.capacity() * std::mem::size_of::<u32>()
    }

    /// Heap bytes of the item column and the offsets column.
    pub fn heap_bytes(&self) -> usize {
        self.item_bytes() + self.offset_bytes()
    }

    /// The columns as the borrowed view the shared read path walks.
    pub fn view(&self) -> crate::access::ArenaView<'_> {
        crate::access::ArenaView { offs: &self.offs, items: &self.items }
    }

    /// The raw item column, in list order (for serialization).
    pub fn items_raw(&self) -> &[Id] {
        &self.items
    }

    /// The raw offsets column: one entry per list plus the end of the
    /// last (for serialization).
    pub fn offsets_raw(&self) -> &[u32] {
        &self.offs
    }

    /// Reassembles an arena from its raw columns. The offsets must tile
    /// the item column into non-empty windows, each a strictly-sorted run
    /// — the invariant binary searches over lists rely on; returns
    /// `None` otherwise (the `hexsnap` reader turns that into a
    /// corruption error rather than silently dropping query results).
    pub fn from_raw_parts(items: Vec<Id>, offs: Vec<u32>) -> Option<Self> {
        let valid = offsets_tile(&offs, items.len())
            && offs.windows(2).all(|w| sorted::is_sorted_set(&items[w[0] as usize..w[1] as usize]));
        valid.then_some(FlatArena { items, offs })
    }
}

impl std::fmt::Debug for FlatArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlatArena")
            .field("lists", &self.list_count())
            .field("items", &self.total_items())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u32) -> Id {
        Id(v)
    }

    #[test]
    fn arena_push_and_get() {
        let mut a = FlatArena::with_capacity(2, 5);
        let l0 = a.push_list([id(1), id(4), id(9)]);
        let l1 = a.push_list([id(2), id(3)]);
        assert_eq!(a.get(l0), &[id(1), id(4), id(9)]);
        assert_eq!(a.get(l1), &[id(2), id(3)]);
        assert_eq!(a.list_count(), 2);
        assert_eq!(a.total_items(), 5);
        assert_eq!(a.offsets_raw(), &[0, 3, 5]);
        // Exact-sized: five items and three offsets, four bytes each.
        assert_eq!(a.heap_bytes(), (5 + 3) * 4);
        assert_eq!(FlatArena::new().list_count(), 0);
    }

    #[test]
    fn arena_raw_roundtrip() {
        let mut a = FlatArena::new();
        a.push_list([id(7)]);
        a.push_list([id(1), id(2)]);
        let b =
            FlatArena::from_raw_parts(a.items_raw().to_vec(), a.offsets_raw().to_vec()).unwrap();
        assert_eq!(a, b);
        assert!(FlatArena::from_raw_parts(Vec::new(), vec![0]).is_some(), "the empty arena");
        // Offsets that do not tile the column into non-empty windows —
        // missing, not starting at 0, overrunning, stopping short, empty
        // or backwards windows — and unsorted lists are rejected.
        for (items, offs) in [
            (vec![], vec![]),
            (vec![id(1)], vec![1, 1]),
            (vec![id(1)], vec![0, 2]),
            (vec![id(1), id(2)], vec![0, 1]),
            (vec![id(1)], vec![0, 0, 1]),
            (vec![id(1), id(2)], vec![0, 2, 1, 2]),
            (vec![id(2), id(1)], vec![0, 2]),
            (vec![id(1), id(1)], vec![0, 2]),
        ] {
            assert!(FlatArena::from_raw_parts(items.clone(), offs.clone()).is_none(), "{offs:?}");
        }
    }
}
