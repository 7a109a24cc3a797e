//! Flat, offset-addressed storage slabs.
//!
//! The mutable [`crate::Hexastore`] holds its terminal lists as
//! `Vec<Vec<Id>>` and its index levels as nested [`crate::VecMap`]s —
//! one heap allocation per list and per vector. A *read-only* store does
//! not need any of that pointer chasing: every level can live in one
//! contiguous column addressed by `(offset, len)` spans. That layout
//!
//! - is what the [`crate::FrozenHexastore`] queries directly (zero
//!   per-list allocations, cache-linear scans),
//! - is exactly what the `hexsnap` on-disk format stores, so a snapshot
//!   section can be read straight into a query-ready slab.
//!
//! Two building blocks live here: [`FlatArena`] (the frozen counterpart
//! of [`crate::ListArena`]: one item column plus a span table) and
//! [`FlatVecMap`] (the frozen counterpart of [`crate::VecMap`]: a sorted
//! key column parallel to a value column).

use crate::sorted;
use hex_dict::Id;

/// A contiguous `(offset, len)` window into a flat column.
///
/// Offsets and lengths are `u32` deliberately, mirroring [`hex_dict::Id`]:
/// the paper's largest experiment is 61M triples, far below the 2^32
/// entries a span can address, and halving the table width is the point
/// of the columnar layout.
///
/// `repr(C)` pins the layout to `{ off: u32, len: u32 }` — the exact
/// byte pairs the `hexsnap` disk format stores, which lets the
/// `hex-disk` crate reinterpret a mapped span table in place.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[repr(C)]
pub struct Span {
    /// First index of the window.
    pub off: u32,
    /// Number of entries in the window.
    pub len: u32,
}

impl Span {
    /// The window as a `usize` range, for slicing the backing column.
    /// The end is computed in `usize` so a hostile `off + len` near
    /// `u32::MAX` cannot wrap to a small (and wrong) window.
    #[inline]
    pub fn range(self) -> std::ops::Range<usize> {
        self.off as usize..self.off as usize + self.len as usize
    }

    /// Number of entries in the window.
    #[inline]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True if the window is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// An arena of sorted id lists stored as one contiguous item column plus
/// an `(offset, len)` span table — the flat, append-only counterpart of
/// [`crate::ListArena`].
///
/// Lists are addressed by their `u32` position in the span table (the
/// frozen analogue of [`crate::ListId`]). There is no removal and no free
/// list: a `FlatArena` is built once, in final order, and then only read.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct FlatArena {
    items: Vec<Id>,
    spans: Vec<Span>,
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
        FlatArena { items: Vec::with_capacity(items), spans: Vec::with_capacity(lists) }
    }

    /// Appends one list, returning its index in the span table. The items
    /// must form a non-empty, strictly sorted run (checked in debug
    /// builds).
    pub fn push_list(&mut self, items: impl IntoIterator<Item = Id>) -> u32 {
        let off = u32::try_from(self.items.len()).expect("flat arena overflow: 2^32 items");
        self.items.extend(items);
        let len = u32::try_from(self.items.len() - off as usize)
            .expect("flat arena overflow: list longer than 2^32");
        debug_assert!(len > 0, "terminal lists are never empty");
        debug_assert!(sorted::is_sorted_set(&self.items[off as usize..]));
        let idx = u32::try_from(self.spans.len()).expect("flat arena overflow: 2^32 lists");
        self.spans.push(Span { off, len });
        idx
    }

    /// The sorted items of list `idx`.
    #[inline]
    pub fn get(&self, idx: u32) -> &[Id] {
        &self.items[self.spans[idx as usize].range()]
    }

    /// Number of lists.
    pub fn list_count(&self) -> usize {
        self.spans.len()
    }

    /// Total entries across all lists (the whole item column).
    pub fn total_items(&self) -> usize {
        self.items.len()
    }

    /// Heap bytes of the item column and the span table.
    pub fn heap_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<Id>()
            + self.spans.capacity() * std::mem::size_of::<Span>()
    }

    /// The columns as the borrowed view the shared read path walks.
    pub fn view(&self) -> crate::access::ArenaView<'_> {
        crate::access::ArenaView { spans: &self.spans, items: &self.items }
    }

    /// The raw item column, in span order (for serialization).
    pub fn items_raw(&self) -> &[Id] {
        &self.items
    }

    /// The raw span table (for serialization).
    pub fn spans_raw(&self) -> &[Span] {
        &self.spans
    }

    /// Reassembles an arena from its raw columns. Every span must lie
    /// within the item column and window a non-empty strictly-sorted run
    /// — the invariant binary searches over lists rely on; returns
    /// `None` otherwise (the `hexsnap` reader turns that into a
    /// corruption error rather than silently dropping query results).
    pub fn from_raw_parts(items: Vec<Id>, spans: Vec<Span>) -> Option<Self> {
        let n = items.len();
        if spans.iter().any(|s| {
            s.len == 0
                || s.off as usize + s.len as usize > n
                || !sorted::is_sorted_set(&items[s.range()])
        }) {
            return None;
        }
        Some(FlatArena { items, spans })
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

/// An immutable association map stored as two parallel columns: a sorted
/// key column and a value column — the flat counterpart of
/// [`crate::VecMap`].
///
/// Splitting keys from values keeps binary searches touching only key
/// cache lines, and each column serializes as one contiguous array.
#[derive(Clone, PartialEq, Eq)]
pub struct FlatVecMap<K, V> {
    keys: Vec<K>,
    vals: Vec<V>,
}

impl<K, V> Default for FlatVecMap<K, V> {
    fn default() -> Self {
        FlatVecMap { keys: Vec::new(), vals: Vec::new() }
    }
}

impl<K: Ord + Copy, V> FlatVecMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty map with exact room for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        FlatVecMap { keys: Vec::with_capacity(n), vals: Vec::with_capacity(n) }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the map has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Looks up a key by binary search over the key column.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.keys.binary_search(key).ok().map(|i| &self.vals[i])
    }

    /// Appends an entry whose key must be greater than all existing keys
    /// (checked in debug builds) — the only way to grow a flat map.
    pub fn push_sorted(&mut self, key: K, value: V) {
        debug_assert!(self.keys.last().is_none_or(|k| *k < key));
        self.keys.push(key);
        self.vals.push(value);
    }

    /// Sorted iteration over `(key, &value)`.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.keys.iter().copied().zip(self.vals.iter())
    }

    /// The sorted key column.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The value column, parallel to [`Self::keys`].
    pub fn values(&self) -> &[V] {
        &self.vals
    }

    /// Heap bytes of both columns.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<K>()
            + self.vals.capacity() * std::mem::size_of::<V>()
    }

    /// Reassembles a map from its raw columns. The columns must have equal
    /// length and the keys must be strictly ascending; returns `None`
    /// otherwise.
    pub fn from_raw_parts(keys: Vec<K>, vals: Vec<V>) -> Option<Self> {
        if keys.len() != vals.len() || keys.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        Some(FlatVecMap { keys, vals })
    }
}

impl<K: Ord + Copy + std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for FlatVecMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.keys.iter().zip(self.vals.iter())).finish()
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
        assert!(a.heap_bytes() >= 5 * std::mem::size_of::<Id>());
    }

    #[test]
    fn arena_raw_roundtrip() {
        let mut a = FlatArena::new();
        a.push_list([id(7)]);
        a.push_list([id(1), id(2)]);
        let b = FlatArena::from_raw_parts(a.items_raw().to_vec(), a.spans_raw().to_vec()).unwrap();
        assert_eq!(a, b);
        // Out-of-range, empty, and unsorted spans are rejected.
        assert!(FlatArena::from_raw_parts(vec![id(1)], vec![Span { off: 0, len: 2 }]).is_none());
        assert!(FlatArena::from_raw_parts(vec![id(1)], vec![Span { off: 0, len: 0 }]).is_none());
        assert!(
            FlatArena::from_raw_parts(vec![id(2), id(1)], vec![Span { off: 0, len: 2 }]).is_none()
        );
        assert!(
            FlatArena::from_raw_parts(vec![id(1), id(1)], vec![Span { off: 0, len: 2 }]).is_none()
        );
    }

    #[test]
    fn flat_map_lookup_and_iter() {
        let mut m: FlatVecMap<Id, u32> = FlatVecMap::with_capacity(3);
        m.push_sorted(id(2), 20);
        m.push_sorted(id(5), 50);
        m.push_sorted(id(9), 90);
        assert_eq!(m.get(&id(5)), Some(&50));
        assert_eq!(m.get(&id(4)), None);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        let pairs: Vec<(Id, u32)> = m.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(pairs, vec![(id(2), 20), (id(5), 50), (id(9), 90)]);
        assert_eq!(m.keys(), &[id(2), id(5), id(9)]);
        assert_eq!(m.values(), &[20, 50, 90]);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn flat_map_rejects_out_of_order_push() {
        let mut m: FlatVecMap<Id, u32> = FlatVecMap::new();
        m.push_sorted(id(5), 0);
        m.push_sorted(id(1), 0);
    }

    #[test]
    fn flat_map_raw_parts_validate_sortedness() {
        assert!(FlatVecMap::<Id, u32>::from_raw_parts(vec![id(1), id(3)], vec![1, 3]).is_some());
        assert!(FlatVecMap::<Id, u32>::from_raw_parts(vec![id(3), id(1)], vec![1, 3]).is_none());
        assert!(FlatVecMap::<Id, u32>::from_raw_parts(vec![id(1), id(1)], vec![1, 1]).is_none());
        assert!(FlatVecMap::<Id, u32>::from_raw_parts(vec![id(1)], vec![1, 2]).is_none());
    }

    #[test]
    fn span_range_and_len() {
        let s = Span { off: 3, len: 4 };
        assert_eq!(s.range(), 3..7);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(Span::default().is_empty());
    }
}
