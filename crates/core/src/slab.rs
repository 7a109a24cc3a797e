//! Flat storage slabs.
//!
//! Nested vectors would cost one heap allocation per terminal list and
//! per vector. A store built once from a batch does not need any of that
//! pointer chasing: every level can live in one contiguous column. That
//! layout
//!
//! - is what [`crate::FrozenHexastore`] and [`crate::PartialHexastore`]
//!   query directly (zero per-list allocations, cache-linear scans),
//! - is exactly what the `hexsnap` on-disk format stores, so a snapshot
//!   section can be read straight into a query-ready slab.
//!
//! The frozen index levels (`frozen.rs`) window their vector-key columns
//! with a cumulative offsets column: entry `i` is where window `i` starts
//! and entry `i + 1` where it ends, so a length is never stored. Those
//! levels — offsets, vector keys, mirror list references — are
//! bit-packed ([`crate::packed`]); the arenas here are not, because they
//! hand out their lists as zero-copy `&[Id]` slices. (`offsets_tile` is
//! the invariant of an offsets column in the `u32` form older snapshots
//! and the compressed section decode to.)
//!
//! Terminal lists are addressed differently, because of what they look
//! like: on the benchmark's dataset nine lists in ten hold exactly one
//! id. [`FlatArena`] keeps one **slot** per list, and the slot *is* the list when the list
//! is a single id below 2^31. Any other list lives in the **overflow**
//! column as a length word followed by its sorted items, and its slot
//! holds [`LONG`] `|` the position of that length word. A singleton costs
//! four bytes and one load; a longer list pays one extra word for its
//! length. This module is the only place that knows the encoding:
//! [`FlatArena::push_list`] writes it, [`ArenaView::get`] reads it,
//! [`ArenaView::validate`] checks it.
//!
//! Slots and overflow words are `u32` deliberately, mirroring
//! [`hex_dict::Id`]: the paper's largest experiment is 61M triples, far
//! below the 2^31 words an overflow position can address.

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

/// The slot bit that says "this list is in the overflow column": the
/// other 31 bits are then the position of its length word. A clear bit
/// means the slot is the list's only id.
pub const LONG: u32 = 1 << 31;

/// Overflow words a list of `len` items starting with `first` occupies:
/// none when it fits its slot, otherwise its items plus a length word.
/// Builders sum this in their counting pass to size an arena exactly.
pub(crate) fn overflow_words(len: usize, first: Id) -> usize {
    if len == 1 && first.0 & LONG == 0 {
        0
    } else {
        len + 1
    }
}

/// Borrowed columns of one flat terminal-list arena — what the shared
/// read path ([`crate::access`]) walks, whether the columns are owned by
/// a [`FlatArena`] or memory-mapped by the `hex-disk` crate.
#[derive(Clone, Copy, Debug)]
pub struct ArenaView<'a> {
    /// One entry per list: the list's only id, or [`LONG`] `|` the
    /// position in `over` of its length word.
    pub slots: &'a [Id],
    /// The lists that do not fit a slot, each a length word followed by
    /// that many strictly ascending ids, in slot order.
    pub over: &'a [Id],
}

impl<'a> ArenaView<'a> {
    /// The items of list `idx`. Never panics: a list index past the slot
    /// column or an overflow position past the overflow column reads as
    /// the empty list, and a length that overruns the column is cut to
    /// it. In-memory arenas are validated when built, so none of that
    /// triggers there; mapped columns can change under a reader.
    #[inline]
    pub fn get(self, idx: u32) -> &'a [Id] {
        let Some(slot) = self.slots.get(idx as usize) else { return &[] };
        if slot.0 & LONG == 0 {
            return std::slice::from_ref(slot);
        }
        let at = (slot.0 & !LONG) as usize;
        let Some(len) = self.over.get(at) else { return &[] };
        let end = (at + 1).saturating_add(len.0 as usize).min(self.over.len());
        &self.over[at + 1..end]
    }

    /// Checks the columns in one pass, `O(slots + over)`, and returns the
    /// number of items they hold, or `None` unless they are exactly what
    /// [`FlatArena::push_list`] would have written: the overflow runs tile
    /// `over` in slot order (so no two lists overlap and no word is
    /// unreachable), every run is strictly ascending — the invariant
    /// binary searches over lists rely on — and no run holds a list that
    /// fits a slot (so equal lists are equal columns).
    pub fn validate(self) -> Option<usize> {
        let (mut next, mut items) = (0usize, 0usize);
        for slot in self.slots {
            if slot.0 & LONG == 0 {
                items += 1;
                continue;
            }
            if (slot.0 & !LONG) as usize != next {
                return None;
            }
            let len = self.over.get(next)?.0 as usize;
            let run = self.over.get(next + 1..(next + 1).checked_add(len)?)?;
            let fits_a_slot = overflow_words(len, *run.first()?) == 0;
            if fits_a_slot || !sorted::is_sorted_set(run) {
                return None;
            }
            next += 1 + len;
            items += len;
        }
        (next == self.over.len()).then_some(items)
    }
}

/// An arena of sorted id lists stored as a slot column plus an overflow
/// column (see the [module docs](self) for the encoding).
///
/// Lists are addressed by their `u32` position. There is no removal and no free list: a
/// `FlatArena` is built once, in final order, and then only read.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct FlatArena {
    slots: Vec<Id>,
    over: Vec<Id>,
    /// Total entries across all lists.
    items: usize,
}

impl FlatArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        FlatArena::default()
    }

    /// Creates an empty arena with exact room for `lists` lists of which
    /// those that do not fit a slot take `overflow` words in total (the
    /// sum of [`overflow_words`]). Frozen builders count first, so appends
    /// never reallocate.
    pub(crate) fn with_capacity(lists: usize, overflow: usize) -> Self {
        FlatArena { slots: Vec::with_capacity(lists), over: Vec::with_capacity(overflow), items: 0 }
    }

    /// Creates an empty arena with exact room for `lists`, none of them
    /// empty — [`FlatArena::with_capacity`] for a builder that can walk its
    /// lists before it pushes them.
    pub(crate) fn with_room_for<'a>(lists: impl Iterator<Item = &'a [Id]>) -> Self {
        let (mut count, mut overflow) = (0, 0);
        for list in lists {
            count += 1;
            overflow += overflow_words(list.len(), list[0]);
        }
        FlatArena::with_capacity(count, overflow)
    }

    /// Appends one list, returning its index. The items must form a
    /// non-empty, strictly sorted run (checked in debug builds).
    ///
    /// # Panics
    ///
    /// If the list is empty, or the arena would exceed 2^32 lists or
    /// 2^31 overflow words.
    pub fn push_list(&mut self, items: impl IntoIterator<Item = Id>) -> u32 {
        let idx = u32::try_from(self.slots.len()).expect("flat arena overflow: 2^32 lists");
        let mut items = items.into_iter();
        let first = items.next().expect("terminal lists are never empty");
        let second = items.next();
        if second.is_none() && first.0 & LONG == 0 {
            self.slots.push(first);
            self.items += 1;
            return idx;
        }
        let at = self.over.len();
        let tagged = u32::try_from(at).ok().filter(|at| at & LONG == 0);
        self.slots.push(Id(LONG | tagged.expect("flat arena overflow: 2^31 overflow words")));
        self.over.push(Id(0)); // the length word, known once the items are in
        self.over.push(first);
        self.over.extend(second);
        self.over.extend(items);
        let len = self.over.len() - at - 1;
        debug_assert!(sorted::is_sorted_set(&self.over[at + 1..]));
        self.over[at] = Id(u32::try_from(len).expect("flat arena overflow: 2^32 items in a list"));
        self.items += len;
        idx
    }

    /// The sorted items of list `idx`; empty when there is no such list.
    #[inline]
    pub fn get(&self, idx: u32) -> &[Id] {
        self.view().get(idx)
    }

    /// Every list, in index order.
    pub fn lists(&self) -> impl Iterator<Item = &[Id]> + '_ {
        let view = self.view();
        (0..self.slots.len() as u32).map(move |idx| view.get(idx))
    }

    /// Number of lists.
    pub fn list_count(&self) -> usize {
        self.slots.len()
    }

    /// Total entries across all lists.
    pub fn total_items(&self) -> usize {
        self.items
    }

    /// Heap bytes of the slot column.
    pub(crate) fn slot_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Id>()
    }

    /// Heap bytes of the overflow column.
    pub(crate) fn overflow_bytes(&self) -> usize {
        self.over.capacity() * std::mem::size_of::<Id>()
    }

    /// Heap bytes of the slot column and the overflow column.
    pub fn heap_bytes(&self) -> usize {
        self.slot_bytes() + self.overflow_bytes()
    }

    /// The columns as the borrowed view the shared read path walks.
    pub fn view(&self) -> ArenaView<'_> {
        ArenaView { slots: &self.slots, over: &self.over }
    }

    /// Reassembles an arena from its raw columns, which must pass
    /// [`ArenaView::validate`]; returns `None` otherwise (the `hexsnap`
    /// reader turns that into a corruption error rather than silently
    /// dropping query results).
    pub fn from_raw_parts(slots: Vec<Id>, over: Vec<Id>) -> Option<Self> {
        let items = ArenaView { slots: &slots, over: &over }.validate()?;
        Some(FlatArena { slots, over, items })
    }

    /// Builds an arena from the offset-addressed form older snapshot
    /// versions and the compressed section decode to: list `i` is
    /// `items[offs[i]..offs[i + 1]]`. The offsets must tile `items` into
    /// non-empty, strictly ascending windows; returns `None` otherwise.
    /// Exact-sized, like every other way to build one.
    pub(crate) fn from_offsets(items: &[Id], offs: &[u32]) -> Option<Self> {
        if !offsets_tile(offs, items.len()) {
            return None;
        }
        let windows = || offs.windows(2).map(|w| &items[w[0] as usize..w[1] as usize]);
        let mut arena = FlatArena::with_room_for(windows());
        for list in windows() {
            if !sorted::is_sorted_set(list) {
                return None;
            }
            arena.push_list(list.iter().copied());
        }
        Some(arena)
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
        let mut a = FlatArena::with_capacity(4, 4 + 3 + 2);
        let l0 = a.push_list([id(1), id(4), id(9)]);
        let l1 = a.push_list([id(7)]);
        let l2 = a.push_list([id(2), id(3)]);
        // A singleton whose id has the top bit set cannot be told from a
        // tagged slot, so it takes the overflow path like a longer list.
        let l3 = a.push_list([id(LONG | 5)]);
        assert_eq!(a.get(l0), &[id(1), id(4), id(9)]);
        assert_eq!(a.get(l1), &[id(7)]);
        assert_eq!(a.get(l2), &[id(2), id(3)]);
        assert_eq!(a.get(l3), &[id(LONG | 5)]);
        assert_eq!(a.get(4), &[] as &[Id], "no such list");
        assert_eq!(a.list_count(), 4);
        assert_eq!(a.total_items(), 7);
        assert_eq!(a.lists().map(<[Id]>::len).collect::<Vec<_>>(), [3, 1, 2, 1]);
        let view = a.view();
        assert_eq!(view.slots, &[id(LONG), id(7), id(LONG | 4), id(LONG | 7)]);
        assert_eq!(
            view.over,
            &[id(3), id(1), id(4), id(9), id(2), id(2), id(3), id(1), id(LONG | 5)]
        );
        // The singleton is read in place: the slice is the slot itself.
        assert!(std::ptr::eq(a.get(l1).as_ptr(), &view.slots[1]));
        // Exact-sized: four slots and nine overflow words, four bytes each.
        assert_eq!(a.heap_bytes(), (4 + 9) * 4);
        assert_eq!(FlatArena::new().list_count(), 0);
    }

    #[test]
    fn arena_raw_roundtrip() {
        let mut a = FlatArena::new();
        a.push_list([id(7)]);
        a.push_list([id(1), id(2)]);
        a.push_list([id(LONG)]);
        let view = a.view();
        let b = FlatArena::from_raw_parts(view.slots.to_vec(), view.over.to_vec()).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.total_items(), 4);
        assert!(FlatArena::from_raw_parts(Vec::new(), Vec::new()).is_some(), "the empty arena");
        // Columns push_list would not have written are rejected.
        let long = |at: u32| id(LONG | at);
        for (why, slots, over) in [
            ("position past the overflow column", vec![long(3)], vec![id(2), id(1), id(2)]),
            ("length overruns the column", vec![long(0)], vec![id(3), id(1), id(2)]),
            ("length short of the column", vec![long(0)], vec![id(2), id(1), id(2), id(3)]),
            ("empty run", vec![long(0)], vec![id(0)]),
            ("a singleton that fits its slot", vec![long(0)], vec![id(1), id(9)]),
            ("unsorted run", vec![long(0)], vec![id(2), id(2), id(1)]),
            ("duplicate in a run", vec![long(0)], vec![id(2), id(1), id(1)]),
            ("overflow no slot names", vec![id(7)], vec![id(2), id(1), id(2)]),
            (
                "runs out of slot order",
                vec![long(3), long(0)],
                vec![id(2), id(1), id(2), id(2), id(3), id(4)],
            ),
            ("two slots, one run", vec![long(0), long(0)], vec![id(2), id(1), id(2)]),
        ] {
            assert!(FlatArena::from_raw_parts(slots, over).is_none(), "{why}");
        }
    }

    #[test]
    fn arena_from_offsets_matches_push_list() {
        let items = [id(1), id(4), id(7), id(2), id(3), id(LONG)];
        let built = FlatArena::from_offsets(&items, &[0, 2, 3, 5, 6]).unwrap();
        let mut pushed = FlatArena::new();
        for list in [&items[0..2], &items[2..3], &items[3..5], &items[5..6]] {
            pushed.push_list(list.iter().copied());
        }
        assert_eq!(built, pushed);
        assert_eq!(built.heap_bytes(), (4 + 3 + 3 + 2) * 4, "exact-sized");
        assert!(FlatArena::from_offsets(&[], &[0]).is_some(), "the empty arena");
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
            assert!(FlatArena::from_offsets(&items, &offs).is_none(), "{offs:?}");
        }
    }
}
