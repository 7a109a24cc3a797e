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
//! bit-packed ([`crate::packed`]). (`offsets_tile` is the invariant of an
//! offsets column in the `u32` form older snapshots and the compressed
//! section decode to.)
//!
//! Terminal lists are addressed differently, because of what they look
//! like: on the benchmark's dataset nine lists in ten hold exactly one
//! id. [`FlatArena`] keeps one **slot** per list, and the slot *is* the
//! list when the list is a single id below 2^31. Any other list lives in
//! the **overflow** column as a length word followed by its sorted items,
//! and its slot holds the position of that length word. This module is
//! the only place that knows the encoding: [`FlatArena::push_list`]
//! writes it, [`ArenaView::get`] reads it, [`ArenaView::validate`] checks
//! it.
//!
//! Both columns are packed ([`crate::packed`]). The slot column is `w`
//! bits a slot, its top bit the **flag**: clear, the other `w − 1` bits
//! are the list's only id; set, they are the position of the list's
//! length word in the overflow column. `w` is one more than the bit
//! length of the largest such value, so on a dataset of 107k terms a
//! singleton takes 17 to 20 bits instead of 32 (0 for an arena of no
//! lists). The overflow column is as wide as its largest word — an id or
//! a length — needs: 16 or 17 bits on that dataset.
//!
//! A read hands a list out as a [`List`]: a singleton by value, decoded
//! from its slot, or a longer list as a **window** of the overflow column,
//! which it decodes as it is read — sequentially ([`List::into_iter`]), by
//! a branch-free binary search ([`List::search`]) or by a galloping
//! [`List::seek`], the step intersections and merge joins advance by. A
//! list is never a slice: [`List::to_vec`] decodes one. Only
//! [`SortedListAccess::sorted_list`](crate::SortedListAccess::sorted_list)
//! still lends runs as `&[Id]`, from a `u32` copy of the overflow column
//! ([`ArenaCopy`]) decoded on its first call and kept beside the
//! arena; nothing else builds it. The paper's largest experiment is 61M
//! triples, far below the 2^31 words an overflow position can address.

use crate::packed::{self, width_of, PackedColumn, PackedError, PackedView};
use crate::sorted;
use hex_dict::Id;
use std::sync::OnceLock;

/// True when `offs` is a cumulative offsets column that tiles a column
/// of `n` elements into non-empty windows: it starts at 0, rises
/// strictly, and ends at `n` — the structural invariant of every offsets
/// column in a slab, checked whenever one is adopted from outside.
pub(crate) fn offsets_tile(offs: &[u32], n: usize) -> bool {
    offs.first() == Some(&0)
        && offs.last().map(|&end| end as usize) == Some(n)
        && offs.windows(2).all(|w| w[0] < w[1])
}

/// The largest id a slot holds by value. A singleton above it — which
/// would widen the slot column past 32 bits — takes the overflow path,
/// and no overflow position may exceed it either.
const MAX_IN_SLOT: u32 = (1 << 31) - 1;

/// The flag bit of a slot column `width` bits wide: its top bit (none
/// for width 0, which only an arena of no lists has).
#[inline]
fn flag_of(width: u32) -> u32 {
    ((1u64 << width) >> 1) as u32
}

/// Overflow words a list of `len` items starting with `first` occupies:
/// none when it fits its slot, otherwise its items plus a length word.
fn overflow_words(len: usize, first: Id) -> usize {
    if len == 1 && first.0 <= MAX_IN_SLOT {
        0
    } else {
        len + 1
    }
}

/// What an arena's lists need, summed over them in list order before the
/// arena is built: the number of lists, the overflow words of those that
/// do not fit a slot, the largest value a slot holds below its flag — a
/// singleton's id or a longer list's position in the overflow column —
/// and the largest overflow word, a length or an id.
/// [`FlatArena::with_capacity`] sizes both columns exactly from it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ArenaSize {
    /// Lists.
    pub(crate) lists: usize,
    /// Overflow words.
    overflow: usize,
    /// The largest value below a slot's flag.
    max_value: usize,
    /// The largest overflow word.
    max_word: u32,
}

impl ArenaSize {
    /// Counts one more list, of `len` items from `first` to `last`.
    pub(crate) fn add(&mut self, len: usize, first: Id, last: Id) {
        let words = overflow_words(len, first);
        let value = if words == 0 { first.0 as usize } else { self.overflow };
        if words != 0 {
            let len = u32::try_from(len).unwrap_or(u32::MAX);
            self.max_word = self.max_word.max(len).max(last.0);
        }
        self.lists += 1;
        self.overflow += words;
        self.max_value = self.max_value.max(value);
    }

    /// The width of the slot column: one flag bit above the largest value,
    /// 0 for no lists, never above 32 (a position past 2^31 − 1 is refused
    /// when the list is pushed).
    fn slot_width(self) -> u32 {
        if self.lists == 0 {
            return 0;
        }
        let max = u32::try_from(self.max_value).unwrap_or(u32::MAX).min(MAX_IN_SLOT);
        1 + width_of(max)
    }
}

/// One terminal list as a read hands it out — sorted and duplicate-free:
/// a singleton held by value, decoded from its slot; a window of the
/// packed overflow column, decoded as it is read; or, for a store that
/// lends its lists as slices
/// ([`SortedListAccess::list`](crate::SortedListAccess::list)'s default),
/// a borrowed `&[Id]`. `Copy`, so it travels like the slice it stands for.
#[derive(Clone, Copy)]
pub struct List<'a>(Items<'a>);

#[derive(Clone, Copy)]
enum Items<'a> {
    One(Id),
    /// Values `start .. start + len` of an overflow column.
    Run {
        over: PackedView<'a>,
        start: usize,
        len: usize,
    },
    Slice(&'a [Id]),
}

impl<'a> List<'a> {
    /// The empty list.
    pub const EMPTY: List<'static> = List(Items::Slice(&[]));

    /// Number of ids.
    #[inline]
    pub fn len(self) -> usize {
        match self.0 {
            Items::One(_) => 1,
            Items::Run { len, .. } => len,
            Items::Slice(ids) => ids.len(),
        }
    }

    /// True when the list holds no id (only an absent list, or a corrupt
    /// mapped one, is empty).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Id `i`, or `None` past the end.
    #[inline]
    pub fn get(self, i: usize) -> Option<Id> {
        match self.0 {
            Items::One(id) => (i == 0).then_some(id),
            Items::Run { over, start, len } => (i < len).then(|| Id(over.get(start + i))),
            Items::Slice(ids) => ids.get(i).copied(),
        }
    }

    /// The smallest id.
    #[inline]
    pub fn first(self) -> Option<Id> {
        self.get(0)
    }

    /// The largest id.
    #[inline]
    pub fn last(self) -> Option<Id> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// Searches `x`: `Ok(i)` when id `i` is `x`, else `Err(i)` where
    /// inserting `x` at `i` keeps the list sorted — what
    /// `slice::binary_search` returns. A run is searched in place, branch
    /// free ([`PackedView::search`]).
    #[inline]
    pub fn search(self, x: Id) -> Result<usize, usize> {
        match self.0 {
            Items::One(id) => match id.cmp(&x) {
                std::cmp::Ordering::Equal => Ok(0),
                std::cmp::Ordering::Less => Err(1),
                std::cmp::Ordering::Greater => Err(0),
            },
            Items::Run { over, start, len } => over.search(start..start + len, x.0),
            Items::Slice(ids) => ids.binary_search(&x),
        }
    }

    /// True when `x` is in the list.
    #[inline]
    pub fn contains(self, x: Id) -> bool {
        self.search(x).is_ok()
    }

    /// The position of the first id at or after `from` that is at least
    /// `x` — [`List::len`] if none is — where the ids before `from` are
    /// below `x`: a galloping search from `from`, so advancing `d` ids
    /// costs `O(log d)` reads ([`PackedView::seek`]).
    #[inline]
    pub fn seek(self, from: usize, x: Id) -> usize {
        match self.0 {
            Items::Run { over, start, len } => over.seek(start..start + len, from, x.0),
            Items::One(id) => usize::from(from > 0 || id < x),
            Items::Slice(ids) => sorted::gallop(ids, from.min(ids.len()), &x),
        }
    }

    /// The ids, decoded into a vector.
    pub fn to_vec(self) -> Vec<Id> {
        self.into_iter().collect()
    }

    /// Where a run lies in its overflow column, `None` for a singleton or
    /// a slice — the span of the `u32` copy that
    /// [`ArenaView::lend`] hands out.
    #[inline]
    fn span(self) -> Option<std::ops::Range<usize>> {
        match self.0 {
            Items::Run { start, len, .. } => Some(start..start + len),
            Items::One(_) | Items::Slice(_) => None,
        }
    }
}

impl<'a> From<&'a [Id]> for List<'a> {
    fn from(ids: &'a [Id]) -> Self {
        List(Items::Slice(ids))
    }
}

impl std::fmt::Debug for List<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(*self).finish()
    }
}

impl PartialEq for List<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.into_iter().eq(*other)
    }
}

impl Eq for List<'_> {}

impl PartialEq<&[Id]> for List<'_> {
    fn eq(&self, other: &&[Id]) -> bool {
        *self == List::from(*other)
    }
}

impl<const N: usize> PartialEq<&[Id; N]> for List<'_> {
    fn eq(&self, other: &&[Id; N]) -> bool {
        *self == List::from(&other[..])
    }
}

impl<'a> IntoIterator for List<'a> {
    type Item = Id;
    type IntoIter = ListIter<'a>;

    #[inline]
    fn into_iter(self) -> ListIter<'a> {
        ListIter(match self.0 {
            Items::One(id) => Ids::One(Some(id)),
            Items::Run { over, start, len } => Ids::Run(over.iter(start..start + len)),
            Items::Slice(ids) => Ids::Slice(ids.iter()),
        })
    }
}

/// The ids of a [`List`] by value, owning what it reads — so a cursor can
/// return it from the closure the list was handed to. A run is decoded
/// sequentially, one load a value ([`packed::Iter`]).
#[derive(Clone, Debug)]
pub struct ListIter<'a>(Ids<'a>);

#[derive(Clone, Debug)]
enum Ids<'a> {
    One(Option<Id>),
    Run(packed::Iter<'a>),
    Slice(std::slice::Iter<'a, Id>),
}

impl Iterator for ListIter<'_> {
    type Item = Id;

    #[inline]
    fn next(&mut self) -> Option<Id> {
        match &mut self.0 {
            Ids::One(one) => one.take(),
            Ids::Run(run) => run.next().map(Id),
            Ids::Slice(ids) => ids.next().copied(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            Ids::One(one) => (usize::from(one.is_some()), Some(usize::from(one.is_some()))),
            Ids::Run(run) => run.size_hint(),
            Ids::Slice(ids) => ids.size_hint(),
        }
    }

    #[inline]
    fn fold<B, F: FnMut(B, Id) -> B>(self, init: B, mut f: F) -> B {
        match self.0 {
            Ids::One(one) => one.into_iter().fold(init, f),
            Ids::Run(run) => run.fold(init, |acc, v| f(acc, Id(v))),
            Ids::Slice(ids) => ids.copied().fold(init, f),
        }
    }
}

impl ExactSizeIterator for ListIter<'_> {}

/// Why an arena's columns are not what [`FlatArena::push_list`] writes —
/// each a different way a corrupt or hand-built arena can be wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArenaError {
    /// The slot column's image is not a packed column's (bits set past its
    /// last slot).
    Packed(PackedError),
    /// The overflow column is not the canonical packed column of its
    /// words: bits set past its last word, or a width wider than its
    /// largest word needs.
    Overflow(PackedError),
    /// The slot column is not one flag bit above its largest value wide.
    SlotWidthNotTight {
        /// The declared width.
        width: u32,
        /// The width the slots need.
        needed: u32,
    },
    /// A flagged slot does not name the position where the next overflow
    /// run starts, so runs would overlap or leave a gap.
    OffTheTiling {
        /// The list.
        list: usize,
        /// The position the slot names.
        at: usize,
    },
    /// A run's length word is missing or its items run past the column.
    RunOverruns {
        /// The list.
        list: usize,
    },
    /// A run holds one id that fits a slot, so equal lists would be
    /// unequal columns.
    FitsASlot {
        /// The list.
        list: usize,
    },
    /// A run is empty or not strictly ascending.
    NotASortedSet {
        /// The list.
        list: usize,
    },
    /// Overflow words follow the last run: no slot names them.
    Unreachable {
        /// How many.
        words: usize,
    },
}

impl std::fmt::Display for ArenaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ArenaError::Packed(e) => write!(f, "arena slot column: {e}"),
            ArenaError::Overflow(e) => write!(f, "arena overflow column: {e}"),
            ArenaError::SlotWidthNotTight { width, needed } => {
                write!(f, "arena slot column is {width} bits wide where its slots need {needed}")
            }
            ArenaError::OffTheTiling { list, at } => {
                write!(f, "list {list} names overflow position {at}, off the tiling of its runs")
            }
            ArenaError::RunOverruns { list } => {
                write!(f, "list {list}'s overflow run overruns the column")
            }
            ArenaError::FitsASlot { list } => {
                write!(f, "list {list} is an overflow run of one id that fits its slot")
            }
            ArenaError::NotASortedSet { list } => {
                write!(f, "list {list} is not a non-empty, strictly ascending run")
            }
            ArenaError::Unreachable { words } => {
                write!(f, "{words} overflow words follow the last run")
            }
        }
    }
}

impl std::error::Error for ArenaError {}

/// The `u32` copies of an arena's two columns that
/// [`SortedListAccess::sorted_list`](crate::SortedListAccess::sorted_list)
/// lends lists from: the overflow column, whose runs are the longer lists,
/// and the slot column, whose unflagged slots are the singletons. Each is
/// decoded by the first call that needs it and kept until the store is
/// dropped. The engine, the cursors and the hand plans read [`List`]s, so
/// a store that only serves queries never builds either; a store's heap
/// bytes count them once they exist.
#[derive(Clone, Debug, Default)]
pub struct ArenaCopy {
    over: OnceLock<Vec<Id>>,
    slots: OnceLock<Vec<Id>>,
}

impl ArenaCopy {
    /// Heap bytes: the copies' capacity, 0 until one is decoded.
    pub fn heap_bytes(&self) -> usize {
        let bytes = |copy: &OnceLock<Vec<Id>>| {
            copy.get().map_or(0, |copy| copy.capacity() * std::mem::size_of::<Id>())
        };
        bytes(&self.over) + bytes(&self.slots)
    }
}

/// The values of a packed column as ids, in a vector of exactly their
/// number.
fn decoded(column: PackedView<'_>) -> Vec<Id> {
    let mut ids = Vec::with_capacity(column.len());
    ids.extend(column.values().map(Id));
    ids
}

/// Borrowed columns of one flat terminal-list arena — what the shared
/// read path ([`crate::access`]) walks, whether the columns are owned by
/// a [`FlatArena`] or memory-mapped by the `hex-disk` crate.
#[derive(Clone, Copy, Debug)]
pub struct ArenaView<'a> {
    /// One packed slot per list: under the flag, the list's only id or
    /// the position in `over` of its length word (see the
    /// [module docs](self)).
    pub slots: PackedView<'a>,
    /// The lists that do not fit a slot, each a length word followed by
    /// that many strictly ascending ids, in slot order.
    pub over: PackedView<'a>,
    /// Where [`ArenaView::lend`] keeps its `u32` copies of the columns.
    pub copy: &'a ArenaCopy,
}

impl<'a> ArenaView<'a> {
    /// The items of list `idx`. Never panics: a list index past the slot
    /// column or an overflow position past the overflow column reads as
    /// the empty list, and a length that overruns the column is cut to
    /// it. In-memory arenas are validated when built, so none of that
    /// triggers there; mapped columns can change under a reader.
    #[inline]
    pub fn get(self, idx: u32) -> List<'a> {
        // A packed read past the end is 0, which would be the singleton
        // `Id(0)`: a list past the column must read empty instead.
        if idx as usize >= self.slots.len() {
            return List::EMPTY;
        }
        let (slot, flag) = (self.slots.get(idx as usize), flag_of(self.slots.width()));
        if slot & flag == 0 {
            return List(Items::One(Id(slot)));
        }
        let at = (slot & !flag) as usize;
        if at >= self.over.len() {
            return List::EMPTY;
        }
        let start = at + 1;
        let end = start.saturating_add(self.over.get(at) as usize).min(self.over.len());
        List(Items::Run { over: self.over, start, len: end - start })
    }

    /// List `idx` as a slice of a `u32` copy of the column it lies in,
    /// which the first call that needs it decodes: a run of the copy of
    /// the overflow column, or a singleton's one-id window of the copy of
    /// the slot column. `None` past the slot column.
    pub fn lend(self, idx: u32) -> Option<&'a [Id]> {
        let list = self.get(idx);
        match list.span() {
            Some(span) => self.copy.over.get_or_init(|| decoded(self.over)).get(span),
            None if (idx as usize) < self.slots.len() => {
                let idx = idx as usize;
                self.copy.slots.get_or_init(|| decoded(self.slots)).get(idx..=idx)
            }
            None => None,
        }
    }

    /// Checks the columns in one pass, `O(slots + over)`, and returns the
    /// number of items they hold, or why they are not exactly what
    /// [`FlatArena::push_list`] would have written: the slot column is a
    /// packed image one flag bit above its largest value wide, the
    /// overflow column a packed image as wide as its largest word, the
    /// overflow runs tile it in slot order (so no two lists overlap
    /// and no word is unreachable), every run is strictly ascending — the
    /// invariant binary searches over lists rely on — and no run holds a
    /// list that fits a slot (so equal lists are equal columns).
    pub fn validate(self) -> Result<usize, ArenaError> {
        self.slots.validate_tail().map_err(ArenaError::Packed)?;
        self.over.validate_tail().map_err(ArenaError::Overflow)?;
        let flag = flag_of(self.slots.width());
        let (mut next, mut items, mut size) = (0usize, 0usize, ArenaSize::default());
        for (list, slot) in self.slots.values().enumerate() {
            if slot & flag == 0 {
                size.add(1, Id(slot), Id(slot));
                items += 1;
                continue;
            }
            let at = (slot & !flag) as usize;
            if at != next {
                return Err(ArenaError::OffTheTiling { list, at });
            }
            let overruns = ArenaError::RunOverruns { list };
            if next >= self.over.len() {
                return Err(overruns);
            }
            let len = self.over.get(next) as usize;
            let end = (next + 1).checked_add(len).filter(|&end| end <= self.over.len());
            let end = end.ok_or(overruns)?;
            let run = List(Items::Run { over: self.over, start: next + 1, len });
            let (first, last) =
                run.first().zip(run.last()).ok_or(ArenaError::NotASortedSet { list })?;
            if overflow_words(len, first) == 0 {
                return Err(ArenaError::FitsASlot { list });
            }
            if !run.into_iter().is_sorted_by(|a, b| a < b) {
                return Err(ArenaError::NotASortedSet { list });
            }
            size.add(len, first, last);
            next = end;
            items += len;
        }
        if next != self.over.len() {
            return Err(ArenaError::Unreachable { words: self.over.len() - next });
        }
        let (width, needed) = (self.slots.width(), size.slot_width());
        if width != needed {
            return Err(ArenaError::SlotWidthNotTight { width, needed });
        }
        let (width, needed) = (self.over.width(), width_of(size.max_word));
        if width != needed {
            return Err(ArenaError::Overflow(PackedError::WidthNotTight { width, needed }));
        }
        Ok(items)
    }
}

/// An arena of sorted id lists stored as a packed slot column plus a
/// packed overflow column (see the [module docs](self) for the encoding).
///
/// Lists are addressed by their `u32` position. There is no removal and no free list: a
/// `FlatArena` is built once, in final order, and then only read.
#[derive(Clone, Default)]
pub struct FlatArena {
    slots: PackedColumn,
    over: PackedColumn,
    /// Total entries across all lists.
    items: usize,
    /// The `u32` copy [`ArenaView::lend`] lends runs from.
    copy: ArenaCopy,
}

/// Equal lists: the copy is a cache of the overflow column, not part of
/// the arena's value.
impl PartialEq for FlatArena {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots && self.over == other.over
    }
}

impl Eq for FlatArena {}

impl FlatArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        FlatArena::default()
    }

    /// Creates an empty arena with exact room for the lists `size`
    /// counted. Frozen builders count first, so appends never reallocate
    /// and both columns are born at their final widths.
    pub(crate) fn with_capacity(size: ArenaSize) -> Self {
        FlatArena {
            slots: PackedColumn::with_width(size.lists, size.slot_width()),
            over: PackedColumn::with_capacity(size.overflow, size.max_word),
            ..FlatArena::default()
        }
    }

    /// Creates an empty arena with exact room for `lists`, none of them
    /// empty — [`FlatArena::with_capacity`] for a builder that can walk its
    /// lists before it pushes them.
    pub(crate) fn with_room_for<'a>(lists: impl Iterator<Item = &'a [Id]>) -> Self {
        let mut size = ArenaSize::default();
        lists.for_each(|list| size.add(list.len(), list[0], list[list.len() - 1]));
        FlatArena::with_capacity(size)
    }

    /// Appends one list, returning its index. The items must form a
    /// non-empty, strictly sorted run (checked in debug builds), whose
    /// length the iterator knows up front: it is written before them. A
    /// slot or an overflow word wider than its column repacks the column
    /// as wide as the value needs; an arena sized by counting its lists
    /// first never needs to.
    ///
    /// # Panics
    ///
    /// If the list is empty, if the iterator yields other than its
    /// length, or if the arena would exceed 2^32 lists or 2^31 overflow
    /// words.
    pub fn push_list<I>(&mut self, items: I) -> u32
    where
        I: IntoIterator<Item = Id>,
        I::IntoIter: ExactSizeIterator,
    {
        let idx = u32::try_from(self.slots.len()).expect("flat arena overflow: 2^32 lists");
        let mut items = items.into_iter();
        let len = items.len();
        let first = items.next().expect("terminal lists are never empty");
        if overflow_words(len, first) == 0 {
            self.push_slot(first.0, false);
            self.items += 1;
            return idx;
        }
        let at = self.over.len();
        let at = u32::try_from(at).ok().filter(|&at| at <= MAX_IN_SLOT);
        self.push_slot(at.expect("flat arena overflow: 2^31 overflow words"), true);
        let start = self.over.len();
        self.push_word(u32::try_from(len).expect("flat arena overflow: 2^32 items in a list"));
        self.push_word(first.0);
        items.for_each(|id| self.push_word(id.0));
        assert_eq!(self.over.len() - start - 1, len, "a list yields the length it declares");
        debug_assert!(self.view().get(idx).into_iter().is_sorted_by(|a, b| a < b));
        self.items += len;
        idx
    }

    /// Appends the slot of `value`, flagged when it is an overflow
    /// position, first widening the column if `value` does not fit below
    /// its flag.
    fn push_slot(&mut self, value: u32, long: bool) {
        let width = 1 + width_of(value);
        if width > self.slots.width() {
            self.widen_slots(width);
        }
        let flag = if long { flag_of(self.slots.width()) } else { 0 };
        self.slots.push(value | flag);
    }

    /// Repacks the slot column `width` bits wide, moving every flag to the
    /// new top bit.
    fn widen_slots(&mut self, width: u32) {
        let (old, flag) = (self.slots.view(), flag_of(self.slots.width()));
        let mut slots = PackedColumn::with_width(old.len() + 1, width);
        for slot in old.values() {
            let long = if slot & flag != 0 { flag_of(width) } else { 0 };
            slots.push((slot & !flag) | long);
        }
        self.slots = slots;
    }

    /// Appends one overflow word, first repacking the column as wide as
    /// the word needs if it does not fit.
    #[inline]
    fn push_word(&mut self, word: u32) {
        self.over.push_widening(word);
    }

    /// The sorted items of list `idx`; empty when there is no such list.
    #[inline]
    pub fn get(&self, idx: u32) -> List<'_> {
        self.view().get(idx)
    }

    /// Every list, in index order.
    pub fn lists(&self) -> impl Iterator<Item = List<'_>> + '_ {
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
        self.slots.heap_bytes()
    }

    /// Heap bytes of the overflow column, and of its `u32` copy once
    /// [`ArenaView::lend`] has decoded it.
    pub(crate) fn overflow_bytes(&self) -> usize {
        self.over.heap_bytes() + self.copy.heap_bytes()
    }

    /// Heap bytes of the slot column and the overflow column (its `u32`
    /// copy included once decoded).
    pub fn heap_bytes(&self) -> usize {
        self.slot_bytes() + self.overflow_bytes()
    }

    /// The columns as the borrowed view the shared read path walks.
    pub fn view(&self) -> ArenaView<'_> {
        ArenaView { slots: self.slots.view(), over: self.over.view(), copy: &self.copy }
    }

    /// Reassembles an arena from its raw columns — `lists` slots of
    /// `width` bits in the packed image `slots`, and `words` overflow
    /// words of `over_width` bits in the packed image `over` — which must
    /// pass [`ArenaView::validate`]: the `hexsnap` reader turns the error
    /// into a corruption error rather than silently dropping query
    /// results.
    pub fn from_raw_parts(
        slots: Vec<u8>,
        width: u32,
        lists: usize,
        over: Vec<u8>,
        over_width: u32,
        words: usize,
    ) -> Result<Self, ArenaError> {
        let slots = PackedColumn::from_image(slots, width, lists).map_err(ArenaError::Packed)?;
        let over =
            PackedColumn::from_image(over, over_width, words).map_err(ArenaError::Overflow)?;
        let mut arena = FlatArena::unchecked(slots, over, 0);
        arena.items = arena.view().validate()?;
        Ok(arena)
    }

    /// An arena of `items` items over a snapshot's slot and overflow
    /// columns, read or mapped, taken as they are: [`ArenaView::get`]
    /// clamps every read to them, and [`ArenaView::validate`] is the
    /// caller's to run.
    pub(crate) fn unchecked(slots: PackedColumn, over: PackedColumn, items: usize) -> Self {
        FlatArena { slots, over, items, copy: ArenaCopy::default() }
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

/// Packs the `u32` slot column snapshots before format version 7 store —
/// the flag in bit 31 whatever the slots need — into the slot column
/// [`FlatArena::push_list`] would have written.
pub(crate) fn pack_u32_slots(slots: &[u32]) -> PackedColumn {
    const U32_FLAG: u32 = 1 << 31;
    let max = slots.iter().map(|&slot| slot & !U32_FLAG).max();
    let width = max.map_or(0, |max| 1 + width_of(max));
    let mut packed = PackedColumn::with_width(slots.len(), width);
    for &slot in slots {
        let long = if slot & U32_FLAG != 0 { flag_of(width) } else { 0 };
        packed.push((slot & !U32_FLAG) | long);
    }
    packed
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
    use crate::packed::bytes_for;

    fn id(v: u32) -> Id {
        Id(v)
    }

    /// An id a singleton cannot keep in its slot.
    const HIGH: u32 = 1 << 31;

    #[test]
    fn arena_push_and_get() {
        let lists: [&[Id]; 4] =
            [&[id(1), id(4), id(9)], &[id(7)], &[id(2), id(3)], &[id(HIGH | 5)]];
        let mut a = FlatArena::with_room_for(lists.into_iter());
        let idx: Vec<u32> = lists.iter().map(|list| a.push_list(list.iter().copied())).collect();
        assert_eq!(idx, [0, 1, 2, 3]);
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(a.get(i as u32), *list);
        }
        assert_eq!(a.get(4), &[] as &[Id], "no such list");
        assert_eq!(a.list_count(), 4);
        assert_eq!(a.total_items(), 7);
        assert_eq!(a.lists().map(|list| list.len()).collect::<Vec<_>>(), [3, 1, 2, 1]);
        // Overflow positions 0, 4 and 7, and the singleton 7: the largest
        // value is 7, so a slot is 4 bits, the flag 8. A singleton whose id
        // has bit 31 set would widen the slot past 32 bits, so it takes the
        // overflow path like a longer list — and widens the overflow column
        // to 32 bits.
        let view = a.view();
        assert_eq!(view.slots.width(), 4);
        assert_eq!(view.slots.values().collect::<Vec<_>>(), [8, 7, 8 | 4, 8 | 7]);
        assert_eq!(view.over.values().collect::<Vec<_>>(), [3, 1, 4, 9, 2, 2, 3, 1, HIGH | 5]);
        assert_eq!(view.over.width(), 32);
        // Exact-sized: one 64-bit word of slots and its zero word, and nine
        // 32-bit overflow words in five words and the zero word.
        assert_eq!(a.heap_bytes(), 16 + 48);
        assert_eq!(FlatArena::new().list_count(), 0);
        assert_eq!(FlatArena::new().view().slots.width(), 0);
    }

    #[test]
    fn pushing_widens_the_slot_column_to_what_counting_first_makes() {
        // From an empty arena each push widens the columns as far as its
        // slot and its words need, flags and all: the result is the arena
        // sized first.
        let lists: [&[Id]; 6] =
            [&[id(0)], &[id(1), id(2)], &[id(5)], &[id(300)], &[id(1), id(9)], &[id(HIGH)]];
        let mut pushed = FlatArena::new();
        let mut widths = Vec::new();
        for list in lists {
            pushed.push_list(list.iter().copied());
            widths.push((pushed.view().slots.width(), pushed.view().over.width()));
        }
        assert_eq!(widths, [(1, 0), (1, 2), (4, 2), (10, 2), (10, 4), (10, 32)]);
        let mut sized = FlatArena::with_room_for(lists.into_iter());
        for list in lists {
            sized.push_list(list.iter().copied());
        }
        assert_eq!(pushed, sized);
        let words = bytes_for(3 + 3 + 2, 32).unwrap();
        assert_eq!(sized.heap_bytes(), bytes_for(6, 10).unwrap() + words);
        assert_eq!(pushed.view().validate(), Ok(8));
    }

    #[test]
    fn a_run_is_a_window_of_the_packed_overflow_column() {
        // Ids below 2^5 and lengths below 2^2: 5-bit overflow words.
        let mut a = FlatArena::new();
        a.push_list([id(3)]);
        a.push_list([id(2), id(5), id(9), id(17), id(31)]);
        a.push_list([id(1), id(4)]);
        let (one, run, pair) = (a.get(0), a.get(1), a.get(2));
        assert_eq!(a.view().over.width(), 5);
        assert_eq!((run.len(), run.first(), run.last()), (5, Some(id(2)), Some(id(31))));
        assert_eq!((run.get(2), run.get(5)), (Some(id(9)), None));
        assert_eq!(run.to_vec(), [2, 5, 9, 17, 31].map(id));
        for (x, at) in [(0, Err(0)), (2, Ok(0)), (9, Ok(2)), (10, Err(3)), (32, Err(5))] {
            assert_eq!(run.search(id(x)), at, "{x}");
            assert_eq!(run.contains(id(x)), at.is_ok(), "{x}");
        }
        // Seeks from 0 and from past the window; ids before `from` are
        // below the target.
        assert_eq!([0, 3, 9, 31, 40].map(|x| run.seek(0, id(x))), [0, 1, 2, 4, 5]);
        assert_eq!((run.seek(3, id(17)), run.seek(5, id(1)), run.seek(9, id(1))), (3, 5, 5));
        assert_eq!([2, 3, 4].map(|x| one.seek(0, id(x))), [0, 0, 1]);
        assert_eq!((one.seek(1, id(0)), one.search(id(4)), one.search(id(2))), (1, Err(1), Err(0)));
        assert_eq!(pair.into_iter().fold(0, |n, x| n + x.0), 5);
        assert_eq!(run.into_iter().len(), 5);
    }

    #[test]
    fn runs_are_lent_from_a_u32_copy_decoded_on_first_use() {
        let mut a = FlatArena::new();
        a.push_list([id(7)]);
        a.push_list([id(1), id(2)]);
        a.push_list([id(3), id(8), id(9)]);
        let before = a.heap_bytes();
        assert_eq!(a.view().lend(2), Some(&[id(3), id(8), id(9)][..]));
        assert_eq!(a.heap_bytes(), before + 7 * 4, "the copy of seven overflow words");
        assert_eq!(a.view().lend(1), Some(&[id(1), id(2)][..]));
        assert_eq!(a.heap_bytes(), before + 7 * 4, "decoded once");
        assert_eq!(a.view().lend(0), Some(&[id(7)][..]), "a singleton, from the slot copy");
        assert_eq!(a.heap_bytes(), before + 7 * 4 + 3 * 4, "and the copy of three slots");
        assert_eq!(a.view().lend(3), None, "past the slot column");
        let clone = a.clone();
        assert_eq!(clone, a);
        let columns = FlatArena::unchecked(a.slots.clone(), a.over.clone(), a.total_items());
        assert_eq!((columns.view().validate(), columns), (Ok(6), a));
    }

    /// The raw parts of `arena`.
    fn parts(arena: &FlatArena) -> (Vec<u8>, u32, usize, Vec<u8>, u32, usize) {
        let FlatArena { slots, over, .. } = arena;
        let image = |col: &PackedColumn| col.view().bytes().to_vec();
        (image(slots), slots.width(), slots.len(), image(over), over.width(), over.len())
    }

    #[test]
    fn arena_raw_roundtrip() {
        let mut a = FlatArena::new();
        a.push_list([id(7)]);
        a.push_list([id(1), id(2)]);
        a.push_list([id(HIGH)]);
        let (slots, width, lists, over, over_width, words) = parts(&a);
        let b = FlatArena::from_raw_parts(slots, width, lists, over, over_width, words).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.total_items(), 4);
        let empty = FlatArena::from_raw_parts(Vec::new(), 0, 0, Vec::new(), 0, 0);
        assert_eq!(empty, Ok(FlatArena::new()));
    }

    #[test]
    fn every_non_canonical_arena_is_rejected_by_name() {
        use ArenaError::*;
        // Slots of `width` bits with these values, over these words at the
        // width of the largest.
        let packed = |width: u32, values: &[u32]| {
            let mut column = PackedColumn::with_width(values.len(), width);
            values.iter().for_each(|&v| column.push(v));
            (column.view().bytes().to_vec(), width, values.len())
        };
        let arena = |slots: (Vec<u8>, u32, usize), over: (Vec<u8>, u32, usize)| {
            FlatArena::from_raw_parts(slots.0, slots.1, slots.2, over.0, over.1, over.2)
        };
        let raw = |width: u32, slots: &[u32], over: &[u32]| {
            let tight = width_of(over.iter().copied().max().unwrap_or(0));
            arena(packed(width, slots), packed(tight, over))
        };
        // The canonical arena of [7], [1, 2]: 4 bits (7 needs 3), flag 8.
        assert!(raw(4, &[7, 8], &[2, 1, 2]).is_ok());
        let cases: [(&str, Result<FlatArena, ArenaError>, ArenaError); 12] = [
            (
                "a width one bit too wide",
                raw(5, &[7, 16], &[2, 1, 2]),
                SlotWidthNotTight { width: 5, needed: 4 },
            ),
            ("slots without bits", raw(0, &[0], &[]), SlotWidthNotTight { width: 0, needed: 1 }),
            (
                "a flag past the tiling",
                raw(4, &[7, 8 | 3], &[2, 1, 2]),
                OffTheTiling { list: 1, at: 3 },
            ),
            ("two flags, one run", raw(2, &[2, 2], &[2, 1, 2]), OffTheTiling { list: 1, at: 0 }),
            (
                "runs out of slot order",
                raw(3, &[4 | 3, 4], &[2, 1, 2, 2, 3, 4]),
                OffTheTiling { list: 0, at: 3 },
            ),
            ("a length past the column", raw(2, &[2], &[3, 1, 2]), RunOverruns { list: 0 }),
            ("a flag past the column", raw(2, &[2 | 1], &[0]), OffTheTiling { list: 0, at: 1 }),
            ("a run of one id that fits", raw(2, &[2], &[1, 9]), FitsASlot { list: 0 }),
            ("an empty run", raw(2, &[2], &[0]), NotASortedSet { list: 0 }),
            ("a run out of order", raw(2, &[2], &[2, 2, 1]), NotASortedSet { list: 0 }),
            ("overflow no slot names", raw(4, &[7], &[2, 1, 2]), Unreachable { words: 3 }),
            (
                "an overflow column one bit too wide",
                arena(packed(4, &[7, 8]), packed(3, &[2, 1, 2])),
                Overflow(PackedError::WidthNotTight { width: 3, needed: 2 }),
            ),
        ];
        for (why, got, expected) in cases {
            assert_eq!(got, Err(expected), "{why}");
            assert!(!expected.to_string().is_empty());
        }
        // Images with a bit set past their last value: the slot column's
        // and the overflow column's.
        let mut image = PackedColumn::from_values(&[1]).view().bytes().to_vec();
        image[0] |= 2;
        assert_eq!(
            FlatArena::from_raw_parts(image, 1, 1, Vec::new(), 0, 0),
            Err(Packed(PackedError::BitsPastEnd))
        );
        let (slots, over) = (packed(4, &[7, 8]), packed(2, &[2, 1, 2]));
        let mut words = over.0;
        words[0] |= 1 << 6;
        assert_eq!(
            FlatArena::from_raw_parts(slots.0, slots.1, slots.2, words, over.1, over.2),
            Err(Overflow(PackedError::BitsPastEnd))
        );
        // A view that skips the image checks still names them.
        let (slots, over) = (PackedColumn::from_values(&[2]), PackedColumn::from_values(&[2, 1]));
        let mut words = over.view().bytes().to_vec();
        words[1] = 1;
        let copy = ArenaCopy::default();
        let over = PackedView::new(&words, 2, 2).unwrap();
        let view = ArenaView { slots: slots.view(), over, copy: &copy };
        assert_eq!(view.validate(), Err(Overflow(PackedError::BitsPastEnd)));
    }

    #[test]
    fn u32_slots_pack_to_the_arena_push_list_builds() {
        // The slot column of format versions 4 to 6: flag in bit 31.
        let over = PackedColumn::from_values(&[2, 1, 4, 1, HIGH]);
        let arena = |slots: &[u32], over: &PackedColumn| {
            FlatArena::unchecked(pack_u32_slots(slots), over.clone(), 4)
        };
        let mut pushed = FlatArena::new();
        pushed.push_list([id(1), id(4)]);
        pushed.push_list([id(9)]);
        pushed.push_list([id(HIGH)]);
        let packed = arena(&[HIGH, 9, HIGH | 3], &over);
        assert_eq!((packed.view().validate(), packed), (Ok(4), pushed));
        let empty = FlatArena::unchecked(pack_u32_slots(&[]), PackedColumn::from_values(&[]), 0);
        assert_eq!((empty.view().validate(), empty), (Ok(0), FlatArena::new()));
        // What is wrong in the `u32` form is wrong after packing.
        assert_eq!(
            arena(&[HIGH | 1], &over).view().validate(),
            Err(ArenaError::OffTheTiling { list: 0, at: 1 })
        );
    }

    #[test]
    fn arena_from_offsets_matches_push_list() {
        let items = [id(1), id(4), id(7), id(2), id(3), id(HIGH)];
        let built = FlatArena::from_offsets(&items, &[0, 2, 3, 5, 6]).unwrap();
        let mut pushed = FlatArena::new();
        for list in [&items[0..2], &items[2..3], &items[3..5], &items[5..6]] {
            pushed.push_list(list.iter().copied());
        }
        assert_eq!(built, pushed);
        // Positions 0, 3 and 5 and the singleton 7: 4-bit slots, and the
        // eight overflow words of three lists at 32 bits (the id with bit
        // 31 set).
        assert_eq!(built.heap_bytes(), 16 + bytes_for(8, 32).unwrap(), "exact-sized");
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

    #[test]
    fn a_list_reads_like_the_slice_it_stands_for() {
        let run = [id(2), id(5)];
        let (one, long) = (List(Items::One(id(3))), List::from(&run[..]));
        assert_eq!((one.to_vec(), long.to_vec()), (vec![id(3)], run.to_vec()));
        assert_eq!(one.into_iter().collect::<Vec<_>>(), [id(3)]);
        assert_eq!(long.into_iter().len(), 2);
        assert_eq!(long.into_iter().fold(0, |n, x| n + x.0), 7);
        assert_eq!(format!("{one:?} {long:?} {:?}", List::EMPTY), "[#3] [#2, #5] []");
        assert_ne!(one, long);
        assert_eq!([1, 2, 5, 6].map(|x| long.seek(0, id(x))), [0, 0, 1, 2]);
        assert_eq!((long.seek(1, id(5)), long.seek(7, id(1))), (1, 2));
        assert_eq!(
            (long.search(id(5)), long.last(), List::EMPTY.first()),
            (Ok(1), Some(id(5)), None)
        );
    }
}
