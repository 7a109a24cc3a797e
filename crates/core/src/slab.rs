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
//! and entry `i + 1` where it ends, so a length is never stored. (`offsets_tile`
//! is the invariant of an offsets column in the `u32` form older snapshots
//! and the compressed section decode to.)
//!
//! Terminal lists are addressed the same way, after one exception for
//! what they mostly look like: on the benchmark's dataset nine lists in
//! ten hold exactly one id. [`FlatArena`] keeps one **slot** per list, and
//! the slot *is* the list when the list is a single id below 2^31. Every
//! other list is a **run**: a window of the arena's **key column**, which
//! a cumulative **run-ends** column cuts into runs exactly as an ordering's
//! offsets cut its vector keys — packed, or one Elias–Fano window of its
//! values where that is smaller ([`OffsetsColumn`]) — and the list's slot
//! holds its run's index.
//! The key column is a [`KeyColumn`] — bit-packed at the width of the
//! largest id, or Elias–Fano coded run by run, whichever is smaller — so
//! one implementation serves vector keys and lists. This module is the
//! only place that knows the encoding: [`FlatArena::push_list`] writes it,
//! [`ArenaView::get`] reads it, [`ArenaView::validate`] checks it.
//!
//! The slot column is packed ([`crate::packed`]), `w` bits a slot, its top
//! bit the **flag**: clear, the other `w − 1` bits are the list's only id;
//! set, they are the index of the list's run. `w` is one more than the bit
//! length of the largest such value, so on a dataset of 107k terms a
//! singleton takes 17 to 20 bits instead of 32 (0 for an arena of no
//! lists). Runs are numbered in slot order, so the flagged slots name runs
//! 0, 1, 2, … in turn. An arena is built from counts taken first
//! ([`FlatArena::from_lists`], the bulk builder's counting pass): every
//! column is born at its final width, and the key column in the encoding
//! its sizes choose.
//!
//! A read hands a list out as a [`List`]: a singleton by value, decoded
//! from its slot, or a run as a **window** of the key column, which it
//! decodes as it is read through [`KeysRef`] — sequentially
//! ([`List::into_iter`]), by a search ([`List::search`]) or by a
//! [`List::seek`], the step intersections and merge joins advance by
//! (galloping on a packed column, Elias–Fano's NextGEQ on a coded one). A
//! list is never a slice: [`List::to_vec`] decodes one. Only
//! [`SortedListAccess::sorted_list`](crate::SortedListAccess::sorted_list)
//! still lends runs as `&[Id]`, from a `u32` copy of the key column
//! ([`ArenaCopy`]) decoded on its first call and kept beside the arena;
//! nothing else builds it. The paper's largest experiment is 61M triples,
//! far below the 2^31 runs a slot can address.

use crate::packed::{self, width_of, PackedColumn, PackedError, PackedView};
use crate::sorted;
use crate::succinct::{
    EfColumn, EfIter, KeyCheck, KeyColumn, KeySize, KeysRef, OffsetsCheck, OffsetsColumn,
    OffsetsSize, OffsetsView,
};
use hex_dict::Id;
use std::ops::Range;
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
/// would widen the slot column past 32 bits — is a run, and no run index
/// may exceed it either.
pub(crate) const MAX_IN_SLOT: u32 = (1 << 31) - 1;

/// The flag bit of a slot column `width` bits wide: its top bit (none
/// for width 0, which only an arena of no lists has).
#[inline]
fn flag_of(width: u32) -> u32 {
    ((1u64 << width) >> 1) as u32
}

/// True when a list of `len` ids from `first` is held by value in its
/// slot rather than as a run.
#[inline]
fn in_slot(len: usize, first: Id) -> bool {
    len == 1 && first.0 <= MAX_IN_SLOT
}

/// What an arena's lists need, summed over them in list order before the
/// arena is built: the number of lists, the runs of those that do not fit
/// a slot — whose [`KeySize`] sizes the key column and chooses its
/// encoding — and the largest value a slot holds below its flag, a
/// singleton's id or a run's index. [`FlatArena::with_capacity`] sizes
/// every column exactly from it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ArenaSize {
    /// Lists.
    pub(crate) lists: usize,
    /// The runs, one key-column window each.
    runs: KeySize,
    /// The largest value below a slot's flag.
    max_value: u32,
}

impl ArenaSize {
    /// Counts one more list, of `len` items from `first` to `last`.
    pub(crate) fn add(&mut self, len: usize, first: Id, last: Id) {
        let value = if in_slot(len, first) {
            first.0
        } else {
            let run = u32::try_from(self.runs.windows).unwrap_or(u32::MAX);
            self.runs.add(len, first, last);
            run
        };
        self.lists += 1;
        self.max_value = self.max_value.max(value);
    }

    /// The width of the slot column: one flag bit above the largest value,
    /// 0 for no lists, never above 32 (a run index past 2^31 − 1 is
    /// refused when the list is pushed).
    fn slot_width(self) -> u32 {
        if self.lists == 0 {
            return 0;
        }
        1 + width_of(self.max_value.min(MAX_IN_SLOT))
    }
}

/// One terminal list as a read hands it out — sorted and duplicate-free:
/// a singleton held by value, decoded from its slot; a run, a window of
/// its arena's key column decoded as it is read; or, for a store that
/// lends its lists as slices
/// ([`SortedListAccess::list`](crate::SortedListAccess::list)'s default),
/// a borrowed `&[Id]`. `Copy`, so it travels like the slice it stands for.
#[derive(Clone, Copy)]
pub struct List<'a>(Items<'a>);

#[derive(Clone, Copy)]
enum Items<'a> {
    One(Id),
    /// A run of a packed key column: its keys `start .. start + len`.
    Run {
        keys: PackedView<'a>,
        start: u32,
        len: u32,
    },
    /// Run `run` of an Elias–Fano key column: its keys `start .. start +
    /// len`, and where its bits lie in the column's stream, read once when
    /// the list is handed out rather than at every read of it.
    Coded {
        keys: &'a EfColumn,
        run: u32,
        start: u32,
        len: u32,
        bits: (u32, u32),
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
            Items::Run { len, .. } | Items::Coded { len, .. } => len as usize,
            Items::Slice(ids) => ids.len(),
        }
    }

    /// True when the list holds no id (only an absent list, or a corrupt
    /// mapped one, is empty).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Id `i`, or `None` past the end. An Elias–Fano run finds it by a
    /// select on its high region.
    #[inline]
    pub fn get(self, i: usize) -> Option<Id> {
        match self.0 {
            Items::One(id) => (i == 0).then_some(id),
            Items::Run { keys, start, len } => {
                (i < len as usize).then(|| Id(keys.get(start as usize + i)))
            }
            Items::Coded { keys, run, start, len, bits } => {
                keys.get_in(run as usize, bits, window(start, len), i).map(Id)
            }
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
    /// `slice::binary_search` returns. A run is searched in place
    /// ([`KeysView::search`](crate::succinct::KeysView::search)).
    #[inline]
    pub fn search(self, x: Id) -> Result<usize, usize> {
        match self.0 {
            Items::One(id) => match id.cmp(&x) {
                std::cmp::Ordering::Equal => Ok(0),
                std::cmp::Ordering::Less => Err(1),
                std::cmp::Ordering::Greater => Err(0),
            },
            Items::Run { keys, start, len } => keys.search(window(start, len), x.0),
            Items::Coded { keys, run, start, len, bits } => {
                keys.search_in(run as usize, bits, window(start, len), x.0)
            }
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
    /// below `x`: a galloping search from `from` on a packed run, so
    /// advancing `d` ids costs `O(log d)` reads, or Elias–Fano's NextGEQ
    /// on a coded one ([`KeysView::seek`](crate::succinct::KeysView::seek)).
    #[inline]
    pub fn seek(self, from: usize, x: Id) -> usize {
        match self.0 {
            Items::Run { keys, start, len } => keys.seek(window(start, len), from, x.0),
            Items::Coded { keys, run, start, len, bits } => {
                keys.seek_in(run as usize, bits, window(start, len), from, x.0)
            }
            Items::One(id) => usize::from(from > 0 || id < x),
            Items::Slice(ids) => sorted::gallop(ids, from.min(ids.len()), &x),
        }
    }

    /// The ids, decoded into a vector.
    pub fn to_vec(self) -> Vec<Id> {
        self.into_iter().collect()
    }

    /// Where a run lies in its key column, `None` for a singleton or a
    /// slice — the span of the `u32` copy that [`ArenaView::lend`] hands
    /// out.
    #[inline]
    fn span(self) -> Option<std::ops::Range<usize>> {
        match self.0 {
            Items::Run { start, len, .. } | Items::Coded { start, len, .. } => {
                Some(window(start, len))
            }
            Items::One(_) | Items::Slice(_) => None,
        }
    }
}

/// The key-column positions of a run `len` keys long from `start`.
#[inline]
fn window(start: u32, len: u32) -> std::ops::Range<usize> {
    start as usize..start as usize + len as usize
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
            Items::Run { keys, start, len } => Ids::Packed(keys.iter(window(start, len))),
            Items::Coded { keys, run, start, len, bits } => {
                Ids::Coded(keys.view().iter_in(run as usize, bits, window(start, len)))
            }
            Items::Slice(ids) => Ids::Slice(ids.iter()),
        })
    }
}

/// The ids of a [`List`] by value, owning what it reads — so a cursor can
/// return it from the closure the list was handed to. A run is decoded
/// sequentially: one load a value when packed ([`packed::Iter`]), a word
/// of the high region at a time when Elias–Fano coded ([`EfIter`]).
#[derive(Clone, Debug)]
pub struct ListIter<'a>(Ids<'a>);

#[derive(Clone, Debug)]
enum Ids<'a> {
    One(Option<Id>),
    Packed(packed::Iter<'a>),
    Coded(EfIter<'a>),
    Slice(std::slice::Iter<'a, Id>),
}

impl Iterator for ListIter<'_> {
    type Item = Id;

    #[inline]
    fn next(&mut self) -> Option<Id> {
        match &mut self.0 {
            Ids::One(one) => one.take(),
            Ids::Packed(run) => run.next().map(Id),
            Ids::Coded(run) => run.next().map(Id),
            Ids::Slice(ids) => ids.next().copied(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            Ids::One(one) => (usize::from(one.is_some()), Some(usize::from(one.is_some()))),
            Ids::Packed(run) => run.size_hint(),
            Ids::Coded(run) => run.size_hint(),
            Ids::Slice(ids) => ids.size_hint(),
        }
    }

    #[inline]
    fn fold<B, F: FnMut(B, Id) -> B>(self, init: B, mut f: F) -> B {
        match self.0 {
            Ids::One(one) => one.into_iter().fold(init, f),
            Ids::Packed(run) => run.fold(init, |acc, v| f(acc, Id(v))),
            Ids::Coded(run) => run.fold(init, |acc, v| f(acc, Id(v))),
            Ids::Slice(ids) => ids.copied().fold(init, f),
        }
    }
}

impl ExactSizeIterator for ListIter<'_> {}

/// Why an arena's columns are not what [`FlatArena::push_list`] writes —
/// each a different way a corrupt or hand-built arena can be wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArenaError {
    /// The slot column's image is not a packed column's (bits set past its
    /// last slot).
    Packed(PackedError),
    /// The run-ends column is not the canonical packed column of its
    /// values: bits set past its last value, or a width wider than its
    /// largest value needs.
    Ends(PackedError),
    /// The run-ends column is not in the encoding its size chooses, or not
    /// the canonical Elias–Fano window of its values.
    EndsNotCanonical(String),
    /// The run ends do not tile the key column: they do not start at 0,
    /// do not rise strictly (a run would be empty or backwards) or do not
    /// end at the column's length.
    EndsDoNotTile,
    /// The key column is not the canonical column of its runs
    /// ([`KeyColumn::check`]): a run that does not decode to its length of
    /// strictly ascending ids, another encoding than the runs' sizes
    /// choose, or bytes other than that encoding's.
    Keys(String),
    /// The slot column is not one flag bit above its largest value wide.
    SlotWidthNotTight {
        /// The declared width.
        width: u32,
        /// The width the slots need.
        needed: u32,
    },
    /// A flagged slot names another run than the one after the last
    /// named, so two lists would share a run or a run would be skipped, or
    /// names a run past the last.
    NotTheNextRun {
        /// The list.
        list: usize,
        /// The run its slot names.
        run: usize,
    },
    /// A run holds one id that fits a slot, so equal lists would be
    /// unequal columns.
    FitsASlot {
        /// The list.
        list: usize,
    },
    /// Runs follow the last one a slot names.
    Unreachable {
        /// How many.
        runs: usize,
    },
}

impl std::fmt::Display for ArenaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArenaError::Packed(e) => write!(f, "arena slot column: {e}"),
            ArenaError::Ends(e) => write!(f, "arena run-ends column: {e}"),
            ArenaError::EndsNotCanonical(why) => write!(f, "{why}"),
            ArenaError::EndsDoNotTile => {
                write!(f, "arena run ends do not tile its key column into non-empty runs")
            }
            ArenaError::Keys(why) => write!(f, "arena key column: {why}"),
            ArenaError::SlotWidthNotTight { width, needed } => {
                write!(f, "arena slot column is {width} bits wide where its slots need {needed}")
            }
            ArenaError::NotTheNextRun { list, run } => {
                write!(f, "list {list} names run {run}, not the next run")
            }
            ArenaError::FitsASlot { list } => {
                write!(f, "list {list} is a run of one id that fits its slot")
            }
            ArenaError::Unreachable { runs } => write!(f, "{runs} runs follow the last one named"),
        }
    }
}

impl std::error::Error for ArenaError {}

/// The `u32` copies of an arena's columns that
/// [`SortedListAccess::sorted_list`](crate::SortedListAccess::sorted_list)
/// lends lists from: the key column, whose runs are the longer lists, and
/// the slot column, whose unflagged slots are the singletons. Each is
/// decoded by the first call that needs it and kept until the store is
/// dropped. The engine, the cursors and the hand plans read [`List`]s, so
/// a store that only serves queries never builds either; a store's heap
/// bytes count them once they exist.
#[derive(Clone, Debug, Default)]
pub struct ArenaCopy {
    keys: OnceLock<Vec<Id>>,
    slots: OnceLock<Vec<Id>>,
}

impl ArenaCopy {
    /// Heap bytes: the copies' capacity, 0 until one is decoded.
    pub fn heap_bytes(&self) -> usize {
        let bytes = |copy: &OnceLock<Vec<Id>>| {
            copy.get().map_or(0, |copy| copy.capacity() * std::mem::size_of::<Id>())
        };
        bytes(&self.keys) + bytes(&self.slots)
    }
}

/// Borrowed columns of one flat terminal-list arena — what the shared
/// read path ([`crate::access`]) walks, whether the columns are owned by
/// a [`FlatArena`] or memory-mapped by the `hex-disk` crate.
#[derive(Clone, Copy, Debug)]
pub struct ArenaView<'a> {
    /// One packed slot per list: under the flag, the list's only id or
    /// the index of its run (see the [module docs](self)).
    pub slots: PackedView<'a>,
    /// Where each run starts in `keys`, then where the last one ends: one
    /// entry more than runs, packed or one Elias–Fano window.
    pub ends: OffsetsView<'a>,
    /// Every run's ids, run after run in slot order, each run strictly
    /// ascending.
    pub keys: KeysRef<'a>,
    /// Where [`ArenaView::lend`] keeps its `u32` copies of the columns.
    pub copy: &'a ArenaCopy,
}

/// Where a list of an arena lies ([`ArenaView::get`]).
enum Place {
    /// A list past the slot column, or a run past the run ends.
    Empty,
    /// A singleton, its id in its slot.
    One(Id),
    /// Run `run`, the keys `start .. start + len` of the key column.
    Run { run: usize, start: u32, len: u32 },
}

impl<'a> ArenaView<'a> {
    /// The items of list `idx`. Never panics: a list index past the slot
    /// column or a run past the run-ends column reads as the empty list,
    /// and a run's window is cut to the key column. In-memory arenas are
    /// validated when built, so none of that triggers there; mapped
    /// columns can change under a reader.
    #[inline]
    pub fn get(self, idx: u32) -> List<'a> {
        let (run, start, len) = match self.place(idx) {
            Place::Empty => return List::EMPTY,
            Place::One(id) => return List(Items::One(id)),
            Place::Run { run, start, len } => (run, start, len),
        };
        List(match self.keys {
            KeysRef::Packed(keys) => Items::Run { keys, start, len },
            KeysRef::EliasFano(keys) => {
                // A run of one key is its first, which needs no bits.
                let bits = if len > 1 { keys.view().bits(run) } else { (0, 0) };
                Items::Coded { keys, run: run as u32, start, len, bits }
            }
        })
    }

    /// The length of list `idx` — [`ArenaView::get`]'s — from the slot
    /// and run-ends columns alone: no read of where a coded run's bits
    /// lie.
    #[inline]
    pub fn len_of(self, idx: u32) -> usize {
        match self.place(idx) {
            Place::Empty => 0,
            Place::One(_) => 1,
            Place::Run { len, .. } => len as usize,
        }
    }

    /// The summed lengths of `lists`: the singletons among their slots,
    /// and the span of the run-ends column their runs cover — two run
    /// ends, where [`ArenaView::len_of`] reads two a run. The flagged
    /// slots of a canonical arena name its runs in order; where they do
    /// not, each list's length is read.
    pub fn len_of_lists(self, lists: Range<usize>) -> usize {
        let lists = lists.start.min(self.slots.len())..lists.end.min(self.slots.len());
        let flag = flag_of(self.slots.width());
        let (mut singles, mut runs) = (0, None::<(usize, usize)>);
        for slot in self.slots.iter(lists.clone()) {
            if slot & flag == 0 {
                singles += 1;
                continue;
            }
            let run = (slot & !flag) as usize;
            runs = match runs {
                None => Some((run, run)),
                Some((first, last)) if run == last + 1 => Some((first, run)),
                Some(_) => return lists.map(|idx| self.len_of(idx as u32)).sum(),
            };
        }
        let Some((first, last)) = runs else { return singles };
        let keys = self.keys.len() as u32;
        let (start, end) = (self.ends.get(first).min(keys), self.ends.get(last + 1).min(keys));
        singles + end.saturating_sub(start) as usize
    }

    /// Where list `idx` lies: a slot's id, or a run's keys, clamped.
    #[inline]
    fn place(self, idx: u32) -> Place {
        // A packed read past the end is 0, which would be the singleton
        // `Id(0)`: a list past the column must read empty instead.
        if idx as usize >= self.slots.len() {
            return Place::Empty;
        }
        let (slot, flag) = (self.slots.get(idx as usize), flag_of(self.slots.width()));
        if slot & flag == 0 {
            return Place::One(Id(slot));
        }
        let run = (slot & !flag) as usize;
        let Some((start, end)) = self.ends.pair(run) else { return Place::Empty };
        let end = end.min(self.keys.len() as u32);
        let (start, len) = (start.min(end), end - start.min(end));
        Place::Run { run, start, len }
    }

    /// List `idx` as a slice of a `u32` copy of the column it lies in,
    /// which the first call that needs it decodes: a run of the copy of
    /// the key column, or a singleton's one-id window of the copy of the
    /// slot column. `None` past the slot column.
    pub fn lend(self, idx: u32) -> Option<&'a [Id]> {
        let list = self.get(idx);
        match list.span() {
            Some(span) => self.copy.keys.get_or_init(|| self.decoded_keys()).get(span),
            None if (idx as usize) < self.slots.len() => {
                let idx = idx as usize;
                let slots = self.copy.slots.get_or_init(|| {
                    let mut ids = Vec::with_capacity(self.slots.len());
                    ids.extend(self.slots.values().map(Id));
                    ids
                });
                slots.get(idx..=idx)
            }
            None => None,
        }
    }

    /// The key column's ids, run by run, in a vector of at most their
    /// number.
    fn decoded_keys(self) -> Vec<Id> {
        let keys = self.keys.view();
        let mut ids = Vec::with_capacity(keys.len());
        for (run, window) in crate::succinct::windows_of(self.ends).enumerate() {
            let room = keys.len() - ids.len();
            ids.extend(keys.iter(run, window).take(room).map(Id));
        }
        ids
    }

    /// Checks the columns, `O(slots + keys)`, and returns the number of
    /// items they hold, or why they are not exactly what
    /// [`FlatArena::push_list`] would have written: the slot column is a
    /// packed image one flag bit above its largest value wide, the run
    /// ends the canonical column of their values (packed or one
    /// Elias–Fano window, whichever is smaller) and tile the key column
    /// into non-empty runs, the key column the canonical column of those
    /// runs — each strictly ascending, the invariant searches over lists
    /// rely on — the flagged slots name the runs in order, every run once,
    /// and no run holds a list that fits a slot (so equal lists are equal
    /// columns). One pass: the run ends and each run are decoded once.
    pub fn validate(self) -> Result<usize, ArenaError> {
        self.slots.validate_tail().map_err(ArenaError::Packed)?;
        if let OffsetsView::Packed(ends) = self.ends {
            ends.validate().map_err(ArenaError::Ends)?;
        }
        let keys = self.keys.view();
        let runs = self.ends.len().saturating_sub(1);
        let mut ends = OffsetsCheck::new(self.ends);
        if ends.next() != Some(0) {
            return Err(ArenaError::EndsDoNotTile);
        }
        let mut runs_read = KeyCheck::new(keys, "run keys").map_err(ArenaError::Keys)?;
        let flag = flag_of(self.slots.width());
        let (mut next, mut start, mut items, mut size) = (0, 0, 0, ArenaSize::default());
        for (list, slot) in self.slots.values().enumerate() {
            if slot & flag == 0 {
                size.add(1, Id(slot), Id(slot));
                items += 1;
                continue;
            }
            let run = (slot & !flag) as usize;
            if run != next || run >= runs {
                return Err(ArenaError::NotTheNextRun { list, run });
            }
            let end = ends.next().map(|end| end as usize);
            let end = end.filter(|&end| end > start && end <= keys.len());
            let end = end.ok_or(ArenaError::EndsDoNotTile)?;
            let ids = runs_read.window(run, start..end).map_err(ArenaError::Keys)?;
            let (first, last) = (Id(ids[0]), Id(ids[ids.len() - 1]));
            if in_slot(ids.len(), first) {
                return Err(ArenaError::FitsASlot { list });
            }
            size.add(ids.len(), first, last);
            (items, next, start) = (items + ids.len(), next + 1, end);
        }
        if next != runs {
            return Err(ArenaError::Unreachable { runs: runs - next });
        }
        if start != keys.len() {
            return Err(ArenaError::EndsDoNotTile);
        }
        ends.finish("arena run-ends column").map_err(ArenaError::EndsNotCanonical)?;
        runs_read.finish(runs).map_err(ArenaError::Keys)?;
        let (width, needed) = (self.slots.width(), size.slot_width());
        if width != needed {
            return Err(ArenaError::SlotWidthNotTight { width, needed });
        }
        Ok(items)
    }
}

/// An arena of sorted id lists stored as a packed slot column, a packed
/// run-ends column and a key column (see the [module docs](self) for the
/// encoding).
///
/// Lists are addressed by their `u32` position. There is no removal and
/// no free list: a `FlatArena` is built once, in final order, from counts
/// taken first, and then only read.
#[derive(Clone)]
pub struct FlatArena {
    slots: PackedColumn,
    ends: OffsetsColumn,
    keys: KeyColumn,
    /// Total entries across all lists.
    items: usize,
    /// The `u32` copies [`ArenaView::lend`] lends lists from.
    copy: ArenaCopy,
}

/// Equal lists: the copy is a cache of the columns, not part of the
/// arena's value.
impl PartialEq for FlatArena {
    fn eq(&self, other: &Self) -> bool {
        (&self.slots, &self.ends, &self.keys) == (&other.slots, &other.ends, &other.keys)
    }
}

impl Eq for FlatArena {}

impl Default for FlatArena {
    fn default() -> Self {
        FlatArena::with_capacity(ArenaSize::default())
    }
}

impl FlatArena {
    /// The arena of `lists`, in order, each a non-empty, strictly
    /// ascending run of ids: counted first, then pushed, so every column is
    /// born at its final width and the key column in the encoding its
    /// sizes choose.
    ///
    /// # Panics
    ///
    /// If a list is empty, or if the arena would exceed 2^32 lists or
    /// 2^31 runs.
    pub fn from_lists<L: AsRef<[Id]>>(lists: &[L]) -> Self {
        let mut arena = FlatArena::with_room_for(lists.iter().map(AsRef::as_ref));
        for list in lists {
            arena.push_list(list.as_ref().iter().copied());
        }
        arena
    }

    /// Creates an empty arena with exact room for the lists `size`
    /// counted, its key column in the encoding their runs' sizes choose.
    /// Frozen builders count first, so appends never reallocate.
    pub(crate) fn with_capacity(size: ArenaSize) -> Self {
        let keys = u32::try_from(size.runs.keys).expect("flat arena overflow: 2^32 run ids");
        let mut ends = OffsetsColumn::with_capacity(OffsetsSize::new(size.runs.windows + 1, keys));
        ends.push(0);
        FlatArena {
            slots: PackedColumn::with_width(size.lists, size.slot_width()),
            ends,
            keys: KeyColumn::with_capacity(size.runs),
            items: 0,
            copy: ArenaCopy::default(),
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
    /// length the iterator knows up front, and must be the next list the
    /// arena's size counted.
    ///
    /// # Panics
    ///
    /// If the list is empty, if the iterator yields other than its
    /// length, if a value is wider than the counts made its column, or if
    /// the arena would exceed 2^32 lists or 2^31 runs.
    pub(crate) fn push_list<I>(&mut self, items: I) -> u32
    where
        I: IntoIterator<Item = Id>,
        I::IntoIter: ExactSizeIterator,
    {
        let idx = u32::try_from(self.slots.len()).expect("flat arena overflow: 2^32 lists");
        let mut items = items.into_iter();
        let len = items.len();
        let first = items.next().expect("terminal lists are never empty");
        self.items += len;
        if in_slot(len, first) {
            self.slots.push(first.0);
            return idx;
        }
        let run = u32::try_from(self.ends.len() - 1).ok().filter(|&run| run <= MAX_IN_SLOT);
        self.slots.push(run.expect("flat arena overflow: 2^31 runs") | flag_of(self.slots.width()));
        let start = self.keys.len();
        self.keys.push(first.0);
        let mut last = first;
        items.for_each(|id| {
            debug_assert!(last < id, "a list strictly ascends");
            last = id;
            self.keys.push(id.0);
        });
        assert_eq!(self.keys.len() - start, len, "a list yields the length it declares");
        self.keys.end_window();
        self.ends.push(self.keys.len() as u32);
        idx
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

    /// True when the key column is Elias–Fano coded.
    pub fn is_elias_fano(&self) -> bool {
        matches!(self.keys, KeyColumn::EliasFano(_))
    }

    /// True when the run-ends column is one Elias–Fano window.
    pub fn ends_coded(&self) -> bool {
        self.ends.is_elias_fano()
    }

    /// True when the key column's bit offsets are one Elias–Fano window.
    pub fn key_offsets_coded(&self) -> bool {
        matches!(&self.keys, KeyColumn::EliasFano(keys) if keys.offsets_coded())
    }

    /// Heap bytes of the slot column.
    pub(crate) fn slot_bytes(&self) -> usize {
        self.slots.heap_bytes()
    }

    /// Heap bytes of the run-ends column.
    pub(crate) fn run_end_bytes(&self) -> usize {
        self.ends.heap_bytes()
    }

    /// Heap bytes of the key column, and of the `u32` copies once
    /// [`ArenaView::lend`] has decoded them.
    pub(crate) fn run_key_bytes(&self) -> usize {
        self.keys.heap_bytes() + self.copy.heap_bytes()
    }

    /// Heap bytes of the three columns (the `u32` copies included once
    /// decoded).
    pub fn heap_bytes(&self) -> usize {
        self.slot_bytes() + self.run_end_bytes() + self.run_key_bytes()
    }

    /// The columns as the borrowed view the shared read path walks.
    pub fn view(&self) -> ArenaView<'_> {
        ArenaView {
            slots: self.slots.view(),
            ends: self.ends.view(),
            keys: self.keys.borrowed(),
            copy: &self.copy,
        }
    }

    /// Reassembles an arena from its columns, which must pass
    /// [`ArenaView::validate`].
    pub fn from_columns(
        slots: PackedColumn,
        ends: impl Into<OffsetsColumn>,
        keys: KeyColumn,
    ) -> Result<Self, ArenaError> {
        let mut arena = FlatArena::unchecked(slots, ends.into(), keys, 0);
        arena.items = arena.view().validate()?;
        Ok(arena)
    }

    /// An arena of `items` items over a snapshot's slot, run-ends and key
    /// columns, read or mapped, taken as they are: [`ArenaView::get`]
    /// clamps every read to them, and [`ArenaView::validate`] is the
    /// caller's to run.
    pub(crate) fn unchecked(
        slots: PackedColumn,
        ends: OffsetsColumn,
        keys: KeyColumn,
        items: usize,
    ) -> Self {
        FlatArena { slots, ends, keys, items, copy: ArenaCopy::default() }
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
        if !windows().all(sorted::is_sorted_set) {
            return None;
        }
        let mut arena = FlatArena::with_room_for(windows());
        for list in windows() {
            arena.push_list(list.iter().copied());
        }
        Some(arena)
    }
}

/// Packs the `u32` slot column snapshots before format version 7 store —
/// the flag in bit 31 whatever the slots need — into a packed slot column
/// one flag bit above its largest value wide.
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

    /// The values of a packed or cumulative column.
    fn values<'a>(column: impl Into<OffsetsView<'a>>) -> Vec<u32> {
        column.into().values().collect()
    }

    #[test]
    fn arena_push_and_get() {
        let lists: [&[Id]; 4] =
            [&[id(1), id(4), id(9)], &[id(7)], &[id(2), id(3)], &[id(HIGH | 5)]];
        let a = FlatArena::from_lists(&lists);
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(a.get(i as u32), *list);
        }
        assert_eq!(a.get(4), &[] as &[Id], "no such list");
        assert_eq!(a.list_count(), 4);
        assert_eq!(a.total_items(), 7);
        assert_eq!(a.lists().map(|list| list.len()).collect::<Vec<_>>(), [3, 1, 2, 1]);
        // Runs 0, 1 and 2, and the singleton 7: the largest value is 7, so
        // a slot is 4 bits, the flag 8. A singleton whose id has bit 31 set
        // would widen the slot past 32 bits, so it is a run like a longer
        // list — and widens the packed key column to 32 bits.
        let view = a.view();
        assert_eq!(view.slots.width(), 4);
        assert_eq!(values(view.slots), [8, 7, 8 | 1, 8 | 2]);
        assert_eq!(values(view.ends), [0, 3, 5, 6]);
        let KeysRef::Packed(keys) = view.keys else { panic!("32-bit ids pack smaller") };
        assert_eq!(values(keys), [1, 4, 9, 2, 3, HIGH | 5]);
        // Exact-sized: one 64-bit word of slots, one of ends and three of
        // keys, each column with its zero word.
        assert_eq!(a.heap_bytes(), 16 + 16 + 32);
        assert_eq!(view.validate(), Ok(7));
        let empty = FlatArena::default();
        assert_eq!((empty.list_count(), empty.view().slots.width()), (0, 0));
        assert_eq!((empty.view().validate(), values(empty.view().ends)), (Ok(0), vec![0]));
        assert_eq!(FlatArena::from_lists::<&[Id]>(&[]), empty);
    }

    #[test]
    fn a_run_is_a_window_of_the_key_column() {
        // Ids below 2^5: 5-bit keys.
        let a = FlatArena::from_lists(&[
            &[id(3)][..],
            &[id(2), id(5), id(9), id(17), id(31)],
            &[id(1), id(4)],
        ]);
        let (one, run, pair) = (a.get(0), a.get(1), a.get(2));
        let KeyColumn::Packed(keys) = &a.keys else { panic!("a packed key column") };
        assert_eq!(keys.width(), 5);
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
        let a = FlatArena::from_lists(&[&[id(7)][..], &[id(1), id(2)], &[id(3), id(8), id(9)]]);
        let before = a.heap_bytes();
        assert_eq!(a.view().lend(2), Some(&[id(3), id(8), id(9)][..]));
        assert_eq!(a.heap_bytes(), before + 5 * 4, "the copy of five run ids");
        assert_eq!(a.view().lend(1), Some(&[id(1), id(2)][..]));
        assert_eq!(a.heap_bytes(), before + 5 * 4, "decoded once");
        assert_eq!(a.view().lend(0), Some(&[id(7)][..]), "a singleton, from the slot copy");
        assert_eq!(a.heap_bytes(), before + 5 * 4 + 3 * 4, "and the copy of three slots");
        assert_eq!(a.view().lend(3), None, "past the slot column");
        let clone = a.clone();
        assert_eq!(clone, a);
        let columns = FlatArena::unchecked(a.slots.clone(), a.ends.clone(), a.keys.clone(), 6);
        assert_eq!((columns.view().validate(), columns), (Ok(6), a));
    }

    #[test]
    fn arena_raw_roundtrip() {
        let a = FlatArena::from_lists(&[&[id(7)][..], &[id(1), id(2)], &[id(HIGH)]]);
        let b = FlatArena::from_columns(a.slots.clone(), a.ends.clone(), a.keys.clone()).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.total_items(), 4);
        let ends = PackedColumn::from_values(&[0]);
        let empty = FlatArena::from_columns(PackedColumn::default(), ends, KeyColumn::default());
        assert_eq!(empty, Ok(FlatArena::default()));
    }

    #[test]
    fn every_non_canonical_arena_is_rejected_by_name() {
        use ArenaError::*;
        // Slots of `width` bits, tight run ends, and the runs' ids in the
        // encoding their sizes choose unless `keys` is given.
        let packed = |width: u32, values: &[u32]| {
            let mut column = PackedColumn::with_width(values.len(), width);
            values.iter().for_each(|&v| column.push(v));
            column
        };
        let raw = |width: u32, slots: &[u32], ends: &[u32], keys: &[u32]| {
            let ends = PackedColumn::from_values(ends);
            let keys = KeyColumn::Packed(PackedColumn::from_values(keys));
            FlatArena::from_columns(packed(width, slots), ends, keys)
        };
        // The canonical arena of [7], [1, 2]: 4 bits (7 needs 3), flag 8.
        assert!(raw(4, &[7, 8], &[0, 2], &[1, 2]).is_ok());
        let keys = |why: &str| Keys(format!("run keys{why}"));
        let next = |list, run| NotTheNextRun { list, run };
        let tight = |width, needed| SlotWidthNotTight { width, needed };
        let cases = [
            ("one bit too wide", raw(5, &[7, 16], &[0, 2], &[1, 2]), tight(5, 4)),
            ("slots without bits", raw(0, &[0], &[0], &[]), tight(0, 1)),
            ("a flag past the runs", raw(4, &[7, 8 | 1], &[0, 2], &[1, 2]), next(1, 1)),
            ("a flag too many", raw(2, &[2, 2 | 1], &[0, 2], &[1, 2]), next(1, 1)),
            ("two flags, one run", raw(2, &[2, 2], &[0, 2], &[1, 2]), next(1, 0)),
            ("runs out of order", raw(2, &[2 | 1, 2], &[0, 2, 4], &[1, 2, 3, 4]), next(0, 1)),
            ("ends short of the keys", raw(2, &[2], &[0, 2], &[1, 2, 3]), EndsDoNotTile),
            ("an empty run", raw(2, &[2, 2 | 1], &[0, 0, 2], &[1, 2]), EndsDoNotTile),
            ("ends that do not start at 0", raw(2, &[2], &[1, 2], &[1, 2]), EndsDoNotTile),
            ("a run of one id that fits", raw(2, &[2], &[0, 1], &[9]), FitsASlot { list: 0 }),
            ("unsorted", raw(2, &[2], &[0, 2], &[2, 1]), keys(": window 0 does not ascend")),
            ("a run no slot names", raw(4, &[7], &[0, 2], &[1, 2]), Unreachable { runs: 1 }),
        ];
        for (why, got, expected) in cases {
            assert!(!expected.to_string().is_empty());
            assert_eq!(got, Err(expected), "{why}");
        }
        // Run ends one bit too wide, and a key column in the other encoding
        // than its sizes choose.
        let wide = FlatArena::from_columns(
            packed(4, &[7, 8]),
            packed(3, &[0, 2]),
            KeyColumn::Packed(PackedColumn::from_values(&[1, 2])),
        );
        assert_eq!(wide, Err(Ends(PackedError::WidthNotTight { width: 3, needed: 2 })));
        let ends = PackedColumn::from_values(&[0, 2]);
        let coded = KeyColumn::EliasFano(crate::succinct::EfColumn::from_windows(&[1, 2], &ends));
        let got = FlatArena::from_columns(packed(4, &[7, 8]), ends, coded);
        assert_eq!(got, Err(keys(" is not in the encoding its sizes choose")));
        // Images with a bit set past their last value: the slot column's
        // and the run ends'.
        let mut image = PackedColumn::from_values(&[1]).view().bytes().to_vec();
        image[0] |= 2;
        let slots = PackedColumn::new(image.into(), 1, 1).unwrap();
        let ends = PackedColumn::from_values(&[0]);
        let got = FlatArena::from_columns(slots, ends, KeyColumn::default());
        assert_eq!(got, Err(Packed(PackedError::BitsPastEnd)));
        let mut image = PackedColumn::from_values(&[0, 2]).view().bytes().to_vec();
        image[0] |= 1 << 6;
        let ends = PackedColumn::new(image.into(), 2, 2).unwrap();
        let keys = KeyColumn::Packed(PackedColumn::from_values(&[1, 2]));
        let got = FlatArena::from_columns(packed(4, &[7, 8]), ends, keys);
        assert_eq!(got, Err(Ends(PackedError::BitsPastEnd)));
    }

    #[test]
    fn u32_slots_pack_to_the_arena_push_list_builds() {
        // The slot column of format versions 4 to 6: flag in bit 31.
        let (ends, keys) = (PackedColumn::from_values(&[0, 2, 3]), [1, 4, HIGH]);
        let keys = KeyColumn::Packed(PackedColumn::from_values(&keys));
        let arena = |slots: &[u32]| {
            FlatArena::unchecked(pack_u32_slots(slots), ends.clone().into(), keys.clone(), 4)
        };
        let pushed = FlatArena::from_lists(&[&[id(1), id(4)][..], &[id(9)], &[id(HIGH)]]);
        let packed = arena(&[HIGH, 9, HIGH | 1]);
        assert_eq!((packed.view().validate(), packed), (Ok(4), pushed));
        let empty = FlatArena::unchecked(
            pack_u32_slots(&[]),
            PackedColumn::from_values(&[0]).into(),
            KeyColumn::default(),
            0,
        );
        assert_eq!((empty.view().validate(), empty), (Ok(0), FlatArena::default()));
        // What is wrong in the `u32` form is wrong after packing.
        assert_eq!(
            arena(&[HIGH | 1, 9, HIGH]).view().validate(),
            Err(ArenaError::NotTheNextRun { list: 0, run: 1 })
        );
    }

    #[test]
    fn arena_from_offsets_matches_push_list() {
        let items = [id(1), id(4), id(7), id(2), id(3), id(HIGH)];
        let built = FlatArena::from_offsets(&items, &[0, 2, 3, 5, 6]).unwrap();
        let pushed =
            FlatArena::from_lists(&[&items[0..2], &items[2..3], &items[3..5], &items[5..6]]);
        assert_eq!(built, pushed);
        // Runs 0, 1 and 2 and the singleton 7: 4-bit slots, the four run
        // ends at 3 bits, and the five run ids at 32 bits (the id with bit
        // 31 set).
        let exact = 16 + bytes_for(4, 3).unwrap() + bytes_for(5, 32).unwrap();
        assert_eq!(built.heap_bytes(), exact, "exact-sized");
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
