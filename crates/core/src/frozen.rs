//! The Hexastore over flat slabs: the one layout of a sextuple index.
//!
//! [`FrozenHexastore`] holds all six orderings as offset-addressed key
//! columns over [`FlatArena`]s, paired orderings sharing one copy of each
//! terminal list, answering every access shape with a single probe and
//! with no per-list allocation. Its per-ordering column set, with one
//! arena per ordering, is also what a [`crate::PartialHexastore`] — and so
//! the COVP baselines — is made of. Stores are built once from a batch
//! and read-only; writes go to an [`OverlayHexastore`] over one
//! ([`FrozenHexastore::thaw`]), which compacts into a new one.
//!
//! Only what cannot be derived is stored. A window's length is the next
//! offset minus its own, so each index level keeps one cumulative offsets
//! column instead of `(offset, length)` pairs — packed, or one
//! Elias–Fano window of its values where that is smaller. **Leaf *i* of a primary
//! ordering is list *i***: the builders emit an arena's lists in its
//! primary ordering's leaf order (spo, sop, pos; every ordering of a
//! partial store), so only the mirror orderings (pso, osp, ops) keep a
//! list-reference column. And a list of one id — nine in ten of them on
//! the benchmark's data — is stored where its address would have been
//! ([`crate::slab`]).
//!
//! And every column takes the bits its order leaves it
//! ([`crate::succinct`], [`crate::packed`]): an ordering's header keys are
//! a presence bitmap with a rank directory — finding a header is a rank,
//! not a binary search — or, where the keys are sparse in the id space,
//! one Elias–Fano window; its vector keys are packed at the width of the
//! largest or Elias–Fano coded window by window; a mirror's list
//! references, which strictly ascend within each of its windows, are
//! coded the same way over the same windows; and an arena's longer lists
//! are runs of one key column cut by a run-ends column, the way vector
//! keys are windows, packed or Elias–Fano coded run by run. Every
//! cumulative column — offsets, run ends, an Elias–Fano column's bit
//! offsets — is packed or one Elias–Fano window of its values. Each
//! encoding is chosen per column, from counts the builder gathers before
//! it writes, as the smaller of the two: no option selects it.
//!
//! Reads go through [`OrderedStore::ordering`]: the paper's "spo property
//! vector of s" is `ordering(IndexKind::Spo).division(s)`, "the objects
//! of (s, p)" `ordering(IndexKind::Spo).list(s, p)`. The store itself
//! adds no accessor beside them.
//!
//! [`crate::bulk::build_frozen`] is the one builder that turns a sorted
//! run into index pairs, and it emits these slabs. The flat layout is also
//! exactly what the [`crate::hexsnap`] binary snapshot stores, which is
//! what makes "open a snapshot into a query-ready store" a column read
//! instead of a six-index rebuild.

use crate::access::{IndexView, OrderedStore, SlabOrdering};
use crate::advisor::{IndexKind, IndexSet};
use crate::overlay::OverlayHexastore;
use crate::slab::FlatArena;
use crate::sorted;
use crate::store::SpaceStats;
use crate::succinct::{
    windows_of, HeaderColumn, HeaderSize, KeyColumn, KeySize, OffsetsColumn, OffsetsSize,
    OffsetsView,
};
use crate::traits::TripleStore;
use hex_dict::{Id, IdTriple};
use std::ops::Range;
use std::sync::Arc;

/// One frozen ordering: a flat two-level index. Header `h` is the `h`-th
/// key of the `keys` column and its leaves are `offs[h]..offs[h + 1]` of
/// the `k2` column (so `offs` has one entry more than there are headers).
/// A mirror ordering's `lists` holds each leaf's terminal-list index in
/// the ordering's [`FlatArena`], windowed by `offs` as `k2` is; a primary
/// ordering has none, because its leaf `i` is list `i`. The header keys
/// are a presence bitmap with a rank directory or one Elias–Fano window,
/// the vector keys and the list references each packed or Elias–Fano
/// coded, each whichever is smaller ([`crate::succinct`]); so are the
/// offsets, packed at the width of their last value or one Elias–Fano
/// window of them ([`OffsetsColumn`]).
///
/// A mirror's references strictly ascend within each window: its primary
/// lays its leaves out by the mirror's vector key first, so the leaves of
/// one mirror header, in vector-key order, are lists in list order. That
/// is what lets them be coded as vector keys are.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FrozenIndex {
    pub(crate) keys: HeaderColumn,
    pub(crate) offs: OffsetsColumn,
    pub(crate) k2: KeyColumn,
    pub(crate) lists: Option<KeyColumn>,
}

/// What an ordering needs, counted before it is built: its header keys
/// ([`HeaderSize`]), its vector-key windows ([`KeySize`]) and, for a
/// mirror, the same windows of its list references, each of which also
/// chooses its encoding.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LevelSize {
    pub(crate) headers: HeaderSize,
    pub(crate) keys: KeySize,
    pub(crate) refs: KeySize,
}

impl LevelSize {
    /// Counts one more header, `k1`, over a window of `n` vector keys
    /// from `first` to `last`; headers come in ascending order.
    pub(crate) fn add(&mut self, k1: Id, n: usize, first: Id, last: Id) {
        self.headers.add(k1);
        self.keys.add(n, first, last);
    }
}

impl FrozenIndex {
    /// An empty primary ordering with exact room for what `size` counted.
    pub(crate) fn primary(size: LevelSize) -> Self {
        let pairs = u32::try_from(size.keys.keys).expect("frozen index overflow: 2^32 leaves");
        let mut offs = OffsetsColumn::with_capacity(OffsetsSize::new(size.keys.windows + 1, pairs));
        offs.push(0);
        FrozenIndex {
            keys: HeaderColumn::with_capacity(size.headers),
            offs,
            k2: KeyColumn::with_capacity(size.keys),
            lists: None,
        }
    }

    /// An empty mirror ordering with exact room for what `size` counted,
    /// referencing the lists of its primary, one per leaf.
    pub(crate) fn mirror(size: LevelSize) -> Self {
        FrozenIndex { lists: Some(KeyColumn::with_capacity(size.refs)), ..Self::primary(size) }
    }

    /// Appends one `(k2, list)` leaf to the open `k1` group. A primary
    /// ordering stores no reference: the leaf's position must be `list`.
    pub(crate) fn push_leaf(&mut self, k2: Id, list: u32) {
        match &mut self.lists {
            Some(lists) => lists.push(list),
            None => debug_assert_eq!(list as usize, self.k2.len(), "primary leaf i is list i"),
        }
        self.k2.push(k2.0);
    }

    /// Closes the `k1` group of the leaves pushed since the last close.
    pub(crate) fn end_k1(&mut self, k1: Id) {
        let end = u32::try_from(self.k2.len()).expect("frozen index overflow: 2^32 leaves");
        self.keys.push(k1);
        self.offs.push(end);
        self.k2.end_window();
        if let Some(lists) = &mut self.lists {
            lists.end_window();
        }
    }

    /// Each header key with its header number and leaf range, in key
    /// order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = (Id, usize, Range<usize>)> + '_ {
        let windows = windows_of(&self.offs);
        self.keys.view().keys().zip(windows).enumerate().map(|(h, (k1, w))| (k1, h, w))
    }

    /// The columns as the borrowed view the shared read path walks.
    pub(crate) fn view(&self) -> IndexView<'_> {
        IndexView {
            keys: self.keys.view(),
            offs: self.offs.view(),
            k2: self.k2.view(),
            lists: self.lists.as_ref().map(KeyColumn::view),
        }
    }

    fn header_count(&self) -> usize {
        self.keys.len()
    }

    fn pair_count(&self) -> usize {
        self.k2.len()
    }

    /// Heap bytes of the list-reference column (zero for a primary).
    fn list_ref_bytes(&self) -> usize {
        self.lists.as_ref().map_or(0, KeyColumn::heap_bytes)
    }

    /// Adds this ordering's columns to `b`, as ordering `kind`.
    fn account(&self, kind: IndexKind, b: &mut HeapBreakdown) {
        b.header_keys += self.keys.heap_bytes();
        b.header_offsets += self.offs.heap_bytes();
        if self.offs.is_elias_fano() {
            b.elias_fano_offsets = b.elias_fano_offsets.with(kind);
        }
        b.mirror_list_refs += self.list_ref_bytes();
        if let Some(KeyColumn::EliasFano(refs)) = &self.lists {
            b.elias_fano_refs = b.elias_fano_refs.with(kind);
            if refs.offsets_coded() {
                b.elias_fano_ref_offsets = b.elias_fano_ref_offsets.with(kind);
            }
        }
        match &self.k2 {
            KeyColumn::Packed(column) => b.vector_keys_packed += column.heap_bytes(),
            KeyColumn::EliasFano(column) => {
                b.vector_key_bases += column.base_bytes();
                b.vector_key_streams += column.stream_bytes();
                b.vector_key_offsets += column.offset_bytes();
                b.vector_key_ranks += column.rank_bytes();
                b.elias_fano = b.elias_fano.with(kind);
                if column.offsets_coded() {
                    b.elias_fano_key_offsets = b.elias_fano_key_offsets.with(kind);
                }
            }
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.keys.heap_bytes()
            + self.offs.heap_bytes()
            + self.k2.heap_bytes()
            + self.list_ref_bytes()
    }

    /// Assembles an index from header keys, cumulative offsets, vector keys
    /// and (a mirror's) list references in the plain form a pre-v9
    /// snapshot and the compressed section decode to, each taking the
    /// encoding its sizes choose. The keys must be strictly ascending and
    /// `offs` must tile `k2` and `lists` into strictly ascending windows —
    /// checked here, as encoding keys that do not ascend has no meaning.
    /// `None` otherwise. That every list reference is in range, and that
    /// the index agrees with the other of its pair, is the loader's to
    /// check.
    pub(crate) fn from_plain_parts(
        keys: &[Id],
        offs: &[u32],
        k2: &[u32],
        lists: Option<&[u32]>,
    ) -> Option<Self> {
        if !sorted::is_sorted_set(keys) || offs.len() != keys.len() + 1 {
            return None;
        }
        let offs = OffsetsColumn::from_values(offs);
        let k2 = windowed(k2, offs.view())?;
        let lists = match lists {
            Some(refs) => Some(windowed(refs, offs.view())?),
            None => None,
        };
        Some(FrozenIndex { keys: HeaderColumn::from_sorted(keys), offs, k2, lists })
    }
}

/// `keys` as the key column `offs` windows, in the encoding their sizes
/// choose; `None` unless `offs` tiles them into non-empty windows, each
/// strictly ascending. How plain vector keys and a mirror's plain list
/// references — a pre-v13 section's packed column, a compressed
/// section's varints — become the columns an ordering keeps.
pub(crate) fn windowed(keys: &[u32], offs: OffsetsView<'_>) -> Option<KeyColumn> {
    let ascend = |run: &[u32]| run.windows(2).all(|w| w[0] < w[1]);
    let mut values = offs.values();
    let (mut lo, mut runs_ascend) = (values.next()?, true);
    for hi in values {
        runs_ascend &= lo < hi && hi as usize <= keys.len();
        runs_ascend = runs_ascend && ascend(&keys[lo as usize..hi as usize]);
        lo = hi;
    }
    let tiles = offs.get(0) == 0 && lo as usize == keys.len();
    (runs_ascend && tiles).then(|| KeyColumn::of_windows(keys, offs))
}

/// Where a [`FrozenHexastore`]'s heap bytes go, column kind by column
/// kind — [`FrozenHexastore::heap_breakdown`]. The eleven byte counts sum
/// exactly to [`TripleStore::heap_bytes`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapBreakdown {
    /// The three arenas' packed slot columns: one slot per terminal list,
    /// which is the list itself when it holds a single id.
    pub list_slots: usize,
    /// The three arenas' packed run-ends columns: where each longer list's
    /// run starts in its arena's key column.
    pub run_ends: usize,
    /// The three arenas' key columns, packed or Elias–Fano coded: every
    /// longer list's ids — and the `u32` copies of an arena's columns once
    /// [`SortedListAccess::sorted_list`](crate::SortedListAccess::sorted_list)
    /// has decoded them.
    pub run_keys: usize,
    /// List references of the three mirror orderings (primaries store
    /// none), packed or Elias–Fano coded.
    pub mirror_list_refs: usize,
    /// Header keys: the six orderings' presence bitmaps and their rank
    /// directories, or Elias–Fano windows where those are smaller.
    pub header_keys: usize,
    /// Header offsets: the six orderings' offsets columns, packed or one
    /// Elias–Fano window each.
    pub header_offsets: usize,
    /// Vector keys of the orderings that keep them packed.
    pub vector_keys_packed: usize,
    /// Elias–Fano vector keys: each window's first key.
    pub vector_key_bases: usize,
    /// Elias–Fano vector keys: the streams of `l`, low and high parts.
    pub vector_key_streams: usize,
    /// Elias–Fano vector keys: each window's bit offset, packed or one
    /// Elias–Fano window per ordering.
    pub vector_key_offsets: usize,
    /// Elias–Fano vector keys: the streams' rank directories.
    pub vector_key_ranks: usize,
    /// The orderings whose vector keys are Elias–Fano coded.
    pub elias_fano: IndexSet,
    /// The arenas whose run keys are Elias–Fano coded, each named by the
    /// primary ordering whose leaf order its lists follow (spo for the
    /// object lists, sop for the property lists, pos for the subject
    /// lists).
    pub elias_fano_arenas: IndexSet,
    /// The mirror orderings whose list references are Elias–Fano coded.
    pub elias_fano_refs: IndexSet,
    /// The orderings whose offsets are one Elias–Fano window.
    pub elias_fano_offsets: IndexSet,
    /// The orderings whose Elias–Fano vector keys' bit offsets are one
    /// Elias–Fano window.
    pub elias_fano_key_offsets: IndexSet,
    /// The mirror orderings whose Elias–Fano list references' bit offsets
    /// are one Elias–Fano window.
    pub elias_fano_ref_offsets: IndexSet,
    /// The arenas whose run ends are one Elias–Fano window, each named by
    /// its primary ordering.
    pub elias_fano_run_ends: IndexSet,
    /// The arenas whose Elias–Fano run ids' bit offsets are one
    /// Elias–Fano window, each named by its primary ordering.
    pub elias_fano_run_key_offsets: IndexSet,
}

impl HeapBreakdown {
    /// The header level: keys and offsets.
    pub fn headers(&self) -> usize {
        self.header_keys + self.header_offsets
    }

    /// Every vector key, packed or Elias–Fano coded.
    pub fn vector_keys(&self) -> usize {
        self.vector_keys_packed
            + self.vector_key_bases
            + self.vector_key_streams
            + self.vector_key_offsets
            + self.vector_key_ranks
    }

    /// The terminal lists: slots, run ends and run keys.
    pub fn lists(&self) -> usize {
        self.list_slots + self.run_ends + self.run_keys
    }

    /// All eleven byte counts together.
    pub fn total(&self) -> usize {
        self.lists() + self.mirror_list_refs + self.headers() + self.vector_keys()
    }
}

/// The primary ordering of each of the three arenas, in canonical order
/// (object, property, subject lists).
const PRIMARIES: [IndexKind; 3] = [IndexKind::Spo, IndexKind::Sop, IndexKind::Pos];

/// One frozen index pair: primary ordering, mirror ordering, shared arena.
pub(crate) type FrozenPair = (FrozenIndex, FrozenIndex, FlatArena);

/// The Hexastore over flat slabs.
///
/// Holds the six orderings and three shared terminal-list arenas of §4.1,
/// every level a contiguous column: a lookup is a rank of the header keys
/// and a search of one window of vector keys, and terminal lists are
/// windows of their arena's columns — no nested vectors, no per-list heap
/// blocks. Obtain one with
/// [`FrozenHexastore::from_triples`] (the bulk path
/// [`crate::bulk::build_frozen`]), [`OverlayHexastore::freeze`], by
/// reading a [`crate::hexsnap`] snapshot with prebuilt slab sections, or
/// over a mapped one ([`crate::hexsnap::frozen_from_columns`]), whose
/// columns then borrow the mapping's bytes instead of owning theirs — the
/// same store, built by the same code and read the same way, equal to the
/// one the eager reader makes.
///
/// Frozen stores are immutable: [`TripleStore::insert`] and
/// [`TripleStore::remove`] panic. [`FrozenHexastore::thaw`] wraps one in
/// an [`OverlayHexastore`], which takes writes.
///
/// The slabs live behind one shared allocation, so [`Clone`] is a
/// reference-count bump, never a column copy — cloning a frozen store is
/// how a snapshot is handed to another reader thread
/// ([`crate::LiveGraphStore::subscribe`] publishes exactly such clones),
/// and the store is [`Send`]`+`[`Sync`] because nothing in it mutates.
///
/// ```
/// use hexastore::{FrozenHexastore, IdPattern, TripleStore};
/// use hex_dict::IdTriple;
///
/// let frozen = FrozenHexastore::from_triples([
///     IdTriple::from((0, 1, 2)),
///     IdTriple::from((0, 1, 3)),
///     IdTriple::from((4, 1, 2)),
/// ]);
/// assert_eq!(frozen.count_matching(IdPattern::o(hex_dict::Id(2))), 2);
/// let mut thawed = frozen.thaw();
/// assert!(thawed.insert(IdTriple::from((9, 9, 9))));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct FrozenHexastore {
    inner: Arc<FrozenInner>,
}

/// The shared slab payload of a [`FrozenHexastore`]: six orderings over
/// three paired terminal arenas. One allocation, arbitrarily many
/// reader handles.
#[derive(PartialEq, Eq)]
struct FrozenInner {
    spo: FrozenIndex,
    sop: FrozenIndex,
    pso: FrozenIndex,
    pos: FrozenIndex,
    osp: FrozenIndex,
    ops: FrozenIndex,
    /// Terminal object lists, shared by spo and pso.
    o_lists: FlatArena,
    /// Terminal property lists, shared by sop and osp.
    p_lists: FlatArena,
    /// Terminal subject lists, shared by pos and ops.
    s_lists: FlatArena,
    len: usize,
}

impl FrozenHexastore {
    /// Bulk-builds a frozen store from an arbitrary (unsorted, possibly
    /// duplicated) triple collection: sorted runs are emitted straight
    /// into the slabs.
    pub fn from_triples(triples: impl IntoIterator<Item = IdTriple>) -> Self {
        crate::bulk::build_frozen(triples.into_iter().collect())
    }

    /// The six orderings in canonical order (spo, sop, pso, pos, osp,
    /// ops) — the serialization walk of the `hexsnap` format.
    pub(crate) fn orderings(&self) -> [&FrozenIndex; 6] {
        [
            &self.inner.spo,
            &self.inner.sop,
            &self.inner.pso,
            &self.inner.pos,
            &self.inner.osp,
            &self.inner.ops,
        ]
    }

    /// The three shared arenas in canonical order (object, property,
    /// subject lists).
    pub(crate) fn arenas(&self) -> [&FlatArena; 3] {
        [&self.inner.o_lists, &self.inner.p_lists, &self.inner.s_lists]
    }

    pub(crate) fn from_raw_parts(
        orderings: [FrozenIndex; 6],
        arenas: [FlatArena; 3],
        len: usize,
    ) -> Self {
        let [spo, sop, pso, pos, osp, ops] = orderings;
        let [o_lists, p_lists, s_lists] = arenas;
        FrozenHexastore {
            inner: Arc::new(FrozenInner {
                spo,
                sop,
                pso,
                pos,
                osp,
                ops,
                o_lists,
                p_lists,
                s_lists,
                len,
            }),
        }
    }

    /// The largest id referenced anywhere in the slabs, if any — the
    /// snapshot loader's bound check against the dictionary size.
    pub(crate) fn max_id(&self) -> Option<Id> {
        let mut max: Option<Id> = None;
        let mut update = |candidate: Option<Id>| {
            if let Some(c) = candidate {
                max = Some(max.map_or(c, |m| m.max(c)));
            }
        };
        // A header bitmap's last bit is its largest key. Every vector key
        // is a header key of the same pair's other ordering — a mirror's
        // vector keys are its primary's headers and the other way round —
        // so the header keys cover them.
        for ix in self.orderings() {
            update(ix.keys.view().last());
        }
        for arena in self.arenas() {
            // Lists are sorted: the last item of each is its largest.
            update(arena.lists().filter_map(|list| list.last()).max());
        }
        max
    }

    /// Counts key entries in headers, vectors and shared terminal lists —
    /// the quantities behind the paper's worst-case five-fold space bound.
    pub fn space_stats(&self) -> SpaceStats {
        SpaceStats {
            triples: self.inner.len,
            header_entries: self.orderings().iter().map(|ix| ix.header_count()).sum(),
            vector_entries: self.orderings().iter().map(|ix| ix.pair_count()).sum(),
            list_entries: self.arenas().iter().map(|a| a.total_items()).sum(),
        }
    }

    /// [`TripleStore::heap_bytes`] split by column kind, counting the
    /// capacity of every owned column.
    pub fn heap_breakdown(&self) -> HeapBreakdown {
        let arenas = self.arenas();
        let mut b = HeapBreakdown {
            list_slots: arenas.iter().map(|a| a.slot_bytes()).sum(),
            run_ends: arenas.iter().map(|a| a.run_end_bytes()).sum(),
            run_keys: arenas.iter().map(|a| a.run_key_bytes()).sum(),
            ..HeapBreakdown::default()
        };
        for (kind, arena) in PRIMARIES.into_iter().zip(arenas) {
            if arena.is_elias_fano() {
                b.elias_fano_arenas = b.elias_fano_arenas.with(kind);
            }
            if arena.ends_coded() {
                b.elias_fano_run_ends = b.elias_fano_run_ends.with(kind);
            }
            if arena.key_offsets_coded() {
                b.elias_fano_run_key_offsets = b.elias_fano_run_key_offsets.with(kind);
            }
        }
        for (kind, ix) in IndexKind::ALL.into_iter().zip(self.orderings()) {
            ix.account(kind, &mut b);
        }
        b
    }

    /// Wraps the store in a clean [`OverlayHexastore`], which takes
    /// writes. O(1): the overlay's base is this store, slabs and all.
    pub fn thaw(self) -> OverlayHexastore {
        OverlayHexastore::new(self)
    }
}

impl std::fmt::Debug for FrozenHexastore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenHexastore")
            .field("triples", &self.inner.len)
            .field("subjects", &self.inner.spo.header_count())
            .field("properties", &self.inner.pso.header_count())
            .field("objects", &self.inner.osp.header_count())
            .finish()
    }
}

/// All six orderings, paired orderings handing out the same arena.
impl OrderedStore for FrozenHexastore {
    fn kept(&self) -> IndexSet {
        IndexSet::all()
    }

    fn ordering(&self, kind: IndexKind) -> SlabOrdering<'_> {
        let f = &*self.inner;
        let (ix, arena) = match kind {
            IndexKind::Spo => (&f.spo, &f.o_lists),
            IndexKind::Sop => (&f.sop, &f.p_lists),
            IndexKind::Pso => (&f.pso, &f.o_lists),
            IndexKind::Pos => (&f.pos, &f.s_lists),
            IndexKind::Osp => (&f.osp, &f.p_lists),
            IndexKind::Ops => (&f.ops, &f.s_lists),
        };
        SlabOrdering { index: ix.view(), arena: arena.view() }
    }
}

impl TripleStore for FrozenHexastore {
    fn name(&self) -> &'static str {
        "FrozenHexastore"
    }

    fn len(&self) -> usize {
        self.inner.len
    }

    /// # Panics
    ///
    /// Always — frozen stores are read-only. [`FrozenHexastore::thaw`]
    /// first.
    fn insert(&mut self, _: IdTriple) -> bool {
        panic!("FrozenHexastore is read-only: thaw() to an OverlayHexastore first")
    }

    /// # Panics
    ///
    /// Always — frozen stores are read-only. [`FrozenHexastore::thaw`]
    /// first.
    fn remove(&mut self, _: IdTriple) -> bool {
        panic!("FrozenHexastore is read-only: thaw() to an OverlayHexastore first")
    }

    fn heap_bytes(&self) -> usize {
        self.heap_breakdown().total()
    }

    crate::forward_reads!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::IdPattern;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    fn sample() -> Vec<IdTriple> {
        vec![t(1, 2, 3), t(1, 2, 4), t(1, 5, 3), t(2, 2, 3), t(2, 5, 9), t(9, 9, 9), t(3, 2, 1)]
    }

    fn all_patterns(triples: &[IdTriple]) -> Vec<IdPattern> {
        let mut pats = vec![IdPattern::ALL, IdPattern::spo(t(0, 0, 0))];
        for &tr in triples {
            pats.extend([
                IdPattern::spo(tr),
                IdPattern::sp(tr.s, tr.p),
                IdPattern::so(tr.s, tr.o),
                IdPattern::po(tr.p, tr.o),
                IdPattern::s(tr.s),
                IdPattern::p(tr.p),
                IdPattern::o(tr.o),
            ]);
        }
        pats
    }

    #[test]
    fn freeze_preserves_every_access_path() {
        // Freezing an overlay that holds every triple as a pending write
        // builds the same store as the bulk path, answering every shape
        // as the overlay did.
        let mut mutable = OverlayHexastore::default();
        for tr in sample() {
            assert!(mutable.insert(tr));
        }
        let frozen = mutable.freeze();
        assert_eq!(frozen, FrozenHexastore::from_triples(sample()));
        assert_eq!(frozen.len(), mutable.len());
        for pat in all_patterns(&sample()) {
            assert_eq!(frozen.matching(pat), mutable.matching(pat), "{pat:?}");
            assert_eq!(
                frozen.iter_matching(pat).collect::<Vec<_>>(),
                mutable.matching(pat),
                "{pat:?}"
            );
            assert_eq!(frozen.count_matching(pat), mutable.count_matching(pat), "{pat:?}");
        }
    }

    #[test]
    fn thaw_roundtrip_is_lossless_and_updatable() {
        let frozen = FrozenHexastore::from_triples(sample());
        let mut thawed = frozen.clone().thaw();
        assert_eq!(thawed.len(), frozen.len());
        assert_eq!(thawed.freeze(), frozen);
        assert_eq!(thawed.matching(IdPattern::ALL), frozen.matching(IdPattern::ALL));
        // The thawed store is fully updatable.
        assert!(thawed.insert(t(42, 42, 42)));
        assert!(thawed.remove(t(1, 2, 3)));
        assert_eq!(thawed.len(), frozen.len());
        assert_eq!(thawed.freeze().space_stats().triples, frozen.len());
    }

    #[test]
    fn frozen_lists_are_shared_within_pairs() {
        // Freezing must keep the §4.1 single-copy property: the o-list of
        // (s=1, p=2) reachable via spo and pso is the same column window.
        let frozen = FrozenHexastore::from_triples(sample());
        let via_spo = frozen.ordering(IndexKind::Spo).list(Id(1), Id(2));
        let via_pso = frozen.inner.spo.view().list_idx(Id(1), Id(2)).unwrap();
        let mirror = frozen.inner.pso.view().list_idx(Id(2), Id(1)).unwrap();
        assert_eq!(via_spo, &[Id(3), Id(4)]);
        assert_eq!(via_pso, mirror, "pair orderings must reference one list");
        // Total items per pair equals the triple count, not double.
        assert_eq!(frozen.inner.o_lists.total_items(), frozen.len());
    }

    #[test]
    fn raw_index_levels_must_tile_and_ascend_within_each_group() {
        let raw = |offs: &[u32], k2: &[u32]| {
            let primary = FrozenIndex::from_plain_parts(&[Id(1), Id(2)], offs, k2, None);
            // The same windows as a mirror's list references.
            let refs =
                FrozenIndex::from_plain_parts(&[Id(1), Id(2)], offs, &[0, 1, 2, 3], Some(k2));
            assert_eq!(primary.is_some(), refs.is_some());
            primary.is_some()
        };
        assert!(raw(&[0, 2, 4], &[5, 9, 3, 7]), "a group may start below the last");
        assert!(!raw(&[0, 2, 4], &[9, 5, 3, 7]), "descending within a group");
        assert!(!raw(&[0, 2, 4], &[5, 9, 7, 7]), "a repeat within a group");
        assert!(!raw(&[0, 3, 4], &[5, 9, 3, 7]), "the second group's start moved");
        assert!(!raw(&[0, 2, 2, 4], &[5, 9, 3, 7]), "one offset too many");
        assert!(!raw(&[0, 2, 5], &[5, 9, 3, 7]), "offsets past the column");
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn frozen_insert_panics() {
        let mut frozen = FrozenHexastore::from_triples(sample());
        frozen.insert(t(0, 0, 0));
    }

    #[test]
    fn iter_matching_range_is_the_exact_subsequence() {
        let frozen = FrozenHexastore::from_triples(sample());
        for pat in all_patterns(&sample()) {
            let full: Vec<IdTriple> = frozen.iter_matching(pat).collect();
            let n = full.len();
            for start in 0..=n + 1 {
                for end in start..=n + 2 {
                    let got: Vec<IdTriple> = frozen.iter_matching_range(pat, start, end).collect();
                    let want: Vec<IdTriple> =
                        full.iter().copied().skip(start).take(end - start).collect();
                    assert_eq!(got, want, "{pat:?} [{start}, {end})");
                }
            }
            // Contiguous shards reassemble the full cursor byte-identically.
            let mid = n / 2;
            let mut shards: Vec<IdTriple> = frozen.iter_matching_range(pat, 0, mid).collect();
            shards.extend(frozen.iter_matching_range(pat, mid, n));
            assert_eq!(shards, full, "{pat:?} sharded");
        }
    }

    #[test]
    fn clone_shares_the_slabs() {
        let frozen = FrozenHexastore::from_triples(sample());
        let clone = frozen.clone();
        assert_eq!(clone, frozen);
        // Same allocation, not a copy: the terminal columns are at the
        // same address through both handles.
        assert!(std::ptr::eq(
            frozen.inner.o_lists.view().slots.bytes().as_ptr(),
            clone.inner.o_lists.view().slots.bytes().as_ptr()
        ));
    }

    #[test]
    fn frozen_heap_bytes_do_not_exceed_mutable() {
        // Flat slabs hold six orderings in less than the overlay's four
        // ordered sets take for the same triples as pending writes.
        let triples: Vec<IdTriple> = (0..2000u32).map(|i| t(i % 97, i % 13, i)).collect();
        let mut mutable = OverlayHexastore::default();
        for &tr in &triples {
            mutable.insert(tr);
        }
        let frozen_bytes = mutable.freeze().heap_bytes();
        assert!(
            frozen_bytes <= mutable.heap_bytes(),
            "frozen {} > mutable {}",
            frozen_bytes,
            mutable.heap_bytes()
        );
    }
}
