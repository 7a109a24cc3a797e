//! The read-only Hexastore over flat slabs: a zero-copy query structure.
//!
//! The mutable [`Hexastore`] pays for updatability with one heap
//! allocation per vector and per terminal list. Most production stores
//! spend their life *read-only* — bulk-loaded once, queried millions of
//! times, snapshotted to disk between restarts — so this module provides
//! the frozen counterpart, [`FrozenHexastore`]: all six orderings as
//! offset-addressed key columns over [`FlatArena`]s, paired orderings
//! still sharing one copy of each terminal list, answering every access
//! shape with the same single probes as the mutable store but with zero
//! per-list allocations. Its per-ordering column set, with one arena per
//! ordering, is also what a [`crate::PartialHexastore`] is made of.
//!
//! Only what cannot be derived is stored. A window's length is the next
//! offset minus its own, so each index level keeps one cumulative offsets
//! column instead of `(offset, length)` pairs. **Leaf *i* of a primary
//! ordering is list *i***: the builders emit an arena's lists in its
//! primary ordering's leaf order (spo, sop, pos; every ordering of a
//! partial store), so only the mirror orderings (pso, osp, ops) keep a
//! list-reference column. And a list of one id — nine in ten of them on
//! the benchmark's data — is stored where its address would have been
//! ([`crate::slab`]).
//!
//! [`crate::bulk::build_frozen`] is the one builder that turns a sorted
//! run into index pairs, and it emits these slabs. The nested mutable
//! form is their [`FrozenHexastore::thaw`] (which is how
//! [`crate::bulk::build`] and [`crate::hexsnap::load`] make one), and
//! [`Hexastore::freeze`] flattens a nested store again; both conversions
//! are loss-free. The flat layout is also exactly what the
//! [`crate::hexsnap`] binary snapshot stores, which is what makes "open a
//! snapshot into a query-ready store" a column read instead of a
//! six-index rebuild.

use crate::access::{IndexView, OrderedStore, OrderingRead, SlabOrdering};
use crate::advisor::{IndexKind, IndexSet};
use crate::arena::ListArena;
use crate::slab::{offsets_tile, FlatArena};
use crate::sorted;
use crate::store::{Hexastore, SpaceStats, TwoLevel};
use crate::traits::TripleStore;
use crate::vecmap::VecMap;
use hex_dict::{Id, IdTriple};
use std::sync::Arc;

/// One frozen ordering: a flat two-level index. Header `h` is `keys[h]`
/// and its leaves are `offs[h]..offs[h + 1]` of the `k2` column (so `offs`
/// has one entry more than `keys`). A mirror ordering's `lists` holds each
/// leaf's terminal-list index in the ordering's [`FlatArena`]; a primary
/// ordering has none, because its leaf `i` is list `i`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FrozenIndex {
    pub(crate) keys: Vec<Id>,
    pub(crate) offs: Vec<u32>,
    pub(crate) k2: Vec<Id>,
    pub(crate) lists: Option<Vec<u32>>,
}

impl FrozenIndex {
    /// An empty primary ordering with exact room for `headers` headers
    /// and `pairs` leaves.
    pub(crate) fn primary(headers: usize, pairs: usize) -> Self {
        let mut offs = Vec::with_capacity(headers + 1);
        offs.push(0);
        FrozenIndex {
            keys: Vec::with_capacity(headers),
            offs,
            k2: Vec::with_capacity(pairs),
            lists: None,
        }
    }

    /// An empty mirror ordering with exact room for `headers` headers and
    /// `pairs` leaves.
    pub(crate) fn mirror(headers: usize, pairs: usize) -> Self {
        FrozenIndex { lists: Some(Vec::with_capacity(pairs)), ..Self::primary(headers, pairs) }
    }

    /// Appends one `(k2, list)` leaf to the open `k1` group. A primary
    /// ordering stores no reference: the leaf's position must be `list`.
    pub(crate) fn push_leaf(&mut self, k2: Id, list: u32) {
        match &mut self.lists {
            Some(lists) => lists.push(list),
            None => debug_assert_eq!(list as usize, self.k2.len(), "primary leaf i is list i"),
        }
        self.k2.push(k2);
    }

    /// Closes the `k1` group of the leaves pushed since the last close.
    pub(crate) fn end_k1(&mut self, k1: Id) {
        let end = u32::try_from(self.k2.len()).expect("frozen index overflow: 2^32 leaves");
        debug_assert!(self.offs.last().is_some_and(|&start| start < end), "empty k1 group");
        debug_assert!(self.keys.last().is_none_or(|&last| last < k1));
        self.keys.push(k1);
        self.offs.push(end);
    }

    /// Each header key with its leaf range, in key order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = (Id, std::ops::Range<usize>)> + '_ {
        self.keys
            .iter()
            .zip(self.offs.windows(2))
            .map(|(&k1, w)| (k1, w[0] as usize..w[1] as usize))
    }

    /// The terminal-list index of leaf `i`.
    pub(crate) fn list_of(&self, i: usize) -> u32 {
        self.lists.as_ref().map_or(i as u32, |lists| lists[i])
    }

    /// The columns as the borrowed view the shared read path walks.
    pub(crate) fn view(&self) -> IndexView<'_> {
        IndexView { keys: &self.keys, offs: &self.offs, k2: &self.k2, lists: self.lists.as_deref() }
    }

    fn header_count(&self) -> usize {
        self.keys.len()
    }

    fn pair_count(&self) -> usize {
        self.k2.len()
    }

    /// Heap bytes of the header level: keys and offsets.
    fn header_bytes(&self) -> usize {
        (self.keys.capacity() + self.offs.capacity()) * std::mem::size_of::<u32>()
    }

    /// Heap bytes of the vector-key column.
    fn k2_bytes(&self) -> usize {
        self.k2.capacity() * std::mem::size_of::<Id>()
    }

    /// Heap bytes of the list-reference column (zero for a primary).
    fn list_ref_bytes(&self) -> usize {
        self.lists.as_ref().map_or(0, |lists| lists.capacity() * std::mem::size_of::<u32>())
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.header_bytes() + self.k2_bytes() + self.list_ref_bytes()
    }

    /// Reassembles an index from deserialized columns, validating the
    /// structural invariants binary search relies on: header keys strictly
    /// ascending, offsets tiling the `k2` column into non-empty groups in
    /// header order, every group's `k2` run strictly ascending, and every
    /// list reference in range for the `arena_lists`-sized arena (a
    /// primary's implicit references are in range when it has exactly
    /// `arena_lists` leaves). Returns `None` on any violation.
    pub(crate) fn from_raw_parts(
        keys: Vec<Id>,
        offs: Vec<u32>,
        k2: Vec<Id>,
        lists: Option<Vec<u32>>,
        arena_lists: usize,
    ) -> Option<Self> {
        let refs_valid = match &lists {
            Some(lists) => {
                lists.len() == k2.len() && lists.iter().all(|&l| (l as usize) < arena_lists)
            }
            None => k2.len() == arena_lists,
        };
        let valid = refs_valid
            && offs.len() == keys.len() + 1
            && offsets_tile(&offs, k2.len())
            && sorted::is_sorted_set(&keys)
            && offs.windows(2).all(|w| sorted::is_sorted_set(&k2[w[0] as usize..w[1] as usize]));
        valid.then_some(FrozenIndex { keys, offs, k2, lists })
    }
}

/// Where a [`FrozenHexastore`]'s heap bytes go, column kind by column
/// kind — [`FrozenHexastore::heap_breakdown`]. The five parts sum exactly
/// to [`TripleStore::heap_bytes`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapBreakdown {
    /// The three arenas' slot columns: one word per terminal list, which
    /// is the list itself when it holds a single id.
    pub list_slots: usize,
    /// The three arenas' overflow columns: every longer list's items plus
    /// its length word.
    pub overflow: usize,
    /// Vector keys: the six orderings' `k2` columns.
    pub vector_keys: usize,
    /// List references of the three mirror orderings (primaries store none).
    pub mirror_list_refs: usize,
    /// Header keys plus header offsets of the six orderings.
    pub headers: usize,
}

impl HeapBreakdown {
    /// All five parts together.
    pub fn total(&self) -> usize {
        self.list_slots + self.overflow + self.vector_keys + self.mirror_list_refs + self.headers
    }
}

/// One frozen index pair: primary ordering, mirror ordering, shared arena.
pub(crate) type FrozenPair = (FrozenIndex, FrozenIndex, FlatArena);

/// A read-only Hexastore over flat slabs.
///
/// Holds the same six orderings and three shared terminal-list arenas as
/// the mutable [`Hexastore`], but every level is a contiguous column:
/// lookups are binary searches over key columns and terminal lists are
/// slices of their arena's columns — no nested vectors, no per-list heap
/// blocks. Obtain one with [`Hexastore::freeze`], the direct bulk path
/// [`crate::bulk::build_frozen`], or by opening a
/// [`crate::hexsnap`] snapshot with prebuilt slab sections.
///
/// Frozen stores are immutable: [`TripleStore::insert`] and
/// [`TripleStore::remove`] panic. Use [`FrozenHexastore::thaw`] to get an
/// updatable [`Hexastore`] back (loss-free).
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
    /// Bulk-builds a frozen store from an arbitrary triple collection —
    /// sorted runs are emitted straight into the slabs, never through the
    /// mutable nested representation.
    pub fn from_triples(triples: impl IntoIterator<Item = IdTriple>) -> Self {
        crate::bulk::build_frozen(triples.into_iter().collect())
    }

    pub(crate) fn from_parts(
        spo_pair: FrozenPair,
        sop_pair: FrozenPair,
        pos_pair: FrozenPair,
        len: usize,
    ) -> Self {
        let (spo, pso, o_lists) = spo_pair;
        let (sop, osp, p_lists) = sop_pair;
        let (pos, ops, s_lists) = pos_pair;
        Self::from_raw_parts([spo, sop, pso, pos, osp, ops], [o_lists, p_lists, s_lists], len)
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

    /// Sorted objects o with (s, p, o) stored — the spo/pso shared list.
    pub fn objects_for(&self, s: Id, p: Id) -> &[Id] {
        self.ordering(IndexKind::Spo).list(s, p)
    }

    /// Sorted properties p with (s, p, o) stored — the sop/osp shared list.
    pub fn properties_for(&self, s: Id, o: Id) -> &[Id] {
        self.ordering(IndexKind::Sop).list(s, o)
    }

    /// Sorted subjects s with (s, p, o) stored — the pos/ops shared list.
    pub fn subjects_for(&self, p: Id, o: Id) -> &[Id] {
        self.ordering(IndexKind::Pos).list(p, o)
    }

    /// Sorted iterator over all distinct subjects.
    pub fn subjects(&self) -> impl Iterator<Item = Id> + '_ {
        self.inner.spo.keys.iter().copied()
    }

    /// Sorted iterator over all distinct properties.
    pub fn properties(&self) -> impl Iterator<Item = Id> + '_ {
        self.inner.pso.keys.iter().copied()
    }

    /// Sorted iterator over all distinct objects.
    pub fn objects(&self) -> impl Iterator<Item = Id> + '_ {
        self.inner.osp.keys.iter().copied()
    }

    /// Number of distinct subjects.
    pub fn subject_count(&self) -> usize {
        self.inner.spo.header_count()
    }

    /// Number of distinct properties.
    pub fn property_count(&self) -> usize {
        self.inner.pso.header_count()
    }

    /// Number of distinct objects.
    pub fn object_count(&self) -> usize {
        self.inner.osp.header_count()
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
        for ix in self.orderings() {
            // Header keys are sorted; k2 groups are only locally sorted.
            update(ix.keys.last().copied());
            update(ix.k2.iter().max().copied());
        }
        for arena in self.arenas() {
            // Lists are sorted: the last item of each is its largest.
            update(arena.lists().filter_map(|list| list.last().copied()).max());
        }
        max
    }

    /// The same header/vector/list entry accounting as
    /// [`Hexastore::space_stats`] — freezing never changes the paper's
    /// §4.1 quantities, only how they are laid out.
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
        let (ixs, arenas) = (self.orderings(), self.arenas());
        HeapBreakdown {
            list_slots: arenas.iter().map(|a| a.slot_bytes()).sum(),
            overflow: arenas.iter().map(|a| a.overflow_bytes()).sum(),
            vector_keys: ixs.iter().map(|ix| ix.k2_bytes()).sum(),
            mirror_list_refs: ixs.iter().map(|ix| ix.list_ref_bytes()).sum(),
            headers: ixs.iter().map(|ix| ix.header_bytes()).sum(),
        }
    }

    /// Converts into a mutable [`Hexastore`] (loss-free: the same
    /// triples, sharing structure, and space accounting). Every vector and
    /// arena is allocated at the exact size the slabs give, so a thawed
    /// store has no slack capacity; this is how the nested store is
    /// bulk-built ([`crate::bulk::build`]).
    pub fn thaw(self) -> Hexastore {
        let spo_pair = thaw_pair(&self.inner.spo, &self.inner.pso, &self.inner.o_lists);
        let sop_pair = thaw_pair(&self.inner.sop, &self.inner.osp, &self.inner.p_lists);
        let pos_pair = thaw_pair(&self.inner.pos, &self.inner.ops, &self.inner.s_lists);
        Hexastore::from_built_parts(spo_pair, sop_pair, pos_pair, self.inner.len)
    }
}

impl std::fmt::Debug for FrozenHexastore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenHexastore")
            .field("triples", &self.inner.len)
            .field("subjects", &self.subject_count())
            .field("properties", &self.property_count())
            .field("objects", &self.object_count())
            .finish()
    }
}

impl Hexastore {
    /// Builds the read-only flat-slab representation. The conversion
    /// walks each index pair once and allocates the slabs at their exact
    /// final sizes; shared terminal lists stay shared (each list is
    /// copied into the pair's arena exactly once). Borrows `self`,
    /// so the mutable store can keep serving while a snapshot freezes.
    pub fn freeze(&self) -> FrozenHexastore {
        let [(spo, pso, o), (sop, osp, p), (pos, ops, s)] = self.pair_refs();
        let spo_pair = freeze_pair(spo, pso, o);
        let sop_pair = freeze_pair(sop, osp, p);
        let pos_pair = freeze_pair(pos, ops, s);
        FrozenHexastore::from_parts(spo_pair, sop_pair, pos_pair, self.len())
    }
}

/// Flattens one mutable index pair. Its input is either a thaw, whose
/// list ids are in leaf order, or a store changed by inserts and removes,
/// whose list ids are not and whose arena has released slots. The primary
/// walk visits every live
/// arena list exactly once (each list is keyed by exactly one `(k1, k2)`
/// pair of the primary ordering), which both fills the flat arena in
/// primary order and yields the `ListId` → flat-index remapping the
/// mirror walk needs to preserve sharing.
fn freeze_pair(primary: &TwoLevel, mirror: &TwoLevel, arena: &ListArena) -> FrozenPair {
    let pairs: usize = primary.values().map(VecMap::len).sum();
    let mut fprimary = FrozenIndex::primary(primary.len(), pairs);
    let lists = primary.values().flat_map(VecMap::values).map(|&lid| arena.get(lid));
    let mut farena = FlatArena::with_room_for(lists);
    let mut remap = vec![u32::MAX; arena.slot_count()];
    for (k1, inner) in primary.iter() {
        for (k2, &lid) in inner.iter() {
            let flat = farena.push_list(arena.get(lid).iter().copied());
            remap[lid.index()] = flat;
            fprimary.push_leaf(k2, flat);
        }
        fprimary.end_k1(k1);
    }
    let mut fmirror = FrozenIndex::mirror(mirror.len(), pairs);
    for (k2, inner) in mirror.iter() {
        for (k1, &lid) in inner.iter() {
            debug_assert_ne!(remap[lid.index()], u32::MAX, "mirror references unknown list");
            fmirror.push_leaf(k1, remap[lid.index()]);
        }
        fmirror.end_k1(k2);
    }
    (fprimary, fmirror, farena)
}

/// Rebuilds one mutable index pair from its frozen form, append-only.
fn thaw_pair(
    fprimary: &FrozenIndex,
    fmirror: &FrozenIndex,
    farena: &FlatArena,
) -> (TwoLevel, TwoLevel, ListArena) {
    let mut arena = ListArena::with_capacity(farena.list_count());
    let mut remap: Vec<Option<crate::arena::ListId>> = vec![None; farena.list_count()];
    let mut primary = TwoLevel::with_capacity(fprimary.header_count());
    for (k1, leaves) in fprimary.groups() {
        let mut inner = VecMap::with_capacity(leaves.len());
        for i in leaves {
            let flat = fprimary.list_of(i);
            let lid = arena.alloc_sorted(farena.get(flat).to_vec());
            remap[flat as usize] = Some(lid);
            inner.push_sorted(fprimary.k2[i], lid);
        }
        primary.push_sorted(k1, inner);
    }
    let mut mirror = TwoLevel::with_capacity(fmirror.header_count());
    for (k2, leaves) in fmirror.groups() {
        let mut inner = VecMap::with_capacity(leaves.len());
        for i in leaves {
            let lid = remap[fmirror.list_of(i) as usize].expect("mirror references unknown list");
            inner.push_sorted(fmirror.k2[i], lid);
        }
        mirror.push_sorted(k2, inner);
    }
    (primary, mirror, arena)
}

/// All six orderings, paired orderings handing out the same arena.
impl OrderedStore for FrozenHexastore {
    type Ordering<'a> = SlabOrdering<'a>;

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
        (ix.view(), arena.view())
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
        panic!("FrozenHexastore is read-only: thaw() to a mutable Hexastore first")
    }

    /// # Panics
    ///
    /// Always — frozen stores are read-only. [`FrozenHexastore::thaw`]
    /// first.
    fn remove(&mut self, _: IdTriple) -> bool {
        panic!("FrozenHexastore is read-only: thaw() to a mutable Hexastore first")
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
        let mutable = Hexastore::from_triples(sample());
        let frozen = mutable.freeze();
        assert_eq!(frozen.len(), mutable.len());
        assert_eq!(frozen.space_stats(), mutable.space_stats());
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
        let mutable = Hexastore::from_triples(sample());
        let mut thawed = mutable.freeze().thaw();
        assert_eq!(thawed.len(), mutable.len());
        assert_eq!(thawed.space_stats(), mutable.space_stats());
        assert_eq!(thawed.matching(IdPattern::ALL), mutable.matching(IdPattern::ALL));
        // The thawed store is fully updatable again.
        assert!(thawed.insert(t(42, 42, 42)));
        assert!(thawed.remove(t(1, 2, 3)));
        assert_eq!(thawed.len(), mutable.len());
    }

    #[test]
    fn frozen_lists_are_shared_within_pairs() {
        // Freezing must keep the §4.1 single-copy property: the o-list of
        // (s=1, p=2) reachable via spo and pso is the same column window.
        let frozen = Hexastore::from_triples(sample()).freeze();
        let via_spo = frozen.objects_for(Id(1), Id(2));
        let via_pso = frozen.inner.spo.view().list_idx(Id(1), Id(2)).unwrap();
        let mirror = frozen.inner.pso.view().list_idx(Id(2), Id(1)).unwrap();
        assert_eq!(via_spo, &[Id(3), Id(4)]);
        assert_eq!(via_pso, mirror, "pair orderings must reference one list");
        // Total items per pair equals the triple count, not double.
        assert_eq!(frozen.inner.o_lists.total_items(), frozen.len());
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn frozen_insert_panics() {
        let mut frozen = Hexastore::from_triples(sample()).freeze();
        frozen.insert(t(0, 0, 0));
    }

    #[test]
    fn iter_matching_range_is_the_exact_subsequence() {
        let frozen = Hexastore::from_triples(sample()).freeze();
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
        let frozen = Hexastore::from_triples(sample()).freeze();
        let clone = frozen.clone();
        assert_eq!(clone, frozen);
        // Same allocation, not a copy: the terminal columns are at the
        // same address through both handles.
        assert!(std::ptr::eq(
            frozen.inner.o_lists.view().slots.as_ptr(),
            clone.inner.o_lists.view().slots.as_ptr()
        ));
    }

    #[test]
    fn frozen_heap_bytes_do_not_exceed_mutable() {
        // Flat slabs drop the per-list allocation overhead; on any
        // non-trivial store the frozen footprint is at most the mutable
        // one (equal only in degenerate layouts).
        let triples: Vec<IdTriple> = (0..2000u32).map(|i| t(i % 97, i % 13, i)).collect();
        let mutable = Hexastore::from_triples(triples);
        let frozen_bytes = mutable.freeze().heap_bytes();
        assert!(
            frozen_bytes <= mutable.heap_bytes(),
            "frozen {} > mutable {}",
            frozen_bytes,
            mutable.heap_bytes()
        );
    }
}
