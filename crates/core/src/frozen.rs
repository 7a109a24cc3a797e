//! Read-only Hexastores over flat slabs: zero-copy query structures.
//!
//! The mutable [`Hexastore`] pays for updatability with one heap
//! allocation per vector and per terminal list. Most production stores
//! spend their life *read-only* — bulk-loaded once, queried millions of
//! times, snapshotted to disk between restarts — so this module provides
//! the frozen counterparts:
//!
//! - [`FrozenHexastore`]: all six orderings as [`FlatVecMap`] /
//!   [`FlatArena`] columns, paired orderings still sharing one terminal
//!   item column, answering every access shape with the same single
//!   probes as the mutable store but with zero per-list allocations;
//! - [`FrozenPartialHexastore`]: the frozen form of a
//!   [`PartialHexastore`] — only the kept orderings, each owning its
//!   lists.
//!
//! Conversions are loss-free both ways ([`Hexastore::freeze`] /
//! [`FrozenHexastore::thaw`], and likewise for partial stores), and
//! [`crate::bulk::build_frozen`] emits the slabs *directly* from sorted
//! runs without ever materializing the nested mutable form. The flat
//! layout is also exactly what the [`crate::hexsnap`] binary snapshot
//! stores, which is what makes "open a snapshot into a query-ready
//! store" a column read instead of a six-index rebuild.

use crate::access::{serving_kind, IndexView, OrderedStore, OrderingRead, SlabOrdering};
use crate::advisor::{IndexKind, IndexSet};
use crate::arena::ListArena;
use crate::partial::PartialHexastore;
use crate::pattern::Shape;
use crate::slab::{FlatArena, FlatVecMap, Span};
use crate::store::{Hexastore, SpaceStats, TwoLevel};
use crate::traits::TripleStore;
use crate::vecmap::VecMap;
use hex_dict::{Id, IdTriple};
use std::sync::Arc;

/// One frozen ordering: a flat two-level index. `k1` maps each header to
/// a [`Span`] over the parallel `k2`/`lists` columns; `lists` holds the
/// terminal-list index in the ordering's [`FlatArena`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub(crate) struct FrozenIndex {
    pub(crate) k1: FlatVecMap<Id, Span>,
    pub(crate) k2: Vec<Id>,
    pub(crate) lists: Vec<u32>,
}

impl FrozenIndex {
    pub(crate) fn with_capacity(headers: usize, pairs: usize) -> Self {
        FrozenIndex {
            k1: FlatVecMap::with_capacity(headers),
            k2: Vec::with_capacity(pairs),
            lists: Vec::with_capacity(pairs),
        }
    }

    /// Starts a `k1` group; pass the result to [`Self::end_k1`].
    pub(crate) fn begin_k1(&self) -> u32 {
        u32::try_from(self.k2.len()).expect("frozen index overflow: 2^32 vector entries")
    }

    /// Appends one `(k2, list)` leaf to the open group.
    pub(crate) fn push_leaf(&mut self, k2: Id, list: u32) {
        self.k2.push(k2);
        self.lists.push(list);
    }

    /// Closes a `k1` group started at `start`.
    pub(crate) fn end_k1(&mut self, k1: Id, start: u32) {
        let len = u32::try_from(self.k2.len()).expect("frozen index overflow") - start;
        debug_assert!(len > 0, "index headers never map to empty vectors");
        self.k1.push_sorted(k1, Span { off: start, len });
    }

    /// The columns as the borrowed view the shared read path walks.
    pub(crate) fn view(&self) -> IndexView<'_> {
        IndexView {
            keys: self.k1.keys(),
            spans: self.k1.values(),
            k2: &self.k2,
            lists: &self.lists,
        }
    }

    fn header_count(&self) -> usize {
        self.k1.len()
    }

    fn pair_count(&self) -> usize {
        self.k2.len()
    }

    fn heap_bytes(&self) -> usize {
        self.k1.heap_bytes()
            + self.k2.capacity() * std::mem::size_of::<Id>()
            + self.lists.capacity() * std::mem::size_of::<u32>()
    }

    /// Reassembles an index from deserialized columns, validating the
    /// structural invariants binary search relies on: spans tile the
    /// `k2`/`lists` columns exactly in header order, every group's `k2`
    /// run is strictly ascending, and every list index is in range for
    /// the `arena_lists`-sized arena. Returns `None` on any violation.
    pub(crate) fn from_raw_parts(
        k1: FlatVecMap<Id, Span>,
        k2: Vec<Id>,
        lists: Vec<u32>,
        arena_lists: usize,
    ) -> Option<Self> {
        if k2.len() != lists.len() {
            return None;
        }
        let mut cursor = 0usize;
        for (_, span) in k1.iter() {
            if span.len == 0 || span.off as usize != cursor {
                return None;
            }
            cursor += span.len();
            if cursor > k2.len() {
                return None;
            }
            if k2[span.range()].windows(2).any(|w| w[0] >= w[1]) {
                return None;
            }
        }
        if cursor != k2.len() || lists.iter().any(|&l| (l as usize) >= arena_lists) {
            return None;
        }
        Some(FrozenIndex { k1, k2, lists })
    }
}

/// One frozen index pair: primary ordering, mirror ordering, shared arena.
pub(crate) type FrozenPair = (FrozenIndex, FrozenIndex, FlatArena);

/// A read-only Hexastore over flat slabs.
///
/// Holds the same six orderings and three shared terminal-list arenas as
/// the mutable [`Hexastore`], but every level is a contiguous column:
/// lookups are binary searches over key columns and terminal lists are
/// slices of one item column — no nested vectors, no per-list heap
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
        self.inner.spo.k1.keys().iter().copied()
    }

    /// Sorted iterator over all distinct properties.
    pub fn properties(&self) -> impl Iterator<Item = Id> + '_ {
        self.inner.pso.k1.keys().iter().copied()
    }

    /// Sorted iterator over all distinct objects.
    pub fn objects(&self) -> impl Iterator<Item = Id> + '_ {
        self.inner.osp.k1.keys().iter().copied()
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
            update(ix.k1.keys().last().copied());
            update(ix.k2.iter().max().copied());
        }
        for arena in self.arenas() {
            update(arena.items_raw().iter().max().copied());
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

    /// Converts back into a mutable [`Hexastore`] (loss-free: the same
    /// triples, sharing structure, and space accounting).
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
    /// copied into the pair's item column exactly once). Borrows `self`,
    /// so the mutable store can keep serving while a snapshot freezes.
    pub fn freeze(&self) -> FrozenHexastore {
        let [(spo, pso, o), (sop, osp, p), (pos, ops, s)] = self.pair_refs();
        let spo_pair = freeze_pair(spo, pso, o);
        let sop_pair = freeze_pair(sop, osp, p);
        let pos_pair = freeze_pair(pos, ops, s);
        FrozenHexastore::from_parts(spo_pair, sop_pair, pos_pair, self.len())
    }
}

/// Flattens one mutable index pair. The primary walk visits every live
/// arena list exactly once (each list is keyed by exactly one `(k1, k2)`
/// pair of the primary ordering), which both fills the flat arena in
/// primary order and yields the `ListId` → flat-index remapping the
/// mirror walk needs to preserve sharing.
fn freeze_pair(primary: &TwoLevel, mirror: &TwoLevel, arena: &ListArena) -> FrozenPair {
    let pairs: usize = primary.values().map(VecMap::len).sum();
    let mut fprimary = FrozenIndex::with_capacity(primary.len(), pairs);
    let mut farena = FlatArena::with_capacity(arena.live_lists(), arena.total_items());
    let mut remap = vec![u32::MAX; arena.slot_count()];
    for (k1, inner) in primary.iter() {
        let start = fprimary.begin_k1();
        for (k2, &lid) in inner.iter() {
            let flat = farena.push_list(arena.get(lid).iter().copied());
            remap[lid.index()] = flat;
            fprimary.push_leaf(k2, flat);
        }
        fprimary.end_k1(k1, start);
    }
    let mut fmirror = FrozenIndex::with_capacity(mirror.len(), pairs);
    for (k2, inner) in mirror.iter() {
        let start = fmirror.begin_k1();
        for (k1, &lid) in inner.iter() {
            debug_assert_ne!(remap[lid.index()], u32::MAX, "mirror references unknown list");
            fmirror.push_leaf(k1, remap[lid.index()]);
        }
        fmirror.end_k1(k2, start);
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
    for (k1, span) in fprimary.k1.iter() {
        let mut inner = VecMap::with_capacity(span.len());
        for i in span.range() {
            let flat = fprimary.lists[i];
            let lid = arena.alloc_sorted(farena.get(flat).to_vec());
            remap[flat as usize] = Some(lid);
            inner.push_sorted(fprimary.k2[i], lid);
        }
        primary.push_sorted(k1, inner);
    }
    let mut mirror = TwoLevel::with_capacity(fmirror.header_count());
    for (k2, span) in fmirror.k1.iter() {
        let mut inner = VecMap::with_capacity(span.len());
        for i in span.range() {
            let lid = remap[fmirror.lists[i] as usize].expect("mirror references unknown list");
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
        self.orderings().iter().map(|ix| ix.heap_bytes()).sum::<usize>()
            + self.arenas().iter().map(|a| a.heap_bytes()).sum::<usize>()
    }

    crate::forward_reads!();
}

/// The frozen form of a [`PartialHexastore`]: only the kept orderings,
/// each as one flat two-level index owning its terminal lists.
///
/// Like [`FrozenHexastore`], this is read-only (`insert`/`remove` panic);
/// [`FrozenPartialHexastore::thaw`] recovers the updatable form. Every
/// pattern is still answered: shapes without a kept serving ordering fall
/// back to filtering a scan, exactly like the mutable partial store.
#[derive(Clone, Debug)]
pub struct FrozenPartialHexastore {
    keep: IndexSet,
    orderings: Vec<(IndexKind, FrozenIndex, FlatArena)>,
    len: usize,
}

impl PartialHexastore {
    /// Builds the read-only flat-slab representation (exact-sized, one
    /// walk per kept ordering; borrows `self`).
    pub fn freeze(&self) -> FrozenPartialHexastore {
        let len = self.len();
        let orderings = self
            .parts()
            .map(|(kind, map)| {
                let pairs: usize = map.values().map(VecMap::len).sum();
                let items: usize =
                    map.values().flat_map(|inner| inner.values().map(Vec::len)).sum();
                let mut ix = FrozenIndex::with_capacity(map.len(), pairs);
                let mut arena = FlatArena::with_capacity(pairs, items);
                for (k1, inner) in map.iter() {
                    let start = ix.begin_k1();
                    for (k2, list) in inner.iter() {
                        let flat = arena.push_list(list.iter().copied());
                        ix.push_leaf(k2, flat);
                    }
                    ix.end_k1(k1, start);
                }
                (kind, ix, arena)
            })
            .collect();
        FrozenPartialHexastore { keep: self.kept(), orderings, len }
    }
}

impl FrozenPartialHexastore {
    /// The orderings this store maintains.
    pub fn kept(&self) -> IndexSet {
        self.keep
    }

    /// Whether the shape is answered by a direct probe (vs a fallback
    /// scan-and-filter).
    pub fn serves_directly(&self, shape: Shape) -> bool {
        serving_kind(shape, self.keep).is_some()
    }

    /// Converts back into a mutable [`PartialHexastore`] (loss-free).
    pub fn thaw(self) -> PartialHexastore {
        let indices = self
            .orderings
            .iter()
            .map(|(kind, ix, arena)| {
                let mut map: crate::partial::OrderingMap = VecMap::with_capacity(ix.header_count());
                for (k1, span) in ix.k1.iter() {
                    let mut inner = VecMap::with_capacity(span.len());
                    for i in span.range() {
                        inner.push_sorted(ix.k2[i], arena.get(ix.lists[i]).to_vec());
                    }
                    map.push_sorted(k1, inner);
                }
                (*kind, map)
            })
            .collect();
        PartialHexastore::from_raw_parts(self.keep, indices, self.len)
    }
}

/// Only the kept orderings, each with its own arena.
impl OrderedStore for FrozenPartialHexastore {
    type Ordering<'a> = SlabOrdering<'a>;

    fn kept(&self) -> IndexSet {
        self.keep
    }

    fn ordering(&self, kind: IndexKind) -> SlabOrdering<'_> {
        let (_, ix, arena) =
            self.orderings.iter().find(|(k, _, _)| *k == kind).expect("routed to a kept ordering");
        (ix.view(), arena.view())
    }
}

impl TripleStore for FrozenPartialHexastore {
    fn name(&self) -> &'static str {
        "FrozenPartialHexastore"
    }

    fn len(&self) -> usize {
        self.len
    }

    /// # Panics
    ///
    /// Always — frozen stores are read-only.
    /// [`FrozenPartialHexastore::thaw`] first.
    fn insert(&mut self, _: IdTriple) -> bool {
        panic!("FrozenPartialHexastore is read-only: thaw() first")
    }

    /// # Panics
    ///
    /// Always — frozen stores are read-only.
    /// [`FrozenPartialHexastore::thaw`] first.
    fn remove(&mut self, _: IdTriple) -> bool {
        panic!("FrozenPartialHexastore is read-only: thaw() first")
    }

    fn heap_bytes(&self) -> usize {
        self.orderings.iter().map(|(_, ix, arena)| ix.heap_bytes() + arena.heap_bytes()).sum()
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
    fn frozen_partial_matches_mutable_for_every_subset() {
        for bits in 1u8..64 {
            let mut keep = IndexSet::EMPTY;
            for (i, kind) in IndexKind::ALL.into_iter().enumerate() {
                if bits & (1 << i) != 0 {
                    keep = keep.with(kind);
                }
            }
            let mutable = PartialHexastore::from_triples(keep, sample());
            let frozen = mutable.freeze();
            assert_eq!(frozen.kept(), mutable.kept(), "{keep:?}");
            assert_eq!(frozen.capabilities(), mutable.capabilities(), "{keep:?}");
            assert_eq!(frozen.len(), mutable.len(), "{keep:?}");
            for pat in all_patterns(&sample()) {
                assert_eq!(frozen.matching(pat), mutable.matching(pat), "{keep:?} {pat:?}");
                assert_eq!(
                    frozen.count_matching(pat),
                    mutable.count_matching(pat),
                    "{keep:?} {pat:?}"
                );
            }
            // Thaw recovers an updatable store with identical answers.
            let mut thawed = frozen.thaw();
            assert_eq!(thawed.matching(IdPattern::ALL), mutable.matching(IdPattern::ALL));
            assert!(thawed.insert(t(77, 77, 77)));
        }
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
            frozen.inner.o_lists.items_raw().as_ptr(),
            clone.inner.o_lists.items_raw().as_ptr()
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
