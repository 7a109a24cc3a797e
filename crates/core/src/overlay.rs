//! LSM-style mutable overlay on a frozen slab store: the write path.
//!
//! [`OverlayHexastore`] layers a delta of inserted triples and a set of
//! tombstones over an immutable [`FrozenHexastore`] base, giving the slab
//! layout a write path without giving up its flat-slab query speed. Every
//! [`TripleStore`] cursor is a sorted two-way merge of the delta and the
//! tombstone-filtered base, yielding in the same order as a frozen store
//! holding the same triples for all eight access patterns — the planner,
//! `hex_query`'s `BgpCursor`, `Dataset<S>` and LIMIT pushdown all work
//! unchanged on top of it.
//!
//! Delta and tombstones are each one flat `Delta`: every pending triple
//! once per ordering in four ordered sets, keyed in spo, pso, pos and osp
//! order. [`crate::access::serving_kind`] over those four routes every
//! access shape to one of them, whose key order lists the bound positions
//! first; a pattern's matches are then one prefix range, and in that range
//! key order is `(s, p, o)` order — the order the merge needs.
//!
//! [`OverlayHexastore::compact`] folds the delta and tombstones down
//! into a fresh frozen base through the [`bulk`] permutation-gather
//! builder, emptying the overlay layers.
//!
//! ## Invariants
//!
//! The three layers are kept disjoint so merges never need to dedup:
//!
//! - `delta ∩ base = ∅` — re-inserting a base triple is a no-op, and
//!   inserting over a tombstone clears the tombstone instead.
//! - `tombstones ⊆ base` — removing a delta triple deletes it from the
//!   delta; only base triples are masked.
//! - `delta ∩ tombstones = ∅` — follows from the two above.
//!
//! These make `len` and `count_matching` exact arithmetic:
//! `|base| − |tombstones| + |delta|` per pattern.
//!
//! [`bulk`]: crate::bulk

use crate::access::{project, route, unproject, Probe, Route};
use crate::advisor::{IndexKind, IndexSet};
use crate::frozen::FrozenHexastore;
use crate::pattern::IdPattern;
use crate::traits::{MutableStore, TripleIter, TripleStore};
use hex_dict::{Id, IdTriple};
use std::collections::BTreeSet;
use std::ops::RangeInclusive;

/// One triple in an ordering's `(k1, k2, item)` key order.
type Key = (Id, Id, Id);

/// A set of pending triples, each kept once per ordering in four ordered
/// sets keyed spo, pso, pos and osp. Every access shape has a serving
/// ordering among the four, so every pattern reads one prefix range.
#[derive(Clone, Default)]
struct Delta {
    spo: BTreeSet<Key>,
    pso: BTreeSet<Key>,
    pos: BTreeSet<Key>,
    osp: BTreeSet<Key>,
}

impl Delta {
    /// The orderings a delta keeps.
    fn kept() -> IndexSet {
        [IndexKind::Spo, IndexKind::Pso, IndexKind::Pos, IndexKind::Osp]
            .into_iter()
            .fold(IndexSet::EMPTY, IndexSet::with)
    }

    /// The four sets with their orderings.
    fn sets_mut(&mut self) -> [(IndexKind, &mut BTreeSet<Key>); 4] {
        [
            (IndexKind::Spo, &mut self.spo),
            (IndexKind::Pso, &mut self.pso),
            (IndexKind::Pos, &mut self.pos),
            (IndexKind::Osp, &mut self.osp),
        ]
    }

    fn set(&self, kind: IndexKind) -> &BTreeSet<Key> {
        match kind {
            IndexKind::Spo => &self.spo,
            IndexKind::Pso => &self.pso,
            IndexKind::Pos => &self.pos,
            IndexKind::Osp => &self.osp,
            IndexKind::Sop | IndexKind::Ops => unreachable!("a delta keeps no {kind:?}"),
        }
    }

    fn len(&self) -> usize {
        self.spo.len()
    }

    fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    fn contains(&self, t: IdTriple) -> bool {
        self.spo.contains(&project(IndexKind::Spo, t))
    }

    /// Adds `t` to all four orderings. Returns whether it was new.
    fn insert(&mut self, t: IdTriple) -> bool {
        if self.contains(t) {
            return false;
        }
        for (kind, set) in self.sets_mut() {
            set.insert(project(kind, t));
        }
        true
    }

    /// Removes `t` from all four orderings. Returns whether it was present.
    fn remove(&mut self, t: IdTriple) -> bool {
        if !self.contains(t) {
            return false;
        }
        for (kind, set) in self.sets_mut() {
            set.remove(&project(kind, t));
        }
        true
    }

    /// The ordering that serves `pat` and the key range of its matches.
    fn range(pat: IdPattern) -> (IndexKind, RangeInclusive<Key>) {
        let (lo, hi) = (Id(0), Id(u32::MAX));
        let Route { kind, probe } = route(pat, Self::kept());
        let range = match probe {
            Probe::Member(k1, k2, item) => (k1, k2, item)..=(k1, k2, item),
            Probe::List(k1, k2) => (k1, k2, lo)..=(k1, k2, hi),
            Probe::Division(k1) => (k1, lo, lo)..=(k1, hi, hi),
            Probe::Scan => (lo, lo, lo)..=(hi, hi, hi),
            Probe::FilteredScan => unreachable!("a delta serves every shape"),
        };
        (kind, range)
    }

    /// The matches of `pat` in `(s, p, o)` order.
    fn iter(&self, pat: IdPattern) -> impl Iterator<Item = IdTriple> + '_ {
        let (kind, range) = Self::range(pat);
        self.set(kind).range(range).map(move |&(k1, k2, item)| unproject(kind, k1, k2, item))
    }

    /// Number of matches of `pat`: walks them, except for the full scan.
    fn count(&self, pat: IdPattern) -> usize {
        if pat == IdPattern::ALL {
            return self.len();
        }
        let (kind, range) = Self::range(pat);
        self.set(kind).range(range).count()
    }

    /// Estimated heap bytes of the four B-trees. A leaf node is 144 bytes
    /// holding five to eleven 12-byte keys. Over a 197k-triple base a
    /// counting allocator reads 71 bytes per pending write after 25k
    /// random inserts and 82 after the same inserts in spo order; the
    /// estimate takes 24 a key per ordering, 96 a write, above both.
    fn heap_bytes(&self) -> usize {
        const BYTES_PER_KEY: usize = 24;
        4 * self.len() * BYTES_PER_KEY
    }
}

/// A mutable delta + tombstone overlay on a frozen base store.
///
/// See the [module docs](self) for the layering invariants. Construct
/// one from a frozen base with [`OverlayHexastore::new`] (or
/// [`FrozenHexastore::thaw`]), or empty with [`OverlayHexastore::default`].
#[derive(Clone)]
pub struct OverlayHexastore {
    base: FrozenHexastore,
    delta: Delta,
    tombstones: Delta,
}

impl Default for OverlayHexastore {
    fn default() -> Self {
        OverlayHexastore::new(FrozenHexastore::from_triples(std::iter::empty()))
    }
}

impl std::fmt::Debug for OverlayHexastore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverlayHexastore")
            .field("base", &self.base.len())
            .field("delta", &self.delta.len())
            .field("tombstones", &self.tombstones.len())
            .finish()
    }
}

impl OverlayHexastore {
    /// Wraps a frozen base with empty delta and tombstone layers.
    pub fn new(base: FrozenHexastore) -> Self {
        OverlayHexastore { base, delta: Delta::default(), tombstones: Delta::default() }
    }

    /// The immutable base generation.
    pub fn base(&self) -> &FrozenHexastore {
        &self.base
    }

    /// Triples inserted since the base was frozen.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Base triples masked by a remove since the base was frozen.
    pub fn tombstone_len(&self) -> usize {
        self.tombstones.len()
    }

    /// Whether any mutations are pending on top of the base.
    pub fn is_dirty(&self) -> bool {
        !self.delta.is_empty() || !self.tombstones.is_empty()
    }

    /// The overlay's triples as one frozen store. A clean overlay hands
    /// out its base, which shares the slabs (a reference-count bump); a
    /// dirty one builds its compaction and stays as it is. The merged
    /// full-scan cursor already yields distinct triples in `(s, p, o)`
    /// order, so the bulk build's sort-dedup pass runs over presorted
    /// input.
    pub fn freeze(&self) -> FrozenHexastore {
        if self.is_dirty() {
            let mut triples = Vec::with_capacity(self.len());
            triples.extend(self.iter_matching(IdPattern::ALL));
            crate::bulk::build_frozen(triples)
        } else {
            self.base.clone()
        }
    }

    /// Folds delta and tombstones into a new frozen base generation via
    /// the bulk permutation-gather build, leaving the overlay clean.
    pub fn compact(&mut self) {
        if self.is_dirty() {
            self.install(self.freeze());
        }
    }

    /// Makes `base` the base generation and empties delta and tombstones.
    /// `base` must hold exactly the overlay's triples, as its
    /// [`Self::freeze`] does.
    pub(crate) fn install(&mut self, base: FrozenHexastore) {
        debug_assert_eq!(base.len(), self.len(), "an installed base replaces the merged view");
        *self = OverlayHexastore::new(base);
    }

    /// The base's matches with tombstoned triples filtered out.
    fn base_iter(&self, pat: IdPattern) -> impl Iterator<Item = IdTriple> + '_ {
        let tombstones = &self.tombstones;
        self.base.iter_matching(pat).filter(move |&t| !tombstones.contains(t))
    }
}

impl TripleStore for OverlayHexastore {
    fn name(&self) -> &'static str {
        "OverlayHexastore"
    }

    fn len(&self) -> usize {
        self.base.len() - self.tombstones.len() + self.delta.len()
    }

    fn insert(&mut self, t: IdTriple) -> bool {
        if self.tombstones.remove(t) {
            debug_assert!(self.base.contains(t));
            return true; // resurrect a masked base triple
        }
        if self.base.contains(t) {
            return false; // already present in the base
        }
        self.delta.insert(t)
    }

    fn remove(&mut self, t: IdTriple) -> bool {
        if self.delta.remove(t) {
            return true;
        }
        // false if already masked
        self.base.contains(t) && self.tombstones.insert(t)
    }

    fn contains(&self, t: IdTriple) -> bool {
        self.delta.contains(t) || (self.base.contains(t) && !self.tombstones.contains(t))
    }

    fn iter_matching(&self, pat: IdPattern) -> TripleIter<'_> {
        // Every serving ordering lists the pattern's bound positions
        // first, so each per-shape cursor order coincides with plain
        // (s, p, o) order restricted to the match set. Both sides honor
        // that order, and the layering invariants keep them disjoint —
        // a standard two-way merge needs no dedup.
        if self.delta.is_empty() {
            // Common serving case: pure base scan (minus tombstones).
            return Box::new(self.base_iter(pat));
        }
        if self.base.is_empty() {
            return Box::new(self.delta.iter(pat));
        }
        let mut base = self.base_iter(pat).peekable();
        let mut delta = self.delta.iter(pat).peekable();
        Box::new(std::iter::from_fn(move || match (base.peek(), delta.peek()) {
            (Some(&b), Some(&d)) => {
                if b <= d {
                    debug_assert!(b < d, "delta and base must stay disjoint");
                    base.next()
                } else {
                    delta.next()
                }
            }
            (Some(_), None) => base.next(),
            (None, _) => delta.next(),
        }))
    }

    fn count_matching(&self, pat: IdPattern) -> usize {
        // Valid because tombstones ⊆ base and delta ∩ base = ∅.
        self.base.count_matching(pat) - self.tombstones.count(pat) + self.delta.count(pat)
    }

    fn capabilities(&self) -> IndexSet {
        // The base keeps all six orderings and the layers serve every
        // shape from a prefix range, so every merged cursor is
        // index-served on both sides.
        IndexSet::all()
    }

    fn heap_bytes(&self) -> usize {
        self.base.heap_bytes() + self.delta.heap_bytes() + self.tombstones.heap_bytes()
    }

    /// Deliberately `None` (restating the trait default): a logical
    /// terminal list here is `(base \ tombstones) ∪ delta`, which has no
    /// contiguous representation to borrow. Queries keep the merged
    /// cursor path; merge-join plans detect the missing capability and
    /// fall back to nested probes.
    fn sorted_lists(&self) -> Option<&dyn crate::traits::SortedListAccess> {
        None
    }
}

impl MutableStore for OverlayHexastore {}

/// The generic one-pass scan. A query engine that re-plans after every
/// write memoizes the statistics per [`crate::Dataset::version`].
impl crate::stats::StatsSource for OverlayHexastore {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::OrderedStore;
    use crate::bulk;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    /// Overlay exercising all three layers: base {a,b,c}, tombstone on
    /// b, delta {d}, plus a resurrected base triple.
    fn layered() -> (OverlayHexastore, Vec<IdTriple>) {
        let base = vec![t(0, 0, 1), t(0, 1, 2), t(1, 0, 2), t(2, 1, 0)];
        let mut ov = OverlayHexastore::new(bulk::build_frozen(base.clone()));
        assert!(ov.remove(t(0, 1, 2))); // tombstone a base triple
        assert!(ov.remove(t(2, 1, 0)));
        assert!(ov.insert(t(2, 1, 0))); // ...and resurrect one
        assert!(ov.insert(t(0, 0, 0))); // delta-only triples
        assert!(ov.insert(t(1, 1, 1)));
        let mut expected = vec![t(0, 0, 1), t(1, 0, 2), t(2, 1, 0), t(0, 0, 0), t(1, 1, 1)];
        expected.sort();
        (ov, expected)
    }

    #[test]
    fn delta_serves_every_shape_from_one_range_in_spo_order() {
        let triples = [t(1, 2, 3), t(1, 2, 4), t(1, 5, 3), t(2, 2, 3), t(3, 2, 1), t(3, 3, 3)];
        let mut delta = Delta::default();
        for &tr in triples.iter().rev() {
            assert!(delta.insert(tr));
        }
        assert!(!delta.insert(triples[0]), "a pending triple is held once");
        let mut pats = vec![IdPattern::ALL, IdPattern::spo(t(9, 9, 9))];
        for tr in triples {
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
        for pat in pats {
            let want: Vec<IdTriple> = triples.iter().copied().filter(|&x| pat.matches(x)).collect();
            assert_eq!(delta.iter(pat).collect::<Vec<_>>(), want, "{pat:?}");
            assert_eq!(delta.count(pat), want.len(), "{pat:?}");
        }
        // A remove leaves no trace in any of the four orderings.
        assert!(delta.remove(t(1, 5, 3)));
        assert!(!delta.remove(t(1, 5, 3)));
        assert!(delta.sets_mut().iter().all(|(_, set)| set.len() == triples.len() - 1));
        assert_eq!(delta.count(IdPattern::o(Id(3))), 3);
    }

    #[test]
    fn layered_membership_and_len() {
        let (ov, expected) = layered();
        assert_eq!(ov.len(), expected.len());
        for &triple in &expected {
            assert!(ov.contains(triple), "{triple:?}");
        }
        assert!(!ov.contains(t(0, 1, 2)), "tombstoned triple must be gone");
        assert_eq!(ov.delta_len(), 2);
        assert_eq!(ov.tombstone_len(), 1);
    }

    #[test]
    fn insert_and_remove_report_set_semantics() {
        let (mut ov, _) = layered();
        assert!(!ov.insert(t(0, 0, 1)), "re-inserting a base triple");
        assert!(!ov.insert(t(0, 0, 0)), "re-inserting a delta triple");
        assert!(!ov.remove(t(0, 1, 2)), "re-removing a tombstoned triple");
        assert!(!ov.remove(t(9, 9, 9)), "removing a miss");
        assert!(ov.remove(t(0, 0, 0)), "removing a delta triple");
        assert!(!ov.contains(t(0, 0, 0)));
    }

    #[test]
    fn merged_cursors_agree_with_a_plain_mutable_store() {
        let (ov, expected) = layered();
        let plain = FrozenHexastore::from_triples(expected.iter().copied());
        let mut pats = vec![IdPattern::ALL, IdPattern::spo(t(9, 9, 9))];
        for &tr in &expected {
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
        for pat in pats {
            let got: Vec<_> = ov.iter_matching(pat).collect();
            let want: Vec<_> = plain.iter_matching(pat).collect();
            assert_eq!(got, want, "cursor order on {pat:?}");
            assert_eq!(ov.count_matching(pat), want.len(), "count on {pat:?}");
        }
    }

    #[test]
    fn compact_folds_layers_into_a_clean_frozen_base() {
        let (mut ov, expected) = layered();
        assert!(ov.is_dirty());
        ov.compact();
        assert!(!ov.is_dirty());
        assert_eq!(ov.len(), expected.len());
        assert_eq!(ov.base().len(), expected.len());
        assert_eq!(ov.matching(IdPattern::ALL), expected);
        // Compacting a clean overlay is a no-op.
        let before = ov.base().clone();
        ov.compact();
        assert!(before == *ov.base());
    }

    #[test]
    fn freeze_of_a_clean_overlay_shares_the_base_slabs() {
        let ov = OverlayHexastore::new(bulk::build_frozen(vec![t(1, 2, 3), t(1, 2, 4)]));
        let slots = |f: &FrozenHexastore| f.ordering(IndexKind::Spo).arena.slots.bytes().as_ptr();
        let frozen = ov.freeze();
        assert!(std::ptr::eq(slots(&frozen), slots(ov.base())), "no copy of a clean base");
        // A dirty overlay freezes into a new store and keeps its layers.
        let (dirty, expected) = layered();
        let frozen = dirty.freeze();
        assert!(!std::ptr::eq(slots(&frozen), slots(dirty.base())));
        assert_eq!(frozen.matching(IdPattern::ALL), expected);
        assert!(dirty.is_dirty());
    }

    #[test]
    fn empty_overlay_behaves_like_an_empty_store() {
        let ov = OverlayHexastore::default();
        assert!(ov.is_empty());
        assert_eq!(ov.count_matching(IdPattern::ALL), 0);
        assert_eq!(ov.matching(IdPattern::ALL), Vec::new());
    }
}
