//! A Hexastore restricted to a chosen subset of the six orderings —
//! the physical counterpart of the §6 index-selection discussion.
//!
//! [`crate::advisor::recommend`] decides *which* orderings a workload
//! needs; [`PartialHexastore`] builds only those, trading the
//! any-pattern-one-probe guarantee for proportionally less memory. Every
//! pattern still gets answered: shapes without a serving index fall back
//! to filtering a scan of the first kept ordering (exactly the
//! degradation the paper predicts for reduced-index stores).
//!
//! The store is built once from a batch and is read-only, in the slab
//! layout of [`crate::FrozenHexastore`]: per kept ordering one flat
//! two-level index over its own [`FlatArena`]. Sharing terminal lists only
//! pays when both orderings of a pair are kept, so every kept ordering is
//! the primary of its own arena and none stores list references.
//!
//! A kept ordering is read like the full store's, through
//! [`OrderedStore::ordering`]; which ones are kept is
//! [`OrderedStore::kept`] (and [`TripleStore::capabilities`]). Asking for
//! one that is not kept panics with a message naming the store, the
//! missing ordering and the kept set.

use crate::access::{project, serving_kind, OrderedStore, SlabOrdering};
use crate::advisor::{IndexKind, IndexSet};
use crate::bulk;
use crate::frozen::FrozenIndex;
use crate::pattern::Shape;
use crate::slab::FlatArena;
use crate::traits::TripleStore;
use hex_dict::IdTriple;

/// A read-only triple store holding only a chosen subset of the six
/// orderings.
///
/// A shape served by a kept ordering is answered exactly as on the full
/// store: its cursor visits no triple outside its answer, and
/// [`TripleStore::count_matching`] adds list lengths. A shape whose
/// serving orderings were all dropped ([`Self::serves_directly`] is
/// `false`) filters a scan of the first kept ordering, for its cursor and
/// its count alike.
///
/// Like [`crate::FrozenHexastore`], the store is immutable:
/// [`TripleStore::insert`] and [`TripleStore::remove`] panic. Build it
/// with [`PartialHexastore::from_triples`].
///
/// ```
/// use hexastore::advisor::{recommend, WorkloadProfile};
/// use hexastore::partial::PartialHexastore;
/// use hexastore::{IdPattern, TripleStore};
/// use hex_dict::{Id, IdTriple};
///
/// // A workload that only ever binds the object:
/// let workload = [IdPattern::o(Id(2))];
/// let keep = recommend(&WorkloadProfile::from_patterns(&workload));
/// let store = PartialHexastore::from_triples(keep, [IdTriple::from((0, 1, 2))]);
/// assert_eq!(store.count_matching(IdPattern::o(Id(2))), 1);
/// ```
#[derive(Clone, Debug)]
pub struct PartialHexastore {
    keep: IndexSet,
    orderings: Vec<(IndexKind, FrozenIndex, FlatArena)>,
    len: usize,
}

impl PartialHexastore {
    /// Builds a store keeping the given orderings from an arbitrary
    /// (unsorted, possibly duplicated) triple batch. An empty set is
    /// promoted to `{spo}` (a store must hold its triples somewhere).
    ///
    /// The batch is sorted and deduplicated once in spo order. The spo
    /// ordering reads that run as it is; every other kept ordering views
    /// it through a `u32` permutation sorted into its key order, and each
    /// is emitted straight into its slabs by the frozen loader's primary
    /// emitter.
    pub fn from_triples(keep: IndexSet, triples: impl IntoIterator<Item = IdTriple>) -> Self {
        let keep = if keep.is_empty() { IndexSet::EMPTY.with(IndexKind::Spo) } else { keep };
        let mut run: Vec<IdTriple> = triples.into_iter().collect();
        let threads = bulk::Config::default().effective_threads(run.len());
        bulk::sort_dedup(&mut run, threads);
        let orderings = keep
            .iter()
            .map(|kind| {
                let key = move |t: &IdTriple| project(kind, *t);
                let perm = (kind != IndexKind::Spo).then(|| {
                    let mut perm = bulk::identity_perm(run.len());
                    perm.sort_unstable_by_key(|&i| key(&run[i as usize]));
                    perm
                });
                let (ix, arena) = bulk::emit_primary(&run, perm.as_deref(), key);
                (kind, ix, arena)
            })
            .collect();
        PartialHexastore { keep, orderings, len: run.len() }
    }

    /// Whether the shape is answered by a direct probe (vs a fallback
    /// scan-and-filter).
    pub fn serves_directly(&self, shape: Shape) -> bool {
        serving_kind(shape, self.keep).is_some()
    }
}

/// Only the kept orderings, each with its own arena.
impl OrderedStore for PartialHexastore {
    fn kept(&self) -> IndexSet {
        self.keep
    }

    /// # Panics
    ///
    /// If `kind` is not kept, naming it and the kept set.
    fn ordering(&self, kind: IndexKind) -> SlabOrdering<'_> {
        let Some((_, ix, arena)) = self.orderings.iter().find(|(k, _, _)| *k == kind) else {
            panic!("PartialHexastore keeps no {} ordering (it keeps {:?})", kind.name(), self.keep)
        };
        SlabOrdering { index: ix.view(), arena: arena.view() }
    }
}

impl TripleStore for PartialHexastore {
    fn name(&self) -> &'static str {
        "PartialHexastore"
    }

    fn len(&self) -> usize {
        self.len
    }

    /// # Panics
    ///
    /// Always — partial stores are read-only.
    /// [`PartialHexastore::from_triples`] builds a new one.
    fn insert(&mut self, _: IdTriple) -> bool {
        panic!("PartialHexastore is read-only: build a new one with from_triples()")
    }

    /// # Panics
    ///
    /// Always — partial stores are read-only.
    /// [`PartialHexastore::from_triples`] builds a new one.
    fn remove(&mut self, _: IdTriple) -> bool {
        panic!("PartialHexastore is read-only: build a new one with from_triples()")
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
    use crate::store::Hexastore;
    use hex_dict::Id;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    fn sample() -> Vec<IdTriple> {
        vec![t(1, 2, 3), t(1, 2, 4), t(1, 5, 3), t(2, 2, 3), t(2, 5, 9), t(9, 9, 9)]
    }

    fn all_patterns() -> Vec<IdPattern> {
        vec![
            IdPattern::ALL,
            IdPattern::s(Id(1)),
            IdPattern::p(Id(2)),
            IdPattern::o(Id(3)),
            IdPattern::sp(Id(1), Id(2)),
            IdPattern::so(Id(1), Id(3)),
            IdPattern::po(Id(2), Id(3)),
            IdPattern::spo(t(1, 2, 3)),
            IdPattern::o(Id(42)),
        ]
    }

    fn spo_and_pos() -> IndexSet {
        IndexSet::EMPTY.with(IndexKind::Spo).with(IndexKind::Pos)
    }

    /// Every subset of orderings answers every pattern identically to the
    /// full Hexastore — only the work differs.
    #[test]
    fn every_subset_is_logically_equivalent() {
        let full = Hexastore::from_triples(sample());
        for bits in 1u8..64 {
            let mut keep = IndexSet::EMPTY;
            for (i, kind) in IndexKind::ALL.into_iter().enumerate() {
                if bits & (1 << i) != 0 {
                    keep = keep.with(kind);
                }
            }
            let partial = PartialHexastore::from_triples(keep, sample());
            assert_eq!(partial.len(), full.len(), "{keep:?}");
            assert_eq!(partial.capabilities(), partial.kept(), "{keep:?}");
            for pat in all_patterns() {
                let mut expected = full.matching(pat);
                expected.sort();
                let mut got = partial.matching(pat);
                got.sort();
                assert_eq!(got, expected, "{keep:?} pattern {pat:?}");
            }
        }
    }

    #[test]
    fn bulk_build_promotes_empty_set_and_deduplicates() {
        let duplicated: Vec<IdTriple> = sample().into_iter().chain(sample()).collect();
        let store = PartialHexastore::from_triples(IndexSet::EMPTY, duplicated);
        assert!(store.kept().contains(IndexKind::Spo));
        assert_eq!(store.len(), sample().len(), "input duplicates deduplicated");
        assert!(store.contains(t(1, 2, 3)));
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn partial_insert_panics() {
        let mut store = PartialHexastore::from_triples(spo_and_pos(), sample());
        store.insert(t(42, 42, 42));
    }

    #[test]
    fn empty_set_is_promoted_to_spo() {
        let store = PartialHexastore::from_triples(IndexSet::EMPTY, []);
        assert!(store.kept().contains(IndexKind::Spo));
        assert_eq!(store.kept().len(), 1);
    }

    #[test]
    fn serves_directly_reflects_kept_indices() {
        let store = PartialHexastore::from_triples(spo_and_pos(), []);
        assert!(store.serves_directly(Shape::Sp));
        assert!(store.serves_directly(Shape::Po));
        assert!(store.serves_directly(Shape::S)); // spo serves S
        assert!(store.serves_directly(Shape::P)); // pos serves P
        assert!(!store.serves_directly(Shape::So));
        assert!(!store.serves_directly(Shape::O));
    }

    #[test]
    fn partial_store_uses_less_memory_than_full() {
        let triples: Vec<IdTriple> = (0..2000).map(|i| t(i % 97, i % 13, i)).collect();
        let full = crate::FrozenHexastore::from_triples(triples.iter().copied());
        let two = PartialHexastore::from_triples(spo_and_pos(), triples);
        assert!(two.heap_bytes() < full.heap_bytes());
    }

    #[test]
    fn advisor_to_partial_pipeline() {
        // End-to-end §6 flow: profile a workload, build a reduced store,
        // and verify the direct shapes stay direct.
        let workload =
            [IdPattern::o(Id(3)), IdPattern::po(Id(2), Id(3)), IdPattern::sp(Id(1), Id(2))];
        let profile = crate::advisor::WorkloadProfile::from_patterns(&workload);
        let keep = crate::advisor::recommend(&profile);
        let store = PartialHexastore::from_triples(keep, sample());
        for pat in workload {
            assert!(store.serves_directly(pat.shape()), "{pat:?}");
            let mut expected = Hexastore::from_triples(sample()).matching(pat);
            expected.sort();
            let mut got = store.matching(pat);
            got.sort();
            assert_eq!(got, expected);
        }
    }
}
