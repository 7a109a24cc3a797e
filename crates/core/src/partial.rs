//! A Hexastore restricted to a chosen subset of the six orderings —
//! the physical counterpart of the §6 index-selection discussion.
//!
//! [`crate::advisor::recommend`] decides *which* orderings a workload
//! needs; [`PartialHexastore`] actually maintains only those, trading the
//! any-pattern-one-probe guarantee for proportionally less memory. Every
//! pattern still gets answered: shapes without a serving index fall back
//! to filtering a scan of the first kept ordering (exactly the
//! degradation the paper predicts for reduced-index stores).
//!
//! Unlike the full [`crate::Hexastore`], kept orderings own their terminal
//! lists — sharing only pays when both orderings of a pair are present, so
//! a partial store with e.g. `{spo, pos, osp}` keeps three unshared
//! indices.

use crate::access::{project, serving_kind, OrderedStore};
use crate::advisor::{IndexKind, IndexSet};
use crate::pattern::Shape;
use crate::sorted;
use crate::traits::TripleStore;
use crate::vecmap::VecMap;
use hex_dict::{Id, IdTriple};

/// One ordering's three-level map: header → sorted vector → owned list.
/// Shared with the freezer, which flattens and rebuilds these levels.
pub(crate) type OrderingMap = VecMap<Id, VecMap<Id, Vec<Id>>>;

/// One ordering materialized as an owned three-level structure.
#[derive(Clone, Default, Debug)]
struct OwnedIndex {
    map: OrderingMap,
}

impl OwnedIndex {
    fn insert(&mut self, k1: Id, k2: Id, item: Id) -> bool {
        let list = self.map.get_or_insert_with(k1, VecMap::new).get_or_insert_with(k2, Vec::new);
        sorted::insert(list, item)
    }

    fn remove(&mut self, k1: Id, k2: Id, item: Id) -> bool {
        let Some(inner) = self.map.get_mut(&k1) else { return false };
        let Some(list) = inner.get_mut(&k2) else { return false };
        if !sorted::remove(list, &item) {
            return false;
        }
        if list.is_empty() {
            inner.remove(&k2);
            if inner.is_empty() {
                self.map.remove(&k1);
            }
        }
        true
    }

    fn heap_bytes(&self) -> usize {
        self.map.heap_bytes_shallow()
            + self
                .map
                .values()
                .map(|m| {
                    m.heap_bytes_shallow()
                        + m.values()
                            .map(|l| l.capacity() * std::mem::size_of::<Id>())
                            .sum::<usize>()
                })
                .sum::<usize>()
    }

    /// Append-only build from a duplicate-free run sorted by
    /// `project(kind, ·)` — the partial-store counterpart of the full
    /// loader's pair build, driven by the same shared grouping pass
    /// ([`crate::bulk::scan_groups`]). Headers and inner vectors are
    /// allocated at their exact final sizes.
    fn build_from_run(run: &[IdTriple], kind: IndexKind) -> OwnedIndex {
        use crate::bulk::{at_fn, count_distinct_adjacent, scan_groups, GroupEvent};
        let at = at_fn(run, None, move |t| project(kind, *t));
        let mut map: VecMap<Id, VecMap<Id, Vec<Id>>> =
            VecMap::with_capacity(count_distinct_adjacent(run, |t| project(kind, *t).0));
        let mut inner: VecMap<Id, Vec<Id>> = VecMap::new();
        scan_groups(run.len(), &at, |event| match event {
            GroupEvent::Header { distinct_k2, .. } => inner = VecMap::with_capacity(distinct_k2),
            GroupEvent::Leaf { k2, range } => {
                inner.push_sorted(k2, range.map(|i| at(i).2).collect())
            }
            GroupEvent::EndHeader { k1 } => map.push_sorted(k1, std::mem::take(&mut inner)),
        });
        OwnedIndex { map }
    }
}

/// A triple store maintaining only a chosen subset of the six orderings.
///
/// A shape served by a kept ordering is answered exactly as on the full
/// store: [`TripleStore::count_matching`] adds list lengths and
/// [`TripleStore::iter_matching_range`] starts by offset arithmetic,
/// neither visiting a triple outside its answer. A shape whose serving
/// orderings were all dropped ([`Self::serves_directly`] is `false`)
/// filters a scan of the first kept ordering — for its cursor, its count
/// and its range start alike.
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
/// let mut store = PartialHexastore::new(keep);
/// store.insert(IdTriple::from((0, 1, 2)));
/// assert_eq!(store.count_matching(IdPattern::o(Id(2))), 1);
/// ```
#[derive(Clone, Debug)]
pub struct PartialHexastore {
    keep: IndexSet,
    indices: Vec<(IndexKind, OwnedIndex)>,
    len: usize,
}

impl PartialHexastore {
    /// Creates a store maintaining the given orderings. An empty set is
    /// promoted to `{spo}` (a store must hold its triples somewhere).
    pub fn new(keep: IndexSet) -> Self {
        let keep = if keep.is_empty() { IndexSet::EMPTY.with(IndexKind::Spo) } else { keep };
        let indices = keep.iter().map(|k| (k, OwnedIndex::default())).collect();
        PartialHexastore { keep, indices, len: 0 }
    }

    /// Bulk-builds a partial store from an arbitrary triple batch using
    /// the default loader [`Config`](crate::bulk::Config) (much faster
    /// than repeated [`TripleStore::insert`] for large batches).
    pub fn from_triples(keep: IndexSet, triples: impl IntoIterator<Item = IdTriple>) -> Self {
        Self::from_triples_with(keep, triples.into_iter().collect(), crate::bulk::Config::default())
    }

    /// Bulk-builds a partial store on an explicit thread budget. The batch
    /// is sorted and deduplicated once; each kept ordering then builds
    /// append-only from its own re-sorted run. With more than one
    /// configured thread, the orderings are split across at most
    /// `threads` scoped workers, each reusing one scratch buffer — so
    /// concurrency *and* peak batch copies stay within the budget.
    pub fn from_triples_with(
        keep: IndexSet,
        mut triples: Vec<IdTriple>,
        config: crate::bulk::Config,
    ) -> Self {
        let keep = if keep.is_empty() { IndexSet::EMPTY.with(IndexKind::Spo) } else { keep };
        let threads = config.effective_threads(triples.len());
        crate::bulk::sort_dedup(&mut triples, threads);
        let len = triples.len();
        let kinds: Vec<IndexKind> = keep.iter().collect();
        // Builds a run of orderings one after another, reusing one scratch
        // buffer across the non-spo ones instead of copying the batch per
        // index.
        let build_run = |shared: &[IdTriple], run_kinds: &[IndexKind]| {
            let mut scratch: Option<Vec<IdTriple>> = None;
            run_kinds
                .iter()
                .map(|&kind| {
                    if kind == IndexKind::Spo {
                        // The shared run is already in spo order.
                        (kind, OwnedIndex::build_from_run(shared, kind))
                    } else {
                        let run = scratch.get_or_insert_with(|| shared.to_vec());
                        run.sort_unstable_by_key(|t| project(kind, *t));
                        (kind, OwnedIndex::build_from_run(run, kind))
                    }
                })
                .collect::<Vec<_>>()
        };
        let indices: Vec<(IndexKind, OwnedIndex)> = if threads <= 1 || kinds.len() == 1 {
            build_run(&triples, &kinds)
        } else {
            // At most `threads` workers, each building a contiguous chunk
            // of the kept orderings — bounding both concurrency and the
            // number of live batch copies at the configured budget.
            let chunk = kinds.len().div_ceil(threads.min(kinds.len()));
            std::thread::scope(|s| {
                let tasks: Vec<_> = kinds
                    .chunks(chunk)
                    .map(|chunk_kinds| s.spawn(|| build_run(&triples, chunk_kinds)))
                    .collect();
                tasks
                    .into_iter()
                    .flat_map(|task| task.join().expect("index build task panicked"))
                    .collect()
            })
        };
        PartialHexastore { keep, indices, len }
    }

    /// The orderings this store maintains.
    pub fn kept(&self) -> IndexSet {
        self.keep
    }

    /// Whether the shape is answered by a direct probe (vs a fallback
    /// scan-and-filter).
    pub fn serves_directly(&self, shape: Shape) -> bool {
        serving_kind(shape, self.keep).is_some()
    }

    /// The kept orderings and their three-level maps, in kept order — the
    /// walk [`PartialHexastore::freeze`] flattens.
    pub(crate) fn parts(&self) -> impl Iterator<Item = (IndexKind, &OrderingMap)> {
        self.indices.iter().map(|(kind, ix)| (*kind, &ix.map))
    }

    /// Reassembles a partial store from already-built ordering maps (the
    /// thaw path). Caller guarantees the maps hold the same `len` triples.
    pub(crate) fn from_raw_parts(
        keep: IndexSet,
        indices: Vec<(IndexKind, OrderingMap)>,
        len: usize,
    ) -> Self {
        let indices = indices.into_iter().map(|(kind, map)| (kind, OwnedIndex { map })).collect();
        PartialHexastore { keep, indices, len }
    }
}

/// Only the kept orderings, each owning its lists.
impl OrderedStore for PartialHexastore {
    type Ordering<'a> = &'a OrderingMap;

    fn kept(&self) -> IndexSet {
        self.keep
    }

    fn ordering(&self, kind: IndexKind) -> &OrderingMap {
        let (_, ix) =
            self.indices.iter().find(|(k, _)| *k == kind).expect("routed to a kept ordering");
        &ix.map
    }
}

impl crate::traits::MutableStore for PartialHexastore {}

impl TripleStore for PartialHexastore {
    fn name(&self) -> &'static str {
        "PartialHexastore"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, t: IdTriple) -> bool {
        let mut added = false;
        for (kind, ix) in &mut self.indices {
            let (k1, k2, item) = project(*kind, t);
            added = ix.insert(k1, k2, item);
        }
        if added {
            self.len += 1;
        }
        added
    }

    fn remove(&mut self, t: IdTriple) -> bool {
        let mut removed = false;
        for (kind, ix) in &mut self.indices {
            let (k1, k2, item) = project(*kind, t);
            removed = ix.remove(k1, k2, item);
        }
        if removed {
            self.len -= 1;
        }
        removed
    }

    fn heap_bytes(&self) -> usize {
        self.indices.iter().map(|(_, ix)| ix.heap_bytes()).sum()
    }

    crate::forward_reads!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::IdPattern;
    use crate::store::Hexastore;

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
            let mut partial = PartialHexastore::new(keep);
            for &tr in &sample() {
                partial.insert(tr);
            }
            assert_eq!(partial.len(), full.len(), "{keep:?}");
            assert_eq!(partial.capabilities(), partial.kept(), "{keep:?}");
            for pat in all_patterns() {
                let mut expected = full.matching(pat);
                expected.sort();
                // The lazy cursor must visit exactly what the callback
                // visitor does, in the same order.
                assert_eq!(
                    partial.iter_matching(pat).collect::<Vec<_>>(),
                    partial.matching(pat),
                    "{keep:?} pattern {pat:?}"
                );
                let mut got = partial.matching(pat);
                got.sort();
                assert_eq!(got, expected, "{keep:?} pattern {pat:?}");
            }
        }
    }

    /// Bulk construction (serial and parallel) matches
    /// insert-order construction for every subset of orderings.
    #[test]
    fn bulk_build_equals_incremental_for_every_subset() {
        let with_dups: Vec<IdTriple> =
            sample().into_iter().chain(sample().into_iter().take(3)).collect();
        for bits in 1u8..64 {
            let mut keep = IndexSet::EMPTY;
            for (i, kind) in IndexKind::ALL.into_iter().enumerate() {
                if bits & (1 << i) != 0 {
                    keep = keep.with(kind);
                }
            }
            let mut incremental = PartialHexastore::new(keep);
            for &tr in &with_dups {
                incremental.insert(tr);
            }
            for threads in [1, 2, 4] {
                let cfg = crate::bulk::Config { threads };
                let bulk = PartialHexastore::from_triples_with(keep, with_dups.clone(), cfg);
                assert_eq!(bulk.len(), incremental.len(), "{keep:?} {cfg:?}");
                assert_eq!(bulk.kept(), incremental.kept(), "{keep:?} {cfg:?}");
                for pat in all_patterns() {
                    let mut expected = incremental.matching(pat);
                    expected.sort();
                    let mut got = bulk.matching(pat);
                    got.sort();
                    assert_eq!(got, expected, "{keep:?} {cfg:?} pattern {pat:?}");
                }
            }
        }
    }

    #[test]
    fn bulk_build_promotes_empty_set_and_supports_updates() {
        let duplicated: Vec<IdTriple> = sample().into_iter().chain(sample()).collect();
        let mut store = PartialHexastore::from_triples(IndexSet::EMPTY, duplicated);
        assert!(store.kept().contains(IndexKind::Spo));
        assert_eq!(store.len(), sample().len(), "input duplicates deduplicated");
        assert!(store.insert(t(42, 42, 42)));
        assert!(store.remove(t(1, 2, 3)));
        assert!(!store.contains(t(1, 2, 3)));
    }

    #[test]
    fn insert_remove_parity_with_full_store() {
        let mut partial =
            PartialHexastore::new(IndexSet::EMPTY.with(IndexKind::Pos).with(IndexKind::Spo));
        let mut full = Hexastore::new();
        for &tr in &sample() {
            assert_eq!(partial.insert(tr), full.insert(tr));
        }
        assert!(!partial.insert(t(1, 2, 3)), "duplicate");
        assert_eq!(partial.remove(t(1, 2, 3)), full.remove(t(1, 2, 3)));
        assert_eq!(partial.remove(t(7, 7, 7)), full.remove(t(7, 7, 7)));
        assert_eq!(partial.len(), full.len());
        assert_eq!(partial.contains(t(1, 2, 4)), full.contains(t(1, 2, 4)));
    }

    #[test]
    fn empty_set_is_promoted_to_spo() {
        let store = PartialHexastore::new(IndexSet::EMPTY);
        assert!(store.kept().contains(IndexKind::Spo));
        assert_eq!(store.kept().len(), 1);
    }

    #[test]
    fn serves_directly_reflects_kept_indices() {
        let store =
            PartialHexastore::new(IndexSet::EMPTY.with(IndexKind::Spo).with(IndexKind::Pos));
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
        let full = Hexastore::from_triples(triples.iter().copied());
        let mut three =
            PartialHexastore::new(IndexSet::EMPTY.with(IndexKind::Spo).with(IndexKind::Pos));
        for &tr in &triples {
            three.insert(tr);
        }
        assert!(three.heap_bytes() < full.heap_bytes());
    }

    #[test]
    fn advisor_to_partial_pipeline() {
        // End-to-end §6 flow: profile a workload, build a reduced store,
        // and verify the direct shapes stay direct.
        let workload =
            [IdPattern::o(Id(3)), IdPattern::po(Id(2), Id(3)), IdPattern::sp(Id(1), Id(2))];
        let profile = crate::advisor::WorkloadProfile::from_patterns(&workload);
        let keep = crate::advisor::recommend(&profile);
        let mut store = PartialHexastore::new(keep);
        for &tr in &sample() {
            store.insert(tr);
        }
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
