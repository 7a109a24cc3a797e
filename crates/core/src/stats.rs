//! Dataset statistics over a Hexastore.
//!
//! Two consumers: the query planner's selectivity estimates (already
//! served by [`crate::TripleStore::count_matching`]) and the dataset
//! *shape* analysis the paper leans on — "The vast majority of properties
//! appear infrequently" (§5.1.1 on Barton), degree skew, and the
//! multi-valued resources that §4.2 argues the Hexastore handles
//! concisely. [`DatasetStats::compute`] reads four orderings directly;
//! [`DatasetStats::from_store`] is the store-agnostic fallback (one
//! hashed triple scan) for stores without them, and [`StatsSource`]
//! picks the cheapest path per store so the [`crate::Dataset`] facade
//! never hashes what an index already knows.

use crate::access::OrderedStore;
use crate::advisor::IndexKind::{Osp, Pos, Pso, Spo};
use crate::frozen::FrozenHexastore;
use crate::pattern::IdPattern;
use crate::traits::TripleStore;
use hex_dict::Id;
use std::collections::{HashMap, HashSet};

/// Summary statistics of a stored dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetStats {
    /// Total triples.
    pub triples: usize,
    /// Distinct subjects / properties / objects.
    pub distinct: (usize, usize, usize),
    /// Per-property triple counts, sorted descending.
    pub property_cardinalities: Vec<(Id, usize)>,
    /// Per-property `(distinct subjects, distinct objects)`, sorted
    /// ascending by property id so [`DatasetStats::property_shape`] can
    /// binary-search. Global distinct counts over-divide skewed
    /// properties in planner fan-out estimates; these are the exact
    /// per-predicate values.
    pub property_shapes: Vec<(Id, usize, usize)>,
    /// Mean triples per subject (out-degree).
    pub mean_out_degree: f64,
    /// Mean triples per object (in-degree).
    pub mean_in_degree: f64,
    /// Fraction of (s, p) pairs with more than one object — the
    /// multi-valued resources of §4.2.
    pub multi_valued_sp_fraction: f64,
}

impl DatasetStats {
    /// Computes statistics from a store's spo, pso, pos and osp
    /// orderings: header counts, one pso and one pos division per
    /// property, and the spo list lengths. No triple is visited, and no
    /// other ordering is read.
    ///
    /// # Panics
    ///
    /// If the store does not keep all four of those orderings.
    pub fn compute<S: OrderedStore>(store: &S) -> DatasetStats {
        let (spo, pso, pos) = (store.ordering(Spo), store.ordering(Pso), store.ordering(Pos));
        let (mut property_cardinalities, mut property_shapes) = (Vec::new(), Vec::new());
        // pso's keys ascend, so the shape table comes out
        // binary-searchable for free.
        for p in pso.keys() {
            let (mut subjects, mut triples) = (0, 0);
            for (_, objects) in pso.division(p) {
                subjects += 1;
                triples += objects.len();
            }
            property_cardinalities.push((p, triples));
            property_shapes.push((p, subjects, pos.division(p).count()));
        }
        let sp_lists = spo.scan().map(|(_, _, objs)| objs.len());
        let distinct = (spo.keys().len(), store.ordering(Osp).keys().len());
        Self::assemble(store.len(), distinct, property_cardinalities, property_shapes, sp_lists)
    }

    /// Computes statistics from *any* [`TripleStore`] with one linear
    /// pass over its triples — the entry point for stores without the
    /// orderings [`DatasetStats::compute`] reads (the overlay, the partial
    /// store, the baselines). Produces exactly the same numbers as
    /// [`DatasetStats::compute`] does on a full Hexastore.
    pub fn from_store(store: &dyn TripleStore) -> DatasetStats {
        let mut subjects: HashSet<Id> = HashSet::new();
        let mut objects: HashSet<Id> = HashSet::new();
        let mut prop_counts: HashMap<Id, usize> = HashMap::new();
        let mut sp_counts: HashMap<(Id, Id), usize> = HashMap::new();
        let mut prop_members: HashMap<Id, (HashSet<Id>, HashSet<Id>)> = HashMap::new();
        store.for_each_matching(IdPattern::ALL, &mut |t| {
            subjects.insert(t.s);
            objects.insert(t.o);
            *prop_counts.entry(t.p).or_insert(0) += 1;
            *sp_counts.entry((t.s, t.p)).or_insert(0) += 1;
            let (subs, objs) = prop_members.entry(t.p).or_default();
            subs.insert(t.s);
            objs.insert(t.o);
        });
        let mut property_shapes: Vec<(Id, usize, usize)> =
            prop_members.into_iter().map(|(p, (subs, objs))| (p, subs.len(), objs.len())).collect();
        property_shapes.sort_unstable_by_key(|&(p, _, _)| p);
        let distinct = (subjects.len(), objects.len());
        let property_cardinalities = prop_counts.into_iter().collect();
        Self::assemble(
            store.len(),
            distinct,
            property_cardinalities,
            property_shapes,
            sp_counts.into_values(),
        )
    }

    /// The statistics from what both derivations count: distinct subjects
    /// and objects, each property's triples and shape, and the object
    /// count of every `(s, p)` pair.
    fn assemble(
        triples: usize,
        (subjects, objects): (usize, usize),
        mut property_cardinalities: Vec<(Id, usize)>,
        property_shapes: Vec<(Id, usize, usize)>,
        sp_lists: impl Iterator<Item = usize>,
    ) -> DatasetStats {
        property_cardinalities.sort_by_key(|&(p, n)| (std::cmp::Reverse(n), p));
        let (mut sp_pairs, mut multi_valued) = (0, 0);
        for objects in sp_lists {
            sp_pairs += 1;
            multi_valued += usize::from(objects > 1);
        }
        let ratio = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        DatasetStats {
            triples,
            distinct: (subjects, property_cardinalities.len(), objects),
            mean_out_degree: ratio(triples, subjects),
            mean_in_degree: ratio(triples, objects),
            multi_valued_sp_fraction: ratio(multi_valued, sp_pairs),
            property_cardinalities,
            property_shapes,
        }
    }

    /// Triple count of one property, if it occurs in the dataset.
    ///
    /// A linear scan of the frequency-sorted table (which cannot be
    /// binary-searched by id) — fine for occasional lookups; callers
    /// needing one probe per pattern per planning round should build an
    /// id-keyed map from [`DatasetStats::property_cardinalities`] first.
    pub fn property_cardinality(&self, p: Id) -> Option<usize> {
        self.property_cardinalities.iter().find(|&&(q, _)| q == p).map(|&(_, n)| n)
    }

    /// The `(distinct subjects, distinct objects)` of one property, if
    /// it occurs in the dataset — one binary search.
    ///
    /// This is the planner's sharpened fan-out input: dividing a bound
    /// position by the *global* distinct count assumes every property
    /// touches every resource, which over-divides skewed properties
    /// (e.g. a `type` property reaching few distinct objects).
    pub fn property_shape(&self, p: Id) -> Option<(usize, usize)> {
        self.property_shapes
            .binary_search_by_key(&p, |&(q, _, _)| q)
            .ok()
            .map(|i| (self.property_shapes[i].1, self.property_shapes[i].2))
    }

    /// The `k` most frequent properties — the head the Abadi et al. study
    /// restricted itself to (the "28 interesting properties").
    pub fn top_properties(&self, k: usize) -> Vec<Id> {
        self.property_cardinalities.iter().take(k).map(|&(p, _)| p).collect()
    }

    /// Gini-style skew measure over property cardinalities in `[0, 1)`:
    /// 0 = perfectly uniform, →1 = all triples under one property.
    pub fn property_skew(&self) -> f64 {
        let n = self.property_cardinalities.len();
        if n < 2 || self.triples == 0 {
            return 0.0;
        }
        // Gini coefficient: 1 − 2 · (area under the Lorenz curve), with
        // cardinalities taken in ascending order.
        let total = self.triples as f64;
        let steps = n as f64;
        let mut cum = 0.0;
        let mut area = 0.0;
        for &(_, c) in self.property_cardinalities.iter().rev() {
            let share = c as f64 / total;
            area += (cum + share / 2.0) / steps;
            cum += share;
        }
        1.0 - 2.0 * area
    }
}

/// A store that can produce its own [`DatasetStats`], choosing the
/// cheapest derivation its physical design allows.
///
/// [`crate::Dataset::stats`] is bound on this trait: a
/// [`FrozenHexastore`] — and the memory-mapped store of `hex-disk` —
/// answers from its already-built orderings
/// ([`DatasetStats::compute`]); the other store forms fall back to the
/// generic one-pass scan ([`DatasetStats::from_store`]). External store
/// types can implement it the same way (the default body is the scan).
pub trait StatsSource: TripleStore {
    /// Summary statistics of this store's triples.
    fn dataset_stats(&self) -> DatasetStats
    where
        Self: Sized,
    {
        DatasetStats::from_store(self)
    }
}

impl StatsSource for FrozenHexastore {
    fn dataset_stats(&self) -> DatasetStats {
        DatasetStats::compute(self)
    }
}

impl StatsSource for crate::partial::PartialHexastore {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Hexastore;
    use hex_dict::IdTriple;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    #[test]
    fn counts_and_degrees() {
        let h = Hexastore::from_triples([
            t(1, 10, 100),
            t(1, 10, 101), // multi-valued (1, 10)
            t(1, 11, 100),
            t(2, 10, 100),
        ]);
        let stats = DatasetStats::compute(&h);
        assert_eq!(stats.triples, 4);
        assert_eq!(stats.distinct, (2, 2, 2));
        assert!((stats.mean_out_degree - 2.0).abs() < 1e-9);
        assert!((stats.mean_in_degree - 2.0).abs() < 1e-9);
        // (1,10) has two objects; (1,11) and (2,10) have one → 1/3.
        assert!((stats.multi_valued_sp_fraction - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn property_cardinalities_sorted_descending() {
        let h = Hexastore::from_triples([t(1, 10, 1), t(2, 10, 2), t(3, 10, 3), t(1, 11, 1)]);
        let stats = DatasetStats::compute(&h);
        assert_eq!(stats.property_cardinalities[0], (Id(10), 3));
        assert_eq!(stats.property_cardinalities[1], (Id(11), 1));
        assert_eq!(stats.top_properties(1), vec![Id(10)]);
        assert_eq!(stats.top_properties(5).len(), 2);
    }

    #[test]
    fn property_shapes_give_exact_per_property_distincts() {
        let h = Hexastore::from_triples([
            t(1, 10, 100),
            t(1, 10, 101),
            t(2, 10, 100),
            t(3, 11, 100),
            t(3, 11, 101),
        ]);
        let stats = DatasetStats::compute(&h);
        // Property 10: subjects {1, 2}, objects {100, 101}.
        assert_eq!(stats.property_shape(Id(10)), Some((2, 2)));
        // Property 11: subject {3}, objects {100, 101}.
        assert_eq!(stats.property_shape(Id(11)), Some((1, 2)));
        assert_eq!(stats.property_shape(Id(99)), None);
        // The table is sorted by id, as the binary search requires.
        let ids: Vec<Id> = stats.property_shapes.iter().map(|&(p, _, _)| p).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn from_store_matches_compute_on_every_form() {
        let triples: Vec<IdTriple> = (0..300u32).map(|i| t(i % 23, i % 7, i % 41)).collect();
        let h = Hexastore::from_triples(triples.iter().copied());
        let reference = DatasetStats::compute(&h);
        assert_eq!(DatasetStats::from_store(&h), reference);
        assert_eq!(h.dataset_stats(), reference);
        let mut written = crate::OverlayHexastore::default();
        for &tr in &triples {
            written.insert(tr);
        }
        assert_eq!(written.dataset_stats(), reference);
        assert_eq!(
            reference.property_cardinality(Id(3)),
            Some(h.count_matching(IdPattern::p(Id(3))))
        );
        assert_eq!(reference.property_cardinality(Id(99)), None);
    }

    #[test]
    fn empty_store_stats() {
        let stats = DatasetStats::compute(&Hexastore::from_triples([]));
        assert_eq!(stats.triples, 0);
        assert_eq!(stats.mean_out_degree, 0.0);
        assert_eq!(stats.multi_valued_sp_fraction, 0.0);
        assert_eq!(stats.property_skew(), 0.0);
    }

    #[test]
    fn skew_distinguishes_uniform_from_skewed() {
        // Uniform: 4 properties × 5 triples each.
        let uniform = Hexastore::from_triples(
            (0..4u32).flat_map(|p| (0..5u32).map(move |i| t(100 + i, p, 200 + i + p))),
        );
        // Skewed: one property with 17 triples, three with 1 each.
        let skewed = Hexastore::from_triples(
            (0..17u32)
                .map(|i| t(100 + i, 0, 300 + i))
                .chain((1..4u32).map(|p| t(50 + p, p, 400 + p))),
        );
        let u = DatasetStats::compute(&uniform).property_skew();
        let s = DatasetStats::compute(&skewed).property_skew();
        assert!(s > u, "skewed {s} should exceed uniform {u}");
    }
}
