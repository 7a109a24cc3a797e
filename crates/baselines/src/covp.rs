//! COVP1 and COVP2: the paper's representation of column-oriented vertical
//! partitioning (Abadi et al., VLDB 2007).
//!
//! §5 builds both from the Hexastore's own structure: "we represent the
//! COVP method through our pso indexing", and the second copy per property
//! sorted on object "is tantamount to having both a pso and a pos index".
//! So COVP1 is a [`PartialHexastore`] keeping {pso} and COVP2 one keeping
//! {pso, pos}. Neither has any subject-headed or object-headed division, so
//! a pattern that does not bind the property filters a scan of the pso
//! ordering — every property table — which is the scalability defect the
//! paper demonstrates (§2.2.3, §5).
//!
//! A property table is a division of pso: `ordering(IndexKind::Pso)`'s
//! `keys()` are the table names, `division(p)` is table `p` and
//! `list(p, s)` the objects of one row; COVP2's second copy is
//! `ordering(IndexKind::Pos)`. Asking COVP1 for pos panics, naming the
//! missing ordering.

use hex_dict::IdTriple;
use hexastore::access::{OrderedStore, SlabOrdering};
use hexastore::{IndexKind, IndexSet, PartialHexastore, TripleStore};

/// Defines a COVP store: a named, read-only [`PartialHexastore`] keeping
/// the given orderings, whose reads are the partial store's — a shape the
/// kept orderings serve is one probe, any other filters a scan of pso.
macro_rules! covp_store {
    ($(#[$doc:meta])* $store:ident, $name:literal, [$($kind:ident),+]) => {
        $(#[$doc])*
        #[derive(Clone, Debug)]
        pub struct $store {
            store: PartialHexastore,
        }

        impl $store {
            /// Builds from a batch of triples (unsorted, possibly
            /// duplicated). The store is read-only afterwards.
            pub fn from_triples(triples: impl IntoIterator<Item = IdTriple>) -> Self {
                let keep = IndexSet::EMPTY$(.with(IndexKind::$kind))+;
                $store { store: PartialHexastore::from_triples(keep, triples) }
            }
        }

        impl hexastore::StatsSource for $store {}

        impl OrderedStore for $store {
            fn kept(&self) -> IndexSet {
                self.store.kept()
            }

            fn ordering(&self, kind: IndexKind) -> SlabOrdering<'_> {
                self.store.ordering(kind)
            }
        }

        impl TripleStore for $store {
            fn name(&self) -> &'static str {
                $name
            }

            fn len(&self) -> usize {
                self.store.len()
            }

            /// # Panics
            ///
            /// Always — COVP stores are built from a batch and read-only.
            fn insert(&mut self, t: IdTriple) -> bool {
                self.store.insert(t)
            }

            /// # Panics
            ///
            /// Always — COVP stores are built from a batch and read-only.
            fn remove(&mut self, t: IdTriple) -> bool {
                self.store.remove(t)
            }

            fn heap_bytes(&self) -> usize {
                self.store.heap_bytes()
            }

            hexastore::forward_reads!();
        }
    };
}

covp_store!(
    /// Single-index (pso) column-oriented vertical-partitioning store.
    Covp1,
    "COVP1",
    [Pso]
);

covp_store!(
    /// Two-index (pso + pos) column-oriented vertical-partitioning store.
    Covp2,
    "COVP2",
    [Pso, Pos]
);

#[cfg(test)]
mod tests {
    use super::*;
    use hex_dict::Id;
    use hexastore::IdPattern;

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
            IdPattern::spo(t(7, 7, 7)),
            IdPattern::o(Id(42)),
        ]
    }

    #[test]
    fn covp1_matches_naive_filter() {
        let rows = sample();
        let store = Covp1::from_triples(rows.clone());
        assert_eq!(store.len(), rows.len());
        for pat in all_patterns() {
            let mut expected: Vec<IdTriple> =
                rows.iter().copied().filter(|&x| pat.matches(x)).collect();
            expected.sort();
            let mut got = store.matching(pat);
            got.sort();
            assert_eq!(got, expected, "covp1 pattern {pat:?}");
            assert_eq!(store.count_matching(pat), got.len());
        }
    }

    #[test]
    fn covp2_matches_naive_filter() {
        let rows = sample();
        let store = Covp2::from_triples(rows.clone());
        assert_eq!(store.len(), rows.len());
        for pat in all_patterns() {
            let mut expected: Vec<IdTriple> =
                rows.iter().copied().filter(|&x| pat.matches(x)).collect();
            expected.sort();
            let mut got = store.matching(pat);
            got.sort();
            assert_eq!(got, expected, "covp2 pattern {pat:?}");
            assert_eq!(store.count_matching(pat), got.len());
        }
    }

    #[test]
    fn capabilities_name_the_physical_indices() {
        let (c1, c2) = (Covp1::from_triples([]), Covp2::from_triples([]));
        assert_eq!(c1.capabilities(), IndexSet::EMPTY.with(IndexKind::Pso));
        assert_eq!(c2.capabilities(), IndexSet::EMPTY.with(IndexKind::Pso).with(IndexKind::Pos));
        assert!(c2.capabilities().serves(hexastore::Shape::Po));
        assert!(!c1.capabilities().serves(hexastore::Shape::O));
    }

    #[test]
    fn covp2_pos_probe_is_direct() {
        let store = Covp2::from_triples(sample());
        let pos = store.ordering(IndexKind::Pos);
        assert_eq!(pos.list(Id(2), Id(3)), &[Id(1), Id(2)]);
        assert_eq!(pos.list(Id(2), Id(42)), &[] as &[Id]);
    }

    #[test]
    #[should_panic(expected = "PartialHexastore keeps no pos ordering (it keeps {\"pso\"})")]
    fn covp1_has_no_pos_ordering() {
        Covp1::from_triples(sample()).ordering(IndexKind::Pos);
    }

    #[test]
    fn covp2_costs_roughly_double_covp1_memory() {
        // §5.3.3 / Figure 15: Hexastore ≈ 4× COVP1; COVP2 sits in between
        // because it duplicates each property table.
        let rows: Vec<IdTriple> = (0..2000).map(|i| t(i % 97, i % 13, i)).collect();
        let c1 = Covp1::from_triples(rows.clone());
        let c2 = Covp2::from_triples(rows);
        // The two copies index the same triples but group them differently
        // (by subject vs by object), so the ratio depends on the grouping
        // shape — here every object list is a single subject below 97,
        // which the pos copy stores in an 8-bit slot, so it comes to 1.4.
        let ratio = c2.heap_bytes() as f64 / c1.heap_bytes() as f64;
        assert!(ratio > 1.25 && ratio < 4.0, "ratio {ratio}");
    }

    #[test]
    fn names() {
        assert_eq!(Covp1::from_triples([]).name(), "COVP1");
        assert_eq!(Covp2::from_triples([]).name(), "COVP2");
    }
}
