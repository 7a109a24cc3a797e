//! Cross-store equivalence: all four physical designs are different
//! *performance* points over the same logical triple set, so on any data
//! and any pattern they must return identical results (after sorting —
//! visit order is index-specific).

use hex_baselines::{Covp1, Covp2, TriplesTable};
use hex_dict::{Id, IdTriple};
use hexastore::{Hexastore, IdPattern, OverlayHexastore, TripleStore};
use proptest::prelude::*;

fn arb_triple() -> impl Strategy<Value = IdTriple> {
    (0u32..14, 0u32..7, 0u32..14).prop_map(IdTriple::from)
}

fn arb_pattern() -> impl Strategy<Value = IdPattern> {
    let pos = || proptest::option::of(0u32..14);
    (pos(), proptest::option::of(0u32..7), pos())
        .prop_map(|(s, p, o)| IdPattern::new(s.map(Id), p.map(Id), o.map(Id)))
}

fn stores(triples: &[IdTriple]) -> (Hexastore, TriplesTable, Covp1, Covp2) {
    (
        Hexastore::from_triples(triples.iter().copied()),
        TriplesTable::from_triples(triples.iter().copied()),
        Covp1::from_triples(triples.iter().copied()),
        Covp2::from_triples(triples.iter().copied()),
    )
}

fn sorted_matching(store: &dyn TripleStore, pat: IdPattern) -> Vec<IdTriple> {
    let mut v = store.matching(pat);
    v.sort();
    v
}

proptest! {
    #[test]
    fn all_stores_agree_on_patterns(
        triples in proptest::collection::vec(arb_triple(), 0..150),
        patterns in proptest::collection::vec(arb_pattern(), 1..12),
    ) {
        let (hex, table, covp1, covp2) = stores(&triples);
        prop_assert_eq!(hex.len(), table.len());
        prop_assert_eq!(hex.len(), covp1.len());
        prop_assert_eq!(hex.len(), covp2.len());
        for pat in patterns {
            let expected = sorted_matching(&hex, pat);
            prop_assert_eq!(&sorted_matching(&table, pat), &expected, "TriplesTable {:?}", pat);
            prop_assert_eq!(&sorted_matching(&covp1, pat), &expected, "COVP1 {:?}", pat);
            prop_assert_eq!(&sorted_matching(&covp2, pat), &expected, "COVP2 {:?}", pat);
            for store in [&table as &dyn TripleStore, &covp1, &covp2, &hex] {
                prop_assert_eq!(store.count_matching(pat), expected.len(),
                    "{} count {:?}", store.name(), pat);
            }
        }
    }

    /// The bulk loader — at any thread count — must be
    /// indistinguishable from insert-order construction when checked
    /// against the baseline oracles on arbitrary patterns.
    #[test]
    fn bulk_loader_agrees_with_baseline_oracles(
        triples in proptest::collection::vec(arb_triple(), 0..150),
        patterns in proptest::collection::vec(arb_pattern(), 1..12),
        threads in 1usize..9,
    ) {
        let cfg = hexastore::bulk::Config { threads };
        let hex = hexastore::bulk::build_frozen_with(triples.clone(), cfg).thaw();
        let table = TriplesTable::from_triples(triples.iter().copied());
        let mut incremental = OverlayHexastore::default();
        for &t in &triples {
            incremental.insert(t);
        }
        prop_assert_eq!(hex.len(), table.len(), "threads={}", threads);
        prop_assert_eq!(hex.freeze().space_stats(), incremental.freeze().space_stats());
        for pat in patterns {
            let expected = sorted_matching(&table, pat);
            prop_assert_eq!(&sorted_matching(&hex, pat), &expected,
                "bulk vs oracle, threads={} {:?}", threads, pat);
            prop_assert_eq!(&sorted_matching(&incremental, pat), &expected,
                "incremental vs oracle {:?}", pat);
            prop_assert_eq!(hex.count_matching(pat), expected.len());
        }
    }

    /// The writable stores take the same updates with the same answers;
    /// the read-only ones, built from what the updates left, hold it too.
    #[test]
    fn all_stores_agree_under_updates(
        inserts in proptest::collection::vec(arb_triple(), 0..80),
        removes in proptest::collection::vec(arb_triple(), 0..40),
    ) {
        let mut hex = OverlayHexastore::default();
        let mut table = TriplesTable::new();
        for &t in &inserts {
            let a = hex.insert(t);
            prop_assert_eq!(table.insert(t), a);
        }
        for &t in &removes {
            let a = hex.remove(t);
            prop_assert_eq!(table.remove(t), a);
        }
        let expected = sorted_matching(&hex, IdPattern::ALL);
        prop_assert_eq!(sorted_matching(&table, IdPattern::ALL), expected.clone());
        let covp1 = Covp1::from_triples(expected.iter().copied());
        let covp2 = Covp2::from_triples(expected.iter().copied());
        prop_assert_eq!(sorted_matching(&hex.freeze(), IdPattern::ALL), expected.clone());
        prop_assert_eq!(sorted_matching(&covp1, IdPattern::ALL), expected.clone());
        prop_assert_eq!(sorted_matching(&covp2, IdPattern::ALL), expected);
    }
}
