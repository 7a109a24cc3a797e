//! Property-based validation of the BGP executor against a brute-force
//! reference: enumerate *all* assignments of store triples to patterns and
//! keep the consistent ones. Slow but obviously correct — any divergence
//! in the planner, the access-path dispatch or the binding extension logic
//! shows up here.

use hex_query::{execute_bgp, BgpCursor};
use hexastore::{Hexastore, IdPattern, TripleStore};
use proptest::prelude::*;

mod support;
use support::{arb_bgp, arb_triple, brute_force};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn executor_matches_brute_force(
        triples in proptest::collection::vec(arb_triple(), 0..10),
        bgp in arb_bgp(),
    ) {
        let store = Hexastore::from_triples(triples);
        let mut got = execute_bgp(&store, &bgp);
        got.sort();
        got.dedup();
        let expected = brute_force(&store.matching(IdPattern::ALL), &bgp);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn executor_is_order_invariant(
        triples in proptest::collection::vec(arb_triple(), 0..12),
        bgp in arb_bgp(),
    ) {
        let store = Hexastore::from_triples(triples);
        let reference = {
            let mut r = execute_bgp(&store, &bgp);
            r.sort();
            r.dedup();
            r
        };
        // Every explicit evaluation order yields the same result set.
        let k = bgp.patterns.len();
        let mut order: Vec<usize> = (0..k).collect();
        // Enumerate permutations (k ≤ 3 → at most 6).
        permute(&mut order, 0, &mut |perm| {
            let mut rows: Vec<_> = BgpCursor::new(&store, &bgp, perm).collect();
            rows.sort();
            rows.dedup();
            assert_eq!(rows, reference, "order {perm:?}");
        });
    }
}

fn permute(items: &mut Vec<usize>, start: usize, f: &mut impl FnMut(&[usize])) {
    if start == items.len() {
        f(items);
        return;
    }
    for i in start..items.len() {
        items.swap(start, i);
        permute(items, start + 1, f);
        items.swap(start, i);
    }
}
