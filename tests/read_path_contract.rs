//! One read contract, checked over the whole hexastore family.
//!
//! Every variant — mutable, frozen, layered, every partial subset in both
//! forms, and (feature `disk`) the memory-mapped store — answers reads
//! through `hexastore::access`, so one generic check states what all of
//! them owe a caller, against the [`TriplesTable`] oracle:
//!
//! - `for_each_matching` and `iter_matching` visit the same triples in the
//!   same order, each match exactly once, and exactly the oracle's set;
//! - `count_matching == iter_matching().count()`;
//! - ranges tile: for every cut `c`, `[0, c) ++ [c, n)` is the full
//!   cursor, and a range past the end is empty;
//! - `sorted_list`, where served, is the cursor's projection onto the
//!   free position and strictly ascending; it is `None` unless exactly
//!   two positions are bound;
//! - `contains` agrees with the oracle.

use hex_baselines::TriplesTable;
use hex_dict::{Id, IdTriple};
use hexastore::{
    FrozenHexastore, Hexastore, IdPattern, IndexKind, IndexSet, OverlayHexastore, PartialHexastore,
    TripleStore,
};

/// Small enough that every cut of every pattern is checked, dense enough
/// that divisions hold several lists of several items.
fn sample() -> Vec<IdTriple> {
    [
        (1, 5, 8),
        (1, 5, 9),
        (1, 6, 8),
        (1, 7, 3),
        (2, 5, 9),
        (2, 6, 4),
        (2, 6, 8),
        (3, 5, 8),
        (3, 7, 3),
        (4, 5, 3),
        (4, 5, 8),
        (8, 8, 8),
        (9, 5, 1),
    ]
    .into_iter()
    .map(IdTriple::from)
    .collect()
}

/// All eight shapes for every stored triple, plus every shape with a
/// constant no triple carries.
fn patterns(triples: &[IdTriple]) -> Vec<IdPattern> {
    let absent = Id(77);
    let mut pats = vec![IdPattern::ALL];
    for t in triples.iter().copied().chain([IdTriple::new(absent, absent, absent)]) {
        pats.extend([
            IdPattern::spo(t),
            IdPattern::sp(t.s, t.p),
            IdPattern::so(t.s, t.o),
            IdPattern::po(t.p, t.o),
            IdPattern::s(t.s),
            IdPattern::p(t.p),
            IdPattern::o(t.o),
            // A present constant paired with the absent one.
            IdPattern::sp(t.s, absent),
            IdPattern::so(absent, t.o),
            IdPattern::po(t.p, absent),
            IdPattern::spo(IdTriple::new(t.s, t.p, absent)),
        ]);
    }
    pats.sort_by_key(|p| (p.s, p.p, p.o));
    pats.dedup();
    pats
}

fn check<S: TripleStore>(store: &S, oracle: &TriplesTable, what: &str) {
    assert_eq!(store.len(), oracle.len(), "{what}: len");
    for pat in patterns(oracle.rows()) {
        let ctx = format!("{what} ({}) {pat:?}", store.name());

        let cursor: Vec<IdTriple> = store.iter_matching(pat).collect();
        let mut visited = Vec::new();
        store.for_each_matching(pat, &mut |t| visited.push(t));
        assert_eq!(visited, cursor, "{ctx}: for_each vs iter");
        assert_eq!(store.matching(pat), cursor, "{ctx}: matching vs iter");

        let mut got = cursor.clone();
        got.sort();
        let mut want = oracle.matching(pat);
        want.sort();
        assert_eq!(got, want, "{ctx}: match set vs oracle");

        let n = cursor.len();
        assert_eq!(store.count_matching(pat), n, "{ctx}: count");

        for cut in 0..=n {
            let mut tiled: Vec<IdTriple> = store.iter_matching_range(pat, 0, cut).collect();
            assert_eq!(tiled.len(), cut, "{ctx}: [0, {cut})");
            tiled.extend(store.iter_matching_range(pat, cut, n));
            assert_eq!(tiled, cursor, "{ctx}: cut at {cut}");
        }
        assert_eq!(store.iter_matching_range(pat, n, n + 3).count(), 0, "{ctx}: past the end");
        assert_eq!(store.iter_matching_range(pat, 0, usize::MAX).count(), n, "{ctx}: open end");

        if let Some(lists) = store.sorted_lists() {
            match lists.sorted_list(pat) {
                Some(list) => {
                    assert_eq!(pat.bound_count(), 2, "{ctx}: sorted_list shape");
                    let projected: Vec<Id> = cursor
                        .iter()
                        .map(|t| match (pat.s, pat.p) {
                            (None, _) => t.s,
                            (_, None) => t.p,
                            _ => t.o,
                        })
                        .collect();
                    assert_eq!(list, projected, "{ctx}: sorted_list vs cursor projection");
                    assert!(list.windows(2).all(|w| w[0] < w[1]), "{ctx}: ascending");
                }
                None => assert!(
                    pat.bound_count() != 2 || !store.capabilities().serves(pat.shape()),
                    "{ctx}: a served two-bound shape must hand out its list"
                ),
            }
        }

        if let (Some(s), Some(p), Some(o)) = (pat.s, pat.p, pat.o) {
            let t = IdTriple::new(s, p, o);
            assert_eq!(store.contains(t), oracle.contains(t), "{ctx}: contains");
        }
    }
}

fn subsets() -> impl Iterator<Item = IndexSet> {
    (1u8..64).map(|bits| {
        IndexKind::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| bits & (1 << i) != 0)
            .fold(IndexSet::EMPTY, |set, (_, kind)| set.with(kind))
    })
}

/// An overlay with all three layers populated that nets out to `triples`:
/// the base holds the first two thirds plus one stray triple, the stray
/// is tombstoned, and the last third arrives through the delta.
fn overlay_of(triples: &[IdTriple]) -> OverlayHexastore {
    let split = triples.len() * 2 / 3;
    let stray = IdTriple::from((6, 6, 6));
    let base = triples[..split].iter().copied().chain([stray]);
    let mut overlay = OverlayHexastore::new(FrozenHexastore::from_triples(base));
    assert!(overlay.remove(stray));
    for &t in &triples[split..] {
        assert!(overlay.insert(t));
    }
    assert!(triples.is_empty() || (overlay.delta_len() > 0 && overlay.tombstone_len() > 0));
    overlay
}

fn check_family(triples: &[IdTriple]) {
    let oracle = TriplesTable::from_triples(triples.iter().copied());
    let mutable = Hexastore::from_triples(triples.iter().copied());
    check(&mutable, &oracle, "bulk-built");
    let mut inserted = Hexastore::new();
    for &t in triples.iter().rev() {
        inserted.insert(t);
    }
    check(&inserted, &oracle, "insert-built");
    check(&mutable.freeze(), &oracle, "freeze()");
    check(&FrozenHexastore::from_triples(triples.iter().copied()), &oracle, "build_frozen");
    check(&overlay_of(triples), &oracle, "overlay");
    for keep in subsets() {
        let partial = PartialHexastore::from_triples(keep, triples.iter().copied());
        check(&partial, &oracle, &format!("partial {keep:?}"));
        check(&partial.freeze(), &oracle, &format!("frozen partial {keep:?}"));
    }
}

#[test]
fn every_in_memory_variant_obeys_the_read_contract() {
    check_family(&sample());
}

#[test]
fn empty_stores_obey_the_read_contract() {
    check_family(&[]);
}

#[cfg(feature = "disk")]
#[test]
fn the_mapped_store_obeys_the_read_contract() {
    use hexastore::hexsnap;
    for (tag, triples) in [("full", sample()), ("empty", Vec::new())] {
        let oracle = TriplesTable::from_triples(triples.iter().copied());
        let frozen = FrozenHexastore::from_triples(triples.iter().copied());
        let path = std::env::temp_dir()
            .join(format!("read-path-contract-{tag}-{}.hexsnap", std::process::id()));
        // Id-level check: an empty dictionary section is enough to map.
        hexsnap::save_frozen(&path, &hex_dict::Dictionary::new(), &frozen).unwrap();
        let mapped = hex_disk::open_store(&path).unwrap();
        check(&mapped, &oracle, "mmap");
        std::fs::remove_file(&path).ok();
    }
}
