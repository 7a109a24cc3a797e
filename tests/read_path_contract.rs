//! One read contract, checked over every store in the workspace.
//!
//! The hexastore family — frozen, layered, every partial subset (COVP1
//! and COVP2 among them), and (feature `disk`) the memory-mapped store —
//! and the triples table all enumerate through `TripleStore::iter_matching`, so
//! one generic check states what each owes a caller, against a model (the
//! sorted, duplicate-free triples filtered by `IdPattern::matches`):
//!
//! - `iter_matching` yields exactly the model's set, each match once, in
//!   the same order on every call; `for_each_matching` and `matching`
//!   follow it;
//! - on the family ([`Order::Routed`]) that order is the key order of the
//!   ordering the pattern is routed to, which is `(s, p, o)` order
//!   whenever all six orderings are kept;
//! - `count_matching == iter_matching().count()`;
//! - ranges tile: for every cut `c`, `[0, c) ++ [c, n)` is the full
//!   cursor, and a range past the end is empty;
//! - `list`, where served, is the cursor's projection onto the free
//!   position and strictly ascending; it is `None` unless exactly two
//!   positions are bound, and `Some` for every served two-bound shape;
//!   `sorted_list` is the same list wherever it lends one — a run from
//!   the arena's decoded `u32` copy of its key column, on every slab
//!   store — and lends every list on a store that keeps an ordering
//!   headed by the list's position (all six orderings, or the mapped
//!   store); every slab store is seen to lend a run and an absent pair,
//!   and those that lend every list a singleton too ([`Lent`]);
//! - `contains` agrees with the model.
//!
//! Every slab store — frozen, every partial subset (COVP1 and COVP2
//! among them), and (feature `disk`) the memory-mapped store — also owes
//! the one ordering read, `OrderedStore::ordering(kind)`, for each kind it
//! keeps ([`check_orderings`]), against the model projected to the
//! ordering's `(k1, k2, item)` key order:
//!
//! - `keys()` is the sorted, distinct `k1` of the projection;
//! - `division(k1)` yields the `(k2, list)` groups of that `k1` in `k2`
//!   order, each list strictly ascending;
//! - `list(k1, k2)` is that division's list, and empty for absent keys;
//! - `scan()` is the divisions concatenated in key order, and its items
//!   total `len()`;
//! - a list index past the arena's slot column reads as the empty list
//!   (a packed read past the end is 0, which would otherwise be the
//!   singleton `Id(0)`);
//! - a mirror ordering's list references strictly ascend within each of
//!   its windows and are the canonical key column of those windows,
//!   packed or Elias–Fano coded ([`check_references`]);
//! - every cumulative offsets column it reads decodes to the same values
//!   whichever encoding it uses, and is their canonical column, packed or
//!   one Elias–Fano window ([`check_offsets`]).

use hex_baselines::{Covp1, Covp2, TriplesTable};
use hex_dict::{Id, IdTriple};
use hexastore::access::{project, route, IndexView, KeysView, List, OrderedStore, SlabOrdering};
use hexastore::packed::PackedColumn;
use hexastore::succinct::{KeyColumn, OffsetsColumn, OffsetsView};
use hexastore::{
    bulk, FrozenHexastore, IdPattern, IndexKind, IndexSet, OverlayHexastore, PartialHexastore,
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

/// What a store promises about cursor order beyond "the same every time".
#[derive(Clone, Copy)]
enum Order {
    /// The hexastore family: the routed ordering's key order.
    Routed,
    /// The triples table: no particular order.
    Repeatable,
}

/// The model of a batch: its triples sorted and duplicate-free.
fn model_of(triples: &[IdTriple]) -> Vec<IdTriple> {
    let mut model = triples.to_vec();
    model.sort();
    model.dedup();
    model
}

/// True when `store` keeps an ordering headed by each position, whose
/// header keys lend `sorted_list` every singleton list.
fn lends_every_list<S: TripleStore + ?Sized>(store: &S) -> bool {
    use IndexKind::*;
    let kept = store.capabilities();
    [[Spo, Sop], [Pso, Pos], [Osp, Ops]].iter().all(|pair| pair.iter().any(|&k| kept.contains(k)))
}

/// The lists `sorted_list` lent while a check ran, by length: absent
/// pairs (none), singletons (one) and runs (two or more).
#[derive(Clone, Copy, Debug, Default)]
struct Lent {
    absent: usize,
    singletons: usize,
    runs: usize,
}

impl Lent {
    /// Asserts that `store` lent every kind of list it owes.
    fn assert_every_kind(self, store: &dyn TripleStore, what: &str) {
        assert!(self.absent > 0 && self.runs > 0, "{what}: lent {self:?}");
        if lends_every_list(store) {
            assert!(self.singletons > 0, "{what}: lent {self:?}");
        }
    }
}

fn check<S: TripleStore>(store: &S, model: &[IdTriple], order: Order, what: &str) -> Lent {
    assert_eq!(store.len(), model.len(), "{what}: len");
    let mut lent = Lent::default();
    for pat in patterns(model) {
        let ctx = format!("{what} ({}) {pat:?}", store.name());

        let cursor: Vec<IdTriple> = store.iter_matching(pat).collect();
        assert_eq!(store.iter_matching(pat).collect::<Vec<_>>(), cursor, "{ctx}: repeatable");
        let mut visited = Vec::new();
        store.for_each_matching(pat, &mut |t| visited.push(t));
        assert_eq!(visited, cursor, "{ctx}: for_each vs iter");
        assert_eq!(store.matching(pat), cursor, "{ctx}: matching vs iter");

        // Equal to a duplicate-free list once sorted: each match once.
        let mut got = cursor.clone();
        got.sort();
        let want: Vec<IdTriple> = model.iter().copied().filter(|&t| pat.matches(t)).collect();
        assert_eq!(got, want, "{ctx}: match set vs model");

        if let Order::Routed = order {
            let caps = store.capabilities();
            let kind = route(pat, caps).kind;
            assert!(
                cursor.windows(2).all(|w| project(kind, w[0]) < project(kind, w[1])),
                "{ctx}: {kind:?} key order, got {cursor:?}"
            );
            if caps == IndexSet::all() {
                assert!(cursor.windows(2).all(|w| w[0] < w[1]), "{ctx}: (s, p, o) order");
            }
        }

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
            match lists.list(pat) {
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
                    let items = list.to_vec();
                    assert_eq!(items, projected, "{ctx}: list vs cursor projection");
                    assert!(items.windows(2).all(|w| w[0] < w[1]), "{ctx}: ascending");
                    assert_eq!(list.len(), items.len(), "{ctx}: len");
                    match lists.sorted_list(pat) {
                        Some(run) => {
                            assert_eq!(run, items, "{ctx}: sorted_list vs list");
                            match run.len() {
                                0 => lent.absent += 1,
                                1 => lent.singletons += 1,
                                _ => lent.runs += 1,
                            }
                        }
                        None => assert!(
                            list.len() == 1 && !lends_every_list(store),
                            "{ctx}: sorted_list lends every run"
                        ),
                    }
                }
                None => assert!(
                    pat.bound_count() != 2 || !store.capabilities().serves(pat.shape()),
                    "{ctx}: a served two-bound shape must hand out its list"
                ),
            }
            if lists.list(pat).is_none() {
                assert_eq!(lists.sorted_list(pat), None, "{ctx}: sorted_list without list");
            }
        }

        if let (Some(s), Some(p), Some(o)) = (pat.s, pat.p, pat.o) {
            let t = IdTriple::new(s, p, o);
            assert_eq!(store.contains(t), model.binary_search(&t).is_ok(), "{ctx}: contains");
        }
    }
    lent
}

/// The model's divisions in one ordering: each `k1` in ascending order
/// with its `(k2, list)` groups, ascending in `k2`.
type Divisions = Vec<(Id, Vec<(Id, Vec<Id>)>)>;

fn divisions_of(kind: IndexKind, model: &[IdTriple]) -> Divisions {
    let mut rows: Vec<(Id, Id, Id)> = model.iter().map(|&t| project(kind, t)).collect();
    rows.sort();
    let mut divisions: Divisions = Vec::new();
    for (k1, k2, item) in rows {
        if divisions.last().is_none_or(|(last, _)| *last != k1) {
            divisions.push((k1, Vec::new()));
        }
        let groups = &mut divisions.last_mut().expect("just pushed").1;
        if groups.last().is_none_or(|(last, _)| *last != k2) {
            groups.push((k2, Vec::new()));
        }
        groups.last_mut().expect("just pushed").1.push(item);
    }
    divisions
}

/// The ordering read of every kept kind against the model (module docs).
fn check_orderings<S: OrderedStore>(store: &S, model: &[IdTriple], what: &str) {
    let absent = Id(77);
    for kind in store.kept().iter() {
        let ctx = format!("{what} ({}) {kind:?}", store.name());
        let ord = store.ordering(kind);
        let want = divisions_of(kind, model);
        let keys: Vec<Id> = want.iter().map(|&(k1, _)| k1).collect();
        assert_eq!(ord.keys(), keys, "{ctx}: keys");

        let mut concatenated = Vec::new();
        for (k1, groups) in &want {
            let division: Vec<(Id, List<'_>)> = ord.division(*k1).collect();
            assert!(division.windows(2).all(|w| w[0].0 < w[1].0), "{ctx}: {k1:?} k2 order");
            for &(k2, list) in &division {
                let ascending = list.to_vec().windows(2).all(|w| w[0] < w[1]);
                assert!(ascending, "{ctx}: ({k1:?}, {k2:?}) ascending");
                assert_eq!(ord.list(*k1, k2), list, "{ctx}: list vs division");
                concatenated.push((*k1, k2, list));
            }
            let got: Vec<(Id, Vec<Id>)> =
                division.iter().map(|&(k2, l)| (k2, l.to_vec())).collect();
            assert_eq!(&got, groups, "{ctx}: division({k1:?})");
            assert!(ord.list(*k1, absent).is_empty(), "{ctx}: absent k2 under {k1:?}");
        }
        assert_eq!(ord.division(absent).count(), 0, "{ctx}: absent k1");
        assert!(ord.list(absent, absent).is_empty(), "{ctx}: absent pair");

        let scan: Vec<(Id, Id, List<'_>)> = ord.scan().collect();
        assert_eq!(scan, concatenated, "{ctx}: scan vs divisions");
        let items: usize = scan.iter().map(|(_, _, list)| list.len()).sum();
        assert_eq!(items, store.len(), "{ctx}: scan items vs len");

        let lists = ord.arena.slots.len() as u32;
        for past in [lists, lists + 1, u32::MAX] {
            assert!(ord.arena.get(past).is_empty(), "{ctx}: list {past} past the slot column");
        }
        check_references(ord.index, &ctx);
        check_offsets(ord, &ctx);
    }
}

/// Every cumulative offsets column an ordering reads — its offsets, its
/// arena's run ends, and the bit offsets of each Elias–Fano key column
/// among its vector keys, references and run ids — decodes to the same
/// values whichever encoding it uses: in order, value by value, pair by
/// pair, and as the packed column of those values. And it is their
/// canonical column, packed or one Elias–Fano window as their size
/// chooses.
fn check_offsets(ord: SlabOrdering<'_>, ctx: &str) {
    fn bit_offsets(keys: KeysView<'_>) -> Option<OffsetsView<'_>> {
        match keys {
            KeysView::EliasFano(ef) => Some(ef.offs),
            KeysView::Packed(_) => None,
        }
    }
    let mut columns = vec![("offsets", ord.index.offs), ("run ends", ord.arena.ends)];
    columns.extend(bit_offsets(ord.index.k2).map(|offs| ("vector-key bit offsets", offs)));
    let refs = ord.index.lists.and_then(bit_offsets);
    columns.extend(refs.map(|offs| ("reference bit offsets", offs)));
    columns.extend(bit_offsets(ord.arena.keys.view()).map(|offs| ("run-id bit offsets", offs)));
    for (what, offs) in columns {
        let values: Vec<u32> = offs.values().collect();
        assert_eq!(values.len(), offs.len(), "{ctx}: {what}");
        assert!(values.iter().enumerate().all(|(i, &v)| offs.get(i) == v), "{ctx}: {what}");
        for (i, pair) in values.windows(2).enumerate() {
            assert_eq!(offs.pair(i), Some((pair[0], pair[1])), "{ctx}: {what} pair {i}");
        }
        assert_eq!(offs.pair(values.len().saturating_sub(1)), None, "{ctx}: {what}");
        let packed = PackedColumn::from_values(&values);
        assert!(OffsetsView::from(&packed).values().eq(values.iter().copied()), "{ctx}: {what}");
        assert_eq!(OffsetsColumn::from_values(&values).view(), offs, "{ctx}: {what}");
        assert_eq!(offs.check(what), Ok(()), "{ctx}: {what}");
    }
}

/// A mirror's list references — the invariant their encoding rests on:
/// its primary lays its leaves out by the mirror's vector key first, so
/// within each mirror window the references strictly ascend, and the
/// column is the canonical key column of the ordering's windows, packed
/// or Elias–Fano coded as their sizes choose. A primary keeps none.
fn check_references(index: IndexView<'_>, ctx: &str) {
    let Some(refs) = index.lists else { return };
    let offs: Vec<u32> = index.offs.values().collect();
    for (h, w) in offs.windows(2).enumerate() {
        let window: Vec<u32> = refs.iter(h, w[0] as usize..w[1] as usize).collect();
        assert_eq!(window.len(), (w[1] - w[0]) as usize, "{ctx}: window {h}'s references");
        assert!(window.windows(2).all(|p| p[0] < p[1]), "{ctx}: window {h}'s references ascend");
    }
    assert_eq!(KeyColumn::check(refs, index.offs, "references"), Ok(()), "{ctx}");
}

/// Both contracts: the store's reads and its ordering read.
fn check_slab<S: OrderedStore>(store: &S, model: &[IdTriple], what: &str) -> Lent {
    check_orderings(store, model, what);
    check(store, model, Order::Routed, what)
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

/// An overlay heavy in tombstones that nets out to `triples`: its base
/// holds them plus two strays per triple, one sharing its `(s, p)` and one
/// its `(p, o)`, and every stray is removed.
fn tombstoned_of(triples: &[IdTriple]) -> OverlayHexastore {
    let strays: Vec<IdTriple> = (40..)
        .zip(triples)
        .flat_map(|(i, t)| [IdTriple::new(t.s, t.p, Id(i)), IdTriple::new(Id(i), t.p, t.o)])
        .collect();
    let mut overlay = FrozenHexastore::from_triples(triples.iter().chain(&strays).copied()).thaw();
    for &t in &strays {
        assert!(overlay.remove(t));
    }
    assert_eq!(overlay.tombstone_len(), strays.len());
    overlay
}

fn check_family(triples: &[IdTriple]) {
    let model = &model_of(triples);
    // The sample holds runs, singletons and absent pairs in every ordering.
    let every_kind = |lent: Lent, store: &dyn TripleStore, what: &str| {
        if !triples.is_empty() {
            lent.assert_every_kind(store, what);
        }
    };
    let built = FrozenHexastore::from_triples(triples.iter().copied());
    every_kind(check_slab(&built, model, "build_frozen"), &built, "build_frozen");
    // Every triple a pending write over an empty base.
    let mut inserted = OverlayHexastore::default();
    for &t in triples.iter().rev() {
        inserted.insert(t);
    }
    assert_eq!(inserted.delta_len(), model.len());
    check(&inserted, model, Order::Routed, "all delta");
    check_slab(&inserted.freeze(), model, "freeze()");
    check(&overlay_of(triples), model, Order::Routed, "overlay");
    check(&tombstoned_of(triples), model, Order::Routed, "tombstone-heavy overlay");
    // The batch reversed and duplicated, so the partial build's own
    // sort-dedup does the work the sample's order would spare it.
    let shuffled: Vec<IdTriple> = triples.iter().rev().chain(triples).copied().collect();
    for keep in subsets() {
        let partial = PartialHexastore::from_triples(keep, triples.iter().copied());
        let what = format!("partial {keep:?}");
        every_kind(check_slab(&partial, model, &what), &partial, &what);
        let partial = PartialHexastore::from_triples(keep, shuffled.iter().copied());
        check_slab(&partial, model, &format!("partial {keep:?}, reversed + duplicated"));
    }
}

/// Checks the baselines, returning what COVP1 and COVP2 lent.
fn check_baselines(triples: &[IdTriple]) -> [Lent; 2] {
    let model = &model_of(triples);
    let rows = || triples.iter().copied();
    check(&TriplesTable::from_triples(rows()), model, Order::Repeatable, "table");
    let (covp1, covp2) = (Covp1::from_triples(rows()), Covp2::from_triples(rows()));
    [check_slab(&covp1, model, "covp1"), check_slab(&covp2, model, "covp2")]
}

#[test]
fn every_in_memory_variant_obeys_the_read_contract() {
    check_family(&sample());
}

#[test]
fn empty_stores_obey_the_read_contract() {
    check_family(&[]);
    check_baselines(&[]);
}

#[test]
fn the_baselines_obey_the_read_contract() {
    let [covp1, covp2] = check_baselines(&sample());
    covp1.assert_every_kind(&Covp1::from_triples(sample()), "covp1");
    covp2.assert_every_kind(&Covp2::from_triples(sample()), "covp2");
}

/// The contract holds after every step of a write sequence that takes the
/// overlay through each layer transition — delta insert, tombstone,
/// resurrection, delta remove, no-op writes — and a compaction in the
/// middle; `insert`/`remove` report set semantics along the way.
#[test]
fn an_overlay_under_mutation_obeys_the_read_contract() {
    enum Step {
        Insert(IdTriple),
        Remove(IdTriple),
        Compact,
    }
    use Step::*;

    let triples = sample();
    let (base, rest) = triples.split_at(triples.len() / 2);
    let mut overlay = OverlayHexastore::new(FrozenHexastore::from_triples(base.iter().copied()));
    let mut model: std::collections::BTreeSet<IdTriple> = base.iter().copied().collect();
    check(&overlay, &model_of(base), Order::Routed, "overlay, clean");

    let fresh = IdTriple::from((1, 6, 9));
    let steps = [
        Insert(rest[0]),
        Remove(base[0]), // tombstone
        Remove(base[0]), // already masked: no-op
        Insert(base[1]), // already in the base: no-op
        Insert(fresh),   // lands between two base triples
        Insert(base[0]), // resurrection
        Remove(rest[0]), // delta remove
        Remove(base[2]),
        Insert(rest[1]),
        Compact, // with a tombstone and two delta triples pending
        Remove(fresh),
        Remove(rest[1]),
        Insert(base[2]),
        Remove(base[3]),
        Insert(rest[2]),
    ];
    for (i, step) in steps.into_iter().enumerate() {
        match step {
            Insert(t) => assert_eq!(overlay.insert(t), model.insert(t), "step {i}: {t:?}"),
            Remove(t) => assert_eq!(overlay.remove(t), model.remove(&t), "step {i}: {t:?}"),
            Compact => {
                assert!(overlay.delta_len() > 0 && overlay.tombstone_len() > 0);
                overlay.compact();
                assert!(!overlay.is_dirty());
            }
        }
        let rows: Vec<IdTriple> = model.iter().copied().collect();
        check(&overlay, &rows, Order::Routed, &format!("overlay, step {i}"));
    }
    assert!(overlay.delta_len() > 0 && overlay.tombstone_len() > 0, "ends with every layer live");
}

#[cfg(feature = "disk")]
#[test]
fn the_mapped_store_obeys_the_read_contract() {
    for (tag, triples) in [("full", sample()), ("empty", Vec::new())] {
        let frozen = FrozenHexastore::from_triples(triples.iter().copied());
        check_through_a_snapshot(&frozen, &model_of(&triples), tag);
    }
}

/// Saves `frozen` as a current-version snapshot and checks the contract on
/// what the eager reader and (feature `disk`) the mapping make of it.
fn check_through_a_snapshot(frozen: &FrozenHexastore, model: &[IdTriple], tag: &str) {
    use hexastore::hexsnap::{Reader, Writer};
    let mut w = Writer::new(std::io::Cursor::new(Vec::new())).unwrap();
    // Id-level check: an empty dictionary section is enough to map.
    w.dictionary(&hex_dict::Dictionary::new()).unwrap();
    w.frozen(frozen).unwrap();
    let bytes = w.finish().unwrap().into_inner();
    let loaded = Reader::new(std::io::Cursor::new(&bytes)).unwrap().frozen().unwrap();
    assert_eq!(&loaded, frozen, "{tag}: the slabs read back");
    check_slab(&loaded, model, "hexsnap read");
    #[cfg(feature = "disk")]
    {
        let path = std::env::temp_dir()
            .join(format!("read-path-contract-{tag}-{}.hexsnap", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = hex_disk::open_store(&path).unwrap();
        let lent = check_slab(&mapped, model, "mmap");
        if tag == "full" {
            lent.assert_every_kind(&mapped, "mmap");
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The worst case for a slot arena: every `(s, p)`, `(s, o)` and `(p, o)`
/// pair holds two items, so no list fits its slot.
#[test]
fn a_store_of_only_longer_lists_obeys_the_read_contract() {
    let triples: Vec<IdTriple> =
        (0..8u32).map(|i| IdTriple::from((i & 1, 10 + (i >> 1 & 1), 20 + (i >> 2)))).collect();
    let model = &model_of(&triples);
    let frozen = FrozenHexastore::from_triples(triples.iter().copied());
    // Per arena four runs of two: eight ids of at most 5 bits (ids up to
    // 21) and five run ends of 3 bits, each column one 64-bit word and the
    // zero word after it.
    let heap = frozen.heap_breakdown();
    assert_eq!((heap.run_keys, heap.run_ends), (3 * 16, 3 * 16), "twelve lists of two");
    check_slab(&frozen, model, "all-long");
    check(&frozen.clone().thaw(), model, Order::Routed, "all-long thawed");
    check_through_a_snapshot(&frozen, model, "all-long");
}

/// Two stores whose data picks the other encoding of their run ids: one
/// where 80 consecutive subjects share a `(p, o)` pair beside the sample,
/// a dense run of 11-bit ids that makes the subject lists' run ids
/// Elias–Fano coded, and the sample alone, whose three arenas stay packed.
/// Both obey the read contract, built, read back and mapped.
#[test]
fn stores_of_either_run_encoding_obey_the_read_contract() {
    let dense: Vec<IdTriple> =
        (1000..1080u32).map(|s| IdTriple::from((s, 60, 61))).chain(sample()).collect();
    for (triples, coded) in [(dense, true), (sample(), false)] {
        let model = &model_of(&triples);
        let frozen = FrozenHexastore::from_triples(triples.iter().copied());
        let arenas = frozen.heap_breakdown().elias_fano_arenas;
        assert_eq!(arenas.contains(IndexKind::Pos), coded, "{arenas:?}");
        assert!(!arenas.contains(IndexKind::Spo) && !arenas.contains(IndexKind::Sop));
        let tag = if coded { "coded" } else { "packed" };
        check_slab(&frozen, model, tag);
        check_through_a_snapshot(&frozen, model, tag);
    }
}

/// Stores whose data picks either encoding of their offsets columns: 64
/// subjects each with up to eight properties over 32 objects, where four
/// orderings' offsets, osp's vector-key bit offsets and the subject
/// lists' run ends are each one Elias–Fano window, and the sample, which
/// keeps every one packed. Both obey the read contract — every offsets
/// column decoding alike however it is read ([`check_offsets`]) — built,
/// frozen from writes, read back and mapped.
#[test]
fn stores_of_either_offsets_encoding_obey_the_read_contract() {
    let grid: Vec<IdTriple> = (0..64u32)
        .flat_map(|i| (0..8u32).filter(move |j| (i + j) % 3 != 0).map(move |j| (i, j)))
        .map(|(i, j)| IdTriple::from((100 + i, 10 + j, 200 + (i * 7 + j * 13) % 32)))
        .collect();
    let coded = [IndexKind::Spo, IndexKind::Sop, IndexKind::Osp, IndexKind::Ops];
    let coded = coded.into_iter().fold(IndexSet::EMPTY, IndexSet::with);
    for (triples, offsets) in [(grid, coded), (sample(), IndexSet::EMPTY)] {
        let model = &model_of(&triples);
        let frozen = FrozenHexastore::from_triples(triples.iter().copied());
        let heap = frozen.heap_breakdown();
        assert_eq!(heap.elias_fano_offsets, offsets);
        assert_eq!(heap.elias_fano_run_ends.is_empty(), offsets.is_empty());
        let mut written = OverlayHexastore::default();
        triples.iter().for_each(|&t| assert!(written.insert(t)));
        assert_eq!(written.freeze(), frozen);
        let tag = if offsets.is_empty() { "packed offsets" } else { "coded offsets" };
        check_slab(&frozen, model, tag);
        check_through_a_snapshot(&frozen, model, tag);
    }
}

/// Stores whose data picks either encoding of each mirror's references:
/// 128 subjects of one property, each with one of four objects, where pso
/// and osp reference long runs of lists and code them as Elias–Fano
/// windows, and the sample, whose mirrors keep them packed. Both obey the
/// read contract, built, frozen from writes, read back and mapped.
#[test]
fn stores_of_either_reference_encoding_obey_the_read_contract() {
    let runs: Vec<IdTriple> =
        (1000..1128u32).map(|s| IdTriple::from((s, 200, 300 + s % 4))).collect();
    let coded = IndexSet::EMPTY.with(IndexKind::Pso).with(IndexKind::Osp);
    for (triples, refs) in [(runs, coded), (sample(), IndexSet::EMPTY)] {
        let model = &model_of(&triples);
        let frozen = FrozenHexastore::from_triples(triples.iter().copied());
        assert_eq!(frozen.heap_breakdown().elias_fano_refs, refs);
        let mut written = OverlayHexastore::default();
        triples.iter().for_each(|&t| assert!(written.insert(t)));
        assert_eq!(written.freeze(), frozen);
        let tag = if refs.is_empty() { "packed references" } else { "coded references" };
        check_slab(&frozen, model, tag);
        check_through_a_snapshot(&frozen, model, tag);
    }
}

mod list_length_mixes {
    use super::*;
    use proptest::prelude::*;

    /// Ids from a small universe so that pairs repeat, a third of them at
    /// or above 2^31: as a list's only id, such a one cannot be told from a
    /// tagged slot.
    fn arb_id() -> impl Strategy<Value = Id> {
        (0u32..6).prop_map(|v| Id(if v % 3 == 0 { 1 << 31 | v } else { v }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Whatever mix of singleton and longer lists the triples make,
        /// every way to reach the slot arenas — direct bulk build on any
        /// number of threads, freeze of written triples, thaw, a saved
        /// snapshot read eagerly or mapped, a partial store of any kept
        /// subset — answers all eight shapes like the model, and the
        /// baselines answer them with the same sets.
        #[test]
        fn every_list_length_mix_obeys_the_read_contract(
            picks in proptest::collection::vec((arb_id(), arb_id(), arb_id()), 0..24),
            threads in 1usize..5,
            subset_bits in 1u8..64,
        ) {
            let triples: Vec<IdTriple> =
                picks.into_iter().map(|(s, p, o)| IdTriple::new(s, p, o)).collect();
            let model = &model_of(&triples);
            let mut written = OverlayHexastore::default();
            for &t in &triples {
                written.insert(t);
            }
            check(&written, model, Order::Routed, "written");
            let frozen = written.freeze();
            prop_assert_eq!(&frozen, &FrozenHexastore::from_triples(triples.iter().copied()));
            let threaded = bulk::build_frozen_with(triples.clone(), bulk::Config { threads });
            prop_assert_eq!(&threaded, &frozen);
            check_slab(&frozen, model, "freeze()");
            let keep = subsets().nth(usize::from(subset_bits) - 1).expect("63 subsets");
            let partial = PartialHexastore::from_triples(keep, triples.iter().copied());
            prop_assert_eq!(partial.capabilities(), keep);
            check_slab(&partial, model, &format!("partial {keep:?}"));
            let thawed = frozen.clone().thaw();
            prop_assert_eq!(thawed.freeze(), frozen.clone());
            check(&thawed, model, Order::Routed, "thaw()");
            check_through_a_snapshot(&frozen, model, "mix");
            check_baselines(&triples);
        }
    }
}
