//! Property-based tests of the Hexastore invariants.
//!
//! The reference model is a `BTreeSet<IdTriple>`: after any interleaving of
//! inserts and removes through the write path, the store must report exactly the model's
//! triples through *every* access path, and its space accounting must
//! respect the paper's worst-case five-fold bound.

use std::collections::BTreeSet;

use hex_dict::{Id, IdTriple};
use hexastore::access::{List, OrderedStore};
use hexastore::packed::{bytes_for, PackedColumn};
use hexastore::succinct::{KeyColumn, KeysRef, OffsetsColumn};
use hexastore::{bulk, sorted, FlatArena, IdPattern, IndexKind, OverlayHexastore, TripleStore};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Insert(IdTriple),
    Remove(IdTriple),
}

/// Small id universe so inserts/removes collide often.
fn arb_triple() -> impl Strategy<Value = IdTriple> {
    (0u32..12, 0u32..6, 0u32..12).prop_map(IdTriple::from)
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => arb_triple().prop_map(Op::Insert),
            1 => arb_triple().prop_map(Op::Remove),
        ],
        0..120,
    )
}

fn apply(ops: &[Op]) -> (OverlayHexastore, BTreeSet<IdTriple>) {
    let mut h = OverlayHexastore::default();
    let mut model = BTreeSet::new();
    for op in ops {
        match *op {
            Op::Insert(t) => {
                assert_eq!(h.insert(t), model.insert(t), "insert disagreement on {t:?}");
            }
            Op::Remove(t) => {
                assert_eq!(h.remove(t), model.remove(&t), "remove disagreement on {t:?}");
            }
        }
    }
    (h, model)
}

proptest! {
    #[test]
    fn store_matches_model_after_updates(ops in arb_ops()) {
        let (h, model) = apply(&ops);
        prop_assert_eq!(h.len(), model.len());
        let mut all = h.matching(IdPattern::ALL);
        all.sort();
        let expected: Vec<IdTriple> = model.iter().copied().collect();
        prop_assert_eq!(all, expected);
    }

    #[test]
    fn every_access_path_agrees_with_model(ops in arb_ops()) {
        let (h, model) = apply(&ops);
        for s in 0..12u32 {
            for p in 0..6u32 {
                for o in 0..12u32 {
                    let t = IdTriple::from((s, p, o));
                    prop_assert_eq!(h.contains(t), model.contains(&t));
                }
            }
        }
        // Spot-check the six vector accessors against the model.
        for s in 0..12u32 {
            let expected: Vec<IdTriple> =
                model.iter().copied().filter(|t| t.s == Id(s)).collect();
            let mut got = h.matching(IdPattern::s(Id(s)));
            got.sort();
            prop_assert_eq!(got, expected);
        }
        for o in 0..12u32 {
            let mut expected: Vec<IdTriple> =
                model.iter().copied().filter(|t| t.o == Id(o)).collect();
            expected.sort();
            let mut got = h.matching(IdPattern::o(Id(o)));
            got.sort();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn counts_agree_with_enumeration(ops in arb_ops()) {
        let (h, _) = apply(&ops);
        for pat in [
            IdPattern::ALL,
            IdPattern::s(Id(3)),
            IdPattern::p(Id(2)),
            IdPattern::o(Id(5)),
            IdPattern::sp(Id(1), Id(1)),
            IdPattern::so(Id(2), Id(2)),
            IdPattern::po(Id(0), Id(7)),
        ] {
            prop_assert_eq!(h.count_matching(pat), h.matching(pat).len());
        }
    }

    #[test]
    fn space_bound_is_at_most_five_fold(triples in proptest::collection::vec(arb_triple(), 1..200)) {
        let mut h = OverlayHexastore::default();
        for &t in &triples {
            h.insert(t);
        }
        let stats = h.freeze().space_stats();
        prop_assert!(stats.total_entries() <= 5 * stats.triples_table_entries(),
            "blowup {} exceeds paper bound", stats.blowup());
    }

    #[test]
    fn bulk_load_equals_incremental(triples in proptest::collection::vec(arb_triple(), 0..200)) {
        let bulk_store = bulk::build(triples.clone());
        let mut inc = OverlayHexastore::default();
        for &t in &triples {
            inc.insert(t);
        }
        prop_assert_eq!(bulk_store.len(), inc.len());
        prop_assert_eq!(bulk_store.matching(IdPattern::ALL), inc.matching(IdPattern::ALL));
        prop_assert_eq!(bulk_store.freeze().space_stats(), inc.freeze().space_stats());
    }

    /// The parallel loader is an optimization, never a semantic change:
    /// any thread count must produce a store that answers all eight access
    /// patterns exactly like insert-order construction.
    #[test]
    fn parallel_bulk_load_equals_incremental(
        triples in proptest::collection::vec(arb_triple(), 0..200),
        threads in 1usize..9,
    ) {
        let bulk_store = bulk::build_frozen_with(triples.clone(), bulk::Config { threads }).thaw();
        let mut inc = OverlayHexastore::default();
        for &t in &triples {
            inc.insert(t);
        }
        prop_assert_eq!(bulk_store.len(), inc.len());
        prop_assert_eq!(bulk_store.freeze().space_stats(), inc.freeze().space_stats());
        // All eight shapes: (s?, p?, o?) fully enumerated over the small
        // id universe would be slow; probe every stored triple instead.
        for &t in &triples {
            for pat in [
                IdPattern::ALL,
                IdPattern::s(t.s),
                IdPattern::p(t.p),
                IdPattern::o(t.o),
                IdPattern::sp(t.s, t.p),
                IdPattern::so(t.s, t.o),
                IdPattern::po(t.p, t.o),
                IdPattern::spo(t),
            ] {
                prop_assert_eq!(
                    bulk_store.matching(pat),
                    inc.matching(pat),
                    "threads={} pattern {:?}", threads, pat
                );
                prop_assert_eq!(bulk_store.count_matching(pat), inc.count_matching(pat));
            }
        }
    }

    /// A store built by inserts and removes holds every triple as a
    /// pending write. Its freeze, a compaction, must be the bulk loader's
    /// slabs, and their thaw the bulk-built writable store.
    #[test]
    fn freeze_after_churn_equals_a_bulk_build(ops in arb_ops()) {
        let (h, model) = apply(&ops);
        let triples: Vec<IdTriple> = model.iter().copied().collect();
        let frozen = h.freeze();
        let built = bulk::build_frozen(triples.clone());
        prop_assert_eq!(&frozen, &built);
        prop_assert_eq!(frozen.heap_bytes(), built.heap_bytes());
        let thawed = frozen.thaw();
        prop_assert_eq!(thawed.heap_bytes(), bulk::build(triples.clone()).heap_bytes());
        prop_assert_eq!(thawed.freeze().space_stats(), built.space_stats());
        let mut pats = vec![IdPattern::ALL];
        for &t in &triples {
            pats.extend([
                IdPattern::s(t.s),
                IdPattern::p(t.p),
                IdPattern::o(t.o),
                IdPattern::sp(t.s, t.p),
                IdPattern::so(t.s, t.o),
                IdPattern::po(t.p, t.o),
                IdPattern::spo(t),
            ]);
        }
        for pat in pats {
            prop_assert_eq!(thawed.matching(pat), h.matching(pat), "{:?}", pat);
        }
    }

    #[test]
    fn terminal_lists_stay_sorted_sets(ops in arb_ops()) {
        let h = apply(&ops).0.freeze();
        for kind in IndexKind::ALL {
            for (_, _, list) in h.ordering(kind).scan() {
                prop_assert!(sorted::is_sorted_set(&list.to_vec()));
            }
        }
    }

    #[test]
    fn merge_primitives_match_std_sets(
        a in proptest::collection::btree_set(0u32..64, 0..40),
        b in proptest::collection::btree_set(0u32..64, 0..40),
    ) {
        let av: Vec<u32> = a.iter().copied().collect();
        let bv: Vec<u32> = b.iter().copied().collect();
        let inter: Vec<u32> = a.intersection(&b).copied().collect();
        let uni: Vec<u32> = a.union(&b).copied().collect();
        let diff: Vec<u32> = a.difference(&b).copied().collect();
        prop_assert_eq!(sorted::intersect(&av, &bv), inter);
        prop_assert_eq!(sorted::union(&av, &bv), uni);
        prop_assert_eq!(sorted::difference(&av, &bv), diff);
        prop_assert_eq!(sorted::union_many(vec![&av, &bv]), sorted::union(&av, &bv));
        let ids = |xs: &[u32]| xs.iter().copied().map(Id).collect::<Vec<_>>();
        let (ai, bi) = (ids(&av), ids(&bv));
        let lists = vec![List::from(&ai[..]), List::from(&bi[..])];
        prop_assert_eq!(sorted::intersect_many(lists), ids(&sorted::intersect(&av, &bv)));
    }
}

proptest! {
    /// `intersect_many` over every kind of list a read hands out — a
    /// singleton held by value, a window of a packed overflow column, a
    /// borrowed slice — answers like the slice intersection, whatever the
    /// mix of sizes (the large sets make the galloping seek run).
    #[test]
    fn intersect_many_over_every_kind_of_list_matches_the_slice_intersection(
        sets in proptest::collection::vec(
            (proptest::collection::btree_set(0u32..3000, 1..40), 1u32..4, 0u32..3),
            1..6,
        ),
    ) {
        let sets: Vec<Vec<Id>> = sets
            .into_iter()
            .map(|(set, stride, big)| {
                // One set in three is a long strided run, to skew sizes.
                let set: Vec<u32> = if big == 0 {
                    (0..1500 / stride).map(|i| i * stride).collect()
                } else {
                    set.into_iter().collect()
                };
                set.into_iter().map(Id).collect()
            })
            .collect();
        let arena = FlatArena::from_lists(&sets);
        let idx: Vec<u32> = (0..sets.len() as u32).collect();
        let expected = sets[1..].iter().fold(sets[0].clone(), |acc, set| sorted::intersect(&acc, set));
        // Every list from the arena, then every other one a slice.
        let lists = |slice_every: usize| -> Vec<List<'_>> {
            sets.iter()
                .zip(&idx)
                .enumerate()
                .map(|(i, (set, &l))| {
                    if slice_every > 0 && i % slice_every == 0 { List::from(&set[..]) } else { arena.get(l) }
                })
                .collect()
        };
        for slice_every in [0, 2, 1] {
            prop_assert_eq!(sorted::intersect_many(lists(slice_every)), expected.clone());
        }
        prop_assert!(sets.iter().zip(&idx).all(|(set, &l)| arena.get(l) == set.as_slice()));
    }
}

/// An id from a small universe, one in four of them at or above 2^31 —
/// where a singleton list would widen its slot past 32 bits and must be a
/// run.
fn arb_list_id() -> impl Strategy<Value = Id> {
    (0u32..24, 0u32..4).prop_map(|(v, high)| Id(if high == 0 { HIGH | v } else { v }))
}

/// The smallest id a singleton cannot keep in its slot.
const HIGH: u32 = 1 << 31;

/// The largest id a singleton keeps in its slot.
const MAX_IN_SLOT: u32 = HIGH - 1;

/// Every way to read and rebuild `arena` agrees with `lists`, the lists
/// it was built from.
fn check_arena(arena: &FlatArena, lists: &[Vec<Id>]) {
    prop_assert_eq!(arena.list_count(), lists.len());
    let items = lists.iter().map(Vec::len).sum::<usize>();
    prop_assert_eq!(arena.total_items(), items);
    for (i, list) in lists.iter().enumerate() {
        prop_assert_eq!(arena.get(i as u32), list.as_slice());
    }
    for past in [lists.len() as u32, u32::MAX] {
        prop_assert!(arena.get(past).is_empty());
    }
    prop_assert_eq!(arena.lists().map(|l| l.to_vec()).collect::<Vec<_>>(), lists);
    let columns = arena.view();
    prop_assert_eq!(columns.validate(), Ok(items));
    let (slots, ends, keys) = (columns.slots, columns.ends, columns.keys);
    let keys = match keys {
        KeysRef::Packed(keys) => KeyColumn::Packed(PackedColumn::from_view(keys)),
        KeysRef::EliasFano(coded) => KeyColumn::EliasFano(coded.clone()),
    };
    let (key_bytes, key_count) = (keys.heap_bytes(), keys.len());
    let ends_column = OffsetsColumn::from_values(&ends.values().collect::<Vec<_>>());
    let ends_bytes = ends_column.heap_bytes();
    let rebuilt = FlatArena::from_columns(PackedColumn::from_view(slots), ends_column, keys);
    prop_assert_eq!(rebuilt.as_ref(), Ok(arena));
    // The slots — a singleton's id, or a run's index under the flag — the
    // cumulative run ends, and every run's ids, run after run.
    let runs: Vec<&Vec<Id>> = lists.iter().filter(|l| l.len() > 1 || l[0].0 >= HIGH).collect();
    let flag = 1 << slots.width().saturating_sub(1);
    let mut run = 0;
    for (list, slot) in lists.iter().zip(slots.values()) {
        if list.len() > 1 || list[0].0 >= HIGH {
            prop_assert_eq!(slot, flag | run);
            run += 1;
        } else {
            prop_assert_eq!(slot, list[0].0);
        }
    }
    let mut end = 0;
    let expected_ends: Vec<u32> = std::iter::once(0)
        .chain(runs.iter().map(|r| {
            end += r.len() as u32;
            end
        }))
        .collect();
    prop_assert_eq!(ends.values().collect::<Vec<_>>(), expected_ends);
    let ids: Vec<Id> = runs.iter().flat_map(|r| r.iter().copied()).collect();
    prop_assert_eq!(key_count, ids.len());
    prop_assert_eq!(
        rebuilt.unwrap().heap_bytes(),
        bytes_for(slots.len(), slots.width()).unwrap() + ends_bytes + key_bytes
    );
}

proptest! {
    /// Any mix of list lengths — all singletons, all longer lists, high
    /// ids — reads back from a slot arena exactly as built, passes its own
    /// validation, and is rebuilt equal from its columns.
    #[test]
    fn flat_arena_roundtrips_any_mix_of_list_lengths(
        lists in proptest::collection::vec(
            proptest::collection::btree_set(arb_list_id(), 1..6),
            0..40,
        ),
        all_long_bit in 0u32..4,
    ) {
        // One case in four is the worst case for the layout: no singletons.
        let lists: Vec<Vec<Id>> = lists
            .into_iter()
            .map(|set| set.into_iter().collect::<Vec<Id>>())
            .filter(|list| all_long_bit != 0 || list.len() > 1)
            .collect();
        check_arena(&FlatArena::from_lists(&lists), &lists);
    }

    /// At every slot width from 1 to 32 bits: a singleton exactly at the
    /// flag boundary (the largest id a slot of that width holds) sets the
    /// width, and beside it random singletons below it, singletons whose
    /// id makes them runs and lists of two to five ids — as many runs as
    /// the width leaves room for their indexes. The arena, counted first,
    /// is the `Vec<Vec<Id>>` it was built from.
    #[test]
    fn flat_arena_matches_a_vec_of_lists_at_every_slot_width(
        width in 1u32..33,
        draws in proptest::collection::vec((0u32..4, 0u64..u64::MAX), 0..40),
    ) {
        let boundary = (1u64 << (width - 1)) as u32 - 1;
        let mut lists = vec![vec![Id(boundary)]];
        let mut runs = 0usize;
        for (kind, mut seed) in draws {
            let mut next = move || {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u32
            };
            let list = match kind {
                0 => vec![Id(next() % (boundary + 1))],
                1 => vec![Id(HIGH | next())],
                _ => {
                    let set: BTreeSet<Id> = (0..2 + next() % 4).map(|_| Id(next())).collect();
                    set.into_iter().collect()
                }
            };
            if list.len() > 1 || list[0].0 >= HIGH {
                // Its slot holds its run's index, which must fit too.
                if runs > boundary as usize {
                    continue;
                }
                runs += 1;
            }
            lists.push(list);
        }
        let arena = FlatArena::from_lists(&lists);
        prop_assert_eq!(arena.view().slots.width(), width);
        check_arena(&arena, &lists);
    }

    /// At every key width from 1 to 32 bits: one run's last id exactly
    /// `2^width − 1` sets the width of a packed key column, beside random
    /// singletons and runs of two to five ids below it, and a run last, so
    /// the column ends on a run's last id. The arena is the
    /// `Vec<Vec<Id>>` it was built from, whichever encoding its runs'
    /// sizes choose.
    #[test]
    fn flat_arena_matches_a_vec_of_lists_at_every_key_width(
        width in 1u32..33,
        at in 0usize..40,
        draws in proptest::collection::vec((0u32..3, 0u64..u64::MAX), 0..40),
    ) {
        let top = u32::MAX >> (32 - width);
        let widest = vec![Id(0), Id(top)];
        let mut lists = Vec::new();
        for (kind, mut seed) in draws {
            let mut next = move || {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u32 % top
            };
            let list = match kind {
                0 => vec![Id(next())],
                _ => {
                    let len = 2 + next() % 4;
                    let set: BTreeSet<Id> = (0..len.min(top)).map(|_| Id(next())).collect();
                    set.into_iter().collect()
                }
            };
            lists.push(list);
        }
        lists.insert(at.min(lists.len()), widest);
        lists.push(vec![Id(0), Id(1)]);
        let arena = FlatArena::from_lists(&lists);
        if let KeysRef::Packed(keys) = arena.view().keys {
            prop_assert_eq!(keys.width(), width);
            prop_assert_eq!(keys.get(keys.len() - 1), 1, "the column ends on the last run's last id");
        }
        check_arena(&arena, &lists);
    }
}

/// `list` reads like `model`, the ids it was built from: its length and
/// every id by position, its ends, a search and a seek for each id, its
/// neighbours and `probes`, its iteration (folded and stepped) and its
/// decoded copy.
fn check_list(list: List<'_>, model: &[Id], probes: &[u32]) {
    prop_assert_eq!(list.len(), model.len());
    prop_assert_eq!(list.is_empty(), model.is_empty());
    // Every position of a short list, a sample of a long one.
    let step = (model.len() / 512).max(1);
    for i in (0..model.len()).step_by(step).chain([model.len().saturating_sub(1), model.len()]) {
        prop_assert_eq!(list.get(i), model.get(i).copied(), "get({})", i);
    }
    prop_assert_eq!((list.first(), list.last()), (model.first().copied(), model.last().copied()));
    let near = model
        .iter()
        .step_by(step)
        .flat_map(|id| [id.0.wrapping_sub(1), id.0, id.0.wrapping_add(1)]);
    for x in near.chain(probes.iter().copied()).chain([0, u32::MAX]).map(Id) {
        prop_assert_eq!(list.search(x), model.binary_search(&x), "search({:?})", x);
        prop_assert_eq!(list.contains(x), model.binary_search(&x).is_ok());
        // A seek from any position before the first id at or above `x`.
        let end = model.partition_point(|&v| v < x);
        for from in [0, end / 2, end, end + 1] {
            let want = if from > end { from.min(model.len()) } else { end };
            prop_assert_eq!(list.seek(from, x), want, "seek({}, {:?})", from, x);
        }
    }
    prop_assert_eq!(list.into_iter().len(), model.len());
    prop_assert_eq!(list.to_vec(), model);
    prop_assert!(list.into_iter().eq(model.iter().copied()));
    prop_assert_eq!(
        list.into_iter().fold(0u64, |n, id| n + u64::from(id.0)),
        model.iter().map(|id| u64::from(id.0)).sum::<u64>()
    );
}

#[test]
fn a_list_stays_six_words() {
    // A run is its key column as a list borrows it — a packed view, or a
    // reference to an Elias–Fano column — its run index and its window in
    // `u32`s: 48 bytes on a 64-bit target (56 while a run was a window of
    // a packed overflow column).
    assert!(std::mem::size_of::<List<'_>>() <= 6 * std::mem::size_of::<usize>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every list of an arena reads like the `Vec<Id>` it was built from,
    /// through every `List` read and `ArenaView::lend`, whichever encoding
    /// the data gives the arena's run ids. Both encodings get the edges:
    /// runs of two ids and runs ending at the largest id a slot holds.
    /// A packed column gets them from many wide runs of two, whose
    /// Elias–Fano windows would be larger; an Elias–Fano column from one
    /// dense run of 28,800 ids ending at that id (`u ≤ m`, so `l = 0`) and
    /// a short dense run beside random lists.
    #[test]
    fn list_reads_match_a_vec_model_under_both_run_encodings(
        sets in proptest::collection::vec(proptest::collection::btree_set(0u32..200, 1..6), 0..30),
        spread in 1u32..5000,
        coded in 0u32..2,
        probes in proptest::collection::vec(0u32..u32::MAX, 0..8),
    ) {
        let mut lists: Vec<Vec<Id>> =
            sets.into_iter().map(|set| set.into_iter().map(|v| Id(v * spread)).collect()).collect();
        lists.push(vec![Id(MAX_IN_SLOT - 1), Id(MAX_IN_SLOT)]);
        if coded == 1 {
            lists.insert(lists.len() / 2, (MAX_IN_SLOT - 28_799..=MAX_IN_SLOT).map(Id).collect());
            lists.push((7..40).map(Id).collect());
        } else {
            lists.extend((0..128).map(|i| vec![Id(i), Id(MAX_IN_SLOT - i)]));
        }
        let arena = FlatArena::from_lists(&lists);
        prop_assert_eq!(arena.is_elias_fano(), coded == 1, "the data picks the encoding");
        let view = arena.view();
        for (i, model) in lists.iter().enumerate() {
            check_list(arena.get(i as u32), model, &probes);
            prop_assert_eq!(view.lend(i as u32), Some(model.as_slice()));
        }
        prop_assert_eq!(view.validate(), Ok(lists.iter().map(Vec::len).sum::<usize>()));
    }
}
