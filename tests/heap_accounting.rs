//! `heap_bytes()` checked against the allocator.
//!
//! The benchmark's `heap_bytes_per_triple` is the sum of two counters the
//! program keeps about itself, `FrozenHexastore::heap_bytes` and
//! `Dictionary::heap_bytes`. This test binary installs a counting
//! allocator and checks that what dropping each structure gives back is
//! what its counter said — so a buffer one of them forgets to count, or
//! capacity it does not know it holds, fails here: for the dictionary as
//! interned, as an eager snapshot load makes it and as a mapped open
//! makes it, and for the store as built, as an eager load makes it — every
//! column an owned, exact-sized copy of the file's bytes, so it counts what
//! the built store counts, part by part — and as a mapped open makes it,
//! whose columns borrow the mapping and hold no heap. It also checks that
//! answering queries builds nothing a store keeps: the engine reads
//! terminal lists in place, and only `SortedListAccess::sorted_list`
//! decodes an arena's `u32` overflow copy, which the counter then counts.
//! It holds one test, so nothing else allocates while it measures.

mod counting_alloc;

use counting_alloc::{Counting, LIVE};
use hex_bench_queries::{barton_queries, lubm_queries};
use hex_datagen::{barton::BartonConfig, lubm::LubmConfig};
use hex_query::DatasetQuery;
use hexastore::access::OrderedStore;
use hexastore::{bulk, Dataset, FrozenHexastore, HeapBreakdown, IdPattern, IndexKind, TripleStore};
use std::sync::atomic::Ordering;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live bytes that dropping `value` gives back.
fn freed_by_dropping<T>(value: T) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    drop(value);
    before - LIVE.load(Ordering::Relaxed)
}

#[test]
fn heap_bytes_is_what_the_allocator_gives_back() {
    // The benchmark's `D50k`: ≈56,000 generated triples.
    let mut triples =
        hex_datagen::barton::generate(&BartonConfig { records: 3_500, ..Default::default() });
    triples.extend(hex_datagen::lubm::generate(&LubmConfig::with_universities(1)));
    assert!(triples.len() > 50_000, "{}", triples.len());

    // The load pipeline's two steps that build what stays in memory.
    let mut dict = hex_dict::Dictionary::new();
    let threads = bulk::Config::default().effective_threads(triples.len());
    let ids = dict.encode_triples_parallel(&triples, threads);
    drop(triples);
    let store = bulk::build_frozen(ids);
    assert!(store.len() > 50_000);
    let built = store.heap_breakdown();

    // A full pass of the twelve paper queries reads terminal lists in
    // place: the store keeps nothing it did not hold before.
    let counted = store.heap_bytes();
    let paper: Vec<_> =
        [barton_queries(&dict), lubm_queries(&dict)].into_iter().flatten().flatten().collect();
    assert_eq!(paper.len(), 12);
    let ds = Dataset::from_parts(dict.clone(), store.clone());
    for q in &paper {
        ds.query(&q.text).expect("a paper query runs");
    }
    drop(ds);
    assert_eq!(store.heap_bytes(), counted, "the paper queries decoded nothing to keep");

    // One `sorted_list` of a run decodes the `u32` copy of its arena's
    // overflow column, and the store counts it from then on.
    let spo = store.ordering(IndexKind::Spo);
    let (s, p, _) = spo.scan().find(|(_, _, list)| list.len() > 1).expect("a longer list");
    let lent = store.sorted_lists().unwrap().sorted_list(IdPattern::sp(s, p)).unwrap();
    assert_eq!(lent, spo.list(s, p).to_vec());
    let copy = 4 * spo.arena.over.len();
    assert_eq!(store.heap_bytes(), counted + copy, "the object lists' overflow, as u32s");

    // The dictionary as a snapshot reload makes it: eagerly, every column
    // owned, and mapped, where its heap is the two reverse indexes and
    // its interior — the packed columns and the arenas stay in the file.
    let path = std::env::temp_dir().join(format!("heap-accounting-{}", std::process::id()));
    hexastore::hexsnap::save_frozen(&path, &dict, &store).unwrap();
    let (eager, eager_store) = hexastore::hexsnap::load_frozen(&path).unwrap();
    let (mapped, mapped_store) = hex_disk::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let heap = mapped.heap_breakdown();
    assert_eq!(heap.total(), heap.interior + heap.term_index + heap.prefix_index, "{heap:?}");
    assert_eq!(eager.heap_breakdown().term_index, dict.heap_breakdown().term_index);

    // Beyond its columns a frozen store owns one shared block of column
    // headers, which is all an empty store's drop gives back; `heap_bytes`
    // counts each of the dictionary's two tiers' structs but not the two
    // reference counts beside each.
    let block = freed_by_dropping(FrozenHexastore::from_triples([]));
    let store_counted = store.heap_bytes();
    let store_freed = freed_by_dropping(store);
    let counts = 2 * std::mem::size_of::<usize>();
    assert_eq!(store_freed, store_counted + block, "store");

    // The eager-loaded store owns every column: each part counts what the
    // built store's does (a column sharing bytes would count none), and
    // dropping it gives back what it counts and its block.
    assert_eq!(eager_store.heap_breakdown(), built, "eager-loaded store");
    let eager_counted = eager_store.heap_bytes();
    assert_eq!(freed_by_dropping(eager_store), eager_counted + block, "eager-loaded store");

    // The mapped store's columns are windows of the mapping: no column
    // holds heap until `sorted_list` decodes an arena's copy, and what
    // dropping it gives back is its shared block — the mapping lives on
    // in the dictionary that shares it.
    let breakdown = mapped_store.heap_breakdown();
    let nothing = HeapBreakdown { elias_fano: breakdown.elias_fano, ..HeapBreakdown::default() };
    assert_eq!(breakdown, nothing, "mapped columns hold no heap");
    assert_eq!(mapped_store.heap_bytes(), 0);
    assert_eq!(freed_by_dropping(mapped_store), block, "mapped store");
    // The mapped dictionary holds the mapping's last reference, so its
    // drop also gives back the mapping's reference-counted block.
    let mapping = counts + std::mem::size_of::<hex_disk::Mmap>();
    for (what, dict, also) in
        [("interned", dict, 0), ("eager-loaded", eager, 0), ("mapped", mapped, mapping)]
    {
        let counted = dict.heap_bytes();
        assert_eq!(freed_by_dropping(dict), counted + 2 * counts + also, "{what} dictionary");
    }
}
