//! `heap_bytes()` checked against the allocator.
//!
//! The benchmark's `heap_bytes_per_triple` is the sum of two counters the
//! program keeps about itself, `FrozenHexastore::heap_bytes` and
//! `Dictionary::heap_bytes`. This test binary installs a counting
//! allocator and checks that what dropping each structure gives back is
//! what its counter said — so a buffer one of them forgets to count, or
//! capacity it does not know it holds, fails here. It holds one test, so
//! nothing else allocates while it measures.

mod counting_alloc;

use counting_alloc::{Counting, LIVE};
use hex_datagen::{barton::BartonConfig, lubm::LubmConfig};
use hexastore::{bulk, TripleStore};
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

    // Beyond its columns a frozen store owns one shared block of column
    // headers (nine structs of vectors, under 1 KiB); `heap_bytes` counts
    // the dictionary's struct but not its two reference counts.
    let (store_counted, dict_counted) = (store.heap_bytes(), dict.heap_bytes());
    let store_freed = freed_by_dropping(store);
    let dict_freed = freed_by_dropping(dict);
    assert!(
        (store_counted..=store_counted + 1024).contains(&store_freed),
        "store: counted {store_counted}, freed {store_freed}"
    );
    assert_eq!(dict_freed, dict_counted + 2 * std::mem::size_of::<usize>(), "dictionary");
}
