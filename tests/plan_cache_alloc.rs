//! What a plan cache costs, checked against the allocator.
//!
//! A `PlanCache` hit hands out a plan that shares the body its miss
//! prepared: one hash lookup of the text and one reference-count bump,
//! nothing copied. The cache holds at most 65,536 texts, evicting by
//! CLOCK, and an entry holds its text once beside one slim body. This
//! test binary installs the counting allocator of `tests/parse_memory.rs`
//! and holds the cache to that: no allocation at all for a hit, before
//! and after evictions, a bounded footprint per entry, and at most 65,536
//! entries after 70,000 distinct texts. It holds one test, so nothing
//! else allocates while it measures.

mod counting_alloc;

use counting_alloc::{Counting, BLOCKS, LIVE, REQUESTS};
use hex_query::PlanCache;
use hexastore::GraphStore;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// How many texts the cache holds.
const CAPACITY: usize = 65_536;
/// What a full cache may hold per entry, its text included: counted
/// bytes and live allocations, averaged over the entries (394.1 B in
/// 5.75 when the bound was set, for texts of 133.8 B).
const BYTES_PER_ENTRY: usize = 400;
const BLOCKS_PER_ENTRY: f64 = 6.0;

const BARTON: &str = "http://barton.example.org/";
const LUBM: &str = "http://lubm.example.org/";

fn record(k: usize) -> String {
    format!("<{BARTON}record/{k}>")
}

fn student(k: usize) -> String {
    format!("<{LUBM}Department{}.University0/UndergraduateStudent{k}>", k % 15)
}

fn course(k: usize) -> String {
    format!("<{LUBM}Department{}.University0/Course{k}>", k % 15)
}

fn lecturer(k: usize) -> String {
    format!("<{LUBM}Department{}.University0/Lecturer{k}>", k % 15)
}

/// `n` catalog records, each typed and with one long-tail property, and
/// `n` students, each an undergraduate taking its own course, which its
/// own lecturer teaches: the two vocabularies of the benchmark's data.
fn catalog_and_university(n: usize) -> GraphStore {
    let mut doc = String::new();
    for k in 0..n {
        let (r, s, c) = (record(k), student(k), course(k));
        let _ = writeln!(doc, "{r} <{BARTON}prop/Type> <{BARTON}type/Text> .");
        let _ = writeln!(doc, "{r} <{BARTON}prop/tailProp{}> \"v{k}\" .", k % 276);
        let _ = writeln!(doc, "{s} <{LUBM}type> <{LUBM}UndergraduateStudent> .");
        let _ = writeln!(doc, "{s} <{LUBM}takesCourse> {c} .");
        let _ = writeln!(doc, "{} <{LUBM}teacherOf> {c} .", lecturer(k));
    }
    let mut g = GraphStore::new();
    g.load_ntriples(&doc).unwrap();
    g
}

/// The `i`-th of a stream of distinct selective texts over
/// [`catalog_and_university`]'s terms, in the eight shapes, and so at the
/// lengths, of the texts the `lookup` workload sends.
fn selective(i: usize) -> String {
    let k = i / 8;
    let (r, s, c) = (record(k), student(k), course(k));
    let takes = format!("<{LUBM}takesCourse>");
    match i % 8 {
        0 => format!("SELECT ?p ?o WHERE {{ {r} ?p ?o . }}"),
        1 => format!("SELECT ?o WHERE {{ {r} <{BARTON}prop/Type> ?o . }}"),
        2 => format!(
            "SELECT ?s WHERE {{ ?s <{BARTON}prop/tailProp{}> \"v{k}\" . }} LIMIT 10",
            k % 276
        ),
        3 => format!("SELECT ?s ?p WHERE {{ ?s ?p {c} . }}"),
        4 => format!("SELECT ?p WHERE {{ {s} ?p {c} . }}"),
        5 => format!("ASK {{ {s} {takes} {c} . }}"),
        6 => format!(
            "SELECT ?s ?c WHERE {{ {} <{LUBM}teacherOf> ?c . ?s {takes} ?c . }}",
            lecturer(k)
        ),
        _ => format!(
            "SELECT ?s WHERE {{ ?s {takes} {c} . ?s <{LUBM}type> <{LUBM}UndergraduateStudent> . }}"
        ),
    }
}

/// Allocation requests made by `hits` lookups of `text`, each a hit.
fn hit_requests(cache: &mut PlanCache, g: &GraphStore, text: &str, hits: u64) -> usize {
    let before = (REQUESTS.load(Ordering::Relaxed), cache.hits());
    for _ in 0..hits {
        cache.prepare(g, text).unwrap();
    }
    assert_eq!(cache.hits() - before.1, hits, "{text:?} was not cached");
    REQUESTS.load(Ordering::Relaxed) - before.0
}

#[test]
fn a_plan_cache_hit_allocates_nothing() {
    let mut g = GraphStore::new();
    g.load_ntriples(
        "<http://x/ID3> <http://x/advisor> <http://x/ID2> .\n\
         <http://x/ID3> <http://x/type> <http://x/GradStudent> .\n\
         <http://x/ID4> <http://x/advisor> <http://x/ID1> .\n",
    )
    .unwrap();
    let texts = [
        "SELECT ?s WHERE { ?s <http://x/advisor> ?a . }",
        "SELECT ?s ?a WHERE { ?s <http://x/type> <http://x/GradStudent> . \
         ?s <http://x/advisor> ?a . }",
    ];
    let mut cache = PlanCache::new();
    // One miss per text warms the cache.
    for (text, rows) in texts.into_iter().zip([2, 1]) {
        assert_eq!(cache.prepare(&g, text).unwrap().run().len(), rows, "{text}");
    }
    assert_eq!(cache.misses(), 2);
    for text in texts {
        let requests = hit_requests(&mut cache, &g, text, 1_000);
        assert_eq!(requests, 0, "{requests} allocations for 1,000 hits on {text:?}");
    }
    assert_eq!((cache.hits(), cache.misses()), (2_000, 2));

    // A full cache: one entry per text, each text stored once.
    let texts: Vec<String> = (0..70_000).map(selective).collect();
    let g = catalog_and_university(70_000 / 8);
    let mut cache = PlanCache::new();
    let (live, blocks) = (LIVE.load(Ordering::Relaxed), BLOCKS.load(Ordering::Relaxed));
    for text in &texts[..CAPACITY] {
        cache.prepare(&g, text).unwrap();
    }
    assert_eq!(cache.len(), CAPACITY);
    let held = LIVE.load(Ordering::Relaxed) - live;
    let per_entry = held as f64 / CAPACITY as f64;
    let blocks_per_entry = (BLOCKS.load(Ordering::Relaxed) - blocks) as f64 / CAPACITY as f64;
    assert!(per_entry <= BYTES_PER_ENTRY as f64, "{per_entry:.1} B per entry");
    assert!(blocks_per_entry <= BLOCKS_PER_ENTRY, "{blocks_per_entry:.2} allocations per entry");
    let requests = hit_requests(&mut cache, &g, &texts[CAPACITY - 1], 1_000);
    assert_eq!(requests, 0, "{requests} allocations for 1,000 hits on a full cache");

    // 4,464 more distinct texts evict as many: the cache stays at its
    // bound, in bytes as in entries.
    for text in &texts[CAPACITY..] {
        cache.prepare(&g, text).unwrap();
    }
    assert_eq!(cache.len(), CAPACITY);
    let held = LIVE.load(Ordering::Relaxed) - live;
    assert!(held <= CAPACITY * BYTES_PER_ENTRY, "{held} B after 70,000 texts");
    for text in [&texts[CAPACITY - 1], &texts[texts.len() - 1]] {
        let requests = hit_requests(&mut cache, &g, text, 1_000);
        assert_eq!(requests, 0, "{requests} allocations for 1,000 hits after evictions");
    }
    // The first texts were evicted; asking again is a miss.
    let misses = cache.misses();
    cache.prepare(&g, &texts[0]).unwrap();
    assert_eq!(cache.misses(), misses + 1, "an evicted text comes back as a miss");
    assert_eq!(cache.len(), CAPACITY);
}
