//! What a plan-cache hit costs, checked against the allocator.
//!
//! A `PlanCache` hit hands out a plan that shares the body its miss
//! prepared: one hash lookup of the text and one reference-count bump,
//! nothing copied. This test binary installs the counting allocator of
//! `tests/parse_memory.rs` and holds a hit to that: no allocation at all,
//! for a one-pattern and a two-pattern query. It holds one test, so
//! nothing else allocates while it measures.

mod counting_alloc;

use counting_alloc::{Counting, REQUESTS};
use hex_query::PlanCache;
use hexastore::GraphStore;
use std::sync::atomic::Ordering;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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
        let before = REQUESTS.load(Ordering::Relaxed);
        for _ in 0..1_000 {
            cache.prepare(&g, text).unwrap();
        }
        let requests = REQUESTS.load(Ordering::Relaxed) - before;
        assert_eq!(requests, 0, "{requests} allocations for 1,000 hits on {text:?}");
    }
    assert_eq!((cache.hits(), cache.misses()), (2_000, 2));
}
