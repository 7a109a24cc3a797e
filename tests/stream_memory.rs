//! What a streamed answer holds, checked against the allocator: a
//! `Plan::solutions()` stream decodes each row on its own, so a consumer
//! that drops rows as it goes holds one row at a time however long the
//! scan and however many distinct terms it passes. This test binary
//! installs the counting allocator of `tests/parse_memory.rs` and holds
//! one test, so nothing else allocates while it measures.

mod counting_alloc;

use counting_alloc::{Counting, LIVE};
use hex_query::DatasetQuery;
use hexastore::GraphStore;
use rdf_model::{Term, Triple};
use std::sync::atomic::Ordering;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live bytes a full scan may hold above what was live before it: the
/// plan's cursor and the row in hand, nowhere near one term per row.
const STREAM_BYTES: usize = 16 << 10;

#[test]
fn a_streamed_scan_holds_one_row_at_a_time() {
    let query = "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }";
    for n in [2_000, 20_000] {
        let mut mutable = GraphStore::new();
        for i in 0..n {
            mutable.insert(&Triple::new(
                Term::iri(format!("http://x/s{i}")),
                Term::iri(format!("http://x/p{}", i % 7)),
                Term::lang_literal(format!("value {i}"), "en"),
            ));
        }
        let frozen = mutable.freeze();
        for (store, plan) in
            [("mutable", mutable.prepare(query)), ("frozen", frozen.prepare(query))]
        {
            let plan = plan.unwrap();
            let before = LIVE.load(Ordering::Relaxed);
            let (mut rows, mut peak) = (0, 0);
            for row in plan.solutions() {
                peak = peak.max(LIVE.load(Ordering::Relaxed).saturating_sub(before));
                drop(row);
                rows += 1;
            }
            assert_eq!(rows, n, "{store}");
            assert!(
                peak <= STREAM_BYTES,
                "{store}: streaming {n} rows held {peak} bytes at once (bound {STREAM_BYTES})"
            );
        }
    }
}
