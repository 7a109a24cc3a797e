//! What a parsed document weighs, checked against the allocator.
//!
//! The benchmark's `peak_rss_mb` on `bulk_load` is reached while the
//! tokenizer's output is alive beside the text it borrows from. This test
//! binary installs the counting allocator `tests/heap_accounting.rs` uses
//! and holds `parse_document` to what it promises: one table of
//! 32-byte statements and nothing else — no allocation per statement or
//! per term — all of it given back on drop. It holds one test, so nothing
//! else allocates while it measures.

mod counting_alloc;

use counting_alloc::{Counting, LIVE, REQUESTS};
use hex_datagen::{barton::BartonConfig, lubm::LubmConfig};
use rdf_model::Statement;
use std::sync::atomic::Ordering;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_parsed_document_is_one_table_of_32_byte_statements() {
    // The benchmark's `D50k`, rendered as the harness renders it.
    let mut triples =
        hex_datagen::barton::generate(&BartonConfig { records: 3_500, ..Default::default() });
    triples.extend(hex_datagen::lubm::generate(&LubmConfig::with_universities(1)));
    let text = rdf_model::write_document(&triples);
    let n = triples.len();
    assert!(n > 50_000, "{n}");
    drop(triples);

    assert!(std::mem::size_of::<Statement<'_>>() <= 32);
    let (live, requests) = (LIVE.load(Ordering::Relaxed), REQUESTS.load(Ordering::Relaxed));
    let statements = rdf_model::parse_document(&text).unwrap();
    let held = LIVE.load(Ordering::Relaxed) - live;
    let requests = REQUESTS.load(Ordering::Relaxed) - requests;
    assert_eq!(statements.len(), n);
    assert!(held <= 32 * statements.capacity(), "{held} B live for {n} statements");
    // A vector grown by doubling, and nothing per statement or per term.
    assert!(requests <= 2 * n.ilog2() as usize, "{requests} allocations for {n} statements");

    drop(statements);
    assert_eq!(LIVE.load(Ordering::Relaxed), live, "the table is all there was");
}
