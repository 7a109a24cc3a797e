//! What a query's answer costs, checked against the allocator.
//!
//! A `Plan::run` that is not DISTINCT projects each row straight from the
//! join walk's binding row and, past a fixed number of rows it decodes
//! cell by cell, decodes each distinct id once: past the
//! cursor's row and the answer's row, the only allocations are one per
//! distinct term and a constant. On a one-pattern query, whose walk
//! allocates one row per solution, a run of r rows over k distinct terms
//! is at most 2r + k + C allocations, the same C for every r. This test
//! binary installs the counting allocator of `tests/parse_memory.rs` and
//! holds one test, so nothing else allocates while it measures.

mod counting_alloc;

use counting_alloc::{Counting, REQUESTS};
use hex_query::DatasetQuery;
use hexastore::GraphStore;
use rdf_model::{Term, Triple};
use std::collections::HashSet;
use std::sync::atomic::Ordering;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A run decodes its first 128 rows cell by cell, before it keeps
/// decoded terms, so a term repeated among them is built more than once.
const DIRECT_ROWS: usize = 128;

/// What a run spends however long it is: the plan's cursors and
/// projection, and the growth of the id-to-term map and of the answer's
/// row vector (a few dozen doublings at most).
const SET_UP: usize = 64;

/// `n` triples over three predicates and `m` objects of every term kind
/// that can be one, so the `?p ?o` answer has `n` rows and `3 + m`
/// distinct terms.
fn graph(n: usize, m: usize) -> GraphStore {
    let object = |j: usize| match j % 4 {
        0 => Term::iri(format!("http://x/o{j}")),
        1 => Term::literal(format!("plain {j}")),
        2 => Term::lang_literal(format!("chat {j}"), "fr"),
        _ => Term::typed_literal(j.to_string(), "http://www.w3.org/2001/XMLSchema#integer"),
    };
    let mut g = GraphStore::new();
    for i in 0..n {
        g.insert(&Triple::new(
            Term::iri(format!("http://x/s{i}")),
            Term::iri(format!("http://x/p{}", i % 3)),
            object(i % m),
        ));
    }
    g
}

#[test]
fn a_run_allocates_two_per_row_and_one_per_distinct_term() {
    let query = "SELECT ?p ?o WHERE { ?s ?p ?o . }";
    for (n, m) in [(200, 40), (2_000, 40), (8_000, 40), (8_000, 400)] {
        let mutable = graph(n, m);
        let frozen = mutable.freeze();
        for (store, plan) in
            [("mutable", mutable.prepare(query)), ("frozen", frozen.prepare(query))]
        {
            let plan = plan.unwrap();
            let before = REQUESTS.load(Ordering::Relaxed);
            let answer = plan.run();
            let requests = REQUESTS.load(Ordering::Relaxed) - before;

            let rows = answer.len();
            let distinct: HashSet<&Term> = answer.rows.iter().flatten().collect();
            assert_eq!((rows, distinct.len()), (n, 3 + m), "{store}");
            let bound = 2 * rows + distinct.len() + DIRECT_ROWS * answer.vars.len() + SET_UP;
            assert!(
                requests <= bound,
                "{store}: {requests} allocations for {rows} rows over {} distinct terms \
                 (bound {bound})",
                distinct.len()
            );
        }
    }
}
