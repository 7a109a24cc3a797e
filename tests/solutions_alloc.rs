//! What a query's answer costs, checked against the allocator.
//!
//! A `Plan::run` that is not DISTINCT projects each row straight from the
//! join walk's binding row and, past a fixed number of rows it decodes
//! cell by cell, decodes each distinct id once: past the answer's row,
//! the only allocations are one per distinct term and a constant. The
//! walk binds one row in place, so a candidate triple that a repeated
//! variable or a FILTER rejects costs nothing, and a level below the
//! first costs its one boxed store cursor per descent. On a one-pattern
//! query a run of r rows over k distinct terms is at most 2r + k + C
//! allocations, the same C for every r and for every number of rejected
//! triples. This test binary installs the counting allocator of
//! `tests/parse_memory.rs` and holds one test, so nothing else allocates
//! while it measures.

mod counting_alloc;

use counting_alloc::{Counting, REQUESTS};
use hex_query::{DatasetQuery, Plan, ResultSet};
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

/// One run of `plan`: its answer, its number of distinct terms and the
/// allocations it made.
fn measured(plan: &Plan<'_>) -> (ResultSet, usize, usize) {
    let before = REQUESTS.load(Ordering::Relaxed);
    let answer = plan.run();
    let requests = REQUESTS.load(Ordering::Relaxed) - before;
    let distinct = answer.rows.iter().flatten().collect::<HashSet<&Term>>().len();
    (answer, distinct, requests)
}

/// Checks `query`'s run on `mutable` and on its frozen form: each answers
/// `rows` rows over `distinct` distinct terms within
/// `2·rows + distinct + extra + C` allocations.
fn check(mutable: &GraphStore, query: &str, rows: usize, distinct: usize, extra: usize) {
    let frozen = mutable.freeze();
    for (store, plan) in [("mutable", mutable.prepare(query)), ("frozen", frozen.prepare(query))] {
        let (answer, terms, requests) = measured(&plan.unwrap());
        assert_eq!((answer.len(), terms), (rows, distinct), "{store}: {query}");
        let bound = 2 * rows + distinct + extra + DIRECT_ROWS * answer.vars.len() + SET_UP;
        assert!(
            requests <= bound,
            "{store}: {requests} allocations for {rows} rows over {distinct} distinct terms \
             (bound {bound}): {query}"
        );
    }
}

fn iri(name: impl std::fmt::Display) -> Term {
    Term::iri(format!("http://x/{name}"))
}

/// `n` triples over three predicates and `m` objects of every term kind
/// that can be one, so the `?p ?o` answer has `n` rows and `3 + m`
/// distinct terms.
fn graph(n: usize, m: usize) -> GraphStore {
    let object = |j: usize| match j % 4 {
        0 => iri(format_args!("o{j}")),
        1 => Term::literal(format!("plain {j}")),
        2 => Term::lang_literal(format!("chat {j}"), "fr"),
        _ => Term::typed_literal(j.to_string(), "http://www.w3.org/2001/XMLSchema#integer"),
    };
    let mut g = GraphStore::new();
    for i in 0..n {
        g.insert(&Triple::new(
            iri(format_args!("s{i}")),
            iri(format_args!("p{}", i % 3)),
            object(i % m),
        ));
    }
    g
}

/// One test, so nothing else allocates while it measures: the plain
/// scan, then candidates a pattern rejects, then candidates a join
/// rejects.
#[test]
fn a_run_allocates_two_per_row_and_one_per_distinct_term() {
    for (n, m) in [(200, 40), (2_000, 40), (8_000, 40), (8_000, 400)] {
        check(&graph(n, m), "SELECT ?p ?o WHERE { ?s ?p ?o . }", n, 3 + m, 0);
    }
    candidates_a_pattern_rejects_cost_nothing();
    candidates_a_join_rejects_cost_nothing();
}

fn candidates_a_pattern_rejects_cost_nothing() {
    // `n` triples under one predicate, `k` of them self-loops and `k`
    // pointing at <mark>: each query below keeps `k` of the `n`.
    let k = 20;
    for n in [1_000, 8_000, 32_000] {
        let mut g = GraphStore::new();
        for i in 0..n {
            let object = match i % (n / k) {
                0 => iri(format_args!("s{i}")),
                1 => iri("mark"),
                _ => iri(format_args!("o{i}")),
            };
            g.insert(&Triple::new(iri(format_args!("s{i}")), iri("p"), object));
        }
        check(&g, "SELECT ?x WHERE { ?x <http://x/p> ?x . }", k, k, 0);
        let filtered = "SELECT ?s WHERE { ?s <http://x/p> ?o . FILTER(?o = <http://x/mark>) }";
        check(&g, filtered, k, k, 0);
    }
}

fn candidates_a_join_rejects_cost_nothing() {
    // `m` subjects, each linked to its own middle node, which fans out
    // to `f` objects; the FILTER keeps one object a middle node. The
    // walk descends once for each of the `m` links.
    for (m, f) in [(50, 30), (400, 30), (400, 3)] {
        let mut g = GraphStore::new();
        for i in 0..m {
            g.insert(&Triple::new(iri(format_args!("s{i}")), iri("p"), iri(format_args!("m{i}"))));
            for j in 0..f {
                g.insert(&Triple::new(
                    iri(format_args!("m{i}")),
                    iri("q"),
                    iri(format_args!("o{j}")),
                ));
            }
        }
        let query = "SELECT ?s ?o WHERE { ?s <http://x/p> ?m . ?m <http://x/q> ?o . \
                     FILTER(?o = <http://x/o0>) }";
        check(&g, query, m, m + 1, m);
    }
}
