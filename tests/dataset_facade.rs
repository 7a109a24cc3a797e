//! Property-based validation of the string-level [`Dataset`] facade:
//! `Dataset::prepare(...).solutions()` must agree with the id-level
//! oracle (`execute_bgp` over a triples table, decoded through the
//! dictionary) across random queries on *every* store form — the mutable
//! `Hexastore`, the zero-copy `FrozenHexastore`, and the partial store
//! with random kept-index subsets. This is the contract the
//! generic facade refactor makes: one query string, any physical store,
//! identical answers.

use hex_dict::{Dictionary, Id, IdTriple};
use hex_query::DatasetQuery;
use hexastore::{
    Dataset, FrozenGraphStore, GraphStore, Hexastore, IndexKind, IndexSet, OverlayHexastore,
    PartialGraphStore, PartialHexastore, TripleStore,
};
use proptest::prelude::*;
use rdf_model::Term;

fn term_for(i: u32) -> Term {
    Term::iri(format!("http://t/{i}"))
}

/// Terms are minted so that term `i` gets dictionary id `i`.
fn dict_for(n: u32) -> Dictionary {
    let mut dict = Dictionary::new();
    for i in 0..n {
        let id = dict.encode(&term_for(i));
        assert_eq!(id, Id(i));
    }
    dict
}

const MAX_ID: u32 = 6;

fn arb_triple() -> impl Strategy<Value = IdTriple> {
    (0u32..MAX_ID, 0u32..4, 0u32..MAX_ID).prop_map(IdTriple::from)
}

/// One query-text position: a constant IRI or one of three variables.
fn arb_text_term() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u32..MAX_ID).prop_map(|i| term_for(i).to_string()),
        (0u16..3).prop_map(|v| format!("?v{v}")),
    ]
}

fn arb_query_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((arb_text_term(), arb_text_term(), arb_text_term()), 1..4).prop_map(
        |patterns| {
            let mut body = String::new();
            for (s, p, o) in &patterns {
                body.push_str(&format!("{s} {p} {o} . "));
            }
            format!("SELECT * WHERE {{ {body}}}")
        },
    )
}

fn subset_from_bits(bits: u8) -> IndexSet {
    let mut keep = IndexSet::EMPTY;
    for (i, kind) in IndexKind::ALL.into_iter().enumerate() {
        if bits & (1 << i) != 0 {
            keep = keep.with(kind);
        }
    }
    keep
}

/// The id-level oracle: compile the same text, run the BGP on a plain
/// triples table, project, and decode through the dictionary.
fn oracle_rows(dict: &Dictionary, triples: &[IdTriple], text: &str) -> Option<Vec<Vec<Term>>> {
    let parsed = hex_query::parse_query(text).ok()?;
    let compiled = hex_query::compile(&parsed, dict).ok()?;
    let bgp = compiled.bgp.as_ref().expect("all constants are interned");
    let table = hex_baselines::TriplesTable::from_triples(triples.iter().copied());
    let rows = hex_query::execute_bgp(&table, bgp);
    // `SELECT *` projects only pattern-bound variables: every slot is set.
    let mut decoded: Vec<Vec<Term>> = rows
        .iter()
        .map(|row| {
            let term = |v: &hex_query::VarId| dict.decode(row[v.index()].unwrap()).unwrap().clone();
            compiled.slots.iter().map(term).collect()
        })
        .collect();
    decoded.sort();
    Some(decoded)
}

fn prepared_rows<S: TripleStore>(ds: &Dataset<S>, text: &str) -> Vec<Vec<Term>> {
    let plan = ds.prepare(text).expect("query compiles");
    let mut rows: Vec<Vec<Term>> = plan.solutions().collect();
    rows.sort();
    rows
}

/// The writable store holding `triples`: half as pending writes over a
/// base holding the other half.
fn written(triples: &[IdTriple]) -> OverlayHexastore {
    let (base, rest) = triples.split_at(triples.len() / 2);
    let mut store = Hexastore::from_triples(base.iter().copied()).thaw();
    for &t in rest {
        store.insert(t);
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dataset_prepare_matches_id_level_oracle_on_every_store(
        triples in proptest::collection::vec(arb_triple(), 0..12),
        text in arb_query_text(),
        subset_bits in 1u8..64,
    ) {
        let dict = dict_for(MAX_ID);
        let store = Hexastore::from_triples(triples.iter().copied());
        let all = store.matching(hexastore::IdPattern::ALL);
        // `oracle_rows` is None only for degenerate query text (e.g. a
        // query with zero variables, which `SELECT *` rejects).
        if let Some(expected) = oracle_rows(&dict, &all, &text) {
            let graph: GraphStore = Dataset::from_parts(dict.clone(), written(&triples));
            let frozen: FrozenGraphStore = graph.freeze();
            let partial: PartialGraphStore = Dataset::from_parts(
                dict.clone(),
                PartialHexastore::from_triples(subset_from_bits(subset_bits), all.iter().copied()),
            );

            prop_assert_eq!(prepared_rows(&graph, &text), expected.clone(), "GraphStore");
            prop_assert_eq!(prepared_rows(&frozen, &text), expected.clone(), "FrozenGraphStore");
            prop_assert_eq!(
                prepared_rows(&partial, &text),
                expected,
                "PartialGraphStore keeping {:?}",
                partial.store().capabilities()
            );
        }
    }

    #[test]
    fn stats_refined_plans_agree_with_plain_plans_on_every_store(
        triples in proptest::collection::vec(arb_triple(), 0..12),
        text in arb_query_text(),
    ) {
        let dict = dict_for(MAX_ID);
        let graph: GraphStore = Dataset::from_parts(dict, written(&triples));
        let frozen = graph.freeze();
        let stats = graph.stats();
        prop_assert_eq!(&stats, &frozen.stats(), "stats agree across freeze");
        for rows in [
            (prepared_rows(&graph, &text), {
                let plan = graph.prepare_with_stats(&text, Some(&stats)).expect("compiles");
                let mut rows: Vec<Vec<Term>> = plan.solutions().collect();
                rows.sort();
                rows
            }),
            (prepared_rows(&frozen, &text), {
                let plan = frozen.prepare_with_stats(&text, Some(&stats)).expect("compiles");
                let mut rows: Vec<Vec<Term>> = plan.solutions().collect();
                rows.sort();
                rows
            }),
        ] {
            prop_assert_eq!(rows.0, rows.1, "stats mode changed the rows");
        }
    }
}
