//! Property-based validation of the streaming query surface: collected
//! [`hex_query::Plan::solutions`] must equal a brute-force oracle (every
//! assignment of store triples to patterns, consistency-checked) across
//! random BGPs on all four stores — Hexastore, TriplesTable, COVP1,
//! COVP2 — plus `PartialHexastore` instances keeping random index
//! subsets (flat-slab and read-only, so the planner demonstrably works
//! off their `capabilities()`), the frozen full store, and an
//! `OverlayHexastore` whose frozen base,
//! tombstones and mutable delta are all non-trivially populated, so the
//! layered merge cursors face the same oracle as the flat stores. A
//! counting-store wrapper additionally pins down the
//! early termination claims: ASK and LIMIT stop pulling triples as soon
//! as the consumer has enough rows.

use hex_baselines::{Covp1, Covp2, TriplesTable};
use hex_dict::{Dictionary, Id, IdTriple};
use hex_query::{Bgp, CompiledQuery, Pattern, PatternTerm, Plan, VarId};
use hexastore::{
    bulk, FrozenHexastore, Hexastore, IdPattern, IndexKind, IndexSet, OverlayHexastore,
    PartialHexastore, TripleStore,
};
use proptest::prelude::*;
use rdf_model::Term;

mod support;
use support::{arb_bgp, arb_pattern_term, arb_triple, brute_force, Counting, MAX_ID};

/// Terms are minted so that term `i` gets dictionary id `i` (ids are
/// assigned densely in insertion order).
fn term_for(i: u32) -> Term {
    Term::iri(format!("http://t/{i}"))
}

fn dict_for(n: u32) -> Dictionary {
    let mut dict = Dictionary::new();
    for i in 0..n {
        let id = dict.encode(&term_for(i));
        assert_eq!(id, Id(i));
    }
    dict
}

/// Wraps a BGP in a `SELECT` over every variable that occurs in it.
fn select_all(bgp: &Bgp) -> (CompiledQuery, Vec<VarId>) {
    let mut occurring: Vec<VarId> = bgp.patterns.iter().flat_map(Pattern::vars).collect();
    occurring.sort();
    occurring.dedup();
    let q = CompiledQuery {
        bgp: Some(bgp.clone()),
        slots: occurring.clone().into(),
        var_names: (0..bgp.var_count()).map(|i| format!("v{i}")).collect(),
        distinct: false,
        filters: Box::default(),
        ask: false,
        limit: None,
        offset: 0,
    };
    (q, occurring)
}

/// The oracle's view of the solutions: brute-force rows projected onto the
/// occurring variables and decoded to terms, sorted + deduplicated.
fn expected_solutions(all: &[IdTriple], bgp: &Bgp, slots: &[VarId]) -> Vec<Vec<Term>> {
    let mut rows: Vec<Vec<Term>> = brute_force(all, bgp)
        .into_iter()
        .map(|row| {
            slots
                .iter()
                .map(|v| term_for(row[v.index()].expect("occurring vars bind in full rows").0))
                .collect()
        })
        .collect();
    rows.sort();
    rows.dedup();
    rows
}

fn collected_solutions(
    store: &dyn TripleStore,
    dict: &Dictionary,
    q: &CompiledQuery,
) -> Vec<Vec<Term>> {
    let plan = Plan::from_compiled(q.clone(), dict, store);
    let mut rows: Vec<Vec<Term>> = plan.solutions().collect();
    rows.sort();
    rows.dedup();
    rows
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_solutions_match_brute_force_on_every_store(
        triples in proptest::collection::vec(arb_triple(), 0..10),
        bgp in arb_bgp(),
        subset_bits in 1u8..64,
    ) {
        let dict = dict_for(MAX_ID);
        let hexa = Hexastore::from_triples(triples.iter().copied());
        let all = hexa.matching(IdPattern::ALL);
        let (q, slots) = select_all(&bgp);
        let expected = expected_solutions(&all, &bgp, &slots);

        let table = TriplesTable::from_triples(triples.iter().copied());
        let covp1 = Covp1::from_triples(triples.iter().copied());
        let covp2 = Covp2::from_triples(triples.iter().copied());
        let partial =
            PartialHexastore::from_triples(subset_from_bits(subset_bits), triples.iter().copied());
        let frozen = FrozenHexastore::from_triples(triples.iter().copied());
        // Overlay with every layer populated: the frozen base holds the
        // first half of the triples plus out-of-range extras (ids >=
        // MAX_ID, unreachable by any generated pattern) that are then
        // removed through the overlay (tombstones); the second half is
        // inserted afterwards (mutable delta). Net contents == `triples`.
        let split = triples.len() / 2;
        let extras = [IdTriple::from((8, 8, 8)), IdTriple::from((9, 8, 7))];
        let mut base: Vec<IdTriple> = triples[..split].to_vec();
        base.extend(extras);
        let mut overlay = OverlayHexastore::new(bulk::build_frozen(base));
        for t in extras {
            overlay.remove(t);
        }
        for &t in &triples[split..] {
            overlay.insert(t);
        }
        for store in [
            &hexa as &dyn TripleStore,
            &table,
            &covp1,
            &covp2,
            &partial,
            &frozen,
            &overlay,
        ] {
            prop_assert_eq!(
                collected_solutions(store, &dict, &q),
                expected.clone(),
                "store {} (partial keeps {:?})",
                store.name(),
                partial.capabilities()
            );
        }
    }

    #[test]
    fn every_plan_step_is_annotated_consistently(
        triples in proptest::collection::vec(arb_triple(), 0..10),
        bgp in arb_bgp(),
        subset_bits in 1u8..64,
    ) {
        // On any store, plan_steps covers each pattern exactly once, and a
        // step marked `indexed` names an ordering the store really keeps.
        let partial =
            PartialHexastore::from_triples(subset_from_bits(subset_bits), triples.iter().copied());
        let steps = hex_query::plan_steps(&partial, &bgp);
        let mut covered: Vec<usize> = steps.iter().map(|s| s.pattern).collect();
        covered.sort_unstable();
        prop_assert_eq!(covered, (0..bgp.patterns.len()).collect::<Vec<_>>());
        for step in &steps {
            if let Some(kind) = step.index {
                prop_assert!(partial.capabilities().contains(kind), "step {step:?} claims a dropped index");
            }
        }
    }
}

/// 10k-triple star: subjects 0..10_000 all typed (p=0) as class 1.
fn big_store_and_dict() -> (Hexastore, Dictionary) {
    let mut dict = Dictionary::new();
    // Reserve small ids for the query constants.
    for i in 0..2 {
        dict.encode(&term_for(i));
    }
    let triples: Vec<IdTriple> = (0..10_000u32)
        .map(|i| {
            let s = dict.encode(&Term::iri(format!("http://t/subject/{i}")));
            IdTriple::new(s, Id(0), Id(1))
        })
        .collect();
    (Hexastore::from_triples(triples), dict)
}

#[test]
fn ask_visits_a_bounded_number_of_rows() {
    let (store, dict) = big_store_and_dict();
    let counting = Counting::new(&store);
    let plan = hex_query::prepare_on(
        &counting,
        &dict,
        &format!("ASK {{ ?x {} {} . }}", term_for(0), term_for(1)),
    )
    .unwrap();
    assert!(plan.solutions().next().is_some());
    assert!(
        counting.yielded() <= 2,
        "ASK over 10k matches visited {} triples; must stop at the first",
        counting.yielded()
    );
}

#[test]
fn limit_stops_after_offset_plus_limit_rows() {
    let (store, dict) = big_store_and_dict();
    let counting = Counting::new(&store);
    let plan = hex_query::prepare_on(
        &counting,
        &dict,
        &format!("SELECT ?x WHERE {{ ?x {} {} . }} OFFSET 5 LIMIT 10", term_for(0), term_for(1)),
    )
    .unwrap();
    let rows: Vec<Vec<Term>> = plan.solutions().collect();
    assert_eq!(rows.len(), 10);
    assert!(
        counting.yielded() <= 16,
        "LIMIT 10 OFFSET 5 visited {} triples; must stop near 15",
        counting.yielded()
    );
}

/// 10k two-hop chain: subject i → (p0) → mid i → (p2-const object), so a
/// two-pattern join has 10k full solutions.
fn chain_store_and_dict() -> (Hexastore, Dictionary) {
    let mut dict = Dictionary::new();
    for i in 0..4 {
        dict.encode(&term_for(i));
    }
    let mut triples = Vec::new();
    for i in 0..10_000u32 {
        let s = dict.encode(&Term::iri(format!("http://t/subject/{i}")));
        let m = dict.encode(&Term::iri(format!("http://t/mid/{i}")));
        triples.push(IdTriple::new(s, Id(0), m));
        triples.push(IdTriple::new(m, Id(2), Id(3)));
    }
    (Hexastore::from_triples(triples), dict)
}

#[test]
fn limit_pushdown_visits_o_k_triples_across_join_levels() {
    // The demand (offset + limit) is pushed into the BgpCursor stack for
    // this non-DISTINCT, filter-free query, so a two-level join over 10k
    // matching chains visits O(k) triples for LIMIT k.
    let (store, dict) = chain_store_and_dict();
    let counting = Counting::new(&store);
    let plan = hex_query::prepare_on(
        &counting,
        &dict,
        &format!(
            "SELECT ?x ?m WHERE {{ ?x {} ?m . ?m {} {} . }} LIMIT 7",
            term_for(0),
            term_for(2),
            term_for(3)
        ),
    )
    .unwrap();
    let rows: Vec<Vec<Term>> = plan.solutions().collect();
    assert_eq!(rows.len(), 7);
    assert!(
        counting.yielded() <= 2 * 7 + 2,
        "LIMIT 7 over 10k chains visited {} triples; must be O(limit)",
        counting.yielded()
    );
}

/// A lone-variable, two-constant pattern over shared `?v0` — the shape
/// merge groups are made of.
fn arb_lone_var_pattern() -> impl Strategy<Value = Pattern> {
    (0u32..4, 0u32..MAX_ID, 0usize..3).prop_map(|(p, o, pos)| match pos {
        0 => Pattern::new(
            PatternTerm::Var(VarId(0)),
            PatternTerm::Const(Id(p)),
            PatternTerm::Const(Id(o)),
        ),
        1 => Pattern::new(
            PatternTerm::Const(Id(o)),
            PatternTerm::Var(VarId(0)),
            PatternTerm::Const(Id(p)),
        ),
        _ => Pattern::new(
            PatternTerm::Const(Id(o)),
            PatternTerm::Const(Id(p)),
            PatternTerm::Var(VarId(0)),
        ),
    })
}

/// 2–3 mergeable patterns plus (sometimes) an open tail pattern: biased
/// so the planner actually compiles merge groups often, unlike the
/// uniform [`arb_bgp`] space where two-constant pairs are rare.
fn arb_star_bgp() -> impl Strategy<Value = Bgp> {
    (
        proptest::collection::vec(arb_lone_var_pattern(), 2..4),
        proptest::option::of((arb_pattern_term(3), arb_pattern_term(3), arb_pattern_term(3))),
    )
        .prop_map(|(mut pats, tail)| {
            if let Some((s, p, o)) = tail {
                pats.push(Pattern::new(s, p, o));
            }
            Bgp::new(pats)
        })
}

/// The solutions as an ordered sequence (no sort/dedup): the probe for
/// byte-identity rather than set-equality.
fn solution_sequence(
    store: &dyn TripleStore,
    dict: &Dictionary,
    q: &CompiledQuery,
) -> Vec<Vec<Term>> {
    Plan::from_compiled(q.clone(), dict, store).solutions().collect()
}

fn forced_nested_sequence(
    store: &dyn TripleStore,
    dict: &Dictionary,
    q: &CompiledQuery,
) -> Vec<Vec<Term>> {
    let mut plan = Plan::from_compiled(q.clone(), dict, store);
    plan.force_nested_joins();
    plan.solutions().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Merge-join execution must be *byte-identical* (row order included)
    /// to the forced-nested walk of the same plan, on every store flavor.
    #[test]
    fn merge_execution_is_byte_identical_to_forced_nested(
        triples in proptest::collection::vec(arb_triple(), 0..14),
        bgp in arb_star_bgp(),
        subset_bits in 1u8..64,
    ) {
        let dict = dict_for(MAX_ID);
        let hexa = Hexastore::from_triples(triples.iter().copied());
        let (q, slots) = select_all(&bgp);
        let all = hexa.matching(IdPattern::ALL);
        let expected = expected_solutions(&all, &bgp, &slots);

        let partial =
            PartialHexastore::from_triples(subset_from_bits(subset_bits), triples.iter().copied());
        let frozen = FrozenHexastore::from_triples(triples.iter().copied());
        let split = triples.len() / 2;
        let mut overlay = OverlayHexastore::new(bulk::build_frozen(triples[..split].to_vec()));
        for &t in &triples[split..] {
            overlay.insert(t);
        }
        for store in [
            &hexa as &dyn TripleStore,
            &partial,
            &frozen,
            &overlay,
        ] {
            let merged = solution_sequence(store, &dict, &q);
            let nested = forced_nested_sequence(store, &dict, &q);
            prop_assert_eq!(&merged, &nested, "store {}", store.name());
            // Against the ground truth as well, as sets.
            let mut sorted = merged;
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(&sorted, &expected, "store {}", store.name());
        }
    }
}

/// 10k triples in `dup`-sized runs: subject `i` relates (p=0) to group
/// `i / dup`, so the first-step cursor yields each distinct group value
/// exactly `dup` times consecutively.
fn grouped_store_and_dict(dup: u32) -> (Hexastore, Dictionary) {
    let mut dict = Dictionary::new();
    dict.encode(&term_for(0));
    let mut triples = Vec::new();
    for i in 0..10_000u32 {
        let s = dict.encode(&Term::iri(format!("http://t/subject/{i}")));
        let g = dict.encode(&Term::iri(format!("http://t/group/{}", i / dup)));
        triples.push(IdTriple::new(s, Id(0), g));
    }
    (Hexastore::from_triples(triples), dict)
}

#[test]
fn distinct_with_total_projection_pushes_the_demand() {
    // DISTINCT over a projection keeping every pattern-bound variable:
    // full-walk rows are already pairwise distinct, dedup is a no-op, so
    // the demand (offset + limit) may be pushed into the walk — LIMIT 7
    // visits O(7) of the 10k triples.
    let (store, dict) = grouped_store_and_dict(5);
    let counting = Counting::new(&store);
    let plan = hex_query::prepare_on(
        &counting,
        &dict,
        &format!("SELECT DISTINCT ?x ?g WHERE {{ ?x {} ?g . }} LIMIT 7", term_for(0)),
    )
    .unwrap();
    let rows: Vec<Vec<Term>> = plan.solutions().collect();
    assert_eq!(rows.len(), 7);
    assert!(
        counting.yielded() <= 8,
        "DISTINCT with total projection LIMIT 7 visited {} triples; demand must push",
        counting.yielded()
    );
}

#[test]
fn distinct_with_lossy_projection_visits_o_k_dup_triples() {
    // Projecting only ?g drops ?x, so rows duplicate (factor dup=5) and
    // the demand must NOT push (it would stop before k *distinct* rows).
    // Laziness still bounds the walk: LIMIT k pulls until the seen-set
    // holds k entries — k·dup triples, not 10k.
    let (store, dict) = grouped_store_and_dict(5);
    let counting = Counting::new(&store);
    let plan = hex_query::prepare_on(
        &counting,
        &dict,
        &format!("SELECT DISTINCT ?g WHERE {{ ?x {} ?g . }} LIMIT 4", term_for(0)),
    )
    .unwrap();
    let rows: Vec<Vec<Term>> = plan.solutions().collect();
    assert_eq!(rows.len(), 4, "four distinct groups");
    assert!(
        counting.yielded() <= 4 * 5 + 1,
        "DISTINCT ?g LIMIT 4 over dup=5 visited {} triples; must be O(k·dup)",
        counting.yielded()
    );
}
