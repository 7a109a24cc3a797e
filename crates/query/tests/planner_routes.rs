//! Planner and store agree by construction: for every non-empty subset of
//! the six orderings and every access shape, the ordering a [`PlanStep`]
//! names (and `explain()` prints) is the one the store's shared read path
//! routes the probe to, and `None` means exactly "filtered scan".

use hex_dict::{Dictionary, Id, IdTriple};
use hex_query::{plan_steps, Bgp, Pattern, PatternTerm, VarId};
use hexastore::access::{project, route, Probe};
use hexastore::{IdPattern, IndexKind, IndexSet, PartialHexastore, TripleStore};
use rdf_model::Term;

fn sample() -> Vec<IdTriple> {
    // Subject, property and object orders all disagree, so a scan of any
    // non-spo ordering is visibly not (s, p, o)-sorted.
    [(1, 6, 9), (1, 7, 3), (2, 5, 9), (2, 6, 4), (3, 5, 8), (3, 7, 3), (4, 5, 3), (1, 5, 8)]
        .into_iter()
        .map(IdTriple::from)
        .collect()
}

/// One pattern per shape, constants taken from `(1, 5, 8)`.
fn shapes() -> Vec<IdPattern> {
    let (s, p, o) = (Id(1), Id(5), Id(8));
    vec![
        IdPattern::spo(IdTriple::new(s, p, o)),
        IdPattern::sp(s, p),
        IdPattern::so(s, o),
        IdPattern::po(p, o),
        IdPattern::s(s),
        IdPattern::p(p),
        IdPattern::o(o),
        IdPattern::ALL,
    ]
}

/// The single-pattern BGP presenting `pat`'s shape: constants where the
/// pattern is bound, fresh variables elsewhere.
fn bgp_for(pat: IdPattern) -> Bgp {
    let mut next = 0u16;
    let mut term = |bound: Option<Id>| match bound {
        Some(id) => PatternTerm::Const(id),
        None => {
            next += 1;
            PatternTerm::Var(VarId(next - 1))
        }
    };
    Bgp::new(vec![Pattern::new(term(pat.s), term(pat.p), term(pat.o))])
}

#[test]
fn planner_index_is_the_store_route_for_every_subset_and_shape() {
    for bits in 1u8..64 {
        let keep = IndexKind::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| bits & (1 << i) != 0)
            .fold(IndexSet::EMPTY, |set, (_, kind)| set.with(kind));
        let store = PartialHexastore::from_triples(keep, sample());
        assert_eq!(store.capabilities(), keep);
        for pat in shapes() {
            let steps = plan_steps(&store, &bgp_for(pat));
            assert_eq!(steps.len(), 1);
            assert_eq!(steps[0].shape, pat.shape());

            let routed = route(pat, keep);
            let expected = (routed.probe != Probe::FilteredScan).then_some(routed.kind);
            assert_eq!(steps[0].index, expected, "{keep:?} {pat:?}");
            assert_eq!(steps[0].indexed(), store.serves_directly(pat.shape()), "{keep:?} {pat:?}");

            // The routing is observable: the cursor yields the matches in
            // the routed ordering's key order — for the fallback, the first
            // kept ordering's scan order, filtered.
            let mut want: Vec<IdTriple> =
                sample().into_iter().filter(|&t| pat.matches(t)).collect();
            want.sort_by_key(|&t| project(routed.kind, t));
            let got: Vec<IdTriple> = store.iter_matching(pat).collect();
            assert_eq!(got, want, "{keep:?} {pat:?} via {:?}", routed.kind);
        }
    }
}

#[test]
fn explain_names_the_routed_ordering() {
    // Ids are assigned densely in insertion order: term `i` gets id `i`.
    let mut dict = Dictionary::new();
    for i in 0..10 {
        assert_eq!(dict.encode(&Term::iri(format!("http://t/{i}"))), Id(i));
    }
    // `(?, 5, 8)` with pos dropped is served by its mirror ops; with both
    // dropped it is a scan.
    for (keep, via) in [
        (IndexSet::all(), "via index pos"),
        (IndexSet::EMPTY.with(IndexKind::Spo).with(IndexKind::Ops), "via index ops"),
        (IndexSet::EMPTY.with(IndexKind::Spo), "via scan"),
    ] {
        let store = PartialHexastore::from_triples(keep, sample());
        let query = "SELECT ?s WHERE { ?s <http://t/5> <http://t/8> . }";
        let text = hex_query::prepare_on(&store, &dict, query).unwrap().explain();
        assert!(text.contains(via), "{keep:?}: {text}");
    }
}
