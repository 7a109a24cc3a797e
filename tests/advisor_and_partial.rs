//! Integration of the §6 extensions: profile the paper's own query mix
//! over generated data, build the recommended `PartialHexastore`, and
//! verify it answers the mix identically to the full sextuple store while
//! using less memory than even its frozen form — with the query planner
//! consulting the partial store's `capabilities()` so no plan has to be
//! picked by hand.

use hex_bench_queries::lubm::LubmIds;
use hex_bench_queries::Suite;
use hex_datagen::lubm::{generate, LubmConfig, Vocab};
use hexastore::advisor::{recommend, IndexKind, WorkloadProfile};
use hexastore::{IdPattern, IndexSet, PartialHexastore, Shape, TripleStore};

fn paper_workload(ids: &LubmIds) -> Vec<IdPattern> {
    vec![
        IdPattern::po(ids.p_type, ids.class_university),
        IdPattern::sp(ids.assoc_prof10, ids.p_teacher_of),
        IdPattern::s(ids.assoc_prof10),
        IdPattern::o(ids.course10),
        IdPattern::p(ids.p_teacher_of),
    ]
}

#[test]
fn recommended_partial_store_answers_the_workload_directly() {
    let triples = generate(&LubmConfig::tiny());
    let suite = Suite::build(&triples);
    let ids = LubmIds::resolve(&suite.dict).unwrap();
    let workload = paper_workload(&ids);

    let profile = WorkloadProfile::from_patterns(&workload);
    let keep = recommend(&profile);
    // §6's observation: this mix never forces the ops ordering.
    assert!(!keep.contains(IndexKind::Ops));
    assert!(keep.len() < 6);

    // The reduced store must undercut the full store in the same slab
    // layout.
    let partial = PartialHexastore::from_triples(keep, suite.triples.iter().copied());
    assert_eq!(partial.len(), suite.hexastore.len());
    let full = suite.hexastore.heap_bytes();
    assert!(partial.heap_bytes() < full, "partial {} vs frozen full {full}", partial.heap_bytes());

    for pat in workload {
        assert!(partial.serves_directly(pat.shape()), "{pat:?} must stay a direct probe");
        let mut expected = suite.hexastore.matching(pat);
        expected.sort();
        let mut got = partial.matching(pat);
        got.sort();
        assert_eq!(got, expected, "{pat:?}");
    }
}

#[test]
fn partial_store_queries_plan_automatically_from_capabilities() {
    // End-to-end §6 + streaming-API flow: recommend an index subset for
    // the paper's mix, bulk-build the reduced store, then let `prepare`
    // choose the join order from `capabilities()` — no hand-picked plans.
    let triples = generate(&LubmConfig::tiny());
    let suite = Suite::build(&triples);
    let ids = LubmIds::resolve(&suite.dict).unwrap();
    let keep = recommend(&WorkloadProfile::from_patterns(&paper_workload(&ids)));
    let partial = PartialHexastore::from_triples(keep, suite.triples.iter().copied());
    assert_eq!(partial.capabilities(), keep);

    let queries = [
        // po + sp join: students of AssociateProfessor10's courses.
        format!(
            "SELECT ?x WHERE {{ ?x {} {} . {} {} ?c . }}",
            Vocab::predicate("type"),
            Vocab::class("University"),
            Vocab::associate_professor(0, 0, 10),
            Vocab::predicate("teacherOf"),
        ),
        // Everyone related to Course10, by any property.
        format!("SELECT ?s ?p WHERE {{ ?s ?p {} . }}", Vocab::course(0, 0, 10)),
        format!("ASK {{ ?x {} {} . }}", Vocab::predicate("type"), Vocab::class("University")),
    ];
    for query in &queries {
        let plan = hex_query::prepare_on(&partial, &suite.dict, query).unwrap();
        // Every step's access shape must be servable by a kept ordering:
        // the planner consulted capabilities, the explain text proves it.
        let text = plan.explain();
        assert!(!text.contains("via scan"), "unservable step in:\n{text}");
        for step in plan.steps() {
            let kind = step.index.expect("every step indexed");
            assert!(keep.contains(kind), "{step:?} uses a dropped ordering");
        }
        // And the reduced store answers exactly like the full one.
        let mut got = plan.run().rows;
        got.sort();
        let mut expected =
            hex_query::prepare_on(&suite.hexastore, &suite.dict, query).unwrap().run().rows;
        expected.sort();
        assert_eq!(got, expected, "{query}");
    }
}

/// The access shapes of the twelve paper queries (BQ1–BQ7, LQ1–LQ5), as
/// the hand-written physical plans in `hex_bench_queries` probe them.
fn twelve_paper_query_shapes() -> Vec<(&'static str, Vec<Shape>)> {
    vec![
        ("BQ1", vec![Shape::P]),
        ("BQ2", vec![Shape::Po, Shape::S]),
        ("BQ3", vec![Shape::Po, Shape::S, Shape::P]),
        ("BQ4", vec![Shape::Po, Shape::Po, Shape::S, Shape::P]),
        ("BQ5", vec![Shape::Po, Shape::Sp, Shape::P]),
        ("BQ6", vec![Shape::Po, Shape::Po, Shape::Sp, Shape::Sp]),
        ("BQ7", vec![Shape::Po, Shape::P]),
        ("LQ1", vec![Shape::O]),
        ("LQ2", vec![Shape::S, Shape::O]),
        ("LQ3", vec![Shape::Sp, Shape::O]),
        ("LQ4", vec![Shape::Po, Shape::Po]),
        ("LQ5", vec![Shape::Po, Shape::Po]),
    ]
}

fn pattern_for(shape: Shape) -> IdPattern {
    let (a, b) = (hex_dict::Id(0), hex_dict::Id(1));
    match shape {
        Shape::Sp => IdPattern::sp(a, b),
        Shape::So => IdPattern::so(a, b),
        Shape::Po => IdPattern::po(a, b),
        Shape::S => IdPattern::s(a),
        Shape::P => IdPattern::p(a),
        Shape::O => IdPattern::o(a),
        Shape::Spo => IdPattern::spo(hex_dict::IdTriple::from((0, 1, 2))),
        Shape::None_ => IdPattern::ALL,
    }
}

/// The pre-extension advisor, reimplemented as the oracle: two-bound
/// shapes servable only by their pair's *primary* ordering, single-server
/// shapes forced, flexible shapes reusing a chosen index when possible.
fn recommend_primary_only(shapes: &[Shape]) -> IndexSet {
    use hexastore::IndexSet as S;
    let servers = |shape: Shape| -> S {
        match shape {
            Shape::Sp => S::EMPTY.with(IndexKind::Spo),
            Shape::So => S::EMPTY.with(IndexKind::Sop),
            Shape::Po => S::EMPTY.with(IndexKind::Pos),
            Shape::S => S::EMPTY.with(IndexKind::Spo).with(IndexKind::Sop),
            Shape::P => S::EMPTY.with(IndexKind::Pso).with(IndexKind::Pos),
            Shape::O => S::EMPTY.with(IndexKind::Osp).with(IndexKind::Ops),
            Shape::Spo | Shape::None_ => IndexSet::all(),
        }
    };
    let mut chosen = S::EMPTY;
    for &shape in shapes {
        let s = servers(shape);
        if s.len() == 1 {
            chosen = chosen.with(s.iter().next().unwrap());
        }
    }
    for &shape in shapes {
        let s = servers(shape);
        if s.len() == 1 || s == IndexSet::all() {
            continue;
        }
        if !s.iter().any(|k| chosen.contains(k)) {
            chosen = chosen.with(s.iter().next().unwrap());
        }
    }
    chosen
}

#[test]
fn pair_aware_serving_shrinks_or_preserves_recommendations_on_paper_queries() {
    // Satellite check for the extended `serving_indices`: with two-bound
    // shapes servable by either ordering of their pair, the advisor's
    // recommended sets must shrink or stay equal on the twelve paper
    // queries — and still serve every shape with a single probe.
    for (name, shapes) in twelve_paper_query_shapes() {
        let patterns: Vec<IdPattern> = shapes.iter().map(|&s| pattern_for(s)).collect();
        let profile = WorkloadProfile::from_patterns(&patterns);
        let extended = recommend(&profile);
        let primary_only = recommend_primary_only(&shapes);
        assert!(
            extended.len() <= primary_only.len(),
            "{name}: extended {extended:?} larger than primary-only {primary_only:?}"
        );
        for &shape in &shapes {
            assert!(extended.serves(shape), "{name}: {shape:?} unserved by {extended:?}");
        }
    }
    // The union workload of all twelve queries shrinks-or-equals too.
    let all: Vec<IdPattern> = twelve_paper_query_shapes()
        .iter()
        .flat_map(|(_, shapes)| shapes.iter().map(|&s| pattern_for(s)))
        .collect();
    let all_shapes: Vec<Shape> = all.iter().map(|p| p.shape()).collect();
    let extended = recommend(&WorkloadProfile::from_patterns(&all));
    assert!(extended.len() <= recommend_primary_only(&all_shapes).len());
    // And a COVP1-shaped workload demonstrates a strict shrink: one pso
    // index now covers both (s, p, ?) and (?, p, ?).
    let covp = [pattern_for(Shape::Sp), pattern_for(Shape::P)];
    let covp_shapes = [Shape::Sp, Shape::P];
    let extended = recommend(&WorkloadProfile::from_patterns(&covp));
    assert!(extended.len() < recommend_primary_only(&covp_shapes).len());
    assert_eq!(extended, IndexSet::EMPTY.with(IndexKind::Pso));
}

#[test]
fn mirror_ordering_serves_two_bound_shapes_in_partial_stores() {
    // A pso-only partial store must answer (s, p, ?) with a direct probe
    // (its pso[p][s] list), not a fallback scan — and correctly.
    let triples = generate(&LubmConfig::tiny());
    let suite = Suite::build(&triples);
    let pso_only = PartialHexastore::from_triples(
        IndexSet::EMPTY.with(IndexKind::Pso),
        suite.triples.iter().copied(),
    );
    assert!(pso_only.serves_directly(Shape::Sp));
    let ids = LubmIds::resolve(&suite.dict).unwrap();
    let pat = IdPattern::sp(ids.assoc_prof10, ids.p_teacher_of);
    let mut expected = suite.hexastore.matching(pat);
    expected.sort();
    let mut got = pso_only.matching(pat);
    got.sort();
    assert_eq!(got, expected);
}

#[test]
fn degraded_shapes_still_answer_correctly_on_generated_data() {
    // Keep only spo: every non-subject-bound shape takes the fallback
    // scan, and must still agree with the full store.
    let triples = generate(&LubmConfig::tiny());
    let suite = Suite::build(&triples);
    let ids = LubmIds::resolve(&suite.dict).unwrap();
    let spo_only = PartialHexastore::from_triples(
        IndexSet::EMPTY.with(IndexKind::Spo),
        suite.triples.iter().copied(),
    );
    for pat in [
        IdPattern::o(ids.course10),
        IdPattern::po(ids.p_type, ids.class_university),
        IdPattern::p(ids.p_teacher_of),
    ] {
        assert!(!spo_only.serves_directly(pat.shape()));
        let mut expected = suite.hexastore.matching(pat);
        expected.sort();
        let mut got = spo_only.matching(pat);
        got.sort();
        assert_eq!(got, expected, "{pat:?}");
    }
}
