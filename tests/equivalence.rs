//! Cross-crate integration: every benchmark query returns identical
//! results on every store, on both generated datasets, and the generic
//! SPARQL-like engine agrees with the hand-written physical plans.

use hex_bench_queries::{barton, lubm, Suite};
use hex_datagen::{barton::BartonConfig, lubm::LubmConfig};
use hex_query::prepare_on;
use hexastore::TripleStore;

fn barton_suite() -> (Suite, barton::BartonIds) {
    let triples = hex_datagen::barton::generate(&BartonConfig {
        records: 2_500,
        seed: 3,
        ..BartonConfig::default()
    });
    let suite = Suite::build(&triples);
    let ids = barton::BartonIds::resolve(&suite.dict).expect("all terms generated");
    (suite, ids)
}

fn lubm_suite() -> (Suite, lubm::LubmIds) {
    let triples = hex_datagen::lubm::generate(&LubmConfig::tiny());
    let suite = Suite::build(&triples);
    let ids = lubm::LubmIds::resolve(&suite.dict).expect("all terms generated");
    (suite, ids)
}

#[test]
fn all_barton_queries_agree_across_stores() {
    let (s, ids) = barton_suite();
    assert_eq!(barton::bq1_covp1(&s.covp1, &ids), barton::bq1_indexed(&s.hexastore, &ids));
    assert_eq!(barton::bq1_indexed(&s.covp2, &ids), barton::bq1_indexed(&s.hexastore, &ids));
    for props in [None, Some(ids.interesting.as_slice())] {
        assert_eq!(
            barton::bq2_covp1(&s.covp1, &ids, props),
            barton::bq2_hexastore(&s.hexastore, &ids, props)
        );
        assert_eq!(
            barton::bq2_covp2(&s.covp2, &ids, props),
            barton::bq2_hexastore(&s.hexastore, &ids, props)
        );
        assert_eq!(
            barton::bq3_covp1(&s.covp1, &ids, props),
            barton::bq3_hexastore(&s.hexastore, &ids, props)
        );
        assert_eq!(
            barton::bq3_covp2(&s.covp2, &ids, props),
            barton::bq3_hexastore(&s.hexastore, &ids, props)
        );
        assert_eq!(
            barton::bq4_covp1(&s.covp1, &ids, props),
            barton::bq4_hexastore(&s.hexastore, &ids, props)
        );
        assert_eq!(
            barton::bq4_covp2(&s.covp2, &ids, props),
            barton::bq4_hexastore(&s.hexastore, &ids, props)
        );
        assert_eq!(
            barton::bq6_covp1(&s.covp1, &ids, props),
            barton::bq6_hexastore(&s.hexastore, &ids, props)
        );
        assert_eq!(
            barton::bq6_covp2(&s.covp2, &ids, props),
            barton::bq6_hexastore(&s.hexastore, &ids, props)
        );
    }
    assert_eq!(barton::bq5_covp1(&s.covp1, &ids), barton::bq5_hexastore(&s.hexastore, &ids));
    assert_eq!(barton::bq5_covp2(&s.covp2, &ids), barton::bq5_hexastore(&s.hexastore, &ids));
    assert_eq!(barton::bq7_covp1(&s.covp1, &ids), barton::bq7_indexed(&s.hexastore, &ids));
    assert_eq!(barton::bq7_indexed(&s.covp2, &ids), barton::bq7_indexed(&s.hexastore, &ids));
}

#[test]
fn all_lubm_queries_agree_across_stores() {
    let (s, ids) = lubm_suite();
    assert_eq!(lubm::lq1_covp1(&s.covp1, &ids), lubm::lq1_hexastore(&s.hexastore, &ids));
    assert_eq!(lubm::lq1_covp2(&s.covp2, &ids), lubm::lq1_hexastore(&s.hexastore, &ids));
    assert_eq!(lubm::lq2_covp1(&s.covp1, &ids), lubm::lq2_hexastore(&s.hexastore, &ids));
    assert_eq!(lubm::lq2_covp2(&s.covp2, &ids), lubm::lq2_hexastore(&s.hexastore, &ids));
    assert_eq!(lubm::lq3_covp1(&s.covp1, &ids), lubm::lq3_hexastore(&s.hexastore, &ids));
    assert_eq!(lubm::lq3_covp2(&s.covp2, &ids), lubm::lq3_hexastore(&s.hexastore, &ids));
    assert_eq!(lubm::lq4_covp1(&s.covp1, &ids), lubm::lq4_hexastore(&s.hexastore, &ids));
    assert_eq!(lubm::lq4_covp2(&s.covp2, &ids), lubm::lq4_hexastore(&s.hexastore, &ids));
    assert_eq!(lubm::lq5_covp1(&s.covp1, &ids), lubm::lq5_hexastore(&s.hexastore, &ids));
    assert_eq!(lubm::lq5_covp2(&s.covp2, &ids), lubm::lq5_hexastore(&s.hexastore, &ids));
}

#[test]
fn sparql_engine_agrees_with_lq1_plan() {
    // LQ1 expressed declaratively must match the hand-written osp plan.
    let (s, ids) = lubm_suite();
    let course = s.dict.decode(ids.course10).unwrap().clone();
    let query = format!("SELECT ?who ?how WHERE {{ ?who ?how {course} . }}");
    for store in [&s.hexastore as &dyn TripleStore, &s.table, &s.covp1, &s.covp2] {
        let rs = prepare_on(store, &s.dict, &query).unwrap().run();
        let mut got: Vec<(String, String)> =
            rs.rows.iter().map(|r| (r[0].to_string(), r[1].to_string())).collect();
        got.sort();
        let mut expected: Vec<(String, String)> = lubm::lq1_hexastore(&s.hexastore, &ids)
            .into_iter()
            .map(|(subj, prop)| {
                (s.dict.decode(subj).unwrap().to_string(), s.dict.decode(prop).unwrap().to_string())
            })
            .collect();
        expected.sort();
        assert_eq!(got, expected, "store {}", store.name());
    }
}

#[test]
fn sparql_engine_agrees_with_figure1_style_join_on_lubm() {
    // Students whose advisor teaches Course10 — a two-step join crossing
    // subject/object roles, evaluated on all four stores.
    let (s, ids) = lubm_suite();
    let course = s.dict.decode(ids.course10).unwrap().clone();
    let teacher_of = s.dict.decode(ids.p_teacher_of).unwrap().clone();
    let query = format!(
        "SELECT DISTINCT ?student WHERE {{
            ?student <http://lubm.example.org/advisor> ?prof .
            ?prof {teacher_of} {course} .
        }}"
    );
    let reference = {
        let mut rows = prepare_on(&s.hexastore, &s.dict, &query).unwrap().run().rows;
        rows.sort();
        rows
    };
    for store in [&s.table as &dyn TripleStore, &s.covp1, &s.covp2] {
        let mut rows = prepare_on(store, &s.dict, &query).unwrap().run().rows;
        rows.sort();
        assert_eq!(rows, reference, "store {}", store.name());
    }
}

#[test]
fn path_plans_agree_on_both_datasets() {
    let (s, _) = lubm_suite();
    let id = |name: &str| s.dict.id_of(&hex_datagen::lubm::Vocab::predicate(name)).unwrap();
    for props in [
        vec![id("advisor"), id("worksFor")],
        vec![id("advisor"), id("worksFor"), id("subOrganizationOf")],
        vec![id("takesCourse")],
    ] {
        let fast = hex_query::follow_path(&s.hexastore, &props);
        let generic_covp = hex_query::follow_path_generic(&s.covp1, &props);
        let generic_table = hex_query::follow_path_generic(&s.table, &props);
        assert_eq!(fast.ends, generic_covp.ends);
        assert_eq!(fast.ends, generic_table.ends);
    }
}
