//! Workload-based index selection — the paper's §6 future-work item,
//! implemented in `hexastore::advisor`.
//!
//! "Some indices may not contribute to query efficiency based on a given
//! workload. For example, the ops index has been seldom used in our
//! experiments."
//!
//! This example profiles two workloads over a LUBM-like dataset — the
//! paper's twelve-query mix, and a purely property-bound (COVP-shaped)
//! mix — and reports which of the six indices each actually needs and the
//! memory dropping the rest would save. Dataset statistics from
//! `hexastore::stats` round out the picture.
//!
//! Run with: `cargo run --release --example index_advisor`

use hex_bench_queries::lubm::LubmIds;
use hex_bench_queries::Suite;
use hex_datagen::lubm::{generate, LubmConfig};
use hexastore::advisor::{estimate_savings, recommend, IndexKind, WorkloadProfile};
use hexastore::{DatasetStats, IdPattern, TripleStore};

fn main() {
    let triples = generate(&LubmConfig::with_universities(1));
    let suite = Suite::build(&triples);
    let ids = LubmIds::resolve(&suite.dict).expect("generated data defines all query terms");
    let h = &suite.hexastore;

    println!("dataset: {} triples, full sextuple index = {:.1} MB", h.len(), mb(h.heap_bytes()));
    let stats = DatasetStats::compute(h);
    println!(
        "  distinct s/p/o: {:?}; mean out-degree {:.1}; {:.0}% of (s,p) pairs multi-valued",
        stats.distinct,
        stats.mean_out_degree,
        stats.multi_valued_sp_fraction * 100.0
    );
    println!(
        "  property skew (Gini): {:.2}; top-3 properties: {:?}",
        stats.property_skew(),
        stats
            .top_properties(3)
            .iter()
            .map(|&p| suite.dict.decode(p).unwrap().to_string())
            .collect::<Vec<_>>()
    );

    // Workload 1: the access shapes the paper's twelve queries touch.
    let paper_workload = vec![
        IdPattern::po(ids.p_type, ids.class_university), // pos selections (BQ1-7, LQ5)
        IdPattern::sp(ids.assoc_prof10, ids.p_teacher_of), // spo probes (BQ2, LQ4)
        IdPattern::s(ids.assoc_prof10),                  // subject divisions (LQ3)
        IdPattern::o(ids.course10),                      // object divisions (LQ1, LQ2, LQ4)
        IdPattern::p(ids.p_teacher_of),                  // property divisions (path queries)
    ];
    report("paper's twelve-query mix", h, &paper_workload);

    // Workload 2: a COVP-shaped, purely property-bound application.
    let covp_workload = vec![
        IdPattern::p(ids.p_type),
        IdPattern::sp(ids.assoc_prof10, ids.p_type),
        IdPattern::po(ids.p_type, ids.class_university),
    ];
    report("property-bound (COVP-shaped) mix", h, &covp_workload);

    // Close the loop: build the recommended partial store and run a query
    // through `hex_query::prepare_on` — the planner reads `capabilities()`
    // and routes every step through a surviving index, no hand-picked
    // plan orders needed.
    let keep = recommend(&WorkloadProfile::from_patterns(&paper_workload));
    let partial = hexastore::PartialHexastore::from_triples(keep, suite.triples.iter().copied());
    let query = format!(
        "SELECT ?x WHERE {{ ?x {} {} . }} LIMIT 3",
        hex_datagen::lubm::Vocab::predicate("type"),
        hex_datagen::lubm::Vocab::class("University"),
    );
    let plan = hex_query::prepare_on(&partial, &suite.dict, &query)
        .expect("query compiles against the suite dictionary");
    println!("\nauto-planned query on the reduced store ({} of 6 orderings):", keep.len());
    print!("{}", plan.explain());
    for row in plan.solutions() {
        println!("  -> {}", row[0]);
    }
}

fn report(name: &str, h: &hexastore::Hexastore, workload: &[IdPattern]) {
    let profile = WorkloadProfile::from_patterns(workload);
    let keep = recommend(&profile);
    let saved = estimate_savings(h, keep);
    println!("\nworkload: {name}");
    println!("  shapes used: {:?}", profile.used_shapes());
    println!(
        "  indices needed: {:?} ({} of 6); ops needed: {}",
        keep,
        keep.len(),
        keep.contains(IndexKind::Ops)
    );
    println!(
        "  dropping the rest saves ≈ {:.1} MB of {:.1} MB ({:.0}%)",
        mb(saved),
        mb(h.heap_bytes()),
        100.0 * saved as f64 / h.heap_bytes() as f64
    );
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
