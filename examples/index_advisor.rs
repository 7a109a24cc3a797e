//! Workload-based index selection — the paper's §6 future-work item,
//! implemented in `hexastore::advisor`.
//!
//! "Some indices may not contribute to query efficiency based on a given
//! workload. For example, the ops index has been seldom used in our
//! experiments."
//!
//! This example profiles two workloads over a LUBM-like dataset — the
//! paper's twelve-query mix, and a purely property-bound (COVP-shaped)
//! mix — and reports which of the six indices each actually needs, then
//! builds that reduced store and measures its heap against the full
//! frozen store's. Dataset statistics from `hexastore::stats` round out
//! the picture.
//!
//! Run with: `cargo run --release --example index_advisor`

use hex_bench_queries::lubm::LubmIds;
use hex_bench_queries::Suite;
use hex_datagen::lubm::{generate, LubmConfig};
use hex_dict::IdTriple;
use hexastore::advisor::{recommend, IndexKind, WorkloadProfile};
use hexastore::{DatasetStats, FrozenHexastore, IdPattern, PartialHexastore, TripleStore};

fn main() {
    let triples = generate(&LubmConfig::with_universities(1));
    let suite = Suite::build(&triples);
    let ids = LubmIds::resolve(&suite.dict).expect("generated data defines all query terms");
    let h = &suite.hexastore;

    let full = FrozenHexastore::from_triples(suite.triples.iter().copied());
    println!(
        "dataset: {} triples, full sextuple index = {:.1} MB mutable, {:.1} MB frozen",
        h.len(),
        mb(h.heap_bytes()),
        mb(full.heap_bytes())
    );
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
    let partial = report("paper's twelve-query mix", &suite.triples, &full, &paper_workload);

    // Workload 2: a COVP-shaped, purely property-bound application.
    let covp_workload = vec![
        IdPattern::p(ids.p_type),
        IdPattern::sp(ids.assoc_prof10, ids.p_type),
        IdPattern::po(ids.p_type, ids.class_university),
    ];
    report("property-bound (COVP-shaped) mix", &suite.triples, &full, &covp_workload);

    // Close the loop: run a query on the paper mix's partial store
    // through `hex_query::prepare_on` — the planner reads `capabilities()`
    // and routes every step through a surviving index, no hand-picked
    // plan orders needed.
    let query = format!(
        "SELECT ?x WHERE {{ ?x {} {} . }} LIMIT 3",
        hex_datagen::lubm::Vocab::predicate("type"),
        hex_datagen::lubm::Vocab::class("University"),
    );
    let plan = hex_query::prepare_on(&partial, &suite.dict, &query)
        .expect("query compiles against the suite dictionary");
    println!(
        "\nauto-planned query on the reduced store ({} of 6 orderings):",
        partial.capabilities().len()
    );
    print!("{}", plan.explain());
    for row in plan.solutions() {
        println!("  -> {}", row[0]);
    }
}

/// Prints what `workload` needs and what keeping only that costs, and
/// returns the reduced store.
fn report(
    name: &str,
    triples: &[IdTriple],
    full: &FrozenHexastore,
    workload: &[IdPattern],
) -> PartialHexastore {
    let profile = WorkloadProfile::from_patterns(workload);
    let keep = recommend(&profile);
    let partial = PartialHexastore::from_triples(keep, triples.iter().copied());
    println!("\nworkload: {name}");
    println!("  shapes used: {:?}", profile.used_shapes());
    println!(
        "  indices needed: {:?} ({} of 6); ops needed: {}",
        keep,
        keep.len(),
        keep.contains(IndexKind::Ops)
    );
    let (kept, all) = (partial.heap_bytes(), full.heap_bytes());
    println!(
        "  measured heap: partial store {kept} B ({:.1} B/triple) vs full frozen store {all} B \
         ({:.1} B/triple), {:.0}% saved",
        kept as f64 / full.len() as f64,
        all as f64 / full.len() as f64,
        100.0 * (1.0 - kept as f64 / all as f64)
    );
    partial
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
