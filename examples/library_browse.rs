//! A Longwell-style faceted browsing session over the Barton-like catalog
//! — the workload behind the paper's Barton queries (§5.2.1): "These
//! queries are based on a typical browsing session with the Longwell
//! browser."
//!
//! The session: view the type facet (BQ1), open Type:Text and look at the
//! property facets (BQ2), narrow to French texts (BQ4), then inspect what
//! a `Point: end` value means (BQ7).
//!
//! Each step reads the Hexastore's orderings as the paper's plans do, with
//! `store.ordering(kind)`: the distinct properties are the header keys of
//! pso, and the type facet is the pos division of `Type`.
//!
//! Run with: `cargo run --release --example library_browse`

use hex_bench_queries::barton::{self, BartonIds};
use hex_bench_queries::Suite;
use hex_datagen::barton::{generate, BartonConfig};
use hexastore::access::OrderedStore;
use hexastore::IndexKind;

fn main() {
    let cfg = BartonConfig { records: 20_000, ..BartonConfig::default() };
    let triples = generate(&cfg);
    let suite = Suite::build(&triples);
    let ids = BartonIds::resolve(&suite.dict).expect("catalog defines all queried terms");
    println!(
        "catalog: {} triples, {} records, {} distinct properties\n",
        suite.len(),
        cfg.records,
        suite.hexastore.ordering(IndexKind::Pso).keys().len()
    );

    // BQ1 — the type facet: counts of each Type value (one pos probe).
    println!("── type facet (BQ1) ──");
    let mut counts = barton::bq1_indexed(&suite.hexastore, &ids);
    counts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (ty, n) in &counts {
        println!("  {:<55} {n}", suite.dict.decode(*ty).unwrap().to_string());
    }

    // BQ2 — property facets for Type: Text.
    println!("\n── property facets for Type:Text (BQ2), top 10 ──");
    let mut freqs = barton::bq2_hexastore(&suite.hexastore, &ids, None);
    freqs.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (p, n) in freqs.iter().take(10) {
        println!("  {:<55} {n}", suite.dict.decode(*p).unwrap().to_string());
    }
    println!("  ({} properties total appear on Text records)", freqs.len());

    // BQ4 — narrow to French texts, with popular values per property.
    println!("\n── French texts: popular values per property (BQ4), top 5 ──");
    let popular = barton::bq4_hexastore(&suite.hexastore, &ids, None);
    for (p, pops) in popular.iter().take(5) {
        println!("  {}", suite.dict.decode(*p).unwrap());
        for (o, n) in pops.iter().take(3) {
            println!("    {:<53} {n}", suite.dict.decode(*o).unwrap().to_string());
        }
    }

    // BQ7 — what does Point: end mean? Inspect Encoding and Type.
    println!("\n── what is a Point:'end' resource? (BQ7) ──");
    let info = barton::bq7_indexed(&suite.hexastore, &ids);
    let type_values: std::collections::BTreeSet<String> = info
        .iter()
        .filter(|t| t.p == ids.p_type)
        .map(|t| suite.dict.decode(t.o).unwrap().to_string())
        .collect();
    println!(
        "  {} triples about {} resources; all of type: {:?}",
        info.len(),
        info.iter().map(|t| t.s).collect::<std::collections::BTreeSet<_>>().len(),
        type_values
    );
    println!("  → 'end' values are end dates (as the paper's user discovers).");

    // BQ5 — the inference step: non-Text inferred types of DLC records.
    println!("\n── inferred types of US-Library-of-Congress records (BQ5) ──");
    let inferred = barton::bq5_hexastore(&suite.hexastore, &ids);
    let mut by_type: std::collections::BTreeMap<String, usize> = Default::default();
    for (_, ty) in &inferred {
        *by_type.entry(suite.dict.decode(*ty).unwrap().to_string()).or_default() += 1;
    }
    for (ty, n) in &by_type {
        println!("  {ty:<55} {n}");
    }
}
