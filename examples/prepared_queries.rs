//! The streaming query surface: `prepare` → `explain` → `Solutions`.
//!
//! Prepares queries instead of running them in one shot: the returned
//! `Plan` shows its cost-annotated, index-aware join order (`explain`),
//! and streams rows lazily (`solutions`), so ASK stops at the first
//! answer and LIMIT after `offset + limit` rows. The same `prepare`
//! surface now runs on *every* string-level facade — the mutable
//! `GraphStore`, the read-only `FrozenGraphStore` it freezes into, and
//! an advisor-reduced `PartialGraphStore` — and can refine its join
//! order with dataset statistics (`prepare_with_stats`).
//!
//! Run with: `cargo run --example prepared_queries`

use hex_query::DatasetQuery;
use hexastore::advisor::{recommend, WorkloadProfile};
use hexastore::{Dataset, GraphStore, IdPattern, PartialHexastore, TripleStore};

const EX: &str = "http://example.org/";

fn main() {
    // The paper's Figure 1 academic micro-graph.
    let mut g = GraphStore::new();
    g.load_ntriples(&format!(
        r#"
<{EX}ID1> <{EX}type> <{EX}FullProfessor> .
<{EX}ID1> <{EX}teacherOf> "AI" .
<{EX}ID1> <{EX}bachelorFrom> "MIT" .
<{EX}ID1> <{EX}phdFrom> "Yale" .
<{EX}ID2> <{EX}type> <{EX}AssocProfessor> .
<{EX}ID2> <{EX}worksFor> "MIT" .
<{EX}ID2> <{EX}teacherOf> "DataBases" .
<{EX}ID2> <{EX}phdFrom> "Stanford" .
<{EX}ID3> <{EX}type> <{EX}GradStudent> .
<{EX}ID3> <{EX}advisor> <{EX}ID2> .
<{EX}ID3> <{EX}teachingAssist> "AI" .
<{EX}ID4> <{EX}type> <{EX}GradStudent> .
<{EX}ID4> <{EX}advisor> <{EX}ID1> .
<{EX}ID4> <{EX}takesCourse> "DataBases" .
"#
    ))
    .expect("well-formed N-Triples");

    // 1. Prepare once, inspect the plan, then stream the solutions.
    let query = format!(
        r#"SELECT ?student ?prof WHERE {{
            ?student <{EX}type> <{EX}GradStudent> .
            ?student <{EX}advisor> ?prof .
            FILTER(?prof != <{EX}ID1>)
        }}"#
    );
    let plan = g.prepare(&query).expect("query compiles");
    println!("=== plan on the full Hexastore ===");
    print!("{}", plan.explain());
    println!("--- solutions (streamed) ---");
    for row in plan.solutions() {
        let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
        println!("  {}", cells.join("  "));
    }

    // 2. The statistics mode refines join estimates by bound-variable
    //    fan-out; explain() shows the refined per-step costs.
    let stats = g.stats();
    let refined = g.prepare_with_stats(&query, Some(&stats)).expect("query compiles");
    println!("\n=== same query, statistics-driven planner ===");
    print!("{}", refined.explain());

    // 3. The identical surface runs on the frozen (read-only, slab-backed)
    //    facade — freeze carries the dictionary along.
    let frozen = g.freeze();
    let ask = format!("ASK {{ ?who <{EX}worksFor> \"MIT\" . }}");
    println!("\n=== {ask} on the FrozenGraphStore ===");
    println!("answer: {}", frozen.ask(&ask).expect("query compiles"));

    // 4. And on a reduced store: profile the workload, keep only the
    //    recommended orderings, and let the planner route every step
    //    through a surviving index.
    let workload = [
        IdPattern::po(
            g.id_of(&rdf_model::Term::iri(format!("{EX}type"))).unwrap(),
            g.id_of(&rdf_model::Term::iri(format!("{EX}GradStudent"))).unwrap(),
        ),
        IdPattern::s(g.id_of(&rdf_model::Term::iri(format!("{EX}ID3"))).unwrap()),
    ];
    let keep = recommend(&WorkloadProfile::from_patterns(&workload));
    let partial = Dataset::from_parts(
        g.dict().clone(),
        PartialHexastore::from_triples(keep, g.store().matching(IdPattern::ALL)),
    );
    println!(
        "\n=== same surface on a PartialGraphStore keeping {:?} ({} of 6 orderings) ===",
        partial.store().capabilities(),
        partial.store().capabilities().len()
    );
    let reduced_query = format!(
        r#"SELECT ?s WHERE {{
            ?s <{EX}type> <{EX}GradStudent> .
            ?s <{EX}teachingAssist> "AI" .
        }}"#
    );
    let plan = partial.prepare(&reduced_query).expect("query compiles");
    print!("{}", plan.explain());
    println!("--- solutions ---");
    for row in plan.solutions() {
        println!("  {}", row[0]);
    }
    println!(
        "\nmemory: partial {} B vs full {} B",
        partial.store().heap_bytes(),
        g.store().heap_bytes()
    );
}
