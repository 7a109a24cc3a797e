//! Quickstart: the paper's Figure 1 worked example, end to end.
//!
//! Loads the sample academic RDF data of Figure 1(a), then runs the two
//! SQL queries of Figure 1(b) — both *not property-bound* — through the
//! SPARQL-like query engine, plus a few direct pattern probes that show
//! off the six access paths.
//!
//! Run with: `cargo run --example quickstart`

use hex_query::DatasetQuery;
use hexastore::GraphStore;
use rdf_model::{Term, TermPattern, TriplePattern};

const EX: &str = "http://example.org/";

fn main() {
    let mut g = GraphStore::new();

    // Figure 1(a): academic information about four people.
    let doc = format!(
        r#"
<{EX}ID1> <{EX}type> <{EX}FullProfessor> .
<{EX}ID1> <{EX}teacherOf> "AI" .
<{EX}ID1> <{EX}bachelorFrom> "MIT" .
<{EX}ID1> <{EX}mastersFrom> "Cambridge" .
<{EX}ID1> <{EX}phdFrom> "Yale" .
<{EX}ID2> <{EX}type> <{EX}AssocProfessor> .
<{EX}ID2> <{EX}worksFor> "MIT" .
<{EX}ID2> <{EX}teacherOf> "DataBases" .
<{EX}ID2> <{EX}bachelorsFrom> "Yale" .
<{EX}ID2> <{EX}phdFrom> "Stanford" .
<{EX}ID3> <{EX}type> <{EX}GradStudent> .
<{EX}ID3> <{EX}advisor> <{EX}ID2> .
<{EX}ID3> <{EX}teachingAssist> "AI" .
<{EX}ID3> <{EX}bachelorsFrom> "Stanford" .
<{EX}ID3> <{EX}mastersFrom> "Princeton" .
<{EX}ID4> <{EX}type> <{EX}GradStudent> .
<{EX}ID4> <{EX}advisor> <{EX}ID1> .
<{EX}ID4> <{EX}takesCourse> "DataBases" .
<{EX}ID4> <{EX}bachelorsFrom> "Columbia" .
"#
    );
    let added = g.load_ntriples(&doc).expect("well-formed N-Triples");
    println!("loaded {added} triples; store reports {}", g.len());

    // Figure 1(b), upper query: what relationship does ID2 have to MIT?
    let rs =
        g.query(&format!(r#"SELECT ?property WHERE {{ <{EX}ID2> ?property "MIT" . }}"#)).unwrap();
    println!("\nQ1: how is ID2 related to MIT?");
    print!("{}", rs.to_tsv());

    // Figure 1(b), lower query: who has the same relationship to Stanford
    // as ID1 has to Yale?
    let rs = g
        .query(&format!(
            r#"SELECT ?b WHERE {{
                <{EX}ID1> ?prop "Yale" .
                ?b ?prop "Stanford" .
            }}"#
        ))
        .unwrap();
    println!("\nQ2: same relationship to Stanford as ID1 has to Yale?");
    print!("{}", rs.to_tsv());

    // §4.1's ops example: the property vector of object 'MIT' holds
    // bachelorFrom and worksFor. An object-bound probe, no property scan.
    println!("\nHow is anyone related to MIT? (ops probe)");
    for t in g.matching(&TriplePattern::new(
        TermPattern::var("who"),
        TermPattern::var("how"),
        Term::literal("MIT"),
    )) {
        println!("  {t}");
    }

    // Space accounting: the paper's ≤5× worst-case bound, on real data.
    let stats = g.store().freeze().space_stats();
    println!(
        "\nspace: {} triples, {} key entries ({}h + {}v + {}l), blowup {:.2}x (bound 5x)",
        stats.triples,
        stats.total_entries(),
        stats.header_entries,
        stats.vector_entries,
        stats.list_entries,
        stats.blowup()
    );
}
