//! The paper's Figure 1 worked example, verified literally at string
//! level, including the §4.1 index-content walkthrough.

use hex_dict::Id;
use hex_query::DatasetQuery;
use hexastore::access::OrderedStore;
use hexastore::IndexKind::{Ops, Osp, Pos, Sop};
use hexastore::{FrozenGraphStore, GraphStore};
use rdf_model::{Term, TermPattern, Triple, TriplePattern};

const EX: &str = "http://example.org/";

fn iri(name: &str) -> Term {
    Term::iri(format!("{EX}{name}"))
}

fn lit(s: &str) -> Term {
    Term::literal(s)
}

/// The sorted subject vector of object `o` in osp — §4.1's "subject
/// vector for the object".
fn subject_vector(g: &FrozenGraphStore, o: Id) -> Vec<Id> {
    g.store().ordering(Osp).division(o).map(|(s, _)| s).collect()
}

fn figure1() -> FrozenGraphStore {
    let mut g = GraphStore::new();
    let rows: [(&str, &str, Term); 19] = [
        ("ID1", "type", iri("FullProfessor")),
        ("ID1", "teacherOf", lit("AI")),
        ("ID1", "bachelorFrom", lit("MIT")),
        ("ID1", "mastersFrom", lit("Cambridge")),
        ("ID1", "phdFrom", lit("Yale")),
        ("ID2", "type", iri("AssocProfessor")),
        ("ID2", "worksFor", lit("MIT")),
        ("ID2", "teacherOf", lit("DataBases")),
        ("ID2", "bachelorsFrom", lit("Yale")),
        ("ID2", "phdFrom", lit("Stanford")),
        ("ID3", "type", iri("GradStudent")),
        ("ID3", "advisor", iri("ID2")),
        ("ID3", "teachingAssist", lit("AI")),
        ("ID3", "bachelorsFrom", lit("Stanford")),
        ("ID3", "mastersFrom", lit("Princeton")),
        ("ID4", "type", iri("GradStudent")),
        ("ID4", "advisor", iri("ID1")),
        ("ID4", "takesCourse", lit("DataBases")),
        ("ID4", "bachelorsFrom", lit("Columbia")),
    ];
    for (s, p, o) in rows {
        assert!(g.insert(&Triple::new(iri(s), iri(p), o)));
    }
    g.freeze()
}

#[test]
fn upper_query_relationship_of_id2_to_mit() {
    let g = figure1();
    let rs =
        g.query(&format!(r#"SELECT ?property WHERE {{ <{EX}ID2> ?property "MIT" . }}"#)).unwrap();
    assert_eq!(rs.rows, vec![vec![iri("worksFor")]]);
}

#[test]
fn lower_query_same_relationship_to_stanford() {
    let g = figure1();
    let rs = g
        .query(&format!(
            r#"SELECT ?b WHERE {{
                <{EX}ID1> ?prop "Yale" .
                ?b ?prop "Stanford" .
            }}"#
        ))
        .unwrap();
    // ID1 phdFrom Yale; ID2 phdFrom Stanford.
    assert_eq!(rs.rows, vec![vec![iri("ID2")]]);
}

#[test]
fn section_4_1_ops_example_for_mit() {
    // "the ops indexing … includes a property vector for the object 'MIT'
    // … two property entries, namely bachelorFrom and worksFor", each with
    // a one-item subject list (ID1, ID2 respectively).
    let g = figure1();
    let mit = g.id_of(&lit("MIT")).unwrap();
    let props: Vec<String> = g
        .store()
        .ordering(Ops)
        .division(mit)
        .map(|(p, _)| g.dict().decode(p).unwrap().to_string())
        .collect();
    assert_eq!(props, vec![format!("<{EX}bachelorFrom>"), format!("<{EX}worksFor>")]);
    let bachelor = g.id_of(&iri("bachelorFrom")).unwrap();
    let works_for = g.id_of(&iri("worksFor")).unwrap();
    let id1 = g.id_of(&iri("ID1")).unwrap();
    let id2 = g.id_of(&iri("ID2")).unwrap();
    assert_eq!(g.store().ordering(Pos).list(bachelor, mit), &[id1]);
    assert_eq!(g.store().ordering(Pos).list(works_for, mit), &[id2]);
}

#[test]
fn section_4_1_osp_example_for_stanford() {
    // "the osp indexing includes a subject vector for the object
    // 'Stanford' … two subject entries, namely ID2 and ID3", with property
    // lists {phdFrom} and {bachelorsFrom}.
    let g = figure1();
    let stanford = g.id_of(&lit("Stanford")).unwrap();
    let id2 = g.id_of(&iri("ID2")).unwrap();
    let id3 = g.id_of(&iri("ID3")).unwrap();
    assert_eq!(subject_vector(&g, stanford), vec![id2, id3]);
    let phd = g.id_of(&iri("phdFrom")).unwrap();
    let bachelors = g.id_of(&iri("bachelorsFrom")).unwrap();
    assert_eq!(g.store().ordering(Sop).list(id2, stanford), &[phd]);
    assert_eq!(g.store().ordering(Sop).list(id3, stanford), &[bachelors]);
}

#[test]
fn motivation_queries_from_section_2_2_3() {
    let g = figure1();
    // "people who hold a degree, of any type, from a certain university":
    // anyone related to Yale.
    let yale_pat =
        TriplePattern::new(TermPattern::var("who"), TermPattern::var("how"), lit("Yale"));
    let yale_hits = g.matching(&yale_pat);
    assert_eq!(yale_hits.len(), 2); // ID1 phdFrom, ID2 bachelorsFrom
                                    // "people who are anyhow related with both of a pair of universities":
                                    // merge-join of two osp subject vectors (here: Yale ∩ Stanford = ID2).
    let yale = g.id_of(&lit("Yale")).unwrap();
    let stanford = g.id_of(&lit("Stanford")).unwrap();
    let both =
        hexastore::sorted::intersect(&subject_vector(&g, yale), &subject_vector(&g, stanford));
    let id2 = g.id_of(&iri("ID2")).unwrap();
    assert_eq!(both, vec![id2]);
}

#[test]
fn ntriples_roundtrip_preserves_figure1() {
    let g = figure1();
    let doc = g.to_ntriples();
    let mut g2 = GraphStore::new();
    g2.load_ntriples(&doc).unwrap();
    assert_eq!(g2.len(), g.len());
    let mut a = g.triples();
    let mut b = g2.triples();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}
