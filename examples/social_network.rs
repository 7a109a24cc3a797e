//! The motivation of §3: "one may query for relationships between
//! resources without specifying those relationships (consider … the
//! proliferation of social networks)."
//!
//! Builds a small social graph, then answers relationship-discovery
//! queries that bind no property — plus a path/transitive-closure query
//! over `knows` edges (§4.3) — and contrasts the index work a Hexastore
//! does against what a property-partitioned store would have to do.
//!
//! Every index read goes through `store.ordering(kind)`: "the osp subject
//! vector of alice" is `ordering(IndexKind::Osp).division(alice)`, and the
//! path queries read only the pso and pos orderings.
//!
//! Run with: `cargo run --example social_network`

use hex_query::{path, DatasetQuery};
use hexastore::access::OrderedStore;
use hexastore::{GraphStore, IndexKind};
use rdf_model::{Term, Triple};

const EX: &str = "http://social.example.org/";

fn person(name: &str) -> Term {
    Term::iri(format!("{EX}person/{name}"))
}

fn rel(name: &str) -> Term {
    Term::iri(format!("{EX}rel/{name}"))
}

fn main() {
    let mut g = GraphStore::new();
    let edges: [(&str, &str, &str); 14] = [
        ("alice", "knows", "bob"),
        ("alice", "worksWith", "carol"),
        ("alice", "mentors", "dave"),
        ("bob", "knows", "carol"),
        ("bob", "marriedTo", "erin"),
        ("carol", "knows", "dave"),
        ("carol", "reportsTo", "frank"),
        ("dave", "knows", "erin"),
        ("erin", "mentors", "alice"),
        ("frank", "knows", "alice"),
        ("frank", "invests_in", "startup"),
        ("grace", "follows", "alice"),
        ("grace", "knows", "heidi"),
        ("heidi", "worksWith", "frank"),
    ];
    for (s, p, o) in edges {
        g.insert(&Triple::new(person(s), rel(p), person(o)));
    }
    // Done writing: the rest reads the six orderings of the slab store.
    let g = g.freeze();
    println!(
        "social graph: {} edges, {} relationship kinds\n",
        g.len(),
        g.store().ordering(IndexKind::Pso).keys().len()
    );

    // Relationship discovery: how are two people connected, if at all?
    // Property is the unknown — an (s, ?, o) probe on the sop index.
    for (a, b) in [("alice", "bob"), ("erin", "alice"), ("alice", "erin")] {
        let rs = g
            .query(&format!(r#"SELECT ?how WHERE {{ <{EX}person/{a}> ?how <{EX}person/{b}> . }}"#))
            .unwrap();
        let hows: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
        println!(
            "{a} → {b}: {}",
            if hows.is_empty() { "no direct link".into() } else { hows.join(", ") }
        );
    }

    // Who is connected to alice in any direction, by any relationship?
    // One osp probe + one spo probe; a vertically-partitioned store would
    // query all relationship tables and union (§2.2.3).
    println!("\neveryone connected to alice (any property, any direction):");
    let alice = g.id_of(&person("alice")).unwrap();
    for (s, props) in g.store().ordering(IndexKind::Osp).division(alice) {
        for p in props {
            println!(
                "  {} --{}--> alice",
                g.dict().decode(s).unwrap(),
                g.dict().decode(p).unwrap()
            );
        }
    }
    for (p, objs) in g.store().ordering(IndexKind::Spo).division(alice) {
        for o in objs {
            println!(
                "  alice --{}--> {}",
                g.dict().decode(p).unwrap(),
                g.dict().decode(o).unwrap()
            );
        }
    }

    // Path expressions (§4.3): friends-of-friends and the transitive
    // closure of `knows`.
    let knows = g.id_of(&rel("knows")).unwrap();
    let fof = path::follow_path(g.store(), &[knows, knows]);
    println!(
        "\nfriends-of-friends endpoints (knows/knows): {:?} — {} merge join, {} sort-merge",
        fof.ends.iter().map(|&e| g.dict().decode(e).unwrap().to_string()).collect::<Vec<_>>(),
        fof.stats.merge_joins,
        fof.stats.sort_merge_joins,
    );
    let reach = path::transitive_closure(g.store(), alice, knows);
    println!(
        "alice's knows-closure: {:?}",
        reach.iter().map(|&e| g.dict().decode(e).unwrap().to_string()).collect::<Vec<_>>()
    );
}
