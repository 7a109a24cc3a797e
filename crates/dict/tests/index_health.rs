//! Probe-chain gate for the dictionary's reverse index.
//!
//! `Dictionary::index_stats` counts how far linear probing displaced
//! each entry from its home slot — a pure count, the same on every host.
//! An entry's key is the term's head (kind and prefix id) and its own
//! bytes, so terms that differ only in their namespace share own bytes
//! and must still spread.
//! With a hash whose low bits do not depend on every byte of the term
//! these datasets read a mean of 83–168 slots and a maximum of
//! 1,118–3,471; a mixed hash at this load factor gives about two.

use hex_datagen::barton::{self, BartonConfig};
use hex_datagen::lubm::{self, LubmConfig};
use hex_dict::Dictionary;
use rdf_model::{Term, Triple};

fn assert_short_probe_chains(triples: &[Triple], what: &str) {
    let mut dict = Dictionary::new();
    for t in triples {
        dict.encode_triple(t);
    }
    let stats = dict.index_stats();
    assert_eq!(stats.terms, dict.len());
    assert!(stats.load_factor() > 0.0 && stats.load_factor() <= 0.875, "{what}: {stats:?}");
    assert!(stats.mean_displacement <= 3.0, "{what}: {stats:?}");
    assert!(stats.max_displacement <= 256, "{what}: {stats:?}");
    // A snapshot reload rebuilds the index in id order: same gate.
    let reloaded = Dictionary::try_from_arena(dict.image()).unwrap();
    let stats = reloaded.index_stats();
    assert!(stats.mean_displacement <= 3.0, "{what}, reloaded: {stats:?}");
    assert!(stats.max_displacement <= 256, "{what}, reloaded: {stats:?}");
}

#[test]
fn barton_and_lubm_terms_sit_near_their_home_slots() {
    let mut triples = barton::generate(&BartonConfig { records: 3_500, ..Default::default() });
    triples.extend(lubm::generate(&LubmConfig::with_universities(1)));
    assert_short_probe_chains(&triples, "Barton 3,500 records + LUBM 1 university");
}

#[test]
fn sequential_subjects_and_numeric_literals_sit_near_their_home_slots() {
    let value = Term::iri("http://example.org/value");
    let triples: Vec<Triple> = (0..200_000)
        .map(|i| {
            Triple::new(
                Term::iri(format!("http://example.org/r{i:07}")),
                value.clone(),
                Term::literal(i.to_string()),
            )
        })
        .collect();
    assert_short_probe_chains(&triples, "200k sequential subjects with numeric literals");
}

#[test]
fn an_empty_dictionary_reports_an_empty_index() {
    let stats = Dictionary::new().index_stats();
    assert_eq!((stats.slots, stats.terms, stats.max_displacement), (0, 0, 0));
    assert_eq!(stats.load_factor(), 0.0);
    assert_eq!(stats.mean_displacement, 0.0);
}
