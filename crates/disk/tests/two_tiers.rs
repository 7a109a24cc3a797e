//! The two dictionary tiers against a model.
//!
//! Every term takes the next id when it is first seen. A bulk load into
//! an empty dictionary freezes its terms, their keys sorted; every later
//! term joins the delta tier. The model is a plain `HashMap` and `Vec`
//! that number terms as they come, and the properties drive both through bulk batches, single
//! encodes, lookups, decodes and reloads — eager (`load_frozen`) and
//! mapped (`hex_disk::open`) — over terms with NUL bytes, backslashes,
//! quotes, non-ASCII text, empty lexical forms, and tagged and typed
//! literals that share their text.

use hex_dict::{term_key, Dictionary, Id};
use hexastore::{hexsnap, FrozenHexastore};
use proptest::prelude::*;
use rdf_model::{Term, TermRef, Triple};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Short texts from a palette of awkward characters.
fn text() -> impl Strategy<Value = String> {
    const PALETTE: [&str; 12] = ["a", "b", "\0", "\\", "\"", "\n", "é", "∀", "😀", "/", "#", " "];
    proptest::collection::vec(0..PALETTE.len(), 0..6)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

/// Terms of every kind. Tags and datatypes come from one small set, so a
/// tagged and a typed literal often share their text and their second
/// piece.
fn term() -> impl Strategy<Value = Term> {
    let second = || prop_oneof![Just("en"), Just("x"), Just(""), Just("http://x/dt"), Just("a\\b")];
    prop_oneof![
        text().prop_map(|t| Term::iri(format!("http://x/{t}"))),
        text().prop_map(Term::iri),
        text().prop_map(Term::blank),
        text().prop_map(Term::literal),
        (text(), second()).prop_map(|(t, tag)| Term::lang_literal(t, tag)),
        (text(), second()).prop_map(|(t, dt)| Term::typed_literal(t, dt)),
    ]
}

fn key(term: &Term) -> Vec<u8> {
    term_key(&TermRef::from(term))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Distinct terms have distinct keys, a bulk load numbers its terms
    /// first-seen and lists them in key order, and every frozen id decodes
    /// to its term and back.
    #[test]
    fn keys_are_injective_and_frozen_ids_follow_them(
        terms in proptest::collection::vec(term(), 1..40),
    ) {
        let mut by_key: HashMap<Vec<u8>, &Term> = HashMap::new();
        for t in &terms {
            if let Some(other) = by_key.insert(key(t), t) {
                prop_assert_eq!(other, t);
            }
        }
        let batch: Vec<Triple> =
            terms.iter().map(|t| Triple::new(t.clone(), t.clone(), t.clone())).collect();
        let mut dict = Dictionary::new();
        let ids = dict.encode_triples_parallel(&batch, 1);
        prop_assert_eq!(dict.frozen_len(), by_key.len());
        let decoded = dict.terms();
        let in_key_order: Vec<&Term> =
            dict.front().ids.values().map(|id| &decoded[id as usize]).collect();
        for pair in in_key_order.windows(2) {
            prop_assert!(key(pair[0]) < key(pair[1]), "{:?} before {:?}", pair[0], pair[1]);
        }
        for (rank, id) in dict.front().ids.values().enumerate() {
            prop_assert_eq!(dict.front().ranks.get(id as usize) as usize, rank);
        }
        for (t, ids) in terms.iter().zip(&ids) {
            prop_assert_eq!(dict.decode(ids.s).as_ref(), Some(t));
            prop_assert_eq!(dict.id_of(t), Some(ids.s));
        }
    }

    /// Bulk batches, encodes, lookups, decodes and reloads against the
    /// model: every id, decode and lookup is the model's, and an id once
    /// handed out never changes.
    #[test]
    fn the_two_tiers_behave_as_the_model(
        bulk in proptest::collection::vec(term(), 0..30),
        ops in proptest::collection::vec((0u8..6, term()), 0..40),
    ) {
        let mut model = Model::default();
        let mut dict = Dictionary::new();
        let batch: Vec<Triple> =
            bulk.iter().map(|t| Triple::new(t.clone(), t.clone(), t.clone())).collect();
        let got = dict.encode_triples_parallel(&batch, 1);
        model.bulk(&bulk);
        for (t, ids) in bulk.iter().zip(&got) {
            prop_assert_eq!(ids.s, model.ids[t]);
        }
        model.check(&dict, "after the bulk load");
        for (op, t) in ops {
            match op {
                0 | 1 => {
                    let id = dict.encode(&t);
                    prop_assert_eq!(id, model.encode(&t));
                }
                2 => prop_assert_eq!(dict.id_of(&t), model.ids.get(&t).copied()),
                3 => {
                    let id = Id((key(&t).len() % (model.terms.len() + 2)) as u32);
                    prop_assert_eq!(dict.decode(id), model.terms.get(id.index()).cloned());
                }
                4 => dict = reloaded(&dict, false),
                _ => dict = reloaded(&dict, true),
            }
            model.check(&dict, &format!("after op {op} on {t:?}"));
        }
    }
}

/// The dictionary saved and read back, eagerly or through a mapping.
fn reloaded(dict: &Dictionary, mapped: bool) -> Dictionary {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let n = FILES.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("two-tiers-{}-{n}", std::process::id()));
    hexsnap::save_frozen(&path, dict, &FrozenHexastore::from_triples([])).unwrap();
    let back = if mapped {
        hex_disk::open(&path).unwrap().0
    } else {
        hexsnap::load_frozen(&path).unwrap().0
    };
    std::fs::remove_file(&path).ok();
    assert_eq!(back.frozen_len(), dict.frozen_len());
    back
}

/// The two rules, spelled plainly.
#[derive(Default)]
struct Model {
    ids: HashMap<Term, Id>,
    terms: Vec<Term>,
}

impl Model {
    /// A bulk load into the empty model.
    fn bulk(&mut self, batch: &[Term]) {
        for t in batch {
            self.encode(t);
        }
    }

    fn encode(&mut self, t: &Term) -> Id {
        let next = Id(self.terms.len() as u32);
        *self.ids.entry(t.clone()).or_insert_with(|| {
            self.terms.push(t.clone());
            next
        })
    }

    fn check(&self, dict: &Dictionary, when: &str) {
        prop_assert_eq!(dict.len(), self.terms.len(), "{}", when);
        for (i, t) in self.terms.iter().enumerate() {
            prop_assert_eq!(dict.decode(Id(i as u32)).as_ref(), Some(t), "{}", when);
            prop_assert_eq!(dict.id_of(t), Some(Id(i as u32)), "{}", when);
        }
        prop_assert_eq!(dict.decode(Id(self.terms.len() as u32)), None, "{}", when);
    }
}

/// A v11 file whose frozen tier is edited in each way a reader must
/// refuse is `Corrupt`, naming the fault, through the eager loader and
/// the mapping alike — never a panic.
#[test]
fn a_corrupt_frozen_tier_is_refused_by_both_loaders() {
    // Four plain literals, one block: the whole key [2, 'a'], then
    // (shared, suffix) entries (2, "b"), (3, "c") and (1, "b").
    let terms = ["a", "ab", "abc", "b"].map(Term::literal);
    let batch: Vec<Triple> =
        terms.iter().map(|t| Triple::new(t.clone(), t.clone(), t.clone())).collect();
    let mut dict = Dictionary::new();
    dict.encode_triples_parallel(&batch, 1);
    let path = std::env::temp_dir().join(format!("two-tiers-corrupt-{}", std::process::id()));
    hexsnap::save_frozen(&path, &dict, &FrozenHexastore::from_triples([])).unwrap();
    let good = std::fs::read(&path).unwrap();
    let mut r = hexsnap::Reader::new(std::io::Cursor::new(&good)).unwrap();
    let front = r.dict_columns().unwrap().0.expect("a v11 file");
    let (blocks, offsets) = (front.bytes.offset, front.offsets.offset);
    assert_eq!(good[blocks..blocks + 12], [2, 2, b'a', 2, 1, b'b', 3, 1, b'c', 1, 1, b'b']);
    // The offsets 0 and 12, four bits each, in the column's first byte.
    assert_eq!((front.offsets.width, good[offsets]), (4, 0xC0));
    // The ids 0, 1, 2 and 3, two bits each, in the column's first byte.
    let ids = front.ids.offset;
    assert_eq!((front.ids.width, good[ids]), (2, 0xE4));
    // (what, the bytes set, what the refusal names)
    type Case<'a> = (&'a str, &'a [(usize, u8)], &'a str);
    let cases: [Case<'_>; 7] = [
        ("block offsets", &[(offsets, 0xC5)], "not a monotone cover"),
        ("a varint past its block", &[(blocks + 4, 9)], "runs past the end of its block"),
        ("a shared prefix too long", &[(blocks + 3, 3)], "shares more than the previous key"),
        ("keys out of order", &[(blocks + 3, 1), (blocks + 5, b'0')], "not strictly ascending"),
        ("no kind", &[(blocks + 1, 7)], "unknown term kind 7"),
        ("not UTF-8", &[(blocks + 2, 0xFF)], "not UTF-8"),
        ("ids 0, 1, 3, 3", &[(ids, 0xF4)], "not inverse permutations"),
    ];
    for (what, edits, why) in cases {
        let mut bytes = good.clone();
        for &(at, value) in edits {
            bytes[at] = value;
        }
        std::fs::write(&path, &bytes).unwrap();
        match hexsnap::load_frozen(&path) {
            Err(hexsnap::Error::Corrupt(got)) => assert!(got.contains(why), "{what}: {got}"),
            other => panic!("{what}: load_frozen gave {:?}", other.map(|_| ())),
        }
        match hex_disk::open(&path) {
            Err(hex_disk::Error::Snapshot(hexsnap::Error::Corrupt(got))) => {
                assert!(got.contains(why), "{what}: {got}")
            }
            other => panic!("{what}: open gave {:?}", other.map(|_| ())),
        }
    }
    std::fs::remove_file(&path).ok();
}
