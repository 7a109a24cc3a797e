//! Oracle tests for the batch encoder and the arena constructors.
//!
//! The contract under test is byte-identity: for any triple batch — owned
//! `Triple`s, borrowed `TripleRef`s, or the `Statement`s the tokenizer
//! yields for the batch written as N-Triples — and any worker count it is
//! allowed, `encode_triples_parallel` must return exactly the ids a
//! serial first-seen `encode_triple` loop over owned triples returns, and
//! the same terms in the same id order. Not "equivalent up to
//! renumbering": identical, so snapshots and plans built either way are
//! interchangeable. Beyond that it must
//!
//! - into a dictionary that holds terms, leave it in *exactly* the loop's
//!   state — same head column, same offset tables, same arena bytes;
//! - into an empty dictionary (a bulk load), leave every term in the
//!   frozen tier and the delta tier empty, the frozen tier's key order
//!   the one computed here from this file's own spelling of the key, and
//!   its bytes the same whatever the input form or worker count.
//!
//! The batch encoder is the loop today (the hash-sharded one it replaced
//! did not pay for itself); this is the oracle any encoder that does use
//! its workers has to pass.
//!
//! The corruption half drives the arena constructor with every
//! single-byte flip of the head column and the two offset tables, and
//! every truncation of the two arenas, over terms of every kind (IRIs
//! under a shared namespace, tagged and typed literals among them),
//! asserting rejection or a well-formed dictionary — never a panic.

use hex_dict::packed::PackedColumn;
use hex_dict::{ArenaImage, Dictionary, FrontImage, Id, IdTriple};
use proptest::prelude::*;
use rdf_model::{Term, TermRef, Triple, TripleRef};

fn iri_strategy() -> impl Strategy<Value = Term> {
    (0u32..40).prop_map(|i| Term::iri(format!("http://example.org/node/{i}")))
}

/// What may stand as a subject: IRIs and blank nodes.
fn resource_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![iri_strategy(), (0u32..20).prop_map(|i| Term::blank(format!("b{i}")))]
}

/// Terms across all five kinds, with repeats likely (small id spaces)
/// and multi-byte UTF-8 in literal content.
fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        2 => resource_strategy(),
        1 => (0u32..30).prop_map(|i| Term::literal(format!("plain value {i} é∀"))),
        1 => ((0u32..15), prop_oneof![Just("en"), Just("fr"), Just("de-CH")])
            .prop_map(|(i, tag)| Term::lang_literal(format!("étiquette {i}"), tag)),
        1 => (0u32..15).prop_map(|i| Term::typed_literal(
            format!("{i}"),
            "http://www.w3.org/2001/XMLSchema#integer"
        )),
        // The canonicalized case: typed xsd:string must intern as plain.
        1 => (0u32..10).prop_map(|i| Term::typed_literal(
            format!("s{i}"),
            "http://www.w3.org/2001/XMLSchema#string"
        )),
    ]
}

/// Batches with any kind of term in any position, and batches of valid
/// RDF — the ones that can be written as N-Triples and read back.
fn triple_strategy() -> impl Strategy<Value = Vec<Triple>> {
    let anywhere = (term_strategy(), term_strategy(), term_strategy());
    let valid = (resource_strategy(), iri_strategy(), term_strategy());
    prop_oneof![
        proptest::collection::vec(anywhere.prop_map(|(s, p, o)| Triple::new(s, p, o)), 0..120),
        proptest::collection::vec(valid.prop_map(|(s, p, o)| Triple::new(s, p, o)), 0..120),
    ]
}

/// A term's frozen-tier key, spelled out apart from the library: its
/// kind byte, then for a tagged or typed literal the LEB128 length and
/// bytes of the tag or datatype IRI, then its text.
fn key(term: &Term) -> Vec<u8> {
    let view = TermRef::from(term);
    let (text, second) = view.pieces();
    let mut key = vec![view.kind() as u8];
    if let Some(second) = second {
        let mut n = second.len();
        while n >= 0x80 {
            key.push((n & 0x7F) as u8 | 0x80);
            n >>= 7;
        }
        key.push(n as u8);
        key.extend_from_slice(second.as_bytes());
    }
    key.extend_from_slice(text.as_bytes());
    key
}

/// What a batch must leave: its ids, the terms in id order, the delta
/// tier's columns and, after a bulk load, the ids in key order.
struct Expected {
    ids: Vec<IdTriple>,
    terms: Vec<Term>,
    delta: ArenaImage,
    key_order: Vec<u32>,
}

impl Expected {
    /// What `triples` encoded from `base` must leave: the serial loop's
    /// ids and terms, and its delta columns unless `base` is empty.
    fn of(base: &Dictionary, triples: &[Triple]) -> Self {
        let mut serial = base.clone();
        let ids: Vec<IdTriple> = triples.iter().map(|t| serial.encode_triple(t)).collect();
        let terms = serial.terms();
        if !base.is_empty() {
            return Expected { ids, terms, delta: serial.image(), key_order: Vec::new() };
        }
        let keys: Vec<Vec<u8>> = terms.iter().map(key).collect();
        let mut key_order: Vec<u32> = (0..terms.len() as u32).collect();
        key_order.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
        Expected { ids, terms, delta: Dictionary::new().image(), key_order }
    }
}

/// Encodes `triples` from `base` with `threads` workers allowed — as
/// owned input, as borrowed input and, when the batch is valid RDF, as
/// the statements its N-Triples text tokenizes to — asserting each
/// leaves the ids and dictionary `want` says, and, from an empty `base`,
/// a frozen tier byte-identical to `front`'s (set by the first call).
fn assert_batch_matches(
    base: &Dictionary,
    triples: &[Triple],
    threads: usize,
    want: &Expected,
    front: &mut Option<FrontImage>,
) {
    let mut check = |dict: Dictionary, got: Vec<IdTriple>, ctx: String| {
        assert_eq!(got, want.ids, "{ctx}");
        assert_eq!(dict.len(), want.terms.len(), "{ctx}: term count");
        assert_eq!(dict.terms(), want.terms, "{ctx}: id-ordered terms");
        assert_eq!(dict.image(), want.delta, "{ctx}: the delta tier's five columns");
        for (t, ids) in triples.iter().zip(&got) {
            assert_eq!(dict.decode_triple(*ids).as_ref(), Some(t), "{ctx}: decoded");
        }
        if base.is_empty() {
            assert_eq!(dict.frozen_len(), dict.len(), "{ctx}: a bulk load freezes every term");
            let key_order: Vec<u32> = dict.front().ids.values().collect();
            assert_eq!(key_order, want.key_order, "{ctx}: the ids in key order");
            let front = front.get_or_insert_with(|| dict.front().clone());
            assert_eq!(dict.front(), front, "{ctx}: the frozen tier's bytes");
        } else {
            assert_eq!(dict.front(), base.front(), "{ctx}: the frozen tier is kept");
        }
    };
    let mut dict = base.clone();
    let got = dict.encode_triples_parallel(triples, threads);
    check(dict, got, format!("owned, {threads} threads"));
    let borrowed: Vec<TripleRef<'_>> = triples.iter().map(TripleRef::from).collect();
    let mut dict = base.clone();
    let got = dict.encode_triples_parallel(&borrowed, threads);
    check(dict, got, format!("borrowed, {threads} threads"));
    if triples.iter().all(Triple::is_valid_rdf) {
        let text = rdf_model::write_document(triples);
        let statements = rdf_model::parse_document(&text).unwrap();
        let mut dict = base.clone();
        let got = dict.encode_triples_parallel(&statements, threads);
        check(dict, got, format!("statements, {threads} threads"));
    }
}

#[test]
fn the_key_spelled_here_is_the_library_key() {
    for term in [
        Term::iri("http://x/a"),
        Term::blank("b"),
        Term::literal(""),
        Term::lang_literal("x", "en"),
        Term::typed_literal("1", "http://www.w3.org/2001/XMLSchema#integer"),
        Term::lang_literal("long", "t".repeat(300)),
    ] {
        assert_eq!(hex_dict::term_key(&TermRef::from(&term)), key(&term), "{term}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every worker count 1–8, the batch encoder's ids and terms are
    /// the serial first-seen loop's.
    #[test]
    fn sharded_encode_is_byte_identical_to_serial(triples in triple_strategy()) {
        let base = Dictionary::new();
        let want = Expected::of(&base, &triples);
        let mut front = None;
        for threads in 1..=8usize {
            assert_batch_matches(&base, &triples, threads, &want, &mut front);
        }
    }

    /// Byte identity when the dictionary already holds terms: base ids
    /// are reused, new terms extend the delta in serial first-seen order
    /// — over a delta-only base and over one a bulk load froze.
    #[test]
    fn sharded_encode_is_byte_identical_over_a_seeded_base(
        seed in proptest::collection::vec(term_strategy(), 0..40),
        triples in triple_strategy(),
    ) {
        let mut interned = Dictionary::new();
        for t in &seed {
            interned.encode(t);
        }
        let mut frozen = Dictionary::new();
        let seed_triples: Vec<Triple> =
            seed.iter().map(|t| Triple::new(t.clone(), t.clone(), t.clone())).collect();
        frozen.encode_triples_parallel(&seed_triples, 1);
        for base in [interned, frozen] {
            let want = Expected::of(&base, &triples);
            for threads in [2usize, 3, 5, 8] {
                assert_batch_matches(&base, &triples, threads, &want, &mut None);
            }
        }
    }

    /// Flipping any single byte of the head column or of either offset
    /// table either yields a rejection or a dictionary whose every decode
    /// stays well-formed — never a panic, never an id resolving outside
    /// the arenas.
    #[test]
    fn offset_table_byte_flips_never_panic(
        terms in proptest::collection::vec(term_strategy(), 1..30),
        flip_byte in 0usize..4096,
        mask in 1u8..=255,
    ) {
        let mut d = Dictionary::new();
        for t in &terms {
            d.encode(t);
        }
        let image = d.image();
        let columns = [&image.heads, &image.ends, &image.prefix_ends];
        let total: usize = columns.iter().map(|c| c.view().bytes().len()).sum();
        let mut at = flip_byte % total;
        let mut flip = |column: &PackedColumn| {
            let mut bytes = column.view().bytes().to_vec();
            if at < bytes.len() {
                bytes[at] ^= mask;
            }
            at = at.wrapping_sub(bytes.len());
            PackedColumn::from_bytes(bytes, column.width(), column.len())
        };
        let (heads, ends, prefix_ends) =
            (flip(&image.heads), flip(&image.ends), flip(&image.prefix_ends));
        // A flip that leaves an image non-canonical is refused before the
        // dictionary sees it; the rest must be rejected or decode.
        let (Ok(heads), Ok(ends), Ok(prefix_ends)) = (heads, ends, prefix_ends) else {
            continue;
        };
        let flipped = ArenaImage { heads, ends, prefix_ends, ..image };
        if let Ok(rebuilt) = Dictionary::try_from_arena(flipped) {
            for id in 0..rebuilt.len() as u32 {
                let term = rebuilt.decode(Id(id));
                prop_assert!(term.is_some(), "id {} lost by an accepted table", id);
            }
        }
    }

    /// Truncating either arena at every cut point is rejected: the
    /// offset table no longer covers it.
    #[test]
    fn arena_truncation_at_every_cut_never_panics(
        terms in proptest::collection::vec(term_strategy(), 1..20),
    ) {
        let mut d = Dictionary::new();
        for t in &terms {
            d.encode(t);
        }
        let image = d.image();
        for cut in 0..image.arena.len() {
            let arena = image.arena[..cut].to_vec().into();
            let result = Dictionary::try_from_arena(ArenaImage { arena, ..image.clone() });
            prop_assert!(result.is_err(), "term arena cut at {} accepted", cut);
        }
        for cut in 0..image.prefixes.len() {
            let prefixes = image.prefixes[..cut].to_vec().into();
            let result = Dictionary::try_from_arena(ArenaImage { prefixes, ..image.clone() });
            prop_assert!(result.is_err(), "prefix arena cut at {} accepted", cut);
        }
    }
}

/// A deterministic pass big enough to exercise index growth and many
/// blocks, with the borrowed input coming from the tokenizer itself: 20,000 statements
/// over ~1,500 distinct terms, written as N-Triples and parsed back, so
/// escape-free terms are slices of the text and the escaped literals own
/// theirs.
#[test]
fn sharded_encode_matches_serial_at_index_growth_scale() {
    let triples: Vec<Triple> = (0..20_000)
        .map(|i| {
            Triple::new(
                Term::iri(format!("http://example.org/subject/{}", i % 700)),
                Term::iri(format!("http://example.org/predicate/{}", i % 29)),
                match i % 4 {
                    0 => Term::literal(format!("object value {}", i % 500)),
                    1 => Term::lang_literal(format!("valeur {}", i % 200), "fr"),
                    2 => Term::literal(format!("line {}\n\"quoted\"\ttab", i % 100)),
                    _ => Term::typed_literal(
                        format!("{}", i % 300),
                        "http://www.w3.org/2001/XMLSchema#integer",
                    ),
                },
            )
        })
        .collect();
    let base = Dictionary::new();
    let want = Expected::of(&base, &triples);
    let mut front = None;
    for threads in [2usize, 4, 8] {
        assert_batch_matches(&base, &triples, threads, &want, &mut front);
    }
}
