//! Oracle tests for the batch encoder and the arena constructors.
//!
//! The contract under test is byte-identity: for any triple batch —
//! owned `Triple`s, borrowed `TripleRef`s, or the `Statement`s the
//! tokenizer yields for the batch written as N-Triples — and any worker
//! count it is allowed, `encode_triples_parallel` must
//! leave the dictionary in *exactly* the state a serial first-seen
//! `encode_triple` loop over owned triples produces — same ids, same id
//! order, same head column, same offset tables, same arena bytes. Not
//! "equivalent up to renumbering": identical, so snapshots and plans
//! built either way are interchangeable. The batch encoder is that loop
//! today (the hash-sharded one it replaced did not pay for itself); this
//! is the oracle any encoder that does use its workers has to pass.
//!
//! The corruption half drives the arena constructor with every
//! single-byte flip of the head column and the two offset tables, and
//! every truncation of the two arenas, over terms of every kind (IRIs
//! under a shared namespace, tagged and typed literals among them),
//! asserting rejection or a well-formed dictionary — never a panic.

use hex_dict::packed::PackedColumn;
use hex_dict::{ArenaImage, Dictionary, Id, IdTriple};
use proptest::prelude::*;
use rdf_model::{Term, Triple, TripleRef};

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

/// Encodes `triples` from `base` with `threads` workers allowed — as
/// owned input, as borrowed input and, when the batch is valid RDF, as
/// the statements its N-Triples text tokenizes to — asserting each
/// leaves ids and dictionary identical to `want` and `serial`.
fn assert_batch_matches(
    base: &Dictionary,
    triples: &[Triple],
    threads: usize,
    want: &[IdTriple],
    serial: &Dictionary,
) {
    fn check<T>(
        input: &[T],
        ctx: String,
        (base, threads, want, serial): (&Dictionary, usize, &[IdTriple], &Dictionary),
    ) where
        for<'t> &'t T: Into<TripleRef<'t>>,
    {
        let mut dict = base.clone();
        assert_eq!(dict.encode_triples_parallel(input, threads), want, "{ctx}");
        assert_dictionaries_byte_identical(serial, &dict, &ctx);
    }
    let against = (base, threads, want, serial);
    check(triples, format!("owned, {threads} threads"), against);
    let borrowed: Vec<TripleRef<'_>> = triples.iter().map(TripleRef::from).collect();
    check(&borrowed, format!("borrowed, {threads} threads"), against);
    if triples.iter().all(Triple::is_valid_rdf) {
        let text = rdf_model::write_document(triples);
        let statements = rdf_model::parse_document(&text).unwrap();
        check(&statements, format!("statements, {threads} threads"), against);
    }
}

fn assert_dictionaries_byte_identical(serial: &Dictionary, parallel: &Dictionary, ctx: &str) {
    assert_eq!(parallel.len(), serial.len(), "{ctx}: term count");
    assert_eq!(parallel.image(), serial.image(), "{ctx}: the five columns");
    assert_eq!(parallel.terms(), serial.terms(), "{ctx}: id-ordered terms");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every worker count 1–8, the batch encoder's ids and final
    /// dictionary are byte-identical to the serial first-seen loop.
    #[test]
    fn sharded_encode_is_byte_identical_to_serial(triples in triple_strategy()) {
        let mut serial = Dictionary::new();
        let want: Vec<_> = triples.iter().map(|t| serial.encode_triple(t)).collect();
        for threads in 1..=8usize {
            assert_batch_matches(&Dictionary::new(), &triples, threads, &want, &serial);
        }
    }

    /// Same identity when the dictionary already holds terms: base ids
    /// are reused, new terms extend in serial first-seen order.
    #[test]
    fn sharded_encode_is_byte_identical_over_a_seeded_base(
        seed in proptest::collection::vec(term_strategy(), 0..40),
        triples in triple_strategy(),
    ) {
        let mut serial = Dictionary::new();
        for t in &seed {
            serial.encode(t);
        }
        let base = serial.clone();
        let want: Vec<_> = triples.iter().map(|t| serial.encode_triple(t)).collect();
        for threads in [2usize, 3, 5, 8] {
            assert_batch_matches(&base, &triples, threads, &want, &serial);
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

/// A deterministic pass big enough to exercise index growth, with the
/// borrowed input coming from the tokenizer itself: 20,000 statements
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
    let text = rdf_model::write_document(&triples);
    let parsed = rdf_model::parse_document(&text).unwrap();
    let mut serial = Dictionary::new();
    let want: Vec<_> = triples.iter().map(|t| serial.encode_triple(t)).collect();
    for threads in [2usize, 4, 8] {
        let mut dict = Dictionary::new();
        assert_eq!(dict.encode_triples_parallel(&parsed, threads), want, "{threads} threads");
        assert_dictionaries_byte_identical(&serial, &dict, &format!("{threads} threads"));
    }
}
