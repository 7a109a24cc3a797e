//! Property-based round-trip tests: any generated triple survives
//! serialize → parse unchanged.

use proptest::prelude::*;
use rdf_model::{parse_document, write_document, Term, Triple};

fn arb_iri() -> impl Strategy<Value = Term> {
    "[a-z][a-z0-9/._-]{0,20}".prop_map(|s| Term::iri(format!("http://example.org/{s}")))
}

fn arb_blank() -> impl Strategy<Value = Term> {
    "[A-Za-z][A-Za-z0-9_]{0,10}".prop_map(Term::blank)
}

/// Literal lexical forms include whitespace, quotes, backslashes and
/// non-ASCII characters so the escaping logic is exercised.
fn arb_lex() -> proptest::string::RegexGeneratorStrategy<String> {
    proptest::string::string_regex("[ -~\t\n\röäü€]{0,24}").unwrap()
}

fn arb_literal() -> impl Strategy<Value = Term> {
    prop_oneof![
        arb_lex().prop_map(Term::literal),
        (arb_lex(), "[a-z]{2}(-[A-Z]{2})?").prop_map(|(l, t)| Term::lang_literal(l, t)),
        arb_lex().prop_map(|l| Term::typed_literal(l, "http://www.w3.org/2001/XMLSchema#integer")),
    ]
}

fn arb_subject() -> impl Strategy<Value = Term> {
    prop_oneof![arb_iri(), arb_blank()]
}

fn arb_object() -> impl Strategy<Value = Term> {
    prop_oneof![arb_iri(), arb_blank(), arb_literal()]
}

fn arb_triple() -> impl Strategy<Value = Triple> {
    (arb_subject(), arb_iri(), arb_object()).prop_map(|(s, p, o)| Triple::new(s, p, o))
}

/// Any Unicode scalar value below `bound` (surrogates fold to U+FFFD).
fn arb_char(bound: u32) -> impl Strategy<Value = char> {
    (0..bound).prop_map(|u| char::from_u32(u).unwrap_or('\u{FFFD}'))
}

/// One character of a literal and the way the document spells it:
/// verbatim, or by each escape sequence the grammar has.
fn arb_spelled_char() -> impl Strategy<Value = (char, String)> {
    prop_oneof![
        "[ !#-Z^-~öäü€]".prop_map(|s| (s.chars().next().unwrap(), s)),
        prop_oneof![
            Just(('\t', "\\t")),
            Just(('\n', "\\n")),
            Just(('\r', "\\r")),
            Just(('\u{8}', "\\b")),
            Just(('\u{c}', "\\f")),
            Just(('"', "\\\"")),
            Just(('\'', "\\'")),
            Just(('\\', "\\\\")),
        ]
        .prop_map(|(c, s)| (c, s.to_string())),
        arb_char(0x1_0000).prop_map(|c| (c, format!("\\u{:04X}", c as u32))),
        arb_char(0x11_0000).prop_map(|c| (c, format!("\\U{:08x}", c as u32))),
    ]
}

proptest! {
    #[test]
    fn ntriples_roundtrip(triples in proptest::collection::vec(arb_triple(), 0..40)) {
        let doc = write_document(&triples);
        let parsed: Vec<Triple> =
            parse_document(&doc).unwrap().iter().map(|t| t.to_owned()).collect();
        prop_assert_eq!(parsed, triples);
    }

    #[test]
    fn display_of_single_triple_parses_back(t in arb_triple()) {
        let line = t.to_string();
        let parsed = rdf_model::parse_line(&line, 1).unwrap().unwrap();
        prop_assert_eq!(parsed.to_owned(), t);
    }

    /// The tokenizer reads every escape sequence, in literals and (the
    /// `\u` forms) in IRIs, and a document mixing escaped and escape-free
    /// terms parses to exactly the terms it spells.
    #[test]
    fn every_escape_parses_to_the_character_it_spells(
        lines in proptest::collection::vec(
            (arb_subject(), proptest::collection::vec(arb_spelled_char(), 0..16)),
            1..12,
        ),
    ) {
        let mut doc = String::new();
        let mut expected = Vec::new();
        for (subject, spelled) in &lines {
            let value: String = spelled.iter().map(|(c, _)| *c).collect();
            let text: String = spelled.iter().map(|(_, s)| s.as_str()).collect();
            doc.push_str(&format!("{subject} <http://example.org/p\\u0031> \"{text}\"@en .\r\n"));
            expected.push(Triple::new(
                subject.clone(),
                Term::iri("http://example.org/p1"),
                Term::lang_literal(value, "en"),
            ));
        }
        let parsed: Vec<Triple> =
            parse_document(&doc).unwrap().iter().map(|t| t.to_owned()).collect();
        prop_assert_eq!(parsed, expected);
    }

    /// Any string an `Iri` can hold survives write → parse: the writer
    /// escapes what the IRIREF grammar forbids.
    #[test]
    fn any_iri_string_survives_the_writer(
        iri in proptest::collection::vec(prop_oneof![arb_char(0x80), arb_char(0x11_0000)], 0..24),
        dt in "[ -~]{1,12}",
    ) {
        let t = Triple::new(
            Term::iri(iri.into_iter().collect::<String>()),
            Term::iri("http://example.org/p"),
            Term::typed_literal("v", dt),
        );
        let doc = write_document([&t]);
        prop_assert_eq!(doc.lines().count(), 1);
        let parsed = parse_document(&doc).unwrap();
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(parsed[0].to_owned(), t);
    }
}

proptest! {
    /// Turtle writer → parser round-trip on arbitrary (IRI/blank-subject)
    /// triples. Blank-node labels survive because the writer emits labels,
    /// never anonymous brackets.
    #[test]
    fn turtle_roundtrip(triples in proptest::collection::vec(arb_triple(), 0..30)) {
        let doc = rdf_model::write_turtle(&triples);
        let mut parsed = rdf_model::parse_turtle(&doc).unwrap();
        let mut expected = triples;
        expected.sort();
        expected.dedup();
        parsed.sort();
        prop_assert_eq!(parsed, expected);
    }
}
