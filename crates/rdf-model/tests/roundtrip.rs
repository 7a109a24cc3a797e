//! Property-based round-trip tests: any generated triple survives
//! serialize → parse unchanged, and the document tokenizer's statements
//! are, viewed, what `parse_line` reads off each line.

use proptest::prelude::*;
use rdf_model::{parse_document, parse_line, write_document, Term, Triple, TripleRef};

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

/// `parse_document(doc)[i]`, viewed, is `parse_line` of the i-th statement
/// line, is `expected[i]`; and a line-by-line `parse_line` loop fails
/// where the document does, with the same error.
fn assert_document_is_its_lines(doc: &str, expected: &[Triple]) {
    let by_line: Result<Vec<TripleRef<'_>>, _> = doc
        .lines()
        .enumerate()
        .filter_map(|(idx, line)| parse_line(line, idx + 1).transpose())
        .collect();
    let statements = match (parse_document(doc), by_line) {
        (Ok(statements), Ok(by_line)) => {
            assert_eq!(statements.len(), by_line.len());
            for (statement, line) in statements.iter().zip(&by_line) {
                assert_eq!(&statement.triple(), line);
                assert_eq!(&TripleRef::from(statement), line);
                assert_eq!(format!("{statement:?}"), line.to_string());
            }
            statements
        }
        (Err(document), Err(line)) => {
            assert_eq!(document, line);
            assert!(expected.is_empty(), "{document}");
            return;
        }
        (document, line) => panic!("document {document:?} but lines {line:?}"),
    };
    let owned: Vec<Triple> = statements.iter().map(|s| s.triple().to_owned()).collect();
    assert_eq!(owned, expected);
}

/// Escapes in each position that can hold one, both two-piece object
/// kinds, and the lines that are not statements.
#[test]
fn statements_view_as_the_triples_their_lines_spell() {
    let doc = "# header\r\n\
        <http://x/a\\u0020b> <http://x/p> <http://x/o> .\r\n\
        \r\n\
        \t _:b1 <http://x/p\\u0031> \"tab\\there\\U0001F600\"@en-GB . # trailing\n\
        _:b2 <http://x/p> \"v\"^^<http://x/d\\u0074> .\n\
        <http://x/s> <http://x/p> \"\\u00e9\"^^<http://www.w3.org/2001/XMLSchema#string> .\n\
        <http://x/s> <http://x/p> _:o.\n\
           \n\
        <http://x/s> <http://x/p> \"plain\" .";
    let p = Term::iri("http://x/p");
    let s = Term::iri("http://x/s");
    assert_document_is_its_lines(
        doc,
        &[
            Triple::new(Term::iri("http://x/a b"), p.clone(), Term::iri("http://x/o")),
            Triple::new(
                Term::blank("b1"),
                Term::iri("http://x/p1"),
                Term::lang_literal("tab\there\u{1F600}", "en-GB"),
            ),
            Triple::new(Term::blank("b2"), p.clone(), Term::typed_literal("v", "http://x/dt")),
            Triple::new(s.clone(), p.clone(), Term::literal("é")),
            Triple::new(s.clone(), p.clone(), Term::blank("o")),
            Triple::new(s, p, Term::literal("plain")),
        ],
    );
}

/// Cuts past 64 KiB do not fit beside the line and take the boxed path:
/// every piece of such a statement still reads back, escaped or not.
#[test]
fn a_line_over_64_kib_reads_like_a_short_one() {
    let long = "x".repeat(70_000);
    let p = Term::iri("http://x/p");
    let triples = [
        Triple::new(Term::iri(format!("http://x/{long}")), p.clone(), Term::blank("o")),
        Triple::new(Term::blank("s"), p.clone(), Term::lang_literal(long.as_str(), "fr")),
        Triple::new(Term::blank("s"), p.clone(), Term::typed_literal(format!("\n{long}\""), "d t")),
        Triple::new(Term::iri(format!("{long} {long}")), p, Term::literal("short")),
    ];
    let doc = write_document(&triples);
    assert!(doc.lines().all(|line| line.len() > usize::from(u16::MAX)));
    assert_document_is_its_lines(&doc, &triples);
    assert_eq!(parse_document(&format!("{doc}<http://x/s> <")).unwrap_err().line, 5);
}

/// What stands between two statements of a generated document.
fn arb_separator() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("\n"),
        Just("\r\n"),
        Just("\n\n"),
        Just(" # note\n"),
        Just("\n# comment . \"\n"),
        Just("\r\n \t \r\n\t"),
    ]
}

proptest! {
    /// Over generated documents — the writer's escapes in lexical forms,
    /// CRLF, blank, indented and comment lines in between — the document
    /// tokenizer and `parse_line` agree with each other and with the
    /// triples written; with a malformed line put in, they agree on the
    /// error and its line number.
    #[test]
    fn document_statements_equal_their_lines(
        lines in proptest::collection::vec((arb_triple(), arb_separator()), 0..24),
        broken in proptest::option::of((0usize..24, prop_oneof![
            Just("<http://x/s> <http://x/p> ."),
            Just("<http://x/s> <http://x/p> \"a\"@en- ."),
            Just("\"s\" <http://x/p> \"\\q\" ."),
            Just("junk"),
        ])),
    ) {
        let mut doc = String::new();
        let mut expected = Vec::new();
        for (triple, separator) in &lines {
            doc.push_str(&triple.to_string());
            doc.push_str(separator);
            expected.push(triple.clone());
        }
        assert_document_is_its_lines(&doc, &expected);
        if let Some((at, bad)) = broken {
            let mut all: Vec<&str> = doc.lines().collect();
            let at = at.min(all.len());
            all.insert(at, bad);
            let doc = all.join("\n");
            prop_assert_eq!(parse_document(&doc).unwrap_err().line, at + 1);
            assert_document_is_its_lines(&doc, &[]);
        }
    }

    #[test]
    fn ntriples_roundtrip(triples in proptest::collection::vec(arb_triple(), 0..40)) {
        let doc = write_document(&triples);
        let parsed: Vec<Triple> =
            parse_document(&doc).unwrap().iter().map(|s| s.triple().to_owned()).collect();
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
            parse_document(&doc).unwrap().iter().map(|s| s.triple().to_owned()).collect();
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
        prop_assert_eq!(parsed[0].triple().to_owned(), t);
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
