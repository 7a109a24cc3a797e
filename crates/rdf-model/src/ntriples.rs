//! Line-oriented N-Triples parser and writer.
//!
//! N-Triples is the exchange syntax the paper's datasets were shipped in
//! (the Barton dump was converted "from its native RDF/XML syntax to
//! triples", §5.1.1). The grammar subset implemented here is the full
//! [W3C N-Triples](https://www.w3.org/TR/n-triples/) triple line:
//! IRIs, blank nodes, literals with escapes, language tags and datatypes,
//! comments and blank lines.
//!
//! The tokenizer scans bytes and builds nothing: one pass over a line
//! validates it and records where its terms sit, as a [`Statement`] — the
//! line plus six cut offsets, 32 bytes. A [`TripleRef`] is a view of one:
//! a term written without escape sequences is a [`TermRef`] over slices of
//! the input, so parsing a document allocates nothing per term or per
//! statement. The writer streams into one output buffer and is the routine
//! behind every `Display` of a term or triple.

use crate::term::{TermKind, TermRef};
use crate::triple::{Triple, TripleRef};
use std::borrow::Cow;
use std::fmt;

/// Error produced while parsing an N-Triples document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtParseError {
    /// 1-based line number the error occurred on (0 when unknown).
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for NtParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N-Triples parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NtParseError {}

fn err(line: usize, message: impl Into<String>) -> NtParseError {
    NtParseError { line, message: message.into() }
}

/// Where one string piece of a term sits in its line (delimiters
/// excluded), and whether it is written with escape sequences.
#[derive(Clone, Copy)]
struct Piece {
    start: usize,
    end: usize,
    escaped: bool,
}

/// One scanned term: its kind and the extents of its one or two pieces.
struct Token {
    kind: TermKind,
    first: Piece,
    second: Option<Piece>,
}

/// A byte-scanning tokenizer over one (trimmed) line. Every delimiter of
/// the grammar is ASCII, so scanning bytes never stops inside a UTF-8
/// sequence and every extent recorded is on character boundaries.
struct Scanner<'a> {
    line: &'a str,
    pos: usize,
    line_no: usize,
}

impl<'a> Scanner<'a> {
    fn err(&self, message: impl Into<String>) -> NtParseError {
        err(self.line_no, message)
    }

    fn rest(&self) -> &'a str {
        &self.line[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    /// Consumes the next character, which may be of any width.
    fn bump_char(&mut self) -> Option<char> {
        let c = self.rest().chars().next()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn expect(&mut self, c: char) -> Result<(), NtParseError> {
        match self.bump_char() {
            Some(got) if got == c => Ok(()),
            Some(got) => Err(self.err(format!("expected '{c}', found '{got}'"))),
            None => Err(self.err(format!("expected '{c}', found end of line"))),
        }
    }

    fn term(&mut self) -> Result<Token, NtParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'<') => Ok(Token { kind: TermKind::Iri, first: self.iri()?, second: None }),
            Some(b'_') => self.blank(),
            Some(b'"') => self.literal(),
            Some(_) => {
                let c = self.rest().chars().next().unwrap_or_default();
                Err(self.err(format!("unexpected character '{c}' at start of term")))
            }
            None => Err(self.err("unexpected end of line, expected a term")),
        }
    }

    fn iri(&mut self) -> Result<Piece, NtParseError> {
        self.expect('<')?;
        self.delimited::<true>()
    }

    /// Reads up to the closing delimiter (`>` of an IRI, `"` of a
    /// literal), the opening one already consumed, checking every escape
    /// sequence on the way; [`unescape`] decodes the piece when a view of
    /// it is asked for.
    fn delimited<const IRI: bool>(&mut self) -> Result<Piece, NtParseError> {
        let close = if IRI { b'>' } else { b'"' };
        let start = self.pos;
        let mut escaped = false;
        loop {
            let stop = self.line.as_bytes()[self.pos..].iter().position(|&b| {
                b == close || b == b'\\' || (IRI && matches!(b, b' ' | b'<' | b'"'))
            });
            let Some(stop) = stop else {
                return Err(self.err(if IRI {
                    "unterminated IRI"
                } else {
                    "unterminated literal"
                }));
            };
            self.pos += stop;
            let b = self.line.as_bytes()[self.pos];
            self.pos += 1;
            if b == close {
                return Ok(Piece { start, end: self.pos - 1, escaped });
            }
            if b != b'\\' {
                return Err(self.err(format!("invalid character '{}' inside IRI", b as char)));
            }
            self.escape()?;
            escaped = true;
        }
    }

    fn blank(&mut self) -> Result<Token, NtParseError> {
        self.expect('_')?;
        self.expect(':')?;
        let rest = self.rest();
        let matched = rest
            .find(|c: char| !(c.is_alphanumeric() || matches!(c, '_' | '-' | '.')))
            .unwrap_or(rest.len());
        // A BLANK_NODE_LABEL never ends in '.': dots at the end of the
        // match terminate the statement, whatever follows them.
        let len = rest[..matched].trim_end_matches('.').len();
        if len == 0 {
            return Err(self.err("empty blank node label"));
        }
        let first = Piece { start: self.pos, end: self.pos + len, escaped: false };
        self.pos += len;
        Ok(Token { kind: TermKind::Blank, first, second: None })
    }

    fn literal(&mut self) -> Result<Token, NtParseError> {
        self.expect('"')?;
        let first = self.delimited::<false>()?;
        match self.peek() {
            Some(b'@') => {
                self.pos += 1;
                let rest = self.rest();
                let len = rest
                    .bytes()
                    .position(|b| !(b.is_ascii_alphanumeric() || b == b'-'))
                    .unwrap_or(rest.len());
                if len == 0 {
                    return Err(self.err("empty language tag"));
                }
                // LANGTAG ::= [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*
                let tag = &rest[..len];
                let mut subtags = tag.split('-');
                let primary = subtags.next().unwrap_or_default();
                if primary.is_empty()
                    || !primary.bytes().all(|b| b.is_ascii_alphabetic())
                    || subtags.any(str::is_empty)
                {
                    return Err(self.err(format!("malformed language tag '{tag}'")));
                }
                let second = Piece { start: self.pos, end: self.pos + len, escaped: false };
                self.pos += len;
                Ok(Token { kind: TermKind::LangLiteral, first, second: Some(second) })
            }
            Some(b'^') => {
                self.expect('^')?;
                self.expect('^')?;
                Ok(Token { kind: TermKind::TypedLiteral, first, second: Some(self.iri()?) })
            }
            _ => Ok(Token { kind: TermKind::Literal, first, second: None }),
        }
    }

    /// Decodes one escape sequence, the backslash already consumed.
    fn escape(&mut self) -> Result<char, NtParseError> {
        match self.bump_char() {
            Some('t') => Ok('\t'),
            Some('n') => Ok('\n'),
            Some('r') => Ok('\r'),
            Some('b') => Ok('\u{8}'),
            Some('f') => Ok('\u{c}'),
            Some('"') => Ok('"'),
            Some('\'') => Ok('\''),
            Some('\\') => Ok('\\'),
            Some('u') => self.unicode_escape(4),
            Some('U') => self.unicode_escape(8),
            Some(c) => Err(self.err(format!("invalid escape '\\{c}'"))),
            None => Err(self.err("dangling backslash")),
        }
    }

    fn unicode_escape(&mut self, digits: usize) -> Result<char, NtParseError> {
        let mut value: u32 = 0;
        for _ in 0..digits {
            let c = self.bump_char().ok_or_else(|| self.err("truncated unicode escape"))?;
            let d = c
                .to_digit(16)
                .ok_or_else(|| self.err(format!("invalid hex digit '{c}' in unicode escape")))?;
            value = value * 16 + d;
        }
        char::from_u32(value)
            .ok_or_else(|| self.err(format!("invalid unicode code point U+{value:X}")))
    }
}

/// The text a piece written with escape sequences stands for. The scanner
/// has checked every sequence of a piece it reports; text it has not seen
/// decodes up to its first malformed sequence.
fn unescape(piece: &str) -> String {
    let mut out = String::with_capacity(piece.len());
    let mut scan = Scanner { line: piece, pos: 0, line_no: 0 };
    while let Some(run) = scan.rest().find('\\') {
        out.push_str(&scan.rest()[..run]);
        scan.pos += run + 1;
        match scan.escape() {
            Ok(c) => out.push(c),
            Err(_) => return out,
        }
    }
    out.push_str(scan.rest());
    out
}

/// Where the terms of a statement sit in its (trimmed) line: the two
/// kinds that vary — a subject is an IRI or a blank node, a predicate an
/// IRI — a bit per piece written with escape sequences (subject,
/// predicate, object, the object's second piece), and six cuts: the
/// subject's end, the predicate's start and end, the object's start and
/// end, and the end of its language tag or datatype IRI. The two starts
/// not recorded follow from the kinds: a subject begins the line behind
/// `<` or `_:`, a second piece follows its lexical form behind `"@` or
/// `"^^<`.
#[derive(Clone)]
struct Extents<T> {
    subject: TermKind,
    object: TermKind,
    escaped: u8,
    cuts: [T; 6],
}

impl Extents<usize> {
    /// The same extents with cuts of type `T`, if every one fits.
    fn narrow<T: TryFrom<usize> + Default + Copy>(&self) -> Option<Extents<T>> {
        let mut cuts = [T::default(); 6];
        for (to, from) in cuts.iter_mut().zip(self.cuts) {
            *to = T::try_from(from).ok()?;
        }
        Some(Extents { subject: self.subject, object: self.object, escaped: self.escaped, cuts })
    }
}

impl<T: Copy + TryInto<usize>> Extents<T> {
    /// The triple these extents cut out of `line`. Total: a cut outside
    /// the line (the scanner makes none) yields an empty piece.
    fn view<'a>(&self, line: &'a str) -> TripleRef<'a> {
        let cut = |i: usize| self.cuts[i].try_into().unwrap_or(usize::MAX);
        let piece = |n: u8, start: usize, end: usize| -> Cow<'a, str> {
            let text = line.get(start..end).unwrap_or_default();
            if self.escaped & (1 << n) == 0 {
                Cow::Borrowed(text)
            } else {
                Cow::Owned(unescape(text))
            }
        };
        let subject = match self.subject {
            TermKind::Blank => TermRef::blank(piece(0, "_:".len(), cut(0))),
            _ => TermRef::iri(piece(0, "<".len(), cut(0))),
        };
        let first = piece(2, cut(3), cut(4));
        let second = |lead: &str| piece(3, cut(4).saturating_add(lead.len()), cut(5));
        let object = match self.object {
            TermKind::Iri => TermRef::iri(first),
            TermKind::Blank => TermRef::blank(first),
            TermKind::Literal => TermRef::literal(first),
            TermKind::LangLiteral => TermRef::lang_literal(first, second("\"@")),
            TermKind::TypedLiteral => TermRef::typed_literal(first, second("\"^^<")),
        };
        TripleRef { subject, predicate: TermRef::iri(piece(1, cut(1), cut(2))), object }
    }
}

/// Extents in the narrowest cuts that hold them: beside the `&str` of a
/// line under 64 KiB, boxed for a longer one.
#[derive(Clone)]
enum Packed {
    Short(Extents<u16>),
    Long(Box<Extents<u32>>),
}

/// One statement of an N-Triples document as the tokenizer leaves it: the
/// line it was read from and where its terms sit in it, checked but not
/// built. [`Statement::triple`] (or `TripleRef::from(&statement)`) is the
/// view of it as three terms; a document of them costs 32 bytes a
/// statement beside its text.
#[derive(Clone)]
pub struct Statement<'a> {
    line: &'a str,
    extents: Packed,
}

const _: () = assert!(std::mem::size_of::<Statement<'_>>() <= 32);

impl<'a> Statement<'a> {
    /// Scans one line: `None` for a blank or comment line, otherwise
    /// every check the grammar asks for, and the extents of the terms.
    fn scan(line: &'a str, line_no: usize) -> Result<Option<Self>, NtParseError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut scan = Scanner { line, pos: 0, line_no };
        let subject = scan.term()?;
        let predicate = scan.term()?;
        let object = scan.term()?;
        scan.skip_ws();
        scan.expect('.')?;
        scan.skip_ws();
        if !matches!(scan.peek(), None | Some(b'#')) {
            return Err(err(line_no, format!("trailing content '{}' after '.'", scan.rest())));
        }
        if subject.kind.is_literal() {
            return Err(err(line_no, "literal in subject position"));
        }
        if predicate.kind != TermKind::Iri {
            return Err(err(line_no, "non-IRI in predicate position"));
        }
        let escaped = [
            subject.first.escaped,
            predicate.first.escaped,
            object.first.escaped,
            object.second.is_some_and(|second| second.escaped),
        ];
        let extents = Extents {
            subject: subject.kind,
            object: object.kind,
            escaped: escaped.iter().rev().fold(0, |bits, &bit| bits << 1 | u8::from(bit)),
            cuts: [
                subject.first.end,
                predicate.first.start,
                predicate.first.end,
                object.first.start,
                object.first.end,
                object.second.map_or(object.first.end, |second| second.end),
            ],
        };
        let extents = match extents.narrow() {
            Some(short) => Packed::Short(short),
            None => Packed::Long(Box::new(
                extents.narrow().ok_or_else(|| err(line_no, "statement longer than 4 GiB"))?,
            )),
        };
        Ok(Some(Statement { line, extents }))
    }

    /// The statement as three terms: slices of the text it was parsed
    /// from, except that a term written with escape sequences owns its
    /// unescaped form (built on every call).
    pub fn triple(&self) -> TripleRef<'a> {
        match &self.extents {
            Packed::Short(extents) => extents.view(self.line),
            Packed::Long(extents) => extents.view(self.line),
        }
    }
}

impl fmt::Debug for Statement<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.triple())
    }
}

/// Parses a single N-Triples line into a triple borrowing from it.
///
/// Returns `Ok(None)` for blank lines and comment lines (starting with `#`).
pub fn parse_line(line: &str, line_no: usize) -> Result<Option<TripleRef<'_>>, NtParseError> {
    Ok(Statement::scan(line, line_no)?.map(|statement| statement.triple()))
}

/// Parses a full N-Triples document into statements borrowing from it:
/// 32 bytes each, nothing allocated per term. View one as a [`TripleRef`]
/// with [`Statement::triple`] — or hand the lot to a dictionary, which
/// interns from the views — and call [`TripleRef::to_owned`] on the ones
/// to keep beyond the text.
///
/// Duplicate statements are preserved (the stores deduplicate, matching the
/// paper's "eliminated duplicate triples" cleaning step).
pub fn parse_document(input: &str) -> Result<Vec<Statement<'_>>, NtParseError> {
    let mut statements = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        if let Some(statement) = Statement::scan(line, idx + 1)? {
            statements.push(statement);
        }
    }
    Ok(statements)
}

/// Writes `text` with each `special` byte replaced by what `escape`
/// writes for it; the slices in between go out whole. Only ASCII bytes
/// may be special, so every cut is on a character boundary.
fn write_escaped<W: fmt::Write>(
    out: &mut W,
    text: &str,
    special: impl Fn(u8) -> bool,
    escape: impl Fn(&mut W, u8) -> fmt::Result,
) -> fmt::Result {
    let mut rest = text;
    while let Some(at) = rest.bytes().position(&special) {
        out.write_str(&rest[..at])?;
        escape(out, rest.as_bytes()[at])?;
        rest = &rest[at + 1..];
    }
    out.write_str(rest)
}

/// Whether the IRIREF grammar forbids byte `b` (every character it
/// forbids is ASCII): U+0000–U+0020 and ``<>"{}|^`\``.
fn iri_forbids(b: u8) -> bool {
    b <= b' ' || matches!(b, b'<' | b'>' | b'"' | b'{' | b'}' | b'|' | b'^' | b'`' | b'\\')
}

/// Writes `iri` between angle brackets, `\u`-escaping the characters the
/// IRIREF grammar forbids, so that any string held by an
/// [`Iri`](crate::Iri) reads back as itself.
pub(crate) fn write_iri<W: fmt::Write>(out: &mut W, iri: &str) -> fmt::Result {
    out.write_char('<')?;
    write_escaped(out, iri, iri_forbids, |out, b| write!(out, "\\u{b:04X}"))?;
    out.write_char('>')
}

/// Writes a literal's lexical form between quotes, escaped.
fn write_lexical<W: fmt::Write>(out: &mut W, lexical: &str) -> fmt::Result {
    out.write_char('"')?;
    write_escaped(
        out,
        lexical,
        |b| matches!(b, b'\\' | b'"' | b'\n' | b'\r' | b'\t'),
        |out, b| {
            out.write_str(match b {
                b'\\' => "\\\\",
                b'"' => "\\\"",
                b'\n' => "\\n",
                b'\r' => "\\r",
                _ => "\\t",
            })
        },
    )?;
    out.write_char('"')
}

/// Writes one term in N-Triples syntax.
pub(crate) fn write_term<W: fmt::Write>(out: &mut W, term: &TermRef<'_>) -> fmt::Result {
    let (first, second) = term.pieces();
    match term.kind() {
        TermKind::Iri => write_iri(out, first),
        TermKind::Blank => {
            out.write_str("_:")?;
            out.write_str(first)
        }
        TermKind::Literal => write_lexical(out, first),
        TermKind::LangLiteral => {
            write_lexical(out, first)?;
            out.write_char('@')?;
            out.write_str(second.unwrap_or_default())
        }
        TermKind::TypedLiteral => {
            write_lexical(out, first)?;
            out.write_str("^^")?;
            write_iri(out, second.unwrap_or_default())
        }
    }
}

/// Writes one statement in N-Triples syntax (terminated by ` .`, no
/// newline).
pub(crate) fn write_triple<W: fmt::Write>(out: &mut W, t: &TripleRef<'_>) -> fmt::Result {
    write_term(out, &t.subject)?;
    out.write_char(' ')?;
    write_term(out, &t.predicate)?;
    out.write_char(' ')?;
    write_term(out, &t.object)?;
    out.write_str(" .")
}

/// Serializes triples as an N-Triples document (one statement per line).
pub fn write_document<'a>(triples: impl IntoIterator<Item = &'a Triple>) -> String {
    let mut out = String::new();
    for t in triples {
        write_triple(&mut out, &TripleRef::from(t)).expect("writing to a String cannot fail");
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Term, XSD_STRING};

    /// One statement line, parsed by the borrowing tokenizer and owned.
    fn parse(line: &str) -> Triple {
        parse_line(line, 1).unwrap().unwrap().to_owned()
    }

    #[test]
    fn parses_simple_triple() {
        let t = parse("<http://x/s> <http://x/p> <http://x/o> .");
        assert_eq!(t.subject, Term::iri("http://x/s"));
        assert_eq!(t.predicate, Term::iri("http://x/p"));
        assert_eq!(t.object, Term::iri("http://x/o"));
    }

    #[test]
    fn parses_literal_object() {
        let t = parse("<http://x/s> <http://x/p> \"hello world\" .");
        assert_eq!(t.object, Term::literal("hello world"));
    }

    #[test]
    fn parses_lang_literal() {
        let t = parse("<http://x/s> <http://x/p> \"chat\"@fr-BE .");
        let lit = t.object.as_literal().unwrap();
        assert_eq!(lit.lexical(), "chat");
        assert_eq!(lit.language(), Some("fr-BE"));
    }

    #[test]
    fn parses_typed_literal() {
        let t =
            parse("<http://x/s> <http://x/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .");
        let lit = t.object.as_literal().unwrap();
        assert_eq!(lit.lexical(), "42");
        assert_eq!(lit.datatype(), "http://www.w3.org/2001/XMLSchema#integer");
    }

    #[test]
    fn xsd_string_datatype_normalizes_to_plain() {
        let line = format!("<http://x/s> <http://x/p> \"v\"^^<{XSD_STRING}> .");
        let t = parse(&line);
        assert_eq!(t.object, Term::literal("v"));
    }

    #[test]
    fn parses_blank_nodes() {
        let t = parse("_:a <http://x/p> _:b0.c .");
        assert_eq!(t.subject, Term::blank("a"));
        assert_eq!(t.object, Term::blank("b0.c"));
    }

    /// A label never ends in '.', whatever follows the statement's dot.
    #[test]
    fn a_dot_behind_a_blank_label_ends_the_statement() {
        for line in
            ["_:a <http://x/p> _:b. # comment", "_:a <http://x/p> _:b.# c", "_:a <http://x/p> _:b."]
        {
            assert_eq!(parse(line).object, Term::blank("b"), "{line}");
        }
        assert_eq!(parse("_:a <http://x/p> _:b.c. # comment").object, Term::blank("b.c"));
        assert!(parse_line("_:a <http://x/p> _:b.. # comment", 1).is_err());
        assert!(parse_line("_:a <http://x/p> _:. .", 1).is_err());
        assert!(parse_line("_:a <http://x/p> _:b. junk", 1).is_err());
    }

    #[test]
    fn language_tags_follow_the_langtag_grammar() {
        for tag in ["en", "fr-BE", "de-CH-1901", "x-1-2"] {
            let t = parse(&format!("<http://x/s> <http://x/p> \"a\"@{tag} ."));
            assert_eq!(t.object, Term::lang_literal("a", tag));
        }
        for tag in ["-en", "12", "en-", "en--gb", "1a-en", "é"] {
            let line = format!("<http://x/s> <http://x/p> \"a\"@{tag} .");
            assert!(parse_line(&line, 1).is_err(), "{line}");
        }
    }

    #[test]
    fn parses_escapes_in_literals() {
        let t = parse(r#"<http://x/s> <http://x/p> "a\tb\nc\"d\\e\u0041\U00000042\b\f\'\r" ."#);
        assert_eq!(t.object, Term::literal("a\tb\nc\"d\\eAB\u{8}\u{c}'\r"));
        let t = parse(r#"<http://x/s> <http://x/p> "\u00e9t\u00E9"@fr ."#);
        assert_eq!(t.object, Term::lang_literal("été", "fr"));
    }

    #[test]
    fn parses_unicode_escapes_in_iris() {
        let t = parse(r#"<http://x/a\u0020b\U0000003Ec> <http://x/p> "v"^^<http://x/d\u0074> ."#);
        assert_eq!(t.subject, Term::iri("http://x/a b>c"));
        assert_eq!(t.object, Term::typed_literal("v", "http://x/dt"));
    }

    /// Terms without escape sequences are slices of the input text; only
    /// an escaped term owns its unescaped form.
    #[test]
    fn escape_free_terms_borrow_from_the_input() {
        let line = r#"<http://x/s> <http://x/p\u0031> "été"@fr-BE ."#;
        let t = parse_line(line, 1).unwrap().unwrap();
        let inside = |piece: &str| line.as_bytes().as_ptr_range().contains(&piece.as_ptr());
        assert!(inside(t.subject.pieces().0));
        assert!(!inside(t.predicate.pieces().0));
        assert_eq!(t.predicate.pieces().0, "http://x/p1");
        let (lexical, tag) = t.object.pieces();
        assert!(inside(lexical) && inside(tag.unwrap()));
    }

    #[test]
    fn accepts_crlf_tabs_and_surrounding_whitespace() {
        let doc = "<http://x/s>\t<http://x/p>\t\"v\"\t.\r\n  _:b <http://x/p> _:c.\r\n";
        let parsed = parse_document(doc).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].triple().object, TermRef::literal("v"));
        assert_eq!(parsed[1].triple().subject, TermRef::blank("b"));
        assert_eq!(parsed[1].triple().object, TermRef::blank("c"));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        assert_eq!(parse_line("", 1).unwrap(), None);
        assert_eq!(parse_line("   ", 1).unwrap(), None);
        assert_eq!(parse_line("# a comment", 1).unwrap(), None);
    }

    #[test]
    fn allows_trailing_comment() {
        let t = parse_line("<http://x/s> <http://x/p> \"v\" . # note", 1).unwrap();
        assert!(t.is_some());
    }

    #[test]
    fn rejects_missing_dot() {
        assert!(parse_line("<http://x/s> <http://x/p> \"v\"", 1).is_err());
    }

    #[test]
    fn rejects_literal_subject() {
        assert!(parse_line("\"s\" <http://x/p> \"v\" .", 1).is_err());
    }

    #[test]
    fn rejects_blank_predicate() {
        assert!(parse_line("<http://x/s> _:p \"v\" .", 1).is_err());
    }

    #[test]
    fn rejects_unterminated_iri_and_literal() {
        assert!(parse_line("<http://x/s <http://x/p> <http://x/o> .", 1).is_err());
        assert!(parse_line("<http://x/s> <http://x/p> \"v .", 1).is_err());
    }

    #[test]
    fn rejects_garbage_after_dot() {
        assert!(parse_line("<http://x/s> <http://x/p> \"v\" . junk", 1).is_err());
    }

    #[test]
    fn rejects_invalid_escape() {
        assert!(parse_line(r#"<http://x/s> <http://x/p> "a\qb" ."#, 1).is_err());
        assert!(parse_line(r#"<http://x/s> <http://x/p> "a\éb" ."#, 1).is_err());
        assert!(parse_line(r#"<http://x/s> <http://x/p> "a\"#, 1).is_err());
        assert!(parse_line(r#"<http://x/s\q> <http://x/p> "v" ."#, 1).is_err());
    }

    #[test]
    fn rejects_malformed_terms() {
        for line in [
            "<http://x/a b> <http://x/p> \"v\" .",
            "<http://x/a<b> <http://x/p> \"v\" .",
            "<http://x/a\"b> <http://x/p> \"v\" .",
            "_: <http://x/p> \"v\" .",
            "_x <http://x/p> \"v\" .",
            "<http://x/s> <http://x/p> \"v\"@ .",
            "<http://x/s> <http://x/p> \"v\"^<http://x/d> .",
            "<http://x/s> <http://x/p> \"v\"^^\"d\" .",
            "<http://x/s> <http://x/p> é .",
            "<http://x/s> <http://x/p>",
        ] {
            assert!(parse_line(line, 1).is_err(), "{line}");
        }
    }

    #[test]
    fn rejects_invalid_unicode_escape() {
        assert!(parse_line(r#"<http://x/s> <http://x/p> "\uD800" ."#, 1).is_err());
        assert!(parse_line(r#"<http://x/s> <http://x/p> "\u00ZZ" ."#, 1).is_err());
        assert!(parse_line(r#"<http://x/s> <http://x/p> "\u00é" ."#, 1).is_err());
        assert!(parse_line(r#"<http://x/s> <http://x/p> "\u00"#, 1).is_err());
        assert!(parse_line(r#"<http://x/s> <http://x/p> "\U00110000" ."#, 1).is_err());
    }

    #[test]
    fn error_reports_line_number() {
        let doc = "<http://x/s> <http://x/p> \"ok\" .\nbroken line\n";
        let e = parse_document(doc).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn writer_escapes_what_the_iri_grammar_forbids() {
        let iri = "http://x/a b<c>d\"e{f}g|h^i`j\\k\nl";
        let t = Triple::new(
            Term::iri(iri),
            Term::iri("http://x/p"),
            Term::typed_literal("v", "http://x/d t"),
        );
        let line = t.to_string();
        assert!(line.starts_with(
            r"<http://x/a\u0020b\u003Cc\u003Ed\u0022e\u007Bf\u007Dg\u007Ch\u005Ei\u0060j\u005Ck\u000Al> "
        ));
        assert!(line.ends_with(r#""v"^^<http://x/d\u0020t> ."#));
        assert_eq!(parse(&line), t);
        assert_eq!(write_document([&t]), format!("{line}\n"));
    }

    #[test]
    fn document_roundtrip() {
        let doc = "\
# sample
<http://x/ID1> <http://x/type> <http://x/FullProfessor> .
<http://x/ID1> <http://x/teacherOf> \"AI\" .
<http://x/ID3> <http://x/advisor> <http://x/ID2> .

<http://x/ID2> <http://x/label> \"multi\\nline\"@en .
";
        let parsed = parse_document(doc).unwrap();
        assert_eq!(parsed.len(), 4);
        let triples: Vec<Triple> = parsed.iter().map(|s| s.triple().to_owned()).collect();
        let written = write_document(&triples);
        let again: Vec<Triple> =
            parse_document(&written).unwrap().iter().map(|s| s.triple().to_owned()).collect();
        assert_eq!(again, triples);
    }
}
