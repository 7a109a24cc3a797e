//! RDF terms: IRIs, literals, and blank nodes.
//!
//! Terms are immutable, cheaply clonable (`Arc<str>` payloads) and totally
//! ordered so they can live in the sorted structures the Hexastore relies
//! on. The ordering is lexicographic within a kind, with the kind order
//! IRI < BlankNode < Literal (the concrete order is irrelevant to the
//! paper's algorithms — only that *some* total order exists).

use crate::ntriples::{write_iri, write_term};
use std::borrow::{Borrow, Cow};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The RDF datatype IRI for plain `xsd:string` literals.
pub const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";

/// The RDF datatype IRI of language-tagged literals.
pub const RDF_LANG_STRING: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString";

/// An IRI (Internationalized Resource Identifier) such as
/// `http://example.org/advisor`.
///
/// The IRI is stored verbatim; no normalization beyond what the parser does
/// is applied. Equality is string equality, as in the RDF specification.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Iri(Arc<str>);

impl Iri {
    /// Creates an IRI from its string form.
    pub fn new(iri: impl Into<Arc<str>>) -> Self {
        Iri(iri.into())
    }

    /// The IRI string, without angle brackets.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_iri(f, &self.0)
    }
}

impl fmt::Debug for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Iri({})", self.0)
    }
}

impl Borrow<str> for Iri {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Iri {
    fn from(s: &str) -> Self {
        Iri::new(s)
    }
}

/// A blank node with a local label, e.g. `_:b42`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlankNode(Arc<str>);

impl BlankNode {
    /// Creates a blank node from its label (without the `_:` prefix).
    pub fn new(label: impl Into<Arc<str>>) -> Self {
        BlankNode(label.into())
    }

    /// The blank node label, without the `_:` prefix.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

impl fmt::Debug for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlankNode({})", self.0)
    }
}

/// An RDF literal: a lexical form plus either a language tag or a datatype.
///
/// Following RDF 1.1, a literal without an explicit datatype or language is
/// an `xsd:string`; that common case stores no datatype, to avoid keeping
/// the `xsd:string` IRI millions of times.
///
/// A literal is one `Arc<str>` holding the lexical form followed by the
/// tag or datatype IRI, the byte length of that tail, and the
/// [`TermKind`]: 24 bytes, so a [`Term`] is 24 bytes too (its IRI and
/// blank-node variants fit beside the kind byte, whose unused values are
/// the enum's tag) and building one from borrowed pieces is a single
/// allocation. Equality, order and hashing are those of the triple
/// `(lexical, language, datatype)` with `None` for the absent parts, in
/// that order. (Each literal has one representation, so comparing the
/// fields compares those parts.)
#[derive(Clone, PartialEq, Eq)]
pub struct Literal {
    /// The lexical form, then the language tag or datatype IRI.
    text: Arc<str>,
    /// The byte length of the tag or datatype IRI at the end of `text`
    /// (0 for a plain literal).
    split: u32,
    /// [`TermKind::Literal`], [`TermKind::LangLiteral`] or
    /// [`TermKind::TypedLiteral`].
    kind: TermKind,
}

#[cfg(target_pointer_width = "64")]
const _: () = {
    assert!(std::mem::size_of::<Literal>() == 24);
    assert!(std::mem::size_of::<Term>() == 24);
    assert!(std::mem::size_of::<Option<Term>>() == 24);
};

/// `first` followed by `second` as one `Arc<str>`, or `None` when together
/// they are not UTF-8. Up to 256 bytes — every language tag and datatype
/// IRI with its lexical form, every IRI namespace with the rest, in
/// practice — the pieces are joined on the stack, so the `Arc` is the only
/// allocation, and the joined text is validated once.
fn concat_utf8(first: &[u8], second: &[u8]) -> Option<Arc<str>> {
    const STACK: usize = 256;
    let len = first.len() + second.len();
    if len <= STACK {
        let mut buf = [0u8; STACK];
        buf[..first.len()].copy_from_slice(first);
        buf[first.len()..len].copy_from_slice(second);
        return std::str::from_utf8(&buf[..len]).ok().map(Arc::from);
    }
    String::from_utf8([first, second].concat()).ok().map(Arc::from)
}

/// `first` followed by `second` as one `Arc<str>` ([`concat_utf8`]).
fn concat(first: &str, second: &str) -> Arc<str> {
    concat_utf8(first.as_bytes(), second.as_bytes()).expect("two strs join into UTF-8")
}

impl Literal {
    /// A plain (`xsd:string`) literal.
    pub fn simple(lexical: impl Into<Arc<str>>) -> Self {
        Literal { text: lexical.into(), split: 0, kind: TermKind::Literal }
    }

    /// A language-tagged literal such as `"chat"@fr`.
    pub fn lang(lexical: impl Into<Arc<str>>, tag: impl Into<Arc<str>>) -> Self {
        let (lexical, tag): (Arc<str>, Arc<str>) = (lexical.into(), tag.into());
        Literal::two_pieces(TermKind::LangLiteral, &lexical, &tag)
    }

    /// A typed literal such as `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`.
    ///
    /// Passing the `xsd:string` datatype yields the same value as
    /// [`Literal::simple`].
    pub fn typed(lexical: impl Into<Arc<str>>, datatype: Iri) -> Self {
        if datatype.as_str() == XSD_STRING {
            Literal::simple(lexical)
        } else {
            let lexical: Arc<str> = lexical.into();
            Literal::two_pieces(TermKind::TypedLiteral, &lexical, datatype.as_str())
        }
    }

    /// A language-tagged (`kind` [`TermKind::LangLiteral`]) or typed
    /// ([`TermKind::TypedLiteral`], never `xsd:string`) literal from
    /// borrowed pieces, in one allocation.
    ///
    /// # Panics
    ///
    /// If the tag or datatype IRI is 4 GiB or longer.
    fn two_pieces(kind: TermKind, lexical: &str, second: &str) -> Self {
        let split = u32::try_from(second.len()).expect("literal tag or datatype exceeds 4 GiB");
        Literal { text: concat(lexical, second), split, kind }
    }

    /// The lexical form, then the tag or datatype IRI of a two-piece kind.
    #[inline]
    fn pieces(&self) -> (&str, Option<&str>) {
        if self.kind == TermKind::Literal {
            return (&self.text, None);
        }
        let (lexical, second) = self.text.split_at(self.text.len() - self.split as usize);
        (lexical, Some(second))
    }

    /// The lexical form, unescaped.
    pub fn lexical(&self) -> &str {
        self.pieces().0
    }

    /// The language tag, if this is a language-tagged string.
    pub fn language(&self) -> Option<&str> {
        self.pieces().1.filter(|_| self.kind == TermKind::LangLiteral)
    }

    /// The datatype IRI, if it is neither `xsd:string` (plain) nor
    /// `rdf:langString` (language-tagged).
    fn explicit_datatype(&self) -> Option<&str> {
        self.pieces().1.filter(|_| self.kind == TermKind::TypedLiteral)
    }

    /// The datatype IRI. Plain literals report `xsd:string` and
    /// language-tagged ones `rdf:langString` (RDF 1.1 §3.3).
    pub fn datatype(&self) -> &str {
        match self.kind {
            TermKind::LangLiteral => RDF_LANG_STRING,
            _ => self.explicit_datatype().unwrap_or(XSD_STRING),
        }
    }
}

impl Ord for Literal {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.lexical().cmp(other.lexical()).then_with(|| {
            (self.language(), self.explicit_datatype())
                .cmp(&(other.language(), other.explicit_datatype()))
        })
    }
}

impl PartialOrd for Literal {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Literal {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.lexical().hash(state);
        self.language().hash(state);
        self.explicit_datatype().hash(state);
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_term(f, &TermRef::from(self))
    }
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Literal({self})")
    }
}

/// The five shapes an RDF term takes, by which string pieces it carries.
///
/// The discriminants are stable: `hex_dict` stores them as its per-term
/// kind column and the hexsnap `DICT` section writes them to disk.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum TermKind {
    /// An IRI reference: one piece, the IRI.
    Iri = 0,
    /// A blank node: one piece, the label.
    Blank = 1,
    /// A plain (`xsd:string`) literal: one piece, the lexical form.
    Literal = 2,
    /// A language-tagged literal: lexical form, then the tag.
    LangLiteral = 3,
    /// A typed literal (never `xsd:string`): lexical form, then the
    /// datatype IRI.
    TypedLiteral = 4,
}

impl TermKind {
    /// The kind with discriminant `byte`, if there is one.
    #[inline]
    pub fn from_byte(byte: u8) -> Option<Self> {
        Some(match byte {
            0 => TermKind::Iri,
            1 => TermKind::Blank,
            2 => TermKind::Literal,
            3 => TermKind::LangLiteral,
            4 => TermKind::TypedLiteral,
            _ => return None,
        })
    }

    /// Number of string pieces a term of this kind carries (1 or 2).
    #[inline]
    pub fn pieces(self) -> usize {
        match self {
            TermKind::LangLiteral | TermKind::TypedLiteral => 2,
            _ => 1,
        }
    }

    /// True for the three literal kinds.
    pub fn is_literal(self) -> bool {
        self >= TermKind::Literal
    }
}

/// A borrowed view of an RDF term: its [`TermKind`] plus one or two
/// string pieces, unescaped.
///
/// This is the form terms take at the system's two string boundaries: a
/// [`Statement`](crate::Statement) of the N-Triples tokenizer is viewed as
/// pieces that are slices of the input text (only a term written with
/// escape sequences owns its unescaped text), and a dictionary hands out
/// pieces that are slices of its string arena (only an IRI it stores as a
/// namespace prefix plus the rest owns its joined text).
/// Neither allocates per term otherwise; [`TermRef::to_owned`] builds a
/// [`Term`] for callers that keep one.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TermRef<'a> {
    kind: TermKind,
    first: Cow<'a, str>,
    /// `Some` exactly when `kind.pieces() == 2`.
    second: Option<Cow<'a, str>>,
}

impl<'a> TermRef<'a> {
    /// An IRI term.
    pub fn iri(iri: impl Into<Cow<'a, str>>) -> Self {
        TermRef { kind: TermKind::Iri, first: iri.into(), second: None }
    }

    /// A blank-node term (label without the `_:` prefix).
    pub fn blank(label: impl Into<Cow<'a, str>>) -> Self {
        TermRef { kind: TermKind::Blank, first: label.into(), second: None }
    }

    /// A plain literal term.
    pub fn literal(lexical: impl Into<Cow<'a, str>>) -> Self {
        TermRef { kind: TermKind::Literal, first: lexical.into(), second: None }
    }

    /// A language-tagged literal term.
    pub fn lang_literal(lexical: impl Into<Cow<'a, str>>, tag: impl Into<Cow<'a, str>>) -> Self {
        TermRef { kind: TermKind::LangLiteral, first: lexical.into(), second: Some(tag.into()) }
    }

    /// A typed literal term; the `xsd:string` datatype yields a plain
    /// literal, as in [`Literal::typed`].
    pub fn typed_literal(
        lexical: impl Into<Cow<'a, str>>,
        datatype: impl Into<Cow<'a, str>>,
    ) -> Self {
        let datatype = datatype.into();
        if datatype == XSD_STRING {
            return TermRef::literal(lexical);
        }
        TermRef { kind: TermKind::TypedLiteral, first: lexical.into(), second: Some(datatype) }
    }

    /// A term from its kind and string pieces — the inverse of
    /// [`TermRef::kind`] plus [`TermRef::pieces`]. `None` when `second`
    /// is not present exactly for the two-piece kinds, or when a typed
    /// literal names `xsd:string` (which is canonically a plain literal).
    #[inline]
    pub fn from_pieces(kind: TermKind, first: &'a str, second: Option<&'a str>) -> Option<Self> {
        if second.is_some() != (kind.pieces() == 2)
            || (kind == TermKind::TypedLiteral && second == Some(XSD_STRING))
        {
            return None;
        }
        Some(TermRef { kind, first: first.into(), second: second.map(Cow::Borrowed) })
    }

    /// The kind of this term.
    #[inline]
    pub fn kind(&self) -> TermKind {
        self.kind
    }

    /// The string pieces: IRI, blank label or lexical form, then the
    /// language tag or datatype IRI of the two-piece kinds.
    #[inline]
    pub fn pieces(&self) -> (&str, Option<&str>) {
        (&self.first, self.second.as_deref())
    }

    /// Builds the owned [`Term`]: one allocation, for every kind.
    #[inline]
    pub fn to_owned(&self) -> Term {
        let (first, second) = self.pieces();
        match (self.kind, second) {
            (TermKind::Iri, _) => Term::iri(first),
            (TermKind::Blank, _) => Term::blank(first),
            // A view carries a second piece exactly for the two-piece
            // kinds, and never a typed `xsd:string`.
            (kind, Some(second)) => Term::Literal(Literal::two_pieces(kind, first, second)),
            (_, None) => Term::literal(first),
        }
    }
}

impl<'a> From<&'a Term> for TermRef<'a> {
    fn from(term: &'a Term) -> Self {
        match term {
            Term::Iri(iri) => TermRef::iri(iri.as_str()),
            Term::Blank(b) => TermRef::blank(b.as_str()),
            Term::Literal(l) => TermRef::from(l),
        }
    }
}

impl<'a> From<&'a Literal> for TermRef<'a> {
    fn from(l: &'a Literal) -> Self {
        let (lexical, second) = l.pieces();
        TermRef { kind: l.kind, first: lexical.into(), second: second.map(Cow::Borrowed) }
    }
}

/// Reborrows: a view of a view, with no owned text.
impl<'a> From<&'a TermRef<'_>> for TermRef<'a> {
    fn from(term: &'a TermRef<'_>) -> Self {
        let (first, second) = term.pieces();
        TermRef { kind: term.kind, first: first.into(), second: second.map(Cow::Borrowed) }
    }
}

impl fmt::Display for TermRef<'_> {
    /// Formats the term in N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_term(f, self)
    }
}

impl fmt::Debug for TermRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// An RDF term: the value space of subjects, predicates and objects.
///
/// RDF restricts which kinds may appear in which triple position (e.g.
/// literals only as objects); [`crate::Triple::new`] does not enforce this —
/// the stores in this workspace are generalized triple stores, as was the
/// paper's prototype — but the N-Triples I/O functions
/// ([`crate::parse_document`], [`crate::write_document`]) emit/accept only
/// valid N-Triples.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// An IRI reference, e.g. `<http://example.org/ID1>`.
    Iri(Iri),
    /// A blank node, e.g. `_:b0`.
    Blank(BlankNode),
    /// A literal, e.g. `"AI"` or `"42"^^xsd:integer`.
    Literal(Literal),
}

impl Term {
    /// Convenience constructor for an IRI term.
    pub fn iri(iri: impl Into<Arc<str>>) -> Self {
        Term::Iri(Iri::new(iri))
    }

    /// An IRI term whose text is the bytes `prefix` followed by `rest`, in
    /// one allocation: the pieces are joined on the stack, as a literal's
    /// are, and validated once. `None` when together they are not UTF-8.
    /// A dictionary that stores an IRI's namespace apart from the rest
    /// decodes through this.
    pub fn iri_from_parts(prefix: &[u8], rest: &[u8]) -> Option<Self> {
        concat_utf8(prefix, rest).map(|text| Term::Iri(Iri(text)))
    }

    /// Convenience constructor for a blank-node term.
    pub fn blank(label: impl Into<Arc<str>>) -> Self {
        Term::Blank(BlankNode::new(label))
    }

    /// Convenience constructor for a plain literal term.
    pub fn literal(lexical: impl Into<Arc<str>>) -> Self {
        Term::Literal(Literal::simple(lexical))
    }

    /// Convenience constructor for a language-tagged literal term.
    pub fn lang_literal(lexical: impl Into<Arc<str>>, tag: impl Into<Arc<str>>) -> Self {
        Term::Literal(Literal::lang(lexical, tag))
    }

    /// Convenience constructor for a typed literal term.
    pub fn typed_literal(lexical: impl Into<Arc<str>>, datatype: impl Into<Arc<str>>) -> Self {
        Term::Literal(Literal::typed(lexical, Iri::new(datatype)))
    }

    /// The kind of this term.
    pub fn kind(&self) -> TermKind {
        TermRef::from(self).kind()
    }

    /// Returns the IRI string if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(iri) => Some(iri.as_str()),
            _ => None,
        }
    }

    /// Returns the literal if this term is a literal.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(lit) => Some(lit),
            _ => None,
        }
    }

    /// True if the term may be used as a subject (IRI or blank node).
    pub fn is_valid_subject(&self) -> bool {
        !matches!(self, Term::Literal(_))
    }

    /// True if the term may be used as a predicate (IRI only).
    pub fn is_valid_predicate(&self) -> bool {
        matches!(self, Term::Iri(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_term(f, &TermRef::from(self))
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<Iri> for Term {
    fn from(iri: Iri) -> Self {
        Term::Iri(iri)
    }
}

impl From<BlankNode> for Term {
    fn from(b: BlankNode) -> Self {
        Term::Blank(b)
    }
}

impl From<Literal> for Term {
    fn from(l: Literal) -> Self {
        Term::Literal(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_display_wraps_in_angle_brackets() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
    }

    #[test]
    fn blank_display_has_prefix() {
        assert_eq!(Term::blank("b0").to_string(), "_:b0");
    }

    #[test]
    fn plain_literal_display() {
        assert_eq!(Term::literal("AI").to_string(), "\"AI\"");
    }

    #[test]
    fn lang_literal_display() {
        assert_eq!(Term::lang_literal("chat", "fr").to_string(), "\"chat\"@fr");
    }

    #[test]
    fn typed_literal_display() {
        let t = Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer");
        assert_eq!(t.to_string(), "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>");
    }

    #[test]
    fn xsd_string_typed_literal_collapses_to_simple() {
        let a = Term::typed_literal("x", XSD_STRING);
        let b = Term::literal("x");
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "\"x\"");
    }

    #[test]
    fn literal_escaping_round_trips_special_chars() {
        let l = Literal::simple("a\"b\\c\nd\re\tf");
        assert_eq!(l.to_string(), "\"a\\\"b\\\\c\\nd\\re\\tf\"");
    }

    #[test]
    fn datatype_of_plain_literal_is_xsd_string() {
        assert_eq!(Literal::simple("x").datatype(), XSD_STRING);
    }

    #[test]
    fn datatype_of_lang_literal_is_rdf_lang_string() {
        let l = Literal::lang("chat", "fr");
        assert_eq!(l.datatype(), RDF_LANG_STRING);
        assert_eq!(l.language(), Some("fr"));
        // The view still reads the tag, so the term encodes as before.
        assert_eq!(TermRef::from(&l), TermRef::lang_literal("chat", "fr"));
    }

    #[test]
    fn pieces_longer_than_the_stack_buffer_join_too() {
        let lexical = "é".repeat(200);
        let datatype = format!("http://x/{}", "d".repeat(100));
        let l = Literal::typed(lexical.as_str(), Iri::new(datatype.as_str()));
        assert_eq!((l.lexical(), l.language(), l.datatype()), (&*lexical, None, &*datatype));
        let view = TermRef::typed_literal(lexical.as_str(), datatype.as_str());
        assert_eq!(view.to_owned(), Term::Literal(l));
    }

    #[test]
    fn an_iri_from_parts_is_the_iri_of_its_joined_text() {
        let join = |a: &str, b: &str| Term::iri_from_parts(a.as_bytes(), b.as_bytes());
        assert_eq!(join("http://x/", "a"), Some(Term::iri("http://x/a")));
        assert_eq!(join("", "urn:a"), Some(Term::iri("urn:a")));
        let long = "é".repeat(200);
        assert_eq!(join(&long, "x"), Some(Term::iri(format!("{long}x"))));
        // Pieces that split a character are refused, on and off the stack.
        let e = "é".as_bytes();
        assert_eq!(Term::iri_from_parts(&e[..1], b"x"), None);
        assert_eq!(Term::iri_from_parts(long.as_bytes(), &e[..1]), None);
        assert_eq!(Term::iri_from_parts(&e[..1], &e[1..]), Some(Term::iri("é")));
    }

    #[test]
    fn term_ordering_is_total_and_kind_grouped() {
        let mut terms = [
            Term::literal("z"),
            Term::iri("http://x/b"),
            Term::blank("a"),
            Term::iri("http://x/a"),
        ];
        terms.sort();
        assert_eq!(terms[0], Term::iri("http://x/a"));
        assert_eq!(terms[1], Term::iri("http://x/b"));
        assert_eq!(terms[2], Term::blank("a"));
        assert_eq!(terms[3], Term::literal("z"));
    }

    #[test]
    fn validity_predicates() {
        assert!(Term::iri("http://x/a").is_valid_subject());
        assert!(Term::blank("b").is_valid_subject());
        assert!(!Term::literal("l").is_valid_subject());
        assert!(Term::iri("http://x/a").is_valid_predicate());
        assert!(!Term::blank("b").is_valid_predicate());
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let t = Term::iri("http://example.org/very/long/iri/that/would/be/expensive/to/copy");
        let u = t.clone();
        assert_eq!(t, u);
    }

    #[test]
    fn accessors() {
        let t = Term::iri("http://x/a");
        assert_eq!(t.as_iri(), Some("http://x/a"));
        assert_eq!(t.as_literal(), None);
        let l = Term::lang_literal("hi", "en");
        let lit = l.as_literal().unwrap();
        assert_eq!(lit.lexical(), "hi");
        assert_eq!(lit.language(), Some("en"));
        assert_eq!(t.kind(), TermKind::Iri);
        assert_eq!(l.kind(), TermKind::LangLiteral);
    }

    #[test]
    fn term_ref_round_trips_every_kind() {
        let terms = [
            Term::iri("http://x/a"),
            Term::blank("b0"),
            Term::literal("plain"),
            Term::lang_literal("chat", "fr"),
            Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer"),
        ];
        for (byte, term) in terms.iter().enumerate() {
            let view = TermRef::from(term);
            assert_eq!(view.kind() as usize, byte);
            assert_eq!(TermKind::from_byte(byte as u8), Some(view.kind()));
            assert_eq!(view.pieces().1.is_some(), view.kind().pieces() == 2);
            assert_eq!(&view.to_owned(), term);
            assert_eq!(view.to_string(), term.to_string());
            assert_eq!(TermRef::from(&view), view);
            let (first, second) = view.pieces();
            assert_eq!(TermRef::from_pieces(view.kind(), first, second), Some(view.clone()));
            // The wrong piece count for the kind is refused.
            let flipped = if second.is_some() { None } else { Some("x") };
            assert_eq!(TermRef::from_pieces(view.kind(), first, flipped), None);
        }
        assert_eq!(TermRef::from_pieces(TermKind::TypedLiteral, "v", Some(XSD_STRING)), None);
        assert_eq!(TermKind::from_byte(5), None);
    }

    #[test]
    fn term_ref_typed_xsd_string_is_plain() {
        assert_eq!(TermRef::typed_literal("x", XSD_STRING), TermRef::literal("x"));
        assert_eq!(TermRef::literal(String::from("x")), TermRef::literal("x"));
    }
}
