//! RDF triples (statements).

use crate::ntriples::{write_triple, Statement};
use crate::term::{Term, TermRef};
use std::fmt;

/// An RDF statement `<subject, predicate, object>`.
///
/// The paper calls the predicate position the *property*; the two words are
/// used interchangeably throughout this workspace.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// The subject resource.
    pub subject: Term,
    /// The predicate (property) resource.
    pub predicate: Term,
    /// The object resource or value.
    pub object: Term,
}

/// Three 24-byte terms (see [`crate::Literal`]).
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Triple>() == 72);

impl Triple {
    /// Creates a triple from its three components.
    pub fn new(subject: Term, predicate: Term, object: Term) -> Self {
        Triple { subject, predicate, object }
    }

    /// The three components in (s, p, o) order.
    pub fn as_tuple(&self) -> (&Term, &Term, &Term) {
        (&self.subject, &self.predicate, &self.object)
    }

    /// True if the triple is valid RDF: IRI/blank subject, IRI predicate.
    pub fn is_valid_rdf(&self) -> bool {
        self.subject.is_valid_subject() && self.predicate.is_valid_predicate()
    }
}

impl fmt::Display for Triple {
    /// Formats the triple as an N-Triples statement (terminated by ` .`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_triple(f, &TripleRef::from(self))
    }
}

impl fmt::Debug for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<(Term, Term, Term)> for Triple {
    fn from((s, p, o): (Term, Term, Term)) -> Self {
        Triple::new(s, p, o)
    }
}

/// A borrowed view of a statement: three [`TermRef`]s, built from an
/// owned [`Triple`], from another view, or from a [`Statement`] of the
/// N-Triples tokenizer — what the dictionary encodes without an owned
/// [`Triple`] in between.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TripleRef<'a> {
    /// The subject resource.
    pub subject: TermRef<'a>,
    /// The predicate (property) resource.
    pub predicate: TermRef<'a>,
    /// The object resource or value.
    pub object: TermRef<'a>,
}

impl TripleRef<'_> {
    /// Builds the owned [`Triple`] (allocating its strings).
    pub fn to_owned(&self) -> Triple {
        Triple::new(self.subject.to_owned(), self.predicate.to_owned(), self.object.to_owned())
    }
}

impl<'a> From<&'a Triple> for TripleRef<'a> {
    fn from(t: &'a Triple) -> Self {
        TripleRef {
            subject: (&t.subject).into(),
            predicate: (&t.predicate).into(),
            object: (&t.object).into(),
        }
    }
}

/// Reborrows: a view of a view, with no owned text.
impl<'a> From<&'a TripleRef<'_>> for TripleRef<'a> {
    fn from(t: &'a TripleRef<'_>) -> Self {
        TripleRef {
            subject: (&t.subject).into(),
            predicate: (&t.predicate).into(),
            object: (&t.object).into(),
        }
    }
}

/// Slices the statement's line: see [`Statement::triple`].
impl<'a> From<&'a Statement<'_>> for TripleRef<'a> {
    fn from(statement: &'a Statement<'_>) -> Self {
        statement.triple()
    }
}

impl fmt::Display for TripleRef<'_> {
    /// Formats the triple as an N-Triples statement (terminated by ` .`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_triple(f, self)
    }
}

impl fmt::Debug for TripleRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Triple {
        Triple::new(Term::iri("http://x/ID1"), Term::iri("http://x/teacherOf"), Term::literal("AI"))
    }

    #[test]
    fn display_is_ntriples() {
        assert_eq!(t().to_string(), "<http://x/ID1> <http://x/teacherOf> \"AI\" .");
    }

    #[test]
    fn tuple_accessor_matches_fields() {
        let triple = t();
        let (s, p, o) = triple.as_tuple();
        assert_eq!(s, &triple.subject);
        assert_eq!(p, &triple.predicate);
        assert_eq!(o, &triple.object);
    }

    #[test]
    fn validity() {
        assert!(t().is_valid_rdf());
        let bad = Triple::new(Term::literal("x"), Term::iri("http://x/p"), Term::literal("y"));
        assert!(!bad.is_valid_rdf());
        let bad_pred = Triple::new(Term::iri("http://x/s"), Term::blank("p"), Term::literal("y"));
        assert!(!bad_pred.is_valid_rdf());
    }

    #[test]
    fn ordering_is_spo_lexicographic() {
        let a = Triple::new(Term::iri("http://x/a"), Term::iri("http://x/p"), Term::literal("1"));
        let b = Triple::new(Term::iri("http://x/a"), Term::iri("http://x/q"), Term::literal("0"));
        let c = Triple::new(Term::iri("http://x/b"), Term::iri("http://x/p"), Term::literal("0"));
        let mut v = vec![c.clone(), b.clone(), a.clone()];
        v.sort();
        assert_eq!(v, vec![a, b, c]);
    }

    #[test]
    fn triple_ref_round_trips() {
        let triple = t();
        let view = TripleRef::from(&triple);
        assert_eq!(view.to_owned(), triple);
        assert_eq!(view.to_string(), triple.to_string());
        assert_eq!(TripleRef::from(&view), view);
    }

    #[test]
    fn from_tuple() {
        let trip: Triple =
            (Term::iri("http://x/s"), Term::iri("http://x/p"), Term::literal("o")).into();
        assert_eq!(trip.subject.as_iri(), Some("http://x/s"));
    }
}
