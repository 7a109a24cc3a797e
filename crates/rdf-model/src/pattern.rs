//! Triple patterns: triples in which any position may be a variable.
//!
//! A pattern is the string-level counterpart of the eight access patterns a
//! Hexastore answers (`(s,p,o)`, `(s,p,?)`, … `(?,?,?)`). The query engine
//! works on dictionary-encoded patterns; this type is the user-facing form.

use crate::term::Term;
use crate::triple::Triple;
use std::fmt;
use std::sync::Arc;

/// One position of a triple pattern: a concrete term or a named variable.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TermPattern {
    /// A bound position holding a concrete term.
    Bound(Term),
    /// A variable, identified by name (without the leading `?`).
    Var(Arc<str>),
}

impl TermPattern {
    /// Creates a variable pattern.
    pub fn var(name: impl Into<Arc<str>>) -> Self {
        TermPattern::Var(name.into())
    }

    /// True if this position is bound to a concrete term.
    pub fn is_bound(&self) -> bool {
        matches!(self, TermPattern::Bound(_))
    }

    /// The bound term, if any.
    pub fn term(&self) -> Option<&Term> {
        match self {
            TermPattern::Bound(t) => Some(t),
            TermPattern::Var(_) => None,
        }
    }

    /// The variable name, if this position is a variable.
    pub fn var_name(&self) -> Option<&str> {
        match self {
            TermPattern::Var(v) => Some(v),
            TermPattern::Bound(_) => None,
        }
    }

    /// Whether the pattern matches the given term. Variables match anything.
    pub fn matches(&self, term: &Term) -> bool {
        match self {
            TermPattern::Bound(t) => t == term,
            TermPattern::Var(_) => true,
        }
    }
}

impl From<Term> for TermPattern {
    fn from(t: Term) -> Self {
        TermPattern::Bound(t)
    }
}

impl fmt::Display for TermPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermPattern::Bound(t) => t.fmt(f),
            TermPattern::Var(v) => write!(f, "?{v}"),
        }
    }
}

/// A triple pattern, e.g. `?x <advisor> <ID2>`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TriplePattern {
    /// Subject position.
    pub subject: TermPattern,
    /// Predicate position.
    pub predicate: TermPattern,
    /// Object position.
    pub object: TermPattern,
}

impl TriplePattern {
    /// Creates a pattern from three positions.
    pub fn new(
        subject: impl Into<TermPattern>,
        predicate: impl Into<TermPattern>,
        object: impl Into<TermPattern>,
    ) -> Self {
        TriplePattern {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
        }
    }

    /// Whether this pattern matches a concrete triple: every bound
    /// position holds its term, and positions that share a variable hold
    /// equal terms.
    pub fn matches(&self, triple: &Triple) -> bool {
        let [sp, so, po] = self.shared_variables();
        self.subject.matches(&triple.subject)
            && self.predicate.matches(&triple.predicate)
            && self.object.matches(&triple.object)
            && (!sp || triple.subject == triple.predicate)
            && (!so || triple.subject == triple.object)
            && (!po || triple.predicate == triple.object)
    }

    /// Which position pairs — `(subject, predicate)`, `(subject, object)`,
    /// `(predicate, object)`, in that order — share a variable name, so
    /// that a match must hold equal terms there.
    pub fn shared_variables(&self) -> [bool; 3] {
        let same = |a: &TermPattern, b: &TermPattern| {
            a.var_name().is_some_and(|v| b.var_name() == Some(v))
        };
        [
            same(&self.subject, &self.predicate),
            same(&self.subject, &self.object),
            same(&self.predicate, &self.object),
        ]
    }

    /// Number of bound positions (0–3). The paper's "statement-based
    /// queries" are patterns with 1 or 2 bound positions.
    pub fn bound_count(&self) -> usize {
        [&self.subject, &self.predicate, &self.object].into_iter().filter(|p| p.is_bound()).count()
    }

    /// Iterator over the distinct variable names in s, p, o order.
    pub fn variables(&self) -> Vec<&str> {
        let mut vars = Vec::with_capacity(3);
        for pos in [&self.subject, &self.predicate, &self.object] {
            if let Some(v) = pos.var_name() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        vars
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triple() -> Triple {
        Triple::new(Term::iri("http://x/s"), Term::iri("http://x/p"), Term::literal("o"))
    }

    #[test]
    fn fully_bound_pattern_matches_exact_triple() {
        let t = triple();
        let pat = TriplePattern::new(t.subject.clone(), t.predicate.clone(), t.object.clone());
        assert!(pat.matches(&t));
        assert_eq!(pat.bound_count(), 3);
    }

    #[test]
    fn variables_match_anything() {
        let pat =
            TriplePattern::new(TermPattern::var("s"), TermPattern::var("p"), TermPattern::var("o"));
        assert!(pat.matches(&triple()));
        assert_eq!(pat.bound_count(), 0);
        assert_eq!(pat.variables(), vec!["s", "p", "o"]);
    }

    #[test]
    fn bound_mismatch_rejects() {
        let pat = TriplePattern::new(
            Term::iri("http://x/other"),
            TermPattern::var("p"),
            TermPattern::var("o"),
        );
        assert!(!pat.matches(&triple()));
    }

    #[test]
    fn repeated_variable_listed_once() {
        let pat =
            TriplePattern::new(TermPattern::var("x"), TermPattern::var("p"), TermPattern::var("x"));
        assert_eq!(pat.variables(), vec!["x", "p"]);
        assert_eq!(pat.shared_variables(), [false, true, false]);
    }

    #[test]
    fn display_uses_question_mark_for_vars() {
        let pat =
            TriplePattern::new(TermPattern::var("x"), Term::iri("http://x/p"), Term::literal("o"));
        assert_eq!(pat.to_string(), "?x <http://x/p> \"o\" .");
    }

    #[test]
    fn term_pattern_accessors() {
        let b = TermPattern::from(Term::literal("v"));
        assert!(b.is_bound());
        assert_eq!(b.term(), Some(&Term::literal("v")));
        assert_eq!(b.var_name(), None);
        let v = TermPattern::var("y");
        assert!(!v.is_bound());
        assert_eq!(v.var_name(), Some("y"));
        assert_eq!(v.term(), None);
    }
}
