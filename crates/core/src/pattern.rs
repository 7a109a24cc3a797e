//! Dictionary-encoded triple patterns: the eight access shapes.
//!
//! A Hexastore answers any triple pattern — each of subject, property,
//! object either bound or free — with a single index probe (§3: "a set of
//! six indices … covers all possible accessing schemes an RDF query may
//! require"). [`IdPattern`] enumerates those shapes at the id level.

use hex_dict::{Id, IdTriple};

/// A triple pattern over dictionary ids; `None` marks a free position.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct IdPattern {
    /// Subject position, bound or free.
    pub s: Option<Id>,
    /// Predicate (property) position, bound or free.
    pub p: Option<Id>,
    /// Object position, bound or free.
    pub o: Option<Id>,
}

/// The eight binding shapes of a triple pattern, named by which positions
/// are bound. `Spo` = all bound; `None_` = none bound (full scan).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Shape {
    /// (s, p, o) — fully bound, a containment check.
    Spo,
    /// (s, p, ?) — answered by the spo index terminal list.
    Sp,
    /// (s, ?, o) — answered by the sop index terminal list.
    So,
    /// (?, p, o) — answered by the pos index terminal list.
    Po,
    /// (s, ?, ?) — answered by the spo (or sop) subject division.
    S,
    /// (?, p, ?) — answered by the pso (or pos) property division.
    P,
    /// (?, ?, o) — answered by the osp (or ops) object division.
    O,
    /// (?, ?, ?) — full scan.
    None_,
}

impl IdPattern {
    /// The fully-free pattern (matches every triple).
    pub const ALL: IdPattern = IdPattern { s: None, p: None, o: None };

    /// Creates a pattern from optional components.
    pub fn new(s: Option<Id>, p: Option<Id>, o: Option<Id>) -> Self {
        IdPattern { s, p, o }
    }

    /// Pattern binding only the subject.
    pub fn s(s: Id) -> Self {
        IdPattern { s: Some(s), p: None, o: None }
    }

    /// Pattern binding only the property.
    pub fn p(p: Id) -> Self {
        IdPattern { s: None, p: Some(p), o: None }
    }

    /// Pattern binding only the object.
    pub fn o(o: Id) -> Self {
        IdPattern { s: None, p: None, o: Some(o) }
    }

    /// Pattern binding subject and property.
    pub fn sp(s: Id, p: Id) -> Self {
        IdPattern { s: Some(s), p: Some(p), o: None }
    }

    /// Pattern binding subject and object.
    pub fn so(s: Id, o: Id) -> Self {
        IdPattern { s: Some(s), p: None, o: Some(o) }
    }

    /// Pattern binding property and object.
    pub fn po(p: Id, o: Id) -> Self {
        IdPattern { s: None, p: Some(p), o: Some(o) }
    }

    /// Fully-bound pattern.
    pub fn spo(t: IdTriple) -> Self {
        IdPattern { s: Some(t.s), p: Some(t.p), o: Some(t.o) }
    }

    /// Which of the eight shapes this pattern is.
    #[inline]
    pub fn shape(&self) -> Shape {
        // A dense match on the bound-position bits compiles to a table
        // lookup, not a branch per position: every store read starts here,
        // and which positions are bound changes from one probe to the next.
        let (s, p, o) = (self.s.is_some(), self.p.is_some(), self.o.is_some());
        match s as u8 | (p as u8) << 1 | (o as u8) << 2 {
            0 => Shape::None_,
            1 => Shape::S,
            2 => Shape::P,
            3 => Shape::Sp,
            4 => Shape::O,
            5 => Shape::So,
            6 => Shape::Po,
            _ => Shape::Spo,
        }
    }

    /// Number of bound positions.
    pub fn bound_count(&self) -> usize {
        self.s.is_some() as usize + self.p.is_some() as usize + self.o.is_some() as usize
    }

    /// Whether the pattern matches a triple.
    #[inline]
    pub fn matches(&self, t: IdTriple) -> bool {
        self.s.is_none_or(|s| s == t.s)
            && self.p.is_none_or(|p| p == t.p)
            && self.o.is_none_or(|o| o == t.o)
    }
}

impl From<IdTriple> for IdPattern {
    fn from(t: IdTriple) -> Self {
        IdPattern::spo(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    #[test]
    fn shapes_cover_all_eight() {
        assert_eq!(IdPattern::spo(t(1, 2, 3)).shape(), Shape::Spo);
        assert_eq!(IdPattern::sp(Id(1), Id(2)).shape(), Shape::Sp);
        assert_eq!(IdPattern::so(Id(1), Id(3)).shape(), Shape::So);
        assert_eq!(IdPattern::po(Id(2), Id(3)).shape(), Shape::Po);
        assert_eq!(IdPattern::s(Id(1)).shape(), Shape::S);
        assert_eq!(IdPattern::p(Id(2)).shape(), Shape::P);
        assert_eq!(IdPattern::o(Id(3)).shape(), Shape::O);
        assert_eq!(IdPattern::ALL.shape(), Shape::None_);
    }

    #[test]
    fn bound_count_matches_shape() {
        assert_eq!(IdPattern::ALL.bound_count(), 0);
        assert_eq!(IdPattern::p(Id(1)).bound_count(), 1);
        assert_eq!(IdPattern::po(Id(1), Id(2)).bound_count(), 2);
        assert_eq!(IdPattern::spo(t(1, 2, 3)).bound_count(), 3);
    }

    #[test]
    fn matching_respects_bound_positions() {
        let pat = IdPattern::po(Id(2), Id(3));
        assert!(pat.matches(t(9, 2, 3)));
        assert!(pat.matches(t(0, 2, 3)));
        assert!(!pat.matches(t(1, 2, 4)));
        assert!(!pat.matches(t(1, 5, 3)));
        assert!(IdPattern::ALL.matches(t(7, 8, 9)));
    }

    #[test]
    fn from_triple_is_fully_bound() {
        let pat: IdPattern = t(4, 5, 6).into();
        assert!(pat.matches(t(4, 5, 6)));
        assert!(!pat.matches(t(4, 5, 7)));
        assert_eq!(pat.bound_count(), 3);
    }
}
