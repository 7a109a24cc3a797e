//! Query algebra: basic graph patterns over dictionary ids.
//!
//! A *basic graph pattern* (BGP) is a conjunction of triple patterns
//! sharing variables — the query class the paper's twelve benchmark
//! queries are built from (selections, pairwise joins, path joins).

use hex_dict::Id;
use hexastore::IdPattern;

/// A variable slot index within a [`Bgp`]'s binding row.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub u16);

impl VarId {
    /// The slot as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One position of an algebra pattern: a constant id or a variable slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PatternTerm {
    /// A dictionary-encoded constant.
    Const(Id),
    /// A variable slot.
    Var(VarId),
}

impl PatternTerm {
    /// The constant id, if this is a constant.
    pub fn as_const(self) -> Option<Id> {
        match self {
            PatternTerm::Const(id) => Some(id),
            PatternTerm::Var(_) => None,
        }
    }

    /// The variable slot, if this is a variable.
    pub fn as_var(self) -> Option<VarId> {
        match self {
            PatternTerm::Var(v) => Some(v),
            PatternTerm::Const(_) => None,
        }
    }

    /// Resolves the position against a partial binding row: constants and
    /// already-bound variables become ids, unbound variables become `None`.
    #[inline]
    pub fn resolve(self, row: &[Option<Id>]) -> Option<Id> {
        match self {
            PatternTerm::Const(id) => Some(id),
            PatternTerm::Var(v) => row[v.index()],
        }
    }
}

/// An algebra triple pattern.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Pattern {
    /// Subject position.
    pub s: PatternTerm,
    /// Predicate position.
    pub p: PatternTerm,
    /// Object position.
    pub o: PatternTerm,
}

impl Pattern {
    /// Creates a pattern.
    pub fn new(s: PatternTerm, p: PatternTerm, o: PatternTerm) -> Self {
        Pattern { s, p, o }
    }

    /// The [`IdPattern`] this pattern denotes under a partial binding row.
    pub fn access(&self, row: &[Option<Id>]) -> IdPattern {
        IdPattern::new(self.s.resolve(row), self.p.resolve(row), self.o.resolve(row))
    }

    /// The variable slots this pattern mentions (with duplicates).
    pub fn vars(&self) -> impl Iterator<Item = VarId> {
        [self.s, self.p, self.o].into_iter().filter_map(PatternTerm::as_var)
    }

    /// Number of positions that are constants or bound in `row`.
    pub fn bound_count(&self, row: &[Option<Id>]) -> usize {
        [self.s, self.p, self.o].into_iter().filter(|t| t.resolve(row).is_some()).count()
    }
}

/// A basic graph pattern: a conjunction of patterns over
/// [`Bgp::var_count`] variable slots.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Bgp {
    /// The conjunctive triple patterns.
    pub patterns: Box<[Pattern]>,
}

impl Bgp {
    /// Creates a BGP.
    ///
    /// # Panics
    ///
    /// If a pattern uses `VarId(u16::MAX)`: a binding row has at most
    /// `u16::MAX` slots, the last one [`compile`](crate::compile) hands
    /// out being `u16::MAX - 1`.
    pub fn new(patterns: Vec<Pattern>) -> Self {
        assert!(
            patterns.iter().flat_map(Pattern::vars).all(|v| v.0 < u16::MAX),
            "VarId(u16::MAX) is past the last binding-row slot"
        );
        Bgp { patterns: patterns.into() }
    }

    /// Number of variable slots used across all patterns: the highest
    /// slot used, plus one.
    pub fn var_count(&self) -> usize {
        self.patterns.iter().flat_map(Pattern::vars).map(|v| v.index() + 1).max().unwrap_or(0)
    }

    /// An empty binding row for this BGP.
    pub fn empty_row(&self) -> Vec<Option<Id>> {
        vec![None; self.var_count()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: u32) -> PatternTerm {
        PatternTerm::Const(Id(v))
    }

    fn v(i: u16) -> PatternTerm {
        PatternTerm::Var(VarId(i))
    }

    #[test]
    fn resolve_against_row() {
        let row = vec![Some(Id(9)), None];
        assert_eq!(c(1).resolve(&row), Some(Id(1)));
        assert_eq!(v(0).resolve(&row), Some(Id(9)));
        assert_eq!(v(1).resolve(&row), None);
    }

    #[test]
    fn access_builds_id_pattern() {
        let p = Pattern::new(v(0), c(5), v(1));
        let row = vec![Some(Id(2)), None];
        let acc = p.access(&row);
        assert_eq!(acc, IdPattern::sp(Id(2), Id(5)));
        assert_eq!(p.bound_count(&row), 2);
        assert_eq!(p.bound_count(&[None, None]), 1);
    }

    #[test]
    fn bgp_var_count_is_max_slot_plus_one() {
        let bgp = Bgp::new(vec![Pattern::new(v(0), c(1), v(3)), Pattern::new(v(3), c(2), v(1))]);
        assert_eq!(bgp.var_count(), 4);
        assert_eq!(bgp.empty_row().len(), 4);
        let empty = Bgp::new(vec![]);
        assert_eq!(empty.var_count(), 0);
        let last = Bgp::new(vec![Pattern::new(v(u16::MAX - 1), c(1), c(2))]);
        assert_eq!(last.var_count(), usize::from(u16::MAX));
    }

    #[test]
    #[should_panic(expected = "past the last binding-row slot")]
    fn a_slot_past_the_last_is_refused() {
        Bgp::new(vec![Pattern::new(v(u16::MAX), c(1), c(2))]);
    }

    #[test]
    fn pattern_vars_lists_duplicates() {
        let p = Pattern::new(v(2), v(2), c(0));
        let vars: Vec<VarId> = p.vars().collect();
        assert_eq!(vars, vec![VarId(2), VarId(2)]);
        assert_eq!(c(0).as_const(), Some(Id(0)));
        assert_eq!(v(1).as_var(), Some(VarId(1)));
        assert_eq!(c(0).as_var(), None);
    }
}
