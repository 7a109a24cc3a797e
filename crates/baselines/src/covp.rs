//! COVP1 and COVP2: the paper's representation of column-oriented vertical
//! partitioning (Abadi et al., VLDB 2007).
//!
//! COVP1 holds one `pso` [`PropIndex`]: a two-column table per property,
//! sorted by subject, multiple objects grouped per subject. COVP2 adds the
//! suggested-but-unimplemented second copy per property sorted on object
//! (`pos`). Neither has any subject-headed or object-headed division, so
//! queries that do not bind the property must visit *every* property table
//! — the scalability defect the paper demonstrates (§2.2.3, §5).

use crate::prop_index::PropIndex;
use hex_dict::{Id, IdTriple};
use hexastore::{sorted, IdPattern, IndexKind, IndexSet, Shape, TripleIter, TripleStore};

/// Single-index (pso) column-oriented vertical-partitioning store.
#[derive(Clone, Default, Debug)]
pub struct Covp1 {
    pso: PropIndex,
}

impl Covp1 {
    /// Creates an empty store.
    pub fn new() -> Self {
        Covp1::default()
    }

    /// Builds from a batch of triples.
    pub fn from_triples(triples: impl IntoIterator<Item = IdTriple>) -> Self {
        let mut store = Covp1::new();
        for t in triples {
            store.insert(t);
        }
        store
    }

    /// The underlying pso index (property → subject → sorted objects).
    pub fn pso(&self) -> &PropIndex {
        &self.pso
    }

    /// Sorted iterator over the distinct properties (table names).
    pub fn properties(&self) -> impl Iterator<Item = Id> + '_ {
        self.pso.properties()
    }
}

impl hexastore::traits::MutableStore for Covp1 {}

impl hexastore::StatsSource for Covp1 {}

impl TripleStore for Covp1 {
    fn name(&self) -> &'static str {
        "COVP1"
    }

    fn len(&self) -> usize {
        self.pso.len()
    }

    fn insert(&mut self, t: IdTriple) -> bool {
        self.pso.insert(t.p, t.s, t.o)
    }

    fn remove(&mut self, t: IdTriple) -> bool {
        self.pso.remove(t.p, t.s, t.o)
    }

    fn contains(&self, t: IdTriple) -> bool {
        self.pso.contains(t.p, t.s, t.o)
    }

    fn iter_matching(&self, pat: IdPattern) -> TripleIter<'_> {
        pso_iter(&self.pso, pat)
    }

    fn capabilities(&self) -> IndexSet {
        IndexSet::EMPTY.with(IndexKind::Pso)
    }

    fn count_matching(&self, pat: IdPattern) -> usize {
        match pat.shape() {
            Shape::Sp => self.pso.items(pat.p.unwrap(), pat.s.unwrap()).len(),
            Shape::P => self.pso.table_len(pat.p.unwrap()),
            Shape::None_ => self.len(),
            _ => self.iter_matching(pat).count(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.pso.heap_bytes()
    }
}

/// Two-index (pso + pos) column-oriented vertical-partitioning store.
#[derive(Clone, Default, Debug)]
pub struct Covp2 {
    pso: PropIndex,
    pos: PropIndex,
}

impl Covp2 {
    /// Creates an empty store.
    pub fn new() -> Self {
        Covp2::default()
    }

    /// Builds from a batch of triples.
    pub fn from_triples(triples: impl IntoIterator<Item = IdTriple>) -> Self {
        let mut store = Covp2::new();
        for t in triples {
            store.insert(t);
        }
        store
    }

    /// The pso index (property → subject → sorted objects).
    pub fn pso(&self) -> &PropIndex {
        &self.pso
    }

    /// The pos index (property → object → sorted subjects).
    pub fn pos(&self) -> &PropIndex {
        &self.pos
    }

    /// Sorted iterator over the distinct properties (table names).
    pub fn properties(&self) -> impl Iterator<Item = Id> + '_ {
        self.pso.properties()
    }

    /// Sorted subjects with `(p, o)` — the pos probe COVP2 adds over COVP1.
    pub fn subjects_for(&self, p: Id, o: Id) -> &[Id] {
        self.pos.items(p, o)
    }
}

impl hexastore::traits::MutableStore for Covp2 {}

impl hexastore::StatsSource for Covp2 {}

impl TripleStore for Covp2 {
    fn name(&self) -> &'static str {
        "COVP2"
    }

    fn len(&self) -> usize {
        self.pso.len()
    }

    fn insert(&mut self, t: IdTriple) -> bool {
        let added = self.pso.insert(t.p, t.s, t.o);
        if added {
            let mirrored = self.pos.insert(t.p, t.o, t.s);
            debug_assert!(mirrored, "pos out of sync with pso");
        }
        added
    }

    fn remove(&mut self, t: IdTriple) -> bool {
        let removed = self.pso.remove(t.p, t.s, t.o);
        if removed {
            let mirrored = self.pos.remove(t.p, t.o, t.s);
            debug_assert!(mirrored, "pos out of sync with pso");
        }
        removed
    }

    fn contains(&self, t: IdTriple) -> bool {
        self.pso.contains(t.p, t.s, t.o)
    }

    fn iter_matching(&self, pat: IdPattern) -> TripleIter<'_> {
        match pat.shape() {
            Shape::Po => {
                // The pos copy turns this into a single probe.
                let (p, o) = (pat.p.unwrap(), pat.o.unwrap());
                Box::new(self.pos.items(p, o).iter().map(move |&s| IdTriple::new(s, p, o)))
            }
            Shape::O => {
                // Still must visit every property, but each visit is an
                // index probe rather than a table scan.
                let o = pat.o.unwrap();
                let pos = &self.pos;
                Box::new(pos.properties().flat_map(move |p| {
                    pos.items(p, o).iter().map(move |&s| IdTriple::new(s, p, o))
                }))
            }
            // Everything else behaves like COVP1 on the pso copy.
            _ => pso_iter(&self.pso, pat),
        }
    }

    fn capabilities(&self) -> IndexSet {
        IndexSet::EMPTY.with(IndexKind::Pso).with(IndexKind::Pos)
    }

    fn count_matching(&self, pat: IdPattern) -> usize {
        match pat.shape() {
            Shape::Sp => self.pso.items(pat.p.unwrap(), pat.s.unwrap()).len(),
            Shape::Po => self.pos.items(pat.p.unwrap(), pat.o.unwrap()).len(),
            Shape::P => self.pso.table_len(pat.p.unwrap()),
            Shape::None_ => self.len(),
            _ => self.iter_matching(pat).count(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.pso.heap_bytes() + self.pos.heap_bytes()
    }
}

/// Evaluates any pattern against a pso-only index — COVP1's complete plan
/// repertoire, as a lazy cursor. Patterns that do not bind the property
/// visit every property table (§2.2.3: "All two-column tables will have to
/// be queried"), and object-bound lookups scan tables linearly: the two
/// defects the paper demonstrates against vertical partitioning.
fn pso_iter(pso: &PropIndex, pat: IdPattern) -> TripleIter<'_> {
    match pat.shape() {
        Shape::Spo | Shape::Sp => {
            let (s, p) = (pat.s.unwrap(), pat.p.unwrap());
            Box::new(
                pso.items(p, s)
                    .iter()
                    .copied()
                    .filter(move |&o| pat.o.is_none_or(|po| po == o))
                    .map(move |o| IdTriple::new(s, p, o)),
            )
        }
        Shape::P => {
            let p = pat.p.unwrap();
            Box::new(
                pso.table(p)
                    .flat_map(move |(s, objs)| objs.iter().map(move |&o| IdTriple::new(s, p, o))),
            )
        }
        Shape::Po => {
            // No object-sorted copy: scan the property table linearly.
            let (p, o) = (pat.p.unwrap(), pat.o.unwrap());
            Box::new(
                pso.table(p)
                    .filter(move |(_, objs)| sorted::contains(objs, &o))
                    .map(move |(s, _)| IdTriple::new(s, p, o)),
            )
        }
        Shape::S | Shape::So => {
            // Not property-bound: probe every property table.
            let s = pat.s.unwrap();
            Box::new(pso.properties().flat_map(move |p| {
                pso.items(p, s)
                    .iter()
                    .copied()
                    .filter(move |&o| pat.o.is_none_or(|po| po == o))
                    .map(move |o| IdTriple::new(s, p, o))
            }))
        }
        Shape::O => {
            // Worst case: scan every table fully.
            let o = pat.o.unwrap();
            Box::new(pso.properties().flat_map(move |p| {
                pso.table(p)
                    .filter(move |(_, objs)| sorted::contains(objs, &o))
                    .map(move |(s, _)| IdTriple::new(s, p, o))
            }))
        }
        Shape::None_ => Box::new(pso.properties().flat_map(move |p| {
            pso.table(p)
                .flat_map(move |(s, objs)| objs.iter().map(move |&o| IdTriple::new(s, p, o)))
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    fn sample() -> Vec<IdTriple> {
        vec![t(1, 2, 3), t(1, 2, 4), t(1, 5, 3), t(2, 2, 3), t(2, 5, 9), t(9, 9, 9)]
    }

    fn all_patterns() -> Vec<IdPattern> {
        vec![
            IdPattern::ALL,
            IdPattern::s(Id(1)),
            IdPattern::p(Id(2)),
            IdPattern::o(Id(3)),
            IdPattern::sp(Id(1), Id(2)),
            IdPattern::so(Id(1), Id(3)),
            IdPattern::po(Id(2), Id(3)),
            IdPattern::spo(t(1, 2, 3)),
            IdPattern::spo(t(7, 7, 7)),
            IdPattern::o(Id(42)),
        ]
    }

    #[test]
    fn covp1_matches_naive_filter() {
        let rows = sample();
        let store = Covp1::from_triples(rows.clone());
        assert_eq!(store.len(), rows.len());
        for pat in all_patterns() {
            let mut expected: Vec<IdTriple> =
                rows.iter().copied().filter(|&x| pat.matches(x)).collect();
            expected.sort();
            let mut got = store.matching(pat);
            got.sort();
            assert_eq!(got, expected, "covp1 pattern {pat:?}");
            assert_eq!(store.count_matching(pat), got.len());
        }
    }

    #[test]
    fn covp2_matches_naive_filter() {
        let rows = sample();
        let store = Covp2::from_triples(rows.clone());
        assert_eq!(store.len(), rows.len());
        for pat in all_patterns() {
            let mut expected: Vec<IdTriple> =
                rows.iter().copied().filter(|&x| pat.matches(x)).collect();
            expected.sort();
            let mut got = store.matching(pat);
            got.sort();
            assert_eq!(got, expected, "covp2 pattern {pat:?}");
            assert_eq!(store.count_matching(pat), got.len());
        }
    }

    #[test]
    fn capabilities_name_the_physical_indices() {
        assert_eq!(Covp1::new().capabilities(), IndexSet::EMPTY.with(IndexKind::Pso));
        assert_eq!(
            Covp2::new().capabilities(),
            IndexSet::EMPTY.with(IndexKind::Pso).with(IndexKind::Pos)
        );
        assert!(Covp2::new().capabilities().serves(hexastore::Shape::Po));
        assert!(!Covp1::new().capabilities().serves(hexastore::Shape::O));
    }

    #[test]
    fn covp2_pos_probe_is_direct() {
        let store = Covp2::from_triples(sample());
        assert_eq!(store.subjects_for(Id(2), Id(3)), &[Id(1), Id(2)]);
        assert_eq!(store.subjects_for(Id(2), Id(42)), &[] as &[Id]);
    }

    #[test]
    fn insert_remove_keep_both_indices_in_sync() {
        let mut store = Covp2::new();
        assert!(store.insert(t(1, 2, 3)));
        assert!(!store.insert(t(1, 2, 3)));
        assert!(store.contains(t(1, 2, 3)));
        assert_eq!(store.pos().items(Id(2), Id(3)), &[Id(1)]);
        assert!(store.remove(t(1, 2, 3)));
        assert!(!store.remove(t(1, 2, 3)));
        assert_eq!(store.pos().items(Id(2), Id(3)), &[] as &[Id]);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn covp2_costs_roughly_double_covp1_memory() {
        // §5.3.3 / Figure 15: Hexastore ≈ 4× COVP1; COVP2 sits in between
        // because it duplicates each property table.
        let rows: Vec<IdTriple> = (0..2000).map(|i| t(i % 97, i % 13, i)).collect();
        let c1 = Covp1::from_triples(rows.clone());
        let c2 = Covp2::from_triples(rows);
        // The two copies index the same triples but group them differently
        // (by subject vs by object), so the ratio hovers around 2 and
        // depends on the grouping shape — here many single-subject object
        // lists make the pos copy the pricier of the two.
        let ratio = c2.heap_bytes() as f64 / c1.heap_bytes() as f64;
        assert!(ratio > 1.5 && ratio < 4.0, "ratio {ratio}");
    }

    #[test]
    fn names() {
        assert_eq!(Covp1::new().name(), "COVP1");
        assert_eq!(Covp2::new().name(), "COVP2");
    }
}
