//! The conventional "giant triples table" baseline.
//!
//! §1: "RDF triples were traditionally stored in a giant triples table,
//! causing serious scalability problems." This store is that design, done
//! as well as a single relation can be: one array of `(s, p, o)` keys kept
//! in spo-sorted order, so subject-prefix lookups are binary searches but
//! *everything else is a scan*.

use hex_dict::{Id, IdTriple};
use hexastore::{IdPattern, IndexKind, IndexSet, Shape, TripleStore};

/// A single sorted relation of dictionary-encoded triples.
#[derive(Clone, Default, Debug)]
pub struct TriplesTable {
    rows: Vec<IdTriple>,
}

impl TriplesTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TriplesTable::default()
    }

    /// Builds a table from an arbitrary batch (sorting and deduplicating).
    pub fn from_triples(triples: impl IntoIterator<Item = IdTriple>) -> Self {
        let mut rows: Vec<IdTriple> = triples.into_iter().collect();
        rows.sort_unstable();
        rows.dedup();
        TriplesTable { rows }
    }

    /// The rows in spo order.
    pub fn rows(&self) -> &[IdTriple] {
        &self.rows
    }

    /// The contiguous row range with subject `s` (binary search on the
    /// sort prefix).
    fn subject_range(&self, s: Id) -> std::ops::Range<usize> {
        let lo = self.rows.partition_point(|t| t.s < s);
        let hi = self.rows.partition_point(|t| t.s <= s);
        lo..hi
    }

    /// The contiguous row range with subject `s` and predicate `p`.
    fn sp_range(&self, s: Id, p: Id) -> std::ops::Range<usize> {
        let lo = self.rows.partition_point(|t| (t.s, t.p) < (s, p));
        let hi = self.rows.partition_point(|t| (t.s, t.p) <= (s, p));
        lo..hi
    }
}

impl hexastore::traits::MutableStore for TriplesTable {}

impl hexastore::StatsSource for TriplesTable {}

impl TripleStore for TriplesTable {
    fn name(&self) -> &'static str {
        "TriplesTable"
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn insert(&mut self, t: IdTriple) -> bool {
        match self.rows.binary_search(&t) {
            Ok(_) => false,
            Err(pos) => {
                self.rows.insert(pos, t);
                true
            }
        }
    }

    fn remove(&mut self, t: IdTriple) -> bool {
        match self.rows.binary_search(&t) {
            Ok(pos) => {
                self.rows.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    fn contains(&self, t: IdTriple) -> bool {
        self.rows.binary_search(&t).is_ok()
    }

    fn iter_matching(&self, pat: IdPattern) -> hexastore::TripleIter<'_> {
        // Only the spo sort order helps; any pattern that does not bind a
        // subject prefix degenerates to a full scan — the defect the paper
        // attributes to triples tables.
        let range = match pat.shape() {
            Shape::Spo | Shape::Sp => self.sp_range(pat.s.unwrap(), pat.p.unwrap()),
            Shape::S | Shape::So => self.subject_range(pat.s.unwrap()),
            _ => 0..self.rows.len(),
        };
        Box::new(self.rows[range].iter().copied().filter(move |&t| pat.matches(t)))
    }

    fn capabilities(&self) -> IndexSet {
        // The spo sort order is the table's only "index": subject-prefixed
        // shapes are binary searches, everything else is a scan.
        IndexSet::EMPTY.with(IndexKind::Spo)
    }

    fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<IdTriple>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    #[test]
    fn insert_keeps_sorted_dedup() {
        let mut tab = TriplesTable::new();
        assert!(tab.insert(t(2, 1, 1)));
        assert!(tab.insert(t(1, 1, 1)));
        assert!(!tab.insert(t(1, 1, 1)));
        assert_eq!(tab.rows(), &[t(1, 1, 1), t(2, 1, 1)]);
        assert_eq!(tab.len(), 2);
    }

    #[test]
    fn from_triples_normalizes() {
        let tab = TriplesTable::from_triples([t(3, 0, 0), t(1, 0, 0), t(3, 0, 0)]);
        assert_eq!(tab.rows(), &[t(1, 0, 0), t(3, 0, 0)]);
    }

    #[test]
    fn contains_and_remove() {
        let mut tab = TriplesTable::from_triples([t(1, 2, 3), t(4, 5, 6)]);
        assert!(tab.contains(t(1, 2, 3)));
        assert!(tab.remove(t(1, 2, 3)));
        assert!(!tab.remove(t(1, 2, 3)));
        assert!(!tab.contains(t(1, 2, 3)));
        assert_eq!(tab.len(), 1);
    }

    #[test]
    fn pattern_matching_agrees_with_naive_filter() {
        let rows = [t(1, 2, 3), t(1, 2, 4), t(1, 5, 3), t(2, 2, 3), t(9, 9, 9)];
        let tab = TriplesTable::from_triples(rows);
        for pat in [
            IdPattern::ALL,
            IdPattern::s(Id(1)),
            IdPattern::p(Id(2)),
            IdPattern::o(Id(3)),
            IdPattern::sp(Id(1), Id(2)),
            IdPattern::so(Id(1), Id(3)),
            IdPattern::po(Id(2), Id(3)),
            IdPattern::spo(t(1, 2, 3)),
            IdPattern::spo(t(0, 0, 0)),
        ] {
            let expected: Vec<IdTriple> =
                rows.iter().copied().filter(|&x| pat.matches(x)).collect();
            assert_eq!(tab.matching(pat), expected, "pattern {pat:?}");
            assert_eq!(tab.iter_matching(pat).collect::<Vec<_>>(), expected, "cursor {pat:?}");
        }
    }

    #[test]
    fn capabilities_reflect_the_spo_sort_order() {
        let tab = TriplesTable::new();
        assert_eq!(tab.capabilities(), IndexSet::EMPTY.with(IndexKind::Spo));
        assert!(tab.capabilities().serves(Shape::Sp));
        assert!(tab.capabilities().serves(Shape::S));
        assert!(!tab.capabilities().serves(Shape::Po));
    }

    #[test]
    fn heap_bytes_tracks_rows() {
        let tab = TriplesTable::from_triples((0..100).map(|i| t(i, 0, i)));
        assert!(tab.heap_bytes() >= 100 * std::mem::size_of::<IdTriple>());
    }
}
