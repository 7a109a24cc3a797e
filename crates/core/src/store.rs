//! The paper's space accounting, and the name the figures give the
//! sextuple index.
//!
//! Section 4.1 of the paper: "each RDF element type deserves to have
//! special index structures built around it … every possible ordering of
//! the importance or precedence of the three elements … is materialized."
//! The six orderings are `spo, sop, pso, pos, osp, ops`; paired orderings
//! share their terminal lists, bounding worst-case space at five entries
//! per resource key (two headers, two vectors, one list). That structure is
//! [`FrozenHexastore`], in flat slabs; [`SpaceStats`] counts its entries.
//! One ordering is read as
//! [`ordering(kind)`](crate::access::OrderedStore::ordering) — a
//! [`SlabOrdering`](crate::access::SlabOrdering) with `list`, `division`,
//! `scan` and `keys` — on this store as on every other slab store.

use crate::frozen::FrozenHexastore;

/// Space-accounting breakdown of a Hexastore (see
/// [`FrozenHexastore::space_stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpaceStats {
    /// Distinct triples stored.
    pub triples: usize,
    /// Key entries in the six header levels (first-level keys).
    pub header_entries: usize,
    /// Key entries in the six vectors (second-level keys).
    pub vector_entries: usize,
    /// Key entries in the three shared terminal-list arenas.
    pub list_entries: usize,
}

impl SpaceStats {
    /// Total key entries across the whole sextuple index.
    pub fn total_entries(&self) -> usize {
        self.header_entries + self.vector_entries + self.list_entries
    }

    /// Key entries a plain triples table would use (three per triple).
    pub fn triples_table_entries(&self) -> usize {
        self.triples * 3
    }

    /// Ratio of Hexastore key entries to triples-table key entries.
    /// The paper proves this is at most 5.0 (§4.1).
    pub fn blowup(&self) -> f64 {
        if self.triples == 0 {
            0.0
        } else {
            self.total_entries() as f64 / self.triples_table_entries() as f64
        }
    }
}

/// The sextuple-index RDF store of Weiss, Karras & Bernstein (VLDB 2008),
/// under the name the figures and the benchmark give it: the read-only
/// slab store. Its write path is [`crate::OverlayHexastore`]
/// ([`FrozenHexastore::thaw`]).
///
/// Operates on dictionary-encoded triples ([`hex_dict::IdTriple`]); pair
/// it with a [`hex_dict::Dictionary`] for string-level data (or use
/// [`crate::FrozenGraphStore`], which bundles the two).
///
/// ```
/// use hexastore::access::OrderedStore;
/// use hexastore::{Hexastore, IdPattern, IndexKind, TripleStore};
/// use hex_dict::{Id, IdTriple};
///
/// let store = Hexastore::from_triples([
///     IdTriple::from((0, 1, 2)),
///     IdTriple::from((0, 1, 3)),
///     IdTriple::from((4, 1, 2)),
/// ]);
///
/// // (s, p, ?): one spo probe, objects come back sorted.
/// assert_eq!(store.ordering(IndexKind::Spo).list(Id(0), Id(1)), &[Id(2), Id(3)]);
/// // (?, ?, o): one osp probe — no per-property scan.
/// assert_eq!(store.count_matching(IdPattern::o(Id(2))), 2);
/// ```
pub type Hexastore = FrozenHexastore;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::OrderedStore;
    use crate::advisor::IndexKind::{Ops, Osp, Pos, Pso, Sop, Spo};
    use crate::pattern::IdPattern;
    use crate::traits::TripleStore;
    use crate::OverlayHexastore;
    use hex_dict::{Id, IdTriple};

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    /// The Figure 1 example data (ids assigned by hand):
    /// subjects ID1..ID4 = 1..4; properties 10..19; objects 20..29.
    fn figure1() -> Hexastore {
        // ID1: type FullProf, teacherOf AI, bachelorFrom MIT,
        //      mastersFrom Cambridge, phdFrom Yale
        Hexastore::from_triples([
            t(1, 10, 20),
            t(1, 11, 21),
            t(1, 12, 22),
            t(1, 13, 23),
            t(1, 14, 24),
            // ID2: type AssocProf, worksFor MIT, teacherOf DataBases,
            //      bachelorsFrom Yale, phdFrom Stanford
            t(2, 10, 25),
            t(2, 15, 22),
            t(2, 11, 26),
            t(2, 16, 24),
            t(2, 14, 27),
            // ID3: type GradStudent, advisor ID2, TA AI,
            //      bachelorsFrom Stanford, mastersFrom Princeton
            t(3, 10, 28),
            t(3, 17, 2),
            t(3, 18, 21),
            t(3, 16, 27),
            t(3, 13, 29),
            // ID4: type GradStudent, advisor ID1, takesCourse DataBases,
            //      bachelorsFrom Columbia
            t(4, 10, 28),
            t(4, 17, 1),
            t(4, 19, 26),
            t(4, 16, 30),
        ])
    }

    #[test]
    fn insert_dedupes() {
        // The write path and the bulk build alike store a triple once.
        let mut h = OverlayHexastore::default();
        assert!(h.insert(t(1, 2, 3)));
        assert!(!h.insert(t(1, 2, 3)));
        assert_eq!(h.len(), 1);
        assert_eq!(Hexastore::from_triples([t(1, 2, 3), t(1, 2, 3)]).len(), 1);
    }

    #[test]
    fn contains_and_remove() {
        let mut h = OverlayHexastore::default();
        h.insert(t(1, 2, 3));
        h.insert(t(1, 2, 4));
        assert!(h.contains(t(1, 2, 3)));
        assert!(!h.contains(t(3, 2, 1)));
        assert!(h.remove(t(1, 2, 3)));
        assert!(!h.remove(t(1, 2, 3)));
        assert!(!h.contains(t(1, 2, 3)));
        assert!(h.contains(t(1, 2, 4)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn remove_last_triple_clears_all_indices() {
        let mut written = Hexastore::from_triples([t(1, 2, 3)]).thaw();
        assert!(written.remove(t(1, 2, 3)));
        assert_eq!(written.len(), 0);
        let h = written.freeze();
        assert_eq!(h.len(), 0);
        for kind in [Spo, Pso, Osp] {
            assert_eq!(h.ordering(kind).keys().len(), 0, "{kind:?}");
        }
        let stats = h.space_stats();
        assert_eq!(stats.total_entries(), 0);
    }

    #[test]
    fn terminal_lists_are_sorted_and_shared() {
        let h = Hexastore::from_triples([t(1, 2, 9), t(1, 2, 3), t(1, 2, 6)]);
        assert_eq!(h.ordering(Spo).list(Id(1), Id(2)), &[Id(3), Id(6), Id(9)]);
        // pso must see the identical list (shared, not copied).
        let via_pso: Vec<(Id, Vec<Id>)> =
            h.ordering(Pso).division(Id(2)).map(|(s, objs)| (s, objs.to_vec())).collect();
        assert_eq!(via_pso, vec![(Id(1), vec![Id(3), Id(6), Id(9)])]);
    }

    #[test]
    fn figure1_ops_example() {
        // §4.1: "the ops indexing … includes a property vector for the
        // object 'MIT'. This property vector contains two property entries,
        // namely bachelorFrom and worksFor", each with one subject.
        let h = figure1();
        let mit = Id(22);
        let props: Vec<Id> = h.ordering(Ops).division(mit).map(|(p, _)| p).collect();
        assert_eq!(props, vec![Id(12), Id(15)]); // bachelorFrom, worksFor
        assert_eq!(h.ordering(Pos).list(Id(12), mit), &[Id(1)]);
        assert_eq!(h.ordering(Pos).list(Id(15), mit), &[Id(2)]);
    }

    #[test]
    fn figure1_osp_example() {
        // §4.1: "the osp indexing includes a subject vector for the object
        // 'Stanford' … two subject entries, namely ID2 and ID3", with
        // property lists {phdFrom} and {bachelorsFrom}.
        let h = figure1();
        let stanford = Id(27);
        let subjects: Vec<Id> = h.ordering(Osp).division(stanford).map(|(s, _)| s).collect();
        assert_eq!(subjects, vec![Id(2), Id(3)]);
        assert_eq!(h.ordering(Sop).list(Id(2), stanford), &[Id(14)]); // phdFrom
        assert_eq!(h.ordering(Sop).list(Id(3), stanford), &[Id(16)]); // bachelorsFrom
    }

    #[test]
    fn all_eight_patterns_agree_with_full_scan() {
        let h = figure1();
        let all = h.matching(IdPattern::ALL);
        assert_eq!(all.len(), h.len());
        for &tr in &all {
            for pat in [
                IdPattern::spo(tr),
                IdPattern::sp(tr.s, tr.p),
                IdPattern::so(tr.s, tr.o),
                IdPattern::po(tr.p, tr.o),
                IdPattern::s(tr.s),
                IdPattern::p(tr.p),
                IdPattern::o(tr.o),
            ] {
                let matched = h.matching(pat);
                let expected: Vec<IdTriple> =
                    all.iter().copied().filter(|&x| pat.matches(x)).collect();
                let mut matched_sorted = matched.clone();
                matched_sorted.sort();
                let mut expected_sorted = expected;
                expected_sorted.sort();
                assert_eq!(matched_sorted, expected_sorted, "pattern {pat:?}");
                assert_eq!(h.count_matching(pat), matched.len());
            }
        }
    }

    #[test]
    fn space_stats_worst_case_is_exactly_five_fold() {
        // All-distinct resources: every key appears once, so every key
        // contributes 2 header + 2 vector + 1 list entries (§4.1).
        let n = 50;
        let h = Hexastore::from_triples((0..n).map(|i| t(i, n + i, 2 * n + i)));
        let stats = h.space_stats();
        assert_eq!(stats.triples, n as usize);
        assert_eq!(stats.total_entries(), 5 * 3 * n as usize);
        assert!((stats.blowup() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn space_stats_shrink_with_sharing() {
        // Dense data (few distinct resources) must stay below the 5× bound.
        let h =
            Hexastore::from_triples((0..500).map(|i| t(i / 50, 100 + i / 10 % 5, 200 + i % 10)));
        let stats = h.space_stats();
        assert!(stats.blowup() < 5.0);
        assert!(stats.blowup() > 1.0);
    }

    #[test]
    fn property_cardinality_counts_triples() {
        let h = figure1();
        assert_eq!(h.count_matching(IdPattern::p(Id(10))), 4); // type: 4 subjects
        assert_eq!(h.count_matching(IdPattern::p(Id(17))), 2); // advisor
        assert_eq!(h.count_matching(IdPattern::p(Id(99))), 0);
    }

    #[test]
    fn heap_bytes_grows_and_shrinks() {
        let mut h = OverlayHexastore::default();
        let empty = h.heap_bytes();
        for i in 0..1000u32 {
            h.insert(t(i % 50, i % 7, i));
        }
        let pending = h.heap_bytes();
        assert!(pending > empty + 1000 * 3 * 4, "pending writes exceed raw triple size");
        h.compact();
        let slabs = h.heap_bytes();
        assert!(slabs > 8 * 1000, "six indices hold more than 8 bytes a triple together");
        assert!(slabs < pending, "slabs take less than the same triples pending");
        for i in 0..500u32 {
            assert!(h.remove(t(i % 50, i % 7, i)));
        }
        h.compact();
        assert!(h.heap_bytes() < slabs);
    }

    #[test]
    fn cursor_agrees_with_for_each_on_all_shapes() {
        let h = figure1();
        let mut pats =
            vec![IdPattern::ALL, IdPattern::spo(t(1, 10, 20)), IdPattern::spo(t(9, 9, 9))];
        for &tr in &h.matching(IdPattern::ALL) {
            pats.extend([
                IdPattern::sp(tr.s, tr.p),
                IdPattern::so(tr.s, tr.o),
                IdPattern::po(tr.p, tr.o),
                IdPattern::s(tr.s),
                IdPattern::p(tr.p),
                IdPattern::o(tr.o),
            ]);
        }
        for pat in pats {
            let lazy: Vec<IdTriple> = h.iter_matching(pat).collect();
            assert_eq!(lazy, h.matching(pat), "pattern {pat:?}");
        }
    }

    #[test]
    fn subject_as_object_roundtrip() {
        // ID2 appears as subject and as object (advisor triples) — one
        // shared id namespace, distinct index roles.
        let h = figure1();
        assert!(h.ordering(Spo).keys().contains(Id(2)));
        assert!(h.ordering(Osp).keys().contains(Id(2)));
        assert_eq!(h.ordering(Pos).list(Id(17), Id(2)), &[Id(3)]);
    }
}
