//! The Hexastore: six two-level indices with shared terminal lists.
//!
//! Section 4.1 of the paper: "each RDF element type deserves to have
//! special index structures built around it … every possible ordering of
//! the importance or precedence of the three elements … is materialized."
//! The six orderings are `spo, sop, pso, pos, osp, ops`; paired orderings
//! share their terminal lists, bounding worst-case space at five entries
//! per resource key (two headers, two vectors, one list).

use crate::access::{OrderedStore, OrderingRead};
use crate::advisor::{IndexKind, IndexSet};
use crate::arena::{ListArena, ListId};
use crate::traits::TripleStore;
use crate::vecmap::VecMap;
use hex_dict::{Id, IdTriple};

/// One of the six index orderings: header → sorted vector → terminal list.
/// Shared with `freeze` and `thaw`, which flatten and rebuild these levels
/// directly.
pub(crate) type TwoLevel = VecMap<Id, VecMap<Id, ListId>>;

/// Space-accounting breakdown of a Hexastore (see
/// [`Hexastore::space_stats`]).
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

/// The sextuple-index RDF store of Weiss, Karras & Bernstein (VLDB 2008).
///
/// Operates on dictionary-encoded triples ([`IdTriple`]); pair it with a
/// [`hex_dict::Dictionary`] for string-level data (or use
/// [`crate::GraphStore`], which bundles the two).
///
/// ```
/// use hexastore::{Hexastore, IdPattern, TripleStore};
/// use hex_dict::{Id, IdTriple};
///
/// let mut store = Hexastore::new();
/// store.insert(IdTriple::from((0, 1, 2)));
/// store.insert(IdTriple::from((0, 1, 3)));
/// store.insert(IdTriple::from((4, 1, 2)));
///
/// // (s, p, ?): one spo probe, objects come back sorted.
/// assert_eq!(store.objects_for(Id(0), Id(1)), &[Id(2), Id(3)]);
/// // (?, ?, o): one osp probe — no per-property scan.
/// assert_eq!(store.count_matching(IdPattern::o(Id(2))), 2);
/// ```
#[derive(Clone, Default)]
pub struct Hexastore {
    spo: TwoLevel,
    sop: TwoLevel,
    pso: TwoLevel,
    pos: TwoLevel,
    osp: TwoLevel,
    ops: TwoLevel,
    /// Terminal object lists, shared by spo and pso (keyed by (s, p)).
    o_lists: ListArena,
    /// Terminal property lists, shared by sop and osp (keyed by (s, o)).
    p_lists: ListArena,
    /// Terminal subject lists, shared by pos and ops (keyed by (p, o)).
    s_lists: ListArena,
    len: usize,
}

/// Inserts `item` into the terminal list keyed `(k1, k2)` that `primary`
/// (ordered k1, k2) and `mirror` (ordered k2, k1) share. Returns whether the
/// item was new.
fn insert_pair(
    primary: &mut TwoLevel,
    mirror: &mut TwoLevel,
    k1: Id,
    k2: Id,
    item: Id,
    arena: &mut ListArena,
) -> bool {
    if let Some(&lid) = primary.get(&k1).and_then(|inner| inner.get(&k2)) {
        arena.insert(lid, item)
    } else {
        let lid = arena.alloc(item);
        primary.get_or_insert_with(k1, VecMap::new).insert(k2, lid);
        mirror.get_or_insert_with(k2, VecMap::new).insert(k1, lid);
        true
    }
}

/// Removes `item` from the shared terminal list keyed `(k1, k2)`, unlinking
/// emptied lists from both indices. Returns whether the item was present.
fn remove_pair(
    primary: &mut TwoLevel,
    mirror: &mut TwoLevel,
    k1: Id,
    k2: Id,
    item: Id,
    arena: &mut ListArena,
) -> bool {
    let Some(inner) = primary.get_mut(&k1) else { return false };
    let Some(&lid) = inner.get(&k2) else { return false };
    let (removed, now_empty) = arena.remove(lid, item);
    if !removed {
        return false;
    }
    if now_empty {
        inner.remove(&k2);
        if inner.is_empty() {
            primary.remove(&k1);
        }
        let mirror_inner = mirror.get_mut(&k2).expect("mirror index out of sync");
        mirror_inner.remove(&k1);
        if mirror_inner.is_empty() {
            mirror.remove(&k2);
        }
        arena.release(lid);
    }
    true
}

impl Hexastore {
    /// Creates an empty Hexastore.
    pub fn new() -> Self {
        Hexastore::default()
    }

    /// Builds a Hexastore from an arbitrary triple collection using the
    /// sort-based bulk loader (much faster than repeated [`Self::insert`]
    /// for large batches; see `bulk` module).
    pub fn from_triples(triples: impl IntoIterator<Item = IdTriple>) -> Self {
        crate::bulk::build(triples.into_iter().collect())
    }

    // ---------------------------------------------------------------
    // Terminal-list accessors: the "lists" of Figure 2.
    // ---------------------------------------------------------------

    /// Sorted objects o such that (s, p, o) is stored — the spo/pso shared
    /// list. Empty slice if none.
    pub fn objects_for(&self, s: Id, p: Id) -> &[Id] {
        self.ordering(IndexKind::Spo).list(s, p)
    }

    /// Sorted properties p such that (s, p, o) is stored — the sop/osp
    /// shared list.
    pub fn properties_for(&self, s: Id, o: Id) -> &[Id] {
        self.ordering(IndexKind::Sop).list(s, o)
    }

    /// Sorted subjects s such that (s, p, o) is stored — the pos/ops shared
    /// list. This is the access the paper highlights for object-bound
    /// queries (§2.2.3, §5.2).
    pub fn subjects_for(&self, p: Id, o: Id) -> &[Id] {
        self.ordering(IndexKind::Pos).list(p, o)
    }

    // ---------------------------------------------------------------
    // Vector accessors: one per index ordering. Each yields the sorted
    // second-level keys of a header, with the attached terminal list.
    // ---------------------------------------------------------------

    /// spo: the sorted property vector of subject `s`, each property with
    /// its sorted object list.
    pub fn spo_vector(&self, s: Id) -> impl Iterator<Item = (Id, &[Id])> + '_ {
        self.ordering(IndexKind::Spo).division(s)
    }

    /// sop: the sorted object vector of subject `s`, each object with its
    /// sorted property list.
    pub fn sop_vector(&self, s: Id) -> impl Iterator<Item = (Id, &[Id])> + '_ {
        self.ordering(IndexKind::Sop).division(s)
    }

    /// pso: the sorted subject vector of property `p`, each subject with
    /// its sorted object list. (COVP1's only access path.)
    pub fn pso_vector(&self, p: Id) -> impl Iterator<Item = (Id, &[Id])> + '_ {
        self.ordering(IndexKind::Pso).division(p)
    }

    /// pos: the sorted object vector of property `p`, each object with its
    /// sorted subject list.
    pub fn pos_vector(&self, p: Id) -> impl Iterator<Item = (Id, &[Id])> + '_ {
        self.ordering(IndexKind::Pos).division(p)
    }

    /// osp: the sorted subject vector of object `o`, each subject with its
    /// sorted property list.
    pub fn osp_vector(&self, o: Id) -> impl Iterator<Item = (Id, &[Id])> + '_ {
        self.ordering(IndexKind::Osp).division(o)
    }

    /// ops: the sorted property vector of object `o`, each property with
    /// its sorted subject list.
    pub fn ops_vector(&self, o: Id) -> impl Iterator<Item = (Id, &[Id])> + '_ {
        self.ordering(IndexKind::Ops).division(o)
    }

    /// The sorted second-level keys of `osp[o]` — e.g. "the subject vector
    /// for the object Stanford" of §4.1 — without their lists.
    pub fn subject_vector_of_object(&self, o: Id) -> Vec<Id> {
        self.osp.get(&o).map(VecMap::key_vec).unwrap_or_default()
    }

    /// The sorted property keys of `ops[o]`.
    pub fn property_vector_of_object(&self, o: Id) -> Vec<Id> {
        self.ops.get(&o).map(VecMap::key_vec).unwrap_or_default()
    }

    /// The sorted property keys of `spo[s]`.
    pub fn property_vector_of_subject(&self, s: Id) -> Vec<Id> {
        self.spo.get(&s).map(VecMap::key_vec).unwrap_or_default()
    }

    /// The sorted object keys of `sop[s]`.
    pub fn object_vector_of_subject(&self, s: Id) -> Vec<Id> {
        self.sop.get(&s).map(VecMap::key_vec).unwrap_or_default()
    }

    /// The sorted subject keys of `pso[p]`.
    pub fn subject_vector_of_property(&self, p: Id) -> Vec<Id> {
        self.pso.get(&p).map(VecMap::key_vec).unwrap_or_default()
    }

    /// The sorted object keys of `pos[p]`.
    pub fn object_vector_of_property(&self, p: Id) -> Vec<Id> {
        self.pos.get(&p).map(VecMap::key_vec).unwrap_or_default()
    }

    // ---------------------------------------------------------------
    // Header accessors.
    // ---------------------------------------------------------------

    /// Sorted iterator over all distinct subjects.
    pub fn subjects(&self) -> impl Iterator<Item = Id> + '_ {
        self.spo.keys()
    }

    /// Sorted iterator over all distinct properties.
    pub fn properties(&self) -> impl Iterator<Item = Id> + '_ {
        self.pso.keys()
    }

    /// Sorted iterator over all distinct objects.
    pub fn objects(&self) -> impl Iterator<Item = Id> + '_ {
        self.osp.keys()
    }

    /// Number of distinct subjects.
    pub fn subject_count(&self) -> usize {
        self.spo.len()
    }

    /// Number of distinct properties.
    pub fn property_count(&self) -> usize {
        self.pso.len()
    }

    /// Number of distinct objects.
    pub fn object_count(&self) -> usize {
        self.osp.len()
    }

    /// Number of triples with property `p` (size of its pso division).
    pub fn property_cardinality(&self, p: Id) -> usize {
        self.count_matching(crate::pattern::IdPattern::p(p))
    }

    // ---------------------------------------------------------------
    // Space accounting.
    // ---------------------------------------------------------------

    /// Counts key entries in headers, vectors and shared terminal lists —
    /// the quantities behind the paper's worst-case five-fold space bound.
    pub fn space_stats(&self) -> SpaceStats {
        let indices = [&self.spo, &self.sop, &self.pso, &self.pos, &self.osp, &self.ops];
        let header_entries = indices.iter().map(|ix| ix.len()).sum();
        let vector_entries =
            indices.iter().map(|ix| ix.values().map(VecMap::len).sum::<usize>()).sum();
        let list_entries =
            self.o_lists.total_items() + self.p_lists.total_items() + self.s_lists.total_items();
        SpaceStats { triples: self.len, header_entries, vector_entries, list_entries }
    }

    /// Reclaims excess capacity across all indices and arenas.
    pub fn shrink_to_fit(&mut self) {
        // VecMap values (inner maps) shrink individually; arenas shrink lists.
        for ix in [
            &mut self.spo,
            &mut self.sop,
            &mut self.pso,
            &mut self.pos,
            &mut self.osp,
            &mut self.ops,
        ] {
            ix.shrink_to_fit();
        }
        self.o_lists.shrink_to_fit();
        self.p_lists.shrink_to_fit();
        self.s_lists.shrink_to_fit();
    }

    fn index_heap_bytes(ix: &TwoLevel) -> usize {
        ix.heap_bytes_shallow() + ix.values().map(VecMap::heap_bytes_shallow).sum::<usize>()
    }

    /// Assembles a store from three fully built index pairs, one per
    /// shared arena: `(primary, mirror, arena)` in spo/pso, sop/osp and
    /// pos/ops order, as [`FrozenHexastore::thaw`](crate::FrozenHexastore::thaw)
    /// rebuilds them.
    pub(crate) fn from_built_parts(
        spo_pair: (TwoLevel, TwoLevel, ListArena),
        sop_pair: (TwoLevel, TwoLevel, ListArena),
        pos_pair: (TwoLevel, TwoLevel, ListArena),
        len: usize,
    ) -> Hexastore {
        let (spo, pso, o_lists) = spo_pair;
        let (sop, osp, p_lists) = sop_pair;
        let (pos, ops, s_lists) = pos_pair;
        Hexastore { spo, sop, pso, pos, osp, ops, o_lists, p_lists, s_lists, len }
    }

    /// The three index pairs as `(primary, mirror, shared arena)` — the
    /// walk order of [`Hexastore::freeze`].
    pub(crate) fn pair_refs(&self) -> [(&TwoLevel, &TwoLevel, &ListArena); 3] {
        [
            (&self.spo, &self.pso, &self.o_lists),
            (&self.sop, &self.osp, &self.p_lists),
            (&self.pos, &self.ops, &self.s_lists),
        ]
    }
}

/// All six orderings, paired orderings handing out the same arena.
impl OrderedStore for Hexastore {
    type Ordering<'a> = (&'a TwoLevel, &'a ListArena);

    fn kept(&self) -> IndexSet {
        IndexSet::all()
    }

    fn ordering(&self, kind: IndexKind) -> Self::Ordering<'_> {
        match kind {
            IndexKind::Spo => (&self.spo, &self.o_lists),
            IndexKind::Sop => (&self.sop, &self.p_lists),
            IndexKind::Pso => (&self.pso, &self.o_lists),
            IndexKind::Pos => (&self.pos, &self.s_lists),
            IndexKind::Osp => (&self.osp, &self.p_lists),
            IndexKind::Ops => (&self.ops, &self.s_lists),
        }
    }
}

impl crate::traits::MutableStore for Hexastore {}

impl TripleStore for Hexastore {
    fn name(&self) -> &'static str {
        "Hexastore"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, t: IdTriple) -> bool {
        let added = insert_pair(&mut self.spo, &mut self.pso, t.s, t.p, t.o, &mut self.o_lists);
        if !added {
            return false;
        }
        let p_new = insert_pair(&mut self.sop, &mut self.osp, t.s, t.o, t.p, &mut self.p_lists);
        let s_new = insert_pair(&mut self.pos, &mut self.ops, t.p, t.o, t.s, &mut self.s_lists);
        debug_assert!(p_new && s_new, "index pair out of sync on insert");
        self.len += 1;
        true
    }

    fn remove(&mut self, t: IdTriple) -> bool {
        let removed = remove_pair(&mut self.spo, &mut self.pso, t.s, t.p, t.o, &mut self.o_lists);
        if !removed {
            return false;
        }
        let p_rm = remove_pair(&mut self.sop, &mut self.osp, t.s, t.o, t.p, &mut self.p_lists);
        let s_rm = remove_pair(&mut self.pos, &mut self.ops, t.p, t.o, t.s, &mut self.s_lists);
        debug_assert!(p_rm && s_rm, "index pair out of sync on remove");
        self.len -= 1;
        true
    }

    fn heap_bytes(&self) -> usize {
        let indices = [&self.spo, &self.sop, &self.pso, &self.pos, &self.osp, &self.ops]
            .iter()
            .map(|ix| Self::index_heap_bytes(ix))
            .sum::<usize>();
        indices + self.o_lists.heap_bytes() + self.p_lists.heap_bytes() + self.s_lists.heap_bytes()
    }

    crate::forward_reads!();
}

impl std::fmt::Debug for Hexastore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hexastore")
            .field("triples", &self.len)
            .field("subjects", &self.subject_count())
            .field("properties", &self.property_count())
            .field("objects", &self.object_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::IdPattern;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    /// The Figure 1 example data (ids assigned by hand):
    /// subjects ID1..ID4 = 1..4; properties 10..19; objects 20..29.
    fn figure1() -> Hexastore {
        let mut h = Hexastore::new();
        // ID1: type FullProf, teacherOf AI, bachelorFrom MIT,
        //      mastersFrom Cambridge, phdFrom Yale
        for tr in [
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
        ] {
            assert!(h.insert(tr));
        }
        h
    }

    #[test]
    fn insert_dedupes() {
        let mut h = Hexastore::new();
        assert!(h.insert(t(1, 2, 3)));
        assert!(!h.insert(t(1, 2, 3)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn contains_and_remove() {
        let mut h = Hexastore::new();
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
        let mut h = Hexastore::new();
        h.insert(t(1, 2, 3));
        assert!(h.remove(t(1, 2, 3)));
        assert_eq!(h.len(), 0);
        assert_eq!(h.subject_count(), 0);
        assert_eq!(h.property_count(), 0);
        assert_eq!(h.object_count(), 0);
        let stats = h.space_stats();
        assert_eq!(stats.total_entries(), 0);
    }

    #[test]
    fn terminal_lists_are_sorted_and_shared() {
        let mut h = Hexastore::new();
        h.insert(t(1, 2, 9));
        h.insert(t(1, 2, 3));
        h.insert(t(1, 2, 6));
        assert_eq!(h.objects_for(Id(1), Id(2)), &[Id(3), Id(6), Id(9)]);
        // pso must see the identical list (shared, not copied).
        let via_pso: Vec<(Id, Vec<Id>)> =
            h.pso_vector(Id(2)).map(|(s, l)| (s, l.to_vec())).collect();
        assert_eq!(via_pso, vec![(Id(1), vec![Id(3), Id(6), Id(9)])]);
    }

    #[test]
    fn figure1_ops_example() {
        // §4.1: "the ops indexing … includes a property vector for the
        // object 'MIT'. This property vector contains two property entries,
        // namely bachelorFrom and worksFor", each with one subject.
        let h = figure1();
        let mit = Id(22);
        let props = h.property_vector_of_object(mit);
        assert_eq!(props, vec![Id(12), Id(15)]); // bachelorFrom, worksFor
        assert_eq!(h.subjects_for(Id(12), mit), &[Id(1)]);
        assert_eq!(h.subjects_for(Id(15), mit), &[Id(2)]);
    }

    #[test]
    fn figure1_osp_example() {
        // §4.1: "the osp indexing includes a subject vector for the object
        // 'Stanford' … two subject entries, namely ID2 and ID3", with
        // property lists {phdFrom} and {bachelorsFrom}.
        let h = figure1();
        let stanford = Id(27);
        assert_eq!(h.subject_vector_of_object(stanford), vec![Id(2), Id(3)]);
        assert_eq!(h.properties_for(Id(2), stanford), &[Id(14)]); // phdFrom
        assert_eq!(h.properties_for(Id(3), stanford), &[Id(16)]); // bachelorsFrom
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
        let mut h = Hexastore::new();
        let n = 50;
        for i in 0..n {
            h.insert(t(i, n + i, 2 * n + i));
        }
        let stats = h.space_stats();
        assert_eq!(stats.triples, n as usize);
        assert_eq!(stats.total_entries(), 5 * 3 * n as usize);
        assert!((stats.blowup() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn space_stats_shrink_with_sharing() {
        // Dense data (few distinct resources) must stay below the 5× bound.
        let mut h = Hexastore::new();
        for s in 0..10 {
            for p in 0..5 {
                for o in 0..10 {
                    h.insert(t(s, 100 + p, 200 + o));
                }
            }
        }
        let stats = h.space_stats();
        assert!(stats.blowup() < 5.0);
        assert!(stats.blowup() > 1.0);
    }

    #[test]
    fn property_cardinality_counts_triples() {
        let h = figure1();
        assert_eq!(h.property_cardinality(Id(10)), 4); // type: 4 subjects
        assert_eq!(h.property_cardinality(Id(17)), 2); // advisor
        assert_eq!(h.property_cardinality(Id(99)), 0);
    }

    #[test]
    fn header_iterators_are_sorted() {
        let h = figure1();
        let subs: Vec<Id> = h.subjects().collect();
        assert_eq!(subs, vec![Id(1), Id(2), Id(3), Id(4)]);
        let props: Vec<Id> = h.properties().collect();
        assert!(props.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(h.property_count(), props.len());
    }

    #[test]
    fn vector_accessors_cover_both_directions() {
        let h = figure1();
        // spo and sop agree on the triple set for a subject.
        let s = Id(2);
        let via_spo: usize = h.spo_vector(s).map(|(_, l)| l.len()).sum();
        let via_sop: usize = h.sop_vector(s).map(|(_, l)| l.len()).sum();
        assert_eq!(via_spo, via_sop);
        // pos and pso agree for a property.
        let p = Id(16);
        let via_pos: usize = h.pos_vector(p).map(|(_, l)| l.len()).sum();
        let via_pso: usize = h.pso_vector(p).map(|(_, l)| l.len()).sum();
        assert_eq!(via_pos, via_pso);
        // osp and ops agree for an object.
        let o = Id(28);
        let via_osp: usize = h.osp_vector(o).map(|(_, l)| l.len()).sum();
        let via_ops: usize = h.ops_vector(o).map(|(_, l)| l.len()).sum();
        assert_eq!(via_osp, via_ops);
    }

    #[test]
    fn heap_bytes_grows_and_shrinks() {
        let mut h = Hexastore::new();
        for i in 0..1000u32 {
            h.insert(t(i % 50, i % 7, i));
        }
        let bytes = h.heap_bytes();
        assert!(bytes > 1000 * 3 * 4, "six indices must exceed raw triple size");
        h.shrink_to_fit();
        assert!(h.heap_bytes() <= bytes);
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
        assert!(h.subjects().any(|s| s == Id(2)));
        assert!(h.objects().any(|o| o == Id(2)));
        assert_eq!(h.subjects_for(Id(17), Id(2)), &[Id(3)]);
    }
}
