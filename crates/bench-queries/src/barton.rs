//! The seven Barton queries (paper §5.2.1), with the per-store plans the
//! paper describes.
//!
//! Naming: `bqN_hexastore`, `bqN_covp1`, `bqN_covp2`; BQ1 and BQ7, whose
//! COVP2 and Hexastore plans are the same reads of the same orderings, have
//! one `bqN_indexed` for both, generic over [`OrderedStore`]. Every plan
//! reads an ordering as `store.ordering(kind)` — "a pos probe" is
//! `ordering(Pos).list(p, o)`, "the spo property vector of s" is
//! `ordering(Spo).division(s)`. Queries that iterate
//! over "all properties" (BQ2, BQ3, BQ4, BQ6) take `props: Option<&[Id]>`;
//! passing the 28 "interesting" properties reproduces the `*_28`
//! configurations of the paper's Figures 4–6 and 8.
//!
//! All variants of a query return identical results (sorted by id), which
//! the test suite and the integration tests enforce. What differs is the
//! *access work*: COVP1 scans property tables where it has no index, COVP2
//! uses its `pos` copy for object-bound selections, and the Hexastore adds
//! subject- and object-headed divisions on top.

use hex_baselines::{Covp1, Covp2};
use hex_datagen::barton::Vocab;
use hex_dict::{Dictionary, Id, IdTriple};
use hex_query::ops;
use hexastore::access::{List, OrderedStore, SlabOrdering};
use hexastore::IndexKind::{Pos, Pso, Spo};
use hexastore::{sorted, Hexastore};

/// The dictionary ids of the terms the Barton queries bind.
#[derive(Clone, Debug)]
pub struct BartonIds {
    /// `Type` property.
    pub p_type: Id,
    /// `Language` property.
    pub p_language: Id,
    /// `Origin` property.
    pub p_origin: Id,
    /// `Records` property.
    pub p_records: Id,
    /// `Encoding` property.
    pub p_encoding: Id,
    /// `Point` property.
    pub p_point: Id,
    /// The `Text` type value.
    pub text: Id,
    /// The `"French"` language literal.
    pub french: Id,
    /// The `"DLC"` origin literal.
    pub dlc: Id,
    /// The `"end"` point literal.
    pub end: Id,
    /// The 28 "interesting" properties (those present in the dictionary).
    pub interesting: Vec<Id>,
}

impl BartonIds {
    /// Resolves the query constants against a dictionary. Returns `None`
    /// until the dataset prefix contains every bound term.
    pub fn resolve(dict: &Dictionary) -> Option<Self> {
        let id = |t: &rdf_model::Term| dict.id_of(t);
        let mut interesting: Vec<Id> =
            hex_datagen::barton::interesting_properties().iter().filter_map(id).collect();
        interesting.sort_unstable();
        Some(BartonIds {
            p_type: id(&Vocab::property("Type"))?,
            p_language: id(&Vocab::property("Language"))?,
            p_origin: id(&Vocab::property("Origin"))?,
            p_records: id(&Vocab::property("Records"))?,
            p_encoding: id(&Vocab::property("Encoding"))?,
            p_point: id(&Vocab::property("Point"))?,
            text: id(&Vocab::type_value("Text"))?,
            french: id(&rdf_model::Term::literal("French"))?,
            dlc: id(&rdf_model::Term::literal("DLC"))?,
            end: id(&rdf_model::Term::literal("end"))?,
            interesting,
        })
    }
}

/// Merge-joins a subject-sorted `(s, items)` stream with a sorted subject
/// list, invoking `f` for every matching group — the "fast merge-join"
/// first step every plan shares once both sides are sorted.
fn for_each_table_match<'a>(
    pairs: impl Iterator<Item = (Id, List<'a>)>,
    t: List<'_>,
    mut f: impl FnMut(Id, List<'a>),
) {
    let mut t = t.into_iter().peekable();
    for (s, items) in pairs {
        while t.next_if(|&x| x < s).is_some() {}
        match t.peek() {
            None => break,
            Some(&x) if x == s => f(s, items),
            Some(_) => {}
        }
    }
}

/// Size of the intersection of two sorted sets, without materializing it.
///
/// Adaptive merge join: when one operand is much shorter (here: a terminal
/// subject list of a few entries against the tens-of-thousands-strong
/// Type:Text selection), the short side gallops into the long side with
/// binary searches instead of advancing linearly — the standard refinement
/// of the paper's merge joins for skewed operand sizes.
fn intersect_count(a: List<'_>, b: List<'_>) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return 0;
    }
    if large.len() / small.len() >= 16 {
        let (mut n, mut lo) = (0, 0);
        for x in small {
            lo = large.seek(lo, x);
            if lo >= large.len() {
                break;
            }
            if large.get(lo) == Some(x) {
                n += 1;
                lo += 1;
            }
        }
        return n;
    }
    let mut large = large.into_iter().peekable();
    small
        .into_iter()
        .filter(|&x| {
            while large.next_if(|&y| y < x).is_some() {}
            large.next_if_eq(&x).is_some()
        })
        .count()
}

fn restrict(candidates: Vec<Id>, props: Option<&[Id]>) -> Vec<Id> {
    match props {
        Some(allowed) => {
            debug_assert!(sorted::is_sorted_set(allowed));
            sorted::intersect(&candidates, allowed)
        }
        None => candidates,
    }
}

// =====================================================================
// BQ1 — counts of each Type object value.
// =====================================================================

/// BQ1 on COVP2 and on the Hexastore, which run the same plan: one pos
/// probe on the `Type` property; each object entry already carries its
/// sorted subject list, so the counts are list lengths (§5.2.1: "only need
/// to report the counts of subjects on the pos index of property Type with
/// respect to object").
pub fn bq1_indexed<S: OrderedStore>(store: &S, ids: &BartonIds) -> Vec<(Id, usize)> {
    store.ordering(Pos).division(ids.p_type).map(|(o, subjects)| (o, subjects.len())).collect()
}

/// BQ1 on COVP1: no pos index, so it needs "a self-join aggregation on
/// object value with its pso index" — scan the whole Type table and count.
pub fn bq1_covp1(c: &Covp1, ids: &BartonIds) -> Vec<(Id, usize)> {
    let mut objects: Vec<Id> = Vec::new();
    for (_, objs) in c.ordering(Pso).division(ids.p_type) {
        objects.extend(objs);
    }
    ops::frequency(objects)
}

// =====================================================================
// Selections and aggregation steps the queries share.
// =====================================================================

/// Sorted subjects of `(?, p, o)` on COVP1: a linear scan of table `p`
/// (its objects are not indexed), which iterates in subject order.
fn scan_subjects(c: &Covp1, p: Id, o: Id) -> Vec<Id> {
    let table = c.ordering(Pso).division(p);
    table.filter(|(_, objs)| objs.contains(o)).map(|(s, _)| s).collect()
}

/// The Hexastore's candidate properties: those its spo property vectors
/// define for some subject in `t`, skipping unrelated ones.
fn spo_candidates(h: &Hexastore, t: List<'_>, props: Option<&[Id]>) -> Vec<Id> {
    let spo = h.ordering(Spo);
    let mut candidates: Vec<Id> =
        t.into_iter().flat_map(|s| spo.division(s).map(|(p, _)| p)).collect();
    sorted::sort_dedup(&mut candidates);
    restrict(candidates, props)
}

// =====================================================================
// BQ2 — properties of Type:Text resources with frequencies.
// =====================================================================

/// The shared aggregation step of BQ2 on a property-oriented store: join
/// the text-subject list with each property table, counting objects.
fn bq2_tables(pso: SlabOrdering<'_>, t: List<'_>, props: Option<&[Id]>) -> Vec<(Id, usize)> {
    let mut out = Vec::new();
    for p in restrict(pso.keys().collect(), props) {
        let mut n = 0;
        for_each_table_match(pso.division(p), t, |_, objs| n += objs.len());
        if n > 0 {
            out.push((p, n));
        }
    }
    out
}

/// BQ2 on COVP1: select Text subjects by scanning the Type table, then
/// join the subject list with every (candidate) property table.
pub fn bq2_covp1(c: &Covp1, ids: &BartonIds, props: Option<&[Id]>) -> Vec<(Id, usize)> {
    let t = scan_subjects(c, ids.p_type, ids.text);
    bq2_tables(c.ordering(Pso), List::from(&t[..]), props)
}

/// BQ2 on COVP2: the Text selection is a pos probe; the aggregation step
/// is the same table sweep as COVP1.
pub fn bq2_covp2(c: &Covp2, ids: &BartonIds, props: Option<&[Id]>) -> Vec<(Id, usize)> {
    bq2_tables(c.ordering(Pso), c.ordering(Pos).list(ids.p_type, ids.text), props)
}

/// The Hexastore aggregation step of BQ2/BQ6: merge the sorted property
/// vectors of the subjects in `t` (spo indexing), accumulating per-property
/// triple counts per property, summed by [`ops::merge_counts`], then keep
/// the properties in `props` when given.
fn merge_property_vectors(h: &Hexastore, t: List<'_>, props: Option<&[Id]>) -> Vec<(Id, usize)> {
    let spo = h.ordering(Spo);
    let merged = ops::merge_counts(
        t.into_iter().flat_map(|s| spo.division(s).map(|(p, objs)| (p, objs.len()))),
    );
    match props {
        Some(allowed) => merged.into_iter().filter(|(p, _)| sorted::contains(allowed, p)).collect(),
        None => merged,
    }
}

/// BQ2 on the Hexastore: pos probe for the Text subjects, then "merge the
/// sorted property vectors of the subjects in t in spo indexing and
/// aggregate their frequencies" — no sweep over unrelated properties.
pub fn bq2_hexastore(h: &Hexastore, ids: &BartonIds, props: Option<&[Id]>) -> Vec<(Id, usize)> {
    merge_property_vectors(h, h.ordering(Pos).list(ids.p_type, ids.text), props)
}

// =====================================================================
// BQ3 — BQ2 plus per-property counts of "popular" object values.
// =====================================================================

/// Per-property popular-object counts, the id-sorted reference result.
pub type PopularByProperty = Vec<(Id, Vec<(Id, usize)>)>;

/// The COVP1 step of BQ3/BQ4: join `t` with each candidate property table
/// and count "the instances of each object per property … separately".
fn bq3_tables(pso: SlabOrdering<'_>, t: List<'_>, props: Option<&[Id]>) -> PopularByProperty {
    let mut out = Vec::new();
    for p in restrict(pso.keys().collect(), props) {
        let mut objects: Vec<Id> = Vec::new();
        for_each_table_match(pso.division(p), t, |_, objs| objects.extend(objs));
        let pops = ops::popular(ops::frequency(objects));
        if !pops.is_empty() {
            out.push((p, pops));
        }
    }
    out
}

/// BQ3 on COVP1: as BQ2, "with the addition that the instances of each
/// object per property are counted separately".
pub fn bq3_covp1(c: &Covp1, ids: &BartonIds, props: Option<&[Id]>) -> PopularByProperty {
    let t = scan_subjects(c, ids.p_type, ids.text);
    bq3_tables(c.ordering(Pso), List::from(&t[..]), props)
}

/// The COVP2/Hexastore final step: for each candidate property, walk its
/// pos division and count, per object, the subjects that fall in `t` —
/// decoded once by the caller, since every subject list is intersected
/// with it.
fn bq3_pos_step(pos: SlabOrdering<'_>, t: &[Id], candidates: &[Id]) -> PopularByProperty {
    let mut out = Vec::new();
    for &p in candidates {
        let mut counts: Vec<(Id, usize)> = Vec::new();
        for (o, subjects) in pos.division(p) {
            let n = intersect_count(subjects, List::from(t));
            if n > 1 {
                counts.push((o, n));
            }
        }
        if !counts.is_empty() {
            out.push((p, counts));
        }
    }
    out
}

/// BQ3 on COVP2: Text selection via pos, then the pos index "retrieves the
/// count of each object related to subjects in t for each property".
pub fn bq3_covp2(c: &Covp2, ids: &BartonIds, props: Option<&[Id]>) -> PopularByProperty {
    let pos = c.ordering(Pos);
    bq3_pos_step(
        pos,
        &pos.list(ids.p_type, ids.text).to_vec(),
        &restrict(c.ordering(Pso).keys().collect(), props),
    )
}

/// BQ3 on the Hexastore: keeps the spo advantage for discovering *which*
/// properties are defined for `t` (skipping unrelated ones), but — as the
/// paper notes — must fall back to the pos index for the final per-object
/// aggregation, "in the same way as COVP2 does for this query".
pub fn bq3_hexastore(h: &Hexastore, ids: &BartonIds, props: Option<&[Id]>) -> PopularByProperty {
    let pos = h.ordering(Pos);
    let t = pos.list(ids.p_type, ids.text);
    bq3_pos_step(pos, &t.to_vec(), &spo_candidates(h, t, props))
}

// =====================================================================
// BQ4 — BQ3 restricted to subjects that are also Language: French.
// =====================================================================

/// BQ4 on COVP1: "jointly selects subjects from the pso indices of Type
/// and Language" — two table scans, then an intersection.
pub fn bq4_covp1(c: &Covp1, ids: &BartonIds, props: Option<&[Id]>) -> PopularByProperty {
    let t = sorted::intersect(
        &scan_subjects(c, ids.p_type, ids.text),
        &scan_subjects(c, ids.p_language, ids.french),
    );
    bq3_tables(c.ordering(Pso), List::from(&t[..]), props)
}

/// BQ4 on COVP2: "retrieve and merge-join the subject lists for Type: Text
/// and Language: French using their pos indices".
pub fn bq4_covp2(c: &Covp2, ids: &BartonIds, props: Option<&[Id]>) -> PopularByProperty {
    let pos = c.ordering(Pos);
    let t = sorted::intersect_many(vec![
        pos.list(ids.p_type, ids.text),
        pos.list(ids.p_language, ids.french),
    ]);
    bq3_pos_step(pos, &t, &restrict(c.ordering(Pso).keys().collect(), props))
}

/// BQ4 on the Hexastore: same pos merge-join for the pre-selection, spo
/// discovery of candidate properties, pos aggregation.
pub fn bq4_hexastore(h: &Hexastore, ids: &BartonIds, props: Option<&[Id]>) -> PopularByProperty {
    let pos = h.ordering(Pos);
    let t = sorted::intersect_many(vec![
        pos.list(ids.p_type, ids.text),
        pos.list(ids.p_language, ids.french),
    ]);
    bq3_pos_step(pos, &t, &spo_candidates(h, List::from(&t[..]), props))
}

// =====================================================================
// BQ5 — inference: Origin:DLC resources that Record something; report the
// recorded object's Type when it is not Text.
// =====================================================================

/// BQ5 result rows: `(subject, inferred non-Text type)`, id-sorted.
pub type InferredTypes = Vec<(Id, Id)>;

/// BQ5 on COVP1: select on Origin:DLC by scanning; join with the Records
/// table; then an expensive join of the *unsorted* recorded-object list
/// against the large Type table.
pub fn bq5_covp1(c: &Covp1, ids: &BartonIds) -> InferredTypes {
    let pso = c.ordering(Pso);
    let s_list = scan_subjects(c, ids.p_origin, ids.dlc);
    // (subject, recorded-object) pairs; object side unsorted.
    let mut pairs: Vec<(Id, Id)> = Vec::new();
    for_each_table_match(pso.division(ids.p_records), List::from(&s_list[..]), |s, objs| {
        for o in objs {
            pairs.push((s, o));
        }
    });
    // Sort the object list, then sort-merge join with the Type table.
    let mut recorded: Vec<Id> = pairs.iter().map(|&(_, o)| o).collect();
    sorted::sort_dedup(&mut recorded);
    let mut type_of: Vec<(Id, Vec<Id>)> = Vec::new();
    for_each_table_match(pso.division(ids.p_type), List::from(&recorded[..]), |o, types| {
        let non_text: Vec<Id> = types.into_iter().filter(|&t| t != ids.text).collect();
        if !non_text.is_empty() {
            type_of.push((o, non_text));
        }
    });
    let mut out: InferredTypes = Vec::new();
    for (s, o) in pairs {
        if let Ok(idx) = type_of.binary_search_by_key(&o, |&(k, _)| k) {
            for &ty in &type_of[idx].1 {
                out.push((s, ty));
            }
        }
    }
    sorted::sort_dedup(&mut out);
    out
}

/// The COVP2/Hexastore plan (the paper describes them identically for
/// BQ5): pos probe for the DLC subjects; merge-join the *sorted*
/// recorded-object vector (pos of Records) with the sorted subject vector
/// of Type (pso) to build the small non-Text table `T`; then merge-join
/// the DLC subject list against the Records table and look recordings up
/// in `T`.
fn bq5_indexed<'a>(
    pso: SlabOrdering<'a>,
    pos: SlabOrdering<'a>,
    types_of: impl Fn(Id) -> List<'a>,
    ids: &BartonIds,
) -> InferredTypes {
    // Merge-join: recorded objects that have a Type statement.
    let recorded: Vec<Id> = pos.division(ids.p_records).map(|(o, _)| o).collect();
    let typed: Vec<Id> = pso.division(ids.p_type).map(|(s, _)| s).collect();
    let typed_recorded = sorted::intersect(&recorded, &typed);
    let mut table: Vec<(Id, Vec<Id>)> = Vec::new();
    for o in typed_recorded {
        let non_text: Vec<Id> = types_of(o).into_iter().filter(|&t| t != ids.text).collect();
        if !non_text.is_empty() {
            table.push((o, non_text));
        }
    }
    let mut out: InferredTypes = Vec::new();
    let dlc_subjects = pos.list(ids.p_origin, ids.dlc);
    for_each_table_match(pso.division(ids.p_records), dlc_subjects, |s, objs| {
        for o in objs {
            if let Ok(idx) = table.binary_search_by_key(&o, |&(k, _)| k) {
                for &ty in &table[idx].1 {
                    out.push((s, ty));
                }
            }
        }
    });
    sorted::sort_dedup(&mut out);
    out
}

/// BQ5 on COVP2: a recorded object's types are its row of the Type table.
pub fn bq5_covp2(c: &Covp2, ids: &BartonIds) -> InferredTypes {
    let pso = c.ordering(Pso);
    bq5_indexed(pso, c.ordering(Pos), |o| pso.list(ids.p_type, o), ids)
}

/// BQ5 on the Hexastore: a recorded object's types are one spo probe.
pub fn bq5_hexastore(h: &Hexastore, ids: &BartonIds) -> InferredTypes {
    let spo = h.ordering(Spo);
    bq5_indexed(h.ordering(Pso), h.ordering(Pos), |o| spo.list(o, ids.p_type), ids)
}

// =====================================================================
// BQ6 — BQ2 over resources known or inferred (as in BQ5) to be Text.
// =====================================================================

/// The resource set of BQ6: Type:Text subjects plus DLC subjects whose
/// recorded object is of Type:Text.
fn bq6_subjects<'a>(
    text_subjects: List<'_>,
    dlc_subjects: List<'_>,
    recordings_of: impl Fn(Id) -> List<'a>,
    types_of: impl Fn(Id) -> List<'a>,
    text: Id,
) -> Vec<Id> {
    let inferred: Vec<Id> = dlc_subjects
        .into_iter()
        .filter(|&s| recordings_of(s).into_iter().any(|o| types_of(o).contains(text)))
        .collect();
    sorted::union(&text_subjects.to_vec(), &inferred)
}

/// BQ6 on COVP1.
pub fn bq6_covp1(c: &Covp1, ids: &BartonIds, props: Option<&[Id]>) -> Vec<(Id, usize)> {
    let pso = c.ordering(Pso);
    let (text, dlc) =
        (scan_subjects(c, ids.p_type, ids.text), scan_subjects(c, ids.p_origin, ids.dlc));
    let t = bq6_subjects(
        List::from(&text[..]),
        List::from(&dlc[..]),
        |s| pso.list(ids.p_records, s),
        |o| pso.list(ids.p_type, o),
        ids.text,
    );
    bq2_tables(pso, List::from(&t[..]), props)
}

/// BQ6 on COVP2.
pub fn bq6_covp2(c: &Covp2, ids: &BartonIds, props: Option<&[Id]>) -> Vec<(Id, usize)> {
    let (pso, pos) = (c.ordering(Pso), c.ordering(Pos));
    let t = bq6_subjects(
        pos.list(ids.p_type, ids.text),
        pos.list(ids.p_origin, ids.dlc),
        |s| pso.list(ids.p_records, s),
        |o| pso.list(ids.p_type, o),
        ids.text,
    );
    bq2_tables(pso, List::from(&t[..]), props)
}

/// BQ6 on the Hexastore: the union of the BQ2 and BQ5-style selections,
/// then the spo merge of property vectors.
pub fn bq6_hexastore(h: &Hexastore, ids: &BartonIds, props: Option<&[Id]>) -> Vec<(Id, usize)> {
    let (spo, pos) = (h.ordering(Spo), h.ordering(Pos));
    let t = bq6_subjects(
        pos.list(ids.p_type, ids.text),
        pos.list(ids.p_origin, ids.dlc),
        |s| spo.list(s, ids.p_records),
        |o| spo.list(o, ids.p_type),
        ids.text,
    );
    merge_property_vectors(h, List::from(&t[..]), props)
}

// =====================================================================
// BQ7 — Encoding and Type of resources whose Point value is 'end'.
// =====================================================================

/// BQ7 on COVP1: scan the Point table for 'end', then merge-join the
/// result with the Encoding and Type subject vectors.
pub fn bq7_covp1(c: &Covp1, ids: &BartonIds) -> Vec<IdTriple> {
    let s_list = scan_subjects(c, ids.p_point, ids.end);
    bq7_join(List::from(&s_list[..]), ids, c.ordering(Pso))
}

/// BQ7 on COVP2 and on the Hexastore, which run the same plan: the first
/// selection is a pos probe; the join step "proceeds in the same fashion
/// as COVP1" (merge against the pso subject vectors of Encoding and Type).
pub fn bq7_indexed<S: OrderedStore>(store: &S, ids: &BartonIds) -> Vec<IdTriple> {
    bq7_join(store.ordering(Pos).list(ids.p_point, ids.end), ids, store.ordering(Pso))
}

fn bq7_join(s_list: List<'_>, ids: &BartonIds, pso: SlabOrdering<'_>) -> Vec<IdTriple> {
    let mut out = Vec::new();
    for p in [ids.p_encoding, ids.p_type] {
        for_each_table_match(pso.division(p), s_list, |s, objs| {
            for o in objs {
                out.push(IdTriple::new(s, p, o));
            }
        });
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Suite;
    use hex_datagen::barton::{generate, BartonConfig};
    use hexastore::{IdPattern, TripleStore};

    fn suite() -> (Suite, BartonIds) {
        let triples = generate(&BartonConfig::tiny());
        let suite = Suite::build(&triples);
        let ids = BartonIds::resolve(&suite.dict).expect("tiny dataset has all query terms");
        (suite, ids)
    }

    #[test]
    fn bq1_equivalent_and_nonempty() {
        let (s, ids) = suite();
        let hex = bq1_indexed(&s.hexastore, &ids);
        assert!(!hex.is_empty());
        assert_eq!(bq1_covp1(&s.covp1, &ids), hex);
        assert_eq!(bq1_indexed(&s.covp2, &ids), hex);
        // Counts must total the Type property cardinality.
        let total: usize = hex.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, s.hexastore.count_matching(IdPattern::p(ids.p_type)));
    }

    #[test]
    fn bq2_equivalent_full_and_28() {
        let (s, ids) = suite();
        for props in [None, Some(ids.interesting.as_slice())] {
            let hex = bq2_hexastore(&s.hexastore, &ids, props);
            assert!(!hex.is_empty());
            assert_eq!(bq2_covp1(&s.covp1, &ids, props), hex, "covp1 props={props:?}");
            assert_eq!(bq2_covp2(&s.covp2, &ids, props), hex, "covp2 props={props:?}");
        }
        // The 28-restricted result is a subset of the full result.
        let full = bq2_hexastore(&s.hexastore, &ids, None);
        let small = bq2_hexastore(&s.hexastore, &ids, Some(&ids.interesting));
        assert!(small.len() <= full.len());
        assert!(small.iter().all(|e| full.contains(e)));
    }

    #[test]
    fn bq3_equivalent() {
        let (s, ids) = suite();
        for props in [None, Some(ids.interesting.as_slice())] {
            let hex = bq3_hexastore(&s.hexastore, &ids, props);
            assert_eq!(bq3_covp1(&s.covp1, &ids, props), hex, "covp1");
            assert_eq!(bq3_covp2(&s.covp2, &ids, props), hex, "covp2");
            // Popularity filter: every reported count exceeds one.
            assert!(hex.iter().all(|(_, pops)| pops.iter().all(|&(_, n)| n > 1)));
        }
    }

    #[test]
    fn bq4_equivalent_and_subset_of_bq3() {
        let (s, ids) = suite();
        let hex = bq4_hexastore(&s.hexastore, &ids, None);
        assert_eq!(bq4_covp1(&s.covp1, &ids, None), hex);
        assert_eq!(bq4_covp2(&s.covp2, &ids, None), hex);
        // French texts are a subset of texts, so per-(p, o) counts cannot
        // exceed BQ3's.
        let bq3 = bq3_hexastore(&s.hexastore, &ids, None);
        for (p, pops) in &hex {
            for (o, n) in pops {
                if let Some((_, b3pops)) = bq3.iter().find(|(bp, _)| bp == p) {
                    if let Some((_, n3)) = b3pops.iter().find(|(bo, _)| bo == o) {
                        assert!(n <= n3);
                    }
                }
            }
        }
    }

    #[test]
    fn bq5_equivalent_and_non_text_only() {
        let (s, ids) = suite();
        let hex = bq5_hexastore(&s.hexastore, &ids);
        assert_eq!(bq5_covp1(&s.covp1, &ids), hex);
        assert_eq!(bq5_covp2(&s.covp2, &ids), hex);
        assert!(!hex.is_empty(), "tiny dataset should contain DLC records of non-text targets");
        assert!(hex.iter().all(|&(_, ty)| ty != ids.text));
    }

    #[test]
    fn bq6_equivalent_and_dominates_bq2() {
        let (s, ids) = suite();
        let hex = bq6_hexastore(&s.hexastore, &ids, None);
        assert_eq!(bq6_covp1(&s.covp1, &ids, None), hex);
        assert_eq!(bq6_covp2(&s.covp2, &ids, None), hex);
        // BQ6's subject set is a superset of BQ2's, so every BQ2 frequency
        // is ≤ its BQ6 counterpart.
        let bq2 = bq2_hexastore(&s.hexastore, &ids, None);
        for (p, n2) in &bq2 {
            let n6 = hex.iter().find(|(q, _)| q == p).map(|&(_, n)| n).unwrap_or(0);
            assert!(n6 >= *n2, "property {p:?}");
        }
    }

    #[test]
    fn bq7_equivalent_and_dates_only() {
        let (s, ids) = suite();
        let hex = bq7_indexed(&s.hexastore, &ids);
        assert_eq!(bq7_covp1(&s.covp1, &ids), hex);
        assert_eq!(bq7_indexed(&s.covp2, &ids), hex);
        assert!(!hex.is_empty());
        // The generator gives Point only to Date records, so every Type
        // triple in the answer must be Date — the paper's "all such
        // resources are of type Date" observation.
        let date = s.dict.id_of(&Vocab::type_value("Date")).unwrap();
        for t in hex.iter().filter(|t| t.p == ids.p_type) {
            assert_eq!(t.o, date);
        }
    }

    #[test]
    fn resolve_fails_gracefully_on_empty_dictionary() {
        let dict = Dictionary::new();
        assert!(BartonIds::resolve(&dict).is_none());
    }
}
