//! The seven Barton queries (paper §5.2.1), with the per-store plans the
//! paper describes.
//!
//! Naming: `bqN_hexastore`, `bqN_covp1`, `bqN_covp2`. Queries that iterate
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
    pairs: impl Iterator<Item = (Id, &'a [Id])>,
    t: &[Id],
    mut f: impl FnMut(Id, &'a [Id]),
) {
    let mut i = 0;
    for (s, items) in pairs {
        while i < t.len() && t[i] < s {
            i += 1;
        }
        if i >= t.len() {
            break;
        }
        if t[i] == s {
            f(s, items);
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
fn intersect_count(a: &[Id], b: &[Id]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return 0;
    }
    if large.len() / small.len().max(1) >= 16 {
        let mut n = 0;
        let mut lo = 0;
        for x in small {
            match large[lo..].binary_search(x) {
                Ok(i) => {
                    n += 1;
                    lo += i + 1;
                }
                Err(i) => lo += i,
            }
            if lo >= large.len() {
                break;
            }
        }
        return n;
    }
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
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

/// BQ1 on the Hexastore: one pos probe on the `Type` property; each object
/// entry already carries its sorted subject list, so the counts are list
/// lengths (§5.2.1: "only need to report the counts of subjects on the pos
/// index of property Type with respect to object").
pub fn bq1_hexastore(h: &Hexastore, ids: &BartonIds) -> Vec<(Id, usize)> {
    h.pos_vector(ids.p_type).map(|(o, subjects)| (o, subjects.len())).collect()
}

/// BQ1 on COVP2: identical to the Hexastore — the pos copy answers it.
pub fn bq1_covp2(c: &Covp2, ids: &BartonIds) -> Vec<(Id, usize)> {
    c.pos().table(ids.p_type).map(|(o, subjects)| (o, subjects.len())).collect()
}

/// BQ1 on COVP1: no pos index, so it needs "a self-join aggregation on
/// object value with its pso index" — scan the whole Type table and count.
pub fn bq1_covp1(c: &Covp1, ids: &BartonIds) -> Vec<(Id, usize)> {
    let mut objects: Vec<Id> = Vec::new();
    for (_, objs) in c.pso().table(ids.p_type) {
        objects.extend_from_slice(objs);
    }
    ops::frequency(objects)
}

// =====================================================================
// Text-subject selections shared by BQ2/BQ3 (and, extended, BQ4/BQ6).
// =====================================================================

/// Sorted subjects of `Type: Text` on COVP1: a linear scan of the Type
/// table (its objects are not indexed).
fn text_subjects_covp1(c: &Covp1, ids: &BartonIds) -> Vec<Id> {
    let mut t = Vec::new();
    for (s, objs) in c.pso().table(ids.p_type) {
        if sorted::contains(objs, &ids.text) {
            t.push(s);
        }
    }
    t // already sorted: the table iterates in subject order
}

// =====================================================================
// BQ2 — properties of Type:Text resources with frequencies.
// =====================================================================

/// The shared aggregation step of BQ2 on a property-oriented store: join
/// the text-subject list with each property table, counting objects.
fn bq2_tables(pso: hex_baselines::PropIndex<'_>, t: &[Id], candidates: &[Id]) -> Vec<(Id, usize)> {
    let mut out = Vec::new();
    for &p in candidates {
        let mut n = 0;
        for_each_table_match(pso.table(p), t, |_, objs| n += objs.len());
        if n > 0 {
            out.push((p, n));
        }
    }
    out
}

/// BQ2 on COVP1: select Text subjects by scanning the Type table, then
/// join the subject list with every (candidate) property table.
pub fn bq2_covp1(c: &Covp1, ids: &BartonIds, props: Option<&[Id]>) -> Vec<(Id, usize)> {
    let t = text_subjects_covp1(c, ids);
    let candidates = restrict(c.properties().collect(), props);
    bq2_tables(c.pso(), &t, &candidates)
}

/// BQ2 on COVP2: the Text selection is a pos probe; the aggregation step
/// is the same table sweep as COVP1.
pub fn bq2_covp2(c: &Covp2, ids: &BartonIds, props: Option<&[Id]>) -> Vec<(Id, usize)> {
    let t = c.pos().items(ids.p_type, ids.text).to_vec();
    let candidates = restrict(c.properties().collect(), props);
    bq2_tables(c.pso(), &t, &candidates)
}

/// The Hexastore aggregation step of BQ2/BQ6: merge the sorted property
/// vectors of the subjects in `t` (spo indexing), accumulating per-property
/// triple counts per property, summed by [`ops::merge_counts`].
fn merge_property_vectors(h: &Hexastore, t: &[Id]) -> Vec<(Id, usize)> {
    ops::merge_counts(t.iter().flat_map(|&s| h.spo_vector(s).map(|(p, objs)| (p, objs.len()))))
}

/// BQ2 on the Hexastore: pos probe for the Text subjects, then "merge the
/// sorted property vectors of the subjects in t in spo indexing and
/// aggregate their frequencies" — no sweep over unrelated properties.
pub fn bq2_hexastore(h: &Hexastore, ids: &BartonIds, props: Option<&[Id]>) -> Vec<(Id, usize)> {
    let t = h.subjects_for(ids.p_type, ids.text);
    let merged = merge_property_vectors(h, t);
    match props {
        Some(allowed) => merged.into_iter().filter(|(p, _)| sorted::contains(allowed, p)).collect(),
        None => merged,
    }
}

// =====================================================================
// BQ3 — BQ2 plus per-property counts of "popular" object values.
// =====================================================================

/// Per-property popular-object counts, the id-sorted reference result.
pub type PopularByProperty = Vec<(Id, Vec<(Id, usize)>)>;

/// BQ3 on COVP1: as BQ2, "with the addition that the instances of each
/// object per property are counted separately".
pub fn bq3_covp1(c: &Covp1, ids: &BartonIds, props: Option<&[Id]>) -> PopularByProperty {
    let t = text_subjects_covp1(c, ids);
    let candidates = restrict(c.properties().collect(), props);
    let mut out = Vec::new();
    for &p in &candidates {
        let mut objects: Vec<Id> = Vec::new();
        for_each_table_match(c.pso().table(p), &t, |_, objs| {
            objects.extend_from_slice(objs);
        });
        let pops = ops::popular(ops::frequency(objects));
        if !pops.is_empty() {
            out.push((p, pops));
        }
    }
    out
}

/// The COVP2/Hexastore final step: for each candidate property, walk its
/// pos division and count, per object, the subjects that fall in `t`.
fn bq3_pos_step<'a>(
    pos_table: impl Fn(Id) -> Box<dyn Iterator<Item = (Id, &'a [Id])> + 'a>,
    t: &[Id],
    candidates: &[Id],
) -> PopularByProperty {
    let mut out = Vec::new();
    for &p in candidates {
        let mut counts: Vec<(Id, usize)> = Vec::new();
        for (o, subjects) in pos_table(p) {
            let n = intersect_count(subjects, t);
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
    let t = c.pos().items(ids.p_type, ids.text).to_vec();
    let candidates = restrict(c.properties().collect(), props);
    bq3_pos_step(|p| Box::new(c.pos().table(p)), &t, &candidates)
}

/// BQ3 on the Hexastore: keeps the spo advantage for discovering *which*
/// properties are defined for `t` (skipping unrelated ones), but — as the
/// paper notes — must fall back to the pos index for the final per-object
/// aggregation, "in the same way as COVP2 does for this query".
pub fn bq3_hexastore(h: &Hexastore, ids: &BartonIds, props: Option<&[Id]>) -> PopularByProperty {
    let t = h.subjects_for(ids.p_type, ids.text);
    // spo step: candidate properties actually defined for subjects in t.
    let mut candidate_set: Vec<Id> = Vec::new();
    for &s in t {
        candidate_set.extend(h.spo_vector(s).map(|(p, _)| p));
    }
    sorted::sort_dedup(&mut candidate_set);
    let candidates = restrict(candidate_set, props);
    bq3_pos_step(|p| Box::new(h.pos_vector(p)), t, &candidates)
}

// =====================================================================
// BQ4 — BQ3 restricted to subjects that are also Language: French.
// =====================================================================

/// BQ4 on COVP1: "jointly selects subjects from the pso indices of Type
/// and Language" — two table scans, then an intersection.
pub fn bq4_covp1(c: &Covp1, ids: &BartonIds, props: Option<&[Id]>) -> PopularByProperty {
    let t_text = text_subjects_covp1(c, ids);
    let mut t_french = Vec::new();
    for (s, objs) in c.pso().table(ids.p_language) {
        if sorted::contains(objs, &ids.french) {
            t_french.push(s);
        }
    }
    let t = sorted::intersect(&t_text, &t_french);
    let candidates = restrict(c.properties().collect(), props);
    let mut out = Vec::new();
    for &p in &candidates {
        let mut objects: Vec<Id> = Vec::new();
        for_each_table_match(c.pso().table(p), &t, |_, objs| {
            objects.extend_from_slice(objs);
        });
        let pops = ops::popular(ops::frequency(objects));
        if !pops.is_empty() {
            out.push((p, pops));
        }
    }
    out
}

/// BQ4 on COVP2: "retrieve and merge-join the subject lists for Type: Text
/// and Language: French using their pos indices".
pub fn bq4_covp2(c: &Covp2, ids: &BartonIds, props: Option<&[Id]>) -> PopularByProperty {
    let t = sorted::intersect(
        c.pos().items(ids.p_type, ids.text),
        c.pos().items(ids.p_language, ids.french),
    );
    let candidates = restrict(c.properties().collect(), props);
    bq3_pos_step(|p| Box::new(c.pos().table(p)), &t, &candidates)
}

/// BQ4 on the Hexastore: same pos merge-join for the pre-selection, spo
/// discovery of candidate properties, pos aggregation.
pub fn bq4_hexastore(h: &Hexastore, ids: &BartonIds, props: Option<&[Id]>) -> PopularByProperty {
    let t = sorted::intersect(
        h.subjects_for(ids.p_type, ids.text),
        h.subjects_for(ids.p_language, ids.french),
    );
    let mut candidate_set: Vec<Id> = Vec::new();
    for &s in &t {
        candidate_set.extend(h.spo_vector(s).map(|(p, _)| p));
    }
    sorted::sort_dedup(&mut candidate_set);
    let candidates = restrict(candidate_set, props);
    bq3_pos_step(|p| Box::new(h.pos_vector(p)), &t, &candidates)
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
    let mut s_list = Vec::new();
    for (s, objs) in c.pso().table(ids.p_origin) {
        if sorted::contains(objs, &ids.dlc) {
            s_list.push(s);
        }
    }
    // (subject, recorded-object) pairs; object side unsorted.
    let mut pairs: Vec<(Id, Id)> = Vec::new();
    for_each_table_match(c.pso().table(ids.p_records), &s_list, |s, objs| {
        for &o in objs {
            pairs.push((s, o));
        }
    });
    // Sort the object list, then sort-merge join with the Type table.
    let mut recorded: Vec<Id> = pairs.iter().map(|&(_, o)| o).collect();
    sorted::sort_dedup(&mut recorded);
    let mut type_of: Vec<(Id, Vec<Id>)> = Vec::new();
    for_each_table_match(c.pso().table(ids.p_type), &recorded, |o, types| {
        let non_text: Vec<Id> = types.iter().copied().filter(|&t| t != ids.text).collect();
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
/// of Type to build the small non-Text table `T`; then merge-join the DLC
/// subject list against the Records table and look recordings up in `T`.
fn bq5_indexed<'a>(
    dlc_subjects: &[Id],
    recorded_objects: &[Id],
    type_subjects: &[Id],
    types_of: impl Fn(Id) -> &'a [Id],
    records_table: impl Iterator<Item = (Id, &'a [Id])>,
    text: Id,
) -> InferredTypes {
    // Merge-join: recorded objects that have a Type statement.
    let typed_recorded = sorted::intersect(recorded_objects, type_subjects);
    let mut table: Vec<(Id, Vec<Id>)> = Vec::new();
    for o in typed_recorded {
        let non_text: Vec<Id> = types_of(o).iter().copied().filter(|&t| t != text).collect();
        if !non_text.is_empty() {
            table.push((o, non_text));
        }
    }
    let mut out: InferredTypes = Vec::new();
    for_each_table_match(records_table, dlc_subjects, |s, objs| {
        for &o in objs {
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

/// BQ5 on COVP2.
pub fn bq5_covp2(c: &Covp2, ids: &BartonIds) -> InferredTypes {
    bq5_indexed(
        c.pos().items(ids.p_origin, ids.dlc),
        &c.pos().table_keys(ids.p_records),
        &c.pso().table_keys(ids.p_type),
        |o| c.pso().items(ids.p_type, o),
        c.pso().table(ids.p_records),
        ids.text,
    )
}

/// BQ5 on the Hexastore.
pub fn bq5_hexastore(h: &Hexastore, ids: &BartonIds) -> InferredTypes {
    bq5_indexed(
        h.subjects_for(ids.p_origin, ids.dlc),
        &h.object_vector_of_property(ids.p_records),
        &h.subject_vector_of_property(ids.p_type),
        |o| h.objects_for(o, ids.p_type),
        h.pso_vector(ids.p_records),
        ids.text,
    )
}

// =====================================================================
// BQ6 — BQ2 over resources known or inferred (as in BQ5) to be Text.
// =====================================================================

/// The resource set of BQ6: Type:Text subjects plus DLC subjects whose
/// recorded object is of Type:Text.
fn bq6_subjects(
    text_subjects: &[Id],
    dlc_subjects: &[Id],
    recordings_of: impl Fn(Id) -> Vec<Id>,
    types_of: impl Fn(Id) -> Vec<Id>,
    text: Id,
) -> Vec<Id> {
    let mut inferred: Vec<Id> = Vec::new();
    for &s in dlc_subjects {
        for o in recordings_of(s) {
            if types_of(o).contains(&text) {
                inferred.push(s);
                break;
            }
        }
    }
    sorted::union(text_subjects, &inferred)
}

/// BQ6 on COVP1.
pub fn bq6_covp1(c: &Covp1, ids: &BartonIds, props: Option<&[Id]>) -> Vec<(Id, usize)> {
    let t_text = text_subjects_covp1(c, ids);
    let mut dlc = Vec::new();
    for (s, objs) in c.pso().table(ids.p_origin) {
        if sorted::contains(objs, &ids.dlc) {
            dlc.push(s);
        }
    }
    let t = bq6_subjects(
        &t_text,
        &dlc,
        |s| c.pso().items(ids.p_records, s).to_vec(),
        |o| c.pso().items(ids.p_type, o).to_vec(),
        ids.text,
    );
    let candidates = restrict(c.properties().collect(), props);
    bq2_tables(c.pso(), &t, &candidates)
}

/// BQ6 on COVP2.
pub fn bq6_covp2(c: &Covp2, ids: &BartonIds, props: Option<&[Id]>) -> Vec<(Id, usize)> {
    let t = bq6_subjects(
        c.pos().items(ids.p_type, ids.text),
        c.pos().items(ids.p_origin, ids.dlc),
        |s| c.pso().items(ids.p_records, s).to_vec(),
        |o| c.pso().items(ids.p_type, o).to_vec(),
        ids.text,
    );
    let candidates = restrict(c.properties().collect(), props);
    bq2_tables(c.pso(), &t, &candidates)
}

/// BQ6 on the Hexastore: the union of the BQ2 and BQ5-style selections,
/// then the spo merge of property vectors.
pub fn bq6_hexastore(h: &Hexastore, ids: &BartonIds, props: Option<&[Id]>) -> Vec<(Id, usize)> {
    let t = bq6_subjects(
        h.subjects_for(ids.p_type, ids.text),
        h.subjects_for(ids.p_origin, ids.dlc),
        |s| h.objects_for(s, ids.p_records).to_vec(),
        |o| h.objects_for(o, ids.p_type).to_vec(),
        ids.text,
    );
    let merged = merge_property_vectors(h, &t);
    match props {
        Some(allowed) => merged.into_iter().filter(|(p, _)| sorted::contains(allowed, p)).collect(),
        None => merged,
    }
}

// =====================================================================
// BQ7 — Encoding and Type of resources whose Point value is 'end'.
// =====================================================================

/// BQ7 on COVP1: scan the Point table for 'end', then merge-join the
/// result with the Encoding and Type subject vectors.
pub fn bq7_covp1(c: &Covp1, ids: &BartonIds) -> Vec<IdTriple> {
    let mut s_list = Vec::new();
    for (s, objs) in c.pso().table(ids.p_point) {
        if sorted::contains(objs, &ids.end) {
            s_list.push(s);
        }
    }
    bq7_join(&s_list, ids, |p| Box::new(c.pso().table(p)))
}

/// BQ7 on COVP2: the first selection is a pos probe; the join step
/// "proceeds in the same fashion as COVP1" (merge against subject vectors).
pub fn bq7_covp2(c: &Covp2, ids: &BartonIds) -> Vec<IdTriple> {
    let s_list = c.pos().items(ids.p_point, ids.end).to_vec();
    bq7_join(&s_list, ids, |p| Box::new(c.pso().table(p)))
}

/// BQ7 on the Hexastore: pos probe, then the same merge joins against the
/// pso subject vectors of Encoding and Type.
pub fn bq7_hexastore(h: &Hexastore, ids: &BartonIds) -> Vec<IdTriple> {
    let s_list = h.subjects_for(ids.p_point, ids.end).to_vec();
    bq7_join(&s_list, ids, |p| Box::new(h.pso_vector(p)))
}

fn bq7_join<'a>(
    s_list: &[Id],
    ids: &BartonIds,
    table_of: impl Fn(Id) -> Box<dyn Iterator<Item = (Id, &'a [Id])> + 'a>,
) -> Vec<IdTriple> {
    let mut out = Vec::new();
    for p in [ids.p_encoding, ids.p_type] {
        for_each_table_match(table_of(p), s_list, |s, objs| {
            for &o in objs {
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

    fn suite() -> (Suite, BartonIds) {
        let triples = generate(&BartonConfig::tiny());
        let suite = Suite::build(&triples);
        let ids = BartonIds::resolve(&suite.dict).expect("tiny dataset has all query terms");
        (suite, ids)
    }

    #[test]
    fn bq1_equivalent_and_nonempty() {
        let (s, ids) = suite();
        let hex = bq1_hexastore(&s.hexastore, &ids);
        assert!(!hex.is_empty());
        assert_eq!(bq1_covp1(&s.covp1, &ids), hex);
        assert_eq!(bq1_covp2(&s.covp2, &ids), hex);
        // Counts must total the Type property cardinality.
        let total: usize = hex.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, s.hexastore.property_cardinality(ids.p_type));
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
        let hex = bq7_hexastore(&s.hexastore, &ids);
        assert_eq!(bq7_covp1(&s.covp1, &ids), hex);
        assert_eq!(bq7_covp2(&s.covp2, &ids), hex);
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
