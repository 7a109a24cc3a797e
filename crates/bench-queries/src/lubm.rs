//! The five LUBM queries (paper §5.2.2), with the per-store plans the
//! paper describes.
//!
//! These are the paper's "general-purpose queries … not oriented towards a
//! particular storage scheme": all five bind an *object* or a *subject*
//! without binding the property, which is exactly where the Hexastore's
//! osp/ops/sop divisions pay off and where property-oriented stores must
//! sweep every table. Every plan reads its orderings as
//! `store.ordering(kind)`: the Hexastore's osp probe is
//! `ordering(Osp).division(o)`; COVP's sweep walks
//! `ordering(Pso).keys()`, one property table each.

use hex_baselines::{Covp1, Covp2};
use hex_datagen::lubm::Vocab;
use hex_dict::{Dictionary, Id, IdTriple};
use hexastore::access::{List, OrderedStore};
use hexastore::IndexKind::{Ops, Osp, Pos, Pso, Sop, Spo};
use hexastore::{sorted, Hexastore};

/// The dictionary ids of the terms the LUBM queries bind.
#[derive(Clone, Debug)]
pub struct LubmIds {
    /// `type` property.
    pub p_type: Id,
    /// `teacherOf` property.
    pub p_teacher_of: Id,
    /// The three degree properties (undergraduate, masters, doctoral).
    pub degrees: [Id; 3],
    /// The `University` class.
    pub class_university: Id,
    /// `Course10` of Department0.University0 (LQ1).
    pub course10: Id,
    /// `University0` (LQ2).
    pub university0: Id,
    /// `AssociateProfessor10` of Department0.University0 (LQ3–LQ5).
    pub assoc_prof10: Id,
}

impl LubmIds {
    /// Resolves the query constants. Returns `None` until the dataset
    /// prefix contains every bound term.
    pub fn resolve(dict: &Dictionary) -> Option<Self> {
        let id = |t: &rdf_model::Term| dict.id_of(t);
        Some(LubmIds {
            p_type: id(&Vocab::predicate("type"))?,
            p_teacher_of: id(&Vocab::predicate("teacherOf"))?,
            degrees: [
                id(&Vocab::predicate("undergraduateDegreeFrom"))?,
                id(&Vocab::predicate("mastersDegreeFrom"))?,
                id(&Vocab::predicate("doctoralDegreeFrom"))?,
            ],
            class_university: id(&Vocab::class("University"))?,
            course10: id(&Vocab::course(0, 0, 10))?,
            university0: id(&Vocab::university(0))?,
            assoc_prof10: id(&Vocab::associate_professor(0, 0, 10))?,
        })
    }
}

// =====================================================================
// LQ1 / LQ2 — everyone related, by any property, to a bound object.
// =====================================================================

/// LQ1/LQ2 result rows: `(subject, property)` pairs, id-sorted.
pub type RelatedTo = Vec<(Id, Id)>;

/// Object-bound lookup on the Hexastore: a single osp probe — the paper's
/// "retrieves the results straightforwardly using its osp indexing".
pub fn related_to_hexastore(h: &Hexastore, object: Id) -> RelatedTo {
    let mut out: RelatedTo = Vec::new();
    for (s, props) in h.ordering(Osp).division(object) {
        for p in props {
            out.push((s, p));
        }
    }
    out.sort_unstable();
    out
}

/// Object-bound lookup on COVP1: "multiple selections on object" — a full
/// scan of every property table.
pub fn related_to_covp1(c: &Covp1, object: Id) -> RelatedTo {
    let pso = c.ordering(Pso);
    let mut out: RelatedTo = Vec::new();
    for p in pso.keys() {
        for (s, objs) in pso.division(p) {
            if objs.contains(object) {
                out.push((s, p));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Object-bound lookup on COVP2: one pos probe per property table —
/// faster than COVP1 "thanks to its pos indexing", but still touching all
/// properties.
pub fn related_to_covp2(c: &Covp2, object: Id) -> RelatedTo {
    let (pso, pos) = (c.ordering(Pso), c.ordering(Pos));
    let mut out: RelatedTo = Vec::new();
    for p in pso.keys() {
        for s in pos.list(p, object) {
            out.push((s, p));
        }
    }
    out.sort_unstable();
    out
}

/// LQ1 on the Hexastore: people related to Course10.
pub fn lq1_hexastore(h: &Hexastore, ids: &LubmIds) -> RelatedTo {
    related_to_hexastore(h, ids.course10)
}

/// LQ1 on COVP1.
pub fn lq1_covp1(c: &Covp1, ids: &LubmIds) -> RelatedTo {
    related_to_covp1(c, ids.course10)
}

/// LQ1 on COVP2.
pub fn lq1_covp2(c: &Covp2, ids: &LubmIds) -> RelatedTo {
    related_to_covp2(c, ids.course10)
}

/// LQ2 on the Hexastore: people (and departments) related to University0.
pub fn lq2_hexastore(h: &Hexastore, ids: &LubmIds) -> RelatedTo {
    related_to_hexastore(h, ids.university0)
}

/// LQ2 on COVP1.
pub fn lq2_covp1(c: &Covp1, ids: &LubmIds) -> RelatedTo {
    related_to_covp1(c, ids.university0)
}

/// LQ2 on COVP2.
pub fn lq2_covp2(c: &Covp2, ids: &LubmIds) -> RelatedTo {
    related_to_covp2(c, ids.university0)
}

// =====================================================================
// LQ3 — all immediate information about AssociateProfessor10 (appearing
// as subject or as object).
// =====================================================================

/// LQ3 on the Hexastore: "only has to perform two lookups, one in index
/// spo and one in index ops".
pub fn lq3_hexastore(h: &Hexastore, ids: &LubmIds) -> Vec<IdTriple> {
    let x = ids.assoc_prof10;
    let mut out: Vec<IdTriple> = Vec::new();
    for (p, objs) in h.ordering(Spo).division(x) {
        for o in objs {
            out.push(IdTriple::new(x, p, o));
        }
    }
    for (p, subjects) in h.ordering(Ops).division(x) {
        for s in subjects {
            out.push(IdTriple::new(s, p, x));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// LQ3 on COVP1: per property table, a subject-side probe plus a full
/// object-side scan, then a union.
pub fn lq3_covp1(c: &Covp1, ids: &LubmIds) -> Vec<IdTriple> {
    let pso = c.ordering(Pso);
    let x = ids.assoc_prof10;
    let mut out: Vec<IdTriple> = Vec::new();
    for p in pso.keys() {
        for o in pso.list(p, x) {
            out.push(IdTriple::new(x, p, o));
        }
        for (s, objs) in pso.division(p) {
            if objs.contains(x) {
                out.push(IdTriple::new(s, p, x));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// LQ3 on COVP2: the object side becomes a pos probe per property.
pub fn lq3_covp2(c: &Covp2, ids: &LubmIds) -> Vec<IdTriple> {
    let (pso, pos) = (c.ordering(Pso), c.ordering(Pos));
    let x = ids.assoc_prof10;
    let mut out: Vec<IdTriple> = Vec::new();
    for p in pso.keys() {
        for o in pso.list(p, x) {
            out.push(IdTriple::new(x, p, o));
        }
        for s in pos.list(p, x) {
            out.push(IdTriple::new(s, p, x));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

// =====================================================================
// LQ4 — people related to the courses AssociateProfessor10 teaches,
// grouped by course.
// =====================================================================

/// LQ4 result: per course (sorted), the sorted distinct `(subject,
/// property)` pairs related to it.
pub type ByCourse = Vec<(Id, Vec<(Id, Id)>)>;

/// LQ4 on the Hexastore: the course list is one spo probe; each course is
/// then one osp lookup.
pub fn lq4_hexastore(h: &Hexastore, ids: &LubmIds) -> ByCourse {
    let courses = h.ordering(Spo).list(ids.assoc_prof10, ids.p_teacher_of);
    courses
        .into_iter()
        .map(|c| {
            let mut related: Vec<(Id, Id)> = Vec::new();
            for (s, props) in h.ordering(Osp).division(c) {
                for p in props {
                    related.push((s, p));
                }
            }
            related.sort_unstable();
            (c, related)
        })
        .collect()
}

/// LQ4 on COVP1: course list from the teacherOf table, then matching
/// subjects are found by scanning *all* object lists in the pso index.
pub fn lq4_covp1(c: &Covp1, ids: &LubmIds) -> ByCourse {
    let pso = c.ordering(Pso);
    let courses = pso.list(ids.p_teacher_of, ids.assoc_prof10);
    let mut grouped: Vec<(Id, Vec<(Id, Id)>)> =
        courses.into_iter().map(|course| (course, Vec::new())).collect();
    for p in pso.keys() {
        for (s, objs) in pso.division(p) {
            for entry in &mut grouped {
                if objs.contains(entry.0) {
                    entry.1.push((s, p));
                }
            }
        }
    }
    for entry in &mut grouped {
        entry.1.sort_unstable();
    }
    grouped
}

/// LQ4 on COVP2: one pos probe per (property, course) pair.
pub fn lq4_covp2(c: &Covp2, ids: &LubmIds) -> ByCourse {
    let (pso, pos) = (c.ordering(Pso), c.ordering(Pos));
    let courses = pso.list(ids.p_teacher_of, ids.assoc_prof10);
    let mut grouped: Vec<(Id, Vec<(Id, Id)>)> =
        courses.into_iter().map(|course| (course, Vec::new())).collect();
    for p in pso.keys() {
        for entry in &mut grouped {
            for s in pos.list(p, entry.0) {
                entry.1.push((s, p));
            }
        }
    }
    for entry in &mut grouped {
        entry.1.sort_unstable();
    }
    grouped
}

// =====================================================================
// LQ5 — people holding any degree from a university AssociateProfessor10
// is related to, grouped by university.
// =====================================================================

/// LQ5 result: per university (sorted), the sorted distinct degree
/// holders.
pub type ByUniversity = Vec<(Id, Vec<Id>)>;

fn lq5_group(
    universities: &[Id],
    subjects_for_degree: impl Fn(Id, Id) -> Vec<Id>,
    degrees: [Id; 3],
) -> ByUniversity {
    universities
        .iter()
        .map(|&u| {
            let lists: Vec<Vec<Id>> = degrees.iter().map(|&d| subjects_for_degree(d, u)).collect();
            let refs: Vec<&[Id]> = lists.iter().map(Vec::as_slice).collect();
            (u, sorted::union_many(refs))
        })
        .collect()
}

/// LQ5 on the Hexastore: the related-object list is one sop probe; the
/// university refinement is a merge join against the Type pos list; each
/// (degree, university) is one pos probe.
pub fn lq5_hexastore(h: &Hexastore, ids: &LubmIds) -> ByUniversity {
    let t: Vec<Id> = h.ordering(Sop).division(ids.assoc_prof10).map(|(o, _)| o).collect();
    let pos = h.ordering(Pos);
    let unis = sorted::intersect_many(vec![
        List::from(&t[..]),
        pos.list(ids.p_type, ids.class_university),
    ]);
    lq5_group(&unis, |d, u| pos.list(d, u).to_vec(), ids.degrees)
}

/// LQ5 on COVP1: the related-object list needs a probe in *every* property
/// table; the university refinement joins against the Type table; each
/// degree table is then scanned once per university.
pub fn lq5_covp1(c: &Covp1, ids: &LubmIds) -> ByUniversity {
    let pso = c.ordering(Pso);
    let mut t: Vec<Id> = Vec::new();
    for p in pso.keys() {
        t.extend(pso.list(p, ids.assoc_prof10));
    }
    sorted::sort_dedup(&mut t);
    // Refine to universities by joining with the Type table.
    let mut unis: Vec<Id> = Vec::new();
    let mut i = 0;
    for (s, objs) in pso.division(ids.p_type) {
        while i < t.len() && t[i] < s {
            i += 1;
        }
        if i >= t.len() {
            break;
        }
        if t[i] == s && objs.contains(ids.class_university) {
            unis.push(s);
        }
    }
    // Degree lookups: linear scans of the degree tables.
    lq5_group(
        &unis,
        |d, u| {
            let mut subjects = Vec::new();
            for (s, objs) in pso.division(d) {
                if objs.contains(u) {
                    subjects.push(s);
                }
            }
            subjects
        },
        ids.degrees,
    )
}

/// LQ5 on COVP2: the related-object list still needs every property table,
/// but the refinement and the degree lookups are pos probes.
pub fn lq5_covp2(c: &Covp2, ids: &LubmIds) -> ByUniversity {
    let (pso, pos) = (c.ordering(Pso), c.ordering(Pos));
    let mut t: Vec<Id> = Vec::new();
    for p in pso.keys() {
        t.extend(pso.list(p, ids.assoc_prof10));
    }
    sorted::sort_dedup(&mut t);
    let unis = sorted::intersect_many(vec![
        List::from(&t[..]),
        pos.list(ids.p_type, ids.class_university),
    ]);
    lq5_group(&unis, |d, u| pos.list(d, u).to_vec(), ids.degrees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Suite;
    use hex_datagen::lubm::{generate, LubmConfig};
    use hexastore::TripleStore;

    fn suite() -> (Suite, LubmIds) {
        let triples = generate(&LubmConfig::tiny());
        let suite = Suite::build(&triples);
        let ids = LubmIds::resolve(&suite.dict).expect("tiny dataset has all query terms");
        (suite, ids)
    }

    #[test]
    fn lq1_equivalent_and_course_related() {
        let (s, ids) = suite();
        let hex = lq1_hexastore(&s.hexastore, &ids);
        assert_eq!(lq1_covp1(&s.covp1, &ids), hex);
        assert_eq!(lq1_covp2(&s.covp2, &ids), hex);
        assert!(!hex.is_empty(), "Course10 must have a teacher and takers");
        // Every reported pair really is a triple with object Course10.
        for &(subj, prop) in &hex {
            assert!(s.hexastore.contains(IdTriple::new(subj, prop, ids.course10)));
        }
    }

    #[test]
    fn lq2_equivalent() {
        let (s, ids) = suite();
        let hex = lq2_hexastore(&s.hexastore, &ids);
        assert_eq!(lq2_covp1(&s.covp1, &ids), hex);
        assert_eq!(lq2_covp2(&s.covp2, &ids), hex);
        assert!(!hex.is_empty(), "University0 has departments and degree holders");
    }

    #[test]
    fn lq3_equivalent_and_covers_both_roles() {
        let (s, ids) = suite();
        let hex = lq3_hexastore(&s.hexastore, &ids);
        assert_eq!(lq3_covp1(&s.covp1, &ids), hex);
        assert_eq!(lq3_covp2(&s.covp2, &ids), hex);
        assert!(hex.iter().any(|t| t.s == ids.assoc_prof10), "subject role");
        // The professor advises someone or teaches something, so the
        // object role should be populated too (teacherOf points *from*
        // the professor; advisor points *to* them).
        let as_object = hex.iter().filter(|t| t.o == ids.assoc_prof10).count();
        let as_subject = hex.iter().filter(|t| t.s == ids.assoc_prof10).count();
        assert_eq!(as_object + as_subject, hex.len());
    }

    #[test]
    fn lq4_equivalent_and_grouped_by_taught_course() {
        let (s, ids) = suite();
        let hex = lq4_hexastore(&s.hexastore, &ids);
        assert_eq!(lq4_covp1(&s.covp1, &ids), hex);
        assert_eq!(lq4_covp2(&s.covp2, &ids), hex);
        let taught = s.hexastore.ordering(Spo).list(ids.assoc_prof10, ids.p_teacher_of);
        assert_eq!(hex.len(), taught.len());
        // The teacher appears in each course's related set via teacherOf.
        for (course, related) in &hex {
            assert!(taught.contains(*course));
            assert!(related.contains(&(ids.assoc_prof10, ids.p_teacher_of)));
        }
    }

    #[test]
    fn lq5_equivalent_and_universities_only() {
        let (s, ids) = suite();
        let hex = lq5_hexastore(&s.hexastore, &ids);
        assert_eq!(lq5_covp1(&s.covp1, &ids), hex);
        assert_eq!(lq5_covp2(&s.covp2, &ids), hex);
        assert!(!hex.is_empty(), "the professor has degrees from some university");
        for (u, holders) in &hex {
            assert!(s.hexastore.contains(IdTriple::new(*u, ids.p_type, ids.class_university)));
            // The professor holds a degree from each reported university.
            assert!(!holders.is_empty());
        }
    }

    #[test]
    fn resolve_fails_gracefully_on_empty_dictionary() {
        let dict = Dictionary::new();
        assert!(LubmIds::resolve(&dict).is_none());
    }
}
