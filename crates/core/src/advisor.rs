//! Workload-based index selection (the paper's §6 future-work item).
//!
//! "Some indices may not contribute to query efficiency based on a given
//! workload. For example, the ops index has been seldom used in our
//! experiments. A subject for future research concerns the selection of
//! the most suitable indices for a given RDF data set based on the query
//! workload at hand."
//!
//! This module implements that selection: [`IndexKind`] names the six
//! orderings, [`serving_indices`] maps each access shape to the indices
//! able to serve it, and [`recommend`] takes a workload of patterns and
//! returns the minimal index set that serves every pattern with a single
//! probe, preferring indices that are already needed.
//! [`crate::PartialHexastore`] builds exactly that set, and its
//! `heap_bytes()` is what dropping the rest saves.

use crate::pattern::{IdPattern, Shape};

/// One of the six index orderings of a Hexastore.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum IndexKind {
    /// subject → property → objects.
    Spo,
    /// subject → object → properties.
    Sop,
    /// property → subject → objects.
    Pso,
    /// property → object → subjects.
    Pos,
    /// object → subject → properties.
    Osp,
    /// object → property → subjects.
    Ops,
}

impl IndexKind {
    /// All six orderings.
    pub const ALL: [IndexKind; 6] = [
        IndexKind::Spo,
        IndexKind::Sop,
        IndexKind::Pso,
        IndexKind::Pos,
        IndexKind::Osp,
        IndexKind::Ops,
    ];

    /// The ordering's conventional lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Spo => "spo",
            IndexKind::Sop => "sop",
            IndexKind::Pso => "pso",
            IndexKind::Pos => "pos",
            IndexKind::Osp => "osp",
            IndexKind::Ops => "ops",
        }
    }

    /// The ordering that shares this ordering's terminal lists (§4.1).
    pub fn paired(self) -> IndexKind {
        match self {
            IndexKind::Spo => IndexKind::Pso,
            IndexKind::Pso => IndexKind::Spo,
            IndexKind::Sop => IndexKind::Osp,
            IndexKind::Osp => IndexKind::Sop,
            IndexKind::Pos => IndexKind::Ops,
            IndexKind::Ops => IndexKind::Pos,
        }
    }

    /// True for the second ordering of each pair (pso, osp, ops). A pair's
    /// shared terminal lists are laid out in the leaf order of its
    /// *primary* ordering (spo, sop, pos), so in the flat slab form leaf
    /// `i` of a primary is list `i` and only a mirror stores list
    /// references.
    pub fn is_mirror(self) -> bool {
        matches!(self, IndexKind::Pso | IndexKind::Osp | IndexKind::Ops)
    }
}

/// A set of index orderings, as a tiny bitset.
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct IndexSet(u8);

impl IndexSet {
    /// The empty set.
    pub const EMPTY: IndexSet = IndexSet(0);

    /// The full sextuple set.
    pub fn all() -> IndexSet {
        IndexKind::ALL.iter().fold(IndexSet::EMPTY, |s, &k| s.with(k))
    }

    /// This set plus one ordering.
    pub fn with(self, kind: IndexKind) -> IndexSet {
        IndexSet(self.0 | (1 << kind as u8))
    }

    /// Membership test.
    pub fn contains(self, kind: IndexKind) -> bool {
        self.0 & (1 << kind as u8) != 0
    }

    /// Number of orderings in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if no ordering is selected.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterator over the member orderings.
    pub fn iter(self) -> impl Iterator<Item = IndexKind> {
        IndexKind::ALL.into_iter().filter(move |&k| self.contains(k))
    }

    /// True if the two sets share at least one ordering.
    pub fn intersects(self, other: IndexSet) -> bool {
        self.0 & other.0 != 0
    }

    /// The orderings both sets contain.
    pub fn intersection(self, other: IndexSet) -> IndexSet {
        IndexSet(self.0 & other.0)
    }

    /// The first member in canonical ([`IndexKind::ALL`]) order.
    pub fn first(self) -> Option<IndexKind> {
        IndexKind::ALL.get(self.0.trailing_zeros() as usize).copied()
    }

    /// True if some member ordering answers the access shape with a single
    /// probe (see [`serving_indices`]) — the planner-side servability test.
    pub fn serves(self, shape: Shape) -> bool {
        self.intersects(serving_indices(shape))
    }
}

impl std::fmt::Debug for IndexSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter().map(IndexKind::name)).finish()
    }
}

/// The indices able to answer an access shape with one probe.
///
/// Two-bound shapes are served by *either* ordering of their index pair:
/// both orderings reach the same `(k1, k2)`-keyed terminal list — shared
/// in a full Hexastore, owned per-ordering in a partial store — so e.g. `pso[p][s]` answers `(s, p, ?)` with the same single
/// probe as `spo[s][p]`. One-bound shapes are served by either ordering
/// headed by the bound element; the full scan by any index.
pub fn serving_indices(shape: Shape) -> IndexSet {
    match shape {
        // Fully bound: any index can check membership; spo is canonical.
        Shape::Spo => IndexSet::all(),
        Shape::Sp => IndexSet::EMPTY.with(IndexKind::Spo).with(IndexKind::Pso),
        Shape::So => IndexSet::EMPTY.with(IndexKind::Sop).with(IndexKind::Osp),
        Shape::Po => IndexSet::EMPTY.with(IndexKind::Pos).with(IndexKind::Ops),
        Shape::S => IndexSet::EMPTY.with(IndexKind::Spo).with(IndexKind::Sop),
        Shape::P => IndexSet::EMPTY.with(IndexKind::Pso).with(IndexKind::Pos),
        Shape::O => IndexSet::EMPTY.with(IndexKind::Osp).with(IndexKind::Ops),
        Shape::None_ => IndexSet::all(),
    }
}

/// A workload summary: how often each access shape occurs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadProfile {
    counts: [(Shape, usize); 8],
}

impl WorkloadProfile {
    /// Profiles a pattern workload.
    pub fn from_patterns<'a>(patterns: impl IntoIterator<Item = &'a IdPattern>) -> Self {
        let mut counts = [
            (Shape::Spo, 0),
            (Shape::Sp, 0),
            (Shape::So, 0),
            (Shape::Po, 0),
            (Shape::S, 0),
            (Shape::P, 0),
            (Shape::O, 0),
            (Shape::None_, 0),
        ];
        for pat in patterns {
            let shape = pat.shape();
            for entry in &mut counts {
                if entry.0 == shape {
                    entry.1 += 1;
                }
            }
        }
        WorkloadProfile { counts }
    }

    /// Occurrences of one shape.
    pub fn count(&self, shape: Shape) -> usize {
        self.counts.iter().find(|(s, _)| *s == shape).map(|&(_, n)| n).unwrap_or(0)
    }

    /// Shapes that occur at least once.
    pub fn used_shapes(&self) -> Vec<Shape> {
        self.counts.iter().filter(|&&(_, n)| n > 0).map(|&(s, _)| s).collect()
    }
}

/// Recommends a minimal index set covering a workload.
///
/// Since every non-trivial shape has exactly two candidate servers (its
/// index pair or its two headed orderings — see [`serving_indices`]),
/// this is a set-cover instance; the greedy rule — repeatedly add the
/// ordering that serves the most still-unserved shapes, ties broken in
/// [`IndexKind::ALL`] order — is within one index of optimal for
/// two-element option sets and exact on every workload in the paper's
/// evaluation. One ordering can now cover a two-bound shape *and* its
/// one-bound prefix (e.g. `pso` serves both `(s, p, ?)` and `(?, p, ?)`),
/// so recommended sets only shrink relative to the primary-only rule.
pub fn recommend(profile: &WorkloadProfile) -> IndexSet {
    let mut chosen = IndexSet::EMPTY;
    // Shapes that need covering; Spo/None_ are served by any index and
    // fall through to the final backstop.
    let mut pending: Vec<IndexSet> = profile
        .used_shapes()
        .into_iter()
        .map(serving_indices)
        .filter(|&servers| servers != IndexSet::all())
        .collect();
    loop {
        pending.retain(|servers| !servers.intersects(chosen));
        if pending.is_empty() {
            break;
        }
        let mut best = (IndexKind::Spo, 0usize);
        for kind in IndexKind::ALL {
            let covers = pending.iter().filter(|servers| servers.contains(kind)).count();
            if covers > best.1 {
                best = (kind, covers);
            }
        }
        chosen = chosen.with(best.0);
    }
    // Membership checks and full scans need *some* index.
    if chosen.is_empty() && (profile.count(Shape::Spo) > 0 || profile.count(Shape::None_) > 0) {
        chosen = chosen.with(IndexKind::Spo);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use hex_dict::{Id, IdTriple};

    #[test]
    fn index_set_basics() {
        let s = IndexSet::EMPTY.with(IndexKind::Pos).with(IndexKind::Spo);
        assert_eq!(s.len(), 2);
        assert!(s.contains(IndexKind::Pos));
        assert!(!s.contains(IndexKind::Ops));
        assert!(!s.is_empty());
        assert_eq!(IndexSet::all().len(), 6);
        let names: Vec<&str> = s.iter().map(IndexKind::name).collect();
        assert_eq!(names, vec!["spo", "pos"]);
        assert!(s.intersects(IndexSet::EMPTY.with(IndexKind::Spo)));
        assert!(!s.intersects(IndexSet::EMPTY.with(IndexKind::Ops)));
        assert_eq!(s.intersection(IndexSet::all()), s);
        assert_eq!(s.first(), Some(IndexKind::Spo));
        assert_eq!(
            s.intersection(IndexSet::EMPTY.with(IndexKind::Pos)).first(),
            Some(IndexKind::Pos)
        );
        assert_eq!(IndexSet::EMPTY.first(), None);
        assert!(s.serves(Shape::Po), "pos serves (?, p, o)");
        assert!(s.serves(Shape::Sp), "spo serves (s, p, ?)");
        assert!(!s.serves(Shape::O), "neither osp nor ops kept");
        assert!(!IndexSet::EMPTY.serves(Shape::None_));
    }

    #[test]
    fn pairing_matches_paper() {
        assert_eq!(IndexKind::Spo.paired(), IndexKind::Pso);
        assert_eq!(IndexKind::Sop.paired(), IndexKind::Osp);
        assert_eq!(IndexKind::Pos.paired(), IndexKind::Ops);
        for k in IndexKind::ALL {
            assert_eq!(k.paired().paired(), k);
        }
    }

    #[test]
    fn two_bound_shapes_are_served_by_their_pair() {
        // Either ordering of a pair reaches the same (k1, k2)-keyed list.
        assert_eq!(
            serving_indices(Shape::Sp),
            IndexSet::EMPTY.with(IndexKind::Spo).with(IndexKind::Pso)
        );
        assert_eq!(
            serving_indices(Shape::So),
            IndexSet::EMPTY.with(IndexKind::Sop).with(IndexKind::Osp)
        );
        assert_eq!(
            serving_indices(Shape::Po),
            IndexSet::EMPTY.with(IndexKind::Pos).with(IndexKind::Ops)
        );
    }

    #[test]
    fn property_bound_workload_needs_a_single_index() {
        // A purely COVP-shaped workload: (?, p, ?) and (s, p, ?). One pso
        // index serves both — the COVP1 physical design, recovered.
        let patterns = vec![IdPattern::p(Id(1)), IdPattern::sp(Id(0), Id(1))];
        let profile = WorkloadProfile::from_patterns(&patterns);
        let rec = recommend(&profile);
        assert_eq!(rec, IndexSet::EMPTY.with(IndexKind::Pso));
    }

    #[test]
    fn object_bound_workload_selects_one_object_headed_index() {
        // (?, ?, o) and (?, p, o) are both served by ops alone.
        let patterns = vec![IdPattern::o(Id(9)), IdPattern::po(Id(1), Id(9))];
        let profile = WorkloadProfile::from_patterns(&patterns);
        let rec = recommend(&profile);
        assert_eq!(rec, IndexSet::EMPTY.with(IndexKind::Ops));
    }

    #[test]
    fn recommended_sets_serve_every_used_shape() {
        // Exhaustive over all 2^6 shape combinations (Spo/None_ excluded:
        // they are served by anything): the greedy cover must leave no
        // used shape unserved.
        let shapes = [Shape::Sp, Shape::So, Shape::Po, Shape::S, Shape::P, Shape::O];
        for bits in 1u8..64 {
            let patterns: Vec<IdPattern> = shapes
                .iter()
                .enumerate()
                .filter(|(i, _)| bits & (1 << i) != 0)
                .map(|(_, shape)| match shape {
                    Shape::Sp => IdPattern::sp(Id(0), Id(1)),
                    Shape::So => IdPattern::so(Id(0), Id(2)),
                    Shape::Po => IdPattern::po(Id(1), Id(2)),
                    Shape::S => IdPattern::s(Id(0)),
                    Shape::P => IdPattern::p(Id(1)),
                    Shape::O => IdPattern::o(Id(2)),
                    _ => unreachable!(),
                })
                .collect();
            let profile = WorkloadProfile::from_patterns(&patterns);
            let rec = recommend(&profile);
            for pat in &patterns {
                assert!(rec.serves(pat.shape()), "{bits:#08b}: {:?} unserved by {rec:?}", pat);
            }
            assert!(rec.len() <= patterns.len(), "cover larger than trivial pick");
        }
    }

    #[test]
    fn paper_observation_ops_rarely_needed() {
        // The twelve paper queries use pos, spo, sop, osp, pso — §6 notes
        // "the ops index has been seldom used". A workload of their shapes
        // should not force ops.
        let patterns = vec![
            IdPattern::po(Id(1), Id(2)), // pos (BQ selections)
            IdPattern::sp(Id(3), Id(1)), // spo (BQ2 merge step)
            IdPattern::s(Id(3)),         // spo/sop (LQ3 subject side)
            IdPattern::o(Id(2)),         // osp/ops (LQ1)
            IdPattern::p(Id(1)),         // pso/pos
        ];
        let profile = WorkloadProfile::from_patterns(&patterns);
        let rec = recommend(&profile);
        assert!(rec.contains(IndexKind::Pos));
        assert!(!rec.contains(IndexKind::Ops), "ops should not be forced: {rec:?}");
        assert!(rec.len() <= 4);
    }

    #[test]
    fn empty_workload_recommends_nothing() {
        let profile = WorkloadProfile::from_patterns(std::iter::empty::<&IdPattern>());
        assert!(recommend(&profile).is_empty());
    }

    #[test]
    fn membership_only_workload_keeps_one_index() {
        let patterns = vec![IdPattern::spo(IdTriple::from((1, 2, 3)))];
        let profile = WorkloadProfile::from_patterns(&patterns);
        let rec = recommend(&profile);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn profile_counts_shapes() {
        let patterns = vec![IdPattern::p(Id(1)), IdPattern::p(Id(2)), IdPattern::o(Id(3))];
        let profile = WorkloadProfile::from_patterns(&patterns);
        assert_eq!(profile.count(Shape::P), 2);
        assert_eq!(profile.count(Shape::O), 1);
        assert_eq!(profile.count(Shape::Sp), 0);
        assert_eq!(profile.used_shapes().len(), 2);
    }
}
