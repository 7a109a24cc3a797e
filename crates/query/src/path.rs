//! Path-expression evaluation (paper §4.3).
//!
//! A path expression `p1/p2/…/pn` chains subject-object joins: every
//! internal node is the object of one triple and the subject of the next.
//! The paper's point: **with both pso and pos present, the first of the
//! n−1 joins is a linear merge join** (pos gives the objects of `p1`
//! sorted; pso gives the subjects of `p2` sorted) **and the remaining n−2
//! are sort-merge joins** (intermediate frontiers come out unsorted and
//! need one sort each). A pso-only store must sort before *every* join.
//!
//! [`PathStats`] records the joins and sorts actually performed so the
//! claim is testable and benchable, not just asserted.
//!
//! [`follow_path`], [`transitive_closure`] and [`path_pairs`] read only
//! those two orderings — `store.ordering(Pso)` and `store.ordering(Pos)` —
//! so they run on any [`OrderedStore`] that keeps both: the Hexastore,
//! COVP2, or a partial store keeping {pso, pos}. On a store that lacks
//! either, they panic ([`OrderedStore::ordering`]).

use crate::ops;
use hex_dict::Id;
use hexastore::access::{OrderedStore, SlabOrdering};
use hexastore::IndexKind::{Pos, Pso};
use hexastore::{sorted, IdPattern, TripleStore};

/// Counters of the join machinery a path evaluation used.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Linear merge joins over two already-sorted operands.
    pub merge_joins: usize,
    /// Joins that required sorting one operand first.
    pub sort_merge_joins: usize,
    /// Explicit sort operations performed.
    pub sorts: usize,
}

/// The result of a path evaluation: the reachable end nodes (sorted,
/// distinct) plus the join statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathResult {
    /// Sorted, distinct end nodes of the path.
    pub ends: Vec<Id>,
    /// Join accounting.
    pub stats: PathStats,
}

/// The sorted vector keys of `ordering[k1]`: the objects of a property in
/// pos, its subjects in pso.
fn vector_keys(ordering: SlabOrdering<'_>, k1: Id) -> Vec<Id> {
    ordering.division(k1).map(|(k2, _)| k2).collect()
}

/// Follows `props = [p1, …, pn]` from *any* start node.
///
/// Returns the distinct nodes reachable through the full chain. Uses the
/// pos index for the first hop (sorted objects of `p1`) and pso subject
/// vectors for each join, exactly the §4.3 plan.
pub fn follow_path<S: OrderedStore>(store: &S, props: &[Id]) -> PathResult {
    let Some((&first, rest)) = props.split_first() else {
        return PathResult::default();
    };
    let pso = store.ordering(Pso);
    // Objects of p1, already sorted: the pos object vector.
    let mut frontier = vector_keys(store.ordering(Pos), first);
    let mut stats = PathStats::default();

    for (hop, &p) in rest.iter().enumerate() {
        // Join frontier (objects reached so far) with subjects of p.
        let subjects = vector_keys(pso, p);
        // First join: both sides sorted (pos objects × pso subjects) — a
        // linear merge join. Later joins: the frontier was re-sorted after
        // gathering, so the join itself is still a merge, but the paper
        // accounts the required sort to the join, making it "sort-merge".
        let matched = sorted::intersect(&frontier, &subjects);
        if hop == 0 {
            stats.merge_joins += 1;
        } else {
            stats.sort_merge_joins += 1;
        }
        // Gather next frontier: objects of (x, p, *) for matched x. The
        // concatenation of per-subject lists is not globally sorted.
        let mut next: Vec<Id> = Vec::new();
        for x in matched {
            next.extend(pso.list(p, x));
        }
        // Every materialized frontier is normalized; the sort is charged
        // to the *next* join (making it sort-merge), so count it only when
        // another hop follows.
        sorted::sort_dedup(&mut next);
        if hop + 1 < rest.len() {
            stats.sorts += 1;
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    PathResult { ends: frontier, stats }
}

/// Follows a path on any [`TripleStore`] using only property-bound scans —
/// the plan available to a pso-only store such as COVP1: the object side of
/// every hop must be gathered and sorted before it can be joined.
pub fn follow_path_generic(store: &dyn TripleStore, props: &[Id]) -> PathResult {
    let Some((&first, rest)) = props.split_first() else {
        return PathResult::default();
    };
    let mut stats = PathStats::default();
    // Gather objects of p1 by scanning its table: unsorted, so sort now.
    let mut frontier: Vec<Id> = store.iter_matching(IdPattern::p(first)).map(|t| t.o).collect();
    sorted::sort_dedup(&mut frontier);
    stats.sorts += 1;

    for &p in rest {
        // Subjects of p sorted (the table's own order), but since the
        // frontier required a sort, the join is a sort-merge join.
        let pairs: Vec<(Id, Id)> =
            store.iter_matching(IdPattern::p(p)).map(|t| (t.s, t.o)).collect();
        let subjects: Vec<Id> = {
            let mut s: Vec<Id> = pairs.iter().map(|&(s, _)| s).collect();
            sorted::sort_dedup(&mut s);
            s
        };
        let matched = sorted::intersect(&frontier, &subjects);
        stats.sort_merge_joins += 1;
        let matched_set = matched;
        let mut next: Vec<Id> = pairs
            .into_iter()
            .filter(|(s, _)| sorted::contains(&matched_set, s))
            .map(|(_, o)| o)
            .collect();
        sorted::sort_dedup(&mut next);
        stats.sorts += 1;
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    PathResult { ends: frontier, stats }
}

/// Nodes reachable from `start` by following property `p` one or more
/// times (the transitive-closure building block the paper relates path
/// queries to). Breadth-first over sorted frontiers.
pub fn transitive_closure<S: OrderedStore>(store: &S, start: Id, p: Id) -> Vec<Id> {
    let pso = store.ordering(Pso);
    let mut reached: Vec<Id> = Vec::new();
    let mut frontier: Vec<Id> = pso.list(p, start).to_vec();
    while !frontier.is_empty() {
        // reached ∪= frontier; next = successors(frontier) \ reached.
        reached = sorted::union(&reached, &frontier);
        let mut next: Vec<Id> = Vec::new();
        for &x in &frontier {
            next.extend(pso.list(p, x));
        }
        sorted::sort_dedup(&mut next);
        frontier = sorted::difference(&next, &reached);
    }
    reached
}

/// All `(start, end)` pairs connected by the two-property path `p1/p2`,
/// grouped by the intermediate node's start set — a helper for the LUBM
/// queries that group results (LQ4, LQ5).
pub fn path_pairs<S: OrderedStore>(store: &S, p1: Id, p2: Id) -> Vec<(Id, Vec<Id>)> {
    let (pso, pos) = (store.ordering(Pso), store.ordering(Pos));
    let mids = sorted::intersect(&vector_keys(pos, p1), &vector_keys(pso, p2));
    let mut pairs: Vec<(Id, Id)> = Vec::new();
    for mid in mids {
        for s in pos.list(p1, mid) {
            for e in pso.list(p2, mid) {
                pairs.push((s, e));
            }
        }
    }
    ops::group_by_key(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hex_dict::IdTriple;
    use hexastore::{Hexastore, IndexSet, PartialHexastore};

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    /// Chain: 1 -a-> 2 -b-> 3 -c-> 4; plus 5 -a-> 6 (dead end for b).
    fn chain() -> Hexastore {
        Hexastore::from_triples([t(1, 10, 2), t(2, 11, 3), t(3, 12, 4), t(5, 10, 6)])
    }

    #[test]
    fn empty_path_is_empty() {
        let h = chain();
        assert_eq!(follow_path(&h, &[]), PathResult::default());
        assert_eq!(follow_path_generic(&h, &[]), PathResult::default());
    }

    #[test]
    fn single_property_path_returns_its_objects() {
        let h = chain();
        let r = follow_path(&h, &[Id(10)]);
        assert_eq!(r.ends, vec![Id(2), Id(6)]);
        assert_eq!(r.stats, PathStats::default());
    }

    #[test]
    fn two_hop_path_uses_one_merge_join() {
        let h = chain();
        let r = follow_path(&h, &[Id(10), Id(11)]);
        assert_eq!(r.ends, vec![Id(3)]);
        assert_eq!(r.stats.merge_joins, 1);
        assert_eq!(r.stats.sort_merge_joins, 0);
    }

    #[test]
    fn three_hop_path_merge_then_sort_merge() {
        // §4.3: n−1 = 2 joins; the first is merge, the second sort-merge.
        let h = chain();
        let r = follow_path(&h, &[Id(10), Id(11), Id(12)]);
        assert_eq!(r.ends, vec![Id(4)]);
        assert_eq!(r.stats.merge_joins, 1);
        assert_eq!(r.stats.sort_merge_joins, 1);
    }

    #[test]
    fn generic_path_agrees_on_results_but_sorts_more() {
        let h = chain();
        let pso_pos = IndexSet::EMPTY.with(Pso).with(Pos);
        let partial = PartialHexastore::from_triples(pso_pos, h.matching(IdPattern::ALL));
        for props in [vec![Id(10)], vec![Id(10), Id(11)], vec![Id(10), Id(11), Id(12)]] {
            let fast = follow_path(&h, &props);
            assert_eq!(follow_path(&partial, &props), fast, "pso + pos alone: {props:?}");
            let slow = follow_path_generic(&h, &props);
            assert_eq!(fast.ends, slow.ends, "path {props:?}");
            // COVP-style plan sorts at least once per hop.
            assert!(slow.stats.sorts >= props.len());
        }
    }

    #[test]
    fn dead_end_path_is_empty() {
        let h = chain();
        let r = follow_path(&h, &[Id(11), Id(10)]);
        assert!(r.ends.is_empty());
    }

    #[test]
    fn transitive_closure_follows_chains() {
        // 1 -> 2 -> 3 -> 4, 1 -> 5, and a cycle 4 -> 1.
        let h = Hexastore::from_triples(
            [(1, 2), (2, 3), (3, 4), (1, 5), (4, 1)].map(|(s, o)| t(s, 7, o)),
        );
        let r = transitive_closure(&h, Id(1), Id(7));
        assert_eq!(r, vec![Id(1), Id(2), Id(3), Id(4), Id(5)]);
        assert_eq!(transitive_closure(&h, Id(5), Id(7)), Vec::<Id>::new());
    }

    #[test]
    fn path_pairs_groups_by_start() {
        // teacherOf: 1 -> c1, c2; takesCourse: 8 -> c1, 9 -> c1, 9 -> c2.
        let (teach, takes) = (20, 21);
        // Model "courses x is related to": start -teach-> mid <-takes- end
        // here path is teach/takenBy, so use takenBy edges mid -> person.
        let h = Hexastore::from_triples(
            [(1, teach, 100), (1, teach, 101), (100, takes, 8), (100, takes, 9), (101, takes, 9)]
                .map(|(s, p, o)| t(s, p, o)),
        );
        let grouped = path_pairs(&h, Id(teach), Id(takes));
        assert_eq!(grouped, vec![(Id(1), vec![Id(8), Id(9)])]);
    }
}
