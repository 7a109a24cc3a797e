//! BGP execution: selectivity-ordered index-nested joins, streamed.
//!
//! The executor evaluates one pattern at a time. For every partial binding
//! row it resolves the pattern to one of the eight access shapes and asks
//! the store for exactly the matching triples — on a Hexastore every such
//! request is a single index probe over sorted data, which is what turns
//! the first-step joins into merge joins. Join *order* is chosen greedily
//! by estimated cardinality (fewest expected matches first), the standard
//! strategy the paper assumes when it sketches per-query plans in §5.2 —
//! refined here to consult [`TripleStore::capabilities`] so stores with a
//! reduced index set (a [`hexastore::PartialHexastore`], the baselines)
//! are probed through the access shapes they actually serve.
//!
//! Evaluation itself is *lazy*: [`BgpCursor`] walks the join tree
//! depth-first and yields one binding row at a time through the stores'
//! [`TripleStore::iter_matching`] cursors, so a consumer that stops early
//! (ASK, LIMIT) never pays for the rows it does not read. It is the one
//! walk. A plan that opens with a merge group
//! ([`JoinStep::MergeIntersect`]) seeds its first level with the group's
//! intersected sorted lists instead of a store cursor. Every level writes
//! its bindings into one row in place, and backtracking clears them, so a
//! candidate triple that a repeated variable or a FILTER rejects costs no
//! copy. [`BgpCursor::planned`] builds the walk a plan's steps describe;
//! [`execute_bgp`] collects it.

use crate::algebra::{Bgp, Pattern, PatternTerm, VarId};
use hex_dict::{Id, IdTriple};
use hexastore::{access, DatasetStats, IndexKind, Shape, TripleIter, TripleStore};
use std::cmp::Ordering;

/// A set of binding rows; `None` marks an unbound slot.
pub type Rows = Vec<Vec<Option<Id>>>;

/// The join algorithm a plan step executes with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinStep {
    /// Index-nested: probe the store once per partial binding row — the
    /// default, and the only algorithm for steps that bind more than one
    /// position or run against a store without zero-copy sorted lists.
    NestedProbe,
    /// Member of a leading merge group: the step's pattern has exactly
    /// one variable (shared by the whole group) and two constants, and
    /// its sorted candidate list is intersected once with the other
    /// members' lists, which seed the first level of the
    /// [`BgpCursor`], instead of being re-probed per candidate.
    MergeIntersect,
}

/// One step of a compiled BGP plan: which pattern runs at this depth and
/// the cost annotations that ordered it.
#[derive(Clone, Copy, Debug)]
pub struct PlanStep {
    /// Index of the pattern in the source [`Bgp`].
    pub pattern: usize,
    /// The access shape the pattern presents to the store at execution
    /// time, counting variables bound by earlier steps.
    pub shape: Shape,
    /// Constants-only cardinality estimate (one `count_matching` probe).
    pub estimate: usize,
    /// The cost that ordered this step: `estimate` refined by the fan-out
    /// of variables bound by earlier steps when planning with
    /// [`DatasetStats`] (see [`plan_steps_with`]); exactly
    /// `estimate as f64` when planning without statistics.
    pub cost: f64,
    /// The index ordering that serves `shape` with a single probe, by the
    /// hexastore family's own routing rule ([`access::serving_kind`] on
    /// [`TripleStore::capabilities`]); `None` means the store must fall
    /// back to a filtered scan for this step.
    pub index: Option<IndexKind>,
    /// The join algorithm chosen for this step (see [`JoinStep`]).
    pub join: JoinStep,
}

impl PlanStep {
    /// Whether the step is a direct index probe (vs a filtered scan).
    pub fn indexed(&self) -> bool {
        self.index.is_some()
    }
}

/// Chooses the evaluation order and annotates each step, planning from
/// constants-only estimates (no statistics). See [`plan_steps_with`].
pub fn plan_steps(store: &dyn TripleStore, bgp: &Bgp) -> Vec<PlanStep> {
    plan_steps_with(store, bgp, None)
}

/// The cost of running `pat` next: its constants-only estimate, refined —
/// when statistics are available — by the fan-out of each variable
/// position that earlier steps have already bound. A bound subject slices
/// the match set to one subject's share (÷ distinct subjects, i.e. down
/// to the mean out-degree for an otherwise-open pattern), a bound object
/// to one object's share (mean in-degree), a bound predicate variable to
/// one property's share; per-property counts enter through the estimate
/// itself, which `count_matching` probed with the pattern's constants.
///
/// Patterns with a *constant* predicate divide by that property's own
/// distinct subject/object counts ([`DatasetStats::property_shape`])
/// rather than the global ones — the global divisor over-divides skewed
/// properties, making every bound join look uniformly cheap.
fn refined_cost(est: usize, pat: &Pattern, bound: &[bool], stats: Option<&DatasetStats>) -> f64 {
    let mut cost = est as f64;
    let Some(stats) = stats else { return cost };
    let (ds, dp, do_) = stats.distinct;
    // When the predicate is a constant, divide by *its* distinct
    // subject/object counts instead of the global ones: global distincts
    // assume every property reaches every resource, which over-divides
    // skewed properties (a near-functional property fans out by ~1 per
    // bound subject, not by 1/|subjects|-th of its cardinality).
    let (subj_distinct, obj_distinct) = match pat.p {
        PatternTerm::Const(p) => stats.property_shape(p).unwrap_or((ds, do_)),
        PatternTerm::Var(_) => (ds, do_),
    };
    for (term, distinct) in [(pat.s, subj_distinct), (pat.p, dp), (pat.o, obj_distinct)] {
        if let PatternTerm::Var(v) = term {
            if bound.get(v.index()).copied().unwrap_or(false) {
                cost /= distinct.max(1) as f64;
            }
        }
    }
    cost
}

/// Greedy selection key: servability first, then cost, then bound count.
/// With statistics absent, `cost` is the exact constants-only estimate
/// (every `usize` estimate is exactly representable as `f64` far beyond
/// realistic store sizes), so the order is identical to the pre-stats
/// planner.
fn key_cmp(a: (bool, f64, usize), b: (bool, f64, usize)) -> Ordering {
    a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2))
}

/// Chooses the evaluation order and annotates each step.
///
/// Greedy strategy: repeatedly pick the pattern whose access shape under
/// the current variable knowledge (a) is servable by one of the store's
/// surviving indices, (b) has the smallest cost, and (c) binds the most
/// positions — in that priority. The constants-only estimate of a pattern
/// never changes between greedy rounds, so it is probed exactly once per
/// pattern; with `stats`, each round *refines* that estimate by
/// bound-variable fan-out (see [`PlanStep::cost`]), which is what lets the
/// planner run a large-cardinality pattern early once a previous step has
/// pinned one of its variables (the star-join order the paper's plans
/// pick by hand). Without `stats` the order is exactly the constants-only
/// greedy order.
pub fn plan_steps_with(
    store: &dyn TripleStore,
    bgp: &Bgp,
    stats: Option<&DatasetStats>,
) -> Vec<PlanStep> {
    let caps = store.capabilities();
    let n = bgp.patterns.len();
    let const_row = vec![None; bgp.var_count()];
    let estimates: Vec<usize> =
        bgp.patterns.iter().map(|pat| store.count_matching(pat.access(&const_row))).collect();

    let mut remaining: Vec<usize> = (0..n).collect();
    let mut steps = Vec::with_capacity(n);
    // Track which variables become bound as patterns are chosen.
    let mut bound = vec![false; bgp.var_count()];

    while !remaining.is_empty() {
        // A pseudo-row where chosen-bound vars are "bound" with a
        // placeholder: shape computation only needs bound-ness.
        let shape_row: Vec<Option<Id>> =
            bound.iter().map(|&b| if b { Some(Id(0)) } else { None }).collect();
        let mut best: Option<(usize, (bool, f64, usize), Shape)> = None;
        for (pos, &pi) in remaining.iter().enumerate() {
            let pat = &bgp.patterns[pi];
            let shape = pat.access(&shape_row).shape();
            let cost = refined_cost(estimates[pi], pat, &bound, stats);
            let key = (!caps.serves(shape), cost, 3 - pat.bound_count(&shape_row));
            if best
                .as_ref()
                .is_none_or(|&(_, best_key, _)| key_cmp(key, best_key) == Ordering::Less)
            {
                best = Some((pos, key, shape));
            }
        }
        let (pos, (_, cost, _), shape) = best.expect("remaining is non-empty");
        let pi = remaining.swap_remove(pos);
        for v in bgp.patterns[pi].vars() {
            bound[v.index()] = true;
        }
        let index = access::serving_kind(shape, caps);
        steps.push(PlanStep {
            pattern: pi,
            shape,
            estimate: estimates[pi],
            cost,
            index,
            join: JoinStep::NestedProbe,
        });
    }
    annotate_merge_joins(store, bgp, &mut steps);
    steps
}

/// Smallest candidate-list size worth intersecting: below it the group's
/// per-candidate nested probes are already O(1)-ish and the historical
/// plan shape is kept. Once the first list clears this bar the merge
/// always wins — each intersection step is a couple of slice comparisons
/// (galloping past skew) against a boxed cursor allocation plus two
/// binary searches per nested probe — so the choice degenerates to this
/// threshold precisely *because* the planner knows every group list's
/// exact length: the per-pattern estimates are `count_matching` probes,
/// which for two-constant patterns return the terminal-list length
/// itself (the same quantity `DatasetStats::property_shapes` would
/// approximate from per-property distincts).
const MERGE_MIN_CANDIDATES: usize = 2;

/// If the pattern has exactly one variable position, returns it.
fn lone_var(pat: &Pattern) -> Option<VarId> {
    let mut var = None;
    for term in [pat.s, pat.p, pat.o] {
        if let PatternTerm::Var(v) = term {
            if var.replace(v).is_some() {
                return None;
            }
        }
    }
    var
}

/// Upgrades a group of single-variable, two-constant steps sharing one
/// variable to a merge-intersection join ([`JoinStep::MergeIntersect`])
/// when the store serves their sorted terminal lists zero-copy.
///
/// The group must contain the first step (whose cursor enumerates the
/// shared variable ascending); later members are regrouped directly
/// behind it, keeping their relative order. The regroup is row-sequence
/// preserving: after the first step binds the variable, every other
/// group member is a pure existence check — it binds nothing new — so
/// moving it earlier prunes sooner without reordering or changing the
/// produced rows. Byte-identity of merge vs nested execution of the
/// *same* steps then follows from the cursor-order invariant: the first
/// step's cursor yields the shared variable strictly ascending (each
/// matching triple differs only in the unbound position, and the serving
/// index lists bound positions first), which is exactly the order of the
/// intersected sorted lists.
fn annotate_merge_joins(store: &dyn TripleStore, bgp: &Bgp, steps: &mut Vec<PlanStep>) {
    let Some(sla) = store.sorted_lists() else { return };
    if steps.len() < 2 {
        return;
    }
    let empty = bgp.empty_row();
    let qualifies = |pi: usize| -> Option<VarId> {
        let pat = &bgp.patterns[pi];
        let v = lone_var(pat)?;
        sla.list(pat.access(&empty))?;
        Some(v)
    };
    let Some(v) = qualifies(steps[0].pattern) else { return };
    let in_group: Vec<bool> = steps.iter().map(|s| qualifies(s.pattern) == Some(v)).collect();
    let k = in_group.iter().filter(|&&b| b).count();
    if k < 2 {
        return;
    }
    let est_min =
        steps.iter().zip(&in_group).filter(|(_, &g)| g).map(|(s, _)| s.estimate).min().unwrap_or(0);
    if est_min < MERGE_MIN_CANDIDATES {
        return;
    }
    let mut grouped: Vec<PlanStep> = Vec::with_capacity(steps.len());
    for (s, &g) in steps.iter().zip(&in_group) {
        if g {
            let mut s = *s;
            s.join = JoinStep::MergeIntersect;
            grouped.push(s);
        }
    }
    for (s, &g) in steps.iter().zip(&in_group) {
        if !g {
            grouped.push(*s);
        }
    }
    *steps = grouped;
}

/// The length and shared variable of the leading merge group of `steps`,
/// if the planner compiled one (see `annotate_merge_joins`).
pub fn merge_group(bgp: &Bgp, steps: &[PlanStep]) -> Option<(usize, VarId)> {
    let k = steps.iter().take_while(|s| s.join == JoinStep::MergeIntersect).count();
    if k < 2 {
        return None;
    }
    lone_var(&bgp.patterns[steps[0].pattern]).map(|v| (k, v))
}

/// The intersected candidate list of a leading merge group: the values
/// of the shared variable satisfying every pattern of `group`, ascending.
/// `row` is the all-unbound binding row the patterns resolve against.
/// The lists are read in place — a packed run is decoded only as far as
/// [`hexastore::sorted::intersect_many`] walks or gallops through it.
/// `None` when the store cannot serve every group pattern's sorted list
/// — the runtime fallback that keeps a cached merge plan correct against
/// a store without the capability.
fn merge_candidates(
    store: &dyn TripleStore,
    group: &[Pattern],
    row: &[Option<Id>],
) -> Option<Vec<Id>> {
    let sla = store.sorted_lists()?;
    let lists: Option<Vec<access::List<'_>>> =
        group.iter().map(|pat| sla.list(pat.access(row))).collect();
    Some(hexastore::sorted::intersect_many(lists?))
}

/// Binds `pat`'s variables to `t`'s positions in `row`, pushing each
/// newly bound slot onto `trail`. Returns false when a variable repeated
/// within the pattern meets two different values; what it bound by then
/// stays on the trail, for the next backtrack to clear.
fn bind(row: &mut [Option<Id>], trail: &mut Vec<VarId>, pat: &Pattern, t: IdTriple) -> bool {
    for (term, value) in [(pat.s, t.s), (pat.p, t.p), (pat.o, t.o)] {
        if let PatternTerm::Var(v) = term {
            match row[v.index()] {
                Some(bound) if bound != value => return false,
                Some(_) => {}
                None => {
                    row[v.index()] = Some(value);
                    trail.push(v);
                }
            }
        }
    }
    true
}

/// A row predicate attached to one plan step, applied as soon as the
/// step's bindings are in the row — the hook FILTER pushdown uses.
pub type RowCheck<'a> = Box<dyn Fn(&[Option<Id>]) -> bool + 'a>;

/// One level of the in-flight walk: the triples feeding it and where
/// its bindings start on the trail.
struct Level<'a> {
    iter: TripleIter<'a>,
    /// The trail's length when the level was opened: the slots past it
    /// are the ones the level's current triple bound.
    mark: usize,
}

/// A lazy depth-first BGP evaluator — the one join walk.
///
/// Each level answers one plan step through a store cursor, except that
/// a seeded walk's first level answers a whole leading merge group from
/// its intersected candidates (see [`BgpCursor::planned`]). Every level
/// writes the variables it binds into one binding row in place and
/// records them on a trail; before a level moves to its next triple it
/// clears what the previous one bound. So a candidate that a repeated
/// variable or a check rejects costs no copy, and
/// [`BgpCursor::advance`] lends the row out instead of building one.
///
/// Each call resumes the walk exactly where the last row was produced;
/// dropping the cursor abandons the remaining work. This is what makes
/// ASK stop at the first solution and `LIMIT k` after `k`.
pub struct BgpCursor<'a> {
    store: &'a dyn TripleStore,
    /// Patterns in execution order.
    patterns: Vec<Pattern>,
    /// Row predicates, each with the step (0-based) it runs after.
    checks: Vec<(usize, RowCheck<'a>)>,
    /// How many leading steps the first level answers: the merge group's
    /// length in a seeded walk, else 1.
    group: usize,
    /// A seeded walk's candidates, until the first level takes them.
    candidates: Option<Vec<Id>>,
    /// The binding row every level writes in place.
    row: Vec<Option<Id>>,
    /// The slots bound so far, in binding order.
    trail: Vec<VarId>,
    stack: Vec<Level<'a>>,
    started: bool,
    /// LIMIT pushdown: stop the whole walk after this many rows.
    demand: Option<usize>,
    /// Rows produced so far (tracked only to honor `demand`).
    produced: usize,
}

impl<'a> BgpCursor<'a> {
    /// Creates a cursor evaluating `bgp`'s patterns in `order`, every
    /// step by nested probes.
    pub fn new(store: &'a dyn TripleStore, bgp: &Bgp, order: &[usize]) -> Self {
        assert_eq!(order.len(), bgp.patterns.len(), "order must cover every pattern");
        BgpCursor::nested(store, bgp, order.iter().map(|&i| bgp.patterns[i]).collect())
    }

    /// The walk `steps` describe: the one constructor behind
    /// [`crate::Plan::solutions`] and [`execute_bgp`].
    ///
    /// When the steps open with a merge group (see [`merge_group`]) and
    /// the store serves the group's sorted lists, the first level is
    /// seeded with their intersection and the walk goes on below the
    /// group; otherwise every step is a nested probe. Both produce the
    /// same rows in the same order: the group's first step enumerates
    /// the shared variable ascending (the cursor-order invariant), and
    /// the other members bind nothing new, so their conjunction is the
    /// sorted intersection. The capability is checked here, not at
    /// planning, so a cached merge plan rebound to a store without
    /// [`hexastore::SortedListAccess`] takes the nested walk.
    pub fn planned(store: &'a dyn TripleStore, bgp: &Bgp, steps: &[PlanStep]) -> Self {
        let mut cursor =
            BgpCursor::nested(store, bgp, steps.iter().map(|s| bgp.patterns[s.pattern]).collect());
        if let Some((group, _)) = merge_group(bgp, steps) {
            cursor.candidates = merge_candidates(store, &cursor.patterns[..group], &cursor.row);
            if cursor.candidates.is_some() {
                cursor.group = group;
            }
        }
        cursor
    }

    /// A walk over `patterns`, execution order, every step nested.
    fn nested(store: &'a dyn TripleStore, bgp: &Bgp, patterns: Vec<Pattern>) -> Self {
        BgpCursor {
            store,
            checks: Vec::new(),
            group: 1,
            candidates: None,
            row: bgp.empty_row(),
            trail: Vec::with_capacity(bgp.var_count()),
            stack: Vec::with_capacity(patterns.len()),
            patterns,
            started: false,
            demand: None,
            produced: 0,
        }
    }

    /// Attaches a predicate to the step at `depth` (0-based, execution
    /// order): rows failing it are pruned before deeper steps run. In a
    /// seeded walk, the checks of every group step run on each candidate.
    pub fn add_check(&mut self, depth: usize, check: RowCheck<'a>) {
        self.checks.push((depth, check));
    }

    /// Pushes a LIMIT into the join walk: once `demand` rows have been
    /// produced, the cursor stops expanding levels, drops its in-flight
    /// store iterators and answers `None` forever — so `LIMIT k` visits
    /// `O(k)` triples regardless of how many the BGP matches. Callers
    /// must only push a demand when every produced row will be consumed
    /// as-is (no downstream DISTINCT or filtering that would re-pull).
    pub fn set_demand(&mut self, demand: Option<usize>) {
        self.demand = demand;
    }

    /// Resumes the walk and lends out the next binding row, `None` once
    /// the walk is done. A slot no pattern binds stays `None`.
    pub fn advance(&mut self) -> Option<&[Option<Id>]> {
        if self.demand.is_some_and(|d| self.produced >= d) {
            // Demand met: abandon the walk eagerly (free the iterators).
            self.stack.clear();
            return None;
        }
        if !self.started {
            self.started = true;
            if self.patterns.is_empty() {
                // An empty BGP has exactly one solution: the empty row.
                self.produced += 1;
                return Some(&self.row);
            }
            self.descend();
        }
        while let Some(depth) = self.stack.len().checked_sub(1) {
            let level = &mut self.stack[depth];
            for v in self.trail.drain(level.mark..) {
                self.row[v.index()] = None;
            }
            let Some(t) = level.iter.next() else {
                self.stack.pop();
                continue;
            };
            // The level binds steps `first..last`: the whole group at the
            // first level of a seeded walk, one step everywhere else.
            let last = self.group + depth;
            let first = if depth == 0 { 0 } else { last - 1 };
            let pat = self.patterns[last - 1];
            if !bind(&mut self.row, &mut self.trail, &pat, t) {
                continue;
            }
            let row = &self.row;
            let mut checks = self.checks.iter().filter(|(step, _)| (first..last).contains(step));
            if !checks.all(|(_, check)| check(row)) {
                continue;
            }
            if last == self.patterns.len() {
                self.produced += 1;
                return Some(&self.row);
            }
            self.descend();
        }
        None
    }

    /// Opens the level below the deepest open one: the seeded first
    /// level, or a store cursor over the next step's pattern.
    fn descend(&mut self) {
        let pat = self.patterns[self.group + self.stack.len() - 1];
        let iter: TripleIter<'a> = match self.candidates.take() {
            // A candidate satisfies every group pattern; the triple it
            // makes of the last one binds the shared variable.
            Some(ids) => Box::new(ids.into_iter().map(move |id| {
                let at = |term: PatternTerm| term.as_const().unwrap_or(id);
                IdTriple::new(at(pat.s), at(pat.p), at(pat.o))
            })),
            None => self.store.iter_matching(pat.access(&self.row)),
        };
        self.stack.push(Level { iter, mark: self.trail.len() });
    }
}

/// Owned rows, for collecting: each is a copy of the lent one.
impl Iterator for BgpCursor<'_> {
    type Item = Vec<Option<Id>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.advance().map(<[_]>::to_vec)
    }
}

/// Evaluates a BGP as planned, merge group included, materializing all
/// binding rows.
pub fn execute_bgp(store: &dyn TripleStore, bgp: &Bgp) -> Rows {
    BgpCursor::planned(store, bgp, &plan_steps(store, bgp)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::Counting;
    use hexastore::{Hexastore, IdPattern};

    /// Projects rows onto chosen variable slots, dropping rows where a
    /// projected slot is unbound.
    fn project(rows: &Rows, slots: &[VarId]) -> Vec<Vec<Id>> {
        rows.iter()
            .filter_map(|row| slots.iter().map(|v| row[v.index()]).collect::<Option<Vec<Id>>>())
            .collect()
    }

    /// Sorts and deduplicates projected rows.
    fn distinct(mut rows: Vec<Vec<Id>>) -> Vec<Vec<Id>> {
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// The pattern indices of `steps`, in execution order.
    fn order_of(steps: &[PlanStep]) -> Vec<usize> {
        steps.iter().map(|s| s.pattern).collect()
    }

    /// Evaluates `bgp` with an explicit pattern order.
    fn run_in_order(store: &dyn TripleStore, bgp: &Bgp, order: &[usize]) -> Rows {
        BgpCursor::new(store, bgp, order).collect()
    }

    fn c(v: u32) -> PatternTerm {
        PatternTerm::Const(Id(v))
    }

    fn v(i: u16) -> PatternTerm {
        PatternTerm::Var(VarId(i))
    }

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    /// advisor = 100, worksFor = 101, type = 102; people 1..6, MIT = 50,
    /// Prof = 60.
    fn academic() -> Hexastore {
        Hexastore::from_triples([
            t(1, 102, 60), // 1 type Prof
            t(2, 102, 60), // 2 type Prof
            t(3, 100, 1),  // 3 advisor 1
            t(4, 100, 1),  // 4 advisor 1
            t(5, 100, 2),  // 5 advisor 2
            t(1, 101, 50), // 1 worksFor MIT
            t(2, 101, 51), // 2 worksFor elsewhere
        ])
    }

    #[test]
    fn single_pattern_selection() {
        let store = academic();
        let bgp = Bgp::new(vec![Pattern::new(v(0), c(100), c(1))]);
        let rows = execute_bgp(&store, &bgp);
        let got = distinct(project(&rows, &[VarId(0)]));
        assert_eq!(got, vec![vec![Id(3)], vec![Id(4)]]);
    }

    #[test]
    fn two_pattern_join() {
        // Students whose advisor works for MIT.
        let store = academic();
        let bgp =
            Bgp::new(vec![Pattern::new(v(0), c(100), v(1)), Pattern::new(v(1), c(101), c(50))]);
        let rows = execute_bgp(&store, &bgp);
        let got = distinct(project(&rows, &[VarId(0)]));
        assert_eq!(got, vec![vec![Id(3)], vec![Id(4)]]);
    }

    #[test]
    fn join_order_does_not_change_results() {
        let store = academic();
        let bgp = Bgp::new(vec![
            Pattern::new(v(0), c(100), v(1)),
            Pattern::new(v(1), c(102), c(60)),
            Pattern::new(v(1), c(101), v(2)),
        ]);
        let reference = {
            let mut r = run_in_order(&store, &bgp, &[0, 1, 2]);
            r.sort();
            r
        };
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let mut rows = run_in_order(&store, &bgp, &order);
            rows.sort();
            assert_eq!(rows, reference, "order {order:?}");
        }
        let mut planned = execute_bgp(&store, &bgp);
        planned.sort();
        assert_eq!(planned, reference);
    }

    #[test]
    fn repeated_variable_within_pattern() {
        // ?x ?p ?x — self-loops only.
        let mut store = academic().thaw();
        store.insert(t(7, 100, 7));
        let bgp = Bgp::new(vec![Pattern::new(v(0), v(1), v(0))]);
        let rows = execute_bgp(&store, &bgp);
        let got = distinct(project(&rows, &[VarId(0)]));
        assert_eq!(got, vec![vec![Id(7)]]);
    }

    #[test]
    fn unbound_property_join_across_patterns() {
        // Figure 1(b) lower query: people related to 51 the same way 1 is
        // related to 50. 1 -worksFor-> 50, so find ?b with ?b -worksFor-> 51.
        let store = academic();
        let bgp = Bgp::new(vec![Pattern::new(c(1), v(0), c(50)), Pattern::new(v(1), v(0), c(51))]);
        let rows = execute_bgp(&store, &bgp);
        let got = distinct(project(&rows, &[VarId(1)]));
        assert_eq!(got, vec![vec![Id(2)]]);
    }

    #[test]
    fn empty_result_short_circuits() {
        let store = academic();
        let bgp = Bgp::new(vec![
            Pattern::new(v(0), c(100), c(999)), // nothing
            Pattern::new(v(0), c(102), c(60)),
        ]);
        assert!(execute_bgp(&store, &bgp).is_empty());
    }

    #[test]
    fn empty_bgp_yields_one_empty_row() {
        let store = academic();
        let bgp = Bgp::new(vec![]);
        assert_eq!(execute_bgp(&store, &bgp), vec![Vec::<Option<Id>>::new()]);
    }

    #[test]
    fn projection_drops_rows_with_unbound_slots() {
        let rows: Rows = vec![vec![Some(Id(1)), None], vec![Some(Id(2)), Some(Id(3))]];
        let projected = project(&rows, &[VarId(0), VarId(1)]);
        assert_eq!(projected, vec![vec![Id(2), Id(3)]]);
    }

    #[test]
    fn planner_prefers_selective_patterns() {
        let store = academic();
        // (?, 102, 60) matches 2; (?, 100, ?) matches 3 — expect the type
        // pattern first.
        let bgp =
            Bgp::new(vec![Pattern::new(v(0), c(100), v(1)), Pattern::new(v(1), c(102), c(60))]);
        assert_eq!(plan_steps(&store, &bgp)[0].pattern, 1);
    }

    #[test]
    fn plan_steps_annotate_shapes_and_indices() {
        let store = academic();
        let bgp =
            Bgp::new(vec![Pattern::new(v(0), c(100), v(1)), Pattern::new(v(1), c(102), c(60))]);
        let steps = plan_steps(&store, &bgp);
        assert_eq!(steps.len(), 2);
        // Step 1: (?, 102, 60) — a po probe via the pos index.
        assert_eq!(steps[0].pattern, 1);
        assert_eq!(steps[0].shape, Shape::Po);
        assert_eq!(steps[0].index, Some(IndexKind::Pos));
        assert_eq!(steps[0].estimate, 2);
        // Step 2: ?1 is bound by then, so (?, 100, ?1) presents po too.
        assert_eq!(steps[1].pattern, 0);
        assert_eq!(steps[1].shape, Shape::Po);
        assert!(steps[1].indexed());
    }

    #[test]
    fn plan_steps_respect_restricted_capabilities() {
        // A store keeping only {spo, pos}: the planner must route every
        // step through a servable shape when the query allows it.
        let triples: Vec<IdTriple> = academic().matching(IdPattern::ALL);
        let partial = hexastore::PartialHexastore::from_triples(
            hexastore::IndexSet::EMPTY.with(IndexKind::Spo).with(IndexKind::Pos),
            triples,
        );
        let bgp =
            Bgp::new(vec![Pattern::new(v(0), c(100), v(1)), Pattern::new(v(1), c(101), c(50))]);
        let steps = plan_steps(&partial, &bgp);
        assert!(steps.iter().all(PlanStep::indexed), "all steps servable: {steps:?}");
        // And execution agrees with the full store.
        let mut got = execute_bgp(&partial, &bgp);
        got.sort();
        let mut expected = execute_bgp(&academic(), &bgp);
        expected.sort();
        assert_eq!(got, expected);
    }

    /// A star-join where the constants-only greedy order is wrong: after
    /// the tiny professor-type step binds `?y`, the advisor pattern is
    /// the cheap continuation (its object is pinned), but its raw
    /// estimate is the largest of the three, so the stats-free planner
    /// defers it and pays a cross-product with the student-type pattern.
    fn star_join() -> (Hexastore, Bgp) {
        let mut triples = Vec::new();
        for s in 0..50u32 {
            triples.push(t(s, 102, 60)); // students typed 60
            triples.push(t(s, 100, 1000 + s % 5)); // advisor edges
            triples.push(t(s, 101, 2000 + s)); // extra advisor-prop fanout
        }
        for prof in 1000..1005u32 {
            triples.push(t(prof, 102, 61)); // professors typed 61
        }
        let store = Hexastore::from_triples(triples);
        let bgp = Bgp::new(vec![
            Pattern::new(v(0), c(102), c(60)), // ?s type Student  (est 50)
            Pattern::new(v(0), c(100), v(1)),  // ?s advisor ?y    (est 50)
            Pattern::new(v(1), c(102), c(61)), // ?y type Prof     (est 5)
        ]);
        (store, bgp)
    }

    #[test]
    fn stats_refine_flips_the_star_join_order() {
        let (store, bgp) = star_join();
        let stats = hexastore::DatasetStats::compute(&store);

        let plain = plan_steps(&store, &bgp);
        let refined = plan_steps_with(&store, &bgp, Some(&stats));
        // Both start with the most selective pattern (?y type Prof).
        assert_eq!(plain[0].pattern, 2);
        assert_eq!(refined[0].pattern, 2);
        // Constants-only continues with the student-type pattern (est 50
        // equals the advisor estimate, and neither is refined); stats
        // sees the advisor pattern's bound object and runs it second.
        assert_eq!(plain[1].pattern, 0, "{plain:?}");
        assert_eq!(refined[1].pattern, 1, "{refined:?}");
        assert!(refined[1].cost < refined[1].estimate as f64);
        // Without stats, cost mirrors the estimate exactly.
        for step in &plain {
            assert_eq!(step.cost, step.estimate as f64);
        }
        // Both orders produce the same rows.
        let mut a = run_in_order(&store, &bgp, &order_of(&plain));
        let mut b = run_in_order(&store, &bgp, &order_of(&refined));
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn per_property_distincts_sharpen_the_refined_cost() {
        let (store, _) = star_join();
        let stats = hexastore::DatasetStats::compute(&store);
        // The advisor property (100) reaches only 5 distinct objects
        // (the professors), far fewer than the global distinct-object
        // count, which also spans types and the 2000.. fanout objects.
        let (_, advisor_objs) = stats.property_shape(hex_dict::Id(100)).unwrap();
        assert_eq!(advisor_objs, 5);
        assert!(stats.distinct.2 > advisor_objs);

        // (?s advisor ?y) with ?y bound: the fan-in divisor must be the
        // advisor property's 5 distinct objects, not the global count.
        let pat = Pattern::new(v(0), c(100), v(1));
        let bound = vec![false, true];
        let cost = refined_cost(50, &pat, &bound, Some(&stats));
        assert!((cost - 50.0 / 5.0).abs() < 1e-9, "got {cost}");

        // A variable predicate still falls back to the global divisors.
        let open = Pattern::new(v(0), v(2), v(1));
        let open_cost = refined_cost(50, &open, &bound, Some(&stats));
        assert!((open_cost - 50.0 / stats.distinct.2 as f64).abs() < 1e-9, "got {open_cost}");
    }

    #[test]
    fn stats_none_is_identical_to_plain_planning() {
        let (store, bgp) = star_join();
        let plain = plan_steps(&store, &bgp);
        let with_none = plan_steps_with(&store, &bgp, None);
        let a: Vec<usize> = plain.iter().map(|s| s.pattern).collect();
        let b: Vec<usize> = with_none.iter().map(|s| s.pattern).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn cursor_stops_pulling_when_dropped_early() {
        // 1000 advisor triples; taking one row must not visit them all.
        let store = Hexastore::from_triples((0..1000).map(|i| t(i, 100, i + 1000)));
        let counting = Counting::new(&store);
        let bgp = Bgp::new(vec![Pattern::new(v(0), c(100), v(1))]);
        let mut cursor = BgpCursor::new(&counting, &bgp, &[0]);
        assert!(cursor.next().is_some());
        assert!(counting.yielded() <= 2, "one row pulled, {} triples visited", counting.yielded());
        drop(cursor);
        assert!(counting.yielded() <= 2);
    }

    #[test]
    fn demand_stops_the_walk_and_frees_iterators() {
        let store = Hexastore::from_triples((0..1000).map(|i| t(i, 100, i + 1000)));
        let counting = Counting::new(&store);
        let bgp = Bgp::new(vec![Pattern::new(v(0), c(100), v(1))]);
        let mut cursor = BgpCursor::new(&counting, &bgp, &[0]);
        cursor.set_demand(Some(3));
        let rows: Rows = cursor.collect();
        assert_eq!(rows.len(), 3, "demand caps the row count");
        assert!(
            counting.yielded() <= 4,
            "demand 3 visited {} of 1000 triples; must be O(demand)",
            counting.yielded()
        );
    }

    #[test]
    fn cursor_checks_prune_before_deeper_steps() {
        let store = academic();
        // advisors pattern first, then worksFor; prune ?1 != 1 at depth 0.
        let bgp =
            Bgp::new(vec![Pattern::new(v(0), c(100), v(1)), Pattern::new(v(1), c(101), v(2))]);
        let mut cursor = BgpCursor::new(&store, &bgp, &[0, 1]);
        cursor.add_check(0, Box::new(|row| row[1] == Some(Id(1))));
        let rows: Rows = cursor.collect();
        // Only students advised by 1 survive: 3 and 4, joined to MIT.
        let got = distinct(project(&rows, &[VarId(0)]));
        assert_eq!(got, vec![vec![Id(3)], vec![Id(4)]]);
    }

    /// Star data for merge-join tests: evens carry (s,201,8), multiples
    /// of 3 carry (s,202,9), everyone fans out via (s,300,1000+s%4).
    fn merge_star() -> Hexastore {
        let mut triples = Vec::new();
        for s in 0..60u32 {
            if s % 2 == 0 {
                triples.push(t(s, 201, 8));
            }
            if s % 3 == 0 {
                triples.push(t(s, 202, 9));
            }
            triples.push(t(s, 300, 1000 + s % 4));
        }
        Hexastore::from_triples(triples)
    }

    /// `?x <201> 8 . ?x <202> 9 . ?x <300> ?y` — two mergeable patterns
    /// sharing `?x`, plus a tail pattern binding `?y`.
    fn merge_star_bgp() -> Bgp {
        Bgp::new(vec![
            Pattern::new(v(0), c(201), c(8)),
            Pattern::new(v(0), c(202), c(9)),
            Pattern::new(v(0), c(300), v(1)),
        ])
    }

    #[test]
    fn planner_compiles_a_leading_merge_group() {
        let store = merge_star();
        let bgp = merge_star_bgp();
        let steps = plan_steps(&store, &bgp);
        assert_eq!(steps[0].join, JoinStep::MergeIntersect, "{steps:?}");
        assert_eq!(steps[1].join, JoinStep::MergeIntersect, "{steps:?}");
        assert_eq!(steps[2].join, JoinStep::NestedProbe, "{steps:?}");
        // Most selective group member first (202: 20 < 201: 30), tail last.
        assert_eq!(steps[0].pattern, 1);
        assert_eq!(steps[1].pattern, 0);
        assert_eq!(steps[2].pattern, 2);
        assert_eq!(merge_group(&bgp, &steps), Some((2, VarId(0))));
    }

    #[test]
    fn merge_group_regroups_interleaved_members_behind_the_first() {
        // A non-mergeable pattern whose estimate (25) falls between the
        // group members' (20 and 30): the greedy order interleaves it;
        // annotation pulls the group members together at the front.
        let tail = (0..25u32).map(|i| t(5000 + i, 400, 7000 + i));
        let store = Hexastore::from_triples(merge_star().iter_matching(IdPattern::ALL).chain(tail));
        let bgp = Bgp::new(vec![
            Pattern::new(v(0), c(201), c(8)),
            Pattern::new(v(2), c(400), v(1)),
            Pattern::new(v(0), c(202), c(9)),
        ]);
        let steps = plan_steps(&store, &bgp);
        let (group, var) = merge_group(&bgp, &steps).unwrap_or_else(|| panic!("{steps:?}"));
        assert_eq!((group, var), (2, VarId(0)));
        assert_eq!(steps[0].pattern, 2, "most selective group member first");
        assert_eq!(steps[1].pattern, 0, "second member regrouped behind it");
        assert_eq!(steps[2].pattern, 1, "interloper pushed past the group");
        assert_eq!(steps[2].join, JoinStep::NestedProbe);
    }

    /// The patterns of `steps`, in execution order.
    fn patterns_of(bgp: &Bgp, steps: &[PlanStep]) -> Vec<Pattern> {
        steps.iter().map(|s| bgp.patterns[s.pattern]).collect()
    }

    /// The planned walk of `steps`, asserting its first level is seeded.
    fn seeded<'a>(store: &'a dyn TripleStore, bgp: &Bgp, steps: &[PlanStep]) -> BgpCursor<'a> {
        let cursor = BgpCursor::planned(store, bgp, steps);
        assert!(cursor.group > 1 && cursor.candidates.is_some(), "{steps:?}");
        cursor
    }

    #[test]
    fn merge_candidates_are_the_ascending_intersection() {
        let store = merge_star();
        let bgp = merge_star_bgp();
        let steps = plan_steps(&store, &bgp);
        let group = &patterns_of(&bgp, &steps)[..2];
        let cands = merge_candidates(&store, group, &bgp.empty_row()).unwrap();
        let expected: Vec<Id> = (0..60).filter(|s| s % 6 == 0).map(Id).collect();
        assert_eq!(cands, expected);
    }

    #[test]
    fn merge_cursor_is_byte_identical_to_the_nested_walk() {
        let store = merge_star();
        let bgp = merge_star_bgp();
        let steps = plan_steps(&store, &bgp);
        let merged: Rows = seeded(&store, &bgp, &steps).collect();
        let nested: Rows = BgpCursor::new(&store, &bgp, &order_of(&steps)).collect();
        assert_eq!(merged, nested, "row-for-row, order included");
        assert_eq!(merged.len(), 10);
    }

    #[test]
    fn merge_cursor_with_all_patterns_in_the_group() {
        let store = merge_star();
        let bgp =
            Bgp::new(vec![Pattern::new(v(0), c(201), c(8)), Pattern::new(v(0), c(202), c(9))]);
        let steps = plan_steps(&store, &bgp);
        assert_eq!(merge_group(&bgp, &steps).map(|(group, _)| group), Some(2), "no tail");
        let merged: Rows = seeded(&store, &bgp, &steps).collect();
        let nested: Rows = BgpCursor::new(&store, &bgp, &order_of(&steps)).collect();
        assert_eq!(merged, nested);
        assert_eq!(merged.len(), 10);
    }

    #[test]
    fn merge_cursor_honors_checks_at_group_and_tail_depths() {
        let store = merge_star();
        let bgp = merge_star_bgp();
        let steps = plan_steps(&store, &bgp);
        let build = |with_checks: bool| -> (Rows, Rows) {
            let mut mc = seeded(&store, &bgp, &steps);
            let mut bc = BgpCursor::new(&store, &bgp, &order_of(&steps));
            if with_checks {
                // Group-depth check reads only the shared variable; the
                // tail-depth check reads the tail binding.
                mc.add_check(0, Box::new(|row| row[0] != Some(Id(0))));
                bc.add_check(0, Box::new(|row| row[0] != Some(Id(0))));
                mc.add_check(2, Box::new(|row| row[1] == Some(Id(1000))));
                bc.add_check(2, Box::new(|row| row[1] == Some(Id(1000))));
            }
            (mc.collect(), bc.collect())
        };
        let (merged, nested) = build(true);
        assert_eq!(merged, nested);
        let (unchecked, _) = build(false);
        assert!(merged.len() < unchecked.len(), "checks pruned something");
    }

    #[test]
    fn merge_cursor_demand_stops_the_walk() {
        let store = merge_star();
        let counting = Counting::new(&store);
        let bgp = merge_star_bgp();
        // The wrapper forwards the sorted lists, which it does not count,
        // so what it counts is the tail's triples.
        let steps = plan_steps(&store, &bgp);
        let mut cursor = seeded(&counting, &bgp, &steps);
        cursor.set_demand(Some(3));
        let rows: Rows = cursor.collect();
        assert_eq!(rows.len(), 3);
        assert!(
            counting.yielded() <= 4,
            "demand 3 visited {} tail triples; must be O(demand)",
            counting.yielded()
        );
    }

    #[test]
    fn no_merge_group_without_sorted_list_capability() {
        // An overlay's logical lists are merges of base and delta, so it
        // keeps the default `sorted_lists() == None` (and the wrapper
        // forwards that): planning through it must stay fully nested.
        let store = merge_star();
        let layered = store.clone().thaw();
        let counting = Counting::new(&layered);
        let bgp = merge_star_bgp();
        let steps = plan_steps(&counting, &bgp);
        assert!(steps.iter().all(|s| s.join == JoinStep::NestedProbe), "{steps:?}");
        assert_eq!(merge_group(&bgp, &steps), None);
        // And the runtime fallback: a merge-annotated plan's candidates
        // cannot be served by this store, so its walk runs nested.
        let merge_steps = plan_steps(&store, &bgp);
        let group = &patterns_of(&bgp, &merge_steps)[..2];
        assert_eq!(merge_candidates(&counting, group, &bgp.empty_row()), None);
        let fallback = BgpCursor::planned(&counting, &bgp, &merge_steps);
        assert_eq!(fallback.group, 1);
        let nested: Rows = BgpCursor::new(&store, &bgp, &order_of(&merge_steps)).collect();
        assert_eq!(fallback.collect::<Rows>(), nested);
    }

    #[test]
    fn a_rejected_candidate_leaves_no_binding_behind() {
        // (?x, 201, ?x) first binds ?x to the subject, then meets a
        // different object: the walk must clear that ?x before the next
        // triple, or the self-loops after it would conflict with it.
        let store =
            Hexastore::from_triples([t(1, 201, 2), t(3, 201, 3), t(4, 201, 5), t(6, 201, 6)]);
        let bgp =
            Bgp::new(vec![Pattern::new(v(0), c(201), v(0)), Pattern::new(v(1), c(201), v(2))]);
        let mut cursor = BgpCursor::new(&store, &bgp, &[0, 1]);
        cursor.add_check(1, Box::new(|row| row[1] == Some(Id(1))));
        let mut rows = Vec::new();
        while let Some(row) = cursor.advance() {
            rows.push(row.to_vec());
        }
        let some = |ids: [u32; 3]| ids.map(|i| Some(Id(i))).to_vec();
        assert_eq!(rows, vec![some([3, 1, 2]), some([6, 1, 2])]);
    }

    #[test]
    fn tiny_groups_stay_nested() {
        // est_min below MERGE_MIN_CANDIDATES: one subject carries both
        // marks, so the most selective list has a single entry and the
        // nested probe is kept.
        let store = Hexastore::from_triples([t(5, 201, 8), t(5, 202, 9), t(6, 201, 8)]);
        let bgp =
            Bgp::new(vec![Pattern::new(v(0), c(201), c(8)), Pattern::new(v(0), c(202), c(9))]);
        let steps = plan_steps(&store, &bgp);
        assert!(steps.iter().all(|s| s.join == JoinStep::NestedProbe), "{steps:?}");
    }

    #[test]
    fn repeated_variable_patterns_never_merge() {
        // (?x, 201, ?x) has two variable *positions*: not a terminal
        // list over one variable, so it must not join a merge group.
        let store = Hexastore::from_triples([t(8, 201, 8), t(9, 201, 9), t(8, 202, 9)]);
        let bgp =
            Bgp::new(vec![Pattern::new(v(0), c(201), v(0)), Pattern::new(v(0), c(202), c(9))]);
        let steps = plan_steps(&store, &bgp);
        assert_eq!(merge_group(&bgp, &steps), None);
        // Still correct: self-loop 8 advised... joined with (8,202,9).
        let rows = execute_bgp(&store, &bgp);
        assert_eq!(distinct(project(&rows, &[VarId(0)])), vec![vec![Id(8)]]);
    }
}
