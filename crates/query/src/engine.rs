//! String-level query processing: parse → compile against a dictionary →
//! prepare an index-aware [`Plan`] → stream [`Solutions`] from any
//! [`TripleStore`].
//!
//! Text comes in through [`prepare_on`], [`DatasetQuery`] or a
//! [`PlanCache`]; a programmatically built [`CompiledQuery`] through
//! [`Plan::from_compiled`]. Preparation compiles the query, orders the
//! joins around the store's [`TripleStore::capabilities`], pushes every
//! FILTER down to the earliest step where its operands are bound, and
//! returns a [`Plan`] whose [`Plan::explain`] renders the chosen steps.
//! There is one executor: [`Plan::solutions`] lazily streams decoded rows
//! — ASK stops at the first solution, `LIMIT k` after `offset + k` — and
//! [`Plan::run`] collects it.

use crate::algebra::{Bgp, Pattern, PatternTerm, VarId};
use crate::exec::{self, PlanStep};
use crate::parser::{parse_query, FilterOp, FilterOperand, ParseError, ParsedQuery};
use hex_dict::{Dictionary, Id};
use hexastore::{Dataset, DatasetStats, Shape, TripleStore};
use rdf_model::{Term, TermPattern};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fmt::Write as _;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use std::sync::Arc;

/// A query result: projected variable names and rows of terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultSet {
    /// Projected variable names.
    pub vars: Vec<String>,
    /// Result rows, one term per projected variable.
    pub rows: Vec<Vec<Term>>,
}

/// A TSV cell being written into the table: backslash, tab, newline and
/// carriage return become `\\`, `\t`, `\n`, `\r` on their way in, so
/// embedded separators cannot corrupt the table.
struct TsvCell<'a>(&'a mut String);

impl fmt::Write for TsvCell<'_> {
    fn write_str(&mut self, mut text: &str) -> fmt::Result {
        // Every special character is ASCII, so each cut is on a boundary.
        while let Some(at) = text.bytes().position(|b| matches!(b, b'\\' | b'\t' | b'\n' | b'\r')) {
            self.0.push_str(&text[..at]);
            self.0.push_str(match text.as_bytes()[at] {
                b'\\' => "\\\\",
                b'\t' => "\\t",
                b'\n' => "\\n",
                _ => "\\r",
            });
            text = &text[at + 1..];
        }
        self.0.push_str(text);
        Ok(())
    }
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// A tab-separated rendering with a header line. Cell contents are
    /// escaped (`\t`, `\n`, `\r`, `\\`) so literals containing separators
    /// round-trip one row per line. Each cell's N-Triples form is written
    /// and escaped straight into the output.
    pub fn to_tsv(&self) -> String {
        fn line<T: fmt::Display>(out: &mut String, cells: &[T]) {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push('\t');
                }
                write!(TsvCell(&mut *out), "{cell}").expect("writing to a String cannot fail");
            }
            out.push('\n');
        }
        let mut out = String::new();
        line(&mut out, &self.vars);
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Errors from parsing or executing a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The query text failed to parse.
    Parse(ParseError),
    /// A projected variable does not occur in any pattern.
    UnknownVariable(String),
    /// The query names more distinct variables than a binding row has
    /// slots (65,535).
    TooManyVariables,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => e.fmt(f),
            QueryError::UnknownVariable(v) => {
                write!(f, "projected variable ?{v} does not occur in the pattern")
            }
            QueryError::TooManyVariables => {
                write!(f, "the query uses more than {} distinct variables", u16::MAX)
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}

/// A compiled query: id-level BGP plus the projection slots.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    /// The id-level BGP. `None` when a constant term was never interned —
    /// the result is statically empty.
    pub bgp: Option<Bgp>,
    /// Slot of each projected variable; [`CompiledQuery::vars`] names
    /// them.
    pub slots: Box<[VarId]>,
    /// Every variable's name, indexed by slot.
    pub var_names: VarNames,
    /// Whether to deduplicate rows.
    pub distinct: bool,
    /// Compiled FILTER constraints.
    pub filters: Box<[CompiledFilter]>,
    /// True for ASK queries (existence check).
    pub ask: bool,
    /// LIMIT solution modifier.
    pub limit: Option<usize>,
    /// OFFSET solution modifier.
    pub offset: usize,
}

impl CompiledQuery {
    /// The projected variable names, one per entry of `slots` (none for
    /// ASK). A slot without a name is `""`.
    pub fn vars(&self) -> impl Iterator<Item = &str> + '_ {
        self.slots.iter().map(|&v| self.var_names.get(v).unwrap_or_default())
    }
}

/// Variable names indexed by slot, held in one allocation: each name is
/// written as its length in bytes, a `:` and the name itself, so any
/// name round-trips.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarNames(Box<str>);

impl VarNames {
    /// The names in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        let mut rest = &*self.0;
        std::iter::from_fn(move || {
            let (len, tail) = rest.split_once(':')?;
            let (name, next) = tail.split_at(len.parse().ok()?);
            rest = next;
            Some(name)
        })
    }

    /// The name of slot `v`, if it has one.
    pub fn get(&self, v: VarId) -> Option<&str> {
        self.iter().nth(v.index())
    }
}

impl<S: AsRef<str>> FromIterator<S> for VarNames {
    fn from_iter<I: IntoIterator<Item = S>>(names: I) -> Self {
        let mut text = String::new();
        for name in names {
            let name = name.as_ref();
            let _ = write!(text, "{}:{name}", name.len());
        }
        VarNames(text.into_boxed_str())
    }
}

/// One side of a compiled FILTER comparison.
#[derive(Clone, Copy, Debug)]
pub enum FilterSide {
    /// A binding-row slot.
    Slot(VarId),
    /// A dictionary-resolved constant.
    Known(hex_dict::Id),
    /// A constant that is not in the dictionary: it equals nothing stored.
    Unknown,
}

/// An id-level FILTER constraint.
#[derive(Clone, Copy, Debug)]
pub struct CompiledFilter {
    /// Left side.
    pub left: FilterSide,
    /// Operator.
    pub op: FilterOp,
    /// Right side.
    pub right: FilterSide,
}

impl CompiledFilter {
    /// Evaluates against a binding row. Rows with an unbound filtered
    /// variable are rejected (SPARQL: an error, treated as false).
    pub(crate) fn accepts(&self, row: &[Option<hex_dict::Id>]) -> bool {
        let resolve = |side: FilterSide| -> Option<Option<hex_dict::Id>> {
            match side {
                // Unbound slot → SPARQL error semantics → reject the row.
                FilterSide::Slot(v) => row[v.index()].map(Some),
                FilterSide::Known(id) => Some(Some(id)),
                FilterSide::Unknown => Some(None),
            }
        };
        let (Some(l), Some(r)) = (resolve(self.left), resolve(self.right)) else {
            return false;
        };
        // `None` = a term outside the dictionary: unequal to everything
        // stored. Two `None`s meet only as `compile`'s encoding of a false
        // constant–constant comparison, which it decides on the terms.
        let equal = matches!((l, r), (Some(a), Some(b)) if a == b);
        match self.op {
            FilterOp::Eq => equal,
            FilterOp::Ne => !equal,
        }
    }

    /// The binding-row slots this filter reads.
    fn slots(&self) -> impl Iterator<Item = VarId> {
        [self.left, self.right].into_iter().filter_map(|side| match side {
            FilterSide::Slot(v) => Some(v),
            _ => None,
        })
    }
}

/// Compiles a parsed query against a dictionary (read-only: unknown
/// constants make the query statically empty rather than interning).
pub fn compile(parsed: &ParsedQuery, dict: &Dictionary) -> Result<CompiledQuery, QueryError> {
    let mut slot_of: HashMap<String, VarId> = HashMap::new();
    let slot = |name: &str, slot_of: &mut HashMap<String, VarId>| -> Result<VarId, QueryError> {
        if let Some(&v) = slot_of.get(name) {
            return Ok(v);
        }
        // A binding row has at most `u16::MAX` slots, so the last slot is
        // `u16::MAX - 1`.
        let v = u16::try_from(slot_of.len())
            .ok()
            .filter(|&next| next < u16::MAX)
            .ok_or(QueryError::TooManyVariables)?;
        slot_of.insert(name.to_string(), VarId(v));
        Ok(VarId(v))
    };

    let mut patterns = Vec::with_capacity(parsed.patterns.len());
    let mut unknown_constant = false;
    for pat in &parsed.patterns {
        let mut pos = |tp: &TermPattern,
                       slot_of: &mut HashMap<String, VarId>|
         -> Result<PatternTerm, QueryError> {
            Ok(match tp {
                TermPattern::Var(name) => PatternTerm::Var(slot(name, slot_of)?),
                TermPattern::Bound(term) => match dict.id_of(term) {
                    Some(id) => PatternTerm::Const(id),
                    None => {
                        unknown_constant = true;
                        PatternTerm::Const(hex_dict::Id(u32::MAX))
                    }
                },
            })
        };
        let s = pos(&pat.subject, &mut slot_of)?;
        let p = pos(&pat.predicate, &mut slot_of)?;
        let o = pos(&pat.object, &mut slot_of)?;
        patterns.push(Pattern::new(s, p, o));
    }

    let mut filters = Vec::with_capacity(parsed.filters.len());
    for fexpr in &parsed.filters {
        if let (FilterOperand::Term(a), FilterOperand::Term(b)) = (&fexpr.left, &fexpr.right) {
            // Two constants are compared as terms, here: ids cannot decide
            // it, because two terms the dictionary has never seen both
            // become `Unknown`, which equals nothing — itself included.
            // A true comparison constrains nothing; a false one is
            // recorded as `Unknown = Unknown`, false on every row.
            if (a == b) != (fexpr.op == FilterOp::Eq) {
                filters.push(CompiledFilter {
                    left: FilterSide::Unknown,
                    op: FilterOp::Eq,
                    right: FilterSide::Unknown,
                });
            }
            continue;
        }
        let side = |operand: &FilterOperand| -> Result<FilterSide, QueryError> {
            match operand {
                FilterOperand::Var(name) => match slot_of.get(name) {
                    Some(&v) => Ok(FilterSide::Slot(v)),
                    None => Err(QueryError::UnknownVariable(name.clone())),
                },
                FilterOperand::Term(t) => Ok(match dict.id_of(t) {
                    Some(id) => FilterSide::Known(id),
                    None => FilterSide::Unknown,
                }),
            }
        };
        filters.push(CompiledFilter {
            left: side(&fexpr.left)?,
            op: fexpr.op,
            right: side(&fexpr.right)?,
        });
    }

    let vars = if parsed.ask { Vec::new() } else { parsed.projection() };
    let mut slots = Vec::with_capacity(vars.len());
    for v in vars {
        match slot_of.get(&v) {
            Some(&s) => slots.push(s),
            None => return Err(QueryError::UnknownVariable(v)),
        }
    }
    let mut var_names = vec![""; slot_of.len()];
    for (name, v) in &slot_of {
        var_names[v.index()] = name;
    }
    Ok(CompiledQuery {
        bgp: (!unknown_constant).then(|| Bgp::new(patterns)),
        slots: slots.into(),
        var_names: var_names.into_iter().collect(),
        distinct: parsed.distinct,
        filters: filters.into(),
        ask: parsed.ask,
        limit: parsed.limit,
        offset: parsed.offset,
    })
}

/// A prepared query: the compiled algebra, the chosen join order with its
/// cost annotations, and the FILTER push-down assignment — bound to one
/// store and dictionary, re-runnable any number of times.
pub struct Plan<'a> {
    store: &'a dyn TripleStore,
    dict: &'a Dictionary,
    /// What preparation decided, shared with the [`PlanCache`] slot (if
    /// any) that serves the same text.
    body: Arc<PlanBody>,
}

/// Everything a [`Plan`] holds except its store/dictionary borrows: the
/// part a [`PlanCache`] keeps and every hit shares. Which step runs a
/// FILTER is not stored: [`PlanBody::filter_step`] derives it.
#[derive(Clone, Debug)]
struct PlanBody {
    query: CompiledQuery,
    /// Execution steps in order; empty when the plan is statically empty
    /// or the BGP has no patterns.
    steps: Box<[PlanStep]>,
    /// Why no solutions can exist, decided at prepare time.
    empty: Option<Empty>,
    /// Whether the join order was refined with [`DatasetStats`].
    stats_mode: bool,
}

/// A cached body is the compiled query, a step slice and two bytes.
const _: () = assert!(std::mem::size_of::<PlanBody>() <= 120);

/// Why a plan is statically empty.
#[derive(Clone, Copy, Debug)]
enum Empty {
    AbsentConstant,
    FalseFilter,
    UnboundFilter,
}

impl Empty {
    fn reason(self) -> &'static str {
        match self {
            Empty::AbsentConstant => "a constant does not occur in the dictionary",
            Empty::FalseFilter => "a FILTER comparison over constants is false",
            Empty::UnboundFilter => "a FILTER references a variable bound by no pattern",
        }
    }
}

impl PlanBody {
    /// The step after which every slot `f` reads is bound, where the
    /// FILTER runs: the latest of the steps that first bind each slot.
    /// `None` for a constants-only filter, which preparation decides, and
    /// for one reading a slot no step binds.
    fn filter_step(&self, f: &CompiledFilter) -> Option<usize> {
        let bgp = self.query.bgp.as_ref()?;
        let first_binding = |v: VarId| {
            self.steps.iter().position(|s| bgp.patterns[s.pattern].vars().any(|w| w == v))
        };
        let mut slots = f.slots().peekable();
        slots.peek()?;
        slots.try_fold(0, |at, v| Some(at.max(first_binding(v)?)))
    }
}

/// Parses, compiles and plans query text against a store + dictionary
/// pair.
///
/// The returned [`Plan`] borrows both; inspect it with [`Plan::explain`]
/// and stream rows with [`Plan::solutions`].
pub fn prepare_on<'a>(
    store: &'a dyn TripleStore,
    dict: &'a Dictionary,
    query_text: &str,
) -> Result<Plan<'a>, QueryError> {
    prepare_on_with_stats(store, dict, query_text, None)
}

/// [`prepare_on`], planning with [`Plan::from_compiled_with_stats`].
fn prepare_on_with_stats<'a>(
    store: &'a dyn TripleStore,
    dict: &'a Dictionary,
    query_text: &str,
    stats: Option<&DatasetStats>,
) -> Result<Plan<'a>, QueryError> {
    let compiled = compile(&parse_query(query_text)?, dict)?;
    Ok(Plan::from_compiled_with_stats(compiled, dict, store, stats))
}

fn shape_name(shape: Shape) -> &'static str {
    match shape {
        Shape::Spo => "spo",
        Shape::Sp => "sp",
        Shape::So => "so",
        Shape::Po => "po",
        Shape::S => "s",
        Shape::P => "p",
        Shape::O => "o",
        Shape::None_ => "any",
    }
}

impl<'a> Plan<'a> {
    /// Plans an already-compiled query. This is the entry point for
    /// callers that build [`CompiledQuery`] values programmatically (the
    /// benches and property tests do, to bypass the parser).
    pub fn from_compiled(
        query: CompiledQuery,
        dict: &'a Dictionary,
        store: &'a dyn TripleStore,
    ) -> Plan<'a> {
        Plan::from_compiled_with_stats(query, dict, store, None)
    }

    /// Plans an already-compiled query, refining the join order with
    /// dataset statistics when `stats` is provided: each greedy round
    /// scales a pattern's constants-only estimate by the fan-out of
    /// variables bound by earlier steps (mean out-/in-degree,
    /// per-property counts). With `stats = None` the plan is identical to
    /// [`Plan::from_compiled`]'s.
    pub fn from_compiled_with_stats(
        query: CompiledQuery,
        dict: &'a Dictionary,
        store: &'a dyn TripleStore,
        stats: Option<&DatasetStats>,
    ) -> Plan<'a> {
        let steps = match &query.bgp {
            Some(bgp) => exec::plan_steps_with(store, bgp, stats).into(),
            None => Box::default(),
        };
        let mut body = PlanBody {
            empty: query.bgp.is_none().then_some(Empty::AbsentConstant),
            query,
            steps,
            stats_mode: stats.is_some(),
        };
        if body.empty.is_none() {
            // A constants-only comparison is decided right now. A slot no
            // pattern binds stays unbound in every row, and an unbound
            // filtered variable rejects the row (SPARQL error semantics),
            // so the whole result is empty. The parser cannot produce
            // that, but programmatically built queries can.
            body.empty = body.query.filters.iter().find_map(|f| match body.filter_step(f) {
                Some(_) => None,
                None if f.slots().next().is_some() => Some(Empty::UnboundFilter),
                None => (!f.accepts(&[])).then_some(Empty::FalseFilter),
            });
        }
        Plan { store, dict, body: Arc::new(body) }
    }

    /// The compiled query this plan runs.
    pub fn query(&self) -> &CompiledQuery {
        &self.body.query
    }

    /// The ordered, cost-annotated steps.
    pub fn steps(&self) -> &[PlanStep] {
        &self.body.steps
    }

    /// True when prepare-time analysis proved the result empty (a constant
    /// outside the dictionary, or a constants-only FILTER that is false).
    pub fn is_statically_empty(&self) -> bool {
        self.body.empty.is_some()
    }

    fn render_term(&self, term: PatternTerm) -> String {
        match term {
            PatternTerm::Var(v) => match self.body.query.var_names.get(v) {
                Some(name) => format!("?{name}"),
                None => format!("?_{}", v.index()),
            },
            PatternTerm::Const(id) => match self.dict.decode(id) {
                Some(t) => t.to_string(),
                None => "<unresolved>".to_string(),
            },
        }
    }

    fn render_side(&self, side: FilterSide) -> String {
        match side {
            FilterSide::Slot(v) => self.render_term(PatternTerm::Var(v)),
            FilterSide::Known(id) => self.render_term(PatternTerm::Const(id)),
            FilterSide::Unknown => "<absent from dictionary>".to_string(),
        }
    }

    /// Renders the plan as stable, line-oriented text for humans, tests
    /// and benches: the query goal, the store and its capabilities, then
    /// one line per step with its access shape, cardinality estimate and
    /// serving index (`via scan` marks a shape no surviving index can
    /// answer directly), with pushed-down filters listed under the step
    /// that applies them.
    pub fn explain(&self) -> String {
        let body = &*self.body;
        let query = &body.query;
        let mut out = String::new();
        let mut goal = if query.ask {
            "ASK".to_string()
        } else {
            let mut s = String::from("SELECT");
            if query.distinct {
                s.push_str(" DISTINCT");
            }
            for v in query.vars() {
                let _ = write!(s, " ?{v}");
            }
            s
        };
        if query.offset > 0 {
            let _ = write!(goal, " OFFSET {}", query.offset);
        }
        if let Some(limit) = query.limit {
            let _ = write!(goal, " LIMIT {limit}");
        }
        let _ = writeln!(out, "query: {goal}");
        let caps: Vec<&str> = self.store.capabilities().iter().map(|k| k.name()).collect();
        let _ = writeln!(out, "store: {} capabilities={{{}}}", self.store.name(), caps.join(","));
        if body.stats_mode {
            let _ = writeln!(out, "planner: statistics-driven (bound-variable fan-out)");
        }
        if let Some(empty) = body.empty {
            let _ = writeln!(out, "  statically empty: {}", empty.reason());
            return out;
        }
        let Some(bgp) = &query.bgp else { unreachable!("`empty` covers bgp=None") };
        for (i, step) in body.steps.iter().enumerate() {
            let pat = &bgp.patterns[step.pattern];
            let via = match step.index {
                Some(kind) => format!("index {}", kind.name()),
                None => "scan".to_string(),
            };
            let refined =
                if body.stats_mode { format!(" cost={:.2}", step.cost) } else { String::new() };
            let join = match step.join {
                exec::JoinStep::MergeIntersect => "merge",
                exec::JoinStep::NestedProbe => "nested",
            };
            let _ = writeln!(
                out,
                "  step {}: ({}, {}, {}) shape={} est={}{refined} via {} join={join}",
                i + 1,
                self.render_term(pat.s),
                self.render_term(pat.p),
                self.render_term(pat.o),
                shape_name(step.shape),
                step.estimate,
                via
            );
            for f in query.filters.iter().filter(|f| body.filter_step(f) == Some(i)) {
                let op = match f.op {
                    FilterOp::Eq => "=",
                    FilterOp::Ne => "!=",
                };
                let _ = writeln!(
                    out,
                    "    filter: {} {op} {}",
                    self.render_side(f.left),
                    self.render_side(f.right)
                );
            }
        }
        out
    }

    /// LIMIT pushdown: when every cursor row becomes exactly one emitted
    /// solution — filter-free, no projected slot that could come back
    /// unbound — the join walk itself can stop after `offset + limit`
    /// rows, so deeper levels never expand past the downstream demand.
    /// Returns that cap, or `None` when the demand cannot be pushed
    /// safely.
    ///
    /// DISTINCT no longer blanket-disables the pushdown: walk rows are
    /// pairwise distinct as *full* bindings (the row determines each
    /// pattern's matching triple), so when the projection keeps every
    /// pattern-bound variable it is injective on walk rows, the seen-set
    /// never filters, and the demand still counts emitted solutions
    /// exactly. A projection that *drops* bound variables can duplicate,
    /// so there the walk stays demand-free and is bounded by
    /// [`Solutions`]' laziness instead (O(k·dup) triples for LIMIT k
    /// with duplication factor dup — see the engine tests).
    fn pushdown_demand(&self) -> Option<usize> {
        let query = &self.body.query;
        let bgp = query.bgp.as_ref()?;
        if query.ask {
            return None;
        }
        if query.filters.iter().any(|f| self.body.filter_step(f).is_some()) {
            return None;
        }
        let mut pattern_bound = vec![false; bgp.var_count()];
        for pat in &bgp.patterns {
            for v in pat.vars() {
                pattern_bound[v.index()] = true;
            }
        }
        let projection_total =
            query.slots.iter().all(|v| pattern_bound.get(v.index()).copied().unwrap_or(false));
        if !projection_total {
            return None;
        }
        if query.distinct {
            let all_bound_projected = pattern_bound
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .all(|(i, _)| query.slots.iter().any(|v| v.index() == i));
            if !all_bound_projected {
                return None;
            }
        }
        query.limit.map(|limit| query.offset.saturating_add(limit))
    }

    /// Streams the plan's solutions lazily: rows are produced on demand,
    /// ASK yields at most one (empty) row, and `OFFSET`/`LIMIT` stop the
    /// underlying join walk as soon as enough rows have been emitted.
    pub fn solutions(&self) -> Solutions<'_> {
        let body = &*self.body;
        let rows = match (&body.query.bgp, body.empty) {
            (Some(bgp), None) => {
                let mut cursor = exec::BgpCursor::planned(self.store, bgp, &body.steps);
                for &f in body.query.filters.iter() {
                    if let Some(depth) = body.filter_step(&f) {
                        cursor.add_check(depth, Box::new(move |row| f.accepts(row)));
                    }
                }
                cursor.set_demand(self.pushdown_demand());
                Some(cursor)
            }
            _ => None,
        };
        Solutions {
            decoder: Decoder { dict: self.dict, direct_rows: DIRECT_ROWS, terms: None },
            query: &body.query,
            rows,
            seen: HashSet::new(),
            skipped: 0,
            emitted: 0,
            done: false,
        }
    }

    /// Downgrades every step to [`exec::JoinStep::NestedProbe`], forcing
    /// the pure nested walk. This is the oracle side of the merge-join
    /// byte-identity tests and the baseline of the `joins` bench figure:
    /// the same plan (same steps, same order) executed with per-candidate
    /// probes instead of one sorted-list intersection. A body shared with
    /// a [`PlanCache`] is copied first, so the cached plan keeps its joins.
    pub fn force_nested_joins(&mut self) {
        for s in Arc::make_mut(&mut self.body).steps.iter_mut() {
            s.join = exec::JoinStep::NestedProbe;
        }
    }

    /// Runs the plan to completion, collecting a [`ResultSet`]. The answer
    /// holds every row, so the run keeps the terms it decodes: each
    /// distinct id is built once and shared by the rows it appears in.
    pub fn run(&self) -> ResultSet {
        let mut solutions = self.solutions();
        solutions.decoder.terms = Some(HashMap::default());
        let vars = self.body.query.vars().map(String::from).collect();
        ResultSet { vars, rows: solutions.collect() }
    }
}

/// A lazy iterator over a [`Plan`]'s decoded solution rows.
///
/// Produced by [`Plan::solutions`]. Each `next()` resumes the join walk;
/// dropping the iterator abandons the remaining work, which is what makes
/// ASK and `LIMIT` early-terminating. Each row is projected from the
/// walk's binding row and decoded on its own, so the stream holds no
/// more than the row it is building.
pub struct Solutions<'p> {
    decoder: Decoder<'p>,
    /// Projection and solution modifiers.
    query: &'p CompiledQuery,
    /// The join walk; `None` when the plan is statically empty.
    rows: Option<exec::BgpCursor<'p>>,
    seen: HashSet<Vec<Id>>,
    skipped: usize,
    emitted: usize,
    done: bool,
}

impl Solutions<'_> {
    /// The projected variable names (none for ASK).
    pub fn vars(&self) -> impl Iterator<Item = &str> + '_ {
        self.query.vars()
    }
}

/// How many rows a [`Plan::run`] decodes straight from the arena before
/// it keeps decoded terms. On a short answer the map's hashing and growth
/// cost more than its clones save: on the `lookup` benchmark, whose
/// answers are at most 55 rows, keeping terms from the first row or from
/// row 32 made the median query slower than this cut-off, which none of
/// those answers reaches (ARCHITECTURE.md, *Decode once per query*).
const DIRECT_ROWS: usize = 128;

/// Turns a stream's ids into owned terms. With `terms`, which only
/// [`Plan::run`] sets, each distinct id is built from the arena once —
/// one allocation — and every later appearance is a [`Term`] clone, one
/// reference-count bump.
struct Decoder<'p> {
    dict: &'p Dictionary,
    /// Rows still to decode without the map.
    direct_rows: usize,
    terms: Option<HashMap<Id, Term, BuildHasherDefault<IdHasher>>>,
}

impl Decoder<'_> {
    fn row(&mut self, ids: impl Iterator<Item = Id>, width: usize) -> Vec<Term> {
        let dict = self.dict;
        let decode = |id| dict.decode(id).expect("result id missing from dictionary");
        let mut row = Vec::with_capacity(width);
        match &mut self.terms {
            Some(terms) if self.direct_rows == 0 => {
                row.extend(ids.map(|id| terms.entry(id).or_insert_with(|| decode(id)).clone()))
            }
            _ => {
                self.direct_rows = self.direct_rows.saturating_sub(1);
                row.extend(ids.map(decode))
            }
        }
        row
    }
}

/// A multiplicative hash of an [`Id`]'s `u32` — ids are dense integers
/// chosen by the dictionary, not keys an adversary picks, so SipHash buys
/// nothing. The fold of the product's high half into its low half gives
/// the table's index bits every bit of the id.
#[derive(Default)]
struct IdHasher(u64);

impl IdHasher {
    fn fold(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.fold(u64::from(b)));
    }

    fn write_u32(&mut self, id: u32) {
        self.fold(u64::from(id));
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

impl Iterator for Solutions<'_> {
    type Item = Vec<Term>;

    fn next(&mut self) -> Option<Vec<Term>> {
        // ASK answers pure existence: OFFSET/LIMIT modifiers don't apply
        // (matching the pre-streaming semantics, where ASK short-circuited
        // before the modifier pipeline).
        let query = self.query;
        if self.done || (!query.ask && query.limit.is_some_and(|l| self.emitted >= l)) {
            self.done = true;
            return None;
        }
        let rows = self.rows.as_mut()?;
        while let Some(row) = rows.advance() {
            if query.ask {
                // ASK: a single empty row signals "yes"; stop immediately.
                self.done = true;
                return Some(Vec::new());
            }
            // Project straight from the row; rows with an unbound projected
            // slot are dropped.
            if query.slots.iter().any(|v| row[v.index()].is_none()) {
                continue;
            }
            let ids = query.slots.iter().filter_map(|v| row[v.index()]);
            if query.distinct && !self.seen.insert(ids.clone().collect()) {
                continue;
            }
            if self.skipped < query.offset {
                self.skipped += 1;
                continue;
            }
            self.emitted += 1;
            return Some(self.decoder.row(ids, query.slots.len()));
        }
        self.done = true;
        None
    }
}

/// String-level query surface for [`Dataset`]: every store variant —
/// mutable, frozen, partial — is queryable through `prepare` without
/// touching id-level APIs.
///
/// ```
/// use hexastore::GraphStore;
/// use hex_query::DatasetQuery;
///
/// let mut g = GraphStore::new();
/// g.load_ntriples(r#"<http://x/ID3> <http://x/advisor> <http://x/ID2> ."#).unwrap();
///
/// // The same text works on the frozen form — and with statistics.
/// let frozen = g.freeze();
/// let stats = frozen.stats();
/// let plan = frozen
///     .prepare_with_stats("SELECT ?s WHERE { ?s <http://x/advisor> ?a . }", Some(&stats))
///     .unwrap();
/// assert_eq!(plan.solutions().count(), 1);
/// assert!(g.ask("ASK { ?s <http://x/advisor> ?a . }").unwrap());
/// ```
pub trait DatasetQuery {
    /// Parses, compiles and plans query text against this dataset.
    ///
    /// The returned [`Plan`] borrows the dataset: inspect it with
    /// [`Plan::explain`], stream rows with [`Plan::solutions`], or
    /// collect them with [`Plan::run`]. Preparing once and re-running
    /// amortizes parsing, compilation and planning across executions.
    ///
    /// ```
    /// use hexastore::GraphStore;
    /// use hex_query::DatasetQuery;
    ///
    /// let mut g = GraphStore::new();
    /// g.load_ntriples(r#"<http://x/ID3> <http://x/advisor> <http://x/ID2> ."#).unwrap();
    /// let plan = g.prepare("SELECT ?s WHERE { ?s <http://x/advisor> ?prof . }")?;
    /// println!("{}", plan.explain()); // cost-annotated join steps
    /// assert_eq!(plan.run().len(), 1);
    /// # Ok::<(), hex_query::QueryError>(())
    /// ```
    fn prepare(&self, query_text: &str) -> Result<Plan<'_>, QueryError>;

    /// Like [`DatasetQuery::prepare`], refining the join order with
    /// dataset statistics (e.g. from [`Dataset::stats`]) when provided.
    fn prepare_with_stats(
        &self,
        query_text: &str,
        stats: Option<&DatasetStats>,
    ) -> Result<Plan<'_>, QueryError>;

    /// One-shot: prepare and collect the full [`ResultSet`].
    fn query(&self, query_text: &str) -> Result<ResultSet, QueryError>;

    /// One-shot existence check: stops at the first solution.
    fn ask(&self, query_text: &str) -> Result<bool, QueryError>;
}

impl<S: TripleStore> DatasetQuery for Dataset<S> {
    fn prepare(&self, query_text: &str) -> Result<Plan<'_>, QueryError> {
        prepare_on(self.store(), self.dict(), query_text)
    }

    fn prepare_with_stats(
        &self,
        query_text: &str,
        stats: Option<&DatasetStats>,
    ) -> Result<Plan<'_>, QueryError> {
        prepare_on_with_stats(self.store(), self.dict(), query_text, stats)
    }

    fn query(&self, query_text: &str) -> Result<ResultSet, QueryError> {
        Ok(self.prepare(query_text)?.run())
    }

    fn ask(&self, query_text: &str) -> Result<bool, QueryError> {
        Ok(self.prepare(query_text)?.solutions().next().is_some())
    }
}

/// A bounded memo of prepared plans, keyed by query text and planning
/// mode, so a serving loop replaying a query set stops re-parsing,
/// re-compiling and re-planning (each plain `prepare` pays one
/// `count_matching` probe *per pattern*).
///
/// An entry is the text, stored once, beside its reference bit and one
/// pointer per planning mode to the body the miss prepared. A hit is one
/// hash probe of the text and one `Arc` clone: it hands out a [`Plan`]
/// sharing that body, with no copy and no allocation.
/// [`Plan::force_nested_joins`] on such a plan copies the body first, so
/// the cached one never changes. A body holds only what running and
/// explaining read: the compiled query and its steps, in boxed slices,
/// with the projected names derived from the slots. On texts shaped like
/// the benchmark's `lookup` stream a full cache holds 394 counted bytes
/// in 5.75 allocations per entry, the 134-byte text included
/// (`tests/plan_cache_alloc.rs`); `BENCH_ci.json`'s `plan_cache` counts
/// 423 bytes per plan at 10,012 plans, where the tables still have room
/// to grow.
///
/// The cache holds at most 65,536 texts and evicts by CLOCK (second
/// chance): a hit sets the entry's reference bit, and a miss into a full
/// cache advances a hand over the entries, clearing set bits, and reuses
/// the first entry whose bit was clear, both of its plans with it. An
/// evicted text counts as a miss when it comes back; [`PlanCache::hits`]
/// and [`PlanCache::misses`] count lookups, whatever was evicted.
///
/// The stats mode computes the dataset's [`DatasetStats`] on its first
/// miss and keeps them for the next misses, until the dataset changes.
///
/// The cache keys its validity on the ([`Dataset::identity`],
/// [`Dataset::version`]) pair: any mutation of the dataset (triples
/// *or* dictionary — newly interned terms can turn a statically-empty
/// plan live) clears it wholesale on the next lookup, and so does
/// pointing the cache at a *different* dataset, even one whose version
/// number coincides (any two freshly loaded snapshots are both
/// version 0 — cached plans embed interned ids, which mean something
/// else under another dictionary). It lives outside the [`Dataset`]
/// because plans are query-layer values; hold one next to the dataset
/// it serves.
///
/// ```
/// use hexastore::GraphStore;
/// use hex_query::PlanCache;
///
/// let mut g = GraphStore::new();
/// g.load_ntriples(r#"<http://x/ID3> <http://x/advisor> <http://x/ID2> ."#).unwrap();
/// let mut cache = PlanCache::new();
/// let q = "SELECT ?s WHERE { ?s <http://x/advisor> ?a . }";
/// assert_eq!(cache.prepare(&g, q).unwrap().solutions().count(), 1);
/// assert_eq!(cache.prepare(&g, q).unwrap().solutions().count(), 1);
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug)]
pub struct PlanCache {
    /// The cached texts, at most `capacity`, in the order the CLOCK hand
    /// visits them.
    entries: Vec<Entry>,
    /// Open addressing over `entries`: each slot is a [`slot`] value or
    /// [`NO_ENTRY`]; the home slot of a text is its hash's low bits, and
    /// the table is at least twice as long as `entries`.
    table: Vec<u32>,
    /// The entry the next eviction considers first.
    hand: usize,
    /// [`CAPACITY`], except in tests.
    capacity: usize,
    hasher: RandomState,
    /// The ([`Dataset::identity`], [`Dataset::version`]) pair the
    /// entries were planned against.
    planned_for: Option<(u64, u64)>,
    /// The statistics the stats mode plans with, computed on its first
    /// miss against `planned_for`.
    stats: Option<DatasetStats>,
    hits: u64,
    misses: u64,
}

/// How many texts a [`PlanCache`] holds.
const CAPACITY: usize = 1 << 16;

/// An empty slot of [`PlanCache::table`].
const NO_ENTRY: u32 = u32::MAX;

/// The bits of a [`slot`] that hold the entry's index.
const INDEX: u32 = 0xffff;

const _: () = assert!(CAPACITY <= INDEX as usize + 1);

/// The [`PlanCache::table`] slot of entry `at`, whose text hashes to
/// `hash`: the index in the low 16 bits and, above them, the hash's top
/// 15 bits, which no home slot uses (a table has at most 2^17 slots). A
/// probe passes other texts' slots on those bits, without loading their
/// entries.
fn slot(hash: u32, at: usize) -> u32 {
    (hash >> 17) << 16 | at as u32
}

/// One cached text and what the cache knows about it.
#[derive(Debug)]
struct Entry {
    text: Box<str>,
    /// The plain and the stats-driven preparation — cached
    /// independently, since the two can choose different orders.
    plans: [Option<Arc<PlanBody>>; 2],
    /// The text's hash, so removals and table growth need not rehash it.
    hash: u32,
    /// Set by a hit, cleared by the CLOCK hand passing.
    referenced: bool,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 40);

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_capacity(CAPACITY)
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            entries: Vec::new(),
            table: Vec::new(),
            hand: 0,
            capacity,
            hasher: RandomState::new(),
            planned_for: None,
            stats: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached plans (a text planned in both modes counts
    /// twice).
    pub fn len(&self) -> usize {
        self.entries.iter().map(|e| e.plans.iter().flatten().count()).sum()
    }

    /// True if no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from the cache since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to parse, compile and plan since creation
    /// (repreparations forced by invalidation or eviction included).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops every cached plan (the identity/version gate does this
    /// automatically when the dataset changes).
    pub fn clear(&mut self) {
        self.entries = Vec::new();
        self.table = Vec::new();
        self.hand = 0;
        self.planned_for = None;
        self.stats = None;
    }

    /// Drops the entries if `ds` is a different dataset than, or has
    /// mutated since, the one they were planned against.
    fn validate<S: TripleStore>(&mut self, ds: &Dataset<S>) {
        let key = (ds.identity(), ds.version());
        if self.planned_for != Some(key) {
            self.clear();
            self.planned_for = Some(key);
        }
    }

    /// The position in the table of the entry with `hash` that `eq`
    /// accepts — `Ok` — or of the empty slot that ends the probe from
    /// `hash`'s home — `Err`.
    fn probe(&self, hash: u32, eq: impl Fn(usize) -> bool) -> Result<usize, usize> {
        let mask = self.table.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.table[at] {
                NO_ENTRY => return Err(at),
                s if s & !INDEX == slot(hash, 0) && eq((s & INDEX) as usize) => return Ok(at),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The entry holding `text`, if any.
    fn find(&self, hash: u32, text: &str) -> Option<usize> {
        if self.table.is_empty() {
            return None;
        }
        let eq = |at: usize| *self.entries[at].text == *text;
        self.probe(hash, eq).ok().map(|at| (self.table[at] & INDEX) as usize)
    }

    /// Files entry `at` in the table.
    fn link(&mut self, at: usize) {
        let hash = self.entries[at].hash;
        let empty = self.probe(hash, |_| false).expect_err("no entry matches");
        self.table[empty] = slot(hash, at);
    }

    /// Takes entry `at` out of the table, shifting back the entries after
    /// it in its cluster that may move closer to their home slots, so
    /// every probe still ends at the first empty slot.
    fn unlink(&mut self, at: usize) {
        let mask = self.table.len() - 1;
        let mut hole = self.probe(self.entries[at].hash, |e| e == at).expect("entry is linked");
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let moved = self.table[next];
            if moved == NO_ENTRY {
                break;
            }
            let home = self.entries[(moved & INDEX) as usize].hash as usize & mask;
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.table[hole] = moved;
                hole = next;
            }
        }
        self.table[hole] = NO_ENTRY;
    }

    /// Adds an entry for `text`, absent until now, and returns its index:
    /// a new one while the cache has room, else the CLOCK victim's.
    fn insert(&mut self, hash: u32, text: &str) -> usize {
        let entry = Entry { text: text.into(), plans: [None, None], hash, referenced: false };
        let at = if self.entries.len() < self.capacity {
            self.entries.push(entry);
            let at = self.entries.len() - 1;
            if self.table.len() < 2 * self.entries.len() {
                self.table = vec![NO_ENTRY; (2 * self.entries.len()).next_power_of_two().max(8)];
                (0..at).for_each(|linked| self.link(linked));
            }
            at
        } else {
            while std::mem::take(&mut self.entries[self.hand].referenced) {
                self.hand = (self.hand + 1) % self.entries.len();
            }
            let victim = self.hand;
            self.hand = (victim + 1) % self.entries.len();
            self.unlink(victim);
            self.entries[victim] = entry;
            victim
        };
        self.link(at);
        at
    }

    /// The lookup behind both public forms: serve `query_text` from the
    /// slot of its planning mode, or prepare it — with the memoized
    /// `stats(ds)` when given — and remember the plan there.
    fn lookup<'a, S: TripleStore>(
        &mut self,
        ds: &'a Dataset<S>,
        query_text: &str,
        stats: Option<fn(&Dataset<S>) -> DatasetStats>,
    ) -> Result<Plan<'a>, QueryError> {
        self.validate(ds);
        let mode = usize::from(stats.is_some());
        let hash = self.hasher.hash_one(query_text) as u32;
        let found = self.find(hash, query_text);
        if let Some(at) = found {
            let entry = &mut self.entries[at];
            entry.referenced = true;
            if let Some(body) = &entry.plans[mode] {
                self.hits += 1;
                return Ok(Plan { store: ds.store(), dict: ds.dict(), body: Arc::clone(body) });
            }
        }
        self.misses += 1;
        let stats = stats.map(|compute| &*self.stats.get_or_insert_with(|| compute(ds)));
        let plan = prepare_on_with_stats(ds.store(), ds.dict(), query_text, stats)?;
        let at = found.unwrap_or_else(|| self.insert(hash, query_text));
        self.entries[at].plans[mode] = Some(Arc::clone(&plan.body));
        Ok(plan)
    }

    /// [`prepare_on`] through the cache: returns a plan equivalent to a
    /// fresh preparation, reusing the memoized compilation and join
    /// order when `ds` is unchanged since it was cached.
    pub fn prepare<'a, S: TripleStore>(
        &mut self,
        ds: &'a Dataset<S>,
        query_text: &str,
    ) -> Result<Plan<'a>, QueryError> {
        self.lookup(ds, query_text, None)
    }

    /// The statistics-driven counterpart of [`PlanCache::prepare`]: a
    /// miss plans with the dataset's [`DatasetStats`], computed on the
    /// first such miss and kept until the dataset changes; a hit skips
    /// both. Cached separately from the plain mode, since the two can
    /// legitimately choose different join orders.
    pub fn prepare_with_stats<'a, S: hexastore::StatsSource>(
        &mut self,
        ds: &'a Dataset<S>,
        query_text: &str,
    ) -> Result<Plan<'a>, QueryError> {
        self.lookup(ds, query_text, Some(Dataset::stats))
    }
}

/// A cache may move to, or be shared with, a serving thread: a body
/// behind `Rc` instead of `Arc` fails to build here.
fn _plan_cache_is_send_sync() {
    fn _assert<T: Send + Sync>() {}
    _assert::<PlanCache>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use hexastore::GraphStore;
    use rdf_model::Triple;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn figure1_graph() -> GraphStore {
        let mut g = GraphStore::new();
        let data = [
            ("ID1", "type", "FullProfessor"),
            ("ID1", "teacherOf", "lit:AI"),
            ("ID1", "bachelorFrom", "lit:MIT"),
            ("ID1", "mastersFrom", "lit:Cambridge"),
            ("ID1", "phdFrom", "lit:Yale"),
            ("ID2", "type", "AssocProfessor"),
            ("ID2", "worksFor", "lit:MIT"),
            ("ID2", "teacherOf", "lit:DataBases"),
            ("ID2", "bachelorsFrom", "lit:Yale"),
            ("ID2", "phdFrom", "lit:Stanford"),
            ("ID3", "type", "GradStudent"),
            ("ID3", "advisor", "ID2"),
            ("ID3", "teachingAssist", "lit:AI"),
            ("ID3", "bachelorsFrom", "lit:Stanford"),
            ("ID3", "mastersFrom", "lit:Princeton"),
            ("ID4", "type", "GradStudent"),
            ("ID4", "advisor", "ID1"),
            ("ID4", "takesCourse", "lit:DataBases"),
            ("ID4", "bachelorsFrom", "lit:Columbia"),
        ];
        for (s, p, o) in data {
            let object = match o.strip_prefix("lit:") {
                Some(lex) => Term::literal(lex),
                None => iri(o),
            };
            g.insert(&Triple::new(iri(s), iri(p), object));
        }
        g
    }

    #[test]
    fn figure1_upper_query() {
        // SELECT A.property WHERE A.subj = ID2 AND A.obj = 'MIT'
        let g = figure1_graph();
        let rs = g.query(r#"SELECT ?property WHERE { <http://x/ID2> ?property "MIT" . }"#).unwrap();
        assert_eq!(rs.vars, vec!["property"]);
        assert_eq!(rs.rows, vec![vec![iri("worksFor")]]);
    }

    #[test]
    fn figure1_lower_query() {
        // People with the same relationship to Stanford as ID1 has to Yale
        // (ID1 phdFrom Yale; ID2 phdFrom Stanford).
        let g = figure1_graph();
        let rs = g
            .query(
                r#"SELECT ?b WHERE {
                <http://x/ID1> ?prop "Yale" .
                ?b ?prop "Stanford" .
            }"#,
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![iri("ID2")]]);
    }

    #[test]
    fn select_star_and_distinct() {
        let g = figure1_graph();
        let rs =
            g.query(r#"SELECT DISTINCT ?type WHERE { ?who <http://x/type> ?type . }"#).unwrap();
        assert_eq!(rs.len(), 3); // FullProfessor, AssocProfessor, GradStudent
        let star = g.query(r#"SELECT * WHERE { ?who <http://x/advisor> ?adv . }"#).unwrap();
        assert_eq!(star.vars, vec!["who", "adv"]);
        assert_eq!(star.len(), 2);
    }

    #[test]
    fn unknown_constant_yields_empty_not_error() {
        let g = figure1_graph();
        let rs = g.query(r#"SELECT ?x WHERE { ?x <http://x/nonexistent> "nothing" . }"#).unwrap();
        assert!(rs.is_empty());
        let plan = prepare_on(
            g.store(),
            g.dict(),
            r#"SELECT ?x WHERE { ?x <http://x/nonexistent> "nothing" . }"#,
        )
        .unwrap();
        assert!(plan.is_statically_empty());
        assert!(plan.explain().contains("statically empty"));
        assert_eq!(plan.solutions().count(), 0);
    }

    #[test]
    fn unknown_projected_variable_is_an_error() {
        let g = figure1_graph();
        let e = g.query(r#"SELECT ?zzz WHERE { ?x <http://x/type> ?y . }"#).unwrap_err();
        assert!(matches!(e, QueryError::UnknownVariable(v) if v == "zzz"));
    }

    #[test]
    fn a_variable_past_the_last_slot_is_an_error_not_a_panic() {
        // Three new variables a pattern: 21,845 patterns name 65,535.
        let mut text = String::from("SELECT ?v0 WHERE {");
        for i in 0..21_845 {
            let _ = write!(text, " ?v{} ?v{} ?v{} .", 3 * i, 3 * i + 1, 3 * i + 2);
        }
        let dict = Dictionary::new();
        let last = compile(&parse_query(&format!("{text} }}")).unwrap(), &dict).unwrap();
        assert_eq!(last.bgp.map(|bgp| bgp.var_count()), Some(usize::from(u16::MAX)));
        let past = parse_query(&format!("{text} ?v0 ?v1 ?one_more . }}")).unwrap();
        assert_eq!(compile(&past, &dict).unwrap_err(), QueryError::TooManyVariables);
    }

    #[test]
    fn runs_identically_on_baseline_stores() {
        // The engine is store-agnostic; results must match across stores.
        let g = figure1_graph();
        let queries = [
            r#"SELECT ?p WHERE { <http://x/ID2> ?p "MIT" . }"#,
            r#"SELECT ?who ?how WHERE { ?who ?how "MIT" . }"#,
            r#"SELECT DISTINCT ?s WHERE { ?s <http://x/type> <http://x/GradStudent> . ?s <http://x/advisor> ?a . }"#,
        ];
        // Rebuild the same data in a triples-table via the id stream.
        let ids = g.store().matching(hexastore::IdPattern::ALL);
        let table = hex_baselines::TriplesTable::from_triples(ids.iter().copied());
        let covp1 = hex_baselines::Covp1::from_triples(ids.iter().copied());
        let covp2 = hex_baselines::Covp2::from_triples(ids);
        for q in queries {
            let reference = {
                let mut r = g.query(q).unwrap().rows;
                r.sort();
                r
            };
            for store in [&table as &dyn TripleStore, &covp1, &covp2] {
                let mut rows = prepare_on(store, g.dict(), q).unwrap().run().rows;
                rows.sort();
                assert_eq!(rows, reference, "store {} query {q}", store.name());
            }
        }
    }

    #[test]
    fn limit_offset_and_ask() {
        let g = figure1_graph();
        let all = g.query(r#"SELECT ?s WHERE { ?s <http://x/type> ?t . }"#).unwrap();
        assert_eq!(all.len(), 4);
        let limited = g.query(r#"SELECT ?s WHERE { ?s <http://x/type> ?t . } LIMIT 2"#).unwrap();
        assert_eq!(limited.len(), 2);
        assert_eq!(&limited.rows[..], &all.rows[..2]);
        let offset =
            g.query(r#"SELECT ?s WHERE { ?s <http://x/type> ?t . } OFFSET 3 LIMIT 5"#).unwrap();
        assert_eq!(offset.len(), 1);
        assert_eq!(offset.rows[0], all.rows[3]);
        assert!(g.ask(r#"ASK { <http://x/ID3> <http://x/advisor> ?a . }"#).unwrap());
        assert!(!g.ask(r#"ASK { <http://x/ID1> <http://x/advisor> ?a . }"#).unwrap());
    }

    #[test]
    fn filters_restrict_solutions() {
        let g = figure1_graph();
        // Everyone related to MIT except by worksFor.
        let rs = g
            .query(
                r#"SELECT ?who WHERE {
                ?who ?how "MIT" .
                FILTER(?how != <http://x/worksFor>)
            }"#,
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![iri("ID1")]]);
        // BQ5-style non-Text filter expressed declaratively.
        let rs = g
            .query(
                r#"SELECT ?s ?t WHERE {
                ?s <http://x/type> ?t .
                FILTER(?t != <http://x/GradStudent>)
            }"#,
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
        // Equality filter between two variables.
        let rs = g
            .query(
                r#"SELECT ?a WHERE {
                ?a <http://x/teacherOf> ?c .
                ?b <http://x/teachingAssist> ?c .
                FILTER(?c = "AI")
            }"#,
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![iri("ID1")]]);
        // Its two variables are bound by different steps: it runs after
        // the later one.
        let text = r#"SELECT ?a ?b WHERE {
            ?a <http://x/teacherOf> ?c .
            ?b <http://x/takesCourse> ?d .
            FILTER(?c = ?d)
        }"#;
        assert_eq!(g.query(text).unwrap().rows, vec![vec![iri("ID2"), iri("ID4")]]);
        let explain = g.prepare(text).unwrap().explain();
        let (_, after_step_2) = explain.split_once("step 2:").expect("two steps");
        assert!(after_step_2.contains("filter: ?c = ?d"), "{explain}");
        // Filter against a term absent from the data: != passes all.
        let rs = g
            .query(
                r#"SELECT ?s WHERE { ?s <http://x/type> ?t . FILTER(?t != <http://x/Nothing>) }"#,
            )
            .unwrap();
        assert_eq!(rs.len(), 4);
        // Unknown variable in a filter is an error.
        let e = g.query(r#"SELECT ?s WHERE { ?s ?p ?o . FILTER(?zzz = ?s) }"#).unwrap_err();
        assert!(matches!(e, QueryError::UnknownVariable(_)));
    }

    #[test]
    fn tsv_rendering() {
        let g = figure1_graph();
        let rs = g.query(r#"SELECT ?p WHERE { <http://x/ID2> ?p "MIT" . }"#).unwrap();
        let tsv = rs.to_tsv();
        assert!(tsv.starts_with("p\n"));
        assert!(tsv.contains("worksFor"));
    }

    #[test]
    fn tsv_escapes_separators_in_cells() {
        // Terms render N-Triples-escaped (`\u` escapes in IRIs, `\t`/`\n`
        // in literals), so no cell holds a raw tab or newline, and the
        // escapes' backslashes must double to stay lossless.
        let rs = ResultSet {
            vars: vec!["a".into(), "b".into()],
            rows: vec![vec![
                Term::iri("http://x/tab\there\nnewline"),
                Term::literal("lit\twith\nseparators"),
            ]],
        };
        let tsv = rs.to_tsv();
        // One header line + one row line, no matter what the cells hold.
        assert_eq!(tsv.lines().count(), 2);
        let row = tsv.lines().nth(1).unwrap();
        assert_eq!(row.split('\t').count(), 2, "embedded tab must not split the cell");
        assert!(row.contains("<http://x/tab\\\\u0009here\\\\u000Anewline>"), "{row}");
        // The literal's own N-Triples escapes survive, backslash-doubled.
        assert!(row.contains("\"lit\\\\twith\\\\nseparators\""), "{row}");
    }

    #[test]
    fn prepared_plan_explains_steps_and_pushdown() {
        let g = figure1_graph().freeze();
        let plan = prepare_on(
            g.store(),
            g.dict(),
            r#"SELECT ?who WHERE {
                ?who <http://x/type> <http://x/GradStudent> .
                ?who <http://x/advisor> ?adv .
                FILTER(?adv != <http://x/ID1>)
            } LIMIT 1"#,
        )
        .unwrap();
        let text = plan.explain();
        assert!(text.contains("query: SELECT ?who LIMIT 1"), "{text}");
        assert!(
            text.contains("store: FrozenHexastore capabilities={spo,sop,pso,pos,osp,ops}"),
            "{text}"
        );
        // Step 1 is the more selective type pattern (a po probe).
        assert!(text.contains("step 1: (?who, <http://x/type>, <http://x/GradStudent>) shape=po"));
        assert!(text.contains("via index pos"), "{text}");
        // The filter runs at the step that binds ?adv, not at the end.
        assert!(text.contains("filter: ?adv != <http://x/ID1>"), "{text}");
        assert!(!text.contains("via scan"), "{text}");
        // The same plan streams the answer.
        let rows: Vec<Vec<Term>> = plan.solutions().collect();
        assert_eq!(rows, vec![vec![iri("ID3")]]);
    }

    #[test]
    fn constant_false_filter_is_statically_empty() {
        let g = figure1_graph();
        let plan = prepare_on(
            g.store(),
            g.dict(),
            r#"SELECT ?s WHERE { ?s <http://x/type> ?t . FILTER(<http://x/ID1> = <http://x/ID2>) }"#,
        )
        .unwrap();
        assert!(plan.is_statically_empty());
        assert!(plan.explain().contains("statically empty: a FILTER comparison over constants"));
        assert!(plan.run().is_empty());
    }

    #[test]
    fn constant_filters_over_absent_terms_compare_the_terms() {
        // A term the dictionary has never seen has no id; two of them
        // must still compare by what they are.
        let g = figure1_graph();
        let rows = |filter: &str| {
            let text = format!("SELECT ?s WHERE {{ ?s <http://x/type> ?t . FILTER({filter}) }}");
            g.query(&text).unwrap().len()
        };
        let (absent, other, interned) = ("<http://x/absent>", "<http://x/other>", "<http://x/ID1>");
        for (left, right, equal) in [
            (absent, absent, true),
            (absent, other, false),
            (interned, absent, false),
            (absent, interned, false),
            (interned, interned, true),
        ] {
            let (all, none) = if equal { (4, 0) } else { (0, 4) };
            assert_eq!(rows(&format!("{left} = {right}")), all, "{left} = {right}");
            assert_eq!(rows(&format!("{left} != {right}")), none, "{left} != {right}");
        }
        // `Unknown` keeps its meaning against a variable: equal to nothing.
        assert_eq!(rows(&format!("?t = {absent}")), 0);
        assert_eq!(rows(&format!("?t != {absent}")), 4);
    }

    #[test]
    fn solutions_stream_and_replay() {
        let g = figure1_graph();
        let plan =
            prepare_on(g.store(), g.dict(), r#"SELECT ?s WHERE { ?s <http://x/type> ?t . }"#)
                .unwrap();
        let mut solutions = plan.solutions();
        assert_eq!(solutions.vars().collect::<Vec<_>>(), ["s"]);
        assert!(solutions.next().is_some());
        drop(solutions); // abandoning mid-stream is fine
                         // A plan is re-runnable: a fresh iterator starts over.
        assert_eq!(plan.solutions().count(), 4);
        assert_eq!(plan.run().len(), 4);
    }

    #[test]
    fn ask_ignores_limit_and_offset_modifiers() {
        // The parser accepts modifiers after ASK; existence semantics must
        // not change (the old path answered before applying them).
        let g = figure1_graph();
        assert!(g.ask(r#"ASK { ?s <http://x/type> ?t . } LIMIT 0"#).unwrap());
        assert!(g.ask(r#"ASK { ?s <http://x/type> ?t . } OFFSET 9 LIMIT 0"#).unwrap());
        assert!(!g.ask(r#"ASK { ?s <http://x/nope> ?t . } LIMIT 0"#).unwrap());
    }

    #[test]
    fn filter_on_never_bound_slot_is_statically_empty_not_a_panic() {
        // Programmatically built queries can reference slots no pattern
        // binds (the parser cannot); an unbound filtered variable rejects
        // every row, so the plan is statically empty.
        let g = figure1_graph();
        let parsed = parse_query(r#"SELECT ?s WHERE { ?s <http://x/type> ?t . }"#).unwrap();
        let mut q = compile(&parsed, g.dict()).unwrap();
        q.filters = Box::new([CompiledFilter {
            left: FilterSide::Slot(VarId(40)), // out of range entirely
            op: FilterOp::Eq,
            right: FilterSide::Slot(VarId(0)),
        }]);
        let plan = Plan::from_compiled(q, g.dict(), g.store());
        assert!(plan.is_statically_empty());
        assert!(plan.explain().contains("bound by no pattern"), "{}", plan.explain());
        assert!(plan.run().is_empty());
    }

    #[test]
    fn stats_mode_is_visible_in_explain_and_changes_nothing_semantically() {
        let g = figure1_graph();
        let text = r#"SELECT ?who WHERE {
            ?who <http://x/type> <http://x/GradStudent> .
            ?who <http://x/advisor> ?adv .
        }"#;
        let stats = g.stats();
        let plain = g.prepare(text).unwrap();
        let refined = g.prepare_with_stats(text, Some(&stats)).unwrap();
        assert!(!plain.explain().contains("planner: statistics-driven"));
        assert!(refined.explain().contains("planner: statistics-driven"), "{}", refined.explain());
        assert!(refined.explain().contains("cost="), "{}", refined.explain());
        let mut a: Vec<Vec<Term>> = plain.solutions().collect();
        let mut b: Vec<Vec<Term>> = refined.solutions().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn plan_cache_reuses_plans_and_invalidates_on_mutation() {
        let mut g = figure1_graph();
        let text = r#"SELECT ?who WHERE {
            ?who <http://x/type> <http://x/GradStudent> .
            ?who <http://x/advisor> ?adv .
        }"#;
        let mut cache = PlanCache::new();
        let fresh: Vec<Vec<Term>> = g.prepare(text).unwrap().solutions().collect();

        let first: Vec<Vec<Term>> = cache.prepare(&g, text).unwrap().solutions().collect();
        let second: Vec<Vec<Term>> = cache.prepare(&g, text).unwrap().solutions().collect();
        assert_eq!(first, fresh, "cached preparation must match a fresh one");
        assert_eq!(second, fresh);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);

        // Stats mode is a distinct slot for the same text.
        let refined: Vec<Vec<Term>> =
            cache.prepare_with_stats(&g, text).unwrap().solutions().collect();
        cache.prepare_with_stats(&g, text).unwrap();
        let mut a = refined;
        let mut b = fresh.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        assert_eq!(cache.len(), 2);

        // A mutation invalidates: the next lookup replans and sees the
        // new triple.
        g.insert(&Triple::new(iri("ID9"), iri("type"), iri("GradStudent")));
        g.insert(&Triple::new(iri("ID9"), iri("advisor"), iri("ID1")));
        let after: Vec<Vec<Term>> = cache.prepare(&g, text).unwrap().solutions().collect();
        assert_eq!(after.len(), fresh.len() + 1);
        assert_eq!(cache.misses(), 3, "mutation forces a re-preparation");
        assert_eq!(cache.len(), 1, "stale entries dropped wholesale");
    }

    #[test]
    fn plan_cache_hit_skips_store_probes_and_explains_identically() {
        let g = figure1_graph();
        let text = r#"SELECT ?who ?adv WHERE {
            ?who <http://x/type> <http://x/GradStudent> .
            ?who <http://x/advisor> ?adv .
        }"#;
        // Every store call the planner makes (its per-pattern estimate
        // probes included) is counted; a cache hit must make none.
        let spy = Dataset::from_parts(g.dict().clone(), crate::support::Counting::new(g.store()));
        let mut cache = PlanCache::new();

        let miss_explain = cache.prepare(&spy, text).unwrap().explain();
        let after_miss = spy.store().probes();
        assert!(after_miss >= 2, "planning probes each of the two patterns");

        let hit_explain = cache.prepare(&spy, text).unwrap().explain();
        assert_eq!(
            spy.store().probes(),
            after_miss,
            "a cache hit must not touch the store at preparation time"
        );
        assert_eq!(hit_explain, miss_explain, "hit and miss render the same plan");
    }

    #[test]
    fn plan_cache_invalidates_when_the_dictionary_learns_a_term() {
        let mut g = figure1_graph();
        // The constant is unknown, so the plan is statically empty.
        let text = r#"SELECT ?s WHERE { ?s <http://x/advisor> <http://x/Newcomer> . }"#;
        let mut cache = PlanCache::new();
        let empty = cache.prepare(&g, text).unwrap();
        assert!(empty.is_statically_empty());
        assert_eq!(empty.solutions().count(), 0);
        // Interning the term (via an insert) must invalidate the cached
        // statically-empty plan.
        g.insert(&Triple::new(iri("ID3"), iri("advisor"), iri("Newcomer")));
        let live = cache.prepare(&g, text).unwrap();
        assert!(!live.is_statically_empty());
        assert_eq!(live.solutions().count(), 1);
    }

    #[test]
    fn plan_cache_distinguishes_datasets_with_equal_versions() {
        // Two independently built datasets coincide on version (both
        // paid one insert), but intern different terms — a cached
        // plan's ids mean something else under the other dictionary.
        let mut g1 = GraphStore::new();
        g1.insert(&Triple::new(iri("ID1"), iri("advisor"), iri("Elder")));
        let mut g2 = GraphStore::new();
        g2.insert(&Triple::new(iri("ID2"), iri("advisor"), iri("Newcomer")));
        assert_eq!(g1.version(), g2.version());

        let text = r#"SELECT ?s WHERE { ?s <http://x/advisor> <http://x/Newcomer> . }"#;
        let mut cache = PlanCache::new();
        // Against g1 the constant is unknown: statically empty, cached.
        assert_eq!(cache.prepare(&g1, text).unwrap().solutions().count(), 0);
        // Against g2 — same version number — the cache must re-plan
        // rather than serve g1's statically-empty plan.
        let rows: Vec<Vec<Term>> = cache.prepare(&g2, text).unwrap().solutions().collect();
        assert_eq!(rows, vec![vec![iri("ID2")]]);
        assert_eq!(cache.misses(), 2, "a different dataset is a miss, whatever its version");
    }

    impl PlanCache {
        /// Whether the cache holds `text`'s plain and stats-mode plans.
        fn held(&self, text: &str) -> [bool; 2] {
            let hash = self.hasher.hash_one(text) as u32;
            self.find(hash, text)
                .map_or([false; 2], |at| self.entries[at].plans.each_ref().map(Option::is_some))
        }
    }

    #[test]
    fn eviction_is_invisible_to_answers() {
        const CAPACITY: usize = 8;
        let g = star_graph();
        let stats = g.stats();
        let texts: Vec<String> = (0..12)
            .map(|i| format!("SELECT ?p ?o WHERE {{ <http://x/S{i}> ?p ?o . }}"))
            .chain((1..=12).map(|limit| format!("{STAR_QUERY} LIMIT {limit}")))
            .collect();
        let mut cache = PlanCache::with_capacity(CAPACITY);
        let mut asked = [vec![false; texts.len()], vec![false; texts.len()]];
        let mut returns_after_eviction = 0;
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..2_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let (i, mode) = ((state % texts.len() as u64) as usize, (state >> 32) as usize & 1);
            let text = &texts[i];
            let before: Vec<[bool; 2]> = texts.iter().map(|t| cache.held(t)).collect();
            let (hits, misses) = (cache.hits(), cache.misses());
            let (cached, fresh) = match mode {
                0 => (cache.prepare(&g, text), prepare_on(g.store(), g.dict(), text)),
                _ => (cache.prepare_with_stats(&g, text), g.prepare_with_stats(text, Some(&stats))),
            };
            assert_eq!(cached.unwrap().run(), fresh.unwrap().run(), "{text}");

            let held = before[i][mode];
            assert_eq!(
                (cache.hits() - hits, cache.misses() - misses),
                (u64::from(held), u64::from(!held))
            );
            if !held && std::mem::replace(&mut asked[mode][i], true) {
                returns_after_eviction += 1;
            }
            assert!(cache.entries.len() <= CAPACITY && cache.len() <= 2 * CAPACITY);
            // Every entry is found where it is, and the table holds no other.
            for (at, entry) in cache.entries.iter().enumerate() {
                assert_eq!(cache.find(entry.hash, &entry.text), Some(at), "{}", entry.text);
            }
            let linked = cache.table.iter().filter(|&&slot| slot != NO_ENTRY).count();
            assert_eq!(linked, cache.entries.len());
            for (t, was) in texts.iter().zip(&before) {
                let now = cache.held(t);
                let kept = now[0] >= was[0] && now[1] >= was[1];
                assert!(now == [false; 2] || kept, "{t}: held {was:?}, now {now:?}");
            }
        }
        assert!(returns_after_eviction > 100, "{returns_after_eviction} returns after eviction");
        assert!(cache.hits() > 100, "{} hits", cache.hits());
    }

    #[test]
    fn a_hit_gives_its_entry_a_second_chance() {
        let g = figure1_graph();
        let text = |s: &str| format!("SELECT ?p ?o WHERE {{ <http://x/{s}> ?p ?o . }}");
        let mut cache = PlanCache::with_capacity(2);
        for s in ["ID1", "ID2", "ID1"] {
            cache.prepare(&g, &text(s)).unwrap();
        }
        // The cache is full and ID1 was hit: ID2 goes, though it came later.
        cache.prepare(&g, &text("ID3")).unwrap();
        assert_eq!(cache.held(&text("ID1")), [true, false]);
        assert_eq!(cache.held(&text("ID2")), [false, false]);
        // Passing over ID1 cleared its bit, so it goes next.
        cache.prepare(&g, &text("ID4")).unwrap();
        assert_eq!(cache.held(&text("ID1")), [false, false]);
        assert_eq!(cache.held(&text("ID3")), [true, false]);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 4, 2));
    }

    /// A mutable store counting the statistics the planner asks it for.
    #[derive(Default)]
    struct StatsSpy {
        inner: hexastore::OverlayHexastore,
        calls: std::cell::Cell<usize>,
    }

    impl TripleStore for StatsSpy {
        fn name(&self) -> &'static str {
            "StatsSpy"
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn insert(&mut self, t: hex_dict::IdTriple) -> bool {
            self.inner.insert(t)
        }
        fn remove(&mut self, t: hex_dict::IdTriple) -> bool {
            self.inner.remove(t)
        }
        fn contains(&self, t: hex_dict::IdTriple) -> bool {
            self.inner.contains(t)
        }
        fn iter_matching(&self, pat: hexastore::IdPattern) -> hexastore::TripleIter<'_> {
            self.inner.iter_matching(pat)
        }
        fn capabilities(&self) -> hexastore::IndexSet {
            self.inner.capabilities()
        }
        fn heap_bytes(&self) -> usize {
            self.inner.heap_bytes()
        }
    }

    impl hexastore::MutableStore for StatsSpy {}

    impl hexastore::StatsSource for StatsSpy {
        fn dataset_stats(&self) -> DatasetStats {
            self.calls.set(self.calls.get() + 1);
            DatasetStats::from_store(&self.inner)
        }
    }

    #[test]
    fn stats_mode_misses_compute_the_statistics_once_per_version() {
        let mut ds: Dataset<StatsSpy> = Dataset::new();
        ds.insert(&Triple::new(iri("ID3"), iri("advisor"), iri("ID2")));
        let text = |limit: usize| {
            format!("SELECT ?s WHERE {{ ?s <http://x/advisor> ?a . }} LIMIT {limit}")
        };
        let mut cache = PlanCache::new();
        for limit in 1..=100 {
            assert_eq!(cache.prepare_with_stats(&ds, &text(limit)).unwrap().run().len(), 1);
        }
        assert_eq!((cache.misses(), ds.store().calls.get()), (100, 1));

        ds.insert(&Triple::new(iri("ID4"), iri("advisor"), iri("ID1")));
        for limit in 1..=2 {
            assert_eq!(cache.prepare_with_stats(&ds, &text(limit)).unwrap().run().len(), limit);
        }
        assert_eq!((cache.misses(), ds.store().calls.get()), (102, 2));
    }

    #[test]
    fn dataset_query_trait_runs_on_every_facade() {
        let g = figure1_graph();
        let text = r#"SELECT ?p WHERE { <http://x/ID2> ?p "MIT" . }"#;
        let reference = g.query(text).unwrap();
        assert_eq!(reference.rows, vec![vec![iri("worksFor")]]);
        let frozen = g.freeze();
        assert_eq!(frozen.query(text).unwrap(), reference);
        assert!(frozen.ask(r#"ASK { <http://x/ID3> <http://x/advisor> ?a . }"#).unwrap());
        // TSV renderings are byte-identical across the two facades.
        assert_eq!(frozen.query(text).unwrap().to_tsv(), reference.to_tsv());
    }

    #[test]
    fn ask_plan_yields_at_most_one_row() {
        let g = figure1_graph();
        let plan = prepare_on(g.store(), g.dict(), r#"ASK { ?s <http://x/type> ?t . }"#).unwrap();
        let rows: Vec<Vec<Term>> = plan.solutions().collect();
        assert_eq!(rows, vec![Vec::<Term>::new()]);
        assert!(plan.explain().starts_with("query: ASK\n"));
    }

    /// Twelve students typed Student, the even ones in dept CS, everyone
    /// with an advisor — a star join over `?s`.
    fn star_graph() -> GraphStore {
        let mut g = GraphStore::new();
        for i in 0..12 {
            let s = iri(&format!("S{i}"));
            g.insert(&Triple::new(s.clone(), iri("type"), iri("Student")));
            if i % 2 == 0 {
                g.insert(&Triple::new(s.clone(), iri("dept"), iri("CS")));
            }
            g.insert(&Triple::new(s, iri("advisor"), iri(&format!("P{}", i % 3))));
        }
        g
    }

    const STAR_QUERY: &str = r#"SELECT ?s ?a WHERE {
        ?s <http://x/type> <http://x/Student> .
        ?s <http://x/dept> <http://x/CS> .
        ?s <http://x/advisor> ?a .
    }"#;

    #[test]
    fn explain_tags_join_choice() {
        let g = star_graph().freeze();
        let plan = prepare_on(g.store(), g.dict(), STAR_QUERY).unwrap();
        let text = plan.explain();
        assert_eq!(text.matches("join=merge").count(), 2, "{text}");
        assert_eq!(text.matches("join=nested").count(), 1, "{text}");
        let nested =
            prepare_on(g.store(), g.dict(), r#"SELECT ?a WHERE { ?s <http://x/advisor> ?a . }"#)
                .unwrap();
        let text = nested.explain();
        assert!(text.contains("join=nested"), "{text}");
        assert!(!text.contains("join=merge"), "{text}");
    }

    #[test]
    fn forcing_nested_joins_is_byte_identical() {
        let g = star_graph();
        let merged = prepare_on(g.store(), g.dict(), STAR_QUERY).unwrap();
        let mut nested = prepare_on(g.store(), g.dict(), STAR_QUERY).unwrap();
        nested.force_nested_joins();
        assert!(!nested.explain().contains("join=merge"), "{}", nested.explain());
        let a = merged.run();
        let b = nested.run();
        assert_eq!(a, b, "same rows in the same order");
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn forcing_nested_joins_on_a_cache_hit_leaves_the_cached_plan_alone() {
        // A hit shares the cached body; forcing it nested must copy it.
        let frozen = star_graph().freeze();
        let mut cache = PlanCache::new();
        let cached = cache.prepare(&frozen, STAR_QUERY).unwrap().explain();
        assert!(cached.contains("join=merge"), "{cached}");
        let mut nested = cache.prepare(&frozen, STAR_QUERY).unwrap();
        nested.force_nested_joins();
        assert!(!nested.explain().contains("join=merge"), "{}", nested.explain());

        let again = cache.prepare(&frozen, STAR_QUERY).unwrap();
        assert!(again.steps().iter().any(|s| s.join == exec::JoinStep::MergeIntersect));
        assert_eq!(again.explain(), cached);
        assert_eq!(nested.run(), again.run());
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }

    #[test]
    fn merge_plans_compose_with_modifiers_and_filters() {
        let g = star_graph();
        let cases = [
            r#"SELECT ?s ?a WHERE {
                ?s <http://x/type> <http://x/Student> .
                ?s <http://x/dept> <http://x/CS> .
                ?s <http://x/advisor> ?a .
            } OFFSET 1 LIMIT 3"#,
            r#"SELECT DISTINCT ?a WHERE {
                ?s <http://x/type> <http://x/Student> .
                ?s <http://x/dept> <http://x/CS> .
                ?s <http://x/advisor> ?a .
            }"#,
            r#"SELECT ?s WHERE {
                ?s <http://x/type> <http://x/Student> .
                ?s <http://x/dept> <http://x/CS> .
                FILTER(?s != <http://x/S0>)
            }"#,
        ];
        for text in cases {
            let merged = prepare_on(g.store(), g.dict(), text).unwrap();
            let mut nested = prepare_on(g.store(), g.dict(), text).unwrap();
            nested.force_nested_joins();
            assert_eq!(merged.run(), nested.run(), "{text}");
        }
    }

    #[test]
    fn rebinding_a_merge_plan_to_an_overlay_falls_back_at_runtime() {
        // Prepare against the frozen base (merge group compiles), then
        // run the same compiled query against an overlay holding one
        // extra CS student: the overlay serves no sorted lists, so the
        // runtime check must take the nested walk — and see the delta.
        let g = star_graph();
        let frozen = g.freeze();
        let plan = frozen.prepare(STAR_QUERY).unwrap();
        assert!(plan.explain().contains("join=merge"));
        let base = plan.run();
        assert_eq!(base.len(), 6);

        let mut overlay = hexastore::OverlayHexastore::new(g.store().clone().freeze());
        let mut dict = g.dict().clone();
        let s = dict.encode(&iri("S13"));
        let ty = dict.encode(&iri("type"));
        let student = dict.encode(&iri("Student"));
        let dept = dict.encode(&iri("dept"));
        let cs = dict.encode(&iri("CS"));
        let adv = dict.encode(&iri("advisor"));
        let p = dict.encode(&iri("P0"));
        for (pp, oo) in [(ty, student), (dept, cs), (adv, p)] {
            overlay.insert(hex_dict::IdTriple::new(s, pp, oo));
        }
        let rebound = prepare_on(&overlay, &dict, STAR_QUERY).unwrap();
        assert!(!rebound.explain().contains("join=merge"), "{}", rebound.explain());
        assert_eq!(rebound.run().len(), base.len() + 1);
    }
}
