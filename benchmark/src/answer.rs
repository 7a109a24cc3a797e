//! One way to answer a query and judge the answer, shared by every
//! workload: the untraced request is `PlanCache::prepare` + `Plan::run`
//! under one timer; the traced request calls into each layer separately
//! under spans. Every answer is reduced to a [`Digest`] and compared with
//! a reference computed once per distinct text on another execution path.

use crate::data::Query;
use crate::trace::Tracer;
use hex_dict::Dictionary;
use hex_query::{PlanCache, QueryError, ResultSet};
use hexastore::{Dataset, TripleStore};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Row count plus an order-independent hash of the rows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

/// `DefaultHasher::new()` has fixed keys, so digests compare across runs.
pub fn digest(rs: &ResultSet) -> Digest {
    let mut hash = 0u64;
    for row in &rs.rows {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        hash = hash.wrapping_add(h.finish());
    }
    Digest { rows: rs.rows.len() as u64, hash }
}

/// Reference answers, computed lazily once per distinct query text by
/// running the same text with `force_nested_joins` on a reference store
/// (the in-memory frozen store for timed runs, a `TriplesTable` for
/// `--check`) — so merge-join plans, the mmap store and live snapshots
/// are each checked against a path they do not share.
pub struct RefBook<'a> {
    dict: &'a Dictionary,
    store: &'a dyn TripleStore,
    known: HashMap<String, Result<Digest, QueryError>>,
}

impl<'a> RefBook<'a> {
    pub fn new<S: TripleStore>(ds: &'a Dataset<S>) -> RefBook<'a> {
        RefBook { dict: ds.dict(), store: ds.store(), known: HashMap::new() }
    }

    pub fn expect(&mut self, text: &str) -> &Result<Digest, QueryError> {
        if !self.known.contains_key(text) {
            let reference = hex_query::prepare_on(self.store, self.dict, text).map(|mut plan| {
                plan.force_nested_joins();
                digest(&plan.run())
            });
            self.known.insert(text.to_string(), reference);
        }
        &self.known[text]
    }
}

/// Latencies and outcomes of the queries a run answered.
#[derive(Default)]
pub struct QueryLog {
    pub lat_ns: Vec<u64>,
    /// Rows each query returned (0 for a failed one), beside `lat_ns`.
    pub rows_each: Vec<u32>,
    pub failed: u64,
}

impl QueryLog {
    /// A log with room for `n` queries. The room is address space, not
    /// memory, until it is written; without it the vectors double as they
    /// grow, and whether a run crosses a doubling (both copies resident
    /// for a moment) would show as a step in `peak_rss_mb`.
    pub fn with_room_for(n: usize) -> QueryLog {
        QueryLog { lat_ns: Vec::with_capacity(n), rows_each: Vec::with_capacity(n), failed: 0 }
    }

    pub fn attempted(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    pub fn rows(&self) -> u64 {
        self.rows_each.iter().map(|&r| u64::from(r)).sum()
    }

    /// Records one answer and judges it against the reference. A query
    /// error or a wrong answer is a failed operation.
    pub fn record(&mut self, q: &Query, got: &Answered, refs: &mut RefBook<'_>) {
        let digest = got.digest();
        self.push(got.lat_ns, digest.as_ref().map_or(0, |d| d.rows));
        let right = matches!((&digest, refs.expect(&q.text)), (Ok(d), Ok(want)) if d == want);
        if !right {
            self.failed += 1;
            if self.failed <= 3 {
                eprintln!("FAILED {}: got {digest:?}, want {:?}", q.text, refs.expect(&q.text));
            }
        }
    }

    pub fn push(&mut self, lat_ns: u64, rows: u64) {
        self.lat_ns.push(lat_ns);
        self.rows_each.push(rows as u32);
    }

    /// Queries per second and rows per second of each window of `window`
    /// consecutive queries (queries or rows ÷ the window's summed
    /// latency). The medians of these are the rates of record: a burst of
    /// withheld CPU time spoils the windows it hits, not the run.
    pub fn window_rates(&self, window: usize) -> (Vec<f64>, Vec<f64>) {
        self.lat_ns
            .chunks_exact(window)
            .zip(self.rows_each.chunks_exact(window))
            .map(|(lat, rows)| {
                let busy_s = lat.iter().sum::<u64>() as f64 / 1e9;
                (lat.len() as f64 / busy_s, rows.iter().map(|&r| r as f64).sum::<f64>() / busy_s)
            })
            .unzip()
    }

    pub fn record_all(&mut self, qs: &[Query], got: &[Answered], refs: &mut RefBook<'_>) {
        for (q, a) in qs.iter().zip(got) {
            self.record(q, a, refs);
        }
    }
}

/// An answer as the program gave it, and how long it took. Digesting and
/// judging happen afterwards, outside every timer and span.
pub struct Answered {
    pub lat_ns: u64,
    pub result: Result<ResultSet, QueryError>,
}

impl Answered {
    pub fn digest(&self) -> Result<Digest, QueryError> {
        self.result.as_ref().map(digest).map_err(Clone::clone)
    }
}

/// A client's query path: its plan cache, and in a traced run the
/// hit/miss bookkeeping that lets the traced path know a miss before
/// `PlanCache::prepare` does.
pub struct Client {
    pub cache: PlanCache,
    /// Texts the cache holds for `planned_for`, mirrored from outside.
    texts: HashSet<String>,
    planned_for: Option<(u64, u64)>,
    pub invalidations: u64,
    pub merge_plans: u64,
    pub traced_requests: u64,
    /// Test hook for `--check`: drop one row from the next answer.
    pub drop_row: bool,
}

impl Client {
    pub fn new() -> Client {
        Client {
            cache: PlanCache::new(),
            texts: HashSet::new(),
            planned_for: None,
            invalidations: 0,
            merge_plans: 0,
            traced_requests: 0,
            drop_row: false,
        }
    }

    pub fn answer<S: TripleStore>(
        &mut self,
        ds: &Dataset<S>,
        q: &Query,
        tr: &mut Tracer,
    ) -> Answered {
        let t = Instant::now();
        let mut result = if tr.enabled { self.traced(ds, q, tr) } else { self.plain(ds, &q.text) };
        let mut lat_ns = t.elapsed().as_nanos() as u64;
        if let (true, Some(&class_ns)) = (tr.enabled, tr.totals(q.class).last()) {
            // The span that covers what the untraced request does; the
            // diagnostics around it are the tracer's cost, not the query's.
            lat_ns = class_ns;
        }
        if let (true, Ok(rs)) = (self.drop_row, &mut result) {
            self.drop_row = rs.rows.pop().is_none();
        }
        Answered { lat_ns, result }
    }

    fn plain<S: TripleStore>(
        &mut self,
        ds: &Dataset<S>,
        text: &str,
    ) -> Result<ResultSet, QueryError> {
        Ok(self.cache.prepare(ds, text)?.run())
    }

    /// The same request with a span around each layer. The span named
    /// after the query's class covers what the untraced request does
    /// (cache lookup, run). Around it sit the diagnostics: on a
    /// plan-cache miss `parse_query`, `compile` and `Plan::from_compiled`
    /// are first called on their own to time them apart (the cache then
    /// prepares again, which is tracing overhead), and after the run the
    /// answer's ids are decoded a second time, so that `exec.walk` can
    /// be reported as `plan.run` minus `solutions.decode`.
    fn traced<S: TripleStore>(
        &mut self,
        ds: &Dataset<S>,
        q: &Query,
        tr: &mut Tracer,
    ) -> Result<ResultSet, QueryError> {
        self.traced_requests += 1;
        tr.request += 1;
        let key = (ds.identity(), ds.version());
        if self.planned_for != Some(key) {
            if self.planned_for.is_some() {
                self.invalidations += 1;
            }
            self.texts.clear();
            self.planned_for = Some(key);
        }
        let miss = self.texts.insert(q.text.clone());
        tr.span("request", |tr| {
            if miss {
                let parsed = tr.span("parser.parse", |_| hex_query::parse_query(&q.text))?;
                let compiled =
                    tr.span("engine.compile", |_| hex_query::compile(&parsed, ds.dict()))?;
                tr.span("engine.plan", |_| {
                    hex_query::Plan::from_compiled(compiled, ds.dict(), ds.store());
                });
            }
            let rs = tr.span(q.class, |tr| {
                let cache = &mut self.cache;
                let name = if miss { "plan_cache.fill" } else { "plan_cache.hit" };
                let plan = tr.span(name, |_| cache.prepare(ds, &q.text))?;
                let merges = plan.query().bgp.as_ref().is_some_and(|bgp| {
                    hex_query::merge_group(bgp, plan.steps()).is_some()
                        && ds.store().sorted_lists().is_some()
                });
                self.merge_plans += u64::from(merges);
                Ok::<_, QueryError>(tr.span("plan.run", |_| plan.run()))
            })?;
            let ids: Vec<Vec<hex_dict::Id>> = rs
                .rows
                .iter()
                .map(|row| row.iter().map(|t| ds.dict().id_of(t).expect("answer term")).collect())
                .collect();
            tr.span("solutions.decode", |_| {
                let again: Vec<Vec<rdf_model::Term>> = ids
                    .iter()
                    .map(|row| row.iter().map(|&id| ds.dict().decode(id).expect("id")).collect())
                    .collect();
                std::hint::black_box(again);
            });
            Ok(rs)
        })
    }
}
