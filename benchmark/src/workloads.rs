//! Set-up shared by the four workloads, and the timed sections of
//! `bulk_load`, `lookup` and `analytic` (`live_serve` is in `live.rs`).

use crate::answer::{Client, QueryLog, RefBook};
use crate::counting::Counting;
use crate::data::{self, LookupStream, Query, Scale};
use crate::load::{self, LoadStats};
use crate::report::{ClientStats, Outcome, WorkCounts};
use crate::stats::median;
use crate::trace::Tracer;
use hex_baselines::TriplesTable;
use hex_dict::{Dictionary, IdTriple};
use hexastore::{Dataset, FrozenGraphStore};
use rdf_model::Triple;
use std::path::PathBuf;
use std::time::Instant;

/// Fewest rounds a timed section runs, however short `--seconds` is:
/// enough for a 99th percentile with ten samples beyond it, and the fixed
/// prefix over which a traced run takes its work counts. `--check` runs
/// the second number and stops. A round is [`LOOKUP_WINDOW`] lookups, one
/// pass of the twelve, or one load-and-reopen repetition.
pub const LOOKUPS: (u64, u64) = (20, 2);
pub const PASSES: (u64, u64) = (84, 3);
pub const LOAD_REPS: (u64, u64) = (10, 2);
/// Lookups per round of the timed section, and per window of the rates
/// (see `QueryLog::window_rates`); the other workloads' windows are one
/// pass and one restart tail.
pub const LOOKUP_WINDOW: usize = 1000;
/// Queries a lookup log has room for from the start (see
/// `QueryLog::with_room_for`): several times what 25 s of them come to.
pub const LOG_ROOM: usize = 1 << 23;

#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// Measure for this many seconds, and at least the minimum counts.
    Timed(f64),
    /// `--check`: fixed counts at `D50k`, answers compared with a
    /// `TriplesTable` oracle.
    Check,
}

pub struct Ctx {
    pub seed: u64,
    pub mode: Mode,
    pub traced: bool,
    /// Scratch directory of this workload, inside `benchmark/out/`.
    pub work: PathBuf,
    /// `--inject drop-row`: the harness drops one row of one answer, which
    /// the run must then report as a failed operation.
    pub drop_row: bool,
}

impl Ctx {
    pub fn scale(&self, timed: Scale) -> Scale {
        if self.mode == Mode::Check {
            data::D50K
        } else {
            timed
        }
    }

    /// The operation count at which work counts are taken.
    pub fn prefix(&self, (timed, check): (u64, u64)) -> u64 {
        if self.mode == Mode::Check {
            check
        } else {
            timed
        }
    }

    /// True while a timed section should go on, `n` operations in.
    pub fn more(&self, started: Instant, n: u64, counts: (u64, u64)) -> bool {
        match self.mode {
            Mode::Timed(s) => n < counts.0 || started.elapsed().as_secs_f64() < s,
            Mode::Check => n < counts.1,
        }
    }
}

/// What the set-up leaves for the timed section, and what it measured.
pub struct Prepared {
    pub triples_generated: usize,
    /// `live_serve`: the triples held back as the churn window.
    pub churn: Vec<Triple>,
    /// The triples loaded (for `live_serve`, the base generation only),
    /// as N-Triples.
    pub text: String,
    /// The in-memory store the load pipeline built from `text`: the store
    /// under test in `lookup` and `analytic`, the base generation of
    /// `live_serve`, the reference in `bulk_load`.
    pub ds: FrozenGraphStore,
    /// `--check` only: the independent oracle answers are compared with.
    pub oracle: Option<Dataset<TriplesTable>>,
    pub paper: Vec<Query>,
    pub stream: LookupStream,
    pub setup_s: f64,
    pub load: LoadStats,
}

/// References come from the `--check` oracle when there is one, else
/// from the in-memory store (run with nested joins).
pub fn refbook<'a>(
    oracle: &'a Option<Dataset<TriplesTable>>,
    ds: &'a FrozenGraphStore,
) -> RefBook<'a> {
    match oracle {
        Some(oracle) => RefBook::new(oracle),
        None => RefBook::new(ds),
    }
}

fn oracle_of(triples: &[Triple]) -> Dataset<TriplesTable> {
    let mut dict = Dictionary::new();
    let ids: Vec<IdTriple> = triples.iter().map(|t| dict.encode_triple(t)).collect();
    Dataset::from_parts(dict, TriplesTable::from_triples(ids))
}

/// The set-up, once per run and the same for every workload: generate
/// the inputs, render them as N-Triples, run the load pipeline on the
/// text, which leaves the store and the snapshot file `setup.hexsnap`.
/// `churn_share` of the triples is held back (`live_serve`). The
/// generated triples are dropped before the load, so that the process's
/// peak memory is the pipeline's.
pub fn prepare(ctx: &Ctx, scale: Scale, churn_share: f64, tr: &mut Tracer) -> Prepared {
    std::fs::create_dir_all(&ctx.work).expect("work directory");
    let t = Instant::now();
    let (inputs, churn) =
        tr.span("setup.generate", |_| data::generate(scale, ctx.seed).hold_back(churn_share));
    let stream = LookupStream::new(&inputs, ctx.seed);
    let text = tr.span("setup.render", |_| rdf_model::write_document(&inputs.triples));
    let oracle = (ctx.mode == Mode::Check).then(|| oracle_of(&inputs.triples));
    let triples_generated = inputs.triples.len() + churn.len();
    drop(inputs);
    let (ds, load) = load::load(&text, &ctx.work.join("setup.hexsnap"), tr);
    let paper = data::paper_queries(ds.dict());
    let setup_s = t.elapsed().as_secs_f64();
    Prepared { triples_generated, churn, text, ds, oracle, paper, stream, setup_s, load }
}

/// Notes every result file carries: what was loaded and for how long.
pub fn describe(out: &mut Outcome, ctx: &Ctx, scale: Scale, p: &Prepared) {
    out.note("seed", ctx.seed);
    out.note("dataset", scale.name);
    out.note("triples_generated", p.triples_generated);
    out.note("triples_loaded", p.load.triples_in);
    out.note("ntriples_bytes", p.text.len());
    if let Mode::Timed(s) = ctx.mode {
        out.note("seconds", s);
    }
}

/// `bulk_load`: repetitions of load pipeline → drop → restart tail.
pub fn bulk_load(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let scale = ctx.scale(data::D500K);
    let mut p = prepare(ctx, scale, 0.0, tr);
    let path = ctx.work.join("rep.hexsnap");
    let mut refs = refbook(&p.oracle, &p.ds);
    let mut log = QueryLog::default();
    let mut warm_log = QueryLog::default();
    let (mut rate, mut reopen_ms, mut rep_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_load = p.load;
    let mut clients = ClientStats::default();
    let (mut counts, mut fixed) = (WorkCounts::default(), None);
    let started = Instant::now();
    let mut reps = 0;
    while ctx.more(started, reps, LOAD_REPS) {
        let t = Instant::now();
        tr.span("bulk_load.rep", |tr| {
            let (ds, stats) = load::load(&p.text, &path, tr);
            rate.push(stats.triples_per_s());
            last_load = stats;
            if tr.enabled {
                load::frozen_warm_pass(&ds, &p.paper, &mut refs, &mut warm_log, tr);
            }
            drop(ds);
            let r = load::restart(
                &path,
                &p.paper,
                &mut p.stream,
                &mut refs,
                &mut log,
                ctx.drop_row,
                tr,
            );
            reopen_ms.push(r.first_answer_s * 1e3);
            clients.add(&r.clients);
            counts.add(&r.counts);
        });
        rep_s.push(t.elapsed().as_secs_f64());
        reps += 1;
        if reps == ctx.prefix(LOAD_REPS) {
            fixed = Some(counts);
        }
    }
    drop(refs);
    let mut out = Outcome::new("bulk_load");
    describe(&mut out, ctx, scale, &p);
    out.note("timed_reps", reps);
    out.universal(p.setup_s, &last_load, &log, p.paper.len() + load::RESTART_BURST);
    let of = |n: usize, what: &str| format!("median of {n} {what}");
    out.add_extra("load_triples_per_s", median(&rate), "1/s", of(rate.len(), "load pipelines"));
    out.add_extra(
        "reopen_first_answer_ms",
        median(&reopen_ms),
        "ms",
        of(reopen_ms.len(), "reopens: hex_disk::open + the twelve paper queries once"),
    );
    out.add_extra(
        "rep_s",
        median(&rep_s),
        "s",
        of(rep_s.len(), "repetitions: load, reopen, 250 answers"),
    );
    if ctx.traced {
        out.layers(tr, &last_load, &clients, fixed.expect("fixed prefix"), Vec::new());
    }
    out.count_ops(&[&log, &warm_log], 0, 0);
    out
}

/// `lookup` (`paper == false`): one client, the selective-query stream.
/// `analytic` (`paper == true`): one client, the twelve paper queries
/// round-robin. Both on the in-memory frozen store through one
/// [`Client`], so both keep one plan cache for the whole section.
pub fn serve(ctx: &Ctx, paper: bool, tr: &mut Tracer) -> Outcome {
    let scale = ctx.scale(data::D500K);
    let mut p = prepare(ctx, scale, 0.0, tr);
    let mut refs = refbook(&p.oracle, &p.ds);
    for q in &p.paper {
        refs.expect(&q.text);
    }
    // A traced run queries the same slabs behind the counting adaptor.
    let counting = ctx
        .traced
        .then(|| Dataset::from_parts(p.ds.dict().clone(), Counting::new(p.ds.store().clone())));
    let mut client = Client::new();
    client.drop_row = ctx.drop_row;
    let mut log = QueryLog::with_room_for(if paper { 0 } else { LOG_ROOM });
    let mut pass_ms: Vec<f64> = Vec::new();
    let mut fixed = WorkCounts::default();
    let counts = if paper { PASSES } else { LOOKUPS };
    let window = if paper { p.paper.len() } else { LOOKUP_WINDOW };
    let started = Instant::now();
    let mut n = 0;
    while ctx.more(started, n, counts) {
        // One round: the twelve, or a window of lookups. Each answer is
        // judged and dropped before the next query runs, as a server
        // frees a response once it is sent: holding a round's answers
        // back makes every query allocate cold memory (measured: lookups
        // 40 % slower and no steadier).
        let first = log.lat_ns.len();
        for i in 0..window {
            let lookup;
            let q = if paper {
                &p.paper[i]
            } else {
                lookup = p.stream.next();
                &lookup
            };
            let got = match &counting {
                Some(ds) => client.answer(ds, q, tr),
                None => client.answer(&p.ds, q, tr),
            };
            log.record(q, &got, &mut refs);
        }
        if paper {
            pass_ms.push(log.lat_ns[first..].iter().sum::<u64>() as f64 / 1e6);
        }
        n += 1;
        if let (true, Some(ds)) = (n == ctx.prefix(counts), &counting) {
            let (probes, touched) = ds.store().counts();
            fixed = WorkCounts { probes, touched, queries: log.attempted(), rows: log.rows() };
        }
    }
    drop(refs);
    let mut out = Outcome::new(if paper { "analytic" } else { "lookup" });
    describe(&mut out, ctx, scale, &p);
    out.note(if paper { "timed_passes" } else { "timed_rounds_of_1000" }, n);
    out.universal(p.setup_s, &p.load, &log, window);
    if paper {
        let what = format!("median of {} passes of the twelve paper queries", pass_ms.len());
        out.add_extra("pass_p50_ms", median(&pass_ms), "ms", what);
    }
    if ctx.traced {
        out.layers(tr, &p.load, &ClientStats::of(&client), fixed, Vec::new());
    }
    out.count_ops(&[&log], 0, 0);
    out
}
