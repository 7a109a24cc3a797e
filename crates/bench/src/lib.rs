//! # hex-bench — the paper's figures, and the counts that repeat
//!
//! The paper's evaluation is thirteen figures: response time vs. number of
//! triples for seven Barton queries (Figs. 3–9) and five LUBM queries
//! (Figs. 10–14), plus memory consumption for both datasets (Fig. 15).
//! Every experiment sweeps *progressively larger prefixes* of a dataset
//! and plots each store's query response time on a log axis.
//!
//! This crate regenerates them, the §4.1 space and §4.3 path experiments,
//! and five measurements of this implementation (`plans`, `joins`,
//! `ask_early_exit`, `snapshot_size`, `plan_cache`). How fast the system *is* — load,
//! serving, live writes, cold open, per layer — is the business of the
//! benchmark of record (`bash benchmark/run.sh`), not of this crate.
//!
//! Everything hangs off one table, [`FIGURES`]: the `figures` binary
//! prints an entry's CSV, `bench_evidence` writes every entry's CSV and
//! gathers the entries' [`Count`]s — values that repeat to the byte on
//! any host — into `BENCH_ci.json` ([`collect_evidence`]). Wall-clock
//! goes to the CSVs only; CI gates on the counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod history;

use hex_baselines::{Covp1, Covp2};
use hex_bench_queries::barton::{self, BartonIds};
use hex_bench_queries::lubm::{self, LubmIds};
use hex_bench_queries::Suite;
use hex_datagen::{barton::BartonConfig, lubm::LubmConfig};
use hex_dict::Dictionary;
use hexastore::{Hexastore, IndexKind, TripleStore};
use rdf_model::Triple;
use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimal flag-parsing helpers shared by the two binaries (`figures`,
/// `bench_evidence`), so both speak the same `--flag value` grammar with
/// one error style.
pub mod cli {
    /// Takes the value following `flag`, or a "missing value" error.
    pub fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        it.next().ok_or_else(|| format!("missing value for {flag}"))
    }

    /// Takes and parses the numeric value following `flag`.
    pub fn parse_usize(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
        value(it, flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    }
}

/// Generates a Barton-like dataset of roughly `n_triples` statements
/// (truncated exactly to `n_triples` if the generator overshoots).
fn barton_dataset(n_triples: usize) -> Vec<Triple> {
    // The generator averages ~7.1 triples per record; /6 guarantees the
    // requested count is reached before truncation.
    let cfg = BartonConfig { records: n_triples / 6 + 1, ..BartonConfig::default() };
    let mut triples = hex_datagen::barton::generate(&cfg);
    triples.truncate(n_triples);
    triples
}

/// Generates a LUBM-like dataset of roughly `n_triples` statements.
fn lubm_dataset(n_triples: usize) -> Vec<Triple> {
    // ~30k triples per university with default shape parameters.
    let per_univ = 30_000;
    let universities = (n_triples / per_univ + 1).max(1);
    let cfg = LubmConfig { universities, ..LubmConfig::default() };
    let mut triples = hex_datagen::lubm::generate(&cfg);
    triples.truncate(n_triples);
    triples
}

/// Evenly spaced prefix sizes from `total / points` up to `total`.
fn prefix_points(total: usize, points: usize) -> Vec<usize> {
    assert!(points > 0);
    (1..=points).map(|i| total * i / points).collect()
}

/// The median of a set of timing samples: the statistic every figure in
/// this crate reports. Unlike the minimum it is robust in both
/// directions — one descheduled outlier does not poison the number, and
/// one improbably lucky run does not flatter it.
fn median(mut samples: Vec<Duration>) -> Duration {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times `f`, returning the median per-call duration over `reps`
/// measurement windows (after one warmup). Sub-microsecond queries (the
/// Hexastore's single-probe plans reach 1e-7 s, as in the paper's
/// log-scale plots) are batched until the window is long enough for the
/// clock to resolve.
fn time_query<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    black_box(f());
    let mut samples = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let mut batch: u32 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(2) || batch >= 1 << 20 {
                samples.push(elapsed / batch);
                break;
            }
            batch = batch.saturating_mul(4);
        }
    }
    median(samples)
}

/// The scales and repetition counts one run renders its figures at.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Dataset size in triples for the paper figures, `space`, `path`,
    /// `plans` and the first row of `joins`.
    pub triples: usize,
    /// Dataset size for the entries whose counts CI gates on
    /// (`ask_early_exit`, `snapshot_size`, the second row of `joins`).
    /// `figures` runs everything at one scale and sets it to `triples`.
    pub large_triples: usize,
    /// Number of dataset prefixes a sweep measures.
    pub points: usize,
    /// Measurement windows per timing (each reports their median).
    pub reps: usize,
    /// What the global allocator has counted so far, when the binary
    /// installs one that counts (`bench_evidence` does): the `plans` entry
    /// then reports each query's allocations per run, and `plan_cache`
    /// what a cached plan holds.
    pub allocator: Option<Allocator>,
}

/// Readers of a counting global allocator's totals.
#[derive(Clone, Copy, Debug)]
pub struct Allocator {
    /// Requests served so far (a `realloc` is one).
    pub requests: fn() -> usize,
    /// Bytes requested and not yet returned.
    pub live_bytes: fn() -> usize,
    /// Blocks allocated and not yet freed.
    pub live_blocks: fn() -> usize,
}

/// A value that repeats to the byte on any host: what `BENCH_ci.json`
/// holds and CI gates on. Timings never become a `Count`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Count {
    /// Rows, triples, bytes.
    Int(usize),
    /// A property that held or did not.
    Flag(bool),
    /// A quotient of two exact integers: bytes per triple, or the §4.1
    /// blowup.
    Ratio(f64),
}

impl fmt::Display for Count {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Count::Int(v) => write!(f, "{v}"),
            Count::Flag(v) => write!(f, "{v}"),
            Count::Ratio(v) => write!(f, "{v:.6}"),
        }
    }
}

/// One rendered figure: its CSV table(s), and the counts it contributes
/// to `BENCH_ci.json` (none for a figure that only times).
#[derive(Clone, Debug)]
pub struct Rendered {
    /// The figure as CSV, `#` comment line(s) first.
    pub csv: String,
    /// `(key, value)` pairs, in the order they are reported.
    pub counts: Vec<(String, Count)>,
}

impl Rendered {
    fn csv_only(csv: String) -> Self {
        Rendered { csv, counts: Vec::new() }
    }

    fn with_counts<K: Into<String>>(
        csv: String,
        counts: impl IntoIterator<Item = (K, Count)>,
    ) -> Self {
        Rendered {
            csv,
            counts: counts.into_iter().map(|(key, value)| (key.into(), value)).collect(),
        }
    }
}

/// One entry of [`FIGURES`].
pub struct FigureSpec {
    /// What `figures --figure` takes: a paper figure number or a name.
    pub id: &'static str,
    /// What the figure measures, for `--help` and CSV comment lines.
    pub title: &'static str,
    /// `bench_evidence` writes the CSV to `<stem>.csv` and files the
    /// counts under `"<stem>"` in `BENCH_ci.json`.
    pub stem: &'static str,
    /// Measures and renders the figure.
    pub render: fn(&FigureSpec, &Params) -> Rendered,
}

const fn spec(
    id: &'static str,
    title: &'static str,
    stem: &'static str,
    render: fn(&FigureSpec, &Params) -> Rendered,
) -> FigureSpec {
    FigureSpec { id, title, stem, render }
}

/// Every figure this crate can render — the one place figure ids are
/// known. `figures` and `bench_evidence` both loop over it.
pub const FIGURES: [FigureSpec; 20] = [
    spec("3", "Barton Query 1", "figure_3", |f, p| {
        barton_sweep(f, p, trio("", barton::bq1_indexed, barton::bq1_covp1, barton::bq1_indexed))
    }),
    spec("4", "Barton Query 2 (full + 28-property)", "figure_4", |f, p| {
        barton_sweep(f, p, trio_28(barton::bq2_hexastore, barton::bq2_covp1, barton::bq2_covp2))
    }),
    spec("5", "Barton Query 3 (full + 28-property)", "figure_5", |f, p| {
        barton_sweep(f, p, trio_28(barton::bq3_hexastore, barton::bq3_covp1, barton::bq3_covp2))
    }),
    spec("6", "Barton Query 4 (full + 28-property)", "figure_6", |f, p| {
        barton_sweep(f, p, trio_28(barton::bq4_hexastore, barton::bq4_covp1, barton::bq4_covp2))
    }),
    spec("7", "Barton Query 5", "figure_7", |f, p| {
        barton_sweep(f, p, trio("", barton::bq5_hexastore, barton::bq5_covp1, barton::bq5_covp2))
    }),
    spec("8", "Barton Query 6 (full + 28-property)", "figure_8", |f, p| {
        barton_sweep(f, p, trio_28(barton::bq6_hexastore, barton::bq6_covp1, barton::bq6_covp2))
    }),
    spec("9", "Barton Query 7", "figure_9", |f, p| {
        barton_sweep(f, p, trio("", barton::bq7_indexed, barton::bq7_covp1, barton::bq7_indexed))
    }),
    spec("10", "LUBM Query 1", "figure_10", |f, p| {
        lubm_sweep(f, p, trio("", lubm::lq1_hexastore, lubm::lq1_covp1, lubm::lq1_covp2))
    }),
    spec("11", "LUBM Query 2", "figure_11", |f, p| {
        lubm_sweep(f, p, trio("", lubm::lq2_hexastore, lubm::lq2_covp1, lubm::lq2_covp2))
    }),
    spec("12", "LUBM Query 3", "figure_12", |f, p| {
        lubm_sweep(f, p, trio("", lubm::lq3_hexastore, lubm::lq3_covp1, lubm::lq3_covp2))
    }),
    spec("13", "LUBM Query 4", "figure_13", |f, p| {
        lubm_sweep(f, p, trio("", lubm::lq4_hexastore, lubm::lq4_covp1, lubm::lq4_covp2))
    }),
    spec("14", "LUBM Query 5", "figure_14", |f, p| {
        lubm_sweep(f, p, trio("", lubm::lq5_hexastore, lubm::lq5_covp1, lubm::lq5_covp2))
    }),
    spec("15", "Memory consumption (both datasets)", "figure_15_memory", |_, p| {
        Rendered::csv_only(memory_report(p.triples, p.points))
    }),
    spec("space", "§4.1 worst-case five-fold space bound", "space", |_, p| {
        space_report(p.triples)
    }),
    spec("path", "§4.3 path expressions: merge vs sort-merge joins", "path", |_, p| {
        Rendered::csv_only(path_report(p.triples))
    }),
    spec(
        "plans",
        "Twelve paper queries through prepare: hand plan vs planner, stats off/on",
        "query_plans",
        plans_rendered,
    ),
    spec(
        "joins",
        "Merge joins: sorted-list intersection vs nested probes (star/chain + paper queries)",
        "joins",
        joins_rendered,
    ),
    spec(
        "ask_early_exit",
        "ASK early exit: streamed Plan::solutions() vs materializing execute_bgp",
        "ask_early_exit",
        ask_rendered,
    ),
    spec(
        "snapshot_size",
        "hexsnap file size, dictionary included: plain vs compressed slabs (bytes per triple), and the dictionary's bytes",
        "snapshot_size",
        snapshot_size_rendered,
    ),
    spec(
        "plan_cache",
        "Plan cache: what a cached plan holds, and the entry bound after 70,000 texts",
        "plan_cache",
        plan_cache_rendered,
    ),
];

/// The table entry with this id.
pub fn figure(id: &str) -> Option<&'static FigureSpec> {
    FIGURES.iter().find(|f| f.id == id)
}

/// One store's hand-written plan of a paper query, results discarded.
type Series<I> = (String, Box<dyn Fn(&Suite, &I)>);

/// The three stores' plans of one paper query as the figure's series,
/// labelled with the store's name plus `suffix`.
fn trio<I: 'static, R>(
    suffix: &str,
    hex: impl Fn(&Hexastore, &I) -> R + 'static,
    covp1: impl Fn(&Covp1, &I) -> R + 'static,
    covp2: impl Fn(&Covp2, &I) -> R + 'static,
) -> Vec<Series<I>> {
    vec![
        (format!("Hexastore{suffix}"), Box::new(move |s, i| drop(black_box(hex(&s.hexastore, i))))),
        (format!("COVP1{suffix}"), Box::new(move |s, i| drop(black_box(covp1(&s.covp1, i))))),
        (format!("COVP2{suffix}"), Box::new(move |s, i| drop(black_box(covp2(&s.covp2, i))))),
    ]
}

/// [`trio`] for the Barton queries the paper also runs restricted to the
/// 28 "interesting" properties: the full series, then the ` 28` ones.
fn trio_28<R: 'static>(
    hex: fn(&Hexastore, &BartonIds, Option<&[hex_dict::Id]>) -> R,
    covp1: fn(&Covp1, &BartonIds, Option<&[hex_dict::Id]>) -> R,
    covp2: fn(&Covp2, &BartonIds, Option<&[hex_dict::Id]>) -> R,
) -> Vec<Series<BartonIds>> {
    let mut series = trio(
        "",
        move |h, i| hex(h, i, None),
        move |c, i| covp1(c, i, None),
        move |c, i| covp2(c, i, None),
    );
    series.extend(trio(
        " 28",
        move |h, i: &BartonIds| hex(h, i, Some(&i.interesting)),
        move |c, i: &BartonIds| covp1(c, i, Some(&i.interesting)),
        move |c, i: &BartonIds| covp2(c, i, Some(&i.interesting)),
    ));
    series
}

/// Regenerates one response-time figure: loads progressively larger
/// prefixes of `data` into every store and times each series on each,
/// one CSV row per prefix whose dictionary binds the query constants.
fn sweep<I>(
    fig: &FigureSpec,
    p: &Params,
    data: &[Triple],
    resolve: fn(&Dictionary) -> Option<I>,
    series: Vec<Series<I>>,
) -> Rendered {
    let mut csv = format!("# Figure {} — {}\ntriples", fig.id, fig.title);
    for (label, _) in &series {
        csv.push(',');
        csv.push_str(label);
    }
    csv.push('\n');
    for prefix in prefix_points(data.len(), p.points) {
        let suite = Suite::build(&data[..prefix]);
        let Some(ids) = resolve(&suite.dict) else { continue };
        csv.push_str(&prefix.to_string());
        for (_, plan) in &series {
            let time = time_query(p.reps, || plan(&suite, &ids));
            csv.push_str(&format!(",{:.3e}", time.as_secs_f64()));
        }
        csv.push('\n');
    }
    Rendered::csv_only(csv)
}

fn barton_sweep(fig: &FigureSpec, p: &Params, series: Vec<Series<BartonIds>>) -> Rendered {
    sweep(fig, p, &barton_dataset(p.triples), BartonIds::resolve, series)
}

fn lubm_sweep(fig: &FigureSpec, p: &Params, series: Vec<Series<LubmIds>>) -> Rendered {
    sweep(fig, p, &lubm_dataset(p.triples), LubmIds::resolve, series)
}

/// Figure 15: deep heap megabytes per store per prefix, one table per
/// dataset (a blank line after each).
fn memory_report(scale: usize, points: usize) -> String {
    let mut out = String::new();
    for (dataset, data) in [("barton", barton_dataset(scale)), ("lubm", lubm_dataset(scale))] {
        out.push_str(&format!("# Figure 15 — Memory consumption, {dataset} dataset (MB)\n"));
        out.push_str("triples,Hexastore,COVP1,COVP2,TriplesTable\n");
        for (prefix, bytes) in memory_rows(&data, points) {
            out.push_str(&prefix.to_string());
            for b in bytes {
                out.push_str(&format!(",{:.2}", b as f64 / (1024.0 * 1024.0)));
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Heap bytes of Hexastore, COVP1, COVP2 and the triples table, per prefix.
fn memory_rows(data: &[Triple], points: usize) -> Vec<(usize, [usize; 4])> {
    prefix_points(data.len(), points)
        .into_iter()
        .map(|prefix| {
            let suite = Suite::build(&data[..prefix]);
            let bytes = [
                suite.hexastore.heap_bytes(),
                suite.covp1.heap_bytes(),
                suite.covp2.heap_bytes(),
                suite.table.heap_bytes(),
            ];
            (prefix, bytes)
        })
        .collect()
}

/// One ASK early-exit measurement: the same existence check answered by
/// the streaming plan (`Plan::solutions().next()`, stops at the first
/// row) and by the old materializing path (`execute_bgp` collects every
/// binding row, then tests emptiness).
#[derive(Clone, Debug)]
struct AskRow {
    /// Number of triples in the loaded store.
    triples: usize,
    /// Binding rows the materializing path produces before answering.
    matches: usize,
    /// Wall-clock of the streamed ASK.
    streamed: Duration,
    /// Wall-clock of the materializing ASK.
    materialized: Duration,
}

impl AskRow {
    /// Materialized time over streamed time (>1 means streaming won).
    fn speedup(&self) -> f64 {
        self.materialized.as_secs_f64() / self.streamed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Measures the ASK early-exit gain on a loaded LUBM dataset: `ASK { ?x
/// <type> ?t . }` matches one row per typed resource, so the
/// materializing path enumerates thousands of rows while the streamed
/// plan stops at the first.
fn ask_early_exit(scale: usize, reps: usize) -> AskRow {
    use hex_query::{Bgp, CompiledQuery, Pattern, PatternTerm, Plan, VarId};
    let data = lubm_dataset(scale);
    let suite = Suite::build(&data);
    let p_type = ids_of(&suite, "type");
    let bgp = Bgp::new(vec![Pattern::new(
        PatternTerm::Var(VarId(0)),
        PatternTerm::Const(p_type),
        PatternTerm::Var(VarId(1)),
    )]);
    let q = CompiledQuery {
        bgp: Some(bgp.clone()),
        slots: Box::default(),
        var_names: ["x", "t"].into_iter().collect(),
        distinct: false,
        filters: Box::default(),
        ask: true,
        limit: None,
        offset: 0,
    };
    let plan = Plan::from_compiled(q, &suite.dict, &suite.hexastore);
    let streamed = time_query(reps, || plan.solutions().next().is_some());
    let materialized =
        time_query(reps, || !hex_query::execute_bgp(&suite.hexastore, &bgp).is_empty());
    let matches = suite.hexastore.count_matching(hexastore::IdPattern::p(p_type));
    AskRow { triples: suite.len(), matches, streamed, materialized }
}

/// Renders the ASK early-exit measurement as a one-row CSV.
fn ask_to_csv(row: &AskRow) -> String {
    format!(
        "# ASK early exit — streamed Plan::solutions() vs materializing execute_bgp, lubm \
         dataset\ntriples,matches,streamed_s,materialized_s,speedup\n{},{},{:.9},{:.9},{:.3}\n",
        row.triples,
        row.matches,
        row.streamed.as_secs_f64(),
        row.materialized.as_secs_f64(),
        row.speedup()
    )
}

fn ask_rendered(_: &FigureSpec, p: &Params) -> Rendered {
    let row = ask_early_exit(p.large_triples, p.reps);
    Rendered::with_counts(
        ask_to_csv(&row),
        [("triples", Count::Int(row.triples)), ("matches", Count::Int(row.matches))],
    )
}

/// The size of a query-ready snapshot file (dictionary + slab sections)
/// of a half Barton, half LUBM dataset of `large_triples` statements,
/// with plain and with varint-delta compressed slabs, what its
/// dictionary weighs — the `DICT` section's bytes, the heap bytes of the
/// bulk-loaded dictionary and those bytes by part, its terms, how many of
/// them the frozen tier holds, and the delta tier's shared prefixes — and
/// the heap bytes of the frozen store the slabs read back as. The
/// bytes are exactly what [`hexastore::hexsnap::save_frozen_with`]
/// writes, built in memory, so they repeat on any host and need no
/// scratch file.
fn snapshot_size_rendered(fig: &FigureSpec, p: &Params) -> Rendered {
    use hexastore::hexsnap::{Compression, Reader, Writer};

    let scale = p.large_triples;
    let mut data = barton_dataset(scale / 2);
    data.extend(lubm_dataset(scale - scale / 2));
    let mut dict = Dictionary::new();
    let ids = dict.encode_triples_parallel(&data, 1);
    let frozen = hexastore::bulk::build_frozen(ids);
    let file = |compression| {
        let mut w = Writer::new(std::io::Cursor::new(Vec::new())).expect("in-memory write");
        w.dictionary(&dict).expect("in-memory write");
        w.frozen_with(&frozen, compression).expect("in-memory write");
        w.finish().expect("in-memory write").into_inner()
    };
    let triples = frozen.len();
    let plain_file = file(Compression::None);
    let (plain, compressed) = (plain_file.len(), file(Compression::VarintDelta).len());
    let reader = Reader::new(std::io::Cursor::new(&plain_file)).expect("in-memory read");
    let dict_bytes = reader.section_extent(*b"DICT").map_or(0, |(_, len)| len as usize);
    let dict_heap_bytes = dict.heap_bytes();
    let dict_heap = dict.heap_breakdown();
    let frozen_heap_bytes = frozen.heap_bytes();
    let heap = frozen.heap_breakdown();
    let per_triple = |bytes: usize| bytes as f64 / triples.max(1) as f64;
    Rendered::with_counts(
        format!(
            "# {} — barton+lubm dataset\n\
             triples,plain_bytes,compressed_bytes,plain_bytes_per_triple,\
             compressed_bytes_per_triple,dict_bytes,dict_heap_bytes,terms,prefixes,\
             frozen_heap_bytes,frozen_heap_bytes_per_triple\n\
             {triples},{plain},{compressed},{:.3},{:.3},{dict_bytes},{dict_heap_bytes},{},{},\
             {frozen_heap_bytes},{:.3}\n",
            fig.title,
            per_triple(plain),
            per_triple(compressed),
            dict.len(),
            dict.prefix_count(),
            per_triple(frozen_heap_bytes),
        ),
        [
            ("triples", Count::Int(triples)),
            ("plain_bytes", Count::Int(plain)),
            ("compressed_bytes", Count::Int(compressed)),
            ("plain_bytes_per_triple", Count::Ratio(per_triple(plain))),
            ("compressed_bytes_per_triple", Count::Ratio(per_triple(compressed))),
            ("dict_bytes", Count::Int(dict_bytes)),
            ("dict_heap_bytes", Count::Int(dict_heap_bytes)),
            // Where the dictionary's heap goes, so a column's regression
            // shows up by name.
            ("dict_interior_bytes", Count::Int(dict_heap.interior)),
            ("dict_frozen_bytes", Count::Int(dict_heap.frozen)),
            ("dict_blocks_bytes", Count::Int(dict_heap.blocks)),
            ("dict_permutations_bytes", Count::Int(dict_heap.permutations)),
            ("dict_heads_bytes", Count::Int(dict_heap.heads)),
            ("dict_ends_bytes", Count::Int(dict_heap.ends)),
            ("dict_arena_bytes", Count::Int(dict_heap.arena)),
            ("dict_term_index_bytes", Count::Int(dict_heap.term_index)),
            ("dict_prefix_ends_bytes", Count::Int(dict_heap.prefix_ends)),
            ("dict_prefix_arena_bytes", Count::Int(dict_heap.prefix_bytes)),
            ("dict_prefix_index_bytes", Count::Int(dict_heap.prefix_index)),
            ("terms", Count::Int(dict.len())),
            ("frozen_terms", Count::Int(dict.frozen_len())),
            ("prefixes", Count::Int(dict.prefix_count())),
            ("frozen_heap_bytes", Count::Int(frozen_heap_bytes)),
            ("frozen_heap_bytes_per_triple", Count::Ratio(per_triple(frozen_heap_bytes))),
            // Where the frozen heap goes, so a column's regression shows up
            // by name.
            ("frozen_list_slot_bytes", Count::Int(heap.list_slots)),
            ("frozen_overflow_bytes", Count::Int(heap.overflow)),
            ("frozen_mirror_list_ref_bytes", Count::Int(heap.mirror_list_refs)),
            ("frozen_header_key_bytes", Count::Int(heap.header_keys)),
            ("frozen_header_offset_bytes", Count::Int(heap.header_offsets)),
            ("frozen_vector_key_packed_bytes", Count::Int(heap.vector_keys_packed)),
            ("frozen_vector_key_base_bytes", Count::Int(heap.vector_key_bases)),
            ("frozen_vector_key_stream_bytes", Count::Int(heap.vector_key_streams)),
            ("frozen_vector_key_offset_bytes", Count::Int(heap.vector_key_offsets)),
            ("frozen_vector_key_rank_bytes", Count::Int(heap.vector_key_ranks)),
            // Which orderings' vector keys are Elias–Fano coded, one flag
            // each.
            ("frozen_elias_fano_spo", Count::Flag(heap.elias_fano.contains(IndexKind::Spo))),
            ("frozen_elias_fano_sop", Count::Flag(heap.elias_fano.contains(IndexKind::Sop))),
            ("frozen_elias_fano_pso", Count::Flag(heap.elias_fano.contains(IndexKind::Pso))),
            ("frozen_elias_fano_pos", Count::Flag(heap.elias_fano.contains(IndexKind::Pos))),
            ("frozen_elias_fano_osp", Count::Flag(heap.elias_fano.contains(IndexKind::Osp))),
            ("frozen_elias_fano_ops", Count::Flag(heap.elias_fano.contains(IndexKind::Ops))),
        ],
    )
}

/// How many distinct texts the `plan_cache` entry streams through one
/// cache, past its 65,536-entry bound.
const PLAN_CACHE_STREAM: usize = 70_000;

/// Up to `n` selective texts not in `seen`, in the eight shapes of the
/// benchmark's `lookup` stream, their constants taken from consecutive
/// triples of `data`. Each text goes into `seen`.
fn selective_texts(
    data: &[Triple],
    n: usize,
    seen: &mut std::collections::HashSet<String>,
) -> Vec<String> {
    let mut texts = Vec::new();
    for pair in data.windows(2) {
        let (prev, t) = (&pair[0], &pair[1]);
        let (s, p, o) = (&t.subject, &t.predicate, &t.object);
        let shapes = [
            format!("SELECT ?p ?o WHERE {{ {s} ?p ?o . }}"),
            format!("SELECT ?o WHERE {{ {s} {p} ?o . }}"),
            format!("SELECT ?s WHERE {{ ?s {p} {o} . }} LIMIT 10"),
            format!("SELECT ?s ?p WHERE {{ ?s ?p {o} . }}"),
            format!("SELECT ?p WHERE {{ {s} ?p {o} . }}"),
            format!("ASK {{ {s} {p} {o} . }}"),
            format!("SELECT ?s ?x WHERE {{ {s} {p} ?x . ?s {p} ?x . }}"),
            format!("SELECT ?s WHERE {{ ?s {p} {o} . ?s {} {} . }}", prev.predicate, prev.object),
        ];
        for text in shapes {
            if texts.len() == n {
                return texts;
            }
            if seen.insert(text.clone()) {
                texts.push(text);
            }
        }
    }
    texts
}

/// What a `PlanCache` holds per plan — counted bytes and live
/// allocations, when [`Params::allocator`] counts them — once it has
/// cached the twelve paper queries and 10,000 selective texts over a
/// half Barton, half LUBM frozen store; and how many plans a cache holds
/// after [`PLAN_CACHE_STREAM`] distinct texts.
fn plan_cache_rendered(fig: &FigureSpec, p: &Params) -> Rendered {
    use hex_bench_queries::{barton_queries, lubm_queries};
    use hex_query::PlanCache;

    let (barton, lubm) = (barton_dataset(p.triples / 2), lubm_dataset(p.triples - p.triples / 2));
    let mut dict = Dictionary::new();
    let ids: Vec<hex_dict::IdTriple> =
        barton.iter().chain(&lubm).map(|t| dict.encode_triple(t)).collect();
    let paper = [barton_queries(&dict), lubm_queries(&dict)].into_iter().flatten().flatten();
    let mut texts: Vec<String> = paper.map(|q| q.text).collect();
    let mut seen = texts.iter().cloned().collect();
    texts.extend(selective_texts(&barton, 5_000, &mut seen));
    texts.extend(selective_texts(&lubm, 5_000, &mut seen));
    let stream: Vec<String> = (1..=PLAN_CACHE_STREAM)
        .map(|n| format!("SELECT ?s WHERE {{ ?s ?p ?o . }} LIMIT {n}"))
        .collect();
    let ds = hexastore::Dataset::from_parts(dict, hexastore::bulk::build_frozen(ids));

    let live = |a: Allocator| ((a.live_bytes)(), (a.live_blocks)());
    let mut cache = PlanCache::new();
    let before = p.allocator.map(live);
    for text in &texts {
        cache.prepare(&ds, text).expect("selective text compiles");
    }
    let plans = cache.len();
    let per_plan = p.allocator.map(live).zip(before).map(|((bytes, blocks), (bytes0, blocks0))| {
        let per = |n: usize| n as f64 / plans.max(1) as f64;
        (per(bytes - bytes0), per(blocks - blocks0))
    });
    drop(cache);

    let mut cache = PlanCache::new();
    for text in &stream {
        cache.prepare(&ds, text).expect("stream text compiles");
    }
    let entries = cache.len();

    let (bytes, blocks) = per_plan.map_or((String::new(), String::new()), |(bytes, blocks)| {
        (format!("{bytes:.1}"), format!("{blocks:.3}"))
    });
    let mut counts = vec![("plans", Count::Int(plans))];
    if let Some((bytes, blocks)) = per_plan {
        counts.push(("bytes_per_plan", Count::Ratio(bytes)));
        counts.push(("allocations_per_plan", Count::Ratio(blocks)));
    }
    counts.push(("entries_after_70000", Count::Int(entries)));
    Rendered::with_counts(
        format!(
            "# {} — barton+lubm dataset, {} triples\n\
             plans,bytes_per_plan,allocations_per_plan,entries_after_70000\n\
             {plans},{bytes},{blocks},{entries}\n",
            fig.title,
            ds.len(),
        ),
        counts,
    )
}

/// One planner-ablation measurement: the same paper query answered by
/// the hand-written per-store plan, by the planner's constants-only
/// order, and by the statistics-refined order.
#[derive(Clone, Debug)]
struct PlanRow {
    /// Paper query name ("BQ1" … "LQ5").
    name: &'static str,
    /// Dataset the query runs on ("barton" or "lubm").
    dataset: &'static str,
    /// Solution rows the planned query returns (identical for both
    /// planner modes; the hand plan's aggregated result differs in shape).
    rows: usize,
    /// Terms in the answer: rows times projected variables.
    cells: usize,
    /// Distinct terms among them — what decode has to build.
    distinct_terms: usize,
    /// Allocations one `Plan::run` makes, when [`Params::allocator`]
    /// counts them.
    run_allocs: Option<usize>,
    /// Wall-clock of the hand-written Hexastore plan.
    hand: Duration,
    /// Wall-clock of `prepare` + collect with constants-only estimates.
    planned: Duration,
    /// Wall-clock of `prepare` + collect with [`hexastore::DatasetStats`].
    planned_stats: Duration,
}

impl PlanRow {
    /// Constants-only time over stats-refined time (>1: stats won).
    fn stats_speedup(&self) -> f64 {
        self.planned.as_secs_f64() / self.planned_stats.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Times the twelve paper queries through `prepare` on both datasets at
/// `scale` triples each: the planner's constants-only order, the
/// statistics-refined order (one [`hexastore::DatasetStats`] pass per
/// dataset, computed outside the timed region), and the paper's
/// hand-written Hexastore plan as the reference. Plans are prepared once
/// and re-run, so the measurement compares join *orders*, not parsing.
/// With `allocator`, the first (untimed) run is also counted.
fn plans_figure(scale: usize, reps: usize, allocator: Option<Allocator>) -> Vec<PlanRow> {
    use hex_bench_queries::{barton_queries, lubm_queries, PaperQuery};
    use hex_query::DatasetQuery;

    // The planner-mode comparison decides an acceptance bar (stats never
    // >1.2x slower), and most of these queries run in microseconds, so a
    // single measurement window is noise-bound: take the min over at
    // least three windows regardless of the caller's figure-wide reps.
    let reps = reps.max(3);
    let mut out = Vec::new();
    for (dataset, queries) in [
        ("barton", barton_queries as fn(&hex_dict::Dictionary) -> Option<Vec<PaperQuery>>),
        ("lubm", lubm_queries),
    ] {
        let data = match dataset {
            "barton" => barton_dataset(scale),
            _ => lubm_dataset(scale),
        };
        let suite = Suite::build(&data);
        let Some(queries) = queries(&suite.dict) else {
            // An incomplete sweep would silently shrink the "twelve paper
            // queries" evidence object, so say so loudly.
            eprintln!(
                "# WARNING: {dataset} dataset at {scale} triples does not bind all paper-query \
                 constants; its queries are MISSING from the plans figure"
            );
            continue;
        };
        let graph = suite.frozen_dataset();
        let stats = suite.stats();
        let hands = hand_plans(&suite, dataset);
        for query in queries {
            let plain = graph.prepare(&query.text).expect("paper query compiles");
            let refined =
                graph.prepare_with_stats(&query.text, Some(&stats)).expect("paper query compiles");
            let requests = allocator.map(|a| a.requests);
            let start = requests.map(|count| count());
            let answer = plain.run();
            let run_allocs = requests.zip(start).map(|(count, start)| count() - start);
            let distinct: std::collections::HashSet<&rdf_model::Term> =
                answer.rows.iter().flatten().collect();
            let hand_fn = &hands[query.name];
            out.push(PlanRow {
                name: query.name,
                dataset,
                rows: answer.len(),
                cells: answer.len() * answer.vars.len(),
                distinct_terms: distinct.len(),
                run_allocs,
                hand: time_query(reps, || hand_fn(&suite)),
                planned: time_query(reps, || plain.solutions().count()),
                planned_stats: time_query(reps, || refined.solutions().count()),
            });
        }
    }
    out
}

type HandPlan = Box<dyn Fn(&Suite)>;

/// The hand-written Hexastore plan for each paper query, keyed by name.
fn hand_plans(suite: &Suite, dataset: &str) -> std::collections::HashMap<&'static str, HandPlan> {
    let mut map: std::collections::HashMap<&'static str, HandPlan> =
        std::collections::HashMap::new();
    if dataset == "barton" {
        let ids = BartonIds::resolve(&suite.dict).expect("barton constants resolve");
        macro_rules! hand {
            ($name:expr, $ids:ident, $body:expr) => {{
                let $ids = ids.clone();
                map.insert(
                    $name,
                    Box::new(move |s: &Suite| {
                        black_box($body(s, &$ids));
                    }),
                );
            }};
        }
        hand!("BQ1", i, |s: &Suite, i| barton::bq1_indexed(&s.hexastore, i));
        hand!("BQ2", i, |s: &Suite, i| barton::bq2_hexastore(&s.hexastore, i, None));
        hand!("BQ3", i, |s: &Suite, i| barton::bq3_hexastore(&s.hexastore, i, None));
        hand!("BQ4", i, |s: &Suite, i| barton::bq4_hexastore(&s.hexastore, i, None));
        hand!("BQ5", i, |s: &Suite, i| barton::bq5_hexastore(&s.hexastore, i));
        hand!("BQ6", i, |s: &Suite, i| barton::bq6_hexastore(&s.hexastore, i, None));
        hand!("BQ7", i, |s: &Suite, i| barton::bq7_indexed(&s.hexastore, i));
    } else {
        let ids = LubmIds::resolve(&suite.dict).expect("lubm constants resolve");
        macro_rules! hand {
            ($name:expr, $ids:ident, $body:expr) => {{
                let $ids = ids.clone();
                map.insert(
                    $name,
                    Box::new(move |s: &Suite| {
                        black_box($body(s, &$ids));
                    }),
                );
            }};
        }
        hand!("LQ1", i, |s: &Suite, i| lubm::lq1_hexastore(&s.hexastore, i));
        hand!("LQ2", i, |s: &Suite, i| lubm::lq2_hexastore(&s.hexastore, i));
        hand!("LQ3", i, |s: &Suite, i| lubm::lq3_hexastore(&s.hexastore, i));
        hand!("LQ4", i, |s: &Suite, i| lubm::lq4_hexastore(&s.hexastore, i));
        hand!("LQ5", i, |s: &Suite, i| lubm::lq5_hexastore(&s.hexastore, i));
    }
    map
}

/// Renders the planner-ablation rows as CSV.
fn plans_to_csv(rows: &[PlanRow]) -> String {
    let mut out = String::from(
        "# Figure plans — twelve paper queries through prepare (hand-written plan vs planner, \
         statistics off/on)\n",
    );
    out.push_str("query,dataset,rows,hand_s,planned_s,planned_stats_s,stats_speedup\n");
    for row in rows {
        out.push_str(&format!(
            "{},{},{},{:.6},{:.6},{:.6},{:.3}\n",
            row.name,
            row.dataset,
            row.rows,
            row.hand.as_secs_f64(),
            row.planned.as_secs_f64(),
            row.planned_stats.as_secs_f64(),
            row.stats_speedup(),
        ));
    }
    out
}

/// Each query's row count under its name, then `<name>_cells`,
/// `<name>_distinct_terms` and, when counted, `<name>_run_allocs`.
fn plans_rendered(_: &FigureSpec, p: &Params) -> Rendered {
    let rows = plans_figure(p.triples, p.reps, p.allocator);
    let mut counts = Vec::new();
    for r in &rows {
        counts.push((r.name.to_string(), Count::Int(r.rows)));
        counts.push((format!("{}_cells", r.name), Count::Int(r.cells)));
        counts.push((format!("{}_distinct_terms", r.name), Count::Int(r.distinct_terms)));
        if let Some(allocs) = r.run_allocs {
            counts.push((format!("{}_run_allocs", r.name), Count::Int(allocs)));
        }
    }
    Rendered::with_counts(plans_to_csv(&rows), counts)
}

/// One merge-join measurement: the planner's merge-intersection
/// execution against the same plan with merge joins forced off (nested
/// probes), on two synthetic join shapes — a three-way star on a shared
/// subject and a hub → members chain — plus a TSV-identity sweep over
/// the twelve paper queries (default vs forced-nested).
#[derive(Clone, Debug)]
struct JoinsRow {
    /// Synthetic dataset size in triples (star + chain components).
    triples: usize,
    /// Solution rows of the star query.
    star_rows: usize,
    /// Star query with merge joins disabled: nested probes re-check
    /// every candidate of the first list against the other two.
    star_nested: Duration,
    /// Star query through the default plan: one galloping intersection
    /// of the three sorted terminal lists seeds the tail walk.
    star_merge: Duration,
    /// Solution rows of the chain query.
    chain_rows: usize,
    /// Chain query with merge joins disabled.
    chain_nested: Duration,
    /// Chain query through the default plan: subjects-of(mark) ∩
    /// objects-of(hub, link), one intersection across two roles.
    chain_merge: Duration,
    /// True when both default plans compiled a merge-intersect group
    /// (their `explain()` tags a step `join=merge`).
    merge_used: bool,
    /// Paper queries swept for identity (twelve when both vocabularies
    /// resolve at this scale).
    paper_queries: usize,
    /// True when the star, the chain and every paper query answered
    /// byte-identically (TSV rendering included) through the default
    /// plan and the forced-nested plan.
    identical: bool,
}

impl JoinsRow {
    /// Nested-probe time over merge-intersection time on the star
    /// query (>1: merge wins).
    fn star_speedup(&self) -> f64 {
        self.star_nested.as_secs_f64() / self.star_merge.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Nested-probe time over merge-intersection time on the chain
    /// query (>1: merge wins).
    fn chain_speedup(&self) -> f64 {
        self.chain_nested.as_secs_f64() / self.chain_merge.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// The star half of the joins query pair: four single-variable
/// patterns on a shared subject (selectivities 1/2, 1/3, 1/5 and 1)
/// feeding a two-variable tail, so the measurement covers both the
/// intersection and the seeded downstream walk.
const JOINS_STAR_QUERY: &str = "SELECT ?s ?v WHERE { \
     ?s <http://joins/even> <http://joins/Yes> . \
     ?s <http://joins/third> <http://joins/Yes> . \
     ?s <http://joins/fifth> <http://joins/Yes> . \
     ?s <http://joins/type> <http://joins/Node> . \
     ?s <http://joins/val> ?v . }";

/// The chain half: the shared variable sits in the *object* role of one
/// pattern and the *subject* role of the other, so the intersection
/// crosses index roles (objects-of(hub, link) ∩ subjects-of(mark, M)).
const JOINS_CHAIN_QUERY: &str = "SELECT ?x WHERE { \
     <http://joins/hub> <http://joins/link> ?x . \
     ?x <http://joins/mark> <http://joins/M> . }";

/// Builds the synthetic star + chain dataset of roughly `n_triples`
/// statements the joins figure queries: half the budget goes to star
/// subjects (~91/30 triples each), half to chain members (~3/2 each).
fn joins_dataset(n_triples: usize) -> Vec<Triple> {
    use rdf_model::Term;
    let iri = |s: String| Term::iri(s);
    let star_subjects = (n_triples / 2) * 30 / 91;
    let chain_members = (n_triples - n_triples / 2) * 2 / 3;
    let mut data = Vec::new();
    for s in 0..star_subjects {
        let subj = iri(format!("http://joins/s{s}"));
        data.push(Triple::new(
            subj.clone(),
            iri("http://joins/type".into()),
            iri("http://joins/Node".into()),
        ));
        if s % 2 == 0 {
            data.push(Triple::new(
                subj.clone(),
                iri("http://joins/even".into()),
                iri("http://joins/Yes".into()),
            ));
        }
        if s % 3 == 0 {
            data.push(Triple::new(
                subj.clone(),
                iri("http://joins/third".into()),
                iri("http://joins/Yes".into()),
            ));
        }
        if s % 5 == 0 {
            data.push(Triple::new(
                subj.clone(),
                iri("http://joins/fifth".into()),
                iri("http://joins/Yes".into()),
            ));
        }
        data.push(Triple::new(
            subj,
            iri("http://joins/val".into()),
            iri(format!("http://joins/v{}", s % 16)),
        ));
    }
    for m in 0..chain_members {
        let member = iri(format!("http://joins/x{m}"));
        data.push(Triple::new(
            iri("http://joins/hub".into()),
            iri("http://joins/link".into()),
            member.clone(),
        ));
        if m % 2 == 0 {
            data.push(Triple::new(
                member,
                iri("http://joins/mark".into()),
                iri("http://joins/M".into()),
            ));
        }
    }
    data
}

/// Measures the joins figure at `scale` triples: the star and chain
/// queries through the default (merge-intersect) plan and the same plan
/// with [`hex_query::Plan::force_nested_joins`] over the frozen store,
/// verifying along the way that both answer byte-identically — on the
/// two synthetic queries and on the twelve paper queries over barton +
/// lubm datasets at the same scale.
fn joins_figure(scale: usize, reps: usize) -> JoinsRow {
    use hex_bench_queries::{barton_queries, lubm_queries, PaperQuery};
    use hex_query::DatasetQuery;

    let data = joins_dataset(scale);
    let mut dict = hex_dict::Dictionary::new();
    let ids: Vec<hex_dict::IdTriple> = data.iter().map(|t| dict.encode_triple(t)).collect();
    let frozen = hexastore::bulk::build_frozen(ids);
    let triples = frozen.len();
    let ds = hexastore::Dataset::from_parts(dict, frozen);

    // Most of these plans run in microseconds at figure scale; as in the
    // planner ablation, take the median over at least three windows.
    let reps = reps.max(3);
    let mut merge_used = true;
    let mut identical = true;
    let mut measure = |text: &str| {
        let plan = ds.prepare(text).expect("joins query compiles");
        let mut nested = ds.prepare(text).expect("joins query compiles");
        nested.force_nested_joins();
        merge_used &= plan.explain().contains("join=merge");
        let want = plan.run();
        identical &= want.to_tsv() == nested.run().to_tsv();
        (
            want.rows.len(),
            time_query(reps, || nested.solutions().count()),
            time_query(reps, || plan.solutions().count()),
        )
    };
    let (star_rows, star_nested, star_merge) = measure(JOINS_STAR_QUERY);
    let (chain_rows, chain_nested, chain_merge) = measure(JOINS_CHAIN_QUERY);

    // Identity sweep over the twelve paper queries: correctness evidence
    // that the merge path is a pure execution swap on real query shapes,
    // not just on the synthetic pair above.
    let mut paper_queries = 0usize;
    for (dataset, queries) in [
        ("barton", barton_queries as fn(&hex_dict::Dictionary) -> Option<Vec<PaperQuery>>),
        ("lubm", lubm_queries),
    ] {
        let paper_data = match dataset {
            "barton" => barton_dataset(scale),
            _ => lubm_dataset(scale),
        };
        let mut dict = hex_dict::Dictionary::new();
        let ids: Vec<hex_dict::IdTriple> =
            paper_data.iter().map(|t| dict.encode_triple(t)).collect();
        let frozen = hexastore::bulk::build_frozen(ids);
        let Some(queries) = queries(&dict) else {
            // A missing vocabulary would silently shrink the identity
            // evidence to fewer than twelve queries, so say so loudly.
            eprintln!(
                "# WARNING: {dataset} dataset at {scale} triples does not bind all paper-query \
                 constants; its queries are MISSING from the joins identity sweep"
            );
            continue;
        };
        let pds = hexastore::Dataset::from_parts(dict, frozen);
        for query in queries {
            let plan = pds.prepare(&query.text).expect("paper query compiles");
            let mut nested = pds.prepare(&query.text).expect("paper query compiles");
            nested.force_nested_joins();
            identical &= plan.run().to_tsv() == nested.run().to_tsv();
            paper_queries += 1;
        }
    }

    JoinsRow {
        triples,
        star_rows,
        star_nested,
        star_merge,
        chain_rows,
        chain_nested,
        chain_merge,
        merge_used,
        paper_queries,
        identical,
    }
}

/// Renders joins measurements as CSV, one row per scale.
fn joins_to_csv(rows: &[JoinsRow]) -> String {
    let mut out = String::from(
        "# Figure joins — merge-intersection vs forced nested probes on the star and chain \
         joins, plus twelve-paper-query identity (default vs nested)\n",
    );
    out.push_str(
        "triples,star_rows,star_nested_s,star_merge_s,star_speedup,chain_rows,chain_nested_s,\
         chain_merge_s,chain_speedup,merge_used,paper_queries,identical\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{},{},{:.6},{:.6},{:.3},{},{:.6},{:.6},{:.3},{},{},{}\n",
            row.triples,
            row.star_rows,
            row.star_nested.as_secs_f64(),
            row.star_merge.as_secs_f64(),
            row.star_speedup(),
            row.chain_rows,
            row.chain_nested.as_secs_f64(),
            row.chain_merge.as_secs_f64(),
            row.chain_speedup(),
            row.merge_used,
            row.paper_queries,
            row.identical,
        ));
    }
    out
}

/// One row per distinct scale of `p`; the counts are the largest scale's,
/// the flags must hold at every scale.
fn joins_rendered(_: &FigureSpec, p: &Params) -> Rendered {
    let mut scales = vec![p.triples, p.large_triples];
    scales.dedup();
    let rows: Vec<JoinsRow> = scales.into_iter().map(|s| joins_figure(s, p.reps)).collect();
    let last = rows.last().expect("at least one scale");
    let paper_queries = rows.iter().map(|r| r.paper_queries).min().unwrap_or(0);
    Rendered::with_counts(
        joins_to_csv(&rows),
        [
            ("triples", Count::Int(last.triples)),
            ("star_rows", Count::Int(last.star_rows)),
            ("chain_rows", Count::Int(last.chain_rows)),
            ("merge_used", Count::Flag(rows.iter().all(|r| r.merge_used))),
            ("paper_queries", Count::Int(paper_queries)),
            ("identical", Count::Flag(rows.iter().all(|r| r.identical))),
        ],
    )
}

/// The §4.1 space-bound experiment: blowup of Hexastore key entries vs a
/// triples table, on both datasets plus the adversarial all-distinct case.
/// Its counts are each dataset's entries, blowup, the store's heap bytes
/// and how many of those its index levels take (header keys, offsets,
/// vector keys and mirror list references).
fn space_report(scale: usize) -> Rendered {
    let mut out = String::from("# §4.1 — index space vs triples table (key entries)\n");
    out.push_str("dataset,triples,header,vector,list,total,triples_table,blowup\n");
    let mut counts = Vec::new();
    let mut line = |name: &str, key: &str, frozen: &Hexastore| {
        let stats = frozen.space_stats();
        let b = frozen.heap_breakdown();
        counts.extend([
            (format!("{key}_triples"), Count::Int(stats.triples)),
            (format!("{key}_header"), Count::Int(stats.header_entries)),
            (format!("{key}_vector"), Count::Int(stats.vector_entries)),
            (format!("{key}_list"), Count::Int(stats.list_entries)),
            (format!("{key}_blowup"), Count::Ratio(stats.blowup())),
            (format!("{key}_frozen_heap_bytes"), Count::Int(frozen.heap_bytes())),
            (
                format!("{key}_index_level_bytes"),
                Count::Int(b.headers() + b.vector_keys() + b.mirror_list_refs),
            ),
        ]);
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{:.3}\n",
            name,
            stats.triples,
            stats.header_entries,
            stats.vector_entries,
            stats.list_entries,
            stats.total_entries(),
            stats.triples_table_entries(),
            stats.blowup()
        ));
    };
    // Where the frozen store's heap bytes go, per triple and by column
    // kind — the layer table a memory optimisation starts from.
    let mut heap = String::from(
        "# frozen store heap, bytes per triple by column kind\n\
         dataset,triples,list_slots,overflow,vector_keys,mirror_list_refs,headers,total\n",
    );
    for (name, data) in [("barton", barton_dataset(scale)), ("lubm", lubm_dataset(scale))] {
        let suite = Suite::build(&data);
        let frozen = &suite.hexastore;
        line(name, name, frozen);
        let (b, n) = (frozen.heap_breakdown(), frozen.len().max(1) as f64);
        let parts = [b.list_slots, b.overflow, b.vector_keys(), b.mirror_list_refs, b.headers()];
        heap.push_str(&format!("{name},{}", frozen.len()));
        for bytes in parts.into_iter().chain([b.total()]) {
            heap.push_str(&format!(",{:.2}", bytes as f64 / n));
        }
        heap.push('\n');
    }
    // Worst case: every resource occurs exactly once → blowup = 5.0.
    let n = scale as u32 / 3;
    let worst: Vec<hex_dict::IdTriple> =
        (0..n).map(|i| hex_dict::IdTriple::from((i, n + i, 2 * n + i))).collect();
    line("all-distinct(worst case)", "all_distinct", &Hexastore::from_triples(worst));
    Rendered::with_counts(out + &heap, counts)
}

/// The §4.3 path-expression experiment: end-to-end time and join counts
/// for length-n property paths on the Hexastore plan (pos+pso) vs the
/// property-table plan (COVP1-style gather-and-sort).
fn path_report(scale: usize) -> String {
    use hex_query::path;
    let data = lubm_dataset(scale);
    let suite = Suite::build(&data);
    let Some(_ids) = LubmIds::resolve(&suite.dict) else {
        return String::from("# path report: dataset too small to resolve query terms\n");
    };
    // Paths over the LUBM schema: advisor → worksFor → subOrganizationOf
    // walks from students to universities.
    let advisor = ids_of(&suite, "advisor");
    let works_for = ids_of(&suite, "worksFor");
    let sub_org = ids_of(&suite, "subOrganizationOf");
    let paths: Vec<(&str, Vec<hex_dict::Id>)> = vec![
        ("advisor/worksFor", vec![advisor, works_for]),
        ("advisor/worksFor/subOrganizationOf", vec![advisor, works_for, sub_org]),
    ];
    let mut out =
        String::from("# §4.3 — path expressions: Hexastore (pos+pso) vs property-table plan\n");
    out.push_str("path,plan,seconds,merge_joins,sort_merge_joins,sorts,ends\n");
    for (name, props) in &paths {
        let t_hex = time_query(3, || path::follow_path(&suite.hexastore, props));
        let r_hex = path::follow_path(&suite.hexastore, props);
        out.push_str(&format!(
            "{},hexastore,{:.6},{},{},{},{}\n",
            name,
            t_hex.as_secs_f64(),
            r_hex.stats.merge_joins,
            r_hex.stats.sort_merge_joins,
            r_hex.stats.sorts,
            r_hex.ends.len()
        ));
        let t_covp = time_query(3, || path::follow_path_generic(&suite.covp1, props));
        let r_covp = path::follow_path_generic(&suite.covp1, props);
        out.push_str(&format!(
            "{},covp1,{:.6},{},{},{},{}\n",
            name,
            t_covp.as_secs_f64(),
            r_covp.stats.merge_joins,
            r_covp.stats.sort_merge_joins,
            r_covp.stats.sorts,
            r_covp.ends.len()
        ));
        assert_eq!(r_hex.ends, r_covp.ends, "plans disagree on {name}");
    }
    out
}

fn ids_of(suite: &Suite, predicate: &str) -> hex_dict::Id {
    suite
        .dict
        .id_of(&hex_datagen::lubm::Vocab::predicate(predicate))
        .expect("predicate must exist in generated data")
}

/// What one `bench_evidence` run produces: every figure's CSV, and the
/// counts of the figures that have any.
pub struct Evidence {
    params: Params,
    /// `(stem, csv)` per entry of [`FIGURES`], in table order.
    pub csvs: Vec<(&'static str, String)>,
    /// `(stem, counts)` per entry that reports counts, in table order.
    pub counts: Vec<(&'static str, Vec<(String, Count)>)>,
}

/// Renders every entry of [`FIGURES`] at `params`.
pub fn collect_evidence(params: &Params) -> Evidence {
    let mut evidence = Evidence { params: *params, csvs: Vec::new(), counts: Vec::new() };
    for fig in &FIGURES {
        eprintln!("# rendering {}", fig.id);
        let rendered = (fig.render)(fig, params);
        evidence.csvs.push((fig.stem, rendered.csv));
        if !rendered.counts.is_empty() {
            evidence.counts.push((fig.stem, rendered.counts));
        }
    }
    evidence
}

impl Evidence {
    /// `BENCH_ci.json`, schema 11: the two scales and every figure's
    /// counts under its stem — no timings, so two runs of one build write
    /// the same bytes.
    pub fn bench_ci_json(&self) -> String {
        let mut json = format!(
            "{{\n  \"schema\": 11,\n  \"figures_triples\": {},\n  \"load_triples\": {}",
            self.params.triples, self.params.large_triples
        );
        for (stem, counts) in &self.counts {
            let entries: Vec<String> =
                counts.iter().map(|(key, value)| format!("    \"{key}\": {value}")).collect();
            json.push_str(&format!(",\n  \"{stem}\": {{\n{}\n  }}", entries.join(",\n")));
        }
        json.push_str("\n}\n");
        json
    }

    /// This run's cells for [`history::TRAJECTORY_COLUMNS`] after `run`
    /// (empty where the run did not report the count).
    pub fn trajectory_cells(&self) -> Vec<String> {
        let count = |stem: &str, key: &str| {
            let (_, counts) = self.counts.iter().find(|(s, _)| *s == stem)?;
            counts.iter().find(|(k, _)| *k == key).map(|(_, v)| v.to_string())
        };
        vec![
            self.params.triples.to_string(),
            self.params.large_triples.to_string(),
            count("snapshot_size", "triples").unwrap_or_default(),
            count("snapshot_size", "plain_bytes_per_triple").unwrap_or_default(),
            count("snapshot_size", "compressed_bytes_per_triple").unwrap_or_default(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(id: &str, triples: usize, points: usize) -> Rendered {
        let fig = figure(id).expect("id in the table");
        let params = Params { triples, large_triples: triples, points, reps: 1, allocator: None };
        (fig.render)(fig, &params)
    }

    /// The lines of a CSV that are neither `#` comments nor blank.
    fn table_lines(csv: &str) -> Vec<&str> {
        csv.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).collect()
    }

    #[test]
    fn prefix_points_are_monotone_and_end_at_total() {
        let p = prefix_points(100, 4);
        assert_eq!(p, vec![25, 50, 75, 100]);
        assert_eq!(prefix_points(7, 1), vec![7]);
    }

    #[test]
    fn dataset_builders_hit_requested_size() {
        let b = barton_dataset(5_000);
        assert_eq!(b.len(), 5_000);
        let l = lubm_dataset(5_000);
        assert_eq!(l.len(), 5_000);
    }

    #[test]
    fn every_table_entry_has_a_unique_id_and_renders_rows() {
        for (i, fig) in FIGURES.iter().enumerate() {
            assert!(fig.id != "all", "'all' is what the figures binary calls the whole table");
            for other in &FIGURES[i + 1..] {
                assert_ne!(fig.id, other.id, "duplicate figure id");
                assert_ne!(fig.stem, other.stem, "two figures would write one file");
            }
            let csv = render(fig.id, 2_000, 1).csv;
            assert!(csv.starts_with("# "), "{}: no comment line\n{csv}", fig.id);
            assert!(
                table_lines(&csv).len() >= 2,
                "{}: no data row under the header\n{csv}",
                fig.id
            );
        }
    }

    #[test]
    fn bench_ci_json_repeats_to_the_byte_and_holds_no_timings() {
        let params =
            Params { triples: 2_000, large_triples: 3_000, points: 1, reps: 1, allocator: None };
        let first = collect_evidence(&params);
        let json = first.bench_ci_json();
        assert_eq!(json, collect_evidence(&params).bench_ci_json());
        assert_eq!(first.csvs.len(), FIGURES.len());

        let keys: Vec<&str> = json
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix('"')?.split('"').next())
            .collect();
        for key in &keys {
            assert!(!key.ends_with("seconds") && !key.ends_with("speedup"), "timing key {key}");
        }
        for wanted in [
            "schema",
            "load_triples",
            "plain_bytes_per_triple",
            "compressed_bytes_per_triple",
            "dict_bytes",
            "dict_heap_bytes",
            "dict_interior_bytes",
            "dict_frozen_bytes",
            "dict_blocks_bytes",
            "dict_permutations_bytes",
            "dict_heads_bytes",
            "dict_ends_bytes",
            "dict_arena_bytes",
            "dict_term_index_bytes",
            "dict_prefix_ends_bytes",
            "dict_prefix_arena_bytes",
            "dict_prefix_index_bytes",
            "prefixes",
            "merge_used",
            "identical",
            "paper_queries",
            "star_rows",
            "chain_rows",
            "matches",
            "BQ1",
            "LQ5",
            "BQ1_cells",
            "LQ5_distinct_terms",
            "barton_blowup",
            "lubm_frozen_heap_bytes",
            "all_distinct_frozen_heap_bytes",
            "barton_index_level_bytes",
            "frozen_heap_bytes_per_triple",
            "frozen_list_slot_bytes",
            "frozen_overflow_bytes",
            "frozen_mirror_list_ref_bytes",
            "frozen_header_key_bytes",
            "frozen_header_offset_bytes",
            "frozen_vector_key_packed_bytes",
            "frozen_vector_key_base_bytes",
            "frozen_vector_key_stream_bytes",
            "frozen_vector_key_offset_bytes",
            "frozen_vector_key_rank_bytes",
            "frozen_elias_fano_pso",
            "plans",
            "entries_after_70000",
        ] {
            assert!(keys.contains(&wanted), "BENCH_ci.json lacks {wanted}:\n{json}");
        }
        assert!(json.contains("\"paper_queries\": 12"), "{json}");
        assert!(json.contains("\"entries_after_70000\": 65536"), "{json}");
        let cells = first.trajectory_cells();
        assert_eq!(cells.len() + 1, history::TRAJECTORY_COLUMNS.len(), "one cell per column");
        assert!(cells.iter().all(|c| !c.is_empty()), "{cells:?}");
    }

    #[test]
    fn run_figure_smoke_barton() {
        let csv = render("3", 8_000, 2).csv;
        assert!(csv.starts_with("# Figure 3 — Barton Query 1\ntriples,Hexastore,COVP1,COVP2\n"));
        assert_eq!(table_lines(&csv).len(), 1 + 2, "header + one row per prefix");
    }

    #[test]
    fn run_figure_smoke_lubm() {
        let csv = render("10", 8_000, 2).csv;
        assert!(table_lines(&csv).last().unwrap().starts_with("8000,"), "{csv}");
    }

    #[test]
    fn figure4_includes_28_variants() {
        let csv = render("4", 8_000, 1).csv;
        assert_eq!(
            table_lines(&csv)[0],
            "triples,Hexastore,COVP1,COVP2,Hexastore 28,COVP1 28,COVP2 28"
        );
    }

    #[test]
    fn plans_figure_times_all_twelve_queries() {
        let rows = plans_figure(8_000, 1, None);
        assert_eq!(rows.len(), 12, "seven Barton + five LUBM queries");
        for row in &rows {
            assert!(row.rows > 0, "{} returned no rows", row.name);
            assert!(row.hand > Duration::ZERO);
            assert!(row.planned > Duration::ZERO);
            assert!(row.planned_stats > Duration::ZERO);
        }
        let csv = plans_to_csv(&rows);
        assert!(csv.contains("query,dataset,rows,hand_s,planned_s,planned_stats_s"));
        assert_eq!(csv.lines().count(), 2 + rows.len());
        // The star-join query is the one the statistics mode exists for.
        let lq4 = rows.iter().find(|r| r.name == "LQ4").unwrap();
        assert!(
            lq4.stats_speedup() > 1.0,
            "stats must improve LQ4's order (got {:.2}x)",
            lq4.stats_speedup()
        );
    }

    #[test]
    fn joins_figure_uses_merge_and_answers_identically() {
        let row = joins_figure(8_000, 1);
        assert!(row.triples > 6_000, "dataset builder fell far short: {}", row.triples);
        assert!(row.merge_used, "both synthetic queries must compile a merge group");
        assert!(row.identical, "merge and nested executions must agree byte-for-byte");
        assert_eq!(row.paper_queries, 12, "seven Barton + five LUBM queries");
        // Star subjects divisible by 30 survive; the chain keeps every
        // even member: both intersections must actually select rows.
        assert!(row.star_rows > 0 && row.chain_rows > 0);
        assert!(row.star_merge > Duration::ZERO && row.chain_merge > Duration::ZERO);
        let csv = joins_to_csv(&[row.clone(), row]);
        assert!(csv.contains("star_nested_s,star_merge_s,star_speedup"));
        assert_eq!(csv.lines().count(), 2 + 2, "comment + header + two scale rows");
    }

    #[test]
    fn ask_early_exit_measures_both_paths() {
        let row = ask_early_exit(8_000, 1);
        assert!(row.triples > 0 && row.triples <= 8_000, "{} distinct triples", row.triples);
        assert!(row.matches > 100, "the type pattern must match broadly, got {}", row.matches);
        assert!(row.streamed > Duration::ZERO);
        assert!(row.materialized > Duration::ZERO);
        let csv = ask_to_csv(&row);
        assert!(csv.contains("triples,matches,streamed_s,materialized_s,speedup"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn memory_figure_shows_hexastore_largest() {
        let rows = memory_rows(&barton_dataset(10_000), 1);
        let [hexastore, covp1, covp2, table] = rows[0].1;
        assert!(hexastore > covp2);
        assert!(covp2 > covp1);
        // COVP1 keeps each triple's object once, packed to the bits its id
        // needs, and its subject once as an Elias–Fano coded vector key of
        // its property: about a fifth of the table's three `u32`s on this
        // dataset.
        assert!(covp1 >= table / 6, "{covp1} {table}");
        assert!(memory_report(10_000, 1).contains("Figure 15"));
    }
}
