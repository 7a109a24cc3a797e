//! # hex-bench — the figure-regeneration harness
//!
//! The paper's evaluation is thirteen figures: response time vs. number of
//! triples for seven Barton queries (Figs. 3–9) and five LUBM queries
//! (Figs. 10–14), plus memory consumption for both datasets (Fig. 15).
//! Every experiment sweeps *progressively larger prefixes* of a dataset
//! and plots each store's query response time on a log axis.
//!
//! This crate provides:
//!
//! - dataset builders ([`barton_dataset`], [`lubm_dataset`]) sized in
//!   triples;
//! - a prefix sweep + wall-clock measurement harness ([`run_figure`]);
//! - the `figures` binary, which prints one CSV table per figure;
//! - Criterion benches (`benches/`) for statistically careful per-query
//!   timings at a fixed scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod history;

use hex_bench_queries::barton::{self, BartonIds};
use hex_bench_queries::lubm::{self, LubmIds};
use hex_bench_queries::Suite;
use hex_datagen::{barton::BartonConfig, lubm::LubmConfig};
use hexastore::TripleStore;
use rdf_model::Triple;
use std::time::{Duration, Instant};

/// Minimal flag-parsing helpers shared by the workspace binaries
/// (`figures`, `bench_evidence`), so both speak the same `--flag value`
/// grammar with one error style.
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
pub fn barton_dataset(n_triples: usize) -> Vec<Triple> {
    // The generator averages ~7.1 triples per record; /6 guarantees the
    // requested count is reached before truncation.
    let cfg = BartonConfig { records: n_triples / 6 + 1, ..BartonConfig::default() };
    let mut triples = hex_datagen::barton::generate(&cfg);
    triples.truncate(n_triples);
    triples
}

/// Generates a LUBM-like dataset of roughly `n_triples` statements.
pub fn lubm_dataset(n_triples: usize) -> Vec<Triple> {
    // ~30k triples per university with default shape parameters.
    let per_univ = 30_000;
    let universities = (n_triples / per_univ + 1).max(1);
    let cfg = LubmConfig { universities, ..LubmConfig::default() };
    let mut triples = hex_datagen::lubm::generate(&cfg);
    triples.truncate(n_triples);
    triples
}

/// Evenly spaced prefix sizes from `total / points` up to `total`.
pub fn prefix_points(total: usize, points: usize) -> Vec<usize> {
    assert!(points > 0);
    (1..=points).map(|i| total * i / points).collect()
}

/// The median of a set of timing samples: the statistic every figure in
/// this crate reports. Unlike the minimum it is robust in both
/// directions — one descheduled outlier does not poison the number, and
/// one improbably lucky run does not flatter it — which is what lets the
/// CI regression gate compare runs instead of single best cases.
pub fn median(mut samples: Vec<Duration>) -> Duration {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times `f`, returning the median per-call duration over `reps`
/// measurement windows (after one warmup). Sub-microsecond queries (the
/// Hexastore's single-probe plans reach 1e-7 s, as in the paper's
/// log-scale plots) are batched until the window is long enough for the
/// clock to resolve.
pub fn time_query<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f());
    let mut samples = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let mut batch: u32 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
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

/// One measured point: a store label and its response time.
#[derive(Clone, Debug)]
pub struct SeriesPoint {
    /// Store / configuration label (e.g. "Hexastore", "COVP1 28").
    pub label: String,
    /// Measured response time.
    pub time: Duration,
}

/// One row of a figure: the prefix size and all series measurements.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// Number of triples in this prefix.
    pub triples: usize,
    /// Measurements, one per store configuration.
    pub points: Vec<SeriesPoint>,
}

/// A regenerated figure: title plus measured rows.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Paper figure id, e.g. "Figure 10".
    pub id: String,
    /// Human-readable title, e.g. "LUBM Query 1".
    pub title: String,
    /// The measured rows, ascending in triples.
    pub rows: Vec<FigureRow>,
}

impl Figure {
    /// Renders the figure as a CSV table with a `#` comment header,
    /// mirroring the paper's "response time vs number of triples" axes.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {} — {}\n", self.id, self.title));
        if let Some(first) = self.rows.first() {
            out.push_str("triples");
            for p in &first.points {
                out.push(',');
                out.push_str(&p.label);
            }
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&row.triples.to_string());
            for p in &row.points {
                out.push_str(&format!(",{:.3e}", p.time.as_secs_f64()));
            }
            out.push('\n');
        }
        out
    }
}

/// Which figures exist and what they measure.
pub const FIGURES: [(&str, &str); 23] = [
    ("3", "Barton Query 1"),
    ("4", "Barton Query 2 (full + 28-property)"),
    ("5", "Barton Query 3 (full + 28-property)"),
    ("6", "Barton Query 4 (full + 28-property)"),
    ("7", "Barton Query 5"),
    ("8", "Barton Query 6 (full + 28-property)"),
    ("9", "Barton Query 7"),
    ("10", "LUBM Query 1"),
    ("11", "LUBM Query 2"),
    ("12", "LUBM Query 3"),
    ("13", "LUBM Query 4"),
    ("14", "LUBM Query 5"),
    ("15", "Memory consumption (both datasets)"),
    ("space", "§4.1 worst-case five-fold space bound"),
    ("path", "§4.3 path expressions: merge vs sort-merge joins"),
    ("load", "Bulk-load throughput: serial vs parallel loader"),
    ("snapshot", "Snapshot formats: binary hexsnap vs JSON (size, save, open)"),
    ("plans", "Twelve paper queries through prepare: hand plan vs planner, stats off/on"),
    ("live_write", "Live write path: sustained WAL inserts while querying + recovery + compaction"),
    ("qps", "Concurrent serving: client threads over published snapshots vs one client (qps)"),
    ("cold_open", "Cold open: hex-disk mmap vs eager slab read vs compressed decode"),
    ("dict", "Dictionary at scale: encode, index displacement, arena vs legacy heap, mapped DICT"),
    (
        "joins",
        "Merge joins: sorted-list intersection vs nested probes (star/chain + paper queries)",
    ),
];

type BartonQueryFns = Vec<(&'static str, Box<dyn Fn(&Suite, &BartonIds)>)>;
type LubmQueryFns = Vec<(&'static str, Box<dyn Fn(&Suite, &LubmIds)>)>;

fn barton_query_fns(figure: &str, restrict_28: bool) -> BartonQueryFns {
    // Each closure runs one store's plan; results are black_boxed away.
    macro_rules! q {
        ($label:expr, |$s:ident, $ids:ident| $body:block) => {
            (
                $label,
                Box::new(|$s: &Suite, $ids: &BartonIds| $body) as Box<dyn Fn(&Suite, &BartonIds)>,
            )
        };
    }
    let mut fns: BartonQueryFns = match figure {
        "3" => vec![
            q!("Hexastore", |s, ids| {
                std::hint::black_box(barton::bq1_hexastore(&s.hexastore, ids));
            }),
            q!("COVP1", |s, ids| {
                std::hint::black_box(barton::bq1_covp1(&s.covp1, ids));
            }),
            q!("COVP2", |s, ids| {
                std::hint::black_box(barton::bq1_covp2(&s.covp2, ids));
            }),
        ],
        "4" => vec![
            q!("Hexastore", |s, ids| {
                std::hint::black_box(barton::bq2_hexastore(&s.hexastore, ids, None));
            }),
            q!("COVP1", |s, ids| {
                std::hint::black_box(barton::bq2_covp1(&s.covp1, ids, None));
            }),
            q!("COVP2", |s, ids| {
                std::hint::black_box(barton::bq2_covp2(&s.covp2, ids, None));
            }),
        ],
        "5" => vec![
            q!("Hexastore", |s, ids| {
                std::hint::black_box(barton::bq3_hexastore(&s.hexastore, ids, None));
            }),
            q!("COVP1", |s, ids| {
                std::hint::black_box(barton::bq3_covp1(&s.covp1, ids, None));
            }),
            q!("COVP2", |s, ids| {
                std::hint::black_box(barton::bq3_covp2(&s.covp2, ids, None));
            }),
        ],
        "6" => vec![
            q!("Hexastore", |s, ids| {
                std::hint::black_box(barton::bq4_hexastore(&s.hexastore, ids, None));
            }),
            q!("COVP1", |s, ids| {
                std::hint::black_box(barton::bq4_covp1(&s.covp1, ids, None));
            }),
            q!("COVP2", |s, ids| {
                std::hint::black_box(barton::bq4_covp2(&s.covp2, ids, None));
            }),
        ],
        "7" => vec![
            q!("Hexastore", |s, ids| {
                std::hint::black_box(barton::bq5_hexastore(&s.hexastore, ids));
            }),
            q!("COVP1", |s, ids| {
                std::hint::black_box(barton::bq5_covp1(&s.covp1, ids));
            }),
            q!("COVP2", |s, ids| {
                std::hint::black_box(barton::bq5_covp2(&s.covp2, ids));
            }),
        ],
        "8" => vec![
            q!("Hexastore", |s, ids| {
                std::hint::black_box(barton::bq6_hexastore(&s.hexastore, ids, None));
            }),
            q!("COVP1", |s, ids| {
                std::hint::black_box(barton::bq6_covp1(&s.covp1, ids, None));
            }),
            q!("COVP2", |s, ids| {
                std::hint::black_box(barton::bq6_covp2(&s.covp2, ids, None));
            }),
        ],
        "9" => vec![
            q!("Hexastore", |s, ids| {
                std::hint::black_box(barton::bq7_hexastore(&s.hexastore, ids));
            }),
            q!("COVP1", |s, ids| {
                std::hint::black_box(barton::bq7_covp1(&s.covp1, ids));
            }),
            q!("COVP2", |s, ids| {
                std::hint::black_box(barton::bq7_covp2(&s.covp2, ids));
            }),
        ],
        _ => panic!("not a Barton timing figure: {figure}"),
    };
    if restrict_28 && matches!(figure, "4" | "5" | "6" | "8") {
        let mut extra: BartonQueryFns = match figure {
            "4" => vec![
                q!("Hexastore 28", |s, ids| {
                    std::hint::black_box(barton::bq2_hexastore(
                        &s.hexastore,
                        ids,
                        Some(&ids.interesting),
                    ));
                }),
                q!("COVP1 28", |s, ids| {
                    std::hint::black_box(barton::bq2_covp1(&s.covp1, ids, Some(&ids.interesting)));
                }),
                q!("COVP2 28", |s, ids| {
                    std::hint::black_box(barton::bq2_covp2(&s.covp2, ids, Some(&ids.interesting)));
                }),
            ],
            "5" => vec![
                q!("Hexastore 28", |s, ids| {
                    std::hint::black_box(barton::bq3_hexastore(
                        &s.hexastore,
                        ids,
                        Some(&ids.interesting),
                    ));
                }),
                q!("COVP1 28", |s, ids| {
                    std::hint::black_box(barton::bq3_covp1(&s.covp1, ids, Some(&ids.interesting)));
                }),
                q!("COVP2 28", |s, ids| {
                    std::hint::black_box(barton::bq3_covp2(&s.covp2, ids, Some(&ids.interesting)));
                }),
            ],
            "6" => vec![
                q!("Hexastore 28", |s, ids| {
                    std::hint::black_box(barton::bq4_hexastore(
                        &s.hexastore,
                        ids,
                        Some(&ids.interesting),
                    ));
                }),
                q!("COVP1 28", |s, ids| {
                    std::hint::black_box(barton::bq4_covp1(&s.covp1, ids, Some(&ids.interesting)));
                }),
                q!("COVP2 28", |s, ids| {
                    std::hint::black_box(barton::bq4_covp2(&s.covp2, ids, Some(&ids.interesting)));
                }),
            ],
            "8" => vec![
                q!("Hexastore 28", |s, ids| {
                    std::hint::black_box(barton::bq6_hexastore(
                        &s.hexastore,
                        ids,
                        Some(&ids.interesting),
                    ));
                }),
                q!("COVP1 28", |s, ids| {
                    std::hint::black_box(barton::bq6_covp1(&s.covp1, ids, Some(&ids.interesting)));
                }),
                q!("COVP2 28", |s, ids| {
                    std::hint::black_box(barton::bq6_covp2(&s.covp2, ids, Some(&ids.interesting)));
                }),
            ],
            _ => unreachable!(),
        };
        fns.append(&mut extra);
    }
    fns
}

fn lubm_query_fns(figure: &str) -> LubmQueryFns {
    macro_rules! q {
        ($label:expr, |$s:ident, $ids:ident| $body:block) => {
            ($label, Box::new(|$s: &Suite, $ids: &LubmIds| $body) as Box<dyn Fn(&Suite, &LubmIds)>)
        };
    }
    match figure {
        "10" => vec![
            q!("Hexastore", |s, ids| {
                std::hint::black_box(lubm::lq1_hexastore(&s.hexastore, ids));
            }),
            q!("COVP1", |s, ids| {
                std::hint::black_box(lubm::lq1_covp1(&s.covp1, ids));
            }),
            q!("COVP2", |s, ids| {
                std::hint::black_box(lubm::lq1_covp2(&s.covp2, ids));
            }),
        ],
        "11" => vec![
            q!("Hexastore", |s, ids| {
                std::hint::black_box(lubm::lq2_hexastore(&s.hexastore, ids));
            }),
            q!("COVP1", |s, ids| {
                std::hint::black_box(lubm::lq2_covp1(&s.covp1, ids));
            }),
            q!("COVP2", |s, ids| {
                std::hint::black_box(lubm::lq2_covp2(&s.covp2, ids));
            }),
        ],
        "12" => vec![
            q!("Hexastore", |s, ids| {
                std::hint::black_box(lubm::lq3_hexastore(&s.hexastore, ids));
            }),
            q!("COVP1", |s, ids| {
                std::hint::black_box(lubm::lq3_covp1(&s.covp1, ids));
            }),
            q!("COVP2", |s, ids| {
                std::hint::black_box(lubm::lq3_covp2(&s.covp2, ids));
            }),
        ],
        "13" => vec![
            q!("Hexastore", |s, ids| {
                std::hint::black_box(lubm::lq4_hexastore(&s.hexastore, ids));
            }),
            q!("COVP1", |s, ids| {
                std::hint::black_box(lubm::lq4_covp1(&s.covp1, ids));
            }),
            q!("COVP2", |s, ids| {
                std::hint::black_box(lubm::lq4_covp2(&s.covp2, ids));
            }),
        ],
        "14" => vec![
            q!("Hexastore", |s, ids| {
                std::hint::black_box(lubm::lq5_hexastore(&s.hexastore, ids));
            }),
            q!("COVP1", |s, ids| {
                std::hint::black_box(lubm::lq5_covp1(&s.covp1, ids));
            }),
            q!("COVP2", |s, ids| {
                std::hint::black_box(lubm::lq5_covp2(&s.covp2, ids));
            }),
        ],
        _ => panic!("not a LUBM timing figure: {figure}"),
    }
}

/// Regenerates one paper figure: sweeps prefixes of the right dataset and
/// measures each store's plan. `scale` is the full dataset size in
/// triples, `points` the number of prefix sizes, `reps` the repetitions
/// per measurement.
pub fn run_figure(figure: &str, scale: usize, points: usize, reps: usize) -> Figure {
    match figure {
        "3" | "4" | "5" | "6" | "7" | "8" | "9" => {
            let data = barton_dataset(scale);
            let fns = barton_query_fns(figure, true);
            let mut rows = Vec::new();
            for prefix in prefix_points(data.len(), points) {
                let suite = Suite::build(&data[..prefix]);
                let Some(ids) = BartonIds::resolve(&suite.dict) else { continue };
                let points_row = fns
                    .iter()
                    .map(|(label, f)| SeriesPoint {
                        label: label.to_string(),
                        time: time_query(reps, || f(&suite, &ids)),
                    })
                    .collect();
                rows.push(FigureRow { triples: prefix, points: points_row });
            }
            let title = FIGURES.iter().find(|(id, _)| *id == figure).unwrap().1;
            Figure { id: format!("Figure {figure}"), title: title.to_string(), rows }
        }
        "10" | "11" | "12" | "13" | "14" => {
            let data = lubm_dataset(scale);
            let fns = lubm_query_fns(figure);
            let mut rows = Vec::new();
            for prefix in prefix_points(data.len(), points) {
                let suite = Suite::build(&data[..prefix]);
                let Some(ids) = LubmIds::resolve(&suite.dict) else { continue };
                let points_row = fns
                    .iter()
                    .map(|(label, f)| SeriesPoint {
                        label: label.to_string(),
                        time: time_query(reps, || f(&suite, &ids)),
                    })
                    .collect();
                rows.push(FigureRow { triples: prefix, points: points_row });
            }
            let title = FIGURES.iter().find(|(id, _)| *id == figure).unwrap().1;
            Figure { id: format!("Figure {figure}"), title: title.to_string(), rows }
        }
        other => panic!(
            "run_figure does not handle '{other}'; see memory_figure/space_report/path_report"
        ),
    }
}

/// One memory row: prefix size and per-store heap bytes.
#[derive(Clone, Debug)]
pub struct MemoryRow {
    /// Number of triples in this prefix.
    pub triples: usize,
    /// `(store label, heap bytes)` per store.
    pub bytes: Vec<(String, usize)>,
}

/// Regenerates Figure 15 for one dataset: deep heap bytes per store per
/// prefix.
pub fn memory_figure(dataset: &str, scale: usize, points: usize) -> Vec<MemoryRow> {
    let data = match dataset {
        "barton" => barton_dataset(scale),
        "lubm" => lubm_dataset(scale),
        other => panic!("unknown dataset {other}"),
    };
    prefix_points(data.len(), points)
        .into_iter()
        .map(|prefix| {
            let suite = Suite::build(&data[..prefix]);
            MemoryRow {
                triples: prefix,
                bytes: vec![
                    ("Hexastore".into(), suite.hexastore.heap_bytes()),
                    ("COVP1".into(), suite.covp1.heap_bytes()),
                    ("COVP2".into(), suite.covp2.heap_bytes()),
                    ("TriplesTable".into(), suite.table.heap_bytes()),
                ],
            }
        })
        .collect()
}

/// Renders memory rows as CSV (megabytes, like the paper's y-axis).
pub fn memory_to_csv(dataset: &str, rows: &[MemoryRow]) -> String {
    let mut out = format!("# Figure 15 — Memory consumption, {dataset} dataset (MB)\n");
    if let Some(first) = rows.first() {
        out.push_str("triples");
        for (label, _) in &first.bytes {
            out.push(',');
            out.push_str(label);
        }
        out.push('\n');
    }
    for row in rows {
        out.push_str(&row.triples.to_string());
        for (_, bytes) in &row.bytes {
            out.push_str(&format!(",{:.2}", *bytes as f64 / (1024.0 * 1024.0)));
        }
        out.push('\n');
    }
    out
}

/// One bulk-load measurement: the same prefix loaded serially and with
/// the parallel loader.
#[derive(Clone, Debug)]
pub struct LoadRow {
    /// Number of (possibly duplicated) input triples in this prefix.
    pub triples: usize,
    /// Wall-clock to dictionary-encode the string-level prefix (a fresh
    /// dictionary per measurement) — the first half of `Suite::build`'s
    /// end-to-end load, measured so the string-arena batching decision
    /// can be data-driven.
    pub encode: Duration,
    /// Wall-clock build time with `bulk::Config::serial()`.
    pub serial: Duration,
    /// Wall-clock build time with `bulk::Config::parallel(threads)`.
    pub parallel: Duration,
    /// Thread count of the parallel configuration.
    pub threads: usize,
}

impl LoadRow {
    /// Serial time over parallel time (>1 means the parallel loader won).
    pub fn speedup(&self) -> f64 {
        self.serial.as_secs_f64() / self.parallel.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Dictionary encoding's share of the end-to-end serial load
    /// (`encode / (encode + serial build)`), in `[0, 1]`.
    pub fn encode_share(&self) -> f64 {
        let encode = self.encode.as_secs_f64();
        let total = encode + self.serial.as_secs_f64();
        if total <= 0.0 {
            0.0
        } else {
            encode / total
        }
    }

    /// Load throughput in million triples per second for a measured time.
    pub fn mtriples_per_sec(triples: usize, time: Duration) -> f64 {
        triples as f64 / time.as_secs_f64().max(f64::MIN_POSITIVE) / 1e6
    }
}

/// Times one bulk build, median over `reps` runs after one untimed
/// warmup (so a single-rep measurement is not penalized by cold caches).
/// The input copy happens outside the timed region (the loader takes
/// ownership of its batch).
pub fn time_bulk_build(
    reps: usize,
    triples: &[hex_dict::IdTriple],
    cfg: hexastore::bulk::Config,
) -> Duration {
    std::hint::black_box(hexastore::bulk::build_with(triples.to_vec(), cfg).len());
    let mut samples = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let batch = triples.to_vec();
        let start = Instant::now();
        let store = hexastore::bulk::build_with(batch, cfg);
        let elapsed = start.elapsed();
        std::hint::black_box(store.len());
        samples.push(elapsed);
    }
    median(samples)
}

/// The bulk-load throughput figure: prefix sweep of one dataset, loading
/// each prefix with the serial and the `threads`-way parallel loader.
pub fn load_figure(
    dataset: &str,
    scale: usize,
    points: usize,
    reps: usize,
    threads: usize,
) -> Vec<LoadRow> {
    let data = match dataset {
        "barton" => barton_dataset(scale),
        "lubm" => lubm_dataset(scale),
        other => panic!("unknown dataset {other}"),
    };
    let mut dict = hex_dict::Dictionary::new();
    let encoded: Vec<hex_dict::IdTriple> = data.iter().map(|t| dict.encode_triple(t)).collect();
    prefix_points(encoded.len(), points)
        .into_iter()
        .map(|prefix| {
            let slice = &encoded[..prefix];
            // Encoding is timed against a fresh dictionary each rep, the
            // way Suite::build pays it (string interning included).
            let strings = &data[..prefix];
            let encode = time_op(reps, || {
                let mut d = hex_dict::Dictionary::new();
                let mut count = 0usize;
                for t in strings {
                    d.encode_triple(t);
                    count += 1;
                }
                count
            });
            LoadRow {
                triples: prefix,
                encode,
                serial: time_bulk_build(reps, slice, hexastore::bulk::Config::serial()),
                parallel: time_bulk_build(reps, slice, hexastore::bulk::Config::parallel(threads)),
                threads,
            }
        })
        .collect()
}

/// Renders load rows as CSV: seconds and throughput per loader, plus the
/// serial/parallel speedup.
pub fn load_to_csv(dataset: &str, rows: &[LoadRow]) -> String {
    let threads = rows.first().map_or(0, |r| r.threads);
    let mut out = format!(
        "# Figure load — Bulk-load throughput, {dataset} dataset (serial vs parallel, threads={threads})\n"
    );
    out.push_str(
        "triples,encode_s,serial_s,parallel_s,speedup,encode_share,serial_mtriples_s,\
         parallel_mtriples_s\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{},{:.6},{:.6},{:.6},{:.3},{:.3},{:.3},{:.3}\n",
            row.triples,
            row.encode.as_secs_f64(),
            row.serial.as_secs_f64(),
            row.parallel.as_secs_f64(),
            row.speedup(),
            row.encode_share(),
            LoadRow::mtriples_per_sec(row.triples, row.serial),
            LoadRow::mtriples_per_sec(row.triples, row.parallel),
        ));
    }
    out
}

/// One dictionary-at-scale measurement: a string-level batch interned
/// by the serial loop, plus the heap footprint of the arena layout against an exact model of the replaced
/// `Vec<Term>` + `HashMap<Term, Id>` layout, and the DICT open paths
/// (eager decode vs `hex-disk` mapped arena).
#[derive(Clone, Debug)]
pub struct DictRow {
    /// Number of (possibly duplicated) input triples encoded.
    pub triples: usize,
    /// Distinct terms the batch interns.
    pub terms: usize,
    /// Wall-clock of the serial `encode_triple` loop, fresh dictionary.
    pub encode_serial: Duration,
    /// Exact heap footprint of the arena dictionary after the encode.
    pub arena_heap_bytes: usize,
    /// Exact heap footprint the replaced layout would have paid for the
    /// same terms (see [`legacy_dict_heap_bytes`]).
    pub legacy_heap_bytes: usize,
    /// Eager DICT open: `hexsnap::Reader::dictionary` (arena copied to
    /// the heap, offset table validated).
    pub eager_dict_open: Duration,
    /// Mapped DICT open: `hex_disk::open` (arena stays behind the
    /// mapping; includes the slab-header parse, which is O(headers)).
    pub mapped_open: Duration,
    /// Reverse-index health after the encode: slots, load factor and how
    /// far probing displaced entries — counts, repeatable on any host.
    pub index: hex_dict::IndexStats,
}

impl DictRow {
    /// Arena heap over legacy heap (<1: the arena layout is smaller).
    pub fn heap_ratio(&self) -> f64 {
        self.arena_heap_bytes as f64 / (self.legacy_heap_bytes as f64).max(f64::MIN_POSITIVE)
    }

    /// Eager DICT open time over mapped open time (>1: mapping wins).
    pub fn open_speedup(&self) -> f64 {
        self.eager_dict_open.as_secs_f64() / self.mapped_open.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Serial encode throughput in million triple-occurrences per second.
    pub fn serial_mtriples_per_sec(&self) -> f64 {
        LoadRow::mtriples_per_sec(self.triples, self.encode_serial)
    }
}

/// Exact heap footprint the replaced dictionary layout (`Vec<Term>` +
/// `HashMap<Term, Id>`) would pay for these terms.
///
/// Counted per allocation, the way a heap profiler would: each `Arc<str>`
/// payload once (the map key cloned the `Term`, but clones share the
/// `Arc` payloads — charging the full string twice was the old
/// accounting's double-charge) plus its 16-byte strong/weak refcount
/// header; the term vector at amortized-doubling capacity; the
/// hashbrown table at its ≤7/8 load factor with one control byte per
/// bucket and an inline `(Term, Id)` per bucket.
pub fn legacy_dict_heap_bytes(terms: &[rdf_model::Term]) -> usize {
    use rdf_model::Term;
    const ARC_HEADER: usize = 2 * std::mem::size_of::<usize>();
    let strings: usize = terms
        .iter()
        .map(|t| match t {
            Term::Iri(i) => ARC_HEADER + i.as_str().len(),
            Term::Blank(b) => ARC_HEADER + b.as_str().len(),
            Term::Literal(l) => {
                // Plain literals (datatype reported as xsd:string) carry
                // no second allocation; lang-tagged and explicitly typed
                // ones allocate the tag / datatype IRI too.
                let tag_or_type = match (l.language(), l.datatype()) {
                    (Some(lang), _) => ARC_HEADER + lang.len(),
                    (None, "http://www.w3.org/2001/XMLSchema#string") => 0,
                    (None, dt) => ARC_HEADER + dt.len(),
                };
                ARC_HEADER + l.lexical().len() + tag_or_type
            }
        })
        .sum();
    let n = terms.len();
    let vec_cap = if n == 0 { 0 } else { n.next_power_of_two() };
    let vec = vec_cap * std::mem::size_of::<Term>();
    // hashbrown sizing: buckets is the smallest power of two keeping the
    // load factor at or under 7/8 (small maps round up to 4).
    let mut buckets = 4usize;
    while n > buckets / 8 * 7 {
        buckets *= 2;
    }
    let map = if n == 0 { 0 } else { buckets * (std::mem::size_of::<(Term, hex_dict::Id)>() + 1) };
    strings + vec + map
}

/// Measures the dictionary figure on `scale` triples, half Barton and
/// half LUBM (the two term styles probe very differently under a weak
/// hash, so a LUBM-only figure cannot see a clustering index): encode
/// wall-clock, reverse-index probe displacement, arena-vs-legacy heap
/// footprint, and eager-vs-mapped DICT open time.
///
/// Panics if the arena dictionary's heap is not strictly smaller than
/// the legacy layout's — that inequality is this refactor's acceptance
/// bar, so a violation must fail evidence collection loudly.
pub fn dict_figure(scale: usize, reps: usize) -> DictRow {
    use hexastore::hexsnap;

    let mut data = barton_dataset(scale / 2);
    data.extend(lubm_dataset(scale - scale / 2));
    let mut dict = hex_dict::Dictionary::new();
    let serial_ids: Vec<hex_dict::IdTriple> = data.iter().map(|t| dict.encode_triple(t)).collect();

    let encode_serial = time_op(reps, || {
        let mut d = hex_dict::Dictionary::new();
        let mut count = 0usize;
        for t in &data {
            d.encode_triple(t);
            count += 1;
        }
        count
    });

    let arena_heap_bytes = dict.heap_bytes();
    let legacy_heap_bytes = legacy_dict_heap_bytes(&dict.terms());
    assert!(
        arena_heap_bytes < legacy_heap_bytes,
        "arena dictionary heap ({arena_heap_bytes} B) must be strictly smaller than the \
         legacy layout's ({legacy_heap_bytes} B) at {scale} triples"
    );

    // DICT open paths against a real snapshot file: eager decode copies
    // the arena to the heap, the mapped open leaves it behind the map.
    let frozen = hexastore::bulk::build_frozen(serial_ids);
    let path = std::env::temp_dir().join(format!("hexsnap_dict_{}.hexsnap", std::process::id()));
    hexsnap::save_frozen(&path, &dict, &frozen).expect("write dict-figure snapshot");
    let eager_dict_open = time_op(reps, || {
        hexsnap::Reader::new(std::io::BufReader::new(
            std::fs::File::open(&path).expect("snapshot file"),
        ))
        .expect("snapshot container parses")
        .dictionary()
        .expect("dict decodes")
        .len()
    });
    let mapped_open = time_op(reps, || {
        let (d, _store) = hex_disk::open(&path).expect("mapped open");
        assert!(d.arena_is_shared(), "mapped open must keep the arena shared");
        d.len()
    });
    std::fs::remove_file(&path).ok();

    DictRow {
        triples: data.len(),
        terms: dict.len(),
        encode_serial,
        arena_heap_bytes,
        legacy_heap_bytes,
        eager_dict_open,
        mapped_open,
        index: dict.index_stats(),
    }
}

/// Renders the dictionary measurement as a one-row CSV.
pub fn dict_to_csv(row: &DictRow) -> String {
    let mut out = String::from(
        "# Dictionary at scale — encode (barton+lubm dataset), arena vs legacy heap, eager vs \
         mapped DICT open, reverse-index probe displacement\n\
         triples,terms,encode_serial_s,serial_mtriples_s,arena_heap_bytes,legacy_heap_bytes,\
         heap_ratio,eager_dict_open_s,mapped_open_s,open_speedup,index_mean_displacement,\
         index_max_displacement\n",
    );
    out.push_str(&format!(
        "{},{},{:.6},{:.3},{},{},{:.3},{:.6},{:.6},{:.1},{:.3},{}\n",
        row.triples,
        row.terms,
        row.encode_serial.as_secs_f64(),
        row.serial_mtriples_per_sec(),
        row.arena_heap_bytes,
        row.legacy_heap_bytes,
        row.heap_ratio(),
        row.eager_dict_open.as_secs_f64(),
        row.mapped_open.as_secs_f64(),
        row.open_speedup(),
        row.index.mean_displacement,
        row.index.max_displacement,
    ));
    out
}

/// One ASK early-exit measurement: the same existence check answered by
/// the streaming plan (`Plan::solutions().next()`, stops at the first
/// row) and by the old materializing path (`execute_bgp` collects every
/// binding row, then tests emptiness).
#[derive(Clone, Debug)]
pub struct AskRow {
    /// Number of triples in the loaded store.
    pub triples: usize,
    /// Binding rows the materializing path produces before answering.
    pub matches: usize,
    /// Wall-clock of the streamed ASK.
    pub streamed: Duration,
    /// Wall-clock of the materializing ASK.
    pub materialized: Duration,
}

impl AskRow {
    /// Materialized time over streamed time (>1 means streaming won).
    pub fn speedup(&self) -> f64 {
        self.materialized.as_secs_f64() / self.streamed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Measures the ASK early-exit gain on a loaded LUBM dataset: `ASK { ?x
/// <type> ?t . }` matches one row per typed resource, so the
/// materializing path enumerates thousands of rows while the streamed
/// plan stops at the first.
pub fn ask_early_exit(scale: usize, reps: usize) -> AskRow {
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
        vars: Vec::new(),
        slots: Vec::new(),
        var_names: vec!["x".into(), "t".into()],
        distinct: false,
        filters: Vec::new(),
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
pub fn ask_to_csv(row: &AskRow) -> String {
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

/// One snapshot-format measurement: the same graph persisted as JSON
/// (serde shim) and as binary `hexsnap`, with the three open paths timed
/// — JSON parse + index rebuild, binary stream + index rebuild, and the
/// zero-rebuild frozen slab read.
#[derive(Clone, Debug)]
pub struct SnapshotRow {
    /// Number of triples in the persisted store.
    pub triples: usize,
    /// JSON snapshot size on disk.
    pub json_bytes: usize,
    /// Compact binary snapshot size on disk (dictionary + triple column,
    /// indices rebuilt on open).
    pub binary_bytes: usize,
    /// Query-ready binary snapshot size on disk (plus prebuilt slab
    /// sections — the sextuple redundancy traded for zero-rebuild opens).
    pub frozen_bytes: usize,
    /// Wall-clock to serialize + write the JSON snapshot.
    pub json_save: Duration,
    /// Wall-clock to read + parse + bulk-rebuild from JSON.
    pub json_restore: Duration,
    /// Wall-clock to write the query-ready binary snapshot (with slabs).
    pub binary_save: Duration,
    /// Wall-clock to open the slab-backed binary snapshot to a
    /// query-ready `FrozenHexastore` (dictionary + slab read, no
    /// rebuild).
    pub binary_open: Duration,
    /// Wall-clock to stream the compact binary's triple column into a
    /// bulk rebuild (the open path for snapshots without slab sections).
    pub binary_rebuild: Duration,
}

impl SnapshotRow {
    /// JSON restore time over frozen binary open time (>1: binary wins).
    pub fn open_speedup(&self) -> f64 {
        self.json_restore.as_secs_f64() / self.binary_open.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// JSON bytes over compact binary bytes (>1: binary is smaller).
    pub fn size_ratio(&self) -> f64 {
        self.json_bytes as f64 / (self.binary_bytes as f64).max(f64::MIN_POSITIVE)
    }
}

/// Times one operation like [`time_bulk_build`]: median over `reps`
/// runs after one untimed warmup.
fn time_op<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f());
    let mut samples = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        samples.push(start.elapsed());
    }
    median(samples)
}

/// Measures the snapshot figure on a LUBM dataset of `scale` triples:
/// JSON (serde shim) vs binary `hexsnap` for bytes on disk, save and
/// load wall-clock, and frozen-open vs rebuilt-open time. Files go
/// through the real filesystem (temp dir) so the numbers include I/O.
pub fn snapshot_figure(scale: usize, reps: usize) -> SnapshotRow {
    use hexastore::{hexsnap, GraphStore, Snapshot};

    let data = lubm_dataset(scale);
    let mut dict = hex_dict::Dictionary::new();
    let encoded: Vec<hex_dict::IdTriple> = data.iter().map(|t| dict.encode_triple(t)).collect();
    let store = hexastore::bulk::build(encoded);
    let graph = GraphStore::from_parts(dict, store);

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let json_path = dir.join(format!("hexsnap_bench_{pid}.json"));
    let bin_path = dir.join(format!("hexsnap_bench_{pid}.hexsnap"));
    let frozen_path = dir.join(format!("hexsnap_bench_{pid}_frozen.hexsnap"));

    let json_save = time_op(reps, || {
        let text = serde_json::to_string(&Snapshot::capture(&graph)).expect("snapshot serializes");
        std::fs::write(&json_path, text).expect("write JSON snapshot");
    });
    let json_bytes = std::fs::metadata(&json_path).expect("JSON snapshot written").len() as usize;
    let json_restore = time_op(reps, || {
        let text = std::fs::read_to_string(&json_path).expect("read JSON snapshot");
        let snap: Snapshot = serde_json::from_str(&text).expect("snapshot parses");
        snap.into_restore().len()
    });

    // Symmetric with json_save (which pays Snapshot::capture): the
    // timed region covers building the persisted form — freeze() — plus
    // the write, i.e. the full "persist my in-memory graph" cost.
    let binary_save = time_op(reps, || {
        let frozen = graph.store().freeze();
        hexsnap::save_frozen(&frozen_path, graph.dict(), &frozen).expect("write binary snapshot")
    });
    hexsnap::save(&bin_path, graph.dict(), graph.store()).expect("write compact snapshot");
    let binary_bytes =
        std::fs::metadata(&bin_path).expect("compact snapshot written").len() as usize;
    let frozen_bytes =
        std::fs::metadata(&frozen_path).expect("frozen snapshot written").len() as usize;
    let binary_open = time_op(reps, || {
        let (d, s) = hexsnap::load_frozen(&frozen_path).expect("open binary snapshot");
        (d.len(), s.len())
    });
    let binary_rebuild =
        time_op(reps, || hexsnap::load(&bin_path).expect("rebuild from binary snapshot").len());

    std::fs::remove_file(&json_path).ok();
    std::fs::remove_file(&bin_path).ok();
    std::fs::remove_file(&frozen_path).ok();

    SnapshotRow {
        triples: graph.len(),
        json_bytes,
        binary_bytes,
        frozen_bytes,
        json_save,
        json_restore,
        binary_save,
        binary_open,
        binary_rebuild,
    }
}

/// Renders the snapshot measurement as a one-row CSV.
pub fn snapshot_to_csv(row: &SnapshotRow) -> String {
    format!(
        "# Snapshot formats — binary hexsnap vs JSON shim, lubm dataset\n\
         triples,json_bytes,binary_bytes,frozen_bytes,json_save_s,json_restore_s,\
         binary_save_s,binary_open_frozen_s,binary_rebuild_s,open_speedup,size_ratio\n\
         {},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.3},{:.3}\n",
        row.triples,
        row.json_bytes,
        row.binary_bytes,
        row.frozen_bytes,
        row.json_save.as_secs_f64(),
        row.json_restore.as_secs_f64(),
        row.binary_save.as_secs_f64(),
        row.binary_open.as_secs_f64(),
        row.binary_rebuild.as_secs_f64(),
        row.open_speedup(),
        row.size_ratio(),
    )
}

/// One cold-open measurement: the same frozen snapshot opened three
/// ways — eager slab read ([`hexastore::hexsnap::load_frozen`]),
/// compressed-section decode (same loader on a
/// [`hexastore::hexsnap::Compression::VarintDelta`] file), and the
/// mmap-backed [`hex_disk::open`] — plus what each path costs at query
/// time once open.
#[derive(Clone, Debug)]
pub struct ColdOpenRow {
    /// Dataset size in triples (barton + lubm halves, as in the qps figure).
    pub triples: usize,
    /// Bytes on disk of the uncompressed frozen snapshot.
    pub plain_bytes: usize,
    /// Bytes on disk of the varint-delta compressed frozen snapshot.
    pub compressed_bytes: usize,
    /// Decoding the dictionary section — the eager, size-proportional
    /// cost *every* open path pays identically (terms need owned
    /// strings), reported separately so the slab comparisons below
    /// measure exactly what the open paths do differently.
    pub dict_open: Duration,
    /// Eager slab open: read + validate every slab column into memory.
    pub eager_open: Duration,
    /// Compressed slab open: decode the varint-delta section into slabs.
    pub compressed_open: Duration,
    /// Mmap slab open: map the file and parse the section headers —
    /// no column bytes are read ([`hex_disk::open_store`]).
    pub mmap_open: Duration,
    /// First paper query (BQ1) on a freshly eager-opened dataset.
    pub eager_first_query: Duration,
    /// First paper query (BQ1) on a freshly mapped dataset — includes
    /// the page faults that pull in the columns the query walks.
    pub mmap_first_query: Duration,
    /// All twelve paper queries, warm, on the eager-opened dataset.
    pub eager_warm: Duration,
    /// All twelve paper queries, warm, on the mapped dataset.
    pub mmap_warm: Duration,
    /// Paper queries compared (twelve when both vocabularies resolve).
    pub queries: usize,
    /// True when the mapped store's answers are byte-identical (TSV
    /// rendering included) to the eager store's on every paper query.
    pub identical: bool,
}

impl ColdOpenRow {
    /// Compressed bytes over uncompressed bytes (<1: compression wins).
    pub fn size_ratio(&self) -> f64 {
        self.compressed_bytes as f64 / (self.plain_bytes as f64).max(f64::MIN_POSITIVE)
    }

    /// Uncompressed snapshot bytes per stored triple, dictionary included
    /// — an absolute size, so a format change that shrinks both files
    /// cannot hide behind their ratio.
    pub fn plain_bytes_per_triple(&self) -> f64 {
        self.plain_bytes as f64 / (self.triples as f64).max(1.0)
    }

    /// Compressed snapshot bytes per stored triple, dictionary included.
    pub fn compressed_bytes_per_triple(&self) -> f64 {
        self.compressed_bytes as f64 / (self.triples as f64).max(1.0)
    }

    /// Eager slab-open time over mmap slab-open time (>1: mapping is
    /// faster). The shared dictionary decode is excluded from both
    /// sides (see [`ColdOpenRow::dict_open`]).
    pub fn open_speedup(&self) -> f64 {
        self.eager_open.as_secs_f64() / self.mmap_open.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Median time of the *first* paper query on a freshly opened dataset:
/// each rep opens anew so the measurement includes whatever per-open
/// work the store deferred (for the mapped store, the page faults on
/// the columns the query touches — soft faults here, since the file was
/// just written and is resident in the page cache; a true cold cache
/// would add disk reads to the mmap path and to the eager read alike).
fn time_first_query<S, D>(reps: usize, open: impl Fn() -> D, text: &str) -> Duration
where
    S: TripleStore,
    D: std::ops::Deref<Target = hexastore::Dataset<S>>,
{
    use hex_query::DatasetQuery;
    let mut samples = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let ds = open();
        let start = Instant::now();
        std::hint::black_box(ds.query(text).expect("paper query compiles").rows.len());
        samples.push(start.elapsed());
    }
    median(samples)
}

/// Measures the cold-open figure at `scale` triples: snapshot size
/// compressed vs uncompressed, open time for the three open paths, and
/// first/warm query latency for eager vs mapped stores, verifying along
/// the way that the mapped store answers every paper query
/// byte-identically to the eager one.
pub fn cold_open_figure(scale: usize, reps: usize) -> ColdOpenRow {
    use hex_bench_queries::{barton_queries, lubm_queries};
    use hex_query::DatasetQuery;
    use hexastore::{hexsnap, Dataset};

    let mut data = barton_dataset(scale / 2);
    data.extend(lubm_dataset(scale - scale / 2));
    let mut dict = hex_dict::Dictionary::new();
    let ids: Vec<hex_dict::IdTriple> = data.iter().map(|t| dict.encode_triple(t)).collect();
    let frozen = hexastore::bulk::build_frozen(ids);
    let triples = frozen.len();

    let mut queries = barton_queries(&dict)
        .expect("cold-open figure: barton constants must resolve — raise the scale");
    queries.extend(
        lubm_queries(&dict)
            .expect("cold-open figure: lubm constants must resolve — raise the scale"),
    );

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let plain_path = dir.join(format!("hexsnap_cold_{pid}.hexsnap"));
    let comp_path = dir.join(format!("hexsnap_cold_{pid}_z.hexsnap"));
    hexsnap::save_frozen(&plain_path, &dict, &frozen).expect("write uncompressed snapshot");
    hexsnap::save_frozen_with(&comp_path, &dict, &frozen, hexsnap::Compression::VarintDelta)
        .expect("write compressed snapshot");
    let plain_bytes = std::fs::metadata(&plain_path).expect("snapshot written").len() as usize;
    let compressed_bytes = std::fs::metadata(&comp_path).expect("snapshot written").len() as usize;

    // Slab-only opens: a fresh Reader each rep, dictionary skipped, so
    // the three numbers isolate exactly what the open paths do
    // differently. The common dictionary decode is timed once apart.
    let open_reader = |path: &std::path::Path| {
        hexsnap::Reader::new(std::io::BufReader::new(
            std::fs::File::open(path).expect("snapshot file"),
        ))
        .expect("snapshot container parses")
    };
    let dict_open = time_op(reps, || open_reader(&plain_path).dictionary().expect("dict").len());
    let eager_open =
        time_op(reps, || open_reader(&plain_path).frozen().expect("eager slab open").len());
    let compressed_open =
        time_op(reps, || open_reader(&comp_path).frozen().expect("compressed slab open").len());
    let mmap_open =
        time_op(reps, || hex_disk::open_store(&plain_path).expect("mmap slab open").len());

    let open_eager = || {
        let (d, s) = hexsnap::load_frozen(&plain_path).expect("eager open");
        Box::new(Dataset::from_parts(d, s))
    };
    let open_mapped = || Box::new(hex_disk::open_dataset(&plain_path).expect("mmap open"));
    let first_text = queries[0].text.clone();
    let eager_first_query = time_first_query(reps, open_eager, &first_text);
    let mmap_first_query = time_first_query(reps, open_mapped, &first_text);

    // Warm comparison on long-lived datasets: correctness first (every
    // answer byte-identical), then the timed sweep over all twelve.
    let eager_ds = {
        let (d, s) = hexsnap::load_frozen(&plain_path).expect("eager open");
        Dataset::from_parts(d, s)
    };
    let mapped_ds = hex_disk::open_dataset(&plain_path).expect("mmap open");
    let mut identical = true;
    for query in &queries {
        let want = eager_ds.query(&query.text).expect("paper query compiles").to_tsv();
        let got = mapped_ds.query(&query.text).expect("paper query compiles").to_tsv();
        identical &= want == got;
    }
    let sweep = |ds: &dyn Fn(&str) -> usize| {
        let mut rows = 0usize;
        for query in &queries {
            rows += ds(&query.text);
        }
        rows
    };
    let eager_warm = time_op(reps, || {
        sweep(&|text| eager_ds.query(text).expect("paper query compiles").rows.len())
    });
    let mmap_warm = time_op(reps, || {
        sweep(&|text| mapped_ds.query(text).expect("paper query compiles").rows.len())
    });

    std::fs::remove_file(&plain_path).ok();
    std::fs::remove_file(&comp_path).ok();

    ColdOpenRow {
        triples,
        plain_bytes,
        compressed_bytes,
        dict_open,
        eager_open,
        compressed_open,
        mmap_open,
        eager_first_query,
        mmap_first_query,
        eager_warm,
        mmap_warm,
        queries: queries.len(),
        identical,
    }
}

/// Renders the cold-open measurement as a one-row CSV.
pub fn cold_open_to_csv(row: &ColdOpenRow) -> String {
    format!(
        "# Cold open — mmap (hex-disk) vs eager slab read vs compressed decode, \
         barton+lubm dataset; slab opens exclude the dictionary decode common to all paths\n\
         triples,plain_bytes,compressed_bytes,size_ratio,dict_open_s,eager_open_s,\
         compressed_open_s,mmap_open_s,open_speedup,eager_first_query_s,mmap_first_query_s,\
         eager_warm_twelve_s,mmap_warm_twelve_s,queries,identical\n\
         {},{},{},{:.3},{:.6},{:.6},{:.6},{:.6},{:.3},{:.6},{:.6},{:.6},{:.6},{},{}\n",
        row.triples,
        row.plain_bytes,
        row.compressed_bytes,
        row.size_ratio(),
        row.dict_open.as_secs_f64(),
        row.eager_open.as_secs_f64(),
        row.compressed_open.as_secs_f64(),
        row.mmap_open.as_secs_f64(),
        row.open_speedup(),
        row.eager_first_query.as_secs_f64(),
        row.mmap_first_query.as_secs_f64(),
        row.eager_warm.as_secs_f64(),
        row.mmap_warm.as_secs_f64(),
        row.queries,
        row.identical,
    )
}

/// One live-write-path measurement: sustained insert throughput into a
/// [`hexastore::LiveGraphStore`] (WAL append + overlay delta) while the
/// LUBM paper queries are replayed against the same store, plus the cost
/// of recovering from the write-ahead log and of compacting the overlay
/// into the next frozen generation.
#[derive(Clone, Debug)]
pub struct LiveWriteRow {
    /// Total dataset size (frozen base + live inserts).
    pub triples: usize,
    /// Triples in the pre-built frozen generation the store opens on.
    pub base_triples: usize,
    /// WAL-logged inserts performed by the timed loop.
    pub inserts: usize,
    /// Paper queries replayed between inserts inside the timed loop.
    pub queries_run: usize,
    /// Wall-clock of the interleaved insert + query loop, including the
    /// final WAL fsync.
    pub insert: Duration,
    /// Wall-clock of `LiveGraphStore::open` replaying the full WAL over
    /// the frozen generation (the crash-recovery path).
    pub recovery: Duration,
    /// Wall-clock of folding the overlay into a new frozen generation
    /// and truncating the WAL.
    pub compact: Duration,
}

impl LiveWriteRow {
    /// Sustained insert throughput of the timed loop (queries included).
    pub fn inserts_per_sec(&self) -> f64 {
        self.inserts as f64 / self.insert.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Measures the live write path on a LUBM dataset of `scale` triples:
/// the first 80% is bulk-built into a frozen generation on disk, then
/// the remaining 20% is inserted one by one through the WAL + overlay,
/// with one paper query replayed (through a [`hex_query::PlanCache`])
/// every thousand inserts so the figure reflects insert-while-query
/// service, not a write-only burst. The store is then dropped *without*
/// compacting, recovery (`open` replaying the whole WAL) is timed, and
/// finally one compaction into the next generation. Files go through the
/// real filesystem (temp dir) so the numbers include I/O.
pub fn live_write_figure(scale: usize, reps: usize) -> LiveWriteRow {
    use hex_bench_queries::lubm_queries;
    use hexastore::{hexsnap, LiveGraphStore};

    const QUERY_EVERY: usize = 1_000;

    let data = lubm_dataset(scale);
    let split = data.len() * 4 / 5;
    let mut dict = hex_dict::Dictionary::new();
    let base_ids: Vec<hex_dict::IdTriple> =
        data[..split].iter().map(|t| dict.encode_triple(t)).collect();
    let base_triples = {
        let mut sorted = base_ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len()
    };
    let frozen = hexastore::bulk::build_frozen(base_ids);
    // The paper queries' constants live in the base 80%; tiny unit-test
    // scales may not bind them all — then the loop is insert-only.
    let queries = lubm_queries(&dict);

    let dir = std::env::temp_dir().join(format!("hexlive_bench_{}_{scale}", std::process::id()));
    let mut insert = Duration::MAX;
    let mut queries_run = 0usize;
    for _ in 0..reps.max(1) {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create live bench dir");
        hexsnap::save_frozen(hexsnap::generation_path(&dir, 0), &dict, &frozen)
            .expect("write base generation");
        let mut live = LiveGraphStore::open(&dir).expect("open live store");
        let mut cache = hex_query::PlanCache::new();
        queries_run = 0;
        let start = Instant::now();
        for (i, t) in data[split..].iter().enumerate() {
            live.insert(t).expect("WAL append");
            if (i + 1) % QUERY_EVERY == 0 {
                if let Some(qs) = &queries {
                    let q = &qs[(i / QUERY_EVERY) % qs.len()];
                    let plan = cache
                        .prepare(live.dataset(), &q.text)
                        .expect("paper query compiles on the live store");
                    std::hint::black_box(plan.solutions().count());
                    queries_run += 1;
                }
            }
        }
        live.sync().expect("WAL fsync");
        insert = insert.min(start.elapsed());
        // Dropped without compacting: the WAL carries every insert into
        // the recovery measurement below.
    }

    let recovery = time_op(reps, || LiveGraphStore::open(&dir).expect("recover live store").len());

    let mut live = LiveGraphStore::open(&dir).expect("recover live store");
    let start = Instant::now();
    live.compact().expect("compact live store");
    let compact = start.elapsed();
    let triples = live.len();
    drop(live);
    std::fs::remove_dir_all(&dir).ok();

    LiveWriteRow {
        triples,
        base_triples,
        inserts: data.len() - split,
        queries_run,
        insert,
        recovery,
        compact,
    }
}

/// Renders the live-write measurement as a one-row CSV.
pub fn live_write_to_csv(row: &LiveWriteRow) -> String {
    format!(
        "# Live write path — WAL + overlay inserts while replaying paper queries, lubm dataset\n\
         triples,base_triples,inserts,queries_run,insert_s,inserts_per_second,recovery_s,\
         compact_s\n\
         {},{},{},{},{:.6},{:.1},{:.6},{:.6}\n",
        row.triples,
        row.base_triples,
        row.inserts,
        row.queries_run,
        row.insert.as_secs_f64(),
        row.inserts_per_sec(),
        row.recovery.as_secs_f64(),
        row.compact.as_secs_f64(),
    )
}

/// One concurrent-serving measurement: reader threads answering the
/// paper queries against published snapshots while a writer mutates and
/// compacts the same live store underneath.
#[derive(Clone, Debug)]
pub struct QpsRow {
    /// Total dataset size (frozen base + the writer's churn window).
    pub triples: usize,
    /// Triples in the pre-built frozen generation the store opens on.
    pub base_triples: usize,
    /// Reader threads in the concurrent pass.
    pub clients: usize,
    /// Queries answered by the concurrent pass.
    pub queries: usize,
    /// Wall-clock of the concurrent pass.
    pub elapsed: Duration,
    /// Queries answered by the one-client baseline pass.
    pub single_queries: usize,
    /// Wall-clock of the one-client baseline pass.
    pub single_elapsed: Duration,
    /// Writer mutations (inserts + removes) during the concurrent pass.
    pub writes: usize,
    /// Compactions — snapshot handoffs — during the concurrent pass.
    pub compactions: usize,
    /// Median query latency of the concurrent pass.
    pub p50: Duration,
    /// 95th-percentile query latency of the concurrent pass.
    pub p95: Duration,
    /// 99th-percentile query latency of the concurrent pass.
    pub p99: Duration,
}

impl QpsRow {
    /// Queries per second of the concurrent pass.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Queries per second of the one-client baseline.
    pub fn single_qps(&self) -> f64 {
        self.single_queries as f64 / self.single_elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Concurrent throughput over the one-client baseline (>1: the
    /// snapshot handoff scales reads across cores).
    pub fn speedup(&self) -> f64 {
        self.qps() / self.single_qps().max(f64::MIN_POSITIVE)
    }
}

/// Raw output of one [`serve_pass`] run.
struct ServePass {
    queries: usize,
    elapsed: Duration,
    latencies: Vec<Duration>,
    writes: usize,
    compactions: usize,
}

/// Nearest-rank percentile of an ascending latency slice.
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    match sorted.len() {
        0 => Duration::ZERO,
        n => sorted[(((n - 1) as f64) * q).round() as usize],
    }
}

/// One timed serving pass for [`qps_figure`]: opens the store on the
/// saved base generation, spawns a writer thread cycling the churn
/// window (an insert pass, then a remove pass, compacting every
/// `compact_every` mutations — each compaction publishing the next
/// snapshot generation) and `clients` reader threads answering
/// `per_client` queries each against [`hexastore::SnapshotHandle`]
/// snapshots, through a per-client [`hex_query::PlanCache`].
#[allow(clippy::too_many_arguments)]
fn serve_pass(
    dir: &std::path::Path,
    dict: &hex_dict::Dictionary,
    frozen: &hexastore::FrozenHexastore,
    tail: &[Triple],
    queries: &[hex_bench_queries::PaperQuery],
    clients: usize,
    per_client: usize,
    compact_every: usize,
) -> ServePass {
    use hexastore::{hexsnap, LiveGraphStore};
    use std::sync::atomic::{AtomicBool, Ordering};

    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("create serve bench dir");
    hexsnap::save_frozen(hexsnap::generation_path(dir, 0), dict, frozen)
        .expect("write base generation");
    let mut live = LiveGraphStore::open(dir).expect("open live store");
    let handles: Vec<_> = (0..clients).map(|_| live.subscribe()).collect();
    let stop = AtomicBool::new(false);
    let stop = &stop;
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let (mut writes, mut compactions, mut since_compact) = (0usize, 0usize, 0usize);
            let mut removing = false;
            'serve: while !tail.is_empty() {
                for t in tail {
                    if stop.load(Ordering::Relaxed) {
                        break 'serve;
                    }
                    let applied = if removing { live.remove(t) } else { live.insert(t) };
                    applied.expect("WAL append");
                    writes += 1;
                    since_compact += 1;
                    if since_compact >= compact_every {
                        live.sync().expect("WAL fsync");
                        live.compact().expect("compact under load");
                        compactions += 1;
                        since_compact = 0;
                    }
                }
                removing = !removing;
            }
            live.sync().expect("WAL fsync");
            (writes, compactions)
        });
        let start = Instant::now();
        let readers: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(c, handle)| {
                scope.spawn(move || {
                    let mut cache = hex_query::PlanCache::new();
                    let mut latencies = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let q = &queries[(c + i) % queries.len()];
                        let t0 = Instant::now();
                        let snapshot = handle.load();
                        let plan = cache
                            .prepare(snapshot.as_ref(), &q.text)
                            .expect("paper query compiles on a published snapshot");
                        std::hint::black_box(plan.run().len());
                        latencies.push(t0.elapsed());
                    }
                    latencies
                })
            })
            .collect();
        let mut latencies = Vec::with_capacity(clients * per_client);
        for r in readers {
            latencies.extend(r.join().expect("reader thread panicked"));
        }
        let elapsed = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        let (writes, compactions) = writer.join().expect("writer thread panicked");
        ServePass { queries: latencies.len(), elapsed, latencies, writes, compactions }
    })
}

/// Measures concurrent serving on a combined Barton + LUBM dataset of
/// `scale` triples. The first 80% of both halves is bulk-built into a
/// frozen generation under one shared dictionary — so all twelve paper
/// queries resolve against a single live store — and the remaining 20%
/// is the writer's churn window. One pass runs `clients` reader threads
/// answering the twelve queries round-robin against published snapshots
/// while the writer inserts/removes the window and compacts every
/// quarter window; a second pass with one reader under the same write
/// load is the throughput baseline. Median-elapsed pass of `reps` each.
pub fn qps_figure(scale: usize, clients: usize, reps: usize) -> QpsRow {
    use hex_bench_queries::{barton_queries, lubm_queries};

    const PER_CLIENT: usize = 200;

    let mut data = barton_dataset(scale / 2);
    data.extend(lubm_dataset(scale - scale / 2));
    let split = data.len() * 4 / 5;
    let mut dict = hex_dict::Dictionary::new();
    let base_ids: Vec<hex_dict::IdTriple> =
        data[..split].iter().map(|t| dict.encode_triple(t)).collect();
    let base_triples = {
        let mut sorted = base_ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len()
    };
    let frozen = hexastore::bulk::build_frozen(base_ids);
    let mut queries = Vec::new();
    if let Some(qs) = barton_queries(&dict) {
        queries.extend(qs);
    }
    if let Some(qs) = lubm_queries(&dict) {
        queries.extend(qs);
    }
    assert!(
        !queries.is_empty(),
        "qps figure: no paper-query constants bound in the base 80% — raise the scale"
    );
    let tail = &data[split..];
    let compact_every = (tail.len() / 4).max(250);

    let dir = std::env::temp_dir().join(format!("hexserve_bench_{}_{scale}", std::process::id()));
    let (mut multi_passes, mut single_passes) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        multi_passes.push(serve_pass(
            &dir,
            &dict,
            &frozen,
            tail,
            &queries,
            clients,
            PER_CLIENT,
            compact_every,
        ));
        single_passes.push(serve_pass(
            &dir,
            &dict,
            &frozen,
            tail,
            &queries,
            1,
            PER_CLIENT,
            compact_every,
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
    // Report the pass with the median elapsed time, for the same
    // robustness reasons as [`median`].
    let mid = |mut passes: Vec<ServePass>| {
        passes.sort_by_key(|p| p.elapsed);
        let n = passes.len();
        passes.swap_remove(n / 2)
    };
    let (multi, single) = (mid(multi_passes), mid(single_passes));
    let mut sorted = multi.latencies;
    sorted.sort_unstable();
    QpsRow {
        triples: data.len(),
        base_triples,
        clients,
        queries: multi.queries,
        elapsed: multi.elapsed,
        single_queries: single.queries,
        single_elapsed: single.elapsed,
        writes: multi.writes,
        compactions: multi.compactions,
        p50: percentile(&sorted, 0.50),
        p95: percentile(&sorted, 0.95),
        p99: percentile(&sorted, 0.99),
    }
}

/// Renders the concurrent-serving measurement as a one-row CSV.
pub fn qps_to_csv(row: &QpsRow) -> String {
    format!(
        "# Concurrent serving — paper queries from client threads over published snapshots, \
         writer compacting underneath, barton+lubm dataset\n\
         triples,base_triples,clients,queries,seconds,qps,single_seconds,single_qps,speedup,\
         writes,compactions,p50_s,p95_s,p99_s\n\
         {},{},{},{},{:.6},{:.1},{:.6},{:.1},{:.3},{},{},{:.6},{:.6},{:.6}\n",
        row.triples,
        row.base_triples,
        row.clients,
        row.queries,
        row.elapsed.as_secs_f64(),
        row.qps(),
        row.single_elapsed.as_secs_f64(),
        row.single_qps(),
        row.speedup(),
        row.writes,
        row.compactions,
        row.p50.as_secs_f64(),
        row.p95.as_secs_f64(),
        row.p99.as_secs_f64(),
    )
}

/// One planner-ablation measurement: the same paper query answered by
/// the hand-written per-store plan, by the planner's constants-only
/// order, and by the statistics-refined order.
#[derive(Clone, Debug)]
pub struct PlanRow {
    /// Paper query name ("BQ1" … "LQ5").
    pub name: String,
    /// Dataset the query runs on ("barton" or "lubm").
    pub dataset: String,
    /// Solution rows the planned query returns (identical for both
    /// planner modes; the hand plan's aggregated result differs in shape).
    pub rows: usize,
    /// Wall-clock of the hand-written Hexastore plan.
    pub hand: Duration,
    /// Wall-clock of `prepare` + collect with constants-only estimates.
    pub planned: Duration,
    /// Wall-clock of `prepare` + collect with [`hexastore::DatasetStats`].
    pub planned_stats: Duration,
}

impl PlanRow {
    /// Constants-only time over stats-refined time (>1: stats won).
    pub fn stats_speedup(&self) -> f64 {
        self.planned.as_secs_f64() / self.planned_stats.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Times the twelve paper queries through `prepare` on both datasets at
/// `scale` triples each: the planner's constants-only order, the
/// statistics-refined order (one [`hexastore::DatasetStats`] pass per
/// dataset, computed outside the timed region), and the paper's
/// hand-written Hexastore plan as the reference. Plans are prepared once
/// and re-run, so the measurement compares join *orders*, not parsing.
pub fn plans_figure(scale: usize, reps: usize) -> Vec<PlanRow> {
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
        let graph = suite.dataset();
        let stats = suite.stats();
        let hands = hand_plans(&suite, dataset);
        for query in queries {
            let plain = graph.prepare(&query.text).expect("paper query compiles");
            let refined =
                graph.prepare_with_stats(&query.text, Some(&stats)).expect("paper query compiles");
            let rows = plain.run().len();
            let hand_fn = &hands[query.name];
            out.push(PlanRow {
                name: query.name.to_string(),
                dataset: dataset.to_string(),
                rows,
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
                        std::hint::black_box($body(s, &$ids));
                    }),
                );
            }};
        }
        hand!("BQ1", i, |s: &Suite, i| barton::bq1_hexastore(&s.hexastore, i));
        hand!("BQ2", i, |s: &Suite, i| barton::bq2_hexastore(&s.hexastore, i, None));
        hand!("BQ3", i, |s: &Suite, i| barton::bq3_hexastore(&s.hexastore, i, None));
        hand!("BQ4", i, |s: &Suite, i| barton::bq4_hexastore(&s.hexastore, i, None));
        hand!("BQ5", i, |s: &Suite, i| barton::bq5_hexastore(&s.hexastore, i));
        hand!("BQ6", i, |s: &Suite, i| barton::bq6_hexastore(&s.hexastore, i, None));
        hand!("BQ7", i, |s: &Suite, i| barton::bq7_hexastore(&s.hexastore, i));
    } else {
        let ids = LubmIds::resolve(&suite.dict).expect("lubm constants resolve");
        macro_rules! hand {
            ($name:expr, $ids:ident, $body:expr) => {{
                let $ids = ids.clone();
                map.insert(
                    $name,
                    Box::new(move |s: &Suite| {
                        std::hint::black_box($body(s, &$ids));
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
pub fn plans_to_csv(rows: &[PlanRow]) -> String {
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

/// One merge-join measurement: the planner's merge-intersection
/// execution against the same plan with merge joins forced off (nested
/// probes), on two synthetic join shapes — a three-way star on a shared
/// subject and a hub → members chain — plus a TSV-identity sweep over
/// the twelve paper queries (default vs forced-nested vs
/// [`hex_query::Plan::run_parallel`] at 2 and 4 threads).
#[derive(Clone, Debug)]
pub struct JoinsRow {
    /// Synthetic dataset size in triples (star + chain components).
    pub triples: usize,
    /// Solution rows of the star query.
    pub star_rows: usize,
    /// Star query with merge joins disabled: nested probes re-check
    /// every candidate of the first list against the other two.
    pub star_nested: Duration,
    /// Star query through the default plan: one galloping intersection
    /// of the three sorted terminal lists seeds the tail walk.
    pub star_merge: Duration,
    /// Star query through `run_parallel(4)`: the merged candidate
    /// vector sharded across four workers.
    pub star_parallel4: Duration,
    /// Solution rows of the chain query.
    pub chain_rows: usize,
    /// Chain query with merge joins disabled.
    pub chain_nested: Duration,
    /// Chain query through the default plan: subjects-of(mark) ∩
    /// objects-of(hub, link), one intersection across two roles.
    pub chain_merge: Duration,
    /// True when both default plans compiled a merge-intersect group
    /// (their `explain()` tags a step `join=merge`).
    pub merge_used: bool,
    /// Paper queries swept for identity (twelve when both vocabularies
    /// resolve at this scale).
    pub paper_queries: usize,
    /// True when the star, the chain and every paper query answered
    /// byte-identically (TSV rendering included) through the default
    /// plan, the forced-nested plan, and `run_parallel` at 2 and 4
    /// threads.
    pub identical: bool,
}

impl JoinsRow {
    /// Nested-probe time over merge-intersection time on the star
    /// query (>1: merge wins).
    pub fn star_speedup(&self) -> f64 {
        self.star_nested.as_secs_f64() / self.star_merge.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Nested-probe time over merge-intersection time on the chain
    /// query (>1: merge wins).
    pub fn chain_speedup(&self) -> f64 {
        self.chain_nested.as_secs_f64() / self.chain_merge.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// The star half of the joins query pair: four single-variable
/// patterns on a shared subject (selectivities 1/2, 1/3, 1/5 and 1)
/// feeding a two-variable tail, so the measurement covers both the
/// intersection and the seeded downstream walk.
pub const JOINS_STAR_QUERY: &str = "SELECT ?s ?v WHERE { \
     ?s <http://joins/even> <http://joins/Yes> . \
     ?s <http://joins/third> <http://joins/Yes> . \
     ?s <http://joins/fifth> <http://joins/Yes> . \
     ?s <http://joins/type> <http://joins/Node> . \
     ?s <http://joins/val> ?v . }";

/// The chain half: the shared variable sits in the *object* role of one
/// pattern and the *subject* role of the other, so the intersection
/// crosses index roles (objects-of(hub, link) ∩ subjects-of(mark, M)).
pub const JOINS_CHAIN_QUERY: &str = "SELECT ?x WHERE { \
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
/// queries through the default (merge-intersect) plan, the same plan
/// with [`hex_query::Plan::force_nested_joins`], and `run_parallel(4)`
/// over the frozen store, verifying along the way that every execution
/// strategy answers byte-identically — on the two synthetic queries and
/// on the twelve paper queries over barton + lubm datasets at the same
/// scale.
pub fn joins_figure(scale: usize, reps: usize) -> JoinsRow {
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
        for threads in [2usize, 4] {
            identical &= plan.run_parallel(ds.store(), threads) == want;
        }
        (
            want.rows.len(),
            time_query(reps, || nested.solutions().count()),
            time_query(reps, || plan.solutions().count()),
            time_query(reps, || plan.run_parallel(ds.store(), 4).rows.len()),
        )
    };
    let (star_rows, star_nested, star_merge, star_parallel4) = measure(JOINS_STAR_QUERY);
    let (chain_rows, chain_nested, chain_merge, _) = measure(JOINS_CHAIN_QUERY);

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
            let want = plan.run();
            identical &= want.to_tsv() == nested.run().to_tsv();
            for threads in [2usize, 4] {
                identical &= plan.run_parallel(pds.store(), threads) == want;
            }
            paper_queries += 1;
        }
    }

    JoinsRow {
        triples,
        star_rows,
        star_nested,
        star_merge,
        star_parallel4,
        chain_rows,
        chain_nested,
        chain_merge,
        merge_used,
        paper_queries,
        identical,
    }
}

/// Renders joins measurements as CSV, one row per scale.
pub fn joins_to_csv(rows: &[JoinsRow]) -> String {
    let mut out = String::from(
        "# Figure joins — merge-intersection vs forced nested probes on the star and chain \
         joins, plus twelve-paper-query identity (default vs nested vs parallel)\n",
    );
    out.push_str(
        "triples,star_rows,star_nested_s,star_merge_s,star_parallel4_s,star_speedup,chain_rows,\
         chain_nested_s,chain_merge_s,chain_speedup,merge_used,paper_queries,identical\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6},{:.3},{},{:.6},{:.6},{:.3},{},{},{}\n",
            row.triples,
            row.star_rows,
            row.star_nested.as_secs_f64(),
            row.star_merge.as_secs_f64(),
            row.star_parallel4.as_secs_f64(),
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

/// The §4.1 space-bound experiment: blowup of Hexastore key entries vs a
/// triples table, on both datasets plus the adversarial all-distinct case.
pub fn space_report(scale: usize) -> String {
    let mut out = String::from("# §4.1 — index space vs triples table (key entries)\n");
    out.push_str("dataset,triples,header,vector,list,total,triples_table,blowup\n");
    let mut line = |name: &str, stats: hexastore::SpaceStats| {
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
        line(name, suite.hexastore.space_stats());
        let frozen = suite.hexastore.freeze();
        let (b, n) = (frozen.heap_breakdown(), frozen.len().max(1) as f64);
        let parts = [b.list_slots, b.overflow, b.vector_keys, b.mirror_list_refs, b.headers];
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
    let h = hexastore::Hexastore::from_triples(worst);
    line("all-distinct(worst case)", h.space_stats());
    out + &heap
}

/// The §4.3 path-expression experiment: end-to-end time and join counts
/// for length-n property paths on the Hexastore plan (pos+pso) vs the
/// property-table plan (COVP1-style gather-and-sort).
pub fn path_report(scale: usize) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn run_figure_smoke_barton() {
        let fig = run_figure("3", 8_000, 2, 1);
        assert_eq!(fig.rows.len(), 2);
        assert!(fig.rows[0].points.iter().any(|p| p.label == "Hexastore"));
        let csv = fig.to_csv();
        assert!(csv.contains("Figure 3"));
        assert!(csv.contains("triples,Hexastore,COVP1,COVP2"));
    }

    #[test]
    fn run_figure_smoke_lubm() {
        let fig = run_figure("10", 8_000, 2, 1);
        assert!(!fig.rows.is_empty());
        assert_eq!(fig.rows.last().unwrap().triples, 8_000);
    }

    #[test]
    fn figure4_includes_28_variants() {
        let fig = run_figure("4", 8_000, 1, 1);
        let labels: Vec<&str> = fig.rows[0].points.iter().map(|p| p.label.as_str()).collect();
        assert!(labels.contains(&"Hexastore 28"));
        assert!(labels.contains(&"COVP1 28"));
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn load_figure_measures_both_loaders() {
        let rows = load_figure("lubm", 5_000, 2, 1, 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.last().unwrap().triples, 5_000);
        for row in &rows {
            assert!(row.encode > Duration::ZERO);
            assert!(row.serial > Duration::ZERO);
            assert!(row.parallel > Duration::ZERO);
            assert!(row.speedup() > 0.0);
            let share = row.encode_share();
            assert!((0.0..=1.0).contains(&share), "encode share {share}");
        }
        let csv = load_to_csv("lubm", &rows);
        assert!(csv.contains("Figure load"));
        assert!(csv.contains("triples,encode_s,serial_s,parallel_s,speedup,encode_share"));
        assert_eq!(csv.lines().count(), 2 + rows.len());
    }

    #[test]
    fn dict_figure_measures_encode_heap_and_open_paths() {
        let row = dict_figure(5_000, 1);
        assert_eq!(row.triples, 5_000);
        assert!(row.terms > 0);
        assert!(row.encode_serial > Duration::ZERO);
        // The figure itself asserts arena < legacy; re-check the ratio.
        assert!(row.heap_ratio() < 1.0, "heap ratio {}", row.heap_ratio());
        assert!(row.eager_dict_open > Duration::ZERO);
        assert!(row.mapped_open > Duration::ZERO);
        assert_eq!(row.index.terms, row.terms);
        assert!(row.index.mean_displacement <= 4.0, "{:?}", row.index);
        let csv = dict_to_csv(&row);
        assert!(csv.contains("Dictionary at scale"));
        assert!(csv.contains("triples,terms,encode_serial_s,serial_mtriples_s,arena_heap_bytes"));
        assert!(csv.contains("open_speedup,index_mean_displacement,index_max_displacement\n"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn legacy_heap_model_counts_every_allocation_kind() {
        use rdf_model::Term;
        let terms = [
            Term::iri("http://x/a"),
            Term::blank("b1"),
            Term::literal("plain"),
            Term::lang_literal("tagged", "en"),
            Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer"),
        ];
        let all = legacy_dict_heap_bytes(&terms);
        // Dropping the typed literal must shed its lexical + datatype
        // allocations; dropping the plain literal only its lexical one.
        let without_typed = legacy_dict_heap_bytes(&terms[..4]);
        assert!(all > without_typed);
        assert_eq!(legacy_dict_heap_bytes(&[]), 0);
    }

    #[test]
    fn plans_figure_times_all_twelve_queries() {
        let rows = plans_figure(8_000, 1);
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
        assert!(row.identical, "merge/nested/parallel executions must agree byte-for-byte");
        assert_eq!(row.paper_queries, 12, "seven Barton + five LUBM queries");
        // Star subjects divisible by 30 survive; the chain keeps every
        // even member: both intersections must actually select rows.
        assert!(row.star_rows > 0 && row.chain_rows > 0);
        assert!(row.star_merge > Duration::ZERO && row.chain_merge > Duration::ZERO);
        let csv = joins_to_csv(&[row.clone(), row]);
        assert!(csv.contains("star_nested_s,star_merge_s,star_parallel4_s,star_speedup"));
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
    fn snapshot_figure_measures_both_formats() {
        let row = snapshot_figure(5_000, 1);
        assert!(row.triples > 0 && row.triples <= 5_000);
        assert!(row.json_bytes > 0 && row.binary_bytes > 0);
        assert!(row.binary_bytes < row.json_bytes, "compact binary must beat JSON text");
        assert!(row.frozen_bytes > row.binary_bytes, "slab sections cost bytes");
        for d in
            [row.json_save, row.json_restore, row.binary_save, row.binary_open, row.binary_rebuild]
        {
            assert!(d > Duration::ZERO);
        }
        let csv = snapshot_to_csv(&row);
        assert!(csv.contains("triples,json_bytes,binary_bytes"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn live_write_figure_measures_the_full_lifecycle() {
        let row = live_write_figure(5_000, 1);
        assert!(row.triples > 0 && row.triples <= 5_000);
        assert!(row.base_triples > 0);
        assert_eq!(row.inserts, lubm_dataset(5_000).len().div_ceil(5));
        for d in [row.insert, row.recovery, row.compact] {
            assert!(d > Duration::ZERO);
        }
        assert!(row.inserts_per_sec() > 0.0);
        let csv = live_write_to_csv(&row);
        assert!(csv.contains("triples,base_triples,inserts,queries_run,insert_s"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn qps_figure_serves_under_concurrent_writes() {
        let row = qps_figure(16_000, 2, 1);
        assert_eq!(row.clients, 2);
        assert_eq!(row.queries, 400, "two clients x 200 queries each");
        assert_eq!(row.single_queries, 200);
        assert!(row.base_triples > 0 && row.base_triples <= row.triples);
        assert!(row.elapsed > Duration::ZERO && row.single_elapsed > Duration::ZERO);
        assert!(row.writes > 0, "the writer must have mutated during serving");
        assert!(row.p50 <= row.p95 && row.p95 <= row.p99);
        assert!(row.qps() > 0.0 && row.single_qps() > 0.0 && row.speedup() > 0.0);
        let csv = qps_to_csv(&row);
        assert!(csv.contains("triples,base_triples,clients,queries,seconds,qps"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn memory_figure_shows_hexastore_largest() {
        let rows = memory_figure("barton", 10_000, 1);
        let bytes = &rows[0].bytes;
        let get = |label: &str| bytes.iter().find(|(l, _)| l == label).map(|&(_, b)| b).unwrap();
        assert!(get("Hexastore") > get("COVP2"));
        assert!(get("COVP2") > get("COVP1"));
        assert!(get("COVP1") >= get("TriplesTable") / 2);
        let csv = memory_to_csv("barton", &rows);
        assert!(csv.contains("Figure 15"));
    }
}
