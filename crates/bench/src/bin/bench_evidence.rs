//! CI benchmark-evidence collector.
//!
//! Runs every figure at a small fixed scale, writes each CSV to an output
//! directory, measures bulk-load throughput (serial vs parallel) at a
//! larger scale, and summarizes everything in a machine-readable
//! `BENCH_ci.json` so the perf trajectory of the repository is diffable
//! across PRs.
//!
//! ```text
//! bench_evidence [--triples N] [--points K] [--reps R] [--threads T]
//!                [--load-triples M] [--out DIR]
//! ```
//!
//! The CI job runs this on every PR and uploads `DIR` as a workflow
//! artifact; see `.github/workflows/ci.yml`.

use hex_bench::{
    ask_early_exit, ask_to_csv, cli, cold_open_figure, cold_open_to_csv, dict_figure, dict_to_csv,
    joins_figure, joins_to_csv, live_write_figure, live_write_to_csv, load_figure, load_to_csv,
    memory_figure, memory_to_csv, path_report, plans_figure, plans_to_csv, qps_figure, qps_to_csv,
    run_figure, snapshot_figure, snapshot_to_csv, space_report, AskRow, ColdOpenRow, DictRow,
    Figure, JoinsRow, LiveWriteRow, LoadRow, PlanRow, QpsRow, SnapshotRow, FIGURES,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

struct Args {
    triples: usize,
    points: usize,
    reps: usize,
    threads: usize,
    load_triples: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        triples: 20_000,
        points: 5,
        // Every figure reports the median over reps; three is the
        // smallest count where the median can shrug off one outlier.
        reps: 3,
        threads: 4,
        load_triples: 200_000,
        out: PathBuf::from("bench-artifacts"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--triples" | "-n" => args.triples = cli::parse_usize(&mut it, "--triples")?,
            "--points" | "-p" => args.points = cli::parse_usize(&mut it, "--points")?,
            "--reps" | "-r" => args.reps = cli::parse_usize(&mut it, "--reps")?,
            "--threads" | "-t" => args.threads = cli::parse_usize(&mut it, "--threads")?,
            "--load-triples" => args.load_triples = cli::parse_usize(&mut it, "--load-triples")?,
            "--out" | "-o" => args.out = PathBuf::from(cli::value(&mut it, "--out")?),
            "--help" | "-h" => {
                println!(
                    "bench_evidence — run all figures + the load benchmark, write CSVs and \
                     BENCH_ci.json\n\nusage: bench_evidence [--triples N] [--points K] [--reps R] \
                     [--threads T] [--load-triples M] [--out DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.points == 0 || args.triples < 1000 || args.threads == 0 || args.load_triples < 1000 {
        return Err(
            "need --points >= 1, --threads >= 1 and --triples/--load-triples >= 1000".into()
        );
    }
    Ok(args)
}

/// Peak (slowest) measured response time across all rows and series of a
/// timing figure — the number that regresses first when a plan degrades.
fn peak_seconds(fig: &Figure) -> f64 {
    fig.rows.iter().flat_map(|r| r.points.iter()).map(|p| p.time.as_secs_f64()).fold(0.0, f64::max)
}

fn write_file(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    std::fs::write(&path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("# wrote {}", path.display());
}

/// Formats an `f64` for JSON: finite, plain decimal notation.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.out)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", args.out.display()));
    eprintln!(
        "# bench_evidence: triples={} points={} reps={} threads={} load_triples={} out={}",
        args.triples,
        args.points,
        args.reps,
        args.threads,
        args.load_triples,
        args.out.display()
    );

    // Timing figures: CSV per figure plus a peak-seconds summary entry.
    let mut figure_entries: Vec<String> = Vec::new();
    for (id, title) in FIGURES {
        match id {
            "15" => {
                let mut csv = String::new();
                for dataset in ["barton", "lubm"] {
                    csv.push_str(&memory_to_csv(
                        dataset,
                        &memory_figure(dataset, args.triples, args.points),
                    ));
                    csv.push('\n');
                }
                write_file(&args.out, "figure_15_memory.csv", &csv);
            }
            "space" => write_file(&args.out, "space.csv", &space_report(args.triples)),
            "path" => write_file(&args.out, "path.csv", &path_report(args.triples)),
            // measured separately below
            "load" | "snapshot" | "plans" | "live_write" | "qps" | "cold_open" | "dict"
            | "joins" => {}
            timing => {
                let fig = run_figure(timing, args.triples, args.points, args.reps);
                write_file(&args.out, &format!("figure_{timing}.csv"), &fig.to_csv());
                figure_entries.push(format!(
                    "    {{\"id\": \"{timing}\", \"title\": \"{title}\", \"peak_seconds\": {}}}",
                    num(peak_seconds(&fig))
                ));
            }
        }
    }

    // Load throughput at the larger scale: the acceptance signal for the
    // parallel loader, one row (the full batch).
    let load_rows = load_figure("lubm", args.load_triples, 1, args.reps, args.threads);
    write_file(&args.out, "load.csv", &load_to_csv("lubm", &load_rows));
    let load: &LoadRow = load_rows.last().expect("load figure produced no rows");

    // ASK early exit at the same large scale: the acceptance signal for
    // the streaming query surface (streamed plan vs materializing path).
    let ask: AskRow = ask_early_exit(args.load_triples, args.reps);
    write_file(&args.out, "ask_early_exit.csv", &ask_to_csv(&ask));

    // Snapshot formats at the same large scale: the acceptance signal
    // for the binary hexsnap format (frozen open vs JSON rebuild).
    let snap: SnapshotRow = snapshot_figure(args.load_triples, args.reps);
    write_file(&args.out, "snapshot.csv", &snapshot_to_csv(&snap));

    // Live write path at the same large scale: the acceptance signal for
    // the WAL + overlay write path (sustained inserts while replaying
    // paper queries, WAL recovery, compaction into a new generation).
    let live: LiveWriteRow = live_write_figure(args.load_triples, args.reps);
    write_file(&args.out, "live_write.csv", &live_write_to_csv(&live));

    // Cold open at the same large scale: the acceptance signal for the
    // compressed slab sections (size) and the hex-disk mmap path (open
    // time + query parity against the eager store).
    let cold: ColdOpenRow = cold_open_figure(args.load_triples, args.reps);
    write_file(&args.out, "cold_open.csv", &cold_open_to_csv(&cold));
    assert!(
        cold.identical,
        "mmap-backed store answered a paper query differently from the eager store"
    );

    // Dictionary at the same large scale: the acceptance signal for the
    // arena interning and its reverse index (encode time, probe
    // displacement, arena vs legacy heap, eager vs mapped DICT open). The figure
    // asserts internally that the arena heap is strictly smaller and
    // the mapped open keeps the arena shared.
    let dict: DictRow = dict_figure(args.load_triples, args.reps);
    write_file(&args.out, "dict.csv", &dict_to_csv(&dict));

    // Merge-join execution at figure scale and at the larger load scale:
    // the acceptance signal for the planner's merge-intersection path
    // (galloping sorted-list intersection vs forced nested probes on the
    // star and chain shapes, parallel composition, and twelve-query
    // identity). The large-scale star speedup is the CI-gated number.
    let joins_small: JoinsRow = joins_figure(args.triples, args.reps);
    let joins: JoinsRow = joins_figure(args.load_triples, args.reps);
    write_file(&args.out, "joins.csv", &joins_to_csv(&[joins_small.clone(), joins.clone()]));
    assert!(
        joins_small.merge_used && joins.merge_used,
        "planner did not pick merge-intersection for the star/chain join queries"
    );
    assert!(
        joins_small.identical && joins.identical,
        "merge-join execution answered a query differently from the nested walk"
    );

    // Concurrent serving at figure scale: the acceptance signal for the
    // snapshot-handoff read path (N client threads over published
    // snapshots vs one client, under the same concurrent write load).
    let qps: QpsRow = qps_figure(args.triples, args.threads, args.reps);
    write_file(&args.out, "qps.csv", &qps_to_csv(&qps));

    // Planner ablation at figure scale: the twelve paper queries through
    // prepare — hand-written plan vs planner, statistics off/on. The
    // acceptance signals: stats is never slower than 1.2x the
    // constants-only order and improves at least one query.
    let plan_rows: Vec<PlanRow> = plans_figure(args.triples, args.reps);
    write_file(&args.out, "query_plans.csv", &plans_to_csv(&plan_rows));
    let stats_improved = plan_rows.iter().filter(|r| r.stats_speedup() > 1.1).count();
    let max_stats_slowdown = plan_rows
        .iter()
        .map(|r| 1.0 / r.stats_speedup().max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": 1,");
    let _ = writeln!(json, "  \"figures_triples\": {},", args.triples);
    let _ = writeln!(json, "  \"reps\": {},", args.reps);
    let _ = writeln!(json, "  \"load\": {{");
    let _ = writeln!(json, "    \"dataset\": \"lubm\",");
    let _ = writeln!(json, "    \"triples\": {},", load.triples);
    let _ = writeln!(json, "    \"threads\": {},", load.threads);
    let _ = writeln!(json, "    \"encode_seconds\": {},", num(load.encode.as_secs_f64()));
    let _ = writeln!(json, "    \"encode_share\": {},", num(load.encode_share()));
    let _ = writeln!(json, "    \"serial_seconds\": {},", num(load.serial.as_secs_f64()));
    let _ = writeln!(json, "    \"parallel_seconds\": {},", num(load.parallel.as_secs_f64()));
    let _ = writeln!(json, "    \"speedup\": {},", num(load.speedup()));
    let _ = writeln!(
        json,
        "    \"serial_triples_per_second\": {},",
        num(LoadRow::mtriples_per_sec(load.triples, load.serial) * 1e6)
    );
    let _ = writeln!(
        json,
        "    \"parallel_triples_per_second\": {}",
        num(LoadRow::mtriples_per_sec(load.triples, load.parallel) * 1e6)
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"ask_early_exit\": {{");
    let _ = writeln!(json, "    \"dataset\": \"lubm\",");
    let _ = writeln!(json, "    \"triples\": {},", ask.triples);
    let _ = writeln!(json, "    \"matches\": {},", ask.matches);
    let _ = writeln!(json, "    \"streamed_seconds\": {},", num(ask.streamed.as_secs_f64()));
    let _ =
        writeln!(json, "    \"materialized_seconds\": {},", num(ask.materialized.as_secs_f64()));
    let _ = writeln!(json, "    \"speedup\": {}", num(ask.speedup()));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"snapshot\": {{");
    let _ = writeln!(json, "    \"dataset\": \"lubm\",");
    let _ = writeln!(json, "    \"triples\": {},", snap.triples);
    let _ = writeln!(json, "    \"json_bytes\": {},", snap.json_bytes);
    let _ = writeln!(json, "    \"binary_bytes\": {},", snap.binary_bytes);
    let _ = writeln!(json, "    \"frozen_bytes\": {},", snap.frozen_bytes);
    let _ = writeln!(json, "    \"json_save_seconds\": {},", num(snap.json_save.as_secs_f64()));
    let _ =
        writeln!(json, "    \"json_restore_seconds\": {},", num(snap.json_restore.as_secs_f64()));
    let _ = writeln!(json, "    \"binary_save_seconds\": {},", num(snap.binary_save.as_secs_f64()));
    let _ = writeln!(
        json,
        "    \"binary_open_frozen_seconds\": {},",
        num(snap.binary_open.as_secs_f64())
    );
    let _ = writeln!(
        json,
        "    \"binary_rebuild_seconds\": {},",
        num(snap.binary_rebuild.as_secs_f64())
    );
    let _ = writeln!(json, "    \"open_speedup_vs_json\": {},", num(snap.open_speedup()));
    let _ = writeln!(json, "    \"size_ratio_vs_json\": {}", num(snap.size_ratio()));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"live_write\": {{");
    let _ = writeln!(json, "    \"dataset\": \"lubm\",");
    let _ = writeln!(json, "    \"triples\": {},", live.triples);
    let _ = writeln!(json, "    \"base_triples\": {},", live.base_triples);
    let _ = writeln!(json, "    \"inserts\": {},", live.inserts);
    let _ = writeln!(json, "    \"queries_run\": {},", live.queries_run);
    let _ = writeln!(json, "    \"insert_seconds\": {},", num(live.insert.as_secs_f64()));
    let _ = writeln!(json, "    \"inserts_per_second\": {},", num(live.inserts_per_sec()));
    let _ = writeln!(json, "    \"recovery_seconds\": {},", num(live.recovery.as_secs_f64()));
    let _ = writeln!(json, "    \"compact_seconds\": {}", num(live.compact.as_secs_f64()));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cold_open\": {{");
    let _ = writeln!(json, "    \"dataset\": \"barton+lubm\",");
    let _ = writeln!(json, "    \"triples\": {},", cold.triples);
    let _ = writeln!(json, "    \"plain_bytes\": {},", cold.plain_bytes);
    let _ = writeln!(json, "    \"compressed_bytes\": {},", cold.compressed_bytes);
    let _ = writeln!(json, "    \"size_ratio\": {},", num(cold.size_ratio()));
    let _ =
        writeln!(json, "    \"plain_bytes_per_triple\": {},", num(cold.plain_bytes_per_triple()));
    let _ = writeln!(
        json,
        "    \"compressed_bytes_per_triple\": {},",
        num(cold.compressed_bytes_per_triple())
    );
    let _ = writeln!(json, "    \"dict_open_seconds\": {},", num(cold.dict_open.as_secs_f64()));
    let _ = writeln!(json, "    \"eager_open_seconds\": {},", num(cold.eager_open.as_secs_f64()));
    let _ = writeln!(
        json,
        "    \"compressed_open_seconds\": {},",
        num(cold.compressed_open.as_secs_f64())
    );
    let _ = writeln!(json, "    \"mmap_open_seconds\": {},", num(cold.mmap_open.as_secs_f64()));
    let _ = writeln!(json, "    \"open_speedup\": {},", num(cold.open_speedup()));
    let _ = writeln!(
        json,
        "    \"eager_first_query_seconds\": {},",
        num(cold.eager_first_query.as_secs_f64())
    );
    let _ = writeln!(
        json,
        "    \"mmap_first_query_seconds\": {},",
        num(cold.mmap_first_query.as_secs_f64())
    );
    let _ = writeln!(
        json,
        "    \"eager_warm_twelve_seconds\": {},",
        num(cold.eager_warm.as_secs_f64())
    );
    let _ =
        writeln!(json, "    \"mmap_warm_twelve_seconds\": {},", num(cold.mmap_warm.as_secs_f64()));
    let _ = writeln!(json, "    \"queries\": {},", cold.queries);
    let _ = writeln!(json, "    \"identical\": {}", cold.identical);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"dict\": {{");
    let _ = writeln!(json, "    \"dataset\": \"barton+lubm\",");
    let _ = writeln!(json, "    \"triples\": {},", dict.triples);
    let _ = writeln!(json, "    \"terms\": {},", dict.terms);
    let _ =
        writeln!(json, "    \"encode_serial_seconds\": {},", num(dict.encode_serial.as_secs_f64()));
    let _ = writeln!(
        json,
        "    \"serial_triples_per_second\": {},",
        num(dict.serial_mtriples_per_sec() * 1e6)
    );
    let _ = writeln!(json, "    \"arena_heap_bytes\": {},", dict.arena_heap_bytes);
    let _ = writeln!(json, "    \"legacy_heap_bytes\": {},", dict.legacy_heap_bytes);
    let _ = writeln!(json, "    \"heap_ratio\": {},", num(dict.heap_ratio()));
    let _ = writeln!(
        json,
        "    \"eager_dict_open_seconds\": {},",
        num(dict.eager_dict_open.as_secs_f64())
    );
    let _ = writeln!(json, "    \"mapped_open_seconds\": {},", num(dict.mapped_open.as_secs_f64()));
    let _ = writeln!(json, "    \"open_speedup\": {},", num(dict.open_speedup()));
    let _ = writeln!(json, "    \"index_slots\": {},", dict.index.slots);
    let _ =
        writeln!(json, "    \"index_mean_displacement\": {},", num(dict.index.mean_displacement));
    let _ = writeln!(json, "    \"index_max_displacement\": {}", dict.index.max_displacement);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"joins\": {{");
    let _ = writeln!(json, "    \"dataset\": \"synthetic star+chain (+barton+lubm identity)\",");
    let _ = writeln!(json, "    \"triples\": {},", joins.triples);
    let _ = writeln!(json, "    \"star_rows\": {},", joins.star_rows);
    let _ =
        writeln!(json, "    \"star_nested_seconds\": {},", num(joins.star_nested.as_secs_f64()));
    let _ = writeln!(json, "    \"star_merge_seconds\": {},", num(joins.star_merge.as_secs_f64()));
    let _ = writeln!(
        json,
        "    \"star_parallel4_seconds\": {},",
        num(joins.star_parallel4.as_secs_f64())
    );
    let _ = writeln!(json, "    \"star_speedup\": {},", num(joins.star_speedup()));
    let _ = writeln!(json, "    \"chain_rows\": {},", joins.chain_rows);
    let _ =
        writeln!(json, "    \"chain_nested_seconds\": {},", num(joins.chain_nested.as_secs_f64()));
    let _ =
        writeln!(json, "    \"chain_merge_seconds\": {},", num(joins.chain_merge.as_secs_f64()));
    let _ = writeln!(json, "    \"chain_speedup\": {},", num(joins.chain_speedup()));
    let _ = writeln!(json, "    \"small_triples\": {},", joins_small.triples);
    let _ = writeln!(json, "    \"small_star_speedup\": {},", num(joins_small.star_speedup()));
    let _ = writeln!(json, "    \"small_chain_speedup\": {},", num(joins_small.chain_speedup()));
    let _ = writeln!(json, "    \"merge_used\": {},", joins.merge_used && joins_small.merge_used);
    let _ = writeln!(json, "    \"paper_queries\": {},", joins.paper_queries);
    let _ = writeln!(json, "    \"identical\": {}", joins.identical && joins_small.identical);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"qps\": {{");
    let _ = writeln!(json, "    \"dataset\": \"barton+lubm\",");
    let _ = writeln!(json, "    \"triples\": {},", qps.triples);
    let _ = writeln!(json, "    \"base_triples\": {},", qps.base_triples);
    let _ = writeln!(json, "    \"clients\": {},", qps.clients);
    let _ = writeln!(json, "    \"queries\": {},", qps.queries);
    let _ = writeln!(json, "    \"seconds\": {},", num(qps.elapsed.as_secs_f64()));
    let _ = writeln!(json, "    \"qps\": {},", num(qps.qps()));
    let _ = writeln!(json, "    \"single_seconds\": {},", num(qps.single_elapsed.as_secs_f64()));
    let _ = writeln!(json, "    \"single_qps\": {},", num(qps.single_qps()));
    let _ = writeln!(json, "    \"speedup\": {},", num(qps.speedup()));
    let _ = writeln!(json, "    \"writes\": {},", qps.writes);
    let _ = writeln!(json, "    \"compactions\": {},", qps.compactions);
    let _ = writeln!(json, "    \"p50_seconds\": {},", num(qps.p50.as_secs_f64()));
    let _ = writeln!(json, "    \"p95_seconds\": {},", num(qps.p95.as_secs_f64()));
    let _ = writeln!(json, "    \"p99_seconds\": {}", num(qps.p99.as_secs_f64()));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"query_plans\": {{");
    let _ = writeln!(json, "    \"triples\": {},", args.triples);
    let _ = writeln!(json, "    \"stats_improved_queries\": {stats_improved},");
    let _ = writeln!(json, "    \"max_stats_slowdown\": {},", num(max_stats_slowdown));
    let _ = writeln!(json, "    \"queries\": [");
    let query_entries: Vec<String> = plan_rows
        .iter()
        .map(|r| {
            format!(
                "      {{\"name\": \"{}\", \"dataset\": \"{}\", \"rows\": {}, \
                 \"hand_seconds\": {}, \"planned_seconds\": {}, \"planned_stats_seconds\": {}, \
                 \"stats_speedup\": {}}}",
                r.name,
                r.dataset,
                r.rows,
                num(r.hand.as_secs_f64()),
                num(r.planned.as_secs_f64()),
                num(r.planned_stats.as_secs_f64()),
                num(r.stats_speedup()),
            )
        })
        .collect();
    let _ = writeln!(json, "{}", query_entries.join(",\n"));
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"figures\": [");
    let _ = writeln!(json, "{}", figure_entries.join(",\n"));
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    write_file(&args.out, "BENCH_ci.json", &json);

    println!(
        "load {} triples: encode {:.3}s ({:.0}% of end-to-end), serial {:.3}s, parallel({}) \
         {:.3}s, speedup {:.2}x",
        load.triples,
        load.encode.as_secs_f64(),
        load.encode_share() * 100.0,
        load.serial.as_secs_f64(),
        load.threads,
        load.parallel.as_secs_f64(),
        load.speedup()
    );
    println!(
        "query plans over twelve paper queries: stats improved {stats_improved} (>1.1x), max \
         stats slowdown {max_stats_slowdown:.2}x"
    );
    println!(
        "ask early exit over {} matches: streamed {:.3e}s, materialized {:.3e}s, speedup {:.1}x",
        ask.matches,
        ask.streamed.as_secs_f64(),
        ask.materialized.as_secs_f64(),
        ask.speedup()
    );
    println!(
        "live write over {} inserts (+{} queries) on a {}-triple base: {:.3}s ({:.0} inserts/s), \
         WAL recovery {:.3}s, compaction {:.3}s",
        live.inserts,
        live.queries_run,
        live.base_triples,
        live.insert.as_secs_f64(),
        live.inserts_per_sec(),
        live.recovery.as_secs_f64(),
        live.compact.as_secs_f64()
    );
    println!(
        "concurrent serving: {} clients answered {} queries in {:.3}s ({:.1} qps) vs {:.1} qps \
         single ({:.2}x), p50 {:.3e}s p95 {:.3e}s p99 {:.3e}s, {} writes + {} compactions \
         underneath",
        qps.clients,
        qps.queries,
        qps.elapsed.as_secs_f64(),
        qps.qps(),
        qps.single_qps(),
        qps.speedup(),
        qps.p50.as_secs_f64(),
        qps.p95.as_secs_f64(),
        qps.p99.as_secs_f64(),
        qps.writes,
        qps.compactions
    );
    println!(
        "snapshot {} triples: compact binary {} B vs JSON {} B ({:.1}x smaller, query-ready \
         {} B); frozen open {:.3}s vs JSON restore {:.3}s ({:.1}x faster)",
        snap.triples,
        snap.binary_bytes,
        snap.json_bytes,
        snap.size_ratio(),
        snap.frozen_bytes,
        snap.binary_open.as_secs_f64(),
        snap.json_restore.as_secs_f64(),
        snap.open_speedup()
    );
    println!(
        "dict {} triples ({} terms): encode {:.3}s; index displacement mean {:.2} max {}; heap \
         arena {} B vs legacy {} B ({:.2}x); DICT open eager {:.4}s vs mapped {:.6}s ({:.0}x)",
        dict.triples,
        dict.terms,
        dict.encode_serial.as_secs_f64(),
        dict.index.mean_displacement,
        dict.index.max_displacement,
        dict.arena_heap_bytes,
        dict.legacy_heap_bytes,
        dict.heap_ratio(),
        dict.eager_dict_open.as_secs_f64(),
        dict.mapped_open.as_secs_f64(),
        dict.open_speedup()
    );
    println!(
        "merge joins {} triples: star nested {:.3e}s vs merge {:.3e}s ({:.2}x, parallel(4) \
         {:.3e}s); chain nested {:.3e}s vs merge {:.3e}s ({:.2}x); small scale {:.2}x / {:.2}x; \
         {} paper queries identical: {}",
        joins.triples,
        joins.star_nested.as_secs_f64(),
        joins.star_merge.as_secs_f64(),
        joins.star_speedup(),
        joins.star_parallel4.as_secs_f64(),
        joins.chain_nested.as_secs_f64(),
        joins.chain_merge.as_secs_f64(),
        joins.chain_speedup(),
        joins_small.star_speedup(),
        joins_small.chain_speedup(),
        joins.paper_queries,
        joins.identical && joins_small.identical
    );
    println!(
        "cold open {} triples: compressed {} B vs plain {} B ({:.2}x; {:.1} and {:.1} B/triple); \
         slab open eager {:.3}s, \
         compressed {:.3}s, mmap {:.6}s ({:.0}x faster than eager; dict decode {:.3}s shared by \
         all paths); first query eager {:.4}s vs mmap {:.4}s; twelve warm queries eager {:.4}s \
         vs mmap {:.4}s, identical: {}",
        cold.triples,
        cold.compressed_bytes,
        cold.plain_bytes,
        cold.size_ratio(),
        cold.compressed_bytes_per_triple(),
        cold.plain_bytes_per_triple(),
        cold.eager_open.as_secs_f64(),
        cold.compressed_open.as_secs_f64(),
        cold.mmap_open.as_secs_f64(),
        cold.open_speedup(),
        cold.dict_open.as_secs_f64(),
        cold.eager_first_query.as_secs_f64(),
        cold.mmap_first_query.as_secs_f64(),
        cold.eager_warm.as_secs_f64(),
        cold.mmap_warm.as_secs_f64(),
        cold.identical
    );
}
