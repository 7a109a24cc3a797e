//! `hexbench` — the benchmark of record. See `benchmark/README.md`.
//!
//! `hexbench [--workload W] [--seed N] [--trace [0|1]] [--check]
//! [--seconds S]`: runs the workload(s), checks every answer, prints every
//! metric by name with its unit, then one JSON document per workload (the
//! last line of output is the last workload's). `--trace 0` is the
//! untraced run (end-to-end metrics), `--trace 1` the traced run
//! (per-layer metrics); a bare `--trace` does both and prints the
//! difference as tracing overhead. Without `--workload` each workload
//! runs in a process of its own, so that `peak_rss_mb` is its own.

// The repository's minimum toolchain (1.82) predates `is_multiple_of`.
#![allow(clippy::manual_is_multiple_of)]

mod answer;
mod counting;
mod data;
mod live;
mod load;
mod report;
mod stats;
mod trace;
mod workloads;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Ctx, Mode};

const WORKLOADS: [&str; 4] = ["bulk_load", "lookup", "analytic", "live_serve"];
const OUT_DIR: &str = "benchmark/out";

#[derive(Clone, Copy, PartialEq)]
enum Trace {
    Off,
    On,
    Both,
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: Trace,
    check: bool,
    drop_row: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--workload bulk_load|lookup|analytic|live_serve] [--seed N] \
         [--trace [0|1]] [--check [--inject drop-row]] [--seconds S]\n       \
         run.sh sweep OUT.json\n       \
         run.sh compare A.json B.json"
    );
    ExitCode::from(2)
}

/// The length of a timed section when `--seconds` does not give one:
/// `run_seconds` of `BENCHMARK.json`, which the benchmark runs beside.
fn run_seconds() -> Option<f64> {
    let spec = std::fs::read_to_string("BENCHMARK.json").ok()?;
    let (_, rest) = spec.split_once("\"run_seconds\":")?;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

fn parse_args() -> Option<Args> {
    let mut a = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 0.0,
        trace: Trace::Off,
        check: false,
        drop_row: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let w = it.next()?;
                a.workloads = vec![*WORKLOADS.iter().find(|&&k| k == w)?];
            }
            "--seed" => a.seed = it.next()?.parse().ok()?,
            "--seconds" => a.seconds = it.next()?.parse().ok().filter(|&s: &f64| s > 0.0)?,
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => Trace::Off,
                    Some("1") => Trace::On,
                    _ => Trace::Both,
                };
                if a.trace != Trace::Both {
                    it.next();
                }
            }
            "--check" => a.check = true,
            "--inject" => {
                if it.next()? != "drop-row" {
                    return None;
                }
                a.drop_row = true;
            }
            _ => return None,
        }
    }
    // The injection exists to show that `--check` can fail.
    if a.drop_row && !a.check {
        return None;
    }
    if a.seconds == 0.0 {
        match run_seconds() {
            Some(s) => a.seconds = s,
            None => {
                eprintln!("no --seconds, and no run_seconds in ./BENCHMARK.json");
                return None;
            }
        }
    }
    Some(a)
}

/// What ran where: recorded in every result file.
fn environment() -> Vec<(String, String)> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let ram_kb = meminfo.lines().find_map(|l| l.strip_prefix("MemTotal:")).unwrap_or("").trim();
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    vec![
        (
            "nproc".to_string(),
            std::thread::available_parallelism().map_or(0, |n| n.get()).to_string(),
        ),
        ("ram".to_string(), ram_kb.to_string()),
        ("rustc".to_string(), var("HEXBENCH_RUSTC")),
        ("git_commit".to_string(), var("HEXBENCH_COMMIT")),
    ]
}

/// Jiffies the hypervisor kept from this machine's CPUs so far (the
/// `steal` column of `/proc/stat`).
fn stolen_jiffies() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let first = stat.lines().next().unwrap_or_default();
    first.split_whitespace().nth(8).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

fn run_one(workload: &'static str, args: &Args, traced: bool) -> Outcome {
    let ctx = Ctx {
        seed: args.seed,
        mode: if args.check { Mode::Check } else { Mode::Timed(args.seconds) },
        traced,
        work: PathBuf::from(OUT_DIR).join(format!("work-{workload}")),
        drop_row: args.drop_row,
    };
    std::fs::remove_dir_all(&ctx.work).ok();
    let (started, stolen) = (Instant::now(), stolen_jiffies());
    let mut tr = Tracer::new(traced, "main", started);
    let mut out = match workload {
        "bulk_load" => workloads::bulk_load(&ctx, &mut tr),
        "lookup" => workloads::serve(&ctx, false, &mut tr),
        "analytic" => workloads::serve(&ctx, true, &mut tr),
        _ => live::live_serve(&ctx, &mut tr),
    };
    std::fs::remove_dir_all(&ctx.work).ok();
    // How disturbed the run was: CPU time the host withheld, as a share
    // of what the run's CPUs could have given (100 jiffies per second).
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let offered = started.elapsed().as_secs_f64() * 100.0 * cpus;
    out.note("host_steal_share", format!("{:.4}", (stolen_jiffies() - stolen) / offered));
    out.note("wall_s", format!("{:.1}", started.elapsed().as_secs_f64()));
    out.print(traced);
    let kind = if traced { "traced" } else { "untraced" };
    let stem = format!("{workload}-seed{}-{kind}", args.seed);
    if traced {
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{workload}.jsonl"));
        match tr.write_jsonl(&path) {
            Ok(n) => println!("{n} spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    let path = PathBuf::from(OUT_DIR).join(format!("result-{stem}.json"));
    if let Err(e) = std::fs::write(&path, out.result_json(traced, &environment())) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    out
}

/// Tracing overhead, and for `bulk_load` how much of an untraced
/// repetition the traced layers account for.
fn print_overhead(plain: &Outcome, traced: &Outcome) {
    let over = (traced.mean_query_us / plain.mean_query_us - 1.0) * 100.0;
    println!(
        "tracing overhead on {}: mean timed query {:.2} us inside its span vs {:.2} us untraced \
         ({over:+.1} %); the diagnostics around the span (see `request` in the self times) come on top",
        plain.workload, traced.mean_query_us, plain.mean_query_us
    );
    if plain.workload == "bulk_load" {
        let get = |list: &[stats::Metric], name: &str| {
            list.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
        };
        let layers: f64 = [
            "rdf_model.parse_s",
            "hex_dict.encode_s",
            "bulk.build_frozen_s",
            "hexsnap.save_s",
            "hex_disk.open_s",
        ]
        .iter()
        .map(|n| get(&traced.layers, n))
        .sum::<f64>()
            + get(&traced.layers, "hex_disk.first_pass_ms") / 1e3;
        let rep = get(&plain.extra, "rep_s");
        println!(
            "bulk_load layers (parse, encode, build, save, open, first pass) sum to {layers:.4} s traced; \
             an untraced repetition (those, the drop of the store and 238 lookups) takes {rep:.4} s ({:+.1} %)",
            (layers / rep - 1.0) * 100.0
        );
    }
}

/// `--check` of one workload: a traced run at `D50k` against the
/// triples-table oracle; single-client workloads run twice and must count
/// exactly the same store work. Returns the number of failures.
fn check(workload: &'static str, args: &Args) -> u64 {
    let first = run_one(workload, args, true);
    let mut failed = first.failed;
    if workload != "live_serve" {
        let again = run_one(workload, args, true);
        failed += again.failed;
        if again.work_counts == first.work_counts {
            println!("{workload}: store counts repeat exactly: {:?}", first.work_counts);
        } else {
            eprintln!(
                "CHECK FAILED {workload}: same-seed runs count different store work: {:?} vs {:?}",
                first.work_counts, again.work_counts
            );
            failed += 1;
        }
    }
    failed
}

/// No `--workload`: runs this command once per workload, so that no
/// workload's peak memory or allocator state carries into the next.
fn each_in_its_own_process() -> ExitCode {
    let exe = std::env::current_exe().expect("path of this program");
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(std::env::args().skip(1))
            .args(["--workload", workload])
            .status()
            .expect("start a workload");
        if !status.success() {
            failed.push(workload);
        }
    }
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("FAILED: {}", failed.join(", "));
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    if args.workloads.len() > 1 {
        return each_in_its_own_process();
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    if args.check {
        let failed: u64 = args.workloads.iter().map(|w| check(w, &args)).sum();
        println!("check {}", if failed == 0 { "passed" } else { "FAILED" });
        return if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    for &workload in &args.workloads {
        let outcome = match args.trace {
            Trace::Off => run_one(workload, &args, false),
            Trace::On => run_one(workload, &args, true),
            Trace::Both => {
                let plain = run_one(workload, &args, false);
                let traced = run_one(workload, &args, true);
                print_overhead(&plain, &traced);
                println!("{}", plain.json_line(false));
                traced
            }
        };
        println!("{}", outcome.json_line(args.trace != Trace::Off));
    }
    ExitCode::SUCCESS
}
