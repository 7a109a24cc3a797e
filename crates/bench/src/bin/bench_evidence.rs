//! CI benchmark-evidence collector.
//!
//! Renders every entry of `hex_bench::FIGURES`, writes each CSV to an
//! output directory, and writes the entries' counts — values that repeat
//! to the byte on any host; no timings — as `BENCH_ci.json`, so two runs
//! of one build can be compared with `cmp`.
//!
//! ```text
//! bench_evidence [--triples N] [--load-triples M] [--points K] [--reps R]
//!                [--out DIR] [--label L]
//! ```
//!
//! `--triples` is the scale of the paper figures, `--load-triples` the
//! larger scale of the entries CI gates on. With `--label`, the run is
//! also recorded in `bench_evidence/history/` (archived JSON + one row of
//! `trajectory.csv`). The CI job runs this on every PR and uploads `DIR`
//! as a workflow artifact; see `.github/workflows/ci.yml`.

// The workspace's counting allocator, installed in this binary only, so
// the `plans` entry can report how many allocations one query run makes.
// Every figure this binary times runs under it too: each allocation,
// reallocation and free also updates its shared counters, which the
// `figures` binary's timings do not include.
#[path = "../../../../tests/counting_alloc/mod.rs"]
mod counting_alloc;

use hex_bench::{cli, collect_evidence, history, Params};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

/// Where `--label` records a run, relative to the repository root.
const HISTORY_DIR: &str = "bench_evidence/history";

struct Args {
    params: Params,
    out: PathBuf,
    label: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        // Every timing is the median over reps; three is the smallest
        // count where the median can shrug off one outlier.
        params: Params {
            triples: 20_000,
            large_triples: 200_000,
            points: 5,
            reps: 3,
            allocations: Some(|| counting_alloc::REQUESTS.load(Ordering::Relaxed)),
        },
        out: PathBuf::from("bench-artifacts"),
        label: None,
    };
    let params = &mut args.params;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--triples" | "-n" => params.triples = cli::parse_usize(&mut it, "--triples")?,
            "--load-triples" => params.large_triples = cli::parse_usize(&mut it, "--load-triples")?,
            "--points" | "-p" => params.points = cli::parse_usize(&mut it, "--points")?,
            "--reps" | "-r" => params.reps = cli::parse_usize(&mut it, "--reps")?,
            "--out" | "-o" => args.out = PathBuf::from(cli::value(&mut it, "--out")?),
            "--label" | "-l" => args.label = Some(cli::value(&mut it, "--label")?),
            "--help" | "-h" => {
                println!(
                    "bench_evidence — render every figure, write the CSVs and BENCH_ci.json\n\n\
                     usage: bench_evidence [--triples N] [--load-triples M] [--points K] \
                     [--reps R] [--out DIR] [--label L]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if params.points == 0 || params.triples < 1000 || params.large_triples < 1000 {
        return Err("need --points >= 1 and --triples/--load-triples >= 1000".into());
    }
    Ok(args)
}

fn write_file(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    std::fs::write(&path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("# wrote {}", path.display());
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
    eprintln!("# bench_evidence: {:?} out={}", args.params, args.out.display());

    let evidence = collect_evidence(&args.params);
    for (stem, csv) in &evidence.csvs {
        write_file(&args.out, &format!("{stem}.csv"), csv);
    }
    let json = evidence.bench_ci_json();
    write_file(&args.out, "BENCH_ci.json", &json);
    if let Some(label) = &args.label {
        let run =
            history::append_run(Path::new(HISTORY_DIR), label, &json, &evidence.trajectory_cells())
                .unwrap_or_else(|e| panic!("cannot record the run in {HISTORY_DIR}: {e}"));
        eprintln!("# recorded {HISTORY_DIR}/{run}.json and its trajectory.csv row");
    }
    print!("{json}");
}
