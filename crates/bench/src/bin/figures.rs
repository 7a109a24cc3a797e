//! Regenerates the paper's figures as CSV tables on stdout.
//!
//! ```text
//! figures [--figure <id|all>] [--triples N] [--points K] [--reps R]
//! ```
//!
//! `figures --help` lists the ids (the entries of `hex_bench::FIGURES`).
//! Examples:
//!
//! ```text
//! cargo run --release -p hex-bench --bin figures -- --figure 10
//! cargo run --release -p hex-bench --bin figures -- --figure all --triples 1000000
//! ```
//!
//! Defaults are sized for a laptop-scale run (200k triples, 5 prefix
//! points); raise `--triples` towards the paper's 6M-triple axis when time
//! permits.

use hex_bench::{cli, figure, FigureSpec, Params, FIGURES};

fn parse_args() -> Result<(Vec<&'static FigureSpec>, Params), String> {
    let mut which = "all".to_string();
    let mut params =
        Params { triples: 200_000, large_triples: 0, points: 5, reps: 3, allocator: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--figure" | "-f" => which = cli::value(&mut it, "--figure")?,
            "--triples" | "-n" => params.triples = cli::parse_usize(&mut it, "--triples")?,
            "--points" | "-p" => params.points = cli::parse_usize(&mut it, "--points")?,
            "--reps" | "-r" => params.reps = cli::parse_usize(&mut it, "--reps")?,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if params.points == 0 || params.triples < 1000 {
        return Err("need --points >= 1 and --triples >= 1000".into());
    }
    params.large_triples = params.triples;
    let figures = match which.as_str() {
        "all" => FIGURES.iter().collect(),
        id => vec![figure(id).ok_or_else(|| {
            let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
            format!("unknown figure '{id}'; the ids are {}, all", ids.join(", "))
        })?],
    };
    Ok((figures, params))
}

fn print_help() {
    println!("figures — regenerate the Hexastore paper's evaluation figures\n");
    println!("usage: figures [--figure F] [--triples N] [--points K] [--reps R]\n");
    println!("figures:");
    for fig in &FIGURES {
        println!("  {:>14}  {}", fig.id, fig.title);
    }
    println!("  {:>14}  everything above", "all");
}

fn main() {
    let (figures, params) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n");
            print_help();
            std::process::exit(2);
        }
    };
    eprintln!(
        "# figures: triples={} points={} reps={}",
        params.triples, params.points, params.reps
    );
    for fig in figures {
        println!("{}\n", (fig.render)(fig, &params).csv.trim_end());
    }
}
