//! Benchmark-evidence history: a committed trajectory of `BENCH_ci.json`
//! runs plus a cross-run CSV rendering.
//!
//! The CI regression gate compares one PR against its base branch; this
//! module keeps the *long-run* perspective. [`append_run`] files a
//! `BENCH_ci.json` under `bench_evidence/history/` as the next numbered
//! entry, and [`trajectory_csv`] renders every entry's headline metrics
//! (load speedup, snapshot open speedup, live-write throughput,
//! concurrent-serving qps, …) as one CSV row per run, so the
//! repository's performance trajectory is readable at a glance and
//! diffable in review.

use serde::Value;
use std::io;
use std::path::{Path, PathBuf};

/// The headline metrics a trajectory row carries, as (column, JSON
/// path) pairs into `BENCH_ci.json`. Entries predating a metric render
/// as empty cells, so the schema can grow without rewriting history.
pub const TRAJECTORY_COLUMNS: [(&str, &[&str]); 16] = [
    ("figures_triples", &["figures_triples"]),
    ("load_speedup", &["load", "speedup"]),
    ("load_parallel_triples_per_second", &["load", "parallel_triples_per_second"]),
    ("ask_speedup", &["ask_early_exit", "speedup"]),
    ("snapshot_open_speedup", &["snapshot", "open_speedup_vs_json"]),
    ("live_write_inserts_per_second", &["live_write", "inserts_per_second"]),
    ("qps", &["qps", "qps"]),
    ("qps_speedup", &["qps", "speedup"]),
    ("qps_p95_seconds", &["qps", "p95_seconds"]),
    ("dict_index_mean_displacement", &["dict", "index_mean_displacement"]),
    ("dict_heap_ratio", &["dict", "heap_ratio"]),
    ("dict_mapped_open_seconds", &["dict", "mapped_open_seconds"]),
    ("joins_star_speedup", &["joins", "star_speedup"]),
    ("joins_chain_speedup", &["joins", "chain_speedup"]),
    ("snapshot_plain_bytes_per_triple", &["cold_open", "plain_bytes_per_triple"]),
    ("snapshot_compressed_bytes_per_triple", &["cold_open", "compressed_bytes_per_triple"]),
];

/// Walks a `.`-free key path through nested JSON objects.
fn lookup<'v>(value: &'v Value, path: &[&str]) -> Option<&'v Value> {
    path.iter().try_fold(value, |v, key| match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    })
}

/// Numeric view of a JSON scalar.
fn number(value: &Value) -> Option<f64> {
    match value {
        Value::F64(v) => Some(*v),
        Value::U64(v) => Some(*v as f64),
        Value::I64(v) => Some(*v as f64),
        _ => None,
    }
}

/// Keeps labels filesystem- and CSV-safe.
fn sanitize(label: &str) -> String {
    let cleaned: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '-' })
        .collect();
    if cleaned.is_empty() {
        "run".to_string()
    } else {
        cleaned
    }
}

/// The numbered history entries (`NNNN-label.json`), in run order.
fn entries(history_dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(history_dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let numbered = name.len() > 5
            && name[..4].bytes().all(|b| b.is_ascii_digit())
            && name.as_bytes()[4] == b'-'
            && name.ends_with(".json");
        if numbered {
            found.push(path);
        }
    }
    found.sort();
    Ok(found)
}

/// Files `json_text` (a `BENCH_ci.json` document — validated by parsing
/// it) as the next numbered entry `NNNN-<label>.json` of `history_dir`,
/// creating the directory if needed. Returns the new entry's path.
pub fn append_run(history_dir: &Path, json_text: &str, label: &str) -> io::Result<PathBuf> {
    serde_json::from_str::<Value>(json_text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("invalid JSON: {e}")))?;
    std::fs::create_dir_all(history_dir)?;
    let next = entries(history_dir)?.len() + 1;
    let path = history_dir.join(format!("{next:04}-{}.json", sanitize(label)));
    std::fs::write(&path, json_text)?;
    Ok(path)
}

/// Renders every history entry's headline metrics as CSV, one row per
/// run in entry order. A metric absent from an entry (recorded before
/// that figure existed) renders as an empty cell.
pub fn trajectory_csv(history_dir: &Path) -> io::Result<String> {
    let mut out = String::from("# Benchmark-evidence trajectory — one row per recorded run\nrun");
    for (column, _) in TRAJECTORY_COLUMNS {
        out.push(',');
        out.push_str(column);
    }
    out.push('\n');
    for path in entries(history_dir)? {
        let text = std::fs::read_to_string(&path)?;
        let value = serde_json::from_str::<Value>(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: invalid JSON: {e}", path.display()),
            )
        })?;
        let run = path.file_stem().and_then(|n| n.to_str()).unwrap_or("?").to_string();
        out.push_str(&run);
        for (_, json_path) in TRAJECTORY_COLUMNS {
            out.push(',');
            if let Some(v) = lookup(&value, json_path).and_then(number) {
                out.push_str(&format!("{v:.6}"));
            }
        }
        out.push('\n');
    }
    Ok(out)
}

/// Per-run metric values in `TRAJECTORY_COLUMNS` order (`None` where
/// the run predates the metric).
type MetricRow = Vec<Option<f64>>;

/// One parsed trajectory: run names plus, per metric column, the value
/// each run recorded.
fn trajectory_table(history_dir: &Path) -> io::Result<(Vec<String>, Vec<MetricRow>)> {
    let mut runs = Vec::new();
    let mut rows = Vec::new();
    for path in entries(history_dir)? {
        let text = std::fs::read_to_string(&path)?;
        let value = serde_json::from_str::<Value>(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: invalid JSON: {e}", path.display()),
            )
        })?;
        runs.push(path.file_stem().and_then(|n| n.to_str()).unwrap_or("?").to_string());
        rows.push(
            TRAJECTORY_COLUMNS
                .iter()
                .map(|(_, json_path)| lookup(&value, json_path).and_then(number))
                .collect(),
        );
    }
    Ok((runs, rows))
}

/// Compact human formatting for a trajectory cell: plain decimals for
/// ordinary magnitudes, scientific notation for the extremes.
fn cell(v: f64) -> String {
    let a = v.abs();
    if a != 0.0 && !(0.001..1_000_000.0).contains(&a) {
        format!("{v:.2e}")
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Renders the trajectory as a GitHub-flavored markdown table, one row
/// per recorded run — the human-readable companion of
/// [`trajectory_csv`], committed next to it so every PR's review diff
/// shows the metric movement in place.
pub fn trajectory_markdown(history_dir: &Path) -> io::Result<String> {
    let (runs, rows) = trajectory_table(history_dir)?;
    let mut out = String::from(
        "# Benchmark-evidence trajectory\n\nOne row per recorded `BENCH_ci.json` run \
         (see the sibling JSON entries); empty cells predate the metric.\n\n",
    );
    out.push_str("| run |");
    for (column, _) in TRAJECTORY_COLUMNS {
        out.push(' ');
        out.push_str(column);
        out.push_str(" |");
    }
    out.push_str("\n|---|");
    out.push_str(&"---:|".repeat(TRAJECTORY_COLUMNS.len()));
    out.push('\n');
    for (run, row) in runs.iter().zip(&rows) {
        out.push_str(&format!("| {run} |"));
        for value in row {
            match value {
                Some(v) => out.push_str(&format!(" {} |", cell(*v))),
                None => out.push_str("  |"),
            }
        }
        out.push('\n');
    }
    Ok(out)
}

/// Renders the trajectory as a self-contained SVG line chart: one
/// polyline per metric, each normalized to its own maximum so wildly
/// different scales (a 1.5x speedup next to 40k inserts/s) share one
/// canvas, with the latest value printed in the legend. Runs are evenly
/// spaced on the x-axis in entry order.
pub fn trajectory_svg(history_dir: &Path) -> io::Result<String> {
    const COLORS: [&str; 12] = [
        "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
        "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
    ];
    let (runs, rows) = trajectory_table(history_dir)?;
    let (w, h, pad, legend_w) = (640.0_f64, 280.0_f64, 28.0_f64, 280.0_f64);
    let mut out = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" \
         font-family=\"monospace\" font-size=\"11\">\n<rect width=\"100%\" height=\"100%\" \
         fill=\"white\"/>\n<text x=\"{pad}\" y=\"16\">benchmark trajectory — each metric \
         normalized to its own max</text>\n",
        w + legend_w,
        h
    );
    let x_of = |i: usize| {
        let span = (runs.len().saturating_sub(1)).max(1) as f64;
        pad + (w - 2.0 * pad) * i as f64 / span
    };
    for (col, (name, _)) in TRAJECTORY_COLUMNS.iter().enumerate() {
        let series: Vec<(usize, f64)> =
            rows.iter().enumerate().filter_map(|(i, row)| row[col].map(|v| (i, v))).collect();
        let max = series.iter().map(|(_, v)| v.abs()).fold(0.0, f64::max);
        let color = COLORS[col % COLORS.len()];
        if max > 0.0 && !series.is_empty() {
            let points: Vec<String> = series
                .iter()
                .map(|(i, v)| {
                    let y = h - pad - (h - 2.0 * pad - 16.0) * (v / max);
                    format!("{:.1},{:.1}", x_of(*i), y)
                })
                .collect();
            out.push_str(&format!(
                "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" \
                 points=\"{}\"/>\n",
                points.join(" ")
            ));
        }
        let label = match series.last() {
            Some((_, v)) => format!("{name}: {}", cell(*v)),
            None => format!("{name}: —"),
        };
        let y = 34.0 + 18.0 * col as f64;
        out.push_str(&format!(
            "<rect x=\"{}\" y=\"{:.1}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\
             <text x=\"{}\" y=\"{:.1}\">{label}</text>\n",
            w + 4.0,
            y - 9.0,
            w + 20.0,
            y
        ));
    }
    // Run labels: first and last, enough to orient without clutter.
    if let Some(first) = runs.first() {
        out.push_str(&format!("<text x=\"{pad}\" y=\"{:.1}\">{first}</text>\n", h - 8.0));
    }
    if runs.len() > 1 {
        let last = runs.last().expect("non-empty");
        out.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{last}</text>\n",
            w - pad,
            h - 8.0
        ));
    }
    out.push_str("</svg>\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_history(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hexhist-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn runs_append_in_order_and_render_as_rows() {
        let dir = temp_history("append");
        let old = r#"{"figures_triples": 20000, "load": {"speedup": 1.5}}"#;
        let new = r#"{"figures_triples": 20000, "load": {"speedup": 1.8},
                      "qps": {"qps": 1700.0, "speedup": 2.1, "p95_seconds": 0.017}}"#;
        let first = append_run(&dir, old, "seed").unwrap();
        let second = append_run(&dir, new, "with qps!").unwrap();
        assert!(first.ends_with("0001-seed.json"));
        assert!(second.ends_with("0002-with-qps-.json"), "{}", second.display());

        let csv = trajectory_csv(&dir).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4, "header comment + column row + two runs");
        assert!(lines[1].starts_with("run,figures_triples,load_speedup,"));
        // The pre-qps entry renders empty qps cells, not garbage.
        assert!(lines[2].starts_with("0001-seed,20000.000000,1.500000,"));
        assert!(lines[2].ends_with(",,,"), "missing metrics must be empty: {}", lines[2]);
        assert!(lines[3].contains("1700.000000"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn markdown_and_svg_render_every_run_and_metric() {
        let dir = temp_history("render");
        let a = r#"{"figures_triples": 20000, "load": {"speedup": 1.5}}"#;
        let b = r#"{"figures_triples": 20000, "load": {"speedup": 1.8},
                    "dict": {"index_mean_displacement": 2.4, "heap_ratio": 0.61,
                             "mapped_open_seconds": 0.004}}"#;
        append_run(&dir, a, "first").unwrap();
        append_run(&dir, b, "second").unwrap();

        let md = trajectory_markdown(&dir).unwrap();
        assert!(md.contains("| run |"));
        assert!(md.contains("dict_index_mean_displacement"));
        assert!(md.contains("| 0001-first |"));
        assert!(md.contains("| 0002-second |"));
        assert!(md.contains("2.400"), "{md}");
        // Every data row carries one cell per metric column.
        for line in md.lines().filter(|l| l.starts_with("| 000")) {
            assert_eq!(line.matches('|').count(), TRAJECTORY_COLUMNS.len() + 2, "{line}");
        }

        let svg = trajectory_svg(&dir).unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("polyline"));
        assert!(svg.contains("load_speedup: 1.800"));
        // A metric no run recorded still gets a legend row, dashed.
        assert!(svg.contains("qps: \u{2014}"), "{svg}");
        assert!(svg.contains("0001-first"));
        assert!(svg.contains("0002-second"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_json_is_rejected_not_filed() {
        let dir = temp_history("reject");
        assert!(append_run(&dir, "{not json", "bad").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
