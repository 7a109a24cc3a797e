//! The committed run-by-run trajectory under `bench_evidence/history/`:
//! one archived `NNNN-<label>.json` (a run's full `BENCH_ci.json`) and one
//! row of `trajectory.csv` per recorded run.
//!
//! The CSV carries only columns that compare across hosts — the scales a
//! run used and its snapshot bytes per triple — and [`append_run`] writes
//! a row from the values `bench_evidence` already holds, so nothing here
//! reads a JSON file back.

use std::io;
use std::path::Path;

/// The columns of `trajectory.csv`. Cells a run did not record are empty.
pub const TRAJECTORY_COLUMNS: [&str; 6] = [
    "run",
    "figures_triples",
    "load_triples",
    "snapshot_triples",
    "snapshot_plain_bytes_per_triple",
    "snapshot_compressed_bytes_per_triple",
];

const COMMENT: &str = "# Benchmark-evidence trajectory — one row per recorded run";

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

/// Records one run in `history_dir` (created if needed): archives
/// `bench_ci_json` as `NNNN-<label>.json`, `NNNN` being one more than the
/// rows `trajectory.csv` already holds, and appends `NNNN-<label>` and
/// `cells` (one per column after `run`) to `trajectory.csv`. Returns the
/// run's name.
///
/// Refuses, leaving the directory untouched, when an existing
/// `trajectory.csv` has other columns than [`TRAJECTORY_COLUMNS`].
pub fn append_run(
    history_dir: &Path,
    label: &str,
    bench_ci_json: &str,
    cells: &[String],
) -> io::Result<String> {
    assert_eq!(cells.len() + 1, TRAJECTORY_COLUMNS.len(), "one cell per column after `run`");
    let header = TRAJECTORY_COLUMNS.join(",");
    let csv_path = history_dir.join("trajectory.csv");
    let mut csv = match std::fs::read_to_string(&csv_path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => format!("{COMMENT}\n{header}\n"),
        Err(e) => return Err(e),
    };
    let mut rows = csv.lines().filter(|l| !l.starts_with('#'));
    if rows.next() != Some(header.as_str()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} does not start with the columns {header}", csv_path.display()),
        ));
    }
    let run = format!("{:04}-{}", rows.count() + 1, sanitize(label));
    if !csv.ends_with('\n') {
        csv.push('\n');
    }
    csv.push_str(&format!("{run},{}\n", cells.join(",")));
    std::fs::create_dir_all(history_dir)?;
    std::fs::write(history_dir.join(format!("{run}.json")), bench_ci_json)?;
    std::fs::write(&csv_path, csv)?;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_append_in_order_and_render_as_rows() {
        let dir = std::env::temp_dir().join(format!("hexhist-append-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cells = |plain: &str| -> Vec<String> {
            ["20000", "200000", "197756", plain, ""].map(String::from).to_vec()
        };
        assert_eq!(
            append_run(&dir, "seed", "{\"schema\": 2}\n", &cells("57.9")).unwrap(),
            "0001-seed"
        );
        assert_eq!(
            append_run(&dir, "with v4!", "{\"schema\": 2}\n", &cells("51.6")).unwrap(),
            "0002-with-v4-"
        );
        assert!(dir.join("0001-seed.json").exists() && dir.join("0002-with-v4-.json").exists());

        let csv = std::fs::read_to_string(dir.join("trajectory.csv")).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4, "header comment + column row + two runs");
        assert_eq!(lines[1], TRAJECTORY_COLUMNS.join(","));
        // A count the run did not record is an empty cell, not garbage.
        assert_eq!(lines[2], "0001-seed,20000,200000,197756,57.9,");
        assert_eq!(lines[3], "0002-with-v4-,20000,200000,197756,51.6,");

        // A trajectory with other columns is refused, not appended to.
        std::fs::write(dir.join("trajectory.csv"), "run,qps\n0001-old,1700\n").unwrap();
        assert!(append_run(&dir, "new", "{}", &cells("50")).is_err());
        assert!(!dir.join("0002-new.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
