//! Smoke test: every workspace example must build, run, and exit 0, so
//! examples cannot silently rot as the API evolves.
//!
//! Runs the examples through the same `cargo` that is running the test
//! suite. The examples are tiny (in-memory stores, small datasets), so
//! even a debug-profile run stays well within test budgets.

use std::process::Command;

const EXAMPLES: [&str; 8] = [
    "quickstart",
    "social_network",
    "library_browse",
    "academic_queries",
    "index_advisor",
    "prepared_queries",
    "live_updates",
    "snapshot_persistence",
];

#[test]
fn every_example_runs_and_exits_zero() {
    let cargo = env!("CARGO");
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    for example in EXAMPLES {
        let output = Command::new(cargo)
            .current_dir(manifest_dir)
            .args(["run", "--quiet", "--example", example])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn cargo for example {example}: {e}"));
        assert!(
            output.status.success(),
            "example `{example}` exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
        assert!(
            !output.stdout.is_empty(),
            "example `{example}` printed nothing; expected a demo transcript"
        );
    }
}

#[test]
fn snapshot_example_runs_with_disk_feature() {
    let output = Command::new(env!("CARGO"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["run", "--quiet", "--features", "disk", "--example", "snapshot_persistence"])
        .output()
        .expect("failed to spawn cargo for snapshot_persistence");
    assert!(
        output.status.success(),
        "snapshot_persistence exited with {:?}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr),
    );
}
