//! Smoke test: every example in `examples/` must run to completion.
//!
//! Each example is a self-contained walkthrough of one learning scenario; this
//! harness runs them all through `cargo run --example` so a broken example
//! fails `cargo test` instead of silently rotting.

use std::process::Command;

/// The examples registered in `crates/core/Cargo.toml`, kept in sync by the
/// `all_examples_are_listed` test below.
const EXAMPLES: &[&str] = &[
    "quickstart",
    "xpath_by_example",
    "join_discovery",
    "trip_planner",
    "cross_model_exchange",
    "query_reverse_engineering",
];

#[test]
fn every_example_runs_to_completion() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    for example in EXAMPLES {
        let output = Command::new(&cargo)
            .args(["run", "--quiet", "-p", "qbe-core", "--example", example])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn cargo for example `{example}`: {e}"));
        assert!(
            output.status.success(),
            "example `{example}` exited with {}:\n--- stdout ---\n{}\n--- stderr ---\n{}",
            output.status,
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
    }
}

#[test]
fn all_examples_are_listed() {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let examples_dir = std::path::Path::new(&manifest_dir).join("../../examples");
    let mut on_disk: Vec<String> = std::fs::read_dir(examples_dir)
        .expect("examples/ directory exists")
        .filter_map(|entry| {
            let name = entry.expect("readable dir entry").file_name();
            let name = name.to_string_lossy();
            name.strip_suffix(".rs").map(str::to_string)
        })
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = EXAMPLES.iter().map(|s| s.to_string()).collect();
    listed.sort();
    assert_eq!(
        on_disk, listed,
        "examples/ on disk and the EXAMPLES list (+ crates/core/Cargo.toml) are out of sync"
    );
}
