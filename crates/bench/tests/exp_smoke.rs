//! Smoke test: every `exp_*` experiment binary must run to completion with
//! `--smoke`, so the experiment suite cannot silently rot.
//!
//! The binaries are invoked through `CARGO_BIN_EXE_<name>` (set by cargo for
//! integration tests of the package that owns them), so the already-built,
//! profile-matched executables run directly — no nested `cargo run`.

use std::process::Command;

/// The experiment binaries in `src/bin/`, with the paths cargo built them at.
/// Kept in sync with the directory by `all_experiment_binaries_are_listed`
/// below (a missing entry here is also a compile error in `env!`).
const EXPERIMENTS: &[(&str, &str)] = &[
    ("exp_baselines", env!("CARGO_BIN_EXE_exp_baselines")),
    ("exp_crowd_cost", env!("CARGO_BIN_EXE_exp_crowd_cost")),
    ("exp_exchange", env!("CARGO_BIN_EXE_exp_exchange")),
    ("exp_graph_paths", env!("CARGO_BIN_EXE_exp_graph_paths")),
    ("exp_interactions", env!("CARGO_BIN_EXE_exp_interactions")),
    ("exp_noise", env!("CARGO_BIN_EXE_exp_noise")),
    (
        "exp_overspecialisation",
        env!("CARGO_BIN_EXE_exp_overspecialisation"),
    ),
    (
        "exp_relational_consistency",
        env!("CARGO_BIN_EXE_exp_relational_consistency"),
    ),
    (
        "exp_schema_complexity",
        env!("CARGO_BIN_EXE_exp_schema_complexity"),
    ),
    (
        "exp_schema_learning",
        env!("CARGO_BIN_EXE_exp_schema_learning"),
    ),
    ("exp_sparql", env!("CARGO_BIN_EXE_exp_sparql")),
    ("exp_strategies", env!("CARGO_BIN_EXE_exp_strategies")),
    (
        "exp_twig_consistency",
        env!("CARGO_BIN_EXE_exp_twig_consistency"),
    ),
    ("exp_twig_examples", env!("CARGO_BIN_EXE_exp_twig_examples")),
    ("exp_xpathmark", env!("CARGO_BIN_EXE_exp_xpathmark")),
    // Not an exp_* table generator but held to the same bar: `qbe-server --smoke` serves one
    // session per model over loopback and self-checks the outcome.
    ("qbe-server", env!("CARGO_BIN_EXE_qbe-server")),
];

#[test]
fn every_experiment_runs_to_completion_in_smoke_mode() {
    for (name, exe) in EXPERIMENTS {
        let output = Command::new(exe)
            .arg("--smoke")
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn `{name}` ({exe}): {e}"));
        assert!(
            output.status.success(),
            "experiment `{name}` exited with {}:\n--- stdout ---\n{}\n--- stderr ---\n{}",
            output.status,
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
        assert!(
            !output.stdout.is_empty(),
            "experiment `{name}` printed nothing; every experiment reports a table"
        );
    }
}

#[test]
fn all_experiment_binaries_are_listed() {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let bin_dir = std::path::Path::new(&manifest_dir).join("src/bin");
    let mut on_disk: Vec<String> = std::fs::read_dir(bin_dir)
        .expect("src/bin exists")
        .filter_map(|entry| {
            let name = entry.expect("readable dir entry").file_name();
            let name = name.to_string_lossy();
            name.strip_suffix(".rs").map(str::to_string)
        })
        .collect();
    on_disk.sort();
    // Binary names may use dashes (`qbe-server`) while their source files use underscores;
    // compare under the filename convention.
    let mut listed: Vec<String> = EXPERIMENTS
        .iter()
        .map(|(n, _)| n.replace('-', "_"))
        .collect();
    listed.sort();
    assert_eq!(
        on_disk, listed,
        "src/bin and the EXPERIMENTS list are out of sync"
    );
}

#[test]
fn every_experiment_rejects_an_unknown_argument() {
    for (name, exe) in EXPERIMENTS {
        let output = Command::new(exe)
            .arg("--smoek")
            .env_remove("QBE_BENCH_SMOKE")
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn `{name}` ({exe}): {e}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            !output.status.success(),
            "`{name} --smoek` exited with {}",
            output.status
        );
        assert!(
            stderr.contains("--smoek"),
            "`{name} --smoek` did not name the argument on stderr: {stderr}"
        );
    }
}

#[test]
fn exp_noise_rejects_out_without_a_path_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("qbe-exp-noise-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temporary directory");
    for args in [&["--out"][..], &["--out", "--smoke"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_exp_noise"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("exp_noise spawns");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "exp_noise {args:?} succeeded");
        assert!(stderr.contains("--out"), "exp_noise {args:?}: {stderr}");
    }
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("readable directory")
        .map(|entry| entry.expect("readable dir entry").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert!(written.is_empty(), "exp_noise wrote {written:?}");
}
