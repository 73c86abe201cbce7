//! `qbe-perfbench` — the layered benchmark of the served system.
//!
//! ```text
//! qbe-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Starts `qbe-server` in its own process (this binary re-executed as `serve`, which is the
//! production CLI), boots it several times to time set-up, then drives complete learning
//! sessions over TCP in a closed loop, one client thread per core, verifying every session.
//! With `--trace 0` the last stdout line carries the end-to-end metrics; with `--trace 1` it
//! carries the per-layer metrics of a traced run (see `trace`). Run from the repository root;
//! scratch files go to `.bench_run/`. See `README.md` next to this package for the workloads,
//! the metrics and what each one should move.

mod load;
mod server;
mod sessions;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use qbe_server::{build_corpus, Client};

use load::LoopResult;
use server::ServerProc;
use sessions::{GoalBook, Storage, Workload, DEFAULT_SEED};
use stats::{mean, median, ratio, result_line, Metrics};

const USAGE: &str =
    "usage: qbe-perfbench --workload twig-medium|short-small|short-small-wal|graph-join-medium \
     [--seed N] [--seconds S] [--trace 0|1]";

/// Server boots per run; `setup_s` is their median. The last boot serves the load.
const SETUP_BOOTS: usize = 11;

/// Where runs keep their data directories, WAL copies and span logs (relative to the
/// working directory, which is the repository root).
const RUN_ROOT: &str = ".bench_run";

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::TwigMedium,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed must be a u64, got {value:?}"))?
            }
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds must be positive, got {value:?}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        std::process::exit(qbe_server::cli::run(args.into_iter().skip(1)));
    }
    let opts = match parse_opts(&args) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("qbe-perfbench: {why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run_dir =
        PathBuf::from(RUN_ROOT).join(format!("{}-{}", opts.workload.name(), std::process::id()));
    let outcome = run(&opts, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match outcome {
        Ok(line) => println!("{line}"),
        Err(why) => {
            eprintln!("qbe-perfbench: {why}");
            std::process::exit(1);
        }
    }
}

/// CPU time the hypervisor gave to other guests so far (`steal` in `/proc/stat`), in ticks of
/// 10 ms.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the workspace sources under test (`Cargo.lock` and every file under
/// `crates/`, in path order): identifies the code even where the checkout is not a git
/// repository and `commit` reads `unknown`.
fn source_fingerprint() -> String {
    fn collect(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.lock")];
    collect(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(file).unwrap_or_default());
    }
    format!("{:016x}", qbe_core::store::fnv1a64(&bytes))
}

/// The server flags of one boot: workloads that persist get a fresh data directory per boot.
fn server_flags(workload: Workload, run_dir: &Path, boot: usize) -> Vec<String> {
    let dir = |d: PathBuf| d.to_string_lossy().into_owned();
    match workload.storage() {
        Storage::Memory => Vec::new(),
        Storage::FreshPersist => vec![
            "--data-dir".to_string(),
            dir(run_dir.join(format!("boot{boot}"))),
            "--persist".to_string(),
        ],
        Storage::Snapshot => vec!["--data-dir".to_string(), dir(run_dir.join("data"))],
    }
}

/// Boot the server `SETUP_BOOTS` times, timing spawn → first `+OK corpus`; keep the last boot.
fn boot(workload: Workload, run_dir: &Path) -> Result<(ServerProc, Vec<f64>), String> {
    let mut setups = Vec::with_capacity(SETUP_BOOTS);
    for boot in 0..SETUP_BOOTS {
        let flags = server_flags(workload, run_dir, boot);
        let start = Instant::now();
        let server = ServerProc::spawn(&flags)?;
        Client::connect(server.addr())
            .and_then(|mut c| c.corpus(workload.corpus()))
            .map_err(|e| format!("boot {boot}: CORPUS {}: {e}", workload.corpus()))?;
        setups.push(start.elapsed().as_secs_f64());
        if boot + 1 == SETUP_BOOTS {
            return Ok((server, setups));
        }
        server.stop();
    }
    unreachable!("SETUP_BOOTS > 0")
}

fn server_metrics(server: &ServerProc) -> Result<Vec<(String, String)>, String> {
    Client::connect(server.addr())
        .and_then(|mut c| c.metrics())
        .map_err(|e| format!("METRICS: {e}"))
}

/// One numeric `METRICS` field (0 when absent).
fn counter(metrics: &[(String, String)], key: &str) -> usize {
    qbe_server::protocol::field_value(metrics, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Sessions attempted, and failures: sessions that failed verification plus every shed,
/// rejected, timed-out or re-asked request the server counted (none happens in a healthy run,
/// and each one costs some session its verified result).
fn failures(loops: &[LoopResult], metrics: &[(String, String)]) -> (usize, usize) {
    let attempted: usize = loops.iter().map(|l| l.sessions.len()).sum();
    let failed_sessions = loops
        .iter()
        .flat_map(|l| &l.sessions)
        .filter(|r| r.error.is_some())
        .count();
    let server_side: usize = ["shed", "rejected", "timeouts", "reasks"]
        .iter()
        .map(|k| counter(metrics, k))
        .sum();
    (attempted, (failed_sessions + server_side).min(attempted))
}

fn report_errors(loops: &[LoopResult]) {
    for (shown, why) in loops
        .iter()
        .flat_map(|l| &l.sessions)
        .filter_map(|r| r.error.as_ref())
        .enumerate()
    {
        if shown == 5 {
            println!("  … more failed sessions");
            break;
        }
        println!("  FAILED {why}");
    }
}

fn run(opts: &Opts, run_dir: &Path) -> Result<String, String> {
    let workload = opts.workload;
    let load_before = loadavg();
    let steal_before = steal_ticks();
    std::fs::create_dir_all(run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;

    // Load-generator preparation, before any timing: the client's copy of the corpus, the
    // session list, and every goal's answer set.
    let corpus = build_corpus(workload.corpus()).expect("workload corpora are known names");
    let specs = sessions::session_list(workload, opts.seed, &corpus);
    let book = GoalBook::new(&corpus, &specs)?;
    if workload.storage() == Storage::Snapshot {
        trace::write_snapshot(&corpus, &run_dir.join("data"))?;
    }
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());

    let (server, setups) = boot(workload, run_dir)?;
    let duration = Duration::from_secs_f64(opts.seconds);
    let (loops, mismatches, server_metrics, mut m) = if opts.trace {
        // Untraced then traced, half the time each: their throughput ratio is the tracing
        // overhead.
        let half = duration / 2;
        let addr = server.addr();
        let corpus_name = workload.corpus();
        let untraced = load::run_loop(addr, corpus_name, &specs, &book, clients, half, false);
        let traced = load::run_loop(addr, corpus_name, &specs, &book, clients, half, true);
        let metrics = server_metrics(&server)?;
        server.stop();
        let last_boot = run_dir.join(format!("boot{}", SETUP_BOOTS - 1));
        let wal = last_boot.join("sessions.qbew");
        let spans_path = PathBuf::from(RUN_ROOT).join(format!(
            "spans-{}-seed{}.jsonl",
            workload.name(),
            opts.seed
        ));
        let outcome = trace::per_layer(&trace::TraceInput {
            corpus: &corpus,
            specs: &specs,
            untraced: &untraced,
            traced: &traced,
            server_metrics: &metrics,
            server_wal: (workload.storage() == Storage::FreshPersist).then_some(wal.as_path()),
            scratch: run_dir,
            spans_path: &spans_path,
        })?;
        println!(
            "replayed {} sessions in-process; {} mismatch(es); spans in {}",
            outcome.replayed,
            outcome.mismatches.len(),
            spans_path.display()
        );
        for why in &outcome.mismatches {
            println!("  MISMATCH {why}");
        }
        // A replay that disagrees with the server is a failed session.
        let mismatches = outcome.mismatches.len();
        (vec![untraced, traced], mismatches, metrics, outcome.metrics)
    } else {
        let cpu_before = server.cpu_ms()?;
        let result = load::run_loop(
            server.addr(),
            workload.corpus(),
            &specs,
            &book,
            clients,
            duration,
            false,
        );
        let cpu_ms = server.cpu_ms()? - cpu_before;
        let rss_mb = server.peak_rss_mb()?;
        let metrics = server_metrics(&server)?;
        server.stop();
        let m = end_to_end(&result, &setups, cpu_ms, rss_mb);
        (vec![result], 0, metrics, m)
    };
    let (attempted, failed) = failures(&loops, &server_metrics);
    let failed = (failed + mismatches).min(attempted);
    if !opts.trace {
        m.push(
            "verified_frac",
            1.0 - ratio(failed as f64, attempted as f64),
            "fraction",
        );
    }

    let sessions: usize = loops.iter().map(|l| l.sessions.len()).sum();
    let wall_s: f64 = loops.iter().map(|l| l.wall_s).sum();
    println!(
        "qbe-perfbench {} seed={} trace={}: {sessions} sessions ({} per pass) from {clients} clients in {wall_s:.2} s; {failed} of {attempted} failed",
        workload.name(),
        opts.seed,
        u8::from(opts.trace),
        specs.len(),
    );
    report_errors(&loops);
    if !opts.trace {
        println!(
            "  failed_frac {} fraction",
            stats::json_num(ratio(failed as f64, attempted as f64))
        );
    }
    for metric in &m.0 {
        println!(
            "  {:<40} {:>14} {}",
            metric.name,
            stats::json_num(metric.value),
            metric.unit
        );
    }
    let flags = server_flags(workload, Path::new("<run-dir>"), 0);
    println!(
        "{{\"context\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \"source_fnv\": {}, \"available_parallelism\": {clients}, \"rustc\": {}, \"clients\": {clients}, \"server_flags\": {}, \"setup_boots\": {SETUP_BOOTS}, \"sessions_per_pass\": {}, \"loadavg_before\": {}, \"loadavg_after\": {}, \"steal_s\": {}}}}}",
        stats::json_str(workload.name()),
        opts.seed,
        stats::json_num(opts.seconds),
        opts.trace,
        stats::json_str(&command_line("git", &["rev-parse", "HEAD"])),
        stats::json_str(&source_fingerprint()),
        stats::json_str(&command_line("rustc", &["--version"])),
        stats::json_str(&flags.join(" ")),
        specs.len(),
        stats::json_str(&load_before),
        stats::json_str(&loadavg()),
        stats::json_num(steal_ticks().saturating_sub(steal_before) as f64 / 100.0),
    );
    Ok(result_line(failed == 0, attempted, failed, &m))
}

/// The end-to-end metrics of an untraced loop. `verified_frac` is added by the caller.
fn end_to_end(result: &LoopResult, setups: &[f64], server_cpu_ms: f64, rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    let verified: Vec<&load::SessionRun> = result
        .sessions
        .iter()
        .filter(|r| r.error.is_none())
        .collect();
    let session_ms: Vec<f64> = verified.iter().map(|r| r.session_ms()).collect();
    let worst: Vec<f64> = verified
        .iter()
        .map(|r| r.waits_ms.iter().copied().fold(0.0, f64::max))
        .collect();
    // The first pass is the seed's list, once: its mean question count is the user's effort.
    let questions: Vec<f64> = result
        .sessions
        .iter()
        .filter(|r| r.ordinal < result.pass_len)
        .map(|r| r.questions as f64)
        .collect();
    m.push("setup_s", median(setups), "s");
    m.push("sessions_per_s", result.sessions_per_s(), "1/s");
    m.push("session_ms_p50", median(&session_ms), "ms");
    m.push("wait_ms_p50", result.wait_ms(50.0), "ms");
    m.push("wait_ms_p95", result.wait_ms(95.0), "ms");
    m.push("worst_wait_ms_p50", median(&worst), "ms");
    m.push("questions_per_session", mean(&questions), "count");
    m.push(
        "server_cpu_ms_per_session",
        ratio(server_cpu_ms, result.sessions.len() as f64),
        "ms",
    );
    m.push("rss_mb", rss_mb, "MB");
    m
}
