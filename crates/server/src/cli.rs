//! Entry point of the `qbe-server` binary (the thin `main` lives in `qbe-bench` next to the
//! other experiment binaries so the shared smoke harness can exercise it).
//!
//! Two modes:
//!
//! * `qbe-server [--addr HOST:PORT] [--workers N] [--max-connections N]
//!   [--rate-limit BURST/PER_SEC] [--data-dir DIR] [--persist] [--faults SPEC]` —
//!   serve until killed (default `127.0.0.1:7878`). `--data-dir` caches corpus
//!   snapshots on disk; `--persist` additionally write-ahead-logs sessions there and recovers
//!   them on the next boot; `--faults` attaches a deterministic fault-injection profile
//!   (e.g. `seed=7;server.drop=0.05;wal.fsync=0.1:max=2` — see `qbe_core::faults`). Any other
//!   argument is an error, so a misspelt flag cannot silently fall back to a default;
//! * `qbe-server --smoke` — self-check: bind an ephemeral port, run one simulated client
//!   session per model over loopback, print the learned queries and the `METRICS` line, shut
//!   down, exit 0. This is what CI runs on every push.

use crate::client::{drive_goal_session, Client, Goal};
use crate::server::{spawn, RateLimit, ServerConfig};
use qbe_core::graph::QueryClass;

/// The serving flags, each with whether it takes a value.
const FLAGS: &[(&str, bool)] = &[
    ("--addr", true),
    ("--workers", true),
    ("--max-connections", true),
    ("--rate-limit", true),
    ("--data-dir", true),
    ("--persist", false),
    ("--faults", true),
];

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|ix| args.get(ix + 1))
}

/// Reject any argument that is neither a known flag nor the value of one.
fn check_known_flags(args: &[String]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match FLAGS.iter().find(|(flag, _)| flag == arg) {
            Some((_, true)) if rest.next().is_none() => {
                return Err(format!("{arg} needs a value"));
            }
            Some(_) => {}
            None => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok(())
}

/// Parse the serving flags shared by the serve-forever mode (and, for the config shape, the
/// bench harness): returns the config or an error message naming the bad flag.
fn parse_config(args: &[String]) -> Result<ServerConfig, String> {
    check_known_flags(args)?;
    let mut config = ServerConfig {
        addr: flag_value(args, "--addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        ..Default::default()
    };
    if let Some(n) = flag_value(args, "--workers") {
        config.workers = n
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("--workers must be a positive integer, got {n:?}"))?;
    }
    if let Some(n) = flag_value(args, "--max-connections") {
        config.max_connections =
            n.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                format!("--max-connections must be a positive integer, got {n:?}")
            })?;
    }
    if let Some(spec) = flag_value(args, "--rate-limit") {
        let (burst, per_sec) = spec
            .split_once('/')
            .and_then(|(b, r)| Some((b.parse::<u32>().ok()?, r.parse::<f64>().ok()?)))
            .filter(|&(b, r)| b > 0 && r > 0.0)
            .ok_or_else(|| {
                format!("--rate-limit must be BURST/PER_SEC (e.g. 20/5), got {spec:?}")
            })?;
        config.rate_limit = Some(RateLimit { burst, per_sec });
    }
    if let Some(dir) = flag_value(args, "--data-dir") {
        config.data_dir = Some(std::path::PathBuf::from(dir));
    }
    if args.iter().any(|a| a == "--persist") {
        if config.data_dir.is_none() {
            return Err("--persist requires --data-dir".to_string());
        }
        config.persist = true;
    }
    if let Some(spec) = flag_value(args, "--faults") {
        let profile = qbe_core::faults::FaultProfile::parse(spec)
            .map_err(|why| format!("--faults: {why} (spec {spec:?})"))?;
        config.faults = Some(qbe_core::faults::FaultRegistry::shared(profile));
    }
    Ok(config)
}

/// Run the CLI. Returns the process exit code.
pub fn run(args: impl Iterator<Item = String>) -> i32 {
    let args: Vec<String> = args.collect();
    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var_os("QBE_BENCH_SMOKE").is_some_and(|v| v != "0");
    if smoke {
        return run_smoke();
    }
    let config = match parse_config(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("qbe-server: {msg}");
            return 1;
        }
    };
    let addr = config.addr.clone();
    let persist = config.persist;
    let handle = match spawn(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("qbe-server: cannot start on {addr}: {e}");
            return 1;
        }
    };
    println!(
        "qbe-server listening on {} (models twig,path,join,graph; corpora {}{})",
        handle.addr(),
        crate::corpus::CORPUS_NAMES.join(","),
        if persist { "; persistence on" } else { "" }
    );
    handle.join();
    0
}

fn run_smoke() -> i32 {
    let handle = match spawn(ServerConfig::default()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("qbe-server --smoke: cannot bind: {e}");
            return 1;
        }
    };
    let addr = handle.addr();
    println!("qbe-server --smoke on {addr}");
    println!(
        "{:<28} {:>10} {:>12} {:>6}  learned",
        "session", "questions", "answer-set", "ok"
    );
    type SmokeSession = (&'static str, Goal, Vec<(&'static str, &'static str)>);
    let sessions: [SmokeSession; 4] = [
        (
            "twig //person/name",
            Goal::Twig("//person/name".to_string()),
            vec![("seed", "7")],
        ),
        (
            "path type=highway",
            Goal::PathRoadType("highway".to_string()),
            vec![("to", "city3")],
        ),
        ("join demo", Goal::Join, vec![]),
        ("graph rpq demo", Goal::GraphPairs(QueryClass::Rpq), vec![]),
    ];
    let mut failures = 0;
    for (label, goal, params) in &sessions {
        match drive_goal_session(addr, "tiny", goal, params) {
            Ok(outcome) => {
                println!(
                    "{:<28} {:>10} {:>12} {:>6}  {}",
                    label,
                    outcome.questions,
                    outcome.answer_set_size,
                    if outcome.consistent { "yes" } else { "NO" },
                    outcome.hypothesis
                );
                if !outcome.consistent {
                    failures += 1;
                }
            }
            Err(e) => {
                println!("{label:<28} FAILED: {e}");
                failures += 1;
            }
        }
    }
    match Client::connect(addr).and_then(|mut c| c.metrics()) {
        Ok(metrics) => {
            let line: Vec<String> = metrics.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("metrics: {}", line.join(" "));
            let sessions_served = crate::protocol::field_value(&metrics, "sessions")
                .and_then(|v| v.parse::<usize>().ok());
            if sessions_served != Some(sessions.len()) {
                eprintln!(
                    "expected {} served sessions, metrics say {sessions_served:?}",
                    sessions.len()
                );
                failures += 1;
            }
        }
        Err(e) => {
            eprintln!("METRICS failed: {e}");
            failures += 1;
        }
    }
    handle.shutdown();

    if failures == 0 {
        println!("smoke ok: sessions learned over loopback");
        0
    } else {
        eprintln!("smoke failed: {failures} problem(s)");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serving_flags_parse_and_reject_loudly() {
        let config = parse_config(&strs(&[
            "--addr",
            "127.0.0.1:9000",
            "--workers",
            "3",
            "--max-connections",
            "500",
            "--rate-limit",
            "20/5",
        ]))
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:9000");
        assert_eq!(config.workers, 3);
        assert_eq!(config.max_connections, 500);
        let limit = config.rate_limit.unwrap();
        assert_eq!(limit.burst, 20);
        assert_eq!(limit.per_sec, 5.0);

        // Defaults: no rate limit.
        let defaults = parse_config(&strs(&[])).unwrap();
        assert!(defaults.rate_limit.is_none());

        assert!(parse_config(&strs(&["--workers", "0"])).is_err());
        assert!(parse_config(&strs(&["--rate-limit", "20"])).is_err());
        assert!(parse_config(&strs(&["--rate-limit", "0/5"])).is_err());

        // Unknown arguments fail loudly and are named in the error: an engine switch or a
        // misspelt --persist must not quietly serve with defaults.
        for (args, culprit) in [
            (&["--engine", "blocking"][..], "--engine"),
            (&["--data-dir", "/tmp/qbe", "--presist"], "--presist"),
            (&["--workers", "2", "stray"], "stray"),
        ] {
            let err = parse_config(&strs(args)).unwrap_err();
            assert!(err.contains(culprit), "{args:?}: {err}");
        }
        assert!(
            parse_config(&strs(&["--addr"])).is_err(),
            "a flag without its value"
        );
    }

    #[test]
    fn persistence_flags_parse_and_imply_each_other() {
        let config = parse_config(&strs(&["--data-dir", "/tmp/qbe", "--persist"])).unwrap();
        assert_eq!(
            config.data_dir.as_deref(),
            Some(std::path::Path::new("/tmp/qbe"))
        );
        assert!(config.persist);

        // Snapshot caching without the WAL is allowed…
        let cache_only = parse_config(&strs(&["--data-dir", "/tmp/qbe"])).unwrap();
        assert!(cache_only.data_dir.is_some());
        assert!(!cache_only.persist);

        // …but a WAL with nowhere to live is not.
        assert!(parse_config(&strs(&["--persist"])).is_err());
    }

    #[test]
    fn fault_flags_parse_and_reject_loudly() {
        let config = parse_config(&strs(&[
            "--faults",
            "seed=7;server.drop=0.05;wal.fsync=0.1:max=2",
        ]))
        .unwrap();
        let faults = config.faults.expect("profile attached");
        assert_eq!(faults.profile().seed, 7);
        assert!(faults.profile().sites.contains_key("server.drop"));
        assert!(faults.profile().sites.contains_key("wal.fsync"));

        // Production default: no registry at all (disconnects close sessions).
        assert!(parse_config(&strs(&[])).unwrap().faults.is_none());

        assert!(parse_config(&strs(&["--faults", "server.drop=1.5"])).is_err());
        assert!(parse_config(&strs(&["--faults", "nonsense"])).is_err());
    }
}
