//! Shared plumbing for the `exp_*` experiment binaries: the smoke switch, the command-line
//! check and the one timing helper every table cell goes through.
//!
//! Every experiment binary supports `--smoke` (or the `QBE_BENCH_SMOKE=1`
//! environment variable): a drastically shrunk workload that exercises the
//! same code paths in well under a second, so CI can run the whole experiment
//! suite on every push and the binaries cannot silently rot.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Whether the current invocation asked for the smoke (CI-sized) workload,
/// either via a `--smoke` argument or the `QBE_BENCH_SMOKE` environment
/// variable (any value but `0`).
pub fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
        || std::env::var_os("QBE_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Picks the experiment's full-size parameter normally and the shrunk one
/// under [`smoke`]. Works for scalars, arrays and vecs alike:
///
/// ```
/// let rows = qbe_bench::param(vec![50usize, 100, 200], vec![10]);
/// let scale = qbe_bench::param(0.1, 0.02);
/// ```
pub fn param<T>(full: T, smoke_sized: T) -> T {
    if smoke() {
        smoke_sized
    } else {
        full
    }
}

/// Checks an experiment's command line before it starts any work: `--smoke` is the only
/// argument it takes. Anything else exits with status 2 and a message naming it, so a
/// misspelt flag cannot fall back to the full-size run.
pub fn check_args() {
    parse_or_exit(false);
}

/// [`check_args`] for an experiment that writes a file: it also takes `--out PATH`, and this
/// returns that path. `--out` without a path exits with status 2 like an unknown argument.
pub fn out_arg() -> Option<String> {
    parse_or_exit(true)
}

fn parse_or_exit(takes_out: bool) -> Option<String> {
    parse_args(std::env::args().skip(1), takes_out).unwrap_or_else(|msg| {
        let program = std::env::args().next().unwrap_or_default();
        eprintln!("{program}: {msg}");
        std::process::exit(2)
    })
}

/// The `--out` path of `args`, or a message naming the first argument that is not
/// `--smoke` (nor, when `takes_out`, `--out` followed by a path).
fn parse_args(
    mut args: impl Iterator<Item = String>,
    takes_out: bool,
) -> Result<Option<String>, String> {
    let mut out = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {}
            "--out" if takes_out => match args.next() {
                Some(path) if !path.starts_with("--") => out = Some(path),
                _ => return Err("--out needs a path".to_string()),
            },
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok(out)
}

/// Most runs one timed cell takes. Odd, so the median is one run's time.
const SAMPLES: usize = 21;

/// Time after which a timed cell takes no further run.
const CELL_BUDGET: Duration = Duration::from_millis(100);

/// Times one table cell: runs `work` until it has `SAMPLES` runs or has spent
/// `CELL_BUDGET`, but at least once, and exactly once under [`smoke`]. Each result passes
/// through [`black_box`] and is dropped outside the timed span. Returns the last run's value
/// with the median run time in microseconds, so a table takes its other columns from the
/// timed run instead of running the work again.
pub fn time_us<T>(mut work: impl FnMut() -> T) -> (T, f64) {
    let cap = if smoke() { 1 } else { SAMPLES };
    let cell = Instant::now();
    let mut times = Vec::with_capacity(cap);
    loop {
        let run = Instant::now();
        // The closure, and so the inputs it captures, passes through `black_box` too: the
        // compiler cannot carry one run's work over into the next.
        let value = black_box(black_box(&mut work)());
        times.push(run.elapsed());
        if times.len() == cap || cell.elapsed() >= CELL_BUDGET {
            times.sort_unstable();
            return (value, times[times.len() / 2].as_secs_f64() * 1e6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Re-runs the test binary on one child test with `QBE_BENCH_SMOKE=1`. `smoke()` reads
    /// process-global state (env + args), so the smoke regime is exercised in a spawned child
    /// rather than by mutating the test's own environment. libtest rejects unknown `--` flags,
    /// so the child is driven through the environment variable rather than `--smoke`.
    fn run_child_in_smoke_mode(test: &str) {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([test, "--exact", "--nocapture"])
            .env("QBE_BENCH_SMOKE", "1")
            .output()
            .expect("re-running the test binary works");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn smoke_env_controls_param_choice() {
        run_child_in_smoke_mode("tests::child_sees_smoke");
    }

    #[test]
    fn child_sees_smoke() {
        // Only meaningful when spawned with QBE_BENCH_SMOKE=1 by
        // smoke_env_controls_param_choice; standalone (no flag, no env) it
        // checks the full-size branch instead.
        if smoke() {
            assert_eq!(param(1, 2), 2);
        } else {
            assert_eq!(param(1, 2), 1);
        }
    }

    #[test]
    fn smoke_times_each_cell_once() {
        run_child_in_smoke_mode("tests::child_times_a_cell");
    }

    #[test]
    fn child_times_a_cell() {
        // Spawned with QBE_BENCH_SMOKE=1 by smoke_times_each_cell_once; standalone it checks
        // the full-size sample cap instead.
        let mut runs = 0;
        let (last, micros) = time_us(|| {
            runs += 1;
            runs
        });
        assert_eq!(last, runs, "the value of the last run comes back");
        assert!(micros >= 0.0);
        if smoke() {
            assert_eq!(runs, 1);
        } else {
            assert!((1..=SAMPLES).contains(&runs), "{runs} runs");
        }
    }

    #[test]
    fn a_slow_cell_stops_at_its_budget() {
        let mut runs = 0;
        time_us(|| {
            runs += 1;
            std::thread::sleep(CELL_BUDGET / 2);
        });
        assert!((1..=3).contains(&runs), "{runs} runs");
    }

    #[test]
    fn arguments_are_smoke_and_out_only() {
        let parse =
            |args: &[&str], takes_out| parse_args(args.iter().map(|a| a.to_string()), takes_out);
        let out = parse(&["--smoke", "--out", "x.json"], true);
        assert_eq!(out, Ok(Some("x.json".to_string())));
        assert_eq!(parse(&["--smoke"], true), Ok(None));
        assert!(parse(&["--out", "x.json"], false).is_err_and(|e| e.contains("--out")));
        assert!(parse(&["--out", "--smoke"], true).is_err());
    }
}
