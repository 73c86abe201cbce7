//! exp_noise — noisy-oracle convergence curves behind `BENCH_PR10.json`.
//!
//! The unreliable-world question: how much does learning cost when the oracle lies with
//! probability p and the connection keeps dropping? For every learner model and each flip
//! probability on the grid, a resilient client drives a session over real TCP against a
//! fault-injected loopback server (deterministic connection drops + injected latency,
//! client-side socket sabotage on top), answering through the k-vote majority meta-strategy
//! with k chosen from the exact binomial bound so the whole session errs with probability
//! < δ. Reported per cell:
//!
//! * **votes/question (k)** — the re-asking overhead the bound demands at this p;
//! * **questions** — wire questions to convergence (should match the clean run: majority
//!   voting absorbs the noise, so the *transcript* is noise-free);
//! * **total votes** — questions × k, the real cost a crowd-sourced oracle would bill;
//! * **reconnects** — RESUME re-attaches the fault schedule forced;
//! * **converged** — learned hypothesis is byte-equal to the clean run's.
//!
//! Results go to stdout as a table and to JSON (default `BENCH_PR10.json`, override with
//! `--out <path>`). `--smoke` shrinks the grid to CI size and writes JSON only to the path
//! `--out` names, so a smoke run never overwrites the full-grid snapshot.

use qbe_core::faults::{FaultProfile, FaultRegistry, SiteConfig};
use qbe_core::graph::QueryClass;
use qbe_server::{
    drive_goal_session, drive_goal_session_resilient, spawn, Goal, NoiseModel, RetryPolicy,
    ServerConfig, FAULT_SITE_CLIENT_DROP, FAULT_SITE_DROP,
};
use std::time::Duration;

/// Per-session error budget: the vote count per question is chosen so *all* majority
/// answers of a session are simultaneously correct with probability ≥ 1 − δ.
const DELTA: f64 = 1e-6;

/// Upper bound on questions per session fed to the union bound (tiny-corpus sessions top
/// out in the forties).
const QUESTION_BOUND: usize = 64;

struct Cell {
    p: f64,
    votes_per_question: usize,
    questions: usize,
    total_votes: u64,
    flips: u64,
    reconnects: u64,
    converged: bool,
}

struct ModelCurve {
    model: &'static str,
    clean_questions: usize,
    cells: Vec<Cell>,
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(20),
        request_timeout: Duration::from_secs(10),
        seed: 1,
    }
}

fn json_escape_free(curves: &[ModelCurve], smoke: bool, reps: usize, profile: &str) -> String {
    // Hand-rolled JSON: keys are fixed identifiers, values numeric — nothing needs escaping
    // (the profile string contains only site names, digits and punctuation).
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"delta\": {DELTA:e},\n"));
    out.push_str(&format!("  \"runs_per_cell\": {reps},\n"));
    out.push_str(&format!("  \"fault_profile\": \"{profile}\",\n"));
    out.push_str("  \"models\": {\n");
    for (mx, curve) in curves.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"clean_questions\": {}, \"curve\": [\n",
            curve.model, curve.clean_questions
        ));
        for (cx, cell) in curve.cells.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"p\": {:.2}, \"votes_per_question\": {}, \"questions\": {}, \"total_votes\": {}, \"flips\": {}, \"reconnects\": {}, \"converged\": {}}}{}\n",
                cell.p,
                cell.votes_per_question,
                cell.questions,
                cell.total_votes,
                cell.flips,
                cell.reconnects,
                cell.converged,
                if cx + 1 < curve.cells.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if mx + 1 < curves.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let out_path = qbe_bench::out_arg();
    let smoke = qbe_bench::smoke();
    let ps: Vec<f64> = qbe_bench::param(vec![0.0, 0.05, 0.1, 0.15, 0.2], vec![0.0, 0.1]);
    let reps = qbe_bench::param(5usize, 1);

    // Deterministic chaos on both ends of the wire: the server drops every 9th ASK/ANSWER
    // and injects 1ms latency every 25th line; the client kills its own socket every 17th
    // faultable request. `every=` schedules make every run reproducible bit for bit.
    let server_profile = "seed=7;server.drop=0:every=9;server.latency=0:every=25:ms=1";
    let faulty = spawn(ServerConfig {
        faults: Some(FaultRegistry::shared(
            FaultProfile::parse(server_profile).expect("profile parses"),
        )),
        ..ServerConfig::default()
    })
    .expect("faulty server binds");
    let clean = spawn(ServerConfig::default()).expect("clean server binds");
    let client_faults = FaultRegistry::shared(
        FaultProfile::new(13).site(FAULT_SITE_CLIENT_DROP, SiteConfig::with_every(17)),
    );

    type Session = (&'static str, Goal, Vec<(&'static str, &'static str)>);
    let sessions: [Session; 4] = [
        ("twig", Goal::Twig("//person/name".to_string()), vec![]),
        (
            "path",
            Goal::PathRoadType("highway".to_string()),
            vec![("to", "city3")],
        ),
        ("join", Goal::Join, vec![]),
        ("graph", Goal::GraphPairs(QueryClass::Rpq), vec![]),
    ];

    println!("# exp_noise — questions & votes to convergence vs oracle flip probability");
    println!("# δ={DELTA:e}, {reps} run(s)/cell, faults: {server_profile} + {FAULT_SITE_DROP}-style client drops");
    println!(
        "{:<7} {:>5} {:>8} {:>10} {:>12} {:>11} {:>10}",
        "model", "p", "votes/q", "questions", "total votes", "reconnects", "converged"
    );

    let mut curves = Vec::new();
    let mut failures = 0usize;
    for (model, goal, params) in &sessions {
        let reference = drive_goal_session(clean.addr(), "tiny", goal, params)
            .unwrap_or_else(|e| panic!("{model}: clean reference failed: {e}"));
        let mut cells = Vec::new();
        for (px, &p) in ps.iter().enumerate() {
            let mut questions = Vec::new();
            let (mut total_votes, mut flips, mut reconnects) = (0u64, 0u64, 0u64);
            let mut converged = true;
            let mut votes_per_question = 1;
            for rep in 0..reps {
                let seed =
                    0xBAD5EED ^ ((px as u64) << 32) ^ ((rep as u64) << 8) ^ model.len() as u64;
                let noise = NoiseModel::with_bound(p, DELTA, QUESTION_BOUND, seed);
                votes_per_question = noise.votes;
                let outcome = drive_goal_session_resilient(
                    faulty.addr(),
                    "tiny",
                    goal,
                    params,
                    policy(),
                    Some(&noise),
                    Some(client_faults.clone()),
                )
                .unwrap_or_else(|e| panic!("{model} p={p} rep={rep}: session failed: {e}"));
                questions.push(outcome.session.questions);
                total_votes += outcome.votes_cast;
                flips += outcome.flips;
                reconnects += outcome.reconnects;
                converged &= outcome.session.consistent
                    && outcome.session.hypothesis == reference.hypothesis;
            }
            questions.sort_unstable();
            let cell = Cell {
                p,
                votes_per_question,
                questions: questions[questions.len() / 2],
                total_votes: total_votes / reps as u64,
                flips: flips / reps as u64,
                reconnects,
                converged,
            };
            println!(
                "{:<7} {:>5.2} {:>8} {:>10} {:>12} {:>11} {:>10}",
                model,
                cell.p,
                cell.votes_per_question,
                cell.questions,
                cell.total_votes,
                cell.reconnects,
                if cell.converged { "yes" } else { "NO" }
            );
            if !cell.converged {
                failures += 1;
            }
            cells.push(cell);
        }
        curves.push(ModelCurve {
            model,
            clean_questions: reference.questions,
            cells,
        });
    }
    faulty.shutdown();
    clean.shutdown();

    if let Some(out_path) = out_path.or_else(|| (!smoke).then(|| "BENCH_PR10.json".to_string())) {
        let json = json_escape_free(&curves, smoke, reps, server_profile);
        std::fs::write(&out_path, json).expect("snapshot file is writable");
        println!("snapshot written to {out_path}");
    }
    assert_eq!(failures, 0, "{failures} cell(s) failed to converge");
}
