//! Fault-schedule differential: noisy-oracle sessions driven through the protocol core with
//! deterministic injected connection drops must (a) still converge to the goal query —
//! majority voting absorbs the label noise, `RESUME` re-attachment absorbs the drops — and
//! (b) produce *byte-identical* transcripts when replayed under the same seed, which is
//! what makes any failing schedule a reproducible bug report.
//!
//! This lives in-crate (not `tests/`) because it drives [`respond`] directly: one simulated
//! client per case, no sockets, so 256 proptest cases across all four wire models stay
//! cheap. The end-to-end TCP variant (real connections, real drops, the resilient client)
//! is `tests/resilience.rs`.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;

use qbe_core::faults::{FaultProfile, FaultRegistry, SiteConfig};
use qbe_core::{votes_for_session, MajorityVote};

use qbe_core::graph::QueryClass;

use crate::client::{local_corpus, Goal, GoalEvaluator};
use crate::protocol::{field_value, parse_fields_line};
use crate::server::{respond, ProtoState, ServerConfig, Service, FAULT_SITE_DROP};

/// The four wire models with a fixed goal and `START` line each (the fault/noise seed is
/// the only thing that varies across cases, so the clean reference is cacheable per model).
fn model_case(model_ix: usize) -> (Goal, &'static str) {
    match model_ix {
        0 => (Goal::Twig("//person/name".to_string()), "START twig"),
        1 => (
            Goal::PathRoadType("highway".to_string()),
            "START path to=city3",
        ),
        2 => (Goal::Join, "START join"),
        _ => (Goal::GraphPairs(QueryClass::Rpq), "START graph class=rpq"),
    }
}

/// What one simulated noisy run observed.
struct NoisyRun {
    /// Every request/reply exchanged, drops and `RESUME`s included, verbatim.
    transcript: Vec<String>,
    hypothesis: String,
    consistent: bool,
    /// `retries=` / `reasks=` / `faults_injected=` from the final `METRICS`.
    retries: u64,
    reasks: u64,
    faults_injected: u64,
}

/// One request through the "wire": the drop decision is made before [`respond`] executes
/// and applied after, exactly as the workers do — the operation lands, the reply is
/// lost. On a drop the simulated client immediately reconnects and `RESUME`s; the lost
/// reply comes back as the `Err` so `ANSWER` callers can disambiguate.
fn exchange(
    service: &Service,
    state: &mut ProtoState,
    session: Option<u64>,
    transcript: &mut Vec<String>,
    line: &str,
) -> Result<String, String> {
    let dropped = service.injected_drop(line);
    let (reply, _quit) = respond(service, state, line);
    if !dropped {
        transcript.push(format!("C: {line} / S: {reply}"));
        return Ok(reply);
    }
    transcript.push(format!("C: {line} / S: <dropped>"));
    state.teardown(service); // fault profile attached: detaches, stays resumable
    *state = ProtoState::new();
    let resume = format!("RESUME {}", session.expect("drops fire mid-session only"));
    let (reattach, _) = respond(service, state, &resume);
    transcript.push(format!("C: {resume} / S: {reattach}"));
    assert!(
        reattach.starts_with("+OK session"),
        "re-attach after injected drop failed: {reattach}"
    );
    Err(reply)
}

/// `ASK` until a reply actually arrives (each lost one is retried post-`RESUME`; the server
/// repeats the pending question, counting a reask).
fn ask_served(
    service: &Service,
    state: &mut ProtoState,
    session: u64,
    transcript: &mut Vec<String>,
    safety: &mut usize,
) -> String {
    loop {
        *safety = safety.checked_sub(1).expect("fault schedule never settled");
        if let Ok(reply) = exchange(service, state, Some(session), transcript, "ASK") {
            return reply;
        }
    }
}

/// Drive one complete noisy session against a fresh in-process service: injected drops at
/// `drop_p` per `ASK`/`ANSWER`, labels flipped at `flip_p` per vote, majority over a vote
/// count chosen so the whole session errs with probability < 1e-6 (keeps all 256 cases
/// deterministic *and* correct).
fn run_noisy(model_ix: usize, drop_p: f64, flip_p: f64, seed: u64) -> NoisyRun {
    let (goal, start_line) = model_case(model_ix);
    let profile =
        FaultProfile::new(seed).site(FAULT_SITE_DROP, SiteConfig::with_probability(drop_p));
    let faults = FaultRegistry::shared(profile);
    let config = ServerConfig {
        faults: Some(faults),
        ..ServerConfig::default()
    };
    let service = Service::open(&config).expect("in-memory service opens");
    let local = local_corpus("tiny").expect("tiny corpus builds");
    let mut evaluator = GoalEvaluator::new(&local, &goal).expect("goal evaluates");

    let mut state = ProtoState::new();
    let mut transcript = Vec::new();
    let mut safety = 10_000usize;
    let corpus_reply = exchange(&service, &mut state, None, &mut transcript, "CORPUS tiny")
        .expect("CORPUS is not a droppable line");
    assert!(corpus_reply.starts_with("+OK corpus"));
    let start_reply = exchange(&service, &mut state, None, &mut transcript, start_line)
        .expect("START is not a droppable line");
    let session: u64 = start_reply
        .strip_prefix("+OK session id=")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|id| id.parse().ok())
        .expect("START replies with a session id");

    let mut vote = MajorityVote::new(
        flip_p,
        votes_for_session(flip_p, 1e-6, 64),
        seed.wrapping_mul(0x9e3779b97f4a7c15) ^ 0x5eed,
    );
    let mut carried: Option<String> = None;
    let consistent = loop {
        safety = safety.checked_sub(1).expect("fault schedule never settled");
        let ask = match carried.take() {
            Some(reply) => reply,
            None => ask_served(&service, &mut state, session, &mut transcript, &mut safety),
        };
        if let Some(done) = ask.strip_prefix("+DONE ") {
            let fields = parse_fields_line(done).expect("DONE fields parse");
            break field_value(&fields, "consistent") == Some("true");
        }
        let fields = parse_fields_line(ask.strip_prefix("+ASK ").expect("question line"))
            .expect("ASK fields parse");
        let truth = evaluator.label(&fields).expect("goal labels the question");
        let answer = if vote.answer(truth) {
            "ANSWER yes"
        } else {
            "ANSWER no"
        };
        loop {
            safety = safety.checked_sub(1).expect("fault schedule never settled");
            match exchange(&service, &mut state, Some(session), &mut transcript, answer) {
                Ok(_) => break,
                Err(_lost) => {
                    // Did the lost ANSWER land? Probe: an unchanged pending question means
                    // no (resend); anything else means yes (carry the probe forward).
                    let probe =
                        ask_served(&service, &mut state, session, &mut transcript, &mut safety);
                    if probe != ask {
                        carried = Some(probe);
                        break;
                    }
                }
            }
        }
    };

    let hypothesis = exchange(
        &service,
        &mut state,
        Some(session),
        &mut transcript,
        "QUERY",
    )
    .expect("QUERY is not a droppable line");
    // METRICS stays out of the transcript: its throughput_per_s field is wall-clock, the
    // one legitimately non-deterministic reply in the protocol.
    let (metrics_line, _) = respond(&service, &mut state, "METRICS");
    let metrics = parse_fields_line(metrics_line.strip_prefix("+METRICS ").unwrap()).unwrap();
    let counter = |key: &str| -> u64 {
        field_value(&metrics, key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("METRICS carries {key}="))
    };
    NoisyRun {
        transcript,
        hypothesis,
        consistent,
        retries: counter("retries"),
        reasks: counter("reasks"),
        faults_injected: counter("faults_injected"),
    }
}

/// The hypothesis a clean (no drops, no noise) run learns, cached per model: the goal
/// query every noisy schedule must still converge to.
fn clean_hypothesis(model_ix: usize) -> String {
    static CACHE: OnceLock<Mutex<HashMap<usize, String>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("reference cache lock never poisoned");
    map.entry(model_ix)
        .or_insert_with(|| {
            let clean = run_noisy(model_ix, 0.0, 0.0, 0);
            assert!(clean.consistent, "the clean reference run is consistent");
            assert_eq!(clean.faults_injected, 0);
            clean.hypothesis
        })
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn noisy_faulty_schedules_converge_and_replay_byte_identically(
        model_ix in 0usize..4,
        seed in 0u64..1024,
        drop_ix in 0usize..4,
        flip_ix in 0usize..3,
    ) {
        let drop_p = [0.0, 0.1, 0.2, 0.3][drop_ix];
        let flip_p = [0.0, 0.1, 0.2][flip_ix];

        let run = run_noisy(model_ix, drop_p, flip_p, seed);

        // Convergence: drops and flips notwithstanding, the session completes with
        // consistent labels and learns exactly what the undisturbed session learns.
        prop_assert!(run.consistent, "labels stayed consistent under the schedule");
        prop_assert_eq!(&run.hypothesis, &clean_hypothesis(model_ix));

        // The counters reconcile with the transcript: every injected drop forced one
        // RESUME re-attach, and a drop on ASK (reply lost, question re-served) or a
        // landed-but-lost ANSWER probe shows up as a reask.
        let resumes = run.transcript.iter().filter(|l| l.starts_with("C: RESUME")).count() as u64;
        let drops = run.transcript.iter().filter(|l| l.ends_with("<dropped>")).count() as u64;
        prop_assert_eq!(run.retries, resumes);
        prop_assert_eq!(run.faults_injected, drops);
        if drop_p == 0.0 {
            prop_assert_eq!(run.faults_injected, 0);
            prop_assert_eq!(run.reasks, 0);
        }

        // Determinism: the same seed replays the same schedule — byte-identical
        // transcript, a reproducible bug report for any schedule that ever fails.
        let replay = run_noisy(model_ix, drop_p, flip_p, seed);
        prop_assert_eq!(run.transcript, replay.transcript);
    }
}
