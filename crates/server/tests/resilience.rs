//! End-to-end resilience: real TCP, real injected faults, zero manual intervention.
//!
//! The acceptance bar for the unreliable-world hardening: under a deterministic fault
//! schedule — server-side connection drops and latency, client-side socket sabotage, and a
//! noisy oracle flipping labels at p = 0.2 — every learner model still converges to exactly
//! what a clean run learns, with the resilient client reconnecting and `RESUME`-ing on its
//! own, and the server's `retries=` / `reasks=` / `faults_injected=` counters telling the
//! story afterwards.

use std::time::Duration;

use qbe_core::faults::{FaultProfile, FaultRegistry, SiteConfig};
use qbe_core::graph::QueryClass;
use qbe_server::protocol::field_value;
use qbe_server::{
    drive_goal_session, drive_goal_session_resilient, is_retryable, spawn, AskReply, Client,
    ClientError, Goal, Model, NoiseModel, ResilientClient, RetryPolicy, ServerConfig,
    FAULT_SITE_CLIENT_DROP, FAULT_SITE_CLIENT_DROP_REPLY, FAULT_SITE_DROP, FAULT_SITE_LATENCY,
    FAULT_SITE_PANIC,
};

fn metric(metrics: &[(String, String)], key: &str) -> u64 {
    field_value(metrics, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("METRICS carries {key}="))
}

/// A fast-retry policy for tests: tight backoff, fixed jitter seed.
fn test_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(20),
        request_timeout: Duration::from_secs(5),
        seed: 42,
    }
}

/// The ISSUE's acceptance schedule: `every=` sites fire deterministically (no probability
/// draw), so the run is guaranteed to contain server drops, injected latency, and both
/// kinds of client-side sabotage — and is reproducible besides.
#[test]
fn all_models_converge_over_tcp_under_injected_faults_and_noise() {
    let server_faults = FaultRegistry::shared(
        FaultProfile::new(7)
            .site(FAULT_SITE_DROP, SiteConfig::with_every(7))
            .site(FAULT_SITE_LATENCY, SiteConfig::with_every(25).delay_ms(1)),
    );
    let faulty = spawn(ServerConfig {
        faults: Some(server_faults.clone()),
        ..ServerConfig::default()
    })
    .expect("faulty server binds");
    let clean = spawn(ServerConfig::default()).expect("clean server binds");

    let client_faults = FaultRegistry::shared(
        FaultProfile::new(13)
            .site(FAULT_SITE_CLIENT_DROP, SiteConfig::with_every(11))
            .site(FAULT_SITE_CLIENT_DROP_REPLY, SiteConfig::with_every(13)),
    );

    type Session<'a> = (&'a str, Goal, Vec<(&'a str, &'a str)>);
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
    for (label, goal, params) in &sessions {
        // Oracle flips each vote with p = 0.2; the vote count is chosen so the whole
        // session's majority answers are all correct with probability ≥ 1 − 1e-6.
        let noise = NoiseModel::with_bound(0.2, 1e-6, 64, 0xC0FFEE ^ label.len() as u64);
        let outcome = drive_goal_session_resilient(
            faulty.addr(),
            "tiny",
            goal,
            params,
            test_policy(),
            Some(&noise),
            Some(client_faults.clone()),
        )
        .unwrap_or_else(|e| panic!("{label}: resilient session failed: {e}"));
        let reference = drive_goal_session(clean.addr(), "tiny", goal, params)
            .unwrap_or_else(|e| panic!("{label}: clean reference failed: {e}"));

        assert!(outcome.session.consistent, "{label}: labels consistent");
        assert_eq!(
            outcome.session.hypothesis, reference.hypothesis,
            "{label}: noisy+faulty run learns the clean run's query"
        );
        assert_eq!(
            outcome.session.answer_set_size, reference.answer_set_size,
            "{label}: same answer set"
        );
        assert_eq!(
            outcome.session.questions, reference.questions,
            "{label}: majority voting absorbed every flip"
        );
        assert!(
            outcome.votes_cast > outcome.session.questions as u64,
            "{label}: the noise model actually re-asked"
        );
    }

    // The server's counters confirm the chaos happened and was survived: every injected
    // drop (server- or client-side) forced a RESUME re-attach, and lost ASK replies /
    // ANSWER probes re-served pending questions.
    let metrics = Client::connect(faulty.addr())
        .and_then(|mut c| c.metrics())
        .expect("metrics readable");
    assert_eq!(metric(&metrics, "sessions"), 4);
    assert_eq!(metric(&metrics, "ok"), 4);
    assert!(
        metric(&metrics, "retries") > 0,
        "RESUME re-attaches happened"
    );
    assert!(metric(&metrics, "reasks") > 0, "questions were re-served");
    assert!(
        metric(&metrics, "faults_injected") > 0,
        "server-side faults fired"
    );
    assert_eq!(
        metric(&metrics, "faults_injected"),
        server_faults.injected(),
        "METRICS reads the live registry"
    );
    assert!(client_faults.injected() > 0, "client-side faults fired too");

    faulty.shutdown();
    clean.shutdown();
}

/// CI selects a fault profile via `QBE_FAULT_PROFILE` (see ci.yml); without the variable a
/// mild deterministic default applies, so the test is meaningful locally too. Either way a
/// resilient session must converge under whatever the environment throws at it.
#[test]
fn env_selected_fault_profile_is_survivable() {
    let profile = FaultProfile::from_env("QBE_FAULT_PROFILE")
        .expect("QBE_FAULT_PROFILE parses when set")
        .unwrap_or_else(|| FaultProfile::new(11).site(FAULT_SITE_DROP, SiteConfig::with_every(5)));
    let handle = spawn(ServerConfig {
        faults: Some(FaultRegistry::shared(profile)),
        ..ServerConfig::default()
    })
    .expect("server binds");

    let outcome = drive_goal_session_resilient(
        handle.addr(),
        "tiny",
        &Goal::Twig("//person/name".to_string()),
        &[],
        test_policy(),
        None,
        None,
    )
    .expect("session survives the environment's fault profile");
    assert!(outcome.session.consistent);
    assert!(outcome.session.hypothesis.contains("person"));
    handle.shutdown();
}

/// Fatal errors must *not* burn the retry budget: an unknown corpus is a programming error,
/// not weather, and surfaces immediately.
#[test]
fn fatal_errors_surface_without_retries() {
    let handle = spawn(ServerConfig::default()).expect("server binds");
    let err = ResilientClient::new(handle.addr(), "no-such-corpus", test_policy())
        .err()
        .expect("unknown corpus is an error");
    assert!(
        matches!(&err, ClientError::Server(msg) if msg.contains("unknown corpus")),
        "got {err}"
    );
    assert!(!is_retryable(&err));
    handle.shutdown();
}

/// A resilient session on a fault-free server behaves exactly like the plain driver — no
/// reconnects, no retried requests, and the METRICS resilience counters stay zero.
#[test]
fn resilient_driver_is_a_noop_on_a_healthy_server() {
    let handle = spawn(ServerConfig::default()).expect("server binds");
    let outcome = drive_goal_session_resilient(
        handle.addr(),
        "tiny",
        &Goal::Join,
        &[],
        test_policy(),
        None,
        None,
    )
    .expect("clean resilient session");
    assert!(outcome.session.consistent);
    assert_eq!(outcome.reconnects, 0);
    assert_eq!(outcome.retried_requests, 0);
    assert_eq!(outcome.votes_cast, 0, "no noise model, no voting");

    let metrics = Client::connect(handle.addr())
        .and_then(|mut c| c.metrics())
        .expect("metrics readable");
    assert_eq!(metric(&metrics, "retries"), 0);
    assert_eq!(metric(&metrics, "reasks"), 0);
    assert_eq!(metric(&metrics, "faults_injected"), 0);
    handle.shutdown();
}

/// A panic while executing a request costs that request, not the worker. With one worker and
/// a shedding threshold of one queued request, the panicking `ASK` gets the fatal
/// `-ERR internal error` and loses its connection and session. A second client is still
/// served, and its `ASK` is not shed, so the pool's depth came back to 0.
#[test]
fn a_panicking_request_costs_one_request_not_a_worker() {
    let faults = FaultRegistry::shared(FaultProfile::new(1).site(
        FAULT_SITE_PANIC,
        SiteConfig::with_probability(1.0).max_fires(1),
    ));
    let handle = spawn(ServerConfig {
        workers: 1,
        shed_queue_depth: 1,
        faults: Some(faults),
        ..ServerConfig::default()
    })
    .expect("server binds");

    let mut first = Client::connect(handle.addr()).expect("first client connects");
    first.corpus("tiny").expect("corpus attaches");
    first.start(Model::Twig, &[]).expect("session opens");
    let err = first.ask().expect_err("the injected panic fails the ASK");
    assert!(
        matches!(&err, ClientError::Server(msg) if msg == "internal error"),
        "got {err}"
    );
    assert!(!is_retryable(&err), "an internal error is fatal");
    assert!(
        first.hello().is_err(),
        "the connection closes after the fatal reply"
    );

    let mut second = Client::connect(handle.addr()).expect("second client connects");
    let hello = second.hello().expect("the one worker still serves");
    assert!(hello.starts_with("+OK qbe-server"), "{hello}");
    second.corpus("tiny").expect("corpus attaches");
    second.start(Model::Twig, &[]).expect("session opens");
    assert!(
        matches!(second.ask(), Ok(AskReply::Question(_))),
        "ASK is served, not shed: the panicked request left the queue depth"
    );
    let metrics = second.metrics().expect("metrics readable");
    assert_eq!(metric(&metrics, "panics"), 1);
    assert_eq!(
        metric(&metrics, "sessions"),
        1,
        "the panicked session was closed"
    );
    assert_eq!(
        metric(&metrics, "active"),
        1,
        "only the second session is live"
    );
    handle.shutdown();
}
