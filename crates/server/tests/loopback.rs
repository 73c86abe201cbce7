//! Loopback integration tests: a real server on an ephemeral port, real TCP clients.
//!
//! The headline test is the acceptance criterion of the serving layer: two *concurrent*
//! client sessions — different goals, one shared corpus — each converge to their target query
//! through nothing but the wire protocol, and `METRICS` afterwards reconciles with what the
//! clients observed.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use qbe_server::client::{drive_goal_session, Client, Goal};
use qbe_server::server::{read_line_bounded, spawn, ServerConfig};
use qbe_server::{build_corpus, Model};

use qbe_core::twig::{eval, parse_xpath};

fn test_server() -> qbe_server::ServerHandle {
    spawn(ServerConfig::default()).expect("binding 127.0.0.1:0 succeeds")
}

fn metric(metrics: &[(String, String)], key: &str) -> String {
    qbe_server::protocol::field_value(metrics, key)
        .unwrap_or_else(|| panic!("metrics carry {key}"))
        .to_string()
}

#[test]
fn two_concurrent_sessions_converge_and_metrics_reconcile() {
    let handle = test_server();
    let addr = handle.addr();

    // Two users with different intents, concurrently, over the same shared corpus.
    let goals = ["//person/name", "//item/name"];
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = goals
            .iter()
            .map(|goal| {
                scope.spawn(move || {
                    drive_goal_session(
                        addr,
                        "tiny",
                        &Goal::Twig(goal.to_string()),
                        &[("seed", "7")],
                    )
                    .expect("session runs to completion")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Each session converged to a query *semantically equal to its goal* on the corpus: the
    // rendered hypothesis parses back and selects exactly the goal's nodes.
    let corpus = build_corpus("tiny").unwrap();
    for (goal_text, outcome) in goals.iter().zip(&outcomes) {
        assert!(outcome.consistent, "{goal_text}: labels stayed consistent");
        assert!(outcome.questions > 0);
        let goal = parse_xpath(goal_text).unwrap();
        let learned = parse_xpath(&outcome.hypothesis)
            .unwrap_or_else(|e| panic!("learned query {:?} parses: {e:?}", outcome.hypothesis));
        let mut goal_total = 0;
        for doc in corpus.docs.iter() {
            let goal_set = eval::select(&goal, doc);
            goal_total += goal_set.len();
            assert_eq!(
                eval::select(&learned, doc),
                goal_set,
                "{goal_text}: learned {} selects a different answer set",
                outcome.hypothesis
            );
        }
        assert_eq!(
            outcome.answer_set_size, goal_total,
            "{goal_text}: EVAL agrees with a local indexed evaluation"
        );
    }
    assert_ne!(
        outcomes[0].session_id, outcomes[1].session_id,
        "sessions get distinct ids"
    );

    // METRICS reconciles with what the two clients observed.
    let mut client = Client::connect(addr).unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(metric(&metrics, "sessions"), "2");
    assert_eq!(metric(&metrics, "ok"), "2");
    assert_eq!(metric(&metrics, "active"), "0");
    let mut questions: Vec<usize> = outcomes.iter().map(|o| o.questions).collect();
    questions.sort_unstable();
    let total: usize = questions.iter().sum();
    assert_eq!(metric(&metrics, "total_questions"), total.to_string());
    let p50: usize = metric(&metrics, "p50_questions").parse().unwrap();
    let p95: usize = metric(&metrics, "p95_questions").parse().unwrap();
    assert_eq!(p50, questions[0], "nearest-rank p50 of two sessions");
    assert_eq!(p95, questions[1], "nearest-rank p95 of two sessions");
    assert!(metric(&metrics, "throughput_per_s").parse::<f64>().unwrap() > 0.0);
    // Nothing went wrong in this run, and the health counters say so explicitly.
    assert_eq!(metric(&metrics, "rejected"), "0");
    assert_eq!(metric(&metrics, "timeouts"), "0");
    assert_eq!(metric(&metrics, "shed"), "0");
    // No faults configured, no drops survived, no questions re-served: the resilience
    // counters (protocol 1.3 additive fields) are all explicitly zero on a clean run.
    assert_eq!(metric(&metrics, "retries"), "0");
    assert_eq!(metric(&metrics, "reasks"), "0");
    assert_eq!(metric(&metrics, "faults_injected"), "0");

    handle.shutdown();
}

#[test]
fn all_three_models_learn_over_the_wire() {
    let handle = test_server();
    let addr = handle.addr();

    let twig = drive_goal_session(addr, "tiny", &Goal::Twig("//person/name".into()), &[]).unwrap();
    assert!(twig.consistent);
    assert!(twig.hypothesis.contains("person"), "{}", twig.hypothesis);

    let path = drive_goal_session(
        addr,
        "tiny",
        &Goal::PathRoadType("highway".into()),
        &[("to", "city3")],
    )
    .unwrap();
    assert!(path.consistent);
    // The learned constraint may be any most specific hypothesis extensionally equal to the
    // goal on the candidate paths, so the convergence check is semantic: its answer set (EVAL)
    // matches a local re-evaluation of the goal over the same (deterministic) candidates.
    let corpus = build_corpus("tiny").unwrap();
    let from = corpus.graph.find_node_by_property("name", "city0").unwrap();
    let to = corpus.graph.find_node_by_property("name", "city3").unwrap();
    let goal_accepted = qbe_core::graph::simple_paths(&corpus.graph, from, to, 6)
        .iter()
        .filter(|p| {
            qbe_core::graph::interactive::PathFeatures::of(&corpus.graph, p)
                .uniform_types
                .contains("highway")
        })
        .count();
    assert_eq!(
        path.answer_set_size, goal_accepted,
        "path EVAL matches the goal's answer set ({})",
        path.hypothesis
    );

    let join = drive_goal_session(addr, "tiny", &Goal::Join, &[]).unwrap();
    assert!(join.consistent);
    let goal_pairs = qbe_core::relational::interactive::selected_pairs(
        &corpus.left,
        &corpus.right,
        &corpus.demo_join_goal,
    );
    assert_eq!(
        join.answer_set_size,
        goal_pairs.len(),
        "join EVAL matches the goal's answer set ({})",
        join.hypothesis
    );

    let mut client = Client::connect(addr).unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(metric(&metrics, "sessions"), "3");
    assert_eq!(metric(&metrics, "ok"), "3");

    handle.shutdown();
}

#[test]
fn graph_sessions_converge_for_every_query_class_over_the_wire() {
    use qbe_core::graph::QueryClass;
    use qbe_server::client::demo_graph_goal_pairs;

    let handle = test_server();
    let addr = handle.addr();

    // The ISSUE's acceptance criterion for the serving layer of the algebra work: 2RPQ and
    // conjunctive (CRPQ) sessions — plus plain RPQ — converge end-to-end through protocol
    // v1.2, with the client acting as its own oracle over the locally rebuilt typed view.
    let corpus = qbe_server::local_corpus("tiny").expect("tiny is a known corpus");
    for class in QueryClass::ALL {
        let goal = demo_graph_goal_pairs(&corpus, class);
        assert!(
            !goal.is_empty(),
            "{}: demo goal selects pairs",
            class.wire_name()
        );
        let outcome = drive_goal_session(addr, "tiny", &Goal::GraphPairs(class), &[("seed", "7")])
            .unwrap_or_else(|e| panic!("{}: session runs to completion: {e}", class.wire_name()));
        assert!(
            outcome.consistent,
            "{}: labels stayed consistent",
            class.wire_name()
        );
        assert!(outcome.questions > 0, "{}", class.wire_name());
        assert_eq!(
            outcome.answer_set_size,
            goal.len(),
            "{}: EVAL matches the goal's answer set ({})",
            class.wire_name(),
            outcome.hypothesis
        );
        assert!(
            !outcome.hypothesis.is_empty(),
            "{}: a hypothesis is rendered",
            class.wire_name()
        );
    }

    // The 2RPQ demo goal is genuinely two-way: it uses an inverse label, which only the
    // typed view + reverse-successor bitsets can answer.
    let two_way = demo_graph_goal_pairs(&corpus, QueryClass::TwoRpq);
    assert!(
        two_way.iter().any(|(s, t)| s == t),
        "ℓ·ℓ⁻ admits round trips back to the source"
    );

    let mut client = Client::connect(addr).unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(metric(&metrics, "sessions"), "3");
    assert_eq!(metric(&metrics, "ok"), "3");

    handle.shutdown();
}

#[test]
fn hello_advertises_strategy_capabilities() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let hello = client.hello().unwrap();
    assert!(hello.contains("proto=1.3"), "{hello}");
    assert!(hello.contains("models=twig,path,join,graph"), "{hello}");
    assert!(hello.contains("classes=rpq,2rpq,crpq"), "{hello}");
    for name in qbe_core::STRATEGY_NAMES {
        assert!(hello.contains(name), "{hello} misses strategy {name}");
    }
    assert!(
        hello.contains("options=strategy,budget,seed,class"),
        "{hello}"
    );
    handle.shutdown();
}

#[test]
fn generic_strategies_and_budgets_work_over_the_wire() {
    let handle = test_server();
    let addr = handle.addr();

    // Every shipped model-agnostic strategy converges on every model, selected by wire name
    // (uppercase option keys are accepted, as the v1.1 protocol documents).
    for strategy in qbe_core::STRATEGY_NAMES {
        let twig = drive_goal_session(
            addr,
            "tiny",
            &Goal::Twig("//person/name".into()),
            &[("STRATEGY", strategy), ("seed", "7")],
        )
        .unwrap();
        assert!(twig.consistent, "{strategy}");
        assert!(
            twig.hypothesis.contains("person"),
            "{strategy}: {}",
            twig.hypothesis
        );
        let join = drive_goal_session(
            addr,
            "tiny",
            &Goal::Join,
            &[("strategy", strategy), ("seed", "3")],
        )
        .unwrap();
        assert!(join.consistent, "{strategy}");
        let path = drive_goal_session(
            addr,
            "tiny",
            &Goal::PathRoadType("highway".into()),
            &[("strategy", strategy), ("to", "city3")],
        )
        .unwrap();
        assert!(path.consistent, "{strategy}");
    }

    // A tight budget caps the questions: the session completes early with its current
    // hypothesis instead of labelling to convergence.
    let unbudgeted =
        drive_goal_session(addr, "tiny", &Goal::Twig("//person/name".into()), &[]).unwrap();
    assert!(unbudgeted.questions > 3);
    let mut client = Client::connect(addr).unwrap();
    client.corpus("tiny").unwrap();
    // Control: without a budget, one positive answer leaves further questions pending.
    client.start(Model::Twig, &[]).unwrap();
    match client.ask().unwrap() {
        qbe_server::AskReply::Question(_) => client.answer(true).unwrap(),
        done => panic!("expected a first question, got {done:?}"),
    }
    assert!(
        matches!(client.ask().unwrap(), qbe_server::AskReply::Question(_)),
        "an unbudgeted session keeps asking"
    );
    // Same session with budget=1 (uppercase option keys are accepted): after the one
    // affordable answer the server reports completion, and the positive label collected
    // within the budget still yields a hypothesis.
    client.start(Model::Twig, &[("BUDGET", "1")]).unwrap();
    match client.ask().unwrap() {
        qbe_server::AskReply::Question(_) => client.answer(true).unwrap(),
        done => panic!("expected a first question, got {done:?}"),
    }
    match client.ask().unwrap() {
        qbe_server::AskReply::Done {
            questions,
            consistent,
        } => {
            assert_eq!(questions, 1, "the session stopped at its budget");
            assert!(consistent);
        }
        question => panic!("budget spent, expected Done, got {question:?}"),
    }
    client.query().unwrap();
    client.quit().unwrap();

    // Unknown strategy names are rejected with the full vocabulary.
    let mut client = Client::connect(addr).unwrap();
    client.corpus("tiny").unwrap();
    match client.start(Model::Twig, &[("strategy", "psychic")]) {
        Err(qbe_server::ClientError::Server(msg)) => {
            assert!(msg.contains("label-affinity"), "{msg}");
            assert!(msg.contains("max-coverage"), "{msg}");
        }
        other => panic!("expected a strategy rejection, got {other:?}"),
    }

    handle.shutdown();
}

#[test]
fn goal_driven_clients_rebuild_each_corpus_once_per_process() {
    let handle = test_server();
    let addr = handle.addr();

    // Two goal-driven sessions over the same corpus: the second must hit the client-side
    // cache, not rebuild.
    drive_goal_session(addr, "tiny", &Goal::Twig("//person/name".into()), &[]).unwrap();
    drive_goal_session(addr, "tiny", &Goal::Twig("//item/name".into()), &[]).unwrap();
    let a = qbe_server::local_corpus("tiny").expect("tiny is a known corpus");
    let b = qbe_server::local_corpus("tiny").expect("tiny is a known corpus");
    assert!(
        std::sync::Arc::ptr_eq(&a, &b),
        "later requests share the cached corpus"
    );
    // The store never evicts, so each name is built at most once per process — even though
    // other loopback tests in this binary drive sessions concurrently.
    assert!(
        qbe_server::local_corpora().built() <= qbe_server::CORPUS_NAMES.len(),
        "at most one client-side build per corpus name"
    );
    assert!(qbe_server::local_corpus("gigantic").is_none());

    handle.shutdown();
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Commands out of order or malformed: every one gets a -ERR, the connection survives.
    assert!(client.ask().is_err(), "ASK before START");
    assert!(
        client.start(Model::Twig, &[]).is_err(),
        "START before CORPUS"
    );
    assert!(client.corpus("nonexistent").is_err(), "unknown corpus");
    client.corpus("tiny").unwrap();
    assert!(
        client
            .start(Model::Twig, &[("strategy", "psychic")])
            .is_err(),
        "unknown strategy"
    );
    // An oversized path enumeration is refused up front instead of pinning a worker.
    let started = std::time::Instant::now();
    assert!(
        client.start(Model::Path, &[("max_edges", "40")]).is_err(),
        "max_edges above the cap"
    );
    assert!(started.elapsed() < Duration::from_secs(1));
    let session = client.start(Model::Twig, &[]).unwrap();
    assert!(session > 0);
    assert!(client.answer(true).is_err(), "ANSWER without pending ASK");
    assert!(
        client.query().is_err(),
        "QUERY with no positive example yet"
    );
    assert_eq!(client.eval().unwrap(), 0, "EVAL of the empty hypothesis");
    client.quit().unwrap();

    handle.shutdown();
}

#[test]
fn capacity_gate_rejects_excess_connections() {
    let handle = spawn(ServerConfig {
        max_connections: 1,
        ..Default::default()
    })
    .unwrap();

    let first = Client::connect(handle.addr()).expect("first connection admitted");
    // A second concurrent connection is greeted with the capacity error.
    match Client::connect(handle.addr()) {
        Err(qbe_server::ClientError::Server(msg)) => {
            assert!(msg.contains("capacity"), "{msg}");
        }
        Err(other) => panic!("expected a capacity rejection, got {other}"),
        Ok(_) => panic!("expected a capacity rejection, connection was admitted"),
    }
    drop(first);
    // Once the first connection drains, a new one is admitted again.
    for _ in 0..50 {
        if handle.active_connections() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut again = Client::connect(handle.addr()).expect("slot freed after disconnect");
    again.hello().unwrap();

    handle.shutdown();
}

/// The goal-driven driver makes exactly one attempt: with the only slot taken, it returns
/// the capacity rejection instead of retrying, and the server counts one rejection.
#[test]
fn goal_driver_gives_up_after_one_capacity_rejection() {
    let handle = spawn(ServerConfig {
        max_connections: 1,
        ..Default::default()
    })
    .unwrap();
    let mut holder = Client::connect(handle.addr()).expect("the only slot is taken");

    let goal = Goal::Twig("//person/name".to_string());
    let err = drive_goal_session(handle.addr(), "tiny", &goal, &[]).expect_err("no free slot");
    assert!(
        matches!(&err, qbe_server::ClientError::Server(msg) if msg.contains("capacity")),
        "got {err}"
    );
    let metrics = holder.metrics().expect("the holder is still served");
    assert_eq!(
        metric(&metrics, "rejected"),
        "1",
        "one attempt, one rejection"
    );

    handle.shutdown();
}

#[test]
fn oversized_lines_close_the_connection_with_an_error() {
    let handle = test_server();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Greeting.
    assert!(read_line_bounded(&mut reader, 4096)
        .unwrap()
        .starts_with("+OK"));
    // A 2 KiB "command": twice the cap, but small enough that the server's reader consumes
    // the whole line before replying and closing (a larger flood would leave unread bytes in
    // the server's receive buffer, turning the close into an RST that can discard the error
    // reply in flight — the byte cap itself is covered by the unit tests either way).
    let mut flood = vec![b'A'; 2 * 1024];
    flood.push(b'\n');
    stream.write_all(&flood).unwrap();
    let reply = read_line_bounded(&mut reader, 4096).unwrap();
    assert!(reply.starts_with("-ERR line exceeds"), "{reply}");
    // The server closes after the error.
    let mut rest = Vec::new();
    let closed = reader.read_to_end(&mut rest);
    assert!(closed.is_ok() || closed.is_err()); // either clean EOF or reset: no hang
    handle.shutdown();
}

#[test]
fn idle_connections_are_timed_out() {
    let handle = spawn(ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..Default::default()
    })
    .unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    assert!(read_line_bounded(&mut reader, 4096)
        .unwrap()
        .starts_with("+OK"));
    // Send nothing: the server must close with an idle-timeout error, not hang.
    let reply = read_line_bounded(&mut reader, 4096).unwrap();
    assert!(reply.contains("idle timeout"), "{reply}");
    handle.shutdown();
}

#[test]
fn abandoned_sessions_count_as_failures_in_metrics() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.corpus("tiny").unwrap();
    client.start(Model::Join, &[]).unwrap();
    // Answer one question, then walk away.
    match client.ask().unwrap() {
        qbe_server::AskReply::Question(_) => client.answer(true).unwrap(),
        done => panic!("expected a question, got {done:?}"),
    }
    client.quit().unwrap();

    let mut probe = Client::connect(handle.addr()).unwrap();
    let metrics = probe.metrics().unwrap();
    assert_eq!(metric(&metrics, "sessions"), "1");
    assert_eq!(
        metric(&metrics, "ok"),
        "0",
        "an abandoned session is not a success"
    );
    handle.shutdown();
}

#[test]
fn ask_repeats_the_pending_question_until_answered() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.corpus("tiny").unwrap();
    client.start(Model::Twig, &[]).unwrap();
    let q1 = client.ask().unwrap();
    let q2 = client.ask().unwrap();
    assert_eq!(q1, q2, "unanswered questions are stable");
    handle.shutdown();
}

#[test]
fn shutdown_quiesces_with_live_connections() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.corpus("tiny").unwrap();
    client.start(Model::Twig, &[]).unwrap();
    // Shut down while the client still holds its connection and an open session.
    handle.shutdown();
    // The client's next request fails (connection reset/EOF/shutdown notice) instead of
    // hanging forever.
    assert!(client.hello().is_err());
}

#[test]
fn concurrent_corpus_requests_build_once() {
    let handle = test_server();
    let addr = handle.addr();
    // Eight connections race the first CORPUS request for the same (not yet built) corpus.
    // Exactly one build may run; everyone gets a +OK with identical summaries.
    let summaries: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.corpus("small").expect("CORPUS small succeeds")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for summary in &summaries[1..] {
        assert_eq!(summary, &summaries[0], "all callers see the same corpus");
    }
    let mut probe = Client::connect(addr).unwrap();
    let metrics = probe.metrics().unwrap();
    assert_eq!(
        metric(&metrics, "corpora_built"),
        "1",
        "the race built the corpus exactly once"
    );
    handle.shutdown();
}

#[test]
fn resume_reattaches_a_session_across_connections() {
    let handle = test_server();
    let addr = handle.addr();

    let mut first = Client::connect(addr).unwrap();
    first.corpus("tiny").unwrap();
    let id = first.start(Model::Twig, &[("seed", "7")]).unwrap();
    let q1 = first.ask().unwrap();
    drop(first); // connection drops without QUIT — the session is closed by teardown

    // A dropped connection closes its session: RESUME must refuse it. The server processes
    // the hangup asynchronously, so poll until the close lands.
    let mut second = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while second.resume(id).is_ok() {
        assert!(
            std::time::Instant::now() < deadline,
            "session {id} never closed after its connection dropped"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // A *live* session on another connection is; the pending question is unchanged.
    let mut owner = Client::connect(addr).unwrap();
    owner.corpus("tiny").unwrap();
    let id2 = owner.start(Model::Twig, &[("seed", "7")]).unwrap();
    let q2 = owner.ask().unwrap();
    assert_eq!(q1, q2, "same seed, same first question");
    let mut taker = Client::connect(addr).unwrap();
    let model = taker.resume(id2).expect("live session resumes");
    assert_eq!(model, "twig");
    assert_eq!(
        taker.ask().unwrap(),
        q2,
        "pending question survives the handoff"
    );
    handle.shutdown();
}

#[test]
fn snapshot_booted_and_freshly_built_corpora_serve_identical_sessions() {
    use qbe_core::graph::QueryClass;
    use qbe_server::corpus::{corpus_to_snapshot, snapshot_path};

    // A data directory holding a `tiny` snapshot written before the server starts, as a
    // previous process would have left it.
    let dir = std::env::temp_dir().join(format!("qbe-loopback-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = snapshot_path(&dir, "tiny");
    let bytes = corpus_to_snapshot(&build_corpus("tiny").unwrap()).encode();
    qbe_core::store::snapshot::write_atomic(&path, &bytes).unwrap();

    let from_snapshot = spawn(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("binding 127.0.0.1:0 succeeds");
    let built = test_server();

    let goals: [(Goal, &[(&str, &str)]); 7] = [
        (Goal::Twig("//person/name".into()), &[("seed", "7")]),
        (Goal::Twig("//item/name".into()), &[]),
        (Goal::PathRoadType("highway".into()), &[("to", "city3")]),
        (Goal::Join, &[]),
        (Goal::GraphPairs(QueryClass::Rpq), &[("seed", "7")]),
        (Goal::GraphPairs(QueryClass::TwoRpq), &[("seed", "7")]),
        (Goal::GraphPairs(QueryClass::Crpq), &[("seed", "7")]),
    ];
    for (goal, params) in &goals {
        let loaded = drive_goal_session(from_snapshot.addr(), "tiny", goal, params).unwrap();
        let fresh = drive_goal_session(built.addr(), "tiny", goal, params).unwrap();
        assert!(loaded.consistent && fresh.consistent, "{goal:?}");
        assert_eq!(loaded.questions, fresh.questions, "{goal:?}");
        assert_eq!(loaded.hypothesis, fresh.hypothesis, "{goal:?}");
        assert_eq!(loaded.answer_set_size, fresh.answer_set_size, "{goal:?}");
    }
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "the server opened the snapshot instead of rewriting it"
    );

    from_snapshot.shutdown();
    built.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
