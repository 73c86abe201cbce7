//! Loopback tests of the event-driven engine: its defensive behaviours (slow-loris
//! deadlines, capacity bursts, rate limiting, load shedding, idle scale), plus a golden
//! transcript pinning its protocol replies byte for byte.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use qbe_server::client::{drive_goal_session, Client, Goal};
use qbe_server::server::{read_line_bounded, spawn, ServerConfig};
use qbe_server::RateLimit;

/// A raw line-protocol client: no retries, no interpretation, just request → reply strings.
struct Raw {
    reader: std::io::BufReader<TcpStream>,
}

impl Raw {
    fn connect(addr: SocketAddr) -> (Raw, String) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut raw = Raw {
            reader: std::io::BufReader::new(stream),
        };
        let greeting = raw.read_line();
        (raw, greeting)
    }

    fn read_line(&mut self) -> String {
        read_line_bounded(&mut self.reader, 4096).expect("a reply line")
    }

    fn roundtrip(&mut self, line: &str) -> String {
        let mut sock = self.reader.get_ref();
        sock.write_all(line.as_bytes()).expect("request written");
        sock.write_all(b"\n").expect("request written");
        self.read_line()
    }
}

fn metric(metrics: &[(String, String)], key: &str) -> u64 {
    qbe_server::protocol::field_value(metrics, key)
        .unwrap_or_else(|| panic!("metrics carry {key}"))
        .parse()
        .unwrap_or_else(|_| panic!("{key} is numeric"))
}

/// The full PROTOCOL.md vocabulary — happy paths, protocol errors, session replacement,
/// metrics — replayed against a fresh server, replies compared verbatim with a committed
/// golden transcript (minus the one wall-clock-dependent field). The replies are literals,
/// so a change to any layer between the socket and the learners — `respond` included —
/// shows up here.
#[test]
fn golden_transcript_replays_byte_for_byte() {
    // Budget 2 pins the twig session's length; seeds pin every question. The transcript
    // exercises HELLO, CORPUS (unknown + known), START (bad strategy + twig + replacement by
    // join), ASK/ANSWER (including ANSWER with nothing pending), QUERY (too early + after
    // convergence), EVAL, METRICS, QUIT, and a malformed command.
    const GOLDEN: &[(&str, &str)] = &[
        ("<greeting>", "+OK qbe-server ready"),
        (
            "HELLO",
            "+OK qbe-server proto=1.3 models=twig,path,join,graph classes=rpq,2rpq,crpq \
             corpora=tiny,small,medium strategies=paper-order,random,max-coverage,cheapest-first \
             options=strategy,budget,seed,class",
        ),
        ("BOGUS bogus", "-ERR unknown command \"BOGUS\""),
        ("ASK", "-ERR no open session (use START)"),
        (
            "CORPUS nope",
            "-ERR unknown corpus \"nope\" (known: tiny,small,medium)",
        ),
        (
            "CORPUS tiny",
            "+OK corpus name=tiny docs=1 xml_nodes=271 graph_nodes=10 tuples=12x12",
        ),
        (
            "START twig strategy=psychic",
            "-ERR unknown strategy, expected one of: document-order|shallow-first|label-affinity|\
             paper-order|random|max-coverage|cheapest-first",
        ),
        ("START twig seed=7 budget=2", "+OK session id=1 model=twig"),
        ("QUERY", "-ERR no hypothesis yet (no positive example)"),
        ("ANSWER yes", "-ERR no question is pending; call propose"),
        ("ASK", "+ASK doc=0 node=0 label=site path=/site"),
        ("ANSWER yes", "+OK recorded"),
        (
            "ASK",
            "+ASK doc=0 node=258 label=closed_auctions path=/site/closed_auctions",
        ),
        ("ANSWER no", "+OK recorded"),
        ("ASK", "+DONE questions=2 consistent=true"),
        (
            "QUERY",
            "+QUERY /site[categories][catgraph][closed_auctions][open_auctions][people][regions]\
             [.//africa][.//asia][.//australia][.//category][.//closed_auction][.//europe]\
             [.//namerica][.//open_auction][.//person][.//samerica]",
        ),
        ("EVAL", "+EVAL 1"),
        ("START join seed=3", "+OK session id=2 model=join"),
        (
            "ASK",
            "+ASK left=5 right=1 left_tuple=(5,5,3) right_tuple=(6,5,5)",
        ),
        (
            "METRICS",
            "+METRICS sessions=1 ok=1 active=1 total_questions=2 p50_questions=2 \
             p95_questions=2 mean_questions=2.00 rejected=0 timeouts=0 shed=0 persisted=0 \
             recovered=0 corpora_built=1 retries=0 reasks=0 faults_injected=0 panics=0",
        ),
        ("QUIT", "+OK bye"),
    ];

    /// Drop the wall-clock field: it is the one legitimately nondeterministic value.
    fn normalized(reply: &str) -> String {
        reply
            .split(' ')
            .filter(|f| !f.starts_with("throughput_per_s="))
            .collect::<Vec<_>>()
            .join(" ")
    }

    let handle = spawn(ServerConfig::default()).unwrap();
    let (mut raw, greeting) = Raw::connect(handle.addr());
    assert_eq!(greeting, GOLDEN[0].1, "greeting");
    for &(request, expected) in &GOLDEN[1..] {
        assert_eq!(
            normalized(&raw.roundtrip(request)),
            expected,
            "reply to {request:?}"
        );
    }
    drop(raw);
    handle.shutdown();
}

/// The slow-loris regression: a client trickling bytes faster than the *per-read* timeout
/// but never completing a line is disconnected at the total per-line deadline, and the close
/// is visible in the `timeouts` counter.
#[test]
fn trickling_clients_are_disconnected_at_the_deadline() {
    let handle = spawn(ServerConfig {
        read_timeout: Duration::from_millis(400),
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    assert!(read_line_bounded(&mut reader, 4096)
        .unwrap()
        .starts_with("+OK"));

    // Trickle one byte every 80 ms — well inside any per-read timeout of 400 ms, so only a
    // *total* deadline can end this connection.
    let start = Instant::now();
    let trickler = std::thread::spawn(move || {
        let mut sock = stream;
        for _ in 0..50 {
            if sock.write_all(b"x").is_err() {
                break; // server closed us: exactly what the test wants
            }
            std::thread::sleep(Duration::from_millis(80));
        }
    });

    // The server must end the connection (error line, then EOF) around the deadline.
    let reply = read_line_bounded(&mut reader, 4096).unwrap();
    let elapsed = start.elapsed();
    assert!(
        reply.contains("idle timeout"),
        "expected the timeout notice, got {reply:?}"
    );
    assert!(
        elapsed >= Duration::from_millis(350),
        "closed before the deadline: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "the trickle extended the deadline: {elapsed:?}"
    );
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest); // EOF or reset — never a hang
    trickler.join().unwrap();

    let mut probe = Client::connect(addr).unwrap();
    let metrics = probe.metrics().unwrap();
    assert_eq!(
        metric(&metrics, "timeouts"),
        1,
        "the disconnect is visible in METRICS"
    );
    drop(probe);
    handle.shutdown();
}

/// The accept-path regression: a burst of connections past capacity — none of which ever
/// reads its rejection — must neither stall later accepts nor leak slots, and the rejections
/// are counted.
#[test]
fn capacity_bursts_do_not_delay_accepts_and_are_counted() {
    let handle = spawn(ServerConfig {
        max_connections: 1,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    let occupant = Client::connect(addr).expect("first connection admitted");
    // Burst: 8 connections that never read a byte. With a blocking rejection write this could
    // cost up to 8 × write_timeout of accept stall; it must be instant.
    let start = Instant::now();
    let burst: Vec<TcpStream> = (0..8)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    // The server has processed the whole burst once a later connection gets its rejection
    // line: TCP accept order is FIFO.
    let (mut probe_raw, greeting) = Raw::connect(addr);
    assert!(
        greeting.contains("capacity"),
        "over capacity, got {greeting:?}"
    );
    let burst_elapsed = start.elapsed();
    assert!(
        burst_elapsed < Duration::from_secs(5),
        "the burst stalled accepts for {burst_elapsed:?}"
    );
    let mut rest = Vec::new();
    let _ = probe_raw.reader.read_to_end(&mut rest);
    drop(probe_raw);
    drop(burst);

    // Free the slot; the next client is admitted promptly.
    drop(occupant);
    let freed = Instant::now();
    let mut again = loop {
        match Client::connect(addr) {
            Ok(client) => break client,
            Err(_) => {
                assert!(
                    freed.elapsed() < Duration::from_secs(5),
                    "slot never freed after disconnect"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    let metrics = again.metrics().unwrap();
    assert!(
        metric(&metrics, "rejected") >= 9,
        "8 burst + 1 probe rejections recorded, got {}",
        metric(&metrics, "rejected")
    );
    drop(again);
    handle.shutdown();
}

/// Token-bucket rate limiting: `ASK` costs a token, `ANSWER` never does,
/// an empty bucket sheds with a retryable error, and elapsed time refills it.
#[test]
fn rate_limit_sheds_excess_asks_but_answers_always_pass() {
    let handle = spawn(ServerConfig {
        rate_limit: Some(RateLimit {
            burst: 1,
            per_sec: 5.0,
        }),
        ..Default::default()
    })
    .unwrap();
    let (mut raw, _) = Raw::connect(handle.addr());
    assert!(raw.roundtrip("CORPUS tiny").starts_with("+OK"));
    assert!(raw.roundtrip("START twig seed=7").starts_with("+OK"));

    // The single burst token pays for the first ASK…
    assert!(raw.roundtrip("ASK").starts_with("+ASK"));
    // …the immediate second ASK is shed (refill at 5/s cannot have produced a token in
    // microseconds)…
    let shed = raw.roundtrip("ASK");
    assert!(shed.contains("rate limit"), "{shed}");
    // …but ANSWER is never rate limited: the client can always finish what it started.
    assert!(raw.roundtrip("ANSWER yes").starts_with("+OK"));
    // A refill interval later, ASK works again.
    std::thread::sleep(Duration::from_millis(250));
    assert!(raw.roundtrip("ASK").starts_with("+ASK"));

    let metrics_line = raw.roundtrip("METRICS");
    assert!(metrics_line.contains("shed=1"), "{metrics_line}");
    assert!(raw.roundtrip("QUIT").starts_with("+OK"));
    drop(raw);
    handle.shutdown();
}

/// Load shedding under a saturated worker queue: with the shed threshold at zero, every
/// sheddable request is refused with a retryable error while setup and teardown commands
/// still run — the session winds down cleanly even under (simulated) total overload.
#[test]
fn saturated_queues_shed_ask_and_eval_but_not_answer_and_quit() {
    let handle = spawn(ServerConfig {
        shed_queue_depth: 0,
        ..Default::default()
    })
    .unwrap();
    let (mut raw, _) = Raw::connect(handle.addr());
    assert!(raw.roundtrip("CORPUS tiny").starts_with("+OK"));
    assert!(raw.roundtrip("START twig").starts_with("+OK"));
    let ask = raw.roundtrip("ASK");
    assert!(ask.contains("overloaded"), "{ask}");
    let eval = raw.roundtrip("EVAL");
    assert!(eval.contains("overloaded"), "{eval}");
    let metrics_line = raw.roundtrip("METRICS");
    assert!(metrics_line.contains("shed=2"), "{metrics_line}");
    assert!(raw.roundtrip("QUIT").starts_with("+OK bye"));
    drop(raw);
    handle.shutdown();
}

/// Scale smoke: hundreds of idle connections (thousands via `QBE_SOAK_CONNS`) held open cost
/// nothing — a learning session still converges at full speed alongside them, and closing
/// them all drains the admission count back to zero.
#[test]
fn idle_connection_soak_leaves_sessions_fast() {
    let conns: usize = std::env::var("QBE_SOAK_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512);
    let handle = spawn(ServerConfig {
        max_connections: conns + 16,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    let idle: Vec<Raw> = (0..conns)
        .map(|i| {
            let (raw, greeting) = Raw::connect(addr);
            assert!(greeting.starts_with("+OK"), "conn {i}: {greeting}");
            raw
        })
        .collect();
    assert_eq!(handle.active_connections(), conns);

    // A session among the idle thousands converges as if they were not there.
    let start = Instant::now();
    let outcome = drive_goal_session(
        addr,
        "tiny",
        &Goal::Twig("//person/name".into()),
        &[("seed", "7")],
    )
    .expect("session converges among idle connections");
    assert!(outcome.consistent);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "idle connections slowed the session to {:?}",
        start.elapsed()
    );

    // Some idle connections still work after the session traffic.
    for mut raw in idle.into_iter().take(3) {
        assert!(raw.roundtrip("HELLO").starts_with("+OK"));
        drop(raw);
    }
    // (the rest dropped with the vec)
    let drained = Instant::now();
    while handle.active_connections() > 0 {
        assert!(
            drained.elapsed() < Duration::from_secs(10),
            "{} connections never drained",
            handle.active_connections()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}
