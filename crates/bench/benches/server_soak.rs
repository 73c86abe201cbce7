//! Soak benchmark for the serving layer: the 10k-connection crowd the event-driven engine
//! exists for.
//!
//! The server runs as a *subprocess* (each side of the loopback then owns its half of the
//! fds, so 10k+ concurrent connections fit inside commodity `RLIMIT_NOFILE` limits), 10k+
//! connections each open a live learning session and go idle, and request-round latency is
//! sampled through the crowd before and after. The p50/p95 round latencies are printed side
//! by side — the acceptance criterion is that p95 stays flat (idle readiness costs nothing per
//! event-loop turn), and a full learning session still converges through the 10k-session
//! crowd.
//!
//! Run with `cargo bench -p qbe-bench --bench server_soak` (`-- --smoke` for 256 sessions).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use qbe_core::percentile_sorted;
use qbe_server::client::{drive_goal_session, Goal};

/// Spawn the service binary on an ephemeral port and parse the bound address from its
/// banner. Subprocess, not in-process: the bench process needs its fd budget for the client
/// side of 10k+ connections.
fn spawn_server_subprocess(max_connections: usize) -> (std::process::Child, SocketAddr) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_qbe-server"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--max-connections",
            &max_connections.to_string(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("qbe-server subprocess starts");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("server banner");
    // "qbe-server listening on 127.0.0.1:PORT (models …)"
    let addr = banner
        .split_whitespace()
        .find_map(|tok| tok.parse::<SocketAddr>().ok())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"));
    (child, addr)
}

/// A one-fd protocol connection: `Client` duplicates its stream (two fds per connection),
/// which would halve how many crowd members fit in the process's `RLIMIT_NOFILE`.
struct LeanConn {
    reader: BufReader<TcpStream>,
    line: String,
}

impl LeanConn {
    fn connect(addr: SocketAddr) -> std::io::Result<LeanConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut conn = LeanConn {
            reader: BufReader::new(stream),
            line: String::new(),
        };
        let greeting = conn.read_line()?;
        if !greeting.starts_with("+OK") {
            return Err(std::io::Error::other(greeting));
        }
        Ok(conn)
    }

    fn read_line(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        Ok(self.line.trim_end())
    }

    fn roundtrip(&mut self, request: &str) -> std::io::Result<&str> {
        let mut sock = self.reader.get_ref();
        sock.write_all(request.as_bytes())?;
        sock.write_all(b"\n")?;
        self.read_line()
    }

    fn expect_ok(&mut self, request: &str) {
        let reply = self.roundtrip(request).expect("reply");
        assert!(reply.starts_with("+OK"), "{request}: {reply}");
    }
}

/// `samples` HELLO round trips on one fresh connection, in microseconds and sorted: the
/// serving layer's full request-round path (readiness loop → worker pool → reply flush),
/// independent of learner semantics.
fn sample_round_latency_us(addr: SocketAddr, samples: usize) -> Vec<usize> {
    let mut conn = LeanConn::connect(addr).expect("latency probe connects");
    let mut micros: Vec<usize> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            conn.expect_ok("HELLO");
            start.elapsed().as_micros() as usize
        })
        .collect();
    micros.sort_unstable();
    micros
}

fn main() {
    // Full size: 10,000 concurrent sessions. Smoke: enough connections to exceed any
    // thread-per-connection comfort zone while staying CI-fast.
    let target: usize = qbe_bench::param(10_000, 256);
    // Stay within this process's fd budget: the client side holds one fd per connection plus
    // the binary's own overhead (the server side lives in the subprocess's own fd table).
    let budget = qbe_server::poll::raise_fd_limit(target as u64 + 512);
    let conns = target.min(budget.saturating_sub(512) as usize);
    if conns < target {
        println!(
            "server/soak: RLIMIT_NOFILE {budget} caps the soak at {conns} connections \
             (wanted {target})"
        );
    }
    let (mut child, addr) = spawn_server_subprocess(conns + 64);

    let samples = qbe_bench::param(300, 50);
    let baseline = sample_round_latency_us(addr, samples);

    // Open the crowd: every connection CORPUSes and STARTs a twig session, then goes idle —
    // live sessions in the registry, live sockets in the readiness loop.
    let threads = qbe_bench::param(16usize, 8);
    let opened = Instant::now();
    let crowd: Vec<LeanConn> = std::thread::scope(|scope| {
        let per = conns.div_ceil(threads);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let quota = per.min(conns.saturating_sub(t * per));
                    (0..quota)
                        .map(|i| {
                            let mut conn = LeanConn::connect(addr)
                                .unwrap_or_else(|e| panic!("conn {t}/{i}: {e}"));
                            conn.expect_ok("CORPUS tiny");
                            conn.expect_ok(&format!("START twig seed={t}{i}"));
                            conn
                        })
                        .collect::<Vec<LeanConn>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let opened_in = opened.elapsed();
    assert_eq!(crowd.len(), conns);

    // The acceptance measurement: round latency through the full crowd.
    let loaded = sample_round_latency_us(addr, samples);
    // And a complete learning session still converges through it.
    let outcome = drive_goal_session(
        addr,
        "tiny",
        &Goal::Twig("//person/name".to_string()),
        &[("seed", "7")],
    )
    .expect("session converges through the crowd");
    assert!(outcome.consistent);

    let p = |v: &[usize], q: f64| percentile_sorted(v, q).expect("samples taken");
    println!(
        "server/soak: {conns} concurrent sessions (opened in {opened_in:.1?}); round latency \
         idle p50 {}µs p95 {}µs → loaded p50 {}µs p95 {}µs",
        p(&baseline, 50.0),
        p(&baseline, 95.0),
        p(&loaded, 50.0),
        p(&loaded, 95.0),
    );
    // "Flat" with headroom for CI noise (250 ms): an O(connections) cost per round (the bug
    // class the readiness loop exists to avoid) would blow far past this.
    assert!(
        p(&loaded, 95.0) < 250_000,
        "p95 round latency {}µs through {conns} sessions is not flat",
        p(&loaded, 95.0)
    );

    drop(crowd);
    let _ = child.kill();
    let _ = child.wait();
}
