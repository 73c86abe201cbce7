//! The TCP service over one [`SessionRegistry`] and one [`CorpusStore`].
//!
//! A nonblocking readiness loop (the private `reactor` module) owns every socket and its
//! buffers, and a small fixed worker pool (the `workers` module) executes session steps, so
//! ten thousand idle connections cost ten thousand fds and *zero* threads, and one slow
//! session step never pins an OS thread per connection.
//!
//! This module holds the protocol core the reactor and workers run: `ProtoState`
//! (per-connection corpus + session), `respond` (one request line → one reply line), and the
//! accept-error classification ([`classify_accept_error`], [`AcceptBackoff`]) that keeps a
//! failing `accept(2)` — EMFILE fd exhaustion, aborted handshakes — from busy-spinning the
//! accept path at 100% CPU. [`read_line_bounded`] is the matching client-side framing.
//!
//! Connection-handling guarantees (each one a regression test in `tests/`):
//!
//! * **total per-line deadline** — a client trickling one byte per `read_timeout − ε` cannot
//!   hold a connection forever: the deadline covers the *whole line*, not one `read` call;
//! * **nonblocking capacity rejection** — the at-capacity `-ERR` is written best-effort on a
//!   nonblocking socket, so a rejected client that never reads cannot stall later accepts;
//! * **bounded framing** — a line longer than [`crate::protocol::MAX_LINE_BYTES`] terminates
//!   the connection with an explanatory `-ERR`;
//! * **graceful shutdown** ([`ServerHandle::shutdown`]) quiesces the server and reports
//!   still-open sessions as abandoned in the metrics.

use std::io::{self, BufRead};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use qbe_core::faults::FaultRegistry;
use qbe_core::graph::{PathStrategy, QueryClass};
use qbe_core::relational::Strategy;
use qbe_core::session::InteractiveLearner;
use qbe_core::store::{WalRecord, WalWriter};
use qbe_core::twig::NodeStrategy;
use qbe_core::{
    GraphQueryInteractive, JoinInteractive, PathInteractive, SessionConfig, TwigInteractive,
    STRATEGY_NAMES,
};

use crate::corpus::{Corpus, CorpusError, CorpusStore, CORPUS_NAMES};
use crate::protocol::{parse_command, render_fields, Command, Model};
use crate::reactor::ReactorHandle;
use crate::registry::SessionRegistry;

/// Per-session token-bucket rate limit: a session may burst `burst` sheddable requests, then
/// is refilled at `per_sec` tokens per second. `ASK`/`EVAL` consume a token each;
/// `ANSWER`/`QUIT` (and the other control commands) always pass, so a throttled client can
/// still finish what it started — shedding happens on the expensive, retryable requests.
#[derive(Debug, Clone, Copy)]
pub struct RateLimit {
    /// Bucket capacity: sheddable requests a session may issue back-to-back.
    pub burst: u32,
    /// Refill rate, tokens per second.
    pub per_sec: f64,
}

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port; see [`ServerHandle::addr`]).
    pub addr: String,
    /// Live-connection cap; connections beyond it are rejected at accept time.
    pub max_connections: usize,
    /// Total deadline for one request line: a connection that has not completed a line this
    /// long after its previous one is closed — trickling bytes does *not* extend it.
    pub read_timeout: Duration,
    /// How long a closing connection's final reply may take to flush: a peer that never
    /// reads its goodbye or error line is dropped after this, so it cannot hold its slot.
    pub write_timeout: Duration,
    /// Worker threads executing session steps.
    pub workers: usize,
    /// Per-session rate limit; `None` disables throttling.
    pub rate_limit: Option<RateLimit>,
    /// Load-shedding threshold: when this many requests are already queued for the worker
    /// pool, `ASK`/`EVAL` are shed with a retryable `-ERR` instead of queueing behind them.
    /// `ANSWER`/`QUIT` always pass.
    pub shed_queue_depth: usize,
    /// Directory for corpus snapshots (and the session WAL when [`persist`](Self::persist)
    /// is on). `None` keeps everything in memory.
    pub data_dir: Option<PathBuf>,
    /// Log session lifecycle events to a WAL under [`data_dir`](Self::data_dir) and recover
    /// live sessions from it on boot. Requires `data_dir`.
    pub persist: bool,
    /// Deterministic fault injection (`None` in production). The registry's sites drive
    /// injected latency ([`FAULT_SITE_LATENCY`]), mid-session connection drops
    /// ([`FAULT_SITE_DROP`]), worker panics ([`FAULT_SITE_PANIC`]) and WAL write/fsync
    /// failures; its fire count is the `faults_injected=` METRICS counter. With a profile
    /// attached — even an empty one — disconnects *detach* sessions instead of closing them,
    /// so injected drops are survivable via `RESUME`.
    pub faults: Option<Arc<FaultRegistry>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().clamp(2, 8))
                .unwrap_or(2),
            rate_limit: None,
            shed_queue_depth: 1024,
            data_dir: None,
            persist: false,
            faults: None,
        }
    }
}

/// Fault site: sleep injected before a request line executes (per-op latency).
/// Configure a `delay_ms` on the site, e.g. `server.latency=0.5:ms=2`.
pub const FAULT_SITE_LATENCY: &str = "server.latency";

/// Fault site: the connection is dropped after an `ASK`/`ANSWER` executes but before its
/// reply is written — the hardest loss for a client to disambiguate, since the answer may
/// or may not have been recorded. The session itself is detached, not closed, so the
/// client can `RESUME` it.
pub const FAULT_SITE_DROP: &str = "server.drop";

/// Fault site: the worker panics before executing an `ASK`/`ANSWER` — a stand-in for a bug in
/// a session step. The request is answered `-ERR internal error`, its connection and session
/// are closed, and the worker goes on serving.
pub const FAULT_SITE_PANIC: &str = "server.panic";

/// `ASK` and `ANSWER`: the mid-session steps the drop and panic fault sites act on.
fn session_step(line: &str) -> bool {
    let verb = line.split_ascii_whitespace().next().unwrap_or("");
    verb.eq_ignore_ascii_case("ASK") || verb.eq_ignore_ascii_case("ANSWER")
}

/// Everything the protocol core needs to answer a request line, shared by the reactor and
/// every worker thread.
pub(crate) struct Service {
    pub(crate) registry: SessionRegistry,
    pub(crate) store: CorpusStore,
    /// The session WAL, present only with `--persist`. Appends happen on worker threads
    /// (never the reactor thread) and are fsync-batched inside the writer.
    wal: Option<Mutex<WalWriter>>,
    /// Set on graceful shutdown: stop writing `Close` records, so sessions open at shutdown
    /// stay resumable after the next boot (only client `QUIT`s and disconnects close durably).
    preserve: AtomicBool,
    /// Deterministic fault injection (from [`ServerConfig::faults`]); `None` in production.
    faults: Option<Arc<FaultRegistry>>,
}

impl Service {
    pub(crate) fn new() -> Service {
        Service {
            registry: SessionRegistry::new(),
            store: CorpusStore::new(),
            wal: None,
            preserve: AtomicBool::new(false),
            faults: None,
        }
    }

    /// Build the service a [`ServerConfig`] asks for: snapshot-backed corpora when
    /// `data_dir` is set, and — with `persist` — WAL recovery of every live session
    /// *before* the listener opens, so the first accepted client can already `RESUME`.
    pub(crate) fn open(config: &ServerConfig) -> io::Result<Service> {
        let store = CorpusStore::with_dir(config.data_dir.clone());
        if !config.persist {
            return Ok(Service {
                store,
                faults: config.faults.clone(),
                ..Service::new()
            });
        }
        let dir = config.data_dir.as_ref().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "--persist requires --data-dir")
        })?;
        std::fs::create_dir_all(dir)?;
        let wal_path = dir.join("sessions.qbew");
        let (records, mut writer) = qbe_core::store::wal::recover(&wal_path).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("cannot recover WAL {}: {e}", wal_path.display()),
            )
        })?;
        let registry = SessionRegistry::new();
        let recovered = crate::persist::replay(&records, &store, &registry).map_err(|why| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("cannot replay WAL {}: {why}", wal_path.display()),
            )
        })?;
        registry.set_recovered(recovered);
        if let Some(faults) = &config.faults {
            writer.set_faults(faults.clone());
        }
        Ok(Service {
            registry,
            store,
            wal: Some(Mutex::new(writer)),
            preserve: AtomicBool::new(false),
            faults: config.faults.clone(),
        })
    }

    /// Server-side faults fired so far (the `faults_injected=` METRICS counter).
    pub(crate) fn faults_injected(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.injected())
    }

    /// With a fault profile attached, disconnects *detach* sessions (leave them resumable)
    /// instead of closing them — an injected drop must be survivable via `RESUME`.
    pub(crate) fn detach_on_disconnect(&self) -> bool {
        self.faults.is_some()
    }

    /// Sleep out any injected per-op latency. Called on worker threads only, never the
    /// reactor thread.
    pub(crate) fn inject_latency(&self) {
        if let Some(delay) = self
            .faults
            .as_ref()
            .and_then(|f| f.delay(FAULT_SITE_LATENCY))
        {
            std::thread::sleep(delay);
        }
    }

    /// Decide whether to drop the connection serving `line` after executing it. Only
    /// `ASK`/`ANSWER` are droppable: they are the mid-session operations a resilient client
    /// must survive losing (and `ANSWER` is the ambiguous one — did it land?).
    pub(crate) fn injected_drop(&self, line: &str) -> bool {
        let Some(faults) = &self.faults else {
            return false;
        };
        session_step(line) && faults.fire(FAULT_SITE_DROP)
    }

    /// Panic if the panic site fires for `line` (only `ASK`/`ANSWER` are checked). Called on
    /// worker threads, inside the unwind guard around [`respond`].
    pub(crate) fn inject_panic(&self, line: &str) {
        if let Some(faults) = &self.faults {
            if session_step(line) && faults.fire(FAULT_SITE_PANIC) {
                panic!("injected fault at {FAULT_SITE_PANIC}");
            }
        }
    }

    /// Stop recording `Close` records: sessions still open are being preserved across a
    /// graceful shutdown, not abandoned by their clients.
    pub(crate) fn preserve_sessions(&self) {
        self.preserve.store(true, Ordering::SeqCst);
    }

    fn append(&self, record: &WalRecord) {
        let Some(wal) = &self.wal else { return };
        let result = wal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(record);
        match result {
            Ok(()) => self.registry.note_persisted(),
            // Serving continues: durability degrades, correctness of the live session
            // doesn't. The operator sees it on stderr and in a persisted= counter that
            // stops advancing.
            Err(e) => eprintln!("qbe-server: warning: WAL append failed: {e}"),
        }
    }

    pub(crate) fn log_start(
        &self,
        id: u64,
        corpus: &str,
        model: &str,
        params: &[(String, String)],
    ) {
        self.append(&WalRecord::Start {
            session: id,
            corpus: corpus.to_string(),
            model: model.to_string(),
            params: params.to_vec(),
        });
    }

    pub(crate) fn log_answer(&self, id: u64, positive: bool) {
        self.append(&WalRecord::Answer {
            session: id,
            positive,
        });
    }

    pub(crate) fn log_close(&self, id: u64) {
        if self.preserve.load(Ordering::SeqCst) {
            return;
        }
        self.append(&WalRecord::Close { session: id });
        // A Close must not ride the fsync batch: whether the session comes back after a
        // restart depends on exactly this record being durable.
        self.flush_wal();
    }

    /// Flush the WAL's pending fsync batch (up to `sync_every − 1` records otherwise riding
    /// on the OS cache). Returns `true` when pending records were made durable. Called on
    /// session close and graceful shutdown.
    pub(crate) fn flush_wal(&self) -> bool {
        let Some(wal) = &self.wal else { return false };
        let mut writer = wal.lock().unwrap_or_else(PoisonError::into_inner);
        if writer.pending() == 0 {
            return false;
        }
        match writer.sync() {
            Ok(()) => true,
            Err(e) => {
                eprintln!("qbe-server: warning: WAL flush failed: {e}");
                false
            }
        }
    }
}

/// A running server; dropping it without calling [`shutdown`](Self::shutdown) leaves it
/// serving until the process exits (what the standalone binary wants).
pub struct ServerHandle {
    addr: SocketAddr,
    reactor: ReactorHandle,
}

/// Bind and start serving. Returns as soon as the listener is live.
pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
    // With persistence on, WAL recovery runs here — before the listener binds — so no client
    // can connect to a server whose sessions are still being reconstructed.
    let service = Arc::new(Service::open(&config)?);
    let listener =
        TcpListener::bind(
            config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address")
            })?,
        )?;
    let addr = listener.local_addr()?;
    let reactor = crate::reactor::spawn_reactor(listener, config, service)?;
    Ok(ServerHandle { addr, reactor })
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of live (admitted) connections.
    pub fn active_connections(&self) -> usize {
        self.reactor.active_connections()
    }

    /// Stop accepting, wake and join everything, and return once the server is fully
    /// quiesced. Open sessions are reported as abandoned.
    pub fn shutdown(mut self) {
        self.reactor.shutdown();
    }

    /// Block until the server exits (the standalone binary's serve-forever mode).
    pub fn join(mut self) {
        self.reactor.join();
    }
}

/// How an `accept(2)` failure should be handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptError {
    /// Back off briefly and retry: resource pressure (EMFILE/ENFILE/ENOBUFS/ENOMEM), an
    /// aborted handshake, or an interrupting signal. Retrying immediately would spin.
    Transient,
    /// The listener itself is broken (EBADF/EINVAL/ENOTSOCK); accepting again can never
    /// succeed, so the accept path should stop.
    Fatal,
}

/// Classify an `accept` error. Unknown errors are treated as transient — with backoff that
/// is always safe, whereas misclassifying EMFILE as fatal would kill the listener exactly
/// when load is highest.
pub fn classify_accept_error(e: &io::Error) -> AcceptError {
    // EBADF(9), EINVAL(22), ENOTSOCK(88/95 dep. platform), EOPNOTSUPP: the listener fd is
    // gone or was never a listener; no amount of retrying helps.
    const FATAL: &[i32] = &[9, 22, 88, 95];
    match e.raw_os_error() {
        Some(code) if FATAL.contains(&code) => AcceptError::Fatal,
        _ => AcceptError::Transient,
    }
}

/// Bounded exponential backoff for transient accept errors: 1 ms doubling to a 500 ms cap,
/// reset by the next successful accept. Keeps a persistently failing `accept` (fd
/// exhaustion) at ~2 wakeups per second instead of a 100%-CPU spin.
#[derive(Debug)]
pub struct AcceptBackoff {
    next: Duration,
}

impl Default for AcceptBackoff {
    fn default() -> Self {
        AcceptBackoff::new()
    }
}

impl AcceptBackoff {
    const FLOOR: Duration = Duration::from_millis(1);
    const CAP: Duration = Duration::from_millis(500);

    /// A fresh backoff at the floor delay.
    pub fn new() -> AcceptBackoff {
        AcceptBackoff { next: Self::FLOOR }
    }

    /// The delay to sleep before the next accept attempt; doubles up to the cap.
    pub fn next_delay(&mut self) -> Duration {
        let delay = self.next;
        self.next = (self.next * 2).min(Self::CAP);
        delay
    }

    /// An accept succeeded: the next failure starts from the floor again.
    pub fn reset(&mut self) {
        self.next = Self::FLOOR;
    }
}

/// Why [`read_line_bounded`] stopped.
#[derive(Debug)]
pub enum LineError {
    /// Peer closed the connection (possibly mid-line).
    Closed,
    /// No complete line arrived within the socket's read timeout.
    TimedOut,
    /// The line exceeded the byte cap before a newline appeared.
    TooLong,
    /// Any other I/O failure.
    Io(io::Error),
}

/// Read one `\n`-terminated line of at most `max` bytes (newline excluded), without ever
/// buffering more than `max` bytes of an unterminated line. Timeout behaviour is whatever
/// the underlying reader's is — **per read call**.
pub fn read_line_bounded(reader: &mut impl BufRead, max: usize) -> Result<String, LineError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(b) => b,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(LineError::TimedOut)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(LineError::Io(e)),
        };
        if available.is_empty() {
            return Err(LineError::Closed);
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&available[..pos]);
            reader.consume(pos + 1);
            // CRLF framing: the \r is part of the line ending, not the content, so strip it
            // before enforcing the content cap.
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if line.len() > max {
                return Err(LineError::TooLong);
            }
            return Ok(String::from_utf8_lossy(&line).into_owned());
        }
        let n = available.len();
        line.extend_from_slice(available);
        reader.consume(n);
        // Mid-line the cap allows one extra byte: a \r that may turn out to be CRLF framing
        // once the \n arrives.
        if line.len() > max + 1 {
            return Err(LineError::TooLong);
        }
    }
}

/// Per-connection protocol state: the attached corpus and the open session. Checked out into
/// the worker executing the connection's current request — never shared, so never locked.
pub(crate) struct ProtoState {
    corpus: Option<Arc<Corpus>>,
    session: Option<u64>,
}

impl ProtoState {
    pub(crate) fn new() -> ProtoState {
        ProtoState {
            corpus: None,
            session: None,
        }
    }

    /// Close (and thereby report) the open session, if any, recording the close durably
    /// unless the service is preserving sessions for a restart.
    pub(crate) fn close_session(&mut self, service: &Service) {
        if let Some(id) = self.session.take() {
            service.registry.close(id);
            service.log_close(id);
        }
    }

    /// Detach from the open session *without* closing it: the session stays live in the
    /// registry for a later `RESUME` from a new connection.
    pub(crate) fn detach(&mut self) -> Option<u64> {
        self.session.take()
    }

    /// Connection teardown. With a fault profile attached the session is detached (injected
    /// drops — server- or client-side — must be survivable via `RESUME`); in production it
    /// is closed, preserving the invariant that a real disconnect abandons the session.
    pub(crate) fn teardown(&mut self, service: &Service) {
        if service.detach_on_disconnect() {
            self.detach();
        } else {
            self.close_session(service);
        }
    }
}

/// Produce the one-line reply to one request line, plus whether the connection should close.
/// The protocol core every worker executes.
pub(crate) fn respond(service: &Service, state: &mut ProtoState, line: &str) -> (String, bool) {
    let registry = &service.registry;
    let command = match parse_command(line) {
        Ok(c) => c,
        Err(e) => return (format!("-ERR {e}"), false),
    };
    let reply = match command {
        Command::Hello => format!(
            "+OK qbe-server proto=1.3 models=twig,path,join,graph classes=rpq,2rpq,crpq corpora={} strategies={} options=strategy,budget,seed,class",
            CORPUS_NAMES.join(","),
            STRATEGY_NAMES.join(","),
        ),
        Command::Corpus(name) => match service.store.get_or_load(&name) {
            Err(CorpusError::Unknown) => format!(
                "-ERR unknown corpus {name:?} (known: {})",
                CORPUS_NAMES.join(",")
            ),
            Err(CorpusError::Load(why)) => format!("-ERR {why}"),
            Ok(corpus) => {
                let summary = render_fields(&[
                    ("name", corpus.name.clone()),
                    ("docs", corpus.docs.len().to_string()),
                    ("xml_nodes", corpus.xml_nodes().to_string()),
                    ("graph_nodes", corpus.graph.node_count().to_string()),
                    (
                        "tuples",
                        format!("{}x{}", corpus.left.len(), corpus.right.len()),
                    ),
                ]);
                state.corpus = Some(corpus);
                format!("+OK corpus {summary}")
            }
        },
        Command::Start { model, params } => match state.corpus.clone() {
            None => "-ERR no corpus attached (use CORPUS <name>)".to_string(),
            Some(corpus) => match build_learner(&corpus, model, &params) {
                Err(why) => format!("-ERR {why}"),
                Ok(learner) => {
                    state.close_session(service);
                    let id = registry.open(learner);
                    service.log_start(id, &corpus.name, model.name(), &params);
                    state.session = Some(id);
                    format!("+OK session id={id} model={model}")
                }
            },
        },
        Command::Resume(id) => match registry.with_session(id, |l| l.kind().to_string()) {
            None => format!("-ERR unknown session {id}"),
            Some(kind) => {
                // Re-RESUME-ing the attached session must not close_session it first —
                // that would remove the very session being resumed.
                if state.session != Some(id) {
                    state.close_session(service);
                    state.session = Some(id);
                    // A cross-connection re-attach is a client retrying after a lost
                    // connection (or a post-restart recovery): the retries= counter.
                    registry.note_retry();
                }
                format!("+OK session id={id} model={kind}")
            }
        },
        Command::Ask => match state.session {
            None => "-ERR no open session (use START)".to_string(),
            Some(id) => {
                let proposed = registry.with_session(id, |l| {
                    l.propose()
                        .map(|q| q.to_string())
                        .ok_or_else(|| (l.questions(), l.consistent()))
                });
                match proposed {
                    None => "-ERR session vanished".to_string(),
                    Some(Ok(question)) => {
                        // Counts the re-ask (same pending question served twice) if this
                        // isn't the first ASK since the last recorded answer.
                        registry.mark_asked(id);
                        format!("+ASK {question}")
                    }
                    Some(Err((questions, consistent))) => {
                        format!("+DONE questions={questions} consistent={consistent}")
                    }
                }
            }
        },
        Command::Answer(positive) => match state.session {
            None => "-ERR no open session (use START)".to_string(),
            Some(id) => match registry.with_session(id, |l| l.answer(positive)) {
                None => "-ERR session vanished".to_string(),
                Some(Ok(())) => {
                    registry.clear_asked(id);
                    // Only accepted answers are logged, so replay can never hit a
                    // no-pending-question error the original run didn't.
                    service.log_answer(id, positive);
                    "+OK recorded".to_string()
                }
                Some(Err(e)) => format!("-ERR {e}"),
            },
        },
        Command::Query => match state.session {
            None => "-ERR no open session (use START)".to_string(),
            Some(id) => match registry.with_session(id, |l| l.hypothesis()) {
                None => "-ERR session vanished".to_string(),
                Some(None) => "-ERR no hypothesis yet (no positive example)".to_string(),
                Some(Some(text)) => format!("+QUERY {text}"),
            },
        },
        Command::Eval => match state.session {
            None => "-ERR no open session (use START)".to_string(),
            Some(id) => match registry.with_session(id, |l| l.answer_set_size()) {
                None => "-ERR session vanished".to_string(),
                Some(n) => format!("+EVAL {n}"),
            },
        },
        Command::Metrics => {
            let metrics = registry.metrics();
            let fields = [
                ("sessions", metrics.sessions.to_string()),
                ("ok", metrics.successes.to_string()),
                ("active", registry.active().to_string()),
                ("total_questions", metrics.total_questions.to_string()),
                (
                    "p50_questions",
                    metrics.p50_questions.unwrap_or(0).to_string(),
                ),
                (
                    "p95_questions",
                    metrics.p95_questions.unwrap_or(0).to_string(),
                ),
                (
                    "mean_questions",
                    format!("{:.2}", metrics.mean_questions().unwrap_or(0.0)),
                ),
                ("throughput_per_s", format!("{:.3}", metrics.throughput())),
                ("rejected", metrics.rejected.to_string()),
                ("timeouts", metrics.timeouts.to_string()),
                ("shed", metrics.shed.to_string()),
                ("persisted", metrics.persisted.to_string()),
                ("recovered", metrics.recovered.to_string()),
                ("corpora_built", service.store.built().to_string()),
                ("retries", metrics.retries.to_string()),
                ("reasks", metrics.reasks.to_string()),
                ("faults_injected", service.faults_injected().to_string()),
                ("panics", metrics.panics.to_string()),
            ];
            format!("+METRICS {}", render_fields(&fields))
        }
        Command::Quit => {
            // Close (and report) the session before replying, so a client that QUITs and then
            // probes METRICS on a fresh connection observes its own session.
            state.close_session(service);
            return ("+OK bye".to_string(), true);
        }
    };
    (reply, false)
}

use crate::protocol::field_value as param;

/// The largest `max_edges` a path `START` accepts. The session enumerates every simple path of
/// up to that many edges before keeping the shortest, so the work grows exponentially with it;
/// past this cap one `START` line could pin a worker for seconds to minutes.
const MAX_PATH_EDGES: usize = 10;

fn parse_seed(params: &[(String, String)]) -> Result<u64, String> {
    match param(params, "seed") {
        None => Ok(0),
        Some(s) => s
            .parse()
            .map_err(|_| format!("seed must be a u64, got {s:?}")),
    }
}

/// The common `START` options — `seed=<u64>`, `budget=<n>`, and the model-agnostic half of
/// `strategy=<name>` — folded into a [`SessionConfig`]. Model-specific legacy strategy names
/// are resolved by the caller via `legacy`; anything in neither vocabulary is rejected loudly
/// instead of silently applying defaults.
fn session_config(
    params: &[(String, String)],
    legacy_names: &str,
    legacy: impl Fn(&str, u64) -> Option<Box<dyn qbe_core::Strategy>>,
) -> Result<SessionConfig, String> {
    let seed = parse_seed(params)?;
    let mut config = SessionConfig::new().seed(seed);
    if let Some(b) = param(params, "budget") {
        let budget: usize = b
            .parse()
            .map_err(|_| format!("budget must be a usize, got {b:?}"))?;
        config = config.budget(budget);
    }
    match param(params, "strategy") {
        None => Ok(config), // the model's flagship default
        Some(name) => {
            if let Some(strategy) = legacy(name, seed) {
                return Ok(config.strategy(strategy));
            }
            config.strategy_named(name).map_err(|_| {
                format!(
                    "unknown strategy, expected one of: {legacy_names}|{}",
                    STRATEGY_NAMES.join("|")
                )
            })
        }
    }
}

/// Build the model-specific learner a `START` command asks for (also the reconstruction
/// path of WAL replay, which is what makes recovery byte-identical: the same factory, the
/// same parameters, the same seed).
pub(crate) fn build_learner(
    corpus: &Corpus,
    model: Model,
    params: &[(String, String)],
) -> Result<Box<dyn InteractiveLearner>, String> {
    match model {
        Model::Twig => {
            let config = session_config(
                params,
                "document-order|shallow-first|label-affinity",
                |name, seed| {
                    let preset = match name {
                        "document-order" => NodeStrategy::DocumentOrder,
                        "shallow-first" => NodeStrategy::ShallowFirst,
                        "label-affinity" => NodeStrategy::LabelAffinity,
                        _ => return None,
                    };
                    Some(preset.strategy(seed))
                },
            )?;
            Ok(Box::new(TwigInteractive::with_config(
                corpus.docs.clone(),
                corpus.indexes.clone(),
                config,
            )))
        }
        Model::Path => {
            let config = session_config(
                params,
                "shortest-first|halving|workload-prior",
                |name, seed| {
                    let preset = match name {
                        "shortest-first" => PathStrategy::ShortestFirst,
                        "halving" => PathStrategy::Halving,
                        "workload-prior" => PathStrategy::WorkloadPrior,
                        _ => return None,
                    };
                    Some(preset.strategy(seed))
                },
            )?;
            let from_name = param(params, "from").unwrap_or("city0");
            let to_name = param(params, "to").unwrap_or("city5");
            let resolve = |name: &str| {
                corpus
                    .graph
                    .find_node_by_property("name", name)
                    .ok_or_else(|| format!("unknown city {name:?}"))
            };
            let from = resolve(from_name)?;
            let to = resolve(to_name)?;
            let max_edges = match param(params, "max_edges") {
                None => 6,
                Some(s) => s
                    .parse()
                    .ok()
                    .filter(|&n| n <= MAX_PATH_EDGES)
                    .ok_or_else(|| {
                        format!("max_edges must be an integer in 0..={MAX_PATH_EDGES}, got {s:?}")
                    })?,
            };
            Ok(Box::new(PathInteractive::with_config(
                corpus.graph.clone(),
                from,
                to,
                max_edges,
                config,
            )))
        }
        Model::Join => {
            let config =
                session_config(params, "most-specific-first|halve-lattice", |name, seed| {
                    let preset = match name {
                        "most-specific-first" => Strategy::MostSpecificFirst,
                        "halve-lattice" => Strategy::HalveLattice,
                        _ => return None,
                    };
                    Some(preset.strategy(seed))
                })?;
            Ok(Box::new(JoinInteractive::with_config(
                corpus.left.clone(),
                corpus.right.clone(),
                config,
            )))
        }
        Model::Graph => {
            let config = session_config(params, "halving", |name, seed| {
                (name == "halving").then(|| PathStrategy::Halving.strategy(seed))
            })?;
            let class = match param(params, "class") {
                None => QueryClass::Rpq,
                Some(name) => QueryClass::parse(name)
                    .ok_or_else(|| format!("unknown class {name:?}, expected rpq|2rpq|crpq"))?,
            };
            Ok(Box::new(GraphQueryInteractive::with_config(
                corpus.typed_graph.clone(),
                class,
                config,
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_reader_enforces_the_cap() {
        let mut ok = io::Cursor::new(b"HELLO\r\nASK\n".to_vec());
        assert_eq!(read_line_bounded(&mut ok, 16).unwrap(), "HELLO");
        assert_eq!(read_line_bounded(&mut ok, 16).unwrap(), "ASK");
        assert!(matches!(
            read_line_bounded(&mut ok, 16),
            Err(LineError::Closed)
        ));

        // Oversized despite a newline: rejected.
        let mut long = io::Cursor::new(
            vec![b'a'; 64]
                .into_iter()
                .chain(*b"\n")
                .collect::<Vec<u8>>(),
        );
        assert!(matches!(
            read_line_bounded(&mut long, 16),
            Err(LineError::TooLong)
        ));

        // Oversized with no newline at all: rejected without buffering the flood.
        let mut flood = io::Cursor::new(vec![b'b'; 1 << 20]);
        assert!(matches!(
            read_line_bounded(&mut flood, 16),
            Err(LineError::TooLong)
        ));
    }

    #[test]
    fn carriage_return_does_not_count_against_the_cap() {
        // Exactly max content bytes, CRLF-framed: the \r is line ending, not content.
        let mut at_cap = io::Cursor::new([vec![b'x'; 16], b"\r\n".to_vec()].concat());
        assert_eq!(read_line_bounded(&mut at_cap, 16).unwrap(), "x".repeat(16));
        // One content byte over, LF-framed: still rejected.
        let mut over = io::Cursor::new([vec![b'x'; 17], b"\n".to_vec()].concat());
        assert!(matches!(
            read_line_bounded(&mut over, 16),
            Err(LineError::TooLong)
        ));
    }

    #[test]
    fn accept_errors_classify_by_retryability() {
        // Resource pressure and aborted handshakes: transient, retry with backoff.
        for code in [
            24,  /* EMFILE */
            23,  /* ENFILE */
            103, /* ECONNABORTED */
            4,   /* EINTR */
            12,  /* ENOMEM */
            105, /* ENOBUFS */
        ] {
            assert_eq!(
                classify_accept_error(&io::Error::from_raw_os_error(code)),
                AcceptError::Transient,
                "errno {code}"
            );
        }
        // A broken listener: fatal, stop accepting.
        for code in [
            9,  /* EBADF */
            22, /* EINVAL */
            88, /* ENOTSOCK */
        ] {
            assert_eq!(
                classify_accept_error(&io::Error::from_raw_os_error(code)),
                AcceptError::Fatal,
                "errno {code}"
            );
        }
        // Errors with no OS code (synthetic) err on the side of retrying.
        assert_eq!(
            classify_accept_error(&io::Error::other("mystery")),
            AcceptError::Transient
        );
    }

    #[test]
    fn accept_backoff_doubles_to_a_cap_and_resets() {
        let mut b = AcceptBackoff::new();
        let mut last = Duration::ZERO;
        for _ in 0..16 {
            let d = b.next_delay();
            assert!(d >= last, "delays never shrink while failing");
            assert!(d <= Duration::from_millis(500), "capped at 500 ms");
            last = d;
        }
        assert_eq!(last, Duration::from_millis(500));
        b.reset();
        assert_eq!(b.next_delay(), Duration::from_millis(1));
    }

    #[test]
    fn learner_factory_validates_parameters() {
        let corpus = crate::corpus::build_corpus("tiny").unwrap();
        assert!(build_learner(&corpus, Model::Twig, &[]).is_ok());
        assert!(build_learner(
            &corpus,
            Model::Twig,
            &[("strategy".into(), "alphabetical".into())]
        )
        .is_err());
        assert!(build_learner(&corpus, Model::Join, &[("seed".into(), "x".into())]).is_err());
        assert!(
            build_learner(&corpus, Model::Path, &[("from".into(), "atlantis".into())]).is_err()
        );
        let ok = build_learner(&corpus, Model::Path, &[("to".into(), "city3".into())]).unwrap();
        assert_eq!(ok.kind(), "path");
        // max_edges is capped: path enumeration grows exponentially with it.
        let path = |n: &str| build_learner(&corpus, Model::Path, &[("max_edges".into(), n.into())]);
        assert!(path("10").is_ok());
        for n in ["11", "40", "18446744073709551615", "-1", "six"] {
            let err = path(n).err().expect("rejected");
            assert!(err.contains("max_edges"), "{n}: {err}");
        }
        let graph =
            build_learner(&corpus, Model::Graph, &[("class".into(), "2rpq".into())]).unwrap();
        assert_eq!(graph.kind(), "graph");
        let halving = build_learner(
            &corpus,
            Model::Graph,
            &[("strategy".into(), "halving".into())],
        )
        .expect("graph sessions accept the halving strategy they list");
        assert_eq!(halving.strategy(), "halving");
        assert!(
            build_learner(&corpus, Model::Graph, &[]).is_ok(),
            "class defaults to rpq"
        );
        assert!(
            build_learner(&corpus, Model::Graph, &[("class".into(), "sparql".into())]).is_err()
        );
    }
}
