//! The event-driven engine: one reactor thread owns every socket, a readiness loop
//! ([`crate::poll::Poller`]) tells it which are ready, and complete request lines are handed
//! to the worker pool ([`crate::workers`]). Ten thousand idle connections are ten thousand
//! registered fds and zero threads; a slow session step occupies one worker, not an OS thread
//! per connection.
//!
//! Per-connection state is a pair of buffers (`rbuf` for incoming bytes, `wbuf` for pending
//! replies) plus a [`Phase`]:
//!
//! * `Ready(state)` — no line in flight; readable bytes are parsed and the next complete line
//!   dispatched (protocol state moves into the job — ownership is the synchronisation);
//! * `Busy` — one line is with a worker; read interest is off, which is exactly per-connection
//!   backpressure: a client cannot queue unbounded work by pipelining;
//! * `Closing(state)` — a goodbye or error reply is flushing; the connection closes when the
//!   buffer drains (or its deadline passes, for a peer that never reads).
//!
//! The defensive behaviours hold by construction rather than by thread-local timeouts:
//!
//! * **total per-line deadline** — each connection carries an absolute deadline, re-armed only
//!   when a full line completes; a trickling client is swept out regardless of how often its
//!   single bytes arrive;
//! * **nonblocking capacity rejection** — at-capacity accepts get one best-effort write on the
//!   (already nonblocking) socket and are dropped, never touching the readiness loop's pace;
//! * **accept backoff** — transient `accept` failures (EMFILE et al.) deregister the listener
//!   for a bounded backoff instead of busy-spinning a level-triggered readiness event;
//! * **rate limiting + load shedding** — `ASK`/`EVAL` cost a token from the connection's
//!   bucket and are shed with a retryable `-ERR` when the worker queue is saturated, while
//!   `ANSWER`/`QUIT` always pass so throttled clients can still wind down cleanly.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::poll::{waker_pair, Poller, WakeReader, Waker};
use crate::protocol::MAX_LINE_BYTES;
use crate::server::{
    classify_accept_error, AcceptBackoff, AcceptError, ProtoState, RateLimit, ServerConfig, Service,
};
use crate::workers::{Completion, CompletionQueue, Job, WorkerPool};

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// How many bytes one readable event may pull off a socket before yielding to the next event
/// — fairness between one chatty connection and everyone else.
const READ_QUANTUM: usize = 64 * 1024;

/// Handle to a running reactor; owned by [`crate::server::ServerHandle`].
pub(crate) struct ReactorHandle {
    active: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    waker: Waker,
    thread: Option<JoinHandle<()>>,
}

impl ReactorHandle {
    pub(crate) fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    pub(crate) fn join(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Start the reactor thread serving `listener` under `config`, against an already-opened
/// (and, with persistence, already-recovered) `service`.
pub(crate) fn spawn_reactor(
    listener: TcpListener,
    config: ServerConfig,
    service: Arc<Service>,
) -> io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;
    let (wake_reader, waker) = waker_pair()?;
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
    poller.register(wake_reader.raw_fd(), WAKER_TOKEN, true, false)?;

    let pool = WorkerPool::spawn(config.workers, service.clone(), waker.clone());
    let completions = pool.completions();

    let active = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mut reactor = Reactor {
        poller,
        listener,
        listener_registered: true,
        accept_resume: None,
        backoff: AcceptBackoff::new(),
        wake_reader,
        pool,
        completions,
        service,
        config,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        active: active.clone(),
        stop: stop.clone(),
        next_deadline: None,
    };
    let thread = std::thread::Builder::new()
        .name("qbe-server-reactor".to_string())
        .spawn(move || reactor.run())?;
    Ok(ReactorHandle {
        active,
        stop,
        waker,
        thread: Some(thread),
    })
}

/// Token-bucket state of one connection.
struct Bucket {
    tokens: f64,
    refilled: Instant,
}

impl Bucket {
    fn full(limit: &RateLimit) -> Bucket {
        Bucket {
            tokens: limit.burst as f64,
            refilled: Instant::now(),
        }
    }

    /// Refill by elapsed time, then try to spend one token.
    fn take(&mut self, limit: &RateLimit) -> bool {
        let now = Instant::now();
        let elapsed = now.saturating_duration_since(self.refilled).as_secs_f64();
        self.tokens = (self.tokens + elapsed * limit.per_sec).min(limit.burst as f64);
        self.refilled = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

enum Phase {
    /// No line in flight; `ProtoState` lives here.
    Ready(ProtoState),
    /// One line checked out to a worker (the state travels with it).
    Busy,
    /// Final reply flushing; close when `wbuf` drains. The state is `None` only while the
    /// session state is still out with a worker.
    Closing(Option<ProtoState>),
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    woff: usize,
    phase: Phase,
    /// Absolute deadline: for `Ready`, the whole next line must complete by then; for
    /// `Closing`, the pending reply must flush by then. `None` while `Busy` (a session step's
    /// duration is the worker's business, not the client's fault).
    deadline: Option<Instant>,
    bucket: Option<Bucket>,
    /// Interest currently registered in the poller, to skip no-op `modify` calls.
    registered: (bool, bool),
}

impl Conn {
    fn pending_write(&self) -> bool {
        self.woff < self.wbuf.len()
    }

    fn queue_line(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }
}

struct Reactor {
    poller: Poller,
    listener: TcpListener,
    listener_registered: bool,
    /// When accept is paused after a transient error, the instant to resume at.
    accept_resume: Option<Instant>,
    backoff: AcceptBackoff,
    wake_reader: WakeReader,
    pool: WorkerPool,
    completions: CompletionQueue,
    service: Arc<Service>,
    config: ServerConfig,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    active: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    /// Cached minimum over all connection deadlines; sweeps run only when it passes.
    next_deadline: Option<Instant>,
}

/// Is this request line a sheddable verb (`ASK`/`EVAL`)? Sheds and rate limits apply to the
/// expensive, safely-retryable requests; `ANSWER`/`QUIT` and the setup commands always pass.
fn sheddable(line: &str) -> bool {
    let verb = line.split_ascii_whitespace().next().unwrap_or("");
    verb.eq_ignore_ascii_case("ASK") || verb.eq_ignore_ascii_case("EVAL")
}

impl Reactor {
    fn run(&mut self) {
        let mut events = Vec::with_capacity(1024);
        while !self.stop.load(Ordering::SeqCst) {
            let now = Instant::now();
            self.maybe_resume_accept(now);
            let timeout = [self.next_deadline, self.accept_resume]
                .into_iter()
                .flatten()
                .min()
                .map(|d| d.saturating_duration_since(now));
            events.clear();
            if self.poller.wait(timeout, &mut events).is_err() {
                break; // a broken poller is unrecoverable; quiesce below
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let mut accept_ready = false;
            for ev in &events {
                match ev.token {
                    LISTENER_TOKEN => accept_ready = true,
                    WAKER_TOKEN => self.wake_reader.drain(),
                    token => {
                        if ev.readable {
                            self.handle_readable(token);
                        }
                        if ev.writable {
                            self.handle_writable(token);
                        }
                    }
                }
            }
            self.drain_completions();
            if accept_ready {
                self.accept_burst();
            }
            self.sweep_deadlines();
        }
        self.quiesce();
    }

    /// Graceful shutdown: let in-flight work finish, report still-open sessions as abandoned,
    /// close every socket.
    fn quiesce(&mut self) {
        // Sessions still open here are being preserved across the restart (with persistence
        // on), not abandoned by their clients: suppress WAL Close records from teardown.
        self.service.preserve_sessions();
        if self.listener_registered {
            let _ = self.poller.deregister(self.listener.as_raw_fd());
            self.listener_registered = false;
        }
        // Joining the pool completes all submitted jobs; their completions are queued.
        self.pool.shutdown();
        let drained: Vec<Completion> = self
            .completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for completion in drained {
            let mut state = completion.state;
            state.teardown(&self.service);
        }
        let conns: Vec<u64> = self.conns.keys().copied().collect();
        for token in conns {
            self.close_conn(token);
        }
        // Every appender (workers, teardown) is done: make the WAL tail durable so no
        // record rides the OS cache across the shutdown.
        self.service.flush_wal();
    }

    // ---- accept path -------------------------------------------------------------------

    fn maybe_resume_accept(&mut self, now: Instant) {
        if let Some(resume) = self.accept_resume {
            if now >= resume {
                self.accept_resume = None;
                if !self.listener_registered
                    && self
                        .poller
                        .register(self.listener.as_raw_fd(), LISTENER_TOKEN, true, false)
                        .is_ok()
                {
                    self.listener_registered = true;
                }
                // A connection may have arrived during the pause; the level-triggered poller
                // reports the listener readable on the next wait.
            }
        }
    }

    /// Pause accepting for `delay`: with a level-triggered poller, an un-accepted pending
    /// connection (or a persistently failing accept) would otherwise turn every `wait` into a
    /// busy spin. Deregistering the listener is the event-loop form of a backoff sleep —
    /// without stopping service to established connections.
    fn pause_accept(&mut self, delay: Duration) {
        if self.listener_registered {
            let _ = self.poller.deregister(self.listener.as_raw_fd());
            self.listener_registered = false;
        }
        self.accept_resume = Some(Instant::now() + delay);
    }

    fn accept_burst(&mut self) {
        if self.accept_resume.is_some() {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.backoff.reset();
                    self.admit(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => match classify_accept_error(&e) {
                    AcceptError::Transient => {
                        let delay = self.backoff.next_delay();
                        self.pause_accept(delay);
                        break;
                    }
                    AcceptError::Fatal => {
                        // The listener is broken for good; keep serving established
                        // connections.
                        if self.listener_registered {
                            let _ = self.poller.deregister(self.listener.as_raw_fd());
                            self.listener_registered = false;
                        }
                        break;
                    }
                },
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        if self.active.load(Ordering::SeqCst) >= self.config.max_connections {
            self.service.registry.note_rejected();
            // Best-effort, nonblocking by construction: one short line into a fresh socket's
            // empty send buffer. Dropping the stream closes it.
            let mut stream = stream;
            let _ = stream.write(b"-ERR server at capacity, retry later\n");
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        let mut conn = Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            woff: 0,
            phase: Phase::Ready(ProtoState::new()),
            deadline: Some(Instant::now() + self.config.read_timeout),
            bucket: self.config.rate_limit.as_ref().map(Bucket::full),
            registered: (false, false),
        };
        conn.queue_line("+OK qbe-server ready");
        let _ = flush_wbuf(&mut conn); // optimistic: the greeting usually fits at once
        let interest = (true, conn.pending_write());
        if self
            .poller
            .register(conn.stream.as_raw_fd(), token, interest.0, interest.1)
            .is_err()
        {
            return; // dropped ⇒ closed; the client sees EOF after the greeting
        }
        conn.registered = interest;
        self.bump_deadline(conn.deadline);
        self.active.fetch_add(1, Ordering::SeqCst);
        self.conns.insert(token, conn);
    }

    // ---- connection I/O ----------------------------------------------------------------

    fn handle_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if matches!(conn.phase, Phase::Closing(_)) {
            // Only the goodbye flush matters now; incoming bytes are irrelevant.
            return;
        }
        let mut chunk = [0u8; 4096];
        let mut taken = 0;
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    taken += n;
                    if taken >= READ_QUANTUM {
                        break; // stay fair; level-triggered readiness re-reports the rest
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.process_rbuf(token);
        self.flush_and_update(token);
    }

    fn handle_writable(&mut self, token: u64) {
        self.flush_and_update(token);
    }

    /// Parse complete lines out of `rbuf` while the connection is `Ready`: shed or throttle
    /// sheddable verbs inline, dispatch at most one line to the pool (further pipelined lines
    /// wait for its completion — that is the per-connection backpressure).
    fn process_rbuf(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !matches!(conn.phase, Phase::Ready(_)) {
                return;
            }
            let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') else {
                // Mid-line the cap allows one extra byte for CRLF framing, as in
                // `read_line_bounded`.
                if conn.rbuf.len() > MAX_LINE_BYTES + 1 {
                    self.error_close(
                        token,
                        &format!("-ERR line exceeds {MAX_LINE_BYTES} bytes, closing"),
                    );
                }
                return;
            };
            let mut line_bytes: Vec<u8> = conn.rbuf.drain(..=pos).collect();
            line_bytes.pop(); // the \n
            if line_bytes.last() == Some(&b'\r') {
                line_bytes.pop();
            }
            if line_bytes.len() > MAX_LINE_BYTES {
                self.error_close(
                    token,
                    &format!("-ERR line exceeds {MAX_LINE_BYTES} bytes, closing"),
                );
                return;
            }
            let line = String::from_utf8_lossy(&line_bytes).into_owned();
            if sheddable(&line) {
                if self.pool.depth() >= self.config.shed_queue_depth {
                    self.service.registry.note_shed();
                    conn.queue_line("-ERR overloaded, retry later");
                    continue;
                }
                if let Some(limit) = self.config.rate_limit {
                    let bucket = conn.bucket.get_or_insert_with(|| Bucket::full(&limit));
                    if !bucket.take(&limit) {
                        self.service.registry.note_shed();
                        conn.queue_line("-ERR rate limit exceeded, retry later");
                        continue;
                    }
                }
            }
            // Check the protocol state out to the worker; Busy suspends both reads and the
            // idle deadline.
            let Phase::Ready(state) = std::mem::replace(&mut conn.phase, Phase::Busy) else {
                unreachable!("phase checked Ready above");
            };
            conn.deadline = None;
            if let Err(job) = self.pool.submit(Job {
                conn: token,
                line,
                state,
            }) {
                // Pool already shut down (we are quiescing): hand the state back and close.
                let mut state = job.state;
                state.teardown(&self.service);
                self.close_conn(token);
            }
            return;
        }
    }

    fn drain_completions(&mut self) {
        loop {
            let completion = self
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front();
            let Some(Completion {
                conn: token,
                reply,
                quit,
                state,
                dropped,
            }) = completion
            else {
                return;
            };
            if dropped {
                // Injected fault: the operation executed, but the reply is discarded and
                // the socket closed. Detach (don't close) the session — the client's next
                // connection RESUMEs it. The connection is Busy here, so close_conn won't
                // touch the session either.
                let mut state = state;
                state.detach();
                self.close_conn(token);
                continue;
            }
            let Some(conn) = self.conns.get_mut(&token) else {
                // Connection died while its line was in flight; the session still must be
                // torn down (closed — or detached under a fault profile).
                let mut state = state;
                state.teardown(&self.service);
                continue;
            };
            conn.queue_line(&reply);
            if quit || matches!(conn.phase, Phase::Closing(_)) {
                conn.phase = Phase::Closing(Some(state));
                conn.deadline = Some(Instant::now() + self.config.write_timeout);
            } else {
                conn.phase = Phase::Ready(state);
                conn.deadline = Some(Instant::now() + self.config.read_timeout);
            }
            self.bump_deadline(self.conns[&token].deadline);
            // A pipelined next line may already be buffered.
            self.process_rbuf(token);
            self.flush_and_update(token);
        }
    }

    // ---- buffers, deadlines, teardown --------------------------------------------------

    /// Flush what the socket will take, then reconcile poller interest with the connection's
    /// phase and buffers; close `Closing` connections whose goodbye has drained.
    fn flush_and_update(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if flush_wbuf(conn).is_err() {
            self.close_conn(token);
            return;
        }
        if matches!(conn.phase, Phase::Closing(_)) && !conn.pending_write() {
            self.close_conn(token);
            return;
        }
        let want = (matches!(conn.phase, Phase::Ready(_)), conn.pending_write());
        if want != conn.registered
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want.0, want.1)
                .is_ok()
        {
            conn.registered = want;
        }
    }

    /// Queue a final error line and transition to `Closing`; the connection closes when the
    /// line flushes (or `write_timeout` passes for a peer that refuses to read it).
    fn error_close(&mut self, token: u64, message: &str) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.queue_line(message);
        let state = match std::mem::replace(&mut conn.phase, Phase::Busy) {
            Phase::Ready(state) => Some(state),
            Phase::Closing(state) => state,
            Phase::Busy => None,
        };
        conn.phase = Phase::Closing(state);
        conn.deadline = Some(Instant::now() + self.config.write_timeout);
        self.bump_deadline(self.conns[&token].deadline);
        self.flush_and_update(token);
    }

    fn close_conn(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        match &mut conn.phase {
            Phase::Ready(state) | Phase::Closing(Some(state)) => {
                state.teardown(&self.service);
            }
            // Busy / Closing(None): the state is out with a worker; the completion for a
            // vanished connection closes the session in `drain_completions`/`quiesce`.
            _ => {}
        }
        self.active.fetch_sub(1, Ordering::SeqCst);
        // conn drops here ⇒ socket closes
    }

    fn bump_deadline(&mut self, deadline: Option<Instant>) {
        if let Some(d) = deadline {
            self.next_deadline = Some(match self.next_deadline {
                Some(current) => current.min(d),
                None => d,
            });
        }
    }

    /// Deadline bookkeeping is lazy: connections are only scanned when the cached minimum
    /// passes, so ten thousand idle-but-alive connections cost nothing per event-loop turn.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        match self.next_deadline {
            Some(d) if d <= now => {}
            _ => return,
        }
        let expired: Vec<(u64, bool)> = self
            .conns
            .iter()
            .filter_map(|(&token, conn)| match conn.deadline {
                Some(d) if d <= now => Some((token, matches!(conn.phase, Phase::Closing(_)))),
                _ => None,
            })
            .collect();
        for (token, closing) in expired {
            if closing {
                // The goodbye never flushed; the peer is gone or not reading. Just close.
                self.close_conn(token);
            } else {
                self.service.registry.note_timeout();
                self.error_close(token, "-ERR idle timeout, closing");
            }
        }
        self.next_deadline = self.conns.values().filter_map(|c| c.deadline).min();
    }
}

/// Write as much of `wbuf` as the socket accepts right now. `Ok` means "made progress or
/// would block"; `Err` means the connection is dead.
fn flush_wbuf(conn: &mut Conn) -> io::Result<()> {
    while conn.woff < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.woff..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "peer gone")),
            Ok(n) => conn.woff += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.woff == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.woff = 0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheddable_verbs_are_the_expensive_retryable_ones() {
        assert!(sheddable("ASK"));
        assert!(sheddable("ask"));
        assert!(sheddable("EVAL"));
        assert!(sheddable("  eval  "));
        assert!(!sheddable("ANSWER yes"));
        assert!(!sheddable("QUIT"));
        assert!(!sheddable("START twig"));
        assert!(!sheddable(""));
    }

    #[test]
    fn token_bucket_refills_at_the_configured_rate() {
        let limit = RateLimit {
            burst: 2,
            per_sec: 1000.0,
        };
        let mut bucket = Bucket::full(&limit);
        assert!(bucket.take(&limit));
        assert!(bucket.take(&limit));
        // Drained. An immediate third take only succeeds if ≥1 ms elapsed (refill ≥ 1 token
        // at 1000/s) — force the deterministic branch by zeroing the clock credit.
        bucket.refilled = Instant::now();
        bucket.tokens = 0.0;
        assert!(!bucket.take(&limit));
        std::thread::sleep(Duration::from_millis(5));
        assert!(bucket.take(&limit), "elapsed time refills the bucket");
        // The bucket never overfills past its burst.
        std::thread::sleep(Duration::from_millis(10));
        bucket.take(&limit);
        assert!(bucket.tokens <= limit.burst as f64);
    }
}
