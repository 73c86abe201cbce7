//! The closed-loop load generator: one client thread per core, each running one session at a
//! time over its own connection and timing every request.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qbe_server::{AskReply, Client};

use crate::sessions::{GoalBook, SessionSpec};
use crate::stats::{median, percentile, ratio};

/// The request a timing belongs to (`Connect` covers the TCP connect and the greeting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Connect,
    Corpus,
    Start,
    Ask,
    Answer,
    Query,
    Eval,
    Quit,
}

impl Verb {
    /// The span name of the request.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Connect => "connect",
            Verb::Corpus => "CORPUS",
            Verb::Start => "START",
            Verb::Ask => "ASK",
            Verb::Answer => "ANSWER",
            Verb::Query => "QUERY",
            Verb::Eval => "EVAL",
            Verb::Quit => "QUIT",
        }
    }
}

/// One timed client call, in nanoseconds since the loop's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub verb: Verb,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Request {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// What a traced session keeps beyond its timings: every request span and the exchange the
/// in-process replay must reproduce.
#[derive(Debug, Clone, Default)]
pub struct Transcript {
    pub session_id: u64,
    pub requests: Vec<Request>,
    /// The `+ASK` payloads, in order.
    pub asks: Vec<String>,
    /// The answers sent, aligned with `asks`.
    pub answers: Vec<bool>,
    pub hypothesis: String,
    pub eval: usize,
}

/// One completed (or failed) session.
#[derive(Debug, Clone)]
pub struct SessionRun {
    /// Position in the loop's session stream; `ordinal % pass_len` is the spec index.
    pub ordinal: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Every question wait, in ms: from sending `START`/`ANSWER` to holding `+ASK`/`+DONE`.
    pub waits_ms: Vec<f64>,
    pub questions: usize,
    /// Why verification failed, if it did.
    pub error: Option<String>,
    /// Present in traced loops only.
    pub transcript: Option<Transcript>,
}

impl SessionRun {
    pub fn session_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A measurement window holds at least this many waits, so its p95 has fifty beyond it.
const WINDOW_MIN_WAITS: usize = 1000;

/// Everything one loop measured.
pub struct LoopResult {
    /// Every session, in ordinal order.
    pub sessions: Vec<SessionRun>,
    pub pass_len: usize,
    pub clients: usize,
    pub wall_s: f64,
    /// The instant every `*_ns` offset of the loop counts from.
    pub epoch: Instant,
}

impl LoopResult {
    /// The verified sessions in windows of consecutive whole passes, each window the fewest
    /// passes holding `WINDOW_MIN_WAITS` waits (a short remainder joins the last window).
    /// Every window has the seed's session mix, so a per-window statistic varies only with the
    /// machine; interference from outside the benchmark comes in bursts, and the median over
    /// windows ignores the few it hits.
    pub fn windows(&self) -> Vec<Vec<&SessionRun>> {
        let mut windows: Vec<Vec<&SessionRun>> = Vec::new();
        let mut current: Vec<&SessionRun> = Vec::new();
        for pass in self.sessions.chunks(self.pass_len) {
            current.extend(pass.iter().filter(|r| r.error.is_none()));
            if current.iter().map(|r| r.waits_ms.len()).sum::<usize>() >= WINDOW_MIN_WAITS {
                windows.push(std::mem::take(&mut current));
            }
        }
        match windows.last_mut() {
            Some(last) => last.extend(current),
            None => windows.push(current),
        }
        windows
    }

    /// Verified sessions per second of the loop: per window, clients × sessions ÷ summed
    /// session time — in a closed loop each client runs sessions back to back, so this is the
    /// completion rate without the idle tail while the last client finishes — and the median
    /// over windows.
    pub fn sessions_per_s(&self) -> f64 {
        let per_window: Vec<f64> = self
            .windows()
            .iter()
            .map(|w| {
                let busy_s: f64 = w.iter().map(|r| r.session_ms() / 1e3).sum();
                ratio(self.clients as f64 * w.len() as f64, busy_s)
            })
            .collect();
        median(&per_window)
    }

    /// The median over windows of each window's `p`-th percentile wait.
    pub fn wait_ms(&self, p: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows()
            .iter()
            .map(|w| {
                let waits: Vec<f64> = w.iter().flat_map(|r| r.waits_ms.iter().copied()).collect();
                percentile(&waits, p)
            })
            .collect();
        median(&per_window)
    }
}

/// Hands out session ordinals until time is up, in whole passes of the list: once the loop
/// has run `duration`, the first ordinal of the next pass is refused, and every later one.
struct Dispatch {
    pass_len: usize,
    duration: Duration,
    epoch: Instant,
    /// The next ordinal, and whether the loop has stopped.
    state: Mutex<(usize, bool)>,
}

impl Dispatch {
    fn take(&self) -> Option<usize> {
        let mut state = self.state.lock().expect("dispatch lock never poisoned");
        let (next, stopped) = &mut *state;
        let pass_boundary = *next > 0 && *next % self.pass_len == 0;
        if *stopped || (pass_boundary && self.epoch.elapsed() >= self.duration) {
            *stopped = true;
            return None;
        }
        *next += 1;
        Some(*next - 1)
    }
}

/// Run the closed loop: `clients` threads, each taking the next session of the cyclic list
/// until the loop has run `duration` and the current pass is complete.
pub fn run_loop(
    addr: SocketAddr,
    corpus: &str,
    specs: &[SessionSpec],
    book: &GoalBook<'_>,
    clients: usize,
    duration: Duration,
    traced: bool,
) -> LoopResult {
    let dispatch = Dispatch {
        pass_len: specs.len(),
        duration,
        epoch: Instant::now(),
        state: Mutex::new((0, false)),
    };
    let per_client: Vec<Vec<SessionRun>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let dispatch = &dispatch;
                let mut book = book.clone();
                scope.spawn(move || {
                    let mut runs = Vec::new();
                    while let Some(ordinal) = dispatch.take() {
                        let spec = &specs[ordinal % specs.len()];
                        let mut run =
                            run_session(addr, corpus, spec, &mut book, dispatch.epoch, traced);
                        run.ordinal = ordinal;
                        runs.push(run);
                    }
                    runs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = dispatch.epoch.elapsed().as_secs_f64();
    let mut sessions: Vec<SessionRun> = per_client.into_iter().flatten().collect();
    sessions.sort_by_key(|r| r.ordinal);
    LoopResult {
        sessions,
        pass_len: specs.len(),
        clients,
        wall_s,
        epoch: dispatch.epoch,
    }
}

/// Times client calls and, in traced loops, keeps one span per call.
struct Recorder {
    epoch: Instant,
    traced: bool,
    requests: Vec<Request>,
}

impl Recorder {
    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn call<T, E: std::fmt::Display>(
        &mut self,
        verb: Verb,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, String> {
        let start = Instant::now();
        let out = f();
        if self.traced {
            let end = Instant::now();
            self.requests.push(Request {
                verb,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
        out.map_err(|e| format!("{}: {e}", verb.name()))
    }
}

fn render_fields(fields: &[(String, String)]) -> String {
    let parts: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    parts.join(" ")
}

/// One session over its own connection, verified: `+DONE consistent=true`, a `QUERY`
/// hypothesis, `EVAL` equal to the goal's answer-set size where the goal has one, and no
/// `-ERR` or transport error anywhere.
fn run_session(
    addr: SocketAddr,
    corpus: &str,
    spec: &SessionSpec,
    book: &mut GoalBook<'_>,
    epoch: Instant,
    traced: bool,
) -> SessionRun {
    let mut rec = Recorder {
        epoch,
        traced,
        requests: Vec::new(),
    };
    let mut transcript = Transcript::default();
    let mut waits_ms = Vec::new();
    let mut wait_done = |from: Instant| waits_ms.push(from.elapsed().as_secs_f64() * 1e3);
    let start = Instant::now();
    let outcome = (|| -> Result<usize, String> {
        let mut client = rec.call(Verb::Connect, || Client::connect(addr))?;
        rec.call(Verb::Corpus, || client.corpus(corpus))?;
        let params: Vec<(&str, &str)> = spec
            .params
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let mut wait_from = Instant::now();
        transcript.session_id = rec.call(Verb::Start, || client.start(spec.model(), &params))?;
        let mut answered = 0usize;
        let (questions, consistent) = loop {
            match rec.call(Verb::Ask, || client.ask())? {
                AskReply::Done {
                    questions,
                    consistent,
                } => {
                    wait_done(wait_from);
                    break (questions, consistent);
                }
                AskReply::Question(fields) => {
                    wait_done(wait_from);
                    let positive = book.label(&spec.goal, &fields)?;
                    if traced {
                        transcript.asks.push(render_fields(&fields));
                        transcript.answers.push(positive);
                    }
                    wait_from = Instant::now();
                    rec.call(Verb::Answer, || client.answer(positive))?;
                    answered += 1;
                }
            }
        };
        transcript.hypothesis = rec.call(Verb::Query, || client.query())?;
        transcript.eval = rec.call(Verb::Eval, || client.eval())?;
        rec.call(Verb::Quit, || client.quit())?;
        if !consistent {
            return Err("+DONE consistent=false".to_string());
        }
        if questions != answered {
            return Err(format!(
                "+DONE questions={questions}, but {answered} answered"
            ));
        }
        if transcript.hypothesis.trim().is_empty() {
            return Err("QUERY returned no hypothesis".to_string());
        }
        if let Some(expected) = book.expected_eval(&spec.goal) {
            if transcript.eval != expected {
                return Err(format!(
                    "EVAL {} differs from the goal's {expected} answers",
                    transcript.eval
                ));
            }
        }
        Ok(answered)
    })();
    let end = Instant::now();
    let (questions, error) = match outcome {
        Ok(questions) => (questions, None),
        Err(why) => (
            transcript.answers.len(),
            Some(format!("{}: {why}", spec.label())),
        ),
    };
    transcript.requests = rec.requests;
    SessionRun {
        ordinal: 0,
        start_ns: start.duration_since(epoch).as_nanos() as u64,
        end_ns: end.duration_since(epoch).as_nanos() as u64,
        waits_ms,
        questions,
        error,
        transcript: traced.then_some(transcript),
    }
}
