//! A resilient protocol client: per-request timeouts, bounded exponential backoff with
//! seeded jitter, and transparent reconnect + `RESUME` — so a goal-driven session survives
//! injected connection drops with zero manual intervention. Real drops are not survivable
//! yet: without a fault profile the server closes a session when its connection goes
//! (`ProtoState::teardown`), so the `RESUME` after a real drop gets `-ERR unknown session`.
//!
//! [`drive_goal_session_resilient`] is the workspace's one goal-driven session loop over the
//! wire; [`drive_goal_session`](crate::client::drive_goal_session) runs it with a one-attempt
//! [`RetryPolicy`]. [`ResilientClient`] runs the plain [`Client`]'s requests inside its retry
//! loop, so both build the same request lines and parse the same replies.
//!
//! # Error classification
//!
//! The protocol splits failures into two classes (see `PROTOCOL.md`):
//!
//! * **retryable** — transport errors ([`ClientError::Io`]) and every `-ERR … retry later`
//!   reply (`server at capacity`, `overloaded`, `rate limit exceeded`). The client backs
//!   off and tries again, reconnecting first when the transport broke.
//! * **fatal** — every other `-ERR` (unknown corpus, bad command, protocol misuse) and
//!   malformed replies. Retrying cannot help; the error surfaces immediately.
//!
//! # The `ANSWER` ambiguity
//!
//! Losing a connection *after* a request went out leaves the client unsure whether the
//! request executed. For idempotent requests (`ASK` repeats the pending question; `QUERY`,
//! `EVAL`, `METRICS` are reads) a plain resend is safe. `ANSWER` is the one request that
//! advances the session, so [`ResilientClient::answer`] disambiguates: after a transport
//! failure it re-attaches via `RESUME` and probes with `ASK` — if the pending question is
//! unchanged the answer was lost (resend it); if the question moved on or the session
//! completed, the answer landed and the lost reply is forgotten.
//!
//! # Client-side fault injection
//!
//! With a [`FaultRegistry`] attached, the client breaks its *own* socket at two seams,
//! mirroring the server's [`FAULT_SITE_DROP`](crate::server::FAULT_SITE_DROP):
//! [`FAULT_SITE_CLIENT_DROP`] kills the link before a request goes out (the easy case —
//! nothing executed), [`FAULT_SITE_CLIENT_DROP_REPLY`] after (the hard case — executed,
//! reply lost). Both fire only for `ASK`/`ANSWER` lines so session bookkeeping requests
//! stay deterministic.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use qbe_core::faults::{injected_io_error, FaultRegistry};
use qbe_core::MajorityVote;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{
    local_corpus, parse_ask_reply, AskReply, Client, ClientError, Goal, GoalEvaluator,
    GoalSessionOutcome,
};
use crate::protocol::Model;

type Result<T> = std::result::Result<T, ClientError>;

/// Client fault site: the connection is torn down *before* a request line goes out —
/// nothing executed server-side, so a reconnect + resend is trivially safe.
pub const FAULT_SITE_CLIENT_DROP: &str = "client.drop";

/// Client fault site: the connection is torn down *after* the request line went out but
/// before its reply is read — the request executed, its reply is lost. `ANSWER` under this
/// fault is the case [`ResilientClient::answer`]'s probe logic exists for.
pub const FAULT_SITE_CLIENT_DROP_REPLY: &str = "client.drop_reply";

/// When to give up and how fast to come back: the retry/backoff tunables of a
/// [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per logical request, the first included. `1` disables retrying.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Socket read/write deadline per request — a server that stops replying is treated as
    /// a transport failure (retryable) after this long, not waited on forever.
    pub request_timeout: Duration,
    /// Seed of the jitter stream. Same seed, same jittered delays — fault schedules stay
    /// reproducible end to end.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            request_timeout: Duration::from_secs(5),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The pause before retry number `retry` (1-based): `base · 2^(retry-1)` capped at
    /// [`max_delay`](RetryPolicy::max_delay), then jittered to 50–100% of itself so herds
    /// of retrying clients decorrelate. Deterministic given the `rng` stream.
    fn backoff(&self, retry: u32, rng: &mut StdRng) -> Duration {
        let exp = retry.saturating_sub(1).min(20);
        let full = self
            .base_delay
            .saturating_mul(1u32 << exp)
            .min(self.max_delay);
        full.mul_f64(0.5 + 0.5 * rng.gen_range(0.0..1.0))
    }
}

/// Is this failure worth retrying? Transport errors always are (the link is rebuilt and
/// the session resumed); `-ERR` replies only when the server itself says `retry later`.
/// Everything else — protocol misuse, unknown names, malformed replies — is fatal.
pub fn is_retryable(err: &ClientError) -> bool {
    match err {
        ClientError::Io(_) => true,
        ClientError::Server(msg) => msg.contains("retry later"),
        ClientError::UnexpectedReply(_) => false,
    }
}

/// A [`Client`] wrapper that retries, reconnects and resumes per [`RetryPolicy`].
///
/// The wrapper pins one server address, one corpus, and at most one session: after
/// [`start`](ResilientClient::start), every reconnect re-attaches that session with
/// `RESUME` before the failed request is retried.
pub struct ResilientClient {
    addr: SocketAddr,
    corpus: String,
    policy: RetryPolicy,
    jitter: StdRng,
    faults: Option<Arc<FaultRegistry>>,
    client: Option<Client>,
    session_id: Option<u64>,
    reconnects: u64,
    retried_requests: u64,
}

impl ResilientClient {
    /// Resolve `addr`, connect, and attach to `corpus` (both with retry/backoff).
    pub fn new(
        addr: impl ToSocketAddrs,
        corpus: &str,
        policy: RetryPolicy,
    ) -> Result<ResilientClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Io(io::Error::other("address resolved to nothing")))?;
        let jitter = StdRng::seed_from_u64(policy.seed);
        let mut rc = ResilientClient {
            addr,
            corpus: corpus.to_string(),
            policy,
            jitter,
            faults: None,
            client: None,
            session_id: None,
            reconnects: 0,
            retried_requests: 0,
        };
        rc.with_retry(|rc| {
            rc.ensure_connected()?;
            Ok(())
        })?;
        Ok(rc)
    }

    /// Attach a fault registry: the client starts sabotaging its own `ASK`/`ANSWER`
    /// requests at [`FAULT_SITE_CLIENT_DROP`] / [`FAULT_SITE_CLIENT_DROP_REPLY`].
    pub fn set_faults(&mut self, faults: Arc<FaultRegistry>) {
        self.faults = Some(faults);
    }

    /// Reconnect + `RESUME` re-attaches performed so far — the client-side view of the
    /// server's `retries=` METRICS counter.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Individual request attempts beyond the first, across all requests.
    pub fn retried_requests(&self) -> u64 {
        self.retried_requests
    }

    fn fire(&self, site: &str) -> bool {
        self.faults.as_ref().is_some_and(|f| f.fire(site))
    }

    /// Connection gone or suspect: drop it so the next attempt dials fresh.
    fn disconnect(&mut self) {
        if let Some(client) = self.client.take() {
            client.shutdown();
        }
    }

    /// Dial, greet, re-attach corpus and (when one is open) session. One attempt — the
    /// callers' retry loops provide the backoff.
    fn ensure_connected(&mut self) -> Result<&mut Client> {
        if self.client.is_none() {
            let mut client = Client::connect_with_timeouts(
                self.addr,
                self.policy.request_timeout,
                self.policy.request_timeout,
            )?;
            client.corpus(&self.corpus)?;
            if let Some(id) = self.session_id {
                client.resume(id)?;
                self.reconnects += 1;
            }
            self.client = Some(client);
        }
        Ok(self.client.as_mut().expect("connection just ensured"))
    }

    /// One request attempt with the client-side fault seams around it. Only `ASK` and
    /// `ANSWER` lines are sabotaged (mirroring the server's drop site), so the session
    /// bookkeeping around them stays on the happy path.
    fn attempt(&mut self, line: &str) -> Result<String> {
        let faultable = {
            let head = line.split_whitespace().next().unwrap_or("");
            head.eq_ignore_ascii_case("ASK") || head.eq_ignore_ascii_case("ANSWER")
        };
        if faultable && self.fire(FAULT_SITE_CLIENT_DROP) {
            self.disconnect();
            return Err(ClientError::Io(injected_io_error(FAULT_SITE_CLIENT_DROP)));
        }
        let drop_reply = faultable && self.fire(FAULT_SITE_CLIENT_DROP_REPLY);
        let client = self.ensure_connected()?;
        client.send_line(line)?;
        if drop_reply {
            client.shutdown();
        }
        client.receive_checked()
    }

    /// Classify-and-retry loop shared by every request: retryable failures back off
    /// (dropping the connection first when the transport broke), fatal ones surface.
    fn with_retry<T>(&mut self, mut f: impl FnMut(&mut ResilientClient) -> Result<T>) -> Result<T> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match f(self) {
                Ok(v) => return Ok(v),
                Err(e) if attempt < self.policy.max_attempts.max(1) && is_retryable(&e) => {
                    if matches!(e, ClientError::Io(_)) {
                        self.disconnect();
                    }
                    self.retried_requests += 1;
                    let pause = self.policy.backoff(attempt, &mut self.jitter);
                    thread::sleep(pause);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// `START <model> [params]` — open the session every later reconnect re-attaches.
    pub fn start(&mut self, model: Model, params: &[(&str, &str)]) -> Result<u64> {
        let id = self.with_retry(|rc| rc.ensure_connected()?.start(model, params))?;
        self.session_id = Some(id);
        Ok(id)
    }

    /// `ASK` with retry — safe to resend because the server repeats the pending question
    /// until it is answered (each repeat shows up in the server's `reasks=` counter).
    pub fn ask(&mut self) -> Result<AskReply> {
        let reply = self.with_retry(|rc| rc.attempt("ASK"))?;
        parse_ask_reply(&reply)
    }

    /// `ANSWER yes|no`, disambiguating lost replies. `question` is the pending question's
    /// fields (as returned by [`ask`](ResilientClient::ask)): after a transport failure the
    /// client re-attaches and probes with `ASK` — same question ⇒ the answer was lost,
    /// resend; anything else ⇒ it landed, the lost `+OK` is forgotten.
    pub fn answer(&mut self, positive: bool, question: &[(String, String)]) -> Result<()> {
        let line = if positive { "ANSWER yes" } else { "ANSWER no" };
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.attempt(line) {
                Ok(_) => return Ok(()),
                Err(e) if attempt < self.policy.max_attempts.max(1) && is_retryable(&e) => {
                    let transport = matches!(e, ClientError::Io(_));
                    if transport {
                        self.disconnect();
                    }
                    self.retried_requests += 1;
                    let pause = self.policy.backoff(attempt, &mut self.jitter);
                    thread::sleep(pause);
                    if transport {
                        // Did the lost ANSWER land? Probe the pending question.
                        match self.ask()? {
                            AskReply::Question(fields) if fields == question => {} // lost: resend
                            _ => return Ok(()), // session advanced: it landed
                        }
                    }
                    // A `-ERR … retry later` means the request never executed: plain resend.
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// `QUERY` — the current hypothesis text.
    pub fn query(&mut self) -> Result<String> {
        self.with_retry(|rc| rc.ensure_connected()?.query())
    }

    /// `EVAL` — answer-set size of the current hypothesis.
    pub fn eval(&mut self) -> Result<usize> {
        self.with_retry(|rc| rc.ensure_connected()?.eval())
    }

    /// `QUIT` — a transport failure after the goodbye went out still counts as success
    /// (the connection is gone either way, which is what QUIT wanted).
    pub fn quit(&mut self) -> Result<()> {
        match self.with_retry(|rc| rc.attempt("QUIT")) {
            Ok(_) | Err(ClientError::Io(_)) => {
                self.session_id = None;
                self.disconnect();
                Ok(())
            }
            Err(e) => Err(e),
        }
    }
}

/// The simulated unreliable user: labels flip with probability `p`, and each question is
/// (locally) re-asked `votes` times with the majority sent as the one wire `ANSWER` — the
/// k-vote [`MajorityVote`], budget-aware because only that committed answer consumes the
/// session's question budget. Pick `votes` with [`qbe_core::votes_for_session`] to push the
/// whole session's error probability below a target δ.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    /// Per-vote flip probability (0 ≤ p < ½).
    pub p: f64,
    /// Votes per question; even values are rounded up to the next odd by the driver.
    pub votes: usize,
    /// Seed of the flip stream — same seed, same noise, same transcript.
    pub seed: u64,
}

impl NoiseModel {
    /// A model whose vote count is chosen so that *all* `questions` majority answers are
    /// simultaneously correct with probability ≥ 1 − δ (union bound; exact binomial tail).
    pub fn with_bound(p: f64, delta: f64, questions: usize, seed: u64) -> NoiseModel {
        NoiseModel {
            p,
            votes: qbe_core::votes_for_session(p, delta, questions),
            seed,
        }
    }
}

/// What [`drive_goal_session_resilient`] observed: the ordinary outcome plus the
/// resilience/noise counters.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// The session outcome, as [`drive_goal_session`](crate::client::drive_goal_session)
    /// reports it.
    pub session: GoalSessionOutcome,
    /// Reconnect + `RESUME` re-attaches the client performed.
    pub reconnects: u64,
    /// Request attempts beyond the first, across all requests.
    pub retried_requests: u64,
    /// Local votes cast by the noise model (0 without one).
    pub votes_cast: u64,
    /// Votes the noise flipped away from the truth.
    pub flips: u64,
}

/// The goal-driven protocol loop: `START`, then `ASK` → label → `ANSWER` until `+DONE`, then
/// `QUERY` and `EVAL`. Requests go through a [`ResilientClient`] (timeouts, backoff,
/// reconnect + `RESUME`, as `policy` sets them) and answers optionally through a noisy
/// majority-voting user model. With `faults` attached the client additionally sabotages
/// its own socket — the acceptance tests drive all three learner models to convergence
/// this way over real TCP. [`drive_goal_session`](crate::client::drive_goal_session) is
/// this loop with one attempt per request.
pub fn drive_goal_session_resilient(
    addr: impl ToSocketAddrs,
    corpus: &str,
    goal: &Goal,
    start_params: &[(&str, &str)],
    policy: RetryPolicy,
    noise: Option<&NoiseModel>,
    faults: Option<Arc<FaultRegistry>>,
) -> Result<ResilientOutcome> {
    let local = local_corpus(corpus).ok_or_else(|| {
        ClientError::Server(format!("unknown corpus {corpus:?} (client-side build)"))
    })?;
    let mut evaluator = GoalEvaluator::new(&local, goal)?;
    let mut client = ResilientClient::new(addr, corpus, policy)?;
    if let Some(f) = faults {
        client.set_faults(f);
    }
    let mut vote = noise.map(|n| MajorityVote::new(n.p, n.votes, n.seed));

    let mut params: Vec<(&str, &str)> = start_params.to_vec();
    if let Goal::GraphPairs(class) = goal {
        params.push(("class", class.wire_name()));
    }
    let session_id = client.start(evaluator.model(), &params)?;

    let mut answered = 0usize;
    let (questions, consistent) = loop {
        match client.ask()? {
            AskReply::Done {
                questions,
                consistent,
            } => break (questions, consistent),
            AskReply::Question(fields) => {
                let truth = evaluator.label(&fields)?;
                let positive = vote.as_mut().map_or(truth, |v| v.answer(truth));
                client.answer(positive, &fields)?;
                answered += 1;
            }
        }
    };
    debug_assert_eq!(
        answered, questions,
        "server and client count questions alike"
    );
    let hypothesis = client.query()?;
    let answer_set_size = client.eval()?;
    let reconnects = client.reconnects();
    let retried_requests = client.retried_requests();
    client.quit()?;
    Ok(ResilientOutcome {
        session: GoalSessionOutcome {
            session_id,
            questions,
            consistent,
            hypothesis,
            answer_set_size,
        },
        reconnects,
        retried_requests,
        votes_cast: vote.as_ref().map_or(0, MajorityVote::votes),
        flips: vote.as_ref().map_or(0, MajorityVote::flips),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_classification_is_explicit() {
        // Retryable: the three `retry later` server replies, and any transport failure.
        for msg in [
            "server at capacity, retry later",
            "overloaded, retry later",
            "rate limit exceeded, retry later",
        ] {
            assert!(is_retryable(&ClientError::Server(msg.to_string())), "{msg}");
        }
        assert!(is_retryable(&ClientError::Io(io::Error::other("boom"))));
        // Fatal: every other -ERR and malformed replies.
        for msg in [
            "unknown corpus \"nope\"",
            "unsupported protocol command",
            "no open session (use START)",
        ] {
            assert!(
                !is_retryable(&ClientError::Server(msg.to_string())),
                "{msg}"
            );
        }
        assert!(!is_retryable(&ClientError::UnexpectedReply("?".into())));
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
            seed: 42,
            ..RetryPolicy::default()
        };
        let delays: Vec<Duration> = {
            let mut rng = StdRng::seed_from_u64(policy.seed);
            (1..=6).map(|i| policy.backoff(i, &mut rng)).collect()
        };
        // Jitter keeps each delay within [50%, 100%] of the capped exponential step.
        for (i, d) in delays.iter().enumerate() {
            let full = Duration::from_millis(10 << i).min(Duration::from_millis(80));
            assert!(*d <= full, "retry {}: {d:?} > {full:?}", i + 1);
            assert!(*d >= full / 2, "retry {}: {d:?} < half of {full:?}", i + 1);
        }
        // Same seed, same stream: the schedule is reproducible.
        let again: Vec<Duration> = {
            let mut rng = StdRng::seed_from_u64(policy.seed);
            (1..=6).map(|i| policy.backoff(i, &mut rng)).collect()
        };
        assert_eq!(delays, again);
    }

    #[test]
    fn noise_model_bound_scales_votes_with_noise_and_stakes() {
        let quiet = NoiseModel::with_bound(0.0, 0.01, 50, 7);
        assert_eq!(quiet.votes, 1, "no noise, no re-asking");
        let mild = NoiseModel::with_bound(0.1, 0.01, 50, 7);
        let loud = NoiseModel::with_bound(0.2, 0.01, 50, 7);
        assert!(mild.votes >= 3);
        assert!(loud.votes > mild.votes, "more noise, more votes");
        let long = NoiseModel::with_bound(0.2, 0.01, 500, 7);
        assert!(
            long.votes >= loud.votes,
            "more questions to protect, no fewer votes"
        );
    }
}
