//! The multi-tenant session registry: id → boxed learner, mutex-sharded.
//!
//! Every open learning session — whichever connection it belongs to and whichever model it
//! learns — lives here as a `Box<dyn InteractiveLearner>` (the homogeneity the `qbe-core`
//! session trait exists for). The map is sharded across [`SHARDS`] mutexes keyed by session id,
//! so concurrent connections asking questions on different sessions never contend on one global
//! lock; a shard is held only for the duration of one command.
//!
//! Completed sessions fold into running aggregates: session, success and question counters,
//! plus how many sessions asked each distinct number of questions. That histogram grows with
//! the number of distinct counts, not with the sessions served, so a completion is one map
//! update and a `METRICS` request walks a few entries, never the service's whole history.
//! Question percentiles are nearest-rank ([`percentile_sorted`](qbe_core::percentile_sorted)),
//! the definition `exp_strategies` prints too.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use qbe_core::nearest_rank_index;
use qbe_core::session::{InteractiveLearner, Question, SessionError};

/// Number of mutex shards. A small power of two: enough to decorrelate a few hundred
/// concurrent connections, cheap to scan for the active-session count.
///
/// Shard locks recover from poisoning (`PoisonError::into_inner`): sessions are independent
/// map entries, so a learner that panicked under one lock must not take down every later
/// session that happens to hash to the same shard.
pub const SHARDS: usize = 8;

struct Entry {
    learner: Box<dyn InteractiveLearner>,
    started: Instant,
    /// Set once the session has been folded into the completed aggregates, so a session that
    /// converges *and* is later closed is counted exactly once.
    reported: bool,
    /// Set once the pending question has been served by an `ASK`; cleared by a recorded
    /// `ANSWER`. A second `ASK` while set is a *re-ask* (k-vote clients, or a resumed client
    /// re-fetching the question it lost) — counted in the `reasks=` METRICS counter.
    asked: bool,
}

/// Running aggregates over every completed session.
#[derive(Debug, Default)]
struct CompletedLog {
    sessions: usize,
    successes: usize,
    total_questions: usize,
    total_wall: Duration,
    /// Question count → how many completed sessions asked that many questions.
    sessions_by_questions: BTreeMap<usize, u64>,
}

impl CompletedLog {
    fn fold(&mut self, questions: usize, success: bool, wall: Duration) {
        self.sessions += 1;
        self.successes += usize::from(success);
        self.total_questions += questions;
        self.total_wall += wall;
        *self.sessions_by_questions.entry(questions).or_default() += 1;
    }

    /// The nearest-rank `p`-th percentile of the question counts: the value
    /// [`percentile_sorted`](qbe_core::percentile_sorted) reads from their sorted list.
    fn questions_percentile(&self, p: f64) -> Option<usize> {
        let ix = nearest_rank_index(self.sessions, p)? as u64;
        let mut upto = 0u64;
        self.sessions_by_questions
            .iter()
            .find_map(|(&questions, &n)| {
                upto += n;
                (upto > ix).then_some(questions)
            })
    }
}

/// A `METRICS` snapshot: aggregates over every session this registry has completed, plus the
/// service-health counters.
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// Sessions served to completion (converged or abandoned).
    pub sessions: usize,
    /// Sessions that converged with a consistent hypothesis.
    pub successes: usize,
    /// Total questions across all completed sessions.
    pub total_questions: usize,
    /// Nearest-rank median question count (`None` before the first completion).
    pub p50_questions: Option<usize>,
    /// Nearest-rank 95th-percentile question count.
    pub p95_questions: Option<usize>,
    /// Summed per-session wall time.
    pub total_wall: Duration,
    /// Registry uptime (the throughput denominator).
    pub uptime: Duration,
    /// Connections rejected at accept time (server at capacity).
    pub rejected: u64,
    /// Connections closed for missing the per-line deadline (idle or trickling).
    pub timeouts: u64,
    /// Requests shed by rate limiting or queue-depth load shedding.
    pub shed: u64,
    /// WAL records durably appended (0 when persistence is off).
    pub persisted: u64,
    /// Live sessions reconstructed from the WAL at the last boot.
    pub recovered: u64,
    /// Sessions re-attached across connections via `RESUME` (each one is a client retrying
    /// after a lost connection — or a recovery re-attach after a restart).
    pub retries: u64,
    /// `ASK`s that repeated an already-served pending question (k-vote re-asking, or a
    /// resumed client re-fetching the question whose reply it lost).
    pub reasks: u64,
    /// Faults fired by the server's injection registry (0 without a fault profile).
    pub faults_injected: u64,
    /// Requests whose execution panicked; each got `-ERR internal error` and lost its
    /// connection and session, and the worker kept serving.
    pub panics: u64,
}

impl ServiceMetrics {
    /// Mean question count (`None` before the first completion).
    pub fn mean_questions(&self) -> Option<f64> {
        if self.sessions == 0 {
            None
        } else {
            Some(self.total_questions as f64 / self.sessions as f64)
        }
    }

    /// Sessions served per second of uptime.
    pub fn throughput(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.sessions as f64 / secs
        }
    }
}

/// Registry of all live sessions plus the aggregates of completed ones.
pub struct SessionRegistry {
    shards: Vec<Mutex<HashMap<u64, Entry>>>,
    next_id: AtomicU64,
    completed: Mutex<CompletedLog>,
    opened: Instant,
    // Service-health counters, bumped lock-free from the accept path / reactor so counting a
    // rejection can never contend with the sessions it protects.
    rejected: AtomicU64,
    timeouts: AtomicU64,
    shed: AtomicU64,
    persisted: AtomicU64,
    recovered: AtomicU64,
    retries: AtomicU64,
    reasks: AtomicU64,
    panics: AtomicU64,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new()
    }
}

impl SessionRegistry {
    /// An empty registry; the metrics clock starts now.
    pub fn new() -> SessionRegistry {
        SessionRegistry {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            next_id: AtomicU64::new(1),
            completed: Mutex::new(CompletedLog::default()),
            opened: Instant::now(),
            rejected: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            persisted: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            reasks: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        }
    }

    /// Count a connection rejected at accept time (server at capacity).
    pub fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a connection closed for missing its per-line deadline.
    pub fn note_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a request shed by rate limiting or load shedding.
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a WAL record durably appended.
    pub fn note_persisted(&self) {
        self.persisted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record how many live sessions boot-time recovery reconstructed.
    pub fn set_recovered(&self, n: u64) {
        self.recovered.store(n, Ordering::Relaxed);
    }

    /// Count a session re-attached across connections via `RESUME`.
    pub fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a request whose execution panicked.
    pub fn note_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    fn shard(&self, id: u64) -> &Mutex<HashMap<u64, Entry>> {
        &self.shards[(id % SHARDS as u64) as usize]
    }

    /// Register a new session, returning its id.
    pub fn open(&self, learner: Box<dyn InteractiveLearner>) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.insert(id, learner);
        id
    }

    /// Register a recovered session under its original id (WAL replay). Later
    /// [`SessionRegistry::open`] calls allocate strictly beyond every recovered id, so a
    /// restarted server never reissues an id a client may still hold.
    pub fn open_with_id(&self, id: u64, learner: Box<dyn InteractiveLearner>) {
        self.insert(id, learner);
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
    }

    fn insert(&self, id: u64, learner: Box<dyn InteractiveLearner>) {
        let entry = Entry {
            learner,
            started: Instant::now(),
            reported: false,
            asked: false,
        };
        self.shard(id)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, entry);
    }

    /// Run `f` on the session's learner under its shard lock. `None` when the id is unknown.
    ///
    /// If the learner reports itself done afterwards, the session is folded into the completed
    /// aggregates (once).
    pub fn with_session<R>(
        &self,
        id: u64,
        f: impl FnOnce(&mut dyn InteractiveLearner) -> R,
    ) -> Option<R> {
        self.with_entry(id, |entry| f(entry.learner.as_mut()))
    }

    /// `ASK`: the pending question, or, once the session is complete, its question count and
    /// consistency. Serving a question again before an `ANSWER` counts a re-ask, under the
    /// same shard lock as the learner call. `None` when the id is unknown.
    pub fn ask(&self, id: u64) -> Option<Result<Question, (usize, bool)>> {
        self.with_entry(id, |entry| {
            let learner = entry.learner.as_mut();
            let Some(question) = learner.propose() else {
                return Err((learner.questions(), learner.consistent()));
            };
            if std::mem::replace(&mut entry.asked, true) {
                self.reasks.fetch_add(1, Ordering::Relaxed);
            }
            Ok(question)
        })
    }

    /// `ANSWER`: record the label and, if it is accepted, clear the re-ask flag under the same
    /// shard lock. `None` when the id is unknown.
    pub fn answer(&self, id: u64, positive: bool) -> Option<Result<(), SessionError>> {
        self.with_entry(id, |entry| {
            let recorded = entry.learner.answer(positive);
            if recorded.is_ok() {
                entry.asked = false;
            }
            recorded
        })
    }

    /// Run `f` on the session's entry under its shard lock, then fold the session into the
    /// completed aggregates if it has just completed.
    fn with_entry<R>(&self, id: u64, f: impl FnOnce(&mut Entry) -> R) -> Option<R> {
        let mut shard = self
            .shard(id)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = shard.get_mut(&id)?;
        let out = f(entry);
        if entry.learner.done() && !entry.reported {
            entry.reported = true;
            let (questions, success, wall) = Self::summary_of(entry);
            drop(shard);
            self.completed
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .fold(questions, success, wall);
        }
        Some(out)
    }

    /// Remove a session (client quit, connection dropped, replaced by a new `START`). An
    /// unfinished session still counts as a (failed) completion — abandonment is an outcome
    /// the service operator wants visible, not hidden.
    pub fn close(&self, id: u64) {
        let removed = self
            .shard(id)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
        if let Some(entry) = removed {
            if !entry.reported {
                let (questions, success, wall) = Self::summary_of(&entry);
                self.completed
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .fold(questions, success, wall);
            }
        }
    }

    fn summary_of(entry: &Entry) -> (usize, bool, Duration) {
        let learner = entry.learner.as_ref();
        let success = learner.done() && learner.consistent() && learner.hypothesis().is_some();
        (learner.questions(), success, entry.started.elapsed())
    }

    /// Number of live (not yet closed) sessions.
    pub fn active(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Snapshot the completed-session aggregates. O(1) apart from taking the lock.
    pub fn metrics(&self) -> ServiceMetrics {
        let log = self
            .completed
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        ServiceMetrics {
            sessions: log.sessions,
            successes: log.successes,
            total_questions: log.total_questions,
            p50_questions: log.questions_percentile(50.0),
            p95_questions: log.questions_percentile(95.0),
            total_wall: log.total_wall,
            uptime: self.opened.elapsed().max(Duration::from_micros(1)),
            rejected: self.rejected.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            persisted: self.persisted.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            reasks: self.reasks.load(Ordering::Relaxed),
            // Filled by the service from its fault registry; the session registry itself
            // never injects anything.
            faults_injected: 0,
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbe_core::session::drive;
    use qbe_core::twig::{parse_xpath, NodeStrategy};
    use qbe_core::xml::{parse_xml, NodeIndex};
    use qbe_core::TwigInteractive;
    use std::sync::Arc;

    fn learner() -> Box<dyn InteractiveLearner> {
        let docs = Arc::new(vec![parse_xml("<a><b><c/></b><b/></a>").unwrap()]);
        let indexes = Arc::new(docs.iter().map(NodeIndex::build).collect::<Vec<_>>());
        Box::new(
            TwigInteractive::with_shared(docs, indexes, NodeStrategy::DocumentOrder, 0)
                .with_goal(parse_xpath("//c").unwrap()),
        )
    }

    #[test]
    fn sessions_are_found_and_closed() {
        let reg = SessionRegistry::new();
        let id = reg.open(learner());
        assert_eq!(reg.active(), 1);
        assert_eq!(reg.with_session(id, |l| l.kind()), Some("twig"));
        assert_eq!(reg.with_session(id + 999, |l| l.kind()), None);
        reg.close(id);
        assert_eq!(reg.active(), 0);
        // Abandoned mid-flight: counted as a (failed) session.
        let metrics = reg.metrics();
        assert_eq!(metrics.sessions, 1);
        assert_eq!(metrics.successes, 0);
    }

    #[test]
    fn completed_sessions_are_reported_exactly_once() {
        let reg = SessionRegistry::new();
        let id = reg.open(learner());
        reg.with_session(id, drive).unwrap();
        assert_eq!(reg.metrics().sessions, 1, "reported on completion");
        // Further queries and the eventual close must not double-count.
        reg.with_session(id, |l| l.questions()).unwrap();
        reg.close(id);
        let metrics = reg.metrics();
        assert_eq!(metrics.sessions, 1);
        assert_eq!(metrics.successes, 1);
        assert!(metrics.total_wall > Duration::ZERO);
        assert!(metrics.throughput() > 0.0);
    }

    #[test]
    fn percentiles_track_the_question_distribution() {
        // Aggregates must match the nearest-rank definition of `percentile_sorted`.
        let reg = SessionRegistry::new();
        let ids: Vec<u64> = (0..5).map(|_| reg.open(learner())).collect();
        for id in &ids {
            reg.with_session(*id, drive).unwrap();
        }
        let per_session = reg.metrics().total_questions / 5;
        let metrics = reg.metrics();
        // All five sessions are identical, so every percentile is that common count.
        assert_eq!(metrics.p50_questions, Some(per_session));
        assert_eq!(metrics.p95_questions, Some(per_session));
        assert_eq!(metrics.mean_questions(), Some(per_session as f64));
    }

    proptest::proptest! {
        #[test]
        fn question_percentiles_equal_the_sorted_list_percentiles(
            questions in proptest::collection::vec(0usize..40, 0..200),
        ) {
            let mut log = CompletedLog::default();
            for &q in &questions {
                log.fold(q, true, Duration::ZERO);
            }
            let mut sorted = questions.clone();
            sorted.sort_unstable();
            for p in [0.0, 50.0, 95.0, 100.0] {
                proptest::prop_assert_eq!(
                    log.questions_percentile(p),
                    qbe_core::percentile_sorted(&sorted, p),
                    "p{}", p
                );
            }
        }
    }

    #[test]
    fn health_counters_accumulate_independently_of_sessions() {
        let reg = SessionRegistry::new();
        reg.note_rejected();
        reg.note_rejected();
        reg.note_timeout();
        reg.note_shed();
        reg.note_shed();
        reg.note_shed();
        reg.note_panic();
        let metrics = reg.metrics();
        assert_eq!(metrics.rejected, 2);
        assert_eq!(metrics.timeouts, 1);
        assert_eq!(metrics.shed, 3);
        assert_eq!(metrics.panics, 1);
        assert_eq!(metrics.sessions, 0, "counters are not sessions");
    }

    #[test]
    fn recovered_ids_push_the_allocator_forward() {
        let reg = SessionRegistry::new();
        reg.open_with_id(7, learner());
        reg.open_with_id(3, learner());
        assert_eq!(reg.active(), 2);
        assert_eq!(reg.with_session(7, |l| l.kind()), Some("twig"));
        let fresh = reg.open(learner());
        assert!(fresh > 7, "fresh ids never collide with recovered ones");
        let metrics = reg.metrics();
        assert_eq!(metrics.persisted, 0);
        assert_eq!(metrics.recovered, 0);
        reg.note_persisted();
        reg.set_recovered(2);
        let metrics = reg.metrics();
        assert_eq!(metrics.persisted, 1);
        assert_eq!(metrics.recovered, 2);
    }

    #[test]
    fn reask_tracking_counts_repeats_until_an_answer_clears_them() {
        let reg = SessionRegistry::new();
        let id = reg.open(learner());
        let reasks = || reg.metrics().reasks;
        let first = reg
            .ask(id)
            .unwrap()
            .expect("a fresh session has a question");
        assert_eq!(reasks(), 0, "first ask serves a fresh question");
        assert_eq!(reg.ask(id).unwrap(), Ok(first), "second ask repeats it");
        assert_eq!(reasks(), 1, "second ask is a re-ask");
        reg.ask(id).unwrap().unwrap();
        assert_eq!(reasks(), 2, "and so is the third");
        // The root is not among the goal's answers: the session goes on after it.
        assert_eq!(reg.answer(id, false), Some(Ok(())));
        assert!(reg.ask(id).unwrap().is_ok());
        assert_eq!(reasks(), 2, "an answer resets the cycle");
        assert!(reg.ask(id + 999).is_none(), "unknown ids are a no-op");
        assert!(reg.answer(id + 999, true).is_none());
        reg.note_retry();
        let metrics = reg.metrics();
        assert_eq!(metrics.reasks, 2);
        assert_eq!(metrics.retries, 1);
        assert_eq!(metrics.faults_injected, 0);
    }

    #[test]
    fn ids_are_unique_across_shards() {
        let reg = SessionRegistry::new();
        let ids: Vec<u64> = (0..32).map(|_| reg.open(learner())).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        assert_eq!(reg.active(), 32);
    }
}
