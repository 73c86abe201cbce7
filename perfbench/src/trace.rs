//! The traced run's second half: spans, the in-process replay that ties every server request
//! to the learner call doing the same work, the store's write and read paths, and the
//! per-layer metrics computed from all of them.
//!
//! Spans are recorded from the benchmark's own code, around the calls into each layer's
//! public functions; nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qbe_core::graph::PathStrategy;
use qbe_core::relational::Strategy as JoinPreset;
use qbe_core::store::{wal, CorpusSnapshot, FileBackend, SnapshotReader, WalRecord};
use qbe_core::twig::NodeStrategy;
use qbe_core::{
    GraphQueryInteractive, InteractiveLearner, JoinInteractive, PathInteractive, PoolView,
    SessionConfig, Strategy, TwigInteractive,
};
use qbe_server::{build_corpus, Corpus, Goal};

use crate::load::{LoopResult, Request, SessionRun, Verb};
use crate::sessions::{SessionSpec, PATH_MAX_EDGES};
use crate::stats::{mean, median, percentile, ratio, Metrics};

/// Repetitions of the in-process store and corpus timings; the median is reported.
const REPEATS: usize = 5;

/// One span: a name, its interval on the traced loop's clock, the span that caused it, and
/// the server session it belongs to.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    session: u64,
}

#[derive(Default)]
struct SpanLog(Vec<Span>);

impl SpanLog {
    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        session: u64,
    ) -> usize {
        self.0.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            session,
        });
        self.0.len() - 1
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.0.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"session\": {}}}",
                s.name, s.start_ns, s.end_ns, s.session
            )?;
        }
        out.flush()
    }
}

/// Counts of one benchmark-owned [`Strategy`] decorator: `pick` calls, the candidate rows
/// they were shown, and the time they took.
#[derive(Debug, Default, Clone, Copy)]
struct PickStats {
    picks: u64,
    rows: u64,
    pick_ns: u64,
}

/// Wraps a model's flagship preset, forwarding every call, and counts what it was asked to do.
#[derive(Debug)]
struct Counted {
    inner: Box<dyn Strategy>,
    stats: Arc<Mutex<PickStats>>,
}

impl Strategy for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pick(&mut self, pool: &PoolView<'_>) -> Option<usize> {
        let start = Instant::now();
        let pick = self.inner.pick(pool);
        let ns = start.elapsed().as_nanos() as u64;
        let mut stats = self.stats.lock().expect("pick stats lock never poisoned");
        stats.picks += 1;
        stats.rows += pool.candidates.len() as u64;
        stats.pick_ns += ns;
        pick
    }
}

/// The replayed learner, kept concrete so each model's own counters stay reachable.
enum Learner {
    Twig(TwigInteractive),
    Path(PathInteractive),
    Join(JoinInteractive),
    Graph(GraphQueryInteractive),
}

impl Learner {
    /// The learner the server's `START` builds for `spec`: the same constructor, the same
    /// seed and, where its strategy is public, the same flagship preset inside [`Counted`].
    fn build(corpus: &Corpus, spec: &SessionSpec, picks: &Arc<Mutex<PickStats>>) -> Learner {
        let seed = spec.seed();
        let counted = |inner: Box<dyn Strategy>| {
            SessionConfig::new().seed(seed).strategy(Box::new(Counted {
                inner,
                stats: picks.clone(),
            }))
        };
        match &spec.goal {
            Goal::Twig(_) => Learner::Twig(TwigInteractive::with_config(
                corpus.docs.clone(),
                corpus.indexes.clone(),
                counted(NodeStrategy::LabelAffinity.strategy(seed)),
            )),
            Goal::PathRoadType(_) => {
                let city = |key: &str| {
                    corpus
                        .graph
                        .find_node_by_property("name", spec.param(key).unwrap_or_default())
                        .expect("generated specs name existing cities")
                };
                Learner::Path(PathInteractive::with_config(
                    corpus.graph.clone(),
                    city("from"),
                    city("to"),
                    PATH_MAX_EDGES,
                    counted(PathStrategy::Halving.strategy(seed)),
                ))
            }
            Goal::Join => Learner::Join(JoinInteractive::with_config(
                corpus.left.clone(),
                corpus.right.clone(),
                counted(JoinPreset::HalveLattice.strategy(seed)),
            )),
            // The graph default (`PairHalving`) is private: no decorator, `propose` timed whole.
            Goal::GraphPairs(class) => Learner::Graph(GraphQueryInteractive::with_config(
                corpus.typed_graph.clone(),
                *class,
                SessionConfig::new().seed(seed),
            )),
        }
    }

    fn learner(&mut self) -> &mut dyn InteractiveLearner {
        match self {
            Learner::Twig(l) => l,
            Learner::Path(l) => l,
            Learner::Join(l) => l,
            Learner::Graph(l) => l,
        }
    }
}

/// What the replay of all sampled sessions measured.
#[derive(Default)]
struct Replay {
    sessions: usize,
    mismatches: Vec<String>,
    build_us: Vec<f64>,
    propose_us: Vec<f64>,
    final_propose_ms: Vec<f64>,
    answer_us: Vec<f64>,
    hypothesis_us: Vec<f64>,
    answer_set_size_us: Vec<f64>,
    /// Request round trip minus the learner call that did its work, per matched request.
    overhead_us: Vec<f64>,
    learner_ns: u64,
    request_ns: u64,
    picked_questions: usize,
    twig_pool_initial: Vec<f64>,
    twig_determined_negatives: Vec<f64>,
    graph_candidates: Vec<f64>,
    cache_hits: usize,
    cache_misses: usize,
    join_pool_initial: Vec<f64>,
}

/// Time one learner call, record its span under the request that did the same work, and
/// note the request's overhead over it.
struct Timer<'a> {
    epoch: Instant,
    log: &'a mut SpanLog,
    replay: &'a mut Replay,
    session: u64,
}

impl Timer<'_> {
    fn time<T>(
        &mut self,
        name: &'static str,
        (request_span, request): (usize, &Request),
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = |at: Instant| at.duration_since(self.epoch).as_nanos() as u64;
        let call_ns = end.duration_since(start).as_nanos() as u64;
        self.log
            .push(name, ns(start), ns(end), Some(request_span), self.session);
        self.replay.learner_ns += call_ns;
        self.replay
            .overhead_us
            .push(request.micros() - call_ns as f64 / 1e3);
        (out, call_ns as f64 / 1e3)
    }
}

/// Replay one traced session in-process and compare every reply with the server's.
fn replay_session(
    corpus: &Corpus,
    spec: &SessionSpec,
    run: &SessionRun,
    request_spans: &[usize],
    timer: &mut Timer<'_>,
    picks: &Arc<Mutex<PickStats>>,
) -> Result<(), String> {
    let transcript = run
        .transcript
        .as_ref()
        .expect("traced sessions keep transcripts");
    let requests: Vec<(usize, &Request)> = request_spans
        .iter()
        .copied()
        .zip(transcript.requests.iter())
        .collect();
    let of = |verb: Verb| {
        requests
            .iter()
            .copied()
            .filter(move |(_, r)| r.verb == verb)
    };
    let single = |verb: Verb| of(verb).next().ok_or(format!("no {} request", verb.name()));

    let (mut learner, us) = timer.time("with_config", single(Verb::Start)?, || {
        Learner::build(corpus, spec, picks)
    });
    timer.replay.build_us.push(us);
    match &learner {
        Learner::Twig(l) => timer
            .replay
            .twig_pool_initial
            .push(l.session().informative_pool().len() as f64),
        Learner::Join(l) => timer
            .replay
            .join_pool_initial
            .push(l.session().informative_pool().len() as f64),
        Learner::Graph(l) => {
            let stats = l.session().cse_stats();
            timer
                .replay
                .graph_candidates
                .push(l.session().candidate_count() as f64);
            timer.replay.cache_hits += stats.hits;
            timer.replay.cache_misses += stats.misses;
        }
        Learner::Path(_) => {}
    }

    let answers: Vec<(usize, &Request)> = of(Verb::Answer).collect();
    for (k, ask) in of(Verb::Ask).enumerate() {
        let (question, us) = timer.time("propose", ask, || learner.learner().propose());
        match (question, transcript.asks.get(k)) {
            (Some(question), Some(served)) => {
                timer.replay.propose_us.push(us);
                if question.to_string() != *served {
                    return Err(format!(
                        "question {k}: server asked `{served}`, replay proposed `{question}`"
                    ));
                }
                let positive = transcript.answers[k];
                let answer = answers.get(k).copied().ok_or("missing ANSWER request")?;
                let (result, us) =
                    timer.time("answer", answer, || learner.learner().answer(positive));
                result.map_err(|e| format!("replayed answer {k}: {e}"))?;
                timer.replay.answer_us.push(us);
            }
            (None, None) => timer.replay.final_propose_ms.push(us / 1e3),
            (question, served) => {
                return Err(format!(
                    "question {k}: server {}, replay {}",
                    served.map_or("was done".to_string(), |q| format!("asked `{q}`")),
                    question.map_or("was done".to_string(), |q| format!("proposed `{q}`"))
                ))
            }
        }
    }

    let (hypothesis, us) = timer.time("hypothesis", single(Verb::Query)?, || {
        learner.learner().hypothesis()
    });
    timer.replay.hypothesis_us.push(us);
    if hypothesis.as_deref() != Some(transcript.hypothesis.as_str()) {
        return Err(format!(
            "QUERY: server `{}`, replay {hypothesis:?}",
            transcript.hypothesis
        ));
    }
    let (size, us) = timer.time("answer_set_size", single(Verb::Eval)?, || {
        learner.learner().answer_set_size()
    });
    timer.replay.answer_set_size_us.push(us);
    if size != transcript.eval {
        return Err(format!("EVAL: server {}, replay {size}", transcript.eval));
    }

    if let Learner::Twig(l) = &learner {
        timer
            .replay
            .twig_determined_negatives
            .push(l.session().determined_negative_nodes().len() as f64);
    }
    // Graph sessions keep their private default strategy, so they have no pick counts.
    if !matches!(learner, Learner::Graph(_)) {
        timer.replay.picked_questions += transcript.answers.len();
    }
    timer.replay.request_ns += transcript
        .requests
        .iter()
        .map(|r| r.end_ns - r.start_ns)
        .sum::<u64>();
    timer.replay.sessions += 1;
    Ok(())
}

/// The store's write path on the WAL the server left behind: re-append every record through a
/// fresh [`wal::WalWriter`] on a scratch file, syncing at each `Close` as `QUIT` does.
#[derive(Default)]
struct StoreWrite {
    append_us: Vec<f64>,
    sync_ms: Vec<f64>,
    fsyncs: u64,
    sessions: usize,
    answers: usize,
    wal_bytes: u64,
}

fn replay_wal(server_wal: &Path, scratch: &Path) -> Result<StoreWrite, String> {
    let (records, writer) =
        wal::recover(server_wal).map_err(|e| format!("{}: {e}", server_wal.display()))?;
    drop(writer);
    let wal_bytes = std::fs::metadata(server_wal)
        .map_err(|e| format!("{}: {e}", server_wal.display()))?
        .len();
    let (_, mut writer) =
        wal::recover(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut out = StoreWrite {
        append_us: Vec::with_capacity(records.len()),
        wal_bytes,
        ..StoreWrite::default()
    };
    for record in &records {
        let start = Instant::now();
        writer
            .append(record)
            .map_err(|e| format!("WAL append: {e}"))?;
        out.append_us.push(start.elapsed().as_secs_f64() * 1e6);
        match record {
            WalRecord::Start { .. } => out.sessions += 1,
            WalRecord::Answer { .. } => out.answers += 1,
            WalRecord::Close { .. } => {
                if writer.pending() > 0 {
                    let start = Instant::now();
                    writer.sync().map_err(|e| format!("WAL sync: {e}"))?;
                    out.sync_ms.push(start.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
    }
    out.fsyncs = writer.syncs();
    Ok(out)
}

/// The store's read path: open, validate and decode a corpus snapshot, as `CORPUS` does when
/// the server has a `--data-dir`.
fn snapshot_open_ms(path: &Path) -> Result<f64, String> {
    let mut times = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let start = Instant::now();
        let backend = FileBackend::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let reader = SnapshotReader::open(backend).map_err(|e| e.to_string())?;
        let snapshot = CorpusSnapshot::decode(&reader).map_err(|e| e.to_string())?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(snapshot);
    }
    Ok(median(&times))
}

/// Write `corpus` as the snapshot file a server with `--data-dir dir` opens.
pub fn write_snapshot(corpus: &Corpus, dir: &Path) -> Result<std::path::PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = qbe_server::corpus::snapshot_path(dir, &corpus.name);
    let bytes = qbe_server::corpus::corpus_to_snapshot(corpus).encode();
    qbe_core::store::snapshot::write_atomic(&path, &bytes)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn corpus_build_ms(name: &str) -> f64 {
    let times: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(build_corpus(name));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Everything the per-layer metrics are computed from.
pub struct TraceInput<'a> {
    pub corpus: &'a Corpus,
    pub specs: &'a [SessionSpec],
    pub untraced: &'a LoopResult,
    pub traced: &'a LoopResult,
    /// `METRICS` read after both loops.
    pub server_metrics: &'a [(String, String)],
    /// The WAL the server wrote, for workloads that persist.
    pub server_wal: Option<&'a Path>,
    /// A scratch directory inside the run directory.
    pub scratch: &'a Path,
    /// Where the span log goes.
    pub spans_path: &'a Path,
}

/// What the traced run reports.
pub struct TraceOutcome {
    pub metrics: Metrics,
    /// Replayed sessions whose in-process learner disagreed with the server.
    pub mismatches: Vec<String>,
    pub replayed: usize,
}

/// Replay, store and snapshot timings, then every per-layer metric.
pub fn per_layer(input: &TraceInput<'_>) -> Result<TraceOutcome, String> {
    let traced = input.traced;
    let mut log = SpanLog::default();
    let mut request_spans: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut by_verb: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut requests_per_session = Vec::new();
    for run in traced.sessions.iter().filter(|r| r.error.is_none()) {
        let transcript = run
            .transcript
            .as_ref()
            .expect("traced sessions keep transcripts");
        let id = transcript.session_id;
        let session_span = log.push("session", run.start_ns, run.end_ns, None, id);
        let ids = transcript
            .requests
            .iter()
            .map(|r| {
                by_verb.entry(r.verb.name()).or_default().push(r.micros());
                log.push(r.verb.name(), r.start_ns, r.end_ns, Some(session_span), id)
            })
            .collect();
        request_spans.insert(run.ordinal, ids);
        requests_per_session.push((transcript.requests.len() - 1) as f64);
    }

    // The replay runs after the server has stopped, one session at a time, so it competes
    // with nothing. It covers the first pass: every distinct session spec at least once.
    let picks = Arc::new(Mutex::new(PickStats::default()));
    let mut replay = Replay::default();
    for run in traced
        .sessions
        .iter()
        .filter(|r| r.ordinal < input.specs.len() && r.error.is_none())
    {
        let spec = &input.specs[run.ordinal];
        let session = run.transcript.as_ref().map_or(0, |t| t.session_id);
        let mut timer = Timer {
            epoch: traced.epoch,
            log: &mut log,
            replay: &mut replay,
            session,
        };
        if let Err(why) = replay_session(
            input.corpus,
            spec,
            run,
            &request_spans[&run.ordinal],
            &mut timer,
            &picks,
        ) {
            replay
                .mismatches
                .push(format!("session {session} ({}): {why}", spec.label()));
        }
    }
    log.write(input.spans_path)
        .map_err(|e| format!("{}: {e}", input.spans_path.display()))?;

    let store = match input.server_wal {
        Some(path) => Some(replay_wal(path, &input.scratch.join("replay.qbew"))?),
        None => None,
    };
    let snapshot = match input.corpus.name.as_str() {
        "medium" => input.corpus.clone(),
        _ => build_corpus("medium").expect("medium is a known corpus"),
    };
    let snapshot_ms = snapshot_open_ms(&write_snapshot(&snapshot, &input.scratch.join("snap"))?)?;

    let verb = |name: &str, p: f64| percentile(by_verb.get(name).map_or(&[][..], |v| v), p);
    let picks = *picks.lock().expect("pick stats lock never poisoned");
    let mut m = Metrics::default();
    m.push("qbe-server.connect_us_p50", verb("connect", 50.0), "us");
    m.push("qbe-server.start_us_p50", verb("START", 50.0), "us");
    m.push("qbe-server.ask_us_p50", verb("ASK", 50.0), "us");
    m.push("qbe-server.ask_us_p99", verb("ASK", 99.0), "us");
    m.push("qbe-server.answer_us_p50", verb("ANSWER", 50.0), "us");
    m.push("qbe-server.answer_us_p99", verb("ANSWER", 99.0), "us");
    m.push("qbe-server.query_us_p50", verb("QUERY", 50.0), "us");
    m.push("qbe-server.eval_us_p50", verb("EVAL", 50.0), "us");
    m.push("qbe-server.quit_us_p50", verb("QUIT", 50.0), "us");
    m.push(
        "qbe-server.requests_per_session",
        mean(&requests_per_session),
        "count",
    );
    m.push(
        "qbe-server.overhead_us_p50",
        percentile(&replay.overhead_us, 50.0),
        "us",
    );
    m.push(
        "qbe-server.overhead_us_p99",
        percentile(&replay.overhead_us, 99.0),
        "us",
    );
    m.push(
        "qbe-server.corpus_build_ms",
        corpus_build_ms(&input.corpus.name),
        "ms",
    );
    for key in ["shed", "rejected", "timeouts", "reasks"] {
        m.push(
            &format!("qbe-server.{key}"),
            crate::counter(input.server_metrics, key) as f64,
            "count",
        );
    }
    m.push("qbe-core.build_us_p50", median(&replay.build_us), "us");
    m.push("qbe-core.propose_us_p50", median(&replay.propose_us), "us");
    m.push(
        "qbe-core.propose_us_p99",
        percentile(&replay.propose_us, 99.0),
        "us",
    );
    m.push(
        "qbe-core.final_propose_ms_p50",
        median(&replay.final_propose_ms),
        "ms",
    );
    // Shares of the replayed sessions' own learner time, so both sides of each ratio are
    // measured in the same quiet phase.
    let learner_ns = replay.learner_ns as f64;
    m.push(
        "qbe-core.final_propose_share",
        ratio(
            replay.final_propose_ms.iter().sum::<f64>() * 1e6,
            learner_ns,
        ),
        "fraction",
    );
    m.push(
        "qbe-core.other_propose_share",
        ratio(replay.propose_us.iter().sum::<f64>() * 1e3, learner_ns),
        "fraction",
    );
    m.push("qbe-core.answer_us_p50", median(&replay.answer_us), "us");
    m.push(
        "qbe-core.hypothesis_us_p50",
        median(&replay.hypothesis_us),
        "us",
    );
    m.push(
        "qbe-core.answer_set_size_us_p50",
        median(&replay.answer_set_size_us),
        "us",
    );
    let asked = replay.picked_questions as f64;
    m.push(
        "qbe-strategy.picks_per_question",
        ratio(picks.picks as f64, asked),
        "count",
    );
    m.push(
        "qbe-strategy.rows_per_question",
        ratio(picks.rows as f64, asked),
        "count",
    );
    m.push(
        "qbe-strategy.pick_us_per_question",
        ratio(picks.pick_ns as f64 / 1e3, asked),
        "us",
    );
    m.push(
        "qbe-twig.pool_initial",
        mean(&replay.twig_pool_initial),
        "count",
    );
    m.push(
        "qbe-twig.determined_negatives",
        mean(&replay.twig_determined_negatives),
        "count",
    );
    m.push(
        "qbe-graph.candidates_per_session",
        mean(&replay.graph_candidates),
        "count",
    );
    let graph_sessions = replay.graph_candidates.len() as f64;
    m.push(
        "qbe-algebra.cache_misses_per_session",
        ratio(replay.cache_misses as f64, graph_sessions),
        "count",
    );
    m.push(
        "qbe-algebra.cache_hit_frac",
        ratio(
            replay.cache_hits as f64,
            (replay.cache_hits + replay.cache_misses) as f64,
        ),
        "fraction",
    );
    m.push(
        "qbe-relational.pool_initial",
        mean(&replay.join_pool_initial),
        "count",
    );
    let store = store.unwrap_or_default();
    m.push(
        "qbe-store.append_us_p50",
        percentile(&store.append_us, 50.0),
        "us",
    );
    m.push(
        "qbe-store.append_us_p99",
        percentile(&store.append_us, 99.0),
        "us",
    );
    m.push("qbe-store.sync_ms_p50", median(&store.sync_ms), "ms");
    m.push(
        "qbe-store.fsyncs_per_session",
        ratio(store.fsyncs as f64, store.sessions as f64),
        "count",
    );
    m.push(
        "qbe-store.records_per_session",
        ratio(
            crate::counter(input.server_metrics, "persisted") as f64,
            crate::counter(input.server_metrics, "sessions") as f64,
        ),
        "count",
    );
    m.push(
        "qbe-store.wal_bytes_per_answer",
        ratio(store.wal_bytes as f64, store.answers as f64),
        "B",
    );
    m.push("qbe-store.snapshot_open_ms", snapshot_ms, "ms");
    m.push(
        "trace.learner_frac",
        ratio(replay.learner_ns as f64, replay.request_ns as f64),
        "fraction",
    );
    m.push(
        "trace.overhead_frac",
        1.0 - ratio(traced.sessions_per_s(), input.untraced.sessions_per_s()),
        "fraction",
    );
    Ok(TraceOutcome {
        metrics: m,
        mismatches: replay.mismatches,
        replayed: replay.sessions,
    })
}
