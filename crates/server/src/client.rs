//! A small blocking client for the wire protocol, plus a goal-driven session driver.
//!
//! [`Client`] is the thin request/response half: one method per command, each writing one line
//! and parsing one reply; the resilient client ([`crate::retry::ResilientClient`]) runs these
//! methods inside its retry loop. [`drive_goal_session`] layers the *simulated user* on top:
//! it answers the server's questions according to a hidden goal evaluated client-side
//! (rebuilding the named corpus locally — corpora are deterministic recipes, see
//! [`crate::corpus`]), which is exactly what the loopback integration tests, the
//! `server_soak` bench and the binary's `--smoke` mode need. It is the resilient driver's
//! loop with one attempt per request. A real deployment replaces this layer with a human.

use std::collections::BTreeSet;
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use qbe_core::algebra::{ConjQuery, EvalCache, PathAtom, QueryStore, Term as AlgTerm};
use qbe_core::graph::{eval_conj_tuples, eval_expr_pairs, GNodeId, GraphIndex, QueryClass};
use qbe_core::twig::interactive::{GoalNodeOracle, NodeOracle};
use qbe_core::twig::parse_xpath;
use qbe_core::xml::NodeId;

use crate::corpus::{Corpus, CorpusStore};
use crate::protocol::{field_value, parse_fields_line, Model, MAX_LINE_BYTES};
use crate::retry::{drive_goal_session_resilient, RetryPolicy};
use crate::server::{read_line_bounded, LineError};

/// The process-wide store of client-side corpora. Goal-driven clients re-derive the *same*
/// deterministic corpus for every session they run (often hundreds in a bench), and building
/// documents plus indexes per session would dwarf the protocol work being measured. It is the
/// server's own [`CorpusStore`]: one builder per name, everyone else waits and shares, and
/// first requests for different names build concurrently.
pub fn local_corpora() -> &'static CorpusStore {
    static LOCAL: OnceLock<CorpusStore> = OnceLock::new();
    LOCAL.get_or_init(CorpusStore::new)
}

/// The client-side copy of the named corpus, built on first request and shared (behind an
/// `Arc`) by every later [`drive_goal_session`] of this process. `None` for unknown names.
pub fn local_corpus(name: &str) -> Option<Arc<Corpus>> {
    local_corpora().get_or_build(name)
}

/// Reply to an `ASK`.
#[derive(Debug, Clone, PartialEq)]
pub enum AskReply {
    /// A pending membership question, as `key=value` fields.
    Question(Vec<(String, String)>),
    /// The session is complete.
    Done {
        /// Questions the session asked in total.
        questions: usize,
        /// Whether the collected labels stayed consistent.
        consistent: bool,
    },
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Client-side protocol failure: an `-ERR` reply, a malformed reply, or transport trouble.
#[derive(Debug)]
pub enum ClientError {
    /// The server answered `-ERR …`.
    Server(String),
    /// The reply did not match the expected shape.
    UnexpectedReply(String),
    /// Transport-level failure.
    Io(io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::UnexpectedReply(line) => write!(f, "unexpected reply: {line:?}"),
            ClientError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

type Result<T> = std::result::Result<T, ClientError>;

impl Client {
    /// Connect and consume the server's greeting (errors on a capacity rejection).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with_timeouts(addr, Duration::from_secs(30), Duration::from_secs(10))
    }

    /// [`connect`](Client::connect) with explicit read/write timeouts — the resilient client
    /// wants a per-request deadline much shorter than the interactive default.
    pub fn connect_with_timeouts(
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(write_timeout))?;
        let writer = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
        };
        client.receive_checked()?; // greeting
        Ok(client)
    }

    /// Write one request line without waiting for the reply. Paired with
    /// [`receive_checked`](Client::receive_checked) this is the seam the fault-injecting
    /// resilient client needs to lose a reply *after* the request went out.
    pub(crate) fn send_line(&mut self, line: &str) -> Result<()> {
        writeln!(self.writer, "{line}")?;
        Ok(())
    }

    /// Tear the connection down immediately (both directions). Subsequent reads fail fast
    /// instead of waiting out the read timeout — used when a client-side fault drops the link.
    pub(crate) fn shutdown(&self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
    }

    /// Read one reply line and surface `-ERR` as [`ClientError::Server`].
    pub(crate) fn receive_checked(&mut self) -> Result<String> {
        let reply = self.read_reply()?;
        if let Some(err) = reply.strip_prefix("-ERR ") {
            return Err(ClientError::Server(err.to_string()));
        }
        if !reply.starts_with('+') {
            return Err(ClientError::UnexpectedReply(reply));
        }
        Ok(reply)
    }

    fn read_reply(&mut self) -> Result<String> {
        match read_line_bounded(&mut self.reader, MAX_LINE_BYTES * 4) {
            Ok(line) => Ok(line),
            Err(LineError::Io(e)) => Err(ClientError::Io(e)),
            Err(LineError::Closed) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            Err(LineError::TimedOut) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "no reply within the read timeout",
            ))),
            Err(LineError::TooLong) => Err(ClientError::UnexpectedReply(
                "oversized reply line".to_string(),
            )),
        }
    }

    /// Send one line, read one reply, surface `-ERR` as [`ClientError::Server`].
    fn roundtrip(&mut self, line: &str) -> Result<String> {
        self.send_line(line)?;
        self.receive_checked()
    }

    /// `HELLO` — returns the server's capability line.
    pub fn hello(&mut self) -> Result<String> {
        self.roundtrip("HELLO")
    }

    /// `CORPUS <name>` — attach to a shared corpus; returns the summary fields.
    pub fn corpus(&mut self, name: &str) -> Result<Vec<(String, String)>> {
        let reply = self.roundtrip(&format!("CORPUS {name}"))?;
        let Some(payload) = reply.strip_prefix("+OK corpus ") else {
            return Err(ClientError::UnexpectedReply(reply));
        };
        parse_fields_line(payload).map_err(|_| ClientError::UnexpectedReply(reply.clone()))
    }

    /// `START <model> [params]` — open a session; returns its id.
    pub fn start(&mut self, model: Model, params: &[(&str, &str)]) -> Result<u64> {
        let mut line = format!("START {model}");
        for (k, v) in params {
            line.push_str(&format!(" {k}={v}"));
        }
        let reply = self.roundtrip(&line)?;
        reply
            .strip_prefix("+OK session id=")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|id| id.parse().ok())
            .ok_or(ClientError::UnexpectedReply(reply))
    }

    /// `RESUME <id>` — attach to an existing session (after a reconnect or a server restart
    /// with persistence on; protocol ≥ 1.3). Returns the session's model name.
    pub fn resume(&mut self, id: u64) -> Result<String> {
        let reply = self.roundtrip(&format!("RESUME {id}"))?;
        reply
            .strip_prefix("+OK session id=")
            .and_then(|rest| {
                let mut tokens = rest.split_whitespace();
                let replied_id: u64 = tokens.next()?.parse().ok()?;
                if replied_id != id {
                    return None;
                }
                tokens.next()?.strip_prefix("model=").map(str::to_string)
            })
            .ok_or(ClientError::UnexpectedReply(reply))
    }

    /// `ASK` — the next question, or the completion notice.
    pub fn ask(&mut self) -> Result<AskReply> {
        let reply = self.roundtrip("ASK")?;
        parse_ask_reply(&reply)
    }

    /// `ANSWER yes|no`.
    pub fn answer(&mut self, positive: bool) -> Result<()> {
        self.roundtrip(if positive { "ANSWER yes" } else { "ANSWER no" })?;
        Ok(())
    }

    /// `QUERY` — the current hypothesis text.
    pub fn query(&mut self) -> Result<String> {
        let reply = self.roundtrip("QUERY")?;
        reply
            .strip_prefix("+QUERY ")
            .map(str::to_string)
            .ok_or(ClientError::UnexpectedReply(reply))
    }

    /// `EVAL` — answer-set size of the current hypothesis.
    pub fn eval(&mut self) -> Result<usize> {
        let reply = self.roundtrip("EVAL")?;
        reply
            .strip_prefix("+EVAL ")
            .and_then(|n| n.parse().ok())
            .ok_or(ClientError::UnexpectedReply(reply))
    }

    /// `METRICS` — aggregate service statistics as fields.
    pub fn metrics(&mut self) -> Result<Vec<(String, String)>> {
        let reply = self.roundtrip("METRICS")?;
        let Some(payload) = reply.strip_prefix("+METRICS ") else {
            return Err(ClientError::UnexpectedReply(reply));
        };
        parse_fields_line(payload).map_err(|_| ClientError::UnexpectedReply(reply.clone()))
    }

    /// `QUIT` — say goodbye (the server closes the connection).
    pub fn quit(&mut self) -> Result<()> {
        self.roundtrip("QUIT")?;
        Ok(())
    }
}

/// Parse a raw `+ASK …` / `+DONE …` reply line into an [`AskReply`].
pub(crate) fn parse_ask_reply(reply: &str) -> Result<AskReply> {
    if let Some(payload) = reply.strip_prefix("+ASK ") {
        return parse_fields_line(payload)
            .map(AskReply::Question)
            .map_err(|_| ClientError::UnexpectedReply(reply.to_string()));
    }
    if let Some(payload) = reply.strip_prefix("+DONE ") {
        let fields = parse_fields_line(payload)
            .map_err(|_| ClientError::UnexpectedReply(reply.to_string()))?;
        let questions = field_value(&fields, "questions")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ClientError::UnexpectedReply(reply.to_string()))?;
        let consistent = field_value(&fields, "consistent")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ClientError::UnexpectedReply(reply.to_string()))?;
        return Ok(AskReply::Done {
            questions,
            consistent,
        });
    }
    Err(ClientError::UnexpectedReply(reply.to_string()))
}

/// A hidden goal a simulated remote user answers according to.
#[derive(Debug, Clone)]
pub enum Goal {
    /// Twig sessions: an XPath goal evaluated against the (locally rebuilt) corpus documents.
    Twig(String),
    /// Path sessions: "every edge has this road type".
    PathRoadType(String),
    /// Join sessions: the corpus generator's reference predicate.
    Join,
    /// Graph-query sessions (protocol ≥ 1.2): membership of `(source, target)` pairs in the
    /// answer set of the class's demo goal query, evaluated client-side over the locally
    /// rebuilt typed road graph (see [`demo_graph_goal_pairs`]).
    GraphPairs(QueryClass),
}

/// The demo goal query of one class, evaluated to its answer set over the corpus's typed road
/// graph — the hidden intent simulated graph-model clients (tests, benches, `--smoke`) answer
/// according to. Deterministic per corpus, like [`Corpus::demo_join_goal`].
///
/// * `rpq` — one or more hops along the first road type (`t₀⁺`);
/// * `2rpq` — a forward `t₀` hop then an inverse one (`t₀/t₀⁻`: pairs sharing a `t₀`-successor);
/// * `crpq` — two cities connected by *both* a `t₀` and a `t₁` road
///   (`π_{x,y}(x —t₀→ y ∧ x —t₁→ y)`).
pub fn demo_graph_goal_pairs(corpus: &Corpus, class: QueryClass) -> BTreeSet<(GNodeId, GNodeId)> {
    let alphabet = corpus.typed_graph.edge_alphabet();
    let index = GraphIndex::build(&corpus.typed_graph);
    let mut store = QueryStore::new();
    let mut cache = EvalCache::new();
    match class {
        QueryClass::Rpq => {
            let l = store.label(&alphabet[0]);
            let goal = store.plus(l);
            eval_expr_pairs(&index, &store, &mut cache, goal)
        }
        QueryClass::TwoRpq => {
            let fwd = store.label(&alphabet[0]);
            let inv = store.inv_label(&alphabet[0]);
            let goal = store.concat([fwd, inv]);
            eval_expr_pairs(&index, &store, &mut cache, goal)
        }
        QueryClass::Crpq => {
            let (x, y) = (store.sym("x"), store.sym("y"));
            let first = store.label(&alphabet[0]);
            let second = store.label(&alphabet[1 % alphabet.len()]);
            let goal = ConjQuery::new(
                vec![
                    PathAtom {
                        subject: AlgTerm::Var(x),
                        expr: first,
                        object: AlgTerm::Var(y),
                    },
                    PathAtom {
                        subject: AlgTerm::Var(x),
                        expr: second,
                        object: AlgTerm::Var(y),
                    },
                ],
                vec![x, y],
            );
            eval_conj_tuples(&index, &store, &mut cache, &goal)
                .into_iter()
                .map(|t| (t[0], t[1]))
                .collect()
        }
    }
}

/// What [`drive_goal_session`] observed.
#[derive(Debug, Clone)]
pub struct GoalSessionOutcome {
    /// Session id the server assigned.
    pub session_id: u64,
    /// Questions the client answered.
    pub questions: usize,
    /// Whether the server reported the labels consistent at completion.
    pub consistent: bool,
    /// The final hypothesis text (`QUERY`).
    pub hypothesis: String,
    /// The final answer-set size (`EVAL`).
    pub answer_set_size: usize,
}

/// Extract the `(doc, node)` a twig question identifies (shape checked client-side).
fn twig_question_item(fields: &[(String, String)]) -> Result<(usize, NodeId)> {
    let get = |key: &str| {
        field_value(fields, key)
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| ClientError::UnexpectedReply(format!("missing/non-numeric {key}")))
    };
    Ok((get("doc")?, NodeId::from_index(get("node")?)))
}

/// Client-side evaluation of a [`Goal`] against the locally rebuilt corpus: turns a
/// question's wire fields into the *true* yes/no label, which the goal-driven loop may then
/// flip through its noise model.
pub(crate) struct GoalEvaluator<'a> {
    goal: Goal,
    local: &'a Corpus,
    twig_oracle: Option<GoalNodeOracle<'a>>,
    join_goal: Option<qbe_core::relational::JoinPredicate>,
    graph_goal: Option<BTreeSet<(GNodeId, GNodeId)>>,
}

impl<'a> GoalEvaluator<'a> {
    /// Build the evaluator (parses the twig goal's XPath, materialises the graph goal's
    /// answer set; both deterministic per corpus).
    pub(crate) fn new(local: &'a Corpus, goal: &Goal) -> Result<GoalEvaluator<'a>> {
        let twig_oracle = match goal {
            Goal::Twig(xpath) => {
                let goal_query = parse_xpath(xpath)
                    .map_err(|e| ClientError::Server(format!("bad goal xpath: {e:?}")))?;
                Some(GoalNodeOracle::new(&local.docs, goal_query))
            }
            _ => None,
        };
        let join_goal = match goal {
            Goal::Join => Some(local.demo_join_goal.clone()),
            _ => None,
        };
        let graph_goal = match goal {
            Goal::GraphPairs(class) => Some(demo_graph_goal_pairs(local, *class)),
            _ => None,
        };
        Ok(GoalEvaluator {
            goal: goal.clone(),
            local,
            twig_oracle,
            join_goal,
            graph_goal,
        })
    }

    /// The wire model the goal implies.
    pub(crate) fn model(&self) -> Model {
        match self.goal {
            Goal::Twig(_) => Model::Twig,
            Goal::PathRoadType(_) => Model::Path,
            Goal::Join => Model::Join,
            Goal::GraphPairs(_) => Model::Graph,
        }
    }

    /// The true label of one question (its `key=value` fields as served by `ASK`).
    pub(crate) fn label(&mut self, fields: &[(String, String)]) -> Result<bool> {
        Ok(match &self.goal {
            Goal::Twig(_) => {
                let (doc, node) = twig_question_item(fields)?;
                self.twig_oracle
                    .as_mut()
                    .expect("twig goal implies twig oracle")
                    .label(doc, node)
            }
            Goal::PathRoadType(road_type) => field_value(fields, "types")
                .map(|v| v.split(',').any(|t| t == road_type))
                .unwrap_or(false),
            Goal::Join => {
                let get = |key: &str| {
                    field_value(fields, key)
                        .and_then(|v| v.parse::<usize>().ok())
                        .ok_or_else(|| ClientError::UnexpectedReply(format!("missing field {key}")))
                };
                let (l, r) = (get("left")?, get("right")?);
                self.join_goal
                    .as_ref()
                    .expect("join goal implies predicate")
                    .satisfied_by(&self.local.left.tuples()[l], &self.local.right.tuples()[r])
            }
            Goal::GraphPairs(_) => {
                let get = |key: &str| {
                    field_value(fields, key)
                        .and_then(|v| v.parse::<u32>().ok())
                        .ok_or_else(|| ClientError::UnexpectedReply(format!("missing field {key}")))
                };
                let (s, t) = (get("source_id")?, get("target_id")?);
                self.graph_goal
                    .as_ref()
                    .expect("graph goal implies an answer set")
                    .contains(&(GNodeId(s), GNodeId(t)))
            }
        })
    }
}

/// Drive one session over the wire to completion, answering every question according to
/// `goal`, then collect the learned query and its answer-set size.
///
/// The corpus named `corpus` is rebuilt locally so the client can evaluate its goal — the
/// remote user's "intent" never crosses the wire, only yes/no labels do, exactly as in the
/// paper's interactive protocol. The rebuild happens once per corpus name per process (see
/// [`local_corpus`]), not once per session.
///
/// This is [`drive_goal_session_resilient`] with one attempt per request, a 30 s request
/// timeout, no noise and no faults: the first failure, a capacity rejection included,
/// surfaces as the error.
pub fn drive_goal_session(
    addr: impl ToSocketAddrs,
    corpus: &str,
    goal: &Goal,
    start_params: &[(&str, &str)],
) -> Result<GoalSessionOutcome> {
    let policy = RetryPolicy {
        max_attempts: 1,
        request_timeout: Duration::from_secs(30),
        ..RetryPolicy::default()
    };
    drive_goal_session_resilient(addr, corpus, goal, start_params, policy, None, None)
        .map(|outcome| outcome.session)
}
