//! One vocabulary for *interactive* learning sessions across the data models.
//!
//! The paper's protocol is one loop for every model: propose an item, let the user label it,
//! prune what became uninformative. An [`InteractiveLearner`] is that loop as an object-safe,
//! owned (`'static`), `Send` session: it proposes membership [`Question`]s one at a time,
//! absorbs yes/no answers, and can always render its current hypothesis and the size of that
//! hypothesis's answer set. Homogeneous `Box<dyn InteractiveLearner>`s are what make a
//! multi-tenant session registry possible: the `qbe-server` wire protocol speaks this trait
//! instead of duplicating one driving loop per model.
//!
//! Four adapters wrap the concrete sessions:
//!
//! * [`TwigInteractive`] — node labelling over shared XML documents
//!   ([`qbe_twig::TwigSession`]);
//! * [`PathInteractive`] — path labelling between two graph endpoints
//!   ([`qbe_graph::PathSession`]);
//! * [`JoinInteractive`] — tuple-pair labelling over two relations
//!   ([`qbe_relational::InteractiveSession`]);
//! * [`GraphQueryInteractive`] — pair-membership labelling of RPQ/2RPQ/CRPQ queries over a
//!   typed graph ([`qbe_graph::QuerySession`], the algebra-backed query classes).
//!
//! Every adapter owns its substrate behind an `Arc`, so N concurrent sessions share one corpus
//! and one index. An adapter may also carry a *simulated user* (`with_goal`): the goal query's
//! answer to the pending question is then available via
//! [`InteractiveLearner::oracle_answer`], which is how [`drive`] runs fleets of sessions to
//! completion without a human — the experiments' mode. A server talking to real users simply
//! never calls `oracle_answer`.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use qbe_graph::{
    GNodeId, PathConstraint, PathSession, PathStrategy, PropertyGraph, QueryClass, QuerySession,
};
use qbe_relational::{interactive::selected_pairs, JoinPredicate, Relation, Strategy};
use qbe_strategy::SessionConfig;
use qbe_twig::{eval, NodeStrategy, TwigQuery, TwigSession};
use qbe_xml::{NodeId, NodeIndex, XmlTree};

/// One membership question: the proposed item as `key=value` fields.
///
/// `fields` identifies the item being asked about (`doc`/`node` for twig, `path`/`types`/… for
/// path, `left`/`right` for join, `pair`/`source_id`/`target_id`/… for graph) as `key=value`
/// pairs whose values never contain spaces — the wire protocol prints them verbatim on one
/// line ([`Display`](fmt::Display) renders exactly that line), and a remote client (or a
/// client-side simulated user) reconstructs the item from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Machine-readable `key=value` identification of the proposed item.
    pub fields: Vec<(&'static str, String)>,
}

impl Question {
    /// The value of one field, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in &self.fields {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        Ok(())
    }
}

/// Errors a driver can make against the ask/answer protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// `answer` was called with no question pending.
    NoPendingQuestion,
    /// `oracle_answer` was requested but the session has no embedded goal.
    NoGoal,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::NoPendingQuestion => write!(f, "no question is pending; call propose"),
            SessionError::NoGoal => write!(f, "session has no embedded goal oracle"),
        }
    }
}

impl std::error::Error for SessionError {}

/// An in-progress interactive learning session, seen model-agnostically.
///
/// The protocol: [`propose`](Self::propose) returns the pending question (asking again without
/// answering returns the *same* question), [`answer`](Self::answer) consumes it. `propose`
/// returns `None` exactly when the session is over — every item is labelled or pruned, or the
/// labels became inconsistent; [`consistent`](Self::consistent) tells which.
pub trait InteractiveLearner: Send {
    /// Which model the session learns over: `"twig"`, `"path"`, `"join"` or `"graph"`.
    fn kind(&self) -> &'static str;

    /// The name of the session's question-selection strategy
    /// ([`qbe_strategy::Strategy::name`]) — what per-strategy experiment rows group by.
    fn strategy(&self) -> &str {
        ""
    }

    /// The pending question, proposing a fresh one if necessary. `None` when the session is
    /// complete.
    fn propose(&mut self) -> Option<Question>;

    /// Advance to (or confirm) a pending question *without rendering it*: `true` exactly when
    /// [`propose`](Self::propose) would return `Some`. Goal-driven drivers ([`drive`]) never
    /// display questions, so this skips the per-round string formatting `Question` costs;
    /// adapters override the default with their raw-item fast path.
    fn propose_pending(&mut self) -> bool {
        self.propose().is_some()
    }

    /// Record the user's answer to the pending question.
    fn answer(&mut self, positive: bool) -> Result<(), SessionError>;

    /// What the embedded simulated user (the hidden goal query) would answer to the pending
    /// question. Errors when the session was built without a goal, or nothing is pending.
    fn oracle_answer(&self) -> Result<bool, SessionError>;

    /// The current hypothesis rendered as query text (XPath / path constraint / SPJ
    /// predicate). `None` while no hypothesis exists yet (e.g. no positive twig example).
    fn hypothesis(&self) -> Option<String>;

    /// Answer-set size of the current hypothesis on the session's instance, via the indexed
    /// evaluators where available.
    fn answer_set_size(&self) -> usize;

    /// Questions asked (= answers recorded) so far.
    fn questions(&self) -> usize;

    /// Items whose label is inferred rather than asked. Final once the session completes;
    /// mid-session it counts every not-yet-asked item, determined or not.
    fn inferred(&self) -> usize;

    /// Whether the collected labels are still consistent with some hypothesis of the class.
    fn consistent(&self) -> bool;

    /// Whether the session has completed (a `propose` call returned `None`).
    fn done(&self) -> bool;
}

/// What one session driven to completion by [`drive`] reports.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Name of the question-selection strategy the session consulted
    /// ([`qbe_strategy::Strategy::name`]; empty when unknown).
    pub strategy: String,
    /// Number of oracle questions the session asked.
    pub questions: usize,
    /// Items whose label the session inferred without asking.
    pub inferred: usize,
    /// Whether the session completed successfully (learned a consistent hypothesis).
    pub success: bool,
}

/// Drive a session to completion using its embedded goal oracle.
///
/// This is *the* session-driving loop — the experiments, benches and smoke tests all call it
/// instead of hand-rolling one loop per model.
///
/// # Panics
///
/// Panics when the learner has no embedded goal (there is nobody to answer the questions).
pub fn drive(learner: &mut dyn InteractiveLearner) -> SessionReport {
    while learner.propose_pending() {
        let positive = learner
            .oracle_answer()
            .expect("drive requires a session with an embedded goal oracle");
        learner
            .answer(positive)
            .expect("a question was just proposed");
    }
    SessionReport {
        strategy: learner.strategy().to_string(),
        questions: learner.questions(),
        inferred: learner.inferred(),
        success: learner.consistent() && learner.hypothesis().is_some(),
    }
}

/// The `p`-th percentile (`p` clamped to 0–100) of an ascending slice by the nearest-rank
/// method: the smallest value such that at least `p`% of the values are no larger. `None`
/// for an empty slice; rank 0 (p = 0) maps to the minimum.
pub fn percentile_sorted(sorted: &[usize], p: f64) -> Option<usize> {
    nearest_rank_index(sorted.len(), p).map(|ix| sorted[ix])
}

/// Where [`percentile_sorted`] reads among `len` ascending values: the 0-based position of
/// the nearest-rank `p`-th percentile. `None` when `len` is 0.
pub fn nearest_rank_index(len: usize, p: f64) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * len as f64).ceil() as usize;
    Some(rank.saturating_sub(1))
}

/// The ask/answer state every adapter shares: the item the pending question asks about, and
/// whether the session has completed. Asking again without answering yields the same item;
/// once the wrapped session proposes nothing, the state stays finished.
struct Pending<T> {
    item: Option<T>,
    finished: bool,
}

impl<T: Copy> Pending<T> {
    fn new() -> Pending<T> {
        Pending {
            item: None,
            finished: false,
        }
    }

    /// The pending item, taking a fresh one from `propose` when none is pending; `None` once
    /// the session has completed.
    fn get_or_propose(&mut self, propose: impl FnOnce() -> Option<T>) -> Option<T> {
        if !self.finished && self.item.is_none() {
            self.item = propose();
            self.finished = self.item.is_none();
        }
        self.item
    }

    /// The pending item, without consuming it.
    fn peek(&self) -> Result<T, SessionError> {
        self.item.ok_or(SessionError::NoPendingQuestion)
    }

    /// Consume the pending item to record its answer.
    fn take(&mut self) -> Result<T, SessionError> {
        self.item.take().ok_or(SessionError::NoPendingQuestion)
    }
}

// ---------------------------------------------------------------------------------------------
// Twig adapter
// ---------------------------------------------------------------------------------------------

/// [`InteractiveLearner`] over node-labelling twig sessions ([`qbe_twig::TwigSession`]).
pub struct TwigInteractive {
    session: TwigSession,
    docs: Arc<Vec<XmlTree>>,
    goal: Option<TwigQuery>,
    /// Goal answer sets, computed lazily per document (same trick as `GoalNodeOracle`); the
    /// `RefCell` keeps [`InteractiveLearner::oracle_answer`] a `&self` query.
    goal_answers: std::cell::RefCell<Vec<Option<BTreeSet<NodeId>>>>,
    pending: Pending<(usize, NodeId)>,
}

impl TwigInteractive {
    /// Start a session over documents and indexes shared with other sessions.
    pub fn with_shared(
        docs: Arc<Vec<XmlTree>>,
        indexes: Arc<Vec<NodeIndex>>,
        strategy: NodeStrategy,
        seed: u64,
    ) -> TwigInteractive {
        TwigInteractive::with_config(
            docs,
            indexes,
            SessionConfig::new()
                .seed(seed)
                .strategy(strategy.strategy(seed)),
        )
    }

    /// Start a session from a [`SessionConfig`] (pluggable strategy, question budget, seed)
    /// over shared documents and indexes — the primary constructor;
    /// [`with_shared`](Self::with_shared) is a preset over it.
    pub fn with_config(
        docs: Arc<Vec<XmlTree>>,
        indexes: Arc<Vec<NodeIndex>>,
        config: SessionConfig,
    ) -> TwigInteractive {
        let goal_answers = std::cell::RefCell::new(vec![None; docs.len()]);
        TwigInteractive {
            session: TwigSession::with_config(docs.clone(), indexes, config),
            docs,
            goal: None,
            goal_answers,
            pending: Pending::new(),
        }
    }

    /// Embed a simulated user answering according to a hidden goal query.
    pub fn with_goal(mut self, goal: TwigQuery) -> TwigInteractive {
        self.goal = Some(goal);
        self
    }

    /// The underlying session (labels, candidate, status queries).
    pub fn session(&self) -> &TwigSession {
        &self.session
    }
}

impl InteractiveLearner for TwigInteractive {
    fn kind(&self) -> &'static str {
        "twig"
    }

    fn strategy(&self) -> &str {
        self.session.strategy_name()
    }

    fn propose(&mut self) -> Option<Question> {
        let (doc, node) = self.pending.get_or_propose(|| self.session.propose())?;
        let label = self.docs[doc].label(node);
        Some(Question {
            fields: vec![
                ("doc", doc.to_string()),
                ("node", node.index().to_string()),
                ("label", label.to_string()),
                (
                    "path",
                    format!("/{}", self.docs[doc].label_path(node).join("/")),
                ),
            ],
        })
    }

    fn propose_pending(&mut self) -> bool {
        self.pending
            .get_or_propose(|| self.session.propose())
            .is_some()
    }

    fn answer(&mut self, positive: bool) -> Result<(), SessionError> {
        let (doc, node) = self.pending.take()?;
        self.session.record(doc, node, positive);
        Ok(())
    }

    fn oracle_answer(&self) -> Result<bool, SessionError> {
        let (doc, node) = self.pending.peek()?;
        let goal = self.goal.as_ref().ok_or(SessionError::NoGoal)?;
        let mut answers = self.goal_answers.borrow_mut();
        let set = answers[doc].get_or_insert_with(|| eval::select(goal, &self.docs[doc]));
        Ok(set.contains(&node))
    }

    fn hypothesis(&self) -> Option<String> {
        self.session.candidate().map(|q| q.to_xpath())
    }

    fn answer_set_size(&self) -> usize {
        self.session.candidate_answer_count()
    }

    fn questions(&self) -> usize {
        self.session.annotations().len()
    }

    fn inferred(&self) -> usize {
        self.session.total_nodes() - self.questions()
    }

    fn consistent(&self) -> bool {
        self.session.consistent()
    }

    fn done(&self) -> bool {
        self.pending.finished
    }
}

// ---------------------------------------------------------------------------------------------
// Path adapter
// ---------------------------------------------------------------------------------------------

/// [`InteractiveLearner`] over path-labelling sessions between two endpoints of a shared graph
/// ([`qbe_graph::PathSession`]).
pub struct PathInteractive {
    session: PathSession<Arc<PropertyGraph>>,
    goal: Option<PathConstraint>,
    pending: Pending<usize>,
}

impl PathInteractive {
    /// Start a session for paths between `from` and `to` over a shared graph.
    pub fn new(
        graph: Arc<PropertyGraph>,
        from: GNodeId,
        to: GNodeId,
        max_edges: usize,
        strategy: PathStrategy,
        seed: u64,
    ) -> PathInteractive {
        PathInteractive::with_config(
            graph,
            from,
            to,
            max_edges,
            SessionConfig::new()
                .seed(seed)
                .strategy(strategy.strategy(seed)),
        )
    }

    /// Start a session from a [`SessionConfig`] (pluggable strategy, question budget, seed) —
    /// the primary constructor; [`new`](Self::new) is a preset over it.
    pub fn with_config(
        graph: Arc<PropertyGraph>,
        from: GNodeId,
        to: GNodeId,
        max_edges: usize,
        config: SessionConfig,
    ) -> PathInteractive {
        PathInteractive {
            session: PathSession::with_config(graph, from, to, max_edges, config),
            goal: None,
            pending: Pending::new(),
        }
    }

    /// Embed a simulated user answering according to a hidden goal constraint.
    pub fn with_goal(mut self, goal: PathConstraint) -> PathInteractive {
        self.goal = Some(goal);
        self
    }

    /// Provide constraints learned for previous users (the workload prior).
    pub fn with_workload(mut self, workload: Vec<PathConstraint>) -> PathInteractive {
        self.session = self.session.with_workload(workload);
        self
    }

    /// The underlying session.
    pub fn session(&self) -> &PathSession<Arc<PropertyGraph>> {
        &self.session
    }
}

impl InteractiveLearner for PathInteractive {
    fn kind(&self) -> &'static str {
        "path"
    }

    fn strategy(&self) -> &str {
        self.session.strategy_name()
    }

    fn propose(&mut self) -> Option<Question> {
        let ix = self.pending.get_or_propose(|| self.session.propose())?;
        let graph = self.session.graph();
        let features = self.session.features(ix);
        let word = self.session.path(ix).word(graph).join(",");
        let cities: Vec<String> = features
            .visited
            .iter()
            .map(|n| graph.display_name(n).replace(' ', "_"))
            .collect();
        let types: Vec<&str> = features.uniform_types.iter().map(String::as_str).collect();
        Some(Question {
            fields: vec![
                ("path", ix.to_string()),
                ("edges", word),
                ("distance", format!("{:.0}", features.distance)),
                ("types", types.join(",")),
                ("via", cities.join(",")),
            ],
        })
    }

    fn propose_pending(&mut self) -> bool {
        self.pending
            .get_or_propose(|| self.session.propose())
            .is_some()
    }

    fn answer(&mut self, positive: bool) -> Result<(), SessionError> {
        let ix = self.pending.take()?;
        self.session.record(ix, positive);
        Ok(())
    }

    fn oracle_answer(&self) -> Result<bool, SessionError> {
        let ix = self.pending.peek()?;
        let goal = self.goal.as_ref().ok_or(SessionError::NoGoal)?;
        Ok(goal.accepts_features(self.session.features(ix)))
    }

    fn hypothesis(&self) -> Option<String> {
        Some(self.session.most_specific().describe(self.session.graph()))
    }

    fn answer_set_size(&self) -> usize {
        self.session.accepted_count()
    }

    fn questions(&self) -> usize {
        self.session.labelled_count()
    }

    fn inferred(&self) -> usize {
        self.session.candidate_count() - self.questions()
    }

    fn consistent(&self) -> bool {
        // The explicit version space never admits an inconsistent labelling: a constraint
        // either survives every label or leaves the space.
        true
    }

    fn done(&self) -> bool {
        self.pending.finished
    }
}

// ---------------------------------------------------------------------------------------------
// Graph-query adapter
// ---------------------------------------------------------------------------------------------

/// [`InteractiveLearner`] over pair-membership query-learning sessions
/// ([`qbe_graph::QuerySession`]): the algebra-backed RPQ / 2RPQ / CRPQ classes over a typed
/// graph (see [`qbe_graph::typed_road_view`]).
pub struct GraphQueryInteractive {
    session: QuerySession<Arc<PropertyGraph>>,
    /// The hidden goal query's answer set, when a simulated user is embedded.
    goal: Option<BTreeSet<(GNodeId, GNodeId)>>,
    pending: Pending<usize>,
}

impl GraphQueryInteractive {
    /// Start a session of a query class over a shared typed graph with the default halving
    /// strategy.
    pub fn new(graph: Arc<PropertyGraph>, class: QueryClass, seed: u64) -> GraphQueryInteractive {
        GraphQueryInteractive::with_config(graph, class, SessionConfig::new().seed(seed))
    }

    /// Start a session from a [`SessionConfig`] (pluggable strategy, question budget, seed) —
    /// the primary constructor; [`new`](Self::new) is a preset over it.
    pub fn with_config(
        graph: Arc<PropertyGraph>,
        class: QueryClass,
        config: SessionConfig,
    ) -> GraphQueryInteractive {
        GraphQueryInteractive {
            session: QuerySession::with_config(graph, class, config),
            goal: None,
            pending: Pending::new(),
        }
    }

    /// Embed a simulated user answering membership in a hidden goal answer set.
    pub fn with_goal(mut self, goal: BTreeSet<(GNodeId, GNodeId)>) -> GraphQueryInteractive {
        self.goal = Some(goal);
        self
    }

    /// The underlying session.
    pub fn session(&self) -> &QuerySession<Arc<PropertyGraph>> {
        &self.session
    }
}

impl InteractiveLearner for GraphQueryInteractive {
    fn kind(&self) -> &'static str {
        "graph"
    }

    fn strategy(&self) -> &str {
        self.session.strategy_name()
    }

    fn propose(&mut self) -> Option<Question> {
        let q = self.pending.get_or_propose(|| self.session.propose())?;
        let (s, t) = self.session.question_pair(q);
        let graph = self.session.graph();
        Some(Question {
            fields: vec![
                ("pair", q.to_string()),
                ("source", graph.display_name(s).replace(' ', "_")),
                ("target", graph.display_name(t).replace(' ', "_")),
                ("source_id", s.0.to_string()),
                ("target_id", t.0.to_string()),
            ],
        })
    }

    fn propose_pending(&mut self) -> bool {
        self.pending
            .get_or_propose(|| self.session.propose())
            .is_some()
    }

    fn answer(&mut self, positive: bool) -> Result<(), SessionError> {
        let q = self.pending.take()?;
        self.session.record(q, positive);
        Ok(())
    }

    fn oracle_answer(&self) -> Result<bool, SessionError> {
        let q = self.pending.peek()?;
        let goal = self.goal.as_ref().ok_or(SessionError::NoGoal)?;
        Ok(goal.contains(&self.session.question_pair(q)))
    }

    fn hypothesis(&self) -> Option<String> {
        Some(self.session.learned_query())
    }

    fn answer_set_size(&self) -> usize {
        self.session.learned_answer_count()
    }

    fn questions(&self) -> usize {
        self.session.labelled_count()
    }

    fn inferred(&self) -> usize {
        self.session.question_count() - self.questions()
    }

    fn consistent(&self) -> bool {
        self.session.version_space_size() >= 1
    }

    fn done(&self) -> bool {
        self.pending.finished
    }
}

// ---------------------------------------------------------------------------------------------
// Join adapter
// ---------------------------------------------------------------------------------------------

/// [`InteractiveLearner`] over tuple-pair-labelling join sessions
/// ([`qbe_relational::InteractiveSession`]).
pub struct JoinInteractive {
    session: qbe_relational::InteractiveSession<Arc<Relation>>,
    goal: Option<JoinPredicate>,
    pending: Pending<(usize, usize)>,
}

impl JoinInteractive {
    /// Start a session over two shared relations.
    pub fn new(
        left: Arc<Relation>,
        right: Arc<Relation>,
        strategy: Strategy,
        seed: u64,
    ) -> JoinInteractive {
        JoinInteractive::with_config(
            left,
            right,
            SessionConfig::new()
                .seed(seed)
                .strategy(strategy.strategy(seed)),
        )
    }

    /// Start a session from a [`SessionConfig`] (pluggable strategy, question budget, seed) —
    /// the primary constructor; [`new`](Self::new) is a preset over it.
    pub fn with_config(
        left: Arc<Relation>,
        right: Arc<Relation>,
        config: SessionConfig,
    ) -> JoinInteractive {
        JoinInteractive {
            session: qbe_relational::InteractiveSession::with_config(left, right, config),
            goal: None,
            pending: Pending::new(),
        }
    }

    /// Embed a simulated user answering according to a hidden goal predicate.
    pub fn with_goal(mut self, goal: JoinPredicate) -> JoinInteractive {
        self.goal = Some(goal);
        self
    }

    /// The underlying session.
    pub fn session(&self) -> &qbe_relational::InteractiveSession<Arc<Relation>> {
        &self.session
    }
}

impl InteractiveLearner for JoinInteractive {
    fn kind(&self) -> &'static str {
        "join"
    }

    fn strategy(&self) -> &str {
        self.session.strategy_name()
    }

    fn propose(&mut self) -> Option<Question> {
        let (l, r) = self.pending.get_or_propose(|| self.session.propose())?;
        let left_tuple = self.session.left().tuples()[l].to_string();
        let right_tuple = self.session.right().tuples()[r].to_string();
        Some(Question {
            fields: vec![
                ("left", l.to_string()),
                ("right", r.to_string()),
                ("left_tuple", left_tuple.replace(' ', "")),
                ("right_tuple", right_tuple.replace(' ', "")),
            ],
        })
    }

    fn propose_pending(&mut self) -> bool {
        self.pending
            .get_or_propose(|| self.session.propose())
            .is_some()
    }

    fn answer(&mut self, positive: bool) -> Result<(), SessionError> {
        let (l, r) = self.pending.take()?;
        self.session.record(l, r, positive);
        Ok(())
    }

    fn oracle_answer(&self) -> Result<bool, SessionError> {
        let (l, r) = self.pending.peek()?;
        let goal = self.goal.as_ref().ok_or(SessionError::NoGoal)?;
        Ok(goal.satisfied_by(
            &self.session.left().tuples()[l],
            &self.session.right().tuples()[r],
        ))
    }

    fn hypothesis(&self) -> Option<String> {
        Some(
            self.session
                .current_hypothesis()
                .describe(self.session.left().schema(), self.session.right().schema()),
        )
    }

    fn answer_set_size(&self) -> usize {
        selected_pairs(
            self.session.left(),
            self.session.right(),
            &self.session.current_hypothesis(),
        )
        .len()
    }

    fn questions(&self) -> usize {
        self.session.labelled_count()
    }

    fn inferred(&self) -> usize {
        self.session.left().len() * self.session.right().len() - self.questions()
    }

    fn consistent(&self) -> bool {
        self.session.is_consistent()
    }

    fn done(&self) -> bool {
        self.pending.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbe_graph::{generate_geo_graph, GeoConfig};
    use qbe_relational::{generate_join_instance, JoinInstanceConfig};
    use qbe_twig::parse_xpath;
    use qbe_xml::parse_xml;

    fn twig_learner() -> TwigInteractive {
        let docs = Arc::new(vec![parse_xml(
            "<site><people><person><name>a</name></person><person><name>b</name></person>\
             </people><items><item><name>i</name></item></items></site>",
        )
        .unwrap()]);
        let indexes = Arc::new(docs.iter().map(NodeIndex::build).collect::<Vec<_>>());
        TwigInteractive::with_shared(docs, indexes, NodeStrategy::LabelAffinity, 3)
            .with_goal(parse_xpath("//person/name").unwrap())
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [15, 20, 35, 40, 50];
        assert_eq!(percentile_sorted(&v, 5.0), Some(15));
        assert_eq!(percentile_sorted(&v, 30.0), Some(20));
        assert_eq!(percentile_sorted(&v, 40.0), Some(20));
        assert_eq!(percentile_sorted(&v, 50.0), Some(35));
        assert_eq!(percentile_sorted(&v, 95.0), Some(50));
        assert_eq!(percentile_sorted(&v, 100.0), Some(50));
        assert_eq!(percentile_sorted(&v, 0.0), Some(15));
        assert_eq!(percentile_sorted(&[], 50.0), None);
        assert_eq!(percentile_sorted(&[7], 99.0), Some(7));
    }

    #[test]
    fn twig_adapter_drives_to_the_goal() {
        let mut learner = twig_learner();
        let report = drive(&mut learner);
        assert!(report.success);
        assert!(learner.done());
        assert_eq!(report.questions, learner.questions());
        let hypothesis = learner.hypothesis().expect("learned a query");
        assert!(hypothesis.contains("person"), "{hypothesis}");
        assert_eq!(learner.answer_set_size(), 2);
        // site, people, 2×person, 2×name, items, item, name = 9 nodes.
        assert_eq!(report.inferred + report.questions, 9);
    }

    #[test]
    fn propose_is_stable_until_answered() {
        let mut learner = twig_learner();
        let q1 = learner.propose().expect("a first question");
        let q2 = learner.propose().expect("same question again");
        assert_eq!(q1, q2);
        assert!(learner.answer(true).is_ok() || learner.answer(false).is_ok());
        assert!(matches!(
            learner.answer(true),
            Err(SessionError::NoPendingQuestion)
        ));
    }

    #[test]
    fn question_fields_identify_the_item() {
        let mut learner = twig_learner();
        let q = learner.propose().unwrap();
        let doc: usize = q.field("doc").unwrap().parse().unwrap();
        let node: usize = q.field("node").unwrap().parse().unwrap();
        assert_eq!(doc, 0);
        assert!(node < 8);
        assert!(q.field("label").is_some());
        assert!(q.to_string().contains("doc=0"));
    }

    #[test]
    fn path_adapter_drives_to_the_goal() {
        let graph = Arc::new(generate_geo_graph(&GeoConfig {
            cities: 12,
            connectivity: 3,
            ..Default::default()
        }));
        let from = graph.find_node_by_property("name", "city0").unwrap();
        let to = graph.find_node_by_property("name", "city5").unwrap();
        let goal = PathConstraint {
            road_type: Some("highway".to_string()),
            max_distance: None,
            via: None,
        };
        let mut learner = PathInteractive::new(graph, from, to, 6, PathStrategy::Halving, 5)
            .with_goal(goal.clone());
        let report = drive(&mut learner);
        assert!(report.success);
        let hypothesis = learner.hypothesis().expect("path sessions always have one");
        assert!(hypothesis.contains("highway"), "{hypothesis}");
        // The learned constraint accepts exactly the goal-accepted candidates.
        let accepted = learner.answer_set_size();
        let expected = (0..learner.session().candidate_count())
            .filter(|&ix| goal.accepts_features(learner.session().features(ix)))
            .count();
        assert_eq!(accepted, expected);
    }

    #[test]
    fn graph_query_adapter_drives_to_the_goal() {
        use qbe_algebra::{EvalCache, QueryStore};
        use qbe_graph::{eval_expr_pairs, typed_road_view, GraphIndex};
        let geo = generate_geo_graph(&GeoConfig {
            cities: 12,
            connectivity: 3,
            ..Default::default()
        });
        let typed = Arc::new(typed_road_view(&geo));
        // Hidden goal: one-or-more highway hops — a member of the RPQ candidate pool.
        let index = GraphIndex::build(&typed);
        let mut store = QueryStore::new();
        let h = store.label("highway");
        let goal_expr = store.plus(h);
        let goal = eval_expr_pairs(&index, &store, &mut EvalCache::new(), goal_expr);
        let mut learner =
            GraphQueryInteractive::new(typed, QueryClass::Rpq, 7).with_goal(goal.clone());
        let q = learner.propose().expect("an informative pair");
        assert!(q.field("source").is_some() && q.field("target_id").is_some());
        let report = drive(&mut learner);
        assert!(report.success);
        assert_eq!(learner.kind(), "graph");
        assert_eq!(learner.session().learned_pairs(), goal);
        assert_eq!(learner.answer_set_size(), goal.len());
        let hypothesis = learner
            .hypothesis()
            .expect("graph sessions always have one");
        assert!(hypothesis.contains("highway"), "{hypothesis}");
    }

    #[test]
    fn join_adapter_drives_to_the_goal() {
        let (left, right, goal) = generate_join_instance(&JoinInstanceConfig {
            left_rows: 12,
            right_rows: 12,
            extra_attributes: 2,
            domain_size: 5,
            seed: 9,
        });
        let (left, right) = (Arc::new(left), Arc::new(right));
        let mut learner =
            JoinInteractive::new(left.clone(), right.clone(), Strategy::HalveLattice, 9)
                .with_goal(goal.clone());
        let report = drive(&mut learner);
        assert!(report.success);
        assert_eq!(
            selected_pairs(&left, &right, &learner.session().current_hypothesis()),
            selected_pairs(&left, &right, &goal),
            "learned a semantically different join"
        );
        assert_eq!(
            learner.answer_set_size(),
            selected_pairs(&left, &right, &goal).len()
        );
    }

    #[test]
    fn oracle_answer_requires_goal_and_pending_question() {
        let docs = Arc::new(vec![parse_xml("<a><b/></a>").unwrap()]);
        let indexes = Arc::new(docs.iter().map(NodeIndex::build).collect::<Vec<_>>());
        let mut learner =
            TwigInteractive::with_shared(docs, indexes, NodeStrategy::DocumentOrder, 0);
        assert_eq!(
            learner.oracle_answer(),
            Err(SessionError::NoPendingQuestion)
        );
        learner.propose().unwrap();
        assert_eq!(learner.oracle_answer(), Err(SessionError::NoGoal));
    }
}
