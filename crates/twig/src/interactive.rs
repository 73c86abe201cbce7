//! Interactive twig-query learning: propose nodes, collect labels, prune uninformative nodes.
//!
//! The paper closes its XML section with *"We also want to develop a practical system able to
//! learn twig queries from interaction with the user."* (§2). This module is that system, built
//! on the same protocol the relational and graph crates use: the learner repeatedly proposes an
//! unlabelled document node, the user (an [`NodeOracle`], simulated from a hidden goal query in
//! the experiments) labels it positive or negative, and after every answer the learner prunes
//! every node whose label has become *uninformative*.
//!
//! Two pruning rules exploit the structure of anchored-twig learning from positive examples,
//! both consequences of [`learn_from_positives`](crate::learn::learn_from_positives) returning
//! the *most specific* anchored twig consistent with the positives:
//!
//! * **Certain positives.** Every anchored twig consistent with the positives selects at least
//!   the candidate's answers, so a node already selected by the candidate has a certain
//!   (positive) label under every remaining hypothesis — asking about it cannot shrink the
//!   version space and it is pruned.
//! * **Determined negatives.** For an unlabelled node `n`, consider the most specific anchored
//!   twig selecting `positives ∪ {n}`. Every hypothesis selecting `n` together with the known
//!   positives is at least as general, so it selects at least that query's answers. If that
//!   query selects an already-labelled *negative*, every hypothesis selecting `n` is
//!   inconsistent with the collected labels — `n`'s label is determined to be negative and it is
//!   pruned without asking (see [`TwigSession::is_determined_negative`], the per-node
//!   specification).
//!
//! Remaining nodes are informative: a positive label generalises the candidate, a negative label
//! constrains the final query.
//!
//! **Determined negatives by class.** Proving one node negative runs the learner's filter
//! harvest over `positives ∪ {n}`, and at the end of a session the pool drains through one
//! such proof per remaining node. The session instead proves nodes by *extended-spine class*:
//! `n` enters the harvest only through its root-to-node label path, which fixes the extended
//! spine and with it the list of filters tried, and then through whether each tried query
//! selects `n`. So the session runs the harvest once per class and positive epoch as a tree
//! of branches: a try that loses a positive is rejected for the whole class, a try that keeps
//! every positive splits the branch by membership in its answer set (one indexed evaluation
//! per try and branch, then one bit test per node). Branches are expanded lazily, only along
//! the nodes the strategy picks, and a branch keeps just its accepted-try indices and its
//! answer bitsets, so each verdict is re-checked against the negatives known at pick time.
//! The verdict ([`TwigSession::is_determined_negative_by_class`]) equals
//! [`TwigSession::is_determined_negative`] on every node, which
//! `crates/twig/tests/prop_determined_negatives.rs` checks after every answer. Computing one
//! closure per class of interchangeable items is the equivalence-class trick of
//! closed-itemset miners.
//!
//! All candidate evaluations run through the indexed engine ([`crate::eval_indexed`]): the
//! session shares one immutable [`NodeIndex`] per document — documents and indexes can be
//! handed in as `Arc`s by a multi-session server (see [`TwigSession::with_shared`]) — and
//! keeps one [`EvalCache`] per document so structurally repeated sub-twigs across the many
//! candidate queries of a session are matched once. Node labels and label paths are interned
//! once per session, so the strategy's feature rows are built from integer ids.
//!
//! The session stops when every node is labelled or pruned, and reports the learned query, the
//! number of interactions (the quantity the paper wants to minimise) and the number of labels the
//! pruning saved.

use std::cell::{Ref, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use qbe_bitset::DenseSet;
use qbe_strategy::{
    pick_last_max_by, Candidate, CheapestFirst, PaperOrder, PoolView, Random, SessionConfig,
    Strategy,
};
use qbe_xml::{NodeId, NodeIndex, XmlTree};

use crate::eval;
use crate::eval_indexed::{self, EvalCache};
use crate::example::Annotation;
use crate::learn::{CachedSpine, FilterTry};
use crate::query::TwigQuery;

/// The answer source for node-labelling questions.
pub trait NodeOracle {
    /// Label the node `node` of document `doc` (index into the session's document list).
    fn label(&mut self, doc: usize, node: NodeId) -> bool;
}

/// Oracle answering according to a hidden goal query, counting the questions it receives.
///
/// The goal's answer set per document is computed once (lazily) so each question is a set
/// lookup rather than a fresh evaluation.
#[derive(Debug, Clone)]
pub struct GoalNodeOracle<'a> {
    docs: &'a [XmlTree],
    goal: TwigQuery,
    answers: Vec<Option<BTreeSet<NodeId>>>,
    questions: usize,
}

impl<'a> GoalNodeOracle<'a> {
    /// Create an oracle for a hidden goal query over the given documents.
    pub fn new(docs: &'a [XmlTree], goal: TwigQuery) -> GoalNodeOracle<'a> {
        GoalNodeOracle {
            docs,
            goal,
            answers: vec![None; docs.len()],
            questions: 0,
        }
    }

    /// Number of questions answered so far.
    pub fn questions_asked(&self) -> usize {
        self.questions
    }

    /// The hidden goal.
    pub fn goal(&self) -> &TwigQuery {
        &self.goal
    }
}

impl NodeOracle for GoalNodeOracle<'_> {
    fn label(&mut self, doc: usize, node: NodeId) -> bool {
        self.questions += 1;
        self.answers[doc]
            .get_or_insert_with(|| eval::select(&self.goal, &self.docs[doc]))
            .contains(&node)
    }
}

/// The paper-era node-selection policies, now thin presets over the model-agnostic
/// [`qbe_strategy::Strategy`] API (see [`NodeStrategy::strategy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStrategy {
    /// Document order (depth-first, first document first) — the naive baseline
    /// ([`qbe_strategy::PaperOrder`]).
    DocumentOrder,
    /// Uniformly random among the informative nodes ([`qbe_strategy::Random`]).
    ///
    /// Since the strategy API landed this draws from one persistent seeded stream (the
    /// pre-API loop reseeded from `seed + questions asked` and shuffled the pool each round),
    /// so a given seed yields a different — still deterministic — question sequence than
    /// pre-API runs. No count was ever pinned for this preset; path/join `Random` streams are
    /// unchanged.
    Random,
    /// Shallow nodes first: cheap questions whose answers constrain the query's spine early
    /// ([`qbe_strategy::CheapestFirst`] over the depth cost channel).
    ShallowFirst,
    /// Prefer nodes whose label equals the label of an already-known positive node: such nodes
    /// are the most likely to be selected by the goal, and a positive answer generalises the
    /// candidate (the paper's "gather as much information as possible with few interactions").
    LabelAffinity,
}

impl NodeStrategy {
    /// The [`Strategy`] implementing this preset (`seed` feeds [`NodeStrategy::Random`]).
    pub fn strategy(self, seed: u64) -> Box<dyn Strategy> {
        match self {
            NodeStrategy::DocumentOrder => Box::new(PaperOrder),
            NodeStrategy::Random => Box::new(Random::new(seed)),
            NodeStrategy::ShallowFirst => Box::new(CheapestFirst),
            NodeStrategy::LabelAffinity => Box::new(LabelAffinity),
        }
    }
}

/// The session's flagship policy as a [`Strategy`]: highest label affinity first, shallower
/// nodes breaking ties (the exact comparator the paper-era inlined loop used, including its
/// latest-maximum tie resolution, so the regression pins stay byte-identical).
#[derive(Debug, Clone, Copy, Default)]
struct LabelAffinity;

impl Strategy for LabelAffinity {
    fn name(&self) -> &str {
        "label-affinity"
    }

    fn pick(&mut self, pool: &PoolView<'_>) -> Option<usize> {
        pick_last_max_by(pool.candidates, |c| c.informativeness)
    }
}

/// How one document node is currently classified by the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// The user labelled it positive.
    LabelledPositive,
    /// The user labelled it negative.
    LabelledNegative,
    /// Selected by the current candidate, hence certainly positive — pruned.
    CertainPositive,
    /// Still informative: asking about it would refine the hypothesis space.
    Informative,
}

/// Outcome of an interactive twig-learning session.
#[derive(Debug, Clone)]
pub struct TwigSessionOutcome {
    /// The learned query (None when no positive node was found at all).
    pub query: Option<TwigQuery>,
    /// Number of questions asked.
    pub interactions: usize,
    /// Number of nodes whose label was inferred (pruned) rather than asked.
    pub pruned: usize,
    /// Total number of nodes across all documents.
    pub total_nodes: usize,
    /// Whether the collected labels remained consistent with some anchored twig.
    pub consistent: bool,
}

impl fmt::Display for TwigSessionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} interactions, {} pruned of {} nodes, query: {}",
            self.interactions,
            self.pruned,
            self.total_nodes,
            self.query
                .as_ref()
                .map(|q| q.to_xpath())
                .unwrap_or_else(|| "(none)".to_string())
        )
    }
}

/// An in-progress interactive twig-learning session.
///
/// All per-round bookkeeping runs on dense bitsets: one [`DenseSet`] per document for the
/// labelled, negative, determined-negative, certain-positive and still-informative node sets,
/// so each proposal round updates the candidate pool by word-level set difference instead of
/// rescanning every node against `BTreeSet`s.
#[derive(Debug)]
pub struct TwigSession {
    docs: Arc<Vec<XmlTree>>,
    indexes: Arc<Vec<NodeIndex>>,
    /// One memo of sub-twig match sets per document, shared by every candidate evaluation of
    /// this session. Interior mutability keeps the read-only query API (`status`,
    /// `informative_nodes`, …) taking `&self`.
    caches: RefCell<Vec<EvalCache>>,
    annotations: Vec<Annotation>,
    /// The pluggable question-selection policy, consulted once per proposal round.
    strategy: Box<dyn Strategy>,
    /// Question cap, if any: once `asked` reaches it, the session completes.
    budget: Option<usize>,
    asked: usize,
    /// Per-document bitset of labelled nodes.
    labelled_bits: Vec<DenseSet<NodeId>>,
    /// Per-document bitset of nodes proven determined-negative so far (never re-analysed).
    determined_bits: Vec<DenseSet<NodeId>>,
    /// Per-document answer bitset of the current candidate, refreshed per positive-count epoch.
    certain_bits: Vec<DenseSet<NodeId>>,
    /// Per-document pool of still-informative nodes: `all ∖ labelled ∖ determined ∖ certain`,
    /// maintained incrementally (full rebuild only when the candidate — and with it the certain
    /// region — changes, i.e. once per positive answer).
    pool: Vec<DenseSet<NodeId>>,
    /// Per-document bitset of nodes labelled negative (what a class verdict intersects).
    negative_bits: Vec<DenseSet<NodeId>>,
    /// Positive labels recorded so far — the epoch every per-positive cache is keyed by.
    positive_count: usize,
    /// The current candidate with the positive count it was learned for (`(0, None)` is
    /// already current: no positive, no candidate).
    candidate: RefCell<(usize, Option<TwigQuery>)>,
    /// Session-wide label id of every node, per document.
    label_ids: Vec<Vec<u32>>,
    /// Number of distinct labels across the documents.
    label_count: usize,
    /// Session-wide root-to-node label-path id of every node, per document.
    path_ids: Vec<Vec<u32>>,
    /// Determined-negative proofs of the current positive epoch, by extended-spine class.
    classes: Option<SpineClasses>,
    /// Positive-label count the `certain_bits` and `pool` were computed for.
    known_positives: usize,
    /// Set once a generalised candidate swallows an earlier negative.
    inconsistent: bool,
}

/// Determined-negative proofs of one positive epoch, batched by extended-spine class (see the
/// module docs).
#[derive(Debug)]
struct SpineClasses {
    /// Positive count the memo was built for.
    positives: usize,
    /// Fold of the positives' label paths; each class extends it by one label path.
    base: CachedSpine,
    /// The first positive, whose neighbourhood every harvest takes its filters from.
    first: (usize, NodeId),
    /// The positives per document: what a try must keep selecting to be accepted at all.
    targets: Vec<Vec<NodeId>>,
    /// Class of each label-path id met so far (extended spines are a function of the path).
    class_of_path: HashMap<u32, usize>,
    classes: Vec<SpineClass>,
}

/// The nodes whose label path extends the positives' spine to one [`CachedSpine`].
#[derive(Debug)]
struct SpineClass {
    spine: CachedSpine,
    /// The harvest's filters over `spine`, in the order it tries them.
    tries: Vec<FilterTry>,
    /// Branch arena; `branches[0]` is the bare spine query.
    branches: Vec<Branch>,
}

/// One state of the class's harvest: the query built from the accepted tries.
#[derive(Debug)]
struct Branch {
    /// Indices into [`SpineClass::tries`] accepted on the way here, in order.
    accepted: Vec<usize>,
    /// The query's answer bitset per document.
    answers: Vec<DenseSet<NodeId>>,
    next: Next,
}

#[derive(Debug, Clone, Copy)]
enum Next {
    /// Tries from this index on are not processed yet.
    From(usize),
    /// A try that keeps every positive: members it selects continue in `accept`, the others
    /// in `reject`.
    Split { accept: usize, reject: usize },
    /// Every try is processed: the query is the most specific one over `positives ∪ {n}`.
    Leaf,
}

impl SpineClasses {
    /// The index of the class of `node` (in `doc`), whose label-path id is `path`; created,
    /// with its bare spine query evaluated, on the first node of a new extended spine.
    fn class_of(
        &mut self,
        path: u32,
        (doc, node): (&XmlTree, NodeId),
        docs: &[XmlTree],
        eval: impl Fn(&TwigQuery) -> Vec<DenseSet<NodeId>>,
    ) -> usize {
        if let Some(&ix) = self.class_of_path.get(&path) {
            return ix;
        }
        let spine = self.base.extended(doc, node);
        let ix = match self.classes.iter().position(|c| c.spine == spine) {
            Some(ix) => ix,
            None => {
                let (first_doc, first_node) = self.first;
                let tries = spine.filter_tries((&docs[first_doc], first_node));
                let root = Branch {
                    accepted: Vec::new(),
                    answers: eval(&spine.path_query()),
                    next: Next::From(0),
                };
                self.classes.push(SpineClass {
                    spine,
                    tries,
                    branches: vec![root],
                });
                self.classes.len() - 1
            }
        };
        self.class_of_path.insert(path, ix);
        ix
    }
}

impl SpineClass {
    /// Run the tries of branch `at` from `from` on: a try that loses a positive is rejected
    /// for the whole branch, one that keeps every positive and all of the branch's answers is
    /// accepted for the whole branch, and the first other one that keeps every positive splits
    /// it.
    fn expand(
        &mut self,
        at: usize,
        from: usize,
        targets: &[Vec<NodeId>],
        eval: impl Fn(&TwigQuery) -> Vec<DenseSet<NodeId>>,
    ) {
        let mut query = self.spine.path_query();
        for &t in &self.branches[at].accepted {
            self.tries[t].apply(&mut query);
        }
        for t in from..self.tries.len() {
            let mut candidate = query.clone();
            self.tries[t].apply(&mut candidate);
            let answers = eval(&candidate);
            let keeps_positives = answers
                .iter()
                .zip(targets)
                .all(|(bits, nodes)| nodes.iter().all(|&n| bits.contains(n)));
            if !keeps_positives {
                continue;
            }
            let branch = &mut self.branches[at];
            if answers == branch.answers {
                // Every node that reaches a branch is among its answers (the bare spine query
                // selects its whole class, and a split sends each node where it stays
                // selected), so all of them keep this filter: no split.
                branch.accepted.push(t);
                query = candidate;
                continue;
            }
            let reject = Branch {
                accepted: branch.accepted.clone(),
                answers: branch.answers.clone(),
                next: Next::From(t + 1),
            };
            let mut accepted = branch.accepted.clone();
            accepted.push(t);
            let accept = Branch {
                accepted,
                answers,
                next: Next::From(t + 1),
            };
            let accept_ix = self.branches.len();
            self.branches[at].next = Next::Split {
                accept: accept_ix,
                reject: accept_ix + 1,
            };
            self.branches.push(accept);
            self.branches.push(reject);
            return;
        }
        self.branches[at].next = Next::Leaf;
    }
}

/// Indexed evaluation of `query` on every document, through the session's memos.
fn eval_all(
    docs: &[XmlTree],
    indexes: &[NodeIndex],
    caches: &RefCell<Vec<EvalCache>>,
    query: &TwigQuery,
) -> Vec<DenseSet<NodeId>> {
    let mut caches = caches.borrow_mut();
    docs.iter()
        .zip(indexes)
        .zip(caches.iter_mut())
        .map(|((doc, index), cache)| eval_indexed::select_bits_with(query, doc, index, cache))
        .collect()
}

/// The strategy's feature rows for one [`TwigSession::propose`], aligned with the pool nodes
/// in document order (the model's paper order), built once per call and edited as picks are
/// proven negative.
struct FeatureRows {
    nodes: Vec<(usize, NodeId)>,
    labels: Vec<u32>,
    rows: Vec<Candidate>,
    /// Pool nodes per label id: the `coverage` channel.
    label_counts: Vec<usize>,
}

impl FeatureRows {
    /// Drop row `ix` and lower the coverage of every row sharing its label.
    fn remove(&mut self, ix: usize) {
        self.nodes.remove(ix);
        self.rows.remove(ix);
        let label = self.labels.remove(ix);
        let count = &mut self.label_counts[label as usize];
        *count -= 1;
        let coverage = *count as f64;
        for (row, &l) in self.rows.iter_mut().zip(&self.labels) {
            if l == label {
                row.coverage = coverage;
            }
        }
    }
}

impl TwigSession {
    /// Start a session over the given documents, building one [`NodeIndex`] per document.
    pub fn new(docs: Vec<XmlTree>, strategy: NodeStrategy, seed: u64) -> TwigSession {
        let indexes: Vec<NodeIndex> = docs.iter().map(NodeIndex::build).collect();
        TwigSession::with_shared(Arc::new(docs), Arc::new(indexes), strategy, seed)
    }

    /// Start a session over documents and indexes shared with other sessions (a multi-session
    /// server hands every session the same two `Arc`s, so N concurrent sessions hold one copy
    /// of the corpus and its index).
    pub fn with_shared(
        docs: Arc<Vec<XmlTree>>,
        indexes: Arc<Vec<NodeIndex>>,
        strategy: NodeStrategy,
        seed: u64,
    ) -> TwigSession {
        TwigSession::with_config(
            docs,
            indexes,
            SessionConfig::new()
                .seed(seed)
                .strategy(strategy.strategy(seed)),
        )
    }

    /// Start a session from a [`SessionConfig`] (strategy, question budget, seed) — the
    /// primary constructor; the [`NodeStrategy`]-taking ones are presets over it. The default
    /// strategy is [`NodeStrategy::LabelAffinity`], the paper's flagship policy.
    pub fn with_config(
        docs: Arc<Vec<XmlTree>>,
        indexes: Arc<Vec<NodeIndex>>,
        config: SessionConfig,
    ) -> TwigSession {
        assert_eq!(
            docs.len(),
            indexes.len(),
            "one index per document is required"
        );
        let resolved = config.resolve(|seed| NodeStrategy::LabelAffinity.strategy(seed));
        let caches = RefCell::new(vec![EvalCache::new(); docs.len()]);
        let empty: Vec<DenseSet<NodeId>> = docs.iter().map(|d| DenseSet::new(d.size())).collect();
        let pool: Vec<DenseSet<NodeId>> = docs.iter().map(|d| DenseSet::full(d.size())).collect();
        // One id per distinct label, read off the postings: one string per label, not per node.
        let mut label_table: HashMap<&str, u32> = HashMap::new();
        let label_ids: Vec<Vec<u32>> = indexes
            .iter()
            .map(|index| {
                let mut ids = vec![0; index.node_count()];
                for (label, bits) in index.posting_entries() {
                    let next = label_table.len() as u32;
                    let id = *label_table.entry(label).or_insert(next);
                    for node in bits.iter() {
                        ids[node.index()] = id;
                    }
                }
                ids
            })
            .collect();
        let label_count = label_table.len();
        // A label path is its parent's path plus the node's label, so a preorder walk interns
        // them into a trie: `trie[path]` lists `(label, extended path)`, path 0 is the empty one.
        let mut trie: Vec<Vec<(u32, u32)>> = vec![Vec::new()];
        let path_ids: Vec<Vec<u32>> = docs
            .iter()
            .zip(&label_ids)
            .map(|(doc, labels)| {
                let mut ids = vec![0; doc.size()];
                for node in doc.preorder(XmlTree::ROOT) {
                    let parent = doc.parent(node).map_or(0, |p| ids[p.index()]) as usize;
                    let label = labels[node.index()];
                    ids[node.index()] = match trie[parent].iter().find(|&&(l, _)| l == label) {
                        Some(&(_, path)) => path,
                        None => {
                            let path = trie.len() as u32;
                            trie.push(Vec::new());
                            trie[parent].push((label, path));
                            path
                        }
                    };
                }
                ids
            })
            .collect();
        TwigSession {
            docs,
            indexes,
            caches,
            annotations: Vec::new(),
            strategy: resolved.strategy,
            budget: resolved.budget,
            asked: 0,
            labelled_bits: empty.clone(),
            determined_bits: empty.clone(),
            certain_bits: empty.clone(),
            pool,
            negative_bits: empty,
            positive_count: 0,
            candidate: RefCell::new((0, None)),
            label_ids,
            label_count,
            path_ids,
            classes: None,
            known_positives: 0,
            inconsistent: false,
        }
    }

    /// The name of the session's question-selection strategy (what per-strategy workload
    /// aggregates group by).
    pub fn strategy_name(&self) -> &str {
        self.strategy.name()
    }

    /// The documents the session ranges over.
    pub fn documents(&self) -> &[XmlTree] {
        &self.docs
    }

    /// The labels collected so far, in the order they were recorded.
    pub fn annotations(&self) -> &[Annotation] {
        &self.annotations
    }

    /// Indexed evaluation of `query` on document `doc`, through the session's per-document
    /// memo.
    fn eval_select(&self, query: &TwigQuery, doc: usize) -> Vec<NodeId> {
        let mut caches = self.caches.borrow_mut();
        eval_indexed::select_vec_with(query, &self.docs[doc], &self.indexes[doc], &mut caches[doc])
    }

    /// Indexed evaluation into a dense answer bitset, through the session's memo.
    fn eval_bits(&self, query: &TwigQuery, doc: usize) -> DenseSet<NodeId> {
        let mut caches = self.caches.borrow_mut();
        eval_indexed::select_bits_with(query, &self.docs[doc], &self.indexes[doc], &mut caches[doc])
    }

    /// Indexed membership test through the session's memo (the result bitset is recycled into
    /// the document's arena).
    fn eval_selects(&self, query: &TwigQuery, doc: usize, node: NodeId) -> bool {
        let mut caches = self.caches.borrow_mut();
        eval_indexed::selects_with(
            query,
            &self.docs[doc],
            &self.indexes[doc],
            &mut caches[doc],
            node,
        )
    }

    fn positives(&self) -> Vec<(usize, NodeId)> {
        self.annotations
            .iter()
            .filter(|a| a.positive)
            .map(|a| (a.doc, a.node))
            .collect()
    }

    /// Run the learner over the session's documents through its prebuilt indexes and
    /// long-lived sub-twig memos — the learner is invoked once per proposed node, so per-call
    /// index rebuilding would dominate the whole session.
    fn learn_shared(&self, examples: &[(usize, NodeId)]) -> Option<TwigQuery> {
        let mut caches = self.caches.borrow_mut();
        crate::learn::learn_from_positives_shared(examples, &self.docs, &self.indexes, &mut caches)
            .ok()
    }

    /// The candidate of the current positive epoch, learned once per positive count (so
    /// callers that record without calling [`Self::propose`] still see the current one).
    fn current_candidate(&self) -> Ref<'_, Option<TwigQuery>> {
        if self.candidate.borrow().0 != self.positive_count {
            let learned = self.learn_shared(&self.positives());
            *self.candidate.borrow_mut() = (self.positive_count, learned);
        }
        Ref::map(self.candidate.borrow(), |(_, query)| query)
    }

    /// The current candidate: the most specific anchored twig consistent with the positives.
    pub fn candidate(&self) -> Option<TwigQuery> {
        self.current_candidate().clone()
    }

    /// Status of one node under the current candidate and labels.
    pub fn status(&self, doc: usize, node: NodeId) -> NodeStatus {
        for a in &self.annotations {
            if a.doc == doc && a.node == node {
                return if a.positive {
                    NodeStatus::LabelledPositive
                } else {
                    NodeStatus::LabelledNegative
                };
            }
        }
        if let Some(candidate) = &*self.current_candidate() {
            if self.eval_selects(candidate, doc, node) {
                return NodeStatus::CertainPositive;
            }
        }
        NodeStatus::Informative
    }

    /// All still-informative nodes, as `(document index, node)` pairs: the from-scratch
    /// specification of the pool.
    ///
    /// Conservative: excludes labelled nodes and certain positives but does *not* run the
    /// determined-negative analysis (see [`Self::is_determined_negative`]), which
    /// [`Self::propose`] applies lazily to the nodes the strategy picks; the differential
    /// suites pin [`Self::informative_pool`] to this list minus those proven negatives.
    pub fn informative_nodes(&self) -> Vec<(usize, NodeId)> {
        let candidate = self.current_candidate();
        let labelled: BTreeSet<(usize, NodeId)> =
            self.annotations.iter().map(|a| (a.doc, a.node)).collect();
        let mut out = Vec::new();
        for (doc_ix, doc) in self.docs.iter().enumerate() {
            let certain: Vec<NodeId> = match &*candidate {
                Some(q) => self.eval_select(q, doc_ix),
                None => Vec::new(),
            };
            for node in doc.node_ids() {
                if !labelled.contains(&(doc_ix, node)) && certain.binary_search(&node).is_err() {
                    out.push((doc_ix, node));
                }
            }
        }
        out
    }

    /// Record a user-provided label.
    pub fn record(&mut self, doc: usize, node: NodeId, positive: bool) {
        assert!(doc < self.docs.len(), "document index out of range");
        assert!(
            node.index() < self.docs[doc].size(),
            "node id out of range for document"
        );
        self.annotations.push(Annotation {
            doc,
            node,
            positive,
        });
        self.labelled_bits[doc].insert(node);
        self.pool[doc].remove(node);
        if positive {
            self.positive_count += 1;
        } else {
            self.negative_bits[doc].insert(node);
        }
        self.asked += 1;
    }

    /// Whether `query` classifies every collected label correctly.
    fn classifies_all(&self, query: &TwigQuery) -> bool {
        let mut caches = self.caches.borrow_mut();
        (0..self.docs.len()).all(|doc_ix| {
            if self.annotations.iter().all(|a| a.doc != doc_ix) {
                return true;
            }
            eval_indexed::classifies_with(
                query,
                &self.docs[doc_ix],
                &self.indexes[doc_ix],
                &mut caches[doc_ix],
                self.annotations
                    .iter()
                    .filter(|a| a.doc == doc_ix)
                    .map(|a| (a.node, a.positive)),
            )
        })
    }

    /// Whether the labels collected so far admit a consistent anchored twig (the candidate from
    /// the positives must reject every labelled negative).
    pub fn is_consistent(&self) -> bool {
        match &*self.current_candidate() {
            None => true,
            Some(q) => self.classifies_all(q),
        }
    }

    /// Whether `node`'s label is *determined* to be negative by the labels collected so far:
    /// no query of the learner's hypothesis class consistent with the current labels selects
    /// it, so asking about it cannot shrink the version space.
    ///
    /// Soundness: any hypothesis selecting `node` and all known positives is at least as
    /// general as the most specific anchored twig over `positives ∪ {node}`, hence selects all
    /// of that query's answers; if those answers include a labelled negative, every such
    /// hypothesis is inconsistent. The cheap spine-only query (a superset of the most specific
    /// query's answers) is used as a pre-filter so the full filter-harvesting learner only runs
    /// on nodes that might actually be pruned.
    ///
    /// The version space this argues over is the *practical* class
    /// [`learn_from_positives`](crate::learn::learn_from_positives) searches (spine plus single-label child/descendant filters),
    /// in which it returns the most specific element. Goal queries outside that class (e.g.
    /// with nested multi-step predicates) can in principle have answers pruned here — but the
    /// learner could never converge to such a goal anyway, so the session loses nothing it
    /// could have used.
    ///
    /// The check is skipped (returns `false`) until at least one positive *and* one negative
    /// label exist: with no positives there is nothing to generalise against, and with no
    /// negatives nothing can contradict.
    ///
    /// This per-node check is the specification: it runs the whole filter harvest for the one
    /// node and shares no state with the class memo. [`Self::propose`] decides the same
    /// question per extended-spine class ([`Self::is_determined_negative_by_class`]).
    pub fn is_determined_negative(&self, doc: usize, node: NodeId) -> bool {
        let positives = self.positives();
        if positives.is_empty() {
            return false;
        }
        let negatives: Vec<(usize, NodeId)> = self
            .annotations
            .iter()
            .filter(|a| !a.positive)
            .map(|a| (a.doc, a.node))
            .collect();
        if negatives.is_empty() {
            return false;
        }
        let example_refs: Vec<(&XmlTree, NodeId)> =
            positives.iter().map(|&(d, n)| (&self.docs[d], n)).collect();
        let base_spine = crate::learn::generalised_spine(&example_refs)
            .expect("learning from a non-empty example set cannot fail");
        // One more fold step gives the spine over `positives ∪ {node}`.
        let extended_spine = base_spine.extended(&self.docs[doc], node);
        let spine_only = extended_spine.path_query();
        if !self.selects_any(&spine_only, &negatives) {
            // Even the loosest consistent generalisation misses every negative: informative.
            return false;
        }
        let mut extended = positives;
        extended.push((doc, node));
        let most_specific = {
            let mut caches = self.caches.borrow_mut();
            crate::learn::learn_from_positives_shared_with_spine(
                &extended_spine,
                &extended,
                &self.docs,
                &self.indexes,
                &mut caches,
            )
            .expect("learning from a non-empty example set cannot fail")
        };
        self.selects_any(&most_specific, &negatives)
    }

    /// Whether `query` selects any of the given `(doc, node)` pairs — one indexed evaluation
    /// per *distinct document* (not per pair), then a bit test per pair. The result bitsets go
    /// back to their documents' arenas afterwards.
    fn selects_any(&self, query: &TwigQuery, pairs: &[(usize, NodeId)]) -> bool {
        let mut evaluated: Vec<Option<DenseSet<NodeId>>> = vec![None; self.docs.len()];
        let hit = pairs.iter().any(|&(d, m)| {
            evaluated[d]
                .get_or_insert_with(|| self.eval_bits(query, d))
                .contains(m)
        });
        let mut caches = self.caches.borrow_mut();
        for (doc_ix, bits) in evaluated.into_iter().enumerate() {
            if let Some(bits) = bits {
                caches[doc_ix].recycle(bits);
            }
        }
        hit
    }

    /// The production form of [`Self::is_determined_negative`], equal to it on every node:
    /// the verdict of `node`'s extended-spine class, with the harvest run once per class and
    /// positive epoch and split by membership at each try (see the module docs). Branches are
    /// expanded on demand, and the answers of each branch on the way are checked against the
    /// negatives labelled so far, so the verdict is current after every answer.
    pub fn is_determined_negative_by_class(&mut self, doc: usize, node: NodeId) -> bool {
        if self.positive_count == 0 || self.annotations.len() == self.positive_count {
            return false;
        }
        if self
            .classes
            .as_ref()
            .is_none_or(|memo| memo.positives != self.positive_count)
        {
            self.classes = Some(self.spine_classes());
        }
        let (docs, indexes, caches) = (&self.docs, &self.indexes, &self.caches);
        let eval = |query: &TwigQuery| eval_all(docs, indexes, caches, query);
        let memo = self.classes.as_mut().expect("refreshed above");
        let class_ix = memo.class_of(
            self.path_ids[doc][node.index()],
            (&docs[doc], node),
            docs,
            eval,
        );
        let class = &mut memo.classes[class_ix];
        let mut at = 0;
        loop {
            let branch = &class.branches[at];
            // Every query below this branch adds filters, so selects a subset of its answers.
            let hits_negative = branch
                .answers
                .iter()
                .zip(&self.negative_bits)
                .any(|(answers, negatives)| answers.intersection_len(negatives) > 0);
            if !hits_negative {
                return false;
            }
            match branch.next {
                Next::Leaf => return true,
                Next::Split { accept, reject } => {
                    at = if class.branches[accept].answers[doc].contains(node) {
                        accept
                    } else {
                        reject
                    };
                }
                Next::From(from) => class.expand(at, from, &memo.targets, eval),
            }
        }
    }

    /// A fresh class memo for the current positives.
    fn spine_classes(&self) -> SpineClasses {
        let positives = self.positives();
        let example_refs: Vec<(&XmlTree, NodeId)> =
            positives.iter().map(|&(d, n)| (&self.docs[d], n)).collect();
        let mut targets = vec![Vec::new(); self.docs.len()];
        for &(d, n) in &positives {
            targets[d].push(n);
        }
        SpineClasses {
            positives: self.positive_count,
            base: crate::learn::generalised_spine(&example_refs)
                .expect("the memo is only built once a positive exists"),
            first: positives[0],
            targets,
            class_of_path: HashMap::new(),
            classes: Vec::new(),
        }
    }

    /// Affinity bonus separating "label matches a known positive" from every depth value in
    /// the informativeness channel (document depths are far below it).
    const AFFINITY_BONUS: f64 = 1e9;

    /// One [`Candidate`] feature row per pool node, in document order (the model's paper
    /// order), from the interned label ids:
    ///
    /// * `informativeness` — the label-affinity score (matching a positive label dominates;
    ///   shallower nodes rank higher within each class), exactly the paper-era comparator;
    /// * `cost` — node depth (shallow nodes are cheap for the user to inspect);
    /// * `coverage` — how many pool nodes share the candidate's label: a proxy for the
    ///   matches one answer determines, since same-labelled nodes under the same spine become
    ///   certain positives (or determined negatives) together once this one is labelled.
    fn feature_rows(&self) -> FeatureRows {
        let mut positive_label = vec![false; self.label_count];
        for a in self.annotations.iter().filter(|a| a.positive) {
            positive_label[self.label_ids[a.doc][a.node.index()] as usize] = true;
        }
        let len = self.pool.iter().map(DenseSet::len).sum();
        let mut nodes = Vec::with_capacity(len);
        let mut labels = Vec::with_capacity(len);
        let mut label_counts = vec![0; self.label_count];
        for (doc_ix, pool) in self.pool.iter().enumerate() {
            for node in pool.iter() {
                let label = self.label_ids[doc_ix][node.index()];
                nodes.push((doc_ix, node));
                labels.push(label);
                label_counts[label as usize] += 1;
            }
        }
        let rows = nodes
            .iter()
            .zip(&labels)
            .map(|(&(doc, node), &label)| {
                let depth = self.indexes[doc].depth(node) as f64;
                let bonus = if positive_label[label as usize] {
                    Self::AFFINITY_BONUS
                } else {
                    0.0
                };
                Candidate {
                    informativeness: bonus - depth,
                    cost: depth,
                    coverage: label_counts[label as usize] as f64,
                    specificity: 0.0,
                    prior: 0.0,
                }
            })
            .collect();
        FeatureRows {
            nodes,
            labels,
            rows,
            label_counts,
        }
    }

    /// Propose the next node to ask the user about, or `None` when the session is over (every
    /// node is labelled or pruned, or the labels became inconsistent).
    ///
    /// The candidate — and with it the certain-positive region and the pool — only changes
    /// when a new positive arrives, so it is refreshed per positive-count epoch. The feature
    /// rows are built once per call; the strategy then picks among them, and only a picked
    /// node is checked for a determined negative label, through its extended-spine class
    /// ([`Self::is_determined_negative_by_class`]). A proven node is pruned (its row removed,
    /// its label's coverage lowered) and the strategy picks again, so the picks — and a random
    /// strategy's draws — are exactly those of the per-node rule. Callers alternate `propose`
    /// and [`Self::record`]: drivers serving one question at a time (the `qbe-core` session
    /// adapters, the `qbe-server` wire protocol) call them round by round, [`Self::run`] loops
    /// to completion.
    pub fn propose(&mut self) -> Option<(usize, NodeId)> {
        if self.inconsistent {
            return None;
        }
        if self.budget.is_some_and(|cap| self.asked >= cap) {
            return None;
        }
        if self.positive_count != self.known_positives {
            self.known_positives = self.positive_count;
            // Refresh the candidate's answer region.
            let certain = match &*self.current_candidate() {
                Some(q) => eval_all(&self.docs, &self.indexes, &self.caches, q),
                None => self.docs.iter().map(|d| DenseSet::new(d.size())).collect(),
            };
            self.certain_bits = certain;
            // A generalised candidate may have swallowed an earlier negative: the labels no
            // longer admit a consistent anchored twig, matching `is_consistent`.
            if self
                .certain_bits
                .iter()
                .zip(&self.negative_bits)
                .any(|(certain, negatives)| certain.intersection_len(negatives) > 0)
            {
                self.inconsistent = true;
                return None;
            }
            // The certain region moved, so the pool is rebuilt by set difference:
            // `all ∖ labelled ∖ determined ∖ certain`, a few words per document.
            for (doc_ix, doc) in self.docs.iter().enumerate() {
                let pool = &mut self.pool[doc_ix];
                *pool = DenseSet::full(doc.size());
                pool.and_not_with(&self.labelled_bits[doc_ix]);
                pool.and_not_with(&self.determined_bits[doc_ix]);
                pool.and_not_with(&self.certain_bits[doc_ix]);
            }
        }

        let mut rows = self.feature_rows();
        loop {
            let view = PoolView {
                asked: self.asked,
                candidates: &rows.rows,
            };
            let pick_ix = self.strategy.pick(&view)?;
            // An out-of-range pick (a strategy bug, or a deliberate early stop) ends the
            // session rather than panicking the service.
            let pick = *rows.nodes.get(pick_ix)?;
            if self.is_determined_negative_by_class(pick.0, pick.1) {
                self.determined_bits[pick.0].insert(pick.1);
                self.pool[pick.0].remove(pick.1);
                rows.remove(pick_ix);
                continue;
            }
            return Some(pick);
        }
    }

    /// The session's *incremental* candidate pool: the nodes [`Self::propose`] currently offers
    /// its strategy, i.e. [`Self::informative_nodes`] minus the determined negatives proven so
    /// far (the incremental path discovers those lazily, only on proposed nodes). Exposed so
    /// the differential suites can pin the incremental pool against the from-scratch
    /// specification round by round.
    pub fn informative_pool(&self) -> Vec<(usize, NodeId)> {
        let mut out = Vec::new();
        for (doc_ix, pool) in self.pool.iter().enumerate() {
            out.extend(pool.iter().map(|node| (doc_ix, node)));
        }
        out
    }

    /// The nodes proven determined-negative so far (lazily, on proposal), as
    /// `(document, node)` pairs — the exact difference between [`Self::informative_nodes`] and
    /// [`Self::informative_pool`].
    pub fn determined_negative_nodes(&self) -> Vec<(usize, NodeId)> {
        let mut out = Vec::new();
        for (doc_ix, bits) in self.determined_bits.iter().enumerate() {
            out.extend(bits.iter().map(|node| (doc_ix, node)));
        }
        out
    }

    /// Total node count across the session's documents (the denominator of the pruning ratio).
    pub fn total_nodes(&self) -> usize {
        self.docs.iter().map(XmlTree::size).sum()
    }

    /// Answer-set size of the current candidate over the whole corpus, through the indexed
    /// evaluator (0 when no positive has been labelled yet).
    pub fn candidate_answer_count(&self) -> usize {
        match &*self.current_candidate() {
            None => 0,
            Some(q) => (0..self.docs.len())
                .map(|doc_ix| self.eval_select(q, doc_ix).len())
                .sum(),
        }
    }

    /// Whether the collected labels still admit a consistent anchored twig — the `consistent`
    /// field of [`Self::outcome`] without materialising the whole outcome (callers polling
    /// consistency per round, like the serving layer, skip cloning the query).
    pub fn consistent(&self) -> bool {
        !self.inconsistent && self.is_consistent()
    }

    /// The session's result so far. Final once [`Self::propose`] has returned `None`.
    pub fn outcome(&self) -> TwigSessionOutcome {
        let total_nodes = self.total_nodes();
        let interactions = self.asked;
        TwigSessionOutcome {
            query: self.candidate(),
            interactions,
            pruned: total_nodes - interactions,
            total_nodes,
            consistent: self.consistent(),
        }
    }

    /// Run the session to completion against an oracle: alternate [`Self::propose`] and
    /// [`Self::record`] until no informative node remains.
    pub fn run(mut self, oracle: &mut dyn NodeOracle) -> TwigSessionOutcome {
        while let Some((doc, node)) = self.propose() {
            let label = oracle.label(doc, node);
            self.record(doc, node, label);
        }
        self.outcome()
    }
}

/// Convenience wrapper: learn a hidden goal query interactively over the given documents.
pub fn interactive_twig_learn(
    docs: &[XmlTree],
    goal: &TwigQuery,
    strategy: NodeStrategy,
    seed: u64,
) -> TwigSessionOutcome {
    let mut oracle = GoalNodeOracle::new(docs, goal.clone());
    let session = TwigSession::new(docs.to_vec(), strategy, seed);
    session.run(&mut oracle)
}

/// [`interactive_twig_learn`] with a full [`SessionConfig`] (pluggable strategy, question
/// budget) instead of a [`NodeStrategy`] preset.
pub fn interactive_twig_learn_config(
    docs: &[XmlTree],
    goal: &TwigQuery,
    config: SessionConfig,
) -> TwigSessionOutcome {
    let mut oracle = GoalNodeOracle::new(docs, goal.clone());
    let owned = docs.to_vec();
    let indexes: Vec<NodeIndex> = owned.iter().map(NodeIndex::build).collect();
    let session = TwigSession::with_config(Arc::new(owned), Arc::new(indexes), config);
    session.run(&mut oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::equivalent_on;
    use crate::xpath::parse_xpath;
    use qbe_xml::parse_xml;

    fn auction_doc() -> XmlTree {
        parse_xml(
            "<site><regions><europe><item><name>i1</name><payment>cash</payment></item>\
             <item><name>i2</name></item></europe><asia><item><name>i3</name>\
             <payment>card</payment></item></asia></regions>\
             <people><person><name>p1</name></person></people></site>",
        )
        .unwrap()
    }

    fn goal() -> TwigQuery {
        parse_xpath("//item/name").unwrap()
    }

    #[test]
    fn session_learns_goal_equivalent_query() {
        let docs = vec![auction_doc()];
        let outcome = interactive_twig_learn(&docs, &goal(), NodeStrategy::LabelAffinity, 7);
        assert!(outcome.consistent);
        let learned = outcome.query.expect("a query must be learned");
        assert!(
            equivalent_on(&learned, &goal(), &docs),
            "learned {}",
            learned.to_xpath()
        );
    }

    #[test]
    fn every_strategy_terminates_and_stays_consistent() {
        let docs = vec![auction_doc()];
        for strategy in [
            NodeStrategy::DocumentOrder,
            NodeStrategy::Random,
            NodeStrategy::ShallowFirst,
            NodeStrategy::LabelAffinity,
        ] {
            let outcome = interactive_twig_learn(&docs, &goal(), strategy, 3);
            assert!(outcome.consistent, "{strategy:?}");
            assert!(outcome.interactions <= outcome.total_nodes, "{strategy:?}");
            assert!(outcome.query.is_some(), "{strategy:?}");
        }
    }

    #[test]
    fn pruning_saves_interactions() {
        let docs = vec![auction_doc()];
        let outcome = interactive_twig_learn(&docs, &goal(), NodeStrategy::LabelAffinity, 11);
        assert!(
            outcome.pruned > 0,
            "at least the certainly-positive nodes must be pruned: {outcome}"
        );
        assert!(outcome.interactions < outcome.total_nodes);
    }

    #[test]
    fn interactions_never_exceed_total_nodes() {
        let docs = vec![auction_doc(), auction_doc()];
        let outcome = interactive_twig_learn(&docs, &goal(), NodeStrategy::DocumentOrder, 0);
        assert!(outcome.interactions <= outcome.total_nodes);
        assert_eq!(
            outcome.total_nodes,
            docs.iter().map(XmlTree::size).sum::<usize>()
        );
    }

    #[test]
    fn status_reflects_labels_and_candidate() {
        let docs = vec![auction_doc()];
        let mut session = TwigSession::new(docs.clone(), NodeStrategy::DocumentOrder, 0);
        let selected: Vec<NodeId> = eval::select(&goal(), &docs[0]).into_iter().collect();
        let first = selected[0];
        assert_eq!(session.status(0, first), NodeStatus::Informative);
        session.record(0, first, true);
        assert_eq!(session.status(0, first), NodeStatus::LabelledPositive);
        // After one positive the candidate is the most specific description of that node: the
        // node itself is labelled, other selected nodes may or may not be certain yet, but a
        // clearly unrelated node (the root) must stay informative or be labelled.
        assert_ne!(
            session.status(0, XmlTree::ROOT),
            NodeStatus::CertainPositive
        );
    }

    #[test]
    fn empty_goal_answer_set_yields_no_query() {
        let docs = vec![auction_doc()];
        let goal = parse_xpath("//nonexistent").unwrap();
        let outcome = interactive_twig_learn(&docs, &goal, NodeStrategy::DocumentOrder, 0);
        assert!(outcome.query.is_none());
        assert!(outcome.consistent);
        assert_eq!(
            outcome.interactions, outcome.total_nodes,
            "nothing can be pruned"
        );
    }

    #[test]
    fn oracle_counts_questions() {
        let docs = vec![auction_doc()];
        let mut oracle = GoalNodeOracle::new(&docs, goal());
        let session = TwigSession::new(docs.clone(), NodeStrategy::ShallowFirst, 5);
        let outcome = session.run(&mut oracle);
        assert_eq!(oracle.questions_asked(), outcome.interactions);
    }

    #[test]
    fn interactive_beats_exhaustive_labelling_on_larger_corpora() {
        let docs = vec![auction_doc(), auction_doc(), auction_doc()];
        let outcome = interactive_twig_learn(&docs, &goal(), NodeStrategy::LabelAffinity, 1);
        let exhaustive: usize = docs.iter().map(XmlTree::size).sum();
        assert!(
            outcome.interactions < exhaustive,
            "interactive ({}) must ask fewer questions than labelling every node ({})",
            outcome.interactions,
            exhaustive
        );
    }

    #[test]
    fn shared_documents_and_indexes_are_not_recopied() {
        let docs = Arc::new(vec![auction_doc()]);
        let indexes = Arc::new(docs.iter().map(NodeIndex::build).collect::<Vec<_>>());
        let s1 = TwigSession::with_shared(
            docs.clone(),
            indexes.clone(),
            NodeStrategy::LabelAffinity,
            1,
        );
        let s2 = TwigSession::with_shared(
            docs.clone(),
            indexes.clone(),
            NodeStrategy::DocumentOrder,
            2,
        );
        // Three owners: the two sessions and the local handle.
        assert_eq!(Arc::strong_count(&docs), 3);
        let mut oracle = GoalNodeOracle::new(&docs, goal());
        let o1 = s1.run(&mut oracle);
        let o2 = s2.run(&mut oracle);
        assert!(o1.consistent && o2.consistent);
        assert!(o1.query.is_some() && o2.query.is_some());
    }
}
