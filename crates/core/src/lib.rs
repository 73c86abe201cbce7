//! # qbe-core — one interactive protocol over every data model
//!
//! This crate is the umbrella of the `qbe` workspace, a reproduction of *"Learning Queries for
//! Relational, Semi-structured, and Graph Databases"* (Ciucanu, SIGMOD/PODS 2013 PhD Symposium).
//! The paper's protocol is the same loop for every data model — propose an item, let the user
//! label it, prune what became uninformative — and this crate states that loop once and
//! re-exports the substrates, so that applications (the runnable examples, the server, the
//! benchmarks) can depend on a single crate.
//!
//! * [`session`] — the object-safe [`InteractiveLearner`] trait, the one driving loop
//!   [`drive`] with its [`SessionReport`], the nearest-rank [`percentile_sorted`], and owned
//!   adapters for twig/path/join/graph-query sessions, so a registry (the `qbe-server`
//!   network service) can hold heterogeneous sessions as homogeneous boxed trait objects;
//! * [`noise`] — the noisy user: the seeded k-vote [`MajorityVote`] and the exact binomial
//!   bounds that choose `k` ([`votes_for_session`], [`NoisyPacPlan`]);
//! * [`strategy`] — re-export of `qbe-strategy`: the model-agnostic, object-safe
//!   [`Strategy`] trait every interactive session consults to pick its next question, the
//!   [`SessionConfig`] builder (strategy, question budget, seed) accepted everywhere a
//!   session is created, and the shipped strategies ([`PaperOrder`], [`Random`],
//!   [`MaxCoverage`], [`CheapestFirst`]);
//! * re-exports: [`xml`], [`schema`], [`twig`], [`relational`], [`graph`], [`exchange`].
//!
//! ## Quickstart
//!
//! ```
//! use qbe_core::twig::{learn_from_positives, select};
//! use qbe_core::xml::parse_xml;
//!
//! // A document and two nodes the user wants ("give me the names of people").
//! let doc = parse_xml("<site><people><person><name>Ada</name></person>\
//!                      <person><name>Grace</name></person></people></site>").unwrap();
//! let wanted = doc.nodes_with_label("name");
//! let examples: Vec<_> = wanted.iter().map(|&n| (&doc, n)).collect();
//!
//! // Learn an XPath-like twig query from the examples and run it.
//! let query = learn_from_positives(&examples).unwrap();
//! assert_eq!(select(&query, &doc).len(), 2);
//! ```

#![warn(missing_docs)]

pub mod noise;
pub mod session;

pub use noise::{
    majority_error_bound, majority_votes_needed, votes_for_session, MajorityVote, NoisyPacPlan,
};
pub use session::{
    drive, nearest_rank_index, percentile_sorted, GraphQueryInteractive, InteractiveLearner,
    JoinInteractive, PathInteractive, Question, SessionError, SessionReport, TwigInteractive,
};

/// Re-export of the dense-bitset match-set kernel (`qbe-bitset`): [`bitset::DenseSet`]
/// (u64-word bitsets over interned ids, word-level and/or/and-not/popcount kernels) and
/// [`bitset::SetArena`] (buffer recycling across rounds). Every hot set operation of the three
/// learners — twig match sets, relational agreement/pair sets, graph visited and candidate
/// pools — runs on it.
pub use qbe_bitset as bitset;

pub use qbe_bitset::{DenseSet, SetArena};

/// Re-export of the query algebra (`qbe-algebra`): the hash-consed IR every query dialect
/// lowers to ([`algebra::QueryStore`], [`algebra::ExprId`]), the rewrite-based optimizer (the
/// smart constructors), conjunctive plans ([`algebra::ConjQuery`], [`algebra::plan_join_order`])
/// and the bitset evaluator with its cross-query CSE cache ([`algebra::eval_expr`],
/// [`algebra::EvalCache`]).
pub use qbe_algebra as algebra;

/// Re-export of the question-selection strategy API (`qbe-strategy`).
pub use qbe_strategy as strategy;

pub use qbe_strategy::{
    strategy_by_name, Candidate, CheapestFirst, MaxCoverage, PaperOrder, PoolView, Random,
    ResolvedConfig, SessionConfig, Strategy, UnknownStrategy, STRATEGY_NAMES,
};

/// Re-export of the XML substrate (`qbe-xml`).
pub use qbe_xml as xml;

/// Re-export of the schema formalisms (`qbe-schema`).
pub use qbe_schema as schema;

/// Re-export of twig queries and their learners (`qbe-twig`).
pub use qbe_twig as twig;

/// Re-export of the relational substrate and join learners (`qbe-relational`).
pub use qbe_relational as relational;

/// Re-export of the graph substrate and path learners (`qbe-graph`).
pub use qbe_graph as graph;

/// Re-export of the cross-model exchange scenarios (`qbe-exchange`).
pub use qbe_exchange as exchange;

/// Re-export of the durability layer — corpus snapshots and the session WAL (`qbe-store`).
pub use qbe_store as store;

/// Re-export of the deterministic fault-injection layer (`qbe-faults`).
pub use qbe_faults as faults;
