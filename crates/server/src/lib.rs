//! # qbe-server — a networked query-by-example learning service
//!
//! The paper's closing ambition is "a practical system able to learn … queries from interaction
//! with the user". Everything below the wire already exists in this workspace — indexed
//! corpora ([`qbe_core::xml::NodeIndex`], [`qbe_core::graph::GraphIndex`]), interactive
//! learners for all three data models, a common session trait
//! ([`qbe_core::session::InteractiveLearner`]). This crate is the missing serving layer: a
//! TCP service speaking a hand-rolled line protocol (no registry access, hence no serde),
//! multiplexing many users' learning sessions over corpora that are built once and shared
//! behind `Arc`s. One event-driven engine serves the protocol: an epoll readiness loop in a
//! single reactor thread plus a fixed worker pool — 10k+ concurrent connections on commodity
//! fd limits. Serving is 64-bit Linux on x86_64 or aarch64 only.
//!
//! A session, over the wire:
//!
//! ```text
//! C: HELLO
//! S: +OK qbe-server proto=1.3 models=twig,path,join,graph classes=rpq,2rpq,crpq corpora=tiny,small,medium strategies=paper-order,random,max-coverage,cheapest-first options=strategy,budget,seed,class
//! C: CORPUS tiny
//! S: +OK corpus name=tiny docs=1 xml_nodes=331 graph_nodes=10 tuples=12x12
//! C: START twig strategy=label-affinity budget=40 seed=7
//! S: +OK session id=1 model=twig
//! C: ASK
//! S: +ASK doc=0 node=17 label=name path=/site/people/person/name
//! C: ANSWER yes
//! S: +OK recorded
//! …
//! C: ASK
//! S: +DONE questions=9 consistent=true
//! C: QUERY
//! S: +QUERY //person/name
//! C: EVAL
//! S: +EVAL 12
//! C: QUIT
//! S: +OK bye
//! ```
//!
//! See `PROTOCOL.md` for the full grammar, [`server::spawn`] to run a server in-process,
//! [`client::Client`] for the blocking client, and [`client::drive_goal_session`] for the
//! simulated-user driver the tests, benches and `--smoke` mode share.

#![warn(missing_docs)]

pub mod cli;
pub mod client;
pub mod corpus;
#[cfg(test)]
mod fault_schedules;
mod persist;
pub mod poll;
pub mod protocol;
mod reactor;
pub mod registry;
pub mod retry;
pub mod server;
mod workers;

pub use client::{
    demo_graph_goal_pairs, drive_goal_session, local_corpora, local_corpus, AskReply, Client,
    ClientError, Goal,
};
pub use corpus::{build_corpus, Corpus, CorpusError, CorpusStore, CORPUS_NAMES};
pub use protocol::{parse_command, Command, Model, ParseError, MAX_LINE_BYTES};
pub use registry::{ServiceMetrics, SessionRegistry};
pub use retry::{
    drive_goal_session_resilient, is_retryable, NoiseModel, ResilientClient, ResilientOutcome,
    RetryPolicy, FAULT_SITE_CLIENT_DROP, FAULT_SITE_CLIENT_DROP_REPLY,
};
pub use server::{
    spawn, RateLimit, ServerConfig, ServerHandle, FAULT_SITE_DROP, FAULT_SITE_LATENCY,
    FAULT_SITE_PANIC,
};
