//! # qbe-graph — property graphs, regular path queries, and path-query learning
//!
//! The graph-database half of the paper's §3:
//!
//! * [`model`] — a directed property graph (RDF-style labelled edges with attributes) and its
//!   triple view;
//! * [`rpq`] — regular path queries over edge labels, NFA-product evaluation, simple-path
//!   enumeration;
//! * [`index`] — label-interned adjacency ([`GraphIndex`]) that algebra-lowered queries
//!   evaluate against (see [`lower`]);
//! * [`learn`] — learning path queries (block regexes) from positive and negative example
//!   paths;
//! * [`interactive`] — the interactive path-labelling framework of the geographical use case,
//!   with constraint hypotheses (road type, total distance, via-city), version-space pruning and
//!   workload priors;
//! * [`geo`] — the geographical database generator (cities, roads with distance and type);
//! * [`nre`] — nested regular expressions and their conjunctions (the Barceló et al. mapping
//!   building blocks);
//! * [`pattern`] — SPARQL-style graph patterns (BGP/AND/OPTIONAL/UNION/FILTER) with the
//!   well-designedness check, the expressive upper bound the paper deems too complex to learn;
//! * [`lower`] — lowering every query dialect above onto the shared hash-consed algebra IR
//!   (`qbe_algebra`); the legacy evaluators survive as executable specifications;
//! * [`qsession`] — interactive learning of RPQ/2RPQ/CRPQ queries by pair-membership
//!   questions, with cross-candidate common-subexpression elimination through one shared
//!   evaluation cache.

#![warn(missing_docs)]

pub mod geo;
pub mod index;
pub mod interactive;
pub mod learn;
pub mod lower;
pub mod model;
pub mod nre;
pub mod pattern;
pub mod qsession;
pub mod rpq;

pub use geo::{generate_geo_graph, GeoConfig, ROAD_TYPES};
pub use index::GraphIndex;
pub use interactive::{
    interactive_path_learn, GoalPathOracle, PathConstraint, PathOracle, PathSession,
    PathSessionOutcome, PathStrategy,
};
pub use learn::{
    learn_path_query, learn_path_query_with_negatives, Block, BlockMultiplicity, BlockPathQuery,
    PathLearnError,
};
pub use lower::{
    eval_conj_tuples, eval_expr_pairs, lower_bgp, lower_conjunctive, lower_nre, lower_path_regex,
    typed_road_view,
};
pub use model::{GEdgeId, GNodeId, PropValue, PropertyGraph, Triple};
pub use nre::{eval_nre, eval_nre_from, ConjunctiveNre, Nre, NreAtom};
pub use pattern::{
    evaluate_pattern, is_well_designed, select_nodes, Binding, Constraint, GraphPattern, Mapping,
    PredTerm, Term, TriplePattern,
};
pub use qsession::{
    enumerate_candidates, evaluate_candidates, CandidateQuery, CseStats, QueryClass, QuerySession,
};
pub use rpq::{evaluate, evaluate_from, simple_paths, Path, PathRegex};

#[cfg(test)]
mod proptests {
    use crate::learn::learn_path_query;
    use crate::rpq::PathRegex;
    use proptest::prelude::*;

    fn label_strategy() -> impl Strategy<Value = String> {
        prop_oneof![
            Just("road".to_string()),
            Just("train".to_string()),
            Just("ferry".to_string())
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The learned path query accepts every positive word it was trained on.
        #[test]
        fn path_learner_is_consistent(
            words in proptest::collection::vec(proptest::collection::vec(label_strategy(), 0..6), 1..5)
        ) {
            let q = learn_path_query(&words).unwrap();
            for w in &words {
                let refs: Vec<&str> = w.iter().map(String::as_str).collect();
                prop_assert!(q.accepts(&refs), "query {} rejects {:?}", q, w);
            }
        }

        /// Block queries and their regex translation accept the same words.
        #[test]
        fn block_query_matches_its_regex(
            words in proptest::collection::vec(proptest::collection::vec(label_strategy(), 0..5), 1..4),
            probe in proptest::collection::vec(label_strategy(), 0..6)
        ) {
            let q = learn_path_query(&words).unwrap();
            let regex = q.to_regex();
            let refs: Vec<&str> = probe.iter().map(String::as_str).collect();
            prop_assert_eq!(q.accepts(&refs), regex.accepts(&refs));
        }

        /// Regex membership respects concatenation: w1 ∈ L(r1), w2 ∈ L(r2) ⇒ w1·w2 ∈ L(r1/r2).
        #[test]
        fn regex_concatenation_is_compositional(
            w1 in proptest::collection::vec(label_strategy(), 0..4),
            w2 in proptest::collection::vec(label_strategy(), 0..4)
        ) {
            let r1 = PathRegex::Concat(w1.iter().map(|l| PathRegex::label(l.clone())).collect());
            let r2 = PathRegex::Concat(w2.iter().map(|l| PathRegex::label(l.clone())).collect());
            let concat = PathRegex::Concat(vec![r1, r2]);
            let mut word: Vec<&str> = w1.iter().map(String::as_str).collect();
            word.extend(w2.iter().map(String::as_str));
            prop_assert!(concat.accepts(&word));
        }
    }
}
