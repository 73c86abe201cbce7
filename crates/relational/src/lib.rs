//! # qbe-relational — relational substrate and join/semijoin query learning
//!
//! The relational half of the paper's §3:
//!
//! * [`model`] — values, schemas, tuples, relations, instances;
//! * [`operators`] — cartesian product, equi-join, natural join, semijoin, selection;
//! * [`join_learn`] — learning equi-join predicates from labelled tuple pairs (PTIME
//!   consistency, most-specific witness);
//! * [`semijoin_learn`] — learning semijoin predicates from labelled left tuples (intractable
//!   consistency: exact exponential search + greedy heuristic);
//! * [`interactive`] — the interactive protocol: propose informative pairs, prune uninformative
//!   ones, minimise user interactions; several proposal strategies; [`interactive_learn`] runs
//!   one session against a goal predicate;
//! * [`crowd`] — HIT pricing of interactive sessions (crowdsourcing use case);
//! * [`generate`] — synthetic instances for experiments and benchmarks.
//!
//! The baselines the paper positions itself against (§3 related work) are implemented alongside
//! the learners so that the experiments can compare them head-to-head:
//!
//! * [`spj`] — the select–project–join algebra the baselines search over;
//! * [`mod@query_by_output`] — Tran et al.'s query-by-output (decision-tree/TALOS style);
//! * [`view_synthesis`] — Das Sarma et al.'s most-succinct view definitions;
//! * [`cfd`] — Fan et al.'s conditional functional dependency discovery;
//! * [`bp`] — the Bancilhon–Paredaens expressibility criterion (BP-completeness).

#![warn(missing_docs)]

pub mod bp;
pub mod cfd;
pub mod chain;
pub mod crowd;
pub mod generate;
pub mod interactive;
pub mod join_learn;
pub mod model;
pub mod operators;
pub mod query_by_output;
pub mod semijoin_learn;
pub mod spj;
pub mod view_synthesis;

pub use bp::{automorphisms, bp_expressible, sequence_expressible, BpObstruction, BpVerdict};
pub use cfd::{discover_constant_cfds, discover_fds, fd_holds, Cfd, DiscoveredFd, Pattern};
pub use chain::{
    chain_consistent, chain_join, generate_chain_instance, interactive_chain_learn,
    most_specific_chain, ChainConsistency, ChainInstanceConfig, ChainPredicate,
    ChainSessionOutcome, LabelledCombination,
};
pub use crowd::{crowdsourced_learn, CrowdOutcome, HitPricing};
pub use generate::{customers_orders_database, generate_join_instance, JoinInstanceConfig};
pub use interactive::{
    interactive_learn, InteractiveSession, PairStatus, SessionOutcome, Strategy,
};
pub use join_learn::{
    join_consistent, learn_join, most_specific_predicate, JoinConsistency, LabelledPair,
};
pub use model::{Instance, Relation, RelationSchema, Tuple, Value};
pub use operators::{cartesian_product, equi_join, natural_join, semijoin, JoinPredicate};
pub use query_by_output::{query_by_output, LearnedOutputQuery, QboError, QboReport};
pub use semijoin_learn::{semijoin_consistent_exact, semijoin_learn_greedy, LabelledTuple};
pub use spj::{Condition, SpjError, SpjQuery};
pub use view_synthesis::{synthesize_view, SynthesisOutcome, ViewDefinition, ViewSynthesisError};

#[cfg(test)]
mod proptests {
    use crate::generate::{generate_join_instance, JoinInstanceConfig};
    use crate::interactive::{interactive_learn, selected_pairs, Strategy};
    use crate::join_learn::{join_consistent, LabelledPair};
    use crate::operators::JoinPredicate;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The most specific predicate learned from labels generated by a hidden goal is always
        /// consistent with those labels, and semantically at least as selective as the goal.
        #[test]
        fn join_learning_is_consistent(seed in 0u64..500, rows in 5usize..25) {
            let (left, right, goal) = generate_join_instance(&JoinInstanceConfig {
                left_rows: rows,
                right_rows: rows,
                seed,
                ..Default::default()
            });
            // Label a sample of pairs according to the goal.
            let labels: Vec<LabelledPair> = (0..rows)
                .map(|i| {
                    let l = i % left.len();
                    let r = (i * 7 + seed as usize) % right.len();
                    let positive = goal.satisfied_by(&left.tuples()[l], &right.tuples()[r]);
                    LabelledPair::new(l, r, positive)
                })
                .collect();
            let result = join_consistent(&left, &right, &labels).unwrap();
            prop_assert!(result.is_consistent());
            let learned = result.predicate().unwrap();
            // The goal's equalities hold on every labelled positive (the oracle produced the
            // labels), so they all survive into the most specific predicate: goal ⊆ learned.
            if labels.iter().any(|l| l.positive) {
                for p in goal.pairs() {
                    prop_assert!(learned.contains(p));
                }
            }
            for l in &labels {
                let holds = learned.satisfied_by(&left.tuples()[l.left], &right.tuples()[l.right]);
                prop_assert_eq!(holds, l.positive);
            }
        }

        /// The interactive protocol always terminates, stays consistent, and the learned
        /// predicate selects exactly the same pairs as the hidden goal.
        #[test]
        fn interactive_learning_recovers_goal_semantics(seed in 0u64..200, rows in 4usize..12) {
            let (left, right, goal) = generate_join_instance(&JoinInstanceConfig {
                left_rows: rows,
                right_rows: rows,
                seed,
                ..Default::default()
            });
            let outcome = interactive_learn(&left, &right, &goal, Strategy::HalveLattice, seed);
            prop_assert!(outcome.consistent);
            prop_assert_eq!(
                selected_pairs(&left, &right, &outcome.predicate),
                selected_pairs(&left, &right, &goal)
            );
            prop_assert!(outcome.interactions <= rows * rows);
        }

        /// Predicate subset ordering is antisymmetric w.r.t. selection: a subset predicate never
        /// selects fewer pairs.
        #[test]
        fn smaller_predicates_select_more(seed in 0u64..200) {
            let (left, right, goal) = generate_join_instance(&JoinInstanceConfig {
                left_rows: 10,
                right_rows: 10,
                seed,
                ..Default::default()
            });
            let empty = JoinPredicate::empty();
            let goal_pairs = selected_pairs(&left, &right, &goal);
            let all_pairs = selected_pairs(&left, &right, &empty);
            prop_assert!(goal_pairs.is_subset(&all_pairs));
        }
    }
}
