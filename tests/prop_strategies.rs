//! Differential property suite for the pluggable question-selection strategies: on random
//! instances of all three models, every shipped strategy — driven by a consistent goal oracle
//! and capped by a question budget the instance size bounds — converges to a query
//! semantically equivalent to the hidden goal.
//!
//! Strategies only reorder the questions; the sessions' version-space/pruning logic owns
//! correctness. These properties pin that contract: a strategy (shipped or future) can change
//! *how many* questions a session asks, never *what* it learns.

use proptest::prelude::*;
use std::sync::Arc;

use qbe_core::graph::interactive::{PathConstraint, PathSession};
use qbe_core::graph::{generate_geo_graph, GeoConfig};
use qbe_core::relational::interactive::selected_pairs;
use qbe_core::relational::{generate_join_instance, JoinInstanceConfig};
use qbe_core::twig::{eval, learn_from_positives};
use qbe_core::xml::random::{RandomTreeConfig, RandomTreeGenerator};
use qbe_core::xml::{NodeIndex, XmlTree};
use qbe_core::{
    drive, JoinInteractive, PathInteractive, SessionConfig, TwigInteractive, STRATEGY_NAMES,
};

fn config(strategy: &str, seed: u64, budget: usize) -> SessionConfig {
    SessionConfig::new()
        .seed(seed)
        .budget(budget)
        .strategy_named(strategy)
        .expect("shipped strategy names resolve")
}

fn random_tree(seed: u64) -> XmlTree {
    let cfg = RandomTreeConfig {
        alphabet: ('a'..='e').map(|c| c.to_string()).collect(),
        max_depth: 4,
        max_children: 3,
        ..Default::default()
    };
    let mut t = RandomTreeGenerator::new(cfg, seed).generate();
    t.set_label(XmlTree::ROOT, "root");
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Twig: whatever the strategy, the session recovers a query selecting exactly the goal's
    /// answer set, within a budget of one question per node (the exhaustive-labelling bound).
    #[test]
    fn every_strategy_recovers_twig_goals(seed in 0u64..500, pick in 0usize..50) {
        let doc = random_tree(seed);
        let nodes: Vec<_> = doc.node_ids().collect();
        // The goal is the most specific query of a random node: in the learner's hypothesis
        // class by construction, so the oracle's answers are always jointly consistent.
        let goal = learn_from_positives(&[(&doc, nodes[pick % nodes.len()])]).unwrap();
        let goal_answers = eval::select(&goal, &doc);
        let docs = Arc::new(vec![doc.clone()]);
        let indexes = Arc::new(docs.iter().map(NodeIndex::build).collect::<Vec<_>>());
        let budget = doc.size();
        for &strategy in STRATEGY_NAMES {
            let mut learner = TwigInteractive::with_config(
                docs.clone(),
                indexes.clone(),
                config(strategy, seed, budget),
            )
            .with_goal(goal.clone());
            let report = drive(&mut learner);
            prop_assert!(learner.session().consistent(), "{strategy}: labels stayed consistent");
            prop_assert!(report.questions <= budget, "{strategy}: within budget");
            let learned = learner
                .session()
                .candidate()
                .expect("the goal has at least one answer");
            prop_assert_eq!(
                eval::select(&learned, &doc),
                goal_answers.clone(),
                "{} learned a semantically different query",
                strategy
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Join: whatever the strategy, the learned predicate selects exactly the goal's pairs,
    /// within a budget of one question per candidate pair.
    #[test]
    fn every_strategy_recovers_join_goals(seed in 0u64..500, rows in 4usize..14) {
        let (left, right, goal) = generate_join_instance(&JoinInstanceConfig {
            left_rows: rows,
            right_rows: rows,
            seed,
            ..Default::default()
        });
        let reference = selected_pairs(&left, &right, &goal);
        let budget = left.len() * right.len();
        let (left, right) = (Arc::new(left), Arc::new(right));
        for &strategy in STRATEGY_NAMES {
            let mut learner = JoinInteractive::with_config(
                left.clone(),
                right.clone(),
                config(strategy, seed, budget),
            )
            .with_goal(goal.clone());
            let report = drive(&mut learner);
            prop_assert!(learner.session().is_consistent(), "{strategy}: labels stayed consistent");
            prop_assert!(report.questions <= budget, "{strategy}: within budget");
            prop_assert_eq!(
                selected_pairs(&left, &right, &learner.session().current_hypothesis()),
                reference.clone(),
                "{} learned a semantically different join",
                strategy
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Path: whatever the strategy, the learned constraint classifies every candidate
    /// itinerary exactly as the goal does, within a budget of one question per candidate.
    #[test]
    fn every_strategy_recovers_path_goals(
        graph_seed in 0u64..200,
        cities in 8usize..14,
        goal_kind in 0usize..3,
    ) {
        let graph = Arc::new(generate_geo_graph(&GeoConfig {
            cities,
            connectivity: 3,
            seed: graph_seed,
            ..Default::default()
        }));
        let from = graph.find_node_by_property("name", "city0").unwrap();
        let to = graph
            .find_node_by_property("name", &format!("city{}", cities / 2))
            .unwrap();
        let goal = match goal_kind {
            0 => PathConstraint::any(),
            1 => PathConstraint {
                road_type: Some("highway".to_string()),
                max_distance: None,
                via: None,
            },
            _ => PathConstraint {
                road_type: None,
                max_distance: Some(600.0),
                via: None,
            },
        };
        for &strategy in STRATEGY_NAMES {
            let probe = PathSession::with_config(
                &*graph,
                from,
                to,
                6,
                config(strategy, graph_seed, usize::MAX),
            );
            let budget = probe.candidate_count();
            let mut learner = PathInteractive::with_config(
                graph.clone(),
                from,
                to,
                6,
                config(strategy, graph_seed, budget),
            )
            .with_goal(goal.clone());
            let report = drive(&mut learner);
            prop_assert!(report.questions <= budget, "{strategy}: within budget");
            let session = learner.session();
            let learned = session.most_specific();
            for (path, accepted) in (0..session.candidate_count())
                .map(|ix| session.path(ix))
                .map(|p| (p, learned.accepts(&graph, p)))
            {
                prop_assert_eq!(
                    accepted,
                    goal.accepts(&graph, path),
                    "{} misclassifies a candidate path",
                    strategy
                );
            }
        }
    }
}
