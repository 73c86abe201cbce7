//! Regression pins: exact oracle question counts for the interactive learners on fixed seeds.
//!
//! The indexed-evaluation rewrite must not change *what* the learners do, only how fast they do
//! it — and future evaluator or session rewrites must uphold the same invariant. These tests pin
//! the number of questions each learner asks on fixed scenarios (XMark documents for twig,
//! generated join/chain instances for relational, the geographical graph for paths), so any
//! rewrite that silently alters learner behaviour fails loudly here with the old and new counts.
//!
//! If a deliberate strategy change moves these numbers, update the pins in the same commit and
//! say why in its message.

use qbe_core::algebra::{ConjQuery, EvalCache, PathAtom, QueryStore, Term};
use qbe_core::graph::interactive::{
    interactive_path_learn, GoalPathOracle, PathConstraint, PathSession, PathStrategy,
};
use qbe_core::graph::{
    eval_conj_tuples, eval_expr_pairs, generate_geo_graph, typed_road_view, GNodeId, GeoConfig,
    GraphIndex, PropertyGraph, QueryClass,
};
use qbe_core::relational::chain::{
    generate_chain_instance, interactive_chain_learn, ChainInstanceConfig,
};
use qbe_core::relational::interactive::{GoalOracle, InteractiveSession};
use qbe_core::relational::{
    generate_join_instance, interactive_learn, JoinInstanceConfig, Strategy,
};
use qbe_core::twig::{
    interactive_twig_learn, interactive_twig_learn_config, parse_xpath, GoalNodeOracle, NodeOracle,
    NodeStrategy, TwigSession,
};
use qbe_core::xml::xmark::{corpus_by_name, generate, XmarkConfig};
use qbe_core::xml::{NodeIndex, XmlTree};
use qbe_core::{drive, GraphQueryInteractive, InteractiveLearner, SessionConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

fn named(strategy: &str, seed: u64) -> SessionConfig {
    SessionConfig::new()
        .seed(seed)
        .strategy_named(strategy)
        .expect("shipped strategy names resolve")
}

fn xmark() -> XmlTree {
    generate(&XmarkConfig::new(0.01, 3))
}

#[test]
fn xmark_document_shape_is_stable() {
    // All twig pins below assume this exact document.
    assert_eq!(xmark().size(), 266);
}

#[test]
fn twig_session_question_counts_are_pinned() {
    let doc = xmark();
    let cases: [(&str, NodeStrategy, u64, usize); 4] = [
        ("//person/name", NodeStrategy::LabelAffinity, 7, 51),
        ("//person/name", NodeStrategy::DocumentOrder, 7, 187),
        ("//item/name", NodeStrategy::LabelAffinity, 7, 115),
        ("//open_auction", NodeStrategy::ShallowFirst, 7, 19),
    ];
    for (goal, strategy, seed, expected) in cases {
        let outcome = interactive_twig_learn(
            std::slice::from_ref(&doc),
            &parse_xpath(goal).unwrap(),
            strategy,
            seed,
        );
        assert!(outcome.consistent, "{goal} {strategy:?}");
        assert!(outcome.query.is_some(), "{goal} {strategy:?}");
        assert_eq!(
            outcome.interactions, expected,
            "{goal} with {strategy:?} (seed {seed}) changed its question count"
        );
        assert_eq!(outcome.interactions + outcome.pruned, outcome.total_nodes);
    }
}

/// Sessions on the served `medium` corpus (the 2,712-node default XMark document) with the
/// default strategy and seed 1, as a served session runs them: the question count and the
/// number of nodes the session proves negative instead of asking (most of them while the pool
/// drains after the last question). Pinned with the per-node determination rule.
#[test]
fn medium_twig_sessions_pin_questions_and_determined_negatives() {
    let docs = Arc::new(corpus_by_name("xmark-default").expect("a named corpus"));
    let indexes = Arc::new(docs.iter().map(NodeIndex::build).collect::<Vec<_>>());
    let cases: [(&str, usize, usize); 2] = [
        ("//closed_auction/price", 84, 2_619),
        ("//item/name", 874, 1_721),
    ];
    for (goal, questions, determined) in cases {
        let mut oracle = GoalNodeOracle::new(&docs, parse_xpath(goal).unwrap());
        let mut session =
            TwigSession::with_config(docs.clone(), indexes.clone(), SessionConfig::new().seed(1));
        while let Some((doc, node)) = session.propose() {
            let positive = oracle.label(doc, node);
            session.record(doc, node, positive);
        }
        assert!(session.consistent(), "{goal}");
        assert_eq!(oracle.questions_asked(), questions, "{goal} question count");
        assert_eq!(
            session.determined_negative_nodes().len(),
            determined,
            "{goal} determined negatives"
        );
    }
}

/// The model-agnostic strategies, pinned on the same instances as the model presets above.
///
/// `paper-order` is the executable spec of the pre-API behaviour: on twigs it must stay
/// byte-identical to the `DocumentOrder` pin (187) and `cheapest-first` to the path
/// `ShortestFirst` pin (13) — those equalities are asserted, not just the raw numbers. The
/// remaining counts were pinned when the strategies shipped (PR 4).
#[test]
fn generic_strategy_question_counts_are_pinned() {
    // Twig: //person/name on the pinned XMark document, seed 7 (as above).
    let doc = xmark();
    let goal = parse_xpath("//person/name").unwrap();
    let twig_cases: [(&str, usize); 4] = [
        ("paper-order", 187),
        ("random", 53),
        ("max-coverage", 164),
        ("cheapest-first", 36),
    ];
    for (strategy, expected) in twig_cases {
        let outcome =
            interactive_twig_learn_config(std::slice::from_ref(&doc), &goal, named(strategy, 7));
        assert!(outcome.consistent && outcome.query.is_some(), "{strategy}");
        assert_eq!(
            outcome.interactions, expected,
            "twig learning with {strategy} changed its question count"
        );
    }
    let paper_order =
        interactive_twig_learn_config(std::slice::from_ref(&doc), &goal, named("paper-order", 7));
    let document_order = interactive_twig_learn(
        std::slice::from_ref(&doc),
        &goal,
        NodeStrategy::DocumentOrder,
        7,
    );
    assert_eq!(
        paper_order.interactions, document_order.interactions,
        "paper-order is the executable spec of the pre-API document-order behaviour"
    );

    // Join: the pinned generated instance, seed 1 (as above). `random` must stay
    // byte-identical to the legacy `Strategy::Random` pin (6): same stream, same questions.
    let (left, right, join_goal) = generate_join_instance(&JoinInstanceConfig {
        left_rows: 20,
        right_rows: 20,
        extra_attributes: 2,
        domain_size: 6,
        seed: 1,
    });
    let join_cases: [(&str, usize); 4] = [
        ("paper-order", 16),
        ("random", 6),
        ("max-coverage", 9),
        ("cheapest-first", 9),
    ];
    for (strategy, expected) in join_cases {
        let session = InteractiveSession::with_config(&left, &right, named(strategy, 1));
        let mut oracle = GoalOracle::new(&left, &right, join_goal.clone());
        let outcome = session.run(&mut oracle);
        assert!(outcome.consistent, "{strategy}");
        assert_eq!(
            outcome.interactions, expected,
            "join learning with {strategy} changed its question count"
        );
    }

    // Path: the pinned geographical instance, seed 5, max_edges 8 (as above).
    // `cheapest-first` must stay byte-identical to the `ShortestFirst` pin (13).
    let graph = generate_geo_graph(&GeoConfig {
        cities: 12,
        connectivity: 3,
        ..Default::default()
    });
    let from = graph.find_node_by_property("name", "city0").unwrap();
    let to = graph.find_node_by_property("name", "city6").unwrap();
    let path_goal = PathConstraint {
        road_type: Some("highway".to_string()),
        max_distance: None,
        via: None,
    };
    let path_cases: [(&str, usize); 4] = [
        ("paper-order", 13),
        ("random", 34),
        ("max-coverage", 16),
        ("cheapest-first", 13),
    ];
    for (strategy, expected) in path_cases {
        let session = PathSession::with_config(&graph, from, to, 8, named(strategy, 5));
        let mut oracle = GoalPathOracle::new(path_goal.clone());
        let outcome = session.run(&mut oracle);
        assert_eq!(
            outcome.interactions, expected,
            "path learning with {strategy} changed its question count"
        );
        for p in &outcome.candidates {
            assert_eq!(
                outcome.learned.accepts(&graph, p),
                path_goal.accepts(&graph, p),
                "{strategy} misclassifies a candidate path"
            );
        }
    }
}

/// 3×3, 9×9 and 13×13 attribute pairs: one, two and three agreement-mask words. The wide
/// counts were recorded from the `JoinPredicate` sweep specification, which served schemas
/// above 64 attribute pairs before the bitmask engine covered every width.
#[test]
fn join_session_question_counts_are_pinned() {
    let cases: [(usize, [(Strategy, usize); 3]); 3] = [
        (
            2,
            [
                (Strategy::Random, 6),
                (Strategy::MostSpecificFirst, 4),
                (Strategy::HalveLattice, 5),
            ],
        ),
        (
            8,
            [
                (Strategy::Random, 14),
                (Strategy::MostSpecificFirst, 52),
                (Strategy::HalveLattice, 32),
            ],
        ),
        (
            12,
            [
                (Strategy::Random, 63),
                (Strategy::MostSpecificFirst, 22),
                (Strategy::HalveLattice, 20),
            ],
        ),
    ];
    for (extra_attributes, pins) in cases {
        let (left, right, goal) = generate_join_instance(&JoinInstanceConfig {
            left_rows: 20,
            right_rows: 20,
            extra_attributes,
            domain_size: 6,
            seed: 1,
        });
        for (strategy, expected) in pins {
            let outcome = interactive_learn(&left, &right, &goal, strategy, 1);
            assert!(outcome.consistent, "{extra_attributes} {strategy:?}");
            assert_eq!(
                outcome.interactions, expected,
                "join learning with {strategy:?} and {extra_attributes} extra attributes \
                 changed its question count"
            );
            assert_eq!(outcome.interactions + outcome.inferred, 400);
        }
    }
}

#[test]
fn chain_session_question_counts_are_pinned() {
    let (relations, goal) = generate_chain_instance(&ChainInstanceConfig::default());
    let outcome = interactive_chain_learn(&relations, &goal, Strategy::HalveLattice, 5);
    assert_eq!(
        outcome.interactions, 7,
        "chain learning changed its question count"
    );
    assert_eq!(outcome.inferred, 1793);
}

#[test]
fn path_session_question_counts_are_pinned() {
    let graph = generate_geo_graph(&GeoConfig {
        cities: 12,
        connectivity: 3,
        ..Default::default()
    });
    let from = graph.find_node_by_property("name", "city0").unwrap();
    let to = graph.find_node_by_property("name", "city6").unwrap();
    let goal = PathConstraint {
        road_type: Some("highway".to_string()),
        max_distance: None,
        via: None,
    };
    let cases: [(PathStrategy, usize); 2] = [
        (PathStrategy::ShortestFirst, 13),
        (PathStrategy::Halving, 16),
    ];
    for (strategy, expected) in cases {
        let outcome = interactive_path_learn(&graph, from, to, &goal, strategy, vec![], 5);
        assert_eq!(
            outcome.interactions, expected,
            "path learning with {strategy:?} changed its question count"
        );
        // The learned constraint still classifies every candidate like the goal.
        for p in &outcome.candidates {
            assert_eq!(outcome.learned.accepts(&graph, p), goal.accepts(&graph, p));
        }
    }
}

/// The demo goal of each graph query class, as the server's simulated clients define it: `t₀⁺`
/// for rpq, `t₀/t₀⁻` for 2rpq and `x —t₀→ y ∧ x —t₁→ y` for crpq, where `tᵢ` is the typed
/// graph's `i`-th edge label.
fn demo_graph_goal(typed: &PropertyGraph, class: QueryClass) -> BTreeSet<(GNodeId, GNodeId)> {
    let alphabet = typed.edge_alphabet();
    let index = GraphIndex::build(typed);
    let mut store = QueryStore::new();
    let mut cache = EvalCache::new();
    let first = store.label(&alphabet[0]);
    match class {
        QueryClass::Rpq => {
            let goal = store.plus(first);
            eval_expr_pairs(&index, &store, &mut cache, goal)
        }
        QueryClass::TwoRpq => {
            let inv = store.inv_label(&alphabet[0]);
            let goal = store.concat([first, inv]);
            eval_expr_pairs(&index, &store, &mut cache, goal)
        }
        QueryClass::Crpq => {
            let (x, y) = (store.sym("x"), store.sym("y"));
            let second = store.label(&alphabet[1]);
            let atom = |expr| PathAtom {
                subject: Term::Var(x),
                expr,
                object: Term::Var(y),
            };
            let goal = ConjQuery::new(vec![atom(first), atom(second)], vec![x, y]);
            eval_conj_tuples(&index, &store, &mut cache, &goal)
                .into_iter()
                .map(|t| (t[0], t[1]))
                .collect()
        }
    }
}

/// Graph query sessions on the served `medium` corpus's typed road view (256 cities), each
/// class against its demo goal, under the default `halving` strategy and the four shipped
/// ones at seed 7: the first question asked (its wire fields, so the question ids are pinned
/// too), the question count, and the learned query's `QUERY` text and `EVAL` size.
#[test]
fn graph_session_question_counts_are_pinned() {
    let typed = Arc::new(typed_road_view(&generate_geo_graph(&GeoConfig {
        cities: 256,
        connectivity: 3,
        ..Default::default()
    })));
    const RPQ: &str = "(highway)+";
    const TWO_RPQ: &str = "highway/highway^-";
    const CRPQ: &str = "SELECT ?x,?y WHERE ?x -[highway]-> ?y AND ?x -[local]-> ?y";
    const FIRST_PAIR: &str = "pair=0 source=city0 target=city1 source_id=0 target_id=1";
    const SECOND_PAIR: &str = "pair=1 source=city0 target=city2 source_id=0 target_id=2";
    const LOOP_PAIR: &str = "pair=0 source=city0 target=city0 source_id=0 target_id=0";
    const RANDOM_PAIR: &str = "pair=6972 source=city61 target=city90 source_id=61 target_id=90";
    const HALVING_PAIR: &str = "pair=2281 source=city20 target=city21 source_id=20 target_id=21";
    type Pin = (&'static str, &'static str, usize, &'static str, usize);
    let cases: [(QueryClass, [Pin; 5]); 3] = [
        (
            QueryClass::Rpq,
            [
                ("halving", SECOND_PAIR, 4, RPQ, 6_328),
                ("paper-order", FIRST_PAIR, 3, RPQ, 6_328),
                (
                    "random",
                    "pair=3934 source=city43 target=city65 source_id=43 target_id=65",
                    1,
                    RPQ,
                    6_328,
                ),
                ("max-coverage", SECOND_PAIR, 4, RPQ, 6_328),
                ("cheapest-first", FIRST_PAIR, 3, RPQ, 6_328),
            ],
        ),
        (
            QueryClass::TwoRpq,
            [
                ("halving", HALVING_PAIR, 7, TWO_RPQ, 112),
                ("paper-order", LOOP_PAIR, 4, TWO_RPQ, 112),
                ("random", RANDOM_PAIR, 11, TWO_RPQ, 112),
                ("max-coverage", HALVING_PAIR, 7, TWO_RPQ, 112),
                ("cheapest-first", LOOP_PAIR, 4, TWO_RPQ, 112),
            ],
        ),
        (
            QueryClass::Crpq,
            [
                ("halving", HALVING_PAIR, 6, CRPQ, 42),
                ("paper-order", LOOP_PAIR, 8, CRPQ, 42),
                ("random", RANDOM_PAIR, 27, CRPQ, 42),
                ("max-coverage", HALVING_PAIR, 6, CRPQ, 42),
                ("cheapest-first", LOOP_PAIR, 8, CRPQ, 42),
            ],
        ),
    ];
    for (class, pins) in cases {
        let goal = demo_graph_goal(&typed, class);
        for (strategy, first, questions, query, eval) in pins {
            let config = match strategy {
                "halving" => SessionConfig::new().seed(7),
                shipped => named(shipped, 7),
            };
            let mut learner = GraphQueryInteractive::with_config(typed.clone(), class, config)
                .with_goal(goal.clone());
            let what = format!("{} with {strategy}", class.wire_name());
            let asked = learner.propose().map(|q| q.to_string());
            assert_eq!(asked.as_deref(), Some(first), "{what}: first question");
            let report = drive(&mut learner);
            assert!(report.success, "{what}");
            assert_eq!(report.questions, questions, "{what}: question count");
            assert_eq!(
                learner.hypothesis().as_deref(),
                Some(query),
                "{what}: QUERY"
            );
            assert_eq!(learner.answer_set_size(), eval, "{what}: EVAL");
        }
    }
}
