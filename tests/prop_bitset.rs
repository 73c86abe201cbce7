//! Differential property suite for the dense-bitset engine (PR 5).
//!
//! Two families of properties, ≥256 random instances per model:
//!
//! * **DenseSet eval ≡ BTreeSet eval** — the bitset evaluators must be extensionally equal to
//!   the naive `BTreeSet`-producing executable specifications (`twig::eval`, `graph::rpq::
//!   evaluate`, the relational status sweep), and [`DenseSet`] itself must behave exactly like
//!   a `BTreeSet` under random operation sequences;
//! * **incremental pools ≡ from-scratch pools** — each interactive session's incremental
//!   candidate pool (maintained by word-level set difference across rounds) must equal the
//!   from-scratch recomputation after every single proposal, for twig, path and join sessions.

use proptest::prelude::*;
use qbe_core::graph::interactive::{PathConstraint, PathSession, PathStrategy};
use qbe_core::graph::{generate_geo_graph, GeoConfig};
use qbe_core::relational::interactive::{InteractiveSession, Strategy};
use qbe_core::relational::{generate_join_instance, JoinInstanceConfig};
use qbe_core::twig::query::{Axis, NodeTest, TwigQuery};
use qbe_core::twig::{eval, eval_indexed, NodeStrategy, TwigSession};
use qbe_core::xml::random::{RandomTreeConfig, RandomTreeGenerator};
use qbe_core::xml::{NodeId, NodeIndex, XmlTree};
use qbe_core::DenseSet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn random_tree(seed: u64) -> XmlTree {
    let cfg = RandomTreeConfig {
        alphabet: ('a'..='e').map(|c| c.to_string()).collect(),
        max_depth: 4,
        max_children: 3,
        ..Default::default()
    };
    RandomTreeGenerator::new(cfg, seed).generate()
}

/// A random anchored-ish goal: `//label` over a label the document may or may not carry.
fn random_goal(seed: u64, doc: &XmlTree) -> TwigQuery {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
    let mut labels = doc.alphabet();
    labels.push("zz_absent".to_string());
    TwigQuery::new(
        Axis::Descendant,
        NodeTest::label(labels.choose(&mut rng).expect("non-empty")),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// [`DenseSet`] behaves exactly like a `BTreeSet<usize>` under random operation sequences
    /// (insert/remove/and/or/and-not), including iteration order.
    #[test]
    fn dense_set_matches_btreeset_model(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let universe = rng.gen_range(1usize..200);
        let mut dense: DenseSet = DenseSet::new(universe);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for _ in 0..64 {
            let id = rng.gen_range(0..universe);
            match rng.gen_range(0u32..5) {
                0 | 1 => {
                    prop_assert_eq!(dense.insert(id), model.insert(id));
                }
                2 => {
                    prop_assert_eq!(dense.remove(id), model.remove(&id));
                }
                3 => {
                    let other_ids: Vec<usize> =
                        (0..universe).filter(|_| rng.gen_bool(0.3)).collect();
                    let other: DenseSet = DenseSet::from_ids(universe, other_ids.iter().copied());
                    let other_model: BTreeSet<usize> = other_ids.into_iter().collect();
                    if rng.gen_bool(0.5) {
                        dense.and_with(&other);
                        model = model.intersection(&other_model).copied().collect();
                    } else {
                        dense.and_not_with(&other);
                        model = model.difference(&other_model).copied().collect();
                    }
                    prop_assert_eq!(dense.intersection_len(&other),
                        model.intersection(&other_model).count());
                }
                _ => {
                    let other_ids: Vec<usize> =
                        (0..universe).filter(|_| rng.gen_bool(0.1)).collect();
                    let other: DenseSet = DenseSet::from_ids(universe, other_ids.iter().copied());
                    dense.or_with(&other);
                    model.extend(other_ids);
                }
            }
            prop_assert_eq!(dense.len(), model.len());
            prop_assert_eq!(dense.iter().collect::<Vec<_>>(),
                model.iter().copied().collect::<Vec<_>>());
        }
    }

    /// Twig: the bitset evaluator's answer equals the naive `BTreeSet` evaluator's on random
    /// documents and goals (set contents *and* ascending iteration order).
    #[test]
    fn twig_dense_eval_equals_btreeset_eval(seed in 0u64..1_000_000) {
        let doc = random_tree(seed);
        let goal = random_goal(seed, &doc);
        let index = NodeIndex::build(&doc);
        let naive: BTreeSet<NodeId> = eval::select(&goal, &doc);
        let mut cache = eval_indexed::EvalCache::new();
        let bits = eval_indexed::select_bits_with(&goal, &doc, &index, &mut cache);
        prop_assert_eq!(bits.iter().collect::<BTreeSet<_>>(), naive.clone());
        prop_assert_eq!(
            bits.iter().collect::<Vec<_>>(),
            naive.iter().copied().collect::<Vec<_>>(),
            "bitset iteration must be ascending like the sorted spec"
        );
    }

    /// Twig sessions: the incremental pool equals the from-scratch recomputation
    /// (`informative_nodes() ∖ proven determined negatives`) after every proposal.
    #[test]
    fn twig_incremental_pool_equals_from_scratch(seed in 0u64..1_000_000) {
        let doc = random_tree(seed);
        let goal = random_goal(seed.wrapping_mul(31), &doc);
        let selected = eval::select(&goal, &doc);
        let mut session = TwigSession::new(vec![doc], NodeStrategy::LabelAffinity, seed);
        let mut rounds = 0usize;
        while let Some((d, n)) = session.propose() {
            let determined: BTreeSet<(usize, NodeId)> =
                session.determined_negative_nodes().into_iter().collect();
            let mut spec = session.informative_nodes();
            spec.retain(|key| !determined.contains(key));
            prop_assert_eq!(
                session.informative_pool(), spec,
                "incremental pool diverged from the from-scratch pool at round {}", rounds
            );
            session.record(d, n, selected.contains(&n));
            rounds += 1;
            prop_assert!(rounds <= 4096, "session failed to terminate");
        }
    }

    /// Path sessions: the incremental pool equals the from-scratch
    /// [`PathSession::informative_paths`] specification, recomputed from the labels alone,
    /// after every proposal.
    #[test]
    fn path_incremental_pool_equals_from_scratch(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generate_geo_graph(&GeoConfig {
            cities: rng.gen_range(5usize..10),
            connectivity: rng.gen_range(2usize..4),
            seed,
            ..Default::default()
        });
        let nodes: Vec<_> = graph.node_ids().collect();
        let from = *nodes.choose(&mut rng).expect("non-empty graph");
        let to = *nodes.choose(&mut rng).expect("non-empty graph");
        let goal = PathConstraint {
            road_type: if rng.gen_bool(0.5) { Some("highway".into()) } else { None },
            max_distance: if rng.gen_bool(0.3) { Some(rng.gen_range(50.0..500.0)) } else { None },
            via: None,
        };
        let mut session = PathSession::new(&graph, from, to, 5, PathStrategy::Halving, seed);
        let mut rounds = 0usize;
        while let Some(ix) = session.propose() {
            prop_assert_eq!(
                session.informative_pool(),
                session.informative_paths(),
                "incremental pool diverged from the from-scratch pool at round {}", rounds
            );
            let accepts = goal.accepts(&graph, session.path(ix));
            session.record(ix, accepts);
            rounds += 1;
            prop_assert!(rounds <= 4096, "session failed to terminate");
        }
    }

    /// Join sessions: the incremental `PairSet` pool equals the from-scratch status sweep
    /// ([`InteractiveSession::informative_pairs`], the `BTreeSet`-predicate specification)
    /// after every proposal — which simultaneously pins the multi-word agreement masks against
    /// the `JoinPredicate` agreement sets they encode. Schemas reach 13×13 = 169 attribute
    /// pairs, three mask words.
    #[test]
    fn join_incremental_pool_equals_from_scratch(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (left, right, goal) = generate_join_instance(&JoinInstanceConfig {
            left_rows: rng.gen_range(3usize..9),
            right_rows: rng.gen_range(3usize..9),
            extra_attributes: rng.gen_range(0usize..13),
            domain_size: rng.gen_range(2usize..5),
            seed,
        });
        let mut session = InteractiveSession::new(&left, &right, Strategy::HalveLattice, seed);
        let mut rounds = 0usize;
        while let Some((l, r)) = session.propose() {
            prop_assert_eq!(
                session.informative_pool(),
                session.informative_pairs(),
                "incremental pool diverged from the from-scratch pool at round {}", rounds
            );
            let positive = goal.satisfied_by(&left.tuples()[l], &right.tuples()[r]);
            session.record(l, r, positive);
            rounds += 1;
            prop_assert!(rounds <= 4096, "session failed to terminate");
        }
        prop_assert!(session.is_consistent());
    }
}
