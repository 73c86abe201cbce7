//! Differential property suite: the session's class-batched determined-negative verdict
//! (`TwigSession::is_determined_negative_by_class`, what `propose` prunes by) must equal the
//! per-node specification (`TwigSession::is_determined_negative`) on every pool node after
//! every answer.
//!
//! Goals carry a filter (`//a[c]/b`, `//person[phone]/name`), so that nodes of one
//! extended-spine class differ on whether a harvested filter selects them and the class really
//! splits: a verdict keyed by the extended spine alone, without the split, fails both
//! properties. Every session runs under the four generic strategies and label affinity.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use qbe_strategy::SessionConfig;
use qbe_twig::{eval, parse_xpath, TwigSession};
use qbe_xml::random::{RandomTreeConfig, RandomTreeGenerator};
use qbe_xml::xmark::{generate, XmarkConfig};
use qbe_xml::{NodeId, NodeIndex, XmlTree};

/// The four generic strategies by name, then the model default (label affinity).
const STRATEGIES: [Option<&str>; 5] = [
    Some("paper-order"),
    Some("random"),
    Some("max-coverage"),
    Some("cheapest-first"),
    None,
];

fn random_tree(seed: u64) -> XmlTree {
    let cfg = RandomTreeConfig {
        alphabet: ('a'..='e').map(|c| c.to_string()).collect(),
        max_depth: 5,
        max_children: 4,
        ..Default::default()
    };
    RandomTreeGenerator::new(cfg, seed).generate()
}

fn config(strategy: Option<&str>, seed: u64) -> SessionConfig {
    let config = SessionConfig::new().seed(seed);
    match strategy {
        Some(name) => config.strategy_named(name).expect("a shipped strategy"),
        None => config,
    }
}

/// Run a session for `goal` to completion; after every answer, compare the two verdicts on
/// every node still in the pool.
fn verdicts_agree(doc: &XmlTree, goal: &str, config: SessionConfig) -> Result<(), TestCaseError> {
    let selected: BTreeSet<NodeId> = eval::select(&parse_xpath(goal).unwrap(), doc);
    let docs = Arc::new(vec![doc.clone()]);
    let indexes = Arc::new(vec![NodeIndex::build(doc)]);
    let mut session = TwigSession::with_config(docs, indexes, config);
    let mut rounds = 0usize;
    while let Some((d, n)) = session.propose() {
        session.record(d, n, selected.contains(&n));
        rounds += 1;
        for (doc_ix, node) in session.informative_pool() {
            let spec = session.is_determined_negative(doc_ix, node);
            prop_assert_eq!(
                session.is_determined_negative_by_class(doc_ix, node),
                spec,
                "{} after answer {}: node {:?} ({})",
                goal,
                rounds,
                node,
                doc.label_path(node).join("/")
            );
        }
        prop_assert!(rounds <= 4096, "session failed to terminate");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random trees over `a`–`e`, with a goal whose filter splits the `b` children of `a`.
    #[test]
    fn class_verdict_equals_per_node_spec_on_random_trees(seed in 0u64..1_000_000) {
        let doc = random_tree(seed);
        for strategy in STRATEGIES {
            verdicts_agree(&doc, "//a[c]/b", config(strategy, seed))?;
        }
    }
}

/// The 266-node XMark document the regression pins use, with filtered goals. Every item of
/// this document has a payment child, so the `[phone]` filter (some persons lack a phone) is
/// the one that splits a class here.
#[test]
fn class_verdict_equals_per_node_spec_on_xmark() {
    let doc = generate(&XmarkConfig::new(0.01, 3));
    for goal in ["//item[payment]/name", "//person[phone]/name"] {
        for strategy in STRATEGIES {
            if let Err(err) = verdicts_agree(&doc, goal, config(strategy, 7)) {
                panic!("{strategy:?}: {err}");
            }
        }
    }
}
