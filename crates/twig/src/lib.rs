//! # qbe-twig — twig/path queries and their learners
//!
//! The semi-structured half of the paper: twig queries (the practical subclass of XPath),
//! their evaluation, and the learning algorithms the thesis builds on and extends.
//!
//! * [`query`] — the twig query model (node tests, child/descendant axes, spine, filters,
//!   anchoring) and XPath serialisation;
//! * [`xpath`] — parser for the corresponding XPath fragment;
//! * [`eval`] — embedding-based evaluation (polynomial);
//! * [`eval_indexed`] — the production evaluator: postings intersection against a prebuilt
//!   [`qbe_xml::NodeIndex`] with memoised sub-twig matches, differentially tested against
//!   [`eval`];
//! * [`containment`] — homomorphism-based containment/equivalence;
//! * [`example`] — annotated-document examples;
//! * [`learn`] — the positive-example learner (most specific anchored twig);
//! * [`consistency`] — positive+negative examples: polynomial heuristic, exact exponential
//!   search, the tractable path case, and unions of twigs;
//! * [`interactive`] — the interactive node-labelling protocol ("a practical system able to
//!   learn twig queries from interaction with the user") with uninformative-node pruning: a
//!   session driven one propose/record round at a time, and the goal oracle that evaluates
//!   twig goals;
//! * [`pac`] — approximate (PAC) learning;
//! * [`schema_aware`] — query satisfiability/implication w.r.t. a multiplicity schema and the
//!   overspecialisation pruning the paper proposes;
//! * [`xpathmark`] — the XPathMark-like benchmark suite used by the coverage experiment.

#![warn(missing_docs)]

pub mod consistency;
pub mod containment;
pub mod eval;
pub mod eval_indexed;
pub mod example;
pub mod interactive;
pub mod learn;
pub mod pac;
pub mod query;
pub mod schema_aware;
pub mod xpath;
pub mod xpathmark;

pub use consistency::{learn_union, most_specific_consistent, Consistency, UnionQuery};
pub use containment::{contained_in, equivalent, equivalent_on};
pub use eval::{count, matches, select, selects};
pub use eval_indexed::{EvalCache, Evaluator};
pub use example::{Annotation, ExampleSet};
pub use interactive::{GoalNodeOracle, NodeOracle, NodeStrategy, TwigSession};
pub use learn::{
    learn_from_positives, learn_from_positives_shared, learn_path_from_positives, TwigLearnError,
};
pub use pac::{pac_learn, pac_sample_size, PacOutcome, QueryQuality};
pub use query::{Axis, NodeTest, QNodeId, TwigQuery};
pub use schema_aware::{learn_with_schema, prune_implied_filters, query_satisfiable, PruneReport};
pub use xpath::{parse_xpath, XPathError};

#[cfg(test)]
mod proptests {
    use crate::{contained_in, eval, learn_from_positives, parse_xpath, select};
    use proptest::prelude::*;
    use qbe_xml::random::{RandomTreeConfig, RandomTreeGenerator};
    use qbe_xml::XmlTree;

    fn tree(seed: u64) -> XmlTree {
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
        /// The learned query always selects every node it was trained on.
        #[test]
        fn learner_is_consistent_with_positives(seed in 0u64..200, picks in proptest::collection::vec(0usize..50, 1..4)) {
            let doc = tree(seed);
            let nodes: Vec<_> = doc.node_ids().collect();
            let examples: Vec<(&XmlTree, qbe_xml::NodeId)> =
                picks.iter().map(|p| (&doc, nodes[p % nodes.len()])).collect();
            let q = learn_from_positives(&examples).unwrap();
            for (d, n) in examples {
                prop_assert!(eval::selects(&q, d, n), "query {q} misses a training node");
            }
        }

        /// Parsing the XPath serialisation of a learned query is the identity.
        #[test]
        fn learned_query_xpath_roundtrips(seed in 0u64..200, pick in 0usize..50) {
            let doc = tree(seed);
            let nodes: Vec<_> = doc.node_ids().collect();
            let node = nodes[pick % nodes.len()];
            let q = learn_from_positives(&[(&doc, node)]).unwrap();
            let reparsed = parse_xpath(&q.to_xpath()).unwrap();
            prop_assert_eq!(reparsed.to_xpath(), q.to_xpath());
            prop_assert_eq!(select(&reparsed, &doc), select(&q, &doc));
        }

        /// Homomorphism containment is sound w.r.t. evaluation on random documents.
        #[test]
        fn containment_is_sound(seed in 0u64..150) {
            let doc = tree(seed);
            let pairs = [
                ("//a", "//*"),
                ("/root//b", "//b"),
                ("//a[b]", "//a"),
                ("//a[b][c]", "//a[b]"),
                ("/root/a/b", "/root//b"),
            ];
            for (sub, sup) in pairs {
                let qs = parse_xpath(sub).unwrap();
                let qp = parse_xpath(sup).unwrap();
                prop_assert!(contained_in(&qs, &qp), "{sub} ⊆ {sup} should hold syntactically");
                let ss = select(&qs, &doc);
                let sp = select(&qp, &doc);
                prop_assert!(ss.is_subset(&sp), "evaluation contradicts containment for {sub} ⊆ {sup}");
            }
        }

        /// Adding a filter never enlarges the answer set.
        #[test]
        fn filters_are_monotone_restrictions(seed in 0u64..150) {
            let doc = tree(seed);
            let base = parse_xpath("//a").unwrap();
            let filtered = parse_xpath("//a[b]").unwrap();
            prop_assert!(select(&filtered, &doc).is_subset(&select(&base, &doc)));
        }
    }
}
