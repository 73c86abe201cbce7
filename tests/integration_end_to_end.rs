//! End-to-end tests of the one interactive protocol of `qbe-core`: the same
//! [`InteractiveLearner`](qbe_core::InteractiveLearner) loop, driven by a hidden goal, learns
//! twig and join queries whose answer sets equal the goal's, and a full pipeline chains two
//! exchanges.

use std::sync::Arc;

use qbe_core::relational::{customers_orders_database, interactive::selected_pairs, JoinPredicate};
use qbe_core::twig::{parse_xpath, select, NodeStrategy};
use qbe_core::xml::xmark::{generate, XmarkConfig};
use qbe_core::xml::NodeIndex;
use qbe_core::{drive, JoinInteractive, SessionConfig, TwigInteractive};

#[test]
fn generic_interactive_protocol_learns_a_twig_query() {
    let docs = Arc::new(vec![generate(&XmarkConfig::new(0.03, 1))]);
    let indexes = Arc::new(docs.iter().map(NodeIndex::build).collect::<Vec<_>>());
    let goal = parse_xpath("//person/name").unwrap();
    let mut learner =
        TwigInteractive::with_shared(docs.clone(), indexes, NodeStrategy::LabelAffinity, 1)
            .with_goal(goal.clone());
    let report = drive(&mut learner);
    assert!(report.success, "labels from a goal are always consistent");

    // The learned query selects exactly the goal's answer set.
    let learned = learner.session().candidate().expect("a learned query");
    assert_eq!(select(&learned, &docs[0]), select(&goal, &docs[0]));
    // The session asked for strictly fewer labels than there are nodes (pruning happened).
    assert!(report.questions < docs[0].size());
}

#[test]
fn generic_interactive_protocol_learns_a_join_query() {
    let db = customers_orders_database(8, 2, 6);
    let customers = Arc::new(db.relation("customers").unwrap().clone());
    let orders = Arc::new(db.relation("orders").unwrap().clone());
    let goal =
        JoinPredicate::from_names(customers.schema(), orders.schema(), &[("cid", "cid")]).unwrap();
    let mut learner =
        JoinInteractive::with_config(customers.clone(), orders.clone(), SessionConfig::new())
            .with_goal(goal.clone());
    let report = drive(&mut learner);
    assert!(report.success);

    let learned = learner.session().current_hypothesis();
    assert_eq!(
        selected_pairs(&customers, &orders, &learned),
        selected_pairs(&customers, &orders, &goal)
    );
    assert!(
        report.questions < customers.len() * orders.len(),
        "no pruning happened"
    );
}

#[test]
fn learned_shredding_feeds_a_learned_join() {
    // Full pipeline: XML → relational with a learned twig query, then the produced relation is
    // joined (with a learned predicate) against a lookup table — i.e. two learning steps chained
    // across data models, the thesis's end goal.
    use qbe_core::exchange::shred_xml_to_relational;
    use qbe_core::relational::{
        interactive_learn, Relation, RelationSchema, Strategy, Tuple, Value,
    };
    use qbe_core::twig::learn_from_positives;

    let doc = generate(&XmarkConfig::new(0.05, 8));
    let names = doc.nodes_with_label("name");
    let goal_query = parse_xpath("//person/name").unwrap();
    let person_names: Vec<_> = names
        .iter()
        .copied()
        .filter(|&n| select(&goal_query, &doc).contains(&n))
        .collect();
    assert!(person_names.len() >= 2);

    // Learn the extraction query from a handful of clicks and shred. (Two clicks usually
    // suffice; a few more guard against the most-specific learner keeping optional filters
    // both sampled persons happened to share.)
    let examples: Vec<_> = person_names.iter().take(5).map(|&n| (&doc, n)).collect();
    let learned_query = learn_from_positives(&examples).unwrap();
    let (shredded, _) = shred_xml_to_relational(&doc, &learned_query, "person_names");
    assert!(shredded.len() >= examples.len());
    assert!(shredded.len() <= person_names.len());

    // Build a lookup relation keyed by the same node index and learn the join interactively.
    let lookup_schema = RelationSchema::new("lookup", &["node", "category"]);
    let lookup = Relation::with_tuples(
        lookup_schema,
        shredded
            .tuples()
            .iter()
            .map(|t| Tuple::new(vec![t.get(0).clone(), Value::text("person")]))
            .collect(),
    );
    let goal_join =
        JoinPredicate::from_names(shredded.schema(), lookup.schema(), &[("node", "node")]).unwrap();
    let outcome = interactive_learn(
        &shredded,
        &lookup,
        &goal_join,
        Strategy::MostSpecificFirst,
        3,
    );
    assert!(outcome.consistent);
    // The learned join links every shredded tuple to its lookup row.
    let joined = qbe_core::relational::equi_join(&shredded, &lookup, &outcome.predicate);
    assert_eq!(joined.len(), shredded.len());
}
