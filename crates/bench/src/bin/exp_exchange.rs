//! Experiment E1 — Figure 1: the four cross-model exchange scenarios run end to end with
//! *learned* source queries.
//!
//! For each scenario the table reports the learned source query, how many items it extracted,
//! how many target objects were produced, how many user interactions (labels) the learning
//! phase needed, and the median time of the scenario's exchange call (learning included for
//! scenarios 1 and 2). Regenerate with `cargo run -p qbe-bench --bin exp_exchange`.

use qbe_exchange::{
    learned_publish_relational_to_xml, learned_shred_xml_to_relational, publish_graph_to_xml,
    shred_xml_to_graph, ExchangeReport,
};
use qbe_graph::{
    generate_geo_graph, interactive_path_learn, GeoConfig, PathConstraint, PathStrategy,
};
use qbe_relational::{customers_orders_database, interactive_learn, JoinPredicate, Strategy};
use qbe_twig::{learn_from_positives, select};
use qbe_xml::xmark::{generate, XmarkConfig};

/// Keep the learned-query column readable: long overspecialised twigs are elided in the middle.
fn shorten(query: &str, max: usize) -> String {
    let chars: Vec<char> = query.chars().collect();
    if chars.len() <= max {
        return query.to_string();
    }
    let head: String = chars[..max / 2].iter().collect();
    let tail: String = chars[chars.len() - max / 2 + 1..].iter().collect();
    format!("{head}…{tail}")
}

fn row(scenario: &str, report: &ExchangeReport, interactions: usize, micros: f64) {
    println!(
        "{:<22} {:<44} {:>9} {:>9} {:>13} {:>12.1}",
        scenario,
        shorten(&report.source_query, 44),
        report.extracted_items,
        report.produced_items,
        interactions,
        micros
    );
}

fn main() {
    qbe_bench::check_args();
    println!("E1 — cross-model exchange with learned source queries (Figure 1)");
    println!(
        "{:<22} {:<44} {:>9} {:>9} {:>13} {:>12}",
        "scenario", "learned source query", "extracted", "produced", "interactions", "time (µs)"
    );

    // Scenario 1: relational → XML.
    let db = customers_orders_database(40, 3, 3);
    let customers = db.relation("customers").unwrap();
    let orders = db.relation("orders").unwrap();
    let goal =
        JoinPredicate::from_names(customers.schema(), orders.schema(), &[("cid", "cid")]).unwrap();
    let session = interactive_learn(customers, orders, &goal, Strategy::HalveLattice, 1);
    let ((_, report), micros) = qbe_bench::time_us(|| {
        learned_publish_relational_to_xml(customers, orders, &goal, "sales", 1)
    });
    row("1 relational→XML", &report, session.interactions, micros);

    // Scenario 2: XML → relational.
    let doc = generate(&XmarkConfig::new(qbe_bench::param(0.1, 0.02), 7));
    let goal_q = qbe_twig::parse_xpath("//person/name").unwrap();
    let selected: Vec<_> = select(&goal_q, &doc).into_iter().collect();
    let annotated: Vec<_> = selected.iter().copied().take(2).collect();
    let ((_, report), micros) = qbe_bench::time_us(|| {
        learned_shred_xml_to_relational(&doc, &annotated, "person_names").unwrap()
    });
    row("2 XML→relational", &report, annotated.len(), micros);

    // Scenario 3: XML → graph.
    let items = doc.nodes_with_label("item");
    let examples: Vec<_> = items.iter().take(2).map(|&n| (&doc, n)).collect();
    let query = learn_from_positives(&examples).unwrap();
    let ((_, report), micros) = qbe_bench::time_us(|| shred_xml_to_graph(&doc, &query));
    row("3 XML→graph", &report, examples.len(), micros);

    // Scenario 4: graph → XML. The simulated user wants the itineraries whose total distance
    // stays under the median of the candidate itineraries (one of the restrictions the paper's
    // use case names explicitly), so the learned constraint keeps a non-trivial set of paths.
    // A probe session with the unconstrained goal exposes the candidate set the interactive
    // session will reason about.
    let graph = generate_geo_graph(&GeoConfig {
        cities: qbe_bench::param(30, 12),
        ..Default::default()
    });
    let from = graph.find_node_by_property("name", "city0").unwrap();
    let to = graph.find_node_by_property("name", "city9").unwrap();
    let probe = interactive_path_learn(
        &graph,
        from,
        to,
        &PathConstraint::any(),
        PathStrategy::ShortestFirst,
        Vec::new(),
        4,
    );
    let mut distances: Vec<f64> = probe
        .candidates
        .iter()
        .map(|p| p.total_distance(&graph))
        .collect();
    distances.sort_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
    let median = distances
        .get(distances.len() / 2)
        .copied()
        .unwrap_or(1_000.0);
    let goal = PathConstraint {
        road_type: None,
        max_distance: Some(median),
        via: None,
    };
    let outcome = interactive_path_learn(
        &graph,
        from,
        to,
        &goal,
        PathStrategy::Halving,
        Vec::new(),
        4,
    );
    let ((_, report), micros) = qbe_bench::time_us(|| {
        publish_graph_to_xml(&graph, &outcome.accepted_paths, &outcome.learned)
    });
    row("4 graph→XML", &report, outcome.interactions, micros);
}
