//! Criterion benchmark for the pluggable question-selection strategies: one goal-driven
//! session per shipped strategy, on the two workloads the paper leads with — twig learning
//! over an XMark document and path learning over the geographical (RPQ) graph.
//!
//! Wall-clock per strategy is what criterion measures; the questions each strategy asked (the
//! paper's cost metric) are printed once per benchmark so a run shows both sides of the
//! trade-off: informed strategies spend more picking to ask less.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qbe_core::graph::{generate_geo_graph, interactive::PathConstraint, GeoConfig};
use qbe_core::relational::{generate_join_instance, JoinInstanceConfig};
use qbe_core::session::drive;
use qbe_core::twig::parse_xpath;
use qbe_core::xml::xmark::{generate, XmarkConfig};
use qbe_core::xml::NodeIndex;
use qbe_core::{JoinInteractive, PathInteractive, SessionConfig, TwigInteractive, STRATEGY_NAMES};
use std::sync::Arc;

fn config(strategy: &str, seed: u64) -> SessionConfig {
    SessionConfig::new()
        .seed(seed)
        .strategy_named(strategy)
        .expect("shipped strategy names resolve")
}

fn bench_twig_strategies(c: &mut Criterion) {
    let docs = Arc::new(vec![generate(&XmarkConfig::new(0.01, 7))]);
    let indexes: Arc<Vec<NodeIndex>> = Arc::new(docs.iter().map(NodeIndex::build).collect());
    let goal = parse_xpath("//person/name").unwrap();
    let mut group = c.benchmark_group("strategies/twig_xmark");
    group.sample_size(10);
    for &strategy in STRATEGY_NAMES {
        // Report the question count once, so the bench table reads next to the cost table.
        let mut learner =
            TwigInteractive::with_config(docs.clone(), indexes.clone(), config(strategy, 7))
                .with_goal(goal.clone());
        let report = drive(&mut learner);
        println!(
            "strategies/twig_xmark/{strategy}: {} questions",
            report.questions
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let mut learner = TwigInteractive::with_config(
                        docs.clone(),
                        indexes.clone(),
                        config(strategy, 7),
                    )
                    .with_goal(goal.clone());
                    drive(&mut learner)
                })
            },
        );
    }
    group.finish();
}

fn bench_path_strategies(c: &mut Criterion) {
    let graph = Arc::new(generate_geo_graph(&GeoConfig {
        cities: 16,
        connectivity: 3,
        ..Default::default()
    }));
    let from = graph.find_node_by_property("name", "city0").unwrap();
    let to = graph.find_node_by_property("name", "city5").unwrap();
    let goal = PathConstraint {
        road_type: Some("highway".to_string()),
        max_distance: None,
        via: None,
    };
    let mut group = c.benchmark_group("strategies/path_geo");
    group.sample_size(10);
    for &strategy in STRATEGY_NAMES {
        let mut learner =
            PathInteractive::with_config(graph.clone(), from, to, 8, config(strategy, 5))
                .with_goal(goal.clone());
        let report = drive(&mut learner);
        println!(
            "strategies/path_geo/{strategy}: {} questions",
            report.questions
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let mut learner = PathInteractive::with_config(
                        graph.clone(),
                        from,
                        to,
                        8,
                        config(strategy, 5),
                    )
                    .with_goal(goal.clone());
                    drive(&mut learner)
                })
            },
        );
    }
    group.finish();
}

fn bench_join_strategies(c: &mut Criterion) {
    let (left, right, goal) = generate_join_instance(&JoinInstanceConfig {
        left_rows: 30,
        right_rows: 30,
        extra_attributes: 2,
        domain_size: 6,
        seed: 11,
    });
    let (left, right) = (Arc::new(left), Arc::new(right));
    let mut group = c.benchmark_group("strategies/join_pairs");
    group.sample_size(10);
    for &strategy in STRATEGY_NAMES {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let mut learner = JoinInteractive::with_config(
                        left.clone(),
                        right.clone(),
                        config(strategy, 11),
                    )
                    .with_goal(goal.clone());
                    drive(&mut learner)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_twig_strategies,
    bench_path_strategies,
    bench_join_strategies
);
criterion_main!(benches);
