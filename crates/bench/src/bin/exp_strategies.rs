//! Experiment S1 — question-count/latency trade-offs of the pluggable selection strategies.
//!
//! The paper's interactive protocol minimises the number of questions a user must answer; this
//! experiment measures how much that number depends on *which* informative item the learner
//! asks about next. For each data model — twig learning over a shared XMark document, path
//! learning over the geographical graph, join learning over generated relation pairs — a fleet
//! of goal-driven sessions runs once per shipped model-agnostic strategy (`paper-order`,
//! `random`, `max-coverage`, `cheapest-first`; see `qbe_core::strategy`), each session built
//! and driven to completion by `qbe_core::drive`, one after another.
//!
//! The table reports, per model × strategy: sessions, questions p50/p95/mean (nearest-rank,
//! `qbe_core::percentile_sorted`), and the summed per-session wall clock (building the learner
//! and driving it — the strategy's compute cost). Cheap strategies (`paper-order`,
//! `cheapest-first`) spend almost nothing picking but ask more questions; the informed ones buy
//! fewer questions with more evaluation work — the trade-off the active-learning lines in
//! PAPERS.md frame.
//!
//! Regenerate with `cargo run --release -p qbe-bench --bin exp_strategies`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qbe_core::graph::{generate_geo_graph, interactive::PathConstraint, GeoConfig, PropertyGraph};
use qbe_core::relational::{generate_join_instance, JoinInstanceConfig};
use qbe_core::twig::parse_xpath;
use qbe_core::xml::xmark::{generate, XmarkConfig};
use qbe_core::xml::{NodeIndex, XmlTree};
use qbe_core::{
    drive, percentile_sorted, InteractiveLearner, JoinInteractive, PathInteractive, SessionConfig,
    TwigInteractive, STRATEGY_NAMES,
};

fn config(strategy: &str, seed: u64) -> SessionConfig {
    SessionConfig::new()
        .seed(seed)
        .strategy_named(strategy)
        .expect("every name in STRATEGY_NAMES resolves")
}

/// One table row: the sessions one strategy served within a model's fleet.
struct Row {
    strategy: &'static str,
    /// Question counts of the strategy's sessions, ascending.
    questions: Vec<usize>,
    successes: usize,
    /// Summed per-session wall time.
    wall: Duration,
}

impl Row {
    /// Build a session with `make`, drive it to completion against its goal, and fold its
    /// report into the row.
    fn run<L: InteractiveLearner>(&mut self, make: impl FnOnce() -> L) {
        let started = Instant::now();
        let report = drive(&mut make());
        self.wall += started.elapsed();
        assert_eq!(
            report.strategy, self.strategy,
            "a session consults the strategy it was configured with"
        );
        let at = self.questions.partition_point(|&q| q <= report.questions);
        self.questions.insert(at, report.questions);
        self.successes += usize::from(report.success);
    }

    fn percentile(&self, p: f64) -> usize {
        percentile_sorted(&self.questions, p).unwrap_or(0)
    }

    fn mean(&self) -> f64 {
        self.questions.iter().sum::<usize>() as f64 / self.questions.len() as f64
    }
}

/// One row per shipped strategy, sorted by strategy name, each filled by `fleet`.
fn rows(mut fleet: impl FnMut(&mut Row)) -> Vec<Row> {
    let mut rows: Vec<Row> = STRATEGY_NAMES
        .iter()
        .map(|&strategy| {
            let mut row = Row {
                strategy,
                questions: Vec::new(),
                successes: 0,
                wall: Duration::ZERO,
            };
            fleet(&mut row);
            row
        })
        .collect();
    rows.sort_by_key(|r| r.strategy);
    rows
}

fn twig_rows(docs: &Arc<Vec<XmlTree>>, indexes: &Arc<Vec<NodeIndex>>, seeds: &[u64]) -> Vec<Row> {
    rows(|row| {
        let strategy = row.strategy;
        for &seed in seeds {
            for goal in ["//person/name", "//item/name"] {
                let goal_query = parse_xpath(goal).expect("goal parses");
                row.run(|| {
                    TwigInteractive::with_config(
                        docs.clone(),
                        indexes.clone(),
                        config(strategy, seed),
                    )
                    .with_goal(goal_query)
                });
            }
        }
    })
}

fn path_rows(graph: &Arc<PropertyGraph>, seeds: &[u64]) -> Vec<Row> {
    let city = |name| {
        graph
            .find_node_by_property("name", name)
            .expect("generator names cities")
    };
    let (from, to) = (city("city0"), city("city5"));
    rows(|row| {
        let strategy = row.strategy;
        for &seed in seeds {
            let goal = PathConstraint {
                road_type: Some("highway".to_string()),
                max_distance: None,
                via: None,
            };
            row.run(|| {
                PathInteractive::with_config(graph.clone(), from, to, 8, config(strategy, seed))
                    .with_goal(goal)
            });
        }
    })
}

fn join_rows(rows_per_relation: usize, seeds: &[u64]) -> Vec<Row> {
    rows(|row| {
        let strategy = row.strategy;
        for &seed in seeds {
            row.run(|| {
                let (left, right, goal) = generate_join_instance(&JoinInstanceConfig {
                    left_rows: rows_per_relation,
                    right_rows: rows_per_relation,
                    extra_attributes: 2,
                    domain_size: 6,
                    seed,
                });
                JoinInteractive::with_config(
                    Arc::new(left),
                    Arc::new(right),
                    config(strategy, seed),
                )
                .with_goal(goal)
            });
        }
    })
}

fn print_rows(model: &str, rows: &[Row]) {
    for r in rows {
        println!(
            "{:<6} {:<16} {:>8} {:>8} {:>8} {:>8.1} {:>11.1}ms",
            model,
            r.strategy,
            r.questions.len(),
            r.percentile(50.0),
            r.percentile(95.0),
            r.mean(),
            r.wall.as_secs_f64() * 1e3,
        );
    }
}

/// Smoke-mode self-check: one row per shipped strategy, every session successful.
fn check(model: &str, rows: &[Row], expected_sessions: usize) {
    assert_eq!(
        rows.len(),
        STRATEGY_NAMES.len(),
        "{model}: one row per shipped strategy"
    );
    for r in rows {
        assert_eq!(
            r.questions.len(),
            expected_sessions,
            "{model}: every strategy runs the same fleet"
        );
        assert_eq!(
            r.successes, expected_sessions,
            "{model}/{}: every session learns its goal",
            r.strategy
        );
        assert!(
            r.percentile(50.0) <= r.percentile(95.0),
            "{model}/{}: percentiles are monotone",
            r.strategy
        );
    }
}

fn main() {
    let scale = qbe_bench::param(0.03, 0.008);
    let seeds: Vec<u64> = qbe_bench::param(vec![1, 2, 3, 4], vec![1]);

    println!(
        "S1 — question-count/latency per selection strategy ({} seeds)",
        seeds.len()
    );
    println!(
        "{:<6} {:<16} {:>8} {:>8} {:>8} {:>8} {:>13}",
        "model", "strategy", "sessions", "q_p50", "q_p95", "q_mean", "wall"
    );

    let docs = Arc::new(vec![generate(&XmarkConfig::new(scale, 7))]);
    let indexes: Arc<Vec<NodeIndex>> = Arc::new(docs.iter().map(NodeIndex::build).collect());
    let twig = twig_rows(&docs, &indexes, &seeds);
    print_rows("twig", &twig);
    check("twig", &twig, seeds.len() * 2);

    let graph = Arc::new(generate_geo_graph(&GeoConfig {
        cities: qbe_bench::param(16, 10),
        connectivity: 3,
        ..Default::default()
    }));
    let path = path_rows(&graph, &seeds);
    print_rows("path", &path);
    check("path", &path, seeds.len());

    let join = join_rows(qbe_bench::param(30, 12), &seeds);
    print_rows("join", &join);
    check("join", &join, seeds.len());

    println!(
        "\nstrategies reconcile: {} rows across twig/path/join, all sessions successful",
        twig.len() + path.len() + join.len()
    );
}
