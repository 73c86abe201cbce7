//! Experiment E10 — the geographical-database use case: interactive path learning between two
//! cities, with and without the query-workload prior.
//!
//! For growing graphs the table reports, per proposal strategy, the average number of paths the
//! user labels before the constraint is identified, and the number of itineraries finally
//! extracted, with the wall time of one session. The workload-prior row models the paper's
//! scenario where previous users all asked for highway-only paths. A second table times the
//! substrate the sessions stand on, per graph: RPQ evaluation, enumerating the candidate
//! itineraries, and learning the most specific block path query over their road-type words.
//!
//! Regenerate with `cargo run -p qbe-bench --bin exp_graph_paths`.

use qbe_graph::{
    evaluate, generate_geo_graph, interactive_path_learn, learn_path_query, simple_paths,
    GeoConfig, PathConstraint, PathRegex, PathStrategy,
};

fn main() {
    qbe_bench::check_args();
    println!("E10 — interactive path learning on geographical graphs");
    println!(
        "{:<8} {:>11} {:<16} {:>13} {:>10} {:>12} {:>14}",
        "cities",
        "candidates",
        "strategy",
        "interactions",
        "inferred",
        "paths kept",
        "session (µs)"
    );
    let goal = PathConstraint {
        road_type: Some("highway".to_string()),
        max_distance: None,
        via: None,
    };
    let workload = vec![goal.clone(), goal.clone(), goal.clone()];
    let roads = PathRegex::Concat(vec![
        PathRegex::label("road"),
        PathRegex::Star(Box::new(PathRegex::label("road"))),
    ]);
    // Per graph: edges, RPQ evaluation, path enumeration and block-query learning times.
    let mut substrate = Vec::new();

    for cities in qbe_bench::param(vec![15usize, 25, 35, 50], vec![15]) {
        let graph = generate_geo_graph(&GeoConfig {
            cities,
            connectivity: 3,
            highway_fraction: 0.35,
            seed: cities as u64,
        });
        let from = graph.find_node_by_property("name", "city0").unwrap();
        let to = graph.find_node_by_property("name", "city5").unwrap();
        let (paths, paths_us) = qbe_bench::time_us(|| simple_paths(&graph, from, to, 7));
        let candidates = paths.len();
        if candidates == 0 {
            continue;
        }
        let (_, rpq_us) = qbe_bench::time_us(|| evaluate(&graph, &roads));
        // The road-type words of every itinerary: the most specific block query accepting them.
        let words: Vec<Vec<String>> = paths
            .iter()
            .map(|p| {
                p.edges
                    .iter()
                    .map(|&e| {
                        let road_type = graph.edge_property(e, "type").and_then(|t| t.as_text());
                        road_type.unwrap_or_default().to_string()
                    })
                    .collect()
            })
            .collect();
        let (_, learn_us) = qbe_bench::time_us(|| learn_path_query(&words).unwrap());
        substrate.push((cities, graph.edge_count(), rpq_us, paths_us, learn_us));

        for (strategy, wl) in [
            (PathStrategy::Random, Vec::new()),
            (PathStrategy::ShortestFirst, Vec::new()),
            (PathStrategy::Halving, Vec::new()),
            (PathStrategy::WorkloadPrior, workload.clone()),
        ] {
            let runs = 5u64;
            // One timed cell runs the row's session on every seed.
            let (outcomes, micros) = qbe_bench::time_us(|| {
                (0..runs)
                    .map(|seed| {
                        interactive_path_learn(&graph, from, to, &goal, strategy, wl.clone(), seed)
                    })
                    .collect::<Vec<_>>()
            });
            let interactions: usize = outcomes.iter().map(|o| o.interactions).sum();
            let inferred: usize = outcomes.iter().map(|o| o.inferred).sum();
            let kept: usize = outcomes.iter().map(|o| o.accepted_paths.len()).sum();
            println!(
                "{:<8} {:>11} {:<16} {:>13.1} {:>10.1} {:>12.1} {:>14.1}",
                cities,
                candidates,
                format!("{strategy:?}"),
                interactions as f64 / runs as f64,
                inferred as f64 / runs as f64,
                kept as f64 / runs as f64,
                micros / runs as f64
            );
        }
    }

    println!("\nthe substrate by graph size (candidate itineraries city0 → city5, ≤ 7 edges):");
    println!(
        "{:<8} {:>7} {:>14} {:>18} {:>18}",
        "cities", "edges", "RPQ road+ (µs)", "simple paths (µs)", "learn block (µs)"
    );
    for (cities, edges, rpq_us, paths_us, learn_us) in substrate {
        println!("{cities:<8} {edges:>7} {rpq_us:>14.1} {paths_us:>18.1} {learn_us:>18.1}");
    }
}
