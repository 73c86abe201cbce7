//! Experiment E13 — why the paper rejects full SPARQL as a learning target: pattern evaluation
//! cost grows with OPTIONAL nesting (PSPACE-complete in general, coNP-complete for well-designed
//! patterns), while the learnable path-query fragment stays cheap.
//!
//! The table evaluates, on geographical graphs of growing size: (i) a regular path query, (ii) a
//! well-designed BGP+OPTIONAL pattern, and (iii) a non-well-designed pattern of the Pérez et al.
//! shape, reporting answer counts and evaluation time. The well-designedness check itself is also
//! reported for each pattern.
//!
//! Regenerate with `cargo run -p qbe-bench --bin exp_sparql`.

use qbe_graph::{
    evaluate, generate_geo_graph, is_well_designed, Constraint, GeoConfig, GraphPattern, PathRegex,
    PredTerm, Term,
};

fn road(from: &str, to: &str) -> GraphPattern {
    GraphPattern::triple(Term::var(from), PredTerm::label("road"), Term::var(to))
}

fn main() {
    qbe_bench::check_args();
    println!("E13 — SPARQL-style pattern evaluation vs the learnable path-query fragment\n");

    // The three queries under comparison.
    let rpq = PathRegex::Concat(vec![
        PathRegex::label("road"),
        PathRegex::Star(Box::new(PathRegex::label("road"))),
    ]);
    let well_designed = road("x", "y")
        .optional(road("y", "z"))
        .filter(Constraint::Bound("x".to_string()));
    let non_well_designed = {
        // (P1 OPT P2) AND P3 with a variable shared by P2 and P3 but absent from P1.
        let p1 = road("x", "y");
        let p2 = road("x", "z");
        let p3 = road("z", "w");
        p1.optional(p2).and(p3)
    };
    println!(
        "well-designed? pattern A (BGP+OPT+FILTER): {}",
        is_well_designed(&well_designed)
    );
    println!(
        "well-designed? pattern B (Pérez et al. counterexample): {}\n",
        is_well_designed(&non_well_designed)
    );

    println!(
        "{:<8} {:>7} {:>14} {:>12} {:>16} {:>12} {:>18} {:>12}",
        "cities",
        "edges",
        "RPQ answers",
        "RPQ (µs)",
        "pattern A sols",
        "A (µs)",
        "pattern B sols",
        "B (µs)"
    );
    for cities in qbe_bench::param(vec![10usize, 20, 30, 40], vec![10]) {
        let graph = generate_geo_graph(&GeoConfig {
            cities,
            ..Default::default()
        });

        let (rpq_answers, rpq_us) = qbe_bench::time_us(|| evaluate(&graph, &rpq));
        let (a_solutions, a_us) =
            qbe_bench::time_us(|| qbe_graph::evaluate_pattern(&graph, &well_designed));
        let (b_solutions, b_us) =
            qbe_bench::time_us(|| qbe_graph::evaluate_pattern(&graph, &non_well_designed));

        println!(
            "{:<8} {:>7} {:>14} {:>12.1} {:>16} {:>12.1} {:>18} {:>12.1}",
            cities,
            graph.edge_count(),
            rpq_answers.len(),
            rpq_us,
            a_solutions.len(),
            a_us,
            b_solutions.len(),
            b_us
        );
    }

    println!(
        "\nreading: the RPQ fragment (what the path-query learner of E10 targets) stays cheap and \
         its answers are endpoint pairs a user can label; the general pattern algebra grows much \
         faster with graph size and OPTIONAL nesting, matching the complexity gap the paper cites \
         (PSPACE-complete in general, coNP-complete when well-designed)."
    );
}
