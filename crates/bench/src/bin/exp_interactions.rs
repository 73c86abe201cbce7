//! Experiment E9 — minimising the number of user interactions in interactive join learning.
//!
//! The table compares the proposal strategies (random baseline vs the informed ones) on
//! instances of growing size, reporting the number of labels requested, the number of pairs
//! whose label was inferred (pruned as uninformative), whether the learned join is
//! semantically equal to the hidden goal, and the time of one session (each seed's median run,
//! averaged over the seeds).
//!
//! Regenerate with `cargo run -p qbe-bench --bin exp_interactions`.

use qbe_relational::interactive::selected_pairs;
use qbe_relational::{generate_join_instance, interactive_learn, JoinInstanceConfig, Strategy};

fn main() {
    qbe_bench::check_args();
    println!("E9 — interactive join learning: interactions per strategy");
    println!(
        "{:<8} {:<12} {:<20} {:>13} {:>10} {:>12} {:>14}",
        "rows", "pairs", "strategy", "interactions", "inferred", "goal exact", "session (µs)"
    );
    let seeds = qbe_bench::param(vec![1u64, 2, 3, 4, 5], vec![1, 2]);
    for rows in qbe_bench::param(vec![10usize, 20, 40, 80], vec![10, 20]) {
        for strategy in [
            Strategy::Random,
            Strategy::MostSpecificFirst,
            Strategy::HalveLattice,
        ] {
            let mut interactions = 0usize;
            let mut inferred = 0usize;
            let mut exact = 0usize;
            let mut session_us = 0.0;
            for &seed in &seeds {
                let (left, right, goal) = generate_join_instance(&JoinInstanceConfig {
                    left_rows: rows,
                    right_rows: rows,
                    extra_attributes: 2,
                    domain_size: 6,
                    seed,
                });
                let (outcome, micros) =
                    qbe_bench::time_us(|| interactive_learn(&left, &right, &goal, strategy, seed));
                session_us += micros;
                interactions += outcome.interactions;
                inferred += outcome.inferred;
                if selected_pairs(&left, &right, &outcome.predicate)
                    == selected_pairs(&left, &right, &goal)
                {
                    exact += 1;
                }
            }
            let n = seeds.len();
            println!(
                "{:<8} {:<12} {:<20} {:>13.1} {:>10.1} {:>9}/{} {:>14.1}",
                rows,
                rows * rows,
                format!("{strategy:?}"),
                interactions as f64 / n as f64,
                inferred as f64 / n as f64,
                exact,
                n,
                session_us / n as f64
            );
        }
    }
    println!("\n(interactions stay near-constant while the pair count grows quadratically: the");
    println!(" protocol prunes uninformative pairs, which is the paper's minimisation goal)");
}
