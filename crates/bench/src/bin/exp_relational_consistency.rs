//! Experiment E8 — consistency checking for relational query learning: natural/equi-joins are
//! tractable (PTIME), semijoins are not (the exact check enumerates predicate subsets).
//!
//! The table measures both checks on instances of growing arity (the exponent of the semijoin
//! search space) and growing size, using labels produced by a hidden goal. The greedy
//! polynomial semijoin heuristic is included to show the practical escape hatch.
//!
//! Regenerate with `cargo run -p qbe-bench --bin exp_relational_consistency`.

use qbe_relational::{
    generate_join_instance, join_consistent, semijoin_consistent_exact, semijoin_learn_greedy,
    JoinInstanceConfig, LabelledPair, LabelledTuple,
};

fn main() {
    qbe_bench::check_args();
    println!("E8 — join vs semijoin consistency checking");
    println!(
        "{:<8} {:<8} {:>12} {:>16} {:>20} {:>18}",
        "arity", "rows", "pairs 2^n", "join (µs)", "semijoin exact (µs)", "semijoin greedy (µs)"
    );
    // The exact semijoin search enumerates subsets of the attribute-pair lattice and is capped at
    // 24 pairs (arity 4 × 4 here); the growth from arity 1 to 4 already spans five orders of
    // magnitude, which is the paper's tractable-vs-intractable contrast.
    for extra in qbe_bench::param(vec![0usize, 1, 2, 3], vec![0, 1]) {
        let rows = 30;
        let (left, right, goal) = generate_join_instance(&JoinInstanceConfig {
            left_rows: rows,
            right_rows: rows,
            extra_attributes: extra,
            domain_size: 6,
            seed: extra as u64 + 1,
        });
        let arity = left.schema().arity();
        let pair_space = 1u64 << (left.schema().arity() * right.schema().arity());

        // Join labels: a sample of tuple pairs labelled by the goal.
        let pair_labels: Vec<LabelledPair> = (0..rows)
            .map(|i| {
                let l = i % left.len();
                let r = (i * 3 + 1) % right.len();
                LabelledPair::new(
                    l,
                    r,
                    goal.satisfied_by(&left.tuples()[l], &right.tuples()[r]),
                )
            })
            .collect();
        let (join_result, join_time) =
            qbe_bench::time_us(|| join_consistent(&left, &right, &pair_labels).unwrap());
        assert!(join_result.is_consistent());

        // Semijoin labels: each left tuple labelled by whether the goal gives it a partner.
        let tuple_labels: Vec<LabelledTuple> = (0..left.len())
            .map(|i| {
                let has_partner = right
                    .tuples()
                    .iter()
                    .any(|r| goal.satisfied_by(&left.tuples()[i], r));
                LabelledTuple::new(i, has_partner)
            })
            .collect();
        let (exact, exact_time) =
            qbe_bench::time_us(|| semijoin_consistent_exact(&left, &right, &tuple_labels));
        assert!(exact.is_some());
        let (_, greedy_time) =
            qbe_bench::time_us(|| semijoin_learn_greedy(&left, &right, &tuple_labels));

        println!(
            "{:<8} {:<8} {:>12} {:>16.1} {:>20.1} {:>18.1}",
            arity, rows, pair_space, join_time, exact_time, greedy_time
        );
    }

    println!("\njoin consistency as the instance grows (arity fixed at 3):");
    println!("{:<10} {:>16}", "rows", "join (µs)");
    for rows in qbe_bench::param(vec![50usize, 100, 200, 400, 800], vec![50, 100]) {
        let (left, right, goal) = generate_join_instance(&JoinInstanceConfig {
            left_rows: rows,
            right_rows: rows,
            extra_attributes: 2,
            domain_size: 8,
            seed: 11,
        });
        let labels: Vec<LabelledPair> = (0..rows)
            .map(|i| {
                let l = i % left.len();
                let r = (i * 7 + 3) % right.len();
                LabelledPair::new(
                    l,
                    r,
                    goal.satisfied_by(&left.tuples()[l], &right.tuples()[r]),
                )
            })
            .collect();
        let (_, micros) = qbe_bench::time_us(|| join_consistent(&left, &right, &labels).unwrap());
        println!("{:<10} {:>16.1}", rows, micros);
    }
}
