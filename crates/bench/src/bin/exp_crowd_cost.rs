//! Experiment E11 — crowdsourcing cost: when the oracle is a paid crowd worker, minimising
//! interactions is minimising money. The table prices interactive join-learning sessions under
//! the HIT cost model, comparing the plain strategies against the feature-guided variant that
//! pays a few feature-inference HITs up front (the Marcus-et-al. optimisation).
//!
//! Regenerate with `cargo run -p qbe-bench --bin exp_crowd_cost`.

use qbe_relational::crowd::crowdsourced_learn_with_features;
use qbe_relational::{
    crowdsourced_learn, generate_join_instance, HitPricing, JoinInstanceConfig, Strategy,
};

fn main() {
    qbe_bench::check_args();
    println!("E11 — crowdsourced join learning: label HITs and total cost");
    println!(
        "{:<8} {:<26} {:>12} {:>14} {:>12}",
        "rows", "variant", "label HITs", "feature HITs", "total cost $"
    );
    let pricing = HitPricing {
        label_price: 0.05,
        feature_price: 0.02,
    };
    let seeds = qbe_bench::param(vec![3u64, 5, 8], vec![3]);
    for rows in qbe_bench::param(vec![20usize, 40, 80], vec![20]) {
        let mut rows_out: Vec<(String, f64, f64, f64)> = Vec::new();
        for (name, strategy) in [
            ("Random", Strategy::Random),
            ("MostSpecificFirst", Strategy::MostSpecificFirst),
            ("HalveLattice", Strategy::HalveLattice),
        ] {
            let mut label_hits = 0usize;
            let mut cost = 0.0;
            for &seed in &seeds {
                let (left, right, goal) = generate_join_instance(&JoinInstanceConfig {
                    left_rows: rows,
                    right_rows: rows,
                    extra_attributes: 2,
                    domain_size: 6,
                    seed,
                });
                let outcome = crowdsourced_learn(&left, &right, &goal, strategy, pricing, seed);
                label_hits += outcome.session.interactions;
                cost += outcome.total_cost;
            }
            let n = seeds.len() as f64;
            rows_out.push((name.to_string(), label_hits as f64 / n, 0.0, cost / n));
        }
        // Feature-guided variant: pay 3 feature HITs, then use the most benefiting strategy.
        {
            let mut label_hits = 0usize;
            let mut feature_hits = 0usize;
            let mut cost = 0.0;
            for &seed in &seeds {
                let (left, right, goal) = generate_join_instance(&JoinInstanceConfig {
                    left_rows: rows,
                    right_rows: rows,
                    extra_attributes: 2,
                    domain_size: 6,
                    seed,
                });
                let outcome =
                    crowdsourced_learn_with_features(&left, &right, &goal, 3, pricing, seed);
                label_hits += outcome.session.interactions;
                feature_hits += outcome.feature_hits;
                cost += outcome.total_cost;
            }
            let n = seeds.len() as f64;
            rows_out.push((
                "Features + MostSpecific".to_string(),
                label_hits as f64 / n,
                feature_hits as f64 / n,
                cost / n,
            ));
        }
        for (name, labels, features, cost) in rows_out {
            println!("{rows:<8} {name:<26} {labels:>12.1} {features:>14.1} {cost:>12.3}");
        }
    }
    println!(
        "\n(label HIT = ${:.2}, feature HIT = ${:.2})",
        pricing.label_price, pricing.feature_price
    );
}
