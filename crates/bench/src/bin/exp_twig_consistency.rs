//! Experiment E4 — consistency of twig queries with positive *and* negative examples.
//!
//! The general problem is NP-complete; the polynomial most-specific check is exact only within
//! the anchored hypothesis space, and the exhaustive search blows up with the example set. The
//! table contrasts the running time of the polynomial check against the exhaustive search as the
//! number of negative examples grows, and shows the tractable bounded-size case.
//!
//! Regenerate with `cargo run -p qbe-bench --bin exp_twig_consistency`.

use qbe_twig::consistency::exhaustive_consistent;
use qbe_twig::{most_specific_consistent, parse_xpath, ExampleSet};
use qbe_xml::random::{RandomTreeConfig, RandomTreeGenerator};
use qbe_xml::XmlTree;

fn random_docs(n: usize, seed: u64) -> Vec<XmlTree> {
    let cfg = RandomTreeConfig {
        alphabet: ('a'..='e').map(|c| c.to_string()).collect(),
        max_depth: 4,
        max_children: 3,
        ..Default::default()
    };
    let mut gen = RandomTreeGenerator::new(cfg, seed);
    let mut docs = gen.generate_many(n);
    for d in &mut docs {
        d.set_label(XmlTree::ROOT, "root");
    }
    docs
}

fn main() {
    qbe_bench::check_args();
    println!("E4 — consistency with positives and negatives: polynomial vs exhaustive");
    println!(
        "{:<12} {:<12} {:>16} {:>12} {:>16} {:>12}",
        "#positives",
        "#negatives",
        "poly time (µs)",
        "poly result",
        "exhaustive (µs)",
        "exact result"
    );
    let goal = parse_xpath("//a[b]").unwrap();
    for negatives in qbe_bench::param(vec![1usize, 2, 4, 8, 16, 32], vec![1, 2, 4]) {
        let docs = random_docs(4, negatives as u64);
        let set = ExampleSet::from_goal(&goal, docs, 2, negatives, 7);

        let (poly, poly_time) = qbe_bench::time_us(|| most_specific_consistent(&set));
        let (exact, exact_time) = qbe_bench::time_us(|| exhaustive_consistent(&set, 3));

        println!(
            "{:<12} {:<12} {:>16.1} {:>12} {:>16.1} {:>12}",
            set.positives().len(),
            set.negatives().len(),
            poly_time,
            poly.is_consistent(),
            exact_time,
            exact.is_consistent()
        );
    }

    println!("\nbounded-size case (≤ k examples in total) stays polynomial:");
    println!("{:<8} {:>16}", "k", "exhaustive (µs)");
    for k in qbe_bench::param(vec![2usize, 3, 4, 5, 6], vec![2, 3]) {
        let docs = random_docs(2, 99);
        let set = ExampleSet::from_goal(&goal, docs, k / 2 + 1, k / 2, 3);
        let (_, micros) = qbe_bench::time_us(|| exhaustive_consistent(&set, 3));
        println!("{:<8} {:>16.1}", k, micros);
    }
}
