//! Experiment E2 — how many annotated examples the positive-only twig learner needs before it is
//! equivalent to the goal query on the benchmark documents (the paper reports "generally two").
//!
//! Two learners are compared: the plain positive-only learner and the schema-aware variant the
//! paper proposes, which removes filters implied by the (XMark) schema. Overspecialisation is
//! what slows convergence down — a filter that every annotated node happens to satisfy keeps
//! excluding not-yet-annotated answers — so goals whose answers are structurally homogeneous
//! converge within a couple of examples while heterogeneous ones need more; the schema-aware
//! learner removes the schema-implied part of that gap (the rest is addressed in E3).
//!
//! Timing tables follow: the learner's time by example count and by document size (XMark
//! scale), and the time of `select` for four goal queries.
//!
//! Regenerate with `cargo run -p qbe-bench --bin exp_twig_examples`.

use qbe_schema::dms_from_dtd;
use qbe_twig::{equivalent_on, learn_from_positives, learn_with_schema, parse_xpath, select};
use qbe_xml::xmark::{generate, xmark_dtd, XmarkConfig};
use qbe_xml::XmlTree;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Cap on the number of examples tried before a goal is reported as "not reached".
const MAX_EXAMPLES: usize = 30;

/// Number of random annotation orders averaged per goal (the simulated user annotates goal nodes
/// in an arbitrary order, as in the original experiments).
const TRIALS: usize = 3;

/// Goal queries of increasing structural complexity over the XMark-like documents.
fn goals() -> Vec<(&'static str, &'static str)> {
    vec![
        ("persons", "//person"),
        ("person names", "//person/name"),
        ("open auction bidders", "//open_auction/bidder"),
        ("item descriptions", "//item/description"),
        ("closed auction prices", "//closed_auction/price"),
        ("category names", "//category/name"),
        ("bidder increases", "//bidder/increase"),
        ("region items", "/site/regions//item"),
    ]
}

/// One annotation order a simulated user could follow: the goal's answers, shuffled.
fn example_pool(
    goal: &qbe_twig::TwigQuery,
    docs: &[XmlTree],
    seed: u64,
) -> Vec<(usize, qbe_xml::NodeId)> {
    let mut pool = Vec::new();
    for (ix, doc) in docs.iter().enumerate() {
        for node in select(goal, doc) {
            pool.push((ix, node));
        }
    }
    pool.shuffle(&mut StdRng::seed_from_u64(seed));
    pool
}

/// Number of positive examples needed until `learn` produces a query selecting exactly the
/// goal's nodes on every document, or `None` if [`MAX_EXAMPLES`] is reached first.
fn examples_needed(
    goal: &qbe_twig::TwigQuery,
    docs: &[XmlTree],
    seed: u64,
    learn: &mut impl FnMut(&[(&XmlTree, qbe_xml::NodeId)]) -> Option<qbe_twig::TwigQuery>,
) -> Option<usize> {
    let pool = example_pool(goal, docs, seed);
    for k in 1..=pool.len().min(MAX_EXAMPLES) {
        let examples: Vec<(&XmlTree, qbe_xml::NodeId)> =
            pool.iter().take(k).map(|&(d, n)| (&docs[d], n)).collect();
        let learned = learn(&examples)?;
        if equivalent_on(&learned, goal, docs) {
            return Some(k);
        }
    }
    None
}

/// Average over [`TRIALS`] random annotation orders; `None` when no trial reached the goal.
fn mean_examples_needed(
    goal: &qbe_twig::TwigQuery,
    docs: &[XmlTree],
    mut learn: impl FnMut(&[(&XmlTree, qbe_xml::NodeId)]) -> Option<qbe_twig::TwigQuery>,
) -> Option<f64> {
    let counts: Vec<usize> = (0..TRIALS as u64)
        .filter_map(|seed| examples_needed(goal, docs, seed, &mut learn))
        .collect();
    if counts.is_empty() {
        None
    } else {
        Some(counts.iter().sum::<usize>() as f64 / counts.len() as f64)
    }
}

fn render(n: Option<f64>) -> String {
    match n {
        Some(k) => format!("{k:.1}"),
        None => format!("> {MAX_EXAMPLES}"),
    }
}

/// The learner's time by example count and by document size, and `select`'s per query.
fn timings(doc: &XmlTree) {
    println!("\nE2 timings — learn_from_positives by example count (//person/name):");
    println!("{:<10} {:>12}", "examples", "learn (µs)");
    let goal = parse_xpath("//person/name").expect("goal parses");
    let answers = select(&goal, doc);
    for k in qbe_bench::param(vec![1usize, 2, 4, 8], vec![1, 2]) {
        let examples: Vec<_> = answers.iter().take(k).map(|&n| (doc, n)).collect();
        assert_eq!(examples.len(), k, "the document has {k} person names");
        let (_, micros) = qbe_bench::time_us(|| learn_from_positives(&examples).unwrap());
        println!("{k:<10} {micros:>12.1}");
    }

    println!("\nby document size (//open_auction/bidder, 2 examples):");
    println!("{:<8} {:>8} {:>12}", "scale", "nodes", "learn (µs)");
    let goal = parse_xpath("//open_auction/bidder").expect("goal parses");
    for scale in qbe_bench::param(vec![0.02, 0.05, 0.1, 0.2], vec![0.02]) {
        let doc = generate(&XmarkConfig::new(scale, 3));
        let examples: Vec<_> = select(&goal, &doc)
            .into_iter()
            .take(2)
            .map(|n| (&doc, n))
            .collect();
        assert_eq!(examples.len(), 2, "scale {scale} has two bidders");
        let (_, micros) = qbe_bench::time_us(|| learn_from_positives(&examples).unwrap());
        println!("{scale:<8} {:>8} {micros:>12.1}", doc.size());
    }

    println!("\nselect per goal query ({} nodes):", doc.size());
    println!("{:<34} {:>10} {:>12}", "xpath", "selected", "select (µs)");
    for xpath in [
        "//person",
        "//person/name",
        "/site/regions//item",
        "//open_auction/bidder/increase",
    ] {
        let query = parse_xpath(xpath).expect("query parses");
        let (selected, micros) = qbe_bench::time_us(|| select(&query, doc));
        println!("{xpath:<34} {:>10} {micros:>12.1}", selected.len());
    }
}

fn main() {
    qbe_bench::check_args();
    println!("E2 — examples needed for the twig learner to reach the goal query");
    println!(
        "{:<26} {:<28} {:>10} {:>14} {:>20}",
        "goal", "xpath", "selected", "naive learner", "schema-aware learner"
    );
    let n_docs = qbe_bench::param(3, 2);
    let scale = qbe_bench::param(0.05, 0.02);
    let docs: Vec<XmlTree> = (0..n_docs)
        .map(|s| generate(&XmarkConfig::new(scale, s)))
        .collect();
    let schema = dms_from_dtd(&xmark_dtd()).expect("the XMark DTD is DMS-expressible");
    let mut naive_counts = Vec::new();
    let mut schema_counts = Vec::new();
    for (name, xpath) in goals() {
        let goal = parse_xpath(xpath).expect("goal queries parse");
        let selected: usize = docs.iter().map(|d| select(&goal, d).len()).sum();
        let naive = mean_examples_needed(&goal, &docs, |ex| learn_from_positives(ex).ok());
        let schema_aware = mean_examples_needed(&goal, &docs, |ex| {
            learn_with_schema(ex, &schema)
                .ok()
                .map(|report| report.query)
        });
        naive_counts.push(naive);
        schema_counts.push(schema_aware);
        println!(
            "{name:<26} {xpath:<28} {selected:>10} {:>14} {:>20}",
            render(naive),
            render(schema_aware)
        );
    }

    let summarise = |counts: &[Option<f64>]| {
        let solved: Vec<f64> = counts.iter().filter_map(|c| *c).collect();
        let with_two = solved.iter().filter(|&&k| k <= 2.0).count();
        let mean = if solved.is_empty() {
            f64::NAN
        } else {
            solved.iter().sum::<f64>() / solved.len() as f64
        };
        (solved.len(), with_two, mean)
    };
    let (naive_solved, naive_two, naive_mean) = summarise(&naive_counts);
    let (schema_solved, schema_two, schema_mean) = summarise(&schema_counts);
    let total = naive_counts.len();
    println!(
        "\nnaive learner:        reached the goal on {naive_solved}/{total} queries \
         (mean examples {naive_mean:.1}, ≤2 examples on {naive_two})"
    );
    println!(
        "schema-aware learner: reached the goal on {schema_solved}/{total} queries \
         (mean examples {schema_mean:.1}, ≤2 examples on {schema_two})"
    );
    println!(
        "\npaper's reference point: the positive-only algorithms \"are able to learn a query \
         equivalent to the goal query from a small number of examples (generally two)\". Goals \
         whose answers share one structure converge in 1-2 examples; goals whose answers differ \
         in optional content need a few more annotations before the overspecialised filters \
         disappear (the schema-implied part of those filters is the subject of E3)."
    );

    timings(&docs[0]);
}
