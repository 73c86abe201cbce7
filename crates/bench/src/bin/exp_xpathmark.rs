//! Experiment E7 — coverage of the XPathMark-like query suite.
//!
//! The paper: 10 of the 20 XMark queries are XPath-expressible, and the positive-only twig
//! learner handles 15% of XPathMark. The table classifies every query of our 20-query suite
//! (twig-expressible / path-only / beyond twigs), and for the twig-expressible ones reports
//! whether the learner recovers the goal from annotated examples and how many it needs, with
//! the median times of evaluating the goal and of learning from the two examples.
//!
//! Regenerate with `cargo run -p qbe-bench --bin exp_xpathmark`.

use qbe_twig::xpathmark::suite;
use qbe_twig::{learn_from_positives, select};
use qbe_xml::xmark::{generate, XmarkConfig};

fn main() {
    qbe_bench::check_args();
    println!("E7 — XPathMark-like suite: expressibility and learnability");
    println!(
        "{:<6} {:<18} {:<40} {:>10} {:>10} {:>12} {:>12}",
        "query", "class", "xpath", "selected", "learned", "eval (µs)", "learn (µs)"
    );
    let doc = generate(&XmarkConfig::new(qbe_bench::param(0.1, 0.02), 9));
    let queries = suite();
    let mut twig_expressible = 0usize;
    let mut learned_ok = 0usize;
    let micros = |t: Option<f64>| t.map_or("-".to_string(), |us| format!("{us:.1}"));
    for q in &queries {
        let class = format!("{:?}", q.expressibility);
        let (selected, learned, eval_us, learn_us) = match q.as_twig() {
            Some(goal) => {
                twig_expressible += 1;
                let (nodes, eval_us) = qbe_bench::time_us(|| select(&goal, &doc));
                if nodes.len() < 2 {
                    (nodes.len(), "too few nodes", Some(eval_us), None)
                } else {
                    let examples: Vec<_> = nodes.iter().take(2).map(|&n| (&doc, n)).collect();
                    let (candidate, learn_us) =
                        qbe_bench::time_us(|| learn_from_positives(&examples));
                    let learned = match candidate {
                        Ok(candidate) if select(&candidate, &doc) == nodes => {
                            learned_ok += 1;
                            "yes (2 ex.)"
                        }
                        Ok(_) => "approx",
                        Err(_) => "no",
                    };
                    (nodes.len(), learned, Some(eval_us), Some(learn_us))
                }
            }
            None => (0, "-", None, None),
        };
        println!(
            "{:<6} {:<18} {:<40} {:>10} {:>10} {:>12} {:>12}",
            q.id,
            class,
            q.xpath,
            selected,
            learned,
            micros(eval_us),
            micros(learn_us)
        );
    }
    println!(
        "\nsuite size: {}; twig-expressible: {}; learned exactly from 2 examples: {} ({:.0}% of the suite)",
        queries.len(),
        twig_expressible,
        learned_ok,
        100.0 * learned_ok as f64 / queries.len() as f64
    );
    println!("paper's reference point: 15% of XPathMark learned by the positive-only algorithms");
}
