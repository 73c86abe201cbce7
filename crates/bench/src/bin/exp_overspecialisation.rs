//! Experiment E3 — overspecialisation: the positive-only learner keeps every filter the examples
//! share, including those the schema already implies. Adding the schema (the paper's proposed
//! optimisation) prunes those filters; the table reports the query size before and after and the
//! relative reduction, per goal query.
//!
//! Regenerate with `cargo run -p qbe-bench --bin exp_overspecialisation`.

use qbe_schema::dms_from_dtd;
use qbe_twig::{learn_from_positives, learn_with_schema, parse_xpath, select};
use qbe_xml::xmark::{generate, xmark_dtd, XmarkConfig};

fn main() {
    qbe_bench::check_args();
    println!("E3 — query size before/after schema-aware pruning (XMark DMS)");
    println!(
        "{:<26} {:>14} {:>13} {:>12} {:>12}",
        "goal", "size (naive)", "size (schema)", "reduction %", "same answers"
    );
    let doc = generate(&XmarkConfig::new(qbe_bench::param(0.1, 0.03), 5));
    let schema = dms_from_dtd(&xmark_dtd()).expect("XMark DTD is DMS-expressible");
    let goals = [
        "//person",
        "//person/name",
        "//open_auction",
        "//open_auction/bidder",
        "//item",
        "//closed_auction",
        "//category",
        "//bidder",
    ];
    let mut total_before = 0usize;
    let mut total_after = 0usize;
    for xpath in goals {
        let goal = parse_xpath(xpath).unwrap();
        let wanted: Vec<_> = select(&goal, &doc).into_iter().collect();
        if wanted.len() < 2 {
            continue;
        }
        let examples: Vec<_> = wanted.iter().take(2).map(|&n| (&doc, n)).collect();
        let naive = learn_from_positives(&examples).unwrap();
        let report = learn_with_schema(&examples, &schema).unwrap();
        let same = select(&naive, &doc) == select(&report.query, &doc);
        total_before += report.size_before;
        total_after += report.size_after;
        println!(
            "{:<26} {:>14} {:>13} {:>11.1}% {:>12}",
            xpath,
            report.size_before,
            report.size_after,
            report.reduction_percent(),
            same
        );
    }
    let overall = if total_before > 0 {
        100.0 * (total_before - total_after) as f64 / total_before as f64
    } else {
        0.0
    };
    println!(
        "\noverall size reduction: {overall:.1}% ({total_before} → {total_after} query nodes)"
    );
}
