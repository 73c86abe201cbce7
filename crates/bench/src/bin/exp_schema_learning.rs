//! Experiment E6 — schema expressiveness and learnability.
//!
//! Two claims from the paper: (i) the disjunctive multiplicity schema can express the XMark DTD
//! and "many" real-world DTDs; (ii) DMS are identifiable in the limit from positive examples.
//! The first table reports DMS-expressibility over the synthetic web corpus by content-model
//! style; the second shows the learned schema converging as more documents are provided, with
//! the median time of learning it.
//!
//! Regenerate with `cargo run -p qbe-bench --bin exp_schema_learning`.

use qbe_schema::{dms_from_dtd, learn_dms, schema_contained_in, schema_equivalent};
use qbe_xml::corpus::{generate_corpus, CorpusConfig, SchemaStyle};
use qbe_xml::xmark::{generate, xmark_dtd, XmarkConfig};

fn main() {
    qbe_bench::check_args();
    println!("E6a — DMS expressibility of DTDs (synthetic web corpus, 20 collections)");
    println!(
        "{:<22} {:>12} {:>14} {:>12}",
        "content-model style", "collections", "DMS-expressible", "fraction"
    );
    let corpus = generate_corpus(&CorpusConfig::default());
    let mut total = 0usize;
    let mut total_ok = 0usize;
    for style in [
        SchemaStyle::MultiplicityOnly,
        SchemaStyle::Disjunctive,
        SchemaStyle::OrderedSequences,
    ] {
        let of_style: Vec<_> = corpus.iter().filter(|e| e.style == style).collect();
        let ok = of_style
            .iter()
            .filter(|e| dms_from_dtd(&e.dtd).is_ok())
            .count();
        total += of_style.len();
        total_ok += ok;
        println!(
            "{:<22} {:>12} {:>14} {:>11.0}%",
            format!("{style:?}"),
            of_style.len(),
            ok,
            100.0 * ok as f64 / of_style.len().max(1) as f64
        );
    }
    println!(
        "{:<22} {:>12} {:>14} {:>11.0}%",
        "total",
        total,
        total_ok,
        100.0 * total_ok as f64 / total.max(1) as f64
    );
    println!(
        "XMark DTD expressible as DMS: {}",
        dms_from_dtd(&xmark_dtd()).is_ok()
    );

    println!("\nE6b — identification in the limit: learned DMS vs number of sample documents");
    println!(
        "{:<12} {:>10} {:>12} {:>22} {:>20} {:>12}",
        "#documents", "labels", "clauses", "accepts all samples", "equal to previous", "learn (µs)"
    );
    let n_docs = qbe_bench::param(12u64, 4);
    let docs: Vec<_> = (0..n_docs)
        .map(|s| generate(&XmarkConfig::new(0.03, s)))
        .collect();
    let mut previous = None;
    for k in qbe_bench::param(vec![1usize, 2, 4, 6, 8, 10, 12], vec![1, 2, 4]) {
        let (learned, micros) = qbe_bench::time_us(|| learn_dms(&docs[..k]).unwrap());
        let accepts_all = docs[..k].iter().all(|d| learned.accepts(d));
        let stable = previous
            .as_ref()
            .map(|p| schema_equivalent(p, &learned))
            .unwrap_or(false);
        println!(
            "{:<12} {:>10} {:>12} {:>22} {:>20} {:>12.1}",
            k,
            learned.alphabet().len(),
            learned.clause_count(),
            accepts_all,
            stable,
            micros
        );
        if let Some(p) = &previous {
            // Monotone generalisation: the schema learned from fewer documents is contained in
            // the schema learned from more.
            assert!(schema_contained_in(p, &learned));
        }
        previous = Some(learned);
    }
}
