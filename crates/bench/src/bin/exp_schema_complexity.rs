//! Experiment E5 — static analysis of the multiplicity schema formalisms.
//!
//! The paper's complexity map: DMS containment is PTIME (the technical contribution), query
//! satisfiability and implication reduce to dependency-graph embeddings and are PTIME for
//! disjunction-free schemas. The table measures those operations on schemas of growing size
//! (learned from generated corpora, so label counts are realistic) and confirms the polynomial
//! growth; DTD validation on the same documents is shown as the classical baseline.
//!
//! Regenerate with `cargo run -p qbe-bench --bin exp_schema_complexity`.

use qbe_schema::{dms_from_dtd, learn_dms, schema_contained_in, DependencyGraph};
use qbe_twig::{parse_xpath, query_satisfiable};
use qbe_xml::corpus::{generate_corpus, CorpusConfig};
use qbe_xml::xmark::{generate, xmark_dtd, XmarkConfig};

fn main() {
    qbe_bench::check_args();
    println!("E5 — schema static analysis: timings on growing schemas");
    println!(
        "{:<12} {:>8} {:>18} {:>18} {:>20} {:>18}",
        "alphabet",
        "clauses",
        "containment (µs)",
        "depgraph (µs)",
        "satisfiability (µs)",
        "validation (µs)"
    );

    // Schemas of growing total size: every collection of the corpus has its own root label and
    // its own learned DMS (documents from different collections cannot share one schema), so the
    // row aggregates the per-collection timings; the totals grow with the number of collections.
    for collections in qbe_bench::param(vec![2usize, 4, 8, 12, 16, 20], vec![2, 4]) {
        let corpus = generate_corpus(&CorpusConfig {
            collections,
            documents_per_collection: 4,
            ..Default::default()
        });
        let mut total_alphabet = 0usize;
        let mut total_clauses = 0usize;
        let mut containment = 0.0;
        let mut depgraph = 0.0;
        let mut satisfiability = 0.0;
        let mut validation = 0.0;
        for entry in &corpus {
            let Ok(schema) = learn_dms(&entry.documents) else {
                continue;
            };
            let half = (entry.documents.len() / 2).max(1);
            let Ok(smaller) = learn_dms(&entry.documents[..half]) else {
                continue;
            };
            total_alphabet += schema.alphabet().len();
            total_clauses += schema.clause_count();

            containment += qbe_bench::time_us(|| schema_contained_in(&smaller, &schema)).1;
            depgraph += qbe_bench::time_us(|| DependencyGraph::from_schema(&schema)).1;
            let query = parse_xpath("//a").unwrap();
            satisfiability += qbe_bench::time_us(|| query_satisfiable(&schema, &query)).1;
            let violations = || -> usize {
                entry
                    .documents
                    .iter()
                    .map(|d| schema.validate(d).len())
                    .sum()
            };
            validation += qbe_bench::time_us(violations).1;
        }
        println!(
            "{:<12} {:>8} {:>18.1} {:>18.1} {:>20.1} {:>18.1}",
            total_alphabet, total_clauses, containment, depgraph, satisfiability, validation
        );
    }

    // XMark reference point: the schema the twig experiments use.
    let dms = dms_from_dtd(&xmark_dtd()).unwrap();
    let doc = generate(&XmarkConfig::new(qbe_bench::param(0.1, 0.02), 1));
    let (ok, micros) = qbe_bench::time_us(|| dms.accepts(&doc));
    println!(
        "\nXMark DMS: {} labels, {} clauses; validating a scale-0.1 document ({} nodes): {micros:.1} µs (valid: {ok})",
        dms.alphabet().len(),
        dms.clause_count(),
        doc.size(),
    );
}
