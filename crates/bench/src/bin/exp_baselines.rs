//! Experiment E12 — the relational baselines the paper positions itself against (§3 related
//! work): query by output (Tran et al.), view definition synthesis (Das Sarma et al.),
//! conditional functional dependency discovery (Fan et al.) and the Bancilhon–Paredaens
//! expressibility criterion.
//!
//! For each baseline the table reports whether it reverse-engineers the hidden goal query from
//! instance+output alone, how large the reconstruction is, and how long it takes — the contrast
//! the paper draws is that these approaches need the *whole* output to be given, while its
//! interactive framework only needs a handful of labelled examples (see E9).
//!
//! A last table times twig evaluation both ways the workspace implements it: the naive
//! `eval::select`, kept as the executable spec, against the production `eval_indexed::select`
//! over a prebuilt node index, on the same XMark document. Both must select the same nodes.
//!
//! Regenerate with `cargo run -p qbe-bench --bin exp_baselines`.

use qbe_relational::bp::{bp_expressible, single_relation_instance};
use qbe_relational::cfd::{discover_constant_cfds, discover_fds};
use qbe_relational::query_by_output::{distinct_constants, query_by_output};
use qbe_relational::view_synthesis::synthesize_view;
use qbe_relational::{
    customers_orders_database, Condition, Instance, Relation, RelationSchema, SpjQuery, Tuple,
    Value,
};
use qbe_twig::{eval, eval_indexed, parse_xpath};
use qbe_xml::xmark::{generate, XmarkConfig};
use qbe_xml::NodeIndex;

/// A wider single-table instance: one row per order with customer attributes denormalised, so
/// selection queries over it have interesting correlated attributes.
fn orders_flat(customers: usize, orders_per_customer: usize, seed: u64) -> Relation {
    let db = customers_orders_database(customers, orders_per_customer, seed);
    let c = db
        .relation("customers")
        .expect("generator always emits customers");
    let o = db
        .relation("orders")
        .expect("generator always emits orders");
    let schema = RelationSchema::new(
        "orders_flat",
        &["oid", "cid", "city", "segment", "amount_band", "express"],
    );
    let mut out = Relation::new(schema);
    for (ix, order) in o.tuples().iter().enumerate() {
        let cid = order.get(o.schema().index_of("cid").expect("cid attribute"));
        let customer = c
            .tuples()
            .iter()
            .find(|t| t.get(c.schema().index_of("cid").expect("cid attribute")) == cid)
            .expect("every order references an existing customer");
        let city = customer
            .get(c.schema().index_of("city").expect("city attribute"))
            .clone();
        let amount = match order.get(o.schema().index_of("amount").expect("amount attribute")) {
            Value::Int(a) => *a,
            _ => 0,
        };
        out.insert(Tuple::new(vec![
            Value::Int(ix as i64),
            cid.clone(),
            city,
            Value::text(if ix % 3 == 0 { "consumer" } else { "business" }),
            Value::text(if amount > 50 { "high" } else { "low" }),
            Value::Bool(ix % 4 == 0),
        ]));
    }
    out
}

fn main() {
    qbe_bench::check_args();
    println!("E12 — relational baselines: reverse-engineering queries from instance + output\n");

    // --- Query by output -------------------------------------------------------------------
    println!("query by output (TALOS-style decision tree):");
    println!(
        "{:<34} {:>9} {:>10} {:>11} {:>10} {:>10}",
        "goal query", "|output|", "recovered", "branches", "constants", "time (µs)"
    );
    let flat = orders_flat(12, 4, 7);
    let mut db = Instance::new();
    db.add(flat.clone());
    let goals: Vec<(&str, SpjQuery)> = vec![
        (
            "σ[city=Paris] π[oid]",
            SpjQuery::scan("orders_flat")
                .select(vec![Condition::AttrConst(
                    "city".into(),
                    Value::text("Paris"),
                )])
                .project(&["oid"]),
        ),
        (
            "σ[amount_band=high] π[oid]",
            SpjQuery::scan("orders_flat")
                .select(vec![Condition::AttrConst(
                    "amount_band".into(),
                    Value::text("high"),
                )])
                .project(&["oid"]),
        ),
        (
            "σ[segment=consumer ∧ express] π[oid]",
            SpjQuery::scan("orders_flat")
                .select(vec![
                    Condition::AttrConst("segment".into(), Value::text("consumer")),
                    Condition::AttrConst("express".into(), Value::Bool(true)),
                ])
                .project(&["oid"]),
        ),
        (
            "full projection π[cid]",
            SpjQuery::scan("orders_flat").project(&["cid"]),
        ),
    ];
    for (name, goal) in &goals {
        let output = goal
            .evaluate(&db)
            .expect("goal evaluates on the generated instance");
        let (learned, micros) = qbe_bench::time_us(|| query_by_output(&db, &output));
        match learned {
            Ok(q) => println!(
                "{:<34} {:>9} {:>10} {:>11} {:>10} {:>10.1}",
                name,
                output.len(),
                "yes",
                q.branches.len(),
                distinct_constants(&q),
                micros
            ),
            Err(e) => println!(
                "{:<34} {:>9} {:>10} {:>11} {:>10} {:>10.1}",
                name,
                output.len(),
                format!("no ({e})"),
                "-",
                "-",
                micros
            ),
        }
    }

    // --- View synthesis ---------------------------------------------------------------------
    println!("\nview definition synthesis (most succinct exact definition):");
    println!(
        "{:<34} {:>8} {:>12} {:>12} {:>10}",
        "view", "|view|", "exact?", "conditions", "time (µs)"
    );
    for (name, goal) in &goals {
        let view = goal
            .evaluate(&db)
            .expect("goal evaluates on the generated instance");
        if view.is_empty() {
            continue;
        }
        let (outcome, micros) = qbe_bench::time_us(|| synthesize_view(&db, &view));
        match outcome {
            Ok(o) => println!(
                "{:<34} {:>8} {:>12} {:>12} {:>10.1}",
                name,
                view.len(),
                if o.accuracy.is_exact() {
                    "exact"
                } else {
                    "approximate"
                },
                o.definition.size(),
                micros
            ),
            Err(e) => println!(
                "{:<34} {:>8} {:>12} {:>12} {:>10.1}",
                name,
                view.len(),
                format!("{e}"),
                "-",
                micros
            ),
        }
    }

    // --- CFD discovery ----------------------------------------------------------------------
    println!("\nconditional functional dependency discovery (levelwise, |lhs| ≤ 2):");
    println!(
        "{:<10} {:>8} {:>8} {:>14} {:>16} {:>12}",
        "rows", "minsup", "FDs", "constant CFDs", "all hold?", "time (µs)"
    );
    for rows in qbe_bench::param(vec![8usize, 16, 32, 64], vec![8, 16]) {
        let relation = orders_flat(rows, 3, rows as u64);
        for minsup in [2usize, 4] {
            let ((fds, cfds), micros) = qbe_bench::time_us(|| {
                (
                    discover_fds(&relation, 2),
                    discover_constant_cfds(&relation, 2, minsup),
                )
            });
            let all_hold = cfds.iter().all(|c| c.holds(&relation));
            println!(
                "{:<10} {:>8} {:>8} {:>14} {:>16} {:>12.1}",
                relation.len(),
                minsup,
                fds.len(),
                cfds.len(),
                all_hold,
                micros
            );
        }
    }

    // --- BP-completeness --------------------------------------------------------------------
    println!("\nBancilhon–Paredaens expressibility (is there *any* algebra expression I → J?):");
    println!(
        "{:<44} {:>12} {:>14} {:>12}",
        "output", "expressible", "automorphisms", "time (µs)"
    );
    let input = single_relation_instance(orders_flat(10, 2, 3));
    let flat10 = orders_flat(10, 2, 3);
    let outputs: Vec<(&str, Relation)> = vec![
        (
            "π[cid] (projection of the input)",
            SpjQuery::scan("orders_flat")
                .project(&["cid"])
                .evaluate(&single_relation_instance(flat10.clone()))
                .expect("projection evaluates"),
        ),
        (
            "σ[express] π[oid]",
            SpjQuery::scan("orders_flat")
                .select(vec![Condition::AttrConst(
                    "express".into(),
                    Value::Bool(true),
                )])
                .project(&["oid"])
                .evaluate(&single_relation_instance(flat10.clone()))
                .expect("selection evaluates"),
        ),
        (
            "foreign constant {999}",
            Relation::with_tuples(
                RelationSchema::new("out", &["x"]),
                vec![Tuple::new(vec![Value::Int(999)])],
            ),
        ),
    ];
    for (name, output) in &outputs {
        let (verdict, micros) = qbe_bench::time_us(|| bp_expressible(&input, output));
        println!(
            "{:<44} {:>12} {:>14} {:>12.1}",
            name, verdict.expressible, verdict.automorphism_count, micros
        );
    }

    println!(
        "\ncontrast with the paper's interactive framework: the baselines above need the full \
         output/view to be materialised by the user, while the interactive join learner (E9) \
         reaches the same goal query from a handful of labelled tuples."
    );

    // --- Twig evaluation: the executable spec against the production engine ---------------
    let doc = generate(&XmarkConfig::new(qbe_bench::param(0.05, 0.02), 7));
    let index = NodeIndex::build(&doc);
    println!(
        "\ntwig select on an XMark document ({} nodes): naive spec vs indexed engine",
        doc.size()
    );
    println!(
        "{:<36} {:>9} {:>12} {:>14} {:>8}",
        "query", "selected", "naive (µs)", "indexed (µs)", "speedup"
    );
    for xpath in [
        "//person/name",
        "/site/people/person[emailaddress]",
        "//item[name]",
        "/site//open_auction",
    ] {
        let query = parse_xpath(xpath).expect("query parses");
        let (naive, naive_us) = qbe_bench::time_us(|| eval::select(&query, &doc));
        let (indexed, indexed_us) =
            qbe_bench::time_us(|| eval_indexed::select(&query, &doc, &index));
        assert_eq!(
            naive, indexed,
            "{xpath}: the engine disagrees with the spec"
        );
        println!(
            "{:<36} {:>9} {:>12.1} {:>14.1} {:>7.1}×",
            xpath,
            naive.len(),
            naive_us,
            indexed_us,
            naive_us / indexed_us
        );
    }
}
