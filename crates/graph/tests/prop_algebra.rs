//! Differential property suite for the algebra lowering: every legacy dialect, lowered through
//! [`qbe_graph::lower`] and evaluated on the shared bitset kernels, must be extensionally equal
//! to its legacy evaluator — the executable specification — on random graphs and random queries.
//!
//! Each property samples ≥256 random cases; the generators cover every constructor of the
//! dialect under test (labels the graphs carry and labels they never do, nesting, node tests,
//! the lot). Two final properties pin the optimizer: `QueryStore::optimize` may rewrite an
//! expression arbitrarily but never change its answer set, whether the expression came from a
//! lowering or was interned raw with every redundancy left in.

use proptest::prelude::*;
use qbe_algebra::{EvalCache, Expr, ExprId, QueryStore};
use qbe_graph::{
    eval_conj_tuples, eval_expr_pairs, eval_nre, evaluate, lower_conjunctive, lower_nre,
    lower_path_regex, ConjunctiveNre, GNodeId, GraphIndex, Nre, PathRegex, PropertyGraph,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const LABELS: [&str; 4] = ["road", "train", "ferry", "trail"];
const NODE_LABELS: [&str; 3] = ["city", "station", "port"];

fn random_graph(seed: u64) -> PropertyGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = PropertyGraph::new();
    let nodes: Vec<_> = (0..rng.gen_range(1usize..8))
        .map(|_| g.add_node(*NODE_LABELS.choose(&mut rng).expect("non-empty")))
        .collect();
    for _ in 0..rng.gen_range(0usize..14) {
        let from = *nodes.choose(&mut rng).expect("non-empty");
        let to = *nodes.choose(&mut rng).expect("non-empty");
        // Draw from a prefix so some graphs miss some labels entirely.
        let cutoff = rng.gen_range(1usize..=LABELS.len());
        g.add_edge(from, to, LABELS[rng.gen_range(0usize..cutoff)]);
    }
    g
}

fn random_regex(rng: &mut StdRng, depth: usize) -> PathRegex {
    if depth == 0 || rng.gen_bool(0.35) {
        return PathRegex::label(*LABELS.choose(rng).expect("non-empty"));
    }
    match rng.gen_range(0u32..5) {
        0 => PathRegex::Concat(
            (0..rng.gen_range(1usize..4))
                .map(|_| random_regex(rng, depth - 1))
                .collect(),
        ),
        1 => PathRegex::Alt(
            (0..rng.gen_range(1usize..4))
                .map(|_| random_regex(rng, depth - 1))
                .collect(),
        ),
        2 => PathRegex::Star(Box::new(random_regex(rng, depth - 1))),
        3 => PathRegex::Plus(Box::new(random_regex(rng, depth - 1))),
        _ => PathRegex::Optional(Box::new(random_regex(rng, depth - 1))),
    }
}

fn random_nre(rng: &mut StdRng, depth: usize) -> Nre {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0u32..4) {
            0 => Nre::AnyEdge,
            1 => Nre::NodeLabel((*NODE_LABELS.choose(rng).expect("non-empty")).to_string()),
            _ => Nre::label(*LABELS.choose(rng).expect("non-empty")),
        };
    }
    match rng.gen_range(0u32..6) {
        0 => Nre::Concat(
            (0..rng.gen_range(1usize..4))
                .map(|_| random_nre(rng, depth - 1))
                .collect(),
        ),
        1 => Nre::Alt(
            (0..rng.gen_range(1usize..4))
                .map(|_| random_nre(rng, depth - 1))
                .collect(),
        ),
        2 => Nre::Star(Box::new(random_nre(rng, depth - 1))),
        3 => Nre::Plus(Box::new(random_nre(rng, depth - 1))),
        4 => Nre::Optional(Box::new(random_nre(rng, depth - 1))),
        _ => Nre::Nest(Box::new(random_nre(rng, depth - 1))),
    }
}

/// Intern a regex node by node with [`QueryStore::intern_raw`], bypassing every smart
/// constructor rewrite — the input shape `optimize` exists for.
fn intern_raw(store: &mut QueryStore, regex: &PathRegex) -> ExprId {
    let mut parts = |rs: &[PathRegex]| rs.iter().map(|r| intern_raw(store, r)).collect();
    let expr = match regex {
        PathRegex::Label(l) => return store.label(l),
        PathRegex::Concat(rs) => Expr::Concat(parts(rs)),
        PathRegex::Alt(rs) => Expr::Alt(parts(rs)),
        PathRegex::Star(r) => Expr::Star(intern_raw(store, r)),
        PathRegex::Plus(r) => Expr::Plus(intern_raw(store, r)),
        PathRegex::Optional(r) => Expr::Opt(intern_raw(store, r)),
    };
    store.intern_raw(expr)
}

/// Random conjunction of 1–3 NRE atoms over a 3-variable pool. Every atom gets *distinct*
/// subject and object variables: the legacy backtracking join treats a self-loop atom's two
/// occurrences of one variable inconsistently (known legacy quirk), so the specification is
/// only trusted off that corner.
fn random_conjunction(rng: &mut StdRng) -> ConjunctiveNre {
    const VARS: [&str; 3] = ["x", "y", "z"];
    let mut conj = ConjunctiveNre::new();
    for _ in 0..rng.gen_range(1usize..4) {
        let s = rng.gen_range(0usize..VARS.len());
        let mut o = rng.gen_range(0usize..VARS.len() - 1);
        if o >= s {
            o += 1;
        }
        conj = conj.atom(VARS[s], random_nre(rng, 1), VARS[o]);
    }
    conj
}

fn legacy_conj_tuples(conj: &ConjunctiveNre, g: &PropertyGraph) -> BTreeSet<Vec<GNodeId>> {
    let vars = conj.variables();
    conj.evaluate(g)
        .into_iter()
        .map(|binding| vars.iter().map(|v| binding[v]).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lowered RPQ ≡ `rpq::evaluate` on random graphs and regexes.
    #[test]
    fn lowered_rpq_equals_legacy(seed in 0u64..1_000_000) {
        let g = random_graph(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA15E_B0A7);
        let regex = random_regex(&mut rng, 3);
        let index = GraphIndex::build(&g);
        let mut store = QueryStore::new();
        let mut cache = EvalCache::new();
        let lowered = lower_path_regex(&mut store, &regex);
        prop_assert_eq!(
            eval_expr_pairs(&index, &store, &mut cache, lowered),
            evaluate(&g, &regex),
            "regex {} on {} nodes / {} edges", regex, g.node_count(), g.edge_count()
        );
    }

    /// Lowered NRE ≡ `eval_nre`, nesting and node tests included.
    #[test]
    fn lowered_nre_equals_legacy(seed in 0u64..1_000_000) {
        let g = random_graph(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0BAD_CAFE);
        let nre = random_nre(&mut rng, 3);
        let index = GraphIndex::build(&g);
        let mut store = QueryStore::new();
        let mut cache = EvalCache::new();
        let lowered = lower_nre(&mut store, &nre);
        prop_assert_eq!(
            eval_expr_pairs(&index, &store, &mut cache, lowered),
            eval_nre(&g, &nre),
            "nre {} on {} nodes / {} edges", nre, g.node_count(), g.edge_count()
        );
    }

    /// Lowered conjunction ≡ the legacy backtracking join, projected over the same variables
    /// in the same (first-appearance) order.
    #[test]
    fn lowered_conjunction_equals_legacy(seed in 0u64..1_000_000) {
        let g = random_graph(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00C0_FFEE);
        let conj = random_conjunction(&mut rng);
        let index = GraphIndex::build(&g);
        let mut store = QueryStore::new();
        let mut cache = EvalCache::new();
        let lowered = lower_conjunctive(&mut store, &conj);
        prop_assert_eq!(
            eval_conj_tuples(&index, &store, &mut cache, &lowered),
            legacy_conj_tuples(&conj, &g),
            "conjunction {:?} on {} nodes / {} edges", conj, g.node_count(), g.edge_count()
        );
    }

    /// `QueryStore::optimize` is semantics-preserving: the rewritten expression's answer set
    /// equals the raw lowering's (and, transitively, the legacy evaluator's).
    #[test]
    fn optimizer_preserves_semantics(seed in 0u64..1_000_000) {
        let g = random_graph(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_50DA);
        let nre = random_nre(&mut rng, 3);
        let index = GraphIndex::build(&g);
        let mut store = QueryStore::new();
        let lowered = lower_nre(&mut store, &nre);
        let optimized = store.optimize(lowered);
        let mut cache = EvalCache::new();
        prop_assert_eq!(
            eval_expr_pairs(&index, &store, &mut cache, optimized),
            eval_expr_pairs(&index, &store, &mut cache, lowered),
            "nre {} optimized {} vs raw {}", nre, store.render(optimized), store.render(lowered)
        );
    }

    /// `optimize` on a raw-interned expression wrapped in the redundancy the rewrites remove —
    /// `(r*)*`, `r|r`, `(r?)?` — shrinks it and keeps its answer set, which is the naive
    /// evaluator's answer for the same regex.
    #[test]
    fn optimizer_shrinks_raw_expressions_without_changing_answers(seed in 0u64..1_000_000) {
        let g = random_graph(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0A1B_2C3D);
        let r = random_regex(&mut rng, 2);
        let regex = PathRegex::Concat(vec![
            PathRegex::Star(Box::new(PathRegex::Star(Box::new(r.clone())))),
            PathRegex::Alt(vec![r.clone(), r.clone()]),
            PathRegex::Optional(Box::new(PathRegex::Optional(Box::new(r)))),
        ]);
        let index = GraphIndex::build(&g);
        let mut store = QueryStore::new();
        let raw = intern_raw(&mut store, &regex);
        let optimized = store.optimize(raw);
        prop_assert!(
            store.size(optimized) < store.size(raw),
            "{} did not shrink to {}", store.render(raw), store.render(optimized)
        );
        let mut cache = EvalCache::new();
        let expected = evaluate(&g, &regex);
        prop_assert_eq!(eval_expr_pairs(&index, &store, &mut cache, raw), expected.clone());
        prop_assert_eq!(
            eval_expr_pairs(&index, &store, &mut cache, optimized),
            expected,
            "regex {} optimized {}", regex, store.render(optimized)
        );
    }
}
