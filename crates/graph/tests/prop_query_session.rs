//! Contract suite for [`QuerySession`]: the paper's two promises, checked against a spec that
//! the session's engine never touches.
//!
//! The spec is the candidate pool itself: [`enumerate_candidates`] on a fresh [`QueryStore`],
//! each candidate evaluated with its own fresh [`EvalCache`], so neither the session's shared
//! cache nor its semantic deduplication is involved. Each round, the consistent candidates are
//! recomputed from every label recorded so far. Then:
//!
//! - every proposed question is new and *informative*: some consistent candidate selects its
//!   pair and another does not; when the session stops, every unasked question is determined;
//! - after every answer, the version space counts the distinct answer sets among the
//!   consistent candidates, and the learned query is the consistent candidate with the
//!   smallest answer set, then the smallest size, then the first in enumeration order.
//!
//! Sessions run on typed road views of generated graphs, for every class, under the default
//! halving strategy and the four shipped ones, answered either by a goal drawn from the pool or
//! by a seeded coin.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use qbe_algebra::{EvalCache, QueryStore};
use qbe_graph::{
    enumerate_candidates, evaluate_candidates, generate_geo_graph, typed_road_view, CandidateQuery,
    GNodeId, GeoConfig, GraphIndex, PropertyGraph, QueryClass, QuerySession,
};
use qbe_strategy::{SessionConfig, STRATEGY_NAMES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

type Pairs = BTreeSet<(GNodeId, GNodeId)>;

/// The candidate pool of a class with each candidate's answer set, evaluated one by one.
struct Spec {
    store: QueryStore,
    pool: Vec<CandidateQuery>,
    answers: Vec<Pairs>,
}

impl Spec {
    fn new(graph: &PropertyGraph, class: QueryClass) -> Spec {
        let index = GraphIndex::build(graph);
        let mut store = QueryStore::new();
        let pool = enumerate_candidates(&mut store, class, &graph.edge_alphabet());
        let answers = pool
            .iter()
            .map(|cand| {
                let mut fresh = EvalCache::new();
                evaluate_candidates(&store, &index, &mut fresh, std::slice::from_ref(cand))
                    .remove(0)
                    .into_iter()
                    .map(|(s, t)| (GNodeId(s as u32), GNodeId(t as u32)))
                    .collect()
            })
            .collect();
        Spec {
            store,
            pool,
            answers,
        }
    }

    /// The candidates that agree with every label, in enumeration order.
    fn consistent(&self, labels: &[((GNodeId, GNodeId), bool)]) -> Vec<usize> {
        (0..self.pool.len())
            .filter(|&c| {
                labels
                    .iter()
                    .all(|(pair, positive)| self.answers[c].contains(pair) == *positive)
            })
            .collect()
    }
}

/// Drive one session to its end, checking the contract after every `propose` and `record`.
fn check_session(
    graph: &PropertyGraph,
    spec: &Spec,
    class: QueryClass,
    config: SessionConfig,
    goal: Option<&Pairs>,
    coin: &mut StdRng,
) -> Result<(), TestCaseError> {
    let mut session = QuerySession::with_config(graph, class, config);
    let universe: Pairs = spec.answers.iter().flatten().copied().collect();
    let questions: Vec<(GNodeId, GNodeId)> = (0..session.question_count())
        .map(|q| session.question_pair(q))
        .collect();
    prop_assert_eq!(
        questions.iter().copied().collect::<Pairs>(),
        universe,
        "the questions are the pairs some candidate selects"
    );
    let mut asked: BTreeSet<usize> = BTreeSet::new();
    let mut labels: Vec<((GNodeId, GNodeId), bool)> = Vec::new();
    loop {
        let consistent = spec.consistent(&labels);
        let selecting = |pair: &(GNodeId, GNodeId)| {
            consistent
                .iter()
                .filter(|&&c| spec.answers[c].contains(pair))
                .count()
        };
        let Some(q) = session.propose() else {
            for (q, pair) in questions.iter().enumerate() {
                let n = selecting(pair);
                prop_assert!(
                    asked.contains(&q) || n == 0 || n == consistent.len(),
                    "stopped with question {} informative ({n} of {})",
                    q,
                    consistent.len()
                );
            }
            return Ok(());
        };
        prop_assert!(asked.insert(q), "question {} asked twice", q);
        let pair = session.question_pair(q);
        let n = selecting(&pair);
        prop_assert!(
            n > 0 && n < consistent.len(),
            "question {} is determined ({n} of {})",
            q,
            consistent.len()
        );

        let positive = match goal {
            Some(goal) => goal.contains(&pair),
            None => coin.gen_bool(0.5),
        };
        session.record(q, positive);
        labels.push((pair, positive));

        let consistent = spec.consistent(&labels);
        let distinct: BTreeSet<&Pairs> = consistent.iter().map(|&c| &spec.answers[c]).collect();
        prop_assert_eq!(session.version_space_size(), distinct.len());
        prop_assert_eq!(session.labelled_count(), labels.len());
        let learned = consistent
            .iter()
            .copied()
            .min_by_key(|&c| (spec.answers[c].len(), spec.pool[c].size(&spec.store)));
        match learned {
            Some(c) => {
                prop_assert_eq!(session.learned_query(), spec.pool[c].render(&spec.store));
                prop_assert_eq!(session.learned_answer_count(), spec.answers[c].len());
                prop_assert_eq!(&session.learned_pairs(), &spec.answers[c]);
            }
            None => {
                prop_assert_eq!(session.learned_query(), "∅ (inconsistent labels)");
                prop_assert_eq!(session.learned_answer_count(), 0);
                prop_assert!(session.learned_pairs().is_empty());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every question informative, every answer pruning to exactly the consistent candidates.
    #[test]
    fn sessions_keep_the_learners_contract(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = typed_road_view(&generate_geo_graph(&GeoConfig {
            cities: rng.gen_range(6usize..=16),
            connectivity: rng.gen_range(1usize..=3),
            seed,
            ..Default::default()
        }));
        let class = QueryClass::ALL[rng.gen_range(0usize..QueryClass::ALL.len())];
        let spec = Spec::new(&graph, class);
        let config = match rng.gen_range(0usize..=STRATEGY_NAMES.len()) {
            0 => SessionConfig::new().seed(seed),
            k => SessionConfig::new()
                .seed(seed)
                .strategy_named(STRATEGY_NAMES[k - 1])
                .expect("shipped strategy"),
        };
        let goal = (!spec.pool.is_empty() && rng.gen_bool(0.5))
            .then(|| spec.answers[rng.gen_range(0usize..spec.pool.len())].clone());
        check_session(&graph, &spec, class, config, goal.as_ref(), &mut rng).map_err(|e| {
            TestCaseError::fail(format!("seed {seed}, class {}: {e}", class.wire_name()))
        })?;
    }
}
