//! Interactive learning of graph queries by *pair-membership* questions — the richer query
//! classes (plain RPQs, two-way RPQs with inverse labels, conjunctions of path atoms) the
//! algebra layer unlocks.
//!
//! A [`QuerySession`] ranges over the *typed road view* of a geographical graph (see
//! [`crate::lower::typed_road_view`]): edge labels are road types, kept in one direction only
//! so that `ℓ` and `ℓ⁻` differ. The hypothesis space is a finite pool of candidate queries
//! enumerated per [`QueryClass`] from the graph's alphabet (atoms, concatenations,
//! disjunctions, `+`-repetitions; the conjunctive class adds two-atom intersections); each
//! candidate denotes its *answer set* — the node pairs it selects. Questions are single pairs
//! `(source, target)`: "should the query you have in mind select this pair?". Each answer
//! bisects the version space, through the same engine that answers path labels in
//! [`crate::interactive`].
//!
//! Every candidate lowers to the hash-consed IR and evaluates through **one shared
//! [`EvalCache`]**: structurally equal subqueries across the whole pool are evaluated once
//! (cross-candidate common-subexpression elimination). The differential suite pins the pooled
//! answer sets against per-candidate evaluation with fresh caches, and the benchmark's
//! `qbe-algebra.cache_hit_frac` reports the sharing on served sessions (`perfbench/README.md`).
//!
//! A session holds each fact once. The question universe is one sorted list of pairs, and a
//! pair's question id is its position in that list. Questions accepted by the same hypotheses
//! share a *class* (their acceptor set, the tidset of closed-pattern mining), kept as one bitset
//! over hypotheses: an answer is one `AND` (or `AND NOT`) of the alive hypotheses with its class,
//! and accept counts are one popcount per class. The session builds the classes and hands them,
//! with the pool, the strategy and the budget, to the crate's version-space engine, which path
//! sessions answer through too. A hypothesis keeps its query and answer size.

use crate::index::GraphIndex;
use crate::model::{GNodeId, PropertyGraph};
use crate::space::VersionSpace;
use qbe_algebra::{eval_conj, eval_expr, ConjQuery, EvalCache, ExprId, PathAtom, QueryStore, Term};
use qbe_bitset::DenseSet;
use qbe_strategy::SessionConfig;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};

/// The query class a session learns — how expressive the candidate pool is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Regular path queries over forward edge labels.
    Rpq,
    /// Two-way RPQs: the alphabet gains an inverse letter `ℓ⁻` per edge label.
    TwoRpq,
    /// Conjunctive RPQs: two-way path candidates plus two-atom intersections
    /// `π_{x,y}(x —e₁→ y ∧ x —e₂→ y)`.
    Crpq,
}

impl QueryClass {
    /// Every class, in increasing expressiveness.
    pub const ALL: [QueryClass; 3] = [QueryClass::Rpq, QueryClass::TwoRpq, QueryClass::Crpq];

    /// The wire name used by the qbe-server protocol (`class=` option).
    pub fn wire_name(self) -> &'static str {
        match self {
            QueryClass::Rpq => "rpq",
            QueryClass::TwoRpq => "2rpq",
            QueryClass::Crpq => "crpq",
        }
    }

    /// Parse a wire name (case-insensitive).
    pub fn parse(name: &str) -> Option<QueryClass> {
        match name.to_ascii_lowercase().as_str() {
            "rpq" => Some(QueryClass::Rpq),
            "2rpq" => Some(QueryClass::TwoRpq),
            "crpq" => Some(QueryClass::Crpq),
            _ => None,
        }
    }
}

/// One candidate query of the hypothesis pool, lowered to the algebra IR.
#[derive(Debug, Clone)]
pub enum CandidateQuery {
    /// A path query: selects the pairs its expression relates.
    Path(ExprId),
    /// A conjunction projecting two variables: selects its answer tuples as pairs.
    Conj(ConjQuery),
}

impl CandidateQuery {
    /// Render the candidate in the store's concrete syntax.
    pub fn render(&self, store: &QueryStore) -> String {
        match self {
            CandidateQuery::Path(e) => store.render(*e),
            CandidateQuery::Conj(q) => q.render(store),
        }
    }

    /// Structural size (IR nodes; conjunctions add one per extra atom).
    pub fn size(&self, store: &QueryStore) -> usize {
        match self {
            CandidateQuery::Path(e) => store.size(*e),
            CandidateQuery::Conj(q) => q
                .atoms
                .iter()
                .map(|a| store.size(a.expr))
                .sum::<usize>()
                .saturating_add(q.atoms.len() - 1),
        }
    }
}

/// Enumerate the candidate pool of a query class over an edge alphabet.
///
/// Atoms are the labels (plus their inverses for the two-way classes); the pool closes them
/// under one level of `concat(a, b)`, `alt(a, b)` and `plus(a)`. The conjunctive class adds
/// `π_{x,y}(x —a→ y ∧ x —b→ y)` for every unordered atom pair. Smart-constructor rewrites
/// (alt dedup and sorting, flattening) already canonicalise the pool at intern time.
pub fn enumerate_candidates(
    store: &mut QueryStore,
    class: QueryClass,
    alphabet: &[String],
) -> Vec<CandidateQuery> {
    let mut atoms: Vec<ExprId> = alphabet.iter().map(|l| store.label(l)).collect();
    if matches!(class, QueryClass::TwoRpq | QueryClass::Crpq) {
        let inverses: Vec<ExprId> = alphabet.iter().map(|l| store.inv_label(l)).collect();
        atoms.extend(inverses);
    }
    let mut pool = Vec::new();
    for &a in &atoms {
        pool.push(CandidateQuery::Path(a));
        let plus = store.plus(a);
        pool.push(CandidateQuery::Path(plus));
    }
    for &a in &atoms {
        for &b in &atoms {
            let concat = store.concat([a, b]);
            pool.push(CandidateQuery::Path(concat));
        }
    }
    for (i, &a) in atoms.iter().enumerate() {
        for &b in &atoms[i + 1..] {
            let alt = store.alt([a, b]);
            pool.push(CandidateQuery::Path(alt));
        }
    }
    if class == QueryClass::Crpq {
        let x = store.sym("x");
        let y = store.sym("y");
        for (i, &a) in atoms.iter().enumerate() {
            for &b in &atoms[i + 1..] {
                pool.push(CandidateQuery::Conj(ConjQuery::new(
                    vec![
                        PathAtom {
                            subject: Term::Var(x),
                            expr: a,
                            object: Term::Var(y),
                        },
                        PathAtom {
                            subject: Term::Var(x),
                            expr: b,
                            object: Term::Var(y),
                        },
                    ],
                    vec![x, y],
                )));
            }
        }
    }
    pool
}

/// Evaluate every candidate against the index, returning one answer set (as source/target
/// pairs) per candidate. All candidates share the caller's [`EvalCache`] — pass a fresh cache
/// per candidate instead to measure what the cross-candidate sharing saves.
pub fn evaluate_candidates(
    store: &QueryStore,
    index: &GraphIndex,
    cache: &mut EvalCache<GNodeId>,
    pool: &[CandidateQuery],
) -> Vec<BTreeSet<(usize, usize)>> {
    pool.iter()
        .map(|cand| match cand {
            CandidateQuery::Path(e) => eval_expr(store, index, cache, *e).pairs(),
            CandidateQuery::Conj(q) => eval_conj(store, index, cache, q, None, None)
                .into_iter()
                .map(|t| (t[0], t[1]))
                .collect(),
        })
        .collect()
}

/// Cross-candidate evaluation statistics of a session's shared cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CseStats {
    /// Subexpression evaluations answered from the shared cache.
    pub hits: usize,
    /// Subexpression evaluations actually performed.
    pub misses: usize,
}

/// Interactive session learning one query of a [`QueryClass`] over a typed graph.
///
/// Generic over graph ownership exactly like [`crate::interactive::PathSession`]: borrow for
/// in-process callers, `Arc` for the server registry.
pub struct QuerySession<G: Borrow<PropertyGraph>> {
    graph: G,
    store: QueryStore,
    /// The hypotheses: the semantically distinct candidates, with their answer-set sizes.
    queries: Vec<CandidateQuery>,
    answer_counts: Vec<usize>,
    /// The question universe: every pair some candidate selects, in ascending order. A
    /// question's id is its position here.
    questions: Vec<(GNodeId, GNodeId)>,
    /// The version space over the hypotheses, with one class per distinct, non-empty set of
    /// hypotheses that select a question.
    space: VersionSpace,
    stats: CseStats,
}

impl<G: Borrow<PropertyGraph>> QuerySession<G> {
    /// Start a session over a typed graph (see [`crate::lower::typed_road_view`]) from a
    /// [`SessionConfig`] (strategy, question budget, seed). The default strategy is the path
    /// model's [`crate::interactive::PathStrategy::Halving`], here over pair questions.
    pub fn with_config(graph: G, class: QueryClass, config: SessionConfig) -> QuerySession<G> {
        let g = graph.borrow();
        let index = GraphIndex::build(g);
        let mut store = QueryStore::new();
        let alphabet = g.edge_alphabet();
        let pool = enumerate_candidates(&mut store, class, &alphabet);
        let mut cache = EvalCache::new();
        let answers = evaluate_candidates(&store, &index, &mut cache, &pool);
        let stats = CseStats {
            hits: cache.hits(),
            misses: cache.misses(),
        };

        // Semantic deduplication: candidates with the same answer set are indistinguishable
        // by any question — keep the structurally smallest (first on ties; enumeration order
        // is deterministic).
        let mut by_answer: BTreeMap<&BTreeSet<(usize, usize)>, usize> = BTreeMap::new();
        for (ix, answer) in answers.iter().enumerate() {
            let entry = by_answer.entry(answer).or_insert(ix);
            if pool[ix].size(&store) < pool[*entry].size(&store) {
                *entry = ix;
            }
        }
        let mut kept: Vec<usize> = by_answer.into_values().collect();
        kept.sort_unstable();

        // The question universe: every pair distinguished by some candidate.
        let mut questions: Vec<(GNodeId, GNodeId)> = kept
            .iter()
            .flat_map(|&ix| answers[ix].iter())
            .map(|&(s, t)| (GNodeId(s as u32), GNodeId(t as u32)))
            .collect();
        questions.sort_unstable();
        questions.dedup();
        questions.shrink_to_fit();

        // Partition refinement: each hypothesis moves the questions it selects from their class
        // to the class "their acceptors plus it", made on first use and kept as (the class it
        // grew from, the hypothesis added). Class 0 is the empty set.
        let mut class_of = vec![0u32; questions.len()];
        let mut grown: Vec<(usize, usize)> = vec![(0, 0)];
        for (h, &ix) in kept.iter().enumerate() {
            let mut moved_to = vec![None; grown.len()];
            let mut q = 0;
            for &(s, t) in &answers[ix] {
                // Answers ascend like the questions: gallop on from the previous answer's id.
                let pair = (GNodeId(s as u32), GNodeId(t as u32));
                let mut end = q + 1;
                while end < questions.len() && questions[end] < pair {
                    end += end - q;
                }
                q += questions[q..questions.len().min(end + 1)].partition_point(|&p| p < pair);
                let from = class_of[q] as usize;
                class_of[q] = *moved_to[from].get_or_insert_with(|| {
                    grown.push((from, h));
                    (grown.len() - 1) as u32
                });
            }
        }
        // Keep the classes some question ended in, acceptors read back along the chain grown.
        let mut renumbered = vec![u32::MAX; grown.len()];
        let mut acceptors = Vec::new();
        for c in &mut class_of {
            if renumbered[*c as usize] == u32::MAX {
                renumbered[*c as usize] = acceptors.len() as u32;
                let chain = std::iter::successors(Some(*c as usize), |&at| Some(grown[at].0));
                let added = chain.take_while(|&at| at != 0).map(|at| grown[at].1);
                acceptors.push(DenseSet::from_ids(kept.len(), added));
            }
            *c = renumbered[*c as usize];
        }
        QuerySession {
            graph,
            store,
            queries: kept.iter().map(|&ix| pool[ix].clone()).collect(),
            answer_counts: kept.iter().map(|&ix| answers[ix].len()).collect(),
            questions,
            space: VersionSpace::new(kept.len(), class_of, acceptors, config),
            stats,
        }
    }

    /// The graph the session ranges over.
    pub fn graph(&self) -> &PropertyGraph {
        self.graph.borrow()
    }

    /// The name of the session's question-selection strategy.
    pub fn strategy_name(&self) -> &str {
        self.space.strategy_name()
    }

    /// Shared-cache statistics of the candidate-pool evaluation.
    pub fn cse_stats(&self) -> CseStats {
        self.stats
    }

    /// Number of (semantically distinct) candidate queries.
    pub fn candidate_count(&self) -> usize {
        self.queries.len()
    }

    /// Number of candidates still consistent with every label.
    pub fn version_space_size(&self) -> usize {
        self.space.alive().len()
    }

    /// Number of question pairs in the universe.
    pub fn question_count(&self) -> usize {
        self.questions.len()
    }

    /// The pair behind question `ix`.
    pub fn question_pair(&self, ix: usize) -> (GNodeId, GNodeId) {
        self.questions[ix]
    }

    /// Number of pairs the user has labelled so far.
    pub fn labelled_count(&self) -> usize {
        self.space.labelled()
    }

    /// The most specific surviving candidate's id: smallest answer set, then smallest query,
    /// first on ties. `None` when the version space is empty (contradictory labels).
    fn most_specific(&self) -> Option<usize> {
        let specificity = |&h: &usize| (self.answer_counts[h], self.queries[h].size(&self.store));
        self.space.alive().iter().min_by_key(specificity)
    }

    /// The learned query rendered: the most specific candidate consistent with every label.
    pub fn learned_query(&self) -> String {
        match self.most_specific() {
            Some(h) => self.queries[h].render(&self.store),
            None => "∅ (inconsistent labels)".to_string(),
        }
    }

    /// The size of the learned query's answer set (0 when the labels are inconsistent).
    pub fn learned_answer_count(&self) -> usize {
        self.most_specific().map_or(0, |h| self.answer_counts[h])
    }

    /// The learned query's answer set, rebuilt on request from the classes that it accepts.
    pub fn learned_pairs(&self) -> BTreeSet<(GNodeId, GNodeId)> {
        let h = self.most_specific();
        let accepted = |q: usize| h.is_some_and(|h| self.space.acceptors(q).contains(h));
        (0..self.questions.len())
            .filter(|&q| accepted(q))
            .map(|q| self.questions[q])
            .collect()
    }

    /// Record a user label and prune the version space to the hypotheses that agree with it.
    pub fn record(&mut self, question_ix: usize, positive: bool) {
        self.space.record(question_ix, positive);
    }

    /// Propose the next informative pair to ask about, or `None` when every pair's label is
    /// determined by the version space (or the budget is spent). A pair's cost is its
    /// question id.
    pub fn propose(&mut self) -> Option<usize> {
        self.space.propose(|q| (q as f64, 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::{generate_geo_graph, GeoConfig};
    use crate::lower::typed_road_view;

    type Pairs = BTreeSet<(GNodeId, GNodeId)>;

    fn typed_graph() -> PropertyGraph {
        let g = generate_geo_graph(&GeoConfig {
            cities: 12,
            connectivity: 3,
            ..Default::default()
        });
        typed_road_view(&g)
    }

    /// Evaluate one candidate of the pool as the hidden goal's answer set.
    fn goal_pairs(
        graph: &PropertyGraph,
        class: QueryClass,
        pick: usize,
    ) -> BTreeSet<(GNodeId, GNodeId)> {
        let index = GraphIndex::build(graph);
        let mut store = QueryStore::new();
        let pool = enumerate_candidates(&mut store, class, &graph.edge_alphabet());
        let mut cache = EvalCache::new();
        let answers = evaluate_candidates(&store, &index, &mut cache, &pool);
        answers[pick % answers.len()]
            .iter()
            .map(|&(s, t)| (GNodeId(s as u32), GNodeId(t as u32)))
            .collect()
    }

    /// Answer every proposed question by membership in `goal` until the session stops.
    fn run_to_goal(
        session: &mut QuerySession<&PropertyGraph>,
        goal: &BTreeSet<(GNodeId, GNodeId)>,
    ) {
        while let Some(q) = session.propose() {
            let positive = goal.contains(&session.question_pair(q));
            session.record(q, positive);
        }
    }

    #[test]
    fn sessions_converge_to_the_goal_for_every_class() {
        let typed = typed_graph();
        for class in QueryClass::ALL {
            for pick in [1, 7, 20] {
                let goal = goal_pairs(&typed, class, pick);
                let mut session =
                    QuerySession::with_config(&typed, class, SessionConfig::new().seed(3));
                run_to_goal(&mut session, &goal);
                assert_eq!(
                    session.learned_pairs(),
                    goal,
                    "{} candidate {pick} learned {}",
                    class.wire_name(),
                    session.learned_query()
                );
                assert_eq!(session.learned_answer_count(), goal.len());
                assert!(session.version_space_size() >= 1);
            }
        }
    }

    /// Each hypothesis's answer set, evaluated afresh, as sets of question pairs.
    fn fresh_answers(graph: &PropertyGraph, session: &QuerySession<&PropertyGraph>) -> Vec<Pairs> {
        let index = GraphIndex::build(graph);
        let queries = &session.queries;
        let answers = evaluate_candidates(&session.store, &index, &mut EvalCache::new(), queries);
        let pair = |(s, t): (usize, usize)| (GNodeId(s as u32), GNodeId(t as u32));
        let as_pairs = |answer: BTreeSet<(usize, usize)>| answer.into_iter().map(pair).collect();
        answers.into_iter().map(as_pairs).collect()
    }

    /// The hypotheses whose fresh answer set holds question `q`.
    fn fresh_acceptors(
        session: &QuerySession<&PropertyGraph>,
        answers: &[Pairs],
        q: usize,
    ) -> Vec<usize> {
        let pair = session.questions[q];
        (0..answers.len())
            .filter(|&h| answers[h].contains(&pair))
            .collect()
    }

    #[test]
    fn questions_ascend_and_each_class_holds_exactly_its_acceptors() {
        let typed = typed_graph();
        for class in QueryClass::ALL {
            let session = QuerySession::with_config(&typed, class, SessionConfig::new().seed(0));
            assert!(
                session.questions.windows(2).all(|w| w[0] < w[1]),
                "question ids follow the pairs' ascending order, without repeats"
            );
            let answers = fresh_answers(&typed, &session);
            for (h, answer) in answers.iter().enumerate() {
                let from_classes: Pairs = (0..session.question_count())
                    .filter(|&q| session.space.acceptors(q).contains(h))
                    .map(|q| session.questions[q])
                    .collect();
                let query = session.queries[h].render(&session.store);
                assert_eq!(&from_classes, answer, "{query}");
                assert_eq!(session.answer_counts[h], answer.len(), "{query}");
            }
            // Every question is some candidate's answer, and its class holds its acceptors.
            for q in 0..session.question_count() {
                let acceptors = fresh_acceptors(&session, &answers, q);
                let class = session.space.acceptors(q);
                assert!(!acceptors.is_empty(), "question {q}");
                assert_eq!(class.iter().collect::<Vec<_>>(), acceptors, "question {q}");
            }
        }
    }

    #[test]
    fn classes_are_the_distinct_acceptor_sets() {
        let medium = typed_road_view(&generate_geo_graph(&GeoConfig {
            cities: 256,
            connectivity: 3,
            ..Default::default()
        }));
        let cases = [
            (typed_graph(), [None; 3]),
            (medium, [Some(169), Some(975), Some(975)]),
        ];
        for (typed, pinned) in cases {
            for (class, pinned) in QueryClass::ALL.into_iter().zip(pinned) {
                let session =
                    QuerySession::with_config(&typed, class, SessionConfig::new().seed(0));
                let answers = fresh_answers(&typed, &session);
                let distinct: BTreeSet<Vec<usize>> = (0..session.question_count())
                    .map(|q| fresh_acceptors(&session, &answers, q))
                    .collect();
                assert_eq!(
                    session.space.classes().len(),
                    distinct.len(),
                    "{}",
                    class.wire_name()
                );
                let classes: BTreeSet<Vec<usize>> = session
                    .space
                    .classes()
                    .iter()
                    .map(|a| a.iter().collect())
                    .collect();
                assert_eq!(
                    classes, distinct,
                    "classes are non-empty and pairwise distinct"
                );
                if let Some(count) = pinned {
                    assert_eq!(
                        session.space.classes().len(),
                        count,
                        "{}",
                        class.wire_name()
                    );
                }
            }
        }
    }

    #[test]
    fn two_way_pool_distinguishes_inverse_labels() {
        let typed = typed_graph();
        let index = GraphIndex::build(&typed);
        let mut store = QueryStore::new();
        let alphabet = typed.edge_alphabet();
        let fwd = store.label(&alphabet[0]);
        let inv = store.inv_label(&alphabet[0]);
        let mut cache = EvalCache::new();
        let f = eval_expr(&store, &index, &mut cache, fwd).pairs();
        let i = eval_expr(&store, &index, &mut cache, inv).pairs();
        assert_ne!(f, i, "typed view must make ℓ and ℓ⁻ differ");
        let transposed: BTreeSet<(usize, usize)> = f.iter().map(|&(s, t)| (t, s)).collect();
        assert_eq!(i, transposed);
    }

    #[test]
    fn pooled_cache_shares_work_across_candidates() {
        let typed = typed_graph();
        let session =
            QuerySession::with_config(&typed, QueryClass::Crpq, SessionConfig::new().seed(0));
        let stats = session.cse_stats();
        assert!(
            stats.hits > stats.misses,
            "pool of composites over few atoms must mostly hit: {stats:?}"
        );
        // The pooled answer sets match per-candidate evaluation with fresh caches.
        let index = GraphIndex::build(&typed);
        let mut store = QueryStore::new();
        let pool = enumerate_candidates(&mut store, QueryClass::Crpq, &typed.edge_alphabet());
        let mut shared = EvalCache::new();
        let pooled = evaluate_candidates(&store, &index, &mut shared, &pool);
        let mut fresh_misses = 0;
        for (ix, cand) in pool.iter().enumerate() {
            let mut fresh = EvalCache::new();
            let alone = evaluate_candidates(&store, &index, &mut fresh, std::slice::from_ref(cand));
            assert_eq!(
                alone[0], pooled[ix],
                "candidate {ix} diverges under sharing"
            );
            fresh_misses += fresh.misses();
        }
        assert!(
            shared.misses() < fresh_misses,
            "sharing must evaluate fewer subexpressions ({} vs {fresh_misses})",
            shared.misses()
        );
    }

    #[test]
    fn budget_caps_interactions() {
        let typed = typed_graph();
        let goal = goal_pairs(&typed, QueryClass::Rpq, 1);
        let mut session =
            QuerySession::with_config(&typed, QueryClass::Rpq, SessionConfig::new().budget(2));
        run_to_goal(&mut session, &goal);
        assert!(session.labelled_count() <= 2);
    }

    #[test]
    fn contradictory_labels_empty_the_version_space() {
        let typed = typed_graph();
        let mut session =
            QuerySession::with_config(&typed, QueryClass::Rpq, SessionConfig::new().seed(0));
        let q = session.propose().expect("informative question");
        session.record(q, true);
        session.record(q, false);
        assert_eq!(session.version_space_size(), 0);
        assert_eq!(session.learned_query(), "∅ (inconsistent labels)");
        assert_eq!(session.learned_answer_count(), 0);
        assert!(session.learned_pairs().is_empty());
        assert_eq!(session.propose(), None);
    }
}
