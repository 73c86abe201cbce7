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
//! bisects the version space exactly as path labels do in [`crate::interactive`].
//!
//! Every candidate lowers to the hash-consed IR and evaluates through **one shared
//! [`EvalCache`]**: structurally equal subqueries across the whole pool are evaluated once
//! (cross-candidate common-subexpression elimination). The differential suite pins the pooled
//! answer sets against per-candidate evaluation with fresh caches, and the benchmark's
//! `qbe-algebra.cache_hit_frac` reports the sharing on served sessions (`perfbench/README.md`).
//!
//! A session holds each fact once. The question universe is one sorted list of pairs, and a
//! pair's question id is its position in that list. Each hypothesis keeps its answer set only
//! as a bitset over those ids: the learned query's size is a popcount, and its pairs are
//! rebuilt from the bitset when [`QuerySession::learned_pairs`] asks for them. The session is
//! driven by the same propose/record loop as every other learner ([`QuerySession::propose`],
//! [`QuerySession::record`]).

use crate::index::GraphIndex;
use crate::interactive::PathStrategy;
use crate::model::{GNodeId, PropertyGraph};
use qbe_algebra::{eval_conj, eval_expr, ConjQuery, EvalCache, ExprId, PathAtom, QueryStore, Term};
use qbe_bitset::DenseSet;
use qbe_strategy::{Candidate, PoolView, SessionConfig, Strategy};
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

/// One deduplicated hypothesis: a candidate query with its answer set over the question
/// universe.
#[derive(Debug, Clone)]
struct Hypothesis {
    query: CandidateQuery,
    /// The answer set, as a bitset over question ids.
    accepts: DenseSet<usize>,
}

/// Interactive session learning one query of a [`QueryClass`] over a typed graph.
///
/// Generic over graph ownership exactly like [`crate::interactive::PathSession`]: borrow for
/// in-process callers, `Arc` for the server registry.
pub struct QuerySession<G: Borrow<PropertyGraph>> {
    graph: G,
    store: QueryStore,
    hypotheses: Vec<Hypothesis>,
    alive: DenseSet<usize>,
    /// The question universe: every pair some candidate selects, in ascending order. A
    /// question's id is its position here.
    questions: Vec<(GNodeId, GNodeId)>,
    /// For each question, how many *alive* hypotheses select it.
    accept_counts: Vec<usize>,
    /// Questions neither asked nor determined (maintained like `PathSession::pool`).
    pool: DenseSet<usize>,
    /// Answers recorded so far.
    labelled: usize,
    strategy: Box<dyn Strategy>,
    budget: Option<usize>,
    stats: CseStats,
}

impl<G: Borrow<PropertyGraph>> QuerySession<G> {
    /// Start a session over a typed graph (see [`crate::lower::typed_road_view`]) with the
    /// default halving strategy.
    pub fn new(graph: G, class: QueryClass, seed: u64) -> QuerySession<G> {
        QuerySession::with_config(graph, class, SessionConfig::new().seed(seed))
    }

    /// Start a session from a [`SessionConfig`] (strategy, question budget, seed). The default
    /// strategy is the path model's [`PathStrategy::Halving`], here over pair questions.
    pub fn with_config(graph: G, class: QueryClass, config: SessionConfig) -> QuerySession<G> {
        let resolved = config.resolve(|seed| PathStrategy::Halving.strategy(seed));
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

        let mut hypotheses = Vec::with_capacity(kept.len());
        let mut accept_counts = vec![0usize; questions.len()];
        for &ix in &kept {
            let mut accepts = DenseSet::new(questions.len());
            for &(s, t) in &answers[ix] {
                let q = questions
                    .binary_search(&(GNodeId(s as u32), GNodeId(t as u32)))
                    .expect("every answer pair is a question");
                accepts.insert(q);
                accept_counts[q] += 1;
            }
            hypotheses.push(Hypothesis {
                query: pool[ix].clone(),
                accepts,
            });
        }
        let alive = DenseSet::full(hypotheses.len());
        let pool = DenseSet::full(questions.len());
        QuerySession {
            graph,
            store,
            hypotheses,
            alive,
            questions,
            accept_counts,
            pool,
            labelled: 0,
            strategy: resolved.strategy,
            budget: resolved.budget,
            stats,
        }
    }

    /// The graph the session ranges over.
    pub fn graph(&self) -> &PropertyGraph {
        self.graph.borrow()
    }

    /// The name of the session's question-selection strategy.
    pub fn strategy_name(&self) -> &str {
        self.strategy.name()
    }

    /// Shared-cache statistics of the candidate-pool evaluation.
    pub fn cse_stats(&self) -> CseStats {
        self.stats
    }

    /// Number of (semantically distinct) candidate queries.
    pub fn candidate_count(&self) -> usize {
        self.hypotheses.len()
    }

    /// Number of candidates still consistent with every label.
    pub fn version_space_size(&self) -> usize {
        self.alive.len()
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
        self.labelled
    }

    /// The most specific surviving candidate: smallest answer set, then smallest query.
    /// `None` when the version space is empty (contradictory labels).
    fn most_specific(&self) -> Option<&Hypothesis> {
        self.alive
            .iter()
            .map(|ix| &self.hypotheses[ix])
            .min_by_key(|h| (h.accepts.len(), h.query.size(&self.store)))
    }

    /// The learned query rendered: the most specific candidate consistent with every label.
    pub fn learned_query(&self) -> String {
        match self.most_specific() {
            Some(h) => h.query.render(&self.store),
            None => "∅ (inconsistent labels)".to_string(),
        }
    }

    /// The size of the learned query's answer set (0 when the labels are inconsistent).
    pub fn learned_answer_count(&self) -> usize {
        self.most_specific().map_or(0, |h| h.accepts.len())
    }

    /// The learned query's answer set, built from its bitset on request.
    pub fn learned_pairs(&self) -> BTreeSet<(GNodeId, GNodeId)> {
        self.most_specific()
            .map(|h| h.accepts.iter().map(|q| self.questions[q]).collect())
            .unwrap_or_default()
    }

    /// Record a user label and prune the version space.
    pub fn record(&mut self, question_ix: usize, positive: bool) {
        self.labelled += 1;
        self.pool.remove(question_ix);
        let dead: Vec<usize> = self
            .alive
            .iter()
            .filter(|&ix| self.hypotheses[ix].accepts.contains(question_ix) != positive)
            .collect();
        for ix in dead {
            self.alive.remove(ix);
            for q in self.hypotheses[ix].accepts.iter() {
                self.accept_counts[q] -= 1;
            }
        }
    }

    /// Propose the next informative pair to ask about, or `None` when every pair's label is
    /// determined by the version space (or the budget is spent).
    pub fn propose(&mut self) -> Option<usize> {
        if self.budget.is_some_and(|cap| self.labelled >= cap) {
            return None;
        }
        let total = self.alive.len();
        let mut informative: Vec<usize> = Vec::new();
        let mut determined: Vec<usize> = Vec::new();
        for q in self.pool.iter() {
            let accepted = self.accept_counts[q];
            if accepted == 0 || accepted == total {
                determined.push(q);
            } else {
                informative.push(q);
            }
        }
        for q in determined {
            self.pool.remove(q);
        }
        let half = total / 2;
        let candidates: Vec<Candidate> = informative
            .iter()
            .map(|&q| {
                let accepted = self.accept_counts[q];
                Candidate {
                    informativeness: -(accepted.abs_diff(half) as f64),
                    cost: q as f64,
                    coverage: accepted.min(total - accepted) as f64,
                    specificity: 0.0,
                    prior: 0.0,
                }
            })
            .collect();
        let view = PoolView {
            asked: self.labelled,
            candidates: &candidates,
        };
        let pick = self.strategy.pick(&view)?;
        informative.get(pick).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::{generate_geo_graph, GeoConfig};
    use crate::lower::typed_road_view;

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
                let mut session = QuerySession::new(&typed, class, 3);
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

    #[test]
    fn questions_ascend_and_each_bitset_is_its_candidates_answer_set() {
        let typed = typed_graph();
        let index = GraphIndex::build(&typed);
        for class in QueryClass::ALL {
            let session = QuerySession::new(&typed, class, 0);
            assert!(
                session.questions.windows(2).all(|w| w[0] < w[1]),
                "question ids follow the pairs' ascending order, without repeats"
            );
            let queries: Vec<CandidateQuery> =
                session.hypotheses.iter().map(|h| h.query.clone()).collect();
            let answers =
                evaluate_candidates(&session.store, &index, &mut EvalCache::new(), &queries);
            for (h, answer) in session.hypotheses.iter().zip(&answers) {
                let from_bits: BTreeSet<(usize, usize)> = h
                    .accepts
                    .iter()
                    .map(|q| session.questions[q])
                    .map(|(s, t)| (s.0 as usize, t.0 as usize))
                    .collect();
                assert_eq!(&from_bits, answer, "{}", h.query.render(&session.store));
            }
            // Every question is some candidate's answer, and counted once per acceptor.
            for (q, &count) in session.accept_counts.iter().enumerate() {
                let acceptors = session.hypotheses.iter().filter(|h| h.accepts.contains(q));
                assert!(count > 0 && count == acceptors.count(), "question {q}");
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
        let session = QuerySession::new(&typed, QueryClass::Crpq, 0);
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
        let mut session = QuerySession::new(&typed, QueryClass::Rpq, 0);
        let q = session.propose().expect("informative question");
        session.record(q, true);
        // Claim the opposite for the same pair via a fresh question index is impossible —
        // instead kill everything by labelling every remaining question negative AND the
        // first positive pair's supersets inconsistently: simplest check is that record
        // keeps counters consistent as the space shrinks to (at least) one candidate.
        while let Some(next) = session.propose() {
            session.record(next, false);
        }
        let learned = session.learned_query();
        assert!(!learned.is_empty());
        assert!(session.version_space_size() >= 1 || learned.contains("inconsistent"));
    }
}
