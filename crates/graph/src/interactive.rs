//! Interactive path learning — the paper's geographical use case.
//!
//! "First, the user has to select two vertices from the graph [...] The user may also want to
//! impose certain restrictions on the paths, such as the total distance, the type of road, or an
//! intermediate city on the path. Our algorithms compute what paths the user should be asked to
//! label (as positive or negative example) in order to gather as many information as possible
//! with few interactions. Additionally, the learning framework must be able to use query
//! workload techniques to take advantage of the previously inferred paths."
//!
//! The hypothesis space is a product of three constraint families over the candidate paths
//! between the chosen endpoints:
//!
//! * **road type** — either unconstrained or "all edges have type T" for some road type;
//! * **maximum total distance** — either unbounded or one of the candidate paths' distances;
//! * **via city** — either unconstrained or "the path visits city C".
//!
//! The version space is maintained explicitly. To keep sessions cheap even when the endpoints
//! admit thousands of candidate itineraries, the session precomputes one [`PathFeatures`] record
//! per candidate (total distance, visited cities, the road types shared by every edge) and one
//! acceptance bitset per hypothesis; pruning the version space then only touches the removed
//! rows, and the "is this path still informative?" test is a counter comparison rather than a
//! rescan of the whole hypothesis space. Proposal strategies include a workload prior that asks
//! first about paths similar to queries learned for previous users.
//!
//! A session is driven by alternating [`PathSession::propose`] and [`PathSession::record`].
//! [`interactive_path_learn`] runs that loop against a goal constraint for callers below
//! `qbe-core`; above it, `qbe_core::drive` runs it over the `PathInteractive` adapter.

use crate::model::{GNodeId, PropertyGraph};
use crate::rpq::{simple_paths, Path};
use qbe_bitset::DenseSet;
use qbe_strategy::{
    pick_first_max_by, Candidate, CheapestFirst, PoolView, Random, SessionConfig, Strategy,
};
use std::borrow::Borrow;
use std::collections::BTreeSet;

/// A path-selection hypothesis: a conjunction of optional constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct PathConstraint {
    /// All edges must carry this `type` property value.
    pub road_type: Option<String>,
    /// Total `distance` must not exceed this bound.
    pub max_distance: Option<f64>,
    /// The path must pass through this city.
    pub via: Option<GNodeId>,
}

impl PathConstraint {
    /// The unconstrained hypothesis (accepts every path).
    pub fn any() -> PathConstraint {
        PathConstraint {
            road_type: None,
            max_distance: None,
            via: None,
        }
    }

    /// Whether a path satisfies the constraint.
    pub fn accepts(&self, graph: &PropertyGraph, path: &Path) -> bool {
        self.accepts_features(&PathFeatures::of(graph, path))
    }

    /// Whether a path with the given precomputed features satisfies the constraint.
    pub fn accepts_features(&self, features: &PathFeatures) -> bool {
        if let Some(t) = &self.road_type {
            if !features.uniform_types.contains(t) {
                return false;
            }
        }
        if let Some(d) = self.max_distance {
            if features.distance > d + 1e-9 {
                return false;
            }
        }
        if let Some(via) = self.via {
            if !features.visited.contains(via) {
                return false;
            }
        }
        true
    }

    /// Human-readable description.
    pub fn describe(&self, graph: &PropertyGraph) -> String {
        let mut parts = Vec::new();
        if let Some(t) = &self.road_type {
            parts.push(format!("all edges are {t} roads"));
        }
        if let Some(d) = self.max_distance {
            parts.push(format!("total distance ≤ {d:.0}"));
        }
        if let Some(v) = self.via {
            parts.push(format!("passes through {}", graph.display_name(v)));
        }
        if parts.is_empty() {
            "any path".to_string()
        } else {
            parts.join(" and ")
        }
    }
}

/// Precomputed facts about one candidate path, sufficient to evaluate any [`PathConstraint`]
/// in constant time (up to a bit test).
#[derive(Debug, Clone)]
pub struct PathFeatures {
    /// Total `distance` over the path's edges.
    pub distance: f64,
    /// Every node the path visits (including both endpoints), as a dense bitset over the
    /// graph's node universe — the via test is one bit probe.
    pub visited: DenseSet<GNodeId>,
    /// The road types `t` such that *every* edge of the path has `type = t`.
    pub uniform_types: BTreeSet<String>,
}

impl PathFeatures {
    /// Compute the features of a path.
    pub fn of(graph: &PropertyGraph, path: &Path) -> PathFeatures {
        let distance = path.total_distance(graph);
        let mut visited = DenseSet::new(graph.node_count());
        for &e in &path.edges {
            visited.insert(graph.source(e));
            visited.insert(graph.target(e));
        }
        let mut uniform_types = BTreeSet::new();
        if let Some(&first) = path.edges.first() {
            if let Some(t) = graph.edge_property(first, "type").and_then(|p| p.as_text()) {
                if path
                    .edges
                    .iter()
                    .all(|&e| graph.edge_property(e, "type").and_then(|p| p.as_text()) == Some(t))
                {
                    uniform_types.insert(t.to_string());
                }
            }
        }
        PathFeatures {
            distance,
            visited,
            uniform_types,
        }
    }
}

/// The paper-era path-selection policies, now thin presets over the model-agnostic
/// [`qbe_strategy::Strategy`] API (see [`PathStrategy::strategy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathStrategy {
    /// Random informative path ([`qbe_strategy::Random`]).
    Random,
    /// Shortest informative path first — cheap for the user to inspect
    /// ([`qbe_strategy::CheapestFirst`] over the distance cost channel).
    ShortestFirst,
    /// Version-space halving: the path accepted by about half of the surviving hypotheses.
    Halving,
    /// Workload prior: prefer paths satisfying constraints learned for previous users.
    WorkloadPrior,
}

impl PathStrategy {
    /// The [`Strategy`] implementing this preset (`seed` feeds [`PathStrategy::Random`]).
    pub fn strategy(self, seed: u64) -> Box<dyn Strategy> {
        match self {
            PathStrategy::Random => Box::new(Random::new(seed)),
            PathStrategy::ShortestFirst => Box::new(CheapestFirst),
            PathStrategy::Halving => Box::new(Halving),
            PathStrategy::WorkloadPrior => Box::new(WorkloadPrior),
        }
    }
}

/// The session's flagship policy as a [`Strategy`]: the path whose acceptance count is closest
/// to half the surviving hypotheses (the informativeness channel), earliest such path first —
/// the exact comparator the paper-era inlined loop used, so the regression pins stay
/// byte-identical.
#[derive(Debug, Clone, Copy, Default)]
struct Halving;

impl Strategy for Halving {
    fn name(&self) -> &str {
        "halving"
    }

    fn pick(&mut self, pool: &PoolView<'_>) -> Option<usize> {
        pick_first_max_by(pool.candidates, |c| c.informativeness)
    }
}

/// The workload prior as a [`Strategy`]: among the paths most similar to previously learned
/// constraints (the prior channel), fall back to version-space halving — "ask with priority
/// the next user to label a path having the same property", never costing more questions than
/// plain halving when the workload does not discriminate.
#[derive(Debug, Clone, Copy, Default)]
struct WorkloadPrior;

impl Strategy for WorkloadPrior {
    fn name(&self) -> &str {
        "workload-prior"
    }

    fn pick(&mut self, pool: &PoolView<'_>) -> Option<usize> {
        pick_first_max_by(pool.candidates, |c| (c.prior, c.informativeness))
    }
}

/// Result of an interactive path-learning session.
#[derive(Debug, Clone)]
pub struct PathSessionOutcome {
    /// Constraints still consistent with every label when the session stopped.
    pub version_space: Vec<PathConstraint>,
    /// One representative learned constraint (the most specific surviving one).
    pub learned: PathConstraint,
    /// Paths the user was asked to label.
    pub interactions: usize,
    /// Candidate paths whose label became inferable without asking.
    pub inferred: usize,
    /// The candidate paths the session reasoned about (at most [`MAX_CANDIDATE_PATHS`], the
    /// shortest ones when the endpoints admit more).
    pub candidates: Vec<Path>,
    /// The paths the learned constraint accepts, ready to be exchanged to another data model.
    pub accepted_paths: Vec<Path>,
}

/// Upper bound on the number of candidate paths a session keeps.
///
/// The paper's premise is that "the number of paths might be considerable" and that the user
/// will only ever be shown a few of them; when the endpoints admit more simple paths than this,
/// the session keeps the shortest ones (by total distance), which are the itineraries a real
/// user would be shown first. This also bounds the hypothesis space, whose distance and
/// via dimensions grow with the candidate set.
pub const MAX_CANDIDATE_PATHS: usize = 400;

/// One hypothesis together with its acceptance set over the candidate paths.
///
/// Rows of one `(road type, via)` *family* share their base acceptance bitset behind an `Arc`
/// and differ only in the distance cutoff: candidates are distance-sorted, so a distance bound
/// accepts a prefix. A session materialises one bitset per family instead of one per row
/// (families × distance values of them), which is most of its construction cost.
#[derive(Debug, Clone)]
struct HypothesisRow {
    constraint: PathConstraint,
    /// Family-shared acceptance of (road type, via), ignoring the distance bound.
    base: std::sync::Arc<DenseSet<usize>>,
    /// The row accepts candidate `ix` iff `ix < cutoff` and `base` contains it (`cutoff` is the
    /// candidate count for the unbounded row).
    cutoff: usize,
    /// Number of candidate paths the constraint accepts.
    accepted_count: usize,
}

impl HypothesisRow {
    fn accepts_path(&self, ix: usize) -> bool {
        ix < self.cutoff && self.base.contains(ix)
    }
}

/// Interactive session between two endpoints of a graph.
///
/// Generic over how the graph is owned: existing callers pass `&PropertyGraph` (zero-copy
/// borrows), long-lived registries (the `qbe-server` session registry) pass
/// `Arc<PropertyGraph>` so the session is `'static` and can outlive the scope that created it.
pub struct PathSession<G: Borrow<PropertyGraph>> {
    graph: G,
    candidates: Vec<Path>,
    features: Vec<PathFeatures>,
    rows: Vec<HypothesisRow>,
    /// For each candidate path, how many surviving hypotheses accept it.
    accept_counts: Vec<usize>,
    labelled: Vec<(usize, bool)>,
    /// Candidate paths neither labelled nor yet observed determined — the incremental pool
    /// [`Self::propose`] offers the strategy, maintained by set difference (determination under
    /// a shrinking version space is monotone, so removal is permanent).
    pool: DenseSet<usize>,
    /// The pluggable question-selection policy, consulted once per proposal round.
    strategy: Box<dyn Strategy>,
    /// Question cap, if any: once reached, the session completes.
    budget: Option<usize>,
    workload: Vec<PathConstraint>,
}

impl<G: Borrow<PropertyGraph>> PathSession<G> {
    /// Start a session for paths between `from` and `to` (at most `max_edges` edges per path).
    pub fn new(
        graph: G,
        from: GNodeId,
        to: GNodeId,
        max_edges: usize,
        strategy: PathStrategy,
        seed: u64,
    ) -> PathSession<G> {
        PathSession::with_config(
            graph,
            from,
            to,
            max_edges,
            SessionConfig::new()
                .seed(seed)
                .strategy(strategy.strategy(seed)),
        )
    }

    /// Start a session from a [`SessionConfig`] (strategy, question budget, seed) — the
    /// primary constructor; the [`PathStrategy`]-taking one is a preset over it. The default
    /// strategy is [`PathStrategy::Halving`], the paper's flagship policy.
    pub fn with_config(
        graph: G,
        from: GNodeId,
        to: GNodeId,
        max_edges: usize,
        config: SessionConfig,
    ) -> PathSession<G> {
        let resolved = config.resolve(|seed| PathStrategy::Halving.strategy(seed));
        let g = graph.borrow();
        // Candidates are kept sorted by total distance: the distance dimension of the hypothesis
        // space then accepts a *prefix* of the candidate list, which makes building the
        // acceptance bitsets linear in the number of hypotheses rather than quadratic.
        let mut candidates = simple_paths(g, from, to, max_edges);
        candidates.sort_by(|a, b| {
            a.total_distance(g)
                .partial_cmp(&b.total_distance(g))
                .expect("distances are finite")
        });
        candidates.truncate(MAX_CANDIDATE_PATHS);
        let features: Vec<PathFeatures> =
            candidates.iter().map(|p| PathFeatures::of(g, p)).collect();
        let n = candidates.len();

        // Hypothesis dimensions.
        let mut road_types: Vec<Option<String>> = vec![None];
        road_types.extend(crate::geo::ROAD_TYPES.iter().map(|t| Some(t.to_string())));
        let mut distance_values: Vec<f64> = features.iter().map(|f| f.distance).collect();
        distance_values.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        let mut vias: BTreeSet<Option<GNodeId>> = BTreeSet::from([None]);
        for f in &features {
            for node in f.visited.iter() {
                vias.insert(Some(node));
            }
        }

        // How many distance rows of one (road type, via) family accept candidate `ix`: one per
        // distance value covering the candidate's own distance. Computing this once per
        // candidate turns the accept-count accumulation from a per-row-per-bit sweep into a
        // per-family pass over the base bitset plus this lookup.
        let covering_distances: Vec<usize> = features
            .iter()
            .map(|f| {
                distance_values.len() - distance_values.partition_point(|&d| d + 1e-9 < f.distance)
            })
            .collect();

        // One acceptance mask per road-type hypothesis, decided by the same `uniform_types`
        // test as `PathConstraint::accepts_features`; every via family of a road type reuses
        // its mask.
        let rt_masks: Vec<DenseSet<usize>> = road_types
            .iter()
            .map(|rt| match rt {
                None => DenseSet::full(n),
                Some(t) => {
                    let mut mask: DenseSet<usize> = DenseSet::new(n);
                    for (ix, f) in features.iter().enumerate() {
                        if f.uniform_types.contains(t) {
                            mask.insert(ix);
                        }
                    }
                    mask
                }
            })
            .collect();
        let via_masks: Vec<DenseSet<usize>> = vias
            .iter()
            .map(|via| match via {
                None => DenseSet::full(n),
                Some(v) => {
                    let mut mask: DenseSet<usize> = DenseSet::new(n);
                    for (ix, f) in features.iter().enumerate() {
                        if f.visited.contains(*v) {
                            mask.insert(ix);
                        }
                    }
                    mask
                }
            })
            .collect();

        let mut rows = Vec::new();
        let mut accept_counts = vec![0usize; n];
        for (rt, rt_mask) in road_types.iter().zip(&rt_masks) {
            for (via, via_mask) in vias.iter().zip(&via_masks) {
                // Base acceptance of (rt, via) ignoring the distance bound — shared by every
                // row of the family behind one `Arc`.
                let mut base = rt_mask.clone();
                base.and_with(via_mask);
                // Every row of this family accepts a subset of `base`: the unbounded row all of
                // it, each distance row a prefix of it. Tally the family's contribution to the
                // per-candidate acceptance counters in one pass over `base`, and keep the
                // accepted positions around to size each prefix row by binary search.
                let positions: Vec<usize> = base.iter().collect();
                for &ix in &positions {
                    accept_counts[ix] += 1 + covering_distances[ix];
                }
                let base = std::sync::Arc::new(base);
                rows.push(HypothesisRow {
                    constraint: PathConstraint {
                        road_type: rt.clone(),
                        max_distance: None,
                        via: *via,
                    },
                    base: base.clone(),
                    cutoff: n,
                    accepted_count: positions.len(),
                });
                for &d in &distance_values {
                    // Number of candidates whose distance is ≤ d (they form a prefix).
                    let len = features.partition_point(|f| f.distance <= d + 1e-9);
                    rows.push(HypothesisRow {
                        constraint: PathConstraint {
                            road_type: rt.clone(),
                            max_distance: Some(d),
                            via: *via,
                        },
                        base: base.clone(),
                        cutoff: len,
                        accepted_count: positions.partition_point(|&p| p < len),
                    });
                }
            }
        }
        PathSession {
            graph,
            candidates,
            features,
            rows,
            accept_counts,
            labelled: Vec::new(),
            pool: DenseSet::full(n),
            strategy: resolved.strategy,
            budget: resolved.budget,
            workload: Vec::new(),
        }
    }

    /// The name of the session's question-selection strategy.
    pub fn strategy_name(&self) -> &str {
        self.strategy.name()
    }

    /// The graph the session ranges over.
    pub fn graph(&self) -> &PropertyGraph {
        self.graph.borrow()
    }

    /// One candidate path by index.
    pub fn path(&self, ix: usize) -> &Path {
        &self.candidates[ix]
    }

    /// The precomputed features of one candidate path.
    pub fn features(&self, ix: usize) -> &PathFeatures {
        &self.features[ix]
    }

    /// Number of paths the user has labelled so far.
    pub fn labelled_count(&self) -> usize {
        self.labelled.len()
    }

    /// The most specific hypothesis still consistent with every label (the constraint
    /// accepting the fewest candidate paths; the unconstrained hypothesis when the version
    /// space is empty).
    pub fn most_specific(&self) -> PathConstraint {
        self.rows
            .iter()
            .min_by_key(|row| row.accepted_count)
            .map(|row| row.constraint.clone())
            .unwrap_or_else(PathConstraint::any)
    }

    /// Number of candidate paths the most specific surviving hypothesis accepts — the answer
    /// set the learned query would return to the user right now.
    pub fn accepted_count(&self) -> usize {
        self.rows
            .iter()
            .map(|row| row.accepted_count)
            .min()
            .unwrap_or(self.candidates.len())
    }

    /// Number of candidate paths.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Number of hypotheses still consistent with every label.
    pub fn version_space_size(&self) -> usize {
        self.rows.len()
    }

    /// Paths whose label is not yet determined by the version space.
    pub fn informative_paths(&self) -> Vec<usize> {
        let total = self.rows.len();
        (0..self.candidates.len())
            .filter(|&ix| {
                if self.labelled.iter().any(|(l, _)| *l == ix) {
                    return false;
                }
                let accepted = self.accept_counts[ix];
                accepted != 0 && accepted != total
            })
            .collect()
    }

    /// Record a user label and prune the version space.
    pub fn record(&mut self, path_ix: usize, positive: bool) {
        self.labelled.push((path_ix, positive));
        self.pool.remove(path_ix);
        let mut kept = Vec::with_capacity(self.rows.len());
        // Dropped rows are aggregated per family (rows sharing one base behind an `Arc` are
        // contiguous): a candidate loses one vote per dropped cutoff above it, so the votes of
        // a whole family's dropped rows are forgotten in one two-pointer pass over its base
        // instead of one bit walk per row.
        let mut dropped: Vec<(std::sync::Arc<DenseSet<usize>>, Vec<usize>)> = Vec::new();
        for row in self.rows.drain(..) {
            if row.accepts_path(path_ix) == positive {
                kept.push(row);
            } else {
                match dropped.last_mut() {
                    Some((base, cutoffs)) if std::sync::Arc::ptr_eq(base, &row.base) => {
                        cutoffs.push(row.cutoff)
                    }
                    _ => dropped.push((row.base.clone(), vec![row.cutoff])),
                }
            }
        }
        for (base, mut cutoffs) in dropped {
            cutoffs.sort_unstable();
            let mut below = 0usize;
            for ix in base.iter() {
                while below < cutoffs.len() && cutoffs[below] <= ix {
                    below += 1;
                }
                if below == cutoffs.len() {
                    break; // no dropped row reaches past this candidate
                }
                self.accept_counts[ix] -= cutoffs.len() - below;
            }
        }
        self.rows = kept;
    }

    /// One [`Candidate`] feature row per informative path, aligned with `informative` (which
    /// is in ascending-distance order — the model's paper order):
    ///
    /// * `informativeness` — the version-space-halving score (closer to half the surviving
    ///   hypotheses is better), exactly the paper-era comparator;
    /// * `cost` — total itinerary distance (short paths are cheap for the user to inspect);
    /// * `coverage` — the smaller side of the version-space split: the number of hypotheses
    ///   pruned whichever way the user answers;
    /// * `prior` — how many workload constraints from previous users accept the path.
    fn candidate_features(&self, informative: &[usize]) -> Vec<Candidate> {
        let half = self.rows.len() / 2;
        let total = self.rows.len();
        informative
            .iter()
            .map(|&ix| {
                let accepted = self.accept_counts[ix];
                let prior = self
                    .workload
                    .iter()
                    .filter(|h| h.accepts_features(&self.features[ix]))
                    .count();
                Candidate {
                    informativeness: -(accepted.abs_diff(half) as f64),
                    cost: self.features[ix].distance,
                    coverage: accepted.min(total - accepted) as f64,
                    specificity: 0.0,
                    prior: prior as f64,
                }
            })
            .collect()
    }

    /// Propose the next informative path to show the user, or `None` when every candidate's
    /// label is determined by the version space (or the question budget is spent). Callers
    /// alternate `propose` with [`Self::record`].
    pub fn propose(&mut self) -> Option<usize> {
        if self.budget.is_some_and(|cap| self.labelled.len() >= cap) {
            return None;
        }
        // Walk the incremental pool (ascending index — the spec's scan order) and drop the
        // paths whose label the shrunk version space now determines. Determination is monotone
        // (hypotheses only leave the version space), so removal is permanent and the pool is
        // maintained purely by set difference.
        let total = self.rows.len();
        let mut informative: Vec<usize> = Vec::new();
        let mut determined: Vec<usize> = Vec::new();
        for ix in self.pool.iter() {
            let accepted = self.accept_counts[ix];
            if accepted == 0 || accepted == total {
                determined.push(ix);
            } else {
                informative.push(ix);
            }
        }
        for ix in determined {
            self.pool.remove(ix);
        }
        let candidates = self.candidate_features(&informative);
        let view = PoolView {
            asked: self.labelled.len(),
            candidates: &candidates,
        };
        let pick = self.strategy.pick(&view)?;
        informative.get(pick).copied()
    }

    /// The incremental candidate pool: what [`Self::propose`] currently offers the strategy,
    /// i.e. [`Self::informative_paths`] plus any paths whose determination the lazy pool
    /// maintenance has not observed yet (it prunes during `propose`). Exposed so the
    /// differential suites can pin the incremental pool against the from-scratch specification
    /// round by round.
    pub fn informative_pool(&self) -> Vec<usize> {
        self.pool.iter().collect()
    }
}

/// Run one user's session against a goal constraint: alternate [`PathSession::propose`] and
/// [`PathSession::record`], labelling each path by `goal`, until no informative path remains.
pub fn interactive_path_learn(
    graph: &PropertyGraph,
    from: GNodeId,
    to: GNodeId,
    goal: &PathConstraint,
    strategy: PathStrategy,
    workload: Vec<PathConstraint>,
    seed: u64,
) -> PathSessionOutcome {
    let mut session = PathSession::new(graph, from, to, 8, strategy, seed);
    session.workload = workload;
    while let Some(ix) = session.propose() {
        let label = goal.accepts_features(&session.features[ix]);
        session.record(ix, label);
    }
    // The most specific surviving hypothesis: the one accepting the fewest candidate paths.
    let learned = session.most_specific();
    let accepted_paths: Vec<Path> = session
        .candidates
        .iter()
        .zip(&session.features)
        .filter(|(_, f)| learned.accepts_features(f))
        .map(|(p, _)| p.clone())
        .collect();
    let interactions = session.labelled.len();
    PathSessionOutcome {
        version_space: session.rows.into_iter().map(|r| r.constraint).collect(),
        learned,
        interactions,
        inferred: session.candidates.len().saturating_sub(interactions),
        candidates: session.candidates,
        accepted_paths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::{generate_geo_graph, GeoConfig};

    fn setup() -> (PropertyGraph, GNodeId, GNodeId) {
        let g = generate_geo_graph(&GeoConfig {
            cities: 14,
            connectivity: 3,
            ..Default::default()
        });
        let from = g.find_node_by_property("name", "city0").unwrap();
        let to = g.find_node_by_property("name", "city6").unwrap();
        (g, from, to)
    }

    fn highway_goal() -> PathConstraint {
        PathConstraint {
            road_type: Some("highway".to_string()),
            max_distance: None,
            via: None,
        }
    }

    #[test]
    fn constraints_filter_paths() {
        let (g, from, to) = setup();
        let paths = simple_paths(&g, from, to, 6);
        assert!(!paths.is_empty());
        let any = PathConstraint::any();
        assert_eq!(
            paths.iter().filter(|p| any.accepts(&g, p)).count(),
            paths.len()
        );
        let highway = highway_goal();
        let highway_count = paths.iter().filter(|p| highway.accepts(&g, p)).count();
        assert!(highway_count < paths.len());
    }

    #[test]
    fn features_agree_with_direct_evaluation() {
        let (g, from, to) = setup();
        let goal = highway_goal();
        for p in simple_paths(&g, from, to, 6) {
            let f = PathFeatures::of(&g, &p);
            assert_eq!(goal.accepts(&g, &p), goal.accepts_features(&f));
            assert!((f.distance - p.total_distance(&g)).abs() < 1e-9);
        }
    }

    #[test]
    fn session_terminates_and_labels_are_consistent_with_goal() {
        let (g, from, to) = setup();
        for strategy in [
            PathStrategy::Random,
            PathStrategy::ShortestFirst,
            PathStrategy::Halving,
            PathStrategy::WorkloadPrior,
        ] {
            let outcome =
                interactive_path_learn(&g, from, to, &highway_goal(), strategy, vec![], 5);
            assert!(outcome.interactions <= outcome.interactions + outcome.inferred);
            // The learned constraint classifies every candidate path exactly as the goal does.
            for p in &outcome.candidates {
                assert_eq!(
                    outcome.learned.accepts(&g, p),
                    highway_goal().accepts(&g, p),
                    "strategy {strategy:?} misclassifies a path"
                );
            }
        }
    }

    #[test]
    fn pruning_reduces_interactions_below_candidate_count() {
        let (g, from, to) = setup();
        let outcome = interactive_path_learn(
            &g,
            from,
            to,
            &highway_goal(),
            PathStrategy::Halving,
            vec![],
            1,
        );
        assert!(
            outcome.interactions < outcome.interactions + outcome.inferred,
            "expected at least one inferred label"
        );
    }

    #[test]
    fn workload_prior_prioritises_previous_constraints() {
        let (g, from, to) = setup();
        let workload = vec![highway_goal()];
        let with_prior = interactive_path_learn(
            &g,
            from,
            to,
            &highway_goal(),
            PathStrategy::WorkloadPrior,
            workload,
            3,
        );
        // The prior-guided session still learns the correct constraint.
        for p in &with_prior.candidates {
            assert_eq!(
                with_prior.learned.accepts(&g, p),
                highway_goal().accepts(&g, p)
            );
        }
    }

    #[test]
    fn distance_bounded_goal_is_learned() {
        let (g, from, to) = setup();
        let probe = interactive_path_learn(
            &g,
            from,
            to,
            &PathConstraint::any(),
            PathStrategy::ShortestFirst,
            vec![],
            9,
        );
        let median = {
            let mut d: Vec<f64> = probe
                .candidates
                .iter()
                .map(|p| p.total_distance(&g))
                .collect();
            d.sort_by(|a, b| a.partial_cmp(b).unwrap());
            d[d.len() / 2]
        };
        let goal = PathConstraint {
            road_type: None,
            max_distance: Some(median),
            via: None,
        };
        let outcome = interactive_path_learn(&g, from, to, &goal, PathStrategy::Halving, vec![], 9);
        for p in &outcome.candidates {
            assert_eq!(outcome.learned.accepts(&g, p), goal.accepts(&g, p));
        }
    }

    #[test]
    fn accepted_paths_are_ready_for_exchange() {
        let (g, from, to) = setup();
        let outcome = interactive_path_learn(
            &g,
            from,
            to,
            &PathConstraint::any(),
            PathStrategy::ShortestFirst,
            vec![],
            2,
        );
        assert_eq!(outcome.accepted_paths.len(), outcome.candidates.len());
        assert!(!outcome.accepted_paths.is_empty());
        for p in &outcome.accepted_paths {
            assert_eq!(p.endpoints(&g).map(|(s, _)| s), Some(from));
        }
    }

    #[test]
    fn version_space_shrinks_with_each_label() {
        let (g, from, to) = setup();
        let mut session = PathSession::new(&g, from, to, 6, PathStrategy::Halving, 0);
        let before = session.version_space_size();
        let informative = session.informative_paths();
        if let Some(&ix) = informative.first() {
            session.record(ix, true);
            assert!(session.version_space_size() < before);
        }
    }

    #[test]
    fn rows_match_per_candidate_evaluation_each_round() {
        // The rows share family bases built from per-road-type masks and accept distance
        // prefixes of them; pin them — round by round, as the version space shrinks — against
        // direct per-candidate constraint evaluation (the executable spec).
        let (g, from, to) = setup();
        let mut session = PathSession::new(&g, from, to, 6, PathStrategy::Halving, 0);
        let goal = highway_goal();
        let mut rounds = 0;
        loop {
            for row in &session.rows {
                for ix in 0..session.candidates.len() {
                    assert_eq!(
                        row.accepts_path(ix),
                        row.constraint.accepts_features(&session.features[ix]),
                        "round {rounds}: row {:?} diverges on candidate {ix}",
                        row.constraint
                    );
                }
            }
            let Some(ix) = session.propose() else { break };
            let label = goal.accepts(&g, &session.candidates[ix]);
            session.record(ix, label);
            rounds += 1;
        }
        assert!(rounds > 0, "the session must ask at least one question");
    }

    #[test]
    fn describe_is_human_readable() {
        let (g, _, _) = setup();
        let c = PathConstraint {
            road_type: Some("highway".into()),
            max_distance: Some(300.0),
            via: Some(g.find_node_by_property("name", "city3").unwrap()),
        };
        let text = c.describe(&g);
        assert!(text.contains("highway") && text.contains("300") && text.contains("city3"));
        assert_eq!(PathConstraint::any().describe(&g), "any path");
    }
}
