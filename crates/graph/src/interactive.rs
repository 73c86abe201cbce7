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
//! The version space is maintained explicitly. The session precomputes one [`PathFeatures`]
//! record per candidate (total distance, visited cities, the road types shared by every edge),
//! numbers the hypotheses `h = (t·|vias| + v)·(|distances| + 1) + k` (road type `t`, via `v`,
//! distance bound `k`, each `0` when unconstrained), and gives each candidate one bitset of the
//! hypotheses that accept it. The version space is a bitset of the hypotheses that agree with
//! every label, so a label is one `AND` (or `AND NOT`) of it with the path's acceptors, and "is
//! this path still informative?" is one popcount. Graph query sessions
//! ([`crate::qsession::QuerySession`]) answer through the same engine. Proposal strategies
//! include a workload prior that asks first about paths similar to queries learned for previous
//! users.
//!
//! A session is driven by alternating [`PathSession::propose`] and [`PathSession::record`].
//! [`interactive_path_learn`] runs that loop against a goal constraint for callers below
//! `qbe-core`; above it, `qbe_core::drive` runs it over the `PathInteractive` adapter.

use crate::geo::ROAD_TYPES;
use crate::model::{GNodeId, PropertyGraph};
use crate::rpq::{simple_paths, Path};
use crate::space::VersionSpace;
use qbe_bitset::DenseSet;
use qbe_strategy::{pick_first_max_by, CheapestFirst, PoolView, Random, SessionConfig, Strategy};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::iter::once;

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

/// The hypothesis dimensions beyond road type: the via cities (unconstrained first, then every
/// city some candidate visits, ascending) and the distance bounds (the candidates' distances,
/// ascending, near-equal ones once).
fn dimensions(features: &[PathFeatures]) -> (Vec<Option<GNodeId>>, Vec<f64>) {
    let mut vias: BTreeSet<Option<GNodeId>> = BTreeSet::from([None]);
    for f in features {
        vias.extend(f.visited.iter().map(Some));
    }
    let mut distances: Vec<f64> = features.iter().map(|f| f.distance).collect();
    distances.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    (vias.into_iter().collect(), distances)
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
    /// The via and distance dimensions of the hypothesis numbering (see the module docs).
    vias: Vec<Option<GNodeId>>,
    distances: Vec<f64>,
    /// Per hypothesis, how many candidate paths it accepts.
    accepted: Vec<usize>,
    labelled: Vec<(usize, bool)>,
    /// The version space, with one class per candidate path: the hypotheses that accept it.
    space: VersionSpace,
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
        let g = graph.borrow();
        // Candidates are kept sorted by total distance, so the distance bounds covering a
        // candidate are a suffix of the ascending bounds.
        let mut candidates = simple_paths(g, from, to, max_edges);
        candidates.sort_by(|a, b| {
            a.total_distance(g)
                .partial_cmp(&b.total_distance(g))
                .expect("distances are finite")
        });
        candidates.truncate(MAX_CANDIDATE_PATHS);
        let features: Vec<PathFeatures> =
            candidates.iter().map(|p| PathFeatures::of(g, p)).collect();
        let (vias, distances) = dimensions(&features);
        let bounds = distances.len() + 1;
        let hypotheses = (ROAD_TYPES.len() + 1) * vias.len() * bounds;

        // A candidate's acceptors, by the tests of `PathConstraint::accepts_features`: in every
        // (road type, via) family whose road type and via accept it, the unbounded hypothesis
        // and those bounded at or above its distance.
        let acceptors: Vec<DenseSet<usize>> = features
            .iter()
            .map(|f| {
                let mut set = DenseSet::new(hypotheses);
                let covering = distances.partition_point(|&d| d + 1e-9 < f.distance) + 1;
                for (t, road_type) in once(None).chain(ROAD_TYPES.map(Some)).enumerate() {
                    if road_type.is_some_and(|rt| !f.uniform_types.contains(rt)) {
                        continue;
                    }
                    for (v, via) in vias.iter().enumerate() {
                        if via.is_some_and(|node| !f.visited.contains(node)) {
                            continue;
                        }
                        let family = (t * vias.len() + v) * bounds;
                        for k in once(0).chain(covering..bounds) {
                            set.insert(family + k);
                        }
                    }
                }
                set
            })
            .collect();
        let mut accepted = vec![0; hypotheses];
        for h in acceptors.iter().flat_map(DenseSet::iter) {
            accepted[h] += 1;
        }
        let class_of = (0..acceptors.len() as u32).collect();
        PathSession {
            graph,
            candidates,
            features,
            vias,
            distances,
            accepted,
            labelled: Vec::new(),
            space: VersionSpace::new(hypotheses, class_of, acceptors, config),
            workload: Vec::new(),
        }
    }

    /// Hypothesis `h` as a constraint (the numbering is in the module docs).
    fn constraint(&self, h: usize) -> PathConstraint {
        let bounds = self.distances.len() + 1;
        let (family, k) = (h / bounds, h % bounds);
        let (t, v) = (family / self.vias.len(), family % self.vias.len());
        PathConstraint {
            road_type: t.checked_sub(1).map(|t| ROAD_TYPES[t].to_string()),
            max_distance: k.checked_sub(1).map(|k| self.distances[k]),
            via: self.vias[v],
        }
    }

    /// The name of the session's question-selection strategy.
    pub fn strategy_name(&self) -> &str {
        self.space.strategy_name()
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

    /// The id of the surviving hypothesis that accepts the fewest candidate paths (the first on
    /// ties), or `None` when the version space is empty.
    fn most_specific_id(&self) -> Option<usize> {
        self.space.alive().iter().min_by_key(|&h| self.accepted[h])
    }

    /// The most specific hypothesis still consistent with every label (the constraint
    /// accepting the fewest candidate paths; the unconstrained hypothesis when the version
    /// space is empty).
    pub fn most_specific(&self) -> PathConstraint {
        self.most_specific_id()
            .map_or_else(PathConstraint::any, |h| self.constraint(h))
    }

    /// Number of candidate paths the most specific surviving hypothesis accepts — the answer
    /// set the learned query would return to the user right now.
    pub fn accepted_count(&self) -> usize {
        self.most_specific_id()
            .map_or(self.candidates.len(), |h| self.accepted[h])
    }

    /// Number of candidate paths.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Number of hypotheses still consistent with every label.
    pub fn version_space_size(&self) -> usize {
        self.space.alive().len()
    }

    /// Paths whose label is not yet determined, recomputed from the recorded labels alone: the
    /// unlabelled paths that some (road type, via, bound) constraint agreeing with every label
    /// accepts and another rejects. It shares no state with the version space, so the
    /// differential suites pin [`Self::informative_pool`] against it.
    pub fn informative_paths(&self) -> Vec<usize> {
        let (vias, distances) = dimensions(&self.features);
        let road_types = once(None).chain(ROAD_TYPES.map(Some));
        let bounds = once(None).chain(distances.into_iter().map(Some));
        let consistent: Vec<PathConstraint> = road_types
            .flat_map(|t| vias.iter().map(move |&via| (t, via)))
            .flat_map(|(t, via)| {
                bounds.clone().map(move |max_distance| PathConstraint {
                    road_type: t.map(str::to_string),
                    max_distance,
                    via,
                })
            })
            .filter(|c| {
                self.labelled
                    .iter()
                    .all(|&(ix, label)| c.accepts_features(&self.features[ix]) == label)
            })
            .collect();
        (0..self.candidates.len())
            .filter(|ix| self.labelled.iter().all(|(labelled, _)| labelled != ix))
            .filter(|&ix| {
                let accepts = |c: &PathConstraint| c.accepts_features(&self.features[ix]);
                consistent.iter().any(accepts) && !consistent.iter().all(accepts)
            })
            .collect()
    }

    /// Record a user label and prune the version space.
    pub fn record(&mut self, path_ix: usize, positive: bool) {
        self.labelled.push((path_ix, positive));
        self.space.record(path_ix, positive);
    }

    /// Propose the next informative path to show the user, or `None` when every candidate's
    /// label is determined by the version space (or the question budget is spent). Callers
    /// alternate `propose` with [`Self::record`]. The strategy sees one row per informative
    /// path, in ascending-distance order (the model's paper order): the version-space halving
    /// score and split as `informativeness` and `coverage`, the itinerary distance as `cost`
    /// (short paths are cheap for the user to inspect), and as `prior` how many workload
    /// constraints from previous users accept the path.
    pub fn propose(&mut self) -> Option<usize> {
        let (features, workload) = (&self.features, &self.workload);
        self.space.propose(|ix| {
            let prior = workload
                .iter()
                .filter(|h| h.accepts_features(&features[ix]))
                .count();
            (features[ix].distance, prior as f64)
        })
    }

    /// The incremental candidate pool: what [`Self::propose`] currently offers the strategy,
    /// i.e. [`Self::informative_paths`] plus any paths whose determination the lazy pool
    /// maintenance has not observed yet (it prunes during `propose`). Exposed so the
    /// differential suites can pin the incremental pool against the from-scratch specification
    /// round by round.
    pub fn informative_pool(&self) -> Vec<usize> {
        self.space.pool().iter().collect()
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
        version_space: session
            .space
            .alive()
            .iter()
            .map(|h| session.constraint(h))
            .collect(),
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
        // Pin every alive hypothesis's acceptor bits and accepted count — round by round, as
        // the version space shrinks — against direct evaluation of its decoded constraint on
        // every candidate (the executable spec).
        let (g, from, to) = setup();
        let mut session = PathSession::new(&g, from, to, 6, PathStrategy::Halving, 0);
        let goal = highway_goal();
        let mut rounds = 0;
        loop {
            for h in session.space.alive().iter() {
                let constraint = session.constraint(h);
                let mut accepted = 0;
                for (ix, features) in session.features.iter().enumerate() {
                    let accepts = constraint.accepts_features(features);
                    assert_eq!(
                        session.space.acceptors(ix).contains(h),
                        accepts,
                        "round {rounds}: hypothesis {h} ({constraint:?}) diverges on candidate {ix}"
                    );
                    accepted += usize::from(accepts);
                }
                assert_eq!(
                    session.accepted[h], accepted,
                    "round {rounds}: {constraint:?}"
                );
            }
            let Some(ix) = session.propose() else { break };
            let label = goal.accepts(&g, &session.candidates[ix]);
            session.record(ix, label);
            rounds += 1;
        }
        assert!(rounds > 0, "the session must ask at least one question");
    }

    #[test]
    fn contradictory_labels_empty_the_version_space() {
        let (g, from, to) = setup();
        let mut session = PathSession::new(&g, from, to, 6, PathStrategy::Halving, 0);
        let ix = session.propose().expect("informative path");
        session.record(ix, true);
        session.record(ix, false);
        assert_eq!(session.version_space_size(), 0);
        assert_eq!(session.most_specific(), PathConstraint::any());
        assert_eq!(session.accepted_count(), session.candidate_count());
        assert_eq!(session.propose(), None);
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
