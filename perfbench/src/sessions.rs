//! The four workloads, the seeded session list each one runs, and the simulated user that
//! answers the server's questions.
//!
//! A session list is one *pass*: the load loop runs whole passes until its time is up, so
//! every run repeats the same work. The seed draws the goals, the path endpoints and road
//! types, the `START seed=` values and the order; the number of sessions per model is fixed,
//! so a held-out seed gives a different list of the same size and the same model mix.

use std::collections::BTreeMap;

use qbe_core::graph::{GNodeId, PathConstraint, QueryClass, ROAD_TYPES};
use qbe_core::relational::interactive::selected_pairs;
use qbe_core::twig::{parse_xpath, select, GoalNodeOracle, NodeOracle};
use qbe_core::xml::NodeId;
use qbe_core::{InteractiveLearner, PathInteractive, SessionConfig};
use qbe_server::protocol::field_value;
use qbe_server::{demo_graph_goal_pairs, Corpus, Goal, Model};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Twig goals on `medium`, grouped so that goals of one group ask about the same number of
/// questions (within ~10%) and every group converges with `EVAL` equal to the goal's size.
/// Each pass takes one goal per group, so the pass's cost hardly depends on the seed.
const TWIG_GOAL_GROUPS: [&[&str]; 5] = [
    &[
        "//person/name",
        "//person/emailaddress",
        "//person/address",
        "//person/phone",
    ],
    &[
        "//open_auction/bidder",
        "//open_auction/initial",
        "//open_auction/current",
        "//open_auction/interval",
        "//open_auction/seller",
    ],
    &[
        "//closed_auction/price",
        "//closed_auction/buyer",
        "//closed_auction/date",
        "//closed_auction/seller",
    ],
    &["//item/name", "//item/location", "//item/payment"],
    &["//category/name", "//category/description"],
];

/// Sessions per model in one pass of the short workloads.
const SHORT_PATH_SESSIONS: usize = 24;
const SHORT_JOIN_SESSIONS: usize = 8;
const SHORT_GRAPH_SESSIONS_PER_CLASS: usize = 8;
/// Sessions per model in one pass of `graph-join-medium`.
const MEDIUM_JOIN_SESSIONS: usize = 6;
const MEDIUM_GRAPH_SESSIONS_PER_CLASS: usize = 6;

/// Path sessions must ask this many questions (the short workloads' 2–8 question sessions)…
const PATH_QUESTIONS: std::ops::RangeInclusive<usize> = 2..=8;
/// …over at most this many candidate itineraries, which keeps one path `START` cheap.
const PATH_MAX_CANDIDATES: usize = 150;
/// The server's default `max_edges` for path sessions.
pub const PATH_MAX_EDGES: usize = 6;

const GRAPH_CLASSES: [QueryClass; 3] = [QueryClass::Rpq, QueryClass::TwoRpq, QueryClass::Crpq];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Twig sessions on `medium`: bound by the learner round.
    TwigMedium,
    /// Path, join and graph sessions on `small`: bound by the serving path.
    ShortSmall,
    /// The `short-small` list against a server with `--data-dir <fresh> --persist`.
    ShortSmallWal,
    /// Graph and join sessions on `medium`, booted from a pre-written snapshot: bound by `START`.
    GraphJoinMedium,
}

/// How the server under test keeps its state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// No `--data-dir`: every boot builds the corpus cold.
    Memory,
    /// `--data-dir <fresh dir> --persist`: the first `CORPUS` builds and writes a snapshot,
    /// every `START`/`ANSWER` appends to the WAL, every `QUIT` forces an fsync.
    FreshPersist,
    /// `--data-dir` holding a snapshot written before the first boot: `CORPUS` opens it.
    Snapshot,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::TwigMedium,
        Workload::ShortSmall,
        Workload::ShortSmallWal,
        Workload::GraphJoinMedium,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TwigMedium => "twig-medium",
            Workload::ShortSmall => "short-small",
            Workload::ShortSmallWal => "short-small-wal",
            Workload::GraphJoinMedium => "graph-join-medium",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The corpus every session of the workload attaches to.
    pub fn corpus(self) -> &'static str {
        match self {
            Workload::TwigMedium | Workload::GraphJoinMedium => "medium",
            Workload::ShortSmall | Workload::ShortSmallWal => "small",
        }
    }

    /// How the server under test keeps its state.
    pub fn storage(self) -> Storage {
        match self {
            Workload::TwigMedium | Workload::ShortSmall => Storage::Memory,
            Workload::ShortSmallWal => Storage::FreshPersist,
            Workload::GraphJoinMedium => Storage::Snapshot,
        }
    }
}

/// One session of a pass: the hidden goal the simulated user answers by, and the `START`
/// options (the model follows from the goal).
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The simulated user's intent.
    pub goal: Goal,
    /// `START` options in protocol order, `seed=` last.
    pub params: Vec<(String, String)>,
}

impl SessionSpec {
    /// The wire model the goal implies.
    pub fn model(&self) -> Model {
        match self.goal {
            Goal::Twig(_) => Model::Twig,
            Goal::PathRoadType(_) => Model::Path,
            Goal::Join => Model::Join,
            Goal::GraphPairs(_) => Model::Graph,
        }
    }

    /// The value of one `START` option.
    pub fn param(&self, key: &str) -> Option<&str> {
        field_value(&self.params, key)
    }

    /// The `START` seed.
    pub fn seed(&self) -> u64 {
        self.param("seed")
            .and_then(|s| s.parse().ok())
            .expect("every generated spec carries a numeric seed")
    }

    /// A short label for reports: model plus goal.
    pub fn label(&self) -> String {
        match &self.goal {
            Goal::Twig(xpath) => format!("twig {xpath}"),
            Goal::PathRoadType(road) => format!(
                "path {}->{} type={road}",
                self.param("from").unwrap_or("?"),
                self.param("to").unwrap_or("?")
            ),
            Goal::Join => "join demo".to_string(),
            Goal::GraphPairs(class) => format!("graph {}", class.wire_name()),
        }
    }
}

/// SplitMix64: a tiny, seedable stream, so the list depends on `--seed` alone.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn start_seed(&mut self) -> String {
        (self.next() % 1_000_000).to_string()
    }
}

fn spec(goal: Goal, mut params: Vec<(String, String)>, rng: &mut SplitMix) -> SessionSpec {
    params.push(("seed".to_string(), rng.start_seed()));
    SessionSpec { goal, params }
}

/// Generate the workload's pass from `seed`. `corpus` is the client-side copy of the
/// workload's corpus; path endpoints are validated against it in-process, before timing.
pub fn session_list(workload: Workload, seed: u64, corpus: &Corpus) -> Vec<SessionSpec> {
    let mut rng = SplitMix(seed);
    let mut list = Vec::new();
    match workload {
        Workload::TwigMedium => {
            for group in TWIG_GOAL_GROUPS {
                let goal = group[rng.below(group.len())];
                list.push(spec(Goal::Twig(goal.to_string()), Vec::new(), &mut rng));
            }
        }
        Workload::ShortSmall | Workload::ShortSmallWal => {
            for _ in 0..SHORT_PATH_SESSIONS {
                list.push(path_spec(corpus, &mut rng));
            }
            for _ in 0..SHORT_JOIN_SESSIONS {
                list.push(spec(Goal::Join, Vec::new(), &mut rng));
            }
            push_graph_specs(&mut list, SHORT_GRAPH_SESSIONS_PER_CLASS, &mut rng);
        }
        Workload::GraphJoinMedium => {
            for _ in 0..MEDIUM_JOIN_SESSIONS {
                list.push(spec(Goal::Join, Vec::new(), &mut rng));
            }
            push_graph_specs(&mut list, MEDIUM_GRAPH_SESSIONS_PER_CLASS, &mut rng);
        }
    }
    // Fisher–Yates: the seed also fixes the interleaving the clients see.
    for i in (1..list.len()).rev() {
        list.swap(i, rng.below(i + 1));
    }
    list
}

fn push_graph_specs(list: &mut Vec<SessionSpec>, per_class: usize, rng: &mut SplitMix) {
    for class in GRAPH_CLASSES {
        for _ in 0..per_class {
            let params = vec![("class".to_string(), class.wire_name().to_string())];
            list.push(spec(Goal::GraphPairs(class), params, rng));
        }
    }
}

/// Draw path endpoints and a road type until the session asks 2–8 questions over a bounded
/// candidate pool (checked by running it in-process with the same options the server gets).
fn path_spec(corpus: &Corpus, rng: &mut SplitMix) -> SessionSpec {
    let cities = corpus.graph.node_count();
    loop {
        let (from, to) = (rng.below(cities), rng.below(cities));
        if from == to {
            continue;
        }
        let road = ROAD_TYPES[rng.below(ROAD_TYPES.len())];
        let start_seed = rng.start_seed();
        let candidate = SessionSpec {
            goal: Goal::PathRoadType(road.to_string()),
            params: vec![
                ("from".to_string(), format!("city{from}")),
                ("to".to_string(), format!("city{to}")),
                ("seed".to_string(), start_seed),
            ],
        };
        if path_session_fits(corpus, &candidate) {
            return candidate;
        }
    }
}

fn path_session_fits(corpus: &Corpus, spec: &SessionSpec) -> bool {
    let Goal::PathRoadType(road) = &spec.goal else {
        return false;
    };
    let city = |key| {
        corpus
            .graph
            .find_node_by_property("name", spec.param(key).unwrap_or_default())
    };
    let (Some(from), Some(to)) = (city("from"), city("to")) else {
        return false;
    };
    let mut learner = PathInteractive::with_config(
        corpus.graph.clone(),
        from,
        to,
        PATH_MAX_EDGES,
        SessionConfig::new().seed(spec.seed()),
    )
    .with_goal(PathConstraint {
        road_type: Some(road.clone()),
        max_distance: None,
        via: None,
    });
    if learner.session().candidate_count() > PATH_MAX_CANDIDATES {
        return false;
    }
    while learner.propose_pending() {
        let positive = learner.oracle_answer().expect("goal embedded above");
        learner.answer(positive).expect("a question is pending");
    }
    PATH_QUESTIONS.contains(&learner.questions())
}

/// The simulated user's knowledge, computed once per distinct goal before timing starts:
/// the twig goals' answer sets (through [`GoalNodeOracle`]), the graph goals' pair sets, and
/// every goal's answer-set size for `EVAL` verification.
#[derive(Clone)]
pub struct GoalBook<'a> {
    corpus: &'a Corpus,
    twig: BTreeMap<String, GoalNodeOracle<'a>>,
    graph: BTreeMap<&'static str, std::collections::BTreeSet<(GNodeId, GNodeId)>>,
    sizes: BTreeMap<String, usize>,
}

fn goal_key(goal: &Goal) -> String {
    match goal {
        Goal::Twig(xpath) => format!("twig {xpath}"),
        Goal::PathRoadType(road) => format!("path {road}"),
        Goal::Join => "join".to_string(),
        Goal::GraphPairs(class) => format!("graph {}", class.wire_name()),
    }
}

impl<'a> GoalBook<'a> {
    /// Evaluate every distinct goal of `specs` over `corpus`.
    pub fn new(corpus: &'a Corpus, specs: &[SessionSpec]) -> Result<GoalBook<'a>, String> {
        let mut book = GoalBook {
            corpus,
            twig: BTreeMap::new(),
            graph: BTreeMap::new(),
            sizes: BTreeMap::new(),
        };
        for spec in specs {
            let key = goal_key(&spec.goal);
            if book.sizes.contains_key(&key) || matches!(spec.goal, Goal::PathRoadType(_)) {
                continue;
            }
            let size = match &spec.goal {
                Goal::Twig(xpath) => {
                    let query = parse_xpath(xpath).map_err(|e| format!("goal {xpath}: {e:?}"))?;
                    let size = corpus.docs.iter().map(|d| select(&query, d).len()).sum();
                    let mut oracle = GoalNodeOracle::new(&corpus.docs, query);
                    // One label per document materialises every per-document answer set now,
                    // not during the first timed session.
                    for doc in 0..corpus.docs.len() {
                        oracle.label(doc, NodeId::from_index(0));
                    }
                    book.twig.insert(xpath.clone(), oracle);
                    size
                }
                Goal::Join => {
                    selected_pairs(&corpus.left, &corpus.right, &corpus.demo_join_goal).len()
                }
                Goal::GraphPairs(class) => {
                    let pairs = demo_graph_goal_pairs(corpus, *class);
                    let size = pairs.len();
                    book.graph.insert(class.wire_name(), pairs);
                    size
                }
                Goal::PathRoadType(_) => unreachable!("skipped above"),
            };
            book.sizes.insert(key, size);
        }
        Ok(book)
    }

    /// The answer-set size `EVAL` must report once the session converged, where the goal has
    /// one the learner can reach exactly (twig, join and graph goals; not path road types).
    pub fn expected_eval(&self, goal: &Goal) -> Option<usize> {
        self.sizes.get(&goal_key(goal)).copied()
    }

    /// The true label of one question, from its `+ASK` fields.
    pub fn label(&mut self, goal: &Goal, fields: &[(String, String)]) -> Result<bool, String> {
        let number = |key: &str| {
            field_value(fields, key)
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| format!("question lacks a numeric {key}: {fields:?}"))
        };
        match goal {
            Goal::Twig(xpath) => {
                let (doc, node) = (number("doc")?, number("node")?);
                if doc >= self.corpus.docs.len() {
                    return Err(format!("question names document {doc}"));
                }
                let oracle = self
                    .twig
                    .get_mut(xpath)
                    .expect("book covers every twig goal");
                Ok(oracle.label(doc, NodeId::from_index(node)))
            }
            Goal::PathRoadType(road) => Ok(field_value(fields, "types")
                .is_some_and(|types| types.split(',').any(|t| t == road))),
            Goal::Join => {
                let (l, r) = (number("left")?, number("right")?);
                let (left, right) = (self.corpus.left.tuples(), self.corpus.right.tuples());
                if l >= left.len() || r >= right.len() {
                    return Err(format!("question names tuple pair ({l}, {r})"));
                }
                Ok(self.corpus.demo_join_goal.satisfied_by(&left[l], &right[r]))
            }
            Goal::GraphPairs(class) => {
                let pair = |key| u32::try_from(number(key)?).map_err(|e| e.to_string());
                let (s, t) = (pair("source_id")?, pair("target_id")?);
                Ok(self.graph[class.wire_name()].contains(&(GNodeId(s), GNodeId(t))))
            }
        }
    }
}
