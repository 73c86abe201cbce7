//! Regular path queries (RPQs) over edge labels.
//!
//! The paper looks for "a query language for graphs which is expressive enough and also
//! learnable from positive and possibly negative examples", citing regular path queries as the
//! typical graph-database query class (and rejecting full SPARQL as too complex). The RPQ here
//! is a regular expression over edge labels; its answer is the set of node pairs connected by a
//! path whose edge-label word belongs to the language.
//!
//! Evaluation compiles the expression to a small NFA (Thompson construction) and runs a BFS on
//! the product of the NFA with the graph — polynomial in both.

use crate::model::{GEdgeId, GNodeId, PropertyGraph};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// A regular expression over edge labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathRegex {
    /// A single edge with this label.
    Label(String),
    /// Concatenation.
    Concat(Vec<PathRegex>),
    /// Alternation.
    Alt(Vec<PathRegex>),
    /// Zero or more repetitions.
    Star(Box<PathRegex>),
    /// One or more repetitions.
    Plus(Box<PathRegex>),
    /// Zero or one occurrence.
    Optional(Box<PathRegex>),
}

impl PathRegex {
    /// Convenience constructor for a label atom.
    pub fn label(l: impl Into<String>) -> PathRegex {
        PathRegex::Label(l.into())
    }

    /// Concatenation of a sequence of labels.
    pub fn word(labels: &[&str]) -> PathRegex {
        PathRegex::Concat(labels.iter().map(|l| PathRegex::label(*l)).collect())
    }

    /// Whether a word (sequence of edge labels) belongs to the language.
    pub fn accepts(&self, word: &[&str]) -> bool {
        let nfa = Nfa::compile(self);
        nfa.accepts(word)
    }

    /// Number of syntax nodes (used as "query size" in reports).
    pub fn size(&self) -> usize {
        match self {
            PathRegex::Label(_) => 1,
            PathRegex::Concat(parts) | PathRegex::Alt(parts) => {
                1 + parts.iter().map(PathRegex::size).sum::<usize>()
            }
            PathRegex::Star(inner) | PathRegex::Plus(inner) | PathRegex::Optional(inner) => {
                1 + inner.size()
            }
        }
    }
}

impl fmt::Display for PathRegex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathRegex::Label(l) => write!(f, "{l}"),
            PathRegex::Concat(parts) => {
                let s: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
                write!(f, "{}", s.join("/"))
            }
            PathRegex::Alt(parts) => {
                let s: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", s.join("|"))
            }
            PathRegex::Star(inner) => write!(f, "({inner})*"),
            PathRegex::Plus(inner) => write!(f, "({inner})+"),
            PathRegex::Optional(inner) => write!(f, "({inner})?"),
        }
    }
}

/// A Thompson NFA over edge labels.
struct Nfa {
    /// transitions[state] = list of (label or None for ε, target state)
    transitions: Vec<Vec<(Option<String>, usize)>>,
    start: usize,
    accept: usize,
}

impl Nfa {
    fn compile(regex: &PathRegex) -> Nfa {
        let mut nfa = Nfa {
            transitions: vec![Vec::new(), Vec::new()],
            start: 0,
            accept: 1,
        };
        nfa.build(regex, 0, 1);
        nfa
    }

    fn new_state(&mut self) -> usize {
        self.transitions.push(Vec::new());
        self.transitions.len() - 1
    }

    fn build(&mut self, regex: &PathRegex, from: usize, to: usize) {
        match regex {
            PathRegex::Label(l) => self.transitions[from].push((Some(l.clone()), to)),
            PathRegex::Concat(parts) => {
                if parts.is_empty() {
                    self.transitions[from].push((None, to));
                    return;
                }
                let mut current = from;
                for (ix, part) in parts.iter().enumerate() {
                    let next = if ix == parts.len() - 1 {
                        to
                    } else {
                        self.new_state()
                    };
                    self.build(part, current, next);
                    current = next;
                }
            }
            PathRegex::Alt(parts) => {
                for part in parts {
                    self.build(part, from, to);
                }
            }
            PathRegex::Star(inner) => {
                let hub = self.new_state();
                self.transitions[from].push((None, hub));
                self.transitions[hub].push((None, to));
                self.build(inner, hub, hub);
            }
            PathRegex::Plus(inner) => {
                let hub = self.new_state();
                self.build(inner, from, hub);
                self.transitions[hub].push((None, to));
                self.build(inner, hub, hub);
            }
            PathRegex::Optional(inner) => {
                self.transitions[from].push((None, to));
                self.build(inner, from, to);
            }
        }
    }

    fn epsilon_closure(&self, states: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut closure = states.clone();
        let mut stack: Vec<usize> = states.iter().copied().collect();
        while let Some(s) = stack.pop() {
            for (label, target) in &self.transitions[s] {
                if label.is_none() && closure.insert(*target) {
                    stack.push(*target);
                }
            }
        }
        closure
    }

    fn accepts(&self, word: &[&str]) -> bool {
        let mut current = self.epsilon_closure(&BTreeSet::from([self.start]));
        for &symbol in word {
            let mut next = BTreeSet::new();
            for &s in &current {
                for (label, target) in &self.transitions[s] {
                    if label.as_deref() == Some(symbol) {
                        next.insert(*target);
                    }
                }
            }
            current = self.epsilon_closure(&next);
            if current.is_empty() {
                return false;
            }
        }
        current.contains(&self.accept)
    }
}

/// Evaluate an RPQ: all `(source, target)` node pairs connected by a path whose label word is in
/// the language (the empty path counts when the language contains the empty word).
pub fn evaluate(graph: &PropertyGraph, regex: &PathRegex) -> BTreeSet<(GNodeId, GNodeId)> {
    let nfa = Nfa::compile(regex);
    let mut out = BTreeSet::new();
    for start in graph.node_ids() {
        // BFS over (graph node, NFA state set) — the state set is kept as a sorted vec key.
        let initial = nfa.epsilon_closure(&BTreeSet::from([nfa.start]));
        let mut visited: BTreeSet<(GNodeId, Vec<usize>)> = BTreeSet::new();
        let mut queue: VecDeque<(GNodeId, BTreeSet<usize>)> = VecDeque::new();
        queue.push_back((start, initial));
        while let Some((node, states)) = queue.pop_front() {
            let key = (node, states.iter().copied().collect::<Vec<_>>());
            if !visited.insert(key) {
                continue;
            }
            if states.contains(&nfa.accept) {
                out.insert((start, node));
            }
            for &edge in graph.outgoing(node) {
                let symbol = graph.edge_label(edge);
                let mut next = BTreeSet::new();
                for &s in &states {
                    for (label, target) in &nfa.transitions[s] {
                        if label.as_deref() == Some(symbol) {
                            next.insert(*target);
                        }
                    }
                }
                if next.is_empty() {
                    continue;
                }
                let next = nfa.epsilon_closure(&next);
                queue.push_back((graph.target(edge), next));
            }
        }
    }
    out
}

/// All node pairs reachable from `source` under the RPQ.
pub fn evaluate_from(
    graph: &PropertyGraph,
    regex: &PathRegex,
    source: GNodeId,
) -> BTreeSet<GNodeId> {
    evaluate(graph, regex)
        .into_iter()
        .filter(|(s, _)| *s == source)
        .map(|(_, t)| t)
        .collect()
}

/// A concrete path: the visited edges in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// The edges, in traversal order.
    pub edges: Vec<GEdgeId>,
}

impl Path {
    /// The edge-label word of the path.
    pub fn word(&self, graph: &PropertyGraph) -> Vec<String> {
        self.edges
            .iter()
            .map(|e| graph.edge_label(*e).to_string())
            .collect()
    }

    /// Endpoints of the path (`None` for the empty path).
    pub fn endpoints(&self, graph: &PropertyGraph) -> Option<(GNodeId, GNodeId)> {
        let first = self.edges.first()?;
        let last = self.edges.last()?;
        Some((graph.source(*first), graph.target(*last)))
    }

    /// Sum of the numeric `distance` properties of the edges (missing distances count 0).
    pub fn total_distance(&self, graph: &PropertyGraph) -> f64 {
        self.edges
            .iter()
            .filter_map(|e| {
                graph
                    .edge_property(*e, "distance")
                    .and_then(|v| v.as_number())
            })
            .sum()
    }

    /// Whether every edge has the given text property value.
    pub fn all_edges_have(&self, graph: &PropertyGraph, key: &str, value: &str) -> bool {
        self.edges
            .iter()
            .all(|e| graph.edge_property(*e, key).and_then(|v| v.as_text()) == Some(value))
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the path has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Enumerate simple paths (no repeated node) from `from` to `to` with at most `max_edges` edges.
///
/// The per-branch visited set is a dense bitset, so extending a path clones a few words rather
/// than a tree — path enumeration is the constructor cost of every interactive path session.
pub fn simple_paths(
    graph: &PropertyGraph,
    from: GNodeId,
    to: GNodeId,
    max_edges: usize,
) -> Vec<Path> {
    let n = graph.node_count();
    let mut out = Vec::new();
    let mut stack: Vec<(GNodeId, Vec<GEdgeId>, qbe_bitset::DenseSet<GNodeId>)> =
        vec![(from, Vec::new(), qbe_bitset::DenseSet::from_ids(n, [from]))];
    while let Some((node, edges, visited)) = stack.pop() {
        if node == to && !edges.is_empty() {
            out.push(Path {
                edges: edges.clone(),
            });
            // Paths may continue through `to` only if it can be revisited — with simple paths it
            // cannot, so stop extending here.
            continue;
        }
        if edges.len() >= max_edges {
            continue;
        }
        for &edge in graph.outgoing(node) {
            let next = graph.target(edge);
            if visited.contains(next) {
                continue;
            }
            let mut new_edges = edges.clone();
            new_edges.push(edge);
            let mut new_visited = visited.clone();
            new_visited.insert(next);
            stack.push((next, new_edges, new_visited));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a --road--> b --road--> c --train--> d,  a --train--> c
    fn graph() -> (PropertyGraph, Vec<GNodeId>) {
        let mut g = PropertyGraph::new();
        let nodes: Vec<GNodeId> = (0..4)
            .map(|i| {
                let n = g.add_node("city");
                g.set_node_property(n, "name", format!("c{i}").as_str());
                n
            })
            .collect();
        g.add_edge(nodes[0], nodes[1], "road");
        g.add_edge(nodes[1], nodes[2], "road");
        g.add_edge(nodes[2], nodes[3], "train");
        g.add_edge(nodes[0], nodes[2], "train");
        (g, nodes)
    }

    #[test]
    fn word_membership() {
        let r = PathRegex::Concat(vec![
            PathRegex::Plus(Box::new(PathRegex::label("road"))),
            PathRegex::label("train"),
        ]);
        assert!(r.accepts(&["road", "train"]));
        assert!(r.accepts(&["road", "road", "train"]));
        assert!(!r.accepts(&["train"]));
        assert!(!r.accepts(&["road", "train", "train"]));
    }

    #[test]
    fn star_accepts_empty_word() {
        let r = PathRegex::Star(Box::new(PathRegex::label("road")));
        assert!(r.accepts(&[]));
        assert!(r.accepts(&["road", "road"]));
        assert!(!r.accepts(&["train"]));
    }

    #[test]
    fn alternation_and_optional() {
        let r = PathRegex::Concat(vec![
            PathRegex::Alt(vec![PathRegex::label("road"), PathRegex::label("train")]),
            PathRegex::Optional(Box::new(PathRegex::label("ferry"))),
        ]);
        assert!(r.accepts(&["road"]));
        assert!(r.accepts(&["train", "ferry"]));
        assert!(!r.accepts(&["ferry"]));
    }

    #[test]
    fn evaluation_finds_connected_pairs() {
        let (g, n) = graph();
        let road_plus = PathRegex::Plus(Box::new(PathRegex::label("road")));
        let pairs = evaluate(&g, &road_plus);
        assert!(pairs.contains(&(n[0], n[1])));
        assert!(pairs.contains(&(n[0], n[2])));
        assert!(pairs.contains(&(n[1], n[2])));
        assert!(
            !pairs.contains(&(n[0], n[3])),
            "d is only reachable via a train edge"
        );
    }

    #[test]
    fn evaluation_handles_concatenation_across_labels() {
        let (g, n) = graph();
        let r = PathRegex::Concat(vec![
            PathRegex::Star(Box::new(PathRegex::label("road"))),
            PathRegex::label("train"),
        ]);
        let from_a = evaluate_from(&g, &r, n[0]);
        assert!(from_a.contains(&n[2]), "a --train--> c (zero roads)");
        assert!(from_a.contains(&n[3]), "a -road-> b -road-> c -train-> d");
    }

    #[test]
    fn empty_word_pairs_are_reflexive() {
        let (g, n) = graph();
        let r = PathRegex::Star(Box::new(PathRegex::label("road")));
        let pairs = evaluate(&g, &r);
        for &node in &n {
            assert!(pairs.contains(&(node, node)));
        }
    }

    #[test]
    fn simple_paths_are_enumerated_up_to_length() {
        let (g, n) = graph();
        let paths = simple_paths(&g, n[0], n[2], 3);
        // a->b->c (roads) and a->c (train)
        assert_eq!(paths.len(), 2);
        let words: BTreeSet<Vec<String>> = paths.iter().map(|p| p.word(&g)).collect();
        assert!(words.contains(&vec!["road".to_string(), "road".to_string()]));
        assert!(words.contains(&vec!["train".to_string()]));
    }

    #[test]
    fn path_helpers_aggregate_properties() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("city");
        let b = g.add_node("city");
        let c = g.add_node("city");
        let e1 = g.add_edge(a, b, "road");
        let e2 = g.add_edge(b, c, "road");
        g.set_edge_property(e1, "distance", 100.0);
        g.set_edge_property(e1, "type", "highway");
        g.set_edge_property(e2, "distance", 50.0);
        g.set_edge_property(e2, "type", "local");
        let path = Path {
            edges: vec![e1, e2],
        };
        assert_eq!(path.total_distance(&g), 150.0);
        assert!(!path.all_edges_have(&g, "type", "highway"));
        assert_eq!(path.endpoints(&g), Some((a, c)));
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn long_label_chains_answer_exact_pair_counts() {
        // A concatenation of k labels compiles to k+1 Thompson states, so these queries
        // straddle 64 states — where a single-word state mask would run out.
        let chain = |k: usize| PathRegex::Concat(vec![PathRegex::label("road"); k]);
        // A chain of 160 road edges: a k-label query answers the (n_i, n_{i+k}) pairs.
        let mut g = PropertyGraph::new();
        let nodes: Vec<GNodeId> = (0..161).map(|_| g.add_node("city")).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], "road");
        }
        for k in [63, 64, 150] {
            assert_eq!(evaluate(&g, &chain(k)).len(), 161 - k, "{k} labels");
        }
    }

    #[test]
    fn regex_display_and_size() {
        let r = PathRegex::Concat(vec![
            PathRegex::Plus(Box::new(PathRegex::label("road"))),
            PathRegex::Alt(vec![PathRegex::label("train"), PathRegex::label("ferry")]),
        ]);
        assert_eq!(r.to_string(), "(road)+/(train|ferry)");
        assert_eq!(r.size(), 6);
    }
}
