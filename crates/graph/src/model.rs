//! Property-graph data model (an RDF-style labelled graph with attributes on nodes and edges).
//!
//! The paper's graph setting is exemplified by "a geographical database modeled as a graph. The
//! vertices represent cities and the edges store information such as the distance between the
//! cities, the type of road linking the cities". The model therefore supports labelled nodes and
//! edges, both carrying a small property map, plus a triple view for the RDF-flavoured exchange
//! scenario.

use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GNodeId(pub u32);

/// Node ids index dense bitsets ([`qbe_bitset::DenseSet<GNodeId>`]) directly — what the
/// path-session visited sets and the index's successor and predecessor sets are keyed by.
impl qbe_bitset::DenseId for GNodeId {
    fn from_index(index: usize) -> GNodeId {
        GNodeId(index as u32)
    }
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GEdgeId(pub u32);

/// A property value on a node or an edge.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub enum PropValue {
    /// Integer property.
    Int(i64),
    /// Floating-point property (e.g. distances).
    Float(f64),
    /// Text property.
    Text(String),
}

impl PropValue {
    /// Text accessor.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            PropValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric accessor (integers widen to floats).
    pub fn as_number(&self) -> Option<f64> {
        match self {
            PropValue::Int(i) => Some(*i as f64),
            PropValue::Float(f) => Some(*f),
            PropValue::Text(_) => None,
        }
    }
}

impl fmt::Display for PropValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropValue::Int(i) => write!(f, "{i}"),
            PropValue::Float(x) => write!(f, "{x}"),
            PropValue::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for PropValue {
    fn from(v: i64) -> Self {
        PropValue::Int(v)
    }
}
impl From<f64> for PropValue {
    fn from(v: f64) -> Self {
        PropValue::Float(v)
    }
}
impl From<&str> for PropValue {
    fn from(v: &str) -> Self {
        PropValue::Text(v.to_string())
    }
}

#[derive(Debug, Clone)]
struct NodeData {
    label: String,
    properties: BTreeMap<String, PropValue>,
    outgoing: Vec<GEdgeId>,
    incoming: Vec<GEdgeId>,
}

#[derive(Debug, Clone)]
struct EdgeData {
    from: GNodeId,
    to: GNodeId,
    label: String,
    properties: BTreeMap<String, PropValue>,
}

/// A directed property graph.
#[derive(Debug, Clone, Default)]
pub struct PropertyGraph {
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
}

/// A subject–predicate–object triple (the RDF view of an edge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Triple {
    /// Subject: the source node's display name (or id).
    pub subject: String,
    /// Predicate: the edge label.
    pub predicate: String,
    /// Object: the target node's display name (or id).
    pub object: String,
}

impl PropertyGraph {
    /// Create an empty graph.
    pub fn new() -> PropertyGraph {
        PropertyGraph::default()
    }

    /// Add a node with a label.
    pub fn add_node(&mut self, label: impl Into<String>) -> GNodeId {
        let id = GNodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            label: label.into(),
            properties: BTreeMap::new(),
            outgoing: Vec::new(),
            incoming: Vec::new(),
        });
        id
    }

    /// Add a directed edge.
    pub fn add_edge(&mut self, from: GNodeId, to: GNodeId, label: impl Into<String>) -> GEdgeId {
        assert!(from.0 < self.nodes.len() as u32 && to.0 < self.nodes.len() as u32);
        let id = GEdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData {
            from,
            to,
            label: label.into(),
            properties: BTreeMap::new(),
        });
        self.nodes[from.0 as usize].outgoing.push(id);
        self.nodes[to.0 as usize].incoming.push(id);
        id
    }

    /// Set a node property.
    pub fn set_node_property(
        &mut self,
        node: GNodeId,
        key: impl Into<String>,
        value: impl Into<PropValue>,
    ) {
        self.nodes[node.0 as usize]
            .properties
            .insert(key.into(), value.into());
    }

    /// Set an edge property.
    pub fn set_edge_property(
        &mut self,
        edge: GEdgeId,
        key: impl Into<String>,
        value: impl Into<PropValue>,
    ) {
        self.edges[edge.0 as usize]
            .properties
            .insert(key.into(), value.into());
    }

    /// Node label.
    pub fn node_label(&self, node: GNodeId) -> &str {
        &self.nodes[node.0 as usize].label
    }

    /// Node property.
    pub fn node_property(&self, node: GNodeId, key: &str) -> Option<&PropValue> {
        self.nodes[node.0 as usize].properties.get(key)
    }

    /// All properties of a node, in key order (the map is a `BTreeMap`, so the order is
    /// deterministic — what the snapshot serialiser relies on).
    pub fn node_properties(&self, node: GNodeId) -> impl Iterator<Item = (&str, &PropValue)> {
        self.nodes[node.0 as usize]
            .properties
            .iter()
            .map(|(k, v)| (k.as_str(), v))
    }

    /// All properties of an edge, in key order.
    pub fn edge_properties(&self, edge: GEdgeId) -> impl Iterator<Item = (&str, &PropValue)> {
        self.edges[edge.0 as usize]
            .properties
            .iter()
            .map(|(k, v)| (k.as_str(), v))
    }

    /// Edge label.
    pub fn edge_label(&self, edge: GEdgeId) -> &str {
        &self.edges[edge.0 as usize].label
    }

    /// Edge property.
    pub fn edge_property(&self, edge: GEdgeId, key: &str) -> Option<&PropValue> {
        self.edges[edge.0 as usize].properties.get(key)
    }

    /// Source node of an edge.
    pub fn source(&self, edge: GEdgeId) -> GNodeId {
        self.edges[edge.0 as usize].from
    }

    /// Target node of an edge.
    pub fn target(&self, edge: GEdgeId) -> GNodeId {
        self.edges[edge.0 as usize].to
    }

    /// Outgoing edges of a node.
    pub fn outgoing(&self, node: GNodeId) -> &[GEdgeId] {
        &self.nodes[node.0 as usize].outgoing
    }

    /// Incoming edges of a node.
    pub fn incoming(&self, node: GNodeId) -> &[GEdgeId] {
        &self.nodes[node.0 as usize].incoming
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = GNodeId> {
        (0..self.nodes.len() as u32).map(GNodeId)
    }

    /// All edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = GEdgeId> {
        (0..self.edges.len() as u32).map(GEdgeId)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Nodes carrying a given label.
    pub fn nodes_with_label(&self, label: &str) -> Vec<GNodeId> {
        self.node_ids()
            .filter(|n| self.node_label(*n) == label)
            .collect()
    }

    /// Find a node by the value of a property (first match).
    pub fn find_node_by_property(&self, key: &str, value: &str) -> Option<GNodeId> {
        self.node_ids()
            .find(|n| self.node_property(*n, key).and_then(PropValue::as_text) == Some(value))
    }

    /// Distinct edge labels, sorted.
    pub fn edge_alphabet(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.edges.iter().map(|e| e.label.clone()).collect();
        labels.sort();
        labels.dedup();
        labels
    }

    /// The RDF-style triple view: one triple per edge, using the node property `name` when
    /// present (falling back to `label#id`).
    pub fn triples(&self) -> Vec<Triple> {
        self.edge_ids()
            .map(|e| Triple {
                subject: self.display_name(self.source(e)),
                predicate: self.edge_label(e).to_string(),
                object: self.display_name(self.target(e)),
            })
            .collect()
    }

    /// Human-readable node name used by the triple view and the exchange scenarios.
    pub fn display_name(&self, node: GNodeId) -> String {
        match self
            .node_property(node, "name")
            .and_then(PropValue::as_text)
        {
            Some(name) => name.to_string(),
            None => format!("{}#{}", self.node_label(node), node.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let lille = g.add_node("city");
        g.set_node_property(lille, "name", "Lille");
        let paris = g.add_node("city");
        g.set_node_property(paris, "name", "Paris");
        let e = g.add_edge(lille, paris, "road");
        g.set_edge_property(e, "distance", 225.0);
        g.set_edge_property(e, "type", "highway");
        g
    }

    #[test]
    fn nodes_and_edges_are_linked() {
        let g = sample();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        let e = g.edge_ids().next().unwrap();
        assert_eq!(g.node_label(g.source(e)), "city");
        assert_eq!(g.outgoing(g.source(e)).len(), 1);
        assert_eq!(g.incoming(g.target(e)).len(), 1);
        assert!(g.outgoing(g.target(e)).is_empty());
    }

    #[test]
    fn properties_are_retrievable() {
        let g = sample();
        let e = g.edge_ids().next().unwrap();
        assert_eq!(
            g.edge_property(e, "type").unwrap().as_text(),
            Some("highway")
        );
        assert_eq!(
            g.edge_property(e, "distance").unwrap().as_number(),
            Some(225.0)
        );
        assert!(g.edge_property(e, "toll").is_none());
    }

    #[test]
    fn find_node_by_property_matches_text() {
        let g = sample();
        assert!(g.find_node_by_property("name", "Paris").is_some());
        assert!(g.find_node_by_property("name", "Atlantis").is_none());
    }

    #[test]
    fn triples_reflect_edges() {
        let g = sample();
        let triples = g.triples();
        assert_eq!(triples.len(), 1);
        assert_eq!(
            triples[0],
            Triple {
                subject: "Lille".to_string(),
                predicate: "road".to_string(),
                object: "Paris".to_string(),
            }
        );
    }

    #[test]
    fn edge_alphabet_is_deduplicated() {
        let mut g = sample();
        let a = g.add_node("city");
        let b = g.add_node("city");
        g.add_edge(a, b, "road");
        g.add_edge(b, a, "train");
        assert_eq!(g.edge_alphabet(), vec!["road", "train"]);
    }

    #[test]
    fn display_name_falls_back_to_label_and_id() {
        let mut g = PropertyGraph::new();
        let n = g.add_node("anonymous");
        assert_eq!(g.display_name(n), "anonymous#0");
    }
}
