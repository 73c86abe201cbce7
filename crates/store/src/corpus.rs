//! Corpus payload: section encoders for every substrate a serving corpus carries.
//!
//! A [`CorpusSnapshot`] is the flat, owned form of a server corpus — XMark documents and
//! their node indexes, the geographical property graph and its adjacency index, the typed
//! road view and its index, and the relational pair with its demo join goal.
//! [`CorpusSnapshot::encode`] lays each substrate into its own snapshot section so a reader
//! can pull one substrate without deserialising the rest; [`CorpusSnapshot::decode`]
//! reverses it through the `from_parts` constructors the index crates expose.
//!
//! Encoding is byte-deterministic: hash-map-backed structures (label postings, node-label
//! sets) are serialised in sorted label order, and everything else follows arena id order.

use crate::backend::Backend;
use crate::codec::{Dec, Enc};
use crate::snapshot::{SnapshotReader, SnapshotWriter};
use crate::StoreError;
use qbe_bitset::DenseSet;
use qbe_graph::{GNodeId, GraphIndex, PropValue, PropertyGraph};
use qbe_relational::{JoinPredicate, Relation, RelationSchema, Tuple, Value};
use qbe_xml::{NodeId, NodeIndex, XmlTree};
use std::collections::{HashMap, HashSet};

/// Section kinds of a corpus snapshot.
pub mod section {
    /// Corpus name and substrate counts.
    pub const META: u32 = 1;
    /// The XMark document trees.
    pub const DOCS: u32 = 2;
    /// One [`qbe_xml::NodeIndex`] per document.
    pub const NODE_INDEXES: u32 = 3;
    /// The geographical property graph.
    pub const GRAPH: u32 = 4;
    /// Adjacency index of the geographical graph.
    pub const GRAPH_INDEX: u32 = 5;
    /// The typed road view of the graph.
    pub const TYPED_GRAPH: u32 = 6;
    /// Adjacency index of the typed view.
    pub const TYPED_INDEX: u32 = 7;
    /// The relational pair plus the demo join goal.
    pub const RELATIONS: u32 = 8;
}

/// Owned, serialisable form of one serving corpus.
#[derive(Debug, Clone)]
pub struct CorpusSnapshot {
    /// Corpus name (`tiny`, `small`, ...).
    pub name: String,
    /// XMark documents.
    pub docs: Vec<XmlTree>,
    /// One node index per document, same order.
    pub indexes: Vec<NodeIndex>,
    /// Geographical property graph.
    pub graph: PropertyGraph,
    /// Adjacency index of `graph`.
    pub graph_index: GraphIndex,
    /// Typed road view of the graph.
    pub typed_graph: PropertyGraph,
    /// Adjacency index of `typed_graph`.
    pub typed_index: GraphIndex,
    /// Left relation of the join-learning pair.
    pub left: Relation,
    /// Right relation of the join-learning pair.
    pub right: Relation,
    /// Demo equi-join goal over the pair.
    pub demo_join_goal: JoinPredicate,
}

impl CorpusSnapshot {
    /// Serialise into a complete snapshot byte stream (header + sections).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        let mut meta = Enc::new();
        meta.str(&self.name);
        meta.u32(self.docs.len() as u32);
        w.section(section::META, meta.into_bytes());

        let mut docs = Enc::new();
        docs.u32(self.docs.len() as u32);
        for doc in &self.docs {
            enc_tree(&mut docs, doc);
        }
        w.section(section::DOCS, docs.into_bytes());

        let mut idx = Enc::new();
        idx.u32(self.indexes.len() as u32);
        for index in &self.indexes {
            enc_node_index(&mut idx, index);
        }
        w.section(section::NODE_INDEXES, idx.into_bytes());

        let mut g = Enc::new();
        enc_graph(&mut g, &self.graph);
        w.section(section::GRAPH, g.into_bytes());

        let mut gi = Enc::new();
        enc_graph_index(&mut gi, &self.graph_index);
        w.section(section::GRAPH_INDEX, gi.into_bytes());

        let mut tg = Enc::new();
        enc_graph(&mut tg, &self.typed_graph);
        w.section(section::TYPED_GRAPH, tg.into_bytes());

        let mut ti = Enc::new();
        enc_graph_index(&mut ti, &self.typed_index);
        w.section(section::TYPED_INDEX, ti.into_bytes());

        let mut rel = Enc::new();
        enc_relation(&mut rel, &self.left);
        enc_relation(&mut rel, &self.right);
        let pairs: Vec<(usize, usize)> = self.demo_join_goal.pairs().collect();
        rel.u32(pairs.len() as u32);
        for (l, r) in pairs {
            rel.u32(l as u32);
            rel.u32(r as u32);
        }
        w.section(section::RELATIONS, rel.into_bytes());

        w.finish()
    }

    /// Deserialise a corpus from an opened snapshot.
    pub fn decode<B: Backend>(reader: &SnapshotReader<B>) -> Result<CorpusSnapshot, StoreError> {
        let meta = reader.read_section(section::META)?;
        let mut d = Dec::new(&meta);
        let name = d.str()?;
        let doc_count = d.u32()? as usize;
        d.finish()?;

        let docs_bytes = reader.read_section(section::DOCS)?;
        let mut d = Dec::new(&docs_bytes);
        let n = d.count(4)?; // a tree opens with its node count
        if n != doc_count {
            return Err(StoreError::Corrupt(format!(
                "meta declares {doc_count} documents, DOCS section holds {n}"
            )));
        }
        let mut docs = Vec::with_capacity(n);
        for _ in 0..n {
            docs.push(dec_tree(&mut d)?);
        }
        d.finish()?;

        let idx_bytes = reader.read_section(section::NODE_INDEXES)?;
        let mut d = Dec::new(&idx_bytes);
        let n = d.count(8)?; // an index opens with its node and label counts
        if n != doc_count {
            return Err(StoreError::Corrupt(format!(
                "meta declares {doc_count} documents, NODE_INDEXES section holds {n}"
            )));
        }
        let mut indexes = Vec::with_capacity(n);
        for _ in 0..n {
            indexes.push(dec_node_index(&mut d)?);
        }
        d.finish()?;

        let graph = dec_section_graph(reader, section::GRAPH)?;
        let graph_index = dec_section_graph_index(reader, section::GRAPH_INDEX)?;
        let typed_graph = dec_section_graph(reader, section::TYPED_GRAPH)?;
        let typed_index = dec_section_graph_index(reader, section::TYPED_INDEX)?;

        let rel_bytes = reader.read_section(section::RELATIONS)?;
        let mut d = Dec::new(&rel_bytes);
        let left = dec_relation(&mut d)?;
        let right = dec_relation(&mut d)?;
        let npairs = d.count(8)?; // two attribute indices per pair
        let mut pairs = Vec::with_capacity(npairs);
        for _ in 0..npairs {
            let l = d.u32()? as usize;
            let r = d.u32()? as usize;
            pairs.push((l, r));
        }
        d.finish()?;

        Ok(CorpusSnapshot {
            name,
            docs,
            indexes,
            graph,
            graph_index,
            typed_graph,
            typed_index,
            left,
            right,
            demo_join_goal: JoinPredicate::from_pairs(pairs),
        })
    }
}

const NO_PARENT: u32 = u32::MAX;

fn enc_bitset<T: qbe_bitset::DenseId>(e: &mut Enc, bits: &DenseSet<T>) {
    for w in bits.words() {
        e.u64(*w);
    }
}

fn dec_bitset<T: qbe_bitset::DenseId>(
    d: &mut Dec<'_>,
    universe: usize,
) -> Result<DenseSet<T>, StoreError> {
    // Bitsets are the bulk of an index section; one bounds-checked raw read beats a
    // per-word decode loop.
    let nwords = universe.div_ceil(64);
    let raw = d.raw(nwords * 8)?;
    let words = raw
        .chunks_exact(8)
        .map(|chunk| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")))
        .collect();
    Ok(DenseSet::from_words(universe, words))
}

fn enc_tree(e: &mut Enc, tree: &XmlTree) {
    e.u32(tree.size() as u32);
    for id in tree.node_ids() {
        e.str(tree.label(id));
        e.u32(tree.parent(id).map_or(NO_PARENT, |p| p.index() as u32));
        match tree.text(id) {
            Some(t) => {
                e.bool(true);
                e.str(t);
            }
            None => e.bool(false),
        }
        let attrs: Vec<(&str, &str)> = tree.attributes(id).collect();
        e.u32(attrs.len() as u32);
        for (k, v) in attrs {
            e.str(k);
            e.str(v);
        }
    }
}

fn dec_tree(d: &mut Dec<'_>) -> Result<XmlTree, StoreError> {
    let n = d.u32()? as usize;
    if n == 0 {
        return Err(StoreError::Corrupt("tree with zero nodes".to_string()));
    }
    let mut tree: Option<XmlTree> = None;
    for ix in 0..n {
        let label = d.str()?;
        let parent = d.u32()?;
        let id = match (&mut tree, parent) {
            (None, NO_PARENT) => {
                tree = Some(XmlTree::new(label));
                NodeId::ROOT
            }
            (None, p) => {
                return Err(StoreError::Corrupt(format!(
                    "tree root declares parent {p}"
                )))
            }
            (Some(_), NO_PARENT) => {
                return Err(StoreError::Corrupt(format!(
                    "non-root node {ix} has no parent"
                )))
            }
            (Some(t), p) => {
                if p as usize >= ix {
                    return Err(StoreError::Corrupt(format!(
                        "node {ix} declares parent {p}, which does not precede it"
                    )));
                }
                t.add_child(NodeId::from_index(p as usize), label)
            }
        };
        let t = tree.as_mut().expect("tree exists after root");
        if d.bool()? {
            let text = d.str()?;
            t.set_text(id, text);
        }
        let attrs = d.u32()? as usize;
        for _ in 0..attrs {
            let k = d.str()?;
            let v = d.str()?;
            t.set_attribute(id, k, v);
        }
    }
    Ok(tree.expect("n > 0"))
}

fn enc_node_index(e: &mut Enc, index: &NodeIndex) {
    let n = index.node_count();
    e.u32(n as u32);
    let mut postings: Vec<(&str, &DenseSet<NodeId>)> = index.posting_entries().collect();
    postings.sort_by_key(|(label, _)| *label);
    e.u32(postings.len() as u32);
    for (label, bits) in postings {
        e.str(label);
        enc_bitset(e, bits);
    }
    for &v in index.pre_ranks() {
        e.u32(v);
    }
    for &v in index.subtree_ends() {
        e.u32(v);
    }
    for &v in index.depths() {
        e.u32(v);
    }
    for p in index.parents() {
        e.u32(p.map_or(NO_PARENT, |p| p.index() as u32));
    }
}

fn dec_node_index(d: &mut Dec<'_>) -> Result<NodeIndex, StoreError> {
    let n = d.count(16)?; // pre rank, subtree end, depth and parent per node
    let nlabels = d.count(4 + 8 * n.div_ceil(64))?; // a label and its node bitset
    let mut postings = HashMap::with_capacity(nlabels);
    for _ in 0..nlabels {
        let label = d.str()?;
        let bits = dec_bitset::<NodeId>(d, n)?;
        if postings.insert(label, bits).is_some() {
            return Err(StoreError::Corrupt(
                "duplicate posting label in node index".to_string(),
            ));
        }
    }
    let mut arr = |_: &str| -> Result<Vec<u32>, StoreError> { (0..n).map(|_| d.u32()).collect() };
    let pre = arr("pre")?;
    let subtree_end = arr("subtree_end")?;
    let depth = arr("depth")?;
    let mut parent = Vec::with_capacity(n);
    for ix in 0..n {
        let p = d.u32()?;
        if p == NO_PARENT {
            parent.push(None);
        } else if (p as usize) < n {
            parent.push(Some(NodeId::from_index(p as usize)));
        } else {
            return Err(StoreError::Corrupt(format!(
                "node {ix} declares out-of-range parent {p}"
            )));
        }
    }
    Ok(NodeIndex::from_parts(
        postings,
        pre,
        subtree_end,
        depth,
        parent,
    ))
}

const PROP_INT: u8 = 0;
const PROP_FLOAT: u8 = 1;
const PROP_TEXT: u8 = 2;

fn enc_prop(e: &mut Enc, value: &PropValue) {
    match value {
        PropValue::Int(i) => {
            e.u8(PROP_INT);
            e.i64(*i);
        }
        PropValue::Float(f) => {
            e.u8(PROP_FLOAT);
            e.f64(*f);
        }
        PropValue::Text(s) => {
            e.u8(PROP_TEXT);
            e.str(s);
        }
    }
}

fn dec_prop(d: &mut Dec<'_>) -> Result<PropValue, StoreError> {
    match d.u8()? {
        PROP_INT => Ok(PropValue::Int(d.i64()?)),
        PROP_FLOAT => Ok(PropValue::Float(d.f64()?)),
        PROP_TEXT => Ok(PropValue::Text(d.str()?)),
        other => Err(StoreError::Corrupt(format!(
            "unknown property value tag {other}"
        ))),
    }
}

fn enc_graph(e: &mut Enc, graph: &PropertyGraph) {
    e.u32(graph.node_count() as u32);
    for node in graph.node_ids() {
        e.str(graph.node_label(node));
        let props: Vec<(&str, &PropValue)> = graph.node_properties(node).collect();
        e.u32(props.len() as u32);
        for (k, v) in props {
            e.str(k);
            enc_prop(e, v);
        }
    }
    e.u32(graph.edge_count() as u32);
    for edge in graph.edge_ids() {
        e.u32(graph.source(edge).0);
        e.u32(graph.target(edge).0);
        e.str(graph.edge_label(edge));
        let props: Vec<(&str, &PropValue)> = graph.edge_properties(edge).collect();
        e.u32(props.len() as u32);
        for (k, v) in props {
            e.str(k);
            enc_prop(e, v);
        }
    }
}

fn dec_graph(d: &mut Dec<'_>) -> Result<PropertyGraph, StoreError> {
    let mut graph = PropertyGraph::new();
    let nodes = d.u32()? as usize;
    for _ in 0..nodes {
        let label = d.str()?;
        let node = graph.add_node(label);
        let nprops = d.u32()? as usize;
        for _ in 0..nprops {
            let k = d.str()?;
            let v = dec_prop(d)?;
            graph.set_node_property(node, k, v);
        }
    }
    let edges = d.u32()? as usize;
    for ix in 0..edges {
        let from = d.u32()?;
        let to = d.u32()?;
        if from as usize >= nodes || to as usize >= nodes {
            return Err(StoreError::Corrupt(format!(
                "edge {ix} references node out of range ({from} -> {to}, {nodes} nodes)"
            )));
        }
        let label = d.str()?;
        let edge = graph.add_edge(GNodeId(from), GNodeId(to), label);
        let nprops = d.u32()? as usize;
        for _ in 0..nprops {
            let k = d.str()?;
            let v = dec_prop(d)?;
            graph.set_edge_property(edge, k, v);
        }
    }
    Ok(graph)
}

/// One node's labelled adjacency: `(interned label id, neighbour bitset)` entries.
type AdjacencyRow = Vec<(u32, DenseSet<GNodeId>)>;

fn enc_adjacency_rows(e: &mut Enc, rows: &[&[(u32, DenseSet<GNodeId>)]]) {
    for row in rows {
        e.u32(row.len() as u32);
        for (lid, bits) in row.iter() {
            e.u32(*lid);
            enc_bitset(e, bits);
        }
    }
}

fn dec_adjacency_rows(d: &mut Dec<'_>, n: usize) -> Result<Vec<AdjacencyRow>, StoreError> {
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let entries = d.count(4 + 8 * n.div_ceil(64))?; // a label id and its bitset
        let mut row = Vec::with_capacity(entries);
        for _ in 0..entries {
            let lid = d.u32()?;
            let bits = dec_bitset::<GNodeId>(d, n)?;
            row.push((lid, bits));
        }
        rows.push(row);
    }
    Ok(rows)
}

fn enc_graph_index(e: &mut Enc, index: &GraphIndex) {
    e.u32(index.label_count() as u32);
    for lid in 0..index.label_count() as u32 {
        e.str(index.label(lid));
    }
    let n = index.node_count();
    e.u32(n as u32);
    let out_rows: Vec<&[(u32, DenseSet<GNodeId>)]> = (0..n as u32)
        .map(|v| index.successor_bits(GNodeId(v)))
        .collect();
    enc_adjacency_rows(e, &out_rows);
    let in_rows: Vec<&[(u32, DenseSet<GNodeId>)]> = (0..n as u32)
        .map(|v| index.predecessor_bits(GNodeId(v)))
        .collect();
    enc_adjacency_rows(e, &in_rows);
    for lid in 0..index.label_count() as u32 {
        e.u64(index.label_edge_count(lid) as u64);
    }
    let mut node_labels: Vec<(&str, &DenseSet<GNodeId>)> = index.node_label_entries().collect();
    node_labels.sort_by_key(|(label, _)| *label);
    e.u32(node_labels.len() as u32);
    for (label, bits) in node_labels {
        e.str(label);
        enc_bitset(e, bits);
    }
}

fn dec_graph_index(d: &mut Dec<'_>) -> Result<GraphIndex, StoreError> {
    let nlabels = d.count(12)?; // a label string and its edge count
    let mut labels = Vec::with_capacity(nlabels);
    for _ in 0..nlabels {
        labels.push(d.str()?);
    }
    let n = d.count(8)?; // an out row and an in row per node
    let out_bits = dec_adjacency_rows(d, n)?;
    let in_bits = dec_adjacency_rows(d, n)?;
    for row in out_bits.iter().chain(in_bits.iter()) {
        for (lid, _) in row {
            if *lid as usize >= nlabels {
                return Err(StoreError::Corrupt(format!(
                    "adjacency row references label id {lid}, only {nlabels} labels interned"
                )));
            }
        }
    }
    let mut label_edge_counts = Vec::with_capacity(nlabels);
    for _ in 0..nlabels {
        label_edge_counts.push(d.u64()? as usize);
    }
    let nsets = d.count(4 + 8 * n.div_ceil(64))?; // a label and its node bitset
    let mut node_label_sets = HashMap::with_capacity(nsets);
    for _ in 0..nsets {
        let label = d.str()?;
        let bits = dec_bitset::<GNodeId>(d, n)?;
        if node_label_sets.insert(label, bits).is_some() {
            return Err(StoreError::Corrupt(
                "duplicate node label set in graph index".to_string(),
            ));
        }
    }
    Ok(GraphIndex::from_parts(
        labels,
        out_bits,
        in_bits,
        label_edge_counts,
        node_label_sets,
    ))
}

fn dec_section_graph<B: Backend>(
    reader: &SnapshotReader<B>,
    kind: u32,
) -> Result<PropertyGraph, StoreError> {
    let bytes = reader.read_section(kind)?;
    let mut d = Dec::new(&bytes);
    let graph = dec_graph(&mut d)?;
    d.finish()?;
    Ok(graph)
}

fn dec_section_graph_index<B: Backend>(
    reader: &SnapshotReader<B>,
    kind: u32,
) -> Result<GraphIndex, StoreError> {
    let bytes = reader.read_section(kind)?;
    let mut d = Dec::new(&bytes);
    let index = dec_graph_index(&mut d)?;
    d.finish()?;
    Ok(index)
}

const VALUE_INT: u8 = 0;
const VALUE_TEXT: u8 = 1;
const VALUE_BOOL: u8 = 2;
const VALUE_NULL: u8 = 3;

fn enc_value(e: &mut Enc, value: &Value) {
    match value {
        Value::Int(i) => {
            e.u8(VALUE_INT);
            e.i64(*i);
        }
        Value::Text(s) => {
            e.u8(VALUE_TEXT);
            e.str(s);
        }
        Value::Bool(b) => {
            e.u8(VALUE_BOOL);
            e.bool(*b);
        }
        Value::Null => e.u8(VALUE_NULL),
    }
}

fn dec_value(d: &mut Dec<'_>) -> Result<Value, StoreError> {
    match d.u8()? {
        VALUE_INT => Ok(Value::Int(d.i64()?)),
        VALUE_TEXT => Ok(Value::Text(d.str()?)),
        VALUE_BOOL => Ok(Value::Bool(d.bool()?)),
        VALUE_NULL => Ok(Value::Null),
        other => Err(StoreError::Corrupt(format!("unknown value tag {other}"))),
    }
}

fn enc_relation(e: &mut Enc, relation: &Relation) {
    e.str(relation.schema().name());
    let attrs = relation.schema().attributes();
    e.u32(attrs.len() as u32);
    for a in attrs {
        e.str(a);
    }
    e.u32(relation.len() as u32);
    for tuple in relation.tuples() {
        for v in tuple.values() {
            enc_value(e, v);
        }
    }
}

fn dec_relation(d: &mut Dec<'_>) -> Result<Relation, StoreError> {
    let name = d.str()?;
    let nattrs = d.count(4)?; // a name string per attribute
    let mut attrs = Vec::with_capacity(nattrs);
    for _ in 0..nattrs {
        attrs.push(d.str()?);
    }
    if attrs.iter().collect::<HashSet<_>>().len() != attrs.len() {
        return Err(StoreError::Corrupt(format!(
            "relation {name:?} repeats an attribute name"
        )));
    }
    let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let schema = RelationSchema::new(name, &attr_refs);
    // One tag byte per value; a nullary tuple is charged one byte so its count stays bounded.
    let ntuples = d.count(nattrs.max(1))?;
    let mut tuples = Vec::with_capacity(ntuples);
    for _ in 0..ntuples {
        let mut values = Vec::with_capacity(nattrs);
        for _ in 0..nattrs {
            values.push(dec_value(d)?);
        }
        tuples.push(Tuple::new(values));
    }
    Ok(Relation::with_tuples(schema, tuples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample() -> CorpusSnapshot {
        let mut doc = XmlTree::new("site");
        let people = doc.add_child(XmlTree::ROOT, "people");
        let person = doc.add_child(people, "person");
        doc.set_attribute(person, "id", "person0");
        let name = doc.add_child(person, "name");
        doc.set_text(name, "Alice");
        let mut doc2 = XmlTree::new("site");
        doc2.add_child(XmlTree::ROOT, "regions");

        let mut graph = PropertyGraph::new();
        let a = graph.add_node("city");
        graph.set_node_property(a, "name", "Lille");
        graph.set_node_property(a, "population", 234_000i64);
        let b = graph.add_node("city");
        graph.set_node_property(b, "name", "Paris");
        let e = graph.add_edge(a, b, "road");
        graph.set_edge_property(e, "distance", 225.0);
        graph.set_edge_property(e, "type", "highway");
        graph.add_edge(b, a, "train");

        let mut typed = PropertyGraph::new();
        let x = typed.add_node("city");
        let y = typed.add_node("city");
        typed.add_edge(x, y, "highway");

        let left = Relation::with_tuples(
            RelationSchema::new("parent", &["p", "c"]),
            vec![
                Tuple::new(vec![Value::text("ann"), Value::text("bob")]),
                Tuple::new(vec![Value::Int(1), Value::Null]),
                Tuple::new(vec![Value::Bool(true), Value::text("x")]),
            ],
        );
        let right = Relation::with_tuples(
            RelationSchema::new("age", &["n", "a"]),
            vec![Tuple::new(vec![Value::text("bob"), Value::Int(7)])],
        );

        CorpusSnapshot {
            name: "unit".to_string(),
            indexes: vec![NodeIndex::build(&doc), NodeIndex::build(&doc2)],
            docs: vec![doc, doc2],
            graph_index: GraphIndex::build(&graph),
            graph,
            typed_index: GraphIndex::build(&typed),
            typed_graph: typed,
            left,
            right,
            demo_join_goal: JoinPredicate::from_pairs([(1usize, 0usize)]),
        }
    }

    fn assert_graphs_equal(a: &PropertyGraph, b: &PropertyGraph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for node in a.node_ids() {
            assert_eq!(a.node_label(node), b.node_label(node));
            let pa: Vec<_> = a.node_properties(node).collect();
            let pb: Vec<_> = b.node_properties(node).collect();
            assert_eq!(pa, pb);
        }
        for edge in a.edge_ids() {
            assert_eq!(a.source(edge), b.source(edge));
            assert_eq!(a.target(edge), b.target(edge));
            assert_eq!(a.edge_label(edge), b.edge_label(edge));
            let pa: Vec<_> = a.edge_properties(edge).collect();
            let pb: Vec<_> = b.edge_properties(edge).collect();
            assert_eq!(pa, pb);
        }
    }

    fn assert_graph_indexes_equal(a: &GraphIndex, b: &GraphIndex) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.label_count(), b.label_count());
        for lid in 0..a.label_count() as u32 {
            assert_eq!(a.label(lid), b.label(lid));
            assert_eq!(a.label_edge_count(lid), b.label_edge_count(lid));
        }
        for v in 0..a.node_count() as u32 {
            assert_eq!(a.successor_bits(GNodeId(v)), b.successor_bits(GNodeId(v)));
            assert_eq!(
                a.predecessor_bits(GNodeId(v)),
                b.predecessor_bits(GNodeId(v))
            );
            assert_eq!(a.out_edges(GNodeId(v)), b.out_edges(GNodeId(v)));
        }
        let mut la: Vec<_> = a.node_label_entries().collect();
        let mut lb: Vec<_> = b.node_label_entries().collect();
        la.sort_by_key(|(l, _)| *l);
        lb.sort_by_key(|(l, _)| *l);
        assert_eq!(la, lb);
    }

    #[test]
    fn corpus_round_trips_through_the_snapshot_format() {
        let original = sample();
        let bytes = original.encode();
        let reader = SnapshotReader::open(MemBackend::new(bytes)).unwrap();
        let decoded = CorpusSnapshot::decode(&reader).unwrap();

        assert_eq!(decoded.name, original.name);
        assert_eq!(decoded.docs, original.docs);
        assert_eq!(decoded.indexes.len(), original.indexes.len());
        for (a, b) in decoded.indexes.iter().zip(original.indexes.iter()) {
            assert_eq!(a.node_count(), b.node_count());
            assert_eq!(a.pre_ranks(), b.pre_ranks());
            assert_eq!(a.subtree_ends(), b.subtree_ends());
            assert_eq!(a.depths(), b.depths());
            assert_eq!(a.parents(), b.parents());
            let mut pa: Vec<_> = a.posting_entries().collect();
            let mut pb: Vec<_> = b.posting_entries().collect();
            pa.sort_by_key(|(l, _)| *l);
            pb.sort_by_key(|(l, _)| *l);
            assert_eq!(pa, pb);
        }
        assert_graphs_equal(&decoded.graph, &original.graph);
        assert_graph_indexes_equal(&decoded.graph_index, &original.graph_index);
        assert_graphs_equal(&decoded.typed_graph, &original.typed_graph);
        assert_graph_indexes_equal(&decoded.typed_index, &original.typed_index);
        assert_eq!(decoded.left, original.left);
        assert_eq!(decoded.right, original.right);
        assert_eq!(decoded.demo_join_goal, original.demo_join_goal);
    }

    #[test]
    fn encoding_is_byte_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }

    #[test]
    fn mismatched_document_counts_are_corrupt() {
        let mut snapshot = sample();
        snapshot.indexes.pop();
        let bytes = snapshot.encode();
        let reader = SnapshotReader::open(MemBackend::new(bytes)).unwrap();
        assert!(matches!(
            CorpusSnapshot::decode(&reader),
            Err(StoreError::Corrupt(_))
        ));
    }

    /// `sample()` re-emitted through a fresh writer after `mutate` edits the payload of its
    /// `section`-th section, so the checksums cover the mutation and the decoder sees it.
    fn resealed_sample(section: usize, mut mutate: impl FnMut(&mut Vec<u8>)) -> Vec<u8> {
        let reader = SnapshotReader::open(MemBackend::new(sample().encode())).unwrap();
        let mut writer = SnapshotWriter::new();
        for (ix, kind) in reader.kinds().enumerate() {
            let mut payload = reader.read_section(kind).unwrap();
            if ix == section {
                mutate(&mut payload);
            }
            writer.section(kind, payload);
        }
        writer.finish()
    }

    fn decode_bytes(bytes: Vec<u8>) -> Result<CorpusSnapshot, StoreError> {
        CorpusSnapshot::decode(&SnapshotReader::open(MemBackend::new(bytes))?)
    }

    #[test]
    fn a_count_overwritten_anywhere_decodes_or_errs() {
        let reader = SnapshotReader::open(MemBackend::new(sample().encode())).unwrap();
        let kinds: Vec<u32> = reader.kinds().collect();
        for (section, kind) in kinds.into_iter().enumerate() {
            let len = reader.read_section(kind).unwrap().len();
            for at in 0..len.saturating_sub(3) {
                let _ = decode_bytes(resealed_sample(section, |payload| {
                    payload[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes())
                }));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, as a file and as one section's payload, and valid snapshots with
        /// one `u32` overwritten or a few bytes flipped in one section, decode to a corpus or
        /// an error — never a panic or an abort.
        #[test]
        fn decode_survives_arbitrary_and_mutated_snapshots(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let garbage: Vec<u8> = (0..rng.gen_range(0..256))
                .map(|_| rng.gen_range(0..=255))
                .collect();
            let _ = decode_bytes(garbage.clone());
            let section = rng.gen_range(0..8);
            let _ = decode_bytes(resealed_sample(section, |payload| payload.clone_from(&garbage)));

            let section = rng.gen_range(0..8);
            let bytes = resealed_sample(section, |payload| {
                if payload.len() >= 4 && rng.gen_bool(0.5) {
                    let at = rng.gen_range(0..payload.len() - 3);
                    let value = if rng.gen_bool(0.5) { u32::MAX } else { rng.gen() };
                    payload[at..at + 4].copy_from_slice(&value.to_le_bytes());
                } else {
                    for _ in 0..rng.gen_range(1..4) {
                        let at = rng.gen_range(0..payload.len());
                        payload[at] ^= rng.gen_range(1u8..=255);
                    }
                }
            });
            let _ = decode_bytes(bytes);
        }
    }

    #[test]
    fn duplicate_attribute_names_are_corrupt() {
        let mut e = Enc::new();
        e.str("r");
        e.u32(2);
        e.str("a");
        e.str("a");
        e.u32(0); // no tuples
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(dec_relation(&mut d), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn edge_referencing_a_missing_node_is_corrupt() {
        let mut e = Enc::new();
        e.u32(1); // one node
        e.str("city");
        e.u32(0); // no props
        e.u32(1); // one edge
        e.u32(0);
        e.u32(5); // target out of range
        e.str("road");
        e.u32(0);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(dec_graph(&mut d), Err(StoreError::Corrupt(_))));
    }
}
