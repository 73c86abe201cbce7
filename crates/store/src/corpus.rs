//! Corpus payload: section encoders for the inputs a serving corpus is built from.
//!
//! A [`CorpusSnapshot`] is the flat, owned form of what a server corpus is built from: the
//! XMark documents, the geographical property graph, and the relational pair with its demo
//! join goal. Everything derived from these (the documents' node indexes, the typed road view)
//! is rebuilt by the loader, so each index layout is known only by its own crate and a
//! snapshot cannot carry an index that disagrees with its document.
//! [`CorpusSnapshot::encode`] lays each substrate into its own snapshot section so a reader
//! can pull one substrate without deserialising the rest; [`CorpusSnapshot::decode`]
//! reverses it.
//!
//! Encoding is byte-deterministic: everything follows arena id order.

use crate::backend::Backend;
use crate::codec::{Dec, Enc};
use crate::snapshot::{SnapshotReader, SnapshotWriter};
use crate::StoreError;
use qbe_graph::{GNodeId, PropValue, PropertyGraph};
use qbe_relational::{JoinPredicate, Relation, RelationSchema, Tuple, Value};
use qbe_xml::{NodeId, XmlTree};
use std::collections::HashSet;

/// Section kinds of a corpus snapshot.
///
/// Kinds 3, 5, 6 and 7 held derived data (node indexes, the graph's adjacency index, the typed
/// road view and its index) in earlier snapshots. They are retired: never written, never
/// reused, and skipped by the decoder, so such a snapshot still opens.
pub mod section {
    /// Corpus name and substrate counts.
    pub const META: u32 = 1;
    /// The XMark document trees.
    pub const DOCS: u32 = 2;
    /// The geographical property graph.
    pub const GRAPH: u32 = 4;
    /// The relational pair plus the demo join goal.
    pub const RELATIONS: u32 = 8;
}

/// Owned, serialisable form of the inputs of one serving corpus.
#[derive(Debug, Clone)]
pub struct CorpusSnapshot {
    /// Corpus name (`tiny`, `small`, ...).
    pub name: String,
    /// XMark documents.
    pub docs: Vec<XmlTree>,
    /// Geographical property graph.
    pub graph: PropertyGraph,
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

        let mut g = Enc::new();
        enc_graph(&mut g, &self.graph);
        w.section(section::GRAPH, g.into_bytes());

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

        let graph_bytes = reader.read_section(section::GRAPH)?;
        let mut d = Dec::new(&graph_bytes);
        let graph = dec_graph(&mut d)?;
        d.finish()?;

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
            graph,
            left,
            right,
            demo_join_goal: JoinPredicate::from_pairs(pairs),
        })
    }
}

const NO_PARENT: u32 = u32::MAX;

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
            docs: vec![doc, doc2],
            graph,
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

    #[test]
    fn corpus_round_trips_through_the_snapshot_format() {
        let original = sample();
        let bytes = original.encode();
        let reader = SnapshotReader::open(MemBackend::new(bytes)).unwrap();
        assert_eq!(
            reader.kinds().collect::<Vec<_>>(),
            [
                section::META,
                section::DOCS,
                section::GRAPH,
                section::RELATIONS
            ]
        );
        let decoded = CorpusSnapshot::decode(&reader).unwrap();

        assert_eq!(decoded.name, original.name);
        assert_eq!(decoded.docs, original.docs);
        assert_graphs_equal(&decoded.graph, &original.graph);
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
        // META (the first section) ends with the document count; declare one more than DOCS holds.
        let bytes = resealed_sample(0, |meta| {
            let at = meta.len() - 4;
            meta[at..].copy_from_slice(&3u32.to_le_bytes());
        });
        match decode_bytes(bytes) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("DOCS"), "{msg}"),
            other => panic!("expected a count mismatch, got {other:?}"),
        }
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
            let section = rng.gen_range(0..4);
            let _ = decode_bytes(resealed_sample(section, |payload| payload.clone_from(&garbage)));

            let section = rng.gen_range(0..4);
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
