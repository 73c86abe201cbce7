//! Label-indexed adjacency for property graphs.
//!
//! The naive RPQ evaluator ([`crate::rpq::evaluate`]) scans every outgoing edge of a node and
//! string-compares its label against each NFA transition. [`GraphIndex`] interns the edge
//! labels once and keeps one adjacency: per node, one successor bitset and one predecessor
//! bitset per distinct label, so evaluation matches labels by integer id and reads the
//! neighbours of a node under one label as a single set. The index keeps no edge lists;
//! parallel edges collapse to one bit.
//!
//! Like `qbe_xml::NodeIndex`, the index is immutable and self-contained, so it can be built
//! once per graph and shared (behind an `Arc`) by every concurrent learning session over that
//! graph.
//!
//! The index implements [`qbe_algebra::Adjacency`], so algebra-lowered queries evaluate
//! directly against it — the per-label *reverse* bitsets (`in_bits`) make inverse labels
//! (`ℓ⁻`, the 2RPQ extension) native rather than requiring a transposition pass.

use crate::model::{GNodeId, PropertyGraph};
use qbe_bitset::DenseSet;
use std::collections::HashMap;

/// Immutable label-interned adjacency index of one [`PropertyGraph`].
#[derive(Debug, Clone)]
pub struct GraphIndex {
    labels: Vec<String>,
    label_ids: HashMap<String, u32>,
    /// `out_bits[node]` = per distinct outgoing label, the *set* of successors as a dense
    /// bitset over the node universe (sorted by label id). Parallel edges collapse to one bit.
    ///
    /// Memory trade-off: one `n/8`-byte bitset per `(node, distinct outgoing label)` pair —
    /// negligible for the geographical graphs the paper's experiments use, O(n²/8) per label on
    /// large dense graphs.
    out_bits: Vec<Vec<(u32, DenseSet<GNodeId>)>>,
    /// `in_bits[node]` = per distinct *incoming* label, the set of predecessors (sorted by
    /// label id) — the mirror of `out_bits` that makes inverse labels (`ℓ⁻`) evaluate natively.
    in_bits: Vec<Vec<(u32, DenseSet<GNodeId>)>>,
    /// `label_edge_counts[label id]` = number of edges carrying the label (the join planner's
    /// selectivity signal).
    label_edge_counts: Vec<usize>,
    /// Distinct node labels → the set of nodes carrying each (for `?l` node tests).
    node_label_sets: HashMap<String, DenseSet<GNodeId>>,
}

impl GraphIndex {
    /// Build the index in one pass over the edges.
    pub fn build(graph: &PropertyGraph) -> GraphIndex {
        let mut labels: Vec<String> = graph.edge_alphabet();
        labels.sort();
        let label_ids: HashMap<String, u32> = labels
            .iter()
            .enumerate()
            .map(|(ix, l)| (l.clone(), ix as u32))
            .collect();
        let mut out: Vec<Vec<(u32, GNodeId)>> = vec![Vec::new(); graph.node_count()];
        let mut rev: Vec<Vec<(u32, GNodeId)>> = vec![Vec::new(); graph.node_count()];
        let mut label_edge_counts = vec![0usize; labels.len()];
        for edge in graph.edge_ids() {
            let lid = label_ids[graph.edge_label(edge)];
            out[graph.source(edge).0 as usize].push((lid, graph.target(edge)));
            rev[graph.target(edge).0 as usize].push((lid, graph.source(edge)));
            label_edge_counts[lid as usize] += 1;
        }
        for adj in out.iter_mut().chain(rev.iter_mut()) {
            adj.sort_unstable();
        }
        let n = graph.node_count();
        let collapse = |adj: &[(u32, GNodeId)]| {
            let mut per_label: Vec<(u32, DenseSet<GNodeId>)> = Vec::new();
            for &(lid, target) in adj {
                match per_label.last_mut() {
                    Some((last, bits)) if *last == lid => {
                        bits.insert(target);
                    }
                    _ => per_label.push((lid, DenseSet::from_ids(n, [target]))),
                }
            }
            per_label
        };
        let out_bits = out.iter().map(|adj| collapse(adj)).collect();
        let in_bits = rev.iter().map(|adj| collapse(adj)).collect();
        let mut node_label_sets: HashMap<String, DenseSet<GNodeId>> = HashMap::new();
        for node in graph.node_ids() {
            node_label_sets
                .entry(graph.node_label(node).to_string())
                .or_insert_with(|| DenseSet::new(n))
                .insert(node);
        }
        GraphIndex {
            labels,
            label_ids,
            out_bits,
            in_bits,
            label_edge_counts,
            node_label_sets,
        }
    }

    /// Number of indexed nodes.
    pub fn node_count(&self) -> usize {
        self.out_bits.len()
    }

    /// Number of distinct edge labels.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// The interned id of a label (`None` when no edge carries it).
    pub fn label_id(&self, label: &str) -> Option<u32> {
        self.label_ids.get(label).copied()
    }

    /// The label behind an interned id.
    pub fn label(&self, id: u32) -> &str {
        &self.labels[id as usize]
    }

    /// Successor set of `node` under one label, when any exists.
    pub fn successor_set(&self, node: GNodeId, label_id: u32) -> Option<&DenseSet<GNodeId>> {
        lookup_label(&self.out_bits[node.0 as usize], label_id)
    }

    /// Predecessor set of `node` under one label, when any exists: the reverse mirror of
    /// [`successor_set`](Self::successor_set), backing native inverse-label (`ℓ⁻`) evaluation.
    pub fn predecessor_set(&self, node: GNodeId, label_id: u32) -> Option<&DenseSet<GNodeId>> {
        lookup_label(&self.in_bits[node.0 as usize], label_id)
    }

    /// Number of edges carrying the label.
    pub fn label_edge_count(&self, label_id: u32) -> usize {
        self.label_edge_counts[label_id as usize]
    }

    /// The set of nodes carrying a node label (`None` when no node does).
    pub fn nodes_labelled(&self, label: &str) -> Option<&DenseSet<GNodeId>> {
        self.node_label_sets.get(label)
    }
}

fn lookup_label(
    per_label: &[(u32, DenseSet<GNodeId>)],
    label_id: u32,
) -> Option<&DenseSet<GNodeId>> {
    per_label
        .binary_search_by_key(&label_id, |&(l, _)| l)
        .ok()
        .map(|ix| &per_label[ix].1)
}

/// Algebra-lowered queries evaluate straight against the index: forward rows from `out_bits`,
/// reverse rows from `in_bits` (native `ℓ⁻`), selectivity from the per-label edge counts.
impl qbe_algebra::Adjacency for GraphIndex {
    type Id = GNodeId;

    fn node_count(&self) -> usize {
        GraphIndex::node_count(self)
    }

    fn label_count(&self) -> usize {
        GraphIndex::label_count(self)
    }

    fn resolve_label(&self, name: &str) -> Option<usize> {
        self.label_id(name).map(|l| l as usize)
    }

    fn successors_of(&self, node: usize, label: usize) -> Option<&DenseSet<GNodeId>> {
        self.successor_set(GNodeId(node as u32), label as u32)
    }

    fn predecessors_of(&self, node: usize, label: usize) -> Option<&DenseSet<GNodeId>> {
        self.predecessor_set(GNodeId(node as u32), label as u32)
    }

    fn label_edge_count(&self, label: usize) -> usize {
        GraphIndex::label_edge_count(self, label as u32)
    }

    fn nodes_with_node_label(&self, name: &str) -> DenseSet<GNodeId> {
        self.nodes_labelled(name)
            .cloned()
            .unwrap_or_else(|| DenseSet::new(self.node_count()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn graph() -> (PropertyGraph, Vec<GNodeId>) {
        let mut g = PropertyGraph::new();
        let n: Vec<GNodeId> = (0..4).map(|_| g.add_node("city")).collect();
        g.add_edge(n[0], n[1], "road");
        g.add_edge(n[0], n[2], "train");
        g.add_edge(n[0], n[3], "road");
        g.add_edge(n[1], n[2], "road");
        (g, n)
    }

    #[test]
    fn labels_are_interned_sorted() {
        let (g, _) = graph();
        let ix = GraphIndex::build(&g);
        assert_eq!(ix.label_count(), 2);
        assert_eq!(ix.label(ix.label_id("road").unwrap()), "road");
        assert_eq!(ix.label(ix.label_id("train").unwrap()), "train");
        assert!(ix.label_id("ferry").is_none());
    }

    fn members(set: Option<&DenseSet<GNodeId>>) -> Vec<GNodeId> {
        set.map(|s| s.iter().collect()).unwrap_or_default()
    }

    #[test]
    fn successors_enumerate_per_label() {
        let (g, n) = graph();
        let ix = GraphIndex::build(&g);
        let road = ix.label_id("road").unwrap();
        let train = ix.label_id("train").unwrap();
        assert_eq!(members(ix.successor_set(n[0], road)), vec![n[1], n[3]]);
        assert_eq!(members(ix.successor_set(n[0], train)), vec![n[2]]);
        assert!(ix.successor_set(n[2], road).is_none());
    }

    #[test]
    fn successor_sets_hold_every_edge_once() {
        let (g, _) = graph();
        let ix = GraphIndex::build(&g);
        for e in g.edge_ids() {
            let label = ix.label_id(g.edge_label(e)).unwrap();
            assert!(
                ix.successor_set(g.source(e), label)
                    .is_some_and(|s| s.contains(g.target(e))),
                "edge {e:?} missing"
            );
        }
        // Without parallel edges the sets hold exactly one member per edge.
        let total: usize = g
            .node_ids()
            .flat_map(|v| (0..ix.label_count() as u32).map(move |l| (v, l)))
            .map(|(v, l)| ix.successor_set(v, l).map_or(0, DenseSet::len))
            .sum();
        assert_eq!(total, g.edge_count());
        assert_eq!(ix.node_count(), g.node_count());
    }

    #[test]
    fn successor_sets_agree_with_the_edges_and_collapse_parallel_edges() {
        let (mut g, n) = graph();
        // A parallel road edge: the graph gains an edge, the successor set does not.
        g.add_edge(n[0], n[1], "road");
        let ix = GraphIndex::build(&g);
        let road = ix.label_id("road").unwrap();
        assert_eq!(members(ix.successor_set(n[0], road)), vec![n[1], n[3]]);
        assert_eq!(
            ix.label_edge_count(road),
            4,
            "the edge count keeps parallel edges"
        );
        // Every (node, label) pair has exactly the successors its edges name, and no set
        // exists for a pair no edge carries.
        for v in g.node_ids() {
            for lid in 0..ix.label_count() as u32 {
                let want: BTreeSet<GNodeId> = g
                    .edge_ids()
                    .filter(|&e| g.source(e) == v && ix.label_id(g.edge_label(e)) == Some(lid))
                    .map(|e| g.target(e))
                    .collect();
                let got = ix.successor_set(v, lid);
                assert_eq!(got.is_some(), !want.is_empty(), "{v:?} label {lid}");
                assert_eq!(members(got), Vec::from_iter(want), "{v:?} label {lid}");
            }
        }
    }

    #[test]
    fn predecessor_sets_mirror_successor_sets() {
        let (g, n) = graph();
        let ix = GraphIndex::build(&g);
        let road = ix.label_id("road").unwrap();
        let train = ix.label_id("train").unwrap();
        // Every forward (s, l, t) appears as a reverse (t, l, s) and vice versa.
        for s in g.node_ids() {
            for lid in 0..ix.label_count() as u32 {
                for t in members(ix.successor_set(s, lid)) {
                    assert!(
                        ix.predecessor_set(t, lid).is_some_and(|p| p.contains(s)),
                        "missing reverse edge {s:?} -{lid}-> {t:?}"
                    );
                }
                for p in members(ix.predecessor_set(s, lid)) {
                    assert!(ix.successor_set(p, lid).is_some_and(|o| o.contains(s)));
                }
            }
        }
        assert_eq!(members(ix.predecessor_set(n[2], road)), vec![n[1]]);
        assert_eq!(members(ix.predecessor_set(n[2], train)), vec![n[0]]);
        assert!(ix.predecessor_set(n[0], road).is_none());
        assert_eq!(ix.label_edge_count(road), 3);
        assert_eq!(ix.label_edge_count(train), 1);
        assert_eq!(ix.nodes_labelled("city").map(DenseSet::len), Some(4));
        assert!(ix.nodes_labelled("station").is_none());
    }
}
