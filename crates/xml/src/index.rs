//! A read-only structural index over an [`XmlTree`], built once and shared by many queries.
//!
//! Every learner in the workspace evaluates a long stream of candidate queries against the same
//! handful of documents; walking the whole tree for each evaluation is the hot path of the
//! interactive experiments. [`NodeIndex`] precomputes, in one O(n) pass:
//!
//! * **label postings** — for every label, the nodes carrying it as a dense bitset over the
//!   node universe, so a query node test starts from its candidate nodes instead of the whole
//!   document, and one word-level AND intersects them with another match set;
//! * **preorder intervals** — each node's preorder rank and the (half-open) rank interval of
//!   its subtree, giving O(1) ancestor/descendant tests;
//! * **depth and parent arrays** — flat copies of the tree's structural accessors, laid out for
//!   cache-friendly upward walks.
//!
//! The index is immutable and contains no references into the tree, so it can be built once,
//! wrapped in an `Arc`, and shared across concurrent sessions (see `qbe_twig::TwigSession`). It is
//! only meaningful for the exact tree it was built from; callers are responsible for not mixing
//! indexes and trees up (the node count is checked in debug builds by the consumers).

use crate::tree::{NodeId, XmlTree};
use qbe_bitset::DenseSet;
use std::collections::HashMap;

/// Immutable structural index of one [`XmlTree`].
#[derive(Debug, Clone)]
pub struct NodeIndex {
    /// `postings_bits[label]` = the nodes with that label, as a dense bitset over the node
    /// universe — what the bitwise match-set kernels of the indexed evaluators start from.
    postings_bits: HashMap<String, DenseSet<NodeId>>,
    /// The full node universe as a bitset (the unconstrained-wildcard start set).
    all_bits: DenseSet<NodeId>,
    /// Preorder rank of each node (root has rank 0).
    pre: Vec<u32>,
    /// Half-open end of each node's preorder interval: the subtree of `n` is exactly the nodes
    /// with rank in `pre[n]..subtree_end[n]`.
    subtree_end: Vec<u32>,
    /// Depth of each node (root is 0).
    depth: Vec<u32>,
    /// Parent of each node (`None` for the root).
    parent: Vec<Option<NodeId>>,
}

impl NodeIndex {
    /// Build the index for a tree in a single preorder pass.
    pub fn build(tree: &XmlTree) -> NodeIndex {
        let n = tree.size();
        let mut postings_bits: HashMap<String, DenseSet<NodeId>> = HashMap::new();
        let mut depth = vec![0u32; n];
        let mut parent = vec![None; n];
        for node in tree.node_ids() {
            // Look the label up by `&str`: its string is allocated once, for its first node.
            let label = tree.label(node);
            match postings_bits.get_mut(label) {
                Some(bits) => {
                    bits.insert(node);
                }
                None => {
                    postings_bits.insert(label.to_string(), DenseSet::from_ids(n, [node]));
                }
            }
            parent[node.index()] = tree.parent(node);
            if let Some(p) = parent[node.index()] {
                // Parents precede children in the arena, so their depth is already final.
                depth[node.index()] = depth[p.index()] + 1;
            }
        }
        let mut pre = vec![0u32; n];
        let mut subtree_end = vec![0u32; n];
        let mut rank = 0u32;
        // Iterative preorder with an explicit exit action to close intervals.
        let mut stack: Vec<(NodeId, bool)> = vec![(XmlTree::ROOT, false)];
        while let Some((node, exiting)) = stack.pop() {
            if exiting {
                subtree_end[node.index()] = rank;
                continue;
            }
            pre[node.index()] = rank;
            rank += 1;
            stack.push((node, true));
            for &child in tree.children(node).iter().rev() {
                stack.push((child, false));
            }
        }
        NodeIndex {
            postings_bits,
            all_bits: DenseSet::full(n),
            pre,
            subtree_end,
            depth,
            parent,
        }
    }

    /// Every `(label, posting bitset)` pair, in arbitrary order.
    pub fn posting_entries(&self) -> impl Iterator<Item = (&str, &DenseSet<NodeId>)> {
        self.postings_bits
            .iter()
            .map(|(label, bits)| (label.as_str(), bits))
    }

    /// Number of indexed nodes.
    pub fn node_count(&self) -> usize {
        self.pre.len()
    }

    /// Nodes carrying `label` as a dense bitset over the node universe (`None` for unknown
    /// labels — callers treat it as the empty set). One word-level AND against another match
    /// set replaces a sorted-list intersection.
    pub fn postings_bits(&self, label: &str) -> Option<&DenseSet<NodeId>> {
        self.postings_bits.get(label)
    }

    /// Every node of the document as a dense bitset (the start set of an unconstrained `*`).
    pub fn all_bits(&self) -> &DenseSet<NodeId> {
        &self.all_bits
    }

    /// Number of distinct labels in the document.
    pub fn label_count(&self) -> usize {
        self.postings_bits.len()
    }

    /// Preorder rank of a node.
    pub fn preorder_rank(&self, node: NodeId) -> u32 {
        self.pre[node.index()]
    }

    /// Half-open preorder interval covered by the subtree of `node`.
    pub fn subtree_interval(&self, node: NodeId) -> (u32, u32) {
        (self.pre[node.index()], self.subtree_end[node.index()])
    }

    /// Whether `ancestor` is a **proper** ancestor of `descendant` — O(1).
    pub fn is_ancestor(&self, ancestor: NodeId, descendant: NodeId) -> bool {
        let d = self.pre[descendant.index()];
        self.pre[ancestor.index()] < d && d < self.subtree_end[ancestor.index()]
    }

    /// Depth of a node (root is 0) — O(1), unlike [`XmlTree::depth`]'s upward walk.
    pub fn depth(&self, node: NodeId) -> usize {
        self.depth[node.index()] as usize
    }

    /// Parent of a node (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    fn sample() -> XmlTree {
        TreeBuilder::new("site")
            .open("regions")
            .leaf("europe")
            .leaf("asia")
            .close()
            .open("people")
            .open("person")
            .leaf("name")
            .close()
            .close()
            .build()
    }

    #[test]
    fn postings_match_nodes_with_label() {
        let t = sample();
        let ix = NodeIndex::build(&t);
        for label in t.alphabet() {
            let bits = ix.postings_bits(&label).expect("label is present");
            assert_eq!(bits.universe(), t.size());
            assert_eq!(bits.iter().collect::<Vec<_>>(), t.nodes_with_label(&label));
        }
        assert!(ix.postings_bits("nonexistent").is_none());
        assert_eq!(ix.label_count(), t.alphabet().len());
        let entries: Vec<(&str, usize)> = ix
            .posting_entries()
            .map(|(label, bits)| (label, bits.len()))
            .collect();
        assert_eq!(entries.len(), ix.label_count());
        assert_eq!(entries.iter().map(|(_, n)| n).sum::<usize>(), t.size());
        assert_eq!(ix.all_bits().len(), t.size());
    }

    #[test]
    fn depth_and_parent_agree_with_tree() {
        let t = sample();
        let ix = NodeIndex::build(&t);
        for node in t.node_ids() {
            assert_eq!(ix.depth(node), t.depth(node));
            assert_eq!(ix.parent(node), t.parent(node));
        }
    }

    #[test]
    fn ancestor_test_agrees_with_ancestor_walk() {
        let t = sample();
        let ix = NodeIndex::build(&t);
        for a in t.node_ids() {
            for b in t.node_ids() {
                assert_eq!(
                    ix.is_ancestor(a, b),
                    t.ancestors(b).contains(&a),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn subtree_interval_counts_descendants() {
        let t = sample();
        let ix = NodeIndex::build(&t);
        for node in t.node_ids() {
            let (lo, hi) = ix.subtree_interval(node);
            assert_eq!((hi - lo) as usize, t.descendants(node).len() + 1);
        }
        assert_eq!(ix.subtree_interval(XmlTree::ROOT), (0, t.size() as u32));
    }

    #[test]
    fn single_node_tree() {
        let t = XmlTree::new("only");
        let ix = NodeIndex::build(&t);
        assert_eq!(ix.node_count(), 1);
        let only: Vec<NodeId> = ix.postings_bits("only").unwrap().iter().collect();
        assert_eq!(only, [XmlTree::ROOT]);
        assert!(!ix.is_ancestor(XmlTree::ROOT, XmlTree::ROOT));
    }
}
