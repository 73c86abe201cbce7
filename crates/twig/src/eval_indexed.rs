//! Indexed twig-query evaluation: dense-bitset match sets with memoised sub-twig matches.
//!
//! [`crate::eval`] answers each query by filling a dense `|query| × |document|` boolean table —
//! robust, but every evaluation walks the whole document even when the query's labels are rare.
//! The interactive learners evaluate thousands of candidate queries against the same documents,
//! which makes that walk the hot path of the whole reproduction.
//!
//! This module evaluates against a prebuilt [`NodeIndex`] instead, with every match set held as
//! a [`DenseSet<NodeId>`] (a u64-word bitset over the document's node universe):
//!
//! * each query node starts from the **posting bitset** of its label (all nodes for `*`), so
//!   the work is proportional to the document's word count, not its node count;
//! * child/descendant structure is enforced by **word-level intersection** (`AND`): a
//!   child-axis edge intersects with the parents of the child's matches, a descendant-axis edge
//!   with their proper-ancestor closure (computed once per edge, the output bitset doubling as
//!   the visited map);
//! * structurally identical sub-twigs (the same filter attached at several spine positions, or
//!   re-asked across calls) are **memoised** by their canonical encoding in an [`EvalCache`],
//!   so a session that evaluates many near-identical candidates pays for each distinct filter
//!   once per document — and the cache's [`SetArena`] recycles every transient bitset, so the
//!   steady state allocates nothing;
//! * results iterate in ascending [`NodeId`] order, exactly the order of the sorted
//!   representations this kernel replaced.
//!
//! The differential property suites (`crates/twig/tests/prop_eval_indexed.rs` and the
//! workspace-root `tests/prop_bitset.rs`) pin `select`/`selects`/`count` here to be
//! extensionally equal to [`crate::eval`] on hundreds of random documents and queries; the
//! naive evaluator stays in-tree as the executable specification.

use crate::query::{Axis, QNodeId, TwigQuery};
use qbe_bitset::{DenseSet, SetArena};
use qbe_xml::{NodeId, NodeIndex, XmlTree};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Canonical identity of a sub-twig, as interned components: the node test (0 for `*`, label
/// id + 1 otherwise) plus the sorted `(axis, child shape id)` pairs. Hash-consing these in the
/// [`EvalCache`] replaces the string-encoded canonical keys the memo used to build on every
/// probe — identity checks become small integer hashes, with injectivity by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ShapeKey {
    /// 0 for the wildcard, `label id + 1` for a label test.
    test: u32,
    /// `(axis, child shape id)` per child (0 = child axis, 1 = descendant), sorted so
    /// structurally equal filters built in different orders intern to one shape.
    children: Vec<(u8, u32)>,
}

/// Cross-call memo of sub-twig match sets for **one document**.
///
/// Sub-twigs are identified by hash-consed shape keys (label and shape interners live in the
/// cache), values are the bitsets of document nodes where each sub-twig can embed. The cache
/// never needs invalidation: documents and indexes are immutable. Reusing a cache with a
/// different document is a logic error; [`Evaluator`] ties the three together so callers cannot
/// mix them up.
#[derive(Debug, Clone, Default)]
pub struct EvalCache {
    /// Interned query labels (document-independent; grows with the distinct labels queried).
    label_ids: HashMap<String, u32>,
    /// Interned sub-twig shapes → dense shape ids.
    shapes: HashMap<ShapeKey, u32>,
    /// Match bitset per interned shape id (`None` until first computed). `Arc` so a cache hit
    /// is a reference bump, not a copy — and so the cache stays `Send` for sessions handed
    /// across qbe-server's worker threads.
    match_sets: Vec<Option<Arc<DenseSet<NodeId>>>>,
    /// Recycler for the transient bitsets of each evaluation (constraint sets, spine frontier).
    arena: SetArena,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> EvalCache {
        EvalCache::default()
    }

    /// Number of memoised sub-twig match sets.
    pub fn len(&self) -> usize {
        self.match_sets.iter().filter(|m| m.is_some()).count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hand a result bitset obtained from this cache's evaluations back to its arena, so the
    /// next evaluation reuses the buffer. Callers that keep the result alive simply skip this.
    pub fn recycle(&mut self, bits: DenseSet<NodeId>) {
        self.arena.put(bits);
    }

    /// Intern a query label.
    fn label_id(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let id = self.label_ids.len() as u32;
        self.label_ids.insert(label.to_string(), id);
        id
    }

    /// Intern one shape, registering a match-set slot for new shapes.
    fn shape_id(&mut self, key: ShapeKey) -> u32 {
        if let Some(&id) = self.shapes.get(&key) {
            return id;
        }
        let id = self.match_sets.len() as u32;
        self.shapes.insert(key, id);
        self.match_sets.push(None);
        id
    }
}

/// One document, its index, and the memo of sub-twig matches — the unit a session keeps per
/// document and reuses across every candidate evaluation.
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    doc: &'a XmlTree,
    index: &'a NodeIndex,
    cache: EvalCache,
}

impl<'a> Evaluator<'a> {
    /// Wrap a document and its prebuilt index.
    pub fn new(doc: &'a XmlTree, index: &'a NodeIndex) -> Evaluator<'a> {
        debug_assert_eq!(
            doc.size(),
            index.node_count(),
            "index built for another tree"
        );
        Evaluator {
            doc,
            index,
            cache: EvalCache::new(),
        }
    }

    /// The document this evaluator answers for.
    pub fn document(&self) -> &'a XmlTree {
        self.doc
    }

    /// Evaluate into a dense bitset over the document's nodes.
    pub fn select_bits(&mut self, query: &TwigQuery) -> DenseSet<NodeId> {
        select_spine(query, self.doc, self.index, &mut self.cache)
    }

    /// Evaluate: all document nodes selected by some embedding (ascending id order).
    pub fn select_vec(&mut self, query: &TwigQuery) -> Vec<NodeId> {
        self.select_bits(query).iter().collect()
    }

    /// Evaluate into the same set type [`crate::eval::select`] returns.
    pub fn select(&mut self, query: &TwigQuery) -> BTreeSet<NodeId> {
        self.select_bits(query).iter().collect()
    }

    /// Whether the query selects the given node.
    pub fn selects(&mut self, query: &TwigQuery, node: NodeId) -> bool {
        self.select_bits(query).contains(node)
    }

    /// Number of selected nodes, without materialising a set (one popcount pass).
    pub fn count(&mut self, query: &TwigQuery) -> usize {
        self.select_bits(query).len()
    }

    /// Whether the query selects at least one node.
    pub fn matches(&mut self, query: &TwigQuery) -> bool {
        !self.select_bits(query).is_empty()
    }
}

/// Indexed evaluation against an externally owned memo, as a dense bitset — the entry point for
/// sessions that keep one [`EvalCache`] per document across many candidate queries without
/// holding a borrow of the document (see `TwigSession`).
pub fn select_bits_with(
    query: &TwigQuery,
    doc: &XmlTree,
    index: &NodeIndex,
    cache: &mut EvalCache,
) -> DenseSet<NodeId> {
    select_spine(query, doc, index, cache)
}

/// [`select_bits_with`] materialised as the sorted answer list.
pub fn select_vec_with(
    query: &TwigQuery,
    doc: &XmlTree,
    index: &NodeIndex,
    cache: &mut EvalCache,
) -> Vec<NodeId> {
    let bits = select_spine(query, doc, index, cache);
    let out = bits.iter().collect();
    cache.arena.put(bits);
    out
}

/// Membership variant of [`select_bits_with`].
pub fn selects_with(
    query: &TwigQuery,
    doc: &XmlTree,
    index: &NodeIndex,
    cache: &mut EvalCache,
    node: NodeId,
) -> bool {
    let bits = select_spine(query, doc, index, cache);
    let hit = bits.contains(node);
    cache.arena.put(bits);
    hit
}

/// Whether `query` classifies every `(node, expected)` label of one document correctly: one
/// indexed evaluation, then a bit test per label. The consistency checkers
/// (`ExampleSet::consistent_with`, `TwigSession`) all funnel through this.
pub fn classifies_with(
    query: &TwigQuery,
    doc: &XmlTree,
    index: &NodeIndex,
    cache: &mut EvalCache,
    labels: impl IntoIterator<Item = (NodeId, bool)>,
) -> bool {
    let selected = select_spine(query, doc, index, cache);
    let ok = labels
        .into_iter()
        .all(|(node, expected)| selected.contains(node) == expected);
    cache.arena.put(selected);
    ok
}

/// One-shot indexed evaluation (fresh memo). Sessions should hold an [`Evaluator`] or an
/// [`EvalCache`] instead so the memo survives across candidate queries.
pub fn select(query: &TwigQuery, doc: &XmlTree, index: &NodeIndex) -> BTreeSet<NodeId> {
    Evaluator::new(doc, index).select(query)
}

/// One-shot indexed membership test.
pub fn selects(query: &TwigQuery, doc: &XmlTree, index: &NodeIndex, node: NodeId) -> bool {
    Evaluator::new(doc, index).selects(query, node)
}

/// One-shot indexed count.
pub fn count(query: &TwigQuery, doc: &XmlTree, index: &NodeIndex) -> usize {
    Evaluator::new(doc, index).count(query)
}

/// One-shot indexed Boolean match.
pub fn matches(query: &TwigQuery, doc: &XmlTree, index: &NodeIndex) -> bool {
    Evaluator::new(doc, index).matches(query)
}

/// Interned shape ids of the sub-twig rooted at every query node, *excluding* incoming axes
/// (the match set of a subtree does not depend on how it hangs off its parent). Children are
/// sorted so structurally equal filters built in different orders intern to one shape.
///
/// Computed for the whole query in one reverse-id pass (children always carry higher ids than
/// their parent, so their shape ids are ready when the parent is interned); the evaluator calls
/// this once per evaluation, and every memo probe afterwards is a dense index.
fn subtwig_shapes(query: &TwigQuery, cache: &mut EvalCache) -> Vec<u32> {
    use crate::query::NodeTest;
    let n = query.node_ids().count();
    let mut shapes = vec![0u32; n];
    for ix in (0..n).rev() {
        let q = QNodeId(ix as u32);
        let test = match query.test(q) {
            NodeTest::Wildcard => 0,
            NodeTest::Label(l) => cache.label_id(l) + 1,
        };
        let mut children: Vec<(u8, u32)> = query
            .children(q)
            .iter()
            .map(|&c| {
                let axis = match query.axis(c) {
                    Axis::Child => 0u8,
                    Axis::Descendant => 1u8,
                };
                (axis, shapes[c.index()])
            })
            .collect();
        children.sort_unstable();
        shapes[ix] = cache.shape_id(ShapeKey { test, children });
    }
    shapes
}

/// Bitset of nodes where the sub-twig rooted at `q` can embed (with `q` mapped to them).
/// Cache hits cost one `Arc` clone.
fn match_set(
    query: &TwigQuery,
    q: QNodeId,
    shapes: &[u32],
    index: &NodeIndex,
    cache: &mut EvalCache,
) -> Arc<DenseSet<NodeId>> {
    if let Some(hit) = &cache.match_sets[shapes[q.index()] as usize] {
        return hit.clone();
    }
    // Children first (postorder); each child's set is cached under its own shape, so the
    // recursion re-pays nothing for repeated filters.
    let mut constraints: Vec<DenseSet<NodeId>> = Vec::with_capacity(query.children(q).len());
    for &child in query.children(q) {
        let child_matches = match_set(query, child, shapes, index, cache);
        let relatives = match query.axis(child) {
            Axis::Child => parent_set(&child_matches, index, &mut cache.arena),
            Axis::Descendant => ancestor_closure(&child_matches, index, &mut cache.arena),
        };
        constraints.push(relatives);
    }
    let mut result = candidate_nodes(query, q, index, &constraints, &mut cache.arena);
    for constraint in &constraints {
        result.and_with(constraint);
        if result.is_empty() {
            break;
        }
    }
    for constraint in constraints {
        cache.arena.put(constraint);
    }
    let result = Arc::new(result);
    cache.match_sets[shapes[q.index()] as usize] = Some(result.clone());
    result
}

/// Initial candidates for a query node: its posting bitset, or — for a wildcard — the smallest
/// structural constraint when one exists (intersecting the others against it), falling back to
/// every node only for an unconstrained `*` leaf.
fn candidate_nodes(
    query: &TwigQuery,
    q: QNodeId,
    index: &NodeIndex,
    constraints: &[DenseSet<NodeId>],
    arena: &mut SetArena,
) -> DenseSet<NodeId> {
    use crate::query::NodeTest;
    match query.test(q) {
        NodeTest::Label(l) => match index.postings_bits(l) {
            Some(bits) => arena.take_copy(bits),
            None => arena.take(index.node_count()),
        },
        NodeTest::Wildcard => match constraints.iter().min_by_key(|c| c.len()) {
            Some(smallest) => arena.take_copy(smallest),
            None => arena.take_copy(index.all_bits()),
        },
    }
}

/// Bitset of parents of any node in the set.
fn parent_set(
    nodes: &DenseSet<NodeId>,
    index: &NodeIndex,
    arena: &mut SetArena,
) -> DenseSet<NodeId> {
    let mut out = arena.take(index.node_count());
    for n in nodes.iter() {
        if let Some(p) = index.parent(n) {
            out.insert(p);
        }
    }
    out
}

/// Bitset of **proper** ancestors of any node in the set. The output bitset doubles as the
/// visited map, so the total work is linear in the output plus the input: each upward walk
/// stops at the first already-collected ancestor.
fn ancestor_closure(
    nodes: &DenseSet<NodeId>,
    index: &NodeIndex,
    arena: &mut SetArena,
) -> DenseSet<NodeId> {
    let mut out = arena.take(index.node_count());
    for n in nodes.iter() {
        let mut cur = index.parent(n);
        while let Some(p) = cur {
            if !out.insert(p) {
                break;
            }
            cur = index.parent(p);
        }
    }
    out
}

/// The top-down spine pass: restrict the bottom-up match sets to nodes actually reachable from
/// an admissible image of the query root, and return the images of the selected node.
fn select_spine(
    query: &TwigQuery,
    doc: &XmlTree,
    index: &NodeIndex,
    cache: &mut EvalCache,
) -> DenseSet<NodeId> {
    let shapes = subtwig_shapes(query, cache);
    let root_matches = match_set(query, QNodeId::ROOT, &shapes, index, cache);
    let mut current: DenseSet<NodeId> = match query.axis(QNodeId::ROOT) {
        // `/label…`: the query root must map to the document's root element.
        Axis::Child => {
            let mut only_root = cache.arena.take(index.node_count());
            if root_matches.contains(XmlTree::ROOT) {
                only_root.insert(XmlTree::ROOT);
            }
            only_root
        }
        // `//label…`: any matching element. The one unavoidable copy out of the memo: the
        // spine pass filters `current` in place while the cached set must stay intact.
        Axis::Descendant => cache.arena.take_copy(root_matches.as_ref()),
    };
    let spine = query.spine();
    for window in spine.windows(2) {
        if current.is_empty() {
            break;
        }
        let child_q = window[1];
        let child_matches = match_set(query, child_q, &shapes, index, cache);
        let next = match query.axis(child_q) {
            Axis::Child => {
                let mut next = cache.arena.take(index.node_count());
                for t in current.iter() {
                    for &c in doc.children(t) {
                        if child_matches.contains(c) {
                            next.insert(c);
                        }
                    }
                }
                next
            }
            Axis::Descendant => below_any(&current, &child_matches, index, &mut cache.arena),
        };
        cache.arena.put(current);
        current = next;
    }
    current
}

/// Nodes of `candidates` having a **proper** ancestor in `current`, via merged preorder
/// intervals: ancestors' intervals are either nested or disjoint, so after dropping intervals
/// contained in a previously kept one, membership is a single binary search per candidate.
fn below_any(
    current: &DenseSet<NodeId>,
    candidates: &DenseSet<NodeId>,
    index: &NodeIndex,
    arena: &mut SetArena,
) -> DenseSet<NodeId> {
    let mut intervals: Vec<(u32, u32)> =
        current.iter().map(|n| index.subtree_interval(n)).collect();
    intervals.sort_unstable();
    let mut merged: Vec<(u32, u32)> = Vec::with_capacity(intervals.len());
    for (lo, hi) in intervals {
        match merged.last() {
            Some(&(_, prev_hi)) if hi <= prev_hi => {} // nested inside the previous interval
            _ => merged.push((lo, hi)),
        }
    }
    let mut out = arena.take(index.node_count());
    for m in candidates.iter() {
        let rank = index.preorder_rank(m);
        // Last kept interval starting strictly before `rank`: equality would mean the
        // interval is `m`'s own subtree, which only witnesses improper descent.
        let pos = merged.partition_point(|&(lo, _)| lo < rank);
        if pos > 0 && merged[pos - 1].1 > rank {
            out.insert(m);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use crate::query::NodeTest;
    use crate::xpath::parse_xpath;
    use qbe_xml::TreeBuilder;

    fn doc() -> XmlTree {
        TreeBuilder::new("site")
            .open("people")
            .open("person")
            .leaf("name")
            .leaf("emailaddress")
            .open("profile")
            .leaf("age")
            .close()
            .close()
            .open("person")
            .leaf("name")
            .close()
            .close()
            .open("regions")
            .open("europe")
            .open("item")
            .leaf("name")
            .close()
            .close()
            .close()
            .build()
    }

    fn check(xpath: &str, d: &XmlTree) {
        let q = parse_xpath(xpath).unwrap();
        let ix = NodeIndex::build(d);
        assert_eq!(
            select(&q, d, &ix),
            eval::select(&q, d),
            "indexed ≠ naive for {xpath}"
        );
        assert_eq!(count(&q, d, &ix), eval::count(&q, d), "count for {xpath}");
        assert_eq!(
            matches(&q, d, &ix),
            eval::matches(&q, d),
            "matches for {xpath}"
        );
    }

    #[test]
    fn agrees_with_naive_on_representative_queries() {
        let d = doc();
        for xpath in [
            "/site/people/person",
            "//name",
            "/site/person",
            "/site//age",
            "/site/people/person[emailaddress]",
            "/site/people/person[.//age]",
            "/site/people/person[age]",
            "/site/*/person",
            "/site/*",
            "//person[profile]/name",
            "/auction//person",
            "//person[profile[age]]",
            "//person[profile[income]]",
            "//*",
            "/*",
        ] {
            check(xpath, &d);
        }
    }

    #[test]
    fn proper_descendant_semantics() {
        let nested = TreeBuilder::new("a").leaf("a").build();
        check("//a//a", &nested);
        let single = XmlTree::new("a");
        check("//a//a", &single);
    }

    #[test]
    fn selects_matches_membership() {
        let d = doc();
        let ix = NodeIndex::build(&d);
        let q = parse_xpath("//person").unwrap();
        for node in d.node_ids() {
            assert_eq!(
                selects(&q, &d, &ix, node),
                eval::selects(&q, &d, node),
                "{node}"
            );
        }
    }

    #[test]
    fn evaluator_memoises_repeated_filters() {
        let d = doc();
        let ix = NodeIndex::build(&d);
        let mut ev = Evaluator::new(&d, &ix);
        // Two queries sharing the `[name]` filter sub-twig: the second must hit the memo.
        ev.select(&parse_xpath("//person[name]").unwrap());
        let after_first = ev.cache.len();
        ev.select(&parse_xpath("//item[name]").unwrap());
        assert!(!ev.cache.is_empty());
        // `name(…)` is one shared entry; only the new roots are added.
        assert!(ev.cache.len() < after_first * 2, "filter was recomputed");
        // And results stay correct after cache hits.
        assert_eq!(
            ev.select(&parse_xpath("//person[name]").unwrap()),
            eval::select(&parse_xpath("//person[name]").unwrap(), &d)
        );
    }

    #[test]
    fn transient_bitsets_are_recycled_across_evaluations() {
        let d = doc();
        let ix = NodeIndex::build(&d);
        let mut ev = Evaluator::new(&d, &ix);
        ev.select(&parse_xpath("//person[name]").unwrap());
        ev.select(&parse_xpath("//person[name]").unwrap());
        ev.select(&parse_xpath("//item[name]").unwrap());
        assert!(
            ev.cache.arena.recycled() > 0,
            "steady-state evaluations must reuse arena buffers"
        );
    }

    #[test]
    fn wildcard_and_literal_star_label_do_not_share_cache_entries() {
        // A document whose labels are exactly the strings the key encoding must not confuse
        // with its own structural characters.
        let d = TreeBuilder::new("*").leaf("(").leaf("a,b").build();
        let ix = NodeIndex::build(&d);
        let mut ev = Evaluator::new(&d, &ix);
        let star_label = TwigQuery::new(Axis::Descendant, NodeTest::label("*"));
        let wildcard = TwigQuery::new(Axis::Descendant, NodeTest::Wildcard);
        // Warm the cache with the literal-label query, then the wildcard query must still see
        // every node (and vice versa on a fresh evaluator).
        assert_eq!(ev.select(&star_label), eval::select(&star_label, &d));
        assert_eq!(ev.select(&wildcard), eval::select(&wildcard, &d));
        assert_eq!(ev.count(&wildcard), d.size());
        let mut fresh = Evaluator::new(&d, &ix);
        assert_eq!(fresh.select(&wildcard), eval::select(&wildcard, &d));
        assert_eq!(fresh.select(&star_label), eval::select(&star_label, &d));
        // Filters over the weird labels keep working through the shared memo too.
        let mut q = TwigQuery::new(Axis::Descendant, NodeTest::label("*"));
        q.add_node(
            crate::query::QNodeId::ROOT,
            Axis::Child,
            NodeTest::label("("),
        );
        assert_eq!(ev.select(&q), eval::select(&q, &d));
    }

    #[test]
    fn wildcard_spine_with_filters() {
        let d = doc();
        check("//*[name]", &d);
        check("/site/*[person[profile]]", &d);
    }

    #[test]
    fn path_constructor_queries_agree() {
        let d = doc();
        let q = TwigQuery::path([
            (Axis::Child, NodeTest::label("site")),
            (Axis::Descendant, NodeTest::Wildcard),
            (Axis::Child, NodeTest::label("name")),
        ]);
        let ix = NodeIndex::build(&d);
        assert_eq!(select(&q, &d, &ix), eval::select(&q, &d));
    }
}
