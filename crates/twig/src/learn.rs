//! Learning twig queries from positive examples.
//!
//! This is the workspace's re-implementation of the Staworko–Wieczorek style learner the paper
//! evaluates: from a set of positive examples (documents with one annotated node each) it
//! computes the **most specific anchored twig query** of its hypothesis space that selects every
//! annotated node. The hypothesis space is the practical one used in the paper's experiments:
//!
//! * a **spine** obtained by generalising the root-to-node label paths of all examples
//!   (label mismatches become wildcards/`//` edges via a longest-common-subsequence alignment);
//! * **filters** attached to spine nodes, drawn from the child and grandchild labels observed in
//!   the first example and kept only when compatible with *every* example.
//!
//! Keeping every compatible filter is precisely what produces the *overspecialised* queries the
//! paper describes ("the queries contain many conditions that follow from the schema of the
//! documents"); the schema-aware pruning of [`crate::schema_aware`] removes them again.

use crate::eval_indexed::{self, EvalCache};
use crate::query::{Axis, NodeTest, QNodeId, TwigQuery};
use qbe_xml::{NodeId, NodeIndex, XmlTree};
use std::collections::BTreeSet;
use std::fmt;

/// Error raised by the learners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwigLearnError {
    /// The positive example set is empty.
    NoExamples,
}

impl fmt::Display for TwigLearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TwigLearnError::NoExamples => write!(f, "cannot learn a twig query from zero examples"),
        }
    }
}

impl std::error::Error for TwigLearnError {}

/// One step of the generalised spine.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpineStep {
    axis: Axis,
    test: NodeTest,
    /// Index of the corresponding ancestor in the *first* example's root-to-node path; used to
    /// harvest candidate filters. Lost (None) when the step was generalised to a wildcard that
    /// no longer corresponds to a first-example ancestor.
    first_example_index: Option<usize>,
}

/// Learn the most specific **path query** (no filters) selecting every positive example.
pub fn learn_path_from_positives(
    examples: &[(&XmlTree, NodeId)],
) -> Result<TwigQuery, TwigLearnError> {
    let spine = generalise_spines(examples)?;
    Ok(spine_to_query(&spine))
}

/// The generalised spine of a positive-example set, cached across proposals by the interactive
/// session: spine generalisation folds the examples left to right, so the fold over the known
/// positives can be reused and extended by one more example per candidate node — byte-identical
/// to refolding from scratch, without the O(|positives|) rework per proposal.
///
/// Equality covers every step's axis, node test and first-example index: two spines that
/// compare equal yield the same spine query and (for the same first example) the same
/// [`FilterTry`] list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CachedSpine {
    steps: Vec<SpineStep>,
}

/// One candidate filter of the harvest: `[axis label]` under a spine node of the spine query.
#[derive(Debug, Clone)]
pub(crate) struct FilterTry {
    node: QNodeId,
    axis: Axis,
    label: String,
}

impl FilterTry {
    /// Add this filter to `query` (a spine query of the spine the try was harvested for, with
    /// filters added after its spine nodes).
    pub(crate) fn apply(&self, query: &mut TwigQuery) {
        query.add_node(self.node, self.axis, NodeTest::label(self.label.as_str()));
    }
}

/// Fold the examples' label paths into a [`CachedSpine`].
pub(crate) fn generalised_spine(
    examples: &[(&XmlTree, NodeId)],
) -> Result<CachedSpine, TwigLearnError> {
    Ok(CachedSpine {
        steps: generalise_spines(examples)?,
    })
}

impl CachedSpine {
    /// The spine generalised with one more example — exactly one more fold step.
    pub(crate) fn extended(&self, doc: &XmlTree, node: NodeId) -> CachedSpine {
        CachedSpine {
            steps: generalise_with_path(&self.steps, &label_path(doc, node)),
        }
    }

    /// The pure path query of this spine (what [`learn_path_from_positives`] would return for
    /// the folded example sequence).
    pub(crate) fn path_query(&self) -> TwigQuery {
        spine_to_query(&self.steps)
    }

    /// The filters the harvest tries on this spine, in order, when `first` is the first
    /// example (see [`harvest_filters`]).
    pub(crate) fn filter_tries(&self, first: (&XmlTree, NodeId)) -> Vec<FilterTry> {
        filter_tries(first, &self.steps)
    }
}

/// [`learn_from_positives_shared`] over a precomputed spine (see [`CachedSpine`]): runs only
/// the filter-harvesting phase. The spine must be the fold of `examples`' label paths in order.
pub(crate) fn learn_from_positives_shared_with_spine(
    spine: &CachedSpine,
    examples: &[(usize, NodeId)],
    docs: &[XmlTree],
    indexes: &[NodeIndex],
    caches: &mut [EvalCache],
) -> Result<TwigQuery, TwigLearnError> {
    let refs: Vec<(&XmlTree, NodeId)> = examples
        .iter()
        .map(|&(slot, node)| (&docs[slot], node))
        .collect();
    let mut by_slot: Vec<Vec<NodeId>> = vec![Vec::new(); docs.len()];
    for &(slot, node) in examples {
        by_slot[slot].push(node);
    }
    for targets in &mut by_slot {
        targets.sort_unstable();
        targets.dedup();
    }
    harvest_filters(&refs, spine.steps.clone(), &mut |q| {
        by_slot.iter().enumerate().all(|(slot, targets)| {
            targets.is_empty() || {
                let selected = eval_indexed::select_bits_with(
                    q,
                    &docs[slot],
                    &indexes[slot],
                    &mut caches[slot],
                );
                targets.iter().all(|n| selected.contains(*n))
            }
        })
    })
}

/// Learn the most specific **twig query** (spine + filters) selecting every positive example.
///
/// Filter harvesting evaluates dozens of near-identical candidate queries against the same
/// documents, so each distinct document is indexed once for the duration of the call. Callers
/// that invoke the learner repeatedly over the *same* documents (the interactive session does,
/// once per proposed node) should use [`learn_from_positives_shared`] with prebuilt indexes
/// and long-lived memos instead.
pub fn learn_from_positives(examples: &[(&XmlTree, NodeId)]) -> Result<TwigQuery, TwigLearnError> {
    let spine = generalise_spines(examples)?;
    let mut indexed = IndexedExamples::new(examples);
    harvest_filters(examples, spine, &mut |q| indexed.selects_all(q))
}

/// [`learn_from_positives`] over caller-owned per-document state: `examples` name documents by
/// slot into the parallel `docs`/`indexes`/`caches` slices, so nothing is indexed per call and
/// the sub-twig memos accumulate across the caller's whole lifetime.
pub fn learn_from_positives_shared(
    examples: &[(usize, NodeId)],
    docs: &[XmlTree],
    indexes: &[NodeIndex],
    caches: &mut [EvalCache],
) -> Result<TwigQuery, TwigLearnError> {
    assert_eq!(docs.len(), indexes.len());
    assert_eq!(docs.len(), caches.len());
    let refs: Vec<(&XmlTree, NodeId)> = examples
        .iter()
        .map(|&(slot, node)| (&docs[slot], node))
        .collect();
    let spine = generalised_spine(&refs)?;
    learn_from_positives_shared_with_spine(&spine, examples, docs, indexes, caches)
}

/// The filter-harvesting phase over an already generalised spine: try each filter of
/// [`filter_tries`] in order, keeping it when the query still selects every positive.
fn harvest_filters(
    examples: &[(&XmlTree, NodeId)],
    spine: Vec<SpineStep>,
    selects_all_positives: &mut dyn FnMut(&TwigQuery) -> bool,
) -> Result<TwigQuery, TwigLearnError> {
    let mut query = spine_to_query(&spine);
    for filter in filter_tries(examples[0], &spine) {
        let mut candidate = query.clone();
        filter.apply(&mut candidate);
        if selects_all_positives(&candidate) {
            query = candidate;
        }
    }
    Ok(query)
}

/// The candidate filters of the harvest, in the order it tries them: for each spine step that
/// still corresponds to an ancestor of the first example, that ancestor's child labels on the
/// child axis, then the labels seen only among its grandchildren on the descendant axis —
/// skipping the label that continues the path towards the annotated node (the spine itself).
fn filter_tries(
    (first_doc, first_node): (&XmlTree, NodeId),
    spine: &[SpineStep],
) -> Vec<FilterTry> {
    let first_path = ancestor_path(first_doc, first_node);
    let spine_ids = spine_to_query(spine).spine();
    let mut tries = Vec::new();
    for (pos, step) in spine.iter().enumerate() {
        let Some(first_ix) = step.first_example_index else {
            continue;
        };
        let anchor_node = first_path[first_ix];
        let spine_query_node = spine_ids[pos];
        // The child of `anchor_node` that continues the path towards the annotated node (if
        // any): filters duplicating its label are redundant with the spine itself.
        let path_child_label = first_path
            .get(first_ix + 1)
            .map(|n| first_doc.label(*n).to_string());

        let mut child_labels: Vec<String> = first_doc
            .children(anchor_node)
            .iter()
            .map(|c| first_doc.label(*c).to_string())
            .collect();
        child_labels.sort();
        child_labels.dedup();

        let mut grandchild_labels: BTreeSet<String> = BTreeSet::new();
        for &c in first_doc.children(anchor_node) {
            for &g in first_doc.children(c) {
                grandchild_labels.insert(first_doc.label(g).to_string());
            }
        }

        // Child-axis candidates first (more specific), then descendant-axis candidates for
        // labels only seen deeper.
        for label in &child_labels {
            if Some(label) == path_child_label.as_ref() {
                continue;
            }
            tries.push(FilterTry {
                node: spine_query_node,
                axis: Axis::Child,
                label: label.clone(),
            });
        }
        for label in grandchild_labels {
            if child_labels.contains(&label) || Some(&label) == path_child_label.as_ref() {
                continue;
            }
            tries.push(FilterTry {
                node: spine_query_node,
                axis: Axis::Descendant,
                label,
            });
        }
    }
    tries
}

/// The positive examples regrouped per distinct document, each with its [`NodeIndex`] and
/// sub-twig memo, so every candidate query of the filter-harvesting loop is evaluated once per
/// document (not once per example) through the indexed engine.
struct IndexedExamples<'a> {
    docs: Vec<&'a XmlTree>,
    indexes: Vec<NodeIndex>,
    caches: Vec<EvalCache>,
    /// Annotated nodes per distinct document, sorted.
    targets: Vec<Vec<NodeId>>,
}

impl<'a> IndexedExamples<'a> {
    fn new(examples: &[(&'a XmlTree, NodeId)]) -> IndexedExamples<'a> {
        let mut docs: Vec<&XmlTree> = Vec::new();
        let mut targets: Vec<Vec<NodeId>> = Vec::new();
        for &(doc, node) in examples {
            // Examples overwhelmingly share a handful of documents; pointer identity dedupes
            // them without hashing tree contents.
            let slot = match docs.iter().position(|d| std::ptr::eq(*d, doc)) {
                Some(slot) => slot,
                None => {
                    docs.push(doc);
                    targets.push(Vec::new());
                    docs.len() - 1
                }
            };
            targets[slot].push(node);
        }
        for t in &mut targets {
            t.sort_unstable();
            t.dedup();
        }
        let indexes = docs.iter().map(|d| NodeIndex::build(d)).collect();
        let caches = vec![EvalCache::new(); docs.len()];
        IndexedExamples {
            docs,
            indexes,
            caches,
            targets,
        }
    }

    /// Whether `query` selects every annotated node of every document.
    fn selects_all(&mut self, query: &TwigQuery) -> bool {
        for slot in 0..self.docs.len() {
            let selected = eval_indexed::select_bits_with(
                query,
                self.docs[slot],
                &self.indexes[slot],
                &mut self.caches[slot],
            );
            if !self.targets[slot].iter().all(|n| selected.contains(*n)) {
                return false;
            }
        }
        true
    }
}

fn ancestor_path(doc: &XmlTree, node: NodeId) -> Vec<NodeId> {
    let mut path = doc.ancestors(node);
    path.reverse();
    path.push(node);
    path
}

fn label_path(doc: &XmlTree, node: NodeId) -> Vec<String> {
    doc.label_path(node)
}

fn generalise_spines(examples: &[(&XmlTree, NodeId)]) -> Result<Vec<SpineStep>, TwigLearnError> {
    let (first_doc, first_node) = *examples.first().ok_or(TwigLearnError::NoExamples)?;
    let first = label_path(first_doc, first_node);
    let mut spine: Vec<SpineStep> = first
        .iter()
        .enumerate()
        .map(|(i, label)| SpineStep {
            axis: Axis::Child,
            test: NodeTest::label(label),
            first_example_index: Some(i),
        })
        .collect();
    for (doc, node) in &examples[1..] {
        let path = label_path(doc, *node);
        spine = generalise_with_path(&spine, &path);
    }
    Ok(spine)
}

/// Generalise the current spine against one more root-to-node label path.
fn generalise_with_path(spine: &[SpineStep], path: &[String]) -> Vec<SpineStep> {
    // Work on the prefixes (everything except the selected step), then handle the selected step
    // separately so that it is always the last spine step.
    let spine_prefix = &spine[..spine.len() - 1];
    let path_prefix = &path[..path.len() - 1];
    let alignment = lcs_alignment(spine_prefix, path_prefix);

    let mut out: Vec<SpineStep> = Vec::with_capacity(alignment.len() + 1);
    let mut prev_spine_ix: Option<usize> = None;
    let mut prev_path_ix: Option<usize> = None;
    for &(si, pi) in &alignment {
        let step = &spine_prefix[si];
        // The step is kept; its axis stays `Child` only if it was `Child` and both sequences are
        // adjacent to the previously kept step (or it is the first kept step at position 0 in
        // both, preserving the absolute root).
        let adjacent = match (prev_spine_ix, prev_path_ix) {
            (None, None) => si == 0 && pi == 0,
            (Some(ps), Some(pp)) => si == ps + 1 && pi == pp + 1,
            _ => false,
        };
        let axis = if step.axis == Axis::Child && adjacent {
            Axis::Child
        } else {
            Axis::Descendant
        };
        out.push(SpineStep {
            axis,
            test: step.test.clone(),
            first_example_index: step.first_example_index,
        });
        prev_spine_ix = Some(si);
        prev_path_ix = Some(pi);
    }

    // Selected step.
    let spine_last = &spine[spine.len() - 1];
    let path_last = &path[path.len() - 1];
    let selected_test = if spine_last.test.matches(path_last) {
        spine_last.test.clone()
    } else {
        NodeTest::Wildcard
    };
    let selected_adjacent = match (prev_spine_ix, prev_path_ix) {
        // Both the spine and the new path reach the selected step directly from the last kept
        // prefix step.
        (Some(ps), Some(pp)) => ps == spine_prefix.len() - 1 && pp == path_prefix.len() - 1,
        (None, None) => spine_prefix.is_empty() && path_prefix.is_empty(),
        _ => false,
    };
    let selected_axis = if spine_last.axis == Axis::Child && selected_adjacent {
        Axis::Child
    } else {
        Axis::Descendant
    };
    let first_example_index = if selected_test == spine_last.test {
        spine_last.first_example_index
    } else {
        None
    };
    out.push(SpineStep {
        axis: selected_axis,
        test: selected_test,
        first_example_index,
    });
    out
}

/// Longest common subsequence between the spine's node tests and a label path; returns the kept
/// `(spine index, path index)` pairs in order. Wildcard spine steps match any label.
fn lcs_alignment(spine: &[SpineStep], path: &[String]) -> Vec<(usize, usize)> {
    let n = spine.len();
    let m = path.len();
    let mut table = vec![vec![0usize; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            table[i][j] = if spine[i].test.matches(&path[j]) {
                table[i + 1][j + 1] + 1
            } else {
                table[i + 1][j].max(table[i][j + 1])
            };
        }
    }
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < n && j < m {
        if spine[i].test.matches(&path[j]) && table[i][j] == table[i + 1][j + 1] + 1 {
            out.push((i, j));
            i += 1;
            j += 1;
        } else if table[i + 1][j] >= table[i][j + 1] {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

fn spine_to_query(spine: &[SpineStep]) -> TwigQuery {
    let mut query = TwigQuery::new(spine[0].axis, spine[0].test.clone());
    let mut cur = QNodeId::ROOT;
    for step in &spine[1..] {
        cur = query.add_node(cur, step.axis, step.test.clone());
    }
    query.set_selected(cur);
    query
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::equivalent_on;
    use crate::eval;
    use crate::xpath::parse_xpath;
    use qbe_xml::TreeBuilder;

    fn site_doc() -> XmlTree {
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
            .leaf("emailaddress")
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

    #[test]
    fn no_examples_is_an_error() {
        assert_eq!(
            learn_from_positives(&[]).unwrap_err(),
            TwigLearnError::NoExamples
        );
    }

    #[test]
    fn single_example_yields_exact_path_with_filters() {
        let doc = site_doc();
        let email = doc.nodes_with_label("emailaddress")[0];
        let q = learn_from_positives(&[(&doc, email)]).unwrap();
        // The spine is the exact label path, with sibling filters harvested from the example.
        let spine_labels: Vec<String> = q.spine().iter().map(|n| q.test(*n).to_string()).collect();
        assert_eq!(
            spine_labels,
            vec!["site", "people", "person", "emailaddress"]
        );
        assert!(eval::selects(&q, &doc, email));
        assert!(
            q.to_xpath().contains("[name]"),
            "sibling filter expected, got {q}"
        );
    }

    #[test]
    fn learned_query_selects_every_positive() {
        let doc = site_doc();
        let emails = doc.nodes_with_label("emailaddress");
        let examples: Vec<(&XmlTree, NodeId)> = emails.iter().map(|&e| (&doc, e)).collect();
        let q = learn_from_positives(&examples).unwrap();
        for &e in &emails {
            assert!(eval::selects(&q, &doc, e));
        }
    }

    #[test]
    fn generalisation_drops_filters_not_shared_by_all_examples() {
        let doc = site_doc();
        let emails = doc.nodes_with_label("emailaddress");
        // Only the first person has a profile; learning from both emails must not keep a
        // [profile] filter on the `person` spine step (an ancestor-level `.//profile` filter may
        // survive because *some* person of every example document has a profile).
        let examples: Vec<(&XmlTree, NodeId)> = emails.iter().map(|&e| (&doc, e)).collect();
        let q = learn_from_positives(&examples).unwrap();
        let person_step = q
            .spine()
            .into_iter()
            .find(|n| q.test(*n) == &NodeTest::label("person"))
            .unwrap();
        let person_filters: Vec<String> = q
            .children(person_step)
            .iter()
            .filter(|c| q.test(**c) != &NodeTest::label("emailaddress"))
            .map(|c| q.test(*c).to_string())
            .collect();
        assert!(
            !person_filters.contains(&"profile".to_string()),
            "overspecific filter kept: {q}"
        );
        assert!(
            person_filters.contains(&"name".to_string()),
            "shared filter dropped: {q}"
        );
    }

    #[test]
    fn paths_of_different_depth_generalise_to_descendant_edges() {
        // name appears at depth 3 under person and depth 4 under item -> // edge somewhere.
        let doc = site_doc();
        let person_name = doc.nodes_with_label("name")[0];
        let item_name = *doc.nodes_with_label("name").last().unwrap();
        let q = learn_path_from_positives(&[(&doc, person_name), (&doc, item_name)]).unwrap();
        assert!(eval::selects(&q, &doc, person_name));
        assert!(eval::selects(&q, &doc, item_name));
        assert!(q.descendant_edge_count() >= 1);
        assert_eq!(q.test(q.selected()), &NodeTest::label("name"));
    }

    #[test]
    fn mismatched_selected_labels_generalise_to_wildcard() {
        let doc = site_doc();
        let name = doc.nodes_with_label("name")[0];
        let email = doc.nodes_with_label("emailaddress")[0];
        let q = learn_path_from_positives(&[(&doc, name), (&doc, email)]).unwrap();
        assert_eq!(q.test(q.selected()), &NodeTest::Wildcard);
        assert!(eval::selects(&q, &doc, name));
        assert!(eval::selects(&q, &doc, email));
    }

    #[test]
    fn two_examples_recover_a_simple_goal_query() {
        // The paper: "the algorithms are able to learn a query equivalent to the goal query from
        // a small number of examples (generally two)".
        let doc = site_doc();
        let goal = parse_xpath("/site/people/person/emailaddress").unwrap();
        let selected: Vec<NodeId> = eval::select(&goal, &doc).into_iter().collect();
        let examples: Vec<(&XmlTree, NodeId)> = selected.iter().map(|&n| (&doc, n)).collect();
        let learned = learn_from_positives(&examples[..2.min(examples.len())]).unwrap();
        assert!(equivalent_on(&learned, &goal, std::slice::from_ref(&doc)));
    }

    #[test]
    fn learned_query_is_overspecialised_without_schema_knowledge() {
        // Selecting person nodes: every person has a name, so the learner keeps [name] even
        // though (under the real schema) it is implied — the overspecialisation phenomenon.
        let doc = site_doc();
        let persons = doc.nodes_with_label("person");
        let examples: Vec<(&XmlTree, NodeId)> = persons.iter().map(|&p| (&doc, p)).collect();
        let q = learn_from_positives(&examples).unwrap();
        assert!(q.to_xpath().contains("[name]"));
        assert!(
            q.size() > 3,
            "expected filters beyond the bare spine, got {q}"
        );
    }

    #[test]
    fn path_learner_produces_pure_paths() {
        let doc = site_doc();
        let ages = doc.nodes_with_label("age");
        let q = learn_path_from_positives(&[(&doc, ages[0])]).unwrap();
        assert!(q.is_path());
        assert_eq!(q.to_xpath(), "/site/people/person/profile/age");
    }

    #[test]
    fn learning_from_examples_across_documents() {
        let doc_a = TreeBuilder::new("site")
            .open("people")
            .open("person")
            .leaf("name")
            .leaf("phone")
            .close()
            .close()
            .build();
        let doc_b = TreeBuilder::new("site")
            .open("people")
            .open("person")
            .leaf("name")
            .leaf("homepage")
            .close()
            .close()
            .build();
        let pa = doc_a.nodes_with_label("person")[0];
        let pb = doc_b.nodes_with_label("person")[0];
        let q = learn_from_positives(&[(&doc_a, pa), (&doc_b, pb)]).unwrap();
        assert!(eval::selects(&q, &doc_a, pa));
        assert!(eval::selects(&q, &doc_b, pb));
        // Only the shared [name] filter survives.
        assert!(q.to_xpath().contains("[name]"));
        assert!(!q.to_xpath().contains("phone"));
        assert!(!q.to_xpath().contains("homepage"));
    }
}
