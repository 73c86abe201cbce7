//! Interactive join-query learning: the paper's proposed protocol for very large instances.
//!
//! "We propose an interactive framework where our learning algorithms choose tuples and then ask
//! the user to label them as positive or negative examples. After each label given by the user,
//! our algorithms infer the tuples which become uninformative w.r.t. the previously labeled
//! tuples. The interactive process stops when all the tuples in the instance either have a label
//! explicitly given by the user, or they have become uninformative. [...] The goal is to
//! minimize the number of interactions with the user."
//!
//! The hypothesis space is the equi-join lattice of [`crate::join_learn`]. The version space
//! after some labels is `{θ ⊆ θ_max : θ rejects every labelled negative}` where `θ_max` is the
//! most specific predicate consistent with the labelled positives. A candidate pair `u` with
//! agreement set `A(u)` is then:
//!
//! * **certainly positive** when `θ_max ⊆ A(u)` — every remaining hypothesis accepts it;
//! * **certainly negative** when `A(u) ∩ θ_max` accepts some already-labelled negative — no
//!   remaining hypothesis can accept `u`;
//! * **informative** otherwise — asking the user about it shrinks the version space.
//!
//! A session is driven by alternating [`InteractiveSession::propose`] and
//! [`InteractiveSession::record`]. [`interactive_learn`] runs that loop against a goal
//! predicate for callers below `qbe-core` (chain and crowd sessions, `qbe-exchange`); above
//! it, `qbe_core::drive` runs it over the `JoinInteractive` adapter.

use crate::join_learn::{agreement_set, most_specific_predicate, LabelledPair};
use crate::model::{Relation, Value};
use crate::operators::JoinPredicate;
use qbe_bitset::DenseSet;
use qbe_strategy::{
    pick_first_max_by, pick_last_max_by, Candidate, PoolView, Random, SessionConfig,
    Strategy as SelectStrategy,
};
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};

/// The paper-era pair-selection policies, now thin presets over the model-agnostic
/// [`qbe_strategy::Strategy`] API (see [`Strategy::strategy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Uniformly random informative pair — the baseline the paper wants to beat
    /// ([`qbe_strategy::Random`]).
    Random,
    /// Ask about the informative pair whose agreement set is largest (closest to the current
    /// most specific hypothesis) — resolves "is the join this specific?" questions first.
    MostSpecificFirst,
    /// Ask about the informative pair whose agreement set splits the candidate equalities most
    /// evenly (a version-space-halving heuristic).
    HalveLattice,
}

impl Strategy {
    /// The [`qbe_strategy::Strategy`] implementing this preset (`seed` feeds
    /// [`Strategy::Random`]).
    pub fn strategy(self, seed: u64) -> Box<dyn SelectStrategy> {
        match self {
            Strategy::Random => Box::new(Random::new(seed)),
            Strategy::MostSpecificFirst => Box::new(MostSpecificFirst),
            Strategy::HalveLattice => Box::new(HalveLattice),
        }
    }
}

/// Most-specific-first as a [`SelectStrategy`]: the pair with the largest agreement-set
/// overlap with the current most specific hypothesis (the specificity channel), latest
/// maximum on ties — the exact comparator the paper-era inlined loop used, so the regression
/// pins stay byte-identical.
#[derive(Debug, Clone, Copy, Default)]
struct MostSpecificFirst;

impl SelectStrategy for MostSpecificFirst {
    fn name(&self) -> &str {
        "most-specific-first"
    }

    fn pick(&mut self, pool: &PoolView<'_>) -> Option<usize> {
        pick_last_max_by(pool.candidates, |c| c.specificity)
    }
}

/// The session's flagship policy as a [`SelectStrategy`]: the pair whose agreement set splits
/// the surviving equality lattice most evenly (the informativeness channel), earliest such
/// pair on ties — byte-identical to the paper-era inlined comparator.
#[derive(Debug, Clone, Copy, Default)]
struct HalveLattice;

impl SelectStrategy for HalveLattice {
    fn name(&self) -> &str {
        "halve-lattice"
    }

    fn pick(&mut self, pool: &PoolView<'_>) -> Option<usize> {
        pick_first_max_by(pool.candidates, |c| c.informativeness)
    }
}

/// Status of a candidate pair w.r.t. the current version space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairStatus {
    /// Already labelled by the user.
    Labelled(bool),
    /// Every consistent hypothesis accepts it.
    CertainlyPositive,
    /// No consistent hypothesis accepts it.
    CertainlyNegative,
    /// Hypotheses disagree: asking about it is informative.
    Informative,
}

/// The production version space behind [`InteractiveSession`]. Every agreement set is a mask
/// over the attribute-pair lattice (bit `i·|right schema| + j` = equality of left attribute `i`
/// with right attribute `j`) of `words = ⌈|left schema|·|right schema| / 64⌉` `u64`s — one word
/// up to 64 attribute pairs — and masks are stored row-major in flat arrays, so each
/// per-candidate check is a word-wise `AND` plus popcount. The still-informative region of the
/// cartesian product is a [`DenseSet`] over pair indices (row-major: `l·|right| + r`)
/// maintained by set difference.
///
/// The masks are generated once, by **hash-partitioning** each column pair: right rows are
/// bucketed by value per column, then each left value looks its matches up instead of comparing
/// against every right row — `O(columns² · matches)` after hashing, not `O(|L|·|R|·columns²)`
/// per *round* like the sweep specification ([`InteractiveSession::informative_pairs`]).
#[derive(Debug)]
struct PairEngine {
    right_len: usize,
    /// `u64`s per mask.
    words: usize,
    /// Agreement mask per pair of the cartesian product, `words` each, row-major.
    masks: Vec<u64>,
    /// Mask of θ_max, the most specific hypothesis consistent with the positive labels.
    theta: Vec<u64>,
    /// Agreement masks of the labelled negatives, `words` each.
    negatives: Vec<u64>,
    /// Pairs neither labelled nor yet proven determined — the candidate pool.
    pool: DenseSet<usize>,
}

/// `a ⊆ b`, word by word.
fn subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

impl PairEngine {
    fn build(left: &Relation, right: &Relation) -> PairEngine {
        let la = left.schema().arity();
        let ra = right.schema().arity();
        let bits = la * ra;
        let words = bits.div_ceil(64).max(1); // a nullary schema still gets one (empty) word
        let nl = left.len();
        let nr = right.len();
        let mut masks = vec![0u64; nl * nr * words];
        // Hash-partition: bucket right rows by value, per right column.
        let mut buckets: Vec<HashMap<&Value, Vec<usize>>> = vec![HashMap::new(); ra];
        for (r, rt) in right.tuples().iter().enumerate() {
            for (j, bucket) in buckets.iter_mut().enumerate() {
                bucket.entry(rt.get(j)).or_default().push(r);
            }
        }
        for (l, lt) in left.tuples().iter().enumerate() {
            let base = l * nr * words;
            for i in 0..la {
                let v = lt.get(i);
                for (j, bucket) in buckets.iter().enumerate() {
                    if let Some(rows) = bucket.get(v) {
                        let bit = i * ra + j;
                        for &r in rows {
                            masks[base + r * words + bit / 64] |= 1 << (bit % 64);
                        }
                    }
                }
            }
        }
        let mut theta = vec![0u64; words];
        for bit in 0..bits {
            theta[bit / 64] |= 1 << (bit % 64);
        }
        PairEngine {
            right_len: nr,
            words,
            masks,
            theta,
            negatives: Vec::new(),
            pool: DenseSet::full(nl * nr),
        }
    }

    /// Narrow θ_max by a positive label or add a negative, and drop the pair from the pool.
    fn record(&mut self, p: usize, positive: bool) {
        let range = p * self.words..(p + 1) * self.words;
        if positive {
            for (t, m) in self.theta.iter_mut().zip(&self.masks[range]) {
                *t &= m;
            }
        } else {
            self.negatives.extend_from_slice(&self.masks[range]);
        }
        self.pool.remove(p);
    }

    /// Whether θ_max still rejects every labelled negative.
    fn is_consistent(&self) -> bool {
        self.negatives
            .chunks_exact(self.words)
            .all(|neg| !subset(&self.theta, neg))
    }

    /// The informative pairs (row-major — the model's paper order) with one [`Candidate`]
    /// feature row each:
    ///
    /// * `informativeness` — the lattice-halving score (an agreement overlap closer to half
    ///   the surviving equalities is better), exactly the paper-era comparator;
    /// * `specificity` — the agreement-set overlap with the current most specific hypothesis;
    /// * `cost` — the agreement-set size (the attribute equalities a user checks to answer);
    /// * `coverage` — the equalities a positive answer would remove from the lattice.
    ///
    /// Iterates the incremental pool (ascending pair index = the sweep's row-major order) and
    /// *removes* newly determined pairs from it — determination under this version space is
    /// monotone (θ_max only shrinks, the negative list only grows), so a determined pair can
    /// never become informative again and set-difference maintenance is exact.
    fn informative_candidates(&mut self) -> (Vec<(usize, usize)>, Vec<Candidate>) {
        // A constant width lets the compiler drop the word loops in the one-word case, which
        // covers every schema up to 64 attribute pairs; with a runtime width it is ~15% slower.
        if self.words == 1 {
            self.scan::<1>()
        } else {
            self.scan::<0>()
        }
    }

    /// [`Self::informative_candidates`] over `W` words per mask (`0`: `self.words`).
    fn scan<const W: usize>(&mut self) -> (Vec<(usize, usize)>, Vec<Candidate>) {
        let words = if W == 0 { self.words } else { W };
        let theta = &self.theta[..words];
        let theta_len: usize = theta.iter().map(|t| t.count_ones() as usize).sum();
        let target = theta_len / 2;
        // θ_max minus each negative's agreement. A pair whose agreement misses all of one gap
        // has its θ_max-restricted agreement inside that negative's: no hypothesis accepts it.
        let gaps: Vec<u64> = self
            .negatives
            .chunks_exact(words)
            .flat_map(|neg| theta.iter().zip(neg).map(|(t, n)| t & !n))
            .collect();
        let mut pairs = Vec::new();
        let mut features = Vec::new();
        let mut determined: Vec<usize> = Vec::new();
        for p in self.pool.iter() {
            let mask = &self.masks[p * words..(p + 1) * words];
            if subset(theta, mask) {
                determined.push(p); // certainly positive: θ_max ⊆ agreement
                continue;
            }
            if gaps
                .chunks_exact(words)
                .any(|gap| gap.iter().zip(mask).all(|(g, m)| g & m == 0))
            {
                determined.push(p); // certainly negative
                continue;
            }
            let overlap: usize = theta
                .iter()
                .zip(mask)
                .map(|(t, m)| (t & m).count_ones() as usize)
                .sum();
            let size: usize = mask.iter().map(|m| m.count_ones() as usize).sum();
            pairs.push((p / self.right_len, p % self.right_len));
            features.push(Candidate {
                informativeness: -(overlap.abs_diff(target) as f64),
                cost: size as f64,
                coverage: (theta_len - overlap) as f64,
                specificity: overlap as f64,
                prior: 0.0,
            });
        }
        for p in determined {
            self.pool.remove(p);
        }
        (pairs, features)
    }
}

/// Interactive learning session over the cartesian product of two relations.
///
/// Generic over how the relations are owned: existing callers pass `&Relation` (zero-copy
/// borrows), long-lived registries (the `qbe-server` session registry) pass `Arc<Relation>` so
/// the session is `'static` and can outlive the scope that created it.
///
/// Questions come from a bitmask engine over agreement masks of ⌈attribute pairs / 64⌉ words,
/// at every schema width. The specification — [`current_hypothesis`](Self::current_hypothesis),
/// [`status`](Self::status) and [`informative_pairs`](Self::informative_pairs) — is recomputed
/// from the labels alone with the `JoinPredicate` operations of [`crate::join_learn`], so it
/// shares no state with the engine it checks.
#[derive(Debug)]
pub struct InteractiveSession<D: Borrow<Relation>> {
    left: D,
    right: D,
    /// Every label so far, in the order given.
    labelled: Vec<LabelledPair>,
    /// The pluggable question-selection policy, consulted once per proposal round.
    strategy: Box<dyn SelectStrategy>,
    /// Question cap, if any: once reached, the session completes.
    budget: Option<usize>,
    engine: PairEngine,
}

/// Result of a completed interactive session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The learned (most specific consistent) predicate.
    pub predicate: JoinPredicate,
    /// Number of labels the user was asked for.
    pub interactions: usize,
    /// Number of candidate pairs whose label was inferred rather than asked.
    pub inferred: usize,
    /// Whether the labels stayed consistent throughout (always true with a noise-free oracle).
    pub consistent: bool,
}

impl<D: Borrow<Relation>> InteractiveSession<D> {
    /// Start a session.
    pub fn new(left: D, right: D, strategy: Strategy, seed: u64) -> Self {
        InteractiveSession::with_config(
            left,
            right,
            SessionConfig::new()
                .seed(seed)
                .strategy(strategy.strategy(seed)),
        )
    }

    /// Start a session from a [`SessionConfig`] (strategy, question budget, seed) — the
    /// primary constructor; the [`Strategy`]-taking one is a preset over it. The default
    /// strategy is [`Strategy::HalveLattice`], the paper's flagship policy.
    pub fn with_config(left: D, right: D, config: SessionConfig) -> Self {
        let resolved = config.resolve(|seed| Strategy::HalveLattice.strategy(seed));
        let engine = PairEngine::build(left.borrow(), right.borrow());
        InteractiveSession {
            left,
            right,
            labelled: Vec::new(),
            strategy: resolved.strategy,
            budget: resolved.budget,
            engine,
        }
    }

    /// The name of the session's question-selection strategy.
    pub fn strategy_name(&self) -> &str {
        self.strategy.name()
    }

    /// The current most specific consistent hypothesis, recomputed from the labels.
    pub fn current_hypothesis(&self) -> JoinPredicate {
        most_specific_predicate(self.left.borrow(), self.right.borrow(), &self.labelled)
            .expect("record keeps every label inside the cartesian product")
    }

    /// Status of a candidate pair under the current version space (the specification).
    pub fn status(&self, left_ix: usize, right_ix: usize) -> PairStatus {
        self.spec_status()(left_ix, right_ix)
    }

    /// All currently informative pairs: the from-scratch sweep specification that the
    /// engine's incremental pool ([`Self::informative_pool`]) is pinned against.
    pub fn informative_pairs(&self) -> Vec<(usize, usize)> {
        let status = self.spec_status();
        let right_len = self.right.borrow().len();
        (0..self.left.borrow().len())
            .flat_map(|l| (0..right_len).map(move |r| (l, r)))
            .filter(|&(l, r)| status(l, r) == PairStatus::Informative)
            .collect()
    }

    /// The specification's pair classifier: θ_max and the agreement sets of the labelled
    /// negatives are recomputed from the labels, then compared as `JoinPredicate`s.
    fn spec_status(&self) -> impl Fn(usize, usize) -> PairStatus + '_ {
        let (left, right) = (self.left.borrow(), self.right.borrow());
        let theta_max = self.current_hypothesis();
        let negatives: Vec<JoinPredicate> = self
            .labelled
            .iter()
            .filter(|label| !label.positive)
            .map(|label| agreement_set(left, right, label.left, label.right))
            .collect();
        move |l, r| {
            if let Some(label) = self.labelled.iter().find(|x| (x.left, x.right) == (l, r)) {
                return PairStatus::Labelled(label.positive);
            }
            let agreement = agreement_set(left, right, l, r);
            if theta_max.subset_of(&agreement) {
                return PairStatus::CertainlyPositive;
            }
            let restricted = agreement.intersect(&theta_max);
            if negatives.iter().any(|neg| restricted.subset_of(neg)) {
                PairStatus::CertainlyNegative
            } else {
                PairStatus::Informative
            }
        }
    }

    /// Record a label (updates the version space). Panics if either index is out of range.
    pub fn record(&mut self, left_ix: usize, right_ix: usize, positive: bool) {
        let (left_len, right_len) = (self.left.borrow().len(), self.right.borrow().len());
        assert!(
            left_ix < left_len && right_ix < right_len,
            "pair ({left_ix}, {right_ix}) lies outside the {left_len}×{right_len} cartesian product"
        );
        self.engine.record(left_ix * right_len + right_ix, positive);
        self.labelled
            .push(LabelledPair::new(left_ix, right_ix, positive));
    }

    /// Whether the labels recorded so far are still jointly consistent.
    pub fn is_consistent(&self) -> bool {
        self.engine.is_consistent()
    }

    /// Propose the next informative pair to ask the user about, or `None` when every pair's
    /// label is determined (or the question budget is spent). Callers alternate `propose` with
    /// [`Self::record`].
    pub fn propose(&mut self) -> Option<(usize, usize)> {
        if self.budget.is_some_and(|cap| self.labelled.len() >= cap) {
            return None;
        }
        let (informative, candidates) = self.engine.informative_candidates();
        let view = PoolView {
            asked: self.labelled.len(),
            candidates: &candidates,
        };
        let pick = self.strategy.pick(&view)?;
        informative.get(pick).copied()
    }

    /// The incremental candidate pool as `(left, right)` pairs: what the engine would offer
    /// the strategy next round, i.e. [`Self::informative_pairs`] plus any pairs whose
    /// determination the lazy pool maintenance has not observed yet (it prunes during
    /// [`Self::propose`]). Exposed so the differential suites can pin the incremental pool
    /// against the from-scratch specification round by round.
    pub fn informative_pool(&self) -> Vec<(usize, usize)> {
        let right_len = self.engine.right_len;
        self.engine
            .pool
            .iter()
            .map(|p| (p / right_len, p % right_len))
            .collect()
    }

    /// The left relation.
    pub fn left(&self) -> &Relation {
        self.left.borrow()
    }

    /// The right relation.
    pub fn right(&self) -> &Relation {
        self.right.borrow()
    }

    /// Number of pairs the user has labelled so far.
    pub fn labelled_count(&self) -> usize {
        self.labelled.len()
    }
}

/// Learn the goal predicate interactively — alternate [`InteractiveSession::propose`] and
/// [`InteractiveSession::record`], labelling each pair by `goal` — and report the number of
/// interactions, the quantity experiments E9/E11 measure.
pub fn interactive_learn(
    left: &Relation,
    right: &Relation,
    goal: &JoinPredicate,
    strategy: Strategy,
    seed: u64,
) -> SessionOutcome {
    let mut session = InteractiveSession::new(left, right, strategy, seed);
    while let Some((l, r)) = session.propose() {
        let label = goal.satisfied_by(&left.tuples()[l], &right.tuples()[r]);
        session.record(l, r, label);
    }
    let interactions = session.labelled_count();
    SessionOutcome {
        consistent: session.is_consistent(),
        predicate: session.current_hypothesis(),
        interactions,
        inferred: left.len() * right.len() - interactions,
    }
}

/// The set of pairs selected by a predicate (used in tests and experiments to compare learned
/// and goal queries semantically).
pub fn selected_pairs(
    left: &Relation,
    right: &Relation,
    p: &JoinPredicate,
) -> BTreeSet<(usize, usize)> {
    let mut out = BTreeSet::new();
    for (l, lt) in left.tuples().iter().enumerate() {
        for (r, rt) in right.tuples().iter().enumerate() {
            if p.satisfied_by(lt, rt) {
                out.insert((l, r));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_join_instance, JoinInstanceConfig};
    use crate::model::{RelationSchema, Tuple};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn customers() -> Relation {
        Relation::with_tuples(
            RelationSchema::new("customers", &["cid", "city"]),
            vec![
                Tuple::new(vec![1.into(), "Lille".into()]),
                Tuple::new(vec![2.into(), "Paris".into()]),
                Tuple::new(vec![3.into(), "Lille".into()]),
            ],
        )
    }

    fn orders() -> Relation {
        Relation::with_tuples(
            RelationSchema::new("orders", &["oid", "cid", "city"]),
            vec![
                Tuple::new(vec![10.into(), 1.into(), "Lille".into()]),
                Tuple::new(vec![11.into(), 2.into(), "Lille".into()]),
                Tuple::new(vec![12.into(), 5.into(), "Paris".into()]),
            ],
        )
    }

    fn goal() -> JoinPredicate {
        JoinPredicate::from_names(customers().schema(), orders().schema(), &[("cid", "cid")])
            .unwrap()
    }

    #[test]
    fn interactive_learning_recovers_the_goal_semantically() {
        let (c, o) = (customers(), orders());
        for strategy in [
            Strategy::Random,
            Strategy::MostSpecificFirst,
            Strategy::HalveLattice,
        ] {
            let outcome = interactive_learn(&c, &o, &goal(), strategy, 7);
            assert!(outcome.consistent);
            assert_eq!(
                selected_pairs(&c, &o, &outcome.predicate),
                selected_pairs(&c, &o, &goal()),
                "strategy {strategy:?} learned a semantically different query"
            );
        }
    }

    #[test]
    fn interactions_never_exceed_the_number_of_pairs() {
        let (c, o) = (customers(), orders());
        let outcome = interactive_learn(&c, &o, &goal(), Strategy::Random, 3);
        assert!(outcome.interactions <= c.len() * o.len());
        assert_eq!(outcome.interactions + outcome.inferred, c.len() * o.len());
    }

    #[test]
    fn pruning_makes_some_pairs_uninformative() {
        let (c, o) = (customers(), orders());
        let outcome = interactive_learn(&c, &o, &goal(), Strategy::MostSpecificFirst, 1);
        assert!(
            outcome.inferred > 0,
            "expected at least one label to be inferred rather than asked"
        );
    }

    #[test]
    fn status_transitions_after_labels() {
        let (c, o) = (customers(), orders());
        let mut session = InteractiveSession::new(&c, &o, Strategy::Random, 0);
        // Initially everything with a non-full agreement set is informative.
        assert_eq!(session.status(0, 0), PairStatus::Informative);
        session.record(0, 0, true);
        assert_eq!(session.status(0, 0), PairStatus::Labelled(true));
        // (2, 0): customer 3/Lille with order of customer 1/Lille — cid differs, city matches.
        // After the positive above, theta_max ⊆ {cid=cid, city=city}; still informative.
        assert_eq!(session.status(2, 0), PairStatus::Informative);
        session.record(2, 0, false);
        assert!(session.is_consistent());
        // (1, 1) agrees only on cid: the hypothesis {cid=cid} accepts it while the hypothesis
        // {cid=cid, city=city} (still consistent) rejects it — informative.
        assert_eq!(session.status(1, 1), PairStatus::Informative);
        // (0, 2) agrees on nothing, and the agreement set of the recorded negative already
        // covers it: no consistent hypothesis accepts it.
        assert_eq!(session.status(0, 2), PairStatus::CertainlyNegative);
        // After the user also confirms (1, 1), the city equality is ruled out and the session
        // has pinned the goal down to {cid=cid}.
        session.record(1, 1, true);
        assert!(session.is_consistent());
        assert_eq!(
            session.current_hypothesis(),
            JoinPredicate::from_pairs([(0, 1)])
        );
    }

    #[test]
    #[should_panic(expected = "lies outside the 3×3 cartesian product")]
    fn record_rejects_an_out_of_range_pair() {
        let (c, o) = (customers(), orders());
        let mut session = InteractiveSession::new(&c, &o, Strategy::Random, 0);
        // Row-major, (0, |right|) is the index of (1, 0): it must not label that pair.
        session.record(0, o.len(), true);
    }

    /// Six tuples a side over a three-value domain, with `left_arity × right_arity` attribute
    /// pairs.
    fn wide_instance(left_arity: usize, right_arity: usize) -> (Relation, Relation) {
        let mut rng = StdRng::seed_from_u64((left_arity * right_arity) as u64);
        let mut relation = |name: &str, arity: usize| {
            let attributes: Vec<String> = (0..arity).map(|i| format!("{name}{i}")).collect();
            let attributes: Vec<&str> = attributes.iter().map(String::as_str).collect();
            let tuples = (0..6)
                .map(|_| {
                    Tuple::new(
                        (0..arity)
                            .map(|_| Value::Int(rng.gen_range(0..3)))
                            .collect(),
                    )
                })
                .collect();
            Relation::with_tuples(RelationSchema::new(name, &attributes), tuples)
        };
        (relation("l", left_arity), relation("r", right_arity))
    }

    #[test]
    fn pool_equals_the_spec_on_either_side_of_a_word_boundary() {
        // 64, 65, 128 and 129 attribute pairs: one word, two words, two full words, three.
        for (la, ra) in [(1, 64), (1, 65), (2, 64), (3, 43)] {
            let (left, right) = wide_instance(la, ra);
            // The goal's one equality is the lattice's last bit, in the last mask word.
            let goal = JoinPredicate::from_pairs([(la - 1, ra - 1)]);
            for strategy in [
                Strategy::Random,
                Strategy::MostSpecificFirst,
                Strategy::HalveLattice,
            ] {
                let mut session = InteractiveSession::new(&left, &right, strategy, 5);
                while let Some((l, r)) = session.propose() {
                    assert_eq!(
                        session.informative_pool(),
                        session.informative_pairs(),
                        "{la}×{ra} {strategy:?} after {} labels",
                        session.labelled_count()
                    );
                    let label = goal.satisfied_by(&left.tuples()[l], &right.tuples()[r]);
                    session.record(l, r, label);
                }
                assert!(
                    session.informative_pairs().is_empty(),
                    "{la}×{ra} {strategy:?}"
                );
                assert!(session.is_consistent(), "{la}×{ra} {strategy:?}");
                assert_eq!(
                    selected_pairs(&left, &right, &session.current_hypothesis()),
                    selected_pairs(&left, &right, &goal),
                    "{la}×{ra} {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn a_nullary_schema_has_nothing_to_ask() {
        let (left, right) = wide_instance(0, 2);
        let outcome =
            interactive_learn(&left, &right, &JoinPredicate::empty(), Strategy::Random, 0);
        assert!(outcome.consistent);
        assert_eq!((outcome.interactions, outcome.inferred), (0, 36));
    }

    #[test]
    fn greedy_strategies_use_fewer_or_equal_interactions_than_random_on_average() {
        let config = JoinInstanceConfig {
            left_rows: 20,
            right_rows: 20,
            ..Default::default()
        };
        let (left, right, goal) = generate_join_instance(&config);
        let random: usize = (0..5)
            .map(|s| interactive_learn(&left, &right, &goal, Strategy::Random, s).interactions)
            .sum();
        let specific: usize = (0..5)
            .map(|s| {
                interactive_learn(&left, &right, &goal, Strategy::MostSpecificFirst, s).interactions
            })
            .sum();
        assert!(
            specific <= random + 5,
            "MostSpecificFirst ({specific}) should not be much worse than Random ({random})"
        );
    }

    #[test]
    fn all_strategies_terminate_and_agree_on_generated_instances() {
        let config = JoinInstanceConfig {
            left_rows: 15,
            right_rows: 12,
            ..Default::default()
        };
        let (left, right, goal) = generate_join_instance(&config);
        let reference = selected_pairs(&left, &right, &goal);
        for strategy in [
            Strategy::Random,
            Strategy::MostSpecificFirst,
            Strategy::HalveLattice,
        ] {
            let outcome = interactive_learn(&left, &right, &goal, strategy, 42);
            assert_eq!(selected_pairs(&left, &right, &outcome.predicate), reference);
        }
    }
}
