//! The explicit version space both graph learners answer through.
//!
//! A session numbers its hypotheses and its questions, and gives each question a *class*: the
//! set of hypotheses that accept it (its tidset, in closed-pattern mining's terms), kept once
//! as a bitset over hypotheses. The version space is the bitset of hypotheses that agree with
//! every answer, so an answer is one `AND` (yes) or `AND NOT` (no) of it with the question's
//! class, and a question is informative while some alive hypotheses accept it and some reject
//! it. A path session gives each candidate path a class of its own; a query session shares one
//! class among the pairs that the same hypotheses select.

use crate::interactive::PathStrategy;
use qbe_bitset::DenseSet;
use qbe_strategy::{Candidate, PoolView, SessionConfig, Strategy};

/// Alive hypotheses, question classes, the pool, and the strategy that picks from it.
pub(crate) struct VersionSpace {
    /// The hypotheses consistent with every answer.
    alive: DenseSet<usize>,
    /// The class of each question.
    class_of: Vec<u32>,
    /// Per class, the hypotheses that accept its questions.
    classes: Vec<DenseSet<usize>>,
    /// Questions neither asked nor observed determined. Hypotheses only leave `alive`, so a
    /// determined question stays determined and leaves the pool for good.
    pool: DenseSet<usize>,
    /// Answers recorded so far.
    labelled: usize,
    strategy: Box<dyn Strategy>,
    budget: Option<usize>,
}

impl VersionSpace {
    /// Every hypothesis alive and every question in the pool, with the strategy and budget of
    /// `config` (version-space halving by default).
    pub(crate) fn new(
        hypotheses: usize,
        class_of: Vec<u32>,
        classes: Vec<DenseSet<usize>>,
        config: SessionConfig,
    ) -> VersionSpace {
        let resolved = config.resolve(|seed| PathStrategy::Halving.strategy(seed));
        VersionSpace {
            alive: DenseSet::full(hypotheses),
            pool: DenseSet::full(class_of.len()),
            class_of,
            classes,
            labelled: 0,
            strategy: resolved.strategy,
            budget: resolved.budget,
        }
    }

    /// The hypotheses consistent with every answer.
    pub(crate) fn alive(&self) -> &DenseSet<usize> {
        &self.alive
    }

    /// The hypotheses that accept question `q`.
    pub(crate) fn acceptors(&self, q: usize) -> &DenseSet<usize> {
        &self.classes[self.class_of[q] as usize]
    }

    /// The stored classes, one per distinct acceptor set.
    #[cfg(test)]
    pub(crate) fn classes(&self) -> &[DenseSet<usize>] {
        &self.classes
    }

    /// Questions neither asked nor observed determined.
    pub(crate) fn pool(&self) -> &DenseSet<usize> {
        &self.pool
    }

    /// Answers recorded so far.
    pub(crate) fn labelled(&self) -> usize {
        self.labelled
    }

    /// The name of the question-selection strategy.
    pub(crate) fn strategy_name(&self) -> &str {
        self.strategy.name()
    }

    /// Record an answer to question `q`: keep the alive hypotheses that agree with it.
    pub(crate) fn record(&mut self, q: usize, positive: bool) {
        self.labelled += 1;
        self.pool.remove(q);
        let acceptors = &self.classes[self.class_of[q] as usize];
        if positive {
            self.alive.and_with(acceptors);
        } else {
            self.alive.and_not_with(acceptors);
        }
    }

    /// The strategy's pick among the informative questions, or `None` when every question is
    /// determined or the budget is spent. Each informative question `q` becomes one row, in
    /// ascending order, with the caller's `(cost, prior)` of `q`:
    ///
    /// * `informativeness` — how close its acceptors come to half the alive hypotheses;
    /// * `coverage` — the smaller side of the split: the hypotheses pruned whatever the answer.
    pub(crate) fn propose(&mut self, row: impl Fn(usize) -> (f64, f64)) -> Option<usize> {
        if self.budget.is_some_and(|cap| self.labelled >= cap) {
            return None;
        }
        let total = self.alive.len();
        let accepted_by_class: Vec<usize> = self
            .classes
            .iter()
            .map(|acceptors| acceptors.intersection_len(&self.alive))
            .collect();
        let accepted_by = |q: usize| accepted_by_class[self.class_of[q] as usize];
        let (informative, determined): (Vec<usize>, Vec<usize>) = self
            .pool
            .iter()
            .partition(|&q| (1..total).contains(&accepted_by(q)));
        for q in determined {
            self.pool.remove(q);
        }
        let candidates: Vec<Candidate> = informative
            .iter()
            .map(|&q| {
                let accepted = accepted_by(q);
                let (cost, prior) = row(q);
                Candidate {
                    informativeness: -(accepted.abs_diff(total / 2) as f64),
                    cost,
                    coverage: accepted.min(total - accepted) as f64,
                    specificity: 0.0,
                    prior,
                }
            })
            .collect();
        let pick = self.strategy.pick(&PoolView {
            asked: self.labelled,
            candidates: &candidates,
        })?;
        informative.get(pick).copied()
    }
}
