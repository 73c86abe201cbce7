//! Noisy-oracle learning: the seeded k-vote majority user, and PAC-style
//! convergence bounds.
//!
//! The paper's user answers every membership question correctly. This module
//! opens the unreliable-world variant: a user whose every answer is flipped
//! with probability `p`, and a [`MajorityVote`] that recovers the true label by
//! casting `k` such noisy votes per question and committing the majority — the
//! classic noise-tolerance reduction for random classification noise
//! (Angluin–Laird). The vote stream is seeded, so a noisy session is as
//! reproducible as a clean one.
//!
//! The bound side is exact rather than Chernoff-loose: [`majority_error_bound`]
//! evaluates the binomial tail `P[Bin(k, p) > k/2]` directly, and
//! [`majority_votes_needed`] / [`votes_for_session`] invert it (the latter with
//! a union bound over a whole session's questions). [`NoisyPacPlan`] combines
//! that with the qbe-twig PAC sample-size machinery
//! ([`qbe_twig::pac::pac_sample_size`]) into a single certificate: *ask this
//! many questions, re-ask each this many times, and the session converges to
//! an ε-good hypothesis with probability ≥ 1 − δ despite the noise*.
//!
//! For protocol-level sessions (`qbe-server`), the votes are cast client-side:
//! the resilient client lets a [`MajorityVote`] turn the goal's true label into
//! the committed answer and sends that one `ANSWER` — so a `k`-vote costs
//! **one** unit of the session's question budget.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A noisy user answering through a `k`-vote majority: each vote reports the truth flipped
/// with probability `p`, drawn from a stream seeded by `seed`, and the majority of the `k`
/// votes is the answer.
///
/// `k` is rounded up to an odd number ≥ 1, so votes never tie; `k = 1` is the raw noisy user.
#[derive(Debug, Clone)]
pub struct MajorityVote {
    p: f64,
    k: usize,
    rng: StdRng,
    votes: u64,
    flips: u64,
}

impl MajorityVote {
    /// A `k`-vote majority over votes flipped with probability `p`, seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1/2)` (at or beyond 1/2 the majority carries no
    /// signal) or not finite.
    pub fn new(p: f64, k: usize, seed: u64) -> MajorityVote {
        assert!(
            p.is_finite() && (0.0..0.5).contains(&p),
            "majority voting needs flip probability in [0, 1/2), got {p}"
        );
        MajorityVote {
            p,
            k: k.max(1) | 1,
            rng: StdRng::seed_from_u64(seed),
            votes: 0,
            flips: 0,
        }
    }

    /// The majority of `k` noisy votes on a question whose true label is `truth`. Each vote
    /// draws one Bernoulli(`p`) flip from the stream when `p > 0`, and nothing when `p = 0`.
    pub fn answer(&mut self, truth: bool) -> bool {
        let mut yes = 0usize;
        for _ in 0..self.k {
            let flipped = self.p > 0.0 && self.rng.gen_bool(self.p);
            self.flips += u64::from(flipped);
            yes += usize::from(truth != flipped);
        }
        self.votes += self.k as u64;
        2 * yes > self.k
    }

    /// The (odd) number of votes per question.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Votes cast so far (`k` per answered question).
    pub fn votes(&self) -> u64 {
        self.votes
    }

    /// Votes the noise flipped away from the truth so far.
    pub fn flips(&self) -> u64 {
        self.flips
    }
}

/// Exact probability that a `k`-vote majority is wrong when each vote is
/// independently flipped with probability `p`: the binomial tail
/// `P[Bin(k, p) ≥ ⌊k/2⌋ + 1]`.
///
/// Exact (iterated pmf, no Chernoff slack), so the vote counts it induces are
/// 2–3× smaller than the usual `ln(1/δ)/(2(1/2−p)²)` bound at the same
/// confidence.
pub fn majority_error_bound(p: f64, k: usize) -> f64 {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "flip probability must be in [0, 1], got {p}"
    );
    let k = k.max(1);
    if p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return 1.0;
    }
    let need = k / 2 + 1; // majority wrong ⇔ at least this many flips
    let ratio = p / (1.0 - p);
    let mut pmf = (1.0 - p).powi(k as i32); // P[Bin = 0]
    let mut tail = 0.0;
    for i in 0..=k {
        if i >= need {
            tail += pmf;
        }
        // P[Bin = i+1] from P[Bin = i].
        pmf *= ratio * (k - i) as f64 / (i + 1) as f64;
    }
    tail.min(1.0)
}

/// Smallest odd `k` with [`majority_error_bound`]`(p, k) ≤ delta`, i.e. the
/// votes per question needed to answer one question correctly with
/// probability ≥ 1 − δ under flip rate `p`.
///
/// Requires `p < 1/2` (at or beyond 1/2 the majority carries no signal and no
/// finite `k` suffices).
///
/// # Panics
///
/// Panics when `p ≥ 1/2`, `delta ≤ 0`, or either argument is not finite.
pub fn majority_votes_needed(p: f64, delta: f64) -> usize {
    assert!(
        p.is_finite() && (0.0..0.5).contains(&p),
        "majority voting needs flip probability in [0, 1/2), got {p}"
    );
    assert!(
        delta.is_finite() && delta > 0.0,
        "confidence delta must be positive, got {delta}"
    );
    let mut k = 1usize;
    while majority_error_bound(p, k) > delta {
        k += 2;
    }
    k
}

/// Votes per question for a whole session: a union bound over `questions`
/// questions, so that *every* majority in the session is correct with
/// probability ≥ 1 − δ. With all answers correct the session behaves exactly
/// like its noise-free twin — same questions, same transcript, same final
/// query.
pub fn votes_for_session(p: f64, delta: f64, questions: usize) -> usize {
    if p == 0.0 {
        return 1;
    }
    majority_votes_needed(p, delta / questions.max(1) as f64)
}

/// A PAC-style convergence certificate for a noisy session, combining the
/// qbe-twig sample-size machinery with the exact majority bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoisyPacPlan {
    /// Labelled examples that suffice for an ε-good hypothesis with
    /// probability ≥ 1 − δ/2 over the sample
    /// ([`qbe_twig::pac::pac_sample_size`]).
    pub questions: usize,
    /// Votes per question so that all majorities are simultaneously correct
    /// with probability ≥ 1 − δ/2 under flip rate `p`.
    pub votes_per_question: usize,
}

impl NoisyPacPlan {
    /// Builds the plan: split δ between the PAC sample and the vote union
    /// bound, so following the plan converges with probability ≥ 1 − δ
    /// overall.
    pub fn new(epsilon: f64, delta: f64, hypothesis_count: f64, p: f64) -> NoisyPacPlan {
        let questions = qbe_twig::pac::pac_sample_size(epsilon, delta / 2.0, hypothesis_count);
        NoisyPacPlan {
            questions,
            votes_per_question: votes_for_session(p, delta / 2.0, questions),
        }
    }

    /// Total oracle asks the plan costs (`questions × votes_per_question`).
    pub fn total_votes(&self) -> usize {
        self.questions * self.votes_per_question
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{drive, InteractiveLearner, PathInteractive};
    use qbe_graph::{generate_geo_graph, GeoConfig, PathConstraint, PathStrategy};
    use std::sync::Arc;

    #[test]
    fn noisy_oracle_flips_at_the_configured_rate_deterministically() {
        // One vote per question is the raw noisy user.
        let mut a = MajorityVote::new(0.2, 1, 99);
        let mut b = MajorityVote::new(0.2, 1, 99);
        let seq_a: Vec<bool> = (0..1000).map(|_| a.answer(true)).collect();
        let seq_b: Vec<bool> = (0..1000).map(|_| b.answer(true)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same flips");
        assert_eq!(seq_a.iter().filter(|&&yes| !yes).count() as u64, a.flips());
        let rate = a.flips() as f64 / 1000.0;
        assert!((rate - 0.2).abs() < 0.05, "observed flip rate {rate}");

        let mut clean = MajorityVote::new(0.0, 1, 99);
        assert!((0..100).all(|_| clean.answer(true)));
        assert_eq!(clean.flips(), 0);
    }

    #[test]
    fn majority_vote_recovers_the_truth_that_raw_noise_destroys() {
        // k chosen from the exact bound: 1000 questions all correct w.p. ≥ 0.999.
        let k = votes_for_session(0.2, 0.001, 1000);
        let mut majority = MajorityVote::new(0.2, k, 5);
        assert!((0..500).all(|_| majority.answer(true)));
        assert!((0..500).all(|_| !majority.answer(false)));
        assert_eq!(majority.votes(), 1000 * k as u64);

        // The raw noisy user at the same seed gets some of these wrong.
        let mut raw = MajorityVote::new(0.2, 1, 5);
        assert!((0..500).any(|_| !raw.answer(true)));
    }

    #[test]
    fn even_k_is_rounded_up_to_odd() {
        assert_eq!(MajorityVote::new(0.0, 4, 0).k(), 5);
        assert_eq!(MajorityVote::new(0.0, 0, 0).k(), 1);
    }

    #[test]
    fn exact_majority_bound_matches_hand_computed_binomials() {
        // k=3, p=0.1: wrong ⇔ ≥2 flips: 3·0.01·0.9 + 0.001 = 0.028.
        assert!((majority_error_bound(0.1, 3) - 0.028).abs() < 1e-12);
        // k=1 degenerates to p itself.
        assert!((majority_error_bound(0.3, 1) - 0.3).abs() < 1e-12);
        assert_eq!(majority_error_bound(0.0, 7), 0.0);
        assert_eq!(majority_error_bound(1.0, 7), 1.0);
    }

    #[test]
    fn vote_counts_grow_with_noise_and_confidence() {
        assert_eq!(majority_votes_needed(0.0, 0.01), 1);
        let easy = majority_votes_needed(0.1, 0.01);
        let noisy = majority_votes_needed(0.2, 0.01);
        let strict = majority_votes_needed(0.2, 0.0001);
        assert!(easy < noisy && noisy < strict, "{easy} {noisy} {strict}");
        assert!(noisy % 2 == 1);
        // And the bound the counts came from actually holds at the returned k.
        assert!(majority_error_bound(0.2, noisy) <= 0.01);
        assert!(majority_error_bound(0.2, noisy.saturating_sub(2)) > 0.01);
    }

    #[test]
    fn pac_plan_composes_sample_size_with_vote_counts() {
        let clean = NoisyPacPlan::new(0.1, 0.05, 1000.0, 0.0);
        assert_eq!(clean.votes_per_question, 1);
        let noisy = NoisyPacPlan::new(0.1, 0.05, 1000.0, 0.2);
        assert_eq!(
            noisy.questions, clean.questions,
            "noise never changes the sample size"
        );
        assert!(noisy.votes_per_question > 1);
        assert_eq!(
            noisy.total_votes(),
            noisy.questions * noisy.votes_per_question
        );
    }

    #[test]
    fn interactive_session_under_majority_voting_matches_the_clean_run() {
        let graph = Arc::new(generate_geo_graph(&GeoConfig {
            cities: 12,
            connectivity: 3,
            ..Default::default()
        }));
        let from = graph.find_node_by_property("name", "city0").unwrap();
        let to = graph.find_node_by_property("name", "city5").unwrap();
        let goal = PathConstraint {
            road_type: Some("highway".to_string()),
            max_distance: None,
            via: None,
        };
        let session = || {
            PathInteractive::new(graph.clone(), from, to, 6, PathStrategy::Halving, 5)
                .with_goal(goal.clone())
        };
        let mut clean = session();
        let clean_report = drive(&mut clean);

        let k = votes_for_session(0.2, 0.01, clean.session().candidate_count());
        let mut vote = MajorityVote::new(0.2, k, 13);
        let mut noisy = session();
        while noisy.propose_pending() {
            let truth = noisy.oracle_answer().unwrap();
            noisy.answer(vote.answer(truth)).unwrap();
        }
        assert!(vote.flips() > 0, "the votes were noisy");
        assert_eq!(noisy.hypothesis(), clean.hypothesis());
        assert_eq!(
            noisy.questions(),
            clean_report.questions,
            "same questions asked"
        );
    }
}
