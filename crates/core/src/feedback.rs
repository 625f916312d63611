//! Relevance feedback — the paper's own proposed extension.
//!
//! §7.2 closes its feedback analysis with: "One straightforward solution to
//! address these issues would be to incorporate the user's relevance
//! feedback \[39\] in the query relaxation method, and to progressively
//! improve the relaxed results." This module implements that proposal.
//!
//! Feedback is collected as accept/reject signals on `(query concept,
//! candidate concept, context tag)` triples and folded into a
//! multiplicative adjustment of the Eq. 5 score:
//!
//! ```text
//! sim'(A, B) = sim(A, B) · exp(λ · s(A, B, tag))
//! ```
//!
//! where `s` is a smoothed net-approval score in `[-1, 1]`. Feedback on a
//! candidate also generalizes softly to the candidate's native parents
//! (at half weight): rejecting "hypothermia" for a fever query teaches the
//! system something about the whole body-temperature-lowering family.

use std::collections::HashMap;

use medkb_ekg::Ekg;
use medkb_snomed::ContextTag;
use medkb_types::ExtConceptId;

/// One feedback signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feedback {
    /// The user confirmed the candidate was helpful.
    Accept,
    /// The user rejected the candidate.
    Reject,
}

/// Accumulated relevance feedback with score adjustment.
#[derive(Debug, Clone, Default)]
pub struct FeedbackStore {
    /// `(query, candidate, tag index) → (accepts, rejects)`.
    counts: HashMap<(ExtConceptId, ExtConceptId, usize), (u32, u32)>,
    /// Strength of the adjustment (λ).
    lambda: f64,
    /// Laplace smoothing mass.
    smoothing: f64,
}

impl FeedbackStore {
    /// An empty store with the default strength (λ = 0.5).
    pub fn new() -> Self {
        Self { counts: HashMap::new(), lambda: 0.5, smoothing: 1.0 }
    }

    /// An empty store with an explicit strength.
    pub fn with_lambda(lambda: f64) -> Self {
        Self { lambda, ..Self::new() }
    }

    /// Number of distinct `(query, candidate, tag)` triples with feedback.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no feedback has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Record one signal; the candidate's native parents receive the same
    /// signal at half weight (soft generalization).
    pub fn record(
        &mut self,
        ekg: &Ekg,
        query: ExtConceptId,
        candidate: ExtConceptId,
        tag: ContextTag,
        feedback: Feedback,
    ) {
        self.bump(query, candidate, tag, feedback, 2);
        for &parent in ekg.parents(candidate) {
            self.bump(query, parent, tag, feedback, 1);
        }
    }

    fn bump(
        &mut self,
        query: ExtConceptId,
        candidate: ExtConceptId,
        tag: ContextTag,
        feedback: Feedback,
        weight: u32,
    ) {
        let entry = self.counts.entry((query, candidate, tag.index())).or_insert((0, 0));
        match feedback {
            Feedback::Accept => entry.0 += weight,
            Feedback::Reject => entry.1 += weight,
        }
    }

    /// The smoothed net-approval score in `(-1, 1)`; 0 when no feedback
    /// exists.
    pub fn approval(
        &self,
        query: ExtConceptId,
        candidate: ExtConceptId,
        tag: ContextTag,
    ) -> f64 {
        match self.counts.get(&(query, candidate, tag.index())) {
            Some(&(acc, rej)) => {
                (f64::from(acc) - f64::from(rej))
                    / (f64::from(acc) + f64::from(rej) + 2.0 * self.smoothing)
            }
            None => 0.0,
        }
    }

    /// The multiplicative adjustment `exp(λ · approval)` applied to Eq. 5.
    pub fn adjustment(
        &self,
        query: ExtConceptId,
        candidate: ExtConceptId,
        tag: ContextTag,
    ) -> f64 {
        (self.lambda * self.approval(query, candidate, tag)).exp()
    }

    /// Re-rank a scored candidate list in place under the feedback
    /// adjustment (stable for untouched candidates: their adjustment is 1).
    pub fn rescore(
        &self,
        query: ExtConceptId,
        tag: ContextTag,
        scored: &mut [(ExtConceptId, f64)],
    ) {
        for (c, s) in scored.iter_mut() {
            *s *= self.adjustment(query, *c, tag);
        }
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medkb_ekg::EkgBuilder;

    fn graph() -> (Ekg, ExtConceptId, ExtConceptId, ExtConceptId) {
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let parent = b.concept("temperature disorder");
        let hypo = b.concept("hypothermia");
        let hyper = b.concept("hyperpyrexia");
        b.is_a(parent, root);
        b.is_a(hypo, parent);
        b.is_a(hyper, parent);
        (b.build().unwrap(), parent, hypo, hyper)
    }

    #[test]
    fn no_feedback_is_neutral() {
        let (_, _, hypo, hyper) = graph();
        let store = FeedbackStore::new();
        assert_eq!(store.approval(hyper, hypo, ContextTag::Treatment), 0.0);
        assert_eq!(store.adjustment(hyper, hypo, ContextTag::Treatment), 1.0);
        assert!(store.is_empty());
    }

    #[test]
    fn rejects_push_scores_down_accepts_up() {
        let (ekg, _, hypo, hyper) = graph();
        let mut store = FeedbackStore::new();
        store.record(&ekg, hyper, hypo, ContextTag::Treatment, Feedback::Reject);
        store.record(&ekg, hyper, hyper, ContextTag::Treatment, Feedback::Accept);
        assert!(store.approval(hyper, hypo, ContextTag::Treatment) < 0.0);
        assert!(store.adjustment(hyper, hypo, ContextTag::Treatment) < 1.0);
        assert!(store.adjustment(hyper, hyper, ContextTag::Treatment) > 1.0);
    }

    #[test]
    fn feedback_is_context_scoped() {
        let (ekg, _, hypo, hyper) = graph();
        let mut store = FeedbackStore::new();
        store.record(&ekg, hyper, hypo, ContextTag::Treatment, Feedback::Reject);
        // The risk context is untouched: hypothermia may well be a valid
        // adverse-effect answer even if it is a wrong treatment answer.
        assert_eq!(store.approval(hyper, hypo, ContextTag::Risk), 0.0);
    }

    #[test]
    fn feedback_generalizes_to_parents_at_half_weight() {
        let (ekg, parent, hypo, hyper) = graph();
        let mut store = FeedbackStore::new();
        store.record(&ekg, hyper, hypo, ContextTag::Treatment, Feedback::Reject);
        let direct = store.approval(hyper, hypo, ContextTag::Treatment);
        let inherited = store.approval(hyper, parent, ContextTag::Treatment);
        assert!(inherited < 0.0, "parent should inherit the rejection");
        assert!(inherited > direct, "at reduced strength");
    }

    #[test]
    fn repeated_feedback_strengthens_monotonically() {
        let (ekg, _, hypo, hyper) = graph();
        let mut store = FeedbackStore::new();
        let mut last = 0.0;
        for _ in 0..5 {
            store.record(&ekg, hyper, hypo, ContextTag::Treatment, Feedback::Reject);
            let a = store.approval(hyper, hypo, ContextTag::Treatment);
            assert!(a < last, "{a} should keep dropping");
            assert!(a > -1.0);
            last = a;
        }
    }

    #[test]
    fn rescore_reorders_by_adjusted_score() {
        let (ekg, _, hypo, hyper) = graph();
        let mut store = FeedbackStore::with_lambda(1.5);
        // Rejected candidate initially ranked first by a small margin.
        let mut scored = vec![(hypo, 0.60), (hyper, 0.55)];
        for _ in 0..4 {
            store.record(&ekg, hyper, hypo, ContextTag::Treatment, Feedback::Reject);
            store.record(&ekg, hyper, hyper, ContextTag::Treatment, Feedback::Accept);
        }
        store.rescore(hyper, ContextTag::Treatment, &mut scored);
        assert_eq!(scored[0].0, hyper, "feedback must flip the ranking: {scored:?}");
    }

    #[test]
    fn mixed_feedback_converges_to_net_opinion() {
        let (ekg, _, hypo, hyper) = graph();
        let mut store = FeedbackStore::new();
        for _ in 0..3 {
            store.record(&ekg, hyper, hypo, ContextTag::Treatment, Feedback::Accept);
        }
        store.record(&ekg, hyper, hypo, ContextTag::Treatment, Feedback::Reject);
        assert!(store.approval(hyper, hypo, ContextTag::Treatment) > 0.0);
    }
}
