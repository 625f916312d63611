//! The Table 2 competitor rankers.
//!
//! Every method consumes the same `(query concept, candidate pool,
//! context)` input and emits a ranking, so the evaluation isolates the
//! *scoring* differences:
//!
//! * `QR` and its ablations — [`crate::similarity::QrScorer`] under the
//!   [`crate::config::RelaxConfig`] flags.
//! * `IC` — the plain corpus information-content similarity \[2\], i.e.
//!   Eq. 3 with aggregate frequencies and no path factor
//!   ([`RelaxConfig::ic_baseline`]).
//! * `Embedding-trained` / `Embedding-pre-trained` — cosine similarity of
//!   SIF phrase embeddings of the concept names ([`EmbeddingRanker`]); the
//!   two variants differ only in the corpus the model was fitted on.
//! * `Wu-Palmer` — the classic depth-based path similarity \[42\]
//!   ([`WuPalmerRanker`]), an extra reference point.

use std::sync::Arc;

use medkb_ekg::lcs::lcs;
use medkb_ekg::Ekg;
use medkb_embed::SifModel;
use medkb_types::ExtConceptId;

use crate::config::RelaxConfig;

pub use crate::similarity::QrScorer;

/// A uniform scoring interface over `(query, candidate)` concept pairs.
pub trait ConceptRanker {
    /// Similarity score (higher = more related).
    fn score(&self, query: ExtConceptId, candidate: ExtConceptId) -> f64;

    /// Rank `candidates` for `query`, best first, ties by id.
    fn rank(&self, query: ExtConceptId, candidates: &[ExtConceptId]) -> Vec<(ExtConceptId, f64)> {
        let mut scored: Vec<(ExtConceptId, f64)> =
            candidates.iter().map(|&c| (c, self.score(query, c))).collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored
    }
}

/// Cosine similarity of SIF phrase embeddings of concept names.
pub struct EmbeddingRanker<'a> {
    ekg: &'a Ekg,
    model: Arc<SifModel>,
}

impl<'a> EmbeddingRanker<'a> {
    /// A ranker over `ekg` using the given (trained or "pre-trained")
    /// model.
    pub fn new(ekg: &'a Ekg, model: Arc<SifModel>) -> Self {
        Self { ekg, model }
    }
}

impl ConceptRanker for EmbeddingRanker<'_> {
    fn score(&self, query: ExtConceptId, candidate: ExtConceptId) -> f64 {
        self.model
            .similarity(self.ekg.name(query), self.ekg.name(candidate))
            .unwrap_or(0.0)
    }
}

/// Wu-Palmer path similarity: `2·depth(lcs) / (depth(a) + depth(b))`.
pub struct WuPalmerRanker<'a> {
    ekg: &'a Ekg,
}

impl<'a> WuPalmerRanker<'a> {
    /// A ranker over `ekg`.
    pub fn new(ekg: &'a Ekg) -> Self {
        Self { ekg }
    }
}

impl ConceptRanker for WuPalmerRanker<'_> {
    fn score(&self, query: ExtConceptId, candidate: ExtConceptId) -> f64 {
        let out = lcs(self.ekg, query, candidate);
        let lcs_depth: f64 = out.concepts.iter().map(|&c| f64::from(self.ekg.depth(c))).sum::<f64>()
            / out.concepts.len() as f64;
        let denom = f64::from(self.ekg.depth(query)) + f64::from(self.ekg.depth(candidate));
        if denom == 0.0 {
            return 1.0;
        }
        (2.0 * lcs_depth / denom).clamp(0.0, 1.0)
    }
}

/// Adapter exposing a [`QrScorer`] (with a fixed context tag) as a
/// [`ConceptRanker`].
pub struct QrRanker<'a> {
    scorer: QrScorer<'a>,
    tag: Option<medkb_snomed::ContextTag>,
}

impl<'a> QrRanker<'a> {
    /// Wrap a scorer with the context it should use.
    pub fn new(
        ekg: &'a Ekg,
        freqs: &'a crate::frequency::Frequencies,
        config: &'a RelaxConfig,
        tag: Option<medkb_snomed::ContextTag>,
    ) -> Self {
        Self { scorer: QrScorer::new(ekg, freqs, config), tag }
    }
}

impl ConceptRanker for QrRanker<'_> {
    fn score(&self, query: ExtConceptId, candidate: ExtConceptId) -> f64 {
        self.scorer.score(query, candidate, self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medkb_snomed::figures::paper_fragment;

    #[test]
    fn wu_palmer_prefers_deeper_lcs() {
        let f = paper_fragment();
        let wp = WuPalmerRanker::new(&f.ekg);
        let headache = f.concept("headache");
        let throat = f.concept("pain in throat");
        let bronchitis = f.concept("bronchitis");
        assert!(wp.score(headache, throat) > wp.score(headache, bronchitis));
        assert!((wp.score(headache, headache) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wu_palmer_is_symmetric_and_bounded() {
        let f = paper_fragment();
        let wp = WuPalmerRanker::new(&f.ekg);
        let a = f.concept("pneumonia");
        let b = f.concept("kidney disease");
        assert_eq!(wp.score(a, b), wp.score(b, a));
        assert!((0.0..=1.0).contains(&wp.score(a, b)));
    }

    #[test]
    fn rank_orders_best_first_with_id_ties() {
        struct Constant;
        impl ConceptRanker for Constant {
            fn score(&self, _q: ExtConceptId, _c: ExtConceptId) -> f64 {
                0.5
            }
        }
        let pool = vec![ExtConceptId::new(5), ExtConceptId::new(1), ExtConceptId::new(3)];
        let ranked = Constant.rank(ExtConceptId::new(0), &pool);
        let ids: Vec<u32> = ranked.iter().map(|&(c, _)| c.raw()).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }
}
