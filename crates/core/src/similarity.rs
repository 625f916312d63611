//! The novel similarity metric (Eq. 3–5, §5.2).
//!
//! `sim(A, B) = p_{A,B} × sim_IC(A, B)` where
//!
//! * `sim_IC(A,B) = 2·IC(lcs(A,B)) / (IC(A) + IC(B))` (Eq. 3), with the IC
//!   chosen by the query context (per-context corpus frequencies), the
//!   aggregate over contexts when no context is available, or the
//!   intrinsic structural IC when the corpus signal is disabled
//!   (QR-no-corpus); multiple equidistant LCSs contribute their *average*
//!   IC (footnote 1), and
//! * `p_{A,B}` is the Eq. 4 direction-weighted path factor computed from
//!   the LCS-routed path: `dist_a` generalizations from the query concept
//!   up, then `dist_b` specializations down.

use medkb_ekg::lcs::{lcs, lcs_with_upward_scratch, LcsOutcome};
use medkb_ekg::{Ekg, PathSummary, ReachabilityIndex, UpwardDistances, UpwardScratch};
use medkb_snomed::ContextTag;
use medkb_types::ExtConceptId;

use crate::config::RelaxConfig;
use crate::frequency::Frequencies;

/// Scores candidate concepts against a query concept per Eq. 5.
#[derive(Debug, Clone, Copy)]
pub struct QrScorer<'a> {
    ekg: &'a Ekg,
    freqs: &'a Frequencies,
    config: &'a RelaxConfig,
}

/// A scored breakdown, useful for explanation surfaces and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreBreakdown {
    /// Eq. 3 value.
    pub sim_ic: f64,
    /// Eq. 4 value.
    pub path_weight: f64,
    /// Eq. 5 value (`sim_ic × path_weight`).
    pub score: f64,
    /// The LCS outcome the score was derived from.
    pub lcs: LcsOutcome,
}

impl<'a> QrScorer<'a> {
    /// A scorer over the given graph, frequencies, and configuration.
    pub fn new(ekg: &'a Ekg, freqs: &'a Frequencies, config: &'a RelaxConfig) -> Self {
        Self { ekg, freqs, config }
    }

    /// The IC of a concept under the active configuration and context.
    pub fn ic(&self, c: ExtConceptId, tag: Option<ContextTag>) -> f64 {
        let ic = if self.config.use_corpus {
            let effective = if self.config.use_context { tag } else { None };
            self.freqs.ic(c, effective)
        } else {
            self.freqs.intrinsic_ic(c)
        };
        // Degenerate corpora/graphs are mapped to finite ICs upstream
        // (frequency.rs); a NaN/∞ here would silently poison Eq. 3–5.
        debug_assert!(ic.is_finite(), "non-finite IC {ic} for {c:?} (tag {tag:?})");
        ic
    }

    /// Eq. 5 for `(query, candidate)` in the given context.
    pub fn score(&self, query: ExtConceptId, candidate: ExtConceptId, tag: Option<ContextTag>) -> f64 {
        self.breakdown(query, candidate, tag).score
    }

    /// Eq. 5 with its constituents exposed.
    pub fn breakdown(
        &self,
        query: ExtConceptId,
        candidate: ExtConceptId,
        tag: Option<ContextTag>,
    ) -> ScoreBreakdown {
        let out = lcs(self.ekg, query, candidate);
        let sim_ic = self.sim_ic_from(&out, query, candidate, tag);
        let path_weight = if self.config.use_path_weight {
            PathSummary { ups: out.dist_a, downs: out.dist_b }
                .weight(self.config.w_gen, self.config.w_spec)
        } else {
            1.0
        };
        debug_assert!(
            (sim_ic * path_weight).is_finite(),
            "non-finite score: sim_ic {sim_ic}, path_weight {path_weight}"
        );
        ScoreBreakdown { sim_ic, path_weight, score: sim_ic * path_weight, lcs: out }
    }

    /// Eq. 3 from a precomputed LCS outcome.
    pub fn sim_ic_from(
        &self,
        out: &LcsOutcome,
        query: ExtConceptId,
        candidate: ExtConceptId,
        tag: Option<ContextTag>,
    ) -> f64 {
        let lcs_ic: f64 = out.concepts.iter().map(|&c| self.ic(c, tag)).sum::<f64>()
            / out.concepts.len() as f64;
        let denom = self.ic(query, tag) + self.ic(candidate, tag);
        if denom <= 0.0 {
            // Both concepts carry no information (e.g. both are the root):
            // they are indistinguishable, hence maximally similar.
            return 1.0;
        }
        (2.0 * lcs_ic / denom).clamp(0.0, 1.0)
    }

    /// Fix the query concept and context, amortizing the query-side upward
    /// search and IC lookup over every candidate scored against it.
    ///
    /// `reach` must be the closure of `ekg` (built at ingestion). Scores
    /// are identical to the corresponding [`QrScorer::score`] calls.
    pub fn query_scoped(
        &self,
        query: ExtConceptId,
        tag: Option<ContextTag>,
        reach: &'a ReachabilityIndex,
    ) -> QueryScorer<'a> {
        QueryScorer {
            base: *self,
            reach,
            up_q: self.ekg.upward_distances_from(query),
            ic_query: self.ic(query, tag),
            tag,
            scratch: UpwardScratch::new(),
        }
    }
}

/// [`QrScorer`] specialized to one `(query, context)` pair — the engine
/// behind candidate loops: the query-side upward distances and IC are
/// computed once at construction, each [`QueryScorer::score`] then costs
/// one candidate-side upward search plus dense probes.
#[derive(Debug, Clone)]
pub struct QueryScorer<'a> {
    base: QrScorer<'a>,
    reach: &'a ReachabilityIndex,
    up_q: UpwardDistances,
    ic_query: f64,
    tag: Option<ContextTag>,
    /// Candidate-side search storage, reused across `score` calls.
    scratch: UpwardScratch,
}

impl<'a> QueryScorer<'a> {
    /// The query concept this scorer is bound to.
    pub fn query(&self) -> ExtConceptId {
        self.up_q.source()
    }

    /// Eq. 5 for `(query, candidate)`; equals
    /// `QrScorer::score(query, candidate, tag)`.
    pub fn score(&mut self, candidate: ExtConceptId) -> f64 {
        self.breakdown(candidate).score
    }

    /// Eq. 5 with its constituents exposed.
    pub fn breakdown(&mut self, candidate: ExtConceptId) -> ScoreBreakdown {
        let out = lcs_with_upward_scratch(
            self.base.ekg,
            self.reach,
            &self.up_q,
            candidate,
            &mut self.scratch,
        );
        let sim_ic = self.sim_ic_from(&out, candidate);
        let path_weight = if self.base.config.use_path_weight {
            PathSummary { ups: out.dist_a, downs: out.dist_b }
                .weight(self.base.config.w_gen, self.base.config.w_spec)
        } else {
            1.0
        };
        debug_assert!(
            (sim_ic * path_weight).is_finite(),
            "non-finite score: sim_ic {sim_ic}, path_weight {path_weight}"
        );
        ScoreBreakdown { sim_ic, path_weight, score: sim_ic * path_weight, lcs: out }
    }

    fn sim_ic_from(&self, out: &LcsOutcome, candidate: ExtConceptId) -> f64 {
        let lcs_ic: f64 = out.concepts.iter().map(|&c| self.base.ic(c, self.tag)).sum::<f64>()
            / out.concepts.len() as f64;
        let denom = self.ic_query + self.base.ic(candidate, self.tag);
        if denom <= 0.0 {
            return 1.0;
        }
        (2.0 * lcs_ic / denom).clamp(0.0, 1.0)
    }

    /// Precompute the [`ScoreBounds`] tables for this query over candidates
    /// at BFS hop ≤ `max_h` and native depth ≤ `max_dc`.
    ///
    /// Only valid when every Eq. 4 step weight is ≤ 1 (or path weighting is
    /// off) — the relaxation engine gates pruning on exactly that condition.
    pub fn bounds(&self, max_h: u32, max_dc: u32) -> ScoreBounds {
        let config = self.base.config;
        let (bg, wmax) = if config.use_path_weight {
            (config.w_gen, config.w_gen.max(config.w_spec))
        } else {
            (1.0, 1.0)
        };
        debug_assert!(
            bg <= 1.0 && wmax <= 1.0,
            "score bounds require step weights <= 1, got w_gen {bg} / max {wmax}"
        );
        let min_ic = if config.use_corpus {
            let effective = if config.use_context { self.tag } else { None };
            self.base.freqs.min_ic(effective)
        } else {
            self.base.freqs.min_intrinsic_ic()
        };

        // Potential LCS members with their query-side distance and native
        // depth: the strict ancestors for every candidate, plus the query
        // itself (`da = 0`) when the candidate is a descendant.
        let depth_q = self.base.ekg.depth(self.up_q.source());
        let ancestors: Vec<(ExtConceptId, f64, u32, u32)> = self
            .up_q
            .iter()
            .map(|(a, da)| (a, self.base.ic(a, self.tag), da, self.base.ekg.depth(a)))
            .collect();

        let (hh, dd) = (max_h as usize + 1, max_dc as usize + 1);
        // Largest unit-step distance any member's lower bound can reach.
        let max_e = ancestors
            .iter()
            .map(|&(_, _, da, _)| da as usize + max_dc as usize)
            .max()
            .unwrap_or(0)
            .max(max_h as usize)
            .max(max_dc as usize);
        // bg^e and wmax^T(e) ladders (T(e) = e(e−1)/2, the Eq. 4 exponent
        // sum of a length-e path), so table fill is O(members × h × dc)
        // multiplies with no powi in the loop.
        let mut bg_pow = vec![1.0f64; max_e + 1];
        for e in 1..=max_e {
            bg_pow[e] = bg_pow[e - 1] * bg;
        }
        let mut wmax_tri = vec![1.0f64; max_e + 1];
        let mut run = 1.0f64;
        for e in 1..=max_e {
            wmax_tri[e] = wmax_tri[e - 1] * run;
            run *= wmax;
        }

        let mut g_nd = vec![0.0f64; hh * dd];
        let mut g_d = vec![0.0f64; hh * dd];
        for h in 0..hh {
            for dc in 0..dd {
                // Unit-step distance the LCS path must cover if `a` is a
                // member: at least the BFS hop count, and at least `a`'s
                // own up-leg plus the depth gap down to the candidate.
                let e_for = |da: u32, depth_a: u32| {
                    h.max(da as usize + (dc).saturating_sub(depth_a as usize))
                };
                let (mut nd, mut d) = (0.0f64, 0.0f64);
                for &(_, ic, da, depth_a) in &ancestors {
                    let e = e_for(da, depth_a);
                    nd = nd.max(ic * bg_pow[e - 1]);
                    d = d.max(ic * wmax_tri[e]);
                }
                // The query itself can only subsume descendant candidates.
                d = d.max(self.ic_query * wmax_tri[e_for(0, depth_q)]);
                g_nd[h * dd + dc] = nd;
                g_d[h * dd + dc] = d;
            }
        }

        let nd_path: Vec<f64> =
            (0..hh).map(|h| bg_pow[h.saturating_sub(1)]).collect();
        let d_path: Vec<f64> = (0..hh).map(|h| wmax_tri[h]).collect();
        ScoreBounds {
            max_h: max_h as usize,
            max_dc: max_dc as usize,
            nd_path,
            d_path,
            g_nd,
            g_d,
            members: ancestors,
            bg_pow,
            ic_query: self.ic_query,
            min_ic,
        }
    }
}

/// Inflation applied to every emitted bound: a relative cushion far above
/// any accumulated rounding in either the bound or the exact-score
/// expression tree, plus an absolute floor that keeps subnormal-range
/// products from rounding below their exact counterparts. Both only ever
/// *raise* a bound, so admissibility is preserved by construction.
fn inflate(v: f64) -> f64 {
    v * (1.0 + 1e-9) + 1e-300
}

/// Admissible per-candidate upper bounds on Eq. 5, computable from a
/// candidate's BFS ring, native depth, and dense IC entry alone — no
/// candidate-side search, no LCS evaluation (DESIGN.md §13).
///
/// Derivation sketch (proof in DESIGN.md §13): every LCS member lies in
/// `{query} ∪ strict-ancestors(query)` (the query-scoped LCS probes the
/// query's upward table), all members share the same unit-step total `D`,
/// and `D ≥ h` (every customized-graph edge covers ≥ 1 unit step) as well
/// as `D ≥ da(m) + (depth(c) − depth(m))⁺` for each member `m`. With all
/// step weights ≤ 1, Eq. 4 is then capped by `w_gen^(D−1)` when the query
/// is not an ancestor of the candidate (the up-leg is ≥ 1, so the first —
/// largest — exponent is `D−1`) and by `wmax^(D(D−1)/2)` otherwise, and
/// Eq. 3 by `min(1, 2·max_m IC(m)/(IC(q)+IC(c)))`. Maximizing the coupled
/// product over the member pool yields the `G[h][depth]` tables below.
#[derive(Debug, Clone)]
pub struct ScoreBounds {
    max_h: usize,
    max_dc: usize,
    /// Eq. 4 cap per hop for non-descendant candidates: `w_gen^(h−1)`.
    nd_path: Vec<f64>,
    /// Eq. 4 cap per hop for descendant candidates: `wmax^T(h)`.
    d_path: Vec<f64>,
    /// `max_m IC(m)·w_gen^(E(m,h,dc)−1)` over strict ancestors, flattened
    /// `[h][dc]`; `E` is the member-conditioned lower bound on `D`.
    g_nd: Vec<f64>,
    /// Descendant counterpart (query included, triangular exponents).
    g_d: Vec<f64>,
    /// The member pool behind the tables — `(id, IC, da, depth)` per strict
    /// query ancestor — kept for the tier-2 [`ScoreBounds::refined_bound`].
    members: Vec<(ExtConceptId, f64, u32, u32)>,
    /// `w_gen^e` ladder shared by table fill and tier-2 refinement.
    bg_pow: Vec<f64>,
    ic_query: f64,
    /// Smallest IC any concept carries under the active selection — the
    /// worst-case denominator contribution for ring-level caps.
    min_ic: f64,
}

impl ScoreBounds {
    /// Upper bound on the Eq. 5 score of a candidate discovered at BFS hop
    /// `hops` with native depth `depth` and IC `ic_candidate`;
    /// `descendant` says whether the query subsumes it (one reachability
    /// bit probe). Guaranteed ≥ the exact [`QueryScorer::score`] value.
    pub fn upper_bound(
        &self,
        descendant: bool,
        hops: u32,
        depth: u32,
        ic_candidate: f64,
    ) -> f64 {
        let h = (hops as usize).min(self.max_h);
        let dc = (depth as usize).min(self.max_dc);
        let idx = h * (self.max_dc + 1) + dc;
        let (pw, g) = if descendant {
            (self.d_path[h], self.g_d[idx])
        } else {
            (self.nd_path[h], self.g_nd[idx])
        };
        let denom = self.ic_query + ic_candidate;
        inflate(if denom > 0.0 { pw.min(2.0 * g / denom) } else { pw })
    }

    /// Tier-2 bound for **non-descendant** candidates: the member pool is
    /// restricted to actual common subsumers of query and candidate — one
    /// reachability bit probe per strict query ancestor, still no
    /// candidate-side search and no LCS evaluation.
    ///
    /// Admissible for the same reason the table bound is: every true LCS
    /// member of a non-descendant candidate is a strict query ancestor that
    /// subsumes (or equals) the candidate, so the restricted pool still
    /// contains all of them. Since it maximizes the *same* term values over
    /// a subset of the table's pool, the result is ≤ the corresponding
    /// [`ScoreBounds::upper_bound`] bitwise — the dominance chain
    /// `exact ≤ refined ≤ table ≤ ring_cap` holds under IEEE rounding.
    ///
    /// This is what makes the table bound's main slack — a deep, high-IC
    /// query ancestor that subsumes nothing near the candidate — disappear:
    /// for distant candidates the common subsumers are shallow and
    /// low-information, so the refined bound hugs the exact score.
    pub fn refined_bound(
        &self,
        reach: &ReachabilityIndex,
        candidate: ExtConceptId,
        hops: u32,
        depth: u32,
        ic_candidate: f64,
    ) -> f64 {
        let h = (hops as usize).min(self.max_h);
        let dc = (depth as usize).min(self.max_dc);
        let mut g = 0.0f64;
        for &(m, ic, da, depth_m) in &self.members {
            if m == candidate || reach.is_ancestor(m, candidate) {
                let e = h.max(da as usize + dc.saturating_sub(depth_m as usize));
                g = g.max(ic * self.bg_pow[e - 1]);
            }
        }
        let denom = self.ic_query + ic_candidate;
        inflate(if denom > 0.0 { self.nd_path[h].min(2.0 * g / denom) } else { self.nd_path[h] })
    }

    /// Upper bound on the score of *every* candidate at BFS hop ≥ `hops`,
    /// regardless of depth, IC, or descendant status. Nonincreasing in
    /// `hops`, and ≥ every [`ScoreBounds::upper_bound`] in those rings —
    /// bitwise, not just in exact arithmetic (each constituent is replaced
    /// by a monotone-dominating one under IEEE rounding).
    pub fn ring_cap(&self, hops: u32) -> f64 {
        let h = (hops as usize).min(self.max_h);
        let idx = h * (self.max_dc + 1);
        let denom = self.ic_query + self.min_ic;
        let cap = |pw: f64, g: f64| if denom > 0.0 { pw.min(2.0 * g / denom) } else { pw };
        inflate(cap(self.nd_path[h], self.g_nd[idx]).max(cap(self.d_path[h], self.g_d[idx])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FrequencyMode;
    use medkb_corpus::MentionCounts;
    use medkb_snomed::figures::paper_fragment;
    use medkb_snomed::oracle::N_TAGS;
    use std::collections::HashMap;

    fn setup() -> (Ekg, Frequencies) {
        let f = paper_fragment();
        let mut direct: HashMap<ExtConceptId, [u64; N_TAGS]> = HashMap::new();
        for &(name, treat, risk) in &f.fig4_direct_counts {
            let mut row = [0u64; N_TAGS];
            row[ContextTag::Treatment.index()] = treat;
            row[ContextTag::Risk.index()] = risk;
            direct.insert(f.concept(name), row);
        }
        // Give the respiratory subtree some treatment-context mentions so
        // its ICs are meaningful.
        for (name, count) in [
            ("pneumonia", 500u64),
            ("pneumonitis", 80),
            ("lung disease", 40),
            ("lower respiratory tract infection", 300),
            ("bronchitis", 700),
            ("respiratory disorder", 10),
        ] {
            let mut row = [0u64; N_TAGS];
            row[ContextTag::Treatment.index()] = count;
            direct.insert(f.concept(name), row);
        }
        let counts = MentionCounts::from_direct(direct, HashMap::new(), 100);
        let freqs =
            Frequencies::compute(&f.ekg, &counts, FrequencyMode::PaperRecursive, false);
        (f.ekg, freqs)
    }

    #[test]
    fn identical_concepts_score_one() {
        let (ekg, freqs) = setup();
        let config = RelaxConfig::default();
        let s = QrScorer::new(&ekg, &freqs, &config);
        let c = ekg.lookup_name("headache")[0];
        let b = s.breakdown(c, c, Some(ContextTag::Treatment));
        assert!((b.score - 1.0).abs() < 1e-12, "{b:?}");
    }

    #[test]
    fn figure6_asymmetry_query_side_generalization_penalized() {
        let (ekg, freqs) = setup();
        let config = RelaxConfig::default();
        let s = QrScorer::new(&ekg, &freqs, &config);
        let pneumonia = ekg.lookup_name("pneumonia")[0];
        let lrti = ekg.lookup_name("lower respiratory tract infection")[0];
        let fwd = s.breakdown(pneumonia, lrti, Some(ContextTag::Treatment));
        let rev = s.breakdown(lrti, pneumonia, Some(ContextTag::Treatment));
        // Same sim_IC (Eq. 3 is symmetric)…
        assert!((fwd.sim_ic - rev.sim_ic).abs() < 1e-12);
        // …but the forward path (3 ups) is penalized more (0.9^6 vs 0.9^3).
        assert!((fwd.path_weight - 0.9f64.powi(6)).abs() < 1e-12);
        assert!((rev.path_weight - 0.9f64.powi(3)).abs() < 1e-12);
        assert!(fwd.score < rev.score);
    }

    #[test]
    fn sibling_with_more_specific_lcs_scores_higher() {
        let (ekg, freqs) = setup();
        let config = RelaxConfig::default();
        let s = QrScorer::new(&ekg, &freqs, &config);
        let headache = ekg.lookup_name("headache")[0];
        let throat = ekg.lookup_name("pain in throat")[0];
        let bronchitis = ekg.lookup_name("bronchitis")[0];
        let t = Some(ContextTag::Treatment);
        // headache and pain-in-throat share "pain of head and neck region";
        // headache and bronchitis only share the hierarchy head.
        assert!(s.score(headache, throat, t) > s.score(headache, bronchitis, t));
    }

    #[test]
    fn context_changes_scores() {
        let (ekg, freqs) = setup();
        let config = RelaxConfig::default();
        let s = QrScorer::new(&ekg, &freqs, &config);
        let headache = ekg.lookup_name("headache")[0];
        let throat = ekg.lookup_name("pain in throat")[0];
        let treat = s.score(headache, throat, Some(ContextTag::Treatment));
        let risk = s.score(headache, throat, Some(ContextTag::Risk));
        assert!((treat - risk).abs() > 1e-9, "contexts should differentiate: {treat} vs {risk}");
    }

    #[test]
    fn no_context_config_ignores_tag() {
        let (ekg, freqs) = setup();
        let config = RelaxConfig::default().no_context();
        let s = QrScorer::new(&ekg, &freqs, &config);
        let headache = ekg.lookup_name("headache")[0];
        let throat = ekg.lookup_name("pain in throat")[0];
        let a = s.score(headache, throat, Some(ContextTag::Treatment));
        let b = s.score(headache, throat, Some(ContextTag::Risk));
        let c = s.score(headache, throat, None);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn no_corpus_config_uses_intrinsic_ic() {
        let (ekg, freqs) = setup();
        let config = RelaxConfig::default().no_corpus();
        let s = QrScorer::new(&ekg, &freqs, &config);
        let headache = ekg.lookup_name("headache")[0];
        assert_eq!(s.ic(headache, Some(ContextTag::Treatment)), freqs.intrinsic_ic(headache));
    }

    #[test]
    fn plain_ic_baseline_has_unit_path_weight() {
        let (ekg, freqs) = setup();
        let config = RelaxConfig::default().ic_baseline();
        let s = QrScorer::new(&ekg, &freqs, &config);
        let pneumonia = ekg.lookup_name("pneumonia")[0];
        let lrti = ekg.lookup_name("lower respiratory tract infection")[0];
        let b = s.breakdown(pneumonia, lrti, None);
        assert_eq!(b.path_weight, 1.0);
        assert_eq!(b.score, b.sim_ic);
    }

    #[test]
    fn query_scoped_scorer_matches_per_pair_scorer() {
        let (ekg, freqs) = setup();
        let reach = ReachabilityIndex::build(&ekg);
        let names =
            ["headache", "pain in throat", "bronchitis", "pneumonia", "fever", "kidney disease"];
        for config in
            [RelaxConfig::default(), RelaxConfig::default().no_context(), RelaxConfig::default().no_corpus()]
        {
            let s = QrScorer::new(&ekg, &freqs, &config);
            for tag in [Some(ContextTag::Treatment), Some(ContextTag::Risk), None] {
                for a in names {
                    let qa = ekg.lookup_name(a)[0];
                    let mut scoped = s.query_scoped(qa, tag, &reach);
                    for b in names {
                        let cb = ekg.lookup_name(b)[0];
                        let slow = s.breakdown(qa, cb, tag);
                        let fast = scoped.breakdown(cb);
                        assert_eq!(slow, fast, "{a}/{b} {tag:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn score_bounds_are_admissible_on_the_fragment() {
        let (ekg, freqs) = setup();
        let reach = ReachabilityIndex::build(&ekg);
        let configs = [
            RelaxConfig::default(),
            RelaxConfig::default().no_context(),
            RelaxConfig::default().no_corpus(),
            RelaxConfig::default().ic_baseline(),
        ];
        for config in &configs {
            let s = QrScorer::new(&ekg, &freqs, config);
            for tag in [Some(ContextTag::Treatment), Some(ContextTag::Risk), None] {
                for q in ekg.concepts() {
                    let neigh = ekg.neighborhood(q, 6, &[]);
                    let max_h = neigh.iter().map(|&(_, h)| h).max().unwrap_or(0);
                    let max_dc =
                        neigh.iter().map(|&(c, _)| ekg.depth(c)).max().unwrap_or(0);
                    let mut scoped = s.query_scoped(q, tag, &reach);
                    let bounds = scoped.bounds(max_h, max_dc);
                    for &(c, h) in &neigh {
                        let exact = scoped.score(c);
                        let descendant = reach.is_ancestor(q, c);
                        let b = bounds.upper_bound(descendant, h, ekg.depth(c), s.ic(c, tag));
                        assert!(
                            exact <= b,
                            "bound not admissible: {q:?}→{c:?} {tag:?} exact {exact} > bound {b}"
                        );
                        if !descendant {
                            let rb =
                                bounds.refined_bound(&reach, c, h, ekg.depth(c), s.ic(c, tag));
                            assert!(
                                exact <= rb,
                                "refined bound not admissible: {q:?}→{c:?} {tag:?} \
                                 exact {exact} > refined {rb}"
                            );
                            assert!(
                                rb <= b,
                                "refined bound must not exceed the table bound: \
                                 {q:?}→{c:?} refined {rb} > table {b}"
                            );
                        }
                        let cap = bounds.ring_cap(h);
                        assert!(b <= cap, "ring cap below bound: {q:?}→{c:?} {b} > {cap}");
                    }
                    for h in 1..max_h {
                        assert!(
                            bounds.ring_cap(h + 1) <= bounds.ring_cap(h),
                            "ring cap must be nonincreasing in the hop count"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scores_bounded_in_unit_interval() {
        let (ekg, freqs) = setup();
        let config = RelaxConfig::default();
        let s = QrScorer::new(&ekg, &freqs, &config);
        let names =
            ["headache", "pain in throat", "bronchitis", "pneumonia", "fever", "kidney disease"];
        for a in names {
            for b in names {
                let (ca, cb) = (ekg.lookup_name(a)[0], ekg.lookup_name(b)[0]);
                let v = s.score(ca, cb, Some(ContextTag::Treatment));
                assert!((0.0..=1.0).contains(&v), "{a}/{b}: {v}");
            }
        }
    }
}
