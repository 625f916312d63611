//! Concept frequencies and information content (Eq. 1–2, §5.1).
//!
//! `freq(A) = |A| + Σ_{A_i ⊑ A} freq(A_i)` is computed per context in one
//! children-first topological pass (Algorithm 1 lines 12–18), normalized so
//! the root has frequency 1, and turned into information content
//! `IC(A) = −log freq(A)` (Eq. 1). Contexts map onto the corpus's context
//! tags (sentence families); Example 3's aggregation — a context whose
//! range concept has TBox descendants uses the total frequency over the
//! descendants' contexts — falls out of that mapping, and an explicit
//! aggregate (all tags) backs the no-context ablation.
//!
//! Zero-frequency concepts get half-count smoothing for IC: the corpus not
//! mentioning a concept is evidence of extreme specificity, not of
//! impossibility.

use medkb_corpus::MentionCounts;
use medkb_ekg::{Ekg, ReachabilityIndex};
use medkb_snomed::oracle::N_TAGS;
use medkb_snomed::ContextTag;
use medkb_types::{par, ExtConceptId, IdVec};

use crate::config::FrequencyMode;

/// Per-context (tag) normalized frequencies, corpus IC, and intrinsic IC.
///
/// The fields are the store's `freqs` section, in section order (DESIGN.md
/// §14.2): the store encodes them in place and decodes straight into them.
/// Every table holds one finite entry per concept of the graph it was
/// computed over, and each minimum is its table's [`Frequencies::min_of`];
/// `compute` and `finish` keep that true, and the store's decoder checks
/// all three of what it reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Frequencies {
    /// Normalized rolled-up frequency per tag, `[0, 1]` (`N_TAGS` tables).
    pub per_tag: Vec<IdVec<ExtConceptId, f64>>,
    /// Root (total) raw rolled-up weight per tag.
    pub per_tag_total: [f64; N_TAGS],
    /// Normalized frequency aggregated over all tags.
    pub aggregate: IdVec<ExtConceptId, f64>,
    /// Intrinsic (structure-only) IC à la Seco et al.: `1 − ln(1+|desc|)/ln N`.
    pub intrinsic: IdVec<ExtConceptId, f64>,
    /// Precomputed Eq. 1 IC per tag (smoothing folded in), so the scoring
    /// hot loop is a dense array probe instead of a branch + `ln` per call.
    pub ic_per_tag: Vec<IdVec<ExtConceptId, f64>>,
    /// Precomputed IC of the aggregate frequencies.
    pub ic_aggregate: IdVec<ExtConceptId, f64>,
    /// Smallest per-tag corpus IC over all concepts. The score-bounded
    /// pruning engine (DESIGN.md §13) uses it as the worst-case candidate
    /// IC in the Eq. 3 denominator of its ring-level caps.
    pub min_ic_per_tag: [f64; N_TAGS],
    /// Smallest aggregate corpus IC over all concepts.
    pub min_ic_aggregate: f64,
    /// Smallest intrinsic IC over all concepts.
    pub min_intrinsic: f64,
}

/// Eq. 1 with half-count smoothing: `−ln f`, or `−ln(0.5/total)` when the
/// concept was never mentioned; degenerate (0) contexts yield IC 0.
fn ic_value(f: f64, total: f64) -> f64 {
    if total <= 0.0 {
        // No corpus signal at all for this context: IC degenerates.
        return 0.0;
    }
    if f > 0.0 {
        -f.ln()
    } else {
        -(0.5 / total).ln()
    }
}

impl Frequencies {
    /// Compute frequencies for `ekg` from corpus `counts`.
    ///
    /// `use_tfidf` selects tf-idf-adjusted weights over raw counts;
    /// `mode` selects the Eq. 2 recursion semantics.
    pub fn compute(
        ekg: &Ekg,
        counts: &MentionCounts,
        mode: FrequencyMode,
        use_tfidf: bool,
    ) -> Self {
        Self::compute_with(ekg, counts, mode, use_tfidf, None, 1)
    }

    /// [`Frequencies::compute`] with optional accelerators: a prebuilt
    /// reachability index (intrinsic IC from its exact descendant counts
    /// instead of one BFS per concept) and a thread budget for the
    /// per-tag rollups.
    ///
    /// Bit-identical to the plain form: each tag's rollup is an
    /// independent computation, partial results are merged in tag order
    /// (the only f64 summation whose order matters), and the
    /// reachability-backed descendant counts are exact integers equal to
    /// what the BFS walk produces.
    pub fn compute_with(
        ekg: &Ekg,
        counts: &MentionCounts,
        mode: FrequencyMode,
        use_tfidf: bool,
        reach: Option<&ReachabilityIndex>,
        threads: usize,
    ) -> Self {
        let raw = RawFrequencies::compute(ekg, counts, mode, use_tfidf, threads);
        Self::finish(ekg, &raw, reach)
    }

    /// Normalize, aggregate, and derive the IC tables from a raw rollup
    /// state. `compute_with` is exactly `RawFrequencies::compute` +
    /// `finish`; delta ingestion patches the raw state in place and re-runs
    /// only this (cheap, allocation-bounded) tail.
    pub fn finish(ekg: &Ekg, raw_state: &RawFrequencies, reach: Option<&ReachabilityIndex>) -> Self {
        let n = ekg.len();
        let mut per_tag: Vec<IdVec<ExtConceptId, f64>> = Vec::with_capacity(N_TAGS);
        let mut per_tag_total = [0.0; N_TAGS];
        let mut aggregate_raw: IdVec<ExtConceptId, f64> = IdVec::filled(0.0, n);
        for (tag, raw) in raw_state.raws.iter().enumerate() {
            let total = raw[ekg.root()];
            per_tag_total[tag] = total;
            for (c, &v) in raw.iter() {
                aggregate_raw[c] += v;
            }
            let normalized: IdVec<ExtConceptId, f64> = raw
                .iter()
                .map(|(_, &v)| if total > 0.0 { v / total } else { 0.0 })
                .collect();
            per_tag.push(normalized);
        }
        let aggregate_total: f64 = per_tag_total.iter().sum();
        let aggregate: IdVec<ExtConceptId, f64> = aggregate_raw
            .iter()
            .map(|(_, &v)| if aggregate_total > 0.0 { v / aggregate_total } else { 0.0 })
            .collect();

        // Intrinsic IC: exact descendant counts either from the closure
        // index (one bitset scan) or from a BFS per concept. A graph with
        // n ≤ 1 concepts has ln n ≤ 0, which would turn the Seco formula
        // into ±∞/NaN; a singleton concept carries no discriminating
        // structure, so its intrinsic IC is defined as 0.
        let intrinsic: IdVec<ExtConceptId, f64> = if n <= 1 {
            IdVec::filled(0.0, n)
        } else {
            let ln_n = (n as f64).ln();
            let desc_count: Vec<u64> = match reach {
                Some(r) => r.descendant_counts(),
                None => (0..n)
                    .map(|i| ekg.descendants(medkb_types::Id::from_usize(i)).len() as u64)
                    .collect(),
            };
            desc_count
                .iter()
                .map(|&d| (1.0 - (1.0 + d as f64).ln() / ln_n).max(0.0))
                .collect()
        };

        let ic_per_tag: Vec<IdVec<ExtConceptId, f64>> = per_tag
            .iter()
            .zip(&per_tag_total)
            .map(|(freqs, &total)| freqs.iter().map(|(_, &f)| ic_value(f, total)).collect())
            .collect();
        let ic_aggregate: IdVec<ExtConceptId, f64> =
            aggregate.iter().map(|(_, &f)| ic_value(f, aggregate_total)).collect();

        // Per-selection IC minima, precomputed once so the pruning engine's
        // ring caps probe a scalar instead of scanning the tables.
        let mut min_ic_per_tag = [0.0; N_TAGS];
        for (tag, table) in ic_per_tag.iter().enumerate() {
            min_ic_per_tag[tag] = Self::min_of(table.as_slice());
        }
        let min_ic_aggregate = Self::min_of(ic_aggregate.as_slice());
        let min_intrinsic = Self::min_of(intrinsic.as_slice());

        Self {
            per_tag,
            per_tag_total,
            aggregate,
            intrinsic,
            ic_per_tag,
            ic_aggregate,
            min_ic_per_tag,
            min_ic_aggregate,
            min_intrinsic,
        }
    }

    /// The minimum each IC table's stored minimum must equal. Every IC
    /// value is finite and ≥ 0 (`ic_value` smooths, intrinsic is clamped),
    /// so an empty graph degenerates to 0 — the safe lower bound.
    pub fn min_of(table: &[f64]) -> f64 {
        let m = table.iter().copied().fold(f64::INFINITY, f64::min);
        if m.is_finite() { m } else { 0.0 }
    }

    /// Normalized frequency of `concept` in context `tag` (root = 1).
    pub fn freq(&self, concept: ExtConceptId, tag: ContextTag) -> f64 {
        self.per_tag[tag.index()][concept]
    }

    /// Normalized frequency aggregated over all contexts (the no-context
    /// fallback of §5.2).
    pub fn freq_aggregate(&self, concept: ExtConceptId) -> f64 {
        self.aggregate[concept]
    }

    /// Corpus IC (Eq. 1) of `concept` in context `tag`; `tag = None`
    /// aggregates over all contexts. Zero frequencies are smoothed to half
    /// a count.
    pub fn ic(&self, concept: ExtConceptId, tag: Option<ContextTag>) -> f64 {
        match tag {
            Some(t) => self.ic_per_tag[t.index()][concept],
            None => self.ic_aggregate[concept],
        }
    }

    /// Intrinsic (structure-only) IC of `concept`, in `[0, 1]`.
    pub fn intrinsic_ic(&self, concept: ExtConceptId) -> f64 {
        self.intrinsic[concept]
    }

    /// Smallest corpus IC any concept carries under `tag` (aggregate when
    /// `None`) — the worst-case Eq. 3 denominator contribution a candidate
    /// can bring, used by the pruning engine's ring caps (DESIGN.md §13).
    pub fn min_ic(&self, tag: Option<ContextTag>) -> f64 {
        match tag {
            Some(t) => self.min_ic_per_tag[t.index()],
            None => self.min_ic_aggregate,
        }
    }

    /// Smallest intrinsic IC any concept carries (the QR-no-corpus
    /// counterpart of [`Frequencies::min_ic`]).
    pub fn min_intrinsic_ic(&self) -> f64 {
        self.min_intrinsic
    }

    /// Root total raw weight per tag (diagnostics).
    pub fn total(&self, tag: ContextTag) -> f64 {
        self.per_tag_total[tag.index()]
    }
}

/// The un-normalized core of [`Frequencies`]: the dense direct-weight
/// table and the per-tag raw rollups. This is the state delta ingestion
/// keeps alive between publishes — direct rows and the dirty ancestor cone
/// of the rollups are patched in place, then [`Frequencies::finish`]
/// re-derives the normalized/IC tables.
#[derive(Debug, Clone, PartialEq)]
pub struct RawFrequencies {
    /// Direct (tf or tf-idf) weight per concept per tag.
    dense: Vec<[f64; N_TAGS]>,
    /// Raw rolled-up weight per tag (tag-major, each of length `n`).
    raws: Vec<IdVec<ExtConceptId, f64>>,
}

impl RawFrequencies {
    /// Compute the raw state from scratch (the head of
    /// [`Frequencies::compute_with`]).
    pub fn compute(
        ekg: &Ekg,
        counts: &MentionCounts,
        mode: FrequencyMode,
        use_tfidf: bool,
        threads: usize,
    ) -> Self {
        let n = ekg.len();
        // Dense direct-weight table: one hash probe and one idf `ln` per
        // mentioned concept instead of one per (concept, tag) rollup read.
        // `tf * idf` multiplies the same operands as `MentionCounts::tfidf`,
        // so the values are bit-identical to probing per read.
        let mut dense: Vec<[f64; N_TAGS]> = vec![[0.0; N_TAGS]; n];
        for c in counts.mentioned_concepts() {
            dense[medkb_types::Id::as_usize(c)] = Self::direct_row(counts, use_tfidf, c);
        }
        let direct =
            |c: ExtConceptId, tag: usize| -> f64 { dense[medkb_types::Id::as_usize(c)][tag] };
        let rollup = |tag: usize| match mode {
            FrequencyMode::PaperRecursive => rollup_recursive(ekg, |c| direct(c, tag)),
            FrequencyMode::DescendantSet => rollup_descendant_set(ekg, |c| direct(c, tag)),
        };

        // Raw rollups per tag, computed independently and kept in tag
        // order. When parallel, each tag gets its own worker: the rollups
        // cost about the same, so N_TAGS threads balance better than
        // uneven multi-tag chunks.
        let workers = if threads <= 1 { 1 } else { N_TAGS };
        let raws = par::shard_map(N_TAGS, workers, rollup);
        Self { dense, raws }
    }

    /// One concept's direct row — the exact expression `compute` evaluates,
    /// so a patched row is bit-identical to a fresh build's.
    fn direct_row(counts: &MentionCounts, use_tfidf: bool, c: ExtConceptId) -> [f64; N_TAGS] {
        let idf = counts.idf(c);
        let mut row = [0.0; N_TAGS];
        for (tag, slot) in row.iter_mut().enumerate() {
            let tf = counts.direct(c, tag) as f64;
            *slot = if !use_tfidf {
                tf
            } else if tf == 0.0 {
                0.0
            } else {
                tf * idf
            };
        }
        row
    }

    /// Extend the tables with zero rows up to `n` concepts (concept adds).
    /// The new rows must then be brought current via the patch methods.
    pub fn grow(&mut self, n: usize) {
        while self.dense.len() < n {
            self.dense.push([0.0; N_TAGS]);
        }
        for raw in &mut self.raws {
            while raw.len() < n {
                raw.push(0.0);
            }
        }
    }

    /// Recompute the direct rows of `dirty` concepts from `counts`.
    /// Recomputing a clean row reproduces its bits exactly, so conservative
    /// supersets are safe.
    pub fn patch_direct(
        &mut self,
        counts: &MentionCounts,
        use_tfidf: bool,
        dirty: impl IntoIterator<Item = ExtConceptId>,
    ) {
        for c in dirty {
            self.dense[medkb_types::Id::as_usize(c)] = Self::direct_row(counts, use_tfidf, c);
        }
    }

    /// Recompute the rolled-up rows of the dirty cone, reproducing exactly
    /// what a fresh rollup would put there (clean rows keep their bits, and
    /// each dirty row is rebuilt with the same operand order as the full
    /// pass).
    ///
    /// `dirty` must be closed under "row reads a changed input":
    /// * `PaperRecursive` — every concept whose direct row or native-child
    ///   multiset changed, plus all their ancestors (the recurrence reads
    ///   child rows, so the cone is upward-closed and is recomputed in
    ///   children-first topo order).
    /// * `DescendantSet` — every concept whose direct row changed and its
    ///   ancestors in both the old and new graph (rows are independent
    ///   gathers, recomputed against the **new** reachability index).
    pub fn patch_rollup(
        &mut self,
        ekg: &Ekg,
        mode: FrequencyMode,
        reach: &ReachabilityIndex,
        dirty: &std::collections::HashSet<ExtConceptId>,
    ) {
        match mode {
            FrequencyMode::PaperRecursive => {
                for (tag, raw) in self.raws.iter_mut().enumerate() {
                    for &c in ekg.topo_children_first() {
                        if !dirty.contains(&c) {
                            continue;
                        }
                        let mut f = self.dense[medkb_types::Id::as_usize(c)][tag];
                        for &child in ekg.children(c) {
                            f += raw[child];
                        }
                        raw[c] = f;
                    }
                }
            }
            FrequencyMode::DescendantSet => {
                for (tag, raw) in self.raws.iter_mut().enumerate() {
                    for &a in dirty {
                        // Replay the scatter pass's per-slot addition order:
                        // contributors arrive in ascending concept id, the
                        // self-contribution unconditionally, descendants
                        // only when their direct weight is nonzero.
                        let mut f = 0.0;
                        for c in ekg.concepts() {
                            let d = self.dense[medkb_types::Id::as_usize(c)][tag];
                            if c == a || (d != 0.0 && reach.is_ancestor(a, c)) {
                                f += d;
                            }
                        }
                        raw[a] = f;
                    }
                }
            }
        }
    }
}

/// Paper-literal Eq. 2 rollup: one children-first pass, each child's
/// rolled-up frequency added to every native parent.
fn rollup_recursive<F: Fn(ExtConceptId) -> f64>(ekg: &Ekg, direct: F) -> IdVec<ExtConceptId, f64> {
    let mut freq: IdVec<ExtConceptId, f64> = IdVec::filled(0.0, ekg.len());
    for &c in ekg.topo_children_first() {
        let mut f = direct(c);
        for &child in ekg.children(c) {
            f += freq[child];
        }
        freq[c] = f;
    }
    freq
}

/// Exact rollup: every concept's direct weight counted once per ancestor.
fn rollup_descendant_set<F: Fn(ExtConceptId) -> f64>(
    ekg: &Ekg,
    direct: F,
) -> IdVec<ExtConceptId, f64> {
    let mut freq: IdVec<ExtConceptId, f64> = IdVec::filled(0.0, ekg.len());
    for c in ekg.concepts() {
        let d = direct(c);
        freq[c] += d;
        if d != 0.0 {
            for anc in ekg.ancestors(c) {
                freq[anc] += d;
            }
        }
    }
    freq
}

#[cfg(test)]
mod tests {
    use super::*;
    use medkb_snomed::figures::paper_fragment;
    use std::collections::HashMap;

    /// Build MentionCounts from the Figure 4 fragment's pinned direct
    /// counts (Treatment = Indication context, Risk = Risk context).
    fn fig4_counts() -> (medkb_ekg::Ekg, MentionCounts) {
        let f = paper_fragment();
        let mut direct: HashMap<ExtConceptId, [u64; N_TAGS]> = HashMap::new();
        let mut doc_freq: HashMap<ExtConceptId, u32> = HashMap::new();
        for &(name, treat, risk) in &f.fig4_direct_counts {
            let c = f.concept(name);
            let mut row = [0u64; N_TAGS];
            row[ContextTag::Treatment.index()] = treat;
            row[ContextTag::Risk.index()] = risk;
            direct.insert(c, row);
            // Spread document frequencies so idf differs across concepts.
            doc_freq.insert(c, 1 + (treat / 500) as u32);
        }
        (f.ekg.clone(), MentionCounts::from_direct(direct, doc_freq, 100))
    }

    #[test]
    fn figure4_treatment_rollup_hits_published_totals() {
        let (ekg, counts) = fig4_counts();
        let freqs = Frequencies::compute(&ekg, &counts, FrequencyMode::PaperRecursive, false);
        let total = freqs.total(ContextTag::Treatment);
        let raw = |name: &str| freqs.freq(ekg.lookup_name(name)[0], ContextTag::Treatment) * total;
        assert_eq!(raw("headache").round() as u64, 18_000);
        assert_eq!(raw("craniofacial pain").round() as u64, 18_878);
        assert_eq!(raw("pain of head and neck region").round() as u64, 19_164);
    }

    #[test]
    fn figure4_risk_rollup_hits_published_totals() {
        let (ekg, counts) = fig4_counts();
        let freqs = Frequencies::compute(&ekg, &counts, FrequencyMode::PaperRecursive, false);
        let total = freqs.total(ContextTag::Risk);
        let raw = |name: &str| freqs.freq(ekg.lookup_name(name)[0], ContextTag::Risk) * total;
        assert_eq!(raw("craniofacial pain").round() as u64, 1_400);
        assert_eq!(raw("pain of head and neck region").round() as u64, 1_656);
    }

    #[test]
    fn root_has_normalized_frequency_one() {
        let (ekg, counts) = fig4_counts();
        let freqs = Frequencies::compute(&ekg, &counts, FrequencyMode::PaperRecursive, false);
        assert!((freqs.freq(ekg.root(), ContextTag::Treatment) - 1.0).abs() < 1e-12);
        assert!((freqs.freq_aggregate(ekg.root()) - 1.0).abs() < 1e-12);
        assert_eq!(freqs.ic(ekg.root(), Some(ContextTag::Treatment)), 0.0);
    }

    #[test]
    fn ic_decreases_towards_the_root() {
        let (ekg, counts) = fig4_counts();
        let freqs = Frequencies::compute(&ekg, &counts, FrequencyMode::PaperRecursive, false);
        let leaf = ekg.lookup_name("frequent headache")[0];
        let mid = ekg.lookup_name("craniofacial pain")[0];
        let top = ekg.lookup_name("pain")[0];
        let t = Some(ContextTag::Treatment);
        assert!(freqs.ic(leaf, t) > freqs.ic(mid, t));
        assert!(freqs.ic(mid, t) > freqs.ic(top, t));
    }

    #[test]
    fn zero_frequency_gets_smoothed_not_infinite() {
        let (ekg, counts) = fig4_counts();
        let freqs = Frequencies::compute(&ekg, &counts, FrequencyMode::PaperRecursive, false);
        let unmentioned = ekg.lookup_name("hypothermia")[0];
        let ic = freqs.ic(unmentioned, Some(ContextTag::Treatment));
        assert!(ic.is_finite());
        // Smoothed IC exceeds any mentioned concept's IC.
        let leaf = ekg.lookup_name("pain in throat")[0];
        assert!(ic > freqs.ic(leaf, Some(ContextTag::Treatment)));
    }

    #[test]
    fn singleton_graph_has_finite_documented_ic() {
        // n = 1 makes ln n = 0; the old clamp (`ln_n.max(f64::MIN_POSITIVE)`)
        // happened to yield 1.0, masking the degenerate case. The documented
        // value is 0: a singleton concept discriminates nothing.
        let mut b = medkb_ekg::EkgBuilder::new();
        let root = b.concept("only");
        let ekg = b.build().unwrap();
        let counts = MentionCounts::from_direct(HashMap::new(), HashMap::new(), 0);
        for mode in [FrequencyMode::PaperRecursive, FrequencyMode::DescendantSet] {
            let freqs = Frequencies::compute(&ekg, &counts, mode, false);
            assert_eq!(freqs.intrinsic_ic(root), 0.0);
            for tag in [None, Some(ContextTag::Treatment), Some(ContextTag::Risk)] {
                let ic = freqs.ic(root, tag);
                assert!(ic.is_finite(), "{mode:?} {tag:?}: {ic}");
                assert_eq!(ic, 0.0);
            }
            assert_eq!(freqs.freq(root, ContextTag::Treatment), 0.0);
            assert_eq!(freqs.freq_aggregate(root), 0.0);
        }
    }

    #[test]
    fn empty_corpus_yields_finite_ic_everywhere() {
        // An empty corpus means every per-tag total is 0, which must
        // degrade to IC 0 (no signal), never to -inf from `ln 0`.
        let ekg = paper_fragment().ekg;
        let counts = MentionCounts::from_direct(HashMap::new(), HashMap::new(), 0);
        let freqs = Frequencies::compute(&ekg, &counts, FrequencyMode::PaperRecursive, false);
        for c in ekg.concepts() {
            for tag in [None, Some(ContextTag::Treatment), Some(ContextTag::Risk)] {
                let ic = freqs.ic(c, tag);
                assert!(ic.is_finite() && ic == 0.0, "{c:?} {tag:?}: {ic}");
            }
            let intrinsic = freqs.intrinsic_ic(c);
            assert!(intrinsic.is_finite() && (0.0..=1.0).contains(&intrinsic));
        }
    }

    #[test]
    fn two_concept_graph_intrinsic_ic_is_exact() {
        // Smallest non-degenerate case: root IC 0, leaf IC 1.
        let mut b = medkb_ekg::EkgBuilder::new();
        let (leaf, root) = b.is_a_named("leaf", "root");
        let ekg = b.build().unwrap();
        let counts = MentionCounts::from_direct(HashMap::new(), HashMap::new(), 0);
        let freqs = Frequencies::compute(&ekg, &counts, FrequencyMode::PaperRecursive, false);
        assert_eq!(freqs.intrinsic_ic(root), 0.0);
        assert_eq!(freqs.intrinsic_ic(leaf), 1.0);
    }

    #[test]
    fn modes_agree_on_trees() {
        // The fragment is a tree (no multi-parent), so both rollups match.
        let (ekg, counts) = fig4_counts();
        let a = Frequencies::compute(&ekg, &counts, FrequencyMode::PaperRecursive, false);
        let b = Frequencies::compute(&ekg, &counts, FrequencyMode::DescendantSet, false);
        for c in ekg.concepts() {
            assert!(
                (a.freq(c, ContextTag::Treatment) - b.freq(c, ContextTag::Treatment)).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn modes_diverge_on_diamonds() {
        // Diamond: child under two parents is double-counted by the
        // paper-literal recursion at the grandparent.
        let mut b = medkb_ekg::EkgBuilder::new();
        let root = b.concept("root");
        let p1 = b.concept("p1");
        let p2 = b.concept("p2");
        let child = b.concept("child");
        b.is_a(p1, root);
        b.is_a(p2, root);
        b.is_a(child, p1);
        b.is_a(child, p2);
        let ekg = b.build().unwrap();
        let mut direct = HashMap::new();
        direct.insert(child, {
            let mut row = [0u64; N_TAGS];
            row[0] = 10;
            row
        });
        let counts = MentionCounts::from_direct(direct, HashMap::new(), 10);
        let rec = Frequencies::compute(&ekg, &counts, FrequencyMode::PaperRecursive, false);
        let exact = Frequencies::compute(&ekg, &counts, FrequencyMode::DescendantSet, false);
        let tag = ContextTag::Treatment;
        // Recursive: root total = 20 (child counted via both parents);
        // exact: root total = 10.
        assert!((rec.total(tag) - 20.0).abs() < 1e-12);
        assert!((exact.total(tag) - 10.0).abs() < 1e-12);
        // Normalized child frequency is therefore 0.5 vs 1.0.
        assert!((rec.freq(child, tag) - 0.5).abs() < 1e-12);
        assert!((exact.freq(child, tag) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_ic_matches_scan_over_all_concepts() {
        let (ekg, counts) = fig4_counts();
        let freqs = Frequencies::compute(&ekg, &counts, FrequencyMode::PaperRecursive, false);
        for tag in [None, Some(ContextTag::Treatment), Some(ContextTag::Risk)] {
            let scanned =
                ekg.concepts().map(|c| freqs.ic(c, tag)).fold(f64::INFINITY, f64::min);
            assert_eq!(freqs.min_ic(tag), scanned, "{tag:?}");
            assert!(freqs.min_ic(tag) >= 0.0);
        }
        let scanned =
            ekg.concepts().map(|c| freqs.intrinsic_ic(c)).fold(f64::INFINITY, f64::min);
        assert_eq!(freqs.min_intrinsic_ic(), scanned);
        // The root carries no information, so the minima bottom out at 0.
        assert_eq!(freqs.min_ic(Some(ContextTag::Treatment)), 0.0);
        assert_eq!(freqs.min_intrinsic_ic(), 0.0);
    }

    #[test]
    fn intrinsic_ic_monotone() {
        let (ekg, counts) = fig4_counts();
        let freqs = Frequencies::compute(&ekg, &counts, FrequencyMode::PaperRecursive, false);
        let leaf = ekg.lookup_name("frequent headache")[0];
        let mid = ekg.lookup_name("pain")[0];
        assert!(freqs.intrinsic_ic(leaf) > freqs.intrinsic_ic(mid));
        assert!(freqs.intrinsic_ic(ekg.root()) < 0.2);
        assert!((freqs.intrinsic_ic(leaf) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compute_with_accelerators_is_bit_identical() {
        let (ekg, counts) = fig4_counts();
        let reach = ReachabilityIndex::build(&ekg);
        for mode in [FrequencyMode::PaperRecursive, FrequencyMode::DescendantSet] {
            for tfidf in [false, true] {
                let plain = Frequencies::compute(&ekg, &counts, mode, tfidf);
                for threads in [1, 2, 4, 8] {
                    let fast = Frequencies::compute_with(
                        &ekg,
                        &counts,
                        mode,
                        tfidf,
                        Some(&reach),
                        threads,
                    );
                    assert_eq!(fast, plain, "mode={mode:?} tfidf={tfidf} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn patched_raw_matches_fresh_compute() {
        // Bump one concept's Treatment count (doc freqs and n_docs fixed,
        // so only that concept's direct row changes), patch its ancestor
        // cone, and demand bit-identity with a from-scratch compute.
        let f = paper_fragment();
        let ekg = f.ekg.clone();
        let reach = ReachabilityIndex::build(&ekg);
        let mk = |bump: u64| {
            let mut direct: HashMap<ExtConceptId, [u64; N_TAGS]> = HashMap::new();
            let mut doc_freq: HashMap<ExtConceptId, u32> = HashMap::new();
            for &(name, treat, risk) in &f.fig4_direct_counts {
                let c = f.concept(name);
                let mut row = [0u64; N_TAGS];
                row[ContextTag::Treatment.index()] =
                    treat + if name == "headache" { bump } else { 0 };
                row[ContextTag::Risk.index()] = risk;
                direct.insert(c, row);
                doc_freq.insert(c, 1 + (treat / 500) as u32);
            }
            MentionCounts::from_direct(direct, doc_freq, 100)
        };
        let old = mk(0);
        let new = mk(7);
        let changed = ekg.lookup_name("headache")[0];
        for mode in [FrequencyMode::PaperRecursive, FrequencyMode::DescendantSet] {
            for tfidf in [false, true] {
                let mut raw = RawFrequencies::compute(&ekg, &old, mode, tfidf, 1);
                let mut dirty: std::collections::HashSet<ExtConceptId> =
                    ekg.ancestors(changed).into_iter().collect();
                dirty.insert(changed);
                raw.patch_direct(&new, tfidf, dirty.iter().copied());
                raw.patch_rollup(&ekg, mode, &reach, &dirty);
                let fresh = RawFrequencies::compute(&ekg, &new, mode, tfidf, 1);
                assert_eq!(raw, fresh, "raw state mode={mode:?} tfidf={tfidf}");
                assert_eq!(
                    Frequencies::finish(&ekg, &raw, Some(&reach)),
                    Frequencies::compute_with(&ekg, &new, mode, tfidf, Some(&reach), 1),
                    "finished state mode={mode:?} tfidf={tfidf}"
                );
            }
        }
    }

    #[test]
    fn tfidf_changes_weights_but_not_structure() {
        let (ekg, counts) = fig4_counts();
        let raw = Frequencies::compute(&ekg, &counts, FrequencyMode::PaperRecursive, false);
        let tfidf = Frequencies::compute(&ekg, &counts, FrequencyMode::PaperRecursive, true);
        let t = ContextTag::Treatment;
        // Root normalized stays 1 either way.
        assert!((tfidf.freq(ekg.root(), t) - 1.0).abs() < 1e-12);
        // Monotonicity along the chain is preserved.
        let leaf = ekg.lookup_name("headache")[0];
        let mid = ekg.lookup_name("craniofacial pain")[0];
        assert!(tfidf.freq(mid, t) >= tfidf.freq(leaf, t));
        // But the actual values differ from the raw ones.
        assert!((tfidf.freq(leaf, t) - raw.freq(leaf, t)).abs() > 1e-9);
    }
}
