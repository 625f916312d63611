//! Online query relaxation (Algorithm 2, §5.2).

use std::collections::BinaryHeap;
use std::sync::Arc;

use medkb_ekg::NeighborhoodScan;
use medkb_obs::{Counter, Histogram, Registry};
use medkb_snomed::ContextTag;
use medkb_types::{par, ContextId, ExtConceptId, Id, InstanceId, MedKbError, Result};

use crate::config::RelaxConfig;
use crate::ingest::IngestOutput;
use crate::similarity::QrScorer;

/// Metric names the relaxation engine registers (DESIGN.md §10). The
/// `bench_json` smoke assertions and the conformance tests reference these
/// rather than repeating string literals.
pub mod obs_names {
    /// Relaxation calls served (counter).
    pub const QUERIES: &str = "relax.queries";
    /// Concepts examined by the neighborhood scan (counter).
    pub const CANDIDATES_SCANNED: &str = "relax.candidates.scanned";
    /// Scanned concepts kept as flagged candidates (counter).
    pub const CANDIDATES_KEPT: &str = "relax.candidates.kept";
    /// Scanned concepts pruned for not being flagged (counter).
    pub const CANDIDATES_PRUNED: &str = "relax.candidates.pruned";
    /// Dynamic radius increments beyond the configured radius (counter).
    pub const RADIUS_GROWTHS: &str = "relax.radius.growths";
    /// Candidate-side LCS evaluations (counter).
    pub const LCS_EVALS: &str = "relax.lcs.evals";
    /// LCS evaluations that hit the amortized query-side upward-distance
    /// table instead of re-running the query-side search. The table is
    /// built once per query *before* any candidate is scored, so every
    /// scoped evaluation — including the first — reuses it, and this
    /// counter always equals [`LCS_EVALS`] (pinned by
    /// `tests/obs_conformance.rs`); the reference twin, by contrast, pays
    /// the query-side search once per pair (counter).
    pub const LCS_QUERY_REUSE: &str = "relax.lcs.query_side_reuse";
    /// Candidates whose admissible Eq. 5 upper bound could not beat the
    /// provisional k-th answer, skipped without an LCS evaluation
    /// (counter; zero when the call falls outside the bound derivation:
    /// step weights above 1 or relevance feedback). Invariant:
    /// [`LCS_EVALS`] + this == [`CANDIDATES_KEPT`], pinned by
    /// `tests/obs_conformance.rs`.
    pub const BOUND_SKIPS: &str = "relax.lcs.bound_skips";
    /// Whole BFS rings abandoned because the ring-level cap fell below the
    /// provisional k-th answer (counter).
    pub const RINGS_TERMINATED: &str = "relax.rings.terminated";
    /// How tight the bound was on candidates that *were* evaluated:
    /// `round(100 · exact / bound)` per evaluation (histogram). Values
    /// near 100 mean the bound is nearly exact where it matters.
    pub const BOUND_TIGHTNESS_PCT: &str = "relax.bound.tightness_pct";
    /// Query terms that resolved to no external concept (counter).
    pub const RESOLVE_NOT_FOUND: &str = "relax.resolve.not_found";
    /// Per-query end-to-end latency (µs histogram).
    pub const LATENCY_US: &str = "relax.latency_us";
    /// Batch entry-point invocations (counter).
    pub const BATCH_CALLS: &str = "relax.batch.calls";
    /// Queries submitted through the batch entry points (counter).
    pub const BATCH_QUERIES: &str = "relax.batch.queries";
    /// Shards the batch entry points spawned (counter).
    pub const BATCH_SHARDS: &str = "relax.batch.shards";
    /// Queries per spawned shard (histogram — shard utilization).
    pub const BATCH_SHARD_SIZE: &str = "relax.batch.shard_size";
}

/// Bucket bounds for the shard-size histogram: shard sizes are small
/// integers, so a fine linear-ish ladder reads better than the latency
/// decades.
const SHARD_SIZE_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Bucket bounds for the bound-tightness histogram: percent of the bound
/// the exact score reached, with fine resolution near the top where a
/// useful bound lives.
const BOUND_TIGHTNESS_BOUNDS: &[u64] = &[10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 100];

/// Pre-resolved metric handles — one mutex-guarded registry lookup per
/// name at engine construction, lock-free atomic recording afterwards.
#[derive(Debug, Clone)]
struct RelaxMetrics {
    queries: Arc<Counter>,
    candidates_scanned: Arc<Counter>,
    candidates_kept: Arc<Counter>,
    candidates_pruned: Arc<Counter>,
    radius_growths: Arc<Counter>,
    lcs_evals: Arc<Counter>,
    lcs_query_reuse: Arc<Counter>,
    bound_skips: Arc<Counter>,
    rings_terminated: Arc<Counter>,
    bound_tightness: Arc<Histogram>,
    resolve_not_found: Arc<Counter>,
    latency: Arc<Histogram>,
    batch_calls: Arc<Counter>,
    batch_queries: Arc<Counter>,
    batch_shards: Arc<Counter>,
    batch_shard_size: Arc<Histogram>,
}

impl RelaxMetrics {
    fn resolve(registry: &Registry) -> Self {
        Self {
            queries: registry.counter(obs_names::QUERIES),
            candidates_scanned: registry.counter(obs_names::CANDIDATES_SCANNED),
            candidates_kept: registry.counter(obs_names::CANDIDATES_KEPT),
            candidates_pruned: registry.counter(obs_names::CANDIDATES_PRUNED),
            radius_growths: registry.counter(obs_names::RADIUS_GROWTHS),
            lcs_evals: registry.counter(obs_names::LCS_EVALS),
            lcs_query_reuse: registry.counter(obs_names::LCS_QUERY_REUSE),
            bound_skips: registry.counter(obs_names::BOUND_SKIPS),
            rings_terminated: registry.counter(obs_names::RINGS_TERMINATED),
            bound_tightness: registry
                .histogram(obs_names::BOUND_TIGHTNESS_PCT, BOUND_TIGHTNESS_BOUNDS),
            resolve_not_found: registry.counter(obs_names::RESOLVE_NOT_FOUND),
            latency: registry.latency(obs_names::LATENCY_US),
            batch_calls: registry.counter(obs_names::BATCH_CALLS),
            batch_queries: registry.counter(obs_names::BATCH_QUERIES),
            batch_shards: registry.counter(obs_names::BATCH_SHARDS),
            batch_shard_size: registry.histogram(obs_names::BATCH_SHARD_SIZE, SHARD_SIZE_BOUNDS),
        }
    }
}

/// The full Eq. 1–5 derivation of one answer's score, attached to
/// [`RelaxedAnswer`] when [`crate::config::ObsConfig::explain`] is on.
/// This is what the golden-trace conformance suite snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreExplain {
    /// Eq. 1 IC of the query concept under the active context/config.
    pub ic_query: f64,
    /// Eq. 1 IC of the candidate concept.
    pub ic_candidate: f64,
    /// Average Eq. 1 IC over the LCS set (footnote 1).
    pub ic_lcs: f64,
    /// Eq. 2 normalized context frequency of the query concept (the
    /// aggregate over contexts when no context applies).
    pub freq_query: f64,
    /// Eq. 2 normalized context frequency of the candidate concept.
    pub freq_candidate: f64,
    /// The least common subsumers the score routed through.
    pub lcs: Vec<ExtConceptId>,
    /// Eq. 4 generalization steps (query concept up to the LCS level).
    pub generalizations: u32,
    /// Eq. 4 specialization steps (LCS level down to the candidate).
    pub specializations: u32,
    /// Eq. 3 context-aware IC similarity.
    pub sim_ic: f64,
    /// Eq. 4 direction-weighted path factor.
    pub path_weight: f64,
    /// Eq. 5 product — the answer's score before any relevance-feedback
    /// adjustment ([`RelaxedAnswer::score`] may additionally carry one).
    pub score: f64,
    /// Which registered source derived the score — `None` from the
    /// single-source engine, stamped by the federated gather
    /// ([`crate::federate::FederatedRelaxer`]) so a merged answer's
    /// derivation names the DAG its ICs and paths came from.
    pub source: Option<medkb_types::SourceId>,
}

/// One relaxed answer: a flagged external concept with its score and the
/// KB instances it maps to.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaxedAnswer {
    /// The semantically related external concept.
    pub concept: ExtConceptId,
    /// Eq. 5 similarity to the query concept.
    pub score: f64,
    /// Hop distance, over the graph and its shortcuts, at which it was
    /// found.
    pub hops: u32,
    /// The KB instances mapped to the concept.
    pub instances: Vec<InstanceId>,
    /// The Eq. 1–5 derivation — populated only when
    /// [`crate::config::ObsConfig::explain`] is enabled.
    pub explain: Option<ScoreExplain>,
}

/// The outcome of one relaxation call.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaxationResult {
    /// The external concept the query term resolved to.
    pub query_concept: ExtConceptId,
    /// The radius actually used (≥ the configured radius when dynamic
    /// growth kicked in).
    pub radius_used: u32,
    /// Ranked answers, best first, truncated at `k` *instances*.
    pub answers: Vec<RelaxedAnswer>,
}

impl RelaxationResult {
    /// The returned instances, flattened in rank order.
    pub fn instances(&self) -> Vec<InstanceId> {
        self.answers.iter().flat_map(|a| a.instances.iter().copied()).collect()
    }

    /// The ranked concepts.
    pub fn concepts(&self) -> Vec<ExtConceptId> {
        self.answers.iter().map(|a| a.concept).collect()
    }
}

/// The one answer-ordering comparator every ranking surface shares — the
/// online path, the preserved reference twin, and the explicit-pool ranking
/// used by the evaluation harness (and, through them, the serving cache).
///
/// Order: score descending (`total_cmp` is a total order, and
/// [`RelaxConfig::validate`] rejects NaN weights before any scoring), then
/// hop distance ascending (nearer answers first among equals, Algorithm 2
/// line 3), then concept id ascending so exact ties break deterministically
/// across thread counts, caches, and twins.
pub fn rank_order(
    a: (f64, u32, ExtConceptId),
    b: (f64, u32, ExtConceptId),
) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
}

/// `f64` under `total_cmp` — lets [`rank_order`]'s score key live inside an
/// `Ord` sort key so it can be cached once per candidate instead of
/// re-derived on every comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TotalF64(f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Percent of the bound the exact score reached, for the tightness
/// histogram. Admissibility guarantees `exact ≤ bound`; a zero bound can
/// only pair with a zero score, which counts as perfectly tight.
fn tightness_pct(exact: f64, bound: f64) -> u64 {
    if bound > 0.0 {
        (100.0 * exact / bound).round().clamp(0.0, 100.0) as u64
    } else {
        100
    }
}

/// One provisional answer inside the bounded scan's heap. Ordered by
/// [`rank_order`] with the *worst*-ranked entry as the maximum, so
/// `BinaryHeap::peek`/`pop` expose the current cut-off candidate.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    score: f64,
    hops: u32,
    concept: ExtConceptId,
    instances: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        rank_order(
            (self.score, self.hops, self.concept),
            (other.score, other.hops, other.concept),
        )
    }
}

/// The online relaxation engine: owns the ingestion output and answers
/// `[query term, context]` inputs with top-k semantically related KB
/// instances.
#[derive(Debug, Clone)]
pub struct QueryRelaxer {
    ingested: IngestOutput,
    config: RelaxConfig,
    /// Pre-resolved handles when `config.obs.metrics` is set; `None` makes
    /// every record site one never-taken branch (no atomics, no timers).
    metrics: Option<RelaxMetrics>,
}

impl QueryRelaxer {
    /// Wrap an ingestion output with the runtime configuration. The
    /// candidate scan walks the output's shortcut overlay, so this builds
    /// nothing.
    pub fn new(ingested: IngestOutput, config: RelaxConfig) -> Self {
        let metrics = config.obs.registry().map(RelaxMetrics::resolve);
        Self { ingested, config, metrics }
    }

    /// The ingestion artifacts (read access for integrations).
    pub fn ingested(&self) -> &IngestOutput {
        &self.ingested
    }

    /// The active configuration.
    pub fn config(&self) -> &RelaxConfig {
        &self.config
    }

    /// Resolve a query term to its external concept (Algorithm 2 line 1).
    ///
    /// With [`RelaxConfig::strip_modifiers`] enabled, a failed lookup
    /// retries with leading words dropped one at a time, all the way down
    /// to the final single word — users often prepend severity words the
    /// terminology does not carry (`"severe cough"` → `"cough"`,
    /// `"severe psychogenic fever"` → `"psychogenic fever"` → `"fever"`).
    /// The single-word suffix is a deliberate last resort: it only wins
    /// when every longer suffix missed, so a multi-word match always
    /// takes precedence over its own head noun.
    pub fn resolve_term(&self, term: &str) -> Result<ExtConceptId> {
        if let Some(c) = self.ingested.mapper.map(&self.ingested.ekg, term) {
            return Ok(c);
        }
        if self.config.strip_modifiers {
            let words = medkb_text::tokenize(term);
            for start in 1..words.len() {
                let stripped = words[start..].join(" ");
                if let Some(c) = self.ingested.mapper.map(&self.ingested.ekg, &stripped) {
                    return Ok(c);
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.resolve_not_found.inc();
        }
        Err(MedKbError::not_found("external concept", term))
    }

    /// [`MedKbError::NotFound`] unless `concept` is a concept of this
    /// world. Raw ids arrive from the wire unchecked, and the graph indexes
    /// by them, so the entry points the wire reaches check them here
    /// first: [`Self::relax_concept_with_feedback`],
    /// [`Self::relax_concept_reference`] and [`Self::explain`].
    fn check_concept(&self, concept: ExtConceptId) -> Result<()> {
        if concept.as_usize() < self.ingested.ekg.len() {
            Ok(())
        } else {
            Err(MedKbError::not_found(
                "external concept",
                concept.raw().to_string(),
            ))
        }
    }

    /// Run Algorithm 2 for `[term, context]`, returning up to `k`
    /// instances' worth of ranked answers.
    ///
    /// # Errors
    /// [`MedKbError::NotFound`] if the term resolves to no external concept
    /// even under the configured approximate matcher, or
    /// [`MedKbError::InvalidArgument`] for `k = 0`.
    pub fn relax(&self, term: &str, context: Option<ContextId>, k: usize) -> Result<RelaxationResult> {
        let query = self.resolve_term(term)?;
        self.relax_concept(query, context, k)
    }

    /// Algorithm 2 starting from an already-resolved query concept.
    pub fn relax_concept(
        &self,
        query: ExtConceptId,
        context: Option<ContextId>,
        k: usize,
    ) -> Result<RelaxationResult> {
        self.relax_concept_with_feedback(query, context, k, None)
    }

    /// Algorithm 2 with relevance-feedback rescoring (§7.2's proposed
    /// extension; see [`crate::feedback`]). Pass `None` for plain Eq. 5.
    pub fn relax_concept_with_feedback(
        &self,
        query: ExtConceptId,
        context: Option<ContextId>,
        k: usize,
        feedback: Option<&crate::feedback::FeedbackStore>,
    ) -> Result<RelaxationResult> {
        // NaN weights would rank by NaN without failing (total_cmp is a
        // total order), so reject broken configs before any scoring.
        self.config.validate()?;
        if k == 0 {
            return Err(MedKbError::invalid("k must be positive"));
        }
        self.check_concept(query)?;
        // The RAII span records the full call into `relax.latency_us` when
        // instrumentation is on; `None` otherwise — no timer read at all.
        let _span = self.metrics.as_ref().map(|m| m.latency.time());
        let tag: Option<ContextTag> = context.map(|c| self.ingested.tag(c));

        // Candidate gathering (line 2), with dynamic radius growth.
        let (candidates, radius, scanned) = self.gather(query, k);
        if let Some(m) = &self.metrics {
            m.queries.inc();
            m.candidates_scanned.add(scanned as u64);
            m.candidates_kept.add(candidates.len() as u64);
            m.candidates_pruned.add((scanned - candidates.len()) as u64);
            m.radius_growths.add(u64::from(radius - self.config.radius.max(1)));
        }
        if candidates.is_empty() {
            // Nothing to score — skip building the query-scoped tables.
            // Bit-identical to falling through (no candidates ⇒ no answers).
            return Ok(RelaxationResult { query_concept: query, radius_used: radius, answers: Vec::new() });
        }

        // Scoring and ranking (line 3): the query-scoped scorer amortizes
        // the query-side search and IC over all candidates. Where the bound
        // derivation holds, the bounded scan evaluates only candidates
        // whose upper bound can still reach the top-k; its output is the
        // exhaustive ranking's minimal answer prefix, bit for bit
        // (DESIGN.md §13).
        let scorer = QrScorer::new(&self.ingested.ekg, &self.ingested.freqs, &self.config);
        let mut scoped = scorer.query_scoped(query, tag, &self.ingested.reach);
        let scored: Vec<(ExtConceptId, u32, f64)> = if self.pruning_active(feedback) {
            self.scan_bounded(&scorer, &mut scoped, query, tag, &candidates, k)
        } else {
            // Exhaustive twin of the bounded scan. The query-side table is
            // built eagerly, before any candidate is scored, so every
            // evaluation — the first included — reuses it: reuse == evals
            // exactly, here trivially candidates.len() of each.
            if let Some(m) = &self.metrics {
                m.lcs_evals.add(candidates.len() as u64);
                m.lcs_query_reuse.add(candidates.len() as u64);
            }
            let mut scored: Vec<(ExtConceptId, u32, f64)> = candidates
                .into_iter()
                .map(|(concept, hops)| {
                    let mut score = scoped.score(concept);
                    if let (Some(store), Some(t)) = (feedback, tag) {
                        score *= store.adjustment(query, concept, t);
                    }
                    (concept, hops, score)
                })
                .collect();
            scored.sort_by(|a, b| rank_order((a.2, a.1, a.0), (b.2, b.1, b.0)));
            scored
        };

        // Result accumulation until k instances (lines 4–8); instance lists
        // are cloned only for the answers that survive the cut.
        let mut answers = Vec::new();
        let mut returned = 0usize;
        for (concept, hops, score) in scored {
            if returned >= k {
                break;
            }
            let instances = self.ingested.instances(concept);
            returned += instances.len();
            let explain = self
                .config
                .obs
                .explain
                .then(|| self.explain_answer(&scorer, &mut scoped, query, concept, tag));
            answers.push(RelaxedAnswer {
                concept,
                score,
                hops,
                instances: instances.to_vec(),
                explain,
            });
        }

        Ok(RelaxationResult { query_concept: query, radius_used: radius, answers })
    }

    /// Algorithm 2 line 2 with dynamic radius growth: the flagged concepts
    /// within the radius that growth settles on for an instance budget of
    /// `k`, as `(concept, hops)` in discovery order, and that radius. This
    /// is the candidate list every relaxation of `query` scores.
    ///
    /// # Errors
    /// [`MedKbError::NotFound`] for an id outside the world,
    /// [`MedKbError::InvalidArgument`] for `k = 0`.
    pub fn candidates(
        &self,
        query: ExtConceptId,
        k: usize,
    ) -> Result<(Vec<(ExtConceptId, u32)>, u32)> {
        if k == 0 {
            return Err(MedKbError::invalid("k must be positive"));
        }
        self.check_concept(query)?;
        let (candidates, radius, _) = self.gather(query, k);
        Ok((candidates, radius))
    }

    /// [`Self::candidates`] for a checked `query`, plus the number of
    /// concepts scanned. The scan walks the overlay's CSR adjacency ring by
    /// ring and
    /// keeps its rings across radius increments, so growth pays only for
    /// each newly reached ring; the flag check runs inline as each concept
    /// is discovered.
    fn gather(&self, query: ExtConceptId, k: usize) -> (Vec<(ExtConceptId, u32)>, u32, usize) {
        let mut radius = self.config.radius.max(1);
        let flagged = &self.ingested.flagged;
        let mut scan = NeighborhoodScan::new(self.ingested.shortcuts.adjacency(), query);
        let mut candidates: Vec<(ExtConceptId, u32)> = Vec::new();
        let mut reachable_instances = 0usize;
        loop {
            scan.expand_with(radius, |c, h| {
                if flagged.contains(&c) {
                    reachable_instances += self.ingested.instances(c).len();
                    candidates.push((c, h));
                }
            });
            if !self.config.dynamic_radius
                || reachable_instances >= k
                || radius >= self.config.max_radius
            {
                break;
            }
            radius += 1;
        }
        (candidates, radius, scan.discovered().len())
    }

    /// Whether the score-bounded scan may run for this call. The bound
    /// derivation (DESIGN.md §13) requires every Eq. 4 step weight ≤ 1
    /// (validate() deliberately admits larger ones), and relevance
    /// feedback multiplies scores by `exp(λ·s)` which can exceed 1 — both
    /// fall back to the exhaustive scan so answers never drift.
    fn pruning_active(&self, feedback: Option<&crate::feedback::FeedbackStore>) -> bool {
        feedback.is_none()
            && (!self.config.use_path_weight
                || (self.config.w_gen <= 1.0 && self.config.w_spec <= 1.0))
    }

    /// The score-bounded top-k scan (DESIGN.md §13): walk candidates in
    /// BFS ring order keeping a heap of provisional answers whose worst
    /// element is the cut-off; once the heap covers `k` instances, skip
    /// the exact LCS evaluation of any candidate whose admissible upper
    /// bound is strictly below the cut, and abandon all remaining rings
    /// when the ring-level cap is.
    ///
    /// Returns the surviving candidates in [`rank_order`] — a list whose
    /// leading entries are exactly the exhaustive ranking's minimal
    /// `k`-instance prefix: a candidate is ever discarded (skip, ring
    /// termination, or heap trim) only while ≥ `k` instances' worth of
    /// *strictly better-ranked* candidates are present, which certifies it
    /// can never enter that prefix. Skips require `bound < cut` strictly,
    /// so exact score ties — which the concept-id key must break — are
    /// always evaluated, keeping answers bit-identical to the exhaustive
    /// twin.
    #[allow(clippy::too_many_arguments)]
    fn scan_bounded(
        &self,
        scorer: &QrScorer<'_>,
        scoped: &mut crate::similarity::QueryScorer<'_>,
        query: ExtConceptId,
        tag: Option<ContextTag>,
        candidates: &[(ExtConceptId, u32)],
        k: usize,
    ) -> Vec<(ExtConceptId, u32, f64)> {
        let ekg = &self.ingested.ekg;
        let reach = &self.ingested.reach;
        // Candidates arrive in BFS order, so hops are nondecreasing and
        // the table dimensions come from the last ring and deepest entry.
        let max_h = candidates.last().map(|&(_, h)| h).unwrap_or(0);
        let max_dc = candidates.iter().map(|&(c, _)| ekg.depth(c)).max().unwrap_or(0);
        let bounds = scoped.bounds(max_h, max_dc);

        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        let mut inst_sum = 0usize;
        let (mut evals, mut skips, mut rings) = (0u64, 0u64, 0u64);
        let mut idx = 0usize;
        while idx < candidates.len() {
            let (c, h) = candidates[idx];
            // The cut-off exists once the heap covers k instances; every
            // heap entry then outranks anything scoring strictly below it.
            let cut = if inst_sum >= k { heap.peek().map(|w| w.score) } else { None };
            let mut bound_at_eval = None;
            if let Some(cut) = cut {
                if idx > 0 && candidates[idx - 1].1 < h && bounds.ring_cap(h) < cut {
                    // Ring boundary, and even the cap over every candidate
                    // at hop ≥ h cannot reach the cut: the scan is settled.
                    skips += (candidates.len() - idx) as u64;
                    let mut last_ring = u32::MAX;
                    for &(_, rh) in &candidates[idx..] {
                        if rh != last_ring {
                            rings += 1;
                            last_ring = rh;
                        }
                    }
                    break;
                }
                let descendant = reach.is_ancestor(query, c);
                let (dc, ic) = (ekg.depth(c), scorer.ic(c, tag));
                let mut b = bounds.upper_bound(descendant, h, dc, ic);
                if b >= cut && !descendant {
                    // Tier 2: restrict the member pool to actual common
                    // subsumers (one bit probe per query ancestor) — far
                    // cheaper than the LCS eval it tries to avoid.
                    b = bounds.refined_bound(reach, c, h, dc, ic);
                }
                if b < cut {
                    skips += 1;
                    idx += 1;
                    continue;
                }
                bound_at_eval = Some(b);
            }
            let score = scoped.score(c);
            evals += 1;
            if let (Some(m), Some(b)) = (&self.metrics, bound_at_eval) {
                m.bound_tightness.record(tightness_pct(score, b));
            }
            let instances = self.ingested.instances(c).len();
            inst_sum += instances;
            heap.push(HeapEntry { score, hops: h, concept: c, instances });
            // Trim: drop the rank-worst entry while the rest still covers
            // k instances — everything remaining outranks it strictly, so
            // it can never reach the answer prefix.
            while let Some(w) = heap.peek() {
                if inst_sum - w.instances >= k {
                    inst_sum -= w.instances;
                    heap.pop();
                } else {
                    break;
                }
            }
            idx += 1;
        }
        debug_assert_eq!(evals + skips, candidates.len() as u64);
        if let Some(m) = &self.metrics {
            m.lcs_evals.add(evals);
            m.lcs_query_reuse.add(evals);
            m.bound_skips.add(skips);
            m.rings_terminated.add(rings);
        }
        let mut survivors: Vec<(ExtConceptId, u32, f64)> =
            heap.into_iter().map(|e| (e.concept, e.hops, e.score)).collect();
        survivors.sort_by(|a, b| rank_order((a.2, a.1, a.0), (b.2, b.1, b.0)));
        survivors
    }

    /// Build the [`ScoreExplain`] derivation for one surviving answer.
    /// Re-derives the breakdown for answers only (not every scanned
    /// candidate), so the explain path costs O(answers), and the scoring
    /// loop above stays identical whether or not explain is on.
    fn explain_answer(
        &self,
        scorer: &QrScorer<'_>,
        scoped: &mut crate::similarity::QueryScorer<'_>,
        query: ExtConceptId,
        candidate: ExtConceptId,
        tag: Option<ContextTag>,
    ) -> ScoreExplain {
        let b = scoped.breakdown(candidate);
        // Eq. 2 frequencies mirror the IC's context selection: the tag when
        // context use is on, the aggregate rollup otherwise.
        let effective = if self.config.use_context { tag } else { None };
        let freq_of = |c: ExtConceptId| match effective {
            Some(t) => self.ingested.freqs.freq(c, t),
            None => self.ingested.freqs.freq_aggregate(c),
        };
        let ic_lcs: f64 = b.lcs.concepts.iter().map(|&c| scorer.ic(c, tag)).sum::<f64>()
            / b.lcs.concepts.len() as f64;
        ScoreExplain {
            ic_query: scorer.ic(query, tag),
            ic_candidate: scorer.ic(candidate, tag),
            ic_lcs,
            freq_query: freq_of(query),
            freq_candidate: freq_of(candidate),
            lcs: b.lcs.concepts.clone(),
            generalizations: b.lcs.dist_a,
            specializations: b.lcs.dist_b,
            sim_ic: b.sim_ic,
            path_weight: b.path_weight,
            score: b.score,
            source: None,
        }
    }

    /// The pre-optimization Algorithm 2: re-runs the neighborhood BFS at
    /// every radius increment, scores each candidate with a fresh per-pair
    /// LCS (two `HashMap` searches + ancestor-walk pruning), and clones
    /// every candidate's instance list before ranking.
    ///
    /// Kept as the reference the optimized path is regression-tested and
    /// benchmarked against (`bench_json`, DESIGN.md §performance); not for
    /// production use.
    pub fn relax_concept_reference(
        &self,
        query: ExtConceptId,
        context: Option<ContextId>,
        k: usize,
    ) -> Result<RelaxationResult> {
        self.config.validate()?;
        if k == 0 {
            return Err(MedKbError::invalid("k must be positive"));
        }
        self.check_concept(query)?;
        let tag: Option<ContextTag> = context.map(|c| self.ingested.tag(c));

        let mut radius = self.config.radius.max(1);
        let mut candidates: Vec<(ExtConceptId, u32)>;
        loop {
            candidates = self
                .ingested
                .ekg
                .neighborhood(query, radius, self.ingested.shortcuts.list())
                .into_iter()
                .filter(|(c, _)| self.ingested.flagged.contains(c))
                .collect();
            let reachable_instances: usize =
                candidates.iter().map(|(c, _)| self.ingested.instances(*c).len()).sum();
            if !self.config.dynamic_radius
                || reachable_instances >= k
                || radius >= self.config.max_radius
            {
                break;
            }
            radius += 1;
        }

        let scorer = QrScorer::new(&self.ingested.ekg, &self.ingested.freqs, &self.config);
        let mut scored: Vec<RelaxedAnswer> = candidates
            .into_iter()
            .map(|(concept, hops)| RelaxedAnswer {
                concept,
                score: scorer.score(query, concept, tag),
                hops,
                instances: self.ingested.instances(concept).to_vec(),
                explain: None,
            })
            .collect();
        scored.sort_by(|a, b| {
            rank_order((a.score, a.hops, a.concept), (b.score, b.hops, b.concept))
        });

        let mut answers = Vec::new();
        let mut returned = 0usize;
        for ans in scored {
            if returned >= k {
                break;
            }
            returned += ans.instances.len();
            answers.push(ans);
        }

        Ok(RelaxationResult { query_concept: query, radius_used: radius, answers })
    }

    /// Relax a batch of `[term, context]` inputs, sharding the queries
    /// across scoped threads. Results come back in input order and are
    /// identical to calling [`QueryRelaxer::relax`] per query.
    pub fn relax_batch(
        &self,
        queries: &[(&str, Option<ContextId>)],
        k: usize,
    ) -> Vec<Result<RelaxationResult>> {
        self.shard_queries(queries, par::cores(), |&(term, ctx)| self.relax(term, ctx, k))
    }

    /// [`QueryRelaxer::relax_batch`] over already-resolved query concepts.
    pub fn relax_concepts_batch(
        &self,
        queries: &[(ExtConceptId, Option<ContextId>)],
        k: usize,
    ) -> Vec<Result<RelaxationResult>> {
        self.relax_concepts_batch_with_threads(queries, k, par::cores())
    }

    /// [`QueryRelaxer::relax_concepts_batch`] with an explicit thread
    /// count (the scaling benchmarks sweep this).
    pub fn relax_concepts_batch_with_threads(
        &self,
        queries: &[(ExtConceptId, Option<ContextId>)],
        k: usize,
        threads: usize,
    ) -> Vec<Result<RelaxationResult>> {
        self.shard_queries(queries, threads, |&(q, ctx)| self.relax_concept(q, ctx, k))
    }

    /// Run `f` over `queries` through the workspace fork/join
    /// ([`par::shard_map`]), results in input order. Each query is
    /// processed independently, so chunking never changes any result.
    fn shard_queries<Q: Sync, T: Send>(
        &self,
        queries: &[Q],
        threads: usize,
        f: impl Fn(&Q) -> T + Sync,
    ) -> Vec<T> {
        if queries.is_empty() {
            return Vec::new();
        }
        if let Some(m) = &self.metrics {
            let chunk = par::chunk_len(queries.len(), threads);
            m.batch_calls.inc();
            m.batch_queries.add(queries.len() as u64);
            m.batch_shards.add(queries.len().div_ceil(chunk) as u64);
            for shard in queries.chunks(chunk) {
                m.batch_shard_size.record(shard.len() as u64);
            }
        }
        par::shard_map(queries.len(), threads, |i| f(&queries[i]))
    }

    /// Render a human-readable explanation of why `candidate` scores as it
    /// does for `query` — the LCS, the context-sensitive information
    /// contents, and the Eq. 4 path factor. Integration surfaces (the CLI,
    /// the conversational engine's debugging view) show this to users.
    ///
    /// # Errors
    /// [`MedKbError::NotFound`] if either id is not a concept of this world.
    pub fn explain(
        &self,
        query: ExtConceptId,
        candidate: ExtConceptId,
        context: Option<ContextId>,
    ) -> Result<String> {
        self.check_concept(query)?;
        self.check_concept(candidate)?;
        let tag = context.map(|c| self.ingested.tag(c));
        let scorer = QrScorer::new(&self.ingested.ekg, &self.ingested.freqs, &self.config);
        let b = scorer.breakdown(query, candidate, tag);
        let ekg = &self.ingested.ekg;
        let lcs_names: Vec<&str> = b.lcs.concepts.iter().map(|&c| ekg.name(c)).collect();
        let chain: Vec<&str> = medkb_ekg::path::concrete_path(ekg, query, candidate)
            .into_iter()
            .map(|c| ekg.name(c))
            .collect();
        Ok(format!(
            "sim({q}, {c}) = {score:.4}\n  path: {ups} generalization(s) + {downs} \
             specialization(s) via {{{lcs}}} → p = {p:.4} (w_gen = {wg}, w_spec = {ws})\n  \
             IC({q}) = {icq:.3}, IC({c}) = {icc:.3}{ctx} → sim_IC = {simic:.4}",
            q = ekg.name(query),
            c = ekg.name(candidate),
            score = b.score,
            ups = b.lcs.dist_a,
            downs = b.lcs.dist_b,
            lcs = lcs_names.join(", "),
            p = b.path_weight,
            wg = self.config.w_gen,
            ws = self.config.w_spec,
            icq = scorer.ic(query, tag),
            icc = scorer.ic(candidate, tag),
            ctx = match tag {
                Some(t) if self.config.use_context => format!(" in context {t:?}"),
                _ => " (aggregate over contexts)".to_string(),
            },
            simic = b.sim_ic,
        ) + &format!("\n  chain: {}", chain.join(" → ")))
    }

    /// Rank an explicit candidate set against a query concept — used by the
    /// evaluation harness so every Table 2 method ranks the same pool.
    pub fn rank_candidates(
        &self,
        query: ExtConceptId,
        candidates: &[ExtConceptId],
        context: Option<ContextId>,
    ) -> Vec<(ExtConceptId, f64)> {
        let tag = context.map(|c| self.ingested.tag(c));
        let scorer = QrScorer::new(&self.ingested.ekg, &self.ingested.freqs, &self.config);
        let mut scoped = scorer.query_scoped(query, tag, &self.ingested.reach);
        let mut scored: Vec<(ExtConceptId, f64)> =
            candidates.iter().map(|&c| (c, scoped.score(c))).collect();
        // An explicit pool carries no hop distances, so the shared
        // [`rank_order`] degenerates to score-descending-then-id — built
        // here as a cached key (one tuple per candidate) instead of
        // re-deriving both tuples on every comparison.
        scored.sort_by_cached_key(|&(c, s)| (std::cmp::Reverse(TotalF64(s)), c));
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MappingMethod;
    use crate::ingest::ingest;
    use medkb_corpus::MentionCounts;
    use medkb_snomed::figures::paper_fragment;
    use medkb_snomed::oracle::N_TAGS;
    use std::collections::HashMap;

    /// Fragment world: KB instances for the flagged fragment concepts, and
    /// fig-4-style counts extended over the respiratory subtree.
    fn relaxer() -> QueryRelaxer {
        let f = paper_fragment();
        let mut ob = medkb_ontology::OntologyBuilder::new();
        let finding = ob.concept("Finding");
        let indication = ob.concept("Indication");
        let risk = ob.concept("Risk");
        let drug = ob.concept("Drug");
        ob.relationship("treat", drug, indication);
        ob.relationship("cause", drug, risk);
        ob.relationship("hasFinding", indication, finding);
        ob.relationship("hasFinding", risk, finding);
        let onto = ob.build().unwrap();
        let mut kb = medkb_kb::KbBuilder::new(onto);
        let fc = kb.ontology().lookup_concept("Finding").unwrap();
        for name in &f.flagged {
            kb.instance(name, fc);
        }
        let kb = kb.build().unwrap();

        let mut direct: HashMap<medkb_types::ExtConceptId, [u64; N_TAGS]> = HashMap::new();
        for &(name, treat, risk) in &f.fig4_direct_counts {
            let mut row = [0u64; N_TAGS];
            row[ContextTag::Treatment.index()] = treat;
            row[ContextTag::Risk.index()] = risk;
            direct.insert(f.concept(name), row);
        }
        for (name, t) in [
            ("pneumonia", 500u64),
            ("lower respiratory tract infection", 300),
            ("bronchitis", 700),
            ("kidney disease", 900),
            ("nephropathy", 400),
            ("renal impairment", 350),
            ("fever", 2000),
            ("hyperpyrexia", 150),
        ] {
            let mut row = [0u64; N_TAGS];
            row[ContextTag::Treatment.index()] = t;
            row[ContextTag::Risk.index()] = t / 3;
            direct.insert(f.concept(name), row);
        }
        // Hypothermia: mentioned, but (almost) never in treatment context
        // alongside fever drugs — risk-context mentions only.
        let mut row = [0u64; N_TAGS];
        row[ContextTag::Risk.index()] = 500;
        row[ContextTag::Treatment.index()] = 1;
        direct.insert(f.concept("hypothermia"), row);

        let counts = MentionCounts::from_direct(direct, HashMap::new(), 200);
        let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
        let out = ingest(&kb, f.ekg.clone(), &counts, None, &config).unwrap();
        QueryRelaxer::new(out, config)
    }

    fn treatment_ctx(r: &QueryRelaxer) -> ContextId {
        r.ingested()
            .contexts
            .iter()
            .find(|c| c.label == "Indication-hasFinding-Finding")
            .unwrap()
            .id
    }

    #[test]
    fn scenario1_pyelectasia_relaxes_to_kidney_disease() {
        let r = relaxer();
        let ctx = treatment_ctx(&r);
        let res = r.relax("pyelectasia", Some(ctx), 5).unwrap();
        let names: Vec<&str> =
            res.answers.iter().map(|a| r.ingested().ekg.name(a.concept)).collect();
        assert!(
            names.contains(&"kidney disease") || names.contains(&"nephropathy"),
            "{names:?}"
        );
    }

    #[test]
    fn unknown_term_errors_under_exact_mapping() {
        let r = relaxer();
        assert!(matches!(
            r.relax("nonexistent condition", None, 3),
            Err(MedKbError::NotFound { .. })
        ));
        assert!(matches!(r.relax("fever", None, 0), Err(MedKbError::InvalidArgument { .. })));
    }

    #[test]
    fn results_sorted_by_score() {
        let r = relaxer();
        let ctx = treatment_ctx(&r);
        let res = r.relax("headache", Some(ctx), 10).unwrap();
        for w in res.answers.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert!(!res.answers.is_empty());
    }

    #[test]
    fn k_bounds_returned_instances() {
        let r = relaxer();
        let ctx = treatment_ctx(&r);
        let res = r.relax("fever", Some(ctx), 2).unwrap();
        // Each flagged fragment concept has exactly one instance, so at
        // most 2 answers are returned.
        assert!(res.instances().len() <= 2 + 1, "{:?}", res.instances());
        let res10 = r.relax("fever", Some(ctx), 10).unwrap();
        assert!(res10.instances().len() > res.instances().len());
    }

    #[test]
    fn dynamic_radius_grows_until_k() {
        let r = relaxer();
        // pertussis is far from every flagged concept: fixed radius 4 finds
        // few, dynamic growth must extend.
        let res = r.relax("pertussis", None, 5).unwrap();
        assert!(res.radius_used > r.config().radius, "used {}", res.radius_used);
        assert!(!res.answers.is_empty());
    }

    #[test]
    fn fixed_radius_does_not_grow() {
        let mut r = relaxer();
        r.config.dynamic_radius = false;
        let res = r.relax("pertussis", None, 5).unwrap();
        assert_eq!(res.radius_used, r.config().radius);
    }

    #[test]
    fn context_trap_hypothermia_demoted_in_treatment_context() {
        let r = relaxer();
        let treat = treatment_ctx(&r);
        let res = r.relax("psychogenic fever", Some(treat), 10).unwrap();
        let ekg = &r.ingested().ekg;
        let names: Vec<&str> = res.answers.iter().map(|a| ekg.name(a.concept)).collect();
        let pos_hyper = names.iter().position(|&n| n == "hyperpyrexia");
        let pos_hypo = names.iter().position(|&n| n == "hypothermia");
        assert!(pos_hyper.is_some(), "{names:?}");
        if let (Some(hyper), Some(hypo)) = (pos_hyper, pos_hypo) {
            assert!(
                hyper < hypo,
                "in the treatment context hyperpyrexia must outrank hypothermia: {names:?}"
            );
        }
    }

    #[test]
    fn query_concept_itself_not_in_answers() {
        let r = relaxer();
        let res = r.relax("fever", None, 10).unwrap();
        assert!(res.answers.iter().all(|a| a.concept != res.query_concept));
    }

    #[test]
    fn strip_modifiers_recovers_decorated_terms() {
        let mut r = relaxer();
        assert!(r.resolve_term("very intense psychogenic fever").is_err());
        r.config.strip_modifiers = true;
        let c = r.resolve_term("very intense psychogenic fever").unwrap();
        assert_eq!(r.ingested().ekg.name(c), "psychogenic fever");
        // Still refuses when nothing suffixes to a known term.
        assert!(r.resolve_term("totally unknown thing").is_err());
    }

    /// Regression for the strip-modifiers loop bound: `1..len - 1` never
    /// fired for two-word terms and never retried the final single word.
    /// Covers 2-, 3-, and 4-word decorated terms.
    #[test]
    fn strip_modifiers_reaches_every_suffix_down_to_one_word() {
        let mut r = relaxer();
        r.config.strip_modifiers = true;
        // 2 words: the only possible strip is straight to the single word.
        let c = r.resolve_term("severe fever").unwrap();
        assert_eq!(r.ingested().ekg.name(c), "fever");
        // 3 words ending in a single known word: both intermediate
        // suffixes miss, the final single word resolves.
        let c = r.resolve_term("really bad pneumonia").unwrap();
        assert_eq!(r.ingested().ekg.name(c), "pneumonia");
        // 4 words: longest matching suffix wins before the single word is
        // ever consulted ("psychogenic fever" beats "fever").
        let c = r.resolve_term("very intense psychogenic fever").unwrap();
        assert_eq!(r.ingested().ekg.name(c), "psychogenic fever");
        // Single-word misses still refuse — stripping never invents terms.
        assert!(r.resolve_term("unknownword").is_err());
        assert!(r.resolve_term("utterly unknownword").is_err());
    }

    /// The fixed bound must hold through every relax entry point: term
    /// path, batch term path, and (for the resolved concept) the reference
    /// twin — all agree bit-for-bit on a two-word decorated term.
    #[test]
    fn stripped_terms_agree_across_all_entry_points() {
        let mut r = relaxer();
        r.config.strip_modifiers = true;
        let ctx = treatment_ctx(&r);
        for (term, k) in [("severe fever", 5), ("really bad pneumonia", 3)] {
            let via_term = r.relax(term, Some(ctx), k).unwrap();
            let q = r.resolve_term(term).unwrap();
            assert_eq!(via_term.query_concept, q);
            let via_concept = r.relax_concept(q, Some(ctx), k).unwrap();
            let via_reference = r.relax_concept_reference(q, Some(ctx), k).unwrap();
            assert_eq!(via_term, via_concept, "{term}");
            assert_eq!(via_term, via_reference, "{term}");
            // Term-level batch resolves through the same stripped path…
            for out in r.relax_batch(&[(term, Some(ctx)); 3], k) {
                assert_eq!(out.unwrap(), via_term, "{term}");
            }
            // …and the concept-level batch agrees at every thread count.
            for threads in [1, 2, 4] {
                for out in r.relax_concepts_batch_with_threads(&[(q, Some(ctx)); 3], k, threads)
                {
                    assert_eq!(out.unwrap(), via_term, "{term} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn explain_renders_the_breakdown() {
        let r = relaxer();
        let ctx = treatment_ctx(&r);
        let q = r.resolve_term("pneumonia").unwrap();
        let c = r.resolve_term("lower respiratory tract infection").unwrap();
        let text = r.explain(q, c, Some(ctx)).unwrap();
        assert!(text.contains("pneumonia"), "{text}");
        assert!(text.contains("generalization"), "{text}");
        assert!(text.contains("sim_IC"), "{text}");
        assert!(text.contains("Treatment"), "{text}");
        // The reverse direction explains a different path shape.
        let rev = r.explain(c, q, Some(ctx)).unwrap();
        assert_ne!(text, rev);
    }

    /// An id past the end of the graph is `NotFound` from the three checked
    /// entry points — never an index panic.
    #[test]
    fn unknown_concept_ids_are_not_found() {
        let r = relaxer();
        let known = r.resolve_term("fever").unwrap();
        let unknown = ExtConceptId::new(r.ingested().ekg.len() as u32);
        for err in [
            r.relax_concept(unknown, None, 5).err(),
            r.relax_concept_reference(unknown, None, 5).err(),
            r.explain(unknown, known, None).err(),
            r.explain(known, unknown, None).err(),
        ] {
            assert!(matches!(err, Some(MedKbError::NotFound { .. })), "{err:?}");
        }
    }

    #[test]
    fn optimized_relax_matches_reference_implementation() {
        let r = relaxer();
        let ctx = treatment_ctx(&r);
        for term in ["fever", "headache", "pneumonia", "pertussis", "psychogenic fever"] {
            let q = r.resolve_term(term).unwrap();
            for context in [None, Some(ctx)] {
                for k in [1, 3, 7, 50] {
                    let fast = r.relax_concept(q, context, k).unwrap();
                    let slow = r.relax_concept_reference(q, context, k).unwrap();
                    assert_eq!(fast, slow, "{term} ctx={context:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn relax_batch_matches_sequential_bit_identical() {
        let r = relaxer();
        let ctx = treatment_ctx(&r);
        let terms = ["fever", "headache", "pneumonia", "kidney disease", "bronchitis"];
        let queries: Vec<(ExtConceptId, Option<ContextId>)> = terms
            .iter()
            .enumerate()
            .map(|(i, t)| {
                (r.resolve_term(t).unwrap(), if i % 2 == 0 { Some(ctx) } else { None })
            })
            .collect();
        let sequential: Vec<_> =
            queries.iter().map(|&(q, c)| r.relax_concept(q, c, 5).unwrap()).collect();
        for threads in [1, 2, 3, 8] {
            let batch = r.relax_concepts_batch_with_threads(&queries, 5, threads);
            let batch: Vec<_> = batch.into_iter().map(|res| res.unwrap()).collect();
            assert_eq!(batch, sequential, "threads={threads}");
        }
        // The term-level entry point agrees too, including error slots.
        let mut with_terms: Vec<(&str, Option<ContextId>)> =
            terms.iter().zip(&queries).map(|(&t, &(_, c))| (t, c)).collect();
        with_terms.push(("no such term", None));
        let batch = r.relax_batch(&with_terms, 5);
        assert_eq!(batch.len(), 6);
        for (res, expect) in batch.iter().zip(&sequential) {
            assert_eq!(res.as_ref().unwrap(), expect);
        }
        assert!(batch.last().unwrap().is_err());
    }

    #[test]
    fn metrics_observe_relaxation_and_batches() {
        let base = relaxer();
        let registry = medkb_obs::Registry::shared();
        let config = RelaxConfig {
            obs: crate::config::ObsConfig::with_registry(Arc::clone(&registry)),
            ..base.config().clone()
        };
        let r = QueryRelaxer::new(base.ingested().clone(), config);
        let ctx = treatment_ctx(&r);
        let res = r.relax("fever", Some(ctx), 5).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter(obs_names::QUERIES), 1);
        assert!(snap.counter(obs_names::CANDIDATES_KEPT) as usize >= res.answers.len());
        assert_eq!(
            snap.counter(obs_names::CANDIDATES_SCANNED),
            snap.counter(obs_names::CANDIDATES_KEPT)
                + snap.counter(obs_names::CANDIDATES_PRUNED)
        );
        assert_eq!(snap.histogram_count(obs_names::LATENCY_US), 1);
        // The scoped scorer builds the query-side table before scoring, so
        // every evaluation reuses it: reuse == evals exactly.
        assert!(snap.counter(obs_names::LCS_EVALS) > 0);
        assert_eq!(
            snap.counter(obs_names::LCS_QUERY_REUSE),
            snap.counter(obs_names::LCS_EVALS)
        );

        // Batch entry points record shard utilization on top.
        let q = r.resolve_term("fever").unwrap();
        let queries = vec![(q, Some(ctx)); 4];
        for out in r.relax_concepts_batch_with_threads(&queries, 5, 2) {
            out.unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter(obs_names::BATCH_CALLS), 1);
        assert_eq!(snap.counter(obs_names::BATCH_QUERIES), 4);
        assert_eq!(snap.counter(obs_names::BATCH_SHARDS), 2);
        assert_eq!(snap.histogram_count(obs_names::BATCH_SHARD_SIZE), 2);
        assert_eq!(snap.counter(obs_names::QUERIES), 5);

        assert!(r.relax("no such term", None, 3).is_err());
        assert_eq!(registry.snapshot().counter(obs_names::RESOLVE_NOT_FOUND), 1);
        // The un-instrumented relaxer never touched the registry.
        let _ = base.relax("fever", Some(ctx), 5).unwrap();
        assert_eq!(registry.snapshot().counter(obs_names::QUERIES), 5);
    }

    #[test]
    fn explain_attaches_derivation_without_changing_results() {
        let base = relaxer();
        let mut config = base.config().clone();
        config.obs.explain = true;
        let r = QueryRelaxer::new(base.ingested().clone(), config);
        let ctx = treatment_ctx(&base);
        let plain = base.relax("headache", Some(ctx), 10).unwrap();
        let explained = r.relax("headache", Some(ctx), 10).unwrap();
        assert_eq!(plain.answers.len(), explained.answers.len());
        assert_eq!(plain.radius_used, explained.radius_used);
        for (p, e) in plain.answers.iter().zip(&explained.answers) {
            assert_eq!(p.concept, e.concept);
            assert_eq!(p.score, e.score);
            assert_eq!(p.instances, e.instances);
            assert!(p.explain.is_none());
            let ex = e.explain.as_ref().expect("explain attached");
            // The derivation reproduces the ranked score exactly and is
            // internally consistent (Eq. 5 = Eq. 3 × Eq. 4).
            assert_eq!(ex.score, e.score);
            assert_eq!(ex.sim_ic * ex.path_weight, ex.score);
            assert!(!ex.lcs.is_empty());
            assert!((0.0..=1.0).contains(&ex.freq_query));
            assert!((0.0..=1.0).contains(&ex.freq_candidate));
            assert!(ex.ic_query >= 0.0 && ex.ic_candidate >= 0.0);
        }
    }

    #[test]
    fn nan_config_rejected_at_every_entry_point() {
        let mut r = relaxer();
        let q = r.resolve_term("fever").unwrap();
        r.config.w_gen = f64::NAN;
        assert!(matches!(r.relax("fever", None, 3), Err(MedKbError::InvalidArgument { .. })));
        assert!(matches!(r.relax_concept(q, None, 3), Err(MedKbError::InvalidArgument { .. })));
        assert!(matches!(
            r.relax_concept_reference(q, None, 3),
            Err(MedKbError::InvalidArgument { .. })
        ));
        for out in r.relax_concepts_batch(&[(q, None), (q, None)], 3) {
            assert!(matches!(out, Err(MedKbError::InvalidArgument { .. })));
        }
    }

    #[test]
    fn exact_score_ties_break_by_concept_id_across_thread_counts() {
        // A perfectly symmetric star: every twin child of the root has the
        // same depth, descendant count, and mention counts, so all scores
        // tie exactly and only the concept-id key can order them. The
        // names are deliberately inserted out of alphabetical order so an
        // accidental name sort would fail the assertion.
        let twin_names = ["twin d", "twin b", "twin c", "twin a"];
        let mut eb = medkb_ekg::EkgBuilder::new();
        let root = eb.concept("root finding");
        let twins: Vec<ExtConceptId> = twin_names
            .iter()
            .map(|n| {
                let c = eb.concept(n);
                eb.is_a(c, root);
                c
            })
            .collect();
        let ekg = eb.build().unwrap();

        let mut ob = medkb_ontology::OntologyBuilder::new();
        let finding = ob.concept("Finding");
        let onto = ob.build().unwrap();
        let mut kb = medkb_kb::KbBuilder::new(onto);
        for name in twin_names {
            kb.instance(name, finding);
        }
        let kb = kb.build().unwrap();

        let mut direct: HashMap<medkb_types::ExtConceptId, [u64; N_TAGS]> = HashMap::new();
        for &c in &twins {
            direct.insert(c, [7u64; N_TAGS]);
        }
        let counts = MentionCounts::from_direct(direct, HashMap::new(), 10);
        let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
        let out = ingest(&kb, ekg, &counts, None, &config).unwrap();
        let r = QueryRelaxer::new(out, config);

        let q = r.resolve_term("root finding").unwrap();
        let res = r.relax_concept(q, None, 50).unwrap();
        assert_eq!(res.answers.len(), twins.len());
        let first = res.answers[0].score;
        assert!(
            res.answers.iter().all(|a| a.score == first && a.hops == 1),
            "world is not symmetric: {:?}",
            res.answers.iter().map(|a| (a.concept, a.score, a.hops)).collect::<Vec<_>>()
        );
        let ids: Vec<ExtConceptId> = res.answers.iter().map(|a| a.concept).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "exact ties must order by concept id");

        // Reference path and every batch thread count agree bit-identically.
        assert_eq!(r.relax_concept_reference(q, None, 50).unwrap(), res);
        let queries = vec![(q, None); 8];
        for threads in [1, 2, 4, 8] {
            for out in r.relax_concepts_batch_with_threads(&queries, 50, threads) {
                assert_eq!(out.unwrap(), res, "threads={threads}");
            }
        }
    }

    #[test]
    fn ring_termination_fires_and_stays_bit_identical() {
        // A flagged hop-1 parent nearly as specific as the query anchors
        // the cut close to 1.0, while every deeper flagged ancestor can
        // only reach the heap through Eq. 4 decay of 0.3 per
        // generalization step. The ring cap falls below the cut at the
        // first boundary past the parent, so the bounded scan must
        // abandon the remaining rings wholesale — and still match the
        // exhaustive twin bit for bit.
        let mut eb = medkb_ekg::EkgBuilder::new();
        let names: Vec<String> = (0..8).map(|i| format!("ancestor {i}")).collect();
        let query = eb.concept("query finding");
        let mut below = query;
        let ancestors: Vec<ExtConceptId> = names
            .iter()
            .map(|n| {
                let c = eb.concept(n);
                eb.is_a(below, c);
                below = c;
                c
            })
            .collect();
        let ekg = eb.build().unwrap();

        let mut ob = medkb_ontology::OntologyBuilder::new();
        ob.concept("Finding");
        let onto = ob.build().unwrap();
        let mut kb = medkb_kb::KbBuilder::new(onto);
        let fc = kb.ontology().lookup_concept("Finding").unwrap();
        for n in &names {
            kb.instance(n, fc);
        }
        let kb = kb.build().unwrap();

        let mut direct: HashMap<medkb_types::ExtConceptId, [u64; N_TAGS]> = HashMap::new();
        direct.insert(query, [10u64; N_TAGS]);
        // Ancestors get geometrically more common with height: the parent
        // keeps an IC close to the query's (cut ≈ 1), the tail goes
        // generic, and nothing past ring 1 can outrun the path decay.
        for (i, &a) in ancestors.iter().enumerate() {
            direct.insert(a, [12u64 << i; N_TAGS]);
        }
        let counts = MentionCounts::from_direct(direct, HashMap::new(), 20_000);
        let config = RelaxConfig {
            mapping: MappingMethod::Exact,
            radius: 8,
            dynamic_radius: false,
            use_path_weight: true,
            w_gen: 0.3,
            w_spec: 0.3,
            ..RelaxConfig::default()
        };
        let out = ingest(&kb, ekg, &counts, None, &config).unwrap();

        let registry = medkb_obs::Registry::shared();
        let obs_cfg = RelaxConfig {
            obs: crate::config::ObsConfig::with_registry(Arc::clone(&registry)),
            ..config.clone()
        };
        let r = QueryRelaxer::new(out.clone(), obs_cfg);
        let q = r.resolve_term("query finding").unwrap();
        let res = r.relax_concept(q, None, 1).unwrap();
        assert_eq!(res.answers.len(), 1, "parent alone covers k=1");
        let snap = registry.snapshot();
        assert!(
            snap.counter(obs_names::RINGS_TERMINATED) > 0,
            "deep rings under 0.3 step weights must trip ring termination \
             (bound_skips={}, evals={})",
            snap.counter(obs_names::BOUND_SKIPS),
            snap.counter(obs_names::LCS_EVALS),
        );
        assert!(snap.counter(obs_names::BOUND_SKIPS) > 0);

        // The abandoned tail must never change an answer: the exhaustive
        // reference scan agrees for every k, bit for bit.
        for k in [1, 2, 5, 100] {
            let a = r.relax_concept(q, None, k).unwrap();
            assert_eq!(r.relax_concept_reference(q, None, k).unwrap(), a, "k={k}");
        }
    }

    #[test]
    fn rank_candidates_matches_relax_order() {
        let r = relaxer();
        let ctx = treatment_ctx(&r);
        let res = r.relax("headache", Some(ctx), 50).unwrap();
        let pool: Vec<_> = res.answers.iter().map(|a| a.concept).collect();
        let ranked = r.rank_candidates(res.query_concept, &pool, Some(ctx));
        let reordered: Vec<_> = ranked.iter().map(|&(c, _)| c).collect();
        assert_eq!(pool, reordered);
    }
}
