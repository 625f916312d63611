//! Federated multi-source relaxation (DESIGN.md §17).
//!
//! The paper's engine consumes one external knowledge source; §1 names
//! SNOMED CT, UMLS, and the Gene Ontology as interchangeable backends, and
//! real medical search combines several. This module promotes the single
//! per-world [`IngestOutput`] into a [`SourceRegistry`] of N named external
//! DAGs — each with its own ingest artifacts (mention counts, IC tables,
//! reachability, mapper) — and a [`FederatedRelaxer`] that runs a
//! query-planner-shaped scatter/gather over them:
//!
//! 1. **Plan** — per source, does the query term resolve through *that*
//!    source's mapper, and does the source cover the query context's tag?
//!    A mapping miss excludes the source; missing tag coverage is advisory
//!    (the single-source engine already falls back to aggregate scoring
//!    for unknown contexts, and the federated path must not diverge).
//! 2. **Scatter** — run the full bounded neighborhood scan
//!    ([`QueryRelaxer::relax_concept`], reusing the §13 `ScoreBounds`
//!    machinery per DAG) on every eligible source.
//! 3. **Gather** — normalize scores per source (`norm = raw / source_max`,
//!    so the best answer of every source lands at 1.0 and cross-source
//!    IC-scale differences cancel), merge under the deterministic
//!    [`federated_rank`] order, deduplicate KB instances across sources
//!    (the best-ranked answer claims an instance), and truncate at `k`
//!    instances with exactly the single-source accumulation loop.
//!
//! **Bit-identity obligation:** a registry holding one source must return
//! exactly the answers of today's [`QueryRelaxer`] — same concepts, same
//! score bits, same hops, same instances. Two properties carry the proof:
//! per-source max-normalization is monotone (IEEE division by one positive
//! constant never reorders raw scores), and [`federated_rank`] breaks
//! `norm_score` ties by **raw score** first — floating-point division can
//! collapse two distinct raw scores onto one normalized value, and without
//! the raw-score key the hop comparison would then reorder them against
//! [`rank_order`]. The 240-world differential sweep in `crates/fuzz` pins
//! this end to end.

use std::collections::HashSet;

use medkb_types::{
    par, ContextId, ExtConceptId, Id, InstanceId, MedKbError, Result, SourceId,
    ValidationReport,
};

use crate::config::RelaxConfig;
use crate::ingest::IngestOutput;
use crate::relax::{QueryRelaxer, RelaxationResult, ScoreExplain};

/// One registered external knowledge source: a stable name plus the fully
/// ingested artifacts wrapped in a ready-to-serve [`QueryRelaxer`].
#[derive(Debug, Clone)]
pub struct Source {
    name: String,
    relaxer: QueryRelaxer,
}

impl Source {
    /// The registration name (e.g. `"snomed"`, `"go"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-source relaxation engine.
    pub fn relaxer(&self) -> &QueryRelaxer {
        &self.relaxer
    }
}

/// A name-keyed registry of external sources. [`SourceId`]s are assigned in
/// **name-sorted order** at build time, so they — and every downstream
/// tie-break that uses them — are independent of registration order.
#[derive(Debug, Clone)]
pub struct SourceRegistry {
    sources: Vec<Source>,
}

/// Accumulates `(name, ingest output)` registrations for
/// [`SourceRegistry::builder`].
#[derive(Debug)]
pub struct SourceRegistryBuilder {
    config: RelaxConfig,
    pending: Vec<(String, IngestOutput)>,
}

impl SourceRegistryBuilder {
    /// Register one source under `name`. Order is irrelevant: ids are
    /// assigned by sorted name at [`SourceRegistryBuilder::build`].
    pub fn register(mut self, name: impl Into<String>, ingested: IngestOutput) -> Self {
        self.pending.push((name.into(), ingested));
        self
    }

    /// Validate and freeze the registry.
    ///
    /// # Errors
    /// [`MedKbError::Validation`] listing **every** defect — no sources,
    /// empty names, duplicate names — not just the first.
    pub fn build(self) -> Result<SourceRegistry> {
        let mut report = ValidationReport::new();
        if self.pending.is_empty() {
            report.defect("sources", None, "at least one source must be registered");
        }
        for (at, (name, _)) in self.pending.iter().enumerate() {
            if name.is_empty() {
                report.defect("sources", Some(at + 1), "source name must be non-empty");
            }
        }
        let mut pending = self.pending;
        pending.sort_by(|a, b| a.0.cmp(&b.0));
        for w in pending.windows(2) {
            if w[0].0 == w[1].0 {
                report.defect(
                    "sources",
                    None,
                    format!("duplicate source name {:?}", w[0].0),
                );
            }
        }
        report.into_result()?;
        let sources = pending
            .into_iter()
            .map(|(name, out)| Source {
                name,
                relaxer: QueryRelaxer::new(out, self.config.clone()),
            })
            .collect();
        Ok(SourceRegistry { sources })
    }
}

impl SourceRegistry {
    /// Start building a registry; every source shares `config`.
    pub fn builder(config: RelaxConfig) -> SourceRegistryBuilder {
        SourceRegistryBuilder { config, pending: Vec::new() }
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether no source is registered (never true for a built registry).
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The source behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this registry.
    pub fn source(&self, id: SourceId) -> &Source {
        &self.sources[id.as_usize()]
    }

    /// Resolve a source name to its id (DESIGN.md §17 error taxonomy: an
    /// unknown name is the caller's `NotFound`).
    pub fn id_of(&self, name: &str) -> Option<SourceId> {
        self.sources
            .binary_search_by(|s| s.name.as_str().cmp(name))
            .ok()
            .map(SourceId::from_usize)
    }

    /// All sources in id order (which is name-sorted order).
    pub fn iter(&self) -> impl Iterator<Item = (SourceId, &Source)> {
        self.sources.iter().enumerate().map(|(at, s)| (SourceId::from_usize(at), s))
    }
}

/// One source the planner admitted for a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedSource {
    /// Which source.
    pub source: SourceId,
    /// What the term resolved to *in that source's namespace*.
    pub query_concept: ExtConceptId,
    /// Whether the query context's id is inside the source's context/tag
    /// table. Advisory: an uncovered context scores with the aggregate
    /// fallback, exactly as the single-source engine does.
    pub context_covered: bool,
}

/// Why the planner excluded a source from a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The query term resolved to no concept through the source's mapper.
    TermUnmapped,
}

/// The planner's verdict for one query: which sources scatter, which sit
/// out and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Sources that will be scattered to, in source-id order.
    pub eligible: Vec<PlannedSource>,
    /// Sources excluded from this query, in source-id order.
    pub skipped: Vec<(SourceId, SkipReason)>,
}

/// Per-source scatter outcome recorded on a [`FederatedResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct SourceScatter {
    /// Which source answered.
    pub source: SourceId,
    /// The query concept in that source's namespace.
    pub query_concept: ExtConceptId,
    /// Planner verdict on context/tag coverage (advisory, see
    /// [`PlannedSource::context_covered`]).
    pub context_covered: bool,
    /// The radius the source's scan actually used.
    pub radius_used: u32,
    /// Answers the source produced before the gather-merge.
    pub answers_found: usize,
    /// The normalization denominator: the source's best raw Eq. 5 score
    /// (0 when the source produced no answers).
    pub source_max: f64,
}

/// One merged answer with full provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedAnswer {
    /// The source the answer came from.
    pub source: SourceId,
    /// The concept, in that source's namespace.
    pub concept: ExtConceptId,
    /// The raw Eq. 5 score within its source.
    pub score: f64,
    /// The cross-source comparable score: `score / source_max`.
    pub norm_score: f64,
    /// Hop distance inside the source's customized graph.
    pub hops: u32,
    /// KB instances this answer contributes (after cross-source
    /// deduplication — an instance is returned once, by its best-ranked
    /// answer).
    pub instances: Vec<InstanceId>,
    /// Eq. 1–5 derivation with [`ScoreExplain::source`] stamped, when
    /// explain is enabled.
    pub explain: Option<ScoreExplain>,
}

/// The outcome of one federated relaxation call.
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedResult {
    /// Per-source scatter rows, in source-id order.
    pub scatter: Vec<SourceScatter>,
    /// Merged, ranked answers — best first, truncated at `k` instances.
    pub answers: Vec<FederatedAnswer>,
}

impl FederatedResult {
    /// The returned instances, flattened in rank order.
    pub fn instances(&self) -> Vec<InstanceId> {
        self.answers.iter().flat_map(|a| a.instances.iter().copied()).collect()
    }
}

/// The deterministic merge order: normalized score descending, then **raw
/// score descending** (division can collapse distinct raw scores onto one
/// normalized value; without this key the single-source path would diverge
/// from [`crate::relax::rank_order`]), then hops ascending, then source id,
/// then concept id. The id keys make exact cross-source ties independent
/// of thread count and registration order.
pub fn federated_rank(a: &FederatedAnswer, b: &FederatedAnswer) -> std::cmp::Ordering {
    b.norm_score
        .total_cmp(&a.norm_score)
        .then(b.score.total_cmp(&a.score))
        .then(a.hops.cmp(&b.hops))
        .then(a.source.cmp(&b.source))
        .then(a.concept.cmp(&b.concept))
}

/// The scatter/gather engine over a [`SourceRegistry`].
#[derive(Debug, Clone)]
pub struct FederatedRelaxer {
    registry: SourceRegistry,
}

impl FederatedRelaxer {
    /// Wrap a built registry.
    pub fn new(registry: SourceRegistry) -> Self {
        Self { registry }
    }

    /// The underlying registry.
    pub fn registry(&self) -> &SourceRegistry {
        &self.registry
    }

    /// Plan which sources can answer `[term, context]`: a source is
    /// eligible iff the term resolves through its mapper (each source maps
    /// in its own concept namespace). Context coverage is recorded but
    /// never excludes — see [`PlannedSource::context_covered`].
    pub fn plan(&self, term: &str, context: Option<ContextId>) -> QueryPlan {
        let mut eligible = Vec::new();
        let mut skipped = Vec::new();
        for (id, source) in self.registry.iter() {
            match source.relaxer.resolve_term(term) {
                Ok(query_concept) => {
                    let context_covered = context
                        .map(|c| c.as_usize() < source.relaxer.ingested().tag_of.len())
                        .unwrap_or(true);
                    eligible.push(PlannedSource { source: id, query_concept, context_covered });
                }
                Err(_) => skipped.push((id, SkipReason::TermUnmapped)),
            }
        }
        QueryPlan { eligible, skipped }
    }

    /// Federated Algorithm 2: plan, scatter the bounded scan over every
    /// eligible source, gather-merge top-`k` under shared normalization.
    ///
    /// # Errors
    /// [`MedKbError::NotFound`] when no source resolves the term (the same
    /// error the single-source engine returns),
    /// [`MedKbError::InvalidArgument`] for `k = 0` or a broken config.
    pub fn relax(
        &self,
        term: &str,
        context: Option<ContextId>,
        k: usize,
    ) -> Result<FederatedResult> {
        let plan = self.plan(term, context);
        if plan.eligible.is_empty() {
            return Err(MedKbError::not_found("external concept", term));
        }
        self.scatter_gather(&plan, context, k)
    }

    /// [`FederatedRelaxer::relax`] restricted to one named source — the
    /// single-source escape hatch integrations use to pin a backend.
    ///
    /// # Errors
    /// [`MedKbError::NotFound`] with `what = "source"` for an unknown
    /// source name (DESIGN.md §17 error taxonomy), plus everything
    /// [`FederatedRelaxer::relax`] can return.
    pub fn relax_in(
        &self,
        source: &str,
        term: &str,
        context: Option<ContextId>,
        k: usize,
    ) -> Result<FederatedResult> {
        let id = self
            .registry
            .id_of(source)
            .ok_or_else(|| MedKbError::not_found("source", source))?;
        let full = self.plan(term, context);
        let plan = QueryPlan {
            eligible: full.eligible.into_iter().filter(|p| p.source == id).collect(),
            skipped: full.skipped,
        };
        if plan.eligible.is_empty() {
            return Err(MedKbError::not_found("external concept", term));
        }
        self.scatter_gather(&plan, context, k)
    }

    /// Scatter the per-source bounded scans and gather-merge the top-`k`.
    fn scatter_gather(
        &self,
        plan: &QueryPlan,
        context: Option<ContextId>,
        k: usize,
    ) -> Result<FederatedResult> {
        // Each source fetches k instances' worth: the merged prefix can
        // consume at most k instances from any one source, and within a
        // source the merge order equals rank_order (normalization is
        // monotone), so per-source truncation never hides a merged answer.
        let mut per_source: Vec<(PlannedSource, RelaxationResult)> =
            Vec::with_capacity(plan.eligible.len());
        for planned in &plan.eligible {
            let relaxer = &self.registry.source(planned.source).relaxer;
            let result = relaxer.relax_concept(planned.query_concept, context, k)?;
            per_source.push((planned.clone(), result));
        }
        Ok(Self::gather(per_source, k))
    }

    /// Gather-merge: normalize per source, rank under [`federated_rank`],
    /// deduplicate instances across sources, truncate at `k` instances
    /// with the exact single-source accumulation loop.
    fn gather(per_source: Vec<(PlannedSource, RelaxationResult)>, k: usize) -> FederatedResult {
        let mut scatter = Vec::with_capacity(per_source.len());
        let mut merged: Vec<FederatedAnswer> = Vec::new();
        for (planned, result) in per_source {
            // Answers are rank_order-sorted, so the head carries the max.
            let source_max = result.answers.first().map(|a| a.score).unwrap_or(0.0);
            scatter.push(SourceScatter {
                source: planned.source,
                query_concept: planned.query_concept,
                context_covered: planned.context_covered,
                radius_used: result.radius_used,
                answers_found: result.answers.len(),
                source_max,
            });
            for answer in result.answers {
                let norm_score =
                    if source_max > 0.0 { answer.score / source_max } else { 0.0 };
                let explain = answer.explain.map(|mut e| {
                    e.source = Some(planned.source);
                    e
                });
                merged.push(FederatedAnswer {
                    source: planned.source,
                    concept: answer.concept,
                    score: answer.score,
                    norm_score,
                    hops: answer.hops,
                    instances: answer.instances,
                    explain,
                });
            }
        }
        merged.sort_by(federated_rank);

        // The k-instance truncation replays relax_concept's loop; the
        // claimed set adds cross-source instance deduplication, which is
        // inert with one source (an instance maps at most once per source).
        let mut claimed: HashSet<InstanceId> = HashSet::new();
        let mut answers = Vec::new();
        let mut returned = 0usize;
        for mut answer in merged {
            if returned >= k {
                break;
            }
            answer.instances.retain(|i| !claimed.contains(i));
            if answer.instances.is_empty() {
                continue;
            }
            claimed.extend(answer.instances.iter().copied());
            returned += answer.instances.len();
            answers.push(answer);
        }
        FederatedResult { scatter, answers }
    }

    /// Relax a batch of `[term, context]` inputs across `threads` scoped
    /// workers. Results come back in input order and are identical to
    /// calling [`FederatedRelaxer::relax`] per query — each query is
    /// independent, so sharding never changes any result (the fuzz
    /// determinism oracle sweeps 1/2/4/8 threads over this entry point).
    pub fn relax_batch_with_threads(
        &self,
        queries: &[(&str, Option<ContextId>)],
        k: usize,
        threads: usize,
    ) -> Vec<Result<FederatedResult>> {
        par::shard_map(queries.len(), threads, |i| {
            let (term, context) = queries[i];
            self.relax(term, context, k)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MappingMethod;
    use crate::ingest::ingest;
    use medkb_corpus::MentionCounts;
    use medkb_snomed::oracle::N_TAGS;
    use medkb_snomed::ContextTag;
    use std::collections::HashMap;

    /// A small symmetric terminology: `root finding` → {`shared finding`,
    /// `ballast finding`}, with the given children under `shared finding`.
    /// The ballast keeps `shared finding`'s frequency well below the total
    /// so IC(LCS) — and with it every child's score — is strictly positive;
    /// two of these with different children exercise the cross-source
    /// merge (the query term `shared finding` resolves in both).
    fn star_ekg(children: &[&str]) -> medkb_ekg::Ekg {
        let mut eb = medkb_ekg::EkgBuilder::new();
        let root = eb.concept("root finding");
        let shared = eb.concept("shared finding");
        eb.is_a(shared, root);
        let ballast = eb.concept("ballast finding");
        eb.is_a(ballast, root);
        for name in children {
            let c = eb.concept(name);
            eb.is_a(c, shared);
        }
        eb.build().unwrap()
    }

    /// Ingest `ekg` against a KB holding one instance per name in
    /// `instances` (names the ekg does not know simply stay unmapped).
    fn ingest_star(ekg: &medkb_ekg::Ekg, instances: &[&str]) -> (IngestOutput, RelaxConfig) {
        let mut ob = medkb_ontology::OntologyBuilder::new();
        let finding = ob.concept("Finding");
        let onto = ob.build().unwrap();
        let mut kb = medkb_kb::KbBuilder::new(onto);
        for name in instances {
            kb.instance(name, finding);
        }
        let kb = kb.build().unwrap();
        let mut direct: HashMap<ExtConceptId, [u64; N_TAGS]> = HashMap::new();
        for c in ekg.concepts() {
            let mut row = [0u64; N_TAGS];
            row[ContextTag::Treatment.index()] =
                if ekg.name(c) == "ballast finding" { 1000 } else { 7 };
            direct.insert(c, row);
        }
        let counts = MentionCounts::from_direct(direct, HashMap::new(), 10);
        let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
        let out = ingest(&kb, ekg.clone(), &counts, None, &config).unwrap();
        (out, config)
    }

    /// All instance names across both test sources — one shared KB, as in
    /// a real federation where every source maps the same ABox.
    const ALPHA_CHILDREN: &[&str] = &["alpha m", "alpha d", "alpha b"];
    const BETA_CHILDREN: &[&str] = &["beta z", "beta c"];

    fn two_source_relaxer(register_beta_first: bool) -> FederatedRelaxer {
        let all: Vec<&str> =
            ALPHA_CHILDREN.iter().chain(BETA_CHILDREN).copied().collect();
        let alpha_ekg = star_ekg(ALPHA_CHILDREN);
        let beta_ekg = star_ekg(BETA_CHILDREN);
        let (alpha, config) = ingest_star(&alpha_ekg, &all);
        let (beta, _) = ingest_star(&beta_ekg, &all);
        let builder = SourceRegistry::builder(config);
        let builder = if register_beta_first {
            builder.register("beta", beta).register("alpha", alpha)
        } else {
            builder.register("alpha", alpha).register("beta", beta)
        };
        FederatedRelaxer::new(builder.build().unwrap())
    }

    #[test]
    fn builder_rejects_empty_duplicate_and_missing_sources() {
        let err = SourceRegistry::builder(RelaxConfig::default()).build().unwrap_err();
        assert!(matches!(err, MedKbError::Validation(ref r) if r.len() == 1), "{err}");

        let ekg = star_ekg(ALPHA_CHILDREN);
        let (out, config) = ingest_star(&ekg, ALPHA_CHILDREN);
        let err = SourceRegistry::builder(config)
            .register("", out.clone())
            .register("dup", out.clone())
            .register("dup", out)
            .build()
            .unwrap_err();
        match err {
            MedKbError::Validation(r) => {
                assert_eq!(r.len(), 2, "{r}");
                assert!(r.defects()[0].message.contains("non-empty"));
                assert!(r.defects()[1].message.contains("duplicate"));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn source_ids_are_name_sorted_regardless_of_registration_order() {
        for beta_first in [false, true] {
            let fed = two_source_relaxer(beta_first);
            let reg = fed.registry();
            assert_eq!(reg.len(), 2);
            assert_eq!(reg.source(SourceId::new(0)).name(), "alpha");
            assert_eq!(reg.source(SourceId::new(1)).name(), "beta");
            assert_eq!(reg.id_of("beta"), Some(SourceId::new(1)));
            assert_eq!(reg.id_of("gamma"), None);
        }
    }

    #[test]
    fn single_source_registry_is_bit_identical_to_plain_relaxer() {
        let ekg = star_ekg(ALPHA_CHILDREN);
        let (out, config) = ingest_star(&ekg, ALPHA_CHILDREN);
        let plain = QueryRelaxer::new(out.clone(), config.clone());
        let fed = FederatedRelaxer::new(
            SourceRegistry::builder(config).register("alpha", out).build().unwrap(),
        );
        for k in [1, 2, 50] {
            let expect = plain.relax("shared finding", None, k).unwrap();
            let got = fed.relax("shared finding", None, k).unwrap();
            assert_eq!(got.answers.len(), expect.answers.len(), "k={k}");
            for (g, e) in got.answers.iter().zip(&expect.answers) {
                assert_eq!(g.source, SourceId::new(0));
                assert_eq!(g.concept, e.concept, "k={k}");
                assert_eq!(g.score.to_bits(), e.score.to_bits(), "k={k}");
                assert_eq!(g.hops, e.hops, "k={k}");
                assert_eq!(g.instances, e.instances, "k={k}");
            }
            assert_eq!(got.scatter.len(), 1);
            assert_eq!(got.scatter[0].radius_used, expect.radius_used);
        }
    }

    #[test]
    fn planner_skips_sources_that_cannot_map_the_term() {
        let fed = two_source_relaxer(false);
        // "beta z" exists only in the beta DAG.
        let plan = fed.plan("beta z", None);
        assert_eq!(plan.eligible.len(), 1);
        assert_eq!(plan.eligible[0].source, SourceId::new(1));
        assert_eq!(plan.skipped, vec![(SourceId::new(0), SkipReason::TermUnmapped)]);
        // An unmappable term errors exactly like the single-source engine.
        assert!(matches!(
            fed.relax("no such term", None, 3),
            Err(MedKbError::NotFound { what: "external concept", .. })
        ));
        assert!(fed.relax("shared finding", None, 0).is_err());
    }

    #[test]
    fn two_source_merge_is_registration_order_independent() {
        let a = two_source_relaxer(false);
        let b = two_source_relaxer(true);
        for k in [1, 3, 10] {
            let ra = a.relax("shared finding", None, k).unwrap();
            let rb = b.relax("shared finding", None, k).unwrap();
            assert_eq!(ra, rb, "k={k}");
            // Both sources scattered: the root resolves in both DAGs.
            assert_eq!(ra.scatter.len(), 2);
        }
    }

    #[test]
    fn symmetric_ties_break_by_source_then_concept() {
        let fed = two_source_relaxer(false);
        let res = fed.relax("shared finding", None, 50).unwrap();
        // Every child is structurally identical within its source, and both
        // stars normalize their best to 1.0 — but raw scores may differ
        // across sources (different descendant counts), so only assert the
        // deterministic full order and per-source norm heads.
        assert_eq!(res.answers.len(), ALPHA_CHILDREN.len() + BETA_CHILDREN.len());
        for s in &res.scatter {
            assert!(s.source_max > 0.0);
        }
        let mut resorted = res.answers.clone();
        resorted.sort_by(federated_rank);
        assert_eq!(res.answers, resorted, "answers must already be in merge order");
        for source in [SourceId::new(0), SourceId::new(1)] {
            let best = res
                .answers
                .iter()
                .filter(|a| a.source == source)
                .map(|a| a.norm_score)
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(best, 1.0, "{source}: best answer must normalize to 1.0");
        }
        // Within one source, ids ascend on exact ties (the star children
        // tie exactly inside each source).
        for source in [SourceId::new(0), SourceId::new(1)] {
            let ids: Vec<ExtConceptId> =
                res.answers.iter().filter(|a| a.source == source).map(|a| a.concept).collect();
            let mut sorted = ids.clone();
            sorted.sort();
            assert_eq!(ids, sorted, "{source}: exact ties must order by concept id");
        }
    }

    #[test]
    fn shared_instances_are_claimed_once_by_the_best_ranked_answer() {
        // Both sources carry a child named "shared child": the KB instance
        // maps in both namespaces, so without deduplication it would be
        // returned twice.
        let all = ["shared child", "alpha only", "beta only"];
        let alpha_ekg = star_ekg(&["shared child", "alpha only"]);
        let beta_ekg = star_ekg(&["shared child", "beta only"]);
        let (alpha, config) = ingest_star(&alpha_ekg, &all);
        let (beta, _) = ingest_star(&beta_ekg, &all);
        let fed = FederatedRelaxer::new(
            SourceRegistry::builder(config)
                .register("alpha", alpha)
                .register("beta", beta)
                .build()
                .unwrap(),
        );
        let res = fed.relax("shared finding", None, 50).unwrap();
        let mut seen: Vec<InstanceId> = res.instances();
        let n = seen.len();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), n, "an instance must be returned at most once");
        // All three KB instances surface despite the overlap.
        assert_eq!(n, 3, "{res:?}");
    }

    #[test]
    fn relax_in_pins_one_source_and_rejects_unknown_names() {
        let fed = two_source_relaxer(false);
        let res = fed.relax_in("alpha", "shared finding", None, 50).unwrap();
        assert!(res.answers.iter().all(|a| a.source == SourceId::new(0)));
        assert_eq!(res.answers.len(), ALPHA_CHILDREN.len());
        assert!(matches!(
            fed.relax_in("umls", "shared finding", None, 5),
            Err(MedKbError::NotFound { what: "source", .. })
        ));
    }

    #[test]
    fn batch_matches_sequential_across_thread_counts() {
        let fed = two_source_relaxer(false);
        let queries: Vec<(&str, Option<ContextId>)> = vec![
            ("shared finding", None),
            ("alpha m", None),
            ("beta z", None),
            ("no such term", None),
            ("shared finding", None),
        ];
        let sequential: Vec<_> = queries.iter().map(|&(t, c)| fed.relax(t, c, 4)).collect();
        for threads in [1, 2, 4, 8] {
            let batch = fed.relax_batch_with_threads(&queries, 4, threads);
            assert_eq!(batch.len(), sequential.len());
            for (got, expect) in batch.iter().zip(&sequential) {
                match (got, expect) {
                    (Ok(g), Ok(e)) => assert_eq!(g, e, "threads={threads}"),
                    (Err(_), Err(_)) => {}
                    other => panic!("threads={threads}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn explain_carries_source_provenance() {
        let ekg = star_ekg(ALPHA_CHILDREN);
        let (out, mut config) = ingest_star(&ekg, ALPHA_CHILDREN);
        config.obs.explain = true;
        let plain = QueryRelaxer::new(out.clone(), config.clone());
        let fed = FederatedRelaxer::new(
            SourceRegistry::builder(config).register("alpha", out).build().unwrap(),
        );
        let expect = plain.relax("shared finding", None, 5).unwrap();
        let got = fed.relax("shared finding", None, 5).unwrap();
        for (g, e) in got.answers.iter().zip(&expect.answers) {
            let ge = g.explain.as_ref().expect("explain enabled");
            let mut ee = e.explain.clone().expect("explain enabled");
            assert_eq!(ge.source, Some(SourceId::new(0)));
            // Identical numerics once provenance is stamped on the twin.
            ee.source = Some(SourceId::new(0));
            assert_eq!(ge, &ee);
        }
    }
}
