//! Table 2: overall effectiveness of the relaxation methods.
//!
//! The protocol mirrors §7.2, which is a *pooled judgment* protocol: the
//! participants were shown the concepts the methods returned and judged
//! whether each "is indeed related" to the query concept; recall is
//! measured against the relevant results found. Accordingly:
//!
//! 1. The workload is a set of commonly used condition concepts (popular,
//!    flagged, depth ≥ 3 clinical findings), asked alternately in the
//!    treatment and the risk context.
//! 2. Every method returns its top-10 concepts per query.
//! 3. The oracle — standing in for the 20 SMEs — judges the *pool* (the
//!    union of all methods' top-10) for binary relevance.
//! 4. `P@10` = judged-relevant among a method's top-10 / 10;
//!    `R@10` = judged-relevant found by the method / all judged-relevant
//!    in the pool; averaged over queries, `F1` of the averages.

use std::collections::{HashMap, HashSet};

use medkb_core::baselines::{ConceptRanker, EmbeddingRanker};
use medkb_serve::{RelaxServer, ServeConfig};
use medkb_snomed::oracle::DEFAULT_RELEVANCE_THRESHOLD;
use medkb_snomed::{ContextTag, Hierarchy, Oracle};
use medkb_types::{par, ContextId, ExtConceptId};

use crate::metrics::{mean, Prf};
use crate::pipeline::EvalStack;

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct RelaxRow {
    /// Method label as in the paper.
    pub method: &'static str,
    /// P@10 / R@10 / F1 (0–100).
    pub prf: Prf,
    /// Number of workload queries with a non-empty judged-relevant pool.
    pub queries: usize,
    /// Bootstrap 95% CI of P@10 (0–100).
    pub p_ci: (f64, f64),
    /// Bootstrap 95% CI of R@10 (0–100).
    pub r_ci: (f64, f64),
    /// nDCG@10 against the oracle's *graded* relevance (0–100).
    pub ndcg: f64,
}

/// The evaluation workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// `(query concept, context, tag)` triples.
    pub queries: Vec<(ExtConceptId, ContextId, ContextTag)>,
    /// The retrieval universe for graph-free rankers (flagged findings).
    pub universe: Vec<ExtConceptId>,
}

impl Workload {
    /// Restrict the workload to queries of one context tag (for the
    /// per-context breakdown the `table2` binary prints).
    pub fn only_tag(&self, tag: ContextTag) -> Workload {
        Workload {
            queries: self.queries.iter().copied().filter(|&(_, _, t)| t == tag).collect(),
            universe: self.universe.clone(),
        }
    }
}

/// Build the workload of up to `n` popular flagged condition concepts.
pub fn build_workload(stack: &EvalStack, n: usize) -> Workload {
    let world = &stack.world;
    let term = &world.terminology;
    let flagged = &stack.ingested.flagged;

    let universe: Vec<ExtConceptId> = term
        .of_hierarchy_below(Hierarchy::ClinicalFinding, 2)
        .into_iter()
        .filter(|c| flagged.contains(c))
        .collect();

    // Queries: specific conditions (depth ≥ 3), most popular first.
    let mut conditions: Vec<ExtConceptId> =
        universe.iter().copied().filter(|&c| term.ekg.depth(c) >= 3).collect();
    conditions.sort_by(|a, b| {
        term.meta[*b].popularity.total_cmp(&term.meta[*a].popularity).then(a.cmp(b))
    });

    let treatment = world.treatment_context();
    let risk = world.risk_context();
    let queries = conditions
        .into_iter()
        .take(n)
        .enumerate()
        .map(|(i, q)| {
            if i % 2 == 0 {
                (q, treatment, ContextTag::Treatment)
            } else {
                (q, risk, ContextTag::Risk)
            }
        })
        .collect();
    Workload { queries, universe }
}

/// Evaluate all Table 2 methods on the stack with a workload of `n`
/// queries at the default relevance threshold.
pub fn evaluate_relaxation(stack: &EvalStack, n: usize) -> Vec<RelaxRow> {
    let workload = build_workload(stack, n);
    evaluate_relaxation_on(stack, &workload, DEFAULT_RELEVANCE_THRESHOLD)
}

/// Evaluate all Table 2 methods on a prebuilt workload with a given
/// oracle relevance threshold.
pub fn evaluate_relaxation_on(
    stack: &EvalStack,
    workload: &Workload,
    threshold: f64,
) -> Vec<RelaxRow> {
    let k = 10usize;
    let base = stack.config.relax.clone();
    let labels: [&'static str; 6] = [
        "QR",
        "QR-no-context",
        "QR-no-corpus",
        "IC",
        "Embedding-pre-trained",
        "Embedding-trained",
    ];

    // —— Run every method on every query ——
    // QR-family methods shard the *queries* across threads and read
    // through the serving layer's result cache (queries vastly outnumber
    // methods, so this parallelizes much better than one thread per
    // method, and repeated workload queries relax once per config —
    // serving is answer-invisible, so the scores are unchanged).
    let qr_configs = [
        base.clone(),
        base.clone().no_context(),
        base.clone().no_corpus(),
        base.clone().ic_baseline(),
    ];
    let batch_queries: Vec<(ExtConceptId, Option<medkb_types::ContextId>)> =
        workload.queries.iter().map(|&(q, ctx, _)| (q, Some(ctx))).collect();
    let mut runs: Vec<Vec<Vec<ExtConceptId>>> = Vec::with_capacity(labels.len());
    for config in qr_configs {
        let server =
            RelaxServer::new(stack.ingested.clone(), config, ServeConfig::default());
        runs.push(
            server
                .serve_concepts_batch(&batch_queries, k)
                .into_iter()
                .map(|res| {
                    res.map(|r| r.result.concepts().into_iter().take(k).collect())
                        .unwrap_or_default()
                })
                .collect(),
        );
    }
    // The embedding baselines keep one thread per model.
    let models = [&stack.sif_pretrained, &stack.sif_trained];
    let embedding_runs = par::shard_map(models.len(), models.len(), |m| {
        let ranker = EmbeddingRanker::new(&stack.ingested.ekg, models[m].clone());
        workload
            .queries
            .iter()
            .map(|&(q, _, _)| {
                let pool: Vec<ExtConceptId> =
                    workload.universe.iter().filter(|&&c| c != q).copied().collect();
                ranker.rank(q, &pool).into_iter().take(k).map(|(c, _)| c).collect()
            })
            .collect::<Vec<Vec<ExtConceptId>>>()
    });
    runs.extend(embedding_runs);

    pool_and_score(stack, workload, threshold, &labels, &runs, k)
}

/// Pool the per-query returns of several methods, judge the pool with the
/// oracle, and compute averaged P@k / R@k / F1 per method.
///
/// `runs[m][q]` is method `m`'s ranked return for query `q`. This is the
/// shared back-end of [`evaluate_relaxation_on`] and the ablation harness.
pub fn pool_and_score(
    stack: &EvalStack,
    workload: &Workload,
    threshold: f64,
    labels: &[&'static str],
    runs: &[Vec<Vec<ExtConceptId>>],
    k: usize,
) -> Vec<RelaxRow> {
    let world = &stack.world;
    let term = &world.terminology;
    let mut ext_cache: HashMap<ExtConceptId, HashSet<ExtConceptId>> = HashMap::new();
    let mut per_method_p: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    let mut per_method_r: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    let mut per_method_ndcg: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    let mut judged_queries = 0usize;
    for (qi, &(q, _, tag)) in workload.queries.iter().enumerate() {
        let mut pool: HashSet<ExtConceptId> = HashSet::new();
        for run in runs {
            pool.extend(run[qi].iter().copied());
        }
        pool.remove(&q);
        let ext_q = Oracle::extension(&term.ekg, q);
        // Graded judgments over the pool; binary gold is the threshold cut.
        let graded: HashMap<ExtConceptId, f64> = pool
            .into_iter()
            .map(|b| {
                let ext_b = ext_cache
                    .entry(b)
                    .or_insert_with(|| Oracle::extension(&term.ekg, b));
                (b, world.oracle.relevance_from_parts(term, &ext_q, ext_b, q, b, tag))
            })
            .collect();
        let gold: HashSet<ExtConceptId> =
            graded.iter().filter(|&(_, &s)| s >= threshold).map(|(&b, _)| b).collect();
        if gold.is_empty() {
            continue; // nothing relevant anywhere: SMEs would discard it
        }
        judged_queries += 1;
        for (mi, run) in runs.iter().enumerate() {
            let (p, r) = crate::metrics::precision_recall_at_k(&run[qi], &gold, k);
            per_method_p[mi].push(p);
            per_method_r[mi].push(r);
            per_method_ndcg[mi].push(crate::metrics::ndcg_at_k(&run[qi], &graded, k));
        }
    }

    labels
        .iter()
        .enumerate()
        .map(|(mi, &label)| {
            let (plo, phi) = crate::metrics::bootstrap_ci(&per_method_p[mi], 1000, 0xC1);
            let (rlo, rhi) = crate::metrics::bootstrap_ci(&per_method_r[mi], 1000, 0xC2);
            RelaxRow {
                method: label,
                prf: Prf::new(
                    100.0 * mean(&per_method_p[mi]),
                    100.0 * mean(&per_method_r[mi]),
                ),
                queries: judged_queries,
                p_ci: (100.0 * plo, 100.0 * phi),
                r_ci: (100.0 * rlo, 100.0 * rhi),
                ndcg: 100.0 * mean(&per_method_ndcg[mi]),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::EvalConfig;

    fn stack() -> EvalStack {
        EvalStack::build(EvalConfig::tiny(401)).unwrap()
    }

    #[test]
    fn workload_targets_specific_conditions() {
        let s = stack();
        let w = build_workload(&s, 20);
        assert!(!w.queries.is_empty());
        for &(q, _, _) in &w.queries {
            assert!(s.world.terminology.ekg.depth(q) >= 3);
            assert!(s.ingested.flagged.contains(&q));
        }
    }

    #[test]
    fn all_methods_produce_rows() {
        let s = stack();
        let rows = evaluate_relaxation(&s, 12);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!((0.0..=100.0).contains(&r.prf.precision), "{r:?}");
            assert!((0.0..=100.0).contains(&r.prf.recall), "{r:?}");
            assert!(r.queries > 0);
        }
    }

    #[test]
    fn qr_beats_plain_ic() {
        let s = stack();
        let rows = evaluate_relaxation(&s, 25);
        let f1 = |m: &str| rows.iter().find(|r| r.method == m).unwrap().prf.f1;
        assert!(
            f1("QR") > f1("IC"),
            "QR {} should beat IC {}",
            f1("QR"),
            f1("IC")
        );
    }

    #[test]
    fn qr_beats_pretrained_embeddings() {
        let s = stack();
        let rows = evaluate_relaxation(&s, 25);
        let f1 = |m: &str| rows.iter().find(|r| r.method == m).unwrap().prf.f1;
        assert!(
            f1("QR") > f1("Embedding-pre-trained"),
            "QR {} vs pre-trained {}",
            f1("QR"),
            f1("Embedding-pre-trained")
        );
    }
}
