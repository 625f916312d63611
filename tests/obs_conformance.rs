//! Observability conformance: the metrics layer must be (a) deterministic —
//! the stable snapshot of a fixed-seed ingest plus a 32-query batch is
//! byte-identical across independent runs at the same thread count — and
//! (b) inert — turning instrumentation or `explain` on changes no ranking,
//! score bit, or radius decision anywhere in the pipeline.

mod common;

use std::sync::Arc;

use common::{context_labeled, fixture_config, fixture_relaxer, GOLDEN_QUERIES};
use medkb::obs::validate_json;
use medkb::prelude::*;

const K: usize = 5;
const BATCH: usize = 32;
const THREADS: usize = 4;

/// One full instrumented run: fixture ingest + a 32-query `relax_batch`
/// sharded over a fixed thread count, returning the stable snapshot JSON.
fn instrumented_run() -> String {
    let registry = Registry::shared();
    let mut config = fixture_config();
    config.obs = ObsConfig::with_registry(Arc::clone(&registry));
    let r = fixture_relaxer(config);
    let queries: Vec<(ExtConceptId, Option<ContextId>)> = (0..BATCH)
        .map(|i| {
            let (term, label) = GOLDEN_QUERIES[i % GOLDEN_QUERIES.len()];
            (r.resolve_term(term).unwrap(), label.map(|l| context_labeled(&r, l)))
        })
        .collect();
    for res in r.relax_concepts_batch_with_threads(&queries, K, THREADS) {
        res.unwrap();
    }
    registry.snapshot().to_json_stable()
}

#[test]
fn stable_snapshot_is_byte_identical_across_runs() {
    let first = instrumented_run();
    let second = instrumented_run();
    assert!(validate_json(&first), "stable snapshot is not valid JSON:\n{first}");
    assert_eq!(first, second, "stable snapshot drifted between identical runs");
}

#[test]
fn stable_snapshot_covers_every_pipeline_stage() {
    let registry = Registry::shared();
    let mut config = fixture_config();
    config.obs = ObsConfig::with_registry(Arc::clone(&registry));
    let r = fixture_relaxer(config);
    let queries: Vec<(&str, Option<ContextId>)> = GOLDEN_QUERIES
        .iter()
        .map(|&(term, label)| (term, label.map(|l| context_labeled(&r, l))))
        .collect();
    for res in r.relax_batch(&queries, K) {
        res.unwrap();
    }
    let snap = registry.snapshot();

    for name in medkb::core::ingest::obs_names::STAGE_TIMERS {
        assert_eq!(snap.histogram_count(name), 1, "missing ingest stage timer {name}");
    }
    use medkb::core::relax::obs_names as relax_obs;
    assert_eq!(snap.counter(relax_obs::QUERIES), GOLDEN_QUERIES.len() as u64);
    assert_eq!(
        snap.counter(relax_obs::CANDIDATES_SCANNED),
        snap.counter(relax_obs::CANDIDATES_KEPT) + snap.counter(relax_obs::CANDIDATES_PRUNED),
        "scanned must partition into kept + pruned"
    );
    assert!(snap.counter(relax_obs::LCS_EVALS) > 0);
    assert_eq!(
        snap.counter(relax_obs::LCS_QUERY_REUSE),
        snap.counter(relax_obs::LCS_EVALS),
        "query-side tables are built once per query, so every candidate \
         evaluation reuses them: the counters must track exactly"
    );
    assert_eq!(snap.histogram_count(relax_obs::LATENCY_US), GOLDEN_QUERIES.len() as u64);
    assert_eq!(snap.counter(relax_obs::BATCH_CALLS), 1);
    assert_eq!(snap.counter(relax_obs::BATCH_QUERIES), GOLDEN_QUERIES.len() as u64);
    assert!(snap.counter(relax_obs::BATCH_SHARDS) >= 1);
}

/// `lcs.query_side_reuse` semantics are exact: the query-side upward
/// distance table is built once per query and reused by *every* candidate
/// evaluation, so per query the reuse delta equals the evals delta — for
/// empty candidate sets (0 == 0) and singletons (1 == 1) alike, with no
/// off-by-one undercount on either end.
#[test]
fn lcs_query_reuse_equals_evals_per_query() {
    let registry = Registry::shared();
    let mut config = fixture_config();
    config.obs = ObsConfig::with_registry(Arc::clone(&registry));
    let r = fixture_relaxer(config);

    let (mut prev_evals, mut prev_reuse) = (0u64, 0u64);
    for &(term, label) in GOLDEN_QUERIES {
        let ctx = label.map(|l| context_labeled(&r, l));
        let res = r.relax(term, ctx, K).unwrap();
        let snap = registry.snapshot();
        use medkb::core::relax::obs_names as relax_obs;
        let evals = snap.counter(relax_obs::LCS_EVALS);
        let reuse = snap.counter(relax_obs::LCS_QUERY_REUSE);
        let (d_evals, d_reuse) = (evals - prev_evals, reuse - prev_reuse);
        assert_eq!(d_reuse, d_evals, "{term}: reuse delta diverged from evals delta");
        assert!(
            d_evals >= res.answers.len() as u64,
            "{term}: every returned answer was evaluated at least once"
        );
        (prev_evals, prev_reuse) = (evals, reuse);
    }
    assert!(prev_evals > 0, "fixture batch must exercise the scorer");
}

/// Score-bounded pruning accounting (DESIGN.md §13): where the bound
/// derivation holds (the fixture's step weights are at most 1) every kept
/// candidate is either LCS-evaluated or skipped on an admissible bound; a
/// config outside it (a step weight above 1) takes the exhaustive scan,
/// where every bound counter stays at zero and every kept candidate is
/// evaluated. Either way the answers are the reference twin's, bit for bit.
#[test]
fn bound_counters_partition_kept_candidates() {
    use medkb::core::relax::obs_names as relax_obs;

    let run = |w_spec: f64| {
        let registry = Registry::shared();
        let mut config = fixture_config();
        config.w_spec = w_spec;
        config.obs = ObsConfig::with_registry(Arc::clone(&registry));
        let r = fixture_relaxer(config);
        for &(term, label) in GOLDEN_QUERIES {
            let ctx = label.map(|l| context_labeled(&r, l));
            let res = r.relax(term, ctx, K).unwrap();
            let reference = r.relax_concept_reference(res.query_concept, ctx, K).unwrap();
            assert_eq!(res, reference, "{term}: w_spec {w_spec} diverged from the reference");
        }
        registry.snapshot()
    };

    let bounded = run(fixture_config().w_spec);
    assert_eq!(
        bounded.counter(relax_obs::LCS_EVALS) + bounded.counter(relax_obs::BOUND_SKIPS),
        bounded.counter(relax_obs::CANDIDATES_KEPT),
        "kept candidates must partition into LCS evals + bound skips"
    );

    let exhaustive = run(1.5);
    assert_eq!(exhaustive.counter(relax_obs::BOUND_SKIPS), 0, "the exhaustive scan never skips");
    assert_eq!(
        exhaustive.counter(relax_obs::RINGS_TERMINATED),
        0,
        "the exhaustive scan keeps every ring"
    );
    assert_eq!(
        exhaustive.histogram_count(relax_obs::BOUND_TIGHTNESS_PCT),
        0,
        "the exhaustive scan computes no bounds, so tightness must stay empty"
    );
    assert_eq!(
        exhaustive.counter(relax_obs::LCS_EVALS),
        exhaustive.counter(relax_obs::CANDIDATES_KEPT),
        "the exhaustive scan evaluates every kept candidate"
    );
}

/// Instrumentation and `explain` must not perturb results: same concepts,
/// bit-identical scores, same hops/instances/radius as the plain run.
#[test]
fn observability_is_inert_on_results() {
    let plain = fixture_relaxer(fixture_config());

    let mut config = fixture_config();
    config.obs = ObsConfig { metrics: Some(Registry::shared()), explain: true };
    let observed = fixture_relaxer(config);

    for (term, label) in GOLDEN_QUERIES {
        let ctx_p = label.map(|l| context_labeled(&plain, l));
        let ctx_o = label.map(|l| context_labeled(&observed, l));
        let a = plain.relax(term, ctx_p, K).unwrap();
        let b = observed.relax(term, ctx_o, K).unwrap();
        assert_eq!(a.radius_used, b.radius_used, "{term}: radius diverged");
        assert_eq!(a.answers.len(), b.answers.len(), "{term}: answer count diverged");
        for (x, y) in a.answers.iter().zip(&b.answers) {
            assert_eq!(x.concept, y.concept, "{term}: ranking diverged");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{term}: score bits diverged");
            assert_eq!(x.hops, y.hops, "{term}: hops diverged");
            assert_eq!(x.instances, y.instances, "{term}: instances diverged");
            assert!(x.explain.is_none(), "{term}: plain run carries explain");
            assert!(y.explain.is_some(), "{term}: explain run missing breakdown");
        }
    }
}

/// A disabled-obs relaxer sharing a registry must write nothing to it:
/// the allocation-free "one branch" guarantee, observed from outside.
#[test]
fn disabled_obs_writes_nothing() {
    let r = fixture_relaxer(fixture_config());
    let registry = Registry::shared();
    let before = registry.snapshot().to_json_stable();
    let ctx = context_labeled(&r, "Indication-hasFinding-Finding");
    r.relax("fever", Some(ctx), K).unwrap();
    assert_eq!(registry.snapshot().to_json_stable(), before);
}
