//! Property tests for score-bounded pruning (DESIGN.md §13) over the
//! adversarial world generator:
//!
//! * `upper_bound(c) ≥ exact_score(c)` for every candidate the bounded
//!   scan could consult (plus the ring-cap dominance chain), and
//! * the pruned top-k is **bit-identical** — ids, scores, order — to the
//!   exhaustive `relax_concept_reference`, sequentially and through the
//!   sharded batch API at 1/2/4/8 threads.
//!
//! Seeds range over the same 0..240 space the differential shards sweep,
//! so every shrunk counterexample maps straight onto a reproducible world.

use medkb_core::{ingest, IngestOutput, MappingMethod, QueryRelaxer, RelaxConfig};
use medkb_corpus::MentionCounts;
use medkb_fuzz::{check_bounds, AdversarialWorld, THREAD_SWEEP};
use medkb_types::{ContextId, ExtConceptId};
use proptest::prelude::*;

fn world_and_output(seed: u64) -> (AdversarialWorld, IngestOutput, RelaxConfig) {
    let w = AdversarialWorld::generate(seed);
    let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
    let counts = MentionCounts::count(&w.corpus, &w.ekg);
    let out = ingest(&w.kb, w.ekg.clone(), &counts, None, &config)
        .unwrap_or_else(|e| panic!("[{}] ingest failed: {e}", w.label));
    (w, out, config)
}

fn query_mix(
    w: &AdversarialWorld,
    r: &QueryRelaxer,
) -> Vec<(ExtConceptId, Option<ContextId>)> {
    let mut contexts: Vec<Option<ContextId>> = vec![None];
    contexts.extend(r.ingested().contexts.first().map(|c| Some(c.id)));
    let mut queries = Vec::new();
    for q in w.query_concepts() {
        for &ctx in &contexts {
            queries.push((q, ctx));
        }
    }
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Admissibility: the Eq. 5 upper bound dominates the exact score for
    /// every (query, tag, candidate) triple in a radius-4 neighborhood.
    #[test]
    fn bounds_are_admissible_on_adversarial_worlds(seed in 0u64..240) {
        let (w, out, config) = world_and_output(seed);
        check_bounds(&w, &out, &config);
    }

    /// Bit-identity: pruned top-k ≡ exhaustive reference for arbitrary k,
    /// element-wise through the batch API at every sweep thread count.
    #[test]
    fn pruned_topk_is_bit_identical_to_reference(seed in 0u64..240, k in 1usize..20) {
        let (w, out, config) = world_and_output(seed);
        let r = QueryRelaxer::new(out, config);
        let queries = query_mix(&w, &r);

        let reference: Vec<_> =
            queries.iter().map(|&(q, ctx)| r.relax_concept_reference(q, ctx, k)).collect();
        for (&(q, ctx), slow) in queries.iter().zip(&reference) {
            let fast = r.relax_concept(q, ctx, k);
            match (&fast, slow) {
                (Ok(f), Ok(s)) => {
                    prop_assert_eq!(f, s, "[{}] relax({:?},{:?},k={})", w.label, q, ctx, k);
                }
                (Err(_), Err(_)) => {}
                (f, s) => panic!(
                    "[{}] relax({q:?},{ctx:?},k={k}) outcome kind diverged: \
                     pruned={f:?} reference={s:?}",
                    w.label
                ),
            }
        }

        for threads in THREAD_SWEEP {
            let batch = r.relax_concepts_batch_with_threads(&queries, k, threads);
            prop_assert_eq!(batch.len(), reference.len());
            for (i, (b, s)) in batch.iter().zip(&reference).enumerate() {
                match (b, s) {
                    (Ok(b), Ok(s)) => {
                        prop_assert_eq!(
                            b, s,
                            "[{}] batch slot {} @{} threads k={}",
                            w.label, i, threads, k
                        );
                    }
                    (Err(_), Err(_)) => {}
                    (b, s) => panic!(
                        "[{}] batch slot {i} @{threads} threads k={k} kind diverged: \
                         batch={b:?} reference={s:?}",
                        w.label
                    ),
                }
            }
        }
    }
}
