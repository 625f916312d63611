//! Table 1: accuracy of the instance → external concept mapping methods.
//!
//! For every KB instance the world knows the gold concept (or that none
//! exists). A method's *precision* is the fraction of produced mappings
//! that hit the gold concept; *recall* is the fraction of gold-mappable
//! instances that were correctly mapped. Mapping an unmappable trap
//! instance anywhere costs precision, exactly as an SME would judge it.

use medkb_core::MappingMethod;
use medkb_types::par;

use crate::metrics::Prf;
use crate::pipeline::EvalStack;

/// One Table 1 row.
#[derive(Debug, Clone)]
pub struct MappingRow {
    /// Method label as in the paper.
    pub method: &'static str,
    /// Precision / recall / F1 (0–100).
    pub prf: Prf,
    /// Number of mappings produced.
    pub produced: usize,
    /// Number of gold-mappable instances.
    pub mappable: usize,
}

/// Evaluate the three mapping methods of §7.2 over the stack's KB.
///
/// Like the paper — which judged "100 commonly used concepts of medical
/// conditions" — the evaluation covers the *entity* instances (findings,
/// diseases, symptoms, drugs) and the unmappable condition traps, not the
/// structural rows (indication/adverse-event records), which have no
/// terminology counterpart by design.
pub fn evaluate_mappings(stack: &EvalStack) -> Vec<MappingRow> {
    evaluate_mappings_with(
        stack,
        &[
            ("EXACT", MappingMethod::Exact),
            ("EDIT", MappingMethod::edit_tau2()),
            ("EMBEDDING", MappingMethod::embedding_default()),
        ],
    )
}

/// [`evaluate_mappings`] over an arbitrary method list (the ablation
/// harness adds the extra PHONETIC matcher).
pub fn evaluate_mappings_with(
    stack: &EvalStack,
    methods: &[(&'static str, MappingMethod)],
) -> Vec<MappingRow> {
    let onto = stack.world.kb.ontology();
    let entity_concepts: Vec<_> = ["Finding", "Disease", "Symptom", "Drug"]
        .iter()
        .filter_map(|n| onto.lookup_concept(n))
        .collect();
    let evaluated: Vec<medkb_types::InstanceId> = stack
        .world
        .kb
        .instances()
        .filter(|(_, inst)| entity_concepts.contains(&inst.concept))
        .map(|(id, _)| id)
        .collect();
    let mappable = evaluated
        .iter()
        .filter(|&&i| stack.world.origins[i].concept.is_some())
        .count();
    // The ingestions are independent; each runs on its own thread.
    par::shard_map(methods.len(), methods.len(), |i| {
        let (label, method) = methods[i];
        let out = stack.ingest_with(method).expect("ingestion succeeds");
        let mut correct = 0usize;
        let mut produced = 0usize;
        for &inst in &evaluated {
            let Some(concept) = out.mappings.get(inst) else { continue };
            produced += 1;
            if stack.world.origins[inst].concept == Some(concept) {
                correct += 1;
            }
        }
        let precision =
            if produced == 0 { 0.0 } else { 100.0 * correct as f64 / produced as f64 };
        let recall = if mappable == 0 { 0.0 } else { 100.0 * correct as f64 / mappable as f64 };
        MappingRow { method: label, prf: Prf::new(precision, recall), produced, mappable }
    })
}

/// Precision/recall of the EMBEDDING mapper as its acceptance threshold
/// sweeps — one mapper build, one scored lookup per instance, thresholds
/// applied post hoc via [`medkb_core::ConceptMapper::map_scored`].
pub fn embedding_threshold_sweep(stack: &EvalStack, thresholds: &[f64]) -> Vec<(f64, Prf)> {
    use medkb_core::ConceptMapper;
    let mapper = ConceptMapper::build(
        &stack.world.terminology.ekg,
        MappingMethod::Embedding { threshold: -1.0 },
        Some(stack.sif_trained.clone()),
    )
    .expect("mapper builds");
    let onto = stack.world.kb.ontology();
    let entity_concepts: Vec<_> = ["Finding", "Disease", "Symptom", "Drug"]
        .iter()
        .filter_map(|n| onto.lookup_concept(n))
        .collect();
    // One scored lookup per entity instance.
    let scored: Vec<(medkb_types::InstanceId, Option<(medkb_types::ExtConceptId, f64)>)> = stack
        .world
        .kb
        .instances()
        .filter(|(_, inst)| entity_concepts.contains(&inst.concept))
        .map(|(id, inst)| (id, mapper.map_scored(&stack.world.terminology.ekg, &inst.name)))
        .collect();
    let mappable =
        scored.iter().filter(|(id, _)| stack.world.origins[*id].concept.is_some()).count();
    thresholds
        .iter()
        .map(|&t| {
            let mut produced = 0usize;
            let mut correct = 0usize;
            for (id, hit) in &scored {
                let Some((concept, score)) = hit else { continue };
                if *score < t {
                    continue;
                }
                produced += 1;
                if stack.world.origins[*id].concept == Some(*concept) {
                    correct += 1;
                }
            }
            let p = if produced == 0 { 0.0 } else { 100.0 * correct as f64 / produced as f64 };
            let r = if mappable == 0 { 0.0 } else { 100.0 * correct as f64 / mappable as f64 };
            (t, Prf::new(p, r))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::EvalConfig;

    fn rows() -> Vec<MappingRow> {
        let stack = EvalStack::build(EvalConfig::tiny(111)).unwrap();
        evaluate_mappings(&stack)
    }

    #[test]
    fn exact_has_perfect_precision() {
        let rows = rows();
        let exact = rows.iter().find(|r| r.method == "EXACT").unwrap();
        assert!((exact.prf.precision - 100.0).abs() < 1e-9, "{:?}", exact.prf);
    }

    #[test]
    fn edit_recall_at_least_exact() {
        let rows = rows();
        let exact = rows.iter().find(|r| r.method == "EXACT").unwrap();
        let edit = rows.iter().find(|r| r.method == "EDIT").unwrap();
        assert!(
            edit.prf.recall >= exact.prf.recall,
            "EDIT {:?} vs EXACT {:?}",
            edit.prf,
            exact.prf
        );
    }

    #[test]
    fn all_rows_have_sane_ranges() {
        for r in rows() {
            assert!((0.0..=100.0).contains(&r.prf.precision), "{r:?}");
            assert!((0.0..=100.0).contains(&r.prf.recall), "{r:?}");
            assert!(r.mappable > 0, "{r:?}");
        }
    }

    #[test]
    fn threshold_sweep_trades_recall_for_precision() {
        let stack = EvalStack::build(EvalConfig::tiny(112)).unwrap();
        let sweep = embedding_threshold_sweep(&stack, &[0.0, 0.7, 0.9, 0.99]);
        assert_eq!(sweep.len(), 4);
        // Recall is monotonically non-increasing in the threshold…
        for w in sweep.windows(2) {
            assert!(w[0].1.recall + 1e-9 >= w[1].1.recall, "{sweep:?}");
        }
        // …and a high threshold should not lower precision below the
        // accept-everything setting.
        assert!(sweep.last().unwrap().1.precision + 1e-9 >= sweep[0].1.precision, "{sweep:?}");
    }

    #[test]
    fn embedding_precision_stays_high() {
        let rows = rows();
        let emb = rows.iter().find(|r| r.method == "EMBEDDING").unwrap();
        assert!(
            emb.prf.precision > 80.0,
            "embedding mapper precision collapsed: {:?}",
            emb.prf
        );
    }
}
