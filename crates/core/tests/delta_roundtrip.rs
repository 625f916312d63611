//! Property: a delta followed by its engine-returned inverse restores the
//! derived [`IngestOutput`] bit-identically (`medkb_core::delta` docs).
//!
//! Ops are drawn from the invertible families (documents, synonyms, edges,
//! instances — `AddConcept` is the documented non-invertible exception and
//! is excluded); each is constructed valid against the engine's current
//! state, so the property never trips over rejected deltas. A second
//! engine applies the whole sequence as one batch delta, pinning the
//! equivalence of batched and one-at-a-time application along the way.

use medkb_core::{
    outputs_identical, Delta, DeltaEngine, DeltaOp, IngestOutput, MappingMethod, RelaxConfig,
};
use medkb_corpus::{CorpusConfig, CorpusGenerator};
use medkb_snomed::{ContextTag, MedWorld, WorldConfig};
use medkb_types::{ExtConceptId, Id, InstanceId};
use proptest::prelude::*;

fn engine() -> DeltaEngine {
    let world = MedWorld::generate(&WorldConfig::tiny(71));
    let corpus = CorpusGenerator::new(&world.terminology, &world.oracle)
        .generate(&CorpusConfig::tiny(72));
    let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
    DeltaEngine::new(world.kb, corpus, world.terminology.ekg, None, config).unwrap()
}

fn add_document(e: &DeltaEngine, a: u64, b: u64) -> DeltaOp {
    let ekg = e.native_ekg();
    let n = ekg.len() as u64;
    let name = |x: u64| ekg.name(ExtConceptId::from_usize((x % n) as usize)).to_string();
    DeltaOp::AddDocument {
        sentences: vec![(
            ContextTag::ALL[(a % ContextTag::ALL.len() as u64) as usize],
            vec!["patients with".to_string(), name(a), "show".to_string(), name(b)],
        )],
    }
}

/// Turn one generated `(kind, a, b)` triple into an op that is valid
/// against the engine's current inputs; falls back to a document append
/// (always valid) when the kind has no live target.
fn valid_op(e: &DeltaEngine, kind: u8, a: u64, b: u64) -> DeltaOp {
    let ekg = e.native_ekg();
    let n = ekg.len();
    match kind {
        1 if !e.corpus().is_empty() => {
            DeltaOp::RemoveDocument { index: (a % e.corpus().len() as u64) as usize }
        }
        2 => DeltaOp::AddSynonym {
            concept: ExtConceptId::from_usize((a % n as u64) as usize),
            synonym: format!("delta synonym {a} {b}"),
        },
        3 => {
            let with_syns: Vec<ExtConceptId> =
                ekg.concepts().filter(|&c| ekg.synonyms(c).next().is_some()).collect();
            if with_syns.is_empty() {
                return add_document(e, a, b);
            }
            let c = with_syns[(a % with_syns.len() as u64) as usize];
            let count = ekg.synonyms(c).count();
            DeltaOp::RemoveSynonym { concept: c, index: (b % count as u64) as usize }
        }
        4 => {
            for probe in 0..20u64 {
                let child = ExtConceptId::from_usize(((a + probe) % n as u64) as usize);
                let parent = ExtConceptId::from_usize(((b + 3 * probe) % n as u64) as usize);
                if child != ekg.root()
                    && child != parent
                    && !ekg.parents(child).contains(&parent)
                    && !ekg.is_ancestor(child, parent)
                {
                    return DeltaOp::AddIsA { child, parent };
                }
            }
            add_document(e, a, b)
        }
        5 => {
            let removable: Vec<ExtConceptId> =
                ekg.concepts().filter(|&c| ekg.parents(c).len() >= 2).collect();
            if removable.is_empty() {
                return add_document(e, a, b);
            }
            let child = removable[(a % removable.len() as u64) as usize];
            let parents = ekg.parents(child);
            DeltaOp::RemoveIsA { child, parent: parents[(b % parents.len() as u64) as usize] }
        }
        6 => {
            let live: Vec<InstanceId> = e.kb().instances().map(|(id, _)| id).collect();
            match live.first() {
                Some(&first) if b.is_multiple_of(2) => DeltaOp::AddInstance {
                    name: ekg.name(ExtConceptId::from_usize((a % n as u64) as usize)).to_string(),
                    concept: e.kb().concept_of(first),
                },
                Some(_) => {
                    DeltaOp::RemoveInstance { id: live[(a % live.len() as u64) as usize] }
                }
                None => add_document(e, a, b),
            }
        }
        7 => {
            let retired: Vec<InstanceId> = (0..e.kb().instance_slots())
                .map(InstanceId::from_usize)
                .filter(|&id| e.kb().is_retired(id))
                .collect();
            match retired.first() {
                Some(_) => {
                    DeltaOp::RestoreInstance { id: retired[(a % retired.len() as u64) as usize] }
                }
                None => add_document(e, a, b),
            }
        }
        _ => add_document(e, a, b),
    }
}

fn full_twin(e: &DeltaEngine) -> IngestOutput {
    let counts = medkb_corpus::MentionCounts::count(e.corpus(), e.native_ekg());
    medkb_core::ingest(e.kb(), e.native_ekg().clone(), &counts, None, e.config()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn delta_then_inverse_restores_output_bit_identically(
        choices in proptest::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 1..6)
    ) {
        let mut sequential = engine();
        let before = sequential.output().clone();

        // Apply one op at a time, materializing each against live state.
        let mut ops: Vec<DeltaOp> = Vec::new();
        let mut inverses: Vec<Delta> = Vec::new();
        for &(kind, a, b) in &choices {
            let op = valid_op(&sequential, kind, a, b);
            let inv = sequential
                .apply(&Delta::new(vec![op.clone()]))
                .expect("constructed op must be valid");
            ops.push(op);
            inverses.push(inv);
        }

        // The same ops as one batch delta on a fresh twin engine: batched
        // and sequential application are the same function.
        let mut batched = engine();
        let inverse = batched.apply(&Delta::new(ops)).expect("batch delta must be valid");
        prop_assert!(
            outputs_identical(sequential.output(), batched.output()),
            "batched application diverged from one-at-a-time"
        );
        prop_assert!(
            outputs_identical(batched.output(), &full_twin(&batched)),
            "delta output diverged from honest full re-ingest"
        );

        // Engine-returned inverses restore the original output exactly —
        // batched inverse on one engine, stacked inverses on the other.
        batched.apply(&inverse).expect("inverse delta must be valid");
        prop_assert!(
            outputs_identical(batched.output(), &before),
            "batch inverse did not restore the original output"
        );
        for inv in inverses.iter().rev() {
            sequential.apply(inv).expect("stacked inverse must be valid");
        }
        prop_assert!(
            outputs_identical(sequential.output(), &before),
            "stacked inverses did not restore the original output"
        );
    }
}
