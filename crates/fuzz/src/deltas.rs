//! Seeded adversarial delta generators.
//!
//! Each generator derives a [`Delta`] from the engine's **current** inputs
//! (deltas compound across a soak run), valid by construction: ops whose
//! preconditions depend on earlier ops in the same delta are simulated
//! against scratch state before being emitted. The four churn kinds cover
//! every dirty-flag combination the engine's phase-2 recompute branches on,
//! and [`DeltaKind::NoOp`] pins the everything-clean path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use medkb_core::{Delta, DeltaEngine, DeltaOp};
use medkb_snomed::ContextTag;
use medkb_types::{ExtConceptId, Id, InstanceId};

/// The delta families the differential oracle sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Documents added/removed (counts + frequency patching, trie reuse).
    DocChurn,
    /// Native `is_a` edges added/removed (reachability repair, rollup
    /// cones, shortcut reruns).
    EdgeChurn,
    /// Concepts added/retired and synonyms churned (full recount + remap,
    /// graph growth).
    ConceptChurn,
    /// KB instances added/tombstoned/restored (mapping-slab patching).
    InstanceChurn,
    /// Nothing, or work that cancels out — the derived state must not
    /// move a bit.
    NoOp,
}

impl DeltaKind {
    /// All kinds, in sweep order.
    pub const ALL: [DeltaKind; 5] = [
        DeltaKind::DocChurn,
        DeltaKind::EdgeChurn,
        DeltaKind::ConceptChurn,
        DeltaKind::InstanceChurn,
        DeltaKind::NoOp,
    ];
}

/// Generate a valid `kind` delta against the engine's current inputs.
/// Deterministic in `(seed, kind, engine state)`.
pub fn generate_delta(seed: u64, kind: DeltaKind, engine: &DeltaEngine) -> Delta {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA55E_55ED).wrapping_add(seed));
    let ops = match kind {
        DeltaKind::DocChurn => doc_churn(&mut rng, engine),
        DeltaKind::EdgeChurn => edge_churn(&mut rng, engine),
        DeltaKind::ConceptChurn => concept_churn(&mut rng, seed, engine),
        DeltaKind::InstanceChurn => instance_churn(&mut rng, seed, engine),
        DeltaKind::NoOp => no_op(&mut rng, engine),
    };
    Delta::new(ops)
}

const FILLER: &[&str] = &["the", "drug", "treats", "patients", "with", "reported", "of"];

/// Sentences that mention real (possibly hostile) concept names, so delta
/// documents move actual trie counts, not just vocabulary.
fn random_sentences(rng: &mut StdRng, names: &[String]) -> Vec<(ContextTag, Vec<String>)> {
    (0..rng.gen_range(1..=3))
        .map(|_| {
            let tag = ContextTag::ALL[rng.gen_range(0..ContextTag::ALL.len())];
            let mut fragments: Vec<String> = Vec::new();
            for _ in 0..rng.gen_range(1..=2) {
                fragments.push(FILLER[rng.gen_range(0..FILLER.len())].to_string());
                fragments.push(names[rng.gen_range(0..names.len())].clone());
            }
            fragments.push(FILLER[rng.gen_range(0..FILLER.len())].to_string());
            (tag, fragments)
        })
        .collect()
}

fn concept_names(engine: &DeltaEngine) -> Vec<String> {
    let ekg = engine.native_ekg();
    ekg.concepts().map(|c| ekg.name(c).to_string()).collect()
}

fn doc_churn(rng: &mut StdRng, engine: &DeltaEngine) -> Vec<DeltaOp> {
    let names = concept_names(engine);
    let mut n_docs = engine.corpus().len();
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(1..=4) {
        if n_docs > 0 && rng.gen_bool(0.4) {
            ops.push(DeltaOp::RemoveDocument { index: rng.gen_range(0..n_docs) });
            n_docs -= 1;
        } else {
            ops.push(DeltaOp::AddDocument { sentences: random_sentences(rng, &names) });
            n_docs += 1;
        }
    }
    ops
}

fn edge_churn(rng: &mut StdRng, engine: &DeltaEngine) -> Vec<DeltaOp> {
    // Validity (no duplicate edge, no cycle, no orphaned child) depends on
    // the ops already emitted, so candidates are auditioned on a scratch
    // graph with the very mutators the engine will run.
    let mut sim = engine.native_ekg().clone();
    let n = sim.len();
    let mut ops = Vec::new();
    if n < 2 {
        return ops;
    }
    for _ in 0..rng.gen_range(1..=3) {
        if rng.gen_bool(0.5) {
            for _ in 0..20 {
                let child = ExtConceptId::from_usize(rng.gen_range(0..n));
                let parent = ExtConceptId::from_usize(rng.gen_range(0..n));
                if sim.add_is_a(child, parent).is_ok() {
                    ops.push(DeltaOp::AddIsA { child, parent });
                    break;
                }
            }
        } else {
            let cands: Vec<ExtConceptId> =
                sim.concepts().filter(|&c| sim.native_parent_count(c) >= 2).collect();
            if cands.is_empty() {
                continue;
            }
            let child = cands[rng.gen_range(0..cands.len())];
            let parents: Vec<ExtConceptId> =
                sim.parents(child).iter().filter(|e| !e.shortcut).map(|e| e.to).collect();
            let parent = parents[rng.gen_range(0..parents.len())];
            sim.remove_is_a(child, parent).expect("audited removal");
            ops.push(DeltaOp::RemoveIsA { child, parent });
        }
    }
    ops
}

fn concept_churn(rng: &mut StdRng, seed: u64, engine: &DeltaEngine) -> Vec<DeltaOp> {
    let names = concept_names(engine);
    let mut n = engine.native_ekg().len();
    // Synonym counts per concept, tracked so removals stay in range as the
    // delta's own ops shift them.
    let mut syn_counts: Vec<usize> =
        engine.native_ekg().concepts().map(|c| engine.native_ekg().synonyms(c).count()).collect();
    let root = engine.native_ekg().root();
    let mut ops = Vec::new();
    for i in 0..rng.gen_range(1..=3) {
        match rng.gen_range(0..4) {
            0 => {
                // Synonyms deliberately collide with existing primary names
                // (legal, just ambiguous) to stress mapper + trie rebuilds.
                let synonyms = if rng.gen_bool(0.6) {
                    vec![format!("{} variant", names[rng.gen_range(0..names.len())])]
                } else {
                    Vec::new()
                };
                let mut parents =
                    vec![ExtConceptId::from_usize(rng.gen_range(0..n))];
                let extra = ExtConceptId::from_usize(rng.gen_range(0..n));
                if !parents.contains(&extra) && rng.gen_bool(0.5) {
                    parents.push(extra);
                }
                // Named after the id it will get: ids never shrink, so the
                // name is new even beside a leaf a rolled-back delta left.
                ops.push(DeltaOp::AddConcept {
                    name: format!("delta node {seed} {n}"),
                    synonyms,
                    parents,
                });
                syn_counts.push(0);
                n += 1;
            }
            1 => {
                let concept = ExtConceptId::from_usize(rng.gen_range(0..n));
                let synonym = if rng.gen_bool(0.5) {
                    names[rng.gen_range(0..names.len())].clone()
                } else {
                    format!("delta syn {seed} {i}")
                };
                ops.push(DeltaOp::AddSynonym { concept, synonym });
                syn_counts[Id::as_usize(concept)] += 1;
            }
            2 => {
                let cands: Vec<usize> =
                    (0..n).filter(|&c| syn_counts[c] > 0).collect();
                if !cands.is_empty() {
                    let c = cands[rng.gen_range(0..cands.len())];
                    let index = rng.gen_range(0..syn_counts[c]);
                    ops.push(DeltaOp::RemoveSynonym {
                        concept: ExtConceptId::from_usize(c),
                        index,
                    });
                    syn_counts[c] -= 1;
                }
            }
            _ => {
                if n > 1 {
                    let mut c = ExtConceptId::from_usize(rng.gen_range(0..n));
                    if c == root {
                        c = ExtConceptId::from_usize(
                            (Id::as_usize(root) + 1 + rng.gen_range(0..n - 1)) % n,
                        );
                    }
                    if c != root {
                        ops.push(DeltaOp::RetireConcept { concept: c });
                    }
                }
            }
        }
    }
    ops
}

fn instance_churn(rng: &mut StdRng, seed: u64, engine: &DeltaEngine) -> Vec<DeltaOp> {
    let kb = engine.kb();
    let names = concept_names(engine);
    let mut live: Vec<InstanceId> = kb.instances().map(|(id, _)| id).collect();
    let mut retired: Vec<InstanceId> = (0..kb.instance_slots())
        .map(InstanceId::from_usize)
        .filter(|&id| kb.is_retired(id))
        .collect();
    let Some(onto_concept) = live.first().map(|&id| kb.concept_of(id)).or_else(|| {
        retired.first().map(|&id| kb.concept_of(id))
    }) else {
        return Vec::new();
    };
    let mut slots = kb.instance_slots();
    let mut ops = Vec::new();
    for i in 0..rng.gen_range(1..=3) {
        match rng.gen_range(0..3) {
            0 => {
                // Half mappable (a live concept name), half junk the mapper
                // must ignore.
                let name = if rng.gen_bool(0.5) {
                    names[rng.gen_range(0..names.len())].clone()
                } else {
                    format!("unmappable instance {seed} {i}")
                };
                ops.push(DeltaOp::AddInstance { name, concept: onto_concept });
                live.push(InstanceId::from_usize(slots));
                slots += 1;
            }
            1 if !live.is_empty() => {
                let at = rng.gen_range(0..live.len());
                let id = live.swap_remove(at);
                ops.push(DeltaOp::RemoveInstance { id });
                retired.push(id);
            }
            2 if !retired.is_empty() => {
                let at = rng.gen_range(0..retired.len());
                let id = retired.swap_remove(at);
                ops.push(DeltaOp::RestoreInstance { id });
                live.push(id);
            }
            _ => {}
        }
    }
    ops
}

fn no_op(rng: &mut StdRng, engine: &DeltaEngine) -> Vec<DeltaOp> {
    if rng.gen_bool(0.5) {
        Vec::new()
    } else {
        // Add a document and remove it again: real churn through the
        // incremental counters that must cancel to the last bit.
        let names = concept_names(engine);
        let index = engine.corpus().len();
        vec![
            DeltaOp::AddDocument { sentences: random_sentences(rng, &names) },
            DeltaOp::RemoveDocument { index },
        ]
    }
}
