//! The assembled experimental world: terminology + oracle + MED KB + gold
//! mapping.
//!
//! The paper's *MED* data set is proprietary (§7.1), so [`MedWorld`]
//! generates an equivalent: KB instances are sampled from the terminology's
//! finding and drug hierarchies, and their *names* are perturbed with the
//! controlled mix that produces Table 1's matcher behaviour:
//!
//! | shape       | name derivation                              | recovered by |
//! |-------------|----------------------------------------------|--------------|
//! | `Exact`     | primary name or a registered synonym, verbatim | EXACT        |
//! | `Typo`      | ≤ 2 character edits                           | EDIT (τ = 2) |
//! | `Reworded`  | colloquial word swap / word reorder           | EMBEDDING    |
//! | `Unmappable`| fresh name with no terminology counterpart    | nobody (trap)|
//!
//! Typo'd and reworded names are re-rolled if they collide with a real
//! terminology name, so EXACT matching stays 100%-precise by construction —
//! as in the paper.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use medkb_kb::{Kb, KbBuilder};
use medkb_ontology::{context::generate_contexts, med::med_ontology, ContextSpec};
use medkb_text::normalize;
use medkb_types::{ContextId, ExtConceptId, IdVec, InstanceId};

use crate::config::WorldConfig;
use crate::generator::{GeneratedTerminology, Hierarchy};
use crate::oracle::{ContextTag, Oracle};
use crate::vocab;

/// How an instance's name was derived from its concept (gold knowledge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameShape {
    /// Verbatim primary name.
    Exact,
    /// Verbatim registered synonym.
    Synonym,
    /// 1–2 character edits of the primary name.
    Typo,
    /// Colloquial swap or reorder; only embeddings can bridge it.
    Reworded,
    /// No terminology counterpart exists.
    Unmappable,
}

/// Gold provenance of one KB instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceOrigin {
    /// The true external concept, if any.
    pub concept: Option<ExtConceptId>,
    /// How the name was derived.
    pub shape: NameShape,
}

/// The full synthetic experimental world.
#[derive(Debug, Clone)]
pub struct MedWorld {
    /// The external terminology with ground-truth metadata.
    pub terminology: GeneratedTerminology,
    /// The SME-replacing relevance oracle.
    pub oracle: Oracle,
    /// The MED knowledge base (ontology + instances + triples).
    pub kb: Kb,
    /// Gold provenance per instance.
    pub origins: IdVec<InstanceId, InstanceOrigin>,
    /// All contexts of the MED ontology.
    pub contexts: Vec<ContextSpec>,
    /// Context → semantic tag, derived from relationship names.
    pub context_tags: HashMap<ContextId, ContextTag>,
    /// The configuration the world was generated from.
    pub config: WorldConfig,
}

impl MedWorld {
    /// Generate a world from `config`: the terminology, its oracle, then
    /// [`MedWorld::assemble`].
    pub fn generate(config: &WorldConfig) -> Self {
        let terminology = GeneratedTerminology::generate(&config.snomed);
        let oracle = Oracle::derive(&terminology, config.oracle_seed());
        Self::assemble(terminology, oracle, config)
    }

    /// The last step of [`MedWorld::generate`]: sample KB instances from
    /// `terminology`, perturb their names, and add the relation triples.
    /// Given the terminology generated from `config.snomed` and the oracle
    /// derived from it with [`WorldConfig::oracle_seed`], this builds
    /// exactly the world `generate` does.
    pub fn assemble(terminology: GeneratedTerminology, oracle: Oracle, config: &WorldConfig) -> Self {
        let ontology = med_ontology();
        let contexts = generate_contexts(&ontology);
        let context_tags: HashMap<ContextId, ContextTag> = contexts
            .iter()
            .map(|c| {
                let rel = ontology.relationship(c.relationship);
                let domain = ontology.concept_name(rel.domain);
                (c.id, ContextTag::from_relationship(domain, &rel.name))
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut kb = KbBuilder::new(ontology);
        let onto = kb.ontology();
        let c_finding = onto.lookup_concept("Finding").unwrap();
        let c_symptom = onto.lookup_concept("Symptom").unwrap();
        let c_disease = onto.lookup_concept("Disease").unwrap();
        let c_drug = onto.lookup_concept("Drug").unwrap();
        let c_indication = onto.lookup_concept("Indication").unwrap();
        let c_adverse = onto.lookup_concept("AdverseEffect").unwrap();
        let r_treat = onto.lookup_relationship("Drug-treat-Indication").unwrap();
        let r_cause = onto.lookup_relationship("Drug-cause-Risk").unwrap();
        let r_ind_finding =
            onto.lookup_relationship("Indication-hasFinding-Finding").unwrap();
        let r_risk_finding = onto.lookup_relationship("Risk-hasFinding-Finding").unwrap();

        // —— Sample source concepts (depth ≥ 2: concrete conditions and
        // products, not hierarchy heads) ——
        let findings = weighted_sample(
            &mut rng,
            &terminology.of_hierarchy_below(Hierarchy::ClinicalFinding, 2),
            |c| terminology.meta[c].popularity,
            config.finding_instances,
        );
        let drugs = weighted_sample(
            &mut rng,
            &terminology.of_hierarchy_below(Hierarchy::PharmaceuticalProduct, 2),
            |c| terminology.meta[c].popularity,
            config.drug_instances,
        );

        // —— Create instances with perturbed names ——
        let mut origins: Vec<InstanceOrigin> = Vec::new();
        let mut finding_instances: Vec<(InstanceId, ExtConceptId)> = Vec::new();
        let mut used_instance_names: HashSet<String> = HashSet::new();
        let ekg = &terminology.ekg;

        let spawn = |kb: &mut KbBuilder,
                         rng: &mut StdRng,
                         origins: &mut Vec<InstanceOrigin>,
                         used: &mut HashSet<String>,
                         src: ExtConceptId,
                         onto_concept,
                         cfg: &WorldConfig|
         -> Option<InstanceId> {
            let roll: f64 = rng.gen();
            let primary = ekg.name(src).to_string();
            let (name, shape, mapped) = if roll < cfg.exact_name_rate {
                // Only synonyms that resolve uniquely back to the source
                // concept are usable (abbreviations can collide, and an
                // ambiguous synonym would break EXACT's by-construction
                // 100% precision).
                let syns: Vec<&str> = ekg
                    .synonyms(src)
                    .filter(|s| ekg.lookup_name(s) == [src])
                    .collect();
                if !syns.is_empty() && rng.gen_bool(0.35) {
                    (syns[rng.gen_range(0..syns.len())].to_string(), NameShape::Synonym, true)
                } else {
                    (primary.clone(), NameShape::Exact, true)
                }
            } else if roll < cfg.exact_name_rate + cfg.typo_name_rate {
                let mut t = vocab::typo(rng, &primary);
                // Re-roll typos that collide with a real terminology name
                // (keeps EXACT at precision 100, as in the paper).
                for _ in 0..8 {
                    if ekg.lookup_name(&t).is_empty() {
                        break;
                    }
                    t = vocab::typo(rng, &primary);
                }
                (t, NameShape::Typo, true)
            } else if roll < cfg.exact_name_rate + cfg.typo_name_rate + cfg.reword_name_rate {
                let mut t = vocab::reword(rng, &primary);
                if !ekg.lookup_name(&t).is_empty() {
                    t = format!("{t} episode");
                }
                (t, NameShape::Reworded, true)
            } else {
                // Unmappable trap: a fresh name absent from the terminology.
                let mut t;
                loop {
                    t = format!(
                        "{}{} syndrome",
                        vocab::GENUS_STARTS[rng.gen_range(0..vocab::GENUS_STARTS.len())],
                        vocab::SPECIES[rng.gen_range(0..vocab::SPECIES.len())]
                    );
                    if ekg.lookup_name(&t).is_empty() {
                        break;
                    }
                }
                (t, NameShape::Unmappable, false)
            };
            if !used.insert(normalize(&name)) {
                return None; // KB names unique; skip duplicates
            }
            let id = kb.instance(&name, onto_concept);
            origins.push(InstanceOrigin {
                concept: mapped.then_some(src),
                shape,
            });
            Some(id)
        };

        for src in findings {
            let onto_concept = match rng.gen_range(0..4) {
                0 => c_symptom,
                1 => c_disease,
                _ => c_finding,
            };
            if let Some(id) =
                spawn(&mut kb, &mut rng, &mut origins, &mut used_instance_names, src, onto_concept, config)
            {
                finding_instances.push((id, src));
            }
        }
        let mut drug_instance_ids: Vec<(InstanceId, ExtConceptId)> = Vec::new();
        for src in drugs {
            if let Some(id) =
                spawn(&mut kb, &mut rng, &mut origins, &mut used_instance_names, src, c_drug, config)
            {
                drug_instance_ids.push((id, src));
            }
        }

        // —— Relation triples: drug → indication → finding, drug → risk →
        // finding, biased by oracle affinity so the KB is plausible ——
        let treat_pool: Vec<(InstanceId, ExtConceptId)> = finding_instances
            .iter()
            .filter(|&&(_, c)| oracle.affinity(c, ContextTag::Treatment) > 0.45)
            .copied()
            .collect();
        let risk_pool: Vec<(InstanceId, ExtConceptId)> = finding_instances
            .iter()
            .filter(|&&(_, c)| oracle.affinity(c, ContextTag::Risk) > 0.45)
            .copied()
            .collect();
        for &(drug_id, _) in &drug_instance_ids {
            let n_ind = sample_count(&mut rng, config.indications_per_drug);
            for k in 0..n_ind {
                if treat_pool.is_empty() {
                    break;
                }
                let (f_id, f_src) = treat_pool[rng.gen_range(0..treat_pool.len())];
                // Realistic textual title for the indication row.
                let ind_name = format!(
                    "{} therapy course {k}.{}",
                    terminology.ekg.name(f_src),
                    kb.instance_count()
                );
                let ind = kb.instance(&ind_name, c_indication);
                origins.push(InstanceOrigin { concept: None, shape: NameShape::Unmappable });
                kb.triple(drug_id, r_treat, ind);
                kb.triple(ind, r_ind_finding, f_id);
            }
            let n_risk = sample_count(&mut rng, config.risks_per_drug);
            for k in 0..n_risk {
                if risk_pool.is_empty() {
                    break;
                }
                let (f_id, f_src) = risk_pool[rng.gen_range(0..risk_pool.len())];
                let risk_name = format!(
                    "{} adverse reaction report {k}.{}",
                    terminology.ekg.name(f_src),
                    kb.instance_count()
                );
                let risk = kb.instance(&risk_name, c_adverse);
                origins.push(InstanceOrigin { concept: None, shape: NameShape::Unmappable });
                kb.triple(drug_id, r_cause, risk);
                kb.triple(risk, r_risk_finding, f_id);
            }
        }

        let kb = kb.build().expect("generated KB must satisfy the ontology");
        let origins: IdVec<InstanceId, InstanceOrigin> = origins.into_iter().collect();
        debug_assert_eq!(origins.len(), kb.instance_count());

        Self { terminology, oracle, kb, origins, contexts, context_tags, config: config.clone() }
    }

    /// The semantic tag of an ontology context.
    pub fn tag_of(&self, context: ContextId) -> ContextTag {
        self.context_tags.get(&context).copied().unwrap_or(ContextTag::General)
    }

    /// The gold `(instance, concept)` mapping pairs (instances that truly
    /// correspond to a terminology concept).
    pub fn gold_mappings(&self) -> Vec<(InstanceId, ExtConceptId)> {
        self.origins
            .iter()
            .filter_map(|(id, o)| o.concept.map(|c| (id, c)))
            .collect()
    }

    /// Instances by name shape.
    pub fn instances_with_shape(&self, shape: NameShape) -> Vec<InstanceId> {
        self.origins
            .iter()
            .filter(|(_, o)| o.shape == shape)
            .map(|(id, _)| id)
            .collect()
    }

    /// Finding-hierarchy concepts that have *no* KB instance — the
    /// "pyelectasia" situation that triggers Scenario 1 relaxation.
    pub fn unrepresented_findings(&self) -> Vec<ExtConceptId> {
        let mapped: HashSet<ExtConceptId> =
            self.origins.iter().filter_map(|(_, o)| o.concept).collect();
        self.terminology
            .of_hierarchy(Hierarchy::ClinicalFinding)
            .into_iter()
            .filter(|c| !mapped.contains(c))
            .collect()
    }

    /// The context of the canonical treatment question
    /// (`Indication-hasFinding-Finding`).
    pub fn treatment_context(&self) -> ContextId {
        self.contexts
            .iter()
            .find(|c| c.label == "Indication-hasFinding-Finding")
            .map(|c| c.id)
            .expect("MED ontology has the Figure 1 contexts")
    }

    /// The context of the canonical risk question (`Risk-hasFinding-Finding`).
    pub fn risk_context(&self) -> ContextId {
        self.contexts
            .iter()
            .find(|c| c.label == "Risk-hasFinding-Finding")
            .map(|c| c.id)
            .expect("MED ontology has the Figure 1 contexts")
    }
}

/// Sample `n` distinct items from `pool` with probability proportional to
/// `weight`, via repeated weighted draws with rejection.
///
/// The weights are read once per call into one contiguous slice that every
/// draw walks in pool order, so a draw is a sequential scan rather than a
/// call to `weight` per element.
fn weighted_sample<F: Fn(ExtConceptId) -> f64>(
    rng: &mut StdRng,
    pool: &[ExtConceptId],
    weight: F,
    n: usize,
) -> Vec<ExtConceptId> {
    if pool.is_empty() {
        return Vec::new();
    }
    let weights: Vec<f64> = pool.iter().map(|&c| weight(c)).collect();
    let total: f64 = weights.iter().sum();
    let mut chosen: HashSet<ExtConceptId> = HashSet::new();
    let mut out = Vec::new();
    let budget = n.min(pool.len());
    let mut attempts = 0usize;
    while out.len() < budget && attempts < n * 40 + 100 {
        attempts += 1;
        let mut target = rng.gen::<f64>() * total;
        let at = weights
            .iter()
            .position(|&w| {
                target -= w;
                target <= 0.0
            })
            .unwrap_or(pool.len() - 1);
        if chosen.insert(pool[at]) {
            out.push(pool[at]);
        }
    }
    // Fill up uniformly if rejection stalled on a heavy head.
    if out.len() < budget {
        for &c in pool {
            if out.len() >= budget {
                break;
            }
            if chosen.insert(c) {
                out.push(c);
            }
        }
    }
    out
}

/// Poisson-ish count with the given mean (geometric-style sampling is fine
/// for workload shaping).
fn sample_count(rng: &mut StdRng, mean: f64) -> usize {
    let base = mean.floor() as usize;
    base + usize::from(rng.gen_bool(mean - base as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> MedWorld {
        MedWorld::generate(&WorldConfig::tiny(31))
    }

    #[test]
    fn world_generates_and_validates() {
        let w = tiny_world();
        assert!(w.kb.instance_count() > 100);
        assert!(w.kb.triple_count() > 50);
        assert_eq!(w.origins.len(), w.kb.instance_count());
        assert_eq!(w.contexts.len(), 58);
    }

    #[test]
    fn shapes_follow_configured_rates_roughly() {
        let w = MedWorld::generate(&WorldConfig {
            finding_instances: 1200,
            drug_instances: 0,
            indications_per_drug: 0.0,
            risks_per_drug: 0.0,
            ..WorldConfig::tiny(5)
        });
        let total = w.kb.instance_count() as f64;
        let exact = (w.instances_with_shape(NameShape::Exact).len()
            + w.instances_with_shape(NameShape::Synonym).len()) as f64;
        let rate = exact / total;
        assert!(
            (rate - w.config.exact_name_rate).abs() < 0.06,
            "exact-ish rate {rate} vs configured {}",
            w.config.exact_name_rate
        );
    }

    #[test]
    fn exact_instances_resolve_in_terminology() {
        let w = tiny_world();
        for id in w.instances_with_shape(NameShape::Exact) {
            let name = w.kb.name(id);
            let hits = w.terminology.ekg.lookup_name(name);
            let gold = w.origins[id].concept.unwrap();
            assert!(hits.contains(&gold), "{name} should resolve to its gold concept");
        }
    }

    #[test]
    fn typo_instances_do_not_resolve_exactly() {
        let w = tiny_world();
        for id in w.instances_with_shape(NameShape::Typo) {
            let name = w.kb.name(id);
            assert!(
                w.terminology.ekg.lookup_name(name).is_empty(),
                "typo name {name:?} collides with a real concept"
            );
        }
    }

    #[test]
    fn unmappable_instances_have_no_gold_concept() {
        let w = tiny_world();
        let unmappable = w.instances_with_shape(NameShape::Unmappable);
        assert!(!unmappable.is_empty());
        for id in unmappable {
            assert_eq!(w.origins[id].concept, None);
        }
    }

    #[test]
    fn triples_answer_treatment_questions() {
        let w = tiny_world();
        let r_treat = w.kb.ontology().lookup_relationship("Drug-treat-Indication").unwrap();
        let r_has =
            w.kb.ontology().lookup_relationship("Indication-hasFinding-Finding").unwrap();
        // Some finding must be reachable drug -> indication -> finding.
        let mut reachable = 0;
        for (drug, _) in w.kb.instances() {
            for ind in w.kb.objects(drug, r_treat) {
                reachable += w.kb.objects(ind, r_has).len();
            }
        }
        assert!(reachable > 0);
    }

    #[test]
    fn context_tags_cover_figure1_contexts() {
        let w = tiny_world();
        assert_eq!(w.tag_of(w.treatment_context()), ContextTag::Treatment);
        assert_eq!(w.tag_of(w.risk_context()), ContextTag::Risk);
    }

    #[test]
    fn unrepresented_findings_exist() {
        let w = tiny_world();
        assert!(!w.unrepresented_findings().is_empty());
    }

    /// The walk `weighted_sample` replaced: every draw reads each weight
    /// through the closure.
    fn sample_reading_each_weight<F: Fn(ExtConceptId) -> f64>(
        rng: &mut StdRng,
        pool: &[ExtConceptId],
        weight: F,
        n: usize,
    ) -> Vec<ExtConceptId> {
        if pool.is_empty() {
            return Vec::new();
        }
        let total: f64 = pool.iter().map(|&c| weight(c)).sum();
        let mut chosen: HashSet<ExtConceptId> = HashSet::new();
        let mut out = Vec::new();
        let budget = n.min(pool.len());
        let mut attempts = 0usize;
        while out.len() < budget && attempts < n * 40 + 100 {
            attempts += 1;
            let mut target = rng.gen::<f64>() * total;
            let mut pick = pool[pool.len() - 1];
            for &c in pool {
                target -= weight(c);
                if target <= 0.0 {
                    pick = c;
                    break;
                }
            }
            if chosen.insert(pick) {
                out.push(pick);
            }
        }
        if out.len() < budget {
            for &c in pool {
                if out.len() >= budget {
                    break;
                }
                if chosen.insert(c) {
                    out.push(c);
                }
            }
        }
        out
    }

    #[test]
    fn weighted_sample_picks_what_the_closure_walk_picks() {
        use medkb_types::Id;
        let pool: Vec<ExtConceptId> =
            (0..300).map(|i| ExtConceptId::from_usize((i * 7) % 300)).collect();
        let zipf = |c: ExtConceptId| 1.0 / ((c.as_usize() + 1) as f64).powf(0.9);
        let with_zeros =
            |c: ExtConceptId| if c.as_usize().is_multiple_of(3) { 0.0 } else { zipf(c) };
        let heavy_head = |c: ExtConceptId| if c.as_usize() == 0 { 1e12 } else { 1e-3 };
        type Weight<'a> = &'a dyn Fn(ExtConceptId) -> f64;
        let cases: [(&str, Weight<'_>, usize); 5] = [
            ("zipf", &zipf, 60),
            ("zero weights", &with_zeros, 150),
            ("n > pool", &zipf, 450),
            ("heavy head", &heavy_head, 25),
            ("empty ask", &zipf, 0),
        ];
        for (case, weight, n) in cases {
            for seed in 0..4 {
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let got = weighted_sample(&mut a, &pool, weight, n);
                let want = sample_reading_each_weight(&mut b, &pool, weight, n);
                assert_eq!(got, want, "{case}, seed {seed}");
                assert_eq!(got.len(), n.min(pool.len()), "{case}");
                // The shared RNG continues from the same state.
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{case}, seed {seed}");
            }
        }
        // The heavy head stalls rejection: one draw, then the uniform fill
        // in pool order.
        let got = weighted_sample(&mut StdRng::seed_from_u64(0), &pool, heavy_head, 25);
        let zero = ExtConceptId::from_usize(0);
        let fill: Vec<ExtConceptId> = pool.iter().copied().filter(|&c| c != zero).take(24).collect();
        assert_eq!((got[0], &got[1..]), (zero, fill.as_slice()));
        assert!(weighted_sample(&mut StdRng::seed_from_u64(0), &[], zipf, 5).is_empty());
    }

    #[test]
    fn determinism() {
        let a = MedWorld::generate(&WorldConfig::tiny(77));
        let b = MedWorld::generate(&WorldConfig::tiny(77));
        assert_eq!(a.kb.instance_count(), b.kb.instance_count());
        for (id, _) in a.kb.instances() {
            assert_eq!(a.kb.name(id), b.kb.name(id));
        }
    }
}
