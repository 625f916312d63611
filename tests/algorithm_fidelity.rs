//! Cross-crate checks that the implementation follows Algorithms 1 and 2
//! line by line.

use std::collections::HashSet;

use medkb::corpus::{CorpusConfig, CorpusGenerator, MentionCounts};
use medkb::prelude::*;

struct Fixture {
    world: MedWorld,
    counts: MentionCounts,
    config: RelaxConfig,
}

impl Fixture {
    fn new(seed: u64) -> Self {
        let world = MedWorld::generate(&WorldConfig::tiny(seed));
        let corpus = CorpusGenerator::new(&world.terminology, &world.oracle)
            .generate(&CorpusConfig::tiny(seed ^ 0x55));
        let counts = MentionCounts::count(&corpus, &world.terminology.ekg);
        let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
        Self { world, counts, config }
    }

    fn ingest(&self) -> IngestOutput {
        ingest(
            &self.world.kb,
            self.world.terminology.ekg.clone(),
            &self.counts,
            None,
            &self.config,
        )
        .expect("ingest succeeds")
    }
}

#[test]
fn algorithm1_contexts_are_the_relationship_set() {
    let f = Fixture::new(201);
    let out = f.ingest();
    // Lines 1–4: one context per relationship, carrying domain and range.
    assert_eq!(out.contexts.len(), f.world.kb.ontology().relationship_count());
    for ctx in &out.contexts {
        let rel = f.world.kb.ontology().relationship(ctx.relationship);
        assert_eq!(ctx.domain, rel.domain);
        assert_eq!(ctx.range, rel.range);
    }
}

#[test]
fn algorithm1_fec_is_exactly_the_mapped_concepts() {
    let f = Fixture::new(202);
    let out = f.ingest();
    // Lines 5–11: FEC = { A : some instance maps to A }.
    let mapped: HashSet<_> = out.mappings.iter().map(|(_, c)| c).collect();
    assert_eq!(out.flagged.iter().collect::<HashSet<_>>(), mapped);
    assert_eq!(out.flagged.len(), mapped.len());
    // Reverse index is consistent.
    for (inst, concept) in out.mappings.iter() {
        assert!(out.instances(concept).contains(&inst));
    }
}

#[test]
fn algorithm1_shortcuts_satisfy_all_three_conditions() {
    let f = Fixture::new(203);
    let out = f.ingest();
    let original = &f.world.terminology.ekg;
    let mut checked = 0;
    for a in out.ekg.concepts() {
        for edge in out.ekg.parents(a).iter() {
            if !edge.shortcut {
                continue;
            }
            checked += 1;
            let b = edge.to;
            // (1) not directly connected in the original graph,
            assert!(
                !original.parents(a).iter().any(|e| e.to == b),
                "{} -> {} was already a direct edge",
                original.name(a),
                original.name(b)
            );
            // (2) A is a descendant of B,
            assert!(original.is_ancestor(b, a));
            // (3) at least one endpoint is flagged,
            assert!(out.flagged.contains(&a) || out.flagged.contains(&b));
            // and the edge carries the original shortest-path distance.
            assert_eq!(
                original.distance_to_ancestor(a, b),
                Some(edge.weight),
                "weight must be |shortestPath(A, B)|"
            );
        }
    }
    assert!(checked > 0, "the customization should add edges");
    assert_eq!(checked, out.shortcuts_added);
}

#[test]
fn algorithm1_frequencies_monotone_up_native_edges() {
    let f = Fixture::new(204);
    let out = f.ingest();
    // Eq. 2: a parent's rolled-up frequency includes each native child's.
    for c in out.ekg.concepts() {
        for p in out.ekg.native_parents(c) {
            for tag in [ContextTag::Treatment, ContextTag::Risk] {
                assert!(
                    out.freqs.freq(p, tag) >= out.freqs.freq(c, tag) - 1e-12,
                    "freq({}) < freq(child {}) in {tag:?}",
                    out.ekg.name(p),
                    out.ekg.name(c)
                );
            }
        }
    }
}

#[test]
fn algorithm2_results_are_flagged_within_radius_sorted() {
    let f = Fixture::new(205);
    let out = f.ingest();
    let relaxer = QueryRelaxer::new(out, f.config.clone());
    let ctx = f.world.treatment_context();
    let queries: Vec<ExtConceptId> =
        relaxer.ingested().flagged.iter().take(12).collect();
    for q in queries {
        let res = relaxer.relax_concept(q, Some(ctx), 10).expect("relax");
        let reachable: HashSet<ExtConceptId> = relaxer
            .ingested()
            .ekg
            .neighborhood(q, res.radius_used)
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        let mut last = f64::INFINITY;
        for ans in &res.answers {
            assert!(relaxer.ingested().flagged.contains(&ans.concept), "unflagged result");
            assert!(reachable.contains(&ans.concept), "outside the search radius");
            assert_ne!(ans.concept, q, "the query concept is not an answer");
            assert!(ans.score <= last + 1e-12, "not sorted by score");
            assert!(!ans.instances.is_empty(), "answers carry their instances");
            last = ans.score;
        }
    }
}

#[test]
fn algorithm2_k_bounds_and_dynamic_radius() {
    let f = Fixture::new(206);
    let out = f.ingest();
    let relaxer = QueryRelaxer::new(out, f.config.clone());
    let q = relaxer.ingested().flagged.iter().next().unwrap();
    let small = relaxer.relax_concept(q, None, 2).unwrap();
    let large = relaxer.relax_concept(q, None, 20).unwrap();
    assert!(small.instances().len() <= large.instances().len());
    // The loop stops adding whole answers once k instances are reached:
    // dropping the last answer must leave fewer than k instances.
    if small.answers.len() > 1 {
        let without_last: usize =
            small.answers[..small.answers.len() - 1].iter().map(|a| a.instances.len()).sum();
        assert!(without_last < 2);
    }
}

#[test]
fn relaxation_is_deterministic() {
    let f = Fixture::new(207);
    let relaxer = QueryRelaxer::new(f.ingest(), f.config.clone());
    let relaxer2 = QueryRelaxer::new(f.ingest(), f.config.clone());
    let ctx = f.world.risk_context();
    for q in relaxer.ingested().flagged.iter().take(8) {
        let a = relaxer.relax_concept(q, Some(ctx), 10).unwrap();
        let b = relaxer2.relax_concept(q, Some(ctx), 10).unwrap();
        assert_eq!(a, b);
    }
}

#[test]
fn ablation_flags_change_rankings() {
    let f = Fixture::new(208);
    let out = f.ingest();
    let base = QueryRelaxer::new(out.clone(), f.config.clone());
    let no_path = QueryRelaxer::new(
        out.clone(),
        RelaxConfig { use_path_weight: false, ..f.config.clone() },
    );
    let heavy_gen =
        QueryRelaxer::new(out.clone(), RelaxConfig { w_gen: 0.5, ..f.config.clone() });
    let ctx = f.world.treatment_context();
    let mut any_diff_path = false;
    let mut any_diff_wgen = false;
    for q in out.flagged.iter().take(20) {
        let a = base.relax_concept(q, Some(ctx), 10).unwrap().concepts();
        let b = no_path.relax_concept(q, Some(ctx), 10).unwrap().concepts();
        let c = heavy_gen.relax_concept(q, Some(ctx), 10).unwrap().concepts();
        any_diff_path |= a != b;
        any_diff_wgen |= a != c;
    }
    assert!(any_diff_path, "disabling Eq. 4 must change some ranking");
    assert!(any_diff_wgen, "w_gen = 0.5 must change some ranking");
}
