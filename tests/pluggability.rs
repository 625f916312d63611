//! The external knowledge source is pluggable (§1 names SNOMED CT, UMLS
//! and the Gene Ontology): the whole two-phase pipeline must run unchanged
//! over a GO-shaped terminology with a gene-annotation KB.

use std::collections::HashMap;

use medkb::prelude::*;
use medkb::snomed::go::{generate, GoConfig};

/// A tiny gene-annotation world: genes annotated with GO terms.
fn go_world() -> (Kb, medkb::ekg::Ekg) {
    let terminology = generate(&GoConfig { terms: 600, ..GoConfig::default() });

    let mut ob = OntologyBuilder::new();
    let gene = ob.concept("Gene");
    let annotation = ob.concept("Annotation");
    let term = ob.concept("GoTerm");
    ob.relationship("annotatedWith", gene, annotation);
    ob.relationship("hasTerm", annotation, term);
    let ontology = ob.build().unwrap();

    let mut kb = KbBuilder::new(ontology);
    let onto = kb.ontology();
    let (gc, ac, tc) = (
        onto.lookup_concept("Gene").unwrap(),
        onto.lookup_concept("Annotation").unwrap(),
        onto.lookup_concept("GoTerm").unwrap(),
    );
    let r_ann = kb.ontology().lookup_relationship("Gene-annotatedWith-Annotation").unwrap();
    let r_term = kb.ontology().lookup_relationship("Annotation-hasTerm-GoTerm").unwrap();

    // Every third GO term below depth 2 becomes a KB instance; a few genes
    // annotate them.
    let mut term_instances = Vec::new();
    for (i, c) in terminology.concepts().enumerate() {
        if terminology.depth(c) >= 2 && i % 3 == 0 {
            term_instances.push(kb.instance(terminology.name(c), tc));
        }
    }
    assert!(term_instances.len() > 20, "enough annotated terms");
    for g in 0..12 {
        let gene_row = kb.instance(&format!("gene brca{g}"), gc);
        for k in 0..3 {
            let ann = kb.instance(&format!("annotation {g}.{k}"), ac);
            let target = term_instances[(g * 7 + k * 13) % term_instances.len()];
            kb.triple(gene_row, r_ann, ann);
            kb.triple(ann, r_term, target);
        }
    }
    (kb.build().unwrap(), terminology)
}

#[test]
fn full_pipeline_runs_over_a_go_terminology() {
    let (kb, terminology) = go_world();
    let counts = MentionCounts::from_direct(HashMap::new(), HashMap::new(), 1);
    let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
    let ingested = ingest(&kb, terminology.clone(), &counts, None, &config).unwrap();

    // Algorithm 1 artifacts exist over the foreign terminology.
    assert_eq!(ingested.contexts.len(), 2);
    assert!(!ingested.flagged.is_empty());
    assert!(!ingested.shortcuts.is_empty(), "GO's multi-parent DAG densifies too");

    // Algorithm 2: relax an *unannotated* GO term to annotated relatives.
    let relaxer = QueryRelaxer::new(ingested, config);
    let query = terminology
        .concepts()
        .find(|&c| {
            terminology.depth(c) >= 2
                && !relaxer.ingested().flagged.contains(&c)
                && terminology
                    .neighborhood(c, 4, &[])
                    .iter()
                    .any(|(n, _)| relaxer.ingested().flagged.contains(n))
        })
        .expect("an unannotated term near annotated ones exists");
    let res = relaxer
        .relax(terminology.name(query), None, 5)
        .expect("relaxation succeeds over GO");
    assert!(!res.answers.is_empty());
    for a in &res.answers {
        assert!(relaxer.ingested().flagged.contains(&a.concept));
        assert!((0.0..=1.0).contains(&a.score));
    }
}

#[test]
fn go_edit_mapping_handles_go_style_typos() {
    let (kb, terminology) = go_world();
    let counts = MentionCounts::from_direct(HashMap::new(), HashMap::new(), 1);
    let config =
        RelaxConfig { mapping: MappingMethod::edit_tau2(), ..RelaxConfig::default() };
    let ingested = ingest(&kb, terminology.clone(), &counts, None, &config).unwrap();
    let relaxer = QueryRelaxer::new(ingested, config);
    // Typo in a real GO-like term name still resolves.
    let sample = relaxer
        .ingested()
        .flagged
        .iter()
        .map(|c| relaxer.ingested().ekg.name(c).to_string())
        .find(|n| n.len() > 10)
        .expect("a long term name");
    let mut typoed = sample.clone();
    typoed.remove(sample.len() / 2);
    let resolved = relaxer.resolve_term(&typoed).expect("edit matcher bridges the typo");
    assert_eq!(relaxer.ingested().ekg.name(resolved), sample);
}
