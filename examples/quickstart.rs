//! Quickstart: build a small world around the paper's own worked fragment
//! and ask one relaxed question.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::collections::HashMap;

use medkb::prelude::*;

fn main() -> Result<()> {
    // 1. The external knowledge source — the exact fragment of SNOMED CT
    //    the paper uses in Figures 4–6 (pain, kidney-disease, respiratory
    //    and body-temperature subtrees).
    let fragment = medkb::snomed::figures::paper_fragment();
    println!("terminology: {}", EkgStats::compute(&fragment.ekg));

    // 2. A miniature medical KB. Only some conditions exist as instances.
    let mut ob = OntologyBuilder::new();
    let drug = ob.concept("Drug");
    let indication = ob.concept("Indication");
    let finding = ob.concept("Finding");
    ob.relationship("treat", drug, indication);
    ob.relationship("hasFinding", indication, finding);
    let ontology = ob.build()?;
    let mut kb = KbBuilder::new(ontology);
    let fc = kb.ontology().lookup_concept("Finding").unwrap();
    for name in &fragment.flagged {
        kb.instance(name, fc);
    }
    let kb = kb.build()?;
    println!("KB: {} instances", kb.instance_count());

    // 3. Offline ingestion (Algorithm 1): contexts, mappings, frequencies,
    //    shortcut edges.
    let counts = MentionCounts::from_direct(HashMap::new(), HashMap::new(), 1);
    let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
    let ingested = ingest(&kb, fragment.ekg.clone(), &counts, None, &config)?;
    println!(
        "ingested: {} mappings, {} flagged concepts, {} shortcut edges, {} contexts",
        ingested.mappings.len(),
        ingested.flagged.len(),
        ingested.shortcuts.len(),
        ingested.contexts.len()
    );

    // 4. Online relaxation (Algorithm 2): "pyelectasia" has no KB entry;
    //    query relaxation returns the semantically related entries that do
    //    exist — the paper's Scenario 1 (Figure 7).
    let relaxer = QueryRelaxer::new(ingested, config);
    let result = relaxer.relax("pyelectasia", None, 5)?;
    println!(
        "\nquery term \"pyelectasia\" resolved to {:?} (radius used: {})",
        relaxer.ingested().ekg.name(result.query_concept),
        result.radius_used
    );
    for answer in &result.answers {
        println!(
            "  {:.3}  {} ({} instance(s), {} hop(s))",
            answer.score,
            relaxer.ingested().ekg.name(answer.concept),
            answer.instances.len(),
            answer.hops
        );
    }
    Ok(())
}
