//! Run Algorithm 1 over a generated world and report what it produced:
//! context space, mapping coverage per name shape, frequency sanity, and
//! the sparsity customization.
//!
//! ```text
//! cargo run --release --example ingestion_report
//! ```

use medkb::corpus::{CorpusConfig, CorpusGenerator, CorpusStats, MentionCounts};
use medkb::prelude::*;
use medkb::snomed::NameShape;

fn main() -> Result<()> {
    let world = MedWorld::generate(&WorldConfig::tiny(2020));
    let corpus =
        CorpusGenerator::new(&world.terminology, &world.oracle).generate(&CorpusConfig::tiny(21));
    let counts = MentionCounts::count(&corpus, &world.terminology.ekg);

    println!("terminology: {}", EkgStats::compute(&world.terminology.ekg));
    println!(
        "KB: {} instances, {} triples; corpus: {} documents, {} tokens",
        world.kb.instance_count(),
        world.kb.triple_count(),
        corpus.len(),
        corpus.token_count()
    );
    let cs = CorpusStats::compute(&corpus);
    println!(
        "corpus shape: {} types, mean sentence {:.1} tokens, Zipf exponent {:.2}\n",
        cs.types, cs.mean_sentence_len, cs.zipf_exponent
    );

    let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
    let out = ingest(&world.kb, world.terminology.ekg.clone(), &counts, None, &config)?;

    println!("contexts generated: {} (one per ontology relationship)", out.contexts.len());
    for ctx in out.contexts.iter().take(6) {
        println!("  {} → tag {:?}", ctx.label, out.tag(ctx.id));
    }
    println!("  …\n");

    println!("mappings: {} of {} instances", out.mappings.len(), world.kb.instance_count());
    for shape in
        [NameShape::Exact, NameShape::Synonym, NameShape::Typo, NameShape::Reworded, NameShape::Unmappable]
    {
        let of_shape = world.instances_with_shape(shape);
        let mapped = of_shape.iter().filter(|i| out.mappings.contains_key(**i)).count();
        println!("  {shape:?}: {mapped}/{} mapped (exact matcher)", of_shape.len());
    }

    println!(
        "\ncustomization: {} shortcut edges added; graph now {}",
        out.shortcuts_added,
        EkgStats::compute(&out.ekg)
    );

    // Frequency sanity: the root rolls up to normalized frequency 1.
    let root = out.ekg.root();
    println!(
        "\nfrequencies: root normalized freq (Treatment) = {:.3}, IC = {:.3}",
        out.freqs.freq(root, ContextTag::Treatment),
        out.freqs.ic(root, Some(ContextTag::Treatment))
    );
    let sample = out.flagged.iter().next().expect("flagged concept exists");
    println!(
        "sample flagged concept {:?}: freq(Treatment) = {:.2e}, freq(Risk) = {:.2e}, \
         intrinsic IC = {:.3}",
        out.ekg.name(sample),
        out.freqs.freq(sample, ContextTag::Treatment),
        out.freqs.freq(sample, ContextTag::Risk),
        out.freqs.intrinsic_ic(sample)
    );
    Ok(())
}
