//! Phase timing for scaled world generation (`--world-scale N`).
//!
//! Splits the cost of building the benchmark world of
//! `scaled_world_and_corpus` into its stages — terminology generation,
//! oracle derivation, KB assembly, corpus generation — each timed once, so
//! superlinear growth at SNOMED scale is attributable to a stage instead
//! of one opaque wall-clock number (EXPERIMENTS.md, 350k scaling tables).
//! The last line is the world's digest (`world_digest`), which a change
//! meant to keep the world must leave unchanged:
//!
//! ```text
//! cargo run --release -p medkb-bench --bin world_profile -- --world-scale 350000
//! ```

use std::time::Instant;

use medkb_bench::{scaled_world_config, world_digest, world_scale_from_args};
use medkb_corpus::CorpusGenerator;
use medkb_snomed::{GeneratedTerminology, MedWorld, Oracle};

fn main() {
    let (config, corpus_config) = scaled_world_config(world_scale_from_args());

    let t = Instant::now();
    let term = GeneratedTerminology::generate(&config.snomed);
    println!("terminology_s: {:.2}  ({} concepts)", t.elapsed().as_secs_f64(), term.ekg.len());

    let t = Instant::now();
    let oracle = Oracle::derive(&term, config.oracle_seed());
    println!("oracle_s: {:.2}", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let world = MedWorld::assemble(term, oracle, &config);
    println!(
        "kb_assembly_s: {:.2}  ({} instances)",
        t.elapsed().as_secs_f64(),
        world.kb.instance_count()
    );

    let t = Instant::now();
    let corpus = CorpusGenerator::new(&world.terminology, &world.oracle).generate(&corpus_config);
    println!("corpus_s: {:.2}  ({} docs)", t.elapsed().as_secs_f64(), corpus.len());

    println!("digest: {:#018x}", world_digest(&world, &corpus));
}
