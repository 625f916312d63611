//! Determinism pins for the staged parallel ingestion pipeline.
//!
//! The optimization contract of DESIGN.md §9 is that the staged pipeline
//! (`ingest`) and the sharded mention counter (`count_with_threads`) are
//! bit-identical to the preserved sequential references (`ingest_reference`,
//! `count_reference`) for *every* thread count — the shard boundaries move,
//! the outputs never do. These tests pin that over randomized worlds.
//! `clamp_to_cores` is off so the multi-way sharded code paths genuinely
//! run even on single-core hosts.

use medkb_core::{
    ingest, ingest_reference, MappingMethod, ParallelConfig, RelaxConfig,
};
use medkb_corpus::{Corpus, CorpusConfig, CorpusGenerator, MentionCounts};
use medkb_snomed::{MedWorld, WorldConfig};
use proptest::prelude::*;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn world_and_corpus(seed: u64) -> (MedWorld, Corpus) {
    let world = MedWorld::generate(&WorldConfig::tiny(seed));
    let corpus = CorpusGenerator::new(&world.terminology, &world.oracle)
        .generate(&CorpusConfig::tiny(seed.wrapping_mul(3) ^ 0x9E37));
    (world, corpus)
}

fn check_world(world: &MedWorld, corpus: &Corpus, mapping: MappingMethod) {
    let ekg = &world.terminology.ekg;
    let reference_counts = MentionCounts::count_reference(corpus, ekg);
    let base = RelaxConfig { mapping, ..RelaxConfig::default() };
    let reference = ingest_reference(&world.kb, ekg.clone(), &reference_counts, None, &base)
        .expect("reference ingest");

    for threads in THREAD_SWEEP {
        let counts = MentionCounts::count_with_threads(corpus, ekg, threads);
        assert_eq!(counts, reference_counts, "counts diverged at {threads} threads");

        let cfg = RelaxConfig {
            parallel: ParallelConfig {
                clamp_to_cores: false,
                ..ParallelConfig::with_threads(threads)
            },
            ..base.clone()
        };
        let out = ingest(&world.kb, ekg.clone(), &counts, None, &cfg).expect("staged ingest");
        assert_eq!(out.mappings, reference.mappings, "mappings diverged at {threads} threads");
        assert_eq!(out.flagged, reference.flagged, "flagged diverged at {threads} threads");
        assert_eq!(
            out.shortcuts.list(),
            reference.shortcuts.list(),
            "shortcuts diverged at {threads} threads"
        );
        assert_eq!(out.freqs, reference.freqs, "frequencies diverged at {threads} threads");
        assert_eq!(out.ekg, reference.ekg, "graph diverged at {threads} threads");
    }
}

proptest! {
    // World generation dominates the cost, so a handful of random worlds
    // with the full 1/2/4/8 sweep each gives broad coverage cheaply.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn prop_parallel_ingest_matches_reference(seed in 0u64..10_000) {
        let (world, corpus) = world_and_corpus(seed);
        check_world(&world, &corpus, MappingMethod::Exact);
    }
}

/// Edit-distance mapping exercises the candidate prefilter inside the
/// sharded mapping stage (typo'd instance names map through the DP).
#[test]
fn parallel_ingest_matches_reference_with_edit_mapping() {
    let (world, corpus) = world_and_corpus(417);
    check_world(&world, &corpus, MappingMethod::edit_tau2());
}
