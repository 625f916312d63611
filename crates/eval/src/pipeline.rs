//! One-stop construction of the experimental stack.
//!
//! Everything expensive — world generation, corpus generation, mention
//! counting, embedding training, ingestion — happens once in
//! [`EvalStack::build`] and is shared by the Table 1/2/3 evaluators, the
//! examples, and the benchmarks.

use std::sync::Arc;

use medkb_core::{ingest, IngestOutput, MappingMethod, QueryRelaxer, RelaxConfig};
use medkb_corpus::{Corpus, CorpusConfig, CorpusGenerator, MentionCounts};
use medkb_embed::{SgnsConfig, SifModel, WordVectors};
use medkb_snomed::{MedWorld, WorldConfig};
use medkb_types::Result;

/// Configuration of the full stack.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// World generation parameters.
    pub world: WorldConfig,
    /// In-domain corpus parameters.
    pub corpus: CorpusConfig,
    /// Embedding training parameters (in-domain).
    pub sgns: SgnsConfig,
    /// Out-of-domain corpus size (for the pre-trained baseline).
    pub ood_docs: usize,
    /// Base relaxation configuration (mapping method is varied by the
    /// evaluators).
    pub relax: RelaxConfig,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            world: WorldConfig::default(),
            corpus: CorpusConfig::default(),
            sgns: SgnsConfig::default(),
            ood_docs: 800,
            relax: RelaxConfig::default(),
        }
    }
}

impl EvalConfig {
    /// A fast configuration for unit tests: small world, small corpus,
    /// quick embeddings.
    pub fn tiny(seed: u64) -> Self {
        Self {
            world: WorldConfig::tiny(seed),
            corpus: CorpusConfig::tiny(seed ^ 0x11),
            sgns: SgnsConfig::tiny(seed ^ 0x22),
            ood_docs: 150,
            relax: RelaxConfig::default(),
        }
    }

    /// The paper-scale configuration used by the benchmark binaries.
    pub fn paper(seed: u64) -> Self {
        Self {
            world: WorldConfig {
                seed,
                snomed: medkb_snomed::SnomedConfig {
                    seed: seed ^ 0xA1,
                    ..medkb_snomed::SnomedConfig::default()
                },
                ..WorldConfig::default()
            },
            corpus: CorpusConfig { seed: seed ^ 0xB2, ..CorpusConfig::default() },
            sgns: SgnsConfig { seed: seed ^ 0xC3, epochs: 4, ..SgnsConfig::default() },
            ood_docs: 800,
            relax: RelaxConfig::default(),
        }
    }
}

/// The shared experimental stack.
pub struct EvalStack {
    /// The generated world (terminology, oracle, KB, gold data).
    pub world: MedWorld,
    /// In-domain corpus.
    pub corpus: Corpus,
    /// Mention counts of the in-domain corpus against the terminology.
    pub counts: MentionCounts,
    /// SIF model trained on the in-domain corpus.
    pub sif_trained: Arc<SifModel>,
    /// SIF model trained on the out-of-domain corpus (the "pre-trained
    /// biomedical vectors" stand-in).
    pub sif_pretrained: Arc<SifModel>,
    /// Ingestion output with the default (embedding) mapping.
    pub ingested: IngestOutput,
    /// The configuration the stack was built from.
    pub config: EvalConfig,
}

impl EvalStack {
    /// Build the full stack.
    pub fn build(config: EvalConfig) -> Result<Self> {
        let threads = config.relax.parallel.effective_threads();
        // One registry (when configured) observes every stage of the build:
        // mention counting, SGNS training, and ingestion all record into
        // `config.relax.obs`.
        let obs = config.relax.obs.registry();
        let world = MedWorld::generate(&config.world);
        let generator = CorpusGenerator::new(&world.terminology, &world.oracle);
        let corpus = generator.generate(&config.corpus);
        let counts = MentionCounts::count_with_threads_obs(
            &corpus,
            &world.terminology.ekg,
            threads,
            obs,
        );

        let wv = WordVectors::train_with_threads_obs(&corpus, &config.sgns, threads, obs);
        let sif_trained = Arc::new(SifModel::fit(wv, &corpus, 1e-3));
        let ood = CorpusGenerator::out_of_domain(config.sgns.seed ^ 0x77, config.ood_docs);
        let wv_ood = WordVectors::train_with_threads_obs(&ood, &config.sgns, threads, obs);
        let sif_pretrained = Arc::new(SifModel::fit(wv_ood, &ood, 1e-3));

        let ingested = ingest(
            &world.kb,
            world.terminology.ekg.clone(),
            &counts,
            Some(sif_trained.clone()),
            &config.relax,
        )?;

        Ok(Self { world, corpus, counts, sif_trained, sif_pretrained, ingested, config })
    }

    /// A relaxer over the shared ingestion with the given runtime
    /// configuration (the ingestion-time knobs — mapping, shortcuts,
    /// tf-idf, frequency mode — are fixed by the stack).
    pub fn relaxer(&self, config: RelaxConfig) -> QueryRelaxer {
        QueryRelaxer::new(self.ingested.clone(), config)
    }

    /// Run a fresh ingestion with a different mapping method (Table 1
    /// compares them).
    pub fn ingest_with(&self, mapping: MappingMethod) -> Result<IngestOutput> {
        self.ingest_with_config(&RelaxConfig { mapping, ..self.config.relax.clone() })
    }

    /// Run a fresh ingestion under an arbitrary configuration (the
    /// ablation harness varies ingest-time knobs: shortcuts, tf-idf,
    /// frequency mode).
    pub fn ingest_with_config(&self, config: &RelaxConfig) -> Result<IngestOutput> {
        let sif = match config.mapping {
            MappingMethod::Embedding { .. } => Some(self.sif_trained.clone()),
            _ => None,
        };
        ingest(&self.world.kb, self.world.terminology.ekg.clone(), &self.counts, sif, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_builds_end_to_end() {
        let stack = EvalStack::build(EvalConfig::tiny(101)).unwrap();
        assert!(stack.world.kb.instance_count() > 50);
        assert!(!stack.ingested.mappings.is_empty());
        assert!(!stack.ingested.shortcuts.is_empty());
        assert!(stack.sif_trained.vectors().vocab_size() > 50);
    }

    #[test]
    fn relaxer_answers_a_query() {
        let stack = EvalStack::build(EvalConfig::tiny(102)).unwrap();
        let relaxer = stack.relaxer(stack.config.relax.clone());
        // Use a mapped concept directly.
        let (inst, concept) = stack.ingested.mappings.iter().next().unwrap();
        let _ = inst;
        let res = relaxer
            .relax_concept(concept, Some(stack.world.treatment_context()), 10)
            .unwrap();
        assert!(!res.answers.is_empty());
    }

    #[test]
    fn ingest_with_other_mapping_differs() {
        let stack = EvalStack::build(EvalConfig::tiny(103)).unwrap();
        let exact = stack.ingest_with(MappingMethod::Exact).unwrap();
        let embed = &stack.ingested;
        // The embedding mapper should map at least as many instances.
        assert!(embed.mappings.len() >= exact.mappings.len());
    }
}
