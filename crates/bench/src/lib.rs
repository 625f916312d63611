//! Experiment regeneration and benchmarking support.
//!
//! Binaries (one per published table/figure — see DESIGN.md §4):
//!
//! * `table1` — mapping-method accuracy (paper Table 1),
//! * `table2` — relaxation effectiveness (paper Table 2),
//! * `table3` — simulated user study (paper Table 3),
//! * `figures` — the worked numbers of Figures 4, 5 and 6,
//! * `ablation` — the design-choice ablations of DESIGN.md §5.

#![warn(missing_docs)]

use medkb_core::{ingest, MappingMethod, ObsConfig, QueryRelaxer, RelaxConfig};
use medkb_corpus::{Corpus, CorpusConfig, CorpusGenerator, MentionCounts};
use medkb_eval::pipeline::{EvalConfig, EvalStack};
use medkb_snomed::{Hierarchy, MedWorld, SnomedConfig, WorldConfig};
use medkb_types::{ContextId, ExtConceptId, Id};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed all experiment binaries share (results are deterministic).
pub const EXPERIMENT_SEED: u64 = 2020;

/// Parse the common flags of the table binaries: `--quick` selects the
/// reduced world, `--metrics` attaches a shared metrics registry to the
/// stack so [`print_metrics_section`] can report it after the tables.
pub fn stack_from_args() -> EvalStack {
    let metrics = std::env::args().any(|a| a == "--metrics");
    let quick = std::env::args().any(|a| a == "--quick");
    let mut config = if quick {
        eprintln!("[medkb-bench] --quick: reduced world (shapes only)");
        EvalConfig::tiny(EXPERIMENT_SEED)
    } else {
        eprintln!("[medkb-bench] building paper-scale stack (seed {EXPERIMENT_SEED})…");
        EvalConfig::paper(EXPERIMENT_SEED)
    };
    if metrics {
        config.relax.obs = ObsConfig::enabled();
    }
    EvalStack::build(config).expect("stack builds")
}

/// Append the eval report's pipeline-metrics section when `--metrics`
/// attached a registry to the stack ([`stack_from_args`]); off by default
/// so the table outputs stay byte-reproducible run to run (the full
/// snapshot carries wall-clock timer values).
pub fn print_metrics_section(stack: &EvalStack) {
    if let Some(registry) = stack.config.relax.obs.registry() {
        println!("\n{}", medkb_eval::report::render_metrics(&registry.snapshot()));
    }
}

/// The 4k-concept relaxation benchmark world of the `bench_json` binary.
pub struct RelaxBenchWorld {
    /// Relaxer over the ingested world.
    pub relaxer: QueryRelaxer,
    /// 32 popular flagged clinical-finding query concepts.
    pub queries: Vec<ExtConceptId>,
    /// The `Indication-hasFinding-Finding` (treatment) context.
    pub context: ContextId,
}

/// The default concept count of the benchmark world (the tier-1 fast path).
pub const DEFAULT_WORLD_SCALE: usize = 4_000;

/// Parse the `--world-scale N` / `--world-scale=N` flag shared by the
/// benchmark binaries. The default keeps the 4k tier-1 smoke path fast;
/// full-scale runs pass `--world-scale 350000` to benchmark at SNOMED CT's
/// concept count.
pub fn world_scale_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix("--world-scale=") {
            return v.parse().expect("--world-scale=N takes an integer");
        }
        if a == "--world-scale" {
            let v = args.get(i + 1).expect("--world-scale needs a value");
            return v.parse().expect("--world-scale N takes an integer");
        }
    }
    DEFAULT_WORLD_SCALE
}

/// Generated world plus curation corpus at an arbitrary concept count.
///
/// `scaled_world_and_corpus(4_000)` is exactly the classic benchmark world
/// (same seeds, same instance and document counts), so the committed 4k
/// baselines stay comparable. Other scales keep the SNOMED-like shape —
/// multi-parent DAG, deep modifier chains, Zipf popularity driving the
/// corpus — while growing the satellite populations sublinearly
/// (`√(concepts/4000)`): KB instances and curation documents are workload
/// parameters, not graph structure, and linear growth would make the
/// 350k-concept world's *corpus* the benchmark bottleneck instead of the
/// 87×-larger graph the scale run is about. Worlds above 100k concepts
/// deepen the hierarchy cap to 20 levels (SNOMED's long modifier chains);
/// the branching factor stays in the SNOMED-like single digits.
pub fn scaled_world_and_corpus(concepts: usize) -> (MedWorld, Corpus) {
    let (config, corpus_config) = scaled_world_config(concepts);
    let world = MedWorld::generate(&config);
    let corpus = CorpusGenerator::new(&world.terminology, &world.oracle).generate(&corpus_config);
    (world, corpus)
}

/// The world and corpus configurations [`scaled_world_and_corpus`]
/// generates from at `concepts` concepts.
pub fn scaled_world_config(concepts: usize) -> (WorldConfig, CorpusConfig) {
    let f = (concepts as f64 / 4_000.0).sqrt();
    let scaled = |base: usize| -> usize { ((base as f64) * f).round() as usize };
    let config = WorldConfig {
        snomed: SnomedConfig {
            concepts,
            seed: 52,
            max_depth: if concepts > 100_000 { 20 } else { SnomedConfig::default().max_depth },
            ..SnomedConfig::default()
        },
        seed: 53,
        finding_instances: scaled(900),
        drug_instances: scaled(200),
        ..WorldConfig::default()
    };
    let corpus = CorpusConfig { seed: 54, docs: scaled(250), ..CorpusConfig::default() };
    (config, corpus)
}

/// A 64-bit FNV-1a digest of a generated world and its corpus: every
/// concept's name, parent list and synonyms, every bit of its
/// `ConceptMeta`, each KB instance's name, ontology concept and gold
/// origin, the triple count, and the corpus vocabulary, sentence tags and
/// tokens. `tests/world_digest.rs` pins it for the 4k and 20k worlds, so a
/// generator change that alters the world fails there; `world_profile`
/// prints it at any scale.
pub fn world_digest(world: &MedWorld, corpus: &Corpus) -> u64 {
    struct Fnv(u64);
    impl Fnv {
        fn bytes(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        fn u64(&mut self, v: u64) {
            self.bytes(&v.to_le_bytes());
        }
        fn str(&mut self, s: &str) {
            self.u64(s.len() as u64);
            self.bytes(s.as_bytes());
        }
        fn id(&mut self, id: Option<u32>) {
            self.u64(id.map_or(u64::MAX, u64::from));
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let (ekg, meta) = (&world.terminology.ekg, &world.terminology.meta);
    h.u64(ekg.len() as u64);
    for c in ekg.concepts() {
        h.str(ekg.name(c));
        let parents = ekg.parents(c).targets();
        h.u64(parents.len() as u64);
        for p in parents {
            h.id(Some(p.as_u32()));
        }
        h.u64(ekg.synonyms(c).count() as u64);
        for syn in ekg.synonyms(c) {
            h.str(syn);
        }
        let m = &meta[c];
        h.u64(m.hierarchy as u64);
        for x in m.latent {
            h.u64(u64::from(x.to_bits()));
        }
        h.u64(m.popularity.to_bits());
        h.id(m.antonym_of.map(Id::as_u32));
    }
    h.u64(world.kb.instance_count() as u64);
    for (id, inst) in world.kb.instances() {
        h.str(&inst.name);
        h.id(Some(inst.concept.as_u32()));
        let origin = world.origins[id];
        h.id(origin.concept.map(Id::as_u32));
        h.u64(origin.shape as u64);
    }
    h.u64(world.kb.triple_count() as u64);
    h.u64(corpus.vocab.len() as u64);
    for (_, token) in corpus.vocab.iter() {
        h.str(token);
    }
    h.u64(corpus.docs.len() as u64);
    for doc in &corpus.docs {
        h.u64(doc.sentences.len() as u64);
        for sentence in &doc.sentences {
            h.u64(sentence.tag.index() as u64);
            h.u64(sentence.tokens.len() as u64);
            for t in &sentence.tokens {
                h.id(Some(t.as_u32()));
            }
        }
    }
    h.0
}

/// A Zipf-skewed query stream of length `len` over `queries`: the rank-`r`
/// entry is drawn with probability ∝ 1/(r+1)^`exponent`, the head-heavy
/// shape of real medical query logs. Deterministic in `seed`, so benches
/// built on it are reproducible run to run.
///
/// Pruning- and cache-sensitive benchmarks want this shape rather than a
/// round-robin sweep: a skewed stream revisits hot queries whose candidate
/// rings the bounded scan terminates early, which is exactly the regime the
/// latency claims are about.
pub fn zipf_query_stream(
    queries: &[ExtConceptId],
    len: usize,
    exponent: f64,
    seed: u64,
) -> Vec<ExtConceptId> {
    assert!(!queries.is_empty(), "zipf stream needs a non-empty query set");
    let weights: Vec<f64> =
        (0..queries.len()).map(|r| 1.0 / ((r + 1) as f64).powf(exponent)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let u: f64 = rng.gen();
            let idx = cdf.partition_point(|&c| c < u).min(queries.len() - 1);
            queries[idx]
        })
        .collect()
}

/// The relaxation benchmark world at `concepts` concepts (see
/// [`scaled_world_and_corpus`] for how satellite populations scale).
pub fn scaled_relaxation_bench_world(concepts: usize) -> RelaxBenchWorld {
    let (world, corpus) = scaled_world_and_corpus(concepts);
    let counts = MentionCounts::count(&corpus, &world.terminology.ekg);
    let relax_config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
    let out = ingest(&world.kb, world.terminology.ekg.clone(), &counts, None, &relax_config)
        .expect("ingest");
    let queries: Vec<ExtConceptId> = world
        .terminology
        .of_hierarchy_below(Hierarchy::ClinicalFinding, 3)
        .into_iter()
        .filter(|c| out.flagged.contains(c))
        .take(32)
        .collect();
    let relaxer = QueryRelaxer::new(out, relax_config);
    let context = relaxer
        .ingested()
        .contexts
        .iter()
        .find(|s| s.label == "Indication-hasFinding-Finding")
        .expect("treatment context")
        .id;
    RelaxBenchWorld { relaxer, queries, context }
}
