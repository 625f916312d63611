//! Offline external knowledge source ingestion (Algorithm 1, §5.1).
//!
//! [`ingest`] runs a staged pipeline whose expensive stages — instance
//! mapping, the reachability closure, per-tag frequency rollups, and
//! shortcut discovery — shard over `config.parallel.threads` scoped
//! workers with bit-identical outputs for every thread count.
//! [`ingest_reference`] preserves the original single-pass sequential
//! implementation as the exactness oracle (DESIGN.md §9).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use medkb_corpus::MentionCounts;
use medkb_ekg::{Ekg, ReachabilityIndex, UpwardScratch};
use medkb_embed::SifModel;
use medkb_kb::Kb;
use medkb_ontology::context::generate_contexts;
use medkb_ontology::ContextSpec;
use medkb_snomed::ContextTag;
use medkb_types::{par, ContextId, ExtConceptId, Id, InstanceId, Result};

use crate::config::RelaxConfig;
use crate::frequency::Frequencies;
use crate::mapping::ConceptMapper;

/// Instance → external concept mappings (`M`), stored as one vector
/// sorted by instance id.
///
/// Replaces the previous `HashMap<InstanceId, ExtConceptId>`: iteration
/// is deterministic (so serialization is byte-stable without sorting at
/// write time), lookups are a binary search over a cache-friendly flat
/// array, and the store can adopt the backing vector wholesale.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MappingIndex {
    entries: Vec<(InstanceId, ExtConceptId)>,
}

impl MappingIndex {
    /// Build from mapping pairs in any order (instance ids are unique —
    /// each KB instance maps at most once).
    pub fn from_pairs(mut pairs: Vec<(InstanceId, ExtConceptId)>) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "duplicate instance mapping");
        Self { entries: pairs }
    }

    /// The concept `inst` mapped to, if any.
    pub fn get(&self, inst: InstanceId) -> Option<ExtConceptId> {
        self.entries
            .binary_search_by_key(&inst, |&(i, _)| i)
            .ok()
            .map(|at| self.entries[at].1)
    }

    /// Whether `inst` mapped to any concept.
    pub fn contains_key(&self, inst: InstanceId) -> bool {
        self.get(inst).is_some()
    }

    /// Number of mapped instances.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no instance mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All `(instance, concept)` pairs in ascending instance order.
    pub fn iter(&self) -> impl Iterator<Item = (InstanceId, ExtConceptId)> + '_ {
        self.entries.iter().copied()
    }

    /// The sorted backing slice (what the store serializes).
    pub fn as_slice(&self) -> &[(InstanceId, ExtConceptId)] {
        &self.entries
    }
}

/// Reverse mapping index: external concept → its mapped instances, stored
/// CSR-style (sorted distinct concepts + offsets + one flat instance
/// array) instead of `HashMap<ExtConceptId, Vec<InstanceId>>`.
///
/// Per-concept instance order is the KB insertion order of the original
/// mapping pass — the order the reference pipeline produced — so answers
/// that expose instance lists are unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InstanceIndex {
    concepts: Vec<ExtConceptId>,
    offsets: Vec<u32>,
    instances: Vec<InstanceId>,
}

impl InstanceIndex {
    /// Build from mapping pairs in insertion order (per-concept instance
    /// order is preserved; concepts are sorted for binary search).
    pub fn from_run(pairs: &[(InstanceId, ExtConceptId)]) -> Self {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        // Stable by concept: within a concept, insertion order survives.
        order.sort_by_key(|&at| pairs[at].1);
        let mut concepts = Vec::new();
        let mut offsets = vec![0u32];
        let mut instances = Vec::with_capacity(pairs.len());
        for &at in &order {
            let (inst, concept) = pairs[at];
            if concepts.last() != Some(&concept) {
                concepts.push(concept);
                offsets.push(instances.len() as u32);
            }
            instances.push(inst);
            *offsets.last_mut().expect("offsets non-empty") = instances.len() as u32;
        }
        Self { concepts, offsets, instances }
    }

    /// Reassemble from the store's flat sections. `offsets` must have
    /// `concepts.len() + 1` monotone entries ending at `instances.len()`.
    pub fn from_parts(
        concepts: Vec<ExtConceptId>,
        offsets: Vec<u32>,
        instances: Vec<InstanceId>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), concepts.len() + 1);
        Self { concepts, offsets, instances }
    }

    /// Instances mapped to `concept` (empty when unflagged).
    pub fn get(&self, concept: ExtConceptId) -> &[InstanceId] {
        match self.concepts.binary_search(&concept) {
            Ok(at) => &self.instances[self.offsets[at] as usize..self.offsets[at + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Sorted distinct flagged concepts.
    pub fn concepts(&self) -> &[ExtConceptId] {
        &self.concepts
    }

    /// CSR offsets (`concepts().len() + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat instance array the offsets slice into.
    pub fn instances(&self) -> &[InstanceId] {
        &self.instances
    }
}

/// Flagged external concepts (`FEC`) as a dense bitset over concept ids.
///
/// The relaxer's candidate scan and shortcut discovery probe the flag of
/// every concept they reach (153k per query at 350k concepts), so a probe
/// is one bit test, not a hash. Every place that assembles an
/// [`IngestOutput`] (ingest, store open, delta) collects it from the
/// mapping pairs; it is derived, never serialized. The table ends at its
/// highest flagged concept, so equality is set equality whatever the size
/// of the world.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlagTable {
    words: Vec<u64>,
    len: usize,
}

impl FlagTable {
    /// Whether `concept` is flagged (`false` for ids past the table).
    #[inline]
    pub fn contains(&self, concept: &ExtConceptId) -> bool {
        let i = concept.as_usize();
        self.words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Number of flagged concepts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no concept is flagged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The flagged concepts in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ExtConceptId> + '_ {
        self.words.iter().enumerate().flat_map(|(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    ExtConceptId::from_usize(at * 64 + bit)
                })
            })
        })
    }
}

impl FromIterator<ExtConceptId> for FlagTable {
    fn from_iter<I: IntoIterator<Item = ExtConceptId>>(concepts: I) -> Self {
        let mut table = Self::default();
        for c in concepts {
            let i = c.as_usize();
            if table.words.len() <= i / 64 {
                table.words.resize(i / 64 + 1, 0);
            }
            let bit = 1u64 << (i % 64);
            if table.words[i / 64] & bit == 0 {
                table.words[i / 64] |= bit;
                table.len += 1;
            }
        }
        table
    }
}

/// The artifacts Algorithm 1 produces: contexts `C`, frequencies `F`,
/// mappings `M`, flagged external concepts `FEC` — plus the customized
/// graph and the indexes the online phase needs.
///
/// The large parts sit behind `Arc`s, so a clone (one per published
/// epoch) copies only the contexts, tags and flagged bitset and shares
/// the rest. Nothing writes through a shared part: whoever changes one
/// builds it anew and assigns a fresh `Arc` (`DeltaEngine::apply`), so a
/// clone taken earlier keeps seeing its own world.
#[derive(Debug, Clone)]
pub struct IngestOutput {
    /// The external knowledge source, with shortcut edges added.
    pub ekg: Arc<Ekg>,
    /// The set of possible contexts `C` (Algorithm 1 lines 1–4).
    pub contexts: Vec<ContextSpec>,
    /// Context → semantic tag, dense over the contiguous context ids
    /// (which corpus sentence family measures each context).
    pub tag_of: Vec<ContextTag>,
    /// Per-context concept frequencies and IC (`F`).
    pub freqs: Arc<Frequencies>,
    /// Instance → external concept mappings (`M`), sorted by instance id.
    pub mappings: Arc<MappingIndex>,
    /// Reverse index: external concept → its mapped instances (CSR).
    pub instances_of: Arc<InstanceIndex>,
    /// Flagged external concepts (`FEC`): those with a KB instance.
    pub flagged: FlagTable,
    /// The mapper, reused online for query terms (Algorithm 2 line 1 uses
    /// "the same mapping function as in Algorithm 1").
    pub mapper: Arc<ConceptMapper>,
    /// Bitset transitive closure of the graph, built once here and reused
    /// by every online LCS minimality check and shortcut validation
    /// (shortcut edges never change the closure, so it stays valid for the
    /// customized graph).
    pub reach: Arc<ReachabilityIndex>,
    /// Number of shortcut edges the customization added.
    pub shortcuts_added: usize,
}

/// Metric names the ingestion pipeline records (DESIGN.md §10). Stage
/// timers are µs histograms (one observation per ingest run), volumes are
/// counters, and the thread budget is a gauge.
pub mod obs_names {
    /// Context generation (Algorithm 1 lines 1–4).
    pub const STAGE_CONTEXTS_US: &str = "ingest.stage.contexts_us";
    /// Mapper construction plus instance mapping (lines 5–11).
    pub const STAGE_MAPPING_US: &str = "ingest.stage.mapping_us";
    /// Reachability closure build.
    pub const STAGE_REACH_US: &str = "ingest.stage.reach_us";
    /// Frequency and IC table computation (lines 12–18).
    pub const STAGE_FREQS_US: &str = "ingest.stage.freqs_us";
    /// Shortcut discovery and application (lines 19–23).
    pub const STAGE_SHORTCUTS_US: &str = "ingest.stage.shortcuts_us";
    /// End-to-end ingest wall time.
    pub const STAGE_TOTAL_US: &str = "ingest.stage.total_us";
    /// KB instances examined by the mapping stage (counter).
    pub const INSTANCES_SCANNED: &str = "ingest.instances.scanned";
    /// Instances that mapped to an external concept (counter).
    pub const INSTANCES_MAPPED: &str = "ingest.instances.mapped";
    /// Distinct flagged external concepts (counter).
    pub const CONCEPTS_FLAGGED: &str = "ingest.concepts.flagged";
    /// Contexts generated from the ontology (counter).
    pub const CONTEXTS_GENERATED: &str = "ingest.contexts.generated";
    /// Shortcut edges the customization added (counter).
    pub const SHORTCUTS_ADDED: &str = "ingest.shortcuts.added";
    /// Worker threads the run was configured with (gauge).
    pub const THREADS: &str = "ingest.threads";

    /// Every stage-timer histogram ingestion registers. The `bench_json`
    /// smoke assertion checks each one is present in the snapshot.
    pub const STAGE_TIMERS: &[&str] = &[
        STAGE_CONTEXTS_US,
        STAGE_MAPPING_US,
        STAGE_REACH_US,
        STAGE_FREQS_US,
        STAGE_SHORTCUTS_US,
        STAGE_TOTAL_US,
    ];
}

/// Minimum depth an ancestor must have to receive a shortcut edge.
///
/// Algorithm 1 read literally connects every flagged concept to *all* of
/// its non-parent ancestors, including the root and the hierarchy heads —
/// which would turn the top of the taxonomy into a hub that puts every
/// flagged concept within 2 hops of every other and makes the radius
/// meaningless. Real deployments prune those top levels; we skip ancestors
/// above this depth (documented and ablated in DESIGN.md §5 — set the
/// constant's effect aside by raising `radius`).
pub const SHORTCUT_MIN_ANCESTOR_DEPTH: u32 = 2;

/// Wall-clock breakdown of one [`ingest_with_stats`] run (seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStats {
    /// Context generation (Algorithm 1 lines 1–4).
    pub contexts_s: f64,
    /// Mapper construction plus instance mapping (lines 5–11).
    pub mapping_s: f64,
    /// Reachability closure build.
    pub reach_s: f64,
    /// Frequency and IC table computation (lines 12–18).
    pub freqs_s: f64,
    /// Shortcut discovery and application (lines 19–23).
    pub shortcuts_s: f64,
    /// End-to-end wall time of the ingest call.
    pub total_s: f64,
    /// Worker threads the run was configured with.
    pub threads: usize,
}

/// Run Algorithm 1: ingest the external knowledge source `ekg` (consumed
/// and customized) against the knowledge base `kb` with corpus statistics
/// `counts`.
///
/// `sif` is required when `config.mapping` is the embedding flavour.
/// Sharded stages honour `config.parallel.threads`; outputs are identical
/// for every thread count.
pub fn ingest(
    kb: &Kb,
    ekg: Ekg,
    counts: &MentionCounts,
    sif: Option<Arc<SifModel>>,
    config: &RelaxConfig,
) -> Result<IngestOutput> {
    ingest_with_stats(kb, ekg, counts, sif, config).map(|(out, _)| out)
}

/// [`ingest`] plus a per-stage wall-clock breakdown (for `bench_json
/// --ingest`).
pub fn ingest_with_stats(
    kb: &Kb,
    mut ekg: Ekg,
    counts: &MentionCounts,
    sif: Option<Arc<SifModel>>,
    config: &RelaxConfig,
) -> Result<(IngestOutput, IngestStats)> {
    let threads = config.parallel.effective_threads();
    let mut stats = IngestStats { threads, ..IngestStats::default() };
    let t_total = Instant::now();

    // —— Context generation (lines 1–4) ——
    let t = Instant::now();
    let ontology = kb.ontology();
    let contexts = generate_contexts(ontology);
    // Context ids are dense in relationship order, so position == id.
    let tag_of: Vec<ContextTag> = contexts
        .iter()
        .map(|c| {
            let rel = ontology.relationship(c.relationship);
            ContextTag::from_relationship(ontology.concept_name(rel.domain), &rel.name)
        })
        .collect();
    stats.contexts_s = t.elapsed().as_secs_f64();

    // —— Mappings (lines 5–11) ——
    // The mapper probes are read-only and independent per instance, so the
    // instance list fans out over contiguous shards; merging the per-shard
    // hits back in shard order replays the sequential insertion order
    // exactly (`instances_of` vectors keep the KB iteration order).
    let t = Instant::now();
    let mapper = ConceptMapper::build(&ekg, config.mapping, sif)?;
    let instances: Vec<(InstanceId, &str)> =
        kb.instances().map(|(id, inst)| (id, &*inst.name)).collect();
    let mapped = par::shard_chunks(instances.len(), threads, |r| {
        map_shard(&mapper, &ekg, &instances[r])
    });
    let pairs: Vec<(InstanceId, ExtConceptId)> = mapped.into_iter().flatten().collect();
    let flagged: FlagTable = pairs.iter().map(|&(_, c)| c).collect();
    let instances_of = InstanceIndex::from_run(&pairs);
    let mappings = MappingIndex::from_pairs(pairs);
    stats.mapping_s = t.elapsed().as_secs_f64();

    // —— Reachability closure ——
    // Built before the frequency tables so the intrinsic-IC descendant
    // counts can come from the closure instead of a BFS per concept;
    // shortcuts never change the closure, so building on the native graph
    // up front is equivalent to the reference order.
    let t = Instant::now();
    let reach = ReachabilityIndex::build(&ekg);
    stats.reach_s = t.elapsed().as_secs_f64();

    // —— Concept frequencies (lines 12–18) ——
    // Computed on the native graph; shortcut edges never contribute to the
    // Eq. 2 rollup (they duplicate paths that are already counted).
    let t = Instant::now();
    let freqs = Frequencies::compute_with(
        &ekg,
        counts,
        config.frequency_mode,
        config.use_tfidf,
        Some(&reach),
        threads,
    );
    stats.freqs_s = t.elapsed().as_secs_f64();

    // —— Sparsity customization (lines 19–23, Figure 5) ——
    let t = Instant::now();
    let shortcuts_added =
        if config.add_shortcuts { customize(&mut ekg, &flagged, &reach, threads)? } else { 0 };
    stats.shortcuts_s = t.elapsed().as_secs_f64();
    stats.total_s = t_total.elapsed().as_secs_f64();

    // Ingest runs once per build, so recording goes straight through the
    // registry (no pre-resolved handles needed). Stage timers land one
    // observation each; `to_json_stable` keeps only their counts, so the
    // stable snapshot stays deterministic despite wall-clock values.
    if let Some(reg) = config.obs.registry() {
        let us = |s: f64| (s * 1e6) as u64;
        for (name, secs) in [
            (obs_names::STAGE_CONTEXTS_US, stats.contexts_s),
            (obs_names::STAGE_MAPPING_US, stats.mapping_s),
            (obs_names::STAGE_REACH_US, stats.reach_s),
            (obs_names::STAGE_FREQS_US, stats.freqs_s),
            (obs_names::STAGE_SHORTCUTS_US, stats.shortcuts_s),
            (obs_names::STAGE_TOTAL_US, stats.total_s),
        ] {
            reg.latency(name).record(us(secs));
        }
        reg.counter(obs_names::INSTANCES_SCANNED).add(instances.len() as u64);
        reg.counter(obs_names::INSTANCES_MAPPED).add(mappings.len() as u64);
        reg.counter(obs_names::CONCEPTS_FLAGGED).add(flagged.len() as u64);
        reg.counter(obs_names::CONTEXTS_GENERATED).add(contexts.len() as u64);
        reg.counter(obs_names::SHORTCUTS_ADDED).add(shortcuts_added as u64);
        reg.gauge(obs_names::THREADS).set(threads as u64);
    }

    Ok((
        IngestOutput {
            ekg: Arc::new(ekg),
            contexts,
            tag_of,
            freqs: Arc::new(freqs),
            mappings: Arc::new(mappings),
            instances_of: Arc::new(instances_of),
            flagged,
            mapper: Arc::new(mapper),
            reach: Arc::new(reach),
            shortcuts_added,
        },
        stats,
    ))
}

/// Map one contiguous shard of KB instances (read-only).
fn map_shard(
    mapper: &ConceptMapper,
    ekg: &Ekg,
    instances: &[(InstanceId, &str)],
) -> Vec<(InstanceId, ExtConceptId)> {
    instances
        .iter()
        .filter_map(|&(id, name)| mapper.map(ekg, name).map(|c| (id, c)))
        .collect()
}

/// Add the §5.1 shortcuts to a native graph in two phases: read-only
/// discovery (sharded, with one reusable Dijkstra scratch per worker),
/// then one batch insertion in topo order, which rebuilds each edge column
/// once. Returns the number added.
pub(crate) fn customize(
    ekg: &mut Ekg,
    flagged: &FlagTable,
    reach: &ReachabilityIndex,
    threads: usize,
) -> Result<usize> {
    let order = ekg.topo_children_first();
    let batch = par::shard_chunks(order.len(), threads, |r| {
        discover_shortcuts(ekg, flagged, &order[r])
    })
    .concat();
    ekg.add_shortcuts(&batch, reach)?;
    Ok(batch.len())
}

/// Discover the shortcut candidates of one contiguous run of source
/// concepts, in the exact order the reference loop would add them.
///
/// One epoch-stamped [`UpwardScratch`] is reused across the whole run
/// (the satellite fix for the per-concept dense-table allocation the old
/// loop paid). `reached()` yields ancestors in Dijkstra settle order —
/// ascending distance, descending id on ties — which is fully determined
/// by the final distances and therefore matches the dense reference
/// traversal.
fn discover_shortcuts(
    ekg: &Ekg,
    flagged: &FlagTable,
    sources: &[ExtConceptId],
) -> Vec<(ExtConceptId, ExtConceptId, u32)> {
    let mut scratch = UpwardScratch::new();
    let mut parents: Vec<ExtConceptId> = Vec::new();
    let mut out = Vec::new();
    for &a in sources {
        let a_flagged = flagged.contains(&a);
        parents.clear();
        parents.extend(ekg.parents(a).iter().map(|e| e.to));
        // Upward distances double as |shortestPath(A, B)|. Discovery runs
        // before any shortcut is applied, so the graph is all-native
        // (unit weights) and the level-BFS specialization applies.
        ekg.upward_unit_distances_into(a, &mut scratch);
        for &b in scratch.reached() {
            let dist = scratch.distance(b).unwrap_or(u32::MAX);
            // Direct parents are rare (usually 1–2), so a linear scan of
            // the small vec beats a hash probe here.
            if parents.contains(&b)
                || dist < 2
                || ekg.depth(b) < SHORTCUT_MIN_ANCESTOR_DEPTH
                || !(a_flagged || flagged.contains(&b))
            {
                continue;
            }
            out.push((a, b, dist));
        }
    }
    out
}

/// The original sequential Algorithm 1 implementation, preserved verbatim
/// as the pre-optimization oracle: the staged [`ingest`] pipeline is
/// pinned bit-identical to this by the `crates/core/tests` property tests
/// (the `relax_concept_reference` discipline).
pub fn ingest_reference(
    kb: &Kb,
    mut ekg: Ekg,
    counts: &MentionCounts,
    sif: Option<Arc<SifModel>>,
    config: &RelaxConfig,
) -> Result<IngestOutput> {
    // —— Context generation (lines 1–4) ——
    let ontology = kb.ontology();
    let contexts = generate_contexts(ontology);
    // Context ids are dense in relationship order, so position == id.
    let tag_of: Vec<ContextTag> = contexts
        .iter()
        .map(|c| {
            let rel = ontology.relationship(c.relationship);
            ContextTag::from_relationship(ontology.concept_name(rel.domain), &rel.name)
        })
        .collect();

    // —— Mappings (lines 5–11) ——
    let mapper = ConceptMapper::build(&ekg, config.mapping, sif)?;
    let mut pairs: Vec<(InstanceId, ExtConceptId)> = Vec::new();
    for (id, instance) in kb.instances() {
        if let Some(concept) = mapper.map(&ekg, &instance.name) {
            pairs.push((id, concept));
        }
    }
    let flagged: FlagTable = pairs.iter().map(|&(_, c)| c).collect();
    let instances_of = InstanceIndex::from_run(&pairs);
    let mappings = MappingIndex::from_pairs(pairs);

    // —— Concept frequencies (lines 12–18) ——
    // Computed on the native graph; shortcut edges never contribute to the
    // Eq. 2 rollup (they duplicate paths that are already counted).
    let freqs = Frequencies::compute(&ekg, counts, config.frequency_mode, config.use_tfidf);

    // —— Sparsity customization (lines 19–23, Figure 5) ——
    // The closure is computed once, before any shortcut exists; shortcuts
    // never change reachability, so the same index validates every
    // insertion and then serves the online phase. Candidates are gathered
    // source by source in topo order and inserted as one batch.
    let reach = ReachabilityIndex::build(&ekg);
    let mut batch = Vec::new();
    if config.add_shortcuts {
        for &a in ekg.topo_children_first() {
            let a_flagged = flagged.contains(&a);
            let parents: HashSet<ExtConceptId> = ekg.parents(a).iter().map(|e| e.to).collect();
            // Upward distances double as |shortestPath(A, B)|.
            for (b, dist) in ekg.upward_distances_from(a).iter() {
                if parents.contains(&b)
                    || dist < 2
                    || ekg.depth(b) < SHORTCUT_MIN_ANCESTOR_DEPTH
                    || !(a_flagged || flagged.contains(&b))
                {
                    continue;
                }
                batch.push((a, b, dist));
            }
        }
        ekg.add_shortcuts(&batch, &reach)?;
    }

    Ok(IngestOutput {
        ekg: Arc::new(ekg),
        contexts,
        tag_of,
        freqs: Arc::new(freqs),
        mappings: Arc::new(mappings),
        instances_of: Arc::new(instances_of),
        flagged,
        mapper: Arc::new(mapper),
        reach: Arc::new(reach),
        shortcuts_added: batch.len(),
    })
}

impl IngestOutput {
    /// The semantic tag of a context.
    pub fn tag(&self, context: ContextId) -> ContextTag {
        self.tag_of.get(context.as_usize()).copied().unwrap_or(ContextTag::General)
    }

    /// Instances mapped to `concept` (empty for unflagged concepts).
    pub fn instances(&self, concept: ExtConceptId) -> &[InstanceId] {
        self.instances_of.get(concept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MappingMethod;
    use std::collections::HashMap;
    use medkb_corpus::{Corpus, CorpusConfig, CorpusGenerator};
    use medkb_snomed::{MedWorld, WorldConfig};

    fn setup() -> (MedWorld, Corpus, MentionCounts) {
        let world = MedWorld::generate(&WorldConfig::tiny(71));
        let corpus = CorpusGenerator::new(&world.terminology, &world.oracle)
            .generate(&CorpusConfig::tiny(72));
        let counts = MentionCounts::count(&corpus, &world.terminology.ekg);
        (world, corpus, counts)
    }

    fn exact_config() -> RelaxConfig {
        RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() }
    }

    #[test]
    fn produces_contexts_for_every_relationship() {
        let (world, _, counts) = setup();
        let out =
            ingest(&world.kb, world.terminology.ekg.clone(), &counts, None, &exact_config())
                .unwrap();
        assert_eq!(out.contexts.len(), world.kb.ontology().relationship_count());
        assert_eq!(out.tag(world.treatment_context()), ContextTag::Treatment);
    }

    #[test]
    fn exact_mappings_are_all_correct() {
        let (world, _, counts) = setup();
        let out =
            ingest(&world.kb, world.terminology.ekg.clone(), &counts, None, &exact_config())
                .unwrap();
        assert!(!out.mappings.is_empty());
        for (inst, concept) in out.mappings.iter() {
            assert_eq!(
                world.origins[inst].concept,
                Some(concept),
                "exact mapping must match gold for {:?}",
                world.kb.name(inst)
            );
        }
    }

    #[test]
    fn flagged_equals_mapped_concepts() {
        let (world, _, counts) = setup();
        let out =
            ingest(&world.kb, world.terminology.ekg.clone(), &counts, None, &exact_config())
                .unwrap();
        let mut from_mappings: Vec<ExtConceptId> =
            out.mappings.iter().map(|(_, c)| c).collect();
        from_mappings.sort_unstable();
        from_mappings.dedup();
        assert_eq!(out.flagged.iter().collect::<Vec<_>>(), from_mappings, "ascending iter");
        assert_eq!(out.flagged.len(), from_mappings.len());
        for c in out.ekg.concepts() {
            assert_eq!(out.flagged.contains(&c), !out.instances(c).is_empty());
        }
        let end = out.ekg.len();
        for past in [end, end + 1, end + 64, u32::MAX as usize] {
            assert!(!out.flagged.contains(&ExtConceptId::from_usize(past)), "{past}");
        }
        // Equality is set equality: the same concepts collected in any
        // order, with duplicates, give an equal table.
        let reordered: FlagTable =
            from_mappings.iter().rev().chain(&from_mappings).copied().collect();
        assert_eq!(reordered, out.flagged);
        assert!(FlagTable::default().is_empty());
    }

    #[test]
    fn shortcuts_added_and_counted() {
        let (world, _, counts) = setup();
        let out =
            ingest(&world.kb, world.terminology.ekg.clone(), &counts, None, &exact_config())
                .unwrap();
        assert!(out.shortcuts_added > 0);
        assert_eq!(out.ekg.shortcut_count(), out.shortcuts_added);
        // Original graph untouched in the world copy.
        assert_eq!(world.terminology.ekg.shortcut_count(), 0);
    }

    #[test]
    fn shortcuts_can_be_disabled() {
        let (world, _, counts) = setup();
        let config = RelaxConfig { add_shortcuts: false, ..exact_config() };
        let out =
            ingest(&world.kb, world.terminology.ekg.clone(), &counts, None, &config).unwrap();
        assert_eq!(out.shortcuts_added, 0);
        assert_eq!(out.ekg.shortcut_count(), 0);
    }

    #[test]
    fn figure5_shortcut_created() {
        // In the paper fragment, flag "kidney disease" via a KB whose only
        // instance is kidney disease; the 3-hop descendant must get a
        // shortcut of original distance 3.
        let f = medkb_snomed::figures::paper_fragment();
        let mut ob = medkb_ontology::OntologyBuilder::new();
        let finding = ob.concept("Finding");
        let drug = ob.concept("Drug");
        ob.relationship("treats", drug, finding);
        let onto = ob.build().unwrap();
        let mut kb = medkb_kb::KbBuilder::new(onto);
        let fc = kb.ontology().lookup_concept("Finding").unwrap();
        kb.instance("kidney disease", fc);
        let kb = kb.build().unwrap();
        let counts = MentionCounts::from_direct(HashMap::new(), HashMap::new(), 1);
        let out = ingest(&kb, f.ekg.clone(), &counts, None, &exact_config()).unwrap();
        let deep = out.ekg.lookup_name("chronic kidney disease stage 1 due to hypertension")[0];
        let kd = out.ekg.lookup_name("kidney disease")[0];
        let edge = out
            .ekg
            .parents(deep)
            .iter()
            .find(|e| e.to == kd)
            .expect("figure 5 shortcut must exist");
        assert!(edge.shortcut);
        assert_eq!(edge.weight, 3, "original distance preserved on the edge");
        // One-hop now.
        assert!(out.ekg.neighborhood(deep, 1).iter().any(|&(c, _)| c == kd));
    }

    #[test]
    fn metrics_record_stage_timers_and_volumes() {
        let (world, _, counts) = setup();
        let registry = medkb_obs::Registry::shared();
        let config = RelaxConfig {
            obs: crate::config::ObsConfig::with_registry(Arc::clone(&registry)),
            ..exact_config()
        };
        let out =
            ingest(&world.kb, world.terminology.ekg.clone(), &counts, None, &config).unwrap();
        let snap = registry.snapshot();
        for &timer in obs_names::STAGE_TIMERS {
            assert_eq!(snap.histogram_count(timer), 1, "{timer}");
        }
        assert_eq!(snap.counter(obs_names::INSTANCES_MAPPED), out.mappings.len() as u64);
        assert_eq!(snap.counter(obs_names::CONCEPTS_FLAGGED), out.flagged.len() as u64);
        assert_eq!(snap.counter(obs_names::CONTEXTS_GENERATED), out.contexts.len() as u64);
        assert_eq!(snap.counter(obs_names::SHORTCUTS_ADDED), out.shortcuts_added as u64);
        assert!(
            snap.counter(obs_names::INSTANCES_SCANNED)
                >= snap.counter(obs_names::INSTANCES_MAPPED)
        );
        // Instrumentation changes no artifact: rerun without obs.
        let plain =
            ingest(&world.kb, world.terminology.ekg.clone(), &counts, None, &exact_config())
                .unwrap();
        assert_eq!(out.mappings, plain.mappings);
        assert_eq!(out.freqs, plain.freqs);
        assert_eq!(out.shortcuts_added, plain.shortcuts_added);
    }

    #[test]
    fn unmappable_instances_stay_unmapped_under_exact() {
        let (world, _, counts) = setup();
        let out =
            ingest(&world.kb, world.terminology.ekg.clone(), &counts, None, &exact_config())
                .unwrap();
        for inst in world.instances_with_shape(medkb_snomed::NameShape::Unmappable) {
            assert!(!out.mappings.contains_key(inst));
        }
    }
}
