//! Incremental delta ingestion (ROADMAP item 3).
//!
//! Production KBs change continuously; a full re-ingest at SNOMED scale
//! costs minutes (BENCH_store: 335 s with embedding training). This module
//! applies document/instance/concept deltas by updating only the affected
//! state:
//!
//! * mention counts — trie-scoped recount of the touched documents
//!   ([`medkb_corpus::CountTrie`]),
//! * frequency rollups — a topo-ordered recurrence over the dirty ancestor
//!   cone ([`crate::frequency::RawFrequencies`]),
//! * reachability — localized interval/exception repair
//!   ([`medkb_ekg::ReachabilityIndex::repair`]), falling back to a full
//!   rebuild past a dirtiness threshold (counted in obs),
//! * mapping/instance slabs — patched in place at their id-sorted
//!   positions.
//!
//! The correctness contract is absolute: after [`DeltaEngine::apply`], the
//! engine's [`IngestOutput`] is **bit-identical** to an honest full
//! re-ingest of the mutated inputs (same counts, same frozen SIF model,
//! same config). The `medkb-fuzz` delta differential oracle pins this over
//! the 240 adversarial worlds at 1/2/4/8 threads.
//!
//! # Error taxonomy
//!
//! An invalid operation rejects the whole delta with
//! [`MedKbError::Validation`]: every already-applied operation of the
//! failed delta is rolled back (the report's line number is the 1-based
//! index of the offending op). Two documented rollback residues exist:
//! instance slots stay allocated (tombstoned), invisible to derived
//! outputs, and concepts added by an earlier op of a failed delta remain
//! as retired leaves, which the next successful apply's output covers as a
//! full re-ingest of the grown graph would.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use medkb_corpus::{Corpus, CountTrie, Document, MentionCounts, Sentence};
use medkb_ekg::{Ekg, ReachabilityIndex};
use medkb_embed::SifModel;
use medkb_kb::Kb;
use medkb_snomed::ContextTag;
use medkb_text::tokenize;
use medkb_types::{
    ExtConceptId, Id, InstanceId, MedKbError, OntoConceptId, Result, ValidationReport,
};

use crate::config::RelaxConfig;
use crate::frequency::{Frequencies, RawFrequencies};
use crate::ingest::{customize, ingest, IngestOutput, InstanceIndex, MappingIndex};
use crate::mapping::ConceptMapper;

/// Metric names delta ingestion records (DESIGN.md §15).
pub mod obs_names {
    /// Wall time of one [`super::DeltaEngine::apply`] (µs histogram).
    pub const APPLY_US: &str = "delta.apply_us";
    /// Deltas applied (counter).
    pub const APPLIES: &str = "delta.applies";
    /// Individual operations applied (counter).
    pub const OPS_APPLIED: &str = "delta.ops.applied";
    /// Reachability repairs that fell back to a full rebuild because the
    /// dirty cone crossed the threshold (counter).
    pub const FALLBACK_FULL_REBUILDS: &str = "delta.fallback_full_rebuilds";
    /// Full mention recounts (name churn or a stale trie) (counter).
    pub const FULL_RECOUNTS: &str = "delta.full_recounts";
    /// Full raw-frequency recomputes (full recount, or tf-idf with a
    /// changed document total) (counter).
    pub const FULL_FREQ_RECOMPUTES: &str = "delta.full_freq_recomputes";
    /// Full instance remaps after a name change (counter).
    pub const FULL_REMAPS: &str = "delta.full_remaps";
    /// Documents incrementally recounted (counter).
    pub const DOCS_RECOUNTED: &str = "delta.docs.recounted";
    /// Shortcut-stage reruns (graph, name, or flagged-set change) (counter).
    pub const SHORTCUT_RERUNS: &str = "delta.shortcut_reruns";
}

/// Reachability repair falls back to a full rebuild when the dirty cone
/// covers at least this fraction of the graph (repair's cache hit rate —
/// and with it the win over a fresh build — collapses past that point).
pub const REACH_REBUILD_THRESHOLD: f64 = 0.25;

/// One atomic input mutation. Operations validate before mutating, so a
/// rejected operation has not changed anything.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Append a document to the corpus. Each sentence is a context tag
    /// plus text fragments (tokenized and interned at apply time).
    AddDocument {
        /// Sentences as `(tag, text fragments)`.
        sentences: Vec<(ContextTag, Vec<String>)>,
    },
    /// Insert a document at a position (the inverse of a removal).
    InsertDocumentAt {
        /// Position to insert at (`<= docs.len()`).
        index: usize,
        /// Sentences as `(tag, text fragments)`.
        sentences: Vec<(ContextTag, Vec<String>)>,
    },
    /// Remove the document at `index`.
    RemoveDocument {
        /// Position to remove.
        index: usize,
    },
    /// Add a KB instance of `concept` (id = current slot count).
    AddInstance {
        /// Display name.
        name: String,
        /// Ontology concept of the instance.
        concept: OntoConceptId,
    },
    /// Tombstone a KB instance (triples touching it are dropped).
    RemoveInstance {
        /// Instance to retire.
        id: InstanceId,
    },
    /// Un-tombstone a KB instance (its triples stay gone).
    RestoreInstance {
        /// Instance to restore.
        id: InstanceId,
    },
    /// Append a synonym to an external concept.
    AddSynonym {
        /// Concept to extend.
        concept: ExtConceptId,
        /// The new synonym.
        synonym: String,
    },
    /// Insert a synonym at a position (the inverse of a removal).
    InsertSynonymAt {
        /// Concept to extend.
        concept: ExtConceptId,
        /// Position in the concept's synonym list.
        index: usize,
        /// The synonym.
        synonym: String,
    },
    /// Remove the synonym at `index` of `concept`.
    RemoveSynonym {
        /// Concept to shrink.
        concept: ExtConceptId,
        /// Position in the concept's synonym list.
        index: usize,
    },
    /// Add a native `is_a` edge (appended at the edge-list ends).
    AddIsA {
        /// Sub-concept.
        child: ExtConceptId,
        /// Super-concept.
        parent: ExtConceptId,
    },
    /// Add a native `is_a` edge at exact edge-list positions (the inverse
    /// of a removal; restores byte-stable edge order).
    AddIsAAt {
        /// Sub-concept.
        child: ExtConceptId,
        /// Super-concept.
        parent: ExtConceptId,
        /// Position in the child's up-edge list.
        up_pos: usize,
        /// Position in the parent's down-edge list.
        down_pos: usize,
    },
    /// Remove a native `is_a` edge. The child must keep ≥ 1 parent.
    RemoveIsA {
        /// Sub-concept.
        child: ExtConceptId,
        /// Super-concept.
        parent: ExtConceptId,
    },
    /// Add a new external concept under `parents`.
    ///
    /// **Not invertible**: concept ids never shrink. The generated inverse
    /// is a best-effort [`DeltaOp::RetireConcept`].
    AddConcept {
        /// Primary name (must be new).
        name: String,
        /// Synonyms.
        synonyms: Vec<String>,
        /// Native parents (non-empty).
        parents: Vec<ExtConceptId>,
    },
    /// Retire a concept structurally: its native children are re-homed to
    /// its parents and detached from it, leaving it a leaf. Its names stay
    /// registered (ids and lookup never shrink). Expands to primitive edge
    /// operations, so it is exactly invertible.
    RetireConcept {
        /// Concept to retire (not the root).
        concept: ExtConceptId,
    },
}

/// An ordered batch of input mutations applied atomically: either every
/// operation applies and the derived state is republished, or none do.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Delta {
    /// Operations in application order.
    pub ops: Vec<DeltaOp>,
}

impl Delta {
    /// A delta from operations.
    pub fn new(ops: Vec<DeltaOp>) -> Self {
        Self { ops }
    }
}

/// Dirtiness accumulated while mutating the inputs (phase 1), consumed by
/// the derived-state recompute (phase 2).
#[derive(Debug, Default)]
struct DirtyState {
    /// Native edge set or concept count changed.
    graph_changed: bool,
    /// Concept names or synonyms changed (trie + mapper invalidated).
    names_changed: bool,
    /// Documents added this delta (in application order).
    docs_added: Vec<Document>,
    /// Documents removed this delta.
    docs_removed: Vec<Document>,
    /// Instances whose live/mapped status may have changed.
    instances_touched: Vec<InstanceId>,
    /// Seeds of the reachability dirty cone: churned-edge children and
    /// added concepts. The cone is each seed plus its new-graph
    /// descendants.
    reach_seeds: HashSet<ExtConceptId>,
    /// Seeds of the frequency rollup cone: churned-edge children, their
    /// **old**-graph ancestors (captured before the mutation), and added
    /// concepts. The cone is the new-graph ancestor closure of these plus
    /// the touched-direct concepts.
    freq_seeds: HashSet<ExtConceptId>,
}

/// The long-lived incremental-ingestion engine: owns the mutable inputs
/// (KB, corpus, native graph), the intermediate state that makes patching
/// cheap (counts + trie, raw frequency tables, mapping pairs), and the
/// current derived [`IngestOutput`].
///
/// Lifecycle: build once ([`DeltaEngine::new`] runs a full ingest,
/// [`DeltaEngine::from_opened`] adopts a store-opened output), then
/// [`DeltaEngine::apply`] deltas and publish [`DeltaEngine::output`]
/// clones through a `SnapshotStore` epoch swap.
#[derive(Debug)]
pub struct DeltaEngine {
    kb: Kb,
    corpus: Corpus,
    /// The native external graph (no shortcut edges) — the canonical
    /// mutable input. `out.ekg` is derived from it per publish.
    ekg: Ekg,
    sif: Option<Arc<SifModel>>,
    config: RelaxConfig,
    counts: MentionCounts,
    trie: CountTrie,
    raw: RawFrequencies,
    /// Mapping pairs in ascending instance id — exactly the insertion
    /// order the full pipeline's KB scan produces.
    pairs: Vec<(InstanceId, ExtConceptId)>,
    out: IngestOutput,
}

impl DeltaEngine {
    /// Build the engine with a full (honest) ingest of the inputs.
    pub fn new(
        kb: Kb,
        corpus: Corpus,
        ekg: Ekg,
        sif: Option<Arc<SifModel>>,
        config: RelaxConfig,
    ) -> Result<Self> {
        let (counts, trie) = count_fresh(&corpus, &ekg, config.parallel.effective_threads());
        let out = ingest(&kb, ekg.clone(), &counts, sif.clone(), &config)?;
        Ok(Self::assemble(kb, corpus, ekg, sif, config, (counts, trie), out))
    }

    /// Adopt a store-opened (or otherwise prebuilt) [`IngestOutput`]
    /// instead of re-running the full ingest. `ekg` must be the native
    /// (shortcut-free) graph `out` was built from; counts and raw
    /// frequency state are recomputed deterministically from the inputs.
    /// One name trie serves both: the counts are taken through the
    /// [`CountTrie`] the engine then keeps for delta recounts.
    pub fn from_opened(
        kb: Kb,
        corpus: Corpus,
        ekg: Ekg,
        sif: Option<Arc<SifModel>>,
        config: RelaxConfig,
        out: IngestOutput,
    ) -> Self {
        let counted = count_fresh(&corpus, &ekg, config.parallel.effective_threads());
        Self::assemble(kb, corpus, ekg, sif, config, counted, out)
    }

    fn assemble(
        kb: Kb,
        corpus: Corpus,
        ekg: Ekg,
        sif: Option<Arc<SifModel>>,
        config: RelaxConfig,
        (counts, trie): (MentionCounts, CountTrie),
        out: IngestOutput,
    ) -> Self {
        let raw = RawFrequencies::compute(
            &ekg,
            &counts,
            config.frequency_mode,
            config.use_tfidf,
            config.parallel.effective_threads(),
        );
        let pairs = out.mappings.as_slice().to_vec();
        Self { kb, corpus, ekg, sif, config, counts, trie, raw, pairs, out }
    }

    /// The current derived output. Publish clones of it through the
    /// snapshot store: a clone copies the small parts and shares the
    /// `Arc`ed ones. [`DeltaEngine::apply`] replaces each part it changes
    /// with a fresh `Arc` and never writes through a shared one, so a
    /// published clone keeps its world while later deltas apply, and
    /// shares every part they leave alone.
    pub fn output(&self) -> &IngestOutput {
        &self.out
    }

    /// The knowledge base input.
    pub fn kb(&self) -> &Kb {
        &self.kb
    }

    /// The corpus input.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The native (shortcut-free) external graph input.
    pub fn native_ekg(&self) -> &Ekg {
        &self.ekg
    }

    /// The current mention counts.
    pub fn counts(&self) -> &MentionCounts {
        &self.counts
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RelaxConfig {
        &self.config
    }

    /// Apply `delta` atomically and recompute the affected derived state.
    ///
    /// On success, returns the **inverse delta**: applying it restores the
    /// previous [`IngestOutput`] bit-identically ([`DeltaOp::AddConcept`]
    /// is the documented exception — see its docs).
    ///
    /// # Errors
    /// [`MedKbError::Validation`] when an operation is invalid; every
    /// operation of the failed delta is rolled back and the derived state
    /// is untouched. A concept it added stays behind as a retired leaf
    /// (ids never shrink); the next successful apply recomputes the output
    /// over it.
    pub fn apply(&mut self, delta: &Delta) -> Result<Delta> {
        let t = Instant::now();
        let mut dirty = DirtyState::default();
        let mut undo: Vec<DeltaOp> = Vec::new();
        let concepts = self.ekg.len();
        for (at, op) in delta.ops.iter().enumerate() {
            match self.apply_input_op(op, &mut dirty) {
                Ok(mut inv) => undo.append(&mut inv),
                Err(e) => {
                    self.rollback(undo);
                    // Concepts added by the failed delta stay as retired
                    // leaves; derive the native tables that must cover
                    // them. The output catches up on the next apply.
                    if self.ekg.len() != concepts {
                        self.ekg.rebuild_derived().expect("rolled-back graph stays valid");
                    }
                    let mut report = ValidationReport::new();
                    report.defect("delta", Some(at + 1), e.to_string());
                    let Err(err) = report.into_result() else {
                        unreachable!("non-empty report")
                    };
                    return Err(err);
                }
            }
        }
        // The output covers the concepts of the last recompute; any added
        // since (by this delta or a failed one) are recomputed as added.
        for c in self.out.ekg.len()..self.ekg.len() {
            dirty.note_added_concept(ExtConceptId::from_usize(c));
        }
        self.recompute(&dirty);
        if let Some(reg) = self.config.obs.registry() {
            reg.counter(obs_names::APPLIES).inc();
            reg.counter(obs_names::OPS_APPLIED).add(delta.ops.len() as u64);
            reg.latency(obs_names::APPLY_US).record(t.elapsed().as_micros() as u64);
        }
        undo.reverse();
        Ok(Delta { ops: undo })
    }

    /// Undo already-applied operations of a failed delta (inverses applied
    /// newest-first). Inverse application cannot fail.
    fn rollback(&mut self, undo: Vec<DeltaOp>) {
        let mut scratch = DirtyState::default();
        for op in undo.iter().rev() {
            self.apply_input_op(op, &mut scratch).expect("delta rollback must succeed");
        }
    }

    /// Phase 1: apply one operation to the inputs, record its dirtiness,
    /// and return its inverse operation(s). Validation happens before any
    /// mutation, so `Err` means "nothing changed" for this op.
    fn apply_input_op(&mut self, op: &DeltaOp, dirty: &mut DirtyState) -> Result<Vec<DeltaOp>> {
        match op {
            DeltaOp::AddDocument { sentences } => {
                self.insert_document(self.corpus.docs.len(), sentences, dirty)
            }
            DeltaOp::InsertDocumentAt { index, sentences } => {
                self.insert_document(*index, sentences, dirty)
            }
            DeltaOp::RemoveDocument { index } => {
                if *index >= self.corpus.docs.len() {
                    return Err(MedKbError::invalid(format!(
                        "remove_document: index {} out of range ({} docs)",
                        index,
                        self.corpus.docs.len()
                    )));
                }
                let doc = self.corpus.docs.remove(*index);
                let sentences = doc
                    .sentences
                    .iter()
                    .map(|s| {
                        let words = s
                            .tokens
                            .iter()
                            .map(|&tok| self.corpus.vocab.resolve(tok).to_string())
                            .collect();
                        (s.tag, words)
                    })
                    .collect();
                dirty.docs_removed.push(doc);
                Ok(vec![DeltaOp::InsertDocumentAt { index: *index, sentences }])
            }
            DeltaOp::AddInstance { name, concept } => {
                let id = self.kb.add_instance(name, *concept)?;
                dirty.instances_touched.push(id);
                Ok(vec![DeltaOp::RemoveInstance { id }])
            }
            DeltaOp::RemoveInstance { id } => {
                self.kb.remove_instance(*id)?;
                dirty.instances_touched.push(*id);
                Ok(vec![DeltaOp::RestoreInstance { id: *id }])
            }
            DeltaOp::RestoreInstance { id } => {
                self.kb.restore_instance(*id)?;
                dirty.instances_touched.push(*id);
                Ok(vec![DeltaOp::RemoveInstance { id: *id }])
            }
            DeltaOp::AddSynonym { concept, synonym } => {
                let index = self.ekg.add_synonym(*concept, synonym)?;
                dirty.names_changed = true;
                Ok(vec![DeltaOp::RemoveSynonym { concept: *concept, index }])
            }
            DeltaOp::InsertSynonymAt { concept, index, synonym } => {
                let at = self.ekg.insert_synonym_at(*concept, *index, synonym)?;
                dirty.names_changed = true;
                Ok(vec![DeltaOp::RemoveSynonym { concept: *concept, index: at }])
            }
            DeltaOp::RemoveSynonym { concept, index } => {
                let synonym = self.ekg.remove_synonym(*concept, *index)?;
                dirty.names_changed = true;
                Ok(vec![DeltaOp::InsertSynonymAt {
                    concept: *concept,
                    index: *index,
                    synonym,
                }])
            }
            DeltaOp::AddIsA { child, parent } => {
                let anc_old = self.ekg.ancestors(*child);
                self.ekg.add_is_a(*child, *parent)?;
                dirty.note_edge_churn(*child, anc_old);
                Ok(vec![DeltaOp::RemoveIsA { child: *child, parent: *parent }])
            }
            DeltaOp::AddIsAAt { child, parent, up_pos, down_pos } => {
                let anc_old = self.ekg.ancestors(*child);
                self.ekg.add_is_a_at(*child, *parent, *up_pos, *down_pos)?;
                dirty.note_edge_churn(*child, anc_old);
                Ok(vec![DeltaOp::RemoveIsA { child: *child, parent: *parent }])
            }
            DeltaOp::RemoveIsA { child, parent } => {
                let anc_old = self.ekg.ancestors(*child);
                let (up_pos, down_pos) = self.ekg.remove_is_a(*child, *parent)?;
                dirty.note_edge_churn(*child, anc_old);
                Ok(vec![DeltaOp::AddIsAAt {
                    child: *child,
                    parent: *parent,
                    up_pos,
                    down_pos,
                }])
            }
            DeltaOp::AddConcept { name, synonyms, parents } => {
                let id = self.ekg.add_concept(name, synonyms, parents)?;
                dirty.note_added_concept(id);
                Ok(vec![DeltaOp::RetireConcept { concept: id }])
            }
            DeltaOp::RetireConcept { concept } => self.retire_concept(*concept, dirty),
        }
    }

    /// Build (tokenize + intern) and insert a document.
    fn insert_document(
        &mut self,
        index: usize,
        sentences: &[(ContextTag, Vec<String>)],
        dirty: &mut DirtyState,
    ) -> Result<Vec<DeltaOp>> {
        if index > self.corpus.docs.len() {
            return Err(MedKbError::invalid(format!(
                "insert_document: index {} out of range ({} docs)",
                index,
                self.corpus.docs.len()
            )));
        }
        let doc = Document {
            sentences: sentences
                .iter()
                .map(|(tag, fragments)| Sentence {
                    tag: *tag,
                    tokens: fragments
                        .iter()
                        .flat_map(|text| tokenize(text))
                        .map(|word| self.corpus.vocab.intern(&word))
                        .collect(),
                })
                .collect(),
        };
        self.corpus.docs.insert(index, doc.clone());
        dirty.docs_added.push(doc);
        Ok(vec![DeltaOp::RemoveDocument { index }])
    }

    /// Expand a concept retirement into primitive edge operations: re-home
    /// every native child to the concept's parents, then detach it. A
    /// failure mid-expansion (which the preconditions rule out) rolls the
    /// partial expansion back before propagating.
    fn retire_concept(
        &mut self,
        concept: ExtConceptId,
        dirty: &mut DirtyState,
    ) -> Result<Vec<DeltaOp>> {
        if Id::as_usize(concept) >= self.ekg.len() {
            return Err(MedKbError::invalid(format!(
                "retire_concept: concept id {} out of range",
                Id::as_usize(concept)
            )));
        }
        if concept == self.ekg.root() {
            return Err(MedKbError::invalid("retire_concept: cannot retire the root"));
        }
        let children: Vec<ExtConceptId> = self.ekg.native_children(concept).collect();
        let parents: Vec<ExtConceptId> =
            self.ekg.parents(concept).iter().map(|e| e.to).collect();
        let mut undo: Vec<DeltaOp> = Vec::new();
        for &child in &children {
            let mut ops: Vec<DeltaOp> = Vec::new();
            for &p in &parents {
                if !self.ekg.parents(child).iter().any(|e| e.to == p) {
                    ops.push(DeltaOp::AddIsA { child, parent: p });
                }
            }
            ops.push(DeltaOp::RemoveIsA { child, parent: concept });
            for op in &ops {
                match self.apply_input_op(op, dirty) {
                    Ok(mut inv) => undo.append(&mut inv),
                    Err(e) => {
                        self.rollback(undo);
                        return Err(e);
                    }
                }
            }
        }
        Ok(undo)
    }

    /// Phase 2: bring every derived artifact up to date. Each branch
    /// reproduces exactly what a full re-ingest of the mutated inputs
    /// computes (the differential oracle's contract); clean state keeps
    /// its bits by being left untouched.
    fn recompute(&mut self, dirty: &DirtyState) {
        let threads = self.config.parallel.effective_threads();

        // —— Graph derived state (topo, depth, name lookup) ——
        if dirty.graph_changed || dirty.names_changed {
            self.ekg.rebuild_derived().expect("delta graph stays acyclic and rooted");
        }

        // —— Mention counts ——
        let docs_churned = !dirty.docs_added.is_empty() || !dirty.docs_removed.is_empty();
        let counts_full = dirty.names_changed
            || (docs_churned && !self.trie.validate(&self.corpus.vocab));
        let n_docs_changed = dirty.docs_added.len() != dirty.docs_removed.len();
        let mut touched_direct: HashSet<ExtConceptId> = HashSet::new();
        if counts_full {
            (self.counts, self.trie) = count_fresh(&self.corpus, &self.ekg, threads);
            if let Some(reg) = self.config.obs.registry() {
                reg.counter(obs_names::FULL_RECOUNTS).inc();
            }
        } else if docs_churned {
            // Add before remove: a document added and removed by the same
            // delta must be counted in before it is un-counted.
            touched_direct.extend(self.counts.add_docs(&self.trie, &dirty.docs_added));
            touched_direct.extend(self.counts.remove_docs(&self.trie, &dirty.docs_removed));
            if let Some(reg) = self.config.obs.registry() {
                reg.counter(obs_names::DOCS_RECOUNTED)
                    .add((dirty.docs_added.len() + dirty.docs_removed.len()) as u64);
            }
        }

        // —— Mapping slabs ——
        let old_flagged = std::mem::take(&mut self.out.flagged);
        let mut mapping_changed = false;
        if dirty.names_changed {
            // Names feed both the mapper's index and exact lookup; rebuild
            // deterministically against the frozen SIF model and remap the
            // full instance scan (bit-identical to the pipeline's sharded
            // scan, which merges in shard order).
            self.out.mapper = Arc::new(
                ConceptMapper::build(&self.ekg, self.config.mapping, self.sif.clone())
                    .expect("mapper rebuild with unchanged config and frozen SIF"),
            );
            self.pairs = self
                .kb
                .instances()
                .filter_map(|(id, inst)| {
                    self.out.mapper.map(&self.ekg, &inst.name).map(|c| (id, c))
                })
                .collect();
            mapping_changed = true;
            if let Some(reg) = self.config.obs.registry() {
                reg.counter(obs_names::FULL_REMAPS).inc();
            }
        } else if !dirty.instances_touched.is_empty() {
            // Single-probe patches at the id-sorted position (ascending
            // instance id IS the full scan's insertion order).
            for &id in &dirty.instances_touched {
                let slot = self.pairs.binary_search_by_key(&id, |&(i, _)| i);
                let mapped = if self.kb.is_retired(id) {
                    None
                } else {
                    self.out.mapper.map(&self.ekg, self.kb.name(id))
                };
                match (slot, mapped) {
                    (Ok(at), Some(c)) => self.pairs[at].1 = c,
                    (Ok(at), None) => {
                        self.pairs.remove(at);
                    }
                    (Err(at), Some(c)) => self.pairs.insert(at, (id, c)),
                    (Err(_), None) => {}
                }
            }
            mapping_changed = true;
        }
        if mapping_changed {
            self.out.flagged = self.pairs.iter().map(|&(_, c)| c).collect();
            self.out.instances_of = Arc::new(InstanceIndex::from_run(&self.pairs));
            self.out.mappings = Arc::new(MappingIndex::from_pairs(self.pairs.clone()));
        } else {
            self.out.flagged = old_flagged.clone();
        }
        let flagged_changed = self.out.flagged != old_flagged;

        // —— Reachability ——
        if dirty.graph_changed {
            let n = self.ekg.len();
            let mut cone: HashSet<ExtConceptId> = HashSet::new();
            for &seed in &dirty.reach_seeds {
                cone.insert(seed);
                cone.extend(self.ekg.descendants(seed));
            }
            if (cone.len() as f64) >= REACH_REBUILD_THRESHOLD * (n as f64) {
                self.out.reach = Arc::new(ReachabilityIndex::build(&self.ekg));
                if let Some(reg) = self.config.obs.registry() {
                    reg.counter(obs_names::FALLBACK_FULL_REBUILDS).inc();
                }
            } else {
                self.out.reach = Arc::new(self.out.reach.repair(&self.ekg, &cone));
            }
        }

        // —— Frequencies ——
        let freq_full = counts_full || (self.config.use_tfidf && n_docs_changed);
        if freq_full {
            self.raw = RawFrequencies::compute(
                &self.ekg,
                &self.counts,
                self.config.frequency_mode,
                self.config.use_tfidf,
                threads,
            );
            self.out.freqs =
                Arc::new(Frequencies::finish(&self.ekg, &self.raw, Some(&self.out.reach)));
            if let Some(reg) = self.config.obs.registry() {
                reg.counter(obs_names::FULL_FREQ_RECOMPUTES).inc();
            }
        } else if !touched_direct.is_empty() || dirty.graph_changed {
            self.raw.grow(self.ekg.len());
            self.raw.patch_direct(
                &self.counts,
                self.config.use_tfidf,
                touched_direct.iter().copied(),
            );
            // The rollup cone: touched-direct concepts, edge-churn seeds
            // (children + their old-graph ancestors), and the new-graph
            // ancestor closure of all of them (transitivity makes one
            // expansion round enough).
            let mut cone: HashSet<ExtConceptId> = HashSet::new();
            for &seed in touched_direct.iter().chain(&dirty.freq_seeds) {
                cone.insert(seed);
                cone.extend(self.ekg.ancestors(seed));
            }
            self.raw.patch_rollup(
                &self.ekg,
                self.config.frequency_mode,
                &self.out.reach,
                &cone,
            );
            self.out.freqs =
                Arc::new(Frequencies::finish(&self.ekg, &self.raw, Some(&self.out.reach)));
        }

        // —— Shortcut customization ——
        // The published graph re-derives whenever its native skeleton,
        // name tables, or the flagged set changed; otherwise the previous
        // customized graph is reused byte-for-byte.
        if dirty.graph_changed || dirty.names_changed || flagged_changed {
            let mut ekg = self.ekg.clone();
            self.out.shortcuts_added = if self.config.add_shortcuts {
                customize(&mut ekg, &self.out.flagged, &self.out.reach, threads)
                    .expect("rediscovered shortcuts stay valid")
            } else {
                0
            };
            self.out.ekg = Arc::new(ekg);
            if let Some(reg) = self.config.obs.registry() {
                reg.counter(obs_names::SHORTCUT_RERUNS).inc();
            }
        }
    }
}

/// Count `corpus` through a fresh name trie over `ekg`, returned with the
/// counts: the engine keeps it for incremental recounts, so one trie build
/// serves both.
fn count_fresh(corpus: &Corpus, ekg: &Ekg, threads: usize) -> (MentionCounts, CountTrie) {
    let trie = CountTrie::build(ekg, &corpus.vocab);
    (MentionCounts::count_with_trie(corpus, &trie, threads), trie)
}

impl DirtyState {
    /// Record a native-edge mutation on `child`, with the child's ancestor
    /// set captured **before** the mutation (DescendantSet rollup rows of
    /// former ancestors change too).
    fn note_edge_churn(&mut self, child: ExtConceptId, anc_old: HashSet<ExtConceptId>) {
        self.graph_changed = true;
        self.reach_seeds.insert(child);
        self.freq_seeds.insert(child);
        self.freq_seeds.extend(anc_old);
    }

    /// Record a concept added to the native graph.
    fn note_added_concept(&mut self, id: ExtConceptId) {
        self.graph_changed = true;
        self.names_changed = true;
        self.reach_seeds.insert(id);
        self.freq_seeds.insert(id);
    }
}

/// Whether two ingest outputs are bit-identical on every artifact the
/// online phase reads — the delta-vs-full differential oracle's equality.
///
/// The mapper is compared in place with [`ConceptMapper::bits_eq`]: trained
/// embedding tables can legitimately contain NaN rows at SNOMED scale (SGNS
/// divergence is deterministic but not finite), and float `==` would report
/// two bit-identical such mappers as different. The frequency tables stay
/// on `PartialEq`: every entry is a probability or a `ln`-derived IC of
/// one, neither of which can be NaN.
pub fn outputs_identical(a: &IngestOutput, b: &IngestOutput) -> bool {
    a.ekg == b.ekg
        && a.contexts == b.contexts
        && a.tag_of == b.tag_of
        && a.freqs == b.freqs
        && a.mappings == b.mappings
        && a.instances_of == b.instances_of
        && a.flagged == b.flagged
        && a.mapper.bits_eq(&b.mapper)
        && a.reach == b.reach
        && a.shortcuts_added == b.shortcuts_added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MappingMethod;
    use medkb_corpus::{CorpusConfig, CorpusGenerator};
    use medkb_snomed::{MedWorld, WorldConfig};

    fn engine() -> DeltaEngine {
        let world = MedWorld::generate(&WorldConfig::tiny(71));
        let corpus = CorpusGenerator::new(&world.terminology, &world.oracle)
            .generate(&CorpusConfig::tiny(72));
        let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
        DeltaEngine::new(world.kb, corpus, world.terminology.ekg, None, config).unwrap()
    }

    /// Honest full re-ingest of the engine's current (mutated) inputs.
    fn full_twin(engine: &DeltaEngine) -> IngestOutput {
        let counts = MentionCounts::count(engine.corpus(), engine.native_ekg());
        ingest(
            engine.kb(),
            engine.native_ekg().clone(),
            &counts,
            None,
            engine.config(),
        )
        .unwrap()
    }

    fn doc_delta() -> Delta {
        Delta::new(vec![DeltaOp::AddDocument {
            sentences: vec![(
                ContextTag::Treatment,
                vec!["this drug treats the first finding quickly".to_string()],
            )],
        }])
    }

    #[test]
    fn document_delta_matches_full_reingest() {
        let mut e = engine();
        e.apply(&doc_delta()).unwrap();
        assert!(outputs_identical(e.output(), &full_twin(&e)));
        e.apply(&Delta::new(vec![DeltaOp::RemoveDocument { index: 0 }])).unwrap();
        assert!(outputs_identical(e.output(), &full_twin(&e)));
    }

    #[test]
    fn edge_delta_matches_full_reingest() {
        let mut e = engine();
        // Give the last concept an extra parent (root is always id 0's
        // ancestor; pick a parent that isn't already one and isn't a
        // descendant).
        let ekg = e.native_ekg();
        let child = ekg
            .concepts()
            .last()
            .expect("non-empty world");
        let parent = ekg
            .concepts()
            .find(|&p| {
                p != child
                    && !ekg.parents(child).iter().any(|edge| edge.to == p)
                    && !ekg.is_ancestor(child, p)
            })
            .expect("some valid new parent");
        e.apply(&Delta::new(vec![DeltaOp::AddIsA { child, parent }])).unwrap();
        assert!(outputs_identical(e.output(), &full_twin(&e)));
        e.apply(&Delta::new(vec![DeltaOp::RemoveIsA { child, parent }])).unwrap();
        assert!(outputs_identical(e.output(), &full_twin(&e)));
    }

    #[test]
    fn inverse_delta_round_trips_bit_identically() {
        let mut e = engine();
        let before = e.output().clone();
        let inverse = e.apply(&doc_delta()).unwrap();
        e.apply(&inverse).unwrap();
        assert!(outputs_identical(e.output(), &before));
    }

    #[test]
    fn invalid_op_rejects_whole_delta_and_rolls_back() {
        let mut e = engine();
        let before = e.output().clone();
        let n_docs = e.corpus().len();
        let bad = Delta::new(vec![
            doc_delta().ops[0].clone(),
            DeltaOp::RemoveDocument { index: 9_999_999 },
        ]);
        let err = e.apply(&bad).unwrap_err();
        assert!(matches!(err, MedKbError::Validation(_)), "{err}");
        assert_eq!(e.corpus().len(), n_docs, "applied op must roll back");
        assert!(outputs_identical(e.output(), &before));
        // And the engine still works afterwards.
        e.apply(&doc_delta()).unwrap();
        assert!(outputs_identical(e.output(), &full_twin(&e)));
    }

    /// A failed delta cannot take back a concept it added: the concept
    /// stays as a leaf that the native graph's derived tables cover, and
    /// the next apply's output covers it as a full re-ingest does.
    #[test]
    fn rolled_back_concept_stays_derived() {
        let mut e = engine();
        let before = e.output().clone();
        let (n, root) = (e.native_ekg().len(), e.native_ekg().root());
        let name = "rolled back concept";
        let add = DeltaOp::AddConcept {
            name: name.to_string(),
            synonyms: Vec::new(),
            parents: vec![root],
        };
        let bad = Delta::new(vec![add, DeltaOp::RemoveDocument { index: 9_999_999 }]);
        let err = e.apply(&bad).unwrap_err();
        assert!(matches!(err, MedKbError::Validation(_)), "{err}");
        assert!(outputs_identical(e.output(), &before));
        let ekg = e.native_ekg();
        let added = ExtConceptId::from_usize(n);
        assert_eq!(ekg.len(), n + 1);
        assert_eq!(ekg.topo_children_first().len(), ekg.len());
        assert_eq!(ekg.depth(added), 1);
        assert_eq!(ekg.lookup_name(name), &[added]);
        e.apply(&doc_delta()).unwrap();
        assert!(outputs_identical(e.output(), &full_twin(&e)));
    }

    #[test]
    fn no_op_delta_changes_nothing() {
        let mut e = engine();
        let before = e.output().clone();
        e.apply(&Delta::default()).unwrap();
        assert!(outputs_identical(e.output(), &before));
    }
}
