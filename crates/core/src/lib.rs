//! The paper's contribution: two-phase, context-aware query relaxation
//! over a medical knowledge base backed by an external knowledge source.
//!
//! * **Offline** — [`ingest`] implements Algorithm 1: context generation
//!   from the domain ontology, instance → external-concept mapping with a
//!   pluggable matcher ([`mapping`]), per-context concept frequencies over
//!   the curation corpus ([`frequency`], Eq. 1–2, tf-idf adjusted), and the
//!   sparsity customization that adds shortcut edges between flagged
//!   concepts and their ancestors (Figure 5).
//! * **Online** — [`relax`] implements Algorithm 2: resolve the query term
//!   to an external concept, gather flagged concepts within radius `r`
//!   (optionally growing the radius until `k` results exist), rank by the
//!   novel similarity metric ([`similarity`], Eq. 5 = direction-weighted
//!   path factor × context-aware IC similarity), and return KB instances.
//! * **Baselines and ablations** — [`baselines`] provides the Table 2
//!   competitors (plain IC, embedding rankers, Wu-Palmer) and the
//!   configuration flags in [`config`] switch off individual signals
//!   (QR-no-context, QR-no-corpus).
//! * **Federation** — [`federate`] scatters the online phase over a
//!   registry of several external sources (SNOMED-like, GO, …) and
//!   gather-merges the top-k under a shared score normalization with
//!   per-source provenance (DESIGN.md §17).
//! * **Weight learning** — [`weights`] fits the generalization /
//!   specialization edge weights by logistic regression, the procedure
//!   §5.2 sketches (the paper's empirical values 0.9 / 1.0 are the
//!   defaults).

#![warn(missing_docs)]

pub mod baselines;
pub mod delta;
pub mod federate;
pub mod feedback;
pub mod config;
pub mod frequency;
pub mod ingest;
pub mod mapping;
pub mod pipeline;
pub mod relax;
pub mod similarity;
pub mod weights;

pub use config::{FrequencyMode, MappingMethod, ObsConfig, ParallelConfig, RelaxConfig};
pub use delta::{outputs_identical, Delta, DeltaEngine, DeltaOp};
pub use federate::{
    federated_rank, FederatedAnswer, FederatedRelaxer, FederatedResult, PlannedSource,
    QueryPlan, SkipReason, Source, SourceRegistry, SourceRegistryBuilder, SourceScatter,
};
pub use feedback::{Feedback, FeedbackStore};
pub use frequency::{Frequencies, RawFrequencies};
pub use ingest::{
    ingest, ingest_reference, ingest_with_stats, FlagTable, IngestOutput, IngestStats,
    InstanceIndex, MappingIndex,
};
pub use mapping::ConceptMapper;
pub use pipeline::RelaxationPipeline;
pub use relax::{rank_order, QueryRelaxer, RelaxationResult, RelaxedAnswer, ScoreExplain};
pub use similarity::{QrScorer, QueryScorer, ScoreBounds};
