//! External knowledge source substrate.
//!
//! §2.2 of the paper assumes the external knowledge source (SNOMED CT in the
//! evaluation) is a *rooted directed acyclic graph* of concepts linked by
//! subsumption (`A ⊑ B`: `A` specializes `B`), with a single top concept
//! (`owl:Thing`) of which every concept is a descendant. The paper stores
//! SNOMED CT in JanusGraph; this crate is the equivalent embedded graph
//! store, purpose-built for the operations the relaxation method needs:
//!
//! * construction + structural validation ([`EkgBuilder`] / [`Ekg`]),
//! * topological iteration with children before parents (Algorithm 1
//!   line 12),
//! * ancestor/descendant traversal and upward hop distances,
//! * least common subsumer computation with the footnote-1 tie-breaking
//!   ([`lcs`]),
//! * direction-tagged paths between concepts for the Eq. 4 path weight
//!   ([`path`]),
//! * bounded-radius neighborhood search (Algorithm 2 line 2) over the
//!   graph and the application-specific shortcuts ingestion adds, each of
//!   which counts as one hop ([`Shortcuts`] holds them beside the native
//!   graph; [`NeighborhoodScan`] walks the CSR [`Adjacency`] built from
//!   both).

#![warn(missing_docs)]

pub mod graph;
pub mod lcs;
pub mod overlay;
pub mod path;
pub mod reach;
pub mod stats;

pub use graph::{EdgeColumns, Ekg, EkgBuilder, EkgParts, UpwardDistances, UpwardScratch};
pub use lcs::{lcs_with_upward, lcs_with_upward_scratch, LcsOutcome};
pub use overlay::{Adjacency, NeighborhoodScan, Shortcut, Shortcuts};
pub use path::{Direction, PathSummary};
pub use reach::{DenseReachability, ReachabilityIndex};
pub use stats::EkgStats;
