//! Shared foundation types for the `medkb` workspace.
//!
//! Every crate in the workspace speaks in terms of the small, `Copy`
//! identifier types defined here rather than passing strings around. Names
//! are interned once (see [`StringInterner`]) and all hot-path data
//! structures are dense vectors indexed by id (see [`IdVec`]), following the
//! usual database-engine idiom of resolving symbols at the boundary.
//!
//! The identifier namespaces mirror the paper's vocabulary:
//!
//! * [`ExtConceptId`] — a concept in the *external knowledge source*
//!   (SNOMED CT in the paper); the paper calls these "external concepts".
//! * [`OntoConceptId`] / [`RelationshipId`] — concepts and relationships of
//!   the *domain ontology* (the TBox of the medical KB).
//! * [`ContextId`] — a `(domain, relationship, range)` triple; the unit of
//!   contextual information threaded through the whole system.
//! * [`InstanceId`] — a row of instance data in the KB (the ABox).
//! * [`DocId`] / [`TokenId`] — document corpus coordinates.
//! * [`SourceId`] — a registered external source in a federated deployment
//!   (the relaxer can scatter over several ontologies at once).

#![warn(missing_docs)]

pub mod column;
pub mod error;
pub mod ids;
pub mod idvec;
pub mod intern;
pub mod par;
pub mod validation;

pub use column::StringColumn;
pub use error::{MedKbError, Result};
pub use ids::{
    ContextId, DocId, ExtConceptId, Id, InstanceId, OntoConceptId, RelationshipId, SourceId,
    TokenId,
};
pub use idvec::IdVec;
pub use intern::StringInterner;
pub use validation::{Defect, ValidationReport};
