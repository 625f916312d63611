//! Persistent world store: save and reopen a whole ingested world
//! (DESIGN.md §14).
//!
//! Ingesting a SNOMED-scale world (Algorithm 1: context generation,
//! instance mapping, reachability labelling, frequency/IC rollups,
//! shortcut discovery) is minutes of work; serving wants the result in
//! milliseconds after a restart. This crate lays the entire
//! [`medkb_core::IngestOutput`] into one flat, versioned, checksummed
//! little-endian file — graph, contexts, dense frequency/IC tables,
//! instance mappings, hybrid reachability labels, the fitted SIF model and
//! its concept embedding index — so [`WorldStore::open`] validates
//! checksums and bulk-copies sections back into place instead of
//! re-running Algorithm 1.
//!
//! Reopened worlds are **bit-identical** to the ingest that produced them
//! (pinned by the `medkb-fuzz` store round-trip oracle over adversarial
//! worlds): every section is the columns of the part it holds, encoded in
//! place and decoded straight into that part; every f64 table is persisted
//! by bit pattern, and the only recomputed structures (the reachability
//! index's probe bitsets, the mapper's exact/edit/phonetic tables and
//! n-gram repair index) are deterministic functions of persisted data.
//!
//! Corrupted files — truncation, bit flips, version or magic mismatch —
//! are rejected with a [`medkb_types::MedKbError::Validation`] report
//! naming the failing section; no input can make `open` panic.

#![warn(missing_docs)]

pub mod bytes;
pub mod store;
pub mod xxh;

pub use store::{WorldStore, FORMAT_VERSION, MAGIC};
pub use xxh::xxh64;
