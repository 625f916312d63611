//! Runtime observability for the medkb pipeline: a thread-safe metrics
//! registry built from `std` atomics only (no external dependencies), plus
//! lightweight scoped span timers. The crate also holds the workspace's
//! one JSON codec ([`Json`], [`escape`], [`validate_json`]).
//!
//! Three metric kinds, all lock-free on the hot path:
//!
//! * [`Counter`] — monotonic `u64`, for work items (queries served,
//!   candidates scanned, cache hits),
//! * [`Gauge`] — last-write-wins `u64`, for configuration echoes and level
//!   readings (worker threads, world size),
//! * [`Histogram`] — fixed-bucket distribution with total count and sum,
//!   for latencies (microseconds) and size distributions.
//!
//! Handles are interned in a [`Registry`]; registration takes a mutex, so
//! callers resolve handles **once** (at engine construction) and record
//! through the `Arc`s afterwards. [`Registry::snapshot`] freezes the whole
//! registry into a [`MetricsSnapshot`] that serializes to deterministic
//! JSON: [`MetricsSnapshot::to_json`] carries everything (wall-clock
//! values included), [`MetricsSnapshot::to_json_stable`] carries only the
//! run-deterministic subset (counters, gauges, and histogram observation
//! counts) and is byte-identical across same-input runs at any thread
//! count — the conformance tests pin it.
//!
//! Metric naming (DESIGN.md §10): dot-separated `component.subject.unit`
//! static strings (`relax.latency_us`, `ingest.stage.mapping_us`). Names
//! are `&'static str` by design — the registry is a fixed, low-cardinality
//! set of series; per-entity labels (per-concept, per-query) are banned.
//!
//! Registered families and their owning name modules: `relax.*`
//! (`medkb_core::relax::obs_names`), `ingest.*`
//! (`medkb_core::ingest::obs_names`), `corpus.*`
//! (`medkb_corpus::counts::obs_names`), `serve.*`
//! (`medkb_serve::obs_names`), and `delta.*`
//! (`medkb_core::delta::obs_names`) — the incremental-ingestion family
//! (DESIGN.md §15): per-apply latency and op throughput plus the
//! fallback counters (`delta.fallback_full_rebuilds`,
//! `delta.full_recounts`, `delta.full_remaps`,
//! `delta.full_freq_recomputes`, `delta.shortcut_reruns`) that say when
//! an apply degenerated to a stage's full recompute. The fallbacks are
//! the family's point: `BENCH_delta.json` gates
//! `delta.fallback_full_rebuilds == 0` on document-only deltas, and an
//! operator alerting on them catches deltas that silently stopped being
//! incremental.

#![warn(missing_docs)]

mod json;
mod registry;
mod snapshot;

pub use json::{escape, validate_json, Json};
pub use registry::{Counter, Gauge, Histogram, Registry, SpanTimer, LATENCY_BOUNDS_US};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
