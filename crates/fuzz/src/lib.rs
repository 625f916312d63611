//! Differential fuzzing harness for the ingest/relax pipeline.
//!
//! The optimized paths of this workspace (staged parallel ingestion, the
//! query-scoped scoring engine, the sharded batch relaxer, the token-trie
//! matchers) each keep a deliberately naïve reference twin. The ordinary
//! test suites pin the two on *plausible* inputs — generated MED worlds and
//! the paper fragment. This crate attacks the same contracts with
//! *adversarial* inputs instead:
//!
//! * [`worlds`] — a seeded generator of degenerate graphs (singleton,
//!   linear chain, star, disconnected-under-root forests, near-cyclic
//!   shortcut lattices), hostile names (non-ASCII, combining marks,
//!   punctuation-only, 10k-character), and degenerate corpora (empty,
//!   single-document, one-tag-only).
//! * [`oracles`] — differential oracles asserting the optimized paths stay
//!   bit-identical to their references on every such world, across 1/2/4/8
//!   threads.
//!
//! Every divergence the harness ever finds gets a minimized fixture under
//! the repo-root `tests/fixtures/fuzz_regressions/` so it can never
//! silently come back (see DESIGN.md §11).

#![warn(missing_docs)]

pub mod deltas;
pub mod oracles;
pub mod worlds;

pub use deltas::{generate_delta, DeltaKind};
pub use oracles::{
    check_bounds, check_candidates, check_delta, check_federate, check_reach_hybrid,
    check_store_round_trip,
    check_world, THREAD_SWEEP,
};
pub use worlds::{AdversarialWorld, CorpusShape, DagShape, NameStyle};
