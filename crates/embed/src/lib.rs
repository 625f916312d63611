//! Word and phrase embedding substrate, implemented from scratch.
//!
//! The paper uses word embeddings \[8, 30\] and the SIF sentence embedding of
//! Arora et al. \[3\] in three places: as the third mapping method in
//! Table 1, as the `Embedding-trained` / `Embedding-pre-trained` baselines
//! in Table 2, and as the fallback lookup for query terms. Pre-trained
//! biomedical vectors \[32\] are download-gated, so *both* embedding flavours
//! here are trained by the same code — the "pre-trained" variant simply
//! trains on the out-of-domain corpus (see `medkb-corpus::gen`).
//!
//! * [`sgns`] — skip-gram with negative sampling over a corpus.
//! * [`sif`] — smooth inverse frequency phrase embeddings with first
//!   principal component removal (power iteration, also from scratch).
//! * [`knn`] — brute-force cosine nearest-neighbour index.

#![warn(missing_docs)]

pub mod knn;
pub mod sgns;
pub mod sif;

pub use knn::EmbeddingIndex;
pub use sgns::{SgnsConfig, WordVectors};
pub use sif::SifModel;

/// Bit-level equality of two `f32` slices: same length, same bit pattern
/// per element. Stricter than `==` on signed zeros (`0.0` vs `-0.0`
/// differ) and sound on NaN (a NaN equals the same NaN bits, where `==`
/// would say unequal) — the comparison the bit-identity oracles need.
pub fn f32_bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
