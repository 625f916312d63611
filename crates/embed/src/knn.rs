//! Brute-force cosine nearest-neighbour index over phrase embeddings.
//!
//! Used by the embedding mapper (Table 1) to resolve an instance or query
//! term to its nearest external concept name, and by the embedding
//! baselines (Table 2) to rank relaxation candidates. Vectors are
//! L2-normalized at insert so search is a dot-product scan — ample for the
//! tens of thousands of names a terminology carries.

/// A `(payload, score)` search hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Caller-defined payload (e.g. an `ExtConceptId` raw value).
    pub payload: u32,
    /// Cosine similarity in `[-1, 1]`.
    pub score: f64,
}

/// Brute-force cosine index.
#[derive(Debug, Clone, Default)]
pub struct EmbeddingIndex {
    dim: usize,
    payloads: Vec<u32>,
    /// Normalized vectors, row-major.
    data: Vec<f32>,
}

impl EmbeddingIndex {
    /// An empty index of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        Self { dim, payloads: Vec::new(), data: Vec::new() }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Insert `vector` with `payload`. Zero vectors are skipped (they can
    /// never win a cosine search) — returns whether the vector was stored.
    ///
    /// # Panics
    /// Panics if `vector.len()` differs from the index dimensionality.
    pub fn insert(&mut self, payload: u32, vector: &[f32]) -> bool {
        assert_eq!(vector.len(), self.dim, "dimensionality mismatch");
        let norm: f32 = vector.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm == 0.0 {
            return false;
        }
        self.payloads.push(payload);
        self.data.extend(vector.iter().map(|x| x / norm));
        true
    }

    /// The raw index arrays `(dim, payloads, normalized row-major data)`
    /// for persistence — building the index embeds every concept name, so
    /// medkb-store saves the finished arrays instead of re-embedding on
    /// open.
    pub fn to_raw(&self) -> (usize, &[u32], &[f32]) {
        (self.dim, &self.payloads, &self.data)
    }

    /// Reassemble an index from [`EmbeddingIndex::to_raw`] arrays. The
    /// vectors must already be L2-normalized (they are, coming out of
    /// `to_raw`); no renormalization happens here.
    pub fn from_raw(dim: usize, payloads: Vec<u32>, data: Vec<f32>) -> Self {
        debug_assert_eq!(payloads.len() * dim, data.len());
        Self { dim, payloads, data }
    }

    /// The `k` nearest payloads to `query` by cosine, best first.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        assert_eq!(query.len(), self.dim, "dimensionality mismatch");
        let qnorm: f32 = query.iter().map(|x| x * x).sum::<f32>().sqrt();
        if qnorm == 0.0 || k == 0 {
            return Vec::new();
        }
        let q: Vec<f32> = query.iter().map(|x| x / qnorm).collect();
        let mut hits: Vec<Hit> = self
            .payloads
            .iter()
            .enumerate()
            .map(|(i, &payload)| {
                let row = &self.data[i * self.dim..(i + 1) * self.dim];
                let score: f64 =
                    row.iter().zip(&q).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum();
                Hit { payload, score }
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.payload.cmp(&b.payload)));
        hits.truncate(k);
        hits
    }

    /// Bit-level equality: NaN-sound and signed-zero-strict over the
    /// vectors (see [`crate::f32_bits_eq`]).
    pub fn bits_eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.payloads == other.payloads
            && crate::f32_bits_eq(&self.data, &other.data)
    }

    /// The single best hit at or above `min_score`.
    pub fn nearest_above(&self, query: &[f32], min_score: f64) -> Option<Hit> {
        self.search(query, 1).into_iter().find(|h| h.score >= min_score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> EmbeddingIndex {
        let mut idx = EmbeddingIndex::new(3);
        idx.insert(1, &[1.0, 0.0, 0.0]);
        idx.insert(2, &[0.0, 1.0, 0.0]);
        idx.insert(3, &[0.7, 0.7, 0.0]);
        idx
    }

    #[test]
    fn exact_direction_wins() {
        let idx = index();
        let hits = idx.search(&[2.0, 0.0, 0.0], 2);
        assert_eq!(hits[0].payload, 1);
        assert!((hits[0].score - 1.0).abs() < 1e-6);
        assert_eq!(hits[1].payload, 3);
    }

    #[test]
    fn k_truncates() {
        let idx = index();
        assert_eq!(idx.search(&[1.0, 1.0, 0.0], 1).len(), 1);
        assert_eq!(idx.search(&[1.0, 1.0, 0.0], 10).len(), 3);
        assert!(idx.search(&[1.0, 0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn zero_vectors_rejected() {
        let mut idx = EmbeddingIndex::new(2);
        assert!(!idx.insert(9, &[0.0, 0.0]));
        assert!(idx.is_empty());
        assert!(idx.search(&[0.0, 0.0], 3).is_empty());
    }

    #[test]
    fn nearest_above_threshold() {
        let idx = index();
        assert_eq!(idx.nearest_above(&[1.0, 0.0, 0.0], 0.99).unwrap().payload, 1);
        assert!(idx.nearest_above(&[-1.0, 0.0, 0.0], 0.5).is_none());
    }

    #[test]
    fn ties_break_by_payload() {
        let mut idx = EmbeddingIndex::new(2);
        idx.insert(7, &[1.0, 0.0]);
        idx.insert(4, &[1.0, 0.0]);
        let hits = idx.search(&[1.0, 0.0], 2);
        assert_eq!(hits[0].payload, 4);
        assert_eq!(hits[1].payload, 7);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dimension_mismatch_panics() {
        let idx = index();
        let _ = idx.search(&[1.0, 0.0], 1);
    }
}
