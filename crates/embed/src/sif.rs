//! Smooth Inverse Frequency (SIF) phrase embeddings — the "simple but
//! tough-to-beat" sentence embedding of Arora et al. \[3\], which the paper
//! uses both to embed multi-word query terms and as the
//! `Embedding-trained` baseline.
//!
//! A phrase embeds as the `a / (a + p(w))`-weighted average of its word
//! vectors, minus its projection onto the corpus's first principal
//! component (computed here by power iteration over a sample of sentence
//! embeddings).

use medkb_corpus::Corpus;
use medkb_text::tokenize;

use crate::sgns::WordVectors;

/// A fitted SIF model: word vectors + weighting + common component, as the
/// store's `mapper` section carries them (DESIGN.md §14.2).
#[derive(Debug, Clone)]
pub struct SifModel {
    /// The underlying word vectors.
    pub vectors: WordVectors,
    /// SIF smoothing parameter.
    pub a: f64,
    /// First principal component of the training sentence embeddings.
    pub pc: Vec<f32>,
}

impl SifModel {
    /// Fit over `corpus` with smoothing parameter `a` (the paper's
    /// recommended 1e-3 is the usual choice).
    pub fn fit(vectors: WordVectors, corpus: &Corpus, a: f64) -> Self {
        let dim = vectors.dim();
        // Weighted-average embeddings for a sample of sentences.
        let mut rows: Vec<Vec<f32>> = Vec::new();
        for sentence in corpus.sentences().take(4000) {
            let words: Vec<String> =
                sentence.tokens.iter().map(|&t| corpus.vocab.resolve(t).to_string()).collect();
            if let Some(v) = weighted_average(&vectors, a, words.iter().map(|s| s.as_str())) {
                rows.push(v);
            }
        }
        let pc = first_principal_component(&rows, dim, 30);
        Self { vectors, a, pc }
    }

    /// The underlying word vectors.
    pub fn vectors(&self) -> &WordVectors {
        &self.vectors
    }

    /// Embed a phrase. `None` when every token is out of vocabulary —
    /// the paper's diagnosis for the weak pre-trained baseline.
    pub fn embed(&self, phrase: &str) -> Option<Vec<f32>> {
        let words = tokenize(phrase);
        let mut v = weighted_average(&self.vectors, self.a, words.iter().map(|s| s.as_str()))?;
        remove_projection(&mut v, &self.pc);
        Some(v)
    }

    /// Fraction of the phrase's tokens that are in vocabulary.
    pub fn coverage(&self, phrase: &str) -> f64 {
        let words = tokenize(phrase);
        if words.is_empty() {
            return 0.0;
        }
        let known = words.iter().filter(|w| self.vectors.get(w).is_some()).count();
        known as f64 / words.len() as f64
    }

    /// Cosine similarity of two phrases (`None` if either is fully OOV).
    pub fn similarity(&self, a: &str, b: &str) -> Option<f64> {
        let (va, vb) = (self.embed(a)?, self.embed(b)?);
        Some(crate::sgns::cosine(&va, &vb))
    }

    /// Bit-level equality (see [`WordVectors::bits_eq`]): NaN-sound and
    /// signed-zero-strict, unlike `==` on floats.
    pub fn bits_eq(&self, other: &Self) -> bool {
        self.vectors.bits_eq(&other.vectors)
            && self.a.to_bits() == other.a.to_bits()
            && crate::f32_bits_eq(&self.pc, &other.pc)
    }

    /// Serialize the fitted model: one header line `a <TAB> pc1 pc2 …`,
    /// then the underlying word vectors' TSV document.
    pub fn write_tsv(&self) -> String {
        let pc: Vec<String> = self.pc.iter().map(|x| format!("{x:.6e}")).collect();
        format!("{:.6e}\t{}\n{}", self.a, pc.join(" "), self.vectors.write_tsv())
    }

    /// Parse a document produced by [`SifModel::write_tsv`].
    ///
    /// # Errors
    /// [`medkb_types::MedKbError::Corrupt`] on malformed input.
    pub fn read_tsv(doc: &str) -> medkb_types::Result<Self> {
        use medkb_types::MedKbError;
        let corrupt = |what: &str| MedKbError::Corrupt {
            detail: format!("sif model: {what}"),
        };
        let (header, rest) = doc.split_once('\n').ok_or_else(|| corrupt("missing header"))?;
        let (a_raw, pc_raw) = header.split_once('\t').ok_or_else(|| corrupt("bad header"))?;
        let a: f64 = a_raw.parse().map_err(|_| corrupt("bad smoothing parameter"))?;
        let pc: Vec<f32> = pc_raw
            .split(' ')
            .filter(|x| !x.is_empty())
            .map(|x| x.parse::<f32>())
            .collect::<std::result::Result<_, _>>()
            .map_err(|_| corrupt("bad principal component"))?;
        let vectors = WordVectors::read_tsv(rest)?;
        if pc.len() != vectors.dim() {
            return Err(corrupt("principal component dimensionality mismatch"));
        }
        Ok(Self { vectors, a, pc })
    }
}

/// SIF-weighted average of the word vectors of `words`; `None` if all OOV.
fn weighted_average<'a>(
    vectors: &WordVectors,
    a: f64,
    words: impl Iterator<Item = &'a str>,
) -> Option<Vec<f32>> {
    let mut acc = vec![0.0f32; vectors.dim()];
    let mut n = 0usize;
    for w in words {
        let Some(v) = vectors.get(w) else { continue };
        let weight = (a / (a + vectors.probability(w))) as f32;
        for (x, &y) in acc.iter_mut().zip(v) {
            *x += weight * y;
        }
        n += 1;
    }
    if n == 0 {
        return None;
    }
    for x in acc.iter_mut() {
        *x /= n as f32;
    }
    Some(acc)
}

/// First principal component of `rows` via power iteration.
fn first_principal_component(rows: &[Vec<f32>], dim: usize, iterations: usize) -> Vec<f32> {
    if rows.is_empty() {
        return vec![0.0; dim];
    }
    // Center the rows.
    let mut mean = vec![0.0f64; dim];
    for r in rows {
        for (m, &x) in mean.iter_mut().zip(r) {
            *m += f64::from(x);
        }
    }
    for m in mean.iter_mut() {
        *m /= rows.len() as f64;
    }
    // Deterministic start vector.
    let mut v: Vec<f64> = (0..dim).map(|i| 1.0 + (i as f64) * 0.01).collect();
    normalize(&mut v);
    for _ in 0..iterations {
        // u = Σ_r ((r - mean)·v) (r - mean); avoids materializing X^T X.
        let mut u = vec![0.0f64; dim];
        for r in rows {
            let mut dot = 0.0f64;
            for ((x, m), y) in r.iter().zip(&mean).zip(&v) {
                dot += (f64::from(*x) - m) * y;
            }
            for ((ui, x), m) in u.iter_mut().zip(r).zip(&mean) {
                *ui += dot * (f64::from(*x) - m);
            }
        }
        if u.iter().all(|&x| x == 0.0) {
            break;
        }
        v = u;
        normalize(&mut v);
    }
    v.into_iter().map(|x| x as f32).collect()
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Remove the projection of `v` onto `pc` in place.
fn remove_projection(v: &mut [f32], pc: &[f32]) {
    let dot: f32 = v.iter().zip(pc).map(|(&a, &b)| a * b).sum();
    for (x, &p) in v.iter_mut().zip(pc) {
        *x -= dot * p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgns::SgnsConfig;
    use medkb_corpus::{Document, Sentence};
    use medkb_snomed::ContextTag;

    fn corpus() -> Corpus {
        let mut c = Corpus::new();
        let sent = |text: &str, c: &mut Corpus| Sentence {
            tag: ContextTag::General,
            tokens: tokenize(text).into_iter().map(|t| c.vocab.intern(&t)).collect(),
        };
        let lines = [
            "the drug treats kidney pain quickly",
            "kidney pain responds to the drug",
            "severe kidney ache is kidney pain",
            "the drug treats liver swelling quickly",
            "liver swelling responds to the drug",
            "mild liver bloat is liver swelling",
        ];
        for _ in 0..40 {
            for l in lines {
                let s = sent(l, &mut c);
                c.docs.push(Document { sentences: vec![s] });
            }
        }
        c
    }

    fn model() -> SifModel {
        let c = corpus();
        let wv = WordVectors::train(&c, &SgnsConfig { subsample: 0.0, ..SgnsConfig::tiny(8) });
        SifModel::fit(wv, &c, 1e-3)
    }

    #[test]
    fn embeds_in_vocab_phrases() {
        let m = model();
        let v = m.embed("kidney pain").unwrap();
        assert_eq!(v.len(), 24);
        assert!(v.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn fully_oov_phrase_is_none() {
        let m = model();
        assert!(m.embed("zeppelin flight").is_none());
        assert_eq!(m.coverage("zeppelin flight"), 0.0);
        assert_eq!(m.coverage("kidney zeppelin"), 0.5);
    }

    #[test]
    fn word_order_invariance() {
        let m = model();
        let s = m.similarity("kidney pain", "pain kidney").unwrap();
        assert!(s > 0.999, "{s}");
    }

    #[test]
    fn related_phrases_beat_unrelated() {
        let m = model();
        let related = m.similarity("kidney pain", "kidney ache").unwrap();
        let unrelated = m.similarity("kidney pain", "liver swelling").unwrap();
        assert!(
            related > unrelated,
            "related {related:.3} vs unrelated {unrelated:.3}"
        );
    }

    #[test]
    fn empty_phrase_is_none() {
        let m = model();
        assert!(m.embed("").is_none());
        assert_eq!(m.coverage(""), 0.0);
    }

    #[test]
    fn tsv_roundtrip_preserves_embeddings() {
        let m = model();
        let back = SifModel::read_tsv(&m.write_tsv()).unwrap();
        let (a, b) = (m.embed("kidney pain").unwrap(), back.embed("kidney pain").unwrap());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
        assert!(back.embed("zeppelin").is_none());
    }

    #[test]
    fn tsv_rejects_malformed_models() {
        assert!(SifModel::read_tsv("").is_err());
        assert!(SifModel::read_tsv("not-a-number\t0.1\n1\t10\n").is_err());
        // PC dimensionality mismatch against the embedded vectors.
        assert!(SifModel::read_tsv("1e-3\t0.5 0.5\n1\t10\nw\t1\t0.5\n").is_err());
    }

    #[test]
    fn bits_eq_accepts_identical_nan_vectors() {
        let mut m = model();
        m.vectors.vecs[0] = f32::NAN;
        let twin = m.clone();
        assert_ne!(m.vectors.vecs[0], twin.vectors.vecs[0]); // NaN defeats `==`…
        assert!(m.bits_eq(&twin)); // …but not the bit-level oracle.
        let mut other = m.clone();
        other.pc[0] += 1.0;
        assert!(!m.bits_eq(&other));
    }

    #[test]
    fn pc_is_unit_or_zero() {
        let m = model();
        let norm: f32 = m.pc.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-3 || norm == 0.0, "{norm}");
    }
}
