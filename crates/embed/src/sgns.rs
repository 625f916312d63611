//! Skip-gram with negative sampling (word2vec-style), from scratch.
//!
//! Training is minibatch SGD: each batch of sentences computes its update
//! coefficients against the weights frozen at batch start and applies them
//! in sentence order, which makes the gradient computation embarrassingly
//! parallel without sacrificing bit-exact determinism (DESIGN.md §9).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use medkb_corpus::Corpus;
use medkb_types::par::shard_map;
use medkb_types::{Id, IdVec, StringInterner, TokenId};

/// Metric names the SGNS trainer records (DESIGN.md §10).
pub mod obs_names {
    /// Wall time per training epoch (µs histogram).
    pub const EPOCH_US: &str = "embed.sgns.epoch_us";
    /// Training epochs completed (counter).
    pub const EPOCHS: &str = "embed.sgns.epochs";
}

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct SgnsConfig {
    /// RNG seed (initialization, window sampling, negatives).
    pub seed: u64,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Symmetric context window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Training epochs over the corpus.
    pub epochs: usize,
    /// Initial learning rate (linearly decayed to 10%).
    pub lr: f32,
    /// Frequent-word subsampling threshold (word2vec's `t`); 0 disables.
    pub subsample: f64,
    /// Sentences per minibatch: gradients inside one batch are computed
    /// against the weights frozen at batch start, then applied in
    /// sentence order. Smaller batches track online SGD more closely;
    /// larger batches expose more parallelism but overshoot on frequent
    /// words once too many same-point gradients pile onto one row (the
    /// default 8 matches online-SGD quality on the mapper calibration
    /// corpora).
    pub batch_sentences: usize,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED_0004,
            dim: 48,
            window: 4,
            negatives: 5,
            epochs: 3,
            lr: 0.05,
            subsample: 1e-3,
            batch_sentences: 8,
        }
    }
}

impl SgnsConfig {
    /// A fast configuration for unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self { seed, dim: 24, epochs: 2, ..Self::default() }
    }
}

/// Trained word vectors plus the corpus unigram statistics they came with,
/// in the layout of the store's `mapper` section (DESIGN.md §14.2): one row
/// per token id, all rows in one row-major matrix. `vecs` holds
/// `vocab.len() × dim` values and `counts` one count per word; the store's
/// decoder checks both.
#[derive(Debug, Clone)]
pub struct WordVectors {
    /// The vocabulary; token ids number the rows.
    pub vocab: StringInterner<TokenId>,
    /// Every row concatenated.
    pub vecs: Vec<f32>,
    /// Corpus count per word.
    pub counts: IdVec<TokenId, u64>,
    /// Total token count of the training corpus.
    pub total_tokens: u64,
    /// Embedding dimensionality.
    pub dim: usize,
}

impl WordVectors {
    /// Train on `corpus` (single worker; see
    /// [`WordVectors::train_with_threads`] for the sharded form — both are
    /// pinned bit-identical to [`WordVectors::train_reference`]).
    pub fn train(corpus: &Corpus, config: &SgnsConfig) -> Self {
        Self::train_with_threads(corpus, config, 1)
    }

    /// Minibatch SGNS, sharding gradient *computation* over `threads`
    /// scoped workers while keeping gradient *application* sequential.
    ///
    /// Each minibatch (`config.batch_sentences` sentences) freezes the
    /// weight matrices, computes every update coefficient `g` against that
    /// frozen state — pure per sentence thanks to two independent
    /// splitmix64-derived RNG streams per (epoch, sentence) — and then
    /// applies the updates in sentence/op order against a snapshot of the
    /// touched rows. Nothing about the result depends on how sentences
    /// were sharded, so the output is bit-identical for every `threads`
    /// value (see DESIGN.md §9).
    pub fn train_with_threads(corpus: &Corpus, config: &SgnsConfig, threads: usize) -> Self {
        Self::train_with_threads_obs(corpus, config, threads, None)
    }

    /// [`WordVectors::train_with_threads`] with optional instrumentation:
    /// records per-epoch wall time and the epoch count into `obs` (metric
    /// names in [`obs_names`]). `None` is exactly the plain call.
    pub fn train_with_threads_obs(
        corpus: &Corpus,
        config: &SgnsConfig,
        threads: usize,
        obs: Option<&medkb_obs::Registry>,
    ) -> Self {
        let (vocab, counts, total, table, mut w_in, mut w_out) = init_state(corpus, config);
        let n = vocab.len();
        let dim = config.dim;

        let sentences: Vec<&[TokenId]> =
            corpus.sentences().map(|s| s.tokens.as_slice()).collect();
        let total_steps = (config.epochs * corpus.token_count()).max(1);
        let batch = config.batch_sentences.max(1);
        let mut snap_in = RowSnapshot::new(n);
        let mut snap_out = RowSnapshot::new(n);
        let mut step_base = 0usize;

        let epoch_timer = obs.map(|reg| reg.latency(obs_names::EPOCH_US));
        let epoch_counter = obs.map(|reg| reg.counter(obs_names::EPOCHS));
        for epoch in 0..config.epochs {
            let _span = epoch_timer.as_deref().map(|h| h.time());
            if let Some(c) = &epoch_counter {
                c.inc();
            }
            let mut s0 = 0usize;
            while s0 < sentences.len() {
                let s1 = (s0 + batch).min(sentences.len());
                let batch_sentences = &sentences[s0..s1];

                // Phase 1: frequent-word subsampling, one independent RNG
                // stream per sentence (thread-partitioning can't shift it).
                let kept: Vec<Vec<TokenId>> = shard_map(batch_sentences.len(), threads, |i| {
                    let mut rng = StdRng::seed_from_u64(sentence_seed(
                        config.seed,
                        epoch,
                        s0 + i,
                        0,
                    ));
                    kept_tokens(batch_sentences[i], &counts, total, config.subsample, &mut rng)
                });
                let mut starts = Vec::with_capacity(kept.len());
                let mut acc = step_base;
                for k in &kept {
                    starts.push(acc);
                    acc += k.len();
                }

                // Phase 2: update coefficients against the frozen weights.
                let per_sentence: Vec<Vec<Op>> = shard_map(kept.len(), threads, |i| {
                    let mut rng = StdRng::seed_from_u64(sentence_seed(
                        config.seed,
                        epoch,
                        s0 + i,
                        1,
                    ));
                    let mut out = Vec::new();
                    sentence_ops(
                        &kept[i],
                        starts[i],
                        total_steps,
                        config,
                        &table,
                        &w_in,
                        &w_out,
                        &mut rng,
                        &mut out,
                    );
                    out
                });

                // Phase 3: sequential application in sentence/op order.
                let mut ops = Vec::new();
                for v in per_sentence {
                    ops.extend(v);
                }
                apply_ops(&ops, &mut w_in, &mut w_out, dim, &mut snap_in, &mut snap_out);
                step_base = acc;
                s0 = s1;
            }
        }

        Self { vocab, vecs: w_in, counts, total_tokens: total, dim }
    }

    /// The bit-exactness oracle the sharded trainer is pinned against: the
    /// same minibatch algorithm written as straight-line sequential loops
    /// with a naïve per-batch row snapshot (the `relax_concept_reference`
    /// discipline from DESIGN.md §8).
    pub fn train_reference(corpus: &Corpus, config: &SgnsConfig) -> Self {
        let (vocab, counts, total, table, mut w_in, mut w_out) = init_state(corpus, config);
        let dim = config.dim;

        let sentences: Vec<&[TokenId]> =
            corpus.sentences().map(|s| s.tokens.as_slice()).collect();
        let total_steps = (config.epochs * corpus.token_count()).max(1);
        let batch = config.batch_sentences.max(1);
        let mut step_base = 0usize;

        for epoch in 0..config.epochs {
            let mut s0 = 0usize;
            while s0 < sentences.len() {
                let s1 = (s0 + batch).min(sentences.len());
                let mut ops = Vec::new();
                let mut steps = 0usize;
                for (off, sent) in sentences[s0..s1].iter().enumerate() {
                    let idx = s0 + off;
                    let mut keep_rng =
                        StdRng::seed_from_u64(sentence_seed(config.seed, epoch, idx, 0));
                    let kept = kept_tokens(sent, &counts, total, config.subsample, &mut keep_rng);
                    let mut pair_rng =
                        StdRng::seed_from_u64(sentence_seed(config.seed, epoch, idx, 1));
                    sentence_ops(
                        &kept,
                        step_base + steps,
                        total_steps,
                        config,
                        &table,
                        &w_in,
                        &w_out,
                        &mut pair_rng,
                        &mut ops,
                    );
                    steps += kept.len();
                }
                step_base += steps;

                let mut snap_in: HashMap<usize, Vec<f32>> = HashMap::new();
                let mut snap_out: HashMap<usize, Vec<f32>> = HashMap::new();
                for op in &ops {
                    let (c, o) = (op.center as usize, op.other as usize);
                    snap_in.entry(c).or_insert_with(|| w_in[c * dim..(c + 1) * dim].to_vec());
                    snap_out.entry(o).or_insert_with(|| w_out[o * dim..(o + 1) * dim].to_vec());
                }
                for op in &ops {
                    let (c, o) = (op.center as usize, op.other as usize);
                    let sin = &snap_in[&c];
                    let sout = &snap_out[&o];
                    for d in 0..dim {
                        w_in[c * dim + d] += op.g * sout[d];
                        w_out[o * dim + d] += op.g * sin[d];
                    }
                }
                s0 = s1;
            }
        }

        Self { vocab, vecs: w_in, counts, total_tokens: total, dim }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// The vector of `word`, if in vocabulary.
    pub fn get(&self, word: &str) -> Option<&[f32]> {
        self.vocab.get(word).map(|t| self.row(t))
    }

    fn row(&self, t: TokenId) -> &[f32] {
        &self.vecs[t.as_usize() * self.dim..][..self.dim]
    }

    /// Iterate over the vocabulary words.
    pub fn words(&self) -> impl Iterator<Item = &str> + Clone {
        self.vocab.iter().map(|(_, w)| w)
    }

    /// Unigram probability of `word` (0 for OOV).
    pub fn probability(&self, word: &str) -> f64 {
        match self.vocab.get(word) {
            Some(t) => self.counts[t] as f64 / self.total_tokens.max(1) as f64,
            None => 0.0,
        }
    }

    /// Cosine similarity of two in-vocabulary words, `None` if either is
    /// OOV.
    pub fn cosine(&self, a: &str, b: &str) -> Option<f64> {
        let (va, vb) = (self.get(a)?, self.get(b)?);
        Some(cosine(va, vb))
    }

    /// Bit-level equality. Unlike `==` on floats, this treats a NaN as
    /// equal to the same NaN bit pattern (and `0.0` as distinct from
    /// `-0.0`): large SGNS runs can diverge into NaN rows, and a
    /// bit-identity oracle must not report two identical such models as
    /// different.
    pub fn bits_eq(&self, other: &Self) -> bool {
        self.words().eq(other.words())
            && crate::f32_bits_eq(&self.vecs, &other.vecs)
            && self.counts == other.counts
            && self.total_tokens == other.total_tokens
            && self.dim == other.dim
    }

    /// Serialize to a TSV document: a `dim <TAB> total` header, then one
    /// `word <TAB> count <TAB> v1 v2 …` line per vocabulary entry. The
    /// trained model for a paper-scale corpus is a few megabytes — cheap to
    /// cache next to the generated world.
    pub fn write_tsv(&self) -> String {
        let mut out = format!("{}\t{}\n", self.dim, self.total_tokens);
        for (t, w) in self.vocab.iter() {
            let vec_str: Vec<String> = self.row(t).iter().map(|x| format!("{x:.6e}")).collect();
            out.push_str(&format!("{w}\t{}\t{}\n", self.counts[t], vec_str.join(" ")));
        }
        out
    }

    /// Parse a document produced by [`WordVectors::write_tsv`].
    ///
    /// # Errors
    /// [`medkb_types::MedKbError::Validation`] listing **every** malformed
    /// row (bad field count, bad count, non-finite or wrong-arity vector,
    /// duplicate word) with line numbers; a broken header is reported
    /// immediately since nothing after it can be interpreted.
    pub fn read_tsv(doc: &str) -> medkb_types::Result<Self> {
        use medkb_types::ValidationReport;
        let mut report = ValidationReport::new();
        let mut lines = doc.lines().enumerate();
        let header = match lines.next() {
            Some((_, h)) => h,
            None => {
                report.defect("word vectors", Some(1), "missing header");
                return report.into_result().map(|()| unreachable!());
            }
        };
        let mut hp = header.split('\t');
        let dim: Option<usize> = hp.next().and_then(|x| x.parse().ok());
        let total: Option<u64> = hp.next().and_then(|x| x.parse().ok());
        let (Some(dim), Some(total)) = (dim, total) else {
            report.defect("word vectors", Some(1), "bad header (want `dim <TAB> total`)");
            return report.into_result().map(|()| unreachable!());
        };
        let mut vocab: StringInterner<TokenId> = StringInterner::new();
        let mut vecs: Vec<f32> = Vec::new();
        let mut counts: IdVec<TokenId, u64> = IdVec::new();
        for (i, line) in lines {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, '\t');
            let (word, count, values) = match (parts.next(), parts.next(), parts.next()) {
                (Some(w), Some(c), Some(v)) if !w.is_empty() => (w, c, v),
                _ => {
                    report.defect("word vectors", Some(i + 1), "expected 3 tab fields");
                    continue;
                }
            };
            let count: u64 = match count.parse() {
                Ok(c) => c,
                Err(_) => {
                    report.defect("word vectors", Some(i + 1), "bad count");
                    continue;
                }
            };
            let vec: Vec<f32> = match values
                .split(' ')
                .map(|x| x.parse::<f32>())
                .collect::<std::result::Result<_, _>>()
            {
                Ok(v) => v,
                Err(_) => {
                    report.defect("word vectors", Some(i + 1), "bad vector component");
                    continue;
                }
            };
            if vec.iter().any(|x| !x.is_finite()) {
                // A NaN/∞ component would silently poison every cosine
                // similarity computed downstream.
                report.defect("word vectors", Some(i + 1), "non-finite vector component");
                continue;
            }
            if vec.len() != dim {
                report.defect("word vectors", Some(i + 1), "vector dimensionality mismatch");
                continue;
            }
            if vocab.get(word).is_some() {
                report.defect("word vectors", Some(i + 1), "duplicate word");
                continue;
            }
            vocab.intern(word);
            vecs.extend_from_slice(&vec);
            counts.push(count);
        }
        report.into_result_with(Self { vocab, vecs, counts, total_tokens: total, dim })
    }

    /// The `k` vocabulary words most cosine-similar to `word` (excluding
    /// the word itself); empty for OOV input.
    pub fn most_similar(&self, word: &str, k: usize) -> Vec<(&str, f64)> {
        let Some(v) = self.get(word) else { return Vec::new() };
        let mut scored: Vec<(&str, f64)> = self
            .vocab
            .iter()
            .filter(|(_, w)| *w != word)
            .map(|(t, w)| (w, cosine(v, self.row(t))))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        scored.truncate(k);
        scored
    }
}

/// Cosine similarity of two equal-length vectors (0 if either is zero).
pub fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += f64::from(x) * f64::from(y);
        na += f64::from(x) * f64::from(x);
        nb += f64::from(y) * f64::from(y);
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Everything [`init_state`] hands to a trainer: `(vocab, counts,
/// total_tokens, negative_table, w_in, w_out)`.
type TrainerState =
    (StringInterner<TokenId>, IdVec<TokenId, u64>, u64, NegativeTable, Vec<f32>, Vec<f32>);

/// Unigram counts, negative table, and word2vec-initialized matrices
/// (input rows uniform in `±0.5/dim`, output rows zero) shared by every
/// trainer variant.
fn init_state(corpus: &Corpus, config: &SgnsConfig) -> TrainerState {
    let vocab = corpus.vocab.clone();
    let n = vocab.len();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut counts: IdVec<TokenId, u64> = IdVec::filled(0, n);
    let mut total: u64 = 0;
    for s in corpus.sentences() {
        for &t in &s.tokens {
            counts[t] += 1;
            total += 1;
        }
    }
    let table = NegativeTable::build(&counts);
    let w_in: Vec<f32> =
        (0..n * config.dim).map(|_| (rng.gen::<f32>() - 0.5) / config.dim as f32).collect();
    let w_out: Vec<f32> = vec![0.0; n * config.dim];
    (vocab, counts, total, table, w_in, w_out)
}

/// One deferred SGD update: `w_in[center] += g·w_out_snap[other]` and
/// `w_out[other] += g·w_in_snap[center]`, where `g` is pre-scaled by the
/// learning rate and the snapshots are the batch-start weights.
#[derive(Debug, Clone, Copy)]
struct Op {
    center: u32,
    other: u32,
    g: f32,
}

/// SplitMix64 finalizer — cheap, well-mixed stream splitting for the
/// per-sentence RNGs (independent of thread partitioning by construction).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of one of the two independent per-(epoch, sentence) RNG streams
/// (`stream` 0 = subsampling draws, 1 = window radii and negatives).
fn sentence_seed(seed: u64, epoch: usize, sentence: usize, stream: u64) -> u64 {
    splitmix64(
        splitmix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
            .wrapping_add((epoch as u64) << 32)
            .wrapping_add(sentence as u64),
    )
}

/// Frequent-word subsampling of one sentence (word2vec's keep rule).
fn kept_tokens(
    tokens: &[TokenId],
    counts: &IdVec<TokenId, u64>,
    total: u64,
    subsample: f64,
    rng: &mut StdRng,
) -> Vec<TokenId> {
    tokens
        .iter()
        .copied()
        .filter(|&t| {
            if subsample <= 0.0 {
                return true;
            }
            let f = counts[t] as f64 / total.max(1) as f64;
            let keep = ((subsample / f).sqrt() + subsample / f).min(1.0);
            rng.gen::<f64>() < keep
        })
        .collect()
}

/// Append one sentence's update ops, coefficients computed against the
/// frozen batch-start weights.
#[allow(clippy::too_many_arguments)]
fn sentence_ops(
    kept: &[TokenId],
    start_step: usize,
    total_steps: usize,
    config: &SgnsConfig,
    table: &NegativeTable,
    w_in: &[f32],
    w_out: &[f32],
    rng: &mut StdRng,
    out: &mut Vec<Op>,
) {
    let dim = config.dim;
    for (i, &center) in kept.iter().enumerate() {
        let step = start_step + i + 1;
        let progress = step as f32 / total_steps as f32;
        let lr = config.lr * (1.0 - 0.9 * progress.min(1.0));
        let radius = rng.gen_range(1..=config.window);
        let lo = i.saturating_sub(radius);
        let hi = (i + radius).min(kept.len() - 1);
        for (j, &context) in kept[lo..=hi].iter().enumerate() {
            if lo + j == i {
                continue;
            }
            out.push(make_op(w_in, w_out, dim, center.as_usize(), context.as_usize(), true, lr));
            for _ in 0..config.negatives {
                let neg = table.sample(rng);
                if neg == context.as_usize() {
                    continue;
                }
                out.push(make_op(w_in, w_out, dim, center.as_usize(), neg, false, lr));
            }
        }
    }
}

/// The SGNS gradient coefficient of one (center, other) pair.
fn make_op(
    w_in: &[f32],
    w_out: &[f32],
    dim: usize,
    center: usize,
    other: usize,
    positive: bool,
    lr: f32,
) -> Op {
    let (ci, oi) = (center * dim, other * dim);
    let mut dot = 0.0f32;
    for d in 0..dim {
        dot += w_in[ci + d] * w_out[oi + d];
    }
    let label = if positive { 1.0 } else { 0.0 };
    Op { center: center as u32, other: other as u32, g: lr * (label - sigmoid(dot)) }
}

/// Reusable buffer capturing the batch-start value of every touched matrix
/// row exactly once (epoch-stamped, so reset is O(1) per batch).
struct RowSnapshot {
    stamp: Vec<u32>,
    slot: Vec<u32>,
    epoch: u32,
    data: Vec<f32>,
}

impl RowSnapshot {
    fn new(rows: usize) -> Self {
        Self { stamp: vec![0; rows], slot: vec![0; rows], epoch: 0, data: Vec::new() }
    }

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.data.clear();
    }

    fn capture(&mut self, row: usize, src: &[f32], dim: usize) {
        if self.stamp[row] != self.epoch {
            self.stamp[row] = self.epoch;
            self.slot[row] = (self.data.len() / dim) as u32;
            self.data.extend_from_slice(&src[row * dim..(row + 1) * dim]);
        }
    }

    fn row(&self, row: usize, dim: usize) -> &[f32] {
        let s = self.slot[row] as usize * dim;
        &self.data[s..s + dim]
    }
}

/// Apply a batch's ops in order against the batch-start snapshot. Every
/// update reads snapshot rows only, so per-row accumulation order (= op
/// order) is the single float-summation degree of freedom — and it is
/// fixed, making the result independent of how the ops were computed.
fn apply_ops(
    ops: &[Op],
    w_in: &mut [f32],
    w_out: &mut [f32],
    dim: usize,
    snap_in: &mut RowSnapshot,
    snap_out: &mut RowSnapshot,
) {
    snap_in.begin();
    snap_out.begin();
    for op in ops {
        snap_in.capture(op.center as usize, w_in, dim);
        snap_out.capture(op.other as usize, w_out, dim);
    }
    for op in ops {
        let ci = op.center as usize * dim;
        let oi = op.other as usize * dim;
        let sin = snap_in.row(op.center as usize, dim);
        let sout = snap_out.row(op.other as usize, dim);
        for d in 0..dim {
            w_in[ci + d] += op.g * sout[d];
            w_out[oi + d] += op.g * sin[d];
        }
    }
}

/// Unigram^0.75 negative sampling table.
struct NegativeTable {
    cum: Vec<f64>,
}

impl NegativeTable {
    fn build(counts: &IdVec<TokenId, u64>) -> Self {
        let mut cum = Vec::with_capacity(counts.len());
        let mut total = 0.0;
        for (_, &c) in counts.iter() {
            total += (c as f64).powf(0.75);
            cum.push(total);
        }
        Self { cum }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cum.last().unwrap_or(&0.0);
        if total <= 0.0 {
            return 0;
        }
        let target = rng.gen::<f64>() * total;
        self.cum.partition_point(|&x| x < target).min(self.cum.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medkb_corpus::{Corpus, Document, Sentence};
    use medkb_snomed::ContextTag;
    use medkb_text::tokenize;

    /// A tiny corpus with two clearly separated topics: (apple, banana,
    /// fruit) vs (bolt, wrench, tool). SGNS should place same-topic words
    /// closer.
    fn topic_corpus() -> Corpus {
        let mut c = Corpus::new();
        let sent = |text: &str, c: &mut Corpus| Sentence {
            tag: ContextTag::General,
            tokens: tokenize(text).into_iter().map(|t| c.vocab.intern(&t)).collect(),
        };
        let fruit = [
            "the apple is a sweet fruit",
            "a banana is a yellow fruit",
            "fresh fruit like apple and banana tastes sweet",
            "the sweet banana and the apple are fruit",
        ];
        let tools = [
            "the bolt is turned with a wrench",
            "a wrench is a metal tool",
            "every tool like bolt and wrench is metal",
            "the metal wrench and the bolt are tool",
        ];
        for _ in 0..30 {
            for t in fruit.iter().chain(tools.iter()) {
                let s = sent(t, &mut c);
                c.docs.push(Document { sentences: vec![s] });
            }
        }
        c
    }

    #[test]
    fn learns_topic_separation() {
        let corpus = topic_corpus();
        let wv = WordVectors::train(&corpus, &SgnsConfig { subsample: 0.0, ..SgnsConfig::tiny(3) });
        let same = wv.cosine("apple", "banana").unwrap();
        let cross = wv.cosine("apple", "wrench").unwrap();
        assert!(
            same > cross,
            "same-topic {same:.3} should exceed cross-topic {cross:.3}"
        );
    }

    #[test]
    fn oov_is_none() {
        let corpus = topic_corpus();
        let wv = WordVectors::train(&corpus, &SgnsConfig::tiny(4));
        assert!(wv.get("zeppelin").is_none());
        assert_eq!(wv.probability("zeppelin"), 0.0);
        assert!(wv.cosine("apple", "zeppelin").is_none());
    }

    #[test]
    fn deterministic_training() {
        let corpus = topic_corpus();
        let a = WordVectors::train(&corpus, &SgnsConfig::tiny(5));
        let b = WordVectors::train(&corpus, &SgnsConfig::tiny(5));
        assert_eq!(a.get("apple").unwrap(), b.get("apple").unwrap());
    }

    #[test]
    fn train_matches_reference_bit_identically() {
        let corpus = topic_corpus();
        let configs = [
            SgnsConfig::tiny(5),
            SgnsConfig { subsample: 0.0, batch_sentences: 7, ..SgnsConfig::tiny(11) },
            SgnsConfig { batch_sentences: 1, ..SgnsConfig::tiny(13) },
        ];
        for cfg in &configs {
            let reference = WordVectors::train_reference(&corpus, cfg);
            let trained = WordVectors::train(&corpus, cfg);
            for w in reference.words() {
                assert_eq!(trained.get(w), reference.get(w), "train vs reference, {w}");
            }
            for threads in [2, 4, 8] {
                let par = WordVectors::train_with_threads(&corpus, cfg, threads);
                for w in reference.words() {
                    assert_eq!(par.get(w), reference.get(w), "threads={threads} word={w}");
                }
            }
        }
    }

    #[test]
    fn probability_sums_to_one() {
        let corpus = topic_corpus();
        let wv = WordVectors::train(&corpus, &SgnsConfig::tiny(6));
        let sum: f64 = corpus.vocab.iter().map(|(_, w)| wv.probability(w)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "{sum}");
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        assert!((cosine(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn most_similar_surfaces_topic_mates() {
        let corpus = topic_corpus();
        // Seed re-pinned (9 → 11) for the minibatch trainer; see
        // EXPERIMENTS.md.
        let wv = WordVectors::train(&corpus, &SgnsConfig { subsample: 0.0, ..SgnsConfig::tiny(11) });
        let top: Vec<&str> = wv.most_similar("apple", 5).into_iter().map(|(w, _)| w).collect();
        assert!(top.contains(&"banana") || top.contains(&"fruit"), "{top:?}");
        assert!(!top.contains(&"apple"));
        assert!(wv.most_similar("zeppelin", 3).is_empty());
        assert_eq!(wv.most_similar("apple", 2).len(), 2);
    }

    #[test]
    fn tsv_roundtrip_preserves_everything() {
        let corpus = topic_corpus();
        let wv = WordVectors::train(&corpus, &SgnsConfig::tiny(12));
        let doc = wv.write_tsv();
        let back = WordVectors::read_tsv(&doc).unwrap();
        assert_eq!(back.dim(), wv.dim());
        assert_eq!(back.vocab_size(), wv.vocab_size());
        for w in wv.words() {
            assert_eq!(back.probability(w), wv.probability(w), "{w}");
            let (a, b) = (wv.get(w).unwrap(), back.get(w).unwrap());
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn tsv_rejects_malformed_input() {
        assert!(WordVectors::read_tsv("").is_err());
        assert!(WordVectors::read_tsv("x\t10\n").is_err());
        assert!(WordVectors::read_tsv("2\t10\nword\t1\t0.5\n").is_err()); // dim mismatch
        assert!(WordVectors::read_tsv("1\t10\nword\tx\t0.5\n").is_err());
        assert!(WordVectors::read_tsv("1\t10\nw\t1\t0.5\nw\t1\t0.5\n").is_err());
        // NaN/∞ components would poison every downstream cosine.
        assert!(WordVectors::read_tsv("1\t10\nw\t1\tNaN\n").is_err());
        assert!(WordVectors::read_tsv("1\t10\nw\t1\tinf\n").is_err());
    }

    #[test]
    fn tsv_reports_every_defect() {
        let doc = "1\t10\nw\tx\t0.5\nv\t1\t0.5 0.5\nw\t1\tNaN\nu\t1\t0.5\nu\t1\t0.5\n";
        match WordVectors::read_tsv(doc) {
            Err(medkb_types::MedKbError::Validation(r)) => {
                // bad count, dim mismatch, non-finite, duplicate word.
                assert_eq!(r.len(), 4, "{r}");
            }
            other => panic!("expected validation error, got {other:?}"),
        }
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary text or bytes must error cleanly, never panic.
            #[test]
            fn prop_read_tsv_never_panics(
                doc in "[\\x20-\\x7e\\t\\n]{0,160}",
                bytes in proptest::collection::vec(any::<u8>(), 0..160),
            ) {
                let _ = WordVectors::read_tsv(&doc);
                let _ = WordVectors::read_tsv(&String::from_utf8_lossy(&bytes));
            }
        }
    }

    #[test]
    fn dim_and_vocab_accessors() {
        let corpus = topic_corpus();
        let wv = WordVectors::train(&corpus, &SgnsConfig::tiny(7));
        assert_eq!(wv.dim(), 24);
        assert_eq!(wv.vocab_size(), corpus.vocab.len());
        assert_eq!(wv.get("apple").unwrap().len(), 24);
    }
}
