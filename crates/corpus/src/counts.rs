//! Concept mention counting per context, and the tf-idf adjustment.
//!
//! §5.1 "Concept frequency": count how often each external concept name is
//! mentioned in the corpus, *per context*, then adjust for document
//! sparsity with tf-idf ("asthma is mentioned in 54 drug descriptions …
//! whereas lung cancer has only a handful"). Mentions are found with a
//! longest-match token trie over every registered name and synonym of every
//! concept.

use std::collections::HashMap;

use medkb_ekg::Ekg;
use medkb_snomed::oracle::N_TAGS;
use medkb_text::tokenize;
use medkb_types::{par, ExtConceptId, StringInterner, TokenId};

use crate::model::Corpus;

/// Metric names the mention-counting stage records (DESIGN.md §10).
pub mod obs_names {
    /// Wall time of one counting run (µs histogram).
    pub const COUNT_US: &str = "corpus.count_us";
    /// Documents scanned (counter).
    pub const DOCS_SCANNED: &str = "corpus.docs.scanned";
    /// Distinct concepts with at least one mention (counter).
    pub const CONCEPTS_MENTIONED: &str = "corpus.concepts.mentioned";
}

/// Direct (non-recursive) mention statistics of a corpus against a
/// terminology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MentionCounts {
    /// Direct mention count per concept per context tag.
    direct: HashMap<ExtConceptId, [u64; N_TAGS]>,
    /// Number of distinct documents mentioning each concept.
    doc_freq: HashMap<ExtConceptId, u32>,
    /// Total number of documents counted.
    n_docs: usize,
}

impl MentionCounts {
    /// Scan `corpus` for mentions of `ekg` concept names and synonyms.
    ///
    /// A mention is a longest token-trie match; overlapping shorter names
    /// do not double-count ("chronic kidney disease" counts once, not also
    /// as "kidney disease").
    pub fn count(corpus: &Corpus, ekg: &Ekg) -> Self {
        Self::count_through(&TokenTrie::build(ekg, &corpus.vocab), corpus, 1)
    }

    /// Parallel [`MentionCounts::count`]: the document list is split into
    /// contiguous shards, each worker counts its shard into a private
    /// partial table, and the partials are merged in shard order.
    ///
    /// Counts are integer sums per (concept, tag) slot and documents are
    /// independent, so the merged totals equal the sequential totals
    /// exactly for any shard count ([`MentionCounts`] equality is
    /// value-based, so hash-map iteration order cannot leak through).
    pub fn count_with_threads(corpus: &Corpus, ekg: &Ekg, threads: usize) -> Self {
        Self::count_with_threads_obs(corpus, ekg, threads, None)
    }

    /// [`MentionCounts::count_with_threads`] with optional instrumentation:
    /// records the counting stage's wall time and volumes into `obs`
    /// (metric names in [`obs_names`]). `None` is exactly the plain call.
    pub fn count_with_threads_obs(
        corpus: &Corpus,
        ekg: &Ekg,
        threads: usize,
        obs: Option<&medkb_obs::Registry>,
    ) -> Self {
        let timer = obs.map(|reg| reg.latency(obs_names::COUNT_US));
        let out = {
            let _span = timer.as_deref().map(|h| h.time());
            Self::count_through(&TokenTrie::build(ekg, &corpus.vocab), corpus, threads)
        };
        if let Some(reg) = obs {
            reg.counter(obs_names::DOCS_SCANNED).add(corpus.len() as u64);
            reg.counter(obs_names::CONCEPTS_MENTIONED).add(out.direct.len() as u64);
        }
        out
    }

    /// [`MentionCounts::count_with_threads`] through an already built
    /// [`CountTrie`] instead of a fresh one, so a caller that keeps the
    /// trie for incremental recounts builds it once. The trie must be
    /// valid for `corpus.vocab` ([`CountTrie::build`] over the same graph,
    /// then [`CountTrie::validate`] as the vocabulary grows); the counts
    /// are then exactly [`MentionCounts::count_with_threads`]'s.
    pub fn count_with_trie(corpus: &Corpus, trie: &CountTrie, threads: usize) -> Self {
        Self::count_through(&trie.trie, corpus, threads)
    }

    fn count_through(trie: &TokenTrie, corpus: &Corpus, threads: usize) -> Self {
        let mut direct: HashMap<ExtConceptId, [u64; N_TAGS]> = HashMap::new();
        let mut doc_freq: HashMap<ExtConceptId, u32> = HashMap::new();
        if threads <= 1 || corpus.docs.len() < 2 {
            count_docs(trie, &corpus.docs, &mut direct, &mut doc_freq);
            return Self { direct, doc_freq, n_docs: corpus.len() };
        }
        // Each worker counts its chunk into private partial tables.
        let partials = par::shard_chunks(corpus.docs.len(), threads, |r| {
            let mut direct = HashMap::new();
            let mut doc_freq = HashMap::new();
            count_docs(trie, &corpus.docs[r], &mut direct, &mut doc_freq);
            (direct, doc_freq)
        });
        for (part_direct, part_df) in partials {
            for (c, tags) in part_direct {
                let slot = direct.entry(c).or_insert([0; N_TAGS]);
                for (acc, add) in slot.iter_mut().zip(tags) {
                    *acc += add;
                }
            }
            for (c, df) in part_df {
                *doc_freq.entry(c).or_insert(0) += df;
            }
        }
        Self { direct, doc_freq, n_docs: corpus.len() }
    }

    /// Direct mention count of `concept` for a tag index.
    pub fn direct(&self, concept: ExtConceptId, tag_index: usize) -> u64 {
        self.direct.get(&concept).map_or(0, |a| a[tag_index])
    }

    /// Direct mention count summed over all tags.
    pub fn direct_total(&self, concept: ExtConceptId) -> u64 {
        self.direct.get(&concept).map_or(0, |a| a.iter().sum())
    }

    /// Document frequency of `concept`.
    pub fn doc_freq(&self, concept: ExtConceptId) -> u32 {
        self.doc_freq.get(&concept).copied().unwrap_or(0)
    }

    /// Number of documents counted.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Concepts with at least one mention.
    pub fn mentioned_concepts(&self) -> impl Iterator<Item = ExtConceptId> + '_ {
        self.direct.keys().copied()
    }

    /// The tf-idf-adjusted direct weight of `concept` for a tag: raw count
    /// scaled by `idf = ln(1 + N / (1 + df))`. Concepts concentrated in few
    /// documents are damped relative to broadly-mentioned ones, countering
    /// the specialty-drug bias the paper describes.
    pub fn tfidf(&self, concept: ExtConceptId, tag_index: usize) -> f64 {
        let tf = self.direct(concept, tag_index) as f64;
        if tf == 0.0 {
            return 0.0;
        }
        tf * self.idf(concept)
    }

    /// The idf factor of `concept`.
    pub fn idf(&self, concept: ExtConceptId) -> f64 {
        let df = f64::from(self.doc_freq(concept));
        (1.0 + self.n_docs as f64 / (1.0 + df)).ln()
    }

    /// Inject direct counts explicitly (used by the Figure 4 worked-example
    /// reproduction, where the paper fixes the counts).
    pub fn from_direct(
        direct: HashMap<ExtConceptId, [u64; N_TAGS]>,
        doc_freq: HashMap<ExtConceptId, u32>,
        n_docs: usize,
    ) -> Self {
        Self { direct, doc_freq, n_docs }
    }

    /// Incrementally count `docs` (about to be added to the corpus) into
    /// this table using a cached [`CountTrie`]. `self.n_docs` grows by
    /// `docs.len()`.
    ///
    /// The caller must ensure the trie is still valid for the corpus
    /// vocabulary ([`CountTrie::validate`]); under that contract the result
    /// is bit-identical to a fresh [`MentionCounts::count`] over the
    /// extended corpus.
    ///
    /// Returns the concepts whose rows were touched (delta ingestion's
    /// dirty-direct set for the frequency patch).
    pub fn add_docs(
        &mut self,
        trie: &CountTrie,
        docs: &[crate::model::Document],
    ) -> Vec<ExtConceptId> {
        let (direct, doc_freq) = trie.count_partial(docs);
        let mut touched: Vec<ExtConceptId> = direct.keys().copied().collect();
        for (c, tags) in direct {
            let slot = self.direct.entry(c).or_insert([0; N_TAGS]);
            for (acc, add) in slot.iter_mut().zip(tags) {
                *acc += add;
            }
        }
        for (c, df) in doc_freq {
            touched.push(c);
            *self.doc_freq.entry(c).or_insert(0) += df;
        }
        self.n_docs += docs.len();
        touched
    }

    /// Incrementally un-count `docs` (just removed from the corpus) from
    /// this table. Entries whose counts reach zero are deleted, so the
    /// result stays bit-identical to a fresh count (which never creates
    /// zero rows). Same trie-validity contract as
    /// [`MentionCounts::add_docs`]; `docs` must previously have been
    /// counted into `self`. Returns the touched concepts.
    pub fn remove_docs(
        &mut self,
        trie: &CountTrie,
        docs: &[crate::model::Document],
    ) -> Vec<ExtConceptId> {
        let (direct, doc_freq) = trie.count_partial(docs);
        let mut touched: Vec<ExtConceptId> = direct.keys().copied().collect();
        for (c, tags) in direct {
            let slot = self.direct.get_mut(&c).expect("removing uncounted doc mentions");
            for (acc, sub) in slot.iter_mut().zip(tags) {
                *acc -= sub;
            }
            if slot.iter().all(|&v| v == 0) {
                self.direct.remove(&c);
            }
        }
        for (c, df) in doc_freq {
            touched.push(c);
            let slot = self.doc_freq.get_mut(&c).expect("removing uncounted doc freq");
            *slot -= df;
            if *slot == 0 {
                self.doc_freq.remove(&c);
            }
        }
        self.n_docs -= docs.len();
        touched
    }

    /// The pre-optimization counting path, preserved verbatim for the
    /// ingestion benchmark baseline (and the equality pin below): a
    /// hash-map trie scanned with a per-sentence allocation. Produces
    /// exactly the same counts as [`MentionCounts::count`].
    pub fn count_reference(corpus: &Corpus, ekg: &Ekg) -> Self {
        let trie = ReferenceTrie::build(ekg, &corpus.vocab);
        let mut direct: HashMap<ExtConceptId, [u64; N_TAGS]> = HashMap::new();
        let mut doc_freq: HashMap<ExtConceptId, u32> = HashMap::new();
        for doc in &corpus.docs {
            let mut seen_in_doc: std::collections::HashSet<ExtConceptId> =
                std::collections::HashSet::new();
            for sentence in &doc.sentences {
                for concept in trie.scan(&sentence.tokens) {
                    direct.entry(concept).or_insert([0; N_TAGS])[sentence.tag.index()] += 1;
                    seen_in_doc.insert(concept);
                }
            }
            for c in seen_in_doc {
                *doc_freq.entry(c).or_insert(0) += 1;
            }
        }
        Self { direct, doc_freq, n_docs: corpus.len() }
    }
}

/// A reusable mention-counting trie for incremental (delta) recounts.
///
/// Wraps the scanning `TokenTrie` together with the two facts needed to
/// decide whether a cached trie is still *equivalent to a fresh build*
/// after the corpus vocabulary grew:
///
/// * the vocabulary length at build time, and
/// * the set of name tokens that were **out-of-vocabulary** at build time
///   (the trie's insert abandons a phrase at its first OOV token, so a
///   phrase's walk can only change if exactly that token gets interned
///   later).
///
/// New vocabulary tokens that are not in the OOV set cannot appear in any
/// name phrase's reachable prefix, so scanning them as tokens without a
/// transition reproduces the fresh build exactly.
#[derive(Debug)]
pub struct CountTrie {
    trie: TokenTrie,
    /// Lowercased name tokens that were absent from the vocabulary when
    /// the trie was built (first-OOV per phrase; later tokens of an
    /// abandoned phrase cannot affect the walk while the first stays OOV).
    oov: std::collections::HashSet<Box<str>>,
    /// Vocabulary length already checked against `oov`.
    vocab_len: usize,
}

impl CountTrie {
    /// Build the trie over every name and synonym of `ekg` against the
    /// current corpus vocabulary.
    pub fn build(ekg: &Ekg, vocab: &StringInterner<TokenId>) -> Self {
        let mut oov = std::collections::HashSet::new();
        let trie = TokenTrie::build_recording(ekg, vocab, Some(&mut oov));
        Self { trie, oov, vocab_len: vocab.len() }
    }

    /// Check that this trie still scans exactly like a fresh build over
    /// `vocab`: no token interned since the last check matches a name
    /// token that was OOV at build time. On success the check position is
    /// advanced; on failure the caller must rebuild the trie and recount
    /// from scratch.
    pub fn validate(&mut self, vocab: &StringInterner<TokenId>) -> bool {
        if !self.oov.is_empty() {
            for (_, s) in vocab.iter().skip(self.vocab_len) {
                if self.oov.contains(s) {
                    return false;
                }
            }
        }
        self.vocab_len = vocab.len();
        true
    }

    /// Count `docs` into fresh partial tables (used by the ± merges of
    /// [`MentionCounts::add_docs`] / [`MentionCounts::remove_docs`]).
    fn count_partial(
        &self,
        docs: &[crate::model::Document],
    ) -> (HashMap<ExtConceptId, [u64; N_TAGS]>, HashMap<ExtConceptId, u32>) {
        let mut direct = HashMap::new();
        let mut doc_freq = HashMap::new();
        count_docs(&self.trie, docs, &mut direct, &mut doc_freq);
        (direct, doc_freq)
    }
}

/// Count one run of documents into the given partial tables.
fn count_docs(
    trie: &TokenTrie,
    docs: &[crate::model::Document],
    direct: &mut HashMap<ExtConceptId, [u64; N_TAGS]>,
    doc_freq: &mut HashMap<ExtConceptId, u32>,
) {
    let mut seen_in_doc: std::collections::HashSet<ExtConceptId> =
        std::collections::HashSet::new();
    for doc in docs {
        seen_in_doc.clear();
        for sentence in &doc.sentences {
            trie.scan_into(&sentence.tokens, |concept| {
                direct.entry(concept).or_insert([0; N_TAGS])[sentence.tag.index()] += 1;
                seen_in_doc.insert(concept);
            });
        }
        for &c in &seen_in_doc {
            *doc_freq.entry(c).or_insert(0) += 1;
        }
    }
}

/// Sentinel for "no transition" in the root array.
const NO_NODE: u32 = u32::MAX;

/// Longest-match trie over token-id sequences, laid out for scanning: the
/// root level (hit once per sentence position) is a direct-indexed array
/// over the corpus vocabulary at build time (tokens interned later index
/// past it and have no transition), deeper levels are token-sorted slices
/// searched by binary search. Matching semantics are identical to
/// [`ReferenceTrie`] — same longest match, same first-writer-wins terminal.
#[derive(Debug)]
struct TokenTrie {
    /// Vocab token id → first-level node, or [`NO_NODE`]; ids past the
    /// end have no transition either.
    root: Vec<u32>,
    nodes: Vec<TrieNode>,
}

#[derive(Debug, Default)]
struct TrieNode {
    /// Sorted by token id.
    children: Vec<(TokenId, u32)>,
    terminal: Option<ExtConceptId>,
}

/// FNV-1a — a fast, deterministic hasher for the short token keys of the
/// build-time vocabulary lookup (SipHash dominates the probe cost there).
#[derive(Default)]
struct Fnv(u64);

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.0 = h;
    }
}

type FnvMap<'a> = HashMap<&'a str, TokenId, std::hash::BuildHasherDefault<Fnv>>;

impl TokenTrie {
    fn build(ekg: &Ekg, vocab: &StringInterner<TokenId>) -> Self {
        Self::build_recording(ekg, vocab, None)
    }

    /// [`TokenTrie::build`], optionally recording the first
    /// out-of-vocabulary token of every abandoned phrase into `oov` (the
    /// [`CountTrie`] staleness set).
    fn build_recording(
        ekg: &Ekg,
        vocab: &StringInterner<TokenId>,
        mut oov: Option<&mut std::collections::HashSet<Box<str>>>,
    ) -> Self {
        let mut trie = Self { root: vec![NO_NODE; vocab.len()], nodes: Vec::new() };
        let lookup: FnvMap<'_> = vocab.iter().map(|(id, s)| (s, id)).collect();
        let mut buf = String::new();
        for c in ekg.concepts() {
            trie.insert(&lookup, ekg.name(c), c, &mut buf, oov.as_deref_mut());
            for syn in ekg.synonyms(c) {
                trie.insert(&lookup, syn, c, &mut buf, oov.as_deref_mut());
            }
        }
        trie
    }

    /// Insert `phrase` token by token. Tokens are lowercased into the
    /// reused `buf` (matching [`tokenize`] exactly) instead of allocating a
    /// token vector per phrase — building the trie over every name and
    /// synonym of a large terminology is the hot path of counting.
    fn insert(
        &mut self,
        vocab: &FnvMap<'_>,
        phrase: &str,
        concept: ExtConceptId,
        buf: &mut String,
        mut oov: Option<&mut std::collections::HashSet<Box<str>>>,
    ) {
        let mut node: Option<usize> = None;
        for (lo, hi) in medkb_text::token_spans(phrase) {
            buf.clear();
            let frag = &phrase[lo..hi];
            if frag.is_ascii() {
                buf.push_str(frag);
                buf.make_ascii_lowercase();
            } else {
                // Mirror `tokenize` exactly: `to_lowercase` can expand into
                // non-alphanumeric chars (`İ` → `i` + combining dot above),
                // which tokenize drops — keeping them here would produce a
                // token absent from the corpus vocabulary and silently
                // lose every mention of the phrase.
                for ch in frag.chars() {
                    buf.extend(ch.to_lowercase().filter(|c| c.is_alphanumeric()));
                }
                if buf.is_empty() {
                    continue;
                }
            }
            // A phrase containing a token absent from the corpus vocabulary
            // can never match; skip it entirely. The abandoning token is
            // what makes a cached trie stale if interned later.
            let Some(&tok) = vocab.get(buf.as_str()) else {
                if let Some(set) = oov.as_deref_mut() {
                    set.insert(buf.as_str().into());
                }
                return;
            };
            let next = match node {
                None => {
                    let slot = &mut self.root[tok.raw() as usize];
                    if *slot == NO_NODE {
                        *slot = self.nodes.len() as u32;
                        self.nodes.push(TrieNode::default());
                    }
                    *slot as usize
                }
                Some(n) => {
                    match self.nodes[n].children.binary_search_by_key(&tok, |&(t, _)| t) {
                        Ok(pos) => self.nodes[n].children[pos].1 as usize,
                        Err(pos) => {
                            let idx = self.nodes.len() as u32;
                            self.nodes.push(TrieNode::default());
                            self.nodes[n].children.insert(pos, (tok, idx));
                            idx as usize
                        }
                    }
                }
            };
            node = Some(next);
        }
        if let Some(n) = node {
            // First writer wins: primary names are inserted before synonyms,
            // and ambiguous synonyms should not steal mentions.
            self.nodes[n].terminal.get_or_insert(concept);
        }
    }

    fn scan_into(&self, tokens: &[TokenId], mut hit: impl FnMut(ExtConceptId)) {
        let mut i = 0;
        while i < tokens.len() {
            let first = self.root.get(tokens[i].raw() as usize).copied().unwrap_or(NO_NODE);
            if first == NO_NODE {
                i += 1;
                continue;
            }
            let mut node = first as usize;
            let mut best = self.nodes[node].terminal.map(|c| (1usize, c));
            for (offset, tok) in tokens[i + 1..].iter().enumerate() {
                match self.nodes[node].children.binary_search_by_key(tok, |&(t, _)| t) {
                    Ok(pos) => {
                        node = self.nodes[node].children[pos].1 as usize;
                        if let Some(c) = self.nodes[node].terminal {
                            best = Some((offset + 2, c));
                        }
                    }
                    Err(_) => break,
                }
            }
            match best {
                Some((len, c)) => {
                    hit(c);
                    i += len;
                }
                None => i += 1,
            }
        }
    }
}

/// The pre-optimization trie (hash-map children at every level), kept as
/// the benchmark baseline behind [`MentionCounts::count_reference`].
struct ReferenceTrie {
    nodes: Vec<ReferenceNode>,
}

#[derive(Default)]
struct ReferenceNode {
    children: HashMap<TokenId, usize>,
    terminal: Option<ExtConceptId>,
}

impl ReferenceTrie {
    fn build(ekg: &Ekg, vocab: &StringInterner<TokenId>) -> Self {
        let mut trie = Self { nodes: vec![ReferenceNode::default()] };
        for c in ekg.concepts() {
            trie.insert(vocab, ekg.name(c), c);
            for syn in ekg.synonyms(c) {
                trie.insert(vocab, syn, c);
            }
        }
        trie
    }

    fn insert(&mut self, vocab: &StringInterner<TokenId>, phrase: &str, concept: ExtConceptId) {
        let mut node = 0usize;
        for word in tokenize(phrase) {
            let Some(tok) = vocab.get(&word) else { return };
            let next = match self.nodes[node].children.get(&tok) {
                Some(&n) => n,
                None => {
                    let n = self.nodes.len();
                    self.nodes.push(ReferenceNode::default());
                    self.nodes[node].children.insert(tok, n);
                    n
                }
            };
            node = next;
        }
        if node != 0 {
            self.nodes[node].terminal.get_or_insert(concept);
        }
    }

    fn scan(&self, tokens: &[TokenId]) -> Vec<ExtConceptId> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let mut node = 0usize;
            let mut best: Option<(usize, ExtConceptId)> = None;
            for (offset, tok) in tokens[i..].iter().enumerate() {
                match self.nodes[node].children.get(tok) {
                    Some(&n) => {
                        node = n;
                        if let Some(c) = self.nodes[node].terminal {
                            best = Some((offset + 1, c));
                        }
                    }
                    None => break,
                }
            }
            match best {
                Some((len, c)) => {
                    out.push(c);
                    i += len;
                }
                None => i += 1,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Document, Sentence};
    use medkb_ekg::EkgBuilder;
    use medkb_snomed::ContextTag;

    fn fixture() -> (Corpus, Ekg, ExtConceptId, ExtConceptId) {
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let kd = b.concept("kidney disease");
        let ckd = b.concept("chronic kidney disease");
        b.synonym(kd, "nephropathy");
        b.is_a(kd, root);
        b.is_a(ckd, kd);
        let ekg = b.build().unwrap();

        let mut corpus = Corpus::new();
        let sent = |text: &str, tag: ContextTag, corpus: &mut Corpus| Sentence {
            tag,
            tokens: tokenize(text).into_iter().map(|t| corpus.vocab.intern(&t)).collect(),
        };
        let s1 = sent("drug x treats kidney disease fast", ContextTag::Treatment, &mut corpus);
        let s2 = sent(
            "drug x may cause chronic kidney disease",
            ContextTag::Risk,
            &mut corpus,
        );
        let s3 = sent("nephropathy improved with drug x", ContextTag::Treatment, &mut corpus);
        corpus.docs.push(Document { sentences: vec![s1, s2] });
        corpus.docs.push(Document { sentences: vec![s3] });
        (corpus, ekg, kd, ckd)
    }

    #[test]
    fn counts_mentions_per_tag() {
        let (corpus, ekg, kd, ckd) = fixture();
        let counts = MentionCounts::count(&corpus, &ekg);
        assert_eq!(counts.direct(kd, ContextTag::Treatment.index()), 2); // name + synonym
        assert_eq!(counts.direct(kd, ContextTag::Risk.index()), 0);
        assert_eq!(counts.direct(ckd, ContextTag::Risk.index()), 1);
        assert_eq!(counts.direct_total(kd), 2);
    }

    #[test]
    fn longest_match_wins() {
        let (corpus, ekg, kd, ckd) = fixture();
        let counts = MentionCounts::count(&corpus, &ekg);
        // "chronic kidney disease" must not also count as "kidney disease".
        assert_eq!(counts.direct_total(ckd), 1);
        assert_eq!(counts.direct_total(kd), 2);
    }

    #[test]
    fn doc_freq_counts_documents_not_mentions() {
        let (corpus, ekg, kd, _) = fixture();
        let counts = MentionCounts::count(&corpus, &ekg);
        assert_eq!(counts.doc_freq(kd), 2);
        assert_eq!(counts.n_docs(), 2);
    }

    #[test]
    fn tfidf_zero_for_unmentioned() {
        let (corpus, ekg, _, _) = fixture();
        let counts = MentionCounts::count(&corpus, &ekg);
        let root = ekg.root();
        assert_eq!(counts.tfidf(root, 0), 0.0);
    }

    #[test]
    fn tfidf_damps_concentrated_mentions() {
        // Concept A: 4 mentions in 1 doc; concept B: 4 mentions in 4 docs.
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let a = b.concept("alpha finding");
        let bb = b.concept("beta finding");
        b.is_a(a, root);
        b.is_a(bb, root);
        let ekg = b.build().unwrap();
        let mut corpus = Corpus::new();
        let mk = |text: &str, corpus: &mut Corpus| Sentence {
            tag: ContextTag::Treatment,
            tokens: tokenize(text).into_iter().map(|t| corpus.vocab.intern(&t)).collect(),
        };
        let four_alpha: Vec<Sentence> =
            (0..4).map(|_| mk("alpha finding seen", &mut corpus)).collect();
        corpus.docs.push(Document { sentences: four_alpha });
        for _ in 0..4 {
            let s = mk("beta finding seen", &mut corpus);
            corpus.docs.push(Document { sentences: vec![s] });
        }
        let counts = MentionCounts::count(&corpus, &ekg);
        assert_eq!(counts.direct_total(a), 4);
        assert_eq!(counts.direct_total(bb), 4);
        assert!(
            counts.tfidf(a, 0) > counts.tfidf(bb, 0),
            "rarely-documented concept should carry higher idf weight"
        );
    }

    #[test]
    fn multichar_lowercase_names_count_like_the_reference() {
        // Fuzz regression (differential harness, seed 33): `İ` lowercases
        // to `i` + combining dot above; the optimized trie's inline
        // lowering kept the mark, produced a token absent from the corpus
        // vocabulary, and silently dropped every mention of the name.
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let ist = b.concept("İstanbul fever");
        b.is_a(ist, root);
        let ekg = b.build().unwrap();
        let mut corpus = Corpus::new();
        let tokens =
            tokenize("İstanbul fever reported").into_iter().map(|t| corpus.vocab.intern(&t));
        let s = Sentence { tag: ContextTag::Treatment, tokens: tokens.collect() };
        corpus.docs.push(Document { sentences: vec![s] });
        let fast = MentionCounts::count(&corpus, &ekg);
        assert_eq!(fast, MentionCounts::count_reference(&corpus, &ekg));
        assert_eq!(fast.direct_total(ist), 1);
    }

    #[test]
    fn parallel_count_matches_sequential() {
        let (corpus, ekg, _, _) = fixture();
        let seq = MentionCounts::count(&corpus, &ekg);
        for threads in [1, 2, 4, 8] {
            let par = MentionCounts::count_with_threads(&corpus, &ekg, threads);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn parallel_count_matches_on_many_docs() {
        // More documents than threads, multiple concepts per shard.
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let names = ["alpha finding", "beta finding", "gamma syndrome", "delta pain"];
        for (i, name) in names.iter().enumerate() {
            let c = b.concept(name);
            b.is_a(c, root);
            if i == 0 {
                b.synonym(c, "alpha condition");
            }
        }
        let ekg = b.build().unwrap();
        let mut corpus = Corpus::new();
        for i in 0..23usize {
            let text = format!(
                "{} seen with {}",
                names[i % names.len()],
                names[(i * 3 + 1) % names.len()]
            );
            let s = Sentence {
                tag: ContextTag::Treatment,
                tokens: tokenize(&text).into_iter().map(|t| corpus.vocab.intern(&t)).collect(),
            };
            corpus.docs.push(Document { sentences: vec![s] });
        }
        let seq = MentionCounts::count(&corpus, &ekg);
        let trie = CountTrie::build(&ekg, &corpus.vocab);
        for threads in [1, 2, 4, 8] {
            let par = MentionCounts::count_with_threads(&corpus, &ekg, threads);
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(MentionCounts::count_with_trie(&corpus, &trie, threads), par);
        }
    }

    #[test]
    fn optimized_count_matches_reference() {
        let (corpus, ekg, _, _) = fixture();
        assert_eq!(MentionCounts::count(&corpus, &ekg), MentionCounts::count_reference(&corpus, &ekg));
        // And on a larger fixture with overlaps and synonyms.
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let kd = b.concept("kidney disease");
        let ckd = b.concept("chronic kidney disease");
        b.synonym(kd, "nephropathy");
        b.synonym(ckd, "ckd nephropathy");
        b.is_a(kd, root);
        b.is_a(ckd, kd);
        let ekg = b.build().unwrap();
        let mut corpus = Corpus::new();
        for i in 0..17usize {
            let text = match i % 4 {
                0 => "chronic kidney disease and kidney disease seen",
                1 => "nephropathy with ckd nephropathy noted",
                2 => "kidney kidney disease chronic",
                _ => "no mention at all here",
            };
            let s = Sentence {
                tag: if i % 2 == 0 { ContextTag::Treatment } else { ContextTag::Risk },
                tokens: tokenize(text).into_iter().map(|t| corpus.vocab.intern(&t)).collect(),
            };
            corpus.docs.push(Document { sentences: vec![s] });
        }
        assert_eq!(MentionCounts::count(&corpus, &ekg), MentionCounts::count_reference(&corpus, &ekg));
    }

    #[test]
    fn delta_add_remove_docs_match_fresh_count() {
        let (mut corpus, ekg, _, _) = fixture();
        let mut trie = CountTrie::build(&ekg, &corpus.vocab);
        let mut counts = MentionCounts::count(&corpus, &ekg);

        // Add a doc mentioning existing names plus a brand-new word.
        let s = Sentence {
            tag: ContextTag::Risk,
            tokens: tokenize("nephropathy worsened unexpectedly")
                .into_iter()
                .map(|t| corpus.vocab.intern(&t))
                .collect(),
        };
        let doc = Document { sentences: vec![s] };
        corpus.docs.push(doc.clone());
        assert!(trie.validate(&corpus.vocab), "benign new token must keep trie valid");
        counts.add_docs(&trie, std::slice::from_ref(&doc));
        assert_eq!(counts, MentionCounts::count(&corpus, &ekg));
        // The validated trie also counts the grown corpus from scratch.
        assert_eq!(MentionCounts::count_with_trie(&corpus, &trie, 2), counts);

        // Remove the first original document; zeroed rows must disappear.
        let removed = corpus.docs.remove(0);
        counts.remove_docs(&trie, std::slice::from_ref(&removed));
        assert_eq!(counts, MentionCounts::count(&corpus, &ekg));
    }

    #[test]
    fn interned_oov_name_token_invalidates_trie() {
        // "zygomatic arch pain" is registered but its tokens are OOV, so
        // the build abandons the phrase at "zygomatic". Interning that
        // token later must flag the trie stale (a fresh build would now
        // walk further).
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let x = b.concept("zygomatic arch pain");
        b.is_a(x, root);
        let ekg = b.build().unwrap();
        let mut corpus = Corpus::new();
        let s = Sentence {
            tag: ContextTag::General,
            tokens: tokenize("nothing here").into_iter().map(|t| corpus.vocab.intern(&t)).collect(),
        };
        corpus.docs.push(Document { sentences: vec![s] });
        let mut trie = CountTrie::build(&ekg, &corpus.vocab);
        assert!(trie.validate(&corpus.vocab));

        corpus.vocab.intern("zygomatic");
        assert!(!trie.validate(&corpus.vocab));
    }

    #[test]
    fn phrase_with_oov_token_never_matches() {
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let x = b.concept("zygomatic arch pain");
        b.is_a(x, root);
        let ekg = b.build().unwrap();
        let mut corpus = Corpus::new();
        let s = Sentence {
            tag: ContextTag::General,
            tokens: tokenize("nothing here").into_iter().map(|t| corpus.vocab.intern(&t)).collect(),
        };
        corpus.docs.push(Document { sentences: vec![s] });
        let counts = MentionCounts::count(&corpus, &ekg);
        assert_eq!(counts.direct_total(x), 0);
    }
}
