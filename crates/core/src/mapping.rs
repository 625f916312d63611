//! Instance / query-term → external-concept mapping (Table 1's three
//! methods, used in Algorithm 1 line 8 and Algorithm 2 line 1).

use std::sync::Arc;

use medkb_ekg::Ekg;
use medkb_embed::{EmbeddingIndex, SifModel};
use medkb_text::{levenshtein_within, normalize, NgramIndex};
use medkb_types::{ExtConceptId, Id, MedKbError, Result, TokenId};

use crate::config::MappingMethod;

/// A name resolver against the external knowledge source, in one of the
/// three pluggable flavours (§3, §7.2).
///
/// All flavours try normalized exact lookup first (it is both the cheapest
/// and — by Table 1 — perfectly precise); the approximate machinery only
/// engages for names exact lookup misses.
///
/// The store's `mapper` section carries the method and, for an embedding
/// mapper, its model and concept index ([`ConceptMapper::embedding`]);
/// every other table is derived.
#[derive(Debug, Clone)]
pub struct ConceptMapper {
    method: MappingMethod,
    edit: Option<EditTables>,
    embed: Option<EmbedTables>,
    phonetic: Option<std::collections::HashMap<String, ExtConceptId>>,
}

#[derive(Debug, Clone)]
struct EditTables {
    index: NgramIndex,
    /// Position-aligned with the index: `(normalized name, char length,
    /// concept)`. The length lets lookups discard candidates that cannot
    /// be within `tau` edits before running the DP.
    entries: Vec<(String, u32, ExtConceptId)>,
}

#[derive(Debug, Clone)]
struct EmbedTables {
    model: Arc<SifModel>,
    index: EmbeddingIndex,
    /// n-gram index over the model's vocabulary in token-id order, used to
    /// repair out-of-vocabulary words (typos) before embedding — the rough
    /// equivalent of the subword robustness of fastText [8], which the
    /// paper's EMBEDDING variant builds on.
    vocab_index: NgramIndex,
}

impl ConceptMapper {
    /// Build a mapper of the given flavour over `ekg`'s names and synonyms.
    ///
    /// # Errors
    /// [`MedKbError::InvalidArgument`] when `method` is
    /// [`MappingMethod::Embedding`] but no SIF model is supplied.
    pub fn build(ekg: &Ekg, method: MappingMethod, sif: Option<Arc<SifModel>>) -> Result<Self> {
        let mut mapper = Self { method, edit: None, embed: None, phonetic: None };
        match method {
            MappingMethod::Exact => {}
            MappingMethod::Phonetic => {
                // Unique phrase keys only: an ambiguous phonetic key would
                // guess between unrelated concepts.
                let mut keys: std::collections::HashMap<String, Option<ExtConceptId>> =
                    std::collections::HashMap::new();
                for c in ekg.concepts() {
                    for name in std::iter::once(ekg.name(c)).chain(ekg.synonyms(c)) {
                        let key = medkb_text::phrase_key(name);
                        if key.is_empty() {
                            continue;
                        }
                        keys.entry(key)
                            .and_modify(|slot| {
                                if *slot != Some(c) {
                                    *slot = None;
                                }
                            })
                            .or_insert(Some(c));
                    }
                }
                mapper.phonetic = Some(
                    keys.into_iter().filter_map(|(k, v)| v.map(|c| (k, c))).collect(),
                );
            }
            MappingMethod::Edit(_) => {
                let mut index = NgramIndex::new(3);
                let mut entries = Vec::new();
                for c in ekg.concepts() {
                    for name in std::iter::once(ekg.name(c)).chain(ekg.synonyms(c)) {
                        let norm = normalize(name);
                        let chars = norm.chars().count() as u32;
                        index.insert(&norm);
                        entries.push((norm, chars, c));
                    }
                }
                mapper.edit = Some(EditTables { index, entries });
            }
            MappingMethod::Embedding { threshold } => {
                let model = sif.ok_or_else(|| {
                    MedKbError::invalid("embedding mapping requires a fitted SIF model")
                })?;
                let mut index = EmbeddingIndex::new(model.vectors().dim());
                for c in ekg.concepts() {
                    for name in std::iter::once(ekg.name(c)).chain(ekg.synonyms(c)) {
                        if let Some(v) = model.embed(name) {
                            index.insert(c.raw(), &v);
                        }
                    }
                }
                return Ok(Self::from_embedding(threshold, model, index));
            }
        }
        Ok(mapper)
    }

    /// An embedding mapper over a fitted model and the concept index built
    /// from it, both adopted as they are — a store open uses this instead
    /// of re-embedding every concept name. Only the vocabulary-repair
    /// n-gram index is derived, from the model's words.
    pub fn from_embedding(threshold: f64, model: Arc<SifModel>, index: EmbeddingIndex) -> Self {
        let mut vocab_index = NgramIndex::new(3);
        for w in model.vectors().words() {
            vocab_index.insert(w);
        }
        Self {
            method: MappingMethod::Embedding { threshold },
            edit: None,
            embed: Some(EmbedTables { model, index, vocab_index }),
            phonetic: None,
        }
    }

    /// The flavour this mapper was built with.
    pub fn method(&self) -> MappingMethod {
        self.method
    }

    /// The SIF model and concept index behind an embedding mapper.
    pub fn embedding(&self) -> Option<(&SifModel, &EmbeddingIndex)> {
        self.embed.as_ref().map(|e| (&*e.model, &e.index))
    }

    /// Bit-level equality of what the store persists: the method and, for
    /// an embedding mapper, the model and concept index. NaN-sound and
    /// signed-zero-strict (see [`medkb_embed::f32_bits_eq`]) — large SGNS
    /// runs can diverge into NaN rows without losing determinism, and the
    /// differential oracles must not call two identical such mappers
    /// different. The other tables are functions of the graph and model.
    pub fn bits_eq(&self, other: &Self) -> bool {
        self.method == other.method
            && match (self.embedding(), other.embedding()) {
                (None, None) => true,
                (Some((ma, ia)), Some((mb, ib))) => ma.bits_eq(mb) && ia.bits_eq(ib),
                _ => false,
            }
    }

    /// Resolve `name` to an external concept, or `None` if the method finds
    /// no acceptable match.
    pub fn map(&self, ekg: &Ekg, name: &str) -> Option<ExtConceptId> {
        self.map_scored(ekg, name).map(|(c, _)| c)
    }

    /// [`ConceptMapper::map`] with the match confidence exposed: 1.0 for an
    /// exact hit, `1 / (1 + distance)` for an edit match, the cosine for an
    /// embedding match. The evaluation harness sweeps acceptance thresholds
    /// over these scores without rebuilding the mapper.
    pub fn map_scored(&self, ekg: &Ekg, name: &str) -> Option<(ExtConceptId, f64)> {
        // Exact (normalized) lookup is common to all flavours.
        if let Some(&c) = ekg.lookup_name(name).first() {
            return Some((c, 1.0));
        }
        match self.method {
            MappingMethod::Exact => None,
            MappingMethod::Edit(tau) => self
                .map_edit(name, tau)
                .map(|(c, d)| (c, 1.0 / (1.0 + d as f64))),
            MappingMethod::Embedding { threshold } => self.map_embedding(name, threshold),
            MappingMethod::Phonetic => {
                let key = medkb_text::phrase_key(name);
                self.phonetic
                    .as_ref()
                    .and_then(|m| m.get(&key).copied())
                    .map(|c| (c, 0.9))
            }
        }
    }

    fn map_edit(&self, name: &str, tau: u32) -> Option<(ExtConceptId, usize)> {
        let tables = self.edit.as_ref()?;
        let norm = normalize(name);
        let norm_chars = norm.chars().count() as u32;
        let mut best: Option<(usize, ExtConceptId)> = None;
        for pos in tables.index.candidates(&norm, tau as usize) {
            let (entry, chars, concept) = &tables.entries[pos];
            // A length gap beyond tau already needs more than tau edits;
            // skip the DP entirely.
            if norm_chars.abs_diff(*chars) > tau {
                continue;
            }
            if let Some(d) = levenshtein_within(&norm, entry, tau as usize) {
                let better = match best {
                    None => true,
                    Some((bd, bc)) => d < bd || (d == bd && *concept < bc),
                };
                if better {
                    best = Some((d, *concept));
                }
            }
        }
        best.map(|(d, c)| (c, d))
    }

    fn map_embedding(&self, name: &str, threshold: f64) -> Option<(ExtConceptId, f64)> {
        let tables = self.embed.as_ref()?;
        // Repair out-of-vocabulary words (typos) to their nearest
        // vocabulary word within 2 edits before embedding. The phrase and
        // per-token buffers are thread-local scratch reused across calls,
        // so mapping allocates no per-call token vector or join.
        thread_local! {
            static SCRATCH: std::cell::RefCell<(String, String)> =
                const { std::cell::RefCell::new((String::new(), String::new())) };
        }
        SCRATCH.with(|cell| {
            let (phrase, tok) = &mut *cell.borrow_mut();
            phrase.clear();
            for (lo, hi) in medkb_text::token_spans(name) {
                tok.clear();
                let frag = &name[lo..hi];
                if frag.is_ascii() {
                    tok.push_str(frag);
                    tok.make_ascii_lowercase();
                } else {
                    for ch in frag.chars() {
                        tok.extend(ch.to_lowercase());
                    }
                }
                if !phrase.is_empty() {
                    phrase.push(' ');
                }
                // Only repair alphabetic words of meaningful length:
                // "repairing" a number or a short code to whatever is two
                // edits away fabricates similarity.
                if tables.model.vectors().get(tok).is_some()
                    || tok.len() < 4
                    || !tok.chars().all(|c| c.is_alphabetic())
                {
                    phrase.push_str(tok);
                    continue;
                }
                let mut best: Option<(usize, &str)> = None;
                let vocab = &tables.model.vectors().vocab;
                for pos in tables.vocab_index.candidates(tok, 2) {
                    let cand = vocab.resolve(TokenId::from_usize(pos));
                    if let Some(d) = levenshtein_within(tok, cand, 2) {
                        if best.is_none_or(|(bd, _)| d < bd) {
                            best = Some((d, cand));
                        }
                    }
                }
                phrase.push_str(best.map(|(_, c)| c).unwrap_or(tok));
            }
            // A phrase whose tokens are mostly outside the corpus
            // vocabulary even after repair has no reliable embedding:
            // refuse to map (the paper's out-of-vocabulary diagnosis,
            // applied as a precision guard).
            if tables.model.coverage(phrase) < 0.5 {
                return None;
            }
            let v = tables.model.embed(phrase)?;
            tables
                .index
                .nearest_above(&v, threshold)
                .map(|hit| (ExtConceptId::new(hit.payload), hit.score))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medkb_corpus::{CorpusConfig, CorpusGenerator};
    use medkb_embed::{SgnsConfig, WordVectors};
    use medkb_snomed::{GeneratedTerminology, Oracle, SnomedConfig};

    fn fragment() -> Ekg {
        medkb_snomed::figures::paper_fragment().ekg
    }

    #[test]
    fn exact_maps_names_and_synonyms_only() {
        let ekg = fragment();
        let m = ConceptMapper::build(&ekg, MappingMethod::Exact, None).unwrap();
        assert!(m.map(&ekg, "Kidney Disease").is_some());
        assert!(m.map(&ekg, "pyrexia").is_some()); // registered synonym
        assert!(m.map(&ekg, "kidny disease").is_none()); // typo
    }

    #[test]
    fn edit_recovers_small_typos() {
        let ekg = fragment();
        let m = ConceptMapper::build(&ekg, MappingMethod::edit_tau2(), None).unwrap();
        let gold = ekg.lookup_name("kidney disease")[0];
        assert_eq!(m.map(&ekg, "kidny disease"), Some(gold));
        assert_eq!(m.map(&ekg, "kidney diseasee"), Some(gold));
        assert_eq!(m.map(&ekg, "completely different"), None);
    }

    #[test]
    fn edit_prefers_smaller_distance() {
        let ekg = fragment();
        let m = ConceptMapper::build(&ekg, MappingMethod::edit_tau2(), None).unwrap();
        // "headach" is 1 edit from "headache" and 2+ from everything else.
        assert_eq!(m.map(&ekg, "headach"), Some(ekg.lookup_name("headache")[0]));
    }

    #[test]
    fn edit_prefilter_handles_multibyte_names() {
        // The length prefilter must count chars, not bytes: "naïve fever"
        // is 12 bytes for 11 chars, so a byte-based gap would wrongly
        // prune the 1-edit query "naive fever" at τ = 2.
        let mut b = medkb_ekg::EkgBuilder::new();
        let root = b.concept("root");
        let naive = b.concept("naïve fever");
        let micro = b.concept("µg overdose");
        b.is_a(naive, root);
        b.is_a(micro, root);
        let ekg = b.build().unwrap();
        let m = ConceptMapper::build(&ekg, MappingMethod::edit_tau2(), None).unwrap();
        assert_eq!(m.map(&ekg, "naive fever"), Some(naive));
        assert_eq!(m.map(&ekg, "µg overdse"), Some(micro));
    }

    #[test]
    fn embedding_requires_model() {
        let ekg = fragment();
        assert!(matches!(
            ConceptMapper::build(&ekg, MappingMethod::embedding_default(), None),
            Err(MedKbError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn embedding_bridges_colloquial_rewrites() {
        // Train a SIF model on a generated corpus, then map a colloquial
        // rewrite of a real concept name.
        let term = GeneratedTerminology::generate(&SnomedConfig::tiny(61));
        let oracle = Oracle::derive(&term, 62);
        let corpus = CorpusGenerator::new(&term, &oracle).generate(&CorpusConfig {
            docs: 600,
            colloquial_mention_rate: 0.25,
            ..CorpusConfig::tiny(63)
        });
        let wv = WordVectors::train(
            &corpus,
            &SgnsConfig { dim: 32, epochs: 5, window: 5, ..SgnsConfig::tiny(64) },
        );
        let sif = Arc::new(SifModel::fit(wv, &corpus, 1e-3));
        let m = ConceptMapper::build(
            &term.ekg,
            MappingMethod::Embedding { threshold: 0.6 },
            Some(sif.clone()),
        )
        .unwrap();
        // Find a finding whose name contains a colloquializable word and is
        // itself corpus-known (embeddable).
        let mut bridged = 0;
        let mut tried = 0;
        for c in term.ekg.concepts() {
            let name = term.ekg.name(c);
            let words: Vec<&str> = name.split_whitespace().collect();
            let Some(i) =
                words.iter().position(|w| medkb_snomed::vocab::colloquial_of(w).is_some())
            else {
                continue;
            };
            if sif.embed(name).is_none() {
                continue;
            }
            let mut rw = words.clone();
            rw[i] = medkb_snomed::vocab::colloquial_of(words[i]).unwrap();
            let reworded = rw.join(" ");
            if !term.ekg.lookup_name(&reworded).is_empty() {
                continue; // collides with a real name; not a bridging case
            }
            tried += 1;
            if m.map(&term.ekg, &reworded) == Some(c) {
                bridged += 1;
            }
            if tried >= 30 {
                break;
            }
        }
        assert!(tried > 0, "no colloquializable names generated");
        // The tiny SGNS setup is noisy; the real recovery-rate calibration
        // happens in the evaluation harness. Here we only require the
        // bridge to work at all at a meaningful rate.
        assert!(
            bridged * 3 >= tried,
            "embedding mapper bridged only {bridged}/{tried} colloquial rewrites"
        );
    }

    #[test]
    fn phonetic_recovers_sound_alike_misspellings() {
        let mut b = medkb_ekg::EkgBuilder::new();
        let root = b.concept("root");
        let d = b.concept("diarrhea");
        let h = b.concept("hemorrhage");
        b.is_a(d, root);
        b.is_a(h, root);
        let ekg = b.build().unwrap();
        let m = ConceptMapper::build(&ekg, MappingMethod::Phonetic, None).unwrap();
        assert_eq!(m.map(&ekg, "diarrea"), Some(d));
        assert_eq!(m.map(&ekg, "hemorage"), Some(h));
        assert_eq!(m.map(&ekg, "zzzz"), None);
        // Exact names still resolve (shared exact-first path).
        assert_eq!(m.map(&ekg, "diarrhea"), Some(d));
    }

    #[test]
    fn phonetic_drops_ambiguous_keys() {
        // "smith" and "smyth" are distinct concepts with colliding keys:
        // the matcher must refuse rather than guess.
        let mut b = medkb_ekg::EkgBuilder::new();
        let root = b.concept("root");
        let a = b.concept("smith syndrome");
        let c = b.concept("smyth syndrome");
        b.is_a(a, root);
        b.is_a(c, root);
        let ekg = b.build().unwrap();
        let m = ConceptMapper::build(&ekg, MappingMethod::Phonetic, None).unwrap();
        assert_eq!(m.map(&ekg, "smithe syndrome"), None);
    }

    #[test]
    fn bits_eq_is_nan_sound_and_signed_zero_strict() {
        let model = Arc::new(SifModel {
            vectors: WordVectors {
                vocab: Default::default(),
                vecs: Vec::new(),
                counts: Default::default(),
                total_tokens: 0,
                dim: 1,
            },
            a: 1e-3,
            pc: vec![0.0],
        });
        let mapper = |data: Vec<f32>| {
            let index = EmbeddingIndex::from_raw(1, vec![7; data.len()], data);
            ConceptMapper::from_embedding(0.5, model.clone(), index)
        };
        // Identical NaN bits: `==` on the data says unequal, bits_eq says
        // equal (this exact false-negative broke the delta-vs-full oracle
        // on SNOMED-scale worlds whose SGNS run diverged into NaN rows).
        assert!(mapper(vec![1.0, f32::NAN]).bits_eq(&mapper(vec![1.0, f32::NAN])));
        // Signed zeros: `==` conflates them, bits_eq distinguishes.
        assert!(!mapper(vec![0.0]).bits_eq(&mapper(vec![-0.0])));
        // Genuinely different data still differs.
        assert!(!mapper(vec![1.0]).bits_eq(&mapper(vec![2.0])));
        assert!(!mapper(vec![1.0]).bits_eq(&mapper(vec![1.0, 1.0])));
        let ekg = fragment();
        let exact = ConceptMapper::build(&ekg, MappingMethod::Exact, None).unwrap();
        assert!(exact.bits_eq(&exact.clone()));
        assert!(!exact.bits_eq(&mapper(vec![1.0])));
    }

    #[test]
    fn all_methods_agree_on_exact_names() {
        let ekg = fragment();
        let exact = ConceptMapper::build(&ekg, MappingMethod::Exact, None).unwrap();
        let edit = ConceptMapper::build(&ekg, MappingMethod::edit_tau2(), None).unwrap();
        for name in ["pneumonia", "bronchitis", "fever"] {
            assert_eq!(exact.map(&ekg, name), edit.map(&ekg, name), "{name}");
        }
    }
}
