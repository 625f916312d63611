//! Synthetic corpus generation.
//!
//! The in-domain corpus is a set of drug monographs. Each sentence is
//! produced from a context-tagged template and mentions one finding concept
//! sampled with probability ∝ `popularity × affinity(concept, tag)` — the
//! oracle quantities. Counting mentions per context therefore recovers a
//! noisy estimate of context affinity, which is precisely the signal the
//! paper's per-context frequencies (Example 1) carry.
//!
//! The out-of-domain corpus (for the *Embedding-pre-trained* baseline,
//! Table 2) is generated from a *different* terminology with a different
//! seed: template and filler words overlap, concept names mostly do not —
//! reproducing the paper's observation that "many of the words contained in
//! SNOMED CT are out of its vocabulary".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use medkb_snomed::{ContextTag, GeneratedTerminology, Hierarchy, Oracle, SnomedConfig};
use medkb_text::tokenize;
use medkb_types::{par, ExtConceptId};

use crate::model::{Corpus, Document, Sentence};

/// Corpus generation parameters.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of documents (drug monographs).
    pub docs: usize,
    /// Minimum sentences per document.
    pub min_sentences: usize,
    /// Maximum sentences per document.
    pub max_sentences: usize,
    /// Probability a mention uses a registered synonym instead of the
    /// primary name.
    pub synonym_mention_rate: f64,
    /// Probability a mention uses the colloquial rewrite (teaches trained
    /// embeddings the colloquial vocabulary).
    pub colloquial_mention_rate: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED_0003,
            docs: 1_500,
            min_sentences: 8,
            max_sentences: 22,
            synonym_mention_rate: 0.12,
            colloquial_mention_rate: 0.08,
        }
    }
}

impl CorpusConfig {
    /// A small configuration for unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self { seed, docs: 120, min_sentences: 5, max_sentences: 10, ..Self::default() }
    }
}

/// Sentence templates per context tag. `{d}` = drug mention, `{f}` =
/// finding mention, `{g}` = a second, semantically nearby finding (real
/// monographs co-mention related conditions — this is what trained word
/// embeddings pick up).
const TEMPLATES: [(ContextTag, &[&str]); 5] = [
    (
        ContextTag::Treatment,
        &[
            "{d} is indicated for the treatment of {f} in adults",
            "{d} relieves symptoms of {f} within days",
            "clinical studies show {d} is effective against {f}",
            "{d} is used to treat {f} and related conditions",
            "{d} is indicated for {f} as well as {g}",
            "patients with {f} or {g} respond well to {d}",
        ],
    ),
    (
        ContextTag::Risk,
        &[
            "{d} may cause {f} in some patients",
            "common adverse reactions of {d} include {f}",
            "{d} carries an increased risk of {f}",
            "discontinue {d} if {f} occurs",
            "reported reactions include {f} and {g}",
        ],
    ),
    (
        ContextTag::Monitoring,
        &[
            "patients receiving {d} should be monitored for {f}",
            "periodic assessment for {f} is recommended during {d} therapy",
        ],
    ),
    (
        ContextTag::Toxicology,
        &[
            "overdose of {d} may present with {f}",
            "toxic doses of {d} are associated with {f}",
        ],
    ),
    (
        ContextTag::General,
        &[
            "the safety profile of {d} was evaluated in randomized trials",
            "{d} is administered orally once daily with food",
            "no dose adjustment of {d} is required in elderly patients",
            "the pharmacokinetics of {d} are linear over the dose range",
            "store {d} at room temperature away from moisture",
        ],
    ),
];

/// Tag sampling weights for sentence generation.
const TAG_WEIGHTS: [(ContextTag, f64); 5] = [
    (ContextTag::Treatment, 0.38),
    (ContextTag::Risk, 0.28),
    (ContextTag::Monitoring, 0.08),
    (ContextTag::Toxicology, 0.08),
    (ContextTag::General, 0.18),
];

/// Generates corpora from a terminology + oracle.
pub struct CorpusGenerator<'a> {
    term: &'a GeneratedTerminology,
    oracle: &'a Oracle,
}

impl<'a> CorpusGenerator<'a> {
    /// A generator over the given world.
    pub fn new(term: &'a GeneratedTerminology, oracle: &'a Oracle) -> Self {
        Self { term, oracle }
    }

    /// Generate the in-domain monograph corpus.
    ///
    /// Each document is anchored on a theme finding: most of its finding
    /// mentions are drawn from the anchor's latent neighbourhood (a real
    /// drug's monograph talks about one disease area), the rest from the
    /// global popularity×affinity distribution. Paired templates co-mention
    /// two nearby findings in one sentence.
    pub fn generate(&self, config: &CorpusConfig) -> Corpus {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut corpus = Corpus::new();

        let findings = self.term.of_hierarchy(Hierarchy::ClinicalFinding);
        let drugs = self.term.of_hierarchy(Hierarchy::PharmaceuticalProduct);
        // Per-tag cumulative sampling tables over findings.
        // Quartic affinity weighting everywhere: a monograph essentially
        // never lists a predominantly-adverse finding as an indication, so
        // wrong-context mentions are rare enough for the per-context
        // frequencies (Example 1) to separate sharply.
        let tables: Vec<CumTable> = ContextTag::ALL
            .iter()
            .map(|&tag| {
                CumTable::build(&findings, |c| {
                    let a = self.oracle.affinity(c, tag);
                    self.term.meta[c].popularity * a * a * a * a
                })
            })
            .collect();
        let drug_table = CumTable::build(&drugs, |c| self.term.meta[c].popularity);
        let neighbors = LatentNeighbors::build(self.term, &findings, 12);

        for _ in 0..config.docs {
            let drug = drug_table.sample(&mut rng).unwrap_or(self.term.ekg.root());
            let anchor = tables[ContextTag::Treatment.index()].sample(&mut rng);
            let n = rng.gen_range(config.min_sentences..=config.max_sentences);
            let mut doc = Document::default();
            for _ in 0..n {
                let tag = sample_tag(&mut rng);
                // Theme coherence: prefer the anchor's neighbourhood, but
                // keep the mention consistent with the sentence's context
                // (rejection on context affinity, so per-context counts
                // still measure affinity).
                let accept = |rng: &mut StdRng, cand: ExtConceptId| {
                    // Quartic acceptance sharpens the context contrast: a
                    // monograph does not list a predominantly-adverse
                    // finding under "indicated for".
                    let a = self.oracle.affinity(cand, tag).clamp(0.0, 1.0);
                    rng.gen_bool(a * a * a * a)
                };
                let finding = match anchor {
                    Some(a) if rng.gen_bool(0.6) => {
                        let mut pick = None;
                        for _ in 0..6 {
                            let cand = neighbors.sample(&mut rng, a);
                            if accept(&mut rng, cand) {
                                pick = Some(cand);
                                break;
                            }
                        }
                        pick.or_else(|| tables[tag.index()].sample(&mut rng))
                    }
                    _ => tables[tag.index()].sample(&mut rng),
                };
                // The co-mentioned finding obeys the same context filter.
                let second = finding.and_then(|f| {
                    for _ in 0..4 {
                        let cand = neighbors.sample(&mut rng, f);
                        if accept(&mut rng, cand) {
                            return Some(cand);
                        }
                    }
                    None
                });
                let sentence =
                    self.render_sentence(&mut rng, config, tag, drug, finding, second);
                let tokens = tokenize(&sentence)
                    .into_iter()
                    .map(|t| corpus.vocab.intern(&t))
                    .collect();
                doc.sentences.push(Sentence { tag, tokens });
            }
            corpus.docs.push(doc);
        }
        corpus
    }

    /// Generate the out-of-domain corpus used to train the
    /// *Embedding-pre-trained* baseline: same template machinery, different
    /// terminology (seeded independently), and — crucially — a shifted word
    /// dialect: a deterministic majority of word types is mangled, so most
    /// of the in-domain medical vocabulary is out-of-vocabulary for a model
    /// trained here. This reproduces the paper's diagnosis: "many of the
    /// words contained in SNOMED CT are out of its vocabulary".
    pub fn out_of_domain(seed: u64, docs: usize) -> Corpus {
        let foreign = GeneratedTerminology::generate(&SnomedConfig {
            seed: seed ^ 0xF0E1_D2C3,
            concepts: 2_000,
            ..SnomedConfig::default()
        });
        let oracle = Oracle::derive(&foreign, seed ^ 0x0DD_C0DE);
        let generator = CorpusGenerator::new(&foreign, &oracle);
        let plain = generator.generate(&CorpusConfig { seed, docs, ..CorpusConfig::default() });
        // Re-intern with the dialect shift.
        let mut shifted = Corpus::new();
        for doc in &plain.docs {
            let mut out_doc = crate::model::Document::default();
            for s in &doc.sentences {
                let tokens = s
                    .tokens
                    .iter()
                    .map(|&t| shifted.vocab.intern(&dialect(plain.vocab.resolve(t))))
                    .collect();
                out_doc.sentences.push(Sentence { tag: s.tag, tokens });
            }
            shifted.docs.push(out_doc);
        }
        shifted
    }

    fn render_sentence(
        &self,
        rng: &mut StdRng,
        config: &CorpusConfig,
        tag: ContextTag,
        drug: ExtConceptId,
        finding: Option<ExtConceptId>,
        second: Option<ExtConceptId>,
    ) -> String {
        let pool = TEMPLATES
            .iter()
            .find(|&&(t, _)| t == tag)
            .map(|&(_, ts)| ts)
            .expect("every tag has templates");
        let template = pool[rng.gen_range(0..pool.len())];
        let drug_name = self.term.ekg.name(drug).to_string();
        let finding_name = finding.map(|f| self.mention_name(rng, config, f));
        let mut out = template.replace("{d}", &drug_name);
        out = match finding_name {
            Some(f) => out.replace("{f}", &f),
            None => out.replace("{f}", "unspecified condition"),
        };
        if out.contains("{g}") {
            let g = second
                .map(|s| self.mention_name(rng, config, s))
                .unwrap_or_else(|| "related conditions".to_string());
            out = out.replace("{g}", &g);
        }
        out
    }

    /// Surface form used for a finding mention: primary name, a registered
    /// synonym, or the colloquial rewrite.
    fn mention_name(&self, rng: &mut StdRng, config: &CorpusConfig, c: ExtConceptId) -> String {
        let primary = self.term.ekg.name(c);
        let roll: f64 = rng.gen();
        if roll < config.synonym_mention_rate {
            let syns: Vec<&str> = self.term.ekg.synonyms(c).collect();
            if !syns.is_empty() {
                return syns[rng.gen_range(0..syns.len())].to_string();
            }
        } else if roll < config.synonym_mention_rate + config.colloquial_mention_rate {
            // Colloquial rewrite of one word, if the name has one.
            let words: Vec<&str> = primary.split_whitespace().collect();
            if let Some(i) =
                words.iter().position(|w| medkb_snomed::vocab::colloquial_of(w).is_some())
            {
                let mut out: Vec<&str> = words.clone();
                out[i] = medkb_snomed::vocab::colloquial_of(words[i]).unwrap();
                return out.join(" ");
            }
        }
        primary.to_string()
    }
}

/// Precomputed latent-nearest-neighbour lists over the finding hierarchy.
///
/// The generator (part of the ground-truth world, not of any evaluated
/// method) uses true latent proximity to decide which findings a monograph
/// co-mentions — mirroring how real corpora reflect real semantics.
struct LatentNeighbors {
    index: std::collections::HashMap<ExtConceptId, Vec<ExtConceptId>>,
}

/// Finding counts up to this run the exact all-pairs kNN; larger worlds
/// switch to the graph-pruned variant. The committed 4k benchmark world
/// (~1.6k findings) and every test world stay on the exact path, so their
/// corpora are bit-identical to the pre-threshold builds.
const KNN_BRUTE_MAX: usize = 8_192;

impl LatentNeighbors {
    /// Latent kNN over the findings.
    ///
    /// Up to [`KNN_BRUTE_MAX`] findings: exact all-pairs scan, sharded
    /// across threads — O(F²·dim), which is fine at 4k-world scale but was
    /// the dominant superlinear cost of SNOMED-scale corpus generation
    /// (~54s of a 55s corpus build at 50k concepts, ~45min at 350k).
    ///
    /// Above the threshold: graph-pruned kNN. Finding latents are
    /// constructed top-down (child = parent + decaying noise, organ/
    /// condition/modifier vectors shared along `is_a`), so latent proximity
    /// tracks DAG proximity; the true nearest neighbours are overwhelmingly
    /// within two hops. Candidates are the 2-hop neighbourhood (parents,
    /// children, siblings, grandparents, uncles, grandchildren) capped at
    /// 512, scored with exact latent distances and the same (distance, id)
    /// tie-break — deterministic for a fixed world, O(F·b²) for branching
    /// factor b.
    fn build(term: &GeneratedTerminology, findings: &[ExtConceptId], k: usize) -> Self {
        if findings.len() > KNN_BRUTE_MAX {
            return Self::build_graph_pruned(term, findings, k);
        }
        let rows = par::shard_map(findings.len(), par::cores().min(16), |i| {
            let a = findings[i];
            (a, nearest(term, a, findings.iter().copied().filter(|&b| b != a), k))
        });
        Self { index: rows.into_iter().collect() }
    }

    /// Graph-pruned kNN for SNOMED-scale worlds: exact latent distances over
    /// a 2-hop `is_a` candidate neighbourhood instead of all pairs.
    fn build_graph_pruned(
        term: &GeneratedTerminology,
        findings: &[ExtConceptId],
        k: usize,
    ) -> Self {
        const CANDIDATE_CAP: usize = 512;
        let in_findings: std::collections::HashSet<ExtConceptId> =
            findings.iter().copied().collect();
        let ekg = &term.ekg;
        let shards = par::shard_chunks(findings.len(), par::cores().min(16), |r| {
            // One `seen` set per worker, cleared per finding.
            let mut seen = std::collections::HashSet::new();
            findings[r]
                .iter()
                .map(|&a| {
                    seen.clear();
                    seen.insert(a);
                    let mut cand: Vec<ExtConceptId> = Vec::new();
                    let mut push = |c: ExtConceptId| {
                        if cand.len() < CANDIDATE_CAP && in_findings.contains(&c) && seen.insert(c)
                        {
                            cand.push(c);
                        }
                    };
                    for p in ekg.native_parents(a) {
                        push(p);
                        for s in ekg.native_children(p) {
                            push(s);
                        }
                        for gp in ekg.native_parents(p) {
                            push(gp);
                            for u in ekg.native_children(gp) {
                                push(u);
                            }
                        }
                    }
                    for c in ekg.native_children(a) {
                        push(c);
                        for gc in ekg.native_children(c) {
                            push(gc);
                        }
                    }
                    (a, nearest(term, a, cand.into_iter(), k))
                })
                .collect::<Vec<_>>()
        });
        let mut index = std::collections::HashMap::with_capacity(findings.len());
        for shard in shards {
            index.extend(shard);
        }
        Self { index }
    }

    /// A random latent neighbour of `of` (falls back to `of` itself for
    /// isolated concepts).
    fn sample(&self, rng: &mut StdRng, of: ExtConceptId) -> ExtConceptId {
        match self.index.get(&of) {
            Some(list) if !list.is_empty() => list[rng.gen_range(0..list.len())],
            _ => of,
        }
    }
}

/// The `k` of `candidates` nearest `a` in latent space, ties broken by id.
fn nearest(
    term: &GeneratedTerminology,
    a: ExtConceptId,
    candidates: impl Iterator<Item = ExtConceptId>,
    k: usize,
) -> Vec<ExtConceptId> {
    let mut dists: Vec<(f64, ExtConceptId)> =
        candidates.map(|b| (term.latent_distance(a, b), b)).collect();
    dists.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    dists.into_iter().take(k).map(|(_, b)| b).collect()
}

/// Cumulative-weight sampling table with binary search.
struct CumTable {
    items: Vec<ExtConceptId>,
    cum: Vec<f64>,
}

impl CumTable {
    fn build<F: Fn(ExtConceptId) -> f64>(items: &[ExtConceptId], weight: F) -> Self {
        let mut cum = Vec::with_capacity(items.len());
        let mut total = 0.0;
        for &c in items {
            total += weight(c).max(0.0);
            cum.push(total);
        }
        Self { items: items.to_vec(), cum }
    }

    fn sample(&self, rng: &mut StdRng) -> Option<ExtConceptId> {
        let total = *self.cum.last()?;
        if total <= 0.0 {
            return None;
        }
        let target = rng.gen::<f64>() * total;
        let idx = self.cum.partition_point(|&x| x < target);
        self.items.get(idx.min(self.items.len() - 1)).copied()
    }
}

/// Deterministically mangle ~60% of word types into a foreign dialect
/// (suffix shift). Short/function words survive, so the corpora still share
/// grammar, only the content vocabulary drifts.
fn dialect(word: &str) -> String {
    if word.len() < 4 || !word.chars().all(|c| c.is_alphabetic()) {
        return word.to_string();
    }
    let hash: u32 = word.bytes().fold(0u32, |h, b| h.wrapping_mul(31).wrapping_add(b as u32));
    if hash % 10 < 6 {
        format!("{word}ux")
    } else {
        word.to_string()
    }
}

fn sample_tag(rng: &mut StdRng) -> ContextTag {
    let total: f64 = TAG_WEIGHTS.iter().map(|&(_, w)| w).sum();
    let mut target = rng.gen::<f64>() * total;
    for &(tag, w) in &TAG_WEIGHTS {
        target -= w;
        if target <= 0.0 {
            return tag;
        }
    }
    ContextTag::General
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> (GeneratedTerminology, Oracle) {
        let t = GeneratedTerminology::generate(&SnomedConfig::tiny(51));
        let o = Oracle::derive(&t, 52);
        (t, o)
    }

    #[test]
    fn generates_requested_document_count() {
        let (t, o) = world();
        let c = CorpusGenerator::new(&t, &o).generate(&CorpusConfig::tiny(1));
        assert_eq!(c.len(), 120);
        assert!(c.sentence_count() >= 120 * 5);
        assert!(c.token_count() > c.sentence_count() * 4);
    }

    #[test]
    fn deterministic() {
        let (t, o) = world();
        let a = CorpusGenerator::new(&t, &o).generate(&CorpusConfig::tiny(2));
        let b = CorpusGenerator::new(&t, &o).generate(&CorpusConfig::tiny(2));
        assert_eq!(a.len(), b.len());
        let ra: Vec<String> = a.docs[0].sentences.iter().map(|s| a.render(s)).collect();
        let rb: Vec<String> = b.docs[0].sentences.iter().map(|s| b.render(s)).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn all_tags_appear() {
        let (t, o) = world();
        let c = CorpusGenerator::new(&t, &o).generate(&CorpusConfig::tiny(3));
        for tag in ContextTag::ALL {
            assert!(
                c.sentences().any(|s| s.tag == tag),
                "tag {tag:?} never generated"
            );
        }
    }

    #[test]
    fn treatment_sentences_mention_findings() {
        let (t, o) = world();
        let c = CorpusGenerator::new(&t, &o).generate(&CorpusConfig::tiny(4));
        // At least one treatment sentence should contain a finding name.
        let findings = t.of_hierarchy(Hierarchy::ClinicalFinding);
        let some_hit = c
            .sentences()
            .filter(|s| s.tag == ContextTag::Treatment)
            .take(200)
            .any(|s| {
                let text = c.render(s);
                findings.iter().take(300).any(|&f| text.contains(t.ekg.name(f)))
            });
        assert!(some_hit);
    }

    #[test]
    fn out_of_domain_has_low_concept_overlap() {
        let (t, _) = world();
        let ood = CorpusGenerator::out_of_domain(6, 60);
        // Short function words survive the dialect shift (both corpora
        // share grammar)…
        assert!(ood.vocab.get("the").is_some());
        assert!(ood.vocab.get("for").is_some());
        // …but in-domain concept *names* rarely occur as phrases in the
        // OOD corpus — the domain-shift the Embedding-pre-trained baseline
        // suffers from.
        let ood_text: Vec<String> =
            ood.docs.iter().flat_map(|d| d.sentences.iter().map(|s| ood.render(s))).collect();
        let findings = t.of_hierarchy(Hierarchy::ClinicalFinding);
        let sample: Vec<&str> =
            findings.iter().take(120).map(|&f| t.ekg.name(f)).filter(|n| n.contains(' ')).collect();
        let present = sample
            .iter()
            .filter(|name| ood_text.iter().any(|s| s.contains(*name)))
            .count();
        assert!(
            present * 5 < sample.len().max(1),
            "{present} of {} in-domain concept names appear in the OOD corpus",
            sample.len()
        );
    }

    #[test]
    fn cum_table_respects_zero_weights() {
        let items = vec![ExtConceptId::new(0), ExtConceptId::new(1)];
        let table = CumTable::build(&items, |c| if c.raw() == 0 { 0.0 } else { 1.0 });
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            assert_eq!(table.sample(&mut rng), Some(ExtConceptId::new(1)));
        }
        let empty = CumTable::build(&[], |_| 1.0);
        assert_eq!(empty.sample(&mut rng), None);
    }
}
