//! Synthetic terminology generation.
//!
//! Produces a rooted, multi-parent DAG shaped like SNOMED CT: a handful of
//! top-level hierarchies (clinical findings dominating), deep modifier
//! chains, registered synonyms, and antonym-trap siblings. Alongside the
//! graph it emits per-concept metadata that the rest of the synthetic world
//! builds on: the latent semantic vector (ground-truth only — no method
//! ever sees it), a Zipf popularity weight (drives corpus mention counts),
//! and antonym links.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use medkb_ekg::{Ekg, EkgBuilder};
use medkb_types::{ExtConceptId, IdVec};

use crate::config::SnomedConfig;
use crate::vocab;

/// Dimensionality of the latent ground-truth vectors.
pub const LATENT_DIM: usize = 12;

/// Top-level hierarchy a concept belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hierarchy {
    /// Symptoms, disorders, findings — the hierarchy query relaxation
    /// mostly operates in.
    ClinicalFinding,
    /// Drug products and classes.
    PharmaceuticalProduct,
    /// Anatomy.
    BodyStructure,
    /// Pathogens.
    Organism,
    /// Clinical procedures.
    Procedure,
}

impl Hierarchy {
    /// All hierarchies with their generation proportions.
    pub const PROPORTIONS: [(Hierarchy, f64); 5] = [
        (Hierarchy::ClinicalFinding, 0.55),
        (Hierarchy::PharmaceuticalProduct, 0.18),
        (Hierarchy::BodyStructure, 0.10),
        (Hierarchy::Organism, 0.07),
        (Hierarchy::Procedure, 0.10),
    ];

    /// The head concept name of this hierarchy.
    pub fn head_name(self) -> &'static str {
        match self {
            Hierarchy::ClinicalFinding => "clinical finding",
            Hierarchy::PharmaceuticalProduct => "pharmaceutical / biologic product",
            Hierarchy::BodyStructure => "body structure",
            Hierarchy::Organism => "organism",
            Hierarchy::Procedure => "procedure",
        }
    }
}

/// Ground-truth metadata of one generated concept.
#[derive(Debug, Clone)]
pub struct ConceptMeta {
    /// Hierarchy membership.
    pub hierarchy: Hierarchy,
    /// Latent semantic position (oracle-only).
    pub latent: [f32; LATENT_DIM],
    /// Zipf popularity weight in `(0, 1]`; drives corpus mention counts.
    pub popularity: f64,
    /// The antonym partner, if this concept is half of a trap pair.
    pub antonym_of: Option<ExtConceptId>,
}

/// A generated terminology: the graph plus ground-truth metadata.
#[derive(Debug, Clone)]
pub struct GeneratedTerminology {
    /// The external knowledge source graph.
    pub ekg: Ekg,
    /// Per-concept ground truth (same index space as `ekg`).
    pub meta: IdVec<ExtConceptId, ConceptMeta>,
}

impl GeneratedTerminology {
    /// Generate a terminology from `config`.
    pub fn generate(config: &SnomedConfig) -> Self {
        Generator::new(config).run()
    }

    /// Concepts of a hierarchy (the root belongs to none).
    pub fn of_hierarchy(&self, h: Hierarchy) -> Vec<ExtConceptId> {
        let root = self.ekg.root();
        self.meta
            .iter()
            .filter(|&(id, m)| id != root && m.hierarchy == h)
            .map(|(id, _)| id)
            .collect()
    }

    /// Concepts of a hierarchy at depth ≥ `min_depth` — hierarchy heads and
    /// broad category nodes are rarely meaningful query terms.
    pub fn of_hierarchy_below(&self, h: Hierarchy, min_depth: u32) -> Vec<ExtConceptId> {
        self.of_hierarchy(h)
            .into_iter()
            .filter(|&c| self.ekg.depth(c) >= min_depth)
            .collect()
    }

    /// Euclidean distance between the latents of two concepts.
    pub fn latent_distance(&self, a: ExtConceptId, b: ExtConceptId) -> f64 {
        let (va, vb) = (&self.meta[a].latent, &self.meta[b].latent);
        va.iter().zip(vb).map(|(x, y)| (f64::from(x - y)).powi(2)).sum::<f64>().sqrt()
    }
}

/// Name-state of a finding-hierarchy node, from which child names derive.
#[derive(Debug, Clone, Default)]
struct FindingState {
    organ: Option<usize>,
    condition: Option<usize>,
    modifiers: Vec<usize>,
}

struct NodeDraft {
    name: String,
    finding_state: FindingState,
    drug_class_end: Option<&'static str>,
}

struct Generator<'a> {
    config: &'a SnomedConfig,
    rng: StdRng,
    used_names: std::collections::HashSet<String>,
    /// Per colliding base name, the `k` at which [`Generator::claim_name`]
    /// resumes probing `"{base} type {k}"`: every suffix below it is taken.
    next_suffix: std::collections::HashMap<String, u32>,
    /// Ground-truth semantic component vectors: a finding *means* its
    /// anatomical site plus its pathology plus its modifiers. Taxonomy,
    /// names, and corpus co-mentions are all (noisy) views of this one
    /// underlying semantics, which keeps the oracle's judgments coherent
    /// with what a careful reader of the names would say.
    organ_vecs: Vec<[f32; LATENT_DIM]>,
    condition_vecs: Vec<[f32; LATENT_DIM]>,
    modifier_vecs: Vec<[f32; LATENT_DIM]>,
}

impl<'a> Generator<'a> {
    fn new(config: &'a SnomedConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let table = |n: usize, scale: f32, rng: &mut StdRng| -> Vec<[f32; LATENT_DIM]> {
            (0..n)
                .map(|_| {
                    let mut v = [0.0f32; LATENT_DIM];
                    for x in v.iter_mut() {
                        *x = (rng.gen::<f32>() * 2.0 - 1.0) * scale;
                    }
                    v
                })
                .collect()
        };
        let organ_vecs = table(vocab::ORGANS.len(), 2.2, &mut rng);
        let condition_vecs = table(vocab::CONDITIONS.len(), 1.6, &mut rng);
        let modifier_vecs = table(vocab::MODIFIERS.len(), 0.45, &mut rng);
        Self {
            config,
            rng,
            used_names: std::collections::HashSet::new(),
            next_suffix: std::collections::HashMap::new(),
            organ_vecs,
            condition_vecs,
            modifier_vecs,
        }
    }

    /// Latent of a finding from its semantic name state: head offset +
    /// organ + condition + modifiers + small idiosyncratic noise.
    fn finding_latent(
        &mut self,
        head: &[f32; LATENT_DIM],
        state: &FindingState,
    ) -> [f32; LATENT_DIM] {
        let mut v = *head;
        if let Some(o) = state.organ {
            for (x, y) in v.iter_mut().zip(self.organ_vecs[o]) {
                *x += y;
            }
        }
        if let Some(c) = state.condition {
            for (x, y) in v.iter_mut().zip(self.condition_vecs[c]) {
                *x += y;
            }
        }
        for &m in &state.modifiers {
            for (x, y) in v.iter_mut().zip(self.modifier_vecs[m]) {
                *x += y;
            }
        }
        for x in v.iter_mut() {
            *x += (self.rng.gen::<f32>() * 2.0 - 1.0) * 0.25;
        }
        v
    }

    /// `base` if it is free, else the first free `"{base} type {k}"` for
    /// `k ≥ 2`. `used_names` never loses an entry, so every suffix below
    /// the base's cursor stays taken and probing resumes there: the same
    /// name as probing from 2, without re-probing the taken run.
    fn claim_name(&mut self, base: String) -> String {
        if self.used_names.insert(base.clone()) {
            return base;
        }
        let mut k = self.next_suffix.get(&base).copied().unwrap_or(2);
        let name = loop {
            let candidate = format!("{base} type {k}");
            k += 1;
            if self.used_names.insert(candidate.clone()) {
                break candidate;
            }
        };
        self.next_suffix.insert(base, k);
        name
    }

    fn run(mut self) -> GeneratedTerminology {
        // nodes[i] = (name, parent index or usize::MAX for root, hierarchy or None for root)
        struct Node {
            name: String,
            parents: Vec<usize>,
            depth: u32,
            hierarchy: Option<Hierarchy>,
            finding_state: FindingState,
            drug_class_end: Option<&'static str>,
            antonym_of: Option<usize>,
            latent: [f32; LATENT_DIM],
        }
        let mut nodes: Vec<Node> = Vec::with_capacity(self.config.concepts + 8);
        self.used_names.insert("snomed ct concept".into());
        nodes.push(Node {
            name: "snomed ct concept".into(),
            parents: Vec::new(),
            depth: 0,
            hierarchy: None,
            finding_state: FindingState::default(),
            drug_class_end: None,
            antonym_of: None,
            latent: [0.0; LATENT_DIM],
        });

        // Hierarchy heads, with well-separated latents.
        let mut heads: Vec<(Hierarchy, usize)> = Vec::new();
        for (i, (h, _)) in Hierarchy::PROPORTIONS.iter().enumerate() {
            let mut latent = [0.0f32; LATENT_DIM];
            // Two dedicated axes per hierarchy keep the heads far apart.
            latent[(2 * i) % LATENT_DIM] = 10.0;
            latent[(2 * i + 1) % LATENT_DIM] = if i % 2 == 0 { 6.0 } else { -6.0 };
            let name = self.claim_name(h.head_name().to_string());
            nodes.push(Node {
                name,
                parents: vec![0],
                depth: 1,
                hierarchy: Some(*h),
                finding_state: FindingState::default(),
                drug_class_end: None,
                antonym_of: None,
                latent,
            });
            heads.push((*h, nodes.len() - 1));
        }

        // Per-hierarchy member lists for parent sampling.
        let mut members: std::collections::HashMap<Hierarchy, Vec<usize>> =
            heads.iter().map(|&(h, idx)| (h, vec![idx])).collect();

        let total = self.config.concepts.saturating_sub(nodes.len());
        let mut budget: Vec<(Hierarchy, usize)> = Hierarchy::PROPORTIONS
            .iter()
            .map(|&(h, p)| (h, ((total as f64) * p).round() as usize))
            .collect();

        // Attempts can fail (name collision, depth cap); only successful
        // node creations consume budget, with a global attempt guard.
        let mut attempts = 0usize;
        let max_attempts = self.config.concepts.saturating_mul(30).max(1_000);
        while let Some(slot) = {
            let remaining: Vec<usize> = budget
                .iter()
                .enumerate()
                .filter(|(_, &(_, n))| n > 0)
                .map(|(i, _)| i)
                .collect();
            if remaining.is_empty() || attempts >= max_attempts {
                None
            } else {
                Some(remaining[self.rng.gen_range(0..remaining.len())])
            }
        } {
            attempts += 1;
            let hierarchy = budget[slot].0;
            let pool = &members[&hierarchy];
            // Bias towards recently added nodes to grow deep chains.
            let parent = if pool.len() > 4 && self.rng.gen_bool(0.6) {
                let lo = pool.len() - pool.len() / 4 - 1;
                pool[self.rng.gen_range(lo..pool.len())]
            } else {
                pool[self.rng.gen_range(0..pool.len())]
            };
            if nodes[parent].depth >= self.config.max_depth {
                continue; // budget spent; tree stops growing downward here
            }

            let draft = self.derive_child(
                hierarchy,
                &nodes[parent].name,
                &nodes[parent].finding_state,
                nodes[parent].drug_class_end,
                parent,
            );
            let Some(draft) = draft else { continue };

            let depth = nodes[parent].depth + 1;
            let head_latent = nodes[heads
                .iter()
                .find(|&&(h, _)| h == hierarchy)
                .expect("head exists")
                .1]
                .latent;
            let latent = if hierarchy == Hierarchy::ClinicalFinding {
                self.finding_latent(&head_latent, &draft.finding_state)
            } else {
                self.child_latent(&nodes[parent].latent, depth, 1.0)
            };
            let name = self.claim_name(draft.name);
            nodes.push(Node {
                name,
                parents: vec![parent],
                depth,
                hierarchy: Some(hierarchy),
                finding_state: draft.finding_state.clone(),
                drug_class_end: draft.drug_class_end,
                antonym_of: None,
                latent,
            });
            budget[slot].1 -= 1;
            let new_idx = nodes.len() - 1;
            members.get_mut(&hierarchy).unwrap().push(new_idx);

            // Occasional second parent: any earlier node of the hierarchy
            // that is not the first parent (acyclic because the new node
            // has no descendants yet).
            if self.rng.gen_bool(self.config.multi_parent_rate) {
                let pool = &members[&hierarchy];
                // SNOMED's multi-parents are semantically coherent: pick
                // the latently closest of a handful of candidates.
                let mut best: Option<(f64, usize)> = None;
                for _ in 0..6 {
                    let cand = pool[self.rng.gen_range(0..pool.len() - 1)];
                    if cand == parent || cand == new_idx {
                        continue;
                    }
                    let d: f64 = nodes[new_idx]
                        .latent
                        .iter()
                        .zip(nodes[cand].latent)
                        .map(|(a, b)| f64::from(a - b).powi(2))
                        .sum();
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, cand));
                    }
                }
                // Only accept genuinely close candidates: a cross-family
                // second parent would let the Eq. 2 rollup mix unrelated
                // subtrees, which real SNOMED multi-parents (same-family
                // refinements) do not do.
                if let Some((d, second)) = best {
                    if d < 6.0 {
                        nodes[new_idx].parents.push(second);
                    }
                }
            }

            // Antonym trap: spawn the opposite sibling under the same
            // parent, latently far from its pair.
            if hierarchy == Hierarchy::ClinicalFinding
                && self.rng.gen_bool(self.config.antonym_rate)
            {
                let root_word = vocab::ANTONYM_ROOTS
                    [self.rng.gen_range(0..vocab::ANTONYM_ROOTS.len())];
                let pos = format!("hyper{root_word}");
                let neg = format!("hypo{root_word}");
                if !self.used_names.contains(&pos) && !self.used_names.contains(&neg) {
                    let pos_name = self.claim_name(pos);
                    let neg_name = self.claim_name(neg);
                    // The pair shares its site but opposes in direction:
                    // base ± r with |r| comparable to a condition vector.
                    let mut r = [0.0f32; LATENT_DIM];
                    for x in r.iter_mut() {
                        *x = (self.rng.gen::<f32>() * 2.0 - 1.0) * 1.8;
                    }
                    let parent_latent = nodes[parent].latent;
                    let mut base_latent = parent_latent;
                    let mut anti_latent = parent_latent;
                    for ((b, a), rr) in
                        base_latent.iter_mut().zip(anti_latent.iter_mut()).zip(r)
                    {
                        *b += rr;
                        *a -= rr;
                    }
                    for (n, l, anti) in
                        [(pos_name, base_latent, false), (neg_name, anti_latent, true)]
                    {
                        nodes.push(Node {
                            name: n,
                            parents: vec![parent],
                            depth,
                            hierarchy: Some(hierarchy),
                            finding_state: FindingState::default(),
                            drug_class_end: None,
                            antonym_of: if anti { Some(nodes.len() - 1) } else { None },
                            latent: l,
                        });
                        members.get_mut(&hierarchy).unwrap().push(nodes.len() - 1);
                    }
                    let last = nodes.len() - 1;
                    nodes[last - 1].antonym_of = Some(last);
                }
            }
        }

        // Build the Ekg and metadata.
        let mut builder = EkgBuilder::new();
        let ids: Vec<ExtConceptId> = nodes.iter().map(|n| builder.concept(&n.name)).collect();
        for (i, n) in nodes.iter().enumerate() {
            for &p in &n.parents {
                builder.is_a(ids[i], ids[p]);
            }
        }
        // Synonyms.
        let mut synonym_plan: Vec<(usize, String)> = Vec::new();
        for (i, n) in nodes.iter().enumerate() {
            if i == 0 || !self.rng.gen_bool(self.config.synonym_rate.min(1.0)) {
                continue;
            }
            let candidates = [
                vocab::organ_swap_synonym(&n.name),
                vocab::reorder_synonym(&n.name),
                vocab::abbreviation(&n.name),
            ];
            let available: Vec<String> = candidates.into_iter().flatten().collect();
            if !available.is_empty() {
                let pick = available[self.rng.gen_range(0..available.len())].clone();
                synonym_plan.push((i, pick));
            }
        }
        for (i, syn) in synonym_plan {
            builder.synonym(ids[i], &syn);
        }
        let ekg = builder.build().expect("generated terminology must be a valid rooted DAG");

        // Popularity: Zipf over a random permutation within each hierarchy.
        let mut popularity = vec![0.0f64; nodes.len()];
        // Iterate hierarchies in declaration order: HashMap order would make
        // the RNG stream (and thus popularity ranks) nondeterministic.
        for (h, _) in Hierarchy::PROPORTIONS {
            let idxs = &members[&h];
            let mut perm: Vec<usize> = idxs.clone();
            // Fisher-Yates with the generator RNG.
            for i in (1..perm.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                perm.swap(i, j);
            }
            for (rank, &idx) in perm.iter().enumerate() {
                popularity[idx] = 1.0 / ((rank + 1) as f64).powf(0.9);
            }
        }
        popularity[0] = 1.0;

        let meta: IdVec<ExtConceptId, ConceptMeta> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| ConceptMeta {
                hierarchy: n.hierarchy.unwrap_or(Hierarchy::ClinicalFinding),
                latent: n.latent,
                popularity: popularity[i],
                antonym_of: n.antonym_of.map(|j| ids[j]),
            })
            .collect();

        GeneratedTerminology { ekg, meta }
    }

    fn child_latent(&mut self, parent: &[f32; LATENT_DIM], depth: u32, scale: f64) -> [f32; LATENT_DIM] {
        let step = scale * 3.0 * 0.78f64.powi(depth as i32);
        let mut out = *parent;
        for x in out.iter_mut() {
            *x += (self.rng.gen::<f64>() * 2.0 - 1.0) as f32 * step as f32;
        }
        out
    }

    fn derive_child(
        &mut self,
        hierarchy: Hierarchy,
        parent_name: &str,
        parent_state: &FindingState,
        parent_class_end: Option<&'static str>,
        parent_idx: usize,
    ) -> Option<NodeDraft> {
        let name_and_state: (String, FindingState, Option<&'static str>) = match hierarchy {
            Hierarchy::ClinicalFinding => {
                let mut st = parent_state.clone();
                let name = if st.organ.is_none() && st.condition.is_none() {
                    // Level under the head: organ category.
                    let organ = self.rng.gen_range(0..vocab::ORGANS.len());
                    st.organ = Some(organ);
                    format!("{} finding", vocab::ORGANS[organ].0)
                } else if st.condition.is_none() {
                    let condition = self.rng.gen_range(0..vocab::CONDITIONS.len());
                    st.condition = Some(condition);
                    format!(
                        "{} {}",
                        vocab::ORGANS[st.organ.unwrap()].0,
                        vocab::CONDITIONS[condition]
                    )
                } else {
                    // Add a modifier (or swap the condition for breadth).
                    if st.modifiers.len() < 3 && self.rng.gen_bool(0.8) {
                        let m = self.rng.gen_range(0..vocab::MODIFIERS.len());
                        if st.modifiers.contains(&m) {
                            return None;
                        }
                        st.modifiers.push(m);
                    } else {
                        let c = self.rng.gen_range(0..vocab::CONDITIONS.len());
                        st.condition = Some(c);
                        st.modifiers.clear();
                    }
                    let mods: Vec<&str> =
                        st.modifiers.iter().map(|&m| vocab::MODIFIERS[m]).collect();
                    let organ = st.organ.map(|o| vocab::ORGANS[o].0).unwrap_or("systemic");
                    let condition = vocab::CONDITIONS[st.condition.unwrap()];
                    if mods.is_empty() {
                        format!("{organ} {condition}")
                    } else {
                        format!("{} {organ} {condition}", mods.join(" "))
                    }
                };
                // A name collision would create a second concept with the
                // same semantics in a possibly unrelated branch; skip and
                // let the budget try again elsewhere.
                if self.used_names.contains(&name) {
                    return None;
                }
                (name, st, None)
            }
            Hierarchy::PharmaceuticalProduct => {
                if parent_class_end.is_none() && parent_idx != 0 && parent_name.ends_with("product")
                {
                    // Drug class level.
                    let end = vocab::DRUG_ENDS[self.rng.gen_range(0..vocab::DRUG_ENDS.len())];
                    (format!("{end} class agent"), FindingState::default(), Some(end))
                } else if let Some(end) = parent_class_end {
                    if parent_name.contains(' ') {
                        // Already a specific product: add a strength.
                        let mg = [5, 10, 20, 25, 40, 50, 100, 200][self.rng.gen_range(0..8usize)];
                        (format!("{parent_name} {mg} mg"), FindingState::default(), Some(end))
                    } else if parent_name.ends_with("agent") {
                        // Product under a class, sharing the suffix.
                        let start =
                            vocab::DRUG_STARTS[self.rng.gen_range(0..vocab::DRUG_STARTS.len())];
                        let mid = vocab::DRUG_MIDS[self.rng.gen_range(0..vocab::DRUG_MIDS.len())];
                        (format!("{start}{mid}{end}"), FindingState::default(), Some(end))
                    } else {
                        // Product form.
                        let form = ["oral tablet", "capsule", "injection", "topical cream"]
                            [self.rng.gen_range(0..4usize)];
                        (format!("{parent_name} {form}"), FindingState::default(), Some(end))
                    }
                } else {
                    let end = vocab::DRUG_ENDS[self.rng.gen_range(0..vocab::DRUG_ENDS.len())];
                    (format!("{end} class agent"), FindingState::default(), Some(end))
                }
            }
            Hierarchy::BodyStructure => {
                let organ = vocab::ORGANS[self.rng.gen_range(0..vocab::ORGANS.len())];
                let region = ["cortex", "medulla", "lobe", "segment", "wall", "membrane", "canal"]
                    [self.rng.gen_range(0..7usize)];
                let name = if parent_name == "body structure" {
                    format!("{} structure", organ.1)
                } else {
                    format!("{} {region}", organ.0)
                };
                (name, FindingState::default(), None)
            }
            Hierarchy::Organism => {
                let name = if parent_name == "organism" {
                    format!(
                        "{}{} genus",
                        vocab::GENUS_STARTS[self.rng.gen_range(0..vocab::GENUS_STARTS.len())],
                        vocab::GENUS_ENDS[self.rng.gen_range(0..vocab::GENUS_ENDS.len())]
                    )
                } else {
                    let genus = parent_name.trim_end_matches(" genus");
                    format!(
                        "{genus} {}",
                        vocab::SPECIES[self.rng.gen_range(0..vocab::SPECIES.len())]
                    )
                };
                (name, FindingState::default(), None)
            }
            Hierarchy::Procedure => {
                let proc = vocab::PROCEDURES[self.rng.gen_range(0..vocab::PROCEDURES.len())];
                let name = if parent_name == "procedure" {
                    format!("{proc} procedure")
                } else {
                    let organ = vocab::ORGANS[self.rng.gen_range(0..vocab::ORGANS.len())];
                    format!("{} {proc}", organ.0)
                };
                (name, FindingState::default(), None)
            }
        };
        Some(NodeDraft {
            name: name_and_state.0,
            finding_state: name_and_state.1,
            drug_class_end: name_and_state.2,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medkb_ekg::EkgStats;

    fn small() -> GeneratedTerminology {
        GeneratedTerminology::generate(&SnomedConfig::tiny(42))
    }

    #[test]
    fn generates_roughly_requested_size() {
        let t = small();
        let n = t.ekg.len();
        assert!(n > 300 && n < 700, "got {n} concepts");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = GeneratedTerminology::generate(&SnomedConfig::tiny(7));
        let b = GeneratedTerminology::generate(&SnomedConfig::tiny(7));
        assert_eq!(a.ekg.len(), b.ekg.len());
        for c in a.ekg.concepts() {
            assert_eq!(a.ekg.name(c), b.ekg.name(c));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = GeneratedTerminology::generate(&SnomedConfig::tiny(7));
        let b = GeneratedTerminology::generate(&SnomedConfig::tiny(8));
        let same = a.ekg.len() == b.ekg.len()
            && a.ekg.concepts().all(|c| a.ekg.name(c) == b.ekg.name(c));
        assert!(!same);
    }

    #[test]
    fn all_hierarchies_populated() {
        let t = small();
        for (h, _) in Hierarchy::PROPORTIONS {
            assert!(
                !t.of_hierarchy(h).is_empty(),
                "hierarchy {h:?} empty"
            );
        }
        let findings = t.of_hierarchy(Hierarchy::ClinicalFinding).len();
        let drugs = t.of_hierarchy(Hierarchy::PharmaceuticalProduct).len();
        assert!(findings > drugs, "findings should dominate");
    }

    #[test]
    fn structure_is_deep_and_multi_parent() {
        let t = small();
        let stats = EkgStats::compute(&t.ekg);
        assert!(stats.max_depth >= 4, "{stats}");
        assert!(stats.multi_parent > 0, "{stats}");
    }

    #[test]
    fn antonym_pairs_are_linked_and_latently_far() {
        let t = GeneratedTerminology::generate(&SnomedConfig {
            antonym_rate: 0.5,
            ..SnomedConfig::tiny(11)
        });
        let pairs: Vec<(ExtConceptId, ExtConceptId)> = t
            .meta
            .iter()
            .filter_map(|(id, m)| m.antonym_of.map(|o| (id, o)))
            .collect();
        assert!(!pairs.is_empty());
        for (a, b) in pairs {
            // The antonym is a sibling (shares a parent)…
            let pa: std::collections::HashSet<_> =
                t.ekg.parents(a).iter().map(|e| e.to).collect();
            assert!(t.ekg.parents(b).iter().any(|e| pa.contains(&e.to)));
            // …whose latent is pushed away from its pair, farther apart
            // than either is from the shared parent.
            let parent = t.ekg.parents(b).targets()[0];
            assert!(
                t.latent_distance(a, b) > t.latent_distance(b, parent),
                "{} / {}",
                t.ekg.name(a),
                t.ekg.name(b)
            );
        }
    }

    /// The probe `claim_name` replaced: every suffix from 2, every time.
    fn probe_from_two(used: &mut std::collections::HashSet<String>, base: &str) -> String {
        if used.insert(base.to_string()) {
            return base.to_string();
        }
        (2..)
            .map(|k| format!("{base} type {k}"))
            .find(|c| used.insert(c.clone()))
            .expect("suffixes are unbounded")
    }

    #[test]
    fn claim_name_matches_the_linear_probe() {
        let config = SnomedConfig::tiny(1);
        let mut g = Generator::new(&config);
        let mut used = std::collections::HashSet::new();
        // Suffixed names claimed directly, below and above a base's cursor,
        // and suffixed names that collide as bases of their own.
        let claims = [
            "x type 3", "x", "x", "x", "x", "y", "x type 6", "x", "x type 2", "y", "y type 2",
            "y", "x type 2",
        ];
        let got: Vec<String> = claims.iter().map(|&b| g.claim_name(b.to_string())).collect();
        let want: Vec<String> = claims.iter().map(|&b| probe_from_two(&mut used, b)).collect();
        assert_eq!(got, want);
        assert_eq!(got[1..5], ["x", "x type 2", "x type 4", "x type 5"]);
        assert_eq!(got[7], "x type 7");
    }

    #[test]
    fn popularity_is_positive_and_bounded() {
        let t = small();
        for (_, m) in t.meta.iter() {
            assert!(m.popularity > 0.0 && m.popularity <= 1.0);
        }
    }

    #[test]
    #[ignore = "large-scale stress run: cargo test -p medkb-snomed -- --ignored"]
    fn stress_generate_fifty_thousand_concepts() {
        let t = GeneratedTerminology::generate(&SnomedConfig {
            concepts: 50_000,
            seed: 777,
            ..SnomedConfig::default()
        });
        assert!(t.ekg.len() > 40_000, "{}", t.ekg.len());
        let stats = medkb_ekg::EkgStats::compute(&t.ekg);
        assert!(stats.max_depth >= 8, "{stats}");
        assert!(stats.multi_parent > 1_000, "{stats}");
        // Random graph probes stay fast at this scale.
        let findings = t.of_hierarchy_below(Hierarchy::ClinicalFinding, 3);
        let (a, b) = (findings[10], findings[findings.len() / 2]);
        let out = medkb_ekg::lcs::lcs(&t.ekg, a, b);
        assert!(!out.concepts.is_empty());
        assert!(!t.ekg.neighborhood(a, 4).is_empty());
    }

    #[test]
    fn synonyms_registered() {
        let t = small();
        let with_syn = t.ekg.concepts().filter(|&c| t.ekg.synonyms(c).next().is_some()).count();
        assert!(with_syn > 10, "only {with_syn} concepts have synonyms");
    }
}
