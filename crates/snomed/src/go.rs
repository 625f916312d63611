//! A Gene-Ontology-flavoured terminology generator.
//!
//! §1 lists the Gene Ontology alongside SNOMED CT and UMLS as external
//! knowledge sources the approach can exploit. GO's shape differs from
//! SNOMED's: three sub-ontologies (biological process, molecular function,
//! cellular component), shorter names built from a compositional grammar
//! ("regulation of apoptosis", "atp binding"), and heavier multi-parenting.
//! Generating it through the same [`medkb_ekg::EkgBuilder`] demonstrates
//! that every algorithm in this repository is terminology-agnostic — it
//! only consumes the rooted DAG and the names.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use medkb_ekg::{Ekg, EkgBuilder};
use medkb_types::ExtConceptId;

/// Process roots for the biological-process branch.
const PROCESSES: &[&str] = &[
    "apoptosis", "cell division", "dna replication", "transcription", "translation",
    "glycolysis", "autophagy", "signal transduction", "protein folding", "ion transport",
    "lipid metabolism", "immune response", "angiogenesis", "chemotaxis", "meiosis",
];

/// Regulation-style prefixes applied to processes.
const REGULATORS: &[&str] =
    &["regulation of", "positive regulation of", "negative regulation of", "activation of"];

/// Binding partners for the molecular-function branch.
const LIGANDS: &[&str] = &[
    "atp", "dna", "rna", "calcium ion", "zinc ion", "heme", "ubiquitin", "actin",
    "gtp", "nad", "fatty acid", "receptor",
];

/// Activities for the molecular-function branch.
const ACTIVITIES: &[&str] =
    &["binding", "kinase activity", "transporter activity", "hydrolase activity"];

/// Compartments for the cellular-component branch.
const COMPARTMENTS: &[&str] = &[
    "nucleus", "mitochondrion", "ribosome", "golgi apparatus", "lysosome",
    "plasma membrane", "cytoskeleton", "endoplasmic reticulum", "vesicle", "chromosome",
];

/// Sub-structures of compartments.
const PARTS: &[&str] = &["membrane", "lumen", "matrix", "outer region", "inner region"];

/// Configuration of the GO-like generator.
#[derive(Debug, Clone)]
pub struct GoConfig {
    /// RNG seed.
    pub seed: u64,
    /// Approximate number of terms.
    pub terms: usize,
    /// Probability of a second parent (GO multi-parents aggressively).
    pub multi_parent_rate: f64,
}

impl Default for GoConfig {
    fn default() -> Self {
        Self { seed: 0x60_60, terms: 800, multi_parent_rate: 0.35 }
    }
}

/// Generate a GO-like terminology.
///
/// The root is `gene ontology term`; its three children are the classic
/// sub-ontology heads. Deeper terms compose regulators over processes,
/// ligands over activities, and parts over compartments.
pub fn generate(config: &GoConfig) -> Ekg {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = EkgBuilder::new();
    let root = b.concept("gene ontology term");
    let bp = b.concept("biological process");
    let mf = b.concept("molecular function");
    let cc = b.concept("cellular component");
    for head in [bp, mf, cc] {
        b.is_a(head, root);
    }

    // (id, name, branch 0/1/2) — the builder interns but does not expose
    // reverse lookup, so names ride along for composition.
    let mut members: Vec<(ExtConceptId, String, usize)> = Vec::new();

    for (i, p) in PROCESSES.iter().enumerate() {
        let c = b.concept(p);
        b.is_a(c, bp);
        if i % 3 == 0 {
            b.synonym(c, &format!("{p} process"));
        }
        members.push((c, p.to_string(), 0));
    }
    for a in ACTIVITIES {
        let c = b.concept(a);
        b.is_a(c, mf);
        members.push((c, a.to_string(), 1));
    }
    for comp in COMPARTMENTS {
        let c = b.concept(comp);
        b.is_a(c, cc);
        members.push((c, comp.to_string(), 2));
    }

    let mut used: std::collections::HashSet<String> =
        members.iter().map(|(_, n, _)| n.clone()).collect();
    let mut budget = config.terms.saturating_sub(4 + members.len());
    let mut attempts = 0usize;
    while budget > 0 && attempts < config.terms * 20 {
        attempts += 1;
        let idx = rng.gen_range(0..members.len());
        let (parent, parent_name, branch) = {
            let m = &members[idx];
            (m.0, m.1.clone(), m.2)
        };
        let name = match branch {
            0 => format!("{} {parent_name}", REGULATORS[rng.gen_range(0..REGULATORS.len())]),
            1 => format!("{} {parent_name}", LIGANDS[rng.gen_range(0..LIGANDS.len())]),
            _ => format!("{parent_name} {}", PARTS[rng.gen_range(0..PARTS.len())]),
        };
        if !used.insert(name.clone()) {
            continue;
        }
        let c = b.concept(&name);
        b.is_a(c, parent);
        if rng.gen_bool(config.multi_parent_rate) {
            // Second parent within the same branch (GO never crosses).
            let candidates: Vec<ExtConceptId> = members
                .iter()
                .filter(|(m, _, br)| *br == branch && *m != parent && *m != c)
                .map(|(m, _, _)| *m)
                .collect();
            if !candidates.is_empty() {
                b.is_a(c, candidates[rng.gen_range(0..candidates.len())]);
            }
        }
        members.push((c, name, branch));
        budget -= 1;
    }

    b.build().expect("GO-like terminology is a valid rooted DAG")
}

#[cfg(test)]
mod tests {
    use super::*;
    use medkb_ekg::EkgStats;

    #[test]
    fn generates_the_three_sub_ontologies() {
        let g = generate(&GoConfig::default());
        assert_eq!(g.name(g.root()), "gene ontology term");
        for head in ["biological process", "molecular function", "cellular component"] {
            let id = g.lookup_name(head)[0];
            assert!(g.parents(id).contains(&g.root()));
            assert!(!g.children(id).is_empty(), "{head} is populated");
        }
    }

    #[test]
    fn reaches_requested_size_with_go_shape() {
        let g = generate(&GoConfig { terms: 500, ..GoConfig::default() });
        let stats = EkgStats::compute(&g);
        assert!(stats.concepts >= 400, "{stats}");
        assert!(stats.multi_parent > 30, "GO multi-parents aggressively: {stats}");
        assert!(stats.max_depth >= 3, "{stats}");
    }

    #[test]
    fn composed_names_nest() {
        let g = generate(&GoConfig::default());
        // Some regulation-of-regulation chains should exist.
        let nested = g
            .concepts()
            .filter(|&c| g.name(c).matches("regulation of").count() >= 2)
            .count();
        assert!(nested > 0, "no nested regulation terms generated");
    }

    #[test]
    fn deterministic() {
        let a = generate(&GoConfig::default());
        let b = generate(&GoConfig::default());
        assert_eq!(a.len(), b.len());
        for c in a.concepts() {
            assert_eq!(a.name(c), b.name(c));
        }
    }
}
