//! Deterministic medical-ish vocabulary pools and name composition.
//!
//! Names are composed from pools rather than sampled from real SNOMED CT
//! (which is license-gated); the composition rules are chosen so that the
//! phenomena the paper's matchers must cope with all occur:
//!
//! * multi-word names with modifier stacks ("chronic renal inflammation"),
//! * registered synonyms with organ-word swaps and re-orderings,
//! * abbreviations ("CRI"),
//! * antonym pairs within edit distance ≤ 2 of each other
//!   ("hyperkalemia"/"hypokalemia") — these stress both the EDIT matcher's
//!   precision (Table 1) and the context-free baselines (Table 2), exactly
//!   like the paper's "hyperpyrexia"/"hypothermia" example, and
//! * colloquial word substitutions that only co-occur in free text
//!   (recoverable by trained embeddings, not by string matching).

use rand::Rng;

/// Condition modifiers (severity/chronicity/etiology).
pub const MODIFIERS: &[&str] = &[
    "acute", "chronic", "recurrent", "congenital", "idiopathic", "severe", "mild",
    "progressive", "benign", "malignant", "primary", "secondary", "diffuse", "focal",
    "transient", "persistent", "juvenile", "atypical", "familial", "drug induced",
    "postoperative", "traumatic", "infective", "allergic", "autoimmune", "degenerative",
    "obstructive", "ischemic", "hemorrhagic", "interstitial",
];

/// `(anatomical adjective, common organ word)` pairs; the second member is
/// the synonym-swap form ("renal inflammation" ↔ "inflammation of kidney").
pub const ORGANS: &[(&str, &str)] = &[
    ("renal", "kidney"),
    ("cardiac", "heart"),
    ("hepatic", "liver"),
    ("pulmonary", "lung"),
    ("gastric", "stomach"),
    ("neural", "nerve"),
    ("cerebral", "brain"),
    ("dermal", "skin"),
    ("ocular", "eye"),
    ("aural", "ear"),
    ("nasal", "nose"),
    ("pharyngeal", "throat"),
    ("vascular", "blood vessel"),
    ("skeletal", "bone"),
    ("muscular", "muscle"),
    ("pancreatic", "pancreas"),
    ("thyroid", "thyroid gland"),
    ("splenic", "spleen"),
    ("intestinal", "bowel"),
    ("esophageal", "esophagus"),
    ("vesical", "bladder"),
    ("uterine", "uterus"),
    ("prostatic", "prostate"),
    ("lymphatic", "lymph node"),
    ("articular", "joint"),
    ("spinal", "spine"),
    ("bronchial", "airway"),
    ("pleural", "pleura"),
    ("pericardial", "pericardium"),
    ("retinal", "retina"),
];

/// Condition head nouns.
pub const CONDITIONS: &[&str] = &[
    "inflammation", "infection", "degeneration", "dysfunction", "insufficiency",
    "obstruction", "lesion", "pain", "swelling", "hemorrhage", "stenosis", "dilation",
    "atrophy", "hypertrophy", "fibrosis", "edema", "necrosis", "ulceration", "rupture",
    "spasm", "paralysis", "neoplasm", "cyst", "abscess", "malformation", "prolapse",
    "dysplasia", "hyperplasia", "calcification", "erosion",
];

/// Roots for antonym trap pairs: `hyper<root>` / `hypo<root>` differ by
/// exactly 2 edits, so the EDIT matcher (τ = 2) can confuse them.
pub const ANTONYM_ROOTS: &[&str] = &[
    "tension", "glycemia", "kalemia", "natremia", "thermia", "calcemia", "volemia",
    "capnia", "phosphatemia", "magnesemia", "uricemia", "lipidemia",
];

/// Drug name syllables.
pub const DRUG_STARTS: &[&str] = &[
    "al", "be", "cor", "dex", "eli", "fen", "glu", "hal", "ib", "lor", "met", "nor",
    "oxa", "pra", "quin", "ral", "sel", "tir", "umb", "vel", "xan", "zol",
];
/// Drug name middles.
pub const DRUG_MIDS: &[&str] =
    &["a", "i", "o", "u", "ar", "er", "ol", "an", "ex", "iv", "ud", "im"];
/// Drug name suffixes (class-flavoured).
pub const DRUG_ENDS: &[&str] = &[
    "pril", "olol", "statin", "mycin", "cillin", "zole", "profen", "mab", "nib", "vir",
    "sone", "azepam", "formin", "gliptin", "sartan", "dipine", "oxetine", "caine",
    "dronate", "tinib",
];

/// Organism genus prefixes and suffixes.
pub const GENUS_STARTS: &[&str] = &[
    "staphylo", "strepto", "entero", "myco", "lacto", "campylo", "pseudo", "acineto",
    "kleb", "borrel", "salmon", "legion",
];
/// Organism genus suffixes.
pub const GENUS_ENDS: &[&str] = &["coccus", "bacter", "bacillus", "monas", "siella", "spira"];
/// Organism species epithets.
pub const SPECIES: &[&str] = &[
    "aureus", "pyogenes", "coli", "pneumoniae", "fragilis", "mirabilis", "faecalis",
    "cereus", "subtilis", "vulgaris", "enterica", "canis",
];

/// Procedure head nouns.
pub const PROCEDURES: &[&str] = &[
    "biopsy", "resection", "bypass", "transplantation", "imaging", "endoscopy",
    "drainage", "repair", "replacement", "screening", "ablation", "catheterization",
];

/// Colloquial word substitutions. Left: terminology word; right: colloquial
/// variant used (a) by the corpus generator in patient-education sentences
/// and (b) by the reworded instance-name perturbation. Only embeddings
/// trained on the corpus can bridge these.
pub const COLLOQUIAL: &[(&str, &str)] = &[
    ("inflammation", "irritation"),
    ("hemorrhage", "bleeding"),
    ("edema", "puffiness"),
    ("pain", "ache"),
    ("infection", "bug"),
    ("neoplasm", "growth"),
    ("dysfunction", "trouble"),
    ("insufficiency", "weakness"),
    ("stenosis", "narrowing"),
    ("rupture", "tear"),
];

/// Look up the colloquial variant of a terminology word, if any.
pub fn colloquial_of(word: &str) -> Option<&'static str> {
    COLLOQUIAL.iter().find(|&&(w, _)| w == word).map(|&(_, c)| c)
}

/// Pick one element of a non-empty slice.
pub fn pick<'a, T: ?Sized>(rng: &mut impl Rng, pool: &'a [&'a T]) -> &'a T {
    pool[rng.gen_range(0..pool.len())]
}

/// Compose a drug name (`start [mid] end`).
pub fn drug_name(rng: &mut impl Rng) -> String {
    let start = pick(rng, DRUG_STARTS);
    let end = pick(rng, DRUG_ENDS);
    if rng.gen_bool(0.6) {
        format!("{start}{}{end}", pick(rng, DRUG_MIDS))
    } else {
        format!("{start}{end}")
    }
}

/// Compose an organism binomial name.
pub fn organism_name(rng: &mut impl Rng) -> String {
    format!("{}{} {}", pick(rng, GENUS_STARTS), pick(rng, GENUS_ENDS), pick(rng, SPECIES))
}

/// The abbreviation of a multi-word name ("chronic renal inflammation" →
/// "cri"). Only meaningful for ≥ 3 words.
pub fn abbreviation(name: &str) -> Option<String> {
    let words: Vec<&str> = name.split_whitespace().collect();
    if words.len() < 3 {
        return None;
    }
    Some(words.iter().filter_map(|w| w.chars().next()).collect())
}

/// Organ-swap synonym: replace the anatomical adjective with
/// "`<rest> of <organ>`" ("renal inflammation" → "inflammation of kidney").
pub fn organ_swap_synonym(name: &str) -> Option<String> {
    let words: Vec<&str> = name.split_whitespace().collect();
    for (i, w) in words.iter().enumerate() {
        if let Some(&(_, organ)) = ORGANS.iter().find(|&&(adj, _)| adj == *w) {
            let mut rest: Vec<&str> = Vec::new();
            rest.extend_from_slice(&words[..i]);
            rest.extend_from_slice(&words[i + 1..]);
            if rest.is_empty() {
                return None;
            }
            return Some(format!("{} of {organ}", rest.join(" ")));
        }
    }
    None
}

/// Reorder synonym: move the first modifier to the back ("chronic renal
/// inflammation" → "renal inflammation chronic"), mirroring the comma forms
/// real terminologies register.
pub fn reorder_synonym(name: &str) -> Option<String> {
    let words: Vec<&str> = name.split_whitespace().collect();
    if words.len() < 3 || !MODIFIERS.contains(&words[0]) {
        return None;
    }
    Some(format!("{} {}", words[1..].join(" "), words[0]))
}

/// Apply a random small typo (1–2 edits) to a name.
pub fn typo(rng: &mut impl Rng, name: &str) -> String {
    let mut chars: Vec<char> = name.chars().collect();
    let edits = if rng.gen_bool(0.5) { 1 } else { 2 };
    for _ in 0..edits {
        if chars.len() < 3 {
            break;
        }
        let i = rng.gen_range(1..chars.len() - 1);
        match rng.gen_range(0..3) {
            0 => {
                // delete
                chars.remove(i);
            }
            1 => {
                // duplicate (insertion)
                let c = chars[i];
                chars.insert(i, c);
            }
            _ => {
                // substitute with a nearby letter
                let c = chars[i];
                if c.is_ascii_lowercase() {
                    let shifted = ((c as u8 - b'a' + 1) % 26) + b'a';
                    chars[i] = shifted as char;
                }
            }
        }
    }
    chars.into_iter().collect()
}

/// Reword a name so that only embeddings can recover it: swap a word for
/// its colloquial variant if possible, otherwise reorder aggressively
/// (last word first, no registered synonym matches that form).
pub fn reword(rng: &mut impl Rng, name: &str) -> String {
    let words: Vec<&str> = name.split_whitespace().collect();
    let swap_targets: Vec<usize> =
        words.iter().enumerate().filter(|(_, w)| colloquial_of(w).is_some()).map(|(i, _)| i).collect();
    if !swap_targets.is_empty() {
        let i = swap_targets[rng.gen_range(0..swap_targets.len())];
        let mut out: Vec<&str> = words.clone();
        out[i] = colloquial_of(words[i]).unwrap();
        return out.join(" ");
    }
    if words.len() >= 2 {
        let mut out = vec![*words.last().unwrap()];
        out.extend_from_slice(&words[..words.len() - 1]);
        return out.join(" ");
    }
    format!("{name} condition")
}

#[cfg(test)]
mod tests {
    use super::*;
    use medkb_text::levenshtein;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn antonym_pairs_within_two_edits() {
        for root in ANTONYM_ROOTS {
            let a = format!("hyper{root}");
            let b = format!("hypo{root}");
            assert!(levenshtein(&a, &b) <= 2, "{a} vs {b}");
        }
    }

    #[test]
    fn drug_names_look_like_drugs() {
        let mut r = rng();
        for _ in 0..20 {
            let n = drug_name(&mut r);
            assert!(n.len() >= 5, "{n}");
            assert!(n.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn abbreviation_requires_three_words() {
        assert_eq!(abbreviation("chronic renal inflammation"), Some("cri".into()));
        assert_eq!(abbreviation("renal inflammation"), None);
    }

    #[test]
    fn organ_swap_synonym_rewrites_adjective() {
        assert_eq!(
            organ_swap_synonym("chronic renal inflammation"),
            Some("chronic inflammation of kidney".into())
        );
        assert_eq!(organ_swap_synonym("plain pain"), None);
        assert_eq!(organ_swap_synonym("renal"), None);
    }

    #[test]
    fn reorder_synonym_moves_leading_modifier() {
        assert_eq!(
            reorder_synonym("chronic renal inflammation"),
            Some("renal inflammation chronic".into())
        );
        assert_eq!(reorder_synonym("renal inflammation"), None);
        assert_eq!(reorder_synonym("fever of unknown origin"), None); // "fever" not a modifier
    }

    #[test]
    fn typo_stays_within_two_edits() {
        let mut r = rng();
        for _ in 0..50 {
            let t = typo(&mut r, "pancreatic insufficiency");
            assert!(levenshtein(&t, "pancreatic insufficiency") <= 2, "{t}");
        }
    }

    #[test]
    fn reword_uses_colloquial_when_available() {
        let mut r = rng();
        let out = reword(&mut r, "renal pain");
        assert!(out == "renal ache", "{out}");
        // No colloquial word: falls back to reorder.
        let out = reword(&mut r, "chronic renal fibrosis");
        assert_eq!(out, "fibrosis chronic renal");
    }

    #[test]
    fn colloquial_lookup() {
        assert_eq!(colloquial_of("pain"), Some("ache"));
        assert_eq!(colloquial_of("fibrosis"), None);
    }

    #[test]
    fn organism_names_are_binomial() {
        let mut r = rng();
        let n = organism_name(&mut r);
        assert_eq!(n.split_whitespace().count(), 2);
    }
}
