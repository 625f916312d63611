//! Configuration for terminology and world generation.

/// Configuration of the synthetic SNOMED-like terminology generator.
#[derive(Debug, Clone)]
pub struct SnomedConfig {
    /// RNG seed; the same seed always yields the same terminology.
    pub seed: u64,
    /// Approximate number of concepts to generate (including the root and
    /// hierarchy heads). The generator may overshoot by a few concepts to
    /// close antonym pairs.
    pub concepts: usize,
    /// Probability that a non-head concept gets a second parent within its
    /// hierarchy (SNOMED is a multi-parent DAG; ~0.25 of concepts have >1
    /// parent).
    pub multi_parent_rate: f64,
    /// Expected synonyms per concept (each drawn independently).
    pub synonym_rate: f64,
    /// Probability that a finding concept spawns an antonym-trap sibling.
    pub antonym_rate: f64,
    /// Maximum hierarchy depth below the root.
    pub max_depth: u32,
}

impl Default for SnomedConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED_0001,
            concepts: 12_000,
            multi_parent_rate: 0.22,
            synonym_rate: 0.8,
            antonym_rate: 0.06,
            max_depth: 14,
        }
    }
}

impl SnomedConfig {
    /// A small configuration for unit tests (fast, still multi-level).
    pub fn tiny(seed: u64) -> Self {
        Self { seed, concepts: 600, max_depth: 8, ..Self::default() }
    }
}

/// Configuration of the generated MED world (KB + gold data) on top of a
/// terminology.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Terminology generation parameters.
    pub snomed: SnomedConfig,
    /// RNG seed for the world layer (instances, triples, perturbations).
    pub seed: u64,
    /// Number of finding-flavoured KB instances (mapped from finding
    /// concepts).
    pub finding_instances: usize,
    /// Number of drug KB instances.
    pub drug_instances: usize,
    /// Fraction of instances whose name is copied verbatim from the
    /// concept's primary name or a registered synonym (EXACT-matchable).
    pub exact_name_rate: f64,
    /// Fraction with a small typo (≤ 2 edits; EDIT-matchable).
    pub typo_name_rate: f64,
    /// Fraction reworded in ways only embeddings recover (word reorder,
    /// near-synonym word swap not registered in the terminology).
    pub reword_name_rate: f64,
    // The remainder (1 - exact - typo - reword) are KB-only instances with
    // no counterpart in the terminology (unmappable traps).
    /// Indications per drug (expected).
    pub indications_per_drug: f64,
    /// Risks per drug (expected).
    pub risks_per_drug: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            snomed: SnomedConfig::default(),
            seed: 0x5EED_0002,
            finding_instances: 2_500,
            drug_instances: 700,
            exact_name_rate: 0.83,
            typo_name_rate: 0.05,
            reword_name_rate: 0.08,
            indications_per_drug: 2.5,
            risks_per_drug: 3.0,
        }
    }
}

impl WorldConfig {
    /// A small configuration for unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            snomed: SnomedConfig::tiny(seed ^ 0xABCD),
            seed,
            finding_instances: 160,
            drug_instances: 50,
            ..Self::default()
        }
    }

    /// Seed of the world's relevance oracle (derived from `seed`).
    pub fn oracle_seed(&self) -> u64 {
        self.seed ^ 0x0BAC_1E5E
    }

    /// Fraction of instances that are deliberately unmappable.
    pub fn unmappable_rate(&self) -> f64 {
        (1.0 - self.exact_name_rate - self.typo_name_rate - self.reword_name_rate).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rates_sum_below_one() {
        let c = WorldConfig::default();
        assert!(c.exact_name_rate + c.typo_name_rate + c.reword_name_rate < 1.0);
        assert!(c.unmappable_rate() > 0.0);
    }

    #[test]
    fn tiny_is_smaller() {
        let t = WorldConfig::tiny(1);
        assert!(t.finding_instances < WorldConfig::default().finding_instances);
        assert!(t.snomed.concepts < SnomedConfig::default().concepts);
    }
}
