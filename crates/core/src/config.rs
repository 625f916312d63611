//! Configuration of the relaxation method and its ablations.

use std::sync::Arc;

use medkb_obs::Registry;

/// How Eq. 2 frequencies are rolled up the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrequencyMode {
    /// The paper-literal recursion `freq(A) = |A| + Σ freq(A_i)` over
    /// direct children. On a multi-parent DAG a concept contributes to
    /// *each* parent, over-counting shared subtrees — exactly what the
    /// published equation does.
    PaperRecursive,
    /// Exact semantics: `freq(A) = Σ_{d ∈ {A} ∪ desc(A)} |d|`, each
    /// descendant counted once. An ablation target (DESIGN.md §5).
    DescendantSet,
}

/// Which matcher resolves names to external concepts (Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MappingMethod {
    /// Normalized string equality against names and synonyms.
    Exact,
    /// Bounded edit distance (the paper evaluates τ = 2).
    Edit(u32),
    /// SIF phrase-embedding nearest neighbour above a cosine threshold.
    Embedding {
        /// Minimum cosine similarity to accept a mapping.
        threshold: f64,
    },
    /// Soundex phrase-key equality — catches phonetic misspellings edit
    /// distance misses ("diarrea"). Keys shared by several concepts are
    /// discarded at build time, keeping the matcher precision-first. An
    /// extra method beyond the paper's three, ablated alongside them.
    Phonetic,
}

impl MappingMethod {
    /// The paper's EDIT configuration (τ = 2).
    pub fn edit_tau2() -> Self {
        MappingMethod::Edit(2)
    }

    /// The default embedding configuration.
    pub fn embedding_default() -> Self {
        MappingMethod::Embedding { threshold: 0.82 }
    }
}

/// Thread budget for the offline ingestion pipeline (Algorithm 1).
///
/// Every parallel stage keeps a bit-identical sequential twin, so this is
/// purely a wall-clock knob: outputs are independent of the thread count
/// (DESIGN.md §9). `threads: 1` (the default) runs fully sequentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads for sharded ingestion stages (values below 1 are
    /// treated as 1).
    pub threads: usize,
    /// Cap workers at the machine's available parallelism. Oversubscribing
    /// a core only adds scheduling overhead, and the sharded merges are
    /// deterministic in shard order, so the clamp never changes outputs —
    /// tests that must exercise real multi-way sharding regardless of the
    /// host set this to `false`.
    pub clamp_to_cores: bool,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self { threads: 1, clamp_to_cores: true }
    }
}

impl ParallelConfig {
    /// A configuration with the given thread count.
    pub fn with_threads(threads: usize) -> Self {
        Self { threads: threads.max(1), ..Self::default() }
    }

    /// The effective worker count: at least 1, and capped at the host's
    /// available parallelism unless `clamp_to_cores` is off.
    pub fn effective_threads(&self) -> usize {
        let t = self.threads.max(1);
        if self.clamp_to_cores {
            t.min(medkb_types::par::cores())
        } else {
            t
        }
    }
}

/// Observability switches (DESIGN.md §10).
///
/// `metrics: None` (the default) disables instrumentation entirely: the
/// hot paths skip every record call behind one pointer-null check — no
/// atomics, no allocation, no timer reads. With a registry attached, the
/// relaxation engine and ingestion pipeline record counters and latency
/// histograms into it; instrumentation never changes any ranking, score,
/// or ingestion artifact (the reference-twin tests run both ways).
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Metrics sink. Engines resolve their handles once at construction,
    /// so recording is lock-free; share one registry across components to
    /// get a single unified snapshot.
    pub metrics: Option<Arc<Registry>>,
    /// Attach the per-candidate Eq. 1–5 score breakdown to every returned
    /// answer ([`crate::relax::RelaxedAnswer::explain`]). Off by default:
    /// the breakdown re-derives each surviving answer's LCS and ICs, which
    /// is measurable work and only wanted on debugging/conformance paths.
    pub explain: bool,
}

impl ObsConfig {
    /// Instrumentation on (a fresh shared registry), explain off.
    pub fn enabled() -> Self {
        Self { metrics: Some(Registry::shared()), explain: false }
    }

    /// Instrumentation recording into an existing registry.
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        Self { metrics: Some(registry), explain: false }
    }

    /// The registry, if instrumentation is enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.metrics.as_deref()
    }
}

/// Full configuration of the relaxation method. The flags double as the
/// Table 2 ablation switches.
#[derive(Debug, Clone)]
pub struct RelaxConfig {
    /// Eq. 4 weight of a generalization step (paper: 0.9).
    pub w_gen: f64,
    /// Eq. 4 weight of a specialization step (paper: 1.0).
    pub w_spec: f64,
    /// Candidate search radius `r` over the customized graph.
    pub radius: u32,
    /// Grow the radius when fewer than `k` results are found (§5.2:
    /// "dynamically decided if a fixed r cannot provide k results").
    pub dynamic_radius: bool,
    /// Upper bound for dynamic growth.
    pub max_radius: u32,
    /// Use the query context to select per-context frequencies
    /// (off = QR-no-context: frequencies aggregate over all contexts).
    pub use_context: bool,
    /// Use corpus frequencies for IC (off = QR-no-corpus: intrinsic,
    /// structure-only IC).
    pub use_corpus: bool,
    /// Apply the Eq. 4 direction-weighted path factor (off = plain IC).
    pub use_path_weight: bool,
    /// tf-idf-adjust raw mention counts (§5.1).
    pub use_tfidf: bool,
    /// Frequency rollup semantics.
    pub frequency_mode: FrequencyMode,
    /// Run the §5.1 sparsity customization (shortcut edges).
    pub add_shortcuts: bool,
    /// Matcher used for instances (offline) and query terms (online).
    pub mapping: MappingMethod,
    /// Online fallback: when a multi-word query term resolves to nothing,
    /// progressively drop leading modifiers ("severe psychogenic fever" →
    /// "psychogenic fever" → "fever") — the lightweight lookup-service
    /// behaviour §3 alludes to. Off by default so Table 1's matcher
    /// comparison stays pure.
    pub strip_modifiers: bool,
    /// Score-bounded top-k pruning (DESIGN.md §13): skip the exact LCS
    /// evaluation for candidates whose admissible Eq. 5 upper bound cannot
    /// beat the current k-th answer, and terminate whole remaining rings
    /// once the ring-level cap falls below it. Answers are bit-identical
    /// with the flag on or off (the bound is admissible and exact ties are
    /// never skipped), so this is purely a latency knob; it silently
    /// deactivates for configurations the bound derivation does not cover
    /// (step weights above 1, relevance-feedback rescoring).
    pub pruning: bool,
    /// Thread budget for offline ingestion (outputs are thread-count
    /// independent).
    pub parallel: ParallelConfig,
    /// Observability: metrics sink and the opt-in per-answer score
    /// breakdown. Disabled by default and free when disabled.
    pub obs: ObsConfig,
}

impl Default for RelaxConfig {
    fn default() -> Self {
        Self {
            w_gen: 0.9,
            w_spec: 1.0,
            radius: 4,
            dynamic_radius: true,
            max_radius: 10,
            use_context: true,
            use_corpus: true,
            use_path_weight: true,
            use_tfidf: true,
            frequency_mode: FrequencyMode::PaperRecursive,
            add_shortcuts: true,
            mapping: MappingMethod::embedding_default(),
            strip_modifiers: false,
            pruning: true,
            parallel: ParallelConfig::default(),
            obs: ObsConfig::default(),
        }
    }
}

impl RelaxConfig {
    /// The QR-no-context ablation of Table 2.
    pub fn no_context(mut self) -> Self {
        self.use_context = false;
        self
    }

    /// The QR-no-corpus ablation of Table 2.
    pub fn no_corpus(mut self) -> Self {
        self.use_corpus = false;
        self
    }

    /// The plain IC baseline of Table 2: corpus IC, no context, no path
    /// weighting.
    pub fn ic_baseline(mut self) -> Self {
        self.use_context = false;
        self.use_path_weight = false;
        self
    }

    /// Reject configurations that would poison scoring with NaN/∞ or can
    /// never produce results. Relaxation entry points call this up front so
    /// a bad config fails loudly instead of silently ranking by NaN
    /// (`NaN.total_cmp` orders, so broken scores would *look* plausible).
    ///
    /// # Errors
    /// [`medkb_types::MedKbError::InvalidArgument`] describing the first
    /// offending field.
    pub fn validate(&self) -> medkb_types::Result<()> {
        use medkb_types::MedKbError;
        if !self.w_gen.is_finite() || self.w_gen < 0.0 {
            return Err(MedKbError::invalid(format!(
                "w_gen must be finite and >= 0, got {}",
                self.w_gen
            )));
        }
        if !self.w_spec.is_finite() || self.w_spec < 0.0 {
            return Err(MedKbError::invalid(format!(
                "w_spec must be finite and >= 0, got {}",
                self.w_spec
            )));
        }
        if self.dynamic_radius && self.max_radius < self.radius {
            return Err(MedKbError::invalid(format!(
                "max_radius {} must be >= radius {} when dynamic_radius is on",
                self.max_radius, self.radius
            )));
        }
        if let MappingMethod::Embedding { threshold } = self.mapping {
            if !threshold.is_finite() {
                return Err(MedKbError::invalid(format!(
                    "embedding threshold must be finite, got {threshold}"
                )));
            }
        }
        Ok(())
    }

    /// A 64-bit fingerprint over every field that can change a relaxation
    /// *result* — the serving cache keys on it so two configurations share
    /// cache entries iff they are answer-equivalent.
    ///
    /// Included: scoring weights (exact bit patterns), radius/dynamic
    /// growth, the ablation switches, frequency semantics, shortcut
    /// customization, mapping method (with its parameters), and the
    /// strip-modifiers fallback. Excluded by design: [`ParallelConfig`]
    /// (outputs are thread-count independent, DESIGN.md §9), [`ObsConfig`]
    /// (instrumentation is inert on results, §10), and the
    /// [`RelaxConfig::pruning`] switch (the bounded scan returns
    /// bit-identical answers, §13 — so pruned and exhaustive servers may
    /// share cache entries).
    pub fn result_fingerprint(&self) -> u64 {
        // FNV-1a, same construction the token trie uses: stable across
        // runs and platforms, unlike `DefaultHasher` whose algorithm is
        // explicitly unspecified.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&self.w_gen.to_bits().to_le_bytes());
        eat(&self.w_spec.to_bits().to_le_bytes());
        eat(&self.radius.to_le_bytes());
        eat(&[
            u8::from(self.dynamic_radius),
            u8::from(self.use_context),
            u8::from(self.use_corpus),
            u8::from(self.use_path_weight),
            u8::from(self.use_tfidf),
            u8::from(self.add_shortcuts),
            u8::from(self.strip_modifiers),
            match self.frequency_mode {
                FrequencyMode::PaperRecursive => 0,
                FrequencyMode::DescendantSet => 1,
            },
        ]);
        eat(&self.max_radius.to_le_bytes());
        match self.mapping {
            MappingMethod::Exact => eat(&[0]),
            MappingMethod::Edit(tau) => {
                eat(&[1]);
                eat(&tau.to_le_bytes());
            }
            MappingMethod::Embedding { threshold } => {
                eat(&[2]);
                eat(&threshold.to_bits().to_le_bytes());
            }
            MappingMethod::Phonetic => eat(&[3]),
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RelaxConfig::default();
        assert_eq!(c.w_gen, 0.9);
        assert_eq!(c.w_spec, 1.0);
        assert!(c.use_context && c.use_corpus && c.use_path_weight);
        assert_eq!(c.frequency_mode, FrequencyMode::PaperRecursive);
    }

    #[test]
    fn ablation_builders() {
        assert!(!RelaxConfig::default().no_context().use_context);
        assert!(!RelaxConfig::default().no_corpus().use_corpus);
        let ic = RelaxConfig::default().ic_baseline();
        assert!(!ic.use_context && !ic.use_path_weight && ic.use_corpus);
    }

    #[test]
    fn parallel_config_clamps_to_one() {
        assert_eq!(ParallelConfig::default().effective_threads(), 1);
        assert_eq!(ParallelConfig::with_threads(0).threads, 1);
        assert_eq!(
            ParallelConfig { threads: 0, clamp_to_cores: false }.effective_threads(),
            1
        );
        // Unclamped, the requested count passes through unchanged; clamped,
        // it is capped at the host's available parallelism.
        assert_eq!(
            ParallelConfig { threads: 4, clamp_to_cores: false }.effective_threads(),
            4
        );
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(ParallelConfig::with_threads(4).effective_threads(), 4.min(cores));
    }

    #[test]
    fn validate_accepts_defaults_and_ablations() {
        assert!(RelaxConfig::default().validate().is_ok());
        assert!(RelaxConfig::default().no_context().validate().is_ok());
        assert!(RelaxConfig::default().no_corpus().validate().is_ok());
        assert!(RelaxConfig::default().ic_baseline().validate().is_ok());
    }

    #[test]
    fn validate_rejects_nan_producing_configs() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            assert!(RelaxConfig { w_gen: bad, ..Default::default() }.validate().is_err());
            assert!(RelaxConfig { w_spec: bad, ..Default::default() }.validate().is_err());
        }
        assert!(RelaxConfig {
            mapping: MappingMethod::Embedding { threshold: f64::NAN },
            ..Default::default()
        }
        .validate()
        .is_err());
        let shrunk = RelaxConfig { radius: 8, max_radius: 4, ..Default::default() };
        assert!(shrunk.validate().is_err());
        // With dynamic growth off, max_radius is inert and may be anything.
        assert!(RelaxConfig { dynamic_radius: false, ..shrunk }.validate().is_ok());
    }

    #[test]
    fn fingerprint_tracks_result_affecting_fields_only() {
        let base = RelaxConfig::default();
        // Deterministic across calls.
        assert_eq!(base.result_fingerprint(), base.result_fingerprint());
        // Result-inert knobs never move it: threads, observability, and
        // the score-bounded pruning switch (bit-identical answers, §13).
        let threaded = RelaxConfig {
            parallel: ParallelConfig { threads: 8, clamp_to_cores: false },
            obs: ObsConfig::enabled(),
            pruning: false,
            ..base.clone()
        };
        assert_eq!(base.result_fingerprint(), threaded.result_fingerprint());
        // Every result-affecting field moves it.
        let variants = [
            RelaxConfig { w_gen: 0.8, ..base.clone() },
            RelaxConfig { w_spec: 0.95, ..base.clone() },
            RelaxConfig { radius: 3, ..base.clone() },
            RelaxConfig { dynamic_radius: false, ..base.clone() },
            RelaxConfig { max_radius: 9, ..base.clone() },
            base.clone().no_context(),
            base.clone().no_corpus(),
            RelaxConfig { use_path_weight: false, ..base.clone() },
            RelaxConfig { use_tfidf: false, ..base.clone() },
            RelaxConfig { frequency_mode: FrequencyMode::DescendantSet, ..base.clone() },
            RelaxConfig { add_shortcuts: false, ..base.clone() },
            RelaxConfig { mapping: MappingMethod::Exact, ..base.clone() },
            RelaxConfig { mapping: MappingMethod::edit_tau2(), ..base.clone() },
            RelaxConfig { mapping: MappingMethod::Edit(3), ..base.clone() },
            RelaxConfig {
                mapping: MappingMethod::Embedding { threshold: 0.9 },
                ..base.clone()
            },
            RelaxConfig { mapping: MappingMethod::Phonetic, ..base.clone() },
            RelaxConfig { strip_modifiers: true, ..base.clone() },
        ];
        let mut seen = vec![base.result_fingerprint()];
        for (i, v) in variants.iter().enumerate() {
            let fp = v.result_fingerprint();
            assert!(!seen.contains(&fp), "variant {i} collided: {v:?}");
            seen.push(fp);
        }
    }

    #[test]
    fn mapping_presets() {
        assert_eq!(MappingMethod::edit_tau2(), MappingMethod::Edit(2));
        match MappingMethod::embedding_default() {
            MappingMethod::Embedding { threshold } => assert!(threshold > 0.0),
            other => panic!("{other:?}"),
        }
    }
}
