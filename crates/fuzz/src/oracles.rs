//! Differential oracles: optimized path ≡ reference twin, on every world,
//! at every thread count.
//!
//! Each `check_*` function panics with the world's label on the first
//! divergence; [`check_world`] runs the full battery. The contracts pinned
//! here are exactly the ones DESIGN.md §9/§11 promise:
//!
//! * `MentionCounts::count` / `count_with_threads` ≡ `count_reference`
//! * `ingest_with_stats` ≡ `ingest_reference` (mappings, flagged set,
//!   frequencies, shortcuts, instance index)
//! * `lcs_with_upward{,_scratch}` ≡ the per-pair `lcs` over `HashMap`
//!   searches
//! * `QueryRelaxer::candidates` (the CSR ring scan) ≡ `Ekg::neighborhood`
//!   filtered to concepts with instances, through dynamic radius growth
//! * `relax_concept` / batch sharding ≡ `relax_concept_reference`
//! * `Gazetteer::scan` ≡ a naïve longest-match reference matcher

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use medkb_corpus::MentionCounts;
use medkb_ekg::lcs::lcs;
use medkb_ekg::{
    lcs_with_upward, lcs_with_upward_scratch, DenseReachability, ReachabilityIndex, UpwardScratch,
};
use medkb_core::{
    ingest, ingest_reference, ingest_with_stats, outputs_identical, DeltaEngine, DeltaOp,
    FederatedRelaxer, IngestOutput, MappingMethod, ParallelConfig, QrScorer, QueryRelaxer,
    RelaxConfig, SourceRegistry,
};
use medkb_snomed::ContextTag;
use medkb_text::{tokenize, Gazetteer, PhraseMatch};
use medkb_store::WorldStore;
use medkb_types::{ContextId, ExtConceptId, Id, MedKbError};

use crate::worlds::AdversarialWorld;

/// Thread counts every parallel path is swept over.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Pin the mention counters: sequential optimized and every sharded run
/// must equal the reference scan.
pub fn check_counts(w: &AdversarialWorld) -> MentionCounts {
    let reference = MentionCounts::count_reference(&w.corpus, &w.ekg);
    let fast = MentionCounts::count(&w.corpus, &w.ekg);
    assert_eq!(fast, reference, "[{}] count diverged from count_reference", w.label);
    for threads in THREAD_SWEEP {
        let par = MentionCounts::count_with_threads(&w.corpus, &w.ekg, threads);
        assert_eq!(par, reference, "[{}] counts diverged at {threads} threads", w.label);
    }
    reference
}

/// Pin the staged parallel ingestion pipeline against the sequential
/// reference, for every thread count.
pub fn check_ingest(
    w: &AdversarialWorld,
    counts: &MentionCounts,
    mapping: MappingMethod,
) -> IngestOutput {
    let base = RelaxConfig { mapping, ..RelaxConfig::default() };
    let reference = ingest_reference(&w.kb, w.ekg.clone(), counts, None, &base)
        .unwrap_or_else(|e| panic!("[{}] reference ingest failed: {e}", w.label));
    for threads in THREAD_SWEEP {
        let cfg = RelaxConfig {
            parallel: ParallelConfig {
                clamp_to_cores: false,
                ..ParallelConfig::with_threads(threads)
            },
            ..base.clone()
        };
        let (out, _stats) = ingest_with_stats(&w.kb, w.ekg.clone(), counts, None, &cfg)
            .unwrap_or_else(|e| panic!("[{}] staged ingest failed at {threads} threads: {e}", w.label));
        assert_eq!(out.mappings, reference.mappings, "[{}] mappings @{threads}", w.label);
        assert_eq!(out.flagged, reference.flagged, "[{}] flagged @{threads}", w.label);
        assert_eq!(
            out.instances_of, reference.instances_of,
            "[{}] instance index @{threads}",
            w.label
        );
        assert_eq!(out.freqs, reference.freqs, "[{}] frequencies @{threads}", w.label);
        assert_eq!(
            out.shortcuts.list(),
            reference.shortcuts.list(),
            "[{}] shortcuts @{threads}",
            w.label
        );
        assert_eq!(out.ekg, reference.ekg, "[{}] graph @{threads}", w.label);
    }
    reference
}

/// Pin the query-scoped LCS (dense upward table + reachability pruning +
/// reusable scratch) against the per-pair `HashMap` reference, all pairs.
pub fn check_lcs(w: &AdversarialWorld) {
    let ekg = &w.ekg;
    let reach = ReachabilityIndex::build(ekg);
    let concepts: Vec<ExtConceptId> = ekg.concepts().take(20).collect();
    let mut scratch = UpwardScratch::new();
    for &a in &concepts {
        let up = ekg.upward_distances_from(a);
        for &b in &concepts {
            let slow = lcs(ekg, a, b);
            let fast = lcs_with_upward_scratch(ekg, &reach, &up, b, &mut scratch);
            assert_eq!(fast, slow, "[{}] lcs({a:?},{b:?}) scratch path", w.label);
            let fresh = lcs_with_upward(ekg, &reach, &up, b);
            assert_eq!(fresh, slow, "[{}] lcs({a:?},{b:?}) fresh path", w.label);
        }
    }
}

/// Pin the hybrid interval + exception-set reachability index against the
/// dense bitset closure, exhaustively: `is_ancestor` over **every** pair,
/// plus the derived `ancestor_count` / `descendant_counts` tables (which
/// feed intrinsic IC, so a single off-by-one would silently shift scores).
pub fn check_reach_hybrid(w: &AdversarialWorld) {
    let hybrid = ReachabilityIndex::build(&w.ekg);
    let dense = DenseReachability::build(&w.ekg);
    for a in w.ekg.concepts() {
        assert_eq!(
            hybrid.ancestor_count(a),
            dense.ancestor_count(a),
            "[{}] ancestor_count({a:?}) diverged",
            w.label
        );
        for d in w.ekg.concepts() {
            assert_eq!(
                hybrid.is_ancestor(a, d),
                dense.is_ancestor(a, d),
                "[{}] is_ancestor({a:?}, {d:?}) diverged",
                w.label
            );
        }
    }
    assert_eq!(
        hybrid.descendant_counts(),
        dense.descendant_counts(),
        "[{}] descendant_counts diverged",
        w.label
    );
}

/// Pin the persistent world store: `open(save(out))` must reconstruct an
/// [`IngestOutput`] whose every persisted component is bit-identical to
/// `out`, and whose relaxation answers are bit-identical over the world's
/// query battery.
pub fn check_store_round_trip(w: &AdversarialWorld, out: &IngestOutput, config: &RelaxConfig) {
    let reopened = WorldStore::open_bytes(&WorldStore::save_bytes(out))
        .unwrap_or_else(|e| panic!("[{}] store round trip failed to open: {e}", w.label));
    assert_eq!(out.ekg, reopened.ekg, "[{}] store: graph", w.label);
    assert_eq!(out.contexts, reopened.contexts, "[{}] store: contexts", w.label);
    assert_eq!(out.tag_of, reopened.tag_of, "[{}] store: tags", w.label);
    assert_eq!(out.freqs, reopened.freqs, "[{}] store: frequency tables", w.label);
    assert_eq!(out.mappings, reopened.mappings, "[{}] store: mappings", w.label);
    assert_eq!(out.instances_of, reopened.instances_of, "[{}] store: instance index", w.label);
    assert_eq!(out.flagged, reopened.flagged, "[{}] store: flagged set", w.label);
    assert_eq!(out.reach, reopened.reach, "[{}] store: reach", w.label);
    assert!(out.mapper.bits_eq(&reopened.mapper), "[{}] store: mapper", w.label);
    assert_eq!(out.shortcuts, reopened.shortcuts, "[{}] store: shortcuts", w.label);

    let original = QueryRelaxer::new(out.clone(), config.clone());
    let restored = QueryRelaxer::new(reopened, config.clone());
    for q in w.query_concepts() {
        let want = original.relax_concept(q, None, 5).unwrap();
        let got = restored.relax_concept(q, None, 5).unwrap();
        assert_eq!(got, want, "[{}] store: answers for {q:?} diverged", w.label);
    }
}

/// Pin the admissibility chain behind score-bounded pruning (DESIGN.md
/// §13): for every candidate within radius 4 of every query concept,
/// `exact_score(c) ≤ upper_bound(c) ≤ ring_cap(h)`, and ring caps are
/// nonincreasing in the hop count — so no skip or ring termination the
/// bounded scan performs can ever discard a true top-k member.
pub fn check_bounds(w: &AdversarialWorld, out: &IngestOutput, config: &RelaxConfig) {
    let scorer = QrScorer::new(&out.ekg, &out.freqs, config);
    let mut tags: Vec<Option<ContextTag>> = vec![None];
    tags.extend(out.contexts.first().map(|c| Some(out.tag(c.id))));
    for q in w.query_concepts() {
        let candidates = out.ekg.neighborhood(q, 4, out.shortcuts.list());
        let max_h = candidates.iter().map(|&(_, h)| h).max().unwrap_or(0);
        let max_dc = candidates.iter().map(|&(c, _)| out.ekg.depth(c)).max().unwrap_or(0);
        for &tag in &tags {
            let mut scoped = scorer.query_scoped(q, tag, &out.reach);
            let bounds = scoped.bounds(max_h, max_dc);
            let mut prev = f64::INFINITY;
            for h in 0..=max_h {
                let cap = bounds.ring_cap(h);
                assert!(
                    cap <= prev,
                    "[{}] ring_cap increased {prev} → {cap} at h={h} for {q:?}/{tag:?}",
                    w.label
                );
                prev = cap;
            }
            for &(c, h) in &candidates {
                let exact = scoped.score(c);
                let descendant = out.reach.is_ancestor(q, c);
                let bound =
                    bounds.upper_bound(descendant, h, out.ekg.depth(c), scorer.ic(c, tag));
                assert!(
                    exact <= bound,
                    "[{}] inadmissible bound {bound} < exact {exact} for {q:?}→{c:?} h={h} tag={tag:?}",
                    w.label
                );
                if !descendant {
                    let refined = bounds.refined_bound(
                        &out.reach,
                        c,
                        h,
                        out.ekg.depth(c),
                        scorer.ic(c, tag),
                    );
                    assert!(
                        exact <= refined,
                        "[{}] inadmissible refined bound {refined} < exact {exact} \
                         for {q:?}→{c:?} h={h} tag={tag:?}",
                        w.label
                    );
                    assert!(
                        refined <= bound,
                        "[{}] refined bound {refined} above table bound {bound} \
                         for {q:?}→{c:?} h={h}",
                        w.label
                    );
                }
                let cap = bounds.ring_cap(h);
                assert!(
                    bound <= cap,
                    "[{}] upper_bound {bound} above ring_cap {cap} for {q:?}→{c:?} h={h}",
                    w.label
                );
            }
        }
    }
}

/// Pin candidate enumeration (Algorithm 2 line 2): through dynamic radius
/// growth, the relaxer's candidate list — concepts, hop counts and their
/// order — and its settled radius equal a fresh BFS over the graph and its
/// shortcuts ([`medkb_ekg::Ekg::neighborhood`]) at each radius, filtered to the
/// concepts that have instances. The filter reads the instance index, not
/// the flag table, so the table is checked too. The bounded scan's ring
/// order and tie handling rest on this order.
pub fn check_candidates(w: &AdversarialWorld, out: &IngestOutput, config: &RelaxConfig) {
    let r = QueryRelaxer::new(out.clone(), config.clone());
    for q in w.query_concepts() {
        for k in [1usize, 3, 17, usize::MAX] {
            let (got, radius) = r
                .candidates(q, k)
                .unwrap_or_else(|e| panic!("[{}] candidates({q:?}, k={k}): {e}", w.label));
            let mut want_radius = config.radius.max(1);
            let want = loop {
                let within: Vec<(ExtConceptId, u32)> = out
                    .ekg
                    .neighborhood(q, want_radius, out.shortcuts.list())
                    .into_iter()
                    .filter(|&(c, _)| !out.instances(c).is_empty())
                    .collect();
                let reachable: usize = within.iter().map(|&(c, _)| out.instances(c).len()).sum();
                if !config.dynamic_radius || reachable >= k || want_radius >= config.max_radius {
                    break within;
                }
                want_radius += 1;
            };
            assert_eq!(radius, want_radius, "[{}] settled radius for {q:?}, k={k}", w.label);
            assert_eq!(got, want, "[{}] candidate order for {q:?}, k={k}", w.label);
        }
    }
}

/// Pin the optimized relaxer and the sharded batch API against
/// `relax_concept_reference`, element-wise, for every thread count.
pub fn check_relax(w: &AdversarialWorld, out: IngestOutput, config: RelaxConfig) {
    let r = QueryRelaxer::new(out, config);
    let mut contexts: Vec<Option<ContextId>> = vec![None];
    contexts.extend(r.ingested().contexts.first().map(|c| Some(c.id)));

    let mut queries: Vec<(ExtConceptId, Option<ContextId>)> = Vec::new();
    for q in w.query_concepts() {
        for &ctx in &contexts {
            queries.push((q, ctx));
        }
    }
    for &(q, ctx) in &queries {
        for k in [1usize, 3, 17] {
            let fast = r.relax_concept(q, ctx, k);
            let slow = r.relax_concept_reference(q, ctx, k);
            match (&fast, &slow) {
                (Ok(f), Ok(s)) => {
                    assert_eq!(f, s, "[{}] relax({q:?},{ctx:?},k={k})", w.label);
                }
                (Err(_), Err(_)) => {}
                (f, s) => panic!(
                    "[{}] relax({q:?},{ctx:?},k={k}) outcome kind diverged: \
                     optimized={f:?} reference={s:?}",
                    w.label
                ),
            }
        }
    }

    let sequential: Vec<_> = queries.iter().map(|&(q, c)| r.relax_concept(q, c, 5)).collect();
    for threads in THREAD_SWEEP {
        let batch = r.relax_concepts_batch_with_threads(&queries, 5, threads);
        assert_eq!(batch.len(), sequential.len(), "[{}] batch length @{threads}", w.label);
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            match (b, s) {
                (Ok(b), Ok(s)) => {
                    assert_eq!(b, s, "[{}] batch slot {i} @{threads} threads", w.label);
                }
                (Err(_), Err(_)) => {}
                (b, s) => panic!(
                    "[{}] batch slot {i} @{threads} threads outcome kind diverged: \
                     batch={b:?} sequential={s:?}",
                    w.label
                ),
            }
        }
    }
}

/// Pin the token-trie gazetteer against a naïve longest-match scan over the
/// same phrase set.
pub fn check_gazetteer(w: &AdversarialWorld) {
    let mut g = Gazetteer::new();
    let mut phrases: Vec<(String, u32)> = Vec::new();
    for c in w.ekg.concepts() {
        let payload = c.as_usize() as u32;
        let name = w.ekg.name(c).to_string();
        g.insert(&name, payload);
        phrases.push((name, payload));
        for syn in w.ekg.synonyms(c) {
            g.insert(syn, payload);
            phrases.push((syn.to_string(), payload));
        }
    }
    // Reference phrase table: token sequence → payload, later insert wins
    // (the gazetteer's documented overwrite semantics).
    let mut table: HashMap<Vec<String>, u32> = HashMap::new();
    let mut max_len = 0usize;
    for (phrase, payload) in &phrases {
        let tokens = tokenize(phrase);
        if tokens.is_empty() {
            continue;
        }
        max_len = max_len.max(tokens.len());
        table.insert(tokens, *payload);
    }

    for utterance in utterances(w) {
        let tokens = tokenize(&utterance);
        let fast = g.scan(&utterance);
        let slow = scan_reference(&table, max_len, &tokens);
        assert_eq!(
            fast, slow,
            "[{}] gazetteer diverged on utterance {:?}",
            w.label,
            &utterance[..utterance.len().min(120)]
        );
    }
}

/// Naïve greedy longest-match reference: at each position try every length
/// up to the longest registered phrase.
fn scan_reference(
    table: &HashMap<Vec<String>, u32>,
    max_len: usize,
    tokens: &[String],
) -> Vec<PhraseMatch> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let mut best: Option<(usize, u32)> = None;
        for len in 1..=max_len.min(tokens.len() - i) {
            if let Some(&payload) = table.get(&tokens[i..i + len]) {
                best = Some((len, payload));
            }
        }
        match best {
            Some((len, payload)) => {
                out.push(PhraseMatch { start_token: i, len, payload });
                i += len;
            }
            None => i += 1,
        }
    }
    out
}

/// Deterministic hostile utterances for `w`: name joins with adversarial
/// separators, truncated names, and raw junk.
fn utterances(w: &AdversarialWorld) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(w.seed ^ 0x5CAD_FEED);
    let names: Vec<&str> = w.ekg.concepts().map(|c| w.ekg.name(c)).collect();
    let seps = [" ", " and ", "§", "!!", "\u{301}", ", ", " the "];
    let mut out: Vec<String> = vec![
        String::new(),
        "   ".to_string(),
        "!!!???".to_string(),
        "\u{301}\u{308}\u{30A}".to_string(),
        "totally unrelated utterance".to_string(),
    ];
    for _ in 0..8 {
        let mut s = String::new();
        for _ in 0..rng.gen_range(1..4) {
            s.push_str(names[rng.gen_range(0..names.len())]);
            s.push_str(seps[rng.gen_range(0..seps.len())]);
        }
        out.push(s);
    }
    // Truncations: a name minus its last token exercises the
    // prefix-without-terminal path.
    for name in names.iter().take(3) {
        let toks = tokenize(name);
        if toks.len() > 1 {
            out.push(toks[..toks.len() - 1].join(" "));
        }
    }
    out
}

/// Pin the federated scatter/gather (DESIGN.md §17) two ways:
///
/// 1. **Single-source bit-identity** — a one-source registry must answer
///    every term exactly like the plain pre-federation relaxer: same
///    concepts, same score *bits*, same hops, same instances, same radius,
///    at every thread count. Normalization and cross-source dedup must be
///    provably inert when there is nothing to normalize against or dedup.
/// 2. **Two-source merge determinism** — with the world's DAG plus the GO
///    stub registered over one shared KB, answers must be identical
///    whichever source is registered first and at every thread count
///    (source ids are name-sorted, so registration order is noise).
pub fn check_federate(w: &AdversarialWorld, out: &IngestOutput, config: &RelaxConfig) {
    let plain = QueryRelaxer::new(out.clone(), config.clone());
    let registry = SourceRegistry::builder(config.clone())
        .register("primary", out.clone())
        .build()
        .unwrap_or_else(|e| panic!("[{}] one-source registry rejected: {e}", w.label));
    let fed = FederatedRelaxer::new(registry);

    let mut contexts: Vec<Option<ContextId>> = vec![None];
    contexts.extend(out.contexts.first().map(|c| Some(c.id)));
    let terms: Vec<String> =
        w.query_concepts().into_iter().map(|q| w.ekg.name(q).to_string()).collect();

    let mut queries: Vec<(&str, Option<ContextId>)> = Vec::new();
    for term in &terms {
        for &ctx in &contexts {
            queries.push((term.as_str(), ctx));
        }
    }
    for &(term, ctx) in &queries {
        for k in [1usize, 3, 17] {
            let fed_result = fed.relax(term, ctx, k);
            let plain_result =
                plain.resolve_term(term).and_then(|q| plain.relax_concept(q, ctx, k));
            match (&fed_result, &plain_result) {
                (Ok(f), Ok(p)) => {
                    assert_eq!(f.scatter.len(), 1, "[{}] one source, one scatter row", w.label);
                    assert_eq!(
                        f.scatter[0].radius_used, p.radius_used,
                        "[{}] federate({term:?},{ctx:?},k={k}) radius",
                        w.label
                    );
                    assert_eq!(
                        f.answers.len(),
                        p.answers.len(),
                        "[{}] federate({term:?},{ctx:?},k={k}) answer count",
                        w.label
                    );
                    for (fa, pa) in f.answers.iter().zip(&p.answers) {
                        assert_eq!(fa.concept, pa.concept, "[{}] {term:?} concept", w.label);
                        assert_eq!(
                            fa.score.to_bits(),
                            pa.score.to_bits(),
                            "[{}] federate({term:?},{ctx:?},k={k}) score bits for {:?}",
                            w.label,
                            fa.concept
                        );
                        assert_eq!(fa.hops, pa.hops, "[{}] {term:?} hops", w.label);
                        assert_eq!(
                            fa.instances, pa.instances,
                            "[{}] {term:?} instances",
                            w.label
                        );
                    }
                }
                (Err(_), Err(_)) => {}
                (f, p) => panic!(
                    "[{}] federate({term:?},{ctx:?},k={k}) outcome kind diverged: \
                     federated={f:?} plain={p:?}",
                    w.label
                ),
            }
        }
    }
    let sequential: Vec<_> = queries.iter().map(|&(t, c)| fed.relax(t, c, 5)).collect();
    for threads in THREAD_SWEEP {
        let batch = fed.relax_batch_with_threads(&queries, 5, threads);
        assert_eq!(batch.len(), sequential.len(), "[{}] fed batch len @{threads}", w.label);
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            match (b, s) {
                (Ok(b), Ok(s)) => {
                    assert_eq!(b, s, "[{}] fed batch slot {i} @{threads} threads", w.label);
                }
                (Err(_), Err(_)) => {}
                (b, s) => panic!(
                    "[{}] fed batch slot {i} @{threads} threads outcome kind diverged: \
                     batch={b:?} sequential={s:?}",
                    w.label
                ),
            }
        }
    }

    check_two_source_determinism(w, config, &terms);
}

/// The two-source half of [`check_federate`]: world DAG + GO stub over one
/// shared KB, answers invariant under registration order and thread count.
fn check_two_source_determinism(w: &AdversarialWorld, config: &RelaxConfig, terms: &[String]) {
    let go = medkb_snomed::go::generate(&medkb_snomed::go::GoConfig {
        terms: 60,
        ..Default::default()
    });
    // One shared KB: the world's instances plus a handful named after GO
    // terms, so the GO source has flagged concepts and the instance-id
    // space is shared (the cross-source dedup precondition).
    let mut kb = w.kb.clone();
    let finding = kb.ontology().lookup_concept("Finding").expect("worlds define Finding");
    let go_terms: Vec<String> =
        go.concepts().take(8).map(|c| go.name(c).to_string()).collect();
    for name in &go_terms {
        kb.add_instance(name, finding)
            .unwrap_or_else(|e| panic!("[{}] GO instance rejected: {e}", w.label));
    }
    let counts_world = MentionCounts::count(&w.corpus, &w.ekg);
    let counts_go = MentionCounts::count(&w.corpus, &go);
    let out_world = ingest(&kb, w.ekg.clone(), &counts_world, None, config)
        .unwrap_or_else(|e| panic!("[{}] shared-KB world ingest failed: {e}", w.label));
    let out_go = ingest(&kb, go.clone(), &counts_go, None, config)
        .unwrap_or_else(|e| panic!("[{}] shared-KB GO ingest failed: {e}", w.label));

    let build = |world_first: bool| {
        let b = SourceRegistry::builder(config.clone());
        let b = if world_first {
            b.register("snomed-like", out_world.clone()).register("gene-ontology", out_go.clone())
        } else {
            b.register("gene-ontology", out_go.clone()).register("snomed-like", out_world.clone())
        };
        FederatedRelaxer::new(
            b.build().unwrap_or_else(|e| panic!("[{}] two-source registry: {e}", w.label)),
        )
    };
    let fed_ab = build(true);
    let fed_ba = build(false);

    let mut queries: Vec<(&str, Option<ContextId>)> = Vec::new();
    for term in terms.iter().take(4) {
        queries.push((term.as_str(), None));
    }
    for term in go_terms.iter().take(4) {
        queries.push((term.as_str(), None));
    }
    let sequential: Vec<_> = queries.iter().map(|&(t, c)| fed_ab.relax(t, c, 7)).collect();
    // The oracle must not pass vacuously: the GO-term queries resolve
    // through the GO source (its names are clean ASCII), so at least one
    // query must produce answers.
    assert!(
        sequential.iter().any(|r| r.as_ref().is_ok_and(|f| !f.answers.is_empty())),
        "[{}] two-source oracle found no answers at all",
        w.label
    );
    for (i, &(term, ctx)) in queries.iter().enumerate() {
        let swapped = fed_ba.relax(term, ctx, 7);
        match (&sequential[i], &swapped) {
            (Ok(a), Ok(b)) => assert_eq!(
                a, b,
                "[{}] two-source answers for {term:?} depend on registration order",
                w.label
            ),
            (Err(_), Err(_)) => {}
            (a, b) => panic!(
                "[{}] two-source outcome kind for {term:?} diverged across \
                 registration orders: {a:?} vs {b:?}",
                w.label
            ),
        }
    }
    for fed in [&fed_ab, &fed_ba] {
        for threads in THREAD_SWEEP {
            let batch = fed.relax_batch_with_threads(&queries, 7, threads);
            for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                match (b, s) {
                    (Ok(b), Ok(s)) => assert_eq!(
                        b, s,
                        "[{}] two-source batch slot {i} @{threads} threads",
                        w.label
                    ),
                    (Err(_), Err(_)) => {}
                    (b, s) => panic!(
                        "[{}] two-source batch slot {i} @{threads} threads outcome \
                         kind diverged: {b:?} vs {s:?}",
                        w.label
                    ),
                }
            }
        }
    }
}

/// Pin incremental delta ingestion against an honest full re-ingest: for
/// every delta kind, at every thread count, applying the delta must leave
/// the engine's [`IngestOutput`] **bit-identical** to `ingest` run from
/// scratch on the same mutated inputs — and the relaxation answers over
/// the world's query battery must match element-wise. Deltas compound on
/// one engine per thread count, so later kinds run on already-churned
/// state.
///
/// Each kind first runs as a delta whose last op always fails: the whole
/// delta must be rejected and rolled back, leaving the output as it was.
/// The delta is then generated again from the rolled-back state (a
/// rolled-back concept stays as a leaf, so ids move) and applied for real,
/// and the output published before that apply must still save to the same
/// bytes: a published epoch is never written through.
pub fn check_delta(w: &AdversarialWorld) {
    use crate::deltas::{generate_delta, DeltaKind};
    for threads in THREAD_SWEEP {
        let cfg = RelaxConfig {
            mapping: MappingMethod::Exact,
            parallel: ParallelConfig {
                clamp_to_cores: false,
                ..ParallelConfig::with_threads(threads)
            },
            ..RelaxConfig::default()
        };
        let mut engine = DeltaEngine::new(
            w.kb.clone(),
            w.corpus.clone(),
            w.ekg.clone(),
            None,
            cfg.clone(),
        )
        .unwrap_or_else(|e| panic!("[{}] delta engine build failed: {e}", w.label));
        for (i, &kind) in DeltaKind::ALL.iter().enumerate() {
            let seed = w.seed.wrapping_mul(31).wrapping_add(i as u64);
            let published = engine.output().clone();
            let mut failing = generate_delta(seed, kind, &engine);
            failing.ops.push(DeltaOp::RemoveDocument { index: usize::MAX });
            match engine.apply(&failing) {
                Err(MedKbError::Validation(_)) => {}
                other => panic!(
                    "[{}] {kind:?} delta with a failing last op @{threads} threads: \
                     expected a validation error, got {other:?}",
                    w.label
                ),
            }
            assert!(
                outputs_identical(engine.output(), &published),
                "[{}] {kind:?} rolled-back delta @{threads} threads changed the output",
                w.label
            );
            let published_bytes = WorldStore::save_bytes(&published);
            let delta = generate_delta(seed, kind, &engine);
            engine.apply(&delta).unwrap_or_else(|e| {
                panic!(
                    "[{}] {kind:?} delta rejected @{threads} threads: {e}\nops: {:?}",
                    w.label, delta.ops
                )
            });
            assert!(
                WorldStore::save_bytes(&published) == published_bytes,
                "[{}] {kind:?} delta @{threads} threads wrote through a published output",
                w.label
            );
            let counts = MentionCounts::count_with_threads(
                engine.corpus(),
                engine.native_ekg(),
                threads,
            );
            let full = ingest(
                engine.kb(),
                engine.native_ekg().clone(),
                &counts,
                None,
                &cfg,
            )
            .unwrap_or_else(|e| panic!("[{}] full re-ingest failed after {kind:?}: {e}", w.label));
            assert!(
                outputs_identical(engine.output(), &full),
                "[{}] {kind:?} delta @{threads} threads diverged from full re-ingest",
                w.label
            );
            let queries: Vec<ExtConceptId> =
                engine.native_ekg().concepts().take(6).collect();
            let incremental = QueryRelaxer::new(engine.output().clone(), cfg.clone());
            let honest = QueryRelaxer::new(full, cfg.clone());
            for q in queries {
                let got = incremental.relax_concept(q, None, 5);
                let want = honest.relax_concept(q, None, 5);
                match (&got, &want) {
                    (Ok(g), Ok(s)) => assert_eq!(
                        g, s,
                        "[{}] {kind:?} delta @{threads}: answers for {q:?} diverged",
                        w.label
                    ),
                    (Err(_), Err(_)) => {}
                    (g, s) => panic!(
                        "[{}] {kind:?} delta @{threads}: outcome kind for {q:?} diverged: \
                         incremental={g:?} honest={s:?}",
                        w.label
                    ),
                }
            }
        }
    }
}

/// Run the full differential battery on one world.
pub fn check_world(w: &AdversarialWorld) {
    let counts = check_counts(w);
    check_lcs(w);
    check_reach_hybrid(w);
    check_gazetteer(w);

    let exact = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
    let out = check_ingest(w, &counts, MappingMethod::Exact);
    check_bounds(w, &out, &exact);
    check_candidates(w, &out, &exact);
    check_store_round_trip(w, &out, &exact);
    check_federate(w, &out, &exact);
    check_relax(w, out, exact);

    // Edit-distance mapping exercises the DP prefilter; skipped on worlds
    // with ~10k-char names where the quadratic DP would dominate runtime.
    if !w.has_long_names {
        let edit = RelaxConfig { mapping: MappingMethod::edit_tau2(), ..RelaxConfig::default() };
        let out = check_ingest(w, &counts, MappingMethod::edit_tau2());
        check_relax(w, out, edit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::AdversarialWorld;

    /// The fast seeded pass `scripts/tier1.sh` runs
    /// (`cargo test -q -p medkb-fuzz smoke`): one world per graph shape,
    /// spanning several name styles and corpus shapes.
    #[test]
    fn smoke_one_world_per_shape() {
        for seed in [0u64, 1, 2, 3, 4, 36, 57, 78] {
            check_world(&AdversarialWorld::generate(seed));
        }
    }

    /// Named entry point for the tier-1 gate: the federated oracle alone
    /// (single-source bit-identity + two-source merge determinism) on a
    /// spread of world shapes. The full 240-seed sweep runs it too, via
    /// [`check_world`] in `tests/differential.rs`.
    #[test]
    fn smoke_federated_differential() {
        for seed in [0u64, 2, 36, 57] {
            let w = AdversarialWorld::generate(seed);
            let counts = MentionCounts::count(&w.corpus, &w.ekg);
            let exact =
                RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
            let out = ingest(&w.kb, w.ekg.clone(), &counts, None, &exact)
                .unwrap_or_else(|e| panic!("[{}] ingest failed: {e}", w.label));
            check_federate(&w, &out, &exact);
        }
    }

    /// Candidate enumeration keeps the edge-list BFS order on every graph
    /// shape, from radius 1 (so dynamic growth runs ring after ring) and
    /// with growth off. [`check_world`] runs the default config.
    #[test]
    fn smoke_candidates_keep_discovery_order() {
        for seed in [0u64, 1, 2, 3, 4, 36, 57, 78] {
            let w = AdversarialWorld::generate(seed);
            let counts = MentionCounts::count(&w.corpus, &w.ekg);
            let exact =
                RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
            let out = ingest(&w.kb, w.ekg.clone(), &counts, None, &exact)
                .unwrap_or_else(|e| panic!("[{}] ingest failed: {e}", w.label));
            for config in [
                RelaxConfig { radius: 1, ..exact.clone() },
                RelaxConfig { radius: 2, dynamic_radius: false, ..exact.clone() },
            ] {
                check_candidates(&w, &out, &config);
            }
        }
    }

    #[test]
    fn reference_scanner_handles_overlaps_and_overwrites() {
        let mut table = HashMap::new();
        table.insert(vec!["kidney".to_string()], 1);
        table.insert(vec!["kidney".to_string(), "disease".to_string()], 2);
        let tokens: Vec<String> =
            ["chronic", "kidney", "disease"].iter().map(|s| s.to_string()).collect();
        let out = scan_reference(&table, 2, &tokens);
        assert_eq!(out, vec![PhraseMatch { start_token: 1, len: 2, payload: 2 }]);
    }
}
