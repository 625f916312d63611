//! Property tests of the core method's invariants over random taxonomies
//! and random corpus counts.

use std::collections::HashMap;

use medkb_core::{FrequencyMode, Frequencies, QrScorer, RelaxConfig};
use medkb_corpus::MentionCounts;
use medkb_ekg::{Ekg, EkgBuilder};
use medkb_snomed::oracle::N_TAGS;
use medkb_snomed::ContextTag;
use medkb_types::{ExtConceptId, Id};
use proptest::prelude::*;

/// Random rooted DAG (node 0 root; node i+1 picks parents among 0..=i)
/// plus random direct counts per node for two context tags.
fn world_strategy() -> impl Strategy<Value = (Vec<Vec<usize>>, Vec<(u64, u64)>)> {
    proptest::collection::vec(
        proptest::collection::vec(any::<proptest::sample::Index>(), 1..3),
        1..24,
    )
    .prop_flat_map(|raw| {
        let n = raw.len() + 1;
        let parents: Vec<Vec<usize>> = raw
            .into_iter()
            .enumerate()
            .map(|(i, picks)| {
                let mut p: Vec<usize> = picks.into_iter().map(|x| x.index(i + 1)).collect();
                p.sort_unstable();
                p.dedup();
                p
            })
            .collect();
        (
            Just(parents),
            proptest::collection::vec((0u64..200, 0u64..200), n..=n),
        )
    })
}

fn build(parents: &[Vec<usize>], counts: &[(u64, u64)]) -> (Ekg, MentionCounts) {
    let mut b = EkgBuilder::new();
    let mut ids = vec![b.concept("n0")];
    for (i, ps) in parents.iter().enumerate() {
        let c = b.concept(&format!("n{}", i + 1));
        for &p in ps {
            b.is_a(c, ids[p]);
        }
        ids.push(c);
    }
    let ekg = b.build().expect("valid by construction");
    let mut direct: HashMap<ExtConceptId, [u64; N_TAGS]> = HashMap::new();
    let mut doc_freq = HashMap::new();
    for (i, &(t, r)) in counts.iter().enumerate() {
        let mut row = [0u64; N_TAGS];
        row[ContextTag::Treatment.index()] = t;
        row[ContextTag::Risk.index()] = r;
        let id = ExtConceptId::from_usize(i);
        direct.insert(id, row);
        doc_freq.insert(id, 1 + (t / 40) as u32);
    }
    (ekg, MentionCounts::from_direct(direct, doc_freq, 100))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_rollup_root_is_one_and_monotone((parents, counts) in world_strategy()) {
        let (ekg, mentions) = build(&parents, &counts);
        for mode in [FrequencyMode::PaperRecursive, FrequencyMode::DescendantSet] {
            let freqs = Frequencies::compute(&ekg, &mentions, mode, false);
            for tag in [ContextTag::Treatment, ContextTag::Risk] {
                let total_direct: u64 = counts
                    .iter()
                    .map(|&(t, r)| if tag == ContextTag::Treatment { t } else { r })
                    .sum();
                if total_direct > 0 {
                    prop_assert!((freqs.freq(ekg.root(), tag) - 1.0).abs() < 1e-12);
                }
                for c in ekg.concepts() {
                    let f = freqs.freq(c, tag);
                    prop_assert!((0.0..=1.0 + 1e-12).contains(&f), "{f}");
                    for &p in ekg.parents(c) {
                        prop_assert!(freqs.freq(p, tag) + 1e-12 >= f);
                    }
                }
            }
        }
    }

    #[test]
    fn prop_descendant_set_root_equals_direct_sum((parents, counts) in world_strategy()) {
        let (ekg, mentions) = build(&parents, &counts);
        let freqs =
            Frequencies::compute(&ekg, &mentions, FrequencyMode::DescendantSet, false);
        let tag = ContextTag::Treatment;
        let total_direct: u64 = counts.iter().map(|&(t, _)| t).sum();
        // Exact semantics: each mention counted once at the root.
        prop_assert!((freqs.total(tag) - total_direct as f64).abs() < 1e-6);
        // The paper-literal recursion can only over-count.
        let rec = Frequencies::compute(&ekg, &mentions, FrequencyMode::PaperRecursive, false);
        prop_assert!(rec.total(tag) + 1e-9 >= freqs.total(tag));
    }

    #[test]
    fn prop_eq5_scores_bounded_and_reflexive((parents, counts) in world_strategy()) {
        let (ekg, mentions) = build(&parents, &counts);
        let freqs =
            Frequencies::compute(&ekg, &mentions, FrequencyMode::PaperRecursive, true);
        let config = RelaxConfig::default();
        let scorer = QrScorer::new(&ekg, &freqs, &config);
        let nodes: Vec<ExtConceptId> = ekg.concepts().collect();
        for &a in nodes.iter().step_by(3) {
            let self_score = scorer.score(a, a, Some(ContextTag::Treatment));
            prop_assert!((self_score - 1.0).abs() < 1e-12, "sim(a,a) = {self_score}");
            for &b in nodes.iter().step_by(4) {
                for tag in [Some(ContextTag::Treatment), Some(ContextTag::Risk), None] {
                    let s = scorer.score(a, b, tag);
                    prop_assert!((0.0..=1.0).contains(&s), "{s}");
                }
            }
        }
    }

    #[test]
    fn prop_intrinsic_ic_monotone_down((parents, counts) in world_strategy()) {
        let (ekg, mentions) = build(&parents, &counts);
        let freqs =
            Frequencies::compute(&ekg, &mentions, FrequencyMode::PaperRecursive, false);
        for c in ekg.concepts() {
            let ic = freqs.intrinsic_ic(c);
            prop_assert!((0.0..=1.0).contains(&ic));
            for &p in ekg.parents(c) {
                prop_assert!(freqs.intrinsic_ic(p) <= ic + 1e-12,
                    "parent must be at most as informative");
            }
        }
    }
}
