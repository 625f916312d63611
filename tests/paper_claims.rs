//! The paper's published claims, pinned end-to-end (on reduced worlds —
//! the `medkb-bench` binaries regenerate the full-scale tables).

use medkb::eval::pipeline::{EvalConfig, EvalStack};
use medkb::eval::{evaluate_mappings, evaluate_relaxation, run_user_study, StudyConfig};
use medkb::prelude::*;
use std::collections::HashMap;

fn stack() -> EvalStack {
    EvalStack::build(EvalConfig::tiny(401)).expect("stack builds")
}

#[test]
fn figure4_frequency_totals() {
    // freq("pain of head and neck region") = 18878 + 283 + 3 = 19164 in
    // the Indication context and 1656 in the Risk context.
    let f = medkb::snomed::figures::paper_fragment();
    let mut direct = HashMap::new();
    for &(name, treat, risk) in &f.fig4_direct_counts {
        let mut row = [0u64; medkb::snomed::oracle::N_TAGS];
        row[ContextTag::Treatment.index()] = treat;
        row[ContextTag::Risk.index()] = risk;
        direct.insert(f.concept(name), row);
    }
    let counts = MentionCounts::from_direct(direct, HashMap::new(), 100);
    let freqs =
        Frequencies::compute(&f.ekg, &counts, FrequencyMode::PaperRecursive, false);
    let raw = |name: &str, tag: ContextTag| {
        (freqs.freq(f.concept(name), tag) * freqs.total(tag)).round() as u64
    };
    assert_eq!(raw("pain of head and neck region", ContextTag::Treatment), 19_164);
    assert_eq!(raw("craniofacial pain", ContextTag::Treatment), 18_878);
    assert_eq!(raw("pain of head and neck region", ContextTag::Risk), 1_656);
}

#[test]
fn figure6_path_weights() {
    // 0.9^6 vs 0.9^3 depending on which endpoint is the query term.
    let f = medkb::snomed::figures::paper_fragment();
    let pneumonia = f.concept("pneumonia");
    let lrti = f.concept("lower respiratory tract infection");
    let (fwd, _) = medkb::ekg::path::path_between(&f.ekg, pneumonia, lrti);
    let (rev, _) = medkb::ekg::path::path_between(&f.ekg, lrti, pneumonia);
    assert!((fwd.weight(0.9, 1.0) - 0.9f64.powi(6)).abs() < 1e-12);
    assert!((rev.weight(0.9, 1.0) - 0.9f64.powi(3)).abs() < 1e-12);
}

#[test]
fn table1_shape_exact_edit_embedding() {
    let s = stack();
    let rows = evaluate_mappings(&s);
    let get = |m: &str| rows.iter().find(|r| r.method == m).unwrap().prf;
    // EXACT: perfect precision, lowest recall.
    assert!((get("EXACT").precision - 100.0).abs() < 1e-9);
    assert!(get("EDIT").recall >= get("EXACT").recall);
    // EMBEDDING: best recall and best F1 (the paper's headline shape).
    assert!(get("EMBEDDING").recall >= get("EDIT").recall);
    assert!(get("EMBEDDING").f1 >= get("EXACT").f1);
}

#[test]
fn table2_shape_qr_beats_baselines() {
    let s = stack();
    let rows = evaluate_relaxation(&s, 30);
    let f1 = |m: &str| rows.iter().find(|r| r.method == m).unwrap().prf.f1;
    assert!(f1("QR") > f1("IC"), "QR {} vs IC {}", f1("QR"), f1("IC"));
    assert!(
        f1("QR") > f1("Embedding-pre-trained"),
        "QR {} vs pre-trained {}",
        f1("QR"),
        f1("Embedding-pre-trained")
    );
    assert!(
        f1("Embedding-trained") > f1("Embedding-pre-trained"),
        "trained {} vs pre-trained {}",
        f1("Embedding-trained"),
        f1("Embedding-pre-trained")
    );
}

#[test]
fn table3_shape_qr_raises_satisfaction() {
    let s = stack();
    let report = run_user_study(&s, &StudyConfig::tiny(303));
    assert!(report.qr_t1.average > report.noqr_t1.average);
    assert!(report.qr_t2.average > report.noqr_t2.average);
    // Within each system T1 (guided) should not be harder than T2 (free).
    assert!(report.qr_t1.average >= report.qr_t2.average - 0.4);
}

#[test]
fn scenario1_repair_and_scenario2_expansion_end_to_end() {
    let s = stack();
    let relaxer = s.relaxer(s.config.relax.clone());
    // Scenario 1: a term that exists in the terminology but not the KB.
    let unknown = s
        .world
        .unrepresented_findings()
        .into_iter()
        .find(|&c| {
            s.world.terminology.ekg.depth(c) >= 3
                && s.world
                    .terminology
                    .ekg
                    .neighborhood(c, 4, &[])
                    .iter()
                    .any(|(n, _)| s.ingested.flagged.contains(n))
        })
        .expect("unrepresented finding near flagged concepts");
    let name = s.world.terminology.ekg.name(unknown).to_string();
    let res = relaxer.relax(&name, Some(s.world.treatment_context()), 7).unwrap();
    assert!(!res.answers.is_empty(), "scenario 1 produces repair candidates");

    // Scenario 2: a known concept still yields related expansions.
    let (_inst, known) = s.ingested.mappings.iter().next().unwrap();
    let res = relaxer.relax_concept(known, Some(s.world.treatment_context()), 7).unwrap();
    assert!(res.answers.iter().all(|a| a.concept != known));
    assert!(!res.answers.is_empty());
}
