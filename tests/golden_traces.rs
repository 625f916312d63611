//! Golden-trace conformance suite: every pinned query's full `explain`
//! derivation — Eq. 1 ICs, Eq. 2 context frequencies, Eq. 4 path weight,
//! Eq. 5 product — is rendered to a canonical JSON document and compared
//! byte-for-byte against `tests/fixtures/golden_traces.json`.
//!
//! To regenerate after an *intentional* scoring change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -q --test golden_traces
//! ```
//!
//! then review the diff of the fixture like any other code change. A
//! mismatch without an intentional change means the scoring pipeline's
//! numerics drifted — that is the bug this suite exists to catch.

mod common;

use std::fmt::Write as _;

use common::{context_labeled, fixture_config, fixture_relaxer, fixture_path, GOLDEN_QUERIES};
use medkb::obs::escape;
use medkb::prelude::*;

const K: usize = 5;

/// Render one query's relaxation as a deterministic JSON object. Floats use
/// `{:?}` (shortest round-trip) so the text pins the exact f64 bits.
fn trace_query(r: &QueryRelaxer, term: &str, label: Option<&str>) -> String {
    let ctx = label.map(|l| context_labeled(r, l));
    let res = r.relax(term, ctx, K).unwrap();
    let name = |c: ExtConceptId| escape(r.ingested().ekg.name(c));
    let mut out = String::new();
    out.push_str("    {\n");
    let _ = writeln!(out, "      \"term\": {},", escape(term));
    match label {
        Some(l) => {
            let _ = writeln!(out, "      \"context\": {},", escape(l));
        }
        None => out.push_str("      \"context\": null,\n"),
    }
    let _ = writeln!(out, "      \"k\": {K},");
    let _ = writeln!(out, "      \"radius_used\": {},", res.radius_used);
    out.push_str("      \"answers\": [");
    for (i, a) in res.answers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n        {\n");
        let _ = writeln!(out, "          \"concept\": {},", name(a.concept));
        let _ = writeln!(out, "          \"score\": {:?},", a.score);
        let _ = writeln!(out, "          \"hops\": {},", a.hops);
        let _ = writeln!(out, "          \"instances\": {},", a.instances.len());
        let ex = a.explain.as_ref().expect("explain enabled in fixture config");
        out.push_str("          \"explain\": {\n");
        let _ = writeln!(out, "            \"ic_query\": {:?},", ex.ic_query);
        let _ = writeln!(out, "            \"ic_candidate\": {:?},", ex.ic_candidate);
        let _ = writeln!(out, "            \"ic_lcs\": {:?},", ex.ic_lcs);
        let _ = writeln!(out, "            \"freq_query\": {:?},", ex.freq_query);
        let _ = writeln!(out, "            \"freq_candidate\": {:?},", ex.freq_candidate);
        let lcs: Vec<String> = ex.lcs.iter().map(|&c| name(c)).collect();
        let _ = writeln!(out, "            \"lcs\": [{}],", lcs.join(", "));
        let _ = writeln!(out, "            \"generalizations\": {},", ex.generalizations);
        let _ = writeln!(out, "            \"specializations\": {},", ex.specializations);
        let _ = writeln!(out, "            \"sim_ic\": {:?},", ex.sim_ic);
        let _ = writeln!(out, "            \"path_weight\": {:?},", ex.path_weight);
        let _ = writeln!(out, "            \"score\": {:?}", ex.score);
        out.push_str("          }\n");
        out.push_str("        }");
    }
    if res.answers.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n      ]\n");
    }
    out.push_str("    }");
    out
}

fn render_traces() -> String {
    let mut config = fixture_config();
    config.obs = ObsConfig { metrics: None, explain: true };
    let r = fixture_relaxer(config);
    let mut out = String::from("{\n  \"queries\": [\n");
    for (i, (term, label)) in GOLDEN_QUERIES.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&trace_query(&r, term, *label));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[test]
fn golden_traces_match_pinned_fixture() {
    let rendered = render_traces();
    let path = fixture_path("golden_traces.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden_traces.json");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("read golden_traces.json (run with UPDATE_GOLDEN=1 to create it)");
    assert!(
        rendered == golden,
        "golden trace drift: scoring derivation no longer matches \
         tests/fixtures/golden_traces.json.\nIf the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the fixture diff.\n\
         rendered {} bytes, golden {} bytes",
        rendered.len(),
        golden.len()
    );
}

/// The trace itself is deterministic: two independently built worlds render
/// identical documents (guards against iteration-order leaks into traces).
#[test]
fn golden_traces_are_deterministic_across_builds() {
    assert_eq!(render_traces(), render_traces());
}

/// Every explain block must be internally consistent with Eq. 5:
/// score = sim_ic × path_weight, and the answer's reported score matches.
#[test]
fn explain_blocks_satisfy_eq5_product() {
    let mut config = fixture_config();
    config.obs = ObsConfig { metrics: None, explain: true };
    let r = fixture_relaxer(config);
    let mut checked = 0usize;
    for (term, label) in GOLDEN_QUERIES {
        let ctx = label.map(|l| context_labeled(&r, l));
        let res = r.relax(term, ctx, K).unwrap();
        for a in &res.answers {
            let ex = a.explain.as_ref().expect("explain enabled");
            assert_eq!(ex.sim_ic * ex.path_weight, ex.score, "{term}: Eq. 5 product");
            assert_eq!(ex.score, a.score, "{term}: answer score != explain score");
            assert!(
                ex.generalizations + ex.specializations >= a.hops,
                "{term}: LCS path ({} up + {} down) shorter than the \
                 customized-graph distance {}",
                ex.generalizations,
                ex.specializations,
                a.hops
            );
            assert!(!ex.lcs.is_empty(), "{term}: empty LCS set");
            checked += 1;
        }
    }
    assert!(checked >= 30, "expected a substantive answer pool, got {checked}");
}

/// `/explain`'s chain walks the Eq. 4 path one native step at a time: for
/// every golden answer it lists `generalizations + specializations + 1`
/// concepts, the query first and the answer last, agreeing with the path
/// line printed above it.
#[test]
fn explain_chain_lists_one_concept_per_path_step() {
    let r = fixture_relaxer(fixture_config());
    let ekg = &r.ingested().ekg;
    let mut checked = 0usize;
    for (term, label) in GOLDEN_QUERIES {
        let ctx = label.map(|l| context_labeled(&r, l));
        let res = r.relax(term, ctx, K).unwrap();
        for a in &res.answers {
            let text = r.explain(res.query_concept, a.concept, ctx).unwrap();
            let line = |prefix: &str| {
                text.lines().find_map(|l| l.trim().strip_prefix(prefix)).expect(prefix)
            };
            let path: Vec<&str> = line("path: ").split_whitespace().collect();
            let (ups, downs): (usize, usize) = (path[0].parse().unwrap(), path[3].parse().unwrap());
            let chain: Vec<&str> = line("chain: ").split(" → ").collect();
            let answer = ekg.name(a.concept);
            assert_eq!(chain.len(), ups + downs + 1, "{term} → {answer}:\n{text}");
            assert_eq!(chain.first(), Some(&ekg.name(res.query_concept)), "{term}");
            assert_eq!(chain.last(), Some(&answer), "{term}");
            checked += 1;
        }
    }
    assert!(checked > 0, "the golden queries have answers");
}
