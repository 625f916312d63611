//! Hand-built terminology fragments reproducing the paper's worked
//! examples (Figures 4, 5, 6 and the running narrative examples).
//!
//! These pin exact numeric behaviour:
//!
//! * **Figure 4** — the craniofacial-pain subtree with per-context direct
//!   mention counts chosen so Eq. 2 yields the published totals:
//!   `freq("craniofacial pain") = 18878` and
//!   `freq("pain of head and neck region") = 18878 + 283 + 3 = 19164` in
//!   the `Indication-hasFinding-Finding` context, and `1656` in the
//!   `Risk-hasFinding-Finding` context.
//! * **Figure 5** — "chronic kidney disease stage 1 due to hypertension"
//!   sits 3 hops below the flagged "kidney disease"; ingestion must add a
//!   1-hop shortcut carrying original distance 3.
//! * **Figure 6** — "pneumonia" reaches "lower respiratory tract
//!   infection" in 4 hops: 3 generalizations + 1 specialization.
//! * the **introduction examples** — "pertussis" far from the flagged
//!   "bronchitis"; the "psychogenic fever" / "hyperpyrexia" /
//!   "hypothermia" context trap; "pyelectasia" near the flagged
//!   "kidney disease" / "nephropathy" (Scenario 1 of §6.1).

use medkb_ekg::{Ekg, EkgBuilder};

/// Direct (non-recursive) mention counts of one Figure 4 concept:
/// `(name, treatment-context count, risk-context count)`.
pub type DirectCounts = (&'static str, u64, u64);

/// A hand-built fragment of the paper's SNOMED CT examples.
#[derive(Debug, Clone)]
pub struct PaperFragment {
    /// The terminology graph.
    pub ekg: Ekg,
    /// Figure 4's direct mention counts. Summing per Eq. 2 yields the
    /// published totals (see module docs).
    pub fig4_direct_counts: Vec<DirectCounts>,
    /// Names of concepts with a corresponding KB instance (flagged).
    pub flagged: Vec<&'static str>,
}

/// Subsumption edges (child, parent) of the fragment.
pub const FRAGMENT_EDGES: [(&str, &str); 26] = [
    ("clinical finding", "snomed ct concept"),
    // Figure 4: pain subtree.
    ("pain", "clinical finding"),
    ("pain of head and neck region", "pain"),
    ("craniofacial pain", "pain of head and neck region"),
    ("pain in throat", "pain of head and neck region"),
    ("headache", "craniofacial pain"),
    ("frequent headache", "headache"),
    // Figure 5: chronic kidney disease chain.
    ("kidney disease", "clinical finding"),
    ("chronic kidney disease", "kidney disease"),
    ("chronic kidney disease stage 1", "chronic kidney disease"),
    (
        "chronic kidney disease stage 1 due to hypertension",
        "chronic kidney disease stage 1",
    ),
    ("nephropathy", "kidney disease"),
    ("disorder of renal pelvis", "kidney disease"),
    ("pyelectasia", "disorder of renal pelvis"),
    ("renal impairment", "kidney disease"),
    // Figure 6: pneumonia / LRTI (3 ups + 1 down).
    ("respiratory disorder", "clinical finding"),
    ("lower respiratory tract infection", "respiratory disorder"),
    ("lung disease", "respiratory disorder"),
    ("pneumonitis", "lung disease"),
    ("pneumonia", "pneumonitis"),
    ("bronchitis", "lower respiratory tract infection"),
    // Pertussis, deliberately far from bronchitis (intro example).
    ("infectious disease", "clinical finding"),
    ("bacterial infectious disease", "infectious disease"),
    ("bordetella infection", "bacterial infectious disease"),
    ("pertussis", "bordetella infection"),
    // Psychogenic fever trap (§1, Exploiting the query context).
    ("disorder of body temperature", "clinical finding"),
];

/// Additional body-temperature edges (kept separate for readability).
pub const TEMPERATURE_EDGES: [(&str, &str); 4] = [
    ("fever", "disorder of body temperature"),
    ("hyperpyrexia", "fever"),
    ("psychogenic fever", "hyperpyrexia"),
    ("hypothermia", "disorder of body temperature"),
];

/// Build the fragment.
pub fn paper_fragment() -> PaperFragment {
    let mut b = EkgBuilder::new();
    b.concept("snomed ct concept");
    for (child, parent) in FRAGMENT_EDGES.iter().chain(TEMPERATURE_EDGES.iter()) {
        b.is_a_named(child, parent);
    }
    let fever = b.concept("fever");
    b.synonym(fever, "pyrexia");
    let ekg = b.build().expect("the paper fragment is a valid rooted DAG");

    // Direct counts chosen so the Eq. 2 rollups hit the published numbers:
    //   Treatment: freq(headache) = 15000 + 3000 = 18000,
    //              freq(craniofacial pain) = 878 + 18000 = 18878,
    //              freq(pain of head and neck region)
    //                  = 3 + 18878 + 283 = 19164.
    //   Risk:      freq(craniofacial pain) = 400 + 700 + 300 = 1400,
    //              freq(pain of head and neck region)
    //                  = 56 + 1400 + 200 = 1656.
    let fig4_direct_counts = vec![
        ("frequent headache", 3000, 700),
        ("headache", 15000, 300),
        ("craniofacial pain", 878, 400),
        ("pain in throat", 283, 200),
        ("pain of head and neck region", 3, 56),
    ];

    let flagged = vec![
        "headache",
        "frequent headache",
        "craniofacial pain",
        "pain in throat",
        "pain of head and neck region",
        "kidney disease",
        "nephropathy",
        "renal impairment",
        "fever",
        "hyperpyrexia",
        "bronchitis",
        "lower respiratory tract infection",
        "pneumonia",
        "hypothermia",
    ];

    PaperFragment { ekg, fig4_direct_counts, flagged }
}

impl PaperFragment {
    /// Resolve a fragment concept by name (they are all unique).
    pub fn concept(&self, name: &str) -> medkb_types::ExtConceptId {
        let hits = self.ekg.lookup_name(name);
        assert!(
            hits.len() == 1,
            "fragment concept {name:?} should resolve uniquely, got {hits:?}"
        );
        hits[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medkb_ekg::{lcs::lcs, path::path_between, PathSummary};

    #[test]
    fn fragment_builds_and_resolves() {
        let f = paper_fragment();
        assert!(f.ekg.len() > 25);
        for name in &f.flagged {
            f.concept(name);
        }
    }

    #[test]
    fn figure5_distance_is_three_hops() {
        let f = paper_fragment();
        let deep = f.concept("chronic kidney disease stage 1 due to hypertension");
        let kd = f.concept("kidney disease");
        assert_eq!(f.ekg.distance_to_ancestor(deep, kd), Some(3));
    }

    #[test]
    fn figure6_path_is_three_ups_one_down() {
        let f = paper_fragment();
        let pneumonia = f.concept("pneumonia");
        let lrti = f.concept("lower respiratory tract infection");
        let (path, out) = path_between(&f.ekg, pneumonia, lrti);
        assert_eq!(path, PathSummary { ups: 3, downs: 1 });
        assert_eq!(out.concepts, vec![f.concept("respiratory disorder")]);
        let (reverse, _) = path_between(&f.ekg, lrti, pneumonia);
        assert_eq!(reverse, PathSummary { ups: 1, downs: 3 });
    }

    #[test]
    fn pertussis_is_far_from_bronchitis() {
        let f = paper_fragment();
        let pertussis = f.concept("pertussis");
        let bronchitis = f.concept("bronchitis");
        let out = lcs(&f.ekg, pertussis, bronchitis);
        assert_eq!(out.concepts, vec![f.concept("clinical finding")]);
        assert!(out.total_distance() >= 6, "distance {}", out.total_distance());
    }

    #[test]
    fn psychogenic_fever_neighbors_include_both_temperature_extremes() {
        let f = paper_fragment();
        let pf = f.concept("psychogenic fever");
        let names: Vec<&str> =
            f.ekg.neighborhood(pf, 4, &[]).iter().map(|&(c, _)| f.ekg.name(c)).collect();
        assert!(names.contains(&"hyperpyrexia"));
        assert!(names.contains(&"hypothermia"), "{names:?}");
    }

    #[test]
    fn fig4_direct_counts_cover_the_subtree() {
        let f = paper_fragment();
        let treatment_total: u64 = f.fig4_direct_counts.iter().map(|&(_, t, _)| t).sum();
        let risk_total: u64 = f.fig4_direct_counts.iter().map(|&(_, _, r)| r).sum();
        assert_eq!(treatment_total, 19164, "Figure 4 Indication-context total");
        assert_eq!(risk_total, 1656, "Figure 4 Risk-context total");
    }

    #[test]
    fn pyelectasia_close_to_kidney_disease() {
        let f = paper_fragment();
        let p = f.concept("pyelectasia");
        let names: Vec<&str> =
            f.ekg.neighborhood(p, 2, &[]).iter().map(|&(c, _)| f.ekg.name(c)).collect();
        assert!(names.contains(&"kidney disease"));
    }

    #[test]
    fn fever_synonym_registered() {
        let f = paper_fragment();
        let fever = f.concept("fever");
        assert_eq!(f.ekg.lookup_name("pyrexia"), &[fever]);
    }
}
