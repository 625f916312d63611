//! Regenerate the worked numbers of **Figures 4, 5 and 6** on the
//! hand-built paper fragment.
//!
//! ```text
//! cargo run --release -p medkb-bench --bin figures
//! ```

use std::collections::HashMap;

use medkb_core::{ingest, FrequencyMode, Frequencies, MappingMethod, RelaxConfig};
use medkb_corpus::MentionCounts;
use medkb_ekg::path::path_between;
use medkb_snomed::figures::paper_fragment;
use medkb_snomed::oracle::N_TAGS;
use medkb_snomed::ContextTag;
use medkb_types::ExtConceptId;

fn main() {
    let f = paper_fragment();

    // —— Figure 4: per-context frequency rollup ——
    println!("# Figure 4: per-context concept frequencies (craniofacial pain subtree)\n");
    let mut direct: HashMap<ExtConceptId, [u64; N_TAGS]> = HashMap::new();
    for &(name, treat, risk) in &f.fig4_direct_counts {
        let mut row = [0u64; N_TAGS];
        row[ContextTag::Treatment.index()] = treat;
        row[ContextTag::Risk.index()] = risk;
        direct.insert(f.concept(name), row);
    }
    let counts = MentionCounts::from_direct(direct, HashMap::new(), 100);
    let freqs = Frequencies::compute(&f.ekg, &counts, FrequencyMode::PaperRecursive, false);
    println!("| concept | freq(Indication ctx) | freq(Risk ctx) |");
    println!("|---|---|---|");
    for name in [
        "frequent headache",
        "headache",
        "craniofacial pain",
        "pain in throat",
        "pain of head and neck region",
    ] {
        let c = f.concept(name);
        let t = freqs.freq(c, ContextTag::Treatment) * freqs.total(ContextTag::Treatment);
        let r = freqs.freq(c, ContextTag::Risk) * freqs.total(ContextTag::Risk);
        println!("| {name} | {t:.0} | {r:.0} |");
    }
    println!("\npaper: freq(pain of head and neck region) = 18878 + 283 + 3 = 19164 \
              (Indication), 1656 (Risk)\n");

    // —— Figure 5: shortcut customization ——
    println!("# Figure 5: sparsity customization (chronic kidney disease chain)\n");
    let mut ob = medkb_ontology::OntologyBuilder::new();
    let finding = ob.concept("Finding");
    let drug = ob.concept("Drug");
    ob.relationship("treats", drug, finding);
    let onto = ob.build().unwrap();
    let mut kb = medkb_kb::KbBuilder::new(onto);
    let fc = kb.ontology().lookup_concept("Finding").unwrap();
    kb.instance("kidney disease", fc);
    let kb = kb.build().unwrap();
    let counts = MentionCounts::from_direct(HashMap::new(), HashMap::new(), 1);
    let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
    let deep_name = "chronic kidney disease stage 1 due to hypertension";
    let before = {
        let deep = f.concept(deep_name);
        let kd = f.concept("kidney disease");
        (
            f.ekg.neighborhood(deep, 1, &[]).iter().any(|&(c, _)| c == kd),
            f.ekg.distance_to_ancestor(deep, kd).unwrap(),
        )
    };
    let out = ingest(&kb, f.ekg.clone(), &counts, None, &config).unwrap();
    let deep = out.ekg.lookup_name(deep_name)[0];
    let kd = out.ekg.lookup_name("kidney disease")[0];
    let shortcut = out.shortcuts.list().iter().find(|s| (s.0, s.1) == (deep, kd)).unwrap();
    println!("before ingestion: 1-hop reachable = {}, semantic distance = {}", before.0, before.1);
    println!(
        "after ingestion:  1-hop reachable = {}, shortcut edge weight (original distance) = {}",
        out.ekg.neighborhood(deep, 1, out.shortcuts.list()).iter().any(|&(c, _)| c == kd),
        shortcut.2
    );
    println!("(paper: 3 hops collapse to 1, original distance 3 preserved on the edge)\n");

    // —— Figure 6: direction-weighted path penalty ——
    println!("# Figure 6: direction-dependent path weights (w_gen = 0.9, w_spec = 1)\n");
    let pneumonia = f.concept("pneumonia");
    let lrti = f.concept("lower respiratory tract infection");
    let (fwd, _) = path_between(&f.ekg, pneumonia, lrti);
    let (rev, _) = path_between(&f.ekg, lrti, pneumonia);
    println!(
        "pneumonia → LRTI: {} ups + {} downs, p = {:.4} (= 0.9^6 = {:.4})",
        fwd.ups,
        fwd.downs,
        fwd.weight(0.9, 1.0),
        0.9f64.powi(6)
    );
    println!(
        "LRTI → pneumonia: {} ups + {} downs, p = {:.4} (= 0.9^3 = {:.4})",
        rev.ups,
        rev.downs,
        rev.weight(0.9, 1.0),
        0.9f64.powi(3)
    );
}
