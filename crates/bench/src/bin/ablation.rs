//! Ablations of the design choices DESIGN.md §5 calls out:
//!
//! 1. Eq. 2 frequency semantics: paper-literal recursion vs exact
//!    descendant sets.
//! 2. §5.1 shortcut edges on/off.
//! 3. tf-idf adjustment of mention counts on/off.
//! 4. Eq. 4 generalization-weight sweep (0.5 … 1.0), plus the logistic
//!    regression fit of §5.2 on oracle-labeled paths.
//! 5. Fixed vs dynamic radius.
//!
//! ```text
//! cargo run --release -p medkb-bench --bin ablation [--quick]
//! ```

use medkb_core::weights::{fit_direction_weights, PathExample};
use medkb_core::{FrequencyMode, QueryRelaxer, RelaxConfig};
use medkb_ekg::lcs::lcs;
use medkb_eval::relax_eval::{build_workload, pool_and_score, Workload};
use medkb_eval::report::render_table2;
use medkb_snomed::oracle::DEFAULT_RELEVANCE_THRESHOLD;
use medkb_snomed::Oracle;
use medkb_types::ExtConceptId;

fn run_variant(
    relaxer: &QueryRelaxer,
    workload: &Workload,
    k: usize,
) -> Vec<Vec<ExtConceptId>> {
    let queries: Vec<_> = workload.queries.iter().map(|&(q, ctx, _)| (q, Some(ctx))).collect();
    relaxer
        .relax_concepts_batch(&queries, k)
        .into_iter()
        .map(|res| res.map(|r| r.concepts().into_iter().take(k).collect()).unwrap_or_default())
        .collect()
}

fn main() {
    let stack = medkb_bench::stack_from_args();
    let n = if std::env::args().any(|a| a == "--quick") { 25 } else { 80 };
    let workload = build_workload(&stack, n);
    let base = stack.config.relax.clone();
    let k = 10;

    // —— Runtime + ingest-time variants ——
    let mut labels: Vec<&'static str> = Vec::new();
    let mut runs: Vec<Vec<Vec<ExtConceptId>>> = Vec::new();
    let push =
        |labels: &mut Vec<&'static str>, runs: &mut Vec<Vec<Vec<ExtConceptId>>>,
         label: &'static str,
         relaxer: &QueryRelaxer| {
            labels.push(label);
            runs.push(run_variant(relaxer, &workload, k));
        };

    let default_relaxer = stack.relaxer(base.clone());
    push(&mut labels, &mut runs, "QR (default)", &default_relaxer);

    let wg = |w: f64| RelaxConfig { w_gen: w, ..base.clone() };
    for (label, w) in [
        ("w_gen = 0.5", 0.5),
        ("w_gen = 0.7", 0.7),
        ("w_gen = 0.95", 0.95),
        ("w_gen = 1.0 (no direction)", 1.0),
    ] {
        let relaxer = stack.relaxer(wg(w));
        push(&mut labels, &mut runs, label, &relaxer);
    }

    let fixed = stack.relaxer(RelaxConfig { dynamic_radius: false, ..base.clone() });
    push(&mut labels, &mut runs, "fixed radius r=4", &fixed);

    let no_tfidf_ing = stack
        .ingest_with_config(&RelaxConfig { use_tfidf: false, ..base.clone() })
        .expect("ingest");
    let no_tfidf = QueryRelaxer::new(no_tfidf_ing, RelaxConfig { use_tfidf: false, ..base.clone() });
    push(&mut labels, &mut runs, "no tf-idf", &no_tfidf);

    let exact_freq_ing = stack
        .ingest_with_config(&RelaxConfig {
            frequency_mode: FrequencyMode::DescendantSet,
            ..base.clone()
        })
        .expect("ingest");
    let exact_freq = QueryRelaxer::new(
        exact_freq_ing,
        RelaxConfig { frequency_mode: FrequencyMode::DescendantSet, ..base.clone() },
    );
    push(&mut labels, &mut runs, "exact descendant-set freq", &exact_freq);

    let no_shortcut_ing = stack
        .ingest_with_config(&RelaxConfig { use_shortcuts: false, ..base.clone() })
        .expect("ingest");
    let no_shortcuts =
        QueryRelaxer::new(no_shortcut_ing, RelaxConfig { use_shortcuts: false, ..base.clone() });
    push(&mut labels, &mut runs, "no shortcut edges", &no_shortcuts);

    let rows = pool_and_score(&stack, &workload, DEFAULT_RELEVANCE_THRESHOLD, &labels, &runs, k);
    println!("# Ablations ({n}-query workload, pooled oracle judgments)\n");
    println!("{}", render_table2(&rows));

    // —— Shortcut effect on retrieval effort ——
    let mut grown_default = 0usize;
    let mut grown_noshort = 0usize;
    for &(q, ctx, _) in &workload.queries {
        if let Ok(r) = default_relaxer.relax_concept(q, Some(ctx), k) {
            grown_default += (r.radius_used > base.radius) as usize;
        }
        if let Ok(r) = no_shortcuts.relax_concept(q, Some(ctx), k) {
            grown_noshort += (r.radius_used > base.radius) as usize;
        }
    }
    println!(
        "radius had to grow beyond r=4 on {grown_default}/{} queries with shortcuts, \
         {grown_noshort}/{} without",
        workload.queries.len(),
        workload.queries.len()
    );

    // —— Extra mapping method: Soundex phonetics ——
    let mapping_rows = medkb_eval::mapping_eval::evaluate_mappings_with(
        &stack,
        &[
            ("EXACT", medkb_core::MappingMethod::Exact),
            ("PHONETIC", medkb_core::MappingMethod::Phonetic),
        ],
    );
    println!("\nextra mapping method (vs EXACT):");
    for r in mapping_rows {
        println!(
            "  {:<9} P = {:6.2}  R = {:6.2}  F1 = {:6.2}",
            r.method, r.prf.precision, r.prf.recall, r.prf.f1
        );
    }

    // —— EMBEDDING mapper threshold sweep (precision/recall trade-off) ——
    let sweep = medkb_eval::mapping_eval::embedding_threshold_sweep(
        &stack,
        &[0.0, 0.5, 0.7, 0.8, 0.82, 0.9, 0.95],
    );
    println!("\nEMBEDDING mapper acceptance-threshold sweep:");
    for (t, prf) in sweep {
        println!("  t = {t:<5} P = {:6.2}  R = {:6.2}  F1 = {:6.2}", prf.precision, prf.recall, prf.f1);
    }

    // —— §5.2: learn the direction weights by logistic regression ——
    let term = &stack.world.terminology;
    let mut examples: Vec<PathExample> = Vec::new();
    for &(q, _, tag) in workload.queries.iter().take(40) {
        let ext_q = Oracle::extension(&term.ekg, q);
        for (b, _) in stack.ingested.ekg.neighborhood(q, 4, stack.ingested.shortcuts.list()) {
            if !stack.ingested.flagged.contains(&b) {
                continue;
            }
            let out = lcs(&stack.ingested.ekg, q, b);
            let relevant = stack.world.oracle.relevance(term, &ext_q, q, b, tag)
                >= DEFAULT_RELEVANCE_THRESHOLD;
            examples.push(PathExample { ups: out.dist_a, downs: out.dist_b, relevant });
        }
    }
    let learned = fit_direction_weights(&examples);
    println!(
        "\nlogistic-regression direction weights over {} labeled paths: \
         w_gen = {:.3}, w_spec = {:.3} (paper's empirical choice: 0.9 / 1.0)",
        examples.len(),
        learned.w_gen,
        learned.w_spec
    );
    medkb_bench::print_metrics_section(&stack);
}
