//! Machine-readable benchmarks over the 4k-concept world.
//!
//! Default mode runs the Table 2 relaxation workload at a fixed radius 4
//! through both the pre-optimization reference path and the query-scoped
//! engine, and writes `BENCH_relax.json` at the repo root:
//!
//! ```text
//! cargo run --release -p medkb-bench --bin bench_json
//! ```
//!
//! `--ingest` instead times the offline pipeline (Algorithm 1): the
//! preserved sequential reference (`ingest_reference` + sequential mention
//! counting) against the optimized staged pipeline at 1/2/4/8 threads, and
//! writes `BENCH_ingest.json` with a per-stage breakdown:
//!
//! ```text
//! cargo run --release -p medkb-bench --bin bench_json -- --ingest
//! ```
//!
//! `--serve` times the serving layer (snapshot store + sharded result
//! cache) over the same 4k world: cold relax vs warm cache hit, plus a
//! snapshot-swap exercise, and writes `BENCH_serve.json`:
//!
//! ```text
//! cargo run --release -p medkb-bench --bin bench_json -- --serve
//! ```
//!
//! `--store` times the persistent world store (medkb-store) against a full
//! re-ingest of the same world: one save, repeated cold opens, and the
//! checksum-corruption rejection path, and writes `BENCH_store.json`:
//!
//! ```text
//! cargo run --release -p medkb-bench --bin bench_json -- --store
//! ```
//!
//! `--delta` times incremental delta ingestion (ROADMAP item 3) against
//! the full re-ingest it replaces: document deltas of size 1/10/100/1000
//! applied through `DeltaEngine::apply`, the delta-vs-full bit-identity
//! re-checked in-run, plus the zipf-stream cache-invalidation cost of a
//! delta publish, and writes `BENCH_delta.json`:
//!
//! ```text
//! cargo run --release -p medkb-bench --bin bench_json -- --delta
//! ```
//!
//! `--federated` benchmarks multi-source federated relaxation (DESIGN.md
//! §17): a two-source registry (the SNOMED-like world plus the GO-like
//! stub) over one shared KB, timing the single-source baseline, the
//! federated scatter/gather, and each source's scatter in isolation. The
//! single-source≡federated bit-identity pin for primary-only queries is
//! asserted in-run, and `BENCH_federated.json` records per-source scatter
//! latency, merged top-k provenance rows, and the single-vs-multi coverage
//! comparison:
//!
//! ```text
//! cargo run --release -p medkb-bench --bin bench_json -- --federated
//! ```
//!
//! `--world-scale N` sets the generated world's concept count in every mode
//! (default 4000 — the tier-1 fast path). Full-scale runs use
//! `--world-scale 350000`, SNOMED CT's concept count (ROADMAP item 1).
//!
//! `--quick` reduces repetitions and skips the file write in all modes
//! (so a smoke run cannot clobber committed full-run numbers).
//!
//! Both modes also run an instrumented pass against a fresh
//! `medkb_obs::Registry` and embed its snapshot under `"metrics"` in the
//! JSON output, asserting along the way that the snapshot parses as JSON
//! and contains every registered stage timer / engine counter — the tier-1
//! smoke contract (scripts/tier1.sh).

use std::sync::Arc;
use std::time::Instant;

use medkb_bench::{
    scaled_relaxation_bench_world, scaled_world_and_corpus, world_scale_from_args,
    RelaxBenchWorld,
};
use medkb_core::{
    ingest, ingest_reference, ingest_with_stats, FederatedRelaxer, IngestStats, MappingMethod,
    ObsConfig, ParallelConfig, QueryRelaxer, RelaxConfig, SourceRegistry,
};
use medkb_corpus::MentionCounts;
use medkb_obs::{validate_json, Registry};
use medkb_types::{ExtConceptId, Id};

/// Median of a sample set (averages the middle pair for even sizes).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of a sample set.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    if samples.is_empty() {
        return 0.0;
    }
    let idx = ((samples.len() as f64 - 1.0) * p / 100.0).round() as usize;
    samples[idx.min(samples.len() - 1)]
}

/// Per-query relaxation times (µs) over `reps` passes of the workload.
fn time_queries(
    relaxer: &QueryRelaxer,
    queries: &[ExtConceptId],
    ctx: medkb_types::ContextId,
    k: usize,
    reps: usize,
    reference: bool,
) -> Vec<f64> {
    let mut samples = Vec::with_capacity(queries.len() * reps);
    for _ in 0..reps {
        for &q in queries {
            let t = Instant::now();
            let r = if reference {
                relaxer.relax_concept_reference(q, Some(ctx), k)
            } else {
                relaxer.relax_concept(q, Some(ctx), k)
            };
            let us = t.elapsed().as_secs_f64() * 1e6;
            r.expect("relaxation succeeds");
            samples.push(us);
        }
    }
    samples
}

/// End-to-end ingestion benchmark (`--ingest`): sequential reference vs the
/// staged parallel pipeline at 1/2/4/8 threads, with the bit-identity pin
/// re-checked on every configuration.
fn run_ingest_bench(quick: bool, scale: usize) {
    let reps = if quick {
        2
    } else if scale > 100_000 {
        3
    } else {
        5
    };
    eprintln!("[bench_json] building {scale}-concept ingestion inputs…");
    let t_build = Instant::now();
    let (world, corpus) = scaled_world_and_corpus(scale);
    eprintln!("[bench_json] world + corpus built in {:.1}s", t_build.elapsed().as_secs_f64());
    let ekg = &world.terminology.ekg;
    let base = RelaxConfig {
        mapping: medkb_core::MappingMethod::Exact,
        ..RelaxConfig::default()
    };

    // Reference: sequential mention counting + the preserved v1 path.
    let mut reference_s = Vec::with_capacity(reps);
    let mut reference_out = None;
    for _ in 0..reps {
        // The input graph is moved into the pipeline; cloning it here is
        // bench scaffolding, not part of Algorithm 1 — keep it untimed.
        let ekg_in = ekg.clone();
        let t = Instant::now();
        let counts = MentionCounts::count_reference(&corpus, ekg);
        let out = ingest_reference(&world.kb, ekg_in, &counts, None, &base)
            .expect("reference ingest");
        reference_s.push(t.elapsed().as_secs_f64());
        reference_out = Some(out);
    }
    let reference = reference_out.expect("at least one rep");
    let reference_median = median(&mut reference_s);
    eprintln!("[bench_json] reference end-to-end: {reference_median:.3}s");

    // Two sweeps: the default configuration (workers clamped to the host's
    // cores — requesting 4 threads on a 1-core box otherwise just buys
    // scheduler overhead), and an unclamped sweep that measures that
    // oversubscription cost honestly. Both are pinned bit-identical to the
    // reference, which is the point: shard count never changes outputs.
    let sweep = |label: &str, clamp: bool, sweep_threads: &[usize]| -> String {
        let mut rows = String::new();
        for &threads in sweep_threads {
            let parallel = ParallelConfig { clamp_to_cores: clamp, ..ParallelConfig::with_threads(threads) };
            let effective = parallel.effective_threads();
            let cfg = RelaxConfig { parallel, ..base.clone() };
            let mut totals = Vec::with_capacity(reps);
            let mut counts_s = Vec::with_capacity(reps);
            let mut last: Option<(medkb_core::IngestOutput, IngestStats)> = None;
            for _ in 0..reps {
                let ekg_in = ekg.clone();
                let t = Instant::now();
                let counts = MentionCounts::count_with_threads(&corpus, ekg, effective);
                counts_s.push(t.elapsed().as_secs_f64());
                let pair = ingest_with_stats(&world.kb, ekg_in, &counts, None, &cfg)
                    .expect("staged ingest");
                totals.push(t.elapsed().as_secs_f64());
                last = Some(pair);
            }
            let (out, stats) = last.expect("at least one rep");
            // The speedup claim is only meaningful if the optimized pipeline
            // reproduces the reference bit for bit.
            assert_eq!(out.mappings, reference.mappings, "mappings diverged");
            assert_eq!(out.flagged, reference.flagged, "flagged set diverged");
            assert_eq!(out.shortcuts, reference.shortcuts, "shortcuts diverged");
            assert_eq!(out.freqs, reference.freqs, "frequency tables diverged");
            let total_median = median(&mut totals);
            let speedup = reference_median / total_median;
            eprintln!(
                "[bench_json] {label} threads={threads} (effective {effective}): \
                 {total_median:.3}s ({speedup:.2}x vs reference)"
            );
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"threads\": {threads}, \"threads_effective\": {effective}, \
                 \"end_to_end_s\": {total_median:.4}, \
                 \"speedup_vs_reference\": {speedup:.2}, \
                 \"counts_s\": {:.4}, \"stages\": {{\
                 \"contexts_s\": {:.4}, \"mapping_s\": {:.4}, \"reach_s\": {:.4}, \
                 \"freqs_s\": {:.4}, \"shortcuts_s\": {:.4}}}}}",
                median(&mut counts_s),
                stats.contexts_s,
                stats.mapping_s,
                stats.reach_s,
                stats.freqs_s,
                stats.shortcuts_s,
            ));
        }
        rows
    };
    let clamped_rows = sweep("clamped", true, &[1, 2, 4, 8]);
    let oversubscribed_rows = sweep("unclamped", false, &[2, 4, 8]);

    // Smoke contract: an instrumented run must register every ingestion
    // stage timer plus the counting stage, still reproduce the reference
    // bit for bit, and snapshot to valid JSON.
    let registry = Registry::shared();
    let cfg_obs =
        RelaxConfig { obs: ObsConfig::with_registry(Arc::clone(&registry)), ..base.clone() };
    let counts =
        MentionCounts::count_with_threads_obs(&corpus, ekg, 1, Some(&registry));
    let (out, _) = ingest_with_stats(&world.kb, ekg.clone(), &counts, None, &cfg_obs)
        .expect("instrumented ingest");
    assert_eq!(out.mappings, reference.mappings, "instrumented mappings diverged");
    assert_eq!(out.freqs, reference.freqs, "instrumented frequency tables diverged");
    let snap = registry.snapshot();
    for &timer in medkb_core::ingest::obs_names::STAGE_TIMERS {
        assert_eq!(snap.histogram_count(timer), 1, "stage timer missing: {timer}");
    }
    assert_eq!(snap.histogram_count(medkb_corpus::counts::obs_names::COUNT_US), 1);
    let metrics_json = snap.to_json();
    assert!(validate_json(&metrics_json), "metrics snapshot must be valid JSON");
    eprintln!("[bench_json] metrics snapshot OK ({} stage timers)", snap.histograms.len());

    let cores = medkb_types::par::cores();
    let json = format!(
        "{{\n  \"reference_end_to_end_s\": {reference_median:.4},\n  \
         \"threads\": [\n{clamped_rows}\n  ],\n  \
         \"oversubscribed\": [\n{oversubscribed_rows}\n  ],\n  \
         \"reps\": {reps},\n  \"world_concepts\": {scale},\n  \
         \"ekg_concepts\": {},\n  \
         \"instances\": {},\n  \"docs\": {},\n  \
         \"machine_cores\": {cores},\n  \
         \"metrics\": {metrics_json}\n}}\n",
        world.terminology.ekg.len(),
        world.kb.instance_count(),
        corpus.len(),
    );
    if quick {
        eprintln!("[bench_json] --quick: skipping BENCH_ingest.json write");
    } else {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
        std::fs::write(out, &json).expect("write BENCH_ingest.json");
        eprintln!("[bench_json] wrote {out}");
    }
    println!("{json}");
}

/// Serving-layer benchmark (`--serve`): cold relax through the cache vs
/// warm hits, single-flight/batch traffic, and a snapshot swap under the
/// smoke contract that cached ≡ uncached bit for bit throughout.
fn run_serve_bench(quick: bool, scale: usize) {
    use medkb_serve::{obs_names as sn, RelaxServer, ServeConfig, ServedFrom};

    let radius = 4u32;
    let k = 10usize;
    let reps = if quick { 2 } else { 5 };

    eprintln!("[bench_json] building {scale}-concept benchmark world…");
    let t_build = Instant::now();
    let RelaxBenchWorld { relaxer, queries, context } = scaled_relaxation_bench_world(scale);
    eprintln!("[bench_json] world built + ingested in {:.1}s", t_build.elapsed().as_secs_f64());
    let mut cfg = relaxer.config().clone();
    cfg.radius = radius;
    cfg.dynamic_radius = false;
    // The uncached twin every served answer is checked against.
    let plain = QueryRelaxer::new(relaxer.ingested().clone(), cfg.clone());

    let registry = Registry::shared();
    let cfg_obs = RelaxConfig { obs: ObsConfig::with_registry(Arc::clone(&registry)), ..cfg };
    let server =
        RelaxServer::new(relaxer.ingested().clone(), cfg_obs, ServeConfig::default());

    let expected: Vec<_> = queries
        .iter()
        .map(|&q| plain.relax_concept(q, Some(context), k).expect("uncached relax"))
        .collect();

    // Cold pass: every key missing, every request computes.
    let mut cold_us = Vec::with_capacity(queries.len());
    for (&q, want) in queries.iter().zip(&expected) {
        let t = Instant::now();
        let served = server.serve_concept(q, Some(context), k).expect("cold serve");
        cold_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(served.served_from, ServedFrom::Computed, "cold pass must compute");
        assert_eq!(*served.result, *want, "cached path diverged from uncached relax");
    }

    // Warm passes: every key resident, every request hits.
    let mut warm_us = Vec::with_capacity(queries.len() * reps);
    for _ in 0..reps {
        for (&q, want) in queries.iter().zip(&expected) {
            let t = Instant::now();
            let served = server.serve_concept(q, Some(context), k).expect("warm serve");
            warm_us.push(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(served.served_from, ServedFrom::Cache, "warm pass must hit");
            assert_eq!(*served.result, *want, "warm hit diverged from uncached relax");
        }
    }

    // Batch surface: duplicated queries drain from the cache, order kept.
    let batch: Vec<(ExtConceptId, Option<medkb_types::ContextId>)> = queries
        .iter()
        .chain(queries.iter())
        .map(|&q| (q, Some(context)))
        .collect();
    for (res, want) in
        server.serve_concepts_batch(&batch, k).into_iter().zip(expected.iter().cycle())
    {
        let served = res.expect("batch serve");
        assert!(served.cached(), "warm batch must be served from cache");
        assert_eq!(*served.result, *want, "batch serving diverged");
    }

    // Snapshot swap: publish the same artifacts as epoch 1. New epoch means
    // new keys — the next pass recomputes, then warms again.
    let t = Instant::now();
    let epoch = server.publish(relaxer.ingested().clone());
    let publish_us = t.elapsed().as_secs_f64() * 1e6;
    assert_eq!(epoch, 1);
    let mut post_swap_cold_us = Vec::with_capacity(queries.len());
    for (&q, want) in queries.iter().zip(&expected) {
        let t = Instant::now();
        let served = server.serve_concept(q, Some(context), k).expect("post-swap serve");
        post_swap_cold_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(served.epoch, 1, "post-swap requests must see the new epoch");
        assert_eq!(served.served_from, ServedFrom::Computed, "swap must invalidate");
        assert_eq!(*served.result, *want, "post-swap answers diverged");
    }
    let rewarmed = server.serve_concept(queries[0], Some(context), k).expect("rewarm");
    assert_eq!(rewarmed.served_from, ServedFrom::Cache);

    // Shed semantics, on a separate registry so the traffic counters above
    // stay interpretable: a zero deadline sheds with Overloaded, not
    // NotFound, and records it.
    let shed_registry = Registry::shared();
    let shed_cfg = RelaxConfig {
        obs: ObsConfig::with_registry(Arc::clone(&shed_registry)),
        ..plain.config().clone()
    };
    let shed_server = RelaxServer::new(
        relaxer.ingested().clone(),
        shed_cfg,
        ServeConfig { deadline: Some(std::time::Duration::ZERO), ..ServeConfig::default() },
    );
    match shed_server.serve_concept(queries[0], Some(context), k) {
        Err(medkb_types::MedKbError::Overloaded { .. }) => {}
        other => panic!("zero deadline must shed with Overloaded, got {other:?}"),
    }
    assert_eq!(shed_registry.snapshot().counter(sn::SHED), 1, "shed counter must record");

    // Workload honesty (ISSUE 9): the headline hit ratio below comes from
    // uniform repeated sweeps over 32 queries against an 8192-entry cache —
    // after the first sweep literally everything hits, which says nothing
    // about a real query distribution. Re-measure both a uniform and a
    // zipf(1.07) stream against a deliberately small cache (one shard,
    // capacity 16 < 32 distinct queries) so evictions and the reuse skew
    // actually show up: the uniform round-robin thrashes the LRU while the
    // zipf head stays resident.
    let stream_len = if quick { 512 } else { 4096 };
    let small = ServeConfig { shards: 1, shard_capacity: 16, ..ServeConfig::default() };
    let workload = |label: &str, exponent: f64, stream: &[ExtConceptId]| -> (String, f64) {
        let reg = Registry::shared();
        let wcfg = RelaxConfig {
            obs: ObsConfig::with_registry(Arc::clone(&reg)),
            ..plain.config().clone()
        };
        let wserver = RelaxServer::new(relaxer.ingested().clone(), wcfg, small);
        let mut us = Vec::with_capacity(stream.len());
        for &q in stream {
            let t = Instant::now();
            let served = wserver.serve_concept(q, Some(context), k).expect("workload serve");
            us.push(t.elapsed().as_secs_f64() * 1e6);
            let pos = queries.iter().position(|&e| e == q).expect("stream query");
            assert_eq!(*served.result, expected[pos], "workload answer diverged");
        }
        let wsnap = reg.snapshot();
        let hits = wsnap.counter(sn::CACHE_HITS);
        let misses = wsnap.counter(sn::CACHE_MISSES);
        let evictions = wsnap.counter(sn::CACHE_EVICTIONS);
        let shed = wsnap.counter(sn::SHED);
        let ratio = wsnap.counter_ratio(sn::CACHE_HITS, sn::CACHE_MISSES);
        let distinct: std::collections::HashSet<ExtConceptId> = stream.iter().copied().collect();
        let p50 = median(&mut us);
        eprintln!(
            "[bench_json] {label} workload: hit ratio {ratio:.3}, {evictions} evictions, \
             {shed} shed, p50 {p50:.2}µs over {} requests ({} distinct)",
            stream.len(),
            distinct.len()
        );
        (
            format!(
                "{{\"workload\": \"{label}\", \"exponent\": {exponent}, \
                 \"stream_len\": {}, \"distinct_queries\": {}, \
                 \"cache_capacity\": {}, \"hit_ratio\": {ratio:.4}, \
                 \"evictions\": {evictions}, \"shed\": {shed}, \
                 \"hits\": {hits}, \"misses\": {misses}, \"p50_us\": {p50:.2}}}",
                stream.len(),
                distinct.len(),
                small.shards * small.shard_capacity,
            ),
            ratio,
        )
    };
    let uniform_stream: Vec<ExtConceptId> =
        (0..stream_len).map(|i| queries[i % queries.len()]).collect();
    let zipf_stream = medkb_bench::zipf_query_stream(&queries, stream_len, 1.07, 0x9E37);
    let (uniform_row, uniform_ratio) = workload("uniform", 0.0, &uniform_stream);
    let (zipf_row, zipf_ratio) = workload("zipf", 1.07, &zipf_stream);
    assert!(
        zipf_ratio > uniform_ratio,
        "a skewed stream must beat uniform round-robin on a small cache \
         (zipf {zipf_ratio:.3} vs uniform {uniform_ratio:.3})"
    );

    // Smoke contract over the instrumented traffic.
    let snap = registry.snapshot();
    let metrics_json = snap.to_json();
    assert!(validate_json(&metrics_json), "metrics snapshot must be valid JSON");
    let hits = snap.counter(sn::CACHE_HITS);
    let misses = snap.counter(sn::CACHE_MISSES);
    assert!(hits > 0, "warm passes must produce cache hits");
    // Exactly two cold sweeps (one per epoch) computed; everything else hit.
    assert_eq!(misses, 2 * queries.len() as u64, "unexpected miss count");
    assert_eq!(snap.counter(sn::SHED), 0, "unshedded traffic must not record sheds");
    assert_eq!(snap.counter(sn::SNAPSHOT_SWAPS), 1);
    assert_eq!(snap.counter(sn::SNAPSHOT_RETIRED), 1, "epoch 0 must retire after the swap");
    assert!(snap.histogram_count(sn::CACHE_LOOKUP_US) > 0, "lookup histogram empty");
    assert!(snap.histogram_count(sn::LATENCY_US) > 0, "latency histogram empty");
    let hit_ratio = snap.counter_ratio(sn::CACHE_HITS, sn::CACHE_MISSES);

    let cold_p50 = median(&mut cold_us);
    let warm_p50 = median(&mut warm_us);
    let post_swap_p50 = median(&mut post_swap_cold_us);
    let warm_speedup = cold_p50 / warm_p50;
    eprintln!(
        "[bench_json] cold {cold_p50:.1}µs, warm {warm_p50:.2}µs ({warm_speedup:.0}x), \
         post-swap {post_swap_p50:.1}µs, publish {publish_us:.0}µs, hit ratio {hit_ratio:.3}"
    );
    if !quick {
        // Acceptance criterion (ISSUE 5): warm-cache p50 ≥ 10× lower than
        // cold relax on the 4k world. Only enforced on full runs — --quick
        // is a smoke test and stays robust on loaded CI boxes.
        assert!(
            warm_p50 * 10.0 <= cold_p50,
            "warm p50 {warm_p50:.2}µs not ≥10x below cold p50 {cold_p50:.2}µs"
        );
    }

    let json = format!(
        "{{\n  \"cold_p50_us\": {cold_p50:.2},\n  \
         \"warm_p50_us\": {warm_p50:.2},\n  \
         \"warm_speedup\": {warm_speedup:.1},\n  \
         \"post_swap_cold_p50_us\": {post_swap_p50:.2},\n  \
         \"publish_us\": {publish_us:.1},\n  \
         \"uniform_loop_hit_ratio\": {hit_ratio:.4},\n  \
         \"cache_hits\": {hits},\n  \"cache_misses\": {misses},\n  \
         \"workloads\": [\n    {uniform_row},\n    {zipf_row}\n  ],\n  \
         \"queries\": {},\n  \"reps\": {reps},\n  \
         \"radius\": {radius},\n  \"k\": {k},\n  \
         \"shards\": {},\n  \"shard_capacity\": {},\n  \
         \"world_concepts\": {scale},\n  \
         \"metrics\": {metrics_json}\n}}\n",
        queries.len(),
        server.config().shards,
        server.config().shard_capacity,
    );
    if quick {
        eprintln!("[bench_json] --quick: skipping BENCH_serve.json write");
    } else {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        std::fs::write(out, &json).expect("write BENCH_serve.json");
        eprintln!("[bench_json] wrote {out}");
    }
    println!("{json}");
}

/// Persistent-store benchmark (`--store`): one full re-ingest of the world
/// vs a cold `WorldStore::open` of the same artifacts (the restart-recovery
/// path of DESIGN.md §14), with bit-identity pinned on every opened copy
/// and the checksum-corruption rejection path exercised.
///
/// "Full re-ingest" is what a server restart without the store would pay to
/// rebuild `IngestOutput` from raw inputs: corpus mention counting, SGNS +
/// SIF embedding training (the default production matcher — the store
/// persists the trained model and index, so an open genuinely skips it),
/// and Algorithm 1. World generation is synthetic-bench scaffolding and
/// stays untimed, as does the `Ekg` clone the pipeline consumes. `--quick`
/// swaps the embedding matcher for `Exact` so the tier-1 smoke stays fast
/// (the embedding mapper's round-trip is pinned by
/// `crates/store/tests/round_trip.rs`); its speedup number is therefore a
/// drastic *under*-estimate and never gated on.
fn run_store_bench(quick: bool, scale: usize) {
    use medkb_store::WorldStore;

    let reps = if quick {
        2
    } else if scale > 100_000 {
        3
    } else {
        5
    };
    let k = 10usize;
    eprintln!("[bench_json] building {scale}-concept store-bench inputs…");
    let t_build = Instant::now();
    let (world, corpus) = scaled_world_and_corpus(scale);
    eprintln!("[bench_json] world + corpus built in {:.1}s", t_build.elapsed().as_secs_f64());
    let ekg = &world.terminology.ekg;
    let cfg = if quick {
        RelaxConfig { mapping: medkb_core::MappingMethod::Exact, ..RelaxConfig::default() }
    } else {
        RelaxConfig::default() // embedding matcher: the production pipeline
    };
    let sgns = medkb_embed::SgnsConfig { seed: 55, epochs: 4, ..medkb_embed::SgnsConfig::default() };

    // Re-ingest cost per rep: mention counting, embedding training (full
    // mode only, matching the matcher in `cfg`), then Algorithm 1.
    let mut reingest_s = Vec::with_capacity(reps);
    let mut counts_s = Vec::with_capacity(reps);
    let mut train_s = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let ekg_in = ekg.clone();
        let t = Instant::now();
        let counts = MentionCounts::count(&corpus, ekg);
        counts_s.push(t.elapsed().as_secs_f64());
        let t_train = Instant::now();
        let sif = if quick {
            None
        } else {
            let wv = medkb_embed::WordVectors::train(&corpus, &sgns);
            Some(Arc::new(medkb_embed::SifModel::fit(wv, &corpus, 1e-3)))
        };
        train_s.push(t_train.elapsed().as_secs_f64());
        let o = medkb_core::ingest(&world.kb, ekg_in, &counts, sif, &cfg).expect("ingest");
        reingest_s.push(t.elapsed().as_secs_f64());
        out = Some(o);
    }
    let out = out.expect("at least one rep");
    let reingest_p50 = median(&mut reingest_s);
    let counts_p50 = median(&mut counts_s);
    let train_p50 = median(&mut train_s);
    eprintln!(
        "[bench_json] re-ingest end-to-end: {reingest_p50:.3}s \
         (counting {counts_p50:.3}s, training {train_p50:.3}s)"
    );

    // Save once (timed), then repeated cold opens of the same file.
    let path = std::env::temp_dir().join(format!("medkb-bench-store-{}.bin", std::process::id()));
    let t = Instant::now();
    WorldStore::save(&out, &path).expect("store save");
    let save_s = t.elapsed().as_secs_f64();
    let file_bytes = std::fs::metadata(&path).expect("store file").len();

    let mut open_s = Vec::with_capacity(reps);
    let mut opened = None;
    for _ in 0..reps {
        let t = Instant::now();
        let o = WorldStore::open(&path).expect("store open");
        open_s.push(t.elapsed().as_secs_f64());
        opened = Some(o);
    }
    let opened = opened.expect("at least one rep");
    let open_p50 = median(&mut open_s);
    let speedup = reingest_p50 / open_p50;
    eprintln!(
        "[bench_json] save {save_s:.3}s ({file_bytes} bytes), cold open {open_p50:.4}s \
         ({speedup:.0}x vs re-ingest)"
    );

    // A flipped byte anywhere in a section payload must be rejected as a
    // ValidationReport, never served.
    let mut corrupt = std::fs::read(&path).expect("read store file");
    let at = corrupt.len() / 2;
    corrupt[at] ^= 0x40;
    let bad = std::env::temp_dir().join(format!("medkb-bench-store-bad-{}.bin", std::process::id()));
    std::fs::write(&bad, &corrupt).expect("write corrupted file");
    match WorldStore::open(&bad) {
        Err(medkb_types::MedKbError::Validation(report)) => {
            assert!(!report.is_empty(), "corruption rejection must name a defect")
        }
        other => panic!("corrupted store must be rejected, got {other:?}"),
    }
    let _ = std::fs::remove_file(&bad);
    let _ = std::fs::remove_file(&path);

    // Bit-identity of the opened copy: structural equality on the heavy
    // components, then answer equality over 8 flagged queries.
    assert_eq!(opened.mappings, out.mappings, "mappings diverged through the store");
    assert_eq!(opened.freqs, out.freqs, "frequency tables diverged through the store");
    assert_eq!(opened.reach, out.reach, "reachability index diverged through the store");
    assert!(opened.ekg == out.ekg, "ekg diverged through the store");
    let reach_bytes = out.reach.memory_bytes();
    let dense_bytes = out.reach.dense_equivalent_bytes();
    let exception_sets = out.reach.exception_set_count();
    let queries: Vec<ExtConceptId> = world
        .terminology
        .of_hierarchy_below(medkb_snomed::Hierarchy::ClinicalFinding, 3)
        .into_iter()
        .filter(|c| out.flagged.contains(c))
        .take(8)
        .collect();
    assert!(!queries.is_empty(), "store bench world has no flagged queries");
    let context = out
        .contexts
        .iter()
        .find(|s| s.label == "Indication-hasFinding-Finding")
        .expect("treatment context")
        .id;
    let plain = QueryRelaxer::new(out, cfg.clone());
    let from_store = QueryRelaxer::new(opened, cfg);
    for &q in &queries {
        let want = plain.relax_concept(q, Some(context), k).expect("relax");
        let got = from_store.relax_concept(q, Some(context), k).expect("relax from store");
        assert_eq!(got, want, "store-opened answers diverged");
    }
    eprintln!("[bench_json] store round-trip bit-identity OK ({} queries)", queries.len());

    let hybrid_ratio = dense_bytes as f64 / reach_bytes.max(1) as f64;
    if !quick && scale >= 350_000 {
        // Acceptance criteria (ISSUE 7) are gated at full SNOMED scale.
        assert!(
            speedup >= 100.0,
            "cold open {open_p50:.3}s not ≥100x faster than re-ingest {reingest_p50:.3}s"
        );
        assert!(
            reach_bytes * 20 < dense_bytes,
            "hybrid reach {reach_bytes}B not < 1/20 of dense {dense_bytes}B"
        );
    }

    let mapping_label = if quick { "exact" } else { "embedding" };
    let json = format!(
        "{{\n  \"re_ingest_p50_s\": {reingest_p50:.4},\n  \
         \"counts_p50_s\": {counts_p50:.4},\n  \
         \"train_p50_s\": {train_p50:.4},\n  \
         \"mapping\": \"{mapping_label}\",\n  \
         \"save_s\": {save_s:.4},\n  \
         \"cold_open_p50_s\": {open_p50:.4},\n  \
         \"cold_open_speedup\": {speedup:.1},\n  \
         \"file_bytes\": {file_bytes},\n  \
         \"reach_memory_bytes\": {reach_bytes},\n  \
         \"reach_dense_equivalent_bytes\": {dense_bytes},\n  \
         \"reach_dense_over_hybrid\": {hybrid_ratio:.1},\n  \
         \"reach_exception_sets\": {exception_sets},\n  \
         \"queries_checked\": {},\n  \"reps\": {reps},\n  \
         \"world_concepts\": {scale},\n  \
         \"ekg_concepts\": {},\n  \
         \"instances\": {},\n  \"docs\": {}\n}}\n",
        queries.len(),
        ekg.len(),
        world.kb.instance_count(),
        corpus.len(),
    );
    if quick {
        eprintln!("[bench_json] --quick: skipping BENCH_store.json write");
    } else {
        let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
        std::fs::write(out_path, &json).expect("write BENCH_store.json");
        eprintln!("[bench_json] wrote {out_path}");
    }
    println!("{json}");
}

/// Incremental-ingestion benchmark (`--delta`): document deltas of size
/// 1/10/100/1000 through [`medkb_core::DeltaEngine::apply`] against the
/// full re-ingest each one replaces, plus the cache-invalidation cost a
/// delta publish imposes on a zipf-distributed query stream.
///
/// The baseline is a full re-ingest of the **mutated** inputs with the
/// same frozen SIF model the engine holds — so the measured pair is the
/// honest either/or a server faces on a corpus update, and the baseline
/// output doubles as the bit-identity oracle (`outputs_identical`). The
/// with-training number (what a restart without a persisted model would
/// pay) is recorded separately. Delta documents are clones of existing
/// corpus documents, so their tokens are vocab-stable and the bench
/// exercises the incremental recount path, not the full-recount fallback
/// — pinned in-run by `delta.fallback_full_rebuilds == 0`.
fn run_delta_bench(quick: bool, scale: usize) {
    use medkb_core::delta::obs_names as dn;
    use medkb_core::{outputs_identical, Delta, DeltaEngine, DeltaOp};
    use medkb_serve::{RelaxServer, ServeConfig, ServedFrom};

    let reps = if quick {
        2
    } else if scale > 100_000 {
        3
    } else {
        5
    };
    let k = 10usize;
    eprintln!("[bench_json] building {scale}-concept delta-bench inputs…");
    let t_build = Instant::now();
    let (world, corpus) = scaled_world_and_corpus(scale);
    eprintln!("[bench_json] world + corpus built in {:.1}s", t_build.elapsed().as_secs_f64());
    let base = if quick {
        RelaxConfig { mapping: medkb_core::MappingMethod::Exact, ..RelaxConfig::default() }
    } else {
        RelaxConfig::default() // embedding matcher: the production pipeline
    };

    // Train the embedding model once and freeze it: deltas never retrain
    // (DESIGN.md §15), so both sides of the comparison share one model.
    let t_train = Instant::now();
    let sif = if quick {
        None
    } else {
        let sgns =
            medkb_embed::SgnsConfig { seed: 55, epochs: 4, ..medkb_embed::SgnsConfig::default() };
        let wv = medkb_embed::WordVectors::train(&corpus, &sgns);
        Some(Arc::new(medkb_embed::SifModel::fit(wv, &corpus, 1e-3)))
    };
    let train_s = t_train.elapsed().as_secs_f64();

    let registry = Registry::shared();
    let cfg_obs = RelaxConfig { obs: ObsConfig::with_registry(Arc::clone(&registry)), ..base.clone() };
    let t_engine = Instant::now();
    let mut engine = DeltaEngine::new(
        world.kb.clone(),
        corpus,
        world.terminology.ekg.clone(),
        sif.clone(),
        cfg_obs,
    )
    .expect("delta engine build");
    let engine_build_s = t_engine.elapsed().as_secs_f64();
    eprintln!("[bench_json] trained in {train_s:.1}s, engine built in {engine_build_s:.1}s");

    // A size-`docs` delta whose documents are clones of existing corpus
    // documents (vocab-stable by construction).
    let doc_delta = |engine: &DeltaEngine, docs: usize, seed: usize| -> Delta {
        let corpus = engine.corpus();
        let n = corpus.docs.len();
        let ops = (0..docs)
            .map(|i| {
                let doc = &corpus.docs[(seed + i * 7919) % n];
                let sentences = doc
                    .sentences
                    .iter()
                    .map(|s| {
                        let words = s
                            .tokens
                            .iter()
                            .map(|&tok| corpus.vocab.resolve(tok).to_string())
                            .collect();
                        (s.tag, words)
                    })
                    .collect();
                DeltaOp::AddDocument { sentences }
            })
            .collect();
        Delta::new(ops)
    };

    // Baseline: full re-ingest of the single-doc-mutated inputs, which is
    // also the bit-identity oracle for the applied delta.
    let delta = doc_delta(&engine, 1, 17);
    let inverse = engine.apply(&delta).expect("single-doc delta applies");
    let mut full_s = Vec::with_capacity(reps);
    let mut twin = None;
    for _ in 0..reps {
        let t = Instant::now();
        let counts = MentionCounts::count(engine.corpus(), engine.native_ekg());
        let out =
            medkb_core::ingest(engine.kb(), engine.native_ekg().clone(), &counts, sif.clone(), &base)
                .expect("full re-ingest of mutated inputs");
        full_s.push(t.elapsed().as_secs_f64());
        twin = Some(out);
    }
    let full_p50 = median(&mut full_s);
    assert!(
        outputs_identical(engine.output(), &twin.expect("at least one rep")),
        "delta-applied output diverged from a full re-ingest of the same inputs"
    );
    engine.apply(&inverse).expect("inverse restores the corpus");
    eprintln!(
        "[bench_json] full re-ingest of mutated inputs: {full_p50:.3}s \
         (bit-identity vs the applied delta OK)"
    );

    // Delta sizes: apply timed, revert via the engine-returned inverse so
    // every size starts from the same world.
    let mut rows = String::new();
    let mut single_doc_speedup = 0.0;
    for &docs in &[1usize, 10, 100, 1000] {
        let mut apply_s = Vec::with_capacity(reps);
        for rep in 0..reps {
            let delta = doc_delta(&engine, docs, 1 + docs * 31 + rep * 7);
            let t = Instant::now();
            let inverse = engine.apply(&delta).expect("doc delta applies");
            apply_s.push(t.elapsed().as_secs_f64());
            engine.apply(&inverse).expect("inverse applies");
        }
        let p50 = median(&mut apply_s);
        let speedup = full_p50 / p50;
        if docs == 1 {
            single_doc_speedup = speedup;
        }
        eprintln!(
            "[bench_json] delta of {docs} doc(s): apply p50 {p50:.4}s \
             ({speedup:.0}x vs full re-ingest)"
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"docs\": {docs}, \"apply_p50_s\": {p50:.6}, \
             \"speedup_vs_full_reingest\": {speedup:.1}}}"
        ));
    }

    // Vocab-stable document deltas must never trip the repair fallbacks:
    // reachability is untouched and the trie stays valid throughout.
    let snap = registry.snapshot();
    let fallbacks = snap.counter(dn::FALLBACK_FULL_REBUILDS);
    let full_recounts = snap.counter(dn::FULL_RECOUNTS);
    assert_eq!(fallbacks, 0, "document deltas must not fall back to reach rebuilds");
    assert_eq!(full_recounts, 0, "vocab-stable documents must recount incrementally");
    if !quick && scale >= 350_000 {
        // Acceptance criterion (ISSUE 8): a single-document delta lands
        // ≥50x faster than the full re-ingest it replaces, at SNOMED scale.
        assert!(
            single_doc_speedup >= 50.0,
            "single-doc delta speedup {single_doc_speedup:.1}x below the 50x floor"
        );
    }

    // Cache invalidation under a zipf stream (the serving-layer cost of a
    // publish): warm hits before, recompute-per-distinct-query after.
    let queries: Vec<ExtConceptId> = world
        .terminology
        .of_hierarchy_below(medkb_snomed::Hierarchy::ClinicalFinding, 3)
        .into_iter()
        .filter(|c| engine.output().flagged.contains(c))
        .take(32)
        .collect();
    assert!(!queries.is_empty(), "delta bench world has no flagged queries");
    let context = engine
        .output()
        .contexts
        .iter()
        .find(|s| s.label == "Indication-hasFinding-Finding")
        .expect("treatment context")
        .id;
    let stream = medkb_bench::zipf_query_stream(&queries, 256, 1.07, 0xD417);
    let distinct: std::collections::HashSet<ExtConceptId> = stream.iter().copied().collect();
    let server = RelaxServer::new(engine.output().clone(), base.clone(), ServeConfig::default());
    for &q in &stream {
        server.serve_concept(q, Some(context), k).expect("cache fill");
    }
    let mut warm_us = Vec::with_capacity(stream.len());
    for &q in &stream {
        let t = Instant::now();
        let served = server.serve_concept(q, Some(context), k).expect("warm serve");
        warm_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(served.served_from, ServedFrom::Cache, "warm stream must hit");
    }
    engine.apply(&doc_delta(&engine, 1, 53)).expect("publish delta applies");
    let t = Instant::now();
    let epoch = server.publish(engine.output().clone());
    let publish_us = t.elapsed().as_secs_f64() * 1e6;
    assert_eq!(epoch, 1);
    let mut post_us = Vec::with_capacity(stream.len());
    let mut recomputed = 0usize;
    for &q in &stream {
        let t = Instant::now();
        let served = server.serve_concept(q, Some(context), k).expect("post-publish serve");
        post_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(served.epoch, 1, "post-publish requests must see the new epoch");
        if served.served_from == ServedFrom::Computed {
            recomputed += 1;
        }
    }
    assert_eq!(
        recomputed,
        distinct.len(),
        "a publish must invalidate exactly once per distinct query"
    );
    let warm_p50 = median(&mut warm_us);
    let post_p50 = median(&mut post_us);
    eprintln!(
        "[bench_json] zipf stream: warm p50 {warm_p50:.2}µs, post-publish p50 {post_p50:.2}µs \
         ({recomputed}/{} distinct queries recomputed, publish {publish_us:.0}µs)",
        distinct.len()
    );

    let snap = registry.snapshot();
    let fallbacks = snap.counter(dn::FALLBACK_FULL_REBUILDS);
    let full_recounts = snap.counter(dn::FULL_RECOUNTS);
    assert_eq!(fallbacks, 0, "the publish delta must not regress the fallback counters");
    let applies = snap.counter(dn::APPLIES);
    let ops_applied = snap.counter(dn::OPS_APPLIED);
    let docs_recounted = snap.counter(dn::DOCS_RECOUNTED);
    let metrics_json = snap.to_json();
    assert!(validate_json(&metrics_json), "metrics snapshot must be valid JSON");
    let mapping_label = if quick { "exact" } else { "embedding" };
    let full_with_training = full_p50 + train_s;
    let json = format!(
        "{{\n  \"full_reingest_p50_s\": {full_p50:.4},\n  \
         \"full_reingest_with_training_s\": {full_with_training:.4},\n  \
         \"train_s\": {train_s:.4},\n  \
         \"engine_build_s\": {engine_build_s:.4},\n  \
         \"mapping\": \"{mapping_label}\",\n  \
         \"deltas\": [\n{rows}\n  ],\n  \
         \"single_doc_speedup\": {single_doc_speedup:.1},\n  \
         \"fallback_full_rebuilds\": {fallbacks},\n  \
         \"full_recounts\": {full_recounts},\n  \
         \"applies\": {applies},\n  \"ops_applied\": {ops_applied},\n  \
         \"docs_recounted\": {docs_recounted},\n  \
         \"zipf_invalidation\": {{\"stream_len\": {}, \"distinct_queries\": {}, \
         \"exponent\": 1.07, \"warm_p50_us\": {warm_p50:.2}, \
         \"post_publish_p50_us\": {post_p50:.2}, \"publish_us\": {publish_us:.1}, \
         \"recomputed\": {recomputed}}},\n  \
         \"queries\": {},\n  \"reps\": {reps},\n  \"k\": {k},\n  \
         \"world_concepts\": {scale},\n  \"docs\": {},\n  \
         \"metrics\": {metrics_json}\n}}\n",
        stream.len(),
        distinct.len(),
        queries.len(),
        engine.corpus().len(),
    );
    if quick {
        eprintln!("[bench_json] --quick: skipping BENCH_delta.json write");
    } else {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_delta.json");
        std::fs::write(out, &json).expect("write BENCH_delta.json");
        eprintln!("[bench_json] wrote {out}");
    }
    println!("{json}");
}

/// Federated multi-source benchmark (`--federated`): the SNOMED-like world
/// plus the GO-like stub as a second source over one shared KB (DESIGN.md
/// §17). Times the single-source baseline against the two-source
/// scatter/gather, each source's scatter in isolation, and records the
/// single-vs-multi coverage comparison. The §17 preservation invariant —
/// queries only the primary resolves return bit-identical answers from the
/// one-source and two-source registries — is asserted on every run,
/// including `--quick`.
fn run_federated_bench(quick: bool, scale: usize) {
    let k = 10usize;
    let reps = if quick { 2 } else { 5 };
    const PRIMARY: &str = "snomed-like";
    const SECONDARY: &str = "gene-ontology";

    eprintln!("[bench_json] building {scale}-concept federated world…");
    let t_build = Instant::now();
    let (mut world, corpus) = medkb_bench::scaled_world_and_corpus(scale);
    let go_ekg = medkb_snomed::go::generate(&medkb_snomed::go::GoConfig::default());
    // The shared KB: world instances plus one instance per queried GO term,
    // so the secondary source has mass to return.
    let finding = world
        .kb
        .ontology()
        .lookup_concept("Finding")
        .expect("world KB ontology defines Finding");
    let go_terms: Vec<String> =
        go_ekg.concepts().take(16).map(|c| go_ekg.name(c).to_string()).collect();
    for name in &go_terms {
        world.kb.add_instance(name, finding).expect("add GO instance");
    }

    // Ingest both sources against the same KB, instrumented so the JSON
    // carries the stage timers (the tier-1 smoke contract).
    let registry = Registry::shared();
    let ingest_cfg = RelaxConfig {
        mapping: MappingMethod::Exact,
        use_shortcuts: true,
        obs: ObsConfig::with_registry(Arc::clone(&registry)),
        ..RelaxConfig::default()
    };
    let run_cfg = RelaxConfig { obs: ObsConfig::default(), ..ingest_cfg.clone() };
    let counts_world = MentionCounts::count(&corpus, &world.terminology.ekg);
    let counts_go = MentionCounts::count(&corpus, &go_ekg);
    let out_world =
        ingest(&world.kb, world.terminology.ekg.clone(), &counts_world, None, &ingest_cfg)
            .expect("primary ingest");
    let out_go = ingest(&world.kb, go_ekg.clone(), &counts_go, None, &ingest_cfg)
        .expect("secondary ingest");
    eprintln!(
        "[bench_json] world built + both sources ingested in {:.1}s",
        t_build.elapsed().as_secs_f64()
    );

    let single = FederatedRelaxer::new(
        SourceRegistry::builder(run_cfg.clone())
            .register(PRIMARY, out_world.clone())
            .build()
            .expect("single-source registry"),
    );
    let federated = FederatedRelaxer::new(
        SourceRegistry::builder(run_cfg)
            .register(PRIMARY, out_world.clone())
            .register(SECONDARY, out_go)
            .build()
            .expect("two-source registry"),
    );
    let primary_id = federated.registry().id_of(PRIMARY).expect("primary registered");

    // Workload: 32 popular flagged condition terms (primary vocabulary)
    // plus the 16 GO terms (secondary vocabulary).
    let world_terms: Vec<String> = world
        .terminology
        .of_hierarchy_below(medkb_snomed::Hierarchy::ClinicalFinding, 3)
        .into_iter()
        .filter(|c| out_world.flagged.contains(c))
        .take(32)
        .map(|c| world.terminology.ekg.name(c).to_string())
        .collect();
    assert!(!world_terms.is_empty(), "no flagged condition terms in the world");
    let context = out_world
        .contexts
        .iter()
        .find(|s| s.label == "Indication-hasFinding-Finding")
        .expect("treatment context")
        .id;

    // —— §17 preservation invariant (always on, --quick included) ——
    let mut pinned = 0usize;
    for term in &world_terms {
        if federated.plan(term, Some(context)).eligible.len() != 1 {
            continue; // vocabulary collision with the GO stub: skip the pin
        }
        let a = single.relax(term, Some(context), k).expect("single-source relax");
        let b = federated.relax(term, Some(context), k).expect("federated relax");
        assert_eq!(a.answers.len(), b.answers.len(), "{term}: answer count diverged");
        for (x, y) in a.answers.iter().zip(&b.answers) {
            assert_eq!(x.concept, y.concept, "{term}: concept diverged");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{term}: score bits diverged");
            assert_eq!(
                x.norm_score.to_bits(),
                y.norm_score.to_bits(),
                "{term}: norm bits diverged"
            );
            assert_eq!(x.hops, y.hops, "{term}: hops diverged");
            assert_eq!(x.instances, y.instances, "{term}: instances diverged");
        }
        pinned += 1;
    }
    assert!(pinned > 0, "no primary-only query to pin the invariant on");
    eprintln!(
        "[bench_json] federated: {pinned}/{} primary-only world queries bit-identical \
         single-source vs federated",
        world_terms.len()
    );

    // —— Latency: single-source baseline vs federated scatter/gather ——
    let time_terms = |relaxer: &FederatedRelaxer,
                      terms: &[String],
                      ctx: Option<medkb_types::ContextId>|
     -> Vec<f64> {
        let mut us = Vec::with_capacity(terms.len() * reps);
        for _ in 0..reps {
            for term in terms {
                let t = Instant::now();
                relaxer.relax(term, ctx, k).expect("relax succeeds");
                us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        us
    };
    let mut single_us = time_terms(&single, &world_terms, Some(context));
    let mut fed_us = time_terms(&federated, &world_terms, Some(context));
    let single_p50 = median(&mut single_us);
    let fed_p50 = median(&mut fed_us);
    let fed_p99 = percentile(&mut fed_us, 99.0);

    // Per-source scatter latency: each source pinned in isolation on the
    // queries its vocabulary resolves.
    let scatter_row = |name: &str, terms: &[String], ctx: Option<medkb_types::ContextId>| {
        let mut us = Vec::with_capacity(terms.len() * reps);
        let mut answers = 0usize;
        for _ in 0..reps {
            for term in terms {
                let t = Instant::now();
                let r = federated.relax_in(name, term, ctx, k).expect("pinned relax");
                us.push(t.elapsed().as_secs_f64() * 1e6);
                answers += r.answers.len();
            }
        }
        let p50 = median(&mut us);
        let p99 = percentile(&mut us, 99.0);
        let mean_answers = answers as f64 / (terms.len() * reps).max(1) as f64;
        eprintln!(
            "[bench_json] federated: {name} scatter p50 {p50:.1}µs p99 {p99:.1}µs, \
             {mean_answers:.1} answers/query"
        );
        format!(
            "{{\"source\": \"{name}\", \"queries\": {}, \"scatter_p50_us\": {p50:.2}, \
             \"scatter_p99_us\": {p99:.2}, \"mean_answers\": {mean_answers:.2}}}",
            terms.len()
        )
    };
    let primary_row = scatter_row(PRIMARY, &world_terms, Some(context));
    let secondary_row = scatter_row(SECONDARY, &go_terms, None);

    // —— Single-vs-multi answer quality: coverage over the mixed workload ——
    let mixed: Vec<(&String, Option<medkb_types::ContextId>)> = world_terms
        .iter()
        .map(|t| (t, Some(context)))
        .chain(go_terms.iter().map(|t| (t, None)))
        .collect();
    let coverage = |relaxer: &FederatedRelaxer| -> (usize, usize, usize) {
        let (mut answered, mut total_answers, mut secondary) = (0usize, 0usize, 0usize);
        for (term, ctx) in &mixed {
            let Ok(res) = relaxer.relax(term, *ctx, k) else { continue };
            if res.answers.is_empty() {
                continue;
            }
            answered += 1;
            total_answers += res.answers.len();
            secondary += res.answers.iter().filter(|a| a.source != primary_id).count();
        }
        (answered, total_answers, secondary)
    };
    let (answered_single, answers_single, _) = coverage(&single);
    let (answered_fed, answers_fed, secondary_answers) = coverage(&federated);
    assert!(
        answered_fed > answered_single,
        "federation must answer queries the single source cannot \
         ({answered_fed} vs {answered_single})"
    );
    let go_answered = go_terms
        .iter()
        .filter(|t| federated.relax(t, None, k).map(|r| !r.answers.is_empty()).unwrap_or(false))
        .count();
    assert!(go_answered > 0, "the GO source must answer GO-vocabulary queries");
    let secondary_share = 100.0 * secondary_answers as f64 / answers_fed.max(1) as f64;
    eprintln!(
        "[bench_json] federated: coverage {answered_single}/{} single-source, \
         {answered_fed}/{} federated ({go_answered}/{} GO terms), secondary share \
         {secondary_share:.1}%",
        mixed.len(),
        mixed.len(),
        go_terms.len()
    );
    eprintln!(
        "[bench_json] federated: single p50 {single_p50:.1}µs, federated p50 {fed_p50:.1}µs \
         (primary-only queries)"
    );

    // Merged top-k provenance rows: the first GO query's merged answers,
    // with per-source scatter metadata from the same call.
    let sample_term = &go_terms[0];
    let sample = federated.relax(sample_term, None, k).expect("sample relax");
    let merged_rows: Vec<String> = sample
        .answers
        .iter()
        .map(|a| {
            format!(
                "{{\"source\": \"{}\", \"concept\": {}, \"score\": {:.6}, \
                 \"norm_score\": {:.6}, \"hops\": {}, \"instances\": {}}}",
                federated.registry().source(a.source).name(),
                a.concept.as_usize(),
                a.score,
                a.norm_score,
                a.hops,
                a.instances.len()
            )
        })
        .collect();
    let scatter_rows: Vec<String> = sample
        .scatter
        .iter()
        .map(|s| {
            format!(
                "{{\"source\": \"{}\", \"radius_used\": {}, \"answers_found\": {}, \
                 \"source_max\": {:.6}}}",
                federated.registry().source(s.source).name(),
                s.radius_used,
                s.answers_found,
                s.source_max
            )
        })
        .collect();

    let snap = registry.snapshot();
    let metrics_json = snap.to_json();
    assert!(validate_json(&metrics_json), "metrics snapshot must be valid JSON");

    let json = format!(
        "{{\n  \"single_source_p50_us\": {single_p50:.2},\n  \
         \"federated_p50_us\": {fed_p50:.2},\n  \
         \"federated_p99_us\": {fed_p99:.2},\n  \
         \"bit_identical_queries\": {pinned},\n  \
         \"sources\": [\n    {primary_row},\n    {secondary_row}\n  ],\n  \
         \"coverage\": {{\"workload\": {}, \"answered_single\": {answered_single}, \
         \"answered_federated\": {answered_fed}, \"go_terms\": {}, \
         \"go_answered_federated\": {go_answered}, \
         \"secondary_share_pct\": {secondary_share:.2}, \
         \"mean_answers_single\": {:.2}, \"mean_answers_federated\": {:.2}}},\n  \
         \"merged_topk_sample\": {{\"term\": \"{sample_term}\", \"scatter\": [{}], \
         \"answers\": [{}]}},\n  \
         \"k\": {k},\n  \"reps\": {reps},\n  \
         \"world_concepts\": {scale},\n  \"go_concepts\": {},\n  \
         \"metrics\": {metrics_json}\n}}\n",
        mixed.len(),
        go_terms.len(),
        answers_single as f64 / answered_single.max(1) as f64,
        answers_fed as f64 / answered_fed.max(1) as f64,
        scatter_rows.join(", "),
        merged_rows.join(", "),
        go_ekg.len(),
    );
    if quick {
        eprintln!("[bench_json] --quick: skipping BENCH_federated.json write");
    } else {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_federated.json");
        std::fs::write(out, &json).expect("write BENCH_federated.json");
        eprintln!("[bench_json] wrote {out}");
    }
    println!("{json}");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = world_scale_from_args();
    if std::env::args().any(|a| a == "--ingest") {
        run_ingest_bench(quick, scale);
        return;
    }
    if std::env::args().any(|a| a == "--serve") {
        run_serve_bench(quick, scale);
        return;
    }
    if std::env::args().any(|a| a == "--store") {
        run_store_bench(quick, scale);
        return;
    }
    if std::env::args().any(|a| a == "--delta") {
        run_delta_bench(quick, scale);
        return;
    }
    if std::env::args().any(|a| a == "--federated") {
        run_federated_bench(quick, scale);
        return;
    }
    let radius = 4u32;
    let k = 10usize;
    let reps = if quick { 2 } else { 5 };

    eprintln!("[bench_json] building {scale}-concept benchmark world…");
    let t_build = Instant::now();
    let RelaxBenchWorld { relaxer, queries, context } = scaled_relaxation_bench_world(scale);
    eprintln!("[bench_json] world built + ingested in {:.1}s", t_build.elapsed().as_secs_f64());
    let mut cfg = relaxer.config().clone();
    cfg.radius = radius;
    cfg.dynamic_radius = false;
    let relaxer = QueryRelaxer::new(relaxer.ingested().clone(), cfg);

    let candidates: Vec<usize> = queries
        .iter()
        .map(|&q| {
            relaxer
                .ingested()
                .ekg
                .neighborhood(q, radius, relaxer.ingested().shortcuts.list())
                .into_iter()
                .filter(|(c, _)| *c != q && relaxer.ingested().flagged.contains(c))
                .count()
        })
        .collect();
    let candidates_mean =
        candidates.iter().sum::<usize>() as f64 / candidates.len().max(1) as f64;

    // An instrumented twin of the engine over the same ingestion: used to
    // measure the cost of metrics recording and to snapshot the engine
    // counters for the JSON output.
    let registry = Registry::shared();
    let cfg_obs = RelaxConfig {
        obs: ObsConfig::with_registry(Arc::clone(&registry)),
        ..relaxer.config().clone()
    };
    let relaxer_obs = QueryRelaxer::new(relaxer.ingested().clone(), cfg_obs);

    // Warm up every path once. The plain and instrumented engines then
    // alternate one pass each per repetition, so host speed drift lands on
    // both sides of `obs_overhead_pct` instead of reading as overhead.
    time_queries(&relaxer, &queries, context, k, 1, true);
    time_queries(&relaxer, &queries, context, k, 1, false);
    time_queries(&relaxer_obs, &queries, context, k, 1, false);
    let mut reference_us = time_queries(&relaxer, &queries, context, k, reps, true);
    let (mut scoped_us, mut obs_us) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        scoped_us.extend(time_queries(&relaxer, &queries, context, k, 1, false));
        obs_us.extend(time_queries(&relaxer_obs, &queries, context, k, 1, false));
    }

    let t_batch = Instant::now();
    let batch: Vec<(ExtConceptId, Option<medkb_types::ContextId>)> =
        queries.iter().map(|&q| (q, Some(context))).collect();
    for _ in 0..reps {
        for res in relaxer.relax_concepts_batch(&batch, k) {
            res.expect("batch relaxation succeeds");
        }
    }
    let batch_us_per_query =
        t_batch.elapsed().as_secs_f64() * 1e6 / (queries.len() * reps) as f64;
    // One instrumented batch pass so shard-utilization metrics land in the
    // snapshot (results must match the plain engine's).
    for (res, plain) in relaxer_obs
        .relax_concepts_batch(&batch, k)
        .into_iter()
        .zip(relaxer.relax_concepts_batch(&batch, k))
    {
        assert_eq!(
            res.expect("instrumented batch"),
            plain.expect("plain batch"),
            "instrumentation changed a result"
        );
    }

    let reference_median = median(&mut reference_us);
    let reference_p99 = percentile(&mut reference_us, 99.0);
    let scoped_median = median(&mut scoped_us);
    let scoped_p99 = percentile(&mut scoped_us, 99.0);
    let obs_median = median(&mut obs_us);
    let speedup = reference_median / scoped_median;
    let obs_overhead_pct = (obs_median / scoped_median - 1.0) * 100.0;
    eprintln!(
        "[bench_json] scoped p50 {scoped_median:.1}µs / p99 {scoped_p99:.1}µs, \
         instrumented {obs_median:.1}µs ({obs_overhead_pct:+.2}% overhead)"
    );

    // Smoke contract: the snapshot parses as JSON and every engine metric
    // is present with plausible totals.
    let snap = registry.snapshot();
    let metrics_json = snap.to_json();
    assert!(validate_json(&metrics_json), "metrics snapshot must be valid JSON");
    use medkb_core::relax::obs_names as rn;
    for name in [rn::QUERIES, rn::CANDIDATES_SCANNED, rn::CANDIDATES_KEPT, rn::LCS_EVALS] {
        assert!(snap.counter(name) > 0, "engine counter missing or zero: {name}");
    }
    assert!(snap.histogram_count(rn::LATENCY_US) > 0, "latency histogram empty");
    assert!(snap.counter(rn::BATCH_SHARDS) > 0, "batch shard counter empty");

    // Score-bounded pruning accounting (DESIGN.md §13): every kept
    // candidate was either LCS-evaluated or skipped on its upper bound, and
    // the default configuration must actually save evaluations.
    let lcs_evals = snap.counter(rn::LCS_EVALS);
    let bound_skips = snap.counter(rn::BOUND_SKIPS);
    let rings_terminated = snap.counter(rn::RINGS_TERMINATED);
    assert_eq!(
        lcs_evals + bound_skips,
        snap.counter(rn::CANDIDATES_KEPT),
        "kept candidates must split into evals + bound skips"
    );
    let lcs_evals_saved_pct = 100.0 * bound_skips as f64 / (lcs_evals + bound_skips).max(1) as f64;
    eprintln!(
        "[bench_json] lcs evals {lcs_evals}, bound skips {bound_skips} \
         ({lcs_evals_saved_pct:.1}% saved), rings terminated {rings_terminated}"
    );
    assert!(bound_skips > 0, "default workload must skip some LCS evals via bounds");

    let json = format!(
        "{{\n  \"median_us_per_query\": {scoped_median:.2},\n  \
         \"p50_us_per_query\": {scoped_median:.2},\n  \
         \"p99_us_per_query\": {scoped_p99:.2},\n  \
         \"reference_median_us_per_query\": {reference_median:.2},\n  \
         \"reference_p99_us_per_query\": {reference_p99:.2},\n  \
         \"speedup_vs_reference\": {speedup:.2},\n  \
         \"batch_us_per_query\": {batch_us_per_query:.2},\n  \
         \"obs_median_us_per_query\": {obs_median:.2},\n  \
         \"obs_overhead_pct\": {obs_overhead_pct:.2},\n  \
         \"lcs_evals\": {lcs_evals},\n  \
         \"lcs_bound_skips\": {bound_skips},\n  \
         \"lcs_evals_saved_pct\": {lcs_evals_saved_pct:.2},\n  \
         \"rings_terminated\": {rings_terminated},\n  \
         \"queries\": {},\n  \"reps\": {reps},\n  \
         \"candidates_mean\": {candidates_mean:.2},\n  \
         \"radius\": {radius},\n  \"k\": {k},\n  \
         \"world_concepts\": {scale},\n  \
         \"metrics\": {metrics_json}\n}}\n",
        queries.len()
    );
    if quick {
        eprintln!("[bench_json] --quick: skipping BENCH_relax.json write");
    } else {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_relax.json");
        std::fs::write(out, &json).expect("write BENCH_relax.json");
        eprintln!("[bench_json] wrote {out}");
    }
    println!("{json}");
}
