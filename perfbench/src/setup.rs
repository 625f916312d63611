//! Set-up: the paper-scale world from generation to a listening HTTP
//! front end, with every stage timed from outside the crates.
//!
//! Every workload goes through the same path, so `setup_s` means the same
//! thing everywhere:
//!
//! `scaled_world_and_corpus` → `MentionCounts::count_with_threads` →
//! `ingest_with_stats` → `WorldStore::save` → `WorldStore::open` →
//! `DeltaEngine::from_opened` → `RelaxServer::new` → `HttpServer::start`.
//!
//! World generation runs once. The rest is repeated [`SETUP_REPS`] times and
//! `setup_s` is generation plus the median repetition, so one slow
//! repetition does not move the figure.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use medkb_core::{ingest_with_stats, DeltaEngine, MappingMethod, ObsConfig, RelaxConfig};
use medkb_corpus::MentionCounts;
use medkb_obs::Registry;
use medkb_serve::{HttpConfig, HttpServer, RelaxServer, ServeConfig};
use medkb_snomed::Hierarchy;
use medkb_store::WorldStore;
use medkb_types::{ContextId, ExtConceptId};

use crate::stats;
use crate::trace::{Clock, Span};

/// Concepts in the generated world: SNOMED CT's size.
pub const WORLD_CONCEPTS: usize = 350_000;
/// Repetitions of the post-generation set-up.
pub const SETUP_REPS: usize = 2;
/// Hot queries: the popular flagged clinical findings (the BENCH_http set).
pub const HOT_QUERIES: usize = 32;
/// Queries of the miss-heavy catalog: the stream's set, then as many
/// held back that the stream never sends (the traced run attributes
/// layers on those, so they are uncached).
pub const MISS_QUERIES: usize = 4096;
/// Distinct queries the miss-heavy stream sends: the first half of the
/// catalog.
pub const MISS_STREAM: usize = MISS_QUERIES / 2;
/// The treatment context every request carries.
const CONTEXT_LABEL: &str = "Indication-hasFinding-Finding";

/// Wall time of each set-up stage, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// World + corpus generation (once).
    pub generate_s: f64,
    /// Mention counting.
    pub count_s: f64,
    /// `IngestStats` stages.
    pub mapping_s: f64,
    /// Reachability build.
    pub reach_s: f64,
    /// Frequency tables.
    pub freqs_s: f64,
    /// Shortcut discovery.
    pub shortcuts_s: f64,
    /// `WorldStore::save`.
    pub save_s: f64,
    /// `WorldStore::open`.
    pub open_s: f64,
    /// `DeltaEngine::from_opened`.
    pub engine_s: f64,
    /// `RelaxServer::new`.
    pub build_s: f64,
    /// `HttpServer::start`.
    pub http_s: f64,
    /// Each repetition's wall time (count through HTTP start).
    pub reps_s: Vec<f64>,
}

impl SetupTimes {
    /// Generation plus the median repetition.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + stats::median(&stats::sorted(self.reps_s.clone())).unwrap_or(0.0)
    }
}

/// A served world plus the handles the workloads drive it through.
pub struct World {
    /// The writer's incremental-ingestion engine (adopted from the store).
    pub engine: DeltaEngine,
    /// The serving layer behind the HTTP front end.
    pub server: Arc<RelaxServer>,
    /// The listening front end.
    pub http: HttpServer,
    /// Relaxation config without observability (in-process checks).
    pub config: RelaxConfig,
    /// The hot query set (the `delta_publish` reader's stream).
    pub hot: Vec<ExtConceptId>,
    /// The `wire_miss` catalog: the stream's set, then the held-back half.
    pub miss: Vec<ExtConceptId>,
    /// The treatment context.
    pub context: ContextId,
    /// Stage timings.
    pub times: SetupTimes,
}

/// The relaxation config every workload serves: exact mapping (the
/// embedding pipeline costs ~300 s of set-up at this scale) and the
/// strip-modifiers fallback, so terms with a leading modifier resolve.
pub fn relax_config() -> RelaxConfig {
    RelaxConfig {
        mapping: MappingMethod::Exact,
        strip_modifiers: true,
        ..RelaxConfig::default()
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Build the world and start serving it. `store_dir` receives the world
/// image (removed again once opened).
pub fn build(
    serve_config: ServeConfig,
    registry: Option<Arc<Registry>>,
    store_dir: &Path,
    clock: &Clock,
    mut spans: Option<&mut Vec<Span>>,
) -> World {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let config = relax_config();
    let served_config = RelaxConfig {
        obs: registry
            .clone()
            .map(ObsConfig::with_registry)
            .unwrap_or_default(),
        ..config.clone()
    };
    let mut times = SetupTimes::default();

    let root_start = clock.now_ns();
    let root = clock.next_id();
    let stage = |spans: &mut Option<&mut Vec<Span>>, name, start: u64| {
        clock.record(
            spans.as_deref_mut(),
            name,
            Some(root),
            0,
            start,
            clock.now_ns(),
        );
    };

    let t0 = clock.now_ns();
    let t = Instant::now();
    let (world, corpus) = medkb_bench::scaled_world_and_corpus(WORLD_CONCEPTS);
    times.generate_s = secs(t);
    stage(&mut spans, "setup.generate", t0);
    let findings = world
        .terminology
        .of_hierarchy_below(Hierarchy::ClinicalFinding, 3);

    let path: PathBuf = store_dir.join(format!("world-{}.medkb", std::process::id()));
    let mut inputs = Some((world.kb, corpus, world.terminology.ekg));
    let mut built: Option<(DeltaEngine, Arc<RelaxServer>, HttpServer, Vec<ExtConceptId>)> = None;
    for rep in 0..SETUP_REPS {
        // Tear the previous repetition down first, so peak memory is one
        // world's worth, not two.
        drop(built.take());
        // Earlier repetitions work on copies; the last one consumes the
        // inputs. Copying is scaffolding and stays untimed.
        let (kb, corpus_in, ekg) = if rep + 1 == SETUP_REPS {
            inputs.take().expect("inputs outlive the repetitions")
        } else {
            let (kb, corpus, ekg) = inputs.as_ref().expect("inputs outlive the repetitions");
            (kb.clone(), corpus.clone(), ekg.clone())
        };
        let ekg_in = ekg.clone();
        let rep_start = Instant::now();

        let t0 = clock.now_ns();
        let t = Instant::now();
        let counts = MentionCounts::count_with_threads(&corpus_in, &ekg, threads);
        times.count_s = secs(t);
        stage(&mut spans, "setup.count", t0);

        let t0 = clock.now_ns();
        let (out, stats) = ingest_with_stats(&kb, ekg_in, &counts, None, &config)
            .expect("ingest of the generated world");
        stage(&mut spans, "setup.ingest", t0);
        times.mapping_s = stats.mapping_s;
        times.reach_s = stats.reach_s;
        times.freqs_s = stats.freqs_s;
        times.shortcuts_s = stats.shortcuts_s;
        drop(counts);

        let t0 = clock.now_ns();
        let t = Instant::now();
        WorldStore::save(&out, &path).expect("store save");
        times.save_s = secs(t);
        stage(&mut spans, "store.save", t0);

        let t0 = clock.now_ns();
        let t = Instant::now();
        let opened = WorldStore::open(&path).expect("store open");
        times.open_s = secs(t);
        stage(&mut spans, "store.open", t0);
        let _ = std::fs::remove_file(&path);

        let t0 = clock.now_ns();
        let t = Instant::now();
        let engine =
            DeltaEngine::from_opened(kb, corpus_in, ekg, None, served_config.clone(), opened);
        times.engine_s = secs(t);
        stage(&mut spans, "delta.from_opened", t0);

        let served_set: Vec<ExtConceptId> = findings
            .iter()
            .copied()
            .filter(|c| out.flagged.contains(c))
            .collect();

        let t0 = clock.now_ns();
        let t = Instant::now();
        let server = Arc::new(RelaxServer::new(out, served_config.clone(), serve_config));
        times.build_s = secs(t);
        stage(&mut spans, "serve.build", t0);

        let t0 = clock.now_ns();
        let t = Instant::now();
        let http = HttpServer::start(Arc::clone(&server), registry.clone(), HttpConfig::default())
            .expect("bind the HTTP front end on loopback");
        times.http_s = secs(t);
        stage(&mut spans, "http.start", t0);

        times.reps_s.push(secs(rep_start));
        built = Some((engine, server, http, served_set));
    }
    clock.record(spans, "setup", None, 0, root_start, clock.now_ns());
    let (engine, server, http, findings) = built.expect("at least one set-up repetition");

    let context = engine
        .output()
        .contexts
        .iter()
        .find(|s| s.label == CONTEXT_LABEL)
        .expect("treatment context")
        .id;
    assert!(
        findings.len() >= MISS_QUERIES,
        "{} flagged clinical findings, the miss stream needs {MISS_QUERIES}",
        findings.len()
    );
    let hot = findings[..HOT_QUERIES].to_vec();
    // Evenly spaced over the whole flagged set, so the miss stream's cost
    // mix is the world's, not one corner of the hierarchy: the even slots
    // are the stream's set and the odd ones are held back.
    let miss = (0..2)
        .flat_map(|odd| (odd..MISS_QUERIES).step_by(2))
        .map(|i| findings[i * findings.len() / MISS_QUERIES])
        .collect();
    World {
        engine,
        server,
        http,
        config,
        hot,
        miss,
        context,
        times,
    }
}
