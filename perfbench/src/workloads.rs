//! The workloads, their exercise asserts, answer checks, and the traced
//! run's attribution of wire time to layers.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use medkb_core::{Delta, DeltaEngine, DeltaOp, QueryRelaxer};
use medkb_corpus::Corpus;
use medkb_obs::{MetricsSnapshot, Registry};
use medkb_serve::http::{
    render_relaxation, render_serve_result, CoalesceConfig, Coalescer, ParseLimits, RateLimiter,
    RequestParser, Router,
};
use medkb_serve::{HttpConfig, HttpServer, RelaxServer, ServeConfig, ServedFrom};
use medkb_types::{ContextId, ExtConceptId};

use crate::load::{self, Catalog, Driven, Lane, Sample, Served, Window, K};
use crate::setup::{self, World};
use crate::stats;
use crate::stream;
use crate::trace::{Clock, Span};
use crate::wire::{self, Conn};

/// Client connections (and client threads) of every workload. With two,
/// the client, connection and coalescer threads outnumbered the 2-core
/// reference box's cores and the tail measured the scheduler.
pub const CONNECTIONS: usize = 1;
/// Cache capacity of `wire_miss`: 16 shards × 16 = 256 entries, 1/8 of its
/// distinct queries.
const MISS_CACHE: ServeConfig = ServeConfig {
    shards: 16,
    shard_capacity: 16,
    max_in_flight: 1024,
    deadline: None,
};
/// The `delta_publish` writer waits this long after each publish before it
/// applies the next delta: about one publish every 2.5 s on the reference
/// box. The reader's recomputes after a publish then run beside a quiet
/// writer and are about 4% of its requests, so its p90 is a cache hit and
/// not a recompute, whose time follows the shared host's CPU speed.
const PUBLISH_GAP: Duration = Duration::from_secs(2);
/// Requests attributed layer by layer in a traced run.
const ATTRIBUTED: usize = 128;
/// Interleaved traced/untraced segment pairs for the tracing overhead.
const OVERHEAD_PAIRS: usize = 3;
/// Length of one overhead segment.
const OVERHEAD_SEGMENT_S: f64 = 1.0;
/// The attributed layers' mean self times must sum to the mean wire
/// round trip within this share of it.
pub const RECONCILE_TOLERANCE_PCT: f64 = 15.0;
/// Lane length: longer than any window needs, so streams never wrap.
const LANE_LEN: usize = 1 << 16;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf over 32 hot queries; every request hits after warm-up.
    WireHot,
    /// Whole passes over 2048 queries, each once per pass in a seeded
    /// order, against a 256-entry cache.
    WireMiss,
    /// Deltas applied and published about every 2.5 s beside a reader of
    /// the hot stream (zipf over 32 queries).
    DeltaPublish,
}

impl Workload {
    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "wire_hot" => Some(Self::WireHot),
            "wire_miss" => Some(Self::WireMiss),
            "delta_publish" => Some(Self::DeltaPublish),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Self::WireHot => "wire_hot",
            Self::WireMiss => "wire_miss",
            Self::DeltaPublish => "delta_publish",
        }
    }

    fn serve_config(self) -> ServeConfig {
        match self {
            Self::WireMiss => MISS_CACHE,
            Self::WireHot | Self::DeltaPublish => ServeConfig::default(),
        }
    }

    /// One lane per connection. `n` is the hot stream's query count.
    fn lanes(self, n: usize, seed: u64, round: u64) -> Vec<Lane> {
        (0..CONNECTIONS as u64)
            .map(|c| {
                let lane_seed = stream::sub_seed(seed, 1000 * round + c);
                match self {
                    Self::WireMiss => Lane::shuffled(setup::MISS_STREAM, lane_seed),
                    Self::WireHot | Self::DeltaPublish => Lane::zipf(n, LANE_LEN, lane_seed),
                }
            })
            .collect()
    }
}

/// Metric name → (value, unit), in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Run metadata: name → JSON value.
pub type Meta = BTreeMap<&'static str, String>;

/// What one run produced.
pub struct Outcome {
    /// Every answer checked out and every exercise assert held.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Non-200s, transport errors and wrong answers.
    pub failed: u64,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Metrics,
    /// Run metadata: sample counts, configuration, reasons for failure.
    pub meta: Meta,
    /// The traced run's spans.
    pub spans: Vec<Span>,
}

/// One applied and published delta.
struct Update {
    epoch: u64,
    submit_ns: u64,
    apply_ms: f64,
    publish_ms: f64,
}

/// Answer-check totals.
#[derive(Debug, Default)]
struct Tally {
    checked: usize,
    mismatched: usize,
}

impl Tally {
    fn add(&mut self, (checked, mismatched): (usize, usize)) {
        self.checked += checked;
        self.mismatched += mismatched;
    }
}

/// Run `workload` once.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> Outcome {
    let clock = Clock::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut meta = Meta::new();
    let registry = traced.then(Registry::shared);

    let mut world = setup::build(
        workload.serve_config(),
        registry.clone(),
        out_dir,
        &clock,
        traced.then_some(&mut spans),
    );
    let set = match workload {
        Workload::WireMiss => world.miss.clone(),
        _ => world.hot.clone(),
    };
    let catalog = Catalog::new(&set, world.context, world.server.snapshot().relaxer());
    if workload != Workload::WireMiss {
        load::warm(world.http.addr(), &catalog);
    }

    let before = registry.as_ref().map(|r| r.snapshot());
    let (main, updates, inverses) = measure(
        workload,
        &mut world,
        &catalog,
        seed,
        seconds,
        &clock,
        traced.then_some(&mut spans),
    );
    let after = registry.as_ref().map(|r| r.snapshot());
    spans.extend(main.spans.iter().cloned());
    let samples = &main.samples;
    let mut failures = exercise_asserts(workload, samples, &updates, &mut meta);

    // Traced-only phases, while the served world is still epoch-stable.
    let mut layer = Metrics::default();
    if let (Some(before), Some(after)) = (&before, &after) {
        let seen: HashSet<usize> = samples.iter().map(|s| s.item).collect();
        // Attribution first: on wire_miss it needs queries the traced
        // server has never cached, and the overhead segments send more.
        let attribution = attribution_phase(
            workload,
            &world,
            &catalog,
            &seen,
            seed,
            &clock,
            &mut spans,
            &mut failures,
        );
        let overhead = overhead_phase(workload, &world, &catalog, seed, &clock, &mut spans);
        layer_metrics(
            &mut layer,
            &world,
            before,
            after,
            &overhead,
            &attribution,
            &updates,
        );
        meta.insert("overhead_pairs_pct", format!("{overhead:?}"));
        meta.insert("attributed_requests", ATTRIBUTED.to_string());
        meta.insert(
            "reconcile_tolerance_pct",
            RECONCILE_TOLERANCE_PCT.to_string(),
        );
    }

    let tally = check_answers(workload, &mut world, &catalog, samples, &updates, &inverses);
    let attempted = samples.len() as u64;
    let failed =
        samples.iter().filter(|s| s.status != 200).count() as u64 + tally.mismatched as u64;
    meta.insert("answers_checked", tally.checked.to_string());
    meta.insert("answers_mismatched", tally.mismatched.to_string());
    if tally.mismatched > 0 {
        failures.push(format!(
            "{} of {} checked answers differ from in-process relax",
            tally.mismatched, tally.checked
        ));
    }
    if failed > 0 {
        failures.push(format!("{failed} of {attempted} requests failed"));
    }

    let rtts = stats::sorted(samples.iter().map(Sample::rtt_ms).collect());
    let p90 = stats::percentile(&rtts, 90.0);
    let p99 = stats::percentile(&rtts, 99.0);
    if !traced && p90.is_none() {
        failures.push(format!(
            "{} samples leave {} beyond p90 (need {})",
            rtts.len(),
            stats::beyond(rtts.len(), 90.0),
            stats::MIN_BEYOND
        ));
    }
    // Update visibility: from delta submit until the reader's first answer
    // at the new epoch.
    let visible = stats::sorted(
        updates
            .iter()
            .filter_map(|u| {
                let first = samples
                    .iter()
                    .filter(|s| s.epoch >= u.epoch)
                    .map(|s| s.end_ns)
                    .min()?;
                Some((first - u.submit_ns) as f64 / 1e6)
            })
            .collect(),
    );
    meta.insert("window_s", main.elapsed_s.to_string());
    meta.insert("relax_samples", rtts.len().to_string());
    meta.insert(
        "relax_p90_ms.beyond",
        stats::beyond(rtts.len(), 90.0).to_string(),
    );
    meta.insert(
        "relax_p99_ms.beyond",
        stats::beyond(rtts.len(), 99.0).to_string(),
    );
    // p99 is reported beside the gated figures, never gated: on a shared
    // host it moves with co-tenants' bursts by more than any bound allows.
    meta.insert("relax_p99_ms", format!("{:?}", p99.unwrap_or(0.0)));
    meta.insert("update_visible_ms", format!("{visible:?}"));
    meta.insert("setup_reps_s", format!("{:?}", world.times.reps_s));
    meta.insert("setup_generate_s", world.times.generate_s.to_string());
    meta.insert("trace_spans", spans.len().to_string());

    let fail_ratio = failed as f64 / attempted.max(1) as f64;
    let metrics = if traced {
        let median = |xs: Vec<f64>| stats::median(&stats::sorted(xs)).unwrap_or(0.0);
        layer.put(
            "delta.apply_ms",
            median(updates.iter().map(|u| u.apply_ms).collect()),
            "ms",
        );
        layer.put(
            "serve.publish_ms",
            median(updates.iter().map(|u| u.publish_ms).collect()),
            "ms",
        );
        layer.put(
            "delta.update_visible_ms",
            stats::median(&visible).unwrap_or(0.0),
            "ms",
        );
        let recomputes: Vec<f64> = updates
            .iter()
            .map(|u| {
                let at_epoch = samples.iter().filter(|s| s.epoch == u.epoch);
                at_epoch.filter(|s| s.from == Served::Computed).count() as f64
            })
            .collect();
        layer.put(
            "delta.recomputes_per_publish",
            stats::mean(&recomputes).unwrap_or(0.0),
            "count",
        );
        layer.put("wire.p99_ms", p99.unwrap_or(0.0), "ms");
        layer.put("fail_ratio", fail_ratio, "ratio");
        layer.put("wire.samples", samples.len() as f64, "count");
        layer
    } else {
        let mut m = Metrics::default();
        m.put("setup_s", world.times.setup_s(), "s");
        m.put("relax_p50_ms", stats::median(&rtts).unwrap_or(0.0), "ms");
        m.put("relax_p90_ms", p90.unwrap_or(0.0), "ms");
        m.put("relax_qps", main.qps(), "1/s");
        m.put("ok_ratio", 1.0 - fail_ratio, "ratio");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m
    };
    if !failures.is_empty() {
        meta.insert("failures", wire::json_string(&failures.join("; ")));
    }
    world.http.shutdown();
    Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
        meta,
        spans,
    }
}

/// The measured window. `delta_publish` runs its writer beside the reader;
/// `wire_miss` runs on past `seconds` to the end of a pass, so every run
/// measures whole passes over the same queries. Returns the traffic, the
/// writer's publishes and their inverse deltas.
fn measure(
    workload: Workload,
    world: &mut World,
    catalog: &Catalog,
    seed: u64,
    seconds: f64,
    clock: &Clock,
    spans: Option<&mut Vec<Span>>,
) -> (Driven, Vec<Update>, Vec<Delta>) {
    let addr = world.http.addr();
    let traced = spans.is_some();
    let lanes = workload.lanes(catalog.len(), seed, 0);
    if workload != Workload::DeltaPublish {
        let window = match workload {
            Workload::WireMiss => Window {
                seconds,
                pass: setup::MISS_STREAM,
            },
            _ => Window::fixed(seconds),
        };
        return (
            load::drive(addr, catalog, &lanes, clock, window, traced),
            Vec::new(),
            Vec::new(),
        );
    }
    let plan = stream::delta_plan(
        seconds.ceil() as usize + 2,
        world.engine.corpus().len(),
        stream::sub_seed(seed, 7),
    );
    let deltas: Vec<Delta> = plan
        .iter()
        .map(|d| doc_delta(world.engine.corpus(), d))
        .collect();
    let (engine, server) = (&mut world.engine, &world.server);
    std::thread::scope(|scope| {
        let reader = scope
            .spawn(|| load::drive(addr, catalog, &lanes, clock, Window::fixed(seconds), traced));
        let (updates, inverses) = write_loop(engine, server, &deltas, seconds, clock, spans);
        (reader.join().expect("reader panicked"), updates, inverses)
    })
}

/// Each workload must stress the layer it claims to measure; a run whose
/// traffic did not is a failed run.
fn exercise_asserts(
    workload: Workload,
    samples: &[Sample],
    updates: &[Update],
    meta: &mut Meta,
) -> Vec<String> {
    let mut failures = Vec::new();
    let hits = samples.iter().filter(|s| s.hit()).count();
    let hit_ratio = hits as f64 / samples.len().max(1) as f64;
    let distinct: HashSet<usize> = samples.iter().map(|s| s.item).collect();
    meta.insert("requests", samples.len().to_string());
    meta.insert("distinct_queries_sent", distinct.len().to_string());
    meta.insert("wire_hit_ratio", hit_ratio.to_string());
    let mut from: BTreeMap<&str, usize> = BTreeMap::new();
    for s in samples {
        *from.entry(s.from.label()).or_default() += 1;
    }
    meta.insert("served_from", format!("{from:?}"));
    match workload {
        Workload::WireHot => {
            if hit_ratio < 0.99 {
                failures.push(format!(
                    "wire_hot hit ratio {hit_ratio:.4} < 0.99 after warm-up"
                ));
            }
        }
        Workload::WireMiss => {
            let capacity = MISS_CACHE.shards * MISS_CACHE.shard_capacity;
            meta.insert("cache_capacity", capacity.to_string());
            if hit_ratio > 0.10 {
                failures.push(format!("wire_miss hit ratio {hit_ratio:.4} > 0.10"));
            }
            if distinct.len() < 8 * capacity {
                failures.push(format!(
                    "wire_miss sent {} distinct queries, < 8 × cache capacity {capacity}",
                    distinct.len()
                ));
            }
        }
        Workload::DeltaPublish => {
            // Each publish invalidates by epoch: the first request of every
            // distinct query at a new epoch recomputes, and only that one.
            for u in updates {
                let at: Vec<&Sample> = samples.iter().filter(|s| s.epoch == u.epoch).collect();
                let computed = at.iter().filter(|s| s.from == Served::Computed).count();
                let distinct: HashSet<usize> = at.iter().map(|s| s.item).collect();
                if computed != distinct.len() {
                    failures.push(format!(
                        "epoch {}: {computed} recomputes for {} distinct queries",
                        u.epoch,
                        distinct.len()
                    ));
                }
            }
            meta.insert("publishes", updates.len().to_string());
            if updates.len() < 2 {
                failures.push(format!("only {} publishes in the window", updates.len()));
            }
        }
    }
    failures
}

/// The writer of `delta_publish`: apply and publish one delta at a time,
/// [`PUBLISH_GAP`] apart, until the window closes. Returns what it
/// published and the inverse of each delta, in order.
fn write_loop(
    engine: &mut DeltaEngine,
    server: &RelaxServer,
    deltas: &[Delta],
    seconds: f64,
    clock: &Clock,
    mut spans: Option<&mut Vec<Span>>,
) -> (Vec<Update>, Vec<Delta>) {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut next = Instant::now() + PUBLISH_GAP;
    let mut updates = Vec::new();
    let mut inverses = Vec::new();
    for delta in deltas {
        // Leave the reader time to see the last publish inside the window.
        if next + PUBLISH_GAP >= end {
            break;
        }
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
        let submit_ns = clock.now_ns();
        let t = Instant::now();
        inverses.push(engine.apply(delta).expect("writer delta applies"));
        let apply_ms = t.elapsed().as_secs_f64() * 1e3;
        let applied_ns = clock.now_ns();
        let t = Instant::now();
        let epoch = server.publish(engine.output().clone());
        let publish_ms = t.elapsed().as_secs_f64() * 1e3;
        let published_ns = clock.now_ns();
        next = Instant::now() + PUBLISH_GAP;
        let root = clock.record(
            spans.as_deref_mut(),
            "delta.update",
            None,
            epoch,
            submit_ns,
            published_ns,
        );
        clock.record(
            spans.as_deref_mut(),
            "delta.apply",
            Some(root),
            epoch,
            submit_ns,
            applied_ns,
        );
        clock.record(
            spans.as_deref_mut(),
            "serve.publish",
            Some(root),
            epoch,
            applied_ns,
            published_ns,
        );
        updates.push(Update {
            epoch,
            submit_ns,
            apply_ms,
            publish_ms,
        });
    }
    (updates, inverses)
}

/// Check the kept answers of every epoch the traffic saw. `delta_publish`
/// walks its engine back through the inverse deltas: the state after each
/// inverse is exactly the epoch before it.
fn check_answers(
    workload: Workload,
    world: &mut World,
    catalog: &Catalog,
    samples: &[Sample],
    updates: &[Update],
    inverses: &[Delta],
) -> Tally {
    let mut tally = Tally::default();
    let current = world.server.snapshot();
    tally.add(check_epoch(
        samples,
        catalog,
        world.context,
        current.relaxer(),
        current.epoch(),
    ));
    drop(current);
    if workload == Workload::DeltaPublish {
        for (u, inverse) in updates.iter().zip(inverses).rev() {
            world.engine.apply(inverse).expect("inverse delta applies");
            let relaxer = QueryRelaxer::new(world.engine.output().clone(), world.config.clone());
            tally.add(check_epoch(
                samples,
                catalog,
                world.context,
                &relaxer,
                u.epoch - 1,
            ));
        }
    }
    tally
}

/// A delta adding copies of corpus documents `docs` (vocabulary-stable, so
/// the engine takes its incremental recount path).
fn doc_delta(corpus: &Corpus, docs: &[usize]) -> Delta {
    let ops = docs
        .iter()
        .map(|&d| DeltaOp::AddDocument {
            sentences: corpus.docs[d]
                .sentences
                .iter()
                .map(|s| {
                    (
                        s.tag,
                        s.tokens
                            .iter()
                            .map(|&t| corpus.vocab.resolve(t).to_string())
                            .collect(),
                    )
                })
                .collect(),
        })
        .collect();
    Delta::new(ops)
}

/// Check every kept body at `epoch` against `relaxer`'s in-process answer,
/// rendered by the shared wire renderer. Returns (checked, mismatched).
fn check_epoch(
    samples: &[Sample],
    catalog: &Catalog,
    context: ContextId,
    relaxer: &QueryRelaxer,
    epoch: u64,
) -> (usize, usize) {
    let kept: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.epoch == epoch && s.body.is_some())
        .collect();
    let mut items: Vec<usize> = kept
        .iter()
        .map(|s| s.item)
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    items.sort_unstable();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let expected: HashMap<usize, String> = std::thread::scope(|scope| {
        let chunk = items.len().div_ceil(threads).max(1);
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&i| {
                            let r = relaxer
                                .relax_concept(catalog.concepts[i], Some(context), K)
                                .expect("in-process relax of a served query");
                            (i, render_relaxation(&r))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("checker panicked"))
            .collect()
    });
    let mismatched = kept
        .iter()
        .filter(|s| {
            let want = format!(
                "{{\"epoch\":{epoch},\"served_from\":\"{}\",\"result\":{}}}",
                s.from.label(),
                expected[&s.item]
            );
            s.body.as_deref() != Some(want.as_str())
        })
        .count();
    (kept.len(), mismatched)
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tracing overhead: the same stream against the traced server (registry
/// attached, client spans recorded) and an untraced twin, in alternating
/// segments. Returns per-pair `(untraced − traced) / untraced` QPS in %.
fn overhead_phase(
    workload: Workload,
    world: &World,
    catalog: &Catalog,
    seed: u64,
    clock: &Clock,
    spans: &mut Vec<Span>,
) -> Vec<f64> {
    let ingested = world.server.snapshot().relaxer().ingested().clone();
    let twin = Arc::new(RelaxServer::new(
        ingested,
        world.config.clone(),
        workload.serve_config(),
    ));
    let twin_http = HttpServer::start(Arc::clone(&twin), None, HttpConfig::default())
        .expect("bind the untraced twin");
    if workload != Workload::WireMiss {
        load::warm(twin_http.addr(), catalog);
    }
    let mut pairs = Vec::new();
    for round in 0..OVERHEAD_PAIRS {
        let lanes = workload.lanes(catalog.len(), seed, 1 + round as u64);
        let mut segment = |traced: bool| -> Driven {
            let addr = if traced {
                world.http.addr()
            } else {
                twin_http.addr()
            };
            let window = Window::fixed(OVERHEAD_SEGMENT_S);
            let d = load::drive(addr, catalog, &lanes, clock, window, traced);
            spans.extend(d.spans.iter().cloned());
            d
        };
        // Alternate which side goes first, so drift cancels.
        let (traced, plain) = if round % 2 == 0 {
            let t = segment(true);
            (t, segment(false))
        } else {
            let p = segment(false);
            (segment(true), p)
        };
        pairs.push((plain.qps() - traced.qps()) / plain.qps() * 100.0);
    }
    twin_http.shutdown();
    pairs
}

/// Per-layer means from the attribution phase.
#[derive(Debug, Default)]
struct Attribution {
    wire_us: f64,
    modeled_us: f64,
    parse_us: f64,
    route_us: f64,
    resolve_us: f64,
    coalesce_wait_us: f64,
    serve_hit_us: f64,
    serve_miss_us: f64,
    render_us: f64,
    socket_us: f64,
    query_ms: Vec<f64>,
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Attribute wire time to layers. A sample of requests goes over one
/// connection, one at a time; request bytes are also replayed in-process
/// through each layer's public entry point, timed from here:
///
/// * parse — `RequestParser::push` + `next_request`;
/// * resolve — `QueryRelaxer::resolve_term` (term requests);
/// * serve — `RelaxServer::serve_concept`, split by `ServedFrom`;
/// * coalesce wait — `Coalescer::submit` minus a direct serve of the same
///   (now cached) key;
/// * render — `render_serve_result`;
/// * route — `Router::handle` (inline serving, cached key) minus the
///   resolve, cached serve and render it contains;
/// * socket — a `GET /health` round trip minus its own parse and route.
///
/// Wire, socket and replay samples interleave request by request. On
/// `wire_miss` the replayed requests are other, equally unseen queries of
/// the same uniform stream (a replay of the same query would hit the cache
/// the wire request just filled), so the comparison is of means.
#[allow(clippy::too_many_arguments)]
fn attribution_phase(
    workload: Workload,
    world: &World,
    catalog: &Catalog,
    seen: &HashSet<usize>,
    seed: u64,
    clock: &Clock,
    spans: &mut Vec<Span>,
    failures: &mut Vec<String>,
) -> Attribution {
    let server = &world.server;
    let ctx = Some(world.context);
    let forms = stream::forms(2 * ATTRIBUTED, stream::sub_seed(seed, 11));
    let (wire_items, replay_items): (Vec<usize>, Vec<usize>) = match workload {
        Workload::WireMiss => {
            let mut order = stream::uniform_indices(
                catalog.len(),
                8 * catalog.len(),
                stream::sub_seed(seed, 12),
            );
            let mut fresh = HashSet::new();
            order.retain(|i| !seen.contains(i) && fresh.insert(*i));
            assert!(
                order.len() >= 2 * ATTRIBUTED,
                "not enough unseen queries to attribute"
            );
            (
                order[..ATTRIBUTED].to_vec(),
                order[ATTRIBUTED..2 * ATTRIBUTED].to_vec(),
            )
        }
        _ => {
            let items =
                stream::zipf_indices(catalog.len(), ATTRIBUTED, 1.07, stream::sub_seed(seed, 12));
            (items.clone(), items)
        }
    };

    if workload != Workload::WireMiss {
        // A publish late in the window can leave hot keys uncached at the
        // current epoch; the wire sample must hit like the replay does.
        load::warm(world.http.addr(), catalog);
    }
    let mut conn = Conn::open(world.http.addr()).expect("connect to the front end");
    let router = Router::new(Arc::clone(server), None, RateLimiter::disabled(), None, K);
    let coalescer = Coalescer::start(Arc::clone(server), CoalesceConfig::default(), None);
    let health = wire::get("/health");
    let snap = server.snapshot();
    let mut a = Attribution::default();
    let (mut wire_us, mut socket_us) = (vec![], vec![]);
    let (mut parse, mut route, mut resolve, mut wait, mut hit, mut miss, mut render, mut modeled) = (
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
    );
    for r in 0..ATTRIBUTED {
        // Wire: one connection, one request at a time.
        let (i, form) = (wire_items[r], forms[r]);
        let start_ns = clock.now_ns();
        let reply = conn
            .round_trip(catalog.request(i, form))
            .expect("attributed request");
        let end_ns = clock.now_ns();
        if reply.status != 200 {
            failures.push(format!("attributed request answered {}", reply.status));
        }
        clock.record(
            Some(spans),
            "attr.wire",
            None,
            (1 << 48) | r as u64,
            start_ns,
            end_ns,
        );
        wire_us.push((end_ns - start_ns) as f64 / 1e3);

        // Socket: a round trip whose server side is almost nothing.
        let t = Instant::now();
        conn.round_trip(&health).expect("health round trip");
        let rtt = us_since(t);
        let t = Instant::now();
        let req = parse_one(&health);
        let _ = router.handle(&req, "127.0.0.1", Instant::now());
        socket_us.push(rtt - us_since(t));

        // Replay, layer by layer.
        let (i, form) = (replay_items[r], forms[ATTRIBUTED + r]);
        let concept: ExtConceptId = catalog.concepts[i];
        let request = (2 << 48) | r as u64;
        let root_start = clock.now_ns();
        let root = clock.next_id();
        let timed = |name| {
            let (t0, t) = (clock.now_ns(), Instant::now());
            move |spans: &mut Vec<Span>| {
                clock.record(Some(spans), name, Some(root), request, t0, clock.now_ns());
                us_since(t)
            }
        };

        let done = timed("http.parse");
        let req = parse_one(catalog.request(i, form));
        let parse_us = done(spans);

        let done = timed("relax.resolve");
        let term = catalog.term(i, form);
        if let Some(term) = term {
            if snap.relaxer().resolve_term(term).ok() != Some(concept) {
                failures.push(format!("replayed term {term:?} resolved elsewhere"));
            }
        }
        let resolve_us = if term.is_some() { done(spans) } else { 0.0 };

        let done = timed("serve.serve_concept");
        let first = server
            .serve_concept(concept, ctx, K)
            .expect("replayed serve");
        let serve_us = done(spans);

        let done = timed("http.coalesce");
        let submitted = coalescer
            .submit(concept, ctx, K, None)
            .expect("replayed coalesce");
        let submit_us = done(spans);

        let done = timed("serve.serve_concept.cached");
        let again = server
            .serve_concept(concept, ctx, K)
            .expect("replayed cached serve");
        let serve_hit_us = done(spans);
        if again.served_from != ServedFrom::Cache || submitted.served_from != ServedFrom::Cache {
            failures.push("replayed key fell out of the cache".into());
        }

        let done = timed("http.render");
        let rendered = render_serve_result(&again);
        let render_us = done(spans);

        let done = timed("http.route");
        let routed = router.handle(&req, "127.0.0.1", Instant::now());
        let route_total_us = done(spans);
        if routed.status != 200 || routed.body != rendered {
            failures.push(format!(
                "replayed route answered {}: {}",
                routed.status, routed.body
            ));
        }
        clock.record(
            Some(spans),
            "attr.replay",
            None,
            request,
            root_start,
            clock.now_ns(),
        );

        let route_self = (route_total_us - resolve_us - serve_hit_us - render_us).max(0.0);
        let wait_us = (submit_us - serve_hit_us).max(0.0);
        match first.served_from {
            ServedFrom::Computed => miss.push(serve_us),
            _ => hit.push(serve_us),
        }
        hit.push(serve_hit_us);
        parse.push(parse_us);
        route.push(route_self);
        resolve.push(resolve_us);
        wait.push(wait_us);
        render.push(render_us);
        modeled.push(parse_us + route_self + resolve_us + wait_us + serve_us + render_us);
    }
    drop(coalescer);
    drop(conn);

    // In-process relaxation over the workload's distinct queries.
    let distinct: Vec<usize> = match workload {
        Workload::WireMiss => replay_items.clone(),
        _ => (0..catalog.len()).cycle().take(ATTRIBUTED).collect(),
    };
    for &i in &distinct {
        let t = Instant::now();
        snap.relaxer()
            .relax_concept(catalog.concepts[i], ctx, K)
            .expect("in-process relax");
        a.query_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let m = |xs: &[f64]| stats::mean(xs).unwrap_or(0.0);
    a.socket_us = m(&socket_us);
    a.wire_us = m(&wire_us);
    a.parse_us = m(&parse);
    a.route_us = m(&route);
    a.resolve_us = m(&resolve);
    a.coalesce_wait_us = m(&wait);
    a.serve_hit_us = m(&hit);
    a.serve_miss_us = m(&miss);
    a.render_us = m(&render);
    a.modeled_us = m(&modeled) + a.socket_us;
    let unattributed = (a.wire_us - a.modeled_us) / a.wire_us * 100.0;
    if unattributed.abs() > RECONCILE_TOLERANCE_PCT {
        failures.push(format!(
            "layer self times ({:.1} µs) do not reconcile with the wire round trip ({:.1} µs) \
             within {RECONCILE_TOLERANCE_PCT}%",
            a.modeled_us, a.wire_us
        ));
    }
    a
}

fn parse_one(bytes: &[u8]) -> medkb_serve::http::Request {
    let mut parser = RequestParser::new(ParseLimits::default());
    parser.push(bytes);
    parser
        .next_request()
        .expect("well-formed request")
        .expect("one complete request")
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}

/// Mean of a histogram's observations between two snapshots.
fn hist_mean(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let get = |s: &MetricsSnapshot| s.histograms.get(name).map_or((0, 0), |h| (h.count, h.sum));
    let ((c0, s0), (c1, s1)) = (get(before), get(after));
    ratio(s1.saturating_sub(s0) as f64, c1.saturating_sub(c0) as f64)
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work this run).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn layer_metrics(
    out: &mut Metrics,
    world: &World,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    overhead: &[f64],
    a: &Attribution,
    updates: &[Update],
) {
    use medkb_core::delta::obs_names as dn;
    use medkb_core::relax::obs_names as rn;
    use medkb_serve::http::obs_names as hn;
    use medkb_serve::obs_names as sn;
    let d = |name| counter_delta(before, after, name);
    let mean = |name| hist_mean(before, after, name);
    let t = &world.times;
    out.put("setup.generate_s", t.generate_s, "s");
    out.put("setup.count_s", t.count_s, "s");
    out.put("ingest.mapping_s", t.mapping_s, "s");
    out.put("ingest.reach_s", t.reach_s, "s");
    out.put("ingest.freqs_s", t.freqs_s, "s");
    out.put("ingest.shortcuts_s", t.shortcuts_s, "s");
    out.put("store.save_s", t.save_s, "s");
    out.put("store.open_s", t.open_s, "s");
    out.put("delta.from_opened_s", t.engine_s, "s");
    out.put("serve.build_s", t.build_s, "s");
    out.put("http.start_s", t.http_s, "s");

    out.put("http.parse_us", a.parse_us, "us");
    out.put("http.route_us", a.route_us, "us");
    out.put("http.coalesce_wait_us", a.coalesce_wait_us, "us");
    out.put("http.render_us", a.render_us, "us");
    out.put("http.socket_us", a.socket_us, "us");
    out.put("http.request_us_mean", mean(hn::REQUEST_US), "us");
    out.put(
        "http.coalesce_batch_mean",
        mean(hn::COALESCE_BATCH_SIZE),
        "count",
    );
    out.put("relax.resolve_us", a.resolve_us, "us");

    let (hits, misses) = (d(sn::CACHE_HITS), d(sn::CACHE_MISSES));
    out.put("serve.hit_ratio", ratio(hits, hits + misses), "ratio");
    out.put("serve.evictions", d(sn::CACHE_EVICTIONS), "count");
    out.put(
        "serve.singleflight_waits",
        d(sn::SINGLEFLIGHT_WAITS),
        "count",
    );
    out.put("serve.shed", d(sn::SHED), "count");
    out.put("serve.hit_us", a.serve_hit_us, "us");
    out.put("serve.miss_us", a.serve_miss_us, "us");
    out.put("serve.latency_us_mean", mean(sn::LATENCY_US), "us");
    out.put(
        "serve.cache_lookup_us_mean",
        mean(sn::CACHE_LOOKUP_US),
        "us",
    );

    let q = stats::sorted(a.query_ms.clone());
    out.put("relax.query_ms_p50", stats::median(&q).unwrap_or(0.0), "ms");
    out.put(
        "relax.query_ms_p90",
        stats::percentile(&q, 90.0).unwrap_or(0.0),
        "ms",
    );
    out.put("relax.query_samples", q.len() as f64, "count");
    let queries = d(rn::QUERIES);
    let scanned = d(rn::CANDIDATES_SCANNED);
    let evals = d(rn::LCS_EVALS);
    let skips = d(rn::BOUND_SKIPS);
    out.put("relax.latency_us_mean", mean(rn::LATENCY_US), "us");
    out.put("relax.queries", queries, "count");
    out.put("relax.scanned_per_query", ratio(scanned, queries), "count");
    out.put(
        "relax.kept_ratio",
        ratio(d(rn::CANDIDATES_KEPT), scanned),
        "ratio",
    );
    out.put("relax.lcs_evals_per_query", ratio(evals, queries), "count");
    out.put(
        "relax.bound_skip_ratio",
        ratio(skips, skips + evals),
        "ratio",
    );
    out.put("relax.rings_terminated", d(rn::RINGS_TERMINATED), "count");

    out.put("delta.apply_us_mean", mean(dn::APPLY_US), "us");
    out.put(
        "delta.full_freq_recomputes",
        d(dn::FULL_FREQ_RECOMPUTES),
        "count",
    );
    out.put("delta.publishes", updates.len() as f64, "count");

    let o = stats::sorted(overhead.to_vec());
    out.put("obs.overhead_pct", stats::median(&o).unwrap_or(0.0), "%");
    let spread = stats::quartiles(&o).map_or(0.0, |(q1, q3)| q3 - q1);
    out.put("obs.overhead_spread_pct", spread, "%");
    out.put("trace.wire_us", a.wire_us, "us");
    out.put("trace.attributed_us", a.modeled_us, "us");
    out.put(
        "trace.unattributed_pct",
        (a.wire_us - a.modeled_us) / a.wire_us * 100.0,
        "%",
    );
}
