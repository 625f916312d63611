//! Snapshot-swapped relaxation serving layer (DESIGN.md §12).
//!
//! The paper's online phase (Algorithm 2, §5.2) is built for interactive
//! clinical queries, and the same relaxed terms recur heavily across users
//! — so the serving layer puts a correctness-pinned result cache in front
//! of the relaxation engine and an epoch-based snapshot holder underneath
//! it:
//!
//! - [`SnapshotStore`]: the ingested world behind an atomically swappable
//!   `Arc`. A background re-ingest [`RelaxServer::publish`]es a new epoch
//!   without blocking in-flight readers; an old epoch is reclaimed when
//!   its last reader drops.
//! - [`ResultCache`]: power-of-two shards, per-shard lock, LRU within a
//!   shard, keyed on `(normalized term | concept, context, config
//!   fingerprint, k, epoch)` — a swap implicitly invalidates everything —
//!   with single-flight dedup so N concurrent identical misses compute
//!   once.
//! - [`RelaxServer`]: admission control (bounded in-flight, per-query
//!   deadline, [`medkb_types::MedKbError::Overloaded`] shed distinct from
//!   `NotFound`) over the two, with full `medkb-obs` instrumentation.
//!
//! The invariant everything here is tested against: serving is invisible
//! in the results. Every answer set is bit-identical to an uncached
//! `relax` call against the epoch that served it (the concurrent stress
//! suite pins this under repeated swaps at 1/2/4/8 reader threads).

mod cache;
pub mod http;
mod server;
mod snapshot;

pub use cache::{CacheKey, Lookup, QueryKey, ResultCache};
pub use http::{HttpConfig, HttpServer};
pub use server::{RelaxServer, ServeConfig, ServeResult, ServedFrom};
pub use snapshot::{Snapshot, SnapshotStore};

/// Metric names the serving layer registers (DESIGN.md §12). Hit ratio is
/// `counter_ratio(CACHE_HITS, CACHE_MISSES)` on a
/// [`medkb_obs::MetricsSnapshot`].
pub mod obs_names {
    /// Requests served from the cache, including joined flights (counter).
    pub const CACHE_HITS: &str = "serve.cache.hits";
    /// Requests that computed (single-flight leaders) (counter).
    pub const CACHE_MISSES: &str = "serve.cache.misses";
    /// LRU entries displaced by inserts (counter).
    pub const CACHE_EVICTIONS: &str = "serve.cache.evictions";
    /// Requests that waited on another request's identical in-flight
    /// computation — a subset of [`CACHE_HITS`] (counter).
    pub const SINGLEFLIGHT_WAITS: &str = "serve.cache.singleflight_waits";
    /// Requests shed by admission control or deadline (counter).
    pub const SHED: &str = "serve.shed";
    /// Snapshot swaps published (counter).
    pub const SNAPSHOT_SWAPS: &str = "serve.snapshot.swaps";
    /// Epochs reclaimed — last holder dropped (counter).
    pub const SNAPSHOT_RETIRED: &str = "serve.snapshot.retired";
    /// Currently published epoch (gauge).
    pub const EPOCH: &str = "serve.snapshot.epoch";
    /// In-flight requests at last admission (gauge).
    pub const IN_FLIGHT: &str = "serve.inflight";
    /// Cache probe latency (µs histogram).
    pub const CACHE_LOOKUP_US: &str = "serve.cache.lookup_us";
    /// End-to-end serve latency, sheds included (µs histogram).
    pub const LATENCY_US: &str = "serve.latency_us";
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    use medkb_core::{ingest, MappingMethod, ObsConfig, QueryRelaxer, RelaxConfig};
    use medkb_corpus::MentionCounts;
    use medkb_obs::Registry;
    use medkb_snomed::figures::paper_fragment;
    use medkb_snomed::oracle::N_TAGS;
    use medkb_types::{ContextId, ExtConceptId, MedKbError};

    use super::*;

    /// The paper-fragment world, same construction as the core relax tests.
    fn fragment_world(config: &RelaxConfig) -> medkb_core::IngestOutput {
        let f = paper_fragment();
        let mut ob = medkb_ontology::OntologyBuilder::new();
        let finding = ob.concept("Finding");
        let indication = ob.concept("Indication");
        let risk = ob.concept("Risk");
        let drug = ob.concept("Drug");
        ob.relationship("treat", drug, indication);
        ob.relationship("cause", drug, risk);
        ob.relationship("hasFinding", indication, finding);
        ob.relationship("hasFinding", risk, finding);
        let onto = ob.build().unwrap();
        let mut kb = medkb_kb::KbBuilder::new(onto);
        let fc = kb.ontology().lookup_concept("Finding").unwrap();
        for name in &f.flagged {
            kb.instance(name, fc);
        }
        let kb = kb.build().unwrap();
        let mut direct: HashMap<ExtConceptId, [u64; N_TAGS]> = HashMap::new();
        for &(name, treat, risk) in &f.fig4_direct_counts {
            let mut row = [0u64; N_TAGS];
            row[medkb_snomed::ContextTag::Treatment.index()] = treat;
            row[medkb_snomed::ContextTag::Risk.index()] = risk;
            direct.insert(f.concept(name), row);
        }
        let counts = MentionCounts::from_direct(direct, HashMap::new(), 200);
        ingest(&kb, f.ekg.clone(), &counts, None, config).unwrap()
    }

    fn exact_config() -> RelaxConfig {
        RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() }
    }

    fn treatment_ctx(out: &medkb_core::IngestOutput) -> ContextId {
        out.contexts
            .iter()
            .find(|c| c.label == "Indication-hasFinding-Finding")
            .expect("treatment context")
            .id
    }

    #[test]
    fn serve_matches_uncached_relax_bit_identically() {
        let config = exact_config();
        let out = fragment_world(&config);
        let ctx = treatment_ctx(&out);
        let plain = QueryRelaxer::new(out.clone(), config.clone());
        let server = RelaxServer::new(out, config, ServeConfig::default());
        for term in ["fever", "headache", "psychogenic fever", "pertussis"] {
            for context in [None, Some(ctx)] {
                for k in [1, 5, 50] {
                    let served = server.serve(term, context, k).unwrap();
                    let direct = plain.relax(term, context, k).unwrap();
                    assert_eq!(*served.result, direct, "{term} ctx={context:?} k={k}");
                    assert_eq!(served.epoch, 0);
                    // Second call: same Arc out of the cache, same answers.
                    let again = server.serve(term, context, k).unwrap();
                    assert!(again.cached(), "{term} should be resident");
                    assert!(Arc::ptr_eq(&served.result, &again.result));
                }
            }
        }
    }

    #[test]
    fn spelling_variants_share_one_entry_after_normalization() {
        let config = exact_config();
        let out = fragment_world(&config);
        let server = RelaxServer::new(out, config, ServeConfig::default());
        let a = server.serve("fever", None, 5).unwrap();
        let b = server.serve("  FEVER  ", None, 5).unwrap();
        assert_eq!(b.served_from, ServedFrom::Cache);
        assert!(Arc::ptr_eq(&a.result, &b.result));
    }

    #[test]
    fn not_found_propagates_and_is_never_cached() {
        let config = exact_config();
        let out = fragment_world(&config);
        let server = RelaxServer::new(out, config, ServeConfig::default());
        for _ in 0..2 {
            match server.serve("no such term", None, 5) {
                Err(MedKbError::NotFound { .. }) => {}
                other => panic!("expected NotFound, got {other:?}"),
            }
        }
        assert_eq!(server.cache_len(), 0, "errors must not occupy cache slots");
    }

    #[test]
    fn admission_sheds_with_overloaded_not_notfound() {
        let config = exact_config();
        let out = fragment_world(&config);
        // max_in_flight = 0 is clamped to 1, and the serving request itself
        // occupies the slot — so a second concurrent one would shed. Here,
        // single-threaded, force it with a zero deadline instead: the
        // already-expired deadline sheds at admission.
        let server = RelaxServer::new(
            out,
            config,
            ServeConfig { deadline: Some(Duration::ZERO), ..ServeConfig::default() },
        );
        match server.serve("fever", None, 5) {
            Err(MedKbError::Overloaded { .. }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(server.cache_len(), 0, "shed requests must not occupy cache slots");
    }

    /// Regression (ISSUE 9): the deadline used to be consulted only before
    /// each query's *own* computation, with a fresh per-query deadline —
    /// so a batch whose deadline had already expired would still happily
    /// complete every slot (warm hits especially: the cache probe ran
    /// before any deadline check). The batch entry points now share one
    /// absolute deadline across all shards and re-check it before every
    /// query: expired mid-batch work is shed with `Overloaded`, never
    /// silently completed.
    #[test]
    fn expired_mid_batch_deadline_sheds_instead_of_completing() {
        let config = exact_config();
        let out = fragment_world(&config);
        let plain = QueryRelaxer::new(out.clone(), config.clone());
        let server = RelaxServer::new(out, config, ServeConfig::default());
        let queries: Vec<(ExtConceptId, Option<ContextId>)> =
            ["fever", "headache", "pertussis"]
                .iter()
                .map(|t| (plain.resolve_term(t).unwrap(), None))
                .collect();

        // Warm every key so the old behaviour would have been an instant
        // cache hit — the distinguishing case: completing from cache is
        // exactly what an expired deadline must *not* do.
        for res in server.serve_concepts_batch_with_threads(&queries, 5, 2) {
            res.expect("warming batch serves");
        }
        assert_eq!(server.cache_len(), queries.len());

        let expired = std::time::Instant::now();
        for threads in [1, 2] {
            for res in
                server.serve_concepts_batch_with_deadline(&queries, 5, threads, Some(expired))
            {
                match res {
                    Err(MedKbError::Overloaded { .. }) => {}
                    other => panic!(
                        "expired mid-batch deadline must shed with Overloaded, got {other:?}"
                    ),
                }
            }
        }
        // And with no deadline the same batch still completes (the shed
        // above was the deadline's doing, not a broken batch path).
        for res in server.serve_concepts_batch_with_deadline(&queries, 5, 2, None) {
            res.expect("deadline-free batch serves");
        }
    }

    /// A single-flight leader that panics mid-compute must release its
    /// followers with an error — not leave them parked on the `Flight`
    /// condvar forever — and must clear the in-flight slot so a retry can
    /// become a fresh leader and succeed.
    #[test]
    fn single_flight_leader_panic_releases_followers() {
        use std::sync::Barrier;

        let cache = Arc::new(ResultCache::new(1, 16));
        let key = CacheKey {
            query: QueryKey::Term("poisoned".into()),
            context: None,
            fingerprint: 1,
            k: 5,
            epoch: 0,
        };
        let followers = 4;
        // +1 for the leader: nobody computes until every follower thread is
        // at least spawned and racing toward the wait.
        let ready = Arc::new(Barrier::new(followers + 1));

        let leader = {
            let cache = Arc::clone(&cache);
            let key = key.clone();
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || {
                let _ = cache.get_or_compute(key, None, || {
                    ready.wait();
                    // Give followers a beat to join the flight before the
                    // leader dies (followers that miss the window still
                    // pass: they become fresh leaders of a clean slot).
                    std::thread::sleep(Duration::from_millis(30));
                    panic!("injected: poisoned query");
                });
            })
        };
        let handles: Vec<_> = (0..followers)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let key = key.clone();
                let ready = Arc::clone(&ready);
                std::thread::spawn(move || {
                    ready.wait();
                    cache.get_or_compute(key, None, || {
                        Ok(medkb_core::RelaxationResult {
                            query_concept: ExtConceptId::new(9),
                            radius_used: 1,
                            answers: Vec::new(),
                        })
                    })
                })
            })
            .collect();

        assert!(leader.join().is_err(), "leader thread must have panicked");
        for h in handles {
            // Followers either joined the doomed flight (released with an
            // error by LeaderGuard) or raced past it and computed cleanly.
            // Both are fine; parking forever (this join hanging) is not.
            match h.join().expect("follower must not panic") {
                Ok((v, _)) => assert_eq!(v.query_concept, ExtConceptId::new(9)),
                Err(MedKbError::Overloaded { .. }) => {}
                Err(other) => panic!("unexpected follower error: {other:?}"),
            }
        }
        // The flight slot is gone: a retry either leads a fresh flight or
        // hits a value a follower-turned-leader cached — never a Joined
        // wait on the dead leader's flight.
        let (v, how) = cache
            .get_or_compute(key, None, || {
                Ok(medkb_core::RelaxationResult {
                    query_concept: ExtConceptId::new(11),
                    radius_used: 1,
                    answers: Vec::new(),
                })
            })
            .expect("retry after a panicked leader must succeed");
        match how {
            Lookup::Miss => assert_eq!(v.query_concept, ExtConceptId::new(11)),
            Lookup::Hit => assert_eq!(v.query_concept, ExtConceptId::new(9)),
            Lookup::Joined => panic!("no flight may survive a panicked leader"),
        }
    }

    #[test]
    fn publish_bumps_epoch_and_invalidates_by_keying() {
        let config = exact_config();
        let out = fragment_world(&config);
        let server = RelaxServer::new(out.clone(), config, ServeConfig::default());
        let before = server.serve("fever", None, 5).unwrap();
        assert_eq!(before.epoch, 0);
        assert_eq!(server.publish(out), 1);
        assert_eq!(server.epoch(), 1);
        let after = server.serve("fever", None, 5).unwrap();
        // Same world republished: same answers, but computed fresh against
        // the new epoch — the old entry is unreachable by construction.
        assert_eq!(after.epoch, 1);
        assert_eq!(after.served_from, ServedFrom::Computed);
        assert_eq!(*after.result, *before.result);
    }

    #[test]
    fn old_epoch_survives_until_last_reader_drops() {
        let registry = Registry::shared();
        let config = RelaxConfig {
            obs: ObsConfig::with_registry(Arc::clone(&registry)),
            ..exact_config()
        };
        let out = fragment_world(&config);
        let server = RelaxServer::new(out.clone(), config, ServeConfig::default());
        let held = server.snapshot();
        assert_eq!(held.epoch(), 0);
        server.publish(out.clone());
        server.publish(out);
        // Epoch 1 had no outside holders: retired at the second publish.
        // Epoch 0 is still pinned by `held`.
        assert_eq!(registry.snapshot().counter(obs_names::SNAPSHOT_RETIRED), 1);
        let q = held.relaxer().resolve_term("fever").unwrap();
        assert!(held.relaxer().relax_concept(q, None, 5).is_ok(), "pinned epoch still serves");
        drop(held);
        assert_eq!(registry.snapshot().counter(obs_names::SNAPSHOT_RETIRED), 2);
        assert_eq!(registry.snapshot().counter(obs_names::SNAPSHOT_SWAPS), 2);
    }

    #[test]
    fn metrics_record_hits_misses_and_ratio() {
        let registry = Registry::shared();
        let config = RelaxConfig {
            obs: ObsConfig::with_registry(Arc::clone(&registry)),
            ..exact_config()
        };
        let out = fragment_world(&config);
        let server = RelaxServer::new(out, config, ServeConfig::default());
        server.serve("fever", None, 5).unwrap();
        for _ in 0..3 {
            server.serve("fever", None, 5).unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter(obs_names::CACHE_MISSES), 1);
        assert_eq!(snap.counter(obs_names::CACHE_HITS), 3);
        assert_eq!(snap.counter_ratio(obs_names::CACHE_HITS, obs_names::CACHE_MISSES), 0.75);
        assert_eq!(snap.histogram_count(obs_names::LATENCY_US), 4);
        assert!(snap.histogram_count(obs_names::CACHE_LOOKUP_US) >= 4);
        // The underlying relax engine recorded into the same registry.
        assert_eq!(snap.counter(medkb_core::relax::obs_names::QUERIES), 1);
    }

    #[test]
    fn single_flight_collapses_concurrent_identical_misses() {
        let computed = AtomicUsize::new(0);
        let cache = ResultCache::new(4, 16);
        let key = CacheKey {
            query: QueryKey::Term("fever".into()),
            context: None,
            fingerprint: 1,
            k: 5,
            epoch: 0,
        };
        let make = |q: u32| medkb_core::RelaxationResult {
            query_concept: ExtConceptId::new(q),
            radius_used: 1,
            answers: Vec::new(),
        };
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (v, _how) = cache
                        .get_or_compute(key.clone(), None, || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so followers really join.
                            std::thread::sleep(Duration::from_millis(20));
                            Ok(make(7))
                        })
                        .unwrap();
                    assert_eq!(v.query_concept, ExtConceptId::new(7));
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "one computation for 8 identical misses");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_within_shard() {
        // One shard, capacity 2, keys distinguished by k.
        let cache = ResultCache::new(1, 2);
        let key = |k: usize| CacheKey {
            query: QueryKey::Concept(ExtConceptId::new(1)),
            context: None,
            fingerprint: 0,
            k,
            epoch: 0,
        };
        let value = || medkb_core::RelaxationResult {
            query_concept: ExtConceptId::new(1),
            radius_used: 1,
            answers: Vec::new(),
        };
        for k in [1, 2] {
            cache.get_or_compute(key(k), None, || Ok(value())).unwrap();
        }
        // Touch k=1 so k=2 becomes the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.get_or_compute(key(3), None, || Ok(value())).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1)).is_some(), "recently used entry survives");
        assert!(cache.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(3)).is_some());
    }

    /// Satellite check: the shared comparator makes exact-tie ranking
    /// bit-identical across cached, uncached, and reference paths — the
    /// symmetric twin-star world from the core suite, served.
    #[test]
    fn exact_ties_rank_identically_cached_uncached_and_reference() {
        let twin_names = ["twin d", "twin b", "twin c", "twin a"];
        let mut eb = medkb_ekg::EkgBuilder::new();
        let root = eb.concept("root finding");
        let twins: Vec<ExtConceptId> = twin_names
            .iter()
            .map(|n| {
                let c = eb.concept(n);
                eb.is_a(c, root);
                c
            })
            .collect();
        let ekg = eb.build().unwrap();
        let mut ob = medkb_ontology::OntologyBuilder::new();
        let finding = ob.concept("Finding");
        let onto = ob.build().unwrap();
        let mut kb = medkb_kb::KbBuilder::new(onto);
        for name in twin_names {
            kb.instance(name, finding);
        }
        let kb = kb.build().unwrap();
        let mut direct: HashMap<ExtConceptId, [u64; N_TAGS]> = HashMap::new();
        for &c in &twins {
            direct.insert(c, [7u64; N_TAGS]);
        }
        let counts = MentionCounts::from_direct(direct, HashMap::new(), 10);
        let config = exact_config();
        let out = ingest(&kb, ekg, &counts, None, &config).unwrap();
        let plain = QueryRelaxer::new(out.clone(), config.clone());
        let server = RelaxServer::new(out, config, ServeConfig::default());

        let q = plain.resolve_term("root finding").unwrap();
        let uncached = plain.relax_concept(q, None, 50).unwrap();
        let reference = plain.relax_concept_reference(q, None, 50).unwrap();
        let cold = server.serve_concept(q, None, 50).unwrap();
        let warm = server.serve_concept(q, None, 50).unwrap();
        assert_eq!(warm.served_from, ServedFrom::Cache);
        assert_eq!(uncached, reference);
        assert_eq!(*cold.result, uncached);
        assert_eq!(*warm.result, uncached);
        let ids: Vec<ExtConceptId> = uncached.answers.iter().map(|a| a.concept).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "exact ties must order by concept id on every path");
        // And through the batch-serving surface at several thread counts.
        let queries = vec![(q, None); 8];
        for threads in [1, 2, 4, 8] {
            for res in server.serve_concepts_batch_with_threads(&queries, 50, threads) {
                assert_eq!(*res.unwrap().result, uncached, "threads={threads}");
            }
        }
    }

    /// Satellite check: the strip-modifiers fix holds through the cached
    /// entry point — a two-word decorated term resolves and caches.
    #[test]
    fn stripped_two_word_terms_serve_and_cache() {
        let config = RelaxConfig { strip_modifiers: true, ..exact_config() };
        let out = fragment_world(&config);
        let plain = QueryRelaxer::new(out.clone(), config.clone());
        let server = RelaxServer::new(out, config, ServeConfig::default());
        let served = server.serve("severe fever", None, 5).unwrap();
        let direct = plain.relax("severe fever", None, 5).unwrap();
        assert_eq!(*served.result, direct);
        assert_eq!(
            plain.ingested().ekg.name(served.result.query_concept),
            "fever",
            "two-word term must strip to its final word"
        );
        let again = server.serve("severe fever", None, 5).unwrap();
        assert!(again.cached());
    }

    /// The routed endpoint surface, no sockets involved: the router is
    /// transport-free by design, so the endpoint contract (statuses,
    /// envelope shape, error taxonomy) pins here and the socket tests
    /// only have to cover transport concerns.
    #[test]
    fn router_endpoints_round_trip_against_in_process_answers() {
        use crate::http::router::post;
        use crate::http::{Json, RateLimiter, Request, Router};

        let registry = Registry::shared();
        let config = RelaxConfig {
            obs: ObsConfig::with_registry(Arc::clone(&registry)),
            ..exact_config()
        };
        let out = fragment_world(&config);
        let ctx = treatment_ctx(&out);
        let plain = QueryRelaxer::new(out.clone(), config.clone());
        let server = Arc::new(RelaxServer::new(out, config, ServeConfig::default()));
        let router = Router::new(
            Arc::clone(&server),
            Some(Arc::clone(&registry)),
            RateLimiter::disabled(),
            None,
            10,
        );
        let now = std::time::Instant::now();
        let get = |target: &str| Request {
            method: "GET".into(),
            target: target.into(),
            http11: true,
            headers: Vec::new(),
            body: Vec::new(),
        };

        // /health and /metrics are alive and well-formed.
        let health = router.handle(&get("/health"), "127.0.0.1", now);
        assert_eq!(health.status, 200);
        assert_eq!(
            Json::parse(&health.body).unwrap().get("status").and_then(Json::as_str),
            Some("ok")
        );
        let metrics = router.handle(&get("/metrics"), "127.0.0.1", now);
        assert_eq!(metrics.status, 200);
        assert!(medkb_obs::validate_json(&metrics.body), "metrics JSON well-formed");

        // /relax by term matches the in-process answer through the shared
        // renderer (the wire bit-identity contract).
        let relax =
            router.handle(&post("/relax", r#"{"term":"fever","k":5}"#), "127.0.0.1", now);
        assert_eq!(relax.status, 200, "{}", relax.body);
        let expected = plain.relax("fever", None, 5).unwrap();
        assert!(
            relax.body.ends_with(&format!(
                "\"result\":{}}}",
                crate::http::render_relaxation(&expected)
            )),
            "wire answer must be the in-process answer: {}",
            relax.body
        );

        // Pinning the deployment's one source by name is accepted and
        // answers identically; the per-answer wire shape carries its
        // source id (always 0 on a single-source server).
        let pinned = router.handle(
            &post("/relax", r#"{"term":"fever","k":5,"source":"primary"}"#),
            "127.0.0.1",
            now,
        );
        assert_eq!(pinned.status, 200, "{}", pinned.body);
        assert!(
            pinned.body.ends_with(&format!(
                "\"result\":{}}}",
                crate::http::render_relaxation(&expected)
            )),
            "pinned source must not change the answer: {}",
            pinned.body
        );
        assert!(pinned.body.contains("\"source\":0"), "{}", pinned.body);

        // /relax by concept with a context, against the concept path.
        let q = plain.resolve_term("fever").unwrap();
        let body = format!("{{\"concept\":{},\"context\":{},\"k\":5}}", q.raw(), ctx.raw());
        let relax_c = router.handle(&post("/relax", &body), "127.0.0.1", now);
        assert_eq!(relax_c.status, 200, "{}", relax_c.body);
        let expected_c = plain.relax_concept(q, Some(ctx), 5).unwrap();
        assert!(relax_c
            .body
            .ends_with(&format!("\"result\":{}}}", crate::http::render_relaxation(&expected_c))));

        // /batch returns per-slot results in input order.
        let q2 = plain.resolve_term("headache").unwrap();
        let batch_body = format!(
            "{{\"queries\":[{{\"concept\":{}}},{{\"concept\":{}}}],\"k\":5}}",
            q.raw(),
            q2.raw()
        );
        let batch = router.handle(&post("/batch", &batch_body), "127.0.0.1", now);
        assert_eq!(batch.status, 200, "{}", batch.body);
        let parsed = Json::parse(&batch.body).unwrap();
        let rows = parsed.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        for (row, q) in rows.iter().zip([q, q2]) {
            assert_eq!(row.get("status").and_then(Json::as_u64), Some(200));
            let result = row.get("value").unwrap().get("result").unwrap();
            assert_eq!(
                result.get("query_concept").and_then(Json::as_u64),
                Some(u64::from(q.raw()))
            );
        }

        // /explain renders the Eq. 1–5 derivation text.
        let explain_body =
            format!("{{\"query\":{},\"candidate\":{}}}", q.raw(), q2.raw());
        let explain = router.handle(&post("/explain", &explain_body), "127.0.0.1", now);
        assert_eq!(explain.status, 200, "{}", explain.body);
        let text = Json::parse(&explain.body).unwrap();
        assert!(
            text.get("explanation").and_then(Json::as_str).unwrap().contains("sim("),
            "{}",
            explain.body
        );

        // Error taxonomy over the wire.
        for (req, want) in [
            (post("/relax", r#"{"term":"no such term"}"#), 404),
            (post("/relax", r#"{"k":5}"#), 400),
            (post("/relax", r#"{"term":"fever","concept":1}"#), 400),
            (post("/relax", r#"{"term":"fever","k":0}"#), 400),
            (post("/relax", "not json"), 400),
            // RFC 8259 §7 regression: `\q` is not a legal escape, so the
            // body must 400 rather than resolve a mangled term.
            (post("/relax", r#"{"term":"\q","k":5}"#), 400),
            (post("/relax", r#"{"term":"fe\x76er"}"#), 400),
            // Unknown source name: the federated error-taxonomy 404.
            (post("/relax", r#"{"term":"fever","source":"gene-ontology"}"#), 404),
            (post("/relax", r#"{"term":"fever","source":7}"#), 400),
            (post("/nope", "{}"), 404),
            (get("/relax"), 405),
        ] {
            let resp = router.handle(&req, "127.0.0.1", now);
            assert_eq!(resp.status, want, "{} {} → {}", req.method, req.target, resp.body);
            assert!(Json::parse(&resp.body).unwrap().get("error").is_some());
        }
    }

    /// One greedy client exhausting its token bucket sees 429s while a
    /// polite client on the same router is untouched — and the rate-limit
    /// decision happens before any body parsing or relaxation work.
    #[test]
    fn rate_limited_client_gets_429_others_unaffected() {
        use crate::http::router::post;
        use crate::http::{Json, RateLimitConfig, RateLimiter, Router, CLIENT_HEADER};

        let config = exact_config();
        let out = fragment_world(&config);
        let server = Arc::new(RelaxServer::new(out, config, ServeConfig::default()));
        let router = Router::new(
            Arc::clone(&server),
            None,
            RateLimiter::new(RateLimitConfig { rate_per_sec: 1.0, burst: 2.0 }).unwrap(),
            None,
            10,
        );
        let now = std::time::Instant::now();
        let tagged = |client: &str| {
            let mut req = post("/relax", r#"{"term":"fever","k":5}"#);
            req.headers.push((CLIENT_HEADER.into(), client.into()));
            req
        };
        // Burst of 2, then the greedy client is cut off (same `now`, so
        // no refill happens between calls — fully deterministic).
        assert_eq!(router.handle(&tagged("greedy"), "10.0.0.1", now).status, 200);
        assert_eq!(router.handle(&tagged("greedy"), "10.0.0.1", now).status, 200);
        let limited = router.handle(&tagged("greedy"), "10.0.0.1", now);
        assert_eq!(limited.status, 429, "{}", limited.body);
        assert!(Json::parse(&limited.body).unwrap().get("error").is_some());
        // Another client — same peer IP, distinct header — is unaffected.
        assert_eq!(router.handle(&tagged("polite"), "10.0.0.1", now).status, 200);
        // Falling back to peer IP when no header: a third identity.
        let bare = post("/relax", r#"{"term":"fever","k":5}"#);
        assert_eq!(router.handle(&bare, "10.0.0.2", now).status, 200);
    }

    /// Concurrent distinct submissions from different "connections" merge
    /// into one `relax_concepts_batch` dispatch, and every member gets
    /// the same answer the in-process path computes.
    #[test]
    fn coalescer_merges_concurrent_submissions_into_one_batch() {
        use crate::http::{obs_names as http_names, CoalesceConfig, Coalescer};
        use std::sync::Barrier;

        let registry = Registry::shared();
        let config = RelaxConfig {
            obs: ObsConfig::with_registry(Arc::clone(&registry)),
            ..exact_config()
        };
        let out = fragment_world(&config);
        let plain = QueryRelaxer::new(out.clone(), config.clone());
        let server = Arc::new(RelaxServer::new(out, config, ServeConfig::default()));
        let members = 4;
        let coalescer = Coalescer::start(
            Arc::clone(&server),
            // A wide window so all four submitters make it into one
            // dispatch regardless of scheduling; max_batch closes the
            // window early once everyone is queued.
            CoalesceConfig { window: Duration::from_millis(250), max_batch: members },
            Some(&registry),
        );
        let terms = ["fever", "headache", "pertussis", "psychogenic fever"];
        let queries: Vec<ExtConceptId> =
            terms.iter().map(|t| plain.resolve_term(t).unwrap()).collect();
        let start = Arc::new(Barrier::new(members));
        std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .iter()
                .map(|&q| {
                    let start = Arc::clone(&start);
                    let coalescer = &coalescer;
                    scope.spawn(move || {
                        start.wait();
                        coalescer.submit(q, None, 5, None)
                    })
                })
                .collect();
            for (h, &q) in handles.into_iter().zip(&queries) {
                let served = h.join().expect("submitter").expect("coalesced serve");
                let direct = plain.relax_concept(q, None, 5).unwrap();
                assert_eq!(*served.result, direct, "coalesced answer must be bit-identical");
            }
        });
        drop(coalescer);
        let snap = registry.snapshot();
        assert!(
            snap.counter(http_names::COALESCE_BATCHES) >= 1,
            "4 simultaneous submissions must form at least one multi-member batch"
        );
        assert!(snap.counter(http_names::COALESCE_JOINED) >= 2);
    }

    /// A member whose deadline expired while queued is shed at dispatch
    /// with `Overloaded`, without poisoning the rest of its batch.
    #[test]
    fn coalescer_sheds_expired_members_at_dispatch() {
        use crate::http::{CoalesceConfig, Coalescer};

        let config = exact_config();
        let out = fragment_world(&config);
        let plain = QueryRelaxer::new(out.clone(), config.clone());
        let server = Arc::new(RelaxServer::new(out, config, ServeConfig::default()));
        let coalescer = Coalescer::start(
            Arc::clone(&server),
            CoalesceConfig { window: Duration::from_millis(20), max_batch: 64 },
            None,
        );
        let q = plain.resolve_term("fever").unwrap();
        // Already expired on submission: the window guarantees it is
        // still expired at dispatch.
        let expired = std::time::Instant::now();
        match coalescer.submit(q, None, 5, Some(expired)) {
            Err(MedKbError::Overloaded { .. }) => {}
            other => panic!("expired member must shed, got {other:?}"),
        }
        // A live member afterwards is served normally.
        let served = coalescer.submit(q, None, 5, None).expect("live member serves");
        assert_eq!(*served.result, plain.relax_concept(q, None, 5).unwrap());
    }

    #[test]
    fn batch_serving_preserves_input_order_and_error_slots() {
        let config = exact_config();
        let out = fragment_world(&config);
        let ctx = treatment_ctx(&out);
        let plain = QueryRelaxer::new(out.clone(), config.clone());
        let server = RelaxServer::new(out, config, ServeConfig::default());
        let terms = ["fever", "headache", "pertussis", "psychogenic fever"];
        let queries: Vec<(ExtConceptId, Option<ContextId>)> = terms
            .iter()
            .enumerate()
            .map(|(i, t)| {
                (plain.resolve_term(t).unwrap(), if i % 2 == 0 { Some(ctx) } else { None })
            })
            .collect();
        let expected: Vec<_> =
            queries.iter().map(|&(q, c)| plain.relax_concept(q, c, 5).unwrap()).collect();
        for threads in [1, 2, 4, 8] {
            let batch = server.serve_concepts_batch_with_threads(&queries, 5, threads);
            assert_eq!(batch.len(), expected.len());
            for (res, exp) in batch.into_iter().zip(&expected) {
                assert_eq!(*res.unwrap().result, *exp, "threads={threads}");
            }
        }
    }
}
