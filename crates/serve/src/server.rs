//! The serving front door: admission control → snapshot load → cache
//! read-through → (on miss) Algorithm 2 against the pinned epoch.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use medkb_core::{IngestOutput, RelaxConfig, RelaxationResult};
use medkb_obs::{Counter, Gauge, Histogram, Registry};
use medkb_types::{par, ContextId, ExtConceptId, MedKbError, Result};

use crate::cache::{CacheKey, Lookup, QueryKey, ResultCache};
use crate::obs_names;
use crate::snapshot::{Snapshot, SnapshotStore};

/// Serving knobs, all orthogonal to relaxation semantics: nothing here can
/// change an answer, only whether/when one is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Cache shard count (rounded up to a power of two, minimum 1).
    pub shards: usize,
    /// LRU capacity per shard; total capacity is `shards × capacity`.
    pub shard_capacity: usize,
    /// Admission bound: requests beyond this many concurrently in flight
    /// are shed with [`MedKbError::Overloaded`] instead of queuing.
    pub max_in_flight: usize,
    /// Request deadline, started when a request (or a whole batch — the
    /// batch entry points share one deadline across all their queries)
    /// enters the server. Checked at admission, re-checked before every
    /// computation, and bounds how long a request waits on a shared
    /// in-flight computation. `None` disables deadline enforcement.
    pub deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { shards: 16, shard_capacity: 512, max_in_flight: 1024, deadline: None }
    }
}

/// Pre-resolved handles, same pattern as the relaxation engine's metrics.
struct ServeMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    joins: Arc<Counter>,
    shed: Arc<Counter>,
    swaps: Arc<Counter>,
    epoch: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    lookup: Arc<Histogram>,
    latency: Arc<Histogram>,
}

impl ServeMetrics {
    fn resolve(registry: &Registry) -> Self {
        Self {
            hits: registry.counter(obs_names::CACHE_HITS),
            misses: registry.counter(obs_names::CACHE_MISSES),
            joins: registry.counter(obs_names::SINGLEFLIGHT_WAITS),
            shed: registry.counter(obs_names::SHED),
            swaps: registry.counter(obs_names::SNAPSHOT_SWAPS),
            epoch: registry.gauge(obs_names::EPOCH),
            in_flight: registry.gauge(obs_names::IN_FLIGHT),
            lookup: registry.latency(obs_names::CACHE_LOOKUP_US),
            latency: registry.latency(obs_names::LATENCY_US),
        }
    }
}

/// Where a served answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// Resident in the cache.
    Cache,
    /// Computed by this request (single-flight leader).
    Computed,
    /// Computed by a concurrent identical request; this one waited.
    SharedFlight,
}

/// One served answer: the (shared, immutable) relaxation result plus the
/// epoch that produced it and how it was satisfied.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// The answer set, shared with the cache (never cloned per request).
    pub result: Arc<RelaxationResult>,
    /// The snapshot epoch the answers were computed against.
    pub epoch: u64,
    /// Cache hit / computed / joined an in-flight computation.
    pub served_from: ServedFrom,
}

impl ServeResult {
    /// Whether the request was satisfied without running Algorithm 2 in
    /// this call (cache hit or joined flight).
    pub fn cached(&self) -> bool {
        self.served_from != ServedFrom::Computed
    }
}

/// Decrements the in-flight count when a request leaves, however it leaves,
/// and mirrors the new depth into the gauge so an idle server reads 0 (the
/// gauge is last-writer-wins; concurrent exits converge on the true depth).
struct InFlightGuard<'a>(&'a AtomicUsize, Option<&'a Gauge>);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let now = self.0.fetch_sub(1, Ordering::AcqRel) - 1;
        if let Some(g) = self.1 {
            g.set(now as u64);
        }
    }
}

/// The serving layer: snapshot store + sharded cache + admission control.
///
/// Correctness contract (pinned by the stress suite): every returned
/// answer set is bit-identical to an uncached
/// [`medkb_core::QueryRelaxer::relax`] against the epoch reported in the
/// [`ServeResult`] — caching, sharding, single-flight, and swaps are all
/// invisible in the results.
pub struct RelaxServer {
    store: SnapshotStore,
    cache: ResultCache,
    config: ServeConfig,
    in_flight: AtomicUsize,
    metrics: Option<ServeMetrics>,
}

impl RelaxServer {
    /// Build over an ingested world. Observability comes from
    /// `relax_config.obs`: when a registry is attached, both the serve
    /// metrics and the underlying `relax.*` metrics record into it.
    pub fn new(ingested: IngestOutput, relax_config: RelaxConfig, config: ServeConfig) -> Self {
        let metrics = relax_config.obs.registry().map(ServeMetrics::resolve);
        let retired = relax_config
            .obs
            .registry()
            .map(|r| r.counter(obs_names::SNAPSHOT_RETIRED));
        let evictions = relax_config
            .obs
            .registry()
            .map(|r| r.counter(obs_names::CACHE_EVICTIONS));
        let store = SnapshotStore::with_retired_counter(ingested, relax_config, retired);
        let cache =
            ResultCache::with_eviction_counter(config.shards, config.shard_capacity, evictions);
        if let Some(m) = &metrics {
            m.epoch.set(0);
        }
        Self { store, cache, config, in_flight: AtomicUsize::new(0), metrics }
    }

    /// Serve `[term, context]` with an instance budget of `k`.
    ///
    /// The term is normalized once, up front, and that normalized form is
    /// used both as the cache key and as the computation input — so two
    /// spellings that normalize identically share one entry *and* one
    /// computation, and a key match always implies an input match.
    ///
    /// # Errors
    /// [`MedKbError::Overloaded`] when shed (admission bound or deadline) —
    /// retryable; [`MedKbError::NotFound`] when the term resolves to no
    /// concept — not retryable, and never cached.
    pub fn serve(&self, term: &str, context: Option<ContextId>, k: usize) -> Result<ServeResult> {
        self.serve_with_deadline(term, context, k, self.config_deadline())
    }

    /// [`RelaxServer::serve`] against an explicit absolute deadline
    /// (e.g. propagated from a network request header). `None` disables
    /// deadline enforcement for this request regardless of
    /// [`ServeConfig::deadline`]; callers that want the config default
    /// should go through [`RelaxServer::serve`].
    pub fn serve_with_deadline(
        &self,
        term: &str,
        context: Option<ContextId>,
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<ServeResult> {
        self.serve_key(QueryKey::Term(medkb_text::normalize(term)), context, k, deadline)
    }

    /// [`RelaxServer::serve`] from an already-resolved query concept.
    pub fn serve_concept(
        &self,
        query: ExtConceptId,
        context: Option<ContextId>,
        k: usize,
    ) -> Result<ServeResult> {
        self.serve_concept_with_deadline(query, context, k, self.config_deadline())
    }

    /// [`RelaxServer::serve_concept`] against an explicit absolute deadline
    /// (see [`RelaxServer::serve_with_deadline`]).
    pub fn serve_concept_with_deadline(
        &self,
        query: ExtConceptId,
        context: Option<ContextId>,
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<ServeResult> {
        self.serve_key(QueryKey::Concept(query), context, k, deadline)
    }

    /// The per-request absolute deadline the config implies, started now.
    fn config_deadline(&self) -> Option<Instant> {
        self.config.deadline.map(|d| Instant::now() + d)
    }

    /// Record a shed in the metrics and build the error.
    fn shed(&self, detail: impl Into<String>) -> MedKbError {
        if let Some(m) = &self.metrics {
            m.shed.inc();
        }
        MedKbError::overloaded(detail)
    }

    fn serve_key(
        &self,
        query: QueryKey,
        context: Option<ContextId>,
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<ServeResult> {
        let _span = self.metrics.as_ref().map(|m| m.latency.time());

        // Admission: bounded in-flight gauge, load-shed distinct from
        // NotFound. The guard keeps the count exact on every exit path.
        let in_flight = self.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        let _guard =
            InFlightGuard(&self.in_flight, self.metrics.as_ref().map(|m| &*m.in_flight));
        if let Some(m) = &self.metrics {
            m.in_flight.set(in_flight as u64);
        }
        if in_flight > self.config.max_in_flight.max(1) {
            return Err(self.shed(format!(
                "{in_flight} requests in flight (limit {})",
                self.config.max_in_flight.max(1)
            )));
        }
        // A request that arrives already past its deadline is dead on
        // arrival: the client gave up, so even a cache probe is wasted
        // work. This is also what makes the batch path's between-query
        // re-check shed instead of completing (the regression the
        // `expired_mid_batch_deadline_sheds` test pins).
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return Err(self.shed("deadline exceeded before admission"));
            }
        }

        // Pin the epoch for the whole request: key and computation both use
        // this snapshot, so a concurrent publish can't mix epochs.
        let snap: Arc<Snapshot> = self.store.load();
        let key = CacheKey {
            query: query.clone(),
            context,
            fingerprint: snap.fingerprint(),
            k,
            epoch: snap.epoch(),
        };

        // Timed fast-path probe (the common case under a warm cache).
        let probe_started = Instant::now();
        let probed = self.cache.get(&key);
        if let Some(m) = &self.metrics {
            m.lookup.record(probe_started.elapsed().as_micros() as u64);
        }
        if let Some(v) = probed {
            if let Some(m) = &self.metrics {
                m.hits.inc();
            }
            return Ok(ServeResult { result: v, epoch: snap.epoch(), served_from: ServedFrom::Cache });
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return Err(self.shed("deadline exceeded before computation"));
            }
        }

        let (value, lookup) = self.cache.get_or_compute(key, deadline, || match &query {
            QueryKey::Term(t) => snap.relaxer().relax(t, context, k),
            QueryKey::Concept(c) => snap.relaxer().relax_concept(*c, context, k),
        })?;
        let served_from = match lookup {
            // Lost a race: completed between the probe and the read-through.
            Lookup::Hit => ServedFrom::Cache,
            Lookup::Miss => ServedFrom::Computed,
            Lookup::Joined => ServedFrom::SharedFlight,
        };
        if let Some(m) = &self.metrics {
            match served_from {
                ServedFrom::Cache => m.hits.inc(),
                ServedFrom::Computed => m.misses.inc(),
                ServedFrom::SharedFlight => {
                    // A join is a hit from the traffic perspective (no
                    // Algorithm 2 ran for it) and separately visible.
                    m.hits.inc();
                    m.joins.inc();
                }
            }
        }
        Ok(ServeResult { result: value, epoch: snap.epoch(), served_from })
    }

    /// Serve a batch of already-resolved queries, sharded over scoped
    /// threads, results in input order. Mirrors
    /// [`medkb_core::QueryRelaxer::relax_concepts_batch`] but reads through
    /// the cache, so repeated queries within and across batches compute
    /// once per epoch.
    ///
    /// [`ServeConfig::deadline`] bounds the **whole batch**, not each
    /// query: the deadline starts once at batch entry and is re-checked
    /// between queries inside every shard, so work the batch can no longer
    /// finish in time is shed with [`MedKbError::Overloaded`] instead of
    /// running arbitrarily past the deadline (one slow prefix used to buy
    /// every later query a fresh full deadline).
    pub fn serve_concepts_batch(
        &self,
        queries: &[(ExtConceptId, Option<ContextId>)],
        k: usize,
    ) -> Vec<Result<ServeResult>> {
        self.serve_concepts_batch_with_threads(queries, k, par::cores())
    }

    /// [`RelaxServer::serve_concepts_batch`] with an explicit thread count.
    pub fn serve_concepts_batch_with_threads(
        &self,
        queries: &[(ExtConceptId, Option<ContextId>)],
        k: usize,
        threads: usize,
    ) -> Vec<Result<ServeResult>> {
        self.serve_concepts_batch_with_deadline(queries, k, threads, self.config_deadline())
    }

    /// [`RelaxServer::serve_concepts_batch_with_threads`] against an
    /// explicit absolute deadline shared by the whole batch (the network
    /// front end propagates a request header here). Every shard re-checks
    /// the deadline before each query it serves; once it has passed, the
    /// remaining slots come back as [`MedKbError::Overloaded`] — late work
    /// is shed, never silently completed.
    pub fn serve_concepts_batch_with_deadline(
        &self,
        queries: &[(ExtConceptId, Option<ContextId>)],
        k: usize,
        threads: usize,
        deadline: Option<Instant>,
    ) -> Vec<Result<ServeResult>> {
        par::shard_map(queries.len(), threads, |i| {
            let (q, ctx) = queries[i];
            self.serve_concept_with_deadline(q, ctx, k, deadline)
        })
    }

    /// Publish a re-ingested world as the next epoch and return its number.
    /// In-flight readers keep their pinned epoch; new requests key against
    /// the new one, which implicitly invalidates every cached entry (the
    /// epoch is part of the key — stale entries age out of the LRU).
    pub fn publish(&self, ingested: IngestOutput) -> u64 {
        let epoch = self.store.publish(ingested);
        if let Some(m) = &self.metrics {
            m.swaps.inc();
            m.epoch.set(epoch);
        }
        epoch
    }

    /// Publish the world persisted at `path` (a `WorldStore` directory) as
    /// the next epoch — the hot-reload entry point the HTTP front end's
    /// `/reload` endpoint drives. Same epoch-swap semantics as
    /// [`RelaxServer::publish`].
    ///
    /// # Errors
    /// Propagates `WorldStore::open` failures (missing/corrupt store);
    /// the currently published epoch is untouched on error.
    pub fn publish_from_store(&self, path: &std::path::Path) -> Result<u64> {
        let epoch = self.store.publish_from_store(path)?;
        if let Some(m) = &self.metrics {
            m.swaps.inc();
            m.epoch.set(epoch);
        }
        Ok(epoch)
    }

    /// The currently published snapshot (readers may hold it across swaps).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.load()
    }

    /// The currently published epoch number.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Resident cache entries (across all shards, all epochs).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

impl fmt::Debug for RelaxServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RelaxServer")
            .field("epoch", &self.epoch())
            .field("cache_len", &self.cache.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}
