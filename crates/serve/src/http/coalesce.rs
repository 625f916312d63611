//! Cross-connection request coalescing (DESIGN.md §16).
//!
//! Single-flight (PR 5) already dedups *identical* concurrent queries;
//! coalescing amortizes *distinct* ones. Connection threads enqueue
//! `(query, context, k, deadline)` and block on a per-request slot; a
//! dispatcher thread drains the queue after a short window (or as soon as
//! a batch fills), groups by `k`, and runs each group through
//! [`RelaxServer::serve_concepts_batch_with_deadline`] — so N concurrent
//! users pay one sharded batch instead of N independent serves.
//!
//! If a panic under a dispatch kills the dispatcher, an unwind guard
//! fills every still-empty slot of its batch, and of the queue, with
//! [`MedKbError::Overloaded`] and closes the queue, so the batch's callers
//! get an error instead of parking forever and every later
//! [`Coalescer::submit`] fails fast the same way.
//!
//! Deadline semantics (pinned by tests):
//! * a member already past its deadline **at dispatch** is shed without
//!   entering the batch;
//! * the batch runs under the **latest** member deadline (a member with
//!   `None` disables the batch deadline) — results that complete after an
//!   individual member's deadline are still returned to it, because the
//!   work is done and cached either way and delivering is cheaper than
//!   recomputing on retry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use medkb_obs::{Counter, Histogram, Registry};
use medkb_types::{par, ContextId, ExtConceptId, MedKbError, Result};

use crate::http::obs_names;
use crate::{RelaxServer, ServeResult};

/// Coalescing window parameters.
#[derive(Debug, Clone, Copy)]
pub struct CoalesceConfig {
    /// How long the dispatcher waits after the first enqueue for more
    /// requests to join the batch. Zero still batches whatever is queued
    /// while the previous batch was computing.
    pub window: Duration,
    /// Dispatch immediately once this many requests are queued.
    pub max_batch: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        Self { window: Duration::from_millis(2), max_batch: 64 }
    }
}

struct CoalesceMetrics {
    batches: Arc<Counter>,
    singles: Arc<Counter>,
    joined: Arc<Counter>,
    batch_size: Arc<Histogram>,
}

impl CoalesceMetrics {
    fn resolve(registry: &Registry) -> Self {
        Self {
            batches: registry.counter(obs_names::COALESCE_BATCHES),
            singles: registry.counter(obs_names::COALESCE_SINGLES),
            joined: registry.counter(obs_names::COALESCE_JOINED),
            batch_size: registry
                .histogram(obs_names::COALESCE_BATCH_SIZE, &[1, 2, 4, 8, 16, 32, 64, 128]),
        }
    }
}

/// One caller's parking spot: filled by the dispatcher or, if the
/// dispatcher dies, by its unwind guard. The first fill wins.
struct Slot {
    result: Mutex<Option<Result<ServeResult>>>,
    filled: AtomicBool,
    cv: Condvar,
}

impl Slot {
    fn new() -> Self {
        Self { result: Mutex::new(None), filled: AtomicBool::new(false), cv: Condvar::new() }
    }

    fn fill(&self, value: Result<ServeResult>) {
        if self.filled.swap(true, Ordering::AcqRel) {
            return;
        }
        // Also runs during an unwind, where a second panic would abort.
        let mut guard = self.result.lock().unwrap_or_else(PoisonError::into_inner);
        *guard = Some(value);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<ServeResult> {
        let mut guard = self.result.lock().expect("slot poisoned");
        loop {
            if let Some(v) = guard.take() {
                return v;
            }
            guard = self.cv.wait(guard).expect("slot poisoned");
        }
    }
}

struct Pending {
    query: ExtConceptId,
    context: Option<ContextId>,
    k: usize,
    deadline: Option<Instant>,
    slot: Arc<Slot>,
}

struct Shared {
    queue: Mutex<Queue>,
    cv: Condvar,
}

struct Queue {
    pending: Vec<Pending>,
    /// Why submissions are refused (shutdown, or a dead dispatcher);
    /// `None` while serving.
    closed: Option<&'static str>,
}

const SHUTTING_DOWN: &str = "server shutting down";
pub(crate) const DISPATCHER_STOPPED: &str = "coalesce dispatcher stopped";

/// The coalescer: owns the dispatcher thread; dropped on server shutdown
/// (drains remaining members with [`MedKbError::Overloaded`]).
pub struct Coalescer {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Coalescer {
    /// Start a coalescer over `server`. Metrics (the `http.coalesce.*`
    /// family) record into `registry` when one is attached.
    pub fn start(
        server: Arc<RelaxServer>,
        config: CoalesceConfig,
        registry: Option<&Registry>,
    ) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { pending: Vec::new(), closed: None }),
            cv: Condvar::new(),
        });
        let metrics = registry.map(CoalesceMetrics::resolve);
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("medkb-coalesce".into())
                .spawn(move || dispatch_loop(&shared, &server, config, metrics.as_ref()))
                .expect("spawn coalesce dispatcher")
        };
        Self { shared, dispatcher: Some(dispatcher) }
    }

    /// Enqueue one query and block until the dispatcher delivers its
    /// result. Called from connection threads; never called on the
    /// dispatcher thread.
    pub fn submit(
        &self,
        query: ExtConceptId,
        context: Option<ContextId>,
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<ServeResult> {
        let slot = Arc::new(Slot::new());
        {
            let mut queue = self.shared.queue.lock().expect("coalesce queue poisoned");
            if let Some(why) = queue.closed {
                return Err(MedKbError::overloaded(why));
            }
            queue.pending.push(Pending {
                query,
                context,
                k,
                deadline,
                slot: Arc::clone(&slot),
            });
            self.shared.cv.notify_all();
        }
        slot.wait()
    }

    /// Whether a panic under a dispatch has stopped the dispatcher, so
    /// every [`Coalescer::submit`] now fails with
    /// [`MedKbError::Overloaded`].
    pub fn stopped(&self) -> bool {
        let queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.closed == Some(DISPATCHER_STOPPED)
    }
}

impl Drop for Coalescer {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("coalesce queue poisoned");
            queue.closed.get_or_insert(SHUTTING_DOWN);
            self.shared.cv.notify_all();
        }
        // A dispatcher that died of a panic has already failed its callers.
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        // The dispatcher drains before exiting, but a member enqueued in
        // the race with the shutdown flag could remain — never leave a
        // waiter parked on an unfillable slot.
        let mut queue = self.shared.queue.lock().expect("coalesce queue poisoned");
        for p in queue.pending.drain(..) {
            p.slot.fill(Err(MedKbError::overloaded(SHUTTING_DOWN)));
        }
    }
}

fn dispatch_loop(
    shared: &Shared,
    server: &RelaxServer,
    config: CoalesceConfig,
    metrics: Option<&CoalesceMetrics>,
) {
    loop {
        let drained = {
            let mut queue = shared.queue.lock().expect("coalesce queue poisoned");
            // Sleep until there is work (or shutdown).
            while queue.pending.is_empty() && queue.closed.is_none() {
                queue = shared.cv.wait(queue).expect("coalesce queue poisoned");
            }
            if queue.pending.is_empty() && queue.closed.is_some() {
                return;
            }
            // Hold the door open for the window so concurrent arrivals
            // join this batch; wake early when the batch fills or the
            // server is shutting down.
            let window_ends = Instant::now() + config.window;
            while queue.pending.len() < config.max_batch && queue.closed.is_none() {
                let now = Instant::now();
                if now >= window_ends {
                    break;
                }
                let (q, _timeout) = shared
                    .cv
                    .wait_timeout(queue, window_ends - now)
                    .expect("coalesce queue poisoned");
                queue = q;
            }
            std::mem::take(&mut queue.pending)
        };
        let slots = drained.iter().map(|p| Arc::clone(&p.slot)).collect();
        let _unwind = UnwindGuard { shared, slots };
        serve_batch(server, drained, metrics);
    }
}

/// Held across one dispatch. If [`serve_batch`] unwinds, it closes the
/// queue, then fills every slot of the batch and of the queue with
/// [`MedKbError::Overloaded`] (slots the batch already filled keep their
/// answer), so no caller parks on a dispatcher that is gone.
struct UnwindGuard<'a> {
    shared: &'a Shared,
    slots: Vec<Arc<Slot>>,
}

impl Drop for UnwindGuard<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let queued = {
            let mut queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.closed.get_or_insert(DISPATCHER_STOPPED);
            std::mem::take(&mut queue.pending)
        };
        for slot in self.slots.iter().chain(queued.iter().map(|p| &p.slot)) {
            slot.fill(Err(MedKbError::overloaded(DISPATCHER_STOPPED)));
        }
    }
}

/// Run one drained batch: shed dead-on-arrival members, group survivors
/// by `k`, serve each group as a single sharded batch, deliver per-slot.
fn serve_batch(server: &RelaxServer, drained: Vec<Pending>, metrics: Option<&CoalesceMetrics>) {
    let now = Instant::now();
    let mut groups: HashMap<usize, Vec<Pending>> = HashMap::new();
    for p in drained {
        if p.deadline.is_some_and(|d| now >= d) {
            p.slot
                .fill(Err(MedKbError::overloaded("deadline exceeded in coalesce queue")));
            continue;
        }
        groups.entry(p.k).or_default().push(p);
    }
    for (k, members) in groups {
        if let Some(m) = metrics {
            m.batch_size.record(members.len() as u64);
            if members.len() > 1 {
                m.batches.inc();
                m.joined.add(members.len() as u64);
            } else {
                m.singles.inc();
            }
        }
        // The batch deadline is the most permissive member deadline: a
        // `None` member means the batch must be allowed to finish.
        let batch_deadline = members
            .iter()
            .map(|p| p.deadline)
            .reduce(|a, b| match (a, b) {
                (Some(x), Some(y)) => Some(x.max(y)),
                _ => None,
            })
            .flatten();
        let queries: Vec<(ExtConceptId, Option<ContextId>)> =
            members.iter().map(|p| (p.query, p.context)).collect();
        let results =
            server.serve_concepts_batch_with_deadline(&queries, k, par::cores(), batch_deadline);
        debug_assert_eq!(results.len(), members.len());
        for (p, r) in members.into_iter().zip(results) {
            p.slot.fill(r);
        }
    }
}
