//! The closed-loop load generator: request catalogs, per-connection
//! streams, and the client threads that drive them over loopback.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::Instant;

use medkb_core::QueryRelaxer;
use medkb_types::{ContextId, ExtConceptId};

use crate::stream::{self, Form};
use crate::trace::{Clock, Span};
use crate::wire::{self, Conn};

/// Instance budget of every request.
pub const K: usize = 10;
/// Besides each (query, epoch)'s first answer, every this-many-th response
/// of a connection is kept and checked.
pub const CHECK_EVERY: usize = 16;
/// Leading modifier words for [`Form::Modified`] terms.
const MODIFIERS: [&str; 4] = ["severe", "acute", "chronic", "mild"];

/// Request bytes for every query of a workload, in each [`Form`].
pub struct Catalog {
    /// The query concepts.
    pub concepts: Vec<ExtConceptId>,
    /// Per concept: request bytes for `Concept`, `Term` and `Modified`.
    requests: Vec<[Vec<u8>; 3]>,
    /// Per concept: the term text of `Term` and `Modified` (None when the
    /// form falls back to the concept id).
    terms: Vec<[Option<String>; 2]>,
}

fn form_slot(form: Form) -> usize {
    match form {
        Form::Concept => 0,
        Form::Term => 1,
        Form::Modified => 2,
    }
}

impl Catalog {
    /// Build request bytes for `concepts`. A term form is used only where
    /// it resolves back to its concept, so no request of the stream can
    /// 404; otherwise that form falls back to the concept id.
    pub fn new(concepts: &[ExtConceptId], context: ContextId, relaxer: &QueryRelaxer) -> Self {
        let ekg = &relaxer.ingested().ekg;
        let mut requests = Vec::with_capacity(concepts.len());
        let mut terms = Vec::with_capacity(concepts.len());
        for (i, &c) in concepts.iter().enumerate() {
            let name = ekg.name(c).to_string();
            let modified = format!("{} {name}", MODIFIERS[i % MODIFIERS.len()]);
            let resolves = |t: &str| relaxer.resolve_term(t).ok() == Some(c);
            let term = resolves(&name).then_some(name);
            let modified = resolves(&modified).then_some(modified);
            let by_id = body(&format!("\"concept\":{}", c.raw()), context);
            let by_term = |t: &Option<String>| match t {
                Some(t) => body(&format!("\"term\":{}", wire::json_string(t)), context),
                None => by_id.clone(),
            };
            requests.push([by_id.clone(), by_term(&term), by_term(&modified)]);
            terms.push([term, modified]);
        }
        Self {
            concepts: concepts.to_vec(),
            requests,
            terms,
        }
    }

    /// Request bytes of item `i` in `form`.
    pub fn request(&self, i: usize, form: Form) -> &[u8] {
        &self.requests[i][form_slot(form)]
    }

    /// The term item `i` carries in `form`, if it is sent as a term.
    pub fn term(&self, i: usize, form: Form) -> Option<&str> {
        match form {
            Form::Concept => None,
            Form::Term => self.terms[i][0].as_deref(),
            Form::Modified => self.terms[i][1].as_deref(),
        }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }
}

fn body(query: &str, context: ContextId) -> Vec<u8> {
    wire::post(
        "/relax",
        &format!("{{{query},\"context\":{},\"k\":{K}}}", context.raw()),
    )
}

/// One connection's request sequence: catalog indices and forms.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Catalog index per request.
    pub items: Vec<usize>,
    /// Form per request.
    pub forms: Vec<Form>,
}

impl Lane {
    /// A zipf(1.07) lane over `n` items (the hot stream).
    pub fn zipf(n: usize, len: usize, seed: u64) -> Self {
        Self {
            items: stream::zipf_indices(n, len, 1.07, stream::sub_seed(seed, 1)),
            forms: stream::forms(len, stream::sub_seed(seed, 2)),
        }
    }

    /// Each of `n` items once, in a seeded order (the miss stream). Every
    /// pass sends the same queries, so runs of any seed measure the same
    /// mix of relaxation costs.
    pub fn shuffled(n: usize, seed: u64) -> Self {
        Self {
            items: stream::permutation(n, stream::sub_seed(seed, 1)),
            forms: stream::forms(n, stream::sub_seed(seed, 2)),
        }
    }
}

/// Where a served answer came from, as the wire reported it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// `"cache"`.
    Cache,
    /// `"computed"`.
    Computed,
    /// `"shared_flight"`.
    Shared,
    /// No parseable envelope (an error response).
    Unknown,
}

impl Served {
    /// From the wire label.
    pub fn parse(label: &str) -> Self {
        match label {
            "cache" => Self::Cache,
            "computed" => Self::Computed,
            "shared_flight" => Self::Shared,
            _ => Self::Unknown,
        }
    }

    /// The wire label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Cache => "cache",
            Self::Computed => "computed",
            Self::Shared => "shared_flight",
            Self::Unknown => "?",
        }
    }
}

/// One completed (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Catalog index.
    pub item: usize,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
    /// HTTP status (0 for a transport error).
    pub status: u16,
    /// Epoch the answer reports (0 when unparseable).
    pub epoch: u64,
    /// Provenance the answer reports.
    pub from: Served,
    /// The body, kept for the answer check.
    pub body: Option<String>,
}

impl Sample {
    /// Round trip in ms.
    pub fn rtt_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// Served without running Algorithm 2 for this request.
    pub fn hit(&self) -> bool {
        matches!(self.from, Served::Cache | Served::Shared)
    }
}

/// How long a closed loop runs: at least `seconds`, and each lane stops
/// only at the end of a pass, after a multiple of `pass` requests.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Nominal length.
    pub seconds: f64,
    /// Requests per pass (1: stop after any request).
    pub pass: usize,
}

impl Window {
    /// `seconds`, ending after whatever request is in flight.
    pub fn fixed(seconds: f64) -> Self {
        Self { seconds, pass: 1 }
    }
}

/// Result of one closed-loop phase.
pub struct Driven {
    /// Every request, all lanes.
    pub samples: Vec<Sample>,
    /// Client spans (traced runs).
    pub spans: Vec<Span>,
    /// First send to last completion, seconds.
    pub elapsed_s: f64,
}

impl Driven {
    /// Completed requests per second.
    pub fn qps(&self) -> f64 {
        self.samples.len() as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Drive one closed-loop connection per lane against `addr` for `window`.
/// Each connection sends its next request when the previous reply is in.
pub fn drive(
    addr: SocketAddr,
    catalog: &Catalog,
    lanes: &[Lane],
    clock: &Clock,
    window: Window,
    traced: bool,
) -> Driven {
    let started = Instant::now();
    let start_ns = clock.now_ns();
    let per_lane: Vec<(Vec<Sample>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .enumerate()
            .map(|(lane_ix, lane)| {
                scope.spawn(move || {
                    run_lane(addr, catalog, lane_ix, lane, clock, window, started, traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client lane panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for (s, sp) in per_lane {
        samples.extend(s);
        spans.extend(sp);
    }
    let end_ns = samples.iter().map(|s| s.end_ns).max().unwrap_or(start_ns);
    Driven {
        samples,
        spans,
        elapsed_s: (end_ns - start_ns) as f64 / 1e9,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_lane(
    addr: SocketAddr,
    catalog: &Catalog,
    lane_ix: usize,
    lane: &Lane,
    clock: &Clock,
    window: Window,
    started: Instant,
    traced: bool,
) -> (Vec<Sample>, Vec<Span>) {
    let mut conn = Conn::open(addr).expect("connect to the front end");
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    let mut seen: HashSet<(usize, u64)> = HashSet::new();
    for seq in 0.. {
        if seq % window.pass == 0 && started.elapsed().as_secs_f64() >= window.seconds {
            break;
        }
        let at = seq % lane.items.len();
        let (item, form) = (lane.items[at], lane.forms[at]);
        let start_ns = clock.now_ns();
        let reply = conn.round_trip(catalog.request(item, form));
        let end_ns = clock.now_ns();
        let request = ((lane_ix as u64) << 32) | seq as u64;
        clock.record(
            traced.then_some(&mut spans),
            "wire.relax",
            None,
            request,
            start_ns,
            end_ns,
        );
        let sample = match reply {
            Ok(r) => {
                let (epoch, from) = wire::envelope(&r.body)
                    .map_or((0, Served::Unknown), |(e, f)| (e, Served::parse(f)));
                let keep =
                    r.status == 200 && (seen.insert((item, epoch)) || seq % CHECK_EVERY == 0);
                Sample {
                    item,
                    start_ns,
                    end_ns,
                    status: r.status,
                    epoch,
                    from,
                    body: keep.then_some(r.body),
                }
            }
            Err(e) => {
                eprintln!("[perfbench] lane {lane_ix}: transport error: {e}");
                conn = Conn::open(addr).expect("reconnect to the front end");
                Sample {
                    item,
                    start_ns,
                    end_ns,
                    status: 0,
                    epoch: 0,
                    from: Served::Unknown,
                    body: None,
                }
            }
        };
        samples.push(sample);
    }
    (samples, spans)
}

/// Send every catalog item once (concept form) so the cache holds them.
pub fn warm(addr: SocketAddr, catalog: &Catalog) {
    let mut conn = Conn::open(addr).expect("connect to the front end");
    for i in 0..catalog.len() {
        let r = conn
            .round_trip(catalog.request(i, Form::Concept))
            .expect("warm-up request");
        assert_eq!(r.status, 200, "warm-up request failed: {}", r.body);
    }
}
