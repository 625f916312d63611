//! Endpoint routing and JSON rendering (DESIGN.md §16).
//!
//! The router is transport-free: it maps one parsed [`Request`] (plus the
//! peer identity and arrival instant) to a status + JSON body, so the
//! whole endpoint surface is testable without sockets. The connection
//! loop in `http::mod` owns the bytes on either side.
//!
//! Endpoints:
//!
//! | method+path    | body                                        | answer |
//! |----------------|---------------------------------------------|--------|
//! | `POST /relax`  | `{"term"\|"concept", "context"?, "k"?}`     | one served result |
//! | `POST /batch`  | `{"queries":[{"concept","context"?}],"k"?}` | per-query results |
//! | `POST /explain`| `{"query","candidate","context"?}`          | Eq. 1–5 derivation |
//! | `POST /reload` | `{"path"}`                                  | new epoch |
//! | `GET /health`  | —                                           | liveness + epoch |
//! | `GET /metrics` | —                                           | registry snapshot |
//!
//! `/health` answers 503 once the coalesce dispatcher has stopped, since
//! every coalesced `/relax` then fails.
//!
//! Error statuses follow the server's error taxonomy: `NotFound` → 404,
//! `Overloaded` (shed/deadline/rate limit) → 429, invalid input → 400,
//! anything else → 500. The deadline header `x-medkb-deadline-ms` turns
//! into an absolute [`Instant`] at parse time and rides the existing
//! admission-control deadline path end to end.

use std::sync::Arc;
use std::time::{Duration, Instant};

use medkb_obs::{escape, Counter, Histogram, Json, Registry};
use medkb_types::{par, ContextId, ExtConceptId, MedKbError};

use crate::http::coalesce::{Coalescer, DISPATCHER_STOPPED};
use crate::http::parser::Request;
use crate::http::shaping::RateLimiter;
use crate::http::obs_names;
use crate::{RelaxServer, ServeResult, ServedFrom};

/// Client-supplied deadline header: milliseconds from request arrival.
pub const DEADLINE_HEADER: &str = "x-medkb-deadline-ms";
/// Client identity header for rate limiting (falls back to peer IP).
pub const CLIENT_HEADER: &str = "x-medkb-client";

/// The one source name a single-source deployment serves (DESIGN.md §17).
/// [`RelaxServer`] holds exactly one world, which federation terms make
/// source 0 of a one-entry registry; a request pinning any other source
/// name gets the federated error-taxonomy 404. Multi-source serving goes
/// through [`medkb_core::FederatedRelaxer`] directly.
pub const SINGLE_SOURCE_NAME: &str = "primary";

/// Upper bound on `k` a request may ask for.
const MAX_K: usize = 4096;
/// Upper bound on `/batch` fan-out per request.
const MAX_BATCH_QUERIES: usize = 4096;

/// A routed response: status plus a JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body (always non-empty).
    pub body: String,
}

impl Response {
    fn ok(body: String) -> Self {
        Self { status: 200, body }
    }

    fn error(status: u16, detail: &str) -> Self {
        Self { status, body: format!("{{\"error\":{}}}", escape(detail)) }
    }

    /// Serialize as HTTP/1.1 response bytes.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let conn = if keep_alive { "keep-alive" } else { "close" };
        format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\
             connection: {}\r\n\r\n{}",
            self.status,
            status_text(self.status),
            self.body.len(),
            conn,
            self.body
        )
        .into_bytes()
    }
}

/// Reason phrases for the statuses this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

struct RouterMetrics {
    requests: Arc<Counter>,
    ok: Arc<Counter>,
    client_error: Arc<Counter>,
    rate_limited: Arc<Counter>,
    shed: Arc<Counter>,
    server_error: Arc<Counter>,
    request_us: Arc<Histogram>,
    deadline_propagated: Arc<Counter>,
}

impl RouterMetrics {
    fn resolve(registry: &Registry) -> Self {
        Self {
            requests: registry.counter(obs_names::REQUESTS),
            ok: registry.counter(obs_names::RESPONSES_OK),
            client_error: registry.counter(obs_names::RESPONSES_CLIENT_ERROR),
            rate_limited: registry.counter(obs_names::RESPONSES_RATE_LIMITED),
            shed: registry.counter(obs_names::RESPONSES_SHED),
            server_error: registry.counter(obs_names::RESPONSES_SERVER_ERROR),
            request_us: registry.latency(obs_names::REQUEST_US),
            deadline_propagated: registry.counter(obs_names::DEADLINE_PROPAGATED),
        }
    }
}

/// The endpoint surface over one [`RelaxServer`].
pub struct Router {
    server: Arc<RelaxServer>,
    registry: Option<Arc<Registry>>,
    limiter: RateLimiter,
    coalescer: Option<Coalescer>,
    default_k: usize,
    metrics: Option<RouterMetrics>,
}

impl Router {
    /// Assemble the routing surface. `coalescer: None` serves every
    /// `/relax` inline (used by tests and single-user deployments).
    pub fn new(
        server: Arc<RelaxServer>,
        registry: Option<Arc<Registry>>,
        limiter: RateLimiter,
        coalescer: Option<Coalescer>,
        default_k: usize,
    ) -> Self {
        let metrics = registry.as_deref().map(RouterMetrics::resolve);
        Self { server, registry, limiter, coalescer, default_k, metrics }
    }

    /// Route one request. `peer` is the connection's remote IP (the rate
    /// limit fallback key); `now` is the request's arrival instant.
    pub fn handle(&self, req: &Request, peer: &str, now: Instant) -> Response {
        let started = Instant::now();
        if let Some(m) = &self.metrics {
            m.requests.inc();
        }
        let response = self.dispatch(req, peer, now);
        if let Some(m) = &self.metrics {
            m.request_us.record(started.elapsed().as_micros() as u64);
            match response.status {
                200 => m.ok.inc(),
                429 => m.shed.inc(),
                s if (400..500).contains(&s) => m.client_error.inc(),
                _ => m.server_error.inc(),
            }
        }
        response
    }

    fn dispatch(&self, req: &Request, peer: &str, now: Instant) -> Response {
        // Shaping first: a rate-limited client must not cost a body parse,
        // let alone a relaxation.
        let client = req.header(CLIENT_HEADER).unwrap_or(peer);
        if !self.limiter.try_admit(client, now) {
            if let Some(m) = &self.metrics {
                m.rate_limited.inc();
            }
            return Response::error(429, &format!("client {client:?} over rate limit"));
        }
        let deadline = match req.header(DEADLINE_HEADER) {
            None => None,
            Some(v) => match v.parse::<u64>() {
                Ok(ms) => {
                    if let Some(m) = &self.metrics {
                        m.deadline_propagated.inc();
                    }
                    Some(now + Duration::from_millis(ms))
                }
                Err(_) => {
                    return Response::error(
                        400,
                        &format!("bad {DEADLINE_HEADER} value {v:?} (want milliseconds)"),
                    )
                }
            },
        };
        match (req.method.as_str(), req.path()) {
            ("GET", "/health") => {
                let (status, state) = match &self.coalescer {
                    Some(c) if c.stopped() => (503, DISPATCHER_STOPPED),
                    _ => (200, "ok"),
                };
                let body = format!("{{\"status\":\"{state}\",\"epoch\":{}}}", self.server.epoch());
                Response { status, body }
            }
            ("GET", "/metrics") => match &self.registry {
                Some(r) => Response::ok(r.snapshot().to_json()),
                None => Response::error(404, "no metrics registry attached"),
            },
            ("POST", "/relax") => self.relax(req, deadline),
            ("POST", "/batch") => self.batch(req, deadline),
            ("POST", "/explain") => self.explain(req),
            ("POST", "/reload") => self.reload(req),
            (_, "/health" | "/metrics" | "/relax" | "/batch" | "/explain" | "/reload") => {
                Response::error(405, &format!("method {} not allowed here", req.method))
            }
            (_, path) => Response::error(404, &format!("no such endpoint {path:?}")),
        }
    }

    fn relax(&self, req: &Request, deadline: Option<Instant>) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(r) => return r,
        };
        let k = match field_k(&body, self.default_k) {
            Ok(k) => k,
            Err(r) => return r,
        };
        let context = match field_context(&body, "context") {
            Ok(c) => c,
            Err(r) => return r,
        };
        // Optional source pin: this deployment serves one source, so any
        // other name is the federated unknown-source 404.
        if let Some(v) = body.get("source") {
            let Some(name) = v.as_str() else {
                return Response::error(400, "\"source\" must be a string");
            };
            if name != SINGLE_SOURCE_NAME {
                return error_response(&MedKbError::not_found("source", name));
            }
        }
        // Accept either a free-text term (resolved against the current
        // epoch, exactly like `RelaxServer::serve`) or a pre-resolved
        // concept id. Both funnel into the concept path so concurrent
        // users coalesce into one `relax_concepts_batch`.
        let concept: ExtConceptId = match (body.get("term"), body.get("concept")) {
            (Some(t), None) => {
                let Some(term) = t.as_str() else {
                    return Response::error(400, "\"term\" must be a string");
                };
                match self.server.snapshot().relaxer().resolve_term(term) {
                    Ok(c) => c,
                    Err(e) => return error_response(&e),
                }
            }
            (None, Some(c)) => match c.as_u64() {
                Some(raw) if raw <= u64::from(u32::MAX) => ExtConceptId::new(raw as u32),
                _ => return Response::error(400, "\"concept\" must be a u32 id"),
            },
            _ => {
                return Response::error(400, "body must have exactly one of \"term\"/\"concept\"")
            }
        };
        let served = match &self.coalescer {
            Some(c) => c.submit(concept, context, k, deadline),
            None => self.server.serve_concept_with_deadline(concept, context, k, deadline),
        };
        match served {
            Ok(sr) => Response::ok(render_serve_result(&sr)),
            Err(e) => error_response(&e),
        }
    }

    fn batch(&self, req: &Request, deadline: Option<Instant>) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(r) => return r,
        };
        let k = match field_k(&body, self.default_k) {
            Ok(k) => k,
            Err(r) => return r,
        };
        let Some(items) = body.get("queries").and_then(Json::as_arr) else {
            return Response::error(400, "\"queries\" must be an array");
        };
        if items.len() > MAX_BATCH_QUERIES {
            return Response::error(
                400,
                &format!("at most {MAX_BATCH_QUERIES} queries per batch"),
            );
        }
        let mut queries: Vec<(ExtConceptId, Option<ContextId>)> =
            Vec::with_capacity(items.len());
        for item in items {
            let Some(raw) = item.get("concept").and_then(Json::as_u64) else {
                return Response::error(400, "each query needs a \"concept\" u32 id");
            };
            if raw > u64::from(u32::MAX) {
                return Response::error(400, "\"concept\" must be a u32 id");
            }
            let context = match field_context(item, "context") {
                Ok(c) => c,
                Err(r) => return r,
            };
            queries.push((ExtConceptId::new(raw as u32), context));
        }
        let results =
            self.server.serve_concepts_batch_with_deadline(&queries, k, par::cores(), deadline);
        let rows: Vec<String> = results
            .iter()
            .map(|r| match r {
                Ok(sr) => format!("{{\"status\":200,\"value\":{}}}", render_serve_result(sr)),
                Err(e) => {
                    let er = error_response(e);
                    format!("{{\"status\":{},\"value\":{}}}", er.status, er.body)
                }
            })
            .collect();
        Response::ok(format!(
            "{{\"epoch\":{},\"results\":[{}]}}",
            self.server.epoch(),
            rows.join(",")
        ))
    }

    fn explain(&self, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(r) => return r,
        };
        let (query, candidate) = match (
            body.get("query").and_then(Json::as_u64),
            body.get("candidate").and_then(Json::as_u64),
        ) {
            (Some(q), Some(c)) if q <= u64::from(u32::MAX) && c <= u64::from(u32::MAX) => {
                (ExtConceptId::new(q as u32), ExtConceptId::new(c as u32))
            }
            _ => return Response::error(400, "\"query\" and \"candidate\" must be u32 ids"),
        };
        let context = match field_context(&body, "context") {
            Ok(c) => c,
            Err(r) => return r,
        };
        let snap = self.server.snapshot();
        let text = match snap.relaxer().explain(query, candidate, context) {
            Ok(t) => t,
            Err(e) => return error_response(&e),
        };
        Response::ok(format!(
            "{{\"epoch\":{},\"explanation\":{}}}",
            snap.epoch(),
            escape(&text)
        ))
    }

    fn reload(&self, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(r) => return r,
        };
        let Some(path) = body.get("path").and_then(Json::as_str) else {
            return Response::error(400, "\"path\" must be a string (a WorldStore directory)");
        };
        match self.server.publish_from_store(std::path::Path::new(path)) {
            Ok(epoch) => Response::ok(format!("{{\"epoch\":{epoch}}}")),
            Err(e) => error_response(&e),
        }
    }
}

fn parse_body(req: &Request) -> std::result::Result<Json, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Response::error(400, "body is not UTF-8"))?;
    Json::parse(text).map_err(|e| Response::error(400, &format!("bad JSON body: {e}")))
}

fn field_k(body: &Json, default_k: usize) -> std::result::Result<usize, Response> {
    match body.get("k") {
        None => Ok(default_k),
        Some(v) => match v.as_u64() {
            Some(k) if (1..=MAX_K as u64).contains(&k) => Ok(k as usize),
            _ => Err(Response::error(400, &format!("\"k\" must be in 1..={MAX_K}"))),
        },
    }
}

fn field_context(body: &Json, key: &str) -> std::result::Result<Option<ContextId>, Response> {
    match body.get(key) {
        None => Ok(None),
        Some(v) if v.is_null() => Ok(None),
        Some(v) => match v.as_u64() {
            Some(raw) if raw <= u64::from(u32::MAX) => Ok(Some(ContextId::new(raw as u32))),
            _ => Err(Response::error(400, &format!("{key:?} must be a u32 id or null"))),
        },
    }
}

/// Map a serving error to its wire status + body.
fn error_response(e: &MedKbError) -> Response {
    let status = match e {
        MedKbError::NotFound { .. } => 404,
        MedKbError::Overloaded { .. } => 429,
        MedKbError::InvalidArgument { .. } | MedKbError::Validation { .. } => 400,
        _ => 500,
    };
    Response::error(status, &e.to_string())
}

/// Render one [`ServeResult`] as the response envelope. Floats use Rust's
/// `{:?}` (shortest round-trip) formatting, which is what makes the wire
/// bytes a faithful function of the in-process `f64`s — the bench asserts
/// wire answers bit-identical to in-process ones through this renderer.
pub fn render_serve_result(sr: &ServeResult) -> String {
    format!(
        "{{\"epoch\":{},\"served_from\":{},\"result\":{}}}",
        sr.epoch,
        escape(served_from_label(sr.served_from)),
        render_relaxation(&sr.result)
    )
}

/// Stable wire labels for [`ServedFrom`].
pub fn served_from_label(sf: ServedFrom) -> &'static str {
    match sf {
        ServedFrom::Cache => "cache",
        ServedFrom::Computed => "computed",
        ServedFrom::SharedFlight => "shared_flight",
    }
}

/// Render a [`medkb_core::RelaxationResult`] as its wire JSON object.
/// Public so the bench can compare over-the-wire bytes to in-process
/// results rendered identically.
///
/// Every answer carries a `"source"` id for federated provenance
/// (DESIGN.md §17). A [`RelaxServer`] holds one world, so the id is
/// always 0 — the name-sorted index a one-entry registry would assign —
/// which keeps the wire shape identical between single-source serving and
/// federated results rendered elsewhere.
pub fn render_relaxation(r: &medkb_core::RelaxationResult) -> String {
    let answers: Vec<String> = r
        .answers
        .iter()
        .map(|a| {
            let instances: Vec<String> =
                a.instances.iter().map(|i| i.raw().to_string()).collect();
            format!(
                "{{\"concept\":{},\"score\":{:?},\"hops\":{},\"source\":0,\"instances\":[{}]}}",
                a.concept.raw(),
                a.score,
                a.hops,
                instances.join(",")
            )
        })
        .collect();
    format!(
        "{{\"query_concept\":{},\"radius_used\":{},\"answers\":[{}]}}",
        r.query_concept.raw(),
        r.radius_used,
        answers.join(",")
    )
}

/// The connection loop's response for parse-level errors (no routed
/// request exists yet) — same envelope shape as endpoint errors.
pub(crate) fn parse_error_response(status: u16, detail: &str) -> Response {
    Response::error(status, detail)
}

/// Convenience used in tests: route a body-bearing POST.
#[cfg(test)]
pub(crate) fn post(target: &str, body: &str) -> Request {
    Request {
        method: "POST".into(),
        target: target.into(),
        http11: true,
        headers: vec![("content-length".into(), body.len().to_string())],
        body: body.as_bytes().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_texts_cover_emitted_codes() {
        for s in [200, 400, 404, 405, 413, 429, 431, 500, 501, 503] {
            assert_ne!(status_text(s), "Response", "{s} needs a phrase");
        }
    }

    #[test]
    fn response_bytes_frame_the_body() {
        let r = Response::ok("{\"x\":1}".into());
        let bytes = r.to_bytes(true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 7\r\n"), "{text}");
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"x\":1}"), "{text}");
        let closed = String::from_utf8(r.to_bytes(false)).unwrap();
        assert!(closed.contains("connection: close\r\n"), "{closed}");
    }

    #[test]
    fn error_taxonomy_maps_to_wire_statuses() {
        assert_eq!(error_response(&MedKbError::overloaded("x")).status, 429);
        assert_eq!(error_response(&MedKbError::not_found("concept", "y")).status, 404);
        assert_eq!(error_response(&MedKbError::invalid("z")).status, 400);
        assert_eq!(
            error_response(&MedKbError::Corrupt { detail: "w".into() }).status,
            500
        );
    }
}
