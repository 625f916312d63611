//! std-only HTTP/1.1 front end for [`RelaxServer`] (DESIGN.md §16).
//!
//! ROADMAP item 2: the serving layer (PR 5) had admission control, a
//! result cache, and epoch swaps but no network surface. This module adds
//! one without leaving the standard library (vendor policy: no registry
//! access, so no tokio/hyper):
//!
//! * **acceptor** — one thread parked in `accept()`; each accepted
//!   connection gets its own handler thread (connections are long-lived
//!   and keep-alive by default, so per-connection threads amortize well);
//! * **parser** ([`RequestParser`]) — incremental, robust to split reads
//!   and pipelining, with hard header/body limits;
//! * **router** ([`Router`]) — JSON endpoints `relax`, `batch`,
//!   `explain`, `reload`, `metrics`, `health`;
//! * **shaping** ([`RateLimiter`]) — per-client token buckets answering
//!   429 before any relaxation work is spent;
//! * **coalescer** ([`Coalescer`]) — concurrent `/relax` requests from
//!   different connections merge into one
//!   [`RelaxServer::serve_concepts_batch_with_deadline`] call.
//!
//! Deadlines propagate from the `x-medkb-deadline-ms` header into the
//! same admission-control deadline the in-process API uses, and
//! `/reload` drives [`RelaxServer::publish_from_store`] for hot world
//! swaps — the HTTP layer adds no second copy of either mechanism.

pub mod coalesce;
pub mod parser;
pub mod router;
pub mod shaping;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use medkb_obs::Registry;

pub use coalesce::{Coalescer, CoalesceConfig};
pub use medkb_obs::Json;
pub use parser::{ParseError, ParseLimits, Request, RequestParser};
pub use router::{
    render_relaxation, render_serve_result, served_from_label, Response, Router, CLIENT_HEADER,
    DEADLINE_HEADER, SINGLE_SOURCE_NAME,
};
pub use shaping::{RateLimitConfig, RateLimiter};

use crate::RelaxServer;

/// Metric names the HTTP layer registers (the `http.*` family).
pub mod obs_names {
    /// Connections accepted (counter).
    pub const CONNECTIONS: &str = "http.connections";
    /// Requests routed (counter).
    pub const REQUESTS: &str = "http.requests";
    /// 200 responses (counter).
    pub const RESPONSES_OK: &str = "http.responses.ok";
    /// 4xx responses other than 429 (counter).
    pub const RESPONSES_CLIENT_ERROR: &str = "http.responses.client_error";
    /// 429 responses from the token bucket specifically (counter; a
    /// subset of [`RESPONSES_SHED`]).
    pub const RESPONSES_RATE_LIMITED: &str = "http.responses.rate_limited";
    /// All 429 responses — rate limit, admission shed, blown deadline
    /// (counter).
    pub const RESPONSES_SHED: &str = "http.responses.shed";
    /// 5xx responses (counter).
    pub const RESPONSES_SERVER_ERROR: &str = "http.responses.server_error";
    /// Connections poisoned by a malformed/oversized request (counter).
    pub const PARSE_ERRORS: &str = "http.parse_errors";
    /// Routed request latency, parse excluded (µs histogram).
    pub const REQUEST_US: &str = "http.request_us";
    /// Coalesced dispatches with ≥ 2 members (counter).
    pub const COALESCE_BATCHES: &str = "http.coalesce.batches";
    /// Dispatches that found only one member queued (counter).
    pub const COALESCE_SINGLES: &str = "http.coalesce.singles";
    /// Requests that rode a multi-member batch (counter).
    pub const COALESCE_JOINED: &str = "http.coalesce.joined";
    /// Members per dispatch (histogram, bounds 1..128).
    pub const COALESCE_BATCH_SIZE: &str = "http.coalesce.batch_size";
    /// Requests that carried an `x-medkb-deadline-ms` header (counter).
    pub const DEADLINE_PROPAGATED: &str = "http.deadline.propagated";
}

/// `k` used when a request omits it.
const DEFAULT_K: usize = 10;

/// Socket read timeout — the cadence at which idle keep-alive connections
/// notice server shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address; port 0 picks an ephemeral port (tests, tier1 smoke).
    pub addr: String,
    /// Per-client token bucket; `rate_per_sec == 0` disables limiting
    /// (negative or non-finite values are rejected by [`HttpServer::start`]).
    pub rate_limit: RateLimitConfig,
    /// Cross-connection coalescing; `None` serves `/relax` inline.
    pub coalesce: Option<CoalesceConfig>,
    /// Parser limits (header/body size caps).
    pub parse_limits: ParseLimits,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            rate_limit: RateLimitConfig::default(),
            coalesce: Some(CoalesceConfig::default()),
            parse_limits: ParseLimits::default(),
        }
    }
}

/// The running front end. Dropping it (or calling
/// [`HttpServer::shutdown`]) stops the acceptor; handler threads drain
/// as their connections close or hit the read-timeout shutdown check.
pub struct HttpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind and start serving `server` per `config`.
    ///
    /// # Errors
    /// Propagates bind failures from the listener socket, and
    /// rejects a degenerate [`RateLimitConfig`] (negative/non-finite
    /// rate, non-positive burst) before any socket is touched.
    pub fn start(
        server: Arc<RelaxServer>,
        registry: Option<Arc<Registry>>,
        config: HttpConfig,
    ) -> std::io::Result<Self> {
        // `rate_per_sec == 0.0` is the documented opt-out; any other
        // degenerate value is a configuration bug, not a disable request.
        let limiter = if config.rate_limit.limiting_requested() {
            RateLimiter::new(config.rate_limit).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
            })?
        } else {
            RateLimiter::disabled()
        };
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let coalescer = config
            .coalesce
            .map(|c| Coalescer::start(Arc::clone(&server), c, registry.as_deref()));
        let router = Arc::new(Router::new(server, registry.clone(), limiter, coalescer, DEFAULT_K));
        let stop = Arc::new(AtomicBool::new(false));
        let connections = registry.as_deref().map(|r| r.counter(obs_names::CONNECTIONS));
        let parse_errors = registry.as_deref().map(|r| r.counter(obs_names::PARSE_ERRORS));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let limits = config.parse_limits;
            std::thread::Builder::new()
                .name("medkb-http-accept".into())
                .spawn(move || {
                    let connections = connections.as_deref();
                    accept_loop(&listener, &router, &stop, limits, connections, parse_errors);
                })
                .expect("spawn http acceptor")
        };
        Ok(Self { local_addr, stop, acceptor: Some(acceptor) })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting and join the acceptor thread.
    pub fn shutdown(mut self) {
        self.stop_acceptor();
    }

    fn stop_acceptor(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            self.stop.store(true, Ordering::SeqCst);
            // The acceptor is parked in a blocking `accept()`; poke it
            // awake with a throwaway connection so it observes the flag.
            let _ = TcpStream::connect(self.local_addr);
            let _ = acceptor.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_acceptor();
    }
}

fn accept_loop(
    listener: &TcpListener,
    router: &Arc<Router>,
    stop: &Arc<AtomicBool>,
    limits: ParseLimits,
    connections: Option<&medkb_obs::Counter>,
    parse_errors: Option<Arc<medkb_obs::Counter>>,
) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(c) => c,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if let Some(c) = connections {
            c.inc();
        }
        let router = Arc::clone(router);
        let stop = Arc::clone(stop);
        let parse_errors = parse_errors.clone();
        // Handler threads are detached: they exit on client EOF, on a
        // poisoned parse, or at the next read-timeout tick after
        // shutdown. The acceptor must get back to `accept()` immediately.
        let _ = std::thread::Builder::new().name("medkb-http-conn".into()).spawn(move || {
            handle_connection(
                stream,
                peer,
                &router,
                &stop,
                limits,
                parse_errors.as_deref(),
            );
        });
    }
}

fn handle_connection(
    mut stream: TcpStream,
    peer: SocketAddr,
    router: &Router,
    stop: &AtomicBool,
    limits: ParseLimits,
    parse_errors: Option<&medkb_obs::Counter>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let peer_ip = peer.ip().to_string();
    let mut parser = RequestParser::new(limits);
    let mut buf = [0u8; 16 * 1024];
    loop {
        // Drain everything already buffered (pipelining) before blocking
        // on the socket again.
        loop {
            match parser.next_request() {
                Ok(Some(req)) => {
                    let keep_alive = !req.wants_close();
                    let response = router.handle(&req, &peer_ip, Instant::now());
                    if stream.write_all(&response.to_bytes(keep_alive)).is_err() {
                        return;
                    }
                    if !keep_alive {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Framing is unrecoverable past a bad request:
                    // answer with its status and drop the connection.
                    if let Some(c) = parse_errors {
                        c.inc();
                    }
                    let response =
                        router::parse_error_response(e.status(), &e.to_string());
                    let _ = stream.write_all(&response.to_bytes(false));
                    return;
                }
            }
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => parser.push(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle keep-alive tick: loop to re-check the stop flag.
            }
            Err(_) => return,
        }
    }
}
