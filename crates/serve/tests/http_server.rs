//! Socket-level tests for the HTTP front end: everything the
//! transport-free router tests cannot see — real `TcpStream`s, split
//! writes, pipelining, keep-alive, connection teardown on poisoned
//! parses, cross-connection coalescing, hot reload, and the wire
//! bit-identity contract against in-process serving.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use medkb_core::{ingest, IngestOutput, MappingMethod, ObsConfig, QueryRelaxer, RelaxConfig};
use medkb_corpus::MentionCounts;
use medkb_fuzz::AdversarialWorld;
use medkb_obs::Registry;
use medkb_serve::http::{obs_names, CoalesceConfig, HttpConfig, ParseLimits, RateLimitConfig};
use medkb_serve::{HttpServer, RelaxServer, ServeConfig};
use medkb_snomed::oracle::N_TAGS;
use medkb_store::WorldStore;
use medkb_types::ExtConceptId;

fn counts(w: &AdversarialWorld, salt: u64) -> MentionCounts {
    let mut direct: HashMap<ExtConceptId, [u64; N_TAGS]> = HashMap::new();
    for (i, c) in w.ekg.concepts().enumerate() {
        let i = i as u64;
        let mut row = [0u64; N_TAGS];
        row[0] = (i * 7 + salt * 13) % 50;
        row[1] = (i * 3 + salt * 5) % 30;
        direct.insert(c, row);
    }
    MentionCounts::from_direct(direct, HashMap::new(), 40 + salt as usize)
}

fn world(seed: u64, salt: u64, config: &RelaxConfig) -> (AdversarialWorld, IngestOutput) {
    let w = AdversarialWorld::generate(seed);
    let out = ingest(&w.kb, w.ekg.clone(), &counts(&w, salt), None, config).unwrap();
    (w, out)
}

fn exact_config() -> RelaxConfig {
    RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() }
}

/// Minimal blocking HTTP/1.1 client: send one request, read one response
/// (Content-Length framed), return `(status, body)`.
fn roundtrip(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String) {
    let mut req = format!("{method} {path} HTTP/1.1\r\n");
    for (n, v) in headers {
        req.push_str(&format!("{n}: {v}\r\n"));
    }
    req.push_str(&format!("content-length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(req.as_bytes()).unwrap();
    read_response(stream)
}

/// Read one Content-Length-framed response off the stream.
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "connection closed mid-response: {:?}", String::from_utf8_lossy(&buf));
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end]).unwrap().to_string();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head:?}"));
    let content_length: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(String::from))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length header");
    while buf.len() < header_end + content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body =
        String::from_utf8(buf[header_end..header_end + content_length].to_vec()).unwrap();
    // Keep any pipelined surplus out of this simple client: tests that
    // pipeline frame their own reads.
    assert_eq!(buf.len(), header_end + content_length, "unexpected surplus bytes");
    (status, body)
}

fn connect(server: &HttpServer) -> TcpStream {
    let s = TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

#[test]
fn wire_answers_bit_identical_to_in_process_serving() {
    let config = exact_config();
    let (w, out) = world(3, 1, &config);
    let plain = QueryRelaxer::new(out.clone(), config.clone());
    let server = Arc::new(RelaxServer::new(out, config, ServeConfig::default()));
    let http = HttpServer::start(Arc::clone(&server), None, HttpConfig::default()).unwrap();

    let mut stream = connect(&http);
    for q in w.query_concepts().into_iter().take(8) {
        let (status, body) = roundtrip(
            &mut stream,
            "POST",
            "/relax",
            &[],
            &format!("{{\"concept\":{},\"k\":5}}", q.raw()),
        );
        assert_eq!(status, 200, "{body}");
        // The wire `result` object must be byte-for-byte the in-process
        // answer through the shared renderer — scores included.
        let direct = plain.relax_concept(q, None, 5).unwrap();
        let want = medkb_serve::http::render_relaxation(&direct);
        assert!(
            body.ends_with(&format!("\"result\":{want}}}")),
            "wire/in-process divergence for {q:?}:\n  wire: {body}\n  want: {want}"
        );
        // And the in-process serving layer agrees with itself.
        let served = server.serve_concept(q, None, 5).unwrap();
        assert_eq!(*served.result, direct);
    }
    http.shutdown();
}

#[test]
fn keep_alive_pipelining_and_split_writes_over_socket() {
    let config = exact_config();
    let (w, out) = world(4, 1, &config);
    let server = Arc::new(RelaxServer::new(out, config, ServeConfig::default()));
    let http = HttpServer::start(server, None, HttpConfig::default()).unwrap();
    let q = w.query_concepts()[0];

    // Two requests in one write (pipelined), then one split byte-by-byte —
    // all on one keep-alive connection.
    let mut stream = connect(&http);
    let body = format!("{{\"concept\":{},\"k\":3}}", q.raw());
    let one = format!(
        "POST /relax HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(format!("{one}{one}").as_bytes()).unwrap();
    let (s1, b1) = read_two_pipelined(&mut stream);
    assert_eq!(s1, (200, 200), "{b1:?}");

    let health = b"GET /health HTTP/1.1\r\n\r\n";
    for &byte in health.iter() {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
    }
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    http.shutdown();
}

/// Read two pipelined Content-Length responses off one stream.
fn read_two_pipelined(stream: &mut TcpStream) -> ((u16, u16), (String, String)) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut parsed: Vec<(u16, String)> = Vec::new();
    let mut offset = 0usize;
    while parsed.len() < 2 {
        if let Some(pos) = buf[offset..].windows(4).position(|w| w == b"\r\n\r\n") {
            let header_end = offset + pos + 4;
            let head = std::str::from_utf8(&buf[offset..header_end]).unwrap();
            let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
            let len: usize = head
                .lines()
                .find_map(|l| {
                    l.to_ascii_lowercase().strip_prefix("content-length:").map(String::from)
                })
                .and_then(|v| v.trim().parse().ok())
                .unwrap();
            if buf.len() >= header_end + len {
                let body =
                    String::from_utf8(buf[header_end..header_end + len].to_vec()).unwrap();
                parsed.push((status, body));
                offset = header_end + len;
                continue;
            }
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "closed with {} responses parsed", parsed.len());
        buf.extend_from_slice(&chunk[..n]);
    }
    let b = parsed.pop().unwrap();
    let a = parsed.pop().unwrap();
    ((a.0, b.0), (a.1, b.1))
}

#[test]
fn malformed_and_oversized_requests_close_with_4xx() {
    let config = exact_config();
    let (_w, out) = world(5, 1, &config);
    let server = Arc::new(RelaxServer::new(out, config, ServeConfig::default()));
    let http = HttpServer::start(
        server,
        None,
        HttpConfig {
            parse_limits: ParseLimits { max_header_bytes: 256, max_body_bytes: 128 },
            ..HttpConfig::default()
        },
    )
    .unwrap();

    // Malformed request line → 400, connection closed after.
    let mut stream = connect(&http);
    stream.write_all(b"TOTAL GARBAGE\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 400);
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "connection must close");

    // Oversized headers → 431 even though the request never completes.
    let mut stream = connect(&http);
    stream.write_all(b"GET / HTTP/1.1\r\n").unwrap();
    stream.write_all(&[b'a'; 512]).unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 431);

    // Oversized declared body → 413 before the body even arrives.
    let mut stream = connect(&http);
    stream.write_all(b"POST /relax HTTP/1.1\r\ncontent-length: 4096\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 413);

    // A Transfer-Encoding other than chunked → 501 (unimplemented
    // framing, not a silent guess).
    let mut stream = connect(&http);
    stream.write_all(b"POST /relax HTTP/1.1\r\ntransfer-encoding: gzip\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 501);

    // Transfer-Encoding + Content-Length is the request-smuggling shape → 400.
    let mut stream = connect(&http);
    stream
        .write_all(
            b"POST /relax HTTP/1.1\r\ntransfer-encoding: chunked\r\ncontent-length: 4\r\n\r\n",
        )
        .unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 400);

    // A well-formed chunked body decodes and is served like any other.
    let mut stream = connect(&http);
    stream
        .write_all(
            b"POST /explain HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n\
              c\r\n{\"query\": 0,\r\n10\r\n \"candidate\": 0}\r\n0\r\n\r\n",
        )
        .unwrap();
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200, "chunked body must route: {body}");

    // A connection dropped mid-body leaves the server healthy.
    let mut stream = connect(&http);
    stream.write_all(b"POST /relax HTTP/1.1\r\ncontent-length: 64\r\n\r\n{\"co").unwrap();
    drop(stream);
    let mut stream = connect(&http);
    let (status, body) = roundtrip(&mut stream, "GET", "/health", &[], "");
    assert_eq!(status, 200, "{body}");
    http.shutdown();
}

#[test]
fn rate_limited_client_sees_429_while_others_serve() {
    let config = exact_config();
    let (w, out) = world(6, 1, &config);
    let server = Arc::new(RelaxServer::new(out, config, ServeConfig::default()));
    let registry = Registry::shared();
    let http = HttpServer::start(
        server,
        Some(Arc::clone(&registry)),
        HttpConfig {
            rate_limit: RateLimitConfig { rate_per_sec: 0.001, burst: 2.0 },
            ..HttpConfig::default()
        },
    )
    .unwrap();
    let q = w.query_concepts()[0];
    let body = format!("{{\"concept\":{},\"k\":3}}", q.raw());

    let mut greedy = connect(&http);
    let mut seen_429 = 0;
    for _ in 0..4 {
        let (status, _) =
            roundtrip(&mut greedy, "POST", "/relax", &[("x-medkb-client", "greedy")], &body);
        if status == 429 {
            seen_429 += 1;
        }
    }
    assert!(seen_429 >= 2, "greedy client must hit the bucket limit");

    // A politely-paced client on its own identity is untouched.
    let mut polite = connect(&http);
    let (status, polite_body) =
        roundtrip(&mut polite, "POST", "/relax", &[("x-medkb-client", "polite")], &body);
    assert_eq!(status, 200, "{polite_body}");
    // The token bucket's counter saw exactly the greedy client's 429s.
    let rate_limited = registry.snapshot().counter(obs_names::RESPONSES_RATE_LIMITED);
    assert_eq!(rate_limited, seen_429);
    http.shutdown();
}

#[test]
fn deadline_header_propagates_into_admission_control() {
    let config = exact_config();
    let (w, out) = world(7, 1, &config);
    let server = Arc::new(RelaxServer::new(out, config, ServeConfig::default()));
    let http = HttpServer::start(
        server,
        None,
        // Coalescing off so the deadline path under test is the direct
        // serve path, not the coalescer's shed-at-dispatch.
        HttpConfig { coalesce: None, ..HttpConfig::default() },
    )
    .unwrap();
    let q = w.query_concepts()[0];
    let body = format!("{{\"concept\":{},\"k\":3}}", q.raw());

    let mut stream = connect(&http);
    // 0 ms budget: already expired at routing — shed with 429, same
    // Overloaded taxonomy as in-process admission control.
    let (status, resp) =
        roundtrip(&mut stream, "POST", "/relax", &[("x-medkb-deadline-ms", "0")], &body);
    assert_eq!(status, 429, "{resp}");
    assert!(resp.contains("deadline"), "{resp}");
    // A sane budget serves.
    let (status, resp) =
        roundtrip(&mut stream, "POST", "/relax", &[("x-medkb-deadline-ms", "30000")], &body);
    assert_eq!(status, 200, "{resp}");
    // A malformed header is a client error, not a silent default.
    let (status, resp) =
        roundtrip(&mut stream, "POST", "/relax", &[("x-medkb-deadline-ms", "soon")], &body);
    assert_eq!(status, 400, "{resp}");
    http.shutdown();
}

#[test]
fn concurrent_connections_coalesce_into_batches() {
    let registry = Registry::shared();
    let config = RelaxConfig {
        obs: ObsConfig::with_registry(Arc::clone(&registry)),
        ..exact_config()
    };
    let (w, out) = world(8, 1, &config);
    let server = Arc::new(RelaxServer::new(out, config, ServeConfig::default()));
    let http = HttpServer::start(
        server,
        Some(Arc::clone(&registry)),
        HttpConfig {
            // A wide window so every concurrent connection lands in one
            // dispatch regardless of scheduling jitter.
            coalesce: Some(CoalesceConfig { window: Duration::from_millis(150), max_batch: 64 }),
            ..HttpConfig::default()
        },
    )
    .unwrap();
    let queries: Vec<ExtConceptId> = w.query_concepts().into_iter().take(6).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .map(|&q| {
                let http = &http;
                scope.spawn(move || {
                    let mut stream = connect(http);
                    roundtrip(
                        &mut stream,
                        "POST",
                        "/relax",
                        &[],
                        &format!("{{\"concept\":{},\"k\":3}}", q.raw()),
                    )
                })
            })
            .collect();
        for h in handles {
            let (status, body) = h.join().unwrap();
            assert_eq!(status, 200, "{body}");
        }
    });
    let snap = registry.snapshot();
    assert!(
        snap.counter(medkb_serve::http::obs_names::COALESCE_JOINED) >= 2,
        "concurrent connections must coalesce (joined={})",
        snap.counter(medkb_serve::http::obs_names::COALESCE_JOINED)
    );
    http.shutdown();
}

#[test]
fn hot_reload_over_http_swaps_the_epoch() {
    let config = exact_config();
    let (w, out_a) = world(9, 1, &config);
    let out_b = ingest(&w.kb, w.ekg.clone(), &counts(&w, 2), None, &config).unwrap();
    let plain_b = QueryRelaxer::new(out_b.clone(), config.clone());
    let path =
        std::env::temp_dir().join(format!("medkb-http-reload-{}.bin", std::process::id()));
    WorldStore::save(&out_b, &path).unwrap();

    let server = Arc::new(RelaxServer::new(out_a, config, ServeConfig::default()));
    let http = HttpServer::start(Arc::clone(&server), None, HttpConfig::default()).unwrap();
    let mut stream = connect(&http);

    let (status, body) = roundtrip(&mut stream, "GET", "/health", &[], "");
    assert_eq!(status, 200);
    assert!(body.contains("\"epoch\":0"), "{body}");

    let (status, body) = roundtrip(
        &mut stream,
        "POST",
        "/reload",
        &[],
        &format!("{{\"path\":{}}}", medkb_obs::escape(path.to_str().unwrap())),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"epoch\":1"), "{body}");
    let _ = std::fs::remove_file(&path);

    // Answers now come from the new world, bit-identical to in-process.
    let q = w.query_concepts()[0];
    let (status, body) = roundtrip(
        &mut stream,
        "POST",
        "/relax",
        &[],
        &format!("{{\"concept\":{},\"k\":5}}", q.raw()),
    );
    assert_eq!(status, 200, "{body}");
    let want = medkb_serve::http::render_relaxation(&plain_b.relax_concept(q, None, 5).unwrap());
    assert!(body.ends_with(&format!("\"result\":{want}}}")), "{body}");
    assert!(body.contains("\"epoch\":1"), "{body}");

    // A bogus path fails without disturbing the published epoch.
    let (status, _) =
        roundtrip(&mut stream, "POST", "/reload", &[], r#"{"path":"/no/such/store.bin"}"#);
    assert!(status >= 400, "bogus reload must fail");
    let (status, body) = roundtrip(&mut stream, "GET", "/health", &[], "");
    assert_eq!(status, 200);
    assert!(body.contains("\"epoch\":1"), "{body}");
    http.shutdown();
}

#[test]
fn metrics_endpoint_serves_the_http_family() {
    let registry = Registry::shared();
    let config = RelaxConfig {
        obs: ObsConfig::with_registry(Arc::clone(&registry)),
        ..exact_config()
    };
    let (w, out) = world(10, 1, &config);
    let server = Arc::new(RelaxServer::new(out, config, ServeConfig::default()));
    let http =
        HttpServer::start(server, Some(Arc::clone(&registry)), HttpConfig::default()).unwrap();
    let q = w.query_concepts()[0];

    let mut stream = connect(&http);
    let (status, _) = roundtrip(
        &mut stream,
        "POST",
        "/relax",
        &[],
        &format!("{{\"concept\":{},\"k\":3}}", q.raw()),
    );
    assert_eq!(status, 200);
    let (status, body) = roundtrip(&mut stream, "GET", "/metrics", &[], "");
    assert_eq!(status, 200);
    assert!(medkb_obs::validate_json(&body), "metrics must be valid JSON");
    for key in ["http.requests", "http.responses.ok", "http.connections", "http.request_us"] {
        assert!(body.contains(key), "metrics missing {key}: {body}");
    }
    http.shutdown();
}

/// A default-config front end over a fresh world, plus a known query
/// concept, its in-process answer at k = 5, and an id past the end of
/// the graph.
fn unknown_id_fixture(seed: u64) -> (HttpServer, ExtConceptId, String, u32) {
    let config = exact_config();
    let (w, out) = world(seed, 1, &config);
    let q = w.query_concepts()[0];
    let want = medkb_serve::http::render_relaxation(
        &QueryRelaxer::new(out.clone(), config.clone())
            .relax_concept(q, None, 5)
            .unwrap(),
    );
    let unknown = w.ekg.len() as u32 + 1000;
    let server = Arc::new(RelaxServer::new(out, config, ServeConfig::default()));
    let http = HttpServer::start(server, None, HttpConfig::default()).unwrap();
    (http, q, want, unknown)
}

/// An unknown concept id is a 404, and the next `/relax` after it still
/// serves.
#[test]
fn unknown_concept_relax_is_404_and_the_next_relax_serves() {
    let (http, q, want, unknown) = unknown_id_fixture(11);
    let mut stream = connect(&http);
    let (status, body) = roundtrip(
        &mut stream,
        "POST",
        "/relax",
        &[],
        &format!("{{\"concept\":{unknown}}}"),
    );
    assert_eq!(status, 404, "{body}");
    let (status, body) = roundtrip(
        &mut stream,
        "POST",
        "/relax",
        &[],
        &format!("{{\"concept\":{},\"k\":5}}", q.raw()),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.ends_with(&format!("\"result\":{want}}}")), "{body}");
    http.shutdown();
}

/// One unknown id in a `/batch` gets its own 404 slot; the good slot
/// still answers, bit-identical to in-process serving.
#[test]
fn unknown_concept_in_batch_is_a_404_slot() {
    let (http, q, want, unknown) = unknown_id_fixture(12);
    let mut stream = connect(&http);
    let (status, body) = roundtrip(
        &mut stream,
        "POST",
        "/batch",
        &[],
        &format!(
            "{{\"queries\":[{{\"concept\":{}}},{{\"concept\":{unknown}}}],\"k\":5}}",
            q.raw()
        ),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"results\":[{\"status\":200,"), "{body}");
    assert!(
        body.contains(&format!("\"result\":{want}}}}},{{\"status\":404,")),
        "{body}"
    );
    http.shutdown();
}

/// `/explain` with an unknown query or candidate id is a 404.
#[test]
fn unknown_concept_explain_is_404() {
    let (http, q, _, unknown) = unknown_id_fixture(13);
    let mut stream = connect(&http);
    for (query, candidate) in [(q.raw(), unknown), (unknown, q.raw())] {
        let (status, body) = roundtrip(
            &mut stream,
            "POST",
            "/explain",
            &[],
            &format!("{{\"query\":{query},\"candidate\":{candidate}}}"),
        );
        assert_eq!(status, 404, "{body}");
    }
    http.shutdown();
}

/// A panic under the coalescer's dispatcher fails the request it was
/// serving and every later `/relax` fast, with a 429, instead of leaving
/// them parked on slots nobody fills. The panic comes from a published
/// world whose reachability index belongs to a one-concept world, so the
/// bounded scan's first ancestry probe indexes out of range.
#[test]
fn dispatcher_panic_fails_its_callers_instead_of_stranding_them() {
    let config = exact_config();
    let (w, out) = world(14, 1, &config);
    let mut lone = medkb_ekg::EkgBuilder::new();
    lone.concept("root");
    let mut broken = out.clone();
    broken.reach = Arc::new(medkb_ekg::ReachabilityIndex::build(&lone.build().unwrap()));
    let server = Arc::new(RelaxServer::new(out, config, ServeConfig::default()));
    let http = HttpServer::start(Arc::clone(&server), None, HttpConfig::default()).unwrap();
    server.publish(broken);

    let mut stream = connect(&http);
    let (status, body) = roundtrip(&mut stream, "GET", "/health", &[], "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    for q in w.query_concepts().into_iter().take(3) {
        let (status, body) = roundtrip(
            &mut stream,
            "POST",
            "/relax",
            &[],
            &format!("{{\"concept\":{},\"k\":1}}", q.raw()),
        );
        assert_eq!(status, 429, "{body}");
        assert!(body.contains("coalesce dispatcher stopped"), "{body}");
    }
    // Health reports the dead dispatcher instead of answering ok.
    let (status, body) = roundtrip(&mut stream, "GET", "/health", &[], "");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"status\":\"coalesce dispatcher stopped\""), "{body}");
    http.shutdown();
}
