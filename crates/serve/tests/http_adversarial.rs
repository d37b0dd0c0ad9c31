//! Adversarial coverage of the HTTP surface: every malformed, hostile
//! or just plain weird input must produce a `4xx`/`5xx` **JSON error
//! document** (or, for peers that never say anything, a dropped
//! connection) — never a panic, never a hung worker, and the server
//! must keep answering `/healthz` afterwards.
//!
//! Two layers: a vendored corpus of hand-written evil requests (each
//! pinned to its exact expected status), and property tests feeding
//! proptest-generated byte noise and JSON-shaped garbage through a real
//! socket.

use std::net::SocketAddr;
use std::time::Duration;

use mcm_core::json::Json;
use mcm_serve::{client, Server, ServerConfig, ShutdownHandle};
use proptest::prelude::*;

/// Short socket timeout so slow-peer probes resolve in milliseconds.
fn boot() -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        read_timeout: Duration::from_millis(300),
        max_body_bytes: 64 * 1024,
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run().expect("server runs"));
    (addr, handle, runner)
}

fn assert_error_document(body: &str, status: u16) {
    let doc = Json::parse(body)
        .unwrap_or_else(|e| panic!("error body must be valid JSON ({e}): {body}"));
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("error"));
    assert_eq!(
        doc.get("status").and_then(Json::as_i64),
        Some(i64::from(status))
    );
    assert!(doc.get("message").and_then(Json::as_str).is_some());
}

fn assert_healthy(addr: SocketAddr) {
    let health = client::get(addr, "/healthz").expect("healthz after abuse");
    assert_eq!(health.status, 200, "server must survive adversarial input");
}

/// The vendored corpus: `(label, raw request bytes, expected status)`.
/// A `\r\n\r\n`-terminated head is sent verbatim; nothing is inferred.
fn corpus() -> Vec<(&'static str, Vec<u8>, u16)> {
    let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
    let huge_header = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "p".repeat(9000)
    );
    let nested = format!(
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        400,
        "[".repeat(200) + &"]".repeat(200)
    );
    vec![
        ("empty request line", b"\r\n\r\n".to_vec(), 400),
        ("bare word", b"WAT\r\n\r\n".to_vec(), 400),
        ("missing version", b"GET /healthz\r\n\r\n".to_vec(), 400),
        ("http2 preface", b"PRI * HTTP/2.0\r\n\r\n".to_vec(), 400),
        ("unsupported version", b"GET /healthz HTTP/3 \r\n\r\n".to_vec(), 400),
        ("lowercase method", b"get /healthz HTTP/1.1\r\n\r\n".to_vec(), 400),
        ("relative target", b"GET healthz HTTP/1.1\r\n\r\n".to_vec(), 400),
        ("extra request-line field", b"GET /x HTTP/1.1 zap\r\n\r\n".to_vec(), 400),
        ("header without colon", b"GET /healthz HTTP/1.1\r\nNoColon\r\n\r\n".to_vec(), 400),
        (
            "header name with space",
            b"GET /healthz HTTP/1.1\r\nBad Name: 1\r\n\r\n".to_vec(),
            400,
        ),
        ("oversized request target", long_target.into_bytes(), 400),
        ("oversized header block", huge_header.into_bytes(), 400),
        (
            "unknown method on known path",
            b"DELETE /query HTTP/1.1\r\n\r\n".to_vec(),
            405,
        ),
        (
            "wrong method on healthz",
            b"POST /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_vec(),
            405,
        ),
        ("unknown path", b"GET /favicon.ico HTTP/1.1\r\n\r\n".to_vec(), 404),
        (
            "post without content-length",
            b"POST /query HTTP/1.1\r\n\r\n".to_vec(),
            411,
        ),
        (
            "unparseable content-length",
            b"POST /query HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(),
            400,
        ),
        (
            "negative content-length",
            b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n".to_vec(),
            400,
        ),
        (
            "fractional content-length",
            b"POST /query HTTP/1.1\r\nContent-Length: 4.2\r\n\r\n".to_vec(),
            400,
        ),
        (
            "oversized content-length",
            b"POST /query HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n".to_vec(),
            413,
        ),
        (
            "astronomically oversized content-length",
            b"POST /query HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n".to_vec(),
            413,
        ),
        (
            "chunked transfer encoding",
            b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n0\r\n\r\n"
                .to_vec(),
            501,
        ),
        (
            "body longer than declared",
            b"POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\n{\"query\": \"catalog\"}"
                .to_vec(),
            400,
        ),
        (
            "non-utf8 body",
            b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\n\xff\xfe\x80\x81".to_vec(),
            400,
        ),
        (
            "non-json body",
            b"POST /query HTTP/1.1\r\nContent-Length: 12\r\n\r\nhello world!".to_vec(),
            400,
        ),
        (
            "unknown query kind",
            br#"POST /query HTTP/1.1
Content-Length: 21

{"query": "teleport"}"#
                .iter()
                .flat_map(|&b| if b == b'\n' { vec![b'\r', b'\n'] } else { vec![b] })
                .collect(),
            400,
        ),
        ("deeply nested json body", nested.into_bytes(), 400),
    ]
}

#[test]
fn corpus_of_evil_requests_each_yield_their_status_and_an_error_document() {
    let (addr, handle, runner) = boot();
    for (label, raw, expected) in corpus() {
        let response = client::send_raw(addr, &raw, Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("{label}: no response ({e})"));
        assert_eq!(response.status, expected, "{label}: {}", response.body);
        assert_error_document(&response.body, expected);
        assert_eq!(
            response.header("connection"),
            Some("close"),
            "{label}: errors must close the connection"
        );
    }
    assert_healthy(addr);
    handle.shutdown();
    runner.join().expect("clean shutdown");
}

#[test]
fn truncated_bodies_and_silent_peers_time_out_as_4xx() {
    let (addr, handle, runner) = boot();
    // Truncated body: promises 400 bytes, sends 20, then stays silent.
    // The 300ms read timeout converts the stall into a response.
    let truncated = b"POST /query HTTP/1.1\r\nContent-Length: 400\r\n\r\n{\"query\": \"sweep\"";
    let response = client::send_raw(addr, truncated, Duration::from_secs(5)).expect("answered");
    assert_eq!(response.status, 408, "{}", response.body);
    assert_error_document(&response.body, 408);

    // A peer that connects and sends half a request line.
    let stalled = client::send_raw(addr, b"GET /heal", Duration::from_secs(5)).expect("answered");
    assert_eq!(stalled.status, 408, "{}", stalled.body);

    // A peer that connects and says nothing at all: the server may
    // answer 408 or just drop it without a response; either way it must
    // not wedge.
    if let Ok(response) = client::send_raw(addr, b"", Duration::from_secs(5)) {
        assert_eq!(response.status, 408, "{}", response.body);
    }
    assert_healthy(addr);
    handle.shutdown();
    runner.join().expect("clean shutdown");
}

#[test]
fn wire_validation_errors_carry_the_offending_field() {
    let (addr, handle, runner) = boot();
    for (body, needle) in [
        (r#"{"query": "sweep", "warp": 9}"#, "warp"),
        (r#"{"query": "sweep", "checker": "oracle"}"#, "oracle"),
        (r#"{"query": "sweep", "tests": {"file": "/etc/passwd"}}"#, "file"),
        (r#"{"query": "compare", "left": "SC"}"#, "right"),
        (r#"{"query": "sweep", "engine": {"jobs": 0}}"#, "jobs"),
        (r#"{"format": "json"}"#, "query"),
    ] {
        let response = client::post_query(addr, body).expect("answered");
        assert_eq!(response.status, 400, "{body}");
        assert!(
            response.body.contains(needle),
            "`{body}` should name `{needle}`: {}",
            response.body
        );
        assert_error_document(&response.body, 400);
    }
    assert_healthy(addr);
    handle.shutdown();
    runner.join().expect("clean shutdown");
}

#[test]
fn an_oversized_stream_bound_is_a_400_and_the_server_keeps_answering() {
    // `max_locs` past the access count once walked ~10^8 shapes before
    // the first leader and could exhaust the server's memory.
    let (addr, handle, runner) = boot();
    let body = r#"{"query": "sweep", "models": ["SC", "TSO"],
        "tests": {"stream": {"max_accesses": 3, "max_locs": 255, "limit": 10}}}"#;
    let response = client::post_query(addr, body).expect("answered");
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("max_locs"), "{}", response.body);
    assert_error_document(&response.body, 400);
    assert_healthy(addr);
    let ok = client::post_query(addr, r#"{"query": "compare", "left": "TSO", "right": "x86"}"#)
        .expect("answered");
    assert_eq!(ok.status, 200, "{}", ok.body);
    handle.shutdown();
    runner.join().expect("clean shutdown");
}

#[test]
fn an_over_long_litmus_expression_is_a_400_and_the_server_keeps_answering() {
    // A 60,000-term `write X = 1+1+…` once nested the parsed expression
    // once per term and overflowed a worker's stack, aborting the
    // server; the ~120 KB body is well under the default body cap.
    let server = Server::bind(ServerConfig {
        read_timeout: Duration::from_millis(300),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run().expect("server runs"));
    let expr = vec!["1"; 60_000].join("+");
    let litmus = format!("test Long {{ thread {{ write X = {expr} }} outcome {{ }} }}");
    let body = format!(
        r#"{{"query": "check", "model": "TSO", "tests": {{"inline": "{litmus}"}}}}"#
    );
    let response = client::post_query(addr, &body).expect("answered");
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("terms"), "{}", response.body);
    assert_error_document(&response.body, 400);
    assert_healthy(addr);
    let ok = client::post_query(addr, r#"{"query": "compare", "left": "TSO", "right": "x86"}"#)
        .expect("answered");
    assert_eq!(ok.status, 200, "{}", ok.body);
    handle.shutdown();
    runner.join().expect("clean shutdown");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_byte_noise_never_panics_or_hangs_the_server(
        noise in proptest::collection::vec(0u8..=255, 1..=256),
    ) {
        // One shared server across cases would hide per-case crashes
        // behind connection errors, so each case checks health after.
        let (addr, handle, runner) = shared::server();
        // No parseable answer (Err) means the peer — us — was dropped,
        // which is fine as long as the server is still alive below.
        if let Ok(response) = client::send_raw(addr, &noise, Duration::from_secs(5)) {
            prop_assert!(
                (400..=501).contains(&response.status),
                "noise must never succeed: got {} for {:?}",
                response.status,
                &noise[..noise.len().min(32)]
            );
        }
        let health = client::get(addr, "/healthz");
        prop_assert!(health.is_ok(), "server died after noise {:?}", &noise[..noise.len().min(32)]);
        prop_assert_eq!(health.unwrap().status, 200);
        drop((handle, runner));
    }

    #[test]
    fn json_shaped_garbage_is_always_a_400(
        depth in 1usize..=12,
        fields in proptest::collection::vec((0u8..=5, 0u32..1000), 0..=6),
    ) {
        // Build a syntactically valid JSON object that is not a valid
        // wire request: wrong types, unknown fields, nested arrays.
        let mut body = String::from("{");
        for (i, (kind, value)) in fields.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!("\"f{i}\": "));
            match kind {
                0 => body.push_str(&value.to_string()),
                1 => body.push_str(&format!("\"{value}\"")),
                2 => body.push_str("true"),
                3 => body.push_str("null"),
                4 => body.push_str(&format!("[{value}]")),
                _ => body.push_str(&format!("{{\"g\": {value}}}")),
            }
        }
        body.push_str(&"[".repeat(depth));
        // Unbalanced brackets make some cases invalid JSON too — both
        // classes must be a clean 400.
        let (addr, handle, runner) = shared::server();
        let response = client::post_query(addr, &body);
        prop_assert!(response.is_ok(), "no response for {body}");
        let response = response.unwrap();
        prop_assert_eq!(response.status, 400, "{}", &body);
        let health = client::get(addr, "/healthz");
        prop_assert!(health.is_ok() && health.unwrap().status == 200);
        drop((handle, runner));
    }
}

/// One server shared by all property cases (booting per case would
/// dominate runtime); health-checked after every case, torn down when
/// the last handle drops at process exit.
mod shared {
    use super::*;
    use std::sync::OnceLock;

    #[allow(clippy::type_complexity)]
    static SERVER: OnceLock<(SocketAddr, ShutdownHandle)> = OnceLock::new();

    pub fn server() -> (SocketAddr, ShutdownHandle, ()) {
        let (addr, handle) = SERVER.get_or_init(|| {
            let server = Server::bind(ServerConfig {
                read_timeout: Duration::from_millis(300),
                max_body_bytes: 64 * 1024,
                workers: 2,
                ..ServerConfig::default()
            })
            .expect("bind shared adversarial server");
            let addr = server.local_addr();
            let handle = server.shutdown_handle();
            std::thread::spawn(move || server.run().expect("server runs"));
            (addr, handle)
        });
        (*addr, handle.clone(), ())
    }
}
