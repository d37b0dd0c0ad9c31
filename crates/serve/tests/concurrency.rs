//! Concurrency contract: N client threads hammering one server with
//! interleaved mixed queries must each see exactly the answer a
//! single-threaded direct run produces, the **shared** cache's hit
//! counter must only ever grow, and a repeat of an identical sweep must
//! be served without a single checker call.
//!
//! Under load — 1,000 mixed requests against four workers — every request
//! is answered, and a repeated sweep is served from the shared cache.
//!
//! Normalization: concurrent runs share the verdict cache, so engine
//! counters (`stats`), cache summaries and wall-clock fields are
//! warmth-dependent; `Json::strip_keys` removes `elapsed_ms`, `stats`,
//! `cache` and `warm` before comparison. Everything else — verdicts,
//! lattices, witnesses, orderings — must match exactly.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use mcm_core::json::Json;
use mcm_query::wire::WireRequest;
use mcm_serve::{client, Server, ServerConfig, ShutdownHandle};

/// Keys whose values legitimately differ between a cold direct run and
/// a warm shared-cache run (`timings` are wall-clock distributions).
const VOLATILE: [&str; 5] = ["elapsed_ms", "stats", "cache", "warm", "timings"];

fn boot(workers: usize) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run().expect("server runs"));
    (addr, handle, runner)
}

fn normalized(body: &str) -> Json {
    let mut doc = Json::parse(body).expect("valid JSON body");
    doc.strip_keys(&VOLATILE);
    doc
}

/// Single-threaded ground truth: the same document, run directly.
fn ground_truth(request: &str) -> Json {
    let wire = WireRequest::parse(request).expect("parses");
    let outcome = wire.spec.run(None).expect("runs");
    normalized(&outcome.report.render(wire.format).expect("renders"))
}

fn statsz(addr: SocketAddr) -> Json {
    let response = client::get(addr, "/statsz").expect("statsz");
    assert_eq!(response.status, 200);
    Json::parse(&response.body).expect("statsz is valid JSON")
}

fn cache_hits(addr: SocketAddr) -> i64 {
    statsz(addr)
        .get("cache")
        .and_then(|cache| cache.get("hits"))
        .and_then(Json::as_i64)
        .expect("cache.hits present")
}

fn engine_counter(addr: SocketAddr, name: &str) -> i64 {
    statsz(addr)
        .get("engine")
        .and_then(|engine| engine.get(name))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("engine.{name} present"))
}

const MIXED: [&str; 6] = [
    r#"{"query": "sweep", "models": ["SC", "TSO", "PSO", "RMO"], "tests": "catalog"}"#,
    r#"{"query": "compare", "left": "TSO", "right": "x86"}"#,
    r#"{"query": "check", "model": "SC", "tests": "catalog", "witness": true}"#,
    r#"{"query": "distinguish", "models": ["SC", "TSO", "PSO"]}"#,
    r#"{"query": "suite"}"#,
    r#"{"query": "sweep", "engine": {"jobs": 2}}"#,
];

#[test]
fn interleaved_mixed_queries_all_match_single_threaded_ground_truth() {
    let (addr, handle, runner) = boot(4);
    let expected: Vec<Json> = MIXED.iter().map(|request| ground_truth(request)).collect();

    let hits_start = cache_hits(addr);
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 3;
    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Every client walks the mix from a different offset,
                    // so distinct kinds genuinely interleave.
                    for i in 0..MIXED.len() {
                        let pick = (client_id + round + i) % MIXED.len();
                        let response = client::post_query(addr, MIXED[pick])
                            .expect("request reaches server");
                        assert_eq!(response.status, 200, "{}", response.body);
                        assert_eq!(
                            normalized(&response.body),
                            expected[pick],
                            "client {client_id} round {round}: {}",
                            MIXED[pick]
                        );
                    }
                }
            });
        }
    });

    // 8 clients × 3 rounds of sweeps over shared fingerprinted work:
    // the shared cache must have been hit, and hits only ever grow.
    let hits_end = cache_hits(addr);
    assert!(
        hits_end > hits_start,
        "shared cache hits must strictly grow under a repeated workload \
         ({hits_start} -> {hits_end})"
    );
    handle.shutdown();
    runner.join().expect("clean shutdown");
}

#[test]
fn cache_hit_counter_is_monotone_across_interleaved_observations() {
    let (addr, handle, runner) = boot(4);
    let mut observed = vec![cache_hits(addr)];
    std::thread::scope(|scope| {
        let worker = scope.spawn(move || {
            for _ in 0..6 {
                let response = client::post_query(
                    addr,
                    r#"{"query": "sweep", "models": ["SC", "TSO", "PSO"], "tests": "catalog"}"#,
                )
                .expect("sweep");
                assert_eq!(response.status, 200);
            }
        });
        // Sample the counter while the sweeps run; every observation
        // must be >= the previous one (atomics only go up).
        for _ in 0..20 {
            observed.push(cache_hits(addr));
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        worker.join().expect("sweeps complete");
    });
    observed.push(cache_hits(addr));
    assert!(
        observed.windows(2).all(|w| w[0] <= w[1]),
        "cache hit counter regressed: {observed:?}"
    );
    assert!(
        observed.last() > observed.first(),
        "repeated identical sweeps must produce cache hits: {observed:?}"
    );
    handle.shutdown();
    runner.join().expect("clean shutdown");
}

#[test]
fn second_identical_sweep_is_served_with_zero_checker_calls() {
    let (addr, handle, runner) = boot(2);
    let sweep = r#"{"query": "sweep", "engine": {"jobs": 1}}"#;

    let first = client::post_query(addr, sweep).expect("first sweep");
    assert_eq!(first.status, 200);
    let calls_after_first = engine_counter(addr, "checker_calls");
    assert!(
        calls_after_first > 0,
        "the cold sweep must have exercised the checker"
    );

    let second = client::post_query(addr, sweep).expect("second sweep");
    assert_eq!(second.status, 200);
    let calls_after_second = engine_counter(addr, "checker_calls");
    assert_eq!(
        calls_after_second, calls_after_first,
        "an identical sweep must be answered entirely from the shared cache"
    );

    // The two responses agree on everything but warmth artifacts.
    assert_eq!(normalized(&first.body), normalized(&second.body));

    // And the per-request stats visible in the second response must
    // themselves show a fully warm run: zero checker calls.
    let doc = Json::parse(&second.body).unwrap();
    let stats = doc.get("stats").expect("sweep report embeds stats");
    assert_eq!(
        stats.get("checker_calls").and_then(Json::as_i64),
        Some(0),
        "second sweep stats: {}",
        stats.pretty()
    );
    handle.shutdown();
    runner.join().expect("clean shutdown");
}

#[test]
fn live_gauges_return_to_zero_after_drain() {
    let (addr, handle, runner) = boot(4);
    let gauges = |addr| {
        let doc = statsz(addr);
        let gauges = doc.get("gauges").expect("statsz has a gauges section");
        (
            gauges.get("queue_depth").and_then(Json::as_i64).unwrap(),
            gauges.get("in_flight").and_then(Json::as_i64).unwrap(),
        )
    };
    assert_eq!(gauges(addr), (0, 0), "idle server gauges must read zero");

    // Hammer the server with enough concurrent sweeps that some must
    // queue and several execute at once; sample the gauges live.
    let mut peak_in_flight = 0;
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(move || {
                for _ in 0..3 {
                    let response = client::post_query(
                        addr,
                        r#"{"query": "sweep", "models": ["SC", "TSO", "PSO", "RMO"],
                            "tests": "catalog", "cache": false}"#,
                    )
                    .expect("sweep");
                    assert_eq!(response.status, 200);
                }
            });
        }
        for _ in 0..30 {
            let (depth, in_flight) = gauges(addr);
            assert!(depth >= 0 && in_flight >= 0, "gauges never go negative");
            peak_in_flight = peak_in_flight.max(in_flight);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    });

    // All clients joined: the service has drained, so both live gauges
    // must be back at exactly zero (a cumulative counter would not be).
    assert_eq!(
        gauges(addr),
        (0, 0),
        "drained server gauges must return to zero"
    );
    assert!(
        peak_in_flight >= 1,
        "sampling during the hammer should catch at least one in-flight query"
    );
    handle.shutdown();
    runner.join().expect("clean shutdown");
}

#[test]
fn explicit_cache_false_opts_a_request_out_of_the_shared_cache() {
    let (addr, handle, runner) = boot(2);
    let warmer = r#"{"query": "sweep", "models": ["SC", "TSO"], "tests": "catalog"}"#;
    let loner = r#"{"query": "sweep", "models": ["SC", "TSO"], "tests": "catalog",
                    "cache": false}"#;
    assert_eq!(client::post_query(addr, warmer).unwrap().status, 200);
    let hits_before = cache_hits(addr);
    let response = client::post_query(addr, loner).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        cache_hits(addr),
        hits_before,
        "cache:false requests must not touch the shared cache"
    );
    handle.shutdown();
    runner.join().expect("clean shutdown");
}

/// The identical sweep of the cold/warm comparison. `jobs: 1` keeps the
/// cold compute single-threaded so the warm speedup is the cache's, not
/// the scheduler's, and the SAT checker makes checking dominate the fixed
/// per-request work: a warm request skips exactly the expensive part.
const WARM_SWEEP: &str = r#"{"query": "sweep", "checker": "sat", "engine": {"jobs": 1},
                             "cache": true, "format": "json"}"#;

/// One cycle of the load mix; 100 cycles make 1,000 requests.
const LOAD_MIX: [&str; 10] = [
    r#"{"query": "sweep", "engine": {"jobs": 2}}"#,
    r#"{"query": "compare", "left": "TSO", "right": "x86"}"#,
    r#"{"query": "check", "model": "SC", "tests": "catalog"}"#,
    r#"{"query": "distinguish", "models": ["SC", "TSO", "PSO", "RMO"]}"#,
    r#"{"query": "catalog"}"#,
    r#"{"query": "sweep", "models": ["SC", "TSO", "PSO"], "tests": "catalog"}"#,
    r#"{"query": "check", "model": "TSO", "tests": "catalog"}"#,
    r#"{"query": "suite"}"#,
    r#"{"query": "figures", "which": "fig3"}"#,
    r#"{"query": "compare", "left": "SC", "right": "PSO"}"#,
];

/// Issues one query, retrying `503` backpressure after a fraction of the
/// advertised `Retry-After`. Returns the latency of the answered attempt.
fn timed_query(addr: SocketAddr, body: &str) -> Duration {
    loop {
        let start = Instant::now();
        let response = client::post_query(addr, body).expect("request reaches the server");
        if response.status == 503 {
            let secs: u64 = response
                .header("Retry-After")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1);
            std::thread::sleep(Duration::from_millis(25.max(secs * 50)));
            continue;
        }
        assert_eq!(response.status, 200, "body: {}", response.body);
        return start.elapsed();
    }
}

/// Fans `requests` out round-robin over `threads` client threads and
/// returns every latency.
fn drive(addr: SocketAddr, requests: &[&str], threads: usize) -> Vec<Duration> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mine: Vec<&str> = requests.iter().skip(t).step_by(threads).copied().collect();
                scope.spawn(move || {
                    mine.into_iter()
                        .map(|body| timed_query(addr, body))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("client thread"))
            .collect()
    })
}

fn median(mut latencies: Vec<Duration>) -> Duration {
    latencies.sort();
    latencies[latencies.len() / 2]
}

#[test]
#[ignore = "a load test of several seconds; run it with --release -- --ignored"]
fn mixed_load_is_answered_and_a_repeated_sweep_is_cache_served() {
    // Cold: a fresh server per sample, one sweep each, then a full drain.
    let cold_p50 = median(
        (0..8)
            .map(|_| {
                let (addr, handle, runner) = boot(4);
                let elapsed = timed_query(addr, WARM_SWEEP);
                handle.shutdown();
                runner.join().expect("drained");
                elapsed
            })
            .collect(),
    );

    // Warm: one primed server, the identical sweep 100 times in sequence
    // (like the cold samples, so the p50s compare the cache, not queueing).
    let (addr, handle, runner) = boot(4);
    timed_query(addr, WARM_SWEEP);
    let hits_before = engine_counter(addr, "cache_hits");
    let calls_before = engine_counter(addr, "checker_calls");
    let warm_p50 = median(drive(addr, &[WARM_SWEEP; 100], 1));
    let warm_hits = engine_counter(addr, "cache_hits") - hits_before;
    let warm_calls = engine_counter(addr, "checker_calls") - calls_before;
    let hit_ratio = warm_hits as f64 / (warm_hits + warm_calls).max(1) as f64;
    assert!(
        hit_ratio > 0.90,
        "warm sweeps must be cache-served: hit ratio {hit_ratio:.3} \
         ({warm_hits} hits / {warm_calls} checker calls)"
    );
    assert!(
        warm_p50 < cold_p50,
        "the shared cache must pay for itself: warm p50 {warm_p50:.2?} vs cold p50 {cold_p50:.2?}"
    );

    // Mixed, on the same warm server: eight client threads against four
    // workers, so the bounded queue and the 503 path engage.
    let requests: Vec<&str> = LOAD_MIX.iter().cycle().take(1000).copied().collect();
    assert_eq!(drive(addr, &requests, 8).len(), 1000);
    handle.shutdown();
    runner.join().expect("drained");
}
