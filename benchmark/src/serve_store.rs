//! `serve-store`: an in-process `Server::bind` with two workers over a
//! freshly prepared verdict log, driven by a closed loop of two
//! connections with a seeded mix of disk-tier, RAM-tier and cold shard
//! sweeps plus light queries.

use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mcm_core::json::Json;
use mcm_core::LitmusTest;
use mcm_explore::{EngineConfig, VerdictCache};
use mcm_gen::{stream, Shard, StreamBounds};
use mcm_query::wire::WireRequest;
use mcm_query::{ModelSpec, Query, TestSource};
use mcm_serve::{client, Server, ServerConfig, ShutdownHandle};
use mcm_store::DiskCache;

use crate::common::{median, median_time, out_dir, peak_rss_mb, tail, Options, Outcome, Rng};
use crate::probes::{
    histogram_delta, histogram_tail, registry, row_prefilter, trace_events, TimedSink,
};

/// Requests per second of `--seconds`: sizes the fixed request sequence.
const REQUESTS_PER_SECOND: f64 = 8.5;
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
const SETUP_REPS: usize = 5;
/// The request-side leader cap (the server's default ceiling), sent
/// explicitly so direct runs render the same stream section.
const LIMIT: usize = 20_000;
/// A RAM-tier repeat comes at least this many requests after the cold
/// request that first saw its shard, so the two never overlap.
const RAM_GAP: usize = 6;
/// Responses compared against a direct `QuerySpec::run`.
const ORACLE_SWEEPS: usize = 4;
const ORACLE_LIGHT: usize = 2;
/// Keys that differ between a served and a direct run by design: wall
/// clocks, and counters that depend on how warm the shared cache was.
const VOLATILE: [&str; 4] = ["elapsed_ms", "timings", "stats", "cache"];
const NAMED: [&str; 7] = ["SC", "TSO", "x86", "PSO", "IBM370", "RMO", "Alpha"];

/// The workload's input size.
struct Plan {
    bounds: StreamBounds,
    shards: u32,
    prepared: usize,
    requests: usize,
}

impl Plan {
    fn new(options: &Options) -> Plan {
        if options.tiny {
            return Plan {
                bounds: StreamBounds {
                    max_accesses_per_thread: 2,
                    ..StreamBounds::default()
                },
                shards: 4,
                prepared: 2,
                requests: 14,
            };
        }
        Plan {
            bounds: StreamBounds::default(),
            shards: 16,
            prepared: 6,
            requests: options.requests(REQUESTS_PER_SECOND, 24),
        }
    }

    fn shard(&self, index: u32) -> Shard {
        Shard::new(index, self.shards).expect("shard index below the shard count")
    }

    fn sweep_body(&self, shard: u32) -> String {
        format!(
            r#"{{"query": "sweep", "models": "90", "tests": {{"stream": {{"max_accesses": {}, "max_locs": {}, "limit": {LIMIT}, "shard": "{}"}}}}, "engine": {{"jobs": 1}}, "format": "json"}}"#,
            self.bounds.max_accesses_per_thread,
            self.bounds.max_locs,
            self.shard(shard),
        )
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    /// A shard already in the prepared log.
    Disk,
    /// A repeat of a shard first swept in this run.
    Ram,
    /// A shard never seen before: checker calls and log appends.
    Cold,
    /// `compare`, `check` or `distinguish`.
    Light,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Disk => "disk",
            Class::Ram => "ram",
            Class::Cold => "cold",
            Class::Light => "light",
        }
    }
}

struct Request {
    class: Class,
    /// The shard index, for sweeps.
    shard: Option<u32>,
    body: String,
}

/// The seeded input: which shards the log holds, and the request
/// sequence. Class counts are fixed; the seed picks shards, light
/// queries and the order.
fn plan_requests(plan: &Plan, rng: &mut Rng) -> (Vec<u32>, Vec<Request>) {
    let mut shards: Vec<u32> = (0..plan.shards).collect();
    rng.shuffle(&mut shards);
    let (prepared, unseen) = shards.split_at(plan.prepared);
    let n = plan.requests;
    let light = n / 3;
    let disk = n / 4;
    let cold = unseen.len().min(n - light - disk);
    let ram = n - light - disk - cold;

    // Cold first sightings are spread over the first 60% of the run;
    // the other classes are shuffled around them.
    let spacing = (n * 3 / 5) / cold.max(1);
    let cold_at: Vec<usize> = (0..cold).map(|k| k * spacing.max(1)).collect();
    let mut tokens: Vec<Class> = std::iter::repeat_n(Class::Light, light)
        .chain(std::iter::repeat_n(Class::Disk, disk))
        .chain(std::iter::repeat_n(Class::Ram, ram))
        .collect();
    rng.shuffle(&mut tokens);
    let mut tokens = std::collections::VecDeque::from(tokens);
    let mut seen: Vec<(u32, usize)> = Vec::new();
    let mut requests = Vec::with_capacity(n);
    while requests.len() < n {
        let position = requests.len();
        if let Some(k) = cold_at.iter().position(|&at| at == position) {
            let shard = unseen[k];
            seen.push((shard, position));
            requests.push(Request {
                class: Class::Cold,
                shard: Some(shard),
                body: plan.sweep_body(shard),
            });
            continue;
        }
        let eligible: Vec<u32> = seen
            .iter()
            .filter(|(_, at)| at + RAM_GAP <= position)
            .map(|(shard, _)| *shard)
            .collect();
        // A RAM repeat with nothing eligible yet waits for a later slot.
        let pick = tokens
            .iter()
            .position(|&c| c != Class::Ram || !eligible.is_empty())
            .unwrap_or(0);
        let class = tokens.remove(pick).expect("a token per remaining slot");
        let (shard, body) = match class {
            Class::Disk => {
                let shard = prepared[rng.below(prepared.len())];
                (Some(shard), plan.sweep_body(shard))
            }
            Class::Ram if !eligible.is_empty() => {
                let shard = eligible[rng.below(eligible.len())];
                (Some(shard), plan.sweep_body(shard))
            }
            _ => (None, light_body(rng)),
        };
        let class = if shard.is_none() { Class::Light } else { class };
        requests.push(Request { class, shard, body });
    }
    (prepared.to_vec(), requests)
}

fn light_body(rng: &mut Rng) -> String {
    let mut named = NAMED;
    rng.shuffle(&mut named);
    match rng.below(3) {
        0 => format!(
            r#"{{"query": "compare", "left": "{}", "right": "{}"}}"#,
            named[0], named[1]
        ),
        1 => format!(
            r#"{{"query": "check", "model": "{}", "tests": "catalog"}}"#,
            named[0]
        ),
        _ => format!(
            r#"{{"query": "distinguish", "models": ["{}", "{}", "{}", "{}"], "engine": {{"jobs": 1}}}}"#,
            named[0], named[1], named[2], named[3]
        ),
    }
}

/// The run's private directory; removed on drop, so one run's appends
/// never warm the next.
struct RunDir(PathBuf);

impl RunDir {
    fn new(seed: u64) -> RunDir {
        let dir = out_dir().join(format!("serve-{}-seed{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the run directory");
        RunDir(dir)
    }

    fn prepared_log(&self) -> PathBuf {
        self.0.join("prepared.log")
    }

    /// A fresh store directory holding a copy of the prepared log.
    fn fresh_store(&self, tag: &str) -> PathBuf {
        let dir = self.0.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a store directory");
        std::fs::copy(self.prepared_log(), dir.join("verdicts.log"))
            .expect("copy the prepared log");
        dir
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Appends the prepared shards' verdicts to the log through
/// `SweepQuery::store` (untimed).
fn prepare(plan: &Plan, prepared: &[u32], log: &Path) {
    for &shard in prepared {
        Query::sweep()
            .models(ModelSpec::Full90)
            .tests(TestSource::Stream {
                bounds: plan.bounds,
                limit: Some(LIMIT),
                shard: Some(plan.shard(shard)),
            })
            .engine(EngineConfig {
                jobs: Some(2),
                ..EngineConfig::default()
            })
            .store(log)
            .run()
            .expect("prepare a shard into the verdict log");
    }
}

/// A running server.
struct Running {
    addr: SocketAddr,
    handle: ShutdownHandle,
    runner: JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn stop(self) {
        self.handle.shutdown();
        self.runner
            .join()
            .expect("server thread does not panic")
            .expect("server drains cleanly");
    }
}

/// Binds a server over `store_dir` and returns once `/healthz` answers,
/// with the seconds that took.
fn boot(store_dir: PathBuf) -> (Running, f64) {
    let start = Instant::now();
    let server = Server::bind(ServerConfig {
        workers: WORKERS,
        store_dir: Some(store_dir),
        ..ServerConfig::default()
    })
    .expect("bind the server over the prepared store");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run());
    while !client::get(addr, "/healthz").is_ok_and(|r| r.status == 200) {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "the server never answered /healthz"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let setup_s = start.elapsed().as_secs_f64();
    (
        Running {
            addr,
            handle,
            runner,
        },
        setup_s,
    )
}

/// Boots `SETUP_REPS` times over fresh copies of the prepared log; the
/// last server stays up. Returns it and the median set-up time.
fn boot_median(dir: &RunDir, tag: &str) -> (Running, f64) {
    let mut times = Vec::new();
    for rep in 0..SETUP_REPS {
        let (running, secs) = boot(dir.fresh_store(&format!("{tag}-{rep}")));
        times.push(secs);
        if rep + 1 == SETUP_REPS {
            return (running, median(&times));
        }
        running.stop();
    }
    unreachable!("SETUP_REPS is positive")
}

/// One answered request.
struct Answer {
    latency_s: f64,
    status: u16,
    bytes: usize,
    /// The response's `stats` section, when asked for (traced run).
    stats: Option<Json>,
    /// The full body, for the oracle sample.
    body: Option<String>,
}

/// The closed loop: `CONNECTIONS` clients, each sending its next
/// request only after the previous one was answered.
fn closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    keep: &[usize],
    with_stats: bool,
) -> (Vec<Answer>, f64) {
    let next = AtomicUsize::new(0);
    let answers: Mutex<Vec<Option<Answer>>> =
        Mutex::new((0..requests.len()).map(|_| None).collect());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(request) = requests.get(i) else {
                    // Scoped threads flush their own span buffers.
                    mcm_obs::trace::flush_thread();
                    break;
                };
                let sent = Instant::now();
                let span =
                    mcm_obs::trace::span_with("bench.request", &[("class", request.class.name())]);
                let response = client::post_query(addr, &request.body);
                drop(span);
                let latency_s = sent.elapsed().as_secs_f64();
                let answer = match response {
                    Ok(response) => Answer {
                        latency_s,
                        status: response.status,
                        bytes: response.body.len(),
                        stats: if with_stats && request.shard.is_some() {
                            top_level_section(&response.body, "stats")
                        } else {
                            None
                        },
                        body: keep.contains(&i).then_some(response.body),
                    },
                    Err(_) => Answer {
                        latency_s,
                        status: 0,
                        bytes: 0,
                        stats: None,
                        body: None,
                    },
                };
                answers.lock().expect("answer table lock")[i] = Some(answer);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let answers = answers
        .into_inner()
        .expect("answer table lock")
        .into_iter()
        .map(|a| a.expect("every request was answered"))
        .collect();
    (answers, wall_s)
}

/// Parses one top-level object field of a pretty-printed report without
/// parsing the (large) rest of it.
fn top_level_section(body: &str, key: &str) -> Option<Json> {
    let start = body.find(&format!("\n  \"{key}\": {{"))?;
    let open = start + body[start..].find('{')?;
    let close = open + body[open..].find("\n  }")?;
    Json::parse(&body[open..=close + 3]).ok()
}

fn statsz(addr: SocketAddr) -> Json {
    let response = client::get(addr, "/statsz").expect("GET /statsz");
    Json::parse(&response.body).expect("/statsz is JSON")
}

fn counter(doc: &Json, section: &str, name: &str) -> f64 {
    doc.get(section)
        .and_then(|s| s.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64
}

fn normalized(body: &str) -> Option<Json> {
    let mut doc = Json::parse(body).ok()?;
    doc.strip_keys(&VOLATILE);
    Some(doc)
}

/// The seeded sample compared against direct runs: the first few
/// sweeps and light queries after a seeded offset.
fn oracle_sample(requests: &[Request], rng: &mut Rng) -> Vec<usize> {
    let offset = rng.below(requests.len());
    let order = (0..requests.len()).map(|k| (k + offset) % requests.len());
    let sweeps = order
        .clone()
        .filter(|&i| requests[i].shard.is_some())
        .take(ORACLE_SWEEPS);
    let light = order
        .filter(|&i| requests[i].shard.is_none())
        .take(ORACLE_LIGHT);
    sweeps.chain(light).collect()
}

/// Re-runs each sampled request directly and compares the normalized
/// documents. Returns the render time of each direct report.
fn check_sample(
    out: &mut Outcome,
    requests: &[Request],
    answers: &[Answer],
    sample: &[usize],
) -> Vec<f64> {
    let mut render_s = Vec::new();
    for &i in sample {
        let served = answers[i].body.as_deref().and_then(normalized);
        let request = WireRequest::parse(&requests[i].body).expect("the benchmark's bodies parse");
        let outcome = request.spec.run(None).expect("direct runs succeed");
        let start = Instant::now();
        let rendered = outcome
            .report
            .render(request.format)
            .expect("reports render");
        render_s.push(start.elapsed().as_secs_f64());
        out.check(served.is_some() && served == normalized(&rendered));
    }
    render_s
}

pub fn run(options: &Options) -> Outcome {
    let mut out = Outcome::new(options.trace);
    let plan = Plan::new(options);
    let mut rng = Rng::new(options.seed);
    let (prepared, requests) = plan_requests(&plan, &mut rng);
    let sample = oracle_sample(&requests, &mut rng);
    let dir = RunDir::new(options.seed);
    prepare(&plan, &prepared, &dir.prepared_log());
    let log_bytes = std::fs::metadata(dir.prepared_log()).map_or(0, |m| m.len());
    out.size("requests", requests.len());
    out.size("models", 90usize);
    out.info(
        "shards",
        format!("{} of {} prepared", prepared.len(), plan.shards),
    );
    out.info("prepared_log_bytes", log_bytes);
    for class in [Class::Disk, Class::Ram, Class::Cold, Class::Light] {
        let count = requests.iter().filter(|r| r.class == class).count();
        out.info(&format!("requests_{}", class.name()), count);
    }

    let (server, setup_s) = boot_median(&dir, "untraced");
    let (answers, wall_s) = closed_loop(server.addr, &requests, &sample, false);
    let write_errors = counter(&statsz(server.addr), "store", "write_errors");
    server.stop();
    record_answers(&mut out, &answers, write_errors);
    let render_s = check_sample(&mut out, &requests, &answers, &sample);

    if options.trace {
        traced(options, &plan, &dir, &requests, wall_s, &render_s, &mut out);
        return out;
    }
    let latencies: Vec<f64> = answers.iter().map(|a| a.latency_s).collect();
    let (tail_label, tail_s) = tail(&latencies);
    out.info(
        "latency_tail",
        format!("{tail_label} of {} requests", latencies.len()),
    );
    out.info(
        "loop",
        format!("closed, {CONNECTIONS} connections, {WORKERS} workers"),
    );
    let m = &mut out.metrics;
    m.set("setup_s", setup_s);
    m.set("wall_s", wall_s);
    m.set("req_per_s", answers.len() as f64 / wall_s);
    m.set("latency_p50_ms", median(&latencies) * 1e3);
    m.set("latency_tail_ms", tail_s * 1e3);
    m.set("peak_rss_mb", peak_rss_mb());
    out
}

/// Counts every request (non-200 fails) and the store's write errors.
fn record_answers(out: &mut Outcome, answers: &[Answer], write_errors: f64) {
    for answer in answers {
        out.check(answer.status == 200);
    }
    out.check_many(1, u64::from(write_errors > 0.0));
}

#[allow(clippy::too_many_arguments)]
fn traced(
    options: &Options,
    plan: &Plan,
    dir: &RunDir,
    requests: &[Request],
    untraced_wall: f64,
    render_s: &[f64],
    out: &mut Outcome,
) {
    let trace_path = out_dir().join(format!("trace-serve-store-seed{}.json", options.seed));
    let (server, _) = boot(dir.fresh_store("traced"));
    mcm_obs::trace::install(&trace_path);
    let reg_before = registry();
    let stats_before = statsz(server.addr);
    let (answers, wall_s) = closed_loop(server.addr, requests, &[], true);
    let stats_after = statsz(server.addr);
    let reg_after = registry();
    server.stop();
    mcm_obs::trace::finish().expect("write the Chrome trace");
    record_answers(
        out,
        &answers,
        counter(&stats_after, "store", "write_errors"),
    );

    // Per-class client latency, by the class each response shows.
    let observed = |a: &Answer, r: &Request| -> Class {
        let Some(stats) = &a.stats else {
            return r.class;
        };
        let calls = stats
            .get("checker_calls")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let disk = stats
            .get("cache_hits_disk")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        match (calls, disk) {
            (c, _) if c > 0 => Class::Cold,
            (_, d) if d > 0 => Class::Disk,
            _ => Class::Ram,
        }
    };
    let mut mismatched = 0;
    let mut by_class = |class: Class| -> f64 {
        let samples: Vec<f64> = answers
            .iter()
            .zip(requests)
            .filter(|(a, r)| observed(a, r) == class)
            .map(|(a, _)| a.latency_s * 1e3)
            .collect();
        if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        }
    };
    let class_ms = [Class::Disk, Class::Ram, Class::Cold, Class::Light].map(&mut by_class);
    for (a, r) in answers.iter().zip(requests) {
        mismatched += usize::from(observed(a, r) != r.class);
    }

    let server_hist = histogram_delta(&reg_before, &reg_after, "mcm_serve_request_latency_us");
    let checks = histogram_delta(&reg_before, &reg_after, "mcm_check_latency_us");
    let flushes = histogram_delta(&reg_before, &reg_after, "mcm_store_flush_us");
    let client_total: f64 = answers.iter().map(|a| a.latency_s).sum();
    let client_mean_ms = client_total * 1e3 / answers.len() as f64;
    let server_mean_ms = server_hist.sum as f64 / 1e3 / server_hist.count.max(1) as f64;
    let (check_label, check_tail) = histogram_tail(&checks);
    let batch = |name: &str| -> f64 {
        answers
            .iter()
            .filter_map(|a| a.stats.as_ref()?.get("batch")?.get(name)?.as_u64())
            .sum::<u64>() as f64
    };
    let delta = |section: &str, name: &str| {
        counter(&stats_after, section, name) - counter(&stats_before, section, name)
    };
    let hits_ram = delta("cache", "hits_ram");
    let hits_disk = delta("cache", "hits_disk");
    let misses = delta("cache", "misses");
    let groups = delta("engine", "prefilter_groups");
    let saved = delta("engine", "prefilter_saved_calls");
    let appended = delta("store", "appended");
    let bytes = delta("store", "bytes");

    let replay = replays(plan, dir, requests);
    let wire_us = median(
        &requests
            .iter()
            .map(|r| median_time(5, || drop(black_box(WireRequest::parse(&r.body)))) * 1e6)
            .collect::<Vec<_>>(),
    );

    out.info("trace_file", trace_path.display().to_string());
    out.info("class_mismatches", mismatched);
    out.info(
        "check_tail",
        format!("{check_label} of {} checker calls", checks.count),
    );
    let m = &mut out.metrics;
    m.set("gen.shard_lead_ms", replay.shard_lead_ms);
    m.set("gen.fingerprint_s", replay.fingerprint_s);
    m.set("core.execution_s", replay.execution_s);
    m.set("analyze.group_rows_s", replay.group_rows_s);
    m.set("analyze.prefilter_groups", groups);
    m.set("analyze.prefilter_saved_calls", saved);
    m.set(
        "analyze.prefilter_yield",
        groups / (groups + saved).max(1.0),
    );
    m.set("axiomatic.check_calls", checks.count as f64);
    m.set("axiomatic.check_s", checks.sum as f64 / 1e6);
    m.set("axiomatic.check_p50_us", checks.quantile(0.5) as f64);
    m.set("axiomatic.check_tail_us", check_tail);
    m.set(
        "axiomatic.group_collapse",
        batch("models_checked") / batch("model_groups").max(1.0),
    );
    m.set("axiomatic.shared_candidates", batch("shared_candidates"));
    m.set("axiomatic.group_evals", batch("group_evals"));
    m.set("explore.cache_hits_ram", hits_ram);
    m.set("explore.cache_hits_disk", hits_disk);
    m.set("explore.cache_misses", misses);
    m.set(
        "explore.cache_hit_ratio",
        (hits_ram + hits_disk) / (hits_ram + hits_disk + misses).max(1.0),
    );
    m.set(
        "explore.shard_contention",
        delta("cache", "shard_contention"),
    );
    m.set("explore.checker_calls", delta("engine", "checker_calls"));
    m.set("store.hydrate_s", replay.hydrate_s);
    m.set("store.flush_s", flushes.sum as f64 / 1e6);
    m.set("store.persist_s", replay.persist_s);
    m.set("store.appended", appended);
    m.set("store.flushes", delta("store", "flushes"));
    m.set("store.bytes", bytes);
    m.set("store.bytes_per_record", bytes / appended.max(1.0));
    m.set(
        "query.render_s",
        render_s.iter().sum::<f64>() / render_s.len().max(1) as f64,
    );
    m.set("query.wire_parse_us", wire_us);
    m.set(
        "query.response_kb",
        answers.iter().map(|a| a.bytes as f64).sum::<f64>() / 1024.0 / answers.len() as f64,
    );
    m.set(
        "serve.server_ms_p50",
        server_hist.quantile(0.5) as f64 / 1e3,
    );
    m.set("serve.server_ms_mean", server_mean_ms);
    m.set("serve.transport_ms", client_mean_ms - server_mean_ms);
    m.set("serve.sweep_disk_ms", class_ms[0]);
    m.set("serve.sweep_ram_ms", class_ms[1]);
    m.set("serve.sweep_cold_ms", class_ms[2]);
    m.set("serve.light_ms", class_ms[3]);
    m.set(
        "trace.coverage",
        server_hist.sum as f64 / 1e6 / client_total,
    );
    m.set("trace.overhead", wall_s / untraced_wall - 1.0);
    m.set("trace.events", trace_events(&trace_path) as f64);
}

struct Replay {
    shard_lead_ms: f64,
    fingerprint_s: f64,
    execution_s: f64,
    group_rows_s: f64,
    hydrate_s: f64,
    persist_s: f64,
}

/// Replays of public functions on the run's own inputs: the per-request
/// leader enumeration, cache keys and executions summed over the sweep
/// requests, prefilter grouping over the cold shards, log hydration,
/// and the write path behind a timing sink.
fn replays(plan: &Plan, dir: &RunDir, requests: &[Request]) -> Replay {
    let swept: Vec<u32> = requests.iter().filter_map(|r| r.shard).collect();
    let uses = |shard: u32| swept.iter().filter(|&&s| s == shard).count() as f64;
    let mut shards = swept.clone();
    shards.sort_unstable();
    shards.dedup();
    let leaders = |shard: u32| -> Vec<LitmusTest> {
        stream::leaders_sharded(&plan.bounds, plan.shard(shard)).collect()
    };
    let models = ModelSpec::Full90
        .resolve()
        .expect("the 90-model space builds");
    let (prefilter, all_rows) = row_prefilter(&models);

    let mut lead_ms = Vec::new();
    let (mut fingerprint_s, mut execution_s, mut group_rows_s) = (0.0, 0.0, 0.0);
    for &shard in &shards {
        lead_ms.push(median_time(3, || drop(black_box(leaders(shard)))) * 1e3);
        let tests = leaders(shard);
        fingerprint_s += uses(shard)
            * median_time(3, || {
                tests.iter().for_each(|t| {
                    black_box(mcm_gen::fingerprint(t));
                })
            });
        execution_s += uses(shard)
            * median_time(3, || {
                tests.iter().for_each(|t| {
                    black_box(t.execution());
                })
            });
        let cold = requests
            .iter()
            .any(|r| r.shard == Some(shard) && r.class == Class::Cold);
        if cold {
            let executions: Vec<_> = tests.iter().map(LitmusTest::execution).collect();
            group_rows_s += median_time(1, || {
                for exec in &executions {
                    black_box(prefilter.group_rows(exec, &all_rows));
                }
            });
        }
    }

    let hydrate: Vec<f64> = (0..3)
        .map(|rep| {
            let store = dir.fresh_store(&format!("hydrate-{rep}"));
            let start = Instant::now();
            drop(black_box(
                DiskCache::open(&store.join("verdicts.log")).expect("open the log"),
            ));
            start.elapsed().as_secs_f64()
        })
        .collect();

    // The write path of the two first cold shards, behind a timing sink.
    let store =
        DiskCache::open(&dir.fresh_store("persist").join("verdicts.log")).expect("open the log");
    let sink = TimedSink::new(Arc::clone(store.cache()));
    let cache = Arc::new(VerdictCache::new());
    cache.set_sink(sink.clone());
    for request in requests.iter().filter(|r| r.class == Class::Cold).take(2) {
        WireRequest::parse(&request.body)
            .expect("the benchmark's bodies parse")
            .spec
            .run(Some(&cache))
            .expect("the replayed sweep runs");
    }
    Replay {
        shard_lead_ms: median(&lead_ms),
        fingerprint_s,
        execution_s,
        group_rows_s,
        hydrate_s: median(&hydrate),
        persist_s: sink.busy_s(),
    }
}
