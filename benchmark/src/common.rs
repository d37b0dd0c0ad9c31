//! Shared plumbing: the metric catalogue, the result line, seeded
//! randomness, summary statistics, peak memory and the environment stamp.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mcm_axiomatic::{Checker, ExplicitChecker};
use mcm_core::json::Json;
use mcm_explore::Exploration;

/// End-to-end metrics: reported by every workload when `--trace 0`.
/// Mirrors `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: reported by every workload when `--trace 1`; a
/// layer the workload bypasses reads 0. Mirrors `per_layer` in
/// `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("gen.lead_s", "s"),
    ("gen.leaders", "count"),
    ("gen.raw_visited", "count"),
    ("gen.leader_yield", "ratio"),
    ("gen.shard_lead_ms", "ms"),
    ("gen.fingerprint_s", "s"),
    ("core.execution_s", "s"),
    ("analyze.group_rows_s", "s"),
    ("analyze.prefilter_groups", "count"),
    ("analyze.prefilter_saved_calls", "count"),
    ("analyze.prefilter_yield", "ratio"),
    ("axiomatic.check_calls", "count"),
    ("axiomatic.check_s", "s"),
    ("axiomatic.check_p50_us", "us"),
    ("axiomatic.check_tail_us", "us"),
    ("axiomatic.group_collapse", "ratio"),
    ("axiomatic.shared_candidates", "count"),
    ("axiomatic.group_evals", "count"),
    ("axiomatic.oracle_s", "s"),
    ("explore.chunk_s", "s"),
    ("explore.worker_noncheck_s", "s"),
    ("explore.report_s", "s"),
    ("explore.cache_hits_ram", "count"),
    ("explore.cache_hits_disk", "count"),
    ("explore.cache_misses", "count"),
    ("explore.cache_hit_ratio", "ratio"),
    ("explore.shard_contention", "count"),
    ("explore.checker_calls", "count"),
    ("synth.pair_ms_p50", "ms"),
    ("synth.pair_ms_tail", "ms"),
    ("synth.cegis_iter_s", "s"),
    ("synth.solver_s", "s"),
    ("synth.sat_queries", "count"),
    ("synth.candidates", "count"),
    ("synth.oracle_calls", "count"),
    ("synth.oracle_cache_hits", "count"),
    ("synth.oracle_hit_ratio", "ratio"),
    ("store.hydrate_s", "s"),
    ("store.flush_s", "s"),
    ("store.persist_s", "s"),
    ("store.appended", "count"),
    ("store.flushes", "count"),
    ("store.bytes", "bytes"),
    ("store.bytes_per_record", "bytes"),
    ("query.render_s", "s"),
    ("query.wire_parse_us", "us"),
    ("query.response_kb", "KB"),
    ("serve.server_ms_p50", "ms"),
    ("serve.server_ms_mean", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.sweep_disk_ms", "ms"),
    ("serve.sweep_ram_ms", "ms"),
    ("serve.sweep_cold_ms", "ms"),
    ("serve.light_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.events", "count"),
];

/// Command-line options shared by every workload.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrink every input so a run takes seconds (the self-check).
    pub tiny: bool,
}

impl Options {
    /// How many requests a run makes: `per_second × --seconds`, at least
    /// `min`. The count is fixed by the options, never by how fast the
    /// machine is, so statistics over it (which percentile the tail is)
    /// mean the same thing on every run.
    pub fn requests(&self, per_second: f64, min: usize) -> usize {
        ((self.seconds * per_second).round() as usize).max(min)
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Operations attempted: timed operations plus oracle checks.
    pub attempted: u64,
    /// Failed or refused operations and oracle mismatches.
    pub failed: u64,
    pub metrics: Metrics,
    /// Input sizes, recorded in the environment stamp.
    pub sizes: Vec<(String, Json)>,
    /// Context printed before the result line: sample counts, which
    /// percentile the tail is, artifacts.
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    pub fn new(trace: bool) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Metrics::new(trace),
            sizes: Vec::new(),
            info: Vec::new(),
        }
    }

    /// Counts one checked operation; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `n` operations of which `bad` failed.
    pub fn check_many(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Records an input size for the environment stamp.
    pub fn size(&mut self, key: &str, value: impl Into<Json>) {
        self.sizes.push((key.to_string(), value.into()));
    }

    /// Records a context field for the info line.
    pub fn info(&mut self, key: &str, value: impl Into<Json>) {
        self.info.push((key.to_string(), value.into()));
    }
}

/// The metrics of one run, restricted to the catalogue of its mode.
pub struct Metrics {
    catalogue: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    fn new(trace: bool) -> Metrics {
        let catalogue: &'static [(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        Metrics {
            catalogue,
            // Per-layer metrics of a bypassed layer read 0; end-to-end
            // metrics must all be set by the workload (checked at emit).
            values: if trace {
                catalogue.iter().map(|(name, _)| (*name, 0.0)).collect()
            } else {
                BTreeMap::new()
            },
        }
    }

    /// Sets a metric of this mode's catalogue.
    ///
    /// # Panics
    ///
    /// On a name outside the catalogue — a typo in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = self
            .catalogue
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in this mode's catalogue"));
        self.values.insert(key, value);
    }

    fn json(&self) -> Json {
        Json::Object(
            self.catalogue
                .iter()
                .map(|(name, unit)| {
                    let value = *self
                        .values
                        .get(name)
                        .unwrap_or_else(|| panic!("metric `{name}` was never measured"));
                    (
                        (*name).to_string(),
                        Json::object([("value", Json::Float(value)), ("unit", Json::from(*unit))]),
                    )
                })
                .collect(),
        )
    }
}

/// Prints the info line and then the result line — the last line of
/// standard output, which is the benchmark's contract.
pub fn emit(outcome: &Outcome, stamp: Json) {
    let info = Json::Object(
        std::iter::once(("env".to_string(), stamp))
            .chain(outcome.info.iter().cloned())
            .chain(std::iter::once((
                "failed_ratio".to_string(),
                Json::Float(outcome.failed as f64 / outcome.attempted.max(1) as f64),
            )))
            .collect(),
    );
    println!("{}", Json::object([("info", info)]).compact());
    let result = Json::object([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", outcome.metrics.json()),
    ]);
    println!("{}", result.compact());
}

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Re-decides `cells` seeded (model, test) cells of an exploration with
/// the per-cell explicit checker; returns how many disagree.
pub fn recheck_cells(exploration: &Exploration, cells: usize, rng: &mut Rng) -> u64 {
    let checker = ExplicitChecker::new();
    let mut bad = 0;
    for _ in 0..cells {
        let m = rng.below(exploration.models.len());
        let t = rng.below(exploration.tests.len());
        let allowed = checker.is_allowed(&exploration.models[m], &exploration.tests[t]);
        bad += u64::from(allowed != exploration.verdicts[m].allowed(t));
    }
    bad
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Nearest-rank quantile of a non-empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of p99.9, p99, p90, p75 and p50 that leaves at least ten
/// of `n` samples beyond it, as `(label, q)`; the maximum (`q = 1`) when
/// the sample is too small for any of them.
pub fn tail_rank(n: u64) -> (String, f64) {
    [0.999, 0.99, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|q| n as f64 * (1.0 - q) >= 10.0)
        .map_or(("max".to_string(), 1.0), |q| (format!("p{}", q * 100.0), q))
}

/// The tail of a non-empty sample by [`tail_rank`], as `(label, value)`.
pub fn tail(samples: &[f64]) -> (String, f64) {
    let (label, q) = tail_rank(samples.len() as u64);
    (label, quantile(samples, q))
}

/// Runs `f` `n` times and returns the median wall time in seconds.
pub fn median_time(n: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..n.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark package directory (compile-time, so the working
/// directory does not matter).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where runs leave their artifacts (Chrome traces) and private temp
/// directories. Ignored by git.
pub fn out_dir() -> PathBuf {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's out directory");
    dir
}

/// The environment stamp: enough to refuse comparing results from
/// different trees, toolchains or machines by accident.
pub fn stamp(workload: &str, options: &Options, sizes: &[(String, Json)]) -> Json {
    let root = package_dir().join("..");
    // Only a checkout of its own: git would otherwise search parent
    // directories, outside the tree being measured.
    let git = root
        .join(".git")
        .exists()
        .then(|| command_line(&root, "git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "none".into());
    let rustc = command_line(&root, "rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut fields = vec![
        ("workload".to_string(), Json::from(workload)),
        ("git_revision".to_string(), Json::from(git)),
        (
            "source_fnv64".to_string(),
            Json::from(format!("{:016x}", source_fingerprint(&root))),
        ),
        ("nproc".to_string(), Json::Int(nproc as i64)),
        ("rustc".to_string(), Json::from(rustc)),
        (
            "profile".to_string(),
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed".to_string(), Json::Int(options.seed as i64)),
        ("seconds".to_string(), Json::Float(options.seconds)),
        ("trace".to_string(), Json::Bool(options.trace)),
        ("tiny".to_string(), Json::Bool(options.tiny)),
    ];
    fields.extend(sizes.iter().cloned());
    Json::Object(fields)
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(dir: &Path, program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines().next().map(str::to_string)
}

/// FNV-1a over the workspace sources (`crates/**` `.rs` and `Cargo.toml`
/// files plus the root manifest and lock file), in sorted path order: a
/// tree identity that also works in a checkout without git metadata.
fn source_fingerprint(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            feed(
                file.strip_prefix(root)
                    .unwrap_or(&file)
                    .to_string_lossy()
                    .as_bytes(),
            );
            feed(&bytes);
        }
    }
    hash
}

fn collect_sources(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            files.push(path);
        }
    }
}
