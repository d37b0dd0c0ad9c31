//! The sweep report: a full models × tests exploration with lattice,
//! certificates and layer-by-layer engine counters.

use std::fmt::Write as _;
use std::time::Duration;

use mcm_core::json::{Json, JsonWriter};
use mcm_core::LitmusTest;
use mcm_explore::distinguish::MinimalSet;
use mcm_explore::dot::{render_dot, DotOptions};
use mcm_explore::{report, Exploration, Lattice, SweepStats};
use mcm_gen::StreamBounds;

use crate::render::{duration_json, duration_text, envelope, Render};

/// What a [`mcm_explore::VerdictCache`] ended up holding after a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheSummary {
    /// Entries in the cache when the query finished.
    pub entries: usize,
    /// Lookups answered from the cache, both tiers
    /// (`hits_ram + hits_disk`).
    pub hits: u64,
    /// Hits on entries computed earlier in this process (RAM tier).
    pub hits_ram: u64,
    /// Hits on entries hydrated from a durable store (disk tier) —
    /// verdicts a previous process paid for.
    pub hits_disk: u64,
    /// Lookups that fell through to a checker.
    pub misses: u64,
    /// Shard locks that were contended on insert/merge (a measure of
    /// worker convoying; same base name as `/metricsz`'s
    /// `mcm_cache_shard_contention_total`).
    pub shard_contention: u64,
}

impl std::fmt::Display for CacheSummary {
    /// The standard cache line every report prints.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cache: {} entries, {} hits ({} ram + {} disk), {} misses",
            self.entries, self.hits, self.hits_ram, self.hits_disk, self.misses,
        )
    }
}

/// What the disk-backed verdict store did during a query
/// (`--store` / `mcm serve --store-dir`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreSummary {
    /// The verdict-log path.
    pub path: String,
    /// Records replayed from the log when the cache opened.
    pub hydrated: u64,
    /// Fresh records appended during the query.
    pub appended: u64,
    /// Frames flushed (one per batch of fresh verdicts).
    pub flushes: u64,
    /// Append failures (counted, never fatal).
    pub write_errors: u64,
    /// Log size in bytes after the query.
    pub bytes: u64,
    /// Whether opening recovered from a torn/corrupt tail.
    pub recovered_tail: bool,
}

impl std::fmt::Display for StoreSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "store: {} ({} hydrated, {} appended, {} bytes",
            self.path, self.hydrated, self.appended, self.bytes,
        )?;
        if self.write_errors > 0 {
            write!(f, ", {} write errors", self.write_errors)?;
        }
        f.write_str(")")
    }
}

/// Checkpointing activity of a streamed sweep (`--checkpoint` /
/// `--resume`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// The checkpoint-file path.
    pub path: String,
    /// Checkpoints saved (one per processed chunk).
    pub saves: u64,
    /// Save failures (counted, never fatal — the sweep continues).
    pub save_errors: u64,
    /// The stream cursor this run resumed from, when it did.
    pub resumed_at: Option<u64>,
}

/// The warm re-sweep demonstration: after a cached full-space sweep, the
/// Figure 4 subspace re-checks without a single checker call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarmSummary {
    /// Wall-clock of the warm re-sweep.
    pub elapsed: Duration,
    /// Cache hits during the re-sweep.
    pub cache_hits: u64,
    /// Checker calls during the re-sweep (0 when fully warm).
    pub checker_calls: u64,
}

/// How a streamed sweep was bounded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamSummary {
    /// The enumerated box.
    pub bounds: StreamBounds,
    /// The leader-count cap, when one was requested.
    pub limit: Option<usize>,
    /// The stripe this sweep covered (`--shard i/n`), when sharded.
    pub shard: Option<mcm_gen::Shard>,
    /// Size of the raw (pre-canonicalization) space, when small enough
    /// to count by shape.
    pub raw_space: Option<u64>,
}

/// Everything a sweep query produced: the verdict matrix, the Figure-4
/// style lattice, equivalence data, the minimal distinguishing set (for
/// materialized suites) and the engine's work counters.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// The models × tests verdict matrix.
    pub exploration: Exploration,
    /// Layer-by-layer engine counters.
    pub stats: SweepStats,
    /// The Hasse diagram of model classes.
    pub lattice: Lattice,
    /// Pairs of equivalent models, by name.
    pub equivalent_pairs: Vec<(String, String)>,
    /// A minimum distinguishing set with SAT minimality certificate
    /// (materialized suites only).
    pub minimal_set: Option<MinimalSet>,
    /// Indices of the paper's nine tests within the suite (empty when the
    /// suite does not contain them).
    pub nine_test_indices: Vec<usize>,
    /// Whether L1–L9 alone distinguish every non-equivalent pair
    /// (materialized suites only).
    pub nine_tests_sufficient: Option<bool>,
    /// Cache totals, when the query ran with a verdict cache.
    pub cache: Option<CacheSummary>,
    /// Disk-store activity, when the cache was backed by a verdict log.
    pub store: Option<StoreSummary>,
    /// Checkpointing activity, when a streamed sweep ran with
    /// `--checkpoint` (and possibly `--resume`).
    pub checkpoint: Option<CheckpointSummary>,
    /// The warm re-sweep demonstration, when requested and applicable.
    pub warm: Option<WarmSummary>,
    /// Stream bounds, when this was a streamed sweep.
    pub stream: Option<StreamSummary>,
    /// Per-checker latency percentiles observed during the sweep
    /// (`None` when obs was disabled). JSON-only: profiling data, not
    /// part of the human-readable story.
    pub timings: Option<crate::reports::Timings>,
    /// Wall-clock of the sweep.
    pub elapsed: Duration,
}

impl SweepReport {
    fn cache_text(&self, out: &mut String) {
        if let Some(cache) = &self.cache {
            let _ = writeln!(out, "{cache}");
        }
        if let Some(store) = &self.store {
            let _ = writeln!(out, "{store}");
        }
        if let Some(ckpt) = &self.checkpoint {
            let resumed = match ckpt.resumed_at {
                Some(cursor) => format!(", resumed at leader {cursor}"),
                None => String::new(),
            };
            let failed = match ckpt.save_errors {
                0 => String::new(),
                n => format!(", {n} save errors"),
            };
            let _ = writeln!(
                out,
                "checkpoint: {} ({} saves{failed}{resumed})",
                ckpt.path, ckpt.saves,
            );
        }
    }

    fn streamed_text(&self, stream: &StreamSummary) -> String {
        let mut out = String::new();
        let bounds = &stream.bounds;
        let raw = match stream.raw_space {
            Some(count) => format!("{count} tests"),
            None => "too many tests to even count by shape".to_string(),
        };
        let shard = match &stream.shard {
            Some(shard) => format!(", shard {shard}"),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "streaming leaders: <= {} accesses/thread x {} threads, {} locs{}{}{shard} \
             (raw space: {raw}, never materialized) against {} models ...",
            bounds.max_accesses_per_thread,
            bounds.threads,
            bounds.max_locs,
            if bounds.include_fences { ", fences" } else { "" },
            if bounds.include_deps { ", deps" } else { "" },
            self.exploration.models.len(),
        );
        let _ = writeln!(
            out,
            "swept {} models x {} streamed leaders in {}",
            self.exploration.models.len(),
            self.exploration.tests.len(),
            duration_text(self.elapsed),
        );
        let _ = writeln!(out, "{}", report::streaming_summary(&self.stats));
        let _ = writeln!(
            out,
            "lattice: {} equivalence classes, {} covering edges",
            self.lattice.classes.len(),
            self.lattice.edges.len(),
        );
        let _ = writeln!(out, "equivalent pairs: {}", self.equivalent_pairs.len());
        for (a, b) in self.equivalent_pairs.iter().take(12) {
            let _ = writeln!(out, "  {a} == {b}");
        }
        if self.equivalent_pairs.len() > 12 {
            let _ = writeln!(out, "  ... and {} more", self.equivalent_pairs.len() - 12);
        }
        self.cache_text(&mut out);
        out
    }

    fn materialized_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "explored {} models against {} tests in {}",
            self.exploration.models.len(),
            self.exploration.tests.len(),
            duration_text(self.elapsed),
        );
        out.push_str(&report::sweep_stats_text(&self.stats));
        if let Some(warm) = &self.warm {
            let _ = writeln!(
                out,
                "warm re-sweep of the dependency-free subspace in {}: \
                 {} cache hits, {} checker calls",
                duration_text(warm.elapsed),
                warm.cache_hits,
                warm.checker_calls,
            );
        }
        self.cache_text(&mut out);
        let _ = writeln!(out, "equivalence classes: {}", self.lattice.classes.len());
        let _ = writeln!(out, "equivalent pairs: {}", self.equivalent_pairs.len());
        for (a, b) in &self.equivalent_pairs {
            let _ = writeln!(out, "  {a} == {b}");
        }
        if let Some(minimal) = &self.minimal_set {
            let names: Vec<&str> = minimal
                .tests
                .iter()
                .map(|&t| self.exploration.tests[t].name())
                .collect();
            let _ = writeln!(
                out,
                "minimum distinguishing set: {} tests (SAT-certified: {}): {names:?}",
                minimal.tests.len(),
                minimal.proved_minimum,
            );
        }
        if let Some(sufficient) = self.nine_tests_sufficient {
            let _ = writeln!(out, "paper's L1–L9 sufficient: {sufficient}");
        }
        out
    }

    fn test_name(&self, t: usize) -> &str {
        self.exploration.tests[t].name()
    }

    /// The report's JSON fields in documented order, with `verdicts` as
    /// the verdict-matrix field: the DOM for [`Render::json_fields`], a
    /// `null` stand-in the streamed [`Render::json_text`] writes from the
    /// bits instead.
    fn fields(&self, verdicts: Json) -> Vec<(String, Json)> {
        let expl = &self.exploration;
        let models = Json::array_of(&expl.models, |m| Json::from(m.name()));
        let tests = tests_names_json(&expl.tests);
        let classes = Json::array_of(&self.lattice.classes, |c| self.class_names(&c.members));
        let edges = Json::array_of(&self.lattice.edges, |e| {
            let label = e
                .distinguishing
                .iter()
                .find(|t| self.nine_test_indices.contains(t))
                .or_else(|| e.distinguishing.first())
                .map(|&t| self.test_name(t));
            Json::object([
                ("weaker", Json::from(e.weaker)),
                ("stronger", Json::from(e.stronger)),
                ("label", Json::from(label)),
                (
                    "distinguishing_count",
                    Json::from(e.distinguishing.len()),
                ),
            ])
        });
        let minimal = match &self.minimal_set {
            None => Json::Null,
            Some(minimal) => Json::object([
                (
                    "tests",
                    Json::array_of(&minimal.tests, |&t| Json::from(self.test_name(t))),
                ),
                ("proved_minimum", Json::Bool(minimal.proved_minimum)),
            ]),
        };
        let warm = match &self.warm {
            None => Json::Null,
            Some(warm) => Json::object([
                ("elapsed_ms", duration_json(warm.elapsed)),
                ("cache_hits", Json::from(warm.cache_hits)),
                ("checker_calls", Json::from(warm.checker_calls)),
            ]),
        };
        let stream = match &self.stream {
            None => Json::Null,
            Some(stream) => Json::object([
                (
                    "max_accesses_per_thread",
                    Json::from(stream.bounds.max_accesses_per_thread),
                ),
                ("threads", Json::from(stream.bounds.threads)),
                ("max_locs", Json::from(u64::from(stream.bounds.max_locs))),
                ("include_fences", Json::Bool(stream.bounds.include_fences)),
                ("include_deps", Json::Bool(stream.bounds.include_deps)),
                ("limit", Json::from(stream.limit.map(|l| l as u64))),
                (
                    "shard",
                    match &stream.shard {
                        Some(shard) => Json::from(shard.to_string().as_str()),
                        None => Json::Null,
                    },
                ),
                ("raw_space", Json::from(stream.raw_space)),
            ]),
        };
        vec![
            ("models".to_string(), models),
            ("tests".to_string(), tests),
            ("verdicts".to_string(), verdicts),
            ("stats".to_string(), stats_json(&self.stats)),
            ("classes".to_string(), classes),
            ("edges".to_string(), edges),
            (
                "equivalent_pairs".to_string(),
                Json::array_of(&self.equivalent_pairs, |(a, b)| {
                    Json::Array(vec![Json::from(a.as_str()), Json::from(b.as_str())])
                }),
            ),
            ("minimal_set".to_string(), minimal),
            (
                "nine_tests_sufficient".to_string(),
                Json::from(self.nine_tests_sufficient),
            ),
            ("cache".to_string(), cache_json(&self.cache)),
            ("store".to_string(), store_json(&self.store)),
            ("checkpoint".to_string(), checkpoint_json(&self.checkpoint)),
            ("warm".to_string(), warm),
            ("stream".to_string(), stream),
            (
                "timings".to_string(),
                crate::reports::timings::timings_json(&self.timings),
            ),
            ("elapsed_ms".to_string(), duration_json(self.elapsed)),
        ]
    }

    /// The class members of class `c`, by model name.
    fn class_names(&self, members: &[usize]) -> Json {
        Json::array_of(members, |&m| {
            Json::from(self.exploration.models[m].name())
        })
    }
}

/// JSON view of the engine counters, nested groups included.
pub(crate) fn stats_json(stats: &SweepStats) -> Json {
    let mut fields = crate::render::counter_fields(&stats.counters());
    fields.push((
        "batch".to_string(),
        crate::render::counters_json(&stats.batch.counters()),
    ));
    fields.push((
        "sat".to_string(),
        crate::render::counters_json(&stats.sat.counters()),
    ));
    Json::Object(fields)
}

pub(crate) fn cache_json(cache: &Option<CacheSummary>) -> Json {
    match cache {
        None => Json::Null,
        Some(cache) => Json::object([
            ("entries", Json::from(cache.entries)),
            ("hits", Json::from(cache.hits)),
            ("hits_ram", Json::from(cache.hits_ram)),
            ("hits_disk", Json::from(cache.hits_disk)),
            ("misses", Json::from(cache.misses)),
            ("shard_contention", Json::from(cache.shard_contention)),
        ]),
    }
}

pub(crate) fn store_json(store: &Option<StoreSummary>) -> Json {
    match store {
        None => Json::Null,
        Some(store) => Json::object([
            ("path", Json::from(store.path.as_str())),
            ("hydrated", Json::from(store.hydrated)),
            ("appended", Json::from(store.appended)),
            ("flushes", Json::from(store.flushes)),
            ("write_errors", Json::from(store.write_errors)),
            ("bytes", Json::from(store.bytes)),
            ("recovered_tail", Json::Bool(store.recovered_tail)),
        ]),
    }
}

fn checkpoint_json(checkpoint: &Option<CheckpointSummary>) -> Json {
    match checkpoint {
        None => Json::Null,
        Some(ckpt) => Json::object([
            ("path", Json::from(ckpt.path.as_str())),
            ("saves", Json::from(ckpt.saves)),
            ("save_errors", Json::from(ckpt.save_errors)),
            ("resumed_at", Json::from(ckpt.resumed_at)),
        ]),
    }
}

pub(crate) fn tests_names_json(tests: &[LitmusTest]) -> Json {
    Json::array_of(tests, |t| Json::from(t.name()))
}

impl Render for SweepReport {
    fn kind(&self) -> &'static str {
        "sweep"
    }

    fn text(&self) -> String {
        match &self.stream {
            Some(stream) => self.streamed_text(stream),
            None => self.materialized_text(),
        }
    }

    fn json_fields(&self) -> Vec<(String, Json)> {
        let verdicts = Json::array_of(&self.exploration.verdicts, |v| {
            Json::Array((0..v.len()).map(|t| Json::Bool(v.allowed(t))).collect())
        });
        self.fields(verdicts)
    }

    /// The verdict matrix — nearly every byte of a large sweep's document
    /// — goes straight from the bits to the text, without one
    /// [`Json::Bool`] node per cell; every other field is the DOM
    /// [`Render::json_fields`] builds.
    fn json_text(&self) -> String {
        let document = envelope(self.kind(), self.fields(Json::Null));
        let fields = document.as_object().expect("the envelope is an object");
        let verdicts = &self.exploration.verdicts;
        JsonWriter::pretty(|w| {
            w.object_with(fields, |w, key, value| match key {
                "verdicts" => w.array(verdicts.len(), |w, m| {
                    let row = &verdicts[m];
                    w.bools(row.len(), |t| row.allowed(t));
                }),
                _ => w.value(value),
            });
        })
    }
    fn csv(&self) -> Option<String> {
        Some(report::csv_matrix(&self.exploration))
    }

    fn dot(&self) -> Option<String> {
        Some(render_dot(
            &self.exploration,
            &self.lattice,
            &DotOptions {
                name: "models".to_string(),
                preferred_tests: self.nine_test_indices.clone(),
                ..DotOptions::default()
            },
        ))
    }
}
