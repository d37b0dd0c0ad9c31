//! Exploring a space of memory models over a litmus suite (§4.2).
//!
//! One reference and one engine:
//!
//! * [`Exploration::run`] — the sequential oracle: any per-cell
//!   [`Checker`], every (model, test) cell checked, no engine layer;
//! * the sweep engine — one private streaming core behind three front
//!   ends. It pulls tests in chunks, collapses each chunk (optional
//!   symmetry canonicalization with a cross-chunk fingerprint map, cache
//!   fingerprints), checks the kept tests test-major against every
//!   distinct-formula row through a [`BatchChecker`] on a work-stealing
//!   grid, optionally memoized by a [`VerdictCache`], and grows the
//!   verdict rows. The next chunk is pulled on the calling thread while
//!   the current one is checked, so peak memory is two chunks of tests
//!   plus the kept tests and their verdict bits.
//!   - [`Exploration::run_engine_streaming`] consumes **any** test
//!     iterator (typically `mcm_gen::stream::leaders`, which yields one
//!     canonical representative per symmetry orbit without materialising
//!     the raw space);
//!   - [`Exploration::run_engine_streaming_with`] adds per-chunk
//!     checkpoints and resume ([`StreamControl`]);
//!   - [`Exploration::run_engine`] sweeps a materialized suite as a
//!     single chunk and, when canonicalizing, expands the verdicts back
//!     over the input order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mcm_analyze::SweepPrefilter;
use mcm_axiomatic::{BatchChecker, BatchStats, Checker, EdgeSet};
use mcm_core::{Execution, LitmusTest, MemoryModel};
use mcm_gen::canon;
use mcm_sat::SolverStats;

use crate::cache::VerdictCache;
use crate::verdict::{Relation, VerdictVector};

/// Tuning knobs for [`Exploration::run_engine`] and
/// [`Exploration::run_engine_streaming`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Collapse the suite to canonical symmetry-orbit representatives
    /// before checking (verdict-preserving, see [`mcm_gen::canon`]). The
    /// engine applies this per chunk (plus a cross-chunk fingerprint
    /// map), so feeding it an already-canonical leader stream makes this
    /// a no-op.
    pub canonicalize: bool,
    /// Worker threads; `None` uses all available cores, `Some(1)` runs
    /// the whole sweep on the calling thread.
    pub jobs: Option<usize>,
    /// Work items — **test rows**, each checked against every model at
    /// once — claimed per scheduling step. Small batches steal well when
    /// per-row cost is uneven; large batches lower contention.
    pub batch_size: usize,
    /// Tests materialized per chunk by the streaming front ends
    /// ([`Exploration::run_engine`] sweeps its suite as one chunk). The
    /// engine pulls chunk k+1 while chunk k is checked, so at most two
    /// chunks are live at once: the memory high-water mark of a streamed
    /// sweep is twice this many tests.
    pub stream_chunk: usize,
    /// Quotient the models per test before calling the checker
    /// ([`mcm_analyze::SweepPrefilter::quotient`]): models whose truth
    /// tables force the same program-order pairs on a test share its
    /// verdict, so the checker decides one forced-edge set per group
    /// ([`BatchChecker::check_edge_sets`]) and the bit fans out. Sound
    /// unconditionally; the skipped calls are counted in
    /// [`SweepStats::prefilter_saved_calls`]. Off, every missing model
    /// goes through [`BatchChecker::check_all_executions`] — the oracle.
    pub prefilter: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            canonicalize: false,
            jobs: None,
            batch_size: 4,
            stream_chunk: 4096,
            prefilter: true,
        }
    }
}

impl EngineConfig {
    /// Canonicalization on, all cores — the configuration the CLI uses
    /// when `--canonicalize` is passed.
    #[must_use]
    pub fn canonicalizing() -> Self {
        EngineConfig {
            canonicalize: true,
            ..EngineConfig::default()
        }
    }
}

/// What a sweep actually did, layer by layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// `models × tests`: the naive cost before any engine layer.
    pub total_pairs: u64,
    /// Work items after formula dedup and canonicalization:
    /// `distinct formulas × orbit representatives`.
    pub unique_pairs: u64,
    /// Verdicts answered by the [`VerdictCache`] instead of a checker,
    /// both tiers.
    pub cache_hits: u64,
    /// The subset of [`SweepStats::cache_hits`] answered by entries
    /// hydrated from a durable store (disk tier) rather than computed
    /// earlier in this process.
    pub cache_hits_disk: u64,
    /// Actual checker invocations (`unique_pairs - cache_hits`).
    pub checker_calls: u64,
    /// Orbit representatives actually checked.
    pub canonical_tests: usize,
    /// Distinct must-not-reorder formulas actually checked.
    pub distinct_models: usize,
    /// Tests pulled from the input suite or stream (equals the input
    /// length for materialized sweeps).
    pub tests_streamed: u64,
    /// Largest deduplicated batch handed to the grid at once: the
    /// largest chunk after canonicalization (the whole deduplicated suite
    /// for [`Exploration::run_engine`], which sweeps one chunk). A
    /// streamed sweep also holds the prefetched next chunk, at most
    /// [`EngineConfig::stream_chunk`] tests, while this batch is checked.
    pub peak_batch: usize,
    /// Model groups the sweep prefilter formed across all checked tests
    /// (each group costs one checker call).
    pub prefilter_groups: u64,
    /// Checker calls the prefilter proved unnecessary: group members
    /// beyond the representative, answered by fan-out.
    pub prefilter_saved_calls: u64,
    /// SAT-solver work totals, summed over every worker's checker. All
    /// zeros when the sweep ran a solver-free checker (the explicit one).
    pub sat: SolverStats,
    /// Per-row amortization counters from the batched checkers: rows
    /// answered, model-group collapses, shared candidate executions and
    /// assumption-selected solves. All zeros when the sweep ran a
    /// per-cell adapter (which shares nothing across a row).
    pub batch: BatchStats,
}

impl SweepStats {
    /// `total_pairs / checker_calls`: the end-to-end work reduction
    /// delivered by dedup plus memoization (∞-free: 0 calls reports the
    /// reduction against 1).
    #[must_use]
    pub fn reduction_factor(&self) -> f64 {
        self.total_pairs as f64 / (self.checker_calls.max(1)) as f64
    }

    /// The scalar counters as stable `(name, value)` pairs — the
    /// structured view serializable reports render from (the nested
    /// [`SweepStats::sat`] and [`SweepStats::batch`] groups have
    /// `counters()` views of their own).
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 11] {
        [
            ("total_pairs", self.total_pairs),
            ("unique_pairs", self.unique_pairs),
            ("cache_hits", self.cache_hits),
            ("cache_hits_disk", self.cache_hits_disk),
            ("checker_calls", self.checker_calls),
            ("canonical_tests", self.canonical_tests as u64),
            ("distinct_models", self.distinct_models as u64),
            ("tests_streamed", self.tests_streamed),
            ("peak_batch", self.peak_batch as u64),
            ("prefilter_groups", self.prefilter_groups),
            ("prefilter_saved_calls", self.prefilter_saved_calls),
        ]
    }
}

/// Resumable state of a streaming sweep, captured at a chunk boundary.
///
/// Everything [`Exploration::run_engine_streaming_with`] needs to pick a
/// sweep back up where a previous process left off: how far into the
/// (deterministic) test stream it got, the verdict rows grown so far, and
/// the accumulated counters. The kept tests themselves are *not* stored —
/// on resume the engine replays the consumed prefix of the stream through
/// the (cheap) dedup layer only, re-deriving them without a single
/// checker call. `mcm-store`'s `checkpoint` module serializes this to
/// disk.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamCheckpoint {
    /// Tests consumed from the input iterator so far.
    pub tests_streamed: u64,
    /// Tests kept after dedup — the length of every verdict row.
    pub tests_kept: u64,
    /// Distinct-formula row fingerprints, in row order. Resume validates
    /// these against the new run's model list: a checkpoint taken over
    /// different models is rejected, not silently misapplied.
    pub model_fps: Vec<u64>,
    /// Per-row verdict vectors over the kept tests (row order matches
    /// [`StreamCheckpoint::model_fps`]).
    pub row_verdicts: Vec<VerdictVector>,
    /// Engine counters accumulated up to the checkpoint.
    pub stats: SweepStats,
}

/// Why a [`StreamCheckpoint`] could not be applied to a resumed sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeError(pub String);

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot resume sweep: {}", self.0)
    }
}

impl std::error::Error for ResumeError {}

/// Per-chunk control of a streaming sweep: checkpoint capture and resume.
///
/// The default value changes nothing — no checkpoints are taken and the
/// sweep starts cold, exactly like [`Exploration::run_engine_streaming`].
#[derive(Default)]
pub struct StreamControl<'a> {
    /// Called after every processed chunk with the current resumable
    /// state. Returning `false` stops the sweep early — the engine
    /// returns the partial exploration built so far; tests and kill/
    /// resume demos use this to bound work deterministically.
    #[allow(clippy::type_complexity)]
    pub on_checkpoint: Option<Box<dyn FnMut(&StreamCheckpoint) -> bool + 'a>>,
    /// Resume from this state instead of starting cold.
    pub resume: Option<StreamCheckpoint>,
}

/// The result of checking every model against every test.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// The models, in input order.
    pub models: Vec<MemoryModel>,
    /// The tests, in input order.
    pub tests: Vec<LitmusTest>,
    /// `verdicts[m]` is model `m`'s vector over `tests`.
    pub verdicts: Vec<VerdictVector>,
}

/// Layer 1 of every engine sweep: models with structurally identical
/// must-not-reorder formulas share a verdict row (`TSO` and `x86`).
/// Formulas that are equal only semantically keep rows of their own; the
/// per-test quotient ([`SweepPrefilter::quotient`]) still hands each such
/// group one checker call.
struct FormulaRows {
    /// Model index -> row index.
    row_of: Vec<usize>,
    /// Row index -> first model index with that formula.
    row_models: Vec<usize>,
    /// Cache fingerprints, parallel to `row_models`.
    model_fps: Vec<u64>,
}

fn formula_rows(models: &[MemoryModel]) -> FormulaRows {
    let mut row_of: Vec<usize> = Vec::with_capacity(models.len());
    let mut row_models: Vec<usize> = Vec::new();
    for (m, model) in models.iter().enumerate() {
        match row_models
            .iter()
            .position(|&first| models[first].formula() == model.formula())
        {
            Some(row) => row_of.push(row),
            None => {
                row_of.push(row_models.len());
                row_models.push(m);
            }
        }
    }
    let model_fps = row_models
        .iter()
        .map(|&m| VerdictCache::model_fingerprint(&models[m]))
        .collect();
    FormulaRows {
        row_of,
        row_models,
        model_fps,
    }
}

fn resolve_jobs(config: &EngineConfig) -> usize {
    config
        .jobs
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .max(1)
}

/// The model side of a sweep, fixed across every chunk: the full model
/// list, its distinct-formula rows, and the optional prefilter over them.
struct ModelSide<'a> {
    models: &'a [MemoryModel],
    rows: &'a FormulaRows,
    prefilter: Option<&'a SweepPrefilter>,
}

/// What one `sweep_grid` call produced: the row-major allowed bits plus
/// the layer counters the core folds into [`SweepStats`].
struct GridOutcome {
    /// `bits[row * execs.len() + rep]`: is the outcome allowed?
    bits: Vec<bool>,
    cache_hits: u64,
    cache_hits_disk: u64,
    checker_calls: u64,
    prefilter_groups: u64,
    prefilter_saved_calls: u64,
    sat: SolverStats,
    batch: BatchStats,
}

/// The shared sweep core, test-major: the unit of parallel work is a
/// **test row** — one execution checked against every distinct-formula
/// model at once through a [`BatchChecker`] — scheduled work-stealing
/// across workers. Cache lookups are row-keyed: the model fingerprints
/// resolve to cache ids once per call, and each test row then costs one
/// shard lock and one probe ([`VerdictCache::lookup_row`]), its verdicts
/// landing straight in the result slots; only the missing models of a
/// row reach the checker. Layer 3 is the test's one model quotient: with
/// a [`SweepPrefilter`] the missing rows are grouped by the program-order
/// pairs their formulas force, read off the prefilter's truth tables, and
/// the checker decides each group's edge set once — no model is cloned
/// and the checker regroups nothing. The verdict fans out to every member
/// (and is cached once per member). Warm rows cost no checker work and
/// cold rows amortize candidate enumeration / encoding across the whole
/// model space.
///
/// `prefetch` runs on the calling thread while the other workers check
/// (see the end of the function); it need not be `Send`.
fn sweep_grid<F>(
    side: &ModelSide<'_>,
    execs: &[Execution],
    fps: &[u64],
    make_checker: &F,
    config: &EngineConfig,
    cache: Option<&VerdictCache>,
    prefetch: impl FnOnce(),
) -> GridOutcome
where
    F: Fn() -> Box<dyn BatchChecker> + Sync,
{
    let ModelSide {
        models,
        rows,
        prefilter,
    } = *side;
    let _span = mcm_obs::trace::span_with(
        "engine.grid",
        &[
            ("tests", &execs.len().to_string()),
            ("rows", &rows.row_models.len().to_string()),
        ],
    );
    let jobs = resolve_jobs(config);
    let reps = execs.len();
    let row_count = rows.row_models.len();
    let batch = config.batch_size.max(1);
    let workers = jobs.min(reps.div_ceil(batch)).max(1);

    // Shared state: a claim cursor over test rows, one result cell per
    // (row, test) pair (0 = unset, 1 = forbidden, 2 = allowed), counters.
    let cursor = AtomicUsize::new(0);
    let results: Vec<AtomicU8> = (0..row_count * reps).map(|_| AtomicU8::new(0)).collect();
    let cache_hits = AtomicU64::new(0);
    let cache_hits_disk = AtomicU64::new(0);
    let checker_calls = AtomicU64::new(0);
    let prefilter_groups = AtomicU64::new(0);
    let prefilter_saved = AtomicU64::new(0);
    let lookup = cache.map(|cache| (cache, cache.model_ids(&rows.model_fps)));

    let sweep = |local_batch: &mut Vec<((u64, u64), bool)>, checker: &dyn BatchChecker| {
        let mut hits = 0u64;
        let mut disk_hits = 0u64;
        // Row-lookup time, summed here and recorded once per worker.
        let mut lookup_time = Duration::ZERO;
        let mut calls = 0u64;
        let mut groups_formed = 0u64;
        let mut saved = 0u64;
        let mut missing_rows: Vec<usize> = Vec::new();
        let mut decided: Vec<(usize, bool)> = Vec::new();
        loop {
            let start = cursor.fetch_add(batch, Ordering::Relaxed);
            if start >= reps {
                break;
            }
            let end = (start + batch).min(reps);
            for rep in start..end {
                missing_rows.clear();
                match &lookup {
                    Some((cache, ids)) => {
                        let start = Instant::now();
                        let (ram, disk) = cache.lookup_row(ids, fps[rep], |row, memoized| {
                            match memoized {
                                Some(allowed) => results[row * reps + rep]
                                    .store(if allowed { 2 } else { 1 }, Ordering::Relaxed),
                                None => missing_rows.push(row),
                            }
                        });
                        lookup_time += start.elapsed();
                        hits += ram + disk;
                        disk_hits += disk;
                    }
                    None => missing_rows.extend(0..row_count),
                }
                if missing_rows.is_empty() {
                    continue;
                }
                let exec = &execs[rep];
                decided.clear();
                match prefilter {
                    // Layer 3: the test's model quotient. One edge set per
                    // group reaches the checker; its bit fans out.
                    Some(pf) => {
                        let quotient = pf.quotient(exec, &missing_rows);
                        let sets: Vec<EdgeSet<'_>> = quotient
                            .groups
                            .iter()
                            .map(|(rep, pairs)| EdgeSet {
                                model: &models[rows.row_models[*rep]],
                                pairs,
                            })
                            .collect();
                        let allowed = checker.check_edge_sets(exec, &sets);
                        calls += sets.len() as u64;
                        groups_formed += sets.len() as u64;
                        saved += (missing_rows.len() - sets.len()) as u64;
                        decided.extend(
                            missing_rows
                                .iter()
                                .zip(&quotient.group_of)
                                .map(|(&row, &g)| (row, allowed[g])),
                        );
                    }
                    // The oracle path: every missing row, one model each.
                    None => {
                        let missing: Vec<MemoryModel> = missing_rows
                            .iter()
                            .map(|&row| models[rows.row_models[row]].clone())
                            .collect();
                        calls += missing.len() as u64;
                        let verdicts = checker.check_all_executions(exec, &missing);
                        decided.extend(
                            missing_rows
                                .iter()
                                .zip(verdicts)
                                .map(|(&row, verdict)| (row, verdict.allowed)),
                        );
                    }
                }
                for &(row, allowed) in &decided {
                    results[row * reps + rep].store(if allowed { 2 } else { 1 }, Ordering::Relaxed);
                    if cache.is_some() {
                        local_batch.push(((rows.model_fps[row], fps[rep]), allowed));
                    }
                }
            }
        }
        if lookup.is_some() && mcm_obs::enabled() {
            mcm_obs::metrics::histogram("mcm_cache_lookup_us", &[])
                .record(lookup_time.as_micros() as u64);
        }
        cache_hits.fetch_add(hits, Ordering::Relaxed);
        cache_hits_disk.fetch_add(disk_hits, Ordering::Relaxed);
        checker_calls.fetch_add(calls, Ordering::Relaxed);
        prefilter_groups.fetch_add(groups_formed, Ordering::Relaxed);
        prefilter_saved.fetch_add(saved, Ordering::Relaxed);
    };

    // The caller is the last worker: it spawns the others, runs
    // `prefetch` (the core pulls its next chunk there, off
    // the critical path), then joins the work-stealing loop with its own
    // checker. With one worker that is prefetch, then the whole sweep.
    let work = || {
        let checker = make_checker();
        let mut local = Vec::new();
        sweep(&mut local, checker.as_ref());
        (local, checker.solver_stats(), checker.batch_stats())
    };
    let done: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(|| {
                    // Outermost span of this worker thread: its drop
                    // flushes the thread's trace buffer, which scoped
                    // threads must do themselves (they are joined
                    // before TLS destructors run).
                    let _span = mcm_obs::trace::span("engine.grid.worker");
                    work()
                })
            })
            .collect();
        prefetch();
        let mut done = vec![{
            let _span = mcm_obs::trace::span("engine.grid.worker");
            work()
        }];
        done.extend(handles.into_iter().map(|h| h.join().expect("sweep workers do not panic")));
        done
    });
    // Verdicts reach the cache only once every worker is done, so no
    // worker reads another's fresh entries: a test repeated within one
    // grid misses the cache whatever the job count, and the counters do
    // not depend on scheduling.
    let mut sat = SolverStats::default();
    let mut amortized = BatchStats::default();
    for (local, solver, batched) in done {
        if let Some(cache) = cache {
            cache.merge(local);
        }
        if let Some(stats) = solver {
            sat.absorb(stats);
        }
        if let Some(stats) = batched {
            amortized.absorb(stats);
        }
    }

    let bits = results
        .into_iter()
        .map(|slot| slot.into_inner() == 2)
        .collect();
    GridOutcome {
        bits,
        cache_hits: cache_hits.load(Ordering::Relaxed),
        cache_hits_disk: cache_hits_disk.load(Ordering::Relaxed),
        checker_calls: checker_calls.load(Ordering::Relaxed),
        prefilter_groups: prefilter_groups.load(Ordering::Relaxed),
        prefilter_saved_calls: prefilter_saved.load(Ordering::Relaxed),
        sat,
        batch: amortized,
    }
}

/// The one sweep core behind every engine front end.
///
/// Pulls `tests` in chunks of [`EngineConfig::stream_chunk`], collapses
/// each chunk through the dedup layer, checks the kept tests on the
/// work-stealing grid (`sweep_grid`), and grows the verdict rows and the
/// [`SweepStats`] chunk by chunk; `control` adds checkpoints and resume.
/// With `answered_by`, the dedup layer also records, for every pulled
/// test, the index of the kept test whose verdicts answer it.
fn sweep_stream<I, F>(
    models: Vec<MemoryModel>,
    tests: I,
    make_checker: &F,
    config: &EngineConfig,
    cache: Option<&VerdictCache>,
    mut control: StreamControl<'_>,
    mut answered_by: Option<&mut Vec<usize>>,
) -> Result<(Exploration, SweepStats), ResumeError>
where
    I: IntoIterator<Item = LitmusTest>,
    F: Fn() -> Box<dyn BatchChecker> + Sync,
{
    let _span = mcm_obs::trace::span("engine.stream");
    let rows = formula_rows(&models);
    // The per-test quotient needs at least two rows to group.
    let prefilter = (config.prefilter && rows.row_models.len() >= 2).then(|| {
        let _span = mcm_obs::trace::span("engine.prefilter");
        let refs: Vec<&MemoryModel> = rows.row_models.iter().map(|&m| &models[m]).collect();
        SweepPrefilter::new(&refs)
    });
    let jobs = resolve_jobs(config);
    let chunk_size = config.stream_chunk.max(1);
    let mut iter = tests.into_iter();
    let mut kept: Vec<LitmusTest> = Vec::new();
    let mut row_verdicts: Vec<VerdictVector> =
        (0..rows.row_models.len()).map(|_| VerdictVector::new(0)).collect();
    // Orbit fingerprint -> index of the kept test representing it.
    let mut seen: HashMap<u64, usize> = HashMap::new();
    let mut stats = SweepStats {
        distinct_models: rows.row_models.len(),
        ..SweepStats::default()
    };

    // The dedup layer: collapses a pulled chunk to the tests that will
    // actually be checked, plus their cache fingerprints. Used
    // identically by the live loop and the resume replay, so a replayed
    // prefix keeps exactly the tests the original run kept.
    let dedup = |chunk: Vec<LitmusTest>,
                 kept_before: usize,
                 seen: &mut HashMap<u64, usize>,
                 answered_by: Option<&mut Vec<usize>>|
     -> (Vec<LitmusTest>, Vec<u64>) {
        if config.canonicalize {
            let _canon_span = mcm_obs::trace::span("engine.canon");
            let canonical = canon::dedup_parallel(&chunk, jobs);
            let mut batch = Vec::with_capacity(canonical.tests.len());
            let mut fps = Vec::with_capacity(canonical.tests.len());
            let mut kept_index = Vec::with_capacity(canonical.tests.len());
            for (test, fp) in canonical.tests.into_iter().zip(canonical.fingerprints) {
                let index = *seen.entry(fp).or_insert_with(|| {
                    batch.push(test);
                    fps.push(fp);
                    kept_before + batch.len() - 1
                });
                kept_index.push(index);
            }
            if let Some(answered_by) = answered_by {
                answered_by.extend(canonical.class_of.iter().map(|&c| kept_index[c]));
            }
            (batch, fps)
        } else {
            if let Some(answered_by) = answered_by {
                answered_by.extend(kept_before..kept_before + chunk.len());
            }
            let fps = if cache.is_some() {
                chunk.iter().map(canon::fingerprint).collect()
            } else {
                vec![0u64; chunk.len()]
            };
            (chunk, fps)
        }
    };

    if let Some(state) = control.resume.take() {
        if state.model_fps != rows.model_fps {
            return Err(ResumeError(
                "checkpoint was taken over a different model list".to_string(),
            ));
        }
        if state.row_verdicts.len() != rows.model_fps.len()
            || state
                .row_verdicts
                .iter()
                .any(|v| v.len() as u64 != state.tests_kept)
        {
            return Err(ResumeError(
                "checkpoint verdict rows are inconsistent".to_string(),
            ));
        }
        // Replay the consumed prefix: pull the same chunks and re-run
        // only the dedup layer to rebuild the kept tests and the
        // cross-chunk fingerprint map — no checker work.
        let _replay_span = mcm_obs::trace::span("engine.replay");
        let mut replayed = 0u64;
        while replayed < state.tests_streamed {
            let want = chunk_size.min((state.tests_streamed - replayed) as usize);
            let chunk: Vec<LitmusTest> = iter.by_ref().take(want).collect();
            if chunk.is_empty() {
                return Err(ResumeError(
                    "stream is shorter than the checkpoint cursor".to_string(),
                ));
            }
            replayed += chunk.len() as u64;
            let (batch, _) = dedup(chunk, kept.len(), &mut seen, answered_by.as_deref_mut());
            kept.extend(batch);
        }
        if kept.len() as u64 != state.tests_kept {
            return Err(ResumeError(
                "replayed stream prefix kept a different test count".to_string(),
            ));
        }
        row_verdicts = state.row_verdicts;
        stats = state.stats;
    }

    // The leader phase: pulling the next chunk out of the (lazily
    // enumerated) test stream. Chunk k+1 is pulled inside chunk k's
    // grid, on this thread, while the other workers check — so at most
    // two chunks are live, and the iterator never leaves the calling
    // thread.
    let mut pull = || -> Vec<LitmusTest> {
        let _lead_span = mcm_obs::trace::span("engine.lead");
        iter.by_ref().take(chunk_size).collect()
    };
    let mut next = pull();
    loop {
        let chunk = std::mem::take(&mut next);
        if chunk.is_empty() {
            break;
        }
        let _chunk_span =
            mcm_obs::trace::span_with("engine.chunk", &[("tests", &chunk.len().to_string())]);
        stats.tests_streamed += chunk.len() as u64;
        let (batch, fps) = dedup(chunk, kept.len(), &mut seen, answered_by.as_deref_mut());
        stats.peak_batch = stats.peak_batch.max(batch.len());
        if batch.is_empty() {
            next = pull();
        } else {
            let execs: Vec<Execution> = batch.iter().map(LitmusTest::execution).collect();
            let grid = sweep_grid(
                &ModelSide {
                    models: &models,
                    rows: &rows,
                    prefilter: prefilter.as_ref(),
                },
                &execs,
                &fps,
                make_checker,
                config,
                cache,
                || next = pull(),
            );
            stats.cache_hits += grid.cache_hits;
            stats.cache_hits_disk += grid.cache_hits_disk;
            stats.checker_calls += grid.checker_calls;
            stats.prefilter_groups += grid.prefilter_groups;
            stats.prefilter_saved_calls += grid.prefilter_saved_calls;
            stats.sat.absorb(grid.sat);
            stats.batch.absorb(grid.batch);
            for (r, vector) in row_verdicts.iter_mut().enumerate() {
                for t in 0..batch.len() {
                    vector.push(grid.bits[r * batch.len() + t]);
                }
            }
            // The first batch becomes `kept` as is: a one-chunk sweep
            // copies no test buffer.
            if kept.is_empty() {
                kept = batch;
            } else {
                kept.extend(batch);
            }
        }
        stats.total_pairs = models.len() as u64 * stats.tests_streamed;
        stats.unique_pairs = (rows.row_models.len() * kept.len()) as u64;
        stats.canonical_tests = kept.len();
        if let Some(hook) = control.on_checkpoint.as_mut() {
            let state = StreamCheckpoint {
                tests_streamed: stats.tests_streamed,
                tests_kept: kept.len() as u64,
                model_fps: rows.model_fps.clone(),
                row_verdicts: row_verdicts.clone(),
                stats,
            };
            // Stopping discards the prefetched chunk: the checkpoint
            // counts processed tests only, and resume replays by count.
            if !hook(&state) {
                break;
            }
        }
    }
    let verdicts: Vec<VerdictVector> = rows
        .row_of
        .iter()
        .map(|&row| row_verdicts[row].clone())
        .collect();
    Ok((
        Exploration {
            models,
            tests: kept,
            verdicts,
        },
        stats,
    ))
}

impl Exploration {
    /// Runs the exploration sequentially with the given checker: the
    /// reference oracle the engine front ends are tested against.
    #[must_use]
    pub fn run(models: Vec<MemoryModel>, tests: Vec<LitmusTest>, checker: &dyn Checker) -> Self {
        let executions: Vec<Execution> = tests.iter().map(LitmusTest::execution).collect();
        let verdicts = models
            .iter()
            .map(|m| verdict_vector(m, &executions, checker))
            .collect();
        Exploration {
            models,
            tests,
            verdicts,
        }
    }

    /// The materialized sweep engine, test-major: the unit of parallel
    /// work is a **test row**, checked against every distinct-formula
    /// model in one [`BatchChecker`] call.
    ///
    /// 1. models with structurally identical must-not-reorder formulas are
    ///    checked once (`TSO` and `x86` share a row);
    /// 2. with [`EngineConfig::canonicalize`], tests are collapsed to one
    ///    representative per symmetry orbit;
    /// 3. with a [`VerdictCache`], rows answered in an earlier sweep are
    ///    never re-checked — workers do one row-keyed lookup per test,
    ///    batch only the missing models, and merge their newly computed
    ///    verdicts into the cache shard-by-shard when the sweep completes.
    ///
    /// `make_checker` is called once per worker thread, so checkers need
    /// not be `Sync` (the SAT checkers carry per-instance solver state).
    /// Any per-cell [`Checker`] coerces through its blanket
    /// [`BatchChecker`] adapter; pass a natively batched checker
    /// ([`mcm_axiomatic::BatchExplicitChecker`],
    /// [`mcm_axiomatic::BatchSatChecker`]) to amortize candidate
    /// enumeration / encoding across each row.
    ///
    /// This is the streaming core fed the whole suite as one chunk
    /// ([`EngineConfig::stream_chunk`] is ignored). The returned `tests`
    /// are the input suite; when canonicalizing, each test's verdicts are
    /// its orbit representative's.
    #[must_use]
    pub fn run_engine<F>(
        models: Vec<MemoryModel>,
        tests: Vec<LitmusTest>,
        make_checker: F,
        config: &EngineConfig,
        cache: Option<&VerdictCache>,
    ) -> (Self, SweepStats)
    where
        F: Fn() -> Box<dyn BatchChecker> + Sync,
    {
        let _span = mcm_obs::trace::span_with("engine.run", &[("tests", &tests.len().to_string())]);
        let one_chunk = EngineConfig {
            stream_chunk: tests.len().max(1),
            ..config.clone()
        };
        // Without canonicalization the kept tests are the input suite.
        let input = config.canonicalize.then(|| tests.clone());
        let mut answered_by = Vec::new();
        let (kept, stats) = sweep_stream(
            models,
            tests,
            &make_checker,
            &one_chunk,
            cache,
            StreamControl::default(),
            input.is_some().then_some(&mut answered_by),
        )
        .expect("a cold sweep cannot fail to resume");
        let Some(tests) = input else {
            return (kept, stats);
        };
        let verdicts = kept
            .verdicts
            .iter()
            .map(|row| {
                let mut vector = VerdictVector::new(tests.len());
                for (t, &k) in answered_by.iter().enumerate() {
                    vector.set(t, row.allowed(k));
                }
                vector
            })
            .collect();
        (
            Exploration {
                models: kept.models,
                tests,
                verdicts,
            },
            stats,
        )
    }

    /// The bounded-memory streaming sweep engine.
    ///
    /// Consumes any test iterator — typically
    /// `mcm_gen::stream::leaders(..)`, which yields exactly one canonical
    /// representative per symmetry orbit of a bounded space — in chunks of
    /// [`EngineConfig::stream_chunk`] tests, runs each chunk through the
    /// shared formula-dedup + [`VerdictCache`] + work-stealing core, and
    /// grows per-model [`VerdictVector`]s incrementally. The raw space
    /// behind the iterator is never materialized; peak memory is two
    /// chunks (the one being checked and the next one, pulled on the
    /// calling thread while the other workers check) plus the kept tests
    /// and their verdict bits. The iterator never leaves the calling
    /// thread, so it need not be `Send`.
    ///
    /// With [`EngineConfig::canonicalize`], each chunk is additionally
    /// collapsed to orbit representatives and representatives already seen
    /// in *earlier* chunks are dropped (a cross-chunk fingerprint map), so
    /// non-canonical streams are deduplicated on the fly. Duplicates are
    /// dropped from the returned [`Exploration`], whose `tests` are the
    /// kept representatives in stream order.
    #[must_use]
    pub fn run_engine_streaming<I, F>(
        models: Vec<MemoryModel>,
        tests: I,
        make_checker: F,
        config: &EngineConfig,
        cache: Option<&VerdictCache>,
    ) -> (Self, SweepStats)
    where
        I: IntoIterator<Item = LitmusTest>,
        F: Fn() -> Box<dyn BatchChecker> + Sync,
    {
        Exploration::run_engine_streaming_with(
            models,
            tests,
            make_checker,
            config,
            cache,
            StreamControl::default(),
        )
        .expect("a cold streaming sweep cannot fail to resume")
    }

    /// [`Exploration::run_engine_streaming`] with per-chunk
    /// [`StreamControl`]: a checkpoint hook observing a
    /// [`StreamCheckpoint`] after every chunk (and able to stop the sweep
    /// early), and an optional resume state from an earlier run.
    ///
    /// On resume the engine replays the already-consumed prefix of the
    /// stream through the dedup layer only — no checker is ever called
    /// for replayed tests — then restores the verdict rows and counters
    /// from the checkpoint and continues. Because the stream and the
    /// dedup layer are deterministic, an interrupted-and-resumed sweep
    /// produces bit-identical verdicts to an uninterrupted one (the
    /// resume-correctness tests assert exactly this). Errors when the
    /// checkpoint does not match the current models, stream or config.
    pub fn run_engine_streaming_with<I, F>(
        models: Vec<MemoryModel>,
        tests: I,
        make_checker: F,
        config: &EngineConfig,
        cache: Option<&VerdictCache>,
        control: StreamControl<'_>,
    ) -> Result<(Self, SweepStats), ResumeError>
    where
        I: IntoIterator<Item = LitmusTest>,
        F: Fn() -> Box<dyn BatchChecker> + Sync,
    {
        sweep_stream(models, tests, &make_checker, config, cache, control, None)
    }

    /// Number of models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the exploration is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The relation between models `i` and `j`.
    #[must_use]
    pub fn relation(&self, i: usize, j: usize) -> Relation {
        Relation::classify(&self.verdicts[i], &self.verdicts[j])
    }

    /// Indices of tests that distinguish models `i` and `j`.
    #[must_use]
    pub fn distinguishing_tests(&self, i: usize, j: usize) -> Vec<usize> {
        self.verdicts[i].diff_indices(&self.verdicts[j])
    }

    /// Groups model indices with identical verdict vectors, preserving
    /// input order of first members.
    #[must_use]
    pub fn equivalence_classes(&self) -> Vec<Vec<usize>> {
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for (i, vector) in self.verdicts.iter().enumerate() {
            if let Some(class) = classes
                .iter_mut()
                .find(|c| &self.verdicts[c[0]] == vector)
            {
                class.push(i);
            } else {
                classes.push(vec![i]);
            }
        }
        classes
    }

    /// All unordered pairs of equivalent (but distinct) models.
    #[must_use]
    pub fn equivalent_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for class in self.equivalence_classes() {
            for (a, &i) in class.iter().enumerate() {
                for &j in &class[a + 1..] {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }
}

fn verdict_vector(
    model: &MemoryModel,
    executions: &[Execution],
    checker: &dyn Checker,
) -> VerdictVector {
    let mut vector = VerdictVector::new(executions.len());
    for (i, exec) in executions.iter().enumerate() {
        vector.set(i, checker.check_execution(model, exec).allowed);
    }
    vector
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_axiomatic::{BatchExplicitChecker, ExplicitChecker};
    use mcm_models::catalog;
    use mcm_models::named;

    fn small_exploration() -> Exploration {
        let models = vec![named::sc(), named::tso(), named::x86(), named::pso()];
        let tests = vec![catalog::l1(), catalog::l7(), catalog::test_a()];
        Exploration::run(models, tests, &ExplicitChecker::new())
    }

    #[test]
    fn tso_and_x86_are_equivalent() {
        let expl = small_exploration();
        assert_eq!(expl.relation(1, 2), Relation::Equivalent);
        assert_eq!(expl.equivalent_pairs(), vec![(1, 2)]);
        assert_eq!(expl.equivalence_classes().len(), 3);
    }

    #[test]
    fn sc_is_strictly_stronger_than_tso() {
        let expl = small_exploration();
        assert_eq!(expl.relation(0, 1), Relation::StrictlyStronger);
        assert_eq!(expl.relation(1, 0), Relation::StrictlyWeaker);
        let tests = expl.distinguishing_tests(0, 1);
        assert!(!tests.is_empty());
        // All distinguishing tests are allowed by TSO and forbidden by SC.
        for t in tests {
            assert!(expl.verdicts[1].allowed(t));
            assert!(!expl.verdicts[0].allowed(t));
        }
    }

    #[test]
    fn canonicalizing_engine_matches_sequential() {
        let models = vec![named::sc(), named::tso(), named::x86(), named::pso(), named::rmo()];
        // The comparison suite contains the paper's catalog tests, which
        // are symmetric variants of template instances — so the orbit
        // quotient is strictly smaller than the suite.
        let tests = crate::paper::comparison_tests(true);
        let seq = Exploration::run(models.clone(), tests.clone(), &ExplicitChecker::new());
        let (engine, stats) = Exploration::run_engine(
            models,
            tests,
            || Box::new(ExplicitChecker::new()),
            &EngineConfig::canonicalizing(),
            None,
        );
        assert_eq!(seq.verdicts, engine.verdicts);
        // TSO and x86 share a formula row; the suite has symmetric orbits.
        assert_eq!(stats.distinct_models, 4);
        assert!(stats.canonical_tests < engine.tests.len());
        assert!(stats.unique_pairs < stats.total_pairs);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(
            stats.checker_calls + stats.prefilter_saved_calls,
            stats.unique_pairs
        );
        assert_eq!(stats.tests_streamed, engine.tests.len() as u64);
        assert_eq!(stats.peak_batch, stats.canonical_tests);
    }

    #[test]
    fn batched_engine_matches_sequential_and_amortizes_rows() {
        let models = vec![named::sc(), named::tso(), named::x86(), named::pso(), named::rmo()];
        let tests = catalog::all_tests();
        let seq = Exploration::run(models.clone(), tests.clone(), &ExplicitChecker::new());
        let (engine, stats) = Exploration::run_engine(
            models,
            tests,
            || Box::new(BatchExplicitChecker::new()),
            &EngineConfig::default(),
            None,
        );
        assert_eq!(seq.verdicts, engine.verdicts);
        // One batched row per test; the prefilter may shrink what each
        // row hands the checker, so count against actual calls.
        assert_eq!(stats.batch.rows, engine.tests.len() as u64);
        assert_eq!(stats.batch.models_checked, stats.checker_calls);
        assert!(
            stats.batch.model_groups <= stats.batch.models_checked,
            "grouping never exceeds the model count"
        );
        assert!(stats.batch.shared_candidates > 0);
        // Per-cell adapters share nothing and report no row counters.
        let (_, per_cell) = Exploration::run_engine(
            vec![named::sc(), named::tso()],
            catalog::all_tests(),
            || Box::new(ExplicitChecker::new()),
            &EngineConfig::default(),
            None,
        );
        assert_eq!(per_cell.batch, mcm_axiomatic::BatchStats::default());
    }

    #[test]
    fn batch_sat_engine_matches_the_explicit_rows() {
        let models = vec![named::sc(), named::tso(), named::ibm370()];
        let tests = vec![catalog::l7(), catalog::mp(), catalog::test_a()];
        let seq = Exploration::run(models.clone(), tests.clone(), &ExplicitChecker::new());
        let (engine, stats) = Exploration::run_engine(
            models,
            tests,
            || Box::new(mcm_axiomatic::BatchSatChecker::new()),
            &EngineConfig::default(),
            None,
        );
        assert_eq!(seq.verdicts, engine.verdicts);
        assert!(stats.batch.assumption_solves > 0);
        assert!(stats.sat.propagations > 0, "assumption solves count work");
    }

    #[test]
    fn sat_backed_sweeps_report_solver_work() {
        let models = vec![named::sc(), named::tso()];
        let tests = vec![catalog::l7(), catalog::mp()];
        let (_, stats) = Exploration::run_engine(
            models.clone(),
            tests.clone(),
            || Box::new(mcm_axiomatic::SatChecker::new()),
            &EngineConfig::default(),
            None,
        );
        assert!(stats.sat.propagations > 0, "SAT sweep must count work");
        let (_, explicit) = Exploration::run_engine(
            models,
            tests,
            || Box::new(ExplicitChecker::new()),
            &EngineConfig::default(),
            None,
        );
        assert_eq!(explicit.sat, mcm_sat::SolverStats::default());
    }

    #[test]
    fn single_job_engine_runs_on_the_calling_thread() {
        let models = vec![named::sc(), named::tso()];
        let tests = catalog::all_tests();
        let seq = Exploration::run(models.clone(), tests.clone(), &ExplicitChecker::new());
        let (engine, stats) = Exploration::run_engine(
            models,
            tests,
            || Box::new(ExplicitChecker::new()),
            &EngineConfig {
                jobs: Some(1),
                ..EngineConfig::default()
            },
            None,
        );
        assert_eq!(seq.verdicts, engine.verdicts);
        assert_eq!(
            stats.checker_calls + stats.prefilter_saved_calls,
            stats.unique_pairs
        );
    }

    #[test]
    fn streaming_engine_matches_materialized_on_a_fixed_suite() {
        let models = vec![named::sc(), named::tso(), named::x86(), named::pso()];
        let tests = catalog::all_tests();
        let seq = Exploration::run(models.clone(), tests.clone(), &ExplicitChecker::new());
        // Tiny chunks force many grid sweeps and verdict growth.
        let (streamed, stats) = Exploration::run_engine_streaming(
            models,
            tests.clone(),
            || Box::new(ExplicitChecker::new()),
            &EngineConfig {
                stream_chunk: 3,
                ..EngineConfig::default()
            },
            None,
        );
        assert_eq!(seq.verdicts, streamed.verdicts);
        assert_eq!(streamed.tests.len(), tests.len());
        assert_eq!(stats.tests_streamed, tests.len() as u64);
        assert!(stats.peak_batch <= 3);
        assert_eq!(
            stats.checker_calls + stats.prefilter_saved_calls,
            stats.unique_pairs
        );
    }

    #[test]
    fn streaming_engine_dedups_non_canonical_streams() {
        // Feed every test twice: with canonicalization on, the second
        // copies must be dropped across chunks and the verdicts unchanged.
        let models = vec![named::sc(), named::tso()];
        let tests = catalog::all_tests();
        let doubled: Vec<LitmusTest> =
            tests.iter().chain(tests.iter()).cloned().collect();
        let (streamed, stats) = Exploration::run_engine_streaming(
            models.clone(),
            doubled,
            || Box::new(ExplicitChecker::new()),
            &EngineConfig {
                canonicalize: true,
                stream_chunk: 4,
                ..EngineConfig::default()
            },
            None,
        );
        assert_eq!(stats.tests_streamed, 2 * tests.len() as u64);
        assert!(streamed.tests.len() <= tests.len());
        // Relations over the deduplicated suite agree with the plain run.
        let seq = Exploration::run(models, tests, &ExplicitChecker::new());
        assert_eq!(seq.relation(0, 1), streamed.relation(0, 1));
    }

    #[test]
    fn streaming_engine_uses_the_cache() {
        let models = vec![named::sc(), named::tso(), named::pso()];
        let tests = catalog::all_tests();
        let cache = VerdictCache::new();
        let config = EngineConfig {
            stream_chunk: 5,
            ..EngineConfig::default()
        };
        let (_, cold) = Exploration::run_engine_streaming(
            models.clone(),
            tests.clone(),
            || Box::new(ExplicitChecker::new()),
            &config,
            Some(&cache),
        );
        assert!(cold.checker_calls > 0);
        let (warm_expl, warm) = Exploration::run_engine_streaming(
            models,
            tests,
            || Box::new(ExplicitChecker::new()),
            &config,
            Some(&cache),
        );
        assert_eq!(warm.checker_calls, 0, "warm streamed sweep must be checker-free");
        assert_eq!(warm.cache_hits, warm.unique_pairs);
        assert!(!warm_expl.tests.is_empty());
    }

    #[test]
    fn prefilter_is_sound_and_saves_calls() {
        use mcm_axiomatic::BatchSatChecker;
        use mcm_models::DigitModel;
        type Make = fn() -> Box<dyn BatchChecker>;
        // M1010/M1110 agree on every test without a same-address W→R po
        // pair; plenty of the catalog qualifies.
        let models: Vec<MemoryModel> = ["M1010", "M1110", "M4044", "M4444"]
            .iter()
            .map(|s| s.parse::<DigitModel>().unwrap().to_model())
            .collect();
        let tests = catalog::all_tests();
        let sweep = |models: &[MemoryModel], make: Make, on: bool, cache: Option<&VerdictCache>| {
            let config = EngineConfig {
                prefilter: on,
                ..EngineConfig::default()
            };
            Exploration::run_engine(models.to_vec(), tests.clone(), make, &config, cache)
        };
        let explicit: Make = || Box::new(BatchExplicitChecker::new());
        let sat: Make = || Box::new(BatchSatChecker::new());
        let (on, on_stats) = sweep(&models, explicit, true, None);
        let (off, off_stats) = sweep(&models, explicit, false, None);
        assert_eq!(on.verdicts, off.verdicts, "the prefilter must be invisible");
        assert_eq!(off_stats.prefilter_groups, 0);
        assert_eq!(off_stats.prefilter_saved_calls, 0);
        assert!(on_stats.prefilter_saved_calls > 0, "some tests must group models");
        assert_eq!(
            on_stats.checker_calls + on_stats.prefilter_saved_calls,
            off_stats.checker_calls
        );
        // Bit-identical for both batched checkers, with and without a
        // verdict cache. The cache is pre-warmed with half the models, so
        // the quotient also runs over partially missing rows.
        for make in [explicit, sat] {
            for prefilter in [true, false] {
                let (plain, _) = sweep(&models, make, prefilter, None);
                assert_eq!(plain.verdicts, off.verdicts);
                let cache = VerdictCache::new();
                let _ = sweep(&models[..2], make, prefilter, Some(&cache));
                let (cached, stats) = sweep(&models, make, prefilter, Some(&cache));
                assert!(stats.cache_hits > 0 && stats.checker_calls > 0);
                assert_eq!(cached.verdicts, off.verdicts);
            }
        }
    }

    #[test]
    fn streaming_an_empty_iterator_is_empty() {
        let (expl, stats) = Exploration::run_engine_streaming(
            vec![named::sc()],
            std::iter::empty(),
            || Box::new(ExplicitChecker::new()),
            &EngineConfig::default(),
            None,
        );
        assert!(expl.tests.is_empty());
        assert_eq!(expl.verdicts[0].len(), 0);
        assert_eq!(stats.tests_streamed, 0);
        assert_eq!(stats.peak_batch, 0);
    }
}
