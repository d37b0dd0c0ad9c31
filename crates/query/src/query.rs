//! The [`Query`] constructors and per-kind builders.

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use mcm_axiomatic::{explain, Checker, CheckerKind, ExplicitChecker};
use mcm_explore::dot::{render_dot, DotOptions};
use mcm_explore::{
    distinguish, paper, EngineConfig, Exploration, Lattice, StreamControl, VerdictCache,
};
use mcm_gen::{count, naive, template_suite};
use mcm_models::catalog;
use mcm_store::{CheckpointFile, DiskCache, SweepMeta};
use mcm_synth::SynthBounds;

use crate::error::QueryError;
use crate::reports::{
    AnalyzeFinding, AnalyzeModelEntry, AnalyzePair, AnalyzeReport, CacheSummary, CatalogReport,
    CheckEntry, CheckReport, CheckpointSummary, CompareReport, CompareWitness, CountsFigure,
    DistinguishReport, Fig1Figure, Fig4Figure, FigureSelection, FiguresReport, ParseReport,
    StoreSummary, StreamSummary, SuiteReport, SweepReport, SynthMatrix, SynthPair, SynthReport,
    TimingsCapture, WarmSummary,
};
use crate::resolve::{self, ModelSpec};
use crate::source::TestSource;

/// The entry point of the query API: one constructor per question the
/// tool answers. Each returns a builder whose `run()` produces the
/// matching typed report.
///
/// ```
/// use mcm_query::{ModelSpec, Query, Render, TestSource};
///
/// let report = Query::sweep()
///     .models(ModelSpec::List(vec!["SC".into(), "TSO".into()]))
///     .tests(TestSource::Catalog)
///     .run()
///     .unwrap();
/// assert_eq!(report.exploration.models.len(), 2);
/// assert!(report.json().get("verdicts").is_some());
/// ```
pub struct Query;

impl Query {
    /// A models × tests sweep: verdict matrix, lattice, equivalence data
    /// and (for materialized suites) a minimum distinguishing set.
    #[must_use]
    pub fn sweep() -> SweepQuery {
        SweepQuery {
            models: ModelSpec::Figure4,
            source: TestSource::TemplateSuite { with_deps: false },
            checker: CheckerKind::Explicit,
            config: EngineConfig::default(),
            cache: false,
            shared: None,
            store: None,
            checkpoint: None,
            resume: None,
            warm_figure4_demo: false,
        }
    }

    /// Static semantic analysis of a model set: the strength lattice,
    /// equivalent pairs, minimized normal forms and lint findings — with
    /// zero litmus tests executed.
    #[must_use]
    pub fn analyze() -> AnalyzeQuery {
        AnalyzeQuery {
            models: ModelSpec::Full90,
            tests: None,
        }
    }

    /// The relation between two models over the complete comparison
    /// suite, with every separating test.
    #[must_use]
    pub fn compare(left: impl Into<String>, right: impl Into<String>) -> CompareQuery {
        CompareQuery {
            left: left.into(),
            right: right.into(),
            with_deps: true,
        }
    }

    /// A SAT-certified minimum distinguishing test set for a model space.
    #[must_use]
    pub fn distinguish() -> DistinguishQuery {
        DistinguishQuery {
            models: ModelSpec::Full90,
            with_deps: true,
            checker: CheckerKind::Explicit,
            config: EngineConfig::default(),
            cache: false,
            shared: None,
        }
    }

    /// CEGIS synthesis of a minimal distinguishing test for one pair.
    #[must_use]
    pub fn synth(left: impl Into<String>, right: impl Into<String>) -> SynthQuery {
        SynthQuery {
            mode: SynthMode::Pair {
                left: left.into(),
                right: right.into(),
            },
            bounds: SynthBounds::default(),
            max_size: None,
            verbose: false,
        }
    }

    /// CEGIS synthesis of the whole pairwise minimal-length matrix.
    #[must_use]
    pub fn synth_matrix(models: ModelSpec) -> SynthQuery {
        SynthQuery {
            mode: SynthMode::Matrix(models),
            bounds: SynthBounds::default(),
            max_size: None,
            verbose: false,
        }
    }

    /// Per-test admissibility of a litmus source under one model.
    #[must_use]
    pub fn check(model: impl Into<String>, source: TestSource) -> CheckQuery {
        CheckQuery {
            model: model.into(),
            source,
            checker: CheckerKind::Explicit,
            witness: false,
        }
    }

    /// The Theorem 1 template suite and its Corollary 1 bound.
    #[must_use]
    pub fn suite(with_deps: bool) -> SuiteQuery {
        SuiteQuery {
            with_deps,
            full: false,
        }
    }

    /// The built-in test catalog, grouped by provenance.
    #[must_use]
    pub fn catalog() -> CatalogReport {
        CatalogReport {
            sections: catalog::sections(),
        }
    }

    /// Validates a `.litmus` file and reports its tests.
    ///
    /// # Errors
    ///
    /// [`QueryError::Io`] when the file cannot be read,
    /// [`QueryError::Parse`] when its contents do not parse.
    pub fn parse_file(path: impl Into<std::path::PathBuf>) -> Result<ParseReport, QueryError> {
        let path = path.into();
        let source = path.display().to_string();
        let tests = TestSource::File(path).load()?;
        Ok(ParseReport { source, tests })
    }

    /// Regenerates the requested paper figures as data.
    #[must_use]
    pub fn figures(selection: FigureSelection) -> FiguresReport {
        figures_report(selection)
    }
}

/// Builder for [`Query::sweep`].
#[derive(Clone, Debug)]
pub struct SweepQuery {
    models: ModelSpec,
    source: TestSource,
    checker: CheckerKind,
    config: EngineConfig,
    cache: bool,
    shared: Option<Arc<VerdictCache>>,
    store: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    warm_figure4_demo: bool,
}

impl SweepQuery {
    /// The model space to sweep.
    #[must_use]
    pub fn models(mut self, models: ModelSpec) -> Self {
        self.models = models;
        self
    }

    /// Where the tests come from (materialized or streamed).
    #[must_use]
    pub fn tests(mut self, source: TestSource) -> Self {
        self.source = source;
        self
    }

    /// The checker backend (built test-major via
    /// [`CheckerKind::build_batch`]).
    #[must_use]
    pub fn checker(mut self, checker: CheckerKind) -> Self {
        self.checker = checker;
        self
    }

    /// Engine tuning: canonicalization, worker count, batch sizes.
    #[must_use]
    pub fn engine(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Memoize verdicts in a fresh [`VerdictCache`] and report its
    /// totals.
    #[must_use]
    pub fn cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }

    /// Memoize verdicts in an **externally owned** cache instead of a
    /// fresh one — the cross-request sharing hook the serve layer uses so
    /// one process-wide warm cache accelerates every sweep. Takes
    /// precedence over [`SweepQuery::cache`]; the reported cache summary
    /// then carries the shared cache's process-wide totals.
    #[must_use]
    pub fn cache_with(mut self, cache: Arc<VerdictCache>) -> Self {
        self.shared = Some(cache);
        self
    }

    /// Back the verdict cache with the append-only log at `path`
    /// ([`mcm_store::DiskCache`]): known verdicts hydrate from disk
    /// before the sweep, fresh ones are written through batch by batch.
    /// Takes precedence over [`SweepQuery::cache`] and
    /// [`SweepQuery::cache_with`] as the sweep's cache.
    #[must_use]
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store = Some(path.into());
        self
    }

    /// For streamed sweeps: save a resumable checkpoint to `path` after
    /// every processed chunk (atomic rename-over, so a kill mid-save
    /// keeps the previous one). Ignored for materialized sources.
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// For streamed sweeps: resume from the checkpoint at `path` instead
    /// of starting cold. A missing file is a cold start (first run of a
    /// `--checkpoint F --resume F` loop); a checkpoint taken over a
    /// different sweep (models, bounds, shard, chunking) is rejected.
    #[must_use]
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// After a cached full-space template sweep, re-sweep the Figure 4
    /// subspace to demonstrate cross-sweep memoization (ignored unless
    /// both the cache and the with-deps template suite are in play).
    #[must_use]
    pub fn warm_figure4_demo(mut self, demo: bool) -> Self {
        self.warm_figure4_demo = demo;
        self
    }

    /// Runs the sweep.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] for unresolvable models, and for a
    /// resume checkpoint that is unreadable, of another version, or taken
    /// over a different sweep; [`QueryError::Io`] / [`QueryError::Parse`]
    /// for file-backed test sources.
    pub fn run(self) -> Result<SweepReport, QueryError> {
        let models = self.models.resolve()?;
        // A disk-backed store supplies the cache when requested; it
        // outranks the shared and owned caches so its write-through sink
        // sees every fresh verdict of the sweep.
        let disk = match &self.store {
            Some(path) => Some(DiskCache::open(path).map_err(|e| QueryError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?),
            None => None,
        };
        let owned =
            (disk.is_none() && self.shared.is_none() && self.cache).then(VerdictCache::new);
        let cache: Option<&VerdictCache> = disk
            .as_ref()
            .map(|d| d.cache().as_ref())
            .or(self.shared.as_deref())
            .or(owned.as_ref());
        let checker = self.checker;
        if let TestSource::Stream {
            bounds,
            limit,
            shard,
        } = &self.source
        {
            let raw_space = mcm_gen::stream::try_count_raw(bounds, 20_000_000);
            let meta = SweepMeta {
                bounds: *bounds,
                limit: limit.map(|l| l as u64),
                shard: *shard,
                canonicalize: self.config.canonicalize,
                stream_chunk: self.config.stream_chunk as u64,
            };
            let resume_state = match &self.resume {
                None => None,
                Some(path) => {
                    // A checkpoint this build cannot read (damaged, or of
                    // another version) is a rejected resume, never a cold
                    // start.
                    let loaded = CheckpointFile::load(path).map_err(|e| {
                        if e.kind() == std::io::ErrorKind::InvalidData {
                            QueryError::InvalidSpec(e.to_string())
                        } else {
                            QueryError::io(path.display().to_string(), &e)
                        }
                    })?;
                    match loaded {
                        // Cold start: the checkpoint was never written
                        // (first run of a `--checkpoint F --resume F` loop).
                        None => None,
                        Some(ckpt) if ckpt.meta != meta => {
                            return Err(QueryError::InvalidSpec(format!(
                                "checkpoint {} was taken over a different sweep \
                                 (bounds, limit, shard or engine chunking differ)",
                                path.display()
                            )));
                        }
                        Some(ckpt) => Some(ckpt.state),
                    }
                }
            };
            let resumed_at = resume_state.as_ref().map(|s| s.tests_streamed);
            let saves = Cell::new(0u64);
            let save_errors = Cell::new(0u64);
            let mut control = StreamControl {
                on_checkpoint: None,
                resume: resume_state,
            };
            if let Some(path) = &self.checkpoint {
                control.on_checkpoint = Some(Box::new(|state| {
                    let file = CheckpointFile {
                        meta,
                        state: state.clone(),
                    };
                    match file.save(path) {
                        Ok(()) => saves.set(saves.get() + 1),
                        Err(_) => save_errors.set(save_errors.get() + 1),
                    }
                    true
                }));
            }
            let timings = TimingsCapture::start();
            let start = Instant::now();
            let stream = match shard {
                Some(shard) => mcm_gen::stream::leaders_sharded(bounds, *shard),
                None => mcm_gen::stream::leaders(bounds),
            }
            .take(limit.unwrap_or(usize::MAX));
            let (exploration, stats) = Exploration::run_engine_streaming_with(
                models,
                stream,
                || checker.build_batch(),
                &self.config,
                cache,
                control,
            )
            .map_err(|e| QueryError::InvalidSpec(e.to_string()))?;
            let elapsed = start.elapsed();
            let timings = timings.finish();
            let lattice = Lattice::build(&exploration);
            let equivalent_pairs = named_pairs(&exploration);
            return Ok(SweepReport {
                exploration,
                stats,
                lattice,
                equivalent_pairs,
                minimal_set: None,
                nine_test_indices: Vec::new(),
                nine_tests_sufficient: None,
                cache: cache.map(cache_summary),
                store: disk.as_ref().map(store_summary),
                // Reported for a saving run AND a resume-only run — the
                // latter still needs its cursor surfaced.
                checkpoint: self
                    .checkpoint
                    .as_ref()
                    .or(self.resume.as_ref())
                    .map(|path| CheckpointSummary {
                        path: path.display().to_string(),
                        saves: saves.get(),
                        save_errors: save_errors.get(),
                        resumed_at,
                    }),
                warm: None,
                stream: Some(StreamSummary {
                    bounds: *bounds,
                    limit: *limit,
                    shard: *shard,
                    raw_space,
                }),
                timings,
                elapsed,
            });
        }
        let tests = self.source.load()?;
        let timings = TimingsCapture::start();
        let start = Instant::now();
        let (exploration, stats) = Exploration::run_engine(
            models,
            tests,
            || checker.build_batch(),
            &self.config,
            cache,
        );
        let space = paper::report_from(exploration);
        let elapsed = start.elapsed();
        let timings = timings.finish();
        // The warm re-sweep demo is only honest after a sweep that covered
        // the full 90-model digit space and its dependency-bearing suite —
        // anything smaller leaves the Figure 4 subspace cold.
        let warm = match (cache, self.warm_figure4_demo, &self.source) {
            (Some(cache), true, TestSource::TemplateSuite { with_deps: true }) => {
                let warm_start = Instant::now();
                let (_, warm_stats) = Exploration::run_engine(
                    paper::digit_space_models(false),
                    paper::comparison_tests(false),
                    || checker.build_batch(),
                    &self.config,
                    Some(cache),
                );
                Some(WarmSummary {
                    elapsed: warm_start.elapsed(),
                    cache_hits: warm_stats.cache_hits,
                    checker_calls: warm_stats.checker_calls,
                })
            }
            _ => None,
        };
        Ok(SweepReport {
            exploration: space.exploration,
            stats,
            lattice: space.lattice,
            equivalent_pairs: space.equivalent_pairs,
            minimal_set: Some(space.minimal_set),
            nine_test_indices: space.nine_test_indices,
            nine_tests_sufficient: Some(space.nine_tests_sufficient),
            cache: cache.map(cache_summary),
            store: disk.as_ref().map(store_summary),
            checkpoint: None,
            warm,
            stream: None,
            timings,
            elapsed,
        })
    }
}

/// Builder for [`Query::analyze`].
#[derive(Clone, Debug)]
pub struct AnalyzeQuery {
    models: ModelSpec,
    tests: Option<TestSource>,
}

impl AnalyzeQuery {
    /// The model set to analyze.
    #[must_use]
    pub fn models(mut self, models: ModelSpec) -> Self {
        self.models = models;
        self
    }

    /// Also lint the tests of a (materialized) source: never-read writes,
    /// non-canonical form.
    #[must_use]
    pub fn tests(mut self, source: TestSource) -> Self {
        self.tests = Some(source);
        self
    }

    /// Runs the analysis. Purely static: no checker is built, no litmus
    /// test is executed.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] for unresolvable models or a streamed
    /// test source; [`QueryError::Io`] / [`QueryError::Parse`] for
    /// file-backed test sources.
    pub fn run(self) -> Result<AnalyzeReport, QueryError> {
        let models = self.models.resolve()?;
        let start = Instant::now();
        let analysis = mcm_analyze::StrengthAnalysis::build(&models);

        let mut findings: Vec<AnalyzeFinding> = Vec::new();
        let mut absorb = |batch: Vec<mcm_analyze::Finding>| {
            findings.extend(batch.into_iter().map(|f| AnalyzeFinding {
                target: f.target,
                code: f.code.to_string(),
                message: f.message,
            }));
        };
        absorb(mcm_analyze::lint_models(&models));
        for model in &models {
            absorb(mcm_analyze::lint_formula(model.name(), model.formula()));
        }
        let mut tests_linted = 0;
        if let Some(source) = &self.tests {
            let tests = source.load()?;
            tests_linted = tests.len();
            for test in &tests {
                absorb(mcm_analyze::lint_test(test));
            }
        }

        let entries: Vec<AnalyzeModelEntry> = analysis
            .models
            .iter()
            .enumerate()
            .map(|(i, m)| AnalyzeModelEntry {
                name: m.name.clone(),
                formula: m.formula.to_string(),
                minimized: m.minimized.to_string(),
                fingerprint: format!("{:016x}", m.key.fingerprint()),
                class: analysis.class_of(i),
                elided: m.elided,
            })
            .collect();
        let equivalent_pairs = analysis
            .equivalent_pairs()
            .into_iter()
            .map(|(i, j, how)| AnalyzePair {
                left: analysis.models[i].name.clone(),
                right: analysis.models[j].name.clone(),
                how: how.to_string(),
            })
            .collect();
        Ok(AnalyzeReport {
            models: entries,
            classes: analysis.classes.clone(),
            edges: analysis.edges.clone(),
            minimal_classes: analysis.minimal_classes(),
            maximal_classes: analysis.maximal_classes(),
            equivalent_pairs,
            findings,
            tests_linted,
            elapsed: start.elapsed(),
        })
    }
}

/// Builder for [`Query::compare`].
#[derive(Clone, Debug)]
pub struct CompareQuery {
    left: String,
    right: String,
    with_deps: bool,
}

impl CompareQuery {
    /// Include the dependency-idiom templates in the comparison suite.
    #[must_use]
    pub fn with_deps(mut self, with_deps: bool) -> Self {
        self.with_deps = with_deps;
        self
    }

    /// Runs the comparison.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] for unknown model names.
    pub fn run(self) -> Result<CompareReport, QueryError> {
        let left = resolve::model(&self.left)?;
        let right = resolve::model(&self.right)?;
        let start = Instant::now();
        let expl = Exploration::run(
            vec![left, right],
            paper::comparison_tests(self.with_deps),
            &ExplicitChecker::new(),
        );
        let relation = expl.relation(0, 1);
        let witnesses = expl
            .distinguishing_tests(0, 1)
            .into_iter()
            .map(|t| {
                let allowed_left = expl.verdicts[0].allowed(t);
                let (allowed_by, forbidden_by) = if allowed_left {
                    (expl.models[0].name(), expl.models[1].name())
                } else {
                    (expl.models[1].name(), expl.models[0].name())
                };
                CompareWitness {
                    test: expl.tests[t].name().to_string(),
                    allowed_by: allowed_by.to_string(),
                    forbidden_by: forbidden_by.to_string(),
                }
            })
            .collect();
        Ok(CompareReport {
            left: expl.models[0].name().to_string(),
            right: expl.models[1].name().to_string(),
            relation,
            tests: expl.tests.len(),
            witnesses,
            elapsed: start.elapsed(),
        })
    }
}

/// Builder for [`Query::distinguish`].
#[derive(Clone, Debug)]
pub struct DistinguishQuery {
    models: ModelSpec,
    with_deps: bool,
    checker: CheckerKind,
    config: EngineConfig,
    cache: bool,
    shared: Option<Arc<VerdictCache>>,
}

impl DistinguishQuery {
    /// The model space to separate (at least two models).
    #[must_use]
    pub fn models(mut self, models: ModelSpec) -> Self {
        self.models = models;
        self
    }

    /// Include the dependency-idiom templates in the comparison suite.
    #[must_use]
    pub fn with_deps(mut self, with_deps: bool) -> Self {
        self.with_deps = with_deps;
        self
    }

    /// The checker backend.
    #[must_use]
    pub fn checker(mut self, checker: CheckerKind) -> Self {
        self.checker = checker;
        self
    }

    /// Engine tuning: canonicalization, worker count, batch sizes.
    #[must_use]
    pub fn engine(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Memoize verdicts in a fresh [`VerdictCache`].
    #[must_use]
    pub fn cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }

    /// Memoize verdicts in an externally owned cache (see
    /// [`SweepQuery::cache_with`]); takes precedence over
    /// [`DistinguishQuery::cache`].
    #[must_use]
    pub fn cache_with(mut self, cache: Arc<VerdictCache>) -> Self {
        self.shared = Some(cache);
        self
    }

    /// Runs the sweep and computes the certified minimum set.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] for unresolvable models or a space of
    /// fewer than two.
    pub fn run(self) -> Result<DistinguishReport, QueryError> {
        let models = self.models.resolve()?;
        if models.len() < 2 {
            return Err(QueryError::InvalidSpec(
                "distinguish needs at least two models".to_string(),
            ));
        }
        let owned = (self.shared.is_none() && self.cache).then(VerdictCache::new);
        let cache: Option<&VerdictCache> = self.shared.as_deref().or(owned.as_ref());
        let checker = self.checker;
        let tests = paper::comparison_tests(self.with_deps);
        let start = Instant::now();
        let (exploration, stats) = Exploration::run_engine(
            models,
            tests,
            || checker.build_batch(),
            &self.config,
            cache,
        );
        let elapsed = start.elapsed();
        let classes = exploration.equivalence_classes();
        let minimal = distinguish::minimal_distinguishing_set(&exploration);
        Ok(DistinguishReport {
            exploration,
            stats,
            classes,
            minimal,
            cache: cache.map(cache_summary),
            elapsed,
        })
    }
}

#[derive(Clone, Debug)]
enum SynthMode {
    Pair { left: String, right: String },
    Matrix(ModelSpec),
}

/// Builder for [`Query::synth`] / [`Query::synth_matrix`].
#[derive(Clone, Debug)]
pub struct SynthQuery {
    mode: SynthMode,
    bounds: SynthBounds,
    max_size: Option<usize>,
    verbose: bool,
}

impl SynthQuery {
    /// The bounded search box.
    #[must_use]
    pub fn bounds(mut self, bounds: SynthBounds) -> Self {
        self.bounds = bounds;
        self
    }

    /// Cap the searched test length (defaults to the box maximum).
    #[must_use]
    pub fn max_size(mut self, max_size: usize) -> Self {
        self.max_size = Some(max_size);
        self
    }

    /// Include solver counters in the text rendering.
    #[must_use]
    pub fn verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Runs the synthesis.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] for unresolvable models or a matrix of
    /// fewer than two; [`QueryError::Synth`] when the engine rejects the
    /// bounds or a model.
    pub fn run(self) -> Result<SynthReport, QueryError> {
        let max_size = self.max_size.unwrap_or_else(|| self.bounds.max_total());
        match &self.mode {
            SynthMode::Pair { left, right } => {
                let models = vec![resolve::model(left)?, resolve::model(right)?];
                let timings = TimingsCapture::start();
                let start = Instant::now();
                let mut synthesizer = mcm_synth::Synthesizer::new(models, self.bounds)
                    .map_err(|e| QueryError::Synth(e.to_string()))?;
                let pair = synthesizer.pair(0, 1, max_size);
                let elapsed = start.elapsed();
                let timings = timings.finish();
                Ok(SynthReport {
                    bounds: self.bounds,
                    max_size,
                    pair: Some(SynthPair {
                        left: left.clone(),
                        right: right.clone(),
                        length: pair.length,
                        witness: pair.witness,
                        allowed_by: pair.allowed_by,
                        forbidden_by: pair.forbidden_by,
                    }),
                    matrix: None,
                    stats: synthesizer.stats(),
                    verbose: self.verbose,
                    timings,
                    elapsed,
                })
            }
            SynthMode::Matrix(spec) => {
                let models = spec.resolve()?;
                if models.len() < 2 {
                    return Err(QueryError::InvalidSpec(
                        "a synthesis matrix needs at least two models".to_string(),
                    ));
                }
                let timings = TimingsCapture::start();
                let start = Instant::now();
                let mut synthesizer = mcm_synth::Synthesizer::new(models, self.bounds)
                    .map_err(|e| QueryError::Synth(e.to_string()))?;
                let matrix = synthesizer.matrix(max_size);
                let elapsed = start.elapsed();
                let timings = timings.finish();
                Ok(SynthReport {
                    bounds: self.bounds,
                    max_size,
                    pair: None,
                    matrix: Some(SynthMatrix {
                        names: matrix.names,
                        lengths: matrix.lengths,
                    }),
                    stats: synthesizer.stats(),
                    verbose: self.verbose,
                    timings,
                    elapsed,
                })
            }
        }
    }
}

/// Builder for [`Query::check`].
#[derive(Clone, Debug)]
pub struct CheckQuery {
    model: String,
    source: TestSource,
    checker: CheckerKind,
    witness: bool,
}

impl CheckQuery {
    /// The checker backend.
    #[must_use]
    pub fn checker(mut self, checker: CheckerKind) -> Self {
        self.checker = checker;
        self
    }

    /// Render a witness / refutation explanation per test.
    #[must_use]
    pub fn witness(mut self, witness: bool) -> Self {
        self.witness = witness;
        self
    }

    /// Runs the checks.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] for unknown models;
    /// [`QueryError::Io`] / [`QueryError::Parse`] for the test source.
    pub fn run(self) -> Result<CheckReport, QueryError> {
        let model = resolve::model(&self.model)?;
        let tests = self.source.load()?;
        let checker = self.checker.build();
        let entries = tests
            .iter()
            .map(|test| {
                let verdict = checker.check(&model, test);
                let witness = self.witness.then(|| {
                    let exec = test.execution();
                    explain::render(&model, &exec, &verdict)
                });
                CheckEntry {
                    test: test.name().to_string(),
                    allowed: verdict.allowed,
                    witness,
                }
            })
            .collect();
        Ok(CheckReport {
            model: model.name().to_string(),
            checker: self.checker.name(),
            entries,
        })
    }
}

/// Builder for [`Query::suite`].
#[derive(Clone, Copy, Debug)]
pub struct SuiteQuery {
    with_deps: bool,
    full: bool,
}

impl SuiteQuery {
    /// Render full test bodies instead of names in text mode.
    #[must_use]
    pub fn full(mut self, full: bool) -> Self {
        self.full = full;
        self
    }

    /// Materializes the suite.
    #[must_use]
    pub fn run(self) -> SuiteReport {
        let suite = template_suite(self.with_deps);
        SuiteReport {
            with_deps: self.with_deps,
            corollary1_bound: suite.corollary1_bound,
            tests: suite.tests,
            full: self.full,
        }
    }
}

fn cache_summary(cache: &VerdictCache) -> CacheSummary {
    CacheSummary {
        entries: cache.len(),
        hits: cache.hits(),
        hits_ram: cache.hits_ram(),
        hits_disk: cache.hits_disk(),
        misses: cache.misses(),
        shard_contention: cache.shard_contention(),
    }
}

fn store_summary(disk: &DiskCache) -> StoreSummary {
    let stats = disk.stats();
    StoreSummary {
        path: disk.path().display().to_string(),
        hydrated: stats.hydrated,
        appended: stats.appended,
        flushes: stats.flushes,
        write_errors: stats.write_errors,
        bytes: stats.bytes,
        recovered_tail: stats.recovered_tail,
    }
}

fn named_pairs(exploration: &Exploration) -> Vec<(String, String)> {
    exploration
        .equivalent_pairs()
        .into_iter()
        .map(|(i, j)| {
            (
                exploration.models[i].name().to_string(),
                exploration.models[j].name().to_string(),
            )
        })
        .collect()
}

fn figures_report(selection: FigureSelection) -> FiguresReport {
    use FigureSelection as S;
    let want = |s: S| selection == s || selection == S::All;
    let fig1 = want(S::Fig1).then(|| {
        let test = catalog::test_a();
        let checker = ExplicitChecker::new();
        let verdicts = [
            mcm_models::named::tso(),
            mcm_models::named::sc(),
            mcm_models::named::ibm370(),
        ]
        .into_iter()
        .map(|model| {
            let allowed = checker.is_allowed(&model, &test);
            (model.name().to_string(), allowed)
        })
        .collect();
        Fig1Figure { test, verdicts }
    });
    let fig2 = want(S::Fig2).then(|| {
        use mcm_gen::{template, Segment, SegmentType};
        let rw = Segment::enumerate(SegmentType::ReadWrite, true);
        let ww = Segment::enumerate(SegmentType::WriteWrite, true);
        let wr = Segment::enumerate(SegmentType::WriteRead, true);
        let rr = Segment::enumerate(SegmentType::ReadRead, true);
        [
            template::case1(rw[1]),
            template::case2(ww[1]),
            template::case3a(rr[1], ww[1]),
            template::case3b(rr[1], wr[1], rw[1]),
            template::case4(wr[1]),
            template::case5a(wr[0], rr[3]),
            template::case5b(wr[0], rw[3]),
        ]
        .into_iter()
        .flatten()
        .collect()
    });
    let fig3 = want(S::Fig3).then(catalog::nine_tests);
    let counts = want(S::Counts).then(|| {
        let bounds = naive::NaiveBounds::default();
        CountsFigure {
            bound_with_deps: count::paper_bound(true),
            bound_without_deps: count::paper_bound(false),
            naive_raw: naive::count_tests_raw(&bounds),
            naive_canonical: naive::count_tests(&bounds),
            suite_with_deps: template_suite(true).len(),
            suite_without_deps: template_suite(false).len(),
        }
    });
    let fig4 = want(S::Fig4).then(|| {
        let report = paper::explore_digit_space(false);
        let dot = render_dot(
            &report.exploration,
            &report.lattice,
            &DotOptions {
                name: "figure4".to_string(),
                preferred_tests: report.nine_test_indices.clone(),
                ..DotOptions::default()
            },
        );
        Fig4Figure {
            models: report.exploration.models.len(),
            classes: report.lattice.classes.len(),
            edges: report.lattice.edges.len(),
            merged: report.equivalent_pairs,
            dot,
        }
    });
    FiguresReport {
        fig1,
        fig2,
        fig3,
        counts,
        fig4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_gen::StreamBounds;

    #[test]
    fn resuming_an_old_checkpoint_version_is_rejected_not_a_cold_start() {
        let path = std::env::temp_dir().join(format!("mcm-v1-{}.ckpt", std::process::id()));
        let sweep = || {
            Query::sweep()
                .models(ModelSpec::parse("SC,TSO"))
                .tests(TestSource::Stream {
                    bounds: StreamBounds {
                        max_accesses_per_thread: 2,
                        max_locs: 2,
                        ..StreamBounds::default()
                    },
                    limit: None,
                    shard: None,
                })
        };
        sweep().checkpoint(&path).run().expect("cold sweep");
        // Rewrite the header as version 1; the payload stays intact.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = sweep().resume(&path).run().unwrap_err();
        std::fs::remove_file(&path).unwrap();
        let QueryError::InvalidSpec(message) = err else {
            panic!("expected InvalidSpec, got {err:?}");
        };
        assert!(message.contains("version 1"), "{message}");
        assert!(message.contains("re-run the sweep"), "{message}");
    }
}
