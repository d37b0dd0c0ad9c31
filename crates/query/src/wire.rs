//! The wire format: building a query **from** a JSON document — the
//! inverse of the render path, and the request language of `mcm serve`.
//!
//! PR 5 made every report serializable; this module closes the loop so a
//! query itself is data. A [`WireRequest`] is parsed from a JSON object
//! with [`WireRequest::parse`] (strictly: unknown fields, malformed
//! values and out-of-range bounds are [`QueryError::InvalidSpec`] usage
//! errors, never panics), executed with [`QuerySpec::run`], and the
//! resulting report rendered in the request's [`Format`].
//!
//! The request document names the query kind plus that kind's fields,
//! with defaults mirroring the builder defaults of [`crate::Query`]:
//!
//! ```json
//! {
//!   "query": "sweep",
//!   "models": "figure4",
//!   "tests": {"template_suite": {"with_deps": false}},
//!   "checker": "explicit",
//!   "engine": {"jobs": 1},
//!   "cache": true,
//!   "format": "json"
//! }
//! ```
//!
//! Kinds: `sweep`, `compare`, `distinguish`, `analyze`, `synth`,
//! `synth_matrix`, `check`, `suite`, `catalog`, `figures`. Test sources: `"catalog"`,
//! `"template_suite"`, `{"template_suite": {"with_deps": bool}}`,
//! `{"stream": {"max_accesses": N, "max_locs": N, "fences": bool,
//! "deps": bool, "limit": N, "shard": "i/n"}}`,
//! `{"inline": "<litmus text>"}`. The wire
//! format is deliberately **hermetic**: there is no file-backed source,
//! so a server executing wire requests never touches the filesystem.
//!
//! ## Example
//!
//! ```
//! use mcm_query::wire::WireRequest;
//!
//! let request = WireRequest::parse(
//!     r#"{"query": "compare", "left": "TSO", "right": "x86"}"#,
//! ).unwrap();
//! let outcome = request.spec.run(None).unwrap();
//! let body = outcome.report.render(request.format).unwrap();
//! assert!(body.contains("equivalent"));
//! ```

use std::sync::Arc;

use mcm_axiomatic::CheckerKind;
use mcm_core::json::Json;
use mcm_explore::{EngineConfig, SweepStats, VerdictCache};
use mcm_gen::{Shard, StreamBounds};
use mcm_synth::SynthBounds;

use crate::error::QueryError;
use crate::render::{Format, Render};
use crate::reports::FigureSelection;
use crate::resolve::ModelSpec;
use crate::source::TestSource;
use crate::Query;

/// A parsed wire request: what to run and how to render it.
#[derive(Clone, Debug)]
pub struct WireRequest {
    /// The query to execute.
    pub spec: QuerySpec,
    /// The requested output format (default [`Format::Json`]).
    pub format: Format,
}

impl WireRequest {
    /// Parses a complete request document from JSON text.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] for JSON that fails to parse, is not
    /// an object, names an unknown query kind or field, or carries a
    /// malformed value.
    pub fn parse(text: &str) -> Result<WireRequest, QueryError> {
        let doc = Json::parse(text)
            .map_err(|e| QueryError::InvalidSpec(format!("request is not valid JSON: {e}")))?;
        WireRequest::from_json(&doc)
    }

    /// Parses a request from an already-parsed JSON document.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] as for [`WireRequest::parse`].
    pub fn from_json(doc: &Json) -> Result<WireRequest, QueryError> {
        let pairs = expect_object(doc, "request")?;
        let format = match get(pairs, "format") {
            None => Format::Json,
            Some(v) => {
                let name = as_str(v, "format")?;
                Format::from_name(name).ok_or_else(|| {
                    invalid(format!("unknown format `{name}`; try text|json|csv|dot"))
                })?
            }
        };
        Ok(WireRequest {
            spec: QuerySpec::from_json(doc)?,
            format,
        })
    }
}

/// A declarative, executable query — every [`crate::Query`] kind as
/// data. Fields are public so a policy layer (the server's ceilings) can
/// clamp them before running.
#[derive(Clone, Debug)]
pub enum QuerySpec {
    /// [`Query::sweep`].
    Sweep(SweepSpec),
    /// [`Query::compare`].
    Compare(CompareSpec),
    /// [`Query::distinguish`].
    Distinguish(DistinguishSpec),
    /// [`Query::analyze`].
    Analyze(AnalyzeSpec),
    /// [`Query::synth`].
    Synth(SynthSpec),
    /// [`Query::synth_matrix`].
    SynthMatrix(SynthMatrixSpec),
    /// [`Query::check`].
    Check(CheckSpec),
    /// [`Query::suite`].
    Suite(SuiteSpec),
    /// [`Query::catalog`].
    Catalog,
    /// [`Query::figures`].
    Figures(FigureSelection),
}

/// Wire form of [`Query::sweep`].
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// The model space.
    pub models: ModelSpec,
    /// The test source (never [`TestSource::File`] on the wire).
    pub source: TestSource,
    /// The checker backend.
    pub checker: CheckerKind,
    /// Engine tuning.
    pub engine: EngineConfig,
    /// Verdict memoization: `Some(true)` forces a cache, `Some(false)`
    /// forbids one, `None` defers to the runner (a server supplies its
    /// shared cache; a direct run uses none).
    pub cache: Option<bool>,
    /// Run the warm Figure-4 re-sweep demo after the main sweep.
    pub warm_figure4_demo: bool,
}

/// Wire form of [`Query::compare`].
#[derive(Clone, Debug)]
pub struct CompareSpec {
    /// Left model name.
    pub left: String,
    /// Right model name.
    pub right: String,
    /// Include dependency-idiom templates in the comparison suite.
    pub with_deps: bool,
}

/// Wire form of [`Query::distinguish`].
#[derive(Clone, Debug)]
pub struct DistinguishSpec {
    /// The model space (at least two once resolved).
    pub models: ModelSpec,
    /// Include dependency-idiom templates in the comparison suite.
    pub with_deps: bool,
    /// The checker backend.
    pub checker: CheckerKind,
    /// Engine tuning.
    pub engine: EngineConfig,
    /// Verdict memoization (see [`SweepSpec::cache`]).
    pub cache: Option<bool>,
}

/// Wire form of [`Query::analyze`] — a purely static query: it builds
/// the strength lattice and lint findings without executing any litmus
/// test, so it needs no checker, engine or cache fields.
#[derive(Clone, Debug)]
pub struct AnalyzeSpec {
    /// The model space.
    pub models: ModelSpec,
    /// Tests to lint, if any (materializable sources only).
    pub source: Option<TestSource>,
}

/// Wire form of [`Query::synth`].
#[derive(Clone, Debug)]
pub struct SynthSpec {
    /// Left model name.
    pub left: String,
    /// Right model name.
    pub right: String,
    /// The bounded search box.
    pub bounds: SynthBounds,
    /// Cap on the searched test length (default: the box maximum).
    pub max_size: Option<usize>,
    /// Include solver counters in text renderings.
    pub verbose: bool,
}

/// Wire form of [`Query::synth_matrix`].
#[derive(Clone, Debug)]
pub struct SynthMatrixSpec {
    /// The model space (at least two once resolved).
    pub models: ModelSpec,
    /// The bounded search box.
    pub bounds: SynthBounds,
    /// Cap on the searched test length (default: the box maximum).
    pub max_size: Option<usize>,
    /// Include solver counters in text renderings.
    pub verbose: bool,
}

/// Wire form of [`Query::check`].
#[derive(Clone, Debug)]
pub struct CheckSpec {
    /// The model name.
    pub model: String,
    /// The tests to check (materializable sources only).
    pub source: TestSource,
    /// The checker backend.
    pub checker: CheckerKind,
    /// Render a witness / refutation explanation per test.
    pub witness: bool,
}

/// Wire form of [`Query::suite`].
#[derive(Clone, Copy, Debug)]
pub struct SuiteSpec {
    /// Include the dependency-idiom template variants.
    pub with_deps: bool,
    /// Render full test bodies in text mode.
    pub full: bool,
}

/// What executing a [`QuerySpec`] produced: the report (render it in any
/// [`Format`]) plus, for engine-driven kinds, the sweep counters a
/// service aggregates into its `/statsz` view.
pub struct WireOutcome {
    /// The typed report, behind the common render trait.
    pub report: Box<dyn Render>,
    /// Engine counters, when the query ran the sweep engine.
    pub stats: Option<SweepStats>,
}

impl QuerySpec {
    /// The stable kind name (`sweep`, `compare`, ...), matching the
    /// `query` field that selects it on the wire.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            QuerySpec::Sweep(_) => "sweep",
            QuerySpec::Compare(_) => "compare",
            QuerySpec::Distinguish(_) => "distinguish",
            QuerySpec::Analyze(_) => "analyze",
            QuerySpec::Synth(_) => "synth",
            QuerySpec::SynthMatrix(_) => "synth_matrix",
            QuerySpec::Check(_) => "check",
            QuerySpec::Suite(_) => "suite",
            QuerySpec::Catalog => "catalog",
            QuerySpec::Figures(_) => "figures",
        }
    }

    /// Parses the query portion of a request document.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] for an unknown kind, unknown fields,
    /// or malformed values.
    pub fn from_json(doc: &Json) -> Result<QuerySpec, QueryError> {
        let pairs = expect_object(doc, "request")?;
        let kind = as_str(
            get(pairs, "query").ok_or_else(|| invalid("request is missing `query`"))?,
            "query",
        )?;
        match kind {
            "sweep" => parse_sweep(pairs),
            "compare" => parse_compare(pairs),
            "distinguish" => parse_distinguish(pairs),
            "analyze" => parse_analyze(pairs),
            "synth" => parse_synth(pairs),
            "synth_matrix" => parse_synth_matrix(pairs),
            "check" => parse_check(pairs),
            "suite" => parse_suite(pairs),
            "catalog" => {
                check_fields(pairs, &[])?;
                Ok(QuerySpec::Catalog)
            }
            "figures" => parse_figures(pairs),
            other => Err(invalid(format!(
                "unknown query kind `{other}`; try sweep|compare|distinguish|analyze|\
                 synth|synth_matrix|check|suite|catalog|figures"
            ))),
        }
    }

    /// Executes the query. `shared` is the runner's process-wide
    /// [`VerdictCache`], used by cache-eligible kinds unless the request
    /// said `"cache": false`; with no shared cache, `"cache": true`
    /// builds a fresh one (the CLI's `--cache` semantics).
    ///
    /// # Errors
    ///
    /// Whatever the underlying query's `run` reports — unresolvable
    /// models, bad bounds, litmus text that fails to parse.
    pub fn run(&self, shared: Option<&Arc<VerdictCache>>) -> Result<WireOutcome, QueryError> {
        match self {
            QuerySpec::Sweep(spec) => {
                let mut query = Query::sweep()
                    .models(spec.models.clone())
                    .tests(spec.source.clone())
                    .checker(spec.checker)
                    .engine(spec.engine.clone())
                    .warm_figure4_demo(spec.warm_figure4_demo);
                query = match (shared, spec.cache) {
                    (Some(cache), None | Some(true)) => query.cache_with(Arc::clone(cache)),
                    (None, Some(true)) => query.cache(true),
                    _ => query,
                };
                let report = query.run()?;
                let stats = report.stats;
                Ok(WireOutcome {
                    report: Box::new(report),
                    stats: Some(stats),
                })
            }
            QuerySpec::Compare(spec) => {
                let report = Query::compare(spec.left.as_str(), spec.right.as_str())
                    .with_deps(spec.with_deps)
                    .run()?;
                Ok(WireOutcome {
                    report: Box::new(report),
                    stats: None,
                })
            }
            QuerySpec::Distinguish(spec) => {
                let mut query = Query::distinguish()
                    .models(spec.models.clone())
                    .with_deps(spec.with_deps)
                    .checker(spec.checker)
                    .engine(spec.engine.clone());
                query = match (shared, spec.cache) {
                    (Some(cache), None | Some(true)) => query.cache_with(Arc::clone(cache)),
                    (None, Some(true)) => query.cache(true),
                    _ => query,
                };
                let report = query.run()?;
                let stats = report.stats;
                Ok(WireOutcome {
                    report: Box::new(report),
                    stats: Some(stats),
                })
            }
            QuerySpec::Analyze(spec) => {
                let mut query = Query::analyze().models(spec.models.clone());
                if let Some(source) = &spec.source {
                    query = query.tests(source.clone());
                }
                Ok(WireOutcome {
                    report: Box::new(query.run()?),
                    stats: None,
                })
            }
            QuerySpec::Synth(spec) => {
                let mut query = Query::synth(spec.left.as_str(), spec.right.as_str())
                    .bounds(spec.bounds)
                    .verbose(spec.verbose);
                if let Some(max_size) = spec.max_size {
                    query = query.max_size(max_size);
                }
                Ok(WireOutcome {
                    report: Box::new(query.run()?),
                    stats: None,
                })
            }
            QuerySpec::SynthMatrix(spec) => {
                let mut query = Query::synth_matrix(spec.models.clone())
                    .bounds(spec.bounds)
                    .verbose(spec.verbose);
                if let Some(max_size) = spec.max_size {
                    query = query.max_size(max_size);
                }
                Ok(WireOutcome {
                    report: Box::new(query.run()?),
                    stats: None,
                })
            }
            QuerySpec::Check(spec) => {
                let report = Query::check(spec.model.as_str(), spec.source.clone())
                    .checker(spec.checker)
                    .witness(spec.witness)
                    .run()?;
                Ok(WireOutcome {
                    report: Box::new(report),
                    stats: None,
                })
            }
            QuerySpec::Suite(spec) => {
                let report = Query::suite(spec.with_deps).full(spec.full).run();
                Ok(WireOutcome {
                    report: Box::new(report),
                    stats: None,
                })
            }
            QuerySpec::Catalog => Ok(WireOutcome {
                report: Box::new(Query::catalog()),
                stats: None,
            }),
            QuerySpec::Figures(selection) => Ok(WireOutcome {
                report: Box::new(Query::figures(*selection)),
                stats: None,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Per-kind field parsing.

/// The fields every request document may carry regardless of kind.
const COMMON_FIELDS: [&str; 2] = ["query", "format"];

fn parse_sweep(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(
        pairs,
        &["models", "tests", "checker", "engine", "cache", "warm_figure4_demo"],
    )?;
    Ok(QuerySpec::Sweep(SweepSpec {
        models: parse_models(pairs, ModelSpec::Figure4)?,
        source: match get(pairs, "tests") {
            None => TestSource::TemplateSuite { with_deps: false },
            Some(v) => parse_source(v)?,
        },
        checker: parse_checker(pairs)?,
        engine: parse_engine(pairs)?,
        cache: opt_bool(pairs, "cache")?,
        warm_figure4_demo: opt_bool(pairs, "warm_figure4_demo")?.unwrap_or(false),
    }))
}

fn parse_compare(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(pairs, &["left", "right", "with_deps"])?;
    Ok(QuerySpec::Compare(CompareSpec {
        left: required_str(pairs, "left")?,
        right: required_str(pairs, "right")?,
        with_deps: opt_bool(pairs, "with_deps")?.unwrap_or(true),
    }))
}

fn parse_distinguish(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(pairs, &["models", "with_deps", "checker", "engine", "cache"])?;
    Ok(QuerySpec::Distinguish(DistinguishSpec {
        models: parse_models(pairs, ModelSpec::Full90)?,
        with_deps: opt_bool(pairs, "with_deps")?.unwrap_or(true),
        checker: parse_checker(pairs)?,
        engine: parse_engine(pairs)?,
        cache: opt_bool(pairs, "cache")?,
    }))
}

fn parse_analyze(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(pairs, &["models", "tests"])?;
    let source = match get(pairs, "tests") {
        None => None,
        Some(v) => Some(parse_source(v)?),
    };
    if matches!(source, Some(TestSource::Stream { .. })) {
        return Err(invalid(
            "analyze lints a materializable test source, not a stream",
        ));
    }
    Ok(QuerySpec::Analyze(AnalyzeSpec {
        models: parse_models(pairs, ModelSpec::Full90)?,
        source,
    }))
}

fn parse_synth(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(pairs, &["left", "right", "bounds", "max_size", "verbose"])?;
    let bounds = parse_synth_bounds(pairs)?;
    Ok(QuerySpec::Synth(SynthSpec {
        left: required_str(pairs, "left")?,
        right: required_str(pairs, "right")?,
        max_size: parse_max_size(pairs, &bounds)?,
        bounds,
        verbose: opt_bool(pairs, "verbose")?.unwrap_or(false),
    }))
}

fn parse_synth_matrix(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(pairs, &["models", "bounds", "max_size", "verbose"])?;
    let bounds = parse_synth_bounds(pairs)?;
    Ok(QuerySpec::SynthMatrix(SynthMatrixSpec {
        models: parse_models(pairs, ModelSpec::Figure4)?,
        max_size: parse_max_size(pairs, &bounds)?,
        bounds,
        verbose: opt_bool(pairs, "verbose")?.unwrap_or(false),
    }))
}

fn parse_check(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(pairs, &["model", "tests", "checker", "witness"])?;
    let source = parse_source(
        get(pairs, "tests").ok_or_else(|| invalid("check requires `tests`"))?,
    )?;
    if matches!(source, TestSource::Stream { .. }) {
        return Err(invalid(
            "check needs a materializable test source, not a stream",
        ));
    }
    Ok(QuerySpec::Check(CheckSpec {
        model: required_str(pairs, "model")?,
        source,
        checker: parse_checker(pairs)?,
        witness: opt_bool(pairs, "witness")?.unwrap_or(false),
    }))
}

fn parse_suite(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(pairs, &["with_deps", "full"])?;
    Ok(QuerySpec::Suite(SuiteSpec {
        with_deps: opt_bool(pairs, "with_deps")?.unwrap_or(true),
        full: opt_bool(pairs, "full")?.unwrap_or(false),
    }))
}

fn parse_figures(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(pairs, &["which"])?;
    let which = match get(pairs, "which") {
        None => "all".to_string(),
        Some(v) => as_str(v, "which")?.to_string(),
    };
    let selection = FigureSelection::from_name(&which)
        .ok_or_else(|| invalid(format!("unknown figure `{which}`")))?;
    Ok(QuerySpec::Figures(selection))
}

// ---------------------------------------------------------------------------
// Shared field parsers.

fn parse_models(pairs: &[(String, Json)], default: ModelSpec) -> Result<ModelSpec, QueryError> {
    match get(pairs, "models") {
        None => Ok(default),
        Some(Json::Str(spec)) => Ok(ModelSpec::parse(spec)),
        Some(Json::Array(items)) => {
            let names: Vec<String> = items
                .iter()
                .map(|item| as_str(item, "models[]").map(str::to_string))
                .collect::<Result<_, _>>()?;
            Ok(ModelSpec::List(names))
        }
        Some(_) => Err(invalid(
            "`models` must be a set name (figure4|90|named|comma-list) or an array of names",
        )),
    }
}

fn parse_source(value: &Json) -> Result<TestSource, QueryError> {
    match value {
        Json::Str(name) => match name.as_str() {
            "catalog" => Ok(TestSource::Catalog),
            "template_suite" => Ok(TestSource::TemplateSuite { with_deps: false }),
            other => Err(invalid(format!(
                "unknown test source `{other}`; try catalog, template_suite, \
                 or an object form (template_suite/stream/inline)"
            ))),
        },
        Json::Object(pairs) => {
            let [(key, body)] = pairs.as_slice() else {
                return Err(invalid(
                    "a test-source object must have exactly one field \
                     (template_suite, stream or inline)",
                ));
            };
            match key.as_str() {
                "template_suite" => {
                    let inner = expect_object(body, "tests.template_suite")?;
                    check_named_fields(inner, "tests.template_suite", &["with_deps"])?;
                    Ok(TestSource::TemplateSuite {
                        with_deps: opt_bool(inner, "with_deps")?.unwrap_or(false),
                    })
                }
                "stream" => parse_stream(body),
                "inline" => Ok(TestSource::Inline(as_str(body, "tests.inline")?.to_string())),
                other => Err(invalid(format!(
                    "unknown test source `{other}`; the wire format has no file-backed \
                     sources — use inline litmus text"
                ))),
            }
        }
        _ => Err(invalid("`tests` must be a source name or a source object")),
    }
}

fn parse_stream(body: &Json) -> Result<TestSource, QueryError> {
    let inner = expect_object(body, "tests.stream")?;
    check_named_fields(
        inner,
        "tests.stream",
        &["max_accesses", "max_locs", "fences", "deps", "limit", "shard"],
    )?;
    let mut bounds = StreamBounds::default();
    if let Some(n) = opt_int(inner, "max_accesses")? {
        bounds.max_accesses_per_thread = usize::try_from(n)
            .ok()
            .filter(|&n| (1..=4).contains(&n))
            .ok_or_else(|| invalid(format!("stream max_accesses needs 1..=4, got {n}")))?;
    }
    if let Some(n) = opt_int(inner, "max_locs")? {
        // No leader uses more locations than it has accesses; a larger
        // bound only multiplies the shapes walked before the first one.
        let most = bounds.threads * bounds.max_accesses_per_thread;
        bounds.max_locs = u8::try_from(n)
            .ok()
            .filter(|&n| n >= 1 && usize::from(n) <= most)
            .ok_or_else(|| {
                invalid(format!(
                    "stream max_locs needs 1..={most} ({} threads x {} accesses), got {n}",
                    bounds.threads, bounds.max_accesses_per_thread
                ))
            })?;
    }
    bounds.include_fences = opt_bool(inner, "fences")?.unwrap_or(false);
    bounds.include_deps = opt_bool(inner, "deps")?.unwrap_or(false);
    let limit = match opt_int(inner, "limit")? {
        None => None,
        Some(n) => Some(
            usize::try_from(n)
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| invalid(format!("stream limit needs a positive integer, got {n}")))?,
        ),
    };
    let shard = match get(inner, "shard") {
        None => None,
        Some(v) => Some(
            as_str(v, "tests.stream.shard")?
                .parse::<Shard>()
                .map_err(|e| invalid(format!("stream shard: {e}")))?,
        ),
    };
    Ok(TestSource::Stream { bounds, limit, shard })
}

fn parse_checker(pairs: &[(String, Json)]) -> Result<CheckerKind, QueryError> {
    match get(pairs, "checker") {
        None => Ok(CheckerKind::Explicit),
        Some(v) => {
            let name = as_str(v, "checker")?;
            CheckerKind::from_name(name).ok_or_else(|| {
                let known: Vec<&str> = CheckerKind::ALL.iter().map(|k| k.name()).collect();
                invalid(format!("unknown checker `{name}`; try one of {}", known.join("/")))
            })
        }
    }
}

fn parse_engine(pairs: &[(String, Json)]) -> Result<EngineConfig, QueryError> {
    let mut config = EngineConfig::default();
    let Some(value) = get(pairs, "engine") else {
        return Ok(config);
    };
    let inner = expect_object(value, "engine")?;
    check_named_fields(
        inner,
        "engine",
        &["canonicalize", "jobs", "batch_size", "stream_chunk"],
    )?;
    config.canonicalize = opt_bool(inner, "canonicalize")?.unwrap_or(false);
    if let Some(n) = opt_int(inner, "jobs")? {
        config.jobs = Some(
            usize::try_from(n)
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| invalid(format!("engine jobs needs a positive integer, got {n}")))?,
        );
    }
    if let Some(n) = opt_int(inner, "batch_size")? {
        config.batch_size = usize::try_from(n)
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| invalid(format!("engine batch_size needs a positive integer, got {n}")))?;
    }
    if let Some(n) = opt_int(inner, "stream_chunk")? {
        config.stream_chunk = usize::try_from(n)
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| {
                invalid(format!("engine stream_chunk needs a positive integer, got {n}"))
            })?;
    }
    Ok(config)
}

fn parse_synth_bounds(pairs: &[(String, Json)]) -> Result<SynthBounds, QueryError> {
    let mut bounds = SynthBounds::default();
    let Some(value) = get(pairs, "bounds") else {
        return Ok(bounds);
    };
    let inner = expect_object(value, "bounds")?;
    check_named_fields(inner, "bounds", &["max_accesses", "max_locs", "fences", "deps"])?;
    if let Some(n) = opt_int(inner, "max_accesses")? {
        bounds.max_accesses_per_thread = usize::try_from(n)
            .ok()
            .filter(|&n| (1..=4).contains(&n))
            .ok_or_else(|| invalid(format!("bounds max_accesses needs 1..=4, got {n}")))?;
    }
    if let Some(n) = opt_int(inner, "max_locs")? {
        bounds.max_locs = u8::try_from(n)
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| invalid(format!("bounds max_locs needs 1..=255, got {n}")))?;
    }
    bounds.include_fences = opt_bool(inner, "fences")?.unwrap_or(false);
    bounds.include_deps = opt_bool(inner, "deps")?.unwrap_or(false);
    Ok(bounds)
}

fn parse_max_size(
    pairs: &[(String, Json)],
    bounds: &SynthBounds,
) -> Result<Option<usize>, QueryError> {
    match opt_int(pairs, "max_size")? {
        None => Ok(None),
        Some(n) => Ok(Some(
            usize::try_from(n)
                .ok()
                .filter(|&n| (bounds.min_total()..=bounds.max_total()).contains(&n))
                .ok_or_else(|| {
                    invalid(format!(
                        "max_size needs {}..={} for these bounds, got {n}",
                        bounds.min_total(),
                        bounds.max_total()
                    ))
                })?,
        )),
    }
}

// ---------------------------------------------------------------------------
// JSON plumbing: strict field checks and typed getters.

fn invalid(message: impl Into<String>) -> QueryError {
    QueryError::InvalidSpec(message.into())
}

fn expect_object<'a>(value: &'a Json, what: &str) -> Result<&'a [(String, Json)], QueryError> {
    value
        .as_object()
        .ok_or_else(|| invalid(format!("{what} must be a JSON object")))
}

/// Rejects fields outside `allowed` + the common envelope fields.
fn check_fields(pairs: &[(String, Json)], allowed: &[&str]) -> Result<(), QueryError> {
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) && !COMMON_FIELDS.contains(&key.as_str()) {
            return Err(invalid(format!("unknown request field `{key}`")));
        }
    }
    Ok(())
}

/// Rejects fields of a named sub-object outside `allowed`.
fn check_named_fields(
    pairs: &[(String, Json)],
    what: &str,
    allowed: &[&str],
) -> Result<(), QueryError> {
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(invalid(format!("unknown {what} field `{key}`")));
        }
    }
    Ok(())
}

fn get<'a>(pairs: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_str<'a>(value: &'a Json, what: &str) -> Result<&'a str, QueryError> {
    value
        .as_str()
        .ok_or_else(|| invalid(format!("`{what}` must be a string")))
}

fn required_str(pairs: &[(String, Json)], key: &str) -> Result<String, QueryError> {
    get(pairs, key)
        .ok_or_else(|| invalid(format!("request is missing `{key}`")))
        .and_then(|v| as_str(v, key))
        .map(str::to_string)
}

fn opt_bool(pairs: &[(String, Json)], key: &str) -> Result<Option<bool>, QueryError> {
    match get(pairs, key) {
        None => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| invalid(format!("`{key}` must be a boolean"))),
    }
}

fn opt_int(pairs: &[(String, Json)], key: &str) -> Result<Option<i64>, QueryError> {
    match get(pairs, key) {
        None => Ok(None),
        Some(v) => v
            .as_i64()
            .map(Some)
            .ok_or_else(|| invalid(format!("`{key}` must be an integer"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_json(text: &str) -> String {
        let request = WireRequest::parse(text).expect("request parses");
        let outcome = request.spec.run(None).expect("request runs");
        outcome.report.render(request.format).expect("renders")
    }

    #[test]
    fn minimal_requests_of_every_kind_parse() {
        for (text, kind) in [
            (r#"{"query": "sweep"}"#, "sweep"),
            (r#"{"query": "compare", "left": "SC", "right": "TSO"}"#, "compare"),
            (r#"{"query": "distinguish"}"#, "distinguish"),
            (r#"{"query": "analyze", "models": ["SC", "TSO"]}"#, "analyze"),
            (r#"{"query": "synth", "left": "SC", "right": "TSO"}"#, "synth"),
            (r#"{"query": "synth_matrix", "models": ["SC", "TSO"]}"#, "synth_matrix"),
            (
                r#"{"query": "check", "model": "SC", "tests": "catalog"}"#,
                "check",
            ),
            (r#"{"query": "suite"}"#, "suite"),
            (r#"{"query": "catalog"}"#, "catalog"),
            (r#"{"query": "figures", "which": "fig3"}"#, "figures"),
        ] {
            let request = WireRequest::parse(text).expect(text);
            assert_eq!(request.spec.kind(), kind, "{text}");
            assert_eq!(request.format, Format::Json, "{text}");
        }
    }

    #[test]
    fn wire_round_trip_matches_the_builder_path() {
        let body = run_json(
            r#"{"query": "sweep", "models": ["SC", "TSO"], "tests": "catalog",
                "engine": {"jobs": 1}}"#,
        );
        let direct = Query::sweep()
            .models(ModelSpec::List(vec!["SC".into(), "TSO".into()]))
            .tests(TestSource::Catalog)
            .engine(EngineConfig {
                jobs: Some(1),
                ..EngineConfig::default()
            })
            .run()
            .unwrap();
        let mut served = Json::parse(&body).unwrap();
        let mut expected = Json::parse(&direct.render(Format::Json).unwrap()).unwrap();
        served.strip_keys(&["elapsed_ms", "timings"]);
        expected.strip_keys(&["elapsed_ms", "timings"]);
        assert_eq!(served, expected);
    }

    #[test]
    fn formats_and_defaults_resolve() {
        let request = WireRequest::parse(
            r#"{"query": "suite", "format": "text", "with_deps": false, "full": true}"#,
        )
        .unwrap();
        assert_eq!(request.format, Format::Text);
        let QuerySpec::Suite(spec) = &request.spec else {
            panic!("expected a suite spec");
        };
        assert!(!spec.with_deps);
        assert!(spec.full);
    }

    #[test]
    fn stream_sources_parse_with_bounds() {
        let request = WireRequest::parse(
            r#"{"query": "sweep",
                "tests": {"stream": {"max_accesses": 2, "max_locs": 2, "fences": true,
                                     "limit": 50, "shard": "1/4"}}}"#,
        )
        .unwrap();
        let QuerySpec::Sweep(spec) = &request.spec else {
            panic!("expected a sweep spec");
        };
        let TestSource::Stream { bounds, limit, shard } = &spec.source else {
            panic!("expected a stream source");
        };
        assert_eq!(bounds.max_accesses_per_thread, 2);
        assert_eq!(bounds.max_locs, 2);
        assert!(bounds.include_fences);
        assert!(!bounds.include_deps);
        assert_eq!(*limit, Some(50));
        assert_eq!(shard.map(|s| (s.index(), s.count())), Some((1, 4)));
    }

    #[test]
    fn stream_max_locs_is_bounded_by_the_access_count() {
        let parse = |stream: &str| {
            WireRequest::parse(&format!(
                r#"{{"query": "sweep", "tests": {{"stream": {stream}}}}}"#
            ))
        };
        // Two threads of at most `max_accesses` accesses: 2 x 3 by default.
        assert!(parse(r#"{"max_locs": 6}"#).is_ok());
        for bad in [
            r#"{"max_locs": 7}"#,
            r#"{"max_locs": 255}"#,
            r#"{"max_accesses": 1, "max_locs": 3}"#,
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.is_usage(), "`{bad}` must be a usage error, got {err}");
            assert!(err.to_string().contains("max_locs"), "{err}");
        }
        assert!(parse(r#"{"max_accesses": 4, "max_locs": 8}"#).is_ok());
    }

    #[test]
    fn malformed_requests_are_usage_errors() {
        for bad in [
            "not json at all",
            "[1, 2, 3]",
            r#"{"format": "json"}"#,
            r#"{"query": "teleport"}"#,
            r#"{"query": "sweep", "warp": 9}"#,
            r#"{"query": "sweep", "models": 7}"#,
            r#"{"query": "sweep", "tests": {"file": "/etc/passwd"}}"#,
            r#"{"query": "sweep", "tests": {"stream": {"max_accesses": 99}}}"#,
            r#"{"query": "sweep", "tests": {"stream": {"shard": "3/2"}}}"#,
            r#"{"query": "sweep", "tests": {"stream": {"shard": 2}}}"#,
            r#"{"query": "sweep", "tests": {"stream": {"shard": "banana"}}}"#,
            r#"{"query": "sweep", "engine": {"jobs": 0}}"#,
            r#"{"query": "sweep", "engine": {"jobs": "many"}}"#,
            r#"{"query": "sweep", "checker": "oracle"}"#,
            r#"{"query": "sweep", "format": "yaml"}"#,
            r#"{"query": "compare", "left": "SC"}"#,
            r#"{"query": "compare", "left": "SC", "right": 4}"#,
            r#"{"query": "analyze", "models": 7}"#,
            r#"{"query": "analyze", "tests": {"stream": {}}}"#,
            r#"{"query": "analyze", "checker": "sat"}"#,
            r#"{"query": "check", "model": "SC"}"#,
            r#"{"query": "check", "model": "SC", "tests": {"stream": {}}}"#,
            r#"{"query": "synth", "left": "SC", "right": "TSO", "max_size": 99}"#,
            r#"{"query": "figures", "which": "fig9"}"#,
            r#"{"query": "catalog", "extra": true}"#,
        ] {
            let err = WireRequest::parse(bad).expect_err(bad);
            assert!(err.is_usage(), "`{bad}` must be a usage error, got {err}");
        }
    }

    #[test]
    fn shared_cache_is_honoured_unless_refused() {
        let cache = Arc::new(VerdictCache::new());
        let request = WireRequest::parse(
            r#"{"query": "sweep", "models": ["SC", "TSO"], "tests": "catalog",
                "engine": {"jobs": 1}}"#,
        )
        .unwrap();
        let _ = request.spec.run(Some(&cache)).unwrap();
        assert!(!cache.is_empty(), "the shared cache must be populated");
        let warm_before = cache.hits();
        let _ = request.spec.run(Some(&cache)).unwrap();
        assert!(cache.hits() > warm_before, "a re-run must hit the shared cache");

        // "cache": false opts out of the shared cache entirely.
        let refused = WireRequest::parse(
            r#"{"query": "sweep", "models": ["SC", "TSO"], "tests": "catalog",
                "cache": false, "engine": {"jobs": 1}}"#,
        )
        .unwrap();
        let len_before = cache.len();
        let hits_before = cache.hits();
        let _ = refused.spec.run(Some(&cache)).unwrap();
        assert_eq!(cache.len(), len_before);
        assert_eq!(cache.hits(), hits_before);
    }
}
