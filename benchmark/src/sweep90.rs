//! `sweep90`: the cold 90-model streamed sweep, `mcm explore --models 90
//! --stream --format json`, run through `Query::sweep()` and rendered.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mcm_axiomatic::CheckerKind;
use mcm_core::{LitmusTest, MemoryModel};
use mcm_explore::{EngineConfig, Exploration, Lattice};
use mcm_gen::{stream, StreamBounds};
use mcm_query::reports::{StreamSummary, SweepReport};
use mcm_query::{Format, ModelSpec, Query, Render, TestSource};

use crate::common::{
    median, median_time, out_dir, peak_rss_mb, recheck_cells, tail, Options, Outcome, Rng,
};
use crate::probes::{row_prefilter, trace_events, CheckTally, TimedChecker, TimedLeaders};

/// Leaders of the default stream bounds (3 accesses per thread, 2
/// threads, 4 locations): the sweep's fixed input size.
const FULL_LEADERS: u64 = 36_764;
/// Leader cap of the self-check size.
const TINY_LEADERS: usize = 1_500;
/// Sweeps per second of `--seconds`: a run of 25 s makes 16 sweeps,
/// which takes about 20–25 s on the 2-core machine.
const SWEEPS_PER_SECOND: f64 = 0.65;
const JOBS: usize = 2;
const SETUP_REPS: usize = 101;
/// Cells re-decided by the per-cell checker, and leaders re-decided by
/// each operational machine.
const ORACLE_CELLS: usize = 3_000;
const OPERATIONAL_LEADERS: usize = 150;

fn engine() -> EngineConfig {
    EngineConfig {
        jobs: Some(JOBS),
        ..EngineConfig::default()
    }
}

fn limit(options: &Options) -> Option<usize> {
    options.tiny.then_some(TINY_LEADERS)
}

/// One user-visible sweep: query, report, JSON render. Returns the
/// report and the wall time in seconds.
fn query_sweep(models: &[MemoryModel], limit: Option<usize>) -> (SweepReport, f64) {
    let models = ModelSpec::Models(models.to_vec());
    let start = Instant::now();
    let report = Query::sweep()
        .models(models)
        .tests(TestSource::Stream {
            bounds: StreamBounds::default(),
            limit,
            shard: None,
        })
        .engine(engine())
        .run()
        .expect("the 90-model streamed sweep runs");
    let json = report.render(Format::Json).expect("sweeps render as JSON");
    black_box(json.len());
    (report, start.elapsed().as_secs_f64())
}

/// FNV-1a over every verdict bit: equal digests mean equal matrices.
fn digest(exploration: &Exploration) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for vector in &exploration.verdicts {
        for word in vector.words() {
            hash ^= word;
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

pub fn run(options: &Options) -> Outcome {
    let mut out = Outcome::new(options.trace);
    // Set-up: the model space the sweep runs over — the 90 models, their
    // semantic keys and the prefilter over their distinct rows.
    let setup_s = median_time(SETUP_REPS, || {
        let models = ModelSpec::Full90
            .resolve()
            .expect("the 90-model space builds");
        black_box(row_prefilter(&models));
    });
    let models = ModelSpec::Full90
        .resolve()
        .expect("the 90-model space builds");
    let expected_leaders = limit(options).map_or(FULL_LEADERS, |l| l as u64);
    out.size("models", models.len());
    out.size("leaders", expected_leaders);
    out.size("pairs", models.len() as u64 * expected_leaders);
    out.info("jobs", JOBS);

    // Every sweep must produce the same matrix over the full leader set.
    let (first, first_s) = query_sweep(&models, limit(options));
    let reference = digest(&first.exploration);
    out.check(first.stats.tests_streamed == expected_leaders && models.len() == 90);
    check_oracle(&mut out, &first, options.seed);
    let mut times = vec![first_s];
    drop(first);

    if options.trace {
        traced(options, &models, reference, &mut out);
        return out;
    }
    while times.len() < options.requests(SWEEPS_PER_SECOND, 3) {
        let (report, secs) = query_sweep(&models, limit(options));
        out.check(digest(&report.exploration) == reference);
        times.push(secs);
    }
    let total: f64 = times.iter().sum();
    let (tail_label, tail_s) = tail(&times);
    out.info("sweeps", times.len());
    out.info(
        "latency_tail",
        format!("{tail_label} of {} sweeps", times.len()),
    );
    let m = &mut out.metrics;
    m.set("setup_s", setup_s);
    m.set("wall_s", median(&times));
    m.set("req_per_s", times.len() as f64 / total);
    m.set("latency_p50_ms", median(&times) * 1e3);
    m.set("latency_tail_ms", tail_s * 1e3);
    m.set("peak_rss_mb", peak_rss_mb());
    out
}

/// Re-decides a seeded sample of cells with the per-cell explicit
/// checker, and the SC, TSO, PSO and IBM370 columns with the
/// operational machines.
fn check_oracle(out: &mut Outcome, report: &SweepReport, seed: u64) {
    let exploration = &report.exploration;
    let tests = &exploration.tests;
    let mut rng = Rng::new(seed);
    out.check_many(
        ORACLE_CELLS as u64,
        recheck_cells(exploration, ORACLE_CELLS, &mut rng),
    );
    out.info("oracle_cells", ORACLE_CELLS);

    type Machine = fn(&LitmusTest) -> bool;
    let machines: [(&str, Machine); 4] = [
        ("M4444 (SC)", mcm_operational::sc_allows),
        ("M4044 (TSO/x86)", mcm_operational::tso_allows),
        ("M1044 (PSO)", mcm_operational::variants::pso_allows),
        ("M4144 (IBM370)", mcm_operational::variants::ibm370_allows),
    ];
    let per_column = OPERATIONAL_LEADERS;
    for (name, machine) in machines {
        let Some(m) = exploration
            .models
            .iter()
            .position(|model| model.name() == name)
        else {
            out.check(false);
            continue;
        };
        let mut bad = 0;
        for _ in 0..per_column {
            let t = rng.below(tests.len());
            bad += u64::from(machine(&tests[t]) != exploration.verdicts[m].allowed(t));
        }
        out.check_many(per_column as u64, bad);
    }
    out.info("operational_cells", 4 * per_column);
}

/// One traced sweep's layer split.
struct Split {
    wall_s: f64,
    lead_s: f64,
    chunk_s: f64,
    report_s: f64,
    render_s: f64,
    leaders: u64,
    raw_visited: u64,
    checks: CheckTally,
    checker_calls: u64,
    prefilter_groups: u64,
    prefilter_saved: u64,
}

/// The same sweep, driven through the engine's public extension points:
/// a timing iterator over the leader stream and a timing checker
/// decorator from the `make_checker` factory. The report is assembled
/// and rendered the way `Query::sweep` does it for streamed sources.
fn traced_sweep(models: &[MemoryModel], limit: Option<usize>) -> (Split, Exploration) {
    let bounds = StreamBounds::default();
    let start = Instant::now();
    let stream = stream::leaders(&bounds);
    let build_s = start.elapsed().as_secs_f64();
    let (leaders, lead) = TimedLeaders::new(stream);
    let checks = Arc::new(Mutex::new(CheckTally::default()));
    let engine_start = Instant::now();
    let engine_span = mcm_obs::trace::span("bench.engine");
    let (exploration, stats) = Exploration::run_engine_streaming(
        models.to_vec(),
        leaders.take(limit.unwrap_or(usize::MAX)),
        || {
            Box::new(TimedChecker::new(
                CheckerKind::Explicit.build_batch(),
                Arc::clone(&checks),
            ))
        },
        &engine(),
        None,
    );
    drop(engine_span);
    let engine_s = engine_start.elapsed().as_secs_f64();
    let report_start = Instant::now();
    let report_span = mcm_obs::trace::span("bench.report");
    let lattice = Lattice::build(&exploration);
    let equivalent_pairs = exploration
        .equivalent_pairs()
        .into_iter()
        .map(|(i, j)| {
            (
                exploration.models[i].name().to_string(),
                exploration.models[j].name().to_string(),
            )
        })
        .collect();
    let report = SweepReport {
        stats,
        lattice,
        equivalent_pairs,
        minimal_set: None,
        nine_test_indices: Vec::new(),
        nine_tests_sufficient: None,
        cache: None,
        store: None,
        checkpoint: None,
        warm: None,
        stream: Some(StreamSummary {
            bounds,
            limit,
            shard: None,
            raw_space: stream::try_count_raw(&bounds, 20_000_000),
        }),
        timings: None,
        elapsed: start.elapsed(),
        exploration,
    };
    drop(report_span);
    let report_s = report_start.elapsed().as_secs_f64();
    let render_start = Instant::now();
    let render_span = mcm_obs::trace::span("bench.render");
    let json = report.render(Format::Json).expect("sweeps render as JSON");
    drop(render_span);
    black_box(json.len());
    let render_s = render_start.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();
    let lead = *lead.borrow();
    let checks = std::mem::take(&mut *checks.lock().expect("checker tally lock"));
    let split = Split {
        wall_s,
        lead_s: build_s + lead.busy_s,
        chunk_s: engine_s - lead.busy_s,
        report_s,
        render_s,
        leaders: lead.leaders,
        raw_visited: lead.raw_visited,
        checks,
        checker_calls: report.stats.checker_calls,
        prefilter_groups: report.stats.prefilter_groups,
        prefilter_saved: report.stats.prefilter_saved_calls,
    };
    (split, report.exploration)
}

fn traced(options: &Options, models: &[MemoryModel], reference: u64, out: &mut Outcome) {
    // Untraced and traced sweeps alternate after the (cold) first one.
    // Each runs after the previous one's memory was released, so none
    // pays for fresh pages the others reuse.
    let limit = limit(options);
    let trace_path = out_dir().join(format!("trace-sweep90-seed{}.json", options.seed));
    let mut untraced = Vec::new();
    let mut splits = Vec::new();
    let mut leaders: Option<Vec<LitmusTest>> = None;
    for _ in 0..2 {
        drop(leaders.take());
        let (report, secs) = query_sweep(models, limit);
        out.check(digest(&report.exploration) == reference);
        untraced.push(secs);
        drop(report);
        mcm_obs::trace::install(&trace_path);
        let (split, exploration) = traced_sweep(models, limit);
        mcm_obs::trace::finish().expect("write the Chrome trace");
        out.check(digest(&exploration) == reference);
        leaders = Some(exploration.tests);
        splits.push(split);
    }
    // Means over the traced sweeps, so the layer times add up the way
    // each sweep's do.
    let mean = |f: fn(&Split) -> f64| splits.iter().map(f).sum::<f64>() / splits.len() as f64;
    let wall_s = mean(|s| s.wall_s);
    let lead_s = mean(|s| s.lead_s);
    let chunk_s = mean(|s| s.chunk_s);
    let report_s = mean(|s| s.report_s);
    let render_s = mean(|s| s.render_s);
    let check_s = mean(|s| s.checks.call_ns.iter().sum::<u64>() as f64 / 1e9);

    let last = splits.last().expect("two traced sweeps ran");
    let call_us: Vec<f64> = last
        .checks
        .call_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let (tail_label, tail_us) = tail(&call_us);
    let batch = last.checks.batch;

    // Replays of public functions on this sweep's own leaders.
    let tests = leaders.as_deref().unwrap_or_default();
    let execution_s = median_time(3, || {
        for test in tests {
            black_box(test.execution());
        }
    });
    let (prefilter, all_rows) = row_prefilter(models);
    let executions: Vec<_> = tests.iter().map(LitmusTest::execution).collect();
    let group_rows_s = median_time(3, || {
        for exec in &executions {
            black_box(prefilter.group_rows(exec, &all_rows));
        }
    });

    out.info("trace_file", trace_path.display().to_string());
    out.info(
        "check_tail",
        format!("{tail_label} of {} checker calls", call_us.len()),
    );
    out.info("traced_sweeps", splits.len());
    out.info("untraced_sweeps", untraced.len());
    let groups = last.prefilter_groups as f64;
    let saved = last.prefilter_saved as f64;
    let m = &mut out.metrics;
    m.set("gen.lead_s", lead_s);
    m.set("gen.leaders", last.leaders as f64);
    m.set("gen.raw_visited", last.raw_visited as f64);
    m.set(
        "gen.leader_yield",
        last.leaders as f64 / last.raw_visited.max(1) as f64,
    );
    m.set("core.execution_s", execution_s);
    m.set("analyze.group_rows_s", group_rows_s);
    m.set("analyze.prefilter_groups", groups);
    m.set("analyze.prefilter_saved_calls", saved);
    m.set(
        "analyze.prefilter_yield",
        groups / (groups + saved).max(1.0),
    );
    m.set("axiomatic.check_calls", call_us.len() as f64);
    m.set("axiomatic.check_s", check_s);
    m.set("axiomatic.check_p50_us", median(&call_us));
    m.set("axiomatic.check_tail_us", tail_us);
    m.set("axiomatic.group_collapse", batch.row_collapse());
    m.set(
        "axiomatic.shared_candidates",
        batch.shared_candidates as f64,
    );
    m.set("axiomatic.group_evals", batch.group_evals as f64);
    m.set("explore.chunk_s", chunk_s);
    m.set("explore.worker_noncheck_s", JOBS as f64 * chunk_s - check_s);
    m.set("explore.report_s", report_s);
    m.set("explore.checker_calls", last.checker_calls as f64);
    m.set("query.render_s", render_s);
    m.set(
        "trace.coverage",
        (lead_s + chunk_s + report_s + render_s) / wall_s,
    );
    m.set(
        "trace.overhead",
        wall_s / (untraced.iter().sum::<f64>() / untraced.len() as f64) - 1.0,
    );
    m.set("trace.events", trace_events(&trace_path) as f64);
}
