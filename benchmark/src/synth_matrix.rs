//! `synth-matrix`: CEGIS synthesis of the pairwise minimal-length matrix
//! over Figure 4's 36 models, single-threaded — the work of
//! `Query::synth_matrix` (one request), driven pair by pair so every pair
//! is timed and its witness kept for the oracle.

use std::hint::black_box;
use std::time::Instant;

use mcm_axiomatic::{Checker, CheckerKind, ExplicitChecker};
use mcm_core::{LitmusTest, MemoryModel};
use mcm_explore::{distinguish, EngineConfig, Exploration};
use mcm_gen::{stream, StreamBounds};
use mcm_query::ModelSpec;
use mcm_synth::{SynthBounds, Synthesizer};

use crate::common::{
    median, median_time, out_dir, peak_rss_mb, recheck_cells, tail, Options, Outcome, Rng,
};
use crate::probes::{counter_delta, histogram_delta, histogram_tail, registry, trace_events};

/// Longest distinguishing test searched, in total accesses. The full
/// bound (6) costs about 37 s per matrix; 5 keeps one matrix at a few
/// seconds while still certifying every pair up to five accesses.
const MAX_SIZE: usize = 5;
/// Matrices per second of `--seconds`: a run of 25 s makes 8 matrices,
/// which takes about 24–28 s on the 2-core machine.
const MATRICES_PER_SECOND: f64 = 0.3;
const TINY_MODELS: usize = 5;
const SETUP_REPS: usize = 1001;
/// Cells of the exhaustive reference sweep re-decided per cell.
const ORACLE_CELLS: usize = 1_000;

/// The input: Figure 4's models, the bounded space shared by synthesis
/// and the exhaustive reference, and the length cap. The self-check size
/// keeps five models in a two-accesses-per-thread box.
struct Input {
    models: Vec<MemoryModel>,
    bounds: StreamBounds,
    max_size: usize,
}

impl Input {
    fn new(options: &Options) -> Input {
        let mut models = ModelSpec::Figure4
            .resolve()
            .expect("the Figure 4 models build");
        let mut bounds = StreamBounds::default();
        let mut max_size = MAX_SIZE;
        if options.tiny {
            models.truncate(TINY_MODELS);
            bounds.max_accesses_per_thread = 2;
            max_size = 4;
        }
        Input {
            models,
            bounds,
            max_size,
        }
    }

    fn synth_bounds(&self) -> SynthBounds {
        SynthBounds {
            max_accesses_per_thread: self.bounds.max_accesses_per_thread,
            threads: self.bounds.threads,
            max_locs: self.bounds.max_locs,
            include_fences: self.bounds.include_fences,
            include_deps: self.bounds.include_deps,
        }
    }
}

/// One matrix: every pair synthesized once, in index order.
struct Matrix {
    wall_s: f64,
    pair_s: Vec<f64>,
    /// `(i, j, length, witness)` per pair.
    pairs: Vec<(usize, usize, Option<usize>, Option<LitmusTest>)>,
    synthesizer: Synthesizer,
}

fn synthesize(input: &Input) -> Matrix {
    let models = input.models.clone();
    let start = Instant::now();
    let mut synthesizer =
        Synthesizer::new(models, input.synth_bounds()).expect("Figure 4 models synthesize");
    let n = synthesizer.models().len();
    let mut pair_s = Vec::with_capacity(n * n / 2);
    let mut pairs = Vec::with_capacity(n * n / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            let pair_start = Instant::now();
            let span = mcm_obs::trace::span("bench.pair");
            let pair = synthesizer.pair(i, j, input.max_size);
            drop(span);
            pair_s.push(pair_start.elapsed().as_secs_f64());
            pairs.push((i, j, pair.length, pair.witness));
        }
    }
    Matrix {
        wall_s: start.elapsed().as_secs_f64(),
        pair_s,
        pairs,
        synthesizer,
    }
}

/// Checks a matrix against the exhaustive sweep's lengths, re-checks
/// every witness with the per-cell checker, and requires zero encoding
/// mismatches.
fn check_matrix(out: &mut Outcome, matrix: &Matrix, expected: &[Vec<Option<usize>>]) {
    let checker = ExplicitChecker::new();
    let models = matrix.synthesizer.models();
    let mut bad = 0;
    for (i, j, length, witness) in &matrix.pairs {
        let mut ok = *length == expected[*i][*j];
        if let Some(length) = length {
            ok &= witness.as_ref().is_some_and(|test| {
                test.program().access_count() == *length
                    && checker.is_allowed(&models[*i], test)
                        != checker.is_allowed(&models[*j], test)
            });
        }
        bad += u64::from(!ok);
    }
    out.check_many(matrix.pairs.len() as u64, bad);
    out.check(matrix.synthesizer.stats().encoding_mismatches == 0);
}

/// The exhaustive reference: per-pair minimal lengths over every leader
/// of at most `max_size` accesses, with a seeded sample of its cells
/// re-decided by the per-cell checker.
fn reference(out: &mut Outcome, input: &Input, seed: u64) -> Vec<Vec<Option<usize>>> {
    let tests: Vec<LitmusTest> = stream::leaders(&input.bounds)
        .filter(|t| t.program().access_count() <= input.max_size)
        .collect();
    let config = EngineConfig {
        jobs: Some(2),
        ..EngineConfig::default()
    };
    let (exploration, _) = Exploration::run_engine(
        input.models.clone(),
        tests,
        || CheckerKind::Explicit.build_batch(),
        &config,
        None,
    );
    let bad = recheck_cells(&exploration, ORACLE_CELLS, &mut Rng::new(seed));
    out.check_many(ORACLE_CELLS as u64, bad);
    out.info("reference_tests", exploration.tests.len());
    out.info("oracle_cells", ORACLE_CELLS);
    distinguish::minimal_length_matrix(&exploration)
}

pub fn run(options: &Options) -> Outcome {
    let mut out = Outcome::new(options.trace);
    let input = Input::new(options);
    let setup_s = median_time(SETUP_REPS, || {
        let models = input.models.clone();
        black_box(Synthesizer::new(models, input.synth_bounds()).expect("valid bounds"));
    });
    let n = input.models.len();
    out.size("models", n);
    out.size("pairs", n * (n - 1) / 2);
    out.info("max_size", input.max_size);
    let expected = reference(&mut out, &input, options.seed);

    let first = synthesize(&input);
    check_matrix(&mut out, &first, &expected);
    let mut walls = vec![first.wall_s];
    drop(first);
    if options.trace {
        traced(options, &input, &expected, &mut out);
        return out;
    }
    while walls.len() < options.requests(MATRICES_PER_SECOND, 3) {
        let matrix = synthesize(&input);
        check_matrix(&mut out, &matrix, &expected);
        walls.push(matrix.wall_s);
    }
    let (tail_label, tail_s) = tail(&walls);
    out.info("matrices", walls.len());
    out.info(
        "latency_tail",
        format!("{tail_label} of {} matrices", walls.len()),
    );
    let m = &mut out.metrics;
    m.set("setup_s", setup_s);
    m.set("wall_s", median(&walls));
    m.set("req_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
    m.set("latency_p50_ms", median(&walls) * 1e3);
    m.set("latency_tail_ms", tail_s * 1e3);
    m.set("peak_rss_mb", peak_rss_mb());
    out
}

fn traced(options: &Options, input: &Input, expected: &[Vec<Option<usize>>], out: &mut Outcome) {
    // Untraced and traced matrices alternate after the (cold) first one;
    // the layer split comes from the last traced matrix.
    let trace_path = out_dir().join(format!("trace-synth-matrix-seed{}.json", options.seed));
    let mut untraced = Vec::new();
    let mut traced_walls = Vec::new();
    let mut last = None;
    for _ in 0..2 {
        let matrix = synthesize(input);
        check_matrix(out, &matrix, expected);
        untraced.push(matrix.wall_s);
        drop(matrix);
        mcm_obs::trace::install(&trace_path);
        let before = registry();
        let matrix = synthesize(input);
        let after = registry();
        mcm_obs::trace::finish().expect("write the Chrome trace");
        check_matrix(out, &matrix, expected);
        traced_walls.push(matrix.wall_s);
        // Keep only what the metrics need: a live synthesizer would make
        // the next matrix allocate fresh pages instead of reusing these.
        last = Some((
            before,
            after,
            matrix.pair_s,
            matrix.synthesizer.stats(),
            matrix.wall_s,
        ));
    }
    let (before, after, pair_s, stats, wall_s) = last.expect("two traced matrices ran");

    let oracle = histogram_delta(&before, &after, "mcm_check_latency_us");
    let iterations = histogram_delta(&before, &after, "mcm_synth_iteration_latency_us");
    let pair_total: f64 = pair_s.iter().sum();
    let oracle_s = oracle.sum as f64 / 1e6;
    let (pair_label, pair_tail) = tail(&pair_s);
    let (check_label, check_tail) = histogram_tail(&oracle);
    out.info("trace_file", trace_path.display().to_string());
    out.info(
        "pair_tail",
        format!("{pair_label} of {} pairs", pair_s.len()),
    );
    out.info(
        "check_tail",
        format!("{check_label} of {} oracle rows", oracle.count),
    );
    out.info("solver_s", "derived: pair time minus oracle time");
    let m = &mut out.metrics;
    m.set("axiomatic.check_calls", oracle.count as f64);
    m.set("axiomatic.check_s", oracle_s);
    m.set("axiomatic.check_p50_us", oracle.quantile(0.5) as f64);
    m.set("axiomatic.check_tail_us", check_tail);
    m.set(
        "axiomatic.shared_candidates",
        counter_delta(&before, &after, "mcm_check_candidates_total") as f64,
    );
    m.set("axiomatic.oracle_s", oracle_s);
    m.set("synth.pair_ms_p50", median(&pair_s) * 1e3);
    m.set("synth.pair_ms_tail", pair_tail * 1e3);
    m.set("synth.cegis_iter_s", iterations.sum as f64 / 1e6);
    m.set("synth.solver_s", pair_total - oracle_s);
    m.set("synth.sat_queries", stats.sat_queries as f64);
    m.set("synth.candidates", stats.candidates as f64);
    m.set("synth.oracle_calls", stats.oracle_calls as f64);
    m.set("synth.oracle_cache_hits", stats.oracle_cache_hits as f64);
    m.set(
        "synth.oracle_hit_ratio",
        stats.oracle_cache_hits as f64
            / (stats.oracle_cache_hits + stats.oracle_calls).max(1) as f64,
    );
    m.set("trace.coverage", pair_total / wall_s);
    m.set(
        "trace.overhead",
        median(&traced_walls) / median(&untraced) - 1.0,
    );
    m.set("trace.events", trace_events(&trace_path) as f64);
}
