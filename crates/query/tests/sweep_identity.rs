//! A sweep query drives the engine exactly as a direct call does, and a
//! query over a verdict log is answered from disk by the next process.
//!
//! * `Query::sweep` over the Figure-4 space yields the same `SweepStats`,
//!   bit-identical verdicts and the same certified artifacts as
//!   `Exploration::run_engine` followed by `paper::report_from`.
//! * A streamed sweep run twice over one `--store` log: the second run,
//!   a fresh cache hydrated from the log as a restarted process sees it,
//!   makes zero checker calls, answers every hit from the disk tier and
//!   appends nothing, with a bit-identical outcome.

use mcm_explore::{paper, EngineConfig, Exploration};
use mcm_gen::StreamBounds;
use mcm_query::{CheckerKind, ModelSpec, Query, SweepReport, TestSource};

fn one_worker() -> EngineConfig {
    EngineConfig {
        jobs: Some(1),
        ..EngineConfig::default()
    }
}

#[test]
fn figure4_query_equals_the_direct_engine_call() {
    let (exploration, direct_stats) = Exploration::run_engine(
        paper::digit_space_models(false),
        paper::comparison_tests(false),
        || CheckerKind::Explicit.build_batch(),
        &one_worker(),
        None,
    );
    let direct = paper::report_from(exploration);
    let report = Query::sweep()
        .models(ModelSpec::Figure4)
        .tests(TestSource::TemplateSuite { with_deps: false })
        .checker(CheckerKind::Explicit)
        .engine(one_worker())
        .run()
        .expect("the Figure 4 space resolves");

    assert_eq!(
        report.stats, direct_stats,
        "Query must drive the engine with identical settings"
    );
    assert_eq!(
        report.exploration.models.len(),
        direct.exploration.models.len()
    );
    assert_eq!(report.exploration.tests, direct.exploration.tests);
    assert_eq!(report.exploration.verdicts, direct.exploration.verdicts);
    assert_eq!(
        report.minimal_set.as_ref().map(|m| m.tests.len()),
        Some(direct.minimal_set.tests.len()),
    );
    assert_eq!(report.equivalent_pairs, direct.equivalent_pairs);
    assert_eq!(report.lattice.classes.len(), direct.lattice.classes.len());
}

/// `mcm explore --stream --models figure4 --max-accesses 2 --max-locs 2
/// [--store FILE]`, single-threaded.
fn stream_sweep(store: &std::path::Path) -> SweepReport {
    Query::sweep()
        .models(ModelSpec::Figure4)
        .tests(TestSource::Stream {
            bounds: StreamBounds {
                max_accesses_per_thread: 2,
                threads: 2,
                max_locs: 2,
                include_fences: false,
                include_deps: false,
            },
            limit: None,
            shard: None,
        })
        .engine(one_worker())
        .store(store)
        .run()
        .expect("streamed sweep cannot fail")
}

#[test]
fn a_second_process_answers_a_stored_sweep_from_disk() {
    let dir = std::env::temp_dir().join("mcm-query-sweep-identity");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join(format!("warm-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log);

    let cold = stream_sweep(&log);
    let cold_store = cold.store.as_ref().expect("cold run opened a store");
    assert!(
        cold.stats.checker_calls > 0,
        "the cold sweep must actually check"
    );
    assert!(
        cold_store.appended > 0,
        "the cold sweep must append verdicts"
    );

    let warm = stream_sweep(&log);
    std::fs::remove_file(&log).unwrap();
    let warm_cache = warm.cache.as_ref().expect("warm run has a cache");
    let warm_store = warm.store.as_ref().expect("warm run opened the store");
    assert_eq!(
        warm.stats.checker_calls, 0,
        "a warm-from-disk sweep must make zero checker calls"
    );
    assert_eq!(
        warm_cache.hits, warm_cache.hits_disk,
        "a fresh process has no RAM-tier history: every hit is disk-tier"
    );
    assert!(
        warm_cache.hits_disk >= cold.stats.checker_calls,
        "the disk tier must answer at least every pair the cold run checked"
    );
    assert_eq!(warm_store.appended, 0, "a fully warm sweep appends nothing");
    let names = |r: &SweepReport| -> Vec<String> {
        r.exploration
            .tests
            .iter()
            .map(|t| t.name().to_string())
            .collect()
    };
    assert_eq!(names(&cold), names(&warm));
    assert_eq!(cold.exploration.verdicts, warm.exploration.verdicts);
    assert_eq!(cold.equivalent_pairs, warm.equivalent_pairs);
}
