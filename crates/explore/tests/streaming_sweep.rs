//! The streaming sweep must be indistinguishable from the materialized
//! path: same verdict per (model, orbit), same lattice. `run_engine` is
//! the streaming core fed one chunk, so its verdicts equal the sequential
//! oracle's and its counters equal a one-chunk stream's.
//!
//! Past the materializable bounds, streamed prefixes of the size-3 and
//! size-4 spaces must never split a pair of truly equivalent models.

use std::collections::HashMap;

use mcm_axiomatic::{BatchChecker, BatchExplicitChecker, ExplicitChecker};
use mcm_core::{LitmusTest, MemoryModel};
use mcm_explore::{paper, EngineConfig, Exploration, Relation, VerdictCache};
use mcm_gen::stream::{self, StreamBounds};
use mcm_gen::{canon, naive};
use mcm_models::{catalog, named, DigitModel};
use proptest::prelude::*;

fn factory() -> Box<dyn BatchChecker> {
    Box::new(BatchExplicitChecker::new())
}

fn tiny_bounds() -> StreamBounds {
    StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: false,
        include_deps: false,
    }
}

/// Sweeps the materialized raw space with canonicalization and returns
/// each model's verdict keyed by orbit fingerprint.
fn materialized_verdicts(models: &[MemoryModel]) -> Vec<HashMap<u64, bool>> {
    let raw = naive::enumerate_tests_raw(
        &naive::NaiveBounds {
            max_accesses_per_thread: 2,
            threads: 2,
            max_locs: 2,
            include_fences: false,
        },
        usize::MAX,
    );
    let (expl, _) = Exploration::run_engine(
        models.to_vec(),
        raw,
        factory,
        &EngineConfig::canonicalizing(),
        None,
    );
    expl.verdicts
        .iter()
        .map(|vector| {
            expl.tests
                .iter()
                .enumerate()
                .map(|(t, test)| (canon::fingerprint(test), vector.allowed(t)))
                .collect()
        })
        .collect()
}

fn streamed(models: Vec<MemoryModel>, chunk: usize) -> (Exploration, mcm_explore::SweepStats) {
    Exploration::run_engine_streaming(
        models,
        stream::leaders(&tiny_bounds()),
        factory,
        &EngineConfig {
            stream_chunk: chunk,
            ..EngineConfig::default()
        },
        None,
    )
}

#[test]
fn streamed_lattice_equals_materialized_lattice() {
    let models = paper::digit_space_models(false);
    let materialized = materialized_verdicts(&models);
    let (stream_expl, stats) = streamed(models.clone(), 64);
    // Orbit-for-orbit: every streamed leader's verdict matches the verdict
    // of its orbit in the materialized sweep, for every model.
    assert_eq!(stream_expl.tests.len() as u64, stats.tests_streamed);
    for (m, verdicts) in materialized.iter().enumerate() {
        assert_eq!(
            verdicts.len(),
            stream_expl.tests.len(),
            "orbit counts diverge for {}",
            models[m].name()
        );
        for (t, test) in stream_expl.tests.iter().enumerate() {
            let fp = canon::fingerprint(test);
            assert_eq!(
                verdicts.get(&fp).copied(),
                Some(stream_expl.verdicts[m].allowed(t)),
                "verdict diverges for {} on {}",
                models[m].name(),
                test.name()
            );
        }
    }
    // The lattice (pairwise relations) is therefore identical too; check
    // it directly as the CI smoke assertion.
    let raw = naive::enumerate_tests_raw(
        &naive::NaiveBounds {
            max_accesses_per_thread: 2,
            threads: 2,
            max_locs: 2,
            include_fences: false,
        },
        usize::MAX,
    );
    let (mat_expl, _) = Exploration::run_engine(
        models,
        raw,
        factory,
        &EngineConfig::canonicalizing(),
        None,
    );
    for i in 0..mat_expl.models.len() {
        for j in 0..mat_expl.models.len() {
            assert_eq!(
                mat_expl.relation(i, j),
                stream_expl.relation(i, j),
                "lattice relation {i},{j} diverges"
            );
        }
    }
    // Streaming in small chunks really did bound memory below the raw
    // space.
    assert!(stats.peak_batch <= 64);
}

#[test]
fn chunk_size_does_not_change_the_outcome() {
    let models = vec![
        mcm_models::named::sc(),
        mcm_models::named::tso(),
        mcm_models::named::pso(),
        mcm_models::named::rmo(),
    ];
    let (a, _) = streamed(models.clone(), 1);
    let (b, _) = streamed(models.clone(), 7);
    let (c, _) = streamed(models, usize::MAX);
    assert_eq!(a.verdicts, b.verdicts);
    assert_eq!(a.verdicts, c.verdicts);
    assert_eq!(a.tests.len(), b.tests.len());
}

/// The title question one step past Theorem 1, on 2,000-leader prefixes
/// of the size-3 and size-4 spaces (fences and the `r - r + k` idiom
/// included). Models equivalent on the complete template suite are
/// equivalent on every test of the class, so a split here is an engine
/// or stream bug, not a refutation of the paper.
#[test]
fn streamed_prefixes_never_split_truly_equivalent_models() {
    let models = paper::digit_space_models(false);
    let (truth, _) = Exploration::run_engine(
        models.clone(),
        paper::comparison_tests(false),
        factory,
        &EngineConfig::default(),
        None,
    );
    let size3 = StreamBounds {
        max_accesses_per_thread: 3,
        threads: 2,
        max_locs: 2,
        include_fences: true,
        include_deps: true,
    };
    for bounds in [size3, StreamBounds::size4(2)] {
        let (prefix, _) = Exploration::run_engine_streaming(
            models.clone(),
            stream::leaders(&bounds).take(2_000),
            factory,
            &EngineConfig::default(),
            None,
        );
        for (i, j) in truth.equivalent_pairs() {
            assert_eq!(
                prefix.relation(i, j),
                Relation::Equivalent,
                "{bounds:?} split the truly equivalent pair {} == {}",
                truth.models[i].name(),
                truth.models[j].name(),
            );
        }
    }
}

/// Suites with exact duplicates and symmetric variants: the catalog
/// twice over, and a sample of the comparison suite (its catalog tests
/// are symmetric variants of template instances) plus a repeated head.
fn fold_suites() -> Vec<Vec<LitmusTest>> {
    let catalog = catalog::all_tests();
    let comparison = paper::comparison_tests(true);
    let sampled: Vec<LitmusTest> = comparison
        .iter()
        .step_by(3)
        .chain(&comparison[..12])
        .chain(&catalog)
        .cloned()
        .collect();
    vec![catalog.iter().chain(&catalog).cloned().collect(), sampled]
}

#[test]
fn run_engine_is_the_streaming_core_over_one_chunk() {
    let models = vec![named::sc(), named::tso(), named::x86(), named::pso(), named::alpha()];
    for suite in fold_suites() {
        let oracle = Exploration::run(models.clone(), suite.clone(), &ExplicitChecker::new());
        for canonicalize in [false, true] {
            for cache in [false, true] {
                for prefilter in [false, true] {
                    for jobs in [1, 2] {
                        let config = EngineConfig {
                            canonicalize,
                            prefilter,
                            jobs: Some(jobs),
                            // Ignored by run_engine, which sweeps one chunk.
                            stream_chunk: 3,
                            ..EngineConfig::default()
                        };
                        let label = format!("{config:?} cache={cache}");
                        let engine_cache = VerdictCache::new();
                        let (engine, engine_stats) = Exploration::run_engine(
                            models.clone(),
                            suite.clone(),
                            factory,
                            &config,
                            cache.then_some(&engine_cache),
                        );
                        assert_eq!(engine.verdicts, oracle.verdicts, "{label}");
                        assert_eq!(engine.tests, suite, "{label}");
                        let stream_cache = VerdictCache::new();
                        let (streamed, stream_stats) = Exploration::run_engine_streaming(
                            models.clone(),
                            suite.clone(),
                            factory,
                            &EngineConfig {
                                stream_chunk: suite.len(),
                                ..config.clone()
                            },
                            cache.then_some(&stream_cache),
                        );
                        assert_eq!(engine_stats, stream_stats, "{label}");
                        assert_eq!(engine_stats.tests_streamed, suite.len() as u64);
                        assert_eq!(engine_stats.peak_batch, engine_stats.canonical_tests);
                        assert_eq!(streamed.tests.len(), engine_stats.canonical_tests);
                        if canonicalize {
                            assert!(streamed.tests.len() < suite.len(), "{label}");
                        } else {
                            assert_eq!(streamed.tests, suite, "{label}");
                            assert_eq!(streamed.verdicts, oracle.verdicts, "{label}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn semantically_equal_formulas_keep_two_rows_and_cost_one_call() {
    let tests = paper::comparison_tests(true);
    let sweep = |models: Vec<MemoryModel>| {
        Exploration::run_engine(models, tests.clone(), factory, &EngineConfig::default(), None)
    };
    let pairs = [
        ("M1010", named::rmo_without_dependencies()),
        ("M1030", named::alpha()),
    ];
    for (digits, spelled) in pairs {
        let digit = digits.parse::<DigitModel>().unwrap().to_model();
        assert_ne!(digit.formula(), spelled.formula(), "{digits} is spelled differently");
        let (pair, pair_stats) = sweep(vec![digit.clone(), spelled]);
        let (alone, alone_stats) = sweep(vec![digit]);
        assert_eq!(pair_stats.distinct_models, 2, "{digits}");
        assert_eq!(pair.verdicts[0], pair.verdicts[1], "{digits}");
        assert_eq!(pair.verdicts[0], alone.verdicts[0], "{digits}");
        // The per-test quotient gives the two rows one checker call per
        // test.
        assert_eq!(pair_stats.checker_calls, alone_stats.checker_calls, "{digits}");
        assert_eq!(pair_stats.prefilter_saved_calls, tests.len() as u64, "{digits}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    fn streamed_verdicts_match_materialized_for_sampled_models(
        digit in 0usize..36,
        chunk in 1usize..48,
    ) {
        let models = vec![paper::digit_space_models(false)[digit].clone()];
        let materialized = materialized_verdicts(&models);
        let (stream_expl, _) = streamed(models, chunk);
        for (t, test) in stream_expl.tests.iter().enumerate() {
            let fp = canon::fingerprint(test);
            prop_assert_eq!(
                materialized[0].get(&fp).copied(),
                Some(stream_expl.verdicts[0].allowed(t)),
                "verdict diverges on {}",
                test.name()
            );
        }
    }
}
