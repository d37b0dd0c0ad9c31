//! Observability must be close to free: the full 90-model streamed sweep
//! with `mcm-obs` instrumentation enabled (the default) gives verdicts and
//! engine counters bit-identical to the same sweep with
//! `mcm_obs::set_enabled(false)`, within a 3% wall-clock budget (5 ms
//! floor). One untimed warm-up sweep, then on/off samples interleaved,
//! best of 3 on each side, so neither scheduler noise nor host drift
//! decides the verdict.
//!
//! A timing test: it lives in its own binary so no other test flips the
//! global switch or competes for the cores while it measures.

use std::time::{Duration, Instant};

use mcm_axiomatic::CheckerKind;
use mcm_explore::{paper, EngineConfig, Exploration, SweepStats};
use mcm_gen::stream::{self, StreamBounds};

/// `mcm explore --models 90 --stream` on two workers.
fn streamed_sweep() -> (Exploration, SweepStats) {
    Exploration::run_engine_streaming(
        paper::digit_space_models(true),
        stream::leaders(&StreamBounds::default()),
        || CheckerKind::Explicit.build_batch(),
        &EngineConfig {
            jobs: Some(2),
            ..EngineConfig::default()
        },
        None,
    )
}

/// Wall clock of one sweep with instrumentation set to `enabled`
/// (re-enabled afterwards, its default).
fn timed_sweep(enabled: bool) -> (Duration, Exploration, SweepStats) {
    mcm_obs::set_enabled(enabled);
    let start = Instant::now();
    let (exploration, stats) = streamed_sweep();
    let elapsed = start.elapsed();
    mcm_obs::set_enabled(true);
    (elapsed, exploration, stats)
}

#[test]
#[ignore = "a wall-clock budget on a 90-model sweep; run it alone with --release -- --ignored"]
fn instrumentation_is_bit_identical_and_within_three_percent() {
    assert!(mcm_obs::enabled(), "instrumentation starts enabled");
    std::hint::black_box(streamed_sweep());
    let (mut on_time, mut off_time) = (Duration::MAX, Duration::MAX);
    let (mut on, mut off) = (None, None);
    for _ in 0..3 {
        let (elapsed, exploration, stats) = timed_sweep(true);
        on_time = on_time.min(elapsed);
        on = Some((exploration, stats));
        let (elapsed, exploration, stats) = timed_sweep(false);
        off_time = off_time.min(elapsed);
        off = Some((exploration, stats));
    }
    let (on_expl, on_stats) = on.expect("three samples ran");
    let (off_expl, off_stats) = off.expect("three samples ran");

    // Identical answers first: instrumentation observes, never steers.
    assert_eq!(on_expl.models.len(), off_expl.models.len());
    assert_eq!(on_expl.tests, off_expl.tests);
    assert_eq!(on_expl.verdicts, off_expl.verdicts);
    assert_eq!(
        on_stats, off_stats,
        "engine counters must not depend on instrumentation"
    );

    // Sub-millisecond sweeps cannot resolve a 3% ratio, hence the floor.
    let budget = off_time
        .mul_f64(1.03)
        .max(off_time + Duration::from_millis(5));
    println!(
        "obs overhead: enabled {on_time:.2?} vs disabled {off_time:.2?} (best of 3; \
         {} models x {} streamed leaders; budget {budget:.2?})",
        on_expl.models.len(),
        on_expl.tests.len(),
    );
    assert!(
        on_time <= budget,
        "instrumentation overhead exceeds 3%: enabled {on_time:?} vs disabled {off_time:?}"
    );
}
