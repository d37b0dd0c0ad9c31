//! Cross-layer properties: the static analyzer against the real sweep.
//!
//! The analyzer claims three things it never runs a test to establish —
//! equivalence (equal normalized tables), order (pointwise implication)
//! and normal forms (minimized DNF drop-ins). Each claim is checked here
//! against verdicts computed by the actual checkers over the complete
//! dependency template suite, which decides equivalence for the model
//! class (Theorem 1 / Corollary 1). `elision_theorem_exhaustive` covers
//! the *whole* finite domain of Theorem A, so the elision rule is
//! machine-verified, not sampled. The sweep prefilter's per-test model
//! quotient is checked against the checker's own forced-pair grouping,
//! and the prefiltered 90-model streamed sweep against the unfiltered one.

use mcm_analyze::{
    elidable, minimized_dnf, AtomUniverse, StrengthAnalysis, SweepPrefilter, TruthTable,
};
use mcm_axiomatic::hb::forced_po_pairs;
use mcm_axiomatic::{BatchExplicitChecker, ExplicitChecker};
use mcm_core::formula::{ArgPos, Atom, Formula};
use mcm_core::{
    Execution, LitmusTest, Loc, MemoryModel, Outcome, Program, Reg, RegExpr, ThreadId, Value,
};
use mcm_explore::space::{EngineConfig, Exploration};
use mcm_gen::stream::{leaders, StreamBounds};
use mcm_models::DigitModel;
use proptest::prelude::*;

fn ninety_models() -> Vec<MemoryModel> {
    DigitModel::all().into_iter().map(|d| d.to_model()).collect()
}

fn comparison_suite() -> Vec<mcm_core::LitmusTest> {
    mcm_explore::paper::comparison_tests(true)
}

#[test]
fn static_equivalence_matches_the_materialized_sweep() {
    let models = ninety_models();
    let analysis = StrengthAnalysis::build(&models);
    let expl = Exploration::run(models, comparison_suite(), &ExplicitChecker::new());

    let mut swept: Vec<(usize, usize)> = expl.equivalent_pairs();
    let mut claimed: Vec<(usize, usize)> = analysis
        .equivalent_pairs()
        .into_iter()
        .map(|(i, j, _)| (i, j))
        .collect();
    swept.sort_unstable();
    claimed.sort_unstable();
    assert_eq!(
        claimed, swept,
        "analyzer equivalences must coincide with sweep equivalences"
    );

    // And equivalent pairs have bit-identical verdict vectors.
    for (i, j) in claimed {
        assert_eq!(expl.verdicts[i], expl.verdicts[j]);
    }
}

#[test]
fn static_order_is_never_contradicted_by_verdicts() {
    let models = ninety_models();
    let analysis = StrengthAnalysis::build(&models);
    let expl = Exploration::run(models, comparison_suite(), &ExplicitChecker::new());

    for i in 0..analysis.models.len() {
        for j in 0..analysis.models.len() {
            if i == j {
                continue;
            }
            // i implies j statically => j is stronger-or-equal => j's
            // allowed set is a subset of i's on every suite.
            if analysis.models[i].normalized.implies(&analysis.models[j].normalized) {
                assert!(
                    expl.verdicts[j].subset_of(&expl.verdicts[i]),
                    "{} <= {} statically, but the sweep disagrees",
                    analysis.models[j].name,
                    analysis.models[i].name,
                );
            }
        }
    }
}

#[test]
fn minimized_dnf_is_a_verdict_preserving_drop_in() {
    // Mixed bag: named models and dependency-sensitive digit models.
    let originals: Vec<MemoryModel> = ["M4044", "M4144", "M1132", "M4432", "M1010"]
        .iter()
        .map(|s| s.parse::<DigitModel>().unwrap().to_model())
        .chain([
            mcm_models::named::rmo(),
            mcm_models::named::alpha(),
            mcm_models::named::sc(),
        ])
        .collect();
    let rewritten: Vec<MemoryModel> = originals
        .iter()
        .map(|m| MemoryModel::new(m.name(), minimized_dnf(m.formula())))
        .collect();

    let tests = comparison_suite();
    let a = Exploration::run(originals, tests.clone(), &ExplicitChecker::new());
    let b = Exploration::run(rewritten.clone(), tests.clone(), &ExplicitChecker::new());
    assert_eq!(a.verdicts, b.verdicts, "explicit checker must not notice");

    let sat = Exploration::run(rewritten, tests, &mcm_axiomatic::SatChecker::new());
    assert_eq!(a.verdicts, sat.verdicts, "nor the SAT checker");
}

/// One guarded-fragment formula: the free slots are the same-address
/// `R→R` dependency bits, the different-address `R→W` dependency bits and
/// the different-address `W→W` bit; `wr` selects the elidable slot.
fn guarded_formula(rr: u8, rw: u8, ww: bool, wr_ordered: bool) -> Formula {
    let same = || Formula::atom(Atom::SameAddr);
    let dep = || Formula::atom(Atom::DataDep);
    let w = Atom::IsWrite;
    let r = Atom::IsRead;
    let rr_cond = match rr {
        0b00 => Formula::never(),
        0b01 => Formula::and([same(), dep()]),
        _ => same(),
    };
    let rw_cond = match rw {
        0b00 => same(),
        0b01 => Formula::or([same(), dep()]),
        _ => Formula::always(),
    };
    let ww_cond = if ww { Formula::always() } else { same() };
    let wr_cond = if wr_ordered { same() } else { Formula::never() };
    Formula::or([
        Formula::fence_either(),
        Formula::pair(w(ArgPos::First), w(ArgPos::Second), ww_cond),
        Formula::pair(w(ArgPos::First), r(ArgPos::Second), wr_cond),
        Formula::pair(r(ArgPos::First), w(ArgPos::Second), rw_cond),
        Formula::pair(r(ArgPos::First), r(ArgPos::Second), rr_cond),
    ])
}

#[test]
fn elision_theorem_exhaustive() {
    // Theorem A's domain is finite: twelve guard-satisfying tables. For
    // every one, the formula with the same-address W→R slot ordered and
    // the one without must produce bit-identical verdicts over the
    // complete dependency template suite — which decides equivalence for
    // this class — so the theorem is verified over its whole domain.
    let universe = AtomUniverse::base();
    let suite: Vec<mcm_core::LitmusTest> =
        mcm_gen::suite::template_suite_extended(true, true).tests;
    assert!(!suite.is_empty());

    let fragment = mcm_analyze::guarded_fragment();
    assert_eq!(fragment.len(), 12);
    for (rr, rw, ww) in fragment {
        let without = guarded_formula(rr, rw, ww, false);
        let with = guarded_formula(rr, rw, ww, true);
        for f in [&without, &with] {
            assert!(
                elidable(&TruthTable::build(f, &universe), &universe),
                "fragment member (rr={rr:#04b}, rw={rw:#04b}, ww={ww}) must satisfy the guard"
            );
        }
        let models = vec![
            MemoryModel::new("e0", without),
            MemoryModel::new("e1", with),
        ];
        let expl = Exploration::run(models, suite.clone(), &ExplicitChecker::new());
        assert_eq!(
            expl.verdicts[0], expl.verdicts[1],
            "elision must be invisible for (rr={rr:#04b}, rw={rw:#04b}, ww={ww})"
        );
    }
}

#[test]
fn non_guarded_wr_elision_is_observable() {
    // The guard is not vacuous: TSO (M4044) vs IBM370 (M4144) differ in
    // exactly the same slot but fail the guard, and the suite does
    // distinguish them.
    let models = vec![
        "M4044".parse::<DigitModel>().unwrap().to_model(),
        "M4144".parse::<DigitModel>().unwrap().to_model(),
    ];
    let expl = Exploration::run(models, comparison_suite(), &ExplicitChecker::new());
    assert_ne!(expl.verdicts[0], expl.verdicts[1]);
}

/// Asserts that the prefilter's quotient of `rows` on `exec` is exactly
/// the grouping by `forced_po_pairs`: same partition, groups numbered by
/// first row, each group's pairs those of its representative.
fn assert_quotient_is_forced_pair_grouping(
    models: &[MemoryModel],
    exec: &Execution,
    rows: &[usize],
) {
    let refs: Vec<&MemoryModel> = models.iter().collect();
    let prefilter = SweepPrefilter::new(&refs);
    let quotient = prefilter.quotient(exec, rows);
    let mut expected: Vec<Vec<_>> = Vec::new();
    let mut expected_of = Vec::new();
    for &row in rows {
        let pairs = forced_po_pairs(&models[row], exec);
        let g = expected
            .iter()
            .position(|p| *p == pairs)
            .unwrap_or_else(|| {
                expected.push(pairs);
                expected.len() - 1
            });
        expected_of.push(g);
    }
    assert_eq!(quotient.group_of, expected_of);
    assert_eq!(quotient.groups.len(), expected.len());
    for (g, pairs) in expected.iter().enumerate() {
        let (rep, quotient_pairs) = &quotient.groups[g];
        assert_eq!(*rep, rows[expected_of.iter().position(|&e| e == g).unwrap()]);
        assert_eq!(quotient_pairs, pairs);
    }
    let groups = prefilter.group_rows(exec, rows);
    assert_eq!(groups.len(), quotient.groups.len());
    for (members, (rep, _)) in groups.iter().zip(&quotient.groups) {
        assert_eq!(members[0], *rep);
    }
}

/// The prefilter never changes a verdict, and the engine's accounting
/// balances: every call it saves is a call the unfiltered sweep makes.
/// Over the first 1,000 leaders of the 90-model streamed sweep.
#[test]
fn prefilter_is_bit_identical_and_its_savings_balance() {
    let bounds = StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: true,
        include_deps: true,
    };
    let sweep = |prefilter: bool| {
        Exploration::run_engine_streaming(
            mcm_explore::paper::digit_space_models(true),
            leaders(&bounds).take(1_000),
            || Box::new(BatchExplicitChecker::new()),
            &EngineConfig {
                prefilter,
                ..EngineConfig::default()
            },
            None,
        )
    };
    let (on, on_stats) = sweep(true);
    let (off, off_stats) = sweep(false);
    assert_eq!(on.models.len(), 90);
    assert_eq!(on.tests.len(), off.tests.len());
    for (row, (a, b)) in on.verdicts.iter().zip(&off.verdicts).enumerate() {
        let model = on.models[row].name();
        assert_eq!(a, b, "prefilter changed the verdicts of {model}");
    }
    assert_eq!(off_stats.prefilter_saved_calls, 0);
    assert_eq!(
        on_stats.checker_calls + on_stats.prefilter_saved_calls,
        off_stats.checker_calls,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn quotient_equals_forced_pair_grouping(index in 0usize..100_000, pick in 0usize..1_000) {
        let bounds = StreamBounds {
            max_accesses_per_thread: 2,
            threads: 2,
            max_locs: 2,
            include_fences: true,
            include_deps: true,
        };
        let tests: Vec<LitmusTest> = leaders(&bounds).collect();
        let exec = tests[index % tests.len()].execution();
        let models = ninety_models();
        // A pseudo-random row subset in a rotated order.
        let mut rows: Vec<usize> = (0..models.len())
            .filter(|r| (r * 7 + pick) % 5 != 0)
            .collect();
        let turn = pick % rows.len();
        rows.rotate_left(turn);
        assert_quotient_is_forced_pair_grouping(&models, &exec, &rows);
    }
}

/// One thread of `blocks` eight-event blocks mixing reads, writes, full
/// and special fences, a data dependency and a control dependency.
fn long_thread(blocks: u8) -> Execution {
    let mut builder = Program::builder().thread();
    let mut outcome = Outcome::new();
    for b in 0..blocks {
        let (loaded, derived, last) = (Reg(3 * b + 1), Reg(3 * b + 2), Reg(3 * b + 3));
        builder = builder
            .read(Loc::X, loaded)
            .dep_const(derived, loaded, Value(1))
            .write_expr(Loc::Y, RegExpr::Reg(derived))
            .fence()
            .branch_on(loaded)
            .write(Loc::X, Value(2))
            .special_fence(3)
            .read(Loc::Y, last);
        outcome = outcome.constrain(ThreadId(0), loaded, Value(0));
        outcome = outcome.constrain(ThreadId(0), last, Value(0));
    }
    let program = builder.build().expect("a valid program");
    LitmusTest::new("long", program, outcome)
        .expect("a valid test")
        .execution()
}

#[test]
fn quotient_handles_more_than_64_and_128_po_pairs() {
    let mut models = ninety_models();
    models.push(MemoryModel::new(
        "special-3",
        Formula::atom(Atom::IsSpecialFence(3, ArgPos::First)),
    ));
    let all: Vec<usize> = (0..models.len()).collect();
    for (blocks, more_than) in [(2, 64), (3, 128)] {
        let exec = long_thread(blocks);
        let n = exec.events().len();
        assert!(n * (n - 1) / 2 > more_than, "{n} events");
        assert_quotient_is_forced_pair_grouping(&models, &exec, &all);
        let mut reversed = all.clone();
        reversed.reverse();
        assert_quotient_is_forced_pair_grouping(&models, &exec, &reversed);
    }
}
