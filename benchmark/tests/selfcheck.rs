//! Tiny-size self-check: every workload runs in seconds, in both modes,
//! and reports every metric `BENCHMARK.json` names with its unit, on a
//! result line with the contract's exact keys.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::process::Command;

use mcm_core::json::Json;

const WORKLOADS: [&str; 3] = ["sweep90", "synth-matrix", "serve-store"];

/// `(name, unit)` for every metric of `section` in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("a metric list")
        .iter()
        .map(|metric| {
            let field = |key: &str| {
                metric
                    .get(key)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one tiny workload and returns its parsed result line.
fn run(workload: &str, trace: &str) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_mcm-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--trace",
            trace,
            "--tiny",
        ])
        .output()
        .expect("run the benchmark binary");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

#[test]
fn every_workload_reports_every_declared_metric_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = declared(section);
        for workload in WORKLOADS {
            let result = run(workload, trace);
            let keys: Vec<&str> = result
                .as_object()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let reported = result
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            assert_eq!(reported.len(), metrics.len(), "{workload} --trace {trace}");
            for (name, unit) in &metrics {
                let metric = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let value = metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("a numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if trace == "0" {
                    assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "sweep90", "--trace", "2"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_mcm-benchmark"))
            .args(args)
            .output()
            .expect("run the benchmark binary");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
