//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! mcm-benchmark --workload <sweep90|synth-matrix|serve-store> --seed N \
//!               --seconds S --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no trace sink and
//! obs at its default; `--trace 1` is the separate traced run that
//! reports the per-layer metrics and writes a Chrome trace under `out/`.
//! The last line of standard output is the result object; the line
//! before it carries the environment stamp and run context.

mod common;
mod probes;
mod serve_store;
mod sweep90;
mod synth_matrix;

use common::{emit, stamp, Options};

const USAGE: &str = "usage: mcm-benchmark --workload <sweep90|synth-matrix|serve-store> \
                     --seed N --seconds S --trace <0|1> [--tiny]";

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut options = Options {
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => options.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                options.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--tiny" => options.tiny = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, options))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, options) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match workload.as_str() {
        "sweep90" => sweep90::run(&options),
        "synth-matrix" => synth_matrix::run(&options),
        "serve-store" => serve_store::run(&options),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    emit(&outcome, stamp(&workload, &options, &outcome.sizes));
}
