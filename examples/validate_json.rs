//! Validates `mcm --format json` output with the in-tree parser — the
//! CI `json-smoke` job pipes CLI documents through this.
//!
//! Usage: `cargo run --example validate_json -- FILE [FILE ...]`
//! Exits nonzero if any file fails to parse, lacks the schema envelope,
//! or does not survive an emit/parse round trip. Report documents must
//! also be byte-identical to the DOM's pretty rendering, which pins
//! every streamed writer (the sweep's verdict matrix) to the one
//! formatter; Chrome traces (`kind=trace`) are written one event per
//! line and are exempt from that check.

use litmus_mcm::core::json::Json;

fn validate(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{path}: missing schema_version"))?;
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: missing kind"))?
        .to_string();
    let round_tripped = Json::parse(&doc.pretty())
        .map_err(|e| format!("{path}: emitted document failed to re-parse: {e}"))?;
    if round_tripped != doc {
        return Err(format!("{path}: document changed across a round trip"));
    }
    if kind != "trace" && text != doc.pretty() {
        return Err(format!(
            "{path}: text differs from the pretty rendering of its own document"
        ));
    }
    Ok(format!(
        "{path}: ok (kind={kind}, schema_version={version}, {} bytes)",
        text.len()
    ))
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_json FILE [FILE ...]");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        match validate(path) {
            Ok(summary) => println!("{summary}"),
            Err(message) => {
                eprintln!("error: {message}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
