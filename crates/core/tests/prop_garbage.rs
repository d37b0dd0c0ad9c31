//! Property: the two text parsers that take input off the wire — the
//! `.litmus` parser and `mcm_core::json` — answer garbage with `Ok` or
//! `Err`, never a panic or a stack overflow. Random bytes, token soup
//! built from each grammar's own vocabulary, `+`/`-` chains around the
//! expression term cap, and JSON nesting around the depth cap.

use mcm_core::json::{Json, MAX_DEPTH};
use mcm_core::parse::{parse_litmus_file, MAX_EXPR_TERMS};
use proptest::prelude::*;

/// Tokens of the `.litmus` grammar, plus a few near misses.
const LITMUS_TOKENS: &[&str] = &[
    "test",
    "thread",
    "outcome",
    "write",
    "read",
    "fence",
    "op",
    "branch",
    "{",
    "}",
    "[",
    "]",
    "(",
    ")",
    "=",
    "->",
    "-",
    "+",
    "&",
    ".",
    ":",
    ";",
    "#",
    "\n",
    " ",
    "\"",
    "\"desc\"",
    "X",
    "Y",
    "Z",
    "W",
    "L7",
    "L999",
    "r1",
    "r2",
    "r0",
    "T1",
    "T2",
    "T0",
    "f2",
    "fx",
    "0",
    "1",
    "-1",
    "99999999999999999999",
    "T1:r1",
    "wibble",
    "é",
    "\t",
];

/// Tokens of JSON, plus a few near misses.
const JSON_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\"a\"",
    "\"\\u12\"",
    "\"\\ud800\"",
    "\"\\n\"",
    "0",
    "-",
    "-0.5e3",
    "1e999",
    "01",
    "true",
    "tru",
    "null",
    "false",
    " ",
    "\n",
    "\\",
    "é",
];

fn soup(tokens: &'static [&'static str], len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..tokens.len(), 0..=len)
        .prop_map(move |picks| picks.into_iter().map(|i| tokens[i]).collect())
}

/// One thread whose `op`, `write` and `branch` each carry a chain of
/// `terms` terms joined by `+`/`-` as `signs` says (cycled).
fn chain_test(terms: usize, signs: &[bool]) -> String {
    let mut expr = String::from("1");
    for i in 1..terms {
        expr.push_str(if signs[i % signs.len()] { " + " } else { " - " });
        expr.push_str(if i % 3 == 0 { "r1" } else { "2" });
    }
    format!(
        "test Chain {{\n  thread {{\n    read X -> r1\n    op r2 = {expr}\n    write Y = {expr}\n    branch {expr}\n  }}\n  outcome {{ T1:r1 = 0 }}\n}}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic_either_parser(
        bytes in proptest::collection::vec(0u8..=255, 0..=512),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_litmus_file(&text);
        let _ = Json::parse(&text);
    }

    #[test]
    fn litmus_token_soup_is_ok_or_err(text in soup(LITMUS_TOKENS, 80)) {
        let _ = parse_litmus_file(&text);
        let wrapped = format!("test S {{ thread {{ {text} }} outcome {{ {text} }} }}");
        let _ = parse_litmus_file(&wrapped);
    }

    #[test]
    fn json_token_soup_is_ok_or_err(text in soup(JSON_TOKENS, 80)) {
        let _ = Json::parse(&text);
        let _ = Json::parse(&format!("{{\"a\": [{text}]}}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn expression_chains_parse_exactly_up_to_the_term_cap(
        terms in (MAX_EXPR_TERMS - 3)..=(MAX_EXPR_TERMS + 3),
        signs in proptest::collection::vec(proptest::bool::ANY, 1..=5),
    ) {
        let parsed = parse_litmus_file(&chain_test(terms, &signs));
        prop_assert_eq!(parsed.is_ok(), terms <= MAX_EXPR_TERMS, "{} terms: {:?}", terms, parsed.err());
    }

    #[test]
    fn chains_far_past_the_term_cap_are_errors(
        terms in 1_000usize..=60_000,
        signs in proptest::collection::vec(proptest::bool::ANY, 1..=5),
    ) {
        let err = parse_litmus_file(&chain_test(terms, &signs)).unwrap_err();
        prop_assert!(err.to_string().contains("terms"), "{}", err);
    }

    #[test]
    fn json_nesting_parses_exactly_up_to_the_depth_cap(
        depth in (MAX_DEPTH - 3)..=(MAX_DEPTH + 3),
        objects in proptest::collection::vec(proptest::bool::ANY, 1..=4),
    ) {
        let mut text = String::new();
        for level in 0..depth {
            text.push_str(if objects[level % objects.len()] { "{\"k\": " } else { "[" });
        }
        text.push('0');
        for level in (0..depth).rev() {
            text.push(if objects[level % objects.len()] { '}' } else { ']' });
        }
        let parsed = Json::parse(&text);
        prop_assert_eq!(parsed.is_ok(), depth <= MAX_DEPTH, "depth {}: {:?}", depth, parsed.err());
    }

    #[test]
    fn json_nesting_far_past_the_depth_cap_is_an_error(depth in 1_000usize..=100_000) {
        let text = "[".repeat(depth) + &"]".repeat(depth);
        prop_assert!(Json::parse(&text).is_err());
    }
}
