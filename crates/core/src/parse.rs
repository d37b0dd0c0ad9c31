//! A small text format for litmus tests.
//!
//! The CLI and the test corpus use this grammar:
//!
//! ```text
//! test SB "store buffering" {
//!   thread {
//!     write X = 1
//!     read Y -> r1
//!   }
//!   thread {
//!     write Y = 1
//!     read X -> r2
//!   }
//!   outcome { T1:r1 = 0; T2:r2 = 0 }
//! }
//! ```
//!
//! Instructions: `write <addr> = <expr>`, `read <addr> -> rN`, `fence`,
//! `fence.fK`, `op rN = <expr>`, `branch <expr>`. Addresses are location
//! names (`X`, `Y`, `Z`, `W`, `L9`) or register-indirect (`[r1]`).
//! Expressions support `+`, `-`, integers, registers and `&Loc` (the
//! address of a location). Statements are separated by newlines or `;`.

use std::error::Error;
use std::fmt;

use crate::execution::Outcome;
use crate::ids::{Loc, Reg, ThreadId, Value};
use crate::instr::{AddrExpr, FenceKind, Instruction, RegExpr};
use crate::litmus::LitmusTest;
use crate::program::{Program, Thread};

/// Error produced by the litmus parser.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    line: usize,
    message: String,
}

impl ParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            message: message.into(),
        }
    }

    /// One-based line number of the error.
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Number(i64),
    Str(String),
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Eq,
    Arrow,
    Plus,
    Minus,
    Amp,
    Colon,
    Dot,
    /// Statement separator (newline or `;`).
    Sep,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Number(n) => write!(f, "`{n}`"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Amp => write!(f, "`&`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Sep => write!(f, "end of statement"),
        }
    }
}

fn tokenize(text: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                out.push((Tok::Sep, line - 1));
                chars.next();
            }
            ';' => {
                out.push((Tok::Sep, line));
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                // Comment to end of line.
                while let Some(&c) = chars.peek() {
                    if c == '\n' {
                        break;
                    }
                    chars.next();
                }
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\n') | None => {
                            return Err(ParseError::new(line, "unterminated string"))
                        }
                        Some(c) => s.push(c),
                    }
                }
                out.push((Tok::Str(s), line));
            }
            '{' => {
                out.push((Tok::LBrace, line));
                chars.next();
            }
            '}' => {
                out.push((Tok::RBrace, line));
                chars.next();
            }
            '[' => {
                out.push((Tok::LBracket, line));
                chars.next();
            }
            ']' => {
                out.push((Tok::RBracket, line));
                chars.next();
            }
            '=' => {
                out.push((Tok::Eq, line));
                chars.next();
            }
            '+' => {
                out.push((Tok::Plus, line));
                chars.next();
            }
            '&' => {
                out.push((Tok::Amp, line));
                chars.next();
            }
            ':' => {
                out.push((Tok::Colon, line));
                chars.next();
            }
            '.' => {
                out.push((Tok::Dot, line));
                chars.next();
            }
            ',' => {
                out.push((Tok::Sep, line));
                chars.next();
            }
            '-' => {
                chars.next();
                if chars.peek() == Some(&'>') {
                    chars.next();
                    out.push((Tok::Arrow, line));
                } else {
                    out.push((Tok::Minus, line));
                }
            }
            c if c.is_ascii_digit() => {
                let mut n = 0i64;
                while let Some(&d) = chars.peek() {
                    if let Some(digit) = d.to_digit(10) {
                        n = n
                            .checked_mul(10)
                            .and_then(|n| n.checked_add(i64::from(digit)))
                            .ok_or_else(|| ParseError::new(line, "integer overflow"))?;
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((Tok::Number(n), line));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((Tok::Ident(s), line));
            }
            other => {
                return Err(ParseError::new(line, format!("unexpected character `{other}`")))
            }
        }
    }
    Ok(out)
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |(_, l)| *l)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn skip_seps(&mut self) {
        while self.peek() == Some(&Tok::Sep) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: &Tok) -> Result<(), ParseError> {
        let line = self.line();
        match self.next() {
            Some(ref t) if t == want => Ok(()),
            Some(t) => Err(ParseError::new(line, format!("expected {want}, found {t}"))),
            None => Err(ParseError::new(line, format!("expected {want}, found end of input"))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let line = self.line();
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(t) => Err(ParseError::new(line, format!("expected identifier, found {t}"))),
            None => Err(ParseError::new(line, "expected identifier, found end of input")),
        }
    }

    fn reg(&mut self) -> Result<Reg, ParseError> {
        let line = self.line();
        let name = self.ident()?;
        parse_reg(&name).ok_or_else(|| ParseError::new(line, format!("`{name}` is not a register (expected rN)")))
    }
}

fn parse_reg(name: &str) -> Option<Reg> {
    let rest = name.strip_prefix('r')?;
    let n: u8 = rest.parse().ok()?;
    Some(Reg(n))
}

fn parse_loc(name: &str) -> Option<Loc> {
    match name {
        "X" => Some(Loc::X),
        "Y" => Some(Loc::Y),
        "Z" => Some(Loc::Z),
        "W" => Some(Loc::W),
        _ => {
            let rest = name.strip_prefix('L')?;
            let n: u8 = rest.parse().ok()?;
            Some(Loc(n))
        }
    }
}

/// Term cap of one `+`/`-` expression. The parser builds a left-deep
/// [`RegExpr`] chain, nested once per term, and everything downstream
/// (evaluation, printing, drop) recurses over it: an unbounded chain in
/// adversarial input would exhaust the stack.
pub const MAX_EXPR_TERMS: usize = 64;

fn parse_expr(p: &mut Parser) -> Result<RegExpr, ParseError> {
    let line = p.line();
    let mut lhs = parse_term(p)?;
    let mut terms = 1;
    loop {
        let op = match p.peek() {
            Some(Tok::Plus) => RegExpr::Add,
            Some(Tok::Minus) => RegExpr::Sub,
            _ => return Ok(lhs),
        };
        terms += 1;
        if terms > MAX_EXPR_TERMS {
            return Err(ParseError::new(
                line,
                format!("expression has more than {MAX_EXPR_TERMS} terms"),
            ));
        }
        p.next();
        let rhs = parse_term(p)?;
        lhs = op(Box::new(lhs), Box::new(rhs));
    }
}

fn parse_term(p: &mut Parser) -> Result<RegExpr, ParseError> {
    let line = p.line();
    match p.next() {
        Some(Tok::Number(n)) => Ok(RegExpr::Const(Value(n))),
        Some(Tok::Minus) => match p.next() {
            Some(Tok::Number(n)) => Ok(RegExpr::Const(Value(-n))),
            _ => Err(ParseError::new(line, "expected number after unary minus")),
        },
        Some(Tok::Amp) => {
            let name = p.ident()?;
            parse_loc(&name)
                .map(RegExpr::LocAddr)
                .ok_or_else(|| ParseError::new(line, format!("`{name}` is not a location")))
        }
        Some(Tok::Ident(name)) => parse_reg(&name)
            .map(RegExpr::Reg)
            .ok_or_else(|| ParseError::new(line, format!("`{name}` is not a register"))),
        Some(t) => Err(ParseError::new(line, format!("expected expression, found {t}"))),
        None => Err(ParseError::new(line, "expected expression, found end of input")),
    }
}

fn parse_addr(p: &mut Parser) -> Result<AddrExpr, ParseError> {
    let line = p.line();
    match p.peek() {
        Some(Tok::LBracket) => {
            p.next();
            let reg = p.reg()?;
            p.expect(&Tok::RBracket)?;
            Ok(AddrExpr::Reg(reg))
        }
        _ => {
            let name = p.ident()?;
            parse_loc(&name)
                .map(AddrExpr::Loc)
                .ok_or_else(|| ParseError::new(line, format!("`{name}` is not a location")))
        }
    }
}

fn parse_instruction(p: &mut Parser, keyword: &str) -> Result<Instruction, ParseError> {
    let line = p.line();
    match keyword {
        "write" => {
            let addr = parse_addr(p)?;
            p.expect(&Tok::Eq)?;
            let val = parse_expr(p)?;
            Ok(Instruction::Write { addr, val })
        }
        "read" => {
            let addr = parse_addr(p)?;
            p.expect(&Tok::Arrow)?;
            let dst = p.reg()?;
            Ok(Instruction::Read { addr, dst })
        }
        "fence" => {
            if p.peek() == Some(&Tok::Dot) {
                p.next();
                let name = p.ident()?;
                let flavour = name
                    .strip_prefix('f')
                    .and_then(|rest| rest.parse::<u8>().ok())
                    .ok_or_else(|| {
                        ParseError::new(line, format!("`{name}` is not a fence flavour (expected fN)"))
                    })?;
                Ok(Instruction::Fence(FenceKind::Special(flavour)))
            } else {
                Ok(Instruction::Fence(FenceKind::Full))
            }
        }
        "op" => {
            let dst = p.reg()?;
            p.expect(&Tok::Eq)?;
            let expr = parse_expr(p)?;
            Ok(Instruction::Op { dst, expr })
        }
        "branch" => {
            let cond = parse_expr(p)?;
            Ok(Instruction::Branch { cond })
        }
        other => Err(ParseError::new(
            line,
            format!("unknown instruction `{other}` (expected write/read/fence/op/branch)"),
        )),
    }
}

fn parse_thread(p: &mut Parser) -> Result<Thread, ParseError> {
    p.expect(&Tok::LBrace)?;
    let mut instructions = Vec::new();
    loop {
        p.skip_seps();
        match p.peek() {
            Some(Tok::RBrace) => {
                p.next();
                return Ok(Thread { instructions });
            }
            Some(Tok::Ident(_)) => {
                let kw = p.ident()?;
                instructions.push(parse_instruction(p, &kw)?);
            }
            _ => {
                let line = p.line();
                return Err(ParseError::new(line, "expected instruction or `}` in thread body"));
            }
        }
    }
}

fn parse_outcome(p: &mut Parser) -> Result<Outcome, ParseError> {
    p.expect(&Tok::LBrace)?;
    let mut outcome = Outcome::new();
    loop {
        p.skip_seps();
        match p.peek() {
            Some(Tok::RBrace) => {
                p.next();
                return Ok(outcome);
            }
            _ => {
                let line = p.line();
                let tname = p.ident()?;
                let thread = tname
                    .strip_prefix('T')
                    .and_then(|rest| rest.parse::<u8>().ok())
                    .filter(|n| *n >= 1)
                    .map(|n| ThreadId(n - 1))
                    .ok_or_else(|| {
                        ParseError::new(line, format!("`{tname}` is not a thread (expected TN)"))
                    })?;
                p.expect(&Tok::Colon)?;
                let reg = p.reg()?;
                p.expect(&Tok::Eq)?;
                let value = match p.next() {
                    Some(Tok::Number(n)) => Value(n),
                    Some(Tok::Minus) => match p.next() {
                        Some(Tok::Number(n)) => Value(-n),
                        _ => return Err(ParseError::new(line, "expected number")),
                    },
                    _ => return Err(ParseError::new(line, "expected outcome value")),
                };
                outcome = outcome.constrain(thread, reg, value);
            }
        }
    }
}

fn parse_test(p: &mut Parser) -> Result<LitmusTest, ParseError> {
    let header_line = p.line();
    let kw = p.ident()?;
    if kw != "test" {
        return Err(ParseError::new(header_line, format!("expected `test`, found `{kw}`")));
    }
    // Test names are identifiers, or quoted strings for generated names
    // like `c1[rw-adj-diff]`.
    let name = match p.peek() {
        Some(Tok::Str(_)) => match p.next() {
            Some(Tok::Str(s)) => s,
            _ => unreachable!("peeked a string"),
        },
        _ => p.ident()?,
    };
    let description = if let Some(Tok::Str(_)) = p.peek() {
        match p.next() {
            Some(Tok::Str(s)) => Some(s),
            _ => unreachable!("peeked a string"),
        }
    } else {
        None
    };
    p.expect(&Tok::LBrace)?;
    let mut threads = Vec::new();
    let mut outcome = None;
    loop {
        p.skip_seps();
        match p.peek() {
            Some(Tok::RBrace) => {
                p.next();
                break;
            }
            Some(Tok::Ident(id)) if id == "thread" => {
                p.next();
                threads.push(parse_thread(p)?);
            }
            Some(Tok::Ident(id)) if id == "outcome" => {
                p.next();
                if outcome.is_some() {
                    return Err(ParseError::new(p.line(), "duplicate outcome block"));
                }
                outcome = Some(parse_outcome(p)?);
            }
            _ => {
                return Err(ParseError::new(
                    p.line(),
                    "expected `thread`, `outcome` or `}` in test body",
                ))
            }
        }
    }
    let program = Program { threads };
    let outcome = outcome.unwrap_or_default();
    let test = LitmusTest::new(name, program, outcome)
        .map_err(|e| ParseError::new(header_line, e.to_string()))?;
    Ok(match description {
        Some(d) => test.with_description(d),
        None => test,
    })
}

/// Parses a single litmus test.
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors or if the test fails semantic
/// validation (see [`LitmusTest::new`]).
pub fn parse_litmus(text: &str) -> Result<LitmusTest, ParseError> {
    let mut tests = parse_litmus_file(text)?;
    match tests.len() {
        1 => Ok(tests.remove(0)),
        n => Err(ParseError::new(1, format!("expected exactly one test, found {n}"))),
    }
}

/// Parses a file containing any number of litmus tests.
///
/// # Errors
///
/// Returns [`ParseError`] as for [`parse_litmus`].
pub fn parse_litmus_file(text: &str) -> Result<Vec<LitmusTest>, ParseError> {
    let toks = tokenize(text)?;
    let mut p = Parser { toks, pos: 0 };
    let mut tests = Vec::new();
    loop {
        p.skip_seps();
        if p.peek().is_none() {
            return Ok(tests);
        }
        tests.push(parse_test(&mut p)?);
    }
}

/// Renders a test in the grammar accepted by [`parse_litmus`] (round-trip).
#[must_use]
pub fn to_source(test: &LitmusTest) -> String {
    let mut out = String::new();
    let plain = !test.name().is_empty()
        && test
            .name()
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_')
        && test
            .name()
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_');
    if plain {
        out.push_str(&format!("test {}", test.name()));
    } else {
        out.push_str(&format!("test \"{}\"", test.name()));
    }
    if !test.description().is_empty() {
        out.push_str(&format!(" \"{}\"", test.description()));
    }
    out.push_str(" {\n");
    for thread in &test.program().threads {
        out.push_str("  thread {\n");
        for instr in &thread.instructions {
            out.push_str(&format!("    {instr}\n"));
        }
        out.push_str("  }\n");
    }
    out.push_str("  outcome { ");
    let parts: Vec<String> = test
        .outcome()
        .constraints()
        .iter()
        .map(|(t, r, v)| format!("{t}:{r} = {v}"))
        .collect();
    out.push_str(&parts.join("; "));
    out.push_str(" }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SB: &str = r#"
test SB "store buffering" {
  thread {
    write X = 1
    read Y -> r1
  }
  thread {
    write Y = 1
    read X -> r2
  }
  outcome { T1:r1 = 0; T2:r2 = 0 }
}
"#;

    #[test]
    fn parses_store_buffering() {
        let test = parse_litmus(SB).unwrap();
        assert_eq!(test.name(), "SB");
        assert_eq!(test.description(), "store buffering");
        assert_eq!(test.program().threads.len(), 2);
        assert_eq!(test.program().access_count(), 4);
        assert_eq!(test.outcome().len(), 2);
    }

    #[test]
    fn parses_dependencies_and_indirection() {
        let src = r#"
test L4ish {
  thread {
    read Y -> r1
    op r2 = r1 - r1 + &X
    read [r2] -> r3
    branch r3
    fence.f2
  }
  outcome { T1:r1 = 0; T1:r3 = 0 }
}
"#;
        let test = parse_litmus(src).unwrap();
        let instrs = &test.program().threads[0].instructions;
        assert_eq!(instrs.len(), 5);
        assert!(matches!(instrs[2], Instruction::Read { addr: AddrExpr::Reg(Reg(2)), .. }));
        assert!(matches!(instrs[4], Instruction::Fence(FenceKind::Special(2))));
    }

    #[test]
    fn round_trips_through_to_source() {
        let test = parse_litmus(SB).unwrap();
        let src = to_source(&test);
        let reparsed = parse_litmus(&src).unwrap();
        assert_eq!(&reparsed, &test);
    }

    #[test]
    fn comments_and_semicolons_are_accepted() {
        let src = "test T { # header comment\n thread { write X = 1; read Y -> r1 }\n outcome { T1:r1 = 0 } }";
        let test = parse_litmus(src).unwrap();
        assert_eq!(test.program().access_count(), 2);
    }

    #[test]
    fn multiple_tests_in_one_file() {
        let two = format!("{SB}\n{}", SB.replace("SB", "SB2"));
        let tests = parse_litmus_file(&two).unwrap();
        assert_eq!(tests.len(), 2);
        assert!(parse_litmus(&two).is_err());
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let src = "test Bad {\n  thread {\n    wibble X = 1\n  }\n}";
        let err = parse_litmus(src).unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(err.to_string().contains("wibble"));
    }

    #[test]
    fn semantic_errors_surface_as_parse_errors() {
        // Read without an outcome constraint.
        let src = "test Bad {\n  thread { read X -> r1 }\n  outcome { }\n}";
        let err = parse_litmus(src).unwrap_err();
        assert!(err.to_string().contains("not constrained"));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(parse_litmus("test A \"oops {\n}").is_err());
    }

    #[test]
    fn expression_term_cap() {
        let program = |terms: usize| {
            let expr = vec!["1"; terms].join(" + ");
            format!(
                "test Long {{\n  thread {{\n    op r1 = {expr}\n    write X = {expr}\n    branch {expr}\n  }}\n  outcome {{ }}\n}}"
            )
        };
        parse_litmus(&program(MAX_EXPR_TERMS)).unwrap();
        let err = parse_litmus(&program(MAX_EXPR_TERMS + 1)).unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(err.to_string().contains("more than 64 terms"), "{err}");
    }

    #[test]
    fn negative_values_parse() {
        let src = "test Neg {\n  thread { write X = -3\n read X -> r1 }\n  outcome { T1:r1 = -3 }\n}";
        let test = parse_litmus(src).unwrap();
        assert_eq!(test.outcome().constraints()[0].2, Value(-3));
    }
}
