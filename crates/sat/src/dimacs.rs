//! DIMACS CNF reading and writing.
//!
//! The paper stores simplified instances as `*.dimacs` so any SAT
//! solver can be swapped in; this module provides the same interchange
//! point.

use crate::{Cnf, Lit};
use std::fmt;
use std::io::{self, BufRead, Write};

/// Error produced when parsing malformed DIMACS input.
#[derive(Debug)]
pub enum DimacsError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Syntax problem, with a human-readable description.
    Syntax(String),
}

impl fmt::Display for DimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimacsError::Io(e) => write!(f, "dimacs io error: {e}"),
            DimacsError::Syntax(s) => write!(f, "dimacs syntax error: {s}"),
        }
    }
}

impl std::error::Error for DimacsError {}

impl From<io::Error> for DimacsError {
    fn from(e: io::Error) -> Self {
        DimacsError::Io(e)
    }
}

/// Writes `cnf` in DIMACS format.
///
/// # Errors
///
/// Returns any I/O error from `out`.
pub fn write<W: Write>(cnf: &Cnf, out: &mut W) -> io::Result<()> {
    writeln!(out, "p cnf {} {}", cnf.num_vars(), cnf.num_clauses())?;
    for clause in cnf {
        for lit in clause {
            write!(out, "{} ", lit.to_dimacs())?;
        }
        writeln!(out, "0")?;
    }
    Ok(())
}

/// Renders `cnf` as a DIMACS string.
#[expect(clippy::expect_used, reason = "Vec writes never fail; DIMACS is ASCII")]
pub fn to_string(cnf: &Cnf) -> String {
    let mut buf = Vec::new();
    write(cnf, &mut buf).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("dimacs output is ascii")
}

/// Parses a DIMACS CNF.
///
/// Comment lines (`c ...`) and the problem line are accepted; literals
/// may span lines; each clause ends with `0`.
///
/// # Errors
///
/// Returns [`DimacsError`] on I/O failure or malformed input.
pub fn parse<R: BufRead>(input: R) -> Result<Cnf, DimacsError> {
    let mut cnf = Cnf::new(0);
    let mut declared_vars = 0usize;
    let mut seen_header = false;
    let mut current: Vec<Lit> = Vec::new();
    for line in input.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            if seen_header {
                return Err(DimacsError::Syntax("duplicate problem line".into()));
            }
            seen_header = true;
            let mut parts = rest.split_whitespace();
            if parts.next() != Some("cnf") {
                return Err(DimacsError::Syntax("expected 'p cnf'".into()));
            }
            declared_vars = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| DimacsError::Syntax("bad variable count".into()))?;
            // The clause count is not used for parsing (clauses are
            // `0`-terminated) but a malformed one means the header was
            // not written by a DIMACS emitter — reject it.
            let _: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| DimacsError::Syntax("bad clause count".into()))?;
            if let Some(extra) = parts.next() {
                return Err(DimacsError::Syntax(format!(
                    "trailing token {extra:?} after problem line"
                )));
            }
            continue;
        }
        for tok in line.split_whitespace() {
            let d: i64 = tok
                .parse()
                .map_err(|_| DimacsError::Syntax(format!("bad literal {tok:?}")))?;
            if d == 0 {
                cnf.add_clause(current.drain(..));
            } else {
                current.push(Lit::from_dimacs(d));
            }
        }
    }
    if !current.is_empty() {
        return Err(DimacsError::Syntax("unterminated clause".into()));
    }
    cnf.ensure_vars(declared_vars);
    Ok(cnf)
}

/// Parses a DIMACS CNF from a string.
///
/// # Errors
///
/// Returns [`DimacsError`] on malformed input.
pub fn parse_str(s: &str) -> Result<Cnf, DimacsError> {
    parse(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    #[test]
    fn roundtrip() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause([Lit::pos(Var(0)), Lit::neg(Var(2))]);
        cnf.add_clause([Lit::neg(Var(1))]);
        let text = to_string(&cnf);
        let back = parse_str(&text).unwrap();
        assert_eq!(back, cnf);
    }

    #[test]
    fn parses_comments_and_multiline_clauses() {
        let text = "c hello\np cnf 3 2\n1 -3\n0\n-2 0\n";
        let cnf = parse_str(text).unwrap();
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(
            cnf.iter().next(),
            Some(&[Lit::pos(Var(0)), Lit::neg(Var(2))][..])
        );
    }

    #[test]
    fn rejects_unterminated() {
        assert!(parse_str("p cnf 1 1\n1").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_str("p cnf 1 1\nxyz 0").is_err());
        assert!(parse_str("p dnf 1 1\n").is_err());
    }

    #[test]
    fn rejects_malformed_headers() {
        assert!(parse_str("p cnf x 1\n1 0\n").is_err(), "bad variable count");
        assert!(parse_str("p cnf 1\n1 0\n").is_err(), "missing clause count");
        assert!(parse_str("p cnf 1 y\n1 0\n").is_err(), "bad clause count");
        assert!(
            parse_str("p cnf 1 1 extra\n1 0\n").is_err(),
            "trailing token"
        );
        assert!(
            parse_str("p cnf 1 1\n1 0\np cnf 1 1\n").is_err(),
            "duplicate problem line"
        );
    }

    #[test]
    fn declared_vars_respected() {
        let cnf = parse_str("p cnf 10 1\n1 0\n").unwrap();
        assert_eq!(cnf.num_vars(), 10);
    }
}
