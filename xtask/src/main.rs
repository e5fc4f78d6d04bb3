//! `cargo run -p xtask -- lint` — token-level source lint for the
//! workspace's library crates.
//!
//! Three rules, all scoped to hand-written library code (`crates/*/src`
//! and the facade `src/lib.rs`; binaries under `src/bin/`, integration
//! tests, benches, vendored shims, and inline `#[cfg(test)]` modules
//! are exempt):
//!
//! * `no-panic` — forbids `.unwrap()`, `.expect(` and `panic!(`.
//!   Library code reports errors through `Result`/`Option` or asserts a
//!   named invariant; every deliberate panic site must carry a
//!   `// lint:allow(no-panic)` escape explaining itself by adjacency.
//! * `hot-path-alloc` — forbids `Vec::new`, `format!` and `.clone()`
//!   inside regions bracketed by `// lint:hot-path` ...
//!   `// lint:hot-path-end`. The solver's propagate/analyze inner loops
//!   are marked; an allocation there is a performance bug, not a style
//!   choice.
//! * `no-std-hashmap` — forbids `HashMap` in `crates/sat/src/solver*`
//!   sources and the proof checker `crates/sat/src/proof.rs`. std's
//!   SipHash default is measurably slow for their u32 keys; hot
//!   structures use indexed `Vec`s instead. Cold diagnostic code opts
//!   out with `// lint:allow(no-std-hashmap)`.
//!
//! An escape comment suppresses a rule on its own line or, when the
//! line is pure comment, on the next source line. Escapes name the rule
//! (`// lint:allow(no-panic)`), so a reviewer greps for exactly the
//! sites that were judged acceptable.
//!
//! The scanner is deliberately token-level, not syntactic: it strips
//! comments and string/char literals with a small state machine, tracks
//! `#[cfg(test)] mod` regions by brace depth, and substring-matches the
//! forbidden tokens on what remains. That is crude but dependency-free,
//! fast (whole workspace in milliseconds), and has no false positives
//! on this codebase by construction — the unit tests below pin the
//! corner cases (strings containing `panic!`, raw strings, nested test
//! modules, escape placement).

#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop(); // xtask/ -> workspace root
    let mut iter = args.iter();
    let mut cmd = None;
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--root" => match iter.next() {
                Some(r) => root = PathBuf::from(r),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "lint" if cmd.is_none() => cmd = Some("lint"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: cargo run -p xtask -- lint [--root <dir>]");
                return ExitCode::from(2);
            }
        }
    }
    if cmd != Some("lint") {
        eprintln!("usage: cargo run -p xtask -- lint [--root <dir>]");
        return ExitCode::from(2);
    }

    let files = collect_sources(&root);
    if files.is_empty() {
        eprintln!("xtask lint: no sources found under {}", root.display());
        return ExitCode::from(2);
    }
    let mut findings = Vec::new();
    for path in &files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask lint: read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let label = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .display()
            .to_string();
        findings.extend(lint_source(&label, &source));
    }
    if findings.is_empty() {
        println!("xtask lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!(
            "xtask lint: {} finding(s) in {} files",
            findings.len(),
            files.len()
        );
        ExitCode::FAILURE
    }
}

/// Library sources to lint: `crates/*/src/**/*.rs` minus `src/bin/`,
/// plus the facade `src/lib.rs`. Vendored shims, integration tests and
/// benches live outside these roots and are never visited.
fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                walk(&src, &mut out);
            }
        }
    }
    let facade = root.join("src/lib.rs");
    if facade.is_file() {
        out.push(facade);
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // `src/bin/` holds binaries (bench drivers), not library
            // code; the no-panic contract does not apply there.
            if path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    token: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] forbidden token `{}` (escape with // lint:allow({}))",
            self.file, self.line, self.rule, self.token, self.rule
        )
    }
}

const NO_PANIC: &str = "no-panic";
const HOT_PATH_ALLOC: &str = "hot-path-alloc";
const NO_STD_HASHMAP: &str = "no-std-hashmap";

const PANIC_TOKENS: [&str; 3] = [".unwrap()", ".expect(", "panic!("];
const ALLOC_TOKENS: [&str; 3] = ["Vec::new", "format!", ".clone()"];

/// Scan one file. `label` is the path reported in findings; rule
/// applicability keys off it (the `no-std-hashmap` rule only covers the
/// solver and proof-checker sources).
fn lint_source(label: &str, source: &str) -> Vec<Finding> {
    let solver_scope = label.contains("sat/src/solver") || label.contains("sat/src/proof.rs");
    let mut findings = Vec::new();
    let mut strip = Stripper::default();
    // Depth of the brace-counted `#[cfg(test)]` region being skipped
    // (None when outside one), plus the armed state between the
    // attribute line and the `{` that opens the module.
    let mut test_region: Option<usize> = None;
    let mut test_armed = false;
    let mut hot_path = false;
    let mut allow_next: Vec<&'static str> = Vec::new();

    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let code = strip.strip_line(raw_line);

        // Directives live in comments, which the stripper removes —
        // read them from the raw line. A directive on a pure-comment
        // line applies to the next source line.
        let mut allow_here = std::mem::take(&mut allow_next);
        for rule in [NO_PANIC, HOT_PATH_ALLOC, NO_STD_HASHMAP] {
            let directive = format!("lint:allow({rule})");
            if raw_line.contains(&directive) {
                allow_here.push(rule);
                if code.trim().is_empty() {
                    allow_next.push(rule);
                }
            }
        }
        if raw_line.contains("lint:hot-path-end") {
            hot_path = false;
        } else if raw_line.contains("lint:hot-path") {
            hot_path = true;
        }

        // `#[cfg(test)]` opens a skip region at the next `{` (the test
        // module body); everything inside is exempt from all rules.
        if code.contains("#[cfg(test)]") {
            test_armed = true;
        }
        let opens = code.matches('{').count();
        let closes = code.matches('}').count();
        if let Some(depth) = test_region.as_mut() {
            *depth += opens;
            *depth = depth.saturating_sub(closes);
            if *depth == 0 {
                test_region = None;
            }
            continue;
        }
        if test_armed && opens > 0 {
            test_armed = false;
            let depth = opens - closes;
            if depth > 0 {
                test_region = Some(depth);
            }
            continue;
        }
        if test_armed {
            continue; // between the attribute and the opening brace
        }

        let mut report = |rule: &'static str, token: &'static str| {
            if !allow_here.contains(&rule) {
                findings.push(Finding {
                    file: label.to_string(),
                    line: line_no,
                    rule,
                    token,
                });
            }
        };
        for token in PANIC_TOKENS {
            if code.contains(token) {
                report(NO_PANIC, token);
            }
        }
        if hot_path {
            for token in ALLOC_TOKENS {
                if code.contains(token) {
                    report(HOT_PATH_ALLOC, token);
                }
            }
        }
        if solver_scope && code.contains("HashMap") {
            report(NO_STD_HASHMAP, "HashMap");
        }
    }
    findings
}

/// Removes comments and string/char literal *contents* from source
/// lines so token matching never fires inside them. Block comments and
/// (non-`#` / single-`#`) raw strings carry state across lines.
#[derive(Default)]
struct Stripper {
    in_block_comment: usize,
    in_string: Option<StringKind>,
}

#[derive(Clone, Copy, PartialEq)]
enum StringKind {
    Normal,
    Raw { hashes: usize },
}

impl Stripper {
    fn strip_line(&mut self, line: &str) -> String {
        let b = line.as_bytes();
        let mut out = String::with_capacity(line.len());
        let mut i = 0;
        while i < b.len() {
            if self.in_block_comment > 0 {
                if b[i..].starts_with(b"*/") {
                    self.in_block_comment -= 1;
                    i += 2;
                } else if b[i..].starts_with(b"/*") {
                    self.in_block_comment += 1;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            if let Some(kind) = self.in_string {
                match kind {
                    StringKind::Normal => {
                        if b[i] == b'\\' {
                            i += 2;
                        } else if b[i] == b'"' {
                            self.in_string = None;
                            out.push('"');
                            i += 1;
                        } else {
                            i += 1;
                        }
                    }
                    StringKind::Raw { hashes } => {
                        if b[i] == b'"'
                            && b[i + 1..].iter().take_while(|&&c| c == b'#').count() >= hashes
                        {
                            self.in_string = None;
                            out.push('"');
                            i += 1 + hashes;
                        } else {
                            i += 1;
                        }
                    }
                }
                continue;
            }
            if b[i..].starts_with(b"//") {
                break; // line comment: drop the rest
            }
            if b[i..].starts_with(b"/*") {
                self.in_block_comment += 1;
                i += 2;
                continue;
            }
            if b[i] == b'"' {
                self.in_string = Some(StringKind::Normal);
                out.push('"');
                i += 1;
                continue;
            }
            if b[i] == b'r' {
                let rest = &b[i + 1..];
                let hashes = rest.iter().take_while(|&&c| c == b'#').count();
                if rest.get(hashes) == Some(&b'"') {
                    self.in_string = Some(StringKind::Raw { hashes });
                    out.push('"');
                    i += 2 + hashes;
                    continue;
                }
            }
            if b[i] == b'\'' {
                // Char literal (`'a'`, `'\n'`) vs lifetime (`'a`): a
                // literal closes with a quote within a few bytes.
                let close = if b.get(i + 1) == Some(&b'\\') {
                    b[i + 2..]
                        .iter()
                        .position(|&c| c == b'\'')
                        .map(|p| i + 3 + p)
                } else if b.get(i + 2) == Some(&b'\'') {
                    Some(i + 2)
                } else {
                    None
                };
                if let Some(end) = close {
                    out.push('\'');
                    out.push('\'');
                    i = end + 1;
                    continue;
                }
            }
            out.push(b[i] as char);
            i += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(src: &str) -> Vec<(&'static str, usize)> {
        lint_source("crates/demo/src/lib.rs", src)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn flags_panic_family_in_library_code() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\nfn g() {\n    panic!(\"boom\");\n}\n";
        assert_eq!(rules(src), vec![("no-panic", 2), ("no-panic", 5)]);
    }

    #[test]
    fn allow_escape_suppresses_same_line_and_next_line() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // lint:allow(no-panic)\n}\n\
                   fn g(x: Option<u32>) -> u32 {\n    // heap is non-empty here: lint:allow(no-panic)\n    x.unwrap()\n}\n";
        assert_eq!(rules(src), vec![]);
    }

    #[test]
    fn allow_escape_is_rule_specific() {
        let src =
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // lint:allow(no-std-hashmap)\n}\n";
        assert_eq!(rules(src), vec![("no-panic", 2)]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "fn f() -> &'static str {\n    // a comment mentioning panic!(\n    /* .unwrap() in a block\n       comment */\n    \"contains panic!( and .unwrap()\"\n}\n";
        assert_eq!(rules(src), vec![]);
        let raw = "fn f() -> &'static str {\n    r#\"raw with .expect( inside\n       still raw .unwrap()\"#\n}\n";
        assert_eq!(rules(raw), vec![]);
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n        panic!(\"fine in tests\");\n    }\n}\nfn after() -> u32 {\n    None.unwrap()\n}\n";
        assert_eq!(rules(src), vec![("no-panic", 11)]);
    }

    #[test]
    fn hot_path_regions_flag_allocations() {
        let src = "fn cold() {\n    let v: Vec<u32> = Vec::new();\n    drop(v);\n}\n\
                   // lint:hot-path\nfn hot(xs: &[u32]) -> Vec<u32> {\n    let mut v = Vec::new();\n    let s = format!(\"{xs:?}\");\n    drop(s);\n    xs.to_vec().clone()\n}\n// lint:hot-path-end\n\
                   fn cold2() -> String {\n    format!(\"ok\")\n}\n";
        assert_eq!(
            rules(src),
            vec![
                ("hot-path-alloc", 7),
                ("hot-path-alloc", 8),
                ("hot-path-alloc", 10)
            ]
        );
    }

    #[test]
    fn hashmap_rule_only_covers_solver_sources() {
        let src = "use std::collections::HashMap;\nfn f() -> HashMap<u32, u32> {\n    HashMap::default()\n}\n";
        assert_eq!(rules(src), vec![]);
        assert!(lint_source("crates/sat/src/cnf.rs", src).is_empty());
        for label in [
            "crates/sat/src/solver/inprocess.rs",
            "crates/sat/src/proof.rs",
        ] {
            let found: Vec<_> = lint_source(label, src)
                .into_iter()
                .map(|f| (f.rule, f.line))
                .collect();
            assert_eq!(
                found,
                vec![
                    ("no-std-hashmap", 1),
                    ("no-std-hashmap", 2),
                    ("no-std-hashmap", 3)
                ],
                "{label}"
            );
        }
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_confuse_the_stripper() {
        let src = "fn f<'a>(s: &'a str) -> usize {\n    s.chars().filter(|&c| c == '\"').count()\n}\nfn g() {\n    let _ = Some('x').unwrap();\n}\n";
        assert_eq!(rules(src), vec![("no-panic", 5)]);
    }

    #[test]
    fn multiline_strings_carry_state() {
        let src = "const S: &str = \"line one .unwrap()\nline two panic!( still string\";\nfn f(x: Option<u32>) -> u32 {\n    x.expect(\"named invariant\")\n}\n";
        assert_eq!(rules(src), vec![("no-panic", 4)]);
    }
}
