//! The CI gate over the committed `BENCH_*.json` records, and the
//! renderer of `REPRODUCTION.md`.
//!
//! `bench_trend <baseline-dir> <fresh-dir>` needs a fresh counterpart
//! of every record in `baseline-dir` (CI re-emits all of them) and
//! holds each pair to two fixed limits:
//!
//! * **Wall gate** — a fresh record slower than [`MAX_WALL_RATIO`] ×
//!   its baseline fails, unless its conflicts stayed flat: the same
//!   work in more milliseconds is a slower machine, not a regression.
//! * **Conflicts gate** — a fresh record with more than
//!   [`MAX_CONFLICT_RATIO`] × the baseline's conflicts fails whatever
//!   its wall time. Conflicts are deterministic per code + seed, so
//!   this gate holds on any machine, and it is what guards records
//!   whose conflicts a budget pins (the wall gate can only warn there)
//!   and lucky-trajectory records a code change could silently lose.
//!
//! `bench_trend --table [dir]` prints the whole of `REPRODUCTION.md`
//! from the records in `dir` (default `.`); CI diffs the two.

use bench_support::report::BenchRecord;
use std::path::Path;
use std::process::ExitCode;

/// Wall-time ratio past which a fresh record with conflict growth fails.
const MAX_WALL_RATIO: f64 = 2.0;
/// Conflict-count ratio past which a fresh record fails outright.
const MAX_CONFLICT_RATIO: f64 = 1.5;

const USAGE: &str = "usage: bench_trend <baseline-dir> <fresh-dir> | bench_trend --table [dir]";

fn load_records(dir: &Path) -> Vec<(String, BenchRecord)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        match std::fs::read_to_string(entry.path()).map_err(|e| e.to_string()) {
            Ok(text) => match BenchRecord::parse(&text) {
                Ok(record) => out.push((name, record)),
                Err(e) => eprintln!("warning: unparsable record {name}: {e}"),
            },
            Err(e) => eprintln!("warning: unreadable record {name}: {e}"),
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The paper anchor each tracked benchmark reproduces, for the
/// `--table` report. Names without an entry still get a table row.
fn paper_anchor(name: &str) -> &'static str {
    match name {
        "BENCH_encode_majority_3x3x5.json" => "Fig. 15 instance, encode only",
        "BENCH_solve_majority_3x3x5.json" => "Fig. 15 majority gate, single solve",
        "BENCH_min_depth_majority_3x3x5_incremental.json" => "Fig. 15, min-depth (incremental)",
        "BENCH_min_depth_majority_3x3x5_scratch.json" => "Fig. 15, min-depth (from scratch)",
        "BENCH_t_factory_budgeted.json" => "Fig. 17 probe, 60k-conflict budget",
        "BENCH_t_factory_shared_portfolio.json" => "Fig. 17 probe, 4-seed fleet, clause sharing",
        "BENCH_t_factory_isolated_portfolio.json" => "Fig. 17 probe, 4-seed fleet, no sharing",
        _ => "\u{2014}",
    }
}

const TABLE_INTRO: &str = "\
# Benchmark reproduction record

Committed `BENCH_*.json` measurements, one row per tracked
benchmark. Regenerate them with
`cargo test --release -p lassynth-bench -- --ignored` (the probe tests
`majority_records`, `t_factory_budgeted` and
`t_factory_shared_portfolio` write them), then re-render this file with
`cargo run -p lassynth-bench --bin bench_trend -- --table > REPRODUCTION.md`.
Conflicts and propagations are deterministic per code + seed;
wall times are from the committing machine.

| benchmark | paper anchor | wall (ms) | conflicts | propagations | props/conflict | proof checked |
|---|---|---:|---:|---:|---:|---:|";

const TABLE_NOTES: &str = "
All rows above run with the resource governor off and no fault plan
armed; both are untaken branches on the hot path, so arming neither
changes a single conflict count (the determinism tests pin this).

The deadline-bounded **anytime** probe (`t_factory_anytime`, CI
bench-smoke) deliberately has no row: a wall-clock deadline pins time
rather than work, so its conflict count is machine-dependent by
construction. Its contract is checked instead of recorded — an expired
deadline on the Fig. 17 depth search must return the anytime window
(certified lower bound + best SAT depth with every probe's exhaustion
reason), never an error and never a silently discarded search.";

/// Renders all records in `dir` as the whole of `REPRODUCTION.md`.
fn print_table(dir: &Path) -> ExitCode {
    let records = load_records(dir);
    if records.is_empty() {
        eprintln!("error: no BENCH_*.json records in {}", dir.display());
        return ExitCode::from(2);
    }
    println!("{TABLE_INTRO}");
    for (file, r) in &records {
        let props_per_conflict = if r.conflicts > 0 {
            format!("{:.1}", r.propagations as f64 / r.conflicts as f64)
        } else {
            "\u{2014}".to_string()
        };
        // "yes" = every UNSAT answer behind the record also passed the
        // in-tree DRAT checker in an untimed certified rerun; "—" = the
        // bench has nothing to certify (encode-only or SAT-only).
        let proof_checked = match r.proof_checked {
            Some(true) => "yes",
            Some(false) => "no",
            None => "\u{2014}",
        };
        println!(
            "| {} | {} | {:.3} | {} | {} | {} | {} |",
            r.name,
            paper_anchor(file),
            r.wall_ms,
            r.conflicts,
            r.propagations,
            props_per_conflict,
            proof_checked
        );
    }
    println!("{TABLE_NOTES}");
    ExitCode::SUCCESS
}

/// Runs `<baseline-dir> <fresh-dir>` or `--table [dir]`; any other
/// argument is a usage error naming it.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let table = args.first().is_some_and(|a| a == "--table");
    let operands = &args[usize::from(table)..];
    let flag = operands.iter().find(|a| a.starts_with('-'));
    let error = match (flag, table, operands) {
        (Some(flag), _, _) => format!("unknown flag {flag:?}"),
        (None, true, []) => return print_table(Path::new(".")),
        (None, true, [dir]) => return print_table(Path::new(dir)),
        (None, false, [baseline, fresh]) => return gate(baseline, fresh),
        (None, true, [_, extra, ..]) | (None, false, [_, _, extra, ..]) => {
            format!("unexpected argument {extra:?}")
        }
        (None, false, _) => "expected <baseline-dir> <fresh-dir>".into(),
    };
    eprintln!("error: {error}\n{USAGE}");
    ExitCode::from(2)
}

/// Compares every committed record in `baseline_dir` with its fresh
/// counterpart in `fresh_dir`.
fn gate(baseline_dir: &str, fresh_dir: &str) -> ExitCode {
    let baselines = load_records(Path::new(baseline_dir));
    if baselines.is_empty() {
        eprintln!("error: no BENCH_*.json baselines in {baseline_dir}");
        return ExitCode::from(2);
    }
    let fresh = load_records(Path::new(fresh_dir));
    let mut failures = 0usize;
    for (file, base) in &baselines {
        let Some((_, new)) = fresh.iter().find(|(f, _)| f == file) else {
            println!("FAIL {file}: not emitted by this run");
            failures += 1;
            continue;
        };
        // Guard the division: a sub-microsecond baseline is noise.
        let ratio = if base.wall_ms > 1e-3 {
            new.wall_ms / base.wall_ms
        } else {
            1.0
        };
        // Deterministic work measure: identical code + seed reproduces
        // the conflict count on any machine, so a wall blow-up with
        // flat conflicts is the runner being slower, not the solver —
        // while conflict growth past the conflict gate is a code
        // regression wherever it runs (zero-conflict encode records
        // are exempt: there is no search to regress).
        let conflicts_flat = new.conflicts <= base.conflicts.saturating_mul(11) / 10;
        let conflicts_regressed =
            base.conflicts > 0 && new.conflicts as f64 > base.conflicts as f64 * MAX_CONFLICT_RATIO;
        let wall_regressed = ratio > MAX_WALL_RATIO;
        let verdict = match (conflicts_regressed, wall_regressed, conflicts_flat) {
            (true, _, _) => "FAIL",
            (false, false, _) => "ok",
            (false, true, true) => "WARN",
            (false, true, false) => "FAIL",
        };
        println!(
            "{verdict:>4} {file}: {:.3} ms -> {:.3} ms ({ratio:.2}x, limit {MAX_WALL_RATIO:.2}x), \
             conflicts {} -> {} (limit {MAX_CONFLICT_RATIO:.2}x)",
            base.wall_ms, new.wall_ms, base.conflicts, new.conflicts
        );
        if verdict == "FAIL" {
            failures += 1;
        }
    }
    // Surface fresh records with no baseline: they carry no regression
    // protection until their record is committed.
    for (file, _) in &fresh {
        if !baselines.iter().any(|(f, _)| f == file) {
            println!(" NEW {file}: no committed baseline — commit it to start trend tracking");
        }
    }
    if failures > 0 {
        eprintln!(
            "bench trend check failed: {failures} record(s) missing or regressed \
             (wall >{MAX_WALL_RATIO:.2}x with conflict growth, or conflicts \
             >{MAX_CONFLICT_RATIO:.2}x)"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "bench trend check passed ({} record(s) compared)",
        baselines.len()
    );
    ExitCode::SUCCESS
}
