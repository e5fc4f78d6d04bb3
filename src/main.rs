//! The `lassynth` command-line tool: the paper's workflow (Fig. 12a)
//! from the shell.
//!
//! ```text
//! lassynth synth  <spec.json>  [--out DIR] [--timeout SECS] [--max-memory MB] [--seeds N|auto]
//!                              [--stats] [--varisat] [--restart-policy luby|ema] [--chrono on|off]
//!                              [--audit-cnf] [--certify] [--drat FILE] [--share-clauses]
//!                              [--quantum N]
//! lassynth verify <design.lasre>
//! lassynth render <design.lasre>
//! lassynth dimacs <spec.json>
//! lassynth depth  <spec.json> --lo L --hi H [--start S] [--timeout SECS] [--deadline SECS]
//!                              [--max-memory MB] [--no-incremental] [--stats]
//!                              [--restart-policy luby|ema] [--chrono on|off] [--audit-cnf]
//!                              [--certify] [--depth-parallel] [--share-clauses] [--quantum N]
//! lassynth lint-cnf <spec.json|file.cnf> [--lo L --hi H]
//! lassynth check-proof <file.cnf> <file.drat>
//! ```
//!
//! `synth` writes `<name>.lasre` and `<name>.gltf` into `--out`
//! (default `.`); with `--seeds N` it runs a parallel portfolio of N
//! diversified CDCL workers (so not with `--varisat`), and `--seeds
//! auto` picks the portfolio automatically when the encoding is large.
//! `--stats` prints the winning solver's search counters after the
//! verdict; a portfolio without a verdict adds a `gave up on: <reason>`
//! line (the deadline, a cancellation, or its first worker's budget).
//!
//! `depth` runs the min-depth search as one incremental solver session
//! by default (learnt clauses shared across probes);
//! `--no-incremental` re-encodes and re-solves every probe from
//! scratch, and `--stats` prints each probe's search counters.
//!
//! `--share-clauses` (with `--seeds`) switches the portfolio to a
//! deterministic single-threaded lockstep fleet whose workers exchange
//! low-LBD learnt clauses; `--depth-parallel` on `depth` gives every
//! candidate depth its own lockstep worker over one shared layered
//! encoding, monotone pruning cancelling dominated depths (the two
//! compose: sharing then runs between the depth workers). Both modes
//! run on one lockstep fleet driver, whose per-turn conflict quantum
//! `--quantum N` sets, and are deterministic — same spec, seeds and
//! quantum reproduce the same verdicts, stats and import sequences —
//! and `--stats` reports the exchange counters (exported/imported/kept)
//! plus a `portfolio total` line covering every worker, losers
//! included.
//!
//! `--restart-policy luby|ema` and `--chrono on|off` override the CDCL
//! restart schedule and chronological backtracking for every solver of
//! the run (including portfolio workers), so per-instance tuning needs
//! no rebuild.
//!
//! `--timeout SECS` and `--max-memory MB` arm the resource governor: a
//! wall-clock budget and an arena memory ceiling every solver of the
//! run honours cooperatively (both require the in-tree CDCL backend —
//! they conflict with `--varisat`, whose shim cannot be interrupted).
//! `depth --deadline SECS` is the depth-search spelling of the same
//! wall clock (the sequential walk budgets each probe; the lockstep
//! `--depth-parallel` fleet treats it as one whole-search deadline).
//! An expired governor does not discard work: `depth` reports the
//! anytime window — the certified lower bound (one past the largest
//! refuted depth) and the best SAT depth found so far — instead of
//! erroring, and `--stats` shows which budget axis expired. Workers
//! that crash mid-run are quarantined and reported on stderr while the
//! survivors finish the job.
//!
//! `lint-cnf` runs the CNF structural analyzer (`sat::analyze`) over a
//! spec's encoding — layered when `--lo`/`--hi` are given — or over a
//! raw DIMACS file (`.cnf`/`.dimacs`), and exits non-zero on fatal
//! findings (contradictory root units, empty clauses). `--audit-cnf` on
//! `synth`/`depth` prints the same report before solving.
//!
//! `--certify` on `synth`/`depth` logs a DRAT proof in the solver and
//! runs the in-tree backward DRAT checker on every UNSAT answer (each
//! depth probe of a min-depth search) before it is reported: it
//! verifies the lemmas the refutation depends on, drat-trim style. A
//! verdict whose proof fails to check becomes an error, never a
//! trusted answer.
//! `--drat FILE` (single-solve `synth` only) also writes the proof out
//! — text DRAT, or binary when FILE ends in `.bdrat` — for external
//! `drat-trim` cross-checking against the `dimacs` output.
//!
//! `check-proof` replays a DRAT file (text or binary, auto-detected)
//! against a DIMACS CNF with the in-tree DRAT checker, verifying every
//! lemma (not just the refutation's cone), and exits 0 only if every
//! step checks and the proof refutes the CNF.

#![forbid(unsafe_code)]

use lassynth::synth::{optimize, BackendChoice, SynthOptions, SynthResult, Synthesizer};
use lassynth::{lasre, sat, viz};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("synth") => cmd_synth(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        Some("dimacs") => cmd_dimacs(&args[1..]),
        Some("depth") => cmd_depth(&args[1..]),
        Some("lint-cnf") => cmd_lint_cnf(&args[1..]),
        Some("check-proof") => cmd_check_proof(&args[1..]),
        _ => {
            eprintln!(
                "usage: lassynth <synth|verify|render|dimacs|depth|lint-cnf|check-proof> \
                 <file> [flags]"
            );
            eprintln!("       see `src/main.rs` docs or README.md");
            2
        }
    };
    std::process::exit(code);
}

/// The value after flag `name`: `None` when the flag is absent, a
/// usage error when it is the last argument.
fn flag_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(value) => Ok(Some(value.clone())),
            None => Err(format!("{name} expects a value")),
        },
    }
}

/// A numeric flag value: `None` when the flag is absent, a usage error
/// naming the flag when its value is missing or not a number.
fn flag_number<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag_value(args, name)?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{name} expects a number, got {v:?}"))
        })
        .transpose()
}

fn load_spec(path: &str) -> Result<lasre::LasSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let spec: lasre::LasSpec =
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    spec.validate().map_err(|e| format!("invalid spec: {e}"))?;
    Ok(spec)
}

fn options_from(args: &[String]) -> Result<SynthOptions, String> {
    let mut options = SynthOptions::default();
    if let Some(t) = flag_value(args, "--timeout")? {
        let secs =
            t.parse::<u64>().ok().filter(|&s| s > 0).ok_or_else(|| {
                format!("--timeout expects a positive number of seconds, got {t:?}")
            })?;
        options.budget.max_time = Some(Duration::from_secs(secs));
    }
    if let Some(m) = flag_value(args, "--max-memory")? {
        let mb = m
            .parse::<u64>()
            .ok()
            .filter(|&m| m > 0)
            .ok_or_else(|| format!("--max-memory expects a positive size in MiB, got {m:?}"))?;
        // The governor accounts arena memory in 4-byte words.
        options.budget.max_memory_words = Some(mb * (1 << 20) / 4);
    }
    if let Some(policy) = flag_value(args, "--restart-policy")? {
        options.restart_policy = Some(match policy.as_str() {
            "luby" => sat::RestartPolicy::Luby,
            "ema" => sat::RestartPolicy::Ema,
            other => {
                return Err(format!(
                    "--restart-policy expects \"luby\" or \"ema\", got {other:?}"
                ))
            }
        });
    }
    if let Some(chrono) = flag_value(args, "--chrono")? {
        options.chrono = Some(match chrono.as_str() {
            "on" => true,
            "off" => false,
            other => return Err(format!("--chrono expects \"on\" or \"off\", got {other:?}")),
        });
    }
    if args.iter().any(|a| a == "--certify") {
        options.certify = true;
    }
    if args.iter().any(|a| a == "--share-clauses") {
        options.share_clauses = true;
    }
    if args.iter().any(|a| a == "--depth-parallel") {
        options.depth_parallel = true;
    }
    if let Some(q) = flag_value(args, "--quantum")? {
        options.parallel_quantum = q
            .parse::<u64>()
            .ok()
            .filter(|&q| q > 0)
            .ok_or_else(|| format!("--quantum expects a positive conflict count, got {q:?}"))?;
    }
    if args.iter().any(|a| a == "--varisat") {
        if !cfg!(feature = "varisat") {
            return Err(
                "--varisat requested, but this binary was built without the \
                        `varisat` feature (on by default); rebuild with it enabled"
                    .into(),
            );
        }
        if options.share_clauses || options.depth_parallel {
            return Err(
                "--share-clauses/--depth-parallel need the CDCL backend (drop --varisat)".into(),
            );
        }
        if options.budget.max_time.is_some() || options.budget.max_memory_words.is_some() {
            // The varisat shim has no cooperative interrupt: a governor
            // it would silently ignore is a usage error, not a no-op.
            return Err(
                "--timeout/--max-memory need the CDCL backend's cooperative resource \
                 governor (drop --varisat)"
                    .into(),
            );
        }
        options.backend = BackendChoice::Varisat;
    }
    Ok(options)
}

/// Above this many CNF variables, `--seeds auto` switches from a single
/// solve to a diversified seed portfolio: big encodings show the
/// paper's multi-× seed variance, so hedging across configurations
/// beats one lucky-or-not run.
const AUTO_PORTFOLIO_VARS: usize = 20_000;
/// Portfolio width used by `--seeds auto`.
const AUTO_PORTFOLIO_SEEDS: u64 = 4;

fn print_stats(stats: sat::SolverStats, seed: Option<u64>) {
    if let Some(seed) = seed {
        println!("solver stats (winning seed {seed}):");
    } else {
        println!("solver stats:");
    }
    // `conflicts` counts every falsified clause the search hit, but
    // some of those were really missed lower-level implications that
    // chronological backtracking repaired without clause learning —
    // report the analyzed (clause-learning) count separately so the
    // two are not conflated.
    let analyzed = stats.conflicts.saturating_sub(stats.missed_implications);
    println!(
        "  decisions={} conflicts={} analyzed_conflicts={} repaired_missed_implications={}",
        stats.decisions, stats.conflicts, analyzed, stats.missed_implications
    );
    println!(
        "  propagations={} restarts={}",
        stats.propagations, stats.restarts
    );
    println!(
        "  learned={} deleted={} minimized_lits={} gc_passes={} gc_reclaimed_words={}",
        stats.learned,
        stats.deleted,
        stats.minimized_lits,
        stats.gc_passes,
        stats.gc_reclaimed_words
    );
    println!(
        "  subsumed_clauses={} strengthened_clauses={} chrono_backtracks={}",
        stats.subsumed_clauses, stats.strengthened_clauses, stats.chrono_backtracks
    );
    println!(
        "  oob_enqueues={} restarts_blocked={} rephases={}",
        stats.oob_enqueues, stats.restarts_blocked, stats.rephases
    );
    println!(
        "  eliminated_vars={} elim_resolvents={}",
        stats.eliminated_vars, stats.elim_resolvents
    );
    println!(
        "  exported_clauses={} imported_clauses={} imported_kept={}",
        stats.exported_clauses, stats.imported_clauses, stats.imported_kept
    );
    println!(
        "  exhausted_conflicts={} exhausted_propagations={} exhausted_deadline={} \
         exhausted_memory={} exhausted_cancelled={}",
        stats.exhausted_conflicts,
        stats.exhausted_propagations,
        stats.exhausted_deadline,
        stats.exhausted_memory,
        stats.exhausted_cancelled
    );
    if let Some(reason) = stats.exhaustion_reason() {
        println!("  gave up on: {reason}");
    }
}

/// How `--seeds` resolves: one solve, an explicit portfolio width, or
/// size-triggered portfolio selection.
enum SeedsMode {
    Single,
    Portfolio(u64),
    Auto,
}

fn parse_seeds_flag(flag: Option<&str>) -> Result<SeedsMode, String> {
    match flag {
        None => Ok(SeedsMode::Single),
        Some("auto") => Ok(SeedsMode::Auto),
        Some(s) => match s.parse::<u64>() {
            Ok(0) | Ok(1) => Ok(SeedsMode::Single),
            Ok(n) => Ok(SeedsMode::Portfolio(n)),
            Err(_) => Err(format!("--seeds expects a number or \"auto\", got {s:?}")),
        },
    }
}

/// Dispatches a synth run: single solve, explicit portfolio
/// (`--seeds N`), or size-triggered portfolio (`--seeds auto`).
fn run_synth(
    spec: lasre::LasSpec,
    options: SynthOptions,
    mode: SeedsMode,
    want_stats: bool,
    drat_out: Option<&str>,
) -> Result<SynthResult, lassynth::synth::SynthError> {
    let single = |synth: Synthesizer, options: SynthOptions| {
        let mut s = synth.with_options(options);
        let result = s.run();
        if want_stats {
            match s.last_solver_stats() {
                Some(stats) => print_stats(stats, None),
                None => println!("solver stats: unavailable for this backend"),
            }
        }
        if let Some(path) = drat_out {
            match s.last_proof() {
                Some(log) => {
                    // Binary DRAT for `.bdrat` files, text otherwise —
                    // both formats drat-trim understands.
                    let binary = path.ends_with(".bdrat");
                    let mut buf = Vec::new();
                    log.write_drat(&mut buf, binary).expect("serialize DRAT");
                    std::fs::write(path, buf).expect("write DRAT file");
                    println!("wrote {path} ({} proof steps)", log.len());
                }
                None => println!("no proof to write (requires --certify)"),
            }
        }
        result
    };
    let portfolio = |spec: lasre::LasSpec, options: SynthOptions, n: u64| {
        let seed_list: Vec<u64> = (0..n).collect();
        let outcome = optimize::solve_portfolio_detailed(&spec, &seed_list, &options)?;
        // Crashed workers are operational news, stats or not: the fleet
        // finished without them, and the operator should know.
        for (seed, msg) in &outcome.quarantined {
            eprintln!("warning: worker seed {seed} crashed and was quarantined: {msg}");
        }
        if want_stats {
            match outcome.stats() {
                Some(stats) => print_stats(stats, outcome.winner_seed),
                None => println!("solver stats: no worker reported statistics"),
            }
            // The whole fleet's bill, losers included — the winner's
            // share above is what the verdict cost, this is what the
            // machine paid.
            match outcome.total() {
                Some(t) => {
                    println!(
                        "portfolio total ({} workers): conflicts={} propagations={} \
                         decisions={} restarts={} exported_clauses={} imported_clauses={} \
                         imported_kept={}",
                        outcome.worker_stats.len(),
                        t.conflicts,
                        t.propagations,
                        t.decisions,
                        t.restarts,
                        t.exported_clauses,
                        t.imported_clauses,
                        t.imported_kept
                    );
                    println!(
                        "portfolio exhaustion: conflicts={} propagations={} deadline={} \
                         memory={} cancelled={} quarantined_workers={}",
                        t.exhausted_conflicts,
                        t.exhausted_propagations,
                        t.exhausted_deadline,
                        t.exhausted_memory,
                        t.exhausted_cancelled,
                        outcome.quarantined.len()
                    );
                }
                None => println!("portfolio total: no worker reported statistics"),
            }
            if let Some(reason) = outcome.exhaustion {
                println!("gave up on: {reason}");
            }
        }
        Ok(outcome.result)
    };
    match mode {
        SeedsMode::Single => single(Synthesizer::new(spec)?, options),
        SeedsMode::Portfolio(n) => portfolio(spec, options, n),
        SeedsMode::Auto => {
            // Encode once to size the instance exactly. On the
            // portfolio path this sizing encode is thrown away (each
            // worker re-encodes in its own thread), but it costs
            // milliseconds against the minutes-scale solves that
            // trigger the portfolio; small instances solve directly on
            // the already-built encoding.
            let synth = Synthesizer::new(spec.clone())?;
            let vars = synth.cnf().num_vars();
            if vars > AUTO_PORTFOLIO_VARS {
                println!(
                    "({vars} variables > {AUTO_PORTFOLIO_VARS}: \
                     running a {AUTO_PORTFOLIO_SEEDS}-seed diversified portfolio)"
                );
                portfolio(spec, options, AUTO_PORTFOLIO_SEEDS)
            } else {
                single(synth, options)
            }
        }
    }
}

fn cmd_synth(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!(
            "usage: lassynth synth <spec.json> [--out DIR] [--timeout SECS] [--max-memory MB] \
             [--seeds N|auto] [--stats] [--restart-policy luby|ema] [--chrono on|off] \
             [--audit-cnf] [--certify] [--drat FILE] [--share-clauses] [--quantum N]"
        );
        return 2;
    };
    let spec = match load_spec(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let flags = flag_value(args, "--out").and_then(|out| {
        Ok((
            out.unwrap_or_else(|| ".".into()),
            options_from(args)?,
            parse_seeds_flag(flag_value(args, "--seeds")?.as_deref())?,
            flag_value(args, "--drat")?,
        ))
    });
    let (out_dir, options, mode, drat_out) = match flags {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let name = spec.name.clone();
    let want_stats = args.iter().any(|a| a == "--stats");
    if args.iter().any(|a| a == "--audit-cnf") {
        match lassynth::synth::encode::encode(&spec) {
            Ok(enc) => println!("{}", enc.lint()),
            Err(e) => {
                eprintln!("invalid spec: {e}");
                return 1;
            }
        }
    }
    if matches!(options.backend, BackendChoice::Varisat) && !matches!(mode, SeedsMode::Single) {
        // Portfolio workers are always diversified CDCL configurations.
        eprintln!("--seeds needs the CDCL backend (drop --varisat)");
        return 2;
    }
    if options.share_clauses && matches!(mode, SeedsMode::Single) {
        eprintln!("--share-clauses needs a portfolio (add --seeds N or --seeds auto)");
        return 2;
    }
    if drat_out.is_some() && !matches!(mode, SeedsMode::Single) {
        // The proof lives in the winning worker's solver; only the
        // single-solve path can hand it back.
        eprintln!("--drat requires a single solve (drop --seeds)");
        return 2;
    }
    if drat_out.is_some() && !options.certify {
        eprintln!("--drat requires --certify (no proof is logged otherwise)");
        return 2;
    }
    let certify = options.certify;
    let start = std::time::Instant::now();
    let result = run_synth(spec, options, mode, want_stats, drat_out.as_deref());
    match result {
        Ok(SynthResult::Sat(design)) => {
            println!(
                "SAT in {:.2?} (verified: {})",
                start.elapsed(),
                design.verified()
            );
            println!("{}", lasre::slices::render(&design));
            std::fs::create_dir_all(&out_dir).ok();
            let lasre_path = format!("{out_dir}/{name}.lasre");
            std::fs::write(&lasre_path, lasre::to_lasre(&design)).expect("write lasre");
            let scene = viz::Scene::from_design(&design, viz::SceneOptions::default());
            let gltf_path = format!("{out_dir}/{name}.gltf");
            std::fs::write(&gltf_path, viz::gltf::to_gltf(&scene)).expect("write gltf");
            println!("wrote {lasre_path} and {gltf_path}");
            0
        }
        Ok(SynthResult::Unsat) => {
            println!(
                "UNSAT{} in {:.2?} — no design fits this volume",
                if certify { " (DRAT proof checked)" } else { "" },
                start.elapsed()
            );
            1
        }
        Ok(SynthResult::Unknown) => {
            println!("UNKNOWN — budget expired after {:.2?}", start.elapsed());
            1
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn cmd_verify(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: lassynth verify <design.lasre>");
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("reading {path}: {e}");
            return 1;
        }
    };
    let design = match lasre::from_lasre(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let violations = lasre::check_validity(&design);
    if !violations.is_empty() {
        println!("INVALID: {} constraint violations", violations.len());
        for v in violations.iter().take(10) {
            println!("  {v}");
        }
        return 1;
    }
    match lassynth::synth::verify::verify(&design) {
        Ok(flows) => {
            println!(
                "VERIFIED: all {} stabilizers realized ({} flows)",
                design.spec().nstab(),
                flows.rank()
            );
            0
        }
        Err(e) => {
            println!("VERIFICATION FAILED: {e}");
            1
        }
    }
}

fn cmd_render(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: lassynth render <design.lasre>");
        return 2;
    };
    match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|t| lasre::from_lasre(&t).map_err(|e| e.to_string()))
    {
        Ok(design) => {
            println!("{}", lasre::slices::render(&design));
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn cmd_dimacs(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: lassynth dimacs <spec.json>");
        return 2;
    };
    match load_spec(path).and_then(|spec| Synthesizer::new(spec).map_err(|e| e.to_string())) {
        Ok(synth) => {
            print!("{}", sat::dimacs::to_string(synth.cnf()));
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// Whether a lint report contains findings that make the instance
/// unsolvable (everything else is informational).
fn lint_is_fatal(report: &sat::CnfReport) -> bool {
    report.count(sat::analyze::LINT_CONTRADICTORY_UNITS) > 0
        || report.count(sat::analyze::LINT_EMPTY_CLAUSE) > 0
}

fn cmd_lint_cnf(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: lassynth lint-cnf <spec.json|file.cnf> [--lo L --hi H]");
        return 2;
    };
    let report = if path.ends_with(".cnf") || path.ends_with(".dimacs") {
        match std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|t| sat::dimacs::parse_str(&t).map_err(|e| format!("parsing {path}: {e}")))
        {
            Ok(cnf) => sat::analyze::analyze(&cnf),
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    } else {
        let spec = match load_spec(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        };
        let flags = flag_number(args, "--lo").and_then(|lo| Ok((lo, flag_number(args, "--hi")?)));
        let (lo, hi) = match flags {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        };
        let layered = lo.is_some() || hi.is_some();
        let report = if layered {
            // Same defaults as `depth`, so the linted CNF is the one a
            // depth search would solve.
            let lo = lo.unwrap_or(1).max(1);
            let hi = hi.unwrap_or(spec.max_k + 2);
            if lo > hi {
                eprintln!("--lo {lo} must not exceed --hi {hi}");
                return 2;
            }
            lassynth::synth::encode::encode_layered(&spec, lo, hi).map(|l| l.lint())
        } else {
            lassynth::synth::encode::encode(&spec).map(|e| e.lint())
        };
        match report {
            Ok(r) => r,
            Err(e) => {
                eprintln!("invalid spec: {e}");
                return 1;
            }
        }
    };
    println!("{report}");
    if lint_is_fatal(&report) {
        eprintln!("fatal encoder lints fired");
        1
    } else {
        0
    }
}

/// Replays a DRAT file against a DIMACS CNF with the in-tree DRAT
/// checker, RUP/RAT-checking every lemma. Exit 0 only for a checked
/// refutation.
fn cmd_check_proof(args: &[String]) -> i32 {
    let (Some(cnf_path), Some(drat_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: lassynth check-proof <file.cnf> <file.drat>");
        return 2;
    };
    let cnf = match std::fs::read_to_string(cnf_path)
        .map_err(|e| format!("reading {cnf_path}: {e}"))
        .and_then(|t| sat::dimacs::parse_str(&t).map_err(|e| format!("parsing {cnf_path}: {e}")))
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    // Binary DRAT is not UTF-8: read raw bytes and let the parser
    // auto-detect the format.
    let drat = match std::fs::read(drat_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("reading {drat_path}: {e}");
            return 1;
        }
    };
    let log = match sat::ProofLog::from_cnf_and_drat(&cnf, &drat) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("parsing {drat_path}: {e}");
            return 1;
        }
    };
    match sat::proof::check(&log) {
        Ok(report) if report.refuted() => {
            println!(
                "PROOF OK: {} steps, {} derivations checked, formula refuted",
                report.steps, report.derived_checked
            );
            0
        }
        Ok(report) => {
            println!(
                "PROOF INCOMPLETE: all {} steps check, but no refutation \
                 (the empty clause is never derived)",
                report.steps
            );
            1
        }
        Err(e) => {
            println!("PROOF REJECTED: {e}");
            1
        }
    }
}

fn cmd_depth(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!(
            "usage: lassynth depth <spec.json> --lo L --hi H [--start S] [--timeout SECS] \
             [--deadline SECS] [--max-memory MB] [--no-incremental] [--stats] \
             [--restart-policy luby|ema] [--chrono on|off] [--audit-cnf] [--certify] \
             [--depth-parallel] [--share-clauses] [--quantum N]"
        );
        return 2;
    };
    let spec = match load_spec(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let flags = flag_number(args, "--lo").and_then(|lo| {
        Ok((
            lo,
            flag_number(args, "--hi")?,
            flag_number(args, "--start")?,
            flag_value(args, "--deadline")?,
        ))
    });
    let (lo, hi, requested, deadline) = match flags {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let lo = lo.unwrap_or(1).max(1);
    let hi = hi.unwrap_or(spec.max_k + 2);
    if lo > hi {
        eprintln!("--lo {lo} must not exceed --hi {hi}");
        return 2;
    }
    // Default to the spec's depth; out-of-range starts are clamped
    // into the probed range (with a notice when explicitly given).
    let start = requested.unwrap_or(spec.max_k).clamp(lo, hi);
    if let Some(r) = requested {
        if r != start {
            eprintln!("note: --start {r} is outside [{lo}, {hi}]; starting at {start}");
        }
    }
    let mut options = match options_from(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // `--deadline` is the depth-search spelling of `--timeout`: the
    // wall clock the resource governor enforces (per probe in the
    // sequential walk, whole-search in the depth-parallel fleet).
    if let Some(d) = deadline {
        if args.iter().any(|a| a == "--varisat") {
            eprintln!("--deadline needs the CDCL backend's resource governor (drop --varisat)");
            return 2;
        }
        let Some(secs) = d.parse::<u64>().ok().filter(|&s| s > 0) else {
            eprintln!("--deadline expects a positive number of seconds, got {d:?}");
            return 2;
        };
        options.budget.max_time = Some(Duration::from_secs(secs));
    }
    // Incremental probing is the default; `--no-incremental` restores
    // the from-scratch probe sequence (and `--incremental` is accepted
    // for symmetry).
    if args.iter().any(|a| a == "--no-incremental") {
        options.incremental = false;
    }
    let want_stats = args.iter().any(|a| a == "--stats");
    if args.iter().any(|a| a == "--audit-cnf") {
        // Lint the layered CNF over the depths the search can reach:
        // the valid-depth window around `start`.
        let report = optimize::valid_depth_window(&spec, lo, hi, start)
            .and_then(|(bottom, top)| lassynth::synth::encode::encode_layered(&spec, bottom, top));
        match report {
            Ok(layered) => println!("{}", layered.lint()),
            Err(e) => {
                eprintln!("invalid spec: {e}");
                return 1;
            }
        }
    }
    match optimize::find_min_depth(&spec, lo, hi, start, &options) {
        Ok(search) => {
            for p in &search.probes {
                println!(
                    "max_k {}: {}{} ({:.2?})",
                    p.max_k,
                    match (p.sat, p.exhaustion) {
                        (Some(true), _) => "SAT".to_string(),
                        (Some(false), _) => "UNSAT".to_string(),
                        (None, Some(reason)) => format!("UNKNOWN [{reason}]"),
                        (None, None) => "UNKNOWN".to_string(),
                    },
                    if p.certified { " [proof checked]" } else { "" },
                    p.time
                );
                if want_stats {
                    match p.stats {
                        Some(s) => print_stats(s, None),
                        None => println!("    (no solver stats for this backend)"),
                    }
                }
            }
            for (k, msg) in &search.quarantined {
                eprintln!("warning: depth-{k} worker crashed and was quarantined: {msg}");
            }
            let (bound, best) = search.window();
            if best == Some(bound) {
                // Certified minimum: every shallower depth in range is
                // refuted (or `bound` is the range floor), so budget
                // expiries or crashes elsewhere change nothing.
                println!("optimal depth: {bound}");
                0
            } else if search.exhaustion.is_none() && search.quarantined.is_empty() {
                println!("no satisfiable depth in [{lo}, {hi}]");
                1
            } else {
                // The governor (or a crash) stopped the search with the
                // window still open: report the anytime answer instead
                // of pretending nothing was learnt.
                match search.exhaustion {
                    Some(reason) => println!("search stopped early ({reason})"),
                    None => println!("search stopped early (undecided workers crashed)"),
                }
                match best {
                    Some(d) => {
                        println!(
                            "anytime window: certified lower bound {bound}, best SAT depth {d}"
                        );
                        0
                    }
                    None => {
                        println!(
                            "anytime window: certified lower bound {bound}, \
                             no SAT depth found yet"
                        );
                        1
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}
