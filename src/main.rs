//! The `lassynth` command-line tool: the paper's workflow (Fig. 12a)
//! from the shell.
//!
//! ```text
//! lassynth synth  <spec.json>  [--out DIR] [--timeout SECS] [--max-memory MB] [--seeds N|auto]
//!                              [--stats] [--certify] [--drat FILE] [--share-clauses] [--quantum N]
//! lassynth verify <design.lasre>
//! lassynth render <design.lasre>
//! lassynth dimacs <spec.json>
//! lassynth depth  <spec.json>  [--lo L] [--hi H] [--start S] [--timeout SECS] [--max-memory MB]
//!                              [--stats] [--certify] [--depth-parallel] [--share-clauses]
//!                              [--quantum N]
//! lassynth lint-cnf <spec.json|file.cnf> [--lo L] [--hi H]
//! lassynth check-proof <file.cnf> <file.drat>
//! ```
//!
//! Each subcommand reads its arguments against one flag table
//! (`COMMANDS`), which also prints its usage line. An argument not in
//! the table — a misspelt flag, another subcommand's flag, a flag given
//! twice, a stray operand — is a usage error (exit 2) naming it, so no
//! flag is ever silently ignored.
//!
//! `synth` writes `<name>.lasre` and `<name>.gltf` into `--out`
//! (default `.`); with `--seeds N` it runs a portfolio of N diversified
//! CDCL workers on one encoding, and `--seeds auto` picks the portfolio
//! automatically when the encoding is large.
//! `--stats` prints the winning solver's search counters after the
//! verdict; a portfolio without a verdict adds a `gave up on: <reason>`
//! line (the deadline, a cancellation, or its first worker's budget).
//!
//! `depth` runs the min-depth search as one incremental solver session
//! (learnt clauses shared across probes), and `--stats` prints each
//! probe's search counters. `--lo` defaults to 1 and `--hi` to the
//! spec's depth plus two.
//!
//! Every portfolio runs on one lockstep fleet driver: rounds of
//! `--quantum N` conflicts per worker, an isolated round's turns in
//! parallel on threads, verdicts settled in seed order, so the earliest
//! verdict in seed order wins and runs are reproducible.
//! `--share-clauses` makes the workers exchange low-LBD learnt clauses
//! and take their turns one at a time; `--depth-parallel` on `depth`
//! gives every candidate depth its own fleet worker over one shared
//! layered encoding, monotone pruning cancelling dominated depths (the
//! two compose: sharing then runs between the depth workers).
//! `--quantum` and `--share-clauses` need a fleet (`--seeds` on
//! `synth`, `--depth-parallel` on `depth`). Same spec, seeds and
//! quantum reproduce the same verdicts, stats and import sequences, and
//! `--stats` reports the exchange counters (exported/imported/kept)
//! plus a `portfolio total` block covering every worker, losers
//! included.
//!
//! `--timeout SECS` and `--max-memory MB` arm the resource governor: a
//! wall-clock budget and an arena memory ceiling every solver of the
//! run honours cooperatively (the sequential depth walk budgets each
//! probe; the lockstep fleets treat the wall clock as one whole-run
//! deadline). An expired governor does not discard work: `depth`
//! reports the anytime window — the certified lower bound (one past the
//! largest refuted depth) and the best SAT depth found so far — instead
//! of erroring, and `--stats` shows which budget axis expired. Workers
//! that crash mid-run are quarantined and reported on stderr while the
//! survivors finish the job.
//!
//! `lint-cnf` runs the CNF structural analyzer (`sat::analyze`) over a
//! spec's encoding — the CNF `synth` solves, or with `--lo`/`--hi` the
//! layered CNF a `depth` search over that range solves — or over a
//! raw DIMACS file (`.cnf`/`.dimacs`), and exits non-zero on fatal
//! findings (contradictory root units, empty clauses).
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

use lassynth::synth::{optimize, SynthError, SynthOptions, SynthResult, Synthesizer};
use lassynth::{lasre, sat, viz};
use std::time::Duration;

/// `println!` for the CLI's output, through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. A reader that closes the pipe early (`lassynth
/// dimacs spec.json | head -1`) ends the process quietly, with the
/// status a SIGPIPE death gives; any other write error is reported and
/// exits 1.
fn write_stdout(text: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// One command-line flag.
#[derive(Clone, Copy, PartialEq)]
struct Flag {
    /// The spelling, e.g. `--timeout`.
    name: &'static str,
    /// The value's placeholder in usage lines; `None` for a switch.
    value: Option<&'static str>,
}

impl Flag {
    const fn switch(name: &'static str) -> Flag {
        Flag { name, value: None }
    }

    const fn value(name: &'static str, placeholder: &'static str) -> Flag {
        Flag {
            name,
            value: Some(placeholder),
        }
    }
}

const OUT: Flag = Flag::value("--out", "DIR");
const TIMEOUT: Flag = Flag::value("--timeout", "SECS");
const MAX_MEMORY: Flag = Flag::value("--max-memory", "MB");
const SEEDS: Flag = Flag::value("--seeds", "N|auto");
const STATS: Flag = Flag::switch("--stats");
const CERTIFY: Flag = Flag::switch("--certify");
const DRAT: Flag = Flag::value("--drat", "FILE");
const SHARE_CLAUSES: Flag = Flag::switch("--share-clauses");
const DEPTH_PARALLEL: Flag = Flag::switch("--depth-parallel");
const QUANTUM: Flag = Flag::value("--quantum", "N");
const LO: Flag = Flag::value("--lo", "L");
const HI: Flag = Flag::value("--hi", "H");
const START: Flag = Flag::value("--start", "S");

/// A subcommand: its operands, the only flags it accepts, and what it
/// runs once its arguments check out.
struct Command {
    name: &'static str,
    operands: &'static [&'static str],
    flags: &'static [Flag],
    run: fn(&Args) -> Result<i32, Failure>,
}

/// Every subcommand's flag table.
const COMMANDS: [Command; 7] = [
    Command {
        name: "synth",
        operands: &["<spec.json>"],
        flags: &[
            OUT,
            TIMEOUT,
            MAX_MEMORY,
            SEEDS,
            STATS,
            CERTIFY,
            DRAT,
            SHARE_CLAUSES,
            QUANTUM,
        ],
        run: cmd_synth,
    },
    Command {
        name: "verify",
        operands: &["<design.lasre>"],
        flags: &[],
        run: cmd_verify,
    },
    Command {
        name: "render",
        operands: &["<design.lasre>"],
        flags: &[],
        run: cmd_render,
    },
    Command {
        name: "dimacs",
        operands: &["<spec.json>"],
        flags: &[],
        run: cmd_dimacs,
    },
    Command {
        name: "depth",
        operands: &["<spec.json>"],
        flags: &[
            LO,
            HI,
            START,
            TIMEOUT,
            MAX_MEMORY,
            STATS,
            CERTIFY,
            DEPTH_PARALLEL,
            SHARE_CLAUSES,
            QUANTUM,
        ],
        run: cmd_depth,
    },
    Command {
        name: "lint-cnf",
        operands: &["<spec.json|file.cnf>"],
        flags: &[LO, HI],
        run: cmd_lint_cnf,
    },
    Command {
        name: "check-proof",
        operands: &["<file.cnf>", "<file.drat>"],
        flags: &[],
        run: cmd_check_proof,
    },
];

impl Command {
    fn usage(&self) -> String {
        let flags: String = self
            .flags
            .iter()
            .map(|f| match f.value {
                Some(value) => format!(" [{} {value}]", f.name),
                None => format!(" [{}]", f.name),
            })
            .collect();
        format!("lassynth {} {}{flags}", self.name, self.operands.join(" "))
    }
}

/// Why a subcommand stopped without an answer: its exit code (2 for a
/// usage error, 1 otherwise) and the message for stderr.
struct Failure(i32, String);

fn usage_error(message: impl Into<String>) -> Failure {
    Failure(2, message.into())
}

fn failure(message: impl Into<String>) -> Failure {
    Failure(1, message.into())
}

impl From<SynthError> for Failure {
    fn from(e: SynthError) -> Failure {
        failure(format!("error: {e}"))
    }
}

fn write_failure(path: &str, e: std::io::Error) -> Failure {
    failure(format!("error: writing {path}: {e}"))
}

/// A subcommand's arguments, checked against its flag table.
struct Args<'a> {
    operands: Vec<&'a str>,
    flags: Vec<(Flag, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Splits `args` into operands and flags, rejecting anything the
    /// table does not list, a repeated flag, a value flag without its
    /// value, and a missing or extra operand.
    fn parse(command: &Command, args: &'a [String]) -> Result<Args<'a>, String> {
        let mut parsed = Args {
            operands: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(&flag) = command.flags.iter().find(|f| f.name == arg) else {
                if arg.starts_with("--") || parsed.operands.len() == command.operands.len() {
                    return Err(format!(
                        "lassynth {}: unexpected argument {arg}",
                        command.name
                    ));
                }
                parsed.operands.push(arg);
                continue;
            };
            if parsed.has(flag) {
                return Err(format!("{arg} given twice"));
            }
            let value = flag
                .value
                .map(|_| args.next().ok_or_else(|| format!("{arg} expects a value")))
                .transpose()?;
            parsed.flags.push((flag, value.map(String::as_str)));
        }
        if let Some(missing) = command.operands.get(parsed.operands.len()) {
            return Err(format!("lassynth {}: missing {missing}", command.name));
        }
        Ok(parsed)
    }

    fn has(&self, flag: Flag) -> bool {
        self.flags.iter().any(|&(f, _)| f == flag)
    }

    fn value(&self, flag: Flag) -> Option<&'a str> {
        self.flags
            .iter()
            .find(|&&(f, _)| f == flag)
            .and_then(|&(_, v)| v)
    }

    /// `flag`'s value through `parse`: `None` when the flag is absent, a
    /// usage error saying what was `expected` when `parse` rejects it.
    fn get<T>(
        &self,
        flag: Flag,
        expected: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, Failure> {
        self.value(flag)
            .map(|v| {
                parse(v).ok_or_else(|| {
                    usage_error(format!("{} expects {expected}, got {v:?}", flag.name))
                })
            })
            .transpose()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name == name));
    let code = match command {
        None => {
            for (i, c) in COMMANDS.iter().enumerate() {
                let lead = if i == 0 { "usage:" } else { "      " };
                eprintln!("{lead} {}", c.usage());
            }
            2
        }
        Some(command) => match Args::parse(command, &args[1..]) {
            Err(e) => {
                eprintln!("{e}");
                eprintln!("usage: {}", command.usage());
                2
            }
            Ok(parsed) => (command.run)(&parsed).unwrap_or_else(|Failure(code, message)| {
                eprintln!("{message}");
                code
            }),
        },
    };
    std::process::exit(code);
}

fn positive(v: &str) -> Option<u64> {
    v.parse().ok().filter(|&n| n > 0)
}

fn read_text(path: &str) -> Result<String, Failure> {
    std::fs::read_to_string(path).map_err(|e| failure(format!("reading {path}: {e}")))
}

fn load_spec(path: &str) -> Result<lasre::LasSpec, Failure> {
    let spec: lasre::LasSpec = serde_json::from_str(&read_text(path)?)
        .map_err(|e| failure(format!("parsing {path}: {e}")))?;
    spec.validate()
        .map_err(|e| failure(format!("invalid spec: {e}")))?;
    Ok(spec)
}

fn options_from(args: &Args) -> Result<SynthOptions, Failure> {
    let mut options = SynthOptions::default();
    options.budget.max_time = args.get(TIMEOUT, "a positive number of seconds", |v| {
        positive(v).map(Duration::from_secs)
    })?;
    // The governor accounts arena memory in 4-byte words: 2^18 per MiB.
    options.budget.max_memory_words = args.get(MAX_MEMORY, "a positive size in MiB", |v| {
        positive(v)?.checked_mul(1 << 18)
    })?;
    if let Some(q) = args.get(QUANTUM, "a positive conflict count", positive)? {
        options.parallel_quantum = q;
    }
    options.certify = args.has(CERTIFY);
    options.share_clauses = args.has(SHARE_CLAUSES);
    options.depth_parallel = args.has(DEPTH_PARALLEL);
    Ok(options)
}

/// `--share-clauses` and `--quantum` only act on a lockstep fleet: a
/// usage error naming the first one given when `fleet` is false.
fn fleet_flags_need(args: &Args, fleet: bool, needed: &str) -> Result<(), Failure> {
    match [SHARE_CLAUSES, QUANTUM].into_iter().find(|&f| args.has(f)) {
        Some(flag) if !fleet => Err(usage_error(format!("{} needs {needed}", flag.name))),
        _ => Ok(()),
    }
}

/// Above this many CNF variables, `--seeds auto` switches from a single
/// solve to a diversified seed portfolio: big encodings show the
/// paper's multi-× seed variance, so hedging across configurations
/// beats one lucky-or-not run.
const AUTO_PORTFOLIO_VARS: usize = 20_000;
/// Portfolio width used by `--seeds auto`.
const AUTO_PORTFOLIO_SEEDS: u64 = 4;

/// Prints `name=value` pairs, five to an indented line.
fn print_counters<'a>(counters: impl IntoIterator<Item = (&'a str, u64)>) {
    let tokens: Vec<String> = counters
        .into_iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    for line in tokens.chunks(5) {
        outln!("  {}", line.join(" "));
    }
}

fn print_stats(stats: sat::SolverStats, seed: Option<u64>) {
    match seed {
        Some(seed) => outln!("solver stats (winning seed {seed}):"),
        None => outln!("solver stats:"),
    }
    // `conflicts` counts every falsified clause the search hit, but
    // some of those were really missed lower-level implications that
    // chronological backtracking repaired without clause learning —
    // report the analyzed (clause-learning) count separately so the
    // two are not conflated.
    let analyzed = stats.conflicts.saturating_sub(stats.missed_implications);
    print_counters(stats.counters().chain([
        ("analyzed_conflicts", analyzed),
        ("repaired_missed_implications", stats.missed_implications),
    ]));
    if let Some(reason) = stats.exhaustion_reason() {
        outln!("  gave up on: {reason}");
    }
}

/// How `--seeds` resolves: one solve, an explicit portfolio width, or
/// size-triggered portfolio selection.
enum SeedsMode {
    Single,
    Portfolio(u64),
    Auto,
}

/// Dispatches a synth run: single solve, explicit portfolio
/// (`--seeds N`), or size-triggered portfolio (`--seeds auto`).
fn run_synth(
    spec: lasre::LasSpec,
    options: SynthOptions,
    mode: SeedsMode,
    want_stats: bool,
    drat_out: Option<&str>,
) -> Result<SynthResult, Failure> {
    let single = |synth: Synthesizer, options: SynthOptions| {
        let mut s = synth.with_options(options);
        let result = s.run();
        if want_stats {
            if let Some(stats) = s.last_solver_stats() {
                print_stats(stats, None);
            }
        }
        if let Some(path) = drat_out {
            match s.last_proof() {
                Some(log) => {
                    // Binary DRAT for `.bdrat` files, text otherwise —
                    // both formats drat-trim understands.
                    let mut buf = Vec::new();
                    log.write_drat(&mut buf, path.ends_with(".bdrat"))
                        .and_then(|()| std::fs::write(path, &buf))
                        .map_err(|e| write_failure(path, e))?;
                    outln!("wrote {path} ({} proof steps)", log.len());
                }
                None => outln!("no proof to write (requires --certify)"),
            }
        }
        Ok(result?)
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
                None => outln!("solver stats: no worker reported statistics"),
            }
            // The whole fleet's bill, losers included — the winner's
            // share above is what the verdict cost, this is what the
            // machine paid.
            match outcome.total() {
                Some(t) => {
                    outln!("portfolio total ({} workers):", outcome.worker_stats.len());
                    print_counters(
                        t.counters()
                            .filter(|(name, _)| !name.starts_with("exhausted_")),
                    );
                    outln!("portfolio exhaustion:");
                    let quarantined = outcome.quarantined.len() as u64;
                    print_counters(
                        t.counters()
                            .filter_map(|(name, n)| Some((name.strip_prefix("exhausted_")?, n)))
                            .chain([("quarantined_workers", quarantined)]),
                    );
                }
                None => outln!("portfolio total: no worker reported statistics"),
            }
            if let Some(reason) = outcome.exhaustion {
                outln!("gave up on: {reason}");
            }
        }
        Ok(outcome.result)
    };
    match mode {
        SeedsMode::Single => single(Synthesizer::new(spec)?, options),
        SeedsMode::Portfolio(n) => portfolio(spec, options, n),
        SeedsMode::Auto => {
            // Encode once to size the instance exactly. On the
            // portfolio path this sizing encode is thrown away (the
            // portfolio encodes the spec again, once for all its
            // workers), but it costs milliseconds against the
            // minutes-scale solves that trigger the portfolio; small
            // instances solve directly on the already-built encoding.
            let synth = Synthesizer::new(spec.clone())?;
            let vars = synth.cnf().num_vars();
            if vars > AUTO_PORTFOLIO_VARS {
                outln!(
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

fn cmd_synth(args: &Args) -> Result<i32, Failure> {
    let options = options_from(args)?;
    let mode = args
        .get(SEEDS, "a number or \"auto\"", |v| match v {
            "auto" => Some(SeedsMode::Auto),
            n => match n.parse::<u64>().ok()? {
                0 | 1 => Some(SeedsMode::Single),
                n => Some(SeedsMode::Portfolio(n)),
            },
        })?
        .unwrap_or(SeedsMode::Single);
    let single = matches!(mode, SeedsMode::Single);
    let drat_out = args.value(DRAT);
    fleet_flags_need(args, !single, "a portfolio (add --seeds N or --seeds auto)")?;
    if drat_out.is_some() && !single {
        // The proof lives in the winning worker's solver; only the
        // single-solve path can hand it back.
        return Err(usage_error("--drat requires a single solve (drop --seeds)"));
    }
    if drat_out.is_some() && !options.certify {
        return Err(usage_error(
            "--drat requires --certify (no proof is logged otherwise)",
        ));
    }
    let spec = load_spec(args.operands[0])?;
    let out_dir = args.value(OUT).unwrap_or(".");
    let name = spec.name.clone();
    let certify = options.certify;
    let start = std::time::Instant::now();
    let result = run_synth(spec, options, mode, args.has(STATS), drat_out)?;
    match result {
        SynthResult::Sat(design) => {
            outln!(
                "SAT in {:.2?} (verified: {})",
                start.elapsed(),
                design.verified()
            );
            outln!("{}", lasre::slices::render(&design));
            std::fs::create_dir_all(out_dir)
                .map_err(|e| failure(format!("error: creating {out_dir}: {e}")))?;
            let lasre_path = format!("{out_dir}/{name}.lasre");
            std::fs::write(&lasre_path, lasre::to_lasre(&design))
                .map_err(|e| write_failure(&lasre_path, e))?;
            let scene = viz::Scene::from_design(&design, viz::SceneOptions::default());
            let gltf_path = format!("{out_dir}/{name}.gltf");
            std::fs::write(&gltf_path, viz::gltf::to_gltf(&scene))
                .map_err(|e| write_failure(&gltf_path, e))?;
            outln!("wrote {lasre_path} and {gltf_path}");
            Ok(0)
        }
        SynthResult::Unsat => {
            outln!(
                "UNSAT{} in {:.2?} — no design fits this volume",
                if certify { " (DRAT proof checked)" } else { "" },
                start.elapsed()
            );
            Ok(1)
        }
        SynthResult::Unknown => {
            outln!("UNKNOWN — budget expired after {:.2?}", start.elapsed());
            Ok(1)
        }
    }
}

fn read_design(path: &str) -> Result<lasre::LasDesign, Failure> {
    lasre::from_lasre(&read_text(path)?).map_err(|e| failure(e.to_string()))
}

fn cmd_verify(args: &Args) -> Result<i32, Failure> {
    let design = read_design(args.operands[0])?;
    let violations = lasre::check_validity(&design);
    if !violations.is_empty() {
        outln!("INVALID: {} constraint violations", violations.len());
        for v in violations.iter().take(10) {
            outln!("  {v}");
        }
        return Ok(1);
    }
    match lassynth::synth::verify::verify(&design) {
        Ok(flows) => {
            outln!(
                "VERIFIED: all {} stabilizers realized ({} flows)",
                design.spec().nstab(),
                flows.rank()
            );
            Ok(0)
        }
        Err(e) => {
            outln!("VERIFICATION FAILED: {e}");
            Ok(1)
        }
    }
}

fn cmd_render(args: &Args) -> Result<i32, Failure> {
    let design = read_design(args.operands[0])?;
    outln!("{}", lasre::slices::render(&design));
    Ok(0)
}

fn cmd_dimacs(args: &Args) -> Result<i32, Failure> {
    let synth =
        Synthesizer::new(load_spec(args.operands[0])?).map_err(|e| failure(e.to_string()))?;
    write_stdout(format_args!("{}", sat::dimacs::to_string(synth.cnf())));
    Ok(0)
}

fn read_cnf(path: &str) -> Result<sat::Cnf, Failure> {
    sat::dimacs::parse_str(&read_text(path)?).map_err(|e| failure(format!("parsing {path}: {e}")))
}

/// `--lo`/`--hi` as given, usage errors for values that are not numbers.
fn depth_range(args: &Args) -> Result<(Option<usize>, Option<usize>), Failure> {
    let number = |v: &str| v.parse().ok();
    Ok((
        args.get(LO, "a number", number)?,
        args.get(HI, "a number", number)?,
    ))
}

/// The depth range `[lo, hi]` a layered encoding spans: `--lo` defaults
/// to 1 and `--hi` to two past the spec's depth.
fn resolve_range(
    spec: &lasre::LasSpec,
    (lo, hi): (Option<usize>, Option<usize>),
) -> Result<(usize, usize), Failure> {
    let lo = lo.unwrap_or(1).max(1);
    let hi = hi.unwrap_or(spec.max_k + 2);
    if lo > hi {
        return Err(usage_error(format!("--lo {lo} must not exceed --hi {hi}")));
    }
    Ok((lo, hi))
}

fn cmd_lint_cnf(args: &Args) -> Result<i32, Failure> {
    let path = args.operands[0];
    let range = depth_range(args)?;
    let report = if path.ends_with(".cnf") || path.ends_with(".dimacs") {
        if range != (None, None) {
            return Err(usage_error(format!(
                "--lo/--hi layer a spec's encoding; {path} is a CNF file"
            )));
        }
        sat::analyze::analyze(&read_cnf(path)?)
    } else {
        let spec = load_spec(path)?;
        let report = if range == (None, None) {
            lassynth::synth::encode::encode(&spec).map(|e| e.lint())
        } else {
            // Same defaults as `depth`, and the same valid-depth window
            // around its default start, so the linted CNF is the one a
            // depth search would solve.
            let (lo, hi) = resolve_range(&spec, range)?;
            optimize::valid_depth_window(&spec, lo, hi, spec.max_k.clamp(lo, hi))
                .and_then(|(bottom, top)| {
                    lassynth::synth::encode::encode_layered(&spec, bottom, top)
                })
                .map(|l| l.lint())
        };
        report.map_err(|e| failure(format!("invalid spec: {e}")))?
    };
    outln!("{report}");
    // Contradictory root units and empty clauses make the instance
    // unsolvable; every other finding is informational.
    if report.count(sat::analyze::LINT_CONTRADICTORY_UNITS) > 0
        || report.count(sat::analyze::LINT_EMPTY_CLAUSE) > 0
    {
        return Err(failure("fatal encoder lints fired"));
    }
    Ok(0)
}

/// Replays a DRAT file against a DIMACS CNF with the in-tree DRAT
/// checker, RUP/RAT-checking every lemma. Exit 0 only for a checked
/// refutation.
fn cmd_check_proof(args: &Args) -> Result<i32, Failure> {
    let cnf = read_cnf(args.operands[0])?;
    let drat_path = args.operands[1];
    // Binary DRAT is not UTF-8: read raw bytes and let the parser
    // auto-detect the format.
    let drat =
        std::fs::read(drat_path).map_err(|e| failure(format!("reading {drat_path}: {e}")))?;
    let log = sat::ProofLog::from_cnf_and_drat(&cnf, &drat)
        .map_err(|e| failure(format!("parsing {drat_path}: {e}")))?;
    match sat::proof::check(&log) {
        Ok(report) if report.refuted() => {
            outln!(
                "PROOF OK: {} steps, {} derivations checked, formula refuted",
                report.steps,
                report.derived_checked
            );
            Ok(0)
        }
        Ok(report) => {
            outln!(
                "PROOF INCOMPLETE: all {} steps check, but no refutation \
                 (the empty clause is never derived)",
                report.steps
            );
            Ok(1)
        }
        Err(e) => {
            outln!("PROOF REJECTED: {e}");
            Ok(1)
        }
    }
}

fn cmd_depth(args: &Args) -> Result<i32, Failure> {
    let range = depth_range(args)?;
    let requested = args.get(START, "a number", |v| v.parse::<usize>().ok())?;
    let options = options_from(args)?;
    fleet_flags_need(args, options.depth_parallel, "--depth-parallel")?;
    let spec = load_spec(args.operands[0])?;
    let (lo, hi) = resolve_range(&spec, range)?;
    // Default to the spec's depth; out-of-range starts are clamped
    // into the probed range (with a notice when explicitly given).
    let start = requested.unwrap_or(spec.max_k).clamp(lo, hi);
    if let Some(r) = requested {
        if r != start {
            eprintln!("note: --start {r} is outside [{lo}, {hi}]; starting at {start}");
        }
    }
    let search = optimize::find_min_depth(&spec, lo, hi, start, &options)
        .map_err(|e| failure(format!("error: {e}")))?;
    for p in &search.probes {
        outln!(
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
        if args.has(STATS) {
            if let Some(s) = p.stats {
                print_stats(s, None);
            }
        }
    }
    for (k, msg) in &search.quarantined {
        eprintln!("warning: depth-{k} worker crashed and was quarantined: {msg}");
    }
    let (bound, best) = search.window();
    if best == Some(bound) {
        // Certified minimum: every shallower depth in range is refuted
        // (or `bound` is the range floor), so budget expiries or
        // crashes elsewhere change nothing.
        outln!("optimal depth: {bound}");
        return Ok(0);
    }
    if search.exhaustion.is_none() && search.quarantined.is_empty() {
        outln!("no satisfiable depth in [{lo}, {hi}]");
        return Ok(1);
    }
    // The governor (or a crash) stopped the search with the window still
    // open: report the anytime answer instead of pretending nothing was
    // learnt.
    match search.exhaustion {
        Some(reason) => outln!("search stopped early ({reason})"),
        None => outln!("search stopped early (undecided workers crashed)"),
    }
    match best {
        Some(d) => {
            outln!("anytime window: certified lower bound {bound}, best SAT depth {d}");
            Ok(0)
        }
        None => {
            outln!("anytime window: certified lower bound {bound}, no SAT depth found yet");
            Ok(1)
        }
    }
}
