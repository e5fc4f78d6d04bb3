//! Spec-to-answer benchmark of the LaSsynth pipeline.
//!
//! ```text
//! cargo run --release --manifest-path lasbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client: the next spec is
//! submitted only when the previous answer is back. A run repeats
//! untraced passes over the workload's specs for `--seconds` (at least
//! [`MIN_PASSES`]), generating the specs several times before each pass
//! (`setup_s` is the median). With `--trace 1` it then replays traced
//! passes for as long again: they give the per-layer metrics and the
//! tracing overhead, check every model against its CNF, and must repeat
//! the untraced run's solver counters exactly. Tables go to stderr; the
//! last line of stdout is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The process
//! exits non-zero on any wrong answer or counter mismatch.
//!
//! `--write-reference` recomputes `reference/graph_depths.txt` with the
//! varisat backend.

mod cases;
mod run;
mod trace;

use cases::{setup, Workload};
use run::{untraced_pass, Pass, Trajectory};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{self_times, traced_pass, Tracer};

/// Fewest passes a run makes in each mode, however long they take.
const MIN_PASSES: usize = 4;
/// Set-ups timed before each untraced pass; `setup_s` is the median
/// over all of them.
const SETUP_REPS: usize = 11;
/// Percentiles tried for `verdict_tail_s`, highest last.
const TAIL_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: cases::GRAPH_DRAW_SEED,
        seconds: 10,
        trace: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{value}`"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?]
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Some(args))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return write_reference(),
        Err(e) => {
            eprintln!("lasbench: {e}");
            std::process::exit(2);
        }
    };
    let reference = cases::reference_depths().unwrap_or_else(|e| {
        eprintln!("lasbench: reference: {e}");
        std::process::exit(2);
    });
    let single = args.workloads.len() == 1;
    let mut rows = Vec::new();
    let mut all_correct = true;
    for &workload in &args.workloads {
        if !single {
            reset_peak_rss();
        }
        let report = run_workload(workload, &args, &reference);
        all_correct &= report.correct();
        if single {
            println!("{}", report.json(args.trace));
        }
        rows.push(report);
    }
    if !single {
        print_rows(&rows);
    }
    if !all_correct {
        std::process::exit(1);
    }
}

/// Everything one workload's run measured.
struct Report {
    workload: Workload,
    setup: Vec<Duration>,
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    tracers: Vec<Tracer>,
    peak_rss_mb: f64,
    /// Determinism-guard and set-up failures.
    errors: Vec<String>,
}

fn run_workload(workload: Workload, args: &Args, reference: &[usize]) -> Report {
    let mut report = Report {
        workload,
        setup: Vec::new(),
        untraced: Vec::new(),
        traced: Vec::new(),
        tracers: Vec::new(),
        peak_rss_mb: 0.0,
        errors: Vec::new(),
    };
    let window = Duration::from_secs(args.seconds);
    let started = Instant::now();
    while report.untraced.len() < MIN_PASSES || started.elapsed() < window {
        // Set-ups are timed before every pass, not in one burst: on a
        // shared host the core's speed shifts from one moment to the
        // next, and a microsecond-scale burst would see only one level.
        let mut cases = Vec::new();
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            match setup(workload, args.seed) {
                Ok(c) => cases = c,
                Err(e) => report.errors.push(e),
            }
            report.setup.push(t.elapsed());
        }
        if !report.errors.is_empty() {
            report.print(args.seed);
            return report;
        }
        report
            .untraced
            .push(untraced_pass(workload, &cases, reference));
    }
    report.peak_rss_mb = peak_rss_mb();
    let started = Instant::now();
    while args.trace && (report.traced.len() < MIN_PASSES || started.elapsed() < window) {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin);
        let generated = tracer.span("workloads.gen", |_| setup(workload, args.seed));
        let Ok(cases) = generated else {
            report.errors.push("set-up failed in the traced run".into());
            break;
        };
        report
            .traced
            .push(traced_pass(workload, &cases, reference, &mut tracer));
        report.tracers.push(tracer);
    }
    report.guard(args.seed);
    report.write_trace(args.seed);
    report.print(args.seed);
    report
}

fn trajectories(pass: &Pass) -> Vec<&Trajectory> {
    pass.answers.iter().map(|a| &a.trajectory).collect()
}

impl Report {
    /// The determinism guard: every pass, traced or not, must repeat the
    /// first untraced pass's counters exactly, and so must every earlier
    /// run of this build on this workload and seed.
    fn guard(&mut self, seed: u64) {
        let Some(first) = self.untraced.first() else {
            return;
        };
        let expected = trajectories(first);
        for (i, pass) in self.untraced.iter().enumerate().skip(1) {
            if trajectories(pass) != expected {
                self.errors
                    .push(format!("untraced pass {i} differs from pass 0"));
            }
        }
        for (i, pass) in self.traced.iter().enumerate() {
            if trajectories(pass) != expected {
                self.errors
                    .push(format!("traced pass {i} differs from the untraced run"));
            }
        }
        if let Some((first, rest)) = self.tracers.split_first() {
            if rest.iter().any(|t| t.counts != first.counts) {
                self.errors
                    .push("traced passes count different work".into());
            }
        }
        let record = format!("{expected:?}\n");
        let path = out_dir().join(format!(
            "counters-{}-seed{seed}-build{}.txt",
            self.workload.name(),
            build_id()
        ));
        match std::fs::read_to_string(&path) {
            Ok(earlier) if earlier != record => self.errors.push(format!(
                "counters differ from an earlier run ({})",
                path.display()
            )),
            Ok(_) => {}
            Err(_) => {
                let written =
                    std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, record));
                if let Err(e) = written {
                    eprintln!("lasbench: cannot record counters: {e}");
                }
            }
        }
    }

    fn answers(&self) -> impl Iterator<Item = &run::Answer> {
        self.untraced
            .iter()
            .chain(&self.traced)
            .flat_map(|p| &p.answers)
    }

    fn attempted(&self) -> usize {
        self.answers().count().max(1)
    }

    fn failed(&self) -> usize {
        self.answers().filter(|a| a.failure.is_some()).count() + self.errors.len()
    }

    fn correct(&self) -> bool {
        self.failed() == 0 && !self.untraced.is_empty()
    }

    fn untraced_answers(&self) -> impl Iterator<Item = &run::Answer> {
        self.untraced.iter().flat_map(|p| &p.answers)
    }

    fn wall_s(&self) -> f64 {
        median(self.untraced.iter().map(|p| p.wall.as_secs_f64()).collect())
    }

    fn verdict_times(&self) -> Vec<f64> {
        self.untraced_answers()
            .map(|a| a.time.as_secs_f64())
            .collect()
    }

    fn setup_s(&self) -> f64 {
        median(self.setup.iter().map(Duration::as_secs_f64).collect())
    }

    fn decided_ratio(&self) -> (usize, usize) {
        let n = self.untraced_answers().count();
        (self.untraced_answers().filter(|a| a.decided).count(), n)
    }

    fn overhead_ratio(&self) -> f64 {
        let traced = median(self.traced.iter().map(|p| p.wall.as_secs_f64()).collect());
        ratio(traced, self.wall_s())
    }

    /// The end-to-end metrics, with units and how each was taken.
    fn end_to_end(&self) -> Vec<Metric> {
        let times = self.verdict_times();
        let (tail, tail_label, beyond) = tail(&times);
        let (decided, n) = self.decided_ratio();
        let (failed, attempted) = (self.failed(), self.attempted());
        vec![
            Metric::new(
                "wall_s",
                "s",
                self.wall_s(),
                format!("median of {} passes", self.untraced.len()),
            ),
            Metric::new(
                "verdict_p50_s",
                "s",
                median(times.clone()),
                format!("n = {} answers", times.len()),
            ),
            Metric::new(
                "verdict_tail_s",
                "s",
                tail,
                format!("{tail_label}, {beyond} answers beyond"),
            ),
            Metric::new(
                "decided_ratio",
                "1",
                ratio(decided as f64, n as f64),
                format!("{decided} of {n}"),
            ),
            Metric::new(
                "failed_ratio",
                "1",
                ratio(failed as f64, attempted as f64),
                format!("{failed} of {attempted}, traced answers and guards included"),
            ),
            Metric::new(
                "peak_rss_mb",
                "MB",
                self.peak_rss_mb,
                "VmHWM of this process".into(),
            ),
            Metric::new(
                "setup_s",
                "s",
                self.setup_s(),
                format!("median of {} set-ups", self.setup.len()),
            ),
        ]
    }

    /// The per-layer metrics of the traced run: times are medians over
    /// traced passes of each layer's self time per pass, counts are one
    /// pass's (every traced pass counts the same work).
    fn per_layer(&self) -> Vec<Metric> {
        let per_pass: Vec<Vec<(&'static str, Duration, u64)>> =
            self.tracers.iter().map(|t| self_times(&t.spans)).collect();
        let time = |name: &str| {
            median(
                per_pass
                    .iter()
                    .map(|p| {
                        p.iter()
                            .find(|e| e.0 == name)
                            .map_or(0.0, |e| e.1.as_secs_f64())
                    })
                    .collect(),
            )
        };
        let spans = |name: &str| {
            per_pass
                .first()
                .and_then(|p| p.iter().find(|e| e.0 == name))
                .map_or(0, |e| e.2)
        };
        // Whole turn spans (solver included), per turn.
        let turn_s = median(
            self.tracers
                .iter()
                .map(|t| {
                    let total: Duration = t
                        .spans
                        .iter()
                        .filter(|s| s.name == "core.optimize.turn")
                        .map(|s| s.end.saturating_sub(s.start))
                        .sum();
                    ratio(total.as_secs_f64(), t.counts.turns as f64)
                })
                .collect(),
        );
        let c = self
            .tracers
            .first()
            .map(|t| t.counts.clone())
            .unwrap_or_default();
        let st = c.solver;
        let solver_s = time("sat.solver");
        let analyzed = st.conflicts.saturating_sub(st.missed_implications);
        let count = |name: &'static str, v: u64, base: &str| {
            Metric::new(name, "count", v as f64, base.into())
        };
        let secs = |name: &'static str, span: &str| {
            Metric::new(
                name,
                "s",
                time(span),
                format!("self time of {} `{span}` spans", spans(span)),
            )
        };
        vec![
            secs("workloads.gen_s", "workloads.gen"),
            secs("lasre.validate_s", "lasre.validate"),
            secs("lasre.check_validity_s", "lasre.check_validity"),
            count("lasre.violations", c.violations, "must be 0"),
            secs("core.encode.s", "core.encode"),
            count("core.encode.calls", c.encode_calls, ""),
            count("core.encode.vars", c.encode_vars, "summed over calls"),
            count("core.encode.clauses", c.encode_clauses, "summed over calls"),
            secs("sat.solver.s", "sat.solver"),
            count("sat.solver.calls", c.solver_calls, ""),
            count(
                "sat.solver.conflicts",
                st.conflicts,
                "missed implications included",
            ),
            count("sat.solver.analyzed_conflicts", analyzed, ""),
            count("sat.solver.missed_implications", st.missed_implications, ""),
            count("sat.solver.propagations", st.propagations, ""),
            count("sat.solver.decisions", st.decisions, ""),
            Metric::new(
                "sat.solver.props_per_conflict",
                "1",
                ratio(st.propagations as f64, st.conflicts as f64),
                format!("{} / {} conflicts", st.propagations, st.conflicts),
            ),
            Metric::new(
                "sat.solver.conflicts_per_s",
                "1/s",
                ratio(st.conflicts as f64, solver_s),
                format!("{} conflicts / {solver_s:.3} s", st.conflicts),
            ),
            Metric::new(
                "sat.solver.useful_conflict_ratio",
                "1",
                ratio(analyzed as f64, st.conflicts as f64),
                format!("{analyzed} analyzed / {} conflicts", st.conflicts),
            ),
            count("sat.solver.restarts", st.restarts, ""),
            count("sat.solver.learned", st.learned, ""),
            count("sat.solver.deleted", st.deleted, ""),
            count("sat.solver.gc_passes", st.gc_passes, ""),
            count("sat.solver.eliminated_vars", st.eliminated_vars, ""),
            count("sat.solver.subsumed_clauses", st.subsumed_clauses, ""),
            count("sat.solver.unknown", c.unknown, "solve calls out of budget"),
            secs("sat.proof.certify_s", "sat.proof.certify"),
            count(
                "sat.proof.certified",
                c.certified,
                "UNSAT answers proof-checked",
            ),
            count(
                "sat.proof.steps",
                c.proof_steps,
                "ProofLog::len, summed over checks",
            ),
            count("core.optimize.probes", c.probes, ""),
            count("core.optimize.unsat_probes", c.unsat_probes, ""),
            count(
                "core.optimize.sessions",
                c.sessions,
                "layered sessions or fleet workers",
            ),
            count("core.optimize.turns", c.turns, "lockstep turns"),
            Metric::new(
                "core.optimize.turn_s",
                "s",
                turn_s,
                format!("per turn, over {} turns", c.turns),
            ),
            count("sat.exchange.exported", st.exported_clauses, ""),
            count("sat.exchange.imported", st.imported_clauses, ""),
            count("sat.exchange.kept", st.imported_kept, ""),
            Metric::new(
                "sat.exchange.keep_ratio",
                "1",
                ratio(st.imported_kept as f64, st.imported_clauses as f64),
                format!(
                    "{} kept / {} imported",
                    st.imported_kept, st.imported_clauses
                ),
            ),
            secs("core.decode.s", "core.decode"),
            secs("core.verify.s", "core.verify"),
            secs("viz.export_s", "viz.export"),
            count("viz.gltf_bytes", c.gltf_bytes, ""),
            Metric::new(
                "trace.overhead_ratio",
                "1",
                self.overhead_ratio(),
                format!(
                    "median traced / untraced pass wall, {} traced passes",
                    self.traced.len()
                ),
            ),
            secs("glue.spec_s", trace::SPEC),
            secs("glue.optimize_s", "core.optimize.session"),
        ]
    }

    fn print(&self, seed: u64) {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} · seed {seed} · closed loop, 1 client · {} untraced + {} traced passes of {} specs ==",
            self.workload.name(),
            self.untraced.len(),
            self.traced.len(),
            self.untraced.first().map_or(0, |p| p.answers.len()),
        );
        let _ = writeln!(out, "end-to-end (untraced):");
        for m in self.end_to_end() {
            let _ = writeln!(
                out,
                "  {:<16} {:>14.6} {:<5} {}",
                m.name, m.value, m.unit, m.base
            );
        }
        let walls = |passes: &[Pass]| {
            let w: Vec<String> = passes
                .iter()
                .map(|p| format!("{:.3}", p.wall.as_secs_f64()))
                .collect();
            w.join(" ")
        };
        let _ = writeln!(
            out,
            "pass walls (s): untraced {}; traced {}",
            walls(&self.untraced),
            walls(&self.traced)
        );
        if !self.tracers.is_empty() {
            let _ = writeln!(out, "per layer (traced, per pass):");
            for m in self.per_layer() {
                let _ = writeln!(
                    out,
                    "  {:<34} {:>16.6} {:<5} {}",
                    m.name, m.value, m.unit, m.base
                );
            }
        }
        for a in self.answers().filter(|a| a.failure.is_some()) {
            let _ = writeln!(out, "FAILED: {}", a.failure.as_deref().unwrap_or_default());
        }
        for e in &self.errors {
            let _ = writeln!(out, "FAILED: {e}");
        }
        eprint!("{out}");
    }

    /// The result line: end-to-end metrics, or with `trace` the
    /// per-layer metrics `BENCHMARK.json` lists.
    fn json(&self, trace: bool) -> String {
        let (section, metrics) = if trace {
            ("per_layer", self.per_layer())
        } else {
            ("end_to_end", self.end_to_end())
        };
        let listed = listed_metrics(section);
        let fields: Vec<String> = metrics
            .iter()
            .filter(|m| listed.iter().any(|name| name == m.name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    finite(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            fields.join(", ")
        )
    }

    /// Writes every traced span (name, start, end, parent, in µs from
    /// the pass start) to `out/`.
    fn write_trace(&self, seed: u64) {
        if self.tracers.is_empty() {
            return;
        }
        let mut json = format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"passes\": [",
            self.workload.name()
        );
        for (i, tracer) in self.tracers.iter().enumerate() {
            json.push_str(if i == 0 { "\n  [" } else { ",\n  [" });
            for (j, s) in tracer.spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                let _ = write!(
                    json,
                    "{}{{\"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}}}",
                    if j == 0 { "" } else { ", " },
                    s.name,
                    s.start.as_micros(),
                    s.end.as_micros(),
                );
            }
            json.push(']');
        }
        json.push_str("\n]}\n");
        let path = out_dir().join(format!("trace-{}-seed{seed}.json", self.workload.name()));
        let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, json));
        if let Err(e) = written {
            eprintln!("lasbench: cannot write {}: {e}", path.display());
        }
    }
}

/// The names `BENCHMARK.json` lists under `section`: the metrics the
/// result line carries. The tables print more. `decided_ratio` and
/// `failed_ratio` are zero on some workloads by design (failures reach
/// the result line as `failed`), and so is the time of a layer a
/// workload bypasses; the file lists only metrics that never are.
fn listed_metrics(section: &str) -> Vec<String> {
    const SPEC: &str = include_str!("../../BENCHMARK.json");
    let spec: serde_json::Value = serde_json::from_str(SPEC).expect("BENCHMARK.json is valid JSON");
    spec.get(section)
        .and_then(serde_json::Value::as_array)
        .map(|metrics| {
            metrics
                .iter()
                .filter_map(|m| m.get("name").and_then(serde_json::Value::as_str))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// How the value was taken, or its base for a ratio.
    base: String,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64, base: String) -> Metric {
        Metric {
            name,
            unit,
            value,
            base,
        }
    }
}

/// One row per workload: the untraced end-to-end numbers next to the
/// traced wall time and the tracing overhead.
fn print_rows(rows: &[Report]) {
    let mut out = String::from("\n== summary (end-to-end untraced; traced wall and overhead) ==\n");
    let _ = writeln!(
        out,
        "{:<22} {:>9} {:>13} {:>14} {:>13} {:>12} {:>11} {:>9} {:>13} {:>9}",
        "workload",
        "wall_s",
        "verdict_p50_s",
        "verdict_tail_s",
        "decided_ratio",
        "failed_ratio",
        "peak_rss_mb",
        "setup_s",
        "traced_wall_s",
        "overhead"
    );
    for r in rows {
        let m = r.end_to_end();
        let traced = median(r.traced.iter().map(|p| p.wall.as_secs_f64()).collect());
        let overhead = if r.traced.is_empty() {
            "-".to_string()
        } else {
            format!("{:+.1}%", 100.0 * (r.overhead_ratio() - 1.0))
        };
        let _ = writeln!(
            out,
            "{:<22} {:>9.3} {:>13.4} {:>14.4} {:>13.3} {:>12.3} {:>11.1} {:>9.5} {:>13.3} {:>9}",
            r.workload.name(),
            m[0].value,
            m[1].value,
            m[2].value,
            m[3].value,
            m[4].value,
            m[5].value,
            m[6].value,
            traced,
            overhead,
        );
    }
    eprint!("{out}");
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The highest percentile of [`TAIL_PERCENTILES`] (nearest rank) with
/// at least ten samples beyond it, else the maximum. Returns the value,
/// its label and the number of samples beyond it.
fn tail(values: &[f64]) -> (f64, String, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut best = (sorted.last().copied().unwrap_or(0.0), "max".to_string(), 0);
    for p in TAIL_PERCENTILES {
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        if rank <= n && n - rank >= 10 {
            best = (sorted[rank - 1], format!("p{p}"), n - rank);
        }
    }
    best
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Peak resident memory of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets VmHWM so that `--workload all` measures each workload's peak
/// on its own (a single-workload run is a fresh process already).
fn reset_peak_rss() {
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        eprintln!("lasbench: cannot reset the peak RSS; peak_rss_mb is cumulative");
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Identifies this build, so that the cross-run counter record of one
/// build is never compared with another's.
fn build_id() -> u128 {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos())
}

/// Recomputes the graph reference with the varisat backend (from-scratch
/// probes: varisat has no incremental API).
fn write_reference() {
    let (n, count) = cases::GRAPH_DRAW;
    let (lo, hi, start) = cases::DEPTH_RANGE;
    let options = synth::SynthOptions {
        backend: synth::BackendChoice::Varisat,
        ..synth::SynthOptions::default()
    };
    let mut text = format!(
        "# Optimal depths of benchmark_set({n}, {count}, {}) under graph_state_spec(g, {start}),\n\
         # find_min_depth(spec, {lo}, {hi}, {start}) with the varisat backend: g<index> <edges> <depth>\n",
        cases::GRAPH_DRAW_SEED
    );
    for (i, g) in workloads::graphs::benchmark_set(n, count, cases::GRAPH_DRAW_SEED)
        .iter()
        .enumerate()
    {
        let spec = workloads::specs::graph_state_spec(g, start);
        let search = synth::optimize::find_min_depth(&spec, lo, hi, start, &options)
            .unwrap_or_else(|e| panic!("g{i}: {e}"));
        let depth = search
            .best_depth()
            .unwrap_or_else(|| panic!("g{i}: no design in range"));
        let _ = writeln!(text, "g{i} {} {depth}", g.num_edges());
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference/graph_depths.txt");
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}
