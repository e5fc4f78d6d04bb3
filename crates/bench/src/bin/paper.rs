//! Reproduces the paper's evaluation from the corpus in
//! `workloads::paper`: Figs. 13–18, Table I and the Sec. VII lane sweep.
//!
//! ```text
//! paper [--rows ROW,..] [--full] [--solve] [--timeout SECS] [--seeds N] [--out DIR]
//! ```
//!
//! Each selected row (default: all, in corpus order) prints one table of
//! encode stats. Rows cheap enough to solve by default, and every row
//! under `--solve`, also run each instance's solve or min-depth search
//! for seeds `0..N` (default 1), each under `--timeout` (default 30 s),
//! and print our depth, volume and min ± SD wall time (spec to verified
//! answer) beside the paper's numbers. Each instance's first SAT design
//! goes to `DIR/<row>_<instance>.gltf` (default `target/experiments`).
//! `--full` runs the 8-qubit graph sets. A bad argument exits 2.

use bench_support::report::{mean_sd, Table};
use lasre::{LasDesign, LasSpec};
use std::fmt::Display;
use std::num::NonZeroU64;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};
use synth::optimize::find_min_depth;
use synth::{SynthError, SynthOptions, SynthResult, Synthesizer};
use workloads::paper::{corpus, PaperRow, Search};

const USAGE: &str =
    "usage: paper [--rows ROW,..] [--full] [--solve] [--timeout SECS] [--seeds N] [--out DIR]";

struct Args {
    rows: Option<Vec<String>>,
    full: bool,
    solve: bool,
    timeout: Duration,
    seeds: NonZeroU64,
    out: String,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        rows: None,
        full: false,
        solve: false,
        timeout: Duration::from_secs(30),
        seeds: NonZeroU64::MIN,
        out: "target/experiments".into(),
    };
    let mut seen: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if seen.contains(&flag.as_str()) {
            return Err(format!("{flag} given twice"));
        }
        seen.push(flag);
        let mut value = || {
            (it.next().filter(|v| !v.starts_with("--")))
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--full" => a.full = true,
            "--solve" => a.solve = true,
            "--timeout" => a.timeout = Duration::from_secs(number(flag, value()?)?),
            "--seeds" => a.seeds = number(flag, value()?)?,
            "--out" => a.out = value()?.clone(),
            "--rows" => a.rows = Some(value()?.split(',').map(String::from).collect()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(a)
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    (value.parse()).map_err(|_| format!("bad value {value:?} for {flag}"))
}

fn main() -> ExitCode {
    let usage = |message: String| {
        eprintln!("error: {message}\n{USAGE}");
        ExitCode::from(2)
    };
    let args = match parse(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(args) => args,
        Err(e) => return usage(e),
    };
    let rows = corpus(args.full);
    let anchors: Vec<&str> = rows.iter().map(|r| r.anchor).collect();
    let selected: Vec<&str> = match &args.rows {
        Some(rows) => rows.iter().map(String::as_str).collect(),
        None => anchors.clone(),
    };
    if let Some(bad) = selected.iter().find(|a| !anchors.contains(a)) {
        let anchors = anchors.join(", ");
        return usage(format!("unknown row {bad:?} (rows: {anchors})"));
    }
    for row in rows.iter().filter(|r| selected.contains(&r.anchor)) {
        if let Err(e) = run_row(row, &args) {
            eprintln!("error: {}: {e}", row.anchor);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs one seed of an instance: its verdict and design, if SAT.
fn run_once(
    search: Search,
    spec: &LasSpec,
    options: SynthOptions,
) -> Result<(&'static str, Option<LasDesign>), SynthError> {
    Ok(match search {
        Search::Solve => match Synthesizer::new(spec.clone())?
            .with_options(options)
            .run()?
        {
            SynthResult::Sat(design) => ("SAT", Some(*design)),
            SynthResult::Unsat => ("UNSAT", None),
            SynthResult::Unknown => ("TIMEOUT", None),
        },
        Search::MinDepth { lo, hi, start } => {
            let search = find_min_depth(spec, lo, hi, start, &options)?;
            let verdict = match (search.exhaustion, &search.best) {
                (Some(_), _) => "TIMEOUT",
                (None, Some(_)) => "SAT",
                (None, None) => "UNSAT",
            };
            (verdict, search.best)
        }
    })
}

fn run_row(row: &PaperRow, args: &Args) -> Result<(), SynthError> {
    println!("== {} ({}) ==\n", row.title, row.anchor);
    let header = "instance V·nstab vars clauses verdict depth volume baseline reduction time";
    let mut table = Table::new(header.split(' '));
    let (mut reductions, mut written) = (Vec::new(), 0);
    let seeds = if args.solve || row.solves_by_default {
        args.seeds.get()
    } else {
        0
    };
    for inst in &row.instances {
        let stats = Synthesizer::new(inst.spec.clone())?.stats();
        let (mut verdicts, mut times, mut design) = (Vec::new(), Vec::new(), None);
        for seed in 0..seeds {
            let options = SynthOptions::default()
                .with_seed(seed)
                .with_time_limit(args.timeout);
            let start = Instant::now();
            let (verdict, found) = run_once(row.search, &inst.spec, options)?;
            times.push(start.elapsed());
            verdicts.push(verdict);
            design = design.or(found);
        }
        if let Some(design) = &design {
            let path = format!("{}/{}_{}.gltf", args.out, row.anchor, inst.label);
            let gltf = viz::gltf::to_gltf(&viz::Scene::from_design(design, Default::default()));
            match std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, gltf)) {
                Ok(()) => written += 1,
                Err(e) => eprintln!("warning: could not write {path}: {e}"),
            }
        }
        let depth = design.map(|d| d.spec().max_k);
        let volume = depth.map(|d| inst.footprint * d);
        let reduction = (volume.zip(inst.baseline_volume))
            .map(|(v, b)| 100.0 * (b as f64 - v as f64) / b as f64);
        reductions.extend(reduction);
        let verdict = match verdicts[..] {
            [] => "(encode only)".to_string(),
            [one] => one.to_string(),
            ref many => many.iter().map(|v| &v[..1]).collect(),
        };
        let mut time = (times.iter().min()).map_or("-".into(), |t| format!("{t:.2?}"));
        if times.len() > 1 {
            time += &format!(" ± {:.2}s", mean_sd(&times).1);
        }
        table.row([
            inst.label.clone(),
            beside(stats.v_nstab, "paper", inst.paper_v_nstab),
            stats.num_vars.to_string(),
            stats.num_clauses.to_string(),
            verdict,
            dash(depth),
            beside(dash(volume), "paper", inst.paper_volume),
            dash(inst.baseline_volume),
            reduction.map_or("-".into(), |r| format!("{r:.0}%")),
            beside(time, "Kissat", inst.kissat_min_s.map(|s| format!("{s} s"))),
        ]);
    }
    table.print();
    for inst in &row.instances {
        if let Some(note) = inst.note {
            println!("note on {}: {note}", inst.label);
        }
    }
    if reductions.len() > 1 {
        let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
        println!("average volume reduction vs baseline: {avg:.1}%");
    }
    if written > 0 {
        println!("wrote {written} glTF design(s) to {}", args.out);
    }
    println!();
    Ok(())
}

/// `ours`, followed by the paper's number in parentheses when it has one.
fn beside(ours: impl Display, label: &str, paper: Option<impl Display>) -> String {
    match paper {
        Some(paper) => format!("{ours} ({label} {paper})"),
        None => ours.to_string(),
    }
}

fn dash(value: Option<usize>) -> String {
    value.map_or("-".into(), |v| v.to_string())
}
