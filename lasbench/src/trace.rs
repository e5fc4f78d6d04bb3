//! The traced run: the benchmark replays each library entry point from
//! the public functions of every layer, recording a span around each
//! call. Spans stay in memory until the run ends.
//!
//! The replays mirror `Synthesizer::run` (one-shot),
//! `find_min_depth` (incremental, certified) and the clause-sharing
//! lockstep path of `solve_portfolio_detailed` step for step; the
//! determinism guard in `main` compares their solver statistics with
//! the untraced run's, per probe and per worker.

use crate::cases::{Case, Workload, DEPTH_RANGE, FLEET_SEEDS};
use crate::run::{answer, export, Pass, Raw, Trajectory};
use lasre::{LasDesign, LasSpec};
use sat::{
    Backend, Budget, CdclConfig, CdclSolver, ClauseExchange, ExhaustionReason, ShareLimits,
    SolveOutcome, SolverStats,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use synth::decode::{decode, decode_layered};
use synth::encode::{encode, encode_layered, LayeredEncoding};
use synth::verify::verify;
use synth::SynthOptions;

/// Inbox capacity of the fleet's clause exchange (the library's value).
const EXCHANGE_CAPACITY: usize = 1024;

/// Root span of one spec, and the span of the benchmark's own checks,
/// whose time is taken out of the traced wall time.
pub const SPEC: &str = "spec";
pub const CHECK: &str = "bench.check";

pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// Counters recorded at the same boundaries as the spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub violations: u64,
    pub encode_calls: u64,
    pub encode_vars: u64,
    pub encode_clauses: u64,
    pub solver_calls: u64,
    pub solver: SolverStats,
    pub unknown: u64,
    pub certified: u64,
    pub proof_steps: u64,
    pub probes: u64,
    pub unsat_probes: u64,
    pub sessions: u64,
    pub turns: u64,
    pub gltf_bytes: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub counts: Counts,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }

    fn validate(&mut self, spec: &LasSpec) -> Result<(), String> {
        self.span("lasre.validate", |_| spec.validate())
            .map_err(|e| format!("invalid spec: {e}"))
    }

    fn record_encode(&mut self, cnf: &sat::Cnf) {
        self.counts.encode_calls += 1;
        self.counts.encode_vars += cnf.num_vars() as u64;
        self.counts.encode_clauses += cnf.num_clauses() as u64;
    }

    fn record_solve(&mut self, stats: SolverStats, outcome: &SolveOutcome) {
        self.counts.solver_calls += 1;
        self.counts.solver = self.counts.solver.merged(stats);
        if matches!(outcome, SolveOutcome::Unknown(_)) {
            self.counts.unknown += 1;
        }
    }

    /// Checks a model against the CNF it solves (benchmark work, kept
    /// out of every layer's time).
    fn check_model(&mut self, cnf: &sat::Cnf, model: &sat::Model) -> Result<(), String> {
        if self.span(CHECK, |_| cnf.eval(model)) {
            Ok(())
        } else {
            Err("model violates the CNF".into())
        }
    }

    /// Decode → validity → ZX verify, as every library driver does.
    fn finish_design(
        &mut self,
        options: &SynthOptions,
        decode_fn: impl FnOnce() -> LasDesign,
    ) -> Result<LasDesign, String> {
        let mut design = self.span("core.decode", |_| decode_fn());
        let violations = self.span("lasre.check_validity", |_| lasre::check_validity(&design));
        self.counts.violations += violations.len() as u64;
        if !violations.is_empty() {
            return Err(format!("{} validity violations", violations.len()));
        }
        if !options.skip_verify {
            self.span("core.verify", |_| verify(&design))
                .map_err(|e| format!("verification failed: {e}"))?;
            design.set_verified(true);
        }
        Ok(design)
    }
}

/// One traced pass. Its wall time is the spec spans' time less the
/// benchmark's checks inside them.
pub fn traced_pass(
    workload: Workload,
    cases: &[Case],
    reference: &[usize],
    tracer: &mut Tracer,
) -> Pass {
    let options = workload.options();
    let answers = cases
        .iter()
        .map(|case| {
            let first = tracer.spans.len();
            let depth = tracer.open.len();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                tracer.span(SPEC, |t| replay(t, workload, case, &options))
            }));
            // A panic leaves the spans it unwound through open.
            tracer.open.truncate(depth);
            let checks: Duration = tracer.spans[first..]
                .iter()
                .filter(|s| s.name == CHECK)
                .map(|s| s.end.saturating_sub(s.start))
                .sum();
            let root = &tracer.spans[first];
            let time = root.end.saturating_sub(root.start).saturating_sub(checks);
            answer(workload, case, reference, time, outcome, " (traced)")
        })
        .collect::<Vec<_>>();
    Pass::of(answers)
}

fn replay(
    t: &mut Tracer,
    workload: Workload,
    case: &Case,
    options: &SynthOptions,
) -> Result<Raw, String> {
    match workload {
        Workload::GraphDepthCertified => depth_search(t, &case.spec, options),
        Workload::MajoritySynth | Workload::TFactoryBudget => {
            one_shot(t, &case.spec, options, workload == Workload::MajoritySynth)
        }
        Workload::TFactoryFleet => fleet(t, &case.spec, options),
    }
}

fn verdict(outcome: &SolveOutcome) -> Option<bool> {
    match outcome {
        SolveOutcome::Sat(_) => Some(true),
        SolveOutcome::Unsat => Some(false),
        SolveOutcome::Unknown(_) => None,
    }
}

/// `Synthesizer::new` + `Synthesizer::run`, plus the glTF export.
fn one_shot(
    t: &mut Tracer,
    spec: &LasSpec,
    options: &SynthOptions,
    export_gltf: bool,
) -> Result<Raw, String> {
    t.validate(spec)?;
    let encoding = t
        .span("core.encode", |_| encode(spec))
        .map_err(|e| e.to_string())?;
    t.record_encode(&encoding.cnf);
    let mut solver = CdclSolver::with_config(options.solver_config(CdclConfig::default()));
    let outcome = t.span("sat.solver", |_| {
        solver.solve_with(&encoding.cnf, &[], &options.budget)
    });
    t.record_solve(solver.stats, &outcome);
    let sat = verdict(&outcome);
    let mut design = None;
    let mut gltf_bytes = 0;
    if let SolveOutcome::Sat(model) = outcome {
        t.check_model(&encoding.cnf, &model)?;
        let d = t.finish_design(options, || decode(spec, &encoding, &model))?;
        if export_gltf {
            gltf_bytes = t.span("viz.export", |_| export(&d)).len();
            t.counts.gltf_bytes += gltf_bytes as u64;
        }
        design = Some(d);
    }
    Ok(Raw {
        decided: sat.is_some(),
        trajectory: Trajectory {
            steps: vec![(0, sat)],
            stats: vec![solver.stats],
        },
        design,
        gltf_bytes,
        uncertified_unsat: 0,
    })
}

/// One retained solver over one depth-layered CNF.
struct Session {
    layered: LayeredEncoding,
    solver: CdclSolver,
}

fn open_session(
    t: &mut Tracer,
    spec: &LasSpec,
    lo: usize,
    hi: usize,
    config: &CdclConfig,
    certify: bool,
) -> Result<Session, String> {
    t.span("core.optimize.session", |t| {
        t.counts.sessions += 1;
        let layered = t
            .span("core.encode", |_| encode_layered(spec, lo, hi))
            .map_err(|e| e.to_string())?;
        t.record_encode(&layered.encoding.cnf);
        let mut solver = CdclSolver::with_config(config.clone());
        if certify {
            solver.enable_proof();
        }
        solver.add_cnf(&layered.encoding.cnf);
        for &a in &layered.activation {
            solver.freeze(a.var());
        }
        Ok(Session { layered, solver })
    })
}

/// The largest `v <= from` such that every depth in `v..=from` validates.
fn valid_down(t: &mut Tracer, spec: &LasSpec, lo: usize, from: usize) -> usize {
    let mut v = from;
    while v > lo && t.validate(&spec.with_depth(v - 1)).is_ok() {
        v -= 1;
    }
    v
}

/// The largest `v >= from` such that every depth in `from..=v` validates.
fn valid_up(t: &mut Tracer, spec: &LasSpec, from: usize, hi: usize) -> usize {
    let mut v = from;
    while v < hi && t.validate(&spec.with_depth(v + 1)).is_ok() {
        v += 1;
    }
    v
}

/// `find_min_depth` in incremental mode: one layered session (rebuilt
/// at most when the walk leaves its range), descending while SAT and
/// ascending while UNSAT.
fn depth_search(t: &mut Tracer, spec: &LasSpec, options: &SynthOptions) -> Result<Raw, String> {
    let (lo, hi, start) = DEPTH_RANGE;
    let config = options.solver_config(CdclConfig::default());
    let from = valid_down(t, spec, lo, start);
    let mut walk = DepthWalk {
        session: open_session(t, spec, from, start, &config, options.certify)?,
        spec,
        options,
        config,
        trajectory: Trajectory::default(),
        best: None,
        uncertified_unsat: 0,
    };
    let mut k = start;
    match walk.probe(t, k)? {
        Some(true) => {
            while k > lo {
                k -= 1;
                if walk.probe(t, k)? != Some(true) {
                    break;
                }
            }
        }
        Some(false) => {
            while k < hi {
                k += 1;
                if walk.probe(t, k)? != Some(false) {
                    break;
                }
            }
        }
        None => {}
    }
    let undecided = walk.trajectory.steps.iter().any(|s| s.1.is_none());
    Ok(Raw {
        decided: !undecided && walk.best.is_some(),
        trajectory: walk.trajectory,
        design: walk.best,
        gltf_bytes: 0,
        uncertified_unsat: walk.uncertified_unsat,
    })
}

struct DepthWalk<'a> {
    session: Session,
    spec: &'a LasSpec,
    options: &'a SynthOptions,
    config: CdclConfig,
    trajectory: Trajectory,
    best: Option<LasDesign>,
    uncertified_unsat: usize,
}

impl DepthWalk<'_> {
    fn probe(&mut self, t: &mut Tracer, k: usize) -> Result<Option<bool>, String> {
        let (lo, hi, _) = DEPTH_RANGE;
        let (spec, certify) = (self.spec, self.options.certify);
        if !(self.session.layered.lo..=self.session.layered.hi).contains(&k) {
            t.validate(&spec.with_depth(k))?;
            self.session = if k > self.session.layered.hi {
                let top = valid_up(t, spec, k, hi);
                open_session(t, spec, k, top, &self.config, certify)?
            } else {
                let bottom = valid_down(t, spec, lo, k);
                open_session(t, spec, bottom, k, &self.config, certify)?
            };
        }
        t.counts.probes += 1;
        let session = &mut self.session;
        let assumptions = session.layered.assumptions_for(k);
        let before = session.solver.session_stats();
        let outcome = t.span("sat.solver", |_| {
            session
                .solver
                .solve_assuming(&assumptions, &self.options.budget)
        });
        let stats = session.solver.session_stats().since(before);
        t.record_solve(stats, &outcome);
        let sat = verdict(&outcome);
        match outcome {
            SolveOutcome::Sat(model) => {
                t.check_model(&session.layered.encoding.cnf, &model)?;
                let layered = &session.layered;
                let design =
                    t.finish_design(self.options, || decode_layered(layered, spec, k, &model))?;
                if self
                    .best
                    .as_ref()
                    .is_none_or(|b| design.spec().max_k < b.spec().max_k)
                {
                    self.best = Some(design);
                }
            }
            SolveOutcome::Unsat => {
                t.counts.unsat_probes += 1;
                if certify {
                    let log = session.solver.proof().ok_or("proof logging is off")?;
                    t.counts.proof_steps += log.len() as u64;
                    let failed = session.solver.final_assumption_conflict();
                    t.span("sat.proof.certify", |_| sat::certify_unsat(log, failed))
                        .map_err(|e| format!("UNSAT certification failed: {e}"))?;
                    t.counts.certified += 1;
                } else {
                    self.uncertified_unsat += 1;
                }
            }
            SolveOutcome::Unknown(_) => {}
        }
        self.trajectory.steps.push((k as u64, sat));
        self.trajectory.stats.push(stats);
        Ok(sat)
    }
}

/// The clause-sharing lockstep fleet of `solve_portfolio_detailed`:
/// round-robin turns of `parallel_quantum` conflicts per worker until
/// a verdict or every worker's budget is spent.
fn fleet(t: &mut Tracer, spec: &LasSpec, options: &SynthOptions) -> Result<Raw, String> {
    t.validate(spec)?;
    let encoding = t
        .span("core.encode", |_| encode(spec))
        .map_err(|e| e.to_string())?;
    t.record_encode(&encoding.cnf);
    let seeds = FLEET_SEEDS;
    let hub = Arc::new(ClauseExchange::new(seeds.len(), EXCHANGE_CAPACITY));
    let mut workers: Vec<CdclSolver> = seeds
        .iter()
        .enumerate()
        .map(|(index, &seed)| {
            t.counts.sessions += 1;
            let mut solver =
                CdclSolver::with_config(options.solver_config(CdclConfig::diversified(seed)));
            if options.certify {
                solver.enable_proof();
            }
            solver.add_cnf(&encoding.cnf);
            solver.connect_exchange(Arc::clone(&hub), index, ShareLimits::default());
            solver
        })
        .collect();
    let quantum = options.parallel_quantum.max(1);
    let mut remaining = vec![options.budget.max_conflicts; seeds.len()];
    let mut exhausted = [false; FLEET_SEEDS.len()];
    let mut winner: Option<(usize, SolveOutcome)> = None;
    'driver: while exhausted.iter().any(|done| !done) {
        for index in 0..workers.len() {
            if exhausted[index] {
                continue;
            }
            let turn = remaining[index].map_or(quantum, |r| quantum.min(r));
            let mut turn_budget = Budget::conflict_limit(turn);
            turn_budget.max_memory_words = options.budget.max_memory_words;
            let worker = &mut workers[index];
            let before = worker.session_stats();
            t.counts.turns += 1;
            let outcome = t.span("core.optimize.turn", |t| {
                t.span("sat.solver", |_| worker.solve_assuming(&[], &turn_budget))
            });
            let stats = worker.session_stats().since(before);
            t.record_solve(stats, &outcome);
            if let Some(r) = &mut remaining[index] {
                *r = r.saturating_sub(stats.conflicts);
            }
            match outcome {
                SolveOutcome::Unknown(reason) => {
                    if reason == ExhaustionReason::Memory
                        || remaining[index] == Some(0)
                        || stats.conflicts == 0
                    {
                        exhausted[index] = true;
                    }
                }
                decided => {
                    winner = Some((index, decided));
                    break 'driver;
                }
            }
        }
    }
    let stats: Vec<SolverStats> = workers.iter().map(|w| w.session_stats()).collect();
    let (step, design) = match winner {
        Some((index, SolveOutcome::Sat(model))) => {
            t.check_model(&encoding.cnf, &model)?;
            let design = t.finish_design(options, || decode(spec, &encoding, &model))?;
            ((seeds[index], Some(true)), Some(design))
        }
        Some((index, _)) => ((seeds[index], Some(false)), None),
        None => ((0, None), None),
    };
    Ok(Raw {
        decided: step.1.is_some(),
        trajectory: Trajectory {
            steps: vec![step],
            stats,
        },
        design,
        gltf_bytes: 0,
        uncertified_unsat: 0,
    })
}

/// Self time per span name: each span's duration less its direct
/// children's (spans are sequential, so children never overlap).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, Duration, u64)> {
    let mut own: Vec<Duration> = spans
        .iter()
        .map(|s| s.end.saturating_sub(s.start))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end.saturating_sub(s.start));
        }
    }
    let mut by_name: Vec<(&'static str, Duration, u64)> = Vec::new();
    for (s, d) in spans.iter().zip(own) {
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(entry) => {
                entry.1 += d;
                entry.2 += 1;
            }
            None => by_name.push((s.name, d, 1)),
        }
    }
    by_name
}
