//! Untraced passes: each spec goes through the library entry point a
//! user reaches through the CLI (`Synthesizer::run`,
//! `optimize::find_min_depth`, `optimize::solve_portfolio_detailed`),
//! and the benchmark checks the answer after the clock stops.

use crate::cases::{Case, Workload, DEPTH_RANGE, FLEET_SEEDS};
use lasre::LasDesign;
use sat::SolverStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use synth::optimize::{find_min_depth, solve_portfolio_detailed};
use synth::{SynthOptions, SynthResult, Synthesizer};

/// What a spec's search did, as deterministic counters: the verdict
/// steps it took (probe depth or winning seed, with `Some(true)` SAT,
/// `Some(false)` UNSAT, `None` undecided) and the solver statistics of
/// every probe or fleet worker. Two runs of the same build on the same
/// spec must produce equal trajectories.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trajectory {
    pub steps: Vec<(u64, Option<bool>)>,
    pub stats: Vec<SolverStats>,
}

/// The answer to one spec.
pub struct Answer {
    /// Spec to answer, benchmark checks excluded.
    pub time: Duration,
    /// SAT, or a certified UNSAT/optimum, within budget.
    pub decided: bool,
    pub trajectory: Trajectory,
    /// Why the answer is wrong, if it is: an error, a panic, or a
    /// failed check.
    pub failure: Option<String>,
}

/// One closed-loop pass over a workload's specs.
pub struct Pass {
    pub wall: Duration,
    pub answers: Vec<Answer>,
}

impl Pass {
    /// A pass's wall time is its answers' time: the closed loop submits
    /// the next spec as soon as an answer is back and checked.
    pub fn of(answers: Vec<Answer>) -> Pass {
        Pass {
            wall: answers.iter().map(|a| a.time).sum(),
            answers,
        }
    }
}

pub fn untraced_pass(workload: Workload, cases: &[Case], reference: &[usize]) -> Pass {
    let options = workload.options();
    let answers: Vec<Answer> = cases
        .iter()
        .map(|case| {
            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| run_case(workload, case, &options)));
            let time = started.elapsed();
            answer(workload, case, reference, time, outcome, "")
        })
        .collect();
    Pass::of(answers)
}

/// Checks a case's outcome and turns it into its answer.
pub fn answer(
    workload: Workload,
    case: &Case,
    reference: &[usize],
    time: Duration,
    outcome: std::thread::Result<Result<Raw, String>>,
    label: &str,
) -> Answer {
    let (decided, trajectory, failure) = match outcome {
        Ok(Ok(raw)) => {
            let failure = raw.check(workload, case, reference).err();
            (raw.decided, raw.trajectory, failure)
        }
        Ok(Err(e)) => (false, Trajectory::default(), Some(e)),
        Err(_) => (false, Trajectory::default(), Some("panicked".into())),
    };
    Answer {
        time,
        decided,
        trajectory,
        failure: failure.map(|f| format!("{}{label}: {f}", case.name)),
    }
}

/// An answer still to be checked.
pub struct Raw {
    pub decided: bool,
    pub trajectory: Trajectory,
    /// The design of a SAT answer (the minimal one of a depth search).
    pub design: Option<LasDesign>,
    /// The glTF export of the design (majority workload only).
    pub gltf_bytes: usize,
    /// A depth search's UNSAT probes that carry no checked proof.
    pub uncertified_unsat: usize,
}

fn run_case(workload: Workload, case: &Case, options: &SynthOptions) -> Result<Raw, String> {
    match workload {
        Workload::GraphDepthCertified => {
            let (lo, hi, start) = DEPTH_RANGE;
            let search =
                find_min_depth(&case.spec, lo, hi, start, options).map_err(|e| e.to_string())?;
            let trajectory = Trajectory {
                steps: search
                    .probes
                    .iter()
                    .map(|p| (p.max_k as u64, p.sat))
                    .collect(),
                stats: search
                    .probes
                    .iter()
                    .map(|p| p.stats.unwrap_or_default())
                    .collect(),
            };
            let uncertified_unsat = search
                .probes
                .iter()
                .filter(|p| p.sat == Some(false) && !p.certified)
                .count();
            Ok(Raw {
                decided: search.exhaustion.is_none() && search.best.is_some(),
                trajectory,
                design: search.best,
                gltf_bytes: 0,
                uncertified_unsat,
            })
        }
        Workload::MajoritySynth | Workload::TFactoryBudget => {
            let mut synth = Synthesizer::new(case.spec.clone())
                .map_err(|e| e.to_string())?
                .with_options(options.clone());
            let result = synth.run().map_err(|e| e.to_string())?;
            let (sat, design) = split(result);
            let gltf_bytes = match (&design, workload) {
                (Some(d), Workload::MajoritySynth) => export(d).len(),
                _ => 0,
            };
            Ok(Raw {
                decided: sat.is_some(),
                trajectory: Trajectory {
                    steps: vec![(0, sat)],
                    stats: vec![synth.last_solver_stats().unwrap_or_default()],
                },
                design,
                gltf_bytes,
                uncertified_unsat: 0,
            })
        }
        Workload::TFactoryFleet => {
            let outcome = solve_portfolio_detailed(&case.spec, &FLEET_SEEDS, options)
                .map_err(|e| e.to_string())?;
            let winner = outcome.winner_seed.unwrap_or(0);
            let (sat, design) = split(outcome.result);
            Ok(Raw {
                decided: sat.is_some(),
                trajectory: Trajectory {
                    steps: vec![(winner, sat)],
                    stats: outcome
                        .worker_stats
                        .iter()
                        .map(|(_, s)| s.unwrap_or_default())
                        .collect(),
                },
                design,
                gltf_bytes: 0,
                uncertified_unsat: 0,
            })
        }
    }
}

fn split(result: SynthResult) -> (Option<bool>, Option<LasDesign>) {
    match result {
        SynthResult::Sat(d) => (Some(true), Some(*d)),
        SynthResult::Unsat => (Some(false), None),
        SynthResult::Unknown => (None, None),
    }
}

/// The majority workload's export step: the design as a glTF scene.
pub fn export(design: &LasDesign) -> String {
    viz::gltf::to_gltf(&viz::Scene::from_design(
        design,
        viz::SceneOptions::default(),
    ))
}

/// A SAT design must pass the validity rules and ZX flow verification
/// again, outside the library.
pub fn check_design(design: &LasDesign) -> Result<(), String> {
    if !design.verified() {
        return Err("design not marked verified".into());
    }
    let violations = lasre::check_validity(design);
    if !violations.is_empty() {
        return Err(format!("{} validity violations", violations.len()));
    }
    synth::verify::verify(design).map_err(|e| format!("ZX verification failed: {e}"))?;
    Ok(())
}

impl Raw {
    /// The workload's answer checks.
    pub fn check(
        &self,
        workload: Workload,
        case: &Case,
        reference: &[usize],
    ) -> Result<(), String> {
        if let Some(design) = &self.design {
            check_design(design)?;
        }
        let verdict = self.trajectory.steps.last().and_then(|s| s.1);
        match workload {
            Workload::GraphDepthCertified => {
                if self.uncertified_unsat > 0 {
                    return Err(format!(
                        "{} UNSAT probes lack a checked proof",
                        self.uncertified_unsat
                    ));
                }
                let depth = self.design.as_ref().map(|d| d.spec().max_k);
                let expected = case.graph.map(|g| reference[g]);
                if depth != expected {
                    return Err(format!("optimal depth {depth:?}, reference {expected:?}"));
                }
            }
            Workload::MajoritySynth => {
                if verdict != Some(true) {
                    return Err(format!("expected a design, got {verdict:?}"));
                }
                if self.gltf_bytes == 0 {
                    return Err("empty glTF export".into());
                }
            }
            Workload::TFactoryBudget | Workload::TFactoryFleet => {
                if verdict == Some(false) {
                    return Err("UNSAT, but the paper has a design at this depth".into());
                }
            }
        }
        Ok(())
    }
}
