//! One solver query and one lockstep fleet of them.
//!
//! [`open_solver`] loads a CDCL solver with one CNF, configured for the
//! run; the caller keeps it for as many solves as it asks. What it
//! answers becomes a trusted verdict: a SAT model is decoded,
//! validity-checked and ZX-verified ([`settle`]), and an UNSAT is
//! proof-checked when certifying ([`certify`]). [`Fleet`] runs several
//! solvers in rounds of fixed conflict quanta (deterministic lockstep
//! search: Hamadi, Jabbour, Piette & Sais, JSAT 2011). Every round's
//! turns run in parallel on scoped threads, isolated or clause-sharing
//! alike: a sharing worker imports only what its peers exported in
//! earlier rounds ([`sat::exchange`]), so the order in which a round's
//! turns run changes nothing. The deadline is checked between rounds,
//! and each quantum is a crash-isolation boundary.

use crate::synthesize::{SynthError, SynthOptions, SynthResult};
use crate::verify::verify;
use lasre::LasDesign;
use sat::{
    Budget, CdclConfig, CdclSolver, ClauseExchange, Cnf, ExhaustionReason, Lit, Model, ShareLimits,
    SolveOutcome,
};
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Opens a solver on `cnf` with `base`, armed with the run's fault plan
/// ([`SynthOptions::solver_config`]). Proof logging starts before the
/// first clause when `options.certify`, so the log is self-contained.
/// `frozen` literals come back as assumptions on later solves, so
/// variable elimination must never resolve them away. `exchange`
/// connects the solver to a clause-sharing hub as the given worker.
pub(crate) fn open_solver(
    options: &SynthOptions,
    base: CdclConfig,
    cnf: &Cnf,
    frozen: &[Lit],
    exchange: Option<(&Arc<ClauseExchange>, usize)>,
) -> CdclSolver {
    let mut solver = CdclSolver::with_config(options.solver_config(base));
    if options.certify {
        solver.enable_proof();
    }
    solver.add_cnf(cnf);
    for &lit in frozen {
        solver.freeze(lit.var());
    }
    if let Some((hub, worker)) = exchange {
        solver.connect_exchange(Arc::clone(hub), worker, ShareLimits::default());
    }
    solver
}

/// Proof-checks `outcome` if it is an UNSAT of a solver that keeps a
/// proof log, which [`open_solver`] enables exactly when certifying: the
/// log covers every solve so far, and the failing assumption set picks
/// out this one's refutation. Anything else passes unchecked.
pub(crate) fn certify(solver: &CdclSolver, outcome: &SolveOutcome) -> Result<(), SynthError> {
    match (solver.proof(), outcome) {
        (Some(log), SolveOutcome::Unsat) => {
            sat::certify_unsat(log, solver.final_assumption_conflict())
                .map(drop)
                .map_err(|e| SynthError::Certify(e.to_string()))
        }
        _ => Ok(()),
    }
}

/// Turns a solve outcome into a synthesis result: a SAT model is
/// decoded, checked against the validity rules and, unless
/// `skip_verify`, ZX-verified. UNSAT outcomes must already have passed
/// [`certify`].
pub(crate) fn settle(
    outcome: SolveOutcome,
    skip_verify: bool,
    decode: impl FnOnce(&Model) -> LasDesign,
) -> Result<SynthResult, SynthError> {
    match outcome {
        SolveOutcome::Sat(model) => {
            let mut design = decode(&model);
            let violations = lasre::check_validity(&design);
            if !violations.is_empty() {
                return Err(SynthError::InvalidDesign(violations));
            }
            if !skip_verify {
                verify(&design).map_err(SynthError::Verify)?;
                design.set_verified(true);
            }
            Ok(SynthResult::Sat(Box::new(design)))
        }
        SolveOutcome::Unsat => Ok(SynthResult::Unsat),
        SolveOutcome::Unknown(_) => Ok(SynthResult::Unknown),
    }
}

/// Renders a caught panic payload (the crash reports quarantined
/// workers carry). `panic!` with a format string yields a `String`,
/// with a literal a `&str`; anything else is opaque.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "worker panicked (non-string payload)".to_string(),
        },
    }
}

/// How far one fleet worker has got.
pub(crate) enum WorkerState {
    /// Still has budget and no verdict.
    Running,
    /// Retired without a verdict: its conflict budget is spent
    /// (`Conflicts`) or it hit the memory ceiling (`Memory`).
    Retired(ExhaustionReason),
    /// Reached a verdict: `true` = SAT, `false` = UNSAT.
    Decided(bool),
    /// Panicked mid-turn and was quarantined with this message; the
    /// fleet continued on the survivors.
    Crashed(String),
}

/// One fleet member: a solver and its share of the run's budget.
pub(crate) struct Worker<W> {
    /// What the worker owns: a seed or a depth.
    pub(crate) id: W,
    pub(crate) solver: CdclSolver,
    /// Conflicts this worker may still spend; each worker gets the
    /// run's whole `max_conflicts` (`None` is unlimited).
    remaining: Option<u64>,
    /// This worker's arena ceiling in words: an equal share of the
    /// run's `max_memory_words`, which bounds the whole fleet (`None`
    /// is unlimited).
    memory: Option<u64>,
    /// Cumulative wall time of this worker's turns.
    pub(crate) time: Duration,
    /// Lockstep turns taken.
    pub(crate) turns: u64,
    pub(crate) state: WorkerState,
}

impl<W> Worker<W> {
    /// Takes one turn of at most `quantum` conflicts under the
    /// worker's memory share, and books it: the time, the conflicts
    /// spent, and a crash or retirement as the new state. Returns the
    /// outcome when it is a verdict.
    fn take_turn(&mut self, assumptions: &[Lit], quantum: u64) -> Option<SolveOutcome> {
        let turn = Budget {
            max_conflicts: Some(self.remaining.map_or(quantum, |r| r.min(quantum))),
            max_memory_words: self.memory,
            ..Budget::default()
        };
        let before = self.solver.stats.conflicts;
        let started = Instant::now();
        // The quantum is the crash-isolation boundary: a worker that
        // panics (a solver bug, or an injected fault) is quarantined and
        // the fleet continues on the survivors.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.solver.solve_assuming(assumptions, &turn)
        }));
        self.time += started.elapsed();
        self.turns += 1;
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(payload) => {
                self.state = WorkerState::Crashed(panic_message(payload));
                return None;
            }
        };
        let spent = self.solver.stats.conflicts - before;
        if let Some(r) = &mut self.remaining {
            *r = r.saturating_sub(spent);
        }
        match outcome {
            // A memory ceiling never recovers on its own.
            SolveOutcome::Unknown(ExhaustionReason::Memory) => {
                self.state = WorkerState::Retired(ExhaustionReason::Memory);
            }
            // Otherwise the quantum ran dry; retire once the worker's own
            // budget is spent (`spent == 0` guards against a worker that
            // makes no progress).
            SolveOutcome::Unknown(_) => {
                if self.remaining == Some(0) || spent == 0 {
                    self.state = WorkerState::Retired(ExhaustionReason::Conflicts);
                }
            }
            verdict => return Some(verdict),
        }
        None
    }
}

/// Solvers run in rounds of one turn each, at most
/// `options.parallel_quantum` conflicts per turn, a round's turns in
/// parallel. Fixed quanta, imports gated by round, and verdicts settled
/// in worker order make two runs take the same turns and reach the same
/// counters (only the `time` fields vary), with or without
/// `options.share_clauses`.
pub(crate) struct Fleet<W> {
    /// Names a worker's `id` in crash reports ("seed", "depth").
    kind: &'static str,
    pub(crate) workers: Vec<Worker<W>>,
}

impl<W: Copy + Send + fmt::Display> Fleet<W> {
    /// A fleet of `solvers` under `budget`: every worker may spend the
    /// whole `max_conflicts`, while `max_memory_words` bounds the run,
    /// as the deadline does, so each of the n workers gets 1/n of it.
    pub(crate) fn new(
        kind: &'static str,
        solvers: impl IntoIterator<Item = (W, CdclSolver)>,
        budget: &Budget,
    ) -> Fleet<W> {
        let solvers: Vec<_> = solvers.into_iter().collect();
        let memory = budget
            .max_memory_words
            .map(|words| words / solvers.len().max(1) as u64);
        let workers = solvers
            .into_iter()
            .map(|(id, solver)| Worker {
                id,
                solver,
                remaining: budget.max_conflicts,
                memory,
                time: Duration::ZERO,
                turns: 0,
                state: WorkerState::Running,
            })
            .collect();
        Fleet { kind, workers }
    }

    /// Runs rounds until `verdict` asks the fleet to stop, no running
    /// worker is `eligible`, or the driver gives up. Each turn solves
    /// under `assumptions(id)`; a SAT or UNSAT outcome marks the worker
    /// decided and goes to `verdict`, which returns whether to stop. A
    /// verdict whose worker an earlier verdict of the same round made
    /// ineligible is dropped unchecked, and the worker stays undecided.
    ///
    /// Returns why the fleet stopped without being told to: the driver's
    /// deadline (`options.budget.max_time`, one whole-run wall clock),
    /// else the first retired worker's. `None` when `verdict` stopped it
    /// or only crashes ended it.
    ///
    /// # Errors
    ///
    /// Whatever `verdict` returns, and [`SynthError::WorkerPanic`] with
    /// the first crash when every worker crashed.
    pub(crate) fn run(
        &mut self,
        options: &SynthOptions,
        assumptions: impl Fn(W) -> Vec<Lit>,
        eligible: impl Fn(W) -> bool,
        mut verdict: impl FnMut(W, &CdclSolver, SolveOutcome) -> Result<bool, SynthError>,
    ) -> Result<Option<ExhaustionReason>, SynthError> {
        let quantum = options.parallel_quantum.max(1);
        let deadline = options.budget.max_time.map(|t| Instant::now() + t);
        loop {
            let round: Vec<usize> = (0..self.workers.len())
                .filter(|&index| {
                    let w = &self.workers[index];
                    matches!(w.state, WorkerState::Running) && eligible(w.id)
                })
                .collect();
            if round.is_empty() {
                break;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(Some(ExhaustionReason::Deadline));
            }
            for (index, outcome) in self.take_turns(&round, &assumptions, quantum) {
                let worker = &mut self.workers[index];
                if !eligible(worker.id) {
                    continue;
                }
                worker.state = WorkerState::Decided(outcome.is_sat());
                if verdict(worker.id, &worker.solver, outcome)? {
                    return Ok(None);
                }
            }
        }
        // A fleet with no survivors has no answer to stand on: the first
        // crash in worker order becomes the run's error.
        let quarantined = self.quarantined();
        if !quarantined.is_empty() && quarantined.len() == self.workers.len() {
            let (id, msg) = &quarantined[0];
            return Err(SynthError::WorkerPanic(format!(
                "{} {id} worker: {msg}",
                self.kind
            )));
        }
        Ok(self.workers.iter().find_map(|w| match w.state {
            WorkerState::Retired(reason) => Some(reason),
            _ => None,
        }))
    }

    /// Takes one turn for each of `members` (worker indices,
    /// ascending) on `min(available_parallelism, members)` lanes: scoped
    /// threads plus this one, each pulling the next worker until none is
    /// left, so a one-lane round spawns nothing. Returns the verdicts in
    /// worker order.
    fn take_turns(
        &mut self,
        members: &[usize],
        assumptions: &impl Fn(W) -> Vec<Lit>,
        quantum: u64,
    ) -> Vec<(usize, SolveOutcome)> {
        let turns: Vec<_> = self
            .workers
            .iter_mut()
            .enumerate()
            .filter(|(index, _)| members.contains(index))
            .map(|(index, worker)| (index, assumptions(worker.id), worker))
            .collect();
        let lanes = std::thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(turns.len());
        let queue = Mutex::new(turns.into_iter());
        let lane = || {
            let mut verdicts = Vec::new();
            loop {
                // Held only to pull the next turn, never across one.
                let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((index, lits, worker)) = next else {
                    return verdicts;
                };
                if let Some(outcome) = worker.take_turn(&lits, quantum) {
                    verdicts.push((index, outcome));
                }
            }
        };
        let mut verdicts = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..lanes).map(|_| scope.spawn(lane)).collect();
            let mut verdicts = lane();
            // A turn catches its own panics, so a failed join is a bug in
            // the bookkeeping around the solve: pass it on.
            for handle in spawned {
                verdicts.extend(handle.join().unwrap_or_else(|e| resume_unwind(e)));
            }
            verdicts
        });
        verdicts.sort_unstable_by_key(|&(index, _)| index);
        verdicts
    }

    /// Workers that crashed, as `(id, panic message)` in worker order.
    pub(crate) fn quarantined(&self) -> Vec<(W, String)> {
        self.workers
            .iter()
            .filter_map(|w| match &w.state {
                WorkerState::Crashed(msg) => Some((w.id, msg.clone())),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Conflicts bound each worker, while the memory ceiling bounds the
    /// whole fleet: three workers hold a third of it each.
    #[test]
    fn fleet_workers_share_the_memory_ceiling() {
        let solvers = (0..3u64).map(|seed| (seed, CdclSolver::with_config(CdclConfig::default())));
        let budget = Budget {
            max_conflicts: Some(50),
            max_memory_words: Some(3_000),
            ..Budget::default()
        };
        let fleet = Fleet::new("seed", solvers, &budget);
        assert_eq!(fleet.workers.len(), 3);
        for worker in &fleet.workers {
            assert_eq!(worker.remaining, Some(50));
            assert_eq!(worker.memory, Some(1_000));
        }
    }
}
