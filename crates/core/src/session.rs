//! One solver query and one lockstep fleet of them.
//!
//! [`Session`] opens a CDCL solver on one CNF and turns what it answers
//! into a trusted verdict: a SAT model becomes a decoded,
//! validity-checked and ZX-verified design, and an UNSAT is proof-checked
//! when certifying. [`Fleet`] runs several sessions round-robin in fixed
//! conflict quanta on one thread (deterministic lockstep search:
//! Hamadi, Jabbour, Piette & Sais, JSAT 2011), with the stop flag and
//! deadline checked between quanta and each quantum a crash-isolation
//! boundary.

use crate::synthesize::{SynthError, SynthOptions, SynthResult};
use crate::verify::verify;
use lasre::LasDesign;
use sat::{
    Budget, CdclConfig, CdclSolver, ClauseExchange, Cnf, ExhaustionReason, Lit, Model, ShareLimits,
    SolveOutcome, SolverStats,
};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A CDCL solver loaded with one CNF, kept for as many solves as the
/// caller asks of it.
pub(crate) struct Session {
    solver: CdclSolver,
    certify: bool,
}

impl Session {
    /// Opens a solver on `cnf` with `base` under the run's overrides
    /// ([`SynthOptions::solver_config`]). Proof logging starts before
    /// the first clause when `options.certify`, so the log is
    /// self-contained. `frozen` literals come back as assumptions on
    /// later solves, so variable elimination must never resolve them
    /// away. `exchange` connects the solver to a clause-sharing hub as
    /// the given worker.
    pub(crate) fn open(
        options: &SynthOptions,
        base: CdclConfig,
        cnf: &Cnf,
        frozen: &[Lit],
        exchange: Option<(&Arc<ClauseExchange>, usize)>,
    ) -> Session {
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
        Session {
            solver,
            certify: options.certify,
        }
    }

    /// Solves under `assumptions` within `budget`; learnt clauses carry
    /// over to the next call.
    pub(crate) fn solve(&mut self, assumptions: &[Lit], budget: &Budget) -> SolveOutcome {
        self.solver.solve_assuming(assumptions, budget)
    }

    /// Cumulative statistics of every solve so far.
    pub(crate) fn stats(&self) -> SolverStats {
        self.solver.session_stats()
    }

    /// The DRAT log, when the session was opened certifying.
    pub(crate) fn proof(&self) -> Option<&sat::ProofLog> {
        self.solver.proof()
    }

    /// Proof-checks `outcome` if it is an UNSAT of a certifying
    /// session: the log covers every solve so far, and the failing
    /// assumption set picks out this one's refutation. Anything else
    /// passes unchecked.
    pub(crate) fn certify(&self, outcome: &SolveOutcome) -> Result<(), SynthError> {
        if !self.certify || !matches!(outcome, SolveOutcome::Unsat) {
            return Ok(());
        }
        let log = self
            .proof()
            .ok_or_else(|| SynthError::Certify("the solver kept no proof log".into()))?;
        sat::certify_unsat(log, self.solver.final_assumption_conflict())
            .map(drop)
            .map_err(|e| SynthError::Certify(e.to_string()))
    }
}

/// Turns a solve outcome into a synthesis result: a SAT model is
/// decoded, checked against the validity rules and, unless
/// `skip_verify`, ZX-verified. UNSAT outcomes must already have passed
/// [`Session::certify`].
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
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
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

/// One fleet member: a session and its share of the run's budget.
pub(crate) struct Worker<W> {
    /// What the worker owns: a seed or a depth.
    pub(crate) id: W,
    pub(crate) session: Session,
    /// Conflicts this worker may still spend; each worker gets the
    /// run's whole `max_conflicts` (`None` is unlimited).
    remaining: Option<u64>,
    /// Cumulative wall time of this worker's turns.
    pub(crate) time: Duration,
    /// Lockstep turns taken.
    pub(crate) turns: u64,
    pub(crate) state: WorkerState,
}

/// Sessions run round-robin on one thread, in worker order, at most
/// `options.parallel_quantum` conflicts per turn. Fixed order, fixed
/// quanta and no threads make two runs take the same turns and reach
/// the same counters (only the `time` fields vary).
pub(crate) struct Fleet<W> {
    /// Names a worker's `id` in crash reports ("seed", "depth").
    kind: &'static str,
    pub(crate) workers: Vec<Worker<W>>,
}

impl<W: Copy + fmt::Display> Fleet<W> {
    pub(crate) fn new(
        kind: &'static str,
        sessions: impl IntoIterator<Item = (W, Session)>,
        budget: &Budget,
    ) -> Fleet<W> {
        let workers = sessions
            .into_iter()
            .map(|(id, session)| Worker {
                id,
                session,
                remaining: budget.max_conflicts,
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
    /// decided and goes to `verdict`, which returns whether to stop.
    ///
    /// Returns why the fleet stopped without being told to: the driver's
    /// reason (the caller's stop flag, or `options.budget.max_time` as
    /// one whole-run deadline), else the first retired worker's. `None`
    /// when `verdict` stopped it or only crashes ended it.
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
        mut verdict: impl FnMut(W, &Session, SolveOutcome) -> Result<bool, SynthError>,
    ) -> Result<Option<ExhaustionReason>, SynthError> {
        let quantum = options.parallel_quantum.max(1);
        let deadline = options.budget.max_time.map(|t| Instant::now() + t);
        loop {
            let mut progressed = false;
            for worker in &mut self.workers {
                if !matches!(worker.state, WorkerState::Running) || !eligible(worker.id) {
                    continue;
                }
                if let Some(stop) = &options.budget.stop {
                    if stop.load(Ordering::Relaxed) {
                        return Ok(Some(ExhaustionReason::Cancelled));
                    }
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Ok(Some(ExhaustionReason::Deadline));
                }
                // The memory ceiling applies per worker, every turn; time
                // and stop stay with the driver, between quanta.
                let mut turn =
                    Budget::conflict_limit(worker.remaining.map_or(quantum, |r| r.min(quantum)));
                turn.max_memory_words = options.budget.max_memory_words;
                let assumptions = assumptions(worker.id);
                let before = worker.session.stats().conflicts;
                let started = Instant::now();
                // The quantum is the crash-isolation boundary: a worker
                // that panics (a solver bug, or an injected fault) is
                // quarantined and the fleet continues on the survivors.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    worker.session.solve(&assumptions, &turn)
                }));
                worker.time += started.elapsed();
                worker.turns += 1;
                progressed = true;
                let outcome = match outcome {
                    Ok(outcome) => outcome,
                    Err(payload) => {
                        worker.state = WorkerState::Crashed(panic_message(payload));
                        continue;
                    }
                };
                let spent = worker.session.stats().conflicts - before;
                if let Some(r) = &mut worker.remaining {
                    *r = r.saturating_sub(spent);
                }
                match outcome {
                    // A memory ceiling never recovers on its own.
                    SolveOutcome::Unknown(ExhaustionReason::Memory) => {
                        worker.state = WorkerState::Retired(ExhaustionReason::Memory);
                    }
                    // The turn budget is conflict-only, so the quantum ran
                    // dry; retire once the worker's own budget is spent
                    // (`spent == 0` guards against a worker that makes no
                    // progress).
                    SolveOutcome::Unknown(_) => {
                        if worker.remaining == Some(0) || spent == 0 {
                            worker.state = WorkerState::Retired(ExhaustionReason::Conflicts);
                        }
                    }
                    outcome => {
                        worker.state = WorkerState::Decided(outcome.is_sat());
                        if verdict(worker.id, &worker.session, outcome)? {
                            return Ok(None);
                        }
                    }
                }
            }
            if !progressed {
                break;
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
