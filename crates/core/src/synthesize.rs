//! One-shot synthesis: encode → solve → decode → verify.

use crate::decode::decode;
use crate::encode::{encode, EncodeStats, Encoding};
use crate::session::{certify, open_solver, settle};
use crate::verify::VerifyError;
use lasre::{LasDesign, LasSpec, SpecError};
use sat::{Backend, Budget, CdclConfig, SolverStats, VarisatBackend};
use std::fmt;
use std::time::{Duration, Instant};

/// Which SAT backend to use.
// Constructed a handful of times per run; the embedded CdclConfig is
// large but boxing it would push indirection into every call site for
// no measurable gain.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum BackendChoice {
    /// The in-tree CDCL solver with the given configuration.
    Cdcl(CdclConfig),
    /// The `varisat` crate (budgets are not enforced by it).
    Varisat,
}

impl Default for BackendChoice {
    fn default() -> Self {
        BackendChoice::Cdcl(CdclConfig::default())
    }
}

/// Options controlling a synthesis run.
#[derive(Clone, Debug)]
pub struct SynthOptions {
    /// Solver backend selection.
    pub backend: BackendChoice,
    /// Resource limits. A one-shot solve spends them in one call. A
    /// depth search ([`crate::optimize::find_min_depth`]) and a seed
    /// portfolio treat `max_time` as one deadline and
    /// `max_memory_words` as one arena ceiling for the whole run (a
    /// lockstep fleet of n workers gives each 1/n of it), and give each
    /// solver its own `max_conflicts`: every probe of a depth walk,
    /// every worker of a lockstep fleet.
    pub budget: Budget,
    /// Verify the decoded design through ZX flow derivation (on by
    /// default; the formulation guarantees correctness, so this is a
    /// self-check, exactly as in the paper).
    pub skip_verify: bool,
    /// Emit a DRAT proof for every solve and run the in-tree backward
    /// DRAT checker on each UNSAT verdict before reporting it
    /// (`--certify`); it verifies the lemmas the refutation depends on.
    /// CDCL backend only; an UNSAT whose proof fails to check is
    /// surfaced as [`SynthError::Certify`] instead of being trusted.
    pub certify: bool,
    /// Exchange low-LBD learnt clauses between the workers of a
    /// lockstep fleet: the seeds of
    /// [`crate::optimize::solve_portfolio_detailed`], or the per-depth
    /// workers of a depth search that runs as a fleet
    /// ([`crate::optimize::searches_as_fleet`]); a depth walk has no
    /// peers and ignores it. A worker imports at the start of each
    /// turn what its peers exported in earlier rounds, so a round's
    /// turns still run in parallel and the import sequence is
    /// reproducible too; the win sought is *fewer total conflicts to a
    /// verdict*. CDCL backend only. The CLI's `--share-clauses` flag
    /// lands here.
    pub share_clauses: bool,
    /// Conflicts each worker of a lockstep fleet (every seed portfolio,
    /// and a depth search that runs as a fleet) runs per turn. Smaller
    /// quanta exchange clauses more often (and fan work out more
    /// fairly) at the cost of more restart overhead; the value only
    /// shifts *which* deterministic trajectory a run takes, and a
    /// portfolio's verdict goes to the worker needing the fewest
    /// conflicts rounded up to it.
    pub parallel_quantum: u64,
    /// Arms a deterministic injected fault ([`sat::FaultPlan`]) on
    /// every CDCL solver this run constructs — including diversified
    /// portfolio workers, whose configs are rebuilt per seed and would
    /// otherwise drop a fault armed on [`SynthOptions::backend`]. Use
    /// the plan's `only_seed` to pick one fleet member. Testing and
    /// the `LASSYNTH_FAULT` harness only; `None` (the default) is
    /// zero-cost.
    pub fault_plan: Option<sat::FaultPlan>,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            backend: BackendChoice::default(),
            budget: Budget::default(),
            skip_verify: false,
            certify: false,
            share_clauses: false,
            parallel_quantum: 2_000,
            fault_plan: None,
        }
    }
}

impl SynthOptions {
    /// Sets a wall-clock limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.budget.max_time = Some(limit);
        self
    }

    /// Uses the CDCL backend with the given seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.backend = BackendChoice::Cdcl(CdclConfig::default().with_seed(seed));
        self
    }

    /// Arms [`SynthOptions::fault_plan`] on a concrete CDCL
    /// configuration that has none of its own. Every code path that
    /// instantiates a CDCL solver — one-shot, portfolio worker,
    /// incremental depth session — runs its configuration through
    /// this.
    pub fn solver_config(&self, base: CdclConfig) -> CdclConfig {
        let mut config = base;
        if config.fault_plan.is_none() {
            config.fault_plan = self.fault_plan;
        }
        config
    }
}

/// Errors surfaced by [`Synthesizer`].
#[derive(Debug)]
pub enum SynthError {
    /// The specification is malformed.
    Spec(SpecError),
    /// The solver produced a design that fails validity checking — a
    /// bug in the encoder, reported rather than silently accepted.
    InvalidDesign(Vec<lasre::ValidityError>),
    /// The solver produced a design whose ZX flows miss spec
    /// stabilizers — likewise an encoder bug if it ever fires.
    Verify(VerifyError),
    /// `--certify` was requested and an UNSAT verdict's DRAT proof
    /// failed the in-tree checker (or the backend cannot emit proofs).
    Certify(String),
    /// Every worker of a portfolio or depth fleet crashed
    /// (panicked); the payload is the first crash's message in seed /
    /// depth order. A *partial* crash never surfaces here — the fleet
    /// continues on the survivors and reports the crashed workers as
    /// quarantined instead.
    WorkerPanic(String),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Spec(e) => write!(f, "invalid specification: {e}"),
            SynthError::InvalidDesign(errs) => {
                write!(
                    f,
                    "solver returned an invalid design ({} violations)",
                    errs.len()
                )
            }
            SynthError::Verify(e) => write!(f, "verification failed: {e}"),
            SynthError::Certify(reason) => write!(f, "UNSAT certification failed: {reason}"),
            SynthError::WorkerPanic(msg) => {
                write!(f, "every solver worker crashed; first crash: {msg}")
            }
        }
    }
}

impl std::error::Error for SynthError {}

impl From<SpecError> for SynthError {
    fn from(e: SpecError) -> Self {
        SynthError::Spec(e)
    }
}

/// Outcome of a synthesis run.
#[derive(Debug)]
pub enum SynthResult {
    /// A verified design, with solve statistics.
    Sat(Box<LasDesign>),
    /// No design exists within the given volume/ports/stabilizers.
    Unsat,
    /// The budget expired first.
    Unknown,
}

impl SynthResult {
    /// Whether a design was found.
    pub fn is_sat(&self) -> bool {
        matches!(self, SynthResult::Sat(_))
    }

    /// Whether the instance was proven unsatisfiable.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SynthResult::Unsat)
    }

    /// Extracts the design.
    ///
    /// # Panics
    ///
    /// Panics unless the result is `Sat`.
    pub fn expect_sat(self) -> LasDesign {
        match self {
            SynthResult::Sat(d) => *d,
            #[expect(clippy::panic, reason = "documented panic on a non-SAT result")]
            other => panic!("expected SAT synthesis result, got {other:?}"),
        }
    }
}

/// The LaSsynth synthesizer (paper Fig. 12a): turns a [`LasSpec`] into
/// a verified [`LasDesign`] or an unsatisfiability verdict.
///
/// ```no_run
/// use synth::{Synthesizer, SynthOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = lasre::fixtures::cnot_spec();
/// let result = Synthesizer::new(spec)?.run()?;
/// assert!(result.is_sat());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Synthesizer {
    spec: LasSpec,
    options: SynthOptions,
    encoding: Encoding,
    last_solve_time: Option<Duration>,
    last_solver_stats: Option<SolverStats>,
    last_proof: Option<sat::ProofLog>,
}

impl Synthesizer {
    /// Validates and encodes the specification.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::Spec`] if the spec is malformed.
    pub fn new(spec: LasSpec) -> Result<Synthesizer, SynthError> {
        let encoding = encode(&spec)?;
        Ok(Synthesizer {
            spec,
            options: SynthOptions::default(),
            encoding,
            last_solve_time: None,
            last_solver_stats: None,
            last_proof: None,
        })
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: SynthOptions) -> Synthesizer {
        self.options = options;
        self
    }

    /// The specification being synthesized.
    pub fn spec(&self) -> &LasSpec {
        &self.spec
    }

    /// Encoding statistics (Table I's size columns).
    pub fn stats(&self) -> EncodeStats {
        self.encoding.stats
    }

    /// The compiled CNF (e.g. for DIMACS export).
    pub fn cnf(&self) -> &sat::Cnf {
        &self.encoding.cnf
    }

    /// Wall-clock time of the most recent solve call.
    pub fn last_solve_time(&self) -> Option<Duration> {
        self.last_solve_time
    }

    /// Search statistics of the most recent solve call
    /// (decisions/conflicts/propagations/GC passes…). `None` before the
    /// first solve or when the backend does not report statistics
    /// (varisat).
    pub fn last_solver_stats(&self) -> Option<SolverStats> {
        self.last_solver_stats
    }

    /// DRAT proof log of the most recent solve, present only when
    /// [`SynthOptions::certify`] was set. For an UNSAT run this is the
    /// already-checked refutation; serialize it with
    /// [`sat::ProofLog::write_drat`] for external `drat-trim`
    /// cross-checking against the [`Self::cnf`] DIMACS.
    pub fn last_proof(&self) -> Option<&sat::ProofLog> {
        self.last_proof.as_ref()
    }

    /// Runs the solver once and decodes/verifies the outcome.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError`] for spec problems, (would-be encoder
    /// bugs) invalid/unverifiable designs, and UNSAT proofs that fail
    /// to check under [`SynthOptions::certify`].
    pub fn run(&mut self) -> Result<SynthResult, SynthError> {
        let start = Instant::now();
        self.last_proof = None;
        let outcome = match &self.options.backend {
            BackendChoice::Cdcl(config) => {
                // The solver is dropped at the end of this arm, so its
                // memory is released before decode and verify.
                let mut solver =
                    open_solver(&self.options, config.clone(), &self.encoding.cnf, &[], None);
                let outcome = solver.solve_assuming(&[], &self.options.budget);
                self.last_solver_stats = Some(solver.stats);
                certify(&solver, &outcome)?;
                self.last_proof = solver.proof().cloned();
                outcome
            }
            BackendChoice::Varisat => {
                if self.options.certify {
                    return Err(SynthError::Certify(
                        "the varisat backend cannot emit DRAT proofs; use the CDCL backend".into(),
                    ));
                }
                self.last_solver_stats = None; // varisat reports none
                VarisatBackend.solve_with(&self.encoding.cnf, &[], &self.options.budget)
            }
        };
        self.last_solve_time = Some(start.elapsed());
        settle(outcome, self.options.skip_verify, |model| {
            decode(&self.spec, &self.encoding, model)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasre::fixtures::cnot_spec;

    #[test]
    fn synthesizes_and_verifies_cnot() {
        let result = Synthesizer::new(cnot_spec()).unwrap().run().unwrap();
        let design = result.expect_sat();
        assert!(design.verified());
    }

    #[test]
    fn varisat_backend_agrees() {
        let mut s = Synthesizer::new(cnot_spec())
            .unwrap()
            .with_options(SynthOptions {
                backend: BackendChoice::Varisat,
                ..Default::default()
            });
        assert!(s.run().unwrap().is_sat());
    }

    #[test]
    fn impossible_spec_is_unsat() {
        // A CNOT needs at least one merge; with depth 1 above the port
        // padding and all interior cubes of one column forbidden, the
        // two qubits can never interact: the IZ→ZZ flow is impossible.
        let mut spec = cnot_spec();
        spec.name = "cnot-too-small".into();
        // Forbid the whole (0,0) and (1,1) columns so no routing exists.
        for k in 0..3 {
            spec.forbidden_cubes.push(lasre::Coord::new(0, 0, k));
            spec.forbidden_cubes.push(lasre::Coord::new(1, 1, k));
        }
        spec.forbidden_cubes.sort();
        spec.forbidden_cubes.dedup();
        let result = Synthesizer::new(spec).unwrap().run().unwrap();
        assert!(result.is_unsat());
    }

    /// With `certify`, the UNSAT verdict above is only reported after
    /// its DRAT proof passes the in-tree checker — and the varisat
    /// backend (no proof support) is rejected up front.
    #[test]
    fn certify_checks_unsat_and_rejects_varisat() {
        let mut spec = cnot_spec();
        spec.name = "cnot-too-small-certified".into();
        for k in 0..3 {
            spec.forbidden_cubes.push(lasre::Coord::new(0, 0, k));
            spec.forbidden_cubes.push(lasre::Coord::new(1, 1, k));
        }
        spec.forbidden_cubes.sort();
        spec.forbidden_cubes.dedup();
        let mut s = Synthesizer::new(spec.clone())
            .unwrap()
            .with_options(SynthOptions {
                certify: true,
                ..Default::default()
            });
        assert!(s.run().unwrap().is_unsat());

        let mut s = Synthesizer::new(spec).unwrap().with_options(SynthOptions {
            certify: true,
            backend: BackendChoice::Varisat,
            ..Default::default()
        });
        assert!(matches!(s.run(), Err(SynthError::Certify(_))));
    }

    #[test]
    fn budget_gives_unknown_on_tiny_limit() {
        let mut spec = cnot_spec();
        spec.name = "cnot-budgeted".into();
        let mut s = Synthesizer::new(spec).unwrap().with_options(SynthOptions {
            budget: sat::Budget::conflict_limit(0),
            ..Default::default()
        });
        // A zero-conflict budget may still solve trivially-propagating
        // instances; accept either Sat or Unknown but never a panic.
        let r = s.run().unwrap();
        assert!(!r.is_unsat());
    }

    #[test]
    fn seeds_change_search_not_verdict() {
        for seed in [1, 7, 42] {
            let mut s = Synthesizer::new(cnot_spec())
                .unwrap()
                .with_options(SynthOptions::default().with_seed(seed));
            assert!(s.run().unwrap().is_sat(), "seed {seed}");
        }
    }
}
