//! A conflict-driven clause-learning (CDCL) SAT solver over a flat
//! clause arena.
//!
//! This is the workspace's substitute for Kissat: a MiniSat-family
//! solver with two-watched-literal propagation, first-UIP conflict
//! analysis with clause minimization, VSIDS decision ordering, phase
//! saving with target-phase rephasing, Luby or adaptive LBD-EMA
//! restarts (see [`restart`]), out-of-order chronological backtracking,
//! inprocessing (see [`inprocess`]) and LBD/activity-based
//! learnt-clause deletion. Restarts, phase saving, minimization and
//! deletion are always on. Each long-run technique has one
//! [`CdclConfig`] value: `None` keeps it off and `Some(n)` turns it on
//! from the n-th session conflict (C-bt, EMA restarts, tiers, variable
//! elimination), or every n conflicts for rephasing; subsumption is a
//! plain switch. [`CdclConfig::diversified`] varies them across
//! portfolio workers. The seed randomizes initial activities and
//! polarities, reproducing the paper's "random seed: more is
//! different" observation.
//!
//! # The relaxed trail invariant (out-of-order C-bt)
//!
//! Classically the trail is sorted by decision level. Chronological
//! backtracking (Nadel–Ryvchin) relaxes this: a conflict whose
//! backjump would discard many levels backs up a *single* level
//! instead, and literals may be enqueued *below* the current decision
//! level — unit learnts at level 0 without abandoning the kept levels,
//! implications discovered while re-propagating a surviving
//! out-of-order literal at that literal's own level. (Non-unit
//! asserting literals deliberately assert at the backtrack level, not
//! at the distant true assertion level `bt`: keeping their
//! implications local preserves the cheap conflict cascade that makes
//! C-bt pay — see the chrono step in `solve`.) The consequences, all
//! handled here:
//!
//! * the trail is ordered by assignment time, not level; a reason's
//!   literals still always precede the implied literal;
//! * `cancel_until` removes exactly the literals *above* the target
//!   level, compacting surviving out-of-order assignments down and
//!   re-queuing the ones this propagation pass never reached;
//! * a falsified clause conflicts at the maximum level among its
//!   literals, which can lie below the current decision level —
//!   `solve` backs down to it before analysis, and conflict analysis
//!   resolves only on literals *at* that level (lower-level literals
//!   go into the learnt clause, exactly as in an ordinary backjump);
//! * a falsified clause with a single literal at its conflict level is
//!   a *missed lower implication*: it is repaired (pop one level,
//!   re-propagate the literal from the clause) instead of analyzed —
//!   re-learning the clause would add nothing;
//! * `propagate` keeps out-of-order implications local: a clause unit
//!   under an out-of-order literal but containing a false literal from
//!   a higher level is re-watched on that literal and re-examined only
//!   when a backtrack wakes it.
//!
//! # Clause arena layout
//!
//! All clauses live in one contiguous `Vec<u32>` ([`ClauseArena`]), the
//! layout industrial solvers use to keep propagation cache-friendly. A
//! clause is addressed by a [`ClauseRef`]: the word offset of its
//! header. Each clause occupies `HEADER_WORDS + len` words:
//!
//! ```text
//! word 0   len << 6 | tier << 4 | used << 2 | deleted << 1 | learnt
//! word 1   LBD (literal block distance)
//! word 2   activity (f32 bit pattern)
//! word 3…  literal codes (Lit::code), the two watched lits in slots 0/1
//! ```
//!
//! # Three-tier learnt-clause database
//!
//! Past [`CdclConfig::tiers_from`] session conflicts the learnt
//! clauses split into the three retention tiers of
//! COMiniSatPS/MapleSAT (Oh's scheme): **core** (LBD ≤ 3, kept
//! forever), **tier2** (LBD ≤ 6, demoted to local when unused for two
//! `reduce_db` intervals — the 2-bit `used` counter in the header is
//! reset on every conflict-analysis participation and counted down by
//! the tier-maintenance sweep), and **local** (everything else,
//! activity-sorted, halved by `reduce_db`). Clauses promote when their
//! LBD improves: conflict analysis recomputes the LBD of every clause
//! it resolves on and keeps the minimum, and the sweep re-files each
//! clause by its current header LBD. Before activation all learnts
//! live in the local tier and `reduce_db` applies the classic
//! single-list policy, so small lucky-trajectory instances keep their
//! exact conflict trajectories (same rationale as
//! [`CdclConfig::chrono_from`]).
//!
//! # Garbage collection protocol
//!
//! `reduce_db` first *marks* the doomed half of the learnt clauses
//! (high LBD, low activity, not locked as a reason) by setting the
//! `deleted` header bit, then immediately runs a GC that compacts the
//! arena in place:
//!
//! 1. one walk over the arena, front to back, gives every live clause
//!    the offset it will have once the deleted clauses are squeezed
//!    out. The clause's LBD word moves to one reused side buffer and
//!    the new offset takes its place;
//! 2. the `clauses` ref list, the three learnt tier lists, the touched
//!    work list, every watcher list, and every trail `reason` are
//!    rewritten to those offsets. References to deleted clauses drop
//!    out here, so tombstones never survive into `propagate`, and a
//!    watch list left with more than twice its length in capacity
//!    releases the excess;
//! 3. a second walk slides each live clause down to its offset, puts
//!    its LBD word back, and the arena is truncated to the live prefix.
//!
//! There is no second arena: the pass reuses the buffer it compacts,
//! whose capacity never grows. Live clauses keep their relative order,
//! and no search decision reads the order of offsets anyway. Because
//! step 1 walks the arena rather than the ref lists, the pass relies
//! on one invariant: every live arena clause sits in exactly one ref
//! list (the auditor checks it). After GC the arena length equals the
//! sum of live clause sizes — deleted clauses' memory is actually
//! reclaimed, not tombstoned.
//!
//! # Watcher invariants
//!
//! * `watches[l.code()]` holds one [`Watcher`] per clause currently
//!   watching `l`; it is visited when `l` becomes false.
//! * The two watched literals of a clause are always in slots 0 and 1.
//! * Every attached clause has exactly two watchers, and a clause that
//!   is the reason for a trail literal keeps that asserting literal in
//!   a watched slot (slot 0 for longer clauses, either slot for binary
//!   ones), which is what lets `reduce_db` detect locked clauses
//!   without a side table.
//! * Watchers of binary clauses carry a tag bit and the other literal
//!   as their blocker, so propagation over binary clauses never reads
//!   the arena at all.
//! * Watchers are updated *in place* by index compaction — `propagate`
//!   never `mem::take`s or reallocates a watch list on the hot path.
//!
//! # Allocation discipline
//!
//! The steady-state search loop (propagate → analyze → backtrack) is
//! heap-allocation-free: conflict analysis resolves directly over arena
//! indices (no clause is ever cloned), the learnt-clause scratch buffer
//! and the `seen`/`to_clear` marks are reused across conflicts, and the
//! LBD of a learnt clause is computed with a generation-stamped level
//! array instead of sort+dedup. Allocations happen only when a buffer's
//! high-water mark grows (new deepest clause, a watch list outgrowing
//! the capacity the last GC left it) and in the rare `reduce_db` pass.
//!
//! # Incremental solving
//!
//! [`CdclSolver`] doubles as a MiniSat-style incremental session:
//! [`CdclSolver::new_var`] and [`CdclSolver::add_clause`] may be called
//! before *and between* solves, and repeated
//! [`CdclSolver::solve_assuming`] calls share one persistent solver
//! state. Everything the search learns is retained across calls — the
//! clause arena (original and learnt clauses), VSIDS activities, saved
//! phases and the restart schedule — which is what makes closely
//! related queries (the depth probes of
//! `synth::optimize::find_min_depth`) far cheaper than re-solving from
//! scratch. The invariants:
//!
//! * between calls the solver sits at decision level 0; `add_clause`
//!   backtracks there itself, so clauses may be added right after a
//!   SAT answer;
//! * learnt clauses never embed assumptions as facts (assumptions are
//!   pseudo-decisions, so they appear *negated inside* learnt clauses),
//!   hence every retained clause is a consequence of the added clauses
//!   alone and stays sound when the assumptions change;
//! * facts derived at level 0 (including a root-level conflict, which
//!   latches `root_unsat`) are permanent;
//! * [`Budget`] limits are per *call*, not per session.
//!
//! After an UNSAT answer, [`CdclSolver::final_assumption_conflict`]
//! returns the subset of the assumptions the refutation actually used
//! (MiniSat's `analyzeFinal`), empty when the clauses are contradictory
//! on their own.
//!
//! Inprocessing-time bounded variable elimination (see [`elim`])
//! removes variables from the live formula; a session that will
//! mention a variable in *future* clauses or assumptions must declare
//! it via [`CdclSolver::freeze`] (and may [`CdclSolver::melt`] it
//! later). Variables of the current call's assumptions are protected
//! automatically, and a clause or assumption arriving over an already
//! eliminated variable reintroduces it from the elimination stack
//! before solving.

use crate::exchange::{ClauseExchange, ShareLimits};
use crate::proof::ProofLog;
use crate::{Backend, Budget, Cnf, ExhaustionReason, Lit, Model, SolveOutcome, Var};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

mod audit;
mod elim;
mod fault;
mod inprocess;
mod restart;

use audit::AuditPoint;
use elim::ElimFrame;
pub use fault::{FaultKind, FaultPlan};

use restart::{RephaseKind, RephaseSched, RestartDecision, RestartSched};

/// Whether a technique gated at `from` is live after `conflicts`
/// session conflicts: `None` keeps it off, `Some(n)` turns it on from
/// the n-th conflict (`Some(0)` from the first).
fn gate_open(from: Option<u64>, conflicts: u64) -> bool {
    from.is_some_and(|n| conflicts >= n)
}

/// Tuning knobs for [`CdclSolver`]. Each long-run technique has one
/// activation value: `None` keeps it off, `Some(n)` turns it on from
/// the n-th session conflict.
#[derive(Clone, Debug)]
pub struct CdclConfig {
    /// Seed for initial activities and random polarities.
    pub seed: u64,
    /// Multiplicative VSIDS decay applied after each conflict.
    pub var_decay: f64,
    /// Luby restart unit, in conflicts. The Luby schedule drives
    /// restarts whenever adaptive restarts are inactive.
    pub restart_base: u64,
    /// Session conflicts from which Glucose-style LBD-EMA adaptive
    /// restarts with trail blocking take over from the Luby schedule
    /// (see the [`restart`](self) module docs); `None` keeps Luby
    /// throughout. Adaptive restarts are long-run steering: gating
    /// them keeps small lucky-trajectory instances on their exact Luby
    /// trajectories (same rationale as [`CdclConfig::chrono_from`]).
    pub ema_restarts_from: Option<u64>,
    /// Minimum conflicts between EMA-triggered restarts (and the
    /// postponement applied when a restart is blocked).
    pub ema_min_interval: u64,
    /// Conflicts between target-phase rephase passes (stretched
    /// geometrically per pass); `None` disables rephasing. Small
    /// instances finish before the first pass.
    pub rephase_interval: Option<u64>,
    /// Probability of flipping the saved polarity on a decision.
    pub random_polarity_freq: f64,
    /// Lower bound on the learnt-clause budget before the first DB
    /// reduction. The budget starts at `max(num_clauses / 3, floor)`;
    /// tests lower the floor to force frequent GC passes.
    pub max_learnts_floor: f64,
    /// Enable subsumption and self-subsuming resolution during
    /// inprocessing passes.
    pub use_subsumption: bool,
    /// Restrict backward subsumption to clauses touched (learnt,
    /// strengthened, added) since the previous pass instead of
    /// sweeping the whole database; every fifth pass still sweeps
    /// everything as a fallback.
    pub subsumption_touched_only: bool,
    /// Session conflicts from which chronological backtracking
    /// (Nadel–Ryvchin C-bt) is live; `None` keeps it off. When a
    /// conflict's backjump would discard more than one level, C-bt
    /// backs up a single level instead, keeping the intermediate
    /// assignments; unit learnts and recovered missed implications are
    /// enqueued out-of-order below the current decision level (see the
    /// module docs on the relaxed trail invariant). C-bt is a
    /// *long-run* optimization: on the T-factory instances it nearly
    /// triples conflict throughput, but on small lucky-trajectory
    /// instances (the majority gate solves in ~164 conflicts) a single
    /// chronological backtrack can forfeit the lucky path and cost 10×
    /// the conflicts. Gating activation on the conflict count gives big
    /// instances the win without perturbing small ones.
    pub chrono_from: Option<u64>,
    /// Conflicts between inprocessing passes (subsumption and variable
    /// elimination run at the first restart boundary past the
    /// threshold). The interval stretches geometrically with each pass
    /// so inprocessing cost stays a bounded fraction of the search.
    pub inprocess_interval: u64,
    /// Literal-comparison budget of one subsumption pass.
    pub subsumption_check_budget: u64,
    /// Session conflicts from which the three-tier learnt-clause
    /// database (core / tier2 / local) is live; `None` keeps the
    /// single-list policy. See the [module docs](self). Like
    /// [`CdclConfig::chrono_from`], a long-run optimization: gating it
    /// keeps small lucky-trajectory instances on their exact legacy
    /// trajectories.
    pub tiers_from: Option<u64>,
    /// Session conflicts from which inprocessing passes also run
    /// bounded variable elimination (the resolution half of SatELite;
    /// see [`elim`]); `None` keeps it off. Gated for the same reason as
    /// [`CdclConfig::tiers_from`].
    pub elim_from: Option<u64>,
    /// Literal-comparison budget of one variable-elimination pass.
    pub elim_check_budget: u64,
    /// Enable the deep solver-state auditor (see [`solver::audit`](self)):
    /// after propagation, conflict analysis, backtracking, garbage
    /// collection and every inprocessing pass the full state is checked
    /// against the watcher/trail/reason/arena/heap invariants, and SAT
    /// answers are model-checked against the clause database. Off by
    /// default (the checkpoints then cost one predictable branch);
    /// `LASSYNTH_AUDIT=1` in the environment turns the auditor on for
    /// every solver regardless of this flag.
    pub audit: bool,
    /// Deterministic one-shot fault to inject (see [`fault`](self)):
    /// a forced panic, a corrupted exported clause, a frozen proof
    /// log, or a simulated arena-growth failure, each at a fixed
    /// trigger point. `None` (the default) costs one branch per
    /// conflict; `LASSYNTH_FAULT` in the environment arms a plan for
    /// every solver whose seed it matches, regardless of this field.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for CdclConfig {
    fn default() -> Self {
        CdclConfig {
            seed: 0,
            var_decay: 0.95,
            restart_base: 100,
            ema_restarts_from: Some(2000),
            ema_min_interval: 50,
            rephase_interval: Some(10_000),
            random_polarity_freq: 0.0,
            max_learnts_floor: 1000.0,
            // The reference inprocessing mix is A/B-tuned on the
            // budgeted Fig. 17 probe: eager, wide-margin variable
            // elimination under the tier database wins ~1.4x in
            // propagations per conflict, and subsumption on every pass
            // protects that trajectory.
            use_subsumption: true,
            subsumption_touched_only: true,
            chrono_from: Some(2000),
            inprocess_interval: 3_000,
            subsumption_check_budget: 500_000,
            tiers_from: Some(2000),
            elim_from: Some(2000),
            elim_check_budget: 16_000_000,
            audit: false,
            fault_plan: None,
        }
    }
}

impl CdclConfig {
    /// A configuration differing only in seed — used for portfolios.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A diversified portfolio member: besides the activity seed, the
    /// restart cadence and schedule, VSIDS decay, polarity
    /// randomization, rephasing and the activation of every long-run
    /// technique (subsumption, variable elimination, the tier
    /// database, chronological backtracking) vary per seed, so
    /// portfolio workers explore genuinely different search
    /// trajectories (not just different tie-breaking).
    pub fn diversified(seed: u64) -> Self {
        let mut config = CdclConfig::default().with_seed(seed);
        match seed % 4 {
            0 => {} // the reference configuration (inprocessing defaults)
            1 => {
                // Adaptive restarts and fully chronological
                // backtracking from the first conflict, with aggressive
                // activity decay.
                config.var_decay = 0.85;
                config.chrono_from = Some(0);
                config.ema_restarts_from = Some(0);
            }
            2 => {
                // Long Luby runs between restarts, occasionally flipped
                // phases, no inprocessing, no adaptive machinery at all
                // (the pre-inprocessing solver, as a hedge against
                // pathological passes).
                config.restart_base = 400;
                config.ema_restarts_from = None;
                config.random_polarity_freq = 0.02;
                config.use_subsumption = false;
                config.chrono_from = None;
                config.rephase_interval = None;
                config.tiers_from = None;
                config.elim_from = None;
            }
            _ => {
                // Slow decay, eager rephasing and eager, bigger-budget
                // full-database subsumption and elimination from the
                // first conflict, without chronological backtracking.
                config.var_decay = 0.99;
                config.inprocess_interval = 500;
                config.subsumption_check_budget = 4_000_000;
                config.elim_check_budget = 4_000_000;
                config.tiers_from = Some(0);
                config.elim_from = Some(0);
                config.subsumption_touched_only = false;
                config.chrono_from = None;
                config.rephase_interval = Some(2_000);
            }
        }
        config
    }
}

/// Declares [`SolverStats`] from one list of counters: the struct
/// itself plus everything that walks every counter — the element-wise
/// [`SolverStats::since`] and [`SolverStats::merged`], and the
/// name/value list [`SolverStats::counters`] that printers and
/// reports read. A new counter is one more line in the list.
macro_rules! solver_stats {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Counters reported after each solve.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct SolverStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl SolverStats {
            /// The counters accumulated since an earlier snapshot — the
            /// per-call view of an incremental session, whose `stats`
            /// field otherwise grows monotonically across
            /// `solve_assuming` calls.
            pub fn since(self, earlier: SolverStats) -> SolverStats {
                SolverStats {
                    $($name: self.$name.saturating_sub(earlier.$name),)*
                }
            }

            /// Element-wise sum of two snapshots — the portfolio's "total
            /// work" aggregate across workers.
            pub fn merged(self, other: SolverStats) -> SolverStats {
                SolverStats {
                    $($name: self.$name + other.$name,)*
                }
            }

            /// Every counter as `(field name, value)`, in declaration
            /// order.
            pub fn counters(self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($name), self.$name),)*].into_iter()
            }

            /// A snapshot whose counters are 1, 2, 3, … in declaration
            /// order, so no two are equal.
            #[cfg(test)]
            fn numbered() -> SolverStats {
                let mut n = 0;
                SolverStats {
                    $($name: {
                        n += 1;
                        n
                    },)*
                }
            }
        }
    };
}

solver_stats! {
    /// Number of decisions made.
    decisions,
    /// Number of conflicts analyzed.
    conflicts,
    /// Number of literal propagations.
    propagations,
    /// Number of restarts performed.
    restarts,
    /// Number of clauses learnt.
    learned,
    /// Number of learnt clauses deleted by DB reduction.
    deleted,
    /// Literals removed by learnt-clause minimization.
    minimized_lits,
    /// Number of clause-database garbage-collection passes.
    gc_passes,
    /// Arena words reclaimed by garbage collection.
    gc_reclaimed_words,
    /// Clauses deleted because another clause subsumes them.
    subsumed_clauses,
    /// Clauses shortened by self-subsuming resolution.
    strengthened_clauses,
    /// Conflicts resolved by a chronological (one-level) backtrack
    /// instead of the full backjump.
    chrono_backtracks,
    /// Literals enqueued *below* the current decision level (the
    /// out-of-order assignments chronological backtracking introduces:
    /// asserting literals at their true assertion level, units whose
    /// reasons live entirely at lower levels).
    oob_enqueues,
    /// Conflicts that were really missed lower-level implications: the
    /// falsified clause had a single literal at its conflict level, so
    /// the solver undid that literal and propagated it at the level the
    /// clause implied it all along, instead of analyzing.
    missed_implications,
    /// EMA-triggered restarts postponed because the trail was unusually
    /// deep (Glucose-style restart blocking).
    restarts_blocked,
    /// Rephase passes applied (saved phases reset to the best-trail
    /// snapshot / inverted / random).
    rephases,
    /// Variables removed by bounded variable elimination (net of
    /// reintroductions forced by later clauses or assumptions).
    eliminated_vars,
    /// Resolvent clauses added by variable elimination.
    elim_resolvents,
    /// Learnt clauses exported to the clause exchange (counted once
    /// per clause, not per receiving worker).
    exported_clauses,
    /// Clauses received from the clause exchange (before the import
    /// filter).
    imported_clauses,
    /// Received clauses that passed the importer's RUP re-check and
    /// were attached (or asserted, for units).
    imported_kept,
    /// Solves that gave up because the conflict budget expired.
    exhausted_conflicts,
    /// Solves that gave up because the propagation budget expired.
    exhausted_propagations,
    /// Solves that gave up because the wall-clock deadline passed.
    exhausted_deadline,
    /// Solves that gave up at the memory ceiling (or on a simulated
    /// arena-growth failure).
    exhausted_memory,
    /// Solves that gave up because the cooperative stop flag was
    /// raised.
    exhausted_cancelled,
}

impl SolverStats {
    /// The exhaustion reason of the most recent give-up recorded in
    /// this snapshot view, preferring the per-call [`SolverStats::since`]
    /// delta: with at most one give-up per solve call, exactly one
    /// counter is non-zero in a per-call delta. On merged/aggregate
    /// snapshots this reports the dominant (highest-count) reason.
    pub fn exhaustion_reason(&self) -> Option<crate::ExhaustionReason> {
        use crate::ExhaustionReason as R;
        [
            (self.exhausted_conflicts, R::Conflicts),
            (self.exhausted_propagations, R::Propagations),
            (self.exhausted_deadline, R::Deadline),
            (self.exhausted_memory, R::Memory),
            (self.exhausted_cancelled, R::Cancelled),
        ]
        .into_iter()
        .filter(|&(n, _)| n > 0)
        .max_by_key(|&(n, _)| n)
        .map(|(_, r)| r)
    }
}

/// The CDCL solver. See the [module docs](self) for the feature list.
///
/// ```
/// use sat::{Backend, Budget, CdclSolver, Cnf, Lit, Var};
/// let mut cnf = Cnf::new(1);
/// cnf.add_clause([Lit::pos(Var(0))]);
/// let out = CdclSolver::default().solve_with(&cnf, &[], &Budget::default());
/// assert!(out.is_sat());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CdclSolver {
    /// Configuration used for subsequent solves. For the incremental
    /// API the configuration is captured when the session starts (the
    /// first `new_var`/`add_clause`/`solve_assuming` call).
    pub config: CdclConfig,
    /// Statistics of the most recent *one-shot* solve
    /// ([`Backend::solve_with`]) only. Incremental
    /// ([`CdclSolver::solve_assuming`]) counters live in the session
    /// and are read via [`CdclSolver::session_stats`] — the two never
    /// mix, so interleaving one-shot and session solves cannot corrupt
    /// either side's deltas.
    pub stats: SolverStats,
    /// The persistent incremental session, created lazily. One-shot
    /// [`Backend::solve_with`] calls use a throwaway state and leave
    /// the session untouched.
    session: Option<State>,
}

impl CdclSolver {
    /// Creates a solver with the given configuration.
    pub fn with_config(config: CdclConfig) -> Self {
        CdclSolver {
            config,
            stats: SolverStats::default(),
            session: None,
        }
    }

    fn session_mut(&mut self) -> &mut State {
        if self.session.is_none() {
            self.session = Some(State::empty(self.config.clone()));
        }
        self.session.as_mut().expect("session just created") // lint:allow(no-panic)
    }

    /// Number of variables in the incremental session (0 before the
    /// session starts).
    pub fn num_vars(&self) -> usize {
        self.session.as_ref().map_or(0, |s| s.num_vars)
    }

    /// Allocates a fresh variable in the incremental session. May be
    /// called between solves; all per-variable solver state grows in
    /// step.
    pub fn new_var(&mut self) -> Var {
        self.session_mut().new_var()
    }

    /// Adds a clause to the incremental session. Callable before and
    /// between solves: the solver first backtracks to decision level 0,
    /// then simplifies the clause against the root-level assignment.
    /// Variables are grown on demand.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let lits: Vec<Lit> = lits.into_iter().collect();
        let state = self.session_mut();
        let needed = lits.iter().map(|l| l.var().index() + 1).max().unwrap_or(0);
        state.ensure_vars(needed);
        state.add_clause_checked(&lits);
    }

    /// Bulk-loads a formula into the incremental session (variables
    /// first, then every clause).
    pub fn add_cnf(&mut self, cnf: &Cnf) {
        self.session_mut().load_cnf(cnf);
    }

    /// Solves the incremental session under `assumptions` within
    /// `budget` (budget limits are per call). The clause database,
    /// learnt clauses, activities and phases persist to the next call.
    ///
    /// # Panics
    ///
    /// Panics if an assumption names a variable the session does not
    /// have (call [`CdclSolver::new_var`]/[`CdclSolver::add_clause`]
    /// first).
    pub fn solve_assuming(&mut self, assumptions: &[Lit], budget: &Budget) -> SolveOutcome {
        self.session_mut().solve(assumptions, budget)
    }

    /// Cumulative statistics of the incremental session (zero before
    /// it starts, monotone across `solve_assuming` calls). The
    /// [`CdclSolver::stats`] field mirrors one-shot
    /// [`Backend::solve_with`] calls only, so the two sources never
    /// mix; this accessor is the baseline for
    /// [`SolverStats::since`] per-call deltas.
    pub fn session_stats(&self) -> SolverStats {
        self.session
            .as_ref()
            .map_or_else(SolverStats::default, |s| s.stats)
    }

    /// After [`CdclSolver::solve_assuming`] returned
    /// [`SolveOutcome::Unsat`]: the subset of the assumptions the
    /// refutation used — the session's clauses are unsatisfiable under
    /// these assumptions alone. Empty when the clauses are
    /// contradictory without any assumption. Cleared by the next solve.
    pub fn final_assumption_conflict(&self) -> &[Lit] {
        self.session
            .as_ref()
            .map_or(&[], |s| s.assumption_conflict.as_slice())
    }

    /// Declares that `v` must survive inprocessing: bounded variable
    /// elimination will never resolve it away. Callers that will
    /// mention a variable in *future* `add_clause`/`solve_assuming`
    /// calls (activation literals of a layered encoding, selector
    /// variables) must freeze it up front; variables of the current
    /// call's assumptions are protected automatically. Freezing an
    /// already eliminated variable reintroduces it first. Grows the
    /// variable space on demand.
    pub fn freeze(&mut self, v: Var) {
        let state = self.session_mut();
        state.ensure_vars(v.index() + 1);
        state.freeze_var(v);
    }

    /// Releases a [`CdclSolver::freeze`] declaration: `v` becomes
    /// eligible for elimination again at the next inprocessing pass.
    ///
    /// # Panics
    ///
    /// Panics if the session does not have `v`.
    pub fn melt(&mut self, v: Var) {
        let state = self.session_mut();
        assert!(v.index() < state.num_vars, "melt of unknown variable {v}");
        state.frozen[v.index()] = false;
    }

    /// Enables DRAT proof logging on the incremental session. Must be
    /// called *before* any clause is added — the log must capture every
    /// clause the solver ever holds to be checkable. Logging is purely
    /// observational: it never changes a search decision, so enabling
    /// it leaves conflict/propagation trajectories bit-identical.
    pub fn enable_proof(&mut self) {
        let state = self.session_mut();
        assert!(
            state.num_added_clauses == 0,
            "enable_proof must precede the session's first add_clause"
        );
        state.proof = Some(Box::default());
    }

    /// The session's proof log (`None` unless
    /// [`CdclSolver::enable_proof`] was called). After an UNSAT
    /// answer the log ends in the refutation: the empty clause for a
    /// root-level conflict, or the negation of
    /// [`CdclSolver::final_assumption_conflict`] for UNSAT under
    /// assumptions — [`crate::proof::certify_unsat`] checks both.
    pub fn proof(&self) -> Option<&ProofLog> {
        self.session.as_ref().and_then(|s| s.proof.as_deref())
    }

    /// Connects the incremental session to a clause-exchange hub as
    /// worker `worker` (its inbox index; it never publishes to itself).
    ///
    /// Exports happen as clauses are learnt — every learnt unit, and
    /// every learnt clause within `limits` — and are counted in
    /// [`SolverStats::exported_clauses`]. Imports happen only at
    /// deterministic points (entry to
    /// [`CdclSolver::solve_assuming`] and restart boundaries, both at
    /// decision level 0): each drained clause is re-verified by
    /// reverse unit propagation against the session's own database
    /// before it is attached, and logged as a derived proof step, so
    /// sharing composes with [`CdclSolver::enable_proof`] and
    /// incremental solving. A clause that fails the re-check (already
    /// satisfied at root, or not RUP here yet) is skipped —
    /// [`SolverStats::imported_kept`] vs
    /// [`SolverStats::imported_clauses`] reports the ratio.
    ///
    /// Exchange applies to the incremental session only; one-shot
    /// [`Backend::solve_with`] calls use a throwaway state and never
    /// share.
    pub fn connect_exchange(
        &mut self,
        hub: Arc<ClauseExchange>,
        worker: usize,
        limits: ShareLimits,
    ) {
        assert!(
            worker < hub.num_workers(),
            "worker index {worker} out of range for a {}-worker exchange",
            hub.num_workers()
        );
        self.session_mut().exchange = Some(ExchangeLink {
            hub,
            worker,
            limits,
        });
    }
}

impl Backend for CdclSolver {
    fn solve_with(&mut self, cnf: &Cnf, assumptions: &[Lit], budget: &Budget) -> SolveOutcome {
        let mut state = State::new(cnf, self.config.clone());
        let outcome = state.solve(assumptions, budget);
        self.stats = state.stats;
        outcome
    }
}

/// Offset of a clause header in the arena. `ClauseRef::NONE` doubles as
/// the "no reason" marker on the trail.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ClauseRef(u32);

impl ClauseRef {
    const NONE: ClauseRef = ClauseRef(u32::MAX);
}

/// Words of metadata preceding a clause's literals: packed
/// `len/tier/used/deleted/learnt`, LBD, and activity (f32 bits).
const HEADER_WORDS: usize = 3;
const LEARNT_BIT: u32 = 1;
const DELETED_BIT: u32 = 2;
/// 2-bit saturating `used` counter: reset to 2 when conflict analysis
/// resolves on the clause, counted down by the tier-maintenance sweep
/// of `reduce_db` — a tier2 clause reaching 0 demotes to local.
const USED_SHIFT: u32 = 2;
const USED_MASK: u32 = 0b11 << USED_SHIFT;
/// 2-bit retention tier ([`TIER_CORE`]/[`TIER_TIER2`]/[`TIER_LOCAL`]),
/// meaningful for learnt clauses only. The tier bits always agree with
/// the ref list holding the clause (an audited invariant).
const TIER_SHIFT: u32 = 4;
const TIER_MASK: u32 = 0b11 << TIER_SHIFT;
const LEN_SHIFT: u32 = 6;
/// Learnt-clause retention tiers, indexing `State::learnts`.
const TIER_CORE: usize = 0;
const TIER_TIER2: usize = 1;
const TIER_LOCAL: usize = 2;
/// Conflict interval between tiered `reduce_db` sweeps (Glucose's
/// schedule), used instead of the `max_learnts` size trigger while the
/// tier database is active.
const TIER_REDUCE_BASE: u64 = 2000;
/// Per-sweep stretch of the tiered reduce interval.
const TIER_REDUCE_STEP: u64 = 300;
/// The flat clause store. See the [module docs](self) for the layout.
#[derive(Clone, Debug, Default)]
struct ClauseArena {
    data: Vec<u32>,
    /// The LBD word of every live clause, in arena order, while a GC
    /// pass borrows that word for the clause's new offset (see
    /// [`ClauseArena::assign_offsets`]). Reused across passes.
    lbd_stash: Vec<u32>,
}

impl ClauseArena {
    /// Appends a clause, returning its reference.
    fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        let off = self.data.len();
        // 31-bit confinement leaves the top bit free for BINARY_FLAG.
        assert!(
            off + HEADER_WORDS + lits.len() < (1usize << 31),
            "clause arena exceeds 31-bit addressing"
        );
        // The length field is 26 bits wide.
        assert!(
            lits.len() < (1 << 26),
            "clause exceeds the header length field"
        );
        let header = ((lits.len() as u32) << LEN_SHIFT) | (learnt as u32 * LEARNT_BIT);
        self.data.push(header);
        self.data.push(lbd);
        self.data.push(0f32.to_bits());
        self.data.extend(lits.iter().map(|l| l.code() as u32));
        ClauseRef(off as u32)
    }

    #[inline]
    fn len(&self, c: ClauseRef) -> usize {
        (self.data[c.0 as usize] >> LEN_SHIFT) as usize
    }

    #[inline]
    fn is_learnt(&self, c: ClauseRef) -> bool {
        self.data[c.0 as usize] & LEARNT_BIT != 0
    }

    #[inline]
    fn is_deleted(&self, c: ClauseRef) -> bool {
        self.data[c.0 as usize] & DELETED_BIT != 0
    }

    fn mark_deleted(&mut self, c: ClauseRef) {
        self.data[c.0 as usize] |= DELETED_BIT;
    }

    /// Retention tier of a learnt clause (meaningless for originals).
    #[inline]
    fn tier(&self, c: ClauseRef) -> usize {
        ((self.data[c.0 as usize] & TIER_MASK) >> TIER_SHIFT) as usize
    }

    fn set_tier(&mut self, c: ClauseRef, tier: usize) {
        let h = &mut self.data[c.0 as usize];
        *h = (*h & !TIER_MASK) | ((tier as u32) << TIER_SHIFT);
    }

    /// The 2-bit `used` counter (conflict-analysis participation since
    /// the last tier-maintenance sweeps).
    #[inline]
    fn used(&self, c: ClauseRef) -> u32 {
        (self.data[c.0 as usize] & USED_MASK) >> USED_SHIFT
    }

    fn set_used(&mut self, c: ClauseRef, used: u32) {
        debug_assert!(used <= 3);
        let h = &mut self.data[c.0 as usize];
        *h = (*h & !USED_MASK) | (used << USED_SHIFT);
    }

    #[inline]
    fn lbd(&self, c: ClauseRef) -> u32 {
        self.data[c.0 as usize + 1]
    }

    fn set_lbd(&mut self, c: ClauseRef, lbd: u32) {
        self.data[c.0 as usize + 1] = lbd;
    }

    #[inline]
    fn activity(&self, c: ClauseRef) -> f32 {
        f32::from_bits(self.data[c.0 as usize + 2])
    }

    fn set_activity(&mut self, c: ClauseRef, a: f32) {
        self.data[c.0 as usize + 2] = a.to_bits();
    }

    #[inline]
    fn lit(&self, c: ClauseRef, i: usize) -> Lit {
        Lit::from_code(self.data[c.0 as usize + HEADER_WORDS + i] as usize)
    }

    /// The literals of `c`, read straight from its arena words.
    fn lits(&self, c: ClauseRef) -> impl Iterator<Item = Lit> + Clone + '_ {
        let base = c.0 as usize + HEADER_WORDS;
        self.data[base..base + self.len(c)]
            .iter()
            .map(|&w| Lit::from_code(w as usize))
    }

    #[inline]
    fn swap_lits(&mut self, c: ClauseRef, i: usize, j: usize) {
        let base = c.0 as usize + HEADER_WORDS;
        self.data.swap(base + i, base + j);
    }

    /// The number of words `c` occupies, header included.
    #[inline]
    fn words(&self, c: ClauseRef) -> usize {
        HEADER_WORDS + self.len(c)
    }

    /// GC step 1 (see module docs): walks the arena front to back and
    /// gives every live clause the offset it will have once the deleted
    /// ones are squeezed out. The new offset goes into the clause's LBD
    /// word, whose value waits in `lbd_stash` until
    /// [`ClauseArena::compact`] puts it back.
    fn assign_offsets(&mut self) {
        self.lbd_stash.clear();
        let (mut off, mut to) = (0, 0);
        while off < self.data.len() {
            let c = ClauseRef(off as u32);
            let words = self.words(c);
            if !self.is_deleted(c) {
                self.lbd_stash.push(self.data[off + 1]);
                self.data[off + 1] = to as u32;
                to += words;
            }
            off += words;
        }
    }

    /// The offset [`ClauseArena::assign_offsets`] gave `c`, or `None`
    /// if the clause is being collected. Valid only between the two
    /// GC steps.
    fn forwarded(&self, c: ClauseRef) -> Option<ClauseRef> {
        (!self.is_deleted(c)).then(|| ClauseRef(self.data[c.0 as usize + 1]))
    }

    /// GC step 3: slides every live clause down to its assigned offset,
    /// restores its LBD word and truncates the arena to the live
    /// prefix. Clauses only move down, and each lands below the next
    /// one's header, so one front-to-back walk never overwrites a word
    /// it has yet to read.
    fn compact(&mut self) {
        let (mut off, mut live) = (0, 0);
        let mut end = 0;
        while off < self.data.len() {
            let c = ClauseRef(off as u32);
            let words = self.words(c);
            if !self.is_deleted(c) {
                let to = self.data[off + 1] as usize;
                self.data.copy_within(off..off + words, to);
                self.data[to + 1] = self.lbd_stash[live];
                live += 1;
                end = to + words;
            }
            off += words;
        }
        self.data.truncate(end);
    }
}

/// Tag bit marking a watcher of a binary clause (arena offsets are
/// confined to 31 bits by `ClauseArena::alloc`). Binary clauses are
/// resolved entirely from the watcher — blocker true ⇒ satisfied,
/// blocker false ⇒ conflict, otherwise the blocker is the unit — so
/// propagation over them never touches the arena at all.
const BINARY_FLAG: u32 = 1 << 31;

#[derive(Clone, Copy, Debug)]
struct Watcher {
    /// Clause offset, with [`BINARY_FLAG`] folded into the top bit.
    tagged: u32,
    blocker: Lit,
}

impl Watcher {
    fn new(cref: ClauseRef, blocker: Lit, binary: bool) -> Watcher {
        Watcher {
            tagged: cref.0 | if binary { BINARY_FLAG } else { 0 },
            blocker,
        }
    }

    #[inline]
    fn cref(self) -> ClauseRef {
        ClauseRef(self.tagged & !BINARY_FLAG)
    }

    #[inline]
    fn is_binary(self) -> bool {
        self.tagged & BINARY_FLAG != 0
    }
}

/// Indexed max-heap ordered by VSIDS activity.
#[derive(Clone, Debug)]
struct VarOrder {
    heap: Vec<u32>,
    pos: Vec<i64>,
    activity: Vec<f64>,
}

impl VarOrder {
    fn new(n: usize) -> Self {
        VarOrder {
            heap: Vec::with_capacity(n),
            pos: vec![-1; n],
            activity: vec![0.0; n],
        }
    }

    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] >= 0
    }

    fn insert(&mut self, v: u32) {
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len() as i64;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1);
    }

    fn pop_max(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty"); // lint:allow(no-panic)
        self.pos[top as usize] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    fn bumped(&mut self, v: u32) {
        if self.contains(v) {
            self.sift_up(self.pos[v as usize] as usize);
        }
    }

    fn better(&self, a: u32, b: u32) -> bool {
        self.activity[a as usize] > self.activity[b as usize]
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.better(self.heap[i], self.heap[parent]) {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.better(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.better(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a as i64;
        self.pos[self.heap[b] as usize] = b as i64;
    }
}

/// Whether a cooperative cancellation flag is raised. Shared by the
/// search loop's budget poll, the restart-boundary prompt exit, and
/// the inprocessing pass-boundary checks.
fn stop_requested(stop: Option<&AtomicBool>) -> bool {
    stop.is_some_and(|s| s.load(Ordering::Relaxed))
}

/// The governor's pass-boundary halt test: the stop flag or the wall
/// deadline, whichever trips first. Used between inprocessing passes
/// and every 1024 elimination candidates, so a solve that has run out
/// of time stops starting new simplification work. With neither limit
/// set this is two `Option` tests — zero-cost off.
fn governor_halt(stop: Option<&AtomicBool>, deadline: Option<Instant>) -> bool {
    stop_requested(stop) || deadline.is_some_and(|d| Instant::now() >= d)
}

/// A session's connection to a [`ClauseExchange`] hub
/// ([`CdclSolver::connect_exchange`]).
#[derive(Clone, Debug)]
struct ExchangeLink {
    hub: Arc<ClauseExchange>,
    /// This session's worker index (owns inbox `worker`, never
    /// publishes to it).
    worker: usize,
    /// Export admission bounds; import accepts everything that passes
    /// the RUP re-check.
    limits: ShareLimits,
}

#[derive(Clone, Debug)]
struct State {
    config: CdclConfig,
    stats: SolverStats,
    rng: SmallRng,
    num_vars: usize,
    arena: ClauseArena,
    /// Refs of the original (problem) clauses, in attach order.
    clauses: Vec<ClauseRef>,
    /// Refs of the live learnt clauses, split into the three retention
    /// tiers (core / tier2 / local — see the module docs). Until
    /// `tiers_active` flips, every learnt clause lives in
    /// [`TIER_LOCAL`] and the other two lists stay empty.
    learnts: [Vec<ClauseRef>; 3],
    watches: Vec<Vec<Watcher>>,
    /// Assignment value per *literal* code (`1` true, `-1` false,
    /// `0` unassigned): the blocker test in `propagate` is the hottest
    /// load in the solver, and indexing by literal makes it a single
    /// unconditional read with no sign fix-up.
    lit_val: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    order: VarOrder,
    polarity: Vec<bool>,
    var_inc: f64,
    cla_inc: f64,
    max_learnts: f64,
    seen: Vec<bool>,
    /// Variables whose `seen` flag is set during the current analysis.
    to_clear: Vec<u32>,
    /// DFS stack for the recursive redundancy check, reused.
    analyze_stack: Vec<Lit>,
    /// Learnt-clause scratch, reused across conflicts.
    learnt_buf: Vec<Lit>,
    /// Scratch for the literals a partial backtrack keeps (out-of-order
    /// assignments at or below the target level), reused.
    trail_keep: Vec<Lit>,
    /// Whether out-of-order machinery is live: the session is past
    /// `CdclConfig::chrono_from`.
    /// Until this flips, the trail is level-sorted and `propagate`
    /// skips all assertion-level bookkeeping.
    oob_active: bool,
    /// Whether the three-tier learnt database is live: the session is
    /// past `CdclConfig::tiers_from`. Until this
    /// flips, attach/analyze/reduce keep the exact legacy single-list
    /// behavior.
    tiers_active: bool,
    /// Per-variable polarity snapshot of the deepest trail seen since
    /// the last rephase (the *target phases*).
    target_phase: Vec<bool>,
    /// Rephasing schedule (interval, kind rotation, best-trail gate).
    rephase: RephaseSched,
    /// Per-level generation stamps for LBD computation.
    lbd_stamp: Vec<u32>,
    lbd_gen: u32,
    /// Conflict count that triggers the next inprocessing pass (checked
    /// at restart boundaries, where the solver sits at level 0).
    next_inprocess: u64,
    /// Inprocessing passes run so far — stretches the interval.
    inprocess_passes: u64,
    /// Conflict count that triggers the next tier maintenance +
    /// local-tier halving while the tier database is active (0 until
    /// the first post-activation check seeds it).
    next_reduce: u64,
    /// Tiered `reduce_db` sweeps run so far — stretches the interval.
    reductions: u64,
    /// Clauses attached since the last subsumption pass (learnt,
    /// strengthened, user-added) — the work list of
    /// touched-only subsumption. Rewritten to the new offsets by GC
    /// like every other ref list.
    touched: Vec<ClauseRef>,
    /// Subsumption passes run so far — schedules the periodic full
    /// sweep under `subsumption_touched_only`.
    subsumption_passes: u64,
    /// True while the import RUP check probes decisions it will
    /// immediately undo; suppresses phase saving so probing cannot
    /// pollute the search's saved polarities.
    phase_probing: bool,
    root_unsat: bool,
    /// Per-variable freeze marks ([`CdclSolver::freeze`]): frozen
    /// variables are never eliminated.
    frozen: Vec<bool>,
    /// Per-variable elimination marks: an eliminated variable has no
    /// live clause mentioning it, is never decided on, and stays
    /// unassigned until reconstruction (or reintroduction) — all
    /// audited invariants.
    eliminated: Vec<bool>,
    /// Transient per-solve marks of the current call's assumption
    /// variables — protected from elimination like frozen ones, but
    /// cleared (via `last_assumed`) when the next call starts, so a
    /// variable assumed once is not fenced off forever.
    assumed: Vec<bool>,
    /// The variables marked in `assumed`, for O(assumptions) clearing.
    last_assumed: Vec<u32>,
    /// Elimination stack for model reconstruction: one frame per
    /// eliminated variable holding every original clause that
    /// mentioned it, in elimination order. SAT models are completed by
    /// walking the stack in reverse (see [`elim`]); reintroduction
    /// pops frames LIFO.
    elim_stack: Vec<ElimFrame>,
    /// Per-variable retry marks for bounded variable elimination:
    /// `true` means the variable's *original* occurrences changed since
    /// its last elimination attempt, so the next pass should retry it.
    /// Every site that adds, deletes, strengthens, or promotes an
    /// original clause marks its variables — steady-state passes then
    /// skip the (vast) quiesced majority instead of re-running the
    /// quadratic resolve-and-check on every variable.
    elim_dirty: Vec<bool>,
    /// Clauses added so far (before root simplification) — sizes the
    /// learnt-clause budget at each solve.
    num_added_clauses: usize,
    /// The failing assumption subset of the last UNSAT solve.
    assumption_conflict: Vec<Lit>,
    /// DRAT proof trace ([`CdclSolver::enable_proof`]): every clause
    /// the solver holds, derives or deletes, in order. `None` (the
    /// default) makes every hook a single branch; logging never
    /// influences the search.
    proof: Option<Box<ProofLog>>,
    /// Clause-exchange connection, if this session participates in a
    /// sharing portfolio. `None` (the default) keeps every hook a
    /// single branch, exactly like proof logging.
    exchange: Option<ExchangeLink>,
    /// Whether the deep state auditor is active (`CdclConfig::audit` or
    /// `LASSYNTH_AUDIT=1`); sampled once at construction.
    audit_on: bool,
    /// Armed fault-injection plan (`CdclConfig::fault_plan` or
    /// `LASSYNTH_FAULT`, filtered by seed); sampled once at
    /// construction, exactly like the auditor switch.
    fault: Option<FaultPlan>,
    /// One-shot latch: a fired fault never fires again in the session
    /// (so e.g. a simulated arena-growth failure leaves the session
    /// sound for a re-solve).
    fault_fired: bool,
}

impl State {
    /// An empty incremental session: no variables, no clauses. Grown by
    /// [`State::new_var`]/[`State::add_clause_checked`].
    fn empty(config: CdclConfig) -> State {
        let rng = SmallRng::seed_from_u64(config.seed);
        let max_learnts = config.max_learnts_floor;
        let next_inprocess = config.inprocess_interval;
        let rephase = RephaseSched::new(&config);
        let audit_on = config.audit || audit::env_enabled();
        let fault = config
            .fault_plan
            .or_else(FaultPlan::from_env)
            .filter(|plan| plan.applies_to(config.seed));
        State {
            config,
            stats: SolverStats::default(),
            rng,
            num_vars: 0,
            arena: ClauseArena::default(),
            clauses: Vec::new(),
            learnts: [Vec::new(), Vec::new(), Vec::new()],
            watches: Vec::new(),
            lit_val: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: VarOrder::new(0),
            polarity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            max_learnts,
            seen: Vec::new(),
            to_clear: Vec::new(),
            analyze_stack: Vec::new(),
            learnt_buf: Vec::new(),
            trail_keep: Vec::new(),
            oob_active: false,
            tiers_active: false,
            target_phase: Vec::new(),
            rephase,
            lbd_stamp: vec![0],
            lbd_gen: 0,
            next_inprocess,
            inprocess_passes: 0,
            next_reduce: 0,
            reductions: 0,
            touched: Vec::new(),
            subsumption_passes: 0,
            phase_probing: false,
            root_unsat: false,
            frozen: Vec::new(),
            eliminated: Vec::new(),
            assumed: Vec::new(),
            last_assumed: Vec::new(),
            elim_stack: Vec::new(),
            elim_dirty: Vec::new(),
            num_added_clauses: 0,
            assumption_conflict: Vec::new(),
            proof: None,
            exchange: None,
            audit_on,
            fault,
            fault_fired: false,
        }
    }

    fn new(cnf: &Cnf, config: CdclConfig) -> State {
        let mut st = State::empty(config);
        st.load_cnf(cnf);
        st
    }

    fn load_cnf(&mut self, cnf: &Cnf) {
        self.ensure_vars(cnf.num_vars());
        self.arena
            .data
            .reserve(cnf.num_lits() + HEADER_WORDS * cnf.num_clauses());
        self.clauses.reserve(cnf.num_clauses());
        for clause in cnf {
            self.add_clause_checked(clause);
            if self.root_unsat {
                break;
            }
        }
    }

    /// Allocates a fresh variable, growing every per-variable structure
    /// (callable between solves).
    fn new_var(&mut self) -> Var {
        let v = self.num_vars;
        self.num_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.lit_val.push(0);
        self.lit_val.push(0);
        self.level.push(0);
        self.reason.push(ClauseRef::NONE);
        self.polarity.push(false);
        self.target_phase.push(false);
        self.seen.push(false);
        self.frozen.push(false);
        self.eliminated.push(false);
        self.assumed.push(false);
        self.elim_dirty.push(true);
        // One stamp per possible decision level (0..=num_vars).
        self.lbd_stamp.push(0);
        self.order.pos.push(-1);
        // Tiny random jitter diversifies runs across seeds.
        let jitter = self.rng.random_range(0.0..1e-6);
        self.order.activity.push(jitter);
        self.order.insert(v as u32);
        Var(v as u32)
    }

    fn ensure_vars(&mut self, n: usize) {
        while self.num_vars < n {
            self.new_var();
        }
    }

    /// Adds a clause between solves: backtracks to level 0 first, then
    /// root-simplifies and attaches. A clause mentioning an eliminated
    /// variable reintroduces it (and, LIFO, everything eliminated
    /// after it) before the clause attaches. A root-level
    /// contradiction latches `root_unsat` permanently.
    fn add_clause_checked(&mut self, lits: &[Lit]) {
        if self.root_unsat {
            // A root-level contradiction is permanent, but a clause
            // arriving after it is still a well-defined part of the
            // session's formula: count it and log it as an input
            // (conjoining a clause to an unsatisfiable set keeps it
            // unsatisfiable), without simplifying it against the
            // contradictory trail or touching eliminated variables.
            self.num_added_clauses += 1;
            self.proof_add_input(lits);
            return;
        }
        self.cancel_until(0);
        for &l in lits {
            if self.eliminated[l.var().index()] {
                self.restore_var(l.var().index());
                if self.root_unsat {
                    self.num_added_clauses += 1;
                    self.proof_add_input(lits);
                    return;
                }
            }
        }
        self.num_added_clauses += 1;
        // Restorations above must hit the log before the new input
        // does: re-adding an eliminated clause is a RAT step whose
        // pivot must have no live resolution partner yet.
        self.proof_add_input(lits);
        if !self.add_original_clause(lits) {
            self.root_unsat = true;
        }
    }

    #[inline]
    fn value(&self, lit: Lit) -> i8 {
        self.lit_val[lit.code()]
    }

    #[inline]
    fn is_unassigned(&self, v: usize) -> bool {
        self.lit_val[2 * v] == 0
    }

    // Proof-logging hooks. Each is a single branch when logging is off
    // and never touches search state, so trajectories are identical
    // with and without a log.

    #[inline]
    fn proof_add_input(&mut self, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.add_input(lits);
        }
    }

    #[inline]
    fn proof_add_derived(&mut self, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.add_derived(lits);
        }
    }

    #[inline]
    fn proof_add_empty(&mut self) {
        if let Some(p) = &mut self.proof {
            p.add_derived(&[]);
        }
    }

    /// Logs the deletion of an attached clause by its current arena
    /// literals. Valid until the next GC pass compacts the arena, so
    /// every `mark_deleted` site calls this alongside the mark.
    fn proof_delete_cref(&mut self, cref: ClauseRef) {
        if let Some(p) = &mut self.proof {
            p.delete_iter(self.arena.lits(cref));
        }
    }

    fn add_original_clause(&mut self, lits: &[Lit]) -> bool {
        // Root-level simplification: dedup, drop false lits, detect
        // tautologies and satisfied clauses.
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            if self.value(l) == 1 {
                return true; // already satisfied at root
            }
            if self.value(l) == -1 {
                continue;
            }
            if c.contains(&!l) {
                return true; // tautology
            }
            if !c.contains(&l) {
                c.push(l);
            }
        }
        match c.len() {
            0 => {
                // Every literal was false at root: the live clauses
                // refute the formula by propagation alone.
                self.proof_add_empty();
                false
            }
            1 => {
                // The root-simplified unit is RUP (the as-given clause
                // minus root-falsified literals); log it when
                // simplification actually changed something.
                if c.as_slice() != lits {
                    self.proof_add_derived(&c);
                }
                if self.value(c[0]) == -1 {
                    self.proof_add_empty();
                    return false;
                }
                if self.value(c[0]) == 0 {
                    self.enqueue(c[0], ClauseRef::NONE);
                    // Propagate eagerly so later clauses simplify more.
                    if self.propagate().is_some() {
                        self.proof_add_empty();
                        return false;
                    }
                }
                true
            }
            _ => {
                if c.as_slice() != lits {
                    self.proof_add_derived(&c);
                }
                // A new original changes its variables' resolution
                // partner sets: queue them for the next BVE pass.
                for &l in &c {
                    self.elim_dirty[l.var().index()] = true;
                }
                self.attach_clause(&c, false, 0);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        if learnt {
            self.stats.learned += 1;
        }
        self.attach_clause_quiet(lits, learnt, lbd)
    }

    /// [`State::attach_clause`] without the `learned` counter bump —
    /// inprocessing uses it to attach *replacements* of existing
    /// clauses, which are rewrites, not new derivations.
    fn attach_clause_quiet(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt, lbd);
        let binary = lits.len() == 2;
        self.watches[lits[0].code()].push(Watcher::new(cref, lits[1], binary));
        self.watches[lits[1].code()].push(Watcher::new(cref, lits[0], binary));
        if learnt {
            // Route by LBD once the tier database is live; until then
            // everything goes to local (the legacy single list). A
            // fresh learnt starts with a full `used` countdown — it
            // just participated in the conflict that derived it.
            let tier = if self.tiers_active {
                Self::tier_for_lbd(lbd)
            } else {
                TIER_LOCAL
            };
            self.arena.set_tier(cref, tier);
            if self.tiers_active {
                self.arena.set_used(cref, 2);
            }
            self.learnts[tier].push(cref);
        } else {
            self.clauses.push(cref);
        }
        // Every freshly attached clause (learnt, strengthened or
        // user-added) is new subsumption evidence: queue it for the
        // next touched-only pass.
        self.touched.push(cref);
        cref
    }

    /// Removes the two watchers of an attached clause. Inprocessing
    /// detaches a clause immediately when marking it deleted, so
    /// `propagate` never visits a tombstone between a deletion and the
    /// GC pass that reclaims it.
    fn detach_clause(&mut self, cref: ClauseRef) {
        for k in 0..2 {
            let l = self.arena.lit(cref, k);
            let list = &mut self.watches[l.code()];
            let pos = list
                .iter()
                .position(|w| w.cref() == cref)
                .expect("attached clause has a watcher on each watched literal"); // lint:allow(no-panic)
            list.swap_remove(pos);
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: ClauseRef) {
        self.enqueue_at(lit, reason, self.decision_level());
    }

    /// Assigns `lit` at an explicit assertion `level`, which may lie
    /// *below* the current decision level (an out-of-order assignment:
    /// every literal of `reason` other than `lit` must be false at
    /// levels ≤ `level`). The literal still goes to the *end* of the
    /// trail — the trail is ordered by assignment time, not by level —
    /// and a partial backtrack to any level ≥ `level` keeps it.
    fn enqueue_at(&mut self, lit: Lit, reason: ClauseRef, level: u32) {
        debug_assert_eq!(self.value(lit), 0);
        debug_assert!(level <= self.decision_level());
        if level < self.decision_level() {
            self.stats.oob_enqueues += 1;
        }
        let v = lit.var().index();
        self.lit_val[lit.code()] = 1;
        self.lit_val[(!lit).code()] = -1;
        self.level[v] = level;
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    // lint:hot-path — propagate/analyze/backtrack are the inner loop of
    // the search; every scratch buffer is preallocated and reused
    // (`std::mem::take` round-trips), so an allocation call appearing
    // below is a performance bug. `cargo run -p xtask -- lint` enforces
    // this until the matching `lint:hot-path-end` marker.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let dl = self.decision_level();
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Assertion level of implications derived from `p`. With a
            // level-sorted trail this is the decision level; once
            // out-of-order assignments exist, implications of a
            // lower-level literal assert at the maximum level of the
            // reason clause's false literals — `p`'s own level for
            // binary clauses, a clause scan for longer ones (only when
            // `p` itself is out-of-order; otherwise `p`'s literal in
            // the clause already attains the maximum).
            let p_level = self.level[p.var().index()];
            let false_lit = !p;
            let wl = false_lit.code();
            // In-place compaction: surviving watchers slide down to `j`.
            // Watchers migrating to a new literal are pushed onto that
            // literal's list, which is never `wl` (the new watch is
            // non-false while `false_lit` is false), so `n` is stable.
            let n = self.watches[wl].len();
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < n {
                let w = self.watches[wl][i];
                i += 1;
                let blocker_val = self.value(w.blocker);
                if blocker_val == 1 {
                    self.watches[wl][j] = w;
                    j += 1;
                    continue;
                }
                // Binary fast path: the blocker IS the other literal, so
                // the clause resolves without touching the arena.
                if w.is_binary() {
                    self.watches[wl][j] = w;
                    j += 1;
                    if blocker_val == -1 {
                        // Conflict: keep the remaining watchers and
                        // stop. `qhead` stays where it is — conflict
                        // handling always backtracks, and cancel_until
                        // re-queues exactly the surviving literals this
                        // propagation pass never reached.
                        while i < n {
                            let rest = self.watches[wl][i];
                            self.watches[wl][j] = rest;
                            j += 1;
                            i += 1;
                        }
                        self.watches[wl].truncate(j);
                        return Some(w.cref());
                    }
                    // The clause is {blocker, ¬p}: its only false
                    // literal is ¬p, so the blocker asserts at `p`'s
                    // level exactly.
                    self.enqueue_at(w.blocker, w.cref(), p_level);
                    continue;
                }
                let cref = w.cref();
                debug_assert!(!self.arena.is_deleted(cref), "tombstone survived GC");
                // Make sure the false literal is at position 1.
                if self.arena.lit(cref, 0) == false_lit {
                    self.arena.swap_lits(cref, 0, 1);
                }
                let first = self.arena.lit(cref, 0);
                let w_new = Watcher::new(cref, first, false);
                if first != w.blocker && self.value(first) == 1 {
                    self.watches[wl][j] = w_new;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.arena.len(cref);
                for k in 2..len {
                    let lk = self.arena.lit(cref, k);
                    if self.value(lk) != -1 {
                        self.arena.swap_lits(cref, 1, k);
                        self.watches[lk.code()].push(w_new);
                        continue 'watchers;
                    }
                }
                // Unit or conflict.
                if self.value(first) == -1 {
                    // Conflict: keep this and the remaining watchers
                    // and stop (see the binary conflict path for why
                    // `qhead` is left alone).
                    self.watches[wl][j] = w_new;
                    j += 1;
                    while i < n {
                        let rest = self.watches[wl][i];
                        self.watches[wl][j] = rest;
                        j += 1;
                        i += 1;
                    }
                    self.watches[wl].truncate(j);
                    return Some(cref);
                }
                // Every literal but `first` is false. When `p` sits at
                // the current decision level its own literal attains
                // the maximum false level, and `first` asserts here and
                // now. When `p` is *out-of-order*, the clause implies
                // `first` at the maximum false level — if that maximum
                // lies above `p`'s level, defer the implication: watch
                // the highest-level false literal instead (its
                // falsification already had its watcher round, so the
                // clause sleeps until a backtrack unassigns it). The
                // deferral keeps out-of-order propagation *local* —
                // implications only fire at `p`'s own level — which is
                // what stops exact assertion levels from flooding low
                // levels and forcing deep conflict-level backtracks.
                if p_level != dl {
                    let mut max_k = 1;
                    let mut max_level = p_level;
                    for k in 2..len {
                        let lv = self.level[self.arena.lit(cref, k).var().index()];
                        if lv > max_level {
                            max_level = lv;
                            max_k = k;
                        }
                    }
                    if max_level > p_level {
                        self.arena.swap_lits(cref, 1, max_k);
                        let new_watch = self.arena.lit(cref, 1);
                        self.watches[new_watch.code()].push(w_new);
                        continue 'watchers;
                    }
                }
                self.watches[wl][j] = w_new;
                j += 1;
                self.enqueue_at(first, cref, p_level);
            }
            self.watches[wl].truncate(j);
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.order.activity[v] += self.var_inc;
        if self.order.activity[v] > 1e100 {
            for a in &mut self.order.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v as u32);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.arena.is_learnt(cref) {
            return;
        }
        let a = self.arena.activity(cref) + self.cla_inc as f32;
        self.arena.set_activity(cref, a);
        if a > 1e20 {
            for t in 0..self.learnts.len() {
                for i in 0..self.learnts[t].len() {
                    let c = self.learnts[t][i];
                    let scaled = self.arena.activity(c) * 1e-20;
                    self.arena.set_activity(c, scaled);
                }
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Tier bookkeeping at conflict-analysis participation (the tier
    /// database's `bump`): reset the `used` countdown and recompute the
    /// clause's LBD from the current levels, keeping the minimum —
    /// LBD improvements are what promote clauses at the next
    /// tier-maintenance sweep. Every literal of `cref` is assigned
    /// here (conflict and reason clauses both are), so the level read
    /// is total.
    fn mark_used(&mut self, cref: ClauseRef) {
        if !self.arena.is_learnt(cref) {
            return;
        }
        self.arena.set_used(cref, 2);
        self.lbd_gen = self.lbd_gen.wrapping_add(1);
        if self.lbd_gen == 0 {
            self.lbd_stamp.fill(0);
            self.lbd_gen = 1;
        }
        let mut lbd = 0u32;
        for k in 0..self.arena.len(cref) {
            let lev = self.level[self.arena.lit(cref, k).var().index()] as usize;
            if self.lbd_stamp[lev] != self.lbd_gen {
                self.lbd_stamp[lev] = self.lbd_gen;
                lbd += 1;
            }
        }
        if lbd < self.arena.lbd(cref) {
            self.arena.set_lbd(cref, lbd);
        }
    }

    /// First-UIP conflict analysis. The learnt clause is left in
    /// `self.learnt_buf` (slot 0 = asserting literal); returns
    /// (backtrack level, LBD). Resolution walks the arena by index —
    /// no clause literals are copied, and all scratch is reused.
    fn analyze(&mut self, mut confl: ClauseRef) -> (u32, u32) {
        let mut learnt = std::mem::take(&mut self.learnt_buf);
        learnt.clear();
        learnt.push(Lit::pos(Var(0))); // slot 0 = asserting lit
        self.to_clear.clear();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        loop {
            self.bump_clause(confl);
            if self.tiers_active {
                self.mark_used(confl);
            }
            let len = self.arena.len(confl);
            for k in 0..len {
                let q = self.arena.lit(confl, k);
                // Skip the pivot when resolving on a reason clause (its
                // slot is not fixed: binary units assert from either
                // watched position).
                if p.is_some_and(|pl| q.var() == pl.var()) {
                    continue;
                }
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.to_clear.push(v as u32);
                    self.bump_var(v);
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to resolve on: the deepest *seen*
            // trail literal at the conflict level. Out-of-order
            // assignments interleave lower-level literals above
            // conflict-level ones, and those may be marked seen as
            // learnt-clause members — resolving on one would be
            // unsound, so the walk filters by level, not just by mark.
            loop {
                idx -= 1;
                let tv = self.trail[idx].var().index();
                if self.seen[tv] && self.level[tv] >= self.decision_level() {
                    break;
                }
            }
            let pl = self.trail[idx];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            p = Some(pl);
            confl = self.reason[pl.var().index()];
            debug_assert_ne!(confl, ClauseRef::NONE);
        }
        // Minimize in place: drop literals recursively implied by the
        // rest of the clause (MiniSat-style, with the abstract-level
        // filter to cut hopeless DFS walks short).
        let abstract_levels = learnt[1..].iter().fold(0u32, |acc, l| {
            acc | (1 << (self.level[l.var().index()] & 31))
        });
        let before = learnt.len();
        let mut j = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reason[l.var().index()] == ClauseRef::NONE
                || !self.lit_redundant(l, abstract_levels)
            {
                learnt[j] = l;
                j += 1;
            }
        }
        learnt.truncate(j);
        self.stats.minimized_lits += (before - learnt.len()) as u64;
        // Compute backtrack level and move that literal to slot 1.
        let mut bt = 0;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            bt = self.level[learnt[1].var().index()];
        }
        // LBD: distinct decision levels, counted with generation stamps.
        self.lbd_gen = self.lbd_gen.wrapping_add(1);
        if self.lbd_gen == 0 {
            self.lbd_stamp.fill(0);
            self.lbd_gen = 1;
        }
        let mut lbd = 0u32;
        for &l in &learnt {
            let lev = self.level[l.var().index()] as usize;
            if self.lbd_stamp[lev] != self.lbd_gen {
                self.lbd_stamp[lev] = self.lbd_gen;
                lbd += 1;
            }
        }
        // Clear every seen flag marked during this analysis (including
        // literals dropped by minimization).
        while let Some(v) = self.to_clear.pop() {
            self.seen[v as usize] = false;
        }
        self.learnt_buf = learnt;
        (bt, lbd)
    }

    /// A literal is redundant in the learnt clause if, transitively,
    /// every literal of its reason is seen, at level 0, or redundant
    /// itself (iterative DFS over reasons). `abstract_levels` is a
    /// 32-bit Bloom filter of the clause's decision levels: a reason
    /// literal whose level is not even possibly in the clause ends the
    /// search immediately. Marks made along a failed branch are rolled
    /// back; marks on a successful branch stay (those literals are
    /// implied, so later checks may treat them as seen).
    fn lit_redundant(&mut self, l: Lit, abstract_levels: u32) -> bool {
        debug_assert!(self.analyze_stack.is_empty());
        self.analyze_stack.push(l);
        let top = self.to_clear.len();
        while let Some(pl) = self.analyze_stack.pop() {
            let r = self.reason[pl.var().index()];
            debug_assert_ne!(r, ClauseRef::NONE);
            for k in 0..self.arena.len(r) {
                let q = self.arena.lit(r, k);
                if q.var() == pl.var() {
                    continue;
                }
                let v = q.var().index();
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                if self.reason[v] != ClauseRef::NONE
                    && (1u32 << (self.level[v] & 31)) & abstract_levels != 0
                {
                    self.seen[v] = true;
                    self.to_clear.push(v as u32);
                    self.analyze_stack.push(q);
                } else {
                    // Dead end: undo the marks of this check only.
                    while self.to_clear.len() > top {
                        let v = self.to_clear.pop().expect("non-empty") as usize; // lint:allow(no-panic)
                        self.seen[v] = false;
                    }
                    self.analyze_stack.clear();
                    return false;
                }
            }
        }
        true
    }

    /// Backtracks to `target`, unassigning every literal whose level
    /// exceeds it. Out-of-order assignments at or below `target` that
    /// sit above the cut survive: they are compacted down (preserving
    /// assignment order, so reasons always precede their implications
    /// on the trail) and re-queued for propagation — a conflict may
    /// have interrupted the propagation queue before reaching them,
    /// and re-examining their watchers is what recovers implications
    /// the backtracked levels were masking.
    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        debug_assert!(
            self.qhead >= bound,
            "queue never rewinds past a level bound"
        );
        let mut kept = std::mem::take(&mut self.trail_keep);
        kept.clear();
        // Kept literals with an original position below `qhead` were
        // fully propagated (and with exact assertion levels, every
        // implication of theirs that survives this backtrack was
        // enqueued then too); only the suffix this propagation pass
        // never reached — it may have been cut short by a conflict —
        // re-enters the queue. By position order the propagated kept
        // literals form a prefix of the compacted segment.
        let mut kept_propagated = 0usize;
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            if self.level[v] > target {
                if !self.phase_probing {
                    self.polarity[v] = !l.is_neg();
                }
                self.lit_val[l.code()] = 0;
                self.lit_val[(!l).code()] = 0;
                self.reason[v] = ClauseRef::NONE;
                self.order.insert(v as u32);
            } else {
                kept.push(l);
                if i < self.qhead {
                    kept_propagated += 1;
                }
            }
        }
        self.trail.truncate(bound);
        self.trail.extend(kept.iter().rev().copied());
        self.trail_lim.truncate(target as usize);
        self.qhead = bound + kept_propagated;
        self.trail_keep = kept;
    }
    // lint:hot-path-end

    /// MiniSat's `analyzeFinal`: the assumption `p` came back false
    /// while being applied, so the current trail (all pseudo-decision
    /// levels, no real decisions yet) implies `¬p`. Walk the
    /// implication graph backwards from `¬p`; the pseudo-decisions
    /// reached are exactly the assumptions the refutation used. Stores
    /// the subset (including `p` itself, as the caller passed them)
    /// into `assumption_conflict`.
    fn analyze_final(&mut self, p: Lit) {
        self.assumption_conflict.clear();
        self.assumption_conflict.push(p);
        let pv = p.var().index();
        if self.decision_level() == 0 || self.level[pv] == 0 {
            // `¬p` is a root-level fact: the formula alone refutes `p`.
            // (Out-of-order root units mean this can happen even while
            // earlier assumptions hold decision levels open.)
            return;
        }
        self.seen[pv] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            if !self.seen[v] {
                continue;
            }
            let r = self.reason[v];
            if r == ClauseRef::NONE {
                // A pseudo-decision: one of the caller's assumptions
                // (decisions cannot exist yet — assumptions are applied
                // before the first `decide`). With contradictory
                // assumptions this picks up `¬p` itself, yielding the
                // two-element subset `{p, ¬p}`.
                debug_assert!(self.level[v] > 0);
                self.assumption_conflict.push(l);
            } else {
                for k in 0..self.arena.len(r) {
                    let q = self.arena.lit(r, k);
                    let qv = q.var().index();
                    // Skip the pivot; reasons assert from either
                    // watched slot (binary clauses), so match by var.
                    if qv != v && self.level[qv] > 0 {
                        self.seen[qv] = true;
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[pv] = false;
    }

    fn decide(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max() {
            if self.is_unassigned(v as usize) && !self.eliminated[v as usize] {
                return Some(self.choose_polarity(v as usize));
            }
        }
        None
    }

    /// Applies a scheduled rephase pass (restart boundaries only, so
    /// the reset never fights a partial assignment): saved phases are
    /// overwritten with the best-trail snapshot, their inversion, or
    /// random values, per the [`RephaseSched`] rotation.
    fn maybe_rephase(&mut self) {
        let Some(kind) = self.rephase.fire(&self.config, self.stats.conflicts) else {
            return;
        };
        self.stats.rephases += 1;
        match kind {
            RephaseKind::Best => self.polarity.copy_from_slice(&self.target_phase),
            RephaseKind::Invert => {
                for p in &mut self.polarity {
                    *p = !*p;
                }
            }
            RephaseKind::Random => {
                for v in 0..self.polarity.len() {
                    self.polarity[v] = self.rng.random_bool(0.5);
                }
            }
        }
    }

    fn choose_polarity(&mut self, v: usize) -> Lit {
        let mut pol = self.polarity[v];
        if self.config.random_polarity_freq > 0.0
            && self.rng.random_bool(self.config.random_polarity_freq)
        {
            pol = !pol;
        }
        Lit::new(Var(v as u32), !pol)
    }

    /// Highest decision level among a clause's literals — the level a
    /// falsified clause actually conflicts at, which can lie below the
    /// current decision level once out-of-order assignments exist.
    fn max_level_in(&self, cref: ClauseRef) -> u32 {
        (0..self.arena.len(cref))
            .map(|k| self.level[self.arena.lit(cref, k).var().index()])
            .max()
            .expect("clauses are non-empty") // lint:allow(no-panic)
    }

    /// If exactly one literal of the falsified clause sits at `level`,
    /// returns it. Such a "conflict" is really a missed lower-level
    /// implication: below `level` the clause is unit on that literal.
    fn lone_literal_at(&self, cref: ClauseRef, level: u32) -> Option<Lit> {
        let mut lone = None;
        for k in 0..self.arena.len(cref) {
            let l = self.arena.lit(cref, k);
            if self.level[l.var().index()] == level {
                if lone.is_some() {
                    return None;
                }
                lone = Some(l);
            }
        }
        lone
    }

    /// Moves `l` into watched slot 0 of `cref` so the clause can serve
    /// as the reason of `l` (the lock-detection invariant; binary
    /// clauses may assert from either slot). Rewires the watcher lists
    /// when `l` was not watched at all.
    fn ensure_watched_first(&mut self, cref: ClauseRef, l: Lit) {
        if self.arena.lit(cref, 0) == l {
            return;
        }
        if self.arena.lit(cref, 1) == l {
            if self.arena.len(cref) > 2 {
                // Swapping the two watched slots leaves the watched set
                // (and hence both watcher lists) unchanged.
                self.arena.swap_lits(cref, 0, 1);
            }
            return;
        }
        let old = self.arena.lit(cref, 0);
        let list = &mut self.watches[old.code()];
        let pos = list
            .iter()
            .position(|w| w.cref() == cref)
            .expect("attached clause has a watcher on each watched literal"); // lint:allow(no-panic)
        list.swap_remove(pos);
        let k = (2..self.arena.len(cref))
            .find(|&k| self.arena.lit(cref, k) == l)
            .expect("literal is in the clause"); // lint:allow(no-panic)
        self.arena.swap_lits(cref, 0, k);
        let blocker = self.arena.lit(cref, 1);
        self.watches[l.code()].push(Watcher::new(cref, blocker, false));
    }

    /// A clause is locked while it is the reason of a trail literal.
    /// The asserting literal of a reason clause is always one of the
    /// two watched slots (binary clauses assert from either), so no
    /// side table is needed.
    fn is_locked(&self, cref: ClauseRef) -> bool {
        (0..2).any(|k| {
            let l = self.arena.lit(cref, k);
            self.value(l) == 1 && self.reason[l.var().index()] == cref
        })
    }

    /// Total live learnt clauses across the three tiers.
    fn num_learnts(&self) -> usize {
        self.learnts.iter().map(Vec::len).sum()
    }

    /// The retention tier a learnt clause's LBD assigns it to.
    fn tier_for_lbd(lbd: u32) -> usize {
        match lbd {
            0..=3 => TIER_CORE,
            4..=6 => TIER_TIER2,
            _ => TIER_LOCAL,
        }
    }

    /// Tier-maintenance sweep, run at each `reduce_db` while the tier
    /// database is live: re-files every learnt clause from its header
    /// LBD (promotion on improvement — core is never left again) and
    /// counts down the `used` countdown of tier2 clauses, demoting
    /// those that sat out two consecutive sweeps to local.
    fn tier_maintenance(&mut self) {
        let all: Vec<ClauseRef> = self.learnts.iter().flatten().copied().collect();
        for list in &mut self.learnts {
            list.clear();
        }
        for c in all {
            let by_lbd = Self::tier_for_lbd(self.arena.lbd(c));
            // `min` promotes (LBD only improves) and keeps core sticky.
            let mut tier = self.arena.tier(c).min(by_lbd);
            if tier == TIER_TIER2 {
                let used = self.arena.used(c);
                if used == 0 {
                    tier = TIER_LOCAL;
                } else {
                    self.arena.set_used(c, used - 1);
                }
            }
            self.arena.set_tier(c, tier);
            self.learnts[tier].push(c);
        }
    }

    /// Halves the deletable learnt clauses and immediately
    /// garbage-collects the arena. With the tier database live, a
    /// maintenance sweep re-files the tiers first and only the local
    /// tier is halved, lowest activity first; before activation the
    /// classic single-list policy applies (worst LBD, then lowest
    /// activity, sparing everything with LBD ≤ 3).
    fn reduce_db(&mut self) {
        if self.tiers_active {
            self.tier_maintenance();
        }
        let tiers_active = self.tiers_active;
        let mut candidates: Vec<ClauseRef> = self.learnts[TIER_LOCAL]
            .iter()
            .copied()
            .filter(|&c| {
                self.arena.len(c) > 2
                    && (tiers_active || self.arena.lbd(c) > 3)
                    && !self.is_locked(c)
            })
            .collect();
        candidates.sort_by(|&a, &b| {
            let by_activity = self
                .arena
                .activity(a)
                .partial_cmp(&self.arena.activity(b))
                .unwrap_or(std::cmp::Ordering::Equal);
            if tiers_active {
                by_activity
            } else {
                self.arena.lbd(b).cmp(&self.arena.lbd(a)).then(by_activity)
            }
        });
        let remove = candidates.len() / 2;
        for &c in candidates.iter().take(remove) {
            self.proof_delete_cref(c);
            self.arena.mark_deleted(c);
            self.stats.deleted += 1;
        }
        self.max_learnts *= 1.1;
        self.collect_garbage();
    }

    /// Compacts the arena in place, dropping marked clauses and
    /// rewriting every clause reference (ref lists, touched list,
    /// watchers, trail reasons) to the clause's new offset. See the GC
    /// protocol in the module docs.
    fn collect_garbage(&mut self) {
        let old_words = self.arena.data.len();
        // 1. Number the live clauses with their post-compaction offsets.
        self.arena.assign_offsets();
        // 2a. Rewrite the ref lists and the touched work list; collected
        //     clauses drop out. Originals are never marked by
        //     `reduce_db`, but inprocessing deletes them too.
        let arena = &self.arena;
        let forward = |c: &mut ClauseRef| match arena.forwarded(*c) {
            Some(nc) => {
                *c = nc;
                true
            }
            None => false,
        };
        self.clauses.retain_mut(forward);
        for list in &mut self.learnts {
            list.retain_mut(forward);
        }
        self.touched.retain_mut(forward);
        // 2b. Rewrite watchers; watchers of collected clauses drop here,
        //     and a list left holding more than twice its length in
        //     capacity gives the excess back.
        for list in &mut self.watches {
            list.retain_mut(|w| match arena.forwarded(w.cref()) {
                Some(nc) => {
                    *w = Watcher::new(nc, w.blocker, w.is_binary());
                    true
                }
                None => false,
            });
            if list.capacity() > 2 * list.len() {
                list.shrink_to(2 * list.len());
            }
        }
        // 2c. Rewrite trail reasons (always locked, hence always live).
        for &l in &self.trail {
            let r = &mut self.reason[l.var().index()];
            if *r != ClauseRef::NONE {
                // lint:allow(no-panic)
                *r = arena.forwarded(*r).expect("reason clause collected by GC");
            }
        }
        // 3. Slide the live clauses down and cut the tail.
        self.arena.compact();
        self.stats.gc_passes += 1;
        self.stats.gc_reclaimed_words += (old_words - self.arena.data.len()) as u64;
        self.audit_checkpoint(AuditPoint::Gc);
        #[cfg(debug_assertions)]
        self.audit_clause_db();
    }

    /// Exports a freshly learnt clause to the exchange when it passes
    /// the admission limits. Learnt units always qualify — they are
    /// root facts, the cheapest and strongest thing to share.
    fn export_learnt(&mut self, lits: &[Lit], lbd: u32) {
        let Some(link) = &self.exchange else { return };
        if lits.len() > 1 && (lbd > link.limits.max_lbd || lits.len() > link.limits.max_len) {
            return;
        }
        let (hub, worker) = (Arc::clone(&link.hub), link.worker);
        // Corrupt-exchange fault: the first admitted export at or past
        // the trigger conflict is published with its first literal
        // flipped. Only the in-flight copy is corrupted — the exporter
        // keeps its own (sound) learnt, so the containment on trial is
        // the *importer's* RUP filter.
        let corrupt = self.fault.is_some_and(|plan| {
            !self.fault_fired
                && plan.kind == FaultKind::CorruptExchange
                && self.stats.conflicts >= plan.at
        });
        if corrupt {
            self.fault_fired = true;
            let mut bad = lits.to_vec();
            bad[0] = !bad[0];
            hub.publish(worker, &bad, lbd);
        } else {
            hub.publish(worker, lits, lbd);
        }
        self.stats.exported_clauses += 1;
    }

    /// Drains this worker's exchange inbox and attaches every clause
    /// that passes a local RUP re-check. Called only at decision
    /// level 0 — `solve` entry and restart boundaries — so unit
    /// imports assert as root facts, inbox contents are a
    /// deterministic function of the portfolio schedule, and the
    /// incremental invariants (everything retained is a consequence
    /// of the added clauses alone) are preserved.
    fn import_shared_clauses(&mut self) {
        if self.exchange.is_none() || self.root_unsat {
            return;
        }
        debug_assert_eq!(self.decision_level(), 0);
        let (hub, worker) = {
            let link = self.exchange.as_ref().expect("checked above"); // lint:allow(no-panic)
            (Arc::clone(&link.hub), link.worker)
        };
        for shared in hub.drain(worker) {
            if self.root_unsat {
                break;
            }
            self.stats.imported_clauses += 1;
            if self.try_import_clause(&shared.lits, shared.lbd) {
                self.stats.imported_kept += 1;
            }
        }
    }

    /// Re-verifies one imported clause by reverse unit propagation
    /// and attaches it on success; returns whether it was kept.
    ///
    /// An imported clause is entailed by the shared formula but not
    /// necessarily derivable by unit propagation from *this* session's
    /// current database, and the DRAT checker verifies each derived
    /// step against the importer's own log — so the importer replays
    /// the RUP test itself and simply skips clauses that do not pass
    /// (the exporter keeps them; nothing is lost but the shortcut).
    /// The filter runs whether or not proof logging is enabled, so
    /// certified and uncertified runs keep bit-identical trajectories.
    ///
    /// A clause over a variable this worker eliminated is skipped too.
    /// Taking it would mean restoring the variable, and restores are
    /// LIFO: every variable eliminated after it would come back with
    /// it, undoing the worker's elimination for one shared lemma.
    /// (User clauses through `add_clause_checked` still restore.)
    fn try_import_clause(&mut self, lits: &[Lit], lbd: u32) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        // Clauses cross the exchange only between workers on the same
        // formula; reject unknown variables anyway (defensive, and
        // deterministic either way).
        if lits
            .iter()
            .any(|l| l.var().index() >= self.num_vars || self.eliminated[l.var().index()])
        {
            return false;
        }
        // Root-level simplification, as for original clauses.
        let mut kept: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.value(l) {
                1 => return false, // satisfied at root: nothing to gain
                -1 => {}
                _ => {
                    if kept.contains(&!l) {
                        return false; // tautology
                    }
                    if !kept.contains(&l) {
                        kept.push(l);
                    }
                }
            }
        }
        if kept.is_empty() {
            // Every literal is false at the root. The clause may well
            // witness unsatisfiability, but the *empty* clause is not
            // RUP here (our own root propagation has not conflicted),
            // so it cannot enter the proof log; skip it and let the
            // search refute locally.
            return false;
        }
        // RUP re-check at a pseudo-level: assume the negation of every literal; the clause
        // is RUP iff a literal turns true (enqueueing its negation
        // would conflict) or propagation conflicts. Phase saving is
        // suspended so probing cannot pollute the search's saved
        // polarities.
        self.phase_probing = true;
        self.trail_lim.push(self.trail.len());
        let mut rup = false;
        for &l in &kept {
            match self.value(l) {
                1 => {
                    rup = true;
                    break;
                }
                -1 => {}
                _ => {
                    self.enqueue(!l, ClauseRef::NONE);
                    if self.propagate().is_some() {
                        rup = true;
                        break;
                    }
                }
            }
        }
        self.cancel_until(0);
        self.phase_probing = false;
        if !rup {
            return false;
        }
        // RUP against our database: log it, then keep it. Units
        // assert at the root (propagating to fixpoint; a contradiction
        // latches `root_unsat` with the empty clause logged). Longer
        // clauses attach as learnt — `reduce_db` may drop them later
        // like any other learnt — without bumping the `learned`
        // counter, which reports local derivations only.
        self.proof_add_derived(&kept);
        if kept.len() == 1 {
            self.assert_root_unit(kept[0]);
        } else {
            let lbd = lbd.clamp(1, kept.len() as u32);
            self.attach_clause_quiet(&kept, true, lbd);
        }
        true
    }

    /// Which budget axis (if any) has run out: conflicts, propagations
    /// and the arena memory ceiling checked on every conflict (each is
    /// one `u64` compare behind an `Option` test), wall clock and stop
    /// flag amortized to every 256th conflict. Used identically by the
    /// analysis and repair paths.
    fn budget_exhausted(
        &self,
        budget: &Budget,
        start: &Instant,
        conflicts_at_start: u64,
        propagations_at_start: u64,
    ) -> Option<ExhaustionReason> {
        if let Some(max) = budget.max_conflicts {
            if self.stats.conflicts - conflicts_at_start >= max {
                return Some(ExhaustionReason::Conflicts);
            }
        }
        if let Some(max) = budget.max_propagations {
            if self.stats.propagations - propagations_at_start >= max {
                return Some(ExhaustionReason::Propagations);
            }
        }
        if let Some(max) = budget.max_memory_words {
            if self.arena.data.len() as u64 >= max {
                return Some(ExhaustionReason::Memory);
            }
        }
        if self.stats.conflicts.is_multiple_of(256) {
            if let Some(max) = budget.max_time {
                if start.elapsed() >= max {
                    return Some(ExhaustionReason::Deadline);
                }
            }
            if let Some(stop) = &budget.stop {
                if stop.load(Ordering::Relaxed) {
                    return Some(ExhaustionReason::Cancelled);
                }
            }
        }
        None
    }

    /// Books an exhausted solve under its reason (for `--stats` and
    /// portfolio totals) and returns the matching outcome.
    fn record_exhaustion(&mut self, reason: ExhaustionReason) -> SolveOutcome {
        match reason {
            ExhaustionReason::Conflicts => self.stats.exhausted_conflicts += 1,
            ExhaustionReason::Propagations => self.stats.exhausted_propagations += 1,
            ExhaustionReason::Deadline => self.stats.exhausted_deadline += 1,
            ExhaustionReason::Memory => self.stats.exhausted_memory += 1,
            ExhaustionReason::Cancelled => self.stats.exhausted_cancelled += 1,
        }
        SolveOutcome::Unknown(reason)
    }

    /// One-shot fault triggers, checked once per conflict (a single
    /// `Option` test when no plan is armed — the off state changes no
    /// trajectory). The panic fault unwinds from here; the truncated
    /// proof freezes silently; a simulated arena-growth failure
    /// surfaces as a memory exhaustion for the caller to return. The
    /// corrupt-exchange fault fires in `export_learnt` instead.
    fn fault_tick(&mut self) -> Option<ExhaustionReason> {
        let plan = self.fault?;
        if self.fault_fired {
            return None;
        }
        match plan.kind {
            FaultKind::Panic => {
                if self.stats.conflicts >= plan.at {
                    self.fault_fired = true;
                    // lint:allow(no-panic): the panic *is* the injected fault
                    panic!(
                        "injected fault: forced panic at conflict {}",
                        self.stats.conflicts
                    );
                }
            }
            FaultKind::TruncateProof => {
                if self.stats.conflicts >= plan.at {
                    self.fault_fired = true;
                    if let Some(p) = &mut self.proof {
                        p.freeze();
                    }
                }
            }
            FaultKind::ArenaOom => {
                if self.arena.data.len() as u64 >= plan.at {
                    self.fault_fired = true;
                    return Some(ExhaustionReason::Memory);
                }
            }
            FaultKind::CorruptExchange => {}
        }
        None
    }

    fn solve(&mut self, assumptions: &[Lit], budget: &Budget) -> SolveOutcome {
        self.assumption_conflict.clear();
        if self.root_unsat {
            return SolveOutcome::Unsat;
        }
        for a in assumptions {
            assert!(
                a.var().index() < self.num_vars,
                "assumption over unknown variable {}",
                a.var()
            );
        }
        // Incremental sessions return from `solve` at an arbitrary
        // decision level (and leave the trail fully assigned on SAT);
        // every call starts back at the root.
        self.cancel_until(0);
        // Re-mark this call's assumption variables (protecting them
        // from mid-solve elimination) and reintroduce any that a
        // previous call's inprocessing eliminated.
        while let Some(v) = self.last_assumed.pop() {
            self.assumed[v as usize] = false;
        }
        for a in assumptions {
            let v = a.var().index();
            if !self.assumed[v] {
                self.assumed[v] = true;
                self.last_assumed.push(v as u32);
            }
            if self.eliminated[v] {
                self.restore_var(v);
                if self.root_unsat {
                    return SolveOutcome::Unsat;
                }
            }
        }
        // Size the learnt budget to the clauses added so far, without
        // undoing growth from previous `reduce_db` passes.
        self.max_learnts = self
            .max_learnts
            .max((self.num_added_clauses as f64 / 3.0).max(self.config.max_learnts_floor));
        if self.propagate().is_some() {
            self.root_unsat = true;
            self.proof_add_empty();
            return SolveOutcome::Unsat;
        }
        // Deterministic import point: drain the exchange inbox before
        // the search starts (level 0, assumptions not yet applied).
        self.import_shared_clauses();
        if self.root_unsat {
            return SolveOutcome::Unsat;
        }
        let start = Instant::now();
        let conflicts_at_start = self.stats.conflicts;
        let propagations_at_start = self.stats.propagations;
        // Governor view of the wall deadline, passed into inprocessing
        // so a pass boundary can honor it like the stop flag.
        let deadline = budget.max_time.map(|t| start + t);
        let mut sched = RestartSched::new(&self.config, self.stats.restarts);
        self.oob_active = gate_open(self.config.chrono_from, self.stats.conflicts);
        self.tiers_active = gate_open(self.config.tiers_from, self.stats.conflicts);
        loop {
            if let Some(confl) = self.propagate() {
                self.audit_checkpoint(AuditPoint::Propagate);
                self.stats.conflicts += 1;
                if let Some(reason) = self.fault_tick() {
                    return self.record_exhaustion(reason);
                }
                self.oob_active = gate_open(self.config.chrono_from, self.stats.conflicts);
                self.tiers_active = gate_open(self.config.tiers_from, self.stats.conflicts);
                // Target-phase snapshot: remember the polarities of the
                // deepest trail seen (growth-gated so the copies stay
                // logarithmic per rephase epoch).
                if self.config.rephase_interval.is_some() && self.rephase.improves(self.trail.len())
                {
                    self.rephase.record(self.trail.len());
                    for &l in &self.trail {
                        self.target_phase[l.var().index()] = !l.is_neg();
                    }
                }
                let trail_at_conflict = self.trail.len();
                // With a level-sorted trail a falsified clause always
                // conflicts at the current decision level; out-of-order
                // assignments can produce conflicts whose literals all
                // live below it. Analysis must run at the true conflict
                // level, so back down to it first (the clause stays
                // falsified there).
                let conflict_level = if self.oob_active {
                    self.max_level_in(confl)
                } else {
                    self.decision_level()
                };
                if conflict_level == 0 {
                    self.root_unsat = true;
                    self.proof_add_empty();
                    return SolveOutcome::Unsat;
                }
                if self.oob_active {
                    if conflict_level < self.decision_level() {
                        self.cancel_until(conflict_level);
                        self.audit_checkpoint(AuditPoint::Backtrack);
                    }
                    // A falsified clause with a single literal at the
                    // conflict level is a *missed lower implication*:
                    // below that level the clause is unit, so there is
                    // nothing to resolve at the conflict level and the
                    // 1UIP analysis would only re-learn (a weakening
                    // of) the falsified clause itself. Resolve the
                    // conflict chronologically without that useless
                    // learning: pop just the conflict level to free the
                    // lone literal and re-propagate it from the clause
                    // that implied it all along — the recovery that
                    // makes out-of-order C-bt lose nothing (the
                    // conservative variant's lost-implications
                    // problem). The conflict still counts against the
                    // budget like any other (it is one — the repair is
                    // merely the cheapest sound way to resolve it) and
                    // is reported separately in `missed_implications`.
                    // Repairs cannot loop: each one either strictly
                    // lowers the level the next falsified clause
                    // conflicts at or yields to a real analysis.
                    if let Some(lone) = self.lone_literal_at(confl, conflict_level) {
                        self.stats.missed_implications += 1;
                        self.ensure_watched_first(confl, lone);
                        self.cancel_until(conflict_level - 1);
                        self.enqueue(lone, confl);
                        self.audit_checkpoint(AuditPoint::Backtrack);
                        if let Some(reason) = self.budget_exhausted(
                            budget,
                            &start,
                            conflicts_at_start,
                            propagations_at_start,
                        ) {
                            return self.record_exhaustion(reason);
                        }
                        continue;
                    }
                }
                let (bt, lbd) = self.analyze(confl);
                self.audit_checkpoint(AuditPoint::Analyze);
                sched.on_conflict(lbd, trail_at_conflict);
                // Chronological backtracking: when the backjump would
                // discard more than one level, back up a single level
                // instead and keep the intermediate
                // assignments. The asserting literal asserts at the
                // backtrack level (the chronological choice: keeping
                // its implications local is what preserves the cheap
                // conflict cascade; enqueueing at the distant true
                // assertion level `bt` measured 2.5× slower on the
                // T-factory probe). Unit learnts are the exception —
                // they are root facts and assert at level 0, possibly
                // out-of-order below the kept levels.
                let dl = self.decision_level();
                let target = if self.oob_active && dl - bt > 1 {
                    self.stats.chrono_backtracks += 1;
                    dl - 1
                } else {
                    bt
                };
                self.cancel_until(target);
                let learnt = std::mem::take(&mut self.learnt_buf);
                self.proof_add_derived(&learnt);
                self.export_learnt(&learnt, lbd);
                if learnt.len() == 1 {
                    self.enqueue_at(learnt[0], ClauseRef::NONE, 0);
                } else {
                    let cref = self.attach_clause(&learnt, true, lbd);
                    self.bump_clause(cref);
                    self.enqueue_at(learnt[0], cref, target.min(self.decision_level()));
                }
                self.learnt_buf = learnt; // hand the scratch back
                self.audit_checkpoint(AuditPoint::Backtrack);
                self.var_inc /= self.config.var_decay;
                /// Learnt-clause activity decay.
                const CLAUSE_DECAY: f64 = 0.999;
                self.cla_inc /= CLAUSE_DECAY;
                if let Some(reason) =
                    self.budget_exhausted(budget, &start, conflicts_at_start, propagations_at_start)
                {
                    return self.record_exhaustion(reason);
                }
            } else {
                self.audit_checkpoint(AuditPoint::Propagate);
                match sched.decide(&self.config, self.stats.conflicts) {
                    RestartDecision::Restart => {
                        self.stats.restarts += 1;
                        sched.on_restart(&self.config, self.stats.restarts);
                        self.cancel_until(0);
                        self.audit_checkpoint(AuditPoint::Backtrack);
                        // Inprocessing runs at restart boundaries: the
                        // solver sits at level 0 with no assumptions
                        // applied, so everything it derives is a
                        // consequence of the clauses alone and stays
                        // sound across the incremental session.
                        self.maybe_inprocess(budget.stop.as_deref(), deadline);
                        if self.root_unsat {
                            return SolveOutcome::Unsat;
                        }
                        // The other deterministic import point: clause
                        // exchange joins inprocessing at the restart
                        // boundary, after the passes have settled the
                        // database the RUP re-check runs against.
                        self.import_shared_clauses();
                        if self.root_unsat {
                            return SolveOutcome::Unsat;
                        }
                        // A cancelled or out-of-time worker leaves
                        // promptly at the boundary instead of waiting
                        // for the 256-conflict amortized poll (it just
                        // paid for inprocessing pass-boundary checks
                        // too).
                        if stop_requested(budget.stop.as_deref()) {
                            return self.record_exhaustion(ExhaustionReason::Cancelled);
                        }
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            return self.record_exhaustion(ExhaustionReason::Deadline);
                        }
                        self.maybe_rephase();
                        // Root-level out-of-order assignments survive
                        // the backtrack with their watchers pending:
                        // reach the propagation fixpoint before
                        // deciding.
                        if self.qhead < self.trail.len() {
                            continue;
                        }
                    }
                    RestartDecision::Block => {
                        self.stats.restarts_blocked += 1;
                        sched.on_block();
                    }
                    RestartDecision::Continue => {}
                }
                // With the tier database live, reduction runs on a
                // Glucose-style conflict-interval schedule (stretching
                // by `TIER_REDUCE_STEP` per sweep) rather than waiting
                // for the size trigger: the budgeted T-factory run
                // never reaches `max_learnts` (seeded at added/3) and
                // would otherwise drag tens of thousands of stale
                // local clauses through every propagation. Core and
                // tier2 are bounded by their LBD admission instead.
                if self.tiers_active {
                    if self.next_reduce == 0 {
                        self.next_reduce = self.stats.conflicts + TIER_REDUCE_BASE;
                    } else if self.stats.conflicts >= self.next_reduce {
                        self.reduce_db();
                        self.reductions += 1;
                        self.next_reduce = self.stats.conflicts
                            + TIER_REDUCE_BASE
                            + TIER_REDUCE_STEP * self.reductions;
                    }
                } else if self.num_learnts() as f64 >= self.max_learnts {
                    self.reduce_db();
                }
                // Re-apply assumptions as pseudo-decisions.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value(a) {
                        1 => {
                            // Already satisfied: still open a level so the
                            // indexing into `assumptions` stays aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        -1 => {
                            self.analyze_final(a);
                            // The probe's certificate: the negation of
                            // the failing assumption subset is RUP
                            // (propagating the core reproduces the
                            // refutation's implication cone).
                            if self.proof.is_some() {
                                let core: Vec<Lit> =
                                    self.assumption_conflict.iter().map(|&l| !l).collect();
                                self.proof_add_derived(&core);
                            }
                            return SolveOutcome::Unsat;
                        }
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, ClauseRef::NONE);
                        }
                    }
                    continue;
                }
                match self.decide() {
                    Some(lit) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(lit, ClauseRef::NONE);
                    }
                    None => {
                        self.audit_checkpoint(AuditPoint::Sat);
                        let mut values: Vec<bool> = (0..self.num_vars)
                            .map(|v| self.lit_val[2 * v] == 1)
                            .collect();
                        // Complete the model over the eliminated
                        // variables from the elimination stack (and,
                        // audited, re-check every stacked clause).
                        self.reconstruct_model(&mut values);
                        if self.audit_on {
                            self.audit_reconstruction(&values);
                        }
                        return SolveOutcome::Sat(Model::new(values));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i64) -> Lit {
        Lit::from_dimacs(i)
    }

    fn cnf(clauses: &[&[i64]]) -> Cnf {
        let mut c = Cnf::new(0);
        for cl in clauses {
            c.add_clause(cl.iter().map(|&d| lit(d)));
        }
        c
    }

    fn solve(c: &Cnf) -> SolveOutcome {
        CdclSolver::default().solve_with(c, &[], &Budget::default())
    }

    /// Pigeonhole principle: `pigeons` into `pigeons - 1` holes, UNSAT.
    fn pigeonhole(pigeons: i64) -> Cnf {
        let holes = pigeons - 1;
        let p = |i: i64, j: i64| (i - 1) * holes + j;
        let mut c = Cnf::new(0);
        for i in 1..=pigeons {
            c.add_clause((1..=holes).map(|j| lit(p(i, j))));
        }
        for j in 1..=holes {
            for a in 1..=pigeons {
                for b in (a + 1)..=pigeons {
                    c.add_clause([lit(-p(a, j)), lit(-p(b, j))]);
                }
            }
        }
        c
    }

    #[test]
    fn arena_roundtrips_clause_metadata() {
        let mut arena = ClauseArena::default();
        let a = arena.alloc(&[lit(1), lit(-2), lit(3)], false, 0);
        let b = arena.alloc(&[lit(-1), lit(2)], true, 2);
        assert_eq!(arena.len(a), 3);
        assert_eq!(arena.len(b), 2);
        assert!(!arena.is_learnt(a));
        assert!(arena.is_learnt(b));
        assert_eq!(arena.lbd(b), 2);
        assert_eq!(arena.lit(a, 1), lit(-2));
        arena.swap_lits(a, 0, 2);
        assert_eq!(arena.lit(a, 0), lit(3));
        assert_eq!(arena.lit(a, 2), lit(1));
        arena.set_activity(b, 1.5);
        assert_eq!(arena.activity(b), 1.5);
        assert!(!arena.is_deleted(b));
        arena.mark_deleted(b);
        assert!(arena.is_deleted(b));
        // Deletion does not disturb the neighbouring clause.
        assert_eq!(arena.len(a), 3);
        assert_eq!(arena.lit(b, 0), lit(-1));
    }

    #[test]
    fn arena_relocation_forwards() {
        let mut arena = ClauseArena::default();
        let a = arena.alloc(&[lit(1), lit(2), lit(3)], false, 0);
        let b = arena.alloc(&[lit(-1), lit(-2)], true, 1);
        let c = arena.alloc(&[lit(4), lit(5), lit(-6)], false, 3);
        // Collect `a`, keep `b` and `c`.
        arena.mark_deleted(a);
        arena.assign_offsets();
        assert_eq!(arena.forwarded(a), None);
        let nb = arena.forwarded(b).unwrap();
        let nc = arena.forwarded(c).unwrap();
        assert_eq!((nb.0, nc.0), (0, (HEADER_WORDS + 2) as u32));
        arena.compact();
        assert_eq!(arena.data.len(), 2 * HEADER_WORDS + 5);
        assert_eq!(arena.len(nb), 2);
        assert!(arena.is_learnt(nb));
        assert_eq!(arena.lbd(nb), 1);
        assert_eq!(arena.lit(nb, 0), lit(-1));
        assert_eq!(arena.lit(nb, 1), lit(-2));
        assert!(!arena.is_learnt(nc));
        assert_eq!(arena.lbd(nc), 3);
        assert_eq!(
            arena.lits(nc).collect::<Vec<_>>(),
            [lit(4), lit(5), lit(-6)]
        );
        // A pass with nothing to collect moves nothing.
        let before = arena.data.clone();
        arena.assign_offsets();
        arena.compact();
        assert_eq!(arena.data, before);
    }

    #[test]
    fn arena_roundtrips_tier_and_used_bits() {
        let mut arena = ClauseArena::default();
        let dead = arena.alloc(&[lit(3), lit(4)], true, 7);
        let c = arena.alloc(&[lit(1), lit(-2)], true, 5);
        assert_eq!(arena.tier(c), TIER_CORE); // alloc zeroes the tier bits
        assert_eq!(arena.used(c), 0);
        arena.set_tier(c, TIER_TIER2);
        arena.set_used(c, 2);
        assert_eq!(arena.tier(c), TIER_TIER2);
        assert_eq!(arena.used(c), 2);
        // Neither field bleeds into its header neighbours.
        assert_eq!(arena.len(c), 2);
        assert_eq!(arena.lbd(c), 5);
        assert!(arena.is_learnt(c));
        assert!(!arena.is_deleted(c));
        arena.set_used(c, 1);
        assert_eq!(arena.used(c), 1);
        assert_eq!(arena.tier(c), TIER_TIER2);
        // Both survive compaction verbatim while the clause slides down
        // into the slot of a collected one.
        arena.mark_deleted(dead);
        arena.assign_offsets();
        let nc = arena.forwarded(c).unwrap();
        arena.compact();
        assert_eq!(nc, dead);
        assert_eq!(arena.tier(nc), TIER_TIER2);
        assert_eq!(arena.used(nc), 1);
        assert_eq!(arena.lbd(nc), 5);
        assert!(arena.is_learnt(nc));
    }

    #[test]
    fn tier_for_lbd_arithmetic() {
        for (lbd, tier) in [
            (0, TIER_CORE),
            (1, TIER_CORE),
            (3, TIER_CORE),
            (4, TIER_TIER2),
            (6, TIER_TIER2),
            (7, TIER_LOCAL),
            (30, TIER_LOCAL),
        ] {
            assert_eq!(State::tier_for_lbd(lbd), tier, "lbd {lbd}");
        }
    }

    #[test]
    fn tier_maintenance_promotes_and_demotes() {
        let c = cnf(&[&[1, 2, 3]]);
        let mut st = State::new(&c, CdclConfig::default());
        st.tiers_active = true;
        let core = st.attach_clause_quiet(&[lit(1), lit(2)], true, 2);
        let t2 = st.attach_clause_quiet(&[lit(1), lit(3)], true, 5);
        let local = st.attach_clause_quiet(&[lit(2), lit(3)], true, 9);
        assert_eq!(st.arena.tier(core), TIER_CORE);
        assert_eq!(st.arena.tier(t2), TIER_TIER2);
        assert_eq!(st.arena.tier(local), TIER_LOCAL);
        assert!(st.learnts[TIER_TIER2].contains(&t2));
        // An LBD improvement (recorded by `mark_used` during analysis)
        // promotes at the next sweep.
        st.arena.set_lbd(local, 4);
        st.tier_maintenance();
        assert_eq!(st.arena.tier(local), TIER_TIER2);
        assert!(st.learnts[TIER_TIER2].contains(&local));
        // Fresh clauses carry a used countdown of 2 and survive exactly
        // two sweeps without participation; the third demotes.
        assert_eq!(st.arena.used(t2), 1);
        st.tier_maintenance();
        assert_eq!(st.arena.used(t2), 0);
        assert_eq!(st.arena.tier(t2), TIER_TIER2);
        st.tier_maintenance();
        assert_eq!(st.arena.tier(t2), TIER_LOCAL);
        assert!(st.learnts[TIER_LOCAL].contains(&t2));
        // `mark_used` resets the countdown and keeps the minimum LBD.
        st.mark_used(core);
        assert_eq!(st.arena.used(core), 2);
        assert_eq!(st.arena.lbd(core), 1); // all literals at level 0
                                           // Core is sticky: sweeps never move it.
        for _ in 0..3 {
            st.tier_maintenance();
        }
        assert_eq!(st.arena.tier(core), TIER_CORE);
        assert!(st.learnts[TIER_CORE].contains(&core));
    }

    #[test]
    fn used_bits_and_tier_lists_survive_gc() {
        let c = cnf(&[&[1, 2, 3]]);
        let mut st = State::new(&c, CdclConfig::default());
        st.tiers_active = true;
        // The doomed clause sits in front of every survivor, so each
        // of them slides down during compaction.
        let doomed = st.attach_clause_quiet(&[lit(2), lit(3)], true, 9);
        let t2 = st.attach_clause_quiet(&[lit(1), lit(3)], true, 5);
        let core = st.attach_clause_quiet(&[lit(1), lit(2)], true, 2);
        let local = st.attach_clause_quiet(&[lit(-1), lit(2), lit(-3)], true, 8);
        st.arena.set_used(t2, 1);
        st.arena.set_used(local, 3);
        st.arena.set_activity(t2, 0.25);
        st.arena.set_activity(core, 1.5);
        st.arena.set_activity(local, 7.0);
        st.arena.mark_deleted(doomed);
        st.detach_clause(doomed);
        let (capacity, base) = (st.arena.data.capacity(), st.arena.data.as_ptr());
        st.collect_garbage();
        // Compaction happens in place: no second arena, no growth.
        assert_eq!(st.arena.data.as_ptr(), base);
        assert_eq!(st.arena.data.capacity(), capacity);
        assert_eq!(st.stats.gc_reclaimed_words, (HEADER_WORDS + 2) as u64);
        assert_eq!(st.learnts[TIER_CORE].len(), 1);
        assert_eq!(st.learnts[TIER_TIER2].len(), 1);
        assert_eq!(st.learnts[TIER_LOCAL].len(), 1);
        let original = st.clauses[0];
        assert!(!st.arena.is_learnt(original));
        assert_eq!(
            st.arena.lits(original).collect::<Vec<_>>(),
            [lit(1), lit(2), lit(3)]
        );
        // (learnt, tier, used, LBD, activity, literals) of each survivor.
        for (list, used, lbd, activity, lits) in [
            (TIER_TIER2, 1, 5, 0.25, vec![lit(1), lit(3)]),
            (TIER_CORE, 2, 2, 1.5, vec![lit(1), lit(2)]),
            (TIER_LOCAL, 3, 8, 7.0, vec![lit(-1), lit(2), lit(-3)]),
        ] {
            let c = st.learnts[list][0];
            assert!(st.arena.is_learnt(c));
            assert!(!st.arena.is_deleted(c));
            assert_eq!(st.arena.tier(c), list);
            assert_eq!(st.arena.used(c), used);
            assert_eq!(st.arena.lbd(c), lbd);
            assert_eq!(st.arena.activity(c), activity);
            assert_eq!(st.arena.lits(c).collect::<Vec<_>>(), lits);
        }
        // Arena order is kept: the survivors close ranks in attach order.
        let order: Vec<u32> = [st.clauses[0], st.learnts[TIER_TIER2][0]]
            .iter()
            .chain(&st.learnts[TIER_CORE])
            .chain(&st.learnts[TIER_LOCAL])
            .map(|c| c.0)
            .collect();
        assert!(order.is_sorted());
        st.audit_clause_db();
    }

    #[test]
    fn trivial_sat() {
        let c = cnf(&[&[1], &[-2]]);
        let m = solve(&c).expect_sat();
        assert!(m.value(Var(0)));
        assert!(!m.value(Var(1)));
        assert!(c.eval(&m));
    }

    #[test]
    fn trivial_unsat() {
        let c = cnf(&[&[1], &[-1]]);
        assert!(solve(&c).is_unsat());
    }

    #[test]
    fn empty_formula_is_sat() {
        assert!(solve(&Cnf::new(0)).is_sat());
        assert!(solve(&Cnf::new(5)).is_sat());
        // Also under every diversified portfolio arm.
        for seed in 0..4 {
            let mut s = CdclSolver::with_config(CdclConfig::diversified(seed));
            assert!(s.solve_with(&Cnf::new(0), &[], &Budget::default()).is_sat());
        }
    }

    #[test]
    fn chain_implication_unsat() {
        // x1 ∧ (x1→x2) ∧ … ∧ (x9→x10) ∧ ¬x10
        let mut clauses: Vec<Vec<i64>> = vec![vec![1]];
        for i in 1..10 {
            clauses.push(vec![-i, i + 1]);
        }
        clauses.push(vec![-10]);
        let refs: Vec<&[i64]> = clauses.iter().map(|v| v.as_slice()).collect();
        assert!(solve(&cnf(&refs)).is_unsat());
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        assert!(solve(&pigeonhole(3)).is_unsat());
    }

    #[test]
    fn random_3sat_models_check_out() {
        use rand::rngs::SmallRng;
        let mut rng = SmallRng::seed_from_u64(42);
        for round in 0..20 {
            let n = 30;
            let m = 100; // below threshold → usually SAT
            let mut c = Cnf::new(n);
            for _ in 0..m {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    let v = rng.random_range(0..n as u32);
                    cl.push(Lit::new(Var(v), rng.random_bool(0.5)));
                }
                c.add_clause(cl);
            }
            if let SolveOutcome::Sat(model) = solve(&c) {
                assert!(c.eval(&model), "bogus model in round {round}");
            }
        }
    }

    #[test]
    fn assumptions_restrict_models() {
        let c = cnf(&[&[1, 2]]);
        let m = CdclSolver::default()
            .solve_with(&c, &[lit(-1)], &Budget::default())
            .expect_sat();
        assert!(!m.value(Var(0)));
        assert!(m.value(Var(1)));
    }

    #[test]
    fn assumptions_can_make_unsat() {
        let c = cnf(&[&[1, 2], &[-1, 2]]);
        let out = CdclSolver::default().solve_with(&c, &[lit(-2)], &Budget::default());
        assert!(out.is_unsat());
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        let c = pigeonhole(6);
        let out = CdclSolver::default().solve_with(&c, &[], &Budget::conflict_limit(10));
        assert!(matches!(out, SolveOutcome::Unknown(_)));
    }

    /// `since`, `merged` and `counters` walk every field of the one
    /// counter list: with all counters distinct, a field one of them
    /// skipped or crossed with another would break the round trip.
    #[test]
    fn stats_arithmetic_covers_every_counter() {
        let s = SolverStats::numbered();
        assert_eq!(s.merged(s).since(s), s);
        assert_eq!(s.since(s), SolverStats::default());
        let values: Vec<u64> = s.counters().map(|(_, v)| v).collect();
        assert_eq!(values, (1..=values.len() as u64).collect::<Vec<_>>());
        // The names are the field names, in field order.
        let fields: Vec<String> = s.counters().map(|(n, v)| format!("{n}: {v}")).collect();
        assert_eq!(
            format!("{s:?}"),
            format!("SolverStats {{ {} }}", fields.join(", "))
        );
    }

    /// Every governor axis names itself in the verdict and in the
    /// per-reason stats counters (what `--stats` prints).
    #[test]
    fn exhaustion_reasons_are_attributed_per_axis() {
        let c = pigeonhole(6);
        let mut s = CdclSolver::default();
        let out = s.solve_with(&c, &[], &Budget::conflict_limit(10));
        assert!(matches!(
            out,
            SolveOutcome::Unknown(ExhaustionReason::Conflicts)
        ));
        assert_eq!(s.stats.exhausted_conflicts, 1);
        assert_eq!(
            s.stats.exhaustion_reason(),
            Some(ExhaustionReason::Conflicts)
        );

        let mut s = CdclSolver::default();
        let out = s.solve_with(&c, &[], &Budget::propagation_limit(20));
        assert!(matches!(
            out,
            SolveOutcome::Unknown(ExhaustionReason::Propagations)
        ));
        assert_eq!(s.stats.exhausted_propagations, 1);

        // A one-word ceiling is below any non-empty arena: the solve
        // halts on its first conflict with a memory verdict.
        let mut s = CdclSolver::default();
        let out = s.solve_with(&c, &[], &Budget::memory_limit_words(1));
        assert!(matches!(
            out,
            SolveOutcome::Unknown(ExhaustionReason::Memory)
        ));
        assert_eq!(s.stats.exhausted_memory, 1);

        let mut s = CdclSolver::default();
        let out = s.solve_with(&c, &[], &Budget::time_limit(std::time::Duration::ZERO));
        assert!(matches!(
            out,
            SolveOutcome::Unknown(ExhaustionReason::Deadline)
        ));
        assert_eq!(s.stats.exhausted_deadline, 1);
    }

    /// A memory verdict is anytime: lifting the ceiling and re-solving
    /// the same session still reaches the real verdict.
    #[test]
    fn memory_exhausted_session_recovers_on_resolve() {
        let c = pigeonhole(4);
        let mut s = CdclSolver::default();
        s.add_cnf(&c);
        let out = s.solve_assuming(&[], &Budget::memory_limit_words(1));
        assert!(matches!(
            out,
            SolveOutcome::Unknown(ExhaustionReason::Memory)
        ));
        assert!(s.solve_assuming(&[], &Budget::default()).is_unsat());
    }

    #[test]
    fn stats_populated() {
        let c = cnf(&[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2, 3]]);
        let mut s = CdclSolver::default();
        let out = s.solve_with(&c, &[], &Budget::default());
        assert!(out.is_sat());
        assert!(s.stats.propagations > 0);
    }

    #[test]
    fn seeds_yield_same_verdict() {
        let c = cnf(&[&[1, 2, 3], &[-1, -2], &[-2, -3], &[-1, -3], &[2, 3]]);
        let mut verdicts = Vec::new();
        for seed in 0..5 {
            let mut s = CdclSolver::with_config(CdclConfig::default().with_seed(seed));
            verdicts.push(s.solve_with(&c, &[], &Budget::default()).is_sat());
        }
        assert!(verdicts.iter().all(|&v| v == verdicts[0]));
    }

    #[test]
    fn diversified_configs_differ_and_stay_correct() {
        let configs: Vec<CdclConfig> = (0..4).map(CdclConfig::diversified).collect();
        // The diversified knobs genuinely differ across portfolio members.
        assert!(configs
            .iter()
            .any(|c| c.restart_base != configs[0].restart_base));
        assert!(configs.iter().any(|c| c.var_decay != configs[0].var_decay));
        // Every arm is its own configuration, seed aside: none
        // collapses into another.
        let rendered: Vec<String> = configs
            .iter()
            .map(|c| format!("{:?}", c.clone().with_seed(0)))
            .collect();
        for (i, a) in rendered.iter().enumerate() {
            for b in &rendered[i + 1..] {
                assert_ne!(a, b, "two diversified arms coincide");
            }
        }
        let unsat = pigeonhole(4);
        let sat = cnf(&[&[1, 2], &[-1, 2], &[1, -2]]);
        for config in configs {
            let mut s = CdclSolver::with_config(config.clone());
            assert!(
                s.solve_with(&unsat, &[], &Budget::default()).is_unsat(),
                "{config:?}"
            );
            let mut s = CdclSolver::with_config(config);
            assert!(s.solve_with(&sat, &[], &Budget::default()).is_sat());
        }
    }

    #[test]
    fn duplicate_and_satisfied_clauses_handled() {
        let c = cnf(&[&[1, 1, 2], &[1, -1], &[2]]);
        let m = solve(&c).expect_sat();
        assert!(m.value(Var(1)));
    }

    #[test]
    fn php65_unsat() {
        assert!(solve(&pigeonhole(6)).is_unsat());
    }

    /// A solve that triggers multiple GC passes still returns the right
    /// verdict, actually reclaims arena memory, and leaves no watcher
    /// pointing at a collected clause.
    #[test]
    fn gc_compacts_arena_and_keeps_watchers_valid() {
        let c = pigeonhole(7);
        // A tiny learnt budget forces reduce_db (and hence GC) early
        // and often.
        let config = CdclConfig {
            max_learnts_floor: 20.0,
            ..CdclConfig::default()
        };
        let mut st = State::new(&c, config);
        let out = st.solve(&[], &Budget::default());
        assert!(out.is_unsat());
        assert!(
            st.stats.gc_passes >= 2,
            "expected ≥2 GC passes, got {}",
            st.stats.gc_passes
        );
        assert!(
            st.stats.gc_reclaimed_words > 0,
            "GC reclaimed no arena memory"
        );
        // The arena holds exactly the live clauses and every watcher
        // references one of them (panics otherwise).
        st.audit_clause_db();
        // One more pass over a halved learnt database compacts in the
        // same buffer: the arena neither moves nor grows.
        let doomed: Vec<ClauseRef> = st
            .learnts
            .iter()
            .flatten()
            .copied()
            .filter(|&c| !st.is_locked(c))
            .step_by(2)
            .collect();
        assert!(!doomed.is_empty());
        for &c in &doomed {
            st.arena.mark_deleted(c);
            st.detach_clause(c);
        }
        let (len, capacity) = (st.arena.data.len(), st.arena.data.capacity());
        let base = st.arena.data.as_ptr();
        st.collect_garbage();
        assert!(st.arena.data.len() < len);
        assert_eq!(st.arena.data.capacity(), capacity);
        assert_eq!(st.arena.data.as_ptr(), base);
        st.audit_clause_db();
    }

    /// Builds an incremental session holding `cnf`.
    fn incremental(c: &Cnf) -> CdclSolver {
        let mut s = CdclSolver::default();
        s.add_cnf(c);
        s
    }

    #[test]
    fn incremental_clause_addition_between_solves() {
        let mut s = CdclSolver::default();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        s.add_clause([a, b]);
        let m = s.solve_assuming(&[], &Budget::default()).expect_sat();
        assert!(m.lit_true(a) || m.lit_true(b));
        // Constrain further after the solve: force ¬a, then ¬b → UNSAT.
        s.add_clause([!a]);
        let m = s.solve_assuming(&[], &Budget::default()).expect_sat();
        assert!(!m.lit_true(a) && m.lit_true(b));
        s.add_clause([!b]);
        assert!(s.solve_assuming(&[], &Budget::default()).is_unsat());
        // Root-level UNSAT is permanent and independent of assumptions.
        assert!(s.final_assumption_conflict().is_empty());
        assert!(s.solve_assuming(&[a], &Budget::default()).is_unsat());
    }

    #[test]
    fn incremental_new_vars_after_solve() {
        let mut s = CdclSolver::default();
        let a = Lit::pos(s.new_var());
        s.add_clause([a]);
        assert!(s.solve_assuming(&[], &Budget::default()).is_sat());
        let b = Lit::pos(s.new_var());
        s.add_clause([!a, b]);
        let m = s.solve_assuming(&[], &Budget::default()).expect_sat();
        assert!(m.lit_true(a) && m.lit_true(b));
        assert_eq!(s.num_vars(), 2);
    }

    #[test]
    fn incremental_assumptions_flip_per_call() {
        let c = cnf(&[&[1, 2], &[-1, 2]]);
        let mut s = incremental(&c);
        assert!(s.solve_assuming(&[lit(-2)], &Budget::default()).is_unsat());
        // The same session answers SAT once the assumption flips.
        let m = s.solve_assuming(&[lit(2)], &Budget::default()).expect_sat();
        assert!(m.lit_true(lit(2)));
        assert!(s.final_assumption_conflict().is_empty());
        // And UNSAT again, with the failing assumption reported.
        assert!(s.solve_assuming(&[lit(-2)], &Budget::default()).is_unsat());
        assert_eq!(s.final_assumption_conflict(), &[lit(-2)]);
    }

    #[test]
    fn final_conflict_on_contradictory_assumptions() {
        let c = cnf(&[&[1, 2]]);
        let mut s = incremental(&c);
        s.new_var(); // the free variable 3 the assumptions contradict on
        let out = s.solve_assuming(&[lit(3), lit(-3)], &Budget::default());
        assert!(out.is_unsat());
        let mut core = s.final_assumption_conflict().to_vec();
        core.sort();
        let mut want = vec![lit(3), lit(-3)];
        want.sort();
        assert_eq!(core, want);
    }

    #[test]
    fn final_conflict_is_a_refuting_subset() {
        // php(4,3) with one selector literal per pigeon clause: assuming
        // all selectors off restores the UNSAT pigeonhole; the reported
        // subset must itself refute.
        let holes = 3i64;
        let pigeons = 4i64;
        let p = |i: i64, j: i64| (i - 1) * holes + j;
        let sel = |i: i64| holes * pigeons + i; // selector var per pigeon
        let mut c = Cnf::new(0);
        for i in 1..=pigeons {
            let mut clause: Vec<Lit> = (1..=holes).map(|j| lit(p(i, j))).collect();
            clause.push(lit(sel(i)));
            c.add_clause(clause);
        }
        for j in 1..=holes {
            for a in 1..=pigeons {
                for b in (a + 1)..=pigeons {
                    c.add_clause([lit(-p(a, j)), lit(-p(b, j))]);
                }
            }
        }
        let assumptions: Vec<Lit> = (1..=pigeons).map(|i| lit(-sel(i))).collect();
        let mut s = incremental(&c);
        assert!(s
            .solve_assuming(&assumptions, &Budget::default())
            .is_unsat());
        let core = s.final_assumption_conflict().to_vec();
        assert!(!core.is_empty());
        assert!(core.iter().all(|l| assumptions.contains(l)), "{core:?}");
        // The subset alone refutes on a fresh solver.
        let again = CdclSolver::default().solve_with(&c, &core, &Budget::default());
        assert!(again.is_unsat());
        // Relaxing one selector makes the session SAT again.
        let relaxed: Vec<Lit> = assumptions[1..].to_vec();
        assert!(s.solve_assuming(&relaxed, &Budget::default()).is_sat());
    }

    /// Clause retention: re-solving the same hard query in one session
    /// costs (far) fewer conflicts than the first solve.
    #[test]
    fn incremental_retains_learnt_clauses() {
        let holes = 5i64;
        let p = |i: i64, j: i64| (i - 1) * holes + j;
        let sel = 31i64; // one selector guarding the last pigeon clause
        let mut c = Cnf::new(0);
        for i in 1..=6 {
            let mut clause: Vec<Lit> = (1..=holes).map(|j| lit(p(i, j))).collect();
            if i == 6 {
                clause.push(lit(sel));
            }
            c.add_clause(clause);
        }
        for j in 1..=holes {
            for a in 1..=6i64 {
                for b in (a + 1)..=6 {
                    c.add_clause([lit(-p(a, j)), lit(-p(b, j))]);
                }
            }
        }
        let mut s = incremental(&c);
        assert!(s
            .solve_assuming(&[lit(-sel)], &Budget::default())
            .is_unsat());
        let first = s.session_stats();
        assert!(s
            .solve_assuming(&[lit(-sel)], &Budget::default())
            .is_unsat());
        let second = s.session_stats().since(first);
        assert!(
            second.conflicts < first.conflicts / 2,
            "retained clauses should cut the re-solve cost: first {} vs second {}",
            first.conflicts,
            second.conflicts
        );
        // The relaxed query is SAT in the same session.
        assert!(s.solve_assuming(&[lit(sel)], &Budget::default()).is_sat());
    }

    /// One-shot `Backend::solve_with` calls overwrite the `stats`
    /// mirror but never the session's cumulative counters.
    #[test]
    fn one_shot_solves_leave_session_stats_alone() {
        let c = cnf(&[&[1, 2]]);
        let mut s = incremental(&c);
        assert!(s.solve_assuming(&[], &Budget::default()).is_sat());
        let session = s.session_stats();
        assert!(session.propagations > 0);
        let other = cnf(&[&[1], &[-1]]);
        assert!(s.solve_with(&other, &[], &Budget::default()).is_unsat());
        assert_eq!(s.session_stats(), session, "one-shot left session alone");
        // The session keeps solving (and counting) correctly after.
        assert!(s.solve_assuming(&[lit(1)], &Budget::default()).is_sat());
        assert!(s.session_stats().propagations >= session.propagations);
    }

    /// The mirror-image direction of the stats separation: session
    /// solves must never touch the one-shot `stats` snapshot either.
    #[test]
    fn session_solves_leave_one_shot_stats_alone() {
        let c = cnf(&[&[1, 2]]);
        let other = cnf(&[&[1], &[-1]]);
        let mut s = incremental(&c);
        assert!(s.solve_with(&other, &[], &Budget::default()).is_unsat());
        let one_shot = s.stats;
        assert!(s.solve_assuming(&[], &Budget::default()).is_sat());
        assert!(s.session_stats().propagations > 0);
        assert_eq!(
            s.stats, one_shot,
            "session solve must not clobber the one-shot stats mirror"
        );
    }

    /// Clauses added after the session latched a root conflict are
    /// recorded and proof-logged; the session stays UNSAT instead of
    /// simplifying against the contradictory trail.
    #[test]
    fn add_clause_after_root_conflict_is_well_defined() {
        let mut s = CdclSolver::default();
        s.enable_proof();
        let a = Lit::pos(s.new_var());
        s.add_clause([a]);
        s.add_clause([!a]);
        assert!(s.solve_assuming(&[], &Budget::default()).is_unsat());
        let logged = s.proof().unwrap().len();
        let b = Lit::pos(s.new_var());
        s.add_clause([a, b]);
        s.add_clause([!b]);
        assert!(s.solve_assuming(&[], &Budget::default()).is_unsat());
        assert!(s.solve_assuming(&[b], &Budget::default()).is_unsat());
        assert!(s.final_assumption_conflict().is_empty());
        let proof = s.proof().expect("proof enabled");
        assert_eq!(
            proof.len(),
            logged + 2,
            "post-conflict additions must be logged"
        );
        crate::proof::certify_unsat(proof, &[]).expect("root refutation certifies");
        crate::proof::certify_unsat(proof, &[b]).expect("root refutation covers any core");
    }

    /// `final_assumption_conflict` is cleared by SAT and Unknown
    /// outcomes, not just overwritten by the next UNSAT.
    #[test]
    fn assumption_conflict_clears_on_sat_and_unknown() {
        // (1 2) plus a selector-gated UNSAT pigeonhole block (7 pigeons
        // into 6 holes): assuming the selector off restores the hard
        // refutation, which cannot finish within a one-conflict budget.
        let mut c = Cnf::new(0);
        c.add_clause([lit(1), lit(2)]);
        let p = |i: i64, j: i64| 2 + (i - 1) * 6 + j;
        let sel = 2 + 7 * 6;
        for i in 1..=7 {
            c.add_clause((1..=6).map(|j| lit(p(i, j))).chain([lit(sel)]));
        }
        for j in 1..=6 {
            for a in 1..=7i64 {
                for b in (a + 1)..=7 {
                    c.add_clause([lit(-p(a, j)), lit(-p(b, j))]);
                }
            }
        }
        let mut s = incremental(&c);
        assert!(s
            .solve_assuming(&[lit(-1), lit(-2)], &Budget::default())
            .is_unsat());
        assert!(!s.final_assumption_conflict().is_empty());
        let out = s.solve_assuming(&[lit(-sel)], &Budget::conflict_limit(1));
        assert!(matches!(out, SolveOutcome::Unknown(_)), "got {out:?}");
        assert!(
            s.final_assumption_conflict().is_empty(),
            "Unknown must clear the previous core"
        );
        assert!(s
            .solve_assuming(&[lit(-1), lit(-2)], &Budget::default())
            .is_unsat());
        assert!(!s.final_assumption_conflict().is_empty());
        assert!(s.solve_assuming(&[lit(1)], &Budget::default()).is_sat());
        assert!(
            s.final_assumption_conflict().is_empty(),
            "SAT must clear the previous core"
        );
    }

    /// End-to-end certification: proof logging through search plus the
    /// full inprocessing stack on a root refutation, validated by the
    /// in-tree DRAT checker.
    #[test]
    fn proof_certifies_pigeonhole_with_aggressive_inprocessing() {
        let c = pigeonhole(6);
        let mut s = CdclSolver::with_config(aggressive_inprocessing());
        s.enable_proof();
        s.add_cnf(&c);
        assert!(s.solve_assuming(&[], &Budget::default()).is_unsat());
        let report = crate::proof::certify_unsat(
            s.proof().expect("proof on"),
            s.final_assumption_conflict(),
        )
        .expect("proof checks");
        assert!(report.refuted());
    }

    /// Certification of an assumption-level UNSAT: the proof ends in
    /// the negated failed-assumption core, and the session keeps
    /// solving (and logging) afterwards.
    #[test]
    fn proof_certifies_assumption_core() {
        let mut s = CdclSolver::default();
        s.enable_proof();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        s.add_clause([a, b]);
        assert!(s.solve_assuming(&[!a, !b], &Budget::default()).is_unsat());
        crate::proof::certify_unsat(s.proof().expect("proof on"), s.final_assumption_conflict())
            .expect("assumption core certifies");
        assert!(s.solve_assuming(&[a], &Budget::default()).is_sat());
    }

    /// Conflict budgets are per call, so a fresh budget applies to every
    /// probe of a session.
    #[test]
    fn incremental_budget_is_per_call() {
        let c = pigeonhole(7);
        let mut s = incremental(&c);
        let budget = Budget::conflict_limit(5);
        for _ in 0..3 {
            assert!(matches!(
                s.solve_assuming(&[], &budget),
                SolveOutcome::Unknown(_)
            ));
        }
        // Cumulative conflicts exceed a single call's budget.
        assert!(s.session_stats().conflicts > 5);
    }

    /// GC during an incremental session keeps every retained structure
    /// (watchers, trail reasons, clause refs) valid across subsequent
    /// solves with changing assumptions.
    #[test]
    fn incremental_gc_survives_across_calls() {
        // php(7,6) with one selector per pigeon clause: all selectors
        // off is the hard UNSAT query, relaxing one selector is SAT.
        let holes = 6i64;
        let pigeons = 7i64;
        let p = |i: i64, j: i64| (i - 1) * holes + j;
        let sel = |i: i64| holes * pigeons + i;
        let mut c = Cnf::new(0);
        for i in 1..=pigeons {
            let mut clause: Vec<Lit> = (1..=holes).map(|j| lit(p(i, j))).collect();
            clause.push(lit(sel(i)));
            c.add_clause(clause);
        }
        for j in 1..=holes {
            for a in 1..=pigeons {
                for b in (a + 1)..=pigeons {
                    c.add_clause([lit(-p(a, j)), lit(-p(b, j))]);
                }
            }
        }
        let config = CdclConfig {
            max_learnts_floor: 20.0,
            ..CdclConfig::default()
        };
        let strict: Vec<Lit> = (1..=pigeons).map(|i| lit(-sel(i))).collect();
        let mut st = State::new(&c, config);
        for round in 0..3 {
            assert!(
                st.solve(&strict, &Budget::default()).is_unsat(),
                "round {round}"
            );
            st.cancel_until(0);
            st.audit_clause_db();
            let relaxed: Vec<Lit> = strict[1..].to_vec();
            assert!(
                st.solve(&relaxed, &Budget::default()).is_sat(),
                "round {round}"
            );
            st.cancel_until(0);
            st.audit_clause_db();
        }
        assert!(st.stats.gc_passes >= 1, "GC exercised across the session");
        assert!(!st.root_unsat, "assumption UNSAT must not latch root_unsat");
    }

    /// A configuration that inprocesses at every restart boundary and
    /// restarts every other conflict — tiny instances still exercise
    /// subsumption and chronological backtracking.
    fn aggressive_inprocessing() -> CdclConfig {
        CdclConfig {
            inprocess_interval: 0,
            restart_base: 2,
            chrono_from: Some(0),
            max_learnts_floor: 8.0,
            ..CdclConfig::default()
        }
    }

    #[test]
    fn subsumption_deletes_redundant_clauses() {
        // (1 2) subsumes (1 2 3) and (1 2 4); forcing conflicts via the
        // pigeonhole part triggers the inprocessing pass.
        let mut c = pigeonhole(5);
        c.add_clause([lit(21), lit(22)]);
        c.add_clause([lit(21), lit(22), lit(23)]);
        c.add_clause([lit(21), lit(22), lit(24)]);
        let config = CdclConfig {
            chrono_from: None,
            ..aggressive_inprocessing()
        };
        let mut st = State::new(&c, config);
        assert!(st.solve(&[], &Budget::default()).is_unsat());
        assert!(
            st.stats.subsumed_clauses >= 2,
            "the two supersets should be subsumed: {:?}",
            st.stats
        );
        st.audit_clause_db();
    }

    #[test]
    fn self_subsumption_strengthens_to_unit() {
        // (¬1 2) and (1 2) resolve to the unit (2); (¬2 3) then forces 3.
        let mut c = pigeonhole(5);
        c.add_clause([lit(-21), lit(22)]);
        c.add_clause([lit(21), lit(22)]);
        c.add_clause([lit(-22), lit(23)]);
        let config = CdclConfig {
            chrono_from: None,
            ..aggressive_inprocessing()
        };
        let mut st = State::new(&c, config);
        assert!(st.solve(&[], &Budget::default()).is_unsat());
        assert!(
            st.stats.strengthened_clauses >= 1,
            "self-subsuming resolution should fire: {:?}",
            st.stats
        );
        st.audit_clause_db();
    }

    /// Out-of-order enqueue below the current decision level: the
    /// literal records its assertion level, survives a partial
    /// backtrack to that level (compacted down the trail), and is
    /// re-queued for propagation exactly when this pass never reached
    /// it.
    #[test]
    fn enqueue_below_level_survives_partial_backtrack() {
        let c = cnf(&[&[1, 2, 3, 4, 5]]); // keeps vars 0..5 alive
        let mut st = State::new(&c, CdclConfig::default());
        st.propagate();
        let (a, b, u) = (lit(1), lit(2), lit(3));
        st.trail_lim.push(st.trail.len());
        st.enqueue(a, ClauseRef::NONE); // decision @1
        st.propagate();
        st.trail_lim.push(st.trail.len());
        st.enqueue(b, ClauseRef::NONE); // decision @2
        st.propagate();
        st.enqueue_at(u, ClauseRef::NONE, 1); // out-of-order @1
        assert_eq!(st.level[u.var().index()], 1);
        assert_eq!(st.stats.oob_enqueues, 1);
        let bound = st.trail_lim[1];
        st.cancel_until(1);
        // `b` (level 2) is gone, `u` (level 1) survives, compacted to
        // the old bound, and — never propagated — re-queued there.
        assert_eq!(st.value(b), 0);
        assert_eq!(st.value(u), 1);
        assert_eq!(st.decision_level(), 1);
        assert_eq!(*st.trail.last().expect("non-empty"), u);
        assert_eq!(st.qhead, bound, "unpropagated kept literal re-queued");
        // A second backtrack to the root drops it too.
        st.cancel_until(0);
        assert_eq!(st.value(u), 0);
        assert_eq!(st.qhead, st.trail.len());
    }

    /// `analyze` resolves only on conflict-level literals even when an
    /// out-of-order assignment is interleaved *above* them on the
    /// trail: the lower-level literal goes into the learnt clause (it
    /// has no reason to resolve through) and the backtrack level is its
    /// level.
    #[test]
    fn analyze_picks_true_levels_through_out_of_order_trail() {
        // R = (¬c ∨ d), K = (¬c ∨ ¬d ∨ ¬u): deciding c propagates d,
        // falsifying K once u is true out-of-order at level 1.
        let (a, b, cc, u) = (lit(1), lit(2), lit(3), lit(4));
        let c = cnf(&[&[-3, 5], &[-3, -5, -4], &[1, 2, 3, 4, 5]]);
        let mut st = State::new(&c, CdclConfig::default());
        st.propagate();
        st.trail_lim.push(st.trail.len());
        st.enqueue(a, ClauseRef::NONE); // decision @1
        st.propagate();
        st.trail_lim.push(st.trail.len());
        st.enqueue(b, ClauseRef::NONE); // decision @2
        st.propagate();
        st.trail_lim.push(st.trail.len());
        st.enqueue(cc, ClauseRef::NONE); // decision @3
                                         // Out-of-order: u asserts at level 1 but sits on the trail
                                         // *above* the level-3 decision (and above it, once c
                                         // propagates, the level-3 implication d).
        st.enqueue_at(u, ClauseRef::NONE, 1);
        let confl = st.propagate().expect("K is falsified");
        assert_eq!(st.max_level_in(confl), 3, "conflict at the true level");
        assert_eq!(
            st.lone_literal_at(confl, 3),
            None,
            "two literals at the conflict level: a real conflict"
        );
        let (bt, lbd) = st.analyze(confl);
        // 1UIP is ¬c; the other learnt literal is ¬u at its true
        // out-of-order level 1 — which is the backtrack level.
        assert_eq!(st.learnt_buf[0], !cc);
        assert_eq!(st.learnt_buf.len(), 2);
        assert_eq!(st.learnt_buf[1], !u);
        assert_eq!(bt, 1);
        assert_eq!(lbd, 2);
    }

    /// A falsified clause whose literals all sit below the current
    /// decision level is repaired as a missed implication (when unit
    /// below) rather than analyzed — and the search stays sound.
    #[test]
    fn out_of_order_solves_remain_sound_and_exercise_repairs() {
        let config = CdclConfig {
            chrono_from: Some(0),
            ema_restarts_from: Some(0),
            ema_min_interval: 2,
            restart_base: 2,
            max_learnts_floor: 8.0,
            ..CdclConfig::default()
        };
        let mut st = State::new(&pigeonhole(7), config.clone());
        assert!(st.solve(&[], &Budget::default()).is_unsat());
        assert!(st.stats.chrono_backtracks > 0, "{:?}", st.stats);
        assert!(
            st.stats.oob_enqueues + st.stats.missed_implications > 0,
            "out-of-order machinery must fire: {:?}",
            st.stats
        );
        st.audit_clause_db();
        // SAT side: models stay valid under the same aggressive config.
        let sat_cnf = cnf(&[&[1, 2, 3], &[-1, -2], &[-2, -3], &[-1, -3], &[2, 3]]);
        let mut s = CdclSolver::with_config(config);
        let m = s.solve_with(&sat_cnf, &[], &Budget::default()).expect_sat();
        assert!(sat_cnf.eval(&m));
    }

    #[test]
    fn chronological_backtracking_stays_correct() {
        let config = CdclConfig {
            chrono_from: Some(0),
            ..CdclConfig::default()
        };
        let mut st = State::new(&pigeonhole(6), config.clone());
        assert!(st.solve(&[], &Budget::default()).is_unsat());
        assert!(
            st.stats.chrono_backtracks > 0,
            "php(6,5) must trigger chronological backtracks: {:?}",
            st.stats
        );
        // And a SAT instance keeps producing valid models.
        let sat_cnf = cnf(&[&[1, 2, 3], &[-1, -2], &[-2, -3], &[-1, -3], &[2, 3]]);
        let mut s = CdclSolver::with_config(config);
        let m = s.solve_with(&sat_cnf, &[], &Budget::default()).expect_sat();
        assert!(sat_cnf.eval(&m));
    }

    /// All inprocessing features together, across an incremental
    /// session with flipping assumptions and mid-session clause
    /// additions — the invariants GC/watchers/reasons must survive.
    #[test]
    fn inprocessing_survives_incremental_sessions() {
        let holes = 5i64;
        let pigeons = 6i64;
        let p = |i: i64, j: i64| (i - 1) * holes + j;
        let sel = |i: i64| holes * pigeons + i;
        let mut c = Cnf::new(0);
        for i in 1..=pigeons {
            let mut clause: Vec<Lit> = (1..=holes).map(|j| lit(p(i, j))).collect();
            clause.push(lit(sel(i)));
            c.add_clause(clause);
        }
        for j in 1..=holes {
            for a in 1..=pigeons {
                for b in (a + 1)..=pigeons {
                    c.add_clause([lit(-p(a, j)), lit(-p(b, j))]);
                }
            }
        }
        let strict: Vec<Lit> = (1..=pigeons).map(|i| lit(-sel(i))).collect();
        let mut st = State::new(&c, aggressive_inprocessing());
        for round in 0..3 {
            assert!(
                st.solve(&strict, &Budget::default()).is_unsat(),
                "round {round}"
            );
            st.cancel_until(0);
            st.audit_clause_db();
            let relaxed: Vec<Lit> = strict[1..].to_vec();
            match st.solve(&relaxed, &Budget::default()) {
                SolveOutcome::Sat(m) => {
                    assert!(c.eval(&m), "round {round} model");
                    for &a in &relaxed {
                        assert!(m.lit_true(a), "round {round} assumption {a}");
                    }
                }
                other => panic!("round {round}: expected SAT, got {other:?}"),
            }
            st.cancel_until(0);
            st.audit_clause_db();
        }
        assert!(
            st.stats.subsumed_clauses + st.stats.strengthened_clauses > 0,
            "inprocessing should have fired: {:?}",
            st.stats
        );
        assert!(!st.root_unsat, "assumption UNSAT must not latch root_unsat");
    }

    /// Inprocessing runs between `solve_assuming` calls of the public
    /// API too, and `final_assumption_conflict` keeps refuting.
    #[test]
    fn inprocessing_preserves_assumption_cores() {
        let c = cnf(&[
            &[1, 2],
            &[-1, 2],
            &[1, -2],
            &[-1, -2, 3],
            &[-3, 4],
            &[-4, 1],
        ]);
        let mut s = CdclSolver::with_config(aggressive_inprocessing());
        s.add_cnf(&c);
        for _ in 0..4 {
            let out = s.solve_assuming(&[lit(-2)], &Budget::default());
            assert!(out.is_unsat());
            let core = s.final_assumption_conflict().to_vec();
            assert!(core.iter().all(|l| *l == lit(-2)), "{core:?}");
            let recheck = CdclSolver::default().solve_with(&c, &core, &Budget::default());
            assert!(recheck.is_unsat(), "core fails to refute");
            assert!(s.solve_assuming(&[lit(2)], &Budget::default()).is_sat());
        }
    }

    /// SAT verdicts (with model validation) survive repeated GC too.
    #[test]
    fn gc_preserves_sat_models() {
        use rand::rngs::SmallRng;
        let mut rng = SmallRng::seed_from_u64(3);
        for round in 0..5 {
            let n = 40;
            let mut c = Cnf::new(n);
            for _ in 0..150 {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    let v = rng.random_range(0..n as u32);
                    cl.push(Lit::new(Var(v), rng.random_bool(0.5)));
                }
                c.add_clause(cl);
            }
            let config = CdclConfig {
                max_learnts_floor: 10.0,
                ..CdclConfig::default()
            };
            let mut st = State::new(&c, config.clone());
            match st.solve(&[], &Budget::default()) {
                SolveOutcome::Sat(m) => assert!(c.eval(&m), "bogus model in round {round}"),
                SolveOutcome::Unsat => {
                    // Cross-check against the default configuration.
                    assert!(solve(&c).is_unsat(), "verdict flipped in round {round}");
                }
                SolveOutcome::Unknown(_) => panic!("unbounded solve returned unknown"),
            }
            st.audit_clause_db();
        }
    }

    /// Drives `seeds.len()` exchange-connected incremental sessions in
    /// deterministic lockstep (round-robin, fixed conflict quanta) on
    /// one thread until a worker returns a definitive verdict. The
    /// returned trace records every turn's cumulative per-worker
    /// conflict and import counters — two runs must produce it
    /// identically for the sharing design to count as deterministic.
    #[allow(clippy::type_complexity)]
    fn drive_lockstep(
        c: &Cnf,
        seeds: &[u64],
        quantum: u64,
        certify: bool,
    ) -> (
        usize,
        SolveOutcome,
        Vec<SolverStats>,
        Vec<(usize, u64, u64)>,
    ) {
        let hub = Arc::new(ClauseExchange::new(seeds.len(), 256));
        let mut workers: Vec<CdclSolver> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let mut s = CdclSolver::with_config(CdclConfig::diversified(seed));
                if certify {
                    s.enable_proof();
                }
                s.add_cnf(c);
                s.connect_exchange(Arc::clone(&hub), i, ShareLimits::default());
                s
            })
            .collect();
        let mut trace = Vec::new();
        loop {
            for i in 0..workers.len() {
                let outcome = workers[i].solve_assuming(&[], &Budget::conflict_limit(quantum));
                let stats = workers[i].session_stats();
                trace.push((i, stats.conflicts, stats.imported_clauses));
                if !matches!(outcome, SolveOutcome::Unknown(_)) {
                    if certify && outcome.is_unsat() {
                        let log = workers[i].proof().expect("proof enabled");
                        crate::proof::certify_unsat(log, workers[i].final_assumption_conflict())
                            .expect("imported-clause refutation certifies");
                    }
                    let finals = workers.iter().map(|w| w.session_stats()).collect();
                    return (i, outcome, finals, trace);
                }
            }
        }
    }

    /// Two identical lockstep sharing runs replay bit-identically:
    /// same winner, same per-turn conflict/import trace, same final
    /// stats — the determinism contract of the sharing portfolio.
    #[test]
    fn exchange_lockstep_runs_are_deterministic() {
        let c = pigeonhole(7);
        let run1 = drive_lockstep(&c, &[0, 1, 2], 200, false);
        let run2 = drive_lockstep(&c, &[0, 1, 2], 200, false);
        assert_eq!(run1.0, run2.0, "winner differs between runs");
        assert!(run1.1.is_unsat() && run2.1.is_unsat());
        assert_eq!(run1.2, run2.2, "final stats differ between runs");
        assert_eq!(run1.3, run2.3, "import/conflict trace differs");
        // Sharing actually happened: someone exported, someone
        // imported, and at least one import survived the RUP check.
        let total: SolverStats = run1
            .2
            .iter()
            .copied()
            .fold(SolverStats::default(), SolverStats::merged);
        assert!(total.exported_clauses > 0, "no clauses exported");
        assert!(total.imported_clauses > 0, "no clauses imported");
        assert!(total.imported_kept > 0, "no import survived the re-check");
    }

    /// An import-enabled session's UNSAT answer still certifies: every
    /// imported clause entered the log as a RUP step the forward
    /// checker accepts.
    #[test]
    fn exchange_unsat_with_imports_certifies() {
        let c = pigeonhole(6);
        let (_, outcome, finals, _) = drive_lockstep(&c, &[0, 1], 100, true);
        assert!(outcome.is_unsat());
        let total = finals
            .iter()
            .copied()
            .fold(SolverStats::default(), SolverStats::merged);
        assert!(
            total.imported_clauses > 0,
            "the certified run never exercised an import"
        );
    }

    fn faulted_config(kind: FaultKind, at: u64) -> CdclConfig {
        CdclConfig {
            fault_plan: Some(FaultPlan {
                kind,
                at,
                only_seed: None,
            }),
            ..CdclConfig::default()
        }
    }

    /// The injected panic fires at its trigger conflict and unwinds
    /// out of `solve` (portfolio drivers catch it at the quantum
    /// boundary).
    #[test]
    fn injected_panic_fires_at_trigger() {
        let c = pigeonhole(6);
        let result = std::panic::catch_unwind(|| {
            CdclSolver::with_config(faulted_config(FaultKind::Panic, 5)).solve_with(
                &c,
                &[],
                &Budget::default(),
            )
        });
        let payload = result.expect_err("the injected panic must fire");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("injected fault"), "unexpected payload {msg:?}");
    }

    /// A simulated arena-growth failure surfaces as a memory verdict,
    /// fires exactly once, and leaves the session sound: the re-solve
    /// reaches the true verdict.
    #[test]
    fn injected_arena_oom_is_one_shot_and_sound() {
        let c = pigeonhole(4);
        let mut s = CdclSolver::with_config(faulted_config(FaultKind::ArenaOom, 1));
        s.add_cnf(&c);
        let out = s.solve_assuming(&[], &Budget::default());
        assert!(matches!(
            out,
            SolveOutcome::Unknown(ExhaustionReason::Memory)
        ));
        assert!(s.solve_assuming(&[], &Budget::default()).is_unsat());
    }

    /// The truncated-proof fault freezes the log mid-run; the forward
    /// checker must refuse the incomplete refutation rather than
    /// certify it.
    #[test]
    fn injected_proof_truncation_is_rejected_by_the_checker() {
        let c = pigeonhole(4);
        let mut s = CdclSolver::with_config(faulted_config(FaultKind::TruncateProof, 1));
        s.enable_proof();
        s.add_cnf(&c);
        assert!(s.solve_assuming(&[], &Budget::default()).is_unsat());
        let log = s.proof().expect("proof enabled");
        assert!(log.is_frozen(), "the fault never froze the log");
        let err = crate::proof::certify_unsat(log, s.final_assumption_conflict())
            .expect_err("a truncated proof must not certify");
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    /// Corrupt-clause containment: worker 0 publishes one exported
    /// clause with a flipped literal; the importers' RUP re-check is
    /// the only line of defense. The fleet must still reach the right
    /// verdict and its UNSAT proof must still certify — which it could
    /// not if the corrupt clause had been admitted and logged.
    #[test]
    fn corrupted_exchange_clause_is_contained_by_the_import_filter() {
        let c = pigeonhole(6);
        let hub = Arc::new(ClauseExchange::new(2, 256));
        let mut workers: Vec<CdclSolver> = (0..2u64)
            .map(|seed| {
                let mut config = CdclConfig::diversified(seed);
                if seed == 0 {
                    config.fault_plan = Some(FaultPlan {
                        kind: FaultKind::CorruptExchange,
                        at: 1,
                        only_seed: Some(config.seed),
                    });
                }
                let mut s = CdclSolver::with_config(config);
                s.enable_proof();
                s.add_cnf(&c);
                s.connect_exchange(Arc::clone(&hub), seed as usize, ShareLimits::default());
                s
            })
            .collect();
        'driver: loop {
            for worker in &mut workers {
                let outcome = worker.solve_assuming(&[], &Budget::conflict_limit(100));
                if !matches!(outcome, SolveOutcome::Unknown(_)) {
                    assert!(outcome.is_unsat(), "fleet verdict flipped");
                    let log = worker.proof().expect("proof enabled");
                    crate::proof::certify_unsat(log, worker.final_assumption_conflict())
                        .expect("refutation must certify despite the corrupt clause");
                    break 'driver;
                }
            }
        }
        // The fault actually fired: worker 0 exported something after
        // its first conflict, so the flipped clause was in flight.
        assert!(
            workers[0].session_stats().exported_clauses > 0,
            "worker 0 never exported — the corruption never happened"
        );
    }

    /// The import filter: satisfied clauses are rejected, clauses not
    /// yet RUP locally are rejected, RUP units are asserted at the
    /// root.
    #[test]
    fn import_filter_keeps_only_rup_clauses() {
        let c = cnf(&[&[1, 2], &[-1, 2], &[3, 4]]);
        let mut st = State::new(&c, CdclConfig::default());
        let hub = Arc::new(ClauseExchange::new(2, 8));
        st.exchange = Some(ExchangeLink {
            hub: Arc::clone(&hub),
            worker: 0,
            limits: ShareLimits::default(),
        });
        // (2) is RUP: assuming ¬2 makes both binary clauses unit on
        // 1 and ¬1. (3 4) duplicates a present clause, whose live copy
        // propagates under the probe — duplicates pass the re-check
        // (sound, mildly wasteful). (1 3) is not implied by unit
        // propagation: assuming ¬1 ¬3 propagates 4 and conflicts
        // nowhere, so it is rejected. (8 9) is over unknown
        // variables, rejected outright.
        hub.publish(1, &[lit(2)], 1);
        hub.publish(1, &[lit(3), lit(4)], 2);
        hub.publish(1, &[lit(1), lit(3)], 2);
        hub.publish(1, &[lit(8), lit(9)], 2);
        st.import_shared_clauses();
        assert_eq!(st.stats.imported_clauses, 4);
        assert_eq!(st.stats.imported_kept, 2);
        assert_eq!(st.value(lit(2)), 1, "RUP unit asserted at root");
        // A clause satisfied at the root is rejected on arrival.
        hub.publish(1, &[lit(2), lit(4)], 2);
        st.import_shared_clauses();
        assert_eq!(st.stats.imported_clauses, 5);
        assert_eq!(st.stats.imported_kept, 2);
        st.audit_clause_db();
    }

    /// An import over a variable the importer eliminated is dropped:
    /// the variable (and everything eliminated after it) stays
    /// eliminated, and the importer's UNSAT verdict still certifies.
    #[test]
    fn import_over_an_eliminated_variable_is_dropped() {
        // (1 2) (-1 3) make (2 3); (-2 4) (-3 4) then force 4, and
        // (-4 5) (-4 -5) refute it. Only variable 1 may go.
        let c = cnf(&[&[1, 2], &[-1, 3], &[-2, 4], &[-3, 4], &[-4, 5], &[-4, -5]]);
        let mut st = State::empty(CdclConfig::default());
        st.proof = Some(Box::default());
        st.load_cnf(&c);
        for v in 1..5 {
            st.frozen[v] = true;
        }
        assert!(st.eliminate_vars(None));
        st.collect_garbage();
        assert!(st.eliminated[0]);
        let hub = Arc::new(ClauseExchange::new(2, 8));
        st.exchange = Some(ExchangeLink {
            hub: Arc::clone(&hub),
            worker: 0,
            limits: ShareLimits::default(),
        });
        // (-1 4) is entailed, and RUP once variable 1 is back.
        hub.publish(1, &[lit(-1), lit(4)], 2);
        st.import_shared_clauses();
        assert_eq!(st.stats.imported_clauses, 1);
        assert_eq!(st.stats.imported_kept, 0);
        assert!(
            st.eliminated[0],
            "the import restored an eliminated variable"
        );
        assert_eq!(st.elim_stack.len(), 1);
        st.audit_clause_db();
        assert!(st.solve(&[], &Budget::default()).is_unsat());
        let proof = st.proof.as_deref().expect("proof on");
        crate::proof::certify_unsat(proof, &[]).expect("the refutation certifies");
    }

    /// Export honors the admission limits: units always, longer
    /// clauses only within the LBD/length bounds.
    #[test]
    fn export_respects_share_limits() {
        let c = cnf(&[&[1, 2], &[-1, 2], &[3, 4]]);
        let mut st = State::new(&c, CdclConfig::default());
        let hub = Arc::new(ClauseExchange::new(2, 8));
        st.exchange = Some(ExchangeLink {
            hub: Arc::clone(&hub),
            worker: 0,
            limits: ShareLimits {
                max_lbd: 2,
                max_len: 3,
            },
        });
        st.export_learnt(&[lit(2)], 9); // unit: always exported
        st.export_learnt(&[lit(1), lit(3)], 2); // within limits
        st.export_learnt(&[lit(1), lit(3)], 3); // LBD too high
        st.export_learnt(&[lit(1), lit(2), lit(3), lit(4)], 2); // too long
        assert_eq!(st.stats.exported_clauses, 2);
        assert_eq!(hub.drain(1).len(), 2);
    }

    /// Satellite regression: a raised stop flag is honored at
    /// inprocessing pass boundaries — a cancelled worker must not burn
    /// a full subsumption/elimination pass after the winner finished.
    #[test]
    fn stop_flag_skips_inprocessing_passes() {
        use std::sync::atomic::AtomicBool;
        let build = || {
            let mut st = State::new(
                &cnf(&[&[1, 2], &[1, 2, 3], &[-1, 4], &[-2, -3], &[3, 4, 5]]),
                CdclConfig {
                    tiers_from: Some(0),
                    elim_from: Some(0),
                    ..CdclConfig::default()
                },
            );
            // Pretend the schedule is due.
            st.stats.conflicts = st.next_inprocess;
            st
        };
        let stopped = AtomicBool::new(true);
        let mut st = build();
        st.maybe_inprocess(Some(&stopped), None);
        assert_eq!(st.stats.subsumed_clauses, 0, "subsumption ran despite stop");
        assert_eq!(st.stats.eliminated_vars, 0, "elimination ran despite stop");
        let mut st = build();
        st.maybe_inprocess(None, None);
        assert!(
            st.stats.subsumed_clauses > 0 || st.stats.eliminated_vars > 0,
            "control run was expected to simplify something"
        );
    }

    /// Satellite regression: a raised stop flag exits at the *restart
    /// boundary*, well before the 256-conflict amortized budget poll.
    #[test]
    fn stop_flag_exits_at_restart_boundary() {
        use std::sync::atomic::AtomicBool;
        let config = CdclConfig {
            ema_restarts_from: None,
            restart_base: 10,
            ..CdclConfig::default()
        };
        let mut solver = CdclSolver::with_config(config);
        solver.add_cnf(&pigeonhole(7));
        let stop = Arc::new(AtomicBool::new(true));
        let outcome = solver.solve_assuming(&[], &Budget::default().with_stop(Arc::clone(&stop)));
        assert!(matches!(outcome, SolveOutcome::Unknown(_)));
        assert!(
            solver.session_stats().conflicts < 256,
            "stop was only honored by the amortized poll, got {} conflicts",
            solver.session_stats().conflicts
        );
    }

    /// Golden trajectory: one fixed random 3-SAT instance solved with
    /// every inprocessing pass forced on from the first conflict
    /// (subsumption with periodic full sweeps, bounded variable
    /// elimination, the tier database, and the compacting GC after
    /// each). The expected counters pin the search exactly: a change
    /// to the solver's memory layout (occurrence index, elimination
    /// stack, arena or watch-list storage) must leave every one of
    /// them unchanged.
    #[test]
    fn golden_trajectory_with_forced_inprocessing() {
        let c = golden_3sat();
        let config = CdclConfig {
            ema_restarts_from: None,
            restart_base: 20,
            chrono_from: Some(0),
            tiers_from: Some(0),
            elim_from: Some(0),
            inprocess_interval: 100,
            max_learnts_floor: 300.0,
            ..CdclConfig::default()
        };
        let mut s = CdclSolver::with_config(config);
        let out = s.solve_with(&c, &[], &Budget::conflict_limit(6_000));
        assert!(matches!(
            out,
            SolveOutcome::Unknown(ExhaustionReason::Conflicts)
        ));
        let expected = SolverStats {
            decisions: 7218,
            conflicts: 6000,
            propagations: 202_116,
            restarts: 103,
            learned: 5834,
            deleted: 1291,
            minimized_lits: 16_006,
            gc_passes: 11,
            gc_reclaimed_words: 55_332,
            subsumed_clauses: 1070,
            strengthened_clauses: 704,
            chrono_backtracks: 821,
            missed_implications: 166,
            eliminated_vars: 45,
            elim_resolvents: 677,
            exhausted_conflicts: 1,
            ..SolverStats::default()
        };
        assert_eq!(s.stats, expected);
    }

    /// The fixed random 3-SAT instance of the golden-trajectory tests:
    /// 250 variables, 1,050 clauses, drawn from a splitmix64 stream so
    /// it is independent of `rand`.
    fn golden_3sat() -> Cnf {
        let mut state = 0x005E_ED0F_1A55_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let n = 250u64;
        let mut c = Cnf::new(n as usize);
        for _ in 0..1_050 {
            let cl: Vec<Lit> = (0..3)
                .map(|_| {
                    let r = next();
                    Lit::new(Var((r % n) as u32), (r >> 32) & 1 == 1)
                })
                .collect();
            c.add_clause(cl);
        }
        c
    }

    /// Golden trajectories of the four portfolio arms: each
    /// [`CdclConfig::diversified`] configuration runs the golden 3-SAT
    /// instance for 12,000 conflicts, long enough that every gated
    /// technique (chronological backtracking, EMA restarts, the tier
    /// database, variable elimination, rephasing) acts in some arm.
    /// The expected counters pin each arm's search exactly, one test
    /// per arm so the test harness runs the arms concurrently.
    fn diversified_arm_golden() -> [SolverStats; 4] {
        [
            SolverStats {
                decisions: 12_777,
                conflicts: 12_000,
                propagations: 460_452,
                restarts: 29,
                learned: 11_729,
                deleted: 5598,
                minimized_lits: 42_116,
                gc_passes: 7,
                gc_reclaimed_words: 130_674,
                subsumed_clauses: 1238,
                strengthened_clauses: 733,
                chrono_backtracks: 1238,
                missed_implications: 271,
                restarts_blocked: 1,
                rephases: 1,
                eliminated_vars: 33,
                elim_resolvents: 478,
                exhausted_conflicts: 1,
                ..SolverStats::default()
            },
            SolverStats {
                decisions: 12_076,
                conflicts: 12_000,
                propagations: 431_022,
                restarts: 4,
                learned: 11_706,
                deleted: 5804,
                minimized_lits: 38_905,
                gc_passes: 7,
                gc_reclaimed_words: 153_637,
                subsumed_clauses: 335,
                strengthened_clauses: 841,
                chrono_backtracks: 1454,
                missed_implications: 294,
                rephases: 1,
                eliminated_vars: 33,
                elim_resolvents: 478,
                exhausted_conflicts: 1,
                ..SolverStats::default()
            },
            SolverStats {
                decisions: 14_284,
                conflicts: 12_000,
                propagations: 542_819,
                restarts: 14,
                learned: 12_000,
                deleted: 9885,
                minimized_lits: 42_947,
                gc_passes: 12,
                gc_reclaimed_words: 166_894,
                exhausted_conflicts: 1,
                ..SolverStats::default()
            },
            SolverStats {
                decisions: 14_391,
                conflicts: 12_000,
                propagations: 474_732,
                restarts: 23,
                learned: 12_000,
                deleted: 3943,
                minimized_lits: 47_317,
                gc_passes: 8,
                gc_reclaimed_words: 150_870,
                subsumed_clauses: 3291,
                strengthened_clauses: 1907,
                rephases: 2,
                eliminated_vars: 45,
                elim_resolvents: 677,
                exhausted_conflicts: 1,
                ..SolverStats::default()
            },
        ]
    }

    /// Runs arm `seed` of [`diversified_arm_golden`] and checks its
    /// counters.
    fn assert_diversified_arm_golden(seed: u64) {
        let mut s = CdclSolver::with_config(CdclConfig::diversified(seed));
        let out = s.solve_with(&golden_3sat(), &[], &Budget::conflict_limit(12_000));
        assert!(matches!(
            out,
            SolveOutcome::Unknown(ExhaustionReason::Conflicts)
        ));
        assert_eq!(
            s.stats,
            diversified_arm_golden()[seed as usize],
            "arm {seed}"
        );
    }

    #[test]
    fn diversified_arm0_golden_trajectory() {
        assert_diversified_arm_golden(0);
    }

    #[test]
    fn diversified_arm1_golden_trajectory() {
        assert_diversified_arm_golden(1);
    }

    #[test]
    fn diversified_arm2_golden_trajectory() {
        assert_diversified_arm_golden(2);
    }

    #[test]
    fn diversified_arm3_golden_trajectory() {
        assert_diversified_arm_golden(3);
    }
}
