//! Optimization loops around the synthesizer (paper Fig. 12b).
//!
//! The synthesizer answers one SAT/UNSAT question; optimization asks a
//! sequence of them: shrink the allowed volume until UNSAT (descending),
//! or grow it until SAT (ascending) — probe by probe for most specs, with
//! one lockstep worker per candidate depth for a mid-size one — and
//! run diversified seeds as one lockstep portfolio whose earliest
//! verdict wins.

use crate::decode::{decode, decode_layered};
use crate::encode::{encode, encode_layered};
use crate::session::{certify, open_solver, settle, Fleet, WorkerState};
use crate::synthesize::{BackendChoice, SynthError, SynthOptions, SynthResult, Synthesizer};
use lasre::{LasDesign, LasSpec, SpecError};
use sat::{Budget, CdclConfig, ClauseExchange, ExhaustionReason, SolverStats};
use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One probe of the depth search.
#[derive(Debug)]
pub struct DepthProbe {
    /// The `max_k` tried.
    pub max_k: usize,
    /// `Some(true)` = SAT, `Some(false)` = UNSAT, `None` = budget expired.
    pub sat: Option<bool>,
    /// Wall-clock time of the solve.
    pub time: Duration,
    /// Search statistics of this probe's solve (conflicts,
    /// propagations, …). `None` when the backend reports none
    /// (varisat).
    pub stats: Option<SolverStats>,
    /// Whether this probe's UNSAT verdict carried a DRAT proof that
    /// passed the in-tree checker (`options.certify` only; always
    /// `false` for SAT/Unknown probes — a failing check aborts the
    /// search with [`SynthError::Certify`] instead).
    pub certified: bool,
    /// Which budget axis expired when `sat` is `None` (conflicts,
    /// deadline or memory ceiling). `None` for resolved probes and for
    /// backends that report no statistics.
    pub exhaustion: Option<ExhaustionReason>,
}

/// Result of [`find_min_depth`].
///
/// Always returned, even when the budget died mid-search: the *anytime*
/// answer is the window [`DepthSearch::certified_lower_bound`] ..
/// [`DepthSearch::best_depth`], with [`DepthSearch::exhaustion`]
/// explaining which resource ran out (`None` means the search resolved
/// the minimum exactly).
#[derive(Debug)]
pub struct DepthSearch {
    /// Every probe performed, in order.
    pub probes: Vec<DepthProbe>,
    /// The best verified design found, if any.
    pub best: Option<LasDesign>,
    /// The searched depth range (inclusive): the requested range cut
    /// to its [`valid_depth_window`] around the start depth.
    pub lo: usize,
    /// See [`DepthSearch::lo`].
    pub hi: usize,
    /// Why the search stopped without resolving the minimum, if it
    /// did: the budget axis that expired on the probe/driver that gave
    /// up first. `None` when the window closed.
    pub exhaustion: Option<ExhaustionReason>,
    /// Depth-parallel workers that crashed mid-search, as `(max_k,
    /// panic message)` — the fleet continued on the survivors.
    pub quarantined: Vec<(usize, String)>,
}

impl DepthSearch {
    /// The minimal satisfiable `max_k` discovered.
    pub fn best_depth(&self) -> Option<usize> {
        self.best.as_ref().map(|d| d.spec().max_k)
    }

    /// The largest depth proven unreachable plus one: every depth below
    /// this is refuted (UNSAT), so the true minimum — if any design
    /// exists in range — is at least this deep. Falls back to the
    /// range floor `lo` when no probe returned UNSAT: the depths below
    /// the valid window are malformed and hold no design.
    pub fn certified_lower_bound(&self) -> usize {
        self.probes
            .iter()
            .filter(|p| p.sat == Some(false))
            .map(|p| p.max_k + 1)
            .max()
            .map_or(self.lo, |b| b.max(self.lo))
    }

    /// The anytime answer: `(certified lower bound, best SAT depth)`.
    /// When the search resolved, the two coincide; under an expired
    /// budget they bracket where the true minimum can still hide.
    pub fn window(&self) -> (usize, Option<usize>) {
        (self.certified_lower_bound(), self.best_depth())
    }
}

/// The paper's probe order (start somewhere, descend while SAT, ascend
/// while UNSAT), shared by the incremental and from-scratch modes.
/// `probe` answers one depth under the budget it is handed, with its
/// result, solve time and solver statistics.
///
/// `options.budget.max_time` is one deadline for the whole walk: each
/// probe gets the time that is left, and once it has passed the walk
/// stops before its next probe and reports
/// [`ExhaustionReason::Deadline`]. The other axes pass to every probe
/// unchanged.
fn drive_depth_search(
    lo: usize,
    hi: usize,
    start: usize,
    options: &SynthOptions,
    mut probe: impl FnMut(
        usize,
        &Budget,
    ) -> Result<(SynthResult, Duration, Option<SolverStats>), SynthError>,
) -> Result<DepthSearch, SynthError> {
    let deadline = options.budget.max_time.map(|t| Instant::now() + t);
    let mut expired = false;
    let mut probes = Vec::new();
    let mut best: Option<LasDesign> = None;
    let mut step = |k: usize,
                    probes: &mut Vec<DepthProbe>,
                    best: &mut Option<LasDesign>|
     -> Result<Option<bool>, SynthError> {
        let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        if left == Some(Duration::ZERO) {
            expired = true;
            return Ok(None);
        }
        let budget = Budget {
            max_time: left,
            ..options.budget.clone()
        };
        let (result, time, stats) = probe(k, &budget)?;
        let sat = match result {
            SynthResult::Sat(d) => {
                if best
                    .as_ref()
                    .is_none_or(|b| d.spec().max_k < b.spec().max_k)
                {
                    *best = Some(*d);
                }
                Some(true)
            }
            SynthResult::Unsat => Some(false),
            SynthResult::Unknown => None,
        };
        probes.push(DepthProbe {
            max_k: k,
            sat,
            time,
            stats,
            // A certifying UNSAT whose proof failed to check has
            // already errored.
            certified: options.certify && sat == Some(false),
            // The statistics are this probe's own, so they name the
            // budget axis that expired (`None` under varisat, which
            // reports none).
            exhaustion: match sat {
                None => stats.and_then(|s| s.exhaustion_reason()),
                Some(_) => None,
            },
        });
        Ok(sat)
    };
    let mut k = start;
    match step(k, &mut probes, &mut best)? {
        Some(true) => {
            // Descend while SAT.
            while k > lo {
                k -= 1;
                match step(k, &mut probes, &mut best)? {
                    Some(true) => continue,
                    _ => break,
                }
            }
        }
        Some(false) => {
            // Ascend while UNSAT.
            while k < hi {
                k += 1;
                match step(k, &mut probes, &mut best)? {
                    Some(false) => continue,
                    _ => break,
                }
            }
        }
        None => {}
    }
    // The walk stops at the passed deadline or at the first undecided
    // probe, so the anytime exhaustion reason is the deadline or that
    // probe's (there is at most one).
    let exhaustion = if expired {
        Some(ExhaustionReason::Deadline)
    } else {
        probes
            .iter()
            .rev()
            .find_map(|p| if p.sat.is_none() { p.exhaustion } else { None })
    };
    Ok(DepthSearch {
        probes,
        best,
        lo,
        hi,
        exhaustion,
        quarantined: Vec::new(),
    })
}

/// Finds the minimal time extent (`max_k`) at which `spec` is
/// satisfiable, between `lo` and `hi` (inclusive), exactly as the
/// paper's evaluation does: start somewhere, descend while SAT, ascend
/// while UNSAT (Sec. V-B).
///
/// The spec's `-K` ports are relocated to each probed top layer via
/// [`LasSpec::with_depth`].
///
/// Every mode searches only the [`valid_depth_window`] around `start`
/// within `[lo, hi]`, and reports it as [`DepthSearch::lo`] and
/// [`DepthSearch::hi`]. A malformed depth holds no design, so the walk
/// reads the window's edges as it reads an UNSAT probe.
///
/// With the CDCL backend the search picks its strategy from the
/// instance ([`searches_as_fleet`]). Most specs run the walk as
/// **one incremental solver session** over a depth-layered encoding
/// ([`encode_layered`]): each probe is a `solve_assuming` call under
/// that depth's activation literals, so the clauses learnt refuting or
/// solving one depth carry over to the next. A mid-size one runs the
/// depth fleet: one lockstep worker per candidate depth over a shared
/// depth-layered encoding, with the monotone depth axis pruning every
/// depth a verdict dominates. The answer (`best_depth`) is the same;
/// the fleet's *probe list* holds one entry per worker that ran, in
/// ascending depth order, and `sat: None` marks a worker pruned or out
/// of budget before its own verdict. With the varisat backend, which
/// lacks an incremental API, the search is [`find_min_depth_scratch`],
/// which probes the same depths as the walk and returns the same
/// verdicts.
///
/// Under either strategy `options.budget.max_time` is one deadline and
/// `max_memory_words` one arena ceiling for the whole search (a fleet
/// of n depth workers gives each 1/n of it), and `max_conflicts`
/// bounds each solver: every probe of a walk, every depth worker of a
/// fleet.
///
/// # Panics
///
/// Panics if `start` is outside `[lo, hi]`.
///
/// # Errors
///
/// The spec error at `start` itself, and any [`SynthError`] from a
/// probe.
pub fn find_min_depth(
    spec: &LasSpec,
    lo: usize,
    hi: usize,
    start: usize,
    options: &SynthOptions,
) -> Result<DepthSearch, SynthError> {
    let BackendChoice::Cdcl(config) = &options.backend else {
        return find_min_depth_scratch(spec, lo, hi, start, options);
    };
    let (lo, hi) = valid_depth_window(spec, lo, hi, start)?;
    if searches_as_fleet(spec, start) {
        find_min_depth_parallel(spec, lo, hi, options, config)
    } else {
        find_min_depth_incremental(spec, lo, hi, start, options, config)
    }
}

/// The spec sizes, as `V · nstab` (Table I) at the start depth, at
/// which a CDCL depth search runs as a fleet instead of a walk: the
/// sizes where the fleet was measured to win, the Fig. 15 majority gate
/// at width 5 (810), which finds its minimum several times sooner as a
/// fleet. Below, a fleet round cannot end early and every depth worker
/// spends at least one quantum: every Fig. 13 graph state of the paper
/// corpus (at most 576) and the majority gate at widths 3 and 4 (540
/// and 675) are no slower as walks. Above, on the T-factories
/// (1,584 and more), neither strategy decides a depth in five minutes,
/// the walk spends twice the conflicts on the start depth that the
/// fleet spends on any one depth, and the fleet holds one solver per
/// depth.
const FLEET_V_NSTAB: Range<usize> = 750..1_500;

/// Whether [`find_min_depth`] with the CDCL backend runs `spec`, started
/// at depth `start`, as the depth fleet (`true`) or as the sequential
/// walk (`false`): the fleet exactly when `V · nstab` at `start` lies in
/// a fixed mid-size range.
pub fn searches_as_fleet(spec: &LasSpec, start: usize) -> bool {
    FLEET_V_NSTAB.contains(&spec.with_depth(start).v_nstab())
}

/// From-scratch mode: the paper's probe walk with one fresh
/// [`Synthesizer`] per probe, every depth re-encoded, over the same
/// valid window as [`find_min_depth`]. It is the path for the varisat
/// backend, and the oracle the incremental search is tested against.
///
/// # Panics
///
/// Panics if `start` is outside `[lo, hi]`.
///
/// # Errors
///
/// The spec error at `start` itself, and any [`SynthError`] from a
/// probe.
pub fn find_min_depth_scratch(
    spec: &LasSpec,
    lo: usize,
    hi: usize,
    start: usize,
    options: &SynthOptions,
) -> Result<DepthSearch, SynthError> {
    let (lo, hi) = valid_depth_window(spec, lo, hi, start)?;
    drive_depth_search(lo, hi, start, options, |k, budget| {
        let options = SynthOptions {
            budget: budget.clone(),
            ..options.clone()
        };
        let mut synth = Synthesizer::new(spec.with_depth(k))?.with_options(options);
        let result = synth.run()?;
        Ok((
            result,
            synth.last_solve_time().unwrap_or_default(),
            synth.last_solver_stats(),
        ))
    })
}

/// The contiguous window of depths around `start`, within `[lo, hi]`,
/// whose specs all validate: the depths a search starting at `start`
/// probes, and so the depths its layered encoding covers (a layered
/// CNF must be well-formed at every depth it covers).
///
/// # Panics
///
/// Panics if `start` is outside `[lo, hi]`.
///
/// # Errors
///
/// The spec error at `start` itself, which every search probes first.
pub fn valid_depth_window(
    spec: &LasSpec,
    lo: usize,
    hi: usize,
    start: usize,
) -> Result<(usize, usize), SpecError> {
    assert!(lo <= start && start <= hi, "start depth outside [lo, hi]");
    spec.with_depth(start).validate()?;
    let valid = |k: usize| spec.with_depth(k).validate().is_ok();
    let mut bottom = start;
    while bottom > lo && valid(bottom - 1) {
        bottom -= 1;
    }
    let mut top = start;
    while top < hi && valid(top + 1) {
        top += 1;
    }
    Ok((bottom, top))
}

/// Incremental mode: a depth-layered CNF and a retained solver session;
/// each probe is one `solve_assuming` call.
///
/// `[lo, hi]` is already the valid window. The session is sized to the
/// probes it can actually see: the layered CNF pays for its *largest*
/// layer at every probe, so starting with the full `[lo, hi]` range
/// would tax a descending search (by far the common case — start at
/// the spec's depth, shrink to the minimum) with headroom it never
/// probes. Instead the session opens at `[lo, start]`; only when the
/// first probe is UNSAT does the search ascend, into a second session
/// sized `[k, hi]` (one rebuild at most, and the sole probe whose
/// learnt clauses are dropped is the UNSAT one that forced the turn).
fn find_min_depth_incremental(
    spec: &LasSpec,
    lo: usize,
    hi: usize,
    start: usize,
    options: &SynthOptions,
    config: &CdclConfig,
) -> Result<DepthSearch, SynthError> {
    let open = |bottom: usize, top: usize| -> Result<_, SynthError> {
        let layered = encode_layered(spec, bottom, top)?;
        let cnf = &layered.encoding.cnf;
        let solver = open_solver(options, config.clone(), cnf, &layered.activation, None);
        Ok((layered, solver))
    };
    let (mut layered, mut solver) = open(lo, start)?;
    drive_depth_search(lo, hi, start, options, |k, budget| {
        // The walk ascended past the session's range: reopen it above.
        if k > layered.hi {
            (layered, solver) = open(k, hi)?;
        }
        let before = solver.stats;
        let started = Instant::now();
        let outcome = solver.solve_assuming(&layered.assumptions_for(k), budget);
        let time = started.elapsed();
        let stats = solver.stats.since(before);
        certify(&solver, &outcome)?;
        let result = settle(outcome, options.skip_verify, |model| {
            decode_layered(&layered, spec, k, model)
        })?;
        Ok((result, time, Some(stats)))
    })
}

/// Clauses each worker of a clause-sharing run imports per round at
/// most: the first in (source, export order) are kept, the rest dropped
/// (deterministically — the exchange cuts at drain, once the round is
/// over), so this only trades sharing coverage against import work; it
/// never blocks a worker.
const EXCHANGE_CAPACITY: usize = 1024;

/// The depth fleet: one lockstep worker per candidate depth, the
/// strategy [`find_min_depth`] takes when [`searches_as_fleet`].
///
/// All workers share one depth-layered encoding ([`encode_layered`])
/// over `[lo, hi]`, already the valid window; the worker owning
/// depth `k` probes it as `solve_assuming` under that depth's
/// activation literals. The lockstep fleet runs every worker still
/// inside the *undecided window*: SAT at depth `k` implies SAT at
/// every deeper depth and UNSAT implies UNSAT at every shallower one,
/// so each verdict shrinks the window and prunes the workers it
/// dominates mid-flight. The search ends when the window is empty
/// (minimum found or whole range refuted) or when every worker in it
/// ran out of budget; `options.budget.max_time` is one deadline and
/// `max_memory_words` one arena ceiling, split evenly between the
/// workers, for the whole search.
///
/// With `options.share_clauses` the workers also exchange learnt
/// clauses: clauses learnt under depth-`k` assumptions are
/// consequences of the shared CNF alone (assumptions enter learnt
/// clauses only negated), so cross-depth sharing is sound — and the
/// importer RUP-checks every clause against its own database anyway.
fn find_min_depth_parallel(
    spec: &LasSpec,
    lo: usize,
    hi: usize,
    options: &SynthOptions,
    config: &CdclConfig,
) -> Result<DepthSearch, SynthError> {
    let layered = encode_layered(spec, lo, hi)?;
    let hub = options
        .share_clauses
        .then(|| Arc::new(ClauseExchange::new(hi - lo + 1, EXCHANGE_CAPACITY)));
    let solvers = (lo..=hi).map(|k| {
        let exchange = hub.as_ref().map(|hub| (hub, k - lo));
        let cnf = &layered.encoding.cnf;
        let solver = open_solver(options, config.clone(), cnf, &layered.activation, exchange);
        (k, solver)
    });
    let mut fleet = Fleet::new("depth", solvers, &options.budget);
    // The undecided window, as an inclusive depth range.
    let window = Cell::new((lo, hi));
    let mut best: Option<LasDesign> = None;
    let exhaustion = fleet.run(
        options,
        |k| layered.assumptions_for(k),
        |k| {
            let (floor, ceiling) = window.get();
            (floor..=ceiling).contains(&k)
        },
        |k, solver, outcome| {
            certify(solver, &outcome)?;
            let result = settle(outcome, options.skip_verify, |model| {
                decode_layered(&layered, spec, k, model)
            })?;
            // Dominated workers stay idle, so every SAT here is a new
            // minimum and every UNSAT raises the floor (depth 0 never
            // validates, so `k >= 1` and `k - 1` cannot underflow).
            let (floor, ceiling) = window.get();
            let (floor, ceiling) = match result {
                SynthResult::Sat(design) => {
                    best = Some(*design);
                    (floor, k - 1)
                }
                _ => (k + 1, ceiling),
            };
            window.set((floor, ceiling));
            Ok(floor > ceiling)
        },
    )?;
    let probes = fleet
        .workers
        .iter()
        // A worker with no turn never touched its depth.
        .filter(|w| w.turns > 0)
        .map(|w| {
            // Pruned by a dominating verdict, out of budget, or crashed:
            // anything but `Decided` leaves the depth unresolved.
            let sat = match w.state {
                WorkerState::Decided(sat) => Some(sat),
                _ => None,
            };
            DepthProbe {
                max_k: w.id,
                sat,
                time: w.time,
                stats: Some(w.solver.stats),
                certified: options.certify && sat == Some(false),
                exhaustion: match w.state {
                    WorkerState::Retired(reason) => Some(reason),
                    _ => None,
                },
            }
        })
        .collect();
    Ok(DepthSearch {
        probes,
        best,
        lo,
        hi,
        exhaustion,
        quarantined: fleet.quarantined(),
    })
}

/// Outcome of [`solve_portfolio_detailed`]: the verdict plus which
/// worker produced it and the whole fleet's solver statistics.
#[derive(Debug)]
pub struct PortfolioOutcome {
    /// The verdict of the earliest round, first in seed order (or
    /// `Unknown` if none).
    pub result: SynthResult,
    /// Seed of the worker that produced the verdict.
    pub winner_seed: Option<u64>,
    /// Every worker's `(seed, stats)` in the caller's seed order,
    /// losers included — the cost the portfolio actually paid, not
    /// just the winner's share.
    pub worker_stats: Vec<(u64, Option<SolverStats>)>,
    /// Workers that crashed (panicked) mid-solve, as `(seed, panic
    /// message)` in seed order. The fleet continued on the survivors;
    /// only when *every* worker fails does the run error out instead.
    pub quarantined: Vec<(u64, String)>,
    /// Why the portfolio stopped without a verdict: the lockstep
    /// driver's deadline, else the reason the first worker in seed
    /// order gave up. `None` when a worker reached a verdict, or when
    /// nothing but crashes ended the run.
    pub exhaustion: Option<ExhaustionReason>,
}

impl PortfolioOutcome {
    /// Solver statistics of the winning worker (the first with the
    /// winning seed), when its backend reports them.
    pub fn stats(&self) -> Option<SolverStats> {
        let winner = self.winner_seed?;
        self.worker_stats
            .iter()
            .find(|&&(seed, _)| seed == winner)
            .and_then(|&(_, stats)| stats)
    }

    /// Element-wise sum of every reporting worker's statistics
    /// ([`SolverStats::merged`]): what `--stats` prints as the
    /// `portfolio total` line. `None` only when no worker reported
    /// stats at all.
    pub fn total(&self) -> Option<SolverStats> {
        self.worker_stats
            .iter()
            .filter_map(|&(_, stats)| stats)
            .reduce(SolverStats::merged)
    }
}

/// Runs one diversified CDCL session per seed as a lockstep [`Fleet`]
/// and returns the first definitive verdict (SAT **or** UNSAT) — the
/// portfolio the paper suggests after observing up to 26× seed variance
/// (Sec. V-E, "Random seed: more is different").
///
/// The spec is encoded once. Workers are always the in-tree CDCL solver
/// with [`sat::CdclConfig::diversified`]`(seed)`, whatever
/// `options.backend` says: each seed also selects a restart/decay/
/// polarity variant, so the portfolio explores genuinely different
/// trajectories rather than different tie-breaking only. Every worker
/// gets `options.parallel_quantum` conflicts per turn, and the verdict
/// goes to the first worker in seed order whose verdict lands in the
/// earliest round: the one needing the fewest conflicts, rounded up to
/// the quantum. Same spec, seeds and quantum give the same winner and
/// the same stats.
///
/// With `options.share_clauses` the workers also fan their low-LBD
/// learnt clauses out to each other through a round-gated
/// [`ClauseExchange`]: each turn starts by importing what the other
/// workers exported in earlier rounds, so a round's turns still run in
/// parallel and the import sequence is reproducible too. What sharing
/// buys is measured as *fewer total conflicts to a verdict* than the
/// same fleet running isolated. Every import is RUP-checked and
/// proof-logged, so `options.certify` composes: an UNSAT verdict from
/// an import-fed worker still carries a checkable DRAT log.
///
/// # Errors
///
/// A spec error, a verdict that fails to decode, verify or certify, and
/// [`SynthError::WorkerPanic`] with the first crash in seed order when
/// every worker crashed.
pub fn solve_portfolio_detailed(
    spec: &LasSpec,
    seeds: &[u64],
    options: &SynthOptions,
) -> Result<PortfolioOutcome, SynthError> {
    let encoding = encode(spec)?;
    let hub = options
        .share_clauses
        .then(|| Arc::new(ClauseExchange::new(seeds.len().max(1), EXCHANGE_CAPACITY)));
    let solvers = seeds.iter().enumerate().map(|(index, &seed)| {
        let config = CdclConfig::diversified(seed);
        let exchange = hub.as_ref().map(|hub| (hub, index));
        let solver = open_solver(options, config, &encoding.cnf, &[], exchange);
        (seed, solver)
    });
    let mut fleet = Fleet::new("seed", solvers, &options.budget);
    let mut winner: Option<(u64, SynthResult)> = None;
    let exhaustion = fleet.run(
        options,
        |_| Vec::new(),
        |_| true,
        |seed, solver, outcome| {
            certify(solver, &outcome)?;
            let result = settle(outcome, options.skip_verify, |model| {
                decode(spec, &encoding, model)
            })?;
            winner = Some((seed, result));
            Ok(true)
        },
    )?;
    let (result, winner_seed) = match winner {
        Some((seed, result)) => (result, Some(seed)),
        None => (SynthResult::Unknown, None),
    };
    Ok(PortfolioOutcome {
        result,
        winner_seed,
        worker_stats: fleet
            .workers
            .iter()
            .map(|w| (w.id, Some(w.solver.stats)))
            .collect(),
        quarantined: fleet.quarantined(),
        exhaustion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasre::fixtures::cnot_spec;
    use lasre::{Axis, Port};
    use sat::Budget;

    #[test]
    fn depth_search_descends_to_minimum() {
        // The CNOT needs two layers (max_k = 3 with the padding layer);
        // starting at 4 must descend to 3 and stop at UNSAT for 2.
        // Exercises the default (incremental) mode.
        let spec = cnot_spec();
        let search = find_min_depth(&spec, 2, 5, 4, &SynthOptions::default()).unwrap();
        assert_eq!(search.best_depth(), Some(3));
        let probed: Vec<usize> = search.probes.iter().map(|p| p.max_k).collect();
        assert_eq!(probed, vec![4, 3, 2]);
        assert_eq!(search.probes[2].sat, Some(false));
        assert!(search.best.as_ref().unwrap().verified());
    }

    /// `find_min_depth` picks its strategy from `V · nstab` at the
    /// start depth: the walk for the CNOT, the wire, the width-3 and
    /// width-4 majority gates and every graph state the paper corpus
    /// searches (the 6-qubit draw, the 8-qubit draw and both lane
    /// sweeps); the fleet for the width-5 majority gate; the walk again
    /// for the T-factories, from either start depth of the 162-factory.
    #[test]
    fn the_spec_size_picks_walk_or_fleet() {
        use workloads::paper::{corpus, factory_162, factory_99, Search};
        use workloads::specs::majority_gate_spec;
        let mut routes = vec![
            ("cnot".to_string(), cnot_spec(), 4, false),
            ("wire".into(), wire_spec(), 3, false),
            ("majority w3".into(), majority_gate_spec(3), 5, false),
            ("majority w4".into(), majority_gate_spec(4), 5, false),
            ("majority w5".into(), majority_gate_spec(5), 5, true),
            ("99-factory".into(), factory_99().spec, 11, false),
            ("162-factory".into(), factory_162().spec, 4, false),
            ("162-factory at 5".into(), factory_162().spec, 5, false),
        ];
        for row in [corpus(false), corpus(true)].into_iter().flatten() {
            if let Search::MinDepth { start, .. } = row.search {
                for instance in row.instances {
                    let name = format!("{} {}", row.anchor, instance.label);
                    routes.push((name, instance.spec, start, false));
                }
            }
        }
        for (name, spec, start, fleet) in routes {
            assert_eq!(searches_as_fleet(&spec, start), fleet, "{name}");
        }
    }

    #[test]
    fn depth_search_ascends_from_unsat() {
        let spec = cnot_spec();
        let search = find_min_depth(&spec, 2, 5, 2, &SynthOptions::default()).unwrap();
        assert_eq!(search.best_depth(), Some(3));
        let probed: Vec<usize> = search.probes.iter().map(|p| p.max_k).collect();
        assert_eq!(probed, vec![2, 3]);
    }

    type Search =
        fn(&LasSpec, usize, usize, usize, &SynthOptions) -> Result<DepthSearch, SynthError>;

    /// Both depth-search modes: the default (incremental) walk and the
    /// from-scratch oracle.
    const MODES: [(&str, Search); 2] = [
        ("incremental", find_min_depth),
        ("scratch", find_min_depth_scratch),
    ];

    /// Runs the same search in both modes and asserts identical probe
    /// order, per-probe verdicts and best depth.
    fn assert_modes_agree(spec: &LasSpec, lo: usize, hi: usize, start: usize) {
        let options = SynthOptions::default();
        let incremental = find_min_depth(spec, lo, hi, start, &options).unwrap();
        let scratch = find_min_depth_scratch(spec, lo, hi, start, &options).unwrap();
        let view = |s: &DepthSearch| -> Vec<(usize, Option<bool>)> {
            s.probes.iter().map(|p| (p.max_k, p.sat)).collect()
        };
        assert_eq!(
            view(&incremental),
            view(&scratch),
            "probe sequences diverge (start {start})"
        );
        assert_eq!(incremental.best_depth(), scratch.best_depth());
        if let Some(best) = &incremental.best {
            assert!(best.verified(), "incremental best design verifies");
        }
    }

    #[test]
    fn incremental_matches_scratch_descending() {
        assert_modes_agree(&cnot_spec(), 2, 5, 4);
    }

    #[test]
    fn incremental_matches_scratch_ascending() {
        assert_modes_agree(&cnot_spec(), 2, 5, 2);
    }

    #[test]
    fn incremental_matches_scratch_from_the_top() {
        assert_modes_agree(&cnot_spec(), 2, 5, 5);
    }

    /// Depth 1 is invalid for the CNOT (its bottom-port cubes fall out
    /// of the arrays), but the descent stops at the UNSAT depth 2 and
    /// never probes it — so a range including depth 1 must still
    /// succeed, identically in both modes (the CLI defaults to
    /// `--lo 1`).
    #[test]
    fn unprobed_invalid_depths_do_not_fail_the_search() {
        assert_modes_agree(&cnot_spec(), 1, 5, 4);
    }

    /// The spec of `examples/specs/wire.json`: one patch carried from
    /// the bottom to the top of a 1×1 footprint. Depth 1 is malformed
    /// (the `+K` port's boundary cube falls out of the arrays) and
    /// depth 2 is the minimum.
    fn wire_spec() -> LasSpec {
        LasSpec {
            name: "wire".into(),
            max_i: 1,
            max_j: 1,
            max_k: 3,
            ports: vec![
                Port::parse(0, 0, 0, "+K", Axis::J),
                Port::parse(0, 0, 3, "-K", Axis::J),
            ],
            stabilizers: ["ZZ", "XX"].iter().map(|s| s.parse().unwrap()).collect(),
            forbidden_cubes: Vec::new(),
            allow_y_cubes: true,
        }
    }

    /// A descent that reaches the valid window's floor stops there
    /// instead of probing the malformed depth below it: every mode
    /// certifies the wire's minimum 2 from a range that includes its
    /// malformed depth 1.
    #[test]
    fn every_mode_searches_only_the_valid_window() {
        let spec = wire_spec();
        let varisat = SynthOptions {
            backend: BackendChoice::Varisat,
            ..SynthOptions::default()
        };
        let runs = [
            (
                "walk",
                find_min_depth(&spec, 1, 5, 3, &SynthOptions::default()),
            ),
            (
                "parallel",
                depth_fleet(&spec, 1, 5, 3, &depth_fleet_options(false)),
            ),
            (
                "parallel shared",
                depth_fleet(&spec, 1, 5, 3, &depth_fleet_options(true)),
            ),
            ("varisat", find_min_depth(&spec, 1, 5, 3, &varisat)),
            (
                "scratch",
                find_min_depth_scratch(&spec, 1, 5, 3, &SynthOptions::default()),
            ),
        ];
        for (mode, search) in runs {
            let search = search.unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert_eq!(search.window(), (2, Some(2)), "{mode}");
            assert_eq!((search.lo, search.hi), (2, 5), "{mode}");
        }
    }

    /// Probing an invalid depth errors in both modes: starting *at*
    /// the CNOT's invalid depth 1 fails up front rather than probing.
    #[test]
    fn probing_an_invalid_depth_errors_in_both_modes() {
        for (mode, search) in MODES {
            let r = search(&cnot_spec(), 1, 5, 1, &SynthOptions::default());
            assert!(
                matches!(r, Err(SynthError::Spec(_))),
                "expected a spec error probing depth 1 ({mode})"
            );
        }
    }

    /// Both modes record per-probe solver statistics for the CDCL
    /// backend.
    #[test]
    fn probes_carry_solver_stats() {
        let spec = cnot_spec();
        for (mode, search) in MODES {
            let search = search(&spec, 2, 5, 4, &SynthOptions::default()).unwrap();
            for p in &search.probes {
                let stats = p
                    .stats
                    .unwrap_or_else(|| panic!("probe {} missing stats ({mode})", p.max_k));
                assert!(
                    stats.propagations > 0,
                    "probe {} did no work ({mode})",
                    p.max_k
                );
            }
        }
    }

    /// A certified search reaches the same answer as the plain one and
    /// proof-checks every UNSAT probe along the way, in both modes.
    #[test]
    fn certified_search_agrees_and_marks_unsat_probes() {
        let spec = cnot_spec();
        let plain = find_min_depth(&spec, 2, 5, 4, &SynthOptions::default()).unwrap();
        let options = SynthOptions {
            certify: true,
            ..SynthOptions::default()
        };
        for (mode, search) in MODES {
            let certified = search(&spec, 2, 5, 4, &options).unwrap();
            assert_eq!(certified.best_depth(), plain.best_depth());
            let view = |s: &DepthSearch| -> Vec<(usize, Option<bool>)> {
                s.probes.iter().map(|p| (p.max_k, p.sat)).collect()
            };
            assert_eq!(view(&certified), view(&plain));
            let mut unsat_probes = 0;
            for p in &certified.probes {
                assert_eq!(
                    p.certified,
                    p.sat == Some(false),
                    "probe {} certification flag ({mode})",
                    p.max_k
                );
                unsat_probes += usize::from(p.sat == Some(false));
            }
            assert!(unsat_probes > 0, "search never hit an UNSAT probe");
        }
    }

    #[test]
    fn detailed_portfolio_reports_winner_and_stats() {
        let spec = cnot_spec();
        let o = solve_portfolio_detailed(&spec, &[0, 1, 2], &SynthOptions::default()).unwrap();
        assert!(o.result.is_sat());
        assert!(o.winner_seed.is_some(), "winning seed recorded");
        let stats = o.stats().expect("CDCL workers report stats");
        assert!(stats.propagations > 0);
    }

    #[test]
    fn portfolio_returns_definitive_verdicts() {
        let spec = cnot_spec();
        let options = SynthOptions::default();
        let o = solve_portfolio_detailed(&spec, &[0, 1, 2, 3], &options).unwrap();
        assert!(o.result.is_sat());
        // And an unsatisfiable variant is proven UNSAT by some worker.
        let o = solve_portfolio_detailed(&spec.with_depth(2), &[0, 1], &options).unwrap();
        assert!(o.result.is_unsat());
    }

    /// Losing workers' statistics are no longer dropped: every worker
    /// reports, and the total is at least the winner's share.
    #[test]
    fn portfolio_accounts_for_losing_workers() {
        let spec = cnot_spec();
        let o = solve_portfolio_detailed(&spec, &[0, 1, 2], &SynthOptions::default()).unwrap();
        assert!(o.result.is_sat());
        assert_eq!(o.worker_stats.len(), 3, "losers report too");
        let winner = o.winner_seed.unwrap();
        assert!(o.worker_stats.iter().any(|&(seed, _)| seed == winner));
        let total = o.total().expect("CDCL workers report stats");
        let winner_stats = o.stats().unwrap();
        assert!(total.propagations >= winner_stats.propagations);
    }

    /// When every worker fails, the portfolio surfaces the error
    /// instead of an `Unknown` — two deliberately failing workers
    /// (depth 1 is invalid for the CNOT, so both die in
    /// `Synthesizer::new`) must yield the spec error.
    #[test]
    fn portfolio_propagates_error_when_all_workers_fail() {
        let spec = cnot_spec().with_depth(1);
        let r = solve_portfolio_detailed(&spec, &[0, 1], &SynthOptions::default());
        assert!(
            matches!(r, Err(SynthError::Spec(_))),
            "expected the first worker's spec error"
        );
    }

    fn shared_options() -> SynthOptions {
        SynthOptions {
            share_clauses: true,
            // Small quantum so even the CNOT-sized fixtures take
            // several lockstep turns and actually exchange clauses.
            parallel_quantum: 20,
            ..SynthOptions::default()
        }
    }

    #[test]
    fn shared_portfolio_agrees_with_threaded_verdicts() {
        let spec = cnot_spec();
        let o = solve_portfolio_detailed(&spec, &[0, 1, 2], &shared_options()).unwrap();
        assert!(o.result.is_sat());
        assert!(o.winner_seed.is_some());
        assert_eq!(o.worker_stats.len(), 3);
        assert!(
            o.total()
                .expect("lockstep workers report stats")
                .propagations
                > 0
        );
        if let SynthResult::Sat(d) = &o.result {
            assert!(d.verified());
        }
        let u = solve_portfolio_detailed(&spec.with_depth(2), &[0, 1], &shared_options()).unwrap();
        assert!(u.result.is_unsat());
    }

    /// Two identical shared-portfolio runs are bit-identical: same
    /// winner, same per-worker conflicts/propagations and the same
    /// export/import/kept sequence.
    #[test]
    fn shared_portfolio_runs_are_deterministic() {
        let spec = cnot_spec();
        let options = SynthOptions {
            // One conflict per turn: the CNOT solves in a couple of
            // conflicts, so anything larger lets the first worker win
            // before the fleet ever trades a clause.
            parallel_quantum: 1,
            ..shared_options()
        };
        let run = || {
            let o = solve_portfolio_detailed(&spec, &[0, 1, 2, 3], &options).unwrap();
            assert!(o.result.is_sat());
            let fleet: Vec<_> = o
                .worker_stats
                .iter()
                .map(|&(seed, stats)| {
                    let s = stats.unwrap();
                    (
                        seed,
                        s.conflicts,
                        s.propagations,
                        s.exported_clauses,
                        s.imported_clauses,
                        s.imported_kept,
                    )
                })
                .collect();
            (o.winner_seed, fleet)
        };
        let first = run();
        assert_eq!(first, run());
        let exchanged: u64 = first.1.iter().map(|t| t.4).sum();
        assert!(exchanged > 0, "the fleet never exchanged a clause");
    }

    /// A sharing fleet, whose rounds run on threads, takes the same
    /// turns as a one-turn-at-a-time replay through the public `sat`
    /// API: the round-gated exchange makes every import independent of
    /// turn order, so the per-worker stats and the winner agree.
    #[test]
    fn shared_fleet_matches_a_one_turn_at_a_time_replay() {
        use sat::{Budget, CdclSolver, ShareLimits, SolveOutcome};
        let spec = workloads::specs::majority_gate_spec(3);
        let seeds = [0, 1, 2, 3];
        let options = SynthOptions {
            parallel_quantum: 10,
            ..shared_options()
        };
        let fleet = solve_portfolio_detailed(&spec, &seeds, &options).unwrap();

        let cnf = encode(&spec).unwrap().cnf;
        let hub = Arc::new(ClauseExchange::new(seeds.len(), EXCHANGE_CAPACITY));
        let mut workers: Vec<CdclSolver> = seeds
            .iter()
            .enumerate()
            .map(|(index, &seed)| {
                let mut solver = CdclSolver::with_config(CdclConfig::diversified(seed));
                solver.add_cnf(&cnf);
                solver.connect_exchange(Arc::clone(&hub), index, ShareLimits::default());
                solver
            })
            .collect();
        let mut running = vec![true; seeds.len()];
        let mut winner = None;
        while winner.is_none() && running.contains(&true) {
            for (index, solver) in workers.iter_mut().enumerate() {
                if !running[index] {
                    continue;
                }
                let before = solver.stats.conflicts;
                let turn = Budget::conflict_limit(options.parallel_quantum);
                match solver.solve_assuming(&[], &turn) {
                    SolveOutcome::Unknown(_) => running[index] = solver.stats.conflicts > before,
                    _ => {
                        running[index] = false;
                        winner = winner.or(Some(seeds[index]));
                    }
                }
            }
        }

        assert!(fleet.result.is_sat());
        assert_eq!(fleet.winner_seed, winner);
        let stats: Vec<_> = fleet
            .worker_stats
            .iter()
            .map(|&(_, s)| s.unwrap())
            .collect();
        let replayed: Vec<_> = workers.iter().map(|w| w.stats).collect();
        assert_eq!(stats, replayed);
        assert!(
            stats.iter().map(|s| s.imported_kept).sum::<u64>() > 0,
            "the fleet never kept an imported clause"
        );
    }

    /// An UNSAT verdict from an import-fed worker still carries a
    /// checkable DRAT log.
    #[test]
    fn shared_portfolio_unsat_certifies() {
        let spec = cnot_spec().with_depth(2);
        let options = SynthOptions {
            certify: true,
            ..shared_options()
        };
        let o = solve_portfolio_detailed(&spec, &[0, 1], &options).unwrap();
        assert!(o.result.is_unsat());
    }

    fn depth_fleet_options(share: bool) -> SynthOptions {
        SynthOptions {
            share_clauses: share,
            parallel_quantum: 20,
            ..SynthOptions::default()
        }
    }

    /// The depth fleet over the valid window, as [`find_min_depth`]
    /// runs it on a mid-size spec: the fleet tests build on the CNOT,
    /// which [`find_min_depth`] itself searches as a walk.
    fn depth_fleet(
        spec: &LasSpec,
        lo: usize,
        hi: usize,
        start: usize,
        options: &SynthOptions,
    ) -> Result<DepthSearch, SynthError> {
        let (lo, hi) = valid_depth_window(spec, lo, hi, start)?;
        let BackendChoice::Cdcl(config) = &options.backend else {
            panic!("the depth fleet runs the CDCL backend");
        };
        find_min_depth_parallel(spec, lo, hi, options, config)
    }

    /// Depth-parallel mode (with and without sharing) agrees with the
    /// sequential walk on the minimum, and both bracketing verdicts
    /// come from the depths' own workers.
    #[test]
    fn depth_parallel_finds_the_same_minimum() {
        let spec = cnot_spec();
        for share in [false, true] {
            let search = depth_fleet(&spec, 2, 5, 4, &depth_fleet_options(share)).unwrap();
            assert_eq!(search.best_depth(), Some(3), "share={share}");
            assert!(search.best.as_ref().unwrap().verified());
            let verdict = |k: usize| {
                search
                    .probes
                    .iter()
                    .find(|p| p.max_k == k)
                    .and_then(|p| p.sat)
            };
            assert_eq!(verdict(2), Some(false), "share={share}");
            assert_eq!(verdict(3), Some(true), "share={share}");
        }
    }

    #[test]
    fn depth_parallel_runs_are_deterministic() {
        let spec = cnot_spec();
        let run = |share: bool| {
            let s = depth_fleet(&spec, 2, 5, 5, &depth_fleet_options(share)).unwrap();
            let probes: Vec<_> = s
                .probes
                .iter()
                .map(|p| {
                    let st = p.stats.unwrap();
                    (
                        p.max_k,
                        p.sat,
                        st.conflicts,
                        st.propagations,
                        st.imported_clauses,
                        st.imported_kept,
                    )
                })
                .collect();
            (s.best_depth(), probes)
        };
        for share in [false, true] {
            assert_eq!(run(share), run(share), "share={share}");
        }
    }

    /// Depth-parallel UNSAT verdicts proof-check under `certify`.
    #[test]
    fn depth_parallel_certifies_unsat_depths() {
        let spec = cnot_spec();
        let options = SynthOptions {
            certify: true,
            ..depth_fleet_options(true)
        };
        let search = depth_fleet(&spec, 2, 5, 4, &options).unwrap();
        assert_eq!(search.best_depth(), Some(3));
        let p2 = search.probes.iter().find(|p| p.max_k == 2).unwrap();
        assert_eq!(p2.sat, Some(false));
        assert!(p2.certified, "UNSAT depth 2 carries a checked proof");
    }

    /// An isolated depth fleet takes a whole round at once. With a
    /// quantum large enough for every depth to decide in its first
    /// turn, depth 3's SAT prunes depths 4 and 5 in the same round:
    /// their verdicts are dropped unchecked, never reported.
    #[test]
    fn depth_parallel_drops_verdicts_a_batch_pruned() {
        let options = SynthOptions {
            certify: true,
            parallel_quantum: 1_000_000,
            ..depth_fleet_options(false)
        };
        let search = depth_fleet(&cnot_spec(), 2, 5, 4, &options).unwrap();
        assert_eq!(search.best_depth(), Some(3));
        let view: Vec<_> = search
            .probes
            .iter()
            .map(|p| (p.max_k, p.sat, p.certified))
            .collect();
        assert_eq!(
            view,
            vec![
                (2, Some(false), true),
                (3, Some(true), false),
                (4, None, false),
                (5, None, false),
            ]
        );
    }

    /// Options whose driver gives up before the first turn: an
    /// already-passed deadline.
    fn stopped_up_front(base: SynthOptions) -> SynthOptions {
        let mut late = base;
        late.budget.max_time = Some(Duration::ZERO);
        late
    }

    /// A depth-parallel driver checks the deadline before every turn,
    /// so a fleet stopped up front takes no turn, reports no probe, and
    /// names the driver's reason.
    #[test]
    fn depth_parallel_driver_reports_why_it_stopped() {
        for share in [false, true] {
            let options = stopped_up_front(depth_fleet_options(share));
            let search = depth_fleet(&cnot_spec(), 2, 5, 4, &options).unwrap();
            assert!(search.probes.is_empty(), "share={share}");
            assert_eq!(search.window(), (2, None), "share={share}");
            assert_eq!(
                search.exhaustion,
                Some(ExhaustionReason::Deadline),
                "share={share}"
            );
        }
    }

    /// The portfolio runs the same driver, sharing or not: stopped up
    /// front it spends no conflict and reports the driver's reason.
    #[test]
    fn shared_portfolio_reports_why_it_stopped() {
        for share in [false, true] {
            let base = SynthOptions {
                share_clauses: share,
                ..shared_options()
            };
            let options = stopped_up_front(base.clone());
            let o = solve_portfolio_detailed(&cnot_spec(), &[0, 1], &options).unwrap();
            assert!(matches!(o.result, SynthResult::Unknown), "share={share}");
            assert_eq!(o.winner_seed, None);
            assert_eq!(
                o.total().expect("lockstep workers report stats").conflicts,
                0
            );
            assert_eq!(
                o.exhaustion,
                Some(ExhaustionReason::Deadline),
                "share={share}"
            );
            // Without the deadline the portfolio answers, and a verdict
            // leaves nothing to explain.
            let o = solve_portfolio_detailed(&cnot_spec(), &[0, 1], &base).unwrap();
            assert!(o.result.is_sat(), "share={share}");
            assert_eq!(o.exhaustion, None);
        }
    }

    /// Depth-parallel reproduces the sequential edge semantics:
    /// starting at the CNOT's invalid depth 1 errors up front, while a
    /// range whose invalid depths are never needed succeeds.
    #[test]
    fn depth_parallel_edge_semantics_match_sequential() {
        let r = depth_fleet(&cnot_spec(), 1, 5, 1, &depth_fleet_options(false));
        assert!(matches!(r, Err(SynthError::Spec(_))));
        let s = depth_fleet(&cnot_spec(), 1, 5, 4, &depth_fleet_options(false)).unwrap();
        assert_eq!(s.best_depth(), Some(3));
    }

    fn panic_fault(at: u64, only_seed: Option<u64>) -> Option<sat::FaultPlan> {
        Some(sat::FaultPlan {
            kind: sat::FaultKind::Panic,
            at,
            only_seed,
        })
    }

    /// An expired per-probe budget no longer loses the work done: the
    /// search comes back as an anytime window instead of a bare
    /// Unknown, naming the axis that ran dry.
    #[test]
    fn exhausted_depth_search_returns_an_anytime_window() {
        let spec = cnot_spec();
        // One conflict per probe: the first probe gives up immediately.
        let options = SynthOptions {
            budget: Budget::conflict_limit(1),
            ..SynthOptions::default()
        };
        let search = find_min_depth(&spec, 2, 5, 4, &options).unwrap();
        assert_eq!(search.exhaustion, Some(ExhaustionReason::Conflicts));
        assert_eq!(search.window(), (2, None));
        assert_eq!(search.probes.len(), 1);
        assert_eq!(
            search.probes[0].exhaustion,
            Some(ExhaustionReason::Conflicts)
        );

        // The memory governor surfaces the same way.
        let options = SynthOptions {
            budget: Budget::memory_limit_words(1),
            ..SynthOptions::default()
        };
        let search = find_min_depth(&spec, 2, 5, 4, &options).unwrap();
        assert_eq!(search.exhaustion, Some(ExhaustionReason::Memory));
        assert_eq!(search.certified_lower_bound(), 2);
    }

    /// The walk's deadline covers the whole search: one already passed
    /// stops the walk before its first probe, with the driver's reason,
    /// as it stops a depth fleet before its first turn.
    #[test]
    fn walk_deadline_covers_the_whole_search() {
        let options = stopped_up_front(SynthOptions::default());
        let search = find_min_depth(&cnot_spec(), 2, 5, 4, &options).unwrap();
        assert!(search.probes.is_empty());
        assert_eq!(search.window(), (2, None));
        assert_eq!(search.exhaustion, Some(ExhaustionReason::Deadline));
    }

    /// A resolved search reports no exhaustion and a closed window.
    #[test]
    fn resolved_depth_search_has_a_closed_window() {
        let search = find_min_depth(&cnot_spec(), 2, 5, 4, &SynthOptions::default()).unwrap();
        assert_eq!(search.exhaustion, None);
        assert_eq!(search.window(), (3, Some(3)));
        assert!(search.quarantined.is_empty());
    }

    /// Crash isolation on the scoped threads of an isolated round: a
    /// panicking worker is caught inside its own turn and quarantined,
    /// the fleet continues, and the verdict stands.
    #[test]
    fn threaded_portfolio_survives_an_injected_worker_panic() {
        let spec = cnot_spec();
        let options = SynthOptions {
            fault_plan: panic_fault(0, Some(1)),
            ..SynthOptions::default()
        };
        let o = solve_portfolio_detailed(&spec, &[0, 1, 2], &options).unwrap();
        assert!(o.result.is_sat());
        let quarantined: Vec<u64> = o.quarantined.iter().map(|&(seed, _)| seed).collect();
        assert_eq!(quarantined, vec![1]);
    }

    /// When every worker crashes, the portfolio errors with the first
    /// crash in seed order instead of panicking the caller.
    #[test]
    fn threaded_portfolio_total_crash_is_an_error_not_a_panic() {
        let spec = cnot_spec();
        let options = SynthOptions {
            fault_plan: panic_fault(0, None),
            ..SynthOptions::default()
        };
        let r = solve_portfolio_detailed(&spec, &[0, 1], &options);
        match r {
            Err(SynthError::WorkerPanic(msg)) => {
                assert!(msg.contains("injected fault"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    /// The lockstep sharing driver quarantines a crashed worker
    /// deterministically and finishes on the survivors.
    #[test]
    fn shared_portfolio_quarantines_a_crashed_worker() {
        let spec = cnot_spec();
        let options = SynthOptions {
            fault_plan: panic_fault(1, Some(1)),
            // One conflict per turn: worker 1 crashes on its first
            // turn, before any worker can win.
            parallel_quantum: 1,
            ..shared_options()
        };
        let o = solve_portfolio_detailed(&spec, &[0, 1, 2], &options).unwrap();
        assert!(o.result.is_sat());
        assert_eq!(o.quarantined.len(), 1);
        assert_eq!(o.quarantined[0].0, 1);
        assert!(o.quarantined[0].1.contains("injected fault"));
        // Survivors (and the casualty's partial work) still report
        // stats into the portfolio total.
        assert!(o.total().expect("stats").propagations > 0);
    }

    /// The depth-parallel fleet keeps the verdicts it already has when
    /// later workers crash: depth 2 resolves UNSAT in its first turn
    /// (1 conflict), then every deeper worker trips the conflict-10
    /// panic — the search still returns, quarantines the casualties
    /// and reports the certified lower bound.
    #[test]
    fn depth_parallel_crash_keeps_the_partial_answer() {
        let spec = cnot_spec();
        let options = SynthOptions {
            fault_plan: panic_fault(10, None),
            ..depth_fleet_options(false)
        };
        let search = depth_fleet(&spec, 2, 5, 4, &options).unwrap();
        let quarantined: Vec<usize> = search.quarantined.iter().map(|&(k, _)| k).collect();
        assert_eq!(quarantined, vec![3, 4, 5]);
        assert_eq!(search.certified_lower_bound(), 3);
        assert_eq!(search.best_depth(), None);
    }

    /// A depth-parallel fleet with no survivors propagates the first
    /// crash (lowest depth) as an error.
    #[test]
    fn depth_parallel_total_crash_is_an_error() {
        let spec = cnot_spec();
        let options = SynthOptions {
            fault_plan: panic_fault(1, None),
            ..depth_fleet_options(false)
        };
        let r = depth_fleet(&spec, 2, 5, 4, &options);
        match r {
            Err(SynthError::WorkerPanic(msg)) => {
                assert!(msg.contains("depth 2"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }
}
