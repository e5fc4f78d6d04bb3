//! Optimization loops around the synthesizer (paper Fig. 12b).
//!
//! The synthesizer answers one SAT/UNSAT question; optimization asks a
//! sequence of them: shrink the allowed volume until UNSAT (descending),
//! or grow it until SAT (ascending) — probe by probe, or with one
//! lockstep worker per candidate depth — and run diversified seeds as
//! one lockstep portfolio whose earliest verdict wins.

use crate::decode::{decode, decode_layered};
use crate::encode::{encode, encode_layered};
use crate::session::{settle, Fleet, Session, WorkerState};
use crate::synthesize::{BackendChoice, SynthError, SynthOptions, SynthResult, Synthesizer};
use lasre::{LasDesign, LasSpec, SpecError};
use sat::{CdclConfig, ClauseExchange, ExhaustionReason, SolverStats};
use std::cell::Cell;
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
    /// propagations, deadline, memory ceiling, or a cancellation).
    /// `None` for resolved probes and for backends that report no
    /// statistics.
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
    /// The searched depth range, as requested (inclusive).
    pub lo: usize,
    /// See [`DepthSearch::lo`].
    pub hi: usize,
    /// Why the search stopped without resolving the minimum, if it
    /// did: the budget axis that expired (or the cancellation) on the
    /// probe/driver that gave up first. `None` when the window closed.
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
    /// range floor `lo` when no probe returned UNSAT.
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
/// `probe` answers one depth with its result, solve time and solver
/// statistics.
fn drive_depth_search(
    lo: usize,
    hi: usize,
    start: usize,
    certify: bool,
    mut probe: impl FnMut(usize) -> Result<(SynthResult, Duration, Option<SolverStats>), SynthError>,
) -> Result<DepthSearch, SynthError> {
    assert!(lo <= start && start <= hi, "start depth outside [lo, hi]");
    let mut probes = Vec::new();
    let mut best: Option<LasDesign> = None;
    let mut step = |k: usize,
                    probes: &mut Vec<DepthProbe>,
                    best: &mut Option<LasDesign>|
     -> Result<Option<bool>, SynthError> {
        let (result, time, stats) = probe(k)?;
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
            certified: certify && sat == Some(false),
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
    // The walk stops at the first undecided probe, so the anytime
    // exhaustion reason is that probe's (there is at most one).
    let exhaustion =
        probes
            .iter()
            .rev()
            .find_map(|p| if p.sat.is_none() { p.exhaustion } else { None });
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
/// With the CDCL backend and `lo >= 1` the whole search runs as **one
/// incremental solver session** over a depth-layered encoding
/// ([`encode_layered`]): each probe is a `solve_assuming` call under
/// that depth's activation literals, so the clauses learnt refuting or
/// solving one depth carry over to the next — the lever the
/// T-factory-scale instances need. Otherwise (the varisat backend,
/// which lacks an incremental API, or `lo == 0`) the search is
/// [`find_min_depth_scratch`]. Both modes probe the same depths and
/// return the same verdicts.
///
/// With `options.depth_parallel` (CDCL backend, `lo >= 1`) the walk is
/// replaced by [`find_min_depth_parallel`]: one lockstep worker per
/// candidate depth over a shared depth-layered encoding, with the
/// monotone depth axis pruning every depth a verdict dominates. The
/// answer (`best_depth`, error behavior on malformed depths) matches
/// the sequential modes; the *probe list* differs — it holds one entry
/// per worker that ran, in ascending depth order, and `sat: None`
/// marks a worker pruned or out of budget before its own verdict.
///
/// # Errors
///
/// Propagates [`SynthError`] from any probe. All modes error on the
/// probe that reaches a depth whose spec is malformed; depths the
/// search never probes are never validated (layered encodings cover
/// only [`valid_depth_window`]s, and the depth-parallel mode reproduces
/// the sequential walk-off-the-edge errors explicitly).
pub fn find_min_depth(
    spec: &LasSpec,
    lo: usize,
    hi: usize,
    start: usize,
    options: &SynthOptions,
) -> Result<DepthSearch, SynthError> {
    if let BackendChoice::Cdcl(config) = &options.backend {
        if options.depth_parallel && lo >= 1 {
            return find_min_depth_parallel(spec, lo, hi, start, options, config);
        }
        if lo >= 1 {
            return find_min_depth_incremental(spec, lo, hi, start, options, config);
        }
    }
    find_min_depth_scratch(spec, lo, hi, start, options)
}

/// From-scratch mode: the paper's probe walk with one fresh
/// [`Synthesizer`] per probe, every depth re-encoded. It is the path
/// for the varisat backend and for `lo == 0`, and the oracle the
/// incremental search is tested against.
///
/// # Errors
///
/// Propagates [`SynthError`] from any probe.
pub fn find_min_depth_scratch(
    spec: &LasSpec,
    lo: usize,
    hi: usize,
    start: usize,
    options: &SynthOptions,
) -> Result<DepthSearch, SynthError> {
    drive_depth_search(lo, hi, start, options.certify, |k| {
        let mut synth = Synthesizer::new(spec.with_depth(k))?.with_options(options.clone());
        let result = synth.run()?;
        Ok((
            result,
            synth.last_solve_time().unwrap_or_default(),
            synth.last_solver_stats(),
        ))
    })
}

/// The contiguous window of depths around `start`, within `[lo, hi]`,
/// whose specs all validate: the depths a layered encoding for a search
/// starting at `start` covers. A layered CNF must be well-formed at
/// every depth it covers, but a search must not fail on a depth it
/// never probes (from-scratch mode only errors on the probe that
/// reaches an invalid depth, and the modes must agree).
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
/// The session is sized to the probes it can actually see: the layered
/// CNF pays for its *largest* layer at every probe, so starting with
/// the full `[lo, hi]` range would tax a descending search (by far the
/// common case — start at the spec's depth, shrink to the minimum)
/// with headroom it never probes. Instead the session opens at
/// `[lo, start]`; only when the first probe is UNSAT does the search
/// ascend, into a second session sized `[k, hi]` (one rebuild at most,
/// and the sole probe whose learnt clauses are dropped is the UNSAT
/// one that forced the turn). Both ranges are cut to their
/// [`valid_depth_window`], so a depth that is invalid but never probed
/// cannot fail the search; probing an invalid depth errors, exactly as
/// from-scratch mode does.
fn find_min_depth_incremental(
    spec: &LasSpec,
    lo: usize,
    hi: usize,
    start: usize,
    options: &SynthOptions,
    config: &CdclConfig,
) -> Result<DepthSearch, SynthError> {
    let open = |lo: usize, hi: usize, start: usize| -> Result<_, SynthError> {
        let (bottom, top) = valid_depth_window(spec, lo, hi, start)?;
        let layered = encode_layered(spec, bottom, top)?;
        let session = Session::open(
            options,
            config.clone(),
            &layered.encoding.cnf,
            &layered.activation,
            None,
        );
        Ok((layered, session))
    };
    let (mut layered, mut session) = open(lo, start, start)?;
    drive_depth_search(lo, hi, start, options.certify, |k| {
        // The walk stepped past the session's range: reopen it in the
        // step's direction.
        if k > layered.hi {
            (layered, session) = open(k, hi, k)?;
        } else if k < layered.lo {
            (layered, session) = open(lo, k, k)?;
        }
        let before = session.stats();
        let started = Instant::now();
        let outcome = session.solve(&layered.assumptions_for(k), &options.budget);
        let time = started.elapsed();
        let stats = session.stats().since(before);
        session.certify(&outcome)?;
        let result = settle(outcome, options.skip_verify, |model| {
            decode_layered(&layered, spec, k, model)
        })?;
        Ok((result, time, Some(stats)))
    })
}

/// Capacity of each worker's inbox in a clause-sharing run. Clauses
/// past a full inbox are dropped (deterministically — a sharing fleet
/// takes its turns one at a time), so this only trades sharing coverage
/// against memory; it never blocks a worker.
const EXCHANGE_CAPACITY: usize = 1024;

/// Depth-parallel mode: one lockstep worker per candidate depth.
///
/// All workers share one depth-layered encoding ([`encode_layered`])
/// over the [`valid_depth_window`] around `start`; the worker owning
/// depth `k` probes it as `solve_assuming` under that depth's
/// activation literals. The lockstep fleet runs every worker still
/// inside the *undecided window*: SAT at depth `k` implies SAT at
/// every deeper depth and UNSAT implies UNSAT at every shallower one,
/// so each verdict shrinks the window and prunes the workers it
/// dominates mid-flight. The search ends when the window is empty
/// (minimum found or whole range refuted) or when every worker in it
/// ran out of budget; `options.budget.max_time` is one deadline for
/// the whole search.
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
    start: usize,
    options: &SynthOptions,
    config: &CdclConfig,
) -> Result<DepthSearch, SynthError> {
    assert!(lo <= start && start <= hi, "start depth outside [lo, hi]");
    let (bottom, top) = valid_depth_window(spec, lo, hi, start)?;
    let layered = encode_layered(spec, bottom, top)?;
    let hub = options
        .share_clauses
        .then(|| Arc::new(ClauseExchange::new(top - bottom + 1, EXCHANGE_CAPACITY)));
    let sessions = (bottom..=top).map(|k| {
        let exchange = hub.as_ref().map(|hub| (hub, k - bottom));
        let cnf = &layered.encoding.cnf;
        let session = Session::open(options, config.clone(), cnf, &layered.activation, exchange);
        (k, session)
    });
    let mut fleet = Fleet::new("depth", sessions, &options.budget);
    // The undecided window, as an inclusive depth range.
    let window = Cell::new((bottom, top));
    let mut best: Option<LasDesign> = None;
    let exhaustion = fleet.run(
        options,
        |k| layered.assumptions_for(k),
        |k| {
            let (floor, ceiling) = window.get();
            (floor..=ceiling).contains(&k)
        },
        |k, session, outcome| {
            session.certify(&outcome)?;
            let result = settle(outcome, options.skip_verify, |model| {
                decode_layered(&layered, spec, k, model)
            })?;
            // Dominated workers stay idle, so every SAT here is a new
            // minimum and every UNSAT raises the floor (`k >= 1`, so
            // `k - 1` cannot underflow).
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
    // Sequential mode walks off the valid window's edges: descending
    // from a SAT verdict at the window floor it probes `bottom - 1`,
    // and ascending past an all-UNSAT window it probes `top + 1` —
    // erring exactly when that depth's spec is malformed (which, when
    // the window was cut, is by construction). Reproduce those errors.
    let best_depth = best.as_ref().map(|d| d.spec().max_k);
    if best_depth == Some(bottom) && bottom > lo {
        spec.with_depth(bottom - 1).validate()?;
    }
    if best_depth.is_none() && window.get().0 == top + 1 && top < hi {
        spec.with_depth(top + 1).validate()?;
    }
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
                stats: Some(w.session.stats()),
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
    /// driver's reason (deadline or cancellation), else the reason the
    /// first worker in seed order gave up. `None` when a worker reached
    /// a verdict, or when nothing but crashes ended the run.
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
/// learnt clauses out to each other through a bounded
/// [`ClauseExchange`], and take their turns one at a time so the import
/// sequence is reproducible too. What sharing buys is measured as
/// *fewer total conflicts to a verdict* than the same fleet running
/// isolated. Workers import only at their own restart boundaries (and
/// solve-entry), and every import is RUP-checked and proof-logged, so
/// `options.certify` composes: an UNSAT verdict from an import-fed
/// worker still carries a checkable DRAT log.
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
    let sessions = seeds.iter().enumerate().map(|(index, &seed)| {
        let config = CdclConfig::diversified(seed);
        let exchange = hub.as_ref().map(|hub| (hub, index));
        let session = Session::open(options, config, &encoding.cnf, &[], exchange);
        (seed, session)
    });
    let mut fleet = Fleet::new("seed", sessions, &options.budget);
    let mut winner: Option<(u64, SynthResult)> = None;
    let exhaustion = fleet.run(
        options,
        |_| Vec::new(),
        |_| true,
        |seed, session, outcome| {
            session.certify(&outcome)?;
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
            .map(|w| (w.id, Some(w.session.stats())))
            .collect(),
        quarantined: fleet.quarantined(),
        exhaustion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasre::fixtures::cnot_spec;
    use sat::Budget;
    use std::sync::atomic::AtomicBool;

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

    fn depth_parallel_options(share: bool) -> SynthOptions {
        SynthOptions {
            depth_parallel: true,
            share_clauses: share,
            parallel_quantum: 20,
            ..SynthOptions::default()
        }
    }

    /// Depth-parallel mode (with and without sharing) agrees with the
    /// sequential walk on the minimum, and both bracketing verdicts
    /// come from the depths' own workers.
    #[test]
    fn depth_parallel_finds_the_same_minimum() {
        let spec = cnot_spec();
        for share in [false, true] {
            let search = find_min_depth(&spec, 2, 5, 4, &depth_parallel_options(share)).unwrap();
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
            let s = find_min_depth(&spec, 2, 5, 5, &depth_parallel_options(share)).unwrap();
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
            ..depth_parallel_options(true)
        };
        let search = find_min_depth(&spec, 2, 5, 4, &options).unwrap();
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
            ..depth_parallel_options(false)
        };
        let search = find_min_depth(&cnot_spec(), 2, 5, 4, &options).unwrap();
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

    /// Options whose driver gives up before the first turn: a raised
    /// stop flag (`Cancelled`) or an already-passed deadline
    /// (`Deadline`).
    fn stopped_up_front(base: SynthOptions) -> [(SynthOptions, ExhaustionReason); 2] {
        let mut cancelled = base.clone();
        cancelled.budget.stop = Some(Arc::new(AtomicBool::new(true)));
        let mut late = base;
        late.budget.max_time = Some(Duration::ZERO);
        [
            (cancelled, ExhaustionReason::Cancelled),
            (late, ExhaustionReason::Deadline),
        ]
    }

    /// A depth-parallel driver checks the stop flag and the deadline
    /// before every turn, so a fleet stopped up front takes no turn,
    /// reports no probe, and names the driver's reason.
    #[test]
    fn depth_parallel_driver_reports_why_it_stopped() {
        for share in [false, true] {
            for (options, reason) in stopped_up_front(depth_parallel_options(share)) {
                let search = find_min_depth(&cnot_spec(), 2, 5, 4, &options).unwrap();
                assert!(search.probes.is_empty(), "share={share} {reason}");
                assert_eq!(search.window(), (2, None), "share={share} {reason}");
                assert_eq!(search.exhaustion, Some(reason), "share={share}");
            }
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
            for (options, reason) in stopped_up_front(base.clone()) {
                let o = solve_portfolio_detailed(&cnot_spec(), &[0, 1], &options).unwrap();
                assert!(matches!(o.result, SynthResult::Unknown), "{reason}");
                assert_eq!(o.winner_seed, None);
                assert_eq!(
                    o.total().expect("lockstep workers report stats").conflicts,
                    0
                );
                assert_eq!(o.exhaustion, Some(reason), "share={share}");
            }
            // A flag that stays down lets the portfolio answer, and a
            // verdict leaves nothing to explain.
            let mut options = base;
            options.budget.stop = Some(Arc::new(AtomicBool::new(false)));
            let o = solve_portfolio_detailed(&cnot_spec(), &[0, 1], &options).unwrap();
            assert!(o.result.is_sat(), "share={share}");
            assert_eq!(o.exhaustion, None);
        }
    }

    /// Depth-parallel reproduces the sequential edge semantics:
    /// starting at the CNOT's invalid depth 1 errors up front, while a
    /// range whose invalid depths are never needed succeeds.
    #[test]
    fn depth_parallel_edge_semantics_match_sequential() {
        let r = find_min_depth(&cnot_spec(), 1, 5, 1, &depth_parallel_options(false));
        assert!(matches!(r, Err(SynthError::Spec(_))));
        let s = find_min_depth(&cnot_spec(), 1, 5, 4, &depth_parallel_options(false)).unwrap();
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
            ..depth_parallel_options(false)
        };
        let search = find_min_depth(&spec, 2, 5, 4, &options).unwrap();
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
            ..depth_parallel_options(false)
        };
        let r = find_min_depth(&spec, 2, 5, 4, &options);
        match r {
            Err(SynthError::WorkerPanic(msg)) => {
                assert!(msg.contains("depth 2"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }
}
