//! Shared-clause lockstep portfolio on the budgeted Fig. 17 instance.
//!
//! Companion to `t_factory_budgeted`: the same 9x4 depth-4 T-factory
//! encoding, solved by `solve_portfolio_detailed` as a 4-seed
//! diversified lockstep fleet, once with clause sharing off (every
//! worker isolated) and once with sharing on (low-LBD learnt clauses
//! fanned out through the round-gated exchange and RUP-filtered on
//! import); either way each round's turns run on scoped threads. The
//! tracked comparison is *total fleet conflicts until the driver stops*
//! — a verdict from any worker, or every per-worker budget exhausted.
//! Conflicts are deterministic for a given code + seeds + quantum (turns
//! are fixed quanta, verdicts are settled in seed order, and a turn
//! imports only earlier rounds' clauses, in seed order), so the gates below are
//! machine-independent; wall time is printed for the trail only.
//!
//! Gates:
//! * the sharing fleet is bit-deterministic: two consecutive runs
//!   produce identical verdicts and identical per-worker stats,
//! * sharing is live: the fleet imports and keeps foreign clauses,
//! * if either fleet reaches a verdict, the sharing fleet reaches one
//!   in no more total conflicts than the isolated fleet — the win
//!   clause sharing is for (with neither fleet reaching a verdict,
//!   both must burn exactly the full budget),
//! * the propagations-per-conflict ceiling of the budgeted probe also
//!   holds for the fleet total.
//!
//! Emits `BENCH_t_factory_shared_portfolio.json` (sharing on) and
//! `BENCH_t_factory_isolated_portfolio.json` (sharing off); CI's
//! bench-smoke job diffs both against the committed records.
//!
//! `#[ignore]`d locally (seconds of solving); the CI bench-smoke job
//! runs it with `--ignored`.

use bench_support::report::BenchRecord;
use sat::{Budget, SolverStats};
use synth::optimize::solve_portfolio_detailed;
use synth::{SynthOptions, SynthResult};
use workloads::paper::factory_162;

/// The diversified fleet (seed 0 is the reference configuration the
/// single-solve probe runs).
const SEEDS: [u64; 4] = [0, 1, 2, 3];
/// Per-worker conflict budget: the fleet's total equals the
/// single-solve probe's 60k budget, so the two records measure the
/// same amount of work.
const PER_WORKER_CONFLICTS: u64 = 15_000;
/// Lockstep turn length, in conflicts.
const QUANTUM: u64 = 2_000;
/// Same deterministic ceiling as the single-solve budgeted probe,
/// applied to the fleet totals.
const MAX_PROPAGATIONS_PER_CONFLICT: u64 = 2000;

struct FleetOutcome {
    /// `Some((seed, is_sat))` when a worker reached a verdict.
    verdict: Option<(u64, bool)>,
    /// Every worker's stats, in seed order.
    per_worker: Vec<SolverStats>,
    total: SolverStats,
    wall_s: f64,
}

/// One lockstep run of the seed fleet until a verdict or exhaustion.
fn run_fleet(share: bool) -> FleetOutcome {
    let options = SynthOptions {
        budget: Budget::conflict_limit(PER_WORKER_CONFLICTS),
        share_clauses: share,
        parallel_quantum: QUANTUM,
        ..SynthOptions::default()
    };
    let start = std::time::Instant::now();
    let outcome = solve_portfolio_detailed(&factory_162().spec, &SEEDS, &options)
        .expect("the T-factory fleet runs");
    let wall_s = start.elapsed().as_secs_f64();
    if let SynthResult::Sat(design) = &outcome.result {
        assert!(design.verified(), "the fleet returned an unverified design");
    }
    FleetOutcome {
        verdict: outcome
            .winner_seed
            .map(|seed| (seed, outcome.result.is_sat())),
        per_worker: outcome
            .worker_stats
            .iter()
            .map(|&(_, stats)| stats.expect("CDCL workers report stats"))
            .collect(),
        total: outcome.total().expect("CDCL workers report stats"),
        wall_s,
    }
}

fn describe(label: &str, fleet: &FleetOutcome) {
    let total = &fleet.total;
    println!(
        "{label}: verdict={:?} total conflicts={} propagations={} \
         exported={} imported={} kept={} in {:.2} s",
        fleet.verdict,
        total.conflicts,
        total.propagations,
        total.exported_clauses,
        total.imported_clauses,
        total.imported_kept,
        fleet.wall_s
    );
    for (seed, stats) in SEEDS.iter().zip(&fleet.per_worker) {
        println!(
            "  seed {seed}: conflicts={} propagations={} exported={} imported={} kept={}",
            stats.conflicts,
            stats.propagations,
            stats.exported_clauses,
            stats.imported_clauses,
            stats.imported_kept
        );
    }
}

#[test]
#[ignore = "budgeted T-factory portfolio probe (seconds): run by the CI bench-smoke job"]
fn t_factory_shared_portfolio_probe() {
    let isolated = run_fleet(false);
    describe("isolated fleet", &isolated);
    let shared = run_fleet(true);
    describe("shared fleet", &shared);

    // Determinism gate: an identical second sharing run must reproduce
    // the verdict and every per-worker counter bit for bit.
    let rerun = run_fleet(true);
    assert_eq!(
        shared.verdict, rerun.verdict,
        "sharing fleet verdict is not reproducible"
    );
    assert_eq!(
        shared.per_worker, rerun.per_worker,
        "sharing fleet stats are not reproducible"
    );

    // The paper finds a design at this depth: UNSAT is a solver bug.
    for fleet in [&isolated, &shared] {
        assert!(
            !matches!(fleet.verdict, Some((_, false))),
            "T-factory depth-4 misreported UNSAT"
        );
    }

    // Sharing must actually be live (and quiet when off).
    let (shared_total, isolated_total) = (shared.total, isolated.total);
    assert_eq!(isolated_total.imported_clauses, 0);
    assert!(
        shared_total.imported_kept > 0,
        "the sharing fleet never kept an imported clause"
    );

    // The machine-independent comparison: conflicts until the driver
    // stopped. A verdict must not cost the sharing fleet more total
    // conflicts than the isolated fleet; with no verdict anywhere both
    // fleets burn exactly the full budget.
    match (shared.verdict, isolated.verdict) {
        (None, None) => {
            let budget = PER_WORKER_CONFLICTS * SEEDS.len() as u64;
            assert_eq!(shared_total.conflicts, budget);
            assert_eq!(isolated_total.conflicts, budget);
        }
        _ => assert!(
            shared_total.conflicts <= isolated_total.conflicts,
            "clause sharing made the verdict more expensive: {} vs {} total conflicts",
            shared_total.conflicts,
            isolated_total.conflicts
        ),
    }

    for (label, total) in [("shared", &shared_total), ("isolated", &isolated_total)] {
        assert!(
            total.propagations <= total.conflicts.max(1) * MAX_PROPAGATIONS_PER_CONFLICT,
            "{label} fleet propagations per conflict blew past the deterministic ceiling: \
             {} conflicts, {} propagations (limit {}/conflict)",
            total.conflicts,
            total.propagations,
            MAX_PROPAGATIONS_PER_CONFLICT
        );
    }

    for (name, total, wall_s) in [
        ("t_factory_shared_portfolio", &shared_total, shared.wall_s),
        (
            "t_factory_isolated_portfolio",
            &isolated_total,
            isolated.wall_s,
        ),
    ] {
        BenchRecord {
            name: name.into(),
            wall_ms: wall_s * 1e3,
            conflicts: total.conflicts,
            propagations: total.propagations,
            // The budgeted fleets stop at Unknown/SAT — nothing to
            // certify.
            proof_checked: None,
        }
        .emit();
    }
}
