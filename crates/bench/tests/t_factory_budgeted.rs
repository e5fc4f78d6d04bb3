//! Budgeted T-factory probe: the Fig. 17 instance under a fixed
//! conflict budget.
//!
//! The full 15-to-1 T-factory solve still exceeds an interactive
//! budget on the in-tree CDCL (the paper's Kissat needs minutes; the
//! probe prints Table I's time from `workloads::paper`), so
//! the tracked number is *throughput under a fixed amount of work*: a
//! conflict-limited solve whose wall time measures how fast the solver
//! burns through its budget, with inprocessing enabled by default. The
//! test asserts the solver neither crashes nor misreports UNSAT,
//! prints conflicts/second, and emits `BENCH_t_factory_budgeted.json`.
//!
//! What actually gates here: because the conflict count is pinned by
//! the budget, `bench_trend` downgrades any wall-time swing on this
//! record to a warning (flat conflicts = machine-speed delta by its
//! rules), so the committed record is a cross-commit throughput
//! *trail*, not a hard wall-time gate. The hard, machine-independent
//! gate is the propagations-per-conflict ceiling asserted below:
//! propagations are deterministic for a given code + seed, so a change
//! that makes each conflict drastically more expensive to derive (a
//! missed-implication regression in chronological backtracking, a
//! watch-list pathology) fails CI everywhere, while honest wall noise
//! never does.
//!
//! `#[ignore]`d locally (it runs for tens of seconds); the CI
//! bench-smoke job runs it with `--ignored`.

use bench_support::report::BenchRecord;
use sat::{Backend, Budget, CdclSolver, SolveOutcome};
use synth::Synthesizer;
use workloads::paper::factory_162;

/// Fixed work budget: large enough to get past the early easy
/// conflicts into steady-state search (where inprocessing passes
/// actually trigger), small enough for a CI smoke job.
const CONFLICT_BUDGET: u64 = 60_000;

/// Deterministic regression ceiling: mean propagations per conflict
/// over the budgeted run. The current solver needs ~109 (PR 4's
/// conservative chrono needed ~320, the pre-inprocessing solver
/// ~560); the ceiling leaves ample room for trajectory drift across
/// code changes while still catching a propagation pathology that
/// makes conflicts several times more expensive.
const MAX_PROPAGATIONS_PER_CONFLICT: u64 = 2000;

#[test]
#[ignore = "budgeted T-factory probe (tens of seconds): run by the CI bench-smoke job"]
fn t_factory_budgeted_probe() {
    let factory = factory_162();
    let synth = Synthesizer::new(factory.spec).expect("valid T-factory spec");
    let cnf = synth.cnf();
    println!(
        "t-factory 9x4 depth-4 encoding: {} vars, {} clauses",
        cnf.num_vars(),
        cnf.num_clauses()
    );
    let mut solver = CdclSolver::default();
    let start = std::time::Instant::now();
    let out = solver.solve_with(cnf, &[], &Budget::conflict_limit(CONFLICT_BUDGET));
    let wall = start.elapsed();
    match &out {
        SolveOutcome::Sat(m) => {
            assert!(cnf.eval(m), "T-factory model must satisfy the encoding");
            println!("solved SAT within the budget");
        }
        SolveOutcome::Unsat => {
            panic!("T-factory depth-4 misreported UNSAT (the paper finds a design here)")
        }
        SolveOutcome::Unknown(_) => println!(
            "budget expired (expected: the paper's Kissat needs {} s)",
            factory.kissat_min_s.unwrap_or_default()
        ),
    }
    let stats = solver.stats;
    let secs = wall.as_secs_f64();
    println!(
        "budgeted probe: {} conflicts / {} propagations in {:.2} s -> {:.0} conflicts/s",
        stats.conflicts,
        stats.propagations,
        secs,
        stats.conflicts as f64 / secs
    );
    for (name, value) in stats.counters() {
        println!("  {name}={value}");
    }
    assert!(
        stats.propagations <= stats.conflicts.max(1) * MAX_PROPAGATIONS_PER_CONFLICT,
        "propagations per conflict blew past the deterministic ceiling: {} conflicts, {} \
         propagations (limit {}/conflict)",
        stats.conflicts,
        stats.propagations,
        MAX_PROPAGATIONS_PER_CONFLICT
    );
    BenchRecord {
        name: "t_factory_budgeted".into(),
        wall_ms: secs * 1e3,
        conflicts: stats.conflicts,
        propagations: stats.propagations,
        // The budgeted probe stops at Unknown — no UNSAT to certify.
        proof_checked: None,
    }
    .emit();
}
