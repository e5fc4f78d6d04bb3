//! CI `certify` lane: the budgeted majority-gate depth probe (paper
//! Fig. 15) runs with `--certify` semantics — proof logging on, every
//! UNSAT verdict's refutation cone checked by the in-tree backward
//! DRAT checker before it is reported — inside the bench-smoke time
//! budget.

use sat::Budget;
use synth::optimize::{find_min_depth, find_min_depth_scratch};
use synth::SynthOptions;

/// Per-probe conflict budget: ~100x the instance's deterministic
/// conflict count (165 across the whole search), so the run is bounded
/// on any machine yet never trips on the known trajectory.
const CONFLICT_BUDGET: u64 = 20_000;

#[test]
fn certified_majority_depth_probe_stays_within_budget() {
    let spec = workloads::specs::majority_gate_spec(3);
    let options = SynthOptions {
        certify: true,
        budget: Budget::conflict_limit(CONFLICT_BUDGET),
        ..SynthOptions::default()
    };
    let modes = ["incremental", "scratch"];
    for (mode, search) in modes
        .into_iter()
        .zip([find_min_depth, find_min_depth_scratch])
    {
        // The search errors out (rather than answering) if any UNSAT
        // probe's proof fails the checker, so an Ok result is itself
        // the certification verdict.
        let search = search(&spec, 4, 6, 5, &options).expect("certified majority depth search");
        assert_eq!(
            search.best_depth(),
            Some(4),
            "majority gate min depth ({mode})"
        );
        for p in &search.probes {
            assert_ne!(p.sat, None, "budget must not expire (probe {})", p.max_k);
            assert_eq!(
                p.certified,
                p.sat == Some(false),
                "probe {} certification flag ({mode})",
                p.max_k
            );
        }
    }
}

/// An exhausted budget under `--certify` is a clean Unknown — no proof
/// check fires, no error, and the probe is reported uncertified.
#[test]
fn certified_probe_with_tiny_budget_reports_unknown() {
    let spec = workloads::specs::majority_gate_spec(3);
    let options = SynthOptions {
        certify: true,
        budget: Budget::conflict_limit(1),
        ..SynthOptions::default()
    };
    let search = find_min_depth(&spec, 4, 6, 5, &options).expect("budgeted certified search");
    assert!(
        search.probes.iter().all(|p| p.sat.is_none()),
        "one conflict cannot settle any majority probe"
    );
    assert!(search.probes.iter().all(|p| !p.certified));
    assert_eq!(search.best_depth(), None);
}
