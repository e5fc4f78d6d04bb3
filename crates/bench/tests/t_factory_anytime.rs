//! Deadline-bounded anytime depth search on the Fig. 17 T-factory
//! instance: the resource governor's acceptance demo.
//!
//! The full 15-to-1 T-factory min-depth search is far beyond an
//! interactive budget (the paper's Kissat needs minutes for a *single*
//! depth, see `workloads::paper`), so the useful contract is the
//! *anytime* one: a search whose wall-clock budget expires must still
//! come back with the window `[certified lower bound, best SAT depth]`
//! plus every probe's verdict and exhaustion reason — never an error,
//! never silently discarded work.
//!
//! No `BENCH_*.json` record is written here: a deadline pins wall
//! time, not conflicts, so the conflict count is machine-dependent and
//! has no place in the conflict-identical record trail the other
//! T-factory probes maintain.
//!
//! `#[ignore]`d locally (it deliberately burns its whole deadline);
//! the CI bench-smoke job runs it with `--ignored`.

use std::time::Duration;
use synth::SynthOptions;
use workloads::paper::factory_162;

/// Wall-clock deadline of the whole search. The 162-factory searches
/// as a walk (`optimize::searches_as_fleet`), so its first probe, at
/// depth 4, runs until the deadline stops it: long enough for real
/// work, short enough for a CI smoke job.
const PROBE_DEADLINE: Duration = Duration::from_secs(10);

#[test]
#[ignore = "deadline-bounded T-factory probe (burns its deadline): run by the CI bench-smoke job"]
fn t_factory_anytime_window_under_deadline() {
    let spec = factory_162().spec;
    let mut options = SynthOptions::default();
    options.budget.max_time = Some(PROBE_DEADLINE);
    let lo = 3;
    let hi = 5;
    let start = std::time::Instant::now();
    let search = synth::optimize::find_min_depth(&spec, lo, hi, 4, &options)
        .expect("an expired deadline is an anytime answer, not an error");
    let wall = start.elapsed();
    for p in &search.probes {
        println!(
            "max_k {}: sat={:?} exhaustion={:?} conflicts={} ({:.2?})",
            p.max_k,
            p.sat,
            p.exhaustion,
            p.stats.map_or(0, |s| s.conflicts),
            p.time
        );
    }
    let (bound, best) = search.window();
    println!(
        "anytime window after {wall:.2?}: certified lower bound {bound}, best SAT depth {best:?}, \
         exhaustion {:?}",
        search.exhaustion
    );
    assert!(!search.probes.is_empty(), "at least one probe ran");
    assert!(
        (lo..=hi).contains(&bound),
        "certified lower bound {bound} stays inside the searched range [{lo}, {hi}]"
    );
    if let Some(d) = best {
        assert!(
            (bound..=hi).contains(&d),
            "best SAT depth {d} must sit inside the window [{bound}, {hi}]"
        );
    }
    // Either the search resolved inside the deadline (then the window
    // is closed) or the governor stopped it (then the reason says so).
    match search.exhaustion {
        None => assert_eq!(
            best,
            Some(bound),
            "a resolved search closes the window: {best:?} vs {bound}"
        ),
        Some(reason) => {
            println!("governor stopped the search: {reason}");
            assert_ne!(
                best,
                Some(bound),
                "an exhausted search left the window open"
            );
        }
    }
    assert!(
        search.quarantined.is_empty(),
        "no worker crashes expected without fault injection: {:?}",
        search.quarantined
    );
}
