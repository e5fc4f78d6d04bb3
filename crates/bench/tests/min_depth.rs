//! The depth-search acceptance check on the majority-gate workload
//! (paper Fig. 15): the incremental probe sequence must reproduce the
//! from-scratch verdicts and best depth exactly.

use synth::optimize::{find_min_depth, find_min_depth_scratch, DepthSearch};
use synth::SynthOptions;
use workloads::specs::majority_gate_spec;

#[test]
fn majority_min_depth_modes_agree() {
    let (spec, options) = (majority_gate_spec(3), SynthOptions::default());
    let incremental = find_min_depth(&spec, 4, 6, 5, &options).expect("majority depth search");
    let scratch = find_min_depth_scratch(&spec, 4, 6, 5, &options).expect("majority depth search");
    let view = |s: &DepthSearch| -> Vec<(usize, Option<bool>)> {
        s.probes.iter().map(|p| (p.max_k, p.sat)).collect()
    };
    let got = view(&incremental);
    assert_eq!(got, view(&scratch), "probe sequences diverge");
    assert_eq!(incremental.best_depth(), scratch.best_depth());
    // The search descends from 6 and settles on a definitive verdict
    // for every probe (no budget in play).
    assert_eq!(got[0].0, 5);
    assert!(got.iter().all(|(_, sat)| sat.is_some()));
    assert!(incremental.best_depth().is_some(), "majority fits depth 5");
    for p in &incremental.probes {
        let stats = p.stats.expect("cdcl probes report stats");
        println!(
            "incremental max_k {}: sat={:?} {:?} conflicts={} propagations={}",
            p.max_k, p.sat, p.time, stats.conflicts, stats.propagations
        );
    }
    for p in &scratch.probes {
        println!(
            "scratch     max_k {}: sat={:?} {:?} conflicts={}",
            p.max_k,
            p.sat,
            p.time,
            p.stats.map_or(0, |s| s.conflicts)
        );
    }
}
