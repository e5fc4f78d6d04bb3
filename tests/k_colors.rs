//! Golden K-pipe colors and domain walls of three solved paper designs.
//!
//! The post-processing of paper Sec. IV infers the color orientation at
//! both ends of every K pipe and places a domain wall where they differ.
//! These designs all carry walls; their `.lasre` documents pin the
//! inferred colors so any change to the inference shows up here.

use lassynth::lasre;
use lassynth::synth::optimize::find_min_depth;
use lassynth::synth::{SynthOptions, Synthesizer};
use lassynth::workloads::paper::{corpus, Search};

/// (row anchor, instance label, sorted `[i, j, k, lower, upper]` K colors,
/// sorted domain walls), in the `.lasre` document's JSON.
const GOLDEN: [(&str, &str, &str, &str); 3] = [
    (
        "fig14",
        "graph-state",
        "[[0,0,1,true,false],[1,0,0,true,true],[1,0,1,true,false],[2,0,0,false,true],\
         [2,0,1,true,false],[3,0,0,false,false],[3,0,1,false,false],[3,1,0,false,false],\
         [4,0,1,true,false],[5,0,0,false,true],[5,0,1,true,false],[5,1,0,false,true],\
         [6,0,1,true,false],[7,0,0,false,false],[7,0,1,false,false],[7,1,0,false,false]]",
        "[[0,0,1],[1,0,1],[2,0,0],[2,0,1],[4,0,1],[5,0,0],[5,0,1],[5,1,0],[6,0,1]]",
    ),
    (
        "fig15",
        "majority-w3",
        "[[0,2,0,false,false],[0,2,1,false,false],[1,0,0,false,true],[1,1,1,true,true],\
         [1,2,1,false,false],[1,2,2,false,true],[3,2,0,true,false],[3,2,1,false,false]]",
        "[[1,0,0],[1,2,2],[3,2,0]]",
    ),
    (
        "fig13",
        "g0",
        "[[0,0,0,false,false],[0,0,1,false,false],[0,1,0,false,false],[1,0,1,true,false],\
         [2,0,0,false,false],[2,0,1,false,false],[2,1,0,false,false],[3,0,1,true,false],\
         [4,0,0,false,false],[4,0,1,false,false],[5,0,1,true,false],[5,1,0,true,true]]",
        "[[1,0,1],[3,0,1],[5,0,1]]",
    ),
];

#[test]
fn solved_designs_keep_their_k_colors_and_walls() {
    let rows = corpus(false);
    for (anchor, label, k_colors, walls) in GOLDEN {
        let row = rows.iter().find(|r| r.anchor == anchor).unwrap();
        let spec = &row
            .instances
            .iter()
            .find(|i| i.label == label)
            .unwrap()
            .spec;
        let design = match row.search {
            Search::Solve => Synthesizer::new(spec.clone())
                .unwrap()
                .run()
                .unwrap()
                .expect_sat(),
            Search::MinDepth { lo, hi, start } => {
                find_min_depth(spec, lo, hi, start, &SynthOptions::default())
                    .unwrap()
                    .best
                    .unwrap()
            }
        };
        assert!(design.verified(), "{anchor} {label}");
        let doc: serde_json::Value = serde_json::from_str(&lasre::to_lasre(&design)).unwrap();
        let json = |text: &str| serde_json::from_str::<serde_json::Value>(text).unwrap();
        assert_eq!(doc["k_colors"], json(k_colors), "{anchor} {label} K colors");
        assert_eq!(doc["domain_walls"], json(walls), "{anchor} {label} walls");
    }
}
