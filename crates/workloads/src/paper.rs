//! The paper's evaluation corpus: every row of Figs. 13–18, Table I and
//! the Sec. VII lane sweep, each paper number declared once.
//!
//! A [`PaperRow`] names its anchor, how its instances run, and the
//! [`Instance`]s: specs built from [`crate::specs`] and
//! [`crate::graphs`] beside the paper's numbers for them. An instance
//! whose spec departs from the paper's model says so in its `note`.

use crate::baseline::compile_graph_state;
use crate::graphs::{benchmark_set, fig14_graph, Graph};
use crate::specs::{graph_state_spec, graph_state_spec_arch, majority_gate_spec};
use crate::specs::{t_factory_nodelay_spec, t_factory_spec};
use lasre::LasSpec;

/// Seed of the Fig. 13 graph draw.
const GRAPH_DRAW_SEED: u64 = 2024;

/// One spec of a row with the paper's numbers for it (`None` where the
/// paper gives none).
#[derive(Clone, Debug)]
pub struct Instance {
    /// Name within the row, also the stem of its glTF file.
    pub label: String,
    /// The spec to encode and run.
    pub spec: LasSpec,
    /// Tiles per time layer, without virtual padding columns: a design
    /// of depth `d` has volume `footprint × d`.
    pub footprint: usize,
    /// The volume of the paper's design.
    pub paper_volume: Option<usize>,
    /// The volume compared against: the published design's, or for
    /// graph states our 2-lane baseline compiler's.
    pub baseline_volume: Option<usize>,
    /// The paper's V·nstab, where it differs from the spec's.
    pub paper_v_nstab: Option<usize>,
    /// Kissat's minimum solve time over seeds (Table I), in seconds.
    pub kissat_min_s: Option<f64>,
    /// Where the spec departs from the paper's model.
    pub note: Option<&'static str>,
}

impl Instance {
    fn new(label: impl Into<String>, spec: LasSpec) -> Instance {
        Instance {
            label: label.into(),
            footprint: spec.max_i * spec.max_j,
            spec,
            paper_volume: None,
            baseline_volume: None,
            paper_v_nstab: None,
            kissat_min_s: None,
            note: None,
        }
    }
}

/// How a row runs each instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Search {
    /// One solve at the spec's depth.
    Solve,
    /// The minimal-depth search over `lo..=hi` from `start`.
    MinDepth { lo: usize, hi: usize, start: usize },
}

/// One figure or table of the paper.
#[derive(Clone, Debug)]
pub struct PaperRow {
    /// Short name the `paper` binary selects the row by (`fig13`, `table1`, …).
    pub anchor: &'static str,
    /// What the row reproduces.
    pub title: String,
    /// How each instance runs.
    pub search: Search,
    /// Whether the instances are cheap enough to run by default.
    pub solves_by_default: bool,
    /// The instances, in print order.
    pub instances: Vec<Instance>,
}

/// The Fig. 15 majority gate at interior width `width`: the paper's
/// design has width 3, the baseline of Ref. \[20\] width 5.
pub fn majority(width: usize) -> Instance {
    Instance {
        footprint: 3 * width, // less the virtual padding column
        paper_volume: (width == 3).then_some(45),
        baseline_volume: Some(75),
        kissat_min_s: (width == 3).then_some(9.02),
        ..Instance::new(format!("majority-w{width}"), majority_gate_spec(width))
    }
}

/// The Fig. 18 no-delay T-factory (3×3×11) against Litinski's
/// 11-patch floorplan at depth 11.
pub fn factory_99() -> Instance {
    Instance {
        paper_volume: Some(99),
        baseline_volume: Some(121),
        kissat_min_s: Some(20.6),
        ..Instance::new("99-factory", t_factory_nodelay_spec(11))
    }
}

/// Table I's "121-factory": the paper's design on Litinski's floorplan.
pub fn factory_121() -> Instance {
    Instance {
        paper_volume: Some(121),
        kissat_min_s: Some(40.9),
        note: Some(
            "stand-in: Litinski's floorplan is not given as a spec, so this row runs \
             t_factory_spec(10), the Fig. 17 footprint at depth 10",
        ),
        ..Instance::new("121-factory", t_factory_spec(10))
    }
}

/// The Fig. 17 injection-aware T-factory (9×4×4.5) against the 8×4
/// factory of Refs. \[10\], \[21\] at average depth 5.5.
pub fn factory_162() -> Instance {
    Instance {
        paper_volume: Some(162),
        baseline_volume: Some(176),
        paper_v_nstab: Some(2304),
        kissat_min_s: Some(469.0),
        note: Some(
            "the spec adds a bottom padding layer (9×4×5, V·nstab 2880) where the paper \
             models 9×4×4 (2304) and adds half an S-fixup layer to the volume",
        ),
        ..Instance::new("162-factory", t_factory_spec(4))
    }
}

/// Every row, in print order. `full` selects the paper-scale graph
/// sets: 101 8-qubit graphs for Fig. 13 and an 8-qubit lane sweep.
pub fn corpus(full: bool) -> Vec<PaperRow> {
    let (n, count) = if full { (8, 101) } else { (6, 25) };
    let graph_state = |label: String, g: &Graph, depth| Instance {
        baseline_volume: Some(compile_graph_state(g).volume),
        ..Instance::new(label, graph_state_spec(g, depth))
    };
    let min_depth = Search::MinDepth {
        lo: 1,
        hi: 8,
        start: 3,
    };
    let lanes = [
        ("path", Graph::path(n)),
        ("cycle", Graph::cycle(n)),
        ("star", Graph::star(n)),
        ("complete", Graph::complete(n)),
        ("wheel", Graph::wheel(n)),
    ];
    let fig14 = fig14_graph();
    vec![
        PaperRow {
            anchor: "fig13",
            title: format!(
                "Fig. 13: {n}-qubit graph states ({count} graphs; the paper's 101 \
                 8-qubit graphs average a 56% volume reduction)"
            ),
            search: min_depth,
            solves_by_default: true,
            instances: (benchmark_set(n, count, GRAPH_DRAW_SEED).iter().enumerate())
                .map(|(i, g)| graph_state(format!("g{i}"), g, 3))
                .collect(),
        },
        PaperRow {
            anchor: "fig14",
            title: "Fig. 14: the 8-qubit example graph state at 8×2×2".into(),
            search: Search::Solve,
            solves_by_default: true,
            instances: vec![Instance {
                paper_volume: Some(32),
                ..graph_state("graph-state".into(), &fig14, 2)
            }],
        },
        PaperRow {
            anchor: "fig15",
            title: "Fig. 15: the CCZ-consuming majority gate".into(),
            search: Search::Solve,
            solves_by_default: true,
            instances: vec![majority(5), majority(4), majority(3)],
        },
        PaperRow {
            anchor: "fig17",
            title: "Fig. 17: 15-to-1 T-factory with injection fixups".into(),
            search: Search::Solve,
            solves_by_default: false,
            instances: vec![factory_162()],
        },
        PaperRow {
            anchor: "fig18",
            title: "Fig. 18: no-delay 15-to-1 T-factory".into(),
            search: Search::Solve,
            solves_by_default: false,
            instances: vec![factory_99()],
        },
        PaperRow {
            anchor: "table1",
            title: "Table I: size and runtime of the non-Clifford designs".into(),
            search: Search::Solve,
            solves_by_default: false,
            instances: vec![majority(3), factory_99(), factory_121(), factory_162()],
        },
        PaperRow {
            anchor: "arch",
            title: format!("Sec. VII: optimal depth by lane count ({n}-qubit graphs)"),
            search: min_depth,
            solves_by_default: true,
            instances: (lanes.into_iter())
                .flat_map(|(name, g)| {
                    (1..=3).map(move |l| {
                        Instance::new(format!("{name}-l{l}"), graph_state_spec_arch(&g, 3, l))
                    })
                })
                .collect(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_improvements_match_paper_claims() {
        // −40% majority, −8% factory, −18% no-delay factory.
        let cut = |i: Instance| {
            let (paper, base) = (i.paper_volume.unwrap(), i.baseline_volume.unwrap());
            100 * (base - paper) / base
        };
        assert_eq!(cut(majority(3)), 40);
        assert_eq!(cut(factory_162()), 7);
        assert_eq!(cut(factory_99()), 18);
    }

    #[test]
    fn corpus_rows_are_valid_and_uniquely_named() {
        let rows = corpus(false);
        let anchors: Vec<&str> = rows.iter().map(|r| r.anchor).collect();
        assert_eq!(
            anchors,
            ["fig13", "fig14", "fig15", "fig17", "fig18", "table1", "arch"]
        );
        for row in &rows {
            for i in &row.instances {
                assert_eq!(i.spec.validate(), Ok(()), "{} {}", row.anchor, i.label);
                assert!(i.footprint * i.spec.max_k <= i.spec.bounds().volume());
            }
        }
        assert_eq!(rows[0].instances.len(), 25);
        assert_eq!(rows[6].instances.len(), 15);
        assert_eq!(rows[6].instances[4].footprint, 12, "cycle on 2 lanes");
        // The paper's designs sit at the volumes the specs reproduce.
        for i in [majority(3), factory_99()] {
            assert_eq!(i.paper_volume, Some(i.footprint * i.spec.max_k));
        }
    }
}
