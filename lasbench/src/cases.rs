//! The four workloads and their set-up: which specs each one submits,
//! in which order, and with which solver options.

use lasre::LasSpec;
use sat::Budget;
use synth::SynthOptions;
use workloads::graphs::benchmark_set;
use workloads::specs::{
    graph_state_spec, majority_gate_spec, t_factory_nodelay_spec, t_factory_spec,
};

/// Seed of the Fig. 13 graph draw the graph workload is built from.
/// The committed varisat reference depths belong to this draw.
pub const GRAPH_DRAW_SEED: u64 = 2024;
/// Size of the Fig. 13 draw (6-qubit graphs).
pub const GRAPH_DRAW: (usize, usize) = (6, 25);
/// The graphs of the draw the workload submits: every graph whose
/// certified min-depth search stays under 10k conflicts. The six others
/// (g3, g4, g8, g10, g23, g24) take 0.8–7.7 s each, so a pass over all
/// 25 would not repeat within one measured run.
pub const GRAPH_PASS: [usize; 19] = [
    0, 1, 2, 5, 6, 7, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
];
/// `find_min_depth(spec, lo, hi, start)` arguments of the graph workload.
pub const DEPTH_RANGE: (usize, usize, usize) = (1, 8, 3);
/// Interior widths of the Fig. 15 majority gate, in submission order.
pub const MAJORITY_WIDTHS: [usize; 3] = [5, 4, 3];
/// Conflict budget of each T-factory one-shot solve.
pub const T_FACTORY_CONFLICTS: u64 = 30_000;
/// Seeds of the clause-sharing lockstep fleet.
pub const FLEET_SEEDS: [u64; 4] = [1, 2, 3, 4];
/// Conflict budget of each fleet worker.
pub const FLEET_CONFLICTS: u64 = 6_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GraphDepthCertified,
    MajoritySynth,
    TFactoryBudget,
    TFactoryFleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GraphDepthCertified,
        Workload::MajoritySynth,
        Workload::TFactoryBudget,
        Workload::TFactoryFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GraphDepthCertified => "graph-depth-certified",
            Workload::MajoritySynth => "majority-synth",
            Workload::TFactoryBudget => "t-factory-budget",
            Workload::TFactoryFleet => "t-factory-fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Options of every library call this workload makes.
    pub fn options(self) -> SynthOptions {
        match self {
            Workload::GraphDepthCertified => SynthOptions {
                certify: true,
                ..SynthOptions::default()
            },
            Workload::MajoritySynth => SynthOptions::default(),
            Workload::TFactoryBudget => SynthOptions {
                budget: Budget::conflict_limit(T_FACTORY_CONFLICTS),
                ..SynthOptions::default()
            },
            Workload::TFactoryFleet => SynthOptions {
                budget: Budget::conflict_limit(FLEET_CONFLICTS),
                share_clauses: true,
                ..SynthOptions::default()
            },
        }
    }
}

/// One spec the closed loop submits.
pub struct Case {
    pub name: String,
    pub spec: LasSpec,
    /// Index of the graph in the Fig. 13 draw (graph workload only).
    pub graph: Option<usize>,
}

/// Generates and validates the workload's specs: the set-up the
/// benchmark times as `setup_s`. Only the graph workload uses `seed`,
/// to order its graphs; every other spec is a fixed paper instance.
pub fn setup(workload: Workload, seed: u64) -> Result<Vec<Case>, String> {
    let cases = match workload {
        Workload::GraphDepthCertified => {
            let (n, count) = GRAPH_DRAW;
            let graphs = benchmark_set(n, count, GRAPH_DRAW_SEED);
            let mut order = GRAPH_PASS.to_vec();
            shuffle(&mut order, seed);
            order
                .into_iter()
                .map(|i| Case {
                    name: format!("g{i}"),
                    spec: graph_state_spec(&graphs[i], DEPTH_RANGE.2),
                    graph: Some(i),
                })
                .collect()
        }
        Workload::MajoritySynth => MAJORITY_WIDTHS
            .iter()
            .map(|&w| Case {
                name: format!("majority-w{w}"),
                spec: majority_gate_spec(w),
                graph: None,
            })
            .collect(),
        Workload::TFactoryBudget => vec![
            Case {
                name: "fig17".into(),
                spec: t_factory_spec(4),
                graph: None,
            },
            Case {
                name: "fig18".into(),
                spec: t_factory_nodelay_spec(11),
                graph: None,
            },
        ],
        Workload::TFactoryFleet => vec![Case {
            name: "fig17-fleet".into(),
            spec: t_factory_spec(4),
            graph: None,
        }],
    };
    for case in &cases {
        case.spec
            .validate()
            .map_err(|e| format!("{}: invalid spec: {e}", case.name))?;
    }
    Ok(cases)
}

/// Fisher–Yates with a splitmix64 stream: the same seed gives the same
/// order on every platform.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The committed reference: optimal depths of the Fig. 13 draw, one
/// `g<index> <edges> <depth>` line per graph, computed with the
/// independent varisat backend (`--write-reference`).
pub const REFERENCE: &str = include_str!("../reference/graph_depths.txt");

/// Parses [`REFERENCE`] into depths indexed by graph.
pub fn reference_depths() -> Result<Vec<usize>, String> {
    let mut depths = Vec::new();
    for line in REFERENCE.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, _edges, depth] = fields[..] else {
            return Err(format!("malformed reference line `{line}`"));
        };
        if name != format!("g{}", depths.len()) {
            return Err(format!("reference line `{line}` out of order"));
        }
        depths.push(
            depth
                .parse()
                .map_err(|_| format!("bad depth in `{line}`"))?,
        );
    }
    if depths.len() != GRAPH_DRAW.1 {
        return Err(format!(
            "reference lists {} graphs, not {}",
            depths.len(),
            GRAPH_DRAW.1
        ));
    }
    Ok(depths)
}
