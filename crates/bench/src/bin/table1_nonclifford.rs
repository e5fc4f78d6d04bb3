//! Regenerates paper Table I: size and runtime for the non-Clifford
//! designs (majority gate, 99/121/162 T-factories): the V·nstab scaling
//! factor, CNF size, and min/SD solve time across random seeds.
//!
//! Encoding statistics print always; solve times require `--solve`
//! (the paper's Kissat times: Majority 9.02 s, 99-factory 20.6 s,
//! 121-factory 40.9 s, 162-factory 469 s with seed SD up to 4000 s).

use bench_support::{cli::Cli, report::Table, timing::mean_sd, timing::time_it};
use lasre::LasSpec;
use synth::{SynthOptions, SynthResult, Synthesizer};
use workloads::specs::{majority_gate_spec, t_factory_nodelay_spec, t_factory_spec};

fn instances() -> Vec<(&'static str, LasSpec)> {
    // The "121-factory" row is the paper's Fig. 18a design on Litinski's
    // floorplan; we model it as the wide-footprint factory at depth 10
    // (same volume class), since the floorplan is not given as a spec.
    let mut spec121 = t_factory_spec(10);
    spec121.name = "t-factory-121-flavor".into();
    vec![
        ("Majority", majority_gate_spec(3)),
        ("99-factory", t_factory_nodelay_spec(11)),
        ("121-factory", spec121),
        ("162-factory", t_factory_spec(4)),
    ]
}

fn main() {
    let cli = Cli::parse();
    println!("== Table I: size and runtime for non-Clifford designs ==\n");
    let mut table = Table::new([
        "name", "V·nstab", "vars", "clauses", "min time", "SD", "verdicts",
    ]);
    for (name, spec) in instances() {
        let stats = Synthesizer::new(spec.clone()).expect("valid spec").stats();
        let mut times = Vec::new();
        let mut verdicts = String::new();
        if cli.solve {
            for seed in 0..cli.seeds as u64 {
                let mut opts = SynthOptions::default().with_seed(seed);
                opts.budget.max_time = Some(cli.timeout);
                let mut s = Synthesizer::new(spec.clone())
                    .expect("valid spec")
                    .with_options(opts);
                let (result, time) = time_it(|| s.run().expect("synthesis"));
                match result {
                    SynthResult::Sat(_) => {
                        verdicts.push('S');
                        times.push(time);
                    }
                    SynthResult::Unsat => verdicts.push('U'),
                    SynthResult::Unknown => verdicts.push('T'),
                }
            }
        }
        let (min, sd) = if times.is_empty() {
            ("-".to_string(), "-".to_string())
        } else {
            let min = times.iter().min().expect("non-empty");
            let (_, sd) = mean_sd(&times);
            (format!("{min:.2?}"), format!("{sd:.2}s"))
        };
        table.row([
            name.to_string(),
            stats.v_nstab.to_string(),
            stats.num_vars.to_string(),
            stats.num_clauses.to_string(),
            min,
            sd,
            if cli.solve {
                verdicts
            } else {
                "(encode only)".into()
            },
        ]);
    }
    table.print();
    println!("\nshape check vs paper: V·nstab alone does not order difficulty;");
    println!("CNF size tracks it better, and seed variance grows with hardness.");
    println!("Pass --solve --seeds 10 --timeout 600 for the full experiment.");
}
