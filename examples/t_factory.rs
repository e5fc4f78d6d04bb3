//! The 15-to-1 T-state distillation factory (paper Figs. 16–18):
//! print the [[15,1,3]] flow table, encode both factory flavors, and
//! optionally attempt the full SAT synthesis (pass `--solve`).
//!
//! Run with: `cargo run --release --example t_factory [--solve]`

use lassynth::synth::{SynthOptions, SynthResult, Synthesizer};
use lassynth::workloads::paper::{factory_162, factory_99};
use lassynth::workloads::specs::t_factory_flows;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let solve = std::env::args().any(|a| a == "--solve");
    println!("[[15,1,3]] stabilizer flows (ports 0..E = T injections, F = output):");
    for f in t_factory_flows() {
        println!("  {f}");
    }

    for (label, factory) in [
        ("no-delay factory (Fig. 18)", factory_99()),
        ("injection-aware factory (Fig. 17)", factory_162()),
    ] {
        println!("\n== {label} ==");
        let synth = Synthesizer::new(factory.spec)?;
        println!(
            "encoding: V·nstab = {}, {} vars, {} clauses",
            synth.stats().v_nstab,
            synth.stats().num_vars,
            synth.stats().num_clauses
        );
        println!(
            "paper: volume {} vs baseline {}",
            factory.paper_volume.unwrap_or_default(),
            factory.baseline_volume.unwrap_or_default()
        );
        if let Some(note) = factory.note {
            println!("note: {note}");
        }
        if solve {
            let mut synth = synth
                .with_options(SynthOptions::default().with_time_limit(Duration::from_secs(600)));
            match synth.run()? {
                SynthResult::Sat(d) => println!(
                    "SAT in {:?}; verified = {}",
                    synth.last_solve_time().unwrap_or_default(),
                    d.verified()
                ),
                SynthResult::Unsat => println!("UNSAT (port layout too tight)"),
                SynthResult::Unknown => println!(
                    "timed out (the paper's Kissat needed {} s)",
                    factory.kissat_min_s.unwrap_or_default()
                ),
            }
        }
    }
    if !solve {
        println!("\n(pass --solve to attempt full synthesis)");
    }
    Ok(())
}
