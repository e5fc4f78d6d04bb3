//! The CCZ-consuming majority gate (paper Fig. 15): derive its nine
//! stabilizer flows from the Clifford gadget, synthesize it at the
//! paper's 3×3×5 volume (40% below the published human design), verify,
//! and export the 3D model.
//!
//! Run with: `cargo run --release --example majority_gate`

use lassynth::synth::{SynthResult, Synthesizer};
use lassynth::workloads::paper::majority;
use lassynth::workloads::specs::majority_flows;
use lassynth::{lasre, viz};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("derived stabilizer flows of the majority gadget");
    println!("(ports: a t c | a' t' c' | ccz_a ccz_t ccz_c):");
    for f in majority_flows() {
        println!("  {f}");
    }

    let gate = majority(3);
    let mut synth = Synthesizer::new(gate.spec)?;
    println!(
        "\nencoding: V·nstab = {}, {} vars, {} clauses",
        synth.stats().v_nstab,
        synth.stats().num_vars,
        synth.stats().num_clauses
    );
    match synth.run()? {
        SynthResult::Sat(design) => {
            println!(
                "SAT in {:?}: 3×3×5 = {} spacetime volume (baseline: {}, −40%)",
                synth.last_solve_time().unwrap_or_default(),
                gate.paper_volume.unwrap_or_default(),
                gate.baseline_volume.unwrap_or_default()
            );
            println!("verified through ZX flows: {}", design.verified());
            println!("\ntime slices:\n{}", lasre::slices::render(&design));
            std::fs::create_dir_all("target/experiments")?;
            let scene = viz::Scene::from_design(&design, viz::SceneOptions::default());
            std::fs::write(
                "target/experiments/majority_gate.gltf",
                viz::gltf::to_gltf(&scene),
            )?;
            println!("wrote target/experiments/majority_gate.gltf");
        }
        other => println!("synthesis did not finish: {other:?}"),
    }
    Ok(())
}
