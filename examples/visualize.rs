//! Visualization tour (paper contribution 5): synthesize a CNOT, then
//! export glTF models, including a correlation-surface overlay
//! like paper Fig. 10.
//!
//! Run with: `cargo run --release --example visualize`

use lassynth::synth::Synthesizer;
use lassynth::{lasre, viz};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = lasre::fixtures::cnot_spec();
    let design = Synthesizer::new(spec)?.run()?.expect_sat();
    std::fs::create_dir_all("target/experiments")?;

    // Plain structure.
    let scene = viz::Scene::from_design(&design, viz::SceneOptions::default());
    std::fs::write("target/experiments/cnot.gltf", viz::gltf::to_gltf(&scene))?;

    // With the correlation surface of stabilizer 1 (IZ→ZZ) overlaid,
    // the view of paper Fig. 10.
    let overlay = viz::Scene::from_design(
        &design,
        viz::SceneOptions {
            correlation: Some(1),
            ..Default::default()
        },
    );
    std::fs::write(
        "target/experiments/cnot_surface.gltf",
        viz::gltf::to_gltf(&overlay),
    )?;

    println!(
        "wrote target/experiments/cnot.gltf ({} boxes)",
        scene.boxes().len()
    );
    println!(
        "wrote target/experiments/cnot_surface.gltf ({} boxes incl. surface pieces)",
        overlay.boxes().len()
    );
    println!("\nopen them in any glTF viewer (Blender, three.js, vscode-gltf...)");
    Ok(())
}
