//! Integration of the `.lasre` output format with the synthesizer:
//! solve → serialize → reload → re-validate → re-verify.

use lassynth::lasre;
use lassynth::synth::{verify, Synthesizer};
use lassynth::workloads::graphs::fig14_graph;
use lassynth::workloads::specs::graph_state_spec;

#[test]
fn solved_designs_roundtrip_through_lasre() {
    let design = Synthesizer::new(lasre::fixtures::cnot_spec())
        .unwrap()
        .run()
        .unwrap()
        .expect_sat();
    let text = lasre::to_lasre(&design);
    let reloaded = lasre::from_lasre(&text).unwrap();
    assert_eq!(reloaded.spec(), design.spec());
    assert_eq!(reloaded.values(), design.values());
    assert_eq!(reloaded.k_colors(), design.k_colors());
    // The reloaded design independently re-validates and re-verifies.
    assert!(lasre::check_validity(&reloaded).is_empty());
    assert!(verify::verify(&reloaded).is_ok());
}

#[test]
fn lasre_of_graph_state_design_reverifies() {
    let spec = graph_state_spec(&fig14_graph(), 2);
    let design = Synthesizer::new(spec).unwrap().run().unwrap().expect_sat();
    let reloaded = lasre::from_lasre(&lasre::to_lasre(&design)).unwrap();
    assert!(verify::verify(&reloaded).is_ok());
}

#[test]
fn tampered_lasre_fails_verification() {
    // Flip a structural bit in the serialized design: the document
    // still parses, but the load-time K-color checks or
    // validity/verification catch the damage — exactly how the paper
    // caught the buggy published majority gate.
    let design = Synthesizer::new(lasre::fixtures::cnot_spec())
        .unwrap()
        .run()
        .unwrap()
        .expect_sat();
    // Find a '1' in the values string corresponding to a pipe and clear it.
    let text = lasre::to_lasre(&design);
    let marker = "\"values\": \"";
    let start = text.find(marker).unwrap() + marker.len();
    let one = text[start..].find('1').unwrap() + start;
    let mut tampered = text.clone();
    tampered.replace_range(one..one + 1, "0");
    let invalid = match lasre::from_lasre(&tampered) {
        Err(e) => matches!(
            e,
            lasre::LasreError::KColorMismatch | lasre::LasreError::KColorConflict(_)
        ),
        Ok(reloaded) => {
            !lasre::check_validity(&reloaded).is_empty() || verify::verify(&reloaded).is_err()
        }
    };
    assert!(
        invalid,
        "tampering must be caught at load or by validity or flow checks"
    );
}

/// Every single-bit edit of a design's `values` loads or is refused with
/// an error, and a loaded one validates and verifies without panicking:
/// a `.lasre` file is untrusted input.
#[test]
fn single_bit_flips_never_panic() {
    let design = Synthesizer::new(lasre::fixtures::cnot_spec())
        .unwrap()
        .run()
        .unwrap()
        .expect_sat();
    let text = lasre::to_lasre(&design);
    let marker = "\"values\": \"";
    let start = text.find(marker).unwrap() + marker.len();
    let bits = design.values().len();
    let panicked: Vec<usize> = (0..bits)
        .filter(|&offset| {
            let mut flipped = text.clone();
            let bit = if &text[start + offset..=start + offset] == "0" {
                "1"
            } else {
                "0"
            };
            flipped.replace_range(start + offset..=start + offset, bit);
            std::panic::catch_unwind(|| {
                if let Ok(reloaded) = lasre::from_lasre(&flipped) {
                    let _ = lasre::check_validity(&reloaded);
                    let _ = verify::verify(&reloaded);
                }
            })
            .is_err()
        })
        .collect();
    assert!(panicked.is_empty(), "flipping bits {panicked:?} panics");
}
