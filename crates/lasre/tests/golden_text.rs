//! Golden JSON text of the paper's CNOT fixture.
//!
//! Pins the exact bytes of the `.lasre` document and of the compact spec
//! JSON: key order, number forms and pretty-printing. The fixture needs
//! no solver, so the bytes are deterministic.

use lasre::fixtures::{cnot_design, cnot_spec};

/// The compact JSON of [`cnot_spec`].
const CNOT_SPEC: &str = concat!(
    r#"{"name":"cnot","max_i":2,"max_j":2,"max_k":3,"ports":["#,
    r#"{"location":[0,1,0],"direction":"+K","z_basis_direction":"J"},"#,
    r#"{"location":[1,0,0],"direction":"+K","z_basis_direction":"J"},"#,
    r#"{"location":[0,1,3],"direction":"-K","z_basis_direction":"J"},"#,
    r#"{"location":[1,0,3],"direction":"-K","z_basis_direction":"J"}],"#,
    r#""stabilizers":["Z.Z.",".ZZZ","X.XX",".X.X"],"#,
    r#""forbidden_cubes":[[0,0,0],[1,1,0]],"allow_y_cubes":true}"#,
);

#[test]
fn cnot_lasre_text_is_pinned() {
    let text = lasre::to_lasre(&cnot_design());
    // The golden file ends in a newline; `to_lasre` does not.
    assert_eq!(format!("{text}\n"), include_str!("golden/cnot_design.json"));
}

#[test]
fn cnot_spec_compact_text_is_pinned() {
    assert_eq!(serde_json::to_string(&cnot_spec()).unwrap(), CNOT_SPEC);
}
