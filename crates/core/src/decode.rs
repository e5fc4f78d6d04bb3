//! Decoding SAT models into solved designs, with post-processing.

use crate::encode::{Encoding, LayeredEncoding};
use lasre::{Axis, CorrKind, LasDesign, LasSpec, StructVar, VarTable};
use sat::Model;

/// Turns a satisfying model into a [`LasDesign`]: reads the LaSre
/// variables off the model and prunes port-disconnected structure (the
/// paper's "pipe donuts"; K colors follow, see [`LasDesign::k_colors`]).
pub fn decode(spec: &LasSpec, encoding: &Encoding, model: &Model) -> LasDesign {
    let values: Vec<bool> = encoding
        .var_map
        .iter()
        .map(|&lit| model.lit_true(lit))
        .collect();
    let mut design = LasDesign::new(spec.clone(), values);
    design.prune();
    design
}

/// Decodes a model of a [`LayeredEncoding`] solved at probe `depth`
/// into a design for `spec.with_depth(depth)`: the layers below `depth`
/// are copied variable-for-variable out of the full-depth tables (the
/// tube columns above the active top belong to the outside world and
/// are simply not part of the shallower spec's arrays), then pruned.
///
/// # Panics
///
/// Panics if `depth` is outside the layered range.
pub fn decode_layered(
    layered: &LayeredEncoding,
    spec: &LasSpec,
    depth: usize,
    model: &Model,
) -> LasDesign {
    assert!(
        (layered.lo..=layered.hi).contains(&depth),
        "depth {depth} outside the layered range"
    );
    let spec_d = spec.with_depth(depth);
    let table_d = VarTable::new(spec_d.bounds(), spec_d.nstab());
    let table_hi = &layered.encoding.table;
    let var_map = &layered.encoding.var_map;
    let mut values = vec![false; table_d.num_total()];
    // Every cube of the shallow bounds exists in the deep bounds at the
    // same coordinate, so indices translate table-to-table directly.
    for c in spec_d.bounds().iter() {
        let mut copy = |d_idx: usize, hi_idx: usize| {
            values[d_idx] = model.lit_true(var_map[hi_idx]);
        };
        copy(
            table_d.structural(StructVar::YCube(c)),
            table_hi.structural(StructVar::YCube(c)),
        );
        for axis in Axis::ALL {
            copy(
                table_d.structural(StructVar::Exist(axis, c)),
                table_hi.structural(StructVar::Exist(axis, c)),
            );
        }
        for axis in [Axis::I, Axis::J] {
            copy(
                table_d.structural(StructVar::Color(axis, c)),
                table_hi.structural(StructVar::Color(axis, c)),
            );
        }
        for s in 0..spec_d.nstab() {
            for kind in CorrKind::all() {
                copy(table_d.corr(s, kind, c), table_hi.corr(s, kind, c));
            }
        }
    }
    let mut design = LasDesign::new(spec_d, values);
    design.prune();
    design
}

#[cfg(test)]
mod tests {
    use crate::encode::{encode, encode_layered};
    use lasre::fixtures::cnot_spec;
    use sat::Backend;

    #[test]
    fn solver_model_decodes_to_valid_design() {
        let spec = cnot_spec();
        let enc = encode(&spec).unwrap();
        let out = sat::CdclSolver::default().solve(&enc.cnf);
        let model = out.expect_sat();
        let design = super::decode(&spec, &enc, &model);
        let errors = lasre::check_validity(&design);
        assert!(
            errors.is_empty(),
            "decoded design violates constraints: {errors:?}"
        );
        // All four port pipes present.
        for port in &design.spec().ports {
            let (base, axis) = port.pipe();
            assert!(design.has_pipe(axis, base));
        }
    }

    /// A layered model solved at a shallow probe depth decodes into a
    /// valid design of the shallow spec, ports relocated and all.
    #[test]
    fn layered_model_decodes_at_probe_depth() {
        let spec = cnot_spec();
        let layered = encode_layered(&spec, 2, 5).unwrap();
        for depth in [3usize, 4] {
            let model = sat::CdclSolver::default()
                .solve_with(
                    &layered.encoding.cnf,
                    &layered.assumptions_for(depth),
                    &sat::Budget::default(),
                )
                .expect_sat();
            let design = super::decode_layered(&layered, &spec, depth, &model);
            assert_eq!(design.spec().max_k, depth);
            let errors = lasre::check_validity(&design);
            assert!(errors.is_empty(), "depth {depth}: {errors:?}");
            for port in &design.spec().ports {
                let (base, axis) = port.pipe();
                assert!(design.has_pipe(axis, base), "depth {depth} port pipe");
            }
        }
    }
}
