//! The LaS specification (paper Fig. 2b).

use crate::geom::{Axis, Bounds, Coord, Sign};
use crate::port::Port;
use pauli::PauliString;
use serde_json::{json, Error, Fields, FromJson, ToJson, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A complete LaS specification: allowed volume, port layout and the
/// stabilizer flows the subroutine must realize.
///
/// This is the synthesizer's *input*; what happens inside the volume is
/// the synthesizer's job to find (paper Sec. I).
///
/// The JSON form matches the paper's input file concept. When omitted,
/// `forbidden_cubes` defaults to `[]` and `allow_y_cubes` to `true`;
/// unknown keys are ignored:
///
/// ```
/// use lasre::LasSpec;
/// let spec: LasSpec = serde_json::from_str(r#"{
///     "name": "cnot",
///     "max_i": 2, "max_j": 2, "max_k": 3,
///     "ports": [
///         {"location": [0,1,0], "direction": "+K", "z_basis_direction": "J"},
///         {"location": [1,0,0], "direction": "+K", "z_basis_direction": "J"},
///         {"location": [0,1,3], "direction": "-K", "z_basis_direction": "J"},
///         {"location": [1,0,3], "direction": "-K", "z_basis_direction": "J"}
///     ],
///     "stabilizers": ["Z.Z.", ".ZZZ", "X.XX", ".X.X"],
///     "forbidden_cubes": [[0,0,0],[1,1,0]]
/// }"#).unwrap();
/// assert!(spec.validate().is_ok());
/// assert!(spec.allow_y_cubes);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LasSpec {
    /// Human-readable name, used in reports and output files.
    pub name: String,
    /// Array extent along I.
    pub max_i: usize,
    /// Array extent along J.
    pub max_j: usize,
    /// Array extent along K (time).
    pub max_k: usize,
    /// The ports, in stabilizer-string order.
    pub ports: Vec<Port>,
    /// Stabilizer flows as Pauli strings over the ports.
    pub stabilizers: Vec<PauliString>,
    /// Cubes that must stay empty (footprint shaping, padding layers).
    /// Defaults to `[]` when the JSON omits it.
    pub forbidden_cubes: Vec<Coord>,
    /// Whether the solver may use Y cubes (paper Fig. 4g). Defaults to
    /// `true` when the JSON omits it.
    pub allow_y_cubes: bool,
}

impl ToJson for LasSpec {
    fn to_json(&self) -> Value {
        json!({
            "name": self.name.to_json(),
            "max_i": self.max_i.to_json(),
            "max_j": self.max_j.to_json(),
            "max_k": self.max_k.to_json(),
            "ports": self.ports.to_json(),
            "stabilizers": self.stabilizers.to_json(),
            "forbidden_cubes": self.forbidden_cubes.to_json(),
            "allow_y_cubes": self.allow_y_cubes.to_json(),
        })
    }
}

impl FromJson for LasSpec {
    fn from_json(v: Value) -> Result<Self, Error> {
        let mut fields = Fields::of(v, "LasSpec")?;
        Ok(LasSpec {
            name: fields.take("name")?,
            max_i: fields.take("max_i")?,
            max_j: fields.take("max_j")?,
            max_k: fields.take("max_k")?,
            ports: fields.take("ports")?,
            stabilizers: fields.take("stabilizers")?,
            forbidden_cubes: fields.take_or("forbidden_cubes", Vec::new())?,
            allow_y_cubes: fields.take_or("allow_y_cubes", true)?,
        })
    }
}

/// Error describing why a specification is malformed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// An array extent (`max_i`, `max_j` or `max_k`) is zero.
    EmptyVolume,
    /// There must be at least one port.
    NoPorts,
    /// A port's boundary cube lies outside the arrays.
    PortCubeOutOfBounds(usize),
    /// A port's location is neither inside the arrays (virtual padding
    /// cube) nor exactly one step past them along its direction axis.
    PortLocationInvalid(usize),
    /// A port's Z basis direction is parallel to its pipe.
    PortZParallel(usize),
    /// Two ports share a pipe or a cube.
    PortOverlap(usize, usize),
    /// A stabilizer string's length differs from the port count.
    StabilizerLength(usize),
    /// Two stabilizer flows anticommute (inconsistent specification).
    StabilizersAnticommute(usize, usize),
    /// A forbidden cube is out of bounds.
    ForbiddenOutOfBounds(Coord),
    /// A forbidden cube collides with a port cube or port pipe.
    ForbiddenPortCollision(Coord),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyVolume => write!(f, "array extents must be positive"),
            SpecError::NoPorts => write!(f, "specification has no ports"),
            SpecError::PortCubeOutOfBounds(p) => {
                write!(f, "port {p}'s boundary cube is outside the arrays")
            }
            SpecError::PortLocationInvalid(p) => write!(f, "port {p}'s location is invalid"),
            SpecError::PortZParallel(p) => {
                write!(f, "port {p}'s z basis direction is parallel to its pipe")
            }
            SpecError::PortOverlap(a, b) => write!(f, "ports {a} and {b} overlap"),
            SpecError::StabilizerLength(s) => {
                write!(f, "stabilizer {s} has the wrong number of ports")
            }
            SpecError::StabilizersAnticommute(a, b) => {
                write!(f, "stabilizers {a} and {b} anticommute")
            }
            SpecError::ForbiddenOutOfBounds(c) => write!(f, "forbidden cube {c} out of bounds"),
            SpecError::ForbiddenPortCollision(c) => {
                write!(f, "forbidden cube {c} collides with a port")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl LasSpec {
    /// The variable-array bounds.
    pub fn bounds(&self) -> Bounds {
        Bounds::new(self.max_i, self.max_j, self.max_k)
    }

    /// Number of stabilizers.
    pub fn nstab(&self) -> usize {
        self.stabilizers.len()
    }

    /// The paper's scaling factor `V · nstab` (Table I), where `V` is
    /// the array volume including padding.
    pub fn v_nstab(&self) -> usize {
        self.bounds().volume() * self.nstab()
    }

    /// Map from port pipe `(coord, axis)` to port index.
    pub fn port_pipes(&self) -> HashMap<(Coord, Axis), usize> {
        self.ports
            .iter()
            .enumerate()
            .map(|(idx, p)| (p.pipe(), idx))
            .collect()
    }

    /// The set of virtual port cubes (port locations inside the arrays).
    pub fn virtual_cubes(&self) -> HashSet<Coord> {
        let b = self.bounds();
        self.ports
            .iter()
            .filter(|p| p.is_virtual(b))
            .map(|p| p.location)
            .collect()
    }

    /// Checks the specification for structural and functional
    /// consistency.
    ///
    /// # Errors
    ///
    /// Returns the first problem found; see [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.max_i == 0 || self.max_j == 0 || self.max_k == 0 {
            return Err(SpecError::EmptyVolume);
        }
        let bounds = self.bounds();
        if self.ports.is_empty() {
            return Err(SpecError::NoPorts);
        }
        for (idx, port) in self.ports.iter().enumerate() {
            if !bounds.contains(port.cube()) {
                return Err(SpecError::PortCubeOutOfBounds(idx));
            }
            if port.z_basis_direction == port.direction.axis {
                return Err(SpecError::PortZParallel(idx));
            }
            if !port.is_virtual(bounds) {
                // Must be exactly one past the array on the direction axis.
                let axis = port.direction.axis;
                let expected = match port.direction.sign {
                    Sign::Minus => bounds.get(axis) as i32,
                    Sign::Plus => -1,
                };
                let mut ok = port.location.get(axis) == expected && expected >= 0;
                // All other coordinates must be in range.
                for other in axis.others() {
                    let v = port.location.get(other);
                    ok &= (0..bounds.get(other) as i32).contains(&v);
                }
                if !ok {
                    return Err(SpecError::PortLocationInvalid(idx));
                }
            }
        }
        // Overlaps: distinct pipes, and virtual cubes distinct from any
        // other port's cube or location.
        let mut pipes = HashMap::new();
        for (idx, port) in self.ports.iter().enumerate() {
            if let Some(prev) = pipes.insert(port.pipe(), idx) {
                return Err(SpecError::PortOverlap(prev, idx));
            }
        }
        // Two ports may share an interior cube (a straight pass-through),
        // but a *virtual* location cube is exclusively the port's own:
        // another port's location or boundary cube there would clash with
        // the padding cube's no-fanout treatment.
        for (a, pa) in self.ports.iter().enumerate() {
            for (bi, pb) in self.ports.iter().enumerate().skip(a + 1) {
                let mut clash = pa.location == pb.location;
                if pa.is_virtual(bounds) {
                    clash |= pa.location == pb.cube();
                }
                if pb.is_virtual(bounds) {
                    clash |= pb.location == pa.cube();
                }
                if clash {
                    return Err(SpecError::PortOverlap(a, bi));
                }
            }
        }
        for (s, stab) in self.stabilizers.iter().enumerate() {
            if stab.len() != self.ports.len() {
                return Err(SpecError::StabilizerLength(s));
            }
        }
        for (a, sa) in self.stabilizers.iter().enumerate() {
            for (b, sb) in self.stabilizers.iter().enumerate().skip(a + 1) {
                if !sa.commutes_with(sb) {
                    return Err(SpecError::StabilizersAnticommute(a, b));
                }
            }
        }
        let port_cells: HashSet<Coord> = self
            .ports
            .iter()
            .flat_map(|p| [p.cube(), p.location])
            .filter(|c| bounds.contains(*c))
            .collect();
        for &c in &self.forbidden_cubes {
            if !bounds.contains(c) {
                return Err(SpecError::ForbiddenOutOfBounds(c));
            }
            if port_cells.contains(&c) {
                return Err(SpecError::ForbiddenPortCollision(c));
            }
        }
        Ok(())
    }

    /// Returns a copy with its time extent changed to `max_k` and all
    /// `-K`-direction port locations moved to the new top. This is the
    /// depth-search primitive of the optimizer (paper Fig. 12b).
    pub fn with_depth(&self, max_k: usize) -> LasSpec {
        let mut out = self.clone();
        let old_top = self.max_k as i32;
        out.max_k = max_k;
        for port in &mut out.ports {
            if port.direction.axis == Axis::K
                && port.direction.sign == Sign::Minus
                && port.location.k == old_top
            {
                port.location.k = max_k as i32;
            }
        }
        out.forbidden_cubes.retain(|c| c.k < max_k as i32);
        out
    }

    /// Returns a copy with ports permuted by `perm` (stabilizer columns
    /// are permuted to match), for the port-order exploration of paper
    /// Sec. IV.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..ports.len()`.
    pub fn with_port_order(&self, perm: &[usize]) -> LasSpec {
        assert_eq!(perm.len(), self.ports.len(), "permutation length mismatch");
        let mut sorted: Vec<usize> = perm.to_vec();
        sorted.sort_unstable();
        assert!(
            sorted.iter().enumerate().all(|(i, &p)| i == p),
            "not a permutation"
        );
        let mut out = self.clone();
        // Port i of the new spec takes the *geometry* of port i but the
        // *stabilizer column* of perm[i]: i.e. we reassign which logical
        // port sits at which physical location.
        out.stabilizers = self
            .stabilizers
            .iter()
            .map(|s| {
                let mut ns = PauliString::identity(s.len()).with_phase(s.phase());
                for (i, &p) in perm.iter().enumerate() {
                    ns.set(i, s.get(p));
                }
                ns
            })
            .collect();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::cnot_spec;
    use crate::geom::Dir;

    #[test]
    fn cnot_spec_is_valid() {
        assert_eq!(cnot_spec().validate(), Ok(()));
        assert_eq!(cnot_spec().v_nstab(), 12 * 4);
    }

    #[test]
    fn rejects_empty_ports() {
        let mut s = cnot_spec();
        s.ports.clear();
        s.stabilizers.clear();
        assert_eq!(s.validate(), Err(SpecError::NoPorts));
    }

    /// A zero extent is reported before anything builds the bounds,
    /// which would panic on it.
    #[test]
    fn rejects_zero_extents() {
        for extent in 0..3 {
            let mut s = cnot_spec();
            *[&mut s.max_i, &mut s.max_j, &mut s.max_k][extent] = 0;
            assert_eq!(s.validate(), Err(SpecError::EmptyVolume));
        }
    }

    #[test]
    fn rejects_bad_stabilizer_length() {
        let mut s = cnot_spec();
        s.stabilizers[1] = "ZZ".parse().unwrap();
        assert_eq!(s.validate(), Err(SpecError::StabilizerLength(1)));
    }

    #[test]
    fn rejects_anticommuting_flows() {
        let mut s = cnot_spec();
        s.stabilizers = vec!["X...".parse().unwrap(), "Z...".parse().unwrap()];
        assert_eq!(s.validate(), Err(SpecError::StabilizersAnticommute(0, 1)));
    }

    #[test]
    fn rejects_parallel_z_dir() {
        let mut s = cnot_spec();
        s.ports[0].z_basis_direction = Axis::K;
        assert_eq!(s.validate(), Err(SpecError::PortZParallel(0)));
    }

    #[test]
    fn rejects_overlapping_ports() {
        let mut s = cnot_spec();
        s.ports[1] = s.ports[0];
        assert!(matches!(s.validate(), Err(SpecError::PortOverlap(0, 1))));
    }

    #[test]
    fn rejects_out_of_range_location() {
        let mut s = cnot_spec();
        s.ports[2] = Port::new(Coord::new(0, 1, 4), Dir::parse("-K").unwrap(), Axis::J);
        assert!(matches!(
            s.validate(),
            Err(SpecError::PortCubeOutOfBounds(2) | SpecError::PortLocationInvalid(2))
        ));
    }

    #[test]
    fn with_depth_moves_top_ports() {
        let deeper = cnot_spec().with_depth(4);
        assert_eq!(deeper.max_k, 4);
        assert_eq!(deeper.ports[2].location.k, 4);
        assert_eq!(deeper.ports[0].location.k, 0);
        assert!(deeper.validate().is_ok());
    }

    #[test]
    fn with_port_order_permutes_stabilizer_columns() {
        let s = cnot_spec();
        let p = s.with_port_order(&[1, 0, 2, 3]);
        assert_eq!(p.stabilizers[0].to_string(), ".ZZ.");
        assert!(p.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn with_port_order_rejects_non_permutation() {
        cnot_spec().with_port_order(&[0, 0, 2, 3]);
    }

    #[test]
    fn json_roundtrip() {
        let s = cnot_spec();
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: LasSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    /// The compact CNOT spec with `edit` applied to its text.
    fn edited_cnot_json(edit: (&str, &str)) -> String {
        let text = serde_json::to_string(&cnot_spec()).unwrap();
        let edited = text.replacen(edit.0, edit.1, 1);
        assert_ne!(edited, text, "{edit:?}");
        edited
    }

    #[test]
    fn malformed_json_names_the_problem() {
        let cases = [
            (
                edited_cnot_json(("\"ports\"", "\"portz\"")),
                "missing field `ports`",
            ),
            (
                edited_cnot_json(("\"+K\"", "\"+Q\"")),
                "invalid direction \"+Q\"",
            ),
            (
                edited_cnot_json(("\"max_i\":2", "\"max_i\":\"2\"")),
                "invalid type: expected an integer, found a string",
            ),
            (
                edited_cnot_json(("[0,1,0]", "[0,1]")),
                "expected an array of length 3, found 2",
            ),
            ("{\"name\": \"x\",".to_string(), "expected '\"' at byte 13"),
        ];
        for (text, message) in cases {
            let err = serde_json::from_str::<LasSpec>(&text).unwrap_err();
            assert_eq!(err.to_string(), message, "{text}");
        }
    }

    #[test]
    fn unknown_keys_are_ignored_and_omitted_fields_default() {
        let text = edited_cnot_json((
            ",\"forbidden_cubes\":[[0,0,0],[1,1,0]],\"allow_y_cubes\":true}",
            ",\"comment\":\"a note\"}",
        ));
        let spec: LasSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(spec.forbidden_cubes, []);
        assert!(spec.allow_y_cubes);
        assert_eq!(spec.ports, cnot_spec().ports);
    }
}
