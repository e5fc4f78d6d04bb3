//! Ports of a lattice-surgery subroutine.

use crate::geom::{orientation_for_blue_normal, Axis, Bounds, Coord, Dir, Sign};
use serde_json::{json, Error, Fields, FromJson, ToJson, Value};

/// A port: where a LaS connects to the outside world (paper Fig. 2b).
///
/// * `location` is the grid point just outside the volume that the
///   port's pipe connects to. Because the paper's convention forbids
///   `-1` indices, ports entering along a `+` direction place their
///   `location` on a *padding cube inside* the variable arrays (a
///   "virtual" outside point); ports entering along a `-` direction
///   have `location` one past the array on that axis.
/// * `direction` points from `location` into the volume.
/// * `z_basis_direction` is the axis perpendicular to which the port's
///   blue (Z-type) boundary lies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Port {
    /// The outside grid point the port connects to.
    pub location: Coord,
    /// Direction from `location` into the volume.
    pub direction: Dir,
    /// Axis normal to the port's blue (Z) boundary faces.
    pub z_basis_direction: Axis,
}

impl ToJson for Port {
    fn to_json(&self) -> Value {
        json!({
            "location": self.location.to_json(),
            "direction": self.direction.to_json(),
            "z_basis_direction": self.z_basis_direction.to_json(),
        })
    }
}

impl FromJson for Port {
    fn from_json(v: Value) -> Result<Self, Error> {
        let mut fields = Fields::of(v, "Port")?;
        Ok(Port {
            location: fields.take("location")?,
            direction: fields.take("direction")?,
            z_basis_direction: fields.take("z_basis_direction")?,
        })
    }
}

impl Port {
    /// Builds a port.
    pub fn new(location: Coord, direction: Dir, z_basis_direction: Axis) -> Port {
        Port {
            location,
            direction,
            z_basis_direction,
        }
    }

    /// Convenience constructor from raw parts, parsing the direction.
    ///
    /// # Panics
    ///
    /// Panics if `dir` does not parse.
    #[expect(clippy::expect_used, reason = "documented panic on a bad direction")]
    pub fn parse(i: i32, j: i32, k: i32, dir: &str, z: Axis) -> Port {
        Port::new(
            Coord::new(i, j, k),
            Dir::parse(dir).expect("valid direction"),
            z,
        )
    }

    /// The boundary cube inside the volume that this port attaches to.
    pub fn cube(&self) -> Coord {
        self.location.shifted(self.direction)
    }

    /// The `Exist` pipe variable representing this port's pipe: the
    /// coordinate that indexes `Exist{axis}` (the lower endpoint of the
    /// pipe along its axis) and the axis.
    pub fn pipe(&self) -> (Coord, Axis) {
        let base = match self.direction.sign {
            Sign::Plus => self.location,
            Sign::Minus => self.cube(),
        };
        (base, self.direction.axis)
    }

    /// Whether the port's `location` sits inside the variable arrays
    /// (a padding cube, the paper's bottom-port convention).
    pub fn is_virtual(&self, bounds: Bounds) -> bool {
        bounds.contains(self.location)
    }

    /// The color orientation of the port's pipe implied by
    /// `z_basis_direction` (see [`crate::geom::red_normal_axis`]).
    ///
    /// # Panics
    ///
    /// Panics if `z_basis_direction` is parallel to the pipe.
    pub fn color_orientation(&self) -> bool {
        orientation_for_blue_normal(self.direction.axis, self.z_basis_direction)
    }

    /// The axis normal to the red (X-type) faces of the port's pipe.
    pub fn x_basis_direction(&self) -> Axis {
        self.direction.axis.third(self.z_basis_direction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_port_pipe_is_below_location() {
        // Paper Fig. 2: port at (1,0,3), direction -K, inside a 2×2 volume
        // with arrays max_k = 3.
        let p = Port::parse(1, 0, 3, "-K", Axis::J);
        assert_eq!(p.cube(), Coord::new(1, 0, 2));
        assert_eq!(p.pipe(), (Coord::new(1, 0, 2), Axis::K));
        assert!(!p.is_virtual(Bounds::new(2, 2, 3)));
    }

    #[test]
    fn bottom_port_pipe_is_at_location() {
        // Paper Fig. 10: port 0 at (0,1,0) entering upward; its pipe is
        // ExistK[0,1,0] from the padding cube (0,1,0) to (0,1,1).
        let p = Port::parse(0, 1, 0, "+K", Axis::J);
        assert_eq!(p.cube(), Coord::new(0, 1, 1));
        assert_eq!(p.pipe(), (Coord::new(0, 1, 0), Axis::K));
        assert!(p.is_virtual(Bounds::new(2, 2, 3)));
    }

    #[test]
    fn side_port_pipe() {
        let p = Port::parse(3, 1, 1, "-I", Axis::K);
        assert_eq!(p.cube(), Coord::new(2, 1, 1));
        assert_eq!(p.pipe(), (Coord::new(2, 1, 1), Axis::I));
    }

    #[test]
    fn color_orientation_matches_z_dir() {
        use crate::geom::blue_normal_axis;
        let p = Port::parse(1, 0, 3, "-K", Axis::J);
        let o = p.color_orientation();
        assert_eq!(blue_normal_axis(Axis::K, o), Axis::J);
        assert_eq!(p.x_basis_direction(), Axis::I);
    }

    #[test]
    fn serde_roundtrip() {
        let p = Port::parse(1, 0, 3, "-K", Axis::J);
        let json = serde_json::to_string(&p).unwrap();
        let back: Port = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
