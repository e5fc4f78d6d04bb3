//! Axes, directions, coordinates and bounds for the 3D spacetime.
//!
//! Following the paper (Sec. III), `I` and `J` are the two spatial axes
//! of the tile grid and `K` is time. One unit of `K` is one layer of
//! operations plus `d` rounds of error correction.

use serde_json::{Error, FromJson, ToJson, Value};
use std::fmt;

/// One of the three spacetime axes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Axis {
    /// First spatial axis.
    I,
    /// Second spatial axis.
    J,
    /// The time axis.
    K,
}

impl Axis {
    /// All axes, in `I, J, K` order.
    pub const ALL: [Axis; 3] = [Axis::I, Axis::J, Axis::K];

    /// Index 0, 1, 2 for I, J, K.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Axis::I => 0,
            Axis::J => 1,
            Axis::K => 2,
        }
    }

    /// The other two axes, in canonical order.
    ///
    /// ```
    /// use lasre::Axis;
    /// assert_eq!(Axis::J.others(), [Axis::I, Axis::K]);
    /// ```
    pub fn others(self) -> [Axis; 2] {
        match self {
            Axis::I => [Axis::J, Axis::K],
            Axis::J => [Axis::I, Axis::K],
            Axis::K => [Axis::I, Axis::J],
        }
    }

    /// The axis that is neither `self` nor `other`.
    ///
    /// # Panics
    ///
    /// Panics if `self == other`.
    #[expect(clippy::expect_used, reason = "distinct axes leave exactly one third")]
    pub fn third(self, other: Axis) -> Axis {
        assert_ne!(self, other, "no third axis for equal axes");
        *Axis::ALL
            .iter()
            .find(|&&a| a != self && a != other)
            .expect("three axes")
    }

    /// Parses `"I"`, `"J"` or `"K"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Axis> {
        match s.trim() {
            "I" | "i" => Some(Axis::I),
            "J" | "j" => Some(Axis::J),
            "K" | "k" => Some(Axis::K),
            _ => None,
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Axis::I => "I",
            Axis::J => "J",
            Axis::K => "K",
        })
    }
}

impl ToJson for Axis {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl FromJson for Axis {
    fn from_json(v: Value) -> Result<Self, Error> {
        let s = String::from_json(v)?;
        Axis::parse(&s).ok_or_else(|| Error::custom(format!("invalid axis {s:?}")))
    }
}

/// Orientation along an axis.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sign {
    /// Toward increasing coordinates.
    Plus,
    /// Toward decreasing coordinates.
    Minus,
}

impl Sign {
    /// `+1` or `-1`.
    #[inline]
    pub fn offset(self) -> i32 {
        match self {
            Sign::Plus => 1,
            Sign::Minus => -1,
        }
    }
}

/// A signed axis direction, e.g. the `-K` of a port that enters its
/// volume downward (paper Fig. 2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Dir {
    /// The axis of the direction.
    pub axis: Axis,
    /// The orientation along that axis.
    pub sign: Sign,
}

impl Dir {
    /// Builds a direction.
    pub fn new(sign: Sign, axis: Axis) -> Dir {
        Dir { axis, sign }
    }

    /// Parses `"+K"`, `"-I"`, … (a bare axis means `+`).
    pub fn parse(s: &str) -> Option<Dir> {
        let s = s.trim();
        let (sign, rest) = if let Some(r) = s.strip_prefix('-') {
            (Sign::Minus, r)
        } else if let Some(r) = s.strip_prefix('+') {
            (Sign::Plus, r)
        } else {
            (Sign::Plus, s)
        };
        Some(Dir {
            axis: Axis::parse(rest)?,
            sign,
        })
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = match self.sign {
            Sign::Plus => "+",
            Sign::Minus => "-",
        };
        write!(f, "{sign}{}", self.axis)
    }
}

impl ToJson for Dir {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl FromJson for Dir {
    fn from_json(v: Value) -> Result<Self, Error> {
        let s = String::from_json(v)?;
        Dir::parse(&s).ok_or_else(|| Error::custom(format!("invalid direction {s:?}")))
    }
}

/// A 3D grid point. Port locations may have coordinates equal to the
/// bounds (just outside the volume); cube coordinates are within bounds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Coord {
    /// I coordinate.
    pub i: i32,
    /// J coordinate.
    pub j: i32,
    /// K (time) coordinate.
    pub k: i32,
}

impl Coord {
    /// Builds a coordinate.
    pub const fn new(i: i32, j: i32, k: i32) -> Coord {
        Coord { i, j, k }
    }

    /// The component along `axis`.
    #[inline]
    pub fn get(self, axis: Axis) -> i32 {
        match axis {
            Axis::I => self.i,
            Axis::J => self.j,
            Axis::K => self.k,
        }
    }

    /// Replaces the component along `axis`.
    pub fn with(mut self, axis: Axis, value: i32) -> Coord {
        match axis {
            Axis::I => self.i = value,
            Axis::J => self.j = value,
            Axis::K => self.k = value,
        }
        self
    }

    /// The neighbor one step along `dir`.
    pub fn shifted(self, dir: Dir) -> Coord {
        let v = self.get(dir.axis) + dir.sign.offset();
        self.with(dir.axis, v)
    }

    /// The neighbor one step toward `+axis`.
    pub fn next(self, axis: Axis) -> Coord {
        self.shifted(Dir::new(Sign::Plus, axis))
    }

    /// The neighbor one step toward `-axis`.
    pub fn prev(self, axis: Axis) -> Coord {
        self.shifted(Dir::new(Sign::Minus, axis))
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.i, self.j, self.k)
    }
}

/// The JSON form is `[i, j, k]`.
impl ToJson for Coord {
    fn to_json(&self) -> Value {
        [self.i, self.j, self.k].to_json()
    }
}

impl FromJson for Coord {
    fn from_json(v: Value) -> Result<Self, Error> {
        let [i, j, k] = <[i32; 3]>::from_json(v)?;
        Ok(Coord { i, j, k })
    }
}

/// The allowed variable-array dimensions `(max_i, max_j, max_k)` of a
/// LaS specification.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Bounds {
    /// Extent along I.
    pub max_i: usize,
    /// Extent along J.
    pub max_j: usize,
    /// Extent along K.
    pub max_k: usize,
}

impl Bounds {
    /// Builds bounds.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn new(max_i: usize, max_j: usize, max_k: usize) -> Bounds {
        assert!(
            max_i > 0 && max_j > 0 && max_k > 0,
            "bounds must be positive"
        );
        Bounds {
            max_i,
            max_j,
            max_k,
        }
    }

    /// The extent along `axis`.
    pub fn get(self, axis: Axis) -> usize {
        match axis {
            Axis::I => self.max_i,
            Axis::J => self.max_j,
            Axis::K => self.max_k,
        }
    }

    /// Number of cubes (`max_i · max_j · max_k`).
    pub fn volume(self) -> usize {
        self.max_i * self.max_j * self.max_k
    }

    /// Whether `c` is a cube inside the bounds.
    pub fn contains(self, c: Coord) -> bool {
        (0..self.max_i as i32).contains(&c.i)
            && (0..self.max_j as i32).contains(&c.j)
            && (0..self.max_k as i32).contains(&c.k)
    }

    /// Dense index of a cube, row-major in `(i, j, k)`.
    ///
    /// # Panics
    ///
    /// Panics if the cube is out of bounds.
    pub fn index(self, c: Coord) -> usize {
        assert!(self.contains(c), "coordinate {c} outside bounds {self:?}");
        (c.i as usize * self.max_j + c.j as usize) * self.max_k + c.k as usize
    }

    /// Iterates over all cubes in index order.
    pub fn iter(self) -> impl Iterator<Item = Coord> {
        (0..self.max_i as i32).flat_map(move |i| {
            (0..self.max_j as i32)
                .flat_map(move |j| (0..self.max_k as i32).map(move |k| Coord::new(i, j, k)))
        })
    }
}

/// The axis whose faces are red (X-type) for a pipe along `pipe_axis`
/// with color orientation `orientation`.
///
/// This is the fixed color convention the encoder and the validity
/// check share:
///
/// | pipe axis | orientation = false | orientation = true |
/// |-----------|---------------------|--------------------|
/// | I         | red faces normal K  | red faces normal J |
/// | J         | red faces normal K  | red faces normal I |
/// | K         | red faces normal I  | red faces normal J |
///
/// The complementary (blue, Z-type) faces are normal to the remaining
/// axis.
pub fn red_normal_axis(pipe_axis: Axis, orientation: bool) -> Axis {
    match (pipe_axis, orientation) {
        (Axis::I, false) => Axis::K,
        (Axis::I, true) => Axis::J,
        (Axis::J, false) => Axis::K,
        (Axis::J, true) => Axis::I,
        (Axis::K, false) => Axis::I,
        (Axis::K, true) => Axis::J,
    }
}

/// The axis whose faces are blue (Z-type); complement of
/// [`red_normal_axis`].
pub fn blue_normal_axis(pipe_axis: Axis, orientation: bool) -> Axis {
    pipe_axis.third(red_normal_axis(pipe_axis, orientation))
}

/// The orientation value for a pipe along `pipe_axis` whose blue faces
/// are normal to `z_axis` (used to pin port pipe colors from
/// `z_basis_direction`).
///
/// # Panics
///
/// Panics if `z_axis == pipe_axis` (a pipe has no faces normal to its
/// own axis).
pub fn orientation_for_blue_normal(pipe_axis: Axis, z_axis: Axis) -> bool {
    assert_ne!(
        z_axis, pipe_axis,
        "z basis direction must be perpendicular to the pipe"
    );
    let o = blue_normal_axis(pipe_axis, false) == z_axis;
    // If blue-normal at orientation=false equals z_axis, orientation is false.
    !o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_others_and_third() {
        assert_eq!(Axis::I.others(), [Axis::J, Axis::K]);
        assert_eq!(Axis::K.third(Axis::I), Axis::J);
        assert_eq!(Axis::I.third(Axis::J), Axis::K);
    }

    #[test]
    fn dir_parse_display_roundtrip() {
        for s in ["+I", "-J", "+K", "-K"] {
            let d = Dir::parse(s).unwrap();
            assert_eq!(d.to_string(), s);
        }
        assert_eq!(Dir::parse("K").unwrap().sign, Sign::Plus);
        assert!(Dir::parse("Q").is_none());
    }

    #[test]
    fn coord_shifting() {
        let c = Coord::new(1, 2, 3);
        assert_eq!(c.shifted(Dir::parse("-K").unwrap()), Coord::new(1, 2, 2));
        assert_eq!(c.next(Axis::I), Coord::new(2, 2, 3));
        assert_eq!(c.prev(Axis::J), Coord::new(1, 1, 3));
    }

    #[test]
    fn bounds_contains_and_index() {
        let b = Bounds::new(2, 3, 4);
        assert_eq!(b.volume(), 24);
        assert!(b.contains(Coord::new(1, 2, 3)));
        assert!(!b.contains(Coord::new(2, 0, 0)));
        assert!(!b.contains(Coord::new(-1, 0, 0)));
        let mut seen = std::collections::HashSet::new();
        for c in b.iter() {
            assert!(seen.insert(b.index(c)));
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn color_convention_consistency() {
        for axis in Axis::ALL {
            for o in [false, true] {
                let red = red_normal_axis(axis, o);
                let blue = blue_normal_axis(axis, o);
                assert_ne!(red, blue);
                assert_ne!(red, axis);
                assert_ne!(blue, axis);
            }
        }
    }

    #[test]
    fn orientation_from_z_dir_roundtrip() {
        for axis in Axis::ALL {
            for z in axis.others() {
                let o = orientation_for_blue_normal(axis, z);
                assert_eq!(blue_normal_axis(axis, o), z);
            }
        }
    }

    #[test]
    fn serde_forms() {
        let c = Coord::new(1, 0, 3);
        assert_eq!(serde_json::to_string(&c).unwrap(), "[1,0,3]");
        let d = Dir::parse("-K").unwrap();
        assert_eq!(serde_json::to_string(&d).unwrap(), "\"-K\"");
        let a: Axis = serde_json::from_str("\"J\"").unwrap();
        assert_eq!(a, Axis::J);
    }

    #[test]
    fn turn_color_matching_example() {
        // An I-pipe with red on K-normal faces (o=false) meeting a J-pipe:
        // the J-pipe must also have red K-normal faces, i.e. o=false.
        assert_eq!(
            red_normal_axis(Axis::I, false),
            red_normal_axis(Axis::J, false)
        );
    }
}
