//! Solved LaS designs (the textual "LaSre" output of the paper).

use crate::geom::{red_normal_axis, Axis, Bounds, Coord, Sign};
use crate::spec::LasSpec;
use crate::vars::{CorrKind, StructVar, VarTable};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// A reference to a pipe: the lower endpoint cube along the pipe's axis,
/// plus the axis. `Exist{axis}[base]` is the corresponding variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PipeRef {
    /// Lower endpoint (the cube the pipe leaves toward `+axis`).
    pub base: Coord,
    /// The pipe's axis.
    pub axis: Axis,
}

impl PipeRef {
    /// Builds a pipe reference.
    pub fn new(base: Coord, axis: Axis) -> PipeRef {
        PipeRef { base, axis }
    }

    /// The two endpoints (the upper one may be outside the arrays for
    /// port pipes that exit on a `+` face).
    pub fn endpoints(self) -> (Coord, Coord) {
        (self.base, self.base.next(self.axis))
    }
}

/// Classification of a cube in a solved design, used by the ZX
/// extraction, visualization and the validity checker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CubeKind {
    /// No pipes touch the cube.
    Empty,
    /// A virtual port location (padding cube standing for the outside).
    Port(usize),
    /// A Y-basis initialization/measurement cube.
    Y,
    /// Pipes along a single axis: a straight wire segment or a terminal.
    Straight {
        /// The axis of the incident pipe(s).
        axis: Axis,
        /// Number of incident pipes (1 = terminal, 2 = passthrough).
        degree: usize,
    },
    /// Pipes along exactly two axes: a turn, T- or cross-junction lying
    /// in the plane of those axes.
    Junction {
        /// The normal axis (no pipes along it).
        normal: Axis,
        /// Whether the faces normal to `normal` are red (X-type); red
        /// junctions are X-spiders, blue ones Z-spiders (paper Sec. II-D).
        red: bool,
        /// Number of incident pipes (2–4).
        degree: usize,
    },
    /// Pipes along all three axes: a forbidden 3D corner.
    Invalid,
}

/// A solved lattice-surgery subroutine: the spec plus a full variable
/// assignment.
///
/// Constructed by the synthesizer's decoder (or by hand, to check
/// existing human designs). Post-processing: [`LasDesign::prune`], and
/// [`LasDesign::k_colors`] for the K-pipe colors and domain walls.
#[derive(Clone, Debug, PartialEq)]
pub struct LasDesign {
    spec: LasSpec,
    table: VarTable,
    values: Vec<bool>,
    /// Whether ZX verification succeeded (set by the synthesizer).
    verified: bool,
}

impl LasDesign {
    /// Wraps a raw variable assignment.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the spec's variable count.
    pub fn new(spec: LasSpec, values: Vec<bool>) -> LasDesign {
        let table = VarTable::new(spec.bounds(), spec.nstab());
        assert_eq!(
            values.len(),
            table.num_total(),
            "assignment length mismatch"
        );
        LasDesign {
            spec,
            table,
            values,
            verified: false,
        }
    }

    /// The specification this design satisfies.
    pub fn spec(&self) -> &LasSpec {
        &self.spec
    }

    /// The variable table (shared layout with the encoder).
    pub fn table(&self) -> &VarTable {
        &self.table
    }

    /// The bounds of the variable arrays.
    pub fn bounds(&self) -> Bounds {
        self.spec.bounds()
    }

    /// Whether ZX verification has confirmed this design.
    pub fn verified(&self) -> bool {
        self.verified
    }

    /// Records the verification result (used by the synthesizer).
    pub fn set_verified(&mut self, v: bool) {
        self.verified = v;
    }

    /// Whether the cube at `c` is a Y cube (`false` out of bounds).
    pub fn is_y(&self, c: Coord) -> bool {
        self.bounds().contains(c) && self.values[self.table.structural(StructVar::YCube(c))]
    }

    /// Whether a pipe exists from `c` toward `+axis` (`false` out of bounds).
    pub fn has_pipe(&self, axis: Axis, c: Coord) -> bool {
        self.bounds().contains(c) && self.values[self.table.structural(StructVar::Exist(axis, c))]
    }

    /// The color orientation of an existing I or J pipe.
    ///
    /// # Panics
    ///
    /// Panics for K pipes (use [`LasDesign::k_colors`]) or out-of-bounds
    /// coordinates.
    pub fn color(&self, axis: Axis, c: Coord) -> bool {
        self.values[self.table.structural(StructVar::Color(axis, c))]
    }

    /// The correlation-surface bit for stabilizer `s` in the pipe at `c`.
    pub fn corr(&self, s: usize, kind: CorrKind, c: Coord) -> bool {
        self.values[self.table.corr(s, kind, c)]
    }

    /// All existing pipes (including port pipes).
    pub fn pipes(&self) -> Vec<PipeRef> {
        let mut out = Vec::new();
        for c in self.bounds().iter() {
            for axis in Axis::ALL {
                if self.has_pipe(axis, c) {
                    out.push(PipeRef::new(c, axis));
                }
            }
        }
        out
    }

    /// The pipes incident to cube `c`, as (pipe, sign) where sign is the
    /// side of `c` the pipe leaves from (`Plus` = toward `+axis`).
    pub fn incident_pipes(&self, c: Coord) -> Vec<(PipeRef, Sign)> {
        let mut out = Vec::new();
        for axis in Axis::ALL {
            if self.has_pipe(axis, c) {
                out.push((PipeRef::new(c, axis), Sign::Plus));
            }
            let p = c.prev(axis);
            if self.has_pipe(axis, p) {
                out.push((PipeRef::new(p, axis), Sign::Minus));
            }
        }
        out
    }

    /// Number of pipes incident to `c`.
    pub fn degree(&self, c: Coord) -> usize {
        self.incident_pipes(c).len()
    }

    /// The axes along which `c` has at least one incident pipe.
    pub fn occupied_axes(&self, c: Coord) -> Vec<Axis> {
        Axis::ALL
            .into_iter()
            .filter(|&a| self.has_pipe(a, c) || self.has_pipe(a, c.prev(a)))
            .collect()
    }

    /// Classifies the cube at `c` (see [`CubeKind`]).
    pub fn classify(&self, c: Coord) -> CubeKind {
        if let Some(idx) = self
            .spec
            .ports
            .iter()
            .position(|p| p.is_virtual(self.bounds()) && p.location == c)
        {
            return CubeKind::Port(idx);
        }
        if self.is_y(c) {
            return CubeKind::Y;
        }
        let axes = self.occupied_axes(c);
        let degree = self.degree(c);
        match axes.len() {
            0 => CubeKind::Empty,
            1 => CubeKind::Straight {
                axis: axes[0],
                degree,
            },
            2 => {
                let normal = axes[0].third(axes[1]);
                // Read the face color normal to `normal` from a
                // horizontal incident pipe (color matching makes any
                // choice consistent).
                let red = self
                    .incident_pipes(c)
                    .iter()
                    .filter(|(p, _)| p.axis != Axis::K)
                    .map(|(p, _)| red_normal_axis(p.axis, self.color(p.axis, p.base)) == normal)
                    .next()
                    .unwrap_or(false);
                CubeKind::Junction {
                    normal,
                    red,
                    degree,
                }
            }
            _ => CubeKind::Invalid,
        }
    }

    /// Removes structures not connected to any port (the paper's pruning
    /// of "pipe donuts"). Returns the number of pipes removed.
    pub fn prune(&mut self) -> usize {
        let bounds = self.bounds();
        let mut reachable: HashSet<Coord> = HashSet::new();
        let mut queue: VecDeque<Coord> = VecDeque::new();
        for port in &self.spec.ports {
            let cube = port.cube();
            if reachable.insert(cube) {
                queue.push_back(cube);
            }
            if bounds.contains(port.location) && reachable.insert(port.location) {
                queue.push_back(port.location);
            }
        }
        while let Some(c) = queue.pop_front() {
            for (pipe, sign) in self.incident_pipes(c) {
                let other = match sign {
                    Sign::Plus => pipe.base.next(pipe.axis),
                    Sign::Minus => pipe.base,
                };
                if bounds.contains(other) && reachable.insert(other) {
                    queue.push_back(other);
                }
            }
        }
        let mut removed = 0;
        for c in bounds.iter() {
            if reachable.contains(&c) {
                continue;
            }
            let y = self.table.structural(StructVar::YCube(c));
            self.values[y] = false;
            for axis in Axis::ALL {
                let e = self.table.structural(StructVar::Exist(axis, c));
                if self.values[e] {
                    // Both endpoints unreachable (reachability is closed
                    // under pipes), so dropping the pipe is safe.
                    self.values[e] = false;
                    removed += 1;
                }
            }
        }
        removed
    }

    /// The `(lower, upper)` color orientation of each K pipe's two ends,
    /// keyed by the pipe's base cube (paper Sec. IV, post-processing). A
    /// pipe whose ends differ carries a domain wall.
    ///
    /// A port pipe's outer end takes the port's color; any other end
    /// takes the color the horizontal pipes at its cube force. The two
    /// ends meeting at a cube with only K pipes through it share one. An
    /// end still free copies the other end of its pipe (pipes in
    /// [`Bounds::iter`] order, until nothing changes), and what stays
    /// free defaults to `false`.
    ///
    /// # Errors
    ///
    /// Returns the cube where two of those constraints disagree, which
    /// no design passing [`check_validity`](crate::check_validity)'s
    /// other rules has.
    pub fn k_colors(&self) -> Result<BTreeMap<Coord, (bool, bool)>, Coord> {
        // An end is keyed by its cube and whether it is the upper end of
        // its pipe; the two ends at a K-only pass-through cube share a key.
        let key = |cube: Coord, upper: bool| {
            let through = !self.is_y(cube)
                && self.has_pipe(Axis::K, cube)
                && self.has_pipe(Axis::K, cube.prev(Axis::K))
                && self.occupied_axes(cube) == [Axis::K];
            (cube, upper && !through)
        };
        let pipes: Vec<_> = self
            .bounds()
            .iter()
            .filter(|&c| self.has_pipe(Axis::K, c))
            .map(|base| (base, key(base, false), key(base.next(Axis::K), true)))
            .collect();
        let mut value: HashMap<(Coord, bool), bool> = HashMap::new();
        let port_pipes = self.spec.port_pipes();
        for &(base, lo, hi) in &pipes {
            for (end, upper) in [(lo, false), (hi, true)] {
                let mut fix = |o: bool| match value.insert(end, o) {
                    Some(prev) if prev != o => Err(end.0),
                    _ => Ok(()),
                };
                if let Some(&p) = port_pipes.get(&(base, Axis::K)) {
                    let port = self.spec.ports[p];
                    if upper == (port.direction.sign == Sign::Minus) {
                        fix(port.color_orientation())?;
                        continue;
                    }
                }
                for (p, _) in self.incident_pipes(end.0) {
                    if p.axis != Axis::K {
                        // The K orientation whose faces normal to `n`
                        // match the horizontal pipe's.
                        let n = Axis::K.third(p.axis);
                        let red = red_normal_axis(p.axis, self.color(p.axis, p.base)) == n;
                        fix((red_normal_axis(Axis::K, true) == n) == red)?;
                    }
                }
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for &(_, lo, hi) in &pipes {
                let copy = match (value.get(&lo), value.get(&hi)) {
                    (Some(&v), None) => Some((hi, v)),
                    (None, Some(&v)) => Some((lo, v)),
                    _ => None,
                };
                if let Some((end, v)) = copy {
                    value.insert(end, v);
                    changed = true;
                }
            }
        }
        Ok(pipes
            .into_iter()
            .map(|(base, lo, hi)| {
                let lo = value.get(&lo).copied().unwrap_or(false);
                (base, (lo, value.get(&hi).copied().unwrap_or(lo)))
            })
            .collect())
    }

    /// The cubes carrying any structure.
    pub fn used_cubes(&self) -> Vec<Coord> {
        self.bounds()
            .iter()
            .filter(|&c| self.degree(c) > 0 || self.is_y(c))
            .collect()
    }

    /// Raw access to the assignment (for serialization).
    pub fn values(&self) -> &[bool] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::cnot_design;

    #[test]
    fn cnot_design_pipe_census() {
        let d = cnot_design();
        // Fig. 8: one I pipe, one J pipe, and eight K pipes (two port
        // pipes at the bottom, two exiting at the top, four interior).
        let pipes = d.pipes();
        let count = |axis: Axis| pipes.iter().filter(|p| p.axis == axis).count();
        assert_eq!(count(Axis::I), 1);
        assert_eq!(count(Axis::J), 1);
        assert_eq!(count(Axis::K), 7);
    }

    #[test]
    fn cnot_design_degrees() {
        let d = cnot_design();
        // The junction cube (0,1,2) has pipes: K below, K above (port),
        // and the I pipe: a T in the I-K plane.
        assert_eq!(d.degree(Coord::new(0, 1, 2)), 3);
        assert_eq!(
            d.classify(Coord::new(0, 1, 2)),
            // The ZZ merge junction is blue (a Z-spider).
            CubeKind::Junction {
                normal: Axis::J,
                red: false,
                degree: 3
            }
        );
        // (1,1,2) is a turn: I pipe from the left, K pipe below.
        assert_eq!(d.degree(Coord::new(1, 1, 2)), 2);
        // Virtual port cubes at the bottom layer.
        assert_eq!(d.classify(Coord::new(0, 1, 0)), CubeKind::Port(0));
        // Forbidden padding cube is empty.
        assert_eq!(d.classify(Coord::new(0, 0, 0)), CubeKind::Empty);
    }

    #[test]
    fn prune_removes_disconnected_donut() {
        let mut d = cnot_design();
        // Manually add an isolated vertical pipe at (0,0,1)-(0,0,2).
        let e = d
            .table
            .structural(StructVar::Exist(Axis::K, Coord::new(0, 0, 1)));
        d.values[e] = true;
        assert_eq!(d.prune(), 1);
        assert!(!d.has_pipe(Axis::K, Coord::new(0, 0, 1)));
        // The real structure is untouched.
        assert!(d.has_pipe(Axis::I, Coord::new(0, 1, 2)));
    }

    #[test]
    fn k_color_inference_no_walls_needed_for_cnot() {
        let d = cnot_design();
        let colors = d.k_colors().unwrap();
        // All ports share z_basis_direction = J, and the single I/J pipes
        // are color-consistent, so no domain wall should appear.
        assert!(colors.values().all(|(lo, hi)| lo == hi), "{colors:?}");
        // Every K pipe has a color.
        let k_pipes = d.pipes().into_iter().filter(|p| p.axis == Axis::K);
        assert!(k_pipes.map(|p| p.base).eq(colors.keys().copied()));
    }

    #[test]
    fn incident_pipes_signs() {
        let d = cnot_design();
        let inc = d.incident_pipes(Coord::new(1, 1, 2));
        assert_eq!(inc.len(), 2);
        assert!(inc
            .iter()
            .any(|(p, s)| p.axis == Axis::I && *s == Sign::Minus));
        assert!(inc
            .iter()
            .any(|(p, s)| p.axis == Axis::K && *s == Sign::Minus));
    }

    #[test]
    fn used_cubes_excludes_forbidden_corners() {
        let d = cnot_design();
        let used = d.used_cubes();
        assert!(!used.contains(&Coord::new(0, 0, 0)));
        assert!(used.contains(&Coord::new(1, 0, 1)));
    }
}
