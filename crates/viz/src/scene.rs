//! Building colored-box scenes from solved designs.

use lasre::{Axis, Coord, CubeKind, LasDesign, PipeRef};

/// An axis-aligned colored box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Box3 {
    /// Minimum corner (x, y, z) = (i, j, k).
    pub min: [f32; 3],
    /// Maximum corner.
    pub max: [f32; 3],
    /// RGBA color, each component in 0..=1.
    pub color: [f32; 4],
}

/// Scene construction options.
#[derive(Clone, Copy, Debug)]
pub struct SceneOptions {
    /// Side length of cube boxes (1.0 = touching).
    pub cube_size: f32,
    /// Cross-section of pipe boxes.
    pub pipe_width: f32,
    /// Overlay the correlation surface of this stabilizer index.
    pub correlation: Option<usize>,
}

impl Default for SceneOptions {
    fn default() -> Self {
        SceneOptions {
            cube_size: 0.5,
            pipe_width: 0.3,
            correlation: None,
        }
    }
}

/// Color palette (RGBA).
mod palette {
    pub const CUBE: [f32; 4] = [0.75, 0.75, 0.78, 1.0];
    pub const Y_CUBE: [f32; 4] = [0.18, 0.75, 0.29, 1.0]; // green, paper's Y cubes
    pub const PORT: [f32; 4] = [0.95, 0.95, 0.99, 1.0];
    pub const PIPE: [f32; 4] = [0.62, 0.62, 0.68, 1.0];
    pub const DOMAIN_WALL: [f32; 4] = [0.95, 0.85, 0.1, 1.0]; // yellow ring
    pub const RED_JUNCTION: [f32; 4] = [0.85, 0.25, 0.2, 1.0];
    pub const BLUE_JUNCTION: [f32; 4] = [0.2, 0.35, 0.85, 1.0];
    pub const SURFACE: [f32; 4] = [0.1, 0.85, 0.85, 0.6]; // cyan overlay
}

/// A renderable scene: colored boxes in design coordinates.
///
/// ```
/// use viz::{Scene, SceneOptions};
/// let scene = Scene::from_design(&lasre::fixtures::cnot_design(), SceneOptions::default());
/// assert!(scene.boxes().len() > 10);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Scene {
    boxes: Vec<Box3>,
}

impl Scene {
    /// Builds the scene for a design (without domain walls if its K colors conflict).
    pub fn from_design(design: &LasDesign, options: SceneOptions) -> Scene {
        let mut scene = Scene::default();
        let k_colors = design.k_colors().unwrap_or_default();
        let half = options.cube_size / 2.0;
        for c in design.used_cubes() {
            let color = match design.classify(c) {
                CubeKind::Empty => continue,
                CubeKind::Port(_) => palette::PORT,
                CubeKind::Y => palette::Y_CUBE,
                CubeKind::Straight { .. } => palette::CUBE,
                CubeKind::Junction { red, .. } => {
                    if red {
                        palette::RED_JUNCTION
                    } else {
                        palette::BLUE_JUNCTION
                    }
                }
                CubeKind::Invalid => [1.0, 0.0, 1.0, 1.0],
            };
            scene.push_centered(center(c), [half; 3], color);
        }
        for pipe in design.pipes() {
            scene.push_pipe(pipe, options, palette::PIPE);
            if pipe.axis == Axis::K && k_colors.get(&pipe.base).is_some_and(|(lo, hi)| lo != hi) {
                // Yellow ring at the pipe's middle.
                let mut size = [options.pipe_width / 2.0 + 0.06; 3];
                size[pipe.axis.index()] = 0.08;
                let mut mid = center(pipe.base);
                mid[pipe.axis.index()] += 0.5;
                scene.push_centered(mid, size, palette::DOMAIN_WALL);
            }
        }
        if let Some(s) = options.correlation {
            for pipe in design.pipes() {
                for kind in lasre::CorrKind::all() {
                    if kind.pipe_axis == pipe.axis && design.corr(s, kind, pipe.base) {
                        let mut size = [0.05; 3];
                        size[pipe.axis.index()] = 0.55;
                        size[kind.plane.index()] = options.pipe_width / 2.0 + 0.02;
                        let mut mid = center(pipe.base);
                        mid[pipe.axis.index()] += 0.5;
                        scene.push_centered(mid, size, palette::SURFACE);
                    }
                }
            }
        }
        scene
    }

    fn push_pipe(&mut self, pipe: PipeRef, options: SceneOptions, color: [f32; 4]) {
        let mut size = [options.pipe_width / 2.0; 3];
        size[pipe.axis.index()] = 0.5;
        let mut mid = center(pipe.base);
        mid[pipe.axis.index()] += 0.5;
        self.push_centered(mid, size, color);
    }

    fn push_centered(&mut self, center: [f32; 3], half: [f32; 3], color: [f32; 4]) {
        self.boxes.push(Box3 {
            min: [
                center[0] - half[0],
                center[1] - half[1],
                center[2] - half[2],
            ],
            max: [
                center[0] + half[0],
                center[1] + half[1],
                center[2] + half[2],
            ],
            color,
        });
    }

    /// The boxes of the scene.
    pub fn boxes(&self) -> &[Box3] {
        &self.boxes
    }
}

fn center(c: Coord) -> [f32; 3] {
    [c.i as f32, c.j as f32, c.k as f32]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasre::fixtures::cnot_design;

    fn scene() -> Scene {
        Scene::from_design(&cnot_design(), SceneOptions::default())
    }

    #[test]
    fn scene_has_cubes_and_pipes() {
        let s = scene();
        // 6 structural cubes + 2 virtual port cubes + 9 pipes.
        assert_eq!(s.boxes().len(), 17);
    }

    #[test]
    fn junction_colors_present() {
        let s = scene();
        let reds = s
            .boxes()
            .iter()
            .filter(|b| b.color == palette::RED_JUNCTION)
            .count();
        let blues = s
            .boxes()
            .iter()
            .filter(|b| b.color == palette::BLUE_JUNCTION)
            .count();
        assert!(reds >= 1, "expected the XX junction");
        assert!(blues >= 1, "expected the ZZ junction");
    }

    #[test]
    fn correlation_overlay_adds_boxes() {
        let d = cnot_design();
        let plain = Scene::from_design(&d, SceneOptions::default());
        let overlay = Scene::from_design(
            &d,
            SceneOptions {
                correlation: Some(1),
                ..SceneOptions::default()
            },
        );
        assert!(overlay.boxes().len() > plain.boxes().len());
    }

    #[test]
    fn boxes_are_well_formed() {
        for b in scene().boxes() {
            for d in 0..3 {
                assert!(b.min[d] < b.max[d]);
            }
        }
    }
}
