//! Camera motion scripts: the ground-truth global motion of a synthetic
//! sequence.
//!
//! A [`CameraPose`] maps frame coordinates into scene (world)
//! coordinates with a similarity transform (pan + zoom + rotation) — the
//! motion family MPEG-7 global motion estimation targets for mosaicing.
//! A [`MotionScript`] composes per-frame increments into absolute poses,
//! so every rendered frame carries exact ground truth to validate the
//! estimator against (something the paper's real clips could not offer).
//!
//! # Examples
//!
//! ```
//! use vip_video::motion_script::{MotionScript, Segment};
//!
//! let script = MotionScript::new(vec![Segment::pan(10, 1.5, 0.0)]);
//! assert_eq!(script.frame_count(), 10);
//! let p = script.pose(5);
//! assert!((p.dx - 7.5).abs() < 1e-9);
//! ```

/// An absolute camera pose: frame → world mapping
/// `world = zoom · R(rot) · p + (dx, dy)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraPose {
    /// Horizontal world offset.
    pub dx: f64,
    /// Vertical world offset.
    pub dy: f64,
    /// Isotropic zoom factor (1 = native scale).
    pub zoom: f64,
    /// Rotation in radians.
    pub rot: f64,
}

impl CameraPose {
    /// The identity pose.
    #[must_use]
    pub const fn identity() -> Self {
        CameraPose {
            dx: 0.0,
            dy: 0.0,
            zoom: 1.0,
            rot: 0.0,
        }
    }

    /// Maps frame coordinates to world coordinates.
    #[must_use]
    pub fn to_world(&self, x: f64, y: f64) -> (f64, f64) {
        let (s, c) = self.rot.sin_cos();
        (
            self.zoom * (c * x - s * y) + self.dx,
            self.zoom * (s * x + c * y) + self.dy,
        )
    }

    /// The affine coefficients `[a0, a1, a2, a3, a4, a5]` of this pose:
    /// `x' = a0 + a1·x + a2·y`, `y' = a3 + a4·x + a5·y`.
    #[must_use]
    pub fn affine(&self) -> [f64; 6] {
        let (s, c) = self.rot.sin_cos();
        [
            self.dx,
            self.zoom * c,
            -self.zoom * s,
            self.dy,
            self.zoom * s,
            self.zoom * c,
        ]
    }

    /// The relative pose taking a point from `self`'s frame into
    /// `next`'s frame — the ground-truth inter-frame motion a global
    /// motion estimator should recover (as a frame→frame mapping:
    /// `p_next = inverse(next) ∘ self (p_self)`).
    #[must_use]
    pub fn relative_to(&self, next: &CameraPose) -> CameraPose {
        // p_world = Z_a R_a p + t_a ; p_next = R_b^-1 (p_world - t_b)/Z_b
        let zoom = self.zoom / next.zoom;
        let rot = self.rot - next.rot;
        let (s, c) = (-next.rot).sin_cos();
        let tx = self.dx - next.dx;
        let ty = self.dy - next.dy;
        CameraPose {
            dx: (c * tx - s * ty) / next.zoom,
            dy: (s * tx + c * ty) / next.zoom,
            zoom,
            rot,
        }
    }
}

impl Default for CameraPose {
    fn default() -> Self {
        CameraPose::identity()
    }
}

/// One constant-rate segment of a motion script.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Frames in the segment.
    pub frames: usize,
    /// Pan per frame, world units.
    pub pan: (f64, f64),
    /// Multiplicative zoom per frame (1 = none).
    pub zoom_rate: f64,
    /// Rotation per frame, radians.
    pub rot_rate: f64,
}

impl Segment {
    /// A pure pan segment.
    #[must_use]
    pub const fn pan(frames: usize, dx: f64, dy: f64) -> Self {
        Segment {
            frames,
            pan: (dx, dy),
            zoom_rate: 1.0,
            rot_rate: 0.0,
        }
    }

    /// A pan + zoom segment.
    #[must_use]
    pub const fn pan_zoom(frames: usize, dx: f64, dy: f64, zoom_rate: f64) -> Self {
        Segment {
            frames,
            pan: (dx, dy),
            zoom_rate,
            rot_rate: 0.0,
        }
    }

    /// A pan + rotation segment.
    #[must_use]
    pub const fn pan_rotate(frames: usize, dx: f64, dy: f64, rot_rate: f64) -> Self {
        Segment {
            frames,
            pan: (dx, dy),
            zoom_rate: 1.0,
            rot_rate,
        }
    }
}

/// A camera motion script: precomputed absolute poses per frame.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionScript {
    poses: Vec<CameraPose>,
}

impl MotionScript {
    /// Builds the script by integrating the segments from the identity
    /// pose. Frame 0 always has the identity pose; a script of `n` total
    /// segment frames yields `n` frames.
    ///
    /// # Panics
    ///
    /// Panics when the segments contain no frames.
    #[must_use]
    pub fn new(segments: Vec<Segment>) -> Self {
        let total: usize = segments.iter().map(|s| s.frames).sum();
        assert!(total > 0, "motion script needs at least one frame");
        let mut poses = Vec::with_capacity(total);
        let mut pose = CameraPose::identity();
        poses.push(pose);
        for seg in &segments {
            for _ in 0..seg.frames {
                if poses.len() == total {
                    break;
                }
                pose.dx += seg.pan.0;
                pose.dy += seg.pan.1;
                pose.zoom *= seg.zoom_rate;
                pose.rot += seg.rot_rate;
                poses.push(pose);
            }
        }
        MotionScript { poses }
    }

    /// Number of frames.
    #[must_use]
    pub fn frame_count(&self) -> usize {
        self.poses.len()
    }

    /// The absolute pose of frame `t` (clamped to the last frame).
    #[must_use]
    pub fn pose(&self, t: usize) -> CameraPose {
        self.poses[t.min(self.poses.len() - 1)]
    }

    /// Ground-truth relative motion from frame `t` to frame `t+1`.
    #[must_use]
    pub fn ground_truth(&self, t: usize) -> CameraPose {
        self.pose(t).relative_to(&self.pose(t + 1))
    }

    /// Replaces the pose table (crate-internal; used by
    /// [`MotionScript::from_poses`]).
    pub(crate) fn set_poses(&mut self, poses: Vec<CameraPose>) {
        self.poses = poses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_pose_maps_identically() {
        let p = CameraPose::identity();
        assert_eq!(p.to_world(3.0, 4.0), (3.0, 4.0));
        let a = p.affine();
        assert_eq!(a, [0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn pan_pose() {
        let p = CameraPose {
            dx: 10.0,
            dy: -5.0,
            zoom: 1.0,
            rot: 0.0,
        };
        assert_eq!(p.to_world(1.0, 2.0), (11.0, -3.0));
    }

    #[test]
    fn zoom_and_rotation() {
        let p = CameraPose {
            dx: 0.0,
            dy: 0.0,
            zoom: 2.0,
            rot: std::f64::consts::FRAC_PI_2,
        };
        let (x, y) = p.to_world(1.0, 0.0);
        assert!((x - 0.0).abs() < 1e-12);
        assert!((y - 2.0).abs() < 1e-12);
    }

    #[test]
    fn affine_agrees_with_to_world() {
        let p = CameraPose {
            dx: 3.0,
            dy: 7.0,
            zoom: 1.3,
            rot: 0.4,
        };
        let a = p.affine();
        for (x, y) in [(0.0, 0.0), (5.0, -2.0), (100.0, 50.0)] {
            let (wx, wy) = p.to_world(x, y);
            let ax = a[0] + a[1] * x + a[2] * y;
            let ay = a[3] + a[4] * x + a[5] * y;
            assert!((wx - ax).abs() < 1e-9);
            assert!((wy - ay).abs() < 1e-9);
        }
    }

    #[test]
    fn relative_pose_roundtrip() {
        // Mapping a point through pose A to world and back through B
        // must equal the relative pose A→B applied directly.
        let a = CameraPose {
            dx: 10.0,
            dy: 5.0,
            zoom: 1.2,
            rot: 0.1,
        };
        let b = CameraPose {
            dx: 12.0,
            dy: 4.0,
            zoom: 1.25,
            rot: 0.15,
        };
        let rel = a.relative_to(&b);
        for (x, y) in [(0.0, 0.0), (30.0, 40.0), (-10.0, 7.0)] {
            let (wx, wy) = a.to_world(x, y);
            // Invert b manually.
            let (s, c) = (-b.rot).sin_cos();
            let px = (c * (wx - b.dx) - s * (wy - b.dy)) / b.zoom;
            let py = (s * (wx - b.dx) + c * (wy - b.dy)) / b.zoom;
            let (rx, ry) = rel.to_world(x, y);
            assert!((px - rx).abs() < 1e-9, "{px} vs {rx}");
            assert!((py - ry).abs() < 1e-9);
        }
    }

    #[test]
    fn script_integration() {
        let script = MotionScript::new(vec![
            Segment::pan(5, 2.0, 0.0),
            Segment::pan_zoom(5, 0.0, 1.0, 1.01),
        ]);
        assert_eq!(script.frame_count(), 10);
        assert_eq!(script.pose(0), CameraPose::identity());
        let p4 = script.pose(4);
        assert!((p4.dx - 8.0).abs() < 1e-12);
        let p9 = script.pose(9);
        assert!((p9.dx - 10.0).abs() < 1e-9);
        assert!(p9.zoom > 1.0);
        // Clamping beyond the end.
        assert_eq!(script.pose(99), script.pose(9));
    }

    #[test]
    fn ground_truth_matches_segment_rates() {
        let script = MotionScript::new(vec![Segment::pan(6, 1.5, -0.5)]);
        let gt = script.ground_truth(2);
        // Pure pan: relative pose is a translation of −pan (the next
        // frame sees the world shifted the other way).
        assert!((gt.dx + 1.5).abs() < 1e-9, "{gt:?}");
        assert!((gt.dy - 0.5).abs() < 1e-9);
        assert!((gt.zoom - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn empty_script_panics() {
        let _ = MotionScript::new(vec![]);
    }
}
