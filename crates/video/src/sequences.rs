//! The four synthetic test sequences standing in for the paper's MPEG-1
//! clips (Table 3: Singapore, Dome, Pisa, Movie).
//!
//! Each sequence couples a procedural [`Scene`] with a ground-truth
//! [`MotionScript`]; frames are rendered by sampling the scene through
//! the per-frame camera pose. Lengths are chosen so the AddressLib call
//! counts reproduce the paper's ordering (Pisa ≈ 2× the others).
//!
//! # Examples
//!
//! ```
//! use vip_video::sequences::TestSequence;
//!
//! let seq = TestSequence::singapore().scaled(44, 36, 5);
//! let f0 = seq.render_frame(0);
//! assert_eq!(f0.width(), 44);
//! ```

use vip_core::frame::Frame;
use vip_core::geometry::{Dims, ImageFormat};
use vip_core::pixel::Pixel;

use crate::motion_script::{CameraPose, MotionScript, Segment};
use crate::synth::{Scene, SceneKind};

/// A named synthetic sequence with ground-truth global motion.
#[derive(Debug, Clone, PartialEq)]
pub struct TestSequence {
    name: &'static str,
    scene: Scene,
    script: MotionScript,
    dims: Dims,
}

impl TestSequence {
    /// The "Singapore" stand-in: a steady skyline pan with a gentle zoom.
    #[must_use]
    pub fn singapore() -> Self {
        TestSequence {
            name: "singapore",
            scene: Scene::new(SceneKind::Skyline, 0x5117),
            script: MotionScript::new(vec![
                Segment::pan(150, 1.8, 0.05),
                Segment::pan_zoom(120, 1.4, 0.0, 1.0008),
                Segment::pan(110, 2.0, -0.1),
            ]),
            dims: ImageFormat::Cif.dims(),
        }
    }

    /// The "Dome" stand-in: slow rotation around the dome plus drift.
    #[must_use]
    pub fn dome() -> Self {
        TestSequence {
            name: "dome",
            scene: Scene::new(SceneKind::Dome, 0xD03E),
            script: MotionScript::new(vec![
                Segment::pan_rotate(140, 0.6, 0.4, 0.0015),
                Segment::pan_rotate(140, -0.4, 0.6, 0.0020),
                Segment::pan_zoom(130, 0.5, -0.3, 0.9995),
            ]),
            dims: ImageFormat::Cif.dims(),
        }
    }

    /// The "Pisa" stand-in: the long clip — a slow plaza traverse with
    /// direction changes (about twice the work of the others, as in
    /// Table 3).
    #[must_use]
    pub fn pisa() -> Self {
        TestSequence {
            name: "pisa",
            scene: Scene::new(SceneKind::Plaza, 0x9154),
            script: MotionScript::new(vec![
                Segment::pan(200, 1.2, 0.7),
                Segment::pan_zoom(180, 0.9, 0.9, 1.0005),
                Segment::pan(200, 1.5, -0.4),
                Segment::pan_rotate(200, 0.8, -0.8, 0.0008),
            ]),
            dims: ImageFormat::Cif.dims(),
        }
    }

    /// The "Movie" stand-in: film-like content with a pan that reverses
    /// and a zoom-out.
    #[must_use]
    pub fn movie() -> Self {
        TestSequence {
            name: "movie",
            scene: Scene::new(SceneKind::Film, 0x0F11),
            script: MotionScript::new(vec![
                Segment::pan(120, 2.2, 0.0),
                Segment::pan_zoom(110, -1.6, 0.3, 0.9992),
                Segment::pan(110, -2.0, -0.2),
            ]),
            dims: ImageFormat::Cif.dims(),
        }
    }

    /// All four Table 3 sequences in paper order.
    #[must_use]
    pub fn table3() -> Vec<TestSequence> {
        vec![
            TestSequence::singapore(),
            TestSequence::dome(),
            TestSequence::pisa(),
            TestSequence::movie(),
        ]
    }

    /// A scaled copy: `width × height` frames and at most `frames`
    /// frames — for fast tests and demos.
    ///
    /// # Panics
    ///
    /// Panics when `frames` is zero.
    #[must_use]
    pub fn scaled(&self, width: usize, height: usize, frames: usize) -> TestSequence {
        assert!(frames > 0, "a sequence needs at least one frame");
        // Re-integrate a truncated script by sampling the existing poses.
        let poses: Vec<CameraPose> = (0..frames.min(self.script.frame_count()))
            .map(|t| self.script.pose(t))
            .collect();
        TestSequence {
            name: self.name,
            scene: self.scene,
            script: MotionScript::from_poses(poses),
            dims: Dims::new(width, height),
        }
    }

    /// Sequence name (Table 3 row label).
    #[must_use]
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Frame dimensions.
    #[must_use]
    pub const fn dims(&self) -> Dims {
        self.dims
    }

    /// Number of frames.
    #[must_use]
    pub fn frame_count(&self) -> usize {
        self.script.frame_count()
    }

    /// The ground-truth motion script.
    #[must_use]
    pub const fn script(&self) -> &MotionScript {
        &self.script
    }

    /// The underlying scene.
    #[must_use]
    pub const fn scene(&self) -> &Scene {
        &self.scene
    }

    /// Renders frame `t` by sampling the scene through the camera pose.
    #[must_use]
    pub fn render_frame(&self, t: usize) -> Frame {
        let pose = self.script.pose(t);
        // Centre the camera window on the pose.
        let cx = self.dims.width as f64 / 2.0;
        let cy = self.dims.height as f64 / 2.0;
        Frame::from_fn(self.dims, |p| {
            let (wx, wy) = pose.to_world(p.x as f64 - cx, p.y as f64 - cy);
            let (y, u, v) = self.scene.sample(wx + 400.0, wy + 300.0);
            Pixel::from_yuv(y.round() as u8, u.round() as u8, v.round() as u8)
        })
    }

    /// Iterates over all frames.
    pub fn frames(&self) -> impl Iterator<Item = Frame> + '_ {
        (0..self.frame_count()).map(|t| self.render_frame(t))
    }
}

impl MotionScript {
    /// Rebuilds a script from explicit poses (used by
    /// [`TestSequence::scaled`]).
    ///
    /// # Panics
    ///
    /// Panics when `poses` is empty.
    #[must_use]
    pub fn from_poses(poses: Vec<CameraPose>) -> MotionScript {
        assert!(!poses.is_empty(), "motion script needs at least one frame");
        // Construct via a dummy script and replace the poses to keep the
        // field private.
        let mut script = MotionScript::new(vec![Segment::pan(poses.len().max(1), 0.0, 0.0)]);
        script.set_poses(poses);
        script
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::ops::reduce::LumaStats;

    #[test]
    fn four_sequences_with_paper_ordering() {
        let seqs = TestSequence::table3();
        assert_eq!(seqs.len(), 4);
        let names: Vec<_> = seqs.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["singapore", "dome", "pisa", "movie"]);
        // Pisa is the long one: roughly twice the others (Table 3).
        let pisa = seqs[2].frame_count() as f64;
        for (i, s) in seqs.iter().enumerate() {
            if i != 2 {
                let ratio = pisa / s.frame_count() as f64;
                assert!(ratio > 1.7 && ratio < 2.5, "{}: {ratio}", s.name());
            }
        }
    }

    #[test]
    fn sequences_are_cif() {
        for s in TestSequence::table3() {
            assert_eq!(s.dims(), Dims::new(352, 288));
            assert!(s.frame_count() > 300);
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let s = TestSequence::movie().scaled(32, 24, 3);
        assert_eq!(s.render_frame(1), s.render_frame(1));
    }

    #[test]
    fn frames_have_texture() {
        for seq in TestSequence::table3() {
            let small = seq.scaled(44, 36, 2);
            let f = small.render_frame(0);
            let stats = LumaStats::of(&f).unwrap();
            assert!(stats.variance > 50.0, "{} too flat", seq.name());
        }
    }

    #[test]
    fn consecutive_frames_differ_but_overlap() {
        let seq = TestSequence::singapore().scaled(64, 48, 4);
        let f0 = seq.render_frame(0);
        let f1 = seq.render_frame(1);
        let sad = f0.luma_sad(&f1).unwrap();
        assert!(sad > 0, "motion must change the frame");
        // Small per-frame motion: mean abs diff well below full range.
        let mean = sad as f64 / f0.pixel_count() as f64;
        assert!(mean < 40.0, "mean abs diff {mean} too large for GME");
    }

    #[test]
    fn ground_truth_consistent_with_rendering() {
        // The ground-truth relative pose maps frame-t coordinates to
        // frame-(t+1) coordinates: content must match at mapped points.
        let seq = TestSequence::pisa().scaled(64, 48, 3);
        let f0 = seq.render_frame(0);
        let f1 = seq.render_frame(1);
        let gt = seq.script().ground_truth(0);
        let cx = 32.0;
        let cy = 24.0;
        let mut total_err = 0.0;
        let mut n = 0;
        for (x, y) in [(20, 20), (30, 25), (40, 30), (25, 15)] {
            let (nx, ny) = gt.to_world(x as f64 - cx, y as f64 - cy);
            let (ix, iy) = ((nx + cx).round() as i32, (ny + cy).round() as i32);
            if ix >= 1 && iy >= 1 && ix < 63 && iy < 47 {
                let a = f0.get(vip_core::geometry::Point::new(x, y)).y as f64;
                let b = f1.get(vip_core::geometry::Point::new(ix, iy)).y as f64;
                total_err += (a - b).abs();
                n += 1;
            }
        }
        assert!(n >= 2, "need interior correspondences");
        assert!(
            total_err / n as f64 <= 32.0,
            "mean warp error {}",
            total_err / n as f64
        );
    }

    #[test]
    fn scaled_truncates() {
        let s = TestSequence::dome().scaled(20, 20, 7);
        assert_eq!(s.frame_count(), 7);
        assert_eq!(s.dims(), Dims::new(20, 20));
        assert_eq!(s.name(), "dome");
        assert_eq!(s.frames().count(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_panics() {
        let _ = TestSequence::movie().scaled(8, 8, 0);
    }
}
