//! Sequence degradations: sensor noise and independently moving
//! foreground objects.
//!
//! The paper's clips are real camera footage — noisy, and containing
//! foreground motion that a *global* motion estimator must treat as
//! outliers. This module injects both effects into the clean synthetic
//! sequences so robustness can be measured against ground truth.
//!
//! # Examples
//!
//! ```
//! use vip_video::degrade::{Degradation, ForegroundObject};
//! use vip_video::TestSequence;
//!
//! let seq = TestSequence::movie().scaled(64, 48, 4);
//! let noisy = Degradation::new(7)
//!     .with_noise(3.0)
//!     .with_object(ForegroundObject::walker(10, 10, 1.5, 0.0, 8));
//! let f = noisy.apply(&seq, 2);
//! assert_eq!(f.dims(), seq.render_frame(2).dims());
//! ```

use crate::rng::XorShift64;
use crate::sequences::TestSequence;
use vip_core::frame::Frame;
use vip_core::geometry::Point;

/// An independently moving foreground object (a bright rounded blob).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForegroundObject {
    /// Initial centre x.
    pub x0: f64,
    /// Initial centre y.
    pub y0: f64,
    /// Velocity per frame (frame coordinates).
    pub vx: f64,
    /// Velocity per frame.
    pub vy: f64,
    /// Radius in pixels.
    pub radius: f64,
    /// Object luminance.
    pub luma: u8,
}

impl ForegroundObject {
    /// A "pedestrian": a small bright blob walking across the frame.
    #[must_use]
    pub fn walker(x0: i32, y0: i32, vx: f64, vy: f64, radius: u32) -> Self {
        ForegroundObject {
            x0: f64::from(x0),
            y0: f64::from(y0),
            vx,
            vy,
            radius: f64::from(radius),
            luma: 235,
        }
    }

    /// Centre position at frame `t`.
    #[must_use]
    pub fn centre_at(&self, t: usize) -> (f64, f64) {
        (self.x0 + self.vx * t as f64, self.y0 + self.vy * t as f64)
    }

    fn covers(&self, t: usize, p: Point) -> bool {
        let (cx, cy) = self.centre_at(t);
        let dx = f64::from(p.x) - cx;
        let dy = f64::from(p.y) - cy;
        dx * dx + dy * dy <= self.radius * self.radius
    }
}

/// A degradation pipeline over a clean [`TestSequence`].
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    seed: u64,
    noise_sigma: f64,
    objects: Vec<ForegroundObject>,
}

impl Degradation {
    /// Creates an empty degradation (identity) with a noise seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Degradation {
            seed,
            noise_sigma: 0.0,
            objects: Vec::new(),
        }
    }

    /// Adds zero-mean Gaussian-ish luminance noise of the given standard
    /// deviation (approximated by the sum of three uniforms).
    #[must_use]
    pub fn with_noise(mut self, sigma: f64) -> Self {
        self.noise_sigma = sigma.max(0.0);
        self
    }

    /// Adds a foreground object.
    #[must_use]
    pub fn with_object(mut self, object: ForegroundObject) -> Self {
        self.objects.push(object);
        self
    }

    /// The configured noise standard deviation.
    #[must_use]
    pub fn noise_sigma(&self) -> f64 {
        self.noise_sigma
    }

    /// Renders frame `t` of `seq` with the degradations applied.
    /// Deterministic: the same `(seed, t)` yields the same frame.
    #[must_use]
    pub fn apply(&self, seq: &TestSequence, t: usize) -> Frame {
        let mut frame = seq.render_frame(t);
        // Foreground objects first (they are part of the "scene").
        for obj in &self.objects {
            for p in frame.dims().bounds().points() {
                if obj.covers(t, p) {
                    let mut px = frame.get(p);
                    px.y = obj.luma;
                    frame.set(p, px);
                }
            }
        }
        if self.noise_sigma > 0.0 {
            let mut rng = XorShift64::new(self.seed ^ (t as u64).wrapping_mul(0x9e37));
            for px in frame.pixels_mut() {
                // Irwin–Hall(3) ≈ normal; variance of sum of 3 U(−1,1) is 1.
                let n: f64 = (0..3).map(|_| rng.uniform(-1.0, 1.0)).sum();
                let v = f64::from(px.y) + n * self.noise_sigma;
                px.y = v.round().clamp(0.0, 255.0) as u8;
            }
        }
        frame
    }

    /// Iterates over all degraded frames of `seq`.
    pub fn frames<'a>(&'a self, seq: &'a TestSequence) -> impl Iterator<Item = Frame> + 'a {
        (0..seq.frame_count()).map(move |t| self.apply(seq, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::ops::reduce::LumaStats;

    fn seq() -> TestSequence {
        TestSequence::pisa().scaled(48, 36, 4)
    }

    #[test]
    fn identity_degradation_is_clean_render() {
        let s = seq();
        let d = Degradation::new(1);
        assert_eq!(d.apply(&s, 1), s.render_frame(1));
        assert_eq!(d.noise_sigma(), 0.0);
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let s = seq();
        let d = Degradation::new(3).with_noise(4.0);
        let a = d.apply(&s, 2);
        let b = d.apply(&s, 2);
        assert_eq!(a, b, "same seed+frame → same noise");
        let clean = s.render_frame(2);
        let sad = a.luma_sad(&clean).unwrap();
        let mean_dev = sad as f64 / a.pixel_count() as f64;
        assert!(mean_dev > 1.0 && mean_dev < 8.0, "mean |noise| {mean_dev}");
    }

    #[test]
    fn different_frames_get_different_noise() {
        let s = seq();
        let d = Degradation::new(3).with_noise(4.0);
        let n1 = d.apply(&s, 1);
        let n2 = d.apply(&s, 2);
        // Even after subtracting scene motion, the noise fields differ;
        // cheap check: the frames differ more than the clean ones do by
        // at least something.
        assert_ne!(n1, n2);
    }

    #[test]
    fn zero_sigma_adds_no_noise() {
        let s = seq();
        let d = Degradation::new(3).with_noise(0.0);
        assert_eq!(d.apply(&s, 0), s.render_frame(0));
    }

    #[test]
    fn object_paints_a_blob_that_moves() {
        let s = seq();
        let obj = ForegroundObject::walker(10, 18, 4.0, 0.0, 5);
        let d = Degradation::new(1).with_object(obj);
        let f0 = d.apply(&s, 0);
        let f2 = d.apply(&s, 2);
        assert_eq!(f0.get(Point::new(10, 18)).y, 235, "object at start");
        assert_eq!(f2.get(Point::new(18, 18)).y, 235, "object moved +8");
        // Where the object was, the scene is back.
        let clean2 = s.render_frame(2);
        assert_eq!(f2.get(Point::new(4, 18)).y, clean2.get(Point::new(4, 18)).y);
        assert_eq!(obj.centre_at(2), (18.0, 18.0));
    }

    #[test]
    fn object_and_noise_compose() {
        let s = seq();
        let d = Degradation::new(9)
            .with_noise(2.0)
            .with_object(ForegroundObject::walker(24, 18, -2.0, 1.0, 6));
        let f = d.apply(&s, 1);
        let stats = LumaStats::of(&f).unwrap();
        assert!(stats.max >= 230, "bright object present");
        assert_ne!(f, s.render_frame(1));
    }

    #[test]
    fn frames_iterator_covers_sequence() {
        let s = seq();
        let d = Degradation::new(1).with_noise(1.0);
        assert_eq!(d.frames(&s).count(), 4);
    }
}
