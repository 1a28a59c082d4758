//! Frame warping under a global motion model, with bilinear
//! interpolation and validity masking.
//!
//! Warping is the host-side geometric step of the GME loop (the
//! coordinate arithmetic the AddressLib's structured addressing cannot
//! express); the subsequent pixel-wise comparison *is* an AddressLib
//! inter call and goes through the backend.
//!
//! # Examples
//!
//! ```
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::pixel::Pixel;
//! use vip_gme::model::Motion;
//! use vip_gme::warp::warp_frame;
//!
//! let f = Frame::filled(Dims::new(16, 16), Pixel::from_luma(80));
//! let w = warp_frame(&f, &Motion::translation(2.0, 0.0));
//! assert_eq!(w.frame.dims(), f.dims());
//! ```

use vip_core::frame::Frame;
use vip_core::geometry::Dims;
use vip_core::pixel::Pixel;

use crate::model::Motion;

/// A warped frame plus its validity mask.
#[derive(Debug, Clone, PartialEq)]
pub struct Warped {
    /// The warped frame; invalid pixels are black with `alpha = 0`.
    pub frame: Frame,
    /// Number of valid (in-source) pixels.
    pub valid: usize,
}

impl Warped {
    /// Fraction of the frame covered by valid pixels.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.frame.pixel_count() == 0 {
            return 0.0;
        }
        self.valid as f64 / self.frame.pixel_count() as f64
    }
}

/// Samples `frame`'s luminance at real coordinates with bilinear
/// interpolation. Returns `None` outside the frame.
#[must_use]
pub fn sample_bilinear(frame: &Frame, x: f64, y: f64) -> Option<f64> {
    let (w, h) = (frame.width(), frame.height());
    if x < 0.0 || y < 0.0 || x > w as f64 - 1.0 || y > h as f64 - 1.0 {
        return None;
    }
    let (xi, yi) = (floor_index(x), floor_index(y));
    let tx = x - xi as f64;
    let ty = y - yi as f64;
    let (x1, row0, row1) = ((xi + 1).min(w - 1), yi * w, (yi + 1).min(h - 1) * w);
    let pixels = frame.pixels();
    let at = |row: usize, col: usize| f64::from(pixels[row + col].y);
    let a = at(row0, xi) + (at(row0, x1) - at(row0, xi)) * tx;
    let b = at(row1, xi) + (at(row1, x1) - at(row1, xi)) * tx;
    Some(a + (b - a) * ty)
}

/// `v.floor() as usize` for `v >= 0`, by truncation. Baseline x86-64 has
/// no floor instruction, so `f64::floor` is a libm call. NaN maps to 0,
/// as the cast does; negative `v` also maps to 0, which is *not* its
/// floor, so callers range-check first.
#[must_use]
pub(crate) fn floor_index(v: f64) -> usize {
    v as usize
}

/// `v.round().clamp(0.0, max as f64) as usize` (ties away from zero) for
/// every `v`, NaN included (it maps to 0), without libm's `round`.
#[must_use]
pub(crate) fn round_clamped(v: f64, max: usize) -> usize {
    // Saturating truncation: negatives and NaN give 0. Below `max` the
    // fraction `v - t` is exact (`t <= v < t + 1`).
    let t = v as usize;
    if t >= max {
        return max;
    }
    t + usize::from(v - t as f64 >= 0.5)
}

/// The warped pixel for one bilinear sample: its rounded luma with
/// `alpha = 1`, or black with `alpha = 0` where the sample fell outside
/// the source.
#[must_use]
pub(crate) fn warped_pixel(sample: Option<f64>) -> Pixel {
    match sample {
        Some(v) => Pixel::from_luma(round_clamped(v, 255) as u8).with_alpha(1),
        None => Pixel::BLACK.with_alpha(0),
    }
}

/// Centre of a frame (the origin of the centred motion coordinates).
#[must_use]
pub fn centre_of(dims: Dims) -> (f64, f64) {
    (dims.width as f64 / 2.0, dims.height as f64 / 2.0)
}

/// Warps `src` by `motion`: output pixel `p` takes the value of
/// `src` at `motion(p)` (centred coordinates). Pixels mapping outside
/// the source get `alpha = 0`; valid pixels get `alpha = 1`.
#[must_use]
pub fn warp_frame(src: &Frame, motion: &Motion) -> Warped {
    let mut frame = Frame::new(src.dims());
    let mut samples = vec![f64::NAN; src.pixel_count()];
    let valid = warp_into(src, motion, &mut frame, &mut samples);
    Warped { frame, valid }
}

/// The one warp pass behind [`warp_frame`]: writes the warped frame into
/// `out` and each pixel's unrounded sample into `samples` (NaN where the
/// pixel maps outside the source), and returns the valid-pixel count.
/// Every element of both buffers is overwritten, so they can be reused
/// from call to call.
///
/// # Panics
///
/// Panics when `out` or `samples` does not match `src` in size.
pub(crate) fn warp_into(
    src: &Frame,
    motion: &Motion,
    out: &mut Frame,
    samples: &mut [f64],
) -> usize {
    assert_eq!(out.dims(), src.dims(), "warp buffer dims");
    assert_eq!(samples.len(), src.pixel_count(), "sample buffer length");
    let w = src.width();
    if w == 0 {
        return 0;
    }
    let (cx, cy) = centre_of(src.dims());
    let mut valid = 0usize;
    let rows = out
        .pixels_mut()
        .chunks_exact_mut(w)
        .zip(samples.chunks_exact_mut(w));
    for (py, (row, row_samples)) in rows.enumerate() {
        let y = py as f64 - cy;
        for (px, (pixel, slot)) in row.iter_mut().zip(row_samples).enumerate() {
            let (mx, my) = motion.apply(px as f64 - cx, y);
            let sample = sample_bilinear(src, mx + cx, my + cy);
            valid += usize::from(sample.is_some());
            *slot = sample.unwrap_or(f64::NAN);
            *pixel = warped_pixel(sample);
        }
    }
    valid
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::geometry::Point;

    fn ramp(dims: Dims) -> Frame {
        Frame::from_fn(dims, |p| Pixel::from_luma((p.x * 10) as u8))
    }

    #[test]
    fn bilinear_exact_at_integers() {
        let f = ramp(Dims::new(8, 8));
        assert_eq!(sample_bilinear(&f, 3.0, 2.0), Some(30.0));
    }

    #[test]
    fn bilinear_interpolates_halfway() {
        let f = ramp(Dims::new(8, 8));
        assert_eq!(sample_bilinear(&f, 2.5, 4.0), Some(25.0));
    }

    #[test]
    fn bilinear_outside_is_none() {
        let f = ramp(Dims::new(8, 8));
        assert_eq!(sample_bilinear(&f, -0.1, 0.0), None);
        assert_eq!(sample_bilinear(&f, 7.5, 0.0), None);
        assert_eq!(sample_bilinear(&f, 0.0, 8.0), None);
    }

    #[test]
    fn identity_warp_preserves_luma() {
        let f = ramp(Dims::new(10, 6));
        let w = warp_frame(&f, &Motion::identity());
        assert_eq!(w.valid, 60);
        assert!((w.coverage() - 1.0).abs() < 1e-12);
        for (p, px) in w.frame.enumerate() {
            assert_eq!(px.y, f.get(p).y, "at {p}");
            assert_eq!(px.alpha, 1);
        }
    }

    #[test]
    fn translation_warp_shifts_content() {
        let f = ramp(Dims::new(10, 6));
        // motion maps output coords → source coords offset +2 in x.
        let w = warp_frame(&f, &Motion::translation(2.0, 0.0));
        // Output pixel (3, y) samples source (5, y) → luma 50.
        assert_eq!(w.frame.get(Point::new(3, 2)).y, 50);
        // Rightmost columns fall outside → invalid.
        assert_eq!(w.frame.get(Point::new(9, 0)).alpha, 0);
        assert!(w.coverage() < 1.0);
    }

    #[test]
    fn zoom_warp_valid_region() {
        let f = ramp(Dims::new(16, 16));
        // Zoom > 1 maps output into a larger source area → borders invalid.
        let w = warp_frame(&f, &Motion::similarity(1.5, 0.0, 0.0, 0.0));
        assert!(w.coverage() < 1.0);
        assert!(w.coverage() > 0.3);
        // Centre stays valid.
        assert_eq!(w.frame.get(Point::new(8, 8)).alpha, 1);
    }

    #[test]
    fn warp_consistency_with_inverse() {
        // Warping by m then by m⁻¹ approximately restores the interior.
        let f = Frame::from_fn(Dims::new(32, 32), |p| {
            Pixel::from_luma((((p.x * p.x + p.y * 3) / 2) % 256) as u8)
        });
        let m = Motion::translation(1.0, -2.0);
        let there = warp_frame(&f, &m);
        let back = warp_frame(&there.frame, &m.inverse().unwrap());
        let mut err = 0u64;
        let mut n = 0u64;
        for y in 6..26 {
            for x in 6..26 {
                let p = Point::new(x, y);
                if back.frame.get(p).alpha == 1 {
                    err += u64::from(back.frame.get(p).y.abs_diff(f.get(p).y));
                    n += 1;
                }
            }
        }
        assert!(n > 100);
        assert!(
            err / n <= 1,
            "mean roundtrip error {}",
            err as f64 / n as f64
        );
    }

    #[test]
    fn floor_index_matches_floor_on_the_sampled_range() {
        let sampled = [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            7.999,
            254.5,
            255.0,
            1e6,
        ];
        for v in sampled {
            assert_eq!(floor_index(v), v.floor() as usize, "v = {v}");
        }
        assert_eq!(floor_index(f64::NAN), f64::NAN.floor() as usize);
    }

    #[test]
    fn round_clamped_matches_round_then_clamp() {
        let edge = [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            0.5000000000000001,
            254.49999999999997,
            254.5,
            254.9,
            255.0,
            255.4,
            255.5,
            256.0,
            1e9,
            1e300,
            -0.4,
            -0.5,
            -0.6,
            -1.5,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let sweep = (-40..=2600).map(|i| f64::from(i) * 0.1);
        for v in edge.into_iter().chain(sweep) {
            for max in [0usize, 1, 175, 255] {
                let want = v.round().clamp(0.0, max as f64) as usize;
                assert_eq!(round_clamped(v, max), want, "v = {v}, max = {max}");
            }
        }
    }

    #[test]
    fn warped_pixel_rounds_and_marks_validity() {
        assert_eq!(
            warped_pixel(Some(254.5)),
            Pixel::from_luma(255).with_alpha(1)
        );
        assert_eq!(
            warped_pixel(Some(0.49999999999999994)),
            Pixel::from_luma(0).with_alpha(1)
        );
        assert_eq!(
            warped_pixel(Some(f64::NAN)),
            Pixel::from_luma(0).with_alpha(1)
        );
        assert_eq!(warped_pixel(None), Pixel::BLACK.with_alpha(0));
    }

    #[test]
    fn reused_buffers_hold_no_stale_samples() {
        let f = Frame::from_fn(Dims::new(24, 20), |p| {
            Pixel::from_luma(((p.x * 13 + p.y * 7) % 256) as u8)
        });
        let mut out = Frame::new(f.dims());
        let mut samples = vec![0.0; f.pixel_count()];
        // A large motion first (most pixels invalid), then a small one
        // (most valid), then the large one again.
        let large = Motion::similarity(1.3, 0.2, 6.5, -4.25);
        let small = Motion::translation(0.25, -0.5);
        for motion in [large, small, large] {
            let valid = warp_into(&f, &motion, &mut out, &mut samples);
            let fresh = warp_frame(&f, &motion);
            assert_eq!(valid, fresh.valid);
            assert_eq!(out, fresh.frame);
            for (i, (&s, px)) in samples.iter().zip(fresh.frame.pixels()).enumerate() {
                let p = Point::new((i % 24) as i32, (i / 24) as i32);
                let (cx, cy) = centre_of(f.dims());
                let (mx, my) = motion.apply(f64::from(p.x) - cx, f64::from(p.y) - cy);
                match sample_bilinear(&f, mx + cx, my + cy) {
                    Some(v) => assert_eq!(s.to_bits(), v.to_bits(), "at {p}"),
                    None => assert!(s.is_nan() && px.alpha == 0, "at {p}"),
                }
            }
        }
    }

    #[test]
    fn empty_coverage() {
        let w = Warped {
            frame: Frame::new(Dims::new(0, 0)),
            valid: 0,
        };
        assert_eq!(w.coverage(), 0.0);
    }
}
