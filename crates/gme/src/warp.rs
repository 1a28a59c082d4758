//! Frame warping under a global motion model, with bilinear
//! interpolation and validity masking.
//!
//! Warping is the host-side geometric step of the GME loop (the
//! coordinate arithmetic the AddressLib's structured addressing cannot
//! express); the subsequent pixel-wise comparison *is* an AddressLib
//! inter call and goes through the backend.
//!
//! The warp pass gives, bit for bit, what the per-pixel reference
//! [`Motion::apply`] + [`sample_bilinear`] + `warped_pixel` gives; how it
//! runs at kernel speed is in DESIGN.md (GME) and on `Motion::row`.
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
    let (xmax, ymax) = (frame.width() as f64 - 1.0, frame.height() as f64 - 1.0);
    in_source(x, y, xmax, ymax).then(|| interpolate(frame, x, y))
}

/// Whether `(x, y)` lies in a source whose last column and row are
/// `xmax` and `ymax`. NaN coordinates count as inside: [`interpolate`]
/// reads pixel 0 for them and returns NaN.
fn in_source(x: f64, y: f64, xmax: f64, ymax: f64) -> bool {
    !(x < 0.0 || y < 0.0 || x > xmax || y > ymax)
}

/// The bilinear interpolation behind [`sample_bilinear`], for `(x, y)`
/// that [`in_source`] accepts.
fn interpolate(frame: &Frame, x: f64, y: f64) -> f64 {
    let (w, h) = (frame.width(), frame.height());
    let (xi, yi) = (floor_index(x), floor_index(y));
    // Through `i64`: baseline x86-64 converts a signed integer in one
    // instruction and an unsigned one in several. Indices are < 2^53.
    let tx = x - xi as i64 as f64;
    let ty = y - yi as i64 as f64;
    let (x1, row0, row1) = ((xi + 1).min(w - 1), yi * w, (yi + 1).min(h - 1) * w);
    let pixels = frame.pixels();
    let at = |row: usize, col: usize| f64::from(pixels[row + col].y);
    let a = at(row0, xi) + (at(row0, x1) - at(row0, xi)) * tx;
    let b = at(row1, xi) + (at(row1, x1) - at(row1, xi)) * tx;
    a + (b - a) * ty
}

/// `v.floor() as usize` for `v >= 0`, by truncation. Baseline x86-64 has
/// no floor instruction, so `f64::floor` is a libm call, and no unsigned
/// 64-bit convert, so the truncation goes through `i64`. NaN maps to 0,
/// as the cast does; negative `v` also maps to 0, which is *not* its
/// floor, so callers range-check first. This equals `v as usize` for
/// every `v` below 2^63; from 2^63 up (`+∞` included) it saturates at
/// `i64::MAX`, a value no frame index and no in-source coordinate
/// reaches.
#[must_use]
pub(crate) fn floor_index(v: f64) -> usize {
    (v as i64).max(0) as usize
}

/// `v.round().clamp(0.0, max as f64) as usize` (ties away from zero) for
/// every `v`, NaN included (it maps to 0), and every `max` up to
/// `i64::MAX`, without libm's `round` and without an unsigned 64-bit
/// convert.
#[must_use]
pub(crate) fn round_clamped(v: f64, max: usize) -> usize {
    // Saturating truncation toward zero (NaN gives 0), then negatives to
    // 0. Below `max` the fraction `v - t` is exact (`t <= v < t + 1`).
    let t = (v as i64).max(0);
    if t as usize >= max {
        return max;
    }
    t as usize + usize::from(v - t as f64 >= 0.5)
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
    let (xmax, ymax) = (w as f64 - 1.0, src.height() as f64 - 1.0);
    let mut valid = 0usize;
    let rows = out
        .pixels_mut()
        .chunks_exact_mut(w)
        .zip(samples.chunks_exact_mut(w));
    // Exact `f64` pixel counters: no integer-to-float convert per pixel.
    let mut py = 0.0;
    for (row, row_samples) in rows {
        let map = motion.row(py - cy);
        py += 1.0;
        let mut px = 0.0;
        for (pixel, slot) in row.iter_mut().zip(row_samples) {
            let (mx, my) = map.at(px - cx);
            px += 1.0;
            let (sx, sy) = (mx + cx, my + cy);
            // No early exit: a sample outside the source reads pixel
            // (0, 0), and NaN and black replace it.
            let inside = in_source(sx, sy, xmax, ymax);
            let v = interpolate(
                src,
                if inside { sx } else { 0.0 },
                if inside { sy } else { 0.0 },
            );
            valid += usize::from(inside);
            *slot = if inside { v } else { f64::NAN };
            *pixel = warped_pixel(inside.then_some(v));
        }
    }
    valid
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::geometry::Point;
    use vip_video::rng::XorShift64;

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

    /// Values where truncation, rounding or saturation could go wrong,
    /// plus a seeded sweep: random bit patterns (every magnitude, NaN and
    /// infinities included) and uniform values over the pixel range.
    fn cast_inputs() -> Vec<f64> {
        let mut values = vec![
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.5,
            -0.4,
            -0.6,
            -1.5,
            0.4999999999999999,
            0.49999999999999994,
            0.5,
            0.5000000000000001,
            1.0 - f64::EPSILON / 2.0,
            1.5,
            2.5,
            7.999,
            1e6,
            1e300,
            -1e300,
            4_503_599_627_370_495.5,
            9_007_199_254_740_993.0,
            9_223_372_036_854_774_784.0,
            9_223_372_036_854_775_808.0,
            18_446_744_073_709_551_616.0,
        ];
        for max in [1u32, 175, 255] {
            let m = f64::from(max);
            // The largest f64 below the tie `m - 0.5`, where the
            // `v - t >= 0.5` test decides the result.
            let below_tie = f64::from_bits((m - 0.5).to_bits() - 1);
            values.extend([below_tie, m - 0.5, m - 0.1, m, m + 0.4, m + 0.5, m + 1.0]);
        }
        assert!(values.contains(&254.49999999999997));
        assert!(values.contains(&174.49999999999997));
        let mut rng = XorShift64::new(0x0ca5_7e57);
        values.extend((0..4000).map(|_| f64::from_bits(rng.next_u64())));
        values.extend((0..4000).map(|_| rng.uniform(-3.0, 300.0)));
        values.extend((-40..=2600).map(|i| f64::from(i) * 0.1));
        values
    }

    #[test]
    fn floor_index_matches_floor_on_the_sampled_range() {
        for v in cast_inputs() {
            if v >= 9_223_372_036_854_775_808.0 {
                assert_eq!(floor_index(v), i64::MAX as usize, "v = {v:e}");
                continue;
            }
            assert_eq!(floor_index(v), v as usize, "v = {v:e}");
            if v >= 0.0 {
                assert_eq!(floor_index(v), v.floor() as usize, "v = {v:e}");
            }
        }
    }

    #[test]
    fn round_clamped_matches_round_then_clamp() {
        for v in cast_inputs() {
            for max in [0usize, 1, 175, 255, 1 << 40] {
                let want = v.round().clamp(0.0, max as f64) as usize;
                assert_eq!(round_clamped(v, max), want, "v = {v:e}, max = {max}");
            }
        }
    }

    /// A seeded frame with no two neighbours alike, so every bilinear
    /// weight shows in the sample.
    fn seeded_frame(dims: Dims, seed: u64) -> Frame {
        let mut rng = XorShift64::new(seed);
        Frame::from_fn(dims, |_| Pixel::from_luma((rng.next_u64() % 256) as u8))
    }

    /// Seeded translational, affine and perspective motions, ones that
    /// map partly or wholly outside the source, and a NaN motion (its
    /// samples are NaN but count as inside, as `sample_bilinear` has it).
    fn reference_motions(dims: Dims) -> Vec<Motion> {
        let (w, h) = (dims.width as f64, dims.height as f64);
        let mut rng = XorShift64::new(0x2403_1699 ^ (dims.width * 1000 + dims.height) as u64);
        let mut motions = vec![
            Motion::identity(),
            Motion::translation(w / 2.0 + 0.25, -h / 3.0),
            Motion::translation(w + 1.0, 0.0),
            Motion::similarity(3.0, 0.4, 0.0, 0.0),
            Motion {
                h: [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.2, -0.3],
            },
            Motion { h: [f64::NAN; 8] },
        ];
        for _ in 0..4 {
            let mut u = |lo: f64, hi: f64| rng.uniform(lo, hi);
            motions.push(Motion::translation(u(-3.0, 3.0), u(-3.0, 3.0)));
            motions.push(Motion::affine([
                u(-4.0, 4.0),
                u(0.9, 1.1),
                u(-0.1, 0.1),
                u(-4.0, 4.0),
                u(-0.1, 0.1),
                u(0.9, 1.1),
            ]));
            let mut h = Motion::similarity(u(0.9, 1.1), u(-0.1, 0.1), u(-4.0, 4.0), u(-4.0, 4.0)).h;
            h[6] = u(-2e-3, 2e-3);
            h[7] = u(-2e-3, 2e-3);
            motions.push(Motion { h });
        }
        motions
    }

    #[test]
    fn warp_into_matches_the_per_pixel_reference() {
        for (w, h) in [(1, 1), (1, 9), (9, 1), (37, 5), (176, 144)] {
            let dims = Dims::new(w, h);
            let src = seeded_frame(dims, 0x5eed ^ (w * 1000 + h) as u64);
            let (cx, cy) = centre_of(dims);
            let mut out = Frame::new(dims);
            let mut samples = vec![0.0; src.pixel_count()];
            for motion in reference_motions(dims) {
                let valid = warp_into(&src, &motion, &mut out, &mut samples);
                let mut want_valid = 0;
                for (i, (&got, px)) in samples.iter().zip(out.pixels()).enumerate() {
                    let (px_x, px_y) = (i % w, i / w);
                    let (mx, my) = motion.apply(px_x as f64 - cx, px_y as f64 - cy);
                    let sample = sample_bilinear(&src, mx + cx, my + cy);
                    want_valid += usize::from(sample.is_some());
                    let case = format!("{w}x{h} {motion} at ({px_x}, {px_y})");
                    let want = sample.unwrap_or(f64::NAN);
                    assert_eq!(got.to_bits(), want.to_bits(), "{case}: sample");
                    assert_eq!(*px, warped_pixel(sample), "{case}: pixel");
                }
                assert_eq!(valid, want_valid, "{w}x{h} {motion}: valid count");
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
