//! Point operations: look-up tables, thresholding, contrast and gamma —
//! the simplest stage-3 sub-functions (CON_0 intra calls).
//!
//! These are the "statically configurable" per-pixel transforms that the
//! dynamically reconfigurable processing block of the §5 outlook would
//! swap in and out.
//!
//! # Examples
//!
//! ```
//! use vip_core::ops::lut::Threshold;
//! use vip_core::ops::IntraOp;
//! use vip_core::frame::Frame;
//! use vip_core::geometry::{Dims, Point};
//! use vip_core::neighborhood::Window;
//! use vip_core::pixel::Pixel;
//!
//! let f = Frame::filled(Dims::new(4, 4), Pixel::from_luma(200));
//! let op = Threshold::binary(128);
//! let w = Window::gather(&f, Point::new(1, 1), op.shape());
//! assert_eq!(op.apply(&w).y, 255);
//! ```

use crate::neighborhood::{Connectivity, Window};
use crate::ops::IntraOp;
use crate::pixel::{ChannelSet, Pixel};

/// An arbitrary 256-entry luminance look-up table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LumaLut {
    name: &'static str,
    table: Box<[u8; 256]>,
}

impl LumaLut {
    /// Builds a LUT from a function of the input luminance.
    #[must_use]
    pub fn from_fn(name: &'static str, f: impl Fn(u8) -> u8) -> Self {
        let mut table = Box::new([0u8; 256]);
        for (i, out) in table.iter_mut().enumerate() {
            *out = f(i as u8);
        }
        LumaLut { name, table }
    }

    /// The identity LUT.
    #[must_use]
    pub fn identity() -> Self {
        LumaLut::from_fn("lut_identity", |v| v)
    }

    /// Inversion (negative image).
    #[must_use]
    pub fn invert() -> Self {
        LumaLut::from_fn("lut_invert", |v| 255 - v)
    }

    /// Gamma correction with the given exponent.
    #[must_use]
    pub fn gamma(gamma: f64) -> Self {
        let g = gamma.max(1e-3);
        LumaLut::from_fn("lut_gamma", move |v| {
            (255.0 * (f64::from(v) / 255.0).powf(g)).round() as u8
        })
    }

    /// Linear contrast stretch mapping `[low, high]` to `[0, 255]`.
    #[must_use]
    pub fn stretch(low: u8, high: u8) -> Self {
        let lo = f64::from(low.min(high));
        let hi = f64::from(high.max(low)).max(lo + 1.0);
        LumaLut::from_fn("lut_stretch", move |v| {
            (255.0 * (f64::from(v) - lo) / (hi - lo)).clamp(0.0, 255.0) as u8
        })
    }

    /// Scales and offsets the luminance: `y' = clamp(y·num/den + offset)`
    /// in `i32` arithmetic with `den` clamped to at least 1 — the
    /// fixed-point "mult/add" combination of §2.2.
    #[must_use]
    pub fn scale_offset(num: i32, den: i32, offset: i32) -> Self {
        let den = den.max(1);
        LumaLut::from_fn("lut_scale_offset", move |v| {
            (i32::from(v) * num / den + offset).clamp(0, 255) as u8
        })
    }

    /// The mapped value for `input`.
    #[must_use]
    pub fn map(&self, input: u8) -> u8 {
        self.table[input as usize]
    }
}

impl IntraOp for LumaLut {
    fn name(&self) -> &'static str {
        self.name
    }
    fn shape(&self) -> Connectivity {
        Connectivity::Con0
    }
    fn input_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn output_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn apply(&self, window: &Window) -> Pixel {
        let mut out = window.centre_pixel();
        out.y = self.map(out.y);
        out
    }
}

/// Luminance thresholding with configurable output values, also writing
/// the binary decision into the alpha channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threshold {
    threshold: u8,
    below: u8,
    above: u8,
}

impl Threshold {
    /// Classic binarisation: below → 0, at/above → 255.
    #[must_use]
    pub const fn binary(threshold: u8) -> Self {
        Threshold {
            threshold,
            below: 0,
            above: 255,
        }
    }

    /// Threshold with custom output levels.
    #[must_use]
    pub const fn with_levels(threshold: u8, below: u8, above: u8) -> Self {
        Threshold {
            threshold,
            below,
            above,
        }
    }

    /// The threshold value.
    #[must_use]
    pub const fn threshold(&self) -> u8 {
        self.threshold
    }
}

impl IntraOp for Threshold {
    fn name(&self) -> &'static str {
        "threshold"
    }
    fn shape(&self) -> Connectivity {
        Connectivity::Con0
    }
    fn input_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn output_channels(&self) -> ChannelSet {
        ChannelSet::Y.union(ChannelSet::ALPHA)
    }
    fn apply(&self, window: &Window) -> Pixel {
        let mut out = window.centre_pixel();
        let above = out.y >= self.threshold;
        out.y = if above { self.above } else { self.below };
        out.alpha = u16::from(above);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::geometry::{Dims, Point};

    fn apply_at(op: &impl IntraOp, luma: u8) -> Pixel {
        let f = Frame::filled(Dims::new(3, 3), Pixel::from_luma(luma).with_aux(7));
        let w = Window::gather(&f, Point::new(1, 1), op.shape());
        op.apply(&w)
    }

    #[test]
    fn identity_lut() {
        let lut = LumaLut::identity();
        for v in [0u8, 1, 127, 255] {
            assert_eq!(lut.map(v), v);
        }
        assert_eq!(apply_at(&lut, 99).y, 99);
    }

    #[test]
    fn invert_lut_is_involution() {
        let lut = LumaLut::invert();
        for v in 0..=255u8 {
            assert_eq!(lut.map(lut.map(v)), v);
        }
        assert_eq!(lut.map(0), 255);
    }

    #[test]
    fn gamma_brightens_or_darkens() {
        let bright = LumaLut::gamma(0.5);
        let dark = LumaLut::gamma(2.0);
        assert!(bright.map(64) > 64);
        assert!(dark.map(64) < 64);
        // End points fixed.
        for lut in [&bright, &dark] {
            assert_eq!(lut.map(0), 0);
            assert_eq!(lut.map(255), 255);
        }
    }

    #[test]
    fn stretch_maps_band_to_full_range() {
        let lut = LumaLut::stretch(50, 200);
        assert_eq!(lut.map(50), 0);
        assert_eq!(lut.map(200), 255);
        assert_eq!(lut.map(20), 0, "clamped below");
        assert_eq!(lut.map(240), 255, "clamped above");
        let mid = lut.map(125);
        assert!(mid > 100 && mid < 155);
        // Degenerate band does not divide by zero.
        let d = LumaLut::stretch(100, 100);
        let _ = d.map(100);
    }

    #[test]
    fn threshold_binary_and_alpha() {
        let op = Threshold::binary(128);
        assert_eq!(op.threshold(), 128);
        let above = apply_at(&op, 200);
        assert_eq!((above.y, above.alpha), (255, 1));
        let below = apply_at(&op, 100);
        assert_eq!((below.y, below.alpha), (0, 0));
        let edge = apply_at(&op, 128);
        assert_eq!(edge.alpha, 1, "threshold is inclusive above");
    }

    #[test]
    fn threshold_custom_levels() {
        let op = Threshold::with_levels(100, 10, 20);
        assert_eq!(apply_at(&op, 50).y, 10);
        assert_eq!(apply_at(&op, 150).y, 20);
    }

    #[test]
    fn scale_offset_clamps() {
        assert_eq!(apply_at(&LumaLut::scale_offset(2, 1, 0), 200).y, 255);
        assert_eq!(apply_at(&LumaLut::scale_offset(1, 2, 0), 100).y, 50);
        assert_eq!(apply_at(&LumaLut::scale_offset(1, 1, -50), 30).y, 0);
        assert_eq!(apply_at(&LumaLut::scale_offset(1, 1, 20), 30).y, 50);
        // Zero denominator clamps to 1.
        assert_eq!(apply_at(&LumaLut::scale_offset(3, 0, 0), 10).y, 30);
    }

    #[test]
    fn scale_offset_lut_matches_the_fixed_point_formula() {
        let triples = [
            (1, 1, 0),
            (2, 1, 0),
            (1, 2, 0),
            (3, 2, -10),
            (1, 1, 20),
            (-1, 1, 255),
            (7, 3, 300),
            (3, 0, 0),
            (5, -4, 7),
            (-2, -1, 100),
        ];
        for (num, den, offset) in triples {
            let lut = LumaLut::scale_offset(num, den, offset);
            for y in 0..=255u8 {
                let expected = (i32::from(y) * num / den.max(1) + offset).clamp(0, 255) as u8;
                assert_eq!(lut.map(y), expected, "({num}, {den}, {offset}) at {y}");
            }
        }
    }

    #[test]
    fn point_ops_preserve_other_channels() {
        for op in [
            &Threshold::binary(1) as &dyn IntraOp,
            &LumaLut::scale_offset(1, 1, 5),
        ] {
            let out = apply_at(&op, 100);
            assert_eq!(out.aux, 7, "{}", op.name());
            assert_eq!((out.u, out.v), (128, 128));
        }
    }

    #[test]
    fn all_are_con0() {
        assert_eq!(LumaLut::identity().shape(), Connectivity::Con0);
        assert_eq!(Threshold::binary(0).shape(), Connectivity::Con0);
        assert_eq!(LumaLut::scale_offset(1, 1, 0).shape(), Connectivity::Con0);
        assert_eq!(Threshold::binary(0).output_channels().len(), 2);
    }

    #[test]
    fn works_through_whole_frame_call() {
        let f = Frame::from_fn(Dims::new(8, 8), |p| Pixel::from_luma((p.x * 30) as u8));
        let r = crate::addressing::intra::run_intra(&f, &LumaLut::invert()).unwrap();
        assert_eq!(r.output.get(Point::new(0, 0)).y, 255);
        assert_eq!(r.report.counter.total(), 2 * 64, "CON_0 accounting");
    }
}
