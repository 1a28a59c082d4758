//! Arithmetic inter-addressing kernels: add, sub, absolute difference,
//! multiply, blend and threshold-difference.
//!
//! These are the "add, sub, mult" sub-functions of §2.2 and the building
//! blocks of difference pictures and SAD (§2.1: *"Its application may be
//! computation of difference pictures or SAD"*).
//!
//! # Examples
//!
//! ```
//! use vip_core::ops::arith::AbsDiff;
//! use vip_core::ops::InterOp;
//! use vip_core::pixel::Pixel;
//!
//! let op = AbsDiff::luma();
//! let d = op.apply(Pixel::from_luma(100), Pixel::from_luma(40));
//! assert_eq!(d.y, 60);
//! ```

use crate::ops::{zip_rows, InterOp};
use crate::pixel::{Channel, ChannelSet, Pixel};

/// `a` with each video channel of `set` replaced by `f` of the two
/// inputs' values; side channels stay `a`'s.
#[inline]
fn zip_video(set: ChannelSet, a: Pixel, b: Pixel, f: impl Fn(u8, u8) -> u8) -> Pixel {
    let mut out = a;
    if set.contains(Channel::Y) {
        out.y = f(a.y, b.y);
    }
    if set.contains(Channel::U) {
        out.u = f(a.u, b.u);
    }
    if set.contains(Channel::V) {
        out.v = f(a.v, b.v);
    }
    out
}

/// Saturating per-channel addition of two pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Add {
    channels: ChannelSet,
}

impl Add {
    /// Addition on the luminance channel only.
    #[must_use]
    pub const fn luma() -> Self {
        Add {
            channels: ChannelSet::Y,
        }
    }

    /// Addition on Y, U and V.
    #[must_use]
    pub const fn yuv() -> Self {
        Add {
            channels: ChannelSet::YUV,
        }
    }
}

impl InterOp for Add {
    fn name(&self) -> &'static str {
        "add"
    }
    fn input_channels(&self) -> ChannelSet {
        self.channels
    }
    fn output_channels(&self) -> ChannelSet {
        self.channels
    }
    fn apply(&self, a: Pixel, b: Pixel) -> Pixel {
        zip_video(self.channels, a, b, u8::saturating_add)
    }
}

/// Saturating per-channel subtraction `a − b` (clamped at zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sub {
    channels: ChannelSet,
}

impl Sub {
    /// Subtraction on the luminance channel only.
    #[must_use]
    pub const fn luma() -> Self {
        Sub {
            channels: ChannelSet::Y,
        }
    }

    /// Subtraction on Y, U and V.
    #[must_use]
    pub const fn yuv() -> Self {
        Sub {
            channels: ChannelSet::YUV,
        }
    }
}

impl InterOp for Sub {
    fn name(&self) -> &'static str {
        "sub"
    }
    fn input_channels(&self) -> ChannelSet {
        self.channels
    }
    fn output_channels(&self) -> ChannelSet {
        self.channels
    }
    fn apply(&self, a: Pixel, b: Pixel) -> Pixel {
        zip_video(self.channels, a, b, u8::saturating_sub)
    }
}

/// Per-channel absolute difference |a − b|: the difference-picture kernel
/// and the per-pixel term of SAD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsDiff {
    channels: ChannelSet,
}

impl AbsDiff {
    /// Absolute difference on luminance only (the Table 2 "Inter Y Y" call).
    #[must_use]
    pub const fn luma() -> Self {
        AbsDiff {
            channels: ChannelSet::Y,
        }
    }

    /// Absolute difference on Y, U and V.
    #[must_use]
    pub const fn yuv() -> Self {
        AbsDiff {
            channels: ChannelSet::YUV,
        }
    }
}

impl InterOp for AbsDiff {
    fn name(&self) -> &'static str {
        "absdiff"
    }
    fn input_channels(&self) -> ChannelSet {
        self.channels
    }
    fn output_channels(&self) -> ChannelSet {
        self.channels
    }
    fn apply(&self, a: Pixel, b: Pixel) -> Pixel {
        zip_video(self.channels, a, b, u8::abs_diff)
    }

    fn apply_row(&self, a: &[Pixel], b: &[Pixel], out: &mut Vec<Pixel>) {
        // `apply` keeps every channel outside the video channels it
        // writes, so its result is the stored pixel.
        if self.channels == ChannelSet::Y {
            zip_rows(a, b, out, |a, b| a.y.abs_diff(b.y), |px, d| px.y = d);
        } else {
            zip_rows(a, b, out, |&a, &b| self.apply(a, b), |px, d| *px = d);
        }
    }
}

/// Per-channel product scaled back to 8 bits (`a·b / 255`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mult {
    channels: ChannelSet,
}

impl Mult {
    /// Multiplication on luminance only.
    #[must_use]
    pub const fn luma() -> Self {
        Mult {
            channels: ChannelSet::Y,
        }
    }
}

impl InterOp for Mult {
    fn name(&self) -> &'static str {
        "mult"
    }
    fn input_channels(&self) -> ChannelSet {
        self.channels
    }
    fn output_channels(&self) -> ChannelSet {
        self.channels
    }
    fn apply(&self, a: Pixel, b: Pixel) -> Pixel {
        zip_video(self.channels, a, b, |x, y| {
            (u16::from(x) * u16::from(y) / 255) as u8
        })
    }
}

/// Fixed-point blend `(w·a + (256−w)·b) / 256` on the video channels;
/// used by mosaicing to accumulate warped frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blend {
    weight: u16,
}

impl Blend {
    /// Creates a blend with weight `w/256` on the first operand.
    ///
    /// `weight` saturates at 256 (pure first operand).
    #[must_use]
    pub fn new(weight: u16) -> Self {
        Blend {
            weight: weight.min(256),
        }
    }

    /// Equal-weight average of both operands.
    #[must_use]
    pub fn average() -> Self {
        Blend::new(128)
    }
}

impl InterOp for Blend {
    fn name(&self) -> &'static str {
        "blend"
    }
    fn input_channels(&self) -> ChannelSet {
        ChannelSet::YUV
    }
    fn output_channels(&self) -> ChannelSet {
        ChannelSet::YUV
    }
    fn apply(&self, a: Pixel, b: Pixel) -> Pixel {
        let w = u32::from(self.weight);
        zip_video(ChannelSet::YUV, a, b, |x, y| {
            ((w * u32::from(x) + (256 - w) * u32::from(y)) >> 8) as u8
        })
    }
}

/// Binary change detector: luminance difference thresholded into the alpha
/// channel (255·mask semantics: alpha = 1 where |Δy| > threshold).
///
/// This is the classic surveillance difference-picture primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeMask {
    threshold: u8,
}

impl ChangeMask {
    /// Creates a change detector with the given luminance threshold.
    #[must_use]
    pub const fn new(threshold: u8) -> Self {
        ChangeMask { threshold }
    }

    /// The configured threshold.
    #[must_use]
    pub const fn threshold(&self) -> u8 {
        self.threshold
    }

    /// Writes the luminance difference `d` and its mask bit.
    fn store(&self, px: &mut Pixel, d: u8) {
        px.y = d;
        px.alpha = u16::from(d > self.threshold);
    }
}

impl InterOp for ChangeMask {
    fn name(&self) -> &'static str {
        "change_mask"
    }
    fn input_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn output_channels(&self) -> ChannelSet {
        ChannelSet::Y.union(ChannelSet::ALPHA)
    }
    fn apply(&self, a: Pixel, b: Pixel) -> Pixel {
        let mut out = a;
        self.store(&mut out, a.y.abs_diff(b.y));
        out
    }

    fn apply_row(&self, a: &[Pixel], b: &[Pixel], out: &mut Vec<Pixel>) {
        zip_rows(
            a,
            b,
            out,
            |a, b| a.y.abs_diff(b.y),
            |px, d| self.store(px, d),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Pixel = Pixel::new(200, 100, 50, 7, 9);
    const B: Pixel = Pixel::new(100, 30, 250, 1, 2);

    #[test]
    fn add_saturates() {
        let out = Add::yuv().apply(A, B);
        assert_eq!((out.y, out.u, out.v), (255, 130, 255));
        // Side channels untouched, taken from a.
        assert_eq!((out.alpha, out.aux), (7, 9));
    }

    #[test]
    fn add_luma_only_leaves_chroma() {
        let out = Add::luma().apply(A, B);
        assert_eq!(out.y, 255);
        assert_eq!((out.u, out.v), (100, 50));
    }

    #[test]
    fn sub_clamps_at_zero() {
        let out = Sub::yuv().apply(A, B);
        assert_eq!((out.y, out.u, out.v), (100, 70, 0));
        assert_eq!(Sub::luma().name(), "sub");
    }

    #[test]
    fn absdiff_symmetric() {
        let d1 = AbsDiff::yuv().apply(A, B);
        let d2 = AbsDiff::yuv().apply(B, A);
        assert_eq!((d1.y, d1.u, d1.v), (d2.y, d2.u, d2.v));
        assert_eq!((d1.y, d1.u, d1.v), (100, 70, 200));
    }

    #[test]
    fn absdiff_identity_is_zero() {
        let d = AbsDiff::yuv().apply(A, A);
        assert_eq!((d.y, d.u, d.v), (0, 0, 0));
    }

    #[test]
    fn mult_scales_to_8bit() {
        let out = Mult::luma().apply(Pixel::from_luma(255), Pixel::from_luma(255));
        assert_eq!(out.y, 255);
        let half = Mult::luma().apply(Pixel::from_luma(128), Pixel::from_luma(255));
        assert_eq!(half.y, 128);
        let zero = Mult::luma().apply(Pixel::from_luma(0), Pixel::from_luma(255));
        assert_eq!(zero.y, 0);
    }

    #[test]
    fn blend_extremes_and_average() {
        let full_a = Blend::new(256).apply(A, B);
        assert_eq!(full_a.y, A.y);
        let full_b = Blend::new(0).apply(A, B);
        assert_eq!(full_b.y, B.y);
        let avg = Blend::average().apply(Pixel::from_luma(100), Pixel::from_luma(200));
        assert_eq!(avg.y, 150);
        assert_eq!(Blend::new(9999).apply(A, B).y, A.y, "weight saturates");
    }

    #[test]
    fn change_mask_thresholds_into_alpha() {
        let op = ChangeMask::new(10);
        assert_eq!(op.threshold(), 10);
        let hit = op.apply(Pixel::from_luma(50), Pixel::from_luma(10));
        assert_eq!((hit.y, hit.alpha), (40, 1));
        let miss = op.apply(Pixel::from_luma(50), Pixel::from_luma(45));
        assert_eq!((miss.y, miss.alpha), (5, 0));
    }

    #[test]
    fn channel_declarations() {
        assert_eq!(AbsDiff::luma().input_channels(), ChannelSet::Y);
        assert_eq!(AbsDiff::yuv().output_channels(), ChannelSet::YUV);
        assert_eq!(
            ChangeMask::new(1).output_channels().len(),
            2,
            "change mask writes Y and alpha"
        );
        assert_eq!(Add::luma().input_channels(), ChannelSet::Y);
        assert_eq!(Blend::average().input_channels(), ChannelSet::YUV);
        assert_eq!(Mult::luma().input_channels(), ChannelSet::Y);
    }
}
