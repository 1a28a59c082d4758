//! FIR-filter-like intra kernels: convolution, box blur, binomial smoothing
//! and gradient operators.
//!
//! §2.1 of the paper names *"FIR filter like operations, as gradient
//! operators"* as the canonical intra-addressing workload, and §3.5 lists
//! *"gradient, histogram, different filterings"* as stage-3 operations.
//!
//! # Examples
//!
//! ```
//! use vip_core::ops::filter::SobelGradient;
//! use vip_core::ops::IntraOp;
//! use vip_core::frame::Frame;
//! use vip_core::geometry::{Dims, Point};
//! use vip_core::neighborhood::Window;
//! use vip_core::pixel::Pixel;
//!
//! // Vertical edge: columns 0..2 dark, columns 3..4 bright.
//! let f = Frame::from_fn(Dims::new(5, 5), |p| Pixel::from_luma(if p.x < 3 { 0 } else { 200 }));
//! let w = Window::gather(&f, Point::new(2, 2), SobelGradient::new().shape());
//! let g = SobelGradient::new().apply(&w);
//! assert!(g.y > 0, "edge must produce gradient response");
//! ```

use crate::error::{CoreError, CoreResult};
use crate::geometry::Point;
use crate::neighborhood::{Connectivity, Window, MAX_RADIUS};
use crate::ops::{sweep_3x3, IntraOp};
use crate::pixel::{ChannelSet, Pixel};

/// A general odd-sized separable-or-not 2-D convolution on the luminance
/// channel, with integer taps and a power-of-two-free divisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Convolution {
    name: &'static str,
    radius: usize,
    /// Row-major taps of the `(2r+1)²` window.
    taps: Vec<i32>,
    /// Result divisor (≥ 1).
    divisor: i32,
    /// Added before dividing (for rounding or bias).
    offset: i32,
}

impl Convolution {
    /// Creates a convolution kernel.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `taps.len()` is not
    /// `(2·radius+1)²`, when `radius > 4` (the nine-line limit of §3.1), or
    /// when `divisor` is zero.
    pub fn new(
        name: &'static str,
        radius: usize,
        taps: Vec<i32>,
        divisor: i32,
        offset: i32,
    ) -> CoreResult<Self> {
        if radius > MAX_RADIUS {
            return Err(CoreError::InvalidParameter {
                name: "radius",
                reason: "neighbourhood may span at most nine lines (radius 4)",
            });
        }
        let side = 2 * radius + 1;
        if taps.len() != side * side {
            return Err(CoreError::InvalidParameter {
                name: "taps",
                reason: "tap count must be (2*radius+1)^2",
            });
        }
        if divisor == 0 {
            return Err(CoreError::InvalidParameter {
                name: "divisor",
                reason: "divisor must be non-zero",
            });
        }
        Ok(Convolution {
            name,
            radius,
            taps,
            divisor,
            offset,
        })
    }

    /// The kernel radius.
    #[must_use]
    pub const fn radius(&self) -> usize {
        self.radius
    }

    fn tap(&self, dx: i32, dy: i32) -> i32 {
        let side = (2 * self.radius + 1) as i32;
        let r = self.radius as i32;
        self.taps[((dy + r) * side + (dx + r)) as usize]
    }
}

impl IntraOp for Convolution {
    fn name(&self) -> &'static str {
        self.name
    }
    fn shape(&self) -> Connectivity {
        match self.radius {
            0 => Connectivity::Con0,
            1 => Connectivity::Con8,
            r => Connectivity::Square(r as u8),
        }
    }
    fn input_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn output_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn apply(&self, window: &Window) -> Pixel {
        let mut acc: i32 = 0;
        for (off, px) in window.iter() {
            acc += self.tap(off.x, off.y) * i32::from(px.y);
        }
        let val = ((acc + self.offset) / self.divisor).clamp(0, 255);
        let mut out = window.centre_pixel();
        out.y = val as u8;
        out
    }
}

/// Box blur: uniform average over the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoxBlur {
    radius: usize,
}

impl BoxBlur {
    /// 3×3 box blur (the `CON_8` window).
    #[must_use]
    pub const fn con8() -> Self {
        BoxBlur { radius: 1 }
    }

    /// Box blur with an arbitrary radius.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `radius > 4`.
    pub fn with_radius(radius: usize) -> CoreResult<Self> {
        if radius > MAX_RADIUS {
            return Err(CoreError::InvalidParameter {
                name: "radius",
                reason: "neighbourhood may span at most nine lines (radius 4)",
            });
        }
        Ok(BoxBlur { radius })
    }
}

impl IntraOp for BoxBlur {
    fn name(&self) -> &'static str {
        "box_blur"
    }
    fn shape(&self) -> Connectivity {
        match self.radius {
            0 => Connectivity::Con0,
            1 => Connectivity::Con8,
            r => Connectivity::Square(r as u8),
        }
    }
    fn input_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn output_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn apply(&self, window: &Window) -> Pixel {
        let n = window.len().max(1) as u32;
        let sum: u32 = window.pixels().map(|p| u32::from(p.y)).sum();
        let mut out = window.centre_pixel();
        out.y = ((sum + n / 2) / n) as u8;
        out
    }
}

/// 3×3 binomial (Gaussian-approximating) smoothing: taps 1-2-1 ⊗ 1-2-1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Binomial3;

impl Binomial3 {
    /// Creates the 3×3 binomial filter.
    #[must_use]
    pub const fn new() -> Self {
        Binomial3
    }
}

impl IntraOp for Binomial3 {
    fn name(&self) -> &'static str {
        "binomial3"
    }
    fn shape(&self) -> Connectivity {
        Connectivity::Con8
    }
    fn input_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn output_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn apply(&self, window: &Window) -> Pixel {
        const TAPS: [[u32; 3]; 3] = [[1, 2, 1], [2, 4, 2], [1, 2, 1]];
        // Nine O(1) reads at the constant CON_8 offsets; the weight counts
        // only the samples the window holds.
        let mut acc = 0u32;
        let mut weight = 0u32;
        for dy in -1..=1 {
            for dx in -1..=1 {
                if let Some(px) = window.sample(Point::new(dx, dy)) {
                    let t = TAPS[(dy + 1) as usize][(dx + 1) as usize];
                    acc += t * u32::from(px.y);
                    weight += t;
                }
            }
        }
        let mut out = window.centre_pixel();
        out.y = ((acc + weight / 2) / weight.max(1)) as u8;
        out
    }

    fn apply_row(&self, lines: &[&[Pixel]], _y: i32, out: &mut Vec<Pixel>) {
        // Columns 1-2-1, then 1-2-1 across them. A loaded window holds
        // all nine samples, so the weight is always 16.
        sweep_3x3(
            lines,
            out,
            |a, b, c| u32::from(a.y) + 2 * u32::from(b.y) + u32::from(c.y),
            |l, m, r| ((l + 2 * m + r + 8) / 16) as u8,
            |px, y| px.y = y,
        );
    }
}

/// Sobel gradient magnitude (|Gx| + |Gy|, the cheap L1 norm the hardware
/// favours), written to luminance; the raw magnitude (unclamped) goes to
/// the aux channel for downstream thresholding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SobelGradient;

impl SobelGradient {
    /// Creates the Sobel gradient operator.
    #[must_use]
    pub const fn new() -> Self {
        SobelGradient
    }

    /// Raw signed Sobel responses `(gx, gy)` for a window; a sample the
    /// window does not hold counts as 0.
    #[must_use]
    pub fn responses(window: &Window) -> (i32, i32) {
        // Eight O(1) reads at constant offsets; the centre has no weight.
        let y = |dx, dy| {
            window
                .sample(Point::new(dx, dy))
                .map_or(0, |px| i32::from(px.y))
        };
        let (nw, n, ne) = (y(-1, -1), y(0, -1), y(1, -1));
        let (w, e) = (y(-1, 0), y(1, 0));
        let (sw, s, se) = (y(-1, 1), y(0, 1), y(1, 1));
        let gx = (ne + 2 * e + se) - (nw + 2 * w + sw);
        let gy = (sw + 2 * s + se) - (nw + 2 * n + ne);
        (gx, gy)
    }

    /// Writes the L1 magnitude `mag` of a response pair to luminance
    /// (clamped to 255) and aux.
    fn store(px: &mut Pixel, mag: u16) {
        px.y = mag.min(255) as u8;
        px.aux = mag;
    }
}

impl IntraOp for SobelGradient {
    fn name(&self) -> &'static str {
        "sobel"
    }
    fn shape(&self) -> Connectivity {
        Connectivity::Con8
    }
    fn input_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn output_channels(&self) -> ChannelSet {
        ChannelSet::Y.union(ChannelSet::AUX)
    }
    fn apply(&self, window: &Window) -> Pixel {
        let (gx, gy) = SobelGradient::responses(window);
        let mag = gx.unsigned_abs() + gy.unsigned_abs();
        let mut out = window.centre_pixel();
        SobelGradient::store(&mut out, mag.min(u32::from(u16::MAX)) as u16);
        out
    }

    fn apply_row(&self, lines: &[&[Pixel]], _y: i32, out: &mut Vec<Pixel>) {
        // Column `(n + 2c + s, s − n)`; then gx is the right column's sum
        // minus the left one's and gy the 1-2-1 sum of the differences.
        // Every term fits an i16 and the magnitude (at most 2040) a u16.
        sweep_3x3(
            lines,
            out,
            |a, b, c| {
                let (a, b, c) = (i16::from(a.y), i16::from(b.y), i16::from(c.y));
                (a + 2 * b + c, c - a)
            },
            |(s0, d0), (_, d1), (s2, d2)| {
                (s2 - s0).unsigned_abs() + (d0 + 2 * d1 + d2).unsigned_abs()
            },
            SobelGradient::store,
        );
    }
}

/// Central-difference gradient pair: `gx → y`, `gy → aux` as *signed*
/// values biased by 128/32768. Used by the global motion estimator, which
/// needs signed spatial derivatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CentralGradient;

impl CentralGradient {
    /// Creates the central-difference gradient operator.
    #[must_use]
    pub const fn new() -> Self {
        CentralGradient
    }

    /// Bias added to the signed x-gradient when stored in `y`.
    pub const X_BIAS: i32 = 128;
    /// Bias added to the signed y-gradient when stored in `aux`.
    pub const Y_BIAS: i32 = 32_768;

    /// Recovers the signed `(gx, gy)` pair from an output pixel.
    #[must_use]
    pub fn decode(px: Pixel) -> (i32, i32) {
        (
            i32::from(px.y) - Self::X_BIAS,
            i32::from(px.aux) - Self::Y_BIAS,
        )
    }

    /// Writes the biased `(gx, gy)` pair to luminance and aux, the
    /// inverse of [`CentralGradient::decode`] within range.
    fn store(px: &mut Pixel, (gx, gy): (i32, i32)) {
        px.y = (gx + Self::X_BIAS).clamp(0, 255) as u8;
        px.aux = (gy + Self::Y_BIAS).clamp(0, 65_535) as u16;
    }
}

impl IntraOp for CentralGradient {
    fn name(&self) -> &'static str {
        "central_gradient"
    }
    fn shape(&self) -> Connectivity {
        Connectivity::Con4
    }
    fn input_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn output_channels(&self) -> ChannelSet {
        ChannelSet::Y.union(ChannelSet::AUX)
    }
    fn apply(&self, window: &Window) -> Pixel {
        let centre = window.centre_pixel();
        let sample = |dx: i32, dy: i32| {
            window
                .sample(crate::geometry::Point::new(dx, dy))
                .unwrap_or(centre)
        };
        let gx = (i32::from(sample(1, 0).y) - i32::from(sample(-1, 0).y)) / 2;
        let gy = (i32::from(sample(0, 1).y) - i32::from(sample(0, -1).y)) / 2;
        let mut out = centre;
        Self::store(&mut out, (gx, gy));
        out
    }

    fn apply_row(&self, lines: &[&[Pixel]], _y: i32, out: &mut Vec<Pixel>) {
        // Column `(c, s − n)`: gx differences the left and right columns'
        // centres, gy is the centre column's difference.
        sweep_3x3(
            lines,
            out,
            |a, b, c| (i16::from(b.y), i16::from(c.y) - i16::from(a.y)),
            |(l, _), (_, d), (r, _)| ((r - l) / 2, d / 2),
            |px, (gx, gy)| Self::store(px, (i32::from(gx), i32::from(gy))),
        );
    }
}

/// Identity intra kernel on a `CON_0` window: copies the centre pixel.
///
/// This is the Table 2 "Intra CON_0" call — useful as a pure copy/transfer
/// workload and as the accounting baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Identity {
    channels: ChannelSet,
}

impl Identity {
    /// Identity on luminance only.
    #[must_use]
    pub const fn luma() -> Self {
        Identity {
            channels: ChannelSet::Y,
        }
    }

    /// Identity on Y, U and V.
    #[must_use]
    pub const fn yuv() -> Self {
        Identity {
            channels: ChannelSet::YUV,
        }
    }
}

impl IntraOp for Identity {
    fn name(&self) -> &'static str {
        "identity"
    }
    fn shape(&self) -> Connectivity {
        Connectivity::Con0
    }
    fn input_channels(&self) -> ChannelSet {
        self.channels
    }
    fn output_channels(&self) -> ChannelSet {
        self.channels
    }
    fn apply(&self, window: &Window) -> Pixel {
        window.centre_pixel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::geometry::{Dims, Point};

    fn window_at(f: &Frame, p: Point, shape: Connectivity) -> Window {
        Window::gather(f, p, shape)
    }

    fn flat(value: u8) -> Frame {
        Frame::filled(Dims::new(5, 5), Pixel::from_luma(value))
    }

    #[test]
    fn convolution_validation() {
        assert!(Convolution::new("bad", 1, vec![1; 8], 1, 0).is_err());
        assert!(Convolution::new("bad", 5, vec![1; 121], 1, 0).is_err());
        assert!(Convolution::new("bad", 1, vec![1; 9], 0, 0).is_err());
        assert!(Convolution::new("ok", 1, vec![1; 9], 9, 0).is_ok());
    }

    #[test]
    fn convolution_flat_image_average() {
        let conv = Convolution::new("avg", 1, vec![1; 9], 9, 4).unwrap();
        let f = flat(90);
        let out = conv.apply(&window_at(&f, Point::new(2, 2), conv.shape()));
        assert_eq!(out.y, 90);
        assert_eq!(conv.radius(), 1);
        assert_eq!(conv.name(), "avg");
    }

    #[test]
    fn convolution_clamps_output() {
        let amplify = Convolution::new("amp", 0, vec![10], 1, 0).unwrap();
        let f = flat(200);
        let out = amplify.apply(&window_at(&f, Point::new(2, 2), amplify.shape()));
        assert_eq!(out.y, 255);
        assert_eq!(amplify.shape(), Connectivity::Con0);
    }

    #[test]
    fn box_blur_preserves_flat_and_smooths_impulse() {
        let b = BoxBlur::con8();
        let f = flat(80);
        assert_eq!(b.apply(&window_at(&f, Point::new(2, 2), b.shape())).y, 80);

        let mut imp = flat(0);
        imp.set(Point::new(2, 2), Pixel::from_luma(90));
        let out = b.apply(&window_at(&imp, Point::new(2, 2), b.shape()));
        assert_eq!(out.y, 10); // 90/9
        assert!(BoxBlur::with_radius(9).is_err());
        assert!(BoxBlur::with_radius(2).is_ok());
    }

    #[test]
    fn binomial_weights_centre_most() {
        let mut imp = flat(0);
        imp.set(Point::new(2, 2), Pixel::from_luma(160));
        let b = Binomial3::new();
        let at_centre = b.apply(&window_at(&imp, Point::new(2, 2), b.shape())).y;
        let at_side = b.apply(&window_at(&imp, Point::new(3, 2), b.shape())).y;
        let at_corner = b.apply(&window_at(&imp, Point::new(3, 3), b.shape())).y;
        assert!(at_centre > at_side && at_side > at_corner);
        assert_eq!(at_centre, 40); // 160·4/16
    }

    #[test]
    fn sobel_zero_on_flat() {
        let s = SobelGradient::new();
        let f = flat(123);
        let out = s.apply(&window_at(&f, Point::new(2, 2), s.shape()));
        assert_eq!(out.y, 0);
        assert_eq!(out.aux, 0);
    }

    #[test]
    fn sobel_detects_vertical_edge() {
        let f = Frame::from_fn(Dims::new(5, 5), |p| {
            Pixel::from_luma(if p.x < 3 { 0 } else { 100 })
        });
        let s = SobelGradient::new();
        let at_edge = s.apply(&window_at(&f, Point::new(2, 2), s.shape()));
        assert_eq!(at_edge.y, 255); // |Gx| = 400, clamped
        assert_eq!(at_edge.aux, 400);
        let off_edge = s.apply(&window_at(&f, Point::new(0, 2), s.shape()));
        assert_eq!(off_edge.y, 0);
    }

    #[test]
    fn sobel_responses_signed() {
        let f = Frame::from_fn(Dims::new(5, 5), |p| Pixel::from_luma((p.y * 10) as u8));
        let w = window_at(&f, Point::new(2, 2), Connectivity::Con8);
        let (gx, gy) = SobelGradient::responses(&w);
        assert_eq!(gx, 0);
        assert_eq!(gy, 80); // 10/line × weight 8
    }

    #[test]
    fn central_gradient_encodes_signed_pair() {
        let f = Frame::from_fn(Dims::new(5, 5), |p| {
            Pixel::from_luma((10 + p.x * 4 - p.y * 2).max(0) as u8)
        });
        let g = CentralGradient::new();
        let out = g.apply(&window_at(&f, Point::new(2, 2), g.shape()));
        let (gx, gy) = CentralGradient::decode(out);
        assert_eq!(gx, 4);
        assert_eq!(gy, -2);
    }

    #[test]
    fn identity_copies_centre() {
        let i = Identity::yuv();
        let f = Frame::filled(Dims::new(3, 3), Pixel::new(1, 2, 3, 4, 5));
        let out = i.apply(&window_at(&f, Point::new(1, 1), i.shape()));
        assert_eq!(out, Pixel::new(1, 2, 3, 4, 5));
        assert_eq!(Identity::luma().input_channels(), ChannelSet::Y);
        assert_eq!(i.shape(), Connectivity::Con0);
    }

    #[test]
    fn declared_channels() {
        assert_eq!(SobelGradient::new().output_channels().len(), 2);
        assert_eq!(Binomial3::new().input_channels(), ChannelSet::Y);
        assert_eq!(CentralGradient::new().shape(), Connectivity::Con4);
    }
}
