//! Morphological intra kernels: erosion, dilation and the morphological
//! gradient.
//!
//! §2.1 of the paper lists *"morphological operators"* among the intra
//! workloads and §2.2 gives the *"morphological gradient"* as an example
//! of a composed operation.
//!
//! # Examples
//!
//! ```
//! use vip_core::frame::Frame;
//! use vip_core::geometry::{Dims, Point};
//! use vip_core::neighborhood::Window;
//! use vip_core::ops::morph::Dilate;
//! use vip_core::ops::IntraOp;
//! use vip_core::pixel::Pixel;
//!
//! let mut f = Frame::new(Dims::new(5, 5));
//! f.set(Point::new(2, 2), Pixel::from_luma(200));
//! let d = Dilate::con8();
//! let w = Window::gather(&f, Point::new(1, 2), d.shape());
//! assert_eq!(d.apply(&w).y, 200); // bright pixel expands
//! ```

use crate::geometry::Point;
use crate::neighborhood::{Connectivity, Window};
use crate::ops::{sweep_3x3, IntraOp};
use crate::pixel::{ChannelSet, Pixel};

/// Grey-scale erosion: window minimum of the luminance channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Erode {
    shape: Connectivity,
}

impl Erode {
    /// Erosion over the squared 8-neighbourhood.
    #[must_use]
    pub const fn con8() -> Self {
        Erode {
            shape: Connectivity::Con8,
        }
    }

    /// Erosion over the 4-connected cross.
    #[must_use]
    pub const fn con4() -> Self {
        Erode {
            shape: Connectivity::Con4,
        }
    }

    /// Erosion over an arbitrary structuring element.
    #[must_use]
    pub const fn with_shape(shape: Connectivity) -> Self {
        Erode { shape }
    }
}

impl IntraOp for Erode {
    fn name(&self) -> &'static str {
        "erode"
    }
    fn shape(&self) -> Connectivity {
        self.shape
    }
    fn input_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn output_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn apply(&self, window: &Window) -> Pixel {
        let min = window
            .luma_min_max()
            .map_or(window.centre_pixel().y, |(lo, _)| lo);
        let mut out = window.centre_pixel();
        out.y = min;
        out
    }
}

/// Grey-scale dilation: window maximum of the luminance channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dilate {
    shape: Connectivity,
}

impl Dilate {
    /// Dilation over the squared 8-neighbourhood.
    #[must_use]
    pub const fn con8() -> Self {
        Dilate {
            shape: Connectivity::Con8,
        }
    }

    /// Dilation over the 4-connected cross.
    #[must_use]
    pub const fn con4() -> Self {
        Dilate {
            shape: Connectivity::Con4,
        }
    }

    /// Dilation over an arbitrary structuring element.
    #[must_use]
    pub const fn with_shape(shape: Connectivity) -> Self {
        Dilate { shape }
    }
}

impl IntraOp for Dilate {
    fn name(&self) -> &'static str {
        "dilate"
    }
    fn shape(&self) -> Connectivity {
        self.shape
    }
    fn input_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn output_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn apply(&self, window: &Window) -> Pixel {
        let max = window
            .luma_min_max()
            .map_or(window.centre_pixel().y, |(_, hi)| hi);
        let mut out = window.centre_pixel();
        out.y = max;
        out
    }
}

/// Morphological gradient: window maximum − window minimum, the boundary
/// detector of §2.2 (*"morphological gradient operations"*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorphGradient {
    shape: Connectivity,
}

impl MorphGradient {
    /// Morphological gradient over the squared 8-neighbourhood.
    #[must_use]
    pub const fn con8() -> Self {
        MorphGradient {
            shape: Connectivity::Con8,
        }
    }

    /// Morphological gradient over an arbitrary structuring element.
    #[must_use]
    pub const fn with_shape(shape: Connectivity) -> Self {
        MorphGradient { shape }
    }
}

impl IntraOp for MorphGradient {
    fn name(&self) -> &'static str {
        "morph_gradient"
    }
    fn shape(&self) -> Connectivity {
        self.shape
    }
    fn input_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn output_channels(&self) -> ChannelSet {
        ChannelSet::Y
    }
    fn apply(&self, window: &Window) -> Pixel {
        let (lo, hi) = window.luma_min_max().unwrap_or((0, 0));
        let mut out = window.centre_pixel();
        out.y = hi - lo;
        out
    }
}

/// Binary median / majority vote on the alpha channel: the speckle cleaner
/// typically run after change detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AlphaMajority;

impl AlphaMajority {
    /// Creates the alpha majority filter.
    #[must_use]
    pub const fn new() -> Self {
        AlphaMajority
    }
}

impl IntraOp for AlphaMajority {
    fn name(&self) -> &'static str {
        "alpha_majority"
    }
    fn shape(&self) -> Connectivity {
        Connectivity::Con8
    }
    fn input_channels(&self) -> ChannelSet {
        ChannelSet::ALPHA
    }
    fn output_channels(&self) -> ChannelSet {
        ChannelSet::ALPHA
    }
    fn apply(&self, window: &Window) -> Pixel {
        // Nine O(1) reads at the constant CON_8 offsets.
        let (mut total, mut set) = (0, 0);
        for dy in -1..=1 {
            for dx in -1..=1 {
                if let Some(px) = window.sample(Point::new(dx, dy)) {
                    total += 1;
                    set += usize::from(px.alpha != 0);
                }
            }
        }
        let mut out = window.centre_pixel();
        out.alpha = u16::from(2 * set > total);
        out
    }

    fn apply_row(&self, lines: &[&[Pixel]], _y: i32, out: &mut Vec<Pixel>) {
        // Each column counts its set alphas; a loaded window holds all
        // nine samples, so the majority is more than half of nine.
        sweep_3x3(
            lines,
            out,
            |a, b, c| u8::from(a.alpha != 0) + u8::from(b.alpha != 0) + u8::from(c.alpha != 0),
            |l, m, r| 2 * (l + m + r) > 9,
            |px, set| px.alpha = u16::from(set),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::geometry::{Dims, Point};

    fn spot_frame() -> Frame {
        // Dark frame with one bright pixel at (2,2).
        let mut f = Frame::filled(Dims::new(5, 5), Pixel::from_luma(10));
        f.set(Point::new(2, 2), Pixel::from_luma(200));
        f
    }

    fn win(f: &Frame, p: Point, op: &impl IntraOp) -> Window {
        Window::gather(f, p, op.shape())
    }

    #[test]
    fn erode_removes_bright_spot() {
        let f = spot_frame();
        let e = Erode::con8();
        assert_eq!(e.apply(&win(&f, Point::new(2, 2), &e)).y, 10);
        assert_eq!(e.apply(&win(&f, Point::new(0, 0), &e)).y, 10);
    }

    #[test]
    fn dilate_grows_bright_spot() {
        let f = spot_frame();
        let d = Dilate::con8();
        assert_eq!(d.apply(&win(&f, Point::new(1, 1), &d)).y, 200);
        assert_eq!(d.apply(&win(&f, Point::new(4, 4), &d)).y, 10);
    }

    #[test]
    fn con4_misses_diagonal() {
        let f = spot_frame();
        let d = Dilate::con4();
        // (1,1) is diagonal to the spot — CON_4 must not see it.
        assert_eq!(d.apply(&win(&f, Point::new(1, 1), &d)).y, 10);
        assert_eq!(d.apply(&win(&f, Point::new(1, 2), &d)).y, 200);
        let e = Erode::con4();
        assert_eq!(e.name(), "erode");
        assert_eq!(e.shape(), Connectivity::Con4);
    }

    #[test]
    fn gradient_is_dilate_minus_erode() {
        let f = spot_frame();
        let g = MorphGradient::con8();
        let d = Dilate::con8();
        let e = Erode::con8();
        for p in [Point::new(1, 1), Point::new(2, 2), Point::new(4, 4)] {
            let gv = g.apply(&win(&f, p, &g)).y;
            let dv = d.apply(&win(&f, p, &d)).y;
            let ev = e.apply(&win(&f, p, &e)).y;
            assert_eq!(gv, dv - ev, "at {p}");
        }
    }

    #[test]
    fn gradient_zero_on_flat() {
        let f = Frame::filled(Dims::new(3, 3), Pixel::from_luma(50));
        let g = MorphGradient::with_shape(Connectivity::Square(1));
        assert_eq!(g.apply(&win(&f, Point::new(1, 1), &g)).y, 0);
    }

    #[test]
    fn erode_dilate_duality_on_inverted() {
        // dilate(f) = 255 - erode(255 - f)
        let f = spot_frame();
        let inv = Frame::from_fn(f.dims(), |p| Pixel::from_luma(255 - f.get(p).y));
        let d = Dilate::con8();
        let e = Erode::con8();
        for p in [Point::new(1, 1), Point::new(2, 2), Point::new(3, 4)] {
            let dv = d.apply(&win(&f, p, &d)).y;
            let ev = e.apply(&win(&inv, p, &e)).y;
            assert_eq!(dv, 255 - ev, "duality at {p}");
        }
    }

    #[test]
    fn alpha_majority_votes() {
        let mut f = Frame::new(Dims::new(3, 3));
        // 5 of 9 alpha set → majority.
        for (i, p) in f.dims().bounds().points().enumerate() {
            if i < 5 {
                f.get_mut(p).alpha = 1;
            }
        }
        let m = AlphaMajority::new();
        let out = m.apply(&win(&f, Point::new(1, 1), &m));
        assert_eq!(out.alpha, 1);
        // 4 of 9 → no majority.
        f.get_mut(Point::new(1, 0)).alpha = 0;
        let out = m.apply(&win(&f, Point::new(1, 1), &m));
        assert_eq!(out.alpha, 0);
    }

    #[test]
    fn morphology_preserves_other_channels() {
        let mut f = Frame::filled(Dims::new(3, 3), Pixel::new(10, 20, 30, 40, 50));
        f.set(Point::new(0, 0), Pixel::new(200, 1, 1, 1, 1));
        let d = Dilate::con8();
        let out = d.apply(&win(&f, Point::new(1, 1), &d));
        assert_eq!(out.y, 200);
        assert_eq!((out.u, out.v, out.alpha, out.aux), (20, 30, 40, 50));
    }

    #[test]
    fn declared_channels() {
        assert_eq!(Dilate::con8().input_channels(), ChannelSet::Y);
        assert_eq!(AlphaMajority::new().input_channels(), ChannelSet::ALPHA);
        assert_eq!(MorphGradient::con8().name(), "morph_gradient");
        assert_eq!(
            Dilate::with_shape(Connectivity::Con4).shape(),
            Connectivity::Con4
        );
        assert_eq!(
            Erode::with_shape(Connectivity::Con8).shape(),
            Connectivity::Con8
        );
    }
}
