//! Kernel combinators: building complex operations from basic
//! sub-functions.
//!
//! §2.2: *"Pixel-level operations may be separated into basic
//! sub-functions, such as add, sub, mult, grad, in order to achieve
//! efficiency and flexibility. **These sub-functions can be combined to
//! form more complex operations**, e.g. luminance/chrominance difference
//! between neighboring pixels for homogeneity check, or morphological
//! gradient operations."*
//!
//! * [`ZipWith`] — two intra kernels over the *same* window, fused by an
//!   inter kernel (e.g. morphological gradient = `zip(dilate, erode,
//!   sub)`).
//! * [`Then`] — an intra kernel followed by a point (CON_0) kernel on
//!   its output (e.g. gradient then threshold).
//! * [`InterThen`] — an inter kernel followed by a point kernel (e.g.
//!   absolute difference then threshold = change mask).
//!
//! All combinators declare the union of their parts' channels and the
//! containing window shape, so accounting and engine dispatch remain
//! exact.
//!
//! # Examples
//!
//! ```
//! use vip_core::addressing::intra::run_intra;
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::ops::arith::Sub;
//! use vip_core::ops::compose::ZipWith;
//! use vip_core::ops::morph::{Dilate, Erode, MorphGradient};
//! use vip_core::pixel::Pixel;
//!
//! // morphological gradient, built from sub-functions:
//! let composed = ZipWith::new("morph_gradient_composed", Dilate::con8(), Erode::con8(), Sub::luma());
//! let f = Frame::from_fn(Dims::new(8, 8), |p| Pixel::from_luma((p.x * 9) as u8));
//! let a = run_intra(&f, &composed)?.output;
//! let b = run_intra(&f, &MorphGradient::con8())?.output;
//! assert_eq!(a.luma_plane(), b.luma_plane());
//! # Ok::<(), vip_core::error::CoreError>(())
//! ```

use crate::neighborhood::{Connectivity, Window};
use crate::ops::{InterOp, IntraOp};
use crate::pixel::{ChannelSet, Pixel};

fn wider(a: Connectivity, b: Connectivity) -> Connectivity {
    let r = a.radius().max(b.radius());
    match r {
        0 => Connectivity::Con0,
        1 => {
            // Prefer the square if either part needs diagonals.
            if a == Connectivity::Con4 && b == Connectivity::Con4 {
                Connectivity::Con4
            } else {
                Connectivity::Con8
            }
        }
        r => Connectivity::Square(r as u8),
    }
}

/// Two intra kernels over the same window, fused per pixel by an inter
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZipWith<A, B, F> {
    name: &'static str,
    a: A,
    b: B,
    fuse: F,
}

impl<A: IntraOp, B: IntraOp, F: InterOp> ZipWith<A, B, F> {
    /// Combines `a` and `b` with `fuse` under a stable `name`.
    #[must_use]
    pub const fn new(name: &'static str, a: A, b: B, fuse: F) -> Self {
        ZipWith { name, a, b, fuse }
    }
}

impl<A: IntraOp, B: IntraOp, F: InterOp> IntraOp for ZipWith<A, B, F> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn shape(&self) -> Connectivity {
        wider(self.a.shape(), self.b.shape())
    }
    fn input_channels(&self) -> ChannelSet {
        self.a.input_channels().union(self.b.input_channels())
    }
    fn output_channels(&self) -> ChannelSet {
        self.fuse.output_channels()
    }
    fn apply(&self, window: &Window) -> Pixel {
        // Each part sees the window restricted to its own shape.
        let wa = Window::from_samples(window.centre(), self.a.shape(), window.iter());
        let wb = Window::from_samples(window.centre(), self.b.shape(), window.iter());
        self.fuse.apply(self.a.apply(&wa), self.b.apply(&wb))
    }
}

/// An intra kernel followed by a point (CON_0) kernel on its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Then<A, P> {
    name: &'static str,
    first: A,
    point: P,
}

impl<A: IntraOp, P: IntraOp> Then<A, P> {
    /// Chains `first` and the point kernel `point`.
    ///
    /// # Panics
    ///
    /// Panics when `point` is not a CON_0 kernel — chaining two
    /// neighbourhood kernels per pixel would read the *unprocessed*
    /// neighbours and silently diverge from a two-pass call sequence.
    #[must_use]
    pub fn new(name: &'static str, first: A, point: P) -> Self {
        assert_eq!(
            point.shape(),
            Connectivity::Con0,
            "Then requires a point (CON_0) second stage; run two calls instead"
        );
        Then { name, first, point }
    }
}

impl<A: IntraOp, P: IntraOp> IntraOp for Then<A, P> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn shape(&self) -> Connectivity {
        self.first.shape()
    }
    fn input_channels(&self) -> ChannelSet {
        self.first.input_channels()
    }
    fn output_channels(&self) -> ChannelSet {
        self.first
            .output_channels()
            .union(self.point.output_channels())
    }
    fn apply(&self, window: &Window) -> Pixel {
        let mid = self.first.apply(window);
        let w = Window::from_samples(
            window.centre(),
            Connectivity::Con0,
            [(crate::geometry::Point::ORIGIN, mid)],
        );
        self.point.apply(&w)
    }
}

/// An inter kernel followed by a point kernel on its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterThen<A, P> {
    name: &'static str,
    first: A,
    point: P,
}

impl<A: InterOp, P: IntraOp> InterThen<A, P> {
    /// Chains the inter kernel `first` and the point kernel `point`.
    ///
    /// # Panics
    ///
    /// Panics when `point` is not a CON_0 kernel.
    #[must_use]
    pub fn new(name: &'static str, first: A, point: P) -> Self {
        assert_eq!(
            point.shape(),
            Connectivity::Con0,
            "InterThen requires a point (CON_0) second stage"
        );
        InterThen { name, first, point }
    }
}

impl<A: InterOp, P: IntraOp> InterOp for InterThen<A, P> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn input_channels(&self) -> ChannelSet {
        self.first.input_channels()
    }
    fn output_channels(&self) -> ChannelSet {
        self.first
            .output_channels()
            .union(self.point.output_channels())
    }
    fn apply(&self, a: Pixel, b: Pixel) -> Pixel {
        let mid = self.first.apply(a, b);
        let w = Window::from_samples(
            crate::geometry::Point::ORIGIN,
            Connectivity::Con0,
            [(crate::geometry::Point::ORIGIN, mid)],
        );
        self.point.apply(&w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addressing::inter::run_inter;
    use crate::addressing::intra::run_intra;
    use crate::frame::Frame;
    use crate::geometry::{Dims, Point};
    use crate::ops::arith::{AbsDiff, Sub};
    use crate::ops::filter::SobelGradient;
    use crate::ops::lut::Threshold;
    use crate::ops::morph::{Dilate, Erode, MorphGradient};

    fn textured() -> Frame {
        Frame::from_fn(Dims::new(10, 8), |p| {
            Pixel::from_luma(((p.x * 23 + p.y * 11) % 256) as u8)
        })
    }

    #[test]
    fn zip_reproduces_morph_gradient() {
        // §2.2's example: the morphological gradient from sub-functions.
        let f = textured();
        let composed = ZipWith::new("mg", Dilate::con8(), Erode::con8(), Sub::luma());
        let a = run_intra(&f, &composed).unwrap().output;
        let b = run_intra(&f, &MorphGradient::con8()).unwrap().output;
        assert_eq!(a.luma_plane(), b.luma_plane());
        assert_eq!(composed.shape(), Connectivity::Con8);
        assert_eq!(composed.name(), "mg");
    }

    #[test]
    fn zip_with_mixed_shapes_takes_wider() {
        let z = ZipWith::new("m", Dilate::con4(), Erode::con8(), Sub::luma());
        assert_eq!(z.shape(), Connectivity::Con8);
        let both4 = ZipWith::new("m", Dilate::con4(), Erode::con4(), Sub::luma());
        assert_eq!(both4.shape(), Connectivity::Con4);
        // Each part still sees only its own shape: CON_4 dilate inside a
        // CON_8 window must ignore diagonals.
        let mut f = Frame::filled(Dims::new(5, 5), Pixel::from_luma(10));
        f.set(Point::new(0, 0), Pixel::from_luma(200)); // diagonal of (1,1)
        let out = run_intra(&f, &z).unwrap().output;
        // dilate_con4 at (1,1) = 10 (diagonal unseen), erode_con8 = 10 → 0.
        assert_eq!(out.get(Point::new(1, 1)).y, 0);
    }

    #[test]
    fn then_gradient_threshold_is_edge_mask() {
        let f = Frame::from_fn(Dims::new(10, 10), |p| {
            Pixel::from_luma(if p.x < 5 { 0 } else { 200 })
        });
        let edges = Then::new("edge_mask", SobelGradient::new(), Threshold::binary(100));
        let out = run_intra(&f, &edges).unwrap().output;
        // At the step: strong gradient → thresholded to 255 with alpha 1.
        let on = out.get(Point::new(5, 5));
        assert_eq!((on.y, on.alpha), (255, 1));
        let off = out.get(Point::new(1, 5));
        assert_eq!((off.y, off.alpha), (0, 0));
        // Equivalent to two chained calls.
        let two_pass = {
            let g = run_intra(&f, &SobelGradient::new()).unwrap().output;
            run_intra(&g, &Threshold::binary(100)).unwrap().output
        };
        assert_eq!(out.luma_plane(), two_pass.luma_plane());
    }

    #[test]
    #[should_panic(expected = "CON_0")]
    fn then_rejects_neighbourhood_second_stage() {
        let _ = Then::new("bad", SobelGradient::new(), Dilate::con8());
    }

    #[test]
    fn inter_then_threshold_is_change_mask() {
        let a = textured();
        let b = Frame::from_fn(a.dims(), |p| {
            let mut px = a.get(p);
            if p.x == 3 {
                px.y = px.y.wrapping_add(90);
            }
            px
        });
        let op = InterThen::new("change", AbsDiff::luma(), Threshold::binary(40));
        let out = run_inter(&a, &b, &op).unwrap().output;
        for y in 0..8 {
            assert_eq!(out.get(Point::new(3, y)).alpha, 1, "changed column");
            assert_eq!(out.get(Point::new(6, y)).alpha, 0, "static column");
        }
        assert_eq!(op.name(), "change");
        assert!(op.output_channels().contains(crate::pixel::Channel::Alpha));
    }

    #[test]
    #[should_panic(expected = "CON_0")]
    fn inter_then_rejects_neighbourhood_second_stage() {
        let _ = InterThen::new("bad", AbsDiff::luma(), Dilate::con8());
    }

    #[test]
    fn composed_channels_are_unions() {
        let z = ZipWith::new("m", Dilate::con8(), Erode::con8(), Sub::luma());
        assert_eq!(z.input_channels(), ChannelSet::Y);
        assert_eq!(z.output_channels(), ChannelSet::Y);
        let t = Then::new("t", SobelGradient::new(), Threshold::binary(1));
        assert!(t.output_channels().contains(crate::pixel::Channel::Aux));
        assert!(t.output_channels().contains(crate::pixel::Channel::Alpha));
    }

    #[test]
    fn composed_ops_run_on_engine_accounting() {
        // The composed kernel is one call: accounting sees one sweep.
        let f = textured();
        let z = ZipWith::new("mg", Dilate::con8(), Erode::con8(), Sub::luma());
        let r = run_intra(&f, &z).unwrap();
        assert_eq!(
            r.report.counter.total(),
            r.report.access_model().software_accesses
        );
    }
}
