//! Intra addressing: *"a result is calculated for each pixel as a function
//! of the pixel's original value and the values of its neighbors within
//! the same image"* (§2.1).
//!
//! Each row is one [`IntraOp::apply_row`] call over the row's `2r+1`
//! lines, clamped at the top and bottom edges as the IIM re-delivers edge
//! lines. The provided sweep works as the Process Unit's matrix register
//! does (§3, figs. 4 and 5): it LOADs a fixed-size
//! [`Window`](crate::neighborhood::Window) once at the row start and then
//! SHIFTs one column in per pixel, clamping column indices at the left
//! and right edges, so border pixels take the same path as interior ones.
//! A kernel may override the row body with a faster one that appends the
//! same pixels. The fixed 3×3 kernels (Sobel, central gradient, binomial
//! smoothing, alpha majority) fold each column once into a lane of small
//! integers, append the centre line as it is, and store each pixel's
//! output value, combined from three adjacent column values, into only
//! their output channels; every other channel is the appended centre
//! pixel's. The access counts are closed-form.
//!
//! # Examples
//!
//! ```
//! use vip_core::addressing::intra::run_intra;
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::ops::filter::BoxBlur;
//! use vip_core::pixel::Pixel;
//!
//! let f = Frame::filled(Dims::new(8, 8), Pixel::from_luma(50));
//! let r = run_intra(&f, &BoxBlur::con8())?;
//! assert!(r.output.pixels().iter().all(|p| p.y == 50));
//! # Ok::<(), vip_core::error::CoreError>(())
//! ```

use crate::accounting::{AccessCounter, CallDescriptor};
use crate::addressing::CallReport;
use crate::error::{CoreError, CoreResult};
use crate::frame::Frame;
use crate::neighborhood::clamped_lines;
use crate::ops::IntraOp;

/// Result of an intra call: the output frame plus the execution report.
#[derive(Debug, Clone)]
pub struct IntraResult {
    /// The produced frame. Channels outside the kernel's output set carry
    /// the input frame's values.
    pub output: Frame,
    /// Execution statistics for accounting and dispatch counting.
    pub report: CallReport,
}

/// Runs an intra-addressing call. Window samples outside the frame clamp
/// to the nearest edge pixel, matching the IIM's edge-line replication.
///
/// Each row is one [`IntraOp::apply_row`] over its `2r+1` clamped lines,
/// so border pixels go through the same row body as interior ones.
/// Every pixel is read through a full window and written once, so
/// the access counts are closed-form: `n·(a−1)` reads and `n` writes for
/// `n` pixels and `a` software accesses per pixel.
///
/// # Errors
///
/// Returns [`CoreError::EmptyFrame`] when the frame has zero area and
/// [`CoreError::InvalidParameter`] when the kernel's shape spans more
/// than [`MAX_LINES`](crate::neighborhood::MAX_LINES) lines.
pub fn run_intra(frame: &Frame, op: &impl IntraOp) -> CoreResult<IntraResult> {
    let dims = frame.dims();
    if dims.is_empty() {
        return Err(CoreError::EmptyFrame);
    }
    let shape = op.shape();
    shape.check_span()?;

    let descriptor = CallDescriptor::intra(shape, op.input_channels(), op.output_channels());
    let mut pixels = Vec::with_capacity(frame.pixel_count());
    for y in 0..dims.height as i32 {
        let lines = clamped_lines(frame, y, shape);
        op.apply_row(&lines[..shape.lines()], y, &mut pixels);
    }
    let output = Frame::from_pixels(dims, pixels)?;

    let applied = frame.pixel_count() as u64;
    let mut counter = AccessCounter::new();
    counter.read(applied * (descriptor.software_accesses_per_pixel() - 1));
    counter.write(applied);

    Ok(IntraResult {
        output,
        report: CallReport {
            descriptor,
            dims,
            pixels_processed: applied,
            op_applies: applied,
            counter,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::AccessModel;
    use crate::geometry::{Dims, Point};
    use crate::neighborhood::Connectivity;
    use crate::ops::filter::{BoxBlur, Identity, SobelGradient};
    use crate::ops::morph::{Dilate, Erode, MorphGradient};
    use crate::pixel::{ChannelSet, Pixel};

    fn spot() -> Frame {
        let mut f = Frame::filled(Dims::new(6, 6), Pixel::from_luma(10));
        f.set(Point::new(3, 3), Pixel::from_luma(190));
        f
    }

    #[test]
    fn identity_preserves_frame() {
        let f = spot();
        let r = run_intra(&f, &Identity::yuv()).unwrap();
        assert_eq!(r.output, f);
        assert_eq!(r.report.pixels_processed, 36);
    }

    #[test]
    fn box_blur_spreads_energy() {
        let f = spot();
        let r = run_intra(&f, &BoxBlur::con8()).unwrap();
        assert_eq!(r.output.get(Point::new(3, 3)).y, 30); // (190 + 8·10)/9
        assert_eq!(r.output.get(Point::new(2, 2)).y, 30);
        assert_eq!(r.output.get(Point::new(0, 0)).y, 10);
    }

    #[test]
    fn empty_frame_rejected() {
        let f = Frame::new(Dims::new(0, 4));
        assert!(matches!(
            run_intra(&f, &BoxBlur::con8()),
            Err(CoreError::EmptyFrame)
        ));
    }

    #[test]
    fn shape_wider_than_nine_lines_rejected() {
        let f = spot();
        let wide = Dilate::with_shape(Connectivity::Square(5));
        assert!(matches!(
            run_intra(&f, &wide),
            Err(CoreError::InvalidParameter { name: "shape", .. })
        ));
    }

    #[test]
    fn report_matches_analytic_model_con8() {
        let f = spot();
        let r = run_intra(&f, &BoxBlur::con8()).unwrap();
        let model = r.report.access_model();
        assert_eq!(r.report.counter.total(), model.software_accesses);
        assert_eq!(r.report.counter.total(), 36 * 4);
    }

    #[test]
    fn report_matches_analytic_model_con0() {
        let f = spot();
        let r = run_intra(&f, &Identity::luma()).unwrap();
        assert_eq!(r.report.counter.total(), 36 * 2);
        assert_eq!(r.report.descriptor.shape, Connectivity::Con0);
    }

    #[test]
    fn report_matches_analytic_model_on_every_shape_and_edge_dims() {
        // Closed-form counts: `n·(a−1)` reads and `n` writes for every
        // shape, on frames the widest window overhangs.
        let shapes = [
            Connectivity::Con0,
            Connectivity::Con4,
            Connectivity::Con8,
            Connectivity::Square(1),
            Connectivity::Square(2),
            Connectivity::Square(3),
            Connectivity::Square(4),
        ];
        for (w, h) in [(1, 1), (1, 9), (9, 1), (2, 2), (5, 3), (17, 11)] {
            let f = Frame::from_fn(Dims::new(w, h), |p| Pixel::from_luma((p.x * 7 + p.y) as u8));
            for shape in shapes {
                let r = run_intra(&f, &Dilate::with_shape(shape)).unwrap();
                let n = f.pixel_count() as u64;
                let model = AccessModel::for_call(&r.report.descriptor, f.dims());
                assert_eq!(
                    r.report.counter.total(),
                    model.software_accesses,
                    "{shape} on {w}x{h}"
                );
                assert_eq!(r.report.counter.writes(), n, "{shape} on {w}x{h}");
                assert_eq!(r.report.pixels_processed, n);
                assert_eq!(r.report.op_applies, n);
            }
        }
    }

    #[test]
    fn morph_gradient_composition_matches() {
        // morph_gradient == dilate − erode, as whole-frame passes.
        let f = spot();
        let g = run_intra(&f, &MorphGradient::con8()).unwrap().output;
        let d = run_intra(&f, &Dilate::con8()).unwrap().output;
        let e = run_intra(&f, &Erode::con8()).unwrap().output;
        for (p, px) in g.enumerate() {
            assert_eq!(px.y, d.get(p).y - e.get(p).y, "at {p}");
        }
    }

    #[test]
    fn sobel_output_channels_merged() {
        let mut f = spot();
        f.get_mut(Point::new(1, 1)).alpha = 42; // must survive the call
        let r = run_intra(&f, &SobelGradient::new()).unwrap();
        assert_eq!(r.output.get(Point::new(1, 1)).alpha, 42);
        assert_eq!(
            r.report.descriptor.output_channels,
            ChannelSet::Y.union(ChannelSet::AUX)
        );
        // Chroma untouched.
        assert_eq!(r.output.get(Point::new(3, 3)).u, 128);
    }

    #[test]
    fn one_pixel_frame_works_with_clamp() {
        let f = Frame::filled(Dims::new(1, 1), Pixel::from_luma(77));
        let r = run_intra(&f, &BoxBlur::con8()).unwrap();
        assert_eq!(r.output.get(Point::ORIGIN).y, 77);
    }
}
