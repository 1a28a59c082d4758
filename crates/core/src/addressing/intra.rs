//! Intra addressing: *"a result is calculated for each pixel as a function
//! of the pixel's original value and the values of its neighbors within
//! the same image"* (§2.1).
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
use crate::border::BorderPolicy;
use crate::error::{CoreError, CoreResult};
use crate::frame::Frame;
use crate::geometry::Point;
use crate::neighborhood::Window;
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

/// Runs an intra-addressing call with clamped borders, matching the IIM's
/// edge-line replication.
///
/// # Errors
///
/// Returns [`CoreError::EmptyFrame`] when the frame has zero area.
pub fn run_intra(frame: &Frame, op: &impl IntraOp) -> CoreResult<IntraResult> {
    run_intra_with(frame, op, BorderPolicy::Clamp)
}

/// Runs an intra-addressing call with an explicit border policy for
/// window samples outside the frame. The sweep is row-major; the kernel
/// reads only the input frame, so the order cannot change the result.
///
/// # Errors
///
/// Returns [`CoreError::EmptyFrame`] when the frame has zero area.
pub fn run_intra_with(
    frame: &Frame,
    op: &impl IntraOp,
    border: BorderPolicy,
) -> CoreResult<IntraResult> {
    if frame.dims().is_empty() {
        return Err(CoreError::EmptyFrame);
    }

    let descriptor = CallDescriptor::intra(op.shape(), op.input_channels(), op.output_channels());
    let per_pixel_reads = descriptor.software_accesses_per_pixel() - 1;
    let mut counter = AccessCounter::new();
    let mut output = frame.clone();

    let mut applied = 0u64;
    // One window reused across the sweep: `regather` refills the sample
    // buffer in place instead of allocating per pixel.
    let mut window = Window::from_samples(Point::ORIGIN, op.shape(), std::iter::empty());
    for p in frame.dims().bounds().points() {
        window.regather(frame, p, border);
        counter.read(per_pixel_reads);
        let result = op.apply(&window);
        let mut out = frame.get(p);
        out.merge_channels(result, op.output_channels());
        output.set(p, out);
        counter.write(1);
        applied += 1;
    }

    Ok(IntraResult {
        output,
        report: CallReport {
            descriptor,
            dims: frame.dims(),
            pixels_processed: applied,
            op_applies: applied,
            counter,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn border_policy_changes_edges_only() {
        let f = spot();
        let clamp = run_intra_with(&f, &BoxBlur::con8(), BorderPolicy::Clamp)
            .unwrap()
            .output;
        let constant = run_intra_with(
            &f,
            &BoxBlur::con8(),
            BorderPolicy::Constant(Pixel::from_luma(255)),
        )
        .unwrap()
        .output;
        // Interior identical.
        for y in 1..5 {
            for x in 1..5 {
                let p = Point::new(x, y);
                assert_eq!(clamp.get(p), constant.get(p), "interior at {p}");
            }
        }
        // Border differs.
        assert_ne!(clamp.get(Point::new(0, 0)), constant.get(Point::new(0, 0)));
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
