//! Inter addressing: *"a result for each pixel position is calculated
//! using data from two different frames"* (§2.1).
//!
//! # Examples
//!
//! ```
//! use vip_core::addressing::inter::run_inter;
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::ops::arith::AbsDiff;
//! use vip_core::pixel::Pixel;
//!
//! let a = Frame::filled(Dims::new(4, 4), Pixel::from_luma(100));
//! let b = Frame::filled(Dims::new(4, 4), Pixel::from_luma(90));
//! let result = run_inter(&a, &b, &AbsDiff::luma())?;
//! assert!(result.output.pixels().iter().all(|p| p.y == 10));
//! # Ok::<(), vip_core::error::CoreError>(())
//! ```

use crate::accounting::{AccessCounter, CallDescriptor};
use crate::addressing::CallReport;
use crate::error::{CoreError, CoreResult};
use crate::frame::Frame;
use crate::ops::InterOp;

/// Result of an inter call: the output frame plus the execution report.
#[derive(Debug, Clone)]
pub struct InterResult {
    /// The produced frame. Channels outside the kernel's output set carry
    /// the corresponding values of frame A.
    pub output: Frame,
    /// Execution statistics for accounting and dispatch counting.
    pub report: CallReport,
}

/// Runs an inter-addressing call over two frames: one
/// [`InterOp::apply_row`] over the whole frames. A pointwise kernel reads
/// and writes each position once, so the access
/// counts are closed-form: `n·k` reads and `n` writes for `n` pixels and
/// `k` input reads per pixel.
///
/// # Errors
///
/// Returns [`CoreError::DimsMismatch`] when the frames differ in size and
/// [`CoreError::EmptyFrame`] when they have zero area.
pub fn run_inter(a: &Frame, b: &Frame, op: &impl InterOp) -> CoreResult<InterResult> {
    if a.dims() != b.dims() {
        return Err(CoreError::DimsMismatch {
            left: a.dims(),
            right: b.dims(),
        });
    }
    if a.dims().is_empty() {
        return Err(CoreError::EmptyFrame);
    }

    let descriptor = CallDescriptor::inter(op.input_channels(), op.output_channels());
    let n = a.pixel_count();
    let mut pixels = Vec::with_capacity(n);
    op.apply_row(a.pixels(), b.pixels(), &mut pixels);
    let output = Frame::from_pixels(a.dims(), pixels)?;

    let applied = n as u64;
    let mut counter = AccessCounter::new();
    counter.read(applied * (descriptor.software_accesses_per_pixel() - 1));
    counter.write(applied);

    Ok(InterResult {
        output,
        report: CallReport {
            descriptor,
            dims: a.dims(),
            pixels_processed: applied,
            op_applies: applied,
            counter,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::cell::Cell;

    use crate::geometry::{Dims, ImageFormat, Point};
    use crate::ops::arith::{AbsDiff, Add, Blend, ChangeMask, Mult, Sub};
    use crate::ops::compose::InterThen;
    use crate::ops::lut::Threshold;
    use crate::pixel::{ChannelSet, Pixel};

    fn frames() -> (Frame, Frame) {
        let a = Frame::from_fn(Dims::new(4, 3), |p| {
            Pixel::from_yuv((p.x * 10) as u8, 100, 50).with_alpha(7)
        });
        let b = Frame::from_fn(Dims::new(4, 3), |p| {
            Pixel::from_yuv((p.y * 20) as u8, 90, 60)
        });
        (a, b)
    }

    #[test]
    fn absdiff_pointwise() {
        let (a, b) = frames();
        let r = run_inter(&a, &b, &AbsDiff::luma()).unwrap();
        for (p, px) in r.output.enumerate() {
            let expect = ((p.x * 10) as u8).abs_diff((p.y * 20) as u8);
            assert_eq!(px.y, expect, "at {p}");
            // Non-output channels come from frame A.
            assert_eq!(px.u, 100);
            assert_eq!(px.alpha, 7);
        }
    }

    #[test]
    fn report_matches_table2_model() {
        let (a, b) = frames();
        let r = run_inter(&a, &b, &AbsDiff::luma()).unwrap();
        let model = r.report.access_model();
        // Empirical counter equals the analytic software model.
        assert_eq!(r.report.counter.total(), model.software_accesses);
        assert_eq!(r.report.pixels_processed, 12);
        assert_eq!(r.report.counter.total(), 12 * 3);
    }

    #[test]
    fn yuv_kernel_counts_more_accesses() {
        let (a, b) = frames();
        let y = run_inter(&a, &b, &AbsDiff::luma()).unwrap();
        let yuv = run_inter(&a, &b, &AbsDiff::yuv()).unwrap();
        assert!(yuv.report.counter.total() > y.report.counter.total());
        // YUV inter: 2 frames × 3 channels + 1 write = 7/pixel.
        assert_eq!(yuv.report.counter.total(), 12 * 7);
    }

    #[test]
    fn dims_mismatch_rejected() {
        let a = Frame::new(Dims::new(2, 2));
        let b = Frame::new(Dims::new(2, 3));
        assert!(matches!(
            run_inter(&a, &b, &Add::luma()),
            Err(CoreError::DimsMismatch { .. })
        ));
    }

    #[test]
    fn empty_frames_rejected() {
        let a = Frame::new(Dims::new(0, 0));
        assert!(matches!(
            run_inter(&a, &a, &Add::luma()),
            Err(CoreError::EmptyFrame)
        ));
    }

    #[test]
    fn change_mask_merges_alpha_output() {
        let (a, b) = frames();
        let r = run_inter(&a, &b, &ChangeMask::new(15)).unwrap();
        let px = r.output.get(Point::new(3, 0)); // |30 - 0| = 30 > 15
        assert_eq!(px.alpha, 1);
        let px2 = r.output.get(Point::new(0, 0)); // |0 - 0| = 0
        assert_eq!(px2.alpha, 0);
        assert_eq!(
            r.report.descriptor.output_channels,
            ChannelSet::Y.union(ChannelSet::ALPHA)
        );
    }

    #[test]
    fn descriptor_mode_is_inter() {
        let (a, b) = frames();
        let r = run_inter(&a, &b, &Add::luma()).unwrap();
        assert_eq!(
            r.report.descriptor.mode,
            crate::accounting::AddressingMode::Inter
        );
    }

    /// A frame of seeded pixels with every channel in play.
    fn seeded(dims: Dims, mut state: u64) -> Frame {
        Frame::from_fn(dims, |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Pixel::from_bits(state)
        })
    }

    /// Reference executor: `apply` plus the channel merge at each
    /// position, ticking the counter per pixel.
    fn per_pixel_reference(a: &Frame, b: &Frame, op: &impl InterOp) -> (Frame, CallReport) {
        let descriptor = CallDescriptor::inter(op.input_channels(), op.output_channels());
        let mut counter = AccessCounter::new();
        let mut output = a.clone();
        for (p, pa) in a.enumerate() {
            counter.read(descriptor.software_accesses_per_pixel() - 1);
            let mut out = pa;
            out.merge_channels(op.apply(pa, b.get(p)), op.output_channels());
            output.set(p, out);
            counter.write(1);
        }
        let n = a.pixel_count() as u64;
        let report = CallReport {
            descriptor,
            dims: a.dims(),
            pixels_processed: n,
            op_applies: n,
            counter,
        };
        (output, report)
    }

    /// `run_inter` on `op` and on `op` behind `&dyn InterOp` equals the
    /// per-pixel reference on every contract geometry.
    fn assert_row_contract<O: InterOp>(op: O) {
        let qcif = ImageFormat::Qcif.dims();
        let dims = [
            Dims::new(1, 1),
            Dims::new(1, 13),
            Dims::new(13, 1),
            Dims::new(7, 5),
            qcif,
        ];
        for (i, dims) in dims.into_iter().enumerate() {
            let a = seeded(dims, 0x9e37_79b9_7f4a_7c15 + i as u64);
            let b = seeded(dims, 0x2545_f491_4f6c_dd1d + i as u64);
            let (output, report) = per_pixel_reference(&a, &b, &op);
            let dyn_op: &dyn InterOp = &op;
            for (via, run) in [
                ("concrete", run_inter(&a, &b, &op).unwrap()),
                ("dyn", run_inter(&a, &b, &dyn_op).unwrap()),
            ] {
                let what = format!("{} {dims:?} {via}", op.name());
                assert_eq!(run.output, output, "{what}");
                assert_eq!(run.report, report, "{what}");
            }
        }
    }

    #[test]
    fn row_calls_match_the_per_pixel_reference() {
        assert_row_contract(Add::luma());
        assert_row_contract(Add::yuv());
        assert_row_contract(Sub::luma());
        assert_row_contract(Sub::yuv());
        assert_row_contract(AbsDiff::luma());
        assert_row_contract(AbsDiff::yuv());
        assert_row_contract(Mult::luma());
        assert_row_contract(Blend::new(77));
        assert_row_contract(Blend::average());
        assert_row_contract(ChangeMask::new(15));
        assert_row_contract(InterThen::new(
            "change",
            AbsDiff::luma(),
            Threshold::binary(40),
        ));
    }

    /// Luma `AbsDiff` that counts the row calls it receives.
    #[derive(Default)]
    struct RowCounter {
        rows: Cell<usize>,
    }

    impl InterOp for RowCounter {
        fn name(&self) -> &'static str {
            "row_counter"
        }
        fn input_channels(&self) -> ChannelSet {
            ChannelSet::Y
        }
        fn output_channels(&self) -> ChannelSet {
            ChannelSet::Y
        }
        fn apply(&self, a: Pixel, b: Pixel) -> Pixel {
            AbsDiff::luma().apply(a, b)
        }
        fn apply_row(&self, a: &[Pixel], b: &[Pixel], out: &mut Vec<Pixel>) {
            self.rows.set(self.rows.get() + 1);
            AbsDiff::luma().apply_row(a, b, out);
        }
    }

    #[test]
    fn references_forward_the_row_method() {
        // A forwarding impl that fell back to the provided per-pixel loop
        // would call the inner `apply` per pixel and never its row method.
        let (a, b) = frames();
        let expect = run_inter(&a, &b, &AbsDiff::luma()).unwrap().output;
        let op = RowCounter::default();
        assert_eq!(run_inter(&a, &b, &op).unwrap().output, expect);
        assert_eq!(op.rows.get(), 1);
        assert_eq!(run_inter(&a, &b, &&op).unwrap().output, expect);
        assert_eq!(op.rows.get(), 2, "&T forwards the row method");
        let dyn_op: &dyn InterOp = &op;
        assert_eq!(run_inter(&a, &b, &dyn_op).unwrap().output, expect);
        assert_eq!(op.rows.get(), 3, "&dyn InterOp forwards the row method");
    }
}
