//! Quality metrics: PSNR, drift and mosaic fidelity.
//!
//! Because the synthetic sequences carry exact ground truth (scene +
//! camera script), the reproduction can quantify estimator quality in
//! ways the paper's real clips could not: per-pair translation error,
//! accumulated drift of the absolute motion, and PSNR of reconstructed
//! content.
//!
//! # Examples
//!
//! ```
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::pixel::Pixel;
//! use vip_gme::metrics::luma_psnr;
//!
//! let a = Frame::filled(Dims::new(8, 8), Pixel::from_luma(100));
//! let b = Frame::filled(Dims::new(8, 8), Pixel::from_luma(102));
//! let psnr = luma_psnr(&a, &b).unwrap();
//! assert!(psnr > 35.0);
//! ```

use vip_core::error::{CoreError, CoreResult};
use vip_core::frame::Frame;

use crate::model::Motion;
use crate::runner::SequenceReport;

/// Peak signal-to-noise ratio of the luminance channel, in dB.
/// Returns `f64::INFINITY` for identical frames.
///
/// # Errors
///
/// Returns [`CoreError::DimsMismatch`] when the frames differ in size and
/// [`CoreError::EmptyFrame`] for zero-area frames.
pub fn luma_psnr(a: &Frame, b: &Frame) -> CoreResult<f64> {
    if a.dims() != b.dims() {
        return Err(CoreError::DimsMismatch {
            left: a.dims(),
            right: b.dims(),
        });
    }
    if a.pixel_count() == 0 {
        return Err(CoreError::EmptyFrame);
    }
    let mse: f64 = a
        .pixels()
        .iter()
        .zip(b.pixels())
        .map(|(pa, pb)| {
            let d = f64::from(pa.y) - f64::from(pb.y);
            d * d
        })
        .sum::<f64>()
        / a.pixel_count() as f64;
    if mse == 0.0 {
        return Ok(f64::INFINITY);
    }
    Ok(10.0 * (255.0 * 255.0 / mse).log10())
}

/// Drift analysis of a sequence run against ground-truth absolute poses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// Mean per-pair displacement error (px over the frame grid).
    pub mean_pair_error: f64,
    /// Displacement error of the *final* absolute motion — accumulated
    /// drift over the whole sequence.
    pub final_drift: f64,
    /// Frames analysed.
    pub pairs: usize,
}

/// Computes drift of estimated motions against a ground-truth provider.
///
/// `truth(t)` must return the ground-truth relative motion from frame
/// `t` to `t+1` (e.g. from `TestSequence::script().ground_truth`),
/// expressed in the same convention as the estimator output.
#[must_use]
pub fn drift_report(
    report: &SequenceReport,
    frame_w: f64,
    frame_h: f64,
    mut truth: impl FnMut(usize) -> Motion,
) -> DriftReport {
    let mut pair_sum = 0.0;
    let mut true_absolute = Motion::identity();
    let mut final_drift = 0.0;
    for rec in &report.records {
        let t = truth(rec.index - 1);
        pair_sum += rec.relative.displacement_error(&t, frame_w, frame_h);
        true_absolute = t.compose(&true_absolute);
        final_drift = rec
            .absolute
            .displacement_error(&true_absolute, frame_w, frame_h);
    }
    DriftReport {
        mean_pair_error: if report.records.is_empty() {
            0.0
        } else {
            pair_sum / report.records.len() as f64
        },
        final_drift,
        pairs: report.records.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SoftwareBackend;
    use crate::estimate::GmeConfig;
    use crate::runner::SequenceRunner;
    use vip_core::geometry::{Dims, Point};
    use vip_core::pixel::Pixel;

    #[test]
    fn psnr_basics() {
        let a = Frame::filled(Dims::new(4, 4), Pixel::from_luma(100));
        assert_eq!(luma_psnr(&a, &a).unwrap(), f64::INFINITY);
        let mut b = a.clone();
        b.set(Point::new(0, 0), Pixel::from_luma(110));
        let p = luma_psnr(&a, &b).unwrap();
        // MSE = 100/16 = 6.25 → PSNR ≈ 40.2 dB.
        assert!((p - 40.17).abs() < 0.1, "{p}");
        assert!(luma_psnr(&a, &Frame::new(Dims::new(2, 2))).is_err());
        assert!(luma_psnr(&Frame::new(Dims::new(0, 0)), &Frame::new(Dims::new(0, 0))).is_err());
    }

    #[test]
    fn psnr_orders_quality() {
        let a = Frame::filled(Dims::new(8, 8), Pixel::from_luma(128));
        let slightly = Frame::filled(Dims::new(8, 8), Pixel::from_luma(130));
        let badly = Frame::filled(Dims::new(8, 8), Pixel::from_luma(200));
        assert!(luma_psnr(&a, &slightly).unwrap() > luma_psnr(&a, &badly).unwrap());
    }

    #[test]
    fn drift_zero_for_perfect_estimates() {
        // Run the estimator on an exact synthetic pan and compare to the
        // same truth that generated it.
        let dims = Dims::new(72, 56);
        let frames: Vec<Frame> = (0..5)
            .map(|t| {
                Frame::from_fn(dims, |p| {
                    let x = p.x as f64 + t as f64 * 1.0;
                    let y = p.y as f64;
                    let v = 120.0 + 55.0 * ((x / 6.0).sin() * (y / 8.0).cos());
                    Pixel::from_luma(v.clamp(0.0, 255.0) as u8)
                })
            })
            .collect();
        let runner = SequenceRunner::new(GmeConfig::translational());
        let mut backend = SoftwareBackend::new();
        let report = runner.run(frames, &mut backend).unwrap();
        let drift = drift_report(&report, 72.0, 56.0, |_| Motion::translation(-1.0, 0.0));
        assert_eq!(drift.pairs, 4);
        assert!(drift.mean_pair_error < 0.3, "{drift:?}");
        assert!(drift.final_drift < 1.0, "{drift:?}");
    }

    #[test]
    fn drift_detects_bias() {
        // Compare against a deliberately wrong truth: drift accumulates.
        let dims = Dims::new(72, 56);
        let frames: Vec<Frame> = (0..5)
            .map(|t| {
                Frame::from_fn(dims, |p| {
                    let x = p.x as f64 + t as f64 * 1.0;
                    let v = 120.0 + 55.0 * ((x / 6.0).sin() * (p.y as f64 / 8.0).cos());
                    Pixel::from_luma(v.clamp(0.0, 255.0) as u8)
                })
            })
            .collect();
        let runner = SequenceRunner::new(GmeConfig::translational());
        let mut backend = SoftwareBackend::new();
        let report = runner.run(frames, &mut backend).unwrap();
        let wrong = drift_report(&report, 72.0, 56.0, |_| Motion::translation(-2.0, 0.0));
        let right = drift_report(&report, 72.0, 56.0, |_| Motion::translation(-1.0, 0.0));
        assert!(wrong.final_drift > right.final_drift + 2.0);
        assert!(wrong.mean_pair_error > right.mean_pair_error);
    }

    #[test]
    fn empty_report_drift() {
        let report = SequenceReport {
            frames: 1,
            records: vec![],
            tally: crate::backend::CallTally::default(),
            backend_seconds: 0.0,
            pm_seconds: 0.0,
            mosaic: None,
        };
        let d = drift_report(&report, 10.0, 10.0, |_| Motion::identity());
        assert_eq!(d.mean_pair_error, 0.0);
        assert_eq!(d.pairs, 0);
    }
}
