//! Global motion estimation: hierarchical Gauss-Newton minimisation of
//! the luminance difference between a warped current frame and the
//! reference frame, in the style of the MPEG-7 eXperimentation Model's
//! GME used by the paper (§4.3, ref. \[6\]).
//!
//! The estimator is split along the paper's hardware/software boundary:
//! high-level control (parameter updates, normal equations, coordinate
//! arithmetic) runs on the host, while every whole-frame pixel pass —
//! pyramid smoothing, gradient computation, residual evaluation, outlier
//! mask clean-up — is an AddressLib call dispatched through a
//! [`GmeBackend`].
//!
//! Each iteration makes one host pass per pixel: one warp of the current
//! level writes the warped frame for the `AbsDiff` inter call together
//! with the unrounded samples; inliers are tagged in place in the alpha
//! channel of the residual frame the backend returns; the
//! `AlphaMajority` intra call cleans that mask; and the normal equations
//! accumulate from the kept samples and are solved, on the stack, without
//! warping again. The warped frame and the sample buffer are allocated
//! once per pyramid level.
//!
//! Both host passes share the per-row coordinate map `Motion::row`, so
//! every estimate is bit-identical to the per-pixel [`Motion::apply`]
//! reference; DESIGN.md (GME) says how, and which goldens pin it.
//!
//! # Examples
//!
//! ```
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::pixel::Pixel;
//! use vip_gme::backend::SoftwareBackend;
//! use vip_gme::estimate::{Estimator, GmeConfig};
//! use vip_gme::model::Motion;
//! use vip_gme::warp::warp_frame;
//!
//! // A textured reference and a shifted current frame.
//! let reference = Frame::from_fn(Dims::new(64, 64), |p| {
//!     Pixel::from_luma(((p.x * 7 + p.y * 13) % 200) as u8)
//! });
//! let current = warp_frame(&reference, &Motion::translation(-2.0, 0.0)).frame;
//!
//! let mut backend = SoftwareBackend::new();
//! let estimator = Estimator::new(GmeConfig::default());
//! let result = estimator.estimate(&reference, &current, Motion::identity(), &mut backend)?;
//! let (dx, _) = result.motion.translation_part();
//! assert!((dx - 2.0).abs() < 0.5, "recovered dx = {dx}");
//! # Ok::<(), vip_core::error::CoreError>(())
//! ```

use vip_core::error::{CoreError, CoreResult};
use vip_core::frame::Frame;
use vip_core::ops::arith::AbsDiff;
use vip_core::ops::filter::CentralGradient;
use vip_core::ops::morph::AlphaMajority;
use vip_obs::{Recorder, Track};

use crate::backend::GmeBackend;
use crate::model::{clamp_w, solve_linear, Motion, MotionModel};
use crate::pyramid::{level_scale, Pyramid};
use crate::warp::{centre_of, round_clamped, warp_into};

/// Estimator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmeConfig {
    /// Motion model family to fit.
    pub model: MotionModel,
    /// Pyramid levels (coarse-to-fine).
    pub levels: usize,
    /// Maximum Gauss-Newton iterations per level.
    pub max_iterations: usize,
    /// Convergence threshold: mean parameter-induced displacement (px).
    pub epsilon: f64,
    /// Residuals above this magnitude are treated as outliers.
    pub outlier_threshold: f64,
    /// Accumulate normal equations from every `subsample`-th pixel in
    /// each direction (1 = all pixels).
    pub subsample: usize,
}

impl Default for GmeConfig {
    fn default() -> Self {
        GmeConfig {
            model: MotionModel::Affine,
            levels: 3,
            max_iterations: 4,
            epsilon: 0.03,
            outlier_threshold: 48.0,
            subsample: 1,
        }
    }
}

impl GmeConfig {
    /// A translational-only configuration (fast, for tests and demos).
    #[must_use]
    pub fn translational() -> Self {
        GmeConfig {
            model: MotionModel::Translational,
            ..GmeConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for zero levels,
    /// iterations or subsample, for an outlier threshold that is not a
    /// positive finite number (no pixel would ever count as an inlier,
    /// so estimation would silently return its initial motion), and for
    /// a NaN or negative `epsilon`.
    pub fn validate(&self) -> CoreResult<()> {
        if self.levels == 0 {
            return Err(CoreError::InvalidParameter {
                name: "levels",
                reason: "at least one pyramid level required",
            });
        }
        if self.max_iterations == 0 {
            return Err(CoreError::InvalidParameter {
                name: "max_iterations",
                reason: "at least one iteration required",
            });
        }
        if self.subsample == 0 {
            return Err(CoreError::InvalidParameter {
                name: "subsample",
                reason: "subsample must be at least 1",
            });
        }
        if !(self.outlier_threshold.is_finite() && self.outlier_threshold > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "outlier_threshold",
                reason: "outlier threshold must be positive and finite",
            });
        }
        if self.epsilon.is_nan() || self.epsilon < 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "epsilon",
                reason: "epsilon must be a non-negative number",
            });
        }
        Ok(())
    }
}

/// The result of estimating one frame pair.
#[derive(Debug, Clone, PartialEq)]
pub struct GmeResult {
    /// Estimated motion mapping reference coordinates to current-frame
    /// coordinates (centred).
    pub motion: Motion,
    /// Mean absolute luminance residual over valid pixels after
    /// convergence.
    pub residual: f64,
    /// Gauss-Newton iterations actually performed (all levels).
    pub iterations: usize,
    /// Fraction of pixels that survived warping + outlier rejection in
    /// the final iteration.
    pub inlier_fraction: f64,
}

/// The hierarchical global motion estimator.
#[derive(Debug, Clone, Default)]
pub struct Estimator {
    config: GmeConfig,
    recorder: Recorder,
}

impl Estimator {
    /// Creates an estimator.
    #[must_use]
    pub fn new(config: GmeConfig) -> Self {
        Estimator {
            config,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder: estimation runs emit
    /// per-pyramid-level spans on the GME track, timed on the backend's
    /// modelled clock.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The configuration.
    #[must_use]
    pub const fn config(&self) -> &GmeConfig {
        &self.config
    }

    /// Estimates the motion from `reference` to `current`, starting from
    /// `initial` (use the previous frame's motion for warm starts).
    ///
    /// # Errors
    ///
    /// Returns AddressLib errors for invalid frames and
    /// [`CoreError::InvalidParameter`] for invalid configurations.
    pub fn estimate(
        &self,
        reference: &Frame,
        current: &Frame,
        initial: Motion,
        backend: &mut dyn GmeBackend,
    ) -> CoreResult<GmeResult> {
        self.config.validate()?;
        if reference.dims() != current.dims() {
            return Err(CoreError::DimsMismatch {
                left: reference.dims(),
                right: current.dims(),
            });
        }
        let t0 = modelled_ns(backend);
        let ref_pyr = Pyramid::build(reference, self.config.levels, backend)?;
        let cur_pyr = Pyramid::build(current, self.config.levels, backend)?;
        self.recorder.span(
            Track::Gme,
            "pyramid_build",
            t0,
            modelled_ns(backend),
            &[("levels", (self.config.levels as u64).into())],
        );
        self.estimate_with_pyramids(&ref_pyr, &cur_pyr, initial, backend)
    }

    /// Estimates using prebuilt pyramids (lets sequence runners reuse the
    /// previous frame's pyramid, as XM does).
    ///
    /// # Errors
    ///
    /// Returns AddressLib errors surfaced by the backend calls.
    pub fn estimate_with_pyramids(
        &self,
        ref_pyr: &Pyramid,
        cur_pyr: &Pyramid,
        initial: Motion,
        backend: &mut dyn GmeBackend,
    ) -> CoreResult<GmeResult> {
        self.config.validate()?;
        let levels = ref_pyr.levels().min(cur_pyr.levels());
        let top = levels - 1;
        let mut motion = initial.scaled_down(level_scale(top));
        let mut total_iters = 0usize;
        let mut last_residual = f64::INFINITY;
        let mut last_inliers = 0.0f64;

        for li in (0..levels).rev() {
            let ref_level = ref_pyr.level(li);
            let cur_level = cur_pyr.level(li);
            let level_t0 = modelled_ns(backend);
            let level_iters_before = total_iters;
            // AddressLib intra call: spatial gradients of the current
            // level (signed central differences into y/aux).
            let grad = backend.intra(cur_level, &CentralGradient::new())?;

            // Per-level buffers, overwritten by every iteration's warp.
            let mut warped = Frame::new(cur_level.dims());
            let mut samples = vec![f64::NAN; cur_level.pixel_count()];
            for _ in 0..self.config.max_iterations {
                total_iters += 1;
                // warped(p) = cur(motion(p)) ≈ ref(p); `samples` keeps the
                // unrounded values for the normal equations.
                warp_into(cur_level, &motion, &mut warped, &mut samples);
                // AddressLib inter call: residual magnitude image — the
                // convergence measure XM evaluates per iteration.
                let mut residual_img = backend.inter(ref_level, &warped, &AbsDiff::luma())?;
                tag_inliers(&mut residual_img, &warped, self.config.outlier_threshold);
                // AddressLib intra call: clean the inlier mask
                // (majority vote removes speckle outliers).
                let mask = backend.intra(&residual_img, &AlphaMajority::new())?;

                let step =
                    match self.config.model {
                        MotionModel::Translational => self
                            .accumulate::<2>(ref_level, &grad, &mask, &warped, &samples, &motion),
                        MotionModel::Affine => self
                            .accumulate::<6>(ref_level, &grad, &mask, &warped, &samples, &motion),
                        MotionModel::Perspective => self
                            .accumulate::<8>(ref_level, &grad, &mask, &warped, &samples, &motion),
                    };
                let Some((stepped, stats)) = step else { break };
                last_residual = stats.mean_residual;
                last_inliers = stats.inlier_fraction;
                motion = stepped;
                if stats.displacement < self.config.epsilon {
                    break;
                }
            }

            self.recorder.span(
                Track::Gme,
                "pyramid_level",
                level_t0,
                modelled_ns(backend),
                &[
                    ("level", (li as u64).into()),
                    (
                        "iterations",
                        ((total_iters - level_iters_before) as u64).into(),
                    ),
                ],
            );
            if li > 0 {
                motion = motion.scaled_up(2.0);
            }
        }

        Ok(GmeResult {
            motion,
            residual: if last_residual.is_finite() {
                last_residual
            } else {
                0.0
            },
            iterations: total_iters,
            inlier_fraction: last_inliers,
        })
    }

    /// Accumulates one Gauss-Newton step over `NP` parameters (the
    /// model's count) from the iteration's warped frame and unrounded
    /// samples, without warping again, and returns `motion` after the
    /// step. The normal equations stay on the stack. Returns `None` when
    /// the system is singular or no inliers survive.
    fn accumulate<const NP: usize>(
        &self,
        ref_level: &Frame,
        grad: &Frame,
        mask: &Frame,
        warped: &Frame,
        samples: &[f64],
        motion: &Motion,
    ) -> Option<(Motion, StepStats)> {
        debug_assert_eq!(NP, self.config.model.parameter_count());
        let mut ata = [[0.0f64; NP]; NP];
        let mut atb = [0.0f64; NP];
        let mut jac = [0.0f64; NP];
        let (w, h) = (ref_level.width(), ref_level.height());
        let (cx, cy) = centre_of(ref_level.dims());
        let (gw, gx_max, gy_max) = (grad.width(), grad.width() - 1, grad.height() - 1);
        let mut n = 0usize;
        let mut considered = 0usize;
        let mut resid_sum = 0.0f64;
        let step = self.config.subsample;
        // Exact `f64` twins of `px` and `py`: no integer-to-float convert
        // per pixel.
        let fstep = step as f64;
        let mut fy = 1.0;

        for py in (1..h.saturating_sub(1)).step_by(step) {
            let y = fy - cy;
            fy += fstep;
            let map = motion.row(y);
            let ref_row = ref_level.line(py);
            let mask_row = mask.line(py);
            let warped_row = warped.line(py);
            let sample_row = &samples[py * w..(py + 1) * w];
            let mut fx = 1.0;
            for px in (1..w.saturating_sub(1)).step_by(step) {
                let x = fx - cx;
                fx += fstep;
                considered += 1;
                // Pixels the warp could not sample have nothing to fit;
                // the mask's majority vote alone does not rule them out.
                if mask_row[px].alpha == 0 || warped_row[px].alpha == 0 {
                    continue;
                }
                let r = sample_row[px] - f64::from(ref_row[px].y);
                if r.abs() > self.config.outlier_threshold {
                    continue;
                }
                let (wx, wy) = map.at(x);
                // Gradient of the current level, sampled at the warped
                // position (nearest sample of the backend gradient call).
                let gxi = round_clamped(wx + cx, gx_max);
                let gyi = round_clamped(wy + cy, gy_max);
                let (gx, gy) = CentralGradient::decode(grad.pixels()[gyi * gw + gxi]);
                let (gx, gy) = (f64::from(gx), f64::from(gy));

                fill_jacobian(&mut jac, self.config.model, x, y, wx, wy, gx, gy, motion);
                for i in 0..NP {
                    for j in i..NP {
                        ata[i][j] += jac[i] * jac[j];
                    }
                    atb[i] -= jac[i] * r;
                }
                resid_sum += r.abs();
                n += 1;
            }
        }
        if n < NP * 4 {
            return None;
        }
        #[allow(clippy::needless_range_loop)] // symmetric-matrix fill reads ata[j][i]
        for i in 0..NP {
            for j in 0..i {
                ata[i][j] = ata[j][i];
            }
            // Levenberg damping for stability.
            ata[i][i] *= 1.0 + 1e-4;
            ata[i][i] += 1e-9;
        }
        let delta = solve_linear(&mut ata, &mut atb)?;
        Some((
            apply_delta(motion, &delta, self.config.model),
            StepStats {
                mean_residual: resid_sum / n as f64,
                inlier_fraction: n as f64 / considered.max(1) as f64,
                displacement: mean_displacement(&delta),
            },
        ))
    }
}

/// The backend's modelled clock as virtual nanoseconds — the shared
/// timebase of the GME track (spans inherit the backend's timing model,
/// so engine-backed runs line up with the engine's own trace windows).
pub(crate) fn modelled_ns(backend: &dyn GmeBackend) -> u64 {
    (backend.modelled_seconds() * 1e9).round().max(0.0) as u64
}

/// Per-step statistics.
#[derive(Debug, Clone, Copy)]
struct StepStats {
    mean_residual: f64,
    inlier_fraction: f64,
    /// [`mean_displacement`] of the step's parameter delta.
    displacement: f64,
}

/// Mean displacement induced by a parameter delta (rough: the
/// translation components dominate).
fn mean_displacement(delta: &[f64]) -> f64 {
    match delta.len() {
        2 => (delta[0].powi(2) + delta[1].powi(2)).sqrt(),
        6 => {
            (delta[2].powi(2) + delta[5].powi(2)).sqrt()
                + 30.0 * (delta[0].abs() + delta[1].abs() + delta[3].abs() + delta[4].abs())
        }
        8 => {
            (delta[2].powi(2) + delta[5].powi(2)).sqrt()
                + 30.0 * (delta[0].abs() + delta[1].abs() + delta[3].abs() + delta[4].abs())
                + 900.0 * (delta[6].abs() + delta[7].abs())
        }
        _ => f64::INFINITY,
    }
}

/// Marks inliers (|residual| ≤ threshold on valid warp pixels) in the
/// residual frame's alpha channel, in place, for the majority-vote
/// clean-up call.
fn tag_inliers(residual: &mut Frame, warped: &Frame, threshold: f64) {
    for (r, w) in residual.pixels_mut().iter_mut().zip(warped.pixels()) {
        r.alpha = u16::from(w.alpha != 0 && f64::from(r.y) <= threshold);
    }
}

/// Writes the Jacobian row of the chosen model at centred point `(x, y)`
/// with image gradients `(gx, gy)` sampled at the warped position.
#[allow(clippy::too_many_arguments)]
fn fill_jacobian(
    jac: &mut [f64],
    model: MotionModel,
    x: f64,
    y: f64,
    wx: f64,
    wy: f64,
    gx: f64,
    gy: f64,
    motion: &Motion,
) {
    match model {
        MotionModel::Translational => {
            jac[0] = gx;
            jac[1] = gy;
        }
        MotionModel::Affine => {
            jac[0] = gx * x;
            jac[1] = gx * y;
            jac[2] = gx;
            jac[3] = gy * x;
            jac[4] = gy * y;
            jac[5] = gy;
        }
        MotionModel::Perspective => {
            let h = &motion.h;
            let w = clamp_w(h[6] * x + h[7] * y + 1.0);
            jac[0] = gx * x / w;
            jac[1] = gx * y / w;
            jac[2] = gx / w;
            jac[3] = gy * x / w;
            jac[4] = gy * y / w;
            jac[5] = gy / w;
            jac[6] = -(gx * wx + gy * wy) * x / w;
            jac[7] = -(gx * wx + gy * wy) * y / w;
        }
    }
}

/// Applies a parameter delta to the motion (additive update).
fn apply_delta(motion: &Motion, delta: &[f64], model: MotionModel) -> Motion {
    let mut h = motion.h;
    match model {
        MotionModel::Translational => {
            h[2] += delta[0];
            h[5] += delta[1];
        }
        MotionModel::Affine => {
            h[0] += delta[0];
            h[1] += delta[1];
            h[2] += delta[2];
            h[3] += delta[3];
            h[4] += delta[4];
            h[5] += delta[5];
        }
        MotionModel::Perspective => {
            for (hi, di) in h.iter_mut().zip(delta) {
                *hi += di;
            }
        }
    }
    Motion { h }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SoftwareBackend;
    use crate::warp::warp_frame;
    use vip_core::geometry::{Dims, Point};
    use vip_core::pixel::Pixel;
    use vip_video::rng::XorShift64;

    fn textured(dims: Dims) -> Frame {
        Frame::from_fn(dims, |p| {
            let x = p.x as f64;
            let y = p.y as f64;
            let v = 110.0
                + 60.0 * ((x / 7.0).sin() * (y / 9.0).cos())
                + 40.0 * ((x / 23.0 + y / 17.0).sin());
            Pixel::from_luma(v.clamp(0.0, 255.0) as u8)
        })
    }

    /// Renders the current frame as the reference warped by `true_motion`
    /// (current = ref content moved by the motion).
    fn make_pair(dims: Dims, true_motion: &Motion) -> (Frame, Frame) {
        let reference = textured(dims);
        // current(p) = reference(inv(true)(p)): content moves BY true.
        let current = warp_frame(&reference, &true_motion.inverse().unwrap()).frame;
        (reference, current)
    }

    fn recover(dims: Dims, true_motion: &Motion, config: GmeConfig) -> (Motion, GmeResult) {
        let (reference, current) = make_pair(dims, true_motion);
        let mut backend = SoftwareBackend::new();
        let est = Estimator::new(config);
        let r = est
            .estimate(&reference, &current, Motion::identity(), &mut backend)
            .unwrap();
        (r.motion, r)
    }

    #[test]
    fn recovers_pure_translation() {
        let truth = Motion::translation(3.0, -2.0);
        let (m, r) = recover(Dims::new(96, 80), &truth, GmeConfig::translational());
        let err = m.displacement_error(&truth, 96.0, 80.0);
        assert!(err < 0.35, "error {err}, got {m}");
        assert!(r.iterations >= 2);
        assert!(r.inlier_fraction > 0.6);
    }

    #[test]
    fn recovers_affine_zoom() {
        let truth = Motion::similarity(1.03, 0.0, 1.0, 0.5);
        let (m, _) = recover(Dims::new(96, 96), &truth, GmeConfig::default());
        let err = m.displacement_error(&truth, 96.0, 96.0);
        assert!(err < 0.4, "error {err}, got {m}");
    }

    #[test]
    fn recovers_small_rotation() {
        let truth = Motion::similarity(1.0, 0.02, -1.5, 1.0);
        let (m, _) = recover(Dims::new(96, 96), &truth, GmeConfig::default());
        let err = m.displacement_error(&truth, 96.0, 96.0);
        assert!(err < 0.4, "error {err}, got {m}");
    }

    #[test]
    fn perspective_model_runs_and_recovers_affine_truth() {
        let truth = Motion::translation(2.0, 1.0);
        let cfg = GmeConfig {
            model: MotionModel::Perspective,
            ..GmeConfig::default()
        };
        let (m, _) = recover(Dims::new(96, 96), &truth, cfg);
        let err = m.displacement_error(&truth, 96.0, 96.0);
        assert!(err < 0.6, "error {err}, got {m}");
    }

    #[test]
    fn identity_pair_stays_near_identity() {
        let truth = Motion::identity();
        let (m, r) = recover(Dims::new(64, 64), &truth, GmeConfig::default());
        assert!(m.displacement_error(&truth, 64.0, 64.0) < 0.1, "{m}");
        assert!(r.residual < 2.0);
    }

    #[test]
    fn warm_start_converges_faster() {
        let truth = Motion::translation(4.0, 3.0);
        let (reference, current) = make_pair(Dims::new(96, 96), &truth);
        let est = Estimator::new(GmeConfig::translational());
        let mut b1 = SoftwareBackend::new();
        let cold = est
            .estimate(&reference, &current, Motion::identity(), &mut b1)
            .unwrap();
        let mut b2 = SoftwareBackend::new();
        let warm = est.estimate(&reference, &current, truth, &mut b2).unwrap();
        assert!(warm.iterations <= cold.iterations);
    }

    #[test]
    fn backend_call_pattern() {
        let truth = Motion::translation(1.0, 0.0);
        let (reference, current) = make_pair(Dims::new(64, 64), &truth);
        let mut backend = SoftwareBackend::new();
        let est = Estimator::new(GmeConfig::default());
        let _ = est
            .estimate(&reference, &current, Motion::identity(), &mut backend)
            .unwrap();
        let t = backend.tally();
        assert!(t.intra > 0, "pyramids + gradients + masks are intra calls");
        assert!(t.inter > 0, "residual evaluations are inter calls");
        // The paper's workload is intra-heavy (Table 3: ≈1.4×).
        let ratio = t.intra as f64 / t.inter as f64;
        assert!(ratio > 0.8 && ratio < 3.5, "intra:inter ratio {ratio}");
    }

    #[test]
    fn recorder_captures_pyramid_levels() {
        let truth = Motion::translation(1.0, 0.0);
        let (reference, current) = make_pair(Dims::new(64, 64), &truth);
        let session = vip_obs::Session::new();
        let mut backend = SoftwareBackend::new();
        let est = Estimator::new(GmeConfig::default()).with_recorder(session.recorder());
        est.estimate(&reference, &current, Motion::identity(), &mut backend)
            .unwrap();
        let recording = session.finish();
        let gme = recording.on_track(Track::Gme);
        assert!(gme.iter().any(|e| e.name == "pyramid_build"));
        assert_eq!(
            gme.iter().filter(|e| e.name == "pyramid_level").count(),
            GmeConfig::default().levels
        );
        // Spans ride the backend's modelled clock, so they nest inside it.
        let end = modelled_ns(&backend);
        assert!(gme.iter().all(|e| e.end_ns() <= end));
    }

    #[test]
    fn mismatched_dims_rejected() {
        let a = textured(Dims::new(32, 32));
        let b = textured(Dims::new(64, 32));
        let mut backend = SoftwareBackend::new();
        let est = Estimator::new(GmeConfig::default());
        assert!(matches!(
            est.estimate(&a, &b, Motion::identity(), &mut backend),
            Err(CoreError::DimsMismatch { .. })
        ));
    }

    #[test]
    fn invalid_configs_rejected() {
        for cfg in [
            GmeConfig {
                levels: 0,
                ..GmeConfig::default()
            },
            GmeConfig {
                max_iterations: 0,
                ..GmeConfig::default()
            },
            GmeConfig {
                subsample: 0,
                ..GmeConfig::default()
            },
            GmeConfig {
                outlier_threshold: 0.0,
                ..GmeConfig::default()
            },
            GmeConfig {
                outlier_threshold: -1.0,
                ..GmeConfig::default()
            },
            GmeConfig {
                outlier_threshold: f64::NAN,
                ..GmeConfig::default()
            },
            GmeConfig {
                outlier_threshold: f64::INFINITY,
                ..GmeConfig::default()
            },
            GmeConfig {
                epsilon: -0.01,
                ..GmeConfig::default()
            },
            GmeConfig {
                epsilon: f64::NAN,
                ..GmeConfig::default()
            },
        ] {
            let f = textured(Dims::new(32, 32));
            let mut backend = SoftwareBackend::new();
            assert!(
                matches!(
                    Estimator::new(cfg).estimate(&f, &f, Motion::identity(), &mut backend),
                    Err(CoreError::InvalidParameter { .. })
                ),
                "{cfg:?} accepted"
            );
        }
        // Zero epsilon (always run every iteration) stays valid.
        assert!(GmeConfig {
            epsilon: 0.0,
            ..GmeConfig::default()
        }
        .validate()
        .is_ok());
    }

    /// A seeded texture built from basic arithmetic only (no libm), so
    /// the golden bits below do not depend on the platform's `sin`:
    /// random control values every 8 px, bilinearly blended, plus pixel
    /// noise.
    fn seeded_texture(dims: Dims, seed: u64) -> Frame {
        let mut rng = XorShift64::new(seed);
        let gw = dims.width / 8 + 2;
        let grid: Vec<f64> = (0..gw * (dims.height / 8 + 2))
            .map(|_| rng.uniform(30.0, 220.0))
            .collect();
        Frame::from_fn(dims, |p| {
            let (gx, gy) = (p.x as usize / 8, p.y as usize / 8);
            let (tx, ty) = (f64::from(p.x % 8) / 8.0, f64::from(p.y % 8) / 8.0);
            let at = |i: usize, j: usize| grid[(gy + j) * gw + gx + i];
            let top = at(0, 0) + (at(1, 0) - at(0, 0)) * tx;
            let bottom = at(0, 1) + (at(1, 1) - at(0, 1)) * tx;
            let v = top + (bottom - top) * ty + rng.uniform(-3.0, 3.0);
            Pixel::from_luma(v.clamp(0.0, 255.0) as u8)
        })
    }

    /// The golden pairs: a zoom-rotate-shift, and a shift whose current
    /// frame carries an occluding bright patch (a block of outliers).
    fn golden_pair(occluded: bool) -> (Frame, Frame) {
        let dims = Dims::new(80, 64);
        let (seed, truth) = if occluded {
            (0x5eed_0002, Motion::translation(-1.75, 1.25))
        } else {
            (0x5eed_0001, Motion::similarity(1.02, 0.015, 2.5, -1.5))
        };
        let reference = seeded_texture(dims, seed);
        let mut current = warp_frame(&reference, &truth.inverse().unwrap()).frame;
        if occluded {
            for y in 10..26 {
                for x in 50..66 {
                    current.set(Point::new(x, y), Pixel::from_luma(250));
                }
            }
        }
        (reference, current)
    }

    fn golden_run(occluded: bool, model: MotionModel) -> GmeResult {
        let (reference, current) = golden_pair(occluded);
        let mut backend = SoftwareBackend::new();
        Estimator::new(GmeConfig {
            model,
            ..GmeConfig::default()
        })
        .estimate(&reference, &current, Motion::identity(), &mut backend)
        .unwrap()
    }

    /// Bit patterns of `(occluded, model, motion.h, residual,
    /// inlier_fraction, iterations)` recorded before the one-pass
    /// iteration rewrite; any change in summation order, rounding or
    /// pixel visiting order shows up here.
    #[rustfmt::skip]
    const GOLDEN: [(bool, MotionModel, [u64; 8], u64, u64, usize); 6] = [
        (false, MotionModel::Translational, [0x3ff0000000000000, 0x0000000000000000, 0x4003ff5aefcd945c, 0x0000000000000000, 0x3ff0000000000000, 0xbff612553e5293f1, 0x0000000000000000, 0x0000000000000000], 0x4013449e024f9e3f, 0x3feeab837e6972fa, 8),
        (false, MotionModel::Affine, [0x3ff0509f7a429993, 0xbf8ecdef27a5a099, 0x40040f08a556977a, 0x3f8fa451783a9b40, 0x3ff0530a4f4e7dd5, 0xbff8148c93bda17a, 0x0000000000000000, 0x0000000000000000], 0x3ff39828b398aaad, 0x3fee0a9656d0c7e3, 10),
        (false, MotionModel::Perspective, [0x3ff050a9798c37fe, 0xbf8f10ccd29ed0e8, 0x40040a84c1ae2c6c, 0x3f8f0dbcd40c9347, 0x3ff053199b99ae1f, 0xbff80fb154f4f259, 0x3ea8aad831d5b938, 0x3ee1cd578a626c14], 0x3ff38c0104636ceb, 0x3fee0c47fe4e5882, 11),
        (true, MotionModel::Translational, [0x3ff0000000000000, 0x0000000000000000, 0xbffd66eade60eed0, 0x0000000000000000, 0x3ff0000000000000, 0x3ff300257b49f844, 0x0000000000000000, 0x0000000000000000], 0x3ff830e05979f709, 0x3fed5f7f4246b911, 10),
        (true, MotionModel::Affine, [0x3feffd6ec2cd5939, 0x3f730a37326d90ee, 0xbffd5603850df4af, 0x3f5953587f2edd96, 0x3fefe5b4617f25e0, 0x3ff56d688c76a5b0, 0x0000000000000000, 0x0000000000000000], 0x3ff91f5d0cee2e65, 0x3fed461671eb3fbc, 12),
        (true, MotionModel::Perspective, [0x3ff01dd2beb69a4b, 0xbf7af0f304f35f93, 0xbffa5a5cb40bf582, 0xbf648caed9757cd9, 0x3ff0039c44637ffe, 0x3ff41abdba560622, 0xbf1f0913196d7624, 0x3f189d6feef0ea1a], 0x3fffdff9814b55e7, 0x3fed5c1bf34b97d2, 12),
    ];

    #[test]
    fn golden_estimates_are_bit_identical() {
        for (occluded, model, h, residual, inliers, iterations) in GOLDEN {
            let r = golden_run(occluded, model);
            let case = format!("occluded={occluded} model={model:?}");
            assert_eq!(r.motion.h.map(f64::to_bits), h, "{case}: motion");
            assert_eq!(r.residual.to_bits(), residual, "{case}: residual");
            assert_eq!(
                r.inlier_fraction.to_bits(),
                inliers,
                "{case}: inlier fraction"
            );
            assert_eq!(r.iterations, iterations, "{case}: iterations");
        }
    }

    #[test]
    fn subsampling_still_converges() {
        let truth = Motion::translation(2.0, -1.0);
        let cfg = GmeConfig {
            subsample: 2,
            ..GmeConfig::translational()
        };
        let (m, _) = recover(Dims::new(96, 96), &truth, cfg);
        assert!(m.displacement_error(&truth, 96.0, 96.0) < 0.5, "{m}");
    }

    #[test]
    fn perspective_jacobian_divides_by_the_warps_w() {
        // w = h6·x + 1 falls in [1e-12, 1e-9) at x = 1: below the clamp
        // the Jacobian once used, above the one the warp uses.
        let motion = Motion {
            h: [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -(1.0 - 5e-10), 0.0],
        };
        let (x, y) = (1.0, 0.0);
        let w = motion.h[6] * x + 1.0;
        assert!((1e-12..1e-9).contains(&w), "{w}");
        // The numerator h0·x + h1·y + h2 is 1, so the warp's u is 1/w.
        let (u, _) = motion.apply(x, y);
        assert_eq!(u.to_bits(), motion.row(y).at(x).0.to_bits());
        let mut jac = [0.0; 8];
        let model = MotionModel::Perspective;
        fill_jacobian(&mut jac, model, x, y, 0.0, 0.0, 1.0, 0.0, &motion);
        assert_eq!(jac[2].to_bits(), u.to_bits(), "gx / w against 1 / w");
    }
}
