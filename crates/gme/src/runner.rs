//! Sequence-level GME: the top-level software layer of §4.3, estimating
//! frame-to-frame global motion over a whole clip, composing absolute
//! motion and (optionally) building the mosaic.

use vip_core::error::{CoreError, CoreResult};
use vip_core::frame::Frame;
use vip_core::geometry::Dims;
use vip_obs::{Recorder, Track};

use crate::backend::{CallTally, GmeBackend};
use crate::estimate::{modelled_ns, Estimator, GmeConfig, GmeResult};
use crate::model::Motion;
use crate::mosaic::Mosaic;
use crate::pyramid::Pyramid;

/// Per-frame estimation record.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRecord {
    /// Frame index within the sequence (the *current* frame; motion is
    /// estimated from frame `index − 1`).
    pub index: usize,
    /// Relative motion from the previous frame to this frame.
    pub relative: Motion,
    /// Absolute motion from frame 0 to this frame.
    pub absolute: Motion,
    /// Estimator diagnostics.
    pub gme: GmeResult,
}

/// The outcome of running GME over a sequence.
#[derive(Debug, Clone)]
pub struct SequenceReport {
    /// Number of frames processed.
    pub frames: usize,
    /// One record per estimated frame pair (`frames − 1` entries).
    pub records: Vec<FrameRecord>,
    /// AddressLib call tallies accumulated by the backend.
    pub tally: CallTally,
    /// Seconds the backend's timing model attributes to its calls
    /// (engine time for [`crate::backend::EngineBackend`], PM time for
    /// [`crate::backend::SoftwareBackend`]).
    pub backend_seconds: f64,
    /// Seconds the same calls would take on the paper's Pentium-M
    /// software platform (the Table 3 "Time in PM" column), priced per
    /// call at its actual frame size.
    pub pm_seconds: f64,
    /// The mosaic, when requested.
    pub mosaic: Option<Mosaic>,
}

impl SequenceReport {
    /// Mean residual over all estimated pairs.
    #[must_use]
    pub fn mean_residual(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.gme.residual).sum::<f64>() / self.records.len() as f64
    }
}

/// Runs GME (and optional mosaicing) over a sequence of frames.
#[derive(Debug, Clone)]
pub struct SequenceRunner {
    estimator: Estimator,
    recorder: Recorder,
    build_mosaic: bool,
    mosaic_margin: (f64, f64),
}

impl SequenceRunner {
    /// Creates a runner with the given estimator configuration.
    #[must_use]
    pub fn new(config: GmeConfig) -> Self {
        SequenceRunner {
            estimator: Estimator::new(config),
            recorder: Recorder::disabled(),
            build_mosaic: false,
            mosaic_margin: (64.0, 48.0),
        }
    }

    /// Enables mosaic construction with the given canvas margins (world
    /// units each side beyond the frame).
    #[must_use]
    pub fn with_mosaic(mut self, margin_x: f64, margin_y: f64) -> Self {
        self.build_mosaic = true;
        self.mosaic_margin = (margin_x, margin_y);
        self
    }

    /// Attaches an observability recorder: the run emits one span per
    /// estimated frame pair plus running call-count samples on the GME
    /// track, and the estimator emits its per-level spans onto the same
    /// bus. All timed on the backend's modelled clock.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.estimator = self.estimator.with_recorder(recorder.clone());
        self.recorder = recorder;
        self
    }

    /// Processes the frames, estimating motion between consecutive pairs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyFrame`] when the iterator yields no
    /// frames, [`CoreError::DimsMismatch`] when frame sizes vary, and
    /// propagates estimator/backend errors.
    pub fn run<I>(&self, frames: I, backend: &mut dyn GmeBackend) -> CoreResult<SequenceReport>
    where
        I: IntoIterator<Item = Frame>,
    {
        let mut it = frames.into_iter();
        let first = it.next().ok_or(CoreError::EmptyFrame)?;
        let dims: Dims = first.dims();
        if dims.is_empty() {
            return Err(CoreError::EmptyFrame);
        }

        let mut mosaic = self
            .build_mosaic
            .then(|| Mosaic::sized_for(dims, self.mosaic_margin.0, self.mosaic_margin.1));

        let levels = self.estimator.config().levels;
        let mut ref_pyr = Pyramid::build(&first, levels, backend)?;
        if let Some(m) = mosaic.as_mut() {
            m.add_frame(&first, &Motion::identity(), backend)?;
        }

        let mut records = Vec::new();
        let mut absolute = Motion::identity();
        let mut prediction = Motion::identity();
        let mut count = 1usize;

        for frame in it {
            if frame.dims() != dims {
                return Err(CoreError::DimsMismatch {
                    left: dims,
                    right: frame.dims(),
                });
            }
            let frame_t0 = modelled_ns(backend);
            let cur_pyr = Pyramid::build(&frame, levels, backend)?;
            let gme = self
                .estimator
                .estimate_with_pyramids(&ref_pyr, &cur_pyr, prediction, backend)?;
            if self.recorder.is_enabled() {
                let now = modelled_ns(backend);
                self.recorder.span(
                    Track::Gme,
                    "frame_pair",
                    frame_t0,
                    now,
                    &[
                        ("frame", (count as u64).into()),
                        ("iterations", (gme.iterations as u64).into()),
                    ],
                );
                self.recorder.counter(
                    Track::Gme,
                    "calls_total",
                    now,
                    backend.tally().total() as f64,
                );
            }
            let relative = gme.motion;
            // Warm-start the next pair with this pair's motion.
            prediction = relative;
            // absolute_t maps frame-0 coords → frame-t coords.
            absolute = relative.compose(&absolute);
            if let Some(m) = mosaic.as_mut() {
                m.add_frame(&frame, &absolute, backend)?;
            }
            records.push(FrameRecord {
                index: count,
                relative,
                absolute,
                gme,
            });
            ref_pyr = cur_pyr;
            count += 1;
        }

        Ok(SequenceReport {
            frames: count,
            records,
            tally: backend.tally(),
            backend_seconds: backend.modelled_seconds(),
            pm_seconds: backend.pm_modelled_seconds(),
            mosaic,
        })
    }

    /// Processes several independent clips concurrently on the `vip-par`
    /// work pool, one fresh backend per clip.
    ///
    /// Frames *within* a clip are warm-start dependent (each pair's
    /// prediction seeds the next), so the parallel grain is the clip:
    /// `make_backend(i)` builds clip `i`'s private backend and each clip
    /// runs exactly as [`SequenceRunner::run`] would serially. Outcomes
    /// come back in clip order, identical at any thread count (asserted
    /// by `batch_matches_serial_runs_at_any_thread_count`).
    pub fn run_batch<B, M>(
        &self,
        clips: &[Vec<Frame>],
        threads: usize,
        make_backend: M,
    ) -> Vec<CoreResult<SequenceReport>>
    where
        B: GmeBackend,
        M: Fn(usize) -> B + Sync,
    {
        vip_par::map_indexed(clips.len(), threads, |i| {
            let mut backend = make_backend(i);
            self.run(clips[i].iter().cloned(), &mut backend)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{EngineBackend, SoftwareBackend};
    use crate::model::MotionModel;
    use vip_video::TestSequence;

    use vip_core::pixel::Pixel;

    fn textured(dims: Dims) -> Frame {
        Frame::from_fn(dims, |p| {
            let x = p.x as f64;
            let y = p.y as f64;
            let v = 120.0
                + 55.0 * ((x / 6.0).sin() * (y / 8.0).cos())
                + 35.0 * ((x / 19.0 + y / 23.0).sin());
            Pixel::from_luma(v.clamp(0.0, 255.0) as u8)
        })
    }

    /// A synthetic pan: frame t samples an analytic texture at
    /// `p + t·(dx, dy)` — no border artefacts, exact sub-pixel motion.
    fn pan_sequence(dims: Dims, n: usize, dx: f64, dy: f64) -> Vec<Frame> {
        (0..n)
            .map(|t| {
                let ox = t as f64 * dx;
                let oy = t as f64 * dy;
                Frame::from_fn(dims, |p| {
                    let x = p.x as f64 + ox;
                    let y = p.y as f64 + oy;
                    let v = 120.0
                        + 55.0 * ((x / 6.0).sin() * (y / 8.0).cos())
                        + 35.0 * ((x / 19.0 + y / 23.0).sin());
                    Pixel::from_luma(v.clamp(0.0, 255.0) as u8)
                })
            })
            .collect()
    }

    #[test]
    fn tracks_constant_pan() {
        let frames = pan_sequence(Dims::new(80, 64), 5, 1.5, -0.5);
        let runner = SequenceRunner::new(GmeConfig::translational());
        let mut backend = SoftwareBackend::new();
        let report = runner.run(frames, &mut backend).unwrap();
        assert_eq!(report.frames, 5);
        assert_eq!(report.records.len(), 4);
        // frame t samples base at p + t·(1.5, −0.5), so the ref→cur
        // mapping is a translation by −(1.5, −0.5).
        for rec in &report.records {
            let (dx, dy) = rec.relative.translation_part();
            assert!((dx + 1.5).abs() < 0.4, "frame {}: dx {dx}", rec.index);
            assert!((dy - 0.5).abs() < 0.4, "frame {}: dy {dy}", rec.index);
        }
        // Absolute motion accumulates.
        let (adx, _) = report.records.last().unwrap().absolute.translation_part();
        assert!((adx + 6.0).abs() < 1.2, "absolute dx {adx}");
    }

    #[test]
    fn empty_sequence_rejected() {
        let runner = SequenceRunner::new(GmeConfig::default());
        let mut backend = SoftwareBackend::new();
        assert!(matches!(
            runner.run(Vec::<Frame>::new(), &mut backend),
            Err(CoreError::EmptyFrame)
        ));
    }

    #[test]
    fn dims_change_rejected() {
        let runner = SequenceRunner::new(GmeConfig::default());
        let mut backend = SoftwareBackend::new();
        let frames = vec![textured(Dims::new(32, 32)), textured(Dims::new(64, 32))];
        assert!(matches!(
            runner.run(frames, &mut backend),
            Err(CoreError::DimsMismatch { .. })
        ));
    }

    #[test]
    fn call_tally_intra_heavier_than_inter() {
        let frames = pan_sequence(Dims::new(64, 64), 6, 1.0, 0.0);
        let runner = SequenceRunner::new(GmeConfig::default());
        let mut backend = SoftwareBackend::new();
        let report = runner.run(frames, &mut backend).unwrap();
        let t = report.tally;
        assert!(t.intra > 0 && t.inter > 0);
        let ratio = t.intra as f64 / t.inter as f64;
        // Table 3's workload is intra-heavy (≈1.4×).
        assert!(ratio > 0.9 && ratio < 3.0, "ratio {ratio} ({t})");
    }

    #[test]
    fn engine_backend_accumulates_fpga_time() {
        let frames = pan_sequence(Dims::new(48, 48), 3, 1.0, 0.0);
        let runner = SequenceRunner::new(GmeConfig::translational());
        let mut backend = EngineBackend::prototype();
        let report = runner.run(frames, &mut backend).unwrap();
        assert!(report.backend_seconds > 0.0);
        assert_eq!(report.tally.total(), backend.tally().total());
    }

    #[test]
    fn mosaic_grows_with_pan() {
        let frames = pan_sequence(Dims::new(64, 48), 5, 3.0, 0.0);
        let runner = SequenceRunner::new(GmeConfig::translational()).with_mosaic(40.0, 16.0);
        let mut backend = SoftwareBackend::new();
        let report = runner.run(frames, &mut backend).unwrap();
        let mosaic = report.mosaic.expect("mosaic requested");
        assert_eq!(mosaic.frames_added(), 5);
        assert!(mosaic.coverage() > 0.2);
    }

    #[test]
    fn report_statistics() {
        let frames = pan_sequence(Dims::new(64, 64), 4, 0.5, 0.5);
        let runner = SequenceRunner::new(GmeConfig::translational());
        let mut backend = SoftwareBackend::new();
        let report = runner.run(frames, &mut backend).unwrap();
        assert!(report.mean_residual() < 20.0);
    }

    #[test]
    fn recorder_spans_per_frame_and_engine_subsystems() {
        let frames = pan_sequence(Dims::new(48, 48), 3, 1.0, 0.0);
        let session = vip_obs::Session::new();
        let runner =
            SequenceRunner::new(GmeConfig::translational()).with_recorder(session.recorder());
        let mut backend = EngineBackend::prototype();
        // Wire the same bus into the engine so its call spans share the
        // trace. (Timebases differ only by interleaving of PM pricing.)
        backend.engine_mut().set_recorder(session.recorder());
        runner.run(frames, &mut backend).unwrap();
        let recording = session.finish();
        let gme = recording.on_track(Track::Gme);
        assert_eq!(
            gme.iter().filter(|e| e.name == "frame_pair").count(),
            2,
            "3 frames = 2 estimated pairs"
        );
        assert!(gme.iter().any(|e| e.name == "calls_total"));
        // The engine contributed its own call spans on the engine track.
        assert!(recording
            .on_track(Track::Engine)
            .iter()
            .any(|e| e.name == "intra_call" || e.name == "inter_call"));
    }

    #[test]
    fn batch_matches_serial_runs_at_any_thread_count() {
        let dims = Dims::new(48, 48);
        let clips: Vec<Vec<Frame>> = [(1.0, 0.0), (0.0, 1.0), (1.5, -0.5), (0.5, 0.5)]
            .iter()
            .map(|&(dx, dy)| pan_sequence(dims, 4, dx, dy))
            .collect();
        let runner = SequenceRunner::new(GmeConfig::translational());

        let serial: Vec<SequenceReport> = clips
            .iter()
            .map(|clip| {
                let mut backend = SoftwareBackend::new();
                runner.run(clip.iter().cloned(), &mut backend).unwrap()
            })
            .collect();

        for threads in [1, 4, 8] {
            let batch = runner.run_batch(&clips, threads, |_| SoftwareBackend::new());
            assert_eq!(batch.len(), clips.len());
            for (i, (b, s)) in batch.iter().zip(&serial).enumerate() {
                let b = b.as_ref().unwrap_or_else(|e| panic!("clip {i}: {e}"));
                assert_eq!(b.records, s.records, "clip {i} at {threads} threads");
                assert_eq!(b.tally, s.tally, "clip {i} at {threads} threads");
                assert_eq!(b.backend_seconds, s.backend_seconds, "clip {i}");
                assert_eq!(b.pm_seconds, s.pm_seconds, "clip {i}");
            }
        }
    }

    #[test]
    fn batch_surfaces_per_clip_errors_in_order() {
        let dims = Dims::new(32, 32);
        let clips = vec![
            pan_sequence(dims, 3, 1.0, 0.0),
            Vec::new(), // empty clip must fail, others must still succeed
            pan_sequence(dims, 3, 0.0, 1.0),
        ];
        let runner = SequenceRunner::new(GmeConfig::translational());
        let batch = runner.run_batch(&clips, 4, |_| SoftwareBackend::new());
        assert!(batch[0].is_ok());
        assert!(matches!(batch[1], Err(CoreError::EmptyFrame)));
        assert!(batch[2].is_ok());
    }

    #[test]
    fn software_and_engine_backends_agree_on_motion() {
        let frames = pan_sequence(Dims::new(64, 64), 3, 2.0, 1.0);
        let runner = SequenceRunner::new(GmeConfig::translational());
        let mut sw = SoftwareBackend::new();
        let mut hw = EngineBackend::prototype();
        let a = runner.run(frames.clone(), &mut sw).unwrap();
        let b = runner.run(frames, &mut hw).unwrap();
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.relative, rb.relative, "frame {}", ra.index);
        }
        // Identical call pattern on both backends.
        assert_eq!(a.tally, b.tally);
    }
    /// Bits of every `relative.h` of `SequenceRunner::run` over a 6-frame
    /// QCIF `dome` clip on the software backend, for the default Affine
    /// configuration and for Perspective (whose non-zero `h6`/`h7` take
    /// the projective divide), recorded before the per-row coordinate map
    /// replaced the per-pixel `Motion::apply` in the warp and the normal
    /// equations. Any change in rounding, summation order or pixel
    /// visiting order at workload scale shows up here.
    #[rustfmt::skip]
    const QCIF_DOME: [(MotionModel, [[u64; 8]; 5]); 2] = [
        (MotionModel::Affine, [
            [0x3fefffec12ee4dc5, 0x3f573064fb6d70a2, 0xbfe21cb0e7cf8931, 0xbf5544a5857487a4, 0x3ff00013faea81a9, 0xbfdb60ed27fec516, 0x0000000000000000, 0x0000000000000000],
            [0x3fefff85d65bc606, 0x3f57ce75231888f5, 0xbfe228377b5edd79, 0xbf54cba2f3f7d680, 0x3feffffd62a7eb80, 0xbfdb15f6ba13efdc, 0x0000000000000000, 0x0000000000000000],
            [0x3feffffd8a3cd081, 0x3f58381eb4e94ef5, 0xbfe24bb25ae9a506, 0xbf54d73e89e0014c, 0x3ff0000fdbcb9a93, 0xbfdb158f7f8e749c, 0x0000000000000000, 0x0000000000000000],
            [0x3fefffa83638f125, 0x3f5736b49c4fa491, 0xbfe22634a0567d5f, 0xbf550458db73b07e, 0x3ff0001bc209c496, 0xbfdb2396f8e5e92a, 0x0000000000000000, 0x0000000000000000],
            [0x3ff0000050734bbc, 0x3f578d4ab4b247ba, 0xbfe24175b869d1d1, 0xbf54e60f04890de4, 0x3fefff93f26a18fa, 0xbfdb11435189d4bc, 0x0000000000000000, 0x0000000000000000],
        ]),
        (MotionModel::Perspective, [
            [0x3fefffd165e0e47f, 0x3f56f3c4bcc1d332, 0xbfe202b51349e407, 0xbf555ad80a1f4eba, 0x3ff00027105fd24d, 0xbfdba25a986ff814, 0x3ec382858579f3d5, 0xbed0c778bac50be6],
            [0x3fefff5113f9de8d, 0x3f57b6b21cd581cd, 0xbfe21594971f18d2, 0xbf54e1d9369351cb, 0x3ff000082fd44d67, 0xbfdb48c3e2433f31, 0x3ebaaec13f5655bd, 0xbeca3d30bcbc8594],
            [0x3ff000002df5493a, 0x3f5837b309728840, 0xbfe23949ecc161e8, 0xbf54da620d312922, 0x3ff00020b97d471b, 0xbfdb4123c802304d, 0x3eb9a89e9c03c239, 0xbec87bf60f232e14],
            [0x3fefffb2fb2d8b05, 0x3f572e03db4216d9, 0xbfe205e629e89f58, 0xbf55116404985ed6, 0x3ff00032753a8584, 0xbfdb4df1bf09efe3, 0x3ec6dab9edc17a38, 0xbec7d4e60230a10c],
            [0x3ff00000cd3d70fa, 0x3f57bc6a836ff9ae, 0xbfe223cb7e25c645, 0xbf54f6bbd26b9fee, 0x3fefffc0e158702f, 0xbfdb38e50d13db6b, 0x3ec3608cd763bf70, 0xbec4cebd50e149e4],
        ]),
    ];

    #[test]
    fn qcif_dome_motion_is_bit_identical() {
        let seq = TestSequence::dome().scaled(176, 144, 6);
        for (model, golden) in QCIF_DOME {
            let runner = SequenceRunner::new(GmeConfig {
                model,
                ..GmeConfig::default()
            });
            let mut backend = SoftwareBackend::new();
            let report = runner.run(seq.frames(), &mut backend).unwrap();
            assert_eq!(report.records.len(), golden.len(), "{model:?} pairs");
            for (rec, h) in report.records.iter().zip(golden) {
                assert_eq!(
                    rec.relative.h.map(f64::to_bits),
                    h,
                    "{model:?} pair {}: {}",
                    rec.index,
                    rec.relative
                );
            }
        }
    }
}
