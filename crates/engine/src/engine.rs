//! The AddressEngine: the coprocessor facade the host calls through.
//!
//! Mirrors the AddressLib call interface of `vip-core`: the host keeps the
//! high-level algorithm and dispatches each low-level pixel pass to the
//! engine (§1: *"all high level parts of the algorithm are executed on the
//! main CPU and only low level operations are executed on
//! AddressEngine"*). Every call produces the same pixels as the software
//! library — verified bit-exactly in detailed mode — plus an
//! [`EngineReport`] with the call's schedule and memory traffic.
//!
//! # Examples
//!
//! ```
//! use vip_engine::engine::AddressEngine;
//! use vip_engine::config::EngineConfig;
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::ops::filter::SobelGradient;
//! use vip_core::pixel::Pixel;
//!
//! # fn main() -> Result<(), vip_engine::error::EngineError> {
//! let mut engine = AddressEngine::new(EngineConfig::prototype())?;
//! let frame = Frame::filled(Dims::new(64, 48), Pixel::from_luma(40));
//! let run = engine.run_intra(&frame, &SobelGradient::new())?;
//! assert_eq!(run.output.dims(), frame.dims());
//! assert!(run.report.timeline.total > 0.0);
//! # Ok(())
//! # }
//! ```

use vip_core::accounting::{AccessModel, AddressingMode, CallDescriptor};
use vip_core::addressing::segment::{SegmentOptions, SegmentResult};
use vip_core::frame::Frame;
use vip_core::geometry::{Dims, Point};
use vip_core::ops::segment_ops::NeighborCriterion;
use vip_core::ops::{InterOp, IntraOp};
use vip_core::pixel::ChannelSet;
use vip_obs::{Recorder, Registry, Track};

use crate::config::{EngineConfig, SimulationFidelity, StepMode};
use crate::error::{EngineError, EngineResult};
use crate::fast::{run_inter_fast, run_intra_fast, Skeletons};
use crate::process_unit::{run_inter_detailed, run_intra_detailed, PuProbe};
use crate::report::{record_into, stats_from_registry, EngineReport, EngineStats};
use crate::timing::{
    inter_timeline, intra_timeline, seconds_to_ns, segment_timeline, CallTimeline,
};
use crate::zbt::{ZbtMemory, ZbtRegion};

/// One completed engine call: the produced frame plus its report.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// The produced frame (bit-exact with the software AddressLib).
    pub output: Frame,
    /// Schedule, access counts and (in detailed mode) pipeline
    /// statistics.
    pub report: EngineReport,
}

/// One completed segment call on the outlook engine.
#[derive(Debug, Clone)]
pub struct EngineSegmentRun {
    /// The software-identical segment result.
    pub result: SegmentResult,
    /// Schedule and access counts.
    pub report: EngineReport,
}

/// The simulated AddressEngine coprocessor.
#[derive(Debug)]
pub struct AddressEngine {
    config: EngineConfig,
    zbt: ZbtMemory,
    /// Metric accumulation; the [`EngineStats`] facade derives from it.
    metrics: Registry,
    /// Observability bus handle; disabled by default.
    recorder: Recorder,
    /// Virtual clock: nanoseconds of simulated time consumed by completed
    /// calls, so successive calls occupy disjoint trace windows.
    clock_ns: u64,
    /// Number of stage-trace cycles recorded per detailed call.
    trace_limit: usize,
    /// Fast-forward timing-skeleton results, one per call geometry.
    skeletons: Skeletons,
}

impl AddressEngine {
    /// Creates an engine with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] when the configuration fails
    /// validation.
    pub fn new(config: EngineConfig) -> EngineResult<Self> {
        config.validate()?;
        let zbt = ZbtMemory::new(&config);
        Ok(AddressEngine {
            skeletons: Skeletons::new(config.clone()),
            config,
            zbt,
            metrics: Registry::new(),
            recorder: Recorder::disabled(),
            clock_ns: 0,
            trace_limit: 0,
        })
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Accumulated call statistics (the Table 3 counters), derived from
    /// the metrics registry.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        stats_from_registry(&self.metrics)
    }

    /// The full metrics registry behind [`AddressEngine::stats`]:
    /// per-subsystem counters, the call-latency histogram, stall tallies.
    #[must_use]
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Clears the accumulated statistics and rewinds the virtual clock.
    pub fn reset_stats(&mut self) {
        self.metrics.clear();
        self.clock_ns = 0;
    }

    /// Attaches an observability recorder: every subsequent call emits
    /// schedule instants plus PCI/DMA/ZBT/IIM/OIM/PU/PLC spans onto it.
    /// Pass [`Recorder::disabled`] to detach.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The attached recorder (disabled unless set).
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Nanoseconds of simulated time consumed by completed calls.
    #[must_use]
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Enables recording of the first `cycles` stage-occupancy snapshots
    /// of each detailed call (the fig. 5 trace).
    pub fn set_trace_limit(&mut self, cycles: usize) {
        self.trace_limit = cycles;
    }

    /// A Process Unit probe whose cycle 0 sits at the call's
    /// [`CallTimeline::processing_origin`]; only a live recorder reads it.
    fn pu_probe(&self, timeline: &CallTimeline, dims: Dims) -> PuProbe {
        let origin = if self.recorder.is_enabled() {
            timeline.processing_origin(dims, &self.config)
        } else {
            0.0
        };
        PuProbe::new(
            self.recorder.clone(),
            self.clock_ns + seconds_to_ns(origin),
            1e9 / self.config.engine_clock.hz,
        )
    }

    /// Folds the report into the metrics registry, publishes the
    /// call-level trace (the timeline's instants and PCI/DMA spans, ZBT
    /// bank activity), and advances the virtual clock past the call.
    fn finish_call(&mut self, name: &'static str, report: &EngineReport, dims: Dims) {
        record_into(&mut self.metrics, report);
        if report.processing.is_some() {
            // Detailed runs reset the bank counters after the inbound
            // load, so they hold this call's PU input reads, result writes
            // and outbound unload reads, and nothing else: the per-bank
            // duty behind `vipctl report`.
            for (bank, s) in self.zbt.stats().iter().enumerate() {
                self.metrics
                    .inc(crate::report::zbt_bank_key(bank), s.total());
            }
        }
        if self.recorder.is_enabled() {
            let t0 = self.clock_ns;
            let end = t0 + seconds_to_ns(report.timeline.total);
            self.recorder.span(
                Track::Engine,
                name,
                t0,
                end,
                &[
                    ("busy_s", report.timeline.total.into()),
                    ("hardware_accesses", report.hardware_accesses.into()),
                ],
            );
            report.timeline.emit(&self.recorder, t0, dims, &self.config);
            if report.processing.is_some() {
                self.emit_zbt_spans(t0, report);
            }
        }
        self.clock_ns += seconds_to_ns(report.timeline.total);
    }

    /// One `bank_active` span per ZBT bank that saw traffic during the
    /// call, covering input arrival through result drain. Its word counts
    /// are the call's PU input reads, result writes and outbound unload
    /// reads: every detailed run resets the counters after the inbound
    /// load.
    fn emit_zbt_spans(&self, t0: u64, report: &EngineReport) {
        let start = t0 + seconds_to_ns(report.timeline.interrupt_overhead / 2.0);
        let end = t0 + seconds_to_ns(report.timeline.drain_end);
        for (bank, s) in self.zbt.stats().iter().enumerate() {
            if s.total() == 0 {
                continue;
            }
            self.recorder.span(
                Track::ZbtBank(bank as u8),
                "bank_active",
                start,
                end,
                &[
                    ("word_reads", s.word_reads.into()),
                    ("word_writes", s.word_writes.into()),
                ],
            );
        }
    }

    fn check_fits(&self, frame: &Frame) -> EngineResult<()> {
        if frame.dims().is_empty() {
            return Err(EngineError::Core(vip_core::error::CoreError::EmptyFrame));
        }
        if !self.zbt.fits(frame.dims()) {
            return Err(EngineError::FrameTooLarge {
                dims: frame.dims(),
                required_bytes: frame.pixel_count() * 8,
                available_bytes: self.zbt.region_bytes(),
            });
        }
        Ok(())
    }

    fn load_region(&mut self, region: ZbtRegion, frame: &Frame) -> EngineResult<()> {
        self.zbt.write_input_run(region, 0, frame.pixels())?;
        Ok(())
    }

    fn unload_result(&mut self, dims: Dims) -> EngineResult<Frame> {
        let total = dims.pixel_count();
        let pixels = self.zbt.read_result_run(0, total, total)?;
        Ok(Frame::from_pixels(dims, pixels)?)
    }

    /// Leaves the closed-form bank traffic of a fast-forward `mode` call
    /// over `dims` frames in the bank counters, as the cycle-stepped call
    /// leaves its own, and returns its pixel access cycles. No pixel moves
    /// through the banks.
    fn charge_call(&mut self, mode: AddressingMode, dims: Dims) -> u64 {
        let traffic = self.zbt.call_traffic(mode, dims);
        self.zbt.reset_stats();
        self.zbt.charge(&traffic);
        traffic.pixel_access_cycles
    }

    /// Runs an intra call. Window samples outside the frame clamp to the
    /// nearest edge pixel, as the IIM re-delivers edge lines (§3.1).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::FrameTooLarge`] when the frame exceeds the
    /// ZBT capacity, and propagates AddressLib errors, among them the
    /// `InvalidParameter` of a shape wider than nine lines, which every
    /// fidelity returns before it does any work.
    pub fn run_intra<O: IntraOp>(&mut self, frame: &Frame, op: &O) -> EngineResult<EngineRun> {
        self.check_fits(frame)?;
        op.shape().check_span()?;
        let descriptor =
            CallDescriptor::intra(op.shape(), op.input_channels(), op.output_channels());
        let timeline = intra_timeline(frame.dims(), op.shape().radius(), &self.config);
        let access_model = AccessModel::for_call(&descriptor, frame.dims());

        let dims = frame.dims();
        let software = || vip_core::addressing::intra::run_intra(frame, op);
        let (output, hardware_accesses, processing) =
            match (self.config.fidelity, self.config.step_mode) {
                (SimulationFidelity::Detailed, StepMode::CycleStepped) => {
                    self.load_region(ZbtRegion::InputA, frame)?;
                    self.zbt.reset_stats();
                    let probe = self.pu_probe(&timeline, dims);
                    let stats = run_intra_detailed(
                        &mut self.zbt,
                        dims,
                        op,
                        &self.config,
                        self.trace_limit,
                        &probe,
                    )?;
                    let hw = self.zbt.pixel_access_cycles();
                    (self.unload_result(dims)?, hw, Some(stats))
                }
                (SimulationFidelity::Detailed, StepMode::FastForward) => {
                    let output = software()?.output;
                    let probe = self.pu_probe(&timeline, dims);
                    let radius = op.shape().radius();
                    let stats = run_intra_fast(
                        &mut self.skeletons,
                        dims,
                        radius,
                        self.trace_limit,
                        &probe,
                    )?;
                    let hw = self.charge_call(AddressingMode::Intra, dims);
                    (output, hw, Some(stats))
                }
                (SimulationFidelity::Analytic, _) => {
                    (software()?.output, access_model.hardware_accesses, None)
                }
            };

        let report = EngineReport {
            descriptor,
            timeline,
            access_model,
            hardware_accesses,
            processing,
        };
        self.finish_call("intra_call", &report, frame.dims());
        Ok(EngineRun { output, report })
    }

    /// Runs an inter call.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::FrameTooLarge`] for oversized frames and
    /// propagates AddressLib errors (e.g. dimension mismatch).
    pub fn run_inter<O: InterOp>(
        &mut self,
        a: &Frame,
        b: &Frame,
        op: &O,
    ) -> EngineResult<EngineRun> {
        self.check_fits(a)?;
        if a.dims() != b.dims() {
            return Err(EngineError::Core(
                vip_core::error::CoreError::DimsMismatch {
                    left: a.dims(),
                    right: b.dims(),
                },
            ));
        }
        let descriptor = CallDescriptor::inter(op.input_channels(), op.output_channels());
        let timeline = inter_timeline(a.dims(), &self.config);
        let access_model = AccessModel::for_call(&descriptor, a.dims());

        let dims = a.dims();
        let software = || vip_core::addressing::inter::run_inter(a, b, op);
        let (output, hardware_accesses, processing) =
            match (self.config.fidelity, self.config.step_mode) {
                (SimulationFidelity::Detailed, StepMode::CycleStepped) => {
                    self.load_region(ZbtRegion::InputA, a)?;
                    self.load_region(ZbtRegion::InputB, b)?;
                    self.zbt.reset_stats();
                    let probe = self.pu_probe(&timeline, dims);
                    let stats = run_inter_detailed(
                        &mut self.zbt,
                        dims,
                        op,
                        &self.config,
                        self.trace_limit,
                        &probe,
                    )?;
                    let hw = self.zbt.pixel_access_cycles();
                    (self.unload_result(dims)?, hw, Some(stats))
                }
                (SimulationFidelity::Detailed, StepMode::FastForward) => {
                    let output = software()?.output;
                    let probe = self.pu_probe(&timeline, dims);
                    let stats =
                        run_inter_fast(&mut self.skeletons, dims, self.trace_limit, &probe)?;
                    let hw = self.charge_call(AddressingMode::Inter, dims);
                    (output, hw, Some(stats))
                }
                (SimulationFidelity::Analytic, _) => {
                    (software()?.output, access_model.hardware_accesses, None)
                }
            };

        let report = EngineReport {
            descriptor,
            timeline,
            access_model,
            hardware_accesses,
            processing,
        };
        self.finish_call("inter_call", &report, a.dims());
        Ok(EngineRun { output, report })
    }

    /// Runs a segment-addressing call — only available on an engine
    /// configured with the §5 outlook capability
    /// ([`EngineConfig::outlook_v2`]); the DATE 2005 prototype rejects it
    /// (*"Segment addressing is planned for future versions"*, §6).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedCapability`] on a v1 engine,
    /// [`EngineError::FrameTooLarge`] for oversized frames, and
    /// propagates AddressLib errors (no seeds, out-of-bounds seeds).
    pub fn run_segment<C: NeighborCriterion>(
        &mut self,
        frame: &Frame,
        seeds: &[Point],
        criterion: &C,
        options: SegmentOptions,
    ) -> EngineResult<EngineSegmentRun> {
        if !self.config.segment_capable {
            return Err(EngineError::UnsupportedCapability {
                capability: "segment addressing (planned for future versions, §6)",
            });
        }
        self.check_fits(frame)?;
        let result = vip_core::addressing::segment::run_segment(frame, seeds, criterion, options)?;
        let descriptor = CallDescriptor::segment(
            options.connectivity,
            ChannelSet::Y,
            ChannelSet::ALPHA.union(ChannelSet::AUX),
        );
        let timeline = segment_timeline(frame.dims(), result.report.pixels_processed, &self.config);
        let access_model = AccessModel::for_call(&descriptor, frame.dims());
        let report = EngineReport {
            descriptor,
            timeline,
            access_model,
            // Segment hardware traffic: one read + one write cycle per
            // *segment* pixel plus the full-frame transfer accounted in
            // the timeline.
            hardware_accesses: 2 * result.report.pixels_processed,
            processing: None,
        };
        self.finish_call("segment_call", &report, frame.dims());
        Ok(EngineSegmentRun { result, report })
    }

    /// The fig. 3 memory map of the engine's ZBT for a given frame size.
    #[must_use]
    pub fn memory_map(&self, dims: Dims) -> crate::zbt::MemoryMap {
        self.zbt.memory_map(dims, self.config.strip_lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InterOverlap;
    use vip_core::geometry::{Dims, ImageFormat};
    use vip_core::ops::arith::AbsDiff;
    use vip_core::ops::filter::{BoxBlur, SobelGradient};
    use vip_core::ops::morph::Dilate;
    use vip_core::ops::segment_ops::HomogeneityCriterion;
    use vip_core::pixel::Pixel;

    fn frame(dims: Dims) -> Frame {
        Frame::from_fn(dims, |p| {
            Pixel::from_luma(((p.x * 5 + p.y * 11) % 256) as u8)
        })
    }

    #[test]
    fn analytic_output_matches_software() {
        let mut e = AddressEngine::new(EngineConfig::prototype()).unwrap();
        let f = frame(Dims::new(48, 32));
        let run = e.run_intra(&f, &BoxBlur::con8()).unwrap();
        let sw = vip_core::addressing::intra::run_intra(&f, &BoxBlur::con8()).unwrap();
        assert_eq!(run.output, sw.output);
        assert!(run.report.processing.is_none());
    }

    #[test]
    fn detailed_output_matches_software() {
        let mut e = AddressEngine::new(EngineConfig::prototype_detailed()).unwrap();
        let f = frame(Dims::new(24, 16));
        let run = e.run_intra(&f, &SobelGradient::new()).unwrap();
        let sw = vip_core::addressing::intra::run_intra(&f, &SobelGradient::new()).unwrap();
        assert_eq!(run.output, sw.output);
        let stats = run.report.processing.expect("detailed stats");
        assert_eq!(stats.pixels, 24 * 16);
    }

    #[test]
    fn detailed_and_analytic_hardware_accesses_agree() {
        let f = frame(Dims::new(20, 20));
        let mut det = AddressEngine::new(EngineConfig::prototype_detailed()).unwrap();
        let mut ana = AddressEngine::new(EngineConfig::prototype()).unwrap();
        let rd = det.run_intra(&f, &Dilate::con8()).unwrap();
        let ra = ana.run_intra(&f, &Dilate::con8()).unwrap();
        assert_eq!(rd.report.hardware_accesses, ra.report.hardware_accesses);
        assert_eq!(rd.report.hardware_accesses, 2 * 400);
    }

    #[test]
    fn inter_both_modes_match() {
        let a = frame(Dims::new(16, 16));
        let b = frame(Dims::new(16, 16));
        let sw = vip_core::addressing::inter::run_inter(&a, &b, &AbsDiff::luma()).unwrap();
        for cfg in [
            EngineConfig::prototype(),
            EngineConfig::prototype_detailed(),
        ] {
            let mut e = AddressEngine::new(cfg).unwrap();
            let run = e.run_inter(&a, &b, &AbsDiff::luma()).unwrap();
            assert_eq!(run.output, sw.output);
        }
    }

    #[test]
    fn stats_accumulate_across_calls() {
        let mut e = AddressEngine::new(EngineConfig::prototype()).unwrap();
        let f = frame(Dims::new(32, 32));
        e.run_intra(&f, &BoxBlur::con8()).unwrap();
        e.run_intra(&f, &Dilate::con8()).unwrap();
        e.run_inter(&f, &f, &AbsDiff::luma()).unwrap();
        let s = e.stats();
        assert_eq!(s.intra_calls, 2);
        assert_eq!(s.inter_calls, 1);
        assert!(s.busy_seconds > 0.0);
        e.reset_stats();
        assert_eq!(e.stats().total_calls(), 0);
    }

    #[test]
    fn v1_rejects_segment_calls() {
        let mut e = AddressEngine::new(EngineConfig::prototype()).unwrap();
        let f = frame(Dims::new(8, 8));
        let err = e.run_segment(
            &f,
            &[Point::new(4, 4)],
            &HomogeneityCriterion::luma(10),
            SegmentOptions::default(),
        );
        assert!(matches!(
            err,
            Err(EngineError::UnsupportedCapability { .. })
        ));
    }

    #[test]
    fn outlook_engine_runs_segment_calls() {
        let mut e = AddressEngine::new(EngineConfig::outlook_v2()).unwrap();
        let f = frame(Dims::new(8, 8));
        let run = e
            .run_segment(
                &f,
                &[Point::new(4, 4)],
                &HomogeneityCriterion::luma(255),
                SegmentOptions::default(),
            )
            .unwrap();
        assert_eq!(
            run.result.segment.len(),
            64,
            "tolerance 255 floods the frame"
        );
        assert_eq!(e.stats().segment_calls, 1);
        // Matches the pure software path exactly.
        let sw = vip_core::addressing::segment::run_segment(
            &f,
            &[Point::new(4, 4)],
            &HomogeneityCriterion::luma(255),
            SegmentOptions::default(),
        )
        .unwrap();
        assert_eq!(run.result.output, sw.output);
    }

    #[test]
    fn outlook_engine_rejects_segment_shapes_wider_than_nine_lines() {
        let mut e = AddressEngine::new(EngineConfig::outlook_v2()).unwrap();
        let f = frame(Dims::new(8, 8));
        let err = e.run_segment(
            &f,
            &[Point::new(4, 4)],
            &HomogeneityCriterion::luma(255),
            SegmentOptions {
                connectivity: vip_core::neighborhood::Connectivity::Square(5),
                ..SegmentOptions::default()
            },
        );
        assert!(matches!(
            err,
            Err(EngineError::Core(
                vip_core::error::CoreError::InvalidParameter { name: "shape", .. }
            ))
        ));
        assert_eq!(e.stats().segment_calls, 0);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut e = AddressEngine::new(EngineConfig::prototype()).unwrap();
        let f = Frame::new(Dims::new(1024, 1024));
        assert!(matches!(
            e.run_intra(&f, &BoxBlur::con8()),
            Err(EngineError::FrameTooLarge {
                available_bytes: 2_097_152,
                ..
            })
        ));
        // Extra banks do not enlarge a region: each image still lives in
        // two banks, so the reported capacity stays two banks' worth.
        let mut cfg = EngineConfig::prototype();
        cfg.zbt_banks = 8;
        let mut e = AddressEngine::new(cfg).unwrap();
        assert!(matches!(
            e.run_intra(&f, &BoxBlur::con8()),
            Err(EngineError::FrameTooLarge {
                available_bytes: 2_097_152,
                ..
            })
        ));
    }

    #[test]
    fn analytic_calls_and_rejected_calls_leave_the_zbt_unallocated() {
        let f = frame(Dims::new(16, 16));
        let mut e = AddressEngine::new(EngineConfig::outlook_v2()).unwrap();
        assert_eq!(e.config().fidelity, SimulationFidelity::Analytic);
        e.run_intra(&f, &SobelGradient::new()).unwrap();
        e.run_inter(&f, &f, &AbsDiff::luma()).unwrap();
        let seeds = [Point::new(4, 4)];
        e.run_segment(
            &f,
            &seeds,
            &HomogeneityCriterion::luma(9),
            SegmentOptions::default(),
        )
        .unwrap();
        let _ = e.memory_map(f.dims());
        assert!(!e.zbt.is_materialised());

        let mut d = AddressEngine::new(EngineConfig::prototype_detailed()).unwrap();
        let too_large = Frame::new(Dims::new(1024, 1024));
        assert!(matches!(
            d.run_intra(&too_large, &BoxBlur::con8()),
            Err(EngineError::FrameTooLarge { .. })
        ));
        assert!(d
            .run_intra(&Frame::new(Dims::new(0, 0)), &BoxBlur::con8())
            .is_err());
        assert!(d
            .run_inter(&f, &frame(Dims::new(16, 17)), &AbsDiff::luma())
            .is_err());
        assert!(!d.zbt.is_materialised(), "rejected calls allocate nothing");
        // A reused fast-forward engine moves no pixel through the banks.
        let cif = frame(ImageFormat::Cif.dims());
        for _ in 0..2 {
            d.run_intra(&cif, &SobelGradient::new()).unwrap();
            d.run_inter(&cif, &cif, &AbsDiff::luma()).unwrap();
        }
        assert!(
            !d.zbt.is_materialised(),
            "fast-forward calls allocate nothing"
        );

        let mut stepped = EngineConfig::prototype_detailed();
        stepped.step_mode = StepMode::CycleStepped;
        let mut s = AddressEngine::new(stepped).unwrap();
        s.run_intra(&f, &BoxBlur::con8()).unwrap();
        assert!(
            s.zbt.is_materialised(),
            "the first cycle-stepped call allocates the banks"
        );
    }

    #[test]
    fn reused_detailed_engine_never_leaks_a_larger_frame_into_a_smaller_one() {
        // The cycle-stepped engine moves every frame through the banks; the
        // fast-forward one must answer alike.
        for step_mode in [StepMode::CycleStepped, StepMode::FastForward] {
            let mut config = EngineConfig::prototype_detailed();
            config.step_mode = step_mode;
            let mut e = AddressEngine::new(config).unwrap();
            let cif = ImageFormat::Cif.dims();
            let qcif = ImageFormat::Qcif.dims();
            for (i, dims) in (0i32..).zip([cif, qcif, cif]) {
                let a = Frame::from_fn(dims, |p| {
                    Pixel::from_luma(((p.x * 7 + p.y + i) % 256) as u8)
                });
                let b = Frame::from_fn(dims, |p| {
                    Pixel::from_luma(((p.x + p.y * 9 + i) % 256) as u8)
                });
                let context = format!("{step_mode:?} call {i} at {dims}");
                let intra = e.run_intra(&a, &SobelGradient::new()).unwrap();
                let sw = vip_core::addressing::intra::run_intra(&a, &SobelGradient::new()).unwrap();
                assert_eq!(intra.output, sw.output, "intra {context}");
                let inter = e.run_inter(&a, &b, &AbsDiff::luma()).unwrap();
                let sw = vip_core::addressing::inter::run_inter(&a, &b, &AbsDiff::luma()).unwrap();
                assert_eq!(inter.output, sw.output, "inter {context}");
            }
        }
    }

    #[test]
    fn zbt_traffic_closed_form_matches_the_stepped_banks() {
        // The gate for the fast-forward charge: what the cycle-stepped
        // datapath leaves in the bank counters, call by call, on a reused
        // engine, at odd and even pixel counts, 1×N and N×1 frames, QCIF,
        // CIF and a frame at ZBT capacity.
        let calls: [(&str, InterOverlap); 4] = [
            ("sobel", InterOverlap::Sequential),
            ("box4", InterOverlap::Sequential),
            ("absdiff", InterOverlap::Sequential),
            ("absdiff", InterOverlap::Interleaved),
        ];
        for (call, overlap) in calls {
            let mut config = EngineConfig::prototype_detailed();
            config.step_mode = StepMode::CycleStepped;
            config.inter_overlap = overlap;
            let mut e = AddressEngine::new(config).unwrap();
            for dims in [
                Dims::new(1, 1),
                Dims::new(1, 9),
                Dims::new(9, 1),
                Dims::new(7, 5),
                Dims::new(33, 17),
                Dims::new(1, 2051),
                Dims::new(1029, 1),
                ImageFormat::Qcif.dims(),
                ImageFormat::Cif.dims(),
                Dims::new(512, 512),
            ] {
                let f = frame(dims);
                let (mode, run) = match call {
                    "sobel" => (
                        AddressingMode::Intra,
                        e.run_intra(&f, &SobelGradient::new()),
                    ),
                    "box4" => (
                        AddressingMode::Intra,
                        e.run_intra(&f, &BoxBlur::with_radius(4).unwrap()),
                    ),
                    _ => (AddressingMode::Inter, e.run_inter(&f, &f, &AbsDiff::luma())),
                };
                let run = run.unwrap();
                let closed = e.zbt.call_traffic(mode, dims);
                assert_eq!(e.zbt.traffic(), closed, "{call} {overlap:?} {dims}");
                assert_eq!(run.report.hardware_accesses, closed.pixel_access_cycles);
            }
        }
    }

    #[test]
    fn empty_frame_rejected() {
        let mut e = AddressEngine::new(EngineConfig::prototype()).unwrap();
        let f = Frame::new(Dims::new(0, 0));
        assert!(e.run_intra(&f, &BoxBlur::con8()).is_err());
    }

    #[test]
    fn inter_dims_mismatch_rejected() {
        let mut e = AddressEngine::new(EngineConfig::prototype()).unwrap();
        let a = frame(Dims::new(8, 8));
        let b = frame(Dims::new(8, 9));
        assert!(e.run_inter(&a, &b, &AbsDiff::luma()).is_err());
    }

    #[test]
    fn trace_limit_propagates() {
        let mut e = AddressEngine::new(EngineConfig::prototype_detailed()).unwrap();
        e.set_trace_limit(20);
        let f = frame(Dims::new(8, 8));
        let run = e.run_intra(&f, &BoxBlur::con8()).unwrap();
        assert_eq!(run.report.processing.unwrap().trace.len(), 20);
    }

    #[test]
    fn recorder_captures_call_schedule_and_subsystems() {
        let mut e = AddressEngine::new(EngineConfig::prototype_detailed()).unwrap();
        let session = vip_obs::Session::new();
        e.set_recorder(session.recorder());
        assert!(e.recorder().is_enabled());
        let f = frame(Dims::new(32, 32));
        e.run_intra(&f, &SobelGradient::new()).unwrap();
        let recording = session.finish();
        use vip_obs::Track;
        // Engine track: the call span + the seven schedule instants.
        assert_eq!(recording.on_track(Track::Engine).len(), 8);
        assert!(!recording.on_track(Track::Pci).is_empty());
        assert!(!recording.on_track(Track::Dma).is_empty());
        assert!(!recording.on_track(Track::Iim).is_empty());
        assert!(!recording.on_track(Track::Oim).is_empty());
        assert!(!recording.on_track(Track::Pu).is_empty());
        assert!(!recording.on_track(Track::Plc).is_empty());
        // Input bank 0 and both result banks saw traffic.
        assert!(!recording.on_track(Track::ZbtBank(0)).is_empty());
        assert!(!recording.on_track(Track::ZbtBank(4)).is_empty());
        // The virtual clock advanced past the call.
        assert!(e.clock_ns() > 0);
    }

    #[test]
    fn detached_recorder_and_metrics_registry() {
        let mut e = AddressEngine::new(EngineConfig::prototype()).unwrap();
        let f = frame(Dims::new(16, 16));
        e.run_intra(&f, &BoxBlur::con8()).unwrap();
        // Disabled recorder by default: no events anywhere, but the
        // metrics registry still accumulates.
        assert_eq!(e.metrics().counter(crate::report::keys::INTRA_CALLS), 1);
        assert!(e
            .metrics()
            .histogram(crate::report::keys::CALL_MS)
            .is_some());
        // A second call on a fresh session records only its own events.
        let session = vip_obs::Session::new();
        e.set_recorder(session.recorder());
        e.set_recorder(vip_obs::Recorder::disabled());
        e.run_intra(&f, &BoxBlur::con8()).unwrap();
        assert!(session.is_empty(), "detached recorder must stay silent");
        assert_eq!(e.stats().intra_calls, 2);
    }

    #[test]
    fn memory_map_accessible() {
        let e = AddressEngine::new(EngineConfig::prototype()).unwrap();
        let map = e.memory_map(Dims::new(352, 288));
        assert_eq!(map.regions.len(), 4);
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let mut cfg = EngineConfig::prototype();
        cfg.strip_lines = 0;
        assert!(AddressEngine::new(cfg).is_err());
        // A zero-line OIM can never accept a pixel, so construction
        // refuses it rather than leaving the first detailed call to fail.
        let mut cfg = EngineConfig::prototype_detailed();
        cfg.oim_lines = 0;
        assert!(matches!(
            AddressEngine::new(cfg),
            Err(EngineError::InvalidConfig {
                field: "oim_lines",
                ..
            })
        ));
        // Clock rates and the PCI width feed every timeline: a zero,
        // negative or non-finite rate would report an infinite or
        // negative call time.
        let clocked = |pci_hz: f64, engine_hz: f64, bytes: usize| {
            let mut cfg = EngineConfig::prototype_detailed();
            cfg.pci_clock.hz = pci_hz;
            cfg.engine_clock.hz = engine_hz;
            cfg.pci_bytes_per_cycle = bytes;
            AddressEngine::new(cfg).err()
        };
        let rejected = |field: &'static str| {
            Some(EngineError::InvalidConfig {
                field,
                reason: if field == "pci_bytes_per_cycle" {
                    "must be positive"
                } else {
                    "must be finite and positive"
                },
            })
        };
        let pci = EngineConfig::prototype().pci_clock.hz;
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(clocked(bad, pci, 4), rejected("pci_clock.hz"), "pci {bad}");
            assert_eq!(
                clocked(pci, bad, 4),
                rejected("engine_clock.hz"),
                "engine {bad}"
            );
        }
        assert_eq!(clocked(pci, pci, 0), rejected("pci_bytes_per_cycle"));
        assert_eq!(clocked(pci, pci, 4), None);
    }
}
