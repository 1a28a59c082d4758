//! The analytic call-timing model: the image-level controller's schedule
//! in closed form.
//!
//! The model reproduces the timing story of §4.1: the PCI bus is the
//! bottleneck; processing overlaps the strip transfers for intra calls;
//! *"some special inter operations"* cannot start processing until both
//! images are resident, wasting non-PCI time amounting to 12.5 % of the
//! inbound transfer time.
//!
//! Rates (defaults, both clocks at 66 MHz):
//!
//! * inbound DMA: 2 PCI cycles/pixel (two 32-bit words per 64-bit pixel),
//! * processing: 1 engine cycle/pixel at the Process Unit, drained to the
//!   result banks at [`EngineConfig::oim_drain_cycles_per_pixel`]
//!   (2 — the sequential lo/hi result write of §3.1),
//! * outbound DMA: 2 PCI cycles/pixel, gated on
//!   [`EngineConfig::output_latency_fraction`] of the result being
//!   drained (after which the DMA chases the drain pointer at equal
//!   rate).
//!
//! The model is validated against the cycle-stepped Process Unit in
//! `tests/analytic_vs_detailed.rs`.
//!
//! It is the only call schedule: [`CallTimeline::emit`] draws a traced
//! call's seven schedule instants, its inbound strips and result halves
//! (a segment call's whole frames) on the PCI track and its DMA phases
//! from the same fields the report reads, and [`CallTimeline::processing_origin`] places the Process
//! Unit's cycle 0 on that schedule.

use core::fmt;
use std::time::Duration;

use vip_core::accounting::AddressingMode;
use vip_core::geometry::Dims;
use vip_core::scan::strips;
use vip_obs::{Recorder, Track};

use crate::config::{EngineConfig, InterOverlap};

/// The computed schedule of one AddressEngine call, in seconds from the
/// host issuing the call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallTimeline {
    /// Addressing class the schedule was computed for.
    pub mode: AddressingMode,
    /// Pixels produced.
    pub pixels: u64,
    /// Seconds of pure inbound PCI payload.
    pub input_pci: f64,
    /// Seconds of pure outbound PCI payload.
    pub output_pci: f64,
    /// Seconds of interrupt/DMA-setup overhead (both call boundaries).
    pub interrupt_overhead: f64,
    /// Time at which the last input pixel is resident in the ZBT.
    pub input_end: f64,
    /// Time at which the last result pixel is drained into the ZBT.
    pub drain_end: f64,
    /// Time at which the outbound DMA starts.
    pub output_start: f64,
    /// End-to-end call duration.
    pub total: f64,
}

impl CallTimeline {
    /// Seconds not attributable to PCI payload or interrupt overhead —
    /// the *"time wasted not due to the PCI transferences"* of §4.1.
    #[must_use]
    pub fn non_pci(&self) -> f64 {
        (self.total - self.input_pci - self.output_pci - self.interrupt_overhead).max(0.0)
    }

    /// Non-PCI time as a fraction of the inbound transfer time — the
    /// quantity §4.1 reports as 12.5 % for special inter operations.
    #[must_use]
    pub fn non_pci_of_input(&self) -> f64 {
        if self.input_pci == 0.0 {
            return 0.0;
        }
        self.non_pci() / self.input_pci
    }

    /// PCI-bus utilisation over the whole call.
    #[must_use]
    pub fn pci_utilisation(&self) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        (self.input_pci + self.output_pci) / self.total
    }

    /// Total as a [`Duration`].
    #[must_use]
    pub fn total_duration(&self) -> Duration {
        Duration::from_secs_f64(self.total)
    }

    /// The seven §4.1 schedule instants, named as on the engine track, in
    /// seconds from call issue and in causal order: issue, inbound DMA
    /// start and end, outbound DMA start, drain end, outbound DMA end and
    /// completion. The outbound DMA starts once
    /// [`EngineConfig::output_latency_fraction`] of the result is
    /// drained, so it comes before the drain end.
    ///
    /// # Examples
    ///
    /// ```
    /// use vip_core::geometry::Dims;
    /// use vip_engine::timing::intra_timeline;
    /// use vip_engine::EngineConfig;
    ///
    /// let timeline = intra_timeline(Dims::new(64, 48), 1, &EngineConfig::prototype());
    /// let instants = timeline.instants();
    /// assert_eq!(instants[0], ("call_issued", 0.0));
    /// assert_eq!(instants[6], ("call_completed", timeline.total));
    /// assert!(instants.windows(2).all(|w| w[0].1 <= w[1].1));
    /// ```
    #[must_use]
    pub fn instants(&self) -> [(&'static str, f64); 7] {
        let irq = self.interrupt_overhead / 2.0;
        [
            ("call_issued", 0.0),
            ("input_dma_started", irq),
            ("input_dma_completed", self.input_end),
            ("output_dma_started", self.output_start),
            ("processing_completed", self.drain_end),
            ("output_dma_completed", self.total - irq),
            ("call_completed", self.total),
        ]
    }

    /// The inbound strips of an intra or inter call over `dims` frames,
    /// in bus order: §3.1's strips of [`EngineConfig::strip_lines`]
    /// lines, back to back from the inbound DMA start to
    /// [`CallTimeline::input_end`]. Inter calls send both images one after
    /// the other, or strip pair by strip pair under
    /// [`InterOverlap::Interleaved`].
    fn strips_in(&self, dims: Dims, config: &EngineConfig) -> Vec<StripIn> {
        let layout = strips(dims, config.strip_lines);
        let images = if self.mode == AddressingMode::Inter {
            2
        } else {
            1
        };
        // (image, strip) in bus order: image by image, or pair by pair.
        let order: Vec<(usize, usize)> = match config.inter_overlap {
            InterOverlap::Interleaved => (0..layout.len())
                .flat_map(|s| (0..images).map(move |image| (image, s)))
                .collect(),
            InterOverlap::Sequential => (0..images)
                .flat_map(|image| (0..layout.len()).map(move |s| (image, s)))
                .collect(),
        };
        let inbound_pixels = (images * dims.pixel_count()) as f64;
        let irq = self.interrupt_overhead / 2.0;
        // The fraction is exactly 0 and 1 at the ends, so the first strip
        // starts at the inbound DMA start and the last ends at `input_end`.
        let landed_at = |pixels: usize| irq + self.input_pci * (pixels as f64 / inbound_pixels);
        let mut landed = 0;
        order
            .into_iter()
            .map(|(image, s)| {
                let strip = &layout[s];
                let start = landed_at(landed);
                landed += strip.pixel_count(dims);
                StripIn {
                    strip: strip.index,
                    image,
                    bytes: strip.bytes(dims),
                    start,
                    end: landed_at(landed),
                }
            })
            .collect()
    }

    /// Seconds from call issue at which the Process Unit starts on an
    /// intra or inter call over `dims` frames: once the first strip has
    /// landed (intra), once both images are resident (sequential inter),
    /// or once the first strip pair has landed (interleaved inter).
    #[must_use]
    pub fn processing_origin(&self, dims: Dims, config: &EngineConfig) -> f64 {
        match (self.mode, config.inter_overlap) {
            (AddressingMode::Inter, InterOverlap::Sequential) => self.input_end,
            (AddressingMode::Inter, InterOverlap::Interleaved) => {
                self.strips_in(dims, config)[1].end
            }
            _ => self.strips_in(dims, config)[0].end,
        }
    }

    /// Publishes the call onto the observability bus, `t0_ns` being the
    /// call-issue time on the session's virtual clock: the seven
    /// [`CallTimeline::instants`] on the engine track and, for intra and
    /// inter calls over `dims` frames, one `strip_in` span per inbound
    /// strip and one `result_out` span per result half on the PCI track,
    /// plus the enclosing `input_dma`/`output_dma` phases on the DMA
    /// track. The two result halves are Res_block_A then Res_block_B, one
    /// bank switch (§3.1); when the outbound DMA chases the drain, the
    /// second half ends with the drain. A segment call's expansion is data
    /// dependent, so its frame moves whole: one `frame_in` span of
    /// [`CallTimeline::input_pci`] from the inbound DMA start and one
    /// `frame_out` span of [`CallTimeline::output_pci`] from
    /// [`CallTimeline::output_start`], each inside its DMA phase.
    ///
    /// # Examples
    ///
    /// ```
    /// use vip_core::geometry::Dims;
    /// use vip_engine::timing::intra_timeline;
    /// use vip_engine::{EngineConfig, Session, Track};
    ///
    /// let (cif, config) = (Dims::new(352, 288), EngineConfig::prototype());
    /// let session = Session::new();
    /// intra_timeline(cif, 1, &config).emit(&session.recorder(), 0, cif, &config);
    /// let recording = session.finish();
    /// // 18 strips of 16 lines, then the two result halves.
    /// assert_eq!(recording.on_track(Track::Pci).len(), 18 + 2);
    /// assert_eq!(recording.on_track(Track::Engine).len(), 7);
    /// ```
    pub fn emit(&self, recorder: &Recorder, t0_ns: u64, dims: Dims, config: &EngineConfig) {
        if !recorder.is_enabled() {
            return;
        }
        let ns = |seconds: f64| t0_ns + seconds_to_ns(seconds);
        let instants = self.instants();
        for (name, at) in instants {
            recorder.instant(Track::Engine, name, ns(at), &[]);
        }
        let (input_start, output_end) = (instants[1].1, instants[5].1);
        if self.mode == AddressingMode::Segment {
            let bytes = dims.pixel_count() as u64 * 8;
            for (pci, dma, start, end) in [
                ("frame_in", "input_dma", input_start, self.input_end),
                ("frame_out", "output_dma", self.output_start, output_end),
            ] {
                recorder.span(
                    Track::Pci,
                    pci,
                    ns(start),
                    ns(end),
                    &[("bytes", bytes.into())],
                );
                recorder.span(Track::Dma, dma, ns(start), ns(end), &[]);
            }
            return;
        }

        let strips = self.strips_in(dims, config);
        for s in &strips {
            recorder.span(
                Track::Pci,
                "strip_in",
                ns(s.start),
                ns(s.end),
                &[
                    ("strip", (s.strip as u64).into()),
                    ("image", (s.image as u64).into()),
                    (
                        "block",
                        if s.strip.is_multiple_of(2) { "A" } else { "B" }.into(),
                    ),
                    ("bytes", (s.bytes as u64).into()),
                ],
            );
        }
        recorder.span(
            Track::Dma,
            "input_dma",
            ns(input_start),
            ns(self.input_end),
            &[("strips", (strips.len() as u64).into())],
        );

        let pixels = dims.pixel_count();
        let first_half = pixels.div_ceil(2);
        let switch = (self.output_start + self.output_pci * (first_half as f64 / pixels as f64))
            .min(output_end);
        for (half, (start, end, half_pixels)) in [
            (self.output_start, switch, first_half),
            (switch, output_end, pixels - first_half),
        ]
        .into_iter()
        .enumerate()
        {
            recorder.span(
                Track::Pci,
                "result_out",
                ns(start),
                ns(end),
                &[
                    ("half", (half as u64).into()),
                    ("bytes", (half_pixels as u64 * 8).into()),
                ],
            );
        }
        recorder.span(
            Track::Dma,
            "output_dma",
            ns(self.output_start),
            ns(output_end),
            &[],
        );
    }
}

/// One inbound strip on the PCI bus, in seconds from call issue.
#[derive(Debug, Clone, Copy)]
struct StripIn {
    /// Strip index within its image; even strips land in block_A, odd
    /// ones in block_B (§3.1).
    strip: usize,
    /// Which input image the strip belongs to (0 or 1).
    image: usize,
    /// Payload bytes.
    bytes: usize,
    /// Seconds from call issue at which the strip starts to move.
    start: f64,
    /// Seconds from call issue at which the strip has landed.
    end: f64,
}

/// Converts schedule seconds to virtual-clock nanoseconds (rounded).
#[must_use]
pub fn seconds_to_ns(seconds: f64) -> u64 {
    (seconds * 1e9).round().max(0.0) as u64
}

impl fmt::Display for CallTimeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} px: total {:.3} ms (in {:.3} ms, out {:.3} ms, non-PCI {:.3} ms = {:.1} % of in)",
            self.mode,
            self.pixels,
            self.total * 1e3,
            self.input_pci * 1e3,
            self.output_pci * 1e3,
            self.non_pci() * 1e3,
            self.non_pci_of_input() * 100.0
        )
    }
}

/// Bytes per 64-bit pixel on the bus.
const BYTES_PER_PIXEL: f64 = 8.0;

/// Computes the timeline of an intra call over a `dims` frame with a
/// neighbourhood of the given radius.
#[must_use]
pub fn intra_timeline(dims: Dims, radius: usize, config: &EngineConfig) -> CallTimeline {
    let n = dims.pixel_count() as f64;
    let w = dims.width as f64;
    let f_e = config.engine_clock.hz;
    let t_irq = config.interrupt_overhead_cycles as f64 / config.pci_clock.hz;

    let r_in = BYTES_PER_PIXEL / config.pci_bandwidth(); // seconds per arriving pixel
    let r_drain = config.oim_drain_cycles_per_pixel as f64 / f_e;
    let r_out = BYTES_PER_PIXEL / config.pci_bandwidth();

    let input_pci = n * r_in;
    let input_end = t_irq + input_pci;

    // Processing of pixel k needs its window lines: k + (radius+1) lines
    // of lead; the pipeline and the drain add a constant.
    let lead = (radius as f64 + 2.0) * w * r_in
        + (config.pipeline_stages as u64 + config.oim_drain_cycles_per_pixel) as f64 / f_e;
    let drain_start = t_irq + lead;
    // Drained count k completes at the later of the arrival-bound and the
    // drain-rate-bound schedule.
    let drained_at = |k: f64| -> f64 { (t_irq + k * r_in + lead).max(drain_start + k * r_drain) };
    let drain_end = drained_at(n);

    let gate_pixels = (config.output_latency_fraction * n).ceil();
    let output_start = input_end.max(drained_at(gate_pixels));
    let output_pci = n * r_out;
    // The DMA chases the drain pointer; it cannot complete before the
    // drain has completed.
    let output_end = (output_start + output_pci).max(drain_end);

    CallTimeline {
        mode: AddressingMode::Intra,
        pixels: n as u64,
        input_pci,
        output_pci,
        interrupt_overhead: 2.0 * t_irq,
        input_end,
        drain_end,
        output_start,
        total: output_end + t_irq,
    }
}

/// Computes the timeline of an inter call over `dims` frames, honouring
/// the configured [`InterOverlap`] mode.
#[must_use]
pub fn inter_timeline(dims: Dims, config: &EngineConfig) -> CallTimeline {
    let n = dims.pixel_count() as f64;
    let f_e = config.engine_clock.hz;
    let t_irq = config.interrupt_overhead_cycles as f64 / config.pci_clock.hz;

    let r_in = BYTES_PER_PIXEL / config.pci_bandwidth();
    let r_drain = config.oim_drain_cycles_per_pixel as f64 / f_e;
    let r_out = BYTES_PER_PIXEL / config.pci_bandwidth();

    let input_pci = 2.0 * n * r_in; // two input images
    let input_end = t_irq + input_pci;
    let const_lead =
        (config.pipeline_stages as u64 + config.oim_drain_cycles_per_pixel) as f64 / f_e;

    let drained_at = |k: f64| -> f64 {
        match config.inter_overlap {
            // Processing only starts once both images are resident.
            InterOverlap::Sequential => input_end + const_lead + k * r_drain,
            // Strip pairs interleave: output pixel k needs 2k input pixels.
            InterOverlap::Interleaved => {
                (t_irq + 2.0 * k * r_in + const_lead).max(t_irq + const_lead + k * r_drain)
            }
        }
    };
    let drain_end = drained_at(n);

    let gate_pixels = (config.output_latency_fraction * n).ceil();
    let output_start = input_end.max(drained_at(gate_pixels));
    let output_pci = n * r_out;
    let output_end = (output_start + output_pci).max(drain_end);

    CallTimeline {
        mode: AddressingMode::Inter,
        pixels: n as u64,
        input_pci,
        output_pci,
        interrupt_overhead: 2.0 * t_irq,
        input_end,
        drain_end,
        output_start,
        total: output_end + t_irq,
    }
}

/// Computes the timeline of a segment call (the §5 outlook extension):
/// the whole frame transfers in, `segment_pixels` are processed at the
/// drain rate, and the result transfers back.
#[must_use]
pub fn segment_timeline(dims: Dims, segment_pixels: u64, config: &EngineConfig) -> CallTimeline {
    let n = dims.pixel_count() as f64;
    let s = segment_pixels as f64;
    let f_e = config.engine_clock.hz;
    let t_irq = config.interrupt_overhead_cycles as f64 / config.pci_clock.hz;

    let r_in = BYTES_PER_PIXEL / config.pci_bandwidth();
    let r_out = BYTES_PER_PIXEL / config.pci_bandwidth();
    // Segment expansion is data dependent: no strip overlap; each segment
    // pixel costs the drain rate plus one expansion-test cycle per
    // neighbour (4-connected ⇒ 4 candidate tests amortised to 2 extra
    // cycles with the paired-bank fetch).
    let r_seg = (config.oim_drain_cycles_per_pixel + 2) as f64 / f_e;

    let input_pci = n * r_in;
    let input_end = t_irq + input_pci;
    let drain_end = input_end + s * r_seg;
    let output_start = drain_end.max(input_end);
    let output_pci = n * r_out;

    CallTimeline {
        mode: AddressingMode::Segment,
        pixels: segment_pixels,
        input_pci,
        output_pci,
        interrupt_overhead: 2.0 * t_irq,
        input_end,
        drain_end,
        output_start,
        total: output_start + output_pci + t_irq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::geometry::ImageFormat;

    const CIF: Dims = Dims::new(352, 288);

    fn cfg() -> EngineConfig {
        let mut c = EngineConfig::prototype();
        c.interrupt_overhead_cycles = 0; // isolate payload maths
        c
    }

    #[test]
    fn intra_cif_is_about_six_ms() {
        let t = intra_timeline(CIF, 1, &cfg());
        // ≈ T_in (3.07 ms) + T_out (3.07 ms) + small tail.
        assert!((t.input_pci - 0.003072).abs() < 1e-5);
        assert!((t.output_pci - 0.003072).abs() < 1e-5);
        assert!(t.total > 0.0061 && t.total < 0.0068, "total {}", t.total);
    }

    #[test]
    fn intra_processing_overlaps_transfer() {
        let t = intra_timeline(CIF, 1, &cfg());
        // Non-PCI time is a small fraction for intra (strip overlap).
        assert!(t.non_pci_of_input() < 0.12, "{}", t.non_pci_of_input());
    }

    #[test]
    fn special_inter_overhead_is_one_eighth() {
        // §4.1: non-PCI time = 12.5 % of the inbound transfer time.
        let t = inter_timeline(CIF, &cfg());
        let frac = t.non_pci_of_input();
        assert!(
            (frac - 0.125).abs() < 0.02,
            "non-PCI fraction {frac} should be ≈ 0.125"
        );
    }

    #[test]
    fn inter_cif_is_about_ten_ms() {
        let t = inter_timeline(CIF, &cfg());
        assert!((t.input_pci - 0.006144).abs() < 1e-5);
        assert!(t.total > 0.0095 && t.total < 0.0105, "total {}", t.total);
    }

    #[test]
    fn interleaved_inter_is_faster() {
        let mut c = cfg();
        let seq = inter_timeline(CIF, &c);
        c.inter_overlap = InterOverlap::Interleaved;
        let ilv = inter_timeline(CIF, &c);
        assert!(ilv.total < seq.total);
        assert!(ilv.non_pci_of_input() < seq.non_pci_of_input());
    }

    #[test]
    fn pci_dominates_everything() {
        // §4.1: the PCI bus is the bottleneck — payload accounts for the
        // vast majority of every call.
        for t in [intra_timeline(CIF, 1, &cfg()), inter_timeline(CIF, &cfg())] {
            assert!(
                t.pci_utilisation() > 0.85,
                "{} {}",
                t.mode,
                t.pci_utilisation()
            );
        }
    }

    #[test]
    fn qcif_scales_down() {
        let cif = intra_timeline(CIF, 1, &cfg());
        let qcif = intra_timeline(ImageFormat::Qcif.dims(), 1, &cfg());
        let ratio = cif.total / qcif.total;
        assert!(ratio > 3.5 && ratio < 4.5, "ratio {ratio}");
    }

    #[test]
    fn faster_engine_clock_shrinks_non_pci() {
        let mut c = cfg();
        let base = inter_timeline(CIF, &c);
        c.engine_clock = crate::clock::ClockDomain::engine_fmax();
        let fast = inter_timeline(CIF, &c);
        assert!(fast.non_pci() < base.non_pci());
        // But total barely moves: PCI-bound system.
        assert!((base.total - fast.total) / base.total < 0.15);
    }

    #[test]
    fn interrupt_overhead_accounted() {
        let mut c = cfg();
        c.interrupt_overhead_cycles = 6_600_000; // 0.1 s at 66 MHz
        let t = intra_timeline(CIF, 1, &c);
        assert!((t.interrupt_overhead - 0.2).abs() < 1e-9);
        assert!(t.total > 0.2);
        // non_pci excludes the interrupt overhead.
        assert!(t.non_pci() < 0.01);
    }

    #[test]
    fn segment_timeline_scales_with_segment_size() {
        let c = EngineConfig::outlook_v2();
        let small = segment_timeline(CIF, 1_000, &c);
        let large = segment_timeline(CIF, 50_000, &c);
        assert!(large.total > small.total);
        assert_eq!(small.mode, AddressingMode::Segment);
        // Transfers still dominate for small segments.
        assert!(small.pci_utilisation() > 0.8);
    }

    #[test]
    fn radius_increases_intra_lead_only_slightly() {
        let r1 = intra_timeline(CIF, 1, &cfg());
        let r4 = intra_timeline(CIF, 4, &cfg());
        assert!(r4.total >= r1.total);
        assert!(
            (r4.total - r1.total) / r1.total < 0.01,
            "lead is lines, not frames"
        );
    }

    #[test]
    fn display_contains_percentages() {
        let t = inter_timeline(CIF, &cfg());
        let s = t.to_string();
        assert!(s.contains("non-PCI"));
        assert!(s.contains("inter"));
    }

    #[test]
    fn processing_origin_follows_the_inbound_strips() {
        let mut c = EngineConfig::prototype();
        let irq = c.interrupt_overhead_cycles as f64 / c.pci_clock.hz;
        // One CIF strip is 1/18 of the image; under interleaving the first
        // strip pair is 2/36 of both images.
        let intra = intra_timeline(CIF, 1, &c);
        let first = irq + intra.input_pci * (1.0 / 18.0);
        assert_eq!(intra.processing_origin(CIF, &c), first);
        let sequential = inter_timeline(CIF, &c);
        assert_eq!(sequential.processing_origin(CIF, &c), sequential.input_end);
        c.inter_overlap = InterOverlap::Interleaved;
        let interleaved = inter_timeline(CIF, &c);
        let pair = irq + interleaved.input_pci * (2.0 / 36.0);
        assert_eq!(interleaved.processing_origin(CIF, &c), pair);
    }

    #[test]
    fn timeline_invariants() {
        for t in [
            intra_timeline(CIF, 1, &cfg()),
            inter_timeline(CIF, &cfg()),
            segment_timeline(CIF, 10_000, &EngineConfig::outlook_v2()),
        ] {
            assert!(t.input_end <= t.total);
            assert!(t.output_start >= t.input_end - 1e-12, "{}", t.mode);
            assert!(t.drain_end <= t.total);
            assert!(t.total_duration().as_secs_f64() > 0.0);
            assert!(t.non_pci() >= 0.0);
        }
    }
}
