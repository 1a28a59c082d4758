//! Strip-level DMA scheduling: how whole frames move over the PCI bus.
//!
//! §3.1: *"The whole input image is not transferred in one pass but it is
//! divided into parts which are written to alternate ZBT blocks. Thus an
//! optimized usage of the PCI bus is obtained and it is possible to start
//! processing although the input image is not completely stored in the
//! memory."* Outbound, *"the bank switching is performed only once, as
//! soon as it is possible to start transferring the resulting image."*
//!
//! [`schedule_intra_call`] / [`schedule_inter_call`] produce the concrete
//! per-strip [`Transfer`] schedule on a [`PciBus`], tagging each strip
//! with its destination block — the executable form of the overlap story
//! the analytic [`crate::timing`] model computes in closed form.
//!
//! # Examples
//!
//! ```
//! use vip_core::geometry::Dims;
//! use vip_engine::dma::schedule_intra_call;
//! use vip_engine::EngineConfig;
//!
//! let schedule = schedule_intra_call(Dims::new(352, 288), &EngineConfig::prototype());
//! assert_eq!(schedule.input_strips.len(), 18);
//! assert!(schedule.output_start >= schedule.input_end);
//! ```

use vip_core::geometry::Dims;
use vip_core::scan::strips;
use vip_obs::{Recorder, Track};

use crate::clock::Cycles;
use crate::config::{EngineConfig, InterOverlap};
use crate::pci::{Direction, PciBus, Transfer};

/// Which double-buffer block a strip lands in (§3.1's block_A/block_B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum StripBlock {
    /// The first alternating input block.
    BlockA,
    /// The second alternating input block.
    BlockB,
}

/// One scheduled strip transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StripTransfer {
    /// Strip index within its image.
    pub strip: usize,
    /// Which input image the strip belongs to (0 or 1).
    pub image: usize,
    /// Destination double-buffer block.
    pub block: StripBlock,
    /// The bus-level transfer record.
    pub transfer: Transfer,
}

/// The complete DMA schedule of one engine call.
#[derive(Debug, Clone)]
pub struct DmaSchedule {
    /// Inbound strip transfers in bus order.
    pub input_strips: Vec<StripTransfer>,
    /// PCI cycle at which the last input word lands.
    pub input_end: Cycles,
    /// Outbound transfers (Res_block_A then Res_block_B — one bank
    /// switch, §3.1).
    pub output_halves: [Transfer; 2],
    /// PCI cycle at which the outbound DMA starts.
    pub output_start: Cycles,
    /// PCI cycle at which everything is done.
    pub end: Cycles,
}

impl DmaSchedule {
    /// Bus utilisation over the whole call.
    #[must_use]
    pub fn utilisation(&self) -> f64 {
        if self.end.count() == 0 {
            return 0.0;
        }
        let payload: u64 = self
            .input_strips
            .iter()
            .map(|s| s.transfer.cycles.count())
            .sum::<u64>()
            + self
                .output_halves
                .iter()
                .map(|t| t.cycles.count())
                .sum::<u64>();
        payload as f64 / self.end.count() as f64
    }

    /// Publishes the schedule onto the observability bus: one span per
    /// input strip and result half on the PCI track, plus the enclosing
    /// input/output phases on the DMA track. `t0_ns` is the call-issue
    /// time on the session's virtual clock, `pci_hz` the PCI clock used
    /// to convert bus cycles to nanoseconds.
    pub fn emit(&self, recorder: &Recorder, t0_ns: u64, pci_hz: f64) {
        if !recorder.is_enabled() {
            return;
        }
        let ns = |c: Cycles| t0_ns + (c.count() as f64 / pci_hz * 1e9).round() as u64;
        for s in &self.input_strips {
            recorder.span(
                Track::Pci,
                "strip_in",
                ns(s.transfer.start),
                ns(s.transfer.end()),
                &[
                    ("strip", (s.strip as u64).into()),
                    ("image", (s.image as u64).into()),
                    (
                        "block",
                        match s.block {
                            StripBlock::BlockA => "A",
                            StripBlock::BlockB => "B",
                        }
                        .into(),
                    ),
                    ("bytes", (s.transfer.bytes as u64).into()),
                ],
            );
        }
        if let Some(first) = self.input_strips.first() {
            recorder.span(
                Track::Dma,
                "input_dma",
                ns(first.transfer.start),
                ns(self.input_end),
                &[("strips", (self.input_strips.len() as u64).into())],
            );
        }
        for (half, t) in self.output_halves.iter().enumerate() {
            recorder.span(
                Track::Pci,
                "result_out",
                ns(t.start),
                ns(t.end()),
                &[
                    ("half", (half as u64).into()),
                    ("bytes", (t.bytes as u64).into()),
                ],
            );
        }
        recorder.span(
            Track::Dma,
            "output_dma",
            ns(self.output_halves[0].start),
            ns(self.output_halves[1].end()),
            &[],
        );
    }
}

fn block_of(i: usize) -> StripBlock {
    if i.is_multiple_of(2) {
        StripBlock::BlockA
    } else {
        StripBlock::BlockB
    }
}

/// Cycles (in the PCI domain) the engine needs before the outbound DMA of
/// a call may start, mirroring the gate of [`crate::timing`].
fn output_gate(dims: Dims, config: &EngineConfig, processing_start: Cycles) -> Cycles {
    let n = dims.pixel_count() as f64;
    let gate_px = (config.output_latency_fraction * n).ceil();
    let drain_s = gate_px * config.oim_drain_cycles_per_pixel as f64 / config.engine_clock.hz;
    processing_start
        + config
            .pci_clock
            .cycles_in(std::time::Duration::from_secs_f64(drain_s))
}

/// Schedules the DMA traffic of an intra call: the input image in
/// alternating strips, then the two result halves.
#[must_use]
pub fn schedule_intra_call(dims: Dims, config: &EngineConfig) -> DmaSchedule {
    let mut pci = PciBus::new(config);
    pci.interrupt();
    let mut input_strips = Vec::new();
    for s in strips(dims, config.strip_lines) {
        let t = pci.schedule(Direction::HostToBoard, s.bytes(dims), Cycles::ZERO);
        input_strips.push(StripTransfer {
            strip: s.index,
            image: 0,
            block: block_of(s.index),
            transfer: t,
        });
    }
    let input_end = pci.busy_until();
    // Intra: processing trails the input closely; the drain gate is met
    // long before the bus frees, so output starts when the PCI is free.
    let gate = output_gate(dims, config, Cycles(input_strips[0].transfer.end().count()));
    let output_start = input_end.max(gate);
    finish(pci, dims, input_strips, input_end, output_start)
}

/// Schedules the DMA traffic of an inter call: both input images
/// (sequential or interleaved per [`InterOverlap`]), then the result.
#[must_use]
pub fn schedule_inter_call(dims: Dims, config: &EngineConfig) -> DmaSchedule {
    let mut pci = PciBus::new(config);
    pci.interrupt();
    let image_strips = strips(dims, config.strip_lines);
    let mut input_strips = Vec::new();
    match config.inter_overlap {
        InterOverlap::Sequential => {
            for image in 0..2 {
                for s in &image_strips {
                    let t = pci.schedule(Direction::HostToBoard, s.bytes(dims), Cycles::ZERO);
                    input_strips.push(StripTransfer {
                        strip: s.index,
                        image,
                        block: block_of(s.index),
                        transfer: t,
                    });
                }
            }
        }
        InterOverlap::Interleaved => {
            for s in &image_strips {
                for image in 0..2 {
                    let t = pci.schedule(Direction::HostToBoard, s.bytes(dims), Cycles::ZERO);
                    input_strips.push(StripTransfer {
                        strip: s.index,
                        image,
                        block: block_of(s.index),
                        transfer: t,
                    });
                }
            }
        }
    }
    let input_end = pci.busy_until();
    // Sequential inter: processing starts only at input_end → the drain
    // gate delays the outbound DMA past the bus-free point (the §4.1
    // 12.5 % overhead). Interleaved: processing tracked the input.
    let processing_start = match config.inter_overlap {
        InterOverlap::Sequential => input_end,
        InterOverlap::Interleaved => Cycles(input_strips[1].transfer.end().count()),
    };
    let gate = output_gate(dims, config, processing_start);
    let output_start = input_end.max(gate);
    finish(pci, dims, input_strips, input_end, output_start)
}

fn finish(
    mut pci: PciBus,
    dims: Dims,
    input_strips: Vec<StripTransfer>,
    input_end: Cycles,
    output_start: Cycles,
) -> DmaSchedule {
    let half_bytes = dims.pixel_count().div_ceil(2) * 8;
    let rest_bytes = dims.pixel_count() * 8 - half_bytes;
    let a = pci.schedule(Direction::BoardToHost, half_bytes, output_start);
    let b = pci.schedule(Direction::BoardToHost, rest_bytes, Cycles::ZERO);
    let end = pci.interrupt();
    DmaSchedule {
        input_strips,
        input_end,
        output_halves: [a, b],
        output_start,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::geometry::ImageFormat;

    const CIF: Dims = Dims::new(352, 288);

    fn cfg() -> EngineConfig {
        let mut c = EngineConfig::prototype();
        c.interrupt_overhead_cycles = 0;
        c
    }

    #[test]
    fn intra_schedule_has_all_strips_alternating() {
        let s = schedule_intra_call(CIF, &cfg());
        assert_eq!(s.input_strips.len(), 18);
        for (i, st) in s.input_strips.iter().enumerate() {
            assert_eq!(st.strip, i);
            assert_eq!(st.image, 0);
            let expect = if i.is_multiple_of(2) {
                StripBlock::BlockA
            } else {
                StripBlock::BlockB
            };
            assert_eq!(st.block, expect, "strip {i}");
        }
        // Strips are contiguous on the bus.
        for w in s.input_strips.windows(2) {
            assert_eq!(w[1].transfer.start, w[0].transfer.end());
        }
    }

    #[test]
    fn intra_schedule_matches_timing_model() {
        let c = cfg();
        let s = schedule_intra_call(CIF, &c);
        let t = crate::timing::intra_timeline(CIF, 1, &c);
        let end_s = s.end.count() as f64 / c.pci_clock.hz;
        assert!(
            (end_s - t.total).abs() / t.total < 0.02,
            "schedule {end_s} vs timeline {}",
            t.total
        );
        // Input payload: 18 strips × 45 056 B = one CIF image.
        let bytes: usize = s.input_strips.iter().map(|st| st.transfer.bytes).sum();
        assert_eq!(bytes, ImageFormat::Cif.bytes());
    }

    #[test]
    fn sequential_inter_gates_output_past_bus_free() {
        let c = cfg();
        let s = schedule_inter_call(CIF, &c);
        assert_eq!(s.input_strips.len(), 36);
        assert!(
            s.output_start > s.input_end,
            "the drain gate must delay the outbound DMA (the 12.5 % overhead)"
        );
        let t = crate::timing::inter_timeline(CIF, &c);
        let end_s = s.end.count() as f64 / c.pci_clock.hz;
        assert!(
            (end_s - t.total).abs() / t.total < 0.02,
            "{end_s} vs {}",
            t.total
        );
    }

    #[test]
    fn interleaved_inter_starts_output_at_bus_free() {
        let mut c = cfg();
        c.inter_overlap = InterOverlap::Interleaved;
        let s = schedule_inter_call(CIF, &c);
        // Strip pairs alternate images: (0,img0), (0,img1), (1,img0)…
        assert_eq!(s.input_strips[0].image, 0);
        assert_eq!(s.input_strips[1].image, 1);
        assert_eq!(s.input_strips[2].strip, 1);
        assert_eq!(
            s.output_start, s.input_end,
            "no gate: processing tracked the input"
        );
    }

    #[test]
    fn output_is_two_halves_with_one_switch() {
        let s = schedule_intra_call(CIF, &cfg());
        let [a, b] = s.output_halves;
        assert_eq!(b.start, a.end(), "Res_block_B follows immediately");
        assert_eq!(a.bytes + b.bytes, ImageFormat::Cif.bytes());
    }

    #[test]
    fn utilisation_high_for_intra_lower_for_sequential_inter() {
        let c = cfg();
        let intra = schedule_intra_call(CIF, &c).utilisation();
        let inter = schedule_inter_call(CIF, &c).utilisation();
        assert!(intra > 0.97, "intra util {intra}");
        assert!(inter > 0.85 && inter < intra, "inter util {inter}");
    }

    #[test]
    fn interrupt_overhead_shifts_schedule() {
        let mut c = cfg();
        c.interrupt_overhead_cycles = 5_000;
        let s = schedule_intra_call(CIF, &c);
        assert_eq!(s.input_strips[0].transfer.start, Cycles(5_000));
        assert!(s.end.count() > 5_000);
    }

    #[test]
    fn emitted_spans_cover_the_schedule() {
        let c = cfg();
        let s = schedule_intra_call(CIF, &c);
        let session = vip_obs::Session::new();
        s.emit(&session.recorder(), 0, c.pci_clock.hz);
        let recording = session.finish();
        // 18 strips + 2 result halves on PCI; input + output phase on DMA.
        assert_eq!(recording.on_track(Track::Pci).len(), 20);
        assert_eq!(recording.on_track(Track::Dma).len(), 2);
        let end_ns = (s.end.count() as f64 / c.pci_clock.hz * 1e9) as u64;
        assert!(recording
            .events
            .iter()
            .all(|e| e.end_ns() <= end_ns + 1_000));
        // Disabled recorder records nothing (and must not panic).
        s.emit(&Recorder::disabled(), 0, c.pci_clock.hz);
    }

    #[test]
    fn qcif_schedule_scales() {
        let s = schedule_intra_call(ImageFormat::Qcif.dims(), &cfg());
        assert_eq!(s.input_strips.len(), 9); // 144 / 16
        let bytes: usize = s.input_strips.iter().map(|st| st.transfer.bytes).sum();
        assert_eq!(bytes, ImageFormat::Qcif.bytes());
    }
}
