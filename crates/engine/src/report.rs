//! Call reports and engine-level statistics.

use core::fmt;
use std::time::Duration;

use vip_core::accounting::{AccessModel, AddressingMode, CallDescriptor};
use vip_obs::Registry;

use crate::process_unit::ProcessingStats;
use crate::timing::CallTimeline;

/// Metric names the engine publishes into its [`Registry`]. The
/// [`EngineStats`] facade is *derived* from these (see
/// [`stats_from_registry`]), so the Table 3 counters and the
/// observability counters cannot drift apart.
pub mod keys {
    /// Completed intra calls (counter).
    pub const INTRA_CALLS: &str = "engine.calls.intra";
    /// Completed inter calls (counter).
    pub const INTER_CALLS: &str = "engine.calls.inter";
    /// Completed segment calls (counter).
    pub const SEGMENT_CALLS: &str = "engine.calls.segment";
    /// Accumulated end-to-end call seconds (gauge).
    pub const BUSY_SECONDS: &str = "engine.busy_seconds";
    /// Accumulated PCI payload seconds (gauge).
    pub const PCI_SECONDS: &str = "engine.pci_seconds";
    /// Accumulated hardware pixel-access cycles (counter).
    pub const HARDWARE_ACCESSES: &str = "engine.hardware_accesses";
    /// Per-call end-to-end latency in milliseconds (histogram).
    pub const CALL_MS: &str = "engine.call_ms";
    /// Engine cycles spent in detailed processing phases (counter).
    pub const PU_CYCLES: &str = "pu.cycles";
    /// Pixels produced by detailed processing phases (counter).
    pub const PU_PIXELS: &str = "pu.pixels";
    /// Cycles stalled on a missing IIM line (counter).
    pub const PU_IIM_STALLS: &str = "pu.iim_stalls";
    /// Cycles stalled on a full OIM (counter).
    pub const PU_OIM_STALLS: &str = "pu.oim_stalls";
    /// Matrix-register LOAD instructions (counter).
    pub const PU_MATRIX_LOADS: &str = "pu.matrix_loads";
    /// Matrix-register SHIFT instructions (counter).
    pub const PU_MATRIX_SHIFTS: &str = "pu.matrix_shifts";
    /// Largest OIM occupancy observed across calls (gauge, maximum).
    pub const OIM_MAX_OCCUPANCY: &str = "oim.max_occupancy";
    /// Cycles every pipeline slot sat empty — the drain tail (counter).
    pub const PU_IDLE_CYCLES: &str = "pu.idle_cycles";
    /// Cycles the pipeline advanced work: total minus stall and idle
    /// buckets (counter).
    pub const ATTRIB_PU_BUSY_CYCLES: &str = "attrib.pu.busy_cycles";
    /// PCI seconds spent moving input payloads host → ZBT (gauge).
    pub const ATTRIB_PCI_INPUT_SECONDS: &str = "attrib.pci.input_seconds";
    /// PCI seconds spent moving result payloads ZBT → host (gauge).
    pub const ATTRIB_PCI_OUTPUT_SECONDS: &str = "attrib.pci.output_seconds";
    /// Host driver/interrupt overhead seconds per call (gauge).
    pub const ATTRIB_HOST_OVERHEAD_SECONDS: &str = "attrib.host.overhead_seconds";
    /// Call seconds not attributable to the PCI bus or host overhead —
    /// the engine-side compute window (gauge).
    pub const ATTRIB_ENGINE_NONPCI_SECONDS: &str = "attrib.engine.nonpci_seconds";
    /// Words moved through ZBT bank 0 in detailed calls (counter).
    pub const ZBT_BANK0_ACCESSES: &str = "zbt.bank0.access_words";
    /// Words moved through ZBT bank 1 in detailed calls (counter).
    pub const ZBT_BANK1_ACCESSES: &str = "zbt.bank1.access_words";
    /// Words moved through ZBT bank 2 in detailed calls (counter).
    pub const ZBT_BANK2_ACCESSES: &str = "zbt.bank2.access_words";
    /// Words moved through ZBT bank 3 in detailed calls (counter).
    pub const ZBT_BANK3_ACCESSES: &str = "zbt.bank3.access_words";
    /// Words moved through ZBT bank 4 in detailed calls (counter).
    pub const ZBT_BANK4_ACCESSES: &str = "zbt.bank4.access_words";
    /// Words moved through ZBT bank 5 in detailed calls (counter).
    pub const ZBT_BANK5_ACCESSES: &str = "zbt.bank5.access_words";
}

/// The registry key of ZBT bank `bank`'s word-access counter.
///
/// # Panics
///
/// Panics if `bank` is outside the six-bank fig. 3 map.
#[must_use]
pub fn zbt_bank_key(bank: usize) -> &'static str {
    match bank {
        0 => keys::ZBT_BANK0_ACCESSES,
        1 => keys::ZBT_BANK1_ACCESSES,
        2 => keys::ZBT_BANK2_ACCESSES,
        3 => keys::ZBT_BANK3_ACCESSES,
        4 => keys::ZBT_BANK4_ACCESSES,
        5 => keys::ZBT_BANK5_ACCESSES,
        _ => panic!("ZBT has six banks; no bank {bank}"),
    }
}

/// Bucket bounds of the per-call latency histogram, in milliseconds.
/// Geometric from 0.05 ms — a QCIF intra call lands mid-range, a CIF
/// sequential inter call near the top.
const CALL_MS_BOUNDS: [f64; 12] = [
    0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6, 51.2, 102.4,
];

/// Folds one report into a metrics registry — the single accumulation
/// path behind both [`EngineStats`] and `vipctl stats`.
pub fn record_into(registry: &mut Registry, report: &EngineReport) {
    let mode_key = match report.descriptor.mode {
        AddressingMode::Intra => keys::INTRA_CALLS,
        AddressingMode::Inter => keys::INTER_CALLS,
        AddressingMode::Segment | AddressingMode::SegmentIndexed => keys::SEGMENT_CALLS,
    };
    if report.descriptor.mode != AddressingMode::SegmentIndexed {
        registry.inc(mode_key, 1);
    }
    registry.add_gauge(keys::BUSY_SECONDS, report.timeline.total);
    registry.add_gauge(
        keys::PCI_SECONDS,
        report.timeline.input_pci + report.timeline.output_pci,
    );
    registry.inc(keys::HARDWARE_ACCESSES, report.hardware_accesses);
    registry.observe(keys::CALL_MS, &CALL_MS_BOUNDS, report.timeline.total * 1e3);
    registry.add_gauge(keys::ATTRIB_PCI_INPUT_SECONDS, report.timeline.input_pci);
    registry.add_gauge(keys::ATTRIB_PCI_OUTPUT_SECONDS, report.timeline.output_pci);
    registry.add_gauge(
        keys::ATTRIB_HOST_OVERHEAD_SECONDS,
        report.timeline.interrupt_overhead,
    );
    registry.add_gauge(
        keys::ATTRIB_ENGINE_NONPCI_SECONDS,
        report.timeline.non_pci(),
    );
    if let Some(p) = &report.processing {
        registry.inc(keys::PU_CYCLES, p.cycles);
        registry.inc(keys::PU_PIXELS, p.pixels);
        registry.inc(keys::PU_IIM_STALLS, p.iim_stalls);
        registry.inc(keys::PU_OIM_STALLS, p.oim_stalls);
        registry.inc(keys::PU_IDLE_CYCLES, p.idle_cycles);
        registry.inc(keys::ATTRIB_PU_BUSY_CYCLES, p.busy_cycles());
        registry.inc(keys::PU_MATRIX_LOADS, p.matrix_loads);
        registry.inc(keys::PU_MATRIX_SHIFTS, p.matrix_shifts);
        registry.max_gauge(keys::OIM_MAX_OCCUPANCY, p.oim_max_occupancy as f64);
    }
}

/// Derives the [`EngineStats`] facade from a registry populated by
/// [`record_into`].
#[must_use]
pub fn stats_from_registry(registry: &Registry) -> EngineStats {
    EngineStats {
        intra_calls: registry.counter(keys::INTRA_CALLS),
        inter_calls: registry.counter(keys::INTER_CALLS),
        segment_calls: registry.counter(keys::SEGMENT_CALLS),
        busy_seconds: registry.gauge(keys::BUSY_SECONDS),
        pci_seconds: registry.gauge(keys::PCI_SECONDS),
        hardware_accesses: registry.counter(keys::HARDWARE_ACCESSES),
    }
}

/// Everything the engine knows about one executed call.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Static call description.
    pub descriptor: CallDescriptor,
    /// The analytic schedule of the call.
    pub timeline: CallTimeline,
    /// Table 2 access model (software vs. hardware counts).
    pub access_model: AccessModel,
    /// Hardware pixel-access cycles actually observed on the ZBT
    /// (detailed mode) or taken from the model (analytic mode).
    pub hardware_accesses: u64,
    /// Cycle-stepped statistics; present in detailed mode only.
    pub processing: Option<ProcessingStats>,
}

impl EngineReport {
    /// End-to-end duration of the call.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.timeline.total_duration()
    }
}

impl fmt::Display for EngineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.descriptor, self.timeline)
    }
}

/// Per-mode call tallies and accumulated busy time — the counters behind
/// the "Intra AddrEng calls" / "Inter AddrEng calls" columns of Table 3.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Completed intra calls.
    pub intra_calls: u64,
    /// Completed inter calls.
    pub inter_calls: u64,
    /// Completed segment calls (outlook configuration only).
    pub segment_calls: u64,
    /// Accumulated end-to-end call time in seconds.
    pub busy_seconds: f64,
    /// Accumulated PCI payload seconds.
    pub pci_seconds: f64,
    /// Accumulated hardware pixel-access cycles.
    pub hardware_accesses: u64,
}

impl EngineStats {
    /// Total calls of any mode.
    #[must_use]
    pub const fn total_calls(&self) -> u64 {
        self.intra_calls + self.inter_calls + self.segment_calls
    }

    /// Folds one report into the tallies.
    pub fn record(&mut self, report: &EngineReport) {
        match report.descriptor.mode {
            AddressingMode::Intra => self.intra_calls += 1,
            AddressingMode::Inter => self.inter_calls += 1,
            AddressingMode::Segment => self.segment_calls += 1,
            AddressingMode::SegmentIndexed => {}
        }
        self.busy_seconds += report.timeline.total;
        self.pci_seconds += report.timeline.input_pci + report.timeline.output_pci;
        self.hardware_accesses += report.hardware_accesses;
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} calls ({} intra, {} inter, {} segment), busy {:.3} s",
            self.total_calls(),
            self.intra_calls,
            self.inter_calls,
            self.segment_calls,
            self.busy_seconds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::timing::{inter_timeline, intra_timeline};
    use vip_core::geometry::Dims;
    use vip_core::neighborhood::Connectivity;
    use vip_core::pixel::ChannelSet;

    fn report(mode: AddressingMode) -> EngineReport {
        let dims = Dims::new(32, 32);
        let cfg = EngineConfig::prototype();
        let (descriptor, timeline) = match mode {
            AddressingMode::Inter => (
                CallDescriptor::inter(ChannelSet::Y, ChannelSet::Y),
                inter_timeline(dims, &cfg),
            ),
            _ => (
                CallDescriptor::intra(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y),
                intra_timeline(dims, 1, &cfg),
            ),
        };
        EngineReport {
            descriptor,
            access_model: AccessModel::for_call(&descriptor, dims),
            hardware_accesses: 2 * dims.pixel_count() as u64,
            timeline,
            processing: None,
        }
    }

    #[test]
    fn stats_tally_by_mode() {
        let mut s = EngineStats::default();
        s.record(&report(AddressingMode::Intra));
        s.record(&report(AddressingMode::Intra));
        s.record(&report(AddressingMode::Inter));
        assert_eq!(s.intra_calls, 2);
        assert_eq!(s.inter_calls, 1);
        assert_eq!(s.total_calls(), 3);
        assert!(s.busy_seconds > 0.0);
        assert!(s.pci_seconds > 0.0);
        assert!(s.pci_seconds <= s.busy_seconds);
        assert_eq!(s.hardware_accesses, 3 * 2 * 1024);
    }

    #[test]
    fn registry_path_matches_direct_accumulation() {
        let mut direct = EngineStats::default();
        let mut registry = Registry::new();
        for mode in [
            AddressingMode::Intra,
            AddressingMode::Inter,
            AddressingMode::Intra,
        ] {
            let r = report(mode);
            direct.record(&r);
            record_into(&mut registry, &r);
        }
        assert_eq!(stats_from_registry(&registry), direct);
        // The registry carries extras the facade does not: a latency histogram.
        assert_eq!(registry.histogram(keys::CALL_MS).unwrap().count(), 3);
    }

    #[test]
    fn report_duration_and_display() {
        let r = report(AddressingMode::Inter);
        assert!(r.duration().as_secs_f64() > 0.0);
        assert!(r.to_string().contains("inter"));
        let mut s = EngineStats::default();
        s.record(&r);
        assert!(s.to_string().contains("1 inter"));
    }
}
