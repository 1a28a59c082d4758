//! Scenario descriptions and witness formatting.
//!
//! Every model check operates on a [`Scenario`] — one point of the
//! (configuration × frame dims × addressing mode) space — and reports
//! violations with the scenario rendered as a concrete witness: the
//! fields that differ from [`EngineConfig::prototype`] plus dims and
//! mode, so a failure can be reproduced with a three-line snippet.

use core::fmt;

use vip_core::geometry::Dims;
use vip_engine::config::{EngineConfig, InterOverlap, SimulationFidelity};

/// The addressing class of a scenario, with its mode-specific knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CallKind {
    /// Intra addressing with a neighbourhood of the given radius.
    Intra {
        /// Neighbourhood radius (1 for the 3×3 window, up to 4 for the
        /// nine-line maximum of §3.1).
        radius: usize,
    },
    /// Inter addressing (overlap mode comes from the configuration).
    Inter,
    /// Segment addressing expanding the given number of segment pixels.
    Segment {
        /// Pixels in the expanded segment.
        pixels: u64,
    },
    /// Segment-indexed addressing carrying the given number of table
    /// entries. The engine schedules it like a segment call running in
    /// parallel to another scheme (§2.1), so it shares the segment
    /// schedule shape.
    SegmentIndexed {
        /// Indexed table entries touched.
        entries: u64,
    },
}

impl fmt::Display for CallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallKind::Intra { radius } => write!(f, "intra r={radius}"),
            CallKind::Inter => f.write_str("inter"),
            CallKind::Segment { pixels } => write!(f, "segment s={pixels}"),
            CallKind::SegmentIndexed { entries } => write!(f, "indexed e={entries}"),
        }
    }
}

/// One point of the verification space.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Short label of the configuration family (e.g. `prototype`).
    pub label: &'static str,
    /// The engine configuration under test.
    pub config: EngineConfig,
    /// Frame dimensions of the call.
    pub dims: Dims,
    /// Addressing class of the call.
    pub mode: CallKind,
}

impl Scenario {
    /// Creates a scenario.
    #[must_use]
    pub fn new(label: &'static str, config: EngineConfig, dims: Dims, mode: CallKind) -> Self {
        Scenario {
            label,
            config,
            dims,
            mode,
        }
    }

    /// Renders the scenario as a reproducible witness string: label,
    /// dims, mode, and every configuration field that differs from the
    /// prototype.
    #[must_use]
    pub fn witness(&self) -> String {
        let mut out = format!("{} {} {}", self.label, self.dims, self.mode);
        let delta = config_delta(&self.config);
        if !delta.is_empty() {
            out.push_str(" [");
            out.push_str(&delta.join(", "));
            out.push(']');
        }
        out
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.witness())
    }
}

/// Lists the fields of `config` that differ from the DATE 2005 prototype,
/// as `field=value` strings.
#[must_use]
pub fn config_delta(config: &EngineConfig) -> Vec<String> {
    let base = EngineConfig::prototype();
    let mut delta = Vec::new();
    if config.pci_clock != base.pci_clock {
        delta.push(format!("pci_clock={:.1}MHz", config.pci_clock.hz / 1e6));
    }
    if config.engine_clock != base.engine_clock {
        delta.push(format!(
            "engine_clock={:.1}MHz",
            config.engine_clock.hz / 1e6
        ));
    }
    if config.pci_bytes_per_cycle != base.pci_bytes_per_cycle {
        delta.push(format!(
            "pci_bytes_per_cycle={}",
            config.pci_bytes_per_cycle
        ));
    }
    if (config.pci_efficiency - base.pci_efficiency).abs() > f64::EPSILON {
        delta.push(format!("pci_efficiency={}", config.pci_efficiency));
    }
    if config.interrupt_overhead_cycles != base.interrupt_overhead_cycles {
        delta.push(format!(
            "interrupt_overhead_cycles={}",
            config.interrupt_overhead_cycles
        ));
    }
    if config.zbt_banks != base.zbt_banks {
        delta.push(format!("zbt_banks={}", config.zbt_banks));
    }
    if config.zbt_bank_words != base.zbt_bank_words {
        delta.push(format!("zbt_bank_words={}", config.zbt_bank_words));
    }
    if config.strip_lines != base.strip_lines {
        delta.push(format!("strip_lines={}", config.strip_lines));
    }
    if config.iim_lines != base.iim_lines {
        delta.push(format!("iim_lines={}", config.iim_lines));
    }
    if config.oim_lines != base.oim_lines {
        delta.push(format!("oim_lines={}", config.oim_lines));
    }
    if config.pipeline_stages != base.pipeline_stages {
        delta.push(format!("pipeline_stages={}", config.pipeline_stages));
    }
    if config.oim_drain_cycles_per_pixel != base.oim_drain_cycles_per_pixel {
        delta.push(format!(
            "oim_drain_cycles_per_pixel={}",
            config.oim_drain_cycles_per_pixel
        ));
    }
    if (config.output_latency_fraction - base.output_latency_fraction).abs() > f64::EPSILON {
        delta.push(format!(
            "output_latency_fraction={}",
            config.output_latency_fraction
        ));
    }
    if config.inter_overlap != base.inter_overlap {
        delta.push(format!(
            "inter_overlap={}",
            match config.inter_overlap {
                InterOverlap::Interleaved => "interleaved",
                InterOverlap::Sequential => "sequential",
            }
        ));
    }
    if config.fidelity != base.fidelity {
        delta.push(format!(
            "fidelity={}",
            match config.fidelity {
                SimulationFidelity::Detailed => "detailed",
                SimulationFidelity::Analytic => "analytic",
            }
        ));
    }
    if config.segment_capable != base.segment_capable {
        delta.push(format!("segment_capable={}", config.segment_capable));
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_has_empty_delta() {
        assert!(config_delta(&EngineConfig::prototype()).is_empty());
    }

    #[test]
    fn witness_names_changed_fields() {
        let mut c = EngineConfig::prototype();
        c.oim_drain_cycles_per_pixel = 4;
        c.inter_overlap = InterOverlap::Interleaved;
        let s = Scenario::new("ablation", c, Dims::new(16, 8), CallKind::Inter);
        let w = s.witness();
        assert!(w.contains("16x8") || w.contains("16×8"), "{w}");
        assert!(w.contains("oim_drain_cycles_per_pixel=4"), "{w}");
        assert!(w.contains("inter_overlap=interleaved"), "{w}");
        assert!(w.contains("inter"), "{w}");
    }

    #[test]
    fn call_kind_display() {
        assert_eq!(CallKind::Intra { radius: 2 }.to_string(), "intra r=2");
        assert_eq!(CallKind::Segment { pixels: 9 }.to_string(), "segment s=9");
        assert_eq!(
            CallKind::SegmentIndexed { entries: 3 }.to_string(),
            "indexed e=3"
        );
    }
}
