//! The FPGA resource model: reproduces the device-utilisation summary of
//! Table 1 and scales it structurally with the engine configuration.
//!
//! We cannot run ISE 6 synthesis, so the model is *calibrated*: the DATE
//! 2005 prototype configuration is anchored to the paper's measured
//! utilisation (564 slices, 216 FFs, 349 LUT4s, 60 IOBs, 29 BRAMs, 1
//! GCLK, 102.208 MHz on a Virtex-II 2V3000), and configuration deltas
//! scale each resource along its structural driver:
//!
//! * **BRAMs** scale with the IIM + OIM line blocks (the paper: *"The
//!   high amount of block RAM used … is due to the IIM and OIM
//!   memories"*) — the prototype's 32 line blocks map to 29 BRAMs
//!   (dual-port packing lets a few blocks share one primitive).
//! * **Flip-flops** scale with the pipeline registers (stages × the
//!   64-bit pixel datapath) plus controller state.
//! * **LUTs/slices** scale with the datapath and matrix-register muxing
//!   (quadratic in the window side).
//! * **fmax** degrades mildly with the matrix-register fan-in.
//!
//! # Examples
//!
//! ```
//! use vip_engine::config::EngineConfig;
//! use vip_engine::resource::ResourceEstimate;
//!
//! let table1 = ResourceEstimate::for_config(&EngineConfig::prototype());
//! assert_eq!(table1.brams, 29);
//! assert_eq!(table1.slices, 564);
//! ```

use core::fmt;

use crate::config::EngineConfig;

/// The Virtex-II 2V3000 device capacities (Table 1 denominators).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Device {
    /// Device name as printed by ISE.
    pub name: &'static str,
    /// Total slices.
    pub slices: u32,
    /// Total slice flip-flops.
    pub flip_flops: u32,
    /// Total 4-input LUTs.
    pub lut4: u32,
    /// Total bonded IOBs.
    pub iobs: u32,
    /// Total 18-kbit block RAMs.
    pub brams: u32,
    /// Total global clock buffers.
    pub gclks: u32,
}

impl Device {
    /// The prototype's Virtex-II 2V3000 (ff1152, speed −5).
    #[must_use]
    pub const fn virtex2_3000() -> Self {
        Device {
            name: "2v3000ff1152-5",
            slices: 14_336,
            flip_flops: 28_672,
            lut4: 28_672,
            iobs: 720,
            brams: 96,
            gclks: 16,
        }
    }
}

/// A device-utilisation estimate in Table 1's terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceEstimate {
    /// Target device.
    pub device: Device,
    /// Occupied slices.
    pub slices: u32,
    /// Occupied slice flip-flops.
    pub flip_flops: u32,
    /// Occupied 4-input LUTs.
    pub lut4: u32,
    /// Bonded IOBs.
    pub iobs: u32,
    /// Block RAMs.
    pub brams: u32,
    /// Global clock buffers.
    pub gclks: u32,
    /// Maximum clock frequency in MHz.
    pub fmax_mhz: f64,
}

/// Calibration anchor: the paper's measured prototype utilisation.
mod anchor {
    /// Slices of the prototype (intra+inter, 16-line IIM/OIM, 4 stages).
    pub const SLICES: f64 = 564.0;
    /// Flip-flops.
    pub const FLIP_FLOPS: f64 = 216.0;
    /// 4-input LUTs.
    pub const LUT4: f64 = 349.0;
    /// Bonded IOBs.
    pub const IOBS: u32 = 60;
    /// Block RAMs (IIM 16 + OIM 16 line blocks → 29 primitives after
    /// dual-port packing).
    pub const BRAMS: f64 = 29.0;
    /// Minimum period 9.784 ns → 102.208 MHz.
    pub const FMAX_MHZ: f64 = 102.208;
    /// Line blocks of the anchor configuration (IIM + OIM).
    pub const LINE_BLOCKS: f64 = 32.0;
    /// Pipeline stages of the anchor configuration.
    pub const STAGES: f64 = 4.0;
}

impl ResourceEstimate {
    /// Estimates the utilisation of `config` on the prototype device.
    #[must_use]
    pub fn for_config(config: &EngineConfig) -> Self {
        let line_blocks = (config.iim_lines + config.oim_lines) as f64;
        let stage_ratio = config.pipeline_stages as f64 / anchor::STAGES;
        let mem_ratio = line_blocks / anchor::LINE_BLOCKS;

        // Segment capability adds the expansion queue + criterion logic
        // (the §5 outlook estimates roughly half the v1 datapath again).
        let seg_factor = if config.segment_capable { 1.5 } else { 1.0 };

        let flip_flops = anchor::FLIP_FLOPS * (0.4 + 0.6 * stage_ratio) * seg_factor;
        let lut4 = anchor::LUT4 * (0.5 + 0.3 * stage_ratio + 0.2 * mem_ratio) * seg_factor;
        let slices = anchor::SLICES * (0.5 + 0.3 * stage_ratio + 0.2 * mem_ratio) * seg_factor;
        let brams = (anchor::BRAMS * mem_ratio).ceil().max(1.0);
        // Deeper matrices add fan-in; mildly degrade fmax.
        let fmax = anchor::FMAX_MHZ / (0.9 + 0.1 * stage_ratio) / seg_factor.sqrt();

        ResourceEstimate {
            device: Device::virtex2_3000(),
            slices: slices.round() as u32,
            flip_flops: flip_flops.round() as u32,
            lut4: lut4.round() as u32,
            iobs: anchor::IOBS,
            brams: brams as u32,
            gclks: 1,
            fmax_mhz: fmax,
        }
    }

    /// Utilisation of one resource as a percentage of the device.
    #[must_use]
    pub fn percent(&self, used: u32, total: u32) -> f64 {
        if total == 0 {
            return 0.0;
        }
        f64::from(used) * 100.0 / f64::from(total)
    }

    /// Minimum clock period in nanoseconds.
    #[must_use]
    pub fn min_period_ns(&self) -> f64 {
        1e3 / self.fmax_mhz
    }

    /// Whether the design meets a target clock (e.g. the 66 MHz PCI
    /// clock the prototype runs at).
    #[must_use]
    pub fn meets_clock(&self, mhz: f64) -> bool {
        self.fmax_mhz >= mhz
    }

    /// Whether the estimate fits the device.
    #[must_use]
    pub fn fits_device(&self) -> bool {
        self.slices <= self.device.slices
            && self.flip_flops <= self.device.flip_flops
            && self.lut4 <= self.device.lut4
            && self.iobs <= self.device.iobs
            && self.brams <= self.device.brams
            && self.gclks <= self.device.gclks
    }
}

impl fmt::Display for ResourceEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Device utilization summary:")?;
        writeln!(f, "Selected Device : {}", self.device.name)?;
        let row = |name: &str, used: u32, total: u32| {
            format!(
                " Number of {:<22} {:>6}  out of {:>7} {:>5.0}%",
                format!("{name}:"),
                used,
                total,
                f64::from(used) * 100.0 / f64::from(total)
            )
        };
        writeln!(f, "{}", row("Slices", self.slices, self.device.slices))?;
        writeln!(
            f,
            "{}",
            row("Slice Flip Flops", self.flip_flops, self.device.flip_flops)
        )?;
        writeln!(f, "{}", row("4 input LUTs", self.lut4, self.device.lut4))?;
        writeln!(f, "{}", row("bonded IOBs", self.iobs, self.device.iobs))?;
        writeln!(f, "{}", row("BRAMs", self.brams, self.device.brams))?;
        writeln!(f, "{}", row("GCLKs", self.gclks, self.device.gclks))?;
        writeln!(f, "Timing Summary:")?;
        write!(
            f,
            "Minimum period: {:.3}ns (Maximum Frequency: {:.3}MHz)",
            self.min_period_ns(),
            self.fmax_mhz
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_reproduces_table1_exactly() {
        let e = ResourceEstimate::for_config(&EngineConfig::prototype());
        assert_eq!(e.slices, 564);
        assert_eq!(e.flip_flops, 216);
        assert_eq!(e.lut4, 349);
        assert_eq!(e.iobs, 60);
        assert_eq!(e.brams, 29);
        assert_eq!(e.gclks, 1);
        assert!((e.fmax_mhz - 102.208).abs() < 1e-9);
        assert!((e.min_period_ns() - 9.784).abs() < 0.01);
    }

    #[test]
    fn prototype_percentages_match_table1() {
        let e = ResourceEstimate::for_config(&EngineConfig::prototype());
        // Table 1: slices 3 %, IOBs 8 %, BRAMs 30 %, GCLKs 6 %.
        assert!((e.percent(e.slices, e.device.slices) - 3.9).abs() < 1.0);
        assert!((e.percent(e.iobs, e.device.iobs) - 8.3).abs() < 0.5);
        assert!((e.percent(e.brams, e.device.brams) - 30.2).abs() < 0.3);
        assert!((e.percent(e.gclks, e.device.gclks) - 6.25).abs() < 0.3);
    }

    #[test]
    fn prototype_meets_its_operating_clock() {
        // §4.1: fmax comfortably exceeds the 66 MHz PCI clock.
        let e = ResourceEstimate::for_config(&EngineConfig::prototype());
        assert!(e.meets_clock(66.0));
        assert!(e.fits_device());
    }

    #[test]
    fn brams_scale_with_intermediate_memories() {
        let mut cfg = EngineConfig::prototype();
        cfg.iim_lines = 32;
        cfg.oim_lines = 32;
        let bigger = ResourceEstimate::for_config(&cfg);
        assert_eq!(bigger.brams, 58, "double the line blocks → double BRAMs");
        assert!(
            bigger.fits_device(),
            "§4.1: enough free memory for extensions"
        );
    }

    #[test]
    fn bram_headroom_for_segment_extension() {
        // §4.1: "there is enough free memory for a possible extension of
        // the design with other addressing schemes."
        let v2 = ResourceEstimate::for_config(&EngineConfig::outlook_v2());
        assert!(v2.fits_device());
        assert!(v2.slices > 564, "segment logic costs slices");
        assert!(v2.meets_clock(66.0), "still meets the PCI clock");
    }

    #[test]
    fn deeper_pipeline_costs_registers() {
        let mut cfg = EngineConfig::prototype();
        cfg.pipeline_stages = 8;
        let deep = ResourceEstimate::for_config(&cfg);
        let base = ResourceEstimate::for_config(&EngineConfig::prototype());
        assert!(deep.flip_flops > base.flip_flops);
        assert!(deep.fmax_mhz < base.fmax_mhz);
    }

    #[test]
    fn display_matches_ise_style() {
        let e = ResourceEstimate::for_config(&EngineConfig::prototype());
        let s = e.to_string();
        assert!(s.contains("2v3000ff1152-5"));
        assert!(s.contains("564"));
        assert!(s.contains("Maximum Frequency: 102.208MHz"));
        assert!(s.contains("BRAMs"));
    }

    #[test]
    fn small_memories_floor_at_one_bram() {
        let mut cfg = EngineConfig::prototype();
        cfg.iim_lines = 2;
        cfg.oim_lines = 1;
        let e = ResourceEstimate::for_config(&cfg);
        assert!(e.brams >= 1);
    }
}
