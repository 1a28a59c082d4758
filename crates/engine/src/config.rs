//! Engine configuration: the architectural parameters of the AddressEngine
//! prototype and the knobs the ablation benches sweep.

use crate::clock::ClockDomain;
use crate::error::{EngineError, EngineResult};

/// How faithfully calls are simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimulationFidelity {
    /// Cycle-level simulation: pixels flow through ZBT → IIM → matrix
    /// register → Process Unit pipeline → OIM → ZBT, advanced as
    /// [`StepMode`] says. The cycle-stepped datapath computes each pixel
    /// from the matrix register; the fast-forward one computes the same
    /// pixels with the software AddressLib. Window samples outside the
    /// frame clamp, as the IIM re-delivers edge lines. Use for
    /// verification, traces and the fig. 5 print.
    Detailed,
    /// Analytic cycle counts derived from the same architectural
    /// parameters, validated against [`SimulationFidelity::Detailed`] on
    /// small frames (see `crates/engine/tests/analytic_vs_detailed.rs`). Use for
    /// CIF-scale workloads like the Table 3 runs, where cycle-stepping
    /// thousands of calls would be needlessly slow.
    #[default]
    Analytic,
}

/// How the detailed simulator advances its cycle counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// Tick every engine cycle, modelling each stage each cycle. The
    /// reference the equivalence tests hold [`StepMode::FastForward`] to.
    CycleStepped,
    /// Event-driven fast-forward: the clock jumps to the next cycle on
    /// which any subsystem acts, and the per-pixel datapath work is
    /// replayed from the software addressing model. Produces bit-identical
    /// [`crate::process_unit::ProcessingStats`], ZBT bank statistics,
    /// schedule instants and probe recordings to [`StepMode::CycleStepped`]
    /// (asserted by `tests/fast_forward_equivalence.rs`), recorder or not.
    #[default]
    FastForward,
}

/// Behaviour of inter calls with respect to transfer/processing overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterOverlap {
    /// Strips of both input frames are interleaved on the PCI bus so that
    /// processing starts as soon as the first strip pair is resident.
    Interleaved,
    /// The *"special inter operations"* of §4.1: processing cannot start
    /// until both images have been completely transferred. This is the
    /// mode whose non-PCI overhead the paper quantifies at 12.5 %.
    #[default]
    Sequential,
}

/// Architectural configuration of the simulated AddressEngine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// PCI bus clock (prototype: 66 MHz, 32 bit).
    pub pci_clock: ClockDomain,
    /// FPGA design clock (prototype operating point: 66 MHz; Table 1
    /// allows up to 102.208 MHz).
    pub engine_clock: ClockDomain,
    /// Words per PCI transfer beat (32-bit bus → one word).
    pub pci_bytes_per_cycle: usize,
    /// DMA efficiency: fraction of theoretical PCI bandwidth sustained
    /// (arbitration, setup); 1.0 models the ideal bus.
    pub pci_efficiency: f64,
    /// Interrupt + DMA-descriptor overhead per transfer, in PCI cycles
    /// (the PC↔board communication is interrupt oriented, §3.1).
    pub interrupt_overhead_cycles: u64,
    /// Number of independent ZBT banks (board: 6).
    pub zbt_banks: usize,
    /// Words (32 bit) per ZBT bank (board: 6 MB total → 1 MB = 256 Ki
    /// words per bank).
    pub zbt_bank_words: usize,
    /// Lines per transfer strip (prototype: 16, from the nine-line
    /// neighbourhood maximum, §3.1).
    pub strip_lines: usize,
    /// Lines held by the IIM (prototype: 16, two FPGA-BRAM banks per
    /// line).
    pub iim_lines: usize,
    /// Lines buffered by the OIM (same structure as the IIM).
    pub oim_lines: usize,
    /// Pipeline depth of the Process Unit (prototype: 4 stages, §3.4).
    pub pipeline_stages: usize,
    /// Engine cycles needed to drain one result pixel OIM → ZBT: 2, since
    /// the result banks store the pixel's lo/hi words sequentially in one
    /// bank (§3.1) — the 2× speed mismatch the OIM exists to absorb.
    pub oim_drain_cycles_per_pixel: u64,
    /// Fraction of the result image that must be drained into the ZBT
    /// result blocks before the outbound DMA may start. The drain
    /// (2 engine cycles/pixel) and the outbound DMA (2 PCI cycles/pixel)
    /// move at the same rate when both clocks run at 66 MHz, so a DMA
    /// that starts behind the drain pointer never overtakes it; the
    /// prototype waits for half of Res_block_A (= a quarter of the image)
    /// as safety margin. This gate is what makes the non-PCI overhead of
    /// sequential inter calls come out at ⅛ of the inbound transfer time
    /// (§4.1's 12.5 %).
    pub output_latency_fraction: f64,
    /// Inter transfer/processing overlap mode.
    pub inter_overlap: InterOverlap,
    /// Simulation fidelity.
    pub fidelity: SimulationFidelity,
    /// Cycle-stepping strategy for [`SimulationFidelity::Detailed`] runs.
    pub step_mode: StepMode,
    /// Whether the engine accepts segment-addressing calls. `false` for
    /// the v1 prototype (*"Segment addressing is planned for future
    /// versions"*, §6); enable to model the §5 outlook extension.
    pub segment_capable: bool,
}

impl EngineConfig {
    /// The DATE 2005 prototype configuration: ADM-XRC-II board,
    /// Virtex-II 3000, 66 MHz PCI, 6-bank ZBT, 16-line strips and IIM/OIM,
    /// intra + inter addressing only.
    #[must_use]
    pub fn prototype() -> Self {
        EngineConfig {
            pci_clock: ClockDomain::pci_66(),
            engine_clock: ClockDomain::engine_66(),
            pci_bytes_per_cycle: 4,
            pci_efficiency: 1.0,
            interrupt_overhead_cycles: 2_000,
            zbt_banks: 6,
            zbt_bank_words: 262_144, // 1 MB per bank at 32-bit words; 6 banks → 6 MB
            strip_lines: 16,
            iim_lines: 16,
            oim_lines: 16,
            pipeline_stages: 4,
            oim_drain_cycles_per_pixel: 2,
            output_latency_fraction: 0.25,
            inter_overlap: InterOverlap::Sequential,
            fidelity: SimulationFidelity::Analytic,
            step_mode: StepMode::FastForward,
            segment_capable: false,
        }
    }

    /// Prototype configuration with [`SimulationFidelity::Detailed`] simulation.
    #[must_use]
    pub fn prototype_detailed() -> Self {
        EngineConfig {
            fidelity: SimulationFidelity::Detailed,
            ..EngineConfig::prototype()
        }
    }

    /// The §5 outlook configuration: segment addressing enabled.
    #[must_use]
    pub fn outlook_v2() -> Self {
        EngineConfig {
            segment_capable: true,
            ..EngineConfig::prototype()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] on any violated constraint
    /// (non-positive or non-finite clock rates, a zero PCI width,
    /// zero-sized strips or banks, fewer than the paired banks required,
    /// out-of-range fractions, …).
    pub fn validate(&self) -> EngineResult<()> {
        // Every timeline divides by these clock rates, and the engine
        // clock is the probe timebase: zero, negative or non-finite rates
        // give infinite or negative schedules.
        for (field, hz) in [
            ("pci_clock.hz", self.pci_clock.hz),
            ("engine_clock.hz", self.engine_clock.hz),
        ] {
            if !(hz.is_finite() && hz > 0.0) {
                return Err(EngineError::InvalidConfig {
                    field,
                    reason: "must be finite and positive",
                });
            }
        }
        if self.pci_bytes_per_cycle == 0 {
            return Err(EngineError::InvalidConfig {
                field: "pci_bytes_per_cycle",
                reason: "must be positive",
            });
        }
        if self.strip_lines == 0 {
            return Err(EngineError::InvalidConfig {
                field: "strip_lines",
                reason: "must be positive",
            });
        }
        if self.iim_lines < 2 {
            return Err(EngineError::InvalidConfig {
                field: "iim_lines",
                reason: "the IIM needs at least two line blocks",
            });
        }
        if self.oim_lines == 0 {
            return Err(EngineError::InvalidConfig {
                field: "oim_lines",
                reason: "the OIM needs at least one line block",
            });
        }
        if self.zbt_banks < 6 {
            return Err(EngineError::InvalidConfig {
                field: "zbt_banks",
                reason: "the fig. 3 layout needs six banks (paired inputs + two result blocks)",
            });
        }
        if self.zbt_bank_words == 0 {
            return Err(EngineError::InvalidConfig {
                field: "zbt_bank_words",
                reason: "must be positive",
            });
        }
        if self.pipeline_stages == 0 {
            return Err(EngineError::InvalidConfig {
                field: "pipeline_stages",
                reason: "must be positive",
            });
        }
        if !(0.0..=1.0).contains(&self.output_latency_fraction) {
            return Err(EngineError::InvalidConfig {
                field: "output_latency_fraction",
                reason: "must lie in [0, 1]",
            });
        }
        if !(self.pci_efficiency > 0.0 && self.pci_efficiency <= 1.0) {
            return Err(EngineError::InvalidConfig {
                field: "pci_efficiency",
                reason: "must lie in (0, 1]",
            });
        }
        if self.oim_drain_cycles_per_pixel == 0 {
            return Err(EngineError::InvalidConfig {
                field: "oim_drain_cycles_per_pixel",
                reason: "must be positive",
            });
        }
        Ok(())
    }

    /// Total ZBT capacity in bytes.
    #[must_use]
    pub fn zbt_bytes(&self) -> usize {
        self.zbt_banks * self.zbt_bank_words * 4
    }

    /// Sustained PCI bandwidth in bytes/second after efficiency.
    #[must_use]
    pub fn pci_bandwidth(&self) -> f64 {
        self.pci_clock.hz * self.pci_bytes_per_cycle as f64 * self.pci_efficiency
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_board() {
        let c = EngineConfig::prototype();
        c.validate().unwrap();
        assert_eq!(c.zbt_banks, 6);
        // 6 MB ZBT total (§3).
        assert_eq!(c.zbt_bytes(), 6 * 1024 * 1024);
        assert_eq!(c.strip_lines, 16);
        assert_eq!(c.pipeline_stages, 4);
        // 264 MB/s PCI (§4.1).
        assert_eq!(c.pci_bandwidth(), 264e6);
        assert!(!c.segment_capable);
    }

    #[test]
    fn zbt_holds_three_cif_images() {
        // §3.1: two input + one output CIF image (800 kB each) fit.
        let c = EngineConfig::prototype();
        assert!(c.zbt_bytes() >= 3 * 811_008);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let base = EngineConfig::prototype();
        let mut c = base.clone();
        c.strip_lines = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.iim_lines = 1;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.oim_lines = 0;
        assert!(matches!(
            c.validate(),
            Err(EngineError::InvalidConfig {
                field: "oim_lines",
                ..
            })
        ));
        let mut c = base.clone();
        c.zbt_banks = 1;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.zbt_bank_words = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.pipeline_stages = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.output_latency_fraction = 1.5;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.pci_efficiency = 0.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.oim_drain_cycles_per_pixel = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn variants() {
        assert_eq!(
            EngineConfig::prototype_detailed().fidelity,
            SimulationFidelity::Detailed
        );
        assert!(EngineConfig::outlook_v2().segment_capable);
        assert_eq!(EngineConfig::default(), EngineConfig::prototype());
    }
}
