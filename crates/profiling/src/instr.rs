//! Instruction classes and the calibrated Pentium-M cost model.
//!
//! §1 of the paper rests on *"instruction level profiling of a video
//! object segmentation algorithm"* showing that pixel address
//! calculations dominate. This module defines the instruction classes
//! that profiling distinguishes and a per-class cycle cost model
//! calibrated to the paper's software platform (Pentium-M, 1.6 GHz,
//! running the generic MPEG-7 XM AddressLib — §4.3).
//!
//! Calibration anchor: the measured Table 3 runtimes imply ≈ 560 cycles
//! per produced pixel for a CON_8 luminance intra call (35 ms per CIF
//! call); the model reproduces that with ≈ 95 cycles per structured
//! address calculation plus ≈ 40 cycles per (partially cache-missing)
//! memory access — consistent with the paper's claim that addressing,
//! not arithmetic, dominates.

use core::fmt;

/// Instruction classes distinguished by the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstrClass {
    /// Pixel address calculation: the structured addressing machinery
    /// (neighbourhood index arithmetic, bounds handling, scan-order
    /// bookkeeping) — the paper's dominant class.
    AddressCalc,
    /// Data memory access (load/store of pixel channels).
    MemoryAccess,
    /// Pixel arithmetic (add/sub/mult/compare of channel values).
    PixelArith,
    /// Inner-loop control (branches, counters).
    LoopControl,
    /// High-level algorithm control that stays on the host CPU even with
    /// the coprocessor (parameter estimation, call orchestration).
    HighLevel,
}

impl InstrClass {
    /// All classes.
    pub const ALL: [InstrClass; 5] = [
        InstrClass::AddressCalc,
        InstrClass::MemoryAccess,
        InstrClass::PixelArith,
        InstrClass::LoopControl,
        InstrClass::HighLevel,
    ];

    /// Whether the AddressEngine can absorb this class (everything except
    /// the high-level control, per §1).
    #[must_use]
    pub const fn offloadable(self) -> bool {
        !matches!(self, InstrClass::HighLevel)
    }
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstrClass::AddressCalc => "address-calc",
            InstrClass::MemoryAccess => "memory-access",
            InstrClass::PixelArith => "pixel-arith",
            InstrClass::LoopControl => "loop-control",
            InstrClass::HighLevel => "high-level",
        };
        f.write_str(s)
    }
}

/// Per-class cycle costs on a concrete CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// CPU clock in hertz.
    pub cpu_hz: f64,
    /// Cycles per address calculation.
    pub address_calc: f64,
    /// Cycles per memory access.
    pub memory_access: f64,
    /// Cycles per pixel-arithmetic operation.
    pub pixel_arith: f64,
    /// Cycles per loop-control operation.
    pub loop_control: f64,
    /// Cycles per high-level-control operation.
    pub high_level: f64,
}

impl CostModel {
    /// The paper's software platform: Pentium-M at 1.6 GHz running the
    /// generic XM AddressLib (Table 3 anchor).
    #[must_use]
    pub const fn pentium_m_xm() -> Self {
        CostModel {
            cpu_hz: 1.6e9,
            address_calc: 95.0,
            memory_access: 40.0,
            pixel_arith: 6.0,
            loop_control: 12.0,
            high_level: 20.0,
        }
    }

    /// Cycles for one operation of `class`.
    #[must_use]
    pub fn cycles(&self, class: InstrClass) -> f64 {
        match class {
            InstrClass::AddressCalc => self.address_calc,
            InstrClass::MemoryAccess => self.memory_access,
            InstrClass::PixelArith => self.pixel_arith,
            InstrClass::LoopControl => self.loop_control,
            InstrClass::HighLevel => self.high_level,
        }
    }

    /// Seconds for `count` operations of `class`.
    #[must_use]
    pub fn seconds(&self, class: InstrClass, count: f64) -> f64 {
        self.cycles(class) * count / self.cpu_hz
    }
}

/// An instruction-mix tally: operation counts per class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InstrMix {
    /// Address calculations.
    pub address_calc: f64,
    /// Memory accesses.
    pub memory_access: f64,
    /// Pixel arithmetic operations.
    pub pixel_arith: f64,
    /// Loop-control operations.
    pub loop_control: f64,
    /// High-level control operations.
    pub high_level: f64,
}

impl InstrMix {
    /// Count of one class.
    #[must_use]
    pub fn count(&self, class: InstrClass) -> f64 {
        match class {
            InstrClass::AddressCalc => self.address_calc,
            InstrClass::MemoryAccess => self.memory_access,
            InstrClass::PixelArith => self.pixel_arith,
            InstrClass::LoopControl => self.loop_control,
            InstrClass::HighLevel => self.high_level,
        }
    }

    /// Sums another mix into this one.
    pub fn add(&mut self, other: &InstrMix) {
        self.address_calc += other.address_calc;
        self.memory_access += other.memory_access;
        self.pixel_arith += other.pixel_arith;
        self.loop_control += other.loop_control;
        self.high_level += other.high_level;
    }

    /// Scales every class count.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> InstrMix {
        InstrMix {
            address_calc: self.address_calc * factor,
            memory_access: self.memory_access * factor,
            pixel_arith: self.pixel_arith * factor,
            loop_control: self.loop_control * factor,
            high_level: self.high_level * factor,
        }
    }

    /// Total modelled seconds under `model`.
    #[must_use]
    pub fn seconds(&self, model: &CostModel) -> f64 {
        InstrClass::ALL
            .into_iter()
            .map(|c| model.seconds(c, self.count(c)))
            .sum()
    }

    /// Fraction of the modelled time spent in offloadable classes.
    #[must_use]
    pub fn offloadable_fraction(&self, model: &CostModel) -> f64 {
        let total = self.seconds(model);
        if total == 0.0 {
            return 0.0;
        }
        let off: f64 = InstrClass::ALL
            .into_iter()
            .filter(|c| c.offloadable())
            .map(|c| model.seconds(c, self.count(c)))
            .sum();
        off / total
    }

    /// Fraction of the modelled time spent in address calculation — the
    /// paper's headline observation.
    #[must_use]
    pub fn address_fraction(&self, model: &CostModel) -> f64 {
        let total = self.seconds(model);
        if total == 0.0 {
            return 0.0;
        }
        model.seconds(InstrClass::AddressCalc, self.address_calc) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_offloadability() {
        assert!(InstrClass::AddressCalc.offloadable());
        assert!(InstrClass::MemoryAccess.offloadable());
        assert!(!InstrClass::HighLevel.offloadable());
        assert_eq!(InstrClass::ALL.len(), 5);
    }

    #[test]
    fn cost_model_lookup() {
        let m = CostModel::pentium_m_xm();
        assert_eq!(m.cycles(InstrClass::AddressCalc), 95.0);
        assert_eq!(m.cpu_hz, 1.6e9);
        // One address calc at 1.6 GHz.
        assert!((m.seconds(InstrClass::AddressCalc, 1.0) - 95.0 / 1.6e9).abs() < 1e-18);
    }

    #[test]
    fn mix_accumulation_and_scaling() {
        let mut a = InstrMix {
            address_calc: 10.0,
            memory_access: 5.0,
            ..InstrMix::default()
        };
        let b = InstrMix {
            address_calc: 2.0,
            pixel_arith: 8.0,
            ..InstrMix::default()
        };
        a.add(&b);
        assert_eq!(a.address_calc, 12.0);
        assert_eq!(a.pixel_arith, 8.0);
        let s = a.scaled(2.0);
        assert_eq!(s.address_calc, 24.0);
        assert_eq!(s.count(InstrClass::MemoryAccess), 10.0);
    }

    #[test]
    fn fractions() {
        let mix = InstrMix {
            address_calc: 100.0,
            high_level: 100.0,
            ..InstrMix::default()
        };
        let m = CostModel::pentium_m_xm();
        let f = mix.offloadable_fraction(&m);
        // 95·100 offloadable vs 20·100 high-level.
        assert!((f - 9500.0 / 11500.0).abs() < 1e-12);
        assert!(mix.address_fraction(&m) > 0.8);
        assert_eq!(InstrMix::default().offloadable_fraction(&m), 0.0);
        assert_eq!(InstrMix::default().address_fraction(&m), 0.0);
    }

    #[test]
    fn calibration_anchor_con8_cost() {
        // A CON_8 luminance intra pixel: 4 addresses + 4 accesses +
        // ≈ 9 arithmetic + 2 loop ops ≈ 560 cycles ⇒ ≈ 35 ms per CIF call
        // at 1.6 GHz — the Table 3 anchor.
        let m = CostModel::pentium_m_xm();
        let per_pixel = m.address_calc * 4.0
            + m.memory_access * 4.0
            + m.pixel_arith * 9.0
            + m.loop_control * 2.0;
        assert!((per_pixel - 618.0).abs() < 1.0, "{per_pixel}");
        let per_call = per_pixel * 101_376.0 / m.cpu_hz;
        assert!(per_call > 0.030 && per_call < 0.045, "{per_call}");
    }

    #[test]
    fn display() {
        assert_eq!(InstrClass::AddressCalc.to_string(), "address-calc");
        assert_eq!(InstrClass::HighLevel.to_string(), "high-level");
    }
}
