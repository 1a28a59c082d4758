//! Clock domains and cycle counting.
//!
//! The prototype has two relevant clock domains: the PCI bus at 66 MHz
//! (the system bottleneck, §4.1) and the FPGA design clock, whose maximum
//! frequency after synthesis is 102.208 MHz but which the prototype runs
//! at the PCI frequency (§4.1: *"the prototype implementation running
//! with 66 MHz"*).
//!
//! # Examples
//!
//! ```
//! use vip_engine::clock::{ClockDomain, Cycles};
//!
//! let pci = ClockDomain::pci_66();
//! let seconds = Cycles(66_000_000).0 as f64 / pci.hz;
//! assert!((seconds - 1.0).abs() < 1e-9);
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A cycle count within one clock domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// The raw count.
    #[must_use]
    pub const fn count(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two counts.
    #[must_use]
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// A clock domain with a fixed frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockDomain {
    /// Frequency in hertz.
    pub hz: f64,
    /// Human-readable name.
    pub name: &'static str,
}

impl ClockDomain {
    /// The 66 MHz PCI clock of the prototype board.
    #[must_use]
    pub const fn pci_66() -> Self {
        ClockDomain {
            hz: 66_000_000.0,
            name: "pci",
        }
    }

    /// The FPGA design clock at the prototype's operating point (66 MHz).
    #[must_use]
    pub const fn engine_66() -> Self {
        ClockDomain {
            hz: 66_000_000.0,
            name: "engine",
        }
    }

    /// The post-synthesis maximum frequency reported in Table 1
    /// (102.208 MHz from a 9.784 ns minimum period).
    #[must_use]
    pub const fn engine_fmax() -> Self {
        ClockDomain {
            hz: 102_208_000.0,
            name: "engine-fmax",
        }
    }

    /// Creates a custom clock domain.
    #[must_use]
    pub const fn new(name: &'static str, hz: f64) -> Self {
        ClockDomain { hz, name }
    }

    /// Clock period.
    #[must_use]
    pub fn period(&self) -> Duration {
        Duration::from_secs_f64(1.0 / self.hz)
    }
}

impl fmt::Display for ClockDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {:.3} MHz", self.name, self.hz / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles(10);
        let b = Cycles(4);
        assert_eq!(a + b, Cycles(14));
        assert_eq!(a - b, Cycles(6));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        assert_eq!(a.max(b), a);
        let mut c = a;
        c += b;
        assert_eq!(c.count(), 14);
        let total: Cycles = [a, b, Cycles(1)].into_iter().sum();
        assert_eq!(total, Cycles(15));
    }

    #[test]
    fn pci_clock_frequency() {
        let pci = ClockDomain::pci_66();
        assert_eq!(pci.hz, 66e6);
        // 264 MB/s at 4 bytes/word (§4.1).
        let bytes_per_sec = pci.hz * 4.0;
        assert_eq!(bytes_per_sec, 264e6);
    }

    #[test]
    fn fmax_matches_table1() {
        // Table 1: minimum period 9.784 ns → 102.208 MHz.
        let fmax = ClockDomain::engine_fmax();
        let period_ns = 1e9 / fmax.hz;
        assert!((period_ns - 9.784).abs() < 0.01, "{period_ns}");
        // Duration-based period rounds to nanosecond resolution.
        assert_eq!(fmax.period().as_nanos(), 10);
    }

    #[test]
    fn displays() {
        assert_eq!(Cycles(7).to_string(), "7 cyc");
        assert!(ClockDomain::pci_66().to_string().contains("66.000 MHz"));
    }
}
