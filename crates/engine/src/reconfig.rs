//! Dynamic partial reconfiguration — the §5 outlook.
//!
//! *"For exploitation of dynamic reconfigurability, an FPGA with embedded
//! RISC core and partial dynamic reconfiguration capabilities will be
//! used. The pixel addressing will be implemented in a statically
//! configured block of the FPGA, as all supported algorithms are using
//! the same AddressLib scheme, whereas the pixel processing, which might
//! be changed during the process of video analysis, will be implemented
//! in a dynamically reconfigurable block."*
//!
//! This module models that split: a [`ReconfigurableEngine`] owns a
//! static addressing block (the AddressEngine proper) and one
//! dynamically reconfigurable *processing slot*. Each pixel-operation
//! kernel corresponds to a partial bitstream; switching kernels costs
//! reconfiguration time proportional to the bitstream size over the
//! configuration-port bandwidth. Calls with the currently loaded kernel
//! run at full speed; a kernel change stalls the engine for the
//! reconfiguration, letting experiments quantify when reconfiguration
//! amortises against host fallback.
//!
//! # Examples
//!
//! ```
//! use vip_engine::reconfig::{ReconfigConfig, ReconfigurableEngine};
//! use vip_engine::EngineConfig;
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::ops::filter::{BoxBlur, SobelGradient};
//! use vip_core::pixel::Pixel;
//!
//! # fn main() -> Result<(), vip_engine::error::EngineError> {
//! let mut engine = ReconfigurableEngine::new(
//!     EngineConfig::prototype(),
//!     ReconfigConfig::virtex2_icap(),
//! )?;
//! let f = Frame::filled(Dims::new(64, 48), Pixel::from_luma(80));
//! let first = engine.run_intra(&f, &SobelGradient::new())?; // loads "sobel"
//! assert!(first.reconfigured);
//! let second = engine.run_intra(&f, &SobelGradient::new())?; // kernel resident
//! assert!(!second.reconfigured);
//! let third = engine.run_intra(&f, &BoxBlur::con8())?; // swap kernels
//! assert!(third.reconfigured);
//! # Ok(())
//! # }
//! ```

use vip_core::frame::Frame;
use vip_core::ops::{InterOp, IntraOp};

use crate::config::EngineConfig;
use crate::engine::{AddressEngine, EngineRun};
use crate::error::EngineResult;

/// Parameters of the partial-reconfiguration port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigConfig {
    /// Partial bitstream size of one processing kernel, in bytes.
    pub bitstream_bytes: usize,
    /// Configuration-port bandwidth in bytes/second.
    pub port_bandwidth: f64,
    /// Fixed per-reconfiguration overhead (driver, handshake), seconds.
    pub setup_seconds: f64,
}

impl ReconfigConfig {
    /// Virtex-II-era ICAP: ≈ 66 MB/s at 8 bit × 66 MHz, with a kernel
    /// slot of roughly 64 kB partial bitstream (a few CLB columns).
    #[must_use]
    pub const fn virtex2_icap() -> Self {
        ReconfigConfig {
            bitstream_bytes: 64 * 1024,
            port_bandwidth: 66.0e6,
            setup_seconds: 200e-6,
        }
    }

    /// Seconds to load one kernel bitstream.
    #[must_use]
    pub fn reconfiguration_seconds(&self) -> f64 {
        self.setup_seconds + self.bitstream_bytes as f64 / self.port_bandwidth
    }
}

impl Default for ReconfigConfig {
    fn default() -> Self {
        ReconfigConfig::virtex2_icap()
    }
}

/// One call on the reconfigurable engine: the inner engine run plus the
/// reconfiguration bookkeeping.
#[derive(Debug, Clone)]
pub struct ReconfigRun {
    /// The underlying engine call.
    pub run: EngineRun,
    /// Whether the processing slot had to be reconfigured for this call.
    pub reconfigured: bool,
    /// Seconds spent reconfiguring before the call (0 when resident).
    pub reconfiguration_seconds: f64,
    /// End-to-end seconds including reconfiguration.
    pub total_seconds: f64,
}

/// Cumulative reconfiguration statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReconfigStats {
    /// Calls executed.
    pub calls: u64,
    /// Reconfigurations performed.
    pub reconfigurations: u64,
    /// Seconds spent reconfiguring.
    pub reconfiguration_seconds: f64,
    /// Seconds spent executing calls (engine timeline totals).
    pub call_seconds: f64,
}

impl ReconfigStats {
    /// Hit rate: calls served without reconfiguration.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        (self.calls - self.reconfigurations) as f64 / self.calls as f64
    }

    /// Reconfiguration overhead as a fraction of total time.
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.reconfiguration_seconds + self.call_seconds;
        if total == 0.0 {
            return 0.0;
        }
        self.reconfiguration_seconds / total
    }
}

/// The §5 outlook platform: static addressing block + one dynamically
/// reconfigurable pixel-processing slot.
#[derive(Debug)]
pub struct ReconfigurableEngine {
    engine: AddressEngine,
    reconfig: ReconfigConfig,
    /// Kernel currently loaded in the processing slot.
    loaded_kernel: Option<&'static str>,
    stats: ReconfigStats,
}

impl ReconfigurableEngine {
    /// Creates the platform.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::EngineError::InvalidConfig`] for invalid
    /// engine configurations.
    pub fn new(engine_config: EngineConfig, reconfig: ReconfigConfig) -> EngineResult<Self> {
        Ok(ReconfigurableEngine {
            engine: AddressEngine::new(engine_config)?,
            reconfig,
            loaded_kernel: None,
            stats: ReconfigStats::default(),
        })
    }

    /// The kernel currently resident in the processing slot.
    #[must_use]
    pub fn loaded_kernel(&self) -> Option<&'static str> {
        self.loaded_kernel
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &ReconfigStats {
        &self.stats
    }

    /// The underlying engine.
    #[must_use]
    pub fn engine(&self) -> &AddressEngine {
        &self.engine
    }

    fn ensure_kernel(&mut self, kernel: &'static str) -> (bool, f64) {
        if self.loaded_kernel == Some(kernel) {
            return (false, 0.0);
        }
        let t = self.reconfig.reconfiguration_seconds();
        self.loaded_kernel = Some(kernel);
        self.stats.reconfigurations += 1;
        self.stats.reconfiguration_seconds += t;
        (true, t)
    }

    fn wrap(&mut self, run: EngineRun, reconfigured: bool, reconf_s: f64) -> ReconfigRun {
        self.stats.calls += 1;
        self.stats.call_seconds += run.report.timeline.total;
        ReconfigRun {
            total_seconds: run.report.timeline.total + reconf_s,
            run,
            reconfigured,
            reconfiguration_seconds: reconf_s,
        }
    }

    /// Runs an intra call, reconfiguring the processing slot if the
    /// kernel is not resident.
    ///
    /// # Errors
    ///
    /// Propagates [`AddressEngine::run_intra`] errors; on error the slot
    /// state is unchanged.
    pub fn run_intra<O: IntraOp>(&mut self, frame: &Frame, op: &O) -> EngineResult<ReconfigRun> {
        let kernel = op.name();
        let before = self.loaded_kernel;
        let (reconfigured, reconf_s) = self.ensure_kernel(kernel);
        match self.engine.run_intra(frame, op) {
            Ok(run) => Ok(self.wrap(run, reconfigured, reconf_s)),
            Err(e) => {
                // Roll back the speculative slot switch.
                self.loaded_kernel = before;
                if reconfigured {
                    self.stats.reconfigurations -= 1;
                    self.stats.reconfiguration_seconds -= reconf_s;
                }
                Err(e)
            }
        }
    }

    /// Runs an inter call, reconfiguring if needed.
    ///
    /// # Errors
    ///
    /// Propagates [`AddressEngine::run_inter`] errors; on error the slot
    /// state is unchanged.
    pub fn run_inter<O: InterOp>(
        &mut self,
        a: &Frame,
        b: &Frame,
        op: &O,
    ) -> EngineResult<ReconfigRun> {
        let kernel = op.name();
        let before = self.loaded_kernel;
        let (reconfigured, reconf_s) = self.ensure_kernel(kernel);
        match self.engine.run_inter(a, b, op) {
            Ok(run) => Ok(self.wrap(run, reconfigured, reconf_s)),
            Err(e) => {
                self.loaded_kernel = before;
                if reconfigured {
                    self.stats.reconfigurations -= 1;
                    self.stats.reconfiguration_seconds -= reconf_s;
                }
                Err(e)
            }
        }
    }

    /// Number of consecutive calls with one kernel needed before loading
    /// it beats a software fallback that is `sw_call_seconds` per call
    /// (break-even analysis for scheduling decisions).
    #[must_use]
    pub fn break_even_calls(&self, engine_call_seconds: f64, sw_call_seconds: f64) -> Option<u64> {
        let gain = sw_call_seconds - engine_call_seconds;
        if gain <= 0.0 {
            return None;
        }
        Some((self.reconfig.reconfiguration_seconds() / gain).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::frame::Frame;
    use vip_core::geometry::Dims;
    use vip_core::ops::arith::AbsDiff;
    use vip_core::ops::filter::{BoxBlur, SobelGradient};
    use vip_core::ops::morph::Dilate;
    use vip_core::pixel::Pixel;

    fn engine() -> ReconfigurableEngine {
        ReconfigurableEngine::new(EngineConfig::prototype(), ReconfigConfig::virtex2_icap())
            .expect("valid config")
    }

    fn frame() -> Frame {
        Frame::from_fn(Dims::new(48, 32), |p| {
            Pixel::from_luma(((p.x * 3 + p.y) % 256) as u8)
        })
    }

    #[test]
    fn reconfiguration_time_model() {
        let c = ReconfigConfig::virtex2_icap();
        let t = c.reconfiguration_seconds();
        // 64 kB at 66 MB/s ≈ 1 ms + 0.2 ms setup.
        assert!(t > 0.8e-3 && t < 1.6e-3, "{t}");
        assert_eq!(ReconfigConfig::default(), c);
    }

    #[test]
    fn first_call_reconfigures_repeat_hits() {
        let mut e = engine();
        let f = frame();
        assert_eq!(e.loaded_kernel(), None);
        let r1 = e.run_intra(&f, &SobelGradient::new()).unwrap();
        assert!(r1.reconfigured);
        assert!(r1.reconfiguration_seconds > 0.0);
        assert_eq!(e.loaded_kernel(), Some("sobel"));
        let r2 = e.run_intra(&f, &SobelGradient::new()).unwrap();
        assert!(!r2.reconfigured);
        assert_eq!(r2.reconfiguration_seconds, 0.0);
        assert!(r2.total_seconds < r1.total_seconds);
    }

    #[test]
    fn kernel_switch_reconfigures() {
        let mut e = engine();
        let f = frame();
        e.run_intra(&f, &SobelGradient::new()).unwrap();
        let r = e.run_intra(&f, &BoxBlur::con8()).unwrap();
        assert!(r.reconfigured);
        assert_eq!(e.loaded_kernel(), Some("box_blur"));
        // Inter kernels live in the same slot.
        let r2 = e.run_inter(&f, &f, &AbsDiff::luma()).unwrap();
        assert!(r2.reconfigured);
        assert_eq!(e.loaded_kernel(), Some("absdiff"));
    }

    #[test]
    fn stats_accumulate() {
        let mut e = engine();
        let f = frame();
        e.run_intra(&f, &SobelGradient::new()).unwrap();
        e.run_intra(&f, &SobelGradient::new()).unwrap();
        e.run_intra(&f, &Dilate::con8()).unwrap();
        e.run_intra(&f, &SobelGradient::new()).unwrap(); // swap back
        let s = e.stats();
        assert_eq!(s.calls, 4);
        assert_eq!(s.reconfigurations, 3);
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
        assert!(s.overhead_fraction() > 0.0 && s.overhead_fraction() < 1.0);
    }

    #[test]
    fn results_identical_to_plain_engine() {
        let mut r = engine();
        let mut plain = AddressEngine::new(EngineConfig::prototype()).unwrap();
        let f = frame();
        let a = r.run_intra(&f, &BoxBlur::con8()).unwrap();
        let b = plain.run_intra(&f, &BoxBlur::con8()).unwrap();
        assert_eq!(a.run.output, b.output);
    }

    #[test]
    fn failed_call_rolls_back_slot() {
        let mut e = engine();
        let f = frame();
        e.run_intra(&f, &BoxBlur::con8()).unwrap();
        let huge = Frame::new(Dims::new(1024, 1024));
        assert!(e.run_intra(&huge, &SobelGradient::new()).is_err());
        assert_eq!(
            e.loaded_kernel(),
            Some("box_blur"),
            "slot unchanged on error"
        );
        assert_eq!(e.stats().reconfigurations, 1);
        assert_eq!(e.stats().calls, 1);
    }

    #[test]
    fn break_even_analysis() {
        let e = engine();
        // Engine 6 ms/call, software 36 ms/call → gain 30 ms/call; one
        // ~1.2 ms reconfiguration amortises within a single call.
        assert_eq!(e.break_even_calls(0.006, 0.036), Some(1));
        // Tiny gain → many calls.
        let n = e.break_even_calls(0.0060, 0.00605).unwrap();
        assert!(n > 20);
        // Engine slower → never.
        assert_eq!(e.break_even_calls(0.036, 0.006), None);
    }

    #[test]
    fn empty_stats() {
        let s = ReconfigStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.overhead_fraction(), 0.0);
    }
}
