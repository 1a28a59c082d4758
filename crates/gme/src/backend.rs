//! Execution backends: where the low-level AddressLib calls of the
//! estimator run.
//!
//! The paper's evaluation keeps *"the top-level software layer of the
//! Global Motion Estimation Software … in the PC, which accessed the
//! ADM-XRCII board after every call to the AddressLib"* (§4.3). The
//! [`GmeBackend`] trait is exactly that AddressLib call boundary: the
//! estimator is backend-agnostic, and Table 3's call counts fall out of
//! the backend tallies.

use core::fmt;

use vip_core::accounting::CallDescriptor;
use vip_core::error::CoreResult;
use vip_core::frame::Frame;
use vip_core::geometry::Dims;
use vip_core::ops::{InterOp, IntraOp};
use vip_engine::engine::AddressEngine;
use vip_engine::error::EngineError;
use vip_engine::EngineConfig;
use vip_profiling::instr::CostModel;
use vip_profiling::profile::software_call_seconds;

/// Call counters per addressing class — the Table 3 columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTally {
    /// Intra AddressLib calls issued.
    pub intra: u64,
    /// Inter AddressLib calls issued.
    pub inter: u64,
    /// Pixels processed by intra calls.
    pub intra_pixels: u64,
    /// Pixels processed by inter calls.
    pub inter_pixels: u64,
}

impl CallTally {
    /// Total calls.
    #[must_use]
    pub const fn total(&self) -> u64 {
        self.intra + self.inter
    }
}

impl fmt::Display for CallTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} intra + {} inter calls", self.intra, self.inter)
    }
}

/// The AddressLib dispatch boundary of the estimator.
pub trait GmeBackend {
    /// Runs an intra call.
    ///
    /// # Errors
    ///
    /// Returns an AddressLib error for invalid frames.
    fn intra(&mut self, frame: &Frame, op: &dyn IntraOp) -> CoreResult<Frame>;

    /// Runs an inter call.
    ///
    /// # Errors
    ///
    /// Returns an AddressLib error for mismatched or empty frames.
    fn inter(&mut self, a: &Frame, b: &Frame, op: &dyn InterOp) -> CoreResult<Frame>;

    /// Accumulated call counts.
    fn tally(&self) -> CallTally;

    /// Modelled wall-clock seconds this backend has consumed executing
    /// its calls (0 when the backend carries no timing model).
    fn modelled_seconds(&self) -> f64 {
        0.0
    }

    /// Modelled seconds the same calls would take on the paper's software
    /// platform (Pentium-M 1.6 GHz running the generic XM AddressLib) —
    /// the "Time in PM" column of Table 3, priced per call at its actual
    /// frame size.
    fn pm_modelled_seconds(&self) -> f64 {
        0.0
    }

    /// Short backend name for reports.
    fn name(&self) -> &'static str;
}

/// The Table 3 "Time in PM" price of one call: the Pentium-M/XM cost
/// model of the paper's software platform at the call's frame size.
fn pm_call_seconds(descriptor: &CallDescriptor, dims: Dims) -> f64 {
    software_call_seconds(descriptor, dims, &CostModel::pentium_m_xm())
}

/// Pure software backend: the AddressLib running on the host CPU.
#[derive(Debug, Default)]
pub struct SoftwareBackend {
    tally: CallTally,
    pm_seconds: f64,
}

impl SoftwareBackend {
    /// Creates a fresh software backend, priced in Pentium-M seconds.
    #[must_use]
    pub fn new() -> Self {
        SoftwareBackend::default()
    }
}

impl GmeBackend for SoftwareBackend {
    fn intra(&mut self, frame: &Frame, op: &dyn IntraOp) -> CoreResult<Frame> {
        let r = vip_core::addressing::intra::run_intra(frame, &op)?;
        self.tally.intra += 1;
        self.tally.intra_pixels += r.report.pixels_processed;
        self.pm_seconds += pm_call_seconds(&r.report.descriptor, frame.dims());
        Ok(r.output)
    }

    fn inter(&mut self, a: &Frame, b: &Frame, op: &dyn InterOp) -> CoreResult<Frame> {
        let r = vip_core::addressing::inter::run_inter(a, b, &op)?;
        self.tally.inter += 1;
        self.tally.inter_pixels += r.report.pixels_processed;
        self.pm_seconds += pm_call_seconds(&r.report.descriptor, a.dims());
        Ok(r.output)
    }

    fn tally(&self) -> CallTally {
        self.tally
    }

    fn modelled_seconds(&self) -> f64 {
        self.pm_seconds
    }

    fn pm_modelled_seconds(&self) -> f64 {
        self.pm_seconds
    }

    fn name(&self) -> &'static str {
        "software"
    }
}

/// Coprocessor backend: every AddressLib call dispatches to the simulated
/// AddressEngine, whose timing model accumulates the FPGA-side seconds.
#[derive(Debug)]
pub struct EngineBackend {
    engine: AddressEngine,
    /// Pixels of successful intra/inter calls; the engine counts calls
    /// but not pixels per addressing class.
    intra_pixels: u64,
    inter_pixels: u64,
    pm_seconds: f64,
}

impl EngineBackend {
    /// Creates a backend around a fresh engine with `config`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] for invalid configurations.
    pub fn new(config: EngineConfig) -> Result<Self, EngineError> {
        Ok(EngineBackend {
            engine: AddressEngine::new(config)?,
            intra_pixels: 0,
            inter_pixels: 0,
            pm_seconds: 0.0,
        })
    }

    /// The prototype-configured backend.
    ///
    /// # Panics
    ///
    /// Never panics: the prototype configuration is valid by
    /// construction.
    #[must_use]
    pub fn prototype() -> Self {
        EngineBackend::new(EngineConfig::prototype()).expect("prototype config is valid")
    }

    /// Access to the underlying engine (reports, stats).
    #[must_use]
    pub fn engine(&self) -> &AddressEngine {
        &self.engine
    }

    /// Mutable access to the underlying engine — for attaching an
    /// observability recorder or a stage-trace limit before a run.
    pub fn engine_mut(&mut self) -> &mut AddressEngine {
        &mut self.engine
    }
}

impl GmeBackend for EngineBackend {
    fn intra(&mut self, frame: &Frame, op: &dyn IntraOp) -> CoreResult<Frame> {
        match self.engine.run_intra(frame, &op) {
            Ok(run) => {
                self.intra_pixels += frame.pixel_count() as u64;
                self.pm_seconds += pm_call_seconds(&run.report.descriptor, frame.dims());
                Ok(run.output)
            }
            Err(EngineError::Core(e)) => Err(e),
            Err(other) => Err(vip_core::error::CoreError::InvalidParameter {
                name: "engine",
                reason: engine_reason(&other),
            }),
        }
    }

    fn inter(&mut self, a: &Frame, b: &Frame, op: &dyn InterOp) -> CoreResult<Frame> {
        match self.engine.run_inter(a, b, &op) {
            Ok(run) => {
                self.inter_pixels += a.pixel_count() as u64;
                self.pm_seconds += pm_call_seconds(&run.report.descriptor, a.dims());
                Ok(run.output)
            }
            Err(EngineError::Core(e)) => Err(e),
            Err(other) => Err(vip_core::error::CoreError::InvalidParameter {
                name: "engine",
                reason: engine_reason(&other),
            }),
        }
    }

    fn tally(&self) -> CallTally {
        let s = self.engine.stats();
        CallTally {
            intra: s.intra_calls,
            inter: s.inter_calls,
            intra_pixels: self.intra_pixels,
            inter_pixels: self.inter_pixels,
        }
    }

    fn modelled_seconds(&self) -> f64 {
        self.engine.stats().busy_seconds
    }

    fn pm_modelled_seconds(&self) -> f64 {
        self.pm_seconds
    }

    fn name(&self) -> &'static str {
        "address-engine"
    }
}

fn engine_reason(err: &EngineError) -> &'static str {
    match err {
        EngineError::FrameTooLarge { .. } => "frame exceeds the engine's ZBT capacity",
        EngineError::UnsupportedCapability { .. } => "engine capability not enabled",
        _ => "engine rejected the call",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::geometry::Dims;
    use vip_core::ops::arith::AbsDiff;
    use vip_core::ops::filter::BoxBlur;
    use vip_core::pixel::Pixel;

    fn frame() -> Frame {
        Frame::from_fn(Dims::new(24, 16), |p| {
            Pixel::from_luma(((p.x * 9 + p.y * 5) % 256) as u8)
        })
    }

    #[test]
    fn software_backend_counts_calls() {
        let mut b = SoftwareBackend::new();
        let f = frame();
        b.intra(&f, &BoxBlur::con8()).unwrap();
        b.intra(&f, &BoxBlur::con8()).unwrap();
        b.inter(&f, &f, &AbsDiff::luma()).unwrap();
        let t = b.tally();
        assert_eq!((t.intra, t.inter), (2, 1));
        assert_eq!(t.intra_pixels, 2 * 384);
        assert_eq!(t.total(), 3);
        assert!(b.modelled_seconds() > 0.0, "PM cost model accumulates");
        assert_eq!(b.modelled_seconds(), b.pm_modelled_seconds());
        assert_eq!(b.name(), "software");
    }

    #[test]
    fn engine_backend_counts_and_times() {
        let mut b = EngineBackend::prototype();
        let f = frame();
        b.intra(&f, &BoxBlur::con8()).unwrap();
        b.inter(&f, &f, &AbsDiff::luma()).unwrap();
        let t = b.tally();
        assert_eq!((t.intra, t.inter), (1, 1));
        assert_eq!((t.intra_pixels, t.inter_pixels), (384, 384));
        assert!(b.modelled_seconds() > 0.0);
        assert!(
            b.pm_modelled_seconds() > b.modelled_seconds(),
            "the same calls are slower on the PM software model"
        );
        assert_eq!(b.name(), "address-engine");
        assert_eq!(b.engine().stats().total_calls(), 2);
    }

    #[test]
    fn backends_produce_identical_pixels() {
        let mut sw = SoftwareBackend::new();
        let mut hw = EngineBackend::prototype();
        let f = frame();
        let a = sw.intra(&f, &BoxBlur::con8()).unwrap();
        let b = hw.intra(&f, &BoxBlur::con8()).unwrap();
        assert_eq!(a, b);
        let c = sw.inter(&f, &a, &AbsDiff::luma()).unwrap();
        let d = hw.inter(&f, &a, &AbsDiff::luma()).unwrap();
        assert_eq!(c, d);
        assert_eq!(sw.tally(), hw.tally(), "calls and pixels per class");
    }

    #[test]
    fn backend_as_trait_object() {
        let mut backends: Vec<Box<dyn GmeBackend>> = vec![
            Box::new(SoftwareBackend::new()),
            Box::new(EngineBackend::prototype()),
        ];
        let f = frame();
        for b in &mut backends {
            b.intra(&f, &BoxBlur::con8()).unwrap();
            assert_eq!(b.tally().intra, 1, "{}", b.name());
        }
    }

    #[test]
    fn engine_errors_surface_as_core_errors() {
        let mut b = EngineBackend::prototype();
        let big = Frame::new(Dims::new(1024, 1024));
        assert!(b.intra(&big, &BoxBlur::con8()).is_err());
        let empty = Frame::new(Dims::new(0, 0));
        assert!(b.intra(&empty, &BoxBlur::con8()).is_err());
    }
}
