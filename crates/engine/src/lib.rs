//! # vip-engine — the AddressEngine coprocessor simulator
//!
//! Cycle-level Rust simulator of the **AddressEngine**, the FPGA
//! coprocessor of *"A Coprocessor for Accelerating Visual Information
//! Processing"* (Stechele et al., DATE 2005), faithful to the prototype's
//! architecture (fig. 2):
//!
//! * [`zbt`] — the six-bank on-board ZBT SRAM with the fig. 3 memory
//!   distribution (paired input banks, sequential result banks),
//! * [`pci`] — the 66 MHz × 32-bit PCI/DMA model (264 MB/s, the system
//!   bottleneck),
//! * [`iim`] / [`oim`] — the input/output intermediate memories
//!   (16 line blocks × 2 BRAM banks, single-cycle neighbourhood fetch),
//! * [`matrix`] — the matrix register with LOAD/SHIFT instructions,
//! * [`plc`] — the pixel-level controller (control FSM, instructions,
//!   and the start-pipeline both detailed datapaths step),
//! * [`process_unit`] — the cycle-stepped 4-stage datapath (fig. 6),
//! * [`fast`] — the event-driven fast-forward datapath (bit-identical
//!   statistics, a fraction of the simulated work, the timing skeleton
//!   run once per call geometry),
//! * [`timing`] — the analytic image-level schedule (validated against
//!   the cycle-stepped path),
//! * [`resource`] — the calibrated Table 1 device-utilisation model,
//! * [`engine`] — the host-facing coprocessor facade.
//!
//! Every engine call produces pixels **bit-exact** with the software
//! AddressLib of [`vip_core`]; the detailed mode proves this through the
//! full ZBT → IIM → matrix → pipeline → OIM → ZBT path.
//!
//! ## Quick start
//!
//! ```
//! use vip_engine::{AddressEngine, EngineConfig};
//! use vip_core::frame::Frame;
//! use vip_core::geometry::Dims;
//! use vip_core::ops::filter::SobelGradient;
//! use vip_core::pixel::Pixel;
//!
//! # fn main() -> Result<(), vip_engine::error::EngineError> {
//! let mut engine = AddressEngine::new(EngineConfig::prototype())?;
//! let frame = Frame::filled(Dims::new(352, 288), Pixel::from_luma(90));
//! let run = engine.run_intra(&frame, &SobelGradient::new())?;
//! // The PCI bus dominates the call, as §4.1 observes.
//! assert!(run.report.timeline.pci_utilisation() > 0.85);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod config;
pub mod dma;
pub mod engine;
pub mod error;
pub mod fast;
pub mod iim;
pub mod matrix;
pub mod oim;
pub mod pci;
pub mod plc;
pub mod process_unit;
pub mod reconfig;
pub mod report;
pub mod resource;
pub mod timing;
pub mod trace;
pub mod zbt;

pub use clock::{ClockDomain, Cycles};
pub use config::{EngineConfig, InterOverlap, SimulationFidelity, StepMode};
pub use engine::{AddressEngine, EngineRun, EngineSegmentRun};
pub use error::{EngineError, EngineResult};
pub use reconfig::{ReconfigConfig, ReconfigurableEngine};
pub use report::{EngineReport, EngineStats};
pub use resource::ResourceEstimate;
pub use timing::CallTimeline;
// Observability handles, re-exported so instrumented hosts need no
// direct vip-obs dependency.
pub use vip_obs::{Phase, Recorder, Recording, Registry, Session, TraceRecord, Track};
