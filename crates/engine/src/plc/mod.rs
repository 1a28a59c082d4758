//! The pixel-level controller (PLC): the controlpath of the processor.
//!
//! §3.4: *"The pixel level controller is the controlpath of the processor.
//! Its purpose is to control the process unit (i.e. datapath) enabling the
//! intervention of its components when necessary."* Per fig. 5 it is
//! composed of four modules, modelled here by three submodules:
//!
//! * [`control_fsm`] — generates the set of instructions for every
//!   pixel-cycle,
//! * instructions ([`instructions`]) — the micro-ops that steer each
//!   stage (LOAD or SHIFT for the matrix register),
//! * [`pipeline`] — the start-pipeline, which keeps instructions of
//!   different pixel-cycles in different stages concurrently; one bundle
//!   per stage is also the arbiter's guarantee that no two stages touch
//!   the same Process-Unit resource. Both detailed datapaths step it.

pub mod control_fsm;
pub mod instructions;
pub mod pipeline;

pub use control_fsm::ControlFsm;
pub use instructions::{FetchKind, PixelBundle, Stage};
pub use pipeline::{Cycle, Pipeline, StageSnapshot, Stages, Stall};
