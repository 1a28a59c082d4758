//! The pixel-level controller (PLC): the controlpath of the processor.
//!
//! §3.4: *"The pixel level controller is the controlpath of the processor.
//! Its purpose is to control the process unit (i.e. datapath) enabling the
//! intervention of its components when necessary."* Fig. 5 draws it as
//! four modules; here there are three:
//!
//! * [`control_fsm`] — generates the instruction of every pixel-cycle
//!   (LOAD at a line start, SHIFT along the line); every datapath issues
//!   from it,
//! * instructions ([`instructions`]) — the stages and the micro-ops that
//!   steer them,
//! * [`pipeline`] — the start-pipeline, which keeps instructions of
//!   different pixel-cycles in different stages concurrently. One bundle
//!   per stage also keeps any two stages off the same Process-Unit
//!   resource, so fig. 5's arbiter needs no model of its own. Both
//!   detailed datapaths step it.

pub mod control_fsm;
pub mod instructions;
pub mod pipeline;

pub use control_fsm::ControlFsm;
pub use instructions::{FetchKind, Stage};
pub use pipeline::{Cycle, Pipeline, StageSnapshot, Stages, Stall};
