//! # vip — visual information processing (AddressEngine reproduction)
//!
//! Umbrella crate of the reproduction of *"A Coprocessor for Accelerating
//! Visual Information Processing"* (Stechele et al., DATE 2005),
//! re-exporting the component crates:
//!
//! * [`core`] (`vip-core`) — the AddressLib: pixels, frames, the four
//!   structured addressing schemes, pixel-operation kernels, and the
//!   Table 2 memory-access accounting.
//! * [`engine`] (`vip-engine`) — the AddressEngine coprocessor
//!   simulator: ZBT/PCI/IIM/OIM memory system, the 4-stage pipelined
//!   Process Unit, timing and FPGA resource models.
//! * [`gme`] (`vip-gme`) — MPEG-7-style global motion estimation and
//!   mosaicing, split along the paper's host/coprocessor boundary.
//! * [`video`] (`vip-video`) — synthetic CIF test sequences with
//!   ground-truth camera motion plus PGM/Y4M output.
//! * [`profiling`] (`vip-profiling`) — instruction profiling and the ×30
//!   Amdahl bound.
//! * [`check`] (`vip-check`) — static schedule/hazard verifier: proves
//!   ZBT bank-conflict freedom, IIM/OIM occupancy bounds, in-order
//!   hazard-free Process-Unit pipeline sequencing and call-timeline ordering without running the
//!   simulator, plus the zero-dependency workspace lints
//!   (`vipctl check` / the `vip-check` binary).
//! * [`obs`] (`vip-obs`) — the zero-dependency observability layer:
//!   event bus, metrics registry, Perfetto trace export and the JSON
//!   writer backing `vipctl trace` / `vipctl report`.
//! * [`par`] (`vip-par`) — zero-dependency scoped-thread work pool with
//!   deterministic result ordering, backing the parallel sweeps in
//!   `vip-bench`, the GME batch runner and the `vip-check` proofs.
//!
//! ## Quick start
//!
//! ```
//! use vip::core::frame::Frame;
//! use vip::core::geometry::Dims;
//! use vip::core::ops::filter::SobelGradient;
//! use vip::core::pixel::Pixel;
//! use vip::engine::{AddressEngine, EngineConfig};
//!
//! # fn main() -> Result<(), vip::engine::EngineError> {
//! let mut engine = AddressEngine::new(EngineConfig::prototype())?;
//! let frame = Frame::filled(Dims::new(64, 48), Pixel::from_luma(100));
//! let run = engine.run_intra(&frame, &SobelGradient::new())?;
//! println!("{}", run.report);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use vip_check as check;
pub use vip_core as core;
pub use vip_engine as engine;
pub use vip_gme as gme;
pub use vip_obs as obs;
pub use vip_par as par;
pub use vip_profiling as profiling;
pub use vip_video as video;
