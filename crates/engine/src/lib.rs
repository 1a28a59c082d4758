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
//!   (16 line blocks × 2 BRAM banks, single-cycle neighbourhood fetch);
//!   the matrix register the IIM fills is the AddressLib's own
//!   [`vip_core::neighborhood::Window`] with its LOAD/SHIFT instructions,
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

/// Tests of the Process Unit's matrix register (§3.5): the core
/// [`vip_core::neighborhood::Window`], filled by the LOAD and SHIFT that
/// stage 2 of the cycle-stepped datapath issues.
#[cfg(test)]
mod matrix {
    mod tests {
        use vip_core::geometry::Point;
        use vip_core::neighborhood::{Connectivity, Window};
        use vip_core::pixel::Pixel;

        fn line(vals: &[u8]) -> Vec<Pixel> {
            vals.iter().map(|&v| Pixel::from_luma(v)).collect()
        }

        /// Three lines whose columns, left→right, read 1..9 top→bottom,
        /// then a fourth column 10, 11, 12.
        fn lines() -> Vec<Vec<Pixel>> {
            vec![
                line(&[1, 4, 7, 10]),
                line(&[2, 5, 8, 11]),
                line(&[3, 6, 9, 12]),
            ]
        }

        fn refs(lines: &[Vec<Pixel>]) -> Vec<&[Pixel]> {
            lines.iter().map(Vec::as_slice).collect()
        }

        fn luma(w: &Window, dx: i32, dy: i32) -> u8 {
            w.sample(Point::new(dx, dy)).expect("offset present").y
        }

        #[test]
        fn samples_map_offsets_correctly() {
            let lines = lines();
            let m = Window::load(Point::new(1, 1), Connectivity::Con8, &refs(&lines));
            assert_eq!(luma(&m, -1, -1), 1); // left column, top
            assert_eq!(luma(&m, -1, 1), 3);
            assert_eq!(luma(&m, 1, -1), 7);
            assert_eq!(luma(&m, 0, 0), 5);
            assert_eq!(m.centre_pixel().y, 5);
            assert_eq!(m.len(), 9);
        }

        #[test]
        fn shift_advances_window() {
            let lines = lines();
            let lines = refs(&lines);
            let mut m = Window::load(Point::new(1, 1), Connectivity::Con8, &lines);
            m.shift(&lines);
            assert_eq!(m.centre(), Point::new(2, 1));
            assert_eq!(m.centre_pixel().y, 8, "old right column is the new centre");
            assert_eq!(luma(&m, 1, -1), 10);
            assert_eq!(luma(&m, -1, 1), 6);
        }

        #[test]
        fn shift_equals_reload() {
            // A LOAD at x+1 and a SHIFT from x must agree — the hardware's
            // pixel-reuse invariant.
            let lines = lines();
            let lines = refs(&lines);
            let mut shifted = Window::load(Point::new(1, 1), Connectivity::Con8, &lines);
            shifted.shift(&lines);
            let loaded = Window::load(Point::new(2, 1), Connectivity::Con8, &lines);
            assert_eq!(shifted, loaded);
            assert_eq!(
                shifted.iter().collect::<Vec<_>>(),
                loaded.iter().collect::<Vec<_>>()
            );
        }

        #[test]
        fn con0_matrix_is_single_pixel() {
            let lines = [line(&[42])];
            let m = Window::load(Point::new(0, 0), Connectivity::Con0, &refs(&lines));
            assert_eq!(m.centre_pixel().y, 42);
            assert_eq!(m.len(), 1);
        }

        #[test]
        fn con4_samples_restricted_to_cross() {
            let lines = lines();
            let m = Window::load(Point::new(1, 1), Connectivity::Con4, &refs(&lines));
            assert_eq!(m.len(), 5);
            assert!(m.iter().all(|(o, _)| o.x == 0 || o.y == 0));
            assert_eq!(m.sample(Point::new(1, 1)), None);
        }
    }
}
