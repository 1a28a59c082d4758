//! # vip-engine — the AddressEngine coprocessor simulator
//!
//! Cycle-level Rust simulator of the **AddressEngine**, the FPGA
//! coprocessor of *"A Coprocessor for Accelerating Visual Information
//! Processing"* (Stechele et al., DATE 2005), faithful to the prototype's
//! architecture (fig. 2):
//!
//! * [`zbt`] — the six-bank on-board ZBT SRAM with the fig. 3 memory
//!   distribution (paired input banks, sequential result banks),
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
//! * [`timing`] — the analytic image-level schedule, the only call
//!   schedule: the reported time, and a traced call's schedule instants
//!   and its PCI strip and DMA spans over the 66 MHz × 32-bit bus
//!   (264 MB/s, the system bottleneck), validated against the
//!   cycle-stepped path,
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
pub mod engine;
pub mod error;
pub mod fast;
pub mod iim;
pub mod oim;
pub mod plc;
pub mod process_unit;
pub mod reconfig;
pub mod report;
pub mod resource;
pub mod timing;
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

/// Tests of the strip-level DMA schedule (§3.1) a traced call draws from
/// its [`timing::CallTimeline`]: strips to alternate ZBT blocks, one
/// result bank switch, and the same instants the report reads.
#[cfg(test)]
mod dma {
    mod tests {
        use vip_core::geometry::{Dims, ImageFormat};
        use vip_obs::{AttrValue, Recording, Session, TraceRecord, Track};

        use crate::timing::{inter_timeline, intra_timeline, seconds_to_ns, CallTimeline};
        use crate::{EngineConfig, InterOverlap};

        const CIF: Dims = Dims::new(352, 288);

        fn cfg() -> EngineConfig {
            let mut c = EngineConfig::prototype();
            c.interrupt_overhead_cycles = 0;
            c
        }

        fn emitted(t: &CallTimeline, dims: Dims, c: &EngineConfig) -> Recording {
            let session = Session::new();
            t.emit(&session.recorder(), 0, dims, c);
            session.finish()
        }

        fn named<'a>(r: &'a Recording, track: Track, name: &str) -> Vec<&'a TraceRecord> {
            r.on_track(track)
                .into_iter()
                .filter(|e| e.name == name)
                .collect()
        }

        fn arg<'a>(e: &'a TraceRecord, key: &str) -> &'a AttrValue {
            &e.args
                .iter()
                .find(|(k, _)| *k == key)
                .expect("arg present")
                .1
        }

        fn bytes(spans: &[&TraceRecord]) -> usize {
            spans
                .iter()
                .map(|e| match arg(e, "bytes") {
                    AttrValue::U64(b) => *b as usize,
                    other => panic!("bytes arg {other:?}"),
                })
                .sum()
        }

        #[test]
        fn intra_schedule_has_all_strips_alternating() {
            let c = cfg();
            let r = emitted(&intra_timeline(CIF, 1, &c), CIF, &c);
            let strips = named(&r, Track::Pci, "strip_in");
            assert_eq!(strips.len(), 18);
            for (i, s) in strips.iter().enumerate() {
                assert_eq!(arg(s, "strip"), &AttrValue::U64(i as u64));
                assert_eq!(arg(s, "image"), &AttrValue::U64(0));
                let block = if i % 2 == 0 { "A" } else { "B" };
                assert_eq!(arg(s, "block"), &AttrValue::from(block), "strip {i}");
            }
            // Strips are contiguous on the bus.
            for w in strips.windows(2) {
                assert_eq!(w[1].ts_ns, w[0].end_ns());
            }
        }

        #[test]
        fn intra_schedule_matches_timing_model() {
            let c = cfg();
            let t = intra_timeline(CIF, 1, &c);
            let r = emitted(&t, CIF, &c);
            let strips = named(&r, Track::Pci, "strip_in");
            let halves = named(&r, Track::Pci, "result_out");
            assert_eq!(strips[0].ts_ns, 0);
            assert_eq!(strips[17].end_ns(), seconds_to_ns(t.input_end));
            assert_eq!(halves[0].ts_ns, seconds_to_ns(t.output_start));
            assert_eq!(halves[1].end_ns(), seconds_to_ns(t.total));
            // Input payload: 18 strips × 45 056 B = one CIF image.
            assert_eq!(bytes(&strips), ImageFormat::Cif.bytes());
        }

        #[test]
        fn sequential_inter_gates_output_past_bus_free() {
            let c = cfg();
            let t = inter_timeline(CIF, &c);
            let r = emitted(&t, CIF, &c);
            let strips = named(&r, Track::Pci, "strip_in");
            assert_eq!(strips.len(), 36);
            assert!(strips[..18]
                .iter()
                .all(|s| arg(s, "image") == &AttrValue::U64(0)));
            assert!(
                t.output_start > t.input_end,
                "the drain gate must delay the outbound DMA (the 12.5 % overhead)"
            );
            let out = named(&r, Track::Dma, "output_dma");
            assert_eq!(out[0].ts_ns, seconds_to_ns(t.output_start));
            assert_eq!(out[0].end_ns(), seconds_to_ns(t.total));
        }

        #[test]
        fn interleaved_inter_starts_output_at_bus_free() {
            let mut c = cfg();
            c.inter_overlap = InterOverlap::Interleaved;
            let t = inter_timeline(CIF, &c);
            let r = emitted(&t, CIF, &c);
            let strips = named(&r, Track::Pci, "strip_in");
            // Strip pairs alternate images: (0,img0), (0,img1), (1,img0)…
            assert_eq!(arg(strips[0], "image"), &AttrValue::U64(0));
            assert_eq!(arg(strips[1], "image"), &AttrValue::U64(1));
            assert_eq!(arg(strips[2], "strip"), &AttrValue::U64(1));
            assert_eq!(
                t.output_start, t.input_end,
                "no gate: processing tracked the input"
            );
        }

        #[test]
        fn output_is_two_halves_with_one_switch() {
            let c = cfg();
            let r = emitted(&intra_timeline(CIF, 1, &c), CIF, &c);
            let halves = named(&r, Track::Pci, "result_out");
            assert_eq!(halves.len(), 2);
            assert_eq!(
                halves[1].ts_ns,
                halves[0].end_ns(),
                "Res_block_B follows immediately"
            );
            assert_eq!(bytes(&halves), ImageFormat::Cif.bytes());
        }

        #[test]
        fn utilisation_high_for_intra_lower_for_sequential_inter() {
            let c = cfg();
            let intra = intra_timeline(CIF, 1, &c).pci_utilisation();
            let inter = inter_timeline(CIF, &c).pci_utilisation();
            assert!(intra > 0.97, "intra util {intra}");
            assert!(inter > 0.85 && inter < intra, "inter util {inter}");
        }

        #[test]
        fn interrupt_overhead_shifts_schedule() {
            let mut c = cfg();
            c.interrupt_overhead_cycles = 5_000;
            let r = emitted(&intra_timeline(CIF, 1, &c), CIF, &c);
            let strips = named(&r, Track::Pci, "strip_in");
            assert_eq!(strips[0].ts_ns, seconds_to_ns(5_000.0 / c.pci_clock.hz));
            assert!(strips[0].ts_ns > 0);
        }

        #[test]
        fn emitted_spans_cover_the_schedule() {
            let c = cfg();
            let t = intra_timeline(CIF, 1, &c);
            let recording = emitted(&t, CIF, &c);
            // 18 strips + 2 result halves on PCI; input + output phase on DMA.
            assert_eq!(recording.on_track(Track::Pci).len(), 20);
            assert_eq!(recording.on_track(Track::Dma).len(), 2);
            let end_ns = seconds_to_ns(t.total);
            assert!(recording.events.iter().all(|e| e.end_ns() <= end_ns));
            // Disabled recorder records nothing (and must not panic).
            t.emit(&vip_obs::Recorder::disabled(), 0, CIF, &c);
        }

        #[test]
        fn qcif_schedule_scales() {
            let c = cfg();
            let qcif = ImageFormat::Qcif.dims();
            let r = emitted(&intra_timeline(qcif, 1, &c), qcif, &c);
            let strips = named(&r, Track::Pci, "strip_in");
            assert_eq!(strips.len(), 9); // 144 / 16
            assert_eq!(bytes(&strips), ImageFormat::Qcif.bytes());
        }
    }
}

/// Tests of the PCI bus rates the call schedule draws: 66 MHz × 32 bit,
/// two bus words per 64-bit pixel (§3, §4.1).
#[cfg(test)]
mod pci {
    mod tests {
        use vip_core::geometry::{Dims, ImageFormat};
        use vip_obs::{Session, Track};

        use crate::timing::{intra_timeline, seconds_to_ns};
        use crate::EngineConfig;

        #[test]
        fn cif_image_transfer_time() {
            let t = intra_timeline(ImageFormat::Cif.dims(), 1, &EngineConfig::prototype());
            // 811 008 B / 4 B per cycle = 202 752 cycles ≈ 3.07 ms at 66 MHz.
            assert!((t.input_pci - 202_752.0 / 66e6).abs() < 1e-15);
            assert!((t.input_pci - 0.003072).abs() < 1e-5, "{}", t.input_pci);
        }

        #[test]
        fn efficiency_scales_cycles() {
            let dims = Dims::new(40, 20);
            let full = intra_timeline(dims, 1, &EngineConfig::prototype());
            let mut cfg = EngineConfig::prototype();
            cfg.pci_efficiency = 0.5;
            let half = intra_timeline(dims, 1, &cfg);
            assert!((half.input_pci - 2.0 * full.input_pci).abs() < 1e-15);
            assert!((half.output_pci - 2.0 * full.output_pci).abs() < 1e-15);
        }

        #[test]
        fn interrupt_overhead_advances_bus() {
            let cfg = EngineConfig::prototype();
            let dims = Dims::new(16, 16);
            let t = intra_timeline(dims, 1, &cfg);
            let session = Session::new();
            t.emit(&session.recorder(), 0, dims, &cfg);
            let recording = session.finish();
            // 2 000 PCI cycles of interrupt/DMA setup before the first word.
            let first = recording.on_track(Track::Pci)[0];
            assert_eq!(first.name, "strip_in");
            assert_eq!(first.ts_ns, seconds_to_ns(2_000.0 / 66e6));
        }
    }
}

/// Tests of the seven §4.1 schedule instants a call publishes on the
/// engine track ([`timing::CallTimeline::instants`]).
#[cfg(test)]
mod trace {
    mod tests {
        use vip_core::geometry::Dims;
        use vip_obs::{Phase, Recorder, Session, Track};

        use crate::timing::{inter_timeline, intra_timeline, segment_timeline};
        use crate::EngineConfig;

        fn cfg() -> EngineConfig {
            EngineConfig::prototype()
        }

        #[test]
        fn events_are_time_ordered() {
            for t in [
                intra_timeline(Dims::new(352, 288), 1, &cfg()),
                inter_timeline(Dims::new(352, 288), &cfg()),
                segment_timeline(Dims::new(352, 288), 10_000, &EngineConfig::outlook_v2()),
            ] {
                let events = t.instants();
                assert!(events.windows(2).all(|w| w[0].1 <= w[1].1), "{events:?}");
                assert_eq!(events[0].0, "call_issued");
                assert_eq!(events[6].0, "call_completed");
            }
        }

        #[test]
        fn bracketing_events_match_timeline() {
            let t = intra_timeline(Dims::new(352, 288), 1, &cfg());
            let events = t.instants();
            let at = |k: &str| events.iter().find(|e| e.0 == k).unwrap().1;
            assert_eq!(at("call_completed"), t.total);
            assert_eq!(at("input_dma_completed"), t.input_end);
            assert_eq!(at("output_dma_started"), t.output_start);
            assert_eq!(at("processing_completed"), t.drain_end);
            assert!(at("input_dma_started") <= at("input_dma_completed"));
        }

        #[test]
        fn kind_names_are_stable_and_distinct() {
            let t = intra_timeline(Dims::new(64, 64), 1, &cfg());
            let names: Vec<&str> = t.instants().iter().map(|e| e.0).collect();
            assert_eq!(
                names,
                [
                    "call_issued",
                    "input_dma_started",
                    "input_dma_completed",
                    "output_dma_started",
                    "processing_completed",
                    "output_dma_completed",
                    "call_completed",
                ]
            );
            let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
            assert_eq!(distinct.len(), names.len());
            assert!(names.iter().all(|n| !n.contains(' ')));
        }

        #[test]
        fn emit_places_all_events_on_engine_track() {
            let dims = Dims::new(64, 64);
            let t = intra_timeline(dims, 1, &cfg());
            let session = Session::new();
            t.emit(&session.recorder(), 1_000, dims, &cfg());
            let recording = session.finish();
            let engine = recording.on_track(Track::Engine);
            assert_eq!(engine.len(), 7);
            assert!(engine.iter().all(|e| matches!(e.phase, Phase::Instant)));
            assert_eq!(recording.events[0].ts_ns, 1_000);
            // A segment call moves whole frames: instants only.
            let session = Session::new();
            let c = EngineConfig::outlook_v2();
            segment_timeline(dims, 100, &c).emit(&session.recorder(), 0, dims, &c);
            assert_eq!(session.finish().on_track(Track::Engine).len(), 7);
            // Disabled recorder: no-op.
            t.emit(&Recorder::disabled(), 0, dims, &cfg());
        }
    }
}
