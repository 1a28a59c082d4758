//! Validates the analytic timing model against the cycle-stepped Process
//! Unit, and the engine datapath against the software AddressLib, across
//! frame sizes and kernels.

use vip_core::frame::Frame;
use vip_core::geometry::Dims;
use vip_core::ops::arith::{AbsDiff, Add, Blend, ChangeMask};
use vip_core::ops::filter::{Binomial3, BoxBlur, CentralGradient, Identity, SobelGradient};
use vip_core::ops::morph::{AlphaMajority, Dilate, Erode, MorphGradient};
use vip_core::ops::{InterOp, IntraOp};
use vip_core::pixel::Pixel;
use vip_engine::config::{EngineConfig, InterOverlap};
use vip_engine::engine::AddressEngine;
use vip_engine::process_unit::{run_inter_detailed, run_intra_detailed, PuProbe};
use vip_engine::zbt::{ZbtMemory, ZbtRegion};

fn textured(dims: Dims) -> Frame {
    Frame::from_fn(dims, |p| {
        let v = (p.x * 31 + p.y * 17 + (p.x * p.y) % 7) % 256;
        Pixel::from_luma(v as u8)
            .with_alpha(u16::from(v % 3 == 0))
            .with_aux((v * 2) as u16)
    })
}

fn load(zbt: &mut ZbtMemory, region: ZbtRegion, f: &Frame) {
    for (i, px) in f.pixels().iter().enumerate() {
        zbt.write_input_pixel(region, i, *px).unwrap();
    }
}

/// Detailed processing cycles must track the analytic drain-rate model
/// (2 cycles/pixel sustained plus a bounded lead).
#[test]
fn detailed_intra_cycles_track_analytic_rate() {
    let cfg = EngineConfig::prototype_detailed();
    let off = PuProbe::disabled();
    for (w, h) in [(16, 16), (32, 24), (48, 48), (64, 16)] {
        let dims = Dims::new(w, h);
        let frame = textured(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load(&mut zbt, ZbtRegion::InputA, &frame);
        let stats = run_intra_detailed(&mut zbt, dims, &BoxBlur::con8(), &cfg, 0, &off).unwrap();
        let n = dims.pixel_count() as u64;
        let analytic = cfg.oim_drain_cycles_per_pixel * n;
        // Lead: window lines + pipeline fill + drain pipeline.
        let lead_bound = (3 * w + 64) as u64;
        assert!(
            stats.cycles >= analytic,
            "{dims}: {} < {analytic}",
            stats.cycles
        );
        assert!(
            stats.cycles <= analytic + lead_bound,
            "{dims}: {} > {analytic} + {lead_bound}",
            stats.cycles
        );
    }
}

#[test]
fn detailed_inter_cycles_track_analytic_rate() {
    let cfg = EngineConfig::prototype_detailed();
    for (w, h) in [(16, 16), (40, 24)] {
        let dims = Dims::new(w, h);
        let a = textured(dims);
        let b = textured(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load(&mut zbt, ZbtRegion::InputA, &a);
        load(&mut zbt, ZbtRegion::InputB, &b);
        let stats = run_inter_detailed(
            &mut zbt,
            dims,
            &AbsDiff::luma(),
            &cfg,
            0,
            &PuProbe::disabled(),
        )
        .unwrap();
        let n = dims.pixel_count() as u64;
        let analytic = cfg.oim_drain_cycles_per_pixel * n;
        assert!(stats.cycles >= analytic);
        assert!(stats.cycles <= analytic + 64, "{dims}: {}", stats.cycles);
    }
}

/// Every intra kernel produces bit-exact results through the detailed
/// memory system.
#[test]
fn all_intra_kernels_bit_exact_through_engine() {
    let dims = Dims::new(24, 20);
    let frame = textured(dims);
    let ops: Vec<Box<dyn IntraOp>> = vec![
        Box::new(Identity::luma()),
        Box::new(Identity::yuv()),
        Box::new(BoxBlur::con8()),
        Box::new(BoxBlur::with_radius(2).unwrap()),
        Box::new(Binomial3::new()),
        Box::new(SobelGradient::new()),
        Box::new(CentralGradient::new()),
        Box::new(Erode::con8()),
        Box::new(Erode::con4()),
        Box::new(Dilate::con8()),
        Box::new(MorphGradient::con8()),
        Box::new(AlphaMajority::new()),
    ];
    for op in &ops {
        let mut engine = AddressEngine::new(EngineConfig::prototype_detailed()).unwrap();
        let hw = engine.run_intra(&frame, &op.as_ref()).unwrap();
        let sw = vip_core::addressing::intra::run_intra(&frame, &op.as_ref()).unwrap();
        assert_eq!(hw.output, sw.output, "kernel {}", op.name());
    }
}

#[test]
fn all_inter_kernels_bit_exact_through_engine() {
    let dims = Dims::new(20, 16);
    let a = textured(dims);
    let b = Frame::from_fn(dims, |p| Pixel::from_yuv((p.y * 9) as u8, 100, 200));
    let ops: Vec<Box<dyn InterOp>> = vec![
        Box::new(AbsDiff::luma()),
        Box::new(AbsDiff::yuv()),
        Box::new(Add::yuv()),
        Box::new(Blend::average()),
        Box::new(ChangeMask::new(12)),
    ];
    for op in &ops {
        let mut engine = AddressEngine::new(EngineConfig::prototype_detailed()).unwrap();
        let hw = engine.run_inter(&a, &b, &op.as_ref()).unwrap();
        let sw = vip_core::addressing::inter::run_inter(&a, &b, &op.as_ref()).unwrap();
        assert_eq!(hw.output, sw.output, "kernel {}", op.name());
    }
}

/// Analytic and detailed modes agree on output pixels for identical calls.
#[test]
fn analytic_equals_detailed_output() {
    let dims = Dims::new(32, 32);
    let frame = textured(dims);
    let mut ana = AddressEngine::new(EngineConfig::prototype()).unwrap();
    let mut det = AddressEngine::new(EngineConfig::prototype_detailed()).unwrap();
    let ra = ana.run_intra(&frame, &SobelGradient::new()).unwrap();
    let rd = det.run_intra(&frame, &SobelGradient::new()).unwrap();
    assert_eq!(ra.output, rd.output);
    // Timelines are identical (both analytic).
    assert_eq!(ra.report.timeline, rd.report.timeline);
}

/// The special-inter overhead claim survives the full engine path.
#[test]
fn engine_reports_inter_overhead_near_one_eighth() {
    let mut cfg = EngineConfig::prototype();
    cfg.interrupt_overhead_cycles = 0;
    let mut engine = AddressEngine::new(cfg).unwrap();
    let dims = Dims::new(352, 288);
    let a = Frame::filled(dims, Pixel::from_luma(10));
    let b = Frame::filled(dims, Pixel::from_luma(20));
    let run = engine.run_inter(&a, &b, &AbsDiff::luma()).unwrap();
    let frac = run.report.timeline.non_pci_of_input();
    assert!((frac - 0.125).abs() < 0.02, "non-PCI fraction {frac}");
}

/// Interleaved inter transfers reduce the overhead — the ablation the
/// paper implies by calling the sequential case "special".
#[test]
fn interleaved_overlap_removes_overhead() {
    let mut cfg = EngineConfig::prototype();
    cfg.interrupt_overhead_cycles = 0;
    cfg.inter_overlap = InterOverlap::Interleaved;
    let mut engine = AddressEngine::new(cfg).unwrap();
    let dims = Dims::new(352, 288);
    let a = Frame::filled(dims, Pixel::from_luma(10));
    let run = engine.run_inter(&a, &a, &AbsDiff::luma()).unwrap();
    assert!(run.report.timeline.non_pci_of_input() < 0.02);
}

/// Hardware access counts from the detailed run equal the Table 2 model
/// for every shape/channel combination exercised.
#[test]
fn hardware_accesses_equal_model_across_kernels() {
    let dims = Dims::new(16, 16);
    let frame = textured(dims);
    let kernels: Vec<Box<dyn IntraOp>> = vec![
        Box::new(Identity::luma()),
        Box::new(BoxBlur::con8()),
        Box::new(BoxBlur::with_radius(3).unwrap()),
    ];
    for op in &kernels {
        let mut engine = AddressEngine::new(EngineConfig::prototype_detailed()).unwrap();
        let run = engine.run_intra(&frame, &op.as_ref()).unwrap();
        assert_eq!(
            run.report.hardware_accesses,
            run.report.access_model.hardware_accesses,
            "kernel {}",
            op.name()
        );
    }
}
