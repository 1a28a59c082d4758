//! Cross-crate integration: the simulated AddressEngine must be
//! bit-exact with the software AddressLib on realistic synthetic video
//! content, and its memory traffic must match the Table 2 model.

use vip::core::addressing::{inter, intra};
use vip::core::error::CoreError;
use vip::core::frame::Frame;
use vip::core::geometry::Dims;
use vip::core::neighborhood::Connectivity;
use vip::core::ops::arith::{AbsDiff, ChangeMask};
use vip::core::ops::filter::{Binomial3, BoxBlur, Identity, SobelGradient};
use vip::core::ops::morph::{Dilate, MorphGradient};
use vip::core::ops::{InterOp, IntraOp};
use vip::core::pixel::Pixel;
use vip::engine::{AddressEngine, EngineConfig, EngineError, EngineRun, StepMode};
use vip::video::TestSequence;

/// Every Table 3 sequence, rendered small, processed by both paths.
#[test]
fn engine_matches_software_on_all_sequences() {
    for seq in TestSequence::table3() {
        let small = seq.scaled(48, 32, 2);
        let f0 = small.render_frame(0);
        let f1 = small.render_frame(1);

        let mut engine = AddressEngine::new(EngineConfig::prototype_detailed()).unwrap();

        let hw_sobel = engine.run_intra(&f0, &SobelGradient::new()).unwrap();
        let sw_sobel = intra::run_intra(&f0, &SobelGradient::new()).unwrap();
        assert_eq!(hw_sobel.output, sw_sobel.output, "{} sobel", seq.name());

        let hw_diff = engine.run_inter(&f0, &f1, &AbsDiff::luma()).unwrap();
        let sw_diff = inter::run_inter(&f0, &f1, &AbsDiff::luma()).unwrap();
        assert_eq!(hw_diff.output, sw_diff.output, "{} diff", seq.name());
    }
}

/// A frame of exactly the ZBT bank capacity (512×512 = 262 144 words per
/// bank) runs on every fidelity and step mode and matches the software
/// AddressLib; one more column is rejected with a typed error.
#[test]
fn frame_at_zbt_capacity_runs_on_every_fidelity() {
    let seq = TestSequence::dome().scaled(512, 512, 2);
    let f0 = seq.render_frame(0);
    let f1 = seq.render_frame(1);
    let sw_sobel = intra::run_intra(&f0, &SobelGradient::new()).unwrap().output;
    let sw_diff = inter::run_inter(&f0, &f1, &AbsDiff::luma()).unwrap().output;
    let too_wide = vip::core::frame::Frame::new(Dims::new(513, 512));

    for (name, config) in every_fidelity() {
        let mut engine = AddressEngine::new(config).unwrap();
        let hw_sobel = engine.run_intra(&f0, &SobelGradient::new()).unwrap();
        assert_eq!(hw_sobel.output, sw_sobel, "{name} sobel");
        let hw_diff = engine.run_inter(&f0, &f1, &AbsDiff::luma()).unwrap();
        assert_eq!(hw_diff.output, sw_diff, "{name} diff");
        assert!(
            matches!(
                engine.run_intra(&too_wide, &SobelGradient::new()),
                Err(EngineError::FrameTooLarge { .. })
            ),
            "{name} must reject 513x512"
        );
    }
}

/// The three engines every fidelity test runs: analytic, detailed
/// fast-forward and detailed cycle-stepped.
fn every_fidelity() -> [(&'static str, EngineConfig); 3] {
    let mut stepped = EngineConfig::prototype_detailed();
    stepped.step_mode = StepMode::CycleStepped;
    [
        ("analytic", EngineConfig::prototype()),
        ("detailed-ff", EngineConfig::prototype_detailed()),
        ("detailed-stepped", stepped),
    ]
}

/// A frame whose every channel varies pixel to pixel, from `seed`.
fn hashed_frame(dims: Dims, seed: u32) -> Frame {
    Frame::from_fn(dims, |p| {
        let h = (p.x as u32)
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add((p.y as u32).wrapping_mul(0x85eb_ca6b))
            .wrapping_add(seed)
            .wrapping_mul(0xc2b2_ae35);
        let h = h ^ (h >> 15);
        Pixel::new(
            h as u8,
            (h >> 8) as u8,
            (h >> 16) as u8,
            (h >> 4) as u16,
            (h >> 12) as u16,
        )
    })
}

/// Asserts that every engine's run produced `software` and that all of
/// them agree on the call's schedule and traffic.
fn assert_runs_agree(what: &str, software: &Frame, runs: &[(&str, EngineRun)]) {
    let (_, first) = &runs[0];
    for (name, run) in runs {
        assert_eq!(&run.output, software, "{what}: {name} output");
        assert_eq!(
            run.report.timeline, first.report.timeline,
            "{what}: {name} timeline"
        );
        assert_eq!(
            run.report.access_model, first.report.access_model,
            "{what}: {name} model"
        );
        assert_eq!(
            run.report.hardware_accesses, first.report.hardware_accesses,
            "{what}: {name} hardware accesses"
        );
    }
}

/// Runs `op` on `frame` on a fresh engine of every fidelity.
fn intra_alike<O: IntraOp>(frame: &Frame, op: &O) {
    let software = intra::run_intra(frame, op).unwrap().output;
    let runs = every_fidelity().map(|(name, config)| {
        let mut engine = AddressEngine::new(config).unwrap();
        (name, engine.run_intra(frame, op).unwrap())
    });
    let what = format!("{} {} r{}", frame.dims(), op.name(), op.shape().radius());
    assert_runs_agree(&what, &software, &runs);
}

/// Runs `op` on `a` and `b` on a fresh engine of every fidelity.
fn inter_alike<O: InterOp>(a: &Frame, b: &Frame, op: &O) {
    let software = inter::run_inter(a, b, op).unwrap().output;
    let runs = every_fidelity().map(|(name, config)| {
        let mut engine = AddressEngine::new(config).unwrap();
        (name, engine.run_inter(a, b, op).unwrap())
    });
    assert_runs_agree(&format!("{} {}", a.dims(), op.name()), &software, &runs);
}

/// Frames one pixel wide or high, tiny squares, strip remainders and
/// windows wider than the frame: every fidelity matches the software
/// AddressLib and reports the same schedule and traffic. Radius-4 windows
/// on 1-wide and 1-high frames are all border: every sample the stepped
/// datapath's matrix register holds off the centre line is a clamped
/// edge pixel. A shape wider than nine lines gets the software's typed
/// error from every fidelity.
#[test]
fn edge_dims_run_alike_on_every_fidelity() {
    let blur = |r| BoxBlur::with_radius(r).expect("radius at most 4");
    let sizes = [
        (1, 1),
        (1, 40),
        (40, 1),
        (2, 2),
        (5, 17),
        (17, 5),
        (3, 50),
        (33, 35),
    ];
    for (w, h) in sizes {
        let dims = Dims::new(w, h);
        let a = hashed_frame(dims, 1);
        let b = hashed_frame(dims, 2);
        intra_alike(&a, &Identity::luma());
        intra_alike(&a, &SobelGradient::new());
        for r in [1, 2, 4] {
            intra_alike(&a, &blur(r));
        }
        intra_alike(&a, &Dilate::con4());
        intra_alike(&a, &MorphGradient::con8());
        inter_alike(&a, &b, &AbsDiff::luma());
        inter_alike(&a, &b, &AbsDiff::yuv());
        inter_alike(&a, &b, &ChangeMask::new(30));
        intra_rejected_alike(&a, &Dilate::with_shape(Connectivity::Square(5)));
    }
}

/// Runs `op`, which the AddressLib rejects, on a fresh engine of every
/// fidelity: each returns the software's error and none panics.
fn intra_rejected_alike<O: IntraOp>(frame: &Frame, op: &O) {
    let software = intra::run_intra(frame, op).expect_err("software rejects the op");
    assert!(
        matches!(software, CoreError::InvalidParameter { name: "shape", .. }),
        "{software}"
    );
    for (name, config) in every_fidelity() {
        let mut engine = AddressEngine::new(config).unwrap();
        assert_eq!(
            engine.run_intra(frame, op).err(),
            Some(EngineError::Core(software.clone())),
            "{} {} on {name}",
            frame.dims(),
            op.shape()
        );
    }
}

/// A multi-call pipeline (smooth → gradient → change detect) stays
/// bit-exact through the engine end to end.
#[test]
fn chained_calls_bit_exact() {
    let seq = TestSequence::pisa().scaled(40, 40, 2);
    let f0 = seq.render_frame(0);
    let f1 = seq.render_frame(1);

    let mut engine = AddressEngine::new(EngineConfig::prototype_detailed()).unwrap();
    let hw = {
        let s = engine.run_intra(&f0, &Binomial3::new()).unwrap().output;
        let g = engine.run_intra(&s, &MorphGradient::con8()).unwrap().output;
        engine
            .run_inter(&g, &f1, &ChangeMask::new(30))
            .unwrap()
            .output
    };
    let sw = {
        let s = intra::run_intra(&f0, &Binomial3::new()).unwrap().output;
        let g = intra::run_intra(&s, &MorphGradient::con8()).unwrap().output;
        inter::run_inter(&g, &f1, &ChangeMask::new(30))
            .unwrap()
            .output
    };
    assert_eq!(hw, sw);
    assert_eq!(engine.stats().intra_calls, 2);
    assert_eq!(engine.stats().inter_calls, 1);
}

/// The engine's hardware access count over a detailed run equals the
/// analytic Table 2 hardware model, for every call the pipeline makes.
#[test]
fn hardware_traffic_matches_table2_model() {
    let seq = TestSequence::dome().scaled(32, 32, 2);
    let f0 = seq.render_frame(0);
    let f1 = seq.render_frame(1);
    let mut engine = AddressEngine::new(EngineConfig::prototype_detailed()).unwrap();

    let runs = [
        engine.run_intra(&f0, &Binomial3::new()).unwrap(),
        engine.run_intra(&f0, &SobelGradient::new()).unwrap(),
        engine.run_inter(&f0, &f1, &AbsDiff::luma()).unwrap(),
    ];
    for run in &runs {
        assert_eq!(
            run.report.hardware_accesses, run.report.access_model.hardware_accesses,
            "{}",
            run.report.descriptor
        );
        assert_eq!(run.report.hardware_accesses, 2 * 32 * 32);
    }
}

/// CIF-scale analytic calls: the timing shapes §4.1 describes.
#[test]
fn cif_call_timing_shape() {
    let dims = Dims::new(352, 288);
    let seq = TestSequence::singapore();
    assert_eq!(seq.dims(), dims);
    // Render only once (CIF rendering is the slow part in debug builds).
    let f = seq.render_frame(0);
    let mut engine = AddressEngine::new(EngineConfig::prototype()).unwrap();

    let intra_run = engine.run_intra(&f, &SobelGradient::new()).unwrap();
    let inter_run = engine.run_inter(&f, &f, &AbsDiff::luma()).unwrap();

    // Intra ≈ 6 ms, inter ≈ 10 ms at 66 MHz (PCI bound).
    assert!(
        intra_run.report.timeline.total > 0.005 && intra_run.report.timeline.total < 0.008,
        "intra {}",
        intra_run.report.timeline.total
    );
    assert!(
        inter_run.report.timeline.total > 0.009 && inter_run.report.timeline.total < 0.012,
        "inter {}",
        inter_run.report.timeline.total
    );
    // PCI dominates both.
    assert!(intra_run.report.timeline.pci_utilisation() > 0.85);
    assert!(inter_run.report.timeline.pci_utilisation() > 0.85);
    // The special-inter non-PCI overhead ≈ 12.5 % of the inbound time.
    let frac = inter_run.report.timeline.non_pci_of_input();
    assert!((frac - 0.125).abs() < 0.03, "{frac}");
}
