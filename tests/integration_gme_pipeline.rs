//! Cross-crate integration: global motion estimation over synthetic
//! sequences with ground truth, on both backends, including the
//! end-to-end speedup shape of Table 3.

use vip::gme::{EngineBackend, GmeConfig, SequenceRunner, SoftwareBackend};
use vip::video::TestSequence;

/// The estimator tracks the scripted ground truth of every sequence
/// persona (down-scaled for test speed).
#[test]
fn gme_tracks_ground_truth_on_all_sequences() {
    for seq in TestSequence::table3() {
        let small = seq.scaled(88, 72, 6);
        let scale = 352.0 / 88.0; // motion shrinks with the frame
        let runner = SequenceRunner::new(GmeConfig::default());
        let mut backend = SoftwareBackend::new();
        let report = runner.run(small.frames(), &mut backend).unwrap();
        assert_eq!(report.records.len(), 5);

        let mut err_sum = 0.0;
        for rec in &report.records {
            let truth = small.script().ground_truth(rec.index - 1);
            let (edx, edy) = rec.relative.translation_part();
            // Ground-truth poses were scripted at CIF scale; the scaled
            // sequence samples the same world, so translations are the
            // same world units — compare directly.
            let err = ((edx - truth.dx).powi(2) + (edy - truth.dy).powi(2)).sqrt();
            err_sum += err;
            let _ = scale;
        }
        let mean_err = err_sum / report.records.len() as f64;
        assert!(
            mean_err < 1.2,
            "{}: mean translation error {mean_err}",
            seq.name()
        );
    }
}

/// Both backends produce identical motion and identical call tallies —
/// the engine is a drop-in accelerator (§1: full programmability stays
/// on the CPU).
#[test]
fn backends_agree_end_to_end() {
    let seq = TestSequence::movie().scaled(64, 48, 5);
    let runner = SequenceRunner::new(GmeConfig::translational());
    let mut sw = SoftwareBackend::new();
    let mut hw = EngineBackend::prototype();
    let a = runner.run(seq.frames(), &mut sw).unwrap();
    let b = runner.run(seq.frames(), &mut hw).unwrap();
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.relative, rb.relative, "frame {}", ra.index);
        assert_eq!(ra.absolute, rb.absolute);
    }
    assert_eq!(a.tally.intra, b.tally.intra);
    assert_eq!(a.tally.inter, b.tally.inter);
    assert!(b.backend_seconds > 0.0, "engine accumulates modelled time");
}

/// The call mix is intra-heavy, like Table 3 (≈ 1.4 intra per inter).
#[test]
fn call_mix_shape_matches_table3() {
    let seq = TestSequence::singapore().scaled(88, 72, 8);
    let runner = SequenceRunner::new(GmeConfig::default()).with_mosaic(32.0, 16.0);
    let mut backend = SoftwareBackend::new();
    let report = runner.run(seq.frames(), &mut backend).unwrap();
    let t = report.tally;
    let ratio = t.intra as f64 / t.inter as f64;
    assert!(ratio > 1.0 && ratio < 2.5, "intra:inter = {ratio} ({t})");
}

/// End-to-end speedup shape: the per-call-priced PM software model over
/// the modelled engine time lands in the paper's speedup band (Table 3
/// average ≈ ×5; small frames carry relatively more per-call overhead,
/// so the band is wider here — the exact CIF-scale numbers live in the
/// table3 bench harness).
#[test]
fn speedup_factor_shape() {
    let seq = TestSequence::dome().scaled(88, 72, 5);
    let runner = SequenceRunner::new(GmeConfig::default());
    let mut hw = EngineBackend::prototype();
    let report = runner.run(seq.frames(), &mut hw).unwrap();

    let speedup = report.pm_seconds / report.backend_seconds;
    assert!(
        speedup > 2.5 && speedup < 9.0,
        "speedup {speedup} (pm {}, engine {})",
        report.pm_seconds,
        report.backend_seconds
    );
}

/// The mosaic reconstructs a panorama wider than a single frame.
#[test]
fn mosaic_panorama_grows() {
    let seq = TestSequence::pisa().scaled(64, 48, 6);
    let runner = SequenceRunner::new(GmeConfig::default()).with_mosaic(48.0, 24.0);
    let mut backend = SoftwareBackend::new();
    let report = runner.run(seq.frames(), &mut backend).unwrap();
    let mosaic = report.mosaic.unwrap();
    assert_eq!(mosaic.frames_added(), 6);
    let single_frame_share = (64.0 * 48.0) / (mosaic.canvas().pixel_count() as f64);
    assert!(
        mosaic.coverage() > single_frame_share,
        "panorama must exceed one frame: {} vs {}",
        mosaic.coverage(),
        single_frame_share
    );
}

/// Robustness: moderate sensor noise and a small independently moving
/// foreground object must not break the global estimate (the outlier
/// rejection absorbs them).
#[test]
fn gme_robust_to_noise_and_foreground_motion() {
    use vip::video::{Degradation, ForegroundObject};
    let seq = TestSequence::singapore().scaled(88, 72, 6);
    let degraded = Degradation::new(11)
        .with_noise(2.5)
        .with_object(ForegroundObject::walker(20, 30, -2.0, 0.5, 7));
    let runner = SequenceRunner::new(GmeConfig::default());
    let mut backend = SoftwareBackend::new();
    let frames: Vec<_> = degraded.frames(&seq).collect();
    let report = runner.run(frames, &mut backend).unwrap();

    let mut err_sum = 0.0;
    for rec in &report.records {
        let truth = seq.script().ground_truth(rec.index - 1);
        let (edx, edy) = rec.relative.translation_part();
        err_sum += ((edx - truth.dx).powi(2) + (edy - truth.dy).powi(2)).sqrt();
    }
    let mean_err = err_sum / report.records.len() as f64;
    assert!(mean_err < 1.6, "degraded-sequence error {mean_err}");
    // Outlier rejection must have kicked in: inlier fraction below 1.
    let inliers: f64 = report
        .records
        .iter()
        .map(|r| r.gme.inlier_fraction)
        .sum::<f64>()
        / report.records.len() as f64;
    assert!(inliers > 0.35 && inliers < 1.0, "inlier fraction {inliers}");
}
