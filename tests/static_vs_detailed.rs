//! Differential tests: the `vip-check` static verifier against the
//! cycle-stepped simulator.
//!
//! The static analyses in `vip-check` claim three things the detailed
//! engine can falsify directly:
//!
//! 1. **IIM deadlock verdicts** — a configuration the static checker
//!    calls deadlock-free must complete a cycle-stepped intra run, and a
//!    configuration it rejects for `occupancy.iim_deadlock` must abort
//!    with [`EngineError::PipelineHazard`] (the cycle bound the deadlock
//!    trips).
//! 2. **OIM occupancy bounds** — the measured `oim_max_occupancy` of
//!    every successful detailed run stays within the static
//!    `oim_occupancy_bound`.
//! 3. **Timeline ordering** — the seven §4.1 instants of every run's
//!    reported [`CallTimeline`] are monotone non-decreasing, in the
//!    order the static schedule checker proves.
//!
//! All of it over ≥100 xorshift-seeded random configurations, so the
//! two models are compared across the configuration space rather than
//! at a handful of hand-picked points. Seeds are independent, so each
//! sweep fans out across the `vip-par` work pool; a panicking seed
//! still fails the test (scoped-thread panics propagate on join).

use vip::check::occupancy::{check_iim, oim_occupancy_bound};
use vip::check::schedule::timeline_of;
use vip::check::{CallKind, Scenario};
use vip::core::frame::Frame;
use vip::core::geometry::Dims;
use vip::core::ops::arith::AbsDiff;
use vip::core::ops::filter::BoxBlur;
use vip::core::pixel::Pixel;
use vip::engine::{AddressEngine, EngineConfig, EngineError, EngineRun};
use vip::video::rng::XorShift64;

/// Number of seeded random configurations per differential sweep.
const CONFIGS: u64 = 120;

/// One random detailed configuration: frame dims, window radius, and
/// IIM/OIM/gate parameters drawn across (and beyond) the legal range.
fn random_case(seed: u64) -> (EngineConfig, Dims, usize) {
    let mut rng = XorShift64::new(seed);
    let width = 4 + (rng.next_u64() % 29) as usize; // 4..=32
    let height = 4 + (rng.next_u64() % 21) as usize; // 4..=24
    let radius = (rng.next_u64() % 4) as usize; // 0..=3
    let mut config = EngineConfig::prototype_detailed();
    // 2..=10 line blocks: straddles the 2r+1 deadlock threshold.
    config.iim_lines = 2 + (rng.next_u64() % 9) as usize;
    config.oim_lines = 1 + (rng.next_u64() % 16) as usize;
    config.oim_drain_cycles_per_pixel = 1 + rng.next_u64() % 3;
    config.output_latency_fraction = [0.0, 0.125, 0.25, 0.5][(rng.next_u64() % 4) as usize];
    (config, Dims::new(width, height), radius)
}

fn test_frame(dims: Dims) -> Frame {
    Frame::from_fn(dims, |p| {
        Pixel::from_luma(((p.x * 7 + p.y * 13) % 256) as u8)
    })
}

fn run_detailed_intra(
    config: &EngineConfig,
    dims: Dims,
    radius: usize,
) -> Result<EngineRun, EngineError> {
    let mut engine = AddressEngine::new(config.clone())?;
    let op = BoxBlur::with_radius(radius).expect("radius ≤ 4");
    engine.run_intra(&test_frame(dims), &op)
}

/// Asserts the run's reported timeline instants are ordered exactly as
/// the static schedule model proves.
fn assert_ordered(run: &EngineRun, context: &str) {
    let t = &run.report.timeline;
    for pair in t.instants().windows(2) {
        let [(before, t_before), (after, t_after)] = [pair[0], pair[1]];
        assert!(
            t_after >= t_before - 1e-12 - t.total.abs() * 1e-9,
            "{context}: instant `{after}` ({t_after:.9e}) precedes `{before}` ({t_before:.9e})",
        );
    }
}

#[test]
fn iim_verdicts_match_detailed_simulation() {
    let verdicts = vip::par::map_indexed(CONFIGS as usize, vip::par::default_threads(), |i| {
        let seed = i as u64;
        let (config, dims, radius) = random_case(seed);
        let scenario = Scenario::new("seeded", config.clone(), dims, CallKind::Intra { radius });
        let static_deadlock = check_iim(&scenario)
            .iter()
            .any(|v| v.check == "occupancy.iim_deadlock");
        let outcome = run_detailed_intra(&config, dims, radius);
        match (static_deadlock, outcome) {
            (false, Ok(run)) => {
                assert_ordered(&run, &format!("seed {seed} ({scenario})"));
                true
            }
            (true, Err(EngineError::PipelineHazard { .. })) => false,
            (false, Err(e)) => {
                panic!("seed {seed}: static says clean but detailed run failed: {e} ({scenario})")
            }
            (true, Ok(_)) => {
                panic!("seed {seed}: static predicts IIM deadlock but detailed run completed ({scenario})")
            }
            (true, Err(e)) => {
                panic!("seed {seed}: expected a PipelineHazard deadlock, got: {e} ({scenario})")
            }
        }
    });
    let clean = verdicts.iter().filter(|ok| **ok).count();
    let deadlocked = verdicts.len() - clean;
    // The sweep must actually exercise both verdicts.
    assert!(
        clean >= 20,
        "only {clean} clean configurations out of {CONFIGS}"
    );
    assert!(
        deadlocked >= 10,
        "only {deadlocked} deadlocking configurations out of {CONFIGS}"
    );
}

#[test]
fn detailed_oim_occupancy_stays_within_static_bound() {
    let checks = vip::par::map_indexed(CONFIGS as usize, vip::par::default_threads(), |i| {
        let seed = i as u64;
        let (config, dims, radius) = random_case(seed);
        let scenario = Scenario::new("seeded", config.clone(), dims, CallKind::Intra { radius });
        if !check_iim(&scenario).is_empty() {
            return false; // deadlock cases covered by the verdict test
        }
        let run = run_detailed_intra(&config, dims, radius)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let stats = run.report.processing.expect("detailed run records stats");
        let bound = oim_occupancy_bound(&scenario);
        assert!(
            (stats.oim_max_occupancy as u64) <= bound,
            "seed {seed}: measured OIM occupancy {} exceeds the static bound {bound} ({scenario})",
            stats.oim_max_occupancy,
        );
        true
    });
    let checked = checks.iter().filter(|ok| **ok).count();
    assert!(
        checked >= 20,
        "only {checked} successful runs to bound-check"
    );
}

#[test]
fn detailed_inter_matches_static_bounds_too() {
    vip::par::map_indexed(24, vip::par::default_threads(), |i| {
        let seed = i as u64;
        let (config, dims, _) = random_case(seed);
        let scenario = Scenario::new("seeded", config.clone(), dims, CallKind::Inter);
        let mut engine = AddressEngine::new(config.clone()).expect("valid config");
        let a = test_frame(dims);
        let b = Frame::from_fn(dims, |p| {
            Pixel::from_luma(((p.x * 7 + p.y * 13 + 31) % 256) as u8)
        });
        let run = engine
            .run_inter(&a, &b, &AbsDiff::luma())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_ordered(&run, &format!("seed {seed} ({scenario})"));
        let stats = run.report.processing.expect("detailed run records stats");
        assert!(
            (stats.oim_max_occupancy as u64) <= oim_occupancy_bound(&scenario),
            "seed {seed}: inter occupancy {} exceeds bound ({scenario})",
            stats.oim_max_occupancy,
        );
    });
}

#[test]
fn static_timeline_is_the_engine_timeline() {
    // `timeline_of` must describe the very timeline an analytic run
    // reports: the static schedule checks then transfer to real runs.
    vip::par::map_indexed(CONFIGS as usize, vip::par::default_threads(), |i| {
        let seed = i as u64;
        let (mut config, dims, radius) = random_case(seed);
        config.fidelity = vip::engine::SimulationFidelity::Analytic;
        let scenario = Scenario::new("seeded", config.clone(), dims, CallKind::Intra { radius });
        if !check_iim(&scenario).is_empty() {
            return;
        }
        let run = run_detailed_intra(&config, dims, radius)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let statics = timeline_of(&scenario).instants();
        let reported = run.report.timeline.instants();
        for ((_, s), (_, r)) in statics.iter().zip(reported.iter()) {
            assert!(
                (s - r).abs() <= 1e-12 + r.abs() * 1e-9,
                "seed {seed}: static instant {s:.12e} ≠ reported {r:.12e} ({scenario})"
            );
        }
    });
}
