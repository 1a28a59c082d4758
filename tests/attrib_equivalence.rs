//! Differential tests: cycle attribution must be step-mode independent.
//!
//! `vipctl report` reads its stall buckets, per-bank ZBT duty and
//! call-second split from the engine's metrics [`Registry`]. For the
//! report to be trustworthy, the *whole registry* — every counter,
//! gauge and histogram, including the new `attrib.*`, `pu.idle_cycles`
//! and `zbt.bankN.access_words` keys — must be bit-identical between
//! `StepMode::CycleStepped` and `StepMode::FastForward` on the same
//! workload. This sweep asserts exactly that across xorshift-seeded
//! configurations in every addressing mode, and checks the
//! busy/iim/oim/idle buckets partition the cycle count exactly.

use vip::core::accounting::{AccessModel, AddressingMode, CallDescriptor};
use vip::core::frame::Frame;
use vip::core::geometry::{Dims, Point};
use vip::core::neighborhood::Connectivity;
use vip::core::ops::arith::AbsDiff;
use vip::core::ops::filter::BoxBlur;
use vip::core::ops::segment_ops::HomogeneityCriterion;
use vip::core::pixel::{ChannelSet, Pixel};
use vip::engine::report::{keys, record_into};
use vip::engine::{AddressEngine, EngineConfig, EngineError, Registry, StepMode};

/// One random detailed configuration (the `fast_forward_equivalence`
/// distribution: legal and deadlocking IIM/OIM/drain draws both appear).
fn random_case(seed: u64) -> (EngineConfig, Dims, usize) {
    let mut rng = vip::video::rng::XorShift64::new(seed ^ 0x5eed_f0f0);
    let width = 4 + (rng.next_u64() % 29) as usize; // 4..=32
    let height = 4 + (rng.next_u64() % 21) as usize; // 4..=24
    let radius = (rng.next_u64() % 4) as usize; // 0..=3
    let mut config = EngineConfig::prototype_detailed();
    config.iim_lines = 2 + (rng.next_u64() % 9) as usize;
    config.oim_lines = 1 + (rng.next_u64() % 16) as usize;
    config.oim_drain_cycles_per_pixel = 1 + rng.next_u64() % 4;
    config.output_latency_fraction = [0.0, 0.125, 0.25, 0.5][(rng.next_u64() % 4) as usize];
    (config, Dims::new(width, height), radius)
}

fn test_frame(dims: Dims) -> Frame {
    Frame::from_fn(dims, |p| {
        Pixel::from_luma(((p.x * 7 + p.y * 13) % 256) as u8)
    })
}

fn with_mode(base: &EngineConfig, mode: StepMode) -> EngineConfig {
    let mut cfg = base.clone();
    cfg.step_mode = mode;
    cfg
}

/// The busy/iim/oim/idle buckets are a mutually exclusive partition of
/// the processing cycles, so they must sum back exactly.
fn assert_partition(registry: &Registry, context: &str) {
    let total = registry.counter(keys::PU_CYCLES);
    let parts = registry.counter(keys::ATTRIB_PU_BUSY_CYCLES)
        + registry.counter(keys::PU_IIM_STALLS)
        + registry.counter(keys::PU_OIM_STALLS)
        + registry.counter(keys::PU_IDLE_CYCLES);
    assert_eq!(total, parts, "{context}: cycle buckets do not partition");
}

/// Runs one intra call and returns the engine's full registry.
fn intra_registry(
    base: &EngineConfig,
    dims: Dims,
    radius: usize,
    mode: StepMode,
) -> Result<Registry, EngineError> {
    let mut engine = AddressEngine::new(with_mode(base, mode))?;
    let op = BoxBlur::with_radius(radius).expect("radius ≤ 4");
    engine.run_intra(&test_frame(dims), &op)?;
    Ok(engine.metrics().clone())
}

#[test]
fn intra_attribution_is_mode_independent_across_seeded_configs() {
    let mut clean = 0;
    for seed in 0..60 {
        let (config, dims, radius) = random_case(seed);
        let stepped = intra_registry(&config, dims, radius, StepMode::CycleStepped);
        let fast = intra_registry(&config, dims, radius, StepMode::FastForward);
        match (stepped, fast) {
            (Ok(s), Ok(f)) => {
                assert_eq!(s, f, "seed {seed} {dims:?} r{radius}: registries diverge");
                assert_partition(&s, &format!("seed {seed}"));
                let banks: u64 = (0..6)
                    .map(|b| s.counter(vip::engine::report::zbt_bank_key(b)))
                    .sum();
                assert!(banks > 0, "seed {seed}: no ZBT bank traffic recorded");
                clean += 1;
            }
            (Err(EngineError::PipelineHazard { .. }), Err(EngineError::PipelineHazard { .. })) => {}
            (s, f) => panic!(
                "seed {seed}: verdicts diverge — stepped {:?}, fast {:?}",
                s.map(|_| "ok").map_err(|e| e.to_string()),
                f.map(|_| "ok").map_err(|e| e.to_string()),
            ),
        }
    }
    assert!(clean >= 15, "only {clean} clean configurations out of 60");
}

#[test]
fn inter_attribution_is_mode_independent() {
    for seed in 0..20 {
        let (config, dims, _) = random_case(seed);
        let a = test_frame(dims);
        let b = Frame::from_fn(dims, |p| {
            Pixel::from_luma(((p.x * 5 + p.y * 3 + 17) % 256) as u8)
        });
        let mut registries = Vec::new();
        for mode in [StepMode::CycleStepped, StepMode::FastForward] {
            let mut engine = AddressEngine::new(with_mode(&config, mode)).expect("valid config");
            engine
                .run_inter(&a, &b, &AbsDiff::luma())
                .unwrap_or_else(|e| panic!("seed {seed} ({mode:?}): {e}"));
            registries.push(engine.metrics().clone());
        }
        assert_eq!(registries[0], registries[1], "inter seed {seed} {dims:?}");
        assert_partition(&registries[0], &format!("inter seed {seed}"));
    }
}

#[test]
fn segment_attribution_is_mode_independent() {
    let dims = Dims::new(24, 18);
    let frame = test_frame(dims);
    let mut registries = Vec::new();
    for mode in [StepMode::CycleStepped, StepMode::FastForward] {
        let mut cfg = EngineConfig::outlook_v2();
        cfg.step_mode = mode;
        let mut engine = AddressEngine::new(cfg).expect("valid config");
        engine
            .run_segment(
                &frame,
                &[Point::new(12, 9)],
                &HomogeneityCriterion::luma(40),
                vip::core::addressing::segment::SegmentOptions::default(),
            )
            .expect("segment call succeeds");
        registries.push(engine.metrics().clone());
    }
    assert_eq!(registries[0], registries[1], "segment registries diverge");
    assert_eq!(registries[0].counter(keys::SEGMENT_CALLS), 1);
}

#[test]
fn segment_indexed_records_attribution_without_a_call_tally() {
    // Segment-indexed addressing has no engine entry point (it is the
    // write-back half of a segment call), but its reports still flow
    // through `record_into`: gauges accumulate while the per-mode call
    // counter stays untouched, identically for any two registries.
    let dims = Dims::new(24, 18);
    let cfg = EngineConfig::outlook_v2();
    let descriptor = CallDescriptor {
        mode: AddressingMode::SegmentIndexed,
        shape: Connectivity::Con4,
        input_channels: ChannelSet::Y,
        output_channels: ChannelSet::ALPHA,
    };
    let report = vip::engine::EngineReport {
        descriptor,
        timeline: vip::engine::timing::intra_timeline(dims, 1, &cfg),
        access_model: AccessModel::for_call(&descriptor, dims),
        hardware_accesses: dims.pixel_count() as u64,
        processing: None,
    };
    let mut a = Registry::new();
    let mut b = Registry::new();
    record_into(&mut a, &report);
    record_into(&mut b, &report);
    assert_eq!(a, b);
    assert_eq!(
        a.counter(keys::SEGMENT_CALLS),
        0,
        "indexed pass is not a new call"
    );
    assert!(a.gauge(keys::BUSY_SECONDS) > 0.0);
    assert!(a.gauge(keys::ATTRIB_PCI_INPUT_SECONDS) > 0.0);
}
