//! Pinned Process-Unit timing: the full [`ProcessingStats`] of a fixed
//! set of detailed calls, in both step modes.
//!
//! `fast_forward_equivalence` only compares the two step modes with each
//! other, so a change to code both of them share would move them in step
//! and still pass. The values below pin the absolute result instead:
//! cycles, pixels, IIM/OIM stalls, idle cycles, matrix LOADs/SHIFTs, the
//! largest OIM occupancy and a digest of the whole fig. 5 stage trace.
//! They must not change unless the timing model is meant to.
//!
//! Every pinned call runs twice on one engine, the second time on other
//! pixels. In fast-forward mode the repeat is served from the timing
//! skeleton the first call ran, and it must give the pinned values too.
//!
//! The second half asserts the data-independence contract the
//! fast-forward datapath rests on: the statistics depend on geometry,
//! window shape and configuration only, never on pixel contents or on
//! which operation of a given shape runs. The last test checks the
//! skeleton key: a reused engine answers every call exactly as a fresh
//! one would.

use vip::core::frame::Frame;
use vip::core::geometry::Dims;
use vip::core::ops::arith::AbsDiff;
use vip::core::ops::filter::{BoxBlur, SobelGradient};
use vip::core::ops::{InterOp, IntraOp};
use vip::core::pixel::Pixel;
use vip::engine::process_unit::ProcessingStats;
use vip::engine::report::zbt_bank_key;
use vip::engine::{AddressEngine, EngineConfig, EngineError, EngineResult, EngineRun, StepMode};
use vip::video::rng::XorShift64;

const MODES: [StepMode; 2] = [StepMode::CycleStepped, StepMode::FastForward];

/// Records the whole stage trace of a small call.
const WHOLE_TRACE: usize = usize::MAX;

fn config(iim_lines: usize, oim_lines: usize, drain: u64, mode: StepMode) -> EngineConfig {
    let mut cfg = EngineConfig::prototype_detailed();
    cfg.iim_lines = iim_lines;
    cfg.oim_lines = oim_lines;
    cfg.oim_drain_cycles_per_pixel = drain;
    cfg.step_mode = mode;
    cfg
}

fn frame(dims: Dims, seed: u64) -> Frame {
    let mut rng = XorShift64::new(seed);
    Frame::from_fn(dims, |_| {
        let w = rng.next_u64();
        Pixel::from_luma(w as u8).with_alpha((w >> 8) as u16)
    })
}

/// Seed of the second call's pixels, derived from the first's.
const REPEAT: u64 = 0x5ca1ab1e;

/// The processing statistics of two `dims` intra calls on one engine,
/// the second on other pixels. In fast-forward mode the second call is
/// served from the timing skeleton of the first.
fn intra<O: IntraOp>(
    cfg: EngineConfig,
    dims: Dims,
    op: &O,
    seed: u64,
    trace: usize,
) -> [EngineResult<ProcessingStats>; 2] {
    let mut engine = AddressEngine::new(cfg).expect("valid config");
    engine.set_trace_limit(trace);
    [seed, seed ^ REPEAT].map(|seed| {
        let run = engine.run_intra(&frame(dims, seed), op)?;
        Ok(run
            .report
            .processing
            .expect("detailed fidelity reports processing stats"))
    })
}

/// [`intra`] for inter calls.
fn inter<O: InterOp>(
    cfg: EngineConfig,
    dims: Dims,
    op: &O,
    seed: u64,
    trace: usize,
) -> [EngineResult<ProcessingStats>; 2] {
    let mut engine = AddressEngine::new(cfg).expect("valid config");
    engine.set_trace_limit(trace);
    [seed, seed ^ REPEAT].map(|seed| {
        let run = engine.run_inter(&frame(dims, seed), &frame(dims, seed ^ 0xb0b), op)?;
        Ok(run
            .report
            .processing
            .expect("detailed fidelity reports processing stats"))
    })
}

/// Both calls' statistics; panics with `context` on an error.
fn ok(calls: [EngineResult<ProcessingStats>; 2], context: &str) -> [ProcessingStats; 2] {
    calls.map(|call| call.unwrap_or_else(|e| panic!("{context}: {e}")))
}

/// 64-bit FNV-1a over every slot of the stage trace.
fn trace_digest(stats: &ProcessingStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for snap in &stats.trace {
        for slot in snap.slots {
            let word = slot.map_or(0, |i| i as u64 + 1);
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Every field of `stats`, the trace as its length and digest.
fn summary(stats: &ProcessingStats) -> String {
    format!(
        "cycles={} pixels={} iim={} oim={} idle={} loads={} shifts={} occ={} trace={}:{:016x}",
        stats.cycles,
        stats.pixels,
        stats.iim_stalls,
        stats.oim_stalls,
        stats.idle_cycles,
        stats.matrix_loads,
        stats.matrix_shifts,
        stats.oim_max_occupancy,
        stats.trace.len(),
        trace_digest(stats),
    )
}

/// One pinned call: its name, the call made twice on one engine in a
/// given step mode, and the expected summary of each.
type Case = (
    &'static str,
    fn(StepMode) -> [EngineResult<ProcessingStats>; 2],
    &'static str,
);

const CASES: [Case; 12] = [
    (
        "intra r=1 20x12 drain 2",
        |m| intra(config(16, 16, 2, m), Dims::new(20, 12), &BoxBlur::con8(), 1, WHOLE_TRACE),
        "cycles=521 pixels=240 iim=38 oim=0 idle=240 loads=12 shifts=228 occ=120 trace=521:2c9ed11926b5b115",
    ),
    (
        "intra r=2 16x10 drain 2",
        |m| intra(config(16, 16, 2, m), Dims::new(16, 10), &BoxBlur::with_radius(2).unwrap(), 2, WHOLE_TRACE),
        "cycles=369 pixels=160 iim=46 oim=0 idle=160 loads=10 shifts=150 occ=80 trace=369:e911a1b2f0451b45",
    ),
    (
        "intra r=1 18x10 drain 1",
        |m| intra(config(16, 16, 1, m), Dims::new(18, 10), &SobelGradient::new(), 3, WHOLE_TRACE),
        "cycles=218 pixels=180 iim=34 oim=0 idle=1 loads=10 shifts=170 occ=1 trace=218:8573dd7d77683e51",
    ),
    (
        "intra r=1 16x9 drain 7 oim_lines 2",
        |m| intra(config(16, 2, 7, m), Dims::new(16, 9), &BoxBlur::con8(), 4, WHOLE_TRACE),
        "cycles=1036 pixels=144 iim=30 oim=635 idle=224 loads=9 shifts=135 occ=32 trace=1036:7dcdc292e30c1d53",
    ),
    (
        "intra r=1 12x8 drain 2 oim_lines 1",
        |m| intra(config(16, 1, 2, m), Dims::new(12, 8), &BoxBlur::con8(), 5, WHOLE_TRACE),
        "cycles=217 pixels=96 iim=22 oim=72 idle=24 loads=8 shifts=88 occ=12 trace=217:019f7f7578cf6507",
    ),
    (
        "intra r=1 tall 8x40 drain 2",
        |m| intra(config(16, 16, 2, m), Dims::new(8, 40), &BoxBlur::con8(), 6, WHOLE_TRACE),
        "cycles=657 pixels=320 iim=14 oim=64 idle=256 loads=40 shifts=280 occ=128 trace=657:faa93373831107c7",
    ),
    (
        "intra r=2 tall 6x30 iim_lines 5 drain 1",
        |m| intra(config(5, 4, 1, m), Dims::new(6, 30), &BoxBlur::with_radius(2).unwrap(), 7, WHOLE_TRACE),
        "cycles=350 pixels=180 iim=166 oim=0 idle=1 loads=30 shifts=150 occ=1 trace=350:2fb6add6dc40c551",
    ),
    (
        "intra r=1 96x72 drain 2 trace 64",
        |m| intra(config(16, 16, 2, m), Dims::new(96, 72), &SobelGradient::new(), 8, 64),
        "cycles=14017 pixels=6912 iim=190 oim=3840 idle=3072 loads=72 shifts=6840 occ=1536 trace=64:bc2b35af1566b325",
    ),
    (
        "inter 16x8 drain 2",
        |m| inter(config(16, 16, 2, m), Dims::new(16, 8), &AbsDiff::luma(), 9, WHOLE_TRACE),
        "cycles=258 pixels=128 iim=0 oim=0 idle=128 loads=0 shifts=0 occ=64 trace=258:fdc0cfd2a9489624",
    ),
    (
        "inter 16x8 drain 1",
        |m| inter(config(16, 16, 1, m), Dims::new(16, 8), &AbsDiff::yuv(), 10, WHOLE_TRACE),
        "cycles=131 pixels=128 iim=0 oim=0 idle=1 loads=0 shifts=0 occ=1 trace=131:bd12f6e0296ba824",
    ),
    (
        "inter 10x6 drain 7 oim_lines 1",
        |m| inter(config(16, 1, 7, m), Dims::new(10, 6), &AbsDiff::luma(), 11, WHOLE_TRACE),
        "cycles=420 pixels=60 iim=0 oim=288 idle=70 loads=0 shifts=0 occ=10 trace=420:c456ae5349e1fc98",
    ),
    (
        "inter 64x48 drain 2 trace 40",
        |m| inter(config(16, 16, 2, m), Dims::new(64, 48), &AbsDiff::luma(), 12, 40),
        "cycles=6146 pixels=3072 iim=0 oim=1024 idle=2048 loads=0 shifts=0 occ=1024 trace=40:df7cd8c4b3e24f4d",
    ),
];

#[test]
fn processing_stats_match_the_recorded_values_in_both_step_modes() {
    // The repeat call must give the pinned values too: in fast-forward
    // mode it replays the first call's timing skeleton.
    for (name, run, expected) in CASES {
        for mode in MODES {
            let context = format!("{name} ({mode:?})");
            for (call, stats) in ok(run(mode), &context).iter().enumerate() {
                assert_eq!(summary(stats), expected, "{context} call {call}");
            }
        }
    }
}

#[test]
fn iim_too_small_for_the_window_deadlocks_in_both_step_modes() {
    // Two IIM lines cannot hold a radius-1 window's three lines. The
    // repeat call on the same engine gets the same verdict.
    for mode in MODES {
        let [first, repeat] = intra(
            config(2, 16, 2, mode),
            Dims::new(10, 8),
            &BoxBlur::con8(),
            13,
            32,
        );
        assert!(
            matches!(first, Err(EngineError::PipelineHazard { .. })),
            "{mode:?}: {first:?}"
        );
        assert_eq!(first, repeat, "{mode:?}: the repeat call's verdict");
    }
}

#[test]
fn processing_stats_do_not_depend_on_pixel_contents() {
    let mut rng = XorShift64::new(0xda7a);
    for case in 0..12 {
        let dims = Dims::new(
            4 + (rng.next_u64() % 29) as usize,
            3 + (rng.next_u64() % 22) as usize,
        );
        let radius = (rng.next_u64() % 3) as usize;
        let drain = 1 + rng.next_u64() % 3;
        let op = BoxBlur::with_radius(radius).unwrap();
        let (seed_a, seed_b) = (rng.next_u64(), rng.next_u64());
        for mode in MODES {
            let cfg = || config(16, 1 + case % 4, drain, mode);
            let context = format!("case {case} {dims:?} r{radius} drain {drain} ({mode:?})");
            let a = ok(intra(cfg(), dims, &op, seed_a, 48), &context);
            let b = ok(intra(cfg(), dims, &op, seed_b, 48), &context);
            assert_eq!(a, b, "intra {context}");
            let a = ok(inter(cfg(), dims, &AbsDiff::luma(), seed_a, 48), &context);
            let b = ok(inter(cfg(), dims, &AbsDiff::luma(), seed_b, 48), &context);
            assert_eq!(a, b, "inter {context}");
        }
    }
}

#[test]
fn processing_stats_do_not_depend_on_the_operation_of_a_shape() {
    // Sobel and the 3x3 box blur share the radius-1 square window;
    // AbsDiff on luma and on all of YUV share the inter shape.
    for (i, dims) in [Dims::new(20, 12), Dims::new(7, 31), Dims::new(45, 9)]
        .into_iter()
        .enumerate()
    {
        let seed = 100 + i as u64;
        for mode in MODES {
            for drain in [1, 2, 5] {
                let cfg = || config(16, 2, drain, mode);
                let context = format!("{dims:?} drain {drain} ({mode:?})");
                let sobel = ok(
                    intra(cfg(), dims, &SobelGradient::new(), seed, 64),
                    &context,
                );
                let blur = ok(intra(cfg(), dims, &BoxBlur::con8(), seed, 64), &context);
                assert_eq!(sobel, blur, "intra {context}");
                let luma = ok(inter(cfg(), dims, &AbsDiff::luma(), seed, 64), &context);
                let yuv = ok(inter(cfg(), dims, &AbsDiff::yuv(), seed, 64), &context);
                assert_eq!(luma, yuv, "inter {context}");
            }
        }
    }
}

/// One call of [`a_reused_engine_answers_every_call_like_a_fresh_one`]:
/// an intra box blur of the given radius (`None`: an inter AbsDiff), the
/// frame size and the stage-trace limit.
type Call = (Option<usize>, Dims, usize);

fn call(
    engine: &mut AddressEngine,
    (radius, dims, trace): Call,
    seed: u64,
) -> EngineResult<EngineRun> {
    engine.set_trace_limit(trace);
    let a = frame(dims, seed);
    match radius {
        Some(r) => engine.run_intra(&a, &BoxBlur::with_radius(r).expect("radius ≤ 4")),
        None => engine.run_inter(&a, &frame(dims, seed ^ 0xb0b), &AbsDiff::luma()),
    }
}

#[test]
fn a_reused_engine_answers_every_call_like_a_fresh_one() {
    // Each call differs from the one before it in exactly one field of
    // the fast-forward skeleton key (width, height, radius, call kind,
    // trace limit), so dropping any field from the key serves a call the
    // previous call's skeleton. The last two calls repeat earlier ones.
    let (w, h) = (Dims::new(20, 12), Dims::new(21, 12));
    let hw = Dims::new(21, 13);
    let calls: [Call; 10] = [
        (Some(1), w, 0),
        (Some(1), h, 0),
        (Some(1), hw, 0),
        (Some(2), hw, 0),
        (Some(0), hw, 0),
        (None, hw, 0),
        (None, hw, 24),
        (Some(0), hw, 24),
        (Some(0), hw, 0),
        (Some(1), w, 0),
    ];
    for mode in MODES {
        let cfg = config(16, 4, 2, mode);
        let mut reused = AddressEngine::new(cfg.clone()).expect("valid config");
        for (i, &c) in calls.iter().enumerate() {
            let context = format!("call {i} {c:?} ({mode:?})");
            // A clean registry, so it holds this call's ZBT bank counters
            // alone; the skeleton results survive the reset.
            reused.reset_stats();
            let got = call(&mut reused, c, i as u64).unwrap_or_else(|e| panic!("{context}: {e}"));
            let mut fresh = AddressEngine::new(cfg.clone()).expect("valid config");
            let want = call(&mut fresh, c, i as u64).unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_eq!(got.output, want.output, "{context}: output");
            assert_eq!(
                got.report.processing, want.report.processing,
                "{context}: stats"
            );
            assert_eq!(got.report, want.report, "{context}: report");
            assert!(
                fresh.metrics().counter(zbt_bank_key(0)) > 0,
                "{context}: no ZBT bank traffic recorded"
            );
            assert_eq!(
                reused.metrics(),
                fresh.metrics(),
                "{context}: metrics and ZBT banks"
            );
        }
    }
}
