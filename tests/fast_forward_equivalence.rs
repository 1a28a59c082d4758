//! Differential tests: event-driven fast-forward vs cycle-stepped
//! simulation.
//!
//! `StepMode::FastForward` claims to be a pure performance optimisation:
//! on every addressing mode and every configuration it must produce
//! **bit-identical** results to `StepMode::CycleStepped` — the output
//! frame, the full [`vip::engine::EngineReport`] (processing statistics
//! including the fig. 5 stage trace, ZBT access counts, timeline), the
//! accumulated [`vip::engine::EngineStats`], the per-bank ZBT word
//! counters of the engine's metrics, the §4.1 schedule instants,
//! and the error verdict for configurations whose eviction gate
//! deadlocks. This sweep asserts exactly that over ~100 xorshift-seeded
//! configurations, run in parallel through `vip-par` — whose own
//! determinism (identical output at 1 and N threads) is asserted along
//! the way. Attaching a recorder must not change which datapath runs or
//! what it publishes: both datapaths emit byte-identical probe
//! recordings.

use vip::core::accounting::AddressingMode;
use vip::core::addressing::inter::run_inter;
use vip::core::addressing::intra::run_intra;
use vip::core::frame::Frame;
use vip::core::geometry::ImageFormat;
use vip::core::geometry::{Dims, Point};
use vip::core::ops::arith::{AbsDiff, ChangeMask};
use vip::core::ops::filter::{Binomial3, BoxBlur, CentralGradient, SobelGradient};
use vip::core::ops::morph::AlphaMajority;
use vip::core::ops::segment_ops::HomogeneityCriterion;
use vip::core::ops::{InterOp, IntraOp};
use vip::core::pixel::Pixel;
use vip::engine::fast::{run_inter_fast, run_intra_fast, Skeletons};
use vip::engine::process_unit::{run_inter_detailed, run_intra_detailed, ProcessingStats, PuProbe};
use vip::engine::report::zbt_bank_key;
use vip::engine::zbt::{ZbtMemory, ZbtRegion, ZbtTraffic};
use vip::engine::{AddressEngine, EngineConfig, EngineError, EngineRun, StepMode};

/// Number of seeded random configurations per differential sweep.
const CONFIGS: u64 = 100;

/// One random detailed configuration, drawn across (and beyond) the
/// legal IIM/OIM/drain range so both clean and deadlocking cases appear.
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

/// The words each of the six fig. 3 ZBT banks has moved in the engine's
/// detailed calls, as its metrics registry holds them.
fn bank_words(engine: &AddressEngine) -> Vec<u64> {
    (0..6)
        .map(|bank| engine.metrics().counter(zbt_bank_key(bank)))
        .collect()
}

/// What an engine-level sweep compares after a call: the run, the
/// engine's accumulated stats and its per-bank ZBT counters.
type Observed = (EngineRun, vip::engine::EngineStats, Vec<u64>);

fn with_mode(base: &EngineConfig, mode: StepMode) -> EngineConfig {
    let mut cfg = base.clone();
    cfg.step_mode = mode;
    cfg
}

/// Runs one intra call in the given step mode; returns the run plus the
/// engine's accumulated stats and bank counters.
fn intra_in_mode(
    base: &EngineConfig,
    dims: Dims,
    radius: usize,
    trace_limit: usize,
    mode: StepMode,
) -> Result<Observed, EngineError> {
    let mut engine = AddressEngine::new(with_mode(base, mode))?;
    engine.set_trace_limit(trace_limit);
    let op = BoxBlur::with_radius(radius).expect("radius ≤ 4");
    let run = engine.run_intra(&test_frame(dims), &op)?;
    Ok((run, engine.stats(), bank_words(&engine)))
}

/// Asserts two same-seed runs are indistinguishable, down to the f64
/// schedule instants (computed from identical inputs, so exactly equal).
fn assert_identical(stepped: &Observed, fast: &Observed, context: &str) {
    assert_eq!(
        stepped.0.output, fast.0.output,
        "{context}: output pixels diverge"
    );
    assert_eq!(
        stepped.0.report, fast.0.report,
        "{context}: reports diverge"
    );
    assert_eq!(stepped.1, fast.1, "{context}: engine stats diverge");
    assert_eq!(stepped.2, fast.2, "{context}: ZBT bank counters diverge");
    let si = stepped.0.report.timeline.instants();
    let fi = fast.0.report.timeline.instants();
    assert_eq!(si, fi, "{context}: §4.1 schedule instants diverge");
}

/// One seed's verdict, compact enough to compare across thread counts.
fn intra_verdict(seed: u64) -> String {
    let (config, dims, radius) = random_case(seed);
    let stepped = intra_in_mode(&config, dims, radius, 32, StepMode::CycleStepped);
    let fast = intra_in_mode(&config, dims, radius, 32, StepMode::FastForward);
    match (&stepped, &fast) {
        (Ok(s), Ok(f)) => {
            assert_identical(s, f, &format!("seed {seed} {dims:?} r{radius}"));
            let p = s.0.report.processing.as_ref().expect("detailed stats");
            format!(
                "ok cycles={} iim={} oim={} occ={} trace={}",
                p.cycles,
                p.iim_stalls,
                p.oim_stalls,
                p.oim_max_occupancy,
                p.trace.len()
            )
        }
        (Err(EngineError::PipelineHazard { .. }), Err(EngineError::PipelineHazard { .. })) => {
            "deadlock".to_owned()
        }
        (s, f) => panic!(
            "seed {seed}: verdicts diverge — stepped {:?}, fast {:?}",
            s.as_ref().map(|_| "ok").map_err(ToString::to_string),
            f.as_ref().map(|_| "ok").map_err(ToString::to_string),
        ),
    }
}

#[test]
fn intra_fast_forward_is_bit_identical_across_seeded_configs() {
    let threads = vip::par::default_threads();
    let verdicts = vip::par::map_indexed(CONFIGS as usize, threads, |i| intra_verdict(i as u64));
    let clean = verdicts.iter().filter(|v| v.starts_with("ok")).count();
    let deadlocked = verdicts.iter().filter(|v| *v == "deadlock").count();
    // The sweep must exercise both verdicts to mean anything.
    assert!(
        clean >= 20,
        "only {clean} clean configurations out of {CONFIGS}"
    );
    assert!(
        deadlocked >= 10,
        "only {deadlocked} deadlocks out of {CONFIGS}"
    );

    // vip-par determinism: the same sweep serially, byte-identical.
    let serial = vip::par::map_indexed(CONFIGS as usize, 1, |i| intra_verdict(i as u64));
    assert_eq!(verdicts, serial, "parallel sweep diverges from serial");
}

#[test]
fn inter_fast_forward_is_bit_identical() {
    for seed in 0..24 {
        let (config, dims, _) = random_case(seed);
        let a = test_frame(dims);
        let b = Frame::from_fn(dims, |p| {
            Pixel::from_luma(((p.x * 5 + p.y * 3 + 17) % 256) as u8)
        });
        let mut runs = Vec::new();
        for mode in [StepMode::CycleStepped, StepMode::FastForward] {
            let mut engine = AddressEngine::new(with_mode(&config, mode)).expect("valid config");
            engine.set_trace_limit(24);
            let run = engine
                .run_inter(&a, &b, &AbsDiff::luma())
                .unwrap_or_else(|e| panic!("seed {seed} ({mode:?}): {e}"));
            runs.push((run, engine.stats(), bank_words(&engine)));
        }
        assert_identical(&runs[0], &runs[1], &format!("inter seed {seed} {dims:?}"));
    }
}

#[test]
fn prototype_sobel_and_absdiff_are_bit_identical() {
    // The default detailed configuration on the engine-benchmark pair
    // (intra Sobel, then inter AbsDiff on the same engine) at a size the
    // seeded sweep never reaches, with the other three kernels the
    // workloads run in between. The stepped engine runs each kernel's
    // `apply` on its matrix register, the fast-forward engine its
    // `apply_row`. Alpha is 0 on about half the pixels, so the
    // `AlphaMajority` votes go both ways. The pixel count is odd, so the
    // two result blocks of the ZBT map differ in size.
    let dims = Dims::new(97, 71);
    let mut rng = vip::video::rng::XorShift64::new(0xa1fa);
    let a = Frame::from_fn(dims, |p| {
        Pixel::from_luma(((p.x * 7 + p.y * 13) % 256) as u8).with_alpha((rng.next_u64() & 1) as u16)
    });
    let b = Frame::from_fn(dims, |p| {
        Pixel::from_luma(((p.x * 7 + p.y * 13 + 31) % 256) as u8)
    });
    let intra_ops: [&dyn IntraOp; 4] = [
        &SobelGradient::new(),
        &CentralGradient::new(),
        &Binomial3::new(),
        &AlphaMajority::new(),
    ];
    let config = EngineConfig::prototype_detailed();
    let mut runs = Vec::new();
    for mode in [StepMode::CycleStepped, StepMode::FastForward] {
        let mut engine = AddressEngine::new(with_mode(&config, mode)).expect("valid config");
        let mut calls = Vec::new();
        for op in intra_ops {
            let run = engine
                .run_intra(&a, &op)
                .unwrap_or_else(|e| panic!("{} call fails: {e}", op.name()));
            calls.push((op.name(), run, bank_words(&engine)));
        }
        let inter = engine
            .run_inter(&a, &b, &AbsDiff::luma())
            .expect("inter call succeeds");
        calls.push(("absdiff", inter, bank_words(&engine)));
        runs.push((calls, engine.stats()));
    }
    let (stepped, fast) = (&runs[0], &runs[1]);
    for ((name, s, s_banks), (_, f, f_banks)) in stepped.0.iter().zip(&fast.0) {
        assert_eq!(s.output, f.output, "{name} output pixels diverge");
        assert_eq!(s.report, f.report, "{name} reports diverge");
        assert_eq!(s_banks, f_banks, "{name}: ZBT bank counters diverge");
    }
    assert_eq!(stepped.1, fast.1, "engine stats diverge");
}

#[test]
fn segment_calls_are_mode_independent() {
    // Segment (and segment-indexed) addressing runs the software path in
    // both step modes — the §5 outlook engine has no cycle-stepped
    // datapath — so the whole report must be identical by construction.
    let dims = Dims::new(24, 18);
    let frame = test_frame(dims);
    let mut reports = Vec::new();
    for mode in [StepMode::CycleStepped, StepMode::FastForward] {
        let mut cfg = EngineConfig::outlook_v2();
        cfg.step_mode = mode;
        let mut engine = AddressEngine::new(cfg).expect("valid config");
        let run = engine
            .run_segment(
                &frame,
                &[Point::new(12, 9)],
                &HomogeneityCriterion::luma(40),
                vip::core::addressing::segment::SegmentOptions::default(),
            )
            .expect("segment call succeeds");
        reports.push((run, engine.stats()));
    }
    assert_eq!(reports[0].0.result.output, reports[1].0.result.output);
    assert_eq!(reports[0].0.result.segment, reports[1].0.result.segment);
    assert_eq!(reports[0].0.report, reports[1].0.report);
    assert_eq!(reports[0].1, reports[1].1);
    assert_eq!(
        reports[0].0.report.timeline.instants(),
        reports[1].0.report.timeline.instants()
    );
}

#[test]
fn recorded_fast_forward_matches_unrecorded_and_stepped_recording() {
    // Attaching a recorder changes nothing the engine computes, and the
    // fast-forward recording is the stepped recording, byte for byte,
    // also when the timing skeleton is replayed. Every engine makes the
    // same call twice, so its second fast-forward call is served from
    // the skeleton of its first; one fast-forward engine warms its
    // skeleton with an untraced call before the recorder is attached, so
    // both of its recorded calls are replays.
    const TRACE: usize = 16;
    let (config, dims, radius) = random_case(3);
    let frame = test_frame(dims);
    let op = BoxBlur::with_radius(radius).expect("radius ≤ 4");
    let two_calls = |engine: &mut AddressEngine| -> Vec<Observed> {
        (0..2)
            .map(|_| {
                let run = engine
                    .run_intra(&frame, &op)
                    .expect("seed 3 is a clean configuration");
                (run, engine.stats(), bank_words(engine))
            })
            .collect()
    };
    let unrecorded = {
        let mut engine = AddressEngine::new(config.clone()).expect("valid config");
        engine.set_trace_limit(TRACE);
        two_calls(&mut engine)
    };
    let mut traces = Vec::new();
    for (mode, warm) in [
        (StepMode::CycleStepped, false),
        (StepMode::FastForward, false),
        (StepMode::FastForward, true),
    ] {
        let mut engine = AddressEngine::new(with_mode(&config, mode)).expect("valid config");
        engine.set_trace_limit(TRACE);
        if warm {
            engine
                .run_intra(&frame, &op)
                .expect("warm-up call succeeds");
            // Rewinds the virtual clock, so this recording starts where
            // the others do; the skeleton results stay.
            engine.reset_stats();
        }
        let session = vip::engine::Session::new();
        engine.set_recorder(session.recorder());
        for (call, (want, got)) in unrecorded.iter().zip(two_calls(&mut engine)).enumerate() {
            let context = format!("recorded {mode:?} warm={warm} call {call}");
            let snapshots = &got
                .0
                .report
                .processing
                .as_ref()
                .expect("detailed stats")
                .trace;
            assert_eq!(
                snapshots.len(),
                TRACE,
                "{context}: fig. 5 snapshots missing"
            );
            assert_identical(want, &got, &context);
        }
        traces.push(session.finish().to_chrome_json());
    }
    assert!(
        traces[1].contains("\"line_sweep\""),
        "recorded run must emit probe spans"
    );
    assert!(
        traces[0] == traces[1],
        "fast-forward recording diverges from the stepped one"
    );
    assert!(
        traces[0] == traces[2],
        "replayed recording diverges from the stepped one"
    );
}

/// What one datapath-level call hands back: its statistics, its result
/// and the bank traffic it leaves.
type CallOutcome = (ProcessingStats, Frame, ZbtTraffic);

/// Runs one call on both datapaths, each on a fresh ZBT with an enabled
/// probe, and asserts equal verdicts, equal statistics, results and bank
/// traffic, and byte-identical Chrome JSON. Returns whether the call
/// succeeded.
fn assert_datapaths_record_alike(
    config: &EngineConfig,
    context: &str,
    call: impl Fn(StepMode, &mut ZbtMemory, &PuProbe) -> Result<(ProcessingStats, Frame), EngineError>,
) -> bool {
    let mut runs = Vec::new();
    for mode in [StepMode::CycleStepped, StepMode::FastForward] {
        let mut zbt = ZbtMemory::new(config);
        let session = vip::engine::Session::new();
        let probe = PuProbe::new(session.recorder(), 1_000, 1e9 / config.engine_clock.hz);
        let verdict: Result<CallOutcome, EngineError> =
            call(mode, &mut zbt, &probe).map(|(stats, output)| (stats, output, zbt.traffic()));
        runs.push((verdict, session.finish().to_chrome_json()));
    }
    let ((stepped, stepped_json), (fast, fast_json)) = (&runs[0], &runs[1]);
    assert_eq!(
        stepped, fast,
        "{context}: verdicts, statistics, results or bank traffic diverge"
    );
    if stepped_json != fast_json {
        let at = stepped_json
            .bytes()
            .zip(fast_json.bytes())
            .position(|(s, f)| s != f)
            .unwrap_or(stepped_json.len().min(fast_json.len()));
        let from = at.saturating_sub(80);
        panic!(
            "{context}: recordings diverge at byte {at}\n stepped: …{}\n    fast: …{}",
            &stepped_json[from..(at + 80).min(stepped_json.len())],
            &fast_json[from..(at + 80).min(fast_json.len())],
        );
    }
    assert!(
        stepped_json.contains("\"occupancy\""),
        "{context}: empty recording"
    );
    stepped.is_ok()
}

/// The outbound unload of a stepped call: the result read back out of
/// the banks.
fn unload(zbt: &mut ZbtMemory, dims: Dims) -> Result<Frame, EngineError> {
    let total = dims.pixel_count();
    Ok(Frame::from_pixels(
        dims,
        zbt.read_result_run(0, total, total)?,
    )?)
}

/// One intra call of `op` on `frame`, straight on the datapath `mode`
/// selects, as the engine drives it: the stepped datapath loads the
/// frame into `zbt`, clears the counters, runs and unloads the result;
/// the fast-forward one (with no skeleton results yet) replays the
/// skeleton, charges `zbt` the closed-form traffic and takes the
/// software result.
fn intra_on<O: IntraOp>(
    mode: StepMode,
    zbt: &mut ZbtMemory,
    frame: &Frame,
    op: &O,
    config: &EngineConfig,
    trace_limit: usize,
    probe: &PuProbe,
) -> Result<(ProcessingStats, Frame), EngineError> {
    let dims = frame.dims();
    match mode {
        StepMode::CycleStepped => {
            zbt.write_input_run(ZbtRegion::InputA, 0, frame.pixels())?;
            zbt.reset_stats();
            let stats = run_intra_detailed(zbt, dims, op, config, trace_limit, probe)?;
            Ok((stats, unload(zbt, dims)?))
        }
        StepMode::FastForward => {
            let skeletons = &mut Skeletons::new(config.clone());
            let radius = op.shape().radius();
            let stats = run_intra_fast(skeletons, dims, radius, trace_limit, probe)?;
            zbt.charge(&zbt.call_traffic(AddressingMode::Intra, dims));
            Ok((stats, run_intra(frame, op)?.output))
        }
    }
}

/// One inter call of `op` on `a` and `b`, straight on the datapath
/// `mode` selects, as [`intra_on`] drives an intra call.
fn inter_on<O: InterOp>(
    mode: StepMode,
    zbt: &mut ZbtMemory,
    (a, b): (&Frame, &Frame),
    op: &O,
    config: &EngineConfig,
    trace_limit: usize,
    probe: &PuProbe,
) -> Result<(ProcessingStats, Frame), EngineError> {
    let dims = a.dims();
    match mode {
        StepMode::CycleStepped => {
            zbt.write_input_run(ZbtRegion::InputA, 0, a.pixels())?;
            zbt.write_input_run(ZbtRegion::InputB, 0, b.pixels())?;
            zbt.reset_stats();
            let stats = run_inter_detailed(zbt, dims, op, config, trace_limit, probe)?;
            Ok((stats, unload(zbt, dims)?))
        }
        StepMode::FastForward => {
            let skeletons = &mut Skeletons::new(config.clone());
            let stats = run_inter_fast(skeletons, dims, trace_limit, probe)?;
            zbt.charge(&zbt.call_traffic(AddressingMode::Inter, dims));
            Ok((stats, run_inter(a, b, op)?.output))
        }
    }
}

#[test]
fn datapaths_publish_byte_identical_probe_recordings() {
    // Datapath level: `process_unit` and `fast` called directly with the
    // same enabled probe, over every seed of the intra sweep (clean and
    // deadlocking), the inter seeds and the prototype Sobel + AbsDiff pair.
    let mut clean = 0;
    for seed in 0..CONFIGS {
        let (config, dims, radius) = random_case(seed);
        let frame = test_frame(dims);
        let op = BoxBlur::with_radius(radius).expect("radius ≤ 4");
        clean += usize::from(assert_datapaths_record_alike(
            &config,
            &format!("intra seed {seed} {dims:?} r{radius}"),
            |mode, zbt, probe| intra_on(mode, zbt, &frame, &op, &config, 32, probe),
        ));
    }
    assert!(
        clean >= 20,
        "only {clean} clean configurations out of {CONFIGS}"
    );
    assert!(
        CONFIGS as usize - clean >= 10,
        "only {} deadlocks",
        CONFIGS as usize - clean
    );

    for seed in 0..24 {
        let (config, dims, _) = random_case(seed);
        let a = test_frame(dims);
        let b = Frame::from_fn(dims, |p| {
            Pixel::from_luma(((p.x * 5 + p.y * 3 + 17) % 256) as u8)
        });
        assert!(assert_datapaths_record_alike(
            &config,
            &format!("inter seed {seed} {dims:?}"),
            |mode, zbt, probe| inter_on(mode, zbt, (&a, &b), &AbsDiff::luma(), &config, 24, probe),
        ));
    }

    let config = EngineConfig::prototype_detailed();
    let dims = Dims::new(96, 72);
    let a = test_frame(dims);
    let b = Frame::from_fn(dims, |p| {
        Pixel::from_luma(((p.x * 7 + p.y * 13 + 31) % 256) as u8)
    });
    assert!(assert_datapaths_record_alike(
        &config,
        "96x72 sobel",
        |mode, zbt, probe| intra_on(mode, zbt, &a, &SobelGradient::new(), &config, 0, probe),
    ));
    assert!(assert_datapaths_record_alike(
        &config,
        "96x72 absdiff",
        |mode, zbt, probe| inter_on(mode, zbt, (&a, &b), &AbsDiff::luma(), &config, 0, probe),
    ));
}

#[test]
fn inter_chunks_are_unobservable() {
    // The fast-forward inter datapath moves no pixel pairs at all: its
    // result is the software library's and its bank traffic the closed
    // form. At pixel counts with the Res_block_A/B split (ceil(px/2))
    // odd and even, on 1×N and N×1 frames, the stepped datapath must
    // leave that traffic and compute that result.
    let cases = [
        Dims::new(1, 1),
        Dims::new(7, 5),
        Dims::new(1, 2051),
        Dims::new(1029, 1),
        Dims::new(64, 32),
        ImageFormat::Qcif.dims(),
    ];
    let config = EngineConfig::prototype_detailed();
    let op = ChangeMask::new(20);
    for dims in cases {
        let seeded = |seed: u64| {
            let mut rng = vip::video::rng::XorShift64::new(seed);
            Frame::from_fn(dims, |_| Pixel::from_bits(rng.next_u64()))
        };
        let (a, b) = (
            seeded(dims.pixel_count() as u64),
            seeded(!dims.pixel_count() as u64),
        );
        let mut runs = Vec::new();
        for mode in [StepMode::CycleStepped, StepMode::FastForward] {
            let mut zbt = ZbtMemory::new(&config);
            let session = vip::engine::Session::new();
            let probe = PuProbe::new(session.recorder(), 1_000, 1e9 / config.engine_clock.hz);
            let (stats, output) = inter_on(mode, &mut zbt, (&a, &b), &op, &config, 8, &probe)
                .unwrap_or_else(|e| panic!("{dims:?} {mode:?}: {e}"));
            runs.push((
                stats,
                zbt.traffic(),
                output,
                session.finish().to_chrome_json(),
            ));
        }
        let (stepped, fast) = (&runs[0], &runs[1]);
        assert_eq!(stepped.0, fast.0, "{dims:?}: ProcessingStats diverge");
        assert_eq!(
            stepped.1,
            ZbtMemory::new(&config).call_traffic(AddressingMode::Inter, dims),
            "{dims:?}: stepped bank traffic is not the closed form"
        );
        assert_eq!(stepped.1, fast.1, "{dims:?}: bank traffic diverges");
        assert_eq!(stepped.2, fast.2, "{dims:?}: result pixels diverge");
        assert!(stepped.3 == fast.3, "{dims:?}: recordings diverge");
        let software = run_inter(&a, &b, &op)
            .expect("software call succeeds")
            .output;
        assert_eq!(
            stepped.2, software,
            "{dims:?}: stepped result differs from software"
        );
    }
}
