//! Cross-crate observability integration: an instrumented detailed run
//! produces a Perfetto-loadable trace covering every subsystem, the
//! stage-trace events ride the bus in schedule order, the PCI/DMA spans
//! and the Process Unit window agree with the call's own schedule
//! instants on every fidelity, and a disabled recorder leaves results
//! and Table 3 numbers untouched.

use vip::core::addressing::segment::SegmentOptions;
use vip::core::frame::Frame;
use vip::core::geometry::{Dims, Point};
use vip::core::ops::arith::AbsDiff;
use vip::core::ops::filter::{BoxBlur, SobelGradient};
use vip::core::ops::segment_ops::HomogeneityCriterion;
use vip::core::pixel::Pixel;
use vip::engine::{
    AddressEngine, EngineConfig, EngineReport, InterOverlap, Phase, Recorder, Recording, Session,
    SimulationFidelity, StepMode, TraceRecord, Track,
};
use vip::gme::{EngineBackend, GmeConfig, SequenceRunner};
use vip::video::TestSequence;

const CIF: Dims = Dims::new(352, 288);

fn cif_frame() -> Frame {
    Frame::from_fn(CIF, |p| {
        Pixel::from_luma(((p.x * 7 + p.y * 13) % 256) as u8)
    })
}

/// A CIF intra Sobel call on the detailed engine emits spans on every
/// hardware subsystem, and the Chrome export names each track.
#[test]
fn cif_intra_sobel_trace_covers_all_subsystems() {
    let session = Session::new();
    let mut engine = AddressEngine::new(EngineConfig::prototype_detailed()).expect("valid config");
    engine.set_recorder(session.recorder());
    engine
        .run_intra(&cif_frame(), &SobelGradient::new())
        .expect("CIF intra call succeeds");
    let recording = session.finish();

    for track in [
        Track::Engine,
        Track::Pci,
        Track::Dma,
        Track::ZbtBank(0),
        Track::Iim,
        Track::Oim,
        Track::Pu,
        Track::Plc,
    ] {
        assert!(
            !recording.on_track(track).is_empty(),
            "no events on {track:?}"
        );
    }

    let json = recording.to_chrome_json();
    assert!(json.starts_with("{\"displayTimeUnit\":\"ns\""));
    for name in ["pci", "dma", "zbt.bank0", "iim", "oim", "pu", "plc"] {
        assert!(
            json.contains(&format!("{{\"name\":\"{name}\"}}")),
            "chrome JSON lacks thread_name metadata for `{name}`"
        );
    }
    // Spans (complete events) are present for the hardware path.
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"name\":\"strip_in\""));
    assert!(json.contains("\"name\":\"processing\""));
    assert!(json.contains("\"name\":\"bank_active\""));
}

/// The seven stage-trace kinds appear as instants on the engine track,
/// in schedule order.
#[test]
fn stage_trace_events_ride_the_bus_in_schedule_order() {
    let session = Session::new();
    let mut engine = AddressEngine::new(EngineConfig::prototype()).expect("valid config");
    engine.set_recorder(session.recorder());
    engine
        .run_intra(&cif_frame(), &SobelGradient::new())
        .expect("CIF intra call succeeds");
    let recording = session.finish();

    let instants: Vec<&vip::engine::TraceRecord> = recording
        .on_track(Track::Engine)
        .into_iter()
        .filter(|e| matches!(e.phase, Phase::Instant))
        .collect();
    let names: Vec<&str> = instants.iter().map(|e| e.name).collect();
    // Output DMA overlaps the processing tail on the prototype schedule
    // (results stream out while the OIM drains), so `output_dma_started`
    // lands before `processing_completed`.
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
        ],
        "stage-trace instants missing or out of schedule order"
    );
    assert!(
        instants.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "instants must be timestamp-sorted"
    );
}

/// A disabled recorder records nothing, and attaching a live recorder
/// does not perturb the modelled numbers that feed Table 3.
#[test]
fn disabled_recorder_is_silent_and_table3_numbers_are_unchanged() {
    // Explicitly disabled recorder: the session buffer stays empty.
    let session = Session::new();
    let mut engine = AddressEngine::new(EngineConfig::prototype()).expect("valid config");
    engine.set_recorder(Recorder::disabled());
    engine
        .run_intra(&cif_frame(), &SobelGradient::new())
        .expect("CIF intra call succeeds");
    assert!(!engine.recorder().is_enabled());
    assert_eq!(session.finish().len(), 0, "disabled recorder leaked events");

    // Same GME run with and without a recorder: identical Table 3 inputs.
    let seq = TestSequence::singapore().scaled(88, 72, 5);

    let runner = SequenceRunner::new(GmeConfig::default());
    let mut plain = EngineBackend::prototype();
    let baseline = runner.run(seq.frames(), &mut plain).expect("gme run");

    let session = Session::new();
    let runner = SequenceRunner::new(GmeConfig::default()).with_recorder(session.recorder());
    let mut observed = EngineBackend::prototype();
    observed.engine_mut().set_recorder(session.recorder());
    let traced = runner.run(seq.frames(), &mut observed).expect("gme run");
    assert!(!session.finish().is_empty(), "recorder captured the run");

    assert_eq!(baseline.frames, traced.frames);
    assert_eq!(baseline.tally, traced.tally);
    assert_eq!(baseline.pm_seconds, traced.pm_seconds);
    assert_eq!(baseline.backend_seconds, traced.backend_seconds);
    assert_eq!(baseline.records.len(), traced.records.len());
    for (a, b) in baseline.records.iter().zip(&traced.records) {
        assert_eq!(a.relative.translation_part(), b.relative.translation_part());
    }
}

/// Frame sizes of the schedule checks: CIF, QCIF and its quarters, and
/// edge sizes with strip remainders, single columns and a single pixel.
const SCHEDULE_DIMS: [(usize, usize); 8] = [
    (352, 288),
    (176, 144),
    (88, 72),
    (22, 18),
    (33, 17),
    (7, 5),
    (1, 9),
    (1, 1),
];

/// One traced call shape: intra Sobel, intra radius-4 box blur, inter
/// absolute difference under the given overlap mode, or a segment call
/// (on the §5 outlook engine).
#[derive(Debug, Clone, Copy)]
enum Call {
    Sobel,
    BoxBlur4,
    AbsDiff(InterOverlap),
    Segment,
}

const CALLS: [Call; 4] = [
    Call::Sobel,
    Call::BoxBlur4,
    Call::AbsDiff(InterOverlap::Sequential),
    Call::AbsDiff(InterOverlap::Interleaved),
];

fn config(fidelity: SimulationFidelity, step_mode: StepMode, call: Call) -> EngineConfig {
    let mut config = match call {
        Call::Segment => EngineConfig::outlook_v2(),
        _ => EngineConfig::prototype(),
    };
    config.fidelity = fidelity;
    config.step_mode = step_mode;
    if let Call::AbsDiff(overlap) = call {
        config.inter_overlap = overlap;
    }
    config
}

/// Runs one traced call on a fresh engine.
fn traced(config: &EngineConfig, call: Call, dims: Dims) -> (EngineReport, Recording) {
    let a = Frame::from_fn(dims, |p| {
        Pixel::from_luma(((p.x * 7 + p.y * 13) % 256) as u8)
    });
    let b = Frame::from_fn(dims, |p| {
        Pixel::from_luma(((p.x * 5 + p.y * 3 + 31) % 256) as u8)
    });
    let session = Session::new();
    let mut engine = AddressEngine::new(config.clone()).expect("valid config");
    engine.set_recorder(session.recorder());
    let report = match call {
        Call::Sobel => engine
            .run_intra(&a, &SobelGradient::new())
            .map(|r| r.report),
        Call::BoxBlur4 => engine
            .run_intra(&a, &BoxBlur::with_radius(4).expect("radius 4"))
            .map(|r| r.report),
        Call::AbsDiff(_) => engine.run_inter(&a, &b, &AbsDiff::luma()).map(|r| r.report),
        Call::Segment => engine
            .run_segment(
                &a,
                &[Point::new(dims.width as i32 / 2, dims.height as i32 / 2)],
                &HomogeneityCriterion::luma(40),
                SegmentOptions::default(),
            )
            .map(|r| r.report),
    }
    .unwrap_or_else(|e| panic!("{call:?} on {dims:?}: {e}"));
    (report, session.finish())
}

/// The call's engine-track span, `[start, end]` in nanoseconds.
fn call_span(recording: &Recording) -> (u64, u64) {
    let span = recording
        .on_track(Track::Engine)
        .into_iter()
        .find(|e| matches!(e.phase, Phase::Complete { .. }))
        .expect("call span on the engine track");
    (span.ts_ns, span.end_ns())
}

fn named<'a>(recording: &'a Recording, track: Track, name: &str) -> Vec<&'a TraceRecord> {
    recording
        .on_track(track)
        .into_iter()
        .filter(|e| e.name == name)
        .collect()
}

fn instant(recording: &Recording, name: &str) -> u64 {
    let found = named(recording, Track::Engine, name);
    assert_eq!(found.len(), 1, "instant `{name}`");
    found[0].ts_ns
}

fn bytes(spans: &[&TraceRecord]) -> u64 {
    spans
        .iter()
        .map(|e| match e.args.iter().find(|(k, _)| *k == "bytes") {
            Some((_, vip::obs::AttrValue::U64(b))) => *b,
            other => panic!("`{}` bytes arg: {other:?}", e.name),
        })
        .sum()
}

/// The PCI strip and result spans and the DMA phases of a traced call
/// are drawn from the call's own schedule: the first strip starts at
/// `input_dma_started`, the last ends at `input_dma_completed`, the first
/// result half starts at `output_dma_started` and the last ends at
/// `output_dma_completed`; strips and halves are contiguous, carry one
/// frame per input image and one result frame, and stay inside the call.
/// A segment call on the outlook engine moves each frame whole, as one
/// `frame_in` and one `frame_out` span on the same instants.
#[test]
fn pci_and_dma_spans_agree_with_the_schedule_instants() {
    let modes = [
        (SimulationFidelity::Analytic, StepMode::FastForward),
        (SimulationFidelity::Detailed, StepMode::FastForward),
        (SimulationFidelity::Detailed, StepMode::CycleStepped),
    ];
    let cases: Vec<_> = SCHEDULE_DIMS
        .iter()
        .flat_map(|&(w, h)| {
            modes.iter().flat_map(move |&mode| {
                CALLS
                    .iter()
                    .chain([&Call::Segment])
                    .map(move |&call| (Dims::new(w, h), mode, call))
            })
        })
        .collect();
    vip::par::map_indexed(cases.len(), vip::par::default_threads(), |i| {
        let (dims, (fidelity, step_mode), call) = cases[i];
        let context = format!("{call:?} {dims:?} {fidelity:?} {step_mode:?}");
        let (_, r) = traced(&config(fidelity, step_mode, call), call, dims);

        let (strip_name, half_name, half_count) = match call {
            Call::Segment => ("frame_in", "frame_out", 1),
            _ => ("strip_in", "result_out", 2),
        };
        let strips = named(&r, Track::Pci, strip_name);
        let halves = named(&r, Track::Pci, half_name);
        assert!(!strips.is_empty(), "{context}: no strips");
        assert_eq!(halves.len(), half_count, "{context}: result halves");
        let (first, last) = (strips[0], strips[strips.len() - 1]);
        let (out_first, out_last) = (halves[0], halves[halves.len() - 1]);
        assert_eq!(first.ts_ns, instant(&r, "input_dma_started"), "{context}");
        assert_eq!(
            last.end_ns(),
            instant(&r, "input_dma_completed"),
            "{context}"
        );
        assert_eq!(
            out_first.ts_ns,
            instant(&r, "output_dma_started"),
            "{context}"
        );
        assert_eq!(
            out_last.end_ns(),
            instant(&r, "output_dma_completed"),
            "{context}"
        );
        for pair in strips.windows(2).chain(halves.windows(2)) {
            assert_eq!(pair[1].ts_ns, pair[0].end_ns(), "{context}: gap on the bus");
        }

        let frame_bytes = dims.pixel_count() as u64 * 8;
        let images = if matches!(call, Call::AbsDiff(_)) {
            2
        } else {
            1
        };
        assert_eq!(
            bytes(&strips),
            images * frame_bytes,
            "{context}: strip bytes"
        );
        assert_eq!(bytes(&halves), frame_bytes, "{context}: result bytes");

        let input = named(&r, Track::Dma, "input_dma");
        let output = named(&r, Track::Dma, "output_dma");
        assert_eq!(
            (input[0].ts_ns, input[0].end_ns()),
            (first.ts_ns, last.end_ns())
        );
        assert_eq!(
            (output[0].ts_ns, output[0].end_ns()),
            (out_first.ts_ns, out_last.end_ns())
        );

        let (start, end) = call_span(&r);
        for e in r.on_track(Track::Pci).iter().chain(&r.on_track(Track::Dma)) {
            assert!(
                start <= e.ts_ns && e.end_ns() <= end,
                "{context}: `{}` [{}, {}] outside the call [{start}, {end}]",
                e.name,
                e.ts_ns,
                e.end_ns()
            );
        }
    });
}

/// The detailed Process Unit window sits inside the analytic call: the
/// `processing` span starts at the timeline's processing origin (first
/// strip landed; both images resident for sequential inter; first strip
/// pair for interleaved inter) and ends inside the call span, on both
/// step modes.
#[test]
fn pu_window_starts_at_the_processing_origin_inside_the_call() {
    let cases: Vec<_> = SCHEDULE_DIMS
        .iter()
        .flat_map(|&(w, h)| {
            [StepMode::FastForward, StepMode::CycleStepped]
                .into_iter()
                .flat_map(move |mode| CALLS.iter().map(move |&call| (Dims::new(w, h), mode, call)))
        })
        .collect();
    vip::par::map_indexed(cases.len(), vip::par::default_threads(), |i| {
        let (dims, step_mode, call) = cases[i];
        let context = format!("{call:?} {dims:?} {step_mode:?}");
        let config = config(SimulationFidelity::Detailed, step_mode, call);
        let (report, r) = traced(&config, call, dims);
        let (start, end) = call_span(&r);
        let origin = report.timeline.processing_origin(dims, &config);
        let pu = named(&r, Track::Pu, "processing");
        assert_eq!(pu.len(), 1, "{context}: processing spans");
        assert_eq!(
            pu[0].ts_ns,
            start + vip::engine::timing::seconds_to_ns(origin),
            "{context}: PU cycle 0 is not the processing origin"
        );
        assert!(
            pu[0].end_ns() <= end,
            "{context}: PU window ends at {} after the call's end {end}",
            pu[0].end_ns()
        );
    });
}
