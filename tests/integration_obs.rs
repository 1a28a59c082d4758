//! Cross-crate observability integration: an instrumented detailed run
//! produces a Perfetto-loadable trace covering every subsystem, the
//! stage-trace events ride the bus in schedule order, and a disabled
//! recorder leaves results and Table 3 numbers untouched.

use vip::core::frame::Frame;
use vip::core::geometry::Dims;
use vip::core::ops::filter::SobelGradient;
use vip::core::pixel::Pixel;
use vip::engine::{AddressEngine, EngineConfig, Phase, Recorder, Session, Track};
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
