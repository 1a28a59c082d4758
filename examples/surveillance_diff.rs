//! Surveillance change detection: the inter-addressing workload the
//! paper's introduction motivates (*"video surveillance cameras"*, §1).
//!
//! A background frame is compared against a current frame with an
//! intruding object; the difference picture is thresholded into the
//! alpha channel (inter call), despeckled (intra call), and the change
//! region is walked with segment addressing to locate the intruder.
//!
//! ```text
//! cargo run -p vip --example surveillance_diff
//! ```

use vip::core::addressing::indexed::accumulate_segment_stats;
use vip::core::addressing::segment::{run_segment, SegmentOptions};
use vip::core::frame::Frame;
use vip::core::geometry::{Dims, Point, Rect};
use vip::core::ops::arith::ChangeMask;
use vip::core::ops::morph::AlphaMajority;
use vip::core::ops::segment_ops::AlphaMaskCriterion;
use vip::core::pixel::Pixel;
use vip::engine::{AddressEngine, EngineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dims = Dims::new(176, 144); // QCIF camera

    // Static background: a noisy car-park texture.
    let background = Frame::from_fn(dims, |p| {
        Pixel::from_luma((60 + (p.x * 13 + p.y * 7) % 40) as u8)
    });

    // Current frame: the same scene with a bright 24×40 "person" plus a
    // couple of single-pixel noise flickers.
    let person = Rect::new(90, 60, 24, 40);
    let mut current = background.clone();
    for p in person.points() {
        current.set(p, Pixel::from_luma(210));
    }
    current.set(Point::new(10, 10), Pixel::from_luma(250)); // noise
    current.set(Point::new(160, 130), Pixel::from_luma(0)); // noise

    let mut engine = AddressEngine::new(EngineConfig::prototype())?;

    // 1. Inter call: difference picture + threshold into alpha.
    let diff = engine.run_inter(&current, &background, &ChangeMask::new(25))?;
    println!("difference picture: {}", diff.report.timeline);

    // 2. Intra call: majority vote removes the single-pixel flickers.
    let cleaned = engine.run_intra(&diff.output, &AlphaMajority::new())?;
    let changed = cleaned
        .output
        .pixels()
        .iter()
        .filter(|p| p.alpha != 0)
        .count();
    println!("changed pixels after despeckle: {changed}");

    // 3. Segment addressing (software AddressLib — the v1 engine defers
    //    this scheme to future versions, §6): walk the change mask from
    //    its first set pixel. The mask holds only alpha 0 and 1 and the
    //    unwalked pixels keep theirs, so the segment is labelled 2.
    let seed = cleaned
        .output
        .enumerate()
        .find(|(_, px)| px.alpha != 0)
        .map(|(p, _)| p)
        .expect("intruder present");
    let segment = run_segment(
        &cleaned.output,
        &[seed],
        &AlphaMaskCriterion::new(),
        SegmentOptions {
            label: 2,
            ..SegmentOptions::default()
        },
    )?;
    println!(
        "intruder segment: {} pixels, geodesic radius {}",
        segment.segment.len(),
        segment.max_distance()
    );

    // 4. Segment-indexed addressing: per-label statistics.
    let stats = accumulate_segment_stats(&segment.output)?;
    let intruder = &stats.as_ref()[2];
    assert_eq!(
        intruder.area as usize,
        segment.segment.len(),
        "label 2 is the walked segment alone"
    );
    println!(
        "bounding box: ({}, {})..({}, {}), {} pixels",
        intruder.min.0, intruder.min.1, intruder.max.0, intruder.max.1, intruder.area
    );
    assert!(
        intruder.area as usize >= person.area() * 8 / 10,
        "most of the intruder found"
    );
    assert!(person.contains(Point::new(intruder.min.0, intruder.min.1)));

    println!(
        "\nengine stats: {} ({} s modelled)",
        engine.stats(),
        engine.stats().busy_seconds
    );
    Ok(())
}
