//! The §5 outlook, executably: segment addressing on the v2 engine and
//! dynamic partial reconfiguration of the pixel-processing block, with a
//! break-even analysis of kernel swapping vs host fallback.
//!
//! ```text
//! cargo run -p vip-bench --bin outlook
//! ```

use vip_core::accounting::CallDescriptor;
use vip_core::addressing::segment::SegmentOptions;
use vip_core::frame::Frame;
use vip_core::geometry::{Dims, ImageFormat, Point};
use vip_core::neighborhood::Connectivity;
use vip_core::ops::filter::{Binomial3, SobelGradient};
use vip_core::ops::morph::{Dilate, Erode};
use vip_core::ops::segment_ops::HomogeneityCriterion;
use vip_core::pixel::{ChannelSet, Pixel};
use vip_engine::reconfig::{ReconfigConfig, ReconfigurableEngine};
use vip_engine::{AddressEngine, EngineConfig};
use vip_profiling::instr::CostModel;
use vip_profiling::profile::software_call_seconds;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("======================= §5 outlook experiments =======================\n");

    // --- 1. Segment addressing on the engine (v2 capability).
    println!("--- segment addressing on the engine ---");
    let dims = Dims::new(176, 144);
    let frame = Frame::from_fn(dims, |p| {
        Pixel::from_luma(if (p.x - 88).pow(2) + (p.y - 72).pow(2) < 2500 {
            200
        } else {
            40
        })
    });
    let mut v1 = AddressEngine::new(EngineConfig::prototype())?;
    let rejected = v1
        .run_segment(
            &frame,
            &[Point::new(88, 72)],
            &HomogeneityCriterion::luma(15),
            SegmentOptions::default(),
        )
        .is_err();
    println!("  v1 prototype rejects segment calls: {rejected}");

    let mut v2 = AddressEngine::new(EngineConfig::outlook_v2())?;
    let run = v2.run_segment(
        &frame,
        &[Point::new(88, 72)],
        &HomogeneityCriterion::luma(15),
        SegmentOptions::default(),
    )?;
    println!(
        "  v2 engine grows the disc: {} pixels in {:.3} ms (radius {})",
        run.result.segment.len(),
        run.report.timeline.total * 1e3,
        run.result.max_distance()
    );

    // --- 2. Dynamic partial reconfiguration of the processing block.
    println!("\n--- dynamic partial reconfiguration ---");
    let icap = ReconfigConfig::virtex2_icap();
    println!(
        "  ICAP model: {} kB partial bitstream at {:.0} MB/s + {:.1} µs setup → {:.3} ms/swap",
        icap.bitstream_bytes / 1024,
        icap.port_bandwidth / 1e6,
        icap.setup_seconds * 1e6,
        icap.reconfiguration_seconds() * 1e3
    );

    let mut engine = ReconfigurableEngine::new(EngineConfig::prototype(), icap)?;
    let cif = Frame::filled(ImageFormat::Cif.dims(), Pixel::from_luma(90));

    // A segmentation-style kernel schedule: smooth, gradient, then a
    // morphological open (erode+dilate), alternating per frame.
    println!("\n  kernel schedule over 4 synthetic frames:");
    println!(
        "  {:>5} {:<14} {:>12} {:>12} {:>8}",
        "call", "kernel", "reconf ms", "total ms", "slot"
    );
    for frame_no in 0..4 {
        for i in 0..4 {
            let (name, r) = match i {
                0 => ("binomial3", engine.run_intra(&cif, &Binomial3::new())?),
                1 => ("sobel", engine.run_intra(&cif, &SobelGradient::new())?),
                2 => ("erode", engine.run_intra(&cif, &Erode::con8())?),
                _ => ("dilate", engine.run_intra(&cif, &Dilate::con8())?),
            };
            println!(
                "  {:>5} {:<14} {:>12.3} {:>12.3} {:>8}",
                frame_no * 4 + i,
                name,
                r.reconfiguration_seconds * 1e3,
                r.total_seconds * 1e3,
                engine.loaded_kernel().unwrap_or("-")
            );
        }
    }
    let stats = engine.stats();
    println!(
        "\n  {} calls, {} reconfigurations (hit rate {:.0} %), overhead {:.1} % of total time",
        stats.calls,
        stats.reconfigurations,
        stats.hit_rate() * 100.0,
        stats.overhead_fraction() * 100.0
    );

    // --- 3. Break-even: when does loading a kernel beat host fallback?
    println!("\n--- break-even: reconfigure vs run on the host CPU ---");
    let pm = CostModel::pentium_m_xm();
    let intra = CallDescriptor::intra(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y);
    let sw_call = software_call_seconds(&intra, ImageFormat::Cif.dims(), &pm);
    let hw_call =
        vip_engine::timing::intra_timeline(ImageFormat::Cif.dims(), 1, engine.engine().config())
            .total;
    let breakeven = engine.break_even_calls(hw_call, sw_call);
    println!(
        "  CIF CON_8 intra: host {:.1} ms vs engine {:.1} ms per call",
        sw_call * 1e3,
        hw_call * 1e3
    );
    println!(
        "  one {:.2} ms kernel swap amortises after {} call(s) → swap aggressively",
        icap.reconfiguration_seconds() * 1e3,
        breakeven.map_or("∞".to_string(), |n| n.to_string())
    );
    Ok(())
}
