//! Regenerates **Fig. 1**: the pixel-addressing schemes — inter, intra
//! and segment addressing — demonstrated as access traces on a small
//! frame, with the direction of pixel processing.
//!
//! ```text
//! cargo run -p vip-bench --bin fig1
//! ```

use vip_core::addressing::inter::run_inter;
use vip_core::addressing::intra::run_intra;
use vip_core::addressing::segment::{run_segment, SegmentOptions};
use vip_core::frame::Frame;
use vip_core::geometry::{Dims, Point};
use vip_core::ops::arith::AbsDiff;
use vip_core::ops::filter::BoxBlur;
use vip_core::ops::segment_ops::HomogeneityCriterion;
use vip_core::pixel::Pixel;

fn main() {
    let dims = Dims::new(12, 6);

    println!("==================== Fig. 1 — pixel addressing schemes ====================\n");

    // --- Inter addressing: two frames, same position.
    let a = Frame::filled(dims, Pixel::from_luma(100));
    let b = Frame::filled(dims, Pixel::from_luma(60));
    let inter = run_inter(&a, &b, &AbsDiff::luma()).expect("valid frames");
    println!("INTER addressing: result(x,y) = f(frameA(x,y), frameB(x,y))");
    println!("  frames scanned in parallel, row-major →");
    println!(
        "  {} ({} pixels, {} sw accesses)\n",
        inter.report,
        dims.pixel_count(),
        inter.report.counter.total()
    );

    // --- Intra addressing: one frame, neighbourhood window.
    let f = Frame::from_fn(dims, |p| Pixel::from_luma((p.x * 20) as u8));
    let intra = run_intra(&f, &BoxBlur::con8()).expect("valid frame");
    println!("INTRA addressing: result(x,y) = f(window(frame, x, y))");
    println!("  sliding CON_8 window, row-major →, 3 new pixels per step");
    println!("  {}\n", intra.report);

    // --- Segment addressing: expansion in geodesic order.
    let mut seg_frame = Frame::filled(dims, Pixel::from_luma(10));
    for p in [(4, 2), (5, 2), (6, 2), (5, 3), (5, 1), (4, 3), (6, 1)] {
        seg_frame.set(Point::new(p.0, p.1), Pixel::from_luma(200));
    }
    let seg = run_segment(
        &seg_frame,
        &[Point::new(5, 2)],
        &HomogeneityCriterion::luma(20),
        SegmentOptions::default(),
    )
    .expect("valid seeds");
    println!("SEGMENT addressing: expansion from seed (5,2) in geodesic order");
    println!("  visited (point, distance):");
    for s in &seg.segment {
        println!("    {} @ d={}", s.point, s.distance);
    }
    println!("  {}", seg.report);

    // Render the distance field like the figure's arrows.
    println!("\n  geodesic distance field (·=outside segment):");
    for y in 0..dims.height as i32 {
        let row: String = (0..dims.width as i32)
            .map(|x| {
                let px = seg.output.get(Point::new(x, y));
                if px.alpha != 0 {
                    char::from_digit(u32::from(px.aux) % 10, 10).unwrap_or('?')
                } else {
                    '·'
                }
            })
            .collect();
        println!("    {row}");
    }
}
