//! Regenerates **Fig. 5/6**: the pixel-level controller and Process Unit
//! in action — a cycle-by-cycle stage-occupancy trace of the 4-stage
//! pipeline showing instructions of different pixel-cycles overlapping.
//!
//! ```text
//! cargo run -p vip-bench --bin fig5
//! ```

use vip_core::frame::Frame;
use vip_core::geometry::Dims;
use vip_core::ops::filter::BoxBlur;
use vip_core::pixel::Pixel;
use vip_engine::{AddressEngine, EngineConfig};

fn main() {
    let dims = Dims::new(8, 6);
    let frame = Frame::from_fn(dims, |p| Pixel::from_luma((p.x * 7 + p.y * 3) as u8));

    let mut engine =
        AddressEngine::new(EngineConfig::prototype_detailed()).expect("prototype config is valid");
    engine.set_trace_limit(40);
    let run = engine
        .run_intra(&frame, &BoxBlur::con8())
        .expect("frame fits the ZBT");
    let stats = run.report.processing.expect("detailed mode records stats");

    println!("=========== Fig. 5/6 — PLC + Process Unit pipeline trace ===========\n");
    println!(
        "call: intra CON_8 box blur over {dims} ({} pixels)\n",
        dims.pixel_count()
    );
    println!("cycle | stage1 scan | stage2 fetch | stage3 exec | occupancy");
    println!("------+-------------+--------------+-------------+----------");
    for (cycle, snap) in stats.trace.iter().enumerate() {
        let cell = |s: Option<usize>| match s {
            Some(px) => format!("px#{px:<3}"),
            None => "  —  ".to_string(),
        };
        println!(
            "{cycle:>5} |   {:<9} |   {:<10} |   {:<9} | {}",
            cell(snap.slots[0]),
            cell(snap.slots[1]),
            cell(snap.slots[2]),
            "█".repeat(snap.occupancy())
        );
    }

    println!("\npipeline statistics over the whole call:");
    println!("  total cycles      : {}", stats.cycles);
    println!("  cycles/pixel      : {:.2}", stats.cycles_per_pixel());
    println!("  IIM stalls        : {}", stats.iim_stalls);
    println!("  OIM stalls        : {}", stats.oim_stalls);
    println!(
        "  matrix LOADs      : {} (one per scan line)  SHIFTs: {}",
        stats.matrix_loads, stats.matrix_shifts
    );
    println!("  OIM max occupancy : {} pixels", stats.oim_max_occupancy);
    println!(
        "\ninstructions of different pixel-cycles occupy different stages in the same\n\
         cycle — the start-pipeline overlap of §3.2."
    );
}
