//! Regenerates **Fig. 4**: the worst-case neighbourhood — maximum size,
//! perpendicular to the scan direction — and demonstrates that the IIM
//! still delivers the whole window in a single memory cycle.
//!
//! A column-major (vertical) scan with a full-width 9-line window is the
//! case the 16-line strip size was chosen for (§3.1). The engine only
//! sweeps row-major, so this harness walks the resident IIM lines column
//! by column and fetches each window straight from the IIM.
//!
//! ```text
//! cargo run -p vip-bench --bin fig4
//! ```

use vip_core::frame::Frame;
use vip_core::geometry::{Dims, Point};
use vip_core::neighborhood::{Connectivity, MAX_LINES};
use vip_core::pixel::Pixel;
use vip_engine::iim::Iim;
use vip_engine::EngineConfig;

fn main() {
    let cfg = EngineConfig::prototype();
    let dims = Dims::new(24, 16);
    let frame = Frame::from_fn(dims, |p| Pixel::from_luma((p.y * 10 + p.x) as u8));

    println!("========== Fig. 4 — worst case: neighbourhood ⊥ scan direction ==========\n");
    println!(
        "max window: {} lines (radius 4) → strip/IIM size {} lines (§3.1: a power of\n\
         two ≥ 9 that divides the image height)\n",
        MAX_LINES, cfg.strip_lines
    );

    // Load the IIM with a full strip of lines.
    let mut iim = Iim::new(cfg.iim_lines, dims.width);
    for l in 0..dims.height.min(cfg.iim_lines) {
        iim.load_line(l, frame.line(l));
    }

    // Sweep column-major (vertical scan) with the 9×9 worst-case window:
    // the window is perpendicular to the scan everywhere.
    let shape = Connectivity::Square(4);
    let mut fetches = 0u64;
    let mut samples = 0usize;
    let lines = cfg.iim_lines.min(dims.height);
    let column_major =
        (0..dims.width).flat_map(|x| (0..lines).map(move |y| Point::new(x as i32, y as i32)));
    for p in column_major {
        let w = iim.fetch_window(p, shape, dims);
        fetches += 1;
        samples += w.len();
    }

    println!("vertical scan over {} pixels with a 9×9 window:", fetches);
    println!("  window fetches     : {}", iim.window_fetches());
    println!(
        "  memory cycles used : {} (exactly one per window)",
        iim.window_fetches()
    );
    println!(
        "  samples delivered  : {samples} ({} per window)",
        samples as u64 / fetches
    );
    assert_eq!(iim.window_fetches(), fetches);

    // Contrast: the software model pays per-pixel loads.
    let call = vip_core::accounting::CallDescriptor::intra(
        shape,
        vip_core::pixel::ChannelSet::Y,
        vip_core::pixel::ChannelSet::Y,
    );
    println!(
        "\nsoftware model for the same window: {} accesses/pixel vs hardware {}",
        call.software_accesses_per_pixel(),
        call.hardware_accesses_per_pixel()
    );
    println!("\nthe whole neighbourhood is obtained in only one cycle, even in the worst");
    println!("case with perpendicular neighbourhood and scan direction (§3.1).");

    // ASCII sketch of the fig. 4 geometry.
    println!("\n  scan ↓ (column-major)     window (9 lines ⊥ scan):");
    for i in 0..5 {
        let marker = if i == 2 {
            "━━━━━━━━━●━━━━━━━━━"
        } else {
            "───────────────────"
        };
        println!("    {}  {}", if i == 2 { "▼" } else { "│" }, marker);
    }
}
