//! Regenerates **Fig. 2**: the architecture general diagram — a textual
//! dump of the simulated engine's blocks, their parameters and
//! connectivity, straight from the live configuration.
//!
//! ```text
//! cargo run -p vip-bench --bin fig2
//! ```

use vip_core::geometry::ImageFormat;
use vip_engine::{EngineConfig, ResourceEstimate};

fn main() {
    let cfg = EngineConfig::prototype();
    cfg.validate().expect("prototype is valid");
    let cif = ImageFormat::Cif.dims();

    println!("================== Fig. 2 — AddressEngine architecture ==================");
    println!();
    println!("  PC (host CPU: high-level algorithm, AddressLib call dispatch)");
    println!(
        "    │ interrupt-oriented DMA, {} overhead cycles/call",
        cfg.interrupt_overhead_cycles
    );
    println!("    ▼");
    println!(
        "  PCI bus          {} × {} B  = {:.0} MB/s  ← the system bottleneck (§4.1)",
        cfg.pci_clock,
        cfg.pci_bytes_per_cycle,
        cfg.pci_bandwidth() / 1e6
    );
    println!(
        "    │ strips of {} lines, alternating block_A/block_B",
        cfg.strip_lines
    );
    println!("    ▼");
    println!(
        "  ZBT on-board memory   {} banks × {} words × 32 bit = {} MB",
        cfg.zbt_banks,
        cfg.zbt_bank_words,
        cfg.zbt_bytes() / (1024 * 1024)
    );
    println!("    │ input: lo/hi paired banks (1 cycle/pixel)");
    println!(
        "    │ result: sequential words in Res_block_A/B ({} cycles/pixel)",
        cfg.oim_drain_cycles_per_pixel
    );
    println!("    ▼                                   ▲");
    println!("  TxU (transmission units)            TxU");
    println!("    ▼                                   │");
    println!(
        "  IIM  {} line blocks × 2 BRAM banks   OIM  {} line blocks × 2 BRAM banks",
        cfg.iim_lines, cfg.oim_lines
    );
    println!("    │ whole neighbourhood in 1 cycle     ▲ buffers the 2× write-speed mismatch");
    println!("    ▼                                    │");
    println!("  Process Unit — {} pipeline stages:", cfg.pipeline_stages);
    println!("    stage 1: scan (pixel position counters)");
    println!("    stage 2: LOAD/SHIFT matrix register from IIM");
    println!("    stage 3: execute pixel operation");
    println!("    stage 4: store result pixel to OIM");
    println!("  controlled by the Pixel Level Controller");
    println!("    (control FSM → instructions FSM → arbiter → start-pipeline)");
    println!("  orchestrated by the Image Level Controller (halting, interrupts)");
    println!();
    println!(
        "  capacity check: 2 input + 1 output CIF image = {} kB of {} kB ZBT",
        3 * ImageFormat::Cif.bytes() / 1024,
        cfg.zbt_bytes() / 1024
    );
    println!(
        "  one CIF frame = {} pixels = {} strips of {} lines",
        cif.pixel_count(),
        cif.height / cfg.strip_lines,
        cfg.strip_lines
    );
    println!(
        "  addressing modes: intra ✓  inter ✓  segment {}  (v1: §6 defers segment)",
        if cfg.segment_capable { "✓" } else { "✗" }
    );

    let res = ResourceEstimate::for_config(&cfg);
    println!(
        "\n  synthesis estimate: {} slices, {} BRAMs, fmax {:.1} MHz (Table 1)",
        res.slices, res.brams, res.fmax_mhz
    );
}
