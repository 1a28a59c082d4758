//! Regenerates **Fig. 3**: the ZBT memory distribution — input images in
//! paired banks with alternating strip blocks, result image in
//! sequential-word Res_block_A / Res_block_B — for both frame formats.
//!
//! ```text
//! cargo run -p vip-bench --bin fig3
//! ```

use vip_core::geometry::ImageFormat;
use vip_engine::zbt::ZbtMemory;
use vip_engine::EngineConfig;

fn main() {
    let cfg = EngineConfig::prototype();
    let zbt = ZbtMemory::new(&cfg);

    println!("=================== Fig. 3 — ZBT memory distribution ===================\n");
    for format in [ImageFormat::Qcif, ImageFormat::Cif] {
        let dims = format.dims();
        println!(
            "--- {format} ({dims}, {} kB/image) ---",
            format.bytes() / 1024
        );
        print!("{}", zbt.memory_map(dims, cfg.strip_lines));
        let strips = dims.height / cfg.strip_lines;
        println!(
            "  transfer: {} strips of {} lines, written to alternating blocks;",
            strips, cfg.strip_lines
        );
        println!("  strip in block_A is processed while the next strip lands in block_B (§3.1)\n");
    }

    println!(
        "bank budget: {} words per bank; CIF needs {} words/bank for inputs, {} for results",
        zbt.bank_words(),
        ImageFormat::Cif.dims().pixel_count(),
        ImageFormat::Cif.dims().pixel_count().div_ceil(2) * 2,
    );
    println!(
        "fits: QCIF {}  CIF {}",
        zbt.fits(ImageFormat::Qcif.dims()),
        zbt.fits(ImageFormat::Cif.dims())
    );
}
