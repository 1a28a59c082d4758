//! Ablations over the AddressEngine design choices DESIGN.md calls out:
//! strip size, OIM drain rate, inter transfer overlap, engine clock and
//! PCI efficiency — evaluated with the call timing model, plus the
//! resource cost of the intermediate memories.
//!
//! ```text
//! cargo run -p vip-bench --bin ablation
//! ```

use vip_core::geometry::ImageFormat;
use vip_engine::config::InterOverlap;
use vip_engine::timing::{inter_timeline, intra_timeline};
use vip_engine::{ClockDomain, EngineConfig, ResourceEstimate};

fn main() {
    let cif = ImageFormat::Cif.dims();
    let base = {
        let mut c = EngineConfig::prototype();
        c.interrupt_overhead_cycles = 0;
        c
    };

    println!("==================== AddressEngine design ablations ====================\n");

    // 1. Strip size: affects the intra processing lead (latency), not the
    //    sustained PCI-bound throughput.
    println!("--- strip / IIM size (intra CON_8 call, CIF) ---");
    println!(
        "{:>6} {:>12} {:>12} {:>8}",
        "lines", "total ms", "nonPCI ms", "BRAMs"
    );
    for lines in [8usize, 16, 32, 64] {
        let mut c = base.clone();
        c.strip_lines = lines;
        c.iim_lines = lines;
        c.oim_lines = lines;
        let t = intra_timeline(cif, 1, &c);
        let r = ResourceEstimate::for_config(&c);
        println!(
            "{lines:>6} {:>12.3} {:>12.3} {:>8}",
            t.total * 1e3,
            t.non_pci() * 1e3,
            r.brams
        );
    }
    println!("  → 16 lines (the paper's choice) already hides the latency; larger IIMs");
    println!("    only cost BRAMs. 8 lines cannot hold the 9-line worst-case window.\n");

    // 2. OIM drain rate: the result-bank write organisation.
    println!("--- result-write organisation (drain cycles/pixel; intra call) ---");
    println!("{:>6} {:>12} {:>12}", "cyc/px", "total ms", "nonPCI ms");
    for drain in [1u64, 2, 4] {
        let mut c = base.clone();
        c.oim_drain_cycles_per_pixel = drain;
        let t = intra_timeline(cif, 1, &c);
        println!(
            "{drain:>6} {:>12.3} {:>12.3}",
            t.total * 1e3,
            t.non_pci() * 1e3
        );
    }
    println!("  → the sequential lo/hi result write (2 cyc/px) is fully hidden behind the");
    println!("    PCI transfers; even 4 cyc/px barely shows. The OIM buffer works.\n");

    // 3. Inter overlap: the \"special inter operations\" of §4.1.
    println!("--- inter transfer/processing overlap (inter call, CIF) ---");
    for (name, mode) in [
        ("sequential (special ops)", InterOverlap::Sequential),
        ("interleaved strips", InterOverlap::Interleaved),
    ] {
        let mut c = base.clone();
        c.inter_overlap = mode;
        let t = inter_timeline(cif, &c);
        println!(
            "  {name:<26} total {:>7.3} ms   non-PCI/in {:>5.1} %",
            t.total * 1e3,
            t.non_pci_of_input() * 100.0
        );
    }
    println!("  → interleaving the two input images removes the 12.5 % overhead.\n");

    // 4. Engine clock: 66 MHz operating point vs the 102 MHz fmax.
    println!("--- engine clock (inter call, CIF) ---");
    for clock in [ClockDomain::engine_66(), ClockDomain::engine_fmax()] {
        let mut c = base.clone();
        c.engine_clock = clock;
        let t = inter_timeline(cif, &c);
        println!(
            "  {:<22} total {:>7.3} ms   non-PCI {:>6.3} ms",
            clock.to_string(),
            t.total * 1e3,
            t.non_pci() * 1e3
        );
    }
    println!("  → running at fmax shrinks only the (small) processing share: the system");
    println!("    is PCI-bound, as §4.1 states — hence the CoreConnect outlook in §4.3.\n");

    // 5. PCI efficiency: what a better bus would buy (the §4.3 outlook).
    println!("--- bus bandwidth (intra call total; 1.0 = ideal 264 MB/s PCI) ---");
    for eff in [0.5, 0.75, 1.0, 2.0, 4.0] {
        let mut c = base.clone();
        // >1 models the on-chip CoreConnect outlook of §4.3.
        c.pci_efficiency = 1.0;
        c.pci_bytes_per_cycle = (4.0 * eff) as usize;
        if c.pci_bytes_per_cycle == 0 {
            c.pci_bytes_per_cycle = 2;
        }
        let t = intra_timeline(cif, 1, &c);
        println!("  {:>4.2}× bandwidth  total {:>7.3} ms", eff, t.total * 1e3);
    }
    println!("  → call time scales almost inversely with bus bandwidth: replacing the PCI");
    println!("    with an on-chip bus (PowerPC + CoreConnect, §4.3) is the right next step.");
}
