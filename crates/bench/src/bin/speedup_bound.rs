//! Regenerates the **§1 claim**: instruction-level profiling of a video
//! object segmentation algorithm bounds the achievable AddressEngine
//! acceleration at ≈ ×30, with all high-level control remaining on the
//! host CPU.
//!
//! ```text
//! cargo run -p vip-bench --bin speedup_bound
//! ```

use vip_core::geometry::{Dims, ImageFormat};
use vip_profiling::amdahl::{amdahl, SpeedupBound};
use vip_profiling::instr::{CostModel, InstrClass};
use vip_profiling::profile::{profile, segmentation_workload};

fn main() {
    let cif: Dims = ImageFormat::Cif.dims();
    let mix = segmentation_workload(cif);
    let pm = CostModel::pentium_m_xm();
    let p = profile(&mix, &pm);

    println!("====== §1 — instruction profiling of the segmentation workload ======\n");
    println!("per-frame instruction mix (CIF, video object segmentation in the style of [3]):");
    let total_s = p.seconds;
    for class in InstrClass::ALL {
        let count = mix.count(class);
        let secs = pm.seconds(class, count);
        println!(
            "  {class:<14} {count:>12.0} ops  {:>7.2} ms  {:>5.1} % of time",
            secs * 1e3,
            secs / total_s * 100.0
        );
    }
    println!("\n  total modelled frame time: {:.1} ms", total_s * 1e3);
    println!(
        "  address calculation alone: {:.1} % of the runtime — the dominant\n\
         \x20 operation the paper optimises (§1, §6)",
        p.address_fraction * 100.0
    );

    let bound = SpeedupBound::of(&mix, &pm);
    println!(
        "\noffloadable (low-level) fraction f = {:.4}",
        bound.offloadable_fraction
    );
    println!(
        "maximum achievable acceleration 1/(1−f) = ×{:.1}   (paper: ×30)",
        bound.ideal_bound
    );

    println!("\nspeedup vs coprocessor-side acceleration s (Amdahl):");
    println!("  {:>6} {:>10}", "s", "overall");
    for s in [2.0, 4.0, 6.3, 10.0, 30.0, 100.0, 1e6] {
        let overall = amdahl(bound.offloadable_fraction, s);
        let label = if s >= 1e6 {
            "∞".to_string()
        } else {
            format!("{s:.1}")
        };
        println!("  {label:>6} {overall:>9.2}x");
    }
    println!(
        "\nthe measured Table 3 factor of ≈5 corresponds to a coprocessor-side\n\
         speedup of ≈6 on the offloaded part — far below the ×30 ceiling."
    );
}
