//! Cross-crate integration: the paper's tables reproduce (exactly where
//! analytic, in shape where platform-dependent).

use vip::core::accounting::{AccessModel, CallDescriptor};
use vip::core::geometry::{Dims, ImageFormat};
use vip::core::neighborhood::Connectivity;
use vip::core::pixel::ChannelSet;
use vip::engine::timing::{inter_timeline, intra_timeline};
use vip::engine::{EngineConfig, ResourceEstimate};
use vip::profiling::amdahl::SpeedupBound;
use vip::profiling::instr::CostModel;
use vip::profiling::profile::{segmentation_workload, software_call_seconds};

const CIF: Dims = Dims::new(352, 288);

/// Table 1: device utilisation and timing of the prototype.
#[test]
fn table1_device_utilisation() {
    let e = ResourceEstimate::for_config(&EngineConfig::prototype());
    assert_eq!(e.slices, 564);
    assert_eq!(e.flip_flops, 216);
    assert_eq!(e.lut4, 349);
    assert_eq!(e.iobs, 60);
    assert_eq!(e.brams, 29);
    assert_eq!(e.gclks, 1);
    assert!((e.fmax_mhz - 102.208).abs() < 1e-6);
    assert!(e.fits_device());
    assert!(e.meets_clock(66.0));
}

/// Table 2: all four rows reproduce exactly.
#[test]
fn table2_memory_accesses_exact() {
    let rows = [
        (
            CallDescriptor::inter(ChannelSet::Y, ChannelSet::Y),
            304_128u64,
            202_752u64,
            33.3,
        ),
        (
            CallDescriptor::intra(Connectivity::Con0, ChannelSet::Y, ChannelSet::Y),
            202_752,
            202_752,
            0.0,
        ),
        (
            CallDescriptor::intra(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y),
            405_504,
            202_752,
            50.0,
        ),
        (
            CallDescriptor::intra(Connectivity::Con8, ChannelSet::YUV, ChannelSet::YUV),
            608_256,
            202_752,
            200.0,
        ),
    ];
    for (call, sw, hw, saving) in rows {
        let m = AccessModel::for_call(&call, CIF);
        assert_eq!(m.software_accesses, sw, "{call}");
        assert_eq!(m.hardware_accesses, hw, "{call}");
        assert!(
            (m.paper_saving_percent() - saving).abs() < 0.5,
            "{call}: {} vs {saving}",
            m.paper_saving_percent()
        );
    }
}

/// Table 3 shape, via the timing models at full CIF scale: the engine
/// beats the PM software model by roughly ×4–6 for the GME call mix.
#[test]
fn table3_speedup_shape_from_models() {
    let cfg = EngineConfig::prototype();
    let pm = CostModel::pentium_m_xm();

    // The paper's per-sequence call mixes (Table 3 columns).
    let sequences = [
        ("singapore", 4542u64, 3173u64),
        ("dome", 4931, 3404),
        ("pisa", 9294, 6541),
        ("movie", 4070, 3085),
    ];
    let intra_call = CallDescriptor::intra(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y);
    let inter_call = CallDescriptor::inter(ChannelSet::Y, ChannelSet::Y);
    let t_intra_hw = intra_timeline(CIF, 1, &cfg).total;
    let t_inter_hw = inter_timeline(CIF, &cfg).total;
    let t_intra_sw = software_call_seconds(&intra_call, CIF, &pm);
    let t_inter_sw = software_call_seconds(&inter_call, CIF, &pm);

    let mut speedups = Vec::new();
    for (name, intra, inter) in sequences {
        let sw = intra as f64 * t_intra_sw + inter as f64 * t_inter_sw;
        let hw = intra as f64 * t_intra_hw + inter as f64 * t_inter_hw;
        let s = sw / hw;
        // Paper per-sequence speedups: 4.3 / 4.5 / 5.3 / 5.0.
        assert!(s > 3.2 && s < 7.0, "{name}: speedup {s}");
        speedups.push(s);
        // Sanity: absolute times land in the paper's minutes-vs-tens-of-
        // seconds regime.
        assert!(sw > 100.0 && sw < 900.0, "{name}: sw {sw} s");
        assert!(hw > 20.0 && hw < 200.0, "{name}: hw {hw} s");
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    assert!((avg - 5.0).abs() < 1.2, "average speedup {avg} (paper: ≈5)");
}

/// Pisa is about twice the work of the other sequences (Table 3).
#[test]
fn table3_pisa_is_twice_the_work() {
    let calls = [4542 + 3173, 4931 + 3404, 9294 + 6541, 4070 + 3085];
    let pisa = calls[2] as f64;
    for (i, &c) in calls.iter().enumerate() {
        if i != 2 {
            let ratio = pisa / c as f64;
            assert!(ratio > 1.8 && ratio < 2.3, "{ratio}");
        }
    }
}

/// §1: the profiling-based speedup bound of ×30.
#[test]
fn x1_speedup_bound_of_thirty() {
    let mix = segmentation_workload(CIF);
    let bound = SpeedupBound::of(&mix, &CostModel::pentium_m_xm());
    assert!(
        bound.ideal_bound > 24.0 && bound.ideal_bound < 38.0,
        "bound {}",
        bound.ideal_bound
    );
}

/// §4.1: non-PCI overhead of special inter ops ≈ 12.5 % of the inbound
/// transfer time; intra overlaps almost completely.
#[test]
fn x2_pci_overhead() {
    let mut cfg = EngineConfig::prototype();
    cfg.interrupt_overhead_cycles = 0;
    let inter = inter_timeline(CIF, &cfg);
    assert!(
        (inter.non_pci_of_input() - 0.125).abs() < 0.02,
        "{}",
        inter.non_pci_of_input()
    );
    let intra = intra_timeline(CIF, 1, &cfg);
    assert!(
        intra.non_pci_of_input() < 0.05,
        "{}",
        intra.non_pci_of_input()
    );
}

/// §3.1: the ZBT stores two input and one output image of either format.
#[test]
fn zbt_capacity_claims() {
    let cfg = EngineConfig::prototype();
    assert!(cfg.zbt_bytes() >= 2 * ImageFormat::Cif.bytes() + ImageFormat::Cif.bytes());
    assert!(cfg.zbt_bytes() >= 3 * ImageFormat::Qcif.bytes());
}
