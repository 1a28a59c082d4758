//! Profiling AddressLib workloads: deriving instruction mixes and
//! modelled software runtimes from call descriptors.
//!
//! This is the software-side counterpart of the engine's timing model:
//! [`software_call_seconds`] produces the "Time in PM" column of
//! Table 3, and [`segmentation_workload`] reproduces the instruction
//! profile of the video-object-segmentation algorithm (\[3\]) behind the
//! paper's ×30 estimate.

use vip_core::accounting::{AddressingMode, CallDescriptor};
use vip_core::geometry::Dims;
use vip_core::neighborhood::Connectivity;
use vip_core::pixel::ChannelSet;

use crate::instr::{CostModel, InstrMix};

/// The per-pixel instruction mix of one AddressLib call in the generic
/// software implementation.
///
/// Every memory access of the Table 2 software model is preceded by one
/// structured address calculation (the AddressLib machinery the paper
/// identifies as dominant); the kernel adds roughly one arithmetic
/// operation per window sample plus loop bookkeeping.
#[must_use]
pub fn call_mix_per_pixel(call: &CallDescriptor) -> InstrMix {
    let accesses = call.software_accesses_per_pixel() as f64;
    let window = call.shape.offset_count() as f64;
    let frames = if call.mode == AddressingMode::Inter {
        2.0
    } else {
        1.0
    };
    InstrMix {
        address_calc: accesses,
        memory_access: accesses,
        pixel_arith: window.max(frames) + 2.0,
        loop_control: 2.0,
        // Per-pixel share of the per-call orchestration is negligible;
        // high-level work is added per call, not per pixel.
        high_level: 0.0,
    }
}

/// The whole-call instruction mix over a frame of `dims`, including the
/// per-call high-level orchestration (DMA setup, parameter marshalling).
#[must_use]
pub fn call_mix(call: &CallDescriptor, dims: Dims) -> InstrMix {
    let mut mix = call_mix_per_pixel(call).scaled(dims.pixel_count() as f64);
    // Per-call host-side orchestration: a few thousand high-level ops.
    mix.high_level += 4_000.0;
    mix
}

/// Modelled software seconds of one AddressLib call on `model`.
#[must_use]
pub fn software_call_seconds(call: &CallDescriptor, dims: Dims, model: &CostModel) -> f64 {
    call_mix(call, dims).seconds(model)
}

/// The representative per-frame workload of the video-object-segmentation
/// algorithm of \[3\] (a CIF frame): morphological pre-processing,
/// gradients, difference pictures, segment expansion and the high-level
/// control that stays on the CPU.
///
/// The class shares reproduce the published profiling result: low-level
/// pixel work (dominated by address calculation) accounts for ≈ 29/30 of
/// the runtime, bounding the coprocessor speedup at ≈ ×30 (§1).
#[must_use]
pub fn segmentation_workload(dims: Dims) -> InstrMix {
    let px = dims.pixel_count() as f64;
    let mut mix = InstrMix::default();

    // Pre-filtering: two CON_8 smoothing passes.
    let smooth = CallDescriptor::intra(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y);
    mix.add(&call_mix_per_pixel(&smooth).scaled(2.0 * px));
    // Morphological gradient: dilate + erode + subtract.
    mix.add(&call_mix_per_pixel(&smooth).scaled(2.0 * px));
    let diff = CallDescriptor::inter(ChannelSet::Y, ChannelSet::Y);
    mix.add(&call_mix_per_pixel(&diff).scaled(px));
    // Chrominance homogeneity checks: a YUV CON_8 pass.
    let yuv = CallDescriptor::intra(Connectivity::Con8, ChannelSet::YUV, ChannelSet::YUV);
    mix.add(&call_mix_per_pixel(&yuv).scaled(px));
    // Segment expansion over ≈ 60 % of the frame with CON_4 tests.
    let seg = CallDescriptor::segment(
        Connectivity::Con4,
        ChannelSet::Y,
        ChannelSet::ALPHA.union(ChannelSet::AUX),
    );
    mix.add(&call_mix_per_pixel(&seg).scaled(0.6 * px));

    // High-level control that cannot be offloaded: region-merging
    // decisions on the region adjacency graph, label management and
    // parameter updates — calibrated to the published profile of \[3\]
    // (≈ 147 host cycles per pixel, i.e. 1/30 of the total runtime).
    mix.high_level += 7.3 * px;
    mix
}

/// Summary of a profiled workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Total modelled seconds.
    pub seconds: f64,
    /// Time fraction in offloadable (low-level) classes.
    pub offloadable_fraction: f64,
    /// Time fraction in address calculation alone.
    pub address_fraction: f64,
}

/// Profiles a workload mix under a cost model.
#[must_use]
pub fn profile(mix: &InstrMix, model: &CostModel) -> WorkloadProfile {
    WorkloadProfile {
        seconds: mix.seconds(model),
        offloadable_fraction: mix.offloadable_fraction(model),
        address_fraction: mix.address_fraction(model),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::geometry::ImageFormat;

    const CIF: Dims = Dims::new(352, 288);

    #[test]
    fn intra_con8_call_time_matches_table3_anchor() {
        // ≈ 35–45 ms per CIF CON_8 call on the PM model.
        let call = CallDescriptor::intra(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y);
        let t = software_call_seconds(&call, CIF, &CostModel::pentium_m_xm());
        assert!(t > 0.030 && t < 0.048, "{t}");
    }

    #[test]
    fn inter_call_cheaper_than_con8_intra() {
        let intra = CallDescriptor::intra(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y);
        let inter = CallDescriptor::inter(ChannelSet::Y, ChannelSet::Y);
        let m = CostModel::pentium_m_xm();
        let ti = software_call_seconds(&intra, CIF, &m);
        let te = software_call_seconds(&inter, CIF, &m);
        assert!(te < ti);
        assert!(te > 0.015, "{te}");
    }

    #[test]
    fn software_time_scales_with_frame_size() {
        let call = CallDescriptor::intra(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y);
        let m = CostModel::pentium_m_xm();
        let cif = software_call_seconds(&call, CIF, &m);
        let qcif = software_call_seconds(&call, ImageFormat::Qcif.dims(), &m);
        let ratio = cif / qcif;
        assert!(ratio > 3.5 && ratio < 4.1, "{ratio}");
    }

    #[test]
    fn address_calculation_dominates_per_pixel_mix() {
        // The paper's core observation (§1, §6).
        let call = CallDescriptor::intra(Connectivity::Con8, ChannelSet::YUV, ChannelSet::YUV);
        let mix = call_mix_per_pixel(&call);
        let m = CostModel::pentium_m_xm();
        assert!(
            mix.address_fraction(&m) > 0.5,
            "{}",
            mix.address_fraction(&m)
        );
    }

    #[test]
    fn segmentation_workload_is_mostly_offloadable() {
        let mix = segmentation_workload(CIF);
        let p = profile(&mix, &CostModel::pentium_m_xm());
        // §1: the ×30 bound ⇒ ≈ 96.7 % of the time is offloadable.
        assert!(
            p.offloadable_fraction > 0.95 && p.offloadable_fraction < 0.985,
            "offloadable {}",
            p.offloadable_fraction
        );
        assert!(p.address_fraction > 0.45, "address {}", p.address_fraction);
        assert!(p.seconds > 0.0);
    }

    #[test]
    fn call_mix_includes_per_call_overhead() {
        let call = CallDescriptor::inter(ChannelSet::Y, ChannelSet::Y);
        let mix = call_mix(&call, Dims::new(8, 8));
        assert!(mix.high_level > 0.0);
        let per_px = call_mix_per_pixel(&call);
        assert_eq!(per_px.high_level, 0.0);
    }
}
