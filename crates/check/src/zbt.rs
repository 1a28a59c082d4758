//! Static verification of the six-bank ZBT access schedule (§3.1, fig. 3).
//!
//! The fig. 3 memory distribution gives every concurrent agent its own
//! banks: the inbound DMA writes and the Process Unit reads share the
//! paired input banks (0+1 and 2+3, lo/hi words at the same address),
//! while the OIM drain and the outbound DMA share the sequential result
//! banks (4 and 5). Conflict freedom therefore decomposes into
//!
//! * **map disjointness** ([`check_bank_map`]) — no two regions claim
//!   the same bank, and every claimed bank exists,
//! * **capacity** ([`check_capacity`]) — the frame fits each region,
//! * **input-port duty** ([`check_input_duty`]) — the single
//!   read/write port of each input bank can serve the inbound DMA's
//!   alternate-block strip writes *and* the transmission-unit reads in
//!   the same steady-state cycle budget (§3.1 sizes the prototype at
//!   exactly one DMA word + one read access per two-cycle pixel slot),
//! * **drain/DMA ordering** ([`check_output_overtake`]) — the outbound
//!   DMA's read pointer never overtakes the OIM drain's write pointer
//!   on the result banks, so the PC always receives finished pixels.
//!
//! The map and capacity checks read the engine's own bank map and fit
//! predicate ([`ZbtMemory::memory_map`], [`ZbtMemory::fits`]), so the
//! checker proves properties of the memory the simulator runs.

use vip_engine::zbt::ZbtMemory;

use crate::schedule::{timeline_of, DrainModel};
use crate::witness::{CallKind, Scenario};
use crate::Violation;

/// Verifies that the engine's fig. 3 bank map
/// ([`ZbtMemory::memory_map`]) is disjoint and within the configured
/// bank count.
#[must_use]
pub fn check_bank_map(s: &Scenario) -> Vec<Violation> {
    let mut out = Vec::new();
    let map = ZbtMemory::new(&s.config).memory_map(s.dims, s.config.strip_lines);
    for (i, a) in map.regions.iter().enumerate() {
        let (first, last) = a.banks;
        if last >= s.config.zbt_banks {
            out.push(Violation {
                check: "zbt.bank_range",
                message: format!(
                    "region {} claims bank {last} but the configuration has only {} banks",
                    a.name, s.config.zbt_banks
                ),
                witness: s.witness(),
            });
        }
        for b in &map.regions[i + 1..] {
            let (f2, l2) = b.banks;
            if first <= l2 && f2 <= last {
                out.push(Violation {
                    check: "zbt.bank_overlap",
                    message: format!(
                        "regions {} and {} overlap on banks {}..={} — concurrent DMA \
                         writes and Process-Unit reads would collide on one port",
                        a.name,
                        b.name,
                        first.max(f2),
                        last.min(l2)
                    ),
                    witness: s.witness(),
                });
            }
        }
    }
    out
}

/// Verifies that the scenario's frame fits every region of the bank map,
/// by the engine's own predicate ([`ZbtMemory::fits`]).
#[must_use]
pub fn check_capacity(s: &Scenario) -> Vec<Violation> {
    let zbt = ZbtMemory::new(&s.config);
    if zbt.fits(s.dims) {
        return Vec::new();
    }
    let px = s.dims.pixel_count();
    let map = zbt.memory_map(s.dims, s.config.strip_lines);
    let needed = map
        .regions
        .iter()
        .map(|r| r.words_per_bank)
        .max()
        .unwrap_or(0);
    vec![Violation {
        check: "zbt.capacity",
        message: format!(
            "{px}-pixel frame needs up to {needed} words in one bank of the fig. 3 map, \
             but each bank holds {} words",
            zbt.bank_words()
        ),
        witness: s.witness(),
    }]
}

/// Verifies the steady-state port duty on the paired input banks: the
/// inbound DMA sustains `pci_bandwidth / 8` pixel writes per second
/// (one port cycle each, both banks in parallel) while the transmission
/// unit reads one pixel per produced pixel — one port cycle every
/// `oim_drain_cycles_per_pixel` engine cycles in the drain-governed
/// steady state. Both shares must fit one access per engine cycle.
///
/// Only addressing modes that overlap the inbound DMA with processing
/// are checked (intra strips, and inter in interleaved mode); sequential
/// inter and segment calls start processing after the input completed.
#[must_use]
pub fn check_input_duty(s: &Scenario) -> Vec<Violation> {
    let overlapped = match s.mode {
        CallKind::Intra { .. } => true,
        CallKind::Inter => s.config.inter_overlap == vip_engine::config::InterOverlap::Interleaved,
        CallKind::Segment { .. } | CallKind::SegmentIndexed { .. } => false,
    };
    if !overlapped {
        return Vec::new();
    }
    let engine_hz = s.config.engine_clock.hz;
    let d = s.config.oim_drain_cycles_per_pixel.max(1) as f64;
    let dma_duty = (s.config.pci_bandwidth() / 8.0) / engine_hz;
    let pu_duty = 1.0 / d;
    let total = dma_duty + pu_duty;
    if total > 1.0 + 1e-9 {
        vec![Violation {
            check: "zbt.input_port_duty",
            message: format!(
                "input-bank port oversubscribed: DMA duty {dma_duty:.3} + \
                 Process-Unit read duty {pu_duty:.3} = {total:.3} accesses per engine \
                 cycle (> 1 port access, §3.1)"
            ),
            witness: s.witness(),
        }]
    } else {
        Vec::new()
    }
}

/// Verifies the §3.1 result-bank ordering guarantee: the outbound DMA,
/// started at the `output_latency_fraction` gate, never reads a result
/// pixel before the OIM drain has written it. The safety margin
/// `m(k) = output_start + (k−1)·r_out − D(k)` is concave in `k`
/// (affine minus a convex max of affines), so checking the first and
/// last drained pixel is exact for the whole call.
#[must_use]
pub fn check_output_overtake(s: &Scenario) -> Vec<Violation> {
    let model = DrainModel::of(s);
    let n = model.drained_pixels;
    if n < 1.0 {
        return Vec::new();
    }
    let t = timeline_of(s);
    let r_out = t.output_pci / t.pixels.max(1) as f64;
    let eps = 1e-12 + t.total.abs() * 1e-9;
    let mut out = Vec::new();
    for k in [1.0, n] {
        let dma_reads_at = t.output_start + (k - 1.0) * r_out;
        let drained_at = model.drained_at(k);
        if dma_reads_at + eps < drained_at {
            out.push(Violation {
                check: "zbt.output_overtake",
                message: format!(
                    "outbound DMA reads result pixel {k:.0} at {dma_reads_at:.9e} s but \
                     the OIM drain only writes it at {drained_at:.9e} s — the PC would \
                     receive unfinished data (§3.1 ordering)"
                ),
                witness: s.witness(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::geometry::Dims;
    use vip_engine::config::{EngineConfig, InterOverlap};

    fn proto(dims: Dims, mode: CallKind) -> Scenario {
        Scenario::new("prototype", EngineConfig::prototype(), dims, mode)
    }

    #[test]
    fn prototype_map_is_disjoint_and_in_range() {
        let s = proto(Dims::new(352, 288), CallKind::Inter);
        assert!(check_bank_map(&s).is_empty());
    }

    #[test]
    fn too_few_banks_reported() {
        let mut c = EngineConfig::prototype();
        c.zbt_banks = 4;
        let s = Scenario::new("narrow", c, Dims::new(16, 16), CallKind::Inter);
        let v = check_bank_map(&s);
        assert!(v.iter().any(|v| v.check == "zbt.bank_range"), "{v:?}");
    }

    #[test]
    fn cif_fits_but_one_megapixel_does_not() {
        assert!(check_capacity(&proto(Dims::new(352, 288), CallKind::Inter)).is_empty());
        let v = check_capacity(&proto(Dims::new(1024, 1024), CallKind::Inter));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "zbt.capacity");
        assert!(v[0].message.contains("1048576"), "{}", v[0].message);
        // The bound is exact: 512×512 fills each bank to the last word.
        assert!(check_capacity(&proto(Dims::new(512, 512), CallKind::Inter)).is_empty());
        assert_eq!(
            check_capacity(&proto(Dims::new(513, 512), CallKind::Inter)).len(),
            1
        );
    }

    #[test]
    fn prototype_duty_is_exactly_saturated() {
        // §3.1: one DMA access + one PU read per two-cycle pixel slot.
        let s = proto(Dims::new(352, 288), CallKind::Intra { radius: 1 });
        assert!(check_input_duty(&s).is_empty());
    }

    #[test]
    fn fast_pci_oversubscribes_input_port() {
        let mut c = EngineConfig::prototype();
        c.pci_clock = vip_engine::clock::ClockDomain::new("pci", 133e6);
        let s = Scenario::new(
            "fast-pci",
            c,
            Dims::new(352, 288),
            CallKind::Intra { radius: 1 },
        );
        let v = check_input_duty(&s);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "zbt.input_port_duty");
        assert!(
            v[0].witness.contains("pci_clock=133.0MHz"),
            "{}",
            v[0].witness
        );
    }

    #[test]
    fn sequential_inter_has_no_duty_overlap() {
        let mut c = EngineConfig::prototype();
        c.pci_clock = vip_engine::clock::ClockDomain::new("pci", 133e6);
        c.inter_overlap = InterOverlap::Sequential;
        let s = Scenario::new("fast-pci", c, Dims::new(352, 288), CallKind::Inter);
        assert!(check_input_duty(&s).is_empty(), "no overlap, no conflict");
    }

    #[test]
    fn prototype_never_overtakes_drain() {
        for mode in [
            CallKind::Intra { radius: 1 },
            CallKind::Inter,
            CallKind::Segment { pixels: 5_000 },
        ] {
            let s = proto(Dims::new(352, 288), mode);
            assert!(check_output_overtake(&s).is_empty(), "{mode}");
        }
    }

    #[test]
    fn slow_engine_lets_dma_overtake_drain() {
        let mut c = EngineConfig::prototype();
        c.engine_clock = vip_engine::clock::ClockDomain::new("engine", 33e6);
        let s = Scenario::new(
            "slow-engine",
            c,
            Dims::new(352, 288),
            CallKind::Intra { radius: 1 },
        );
        let v = check_output_overtake(&s);
        assert!(
            !v.is_empty(),
            "drain at 33 MHz cannot keep ahead of a 264 MB/s DMA"
        );
        assert_eq!(v[0].check, "zbt.output_overtake");
    }

    #[test]
    fn zero_gate_fraction_overtakes_on_small_frames() {
        let mut c = EngineConfig::prototype();
        c.output_latency_fraction = 0.0;
        // Small frame: the lead exceeds the input transfer, so an
        // ungated DMA starts before the first pixel drained.
        let s = Scenario::new("no-gate", c, Dims::new(3, 3), CallKind::Intra { radius: 1 });
        let v = check_output_overtake(&s);
        assert!(!v.is_empty());
    }
}
