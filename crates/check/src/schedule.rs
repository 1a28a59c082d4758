//! Static verification of the §4.1 call schedule.
//!
//! The image-level controller's schedule is summarised by seven instants
//! per call ([`CallTimeline::instants`]): issue, inbound-DMA start,
//! inbound-DMA end, outbound-DMA start, drain end, outbound-DMA end, and
//! call completion. The paper's
//! timeline (fig. of §4.1) requires every gap between consecutive
//! instants to be non-negative for *every* configuration — processing
//! can never finish before its inputs arrived, the outbound DMA can
//! never start while the bus is still receiving, and the call cannot
//! complete before the last result word left the board.
//!
//! [`check_timeline`] verifies that ordering, the PCI-serialisation
//! invariant (payload + interrupt overhead never exceeds the call
//! duration), and agreement between this crate's *independent*
//! re-derivation of the drain schedule ([`DrainModel`]) and the closed
//! forms in [`vip_engine::timing`] — so the verifier and the simulator
//! cannot drift apart silently.

use vip_engine::config::{EngineConfig, InterOverlap};
use vip_engine::timing::{inter_timeline, intra_timeline, segment_timeline, CallTimeline};

use crate::witness::{CallKind, Scenario};
use crate::Violation;

/// Computes the analytic timeline of a scenario.
#[must_use]
pub fn timeline_of(s: &Scenario) -> CallTimeline {
    match s.mode {
        CallKind::Intra { radius } => intra_timeline(s.dims, radius, &s.config),
        CallKind::Inter => inter_timeline(s.dims, &s.config),
        CallKind::Segment { pixels } => segment_timeline(s.dims, pixels, &s.config),
        // Indexed calls run in parallel to another scheme (§2.1); the
        // engine schedules them like a segment call over the table.
        CallKind::SegmentIndexed { entries } => segment_timeline(s.dims, entries, &s.config),
    }
}

/// The drain-completion schedule `D(k)` — the time at which the `k`-th
/// result pixel has been drained OIM → ZBT — re-derived from the
/// architectural parameters *independently* of [`vip_engine::timing`],
/// as a pointwise maximum of affine functions of `k` (arrival-bound and
/// drain-rate-bound branches). Convexity of that maximum is what lets
/// the overtake check in [`crate::zbt`] test only the endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainModel {
    /// Affine branches `(offset_seconds, seconds_per_pixel)`.
    branches: Vec<(f64, f64)>,
    /// Result pixels the call drains.
    pub drained_pixels: f64,
}

impl DrainModel {
    /// Builds the drain schedule of a scenario.
    #[must_use]
    pub fn of(s: &Scenario) -> Self {
        let config = &s.config;
        let n = s.dims.pixel_count() as f64;
        let w = s.dims.width as f64;
        let f_e = config.engine_clock.hz;
        let t_irq = config.interrupt_overhead_cycles as f64 / config.pci_clock.hz;
        let r_in = 8.0 / config.pci_bandwidth();
        let r_drain = config.oim_drain_cycles_per_pixel as f64 / f_e;
        let const_lead =
            (config.pipeline_stages as u64 + config.oim_drain_cycles_per_pixel) as f64 / f_e;

        let (branches, drained) = match s.mode {
            CallKind::Intra { radius } => {
                let lead = (radius as f64 + 2.0) * w * r_in + const_lead;
                (vec![(t_irq + lead, r_in), (t_irq + lead, r_drain)], n)
            }
            CallKind::Inter => {
                let input_end = t_irq + 2.0 * n * r_in;
                match config.inter_overlap {
                    InterOverlap::Sequential => (vec![(input_end + const_lead, r_drain)], n),
                    InterOverlap::Interleaved => (
                        vec![
                            (t_irq + const_lead, 2.0 * r_in),
                            (t_irq + const_lead, r_drain),
                        ],
                        n,
                    ),
                }
            }
            CallKind::Segment { pixels } | CallKind::SegmentIndexed { entries: pixels } => {
                let input_end = t_irq + n * r_in;
                let r_seg = (config.oim_drain_cycles_per_pixel + 2) as f64 / f_e;
                (vec![(input_end, r_seg)], pixels as f64)
            }
        };
        DrainModel {
            branches,
            drained_pixels: drained,
        }
    }

    /// `D(k)`: seconds from call issue until `k` result pixels are
    /// drained.
    #[must_use]
    pub fn drained_at(&self, k: f64) -> f64 {
        self.branches
            .iter()
            .map(|(a, b)| a + b * k)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The pixel count gating the outbound DMA.
    #[must_use]
    pub fn gate_pixels(&self, config: &EngineConfig) -> f64 {
        (config.output_latency_fraction * self.drained_pixels).ceil()
    }
}

/// Absolute tolerance for instant comparisons, scaled to the call.
fn eps_for(t: &CallTimeline) -> f64 {
    1e-12 + t.total.abs() * 1e-9
}

/// Verifies the schedule invariants of one scenario.
#[must_use]
pub fn check_timeline(s: &Scenario) -> Vec<Violation> {
    let mut out = Vec::new();
    let t = timeline_of(s);
    let eps = eps_for(&t);
    for pair in t.instants().windows(2) {
        let [(before, t_before), (after, t_after)] = [pair[0], pair[1]];
        if t_after + eps < t_before {
            out.push(Violation {
                check: "timeline.order",
                message: format!(
                    "instant `{after}` ({t_after:.9e} s) precedes `{before}` ({t_before:.9e} s)"
                ),
                witness: s.witness(),
            });
        }
    }

    // PCI serialisation: one bus carries the inbound payload, the
    // outbound payload, and the interrupt handshakes back to back, so
    // the call can never be shorter than their sum.
    let floor = t.input_pci + t.output_pci + t.interrupt_overhead;
    if t.total + eps < floor {
        out.push(Violation {
            check: "timeline.pci_serialisation",
            message: format!(
                "call duration {:.9e} s is below the serialised PCI floor {:.9e} s",
                t.total, floor
            ),
            witness: s.witness(),
        });
    }
    if t.pci_utilisation() > 1.0 + 1e-9 {
        out.push(Violation {
            check: "timeline.pci_utilisation",
            message: format!("PCI utilisation {} exceeds 1", t.pci_utilisation()),
            witness: s.witness(),
        });
    }

    // Independent drain model must agree with the engine's closed form:
    // D(n) is the drain end, and the gate instant can never exceed the
    // outbound DMA start.
    let model = DrainModel::of(s);
    let d_end = model.drained_at(model.drained_pixels);
    if (d_end - t.drain_end).abs() > eps {
        out.push(Violation {
            check: "timeline.model_agreement",
            message: format!(
                "independent drain model ends at {:.9e} s, engine timing at {:.9e} s",
                d_end, t.drain_end
            ),
            witness: s.witness(),
        });
    }
    let gate = model.gate_pixels(&s.config);
    if model.drained_at(gate) > t.output_start + eps {
        out.push(Violation {
            check: "timeline.gate",
            message: format!(
                "outbound DMA starts at {:.9e} s, before the {}-pixel drain gate at {:.9e} s",
                t.output_start,
                gate,
                model.drained_at(gate)
            ),
            witness: s.witness(),
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness::Scenario;
    use vip_core::geometry::Dims;
    use vip_engine::config::EngineConfig;

    fn proto(dims: Dims, mode: CallKind) -> Scenario {
        Scenario::new("prototype", EngineConfig::prototype(), dims, mode)
    }

    #[test]
    fn prototype_modes_are_ordered() {
        let cif = Dims::new(352, 288);
        for mode in [
            CallKind::Intra { radius: 1 },
            CallKind::Inter,
            CallKind::Segment { pixels: 10_000 },
            CallKind::SegmentIndexed { entries: 512 },
        ] {
            let v = check_timeline(&proto(cif, mode));
            assert!(v.is_empty(), "{mode}: {v:?}");
        }
    }

    #[test]
    fn instants_are_seven_and_monotone() {
        let t = timeline_of(&proto(Dims::new(64, 48), CallKind::Inter));
        let ts = t.instants();
        assert_eq!(ts.len(), 7);
        for w in ts.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12, "{ts:?}");
        }
        assert_eq!(ts[0], ("call_issued", 0.0));
        assert_eq!(ts[6], ("call_completed", t.total));
    }

    #[test]
    fn drain_model_matches_engine_for_all_modes() {
        for dims in [Dims::new(16, 16), Dims::new(352, 288), Dims::new(33, 7)] {
            for mode in [
                CallKind::Intra { radius: 0 },
                CallKind::Intra { radius: 2 },
                CallKind::Inter,
                CallKind::Segment {
                    pixels: dims.pixel_count() as u64 / 3,
                },
            ] {
                let s = proto(dims, mode);
                let t = timeline_of(&s);
                let m = DrainModel::of(&s);
                let d = m.drained_at(m.drained_pixels);
                assert!(
                    (d - t.drain_end).abs() < 1e-12 + t.total * 1e-9,
                    "{s}: model {d} vs engine {}",
                    t.drain_end
                );
            }
        }
    }

    #[test]
    fn interleaved_inter_also_agrees() {
        let mut c = EngineConfig::prototype();
        c.inter_overlap = InterOverlap::Interleaved;
        let s = Scenario::new("ilv", c, Dims::new(176, 144), CallKind::Inter);
        assert!(check_timeline(&s).is_empty());
    }

    #[test]
    fn drain_model_is_convex_nondecreasing() {
        let s = proto(Dims::new(40, 30), CallKind::Intra { radius: 1 });
        let m = DrainModel::of(&s);
        let n = m.drained_pixels;
        let mut prev = m.drained_at(0.0);
        let mut prev_slope = f64::NEG_INFINITY;
        for i in 1..=20 {
            let k = n * i as f64 / 20.0;
            let v = m.drained_at(k);
            let slope = v - prev;
            assert!(v >= prev, "non-decreasing");
            assert!(slope >= prev_slope - 1e-15, "convex");
            prev = v;
            prev_slope = slope;
        }
    }
}
