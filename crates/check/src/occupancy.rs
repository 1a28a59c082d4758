//! Static IIM/OIM occupancy analysis (§3.1 / §3.3).
//!
//! Both intermediate memories are sixteen-line-block × two-BRAM-bank
//! buffers in the prototype. Their correctness obligations differ:
//!
//! * **IIM** — the transmission unit refuses to evict a line the sweep
//!   still needs (`oldest < inflight_line − radius` gating in the
//!   Process Unit). A window of radius `r` spans `2r+1` lines (clamped
//!   to the frame height at the borders), so the sweep makes progress
//!   iff the IIM holds at least [`iim_required_lines`] blocks —
//!   otherwise the transmission unit and the fetch stage deadlock, which
//!   the cycle-stepped simulator surfaces as a
//!   `PipelineHazard` cycle-bound error. [`check_iim`] proves the
//!   condition per configuration instead of running the deadlock.
//! * **OIM** — the FIFO back-pressures the producer (stage 4 holds while
//!   it is full), so it can never overflow; the interesting static quantity is
//!   the *occupancy upper bound* [`oim_occupancy_bound`]: the producer
//!   inserts at most one pixel per cycle while the drain removes one per
//!   `d` cycles, so occupancy never exceeds `⌈n·(d−1)/d⌉ + 2` (and never
//!   the capacity). The differential tests check the cycle-stepped
//!   `oim_max_occupancy` against this bound. [`check_oim`] verifies the
//!   configuration sustains drain progress at all (positive capacity and
//!   drain rate).

use crate::witness::{CallKind, Scenario};
use crate::Violation;

/// The minimum number of IIM line blocks that lets a radius-`radius`
/// sweep over a `height`-line frame make progress: the full `2r+1`
/// window span, or the whole frame when it is shorter (vertical border
/// clamping re-delivers edge lines).
#[must_use]
pub fn iim_required_lines(radius: usize, height: usize) -> usize {
    (2 * radius + 1).min(height)
}

/// Result pixels the scenario's processing phase produces (what the OIM
/// must carry).
#[must_use]
pub fn produced_pixels(s: &Scenario) -> u64 {
    match s.mode {
        CallKind::Intra { .. } | CallKind::Inter => s.dims.pixel_count() as u64,
        CallKind::Segment { pixels } => pixels,
        CallKind::SegmentIndexed { entries } => entries,
    }
}

/// Static upper bound on the OIM occupancy a scenario can reach: the
/// rate argument `⌈n·(d−1)/d⌉ + 2` (producer ≤ 1 px/cycle, drain 1 px
/// per `d` cycles, +2 pixels of phase slack) capped at the FIFO
/// capacity the back-pressure enforces.
#[must_use]
pub fn oim_occupancy_bound(s: &Scenario) -> u64 {
    let capacity = (s.config.oim_lines * s.dims.width) as u64;
    let n = produced_pixels(s);
    let d = s.config.oim_drain_cycles_per_pixel.max(1);
    let rate_bound = n.saturating_mul(d - 1).div_ceil(d) + 2;
    rate_bound.min(capacity)
}

/// Verifies IIM deadlock freedom for one scenario.
#[must_use]
pub fn check_iim(s: &Scenario) -> Vec<Violation> {
    let mut out = Vec::new();
    if s.config.iim_lines < 2 {
        out.push(Violation {
            check: "occupancy.iim_min",
            message: format!(
                "iim_lines={} but the IIM needs at least two line blocks (lo/hi banks per line)",
                s.config.iim_lines
            ),
            witness: s.witness(),
        });
    }
    if let CallKind::Intra { radius } = s.mode {
        let required = iim_required_lines(radius, s.dims.height);
        if s.config.iim_lines < required {
            out.push(Violation {
                check: "occupancy.iim_deadlock",
                message: format!(
                    "radius-{radius} window spans {required} lines but the IIM holds only {}: \
                     the transmission unit cannot evict a line the sweep still needs — \
                     fetch stage and line loader deadlock",
                    s.config.iim_lines
                ),
                witness: s.witness(),
            });
        }
    }
    out
}

/// Verifies OIM progress (positive capacity and drain rate) for one
/// scenario.
#[must_use]
pub fn check_oim(s: &Scenario) -> Vec<Violation> {
    let mut out = Vec::new();
    let capacity = s.config.oim_lines * s.dims.width;
    if capacity == 0 {
        out.push(Violation {
            check: "occupancy.oim_capacity",
            message: format!(
                "OIM capacity is zero ({} lines × {} px): every push fails and the \
                 drain never sees a pixel — the call cannot complete",
                s.config.oim_lines, s.dims.width
            ),
            witness: s.witness(),
        });
    }
    if s.config.oim_drain_cycles_per_pixel == 0 {
        out.push(Violation {
            check: "occupancy.oim_drain_rate",
            message: "oim_drain_cycles_per_pixel is zero: the drain rate is undefined \
                      (the result banks take the two pixel words sequentially, §3.1)"
                .to_string(),
            witness: s.witness(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::geometry::Dims;
    use vip_engine::config::EngineConfig;

    fn scenario(config: EngineConfig, dims: Dims, mode: CallKind) -> Scenario {
        Scenario::new("test", config, dims, mode)
    }

    #[test]
    fn required_lines_follows_window_span() {
        assert_eq!(iim_required_lines(1, 288), 3);
        assert_eq!(iim_required_lines(4, 288), 9, "§3.1 nine-line maximum");
        assert_eq!(iim_required_lines(4, 5), 5, "short frames clamp");
        assert_eq!(iim_required_lines(0, 1), 1);
    }

    #[test]
    fn prototype_iim_is_deadlock_free_up_to_radius_four() {
        let dims = Dims::new(352, 288);
        for r in 0..=4 {
            let s = scenario(
                EngineConfig::prototype(),
                dims,
                CallKind::Intra { radius: r },
            );
            assert!(check_iim(&s).is_empty(), "radius {r}");
        }
    }

    #[test]
    fn undersized_iim_is_reported_with_witness() {
        let mut c = EngineConfig::prototype();
        c.iim_lines = 3;
        let s = scenario(c, Dims::new(32, 32), CallKind::Intra { radius: 2 });
        let v = check_iim(&s);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "occupancy.iim_deadlock");
        assert!(v[0].witness.contains("iim_lines=3"), "{}", v[0].witness);
    }

    #[test]
    fn short_frame_excuses_small_iim() {
        let mut c = EngineConfig::prototype();
        c.iim_lines = 3;
        // height 3 ≤ iim_lines: every line stays resident.
        let s = scenario(c, Dims::new(32, 3), CallKind::Intra { radius: 2 });
        assert!(check_iim(&s).is_empty());
    }

    #[test]
    fn oim_bound_matches_rate_argument() {
        // Prototype: d=2 ⇒ bound ≈ n/2 + 2, capped at 16·width.
        let s = scenario(
            EngineConfig::prototype(),
            Dims::new(352, 288),
            CallKind::Inter,
        );
        let n = 352 * 288u64;
        assert_eq!(oim_occupancy_bound(&s), (n.div_ceil(2) + 2).min(16 * 352));
        assert_eq!(
            oim_occupancy_bound(&s),
            16 * 352,
            "CIF saturates the FIFO bound"
        );
        // Tiny frame: rate bound governs.
        let t = scenario(EngineConfig::prototype(), Dims::new(4, 4), CallKind::Inter);
        assert_eq!(oim_occupancy_bound(&t), 8 + 2);
    }

    #[test]
    fn drain_every_cycle_needs_constant_headroom() {
        let mut c = EngineConfig::prototype();
        c.oim_drain_cycles_per_pixel = 1;
        let s = scenario(c, Dims::new(352, 288), CallKind::Inter);
        assert_eq!(oim_occupancy_bound(&s), 2, "d=1 drains as fast as produced");
    }

    #[test]
    fn zero_capacity_oim_is_reported() {
        let mut c = EngineConfig::prototype();
        c.oim_lines = 0;
        let s = scenario(c, Dims::new(16, 16), CallKind::Inter);
        let v = check_oim(&s);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "occupancy.oim_capacity");
    }

    #[test]
    fn segment_bound_uses_segment_pixels() {
        let s = scenario(
            EngineConfig::prototype(),
            Dims::new(352, 288),
            CallKind::Segment { pixels: 10 },
        );
        assert_eq!(produced_pixels(&s), 10);
        assert_eq!(oim_occupancy_bound(&s), 7, "⌈10/2⌉+2");
    }
}
