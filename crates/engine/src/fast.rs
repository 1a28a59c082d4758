//! Event-driven fast-forward datapath ([`StepMode::FastForward`]).
//!
//! The cycle-stepped loops in [`crate::process_unit`] model every stage
//! every cycle; most of that per-cycle work is structurally determined.
//! The key observation is that [`ProcessingStats`] is *data-independent*:
//! cycles, stalls, matrix instructions and OIM occupancy depend only on
//! the frame geometry, window shape and IIM/OIM/drain parameters — while
//! the produced pixels are, by the engine's own bit-exactness guarantee,
//! identical to the software AddressLib result. This module exploits
//! both facts:
//!
//! 1. **Batched datapath** — the input image is read out of the ZBT in
//!    one pass (the exact access sequence the transmission unit would
//!    issue, so bank statistics match), and the result pixels are
//!    computed through the software addressing path once, up front.
//! 2. **Integer timing skeleton** — the per-cycle loop is replayed with
//!    the same control flow as the stepped simulator (drain, TxU,
//!    stage 4→1) but carrying only indices, so each modelled cycle costs
//!    a handful of integer operations instead of a window gather and an
//!    operator application. The skeleton also replaces the intermediate
//!    memories themselves with O(1) mirrors: the fill path loads lines
//!    strictly in scan order and evicts FIFO, so the IIM's resident set
//!    is always the contiguous range `[txu_line − iim_lines, txu_line)`
//!    and window readiness / the eviction gate reduce to two integer
//!    comparisons; the sweep produces pixels in index order, so the OIM
//!    FIFO always holds the contiguous range `[popped, pushed)` and
//!    becomes a pair of counters.
//! 3. **Event-driven fast-forward** — the loop computes each
//!    subsystem's next-activity cycle inline (the drain countdown for the
//!    OIM port, the eviction gate for the fill path, the pipeline-slot
//!    analysis below for the Process Unit); when the earliest event lies
//!    beyond `now + 1` the clock jumps straight to it, accumulating the
//!    per-cycle stall counters the stepped loop would have recorded on
//!    the skipped cycles. While the Process Unit
//!    is active the earliest event is always `now + 1`, so the query is
//!    only evaluated on idle cycles — the steady-state path pays nothing
//!    for it. When no subsystem reports any future event the run can
//!    never finish; the loop reports the same
//!    [`EngineError::PipelineHazard`] the stepped simulator's cycle
//!    bound would eventually trip.
//!
//! 4. **Same probe output** — both loops call the same [`PuProbe`]
//!    hooks at the same points of the cycle; a skipped idle stretch is
//!    replayed as one stall-run step plus its occupancy samples.
//!
//! Equivalence — bit-identical [`ProcessingStats`] (including the fig. 5
//! stage trace), ZBT bank statistics, result pixels, error verdicts and
//! probe recordings against the cycle-stepped reference — is asserted
//! across seeded configurations by `tests/fast_forward_equivalence.rs`.
//!
//! [`StepMode::FastForward`]: crate::config::StepMode::FastForward

use vip_core::addressing::intra::IntraOptions;
use vip_core::border::BorderPolicy;
use vip_core::frame::Frame;
use vip_core::geometry::{Dims, Point};
use vip_core::ops::{InterOp, IntraOp};
use vip_core::scan::ScanOrder;

use crate::config::EngineConfig;
use crate::error::{EngineError, EngineResult};
use crate::plc::{ControlFsm, FetchKind};
use crate::process_unit::{snapshot_of, ProcessingStats, PuProbe, Stall};
use crate::zbt::{ZbtMemory, ZbtRegion};

/// Fast-forward equivalent of
/// [`crate::process_unit::run_intra_detailed`]: identical statistics,
/// ZBT traffic, result pixels and probe output, a fraction of the
/// simulated work.
///
/// # Errors
///
/// Exactly the errors of the cycle-stepped reference: ZBT addressing
/// failures and [`EngineError::PipelineHazard`] for configurations whose
/// eviction gate deadlocks the sweep.
pub fn run_intra_fast<O: IntraOp>(
    zbt: &mut ZbtMemory,
    dims: Dims,
    op: &O,
    border: BorderPolicy,
    config: &EngineConfig,
    trace_limit: usize,
    probe: &PuProbe,
) -> EngineResult<ProcessingStats> {
    // An untraced call runs an instance with the probe hooks compiled out.
    let run = if probe.is_enabled() { intra_fast::<O, true> } else { intra_fast::<O, false> };
    run(zbt, dims, op, border, config, trace_limit, probe)
}

fn intra_fast<O: IntraOp, const HOOKS: bool>(
    zbt: &mut ZbtMemory,
    dims: Dims,
    op: &O,
    border: BorderPolicy,
    config: &EngineConfig,
    trace_limit: usize,
    probe: &PuProbe,
) -> EngineResult<ProcessingStats> {
    let total = dims.pixel_count();
    let radius = op.shape().radius();
    let drain_per = config.oim_drain_cycles_per_pixel;

    // Batched datapath: the TxU reads every input pixel exactly once, in
    // index order, before the last window can be served — so a single
    // up-front pass leaves the per-bank counters exactly as the stepped
    // interleaving would.
    let input = Frame::from_pixels(dims, zbt.read_input_run(ZbtRegion::InputA, 0, total)?)?;
    let outs = vip_core::addressing::intra::run_intra_with(
        &input,
        op,
        IntraOptions {
            border,
            ..IntraOptions::default()
        },
    )?
    .output;
    let out_pixels = outs.pixels();

    // O(1) IIM mirror: lines load strictly in scan order and evict FIFO,
    // so the resident set is always `[txu_line − iim_lines, txu_line)`.
    // A window at line `y` is ready iff its clamped line span lies inside
    // that range; the eviction gate admits a pixel iff a free block
    // exists or the victim lies before `needed_oldest`. Both are the
    // same predicates `Iim::window_ready` / `Iim::can_accept` evaluate
    // by scanning the resident list.
    assert!(config.iim_lines > 0, "IIM needs at least one line block");
    let iim_cap = config.iim_lines;
    let height = dims.height;
    let window_ready = |y: i32, txu_line: usize| -> bool {
        let lo = (y - radius as i32).max(0) as usize;
        let hi = (y + radius as i32).min(height as i32 - 1) as usize;
        hi < txu_line && lo >= txu_line.saturating_sub(iim_cap)
    };

    // O(1) OIM mirror: the sweep produces pixels in index order, so the
    // FIFO always holds the contiguous index range `[popped, pushed)`.
    let oim_cap = config.oim_lines * dims.width;
    assert!(oim_cap > 0, "OIM capacity must be positive");
    let mut oim_pushed = 0usize;
    let mut oim_popped = 0usize;
    let mut oim_max = 0usize;

    let mut fsm = ControlFsm::new(dims, ScanOrder::RowMajor);
    let mut stats = ProcessingStats::default();
    let mut trace = probe.start::<HOOKS>(dims);
    let mut matrix_valid = false;

    // Transmission-unit position (the line data itself lives in `input`,
    // and the residency mirror above tracks what would be loaded).
    let mut txu_line = 0usize;
    let mut txu_x = 0usize;

    // In-flight pipeline slots, indices only — stage 3's "result" is
    // implied by the index, so the execute slot is just the index.
    let mut scan_slot: Option<(Point, FetchKind, usize)> = None;
    let mut fetch_slot: Option<(Point, usize)> = None;
    let mut exec_slot: Option<usize> = None;

    let mut drain_timer = 0u64;
    let mut cycles = 0u64;
    // Same safety bound as the stepped loop: deadlocks must trip at the
    // same (unreached-by-clean-runs) limit.
    let bound = (total as u64 + 64) * (drain_per + 6)
        + (dims.height as u64 + 4) * dims.width as u64;
    let hazard = EngineError::PipelineHazard {
        detail: "cycle-stepped intra simulation exceeded its cycle bound",
    };

    while oim_popped < total {
        let filling = txu_line < dims.height;
        let inflight_line = fetch_slot
            .as_ref()
            .map(|f| f.0.y as usize)
            .or_else(|| scan_slot.as_ref().map(|s| s.0.y as usize))
            .unwrap_or_else(|| fsm.issued() / dims.width.max(1));
        let needed_oldest = inflight_line.saturating_sub(radius);
        let can_accept =
            txu_line < iim_cap || txu_line - iim_cap < needed_oldest;
        let pu_active = (exec_slot.is_some() && oim_pushed - oim_popped < oim_cap)
            || (exec_slot.is_none() && fetch_slot.is_some())
            || (exec_slot.is_none()
                && fetch_slot.is_none()
                && scan_slot.is_some_and(|(p, _, _)| window_ready(p.y, txu_line)))
            || (scan_slot.is_none() && fsm.len() > 0);

        // --- Event query: the earliest cycle on which any subsystem
        // acts. While the Process Unit is active (or the stage trace is
        // still recording) that is always `cycles + 1`, so the query only
        // runs on idle cycles.
        if !pu_active && stats.trace.len() >= trace_limit {
            let drain_event = (oim_pushed > oim_popped)
                .then(|| cycles + drain_per.saturating_sub(drain_timer).max(1));
            let fill_event = (filling && can_accept).then_some(cycles + 1);
            // Every idle cycle until then repeats one stall: on the OIM
            // (blocked stage 4), on the IIM (stuck window fetch), or none
            // (slots empty, sweep exhausted: drain-tail idle).
            let stall = if exec_slot.is_some() {
                Some(Stall::Oim)
            } else if scan_slot.is_some() && fetch_slot.is_none() {
                Some(Stall::Iim)
            } else {
                None
            };
            let occupancy = oim_pushed - oim_popped;
            let next = [drain_event, fill_event].into_iter().flatten().min();
            // Nothing acts again within the bound: the stepped loop
            // stalls in place until its cycle bound trips.
            let Some(target) = next.filter(|&t| t <= bound) else {
                trace.skip(cycles + 1, bound, stall, occupancy);
                return Err(hazard);
            };
            let skipped = target - cycles - 1;
            if skipped > 0 {
                trace.skip(cycles + 1, cycles + skipped, stall, occupancy);
                cycles += skipped;
                drain_timer += skipped;
                *match stall {
                    Some(Stall::Oim) => &mut stats.oim_stalls,
                    Some(Stall::Iim) => &mut stats.iim_stalls,
                    None => &mut stats.idle_cycles,
                } += skipped;
            }
        }

        // --- One cycle, in the stepped loop's stage order.
        cycles += 1;
        if cycles > bound {
            return Err(hazard);
        }

        // Idle classification (same cycle-start predicate as the stepped
        // loop): nothing in flight and nothing left to issue.
        if exec_slot.is_none() && fetch_slot.is_none() && scan_slot.is_none() && fsm.len() == 0 {
            stats.idle_cycles += 1;
        }

        // OIM → ZBT drain: pops arrive in index order, so the popped
        // counter is both the FIFO head and the pixel index. The ZBT
        // writes themselves land in one bulk pass after the loop — the
        // interleaving is unobservable and the accounting identical.
        drain_timer += 1;
        if drain_timer >= drain_per && oim_pushed > oim_popped {
            oim_popped += 1;
            drain_timer = 0;
        }

        // Transmission unit: one pixel per cycle into the current line.
        if filling && can_accept {
            trace.txu_pixel(txu_line, txu_x, dims.width, cycles);
            txu_x += 1;
            if txu_x == dims.width {
                txu_line += 1;
                txu_x = 0;
            }
        }

        // Stage 4: store into OIM.
        let mut stalled = None;
        if let Some(idx) = exec_slot {
            if oim_pushed - oim_popped < oim_cap {
                debug_assert_eq!(idx, oim_pushed, "sweep pushes in index order");
                oim_pushed += 1;
                oim_max = oim_max.max(oim_pushed - oim_popped);
                exec_slot = None;
            } else {
                stats.oim_stalls += 1;
                stalled = Some(Stall::Oim);
            }
        }
        let advance = stalled.is_none();
        // Stage 3: execute — the result pixel is precomputed.
        if advance {
            if let (Some((_, idx)), None) = (fetch_slot, &exec_slot) {
                exec_slot = Some(idx);
                fetch_slot = None;
            }
        }
        // Stage 2: window fetch from the IIM.
        if advance {
            if let (Some((point, fetch, idx)), None) = (scan_slot, &fetch_slot) {
                if window_ready(point.y, txu_line) {
                    match fetch {
                        FetchKind::Load => stats.matrix_loads += 1,
                        FetchKind::Shift if matrix_valid => stats.matrix_shifts += 1,
                        FetchKind::Shift => stats.matrix_loads += 1,
                    }
                    matrix_valid = true;
                    fetch_slot = Some((point, idx));
                    scan_slot = None;
                } else {
                    stats.iim_stalls += 1;
                    stalled = Some(Stall::Iim);
                }
            }
        }
        // Stage 1: scan — issue the next pixel position.
        if scan_slot.is_none() {
            if let Some((point, bundle)) = fsm.next() {
                trace.issue(point.y, cycles);
                scan_slot = Some((point, bundle.fetch, bundle.pixel_index));
            }
        }

        if stats.trace.len() < trace_limit {
            stats.trace.push(snapshot_of(
                scan_slot.as_ref().map(|s| s.2),
                fetch_slot.as_ref().map(|s| s.1),
                exec_slot,
            ));
        }
        trace.end_cycle(cycles, stalled, oim_pushed - oim_popped);
    }

    trace.finish(cycles, &stats, total);
    zbt.write_result_run(0, total, out_pixels)?;
    stats.cycles = cycles;
    stats.pixels = total as u64;
    stats.oim_max_occupancy = oim_max;
    Ok(stats)
}

/// Fast-forward equivalent of
/// [`crate::process_unit::run_inter_detailed`], probe output included.
///
/// # Errors
///
/// Exactly the errors of the cycle-stepped reference (ZBT addressing
/// failures; inter calls cannot deadlock).
pub fn run_inter_fast<O: InterOp>(
    zbt: &mut ZbtMemory,
    dims: Dims,
    op: &O,
    config: &EngineConfig,
    trace_limit: usize,
    probe: &PuProbe,
) -> EngineResult<ProcessingStats> {
    let run = if probe.is_enabled() { inter_fast::<O, true> } else { inter_fast::<O, false> };
    run(zbt, dims, op, config, trace_limit, probe)
}

fn inter_fast<O: InterOp, const HOOKS: bool>(
    zbt: &mut ZbtMemory,
    dims: Dims,
    op: &O,
    config: &EngineConfig,
    trace_limit: usize,
    probe: &PuProbe,
) -> EngineResult<ProcessingStats> {
    let total = dims.pixel_count();
    let drain_per = config.oim_drain_cycles_per_pixel;

    // Batched datapath: stage 2 reads each pixel pair exactly once, in
    // index order; the result is the stepped loop's own computation.
    let out_channels = op.output_channels();
    let out_pixels: Vec<_> = zbt
        .read_input_pair_run(0, total)?
        .into_iter()
        .map(|(a, b)| {
            let result = op.apply(a, b);
            let mut out = a;
            out.merge_channels(result, out_channels);
            out
        })
        .collect();

    // O(1) OIM mirror (see `run_intra_fast`): pixels enter in index
    // order, so the FIFO is the counter range `[popped, pushed)`.
    let oim_cap = config.oim_lines * dims.width;
    assert!(oim_cap > 0, "OIM capacity must be positive");
    let mut oim_pushed = 0usize;
    let mut oim_popped = 0usize;
    let mut oim_max = 0usize;

    let mut stats = ProcessingStats::default();
    let mut trace = probe.start::<HOOKS>(dims);
    let mut fetch_slot: Option<usize> = None;
    let mut exec_slot: Option<usize> = None;
    let mut next_pixel = 0usize;
    let mut drain_timer = 0u64;
    let mut cycles = 0u64;
    let bound = (total as u64 + 64) * (drain_per + 6);
    let hazard = EngineError::PipelineHazard {
        detail: "cycle-stepped inter simulation exceeded its cycle bound",
    };

    while oim_popped < total {
        let blocked = exec_slot.is_some() && oim_pushed - oim_popped == oim_cap;
        let pu_active = !blocked
            && (exec_slot.is_some() || fetch_slot.is_some() || next_pixel < total);

        // Event query only on idle cycles — an active Process Unit (or a
        // still-recording stage trace) pins the next event to `cycles + 1`.
        if !pu_active && stats.trace.len() >= trace_limit {
            let drain_event = (oim_pushed > oim_popped)
                .then(|| cycles + drain_per.saturating_sub(drain_timer).max(1));
            // Blocked on a full OIM, or else sweep exhausted with both
            // slots empty: drain-tail idle.
            let stall = blocked.then_some(Stall::Oim);
            let occupancy = oim_pushed - oim_popped;
            let Some(target) = drain_event.filter(|&t| t <= bound) else {
                trace.skip(cycles + 1, bound, stall, occupancy);
                return Err(hazard);
            };
            let skipped = target - cycles - 1;
            if skipped > 0 {
                trace.skip(cycles + 1, cycles + skipped, stall, occupancy);
                cycles += skipped;
                drain_timer += skipped;
                if blocked {
                    stats.oim_stalls += skipped;
                } else {
                    stats.idle_cycles += skipped;
                }
            }
        }

        cycles += 1;
        if cycles > bound {
            return Err(hazard);
        }

        // Idle classification (same cycle-start predicate as the stepped
        // loop): the sweep is exhausted and both slots are empty.
        if exec_slot.is_none() && fetch_slot.is_none() && next_pixel >= total {
            stats.idle_cycles += 1;
        }

        // Drain bookkeeping only — the ZBT writes land in one bulk pass
        // after the loop, exactly as in `run_intra_fast`.
        drain_timer += 1;
        if drain_timer >= drain_per && oim_pushed > oim_popped {
            oim_popped += 1;
            drain_timer = 0;
        }

        let mut stalled = None;
        if let Some(idx) = exec_slot {
            if oim_pushed - oim_popped < oim_cap {
                debug_assert_eq!(idx, oim_pushed, "sweep pushes in index order");
                oim_pushed += 1;
                oim_max = oim_max.max(oim_pushed - oim_popped);
                exec_slot = None;
            } else {
                stats.oim_stalls += 1;
                stalled = Some(Stall::Oim);
            }
        }
        if stalled.is_none() {
            if let (Some(idx), None) = (fetch_slot, &exec_slot) {
                exec_slot = Some(idx);
                fetch_slot = None;
            }
            if fetch_slot.is_none() && next_pixel < total {
                fetch_slot = Some(next_pixel);
                next_pixel += 1;
            }
        }

        if stats.trace.len() < trace_limit {
            stats.trace.push(snapshot_of(
                (next_pixel < total).then_some(next_pixel),
                fetch_slot,
                exec_slot,
            ));
        }
        trace.end_cycle(cycles, stalled, oim_pushed - oim_popped);
    }

    trace.finish(cycles, &stats, total);
    zbt.write_result_run(0, total, &out_pixels)?;
    stats.cycles = cycles;
    stats.pixels = total as u64;
    stats.oim_max_occupancy = oim_max;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process_unit::{run_inter_detailed, run_intra_detailed};
    use vip_core::ops::arith::AbsDiff;
    use vip_core::ops::filter::{BoxBlur, Identity, SobelGradient};
    use vip_core::pixel::Pixel;

    fn load_input(zbt: &mut ZbtMemory, region: ZbtRegion, frame: &Frame) {
        for (i, px) in frame.pixels().iter().enumerate() {
            zbt.write_input_pixel(region, i, *px).unwrap();
        }
    }

    fn read_result(zbt: &mut ZbtMemory, dims: Dims) -> Frame {
        let total = dims.pixel_count();
        let pixels: Vec<Pixel> =
            (0..total).map(|i| zbt.read_result_pixel(i, total).unwrap()).collect();
        Frame::from_pixels(dims, pixels).unwrap()
    }

    fn test_frame(dims: Dims) -> Frame {
        Frame::from_fn(dims, |p| {
            Pixel::from_luma(((p.x * 7 + p.y * 13) % 251) as u8).with_alpha((p.x + p.y) as u16)
        })
    }

    fn intra_both<O: IntraOp>(
        cfg: &EngineConfig,
        dims: Dims,
        op: &O,
        trace: usize,
    ) -> (EngineResult<ProcessingStats>, EngineResult<ProcessingStats>) {
        let frame = test_frame(dims);
        let mut zbt_a = ZbtMemory::new(cfg);
        load_input(&mut zbt_a, ZbtRegion::InputA, &frame);
        zbt_a.reset_stats();
        let off = PuProbe::disabled();
        let stepped =
            run_intra_detailed(&mut zbt_a, dims, op, BorderPolicy::Clamp, cfg, trace, &off);
        let mut zbt_b = ZbtMemory::new(cfg);
        load_input(&mut zbt_b, ZbtRegion::InputA, &frame);
        zbt_b.reset_stats();
        let fast = run_intra_fast(&mut zbt_b, dims, op, BorderPolicy::Clamp, cfg, trace, &off);
        if stepped.is_ok() {
            assert_eq!(
                zbt_a.pixel_access_cycles(),
                zbt_b.pixel_access_cycles(),
                "ZBT traffic diverged"
            );
            assert_eq!(read_result(&mut zbt_a, dims), read_result(&mut zbt_b, dims));
        }
        (stepped, fast)
    }

    #[test]
    fn intra_fast_matches_stepped_stats_and_pixels() {
        let cfg = EngineConfig::prototype_detailed();
        for dims in [Dims::new(20, 12), Dims::new(8, 40), Dims::new(5, 5)] {
            let (stepped, fast) = intra_both(&cfg, dims, &BoxBlur::con8(), 24);
            assert_eq!(stepped.unwrap(), fast.unwrap(), "{dims:?}");
        }
        let (stepped, fast) = intra_both(&cfg, Dims::new(18, 10), &SobelGradient::new(), 0);
        assert_eq!(stepped.unwrap(), fast.unwrap());
        let (stepped, fast) = intra_both(&cfg, Dims::new(32, 16), &Identity::luma(), 0);
        assert_eq!(stepped.unwrap(), fast.unwrap());
    }

    #[test]
    fn intra_fast_reproduces_deadlock_verdicts() {
        // iim_lines = 2 cannot hold a radius-1 window's three lines: the
        // eviction gate deadlocks and both paths must say so.
        let mut cfg = EngineConfig::prototype_detailed();
        cfg.iim_lines = 2;
        let (stepped, fast) = intra_both(&cfg, Dims::new(10, 8), &BoxBlur::con8(), 0);
        assert!(matches!(stepped, Err(EngineError::PipelineHazard { .. })));
        assert!(matches!(fast, Err(EngineError::PipelineHazard { .. })));
    }

    #[test]
    fn intra_fast_handles_slow_drain() {
        let mut cfg = EngineConfig::prototype_detailed();
        cfg.oim_drain_cycles_per_pixel = 7;
        cfg.oim_lines = 2;
        let (stepped, fast) = intra_both(&cfg, Dims::new(16, 9), &BoxBlur::con8(), 0);
        assert_eq!(stepped.unwrap(), fast.unwrap());
    }

    #[test]
    fn inter_fast_matches_stepped() {
        let off = PuProbe::disabled();
        for drain in [1u64, 2, 5] {
            let mut cfg = EngineConfig::prototype_detailed();
            cfg.oim_drain_cycles_per_pixel = drain;
            let dims = Dims::new(16, 8);
            let a = test_frame(dims);
            let b = Frame::from_fn(dims, |p| Pixel::from_luma((p.x * 3) as u8));
            let mut zbt_a = ZbtMemory::new(&cfg);
            load_input(&mut zbt_a, ZbtRegion::InputA, &a);
            load_input(&mut zbt_a, ZbtRegion::InputB, &b);
            zbt_a.reset_stats();
            let stepped =
                run_inter_detailed(&mut zbt_a, dims, &AbsDiff::luma(), &cfg, 16, &off).unwrap();
            let mut zbt_b = ZbtMemory::new(&cfg);
            load_input(&mut zbt_b, ZbtRegion::InputA, &a);
            load_input(&mut zbt_b, ZbtRegion::InputB, &b);
            zbt_b.reset_stats();
            let fast =
                run_inter_fast(&mut zbt_b, dims, &AbsDiff::luma(), &cfg, 16, &off).unwrap();
            assert_eq!(stepped, fast, "drain = {drain}");
            assert_eq!(zbt_a.pixel_access_cycles(), zbt_b.pixel_access_cycles());
            assert_eq!(read_result(&mut zbt_a, dims), read_result(&mut zbt_b, dims));
        }
    }
}
