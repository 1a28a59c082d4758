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
//! 1. **Closed-form traffic, software result** — a fast-forward call
//!    moves no pixel through the ZBT. Its result is the software
//!    AddressLib's, the same call the analytic fidelity makes, and its
//!    bank statistics follow from fig. 3's bank map and the geometry
//!    alone ([`ZbtMemory::call_traffic`], charged to the engine's
//!    counters). The engine's banks are never allocated. The
//!    cycle-stepped datapath keeps the real round trip (inbound load, PU
//!    reads, result writes, outbound unload) and is the reference the
//!    closed form is checked against.
//! 2. **Integer timing skeleton** — both skeletons run through the same
//!    cycle loop as the stepped simulator, with the same control FSM,
//!    [`Pipeline`] and [`Oim`] (OIM port, TxU, stages 4→1), but the
//!    slots carry no pixels, so each modelled cycle costs a handful of
//!    integer operations instead of a window gather and an operator
//!    application. The OIM buffers `()` payloads, so it is its two
//!    counters. The IIM becomes an O(1) mirror: the fill path loads
//!    lines strictly in scan order and evicts FIFO, so its resident set
//!    is always the contiguous range `[txu_line − iim_lines, txu_line)`
//!    and window readiness / the eviction gate reduce to two integer
//!    comparisons.
//! 3. **Event-driven fast-forward** — while [`Pipeline::at_rest`] says
//!    no bundle will move, the loop asks the skeleton for its next
//!    port event (the drain countdown, or a fill the eviction gate
//!    admits) and jumps the clock straight to it, charging the skipped
//!    cycles to the at-rest kind as the stepped loop would. `vip-check`
//!    proves that `at_rest` is `None` exactly when a step would move a
//!    bundle. When no port reports any future event the run can never
//!    finish, and the loop reports the same
//!    [`EngineError::PipelineHazard`] the stepped loop's cycle bound
//!    trips.
//! 4. **Same probe output** — the loop calls the same [`PuProbe`]
//!    hooks for both datapaths; a skipped idle stretch is logged as
//!    one stall-run step plus its occupancy samples.
//! 5. **One skeleton run per geometry** — the skeleton reads nothing
//!    but the call kind, `dims`, the window radius, `trace_limit` and
//!    the configuration, so each engine keeps its results in
//!    [`Skeletons`], keyed by the first four. The configuration is fixed
//!    for the engine's lifetime and owned by the [`Skeletons`], so it is
//!    not part of the key. A miss runs the skeleton once, with its probe
//!    hooks compiled in whether or not a recorder is attached, and keeps
//!    the verdict — `Ok` statistics (fig. 5 trace included) or the `Err`
//!    — beside the hooks' log, which is stamped in engine cycles. Every
//!    call, hit or miss, publishes that log through its own [`PuProbe`],
//!    so the spans land at that call's start time and engine clock, and
//!    a repeat geometry pays only for the software kernel and the log
//!    replay.
//!
//! Equivalence — bit-identical [`ProcessingStats`] (including the fig. 5
//! stage trace), ZBT bank statistics, result pixels, error verdicts and
//! probe recordings against the cycle-stepped reference — is asserted
//! across seeded configurations by `tests/fast_forward_equivalence.rs`;
//! `tests/processing_golden.rs` pins repeat calls to the values of first
//! ones.
//!
//! [`StepMode::FastForward`]: crate::config::StepMode::FastForward
//! [`ZbtMemory::call_traffic`]: crate::zbt::ZbtMemory::call_traffic
//! [`Pipeline`]: crate::plc::Pipeline
//! [`Pipeline::at_rest`]: crate::plc::Pipeline::at_rest
//! [`EngineError::PipelineHazard`]: crate::error::EngineError::PipelineHazard

use vip_core::geometry::{Dims, Point};

use crate::config::EngineConfig;
use crate::error::EngineResult;
use crate::oim::Oim;
use crate::plc::FetchKind;
use crate::process_unit::{run_phase, Datapath, ProcessingStats, PuLog, PuProbe, PuTrace};

/// The timing-skeleton results of one engine configuration, one entry
/// per call geometry (see the module doc). An engine sees only a few
/// geometries, so the entries live in a plain list.
#[derive(Debug)]
pub struct Skeletons {
    config: EngineConfig,
    entries: Vec<Skeleton>,
}

/// One skeleton run: its verdict and what its probe hooks logged.
#[derive(Debug)]
struct Skeleton {
    key: SkeletonKey,
    verdict: EngineResult<ProcessingStats>,
    log: PuLog,
}

/// Everything a skeleton run reads besides the configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SkeletonKey {
    intra: bool,
    dims: Dims,
    radius: usize,
    trace_limit: usize,
}

impl Skeletons {
    /// No skeleton results yet, for calls on an engine configured with
    /// `config`.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        Skeletons {
            config,
            entries: Vec::new(),
        }
    }

    /// The verdict of the skeleton `key` names, from `run` on its first
    /// request; publishes the skeleton's log through `probe` every time.
    fn replay(
        &mut self,
        key: SkeletonKey,
        probe: &PuProbe,
        run: impl FnOnce(&EngineConfig, &mut PuLog) -> EngineResult<ProcessingStats>,
    ) -> EngineResult<ProcessingStats> {
        let at = match self.entries.iter().position(|e| e.key == key) {
            Some(at) => at,
            None => {
                let mut log = PuLog::default();
                let verdict = run(&self.config, &mut log);
                self.entries.push(Skeleton { key, verdict, log });
                self.entries.len() - 1
            }
        };
        let entry = &self.entries[at];
        probe.publish(&entry.log);
        entry.verdict.clone()
    }
}

/// Fast-forward equivalent of
/// [`crate::process_unit::run_intra_detailed`] for a window of `radius`:
/// identical statistics, verdict and probe output, a fraction of the
/// simulated work. The timing skeleton runs once per geometry on
/// `skeletons`.
///
/// # Errors
///
/// The [`EngineError::PipelineHazard`](crate::error::EngineError::PipelineHazard)
/// of the cycle-stepped reference for configurations whose eviction gate
/// deadlocks the sweep.
pub fn run_intra_fast(
    skeletons: &mut Skeletons,
    dims: Dims,
    radius: usize,
    trace_limit: usize,
    probe: &PuProbe,
) -> EngineResult<ProcessingStats> {
    let key = SkeletonKey {
        intra: true,
        dims,
        radius,
        trace_limit,
    };
    skeletons.replay(key, probe, |config, log| {
        assert!(config.iim_lines > 0, "IIM needs at least one line block");
        let mut dp = IntraSkeleton {
            dims,
            radius,
            iim_lines: config.iim_lines,
            txu_line: 0,
            txu_x: 0,
            matrix_valid: false,
            matrix_loads: 0,
            matrix_shifts: 0,
        };
        let mut stats = run_phase(&mut dp, dims, config, trace_limit, Some(log))?;
        stats.matrix_loads = dp.matrix_loads;
        stats.matrix_shifts = dp.matrix_shifts;
        Ok(stats)
    })
}

/// The intra timing skeleton: indices only, with an O(1) mirror of the
/// IIM residency (lines `[txu_line − iim_lines, txu_line)`, see the
/// module doc). `window_ready` and `fills` are the predicates
/// `Iim::window_ready` / `Iim::can_accept` evaluate on the resident list.
struct IntraSkeleton {
    dims: Dims,
    radius: usize,
    iim_lines: usize,
    /// Transmission-unit position (the skeleton moves no line data).
    txu_line: usize,
    txu_x: usize,
    matrix_valid: bool,
    matrix_loads: u64,
    matrix_shifts: u64,
}

impl IntraSkeleton {
    /// Whether the TxU moves a pixel this cycle. The eviction victim
    /// `txu_line − iim_lines` must lie before `line − radius`, where
    /// `line = inflight_pixel / width`: that is
    /// `(victim + radius + 1) · width ≤ inflight_pixel`, with no division.
    fn fills(&self, inflight_pixel: usize) -> bool {
        self.txu_line < self.dims.height
            && (self.txu_line < self.iim_lines
                || (self.txu_line - self.iim_lines + self.radius + 1) * self.dims.width
                    <= inflight_pixel)
    }
}

impl Datapath for IntraSkeleton {
    const INTRA: bool = true;
    // Stage 3's result is implied by the index: the pixels come from the
    // software library.
    type Fetched = ();
    type Result = ();

    fn window_ready(&self, point: Point) -> bool {
        let r = self.radius as i32;
        let lo = (point.y - r).max(0) as usize;
        let hi = (point.y + r).min(self.dims.height as i32 - 1) as usize;
        hi < self.txu_line && lo >= self.txu_line.saturating_sub(self.iim_lines)
    }

    fn fetch(&mut self, _: usize, (_, fetch): (Point, FetchKind)) -> EngineResult<()> {
        match fetch {
            FetchKind::Shift if self.matrix_valid => self.matrix_shifts += 1,
            FetchKind::Load | FetchKind::Shift => self.matrix_loads += 1,
        }
        self.matrix_valid = true;
        Ok(())
    }

    fn execute(&mut self, _: usize, (): ()) {}

    fn txu<const HOOKS: bool>(
        &mut self,
        cycle: u64,
        inflight_pixel: usize,
        trace: &mut PuTrace<'_, HOOKS>,
    ) -> EngineResult<()> {
        if self.fills(inflight_pixel) {
            trace.txu_pixel(self.txu_line, self.txu_x, self.dims.width, cycle);
            self.txu_x += 1;
            if self.txu_x == self.dims.width {
                self.txu_line += 1;
                self.txu_x = 0;
            }
        }
        Ok(())
    }

    fn next_event(&self, now: u64, inflight_pixel: usize, oim: &Oim<()>) -> Option<u64> {
        // A fill is always the earliest possible event.
        if self.fills(inflight_pixel) {
            return Some(now + 1);
        }
        oim.next_pop(now)
    }
}

/// Fast-forward equivalent of
/// [`crate::process_unit::run_inter_detailed`]: identical statistics and
/// probe output. The timing skeleton runs once per geometry on
/// `skeletons`.
///
/// # Errors
///
/// Exactly those of the cycle-stepped reference's Process Unit, which
/// an inter call, unable to deadlock, never reaches.
pub fn run_inter_fast(
    skeletons: &mut Skeletons,
    dims: Dims,
    trace_limit: usize,
    probe: &PuProbe,
) -> EngineResult<ProcessingStats> {
    let key = SkeletonKey {
        intra: false,
        dims,
        radius: 0,
        trace_limit,
    };
    skeletons.replay(key, probe, |config, log| {
        run_phase(&mut InterSkeleton, dims, config, trace_limit, Some(log))
    })
}

/// The inter timing skeleton: every pixel pair is ready the cycle it is
/// issued, and only the OIM port wakes a pipeline at rest.
struct InterSkeleton;

impl Datapath for InterSkeleton {
    const INTRA: bool = false;
    type Fetched = ();
    type Result = ();

    fn fetch(&mut self, _: usize, _: (Point, FetchKind)) -> EngineResult<()> {
        Ok(())
    }

    fn execute(&mut self, _: usize, (): ()) {}

    fn next_event(&self, now: u64, _: usize, oim: &Oim<()>) -> Option<u64> {
        oim.next_pop(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::process_unit::{run_inter_detailed, run_intra_detailed};
    use crate::zbt::{ZbtMemory, ZbtRegion};
    use vip_core::accounting::AddressingMode;
    use vip_core::frame::Frame;
    use vip_core::ops::arith::AbsDiff;
    use vip_core::ops::filter::{BoxBlur, Identity, SobelGradient};
    use vip_core::ops::IntraOp;
    use vip_core::pixel::Pixel;

    fn load_input(zbt: &mut ZbtMemory, region: ZbtRegion, frame: &Frame) {
        for (i, px) in frame.pixels().iter().enumerate() {
            zbt.write_input_pixel(region, i, *px).unwrap();
        }
    }

    /// The outbound unload: reads the result back out of the banks.
    fn read_result(zbt: &mut ZbtMemory, dims: Dims) -> Frame {
        let total = dims.pixel_count();
        let pixels: Vec<Pixel> = (0..total)
            .map(|i| zbt.read_result_pixel(i, total).unwrap())
            .collect();
        Frame::from_pixels(dims, pixels).unwrap()
    }

    fn test_frame(dims: Dims) -> Frame {
        Frame::from_fn(dims, |p| {
            Pixel::from_luma(((p.x * 7 + p.y * 13) % 251) as u8).with_alpha((p.x + p.y) as u16)
        })
    }

    /// The stepped call with its unload, checked against the software
    /// result and the closed-form bank traffic, beside the fast-forward
    /// call.
    fn intra_both<O: IntraOp>(
        cfg: &EngineConfig,
        dims: Dims,
        op: &O,
        trace: usize,
    ) -> (EngineResult<ProcessingStats>, EngineResult<ProcessingStats>) {
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        zbt.reset_stats();
        let off = PuProbe::disabled();
        let stepped = run_intra_detailed(&mut zbt, dims, op, cfg, trace, &off);
        if stepped.is_ok() {
            let sw = vip_core::addressing::intra::run_intra(&frame, op).unwrap();
            assert_eq!(read_result(&mut zbt, dims), sw.output);
            assert_eq!(
                zbt.traffic(),
                zbt.call_traffic(AddressingMode::Intra, dims),
                "ZBT traffic diverged"
            );
        }
        let mut skeletons = Skeletons::new(cfg.clone());
        let fast = run_intra_fast(&mut skeletons, dims, op.shape().radius(), trace, &off);
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
        assert_eq!(stepped, fast);
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
            let mut zbt = ZbtMemory::new(&cfg);
            load_input(&mut zbt, ZbtRegion::InputA, &a);
            load_input(&mut zbt, ZbtRegion::InputB, &b);
            zbt.reset_stats();
            let stepped =
                run_inter_detailed(&mut zbt, dims, &AbsDiff::luma(), &cfg, 16, &off).unwrap();
            let sw = vip_core::addressing::inter::run_inter(&a, &b, &AbsDiff::luma()).unwrap();
            assert_eq!(read_result(&mut zbt, dims), sw.output);
            assert_eq!(zbt.traffic(), zbt.call_traffic(AddressingMode::Inter, dims));
            let mut skeletons = Skeletons::new(cfg.clone());
            let fast = run_inter_fast(&mut skeletons, dims, 16, &off).unwrap();
            assert_eq!(stepped, fast, "drain = {drain}");
        }
    }
}
