//! The Process Unit: the cycle-stepped 4-stage datapath (fig. 6).
//!
//! §3.5: stage 1 scans the image, stage 2 fills the matrix register from
//! the IIM (LOAD/SHIFT), stage 3 executes the pixel operation, stage 4
//! stores the result into the OIM. A transmission unit concurrently moves
//! lines ZBT → IIM, and the OIM drains to the ZBT result banks at half
//! the production rate (§3.1).
//!
//! [`run_intra_detailed`] and [`run_inter_detailed`] simulate one call
//! cycle by cycle; they are the reference that [`crate::fast`] and the
//! analytic model in [`crate::timing`] are validated against. Both
//! datapaths step a [`Pipeline`] through the same cycle loop, which
//! also publishes their trace through [`PuProbe`].

use vip_core::border::BorderPolicy;
use vip_core::geometry::{Dims, Point};
use vip_core::neighborhood::{Connectivity, Window};
use vip_core::ops::{InterOp, IntraOp};
use vip_core::pixel::Pixel;
use vip_obs::{Recorder, Track};

use crate::config::EngineConfig;
use crate::error::{EngineError, EngineResult};
use crate::iim::Iim;
use crate::matrix::MatrixRegister;
use crate::oim::Oim;
use crate::plc::{ControlFsm, Cycle, FetchKind, Pipeline, StageSnapshot, Stages, Stall};
use crate::zbt::{ZbtMemory, ZbtRegion};

/// Statistics of one detailed (cycle-stepped) processing phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ProcessingStats {
    /// Engine cycles from processing start until the last result pixel
    /// reached the ZBT.
    pub cycles: u64,
    /// Pixels produced.
    pub pixels: u64,
    /// Cycles the pipeline stalled on a missing IIM line.
    pub iim_stalls: u64,
    /// Cycles the pipeline stalled on a full OIM.
    pub oim_stalls: u64,
    /// Cycles every stage slot sat empty with nothing left to issue —
    /// the drain tail where only the OIM → ZBT port is still working.
    pub idle_cycles: u64,
    /// Matrix-register LOAD instructions.
    pub matrix_loads: u64,
    /// Matrix-register SHIFT instructions.
    pub matrix_shifts: u64,
    /// Largest OIM occupancy observed.
    pub oim_max_occupancy: usize,
    /// First cycles of the stage-occupancy trace (for the fig. 5 print).
    pub trace: Vec<StageSnapshot>,
}

impl ProcessingStats {
    /// Effective engine cycles per produced pixel.
    #[must_use]
    pub fn cycles_per_pixel(&self) -> f64 {
        if self.pixels == 0 {
            return 0.0;
        }
        self.cycles as f64 / self.pixels as f64
    }

    /// Cycles the pipeline actually advanced work. Stall, idle and busy
    /// cycles are mutually exclusive per-cycle classifications, so this
    /// complements the three counters exactly; the subtraction only
    /// saturates on hand-built inconsistent stats.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.cycles
            .saturating_sub(self.iim_stalls + self.oim_stalls + self.idle_cycles)
    }

    /// Charges `n` cycles of kind `cycle` to its counter; busy cycles are
    /// the complement and have none.
    pub(crate) fn count(&mut self, cycle: Cycle, n: u64) {
        match cycle {
            Cycle::Busy => {}
            Cycle::Idle => self.idle_cycles += n,
            Cycle::Stalled(Stall::Iim) => self.iim_stalls += n,
            Cycle::Stalled(Stall::Oim) => self.oim_stalls += n,
        }
    }
}

/// Shortest stall run worth a span of its own. The OIM drains at two
/// cycles per pixel, so a steady-state CIF call alternates produce /
/// stall every other cycle — tens of thousands of one-cycle bubbles that
/// would swamp the trace. Short runs still reach the aggregate stall
/// counters; only runs of at least this length become spans.
const MIN_STALL_RUN: u64 = 8;

/// Observability probe for the Process Unit datapaths: maps engine
/// cycles onto the session's virtual clock and publishes spans for line
/// fills, pipeline bubbles, line sweeps, and OIM occupancy. The stepped
/// and fast-forward loops feed it the same per-cycle hooks, so both
/// publish the same trace.
#[derive(Debug, Clone, Default)]
pub struct PuProbe {
    /// Where the spans go; disabled by default.
    recorder: Recorder,
    /// Virtual-clock time of processing-phase cycle 0, in nanoseconds.
    t0_ns: u64,
    /// Nanoseconds per engine cycle (`1e9 / engine_clock.hz`).
    ns_per_cycle: f64,
}

impl PuProbe {
    /// A probe publishing nothing (the default).
    #[must_use]
    pub fn disabled() -> Self {
        PuProbe::default()
    }

    /// A probe attached to `recorder` with the given timebase.
    #[must_use]
    pub fn new(recorder: Recorder, t0_ns: u64, ns_per_cycle: f64) -> Self {
        PuProbe {
            recorder,
            t0_ns,
            ns_per_cycle,
        }
    }

    /// Whether the probe publishes anything.
    pub(crate) fn is_enabled(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// Per-call probe state for one processing phase over `dims`.
    pub(crate) fn start<const HOOKS: bool>(&self, dims: Dims) -> PuTrace<'_, HOOKS> {
        PuTrace {
            probe: self,
            occupancy_every: dims.width.max(1) as u64,
            stall: None,
            stall_start: 0,
            fill_start: 0,
            sweep: None,
        }
    }

    /// Virtual-clock nanoseconds of engine cycle `cycle`.
    fn ts(&self, cycle: u64) -> u64 {
        self.t0_ns + (cycle as f64 * self.ns_per_cycle).round() as u64
    }
}

/// The hooks a datapath loop calls while it runs one processing phase.
/// With `HOOKS = false` every hook compiles to nothing; a disabled
/// recorder drops whatever the compiled-in hooks publish.
pub(crate) struct PuTrace<'a, const HOOKS: bool> {
    probe: &'a PuProbe,
    occupancy_every: u64,
    /// The open stall run and its first cycle.
    stall: Option<Stall>,
    stall_start: u64,
    /// First cycle of the IIM line being filled.
    fill_start: u64,
    /// The line being swept and its first cycle.
    sweep: Option<(i32, u64)>,
}

impl<const HOOKS: bool> PuTrace<'_, HOOKS> {
    /// The transmission unit moves pixel `x` of IIM line `line` on
    /// `cycle`: the line's `line_fill` span opens at its first pixel and
    /// closes at its last.
    #[inline]
    pub(crate) fn txu_pixel(&mut self, line: usize, x: usize, width: usize, cycle: u64) {
        if !HOOKS {
            return;
        }
        if x == 0 {
            self.fill_start = cycle;
        }
        if x + 1 == width {
            self.probe.recorder.span(
                Track::Iim,
                "line_fill",
                self.probe.ts(self.fill_start),
                self.probe.ts(cycle),
                &[("line", (line as u64).into())],
            );
        }
    }

    /// Stage 1 issues a pixel of line `line` on `cycle`; a change of
    /// line closes the previous line's `line_sweep` span.
    #[inline]
    pub(crate) fn issue(&mut self, line: i32, cycle: u64) {
        if !HOOKS {
            return;
        }
        match self.sweep {
            Some((open, start)) if open != line => {
                self.emit_sweep(open, start, cycle);
                self.sweep = Some((line, cycle));
            }
            None => self.sweep = Some((line, cycle)),
            Some(_) => {}
        }
    }

    /// Closes `cycle`: feeds its stall state to the run coalescer and
    /// samples OIM occupancy every `width` cycles.
    #[inline]
    pub(crate) fn end_cycle(&mut self, cycle: u64, stall: Option<Stall>, oim_occupancy: usize) {
        if !HOOKS {
            return;
        }
        self.stall_step(cycle, stall);
        if cycle.is_multiple_of(self.occupancy_every) {
            self.sample_occupancy(cycle, oim_occupancy);
        }
    }

    /// [`PuTrace::end_cycle`] for every cycle of `first..=last`, a
    /// stretch over which the stall state and OIM occupancy stay
    /// constant: one stall-run step, then the occupancy samples that fall
    /// inside the stretch.
    pub(crate) fn skip(
        &mut self,
        first: u64,
        last: u64,
        stall: Option<Stall>,
        oim_occupancy: usize,
    ) {
        if !HOOKS || first > last {
            return;
        }
        self.stall_step(first, stall);
        let every = self.occupancy_every;
        let mut cycle = first.div_ceil(every) * every;
        while cycle <= last {
            self.sample_occupancy(cycle, oim_occupancy);
            cycle += every;
        }
    }

    /// Ends the phase after `cycles` cycles: closes the open stall run
    /// and line sweep, then emits the enclosing `processing` span.
    pub(crate) fn finish(mut self, cycles: u64, stats: &ProcessingStats, pixels: usize) {
        if !HOOKS {
            return;
        }
        self.flush_stall(cycles);
        if let Some((line, start)) = self.sweep {
            self.emit_sweep(line, start, cycles);
        }
        let probe = self.probe;
        probe.recorder.span(
            Track::Pu,
            "processing",
            probe.ts(0),
            probe.ts(cycles),
            &[
                ("cycles", cycles.into()),
                ("pixels", (pixels as u64).into()),
                ("iim_stalls", stats.iim_stalls.into()),
                ("oim_stalls", stats.oim_stalls.into()),
            ],
        );
    }

    /// Coalesces per-cycle stall states into runs (`None` = the pipeline
    /// advanced or idled).
    fn stall_step(&mut self, cycle: u64, stall: Option<Stall>) {
        if self.stall == stall {
            return;
        }
        self.flush_stall(cycle);
        self.stall = stall;
        self.stall_start = cycle;
    }

    /// Closes the open stall run at `cycle` (exclusive), spanning it if
    /// it lasted at least [`MIN_STALL_RUN`] cycles.
    fn flush_stall(&mut self, cycle: u64) {
        if let Some(kind) = self.stall.take() {
            let run = cycle - self.stall_start;
            if run >= MIN_STALL_RUN {
                let name = match kind {
                    Stall::Iim => "iim_stall",
                    Stall::Oim => "oim_stall",
                };
                self.probe.recorder.span(
                    Track::Pu,
                    name,
                    self.probe.ts(self.stall_start),
                    self.probe.ts(cycle),
                    &[("cycles", run.into())],
                );
            }
        }
    }

    fn emit_sweep(&self, line: i32, start_cycle: u64, end_cycle: u64) {
        self.probe.recorder.span(
            Track::Plc,
            "line_sweep",
            self.probe.ts(start_cycle),
            self.probe.ts(end_cycle),
            &[("line", i64::from(line).into())],
        );
    }

    fn sample_occupancy(&self, cycle: u64, oim_occupancy: usize) {
        self.probe
            .recorder
            .counter(Track::Oim, "occupancy", self.probe.ts(cycle), oim_occupancy as f64);
    }
}

/// What one Process-Unit datapath does itself: stages 2 and 3, the
/// ZBT → IIM transmission unit (TxU) of an intra sweep, and where the
/// drained results go. [`run_phase`] supplies the rest, shared by all
/// four datapaths: the control FSM that issues (stage 1) and the OIM
/// that stage 4 stores into, with its port to the ZBT.
pub(crate) trait Datapath {
    /// An intra sweep: line fills extend the cycle bound, issues open
    /// `line_sweep` spans, and the pipeline starts empty. An inter sweep
    /// has no window to wait for, so pixel 0 is fetched on the first
    /// cycle.
    const INTRA: bool;
    /// What stage 2 hands to stage 3.
    type Fetched;
    /// What stage 3 hands to stage 4, and the OIM buffers.
    type Result;

    /// Whether every IIM line the window at `point` needs is resident.
    fn window_ready(&self, _point: Point) -> bool {
        true
    }

    /// Stage 2: fills the matrix register for `pixel` at `point`.
    fn fetch(&mut self, pixel: usize, scan: (Point, FetchKind)) -> EngineResult<Self::Fetched>;

    /// Stage 3: applies the operation.
    fn execute(&mut self, pixel: usize, fetched: Self::Fetched) -> Self::Result;

    /// The OIM port hands the result of `pixel` to the ZBT result banks.
    fn write_result(&mut self, _pixel: usize, _result: Self::Result) -> EngineResult<()> {
        Ok(())
    }

    /// One cycle of the TxU, which never evicts a line the window of
    /// `inflight_pixel` needs.
    fn txu<const HOOKS: bool>(
        &mut self,
        _cycle: u64,
        _inflight_pixel: usize,
        _trace: &mut PuTrace<'_, HOOKS>,
    ) -> EngineResult<()> {
        Ok(())
    }

    /// The first cycle after `now` on which the TxU or the `oim` port
    /// acts (`None`: never). The cycle-stepped datapaths answer
    /// `now + 1`: no skipping.
    fn next_event(&self, now: u64, _inflight: usize, _oim: &Oim<Self::Result>) -> Option<u64> {
        Some(now + 1)
    }
}

/// A datapath with the parts every datapath shares: the control FSM and
/// the OIM. This is what the [`Pipeline`] steps.
struct Unit<'d, D: Datapath> {
    dp: &'d mut D,
    fsm: ControlFsm,
    oim: Oim<D::Result>,
}

impl<D: Datapath> Stages for Unit<'_, D> {
    type Scan = (Point, FetchKind);
    type Fetched = D::Fetched;
    type Result = D::Result;

    fn oim_has_room(&self) -> bool {
        !self.oim.is_full()
    }

    fn window_ready(&self, &(point, _): &(Point, FetchKind)) -> bool {
        self.dp.window_ready(point)
    }

    fn has_next(&self) -> bool {
        self.fsm.has_next()
    }

    fn issue(&mut self) -> Option<(Point, FetchKind)> {
        self.fsm.next()
    }

    fn fetch(&mut self, pixel: usize, scan: (Point, FetchKind)) -> EngineResult<D::Fetched> {
        self.dp.fetch(pixel, scan)
    }

    fn execute(&mut self, pixel: usize, fetched: D::Fetched) -> D::Result {
        self.dp.execute(pixel, fetched)
    }

    fn store(&mut self, pixel: usize, result: D::Result) {
        self.oim.push(pixel, result);
    }
}

/// Runs the processing phase of a `dims` call on `dp`, cycle by cycle:
/// the OIM port and the TxU, then the pipeline stages 4 → 1. While the
/// pipeline is at rest and the stage trace is full, the clock jumps to
/// the next port event; each skipped cycle repeats the at-rest kind, so
/// it is counted as that kind and replayed to the probe in one step.
/// Fails with [`EngineError::PipelineHazard`] past the cycle bound (a
/// deadlocked eviction gate).
pub(crate) fn run_phase<D: Datapath>(
    dp: &mut D,
    dims: Dims,
    config: &EngineConfig,
    trace_limit: usize,
    probe: &PuProbe,
) -> EngineResult<ProcessingStats> {
    // An untraced call runs an instance with the probe hooks compiled out.
    let run = if probe.is_enabled() { phase::<D, true> } else { phase::<D, false> };
    run(dp, dims, config, trace_limit, probe)
}

fn phase<D: Datapath, const HOOKS: bool>(
    dp: &mut D,
    dims: Dims,
    config: &EngineConfig,
    trace_limit: usize,
    probe: &PuProbe,
) -> EngineResult<ProcessingStats> {
    let total = dims.pixel_count();
    // Generous safety bound: every pixel may stall a few times, and an
    // intra sweep waits for its line fills.
    let fills = if D::INTRA { (dims.height as u64 + 4) * dims.width as u64 } else { 0 };
    let bound = (total as u64 + 64) * (config.oim_drain_cycles_per_pixel + 6) + fills;
    let hazard = EngineError::PipelineHazard {
        detail: if D::INTRA {
            "intra processing exceeded its cycle bound"
        } else {
            "inter processing exceeded its cycle bound"
        },
    };
    let mut trace = probe.start::<HOOKS>(dims);
    let mut stats = ProcessingStats::default();
    let mut cycle = 0u64;
    let mut unit = Unit {
        dp,
        fsm: ControlFsm::new(dims),
        oim: Oim::new(
            config.oim_lines,
            dims.width,
            config.oim_drain_cycles_per_pixel,
        ),
    };
    let mut pipe = if D::INTRA {
        Pipeline::default()
    } else {
        Pipeline::primed(&mut unit)
    };

    while unit.oim.pops() < total {
        if stats.trace.len() >= trace_limit {
            if let Some(rest) = pipe.at_rest(&unit) {
                let occupancy = unit.oim.occupancy();
                let next = unit.dp.next_event(cycle, pipe.inflight_pixel(), &unit.oim);
                // Nothing acts again within the bound: the run stalls in
                // place until the bound trips.
                let Some(target) = next.filter(|&t| t <= bound) else {
                    trace.skip(cycle + 1, bound, rest.stall(), occupancy);
                    return Err(hazard);
                };
                let skipped = target - cycle - 1;
                if skipped > 0 {
                    trace.skip(cycle + 1, cycle + skipped, rest.stall(), occupancy);
                    unit.oim.idle(skipped);
                    stats.count(rest, skipped);
                    cycle += skipped;
                }
            }
        }

        cycle += 1;
        if cycle > bound {
            return Err(hazard);
        }
        if let Some((pixel, result)) = unit.oim.tick() {
            unit.dp.write_result(pixel, result)?;
        }
        unit.dp.txu(cycle, pipe.inflight_pixel(), &mut trace)?;
        let issued = pipe.issued();
        let kind = pipe.step(&mut unit)?;
        if HOOKS && D::INTRA && pipe.issued() > issued {
            trace.issue((issued / dims.width) as i32, cycle);
        }
        stats.count(kind, 1);
        if stats.trace.len() < trace_limit {
            stats.trace.push(pipe.snapshot());
        }
        trace.end_cycle(cycle, kind.stall(), unit.oim.occupancy());
    }

    trace.finish(cycle, &stats, total);
    stats.cycles = cycle;
    stats.pixels = total as u64;
    stats.oim_max_occupancy = unit.oim.max_occupancy();
    Ok(stats)
}

/// Runs the processing phase of an intra call cycle by cycle, publishing
/// IIM line fills, PLC line sweeps, coalesced stall runs, OIM occupancy
/// samples and one enclosing processing span through `probe`.
///
/// The input frame must already reside in the `region` input banks of
/// `zbt` (the DMA phase is modelled by [`crate::engine::AddressEngine`]).
/// Results land in the ZBT result banks.
///
/// # Errors
///
/// Propagates ZBT addressing errors; none occur for frames that passed
/// [`ZbtMemory::fits`].
pub fn run_intra_detailed<O: IntraOp>(
    zbt: &mut ZbtMemory,
    dims: Dims,
    op: &O,
    border: BorderPolicy,
    config: &EngineConfig,
    trace_limit: usize,
    probe: &PuProbe,
) -> EngineResult<ProcessingStats> {
    let square = square_shape(op.shape());
    let mut dp = IntraDatapath {
        zbt,
        op,
        dims,
        border,
        square,
        iim: Iim::new(config.iim_lines, dims.width),
        matrix: MatrixRegister::new(square),
        txu_line: 0,
        txu_buf: Vec::with_capacity(dims.width),
    };
    let mut stats = run_phase(&mut dp, dims, config, trace_limit, probe)?;
    stats.matrix_loads = dp.matrix.loads();
    stats.matrix_shifts = dp.matrix.shifts();
    Ok(stats)
}

/// The cycle-stepped intra datapath: the TxU fills IIM lines from the
/// ZBT, stage 2 fetches windows from the IIM into the matrix register,
/// stage 3 applies the operation.
struct IntraDatapath<'a, O> {
    zbt: &'a mut ZbtMemory,
    op: &'a O,
    dims: Dims,
    border: BorderPolicy,
    square: Connectivity,
    iim: Iim,
    matrix: MatrixRegister,
    /// The TxU's next line and the part of it read so far.
    txu_line: usize,
    txu_buf: Vec<Pixel>,
}

impl<O: IntraOp> Datapath for IntraDatapath<'_, O> {
    const INTRA: bool = true;
    type Fetched = (Point, Window);
    type Result = Pixel;

    fn window_ready(&self, point: Point) -> bool {
        self.iim.window_ready(point, self.square, self.dims)
    }

    fn fetch(&mut self, _: usize, scan: (Point, FetchKind)) -> EngineResult<(Point, Window)> {
        let (point, fetch) = scan;
        let samples = self
            .iim
            .fetch_window(point, self.square, self.dims, self.border);
        drive_matrix(&mut self.matrix, fetch, &samples, self.square);
        Ok((point, Window::from_samples(point, self.square, samples)))
    }

    fn execute(&mut self, _: usize, (point, window): (Point, Window)) -> Pixel {
        let shaped = Window::from_samples(point, self.op.shape(), window.iter());
        let mut out = window.sample(Point::ORIGIN).unwrap_or_default();
        out.merge_channels(self.op.apply(&shaped), self.op.output_channels());
        out
    }

    fn write_result(&mut self, pixel: usize, result: Pixel) -> EngineResult<()> {
        self.zbt
            .write_result_pixel(pixel, self.dims.pixel_count(), result)
            .map(drop)
    }

    fn txu<const HOOKS: bool>(
        &mut self,
        cycle: u64,
        inflight_pixel: usize,
        trace: &mut PuTrace<'_, HOOKS>,
    ) -> EngineResult<()> {
        // One pixel per cycle into the current line buffer.
        let width = self.dims.width;
        let needed_oldest = (inflight_pixel / width).saturating_sub(self.square.radius());
        if self.txu_line < self.dims.height && self.iim.can_accept(needed_oldest) {
            let x = self.txu_buf.len();
            let px = self
                .zbt
                .read_input_pixel(ZbtRegion::InputA, self.txu_line * width + x)?;
            trace.txu_pixel(self.txu_line, x, width, cycle);
            self.txu_buf.push(px);
            if x + 1 == width {
                self.iim.load_line(self.txu_line, &self.txu_buf);
                self.txu_buf.clear();
                self.txu_line += 1;
            }
        }
        Ok(())
    }
}

/// Runs the processing phase of an inter call cycle by cycle: stage 2
/// reads the pixel pair from both input regions in a single parallel-bank
/// cycle (no IIM windows needed). Publishes coalesced stall runs, OIM
/// occupancy samples and one enclosing processing span through `probe`
/// (inter mode bypasses the IIM, so no line fills).
///
/// # Errors
///
/// Propagates ZBT addressing errors.
pub fn run_inter_detailed<O: InterOp>(
    zbt: &mut ZbtMemory,
    dims: Dims,
    op: &O,
    config: &EngineConfig,
    trace_limit: usize,
    probe: &PuProbe,
) -> EngineResult<ProcessingStats> {
    let mut dp = InterDatapath {
        zbt,
        op,
        total: dims.pixel_count(),
    };
    run_phase(&mut dp, dims, config, trace_limit, probe)
}

/// The cycle-stepped inter datapath: stage 2 reads pixel pairs straight
/// from the paired ZBT input banks.
struct InterDatapath<'a, O> {
    zbt: &'a mut ZbtMemory,
    op: &'a O,
    total: usize,
}

impl<O: InterOp> Datapath for InterDatapath<'_, O> {
    const INTRA: bool = false;
    type Fetched = (Pixel, Pixel);
    type Result = Pixel;

    fn fetch(&mut self, pixel: usize, _: (Point, FetchKind)) -> EngineResult<(Pixel, Pixel)> {
        self.zbt.read_input_pair(pixel)
    }

    fn execute(&mut self, _: usize, (a, b): (Pixel, Pixel)) -> Pixel {
        let mut out = a;
        out.merge_channels(self.op.apply(a, b), self.op.output_channels());
        out
    }

    fn write_result(&mut self, pixel: usize, result: Pixel) -> EngineResult<()> {
        self.zbt
            .write_result_pixel(pixel, self.total, result)
            .map(drop)
    }
}

/// The full-square shape backing the matrix register for any sub-shape.
pub(crate) fn square_shape(shape: Connectivity) -> Connectivity {
    match shape.radius() {
        0 => Connectivity::Con0,
        1 => Connectivity::Con8,
        r => Connectivity::Square(r as u8),
    }
}

fn drive_matrix(
    matrix: &mut MatrixRegister,
    fetch: FetchKind,
    samples: &[(Point, Pixel)],
    square: Connectivity,
) {
    let r = square.radius() as i32;
    let side = (2 * r + 1) as usize;
    // Full-square fetches arrive in row-major offset order, so the cell
    // for (dx, dy) normally sits at a fixed index; fall back to a scan
    // when border skipping thinned the sample list.
    let sample_at = |dx: i32, dy: i32| -> Pixel {
        let idx = (dy + r) as usize * side + (dx + r) as usize;
        match samples.get(idx) {
            Some((o, p)) if o.x == dx && o.y == dy => *p,
            _ => samples
                .iter()
                .find(|(o, _)| o.x == dx && o.y == dy)
                .map(|(_, p)| *p)
                .unwrap_or_default(),
        }
    };
    match fetch {
        FetchKind::Load => {
            matrix.load_with(|col, row| sample_at(col as i32 - r, row as i32 - r));
        }
        FetchKind::Shift => {
            if matrix.is_valid() {
                matrix.shift_with(|row| sample_at(r, row as i32 - r));
            } else {
                matrix.load_with(|col, row| sample_at(col as i32 - r, row as i32 - r));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_core::frame::Frame;
    use vip_core::ops::arith::AbsDiff;
    use vip_core::ops::filter::{BoxBlur, Identity, SobelGradient};

    fn load_input(zbt: &mut ZbtMemory, region: ZbtRegion, frame: &Frame) {
        for (i, px) in frame.pixels().iter().enumerate() {
            zbt.write_input_pixel(region, i, *px).unwrap();
        }
    }

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

    /// An unprobed clamp-border intra call on the stepped datapath.
    fn stepped_intra<O: IntraOp>(
        zbt: &mut ZbtMemory,
        dims: Dims,
        op: &O,
        cfg: &EngineConfig,
        trace_limit: usize,
    ) -> EngineResult<ProcessingStats> {
        let probe = PuProbe::disabled();
        run_intra_detailed(zbt, dims, op, BorderPolicy::Clamp, cfg, trace_limit, &probe)
    }

    /// An unprobed AbsDiff inter call on the stepped datapath.
    fn stepped_inter(zbt: &mut ZbtMemory, dims: Dims, cfg: &EngineConfig) -> ProcessingStats {
        run_inter_detailed(zbt, dims, &AbsDiff::luma(), cfg, 0, &PuProbe::disabled()).unwrap()
    }

    #[test]
    fn intra_detailed_matches_software_boxblur() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(20, 12);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        let stats =
            stepped_intra(&mut zbt, dims, &BoxBlur::con8(), &cfg, 0)
                .unwrap();
        let hw = read_result(&mut zbt, dims);
        let sw = vip_core::addressing::intra::run_intra(&frame, &BoxBlur::con8())
            .unwrap()
            .output;
        assert_eq!(hw, sw, "hardware result must be bit-exact");
        assert_eq!(stats.pixels, 240);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn intra_detailed_matches_software_sobel() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(18, 10);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        stepped_intra(&mut zbt, dims, &SobelGradient::new(), &cfg, 0)
            .unwrap();
        let hw = read_result(&mut zbt, dims);
        let sw = vip_core::addressing::intra::run_intra(&frame, &SobelGradient::new())
            .unwrap()
            .output;
        assert_eq!(hw, sw);
    }

    #[test]
    fn inter_detailed_matches_software() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(16, 8);
        let a = test_frame(dims);
        let b = Frame::from_fn(dims, |p| Pixel::from_luma((p.x * 3) as u8));
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &a);
        load_input(&mut zbt, ZbtRegion::InputB, &b);
        stepped_inter(&mut zbt, dims, &cfg);
        let hw = read_result(&mut zbt, dims);
        let sw = vip_core::addressing::inter::run_inter(&a, &b, &AbsDiff::luma())
            .unwrap()
            .output;
        assert_eq!(hw, sw);
    }

    #[test]
    fn zbt_pixel_accesses_match_table2_hardware_model() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(16, 16);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        zbt.reset_stats();
        stepped_intra(&mut zbt, dims, &BoxBlur::con8(), &cfg, 0)
            .unwrap();
        // Exactly 2 pixel-access cycles per pixel: one TxU read, one
        // result write — the Table 2 hardware count.
        assert_eq!(zbt.pixel_access_cycles(), 2 * dims.pixel_count() as u64);
    }

    #[test]
    fn inter_zbt_accesses_also_two_per_pixel() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(8, 8);
        let a = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &a);
        load_input(&mut zbt, ZbtRegion::InputB, &a);
        zbt.reset_stats();
        stepped_inter(&mut zbt, dims, &cfg);
        assert_eq!(zbt.pixel_access_cycles(), 2 * 64);
    }

    #[test]
    fn drain_rate_governs_throughput() {
        // With drain = 2 cycles/pixel the steady state is ~2 cycles/pixel.
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(32, 16);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        let stats =
            stepped_intra(&mut zbt, dims, &Identity::luma(), &cfg, 0)
                .unwrap();
        let cpp = stats.cycles_per_pixel();
        assert!((2.0..2.6).contains(&cpp), "cycles/pixel = {cpp}");
    }

    #[test]
    fn matrix_instruction_mix() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(10, 6);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        let stats =
            stepped_intra(&mut zbt, dims, &BoxBlur::con8(), &cfg, 0)
                .unwrap();
        assert_eq!(stats.matrix_loads, 6, "one LOAD per line");
        assert_eq!(stats.matrix_shifts, (10 - 1) * 6);
    }

    #[test]
    fn trace_is_recorded_when_requested() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(6, 4);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        let stats =
            stepped_intra(&mut zbt, dims, &BoxBlur::con8(), &cfg, 30)
                .unwrap();
        assert_eq!(stats.trace.len(), 30);
        // The pipeline fills within a few cycles.
        assert!(stats.trace.iter().any(|s| s.occupancy() >= 2));
    }

    /// The two intra datapaths, under one signature.
    type IntraPath<O> = fn(
        &mut ZbtMemory,
        Dims,
        &O,
        BorderPolicy,
        &EngineConfig,
        usize,
        &PuProbe,
    ) -> EngineResult<ProcessingStats>;

    fn intra_paths<O: IntraOp>() -> [(&'static str, IntraPath<O>); 2] {
        [("stepped", run_intra_detailed), ("fast", crate::fast::run_intra_fast)]
    }

    #[test]
    fn probe_emits_iim_plc_pu_and_oim_events() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(20, 12);
        let frame = test_frame(dims);
        for (path, run) in intra_paths::<BoxBlur>() {
            let mut zbt = ZbtMemory::new(&cfg);
            load_input(&mut zbt, ZbtRegion::InputA, &frame);
            let session = vip_obs::Session::new();
            let ns_per_cycle = 1e9 / cfg.engine_clock.hz;
            let probe = PuProbe::new(session.recorder(), 5_000, ns_per_cycle);
            let stats = run(&mut zbt, dims, &BoxBlur::con8(), BorderPolicy::Clamp, &cfg, 0, &probe)
                .unwrap();
            let recording = session.finish();
            // One line_fill per image line, one line_sweep per swept line.
            assert_eq!(recording.on_track(Track::Iim).len(), dims.height, "{path}");
            assert_eq!(recording.on_track(Track::Plc).len(), dims.height, "{path}");
            let pu = recording.on_track(Track::Pu);
            let span = pu
                .iter()
                .find(|e| e.name == "processing")
                .unwrap_or_else(|| panic!("{path}: missing processing span"));
            assert!(!recording.on_track(Track::Oim).is_empty(), "{path}: no occupancy samples");
            // The processing span covers [t0, t0 + cycles × ns/cycle].
            assert_eq!(span.ts_ns, 5_000, "{path}");
            assert_eq!(
                span.end_ns(),
                5_000 + (stats.cycles as f64 * ns_per_cycle).round() as u64,
                "{path}"
            );
            // Short steady-state bubbles are coalesced away, never spanned.
            let stall_spans = pu.iter().filter(|e| e.name.ends_with("_stall")).count();
            assert!(
                stall_spans as u64 <= stats.oim_stalls + stats.iim_stalls,
                "{path}: more stall spans than stalls"
            );
        }
    }

    #[test]
    fn probe_results_identical_to_unprobed() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(16, 10);
        let frame = test_frame(dims);
        let op = SobelGradient::new();
        for (path, run) in intra_paths::<SobelGradient>() {
            let mut zbt = ZbtMemory::new(&cfg);
            load_input(&mut zbt, ZbtRegion::InputA, &frame);
            let plain = run(&mut zbt, dims, &op, BorderPolicy::Clamp, &cfg, 0, &PuProbe::disabled())
                .unwrap();
            let plain_out = read_result(&mut zbt, dims);

            let session = vip_obs::Session::new();
            let probe = PuProbe::new(session.recorder(), 0, 1.0);
            let mut zbt = ZbtMemory::new(&cfg);
            load_input(&mut zbt, ZbtRegion::InputA, &frame);
            let probed = run(&mut zbt, dims, &op, BorderPolicy::Clamp, &cfg, 0, &probe).unwrap();
            assert_eq!(plain, probed, "{path}: probing must not change the simulation");
            assert_eq!(plain_out, read_result(&mut zbt, dims), "{path}");
        }
    }

    #[test]
    fn inter_probe_emits_processing_span() {
        type InterPath = fn(
            &mut ZbtMemory,
            Dims,
            &AbsDiff,
            &EngineConfig,
            usize,
            &PuProbe,
        ) -> EngineResult<ProcessingStats>;
        let paths: [(&str, InterPath); 2] =
            [("stepped", run_inter_detailed), ("fast", crate::fast::run_inter_fast)];
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(16, 8);
        let a = test_frame(dims);
        for (path, run) in paths {
            let mut zbt = ZbtMemory::new(&cfg);
            load_input(&mut zbt, ZbtRegion::InputA, &a);
            load_input(&mut zbt, ZbtRegion::InputB, &a);
            let session = vip_obs::Session::new();
            let probe = PuProbe::new(session.recorder(), 0, 2.0);
            run(&mut zbt, dims, &AbsDiff::luma(), &cfg, 0, &probe).unwrap();
            let recording = session.finish();
            assert!(
                recording.on_track(Track::Pu).iter().any(|e| e.name == "processing"),
                "{path}: missing processing span"
            );
            assert!(recording.on_track(Track::Iim).is_empty(), "{path}: inter bypasses the IIM");
        }
    }

    #[test]
    fn tall_frame_exceeding_iim_capacity() {
        // More lines than the 16-line IIM: eviction gating must keep
        // results exact.
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(8, 40);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        stepped_intra(&mut zbt, dims, &BoxBlur::con8(), &cfg, 0)
            .unwrap();
        let hw = read_result(&mut zbt, dims);
        let sw = vip_core::addressing::intra::run_intra(&frame, &BoxBlur::con8())
            .unwrap()
            .output;
        assert_eq!(hw, sw);
    }

    #[test]
    fn large_radius_window() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(12, 12);
        let frame = test_frame(dims);
        let mut zbt = ZbtMemory::new(&cfg);
        load_input(&mut zbt, ZbtRegion::InputA, &frame);
        let op = vip_core::ops::filter::BoxBlur::with_radius(3).unwrap();
        stepped_intra(&mut zbt, dims, &op, &cfg, 0).unwrap();
        let hw = read_result(&mut zbt, dims);
        let sw = vip_core::addressing::intra::run_intra(&frame, &op).unwrap().output;
        assert_eq!(hw, sw);
    }
}
