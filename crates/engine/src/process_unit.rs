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

use vip_core::geometry::{Dims, Point};
use vip_core::neighborhood::Window;
use vip_core::ops::{InterOp, IntraOp};
use vip_core::pixel::Pixel;
use vip_obs::{Recorder, Track};

use crate::config::EngineConfig;
use crate::error::{EngineError, EngineResult};
use crate::iim::Iim;
use crate::oim::Oim;
use crate::plc::{ControlFsm, Cycle, FetchKind, Pipeline, StageSnapshot, Stages, Stall};
use crate::zbt::{ZbtMemory, ZbtRegion};

/// Statistics of one detailed (cycle-stepped) processing phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
/// cycles onto the session's virtual clock and publishes the spans a
/// processing phase logged: line fills, pipeline bubbles, line sweeps,
/// and OIM occupancy. The stepped and fast-forward loops feed the same
/// per-cycle hooks into one cycle-stamped log, so both publish the same
/// trace.
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

    /// Runs `phase` with a log when the probe publishes anything (and
    /// without one, hooks compiled out, when it does not), then publishes
    /// what it logged, whatever its verdict.
    pub(crate) fn record<T>(&self, phase: impl FnOnce(Option<&mut PuLog>) -> T) -> T {
        if !self.recorder.is_enabled() {
            return phase(None);
        }
        let mut log = PuLog::default();
        let out = phase(Some(&mut log));
        self.publish(&log);
        out
    }

    /// Publishes `log` on this probe's clock.
    pub(crate) fn publish(&self, log: &PuLog) {
        if !self.recorder.is_enabled() {
            return;
        }
        let rec = &self.recorder;
        for event in &log.events {
            match *event {
                PuEvent::LineFill { line, start, end } => rec.span(
                    Track::Iim,
                    "line_fill",
                    self.ts(start),
                    self.ts(end),
                    &[("line", (line as u64).into())],
                ),
                PuEvent::LineSweep { line, start, end } => rec.span(
                    Track::Plc,
                    "line_sweep",
                    self.ts(start),
                    self.ts(end),
                    &[("line", i64::from(line).into())],
                ),
                PuEvent::Stall { kind, start, end } => rec.span(
                    Track::Pu,
                    match kind {
                        Stall::Iim => "iim_stall",
                        Stall::Oim => "oim_stall",
                    },
                    self.ts(start),
                    self.ts(end),
                    &[("cycles", (end - start).into())],
                ),
                PuEvent::Occupancy { first, last, value } => {
                    let mut cycle = first;
                    while cycle <= last {
                        rec.counter(Track::Oim, "occupancy", self.ts(cycle), value as f64);
                        cycle += log.occupancy_every;
                    }
                }
                PuEvent::Processing {
                    cycles,
                    pixels,
                    iim_stalls,
                    oim_stalls,
                } => rec.span(
                    Track::Pu,
                    "processing",
                    self.ts(0),
                    self.ts(cycles),
                    &[
                        ("cycles", cycles.into()),
                        ("pixels", pixels.into()),
                        ("iim_stalls", iim_stalls.into()),
                        ("oim_stalls", oim_stalls.into()),
                    ],
                ),
            }
        }
    }

    /// Virtual-clock nanoseconds of engine cycle `cycle`.
    fn ts(&self, cycle: u64) -> u64 {
        self.t0_ns + (cycle as f64 * self.ns_per_cycle).round() as u64
    }
}

/// What the probe hooks of one processing phase logged, stamped in
/// engine cycles rather than on a clock, so a [`PuProbe`] can publish it
/// at any call's start time ([`PuProbe::publish`]).
#[derive(Debug, Default)]
pub(crate) struct PuLog {
    /// OIM occupancy sampling period in cycles (the frame width).
    occupancy_every: u64,
    events: Vec<PuEvent>,
}

/// One logged probe event, its times in engine cycles.
#[derive(Debug, Clone, Copy)]
enum PuEvent {
    /// An IIM `line_fill` span from the line's first pixel to its last.
    LineFill { line: usize, start: u64, end: u64 },
    /// A PLC `line_sweep` span.
    LineSweep { line: i32, start: u64, end: u64 },
    /// A PU stall-run span of `end − start` cycles.
    Stall { kind: Stall, start: u64, end: u64 },
    /// One OIM `occupancy` sample per sampling period in `first..=last`
    /// (`first` is a sampling cycle), all of the same value.
    Occupancy { first: u64, last: u64, value: usize },
    /// The enclosing PU `processing` span.
    Processing {
        cycles: u64,
        pixels: u64,
        iim_stalls: u64,
        oim_stalls: u64,
    },
}

/// The hooks a datapath loop calls while it runs one processing phase.
/// With `HOOKS = false` every hook compiles to nothing.
pub(crate) struct PuTrace<'a, const HOOKS: bool> {
    log: &'a mut PuLog,
    /// The open stall run and its first cycle.
    stall: Option<Stall>,
    stall_start: u64,
    /// First cycle of the IIM line being filled.
    fill_start: u64,
    /// The line being swept and its first cycle.
    sweep: Option<(i32, u64)>,
}

impl<'a, const HOOKS: bool> PuTrace<'a, HOOKS> {
    /// Per-call hook state for one processing phase over `dims`, logging
    /// into `log`.
    fn start(log: &'a mut PuLog, dims: Dims) -> Self {
        log.occupancy_every = dims.width.max(1) as u64;
        PuTrace {
            log,
            stall: None,
            stall_start: 0,
            fill_start: 0,
            sweep: None,
        }
    }

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
            self.log.events.push(PuEvent::LineFill {
                line,
                start: self.fill_start,
                end: cycle,
            });
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
        if cycle.is_multiple_of(self.log.occupancy_every) {
            self.sample_occupancy(cycle, cycle, oim_occupancy);
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
        let every = self.log.occupancy_every;
        let sample = first.div_ceil(every) * every;
        if sample <= last {
            self.sample_occupancy(sample, last, oim_occupancy);
        }
    }

    /// Ends the phase after `cycles` cycles: closes the open stall run
    /// and line sweep, then logs the enclosing `processing` span.
    pub(crate) fn finish(mut self, cycles: u64, stats: &ProcessingStats, pixels: usize) {
        if !HOOKS {
            return;
        }
        self.flush_stall(cycles);
        if let Some((line, start)) = self.sweep {
            self.emit_sweep(line, start, cycles);
        }
        self.log.events.push(PuEvent::Processing {
            cycles,
            pixels: pixels as u64,
            iim_stalls: stats.iim_stalls,
            oim_stalls: stats.oim_stalls,
        });
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
            if cycle - self.stall_start >= MIN_STALL_RUN {
                self.log.events.push(PuEvent::Stall {
                    kind,
                    start: self.stall_start,
                    end: cycle,
                });
            }
        }
    }

    fn emit_sweep(&mut self, line: i32, start: u64, end: u64) {
        self.log
            .events
            .push(PuEvent::LineSweep { line, start, end });
    }

    fn sample_occupancy(&mut self, first: u64, last: u64, value: usize) {
        self.log
            .events
            .push(PuEvent::Occupancy { first, last, value });
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
/// it is counted as that kind and logged in one step. With a `log` the
/// probe hooks are compiled in and record into it; without one they are
/// compiled out. Fails with [`EngineError::PipelineHazard`] past the
/// cycle bound (a deadlocked eviction gate).
pub(crate) fn run_phase<D: Datapath>(
    dp: &mut D,
    dims: Dims,
    config: &EngineConfig,
    trace_limit: usize,
    log: Option<&mut PuLog>,
) -> EngineResult<ProcessingStats> {
    match log {
        Some(log) => phase::<D, true>(dp, dims, config, trace_limit, log),
        None => phase::<D, false>(dp, dims, config, trace_limit, &mut PuLog::default()),
    }
}

fn phase<D: Datapath, const HOOKS: bool>(
    dp: &mut D,
    dims: Dims,
    config: &EngineConfig,
    trace_limit: usize,
    log: &mut PuLog,
) -> EngineResult<ProcessingStats> {
    let total = dims.pixel_count();
    // Generous safety bound: every pixel may stall a few times, and an
    // intra sweep waits for its line fills.
    let fills = if D::INTRA {
        (dims.height as u64 + 4) * dims.width as u64
    } else {
        0
    };
    let bound = (total as u64 + 64) * (config.oim_drain_cycles_per_pixel + 6) + fills;
    let hazard = EngineError::PipelineHazard {
        detail: if D::INTRA {
            "intra processing exceeded its cycle bound"
        } else {
            "inter processing exceeded its cycle bound"
        },
    };
    let mut trace = PuTrace::<HOOKS>::start(log, dims);
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
///
/// # Panics
///
/// Panics for a shape wider than nine lines, which
/// [`AddressEngine::run_intra`](crate::engine::AddressEngine::run_intra)
/// rejects before it gets here.
pub fn run_intra_detailed<O: IntraOp>(
    zbt: &mut ZbtMemory,
    dims: Dims,
    op: &O,
    config: &EngineConfig,
    trace_limit: usize,
    probe: &PuProbe,
) -> EngineResult<ProcessingStats> {
    let mut dp = IntraDatapath {
        zbt,
        op,
        dims,
        iim: Iim::new(config.iim_lines, dims.width),
        matrix: Window::from_samples(Point::ORIGIN, op.shape(), []),
        matrix_loads: 0,
        matrix_shifts: 0,
        txu_line: 0,
        txu_buf: Vec::with_capacity(dims.width),
    };
    let mut stats = probe.record(|log| run_phase(&mut dp, dims, config, trace_limit, log))?;
    stats.matrix_loads = dp.matrix_loads;
    stats.matrix_shifts = dp.matrix_shifts;
    Ok(stats)
}

/// The cycle-stepped intra datapath: the TxU fills IIM lines from the
/// ZBT, stage 2 LOADs or SHIFTs the matrix register from the lines the
/// IIM hands over, stage 3 applies the operation to the matrix register.
///
/// Stage 3 needs no window of its own: a [`Pipeline`] cycle executes
/// before it fetches, and an OIM stall holds stages 2–4 together, so
/// when stage 3 runs, the register still holds the window stage 2
/// filled for that pixel.
struct IntraDatapath<'a, O> {
    zbt: &'a mut ZbtMemory,
    op: &'a O,
    dims: Dims,
    iim: Iim,
    /// The matrix register, of the operation's shape.
    matrix: Window,
    /// LOAD and SHIFT instructions stage 2 executed.
    matrix_loads: u64,
    matrix_shifts: u64,
    /// The TxU's next line and the part of it read so far.
    txu_line: usize,
    txu_buf: Vec<Pixel>,
}

impl<O: IntraOp> Datapath for IntraDatapath<'_, O> {
    const INTRA: bool = true;
    type Fetched = Point;
    type Result = Pixel;

    fn window_ready(&self, point: Point) -> bool {
        self.iim.window_ready(point, self.op.shape(), self.dims)
    }

    fn fetch(&mut self, _: usize, (point, fetch): (Point, FetchKind)) -> EngineResult<Point> {
        let shape = self.op.shape();
        let lines = self.iim.fetch_lines(point, shape, self.dims);
        let lines = &lines[..shape.lines()];
        match fetch {
            FetchKind::Load => {
                self.matrix = Window::load(point, shape, lines);
                self.matrix_loads += 1;
            }
            FetchKind::Shift => {
                self.matrix.shift(lines);
                self.matrix_shifts += 1;
                assert_eq!(
                    self.matrix.centre(),
                    point,
                    "SHIFT must move the matrix register onto the fetched pixel"
                );
            }
        }
        Ok(point)
    }

    fn execute(&mut self, _: usize, point: Point) -> Pixel {
        debug_assert_eq!(
            self.matrix.centre(),
            point,
            "stage 3 reads stage 2's window"
        );
        let mut out = self.matrix.centre_pixel();
        out.merge_channels(self.op.apply(&self.matrix), self.op.output_channels());
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
        let needed_oldest = (inflight_pixel / width).saturating_sub(self.op.shape().radius());
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
    probe.record(|log| run_phase(&mut dp, dims, config, trace_limit, log))
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

    /// An unprobed intra call on the stepped datapath.
    fn stepped_intra<O: IntraOp>(
        zbt: &mut ZbtMemory,
        dims: Dims,
        op: &O,
        cfg: &EngineConfig,
        trace_limit: usize,
    ) -> EngineResult<ProcessingStats> {
        let probe = PuProbe::disabled();
        run_intra_detailed(zbt, dims, op, cfg, trace_limit, &probe)
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
        let stats = stepped_intra(&mut zbt, dims, &BoxBlur::con8(), &cfg, 0).unwrap();
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
        stepped_intra(&mut zbt, dims, &SobelGradient::new(), &cfg, 0).unwrap();
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
        stepped_intra(&mut zbt, dims, &BoxBlur::con8(), &cfg, 0).unwrap();
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
        let stats = stepped_intra(&mut zbt, dims, &Identity::luma(), &cfg, 0).unwrap();
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
        let stats = stepped_intra(&mut zbt, dims, &BoxBlur::con8(), &cfg, 0).unwrap();
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
        let stats = stepped_intra(&mut zbt, dims, &BoxBlur::con8(), &cfg, 30).unwrap();
        assert_eq!(stats.trace.len(), 30);
        // The pipeline fills within a few cycles.
        assert!(stats.trace.iter().any(|s| s.occupancy() >= 2));
    }

    /// The two datapaths: whether each is the fast-forward one.
    const PATHS: [(&str, bool); 2] = [("stepped", false), ("fast", true)];

    /// One intra call with no stage trace on the stepped or
    /// the fast-forward datapath (which leaves `zbt` untouched).
    fn intra_path<O: IntraOp>(
        fast: bool,
        zbt: &mut ZbtMemory,
        dims: Dims,
        op: &O,
        cfg: &EngineConfig,
        probe: &PuProbe,
    ) -> EngineResult<ProcessingStats> {
        if fast {
            let skeletons = &mut crate::fast::Skeletons::new(cfg.clone());
            crate::fast::run_intra_fast(skeletons, dims, op.shape().radius(), 0, probe)
        } else {
            run_intra_detailed(zbt, dims, op, cfg, 0, probe)
        }
    }

    #[test]
    fn probe_emits_iim_plc_pu_and_oim_events() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(20, 12);
        let frame = test_frame(dims);
        for (path, fast) in PATHS {
            let mut zbt = ZbtMemory::new(&cfg);
            load_input(&mut zbt, ZbtRegion::InputA, &frame);
            let session = vip_obs::Session::new();
            let ns_per_cycle = 1e9 / cfg.engine_clock.hz;
            let probe = PuProbe::new(session.recorder(), 5_000, ns_per_cycle);
            let stats = intra_path(fast, &mut zbt, dims, &BoxBlur::con8(), &cfg, &probe).unwrap();
            let recording = session.finish();
            // One line_fill per image line, one line_sweep per swept line.
            assert_eq!(recording.on_track(Track::Iim).len(), dims.height, "{path}");
            assert_eq!(recording.on_track(Track::Plc).len(), dims.height, "{path}");
            let pu = recording.on_track(Track::Pu);
            let span = pu
                .iter()
                .find(|e| e.name == "processing")
                .unwrap_or_else(|| panic!("{path}: missing processing span"));
            assert!(
                !recording.on_track(Track::Oim).is_empty(),
                "{path}: no occupancy samples"
            );
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
        for (path, fast) in PATHS {
            let mut zbt = ZbtMemory::new(&cfg);
            load_input(&mut zbt, ZbtRegion::InputA, &frame);
            let plain = intra_path(fast, &mut zbt, dims, &op, &cfg, &PuProbe::disabled()).unwrap();
            let plain_out = read_result(&mut zbt, dims);

            let session = vip_obs::Session::new();
            let probe = PuProbe::new(session.recorder(), 0, 1.0);
            let mut zbt = ZbtMemory::new(&cfg);
            load_input(&mut zbt, ZbtRegion::InputA, &frame);
            let probed = intra_path(fast, &mut zbt, dims, &op, &cfg, &probe).unwrap();
            assert_eq!(
                plain, probed,
                "{path}: probing must not change the simulation"
            );
            // Only the stepped datapath moves pixels through the banks.
            if !fast {
                assert_eq!(plain_out, read_result(&mut zbt, dims), "{path}");
            }
        }
    }

    #[test]
    fn inter_probe_emits_processing_span() {
        let cfg = EngineConfig::prototype_detailed();
        let dims = Dims::new(16, 8);
        let a = test_frame(dims);
        for (path, fast) in PATHS {
            let mut zbt = ZbtMemory::new(&cfg);
            load_input(&mut zbt, ZbtRegion::InputA, &a);
            load_input(&mut zbt, ZbtRegion::InputB, &a);
            let session = vip_obs::Session::new();
            let probe = PuProbe::new(session.recorder(), 0, 2.0);
            if fast {
                let skeletons = &mut crate::fast::Skeletons::new(cfg.clone());
                crate::fast::run_inter_fast(skeletons, dims, 0, &probe)
            } else {
                run_inter_detailed(&mut zbt, dims, &AbsDiff::luma(), &cfg, 0, &probe)
            }
            .unwrap();
            let recording = session.finish();
            assert!(
                recording
                    .on_track(Track::Pu)
                    .iter()
                    .any(|e| e.name == "processing"),
                "{path}: missing processing span"
            );
            assert!(
                recording.on_track(Track::Iim).is_empty(),
                "{path}: inter bypasses the IIM"
            );
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
        stepped_intra(&mut zbt, dims, &BoxBlur::con8(), &cfg, 0).unwrap();
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
        let sw = vip_core::addressing::intra::run_intra(&frame, &op)
            .unwrap()
            .output;
        assert_eq!(hw, sw);
    }

    /// The clamped intra call by its per-pixel definition: each window is
    /// built sample by sample from the clamped offset points, sharing no
    /// code with the LOAD/SHIFT of the matrix register.
    fn per_pixel_reference(frame: &Frame, op: &impl IntraOp) -> Frame {
        let dims = frame.dims();
        Frame::from_fn(dims, |p| {
            let samples = op
                .shape()
                .offsets_iter()
                .map(|off| (off, frame.get(dims.clamp(p + off).unwrap())));
            let mut out = frame.get(p);
            out.merge_channels(
                op.apply(&Window::from_samples(p, op.shape(), samples)),
                op.output_channels(),
            );
            out
        })
    }

    #[test]
    fn stepped_matches_per_pixel_reference() {
        use vip_core::neighborhood::Connectivity;
        use vip_core::ops::morph::Dilate;
        use vip_core::ops::rank::Median;
        let cfg = EngineConfig::prototype_detailed();
        for dims in [Dims::new(9, 7), Dims::new(3, 11), Dims::new(17, 2)] {
            let frame = test_frame(dims);
            let check = |op: &dyn IntraOp| {
                let mut zbt = ZbtMemory::new(&cfg);
                load_input(&mut zbt, ZbtRegion::InputA, &frame);
                stepped_intra(&mut zbt, dims, &op, &cfg, 0).unwrap();
                assert_eq!(
                    read_result(&mut zbt, dims),
                    per_pixel_reference(&frame, &op),
                    "{} {} on {dims}",
                    op.name(),
                    op.shape()
                );
            };
            check(&Dilate::con4());
            check(&SobelGradient::new());
            check(&Median::with_shape(Connectivity::Square(2)));
            check(&BoxBlur::with_radius(4).unwrap());
        }
    }
}
