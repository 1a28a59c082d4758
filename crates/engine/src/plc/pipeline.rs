//! The start-pipeline: the pixel bundles in flight between the four
//! Process-Unit stages (§3.2, §3.5).
//!
//! §3.2: *"the startpipeline deals with the correct order of the execution
//! of the instructions allowing us also to have instructions of different
//! pixel-cycles in the different stages of the Process Unit"*. A
//! [`Pipeline`] cycle runs store → execute → fetch → issue, so a bundle
//! enters a stage on the cycle its predecessor leaves it. A full OIM
//! holds stages 2–4 (§3.3: the image-level controller *"will disable the
//! pixel level controller"*) while stage 1 may still issue; a missing
//! IIM line holds only stage 2, so stages 3 and 4 keep draining. One
//! bundle per stage, each stage on its own datapath resource, is the
//! §3.2 arbiter's guarantee. What the stages *do* comes from [`Stages`]:
//! windows and pixels in the cycle-stepped datapath, bare indices in the
//! fast-forward one, free inputs in `vip-check`'s proof.

use crate::error::EngineResult;

/// Why the pipeline held a stage on a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// A stage-2 window fetch found a needed IIM line missing.
    Iim,
    /// Stage 4 found the OIM full.
    Oim,
}

/// How a cycle counts in the processing statistics. Exclusive: an idle
/// cycle moves nothing, a stall is charged to one memory, and every
/// other cycle moves some bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cycle {
    /// Some bundle moved and no stage was held.
    Busy,
    /// Every slot empty at cycle start, with nothing left to issue.
    Idle,
    /// A stage was held (other stages may still have moved).
    Stalled(Stall),
}

impl Cycle {
    /// The stall of a stalled cycle.
    #[must_use]
    pub const fn stall(self) -> Option<Stall> {
        match self {
            Cycle::Stalled(stall) => Some(stall),
            Cycle::Busy | Cycle::Idle => None,
        }
    }
}

/// Occupancy of the four stages in one cycle, for pipeline traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageSnapshot {
    /// The pixel index occupying each stage (`None` = bubble). A bundle
    /// is stored on the cycle it leaves stage 3, so stage 4 always
    /// reads as a bubble.
    pub slots: [Option<usize>; 4],
}

impl StageSnapshot {
    /// Number of occupied stages.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// The stage actions of a [`Pipeline`] and the three per-cycle conditions
/// that gate them. An action runs only after its condition held on the
/// same cycle.
pub trait Stages {
    /// What stage 1 hands to stage 2.
    type Scan;
    /// What stage 2 hands to stage 3.
    type Fetched;
    /// What stage 3 hands to stage 4.
    type Result;

    /// Whether the OIM can take a result.
    fn oim_has_room(&self) -> bool;
    /// Whether every IIM line the window of `scan` needs is resident
    /// (always, for a sweep without windows).
    fn window_ready(&self, _scan: &Self::Scan) -> bool {
        true
    }
    /// Whether the control FSM has another pixel.
    fn has_next(&self) -> bool;
    /// Stage 1: the control FSM's next pixel.
    fn issue(&mut self) -> Option<Self::Scan>;
    /// Stage 2: fills the matrix register for `pixel`.
    ///
    /// # Errors
    ///
    /// Whatever the datapath's memory reads return.
    fn fetch(&mut self, pixel: usize, scan: Self::Scan) -> EngineResult<Self::Fetched>;
    /// Stage 3: applies the operation.
    fn execute(&mut self, pixel: usize, fetched: Self::Fetched) -> Self::Result;
    /// Stage 4: pushes the result into the OIM.
    fn store(&mut self, pixel: usize, result: Self::Result);
}

/// The in-order Process-Unit pipeline, generic over the payload of each
/// stage slot. Bundles are numbered in issue order: the pixel index.
#[derive(Debug, Clone)]
pub struct Pipeline<S, F, E> {
    scan: Option<(usize, S)>,
    fetch: Option<(usize, F)>,
    exec: Option<(usize, E)>,
    issued: usize,
}

impl<S, F, E> Default for Pipeline<S, F, E> {
    fn default() -> Self {
        Pipeline {
            scan: None,
            fetch: None,
            exec: None,
            issued: 0,
        }
    }
}

impl<S, F, E> Pipeline<S, F, E> {
    /// A pipeline with pixel 0 already in the scan slot at cycle 0, as an
    /// inter sweep has it: with no window to wait for, the parallel-bank
    /// read fetches a pixel on the cycle it is issued.
    pub fn primed<D: Stages<Scan = S, Fetched = F, Result = E>>(stages: &mut D) -> Self {
        let mut pipeline = Self::default();
        pipeline.issue(stages);
        pipeline
    }

    /// Bundles issued so far.
    #[must_use]
    pub const fn issued(&self) -> usize {
        self.issued
    }

    /// The oldest pixel whose window the IIM must keep: the one in stage
    /// 2, else the one in stage 1, else the next to issue. The
    /// transmission unit's eviction gate reads its line.
    #[must_use]
    pub fn inflight_pixel(&self) -> usize {
        match (&self.fetch, &self.scan) {
            (Some((pixel, _)), _) | (None, Some((pixel, _))) => *pixel,
            (None, None) => self.issued,
        }
    }

    /// The fig. 5 stage-occupancy sample.
    #[must_use]
    pub fn snapshot(&self) -> StageSnapshot {
        let (scan, fetch, exec) = (&self.scan, &self.fetch, &self.exec);
        StageSnapshot {
            slots: [
                scan.as_ref().map(|s| s.0),
                fetch.as_ref().map(|f| f.0),
                exec.as_ref().map(|e| e.0),
                None,
            ],
        }
    }

    /// The kind the next [`Pipeline::step`] records if it moves nothing,
    /// or `None` if it moves a bundle. While this is `Some` and the
    /// conditions hold still, every cycle repeats that kind: the query
    /// behind the fast-forward clock skip.
    #[inline(always)]
    pub fn at_rest<D: Stages<Scan = S, Fetched = F, Result = E>>(
        &self,
        stages: &D,
    ) -> Option<Cycle> {
        if self.scan.is_none() && stages.has_next() {
            return None;
        }
        match (&self.scan, &self.fetch, &self.exec) {
            (_, _, Some(_)) => (!stages.oim_has_room()).then_some(Cycle::Stalled(Stall::Oim)),
            (_, Some(_), None) => None,
            (Some((_, scan)), None, None) => {
                (!stages.window_ready(scan)).then_some(Cycle::Stalled(Stall::Iim))
            }
            (None, None, None) => Some(Cycle::Idle),
        }
    }

    /// Runs one cycle: store → execute → fetch → issue.
    ///
    /// # Errors
    ///
    /// Whatever [`Stages::fetch`] returns.
    // Forced inline: the cycle loop runs this every simulated cycle, and
    // with a plain `#[inline]` the fast-forward skeleton measured slower.
    #[inline(always)]
    pub fn step<D: Stages<Scan = S, Fetched = F, Result = E>>(
        &mut self,
        stages: &mut D,
    ) -> EngineResult<Cycle> {
        // Idle is the cycle-start state: nothing in flight, nothing to issue.
        let empty = self.scan.is_none() && self.fetch.is_none() && self.exec.is_none();
        let mut cycle = if empty && !stages.has_next() {
            Cycle::Idle
        } else {
            Cycle::Busy
        };
        // Stage 4: a full OIM keeps the result and holds stages 2-4.
        if let Some((pixel, result)) = self.exec.take() {
            if !stages.oim_has_room() {
                self.exec = Some((pixel, result));
                self.issue(stages);
                return Ok(Cycle::Stalled(Stall::Oim));
            }
            stages.store(pixel, result);
        }
        // Stage 3 is single-cycle; stage 2 waits for a resident window.
        if let Some((pixel, fetched)) = self.fetch.take() {
            self.exec = Some((pixel, stages.execute(pixel, fetched)));
        }
        if let Some((pixel, scan)) = self.scan.take_if(|(_, scan)| stages.window_ready(scan)) {
            self.fetch = Some((pixel, stages.fetch(pixel, scan)?));
        } else if self.scan.is_some() {
            cycle = Cycle::Stalled(Stall::Iim);
        }
        self.issue(stages);
        Ok(cycle)
    }

    /// Stage 1: issues the next pixel into an empty scan slot.
    #[inline(always)]
    fn issue<D: Stages<Scan = S, Fetched = F, Result = E>>(&mut self, stages: &mut D) {
        if self.scan.is_none() {
            if let Some(scan) = stages.issue() {
                self.scan = Some((self.issued, scan));
                self.issued += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stages driven by fixed conditions, recording every stored pixel.
    struct Fixed {
        room: bool,
        ready: bool,
        remaining: usize,
        stored: Vec<usize>,
    }

    impl Fixed {
        fn new(pixels: usize) -> Self {
            Fixed {
                room: true,
                ready: true,
                remaining: pixels,
                stored: Vec::new(),
            }
        }
    }

    impl Stages for Fixed {
        type Scan = ();
        type Fetched = ();
        type Result = ();
        fn oim_has_room(&self) -> bool {
            self.room
        }
        fn window_ready(&self, (): &()) -> bool {
            self.ready
        }
        fn has_next(&self) -> bool {
            self.remaining > 0
        }
        fn issue(&mut self) -> Option<()> {
            self.remaining = self.remaining.checked_sub(1)?;
            Some(())
        }
        fn fetch(&mut self, _: usize, (): ()) -> EngineResult<()> {
            Ok(())
        }
        fn execute(&mut self, _: usize, (): ()) {}
        fn store(&mut self, pixel: usize, (): ()) {
            self.stored.push(pixel);
        }
    }

    type Bare = Pipeline<(), (), ()>;

    fn slots(p: &Bare) -> [Option<usize>; 4] {
        p.snapshot().slots
    }

    #[test]
    fn fills_and_retires_in_order() {
        let mut p = Bare::default();
        let mut env = Fixed::new(6);
        let kinds: Vec<Cycle> = (0..11).map(|_| p.step(&mut env).unwrap()).collect();
        // Pixel 5 issues on cycle 6 and is stored on cycle 9.
        assert_eq!(env.stored, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(p.snapshot().occupancy(), 0);
        assert_eq!(kinds[..9], [Cycle::Busy; 9]);
        assert_eq!(kinds[9..], [Cycle::Idle; 2]);
    }

    #[test]
    fn overlap_all_stages_occupied() {
        let mut p = Bare::default();
        let mut env = Fixed::new(8);
        for _ in 0..3 {
            p.step(&mut env).unwrap();
        }
        assert_eq!(p.snapshot().occupancy(), 3, "three pixel-cycles in flight");
        assert_eq!(slots(&p), [Some(2), Some(1), Some(0), None]);
        // The next cycle stores pixel 0 while the others each move one stage.
        p.step(&mut env).unwrap();
        assert_eq!(env.stored, vec![0]);
        assert_eq!(slots(&p), [Some(3), Some(2), Some(1), None]);
    }

    #[test]
    fn drain_empties_pipeline() {
        let mut p = Bare::default();
        let mut env = Fixed::new(1);
        for _ in 0..4 {
            assert_eq!(p.step(&mut env).unwrap(), Cycle::Busy);
        }
        assert_eq!(p.snapshot().occupancy(), 0);
        assert_eq!(env.stored, vec![0]);
        assert_eq!(p.at_rest(&env), Some(Cycle::Idle));
    }

    #[test]
    fn stall_counts_without_moving() {
        let mut p = Bare::default();
        let mut env = Fixed::new(8);
        for _ in 0..3 {
            p.step(&mut env).unwrap();
        }
        // A full OIM holds stages 2-4; the scan slot is already occupied.
        env.room = false;
        let before = slots(&p);
        assert_eq!(p.at_rest(&env), Some(Cycle::Stalled(Stall::Oim)));
        assert_eq!(p.step(&mut env).unwrap(), Cycle::Stalled(Stall::Oim));
        assert_eq!(slots(&p), before, "no movement");
        assert!(env.stored.is_empty());
    }

    #[test]
    fn iim_stall_lets_later_stages_drain() {
        let mut p = Bare::default();
        let mut env = Fixed::new(8);
        for _ in 0..3 {
            p.step(&mut env).unwrap();
        }
        env.ready = false;
        assert_eq!(p.step(&mut env).unwrap(), Cycle::Stalled(Stall::Iim));
        assert_eq!(
            slots(&p),
            [Some(2), None, Some(1), None],
            "stage 3 moved on"
        );
        assert_eq!(p.step(&mut env).unwrap(), Cycle::Stalled(Stall::Iim));
        assert_eq!(slots(&p), [Some(2), None, None, None]);
        assert_eq!(env.stored, vec![0, 1]);
        assert_eq!(p.at_rest(&env), Some(Cycle::Stalled(Stall::Iim)));
    }

    #[test]
    fn issue_waits_for_the_scan_slot() {
        // Stage 1 issues only into an empty scan slot, even when the FSM
        // has more pixels: a window stall leaves pixel 0 where it is.
        let mut p = Bare::default();
        let mut env = Fixed::new(4);
        env.ready = false;
        p.step(&mut env).unwrap();
        p.step(&mut env).unwrap();
        assert_eq!(slots(&p), [Some(0), None, None, None]);
        assert_eq!(p.issued(), 1);
        assert_eq!(env.remaining, 3);
    }

    #[test]
    fn issue_then_advance_same_cycle_order() {
        // Pixel 0 leaves the scan slot on the cycle pixel 1 enters it.
        let mut p = Bare::default();
        let mut env = Fixed::new(4);
        p.step(&mut env).unwrap();
        assert_eq!(slots(&p), [Some(0), None, None, None]);
        p.step(&mut env).unwrap();
        assert_eq!(slots(&p), [Some(1), Some(0), None, None]);
    }

    #[test]
    fn oim_stall_still_issues_into_an_empty_scan_slot() {
        let mut p = Bare::default();
        let mut env = Fixed::new(2);
        for _ in 0..3 {
            p.step(&mut env).unwrap();
        }
        assert_eq!(slots(&p), [None, Some(1), Some(0), None]);
        env.room = false;
        env.remaining = 1;
        assert_eq!(p.at_rest(&env), None, "stage 1 will issue");
        assert_eq!(p.step(&mut env).unwrap(), Cycle::Stalled(Stall::Oim));
        assert_eq!(slots(&p), [Some(2), Some(1), Some(0), None]);
    }

    #[test]
    fn primed_pipeline_holds_pixel_zero_at_cycle_zero() {
        let mut env = Fixed::new(3);
        let p = Bare::primed(&mut env);
        assert_eq!(slots(&p), [Some(0), None, None, None]);
        assert_eq!(p.inflight_pixel(), 0);
        assert_eq!(Bare::default().inflight_pixel(), 0);
    }
}
