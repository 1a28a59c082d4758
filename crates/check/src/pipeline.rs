//! The Process-Unit pipeline the simulators step, proved exhaustively
//! (§3.2, §3.5).
//!
//! Both detailed datapaths sequence their stages through [`Pipeline`].
//! [`check_pipeline`] drives that type through **every** sequence of
//! per-cycle inputs of a given length — OIM has room (`R`), the scan
//! slot's window is in the IIM (`W`), the control FSM has a next pixel
//! (`N`) — and checks it, cycle by cycle, against an independent
//! position-queue model:
//!
//! * `pipeline.order` — pixels are stored in issue order, each exactly
//!   once, and every stage action carries the pixel's own payload,
//! * `pipeline.stage_tracking` — one bundle per stage, each moving at
//!   most one stage per cycle: the stage actions and slots are the
//!   model's,
//! * `pipeline.stall` — the cycle kind is the model's, so stall kinds are
//!   exclusive and charged to the memory that caused them,
//! * `pipeline.conservation` — issued = stored + in flight,
//! * `pipeline.latency` — a pixel that meets no stall is stored exactly
//!   [`FILL_LATENCY`] cycles after it issued,
//! * `pipeline.event_query` — [`Pipeline::at_rest`] is `None` iff the
//!   step changes state, and otherwise names the kind the step records:
//!   the soundness condition of the fast-forward clock skip.
//!
//! Every slot occupancy is reachable within three cycles, so sequences
//! of [`DEFAULT_SEQUENCE_LEN`] meet each occupancy with each input.
//!
//! [`check_pipeline_depth`] adds the configuration-level check: the
//! cycle-stepped fidelity hard-codes the four §3.5 stages, so a
//! `Detailed` configuration must declare `pipeline_stages == 4`.

use std::collections::VecDeque;

use vip_engine::config::SimulationFidelity;
use vip_engine::error::EngineResult;
use vip_engine::plc::{Cycle, Pipeline, Stage, StageSnapshot, Stages, Stall};

use crate::witness::Scenario;
use crate::{CheckReport, Violation};

/// Sequence length of the exhaustive pass: `8^LEN` input sequences.
pub const DEFAULT_SEQUENCE_LEN: usize = 6;

/// Cycles from issue to store for a pixel that meets no stall.
pub const FILL_LATENCY: usize = 3;

/// One cycle's inputs: bit 0 OIM room, bit 1 window ready, bit 2 next
/// pixel.
type Inputs = u8;

fn has(inputs: Inputs, bit: u8) -> bool {
    inputs & (1 << bit) != 0
}

/// Decodes sequence number `id` into `len` base-8 inputs.
fn decode(id: usize, len: usize) -> Vec<Inputs> {
    (0..len).map(|k| (id >> (3 * k) & 7) as Inputs).collect()
}

/// Renders an input sequence as a witness (`RWN` per cycle, `-` for an
/// input that is off).
fn witness_of(seq: &[Inputs], cycle: usize) -> String {
    let letter = |i: Inputs, b: u8| {
        if has(i, b) {
            char::from(b"RWN"[b as usize])
        } else {
            '-'
        }
    };
    let cycles: Vec<String> = seq
        .iter()
        .map(|&i| (0..3).map(|b| letter(i, b)).collect())
        .collect();
    format!("inputs {}, cycle {cycle}", cycles.join(" "))
}

/// The stages as the proof sees them: each condition is this cycle's
/// input, each payload the pixel index issued with it, every action
/// logged as `(stage, pixel, payload)`.
#[derive(Debug, Default)]
struct Env {
    now: Inputs,
    issued: usize,
    actions: Vec<(Stage, usize, usize)>,
}

impl Stages for Env {
    type Scan = usize;
    type Fetched = usize;
    type Result = usize;

    fn oim_has_room(&self) -> bool {
        has(self.now, 0)
    }

    fn window_ready(&self, _: &usize) -> bool {
        has(self.now, 1)
    }

    fn has_next(&self) -> bool {
        has(self.now, 2)
    }

    fn issue(&mut self) -> Option<usize> {
        let pixel = self.has_next().then_some(self.issued)?;
        self.issued += 1;
        self.actions.push((Stage::Scan, pixel, pixel));
        Some(pixel)
    }

    fn fetch(&mut self, pixel: usize, scan: usize) -> EngineResult<usize> {
        self.actions.push((Stage::Fetch, pixel, scan));
        Ok(scan)
    }

    fn execute(&mut self, pixel: usize, fetched: usize) -> usize {
        self.actions.push((Stage::Execute, pixel, fetched));
        fetched
    }

    fn store(&mut self, pixel: usize, result: usize) {
        self.actions.push((Stage::Store, pixel, result));
    }
}

/// One cycle of a pipeline under test: the snapshot before, the
/// [`Pipeline::at_rest`] answer, the recorded kind and the snapshot after.
type Observed = (StageSnapshot, Option<Cycle>, Cycle, StageSnapshot);

/// The engine's pipeline, one cycle per call.
fn engine_pipeline() -> impl FnMut(&mut Env) -> Observed {
    let mut pipe = Pipeline::default();
    move |env| {
        let (before, rest) = (pipe.snapshot(), pipe.at_rest(env));
        let kind = pipe.step(env).expect("the proof's stages never fail");
        (before, rest, kind, pipe.snapshot())
    }
}

/// The independent model: the pixels in flight, oldest first, with the
/// stage each occupies (0 scan, 1 fetch, 2 execute). Each cycle the stage
/// 3 pixel is stored if the OIM has room; a full OIM freezes stages 2
/// and 3. Otherwise every pixel moves one stage, except that a stage 1
/// pixel waits for its window. Stage 1 then takes the next pixel if its
/// slot is free. Returns the cycle kind and the moves, as (stage
/// entered, pixel).
fn model_step(
    flight: &mut VecDeque<(usize, usize)>,
    next: &mut usize,
    inputs: Inputs,
) -> (Cycle, Vec<(Stage, usize)>) {
    let mut moves = Vec::new();
    if flight.is_empty() && !has(inputs, 2) {
        return (Cycle::Idle, moves);
    }
    let mut kind = Cycle::Busy;
    if flight
        .front()
        .is_some_and(|&(_, stage)| stage == 2 && !has(inputs, 0))
    {
        kind = Cycle::Stalled(Stall::Oim);
    } else {
        if let Some(&(pixel, 2)) = flight.front() {
            flight.pop_front();
            moves.push((Stage::Store, pixel));
        }
        for (pixel, stage) in flight.iter_mut() {
            match *stage {
                0 if !has(inputs, 1) => kind = Cycle::Stalled(Stall::Iim),
                _ => {
                    *stage += 1;
                    moves.push((Stage::ALL[*stage], *pixel));
                }
            }
        }
    }
    if has(inputs, 2) && flight.iter().all(|&(_, stage)| stage > 0) {
        flight.push_back((*next, 0));
        moves.push((Stage::Scan, *next));
        *next += 1;
    }
    (kind, moves)
}

/// Drives one input sequence through `step` and the model, returning
/// every invariant violation.
fn run_sequence(mut step: impl FnMut(&mut Env) -> Observed, seq: &[Inputs]) -> Vec<Violation> {
    let mut out = Vec::new();
    let (mut env, mut flight, mut next) = (Env::default(), VecDeque::new(), 0);
    let (mut stored, mut issued_at, mut stalled) = (0usize, Vec::new(), Vec::new());
    for (cycle, &inputs) in seq.iter().enumerate() {
        let mut flag = |check: &'static str, message: String| {
            out.push(Violation {
                check,
                message,
                witness: witness_of(seq, cycle),
            });
        };
        env.now = inputs;
        env.actions.clear();
        let (before, rest, kind, after) = step(&mut env);
        let (model_kind, model_moves) = model_step(&mut flight, &mut next, inputs);
        stalled.push(matches!(kind, Cycle::Stalled(_)));

        for &(stage, pixel, payload) in &env.actions {
            if payload != pixel {
                flag(
                    "pipeline.order",
                    format!("stage `{stage}` got pixel {pixel} with the payload of {payload}"),
                );
            }
            if stage == Stage::Scan {
                issued_at.push(cycle);
            }
            if stage != Stage::Store {
                continue;
            }
            if pixel != stored {
                flag(
                    "pipeline.order",
                    format!("pixel {pixel} stored where pixel {stored} was next"),
                );
            }
            stored += 1;
            if let Some(&issue) = issued_at.get(pixel) {
                let (latency, clean) = (cycle - issue, !stalled[issue + 1..].contains(&true));
                if latency < FILL_LATENCY || (clean && latency != FILL_LATENCY) {
                    flag(
                        "pipeline.latency",
                        format!("pixel {pixel} stored {latency} cycles after issue"),
                    );
                }
            }
        }
        let moves: Vec<(Stage, usize)> = env.actions.iter().map(|&(s, p, _)| (s, p)).collect();
        let mut model = StageSnapshot::default();
        for &(pixel, stage) in &flight {
            model.slots[stage] = Some(pixel);
        }
        if moves != model_moves || after != model {
            flag(
                "pipeline.stage_tracking",
                format!(
                    "moves {moves:?} into {:?}; the model made {model_moves:?} into {:?}",
                    after.slots, model.slots
                ),
            );
        }
        if kind != model_kind {
            flag(
                "pipeline.stall",
                format!("cycle recorded as {kind:?}, the model says {model_kind:?}"),
            );
        }
        if env.issued != stored + after.occupancy() {
            flag(
                "pipeline.conservation",
                format!(
                    "issued {} ≠ stored {stored} + in flight {}",
                    env.issued,
                    after.occupancy()
                ),
            );
        }
        let changed = before != after || !env.actions.is_empty();
        if rest.map_or(!changed, |rest| changed || rest != kind) {
            flag(
                "pipeline.event_query",
                format!(
                    "at_rest said {rest:?}; the step recorded {kind:?}, state changed: {changed}"
                ),
            );
        }
    }
    out
}

/// Exhaustively runs all `8^len` input sequences of length `len`, each
/// on a fresh pipeline from `fresh`, fanning contiguous id ranges out
/// across the `vip-par` work pool. Chunk reports merge in ascending id
/// order, so the report (cases and violation order) is identical to the
/// serial pass at any thread count.
fn check_sequences<P: FnMut(&mut Env) -> Observed>(
    len: usize,
    fresh: impl Fn() -> P + Sync,
) -> CheckReport {
    let threads = vip_par::default_threads();
    // Oversplit so one slow chunk cannot serialise the pass.
    let ranges = vip_par::chunks(8usize.pow(len as u32), threads * 8);
    let partials = vip_par::map(&ranges, threads, |range| {
        let mut report = CheckReport::default();
        for id in range.clone() {
            report.cases += 1;
            report
                .violations
                .extend(run_sequence(fresh(), &decode(id, len)));
        }
        report
    });
    let mut report = CheckReport::default();
    for partial in partials {
        report.merge(partial);
    }
    report
}

/// Exhaustively verifies the engine's [`Pipeline`] against all `8^len`
/// input sequences of length `len`.
#[must_use]
pub fn check_pipeline(len: usize) -> CheckReport {
    check_sequences(len, engine_pipeline)
}

/// Configuration-level depth check: the cycle-stepped (`Detailed`)
/// fidelity hard-codes the four §3.5 stages, so any other declared
/// depth would silently diverge from the simulated datapath.
#[must_use]
pub fn check_pipeline_depth(s: &Scenario) -> Vec<Violation> {
    let mut out = Vec::new();
    if s.config.pipeline_stages == 0 {
        out.push(Violation {
            check: "pipeline.depth",
            message: "pipeline_stages is zero — the Process Unit needs its four stages".to_string(),
            witness: s.witness(),
        });
    }
    if s.config.fidelity == SimulationFidelity::Detailed
        && s.config.pipeline_stages != Stage::ALL.len()
    {
        out.push(Violation {
            check: "pipeline.depth",
            message: format!(
                "Detailed fidelity simulates the hard-wired {}-stage datapath but the \
                 configuration declares pipeline_stages={} — analytic and cycle-stepped \
                 models would disagree",
                Stage::ALL.len(),
                s.config.pipeline_stages
            ),
            witness: s.witness(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness::CallKind;
    use std::collections::HashSet;
    use vip_core::geometry::Dims;
    use vip_engine::config::EngineConfig;

    fn inputs(letters: &str) -> Vec<Inputs> {
        letters
            .split(' ')
            .map(|c| {
                (0..3)
                    .filter(|&b| c.contains(['R', 'W', 'N'][b as usize]))
                    .map(|b| 1 << b)
                    .sum()
            })
            .collect()
    }

    #[test]
    fn short_exhaustive_pass_is_clean() {
        let report = check_pipeline(4);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.cases, 8u64.pow(4));
    }

    #[test]
    fn parallel_exhaustive_pass_matches_serial_loop() {
        // The fan-out must be unobservable: same cases count and same
        // violation order as a plain serial loop over all ids, here on a
        // mutant so that there are violations to order.
        let len = 3;
        let mut serial = CheckReport::default();
        for id in 0..8usize.pow(len as u32) {
            serial.cases += 1;
            serial.violations.extend(run_sequence(
                mutant(Mutation::WrongStallKind),
                &decode(id, len),
            ));
        }
        assert!(!serial.is_clean());
        assert_eq!(
            check_sequences(len, || mutant(Mutation::WrongStallKind)),
            serial
        );
    }

    #[test]
    fn all_issue_sequence_fills_and_flows() {
        let seq = vec![7; 12];
        assert!(run_sequence(engine_pipeline(), &seq).is_empty());
        let mut step = engine_pipeline();
        let mut env = Env::default();
        for &inputs in &seq {
            env.now = inputs;
            step(&mut env);
        }
        let stores = env.actions.iter().filter(|a| a.0 == Stage::Store).count();
        // One store per cycle once the first pixel has filled the pipeline.
        assert_eq!((stores, env.issued), (12 - FILL_LATENCY, 12));
    }

    #[test]
    fn stalls_preserve_state() {
        let seq = inputs("RWN --- RWN -W- R-- RW- --N RWN RWN");
        assert!(run_sequence(engine_pipeline(), &seq).is_empty());
    }

    #[test]
    fn decode_is_exhaustive_and_stable() {
        assert_eq!(decode(0, 3), vec![0; 3]);
        let seq = decode(1 + 2 * 8 + 4 * 64, 3);
        assert_eq!(seq, inputs("R-- -W- --N"));
        assert_eq!(witness_of(&seq, 2), "inputs R-- -W- --N, cycle 2");
        let all: HashSet<Vec<Inputs>> = (0..64).map(|id| decode(id, 2)).collect();
        assert_eq!(all.len(), 64);
    }

    #[test]
    fn default_length_meets_every_occupancy_with_every_input() {
        // The pass is only as strong as the states it reaches: each of
        // the 8 slot occupancies must meet each of the 8 inputs.
        let mut seen = HashSet::new();
        for id in 0..8usize.pow(DEFAULT_SEQUENCE_LEN as u32) {
            let mut step = engine_pipeline();
            let mut env = Env::default();
            for inputs in decode(id, DEFAULT_SEQUENCE_LEN) {
                env.now = inputs;
                let (before, ..) = step(&mut env);
                seen.insert((before.slots.map(|s| s.is_some()), inputs));
            }
        }
        assert_eq!(seen.len(), 64, "occupancies × inputs reached");
    }

    #[test]
    fn detailed_fidelity_requires_four_stages() {
        let mut c = EngineConfig::prototype_detailed();
        c.pipeline_stages = 5;
        let s = Scenario::new("deep", c, Dims::new(16, 16), CallKind::Inter);
        let v = check_pipeline_depth(&s);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "pipeline.depth");
        assert!(
            v[0].witness.contains("pipeline_stages=5"),
            "{}",
            v[0].witness
        );
    }

    #[test]
    fn analytic_fidelity_allows_other_depths() {
        let mut c = EngineConfig::prototype();
        c.pipeline_stages = 6;
        let s = Scenario::new("deep", c, Dims::new(16, 16), CallKind::Inter);
        assert!(check_pipeline_depth(&s).is_empty());
    }

    /// A defect seeded into a copy of [`Pipeline`]'s step.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Mutation {
        /// The faithful copy.
        None,
        /// Stage 2 still fetches while a full OIM holds stage 4.
        FetchDuringOimStall,
        /// IIM stalls are charged to the OIM and vice versa.
        WrongStallKind,
        /// The event query forgets stage 1, so an empty pipeline with a
        /// pixel to issue reports idle.
        RestIgnoresIssue,
    }

    /// A copy of the engine pipeline's stage sequencing, pixel indices
    /// only, with one seeded defect.
    #[derive(Debug)]
    struct Mutant {
        mutation: Mutation,
        slots: [Option<usize>; 3],
    }

    impl Mutant {
        fn snapshot(&self) -> StageSnapshot {
            let [scan, fetch, exec] = self.slots;
            StageSnapshot {
                slots: [scan, fetch, exec, None],
            }
        }

        fn stall(&self, stall: Stall) -> Cycle {
            match (self.mutation, stall) {
                (Mutation::WrongStallKind, Stall::Iim) => Cycle::Stalled(Stall::Oim),
                (Mutation::WrongStallKind, Stall::Oim) => Cycle::Stalled(Stall::Iim),
                _ => Cycle::Stalled(stall),
            }
        }

        fn at_rest(&self, env: &Env) -> Option<Cycle> {
            let ignores_issue = self.mutation == Mutation::RestIgnoresIssue;
            if !ignores_issue && self.slots[0].is_none() && env.has_next() {
                return None;
            }
            match self.slots {
                [_, _, Some(_)] => (!env.oim_has_room()).then_some(self.stall(Stall::Oim)),
                [_, Some(_), None] => None,
                [Some(s), None, None] => (!env.window_ready(&s)).then_some(self.stall(Stall::Iim)),
                [None, None, None] => Some(Cycle::Idle),
            }
        }

        fn fetch(&mut self, env: &mut Env) -> bool {
            match self.slots[0].take_if(|s| env.window_ready(s)) {
                Some(pixel) => self.slots[1] = Some(env.fetch(pixel, pixel).unwrap()),
                None => return self.slots[0].is_none(),
            }
            true
        }

        fn step(&mut self, env: &mut Env) -> Cycle {
            let idle = self.slots == [None; 3] && !env.has_next();
            let mut cycle = if idle { Cycle::Idle } else { Cycle::Busy };
            if let Some(pixel) = self.slots[2] {
                if !env.oim_has_room() {
                    if self.mutation == Mutation::FetchDuringOimStall && self.slots[1].is_none() {
                        self.fetch(env);
                    }
                    if self.slots[0].is_none() {
                        self.slots[0] = env.issue();
                    }
                    return self.stall(Stall::Oim);
                }
                env.store(pixel, pixel);
            }
            self.slots[2] = self.slots[1].take().map(|pixel| env.execute(pixel, pixel));
            if !self.fetch(env) {
                cycle = self.stall(Stall::Iim);
            }
            if self.slots[0].is_none() {
                self.slots[0] = env.issue();
            }
            cycle
        }
    }

    fn mutant(mutation: Mutation) -> impl FnMut(&mut Env) -> Observed {
        let mut m = Mutant {
            mutation,
            slots: [None; 3],
        };
        move |env| {
            let (before, rest) = (m.snapshot(), m.at_rest(env));
            let kind = m.step(env);
            (before, rest, kind, m.snapshot())
        }
    }

    /// The violation ids the exhaustive pass reports for `mutation`.
    fn caught(mutation: Mutation) -> HashSet<&'static str> {
        let report = check_sequences(DEFAULT_SEQUENCE_LEN, || mutant(mutation));
        report.violations.iter().map(|v| v.check).collect()
    }

    #[test]
    fn faithful_copy_is_clean() {
        assert!(caught(Mutation::None).is_empty());
    }

    #[test]
    fn fetch_during_an_oim_stall_is_caught() {
        let checks = caught(Mutation::FetchDuringOimStall);
        assert!(checks.contains("pipeline.stage_tracking"), "{checks:?}");
    }

    #[test]
    fn misattributed_stall_is_caught() {
        let checks = caught(Mutation::WrongStallKind);
        assert!(checks.contains("pipeline.stall"), "{checks:?}");
    }

    #[test]
    fn event_query_that_misses_a_move_is_caught() {
        let checks = caught(Mutation::RestIgnoresIssue);
        assert_eq!(checks, HashSet::from(["pipeline.event_query"]));
    }
}
