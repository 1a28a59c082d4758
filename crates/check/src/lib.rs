//! # vip-check — static schedule/hazard verifier and workspace lint
//!
//! The simulator in `vip-engine` *exercises* the structural invariants the
//! DATE 2005 paper's correctness story rests on; this crate *proves* them
//! statically, without cycle-stepping a single pixel, and reports a
//! concrete witness configuration for every violation it finds.
//!
//! The crate has two halves:
//!
//! 1. **Model checker** ([`schedule`], [`occupancy`], [`zbt`],
//!    [`pipeline`]) — an abstract/interval analysis over the
//!    [`EngineConfig`](vip_engine::config::EngineConfig) parameter space
//!    plus exhaustive sweeps over small frame dimensions:
//!    * monotone, non-negative gaps between the seven §4.1 call-timeline
//!      instants, for all four addressing modes,
//!    * IIM deadlock freedom and OIM occupancy bounds (no
//!      overflow/underflow for any legal dims and
//!      `output_latency_fraction`),
//!    * ZBT bank-map disjointness, input-bank port-duty feasibility
//!      between the inbound DMA and the Process-Unit reads, and the §3.1
//!      guarantee that the outbound DMA never overtakes the OIM drain
//!      pointer,
//!    * in-order, hazard-free sequencing of the 4-stage Process-Unit
//!      pipeline, proved on the [`Pipeline`](vip_engine::plc::Pipeline)
//!      both detailed datapaths step, exhaustively over all short
//!      sequences of per-cycle inputs.
//! 2. **Source lint** ([`lint`]) — a token-level scanner over
//!    `crates/**/*.rs` and every `Cargo.toml` enforcing workspace
//!    invariants: metric-key agreement with `vip-engine::report::keys`,
//!    no wall-clock (`std::time::Instant`/`SystemTime`) inside the
//!    simulation crates, no external dependencies (the offline-build
//!    invariant), and `#![forbid(unsafe_code)]` in every crate root.
//!
//! Run it as `vip-check` (or `vipctl check`); `scripts/verify.sh` and CI
//! run it on every push. The static verdicts are validated against the
//! cycle-stepped simulator in `tests/static_vs_detailed.rs`.
//!
//! ## Quick start
//!
//! ```
//! use vip_check::sweep;
//!
//! let report = vip_check::check_model(&sweep::must_pass_scenarios());
//! assert!(report.is_clean(), "{report}");
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod lint;
pub mod occupancy;
pub mod pipeline;
pub mod schedule;
pub mod sweep;
pub mod witness;
pub mod zbt;

use core::fmt;

pub use witness::{CallKind, Scenario};

/// One violated invariant, with the concrete witness that violates it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable identifier of the check that fired (e.g. `timeline.order`).
    pub check: &'static str,
    /// Human-readable description of the violated invariant.
    pub message: String,
    /// The concrete witness: a configuration/dims/mode triple for model
    /// checks, a `file:line` location for lints.
    pub witness: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}\n    witness: {}",
            self.check, self.message, self.witness
        )
    }
}

/// The outcome of a verification pass: how many cases were examined and
/// every violation found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Scenario/file cases examined.
    pub cases: u64,
    /// Violations found, in discovery order.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// Whether the pass found no violations.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: CheckReport) {
        self.cases += other.cases;
        self.violations.extend(other.violations);
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "OK: {} cases, no violations", self.cases);
        }
        writeln!(
            f,
            "{} violation(s) in {} cases:",
            self.violations.len(),
            self.cases
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Every model check over one scenario, in stable discovery order.
fn check_scenario(s: &Scenario) -> Vec<Violation> {
    let mut violations = Vec::new();
    violations.extend(schedule::check_timeline(s));
    violations.extend(occupancy::check_iim(s));
    violations.extend(occupancy::check_oim(s));
    violations.extend(zbt::check_bank_map(s));
    violations.extend(zbt::check_capacity(s));
    violations.extend(zbt::check_input_duty(s));
    violations.extend(zbt::check_output_overtake(s));
    violations.extend(pipeline::check_pipeline_depth(s));
    violations
}

/// Runs every model check over the given scenarios. Scenarios are
/// independent, so they fan out across the `vip-par` work pool; results
/// merge in scenario order, keeping the report identical to a serial
/// pass at any thread count.
#[must_use]
pub fn check_model(scenarios: &[Scenario]) -> CheckReport {
    let per_scenario = vip_par::map(scenarios, vip_par::default_threads(), check_scenario);
    let mut report = CheckReport::default();
    for violations in per_scenario {
        report.cases += 1;
        report.violations.extend(violations);
    }
    // The pipeline proof is scenario-independent: one exhaustive pass
    // over every input sequence, on the type both datapaths step.
    report.merge(pipeline::check_pipeline(pipeline::DEFAULT_SEQUENCE_LEN));
    report
}

/// Runs the full verifier — model checks over the must-pass sweep plus
/// the workspace lint — exactly what the `vip-check` binary and
/// `vipctl check` execute.
#[must_use]
pub fn check_workspace(root: &std::path::Path) -> CheckReport {
    let mut report = check_model(&sweep::must_pass_scenarios());
    report.merge(lint::lint_workspace(root));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_carries_witness() {
        let v = Violation {
            check: "timeline.order",
            message: "instants out of order".to_string(),
            witness: "prototype, 16x16, intra r=1".to_string(),
        };
        let s = v.to_string();
        assert!(s.contains("timeline.order"));
        assert!(s.contains("witness: prototype"));
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = CheckReport {
            cases: 2,
            violations: vec![],
        };
        let b = CheckReport {
            cases: 3,
            violations: vec![Violation {
                check: "x",
                message: "m".into(),
                witness: "w".into(),
            }],
        };
        a.merge(b);
        assert_eq!(a.cases, 5);
        assert!(!a.is_clean());
        assert!(a.to_string().contains("1 violation"));
    }

    #[test]
    fn must_pass_sweep_is_clean() {
        let report = check_model(&sweep::must_pass_scenarios());
        assert!(report.is_clean(), "{report}");
        assert!(
            report.cases > 500,
            "sweep too small: {} cases",
            report.cases
        );
    }

    #[test]
    fn adversarial_sweep_finds_witnesses() {
        let report = check_model(&sweep::adversarial_scenarios());
        assert!(
            !report.is_clean(),
            "adversarial sweep must surface violations"
        );
        // Every violation names a concrete witness.
        for v in &report.violations {
            assert!(!v.witness.is_empty(), "{v}");
        }
    }
}
