//! The micro-instruction set of the pixel-level controller.
//!
//! §3.4/§3.5: the datapath has four stages; *"In order to generate a
//! result pixel one instruction has to be performed in each one of the
//! stages"*. The control FSM ([`crate::plc::ControlFsm`]) emits each
//! pixel-cycle's stage-2 instruction, a [`FetchKind`]; the start-pipeline
//! ([`crate::plc::Pipeline`]) overlaps pixel-cycles so that instructions
//! of different pixel-cycles occupy different stages simultaneously.

use core::fmt;

/// The pipeline stage an instruction executes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Stage 1: image scanning — advance the pixel position counters.
    Scan,
    /// Stage 2: fill the matrix register from the IIM (LOAD or SHIFT).
    Fetch,
    /// Stage 3: execute the pixel operation on the neighbourhood.
    Execute,
    /// Stage 4: store the result pixel into the OIM.
    Store,
}

impl Stage {
    /// The four stages in pipeline order.
    pub const ALL: [Stage; 4] = [Stage::Scan, Stage::Fetch, Stage::Execute, Stage::Store];

    /// Stage index (0-based).
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Stage::Scan => 0,
            Stage::Fetch => 1,
            Stage::Execute => 2,
            Stage::Store => 3,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Scan => "scan",
            Stage::Fetch => "fetch",
            Stage::Execute => "execute",
            Stage::Store => "store",
        };
        f.write_str(s)
    }
}

/// How stage 2 fills the matrix register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchKind {
    /// LOAD: fill the whole matrix from scratch (first pixel of a line).
    Load,
    /// SHIFT: drop one column, append the newly visible one.
    Shift,
}

impl fmt::Display for FetchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchKind::Load => f.write_str("LOAD"),
            FetchKind::Shift => f.write_str("SHIFT"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_stages_in_order() {
        assert_eq!(Stage::ALL.len(), 4);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn displays() {
        assert_eq!(Stage::Fetch.to_string(), "fetch");
        assert_eq!(FetchKind::Load.to_string(), "LOAD");
    }
}
