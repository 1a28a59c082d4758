//! Error types of the AddressEngine simulator.

use core::fmt;

use vip_core::error::CoreError;
use vip_core::geometry::Dims;

/// Errors raised by the AddressEngine simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// An AddressLib-level error surfaced through the engine.
    Core(CoreError),
    /// The frame does not fit the configured ZBT memory.
    FrameTooLarge {
        /// Offending frame size.
        dims: Dims,
        /// Bytes required for the call's frames.
        required_bytes: usize,
        /// Bytes available in the ZBT memory.
        available_bytes: usize,
    },
    /// A ZBT access addressed a word outside its bank.
    ZbtOutOfRange {
        /// Bank index.
        bank: usize,
        /// Word address within the bank.
        addr: usize,
        /// Words per bank.
        bank_words: usize,
    },
    /// A configuration value failed validation.
    InvalidConfig {
        /// Name of the offending field.
        field: &'static str,
        /// The violated constraint.
        reason: &'static str,
    },
    /// The requested operation needs an engine capability that is not
    /// enabled (e.g. segment addressing on the v1 prototype, §5 outlook).
    UnsupportedCapability {
        /// The missing capability.
        capability: &'static str,
    },
    /// A datapath invariant failed: a detailed simulation exceeded its
    /// cycle bound because the eviction gate deadlocked the sweep (e.g.
    /// an IIM too small for the window), or a ZBT region was addressed
    /// through the wrong accessor.
    PipelineHazard {
        /// Description of the conflict.
        detail: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "address library error: {e}"),
            EngineError::FrameTooLarge {
                dims,
                required_bytes,
                available_bytes,
            } => write!(
                f,
                "frame {dims} needs {required_bytes} bytes but the ZBT holds {available_bytes}"
            ),
            EngineError::ZbtOutOfRange {
                bank,
                addr,
                bank_words,
            } => write!(
                f,
                "zbt access to bank {bank} word {addr} beyond bank size {bank_words}"
            ),
            EngineError::InvalidConfig { field, reason } => {
                write!(f, "invalid engine config `{field}`: {reason}")
            }
            EngineError::UnsupportedCapability { capability } => {
                write!(f, "engine capability not enabled: {capability}")
            }
            EngineError::PipelineHazard { detail } => {
                write!(f, "pipeline hazard: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

/// Convenience result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let cases: Vec<EngineError> = vec![
            EngineError::Core(CoreError::EmptyFrame),
            EngineError::FrameTooLarge {
                dims: Dims::new(10_000, 10_000),
                required_bytes: 1,
                available_bytes: 0,
            },
            EngineError::ZbtOutOfRange {
                bank: 1,
                addr: 2,
                bank_words: 3,
            },
            EngineError::InvalidConfig {
                field: "strip_lines",
                reason: "must be positive",
            },
            EngineError::UnsupportedCapability {
                capability: "segment addressing",
            },
            EngineError::PipelineHazard {
                detail: "double issue",
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn core_error_converts_and_sources() {
        let e: EngineError = CoreError::NoSeeds.into();
        assert!(matches!(e, EngineError::Core(_)));
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(EngineError::PipelineHazard { detail: "x" }
            .source()
            .is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn ok<E: std::error::Error + Send + Sync + 'static>() {}
        ok::<EngineError>();
    }
}
