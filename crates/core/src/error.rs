//! Error types of the AddressLib core.

use core::fmt;

use crate::geometry::{Dims, Point};
use crate::pixel::ChannelSet;

/// Errors raised by AddressLib operations.
///
/// # Examples
///
/// ```
/// use vip_core::error::CoreError;
/// use vip_core::geometry::Dims;
///
/// let err = CoreError::DimsMismatch {
///     left: Dims::new(4, 4),
///     right: Dims::new(8, 8),
/// };
/// assert!(err.to_string().contains("4x4"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// Two frames that must agree in size do not.
    DimsMismatch {
        /// Dimensions of the first operand.
        left: Dims,
        /// Dimensions of the second operand.
        right: Dims,
    },
    /// A frame with zero area was supplied where pixels are required.
    EmptyFrame,
    /// A coordinate lies outside its frame.
    OutOfBounds {
        /// The offending position.
        point: Point,
        /// The frame bounds.
        dims: Dims,
    },
    /// An operation was asked to write a channel set it cannot produce.
    UnsupportedChannels {
        /// The requested channels.
        requested: ChannelSet,
        /// The channels the operation supports.
        supported: ChannelSet,
    },
    /// A segment expansion was started with no seed pixels.
    NoSeeds,
    /// An indexed-table access used an index beyond the table length.
    IndexOutOfRange {
        /// The requested index.
        index: usize,
        /// The table length.
        len: usize,
    },
    /// A parameter failed validation.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DimsMismatch { left, right } => {
                write!(f, "frame dimensions differ: {left} vs {right}")
            }
            CoreError::EmptyFrame => f.write_str("frame has zero area"),
            CoreError::OutOfBounds { point, dims } => {
                write!(f, "position {point} outside frame {dims}")
            }
            CoreError::UnsupportedChannels {
                requested,
                supported,
            } => write!(
                f,
                "operation cannot produce channels {requested} (supports {supported})"
            ),
            CoreError::NoSeeds => f.write_str("segment expansion requires at least one seed"),
            CoreError::IndexOutOfRange { index, len } => {
                write!(f, "table index {index} out of range for length {len}")
            }
            CoreError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience result alias for AddressLib operations.
pub type CoreResult<T> = Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<CoreError> = vec![
            CoreError::DimsMismatch {
                left: Dims::new(1, 1),
                right: Dims::new(2, 2),
            },
            CoreError::EmptyFrame,
            CoreError::OutOfBounds {
                point: Point::new(9, 9),
                dims: Dims::new(2, 2),
            },
            CoreError::UnsupportedChannels {
                requested: ChannelSet::ALL,
                supported: ChannelSet::Y,
            },
            CoreError::NoSeeds,
            CoreError::IndexOutOfRange { index: 5, len: 2 },
            CoreError::InvalidParameter {
                name: "radius",
                reason: "must be at most 4",
            },
        ];
        for err in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(
                msg.chars().next().unwrap().is_lowercase() || !msg.starts_with(char::is_uppercase),
                "message should start lowercase: {msg}"
            );
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
        }
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_good<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good::<CoreError>();
    }
}
