//! The control FSM: generates the per-pixel instructions.
//!
//! §3.2: *"The control FSM generates the set of instructions to be
//! performed in every pixel-cycle."* For a row-major sweep over a frame it
//! emits one stage-2 instruction per pixel: a LOAD at every scan-line
//! start (the matrix register must refill from scratch) and SHIFTs while
//! sliding along the line. It is the issue source of every datapath; an
//! inter sweep ignores the instruction.

use vip_core::geometry::{Dims, Point};

use crate::plc::instructions::FetchKind;

/// Instruction generator for one call's row-major sweep.
#[derive(Debug, Clone)]
pub struct ControlFsm {
    width: usize,
    x: usize,
    y: usize,
    remaining: usize,
}

impl ControlFsm {
    /// Creates the FSM for a row-major sweep of `dims`.
    #[must_use]
    pub fn new(dims: Dims) -> Self {
        ControlFsm {
            width: dims.width,
            x: 0,
            y: 0,
            remaining: dims.pixel_count(),
        }
    }

    /// Whether another pixel remains to be issued.
    #[must_use]
    pub const fn has_next(&self) -> bool {
        self.remaining > 0
    }
}

impl Iterator for ControlFsm {
    type Item = (Point, FetchKind);

    fn next(&mut self) -> Option<(Point, FetchKind)> {
        self.remaining = self.remaining.checked_sub(1)?;
        let point = Point::new(self.x as i32, self.y as i32);
        let fetch = if self.x == 0 {
            FetchKind::Load
        } else {
            FetchKind::Shift
        };
        self.x += 1;
        if self.x == self.width {
            self.x = 0;
            self.y += 1;
        }
        Some((point, fetch))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ControlFsm {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_loads_once_per_line() {
        let fsm = ControlFsm::new(Dims::new(4, 3));
        let loads: Vec<Point> = fsm
            .filter(|&(_, fetch)| fetch == FetchKind::Load)
            .map(|(p, _)| p)
            .collect();
        assert_eq!(
            loads,
            vec![Point::new(0, 0), Point::new(0, 1), Point::new(0, 2)],
            "one LOAD per line start"
        );
    }

    #[test]
    fn shift_count_complements_loads() {
        let fsm = ControlFsm::new(Dims::new(5, 4));
        let bundles: Vec<_> = fsm.collect();
        assert_eq!(bundles.len(), 20);
        assert_eq!(
            bundles[6],
            (Point::new(1, 1), FetchKind::Shift),
            "row-major order"
        );
        let loads = bundles
            .iter()
            .filter(|(_, f)| *f == FetchKind::Load)
            .count();
        let shifts = bundles
            .iter()
            .filter(|(_, f)| *f == FetchKind::Shift)
            .count();
        assert_eq!(loads, 4);
        assert_eq!(shifts, 16);
    }

    #[test]
    fn exact_size() {
        let mut fsm = ControlFsm::new(Dims::new(4, 4));
        assert_eq!(fsm.len(), 16);
        fsm.next();
        assert_eq!(fsm.len(), 15);
        assert!(fsm.has_next());
        assert_eq!(fsm.by_ref().count(), 15);
        assert!(!fsm.has_next());
        assert!(fsm.next().is_none());
    }
}
