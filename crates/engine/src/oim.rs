//! The OIM — output intermediate memory.
//!
//! §3.1: the OIM *"has exactly the same structure as the IIM, but it is
//! needed because of different reasons. It is used as a buffer structure
//! because there are different speeds at the interface processor unit
//! output - ZBT memory, since the processing unit provides pixels in twice
//! the speed than can be written to the ZBT memory"* — the result banks
//! take the pixel's two words sequentially, so draining costs two cycles
//! per pixel while the Process Unit produces one pixel per cycle.
//!
//! # Examples
//!
//! ```
//! use vip_engine::oim::Oim;
//! use vip_core::pixel::Pixel;
//!
//! let mut oim = Oim::new(16, 8);
//! assert!(oim.push(3, Pixel::from_luma(1)));
//! assert_eq!(oim.occupancy(), 1);
//! let (idx, px) = oim.pop().unwrap();
//! assert_eq!((idx, px.y), (3, 1));
//! ```

use std::collections::VecDeque;

use vip_core::pixel::Pixel;

/// The output intermediate memory: a FIFO of `(pixel index, pixel)` pairs
/// with the IIM's 16-line geometry.
#[derive(Debug, Clone)]
pub struct Oim {
    capacity: usize,
    fifo: VecDeque<(usize, Pixel)>,
    pushes: u64,
    pops: u64,
    /// Pixel-cycles the producer stalled on a full FIFO.
    stall_cycles: u64,
    max_occupancy: usize,
}

impl Oim {
    /// Creates an OIM buffering up to `lines` lines of `width` pixels.
    ///
    /// # Panics
    ///
    /// Panics when the resulting capacity is zero.
    #[must_use]
    pub fn new(lines: usize, width: usize) -> Self {
        let capacity = lines * width;
        assert!(capacity > 0, "OIM capacity must be positive");
        Oim {
            capacity,
            fifo: VecDeque::with_capacity(capacity),
            pushes: 0,
            pops: 0,
            stall_cycles: 0,
            max_occupancy: 0,
        }
    }

    /// Pixel capacity.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// BRAM blocks occupied (two banks per line, same structure as the
    /// IIM).
    #[must_use]
    pub fn bram_blocks_for(lines: usize) -> usize {
        2 * lines
    }

    /// FULL signal.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.fifo.len() == self.capacity
    }

    /// EMPTY signal.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Buffered pixels.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.fifo.len()
    }

    /// Largest occupancy observed.
    #[must_use]
    pub const fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Enqueues a produced pixel; returns `false` (and records a stall)
    /// when the FIFO is full — the image-level controller then disables
    /// the pixel-level controller (§3.3).
    pub fn push(&mut self, index: usize, pixel: Pixel) -> bool {
        if self.is_full() {
            self.stall_cycles += 1;
            return false;
        }
        self.fifo.push_back((index, pixel));
        self.pushes += 1;
        self.max_occupancy = self.max_occupancy.max(self.fifo.len());
        true
    }

    /// Dequeues the oldest pixel for the ZBT drain.
    pub fn pop(&mut self) -> Option<(usize, Pixel)> {
        let out = self.fifo.pop_front();
        if out.is_some() {
            self.pops += 1;
        }
        out
    }

    /// Total successful pushes.
    #[must_use]
    pub const fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Total pops.
    #[must_use]
    pub const fn pops(&self) -> u64 {
        self.pops
    }

    /// Producer stall cycles (full FIFO).
    #[must_use]
    pub const fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut oim = Oim::new(1, 4);
        for i in 0..3 {
            assert!(oim.push(i, Pixel::from_luma(i as u8)));
        }
        assert_eq!(oim.pop().unwrap().0, 0);
        assert_eq!(oim.pop().unwrap().0, 1);
        assert_eq!(oim.pop().unwrap().0, 2);
        assert!(oim.pop().is_none());
    }

    #[test]
    fn full_rejects_and_counts_stall() {
        let mut oim = Oim::new(1, 2);
        assert!(oim.push(0, Pixel::BLACK));
        assert!(oim.push(1, Pixel::BLACK));
        assert!(oim.is_full());
        assert!(!oim.push(2, Pixel::BLACK));
        assert_eq!(oim.stall_cycles(), 1);
        assert_eq!(oim.pushes(), 2);
        // Draining frees space.
        oim.pop();
        assert!(oim.push(2, Pixel::BLACK));
    }

    #[test]
    fn occupancy_tracking() {
        let mut oim = Oim::new(2, 2);
        oim.push(0, Pixel::BLACK);
        oim.push(1, Pixel::BLACK);
        oim.push(2, Pixel::BLACK);
        assert_eq!(oim.occupancy(), 3);
        oim.pop();
        oim.pop();
        assert_eq!(oim.occupancy(), 1);
        assert_eq!(oim.max_occupancy(), 3);
        assert_eq!(oim.pops(), 2);
        assert!(!oim.is_empty());
        assert_eq!(oim.capacity(), 4);
    }

    #[test]
    fn bram_structure_matches_iim() {
        assert_eq!(Oim::bram_blocks_for(16), 32);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = Oim::new(0, 4);
    }
}
