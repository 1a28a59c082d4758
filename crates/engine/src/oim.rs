//! The OIM — output intermediate memory — and its port to the ZBT.
//!
//! §3.1: the OIM *"has exactly the same structure as the IIM, but it is
//! needed because of different reasons. It is used as a buffer structure
//! because there are different speeds at the interface processor unit
//! output - ZBT memory, since the processing unit provides pixels in twice
//! the speed than can be written to the ZBT memory"* — the result banks
//! take the pixel's two words sequentially, so draining costs two cycles
//! per pixel while the Process Unit produces one pixel per cycle.
//!
//! [`Oim`] is the one model of that FIFO and its drain port, generic over
//! the payload: the cycle-stepped datapaths buffer [`Pixel`]s and write
//! each popped one to the ZBT; the fast-forward skeletons buffer `()`,
//! which stores nothing, so the FIFO is its two counters.
//!
//! # Examples
//!
//! ```
//! use vip_engine::oim::Oim;
//! use vip_core::pixel::Pixel;
//!
//! // 16 lines of 8 pixels, draining one pixel every 2 cycles.
//! let mut oim = Oim::new(16, 8, 2);
//! oim.push(0, Pixel::from_luma(1));
//! assert_eq!(oim.occupancy(), 1);
//! assert_eq!(oim.next_pop(0), Some(2));
//! assert!(oim.tick().is_none());
//! let (idx, px) = oim.tick().unwrap();
//! assert_eq!((idx, px.y), (0, 1));
//! ```

use std::collections::VecDeque;

use vip_core::pixel::Pixel;

/// The output intermediate memory: a FIFO of results in pixel-index
/// order with the IIM's 16-line geometry, drained to the ZBT result
/// banks at one pixel per `drain_cycles_per_pixel` cycles.
#[derive(Debug, Clone)]
pub struct Oim<T = Pixel> {
    capacity: usize,
    /// The payloads of pixels `[popped, pushed)`, oldest first.
    fifo: VecDeque<T>,
    pushed: usize,
    popped: usize,
    max_occupancy: usize,
    /// `oim_drain_cycles_per_pixel`: the port pops once this many cycles
    /// have passed since its last pop.
    per: u64,
    /// Cycles since the port's last pop.
    timer: u64,
}

impl<T> Oim<T> {
    /// Creates an OIM buffering up to `lines` lines of `width` pixels,
    /// draining one pixel per `drain_cycles_per_pixel` cycles.
    ///
    /// # Panics
    ///
    /// Panics when the resulting capacity is zero.
    #[must_use]
    pub fn new(lines: usize, width: usize, drain_cycles_per_pixel: u64) -> Self {
        let capacity = lines * width;
        assert!(capacity > 0, "OIM capacity must be positive");
        Oim {
            capacity,
            fifo: VecDeque::with_capacity(capacity),
            pushed: 0,
            popped: 0,
            max_occupancy: 0,
            per: drain_cycles_per_pixel,
            timer: 0,
        }
    }

    /// Pixel capacity.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// FULL signal: the image-level controller then disables the
    /// pixel-level controller (§3.3).
    #[must_use]
    pub const fn is_full(&self) -> bool {
        self.occupancy() == self.capacity
    }

    /// Buffered pixels.
    #[must_use]
    pub const fn occupancy(&self) -> usize {
        self.pushed - self.popped
    }

    /// Largest occupancy observed.
    #[must_use]
    pub const fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Pixels drained to the ZBT so far.
    #[must_use]
    pub const fn pops(&self) -> usize {
        self.popped
    }

    /// Enqueues the result of pixel `index`. The pipeline stores in
    /// index order, and only into a non-full OIM.
    pub fn push(&mut self, index: usize, payload: T) {
        debug_assert!(
            !self.is_full(),
            "the pipeline stores only into a non-full OIM"
        );
        debug_assert_eq!(index, self.pushed, "the pipeline stores in index order");
        self.fifo.push_back(payload);
        self.pushed += 1;
        self.max_occupancy = self.max_occupancy.max(self.occupancy());
    }

    /// One cycle of the drain port: the oldest pixel's index and payload,
    /// if the port writes one to the ZBT this cycle.
    pub fn tick(&mut self) -> Option<(usize, T)> {
        self.timer += 1;
        if self.timer < self.per {
            return None;
        }
        let payload = self.fifo.pop_front()?;
        self.timer = 0;
        self.popped += 1;
        Some((self.popped - 1, payload))
    }

    /// The cycle of the next pop, seen from cycle `now`, if nothing is
    /// pushed meanwhile (`None`: the FIFO is empty).
    #[must_use]
    pub fn next_pop(&self, now: u64) -> Option<u64> {
        (self.occupancy() > 0).then(|| now + self.per.saturating_sub(self.timer).max(1))
    }

    /// Lets `cycles` cycles pass on which the port pops nothing (all
    /// before [`Oim::next_pop`]).
    pub fn idle(&mut self, cycles: u64) {
        self.timer += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut oim = Oim::new(1, 4, 1);
        for i in 0..3 {
            oim.push(i, Pixel::from_luma(i as u8));
        }
        for i in 0..3 {
            assert_eq!(oim.tick(), Some((i, Pixel::from_luma(i as u8))));
        }
        assert!(oim.tick().is_none());
    }

    #[test]
    fn capacity_gates_the_producer() {
        let mut oim = Oim::new(1, 2, 1);
        oim.push(0, Pixel::BLACK);
        assert!(!oim.is_full());
        oim.push(1, Pixel::BLACK);
        assert!(oim.is_full());
        // Draining frees space.
        oim.tick();
        assert!(!oim.is_full());
        oim.push(2, Pixel::BLACK);
        assert!(oim.is_full());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-full")]
    fn push_into_a_full_fifo_panics() {
        let mut oim = Oim::new(1, 1, 1);
        oim.push(0, ());
        oim.push(1, ());
    }

    #[test]
    fn occupancy_tracking() {
        let mut oim = Oim::new(2, 2, 1);
        oim.push(0, Pixel::BLACK);
        oim.push(1, Pixel::BLACK);
        oim.push(2, Pixel::BLACK);
        assert_eq!(oim.occupancy(), 3);
        oim.tick();
        oim.tick();
        assert_eq!(oim.occupancy(), 1);
        assert_eq!(oim.max_occupancy(), 3);
        assert_eq!(oim.pops(), 2);
        assert_eq!(oim.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = Oim::<Pixel>::new(0, 4, 2);
    }

    /// A naive OIM: a FIFO of `(index, pixel)` pairs whose port pops on
    /// any cycle at least `per` cycles after its last pop (cycle 0 counts
    /// as one).
    struct Naive {
        fifo: VecDeque<(usize, Pixel)>,
        per: u64,
        last_pop: u64,
        max: usize,
    }

    impl Naive {
        fn cycle(&mut self, now: u64) -> Option<(usize, Pixel)> {
            if now - self.last_pop < self.per {
                return None;
            }
            let out = self.fifo.pop_front()?;
            self.last_pop = now;
            Some(out)
        }

        fn next_pop(&self, now: u64) -> Option<u64> {
            (!self.fifo.is_empty()).then(|| (self.last_pop + self.per).max(now + 1))
        }
    }

    /// Drives a `Pixel` OIM, an index-only OIM and the naive model
    /// through 400 cycles of seeded pushes and idle skips, comparing them
    /// every cycle. Returns the largest occupancy reached.
    fn against_naive(per: u64, cap: usize, seed: u64) -> usize {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rand = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let at = |now: u64| format!("per {per}, cap {cap}, seed {seed}, cycle {now}");
        let mut pixels = Oim::new(1, cap, per);
        let mut indices = Oim::<()>::new(cap, 1, per);
        let mut naive = Naive {
            fifo: VecDeque::new(),
            per,
            last_pop: 0,
            max: 0,
        };
        let (mut now, mut next) = (0u64, 0usize);
        while now < 400 {
            // Skip part or all of an idle stretch, as the cycle loop does
            // while the port has nothing to pop before `next_pop`.
            let next_pop = pixels.next_pop(now).filter(|&t| t > now + 1);
            if let Some(pop) = next_pop.filter(|_| rand(2) == 0) {
                let skipped = 1 + rand(pop - now - 1);
                pixels.idle(skipped);
                indices.idle(skipped);
                for _ in 0..skipped {
                    now += 1;
                    assert_eq!(naive.cycle(now), None, "{}", at(now));
                }
            }
            now += 1;
            let popped = naive.cycle(now);
            assert_eq!(pixels.tick(), popped, "{}", at(now));
            assert_eq!(indices.tick(), popped.map(|(i, _)| (i, ())), "{}", at(now));
            if naive.fifo.len() < cap && rand(4) != 0 {
                let px = Pixel::from_luma((next * 31 % 251) as u8);
                naive.fifo.push_back((next, px));
                naive.max = naive.max.max(naive.fifo.len());
                pixels.push(next, px);
                indices.push(next, ());
                next += 1;
            }
            assert_eq!(pixels.is_full(), naive.fifo.len() == cap, "{}", at(now));
            for oim in [pixels.occupancy(), indices.occupancy()] {
                assert_eq!(oim, naive.fifo.len(), "{}", at(now));
            }
            for max in [pixels.max_occupancy(), indices.max_occupancy()] {
                assert_eq!(max, naive.max, "{}", at(now));
            }
            for next_pop in [pixels.next_pop(now), indices.next_pop(now)] {
                assert_eq!(next_pop, naive.next_pop(now), "{}", at(now));
            }
        }
        naive.max
    }

    #[test]
    fn matches_a_naive_fifo_with_a_drain_countdown() {
        for per in [1u64, 2, 7] {
            for cap in [1usize, 2, 16] {
                let max = (1..=4).map(|seed| against_naive(per, cap, seed)).max();
                // A one-cycle port pops every pixel the cycle after its
                // push, so only a slower one can fill the FIFO.
                let expected = if per == 1 { 1 } else { cap };
                assert_eq!(max, Some(expected), "per {per}, cap {cap}");
            }
        }
    }
}
