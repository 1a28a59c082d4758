//! A tiny deterministic PRNG for synthetic-sequence degradation.
//!
//! The workspace builds with no registry access, so `rand` is not
//! available; noise injection only needs a fast, seedable, uniform
//! generator, which xorshift64* provides in a dozen lines. Not
//! cryptographic — statistical quality is plenty for Irwin–Hall noise.
//!
//! # Examples
//!
//! ```
//! use vip_video::rng::XorShift64;
//!
//! let mut a = XorShift64::new(42);
//! let mut b = XorShift64::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let u = a.uniform(-1.0, 1.0);
//! assert!((-1.0..1.0).contains(&u));
//! ```

/// xorshift64* generator (Vigna 2016): 64-bit state, period 2^64 − 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator. A zero seed (the one fixed point of the
    /// xorshift map) is remapped to a fixed non-zero constant.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = XorShift64 {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        };
        // Discard the first output: low-entropy seeds (small integers)
        // otherwise leak directly into the first sample.
        rng.next_u64();
        rng
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → the full f64 mantissa range.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = XorShift64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = XorShift64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = XorShift64::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn zero_seed_is_valid() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn next_f64_in_unit_interval_with_sane_mean() {
        let mut r = XorShift64::new(123);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
            sum += v;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = XorShift64::new(5);
        for _ in 0..1_000 {
            let v = r.uniform(-3.0, 3.0);
            assert!((-3.0..3.0).contains(&v), "{v}");
        }
    }
}
