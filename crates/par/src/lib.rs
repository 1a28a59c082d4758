//! # vip-par — zero-dependency parallel runtime for embarrassingly parallel sweeps
//!
//! The workspace's slowest paths are outer loops over independent work
//! units: seeded configuration sweeps (`static_vs_detailed`), the 8^6
//! Process-Unit pipeline proof in `vip-check`, per-frame GME backend runs, and
//! the figure/table benchmark sweeps. This crate parallelises them with
//! nothing but `std::thread::scope` — no rayon, no registry access —
//! and with **deterministic result ordering**: the output of
//! [`map_indexed`] is indexed by work-item index, never by completion
//! order, so a run with 1 thread and a run with N threads produce
//! byte-identical results.
//!
//! Work is distributed by an atomic work-index counter (work stealing at
//! item granularity), so uneven item costs do not serialise the sweep.
//!
//! # Examples
//!
//! ```
//! let squares = vip_par::map_indexed(8, vip_par::default_threads(), |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count: the `VIP_THREADS` environment variable when set
/// to a positive integer, otherwise [`std::thread::available_parallelism`],
/// otherwise 1.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("VIP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every index in `0..n` using up to `threads` scoped
/// worker threads and returns the results **in index order**.
///
/// The output is identical for every `threads >= 1`: results are stored
/// into their own slot by index, so thread interleaving cannot reorder
/// them. `threads <= 1` (or `n <= 1`) runs serially on the caller's
/// thread with no pool at all.
///
/// # Panics
///
/// Panics if `f` panics on any index (the panic is propagated once all
/// workers have stopped).
pub fn map_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if threads <= 1 || n == 1 {
        return (0..n).map(f).collect();
    }
    let workers = threads.min(n);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                results.lock().expect("result buffer poisoned")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("result buffer poisoned")
        .into_iter()
        .map(|slot| slot.expect("every index 0..n is claimed exactly once"))
        .collect()
}

/// Applies `f` to every element of `items` in parallel and returns the
/// results in input order. Convenience wrapper over [`map_indexed`].
pub fn map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_indexed(items.len(), threads, |i| f(&items[i]))
}

/// Splits `0..total` into at most `parts` contiguous, non-empty ranges of
/// near-equal length, in ascending order. Useful for chunking a cheap
/// per-item loop into coarser parallel work units.
pub fn chunks(total: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if total == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, total);
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_is_deterministic_across_thread_counts() {
        let serial = map_indexed(97, 1, |i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for threads in [2, 3, 8, 64] {
            let parallel = map_indexed(97, threads, |i| {
                (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            });
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<String> = (0..40).map(|i| format!("item-{i}")).collect();
        let out = map(&items, 4, |s| s.len());
        let expected: Vec<usize> = items.iter().map(|s| s.len()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(map_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, 8, |i| i + 1), vec![1]);
        assert_eq!(map_indexed(3, 100, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn chunks_cover_range_exactly_once() {
        for (total, parts) in [(10, 3), (3, 10), (1, 1), (120, 8), (7, 7)] {
            let ranges = chunks(total, parts);
            assert!(ranges.len() <= parts.max(1));
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered, "ranges contiguous and ascending");
                assert!(!r.is_empty());
                covered = r.end;
            }
            assert_eq!(covered, total);
        }
        assert!(chunks(0, 4).is_empty());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
