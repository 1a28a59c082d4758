//! Metrics registry: named counters, gauges, and fixed-bucket histograms
//! with percentile summaries.
//!
//! Everything is hand-rolled on `BTreeMap` so tables render in stable
//! alphabetical order and the crate needs no dependencies.
//!
//! # Examples
//!
//! ```
//! use vip_obs::Registry;
//!
//! let mut reg = Registry::new();
//! reg.inc("engine.calls.intra", 1);
//! reg.observe("call.ms", &[1.0, 2.0, 5.0, 10.0], 3.2);
//! assert_eq!(reg.counter("engine.calls.intra"), 1);
//! let h = reg.histogram("call.ms").unwrap();
//! assert_eq!(h.count(), 1);
//! ```

use core::fmt::Write as _;
use std::collections::BTreeMap;

/// A fixed-bucket histogram over `f64` samples.
///
/// Buckets are defined by sorted upper bounds; a sample lands in the first
/// bucket whose bound is ≥ the sample, or in the implicit overflow bucket.
/// Percentiles are estimated by linear interpolation inside the bucket
/// containing the target rank, clamped to the observed min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Sorted upper bounds, one per finite bucket.
    bounds: Vec<f64>,
    /// Per-bucket counts; one extra slot for the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// A condensed histogram summary: count, extrema, mean, and the
/// p50/p95/p99 percentile estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl Histogram {
    /// A histogram with the given bucket upper bounds (sorted and
    /// de-duplicated; non-finite bounds are dropped).
    #[must_use]
    pub fn with_bounds(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        let buckets = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; buckets],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Non-finite samples are ignored.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = self
            .bounds
            .partition_point(|b| *b < value)
            .min(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Per-bucket `(upper_bound, count)` pairs; the overflow bucket is
    /// reported with an infinite bound.
    #[must_use]
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.bounds
            .iter()
            .copied()
            .chain(core::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
            .collect()
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by interpolating
    /// within the bucket containing the target rank. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cumulative = 0u64;
        for (idx, &bucket_count) in self.counts.iter().enumerate() {
            if bucket_count == 0 {
                continue;
            }
            let next = cumulative + bucket_count;
            if (next as f64) >= target {
                let lower = if idx == 0 {
                    self.min
                } else {
                    self.bounds[idx - 1].max(self.min)
                };
                let upper = if idx < self.bounds.len() {
                    self.bounds[idx].min(self.max)
                } else {
                    self.max
                };
                let within = ((target - cumulative as f64) / bucket_count as f64).clamp(0.0, 1.0);
                return (lower + (upper - lower) * within).clamp(self.min, self.max);
            }
            cumulative = next;
        }
        self.max
    }

    /// Folds another histogram into this one, combining per-thread
    /// recorders from `vip-par` sweeps. Counts add bucket-wise; extrema
    /// and sums combine exactly, so merging is order-independent.
    ///
    /// # Panics
    ///
    /// Panics when the bucket bounds differ — samples cannot be
    /// re-bucketed after the fact, so merging such histograms would
    /// silently misplace counts.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        // Raw extrema start at ±infinity, so empty sides are identities.
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The condensed summary.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// A registry of named counters, gauges, and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `by` to the named counter (created at zero on first use).
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Current value of a counter (0 if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Adds `delta` to a gauge (created at zero on first use).
    pub fn add_gauge(&mut self, name: &str, delta: f64) {
        if let Some(v) = self.gauges.get_mut(name) {
            *v += delta;
        } else {
            self.gauges.insert(name.to_string(), delta);
        }
    }

    /// Raises a gauge to `value` if it is higher than the current value.
    pub fn max_gauge(&mut self, name: &str, value: f64) {
        if let Some(v) = self.gauges.get_mut(name) {
            *v = v.max(value);
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Current value of a gauge (0 if never set).
    #[must_use]
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Records `value` into the named histogram, creating it with
    /// `bounds` on first use (later calls ignore `bounds`).
    pub fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::with_bounds(bounds);
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// The named histogram, if any samples were recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds another registry into this one: counters and gauges add,
    /// histograms merge bucket-wise (see [`Histogram::merge`]). Used to
    /// combine the per-thread registries of a `vip-par` sweep.
    ///
    /// # Panics
    ///
    /// Panics when a histogram present on both sides was created with
    /// different bucket bounds.
    pub fn merge(&mut self, other: &Registry) {
        for (name, value) in other.counters() {
            self.inc(name, value);
        }
        for (name, value) in other.gauges() {
            self.add_gauge(name, value);
        }
        for (name, theirs) in other.histograms() {
            if let Some(mine) = self.histograms.get_mut(name) {
                mine.merge(theirs);
            } else {
                self.histograms.insert(name.to_string(), theirs.clone());
            }
        }
    }

    /// Removes every metric.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }

    /// Whether the registry holds no metrics.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Serialises the registry as one JSON object with `counters`,
    /// `gauges` and `histograms` members — the machine-readable twin of
    /// [`Registry::text_table`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = crate::json::JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes the registry into an open [`crate::json::JsonWriter`]
    /// (one value).
    pub fn write_json(&self, w: &mut crate::json::JsonWriter) {
        w.begin_object();
        w.key("counters");
        w.begin_object();
        for (name, value) in self.counters() {
            w.key(name);
            w.u64(value);
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for (name, value) in self.gauges() {
            w.key(name);
            w.f64(value);
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (name, h) in self.histograms() {
            let s = h.summary();
            w.key(name);
            w.begin_object();
            w.key("count");
            w.u64(s.count);
            w.key("mean");
            w.f64(s.mean);
            w.key("min");
            w.f64(s.min);
            w.key("max");
            w.f64(s.max);
            w.key("p50");
            w.f64(s.p50);
            w.key("p95");
            w.f64(s.p95);
            w.key("p99");
            w.f64(s.p99);
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }

    /// Renders the registry as an aligned plain-text table.
    #[must_use]
    pub fn text_table(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for (name, value) in self.counters() {
            rows.push((name.to_string(), value.to_string()));
        }
        for (name, value) in self.gauges() {
            rows.push((name.to_string(), format!("{value:.6}")));
        }
        for (name, h) in self.histograms() {
            let s = h.summary();
            rows.push((
                name.to_string(),
                format!(
                    "count={} mean={:.3} min={:.3} max={:.3} p50={:.3} p95={:.3} p99={:.3}",
                    s.count, s.mean, s.min, s.max, s.p50, s.p95, s.p99
                ),
            ));
        }
        if rows.is_empty() {
            return "(no metrics recorded)\n".to_string();
        }
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in rows {
            let _ = writeln!(out, "{name:<width$}  {value}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_places_samples_on_boundaries() {
        let mut h = Histogram::with_bounds(&[1.0, 2.0, 4.0]);
        // A sample equal to a bound lands in that bound's bucket.
        h.observe(1.0);
        h.observe(1.5);
        h.observe(2.0);
        h.observe(4.0);
        h.observe(9.0); // overflow bucket
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0], (1.0, 1));
        assert_eq!(buckets[1], (2.0, 2));
        assert_eq!(buckets[2], (4.0, 1));
        assert_eq!(buckets[3].1, 1);
        assert!(buckets[3].0.is_infinite());
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 9.0);
    }

    #[test]
    fn unsorted_and_duplicate_bounds_are_normalised() {
        let h = Histogram::with_bounds(&[4.0, 1.0, 2.0, 2.0, f64::NAN]);
        assert_eq!(
            h.buckets().iter().map(|b| b.0).collect::<Vec<_>>()[..3],
            [1.0, 2.0, 4.0]
        );
    }

    #[test]
    fn non_finite_samples_ignored() {
        let mut h = Histogram::with_bounds(&[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn percentiles_of_uniform_samples() {
        // 100 samples 1..=100 into 10 buckets of width 10: quantiles must
        // land within the right bucket (interpolation error < bucket width).
        let bounds: Vec<f64> = (1..=10).map(|i| (i * 10) as f64).collect();
        let mut h = Histogram::with_bounds(&bounds);
        for v in 1..=100 {
            h.observe(v as f64);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.p50 - 50.0).abs() <= 10.0, "p50={}", s.p50);
        assert!((s.p95 - 95.0).abs() <= 10.0, "p95={}", s.p95);
        assert!((s.p99 - 99.0).abs() <= 10.0, "p99={}", s.p99);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99, "monotone percentiles");
    }

    #[test]
    fn quantile_extremes_clamp_to_observed_range() {
        let mut h = Histogram::with_bounds(&[10.0, 20.0]);
        h.observe(12.0);
        h.observe(14.0);
        h.observe(18.0);
        assert!(h.quantile(0.0) >= 12.0);
        assert_eq!(h.quantile(1.0), 18.0);
        // All samples in one bucket: interpolation stays inside [min, max].
        let q = h.quantile(0.5);
        assert!((12.0..=18.0).contains(&q), "q={q}");
    }

    #[test]
    fn single_sample_percentiles() {
        let mut h = Histogram::with_bounds(&[0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]);
        h.observe(3.0);
        let s = h.summary();
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p95, 3.0);
        assert_eq!(s.p99, 3.0);
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn overflow_bucket_quantile_interpolates_to_max() {
        let mut h = Histogram::with_bounds(&[1.0]);
        h.observe(100.0);
        h.observe(200.0);
        let q = h.quantile(0.99);
        assert!((100.0..=200.0).contains(&q), "q={q}");
        assert_eq!(h.quantile(1.0), 200.0);
    }

    #[test]
    fn empty_histogram_percentiles_do_not_panic() {
        let h = Histogram::with_bounds(&[1.0, 2.0]);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0, -3.0, 7.0] {
            assert_eq!(h.quantile(q), 0.0, "q={q}");
        }
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!((s.min, s.max, s.mean), (0.0, 0.0, 0.0));
        assert_eq!((s.p50, s.p95, s.p99), (0.0, 0.0, 0.0));
        // A histogram with no finite bounds at all: only the overflow
        // bucket exists, and empty quantiles still return 0.
        let h = Histogram::with_bounds(&[]);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn merge_combines_counts_sums_and_extrema() {
        let bounds = [1.0, 10.0, 100.0];
        let mut a = Histogram::with_bounds(&bounds);
        a.observe(0.5);
        a.observe(5.0);
        let mut b = Histogram::with_bounds(&bounds);
        b.observe(50.0);
        b.observe(500.0); // overflow bucket
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 555.5);
        assert_eq!(a.min(), 0.5);
        assert_eq!(a.max(), 500.0);
        assert_eq!(
            a.buckets().iter().map(|b| b.1).collect::<Vec<_>>(),
            vec![1, 1, 1, 1]
        );

        // Merging mirrors sequential observation exactly.
        let mut seq = Histogram::with_bounds(&bounds);
        for v in [0.5, 5.0, 50.0, 500.0] {
            seq.observe(v);
        }
        assert_eq!(a, seq);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = Histogram::with_bounds(&[2.0]);
        a.observe(1.0);
        let before = a.clone();
        a.merge(&Histogram::with_bounds(&[2.0]));
        assert_eq!(a, before, "merging an empty histogram changes nothing");
        let mut empty = Histogram::with_bounds(&[2.0]);
        empty.merge(&before);
        assert_eq!(empty, before, "merging into empty adopts the other side");
        assert_eq!(empty.min(), 1.0);
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::with_bounds(&[1.0]);
        a.merge(&Histogram::with_bounds(&[2.0]));
    }

    #[test]
    fn registry_merge_combines_all_metric_kinds() {
        let mut a = Registry::new();
        a.inc("calls", 2);
        a.add_gauge("busy", 1.5);
        a.observe("lat", &[1.0, 10.0], 0.5);
        let mut b = Registry::new();
        b.inc("calls", 3);
        b.inc("other", 1);
        b.add_gauge("busy", 0.5);
        b.observe("lat", &[1.0, 10.0], 5.0);
        b.observe("fresh", &[1.0], 0.25);
        a.merge(&b);
        assert_eq!(a.counter("calls"), 5);
        assert_eq!(a.counter("other"), 1);
        assert_eq!(a.gauge("busy"), 2.0);
        assert_eq!(a.histogram("lat").unwrap().count(), 2);
        assert_eq!(a.histogram("fresh").unwrap().count(), 1);
    }

    #[test]
    fn registry_counters_gauges() {
        let mut reg = Registry::new();
        assert!(reg.is_empty());
        reg.inc("calls", 2);
        reg.inc("calls", 3);
        assert_eq!(reg.counter("calls"), 5);
        assert_eq!(reg.counter("missing"), 0);
        reg.add_gauge("busy", 1.5);
        reg.add_gauge("busy", 0.5);
        assert_eq!(reg.gauge("busy"), 2.0);
        reg.max_gauge("peak", 3.0);
        reg.max_gauge("peak", 1.0);
        assert_eq!(reg.gauge("peak"), 3.0);
        reg.clear();
        assert!(reg.is_empty());
    }

    #[test]
    fn registry_histograms_and_table() {
        let mut reg = Registry::new();
        reg.observe("lat", &[1.0, 10.0], 5.0);
        reg.observe("lat", &[99.0], 20.0); // bounds ignored on second call
        assert_eq!(reg.histogram("lat").unwrap().count(), 2);
        reg.inc("n", 1);
        reg.add_gauge("g", 0.25);
        let table = reg.text_table();
        assert!(table.contains("n  "), "{table}");
        assert!(table.contains("count=2"), "{table}");
        assert!(table.lines().count() == 3, "{table}");
        assert_eq!(Registry::new().text_table(), "(no metrics recorded)\n");
    }
}
