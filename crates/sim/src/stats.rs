//! Measurement primitives: named counters, busy-time trackers for
//! utilization accounting, and latency histograms.
//!
//! The paper's evaluation reports two kinds of numbers — latency breakdowns
//! (Figures 3a, 11) and CPU-utilization breakdowns (Figures 3b, 8, 12, 13).
//! [`Histogram`] and [`BusyTracker`] are the primitives behind both.

use std::collections::BTreeMap;

/// A monotonically increasing named counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }
}

/// Global named statistics kept in the [`World`](crate::World).
#[derive(Debug, Default)]
pub struct Stats {
    counters: BTreeMap<&'static str, Counter>,
}

impl Stats {
    /// Empty statistics.
    pub fn new() -> Self {
        Stats::default()
    }

    /// The counter registered under `name`, creating it at zero on first use.
    pub fn counter(&mut self, name: &'static str) -> &mut Counter {
        self.counters.entry(name).or_default()
    }

    /// Reads a counter without creating it (zero if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).map(|c| c.value()).unwrap_or(0)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, v.value()))
    }
}

/// Tracks how much of a resource's time is spent busy, broken down by a
/// caller-supplied tag — the mechanism behind every CPU-utilization figure.
///
/// `record(tag, busy_ns)` attributes `busy_ns` nanoseconds of busy time to
/// `tag`; `utilization(span, capacity)` divides total busy time by
/// `capacity × span`.
///
/// ```
/// use dcs_sim::{BusyTracker, SimTime};
/// let mut cpu = BusyTracker::new();
/// cpu.record("kernel", 500_000);
/// cpu.record("driver", 250_000);
/// let util = cpu.utilization(1_000_000, 1.0);
/// assert!((util - 0.75).abs() < 1e-9);
/// assert_eq!(cpu.busy_for("kernel"), 500_000);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BusyTracker {
    by_tag: BTreeMap<String, u64>,
    total: u64,
}

impl BusyTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        BusyTracker::default()
    }

    /// Attributes `busy_ns` of busy time to `tag`.
    pub fn record(&mut self, tag: &str, busy_ns: u64) {
        *self.by_tag.entry(tag.to_string()).or_insert(0) += busy_ns;
        self.total += busy_ns;
    }

    /// Total busy time across all tags, in nanoseconds.
    pub fn total_busy(&self) -> u64 {
        self.total
    }

    /// Busy time attributed to `tag` (zero if never recorded).
    pub fn busy_for(&self, tag: &str) -> u64 {
        self.by_tag.get(tag).copied().unwrap_or(0)
    }

    /// Fraction of `capacity` servers kept busy over a span of `span_ns`:
    /// `total_busy / (span_ns * capacity)`.
    ///
    /// # Panics
    ///
    /// Panics if `span_ns` is zero or `capacity` is not positive.
    pub fn utilization(&self, span_ns: u64, capacity: f64) -> f64 {
        assert!(span_ns > 0, "utilization over an empty span");
        assert!(capacity > 0.0, "capacity must be positive");
        self.total as f64 / (span_ns as f64 * capacity)
    }

    /// Per-tag utilization fractions over a span (same denominator as
    /// [`BusyTracker::utilization`]), in tag order.
    pub fn utilization_breakdown(&self, span_ns: u64, capacity: f64) -> Vec<(String, f64)> {
        assert!(span_ns > 0, "utilization over an empty span");
        assert!(capacity > 0.0, "capacity must be positive");
        let denom = span_ns as f64 * capacity;
        self.by_tag
            .iter()
            .map(|(tag, busy)| (tag.clone(), *busy as f64 / denom))
            .collect()
    }

    /// Iterates `(tag, busy_ns)` in tag order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.by_tag.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another tracker into this one (used to aggregate per-node
    /// trackers in two-node experiments).
    pub fn merge(&mut self, other: &BusyTracker) {
        for (tag, busy) in other.iter() {
            self.record(tag, busy);
        }
    }

    /// Resets all recorded time (used to discard warm-up phases).
    pub fn reset(&mut self) {
        self.by_tag.clear();
        self.total = 0;
    }
}

/// Sub-bucket resolution of [`Histogram`]: each power-of-two octave is
/// split into `2^SUB_BITS` linear sub-buckets, bounding the relative
/// quantization error of any reported quantile to `2^-SUB_BITS` (≈3.1%).
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Values below `SUB` get one exact bucket each; above, 32 sub-buckets per
/// octave for the remaining 59 octaves of the u64 range.
const BUCKETS: usize = (64 - SUB_BITS as usize - 1) * SUB + SUB;

/// A latency histogram with log-linear buckets plus exact min/max/mean.
///
/// Buckets are exact below 32 and split every power-of-two octave into 32
/// linear sub-buckets above, so any quantile is reported within a 1/32
/// (≈3.1%) relative error bound of the true sample — tight enough to
/// compare tail latencies across load-balancing policies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket a value lands in.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        // (v >> shift) is in [SUB, 2*SUB): the linear sub-bucket plus SUB.
        (msb - SUB_BITS) as usize * SUB + (v >> shift) as usize
    }
}

/// Inclusive upper bound of bucket `idx` (every sample in the bucket is
/// ≤ this, and > this minus the bucket width).
#[inline]
fn bucket_bound(idx: usize) -> u64 {
    if idx < 2 * SUB {
        idx as u64
    } else {
        let shift = (idx / SUB - 1) as u32;
        (((idx % SUB + SUB + 1) as u64) << shift) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Records one sample (e.g. a request latency in nanoseconds).
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate quantile: the upper bound of the bucket holding the
    /// `ceil(q·count)`-th smallest sample, clamped to the observed max.
    /// The result `r` brackets the exact sample `e` as
    /// `e ≤ r ≤ e·(1 + 2⁻⁵) + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return None;
        }
        let target = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(bucket_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// [`Histogram::quantile`] with `p` expressed in percent (`p99` is
    /// `percentile(99.0)`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        self.quantile(p / 100.0)
    }

    /// The median (50th percentile).
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// The 90th percentile.
    pub fn p90(&self) -> Option<u64> {
        self.percentile(90.0)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99.0)
    }

    /// The 99.9th percentile.
    pub fn p999(&self) -> Option<u64> {
        self.percentile(99.9)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Iterates the non-zero `(bucket_index, count)` pairs in index
    /// order — the sparse form of the distribution.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
    }

    /// Merges another histogram into this one (aggregating per-node tail
    /// latencies into a cluster-wide distribution).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut s = Stats::new();
        s.counter("x").add(2);
        s.counter("x").add(3);
        assert_eq!(s.counter_value("x"), 5);
        assert_eq!(s.counter_value("absent"), 0);
        let all: Vec<_> = s.iter().collect();
        assert_eq!(all, vec![("x", 5)]);
    }

    #[test]
    fn busy_tracker_breakdown_sums_to_total() {
        let mut t = BusyTracker::new();
        t.record("a", 100);
        t.record("b", 300);
        t.record("a", 100);
        assert_eq!(t.total_busy(), 500);
        assert_eq!(t.busy_for("a"), 200);
        let breakdown = t.utilization_breakdown(1000, 1.0);
        let sum: f64 = breakdown.iter().map(|(_, f)| f).sum();
        assert!((sum - 0.5).abs() < 1e-12);
    }

    #[test]
    fn busy_tracker_merge_and_reset() {
        let mut a = BusyTracker::new();
        a.record("k", 10);
        let mut b = BusyTracker::new();
        b.record("k", 5);
        b.record("u", 1);
        a.merge(&b);
        assert_eq!(a.busy_for("k"), 15);
        assert_eq!(a.total_busy(), 16);
        a.reset();
        assert_eq!(a.total_busy(), 0);
    }

    #[test]
    fn multi_core_utilization_denominator() {
        let mut t = BusyTracker::new();
        t.record("app", 6_000);
        // 6000ns busy over a 1000ns span on 12 cores => 50%.
        assert!((t.utilization(1_000, 12.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 22.0).abs() < 1e-9);
        assert!(h.quantile(0.5).unwrap() <= 100);
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    fn histogram_empty_returns_none() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_zero_sample() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.quantile(0.5), Some(0));
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty: every percentile is None, at both extremes too.
        let h = Histogram::new();
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.percentile(100.0), None);

        // Single sample: every percentile is that sample exactly (the
        // bucket bound is clamped to the observed max).
        let mut h = Histogram::new();
        h.record(777);
        for p in [0.0, 0.1, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), Some(777), "p{p} of a single sample");
        }

        // All-equal samples: the distribution collapses to one value.
        let mut h = Histogram::new();
        for _ in 0..1_000 {
            h.record(4_096);
        }
        for p in [0.0, 25.0, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), Some(4_096), "p{p} of all-equal samples");
        }

        // p0 resolves to the minimum's bucket and p100 clamps to the
        // exact observed max even when its bucket bound rounds up.
        let mut h = Histogram::new();
        for v in [10u64, 20, 1_000_003] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(10));
        assert_eq!(h.percentile(100.0), Some(1_000_003));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_above_100_panics() {
        let mut h = Histogram::new();
        h.record(1);
        let _ = h.percentile(100.1);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_below_zero_panics() {
        let mut h = Histogram::new();
        h.record(1);
        let _ = h.quantile(-0.01);
    }

    #[test]
    fn bucket_bounds_invert_bucket_index() {
        // Every bucket's upper bound must land back in that bucket, and the
        // next value must not.
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1023,
            1024,
            1 << 20,
            u64::MAX >> 1,
        ] {
            let idx = bucket_index(v);
            let ub = bucket_bound(idx);
            assert!(ub >= v, "bound {ub} below member {v}");
            assert_eq!(bucket_index(ub), idx, "bound {ub} left bucket of {v}");
            if ub < u64::MAX {
                assert!(
                    bucket_index(ub + 1) > idx,
                    "bucket of {v} unbounded at {ub}"
                );
            }
        }
    }

    /// The documented exactness bound: `percentile(p)` returns a value `r`
    /// with `e ≤ r ≤ e·(1 + 2⁻⁵) + 1` where `e` is the exact sample at
    /// that rank.
    #[test]
    fn percentile_exactness_bounds() {
        let mut h = Histogram::new();
        // Deterministic pseudo-random samples spanning several octaves.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut samples = Vec::new();
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) % 5_000_000;
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let rank = ((samples.len() as f64 * p / 100.0).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let approx = h.percentile(p).unwrap();
            assert!(approx >= exact, "p{p}: {approx} < exact {exact}");
            let limit = exact + exact / 32 + 1;
            assert!(
                approx <= limit,
                "p{p}: {approx} > bound {limit} (exact {exact})"
            );
        }
    }

    #[test]
    fn percentile_accessors_are_ordered() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let (p50, p90, p99, p999) = (
            h.p50().unwrap(),
            h.p90().unwrap(),
            h.p99().unwrap(),
            h.p999().unwrap(),
        );
        assert!(
            p50 <= p90 && p90 <= p99 && p99 <= p999,
            "{p50} {p90} {p99} {p999}"
        );
        // Within the 1/32 bound of the exact ranks.
        assert!(
            (500_000..=500_000 + 500_000 / 32 + 1).contains(&p50),
            "{p50}"
        );
        assert!(
            (1_000_000..=1_000_000 + 1_000_000 / 32 + 1).contains(&p999),
            "{p999}"
        );
        assert_eq!(h.percentile(100.0), Some(1_000_000));
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [3u64, 700, 41_000, 9] {
            a.record(v);
            all.record(v);
        }
        for v in [88u64, 123_456_789] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.mean(), all.mean());
        for p in [10.0, 50.0, 99.0] {
            assert_eq!(a.percentile(p), all.percentile(p));
        }
    }

    /// `utilization` is also exercised with `SimTime`-derived spans.
    #[test]
    fn utilization_from_simtime_span() {
        use crate::time::SimTime;
        let start = SimTime::ZERO;
        let end = SimTime::from_us(10);
        let mut t = BusyTracker::new();
        t.record("io", 5_000);
        assert!((t.utilization(end - start, 1.0) - 0.5).abs() < 1e-12);
    }
}
