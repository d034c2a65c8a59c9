//! The metrics registry: named counters, gauges, and log-bucketed
//! percentile histograms.
//!
//! All metrics live behind one mutex in a `BTreeMap`, so snapshots and
//! renderings are deterministic in iteration order. Histograms use
//! log-linear integer bucketing (HDR-style): deterministic, mergeable,
//! order-independent, and queryable for p50/p90/p99/p999 with bounded
//! relative error — equal inputs always produce equal bucket counts and
//! equal quantile answers, regardless of arrival order.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Sub-bucket precision: each power-of-two block is split into
/// `2^PRECISION_BITS` linear sub-buckets, bounding quantile relative
/// error at `2^-(PRECISION_BITS+1)` (≈0.4%).
const PRECISION_BITS: u32 = 7;
const SUB_BUCKETS: u64 = 1 << PRECISION_BITS;

/// Values are scaled by `10^6` to integers before bucketing, so callers
/// recording milliseconds get nanosecond resolution and sub-microsecond
/// inputs keep bounded error down to `1e-6` units.
const VALUE_SCALE: f64 = 1e6;

/// A deterministic, mergeable log-bucketed percentile histogram.
///
/// Recording scales the (non-negative) value to an integer in `1e-6`
/// units and drops it into a log-linear bucket: values below
/// [`SUB_BUCKETS`] map to themselves; larger values map into one of 128
/// linear sub-buckets of their power-of-two block. Bucket membership is
/// a pure function of the value, so bucket counts are independent of
/// arrival order and two histograms can be [`merge`](Histogram::merge)d
/// by summing counts. Quantiles are answered from bucket midpoints with
/// relative error bounded by half a sub-bucket width (< 0.8%).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    /// Sparse per-bucket counts keyed by bucket index (see
    /// [`Histogram::bucket_index`]). Sparse storage keeps thousand-node
    /// registries small: only touched buckets occupy memory.
    pub buckets: BTreeMap<u16, u64>,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value (`0.0` when empty).
    pub min: f64,
    /// Largest recorded value (`0.0` when empty).
    pub max: f64,
}

impl Histogram {
    /// Maps a value to its bucket index. Total function: negatives and
    /// NaN clamp to bucket 0, `+inf` saturates into the top bucket.
    pub fn bucket_index(value: f64) -> u16 {
        let scaled = value * VALUE_SCALE;
        let v = if scaled.is_finite() && scaled > 0.0 {
            if scaled >= u64::MAX as f64 {
                u64::MAX
            } else {
                scaled as u64
            }
        } else {
            0
        };
        if v < SUB_BUCKETS {
            return v as u16;
        }
        let exp = 63 - v.leading_zeros(); // >= PRECISION_BITS
        let sub = (v >> (exp - PRECISION_BITS)) - SUB_BUCKETS;
        ((exp - PRECISION_BITS + 1) as u64 * SUB_BUCKETS + sub) as u16
    }

    /// The representative (midpoint) value of bucket `index`, in the
    /// caller's original units.
    pub fn bucket_value(index: u16) -> f64 {
        let block = (index as u64) >> PRECISION_BITS;
        let pos = (index as u64) & (SUB_BUCKETS - 1);
        if block == 0 {
            return pos as f64 / VALUE_SCALE;
        }
        let lo = (SUB_BUCKETS + pos) << (block - 1);
        let width = 1u64 << (block - 1);
        (lo as f64 + (width as f64 - 1.0) / 2.0) / VALUE_SCALE
    }

    /// Records one value.
    pub fn record(&mut self, value: f64) {
        *self.buckets.entry(Self::bucket_index(value)).or_insert(0) += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Folds `other` into `self` (bucket-wise sum; min/max/sum/count
    /// combine exactly).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        for (&idx, &c) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += c;
        }
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by nearest rank over bucket
    /// midpoints, clamped into `[min, max]`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&idx, &c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }
}

/// One metric in the registry.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotone counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Log-bucketed percentile histogram.
    Histogram(Histogram),
}

/// The metrics registry.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metric table, recovering from mutex poisoning: telemetry must
    /// never escalate another thread's panic into a crashed heal pass,
    /// and the data under the lock stays internally consistent (single
    /// map writes).
    fn locked(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Increments counter `name` by `by` (creating it at zero).
    pub fn inc(&self, name: &str, by: u64) {
        let mut inner = self.locked();
        match inner.entry(name.to_owned()).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += by,
            other => *other = Metric::Counter(by),
        }
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.locked().insert(name.to_owned(), Metric::Gauge(value));
    }

    /// Records `value` into histogram `name` (creating it empty).
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.locked();
        match inner
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.record(value),
            other => {
                let mut h = Histogram::default();
                h.record(value);
                *other = Metric::Histogram(h);
            }
        }
    }

    /// Current value of counter `name` (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.locked().get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.locked().get(name) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Snapshot of histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        match self.locked().get(name) {
            Some(Metric::Histogram(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// Sorted snapshot of every metric.
    pub fn snapshot(&self) -> Vec<(String, Metric)> {
        self.locked()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Renders every metric as a JSON object (sorted keys, deterministic
    /// for identical recorded values).
    pub fn to_json(&self) -> String {
        self.render_json(|_| true)
    }

    /// Like [`Registry::to_json`] but with wall-clock accounting metrics
    /// (names carrying the `_wall_` marker, see
    /// [`crate::wallclock::is_wall_metric`]) stripped, so two same-seed
    /// runs render byte-identical JSON.
    pub fn to_json_deterministic(&self) -> String {
        self.render_json(|name| !crate::wallclock::is_wall_metric(name))
    }

    fn render_json(&self, keep: impl Fn(&str) -> bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{");
        let kept: Vec<_> = self
            .snapshot()
            .into_iter()
            .filter(|(name, _)| keep(name))
            .collect();
        for (i, (name, metric)) in kept.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            match metric {
                Metric::Counter(c) => {
                    let _ = write!(out, "{c}");
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, "{g}");
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"sum\":{},\"mean\":{}",
                        h.count,
                        h.sum,
                        h.mean()
                    );
                    if h.count > 0 {
                        let _ = write!(
                            out,
                            ",\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}",
                            h.min,
                            h.max,
                            h.p50(),
                            h.p90(),
                            h.p99(),
                            h.p999()
                        );
                    }
                    // Sparse buckets: only touched indices are emitted.
                    out.push_str(",\"buckets\":[");
                    for (j, (idx, c)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{idx},{c}]");
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms() {
        let r = Registry::new();
        r.inc("a.count", 2);
        r.inc("a.count", 3);
        r.set_gauge("b.gauge", 1.5);
        r.observe("c.ms", 0.5);
        r.observe("c.ms", 50.0);
        assert_eq!(r.counter("a.count"), 5);
        assert_eq!(r.gauge("b.gauge"), Some(1.5));
        let h = r.histogram("c.ms").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.mean(), 25.25);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 50.0);
        // Two distinct values occupy two distinct buckets.
        assert_eq!(h.buckets.len(), 2);
        assert_eq!(h.buckets.values().sum::<u64>(), 2);
    }

    #[test]
    fn histogram_buckets_are_order_independent() {
        let values = [0.002, 3.0, 120.0, 0.5, 2_000_000.0];
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in values {
            a.record(v);
        }
        for v in values.iter().rev() {
            b.record(*v);
        }
        assert_eq!(a.buckets, b.buckets);
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
    }

    #[test]
    fn bucket_round_trip_has_bounded_relative_error() {
        // The representative value of a bucket must sit within one
        // sub-bucket width of every value mapping into it.
        for &v in &[1e-6, 1e-3, 0.127, 0.1281, 1.0, 37.5, 1e4, 9.9e6] {
            let idx = Histogram::bucket_index(v);
            let rep = Histogram::bucket_value(idx);
            let rel = (rep - v).abs() / v;
            assert!(rel <= 1.0 / 128.0 + 1e-9, "v={v} rep={rep} rel={rel}");
        }
    }

    #[test]
    fn quantiles_match_exact_ranks_for_small_sets() {
        let mut h = Histogram::default();
        for v in 1..=100u32 {
            h.record(v as f64);
        }
        // Nearest-rank p50 of 1..=100 is 50, p90 is 90, p99 is 99.
        assert!((h.p50() - 50.0).abs() / 50.0 < 0.01);
        assert!((h.p90() - 90.0).abs() / 90.0 < 0.01);
        assert!((h.p99() - 99.0).abs() / 99.0 < 0.01);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.quantile(0.0), 1.0);
    }

    #[test]
    fn merge_equals_bulk_record() {
        let values: Vec<f64> = (0..200).map(|i| 0.01 * (i * i) as f64 + 0.001).collect();
        let mut whole = Histogram::default();
        let mut left = Histogram::default();
        let mut right = Histogram::default();
        for (i, v) in values.iter().enumerate() {
            whole.record(*v);
            if i % 2 == 0 {
                left.record(*v);
            } else {
                right.record(*v);
            }
        }
        left.merge(&right);
        assert_eq!(left.buckets, whole.buckets);
        assert_eq!(left.count, whole.count);
        assert_eq!(left.min, whole.min);
        assert_eq!(left.max, whole.max);
        assert_eq!(left.quantile(0.99), whole.quantile(0.99));
    }

    #[test]
    fn deterministic_json_strips_wall_metrics() {
        let r = Registry::new();
        r.inc("server.connects", 2);
        r.observe("server.planning_wall_ms", 3.7);
        r.inc("planner.region.as0.plan_wall_us", 12);
        let full = r.to_json();
        assert!(full.contains("planning_wall_ms"));
        let stable = r.to_json_deterministic();
        assert!(!stable.contains("_wall_"));
        assert!(stable.contains("\"server.connects\":2"));
    }

    #[test]
    fn json_snapshot_is_sorted() {
        let r = Registry::new();
        r.inc("z", 1);
        r.inc("a", 1);
        let json = r.to_json();
        assert!(json.find("\"a\"").unwrap() < json.find("\"z\"").unwrap());
    }
}
