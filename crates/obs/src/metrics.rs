//! Atomic counters, gauges, and log-bucketed latency histograms behind a
//! global name→handle registry, and the RAII [`Span`] timer that feeds
//! a histogram.
//!
//! Handles are `Arc`s resolved once (at construction time of whatever is
//! being instrumented) so the hot path is a relaxed atomic op — no map
//! lookup, no allocation. Names follow the Prometheus convention:
//! `sde_dispatch_ns{class="Calc"}`; label sets are part of the key.
//!
//! Histograms are log-linear: exact buckets for values `< 4`, then four
//! sub-buckets per power of two, giving a worst-case relative error of
//! 25% across the full `u64` range with a fixed 252-slot table.

use crate::sync::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

// -------------------------------------------------------------- Counter

#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------- Gauge

#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if it is below it (high-water mark).
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ------------------------------------------------------------ Histogram

/// Exact buckets for 0..3, then 4 sub-buckets per octave up to 2^63.
pub const N_BUCKETS: usize = 252;

/// Map a value to its bucket index.
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 2
    let sub = ((v >> (msb - 2)) & 3) as usize;
    (msb - 1) * 4 + sub
}

/// Inclusive `(low, high)` bounds of bucket `idx`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < 4 {
        return (idx as u64, idx as u64);
    }
    let msb = idx / 4 + 1;
    let sub = (idx % 4) as u64;
    let width = 1u64 << (msb - 2);
    let lo = (1u64 << msb) + sub * width;
    // `lo + width` overflows u64 in the topmost bucket; subtract first.
    (lo, lo + (width - 1))
}

pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation. A no-op while [`crate::recording`] is off
    /// (the bench crate's instrumentation-off baseline).
    pub fn record(&self, v: u64) {
        if !crate::recording() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u16, n));
            }
        }
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish()
    }
}

/// An RAII timer: on drop, records its elapsed nanoseconds into the
/// histogram it was opened with.
pub struct Span {
    start: Instant,
    hist: Option<Arc<Histogram>>,
}

impl Span {
    /// A span that records into `hist` when dropped.
    pub fn timed(hist: Arc<Histogram>) -> Span {
        Span {
            start: Instant::now(),
            hist: Some(hist),
        }
    }

    /// Elapsed nanoseconds so far (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Close the span early, returning the recorded duration.
    pub fn finish(mut self) -> u64 {
        let ns = self.elapsed_ns();
        if let Some(h) = self.hist.take() {
            h.record(ns);
        }
        ns
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(h) = self.hist.take() {
            h.record(self.elapsed_ns());
        }
    }
}

/// A point-in-time copy of a histogram: sparse bucket list plus
/// aggregates. Percentiles are computed lazily so deltas stay exact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// `(bucket_index, count)` pairs, ascending, zero buckets omitted.
    pub buckets: Vec<(u16, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`, reported as the upper bound
    /// of the containing bucket (≤ 25% relative error). Zero if empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(idx, n) in &self.buckets {
            cum += n;
            if cum >= rank {
                return bucket_bounds(idx as usize).1.min(self.max);
            }
        }
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Observations added since `base` was taken (same histogram,
    /// earlier snapshot).
    pub fn delta(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        let mut old: BTreeMap<u16, u64> = base.buckets.iter().copied().collect();
        let mut buckets = Vec::new();
        for &(idx, n) in &self.buckets {
            let prev = old.remove(&idx).unwrap_or(0);
            if n > prev {
                buckets.push((idx, n - prev));
            }
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(base.count),
            sum: self.sum.saturating_sub(base.sum),
            min: self.min,
            max: self.max,
            buckets,
        }
    }
}

// -------------------------------------------------------------- Registry

/// Build a registry key from a metric name and label pairs:
/// `key("x", &[("class", "Calc")])` → `x{class="Calc"}`.
pub fn key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
    out
}

#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

macro_rules! get_or_create {
    ($map:expr, $key:expr, $ty:ty) => {{
        if let Some(h) = $map.read().get($key) {
            return h.clone();
        }
        $map.write()
            .entry($key.to_string())
            .or_insert_with(|| Arc::new(<$ty>::default()))
            .clone()
    }};
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter registered under `name` (which may
    /// already contain a `{label="…"}` suffix — see [`key`]).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create!(self.counters, name, Counter)
    }

    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter(&key(name, labels))
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create!(self.gauges, name, Gauge)
    }

    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.gauge(&key(name, labels))
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create!(self.histograms, name, Histogram)
    }

    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram(&key(name, labels))
    }

    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The process-wide registry every instrumented crate records into.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// -------------------------------------------------------------- Snapshot

/// A point-in-time copy of every metric in a registry. Supports delta
/// arithmetic (for per-stage breakdowns around a workload) and
/// Prometheus text rendering (for `GET /metrics`).
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value by exact key, zero if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of all counters whose base name (before any `{`) is `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| base_name(k) == name)
            .map(|(_, v)| v)
            .sum()
    }

    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Everything that happened between `base` (earlier) and `self`.
    pub fn delta(&self, base: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(base.counter(k))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| {
                    let d = match base.histograms.get(k) {
                        Some(b) => v.delta(b),
                        None => v.clone(),
                    };
                    (k.clone(), d)
                })
                .collect(),
        }
    }

    /// Render in the Prometheus text exposition format. Histograms are
    /// rendered as summaries with `quantile` labels plus `_sum`/`_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_base = "";
        for (k, v) in &self.counters {
            let base = base_name(k);
            if base != last_base {
                out.push_str(&format!("# TYPE {base} counter\n"));
                last_base = base;
            }
            out.push_str(&format!("{k} {v}\n"));
        }
        last_base = "";
        for (k, v) in &self.gauges {
            let base = base_name(k);
            if base != last_base {
                out.push_str(&format!("# TYPE {base} gauge\n"));
                last_base = base;
            }
            out.push_str(&format!("{k} {v}\n"));
        }
        last_base = "";
        for (k, h) in &self.histograms {
            let base = base_name(k);
            if base != last_base {
                out.push_str(&format!("# TYPE {base} summary\n"));
                last_base = base;
            }
            for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "{} {}\n",
                    with_label(k, "quantile", label),
                    h.percentile(q)
                ));
            }
            let (name, labels) = split_key(k);
            out.push_str(&format!("{name}_sum{labels} {}\n", h.sum));
            out.push_str(&format!("{name}_count{labels} {}\n", h.count));
        }
        out
    }
}

/// `sde_dispatch_ns{class="Calc"}` → `sde_dispatch_ns`.
pub fn base_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// `("sde_dispatch_ns", "{class=\"Calc\"}")` — labels include braces,
/// empty string when unlabeled.
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) => key.split_at(i),
        None => (key, ""),
    }
}

/// Merge one more label into a possibly-labeled key.
fn with_label(key: &str, label: &str, value: &str) -> String {
    let (name, labels) = split_key(key);
    if labels.is_empty() {
        format!("{name}{{{label}=\"{value}\"}}")
    } else {
        let inner = &labels[1..labels.len() - 1];
        format!("{name}{{{inner},{label}=\"{value}\"}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_partition_the_range() {
        // Every bucket's low bound is the previous bucket's high + 1.
        for i in 1..N_BUCKETS {
            let (lo, _) = bucket_bounds(i);
            let (_, prev_hi) = bucket_bounds(i - 1);
            assert_eq!(lo, prev_hi + 1, "gap/overlap at bucket {i}");
        }
        // And indexing round-trips: v falls inside its own bucket.
        for v in [
            0,
            1,
            3,
            4,
            5,
            7,
            8,
            9,
            15,
            16,
            100,
            1000,
            1 << 20,
            u64::MAX / 3,
        ] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn bucket_error_is_bounded() {
        for v in [10u64, 100, 999, 12345, 1 << 30] {
            let (_, hi) = bucket_bounds(bucket_index(v));
            assert!(hi as f64 <= v as f64 * 1.25, "{v} → {hi}");
        }
    }

    #[test]
    fn percentiles_on_known_distribution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        // p50 of 1..=100 is 50; bucket upper bound may overshoot ≤ 25%.
        let p50 = s.percentile(0.5);
        assert!((50..=63).contains(&p50), "p50 = {p50}");
        let p99 = s.percentile(0.99);
        assert!((99..=100).contains(&p99), "p99 = {p99}");
        // Extremes clamp to real observations.
        assert_eq!(s.percentile(0.0), 1);
        assert_eq!(s.percentile(1.0), 100);
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        assert_eq!(Histogram::new().snapshot().percentile(0.5), 0);
    }

    #[test]
    fn single_observation_dominates_every_quantile() {
        let h = Histogram::new();
        h.record(42);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let p = s.percentile(q);
            let (lo, hi) = bucket_bounds(bucket_index(42));
            assert!(p >= lo && p <= hi.min(s.max), "q={q} p={p}");
        }
    }

    #[test]
    fn span_records_into_histogram() {
        let h = Arc::new(Histogram::new());
        {
            let _s = Span::timed(h.clone());
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_delta_subtracts_buckets() {
        let h = Histogram::new();
        h.record(5);
        h.record(5);
        let base = h.snapshot();
        h.record(5);
        h.record(1000);
        let d = h.snapshot().delta(&base);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 1005);
        assert_eq!(d.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 2);
    }

    #[test]
    fn counters_are_correct_under_contention() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("incrementer");
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn registry_returns_same_handle_for_same_key() {
        let r = Registry::new();
        let a = r.counter_with("x_total", &[("class", "Calc")]);
        let b = r.counter("x_total{class=\"Calc\"}");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_delta_and_lookup() {
        let r = Registry::new();
        r.counter("a_total").add(3);
        let base = r.snapshot();
        r.counter("a_total").add(2);
        r.histogram("h_ns").record(7);
        let d = r.snapshot().delta(&base);
        assert_eq!(d.counter("a_total"), 2);
        assert_eq!(d.histogram("h_ns").expect("h_ns").count, 1);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter_with("req_total", &[("class", "Calc")]).add(4);
        r.gauge("depth").set(2);
        r.histogram_with("lat_ns", &[("class", "Calc")]).record(100);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE req_total counter"));
        assert!(text.contains("req_total{class=\"Calc\"} 4"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("lat_ns{class=\"Calc\",quantile=\"0.5\"}"));
        assert!(text.contains("lat_ns_sum{class=\"Calc\"} 100"));
        assert!(text.contains("lat_ns_count{class=\"Calc\"} 1"));
    }

    #[test]
    fn counter_total_sums_across_labels() {
        let r = Registry::new();
        r.counter_with("t_total", &[("class", "A")]).add(1);
        r.counter_with("t_total", &[("class", "B")]).add(2);
        assert_eq!(r.snapshot().counter_total("t_total"), 3);
    }
}
