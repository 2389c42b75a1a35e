//! The metrics registry: typed counters, gauges and histograms with
//! labeled scopes, and deterministic snapshots.
//!
//! Determinism contract: a snapshot is a sorted map keyed by
//! `(name, labels)`, so its rendering depends only on the *values*
//! recorded. Under `hive.exec.sim.deterministic.cpu` every value the
//! runtime records is itself deterministic (simulated times, row counts,
//! byte counts), which makes the JSON snapshot byte-identical across runs
//! and across worker-thread counts.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// A counter-like value: unsigned for event counts, float for accumulated
/// seconds. What [`crate::counters!`]-generated structs export.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    U64(u64),
    F64(f64),
}

impl From<u64> for MetricValue {
    fn from(n: u64) -> MetricValue {
        MetricValue::U64(n)
    }
}

impl From<f64> for MetricValue {
    fn from(n: f64) -> MetricValue {
        MetricValue::F64(n)
    }
}

/// A metric identity: name plus sorted labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct MetricKey {
    pub name: String,
    pub labels: BTreeMap<String, String>,
}

impl MetricKey {
    pub fn new(name: &str) -> MetricKey {
        MetricKey {
            name: name.to_string(),
            labels: BTreeMap::new(),
        }
    }

    pub fn with_labels(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        MetricKey {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// `name{k=v,k2=v2}` (no braces when unlabeled).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// Aggregated observations of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramStat {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl HistogramStat {
    fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, HistogramStat>,
}

/// Lock the registry, recovering from poisoning: every update leaves each
/// series a valid value on its own, so a panicking holder corrupts nothing.
fn lock(inner: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    inner.lock().unwrap_or_else(|e| e.into_inner())
}

/// Apply `f` to the series at `key`, cloning the key only when the series
/// is new: updates to an existing series allocate nothing.
fn update<V: Default>(map: &mut BTreeMap<MetricKey, V>, key: &MetricKey, f: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(v) => f(v),
        None => {
            let mut v = V::default();
            f(&mut v);
            map.insert(key.clone(), v);
        }
    }
}

/// A shared, thread-safe registry of typed metrics. Cloning shares state,
/// so a session, its engine, and an external sink can all hold handles.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Two registries are the same sink iff they share state.
    pub fn same_sink(&self, other: &MetricsRegistry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// A scope that stamps `labels` onto every metric created through it.
    pub fn scope(&self, labels: &[(&str, &str)]) -> MetricsScope {
        MetricsScope {
            registry: self.clone(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            inner: Arc::clone(&self.inner),
            key: MetricKey::new(name),
        }
    }

    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter {
            inner: Arc::clone(&self.inner),
            key: MetricKey::with_labels(name, labels),
        }
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            inner: Arc::clone(&self.inner),
            key: MetricKey::new(name),
        }
    }

    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge {
            inner: Arc::clone(&self.inner),
            key: MetricKey::with_labels(name, labels),
        }
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            inner: Arc::clone(&self.inner),
            key: MetricKey::new(name),
        }
    }

    /// Record a [`MetricValue`]: `U64` increments a counter, `F64`
    /// accumulates into a gauge. How counter-struct entries land here.
    pub fn record(&self, key: MetricKey, value: MetricValue) {
        self.batch(|m| m.record(&key, value));
    }

    /// Run `f` with the registry locked once, so a caller recording many
    /// series (one statement's report) takes the lock once, not per series.
    pub fn batch<R>(&self, f: impl FnOnce(&mut MetricsBatch<'_>) -> R) -> R {
        let mut inner = lock(&self.inner);
        f(&mut MetricsBatch { inner: &mut inner })
    }

    /// A consistent point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = lock(&self.inner);
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }

    /// Drop every recorded value (between benchmark phases).
    pub fn reset(&self) {
        let mut inner = lock(&self.inner);
        inner.counters.clear();
        inner.gauges.clear();
        inner.histograms.clear();
    }
}

/// Updates applied under one hold of the registry lock; see
/// [`MetricsRegistry::batch`].
pub struct MetricsBatch<'a> {
    inner: &'a mut Inner,
}

impl MetricsBatch<'_> {
    /// As [`MetricsRegistry::record`].
    pub fn record(&mut self, key: &MetricKey, value: MetricValue) {
        match value {
            MetricValue::U64(n) => update(&mut self.inner.counters, key, |c| *c += n),
            MetricValue::F64(n) => update(&mut self.inner.gauges, key, |g| *g += n),
        }
    }

    /// As [`Histogram::observe`].
    pub fn observe(&mut self, key: &MetricKey, v: f64) {
        update(&mut self.inner.histograms, key, |h| h.observe(v));
    }
}

/// A label-stamping view over a registry.
#[derive(Debug, Clone)]
pub struct MetricsScope {
    registry: MetricsRegistry,
    labels: BTreeMap<String, String>,
}

impl MetricsScope {
    fn key(&self, name: &str) -> MetricKey {
        MetricKey {
            name: name.to_string(),
            labels: self.labels.clone(),
        }
    }

    /// A child scope with extra labels (rightmost wins on collision).
    pub fn scope(&self, labels: &[(&str, &str)]) -> MetricsScope {
        let mut merged = self.labels.clone();
        for (k, v) in labels {
            merged.insert(k.to_string(), v.to_string());
        }
        MetricsScope {
            registry: self.registry.clone(),
            labels: merged,
        }
    }

    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            inner: Arc::clone(&self.registry.inner),
            key: self.key(name),
        }
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            inner: Arc::clone(&self.registry.inner),
            key: self.key(name),
        }
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            inner: Arc::clone(&self.registry.inner),
            key: self.key(name),
        }
    }
}

/// A monotonically increasing event count.
#[derive(Debug, Clone)]
pub struct Counter {
    inner: Arc<Mutex<Inner>>,
    key: MetricKey,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        update(&mut lock(&self.inner).counters, &self.key, |c| *c += n);
    }

    pub fn get(&self) -> u64 {
        let inner = lock(&self.inner);
        inner.counters.get(&self.key).copied().unwrap_or(0)
    }
}

/// A float-valued metric: `set` for levels, `add` for accumulated seconds.
#[derive(Debug, Clone)]
pub struct Gauge {
    inner: Arc<Mutex<Inner>>,
    key: MetricKey,
}

impl Gauge {
    pub fn set(&self, v: f64) {
        update(&mut lock(&self.inner).gauges, &self.key, |g| *g = v);
    }

    pub fn add(&self, v: f64) {
        update(&mut lock(&self.inner).gauges, &self.key, |g| *g += v);
    }

    pub fn get(&self) -> f64 {
        let inner = lock(&self.inner);
        inner.gauges.get(&self.key).copied().unwrap_or(0.0)
    }
}

/// A distribution summary (count/sum/min/max — deterministic, no buckets).
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<Mutex<Inner>>,
    key: MetricKey,
}

impl Histogram {
    pub fn observe(&self, v: f64) {
        update(&mut lock(&self.inner).histograms, &self.key, |h| {
            h.observe(v)
        });
    }

    pub fn get(&self) -> HistogramStat {
        let inner = lock(&self.inner);
        inner.histograms.get(&self.key).copied().unwrap_or_default()
    }
}

/// Plain-value snapshot of a registry. Sorted by construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<MetricKey, u64>,
    pub gauges: BTreeMap<MetricKey, f64>,
    pub histograms: BTreeMap<MetricKey, HistogramStat>,
}

impl MetricsSnapshot {
    /// Counter lookup by name + labels (tests, assertions).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters
            .get(&MetricKey::with_labels(name, labels))
            .copied()
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges
            .get(&MetricKey::with_labels(name, labels))
            .copied()
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramStat> {
        self.histograms
            .get(&MetricKey::with_labels(name, labels))
            .copied()
    }

    /// The stable JSON shape (`format_version` 1): three sorted entry
    /// arrays, each entry `{name, labels, ...value fields}`.
    pub fn to_json(&self) -> Json {
        fn entry(key: &MetricKey) -> Json {
            let mut e = Json::obj();
            e.push("name", Json::Str(key.name.clone()));
            let mut labels = Json::obj();
            for (k, v) in &key.labels {
                labels.push(k, Json::Str(v.clone()));
            }
            e.push("labels", labels);
            e
        }
        let mut counters = Vec::new();
        for (key, v) in &self.counters {
            let mut e = entry(key);
            e.push("value", Json::U64(*v));
            counters.push(e);
        }
        let mut gauges = Vec::new();
        for (key, v) in &self.gauges {
            let mut e = entry(key);
            e.push("value", Json::F64(*v));
            gauges.push(e);
        }
        let mut histograms = Vec::new();
        for (key, h) in &self.histograms {
            let mut e = entry(key);
            e.push("count", Json::U64(h.count));
            e.push("sum", Json::F64(h.sum));
            e.push("min", Json::F64(h.min));
            e.push("max", Json::F64(h.max));
            histograms.push(e);
        }
        let mut out = Json::obj();
        out.push("format_version", Json::U64(1));
        out.push("counters", Json::Array(counters));
        out.push("gauges", Json::Array(gauges));
        out.push("histograms", Json::Array(histograms));
        out
    }

    /// Human-readable one-metric-per-line rendering (CLI `!metrics`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (key, v) in &self.counters {
            out.push_str(&format!("{} {v}\n", key.render()));
        }
        for (key, v) in &self.gauges {
            out.push_str(&format!("{} {v}\n", key.render()));
        }
        for (key, h) in &self.histograms {
            out.push_str(&format!(
                "{} count={} sum={} min={} max={}\n",
                key.render(),
                h.count,
                h.sum,
                h.min,
                h.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = MetricsRegistry::new();
        r.counter("q.count").inc();
        r.counter("q.count").add(2);
        r.counter_with("job.attempts", &[("job", "j0")]).add(4);
        let snap = r.snapshot();
        assert_eq!(snap.counter("q.count", &[]), Some(3));
        assert_eq!(snap.counter("job.attempts", &[("job", "j0")]), Some(4));
        assert_eq!(snap.counter("job.attempts", &[("job", "j1")]), None);
    }

    #[test]
    fn scopes_stamp_labels() {
        let r = MetricsRegistry::new();
        let job = r.scope(&[("job", "j0")]);
        let op = job.scope(&[("op", "GroupBy")]);
        op.counter("operator.rows_in").add(10);
        let snap = r.snapshot();
        assert_eq!(
            snap.counter("operator.rows_in", &[("job", "j0"), ("op", "GroupBy")]),
            Some(10)
        );
    }

    #[test]
    fn gauges_and_histograms() {
        let r = MetricsRegistry::new();
        r.gauge("cpu_s").add(1.5);
        r.gauge("cpu_s").add(0.5);
        r.histogram("sim_s").observe(2.0);
        r.histogram("sim_s").observe(6.0);
        let snap = r.snapshot();
        assert_eq!(snap.gauge("cpu_s", &[]), Some(2.0));
        let h = snap.histogram("sim_s", &[]).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 8.0);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 6.0);
        assert_eq!(h.mean(), 4.0);
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let r = MetricsRegistry::new();
        r.counter("b").inc();
        r.counter("a").inc();
        r.counter_with("a", &[("x", "1")]).inc();
        let j1 = r.snapshot().to_json().render();
        let j2 = r.snapshot().to_json().render();
        assert_eq!(j1, j2);
        let a = j1.find("\"name\":\"a\"").unwrap();
        let b = j1.find("\"name\":\"b\"").unwrap();
        assert!(a < b, "entries sorted by key");
        assert!(crate::json::parse(&j1).is_ok());
    }

    #[test]
    fn same_sink_detects_shared_state() {
        let r = MetricsRegistry::new();
        let clone = r.clone();
        assert!(r.same_sink(&clone));
        assert!(!r.same_sink(&MetricsRegistry::new()));
        clone.counter("x").inc();
        assert_eq!(r.snapshot().counter("x", &[]), Some(1));
    }

    #[test]
    fn record_routes_by_value_kind() {
        let r = MetricsRegistry::new();
        r.record(MetricKey::new("n"), MetricValue::U64(5));
        r.record(MetricKey::new("s"), MetricValue::F64(1.25));
        let snap = r.snapshot();
        assert_eq!(snap.counter("n", &[]), Some(5));
        assert_eq!(snap.gauge("s", &[]), Some(1.25));
    }
}
