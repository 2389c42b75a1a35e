//! The observability layer: a typed metrics registry, structured trace
//! spans, and per-operator runtime profiles.
//!
//! The paper's evaluation (Sections 4.4, 5.3, 6.2) rests on being able to
//! *measure* each advancement — bytes read under predicate pushdown, jobs
//! eliminated by the Correlation Optimizer, per-operator CPU under
//! vectorization. This crate is the substrate those measurements flow
//! through: every execution layer records into [`metrics::MetricsRegistry`]
//! and structures its work as [`trace`] spans, and `EXPLAIN ANALYZE`
//! renders the [`profile`] data collected by the operators themselves.
//!
//! Everything here is deterministic by construction when the runtime runs
//! under `hive.exec.sim.deterministic.cpu`: snapshots are sorted, floats
//! are only ever produced by deterministic accumulation orders, and no
//! wall-clock value is recorded unless the deterministic clock replaces it.

pub mod counters;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use counters::ExecCounters;
pub use json::Json;
pub use metrics::{
    MetricKey, MetricValue, MetricsBatch, MetricsRegistry, MetricsScope, MetricsSnapshot,
};
pub use profile::{OpProfile, ScanProfile};
pub use trace::{AttrValue, SpanKind, SpanRecord, TaskPhase, TaskTrace, Trace};
