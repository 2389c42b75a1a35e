//! Session configuration: the `hive.*` / `dfs.*` knobs that gate each
//! advancement, mirroring `HiveConf` in Hive.
//!
//! The paper's on/off comparisons keep their knobs (PPD, the correlation
//! optimizer, map-join conversion, vectorization), so the benchmark
//! harness can reproduce each figure. Switches that only staged the
//! rollout of a path that is now the default are deleted.
//!
//! The surface is a *typed knob registry*: each property is declared once
//! in the [`knobs!`](macro@crate::config) block below as a [`Knob<T>`]
//! carrying its key, type, default, and doc string. Typed access goes
//! through [`HiveConf::get`] / [`HiveConf::set_knob`]; the string methods
//! ([`HiveConf::get_bool`] and friends, and the unvalidated
//! [`HiveConf::set`]) remain as thin compatibility shims. Validating
//! entry points — [`HiveConf::try_set`] and [`HiveConf::validate`] —
//! check types and ranges eagerly and reject unknown keys with
//! near-miss suggestions ([`HiveError::UnknownKnob`]).

use crate::error::{HiveError, Result};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// Typed accessor over a string-keyed property map with defaults.
#[derive(Debug, Clone, Default)]
pub struct HiveConf {
    overrides: BTreeMap<String, String>,
}

/// A value type a [`Knob`] can carry: parseable from / printable to the
/// raw string representation stored in [`HiveConf`].
pub trait KnobValue: Sized {
    /// Human-readable type name used in error messages and the knob table.
    const TYPE_NAME: &'static str;
    /// Parse the raw string; `None` on malformed input.
    fn parse_raw(raw: &str) -> Option<Self>;
    /// Render back to the raw string representation.
    fn to_raw(&self) -> String;
    /// Numeric view for range validation; `None` for non-numeric types.
    fn as_f64(&self) -> Option<f64> {
        None
    }
}

impl KnobValue for u64 {
    const TYPE_NAME: &'static str = "u64";
    fn parse_raw(raw: &str) -> Option<u64> {
        raw.parse().ok()
    }
    fn to_raw(&self) -> String {
        self.to_string()
    }
    fn as_f64(&self) -> Option<f64> {
        Some(*self as f64)
    }
}

impl KnobValue for f64 {
    const TYPE_NAME: &'static str = "f64";
    fn parse_raw(raw: &str) -> Option<f64> {
        raw.parse().ok()
    }
    fn to_raw(&self) -> String {
        let s = self.to_string();
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    }
    fn as_f64(&self) -> Option<f64> {
        Some(*self)
    }
}

impl KnobValue for bool {
    const TYPE_NAME: &'static str = "bool";
    fn parse_raw(raw: &str) -> Option<bool> {
        match raw.to_ascii_lowercase().as_str() {
            "true" | "1" | "on" | "yes" => Some(true),
            "false" | "0" | "off" | "no" => Some(false),
            _ => None,
        }
    }
    fn to_raw(&self) -> String {
        self.to_string()
    }
}

impl KnobValue for String {
    const TYPE_NAME: &'static str = "string";
    fn parse_raw(raw: &str) -> Option<String> {
        Some(raw.to_string())
    }
    fn to_raw(&self) -> String {
        self.clone()
    }
}

/// A typed configuration knob: key, default, doc, and optional
/// range/allowed-values constraints, declared once in the registry.
#[derive(Debug)]
pub struct Knob<T> {
    /// The `hive.*` / `dfs.*` / `mapred*` property key.
    pub name: &'static str,
    /// Doc string (also rendered into the README knob table).
    pub doc: &'static str,
    /// Default value in raw string form; the single source of defaults.
    pub default_raw: &'static str,
    /// Inclusive numeric range constraint, if any.
    pub range: Option<(f64, f64)>,
    /// Closed set of allowed raw values, if any.
    pub allowed: Option<&'static [&'static str]>,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for Knob<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Knob<T> {}

impl<T: KnobValue> Knob<T> {
    /// Parse and validate a raw value against this knob's type and
    /// constraints.
    pub fn parse(&self, raw: &str) -> Result<T> {
        let v = T::parse_raw(raw).ok_or_else(|| {
            HiveError::Config(format!(
                "knob `{}`: `{raw}` is not a {}",
                self.name,
                T::TYPE_NAME
            ))
        })?;
        if let (Some((lo, hi)), Some(x)) = (self.range, v.as_f64()) {
            if x < lo || x > hi {
                return Err(HiveError::Config(format!(
                    "knob `{}`: {raw} is outside [{lo}, {hi}]",
                    self.name
                )));
            }
        }
        if let Some(allowed) = self.allowed {
            if !allowed.contains(&raw) {
                return Err(HiveError::Config(format!(
                    "knob `{}`: `{raw}` is not one of {allowed:?}",
                    self.name
                )));
            }
        }
        Ok(v)
    }

    /// The typed default value.
    pub fn default_value(&self) -> T {
        self.parse(self.default_raw)
            .expect("registry default must satisfy its own knob constraints")
    }
}

/// Type-erased view of one knob for the registry table, validation, and
/// README generation.
pub struct KnobInfo {
    pub name: &'static str,
    pub type_name: &'static str,
    pub default_raw: &'static str,
    pub doc: &'static str,
    /// Validate a raw value against the knob's type and constraints.
    pub check: fn(&str) -> Result<()>,
}

macro_rules! opt_range {
    () => {
        None
    };
    ($lo:literal, $hi:literal) => {
        Some(($lo as f64, $hi as f64))
    };
}

macro_rules! opt_values {
    () => {
        None
    };
    ($($val:literal),+) => {
        Some(&[$($val),+] as &'static [&'static str])
    };
}

/// Declare the knob registry: generates the typed `knobs` module, the
/// string-key `keys` shims, and the type-erased `knobs::ALL` table that
/// drives validation, `effective()`, and the README knob table.
macro_rules! knobs {
    (
        $(
            $(#[doc = $doc:literal])+
            $NAME:ident : $ty:ty = $key:literal, $default:literal
                $(, range($lo:literal, $hi:literal))?
                $(, values($($val:literal),+))?
            ;
        )*
    ) => {
        /// Typed knob constants. Defaults follow the paper where it
        /// states one.
        pub mod knobs {
            use super::{Knob, KnobInfo};
            use std::marker::PhantomData;

            $(
                $(#[doc = $doc])+
                pub const $NAME: Knob<$ty> = Knob {
                    name: $key,
                    doc: concat!($($doc),+),
                    default_raw: $default,
                    range: opt_range!($($lo, $hi)?),
                    allowed: opt_values!($($($val),+)?),
                    _marker: PhantomData,
                };
            )*

            /// Every registered knob, in declaration order.
            pub static ALL: &[KnobInfo] = &[
                $(
                    KnobInfo {
                        name: $key,
                        type_name: <$ty as super::KnobValue>::TYPE_NAME,
                        default_raw: $default,
                        doc: concat!($($doc),+),
                        check: {
                            fn check(raw: &str) -> crate::error::Result<()> {
                                $NAME.parse(raw).map(|_| ())
                            }
                            check
                        },
                    },
                )*
            ];
        }

        /// Well-known property keys (string shims over the typed
        /// registry; prefer `knobs::*` for typed access).
        pub mod keys {
            $(
                $(#[doc = $doc])+
                pub const $NAME: &str = $key;
            )*
        }
    };
}

knobs! {
    /// ORC stripe size in bytes (paper default: 256 MB; tests scale down).
    ORC_STRIPE_SIZE: u64 = "hive.exec.orc.default.stripe.size", "268435456";
    /// Rows per index group (paper default: 10,000).
    ORC_ROW_INDEX_STRIDE: u64 = "hive.exec.orc.row.index.stride", "10000";
    /// Dictionary-encoding threshold: distinct/total ratio (paper: 0.8).
    ORC_DICT_THRESHOLD: f64 = "hive.exec.orc.dictionary.key.size.threshold", "0.8", range(0.0, 1.0);
    /// General-purpose codec: `none`, `snappy`, or `zlib`.
    ORC_COMPRESS: String = "hive.exec.orc.default.compress", "none", values("none", "snappy", "zlib");
    /// Compression unit size in bytes (paper default: 256 KB).
    ORC_COMPRESS_UNIT: u64 = "hive.exec.orc.compress.unit", "262144";
    /// Pad stripes so each fits in a single DFS block (Section 4.1).
    ORC_BLOCK_PADDING: bool = "hive.exec.orc.default.block.padding", "true";
    /// Fraction of task memory available to concurrent ORC writers
    /// (paper: half the task memory).
    ORC_MEMORY_POOL: f64 = "hive.exec.orc.memory.pool", "0.5", range(0.0, 1.0);
    /// Push predicates down to the storage reader (enables Fig. 10's PPD).
    OPT_PPD_STORAGE: bool = "hive.optimize.index.filter", "true";
    /// RCFile row-group size in bytes (paper: 4 MB).
    RCFILE_ROWGROUP_SIZE: u64 = "hive.io.rcfile.record.buffer.size", "4194304";
    /// Enable the Correlation Optimizer (Section 5.2).
    OPT_CORRELATION: bool = "hive.optimize.correlation", "true";
    /// Convert Reduce Joins to Map Joins when the small side fits.
    AUTO_CONVERT_JOIN: bool = "hive.auto.convert.join", "true";
    /// Small-table bytes threshold for Map Join conversion.
    MAPJOIN_SMALLTABLE_SIZE: u64 = "hive.mapjoin.smalltable.filesize", "25000000";
    /// Merge Map-only jobs into their child job (Section 5.1).
    MERGE_MAPONLY_JOBS: bool = "hive.optimize.merge.maponly.jobs", "true";
    /// Total-hash-table bytes threshold guarding the merge (Section 5.1).
    MERGE_MAPONLY_THRESHOLD: u64 = "hive.auto.convert.join.noconditionaltask.size", "10000000";
    /// Enable vectorized execution (Section 6).
    VECTORIZED_ENABLED: bool = "hive.vectorized.execution.enabled", "true";
    /// Vectorize eligible Map Joins: build the small-side hash table once,
    /// probe it a batch at a time (inner + binary left-outer; other shapes
    /// keep the row-mode fallback). Requires vectorized execution.
    VECTORIZED_MAPJOIN_ENABLED: bool = "hive.vectorized.execution.mapjoin.enabled", "true";
    /// Cost-based join reordering (the paper's Section 9 outlook).
    CBO_ENABLE: bool = "hive.cbo.enable", "false";
    /// Answer COUNT/MIN/MAX/SUM-only queries from ORC file statistics
    /// without running a job (paper §4.2: file-level statistics "are also
    /// used to answer simple aggregation queries").
    COMPUTE_USING_STATS: bool = "hive.compute.query.using.stats", "false";
    /// Rows per vectorized batch (paper default: 1024).
    VECTORIZED_BATCH_SIZE: u64 = "hive.vectorized.batch.size", "1024";
    /// File format the TPC-H data generator creates its tables in.
    /// `CREATE TABLE` without `STORED AS` always uses Text.
    DEFAULT_FILEFORMAT: String = "hive.default.fileformat", "orc",
        values("text", "textfile", "seq", "sequencefile", "rcfile", "rc", "orc", "orcfile");
    /// Number of reduce tasks per job unless the plan pins one.
    REDUCE_TASKS: u64 = "mapreduce.job.reduces", "10";
    /// Memory available to one task in bytes (m1.xlarge-ish scaled down).
    TASK_MEMORY: u64 = "mapreduce.task.memory.bytes", "1073741824";
    /// Run independent jobs of a query DAG concurrently (Hive's
    /// `hive.exec.parallel`; Hive defaults it off, and so do we).
    EXEC_PARALLEL: bool = "hive.exec.parallel", "false";
    /// Worker threads for running map/reduce tasks of one job.
    /// `0` means "auto": use every core the host exposes.
    EXEC_WORKER_THREADS: u64 = "hive.exec.worker.threads", "0";
    /// Replace measured per-task CPU time in the simulated cost model with
    /// a deterministic per-row constant, making reported simulated times
    /// bit-identical across runs and worker-thread counts.
    EXEC_SIM_DETERMINISTIC_CPU: bool = "hive.exec.sim.deterministic.cpu", "false";
    /// Seed for the deterministic DFS fault plan. Faults depend only on
    /// `(seed, path, offset)`, never on timing or thread interleaving.
    DFS_FAULT_SEED: u64 = "dfs.fault.seed", "0";
    /// Probability that the *first* read of a `(path, offset)` location
    /// fails with a retryable `Transient` error. Re-reads of a location
    /// that already served (or failed) once succeed, modeling failover to
    /// a healthy replica.
    DFS_FAULT_READ_ERROR_RATE: f64 = "dfs.fault.read.error.rate", "0.0", range(0.0, 1.0);
    /// Probability that the first read of a location silently flips a byte
    /// on the wire. Per-block CRC32 verification catches the flip and turns
    /// it into a retryable `Corrupt` error instead of garbage rows.
    DFS_FAULT_CORRUPT_RATE: f64 = "dfs.fault.corrupt.rate", "0.0", range(0.0, 1.0);
    /// Comma-separated node ids whose reads incur extra simulated latency
    /// (stragglers). Empty = none.
    DFS_FAULT_SLOW_NODES: String = "dfs.fault.slow.nodes", "";
    /// Comma-separated node ids from which every read fails with a
    /// `Transient` error (dead datanodes). Empty = none.
    DFS_FAULT_FAIL_NODES: String = "dfs.fault.fail.nodes", "";
    /// Extra simulated latency on slow nodes, in milliseconds per MiB read.
    DFS_FAULT_SLOW_MS_PER_MB: u64 = "dfs.fault.slow.ms.per.mb", "200";
    /// Probability that the *first* publish of a path fails with a retryable
    /// `Transient` error before any byte lands. Re-publishing the same path
    /// succeeds (first-touch, like the read faults).
    DFS_FAULT_WRITE_ERROR_RATE: f64 = "dfs.fault.write.error.rate", "0.0", range(0.0, 1.0);
    /// Probability that the first publish of a path is *torn*: a strict
    /// prefix of the bytes lands and the writer gets a `Transient` error —
    /// modeling a client that died mid-write. Commit protocols must detect
    /// the partial file via their barrier read-back, never trust it.
    DFS_FAULT_WRITE_TORN_RATE: f64 = "dfs.fault.write.torn.rate", "0.0", range(0.0, 1.0);
    /// Probability that the first rename of a source path fails with a
    /// retryable `Transient` error without moving anything.
    DFS_FAULT_RENAME_ERROR_RATE: f64 = "dfs.fault.rename.error.rate", "0.0", range(0.0, 1.0);
    /// Probability that the first rename of a source path *succeeds on the
    /// namenode but the ack is lost*: the caller sees a `Transient` error
    /// although the move happened. A duplicate retry of the committed
    /// rename must be recognized as already-done, not re-applied.
    DFS_FAULT_RENAME_ACK_LOST_RATE: f64 = "dfs.fault.rename.ack.lost.rate", "0.0", range(0.0, 1.0);
    /// Maximum attempts per map task, Hadoop's `mapred.map.max.attempts`.
    MAP_MAX_ATTEMPTS: u64 = "mapred.map.max.attempts", "4", range(1.0, 100.0);
    /// Maximum attempts per reduce task.
    REDUCE_MAX_ATTEMPTS: u64 = "mapred.reduce.max.attempts", "4", range(1.0, 100.0);
    /// Base of the exponential sim-time backoff between task attempts, in
    /// simulated seconds (attempt k waits `base * 2^k`).
    TASK_RETRY_BACKOFF_S: f64 = "mapred.task.retry.backoff.s", "1.0";
    /// Retryable task failures a node may cause before it is blacklisted
    /// from replica selection (Hadoop's `mapred.max.tracker.failures`).
    MAX_TRACKER_FAILURES: u64 = "mapred.max.tracker.failures", "3";
    /// Launch speculative duplicate attempts for straggling map tasks.
    EXEC_SPECULATIVE: bool = "hive.exec.speculative", "false";
    /// A task is a straggler when its simulated duration exceeds
    /// `threshold × median` of its job's map tasks.
    EXEC_SPECULATIVE_THRESHOLD: f64 = "hive.exec.speculative.threshold", "1.5";
    /// Skip ORC stripes / index groups whose checksum or decode fails and
    /// report rows-skipped, instead of failing the query (Hive's
    /// `hive.exec.orc.skip.corrupt.data`).
    ORC_SKIP_CORRUPT: bool = "hive.exec.orc.skip.corrupt.data", "false";
    /// Queries a `HiveServer` admits concurrently; further queries block
    /// at admission control until a slot frees (HiveServer2-style).
    SERVER_MAX_CONCURRENT: u64 = "hive.server.max.concurrent.queries", "8", range(1.0, 4096.0);
    /// Capacity of the DFS block-level byte cache in bytes (sharded LRU,
    /// LLAP-style), sized once at server startup from the server defaults.
    /// Per-session or per-query, the value is an on/off switch: `0` makes
    /// the statement bypass *both* cache tiers — byte caching and the ORC
    /// metadata cache — restoring uncached scan behavior exactly, without
    /// affecting concurrent statements.
    IO_CACHE_BYTES: u64 = "hive.io.cache.bytes", "33554432";
    /// Workload-management resource plan: `;`-separated pools, each
    /// `name:share=<slots>[,priority=<p>]` (priority defaults to 0). A
    /// statement borrowing beyond its pool's share is preempted and re-run
    /// from scratch when a higher-priority under-share pool has a waiter;
    /// after 8 preemptions it is immune. Total server concurrency is the
    /// sum of shares.
    /// Empty = one `default` pool whose share is
    /// `hive.server.max.concurrent.queries` — byte-identical to the flat
    /// admission semaphore this layer replaced.
    SERVER_WM_PLAN: String = "hive.server.wm.plan", "";
    /// Session→pool mapping rules: `;`-separated `user=pool` pairs matched
    /// (in order) against `hive.session.user`; `*=pool` is the catch-all.
    /// Sessions matching no rule land in the plan's first pool.
    SERVER_WM_MAPPING: String = "hive.server.wm.mapping", "";
    /// Tenant identity of a session; the workload manager's mapping rules
    /// match it to a resource pool.
    SESSION_USER: String = "hive.session.user", "";
    /// Cache compiled query plans in the server, keyed on normalized SQL +
    /// a planning-knob fingerprint + the metastore and DFS generations, so
    /// repeat statement shapes skip parse/plan entirely. DDL and data
    /// overwrites bump a generation and make cached plans structurally
    /// unreachable (PR 5's cache-invalidation pattern).
    PLAN_CACHE_ENABLED: bool = "hive.query.plan.cache.enabled", "false";
    /// Maximum cached plans (least-recently-used eviction).
    PLAN_CACHE_SIZE: u64 = "hive.query.plan.cache.size", "64", range(1.0, 65536.0);
    /// Armed crash point for ACID chaos tests: when a writer or compactor
    /// reaches the named point of its commit protocol it dies there with a
    /// non-retryable `Crashed` error, skipping all cleanup — `kill -9` at a
    /// deterministic instruction. Empty (the default) disarms. See the
    /// crash-point registries in `hive-core::acid`.
    TXN_CRASH_POINT: String = "hive.txn.crash.point", "";
    /// Run a minor compaction automatically after a DML commit leaves a
    /// table with at least `hive.compactor.delta.threshold` delta files.
    /// Off by default: compaction is explicit (`ALTER TABLE t COMPACT`).
    COMPACTOR_AUTO: bool = "hive.compactor.auto.enabled", "false";
    /// Delta-file count at which auto compaction (when enabled) kicks in.
    COMPACTOR_DELTA_THRESHOLD: u64 = "hive.compactor.delta.threshold", "10", range(1.0, 100000.0);
    /// Comma-separated top-level column names the ORC writer builds
    /// per-index-group bloom filters for (pruning equality and IN
    /// predicates that min/max stats cannot). Empty = no bloom filters.
    ORC_BLOOM_FILTER_COLUMNS: String = "hive.orc.bloom.filter.columns", "";
    /// Target false-positive probability of ORC bloom filters; lower
    /// means bigger filters and fewer wasted group reads.
    ORC_BLOOM_FILTER_FPP: f64 = "hive.orc.bloom.filter.fpp", "0.05", range(0.001, 0.5);
    /// Comma-separated column names: replica k+1 of each ORC file is
    /// written with its rows sorted on the k-th name (HAIL-style
    /// per-replica sort orders; replica 1 always keeps insertion order).
    /// Empty = all replicas byte-identical. Split planning reads the
    /// replica whose sort column matches a pushed-down predicate column.
    ORC_REPLICA_SORT_COLUMNS: String = "hive.orc.replica.sort.columns", "";
}

/// Look up a knob's type-erased registry entry by key.
pub fn lookup_knob(key: &str) -> Option<&'static KnobInfo> {
    knobs::ALL.iter().find(|k| k.name == key)
}

/// Levenshtein distance, for near-miss suggestions on unknown keys.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Up to three registered keys closest to `key` (edit distance or
/// substring match), for `UnknownKnob` error messages.
pub fn suggest_knobs(key: &str) -> Vec<String> {
    let mut scored: Vec<(usize, &'static str)> = knobs::ALL
        .iter()
        .map(|k| (edit_distance(key, k.name), k.name))
        .collect();
    scored.sort();
    let cutoff = (key.len() / 3).max(3);
    scored
        .into_iter()
        .filter(|(d, name)| *d <= cutoff || name.contains(key) || key.contains(name))
        .take(3)
        .map(|(_, name)| name.to_string())
        .collect()
}

/// The generated markdown knob table (key, type, default, doc), the
/// single source for the README's configuration section.
pub fn knob_table_markdown() -> String {
    let mut out = String::from("| Key | Type | Default | Description |\n|---|---|---|---|\n");
    for k in knobs::ALL {
        let doc: String = k.doc.split_whitespace().collect::<Vec<_>>().join(" ");
        let default = if k.default_raw.is_empty() {
            "(empty)".to_string()
        } else {
            format!("`{}`", k.default_raw)
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            k.name, k.type_name, default, doc
        ));
    }
    out
}

impl HiveConf {
    pub fn new() -> HiveConf {
        HiveConf::default()
    }

    /// Set a property, overriding its default.
    ///
    /// Compatibility shim: performs **no validation** — unknown keys and
    /// ill-typed values are stored as-is and surface later from
    /// [`HiveConf::validate`] (the driver calls it per statement) or a
    /// typed getter. New code should use [`HiveConf::try_set`] or
    /// [`HiveConf::set_knob`].
    pub fn set(&mut self, key: &str, value: impl Into<String>) -> &mut Self {
        self.overrides.insert(key.to_string(), value.into());
        self
    }

    /// Builder-style [`HiveConf::set`] (same caveats).
    pub fn with(mut self, key: &str, value: impl Into<String>) -> Self {
        self.set(key, value);
        self
    }

    /// Validating set: the key must name a registered knob and the value
    /// must satisfy its type/range/allowed-values constraints. Unknown
    /// keys fail with [`HiveError::UnknownKnob`] carrying near-miss
    /// suggestions.
    pub fn try_set(&mut self, key: &str, value: impl Into<String>) -> Result<&mut Self> {
        let value = value.into();
        let info = lookup_knob(key).ok_or_else(|| HiveError::UnknownKnob {
            key: key.to_string(),
            suggestions: suggest_knobs(key),
        })?;
        (info.check)(&value)?;
        self.overrides.insert(key.to_string(), value);
        Ok(self)
    }

    /// Typed set.
    pub fn set_knob<T: KnobValue>(&mut self, knob: Knob<T>, value: T) -> &mut Self {
        self.overrides.insert(knob.name.to_string(), value.to_raw());
        self
    }

    /// Builder-style typed set.
    pub fn with_knob<T: KnobValue>(mut self, knob: Knob<T>, value: T) -> Self {
        self.set_knob(knob, value);
        self
    }

    /// Typed get: override if set, else the registry default.
    ///
    /// Panics if a *string* override stored through the unvalidated
    /// [`HiveConf::set`] shim fails to parse — use [`HiveConf::try_get`]
    /// or run [`HiveConf::validate`] first to surface that as an error.
    pub fn get<T: KnobValue>(&self, knob: Knob<T>) -> T {
        self.try_get(knob)
            .unwrap_or_else(|e| panic!("invalid override for `{}`: {e}", knob.name))
    }

    /// Typed get that reports ill-typed overrides instead of panicking.
    pub fn try_get<T: KnobValue>(&self, knob: Knob<T>) -> Result<T> {
        match self.overrides.get(knob.name) {
            Some(raw) => knob.parse(raw),
            None => Ok(knob.default_value()),
        }
    }

    /// Raw string lookup: override, then registry default, then `None`.
    pub fn get_raw(&self, key: &str) -> Option<&str> {
        if let Some(v) = self.overrides.get(key) {
            return Some(v);
        }
        lookup_knob(key).map(|k| k.default_raw)
    }

    pub fn get_i64(&self, key: &str) -> Result<i64> {
        let raw = self
            .get_raw(key)
            .ok_or_else(|| HiveError::Config(format!("unknown property `{key}`")))?;
        raw.parse::<i64>()
            .map_err(|_| HiveError::Config(format!("property `{key}`=`{raw}` is not an integer")))
    }

    pub fn get_usize(&self, key: &str) -> Result<usize> {
        let v = self.get_i64(key)?;
        usize::try_from(v)
            .map_err(|_| HiveError::Config(format!("property `{key}`={v} must be non-negative")))
    }

    pub fn get_f64(&self, key: &str) -> Result<f64> {
        let raw = self
            .get_raw(key)
            .ok_or_else(|| HiveError::Config(format!("unknown property `{key}`")))?;
        raw.parse::<f64>()
            .map_err(|_| HiveError::Config(format!("property `{key}`=`{raw}` is not a number")))
    }

    pub fn get_bool(&self, key: &str) -> Result<bool> {
        let raw = self
            .get_raw(key)
            .ok_or_else(|| HiveError::Config(format!("unknown property `{key}`")))?;
        match raw.to_ascii_lowercase().as_str() {
            "true" | "1" | "on" | "yes" => Ok(true),
            "false" | "0" | "off" | "no" => Ok(false),
            _ => Err(HiveError::Config(format!(
                "property `{key}`=`{raw}` is not a boolean"
            ))),
        }
    }

    /// Check every override against the registry: unknown keys become
    /// [`HiveError::UnknownKnob`], ill-typed or out-of-range values become
    /// `Config` errors. Catches anything smuggled in through the
    /// unvalidated [`HiveConf::set`] shim.
    pub fn validate(&self) -> Result<()> {
        for (key, value) in &self.overrides {
            let info = lookup_knob(key).ok_or_else(|| HiveError::UnknownKnob {
                key: key.clone(),
                suggestions: suggest_knobs(key),
            })?;
            (info.check)(value)?;
        }
        Ok(())
    }

    /// All effective `(key, value)` pairs: registry defaults merged with
    /// overrides.
    pub fn effective(&self) -> BTreeMap<String, String> {
        let mut out: BTreeMap<String, String> = knobs::ALL
            .iter()
            .map(|k| (k.name.to_string(), k.default_raw.to_string()))
            .collect();
        for (k, v) in &self.overrides {
            out.insert(k.clone(), v.clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = HiveConf::new();
        assert_eq!(c.get(knobs::ORC_STRIPE_SIZE), 256 << 20);
        assert_eq!(c.get(knobs::ORC_ROW_INDEX_STRIDE), 10_000);
        assert_eq!(c.get(knobs::ORC_DICT_THRESHOLD), 0.8);
        assert_eq!(c.get(knobs::RCFILE_ROWGROUP_SIZE), 4 << 20);
        assert_eq!(c.get(knobs::VECTORIZED_BATCH_SIZE), 1024);
        // String shims agree with the typed registry.
        assert_eq!(c.get_usize(keys::ORC_STRIPE_SIZE).unwrap(), 256 << 20);
        assert_eq!(c.get_usize(keys::VECTORIZED_BATCH_SIZE).unwrap(), 1024);
    }

    #[test]
    fn parallel_runtime_defaults() {
        let c = HiveConf::new();
        assert!(!c.get(knobs::EXEC_PARALLEL));
        assert_eq!(c.get(knobs::EXEC_WORKER_THREADS), 0);
        assert!(!c.get(knobs::EXEC_SIM_DETERMINISTIC_CPU));
    }

    #[test]
    fn fault_tolerance_defaults_are_inert() {
        let c = HiveConf::new();
        assert_eq!(c.get(knobs::DFS_FAULT_READ_ERROR_RATE), 0.0);
        assert_eq!(c.get(knobs::DFS_FAULT_CORRUPT_RATE), 0.0);
        assert_eq!(c.get_raw(keys::DFS_FAULT_SLOW_NODES), Some(""));
        assert_eq!(c.get_raw(keys::DFS_FAULT_FAIL_NODES), Some(""));
        assert_eq!(c.get(knobs::MAP_MAX_ATTEMPTS), 4);
        assert_eq!(c.get(knobs::REDUCE_MAX_ATTEMPTS), 4);
        assert_eq!(c.get(knobs::MAX_TRACKER_FAILURES), 3);
        assert!(!c.get(knobs::EXEC_SPECULATIVE));
        assert_eq!(c.get(knobs::EXEC_SPECULATIVE_THRESHOLD), 1.5);
        assert!(!c.get(knobs::ORC_SKIP_CORRUPT));
    }

    #[test]
    fn overrides_take_precedence() {
        let mut c = HiveConf::new();
        c.set(keys::VECTORIZED_ENABLED, "false");
        assert!(!c.get(knobs::VECTORIZED_ENABLED));
        let c2 = HiveConf::new().with_knob(knobs::REDUCE_TASKS, 4);
        assert_eq!(c2.get(knobs::REDUCE_TASKS), 4);
        assert_eq!(c2.get_usize(keys::REDUCE_TASKS).unwrap(), 4);
    }

    #[test]
    fn bad_values_error_cleanly() {
        let c = HiveConf::new().with(keys::ORC_STRIPE_SIZE, "huge");
        assert!(matches!(
            c.get_i64(keys::ORC_STRIPE_SIZE),
            Err(HiveError::Config(_))
        ));
        assert!(c.try_get(knobs::ORC_STRIPE_SIZE).is_err());
        let c2 = HiveConf::new().with(keys::AUTO_CONVERT_JOIN, "maybe");
        assert!(c2.get_bool(keys::AUTO_CONVERT_JOIN).is_err());
    }

    #[test]
    fn unknown_key_errors() {
        let c = HiveConf::new();
        assert!(c.get_i64("hive.no.such.key").is_err());
        assert!(c.get_raw("hive.no.such.key").is_none());
    }

    #[test]
    fn try_set_rejects_unknown_keys_with_suggestions() {
        let mut c = HiveConf::new();
        let err = c.try_set("hive.exec.paralel", "true").unwrap_err();
        match err {
            HiveError::UnknownKnob { key, suggestions } => {
                assert_eq!(key, "hive.exec.paralel");
                assert!(
                    suggestions.contains(&"hive.exec.parallel".to_string()),
                    "suggestions: {suggestions:?}"
                );
            }
            other => panic!("expected UnknownKnob, got {other:?}"),
        }
        // Nothing was stored.
        assert!(!c.get(knobs::EXEC_PARALLEL));
    }

    #[test]
    fn try_set_rejects_ill_typed_and_out_of_range_values() {
        let mut c = HiveConf::new();
        assert!(c.try_set(keys::ORC_STRIPE_SIZE, "huge").is_err());
        assert!(c.try_set(keys::DFS_FAULT_READ_ERROR_RATE, "1.5").is_err());
        assert!(c.try_set(keys::ORC_COMPRESS, "lzo").is_err());
        assert!(c.try_set(keys::MAP_MAX_ATTEMPTS, "0").is_err());
        assert!(c.try_set(keys::ORC_COMPRESS, "snappy").is_ok());
        assert_eq!(c.get(knobs::ORC_COMPRESS), "snappy");
    }

    #[test]
    fn validate_catches_smuggled_overrides() {
        let c = HiveConf::new().with("hive.no.such.key", "1");
        assert!(matches!(c.validate(), Err(HiveError::UnknownKnob { .. })));
        let c2 = HiveConf::new().with(keys::VECTORIZED_BATCH_SIZE, "many");
        assert!(c2.validate().is_err());
        let c3 = HiveConf::new().with(keys::VECTORIZED_BATCH_SIZE, "512");
        assert!(c3.validate().is_ok());
    }

    #[test]
    fn every_default_satisfies_its_own_constraints() {
        for k in knobs::ALL {
            assert!(
                (k.check)(k.default_raw).is_ok(),
                "default for `{}` fails its own check",
                k.name
            );
        }
    }

    #[test]
    fn knob_table_lists_every_knob() {
        let table = knob_table_markdown();
        for k in knobs::ALL {
            assert!(table.contains(k.name), "table is missing `{}`", k.name);
        }
        assert!(table.starts_with("| Key | Type | Default | Description |"));
    }

    #[test]
    fn effective_merges_defaults_and_overrides() {
        let c = HiveConf::new().with(keys::REDUCE_TASKS, "4");
        let eff = c.effective();
        assert_eq!(eff[keys::REDUCE_TASKS], "4");
        assert_eq!(eff[keys::TASK_MEMORY], "1073741824");
    }
}
