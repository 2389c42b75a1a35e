//! Per-operator and per-scan runtime profiles.
//!
//! Operators in `crates/exec` count rows and CPU as they run; the engine
//! merges per-task profiles index-wise (every task of a job runs the same
//! operator graph, so index i is the same operator everywhere), and
//! `EXPLAIN ANALYZE` renders the result.

use crate::counters;

/// Runtime profile of one operator instance in an operator graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpProfile {
    /// Operator description, e.g. `Filter(price > 10)`.
    pub name: String,
    /// The name without statement literals (e.g. `Filter`): the metrics
    /// registry's `op` label, so its series are bounded by plan shape.
    pub label: String,
    /// Rows pushed into the operator.
    pub rows_in: u64,
    /// Rows the operator emitted downstream.
    pub rows_out: u64,
    /// CPU nanoseconds attributed to the operator (simulated under the
    /// deterministic clock, measured otherwise).
    pub cpu_ns: u64,
    /// Operator-specific counters rendered as trailing `key=value` pairs
    /// (e.g. a vectorized map-join's probe batches and build rows).
    pub detail: Vec<(String, u64)>,
}

impl OpProfile {
    pub fn merge(&mut self, other: &OpProfile) {
        if self.name.is_empty() {
            self.name = other.name.clone();
            self.label = other.label.clone();
        }
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.cpu_ns += other.cpu_ns;
        for (key, value) in &other.detail {
            match self.detail.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v += value,
                None => self.detail.push((key.clone(), *value)),
            }
        }
    }
}

/// Merge `from` into `into` index-wise, extending `into` as needed.
/// Profiles from different tasks of one job align by operator index.
pub fn merge_profiles(into: &mut Vec<OpProfile>, from: &[OpProfile]) {
    while into.len() < from.len() {
        into.push(OpProfile::default());
    }
    for (dst, src) in into.iter_mut().zip(from.iter()) {
        dst.merge(src);
    }
}

counters! {
    /// Input-side scan profile: what the table readers did, including the
    /// ORC index-group skip/salvage path and vectorized batch flow.
    pub struct ScanProfile {
        /// Rows handed to the map pipeline by readers.
        rows_read: u64,
        /// Vectorized batches produced.
        batches: u64,
        /// Rows entering the vectorized pipeline.
        vector_rows_in: u64,
        /// Rows surviving the vectorized pipeline (selected lanes).
        vector_rows_out: u64,
        /// ORC stripes visited by planning.
        stripes_total: u64,
        /// ORC stripes actually read after stripe-level pruning.
        stripes_read: u64,
        /// ORC row index groups visited by planning.
        groups_total: u64,
        /// ORC row index groups read after predicate-pushdown skipping.
        groups_read: u64,
        /// ORC index groups pruned by bloom-filter probes after surviving
        /// min/max statistics.
        groups_bloom_pruned: u64,
        /// Bloom sections that failed CRC/decode and degraded to
        /// stats-only group selection.
        bloom_corrupt: u64,
        /// Rows skipped by corrupt-record salvage.
        rows_salvaged: u64,
        /// Decoded ORC file footers served from the metadata cache.
        footer_cache_hits: u64,
        /// Decoded ORC file footers filled into the metadata cache.
        footer_cache_misses: u64,
        /// Decoded stripe footers / row indexes served from the cache.
        index_cache_hits: u64,
        /// Decoded stripe footers / row indexes filled into the cache.
        index_cache_misses: u64,
        /// DFS block-cache hits observed by this scan's reads.
        data_cache_hits: u64,
        /// DFS block-cache misses (single-flight fills) paid by this scan.
        data_cache_misses: u64,
        /// Bytes served from the DFS block cache instead of the wire.
        data_cache_hit_bytes: u64,
        /// Block-cache LRU evictions forced by this scan's fills.
        data_cache_evictions: u64,
        /// Rows read from ACID delta files during merge-on-read.
        delta_rows_read: u64,
        /// Rows suppressed by ACID delete files during merge-on-read.
        rows_masked: u64,
    }
}

impl ScanProfile {
    /// Fraction of vectorized input rows that survived filtering
    /// (`selected-lane density`); 1.0 when nothing was vectorized.
    pub fn selected_density(&self) -> f64 {
        if self.vector_rows_in == 0 {
            1.0
        } else {
            self.vector_rows_out as f64 / self.vector_rows_in as f64
        }
    }

    /// Fraction of row index groups skipped by predicate pushdown.
    pub fn group_skip_ratio(&self) -> f64 {
        if self.groups_total == 0 {
            0.0
        } else {
            1.0 - self.groups_read as f64 / self.groups_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_profile_merges_and_keeps_name() {
        let mut a = OpProfile::default();
        a.merge(&OpProfile {
            name: "Filter(price > 10)".into(),
            label: "Filter".into(),
            rows_in: 10,
            rows_out: 4,
            cpu_ns: 100,
            detail: vec![("batches".into(), 2)],
        });
        a.merge(&OpProfile {
            name: "Filter(price > 10)".into(),
            label: "Filter".into(),
            rows_in: 5,
            rows_out: 1,
            cpu_ns: 50,
            detail: vec![("batches".into(), 1), ("repeats".into(), 7)],
        });
        assert_eq!(a.name, "Filter(price > 10)");
        assert_eq!(a.label, "Filter");
        assert_eq!(a.rows_in, 15);
        assert_eq!(a.rows_out, 5);
        assert_eq!(a.cpu_ns, 150);
        assert_eq!(a.detail, vec![("batches".into(), 3), ("repeats".into(), 7)]);
    }

    #[test]
    fn merge_profiles_aligns_by_index() {
        let mut into = vec![];
        merge_profiles(
            &mut into,
            &[
                OpProfile {
                    name: "Scan".into(),
                    rows_in: 3,
                    ..Default::default()
                },
                OpProfile {
                    name: "Sink".into(),
                    rows_out: 3,
                    ..Default::default()
                },
            ],
        );
        merge_profiles(
            &mut into,
            &[OpProfile {
                name: "Scan".into(),
                rows_in: 2,
                ..Default::default()
            }],
        );
        assert_eq!(into.len(), 2);
        assert_eq!(into[0].rows_in, 5);
        assert_eq!(into[1].rows_out, 3);
    }

    #[test]
    fn scan_profile_ratios() {
        let p = ScanProfile {
            vector_rows_in: 100,
            vector_rows_out: 25,
            groups_total: 10,
            groups_read: 2,
            ..Default::default()
        };
        assert_eq!(p.selected_density(), 0.25);
        assert_eq!(p.group_skip_ratio(), 0.8);
        assert_eq!(ScanProfile::default().selected_density(), 1.0);
        assert_eq!(ScanProfile::default().group_skip_ratio(), 0.0);
    }

    #[test]
    fn scan_profile_is_a_counter_block() {
        let mut a = ScanProfile {
            rows_read: 10,
            batches: 2,
            ..Default::default()
        };
        a.merge(&ScanProfile {
            rows_read: 5,
            groups_read: 1,
            ..Default::default()
        });
        assert_eq!(a.rows_read, 15);
        assert_eq!(a.entries().len(), 21);
    }
}
