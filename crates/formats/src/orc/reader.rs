#![allow(clippy::type_complexity, clippy::needless_range_loop)]
//! The ORC reader (paper Sections 4.2 and 6.5).
//!
//! Reading proceeds stripe by stripe:
//!
//! 1. stripe-level statistics (in the file footer) are tested against the
//!    pushed-down [`SearchArgument`]; stripes that cannot match are never
//!    read from the DFS;
//! 2. within a surviving stripe, the index section's per-group statistics
//!    select index groups; unselected groups' byte ranges are skipped using
//!    the position pointers;
//! 3. only the streams of projected columns are read — including *child*
//!    columns of complex types, which RCFile cannot do.
//!
//! The reader doubles as the **vectorized reader** (Section 6.5): decoded
//! column buffers are copied straight into `VectorizedRowBatch` column
//! vectors, with the `no_nulls` flag set when a column had no PRESENT
//! stream.

use crate::orc::sarg::{SearchArgument, TruthValue};
use crate::orc::stats::ColumnStatistics;
use crate::orc::{
    decode_file_footer, decode_postscript, decode_stripe_footer, deframe_chunk, ColumnEncoding,
    StreamKind, StripeFooter, StripeInfo,
};
use crate::TableReader;
use hive_codec::{bitfield, byte_rle, int_rle};
use hive_common::{ColumnTree, DataType, HiveError, Result, Row, Schema, Value};
use hive_dfs::{Dfs, DfsReader, NodeId};
use hive_vector::{ColumnVector, VectorizedRowBatch};
use std::sync::Arc;

/// Options controlling an ORC read.
#[derive(Debug, Clone, Default)]
pub struct OrcReadOptions {
    /// Top-level columns to materialize (all when `None`).
    pub projection: Option<Vec<usize>>,
    /// Predicates pushed down to the reader.
    pub sarg: Option<SearchArgument>,
    /// Whether to use index-group statistics (`hive.optimize.index.filter`).
    /// When false, only stripe-level stats gate reads and the index section
    /// is not fetched (Fig. 10's "No PPD" configuration).
    pub use_index: bool,
    /// Reading node for locality accounting.
    pub node: Option<NodeId>,
    /// Input-split byte range: only stripes whose start offset falls in
    /// `[start, end)` are read (how Hive assigns stripes to map tasks).
    pub split: Option<(u64, u64)>,
    /// `hive.exec.orc.skip.corrupt.data`: instead of failing the read,
    /// skip stripes (or individual index groups) whose bytes fail checksum
    /// or decode, and count the rows lost in [`ReadCounters::rows_skipped`].
    pub skip_corrupt: bool,
    /// Share decoded footers, stripe footers, and row-index statistics
    /// through the process-wide metadata cache, keyed by `(dfs instance,
    /// path, file generation)` (on while `hive.io.cache.bytes` is
    /// non-zero). When false the reader decodes privately, exactly as
    /// before the cache existed.
    pub cache_metadata: bool,
    /// Which sorted copy of the file to read (`0` = the base file in
    /// insertion order; `k > 0` = the replica-slot-`k` variant chosen by
    /// replica-aware split planning). Variants carry their own DFS
    /// generations, so every cache tier stays copy-safe automatically.
    pub variant: usize,
}

/// Skipping counters for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCounters {
    pub stripes_total: u64,
    pub stripes_read: u64,
    pub groups_total: u64,
    pub groups_read: u64,
    /// Rows dropped by corrupt-data degradation (`skip_corrupt`).
    pub rows_skipped: u64,
    /// File footer (+ postscript) metadata cache hits/misses. Always zero
    /// when `cache_metadata` is off.
    pub footer_cache_hits: u64,
    pub footer_cache_misses: u64,
    /// Stripe footer and row-index metadata cache hits/misses. Always zero
    /// when `cache_metadata` is off.
    pub index_cache_hits: u64,
    pub index_cache_misses: u64,
    /// Index groups that survived min/max statistics but were pruned by a
    /// bloom-filter probe on an equality/IN literal.
    pub groups_bloom_pruned: u64,
    /// Bloom sections that failed their CRC or decode and degraded to
    /// stats-only selection ("read the group" — never a wrong answer).
    pub bloom_corrupt: u64,
}

/// Decoded data of one column for the selected groups of a stripe.
enum DecodedData {
    Longs(Vec<i64>),
    Bools(Vec<bool>),
    Doubles(Vec<f64>),
    StringsDict {
        dict: Arc<Vec<Vec<u8>>>,
        ids: Vec<u32>,
    },
    StringsDirect {
        data: Vec<u8>,
        /// (start, len) per value.
        offsets: Vec<(usize, usize)>,
    },
    Lengths(Vec<i64>),
    Tags(Vec<u8>),
    /// Structural only (struct) or column not data-bearing.
    None,
}

struct DecodedColumn {
    /// Presence bits (None = no nulls in the read span).
    present: Option<Vec<bool>>,
    data: DecodedData,
    present_idx: usize,
    data_idx: usize,
}

impl DecodedColumn {
    /// Next presence bit; corrupted counts read as "present" and the data
    /// accessors below report the structural error.
    fn next_present(&mut self) -> bool {
        match &self.present {
            Some(p) => {
                let v = p.get(self.present_idx).copied().unwrap_or(true);
                self.present_idx += 1;
                v
            }
            None => {
                self.present_idx += 1;
                true
            }
        }
    }
}

struct StripeCursor {
    cols: Vec<Option<DecodedColumn>>,
    rows_remaining: u64,
    /// Contiguous `(start ordinal, rows)` runs covering the cursor's rows
    /// in read order. Ordinals are absolute within the file and skip-aware:
    /// a cursor over index groups 0 and 2 of a stripe carries two runs with
    /// a gap where group 1's rows would be. Run lengths always sum to
    /// `rows_remaining`.
    segments: Vec<(u64, u64)>,
}

/// Split ownership: a stripe belongs to the split containing its first
/// byte; with no split the reader owns every stripe.
fn split_owns(split: Option<(u64, u64)>, si: &StripeInfo) -> bool {
    split.is_none_or(|(start, end)| (start..end).contains(&si.offset))
}

/// The ORC file reader.
pub struct OrcReader {
    reader: DfsReader,
    schema: Schema,
    tree: ColumnTree,
    /// Decoded file metadata — shared through the process-wide cache when
    /// `cache_metadata` is on, private to this reader otherwise.
    meta: Arc<crate::orc::cache::FileMeta>,
    projection: Vec<usize>,
    needed: Vec<bool>,
    opts: OrcReadOptions,
    stripe_idx: usize,
    current: Option<StripeCursor>,
    /// Cursors decoded ahead of `current`: group-level salvage under
    /// `skip_corrupt` splits one stripe into several per-group cursors.
    pending: std::collections::VecDeque<StripeCursor>,
    /// Absolute ordinal of the first row of the next stripe `advance_stripe`
    /// will consider. Every stripe advances it by its row count — read,
    /// split-foreign, pruned, or corrupt alike — which is what keeps
    /// reported ordinals aligned with the file's physical row order.
    next_stripe_ord: u64,
    /// Ordinal of the row most recently returned by `next_row`.
    last_ord: Option<u64>,
    /// Ordinal runs of the rows filled by the most recent `next_batch`.
    batch_runs: Vec<(u64, u64)>,
    pub counters: ReadCounters,
}

impl OrcReader {
    /// Stripe layout metadata of the open file (section offsets and
    /// lengths) — lets chaos tests aim tampering at one section.
    pub fn stripe_infos(&self) -> &[StripeInfo] {
        &self.meta.footer.stripes
    }

    pub fn open(dfs: &Dfs, path: &str, opts: OrcReadOptions) -> Result<OrcReader> {
        let mut reader = dfs.open_variant(path, opts.variant, opts.node)?;
        // Decode postscript + file footer (one generous tail read). Runs at
        // most once per (file, generation) process-wide when the metadata
        // cache is on; always, privately, when it is off.
        let read_meta = |reader: &mut DfsReader| -> Result<crate::orc::cache::FileMeta> {
            let len = reader.len();
            let tail_guess = (len as usize).min(16 << 10);
            let tail = reader.read_at(len - tail_guess as u64, tail_guess)?;
            let (ps, ps_total) = decode_postscript(&tail)?;
            let footer_end = len - ps_total as u64;
            let footer_start = footer_end
                .checked_sub(ps.footer_len)
                .ok_or_else(|| HiveError::Format("footer length exceeds file".into()))?;
            let footer = if (ps.footer_len as usize + ps_total) <= tail.len() {
                let buf =
                    &tail[tail.len() - ps_total - ps.footer_len as usize..tail.len() - ps_total];
                decode_file_footer(buf)?
            } else {
                decode_file_footer(&reader.read_at(footer_start, ps.footer_len as usize)?)?
            };
            Ok(crate::orc::cache::FileMeta::new(ps, footer))
        };
        let (meta, meta_hit) = if opts.cache_metadata {
            crate::orc::cache::file_meta(dfs.instance_id(), path, reader.generation(), || {
                read_meta(&mut reader)
            })?
        } else {
            (Arc::new(read_meta(&mut reader)?), false)
        };
        let root = meta.footer.root_type()?;
        let DataType::Struct(fields) = root else {
            return Err(HiveError::Format("ORC root type must be a struct".into()));
        };
        let schema = Schema::new(
            fields
                .into_iter()
                .map(|(n, t)| hive_common::Field::new(n, t))
                .collect(),
        );
        let tree = schema.column_tree();
        let projection = opts
            .projection
            .clone()
            .unwrap_or_else(|| (0..schema.len()).collect());
        let mut needed = vec![false; tree.len()];
        for &p in &projection {
            if p >= schema.len() {
                return Err(HiveError::Format(format!(
                    "projected column {p} out of range"
                )));
            }
            for id in tree.subtree(tree.top_level(p)) {
                needed[id] = true;
            }
        }
        // Only the stripes this split owns count, so per-split totals sum
        // to the file's stripe count however many splits scan it.
        let mut counters = ReadCounters {
            stripes_total: meta
                .footer
                .stripes
                .iter()
                .filter(|si| split_owns(opts.split, si))
                .count() as u64,
            ..Default::default()
        };
        if opts.cache_metadata {
            if meta_hit {
                counters.footer_cache_hits += 1;
            } else {
                counters.footer_cache_misses += 1;
            }
        }
        Ok(OrcReader {
            reader,
            schema,
            tree,
            meta,
            projection,
            needed,
            opts,
            stripe_idx: 0,
            current: None,
            pending: std::collections::VecDeque::new(),
            next_stripe_ord: 0,
            last_ord: None,
            batch_runs: Vec::new(),
            counters,
        })
    }

    /// The table schema recovered from the file footer.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// File-level statistics for top-level column `i` — usable to answer
    /// simple aggregations (COUNT/MIN/MAX/SUM) without reading row data.
    pub fn file_stats(&self, i: usize) -> Option<&ColumnStatistics> {
        self.meta.footer.file_stats.get(self.tree.top_level(i))
    }

    pub fn num_rows(&self) -> u64 {
        self.meta.footer.nrows
    }

    /// Evaluate the sarg against a span's per-column stats.
    fn sarg_allows(&self, stats: &[ColumnStatistics]) -> bool {
        let Some(sarg) = &self.opts.sarg else {
            return true;
        };
        sarg.evaluate(|col| {
            if col < self.schema.len() {
                stats.get(self.tree.top_level(col))
            } else {
                None
            }
        }) != TruthValue::No
    }

    /// Load the next cursor (a whole stripe, or one salvaged group of one);
    /// returns false at EOF.
    fn advance_stripe(&mut self) -> Result<bool> {
        loop {
            if let Some(cur) = self.pending.pop_front() {
                self.current = Some(cur);
                return Ok(true);
            }
            if self.stripe_idx >= self.meta.footer.stripes.len() {
                return Ok(false);
            }
            let si = self.meta.footer.stripes[self.stripe_idx].clone();
            let stripe_no = self.stripe_idx;
            self.stripe_idx += 1;
            // First-row ordinal of this stripe. Skipped stripes advance the
            // accumulator too: their rows still occupy ordinal space.
            let stripe_ord = self.next_stripe_ord;
            self.next_stripe_ord += si.nrows;

            if !split_owns(self.opts.split, &si) {
                continue;
            }

            // Level 2: stripe statistics.
            if let Some(per_stripe) = self.meta.footer.stripe_stats.get(stripe_no) {
                if !self.sarg_allows(per_stripe) {
                    continue;
                }
            }
            self.counters.stripes_read += 1;

            match self.load_stripe(&si, stripe_ord) {
                Ok(()) => {}
                Err(e) if self.opts.skip_corrupt && e.is_data_corruption() => {
                    // The stripe's stream directory or index is itself
                    // unreadable: every row of the stripe is lost.
                    self.counters.rows_skipped += si.nrows;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Read one stripe's stream directory, select index groups, decode the
    /// needed columns, and queue the resulting cursor(s) onto `pending`.
    ///
    /// Under `skip_corrupt`, a decode failure over the full group selection
    /// triggers *group-level salvage*: each selected group is re-decoded on
    /// its own (every needed column together, so rows stay aligned across
    /// columns); groups that still fail are dropped and their rows counted
    /// as skipped, groups that decode cleanly become per-group cursors.
    ///
    /// `stripe_ord` is the absolute file ordinal of the stripe's first row;
    /// cursors carry per-group ordinal segments derived from it so delete
    /// masks stay aligned however many groups are skipped or salvaged.
    fn load_stripe(&mut self, si: &crate::orc::StripeInfo, stripe_ord: u64) -> Result<()> {
        // A stripe whose directory entry points past the end of the file is
        // structurally corrupt; catch it before issuing unsatisfiable reads.
        let stripe_end = si
            .offset
            .checked_add(si.index_len)
            .and_then(|x| x.checked_add(si.bloom_len))
            .and_then(|x| x.checked_add(si.data_len))
            .and_then(|x| x.checked_add(si.footer_len));
        if stripe_end.is_none_or(|end| end > self.reader.len()) {
            return Err(HiveError::Format(
                "stripe extends past end of file (corrupt footer)".into(),
            ));
        }
        // Stripe footer (stream directory) — decoded at most once per
        // stripe per generation when the metadata cache is shared; the
        // same single-flight map doubles as a per-reader memo otherwise.
        let meta = Arc::clone(&self.meta);
        let (sfooter, sf_hit) = meta.stripe_footers.get_or_fill(si.offset, || {
            let footer_buf = self.reader.read_at(
                si.offset + si.index_len + si.bloom_len + si.data_len,
                si.footer_len as usize,
            )?;
            decode_stripe_footer(&footer_buf)
        })?;
        if self.opts.cache_metadata {
            if sf_hit {
                self.counters.index_cache_hits += 1;
            } else {
                self.counters.index_cache_misses += 1;
            }
        }
        let sfooter: &StripeFooter = &sfooter;

        // Level 3: index-group statistics (only if PPD is on).
        let ngroups = sfooter
            .columns
            .iter()
            .flat_map(|c| c.streams.iter())
            .map(|s| s.chunks.len())
            .filter(|&n| n > 0)
            .max()
            .unwrap_or(1);
        self.counters.groups_total += ngroups as u64;
        let selected: Vec<usize> =
            if self.opts.use_index && self.opts.sarg.is_some() && si.index_len > 0 {
                let (group_stats, ix_hit) = meta.indexes.get_or_fill(si.offset, || {
                    let index_buf = self.reader.read_at(si.offset, si.index_len as usize)?;
                    decode_index(&index_buf, self.tree.len())
                })?;
                if self.opts.cache_metadata {
                    if ix_hit {
                        self.counters.index_cache_hits += 1;
                    } else {
                        self.counters.index_cache_misses += 1;
                    }
                }
                (0..ngroups)
                    .filter(|&g| {
                        let per_group: Vec<ColumnStatistics> = group_stats
                            .iter()
                            .map(|col| {
                                col.get(g).cloned().unwrap_or(ColumnStatistics::Generic {
                                    count: 0,
                                    has_null: false,
                                })
                            })
                            .collect();
                        self.sarg_allows(&per_group)
                    })
                    .collect()
            } else {
                (0..ngroups).collect()
            };
        // Bloom filters answer equality probes the stats could not: consult
        // them only for groups that already survived the min/max filter, so
        // pruning is strictly monotone (the ordinal clock is untouched —
        // fewer selected groups just means more gap between segments).
        let selected = if self.opts.use_index && si.bloom_len > 0 {
            self.bloom_prune(si, selected)
        } else {
            selected
        };
        if selected.is_empty() {
            return Ok(());
        }
        self.counters.groups_read += selected.len() as u64;
        let all_groups = selected.len() == ngroups;

        // Stream start offsets, cumulative over the stripe's data section.
        let data_base = si.offset + si.index_len + si.bloom_len;
        let mut stream_offsets: Vec<Vec<u64>> = Vec::with_capacity(sfooter.columns.len());
        {
            let mut cum = 0u64;
            for col in &sfooter.columns {
                let mut per = Vec::with_capacity(col.streams.len());
                for s in &col.streams {
                    per.push(data_base + cum);
                    cum = cum.checked_add(s.len).ok_or_else(|| {
                        HiveError::Format("stream lengths overflow (corrupt stripe footer)".into())
                    })?;
                }
                stream_offsets.push(per);
            }
            if cum > si.data_len {
                return Err(HiveError::Format(
                    "stream directory exceeds stripe data section (corrupt)".into(),
                ));
            }
        }

        match self.decode_cursor(
            si,
            stripe_ord,
            sfooter,
            &stream_offsets,
            &selected,
            all_groups,
        ) {
            Ok(cursor) => {
                self.pending.push_back(cursor);
                Ok(())
            }
            Err(e) if self.opts.skip_corrupt && e.is_data_corruption() => {
                for &g in &selected {
                    match self.decode_cursor(si, stripe_ord, sfooter, &stream_offsets, &[g], false)
                    {
                        Ok(cursor) => self.pending.push_back(cursor),
                        Err(e) if e.is_data_corruption() => {
                            self.counters.rows_skipped += self.group_rows(si, g);
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Top-level rows of index group `g` in stripe `si`.
    fn group_rows(&self, si: &crate::orc::StripeInfo, g: usize) -> u64 {
        let stride = self.meta.footer.row_index_stride.max(1);
        (si.nrows.saturating_sub(g as u64 * stride)).min(stride)
    }

    /// Drop stats-surviving groups whose bloom filters prove an equality
    /// or IN literal definitely absent. Any failure — unreadable section,
    /// CRC mismatch, torn framing — degrades to the stats-only selection
    /// and counts once in `bloom_corrupt`: a broken filter can cost a
    /// group read, never an answer.
    fn bloom_prune(&mut self, si: &crate::orc::StripeInfo, selected: Vec<usize>) -> Vec<usize> {
        use crate::orc::sarg::PredicateOp;
        let Some(sarg) = &self.opts.sarg else {
            return selected;
        };
        // One probe per equality-shaped leaf: the hashes any of which must
        // be present for a group to survive. Leaves with unhashable
        // literals contribute nothing (always "maybe").
        let probes: Vec<(usize, Vec<u64>)> = sarg
            .leaves
            .iter()
            .filter_map(|leaf| match leaf.op {
                PredicateOp::Equals => leaf
                    .literal
                    .as_ref()
                    .and_then(crate::orc::bloom::probe_hashes)
                    .map(|h| (leaf.column, h)),
                PredicateOp::In => {
                    let mut hashes = Vec::new();
                    for v in &leaf.literal_list {
                        hashes.extend(crate::orc::bloom::probe_hashes(v)?);
                    }
                    (!hashes.is_empty()).then_some((leaf.column, hashes))
                }
                _ => None,
            })
            .collect();
        if probes.is_empty() || selected.is_empty() {
            return selected;
        }
        let section = match self
            .reader
            .read_at(si.offset + si.index_len, si.bloom_len as usize)
        {
            Ok(bytes) => bytes,
            Err(_) => {
                self.counters.bloom_corrupt += 1;
                return selected;
            }
        };
        let cols = match crate::orc::bloom::decode_section(&section) {
            Ok(cols) => cols,
            Err(_) => {
                self.counters.bloom_corrupt += 1;
                return selected;
            }
        };
        let before = selected.len();
        let kept: Vec<usize> = selected
            .into_iter()
            .filter(|&g| {
                probes.iter().all(|(column, hashes)| {
                    match cols
                        .iter()
                        .find(|cb| cb.column == *column)
                        .and_then(|cb| cb.groups.get(g))
                    {
                        Some(f) => hashes.iter().any(|&h| f.might_contain_hash(h)),
                        // No filter for this column/group: maybe present.
                        None => true,
                    }
                })
            })
            .collect();
        self.counters.groups_bloom_pruned += (before - kept.len()) as u64;
        kept
    }

    /// Decode the needed columns for `selected` groups into one cursor.
    fn decode_cursor(
        &mut self,
        si: &crate::orc::StripeInfo,
        stripe_ord: u64,
        sfooter: &StripeFooter,
        stream_offsets: &[Vec<u64>],
        selected: &[usize],
        all_groups: bool,
    ) -> Result<StripeCursor> {
        let mut cols: Vec<Option<DecodedColumn>> = Vec::with_capacity(self.tree.len());
        for col_id in 0..self.tree.len() {
            if !self.needed[col_id] {
                cols.push(None);
                continue;
            }
            let dc = self.decode_column(col_id, sfooter, stream_offsets, selected, all_groups)?;
            cols.push(Some(dc));
        }
        let rows_selected = selected.iter().map(|&g| self.group_rows(si, g)).sum();
        // Ordinal segments: group g starts `g * stride` rows into the
        // stripe; runs of adjacent selected groups coalesce.
        let stride = self.meta.footer.row_index_stride.max(1);
        let mut segments: Vec<(u64, u64)> = Vec::with_capacity(selected.len());
        for &g in selected {
            let start = stripe_ord + g as u64 * stride;
            let rows = self.group_rows(si, g);
            match segments.last_mut() {
                Some(last) if last.0 + last.1 == start => last.1 += rows,
                _ => segments.push((start, rows)),
            }
        }
        Ok(StripeCursor {
            cols,
            rows_remaining: rows_selected,
            segments,
        })
    }

    /// Read + decode the streams of one column for the selected groups.
    fn decode_column(
        &mut self,
        col_id: usize,
        sfooter: &StripeFooter,
        stream_offsets: &[Vec<u64>],
        selected: &[usize],
        all_groups: bool,
    ) -> Result<DecodedColumn> {
        let cs = &sfooter.columns[col_id];
        let dt = &self.tree.node(col_id).data_type;
        let compression = self.meta.ps.compression;

        // Gather the raw (deframed) bytes of one stream for selected groups,
        // returning per-chunk (raw bytes, value count).
        let mut read_stream = |kind: StreamKind| -> Result<Option<Vec<(Vec<u8>, u64)>>> {
            let Some(idx) = cs.streams.iter().position(|s| s.kind == kind) else {
                return Ok(None);
            };
            let info = &cs.streams[idx];
            let base = stream_offsets[col_id][idx];
            let mut out = Vec::new();
            let stripe_global = info.chunks.len() == 1
                && matches!(
                    kind,
                    StreamKind::DictionaryData | StreamKind::DictionaryLength
                );
            if all_groups || stripe_global {
                // One contiguous read for the whole stream.
                let bytes = self.reader.read_at(base, info.len as usize)?;
                for c in &info.chunks {
                    let framed = bytes
                        .get(c.offset as usize..(c.offset.saturating_add(c.len)) as usize)
                        .ok_or_else(|| HiveError::Format("chunk range exceeds stream".into()))?;
                    out.push((deframe_chunk(framed, compression)?, c.values));
                }
            } else {
                // Coalesce runs of adjacent selected groups into single
                // reads (chunks are laid out back to back), as ORC's reader
                // merges adjacent disk ranges.
                let mut i = 0usize;
                while i < selected.len() {
                    let mut j = i;
                    while j + 1 < selected.len() && selected[j + 1] == selected[j] + 1 {
                        j += 1;
                    }
                    let first = info.chunks.get(selected[i]).ok_or_else(|| {
                        HiveError::Format(format!("group {} missing in stream", selected[i]))
                    })?;
                    let last = info.chunks.get(selected[j]).ok_or_else(|| {
                        HiveError::Format(format!("group {} missing in stream", selected[j]))
                    })?;
                    let run_end = last.offset.saturating_add(last.len);
                    if run_end < first.offset {
                        return Err(HiveError::Format("chunk offsets out of order".into()));
                    }
                    if run_end > info.len {
                        return Err(HiveError::Format(
                            "chunk range exceeds stream length (corrupt)".into(),
                        ));
                    }
                    let run_len = (run_end - first.offset) as usize;
                    let bytes = self.reader.read_at(base + first.offset, run_len)?;
                    for &g in &selected[i..=j] {
                        let c = &info.chunks[g];
                        let rel = c.offset.wrapping_sub(first.offset) as usize;
                        let framed = bytes
                            .get(rel..rel.saturating_add(c.len as usize))
                            .ok_or_else(|| HiveError::Format("chunk range exceeds run".into()))?;
                        out.push((deframe_chunk(framed, compression)?, c.values));
                    }
                    i = j + 1;
                }
            }
            Ok(Some(out))
        };

        // PRESENT stream.
        let present = match read_stream(StreamKind::Present)? {
            Some(chunks) => {
                let mut bits = Vec::new();
                for (raw, n) in &chunks {
                    bits.extend(bitfield::decode(raw, *n as usize)?);
                }
                Some(bits)
            }
            None => None,
        };

        let data = match dt {
            DataType::Int | DataType::Timestamp => {
                let mut vals = Vec::new();
                if let Some(chunks) = read_stream(StreamKind::Data)? {
                    for (raw, n) in &chunks {
                        decode_ints_into(raw, *n as usize, &mut vals)?;
                    }
                }
                DecodedData::Longs(vals)
            }
            DataType::Boolean => {
                let mut vals = Vec::new();
                if let Some(chunks) = read_stream(StreamKind::Data)? {
                    for (raw, n) in &chunks {
                        vals.extend(bitfield::decode(raw, *n as usize)?);
                    }
                }
                DecodedData::Bools(vals)
            }
            DataType::Double => {
                let mut vals = Vec::new();
                if let Some(chunks) = read_stream(StreamKind::Data)? {
                    for (raw, n) in &chunks {
                        if raw.len() < *n as usize * 8 {
                            return Err(HiveError::Format("double stream truncated".into()));
                        }
                        for i in 0..*n as usize {
                            let mut b = [0u8; 8];
                            b.copy_from_slice(&raw[i * 8..i * 8 + 8]);
                            vals.push(f64::from_le_bytes(b));
                        }
                    }
                }
                DecodedData::Doubles(vals)
            }
            DataType::String => match &cs.encoding {
                Some(ColumnEncoding::Dictionary { size }) => {
                    let dict_bytes = read_stream(StreamKind::DictionaryData)?
                        .and_then(|mut v| v.pop())
                        .map(|(b, _)| b)
                        .unwrap_or_default();
                    let dict_lens = read_stream(StreamKind::DictionaryLength)?
                        .and_then(|mut v| v.pop())
                        .map(|(b, _)| b)
                        .unwrap_or_default();
                    let mut lens = Vec::new();
                    decode_ints_into(&dict_lens, *size as usize, &mut lens)?;
                    let mut entries = Vec::with_capacity(lens.len());
                    let mut off = 0usize;
                    for &l in &lens {
                        let l = l as usize;
                        if off + l > dict_bytes.len() {
                            return Err(HiveError::Format("dictionary truncated".into()));
                        }
                        entries.push(dict_bytes[off..off + l].to_vec());
                        off += l;
                    }
                    let mut ids = Vec::new();
                    if let Some(chunks) = read_stream(StreamKind::Data)? {
                        for (raw, n) in &chunks {
                            let mut tmp = Vec::new();
                            decode_ints_into(raw, *n as usize, &mut tmp)?;
                            ids.extend(tmp.into_iter().map(|x| x as u32));
                        }
                    }
                    DecodedData::StringsDict {
                        dict: Arc::new(entries),
                        ids,
                    }
                }
                _ => {
                    let mut data_bytes = Vec::new();
                    let mut lens: Vec<i64> = Vec::new();
                    if let Some(chunks) = read_stream(StreamKind::Data)? {
                        for (raw, _) in &chunks {
                            data_bytes.extend_from_slice(raw);
                        }
                    }
                    if let Some(chunks) = read_stream(StreamKind::Length)? {
                        for (raw, n) in &chunks {
                            decode_ints_into(raw, *n as usize, &mut lens)?;
                        }
                    }
                    let mut offsets = Vec::with_capacity(lens.len());
                    let mut off = 0usize;
                    for &l in &lens {
                        offsets.push((off, l as usize));
                        off += l as usize;
                    }
                    if off > data_bytes.len() {
                        return Err(HiveError::Format("string data truncated".into()));
                    }
                    DecodedData::StringsDirect {
                        data: data_bytes,
                        offsets,
                    }
                }
            },
            DataType::Array(_) | DataType::Map(_, _) => {
                let mut vals = Vec::new();
                if let Some(chunks) = read_stream(StreamKind::Length)? {
                    for (raw, n) in &chunks {
                        decode_ints_into(raw, *n as usize, &mut vals)?;
                    }
                }
                DecodedData::Lengths(vals)
            }
            DataType::Union(_) => {
                let mut vals = Vec::new();
                if let Some(chunks) = read_stream(StreamKind::Tags)? {
                    for (raw, n) in &chunks {
                        let mut d = byte_rle::ByteRleDecoder::new(raw);
                        for _ in 0..*n {
                            vals.push(d.next()?);
                        }
                    }
                }
                DecodedData::Tags(vals)
            }
            DataType::Struct(_) => DecodedData::None,
        };

        Ok(DecodedColumn {
            present,
            data,
            present_idx: 0,
            data_idx: 0,
        })
    }

    /// Recursively materialize the next value of column `col`.
    fn read_value(&mut self, col: usize) -> Result<Value> {
        let non_null = self.current.as_mut().unwrap().cols[col]
            .as_mut()
            .ok_or_else(|| HiveError::Format("column not decoded".into()))?
            .next_present();
        if !non_null {
            return Ok(Value::Null);
        }
        let dt = self.tree.node(col).data_type.clone();
        match dt {
            DataType::Int => Ok(Value::Int(self.take_long(col)?)),
            DataType::Timestamp => Ok(Value::Timestamp(self.take_long(col)?)),
            DataType::Boolean => {
                let dc = self.cursor(col)?;
                let DecodedData::Bools(v) = &dc.data else {
                    return Err(HiveError::Format("expected bool data".into()));
                };
                let x = *v.get(dc.data_idx).ok_or_else(|| {
                    HiveError::Format("bool stream exhausted (corrupt counts)".into())
                })?;
                dc.data_idx += 1;
                Ok(Value::Boolean(x))
            }
            DataType::Double => {
                let dc = self.cursor(col)?;
                let DecodedData::Doubles(v) = &dc.data else {
                    return Err(HiveError::Format("expected double data".into()));
                };
                let x = *v.get(dc.data_idx).ok_or_else(|| {
                    HiveError::Format("double stream exhausted (corrupt counts)".into())
                })?;
                dc.data_idx += 1;
                Ok(Value::Double(x))
            }
            DataType::String => {
                let dc = self.cursor(col)?;
                let corrupt =
                    || HiveError::Format("string stream exhausted (corrupt counts)".into());
                let s = match &dc.data {
                    DecodedData::StringsDict { dict, ids } => {
                        let id = *ids.get(dc.data_idx).ok_or_else(corrupt)? as usize;
                        let entry = dict.get(id).ok_or_else(corrupt)?;
                        String::from_utf8_lossy(entry).into_owned()
                    }
                    DecodedData::StringsDirect { data, offsets } => {
                        let (off, len) = *offsets.get(dc.data_idx).ok_or_else(corrupt)?;
                        let bytes = data.get(off..off.saturating_add(len)).ok_or_else(corrupt)?;
                        String::from_utf8_lossy(bytes).into_owned()
                    }
                    _ => return Err(HiveError::Format("expected string data".into())),
                };
                dc.data_idx += 1;
                Ok(Value::String(s))
            }
            DataType::Array(_) => {
                let n = self.take_length(col)?;
                let child = self.tree.node(col).children[0];
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.read_value(child)?);
                }
                Ok(Value::Array(items))
            }
            DataType::Map(_, _) => {
                let n = self.take_length(col)?;
                let kcol = self.tree.node(col).children[0];
                let vcol = self.tree.node(col).children[1];
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = self.read_value(kcol)?;
                    let v = self.read_value(vcol)?;
                    entries.push((k, v));
                }
                Ok(Value::Map(entries))
            }
            DataType::Struct(_) => {
                let children = self.tree.node(col).children.clone();
                let mut vals = Vec::with_capacity(children.len());
                for c in children {
                    vals.push(self.read_value(c)?);
                }
                Ok(Value::Struct(vals))
            }
            DataType::Union(_) => {
                let tag = {
                    let dc = self.cursor(col)?;
                    let DecodedData::Tags(v) = &dc.data else {
                        return Err(HiveError::Format("expected union tags".into()));
                    };
                    let t = *v.get(dc.data_idx).ok_or_else(|| {
                        HiveError::Format("tag stream exhausted (corrupt counts)".into())
                    })?;
                    dc.data_idx += 1;
                    t
                };
                let child = *self
                    .tree
                    .node(col)
                    .children
                    .get(tag as usize)
                    .ok_or_else(|| HiveError::Format("union tag out of range".into()))?;
                Ok(Value::Union(tag, Box::new(self.read_value(child)?)))
            }
        }
    }

    fn cursor(&mut self, col: usize) -> Result<&mut DecodedColumn> {
        self.current.as_mut().unwrap().cols[col]
            .as_mut()
            .ok_or_else(|| HiveError::Format("column not decoded".into()))
    }

    fn take_long(&mut self, col: usize) -> Result<i64> {
        let dc = self.cursor(col)?;
        let DecodedData::Longs(v) = &dc.data else {
            return Err(HiveError::Format("expected long data".into()));
        };
        let x = *v
            .get(dc.data_idx)
            .ok_or_else(|| HiveError::Format("long stream exhausted (corrupt counts)".into()))?;
        dc.data_idx += 1;
        Ok(x)
    }

    fn take_length(&mut self, col: usize) -> Result<usize> {
        let dc = self.cursor(col)?;
        let DecodedData::Lengths(v) = &dc.data else {
            return Err(HiveError::Format("expected length data".into()));
        };
        let x = *v
            .get(dc.data_idx)
            .ok_or_else(|| HiveError::Format("length stream exhausted (corrupt counts)".into()))?;
        dc.data_idx += 1;
        // A corrupted length could be negative or absurdly large; either
        // would make the collection loops allocate unboundedly.
        if !(0..=(1 << 24)).contains(&x) {
            return Err(HiveError::Format(format!(
                "implausible collection length {x} (corrupt stream)"
            )));
        }
        Ok(x as usize)
    }
}

impl OrcReader {
    /// Corrupt-data degradation for errors found mid-decode: drop the rest
    /// of the current cursor (row alignment across columns is gone once a
    /// value stream lies about its counts) and count its rows as skipped.
    /// Returns whether the error was absorbed.
    fn absorb_corruption(&mut self, e: &HiveError) -> bool {
        if !(self.opts.skip_corrupt && e.is_data_corruption()) {
            return false;
        }
        if let Some(cur) = self.current.take() {
            self.counters.rows_skipped += cur.rows_remaining;
        }
        true
    }
}

impl TableReader for OrcReader {
    fn next_row(&mut self) -> Result<Option<Row>> {
        loop {
            let need_advance = match &self.current {
                Some(c) => c.rows_remaining == 0,
                None => true,
            };
            if need_advance {
                if !self.advance_stripe()? {
                    return Ok(None);
                }
                continue;
            }
            let projection = self.projection.clone();
            let mut vals = Vec::with_capacity(projection.len());
            let mut failed = None;
            for &p in &projection {
                let col = self.tree.top_level(p);
                match self.read_value(col) {
                    Ok(v) => vals.push(v),
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            if let Some(e) = failed {
                if self.absorb_corruption(&e) {
                    continue;
                }
                return Err(e);
            }
            let cur = self.current.as_mut().unwrap();
            cur.rows_remaining -= 1;
            // Consume one ordinal from the front segment.
            let ord = cur.segments.first().map(|&(s, _)| s);
            if let Some(seg) = cur.segments.first_mut() {
                seg.0 += 1;
                seg.1 -= 1;
                if seg.1 == 0 {
                    cur.segments.remove(0);
                }
            }
            self.last_ord = ord;
            return Ok(Some(Row::new(vals)));
        }
    }

    /// The native vectorized reader: fills column vectors directly from the
    /// decoded stripe buffers — only valid for primitive projected columns.
    fn next_batch(&mut self, batch: &mut VectorizedRowBatch) -> Result<bool> {
        'refill: loop {
            batch.reset();
            loop {
                let need_advance = match &self.current {
                    Some(c) => c.rows_remaining == 0,
                    None => true,
                };
                if need_advance {
                    if !self.advance_stripe()? {
                        return Ok(false);
                    }
                    continue;
                }
                break;
            }
            let cur = self.current.as_mut().unwrap();
            let n = (cur.rows_remaining as usize).min(batch.max_size);
            for (out_idx, &p) in self.projection.iter().enumerate() {
                let col_id = self.tree.top_level(p);
                let dc = cur.cols[col_id]
                    .as_mut()
                    .ok_or_else(|| HiveError::Format("column not decoded".into()))?;
                if let Err(e) = fill_vector(dc, &mut batch.columns[out_idx], n) {
                    if self.absorb_corruption(&e) {
                        continue 'refill;
                    }
                    return Err(e);
                }
            }
            cur.rows_remaining -= n as u64;
            // Record which ordinal runs these n physical rows cover.
            let mut runs: Vec<(u64, u64)> = Vec::with_capacity(2);
            let mut left = n as u64;
            while left > 0 {
                let seg = &mut cur.segments[0];
                let take = seg.1.min(left);
                runs.push((seg.0, take));
                seg.0 += take;
                seg.1 -= take;
                left -= take;
                if seg.1 == 0 {
                    cur.segments.remove(0);
                }
            }
            batch.size = n;
            self.batch_runs = runs;
            return Ok(n > 0);
        }
    }

    fn last_row_ordinal(&self) -> Option<u64> {
        self.last_ord
    }

    fn batch_ordinal_runs(&self) -> Option<&[(u64, u64)]> {
        Some(&self.batch_runs)
    }

    fn rows_skipped(&self) -> u64 {
        self.counters.rows_skipped
    }

    fn read_stats(&self) -> crate::ReadStats {
        crate::ReadStats {
            stripes_total: self.counters.stripes_total,
            stripes_read: self.counters.stripes_read,
            groups_total: self.counters.groups_total,
            groups_read: self.counters.groups_read,
            rows_skipped: self.counters.rows_skipped,
            footer_cache_hits: self.counters.footer_cache_hits,
            footer_cache_misses: self.counters.footer_cache_misses,
            index_cache_hits: self.counters.index_cache_hits,
            index_cache_misses: self.counters.index_cache_misses,
            groups_bloom_pruned: self.counters.groups_bloom_pruned,
            bloom_corrupt: self.counters.bloom_corrupt,
        }
    }
}

/// Copy `n` values of a decoded column into a column vector, handling nulls
/// and setting `no_nulls` when the column had no PRESENT stream.
fn fill_vector(dc: &mut DecodedColumn, out: &mut ColumnVector, n: usize) -> Result<()> {
    // Corrupt counts must surface as errors, not slice panics.
    let available = match &dc.data {
        DecodedData::Longs(v) => v.len(),
        DecodedData::Bools(v) => v.len(),
        DecodedData::Doubles(v) => v.len(),
        DecodedData::StringsDict { ids, .. } => ids.len(),
        DecodedData::StringsDirect { offsets, .. } => offsets.len(),
        DecodedData::Lengths(v) => v.len(),
        DecodedData::Tags(v) => v.len(),
        DecodedData::None => 0,
    };
    // Collect presence for these n rows first.
    let mut nulls: Option<Vec<bool>> = None;
    let mut non_null = n;
    if dc.present.is_some() {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(!dc.next_present());
        }
        non_null = v.iter().filter(|x| !**x).count();
        nulls = Some(v);
    } else {
        dc.present_idx += n;
    }
    if dc.data_idx + non_null > available {
        return Err(HiveError::Format(
            "value stream shorter than row count (corrupt counts)".into(),
        ));
    }
    match (&dc.data, out) {
        (DecodedData::Longs(src), ColumnVector::Long(v)) => {
            v.is_repeating = false;
            match &nulls {
                None => {
                    v.no_nulls = true;
                    v.vector[..n].copy_from_slice(&src[dc.data_idx..dc.data_idx + n]);
                    dc.data_idx += n;
                }
                Some(nulls) => {
                    v.no_nulls = false;
                    for i in 0..n {
                        v.null[i] = nulls[i];
                        v.vector[i] = if nulls[i] {
                            0
                        } else {
                            let x = src[dc.data_idx];
                            dc.data_idx += 1;
                            x
                        };
                    }
                }
            }
        }
        (DecodedData::Bools(src), ColumnVector::Long(v)) => {
            v.is_repeating = false;
            match &nulls {
                None => {
                    v.no_nulls = true;
                    for i in 0..n {
                        v.vector[i] = src[dc.data_idx + i] as i64;
                    }
                    dc.data_idx += n;
                }
                Some(nulls) => {
                    v.no_nulls = false;
                    for i in 0..n {
                        v.null[i] = nulls[i];
                        v.vector[i] = if nulls[i] {
                            0
                        } else {
                            let x = src[dc.data_idx] as i64;
                            dc.data_idx += 1;
                            x
                        };
                    }
                }
            }
        }
        (DecodedData::Doubles(src), ColumnVector::Double(v)) => {
            v.is_repeating = false;
            match &nulls {
                None => {
                    v.no_nulls = true;
                    v.vector[..n].copy_from_slice(&src[dc.data_idx..dc.data_idx + n]);
                    dc.data_idx += n;
                }
                Some(nulls) => {
                    v.no_nulls = false;
                    for i in 0..n {
                        v.null[i] = nulls[i];
                        v.vector[i] = if nulls[i] {
                            0.0
                        } else {
                            let x = src[dc.data_idx];
                            dc.data_idx += 1;
                            x
                        };
                    }
                }
            }
        }
        (DecodedData::StringsDict { dict, ids }, ColumnVector::Bytes(v)) => {
            v.is_repeating = false;
            v.no_nulls = nulls.is_none();
            for i in 0..n {
                let is_null = nulls.as_ref().is_some_and(|x| x[i]);
                if is_null {
                    v.null[i] = true;
                    v.start[i] = 0;
                    v.length[i] = 0;
                } else {
                    let id = ids[dc.data_idx] as usize;
                    let entry = dict.get(id).ok_or_else(|| {
                        HiveError::Format("dictionary id out of range (corrupt)".into())
                    })?;
                    v.set(i, entry);
                    dc.data_idx += 1;
                }
            }
        }
        (DecodedData::StringsDirect { data, offsets }, ColumnVector::Bytes(v)) => {
            v.is_repeating = false;
            v.no_nulls = nulls.is_none();
            for i in 0..n {
                let is_null = nulls.as_ref().is_some_and(|x| x[i]);
                if is_null {
                    v.null[i] = true;
                    v.start[i] = 0;
                    v.length[i] = 0;
                } else {
                    let (off, len) = offsets[dc.data_idx];
                    let bytes = data.get(off..off.saturating_add(len)).ok_or_else(|| {
                        HiveError::Format("string bytes out of range (corrupt)".into())
                    })?;
                    v.set(i, bytes);
                    dc.data_idx += 1;
                }
            }
        }
        _ => {
            return Err(HiveError::Execution(
                "column type is not vectorizable".into(),
            ))
        }
    }
    Ok(())
}

/// Decode exactly `n` integers from an int-RLE chunk.
fn decode_ints_into(raw: &[u8], n: usize, out: &mut Vec<i64>) -> Result<()> {
    let mut d = int_rle::IntRleDecoder::new(raw);
    for _ in 0..n {
        out.push(d.next()?);
    }
    Ok(())
}

/// Decode the index section: per column, per group statistics.
fn decode_index(buf: &[u8], ncols: usize) -> Result<Vec<Vec<ColumnStatistics>>> {
    let mut pos = 0usize;
    let mut out = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let ngroups = hive_codec::varint::read_unsigned(buf, &mut pos)? as usize;
        let mut per = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            per.push(ColumnStatistics::decode(buf, &mut pos)?);
        }
        out.push(per);
    }
    Ok(out)
}
