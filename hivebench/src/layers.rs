//! Per-layer metrics: direct probes of the storage layers (reader, DFS,
//! codec, writer) through their public functions, and the reduction of
//! traced spans and report counts into one number per layer metric.

use crate::churn::Churn;
use crate::run::{client_loop, LayerAcc, Metric, Stop};
use crate::stats::{geomean, median};
use crate::trace::{self_time_ns, Span};
use crate::workload::{Kind, Workload};
use hive_codec::block::{BlockCodec, Compression, SnappyLikeCodec};
use hive_common::config::keys;
use hive_common::{HiveError, Result, Row, Schema};
use hive_core::HiveServer;
use hive_formats::delta::{load_snapshot, manifest_path};
use hive_formats::{create_writer, open_reader, FormatKind, ReadOptions, WriteOptions};
use hive_vector::batch::{VectorizedRowBatch, DEFAULT_BATCH_SIZE};
use std::collections::BTreeMap;
use std::time::Instant;

/// Repetitions of each storage probe; the median is reported.
const PROBE_REPS: usize = 5;
/// Rows written by the writer and codec probes.
const PROBE_ROWS: usize = 20_000;
/// Compression unit the codec probe cuts its input into (ORC's default).
const CODEC_UNIT: usize = 256 << 10;
/// Rows in the side table the write probe churns on read-only workloads.
const WRITE_PROBE_ROWS: i64 = 2_000;
/// Statements the write probe runs: three minor and one major compaction.
const WRITE_PROBE_STMTS: u64 = 9 * 7;

/// Results of the direct probes and of the write probe.
pub struct Probe {
    pub scan_ns_per_row: f64,
    pub read_mb_per_s: f64,
    pub compress_mb_per_s: f64,
    pub decompress_mb_per_s: f64,
    pub write_ns_per_row: f64,
    /// Write spans and counts from a side-table churn, when the workload
    /// itself runs no writes.
    pub writes: Option<(Vec<Span>, LayerAcc)>,
}

/// ACID delta and delete files visible in `table`'s current snapshot.
pub fn delta_files(server: &HiveServer, table: &str) -> u64 {
    let Some(info) = server.metastore().get(table) else {
        return 0;
    };
    match load_snapshot(server.dfs(), &info.location) {
        Ok(Some(s)) => (s.deltas.len() + s.deletes.len()) as u64,
        _ => 0,
    }
}

/// `(live, total)` DFS bytes of `table`: the files its current snapshot
/// references (with the manifest naming them), and everything under its
/// location. ACID commits leave superseded files in place, so the two
/// part ways as a table churns.
pub fn stored_bytes(server: &HiveServer, table: &str) -> Result<(u64, u64)> {
    let dfs = server.dfs();
    let info = server
        .metastore()
        .get(table)
        .ok_or_else(|| HiveError::Metastore(format!("unknown table `{table}`")))?;
    let total = dfs.size_of(&info.location);
    let Some(snap) = load_snapshot(dfs, &info.location)? else {
        return Ok((total, total));
    };
    let files = snap
        .base
        .iter()
        .chain(snap.deltas.iter().map(|(_, p)| p))
        .chain(snap.deletes.iter().map(|(_, p)| p))
        .cloned()
        .chain([manifest_path(&info.location, snap.version)]);
    let mut live = 0;
    for f in files {
        live += dfs.len(&f)?;
    }
    Ok((live, total))
}

/// The base data files of `table`.
fn data_files(server: &HiveServer, table: &str) -> Result<Vec<String>> {
    let info = server
        .metastore()
        .get(table)
        .ok_or_else(|| HiveError::Metastore(format!("unknown table `{table}`")))?;
    Ok(match load_snapshot(server.dfs(), &info.location)? {
        Some(snap) => snap.base,
        None => server.metastore().table_files(table),
    })
}

fn median_of(reps: impl FnMut() -> Result<f64>) -> Result<f64> {
    let xs = std::iter::repeat_with(reps)
        .take(PROBE_REPS)
        .collect::<Result<Vec<f64>>>()?;
    Ok(median(&xs).expect("PROBE_REPS > 0"))
}

/// Run every probe for workload `w` on its server after the timed phase.
pub fn probe(server: &HiveServer, w: &dyn Workload, seed: u64, spans: &[Span]) -> Result<Probe> {
    let table = w.tables()[0];
    let files = data_files(server, table)?;
    let info = server.metastore().get(table).expect("table exists");
    // Caches off: a statement view that bypasses the block cache, and a
    // conf that turns off the ORC metadata cache.
    let raw = server.dfs().for_statement(None, false);
    let mut conf = server.defaults().clone();
    conf.try_set(keys::IO_CACHE_BYTES, "0")?;

    let read_mb_per_s = median_of(|| {
        let t = Instant::now();
        let mut bytes = 0;
        for f in &files {
            bytes += raw.open(f, None)?.read_all()?.len();
        }
        Ok(bytes as f64 / 1e6 / t.elapsed().as_secs_f64())
    })?;

    let types: Vec<_> = info
        .schema
        .fields()
        .iter()
        .map(|f| f.data_type.clone())
        .collect();
    let scan_ns_per_row = median_of(|| {
        let mut batch = VectorizedRowBatch::new(&types, DEFAULT_BATCH_SIZE)?;
        let t = Instant::now();
        let mut rows = 0;
        for f in &files {
            let opts = ReadOptions {
                format: info.format,
                ..Default::default()
            };
            let mut reader = open_reader(&raw, f, &info.schema, &conf, &opts)?;
            while reader.next_batch(&mut batch)? {
                rows += batch.size;
            }
        }
        Ok(t.elapsed().as_nanos() as f64 / rows.max(1) as f64)
    })?;

    let (schema, rows) = w.sample_rows(PROBE_ROWS);
    let (compress_mb_per_s, decompress_mb_per_s) = codec_probe(server, &schema, &rows)?;
    let mut rep = 0;
    let write_ns_per_row = median_of(|| {
        rep += 1;
        let path = format!("/probe/write-{rep}");
        let opts = WriteOptions {
            format: FormatKind::Orc,
            ..Default::default()
        };
        let t = Instant::now();
        let mut writer = create_writer(server.dfs(), &path, &schema, server.defaults(), &opts)?;
        for r in &rows {
            writer.write_row(r)?;
        }
        writer.close()?;
        let ns = t.elapsed().as_nanos() as f64 / rows.len() as f64;
        server.dfs().delete(&path);
        Ok(ns)
    })?;

    let writes_seen = spans.iter().any(|s| s.name == "core.insert");
    let writes = if writes_seen {
        None
    } else {
        Some(write_probe(seed)?)
    };
    Ok(Probe {
        scan_ns_per_row,
        read_mb_per_s,
        compress_mb_per_s,
        decompress_mb_per_s,
        write_ns_per_row,
        writes,
    })
}

/// Compress and decompress the stream bytes of an uncompressed ORC file
/// of `rows`, one compression unit at a time, checking the round trip.
fn codec_probe(server: &HiveServer, schema: &Schema, rows: &[Row]) -> Result<(f64, f64)> {
    let path = "/probe/plain";
    let opts = WriteOptions {
        format: FormatKind::Orc,
        compression: Some(Compression::None),
        memory: None,
    };
    let mut writer = create_writer(server.dfs(), path, schema, server.defaults(), &opts)?;
    for r in rows {
        writer.write_row(r)?;
    }
    writer.close()?;
    let plain = server.dfs().open(path, None)?.read_all()?;
    server.dfs().delete(path);
    let units: Vec<&[u8]> = plain.chunks(CODEC_UNIT).collect();
    let mb = plain.len() as f64 / 1e6;
    let codec = SnappyLikeCodec;
    let mut compressed = Vec::new();
    let compress = median_of(|| {
        let t = Instant::now();
        compressed = units.iter().map(|u| codec.compress(u)).collect();
        Ok(mb / t.elapsed().as_secs_f64())
    })?;
    let decompress = median_of(|| {
        let t = Instant::now();
        let out = compressed
            .iter()
            .map(|c| codec.decompress(c))
            .collect::<Result<Vec<_>>>()?;
        let rate = mb / t.elapsed().as_secs_f64();
        if out.iter().map(Vec::as_slice).ne(units.iter().copied()) {
            return Err(HiveError::Execution(
                "codec round trip changed the bytes".into(),
            ));
        }
        Ok(rate)
    })?;
    Ok((compress, decompress))
}

/// Churn a small side table on its own server, traced, so that the write
/// layers have a reading on workloads that run no writes themselves.
fn write_probe(seed: u64) -> Result<(Vec<Span>, LayerAcc)> {
    let w = Churn::new(seed, WRITE_PROBE_ROWS);
    let loaded = w.setup()?;
    let kinds: Vec<(&'static str, Kind)> = w.classes().iter().map(|c| (c.name, c.kind)).collect();
    let mut client = w.client(0);
    let run = client_loop(
        0,
        client.as_mut(),
        &loaded.server,
        &kinds,
        Instant::now(),
        Stop::Statements(WRITE_PROBE_STMTS),
        true,
    );
    if let Some(e) = run.errors.first() {
        return Err(HiveError::Execution(format!("write probe: {e}")));
    }
    Ok((run.tracer.spans, run.acc))
}

fn durations_us<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    spans
        .iter()
        .filter(move |s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
}

fn median_us(spans: &[Span], name: &str) -> f64 {
    median(&durations_us(spans, name).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Reduce the traced run to the per-layer metrics.
pub fn per_layer(
    spans: &[Span],
    kinds: &[(&'static str, Kind)],
    acc: &LayerAcc,
    probe: &Probe,
) -> Vec<Metric> {
    // Each read statement's children by layer name.
    let read_classes: Vec<&str> = kinds
        .iter()
        .filter(|k| k.1 == Kind::Read)
        .map(|k| k.0)
        .collect();
    // Per statement id: the class span of a read (the decomposed path) and
    // every span's time by layer name, the separate `execute` included.
    let mut by_stmt: BTreeMap<u64, (Option<usize>, BTreeMap<&str, f64>)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let entry = by_stmt.entry(s.stmt).or_default();
        if s.parent.is_none() && read_classes.contains(&s.name.as_str()) {
            entry.0 = Some(i);
        }
        *entry.1.entry(&s.name).or_default() += s.dur_ns() as f64 / 1e3;
    }
    let read_stmts: Vec<(usize, &BTreeMap<&str, f64>)> = by_stmt
        .values()
        .filter_map(|(root, m)| root.map(|r| (r, m)))
        .collect();
    let core_self: Vec<f64> = read_stmts
        .iter()
        .filter_map(|(_, c)| {
            let part = |n: &str| c.get(n).copied();
            Some(
                part("core.execute")?
                    - part("ql.parse")?
                    - part("planner.plan")?
                    - part("mapreduce.run_dag")?,
            )
        })
        .collect();
    let unattributed: Vec<f64> = read_stmts
        .iter()
        .map(|&(root, _)| self_time_ns(spans, root) as f64 / 1e3)
        .collect();
    let mut run_dag_by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(root, c) in &read_stmts {
        if let Some(&us) = c.get("mapreduce.run_dag") {
            run_dag_by_class
                .entry(&spans[root].name)
                .or_default()
                .push(us / 1e3);
        }
    }
    let class_medians: Vec<f64> = run_dag_by_class
        .values()
        .filter_map(|v| median(v))
        .collect();

    let (write_spans, write_acc) = match &probe.writes {
        Some((s, a)) => (s.as_slice(), a),
        None => (spans, acc),
    };
    let reads = acc.reads.max(1);
    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    vec![
        m("ql.parse_us", median_us(spans, "ql.parse"), "us"),
        m("planner.plan_us", median_us(spans, "planner.plan"), "us"),
        m("planner.jobs_per_stmt", ratio(acc.jobs, reads), "jobs"),
        m(
            "mapreduce.shuffle_bytes_per_row",
            ratio(acc.bytes_shuffled, acc.rows_read),
            "B/row",
        ),
        m(
            "exec.partial_agg_ratio",
            ratio(acc.map_group_by_out, acc.map_group_by_in),
            "ratio",
        ),
        m("core.self_us", median(&core_self).unwrap_or(f64::NAN), "us"),
        m("obs.registry_series", acc.registry_series as f64, "count"),
        m("obs.snapshot_us", median_us(spans, "obs.snapshot"), "us"),
        m(
            "mapreduce.run_dag_ms",
            geomean(&class_medians).unwrap_or(f64::NAN),
            "ms",
        ),
        m(
            "vector.rows_per_batch",
            ratio(acc.vector_rows_in, acc.batches),
            "rows",
        ),
        m("mapreduce.tasks_per_stmt", ratio(acc.tasks, reads), "tasks"),
        m("mapreduce.task_retries", acc.retries as f64, "count"),
        m("formats.scan_ns_per_row", probe.scan_ns_per_row, "ns/row"),
        m(
            "codec.decompress_mb_per_s",
            probe.decompress_mb_per_s,
            "MB/s",
        ),
        m("dfs.read_mb_per_s", probe.read_mb_per_s, "MB/s"),
        m("dfs.bytes_read_per_stmt", ratio(acc.bytes_read, reads), "B"),
        m(
            "formats.groups_read_ratio",
            ratio(acc.groups_read, acc.groups_total),
            "ratio",
        ),
        m(
            "formats.bloom_pruned_per_stmt",
            ratio(acc.bloom_pruned, reads),
            "groups",
        ),
        m(
            "dfs.cache_hit_ratio",
            ratio(acc.cache_hits, acc.cache_hits + acc.cache_misses),
            "ratio",
        ),
        m("formats.write_ns_per_row", probe.write_ns_per_row, "ns/row"),
        m("codec.compress_mb_per_s", probe.compress_mb_per_s, "MB/s"),
        m(
            "core.insert_ms",
            median_us(write_spans, "core.insert") / 1e3,
            "ms",
        ),
        m(
            "core.update_ms",
            median_us(write_spans, "core.update") / 1e3,
            "ms",
        ),
        m(
            "core.delete_ms",
            median_us(write_spans, "core.delete") / 1e3,
            "ms",
        ),
        m(
            "core.compact_ms",
            median_us(write_spans, "core.compact") / 1e3,
            "ms",
        ),
        m(
            "dfs.bytes_written_per_row_changed",
            ratio(write_acc.write_bytes, write_acc.rows_changed),
            "B/row",
        ),
        m("core.delta_files", ratio(acc.delta_files, reads), "files"),
        m(
            "trace.overhead_us",
            median(&acc.overhead_us).unwrap_or(f64::NAN),
            "us",
        ),
        m(
            "trace.unattributed_us",
            median(&unattributed).unwrap_or(f64::NAN),
            "us",
        ),
    ]
}
