//! The runner: repeated set-up, the timed closed loop, and the metrics
//! computed from the benchmark's own clocks.
//!
//! Untraced, each statement is one `HiveServer::execute` call timed from
//! SQL text to rows. Traced, each SELECT additionally runs decomposed
//! (`hive_ql::parse` → `hive_planner::plan_query` → `MrEngine::run_dag`)
//! and once more through `execute` inside a span; writes run once inside
//! a span. Spans are recorded around those calls only: nothing inside the
//! engine is instrumented.

use crate::clock;
use crate::layers;
use crate::stats::{self, median, Fifth};
use crate::trace::{self, Span, Tracer};
use crate::workload::{Client, Kind, Workload};
use hive_common::config::keys;
use hive_common::{HiveError, Result, Row, Value};
use hive_core::HiveServer;
use hive_dfs::FaultPlan;
use hive_mapreduce::MrEngine;
use hive_ql::Statement;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run: at least `MIN_SETUPS`, then more while their total
/// stays under `SETUP_BUDGET_S`, up to `MAX_SETUPS`. `setup_s` reports
/// the median, so quick set-ups get more samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 12;
const SETUP_BUDGET_S: f64 = 5.0;
/// Windows the timed phase is cut into for `peak_rss_mb`.
const RSS_WINDOWS: u32 = 5;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What one run produced.
pub struct Outcome {
    /// End-to-end metrics (every run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Statements attempted: warm-up plus timed phase.
    pub attempted: u64,
    /// Statements that failed or returned a wrong answer.
    pub failed: u64,
    /// Traced statements whose child spans outlast the statement span.
    pub overfull_statements: usize,
    /// Human-readable remarks: first errors, tail percentiles.
    pub notes: Vec<String>,
    /// Every recorded span (traced runs only).
    pub spans: Vec<Span>,
}

struct Sample {
    class: usize,
    /// Index of the client's statement-mix cycle the sample belongs to,
    /// and from it the drift window. Windows of whole cycles keep a
    /// compaction cycle cut in two from tilting the comparison.
    cycle: u64,
    fifth: Fifth,
    lat_ms: f64,
    ok: bool,
}

/// Counts gathered from the public reports of traced statements.
#[derive(Default)]
pub struct LayerAcc {
    pub reads: u64,
    pub jobs: u64,
    pub tasks: u64,
    pub retries: u64,
    pub bytes_read: u64,
    pub bytes_shuffled: u64,
    pub rows_read: u64,
    pub batches: u64,
    pub vector_rows_in: u64,
    pub groups_read: u64,
    pub groups_total: u64,
    pub bloom_pruned: u64,
    pub map_group_by_in: u64,
    pub map_group_by_out: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub delta_files: u64,
    pub write_bytes: u64,
    pub rows_changed: u64,
    /// Per SELECT, `execute` latency inside a span minus that of the
    /// same statement's untraced `execute`, in µs.
    pub overhead_us: Vec<f64>,
    pub registry_series: u64,
}

impl LayerAcc {
    fn merge(&mut self, o: LayerAcc) {
        self.reads += o.reads;
        self.jobs += o.jobs;
        self.tasks += o.tasks;
        self.retries += o.retries;
        self.bytes_read += o.bytes_read;
        self.bytes_shuffled += o.bytes_shuffled;
        self.rows_read += o.rows_read;
        self.batches += o.batches;
        self.vector_rows_in += o.vector_rows_in;
        self.groups_read += o.groups_read;
        self.groups_total += o.groups_total;
        self.bloom_pruned += o.bloom_pruned;
        self.map_group_by_in += o.map_group_by_in;
        self.map_group_by_out += o.map_group_by_out;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.delta_files += o.delta_files;
        self.write_bytes += o.write_bytes;
        self.rows_changed += o.rows_changed;
        self.overhead_us.extend(o.overhead_us);
        self.registry_series = self.registry_series.max(o.registry_series);
    }
}

/// One client's share of the timed phase.
pub struct ClientRun {
    samples: Vec<Sample>,
    /// Wall and thread-CPU seconds spent in the oracle; excluded from
    /// throughput and CPU per statement.
    oracle_s: f64,
    oracle_cpu_s: f64,
    /// When this client's last statement finished.
    end_s: f64,
    pub errors: Vec<String>,
    net_rows: i64,
    pub tracer: Tracer,
    pub acc: LayerAcc,
}

/// When a client loop stops.
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    Statements(u64),
}

/// Run `f` as oracle work: its wall and thread CPU time are booked apart.
fn oracle<T>(run: &mut ClientRun, f: impl FnOnce() -> T) -> T {
    let (t, c) = (Instant::now(), clock::thread_cpu_s());
    let out = f();
    run.oracle_s += t.elapsed().as_secs_f64();
    run.oracle_cpu_s += clock::thread_cpu_s() - c;
    out
}

fn rows_of(r: &Result<hive_core::QueryResult>) -> std::result::Result<&[Row], String> {
    r.as_ref()
        .map(|q| q.rows.as_slice())
        .map_err(|e| e.to_string())
}

/// Check one answer; the first error of each client is kept for the report.
fn record_check(
    run: &mut ClientRun,
    what: &str,
    sql: &str,
    verdict: std::result::Result<(), String>,
) -> bool {
    match verdict {
        Ok(()) => true,
        Err(e) => {
            if run.errors.len() < 3 {
                run.errors.push(format!("{what}: {e} [{}]", truncate(sql)));
            }
            false
        }
    }
}

fn truncate(sql: &str) -> String {
    sql.chars().take(160).collect()
}

/// Drive one closed-loop client until `stop`.
pub fn client_loop(
    id: usize,
    client: &mut dyn Client,
    server: &HiveServer,
    kinds: &[(&'static str, Kind)],
    start: Instant,
    stop: Stop,
    traced: bool,
) -> ClientRun {
    let mut run = ClientRun {
        samples: Vec::new(),
        oracle_s: 0.0,
        oracle_cpu_s: 0.0,
        end_s: 0.0,
        errors: Vec::new(),
        net_rows: 0,
        tracer: Tracer::new(start),
        acc: LayerAcc::default(),
    };
    let mut n = 0u64;
    let mut cycles = 0u64;
    loop {
        let more = match stop {
            Stop::After(d) => start.elapsed() < d || !client.at_boundary(),
            Stop::Statements(k) => n < k,
        };
        if !more {
            break;
        }
        let (class, sql) = client.next();
        let stmt = ((id as u64) << 32) | n;
        n += 1;
        let (name, kind) = kinds[class];
        let (lat, ok) = match (traced, kind) {
            (true, Kind::Read) => traced_read(&mut run, client, server, name, &sql, stmt),
            (true, _) => traced_write(&mut run, client, server, name, kind, &sql, stmt),
            (false, _) => {
                let t = Instant::now();
                let r = server.execute(&sql);
                let lat = t.elapsed();
                let verdict = oracle(&mut run, || rows_of(&r).and_then(|rows| client.check(rows)));
                let ok = record_check(&mut run, name, &sql, verdict);
                drop(r);
                (lat, ok)
            }
        };
        run.samples.push(Sample {
            class,
            cycle: cycles,
            fifth: Fifth::Middle,
            lat_ms: lat.as_secs_f64() * 1e3,
            ok,
        });
        cycles += u64::from(client.at_boundary());
    }
    for s in &mut run.samples {
        s.fifth = stats::fifth(s.cycle, cycles);
    }
    run.end_s = start.elapsed().as_secs_f64();
    run.net_rows = client.net_rows_added();
    run
}

/// One untraced `execute`, timed and checked: the statement as the
/// untraced run sees it.
fn untraced(
    run: &mut ClientRun,
    client: &mut dyn Client,
    server: &HiveServer,
    class: &str,
    sql: &str,
) -> (Duration, bool) {
    let t = Instant::now();
    let r = server.execute(sql);
    let lat = t.elapsed();
    let verdict = oracle(run, || rows_of(&r).and_then(|rows| client.check(rows)));
    (lat, record_check(run, class, sql, verdict))
}

/// A SELECT, traced. The decomposed path runs inside a span named after
/// the class, with one child span per layer call; then a traced `execute`
/// and a registry snapshot, each a span of the same statement; and an
/// untraced `execute` (the sample latency). The untraced run goes before
/// the traced one on even statements and after it on odd ones, so neither
/// side of the tracing-overhead comparison always meets the warmer state.
/// Every answer is checked.
fn traced_read(
    run: &mut ClientRun,
    client: &mut dyn Client,
    server: &HiveServer,
    class: &str,
    sql: &str,
    stmt: u64,
) -> (Duration, bool) {
    if let Some(table) = client.acid_table() {
        run.acc.delta_files += layers::delta_files(server, table);
    }
    let root = run.tracer.begin(class, None, stmt);
    let decomposed = decomposed(&mut run.tracer, root, server, sql, stmt);
    run.tracer.end(root);
    let untraced_first = stmt.is_multiple_of(2);
    let first = untraced_first.then(|| untraced(run, client, server, class, sql));
    let (traced, exec_span) = run
        .tracer
        .time("core.execute", None, stmt, || server.execute(sql));
    let (lat, mut ok) = first.unwrap_or_else(|| untraced(run, client, server, class, sql));
    let tr = &mut run.tracer;
    let (snap, _) = tr.time("obs.snapshot", None, stmt, || server.metrics().snapshot());
    let traced_us = tr.spans[exec_span].dur_ns() as f64 / 1e3;

    run.acc
        .overhead_us
        .push(traced_us - lat.as_secs_f64() * 1e6);
    run.acc.registry_series =
        (snap.counters.len() + snap.gauges.len() + snap.histograms.len()) as u64;
    drop(snap);
    match decomposed {
        Ok((report, rows, jobs)) => {
            count_report(&mut run.acc, &report, jobs);
            let verdict = oracle(run, || client.check(&rows));
            ok &= record_check(
                run,
                class,
                sql,
                verdict.map_err(|e| format!("decomposed: {e}")),
            );
        }
        Err(e) => ok &= record_check(run, class, sql, Err(format!("decomposed: {e}"))),
    }
    let verdict = oracle(run, || rows_of(&traced).and_then(|rows| client.check(rows)));
    ok &= record_check(run, class, sql, verdict);
    (lat, ok)
}

/// parse → plan → run_dag under the server's defaults, each in a span.
fn decomposed(
    tr: &mut Tracer,
    root: usize,
    server: &HiveServer,
    sql: &str,
    stmt: u64,
) -> Result<(hive_mapreduce::DagReport, Vec<Row>, usize)> {
    let conf = server.defaults();
    let (parsed, _) = tr.time("ql.parse", Some(root), stmt, || hive_ql::parse(sql));
    let Statement::Select(select) = parsed? else {
        return Err(HiveError::Plan("traced read is not a SELECT".into()));
    };
    let (compiled, _) = tr.time("planner.plan", Some(root), stmt, || {
        hive_planner::plan_query(&select, server.metastore(), conf)
    });
    let compiled = compiled?;
    // The same statement-scoped DFS view the driver builds.
    let dfs = server.dfs().for_statement(
        FaultPlan::from_conf(conf)?,
        conf.get_i64(keys::IO_CACHE_BYTES)? > 0,
    );
    let (out, _) = tr.time("mapreduce.run_dag", Some(root), stmt, || {
        MrEngine::new(dfs, conf.clone()).run_dag(&compiled.jobs)
    });
    let (report, rows) = out?;
    Ok((report, rows, compiled.jobs.len()))
}

fn count_report(acc: &mut LayerAcc, report: &hive_mapreduce::DagReport, jobs: usize) {
    acc.reads += 1;
    acc.jobs += jobs as u64;
    acc.retries += report.counters.task_retries;
    acc.bytes_read += report.counters.bytes_read;
    acc.bytes_shuffled += report.counters.bytes_shuffled;
    for j in &report.jobs {
        acc.tasks += (j.map_tasks + j.reduce_tasks) as u64;
        acc.rows_read += j.scan.rows_read;
        acc.batches += j.scan.batches;
        acc.vector_rows_in += j.scan.vector_rows_in;
        acc.groups_read += j.scan.groups_read;
        acc.groups_total += j.scan.groups_total;
        acc.bloom_pruned += j.scan.groups_bloom_pruned;
        acc.cache_hits += j.scan.data_cache_hits;
        acc.cache_misses += j.scan.data_cache_misses;
        for op in j
            .map_operators
            .iter()
            .filter(|o| o.name.contains("GroupBy"))
        {
            acc.map_group_by_in += op.rows_in;
            acc.map_group_by_out += op.rows_out;
        }
    }
}

/// A write or compaction, traced: one `execute` inside a span named after
/// the layer call, with the DFS bytes it wrote.
fn traced_write(
    run: &mut ClientRun,
    client: &mut dyn Client,
    server: &HiveServer,
    class: &str,
    kind: Kind,
    sql: &str,
    stmt: u64,
) -> (Duration, bool) {
    let layer = match (kind, class) {
        (Kind::Compact, _) => "core.compact",
        (_, "insert") => "core.insert",
        (_, "update") => "core.update",
        _ => "core.delete",
    };
    let before = server.dfs().stats().snapshot();
    let tr = &mut run.tracer;
    let root = tr.begin(class, None, stmt);
    let (r, span) = tr.time(layer, Some(root), stmt, || server.execute(sql));
    tr.end(root);
    let lat = Duration::from_nanos(tr.spans[span].dur_ns());
    run.acc.write_bytes += server.dfs().stats().snapshot().since(&before).bytes_written;
    if kind == Kind::Write {
        if let Ok(Some(Value::Int(n))) =
            r.as_ref().map(|q| q.rows.first().map(|row| row[0].clone()))
        {
            run.acc.rows_changed += n.max(0) as u64;
        }
    }
    let verdict = oracle(run, || rows_of(&r).and_then(|rows| client.check(rows)));
    (lat, record_check(run, class, sql, verdict))
}

/// Run one workload: several set-ups, then the timed phase on the last.
pub fn run(w: &mut dyn Workload, seconds: f64, traced: bool, seed: u64) -> Result<Outcome> {
    let kinds: Vec<(&'static str, Kind)> = w.classes().iter().map(|c| (c.name, c.kind)).collect();
    let mut setup_s = Vec::new();
    let mut load_rate = Vec::new();
    let mut warm_attempted = 0u64;
    let mut warm_failed = 0u64;
    let mut notes = Vec::new();
    let mut kept: Option<(HiveServer, Vec<Box<dyn Client + Send>>)> = None;
    let budget = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (budget.elapsed().as_secs_f64() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS)
    {
        // Free the previous set-up first so set-ups do not stack memory.
        drop(kept.take());
        let t = Instant::now();
        let loaded = w.setup()?;
        let mut clients: Vec<Box<dyn Client + Send>> =
            (0..w.clients()).map(|i| w.client(i)).collect();
        // Warm-up: one statement per class per client, answers checked.
        let warm_up = Stop::Statements(kinds.len() as u64);
        let warm = run_clients(&mut clients, &loaded.server, &kinds, warm_up, false, None).0;
        let mut excluded = loaded.prep_s;
        for r in warm {
            excluded += r.oracle_s / w.clients() as f64;
            untimed(r, &mut warm_attempted, &mut warm_failed, &mut notes);
        }
        setup_s.push(t.elapsed().as_secs_f64() - excluded);
        load_rate.push(loaded.rows as f64 / loaded.load_s);
        kept = Some((loaded.server, clients));
    }
    let (server, mut clients) = kept.expect("at least one set-up");
    if w.cache_fill() > 0 {
        let fill = Stop::Statements(w.cache_fill());
        for r in run_clients(&mut clients, &server, &kinds, fill, false, None).0 {
            untimed(r, &mut warm_attempted, &mut warm_failed, &mut notes);
        }
    }
    w.drop_rows();
    clock::trim_heap();

    let rss_reset = clock::reset_peak_rss();
    let cpu0 = clock::process_cpu_s();
    let stop = Stop::After(Duration::from_secs_f64(seconds));
    let window = Duration::from_secs_f64(seconds) / RSS_WINDOWS;
    let (runs, peaks) = run_clients(&mut clients, &server, &kinds, stop, traced, Some(window));
    let cpu_s = clock::process_cpu_s() - cpu0;
    let peak_rss = median(&peaks).unwrap_or(f64::NAN);
    if !rss_reset {
        notes.push("peak RSS could not be reset; it covers the whole process".into());
    }

    // Stored bytes and live rows at the end of the timed phase.
    let live_rows = w.loaded_rows() as i64 + runs.iter().map(|r| r.net_rows).sum::<i64>();
    let (mut stored, mut unreferenced) = (0, 0);
    for t in w.tables() {
        let (live, total) = layers::stored_bytes(&server, t)?;
        stored += live;
        unreferenced += total - live;
    }
    notes.push(format!(
        "unreferenced bytes under the tables (superseded ACID files): {:.1} B per live row",
        unreferenced as f64 / live_rows as f64
    ));

    let samples: Vec<&Sample> = runs.iter().flat_map(|r| &r.samples).collect();
    let attempted = samples.len() as u64 + warm_attempted;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64 + warm_failed;
    for r in &runs {
        notes.extend(r.errors.iter().cloned());
    }
    let timed = samples.len() as f64;
    let oracle_cpu: f64 = runs.iter().map(|r| r.oracle_cpu_s).sum();
    // Each closed-loop client's rate with its oracle time taken out.
    let stmt_per_s: f64 = runs
        .iter()
        .map(|r| r.samples.len() as f64 / (r.end_s - r.oracle_s))
        .sum();

    let mut e2e = vec![
        metric(
            "setup_s",
            median(&setup_s).expect("at least one set-up"),
            "s",
        ),
        metric(
            "load_rows_per_s",
            median(&load_rate).expect("at least one set-up"),
            "rows/s",
        ),
        metric("stmt_per_s", stmt_per_s, "1/s"),
    ];
    let lat = |kind: Kind| -> Vec<(usize, Fifth, f64)> {
        samples
            .iter()
            .filter(|s| s.ok && kinds[s.class].1 == kind)
            .map(|s| (s.class, s.fifth, s.lat_ms))
            .collect()
    };
    let mut extra = Vec::new();
    for (kind, prefix) in [(Kind::Read, "read"), (Kind::Write, "write")] {
        let l = lat(kind);
        if l.is_empty() {
            continue;
        }
        let by_class = group(&l);
        let p50s: Vec<f64> = by_class
            .values()
            .map(|v| median(&v.iter().map(|x| x.1).collect::<Vec<_>>()).expect("non-empty"))
            .collect();
        for ((class, v), p50) in by_class.iter().zip(&p50s) {
            notes.push(format!(
                "{}: {} samples, p50 {p50:.3} ms, drift {:.3}",
                kinds[*class].0,
                v.len(),
                stats::drift(v).unwrap_or(f64::NAN)
            ));
        }
        let all: Vec<f64> = l.iter().map(|x| x.2).collect();
        let m = if kind == Kind::Read {
            &mut e2e
        } else {
            &mut extra
        };
        m.push(metric(
            &format!("{prefix}_p50_ms"),
            stats::geomean(&p50s).unwrap_or(f64::NAN),
            "ms",
        ));
        match stats::tail(&all) {
            Some(t) => {
                m.push(metric(&format!("{prefix}_tail_ms"), t.value, "ms"));
                notes.push(format!(
                    "{prefix}_tail_ms is p{:.2} over {} samples",
                    t.percentile, t.samples
                ));
            }
            None => m.push(metric(&format!("{prefix}_tail_ms"), f64::NAN, "ms")),
        }
        if kind == Kind::Read {
            let drifts: Vec<f64> = by_class.values().filter_map(|v| stats::drift(v)).collect();
            e2e.push(metric(
                "latency_drift",
                stats::geomean(&drifts).unwrap_or(f64::NAN),
                "ratio",
            ));
        }
    }
    e2e.push(metric(
        "cpu_ms_per_stmt",
        (cpu_s - oracle_cpu) * 1e3 / timed,
        "ms",
    ));
    e2e.push(metric("peak_rss_mb", peak_rss, "MiB"));
    e2e.push(metric(
        "stored_bytes_per_row",
        stored as f64 / live_rows as f64,
        "B",
    ));
    extra.push(metric(
        "error_rate",
        failed as f64 / attempted as f64,
        "ratio",
    ));
    e2e.extend(extra);

    let mut per_layer = Vec::new();
    let mut spans = Vec::new();
    let mut overfull = 0;
    if traced {
        let mut acc = LayerAcc::default();
        for r in runs {
            // Parent links index into each client's own span list.
            let off = spans.len();
            spans.extend(r.tracer.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + off);
                s
            }));
            acc.merge(r.acc);
        }
        overfull = trace::overfull_statements(&spans);
        let probe = layers::probe(&server, w, seed, &spans)?;
        per_layer = layers::per_layer(&spans, &kinds, &acc, &probe);
    }
    Ok(Outcome {
        end_to_end: e2e,
        per_layer,
        attempted,
        failed,
        overfull_statements: overfull,
        notes,
        spans,
    })
}

/// Count an untimed client run (warm-up, cache fill) into the totals.
fn untimed(r: ClientRun, attempted: &mut u64, failed: &mut u64, notes: &mut Vec<String>) {
    *attempted += r.samples.len() as u64;
    *failed += r.samples.iter().filter(|s| !s.ok).count() as u64;
    notes.extend(r.errors.into_iter().map(|e| format!("untimed: {e}")));
}

/// Run every client on its own thread, all starting now, until `stop`.
/// With `rss_window`, a monitor thread also takes the peak RSS of each
/// window of that length: it returns free heap pages and resets the
/// kernel's high-water mark at each window start, then reads it at the
/// end. The median over windows is robust to one allocation burst.
fn run_clients(
    clients: &mut [Box<dyn Client + Send>],
    server: &HiveServer,
    kinds: &[(&'static str, Kind)],
    stop: Stop,
    traced: bool,
    rss_window: Option<Duration>,
) -> (Vec<ClientRun>, Vec<f64>) {
    let start = Instant::now();
    let done = &AtomicBool::new(false);
    std::thread::scope(|s| {
        let monitor = rss_window.map(|w| s.spawn(move || rss_monitor(w, done)));
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                s.spawn(move || client_loop(i, c.as_mut(), server, kinds, start, stop, traced))
            })
            .collect();
        let runs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        done.store(true, Ordering::SeqCst);
        let peaks = monitor.map_or_else(Vec::new, |m| m.join().expect("RSS monitor panicked"));
        (runs, peaks)
    })
}

/// Peak RSS (MiB) of each full `window` until `done`; a final window
/// shorter than half a window is dropped unless it is the only one.
fn rss_monitor(window: Duration, done: &AtomicBool) -> Vec<f64> {
    let mut peaks = Vec::new();
    loop {
        clock::trim_heap();
        clock::reset_peak_rss();
        let t = Instant::now();
        while t.elapsed() < window && !done.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let peak = clock::peak_rss_mib().unwrap_or(f64::NAN);
        if t.elapsed() >= window / 2 || peaks.is_empty() {
            peaks.push(peak);
        }
        if done.load(Ordering::SeqCst) {
            return peaks;
        }
    }
}

/// `(class, window, latency)` samples grouped per class as
/// `(window, latency)`.
fn group(samples: &[(usize, Fifth, f64)]) -> BTreeMap<usize, Vec<(Fifth, f64)>> {
    let mut m: BTreeMap<usize, Vec<(Fifth, f64)>> = BTreeMap::new();
    for &(c, t, l) in samples {
        m.entry(c).or_default().push((t, l));
    }
    m
}
