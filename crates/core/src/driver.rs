//! The Driver: parse → plan → execute → fetch (paper Section 2), now also
//! the place where execution reports become observability artifacts: a
//! structured trace, registry metrics, and `EXPLAIN ANALYZE` renderings.

use crate::metastore::Metastore;
use crate::plan_cache::{PlanCache, PlanCacheKey};
use hive_common::config::keys;
use hive_common::{CancelToken, HiveConf, HiveError, Result, Row};
use hive_dfs::{Dfs, FaultPlan, IoScope};
use hive_mapreduce::{DagReport, MrEngine};
use hive_obs::{MetricKey, MetricValue, MetricsRegistry, SpanKind, Trace};
use hive_planner::fingerprint::{knob_fingerprint, normalize_sql};
use hive_planner::{plan_query, CompiledQuery};
use hive_ql::{parse, SelectStmt, Statement};
use std::sync::Arc;

/// Per-statement context the server's admission layer hands the driver:
/// the preemption token execution must poll, where the statement landed
/// (pool, queue wait) for observability, and the plan cache when this
/// statement opted in. `Default` is a standalone, non-preemptible,
/// uncached statement — exactly the pre-workload-management behavior.
#[derive(Default, Clone, Copy)]
pub struct StatementCtx<'a> {
    /// Preemption handle; `None` means not preemptible.
    pub cancel: Option<&'a Arc<CancelToken>>,
    /// Pool name, only when a resource plan is configured.
    pub pool: Option<&'a str>,
    /// Whether admission made this statement wait for a slot.
    pub queued: bool,
    /// Wall-clock seconds spent queued (0.0 unless `queued`).
    pub queue_wait_s: f64,
    /// The server's plan cache, when `hive.query.plan.cache.enabled`.
    pub plan_cache: Option<&'a PlanCache>,
    /// The server's transaction manager (per-table write locks). DML and
    /// compaction refuse to run without one — a standalone driver cannot
    /// serialize writers against anybody.
    pub txn: Option<&'a crate::acid::TxnManager>,
}

/// Observability payload attached to every [`QueryResult`]: this
/// statement's trace only. Cumulative metrics live in the server's registry
/// (`HiveServer::metrics().snapshot()`, `HiveSession::metrics_snapshot()`),
/// so a statement's metrics cost does not grow with the server's age.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// Span tree for this statement (query → plan → jobs → tasks/operators).
    pub trace: Trace,
}

/// The result of one statement.
#[derive(Debug, Default)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    /// Per-job and total execution report (simulated time, measured CPU).
    pub report: DagReport,
    /// Set for EXPLAIN statements.
    pub explain: Option<String>,
    /// Trace + metrics handle for this statement.
    pub metrics: QueryMetrics,
}

impl QueryResult {
    /// Render rows as tab-separated lines (CLI-style output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join("\t"));
        out.push('\n');
        for r in &self.rows {
            let cells: Vec<String> = r.values().iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        out
    }
}

/// Compile and run one statement, recording into `registry`. `ctx` is the
/// admission context the server established for this statement
/// ([`StatementCtx::default`] for a standalone run).
pub fn run_statement(
    sql: &str,
    dfs: &Dfs,
    conf: &HiveConf,
    metastore: &Metastore,
    registry: &MetricsRegistry,
    ctx: &StatementCtx<'_>,
) -> Result<QueryResult> {
    // Reject ill-typed or out-of-range overrides before doing any work, so
    // a bad `SET` surfaces on the next statement rather than deep inside a
    // task.
    conf.validate()?;
    // Build a statement-scoped DFS view: the statement's fault plan (fresh
    // per statement, so the first-touch ledger resets and each query sees
    // its own deterministic fault schedule) and its cache participation
    // ride on this handle and its clones instead of mutating shared
    // filesystem state. Concurrent statements admitted against the same
    // server therefore cannot clobber each other's `dfs.fault.*` or
    // `hive.io.cache.bytes` settings mid-query. The block cache's byte
    // capacity is process state, sized once at server startup;
    // `hive.io.cache.bytes=0` here bypasses both cache tiers for exactly
    // this statement, keeping its read path byte-for-byte the pre-cache
    // one.
    let scoped = dfs.for_statement(
        FaultPlan::from_conf(conf)?,
        conf.get_i64(keys::IO_CACHE_BYTES)? > 0,
    );
    let dfs = &scoped;
    registry.counter("query.count").inc();
    match parse(sql)? {
        Statement::Select(stmt) => execute_select(sql, &stmt, dfs, conf, metastore, registry, ctx),
        Statement::CreateTable(ct) => {
            let schema = hive_common::Schema::new(
                ct.columns
                    .iter()
                    .map(|(n, t)| hive_common::Field::new(n.clone(), t.clone()))
                    .collect(),
            );
            let format = match &ct.stored_as {
                Some(f) => hive_formats::FormatKind::parse(f)?,
                None => hive_formats::FormatKind::Text,
            };
            metastore.create_table(&ct.name, schema, format)?;
            Ok(QueryResult::default())
        }
        Statement::Describe(name) => {
            let info = metastore
                .get(&name)
                .ok_or_else(|| HiveError::Metastore(format!("unknown table `{name}`")))?;
            let rows = info
                .schema
                .fields()
                .iter()
                .map(|f| {
                    Row::new(vec![
                        hive_common::Value::String(f.name.clone()),
                        hive_common::Value::String(f.data_type.to_string()),
                    ])
                })
                .collect();
            Ok(QueryResult {
                columns: vec!["col_name".into(), "data_type".into()],
                rows,
                ..Default::default()
            })
        }
        Statement::Explain { analyze, stmt } => {
            let Statement::Select(stmt) = *stmt else {
                return Err(HiveError::Plan("EXPLAIN supports SELECT only".into()));
            };
            let compiled = plan_with_cache(sql, &stmt, dfs, conf, metastore, registry, ctx)?;
            let plan = scrub_query_paths(&compiled.explain);
            // Which snapshot the plan pinned, when any scanned table is
            // ACID. `None` for plain tables keeps the output byte-identical
            // to the pre-ACID rendering.
            let acid = compiled
                .jobs
                .iter()
                .flat_map(|j| j.inputs.iter())
                .find_map(|i| {
                    i.overlay
                        .as_ref()
                        .map(|o| (o.snapshot_gen, o.delta_paths.len()))
                });
            if !analyze {
                return Ok(QueryResult {
                    explain: Some(plan),
                    ..Default::default()
                });
            }
            // ANALYZE: run the query for real, then annotate the plan with
            // the observed runtime profile. Result rows are discarded — the
            // statement's output is the report, like EXPLAIN ANALYZE in
            // PostgreSQL.
            let res = execute_select(sql, &stmt, dfs, conf, metastore, registry, ctx)?;
            // A stats-answered query never ran the compiled jobs: reporting
            // the (vectorized) plan's operator profile would attribute work
            // that did not happen. Say where the answer came from instead.
            let stats_answered = res
                .metrics
                .trace
                .spans
                .iter()
                .any(|s| s.kind == SpanKind::Query && s.attr("stats_answered").is_some());
            let text = if stats_answered {
                format!(
                    "{}\n\n== Runtime Profile ==\nanswered from table statistics \
                     (no jobs run, no operator profile)\nresult_rows={}\n",
                    plan.trim_end(),
                    res.rows.len()
                )
            } else {
                render_analyze(&plan, res.rows.len(), &res.report, ctx, acid)
            };
            Ok(QueryResult {
                report: res.report,
                explain: Some(text),
                metrics: res.metrics,
                ..Default::default()
            })
        }
        Statement::Insert(ins) => {
            let txn = require_txn(ctx)?;
            let n =
                crate::acid::execute_insert(&ins, dfs, conf, metastore, registry, txn, ctx.cancel)?;
            Ok(dml_result("rows_inserted", n))
        }
        Statement::Update(upd) => {
            let txn = require_txn(ctx)?;
            let n =
                crate::acid::execute_update(&upd, dfs, conf, metastore, registry, txn, ctx.cancel)?;
            Ok(dml_result("rows_updated", n))
        }
        Statement::Delete(del) => {
            let txn = require_txn(ctx)?;
            let n =
                crate::acid::execute_delete(&del, dfs, conf, metastore, registry, txn, ctx.cancel)?;
            Ok(dml_result("rows_deleted", n))
        }
        Statement::Compact { table, mode } => {
            let txn = require_txn(ctx)?;
            let n = crate::acid::execute_compact(
                &table, mode, dfs, conf, metastore, registry, txn, ctx.cancel,
            )?;
            Ok(dml_result("rows_compacted", n))
        }
    }
}

fn require_txn<'a>(ctx: &StatementCtx<'a>) -> Result<&'a crate::acid::TxnManager> {
    ctx.txn.ok_or_else(|| {
        HiveError::Execution(
            "ACID statements need the server's transaction manager; run them through a HiveServer"
                .into(),
        )
    })
}

/// The one-row `rows_affected`-style result every write statement returns.
fn dml_result(column: &str, n: u64) -> QueryResult {
    QueryResult {
        columns: vec![column.to_string()],
        rows: vec![Row::new(vec![hive_common::Value::Int(n as i64)])],
        ..Default::default()
    }
}

/// Plan a SELECT through the statement's plan cache when it opted in
/// (`hive.query.plan.cache.enabled`), else straight through the planner.
/// The cache key pins normalized SQL, the planning-knob fingerprint, and
/// both generation counters, so a hit is exactly the plan compilation
/// would produce; it is rebased onto a fresh scratch prefix so concurrent
/// reuses never share intermediate paths.
fn plan_with_cache(
    sql: &str,
    stmt: &SelectStmt,
    dfs: &Dfs,
    conf: &HiveConf,
    metastore: &Metastore,
    registry: &MetricsRegistry,
    ctx: &StatementCtx<'_>,
) -> Result<CompiledQuery> {
    let Some(cache) = ctx.plan_cache else {
        return plan_query(stmt, metastore, conf);
    };
    let key = PlanCacheKey {
        sql: normalize_sql(sql),
        knobs: knob_fingerprint(conf),
        catalog_gen: metastore.catalog_generation(),
        dfs_gen: dfs.generation_watermark(),
    };
    if let Some(hit) = cache.get(&key) {
        registry.counter("plan_cache.hit").inc();
        return Ok(hit.rebase());
    }
    let compiled = plan_query(stmt, metastore, conf)?;
    registry.counter("plan_cache.miss").inc();
    cache.insert(key, Arc::new(compiled.clone()));
    Ok(compiled)
}

/// Plan and execute one SELECT, then fold its report into the registry and
/// build the statement trace.
fn execute_select(
    sql: &str,
    stmt: &SelectStmt,
    dfs: &Dfs,
    conf: &HiveConf,
    metastore: &Metastore,
    registry: &MetricsRegistry,
    ctx: &StatementCtx<'_>,
) -> Result<QueryResult> {
    // Simple aggregations can come straight from ORC footers (paper §4.2),
    // skipping the whole engine. Footer reads happen on this thread, so an
    // [`IoScope`] attributes exactly this statement's DFS bytes.
    let stats_scope = IoScope::new();
    let stats_hit = {
        let _g = stats_scope.enter();
        crate::stats_answer::try_answer(stmt, dfs, conf, metastore)?
    };
    if let Some((columns, row)) = stats_hit {
        let io = stats_scope.snapshot();
        registry.counter("query.stats_answered").inc();
        registry.counter("dfs.bytes_read").add(io.bytes_read());
        let mut trace = Trace::new();
        let q = trace.span(None, SpanKind::Query, sql, 0.0);
        trace.attr(q, "stats_answered", 1u64);
        trace.attr(q, "bytes_read", io.bytes_read());
        attach_admission_span(&mut trace, q, ctx);
        return Ok(QueryResult {
            columns,
            rows: vec![row],
            metrics: QueryMetrics { trace },
            ..Default::default()
        });
    }
    let compiled = plan_with_cache(sql, stmt, dfs, conf, metastore, registry, ctx)?;
    let mut engine = MrEngine::new(dfs.clone(), conf.clone());
    if let Some(cancel) = ctx.cancel {
        engine = engine.with_cancel(Arc::clone(cancel));
    }
    let (report, mut rows) = engine.run_dag(&compiled.jobs)?;
    // Driver-side final ordering and limit (see DESIGN.md).
    if !compiled.order_by.is_empty() {
        rows.sort_by(|a, b| {
            for &(idx, asc) in &compiled.order_by {
                let c = a[idx].sql_cmp(&b[idx]);
                let c = if asc { c } else { c.reverse() };
                if c != std::cmp::Ordering::Equal {
                    return c;
                }
            }
            std::cmp::Ordering::Equal
        });
        if let Some(n) = compiled.limit {
            rows.truncate(n as usize);
        }
    }
    record_report(registry, &report);
    let trace = build_trace(sql, &report, ctx);
    Ok(QueryResult {
        columns: compiled.output_names,
        rows,
        report,
        explain: None,
        metrics: QueryMetrics { trace },
    })
}

/// Fold one DAG report into the registry: statement-level counters under
/// `exec.*`/`dfs.*`, per-job labeled counters, scan profiles, simulated-time
/// histograms, and per-operator row/CPU counters. Every value is derived
/// from the report (merged single-threaded from task results), so the
/// registry contents do not depend on worker-thread count. Operators are
/// keyed by their literal-free label, so the registry's series are bounded
/// by plan shape; the whole report lands under one hold of the lock.
fn record_report(registry: &MetricsRegistry, report: &DagReport) {
    registry.batch(|m| {
        for (name, v) in report.counters.entries() {
            m.record(&MetricKey::new(&format!("exec.{name}")), v);
        }
        // DFS traffic as seen by the per-task IoScopes the engine enters,
        // and the statement's simulated time.
        for (name, v) in [
            ("dfs.bytes_read", report.counters.bytes_read.into()),
            ("dfs.bytes_written", report.counters.bytes_written.into()),
            ("exec.sim_total_s", report.sim_total_s.into()),
        ] {
            m.record(&MetricKey::new(name), v);
        }
        for jr in &report.jobs {
            let job = [("job", jr.name.as_str())];
            for (name, v) in jr.counters.entries() {
                m.record(&MetricKey::with_labels(&format!("job.{name}"), &job), v);
            }
            for (name, v) in jr.scan.entries() {
                m.record(&MetricKey::with_labels(&format!("scan.{name}"), &job), v);
            }
            m.observe(&MetricKey::new("job.sim_total_s"), jr.sim_total_s);
            let task_sim_s = MetricKey::with_labels("task.sim_s", &job);
            for t in &jr.tasks {
                m.observe(&task_sim_s, t.sim_s);
            }
            for (phase, ops) in [("map", &jr.map_operators), ("reduce", &jr.reduce_operators)] {
                for p in ops {
                    let op = [
                        ("job", jr.name.as_str()),
                        ("phase", phase),
                        ("op", &p.label),
                    ];
                    for (name, v) in [
                        ("operator.rows_in", p.rows_in),
                        ("operator.rows_out", p.rows_out),
                        ("operator.cpu_ns", p.cpu_ns),
                    ] {
                        m.record(&MetricKey::with_labels(name, &op), v.into());
                    }
                }
            }
        }
    });
}

/// Attach the admission span — pool assignment and queue wait — under the
/// query root, but only when the statement actually waited for a slot.
/// Statements granted immediately (every statement on an idle server, and
/// everything in the pre-workload-management world) trace byte-identically
/// to before.
fn attach_admission_span(t: &mut Trace, q: u32, ctx: &StatementCtx<'_>) {
    if !ctx.queued {
        return;
    }
    let a = t.span(Some(q), SpanKind::Admission, "admission", ctx.queue_wait_s);
    t.attr(a, "pool", ctx.pool.unwrap_or("default"));
    t.attr(a, "queue_wait_s", ctx.queue_wait_s);
}

/// Build the span tree for one executed statement:
/// query → plan phase + DAG stage → job → task / operator.
fn build_trace(sql: &str, report: &DagReport, ctx: &StatementCtx<'_>) -> Trace {
    let mut t = Trace::new();
    let q = t.span(None, SpanKind::Query, sql, report.sim_total_s);
    t.attr(q, "jobs", report.jobs.len() as u64);
    t.attr(q, "rows_out", report.counters.rows_out);
    attach_admission_span(&mut t, q, ctx);
    let plan = t.span(Some(q), SpanKind::PlanPhase, "plan", 0.0);
    t.attr(plan, "jobs", report.jobs.len() as u64);
    let stage = t.span(Some(q), SpanKind::Stage, "dag", report.sim_total_s);
    if !report.blacklisted_nodes.is_empty() {
        t.attr(
            stage,
            "blacklisted_nodes",
            report.blacklisted_nodes.len() as u64,
        );
    }
    for jr in &report.jobs {
        let j = t.span(Some(stage), SpanKind::Job, &jr.name, jr.sim_total_s);
        t.attr(j, "map_tasks", jr.map_tasks as u64);
        t.attr(j, "reduce_tasks", jr.reduce_tasks as u64);
        for (name, v) in jr.counters.entries() {
            match v {
                MetricValue::U64(n) => t.attr(j, name, n),
                MetricValue::F64(x) => t.attr(j, name, x),
            }
        }
        if jr.scan.rows_read > 0 {
            t.attr(j, "scan_rows_read", jr.scan.rows_read);
            t.attr(j, "scan_selected_density", jr.scan.selected_density());
        }
        if jr.scan.delta_rows_read > 0 || jr.scan.rows_masked > 0 {
            t.attr(j, "scan_delta_rows", jr.scan.delta_rows_read);
            t.attr(j, "scan_rows_masked", jr.scan.rows_masked);
        }
        if cache_activity(&jr.scan) > 0 {
            let c = t.span(Some(j), SpanKind::Cache, "cache", 0.0);
            t.attr(c, "footer_hits", jr.scan.footer_cache_hits);
            t.attr(c, "footer_misses", jr.scan.footer_cache_misses);
            t.attr(c, "index_hits", jr.scan.index_cache_hits);
            t.attr(c, "index_misses", jr.scan.index_cache_misses);
            t.attr(c, "data_hits", jr.scan.data_cache_hits);
            t.attr(c, "data_misses", jr.scan.data_cache_misses);
            t.attr(c, "data_hit_bytes", jr.scan.data_cache_hit_bytes);
            t.attr(c, "data_evictions", jr.scan.data_cache_evictions);
        }
        for task in &jr.tasks {
            let name = format!("{}-{}", task.phase.as_str(), task.index);
            let ts = t.span(Some(j), SpanKind::Task, &name, task.sim_s);
            t.attr(ts, "attempts", task.attempts as u64);
            if let Some(n) = task.node {
                t.attr(ts, "node", n as u64);
            }
        }
        for (phase, ops) in [("map", &jr.map_operators), ("reduce", &jr.reduce_operators)] {
            for p in ops {
                let os = t.span(
                    Some(j),
                    SpanKind::Operator,
                    &format!("{phase}:{}", p.name),
                    0.0,
                );
                t.attr(os, "rows_in", p.rows_in);
                t.attr(os, "rows_out", p.rows_out);
                t.attr(os, "cpu_ns", p.cpu_ns);
            }
        }
    }
    t
}

/// Total cache touches (both tiers) a job's scans observed. Zero whenever
/// the caches are disabled, which keeps pre-cache `EXPLAIN ANALYZE` and
/// trace output byte-identical under `hive.io.cache.bytes=0`.
fn cache_activity(scan: &hive_obs::ScanProfile) -> u64 {
    scan.footer_cache_hits
        + scan.footer_cache_misses
        + scan.index_cache_hits
        + scan.index_cache_misses
        + scan.data_cache_hits
        + scan.data_cache_misses
        + scan.data_cache_evictions
}

/// Replace the per-process query counter in intermediate paths
/// (`/tmp/query-17/...`) with a stable placeholder so plan text is
/// byte-identical across runs.
fn scrub_query_paths(plan: &str) -> String {
    const MARKER: &str = "/tmp/query-";
    let mut out = String::with_capacity(plan.len());
    let mut rest = plan;
    while let Some(at) = rest.find(MARKER) {
        let digits_from = at + MARKER.len();
        out.push_str(&rest[..digits_from]);
        let tail = &rest[digits_from..];
        let end = tail
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(tail.len());
        out.push('N');
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Render the `EXPLAIN ANALYZE` report: the static plan followed by the
/// observed per-job runtime profile (tasks, bytes, scan pruning, and
/// per-operator rows/CPU). Statements that waited in an admission queue
/// get one extra `admission:` line; ones granted immediately render
/// byte-identically to the pre-workload-management output.
fn render_analyze(
    plan: &str,
    result_rows: usize,
    report: &DagReport,
    ctx: &StatementCtx<'_>,
    acid: Option<(u64, usize)>,
) -> String {
    let mut out = String::new();
    out.push_str(plan.trim_end());
    out.push_str("\n\n== Runtime Profile ==\n");
    if ctx.queued {
        out.push_str(&format!(
            "admission: pool={} queue_wait={:.1}ms\n",
            ctx.pool.unwrap_or("default"),
            ctx.queue_wait_s * 1e3,
        ));
    }
    out.push_str(&format!(
        "sim_total={:.6}s jobs={} result_rows={}\n",
        report.sim_total_s,
        report.jobs.len(),
        result_rows
    ));
    if let Some((gen, delta_files)) = acid {
        out.push_str(&format!(
            "acid: snapshot_gen={gen} delta_files={delta_files}\n"
        ));
    }
    for jr in &report.jobs {
        out.push_str(&format!(
            "{}: sim={:.6}s map_tasks={} reduce_tasks={} attempts={} retries={} speculative={}\n",
            jr.name,
            jr.sim_total_s,
            jr.map_tasks,
            jr.reduce_tasks,
            jr.counters.task_attempts,
            jr.counters.task_retries,
            jr.counters.speculative_tasks,
        ));
        out.push_str(&format!(
            "  io: read={}B shuffled={}B written={}B cpu={:.6}s\n",
            jr.counters.bytes_read,
            jr.counters.bytes_shuffled,
            jr.counters.bytes_written,
            jr.counters.cpu_seconds,
        ));
        if jr.scan.rows_read > 0 || jr.scan.stripes_total > 0 {
            out.push_str(&format!(
                "  scan: rows={} batches={} stripes={}/{} groups={}/{} salvaged={} selected_density={:.3}\n",
                jr.scan.rows_read,
                jr.scan.batches,
                jr.scan.stripes_read,
                jr.scan.stripes_total,
                jr.scan.groups_read,
                jr.scan.groups_total,
                jr.scan.rows_salvaged,
                jr.scan.selected_density(),
            ));
        }
        if jr.scan.groups_bloom_pruned > 0 || jr.scan.bloom_corrupt > 0 {
            out.push_str(&format!(
                "  skip: groups_stats_pruned={} groups_bloom_pruned={} bloom_corrupt={} read={}B\n",
                jr.scan
                    .groups_total
                    .saturating_sub(jr.scan.groups_read + jr.scan.groups_bloom_pruned),
                jr.scan.groups_bloom_pruned,
                jr.scan.bloom_corrupt,
                jr.counters.bytes_read,
            ));
        }
        for (path, variant, sort_column) in &jr.replica_choices {
            out.push_str(&format!(
                "  replica: path={path} variant={variant} sorted_by={sort_column}\n"
            ));
        }
        if jr.scan.delta_rows_read > 0 || jr.scan.rows_masked > 0 {
            out.push_str(&format!(
                "  acid: delta_rows={} rows_masked={}\n",
                jr.scan.delta_rows_read, jr.scan.rows_masked,
            ));
        }
        if cache_activity(&jr.scan) > 0 {
            out.push_str(&format!(
                "  cache: footer={}/{} index={}/{} data={}/{} hit_bytes={}B evictions={}\n",
                jr.scan.footer_cache_hits,
                jr.scan.footer_cache_misses,
                jr.scan.index_cache_hits,
                jr.scan.index_cache_misses,
                jr.scan.data_cache_hits,
                jr.scan.data_cache_misses,
                jr.scan.data_cache_hit_bytes,
                jr.scan.data_cache_evictions,
            ));
        }
        for (phase, ops) in [("map", &jr.map_operators), ("reduce", &jr.reduce_operators)] {
            if ops.is_empty() {
                continue;
            }
            out.push_str(&format!("  {phase} operators:\n"));
            for p in ops {
                out.push_str(&format!(
                    "    {:<24} rows_in={:<10} rows_out={:<10} cpu={:.3}ms",
                    p.name,
                    p.rows_in,
                    p.rows_out,
                    p.cpu_ns as f64 / 1e6,
                ));
                for (key, value) in &p.detail {
                    out.push_str(&format!(" {key}={value}"));
                }
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_paths_are_scrubbed() {
        let s = "Sink(/tmp/query-42/stage-0) then /tmp/query-7/x";
        assert_eq!(
            scrub_query_paths(s),
            "Sink(/tmp/query-N/stage-0) then /tmp/query-N/x"
        );
        assert_eq!(scrub_query_paths("no paths here"), "no paths here");
    }
}
