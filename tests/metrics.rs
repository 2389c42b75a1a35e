//! Observability integration suite: metrics determinism across
//! worker-thread counts, `EXPLAIN ANALYZE` golden output, knob-registry
//! error reporting, the `--metrics-json` schema, and the generated README
//! knob table.
//!
//! Regenerate goldens with `UPDATE_GOLDENS=1 cargo test --test metrics`.

use hive::common::config::{knob_table_markdown, knobs};
use hive::common::{HiveError, Row, Value};
use hive::obs::json;
use hive::HiveSession;

/// A session pinned to the deterministic clock and a fixed worker count.
fn session(threads: u64) -> HiveSession {
    HiveSession::builder()
        .knob(knobs::EXEC_SIM_DETERMINISTIC_CPU, true)
        .knob(knobs::EXEC_WORKER_THREADS, threads)
        .build()
        .unwrap()
}

/// TPC-H-style pair: a fact table and a dimension joined on `cust`.
fn load_tpch_style(hive: &mut HiveSession) {
    hive.execute("CREATE TABLE orders (okey BIGINT, cust BIGINT, total DOUBLE) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "orders",
        (0..4000).map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % 100),
                Value::Double((i % 500) as f64 / 4.0),
            ])
        }),
    )
    .unwrap();
    hive.execute("CREATE TABLE customer (cust BIGINT, name STRING) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "customer",
        (0..100).map(|i| Row::new(vec![Value::Int(i), Value::String(format!("cust-{i:03}"))])),
    )
    .unwrap();
}

const JOIN_AGG: &str = "SELECT customer.name, COUNT(*) AS n, SUM(orders.total) AS revenue \
     FROM orders JOIN customer ON (orders.cust = customer.cust) \
     GROUP BY customer.name ORDER BY customer.name";

/// Run a fixed statement sequence and return the final snapshot JSON.
fn snapshot_json(threads: u64) -> String {
    let mut hive = session(threads);
    load_tpch_style(&mut hive);
    let r = hive.execute(JOIN_AGG).unwrap();
    assert_eq!(r.rows.len(), 100);
    hive.execute("SELECT cust, COUNT(*) FROM orders WHERE total > 100.0 GROUP BY cust")
        .unwrap();
    hive.metrics_snapshot().to_json().render_pretty()
}

#[test]
fn metrics_snapshot_is_byte_identical_across_worker_thread_counts() {
    let one = snapshot_json(1);
    let eight = snapshot_json(8);
    assert_eq!(one, eight, "snapshot depends on worker-thread count");
    // And across repeated runs at the same width.
    assert_eq!(one, snapshot_json(1));
}

#[test]
fn metrics_snapshot_has_the_expected_counters() {
    let mut hive = session(2);
    load_tpch_style(&mut hive);
    hive.execute(JOIN_AGG).unwrap();
    let snap = hive.metrics_snapshot();
    assert!(snap.counter("query.count", &[]).unwrap() >= 1);
    assert!(snap.counter("exec.rows_out", &[]).unwrap() > 0);
    assert!(snap.counter("exec.task_attempts", &[]).unwrap() > 0);
    assert!(snap.counter("dfs.bytes_read", &[]).unwrap() > 0);
    assert!(snap.gauge("exec.sim_total_s", &[]).unwrap() > 0.0);
    assert!(snap.histogram("job.sim_total_s", &[]).unwrap().count > 0);
    // Per-operator counters are labeled by job/phase/op.
    assert!(
        snap.counters
            .keys()
            .any(|k| k.name == "operator.rows_in" && k.labels.contains_key("phase")),
        "no labeled operator counters in snapshot"
    );
}

#[test]
fn metrics_json_validates_against_checked_in_schema() {
    let text = snapshot_json(2);
    let value = json::parse(&text).expect("snapshot JSON parses");
    let schema =
        json::parse(include_str!("../results/metrics.schema.json")).expect("schema parses");
    json::validate(&value, &schema).expect("snapshot matches results/metrics.schema.json");
}

fn assert_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name} ({e}); run UPDATE_GOLDENS=1 cargo test --test metrics")
    });
    assert_eq!(
        actual, expected,
        "golden {name} drifted; run UPDATE_GOLDENS=1 cargo test --test metrics to regenerate"
    );
}

/// `EXPLAIN ANALYZE` output for the query under a fixed worker count; must
/// be byte-identical across widths before it can be a golden.
fn analyze_text(sql: &str, reduce_side_join: bool) -> String {
    analyze_text_conf(sql, move |hive| {
        if reduce_side_join {
            hive.try_set("hive.auto.convert.join", "false").unwrap();
        }
    })
}

/// Like [`analyze_text`] but with an arbitrary knob setup per session.
fn analyze_text_conf(sql: &str, setup: impl Fn(&mut HiveSession)) -> String {
    let mut texts = Vec::new();
    for threads in [1u64, 4] {
        let mut hive = session(threads);
        setup(&mut hive);
        load_tpch_style(&mut hive);
        let r = hive.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        texts.push(r.explain.expect("EXPLAIN ANALYZE sets explain text"));
    }
    assert_eq!(
        texts[0], texts[1],
        "EXPLAIN ANALYZE differs across worker-thread counts"
    );
    texts.pop().unwrap()
}

#[test]
fn explain_analyze_correlation_optimized_golden() {
    // Join key == group key: the Correlation Optimizer collapses the join
    // and the aggregation into one reduce phase (reduce-side join forced so
    // the correlation applies).
    let text = analyze_text(
        "SELECT orders.cust, COUNT(*) AS n, SUM(orders.total) AS rev \
         FROM orders JOIN customer ON (orders.cust = customer.cust) \
         GROUP BY orders.cust ORDER BY orders.cust",
        true,
    );
    assert!(text.contains("== Runtime Profile =="), "{text}");
    assert!(text.contains("rows_in="), "{text}");
    assert_golden("explain_analyze_correlation.txt", &text);
}

#[test]
fn explain_analyze_vectorized_golden() {
    // Vectorized scan + filter + aggregate over ORC.
    let text = analyze_text(
        "SELECT cust, COUNT(*) AS n, SUM(total) AS rev FROM orders \
         WHERE total > 50.0 GROUP BY cust ORDER BY cust",
        false,
    );
    assert!(text.contains("scan:"), "{text}");
    assert!(text.contains("selected_density="), "{text}");
    assert_golden("explain_analyze_vectorized.txt", &text);
}

#[test]
fn explain_analyze_vectorized_mapjoin_golden() {
    // The map-join converts (small dimension side) and vectorizes: the
    // runtime profile must show the VectorMapJoin operator with its
    // probe-batch counters, byte-identical at both worker widths.
    let text = analyze_text(JOIN_AGG, false);
    assert!(text.contains("VectorMapJoin[Inner]"), "{text}");
    assert!(text.contains("probe_batches="), "{text}");
    assert!(text.contains("build_rows="), "{text}");
    assert_golden("explain_analyze_vector_mapjoin.txt", &text);
}

/// Like [`analyze_text_conf`] but commits ACID DML against `orders` first —
/// a delta (two inserted rows that survive the probe's filter) and a delete
/// mask over the base file — so the profiled scan merges on read.
fn analyze_acid_text(sql: &str, setup: impl Fn(&mut HiveSession)) -> String {
    let mut texts = Vec::new();
    for threads in [1u64, 4] {
        let mut hive = session(threads);
        setup(&mut hive);
        load_tpch_style(&mut hive);
        hive.execute("INSERT INTO orders VALUES (9000, 7, 60.5), (9001, 8, 72.25)")
            .unwrap();
        hive.execute("DELETE FROM orders WHERE okey < 40").unwrap();
        let r = hive.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        texts.push(r.explain.expect("EXPLAIN ANALYZE sets explain text"));
    }
    assert_eq!(
        texts[0], texts[1],
        "EXPLAIN ANALYZE differs across worker-thread counts"
    );
    texts.pop().unwrap()
}

/// ACID merge-on-read scan goldens, both modes. The `acid:` delta-merge
/// lines count LOGICAL rows (post-mask, post-selection), so batch-wise
/// merging must render them byte-identically to the row-at-a-time path.
#[test]
fn explain_analyze_acid_scan_goldens() {
    const SQL: &str = "SELECT cust, COUNT(*) AS n, SUM(total) AS rev FROM orders \
         WHERE total > 50.0 GROUP BY cust ORDER BY cust";
    let vec_text = analyze_acid_text(SQL, |_| {});
    assert!(
        vec_text.contains("acid: snapshot_gen=2 delta_files=1"),
        "{vec_text}"
    );
    assert!(vec_text.contains("Vector"), "{vec_text}");
    assert!(!vec_text.contains("RowBridge"), "{vec_text}");
    let row_text = analyze_acid_text(SQL, |hive| {
        hive.try_set("hive.vectorized.execution.enabled", "false")
            .unwrap();
    });
    assert!(
        !row_text.contains("Vector") && !row_text.contains("RowBridge"),
        "{row_text}"
    );
    // The merge accounting is mode-independent by construction: identical
    // acid lines, whether deletes were dropped row by row or unselected
    // from batches by file ordinal.
    let acid_lines = |t: &str| {
        t.lines()
            .filter(|l| l.contains("acid"))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    assert!(!acid_lines(&vec_text).is_empty(), "{vec_text}");
    assert_eq!(acid_lines(&vec_text), acid_lines(&row_text));
    assert_golden("explain_analyze_acid_vectorized.txt", &vec_text);
    assert_golden("explain_analyze_acid_row_mode.txt", &row_text);
}

/// `EXPLAIN ANALYZE` over a scattered fact table with the skipping knobs
/// set per `on`: every stripe's min/max spans nearly the whole key domain
/// (stats cannot prune a point lookup) but each key lives in only a few
/// index groups (bloom filters and a key-sorted replica can).
fn analyze_skipping_text(sql: &str, on: bool) -> String {
    use hive::common::config::keys;
    let mut texts = Vec::new();
    for threads in [1u64, 4] {
        let mut hive = session(threads);
        if on {
            hive.set(keys::ORC_BLOOM_FILTER_COLUMNS, "vkey");
            hive.set(keys::ORC_REPLICA_SORT_COLUMNS, "okey");
        }
        hive.set(keys::ORC_STRIPE_SIZE, "4000");
        hive.set(keys::ORC_ROW_INDEX_STRIDE, "100");
        hive.execute("CREATE TABLE fact (okey BIGINT, vkey BIGINT, total DOUBLE) STORED AS orc")
            .unwrap();
        hive.load_rows(
            "fact",
            (0..4000i64).map(|i| {
                Row::new(vec![
                    Value::Int(i % 509),
                    Value::Int((i * 7919 + (i / 509) * 101) % 509),
                    Value::Double((i % 400) as f64 / 4.0),
                ])
            }),
        )
        .unwrap();
        let r = hive.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        texts.push(r.explain.expect("EXPLAIN ANALYZE sets explain text"));
    }
    assert_eq!(
        texts[0], texts[1],
        "EXPLAIN ANALYZE differs across worker-thread counts"
    );
    texts.pop().unwrap()
}

/// Aggressive-skipping goldens. The range on `okey` is served by the
/// okey-sorted replica (min/max pruning over clustered data); the point
/// lookup on the scattered `vkey` is exactly what min/max statistics are
/// helpless against, so the surviving groups fall to the bloom filters.
/// With the knobs on, the profile pins the new `skip:` and `replica:`
/// lines; with the knobs off, the very same query renders the
/// pre-skipping profile with not a byte of difference — no conditional
/// lines leak.
#[test]
fn explain_analyze_skipping_goldens() {
    const SQL: &str =
        "SELECT okey, vkey, total FROM fact WHERE okey BETWEEN 100 AND 300 AND vkey = 7";
    let on = analyze_skipping_text(SQL, true);
    assert!(on.contains("replica: "), "no replica choice in:\n{on}");
    assert!(
        on.contains("skip: ") && on.contains(" bloom_corrupt=0"),
        "no bloom skipping in:\n{on}"
    );
    assert_golden("explain_analyze_skipping.txt", &on);

    let off = analyze_skipping_text(SQL, false);
    assert!(
        !off.contains("skip: ") && !off.contains("replica: "),
        "knob-off profile grew skipping lines:\n{off}"
    );
    assert_golden("explain_analyze_skipping_off.txt", &off);
}

#[test]
fn vectorization_knob_off_matches_pre_vectorization_engine() {
    // `hive.vectorized.execution.enabled=false` must reproduce the row-mode
    // engine byte-for-byte. This golden was captured before the batch-native
    // execution redesign, so matching it proves the knob restores the
    // pre-vectorization profile exactly (no Vector* operators, no bridge).
    let text = analyze_text_conf(
        "SELECT cust, COUNT(*) AS n, SUM(total) AS rev FROM orders \
         WHERE total > 50.0 GROUP BY cust ORDER BY cust",
        |hive| {
            hive.try_set("hive.vectorized.execution.enabled", "false")
                .unwrap();
        },
    );
    assert!(!text.contains("Vector"), "{text}");
    assert!(!text.contains("RowBridge"), "{text}");
    assert_golden("explain_analyze_vectorization_off.txt", &text);
}

#[test]
fn stats_answered_explain_analyze_has_no_vectorized_profile() {
    // A stats-answered query never executes the compiled jobs, so its
    // EXPLAIN ANALYZE must not report the vectorized plan's operator
    // profile — the report would attribute work that did not happen.
    let mut hive = session(2);
    hive.try_set("hive.compute.query.using.stats", "true")
        .unwrap();
    load_tpch_style(&mut hive);
    let r = hive
        .execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM orders")
        .unwrap();
    let text = r.explain.unwrap();
    assert!(text.contains("answered from table statistics"), "{text}");
    assert!(!text.contains("Vector"), "{text}");
    assert!(!text.contains("scan:"), "{text}");
    assert!(!text.contains("map operators"), "{text}");
    // The same statement without the knob runs for real and profiles the
    // vectorized chain.
    let mut hive = session(2);
    load_tpch_style(&mut hive);
    let r = hive
        .execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM orders")
        .unwrap();
    let text = r.explain.unwrap();
    assert!(text.contains("map operators"), "{text}");
}

#[test]
fn fallback_boundaries_cross_exactly_one_row_bridge() {
    // Fully vectorized chains have no batch→row crossing at all.
    let text = analyze_text(JOIN_AGG, false);
    assert_eq!(text.matches("RowBridge").count(), 0, "{text}");
    // The chain ends at the first operator the vectorizer cannot compile
    // (`%` has no vector kernel): upstream stays vectorized and exactly ONE
    // RowBridge crosses into row mode, right before that operator. The
    // boundaries: the map-side group-by, a reduce-side join's reduce sink,
    // and a map join with its knob off.
    let mapjoin_off = |hive: &mut HiveSession| {
        hive.try_set("hive.vectorized.execution.mapjoin.enabled", "false")
            .unwrap();
    };
    let boundaries = [
        (
            "GroupByOperator(hash)",
            analyze_text(
                "SELECT cust, SUM(okey % 7) AS s FROM orders WHERE total > 10.0 \
                 GROUP BY cust ORDER BY cust",
                false,
            ),
        ),
        (
            "ReduceSinkOperator",
            analyze_text(
                "SELECT customer.name, orders.total FROM orders \
                 JOIN customer ON (orders.cust % 100 = customer.cust) WHERE orders.total > 100.0",
                true,
            ),
        ),
        ("MapJoinOperator", analyze_text_conf(JOIN_AGG, mapjoin_off)),
    ];
    for (row_op, text) in boundaries {
        assert_eq!(text.matches("RowBridge").count(), 1, "{row_op}:\n{text}");
        assert!(text.contains("Vector"), "{row_op}:\n{text}");
        let after_bridge = text
            .lines()
            .skip_while(|l| !l.contains("RowBridge"))
            .nth(1)
            .unwrap_or_default();
        assert!(after_bridge.contains(row_op), "{row_op}:\n{text}");
    }
    // An unvectorizable FIRST operator leaves nothing to vectorize: the
    // whole input falls back to row mode — no bridge, no vector ops.
    let text = analyze_text("SELECT okey FROM orders WHERE okey % 7 = 0", false);
    assert_eq!(text.matches("RowBridge").count(), 0, "{text}");
    assert!(!text.contains("Vector"), "{text}");
}

#[test]
fn explain_analyze_mapjoin_knob_off_golden() {
    // Same query with hive.vectorized.execution.mapjoin.enabled=false:
    // the join runs in row mode (no VectorMapJoin operator in the profile)
    // while the scan side stays vectorized.
    let text = analyze_text_conf(JOIN_AGG, |hive| {
        hive.try_set("hive.vectorized.execution.mapjoin.enabled", "false")
            .unwrap();
    });
    assert!(!text.contains("VectorMapJoin"), "{text}");
    assert_golden("explain_analyze_row_mapjoin.txt", &text);
}

/// The sarg-filtered scan used by the cache golden tests. Must stay in
/// sync with `tests/golden/explain_analyze_cache_*.txt`.
const SARG_PROBE: &str =
    "SELECT cust, COUNT(*) AS n FROM orders WHERE total > 100.0 GROUP BY cust ORDER BY cust";

/// Cold-then-warm `EXPLAIN ANALYZE` pair against one session (one server):
/// the first run fills the metadata and block caches, the second must hit
/// them. Byte-identical at worker widths 1 and 4 — single-flight fills keep
/// the hit/miss counters deterministic under concurrency.
fn analyze_cold_warm() -> (String, String) {
    let mut pairs = Vec::new();
    for threads in [1u64, 4] {
        let mut hive = session(threads);
        load_tpch_style(&mut hive);
        let sql = format!("EXPLAIN ANALYZE {SARG_PROBE}");
        let cold = hive.execute(&sql).unwrap().explain.unwrap();
        let warm = hive.execute(&sql).unwrap().explain.unwrap();
        pairs.push((cold, warm));
    }
    let wide = pairs.pop().unwrap();
    let narrow = pairs.pop().unwrap();
    assert_eq!(
        narrow, wide,
        "cache counters differ across worker-thread counts"
    );
    wide
}

#[test]
fn explain_analyze_cache_cold_then_warm_goldens() {
    let (cold, warm) = analyze_cold_warm();
    // Cold: one ORC file footer decoded and filled, nothing served.
    assert!(cold.contains("cache: footer=0/1"), "{cold}");
    assert!(cold.contains("data=0/"), "{cold}");
    // Warm: the same footer (and stripe footer / row index) now hit, and
    // every data read is served from the block cache — no DFS bytes moved.
    assert!(warm.contains("cache: footer=1/0"), "{warm}");
    assert!(warm.contains("index=2/0"), "{warm}");
    assert!(warm.contains("io: read=0B"), "{warm}");
    assert_golden("explain_analyze_cache_cold.txt", &cold);
    assert_golden("explain_analyze_cache_warm.txt", &warm);
}

#[test]
fn cache_knob_off_restores_pre_cache_scan_stats() {
    // `hive.io.cache.bytes=0` is the master switch for both cache tiers;
    // this golden was captured before the caches existed, so matching it
    // byte-for-byte proves knob-off restores the pre-cache read path.
    let text = analyze_text_conf(SARG_PROBE, |hive| {
        hive.try_set("hive.io.cache.bytes", "0").unwrap();
    });
    assert!(!text.contains("cache:"), "{text}");
    assert_golden("explain_analyze_cache_off.txt", &text);
}

#[test]
fn warm_queries_carry_a_cache_trace_span() {
    let mut hive = session(2);
    load_tpch_style(&mut hive);
    hive.execute(SARG_PROBE).unwrap();
    let r = hive.execute(SARG_PROBE).unwrap();
    let span = r
        .metrics
        .trace
        .spans
        .iter()
        .find(|s| s.kind == hive::obs::SpanKind::Cache)
        .unwrap_or_else(|| panic!("no cache span:\n{}", r.metrics.trace.render()));
    assert_eq!(
        span.attr("footer_hits"),
        Some(&hive::obs::AttrValue::U64(1)),
        "{span:?}"
    );
    assert!(
        matches!(span.attr("data_hit_bytes"), Some(&hive::obs::AttrValue::U64(n)) if n > 0),
        "{span:?}"
    );
}

/// 8 client threads × 32 mixed statements (sarg scans, vectorized
/// map-joins, correlated group-bys) against ONE server: no deadlock, the
/// admission high-water mark stays within the knob, every result is
/// correct, and the final metrics snapshot is deterministic across engine
/// worker-thread counts.
fn stress_snapshot(worker_threads: u64) -> hive::obs::MetricsSnapshot {
    stress_snapshot_conf(worker_threads, false)
}

fn stress_snapshot_conf(worker_threads: u64, plan_cache: bool) -> hive::obs::MetricsSnapshot {
    const MIXED: [(&str, usize); 3] = [
        (SARG_PROBE, 99),
        (JOIN_AGG, 100),
        (
            "SELECT orders.cust, COUNT(*) AS n, SUM(orders.total) AS rev \
             FROM orders JOIN customer ON (orders.cust = customer.cust) \
             GROUP BY orders.cust ORDER BY orders.cust",
            100,
        ),
    ];
    let server = HiveSession::builder()
        .knob(knobs::EXEC_SIM_DETERMINISTIC_CPU, true)
        .knob(knobs::EXEC_WORKER_THREADS, worker_threads)
        .set("hive.server.max.concurrent.queries", "4")
        .unwrap()
        .set(
            "hive.query.plan.cache.enabled",
            if plan_cache { "true" } else { "false" },
        )
        .unwrap()
        .build_server()
        .unwrap();
    {
        let mut s = server.new_session();
        load_tpch_style(&mut s);
        // Warm both cache tiers sequentially so the concurrent phase is
        // all hits: miss attribution then cannot depend on which client
        // thread reaches a block first.
        for (sql, rows) in MIXED {
            assert_eq!(s.execute(sql).unwrap().rows.len(), rows);
        }
    }
    let mut handles = Vec::new();
    for tid in 0..8usize {
        let srv = server.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..32usize {
                let (sql, rows) = MIXED[(tid + i) % MIXED.len()];
                let r = srv.execute(sql).unwrap();
                assert_eq!(r.rows.len(), rows, "{sql}");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        server.admitted_peak() <= server.max_concurrent(),
        "admission exceeded the knob: {} > {}",
        server.admitted_peak(),
        server.max_concurrent()
    );
    // 2 CREATEs + 3 warm-up queries + 8×32 concurrent queries.
    assert_eq!(server.admitted_total(), 261);
    server.metrics().snapshot()
}

#[test]
fn server_stress_is_deadlock_free_and_deterministic() {
    let narrow = stress_snapshot(1);
    let wide = stress_snapshot(4);
    // Every integer counter — including the cache hit/miss totals, which
    // single-flight fills make exact — must agree across worker widths.
    assert_eq!(
        narrow.counters, wide.counters,
        "counters depend on worker-thread count"
    );
    // Float aggregates are sums of the same deterministic per-statement
    // values, but client threads finish in arbitrary order and float
    // addition is not associative; allow last-bit wobble only.
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    assert_eq!(narrow.gauges.len(), wide.gauges.len());
    for (k, a) in &narrow.gauges {
        assert!(
            close(*a, wide.gauges[k]),
            "{k:?}: {a} vs {}",
            wide.gauges[k]
        );
    }
    assert_eq!(narrow.histograms.len(), wide.histograms.len());
    for (k, a) in &narrow.histograms {
        let b = &wide.histograms[k];
        assert_eq!((a.count, a.min, a.max), (b.count, b.min, b.max), "{k:?}");
        assert!(close(a.sum, b.sum), "{k:?}: {} vs {}", a.sum, b.sum);
    }
}

/// The plan cache is an observability no-op below its own counters: the
/// same stress stream with caching on must produce byte-identical
/// execution counters (plans are reused, never changed), deterministic
/// hit/miss totals, and snapshot determinism across worker widths.
#[test]
fn plan_cache_keeps_execution_counters_and_determinism() {
    let cached_narrow = stress_snapshot_conf(1, true);
    let cached_wide = stress_snapshot_conf(4, true);
    assert_eq!(
        cached_narrow.counters, cached_wide.counters,
        "plan-cached counters depend on worker-thread count"
    );
    // Warm-up compiles the 3 distinct statements; all 8×32 concurrent
    // replays hit — no mutation moves either generation counter.
    assert_eq!(cached_narrow.counter("plan_cache.miss", &[]), Some(3));
    assert_eq!(cached_narrow.counter("plan_cache.hit", &[]), Some(256));
    let uncached = stress_snapshot(1);
    let execution_only = |s: &hive::obs::MetricsSnapshot| {
        s.counters
            .iter()
            .filter(|(k, _)| !k.name.starts_with("plan_cache."))
            .map(|(k, v)| (k.clone(), *v))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        execution_only(&cached_narrow),
        execution_only(&uncached),
        "a cached plan must execute exactly like a freshly compiled one"
    );
}

/// Every metric series the registry holds: counters, gauges, histograms.
fn series_count(hive: &HiveSession) -> usize {
    let snap = hive.metrics_snapshot();
    snap.counters.len() + snap.gauges.len() + snap.histograms.len()
}

#[test]
fn registry_series_stay_bounded_by_plan_shape() {
    // Each lookup carries its own literals (predicate and LIMIT), so a
    // registry labeled by operator display names would grow with every
    // statement. Labels are literal-free: after the first two lookups the
    // series count must not move.
    let lookup = |i: i64| {
        format!(
            "SELECT okey, total FROM orders WHERE okey = {} LIMIT {}",
            i * 17 + 3,
            i + 1
        )
    };
    let mut hive = session(2);
    load_tpch_style(&mut hive);
    let mut after_two = 0;
    for i in 0..200 {
        assert_eq!(hive.execute(&lookup(i)).unwrap().rows.len(), 1);
        if i == 1 {
            after_two = series_count(&hive);
        }
    }
    assert_eq!(series_count(&hive), after_two);
    // EXPLAIN ANALYZE and the trace keep the full display name.
    let text = hive
        .execute(&format!("EXPLAIN ANALYZE {}", lookup(7)))
        .unwrap()
        .explain
        .unwrap();
    assert!(
        text.contains("VectorFilter[") && text.contains("122)"),
        "{text}"
    );
    assert!(text.contains("LimitOperator(8)"), "{text}");
    let trace = hive.execute(&lookup(7)).unwrap().metrics.trace.render();
    assert!(
        trace.contains("VectorFilter[") && trace.contains("122)"),
        "{trace}"
    );
}

/// Random filter / group-by statements: a map-side filter + aggregate, a
/// map-only multi-predicate scan, and a reduce-side join whose one map
/// phase filters both inputs (two `VectorFilter`s sharing a series).
fn conservation_query(shape: usize, a: i64, b: i64) -> String {
    match shape {
        0 => format!("SELECT cust, COUNT(*) AS n FROM orders WHERE total > {a} GROUP BY cust"),
        1 => format!("SELECT okey, total FROM orders WHERE total > {a} AND cust < {b}"),
        _ => format!(
            "SELECT orders.cust, COUNT(*) AS n, SUM(orders.total) AS rev \
             FROM orders JOIN customer ON (orders.cust = customer.cust) \
             WHERE orders.total > {a} AND customer.cust < {b} GROUP BY orders.cust"
        ),
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

    #[test]
    fn operator_series_conserve_profile_totals(
        queries in proptest::collection::vec((0usize..3, -10i64..130, 0i64..100), 1..6),
    ) {
        // Every `(job, phase, op)` registry series must equal the sum of the
        // matching operator profiles over the statements' reports: merging
        // literal-bearing names into one label drops nothing and counts
        // nothing twice.
        let mut hive = session(2);
        hive.try_set("hive.auto.convert.join", "false").unwrap();
        load_tpch_style(&mut hive);
        let mut expected = std::collections::BTreeMap::new();
        for (shape, a, b) in queries {
            let report = hive.execute(&conservation_query(shape, a, b)).unwrap().report;
            for jr in &report.jobs {
                for (phase, ops) in [("map", &jr.map_operators), ("reduce", &jr.reduce_operators)] {
                    if shape == 2 && phase == "map" {
                        let filters = ops.iter().filter(|p| p.label == "VectorFilter").count();
                        proptest::prop_assert_eq!(filters, 2);
                    }
                    for p in ops {
                        for (name, v) in [
                            ("operator.rows_in", p.rows_in),
                            ("operator.rows_out", p.rows_out),
                            ("operator.cpu_ns", p.cpu_ns),
                        ] {
                            let key = [name, &jr.name, phase, &p.label].map(String::from);
                            *expected.entry(key).or_insert(0u64) += v;
                        }
                    }
                }
            }
        }
        let snap = hive.metrics_snapshot();
        let actual: std::collections::BTreeMap<_, _> = snap
            .counters
            .iter()
            .filter(|(k, _)| k.name.starts_with("operator."))
            .map(|(k, v)| {
                let key = [&k.name, &k.labels["job"], &k.labels["phase"], &k.labels["op"]];
                (key.map(String::clone), *v)
            })
            .collect();
        proptest::prop_assert_eq!(actual, expected);
    }
}

#[test]
fn unknown_knob_errors_carry_suggestions() {
    let mut hive = HiveSession::in_memory();
    let err = hive
        .try_set("hive.exec.paralel", "true")
        .map(|_| ())
        .unwrap_err();
    match &err {
        HiveError::UnknownKnob { key, suggestions } => {
            assert_eq!(key, "hive.exec.paralel");
            assert!(
                suggestions.iter().any(|s| s == "hive.exec.parallel"),
                "{suggestions:?}"
            );
        }
        other => panic!("expected UnknownKnob, got {other}"),
    }
    assert!(err.to_string().contains("did you mean"), "{err}");
    // Deleted knobs are unknown, not silently accepted.
    for key in [
        "hive.vectorized.execution.acid.enabled",
        "dfs.block.size",
        "dfs.replication",
        "mapreduce.cluster.nodes",
        "mapreduce.cluster.slots.per.node",
        "hive.vectorized.execution.filter.enabled",
        "hive.vectorized.execution.select.enabled",
        "hive.vectorized.execution.groupby.enabled",
        "hive.vectorized.execution.reducesink.enabled",
        "hive.orc.replica.selection.enabled",
        "hive.orc.cache.metadata",
        "hive.server.wm.preemption.enabled",
        "hive.server.wm.preemption.limit",
    ] {
        assert!(
            matches!(
                hive.try_set(key, "1").map(|_| ()),
                Err(HiveError::UnknownKnob { .. })
            ),
            "{key}"
        );
    }
}

#[test]
fn ill_typed_and_out_of_range_knobs_are_rejected() {
    let mut hive = HiveSession::in_memory();
    assert!(hive.try_set("hive.exec.worker.threads", "lots").is_err());
    assert!(hive.try_set("dfs.fault.read.error.rate", "1.5").is_err());
    assert!(hive
        .try_set("hive.exec.orc.default.compress", "brotli")
        .is_err());
    // The unvalidated legacy shim defers the failure to the next statement.
    hive.set("hive.exec.worker.threads", "lots");
    let err = hive.execute("SHOW TABLES").unwrap_err();
    assert!(
        err.to_string().contains("hive.exec.worker.threads"),
        "{err}"
    );
}

#[test]
fn readme_knob_table_matches_registry() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md");
    let readme = std::fs::read_to_string(&path).expect("README.md readable");
    let begin_marker = "<!-- BEGIN GENERATED KNOB TABLE";
    let end_marker = "<!-- END GENERATED KNOB TABLE -->";
    let begin = readme.find(begin_marker).expect("README has begin marker");
    let begin = begin + readme[begin..].find('\n').unwrap() + 1;
    let end = readme.find(end_marker).expect("README has end marker");
    let expected = knob_table_markdown();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        let updated = format!(
            "{}{}\n{}",
            &readme[..begin],
            expected.trim_end(),
            &readme[end..]
        );
        std::fs::write(&path, updated).unwrap();
        return;
    }
    let region = readme[begin..end].trim_end();
    assert_eq!(
        region,
        expected.trim_end(),
        "README knob table drifted from the registry; run \
         UPDATE_GOLDENS=1 cargo test --test metrics to regenerate"
    );
}
