//! `HiveServer`: a long-lived, `Send + Sync` serving process in the
//! HiveServer2 mold — one shared metastore, one shared DFS (with its block
//! cache), one shared metrics registry, typed-knob defaults with per-query
//! overrides, and a [`WorkloadManager`] in front of execution: per-tenant
//! resource pools with FIFO-fair queues, work-conserving borrowing, and
//! cooperative preemption (`hive.server.wm.*`). With no resource plan
//! configured the manager is a single `default` pool sized by
//! `hive.server.max.concurrent.queries` — the old admission semaphore,
//! minus its wakeup barging.
//!
//! A [`HiveSession`] is a thin per-client overlay: its own mutable
//! `HiveConf` (for `SET key=value`) on top of a shared server. Every
//! statement — from the server directly or through a session — passes
//! through admission control; preempted statements are re-queued at the
//! front of their pool and re-run from scratch, so callers only ever see
//! complete results.

use crate::driver::{run_statement, QueryResult, StatementCtx};
use crate::metastore::Metastore;
use crate::plan_cache::PlanCache;
use crate::session::HiveSession;
use crate::wm::{Requeue, ResourcePlan, WorkloadManager};
use hive_common::config::keys;
use hive_common::{HiveConf, HiveError, Result};
use hive_dfs::Dfs;
use hive_obs::MetricsRegistry;
use std::sync::Arc;

struct ServerInner {
    dfs: Dfs,
    defaults: HiveConf,
    metastore: Metastore,
    metrics: MetricsRegistry,
    wm: WorkloadManager,
    plan_cache: PlanCache,
    /// Per-table write locks for ACID DML and compaction.
    txn: crate::acid::TxnManager,
}

/// A long-lived Hive serving process. Cheap to clone (shared state); safe
/// to share across threads.
///
/// ```
/// use hive_core::HiveServer;
/// use hive_common::{Row, Value};
///
/// let server = HiveServer::in_memory();
/// let mut session = server.new_session();
/// session.execute("CREATE TABLE t (k BIGINT) STORED AS orc").unwrap();
/// session.load_rows("t", (0..10).map(|i| Row::new(vec![Value::Int(i)]))).unwrap();
/// // Queries can also run straight against the server, concurrently.
/// let r = server.execute("SELECT COUNT(*) FROM t").unwrap();
/// assert_eq!(r.rows[0][0], Value::Int(10));
/// ```
#[derive(Clone)]
pub struct HiveServer {
    inner: Arc<ServerInner>,
}

// The whole point of the server: one process, many querying threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HiveServer>();
};

impl HiveServer {
    /// Bring up a server from validated parts (the session builder's
    /// `build_server` is the public entry point).
    pub(crate) fn from_parts(
        dfs: Dfs,
        defaults: HiveConf,
        metrics: MetricsRegistry,
    ) -> Result<HiveServer> {
        defaults.validate()?;
        // The resource plan and plan-cache capacity are process state,
        // resolved once from the server defaults; sessions cannot resize
        // pools mid-flight (they *can* opt statements in and out of the
        // plan cache, which only gates participation).
        let wm = WorkloadManager::new(ResourcePlan::from_conf(&defaults)?);
        let plan_cache = PlanCache::new(defaults.get_i64(keys::PLAN_CACHE_SIZE)? as usize);
        // The block cache's byte budget is process state, sized once here
        // from the server defaults. Per-session / per-query
        // `hive.io.cache.bytes` values only opt a statement in or out of
        // the shared cache (0 = bypass); they never resize it, so
        // concurrent statements cannot clobber each other's budget.
        dfs.set_cache_capacity(defaults.get_i64(keys::IO_CACHE_BYTES)? as u64);
        let metastore = Metastore::new(dfs.clone());
        Ok(HiveServer {
            inner: Arc::new(ServerInner {
                dfs,
                defaults,
                metastore,
                metrics,
                wm,
                plan_cache,
                txn: crate::acid::TxnManager::new(),
            }),
        })
    }

    /// A server over a fresh simulated cluster with paper-like defaults.
    pub fn in_memory() -> HiveServer {
        HiveSession::builder()
            .build_server()
            .expect("default server configuration is valid")
    }

    /// A new session against this server: shared metastore, DFS, caches and
    /// metrics; private copy of the server defaults for `SET` overrides.
    pub fn new_session(&self) -> HiveSession {
        HiveSession::over(self.clone(), self.inner.defaults.clone())
    }

    /// Execute one statement under the server defaults.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_conf(sql, &self.inner.defaults)
    }

    /// Execute one statement with validated per-query knob overrides on top
    /// of the server defaults.
    pub fn execute_with(&self, sql: &str, overrides: &[(&str, &str)]) -> Result<QueryResult> {
        let mut conf = self.inner.defaults.clone();
        for (k, v) in overrides {
            conf.try_set(k, *v)?;
        }
        self.execute_conf(sql, &conf)
    }

    /// The single execution path: every statement, whichever front door it
    /// came through, takes a slot in its resource pool first. A statement
    /// the workload manager preempts mid-flight is re-queued at the front
    /// of its pool (original ticket, preemption count bumped) and re-run
    /// from scratch — the caller never sees `Preempted`, only the final
    /// complete result.
    pub(crate) fn execute_conf(&self, sql: &str, conf: &HiveConf) -> Result<QueryResult> {
        let inner = &*self.inner;
        let wm = &inner.wm;
        let pool = wm.resolve_pool(conf);
        let wm_mode = wm.plan().configured();
        let cache_on = conf.get_bool(keys::PLAN_CACHE_ENABLED)?;
        let mut requeue: Option<Requeue> = None;
        loop {
            let grant = wm.admit(pool, requeue.take());
            if wm_mode {
                let labels = &[("pool", wm.pool_name(pool))];
                inner.metrics.counter_with("wm.admitted", labels).inc();
                if grant.queued {
                    inner.metrics.counter_with("wm.queued", labels).inc();
                }
            }
            let ctx = StatementCtx {
                cancel: Some(&grant.cancel),
                pool: wm_mode.then(|| wm.pool_name(pool)),
                queued: grant.queued,
                queue_wait_s: grant.queue_wait_s,
                plan_cache: cache_on.then_some(&inner.plan_cache),
                txn: Some(&inner.txn),
            };
            let result = run_statement(
                sql,
                &inner.dfs,
                conf,
                &inner.metastore,
                &inner.metrics,
                &ctx,
            );
            match result {
                Err(HiveError::Preempted(_)) => {
                    // Drop any claim on the slot, then loop back into the
                    // pool queue. `wm_mode` is a precondition of firing a
                    // preemption, so the legacy path never gets here.
                    requeue = Some(wm.release_preempted(&grant));
                    if wm_mode {
                        let labels = &[("pool", wm.pool_name(pool))];
                        inner.metrics.counter_with("wm.preempted", labels).inc();
                    }
                }
                result => {
                    wm.release(&grant);
                    return result;
                }
            }
        }
    }

    /// The server-wide knob defaults.
    pub fn defaults(&self) -> &HiveConf {
        &self.inner.defaults
    }

    pub fn dfs(&self) -> &Dfs {
        &self.inner.dfs
    }

    pub fn metastore(&self) -> &Metastore {
        &self.inner.metastore
    }

    /// The shared metrics registry all sessions record into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The admission layer: resource pools, queues, preemption counters.
    pub fn workload_manager(&self) -> &WorkloadManager {
        &self.inner.wm
    }

    /// The process-wide prepared-plan cache (participation is per
    /// statement via `hive.query.plan.cache.enabled`).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.inner.plan_cache
    }

    /// Total concurrency slots: `hive.server.max.concurrent.queries` when
    /// no resource plan is configured, else the sum of pool shares.
    pub fn max_concurrent(&self) -> u64 {
        self.inner.wm.total_slots()
    }

    /// High-water mark of concurrently admitted statements.
    pub fn admitted_peak(&self) -> u64 {
        self.inner.wm.admitted_peak()
    }

    /// Total statements admitted since the server came up (a preempted
    /// statement's re-run counts as another admission).
    pub fn admitted_total(&self) -> u64 {
        self.inner.wm.admitted_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn concurrent_queries_respect_the_admission_knob() {
        let server = HiveSession::builder()
            .set("hive.server.max.concurrent.queries", "3")
            .unwrap()
            .build_server()
            .unwrap();
        {
            let mut s = server.new_session();
            s.execute("CREATE TABLE t (k BIGINT, v BIGINT) STORED AS orc")
                .unwrap();
            s.load_rows(
                "t",
                (0..500).map(|i| {
                    hive_common::Row::new(vec![
                        hive_common::Value::Int(i % 7),
                        hive_common::Value::Int(i),
                    ])
                }),
            )
            .unwrap();
        }
        let mut handles = Vec::new();
        for _ in 0..8 {
            let srv = server.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..4 {
                    let r = srv
                        .execute("SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k")
                        .unwrap();
                    assert_eq!(r.rows.len(), 7);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(server.admitted_peak() <= 3, "{}", server.admitted_peak());
        // CREATE TABLE + 32 queries (load_rows writes directly, no statement).
        assert_eq!(server.admitted_total(), 33);
    }

    #[test]
    fn per_query_overrides_do_not_leak_into_defaults() {
        let server = HiveServer::in_memory();
        let mut s = server.new_session();
        s.execute("CREATE TABLE t (k BIGINT) STORED AS orc")
            .unwrap();
        s.load_rows(
            "t",
            (0..10).map(|i| hive_common::Row::new(vec![hive_common::Value::Int(i)])),
        )
        .unwrap();
        let before = server
            .defaults()
            .get_raw("hive.vectorized.execution.enabled");
        let r = server
            .execute_with(
                "SELECT COUNT(*) FROM t",
                &[("hive.vectorized.execution.enabled", "false")],
            )
            .unwrap();
        assert_eq!(r.rows[0][0], hive_common::Value::Int(10));
        assert!(server
            .execute_with("SELECT COUNT(*) FROM t", &[("hive.not.a.knob", "1")])
            .is_err());
        // Defaults untouched by either call.
        assert_eq!(
            server
                .defaults()
                .get_raw("hive.vectorized.execution.enabled"),
            before
        );
    }

    #[test]
    fn sessions_map_to_pools_by_user() {
        let server = HiveSession::builder()
            .set("hive.server.wm.plan", "etl:share=2;fast:share=1,priority=5")
            .unwrap()
            .set("hive.server.wm.mapping", "ann=fast;*=etl")
            .unwrap()
            .build_server()
            .unwrap();
        let wm = server.workload_manager();
        assert_eq!(server.max_concurrent(), 3);
        let ann = server.defaults().clone().with("hive.session.user", "ann");
        assert_eq!(wm.pool_name(wm.resolve_pool(&ann)), "fast");
        let bob = server.defaults().clone().with("hive.session.user", "bob");
        assert_eq!(wm.pool_name(wm.resolve_pool(&bob)), "etl");
    }

    #[test]
    fn invalid_resource_plan_fails_at_startup() {
        let err = HiveSession::builder()
            .set("hive.server.wm.plan", "etl:share=0")
            .unwrap()
            .build_server()
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("share"), "{err}");
    }
}
