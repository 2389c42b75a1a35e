//! The MapReduce engine: real execution + simulated cluster timing.

use crate::cost::{CostModel, TaskWork};
use crate::job::{JobInput, JobOutput, JobSpec, ReducePipelineFactory, SideInput};
use hive_common::{config::keys, CancelToken, HiveConf, HiveError, Result, Row, Value};
use hive_dfs::{Dfs, IoScope, IoSnapshot};
use hive_exec::graph::{Message, ShuffleRecord};
use hive_formats::{open_reader, ReadOptions, TableWriter};
use hive_obs::profile::merge_profiles;
use hive_obs::{ExecCounters, OpProfile, ScanProfile, TaskPhase, TaskTrace};
use hive_vector::VectorizedRowBatch;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-row CPU charge substituted for measured wall-clock CPU when
/// `hive.exec.sim.deterministic.cpu` is on, making simulated times
/// bit-identical across runs regardless of host load or worker count.
const DETERMINISTIC_CPU_S_PER_ROW: f64 = 2.0e-6;

/// Execution summary of one job.
///
/// All additive counters live in one [`ExecCounters`] block (reachable
/// through `Deref`, so `report.cpu_seconds` still reads naturally);
/// [`DagReport::accumulate_job`] is a derived field-wise merge instead of
/// a hand-maintained per-field sum. The report also carries the job's
/// observability payload: merged per-operator profiles, the input-side
/// scan profile, and one [`TaskTrace`] per task.
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    pub name: String,
    pub map_tasks: usize,
    pub reduce_tasks: usize,
    /// Simulated elapsed seconds of the Map phase (incl. startup waves).
    pub sim_map_s: f64,
    /// Simulated elapsed seconds of shuffle + Reduce.
    pub sim_reduce_s: f64,
    pub sim_total_s: f64,
    /// Additive execution counters (CPU, bytes, attempts, ...).
    pub counters: ExecCounters,
    /// Input-side scan profile: reader rows/batches, vectorized
    /// selected-lane flow, ORC stripe/index-group pruning.
    pub scan: ScanProfile,
    /// Map-side operator profiles, merged across tasks by operator index.
    pub map_operators: Vec<OpProfile>,
    /// Reduce-side operator profiles, merged across tasks.
    pub reduce_operators: Vec<OpProfile>,
    /// One record per task (map then reduce, by index): winning node,
    /// attempts launched, simulated duration.
    pub tasks: Vec<TaskTrace>,
    /// Replica-aware split planning decisions: one
    /// `(path, variant, sort column)` per input file the planner steered
    /// to a sorted copy instead of the base replica.
    pub replica_choices: Vec<(String, usize, String)>,
}

impl Deref for JobReport {
    type Target = ExecCounters;
    fn deref(&self) -> &ExecCounters {
        &self.counters
    }
}

impl DerefMut for JobReport {
    fn deref_mut(&mut self) -> &mut ExecCounters {
        &mut self.counters
    }
}

/// One finished job: its report and collected output rows.
type JobRun = (JobReport, Vec<Row>);

/// Execution summary of a job DAG (one query). Counters are the
/// field-wise sum of every job's [`ExecCounters`] (so `rows_out` counts
/// every job's output rows, including intermediate ones).
#[derive(Debug, Clone, Default)]
pub struct DagReport {
    pub jobs: Vec<JobReport>,
    pub sim_total_s: f64,
    /// Additive counters summed over all jobs.
    pub counters: ExecCounters,
    /// Nodes blacklisted from replica selection during this DAG (sorted).
    pub blacklisted_nodes: Vec<usize>,
}

impl Deref for DagReport {
    type Target = ExecCounters;
    fn deref(&self) -> &ExecCounters {
        &self.counters
    }
}

impl DerefMut for DagReport {
    fn deref_mut(&mut self) -> &mut ExecCounters {
        &mut self.counters
    }
}

/// The engine. Jobs execute for real; elapsed time is simulated.
pub struct MrEngine {
    pub dfs: Dfs,
    pub conf: HiveConf,
    pub cost: CostModel,
    /// Retryable failures attributed to each node; nodes past
    /// `mapred.max.tracker.failures` are excluded from replica selection,
    /// like Hadoop's tracker blacklist.
    node_failures: Mutex<HashMap<usize, u32>>,
    /// Cooperative preemption handle installed by the workload manager.
    /// Polled between jobs, between task claims, and at the top of every
    /// attempt; `None` (the default) means the statement is not
    /// preemptible and execution is exactly as before.
    cancel: Option<Arc<CancelToken>>,
}

// `run_dag` shares `&MrEngine` across job-runner threads.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<MrEngine>();
};

/// One input split: a byte range of one file, with its replica nodes.
/// Attempt 0 runs data-local on the first replica; retries rotate through
/// the remaining (non-blacklisted) replicas.
struct Split<'a> {
    input: &'a JobInput,
    path: String,
    start: u64,
    end: u64,
    replicas: Vec<usize>,
    /// Which stored copy of the file to read (`0` = base; higher values
    /// name per-replica sorted copies picked by replica-aware planning).
    variant: usize,
}

/// Retry budget for one task kind, from `mapred.*.max.attempts`.
struct RetryPolicy {
    max_attempts: u32,
    /// Base of the exponential sim-time backoff between attempts.
    backoff_s: f64,
}

/// What came out of running one task through the attempt loop: the final
/// result plus everything the failed attempts cost.
struct TaskOutcome<T> {
    result: Result<T>,
    attempts: u32,
    /// I/O burned by failed attempts (the winner's I/O is in `result`).
    failed_io: IoSnapshot,
    /// Wall-clock burned by failed attempts.
    failed_wall_s: f64,
    /// Accumulated exponential backoff, in simulated seconds.
    backoff_s: f64,
}

impl<T> TaskOutcome<T> {
    fn worker_died() -> TaskOutcome<T> {
        TaskOutcome {
            result: Err(HiveError::TaskFailed("task worker thread died".into())),
            attempts: 1,
            failed_io: IoSnapshot::default(),
            failed_wall_s: 0.0,
            backoff_s: 0.0,
        }
    }
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("task panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("task panicked: {s}")
    } else {
        "task panicked".into()
    }
}

/// What one map task hands back to the engine. Everything a task produces
/// or measures is task-local; the engine merges results deterministically
/// by task index after the map barrier, so the outcome is independent of
/// worker interleaving.
struct MapTaskResult {
    /// Task-local partition buffers, one per reducer (empty for map-only).
    partitions: Vec<Vec<ShuffleRecord>>,
    /// Rows bound for the client (map-only `Collect` jobs).
    task_out: Vec<Row>,
    written: u64,
    /// I/O attributed to this task via its [`IoScope`].
    io: IoSnapshot,
    cpu_seconds: f64,
    shuffle_records: u64,
    /// Node the winning attempt ran on.
    node: usize,
    /// Rows the reader dropped under corrupt-data degradation.
    rows_skipped: u64,
    /// Per-operator profiles of this task's operator graph.
    op_profiles: Vec<OpProfile>,
    /// Input-side scan profile (reader + vectorized pipeline).
    scan: ScanProfile,
}

/// What one reduce task hands back to the engine.
struct ReduceTaskResult {
    task_out: Vec<Row>,
    written: u64,
    io: IoSnapshot,
    cpu_seconds: f64,
    shuffle_bytes: u64,
    /// Per-operator profiles of this task's operator graph.
    op_profiles: Vec<OpProfile>,
}

impl MrEngine {
    pub fn new(dfs: Dfs, conf: HiveConf) -> MrEngine {
        MrEngine {
            dfs,
            conf,
            cost: CostModel::default(),
            node_failures: Mutex::new(HashMap::new()),
            cancel: None,
        }
    }

    /// Make this engine preemptible: execution polls `cancel` at its
    /// checkpoints and unwinds with [`HiveError::Preempted`] once the
    /// workload manager fires it.
    pub fn with_cancel(mut self, cancel: Arc<CancelToken>) -> MrEngine {
        self.cancel = Some(cancel);
        self
    }

    /// Cooperative cancellation checkpoint (no-op without a token).
    fn checkpoint(&self) -> Result<()> {
        match &self.cancel {
            Some(c) => c.check(),
            None => Ok(()),
        }
    }

    /// Worker threads used to run one job's tasks. `hive.exec.worker.threads`
    /// of `0` means one per core the host exposes.
    pub fn worker_threads(&self) -> usize {
        match self.conf.get_usize(keys::EXEC_WORKER_THREADS) {
            Ok(n) if n > 0 => n,
            _ => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        }
    }

    fn deterministic_cpu(&self) -> bool {
        self.conf
            .get_bool(keys::EXEC_SIM_DETERMINISTIC_CPU)
            .unwrap_or(false)
    }

    /// CPU seconds charged to the cost model for one task.
    fn task_cpu(&self, measured_s: f64, rows_processed: u64) -> f64 {
        if self.deterministic_cpu() {
            rows_processed as f64 * DETERMINISTIC_CPU_S_PER_ROW
        } else {
            measured_s
        }
    }

    /// Operator profiles with measured CPU replaced by the deterministic
    /// per-row constant when `hive.exec.sim.deterministic.cpu` is on, so
    /// `EXPLAIN ANALYZE` output is bit-identical across runs and
    /// worker-thread counts.
    fn finalize_profiles(&self, mut profiles: Vec<OpProfile>) -> Vec<OpProfile> {
        if self.deterministic_cpu() {
            for p in &mut profiles {
                p.cpu_ns = (p.rows_in as f64 * DETERMINISTIC_CPU_S_PER_ROW * 1e9) as u64;
            }
        }
        profiles
    }

    /// Per-phase retry budget from `mapred.{map,reduce}.max.attempts`.
    fn retry_policy(&self, attempts_key: &str) -> Result<RetryPolicy> {
        Ok(RetryPolicy {
            max_attempts: self.conf.get_usize(attempts_key)?.max(1) as u32,
            backoff_s: self.conf.get_f64(keys::TASK_RETRY_BACKOFF_S)?.max(0.0),
        })
    }

    /// Nodes a task may cause to fail before they stop being scheduled.
    fn tracker_failure_limit(&self) -> u32 {
        self.conf
            .get_usize(keys::MAX_TRACKER_FAILURES)
            .unwrap_or(3)
            .max(1) as u32
    }

    fn record_node_failure(&self, node: usize) {
        let mut failures = self.node_failures.lock().unwrap_or_else(|e| e.into_inner());
        *failures.entry(node).or_insert(0) += 1;
    }

    fn node_blacklisted(&self, node: usize) -> bool {
        let limit = self.tracker_failure_limit();
        self.node_failures
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&node)
            .is_some_and(|&c| c >= limit)
    }

    /// Nodes currently excluded from replica selection, sorted.
    pub fn blacklisted_nodes(&self) -> Vec<usize> {
        let limit = self.tracker_failure_limit();
        let failures = self.node_failures.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<usize> = failures
            .iter()
            .filter(|(_, &c)| c >= limit)
            .map(|(&n, _)| n)
            .collect();
        out.sort_unstable();
        out
    }

    /// The task-attempt loop: run one task under `catch_unwind`, retrying
    /// retryable failures (including panics, which Hadoop retries like any
    /// crashed task JVM) with exponential simulated backoff, up to the
    /// policy's budget. Never panics; never aborts the process.
    fn run_attempts<T, F>(&self, i: usize, policy: &RetryPolicy, run: &F) -> TaskOutcome<T>
    where
        F: Fn(usize, u32) -> Result<T> + Sync,
    {
        let mut failed_io = IoSnapshot::default();
        let mut failed_wall_s = 0.0;
        let mut backoff_s = 0.0;
        let mut attempt = 0u32;
        loop {
            // Preemption checkpoint: abandoning work between attempts (and
            // before the first — workers reach here on every task claim) is
            // always safe. `Preempted` is not retryable, so it falls through
            // the match below and unwinds the whole statement.
            if let Err(e) = self.checkpoint() {
                return TaskOutcome {
                    result: Err(e),
                    attempts: attempt.max(1),
                    failed_io,
                    failed_wall_s,
                    backoff_s,
                };
            }
            // A scope of our own so a *failed* attempt's I/O is still
            // attributed and priced (the bytes went over the wire before
            // the attempt died). The guard lives inside the closure so an
            // unwinding attempt drops it in LIFO order.
            let scope = IoScope::new();
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _g = scope.enter();
                run(i, attempt)
            }))
            .unwrap_or_else(|payload| Err(HiveError::TaskFailed(panic_message(payload.as_ref()))));
            match result {
                Err(e) if e.is_retryable() && attempt + 1 < policy.max_attempts => {
                    failed_io = failed_io.plus(&scope.snapshot());
                    failed_wall_s += t0.elapsed().as_secs_f64();
                    backoff_s += policy.backoff_s * (1u64 << attempt.min(16)) as f64;
                    attempt += 1;
                }
                result => {
                    return TaskOutcome {
                        result,
                        attempts: attempt + 1,
                        failed_io,
                        failed_wall_s,
                        backoff_s,
                    }
                }
            }
        }
    }

    /// Run `n` independent tasks on a bounded worker pool, each through the
    /// attempt loop, and return their outcomes in task-index order. Workers
    /// claim indices from a shared atomic counter; because results are
    /// re-assembled by index (and callers fail on the first failing index),
    /// the outcome is identical to running the tasks sequentially. A worker
    /// thread dying (impossible short of `abort`, since attempts are caught)
    /// surfaces as `TaskFailed` outcomes, never a process abort.
    fn run_tasks<T, F>(&self, n: usize, policy: &RetryPolicy, run: F) -> Vec<TaskOutcome<T>>
    where
        T: Send,
        F: Fn(usize, u32) -> Result<T> + Sync,
    {
        let threads = self.worker_threads().min(n).max(1);
        if threads == 1 {
            return (0..n).map(|i| self.run_attempts(i, policy, &run)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<TaskOutcome<T>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, AtomicOrdering::Relaxed);
                            if i >= n {
                                break;
                            }
                            out.push((i, self.run_attempts(i, policy, &run)));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                if let Ok(list) = h.join() {
                    for (i, r) in list {
                        slots[i] = Some(r);
                    }
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.unwrap_or_else(TaskOutcome::worker_died))
            .collect()
    }

    /// Run a query's jobs in dependency order; returns the final job's
    /// collected rows. With `hive.exec.parallel` off (Hive's default) jobs
    /// run one after another and simulated times add up, exactly as before.
    /// With it on, jobs are topologically staged by their intermediate
    /// input/output paths and independent jobs of a stage run concurrently;
    /// a stage's simulated time is the max over its jobs.
    pub fn run_dag(&self, jobs: &[JobSpec]) -> Result<(DagReport, Vec<Row>)> {
        let parallel = self.conf.get_bool(keys::EXEC_PARALLEL).unwrap_or(false);
        if !parallel || jobs.len() <= 1 {
            let mut report = DagReport::default();
            let mut last_rows = Vec::new();
            for spec in jobs {
                self.checkpoint()?; // between-jobs preemption checkpoint
                let (jr, rows) = self.run_job_caught(spec)?;
                report.sim_total_s += jr.sim_total_s;
                Self::accumulate_job(&mut report, &jr);
                report.jobs.push(jr);
                last_rows = rows;
            }
            report.blacklisted_nodes = self.blacklisted_nodes();
            return Ok((report, last_rows));
        }

        let stage_of = Self::stage_jobs(jobs);
        let max_stage = stage_of.iter().copied().max().unwrap_or(0);
        let mut results: Vec<Option<(JobReport, Vec<Row>)>> =
            (0..jobs.len()).map(|_| None).collect();
        for stage in 0..=max_stage {
            self.checkpoint()?; // between-stages preemption checkpoint
            let idxs: Vec<usize> = (0..jobs.len()).filter(|&j| stage_of[j] == stage).collect();
            if idxs.len() == 1 {
                results[idxs[0]] = Some(self.run_job_caught(&jobs[idxs[0]])?);
                continue;
            }
            let mut stage_results: Vec<(usize, Result<JobRun>)> = Vec::new();
            std::thread::scope(|s| {
                let handles: Vec<_> = idxs
                    .iter()
                    .map(|&j| (j, s.spawn(move || self.run_job_caught(&jobs[j]))))
                    .collect();
                for (j, h) in handles {
                    // `run_job_caught` converts panics, so a join error
                    // means the runner thread itself died — report it as a
                    // failed job instead of aborting the process.
                    let r = h.join().unwrap_or_else(|_| {
                        Err(HiveError::TaskFailed("job runner thread died".into()))
                    });
                    stage_results.push((j, r));
                }
            });
            // First failing job index wins, independent of thread timing.
            stage_results.sort_by_key(|(j, _)| *j);
            for (j, r) in stage_results {
                results[j] = Some(r?);
            }
        }

        let mut report = DagReport::default();
        let mut stage_sim = vec![0.0f64; max_stage + 1];
        let mut last_rows = Vec::new();
        for (j, res) in results.into_iter().enumerate() {
            let (jr, rows) = res.expect("every job ran in its stage");
            stage_sim[stage_of[j]] = stage_sim[stage_of[j]].max(jr.sim_total_s);
            Self::accumulate_job(&mut report, &jr);
            report.jobs.push(jr);
            last_rows = rows;
        }
        report.sim_total_s = stage_sim.iter().sum();
        report.blacklisted_nodes = self.blacklisted_nodes();
        Ok((report, last_rows))
    }

    /// Derived, not hand-maintained: every field of [`ExecCounters`] is
    /// summed by the macro-generated merge, so a counter added to the
    /// block aggregates here automatically.
    fn accumulate_job(report: &mut DagReport, jr: &JobReport) {
        report.counters.merge(&jr.counters);
    }

    /// [`run_job`](Self::run_job) with engine-level panics (outside the
    /// per-task `catch_unwind`) converted to `TaskFailed` errors.
    fn run_job_caught(&self, spec: &JobSpec) -> Result<JobRun> {
        catch_unwind(AssertUnwindSafe(|| self.run_job(spec)))
            .unwrap_or_else(|payload| Err(HiveError::TaskFailed(panic_message(payload.as_ref()))))
    }

    /// Topological stage of each job: a job reading another's intermediate
    /// output directory (as input or side input) lands in a later stage.
    fn stage_jobs(jobs: &[JobSpec]) -> Vec<usize> {
        let prefixes: Vec<Option<&str>> = jobs
            .iter()
            .map(|j| match &j.output {
                JobOutput::Intermediate { path_prefix } => Some(path_prefix.trim_end_matches('/')),
                JobOutput::Collect => None,
            })
            .collect();
        let mut stage_of = vec![0usize; jobs.len()];
        for j in 0..jobs.len() {
            for i in 0..j {
                let Some(prefix) = prefixes[i] else { continue };
                let dir = format!("{prefix}/");
                let depends = jobs[j]
                    .inputs
                    .iter()
                    .flat_map(|inp| &inp.paths)
                    .chain(jobs[j].side_inputs.iter().flat_map(|s| &s.paths))
                    .any(|p| p.starts_with(&dir) || p.trim_end_matches('/') == prefix);
                if depends {
                    stage_of[j] = stage_of[j].max(stage_of[i] + 1);
                }
            }
        }
        stage_of
    }

    /// Simulated duration of a winning map attempt.
    fn map_attempt_seconds(&self, res: &MapTaskResult, side_load_s: f64) -> f64 {
        let work = TaskWork {
            bytes_local: res.io.bytes_local,
            bytes_remote: res.io.bytes_remote,
            seeks: res.io.seeks,
            bytes_written: res.written,
            cpu_seconds: res.cpu_seconds,
            shuffle_records: res.shuffle_records,
            sim_penalty_s: res.io.sim_penalty_seconds(),
        };
        self.cost.task_seconds(&work) + side_load_s
    }

    /// Extra simulated time a task's failed attempts cost: each failed
    /// attempt pays startup + the I/O it burned before dying, then the
    /// exponential backoff before the next launch. CPU goes through
    /// [`task_cpu`](Self::task_cpu), so deterministic-CPU mode charges a
    /// failed attempt zero CPU (it processed no complete rows) and stays
    /// bit-reproducible.
    fn retry_overhead_seconds<T>(&self, outcome: &TaskOutcome<T>) -> f64 {
        let retries = outcome.attempts.saturating_sub(1) as f64;
        if retries == 0.0 {
            return 0.0;
        }
        let failed_work = TaskWork {
            bytes_local: outcome.failed_io.bytes_local,
            bytes_remote: outcome.failed_io.bytes_remote,
            seeks: outcome.failed_io.seeks,
            bytes_written: outcome.failed_io.bytes_written,
            cpu_seconds: self.task_cpu(outcome.failed_wall_s, 0),
            shuffle_records: 0,
            sim_penalty_s: outcome.failed_io.sim_penalty_seconds(),
        };
        self.cost.task_seconds(&failed_work)
            + (retries - 1.0) * self.cost.task_startup_s
            + outcome.backoff_s
    }

    /// Node for a map attempt: replicas not currently blacklisted, rotated
    /// by attempt number (attempt 0 = the data-local first replica, exactly
    /// the pre-fault-tolerance behaviour).
    fn pick_map_node(&self, split: &Split<'_>, attempt: u32) -> usize {
        let eligible: Vec<usize> = split
            .replicas
            .iter()
            .copied()
            .filter(|&n| !self.node_blacklisted(n))
            .collect();
        let pool: &[usize] = if eligible.is_empty() {
            &split.replicas
        } else {
            &eligible
        };
        if pool.is_empty() {
            return 0;
        }
        pool[attempt as usize % pool.len()]
    }

    /// Node for a speculative duplicate: prefer another replica that is not
    /// blacklisted and not a known straggler/dead node (the JobTracker
    /// knows its slow trackers), else any healthy node in the cluster.
    fn pick_speculative_node(&self, split: &Split<'_>, avoid: usize) -> Option<usize> {
        let plan = self.dfs.fault_plan();
        let bad = |n: usize| {
            n == avoid
                || self.node_blacklisted(n)
                || plan
                    .as_ref()
                    .is_some_and(|p| p.is_slow(n) || p.is_failing(n))
        };
        split
            .replicas
            .iter()
            .copied()
            .find(|&n| !bad(n))
            .or_else(|| (0..self.dfs.config().nodes).find(|&n| !bad(n)))
    }

    /// Execute one job; returns its report and (for `Collect` jobs) rows.
    pub fn run_job(&self, spec: &JobSpec) -> Result<(JobReport, Vec<Row>)> {
        let mut report = JobReport {
            name: spec.name.clone(),
            ..Default::default()
        };
        let map_policy = self.retry_policy(keys::MAP_MAX_ATTEMPTS)?;

        // --- Side inputs (distributed cache), retried like a task ------
        // (a transient DFS fault while building the cache must not kill
        // the query). Scoped attribution instead of global snapshot
        // deltas: another job may be running concurrently on this DFS
        // (`hive.exec.parallel`).
        let side_outcome = self.run_attempts(0, &map_policy, &|_i, _attempt| {
            let scope = IoScope::new();
            let loaded = {
                let _g = scope.enter();
                self.load_side_inputs(&spec.side_inputs)?
            };
            Ok((loaded, scope.snapshot()))
        });
        report.task_retries += side_outcome.attempts.saturating_sub(1) as u64;
        let side_delay_s = self.retry_overhead_seconds(&side_outcome);
        let ((side, side_rows_skipped), side_io) = side_outcome.result?;
        report.rows_skipped += side_rows_skipped;
        // Every map task re-reads the cached hash-table input locally.
        let side_load_s = side_io.bytes_read() as f64 / self.cost.local_read_bw;
        report.bytes_read += side_io.bytes_read();

        // --- Plan splits. ----------------------------------------------
        let (splits, replica_choices) = self.compute_splits(&spec.inputs)?;
        report.replica_choices = replica_choices;
        report.map_tasks = splits.len();
        let num_reducers = if spec.reduce_factory.is_some() {
            spec.num_reducers.max(1)
        } else {
            0
        };

        // --- Map phase: all tasks on the worker pool. ------------------
        // Each task builds its own pipeline and writes into task-local
        // partition buffers; the merge below is ordered by task index, so
        // results are identical whatever the worker interleaving was.
        let outcomes = self.run_tasks(splits.len(), &map_policy, |task_idx, attempt| {
            let node = self.pick_map_node(&splits[task_idx], attempt);
            let result =
                self.run_map_task(spec, &splits[task_idx], task_idx, node, &side, num_reducers);
            if let Err(e) = &result {
                // Environmental failures count against the node; panics
                // and deterministic errors are the task's own fault.
                if matches!(e, HiveError::Transient(_) | HiveError::Corrupt(_)) {
                    self.record_node_failure(node);
                }
            }
            result
        });

        // First failing task index wins, independent of worker timing.
        let mut winners: Vec<(MapTaskResult, TaskOutcome<()>)> = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            let TaskOutcome {
                result,
                attempts,
                failed_io,
                failed_wall_s,
                backoff_s,
            } = outcome;
            let meta = TaskOutcome {
                result: Ok(()),
                attempts,
                failed_io,
                failed_wall_s,
                backoff_s,
            };
            winners.push((result?, meta));
        }
        let mut map_durations: Vec<f64> = winners
            .iter()
            .map(|(res, meta)| {
                self.map_attempt_seconds(res, side_load_s) + self.retry_overhead_seconds(meta)
            })
            .collect();

        // --- Speculative execution (map phase only). -------------------
        // Tasks past `threshold × median` duration get one duplicate
        // attempt on another node, launched (in simulated time) when the
        // straggle is detected; whichever attempt finishes first in
        // simulated time wins. Both attempts process the same split with
        // the same deterministic pipeline, so the winning result is
        // byte-identical either way and the index-ordered merge below is
        // unaffected — speculation can only change *timing*, never output.
        let speculate = self.conf.get_bool(keys::EXEC_SPECULATIVE)? && winners.len() >= 2;
        let mut speculative_launched = 0u64;
        let mut speculative_cpu_s = 0.0;
        let mut speculative_bytes = 0u64;
        if speculate {
            let threshold = self
                .conf
                .get_f64(keys::EXEC_SPECULATIVE_THRESHOLD)?
                .max(1.0);
            let mut sorted = map_durations.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
            let median = sorted[sorted.len() / 2];
            for i in 0..winners.len() {
                // Preemption checkpoint: don't launch new speculative
                // duplicates for a statement that is being cancelled.
                self.checkpoint()?;
                if median <= 0.0 || map_durations[i] <= threshold * median {
                    continue;
                }
                let avoid = winners[i].0.node;
                let Some(alt) = self.pick_speculative_node(&splits[i], avoid) else {
                    continue;
                };
                speculative_launched += 1;
                let duplicate = catch_unwind(AssertUnwindSafe(|| {
                    self.run_map_task(spec, &splits[i], i, alt, &side, num_reducers)
                }))
                .unwrap_or_else(|payload| {
                    Err(HiveError::TaskFailed(panic_message(payload.as_ref())))
                });
                if let Ok(dup) = duplicate {
                    // The duplicate launches once the straggle is evident.
                    let launch_at = threshold * median;
                    let dup_done = launch_at + self.map_attempt_seconds(&dup, side_load_s);
                    speculative_cpu_s += dup.cpu_seconds;
                    speculative_bytes += dup.io.bytes_read();
                    if dup_done < map_durations[i] {
                        map_durations[i] = dup_done;
                        winners[i].0 = dup;
                    }
                }
            }
        }

        // --- Deterministic merge by task index. ------------------------
        // Map-only jobs allocate no partition buffers at all.
        let mut partitions: Vec<Vec<ShuffleRecord>> =
            (0..num_reducers).map(|_| Vec::new()).collect();
        let mut collected: Vec<Row> = Vec::new();
        for (i, (res, meta)) in winners.into_iter().enumerate() {
            for (p, mut recs) in res.partitions.into_iter().enumerate() {
                partitions[p].append(&mut recs);
            }
            collected.extend(res.task_out);
            report.cpu_seconds += res.cpu_seconds + self.task_cpu(meta.failed_wall_s, 0);
            report.bytes_read += res.io.bytes_read() + meta.failed_io.bytes_read();
            report.bytes_written += res.written;
            report.shuffle_records += res.shuffle_records;
            report.rows_skipped += res.rows_skipped;
            report.task_attempts += meta.attempts as u64;
            report.task_retries += meta.attempts.saturating_sub(1) as u64;
            merge_profiles(&mut report.map_operators, &res.op_profiles);
            report.scan.merge(&res.scan);
            report.tasks.push(TaskTrace {
                phase: TaskPhase::Map,
                index: i,
                node: Some(res.node),
                attempts: meta.attempts,
                sim_s: map_durations[i],
            });
        }
        report.task_attempts += speculative_launched;
        report.speculative_tasks += speculative_launched;
        report.cpu_seconds += speculative_cpu_s;
        report.bytes_read += speculative_bytes;
        report.sim_map_s = self.cost.schedule(&map_durations) + side_delay_s;

        // --- Reduce phase: partitions fan out to the pool the same way. -
        let reduce_policy = self.retry_policy(keys::REDUCE_MAX_ATTEMPTS)?;
        let mut reduce_durations = Vec::new();
        if let Some(reduce_factory) = &spec.reduce_factory {
            report.reduce_tasks = num_reducers;
            let handoff: Vec<Mutex<Vec<ShuffleRecord>>> =
                partitions.into_iter().map(Mutex::new).collect();
            let reduce_outcomes = self.run_tasks(handoff.len(), &reduce_policy, |r, attempt| {
                // A retryable attempt gets a *clone* so a failed attempt
                // leaves the partition intact for the re-shuffle; the last
                // allowed attempt may consume it.
                let mut guard = handoff[r].lock().unwrap_or_else(|e| e.into_inner());
                let partition = if attempt + 1 >= reduce_policy.max_attempts {
                    std::mem::take(&mut *guard)
                } else {
                    guard.clone()
                };
                drop(guard);
                self.run_reduce_task(spec, reduce_factory, r, partition)
            });
            for (r, outcome) in reduce_outcomes.into_iter().enumerate() {
                let overhead_s = self.retry_overhead_seconds(&outcome);
                report.task_attempts += outcome.attempts as u64;
                report.task_retries += outcome.attempts.saturating_sub(1) as u64;
                report.cpu_seconds += self.task_cpu(outcome.failed_wall_s, 0);
                report.bytes_read += outcome.failed_io.bytes_read();
                let attempts = outcome.attempts;
                let res = outcome.result?;
                report.bytes_shuffled += res.shuffle_bytes;
                collected.extend(res.task_out);
                let work = TaskWork {
                    bytes_local: res.io.bytes_local,
                    bytes_remote: res.io.bytes_remote,
                    seeks: res.io.seeks,
                    bytes_written: res.written,
                    cpu_seconds: res.cpu_seconds,
                    shuffle_records: 0,
                    sim_penalty_s: res.io.sim_penalty_seconds(),
                };
                report.cpu_seconds += res.cpu_seconds;
                report.bytes_read += res.io.bytes_read();
                report.bytes_written += res.written;
                merge_profiles(&mut report.reduce_operators, &res.op_profiles);
                let sim_s = self.cost.task_seconds(&work)
                    + self.cost.shuffle_seconds(res.shuffle_bytes)
                    + overhead_s;
                report.tasks.push(TaskTrace {
                    phase: TaskPhase::Reduce,
                    index: r,
                    node: None,
                    attempts,
                    sim_s,
                });
                reduce_durations.push(sim_s);
            }
        }
        report.sim_reduce_s = self.cost.schedule(&reduce_durations);
        report.sim_total_s = report.sim_map_s + report.sim_reduce_s;
        report.rows_out = collected.len() as u64;
        Ok((report, collected))
    }

    /// One map task: scan a split through a fresh pipeline into task-local
    /// partition buffers. Runs on a pool worker; everything it touches is
    /// task-local except the DFS (thread-safe) and the shared side inputs
    /// (read-only).
    fn run_map_task(
        &self,
        spec: &JobSpec,
        split: &Split<'_>,
        task_idx: usize,
        node: usize,
        side: &HashMap<String, Vec<Row>>,
        num_reducers: usize,
    ) -> Result<MapTaskResult> {
        let scope = IoScope::new();
        let io_guard = scope.enter();
        let t0 = Instant::now();

        let mut pipeline = (spec.map_factory)(side)?;
        let reader_opts = ReadOptions {
            format: split.input.format,
            projection: split.input.projection.clone(),
            sarg: split.input.sarg.clone(),
            node: Some(node),
            split: Some((split.start, split.end)),
            variant: split.variant,
            deletes: split.input.overlay.as_ref().map(|o| Arc::clone(&o.deletes)),
        };
        let mut reader = open_reader(
            &self.dfs,
            &split.path,
            &split.input.schema,
            &self.conf,
            &reader_opts,
        )?;

        let mut partitions: Vec<Vec<ShuffleRecord>> =
            (0..num_reducers).map(|_| Vec::new()).collect();
        let mut task_out: Vec<Row> = Vec::new();
        let mut shuffle_records = 0u64;
        let mut rows_processed = 0u64;
        let mut batches_read = 0u64;
        let mut delta_rows_read = 0u64;
        {
            let graph = &mut pipeline.graph;
            let mut on_shuffle = |rec: ShuffleRecord| {
                shuffle_records += 1;
                if num_reducers > 0 {
                    let mut h: u64 = 0xcbf29ce484222325;
                    for k in &rec.key {
                        k.shuffle_hash(&mut h);
                    }
                    let p = (h % num_reducers as u64) as usize;
                    partitions[p].push(rec);
                }
            };
            let mut on_output = |row: Row| task_out.push(row);

            let in_delta = split
                .input
                .overlay
                .as_ref()
                .is_some_and(|o| o.is_delta(&split.path));
            match pipeline.vector.get(&split.input.alias) {
                Some(stage) => {
                    // Batch-native scan path (paper Section 6.5): reader
                    // batches go straight into the operator graph as shared
                    // `Batch` messages — no row materialization. A fresh
                    // batch per iteration keeps the Arc unshared, so the
                    // first operator's copy-on-write is a no-op. Under an
                    // ACID overlay the reader has already unselected deleted
                    // rows; a batch the mask emptied still counts as read.
                    loop {
                        let mut batch =
                            VectorizedRowBatch::new(&stage.batch_types, stage.batch_size)?;
                        let more = reader.next_batch(&mut batch)?;
                        if batch.size > 0 || batch.selected_in_use {
                            batches_read += 1;
                        }
                        if batch.size > 0 {
                            rows_processed += batch.size as u64;
                            if in_delta {
                                delta_rows_read += batch.size as u64;
                            }
                            graph.push(
                                stage.root,
                                Message::Batch {
                                    batch: Arc::new(batch),
                                    tag: 0,
                                },
                                &mut on_shuffle,
                                &mut on_output,
                            )?;
                        }
                        if !more {
                            break;
                        }
                    }
                }
                None => {
                    let root = *pipeline.roots.get(&split.input.alias).ok_or_else(|| {
                        HiveError::Execution(format!(
                            "map pipeline lacks a root for alias `{}`",
                            split.input.alias
                        ))
                    })?;
                    while let Some(row) = reader.next_row()? {
                        rows_processed += 1;
                        if in_delta {
                            delta_rows_read += 1;
                        }
                        graph.push(
                            root,
                            Message::Row { row, tag: 0 },
                            &mut on_shuffle,
                            &mut on_output,
                        )?;
                    }
                }
            }
            graph.finish(&mut on_shuffle, &mut on_output)?;
        }

        // Map-only output handling. The part name is keyed by task index,
        // so concurrent tasks never collide.
        let mut written = 0u64;
        if num_reducers == 0 && !task_out.is_empty() {
            if let JobOutput::Intermediate { path_prefix } = &spec.output {
                written =
                    self.write_part(&format!("{path_prefix}/part-m-{task_idx:05}"), &task_out)?;
                task_out.clear();
            }
        } else {
            task_out.clear();
        }

        let rows_skipped = reader.rows_skipped();
        let read_stats = reader.read_stats();
        // Selected-lane flow through this alias's vectorized chain: logical
        // rows into its first node vs. out of its last vectorized node.
        let (vector_rows_in, vector_rows_out) = pipeline
            .vector
            .get(&split.input.alias)
            .map(|stage| {
                (
                    pipeline.graph.rows_in_of(stage.root),
                    pipeline.graph.rows_out_of(stage.terminal),
                )
            })
            .unwrap_or((0, 0));
        let mut scan = ScanProfile {
            rows_read: rows_processed,
            batches: batches_read,
            vector_rows_in,
            vector_rows_out,
            stripes_total: read_stats.stripes_total,
            stripes_read: read_stats.stripes_read,
            groups_total: read_stats.groups_total,
            groups_read: read_stats.groups_read,
            rows_salvaged: read_stats.rows_skipped,
            footer_cache_hits: read_stats.footer_cache_hits,
            footer_cache_misses: read_stats.footer_cache_misses,
            index_cache_hits: read_stats.index_cache_hits,
            index_cache_misses: read_stats.index_cache_misses,
            groups_bloom_pruned: read_stats.groups_bloom_pruned,
            bloom_corrupt: read_stats.bloom_corrupt,
            delta_rows_read,
            rows_masked: reader.rows_masked(),
            ..Default::default()
        };
        // Vectorized operators are ordinary graph nodes now, so one profile
        // pass covers the whole task (indexes align across tasks because
        // every task builds the same graph from the same factory).
        let op_profiles = self.finalize_profiles(pipeline.graph.profiles());
        let cpu_seconds = self.task_cpu(t0.elapsed().as_secs_f64(), rows_processed);
        drop(io_guard);
        let io = scope.snapshot();
        // Block-cache activity attributed to this task's reads.
        scan.data_cache_hits = io.cache_hits;
        scan.data_cache_misses = io.cache_misses;
        scan.data_cache_hit_bytes = io.cache_hit_bytes;
        scan.data_cache_evictions = io.cache_evictions;
        Ok(MapTaskResult {
            partitions,
            task_out,
            written,
            io,
            cpu_seconds,
            shuffle_records,
            node,
            rows_skipped,
            op_profiles,
            scan,
        })
    }

    /// One reduce task: sort its partition, drive the reduce pipeline with
    /// group signals, and write/collect the output. Runs on a pool worker.
    fn run_reduce_task(
        &self,
        spec: &JobSpec,
        reduce_factory: &ReducePipelineFactory,
        r: usize,
        mut partition: Vec<ShuffleRecord>,
    ) -> Result<ReduceTaskResult> {
        let shuffle_bytes: u64 = partition
            .iter()
            .map(|rec| {
                let mut buf = Vec::new();
                hive_formats::serde::binary_serialize_row(&Row::new(rec.key.clone()), &mut buf);
                hive_formats::serde::binary_serialize_row(&rec.value, &mut buf);
                buf.len() as u64 + 8
            })
            .sum();
        let rows_processed = partition.len() as u64;

        // Sort by (key, tag): MapReduce's sort-merge, with Hive's tag
        // ordering within a key group. The sort is stable and the input
        // order is the deterministic task-index merge, so reduce input
        // order matches sequential execution exactly.
        partition.sort_by(|a, b| cmp_keys(&a.key, &b.key).then(a.tag.cmp(&b.tag)));

        let scope = IoScope::new();
        let io_guard = scope.enter();
        let t0 = Instant::now();
        let (mut graph, root) = reduce_factory()?;
        let mut task_out: Vec<Row> = Vec::new();
        {
            let mut on_shuffle = |_rec: ShuffleRecord| {
                // Nested shuffles cannot happen in a single job.
            };
            let mut on_output = |row: Row| task_out.push(row);
            // The reducer driver: detect key-group changes, send
            // signals, forward rows (paper Section 5.2.2).
            let mut current_key: Option<Vec<Value>> = None;
            for rec in partition {
                let new_group = current_key
                    .as_ref()
                    .is_none_or(|k| cmp_keys(k, &rec.key) != Ordering::Equal);
                if new_group {
                    if current_key.is_some() {
                        graph.push(root, Message::EndGroup, &mut on_shuffle, &mut on_output)?;
                    }
                    graph.push(root, Message::StartGroup, &mut on_shuffle, &mut on_output)?;
                    current_key = Some(rec.key.clone());
                }
                // Reduce-side rows are key columns ++ value columns.
                let mut vals = rec.key;
                vals.extend(rec.value.into_values());
                graph.push(
                    root,
                    Message::Row {
                        row: Row::new(vals),
                        tag: rec.tag,
                    },
                    &mut on_shuffle,
                    &mut on_output,
                )?;
            }
            if current_key.is_some() {
                graph.push(root, Message::EndGroup, &mut on_shuffle, &mut on_output)?;
            }
            graph.finish(&mut on_shuffle, &mut on_output)?;
        }

        let mut written = 0u64;
        if !task_out.is_empty() {
            if let JobOutput::Intermediate { path_prefix } = &spec.output {
                written = self.write_part(&format!("{path_prefix}/part-r-{r:05}"), &task_out)?;
                task_out.clear();
            }
        }

        let op_profiles = self.finalize_profiles(graph.profiles());
        let cpu_seconds = self.task_cpu(t0.elapsed().as_secs_f64(), rows_processed);
        drop(io_guard);
        Ok(ReduceTaskResult {
            task_out,
            written,
            io: scope.snapshot(),
            cpu_seconds,
            shuffle_bytes,
            op_profiles,
        })
    }

    /// Load distributed-cache inputs; also returns rows skipped by
    /// corrupt-data degradation (`hive.exec.orc.skip.corrupt.data`).
    fn load_side_inputs(&self, sides: &[SideInput]) -> Result<(HashMap<String, Vec<Row>>, u64)> {
        let mut out = HashMap::new();
        let mut rows_skipped = 0u64;
        for s in sides {
            let mut rows = Vec::new();
            for path in self.expand_paths(&s.paths) {
                let mut reader = open_reader(
                    &self.dfs,
                    &path,
                    &s.schema,
                    &self.conf,
                    &ReadOptions {
                        format: s.format,
                        projection: s.projection.clone(),
                        ..Default::default()
                    },
                )?;
                while let Some(row) = reader.next_row()? {
                    rows.push(row);
                }
                rows_skipped += reader.rows_skipped();
            }
            out.insert(s.alias.clone(), rows);
        }
        Ok((out, rows_skipped))
    }

    /// Expand directory-style entries (trailing `/`) into their part files.
    fn expand_paths(&self, paths: &[String]) -> Vec<String> {
        let mut out = Vec::new();
        for p in paths {
            if p.ends_with('/') {
                out.extend(self.dfs.list(p));
            } else {
                out.push(p.clone());
            }
        }
        out
    }

    /// Plan input splits. Returns the splits plus one record per file the
    /// planner steered to a per-replica sorted copy (HAIL-style
    /// replica-aware planning): among a file's stored variants, the first
    /// whose sort column matches a pushed-down predicate column wins, so
    /// min/max + bloom pruning see clustered data. ACID overlays pin
    /// reads to the base copy — delete ordinals address physical rows of
    /// variant 0 — and non-ORC formats have no variants.
    #[allow(clippy::type_complexity)]
    fn compute_splits<'a>(
        &self,
        inputs: &'a [JobInput],
    ) -> Result<(Vec<Split<'a>>, Vec<(String, usize, String)>)> {
        let mut splits = Vec::new();
        let mut choices = Vec::new();
        for input in inputs {
            // Predicate columns by name; a replica sorted on one of them
            // clusters the matching rows together.
            let pred_cols: Vec<String> = input
                .sarg
                .as_ref()
                .map(|s| {
                    s.leaves
                        .iter()
                        .filter_map(|l| input.schema.fields().get(l.column))
                        .map(|f| f.name.clone())
                        .collect()
                })
                .unwrap_or_default();
            for path in self.expand_paths(&input.paths) {
                if !self.dfs.exists(&path) {
                    continue;
                }
                let blocks = self.dfs.blocks(&path)?;
                if blocks.is_empty() || self.dfs.len(&path)? == 0 {
                    continue;
                }
                if input.format == hive_formats::FormatKind::Orc
                    && input.overlay.is_none()
                    && !pred_cols.is_empty()
                {
                    if let Some((variant, sort_column)) = self.dfs.select_variant(&path, &pred_cols)
                    {
                        for b in self.dfs.variant_blocks(&path, variant)? {
                            if b.len == 0 {
                                continue;
                            }
                            splits.push(Split {
                                input,
                                path: path.clone(),
                                start: b.offset,
                                end: b.offset + b.len,
                                replicas: b.replicas.clone(),
                                variant,
                            });
                        }
                        choices.push((path.clone(), variant, sort_column));
                        continue;
                    }
                }
                if input.overlay.is_some() && input.format != hive_formats::FormatKind::Orc {
                    // ACID merge-on-read over a format whose reader cannot
                    // report file ordinals: delete keys address rows by
                    // ordinal within the whole file, so the file cannot be
                    // carved into block-range splits — one task scans it
                    // start to end in physical row order. ORC files skip
                    // this: their reader tracks skip-aware ordinals, so
                    // they split (and prune) like any other input.
                    splits.push(Split {
                        input,
                        path: path.clone(),
                        start: 0,
                        end: self.dfs.len(&path)?,
                        replicas: blocks[0].replicas.clone(),
                        variant: 0,
                    });
                    continue;
                }
                match input.format {
                    hive_formats::FormatKind::Sequence => {
                        // No sync markers in this SequenceFile: one split.
                        splits.push(Split {
                            input,
                            path: path.clone(),
                            start: 0,
                            end: self.dfs.len(&path)?,
                            replicas: blocks[0].replicas.clone(),
                            variant: 0,
                        });
                    }
                    _ => {
                        for b in blocks {
                            if b.len == 0 {
                                continue;
                            }
                            // Data-local scheduling: attempt 0 runs on the
                            // first replica, as Hadoop usually manages to;
                            // retries rotate through the rest.
                            splits.push(Split {
                                input,
                                path: path.clone(),
                                start: b.offset,
                                end: b.offset + b.len,
                                replicas: b.replicas.clone(),
                                variant: 0,
                            });
                        }
                    }
                }
            }
        }
        Ok((splits, choices))
    }

    fn write_part(&self, path: &str, rows: &[Row]) -> Result<u64> {
        let mut w: Box<dyn TableWriter> = Box::new(hive_formats::sequence::SequenceWriter::create(
            &self.dfs, path,
        ));
        for r in rows {
            w.write_row(r)?;
        }
        w.close()
    }
}

/// Element-wise SQL comparison of shuffle keys.
pub fn cmp_keys(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let c = x.sql_cmp(y);
        if c != Ordering::Equal {
            return c;
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::MapPipeline;
    use hive_common::Schema;
    use hive_exec::expr::ExprNode;
    use hive_exec::graph::OperatorGraph;
    use hive_exec::operators::*;
    use hive_formats::{create_writer, FormatKind, WriteOptions};
    use std::sync::Arc;

    fn setup() -> (Dfs, HiveConf) {
        let dfs = Dfs::new(hive_dfs::DfsConfig {
            block_size: 64 << 10,
            replication: 2,
            nodes: 4,
        });
        (dfs, HiveConf::new())
    }

    fn write_table(dfs: &Dfs, conf: &HiveConf, path: &str, n: i64) -> Schema {
        let schema = Schema::parse(&[("k", "bigint"), ("v", "bigint")]).unwrap();
        let mut w = create_writer(
            dfs,
            path,
            &schema,
            conf,
            &WriteOptions {
                format: FormatKind::Text,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..n {
            w.write_row(&Row::new(vec![Value::Int(i % 10), Value::Int(i)]))
                .unwrap();
        }
        w.close().unwrap();
        schema
    }

    /// A word-count-style job: group by k, sum v.
    fn group_sum_job(schema: Schema, path: &str) -> JobSpec {
        let map_factory: crate::job::MapPipelineFactory = Arc::new(move |_side| {
            let mut graph = OperatorGraph::new();
            let rs = graph.add(Box::new(ReduceSinkOperator {
                key_exprs: vec![ExprNode::col(0)],
                value_exprs: vec![ExprNode::col(1)],
                tag: 0,
                num_reducers: 2,
            }));
            let mut roots = HashMap::new();
            roots.insert("t".to_string(), rs);
            Ok(MapPipeline {
                graph,
                roots,
                vector: HashMap::new(),
            })
        });
        let reduce_factory: crate::job::ReducePipelineFactory = Arc::new(|| {
            let mut graph = OperatorGraph::new();
            let gb = graph.add(Box::new(GroupByOperator::new(
                vec![ExprNode::col(0)],
                vec![AggSpec {
                    function: hive_exec::agg::AggFunction::Sum,
                    mode: hive_exec::agg::AggMode::Complete,
                    arg: Some(ExprNode::col(1)),
                }],
                GroupByMode::Streaming,
            )));
            let fs = graph.add(Box::new(FileSinkOperator));
            graph.connect(gb, fs, None);
            Ok((graph, gb))
        });
        JobSpec {
            name: "group-sum".into(),
            inputs: vec![JobInput {
                alias: "t".into(),
                paths: vec![path.to_string()],
                format: FormatKind::Text,
                schema,
                projection: None,
                sarg: None,
                overlay: None,
            }],
            side_inputs: vec![],
            map_factory,
            reduce_factory: Some(reduce_factory),
            num_reducers: 2,
            output: JobOutput::Collect,
        }
    }

    #[test]
    fn map_reduce_group_sum() {
        let (dfs, conf) = setup();
        let schema = write_table(&dfs, &conf, "/t/mr1", 1000);
        let engine = MrEngine::new(dfs, conf);
        let (report, mut rows) = engine.run_job(&group_sum_job(schema, "/t/mr1")).unwrap();
        rows.sort_by(|a, b| a[0].sql_cmp(&b[0]));
        assert_eq!(rows.len(), 10);
        // Group k: sum of {k, k+10, ..., k+990} = 100*k + 10*4950.
        for k in 0..10i64 {
            assert_eq!(
                rows[k as usize],
                Row::new(vec![Value::Int(k), Value::Int(100 * k + 49_500)])
            );
        }
        assert!(report.map_tasks >= 1);
        assert_eq!(report.reduce_tasks, 2);
        assert!(report.sim_total_s > 0.0);
        assert!(report.bytes_shuffled > 0);
    }

    #[test]
    fn splits_cover_multi_block_files() {
        let (dfs, conf) = setup();
        // 64 KB blocks and ~13 KB per 1000 rows → bump rows for >1 block.
        let schema = write_table(&dfs, &conf, "/t/mr2", 20_000);
        assert!(dfs.blocks("/t/mr2").unwrap().len() > 1);
        let engine = MrEngine::new(dfs, conf);
        let (report, rows) = engine.run_job(&group_sum_job(schema, "/t/mr2")).unwrap();
        assert!(report.map_tasks > 1, "expected multiple map tasks");
        let total: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        assert_eq!(total, (0..20_000i64).sum::<i64>());
    }

    #[test]
    fn map_only_job_writes_intermediate_and_chains() {
        let (dfs, conf) = setup();
        let schema = write_table(&dfs, &conf, "/t/mr3", 500);

        // Job 1: map-only filter writing an intermediate directory.
        let map_factory: crate::job::MapPipelineFactory = Arc::new(move |_| {
            let mut graph = OperatorGraph::new();
            let f = graph.add(Box::new(FilterOperator {
                predicate: ExprNode::binary(
                    hive_exec::expr::BinaryOp::Lt,
                    ExprNode::col(1),
                    ExprNode::lit(Value::Int(100)),
                ),
            }));
            let fs = graph.add(Box::new(FileSinkOperator));
            graph.connect(f, fs, None);
            let mut roots = HashMap::new();
            roots.insert("t".to_string(), f);
            Ok(MapPipeline {
                graph,
                roots,
                vector: HashMap::new(),
            })
        });
        let job1 = JobSpec {
            name: "filter".into(),
            inputs: vec![JobInput {
                alias: "t".into(),
                paths: vec!["/t/mr3".into()],
                format: FormatKind::Text,
                schema: schema.clone(),
                projection: None,
                sarg: None,
                overlay: None,
            }],
            side_inputs: vec![],
            map_factory,
            reduce_factory: None,
            num_reducers: 0,
            output: JobOutput::Intermediate {
                path_prefix: "/tmp/q/j1".into(),
            },
        };

        // Job 2 reads the intermediate directory.
        let job2 = group_sum_job(schema, "/tmp/q/j1/");
        let job2 = JobSpec {
            inputs: vec![JobInput {
                alias: "t".into(),
                paths: vec!["/tmp/q/j1/".into()],
                format: FormatKind::Sequence,
                ..job2.inputs[0].clone()
            }],
            ..job2
        };

        let engine = MrEngine::new(dfs.clone(), conf);
        let (dag, rows) = engine.run_dag(&[job1, job2]).unwrap();
        assert_eq!(dag.jobs.len(), 2);
        assert!(dag.jobs[0].bytes_written > 0, "intermediate was written");
        assert!(!dfs.list("/tmp/q/j1/").is_empty());
        let total: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        assert_eq!(total, (0..100i64).sum::<i64>());
        assert!(dag.sim_total_s > dag.jobs[1].sim_total_s);
    }

    #[test]
    fn key_comparison_orders_groups() {
        assert_eq!(
            cmp_keys(
                &[Value::Int(1), Value::Int(2)],
                &[Value::Int(1), Value::Int(3)]
            ),
            Ordering::Less
        );
        assert_eq!(
            cmp_keys(&[Value::Null], &[Value::Int(0)]),
            Ordering::Less,
            "nulls first"
        );
    }
}
