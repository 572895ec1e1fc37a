//! [`PooledEngine`]: the parallel engine — same plans, same byte-identical
//! results as [`QpptEngine`](qppt_core::QpptEngine), executed on a
//! persistent shared [`WorkerPool`].
//!
//! Every query runs one path: build a [`PreparedQuery`] (plan, dimension
//! selections, fused stage-1 stream), then execute it with
//! [`run_prepared`](PooledEngine::run_prepared). The `run*` entry points
//! are thin wrappers that build the prepared state fresh; the serving
//! path composes it from σ handles shared through the `qppt-cache`
//! dimension tier, so dimension materialization is skipped for every
//! cached σ, and the prepared `InterTable`s are shared read-only across
//! every morsel worker of every execution.
//!
//! Execution submits the query's morsel queue as a [`PoolJob`]; the
//! pool's fixed workers interleave concurrent queries under the
//! priority/admission policy. Total threads are bounded by the pool size,
//! not queries × parallelism — the property `qppt-server` is built on.
//!
//! Two latency paths matter for serving:
//!
//! * **Inline fast path** — queries whose pipeline runs on one worker
//!   (`parallelism = 1`, or the stage-1 operator class switched off) never
//!   touch the pool: they run the sequential executor on the calling
//!   (connection) thread, so a single-client workload pays zero
//!   cross-thread round-trips.
//! * **Caller participation** — parallel queries submit their jobs with
//!   [`WorkerPool::run_participating`]: the calling thread counts as one
//!   of the job's workers and starts pulling morsels immediately; free
//!   pool workers fill the remaining slots. At low concurrency the query
//!   runs mostly inline, under load the pool balances as before.
//!
//! Scheduling within a job is *work-pulling* (Leis et al.'s morsel-driven
//! model): participants grab the next unclaimed morsel index from an
//! atomic counter, so skewed partitions self-balance. Each participant
//! accumulates into a **private** aggregation table; partials are merged
//! in participant order, which (with commutative accumulator sums) makes
//! the merged result independent of thread timing.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qppt_core::exec::{decode_result, new_agg_table, run_pipeline, DimSelection, FusedSelection};
use qppt_core::inter::AggTable;
use qppt_core::plan::MainInput;
use qppt_core::{ExecStats, KeyRange, Plan, PlanOptions, PreparedQuery, QpptError};
use qppt_storage::{Database, QueryResult, QuerySpec, Snapshot};

use crate::morsel::Partitioner;
use crate::pool::{PoolJob, WorkerPool};

/// The shared-pool QPPT engine (see module docs). Cheap to clone; clones
/// share the database and the pool.
#[derive(Debug, Clone)]
pub struct PooledEngine {
    db: Arc<Database>,
    pool: Arc<WorkerPool>,
}

impl PooledEngine {
    /// Creates an engine over a shared database and worker pool.
    pub fn new(db: Arc<Database>, pool: Arc<WorkerPool>) -> Self {
        Self { db, pool }
    }

    /// The shared database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The shared worker pool.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Runs a query at the latest snapshot (priority 0).
    pub fn run(&self, spec: &QuerySpec, opts: &PlanOptions) -> Result<QueryResult, QpptError> {
        Ok(self.run_with_stats(spec, opts)?.0)
    }

    /// Runs a query, returning merged per-operator statistics (priority 0).
    /// Operator `micros` are summed across workers (CPU time, not wall
    /// time); `total_micros` remains end-to-end wall time.
    pub fn run_with_stats(
        &self,
        spec: &QuerySpec,
        opts: &PlanOptions,
    ) -> Result<(QueryResult, ExecStats), QpptError> {
        self.run_at(spec, opts, self.db.snapshot(), 0)
    }

    /// Runs a query at an explicit snapshot with an explicit pool priority
    /// (higher preempts lower for idle workers; in-flight morsels are never
    /// preempted): [`PreparedQuery::build`] then
    /// [`run_prepared`](Self::run_prepared).
    pub fn run_at(
        &self,
        spec: &QuerySpec,
        opts: &PlanOptions,
        snap: Snapshot,
        priority: i32,
    ) -> Result<(QueryResult, ExecStats), QpptError> {
        let started = Instant::now();
        let prepared = PreparedQuery::build(&self.db, spec, opts, snap)?;
        let (result, mut stats) = self.run_prepared(&prepared, priority)?;
        stats.total_micros = started.elapsed().as_micros();
        Ok((result, stats))
    }

    /// Executes a query from prepared, shared state: no planning, no
    /// dimension materialization, no selection-predicate evaluation — the
    /// pipeline runs straight off the prepared `InterTable`s and fused
    /// stream, which are shared (`Arc`) across concurrent executions.
    ///
    /// Coherence contract (see [`PreparedQuery`]): only call this while
    /// the versions of every table the plan reads are unchanged since the
    /// prepared state was built; execution then happens at the *prepared*
    /// snapshot, which sees the same rows as any current one.
    pub fn run_prepared(
        &self,
        prepared: &PreparedQuery,
        priority: i32,
    ) -> Result<(QueryResult, ExecStats), QpptError> {
        let started = Instant::now();
        let (agg, mut stats) = self.run_prepared_agg(prepared, priority)?;
        let result = decode_result(&self.db, &prepared.plan, &agg);
        stats.total_micros = started.elapsed().as_micros();
        Ok((result, stats))
    }

    /// Like [`run_prepared`](Self::run_prepared), but stops at the merged
    /// aggregation index — the shard-side entry point for partial-aggregate
    /// serving, where the router decodes after the cross-shard merge.
    pub fn run_prepared_agg(
        &self,
        prepared: &PreparedQuery,
        priority: i32,
    ) -> Result<(AggTable, ExecStats), QpptError> {
        let plan = &prepared.plan;
        // The calling thread participates in its own job, so the bound is
        // pool + 1.
        let workers = pipeline_workers(plan).min(self.pool.size() + 1);
        if workers == 1 {
            // Inline fast path: no jobs, no handles, no pool wakeups. This
            // is byte-identical by construction (it *is* the sequential
            // engine's pipeline).
            return prepared.execute_sequential_agg(&self.db);
        }

        let started = Instant::now();
        let morsels = partition_morsels(&self.db, plan)?;
        let job = Arc::new(MorselJob {
            db: self.db.clone(),
            snap: prepared.snap,
            plan: plan.clone(),
            dim_tables: prepared.dims.clone(),
            fused: prepared.fused.clone(),
            max_workers: workers.min(morsels.len()),
            morsels,
            next: AtomicUsize::new(0),
            participants: AtomicUsize::new(0),
            partials: Mutex::new(Vec::new()),
            error: Mutex::new(None),
            aborted: AtomicBool::new(false),
        });
        self.pool
            .run_participating(job.clone() as Arc<dyn PoolJob>, priority)
            .map_err(|_| {
                QpptError::Internal("worker pool shut down while the query was queued".into())
            })?;
        if let Some(e) = job.error.lock().expect("job lock").take() {
            return Err(e);
        }

        // Deterministic merge: participant order, not completion order.
        // (The accumulators are commutative sums, so this is
        // belt-and-braces — but it keeps statistics ordering reproducible
        // too.)
        let mut partials = std::mem::take(&mut *job.partials.lock().expect("job lock"));
        partials.sort_by_key(|(pid, _, _)| *pid);
        let mut partials = partials.into_iter();
        let (mut agg, mut pipeline) = match partials.next() {
            Some((_, agg, stats)) => (agg, stats),
            None => (new_agg_table(plan), ExecStats::default()),
        };
        for (_, part_agg, part_stats) in partials {
            agg.merge_from(&part_agg);
            pipeline.merge_partition(&part_stats);
        }

        let mut stats = ExecStats {
            ops: prepared.dim_stats(),
            total_micros: 0,
        };
        stats.ops.extend(pipeline.ops);
        fix_merged_agg_stats(&agg, &mut stats);
        stats.total_micros = started.elapsed().as_micros();
        Ok((agg, stats))
    }
}

/// Worker count for the fact pipeline: `opts.parallelism` if the stage-1
/// operator's class is switched on, else 1 (sequential).
fn pipeline_workers(plan: &Plan) -> usize {
    let class_on = match plan.stages[0].main {
        MainInput::SyncScan { .. } => plan.opts.par_scans,
        MainInput::SelectProbe { .. } => plan.opts.par_joins,
    };
    if class_on {
        plan.opts.parallelism.max(1)
    } else {
        1
    }
}

/// Morsels over the populated key interval of the stage-1 fact index.
fn partition_morsels(db: &Database, plan: &Plan) -> Result<Vec<KeyRange>, QpptError> {
    let fact_base = db.find_index(&plan.spec.fact, &plan.dims[0].fact_col_name)?;
    let (Some(min), Some(max)) = (
        fact_base.data.index.min_key(),
        fact_base.data.index.max_key(),
    ) else {
        // Empty fact index: one full-range morsel keeps the pipeline
        // shape (and its statistics records) intact.
        return Ok(vec![KeyRange::full()]);
    };
    Ok(Partitioner::new(min, max, plan.opts.morsel_bits)
        .morsels()
        .to_vec())
}

/// Post-merge statistics fixup.
///
/// Merged `out_keys`/`out_tuples`/`memory_bytes` are per-partition sums.
/// For the final join-group operator the same group key can appear in many
/// partitions, so the sum overcounts — overwrite it with the merged index's
/// true numbers. The last stage is always the aggregating one by plan
/// construction, and its record is always the last operator pushed.
/// Intermediate-stage records keep the summed semantics (their `out_keys`
/// is an upper bound on distinct keys when a stage-2+ join key spans
/// partitions); see `OpStats::absorb_partition`.
fn fix_merged_agg_stats(agg: &AggTable, stats: &mut ExecStats) {
    if let Some(last) = stats.ops.last_mut() {
        last.out_keys = agg.group_count();
        last.out_tuples = agg.group_count();
        last.memory_bytes = agg.memory_bytes();
    }
}

/// The fact-pipeline job: a per-query morsel queue on the shared pool.
struct MorselJob {
    db: Arc<Database>,
    snap: Snapshot,
    plan: Arc<Plan>,
    dim_tables: Arc<Vec<Option<Arc<DimSelection>>>>,
    fused: Arc<Option<FusedSelection>>,
    morsels: Vec<KeyRange>,
    /// Atomic morsel dispenser (work pulling).
    next: AtomicUsize,
    /// Participant ids for the deterministic merge order.
    participants: AtomicUsize,
    partials: Mutex<Vec<(usize, AggTable, ExecStats)>>,
    error: Mutex<Option<QpptError>>,
    aborted: AtomicBool,
    max_workers: usize,
}

impl MorselJob {
    /// One participant's morsel loop: pull unclaimed morsel indexes and run
    /// the fact pipeline over each, accumulating into a private aggregation
    /// table. Returns `None` if no morsel was claimed (late arrival).
    fn drain_morsels(&self) -> Result<Option<(AggTable, ExecStats)>, QpptError> {
        let mut agg: Option<AggTable> = None;
        let mut stats = ExecStats::default();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(&morsel) = self.morsels.get(i) else {
                break;
            };
            let acc = agg.get_or_insert_with(|| new_agg_table(&self.plan));
            let ops = run_pipeline(
                &self.db,
                self.snap,
                &self.plan,
                &self.dim_tables,
                Some(morsel),
                self.fused.as_ref().as_ref(),
                self.plan.opts.batch_mode(),
                acc,
            )?;
            stats.merge_partition(&ExecStats {
                ops,
                total_micros: 0,
            });
        }
        Ok(agg.map(|a| (a, stats)))
    }
}

impl PoolJob for MorselJob {
    fn max_workers(&self) -> usize {
        self.max_workers
    }

    fn has_work(&self) -> bool {
        !self.aborted.load(Ordering::Relaxed)
            && self.next.load(Ordering::Relaxed) < self.morsels.len()
    }

    fn work(&self) {
        let pid = self.participants.fetch_add(1, Ordering::Relaxed);
        match self.drain_morsels() {
            Ok(Some((agg, stats))) => {
                self.partials
                    .lock()
                    .expect("job lock")
                    .push((pid, agg, stats));
            }
            Ok(None) => {}
            Err(e) => {
                self.aborted.store(true, Ordering::Relaxed);
                let mut err = self.error.lock().expect("job lock");
                err.get_or_insert(e);
            }
        }
    }
}
