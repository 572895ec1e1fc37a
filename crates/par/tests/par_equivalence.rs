//! Parallel/sequential equivalence: [`PooledEngine`] must produce
//! **byte-identical** `QueryResult`s to the sequential `QpptEngine::run` —
//! same rows, same row order, same aggregate values — for every SSB query,
//! across worker counts and morsel granularities. Morsel partitioning,
//! private per-worker aggregation, and the deterministic merge are pure
//! execution strategies; any visible difference is a bug.

use std::sync::Arc;

use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt_par::{PooledEngine, WorkerPool};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::Database;

/// Pool threads: the largest parallelism the grids use, so every worker
/// of a parallelism-8 run is really available (the caller participates
/// on top).
const POOL_THREADS: usize = 8;

fn prepared_db(sf: f64, seed: u64, opts: &PlanOptions) -> Arc<Database> {
    let mut ssb = SsbDb::generate(sf, seed);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, opts).unwrap();
    }
    Arc::new(ssb.db)
}

fn pooled(db: &Arc<Database>) -> PooledEngine {
    PooledEngine::new(db.clone(), WorkerPool::new(POOL_THREADS, 8))
}

#[test]
fn all_queries_identical_across_parallelism() {
    let base = PlanOptions::default();
    let db = prepared_db(0.05, 42, &base);
    let engine = QpptEngine::new(&db);
    let par = pooled(&db);
    for q in queries::all_queries() {
        let sequential = engine.run(&q, &base).unwrap();
        for workers in [1usize, 2, 8] {
            let opts = base.with_parallelism(workers);
            let parallel = par.run(&q, &opts).unwrap();
            // Byte-identical: rows in the same order with the same values,
            // not merely set-equal.
            assert_eq!(
                parallel.rows.len(),
                sequential.rows.len(),
                "{} @ {workers} workers: row count",
                q.id
            );
            assert_eq!(
                parallel, sequential,
                "{} @ {workers} workers: result rows",
                q.id
            );
        }
    }
}

#[test]
fn morsel_granularities_identical() {
    // Coarse (2 morsels) through fine (4096 morsels) partitionings must not
    // change anything either.
    let base = PlanOptions::default();
    let db = prepared_db(0.02, 7, &base);
    let engine = QpptEngine::new(&db);
    let par = pooled(&db);
    for q in [queries::q1_1(), queries::q2_3(), queries::q4_1()] {
        let sequential = engine.run(&q, &base).unwrap();
        for bits in [1u8, 3, 6, 12] {
            let opts = base.with_parallelism(4).with_morsel_bits(bits);
            let parallel = par.run(&q, &opts).unwrap();
            assert_eq!(parallel, sequential, "{} @ morsel_bits={bits}", q.id);
        }
    }
}

#[test]
fn operator_class_switches_identical() {
    // Disabling any operator class degrades that class to sequential
    // execution — never changes results.
    let base = PlanOptions::default();
    let db = prepared_db(0.02, 11, &base);
    let engine = QpptEngine::new(&db);
    let par = pooled(&db);
    for q in [queries::q1_2(), queries::q2_3(), queries::q3_1()] {
        let sequential = engine.run(&q, &base).unwrap();
        for (scan, join) in [(true, true), (false, true), (true, false), (false, false)] {
            let opts = base.with_parallelism(8).with_par_ops(scan, join);
            let parallel = par.run(&q, &opts).unwrap();
            assert_eq!(parallel, sequential, "{} @ par_ops=({scan},{join})", q.id);
        }
    }
}

#[test]
fn non_default_plan_shapes_identical() {
    // Parallel execution composes with the paper's plan knobs: non-fused
    // plans (select_join off → materialized fact selection), prefix-tree-only
    // indexes, narrow join stages.
    let variants = [
        PlanOptions::default().with_select_join(false),
        PlanOptions::default().with_prefer_kiss(false),
        PlanOptions::default().with_max_join_ways(2),
        PlanOptions::default().with_join_buffer(1),
    ];
    for (vi, base) in variants.into_iter().enumerate() {
        let db = prepared_db(0.02, 23, &base);
        let engine = QpptEngine::new(&db);
        let par = pooled(&db);
        for q in [queries::q1_1(), queries::q2_3(), queries::q4_2()] {
            let sequential = engine.run(&q, &base).unwrap();
            let parallel = par.run(&q, &base.with_parallelism(8)).unwrap();
            assert_eq!(parallel, sequential, "{} @ variant {vi}", q.id);
        }
    }
}

#[test]
fn par_engine_stats_cover_all_operators() {
    let base = PlanOptions::default();
    let db = prepared_db(0.02, 3, &base);
    let spec = queries::q2_3();
    let (seq_result, seq_stats) = QpptEngine::new(&db).run_with_stats(&spec, &base).unwrap();
    let (par_result, par_stats) = pooled(&db)
        .run_with_stats(&spec, &base.with_parallelism(4))
        .unwrap();
    assert_eq!(par_result, seq_result);
    // Same operator sequence (σ per materialized dim, then the stages) and
    // the same operator labels, partition-merged.
    assert_eq!(par_stats.ops.len(), seq_stats.ops.len());
    for (p, s) in par_stats.ops.iter().zip(seq_stats.ops.iter()) {
        assert_eq!(p.label, s.label);
    }
    // The final join-group record reports the merged index: identical group
    // counts to the sequential run.
    let (p_last, s_last) = (par_stats.ops.last().unwrap(), seq_stats.ops.last().unwrap());
    assert_eq!(p_last.out_keys, s_last.out_keys);
    assert_eq!(seq_result.rows.len(), p_last.out_keys);
}
