//! Batched/scalar equivalence on the parallel engine: `batch_exec=on`
//! through [`PooledEngine`]'s morsel workers must produce
//! **byte-identical** `QueryResult`s to the scalar sequential path for
//! every SSB query, across parallelism, morsel granularity, and batch
//! block size. Any visible difference is a bug.

use std::sync::Arc;

use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt_par::{PooledEngine, WorkerPool};
use qppt_ssb::{queries, SsbDb};

#[test]
fn all_queries_identical_scalar_vs_batched_across_the_grid() {
    let base = PlanOptions::default();
    let mut ssb = SsbDb::generate(0.01, 42);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &base).unwrap();
    }
    let db = Arc::new(ssb.db);
    let engine = QpptEngine::new(&db);
    // Pool threads ≥ the largest parallelism in the grid.
    let pool = WorkerPool::new(4, 8);
    let pooled = PooledEngine::new(db.clone(), pool.clone());
    for q in queries::all_queries() {
        let scalar = engine.run(&q, &base).unwrap();
        // batch_rows=1 is the degenerate one-row block, 1024 spans whole
        // morsels at fine granularities.
        for workers in [1usize, 4] {
            for bits in [1u8, 6, 12] {
                for rows in [1usize, 64, 1024] {
                    let opts = base
                        .with_parallelism(workers)
                        .with_morsel_bits(bits)
                        .with_batch_exec(true)
                        .with_batch_rows(rows);
                    let batched = pooled.run(&q, &opts).unwrap();
                    assert_eq!(
                        batched, scalar,
                        "{} @ parallelism={workers} morsel_bits={bits} batch_rows={rows}",
                        q.id
                    );
                }
            }
        }
    }
    pool.shutdown();
}
