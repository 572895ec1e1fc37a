//! Criterion variant of the parallel-scaling measurement (SSB Q2.3 at
//! 1/2/4/8 workers on a `PooledEngine` over an 8-thread pool). See
//! `src/bin/par_scaling.rs` for the dependency-free runner that writes
//! `BENCH_PAR_SCALING.json`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qppt_bench::BenchDb;
use qppt_core::PlanOptions;
use qppt_par::{PooledEngine, WorkerPool};
use qppt_ssb::queries;

fn bench(c: &mut Criterion) {
    let db = Arc::new(BenchDb::prepare(0.05, 42).ssb.db);
    let spec = queries::q2_3();
    let pool = WorkerPool::new(8, 1);
    let engine = PooledEngine::new(db, pool.clone());
    let mut g = c.benchmark_group("par_scaling_q2_3");
    for workers in [1usize, 2, 4, 8] {
        let opts = PlanOptions::default().with_parallelism(workers);
        g.bench_function(BenchmarkId::new("workers", workers), |b| {
            b.iter(|| engine.run(&spec, &opts).expect("prepared query runs"))
        });
    }
    g.finish();
    pool.shutdown();
}

criterion_group!(benches, bench);
criterion_main!(benches);
