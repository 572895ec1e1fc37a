//! Parallel scaling of the morsel-driven executor: SSB Q2.3 (the paper's
//! showcase 4-way star join) at 1/2/4/8 workers on a `PooledEngine` whose
//! pool holds as many threads as the largest worker count.
//!
//! Prints a speedup table and writes `BENCH_PAR_SCALING.json` so future
//! changes can track scaling regressions.
//!
//! ```text
//! cargo run --release --bin par_scaling -- --sf 0.2 --reps 5 \
//!     --workers 1,2,4,8 --out BENCH_PAR_SCALING.json
//! ```

use std::io::Write as _;
use std::sync::Arc;

use qppt_bench::{
    arg_f64, arg_str, arg_usize, arg_usize_list, ms, print_table, time_best_of, BenchDb,
};
use qppt_core::{PlanOptions, QpptEngine};
use qppt_par::{PooledEngine, WorkerPool};
use qppt_ssb::queries;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sf = arg_f64(&args, "--sf", 0.1);
    let reps = arg_usize(&args, "--reps", 5);
    let workers = arg_usize_list(&args, "--workers", &[1, 2, 4, 8]);
    let out_path = arg_str(&args, "--out").unwrap_or_else(|| "BENCH_PAR_SCALING.json".to_string());

    // Recorded in the JSON so readers can tell real scaling runs from
    // overhead-only runs without chasing footnotes.
    let cores = qppt_server::detected_cores();
    if cores == 1 {
        eprintln!(
            "warning: only 1 hardware core detected — these numbers measure \
             scheduling overhead, not scaling; rerun on a multicore host for \
             speedup claims"
        );
    }

    eprintln!("generating SSB at sf={sf} …");
    let db = Arc::new(BenchDb::prepare(sf, 42).ssb.db);
    let spec = queries::q2_3();
    let pool = WorkerPool::new(workers.iter().copied().max().unwrap_or(1), 1);
    let engine = PooledEngine::new(db.clone(), pool.clone());
    let sequential = QpptEngine::new(&db)
        .run(&spec, &PlanOptions::default())
        .expect("prepared query runs");

    let mut rows = Vec::new();
    let mut series = Vec::new();
    let mut base_ms = 0.0f64;
    for &w in &workers {
        let opts = PlanOptions::default().with_parallelism(w);
        // Warm-up run doubles as a correctness anchor: every worker count
        // must agree with the sequential engine.
        let result = engine.run(&spec, &opts).expect("prepared query runs");
        assert_eq!(
            result, sequential,
            "parallel result diverged from sequential at {w} workers"
        );
        let t = time_best_of(reps, || {
            engine.run(&spec, &opts).expect("prepared query runs")
        });
        let t_ms = ms(t);
        if w == workers[0] {
            base_ms = t_ms;
        }
        let speedup = if t_ms > 0.0 { base_ms / t_ms } else { 0.0 };
        rows.push(vec![
            w.to_string(),
            format!("{t_ms:.3}"),
            format!("{speedup:.2}x"),
            result.rows.len().to_string(),
        ]);
        series.push((w, t_ms, speedup));
    }
    pool.shutdown();
    println!("SSB Q2.3, sf={sf}, best of {reps}:");
    print_table(&["workers", "ms", "speedup", "rows"], &rows);

    // Hand-rolled JSON (the workspace is dependency-free by design).
    let entries: Vec<String> = series
        .iter()
        .map(|(w, t, s)| format!("    {{\"workers\": {w}, \"ms\": {t:.3}, \"speedup\": {s:.3}}}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"par_scaling\",\n  \"query\": \"Q2.3\",\n  \"sf\": {sf},\n  \"reps\": {reps},\n  \"cores\": {cores},\n  \"series\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let mut f = std::fs::File::create(&out_path).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    eprintln!("wrote {out_path}");
}
