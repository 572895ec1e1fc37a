//! Figure 7: execution time of all 13 SSB queries on the three engines
//! (paper: DexterDB/QPPT vs. a commercial vector-at-a-time DBMS vs.
//! MonetDB, SF = 15, single-threaded).
//!
//! With `--out`, also writes the figure as JSON: per query the best-of
//! milliseconds of each engine and the two slowdown ratios against QPPT.
//!
//! ```text
//! cargo run --release -p qppt-bench --bin fig7 -- [--sf 0.1] [--runs 3] \
//!     [--out BENCH_FIG7.json]
//! ```

use std::io::Write as _;

use qppt_bench::{arg_f64, arg_str, arg_usize, ms, print_table, time_best_of, BenchDb};
use qppt_core::PlanOptions;
use qppt_ssb::queries;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sf = arg_f64(&args, "--sf", 0.1);
    let runs = arg_usize(&args, "--runs", 3);
    let out_path = arg_str(&args, "--out");

    eprintln!("generating SSB (SF={sf}) and building base indexes …");
    let db = BenchDb::prepare(sf, 42);
    let cdb = db.column_db();
    let opts = PlanOptions::default();

    println!("\nFigure 7: SSB (SF={sf}) query performance [ms], best of {runs}");
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for q in queries::all_queries() {
        // Cross-check results once before timing.
        let a = db.run_qppt(&q, &opts).canonicalized();
        let b = db.run_vector(&cdb, &q).canonicalized();
        let c = db.run_column(&cdb, &q).canonicalized();
        assert_eq!(a, b, "{}: QPPT vs vector", q.id);
        assert_eq!(b, c, "{}: vector vs column", q.id);

        let t_qppt = time_best_of(runs, || db.run_qppt(&q, &opts));
        let t_vec = time_best_of(runs, || db.run_vector(&cdb, &q));
        let t_col = time_best_of(runs, || db.run_column(&cdb, &q));
        let (qppt, vector, column) = (ms(t_qppt), ms(t_vec), ms(t_col));
        rows.push(vec![
            q.id.clone(),
            format!("{qppt:.2}"),
            format!("{vector:.2}"),
            format!("{column:.2}"),
            format!("{:.2}x", vector / qppt),
            format!("{:.2}x", column / qppt),
        ]);
        entries.push(format!(
            "    {{\"query\": \"{}\", \"qppt_ms\": {qppt:.3}, \"vector_ms\": {vector:.3}, \
             \"column_ms\": {column:.3}, \"vector_over_qppt\": {:.2}, \"column_over_qppt\": {:.2}}}",
            q.id,
            vector / qppt,
            column / qppt
        ));
    }
    print_table(
        &[
            "query",
            "QPPT(DexterDB)",
            "vector(Commercial)",
            "column(MonetDB)",
            "vec/QPPT",
            "col/QPPT",
        ],
        &rows,
    );
    println!("\npaper shape: QPPT fastest on every query; column-at-a-time degrades most on Q4.x");

    if let Some(path) = out_path {
        // Hand-rolled JSON (the workspace is dependency-free by design).
        let cores = qppt_server::detected_cores();
        let json = format!(
            "{{\n  \"bench\": \"fig7\",\n  \"sf\": {sf},\n  \"runs\": {runs},\n  \
             \"cores\": {cores},\n  \"queries\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        let mut f = std::fs::File::create(&path).expect("create output file");
        f.write_all(json.as_bytes()).expect("write output file");
        eprintln!("wrote {path}");
    }
}
