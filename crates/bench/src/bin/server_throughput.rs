//! Serving throughput: queries/second through the shared-pool
//! `qppt-server` vs. a spawn-per-query baseline, at client concurrency
//! 1/4/16.
//!
//! The served path runs a real in-process TCP server: C client threads,
//! each on its own connection, round-robin over a query mix; every query
//! executes on the one shared `WorkerPool`. Each client count is measured
//! twice — once with `cache=off` (the pure pool-vs-spawn engine
//! comparison: connection threads participate in their own morsel jobs,
//! so a lone client pays no pool round-trip) and once on the default
//! cached path (the real serving hot path, where the repeated mix is
//! served from the result tier). The baseline runs the same mix on C
//! threads that each build a fresh `parallelism`-thread `WorkerPool` per
//! query, run it on a `PooledEngine`, and shut the pool down — i.e. each
//! query spawns (and joins) its own worker threads, the cost the shared
//! pool exists to amortize.
//!
//! Writes `BENCH_SERVER_THROUGHPUT.json`:
//!
//! ```text
//! cargo run --release --bin server_throughput -- \
//!     --sf 0.05 --threads 4 --clients 1,4,16 --queries 30 \
//!     --out BENCH_SERVER_THROUGHPUT.json
//! ```

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use qppt_bench::{arg_f64, arg_str, arg_usize, arg_usize_list, print_table};
use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt_par::{PooledEngine, WorkerPool};
use qppt_server::{detected_cores, serve, QpptClient, ServeEngine};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::QuerySpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sf = arg_f64(&args, "--sf", 0.05);
    let seed = 42u64;
    let cores = detected_cores();
    let threads = arg_usize(&args, "--threads", cores.max(2));
    let clients = arg_usize_list(&args, "--clients", &[1, 4, 16]);
    let queries_per_client = arg_usize(&args, "--queries", 30);
    let parallelism = arg_usize(&args, "--parallelism", 2);
    let out_path =
        arg_str(&args, "--out").unwrap_or_else(|| "BENCH_SERVER_THROUGHPUT.json".to_string());

    if cores == 1 {
        eprintln!(
            "warning: only 1 hardware core detected — throughput deltas here \
             measure thread-spawn/scheduling overhead only"
        );
    }

    // The query mix: one light and one heavy query per SSB flight.
    let mix: Vec<QuerySpec> = vec![
        queries::q1_1(),
        queries::q2_3(),
        queries::q3_2(),
        queries::q4_1(),
    ];

    eprintln!("generating SSB at sf={sf} and preparing indexes …");
    let mut ssb = SsbDb::generate(sf, seed);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &PlanOptions::default()).expect("SSB prepares");
    }
    let db = Arc::new(ssb.db);

    // Shared-pool server, admission 2× the widest client set.
    let pool = WorkerPool::new(threads, clients.iter().copied().max().unwrap_or(4) * 2);
    let defaults = PlanOptions::default().with_parallelism(parallelism);
    let engine = Arc::new(ServeEngine::over_db(
        db.clone(),
        pool.clone(),
        defaults,
        sf,
        seed,
    ));
    let server = serve(engine, "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();

    // Correctness anchor before timing anything.
    let oracle = QpptEngine::new(&db);
    {
        let mut probe = QpptClient::connect(addr).expect("connect");
        for q in &mix {
            let served = probe
                .run(&q.id.to_ascii_lowercase(), &[])
                .expect("probe query");
            let expected = oracle.run(q, &PlanOptions::default()).expect("oracle");
            assert_eq!(served.result, expected, "{} served result diverged", q.id);
        }
    }

    let run_opts = PlanOptions::default().with_parallelism(parallelism);
    let mut rows = Vec::new();
    let mut series = Vec::new();
    let serve_pass = |c: usize, cache: &'static str| {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ci in 0..c {
                let mix = &mix;
                s.spawn(move || {
                    let mut client = QpptClient::connect(addr).expect("connect");
                    let par = parallelism.to_string();
                    for i in 0..queries_per_client {
                        let q = &mix[(ci + i) % mix.len()];
                        client
                            .run(
                                &q.id.to_ascii_lowercase(),
                                &[("parallelism", &par), ("cache", cache)],
                            )
                            .expect("served query");
                    }
                });
            }
        });
        (c * queries_per_client) as f64 / t0.elapsed().as_secs_f64()
    };
    // One untimed pass fills the result tier, so every timed cached pass
    // below measures the same thing (warm hits) at every client count.
    {
        let mut warm = QpptClient::connect(addr).expect("connect");
        let par = parallelism.to_string();
        for q in &mix {
            warm.run(&q.id.to_ascii_lowercase(), &[("parallelism", &par)])
                .expect("warming query");
        }
    }

    for &c in &clients {
        // Served, engine-only: C connections hammering the shared pool
        // with the query cache bypassed.
        let served_qps = serve_pass(c, "off");
        // Served, hot path: same load on the default cached path.
        let cached_qps = serve_pass(c, "on");

        // Baseline: same offered load, but every query spawns (and joins)
        // its own worker pool.
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ci in 0..c {
                let mix = &mix;
                let db = &db;
                s.spawn(move || {
                    for i in 0..queries_per_client {
                        let q = &mix[(ci + i) % mix.len()];
                        let pool = WorkerPool::new(parallelism, 1);
                        PooledEngine::new(db.clone(), pool.clone())
                            .run(q, &run_opts)
                            .expect("baseline query");
                        pool.shutdown();
                    }
                });
            }
        });
        let baseline_qps = (c * queries_per_client) as f64 / t0.elapsed().as_secs_f64();

        let ratio = if baseline_qps > 0.0 {
            served_qps / baseline_qps
        } else {
            0.0
        };
        rows.push(vec![
            c.to_string(),
            format!("{served_qps:.1}"),
            format!("{cached_qps:.1}"),
            format!("{baseline_qps:.1}"),
            format!("{ratio:.2}x"),
        ]);
        series.push((c, served_qps, cached_qps, baseline_qps, ratio));
    }

    println!(
        "server throughput, sf={sf}, pool={threads} threads, parallelism={parallelism}, {} queries/client:",
        queries_per_client
    );
    print_table(
        &[
            "clients",
            "served q/s (cache=off)",
            "served q/s (cached)",
            "spawn-per-query q/s",
            "served/baseline",
        ],
        &rows,
    );

    // Hand-rolled JSON (the workspace is dependency-free by design).
    let entries: Vec<String> = series
        .iter()
        .map(|(c, s, cc, b, r)| {
            format!(
                "    {{\"clients\": {c}, \"served_qps\": {s:.3}, \"served_cached_qps\": {cc:.3}, \"baseline_qps\": {b:.3}, \"served_over_baseline\": {r:.3}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"server_throughput\",\n  \"sf\": {sf},\n  \"cores\": {cores},\n  \"pool_threads\": {threads},\n  \"parallelism\": {parallelism},\n  \"queries_per_client\": {queries_per_client},\n  \"mix\": [\"Q1.1\", \"Q2.3\", \"Q3.2\", \"Q4.1\"],\n  \"series\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let mut f = std::fs::File::create(&out_path).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    eprintln!("wrote {out_path}");

    let mut stop = QpptClient::connect(addr).expect("connect");
    let _ = stop.ping();
    drop(stop);
    server.stop();
    pool.shutdown();
}
