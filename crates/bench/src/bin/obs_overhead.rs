//! Observability overhead: queries/second through a fully instrumented
//! `qppt-server` (metrics registry + pool gauges wired, the default) vs.
//! the same server built without observability (`--no-obs`), on the same
//! shared pool size and query mix.
//!
//! Both servers stay up for the whole run and the timed passes alternate
//! between them round-robin (A, B, A, B, …), so drift in the host's load
//! hits both configurations equally; each configuration's reported q/s is
//! its median round. Every pass is the shared [`qppt_bench::timed_pass`]:
//! clients connect before the clock starts, a barrier releases them
//! together, and each issues at least the pass's query count and keeps
//! going until `WINDOW` has elapsed — so a pass times requests, not thread
//! spawn and TCP connect.
//!
//! Two paths are measured at every client count — `cache=off` (every
//! request executes the engine; per-request bookkeeping is amortized over
//! real work) and the warm cached path (result-tier hits, where the
//! counter increments are the largest *relative* cost). The regression
//! gate applies to the cached path: it is the adversarial case for
//! instrumentation overhead.
//!
//! Writes `BENCH_OBS_OVERHEAD.json` and exits non-zero if the cached-path
//! regression at any client count exceeds `--max-regression-pct`
//! (default 3; pass 0 to disable the gate). The gate reads the *minimum*
//! regression across rounds: a real systematic overhead is present in
//! every round, while scheduler noise is not, so one clean round within
//! the budget passes:
//!
//! ```text
//! cargo run --release --bin obs_overhead -- \
//!     --sf 0.02 --clients 1,4 --queries 40 --rounds 3 \
//!     --out BENCH_OBS_OVERHEAD.json
//! ```

use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use qppt_bench::{
    arg_f64, arg_str, arg_usize, arg_usize_list, percentile, print_table, timed_pass,
};
use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt_par::WorkerPool;
use qppt_server::{detected_cores, serve, QpptClient, ServeEngine, ServeObs};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::QuerySpec;

/// Minimum timed span of one pass: long enough that even a cached pass
/// (tens of µs per request) times thousands of requests.
const WINDOW: Duration = Duration::from_millis(300);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sf = arg_f64(&args, "--sf", 0.02);
    let seed = 42u64;
    let cores = detected_cores();
    let threads = arg_usize(&args, "--threads", cores.max(2));
    let clients = arg_usize_list(&args, "--clients", &[1, 4]);
    let queries_per_client = arg_usize(&args, "--queries", 40);
    // Warm hits are tens of µs each: the cached passes need a much larger
    // count to make each timing window long enough to be meaningful.
    let cached_queries = arg_usize(&args, "--cached-queries", queries_per_client * 50);
    let rounds = arg_usize(&args, "--rounds", 3);
    let parallelism = arg_usize(&args, "--parallelism", 2);
    let max_regression_pct = arg_f64(&args, "--max-regression-pct", 3.0);
    let out_path = arg_str(&args, "--out").unwrap_or_else(|| "BENCH_OBS_OVERHEAD.json".to_string());

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
    let admission = clients.iter().copied().max().unwrap_or(4) * 2;
    let defaults = PlanOptions::default().with_parallelism(parallelism);

    // Two identical servers over the same database — one instrumented (the
    // default configuration), one built the way `--no-obs` builds it.
    let obs = ServeObs::new(None);
    let obs_pool = WorkerPool::new_with_metrics(threads, admission, Some(obs.pool_metrics()));
    let obs_engine =
        ServeEngine::over_db(db.clone(), obs_pool.clone(), defaults, sf, seed).with_obs(obs);
    let obs_server = serve(Arc::new(obs_engine), "127.0.0.1:0").expect("bind instrumented");

    let bare_pool = WorkerPool::new(threads, admission);
    let bare_engine = ServeEngine::over_db(db.clone(), bare_pool.clone(), defaults, sf, seed);
    let bare_server = serve(Arc::new(bare_engine), "127.0.0.1:0").expect("bind no-obs");

    // Correctness anchor: both servers byte-identical to the oracle.
    let oracle = QpptEngine::new(&db);
    for addr in [obs_server.addr(), bare_server.addr()] {
        let mut probe = QpptClient::connect(addr).expect("connect");
        for q in &mix {
            let served = probe
                .run(&q.id.to_ascii_lowercase(), &[])
                .expect("probe query");
            let expected = oracle.run(q, &PlanOptions::default()).expect("oracle");
            assert_eq!(served.result, expected, "{} served result diverged", q.id);
        }
        // The probe pass doubles as the result-tier warm-up, so every
        // timed cached pass below measures warm hits on both servers.
    }

    let par = parallelism.to_string();
    let pass = |addr: SocketAddr, c: usize, n: usize, cache: &str| -> f64 {
        let options = [("parallelism", par.as_str()), ("cache", cache)];
        timed_pass(&addr.to_string(), &mix, c, n, WINDOW, &options)
    };

    let mut rows = Vec::new();
    let mut series = Vec::new();
    let mut gate_failures = Vec::new();
    for &c in &clients {
        // Alternate configurations within every round so host-load drift
        // cancels; report each configuration's median round.
        let (mut obs_engine_rounds, mut bare_engine_rounds) = (Vec::new(), Vec::new());
        let (mut obs_cached_rounds, mut bare_cached_rounds) = (Vec::new(), Vec::new());
        let mut round_cached_regs = Vec::new();
        for round in 0..rounds {
            // Swap which server goes first every round, so neither side
            // systematically benefits from running after a quiet gap.
            let (first, second) = if round % 2 == 0 {
                (obs_server.addr(), bare_server.addr())
            } else {
                (bare_server.addr(), obs_server.addr())
            };
            let (fe, se) = (
                pass(first, c, queries_per_client, "off"),
                pass(second, c, queries_per_client, "off"),
            );
            let (fc, sc) = (
                pass(first, c, cached_queries, "on"),
                pass(second, c, cached_queries, "on"),
            );
            let (oe, be, oc, bc) = if round % 2 == 0 {
                (fe, se, fc, sc)
            } else {
                (se, fe, sc, fc)
            };
            obs_engine_rounds.push(oe);
            bare_engine_rounds.push(be);
            obs_cached_rounds.push(oc);
            bare_cached_rounds.push(bc);
            if bc > 0.0 {
                round_cached_regs.push((1.0 - oc / bc) * 100.0);
            }
        }
        let obs_engine_qps = percentile(&mut obs_engine_rounds, 50.0);
        let bare_engine_qps = percentile(&mut bare_engine_rounds, 50.0);
        let obs_cached_qps = percentile(&mut obs_cached_rounds, 50.0);
        let bare_cached_qps = percentile(&mut bare_cached_rounds, 50.0);
        let regression = |instrumented: f64, bare: f64| {
            if bare > 0.0 {
                (1.0 - instrumented / bare) * 100.0
            } else {
                0.0
            }
        };
        let engine_reg = regression(obs_engine_qps, bare_engine_qps);
        let cached_reg = regression(obs_cached_qps, bare_cached_qps);
        // The gate reads the *minimum* per-round regression: a systematic
        // overhead shows up in every round, scheduler noise does not — so
        // one clean round within the budget is a pass.
        let gate_reg = round_cached_regs
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if max_regression_pct > 0.0 && gate_reg > max_regression_pct {
            gate_failures.push((c, gate_reg));
        }
        rows.push(vec![
            c.to_string(),
            format!("{obs_engine_qps:.1}"),
            format!("{bare_engine_qps:.1}"),
            format!("{engine_reg:+.2}%"),
            format!("{obs_cached_qps:.1}"),
            format!("{bare_cached_qps:.1}"),
            format!("{cached_reg:+.2}%"),
        ]);
        series.push((
            c,
            obs_engine_qps,
            bare_engine_qps,
            engine_reg,
            obs_cached_qps,
            bare_cached_qps,
            cached_reg,
            gate_reg,
        ));
    }

    println!(
        "observability overhead, sf={sf}, pool={threads} threads, parallelism={parallelism}, \
         ≥ {queries_per_client} engine + ≥ {cached_queries} cached queries/client \
         (≥ {} ms per pass), median of {rounds} rounds:",
        WINDOW.as_millis()
    );
    print_table(
        &[
            "clients",
            "obs q/s (engine)",
            "no-obs q/s (engine)",
            "regression",
            "obs q/s (cached)",
            "no-obs q/s (cached)",
            "regression",
        ],
        &rows,
    );

    // Hand-rolled JSON (the workspace is dependency-free by design).
    let entries: Vec<String> = series
        .iter()
        .map(|(c, oe, be, er, oc, bc, cr, gr)| {
            format!(
                "    {{\"clients\": {c}, \"obs_engine_qps\": {oe:.3}, \"no_obs_engine_qps\": {be:.3}, \
                 \"engine_regression_pct\": {er:.3}, \"obs_cached_qps\": {oc:.3}, \
                 \"no_obs_cached_qps\": {bc:.3}, \"cached_regression_pct\": {cr:.3}, \
                 \"min_round_cached_regression_pct\": {gr:.3}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"sf\": {sf},\n  \"cores\": {cores},\n  \
         \"pool_threads\": {threads},\n  \"parallelism\": {parallelism},\n  \
         \"queries_per_client\": {queries_per_client},\n  \
         \"cached_queries_per_client\": {cached_queries},\n  \"rounds\": {rounds},\n  \
         \"window_ms\": {},\n  \
         \"max_regression_pct\": {max_regression_pct},\n  \
         \"mix\": [\"Q1.1\", \"Q2.3\", \"Q3.2\", \"Q4.1\"],\n  \"series\": [\n{}\n  ]\n}}\n",
        WINDOW.as_millis(),
        entries.join(",\n")
    );
    let mut f = std::fs::File::create(&out_path).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    eprintln!("wrote {out_path}");

    obs_server.stop();
    bare_server.stop();
    obs_pool.shutdown();
    bare_pool.shutdown();

    if !gate_failures.is_empty() {
        for (c, reg) in &gate_failures {
            eprintln!(
                "obs_overhead: FAIL — cached-path regression ≥ {reg:.2}% in every round \
                 at {c} client(s), exceeding the {max_regression_pct}% gate"
            );
        }
        std::process::exit(1);
    }
    eprintln!(
        "obs_overhead: PASS (cached-path regression within {max_regression_pct}% everywhere)"
    );
}
