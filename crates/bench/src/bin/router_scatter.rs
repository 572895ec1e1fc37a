//! Scatter/gather cost of the sharded serving path: queries/second through
//! a `qppt-router` fronting 1/2/4 prefix-sharded `qppt-server` instances
//! vs. the same load served directly by one unsharded server — all
//! in-process over loopback, all on the one shared `WorkerPool`, so the
//! delta is the router's own work (forwarding, per-shard partials,
//! deterministic merge) rather than hardware.
//!
//! Every timed pass runs with `cache=off` so each request really scatters
//! and merges, and its clients connect before the clock starts (the shared
//! [`qppt_bench::timed_pass`]); a correctness anchor first asserts every
//! merged answer is byte-identical to the sequential oracle.
//!
//! A final `failover_latency` phase measures what a replica failover
//! *costs* the request that hits it: a 2-range × 2-replica fleet (primary
//! behind a chaos proxy, sibling direct), `--failover-cycles` kill → timed
//! query → revive → probe-recovery rounds, reporting the p50/p99 latency
//! the failover path adds over the healthy path.
//!
//! Writes `BENCH_ROUTER_SCATTER.json`:
//!
//! ```text
//! cargo run --release --bin router_scatter -- \
//!     --sf 0.05 --threads 4 --shards 1,2,4 --clients 4 --queries 30 \
//!     --failover-cycles 15 --out BENCH_ROUTER_SCATTER.json
//! ```

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qppt_bench::{
    arg_f64, arg_str, arg_usize, arg_usize_list, percentile, print_table, timed_pass,
};
use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt_par::WorkerPool;
use qppt_router::{serve_router, ChaosProxy, Router, RouterConfig};
use qppt_server::{detected_cores, serve, QpptClient, ServeEngine, ServerHandle};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::QuerySpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sf = arg_f64(&args, "--sf", 0.05);
    let seed = 42u64;
    let cores = detected_cores();
    let threads = arg_usize(&args, "--threads", cores.max(2));
    let shard_counts = arg_usize_list(&args, "--shards", &[1, 2, 4]);
    let clients = arg_usize(&args, "--clients", 4);
    let queries_per_client = arg_usize(&args, "--queries", 30);
    let parallelism = arg_usize(&args, "--parallelism", 2);
    let failover_cycles = arg_usize(&args, "--failover-cycles", 15);
    let out_path =
        arg_str(&args, "--out").unwrap_or_else(|| "BENCH_ROUTER_SCATTER.json".to_string());

    // One light and one heavy query per SSB flight.
    let mix: Vec<QuerySpec> = vec![
        queries::q1_1(),
        queries::q2_3(),
        queries::q3_2(),
        queries::q4_1(),
    ];

    // The oracle: the sequential engine over the full, unsharded instance.
    eprintln!("generating SSB at sf={sf} and preparing the oracle …");
    let opts = PlanOptions::default();
    let mut ssb = SsbDb::generate(sf, seed);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &opts).expect("SSB prepares");
    }
    let oracle = QpptEngine::new(&ssb.db);
    let expected: Vec<_> = mix
        .iter()
        .map(|q| oracle.run(q, &opts).expect("oracle runs"))
        .collect();

    let pool = WorkerPool::new(threads, clients.max(4) * 2);
    let defaults = PlanOptions::default().with_parallelism(parallelism);

    // Direct baseline: one unsharded server on the same pool.
    let direct = serve(
        Arc::new(
            ServeEngine::with_ssb_shard(sf, seed, pool.clone(), defaults, 0, 1)
                .expect("direct engine builds"),
        ),
        "127.0.0.1:0",
    )
    .expect("direct server binds");
    let direct_addr = direct.addr().to_string();
    let par = parallelism.to_string();
    let options = [("parallelism", par.as_str()), ("cache", "off")];
    let pass = |addr: &str| {
        timed_pass(
            addr,
            &mix,
            clients,
            queries_per_client,
            Duration::ZERO,
            &options,
        )
    };
    let baseline_qps = pass(&direct_addr);

    let mut rows = Vec::new();
    let mut series = Vec::new();
    for &shards in &shard_counts {
        // The fleet: `shards` prefix-sharded servers plus the router.
        let mut handles: Vec<ServerHandle> = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..shards {
            let engine = ServeEngine::with_ssb_shard(sf, seed, pool.clone(), defaults, i, shards)
                .expect("shard engine builds");
            let h = serve(Arc::new(engine), "127.0.0.1:0").expect("shard binds");
            addrs.push(h.addr().to_string());
            handles.push(h);
        }
        let router = Arc::new(Router::new(RouterConfig::new(addrs)));
        router
            .wait_for_shards(std::time::Duration::from_secs(60))
            .expect("shards answer PING");
        let rh = serve_router(router, "127.0.0.1:0").expect("router binds");
        let raddr = rh.addr().to_string();

        // Correctness anchor before timing anything.
        {
            let mut probe = QpptClient::connect(&*raddr).expect("connect router");
            for (qi, q) in mix.iter().enumerate() {
                let served = probe
                    .run(&q.id.to_ascii_lowercase(), &[])
                    .expect("probe query");
                assert_eq!(
                    served.result, expected[qi],
                    "{} merged result diverged at {shards} shards",
                    q.id
                );
            }
        }

        let qps = pass(&raddr);
        let ratio = if baseline_qps > 0.0 {
            qps / baseline_qps
        } else {
            0.0
        };
        rows.push(vec![
            shards.to_string(),
            format!("{qps:.1}"),
            format!("{baseline_qps:.1}"),
            format!("{ratio:.2}x"),
        ]);
        series.push((shards, qps, ratio));

        rh.stop();
        for h in handles {
            h.stop();
        }
    }
    direct.stop();

    let (healthy_p50, added_p50, added_p99) =
        failover_latency(sf, seed, &pool, defaults, parallelism, failover_cycles);

    pool.shutdown();

    println!(
        "router scatter/gather, sf={sf}, pool={threads} threads, parallelism={parallelism}, \
         {clients} clients × {queries_per_client} queries (cache=off):"
    );
    print_table(
        &["shards", "routed q/s", "direct q/s", "routed/direct"],
        &rows,
    );
    println!(
        "failover latency ({failover_cycles} kill→query→revive cycles, 2 ranges × 2 replicas): \
         healthy p50 {healthy_p50:.0} µs, failover adds p50 {added_p50:.0} µs / p99 \
         {added_p99:.0} µs"
    );

    // Hand-rolled JSON (the workspace is dependency-free by design).
    let entries: Vec<String> = series
        .iter()
        .map(|(s, q, r)| {
            format!(
                "    {{\"shards\": {s}, \"routed_qps\": {q:.3}, \"routed_over_direct\": {r:.3}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"router_scatter\",\n  \"sf\": {sf},\n  \"cores\": {cores},\n  \"pool_threads\": {threads},\n  \"parallelism\": {parallelism},\n  \"clients\": {clients},\n  \"queries_per_client\": {queries_per_client},\n  \"mix\": [\"Q1.1\", \"Q2.3\", \"Q3.2\", \"Q4.1\"],\n  \"direct_qps\": {baseline_qps:.3},\n  \"series\": [\n{}\n  ],\n  \"failover_latency\": {{\"cycles\": {failover_cycles}, \"healthy_p50_micros\": {healthy_p50:.1}, \"added_p50_micros\": {added_p50:.1}, \"added_p99_micros\": {added_p99:.1}}}\n}}\n",
        entries.join(",\n")
    );
    let mut f = std::fs::File::create(&out_path).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    eprintln!("wrote {out_path}");
}

/// The failover-latency phase: a 2-range × 2-replica fleet where each
/// range's primary sits behind a [`ChaosProxy`] and its sibling is the
/// shard's direct address. Each cycle kills the range-0 proxy, times the
/// query that eats the failover (detection + backoff + sibling retry),
/// revives the proxy, and waits for the health prober to flip the replica
/// live again (polled through the router's own `INFO replicas_live=`
/// field). Returns `(healthy_p50, added_p50, added_p99)` in microseconds,
/// where *added* is the failover query's latency minus the healthy p50,
/// floored at zero.
fn failover_latency(
    sf: f64,
    seed: u64,
    pool: &Arc<WorkerPool>,
    defaults: PlanOptions,
    parallelism: usize,
    cycles: usize,
) -> (f64, f64, f64) {
    eprintln!("failover latency: 2 ranges × 2 replicas, {cycles} kill→query→revive cycles …");
    let mut handles: Vec<ServerHandle> = Vec::new();
    let mut proxies = Vec::new();
    let mut fleet = Vec::new();
    for i in 0..2 {
        let engine = ServeEngine::with_ssb_shard(sf, seed, pool.clone(), defaults, i, 2)
            .expect("shard engine builds");
        let h = serve(Arc::new(engine), "127.0.0.1:0").expect("shard binds");
        let proxy = ChaosProxy::start(h.addr().to_string()).expect("proxy binds");
        fleet.push(vec![proxy.addr(), h.addr().to_string()]);
        proxies.push(proxy);
        handles.push(h);
    }
    let mut config = RouterConfig::with_fleet(fleet);
    config.retry_backoff = Duration::from_millis(5);
    config.retry_backoff_cap = Duration::from_millis(50);
    config.probe_interval = Duration::from_millis(50);
    config.probe_backoff_cap = Duration::from_millis(200);
    let router = Arc::new(Router::new(config));
    router
        .wait_for_shards(Duration::from_secs(60))
        .expect("fleet answers PING");
    let rh = serve_router(router, "127.0.0.1:0").expect("router binds");
    let mut client = QpptClient::connect(&*rh.addr().to_string()).expect("connect router");
    let par = parallelism.to_string();

    let wait_live = |client: &mut QpptClient, want: &str| {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let info = client.info().expect("router INFO answers");
            let live = info
                .iter()
                .find(|(k, _)| k == "replicas_live")
                .map(|(_, v)| v.as_str())
                .expect("router INFO reports replicas_live")
                .to_string();
            if live == want {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "replicas_live stuck at {live}, want {want}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    let timed_query = |client: &mut QpptClient| -> f64 {
        let t0 = Instant::now();
        client
            .run("q2.3", &[("parallelism", &par), ("cache", "off")])
            .expect("failover-phase query");
        t0.elapsed().as_secs_f64() * 1e6
    };

    // Healthy baseline through the same topology (primary = proxy hop).
    let mut healthy: Vec<f64> = (0..20).map(|_| timed_query(&mut client)).collect();
    let healthy_p50 = percentile(&mut healthy, 50.0);

    let mut added: Vec<f64> = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        proxies[0].kill();
        added.push((timed_query(&mut client) - healthy_p50).max(0.0));
        proxies[0].revive().expect("proxy rebinds its port");
        wait_live(&mut client, "4");
    }
    let added_p50 = percentile(&mut added.clone(), 50.0);
    let added_p99 = percentile(&mut added, 99.0);

    rh.stop();
    for p in &proxies {
        p.kill();
    }
    for h in handles {
        h.stop();
    }
    (healthy_p50, added_p50, added_p99)
}
