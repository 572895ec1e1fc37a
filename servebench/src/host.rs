//! Hosts the system under test in-process on loopback: one
//! `qppt-server` engine, or a 2-shard fleet behind a `qppt-router`, each
//! assembled the way the `qppt-server` / `qppt-router` binaries assemble
//! themselves with their default flags.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qppt_cache::CacheConfig;
use qppt_core::PlanOptions;
use qppt_par::{prepare_indexes_pooled, WorkerPool};
use qppt_router::{serve_router, Router, RouterConfig, RouterObs};
use qppt_server::{detected_cores, serve, QpptClient, ServeEngine, ServeObs, ServerHandle};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::Database;

use crate::stream::Workload;

/// Shards behind the router on the `routed` workload.
pub const ROUTED_SHARDS: usize = 2;

/// Set-up phases of one hosting, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `SsbDb::generate_shard`, summed over shards.
    pub gen_s: f64,
    /// `prepare_indexes_pooled` for the 13 templates, summed over shards.
    pub index_s: f64,
    /// Generation, index build, listeners up, clients connected.
    pub total_s: f64,
}

/// One shard: its engine (for in-process layer calls and metric
/// renders), its listener and its pool.
pub struct Shard {
    pub engine: Arc<ServeEngine>,
    pub db: Arc<Database>,
    handle: ServerHandle,
    pool: Arc<WorkerPool>,
}

/// The hosted system plus the benchmark's connected clients.
pub struct Host {
    pub shards: Vec<Shard>,
    /// The address clients talk to: the server, or the router.
    pub addr: String,
    router: Option<ServerHandle>,
    pub clients: Vec<QpptClient>,
    pub times: SetupTimes,
}

/// Pool threads per shard: every core for a lone server, an even share
/// of them for each shard of the fleet.
pub fn pool_threads(workload: Workload) -> usize {
    match workload {
        Workload::Routed => (detected_cores() / ROUTED_SHARDS).max(1),
        _ => detected_cores(),
    }
}

fn start_shard(
    sf: f64,
    seed: u64,
    i: usize,
    n: usize,
    threads: usize,
    t: &mut SetupTimes,
) -> Shard {
    let obs = ServeObs::new(None);
    let admission = (2 * threads).max(4);
    let pool = WorkerPool::new_with_metrics(threads, admission, Some(obs.pool_metrics()));
    let defaults = PlanOptions::default()
        .with_parallelism(threads)
        .with_par_index_build(true);
    let started = Instant::now();
    let mut ssb = SsbDb::generate_shard(sf, seed, i, n);
    t.gen_s += started.elapsed().as_secs_f64();
    let started = Instant::now();
    for q in queries::all_queries() {
        prepare_indexes_pooled(&mut ssb.db, &q, &defaults, &pool).expect("SSB prepares");
    }
    t.index_s += started.elapsed().as_secs_f64();
    let db = Arc::new(ssb.db);
    let engine = Arc::new(
        ServeEngine::over_db_with_config(
            db.clone(),
            pool.clone(),
            defaults,
            sf,
            seed,
            CacheConfig::default(),
        )
        .with_shard_info(i, n)
        .with_obs(obs),
    );
    let handle = serve(engine.clone(), "127.0.0.1:0").expect("shard binds on loopback");
    Shard {
        engine,
        db,
        handle,
        pool,
    }
}

impl Host {
    /// Generates the data, builds the indexes, brings the listeners up
    /// and connects `clients` clients.
    pub fn start(workload: Workload, sf: f64, seed: u64, clients: usize) -> Self {
        let started = Instant::now();
        let mut times = SetupTimes::default();
        let threads = pool_threads(workload);
        let n = if workload == Workload::Routed {
            ROUTED_SHARDS
        } else {
            1
        };
        let shards: Vec<Shard> = (0..n)
            .map(|i| start_shard(sf, seed, i, n, threads, &mut times))
            .collect();
        let (addr, router) = if workload == Workload::Routed {
            let addrs = shards.iter().map(|s| s.handle.addr().to_string()).collect();
            let router = Router::new(RouterConfig::new(addrs)).with_obs(RouterObs::new(n, None));
            router
                .wait_for_shards(Duration::from_secs(60))
                .expect("shards answer PING");
            let h = serve_router(Arc::new(router), "127.0.0.1:0").expect("router binds");
            (h.addr().to_string(), Some(h))
        } else {
            (shards[0].handle.addr().to_string(), None)
        };
        let clients = (0..clients)
            .map(|_| QpptClient::connect(addr.as_str()).expect("client connects"))
            .collect();
        times.total_s = started.elapsed().as_secs_f64();
        Self {
            shards,
            addr,
            router,
            clients,
            times,
        }
    }

    /// A fresh connection for snapshots (`METRICS`, `CACHE STATS`).
    pub fn control(&self) -> QpptClient {
        QpptClient::connect(self.addr.as_str()).expect("control connection")
    }

    /// Resident bytes of every base index across shards.
    pub fn index_bytes(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.db.indexes())
            .map(|ix| ix.data.memory_bytes())
            .sum()
    }

    /// Closes the clients, stops every listener and pool, and waits for
    /// their threads.
    pub fn stop(self) {
        drop(self.clients);
        if let Some(r) = self.router {
            r.stop();
        }
        for s in self.shards {
            s.handle.stop();
            s.pool.shutdown();
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
