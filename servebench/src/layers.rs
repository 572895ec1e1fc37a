//! The traced run's per-layer figures. Two sources, both taken from the
//! benchmark's side of each layer's public interface:
//!
//! * a replay of the traced window's requests through each layer's
//!   public functions, one span per call (`server.parse` →
//!   `protocol::parse_request`, `query.parse` → `qppt_query::parse`,
//!   `core.validate` / `core.plan` / `core.sigma` / `core.exec.qN` →
//!   `validate` / `build_plan` / `PreparedQuery::from_plan` /
//!   `execute_sequential`, `par.run` → `PooledEngine::run_prepared`);
//! * `METRICS` and `CACHE STATS` snapshots taken just before and just
//!   after the traced window.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use qppt_core::{build_plan, validate, PreparedQuery};
use qppt_obs::{parse_exposition, Exposition};
use qppt_server::protocol::{parse_request, Request as WireRequest};
use qppt_server::QpptClient;

use crate::drive::{cache_stats, digest, tier_hit_ratios, Phase};
use crate::host::{SetupTimes, Shard};
use crate::stats::median;
use crate::stream::{Request, Workload};
use crate::trace::Recorder;

/// Replayed requests per template.
pub const REPLAY_PER_TEMPLATE: usize = 8;

/// Counters read before and after the traced window.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub cache: BTreeMap<String, f64>,
    pub metrics: Exposition,
}

impl Snapshot {
    pub fn take(control: &mut QpptClient) -> Self {
        let text = control.metrics().expect("METRICS answers");
        Self {
            cache: cache_stats(control),
            metrics: parse_exposition(&text).expect("METRICS is a valid exposition"),
        }
    }

    /// Sum of every sample named `name`, whatever its labels.
    fn counter(&self, name: &str) -> f64 {
        self.metrics
            .samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value as f64)
            .sum()
    }

    /// Cumulative bucket counts of histogram `family`, summed over its
    /// other labels, by upper bound (`+Inf` as infinity).
    fn buckets(&self, family: &str) -> Vec<(f64, f64)> {
        let name = format!("{family}_bucket");
        let mut by_le: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.metrics.samples.iter().filter(|s| s.name == name) {
            let le = match s.label("le") {
                Some("+Inf") => f64::INFINITY,
                Some(v) => v.parse().expect("numeric le"),
                None => continue,
            };
            *by_le.entry(le.to_bits()).or_default() += s.value as f64;
        }
        let mut out: Vec<(f64, f64)> = by_le
            .into_iter()
            .map(|(b, c)| (f64::from_bits(b), c))
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

/// Quantile `q` of the observations histogram `family` gained between two
/// snapshots, interpolated linearly inside its bucket (0 if none).
pub fn hist_quantile(before: &Snapshot, after: &Snapshot, family: &str, q: f64) -> f64 {
    let b: HashMap<u64, f64> = before
        .buckets(family)
        .into_iter()
        .map(|(le, c)| (le.to_bits(), c))
        .collect();
    let cum: Vec<(f64, f64)> = after
        .buckets(family)
        .into_iter()
        .map(|(le, c)| (le, c - b.get(&le.to_bits()).copied().unwrap_or(0.0)))
        .collect();
    quantile_of_cumulative(&cum, q)
}

fn quantile_of_cumulative(cum: &[(f64, f64)], q: f64) -> f64 {
    let total = cum.last().map_or(0.0, |c| c.1);
    if total <= 0.0 {
        return 0.0;
    }
    let target = q * total;
    let (mut lo, mut below) = (0.0, 0.0);
    for &(le, c) in cum {
        if c >= target {
            if le.is_infinite() || c <= below {
                return lo;
            }
            return lo + (le - lo) * (target - below) / (c - below);
        }
        lo = le;
        below = c;
    }
    lo
}

/// What the replay measured besides its spans.
#[derive(Debug, Default)]
pub struct Replay {
    pub spans: Option<Recorder>,
    /// `ExecStats` tuples summed over every operator of every request.
    pub tuples: f64,
    pub rows: f64,
    /// Requests whose sequential, pooled or served answers disagreed.
    pub mismatched: u64,
}

const EXEC_SPANS: [&str; 4] = [
    "core.exec.q1",
    "core.exec.q2",
    "core.exec.q3",
    "core.exec.q4",
];

/// Up to [`REPLAY_PER_TEMPLATE`] distinct requests per template from the
/// window, in order of first appearance, with their lines.
fn replay_set(window: &Phase, pool: &[Request]) -> Vec<(u64, usize, String)> {
    let mut seen = HashSet::new();
    let mut per_template = [0usize; 13];
    let mut out = Vec::new();
    for r in &window.recs {
        if per_template[r.template] >= REPLAY_PER_TEMPLATE || !seen.insert(r.key) {
            continue;
        }
        let line = match r.pool_idx {
            Some(i) => pool[i].line.clone(),
            None => window.fresh_lines[&r.key].clone(),
        };
        per_template[r.template] += 1;
        out.push((r.key, r.template, line));
    }
    out
}

/// Replays the window's requests through the layers of `shard` in
/// process. `served` holds the client-side digest of each key when the
/// shard alone answered it (not behind the router).
pub fn replay(
    epoch: Instant,
    shard: &Shard,
    window: &Phase,
    pool: &[Request],
    served: Option<&HashMap<u64, u64>>,
) -> Replay {
    let db = shard.db.as_ref();
    let engine = &shard.engine;
    let opts = engine.defaults();
    let mut rec = Recorder::new(epoch);
    let mut out = Replay::default();
    for (key, template, line) in replay_set(window, pool) {
        let root = rec.open("replay.request", key);
        let wire = rec.time("server.parse", Some(root), key, || parse_request(&line));
        let spec = match wire.expect("generated lines parse") {
            WireRequest::Run { query, .. } => {
                engine.resolve(&query).expect("alias resolves").clone()
            }
            WireRequest::Query { .. } => {
                let text = line.strip_prefix("QUERY ").expect("QUERY line");
                rec.time("query.parse", Some(root), key, || qppt_query::parse(text))
                    .expect("generated texts parse")
            }
            other => panic!("the streams send only RUN and QUERY, not {other:?}"),
        };
        rec.time("core.validate", Some(root), key, || {
            validate(db, &spec, &opts)
        })
        .expect("generated specs validate");
        let plan = rec
            .time("core.plan", Some(root), key, || {
                build_plan(db, &spec, &opts)
            })
            .expect("generated specs plan");
        let snap = db.snapshot();
        let prepared = rec
            .time("core.sigma", Some(root), key, || {
                PreparedQuery::from_plan(db, Arc::new(plan), snap)
            })
            .expect("σ materializes");
        let flight = crate::stream::flight_of(template);
        let (seq, stats) = rec
            .time(EXEC_SPANS[flight - 1], Some(root), key, || {
                prepared.execute_sequential(db)
            })
            .expect("sequential execution");
        let (par, _) = rec
            .time("par.run", Some(root), key, || {
                engine.pooled().run_prepared(&prepared, 0)
            })
            .expect("pooled execution");
        rec.close(root);
        out.tuples += stats.ops.iter().map(|o| o.out_tuples as f64).sum::<f64>();
        out.rows += seq.rows.len() as f64;
        let d = digest(&seq);
        let served_differs = served.and_then(|m| m.get(&key)).is_some_and(|s| *s != d);
        if digest(&par) != d || served_differs {
            eprintln!("replay mismatch: {line}");
            out.mismatched += 1;
        }
    }
    out.spans = Some(rec);
    out
}

/// One named figure with its unit.
pub type Metric = (String, f64, &'static str);

/// Everything the per-layer figures are computed from.
pub struct Inputs<'a> {
    pub workload: Workload,
    pub window: &'a Phase,
    pub untraced_qps: f64,
    pub before: &'a Snapshot,
    pub after: &'a Snapshot,
    pub replay: &'a Replay,
    pub setups: &'a [SetupTimes],
    pub index_bytes: usize,
}

/// The per-layer metrics, in `BENCHMARK.json` order. Router figures are
/// 0 on workloads without a router.
pub fn per_layer(i: &Inputs) -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::new();
    let w = i.window;
    let ok: Vec<_> = w.recs.iter().filter(|r| r.ok).collect();
    let requests = w.recs.len().max(1) as f64;
    let per_1k = |d: f64| d * 1000.0 / requests;
    let delta = |name: &str| i.after.counter(name) - i.before.counter(name);
    let cache_delta = |k: &str| {
        i.after.cache.get(k).copied().unwrap_or(0.0) - i.before.cache.get(k).copied().unwrap_or(0.0)
    };
    let ratios = tier_hit_ratios(&i.before.cache, &i.after.cache, 1.0);
    let hit_ratio = |tier: &str| ratios.get(tier).copied().unwrap_or(0.0);
    let self_us = i
        .replay
        .spans
        .as_ref()
        .map(Recorder::self_micros_by_name)
        .unwrap_or_default();
    let span_p50 = |name: &str| median(self_us.get(name).map_or(&[][..], Vec::as_slice));
    let span_sum = |name: &str| self_us.get(name).map_or(0.0, |v| v.iter().sum::<f64>());

    // server
    let overhead: Vec<f64> = ok.iter().map(|r| r.lat_us - r.server_us).collect();
    let totals: Vec<f64> = ok.iter().map(|r| r.server_us).collect();
    m.push(("server.overhead_us".into(), median(&overhead), "us"));
    m.push(("server.parse_us".into(), span_p50("server.parse"), "us"));
    m.push(("server.total_us".into(), median(&totals), "us"));
    // query
    m.push(("query.parse_us".into(), span_p50("query.parse"), "us"));
    // core
    m.push(("core.validate_us".into(), span_p50("core.validate"), "us"));
    m.push(("core.plan_us".into(), span_p50("core.plan"), "us"));
    m.push(("core.sigma_us".into(), span_p50("core.sigma"), "us"));
    for (f, name) in EXEC_SPANS.iter().enumerate() {
        m.push((format!("core.exec_us.q{}", f + 1), span_p50(name), "us"));
    }
    m.push((
        "core.tuples_per_row".into(),
        i.replay.tuples / i.replay.rows.max(1.0),
        "ratio",
    ));
    // par
    let exec_sum: f64 = EXEC_SPANS.iter().map(|n| span_sum(n)).sum();
    let run_sum = span_sum("par.run");
    m.push(("par.run_us".into(), span_p50("par.run"), "us"));
    m.push((
        "par.speedup".into(),
        if run_sum > 0.0 {
            exec_sum / run_sum
        } else {
            0.0
        },
        "x",
    ));
    m.push((
        "par.jobs_per_query".into(),
        delta("qppt_pool_jobs_started_total") / requests,
        "count",
    ));
    m.push((
        "par.admission_waits".into(),
        per_1k(delta("qppt_pool_admission_waits_total")),
        "per_1k_req",
    ));
    // cache
    for tier in ["result", "selection", "plan", "dim"] {
        m.push((format!("cache.{tier}_hit_ratio"), hit_ratio(tier), "ratio"));
        m.push((
            format!("cache.{tier}_evictions"),
            per_1k(cache_delta(&format!("{tier}_evictions"))),
            "per_1k_req",
        ));
        m.push((
            format!("cache.{tier}_bytes"),
            i.after
                .cache
                .get(&format!("{tier}_bytes"))
                .copied()
                .unwrap_or(0.0),
            "B",
        ));
    }
    // router
    let routed = i.workload == Workload::Routed;
    let hit_lat: Vec<f64> = ok
        .iter()
        .filter(|r| r.pool_idx.is_some())
        .map(|r| r.lat_us)
        .collect();
    let router = [
        (
            "router.result_hit_ratio",
            hit_ratio("router_result"),
            "ratio",
        ),
        (
            "router.partial_hit_ratio",
            hit_ratio("router_partial"),
            "ratio",
        ),
        ("router.hit_us", median(&hit_lat), "us"),
        (
            "router.shard_rtt_p50_us",
            hist_quantile(i.before, i.after, "qppt_router_shard_rtt_micros", 0.50),
            "us",
        ),
        (
            "router.shard_rtt_p99_us",
            hist_quantile(i.before, i.after, "qppt_router_shard_rtt_micros", 0.99),
            "us",
        ),
        (
            "router.merge_us",
            hist_quantile(i.before, i.after, "qppt_router_merge_micros", 0.50),
            "us",
        ),
        (
            "router.probes",
            per_1k(cache_delta("router_probes")),
            "per_1k_req",
        ),
        (
            "router.retries",
            per_1k(delta("qppt_router_retries_total")),
            "per_1k_req",
        ),
    ];
    for (name, v, unit) in router {
        m.push((name.into(), if routed { v } else { 0.0 }, unit));
    }
    // ssb / storage
    let gen: Vec<f64> = i.setups.iter().map(|s| s.gen_s).collect();
    let index: Vec<f64> = i.setups.iter().map(|s| s.index_s).collect();
    m.push(("ssb.gen_s".into(), median(&gen), "s"));
    m.push(("storage.index_build_s".into(), median(&index), "s"));
    m.push((
        "storage.index_mb".into(),
        i.index_bytes as f64 / (1u64 << 20) as f64,
        "MB",
    ));
    // obs, workload
    m.push((
        "obs.trace_overhead".into(),
        1.0 - w.qps() / i.untraced_qps.max(1e-9),
        "ratio",
    ));
    m.push(("workload.repeat_share".into(), w.repeat_share, "ratio"));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_quantiles_interpolate_inside_the_bucket() {
        let cum = [
            (10.0, 0.0),
            (25.0, 50.0),
            (50.0, 100.0),
            (f64::INFINITY, 100.0),
        ];
        assert_eq!(quantile_of_cumulative(&cum, 0.5), 25.0);
        assert_eq!(quantile_of_cumulative(&cum, 0.25), 17.5);
        assert_eq!(quantile_of_cumulative(&cum, 0.99), 49.5);
        assert_eq!(quantile_of_cumulative(&[], 0.5), 0.0);
        let spill = [(10.0, 1.0), (f64::INFINITY, 3.0)];
        assert_eq!(quantile_of_cumulative(&spill, 0.9), 10.0);
    }
}
