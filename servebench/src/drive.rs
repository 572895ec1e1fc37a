//! Closed-loop clients: one thread and one connection per client, each
//! sending its next request only after the previous reply's `END`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use qppt_server::{ClientError, QpptClient};
use qppt_storage::{QueryResult, Value};

use crate::stream::{fnv64, ClientStream, Request};
use crate::trace::Recorder;

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Rec {
    /// When it was sent, from the load generator's epoch.
    pub start: Duration,
    /// Client send to `END`, in microseconds.
    pub lat_us: f64,
    /// The server's own `total_micros` for it.
    pub server_us: f64,
    pub key: u64,
    pub template: usize,
    pub pool_idx: Option<usize>,
    /// [`digest`] of the answer; 0 when `ok` is false.
    pub digest: u64,
    /// `false` on an `ERR` reply or an I/O or protocol error.
    pub ok: bool,
}

/// What one phase (a warm-up round or the timed window) produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub recs: Vec<Rec>,
    /// The common start, from the load generator's epoch.
    pub start: Duration,
    /// Wall time from the common start to the last client's last `END`.
    pub elapsed: Duration,
    /// Lines of the fresh (non-pool) requests, by key.
    pub fresh_lines: HashMap<u64, String>,
    /// Share of this phase's requests whose text was already sent
    /// earlier in the run.
    pub repeat_share: f64,
    /// One `client.request` span per request, when traced.
    pub spans: Option<Recorder>,
}

impl Phase {
    /// Completed requests per second.
    pub fn qps(&self) -> f64 {
        self.recs.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Order-sensitive digest of a decoded result: column labels, then every
/// row's group values and aggregates.
pub fn digest(r: &QueryResult) -> u64 {
    let mut bytes = Vec::with_capacity(64 + r.rows.len() * 32);
    for c in r.group_cols.iter().chain(&r.agg_cols) {
        bytes.extend_from_slice(c.as_bytes());
        bytes.push(0);
    }
    for row in &r.rows {
        for v in &row.key_values {
            match v {
                Value::Int(i) => {
                    bytes.push(1);
                    bytes.extend_from_slice(&i.to_le_bytes());
                }
                Value::Str(s) => {
                    bytes.push(2);
                    bytes.extend_from_slice(&(s.len() as u64).to_le_bytes());
                    bytes.extend_from_slice(s.as_bytes());
                }
            }
        }
        for a in &row.agg_values {
            bytes.extend_from_slice(&a.to_le_bytes());
        }
        bytes.push(b'\n');
    }
    fnv64(&bytes)
}

fn send(client: &mut QpptClient, req: &Request) -> Result<qppt_server::Served, ClientError> {
    match req.line.strip_prefix("RUN ") {
        Some(name) => client.run(name, &[]),
        None => client.query(
            req.line
                .strip_prefix("QUERY ")
                .expect("a RUN or QUERY line"),
            &[],
        ),
    }
}

struct ClientState {
    conn: QpptClient,
    stream: ClientStream,
    id: u64,
    sent: u64,
}

/// The clients of one run. Streams and connections persist across
/// phases, so warm-up and the window consume one stream per client.
pub struct LoadGen {
    epoch: Instant,
    addr: String,
    clients: Vec<ClientState>,
    seen: HashSet<u64>,
    /// Failed requests so far; the first few are printed.
    errors_shown: usize,
}

impl LoadGen {
    pub fn new(addr: &str, conns: Vec<QpptClient>, streams: Vec<ClientStream>) -> Self {
        Self {
            epoch: Instant::now(),
            addr: addr.to_string(),
            clients: conns
                .into_iter()
                .zip(streams)
                .enumerate()
                .map(|(i, (conn, stream))| ClientState {
                    conn,
                    stream,
                    id: i as u64,
                    sent: 0,
                })
                .collect(),
            seen: HashSet::new(),
            errors_shown: 0,
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Runs every client for `length` from a common start. With `trace`,
    /// each request also gets a span.
    pub fn run(&mut self, length: Duration, trace: bool) -> Phase {
        let barrier = Barrier::new(self.clients.len());
        let start: OnceLock<Instant> = OnceLock::new();
        let epoch = self.epoch;
        let addr = self.addr.as_str();
        type Out = (
            Vec<Rec>,
            Vec<(u64, String)>,
            Option<Recorder>,
            Instant,
            Vec<String>,
        );
        let outs: Vec<Out> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| {
                    let (barrier, start) = (&barrier, &start);
                    s.spawn(move || {
                        let mut recs = Vec::new();
                        let mut fresh = Vec::new();
                        let mut errors = Vec::new();
                        let mut spans = trace.then(|| Recorder::new(epoch));
                        barrier.wait();
                        let t0 = *start.get_or_init(Instant::now);
                        let deadline = t0 + length;
                        let mut last = t0;
                        while Instant::now() < deadline {
                            let req = c.stream.next_request();
                            let sent = Instant::now();
                            let answer = send(&mut c.conn, &req);
                            last = Instant::now();
                            let request_id = (c.id << 40) | c.sent;
                            c.sent += 1;
                            if let Some(sp) = spans.as_mut() {
                                sp.record("client.request", sent, last, None, request_id);
                            }
                            let (ok, digest, server_us) = match &answer {
                                Ok(a) => (true, digest(&a.result), a.stats.total_micros as f64),
                                Err(e) => {
                                    errors.push(format!("{e}"));
                                    if !matches!(e, ClientError::Server(_)) {
                                        if let Ok(conn) = QpptClient::connect(addr) {
                                            c.conn = conn;
                                        }
                                    }
                                    (false, 0, 0.0)
                                }
                            };
                            if req.pool_idx.is_none() {
                                fresh.push((req.key, req.line.clone()));
                            }
                            recs.push(Rec {
                                start: sent - epoch,
                                lat_us: (last - sent).as_secs_f64() * 1e6,
                                server_us,
                                key: req.key,
                                template: req.template,
                                pool_idx: req.pool_idx,
                                digest,
                                ok,
                            });
                        }
                        (recs, fresh, spans, last, errors)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let t0 = *start.get().expect("clients started");
        let mut phase = Phase::default();
        let mut last = t0;
        for (recs, fresh, spans, end, errors) in outs {
            phase.recs.extend(recs);
            phase.fresh_lines.extend(fresh);
            last = last.max(end);
            if let Some(sp) = spans {
                phase
                    .spans
                    .get_or_insert_with(|| Recorder::new(epoch))
                    .absorb(sp);
            }
            for e in errors {
                if self.errors_shown < 5 {
                    eprintln!("request failed: {e}");
                }
                self.errors_shown += 1;
            }
        }
        phase.start = t0 - epoch;
        phase.elapsed = last - t0;
        phase.recs.sort_by_key(|r| r.start);
        let repeats = phase
            .recs
            .iter()
            .filter(|r| !self.seen.insert(r.key))
            .count();
        phase.repeat_share = repeats as f64 / phase.recs.len().max(1) as f64;
        phase
    }
}

/// `CACHE STATS` as numbers.
pub fn cache_stats(control: &mut QpptClient) -> BTreeMap<String, f64> {
    control
        .cache_stats()
        .expect("CACHE STATS answers")
        .into_iter()
        .filter_map(|(k, v)| v.parse().ok().map(|v| (k, v)))
        .collect()
}

/// Per-tier hit ratio of the lookups between two `CACHE STATS`
/// snapshots, for tiers with at least `min_lookups` lookups.
pub fn tier_hit_ratios(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    min_lookups: f64,
) -> BTreeMap<String, f64> {
    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    after
        .keys()
        .filter_map(|k| k.strip_suffix("_hits"))
        .filter_map(|tier| {
            let hits = delta(&format!("{tier}_hits"));
            let lookups = hits + delta(&format!("{tier}_misses"));
            (lookups >= min_lookups).then(|| (tier.to_string(), hits / lookups))
        })
        .collect()
}

/// Warm-up: rounds of the workload's own stream until every busy cache
/// tier's per-round hit ratio moves by at most 0.05 between two
/// consecutive rounds, or `max_rounds`. Returns the number of rounds run.
pub fn warm_up(
    load: &mut LoadGen,
    control: &mut QpptClient,
    round: Duration,
    max_rounds: usize,
) -> usize {
    const TOLERANCE: f64 = 0.05;
    let mut before = cache_stats(control);
    let mut prev: Option<BTreeMap<String, f64>> = None;
    for r in 1..=max_rounds {
        load.run(round, false);
        let after = cache_stats(control);
        let ratios = tier_hit_ratios(&before, &after, 20.0);
        let steady = prev.as_ref().is_some_and(|p| {
            ratios
                .iter()
                .all(|(t, v)| p.get(t).is_some_and(|pv| (pv - v).abs() <= TOLERANCE))
        });
        if steady {
            return r;
        }
        prev = Some(ratios);
        before = after;
    }
    max_rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_storage::ResultRow;

    #[test]
    fn digest_sees_order_values_and_labels() {
        let row = |k: &str, a| ResultRow {
            key_values: vec![Value::str(k), Value::Int(1)],
            agg_values: vec![a],
        };
        let r = QueryResult {
            group_cols: vec!["g".into(), "y".into()],
            agg_cols: vec!["revenue".into()],
            rows: vec![row("a", 5), row("b", 6)],
        };
        let mut swapped = r.clone();
        swapped.rows.reverse();
        let mut relabeled = r.clone();
        relabeled.agg_cols[0] = "profit".into();
        let mut changed = r.clone();
        changed.rows[1].agg_values[0] = 7;
        assert_eq!(digest(&r), digest(&r.clone()));
        for other in [swapped, relabeled, changed] {
            assert_ne!(digest(&r), digest(&other));
        }
    }

    #[test]
    fn hit_ratios_come_from_deltas() {
        let snap = |h: f64, m: f64| {
            BTreeMap::from([
                ("result_hits".to_string(), h),
                ("result_misses".to_string(), m),
                ("dim_hits".to_string(), 0.0),
                ("dim_misses".to_string(), 1.0),
            ])
        };
        let r = tier_hit_ratios(&snap(10.0, 10.0), &snap(100.0, 20.0), 20.0);
        assert_eq!(r.get("result"), Some(&0.9));
        assert_eq!(r.get("dim"), None, "too few lookups to judge");
    }
}
